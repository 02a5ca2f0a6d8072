import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evodyn import (
    InputError,
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    UniformTypes,
    affine_game,
    aggregate_best_response,
    best_response,
    linear_coordination_game,
    make_distribution,
)
from evodyn.composition import balanced_composition, make_grid
from evodyn.games import DEFAULT_DOMAIN, require_aggregate_equilibrium

DISTRIBUTIONS = [
    UniformTypes(0.0, 1.0),
    UniformTypes(-1.5, 2.0),
    SqrtShiftTypes(),
    TruncatedLogisticTypes(mu=0.0, s=0.05),
    TruncatedLogisticTypes(mu=0.3, s=0.07, tau=0.9),
]


def test_payoff_examples(canon_game):
    assert canon_game.payoff(0.25) == pytest.approx(0.5625, abs=1e-15)
    assert canon_game.payoff(0.0) == pytest.approx(-0.05, abs=1e-15)
    assert linear_coordination_game(0.5).payoff(0.5) == pytest.approx(0.0, abs=1e-15)


def test_payoff_domain_violation(canon_game):
    with pytest.raises(InputError):
        canon_game.payoff(2.0)


def test_nan_aggregate_is_refused(canon_game, canon_dist):
    # NaN fails every comparison, so it must not slip past the domain check
    with pytest.raises(InputError, match="outside evaluation domain"):
        canon_game.payoff(float("nan"))
    with pytest.raises(InputError, match="outside evaluation domain"):
        canon_game.payoff(np.array([0.25, np.nan]))
    with pytest.raises(InputError):
        require_aggregate_equilibrium(canon_game, canon_dist, float("nan"))
    with pytest.raises(InputError):
        balanced_composition(
            make_grid(canon_dist, 400), canon_dist, canon_game, float("nan"), 0.2, 0.3
        )


def test_linear_coordination_validates_cost():
    with pytest.raises(InputError):
        linear_coordination_game(1.0)
    with pytest.raises(InputError):
        linear_coordination_game(0.0)


def test_externality_flag():
    assert affine_game(2.45, -0.05).positive_externality
    assert linear_coordination_game(0.3).positive_externality
    assert not affine_game(0.0, 0.7).positive_externality
    assert not affine_game(-1.0, 0.7).positive_externality


def test_best_response_examples(canon_game, canon_dist):
    # F(0.25) = 9/16; the tie goes to I
    assert best_response(canon_game, canon_dist, 0.25, 1.0) == "O"
    assert best_response(canon_game, canon_dist, 0.25, 9 / 16) == "I"
    assert best_response(canon_game, canon_dist, 0.25, 0.5) == "I"


def test_best_response_requires_supported_type(canon_game, canon_dist):
    with pytest.raises(InputError):
        best_response(canon_game, canon_dist, 0.25, 5.0)


def test_best_response_is_lower_interval(canon_game, canon_dist):
    thetas = np.linspace(0.0, 3.0, 301)
    choices = [best_response(canon_game, canon_dist, 0.25, t) for t in thetas]
    joined = "".join("1" if c == "I" else "0" for c in choices)
    assert "01" not in joined  # I-choosers form a lower interval in theta


def test_aggregate_best_response_examples(canon_game, canon_dist):
    assert aggregate_best_response(canon_game, canon_dist, 0.25) == pytest.approx(
        0.25, abs=1e-14
    )
    # F(0) = -0.05 below the support bottom: clamp to 0
    assert aggregate_best_response(canon_game, canon_dist, 0.0) == 0.0
    flat = affine_game(0.0, 0.7)
    uni = UniformTypes(0.0, 1.0)
    for xbar in (0.0, 0.3, 1.0):
        assert aggregate_best_response(flat, uni, xbar) == pytest.approx(0.7)


def test_aggregate_best_response_monotone_under_positive_externality(
    canon_game, canon_dist
):
    xs = np.linspace(0.0, 1.0, 2001)
    vals = np.asarray(aggregate_best_response(canon_game, canon_dist, xs))
    assert np.all(np.diff(vals) >= -1e-15)


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.family + str(d.support))
def test_inverse_consistency_bulk(dist):
    rng = np.random.default_rng(7)
    u = rng.random(1000)
    back = np.asarray(dist.cdf(dist.inverse_cdf(u)))
    assert np.abs(back - u).max() <= 1e-10


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.family + str(d.support))
def test_cdf_endpoints_and_monotonicity(dist):
    lo, hi = dist.support
    assert dist.cdf(lo) == pytest.approx(0.0, abs=1e-12)
    assert dist.cdf(hi) == pytest.approx(1.0, abs=1e-12)
    assert dist.cdf(lo - 1.0) == 0.0
    assert dist.cdf(hi + 1.0) == 1.0
    grid = np.linspace(lo, hi, 4001)
    assert np.all(np.diff(np.asarray(dist.cdf(grid))) >= -1e-15)


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.family + str(d.support))
def test_density_matches_cdf_difference(dist):
    lo, hi = dist.support
    width = hi - lo
    interior = np.linspace(lo + 0.01 * width, hi - 0.01 * width, 97)
    h = 1e-6
    central = (np.asarray(dist.cdf(interior + h)) - np.asarray(dist.cdf(interior - h))) / (
        2.0 * h
    )
    assert np.abs(central - np.asarray(dist.pdf(interior))).max() <= 1e-4


@settings(max_examples=200)
@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_inverse_consistency_property(u):
    for dist in DISTRIBUTIONS:
        assert abs(float(dist.cdf(dist.inverse_cdf(u))) - u) <= 1e-10


def test_inverse_rejects_out_of_range():
    with pytest.raises(InputError):
        SqrtShiftTypes().inverse_cdf(1.5)


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.family + str(d.support))
@pytest.mark.parametrize("u", [np.nan, np.array([0.5, np.nan])], ids=["scalar", "array"])
def test_inverse_rejects_nan(dist, u):
    # NaN fails every comparison, so it must not slip past the range check
    with pytest.raises(InputError, match=r"outside \[0, 1\]"):
        dist.inverse_cdf(u)


def test_refused_array_gives_one_short_line():
    # 128 quantile nodes with one just past 1, as a Gauss-Legendre rule on a
    # span that ends a few ulps above 1 gives
    u = np.linspace(0.0, 1.0, 128)
    u[-1] = 1.0000000000000007
    with pytest.raises(InputError) as refused:
        SqrtShiftTypes().inverse_cdf(u)
    message = str(refused.value)
    assert message == "quantile argument 1.0000000000000007 at index 127 outside [0, 1]"
    with pytest.raises(InputError, match=r"^quantile argument nan at index 1, 0 outside"):
        SqrtShiftTypes().inverse_cdf(np.array([[0.5, 0.5], [np.nan, 2.0]]))


def test_make_distribution_factory():
    assert make_distribution("uniform", lo=0.0, hi=2.0).family == "uniform"
    assert make_distribution("sqrt_shift").family == "sqrt_shift"
    logi = make_distribution("logistic", mu=0.0, s=0.1)
    assert logi.support == pytest.approx((-1.2, 1.2))  # tau defaults to 12 scale units
    with pytest.raises(InputError):
        make_distribution("gamma")


def test_make_distribution_ignores_other_families_parameters():
    assert make_distribution("sqrt_shift", lo=1.0) == SqrtShiftTypes()
    assert make_distribution("uniform", lo=0.0, hi=2.0, mu=1.0, s=0.1) == UniformTypes(0.0, 2.0)
    assert make_distribution("logistic", mu=0.0, s=0.1, lo=-1.0) == TruncatedLogisticTypes(0.0, 0.1)


@pytest.mark.parametrize("family,params,missing", [
    ("uniform", {"lo": 0.0}, "hi"),
    ("uniform", {"mu": 0.0, "s": 0.1}, "lo and hi"),
    ("logistic", {"mu": 0.0, "tau": 1.0}, "s"),
])
def test_make_distribution_names_a_missing_parameter(family, params, missing):
    with pytest.raises(InputError, match=f"{family} distribution needs {missing}$"):
        make_distribution(family, **params)


# -- per-family formulas: the oracle for the shared cdf / inverse_cdf / pdf ---
# Before TypeDistribution held the clamping, off-support and scalar rules, each
# family wrote them into its own formulas; those formulas are kept here, and the
# shared rules must match them bit for bit.

def _oracle_logistic_base(dist, theta):
    z = (np.asarray(theta, dtype=float) - dist.mu) / dist.s
    return 1.0 / (1.0 + np.exp(-z))


def _oracle_logistic_mass(dist):
    lo, hi = dist.support
    c_lo = float(_oracle_logistic_base(dist, lo))
    return c_lo, float(_oracle_logistic_base(dist, hi)) - c_lo


def _oracle_cdf(dist, theta):
    t = np.asarray(theta, dtype=float)
    if dist.family == "uniform":
        # the one deliberate change: below the support the shared rule gives
        # +0.0, where (t - lo) / (hi - lo) could underflow to -0.0 (a support
        # starting at 0 and t a subnormal below it), which the clip kept
        out = np.where(t < dist.lo, 0.0, np.clip((t - dist.lo) / (dist.hi - dist.lo), 0.0, 1.0))
    elif dist.family == "sqrt_shift":
        out = np.clip(np.sqrt(np.clip(t, 0.0, 3.0) + 1.0) - 1.0, 0.0, 1.0)
    else:
        lo, hi = dist.support
        c_lo, z = _oracle_logistic_mass(dist)
        out = np.clip((_oracle_logistic_base(dist, np.clip(t, lo, hi)) - c_lo) / z, 0.0, 1.0)
    return float(out) if np.ndim(theta) == 0 else out


def _oracle_inverse_cdf(dist, u):
    arr = np.asarray(u, dtype=float)
    if dist.family == "uniform":
        out = dist.lo + arr * (dist.hi - dist.lo)
    elif dist.family == "sqrt_shift":
        out = (arr + 1.0) ** 2 - 1.0
    else:
        c_lo, z = _oracle_logistic_mass(dist)
        v = np.clip(c_lo + arr * z, 1e-300, 1.0 - 1e-16)
        out = np.clip(dist.mu + dist.s * (np.log(v) - np.log1p(-v)), *dist.support)
    return float(out) if np.ndim(u) == 0 else out


def _oracle_pdf(dist, theta):
    t = np.asarray(theta, dtype=float)
    lo, hi = dist.support
    inside = (t >= lo) & (t <= hi)
    if dist.family == "uniform":
        out = np.where(inside, 1.0 / (dist.hi - dist.lo), 0.0)
    elif dist.family == "sqrt_shift":
        out = np.where(inside, 0.5 / np.sqrt(np.where(inside, t, 0.0) + 1.0), 0.0)
    else:
        _, z = _oracle_logistic_mass(dist)
        sigma = _oracle_logistic_base(dist, np.where(inside, t, dist.mu))
        out = np.where(inside, sigma * (1.0 - sigma) / (dist.s * z), 0.0)
    return float(out) if np.ndim(theta) == 0 else out


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


_random_distributions = st.one_of(
    st.builds(
        lambda lo, width: UniformTypes(lo, lo + width),
        st.floats(-10.0, 10.0), st.floats(1e-3, 20.0),
    ),
    st.just(SqrtShiftTypes()),
    st.builds(
        lambda mu, s, tau_scale: TruncatedLogisticTypes(
            mu, s, None if tau_scale is None else tau_scale * s
        ),
        st.floats(-5.0, 5.0), st.floats(1e-3, 2.0), st.none() | st.floats(0.01, 30.0),
    ),
)


@settings(max_examples=300, deadline=None)
@given(dist=_random_distributions, data=st.data())
def test_closed_forms_match_the_per_family_formulas_bit_for_bit(dist, data):
    lo, hi = dist.support
    edges = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
             np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf), -np.inf, np.inf, np.nan]
    thetas = data.draw(st.lists(
        st.sampled_from(edges) | st.floats(lo - 1.0, hi + 1.0) | st.floats(), max_size=24
    ))
    quantiles = data.draw(st.lists(
        st.sampled_from([0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)]) | st.floats(0.0, 1.0),
        max_size=24,
    ))
    for formula, oracle, args in (
        ("cdf", _oracle_cdf, thetas),
        ("pdf", _oracle_pdf, thetas),
        ("inverse_cdf", _oracle_inverse_cdf, quantiles),
    ):
        method = getattr(dist, formula)
        # the oracle's uniform c.d.f. overflows to inf on huge types, harmlessly
        with np.errstate(over="ignore"):
            _assert_same_bits(method(np.array(args)), oracle(dist, np.array(args)))
            for x in args:
                _assert_same_bits(method(x), oracle(dist, x))


@pytest.mark.parametrize("lo,hi", [
    (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan), (1.0, 1.0), (2.0, 1.0),
    (-1e308, 1e308),  # finite ends whose width hi - lo overflows to inf
])
def test_uniform_rejects_non_finite_or_empty_support(lo, hi):
    with pytest.raises(InputError, match="finite and nonempty"):
        UniformTypes(lo, hi)


@pytest.mark.parametrize("params,name", [
    ({"mu": np.nan, "s": 0.05}, "mu"),
    ({"mu": np.inf, "s": 0.05}, "mu"),
    ({"mu": 0.0, "s": np.nan}, "s"),
    ({"mu": 0.0, "s": np.inf}, "s"),
    ({"mu": 0.0, "s": 0.0}, "s"),
    ({"mu": 0.0, "s": 0.05, "tau": np.nan}, "tau"),
    ({"mu": 0.0, "s": 0.05, "tau": np.inf}, "tau"),
    ({"mu": 0.0, "s": 0.05, "tau": -0.1}, "tau"),
])
def test_logistic_rejects_non_finite_parameters(params, name):
    with pytest.raises(InputError, match=f"{name}="):
        TruncatedLogisticTypes(**params)


def test_logistic_rejects_a_truncation_past_the_range_of_exp():
    # the c.d.f. at the support bottom takes exp(tau / s), here exp(800)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match="tau=800.0"):
            TruncatedLogisticTypes(0.0, 1.0, tau=800.0)
        dist = TruncatedLogisticTypes(0.0, 1.0, tau=709.78)  # just inside the range
        assert (dist.cdf(-709.78), dist.cdf(0.0), dist.cdf(709.78)) == (0.0, 0.5, 1.0)


# -- domain checks: one min/max pair and a min/max clamp ----------------------
# payoff and inverse_cdf refused out-of-domain input with two comparisons and
# two np.all calls, and cdf clamped with two np.clip calls; those forms are
# kept here, and the shipped checks must accept, refuse and return exactly
# what they did.

def _old_payoff(game, xbar):
    lo, hi = DEFAULT_DOMAIN
    x = np.asarray(xbar, dtype=float)
    if not (np.all(x >= lo) and np.all(x <= hi)):
        raise InputError(f"aggregate {xbar!r} outside evaluation domain [{lo}, {hi}]")
    out = game.slope * x + game.intercept
    return float(out) if np.ndim(xbar) == 0 else out


def _old_cdf(dist, theta):
    lo, hi = dist.support
    out = np.clip(dist._cdf(np.clip(np.asarray(theta, dtype=float), lo, hi)), 0.0, 1.0)
    return float(out) if np.ndim(theta) == 0 else out


def _old_inverse_cdf(dist, u):
    arr = np.asarray(u, dtype=float)
    if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        # the message names the first refused value, and its index in an array
        if arr.ndim == 0:
            raise InputError(f"quantile argument {float(arr)!r} outside [0, 1]")
        k = next(i for i, v in enumerate(arr.tolist()) if not 0.0 <= v <= 1.0)
        raise InputError(f"quantile argument {arr.tolist()[k]!r} at index {k} outside [0, 1]")
    return _oracle_inverse_cdf(dist, u)


def _assert_same_outcome(new, old, arg):
    try:
        want = old(arg)
    except InputError as exc:
        with pytest.raises(InputError) as refused:
            new(arg)
        assert str(refused.value) == str(exc)
    else:
        _assert_same_bits(new(arg), want)


def _domain_inputs(edges):
    """A float, a 0-d array, or a 1-d array (empty included) of edge values."""
    value = st.sampled_from(edges) | st.floats()
    return st.one_of(
        value,
        value.map(np.asarray),
        st.lists(value, max_size=12).map(lambda v: np.array(v, dtype=float)),
    )


def _edges(lo, hi):
    return [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
            np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
            0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]


# supports that end at +0.0 or -0.0, where the clamps meet a signed-zero tie
_SIGNED_ZERO_ENDS = [
    UniformTypes(-0.0, 1.0),
    UniformTypes(-1.0, -0.0),
    TruncatedLogisticTypes(mu=0.6, s=0.05, tau=0.6),  # support [0.0, 1.2]
]


@settings(max_examples=300, deadline=None)
@given(
    game=st.builds(affine_game, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    dist=st.sampled_from(DISTRIBUTIONS + _SIGNED_ZERO_ENDS) | _random_distributions,
    data=st.data(),
)
def test_domain_checks_match_the_np_all_and_np_clip_forms(game, dist, data):
    xbar = data.draw(_domain_inputs(_edges(*DEFAULT_DOMAIN)))
    theta = data.draw(_domain_inputs(_edges(*dist.support)))
    u = data.draw(_domain_inputs(_edges(0.0, 1.0)))
    with np.errstate(over="ignore"):  # the uniform closed form on huge types
        _assert_same_outcome(game.payoff, lambda x: _old_payoff(game, x), xbar)
        _assert_same_outcome(dist.cdf, lambda t: _old_cdf(dist, t), theta)
        _assert_same_outcome(dist.inverse_cdf, lambda q: _old_inverse_cdf(dist, q), u)


@pytest.mark.parametrize("dist", DISTRIBUTIONS + _SIGNED_ZERO_ENDS,
                         ids=lambda d: d.family + str(d.support))
def test_domain_checks_match_the_old_forms_on_every_edge_value(canon_game, dist):
    # every edge value as a float, a 0-d array and inside one 1-d array; the
    # signed-zero ties (a type of -0.0 against a support that starts at 0.0)
    # are too rare among random draws to leave to the property above
    for (lo, hi), new, old in (
        (DEFAULT_DOMAIN, canon_game.payoff, lambda x: _old_payoff(canon_game, x)),
        (dist.support, dist.cdf, lambda t: _old_cdf(dist, t)),
        ((0.0, 1.0), dist.inverse_cdf, lambda q: _old_inverse_cdf(dist, q)),
    ):
        edges = _edges(lo, hi)
        for value in edges:
            _assert_same_outcome(new, old, value)
            _assert_same_outcome(new, old, np.asarray(value))
        _assert_same_outcome(new, old, np.array(edges))
        _assert_same_outcome(new, old, np.array([v for v in edges if lo <= v <= hi]))


@pytest.mark.parametrize("arg", [np.empty(0), np.empty((0, 3))], ids=["1-d", "2-d"])
def test_empty_arrays_are_inside_every_domain(canon_game, arg):
    for out in (canon_game.payoff(arg), SqrtShiftTypes().cdf(arg),
                SqrtShiftTypes().inverse_cdf(arg)):
        assert isinstance(out, np.ndarray) and out.shape == arg.shape


@settings(max_examples=100, deadline=None)
@given(dist=st.sampled_from(DISTRIBUTIONS), slope=st.floats(-2.0, 0.0) | st.floats(0.01, 60.0))
def test_quantile_slope_levels_are_every_level_where_the_density_is_one_over_the_slope(
    dist, slope
):
    # Pinv'(u) = 1 / p(Pinv(u)): the levels are ascending, lie in [0, 1], and
    # a scan of Pinv' - slope changes sign only across one of them
    levels = dist.quantile_slope_levels(slope)
    assert np.all(np.diff(levels) > 0.0)
    assert np.all((levels >= 0.0) & (levels <= 1.0))
    if slope <= 0.0:
        assert levels.size == 0
    for u in levels:
        assert dist.pdf(dist.inverse_cdf(u)) * slope == pytest.approx(1.0, rel=1e-9)
    us = np.linspace(0.0, 1.0, 2001)
    excess = 1.0 / np.asarray(dist.pdf(np.asarray(dist.inverse_cdf(us)))) - slope
    for i in np.flatnonzero(excess[:-1] * excess[1:] < 0.0):
        assert np.any((levels >= us[i]) & (levels <= us[i + 1]))
