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
from evodyn.games import require_aggregate_equilibrium

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


def test_make_distribution_factory():
    assert make_distribution("uniform", lo=0.0, hi=2.0).family == "uniform"
    assert make_distribution("sqrt_shift").family == "sqrt_shift"
    logi = make_distribution("logistic", mu=0.0, s=0.1)
    assert logi.support == pytest.approx((-1.2, 1.2))  # tau defaults to 12 scale units
    with pytest.raises(InputError):
        make_distribution("gamma")


@pytest.mark.parametrize("lo,hi", [
    (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan), (1.0, 1.0), (2.0, 1.0),
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
