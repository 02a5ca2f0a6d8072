import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evodyn import (
    InputError,
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    UniformTypes,
    affine_game,
    aggregate_best_response,
    bayesian_equilibrium,
    critical_mass_sets,
    find_aggregate_equilibria,
    homogenized_field,
    integrate_homogenized,
    linear_coordination_game,
    rate_ratio_escape_bound,
    select_most_robust,
    vector_field,
)
from evodyn import equilibria
from evodyn.cli import main
from evodyn.equilibria import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    Equilibrium,
    EquilibriumReport,
)

# analytic roots of 20 xbar^2 - 9 xbar + 1 = 0
ROOT_LO = (9 - 1) / 40
ROOT_HI = (9 + 1) / 40


def test_canonical_equilibrium_set(canon_game, canon_dist):
    report = find_aggregate_equilibria(canon_game, canon_dist)
    levels = [e.xbar for e in report.equilibria]
    labels = [e.stability for e in report.equilibria]
    assert levels == pytest.approx([0.0, ROOT_LO, ROOT_HI], abs=1e-6)
    assert labels == ["stable", "unstable", "stable"]


def test_canonical_basins(canon_game, canon_dist):
    report = find_aggregate_equilibria(canon_game, canon_dist)
    corner, middle, upper = report.equilibria
    assert (corner.basin_lo, corner.basin_hi) == pytest.approx((0.0, 0.2), abs=1e-9)
    assert (upper.basin_lo, upper.basin_hi) == pytest.approx((0.2, 1.0), abs=1e-9)
    assert middle.basin_lo == middle.basin_hi == pytest.approx(0.2, abs=1e-9)
    # stable basins only touch at the separating unstable equilibrium
    assert corner.basin_hi <= upper.basin_lo + 1e-9


def test_fixed_point_residuals(canon_game, canon_dist):
    report = find_aggregate_equilibria(canon_game, canon_dist)
    for eq in report.equilibria:
        residual = float(aggregate_best_response(canon_game, canon_dist, eq.xbar)) - eq.xbar
        assert abs(residual) <= 1e-9


def test_constant_map_single_equilibrium():
    report = find_aggregate_equilibria(affine_game(0.0, 0.7), UniformTypes(0.0, 1.0))
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert eq.xbar == pytest.approx(0.7, abs=1e-9)
    assert eq.stability == "stable"
    assert (eq.basin_lo, eq.basin_hi) == (0.0, 1.0)


def test_symmetric_coordination_has_half_equilibrium():
    game = linear_coordination_game(0.5)
    dist = TruncatedLogisticTypes(mu=0.0, s=0.05)
    report = find_aggregate_equilibria(game, dist)
    assert any(abs(e.xbar - 0.5) <= 1e-9 for e in report.equilibria)


def test_equilibria_stationary_under_homogenized(canon_game, canon_dist):
    report = find_aggregate_equilibria(canon_game, canon_dist)
    for eq in report.equilibria:
        traj = integrate_homogenized(canon_game, canon_dist, eq.xbar, t_end=10.0, dt=0.01)
        assert abs(traj.final_xbar - eq.xbar) <= 1e-8


def test_bayesian_equilibrium_cutoffs(canon_game, canon_dist, grid4000):
    x = bayesian_equilibrium(canon_game, canon_dist, grid4000, 0.25)
    common = canon_game.payoff(0.25)
    indicator = (grid4000.nodes <= common).astype(float)
    assert np.array_equal(x.values, indicator)  # exact: 0.25 * n is integral

    zeros = bayesian_equilibrium(canon_game, canon_dist, grid4000, 0.0)
    assert np.all(zeros.values == 0.0)

    # at the unstable equilibrium the cut-off sits at inverse_cdf(0.2) = 0.44 = F(0.2)
    mid = bayesian_equilibrium(canon_game, canon_dist, grid4000, 0.2)
    assert canon_dist.inverse_cdf(0.2) == pytest.approx(0.44, abs=1e-12)
    assert canon_game.payoff(0.2) == pytest.approx(0.44, abs=1e-12)
    participating = grid4000.nodes[mid.values > 0]
    assert participating.max() <= 0.44 + 1e-9


def test_bayesian_equilibrium_rejects_non_equilibrium(canon_game, canon_dist, grid2000):
    with pytest.raises(InputError, match=r"is not an aggregate equilibrium \(fixed-point residual"):
        bayesian_equilibrium(canon_game, canon_dist, grid2000, 0.22)


def test_bayesian_equilibria_stationary_under_both_protocols(
    canon_game, canon_dist, grid4000, standard, cubic
):
    for xbar_star in (0.0, 0.2, 0.25):
        x = bayesian_equilibrium(canon_game, canon_dist, grid4000, xbar_star)
        for proto in (standard, cubic):
            rates = vector_field(canon_game, canon_dist, proto, x)
            assert np.abs(rates).max() <= 1e-9


def test_cutoff_type_examples(canon_dist):
    assert canon_dist.inverse_cdf(0.25) == pytest.approx(9 / 16, abs=1e-15)
    assert canon_dist.inverse_cdf(0.0) == 0.0
    assert canon_dist.inverse_cdf(1.0) == 3.0
    with pytest.raises(InputError):
        canon_dist.inverse_cdf(1.5)


def test_random_compositions_settle_toward_stationarity(canon_game, canon_dist, cubic):
    # long-run proxy: from random compositions the aggregate either reaches an
    # equilibrium or stops moving (near-cutoff sorting only finishes like
    # t^(-1/3), so the aggregate can hover far from the sorted fixed point
    # while its own velocity has already collapsed)
    from evodyn import integrate, make_grid
    from evodyn.composition import BayesianStrategy

    grid = make_grid(canon_dist, 500)
    report = find_aggregate_equilibria(canon_game, canon_dist)
    levels = [e.xbar for e in report.equilibria]
    rng = np.random.default_rng(23)
    for _ in range(20):
        x0 = BayesianStrategy(grid=grid, values=rng.random(grid.n))
        traj = integrate(canon_game, canon_dist, cubic, x0, t_end=200.0, dt=0.02)
        end = traj.final_xbar
        end_state = BayesianStrategy(grid=grid, values=traj.final_values)
        velocity = float(
            np.dot(grid.weights, vector_field(canon_game, canon_dist, cubic, end_state))
        )
        near_eq = min(abs(end - lv) for lv in levels) <= 1e-3
        assert near_eq or abs(velocity) <= 1e-3


# -- the narrowing of all brackets at once against one at a time --------------

def _narrow_one(g, a: float, g_a: float, b: float, g_b: float) -> float:
    """Narrow one sign-change bracket of g as the kernel does: each round
    reads g at its split into 32 cells and at a ladder 4**-j of its width
    around the regula-falsi guess, and keeps the cell that holds the first
    level where g loses the sign of g(a), until the bracket is at most 1e-16
    wide or its ends are adjacent doubles.  The root is b where g is 0
    there, else the bracket's mid."""
    ladder = 4.0 ** -np.arange(1, 16)
    while abs(b - a) > 1e-16 and math.nextafter(a, b) != b:
        guess = g_a / (g_a - g_b) if g_a != g_b else 0.0
        t = np.concatenate((np.arange(33) / 32, guess + ladder, guess - ladder))
        levels = a + (b - a) * np.sort(np.clip(t, 0.0, 1.0))
        levels[-1] = b
        gs = g(levels)
        lead = int(np.argmin(gs * math.copysign(1.0, g_a) > 0.0))
        a, g_a, b, g_b = levels[lead - 1], gs[lead - 1], levels[lead], gs[lead]
    return float(b if g_b == 0.0 else 0.5 * (a + b))


def scalar_search(game, dist, scan_resolution):
    """Oracle: the array scan, then one scalar field evaluation per vertex
    level and one array evaluation per round of one bracket; every root is
    labelled from g at the levels on either side of it.  Returns the report
    and, per root, whether it was narrowed (not a level where
    |g| <= 1e-12)."""

    def g(x):
        return homogenized_field(game, dist, x)

    def g_levels(xs):
        return np.asarray(aggregate_best_response(game, dist, xs)) - xs

    m = int(round(1.0 / scan_resolution))
    xs = np.linspace(0.0, 1.0, m + 1)
    gs = (np.asarray(aggregate_best_response(game, dist, xs)) - xs).tolist()
    xs = xs.tolist()
    # a discrete extremum of the scan gets a level at the vertex of the
    # parabola through it and its two neighbours
    levels = list(zip(xs, gs))
    for i in range(1, m):
        d0, d1 = gs[i] - gs[i - 1], gs[i + 1] - gs[i]
        if d0 * d1 < 0.0:
            vertex = xs[i] + 0.5 / m * (d0 + d1) / (d0 - d1)
            if vertex != xs[i]:
                levels.append((vertex, g(vertex)))
    levels.sort()
    sides = [None, *(y for _, y in levels), None]
    # a level root sorts before an equal narrowed one; a sign change with an
    # end where |g| <= 1e-12 already holds that level root
    at_levels, narrowed = [], []
    for j, (x, y) in enumerate(levels):
        if abs(y) <= 1e-12:
            at_levels.append((x, sides[j], sides[j + 2], False))
        elif j + 1 < len(levels) and y * levels[j + 1][1] < 0.0 and abs(levels[j + 1][1]) > 1e-12:
            x_next, y_next = levels[j + 1]
            narrowed.append((_narrow_one(g_levels, x, y, x_next, y_next), y, y_next, True))
    roots = []
    for c in sorted(at_levels + narrowed, key=lambda c: c[0]):
        if not roots or c[0] - roots[-1][0] > 1e-9:
            roots.append(c)
    records = []
    for idx, (r, below, above, _) in enumerate(roots):
        if (below is None or below > 0.0) and (above is None or above < 0.0):
            stability = STABLE
        elif (below is None or below < 0.0) and (above is None or above > 0.0):
            stability = UNSTABLE
        else:
            stability = SEMISTABLE
        if stability == STABLE:
            lo = roots[idx - 1][0] if idx > 0 else 0.0
            hi = roots[idx + 1][0] if idx + 1 < len(roots) else 1.0
        else:
            lo = hi = r
        records.append(Equilibrium(xbar=r, stability=stability, basin_lo=lo, basin_hi=hi))
    return EquilibriumReport(equilibria=tuple(records)), [c[3] for c in roots]


def report_bits(report):
    return [(e.xbar.hex(), e.stability, e.basin_lo.hex(), e.basin_hi.hex())
            for e in report.equilibria]


def sign_change_near(game, dist, r: float) -> bool:
    """Whether g is 0 at, or changes sign between, levels within 1e-16 or 2
    ulps of ``r``, whichever is wider, so that g is 0 or changes sign
    between two adjacent doubles there: a narrowed root is the mid of a
    sign-change bracket at most 1e-16 wide.  The levels are every double of
    that window where it holds at most 16,385, else 16,385 evenly spaced
    ones."""
    ulps = max(2, math.ceil(1e-16 / math.ulp(r)))
    if ulps <= 8192:
        ds = (np.float64(r).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)
    else:
        ds = r + 1e-16 * np.linspace(-1.0, 1.0, 16_385)
    ds = ds[(ds >= 0.0) & (ds <= 1.0)]
    g = np.asarray(aggregate_best_response(game, dist, ds)) - ds
    return bool((g == 0.0).any() or (g[:-1] * g[1:] < 0.0).any())


type_dists = st.one_of(
    st.just(SqrtShiftTypes()),
    st.builds(lambda lo, w: UniformTypes(lo, lo + w),
              st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=1e-6, max_value=2.0)),
    st.builds(lambda mu, s: TruncatedLogisticTypes(mu=mu, s=s),
              st.floats(min_value=-0.5, max_value=1.0), st.floats(min_value=0.02, max_value=0.5)),
)
affine_cases = st.tuples(
    st.builds(affine_game, st.floats(min_value=-3.0, max_value=5.0),
              st.floats(min_value=-1.5, max_value=1.5)),
    type_dists,
)
coordination_cases = st.tuples(
    st.builds(linear_coordination_game, st.floats(min_value=0.05, max_value=0.95)),
    st.builds(lambda mu, s: TruncatedLogisticTypes(mu=mu, s=s),
              st.floats(min_value=-0.3, max_value=0.3), st.floats(min_value=0.02, max_value=0.3)),
)
# a sigmoid far from linear across a scan cell: the regula-falsi guess from
# the cell's ends is poor, so a bracket needs more narrowing rounds
steep_cases = st.tuples(
    st.builds(linear_coordination_game, st.floats(min_value=0.05, max_value=0.95)),
    st.builds(lambda mu, s: TruncatedLogisticTypes(mu=mu, s=s),
              st.floats(min_value=-0.3, max_value=0.3), st.floats(min_value=1e-4, max_value=0.02)),
)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(affine_cases, coordination_cases, steep_cases),
       scan_resolution=st.sampled_from([1e-4, 1e-3, 0.0137]))
# a near-tangency (one semistable root) and two roots in (0.2, 0.2001), both
# inside one scan cell, found from the vertex level of the scan's extremum
@example(case=(affine_game(2.4001, -(0.20005 ** 2)), SqrtShiftTypes()), scan_resolution=1e-4)
@example(case=(affine_game(2.4001, -(0.20005 ** 2) + 1e-9), SqrtShiftTypes()),
         scan_resolution=1e-4)
# g' ~ 1e6: |g| <= 1e-12 holds at no float, so the bracket narrows to
# adjacent doubles
@example(case=(affine_game(1e6, -5e5), UniformTypes(0.0, 1.0)), scan_resolution=1e-4)
# the same above 1/2, where adjacent doubles are 1.1e-16 apart, so the
# bracket never gets narrower than 1e-16
@example(case=(affine_game(1e6, -7e5), UniformTypes(0.0, 1.0)), scan_resolution=1e-3)
# steep logistic types: the regula-falsi guesses lie on the flat side of the
# root
@example(case=(linear_coordination_game(0.3), TruncatedLogisticTypes(mu=0.0, s=1e-4)),
         scan_resolution=0.0137)
@example(case=(linear_coordination_game(0.71), TruncatedLogisticTypes(mu=0.0, s=3e-3)),
         scan_resolution=1e-4)
# three roots in one scan cell, where g is 0 at the cell's mid
@example(case=(linear_coordination_game(0.25), TruncatedLogisticTypes(mu=0.25, s=0.25)),
         scan_resolution=0.0137)
# g = 0 on all of [0, 1]: every scanned level is a semistable root
@example(case=(affine_game(1.0, 0.0), UniformTypes(0.0, 1.0)), scan_resolution=1e-3)
# two roots 3.6e-5 apart, where g' ~ 1.4e-5 and g is rounding noise over
# about 1e-11
@example(case=(affine_game(2.610221696723995, -0.09309262945817785), SqrtShiftTypes()),
         scan_resolution=1e-4)
# P(F(x)) = x up to rounding: g is noise of about 5e-11, and every scan cell
# holds many sign changes
@example(case=(affine_game(1e-6, 0.25), UniformTypes(0.25, 0.250001)), scan_resolution=1e-4)
def test_search_matches_scalar_search(case, scan_resolution):
    game, dist = case
    report = find_aggregate_equilibria(game, dist, scan_resolution)
    oracle, narrowed = scalar_search(game, dist, scan_resolution)
    assert report_bits(report) == report_bits(oracle)
    for eq, is_narrowed in zip(report.equilibria, narrowed):
        if is_narrowed:
            assert sign_change_near(game, dist, eq.xbar), eq.xbar


# -- no sign change of g without a reported root -------------------------------

@settings(max_examples=60, deadline=None)
@given(a=st.floats(min_value=2.1, max_value=2.9),
       log_eps=st.floats(min_value=-12.0, max_value=-5.0),
       sign=st.sampled_from([-1.0, 1.0]))
# two roots 6.3e-5 apart, inside one scan cell
@example(a=2.4001, log_eps=-9.0, sign=1.0)
def test_every_sign_change_of_g_holds_a_root(a, log_eps, sign):
    # sqrt-shift types: g = sqrt(1 + a x + b) - 1 - x touches 0 at a/2 - 1
    # when b = -(a/2 - 1)^2, so b + eps has two roots 2 sqrt(eps) apart or
    # none, often inside one scan cell
    tangent = a / 2.0 - 1.0
    game, dist = affine_game(a, -tangent ** 2 + sign * 10.0 ** log_eps), SqrtShiftTypes()
    roots = np.array([e.xbar for e in find_aggregate_equilibria(game, dist).equilibria])
    xs = np.linspace(tangent - 1e-3, tangent + 1e-3, 200_001)
    gs = np.asarray(aggregate_best_response(game, dist, xs)) - xs
    # a sign change between consecutive grid levels where |g| exceeds the
    # root tolerance
    clear = np.abs(gs) > equilibria._ROOT_TOL
    xs, gs = xs[clear], gs[clear]
    for k in np.flatnonzero(gs[:-1] * gs[1:] < 0.0):
        near = (roots >= xs[k] - 1e-9) & (roots <= xs[k + 1] + 1e-9)
        assert near.any(), f"g changes sign in [{xs[k]:.10g}, {xs[k + 1]:.10g}], which holds no root"


# -- roots against the closed form ----------------------------------------------

def exact_roots(a: float, b: float) -> tuple[Decimal, Decimal]:
    """The two roots of x^2 + (2 - a) x - b = 0, to 50 digits.

    With sqrt-shift types g = sqrt(1 + a x + b) - 1 - x wherever the
    cut-off type is interior, so g = 0 exactly there.  The discriminant of
    the double coefficients is exact, and only its square root rounds.
    """
    half = (Fraction(a) - 2) / 2
    disc = half * half + Fraction(b)
    with localcontext() as ctx:
        ctx.prec = 50
        mid = Decimal(half.numerator) / Decimal(half.denominator)
        root = (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()
        return mid - root, mid + root


@st.composite
def two_root_games(draw):
    """(a, b) with interior roots (a - 2 -+ gap) / 2, gap in [1e-4, 0.04]."""
    a = draw(st.floats(min_value=2.05, max_value=2.95))
    gap = 10.0 ** draw(st.floats(min_value=-4.0, max_value=-1.4))
    return a, (gap**2 - (a - 2.0) ** 2) / 4.0


@settings(max_examples=200, deadline=None)
@given(coefficients=two_root_games())
# two roots 3.6e-5 apart, which a stop at |g| <= 1e-12 put 6.7e-9 and 5.4e-8
# away from the exact ones
@example(coefficients=(2.610221696723995, -0.09309262945817785))
# both roots 3.4e-9 from the scan levels 0.3394 and 0.3395, where |g| is
# 1.3e-13, so both are level roots
@example(coefficients=(2.6788999931265742, -0.11522629766681564))
def test_roots_match_the_closed_form(coefficients):
    a, b = coefficients
    report = find_aggregate_equilibria(affine_game(a, b), SqrtShiftTypes())
    roots = [e.xbar for e in report.equilibria if e.xbar > 0.0]
    assert len(roots) == 2
    scan = np.linspace(0.0, 1.0, 10_001)
    for r, exact in zip(roots, exact_roots(a, b)):
        # the error in x that a rounding error of about 1e-16 in g allows; a
        # scan level where |g| <= 1e-12 is a root as it stands, so there the
        # error may reach 1e-12 / |g'|
        slope = abs(a / (2.0 * (1.0 + float(exact))) - 1.0)
        tol = equilibria._ROOT_TOL + 1e-15 if r in scan else 1e-15
        assert float(abs(Decimal(r) - exact)) * slope <= tol, (r, exact)


# -- one search per game, a few evaluations per search -------------------------

@pytest.fixture()
def evaluations(monkeypatch):
    """The sizes of the arrays g is evaluated on, recorded from an empty
    report cache; a full-grid scan has 10,001 levels at the default
    resolution."""
    equilibria._search.cache_clear()
    sizes = []
    inner = equilibria._homogenized_velocity

    def counting(game, dist, xbar):
        sizes.append(np.size(xbar))
        return inner(game, dist, xbar)

    monkeypatch.setattr(equilibria, "_homogenized_velocity", counting)
    return sizes


def test_pipeline_searches_each_game_once(evaluations, canon_game, canon_dist, cubic):
    critical_mass_sets(canon_game, canon_dist, cubic)
    select_most_robust(canon_game, canon_dist)
    rate_ratio_escape_bound(canon_game, canon_dist, cubic)
    find_aggregate_equilibria(canon_game, canon_dist)
    assert evaluations.count(10_001) == 1
    # an equal game built anew shares the report
    find_aggregate_equilibria(affine_game(canon_game.slope, canon_game.intercept), SqrtShiftTypes())
    assert evaluations.count(10_001) == 1


def test_cli_escape_searches_once(evaluations, tmp_path):
    config = Path(__file__).parents[1] / "configs" / "entry_sqrt.ini"
    assert main(["escape", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert evaluations.count(10_001) == 1


@pytest.mark.parametrize("case, most", [
    ((affine_game(2.45, -0.05), SqrtShiftTypes()), 2),
    # the two close-root games: the first has its root at a vertex level
    ((affine_game(2.4001, -(0.20005 ** 2)), SqrtShiftTypes()), 2),
    # near-tangent roots: the last ~10 bits of each lie in g's rounding
    # noise, where the regula-falsi guess is poor and a round gains 5 bits
    ((affine_game(2.4001, -(0.20005 ** 2) + 1e-9), SqrtShiftTypes()), 8),
    # two brackets to narrow
    ((linear_coordination_game(0.3), TruncatedLogisticTypes(mu=0.0, s=0.05)), 5),
], ids=["canonical", "missed-roots", "missed-roots-1e-9", "logistic-coordination"])
def test_search_evaluates_g_a_few_times(evaluations, case, most):
    # the scan, the vertex levels and the narrowing rounds
    find_aggregate_equilibria(*case)
    assert len(evaluations) <= most


def test_scan_resolution_spellings_share_one_report(canon_game, canon_dist):
    report = find_aggregate_equilibria(canon_game, canon_dist)
    assert find_aggregate_equilibria(canon_game, canon_dist, 1e-4) is report
    assert find_aggregate_equilibria(canon_game, canon_dist, scan_resolution=1e-4) is report
    assert find_aggregate_equilibria(canon_game, canon_dist, np.float64(1e-4)) is report


@pytest.mark.parametrize("scan_resolution", [0.0, 0.5, -1e-3, float("nan"), float("inf")])
def test_bad_scan_resolution_raises_on_every_call(canon_game, canon_dist, scan_resolution):
    for _ in range(2):
        with pytest.raises(InputError, match="scan_resolution"):
            find_aggregate_equilibria(canon_game, canon_dist, scan_resolution)
