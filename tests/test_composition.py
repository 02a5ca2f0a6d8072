import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evodyn import (
    ConstructionError,
    InputError,
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    UniformTypes,
    affine_game,
    aggregate,
    balanced_composition,
    bounded_power_protocol,
    destabilizing_perturbation,
    detailed_balance_residual,
    flow_distributions,
    make_grid,
    min_mass_ratio,
    power_protocol,
    reversed_composition,
    sorted_composition,
    standard_protocol,
    vector_field,
)
from evodyn.composition import _BLOCK, BayesianStrategy, TypeGrid


def test_make_grid_sqrt_shift_two_nodes():
    grid = make_grid(SqrtShiftTypes(), 2)
    # quantiles at u = 1/4, 3/4 with the closed-form inverse (u+1)^2 - 1
    assert grid.nodes == pytest.approx([0.5625, 2.0625], abs=1e-15)
    assert grid.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_make_grid_uniform_quantiles():
    grid = make_grid(UniformTypes(0.0, 1.0), 4)
    assert grid.nodes == pytest.approx([0.125, 0.375, 0.625, 0.875], abs=1e-15)


def test_make_grid_weights_sum_to_one():
    grid = make_grid(SqrtShiftTypes(), 1000)
    assert abs(grid.weights.sum() - 1.0) <= 1e-12


def test_make_grid_rejects_single_node():
    with pytest.raises(InputError):
        make_grid(SqrtShiftTypes(), 1)


@pytest.mark.parametrize("n", [2.5, float("nan"), float("inf")])
def test_make_grid_rejects_a_size_that_is_not_a_whole_number(n):
    # 2.5 once built 3 nodes at u = 0.2, 0.6 and 1.0: not cell midpoints
    with pytest.raises(InputError, match="whole number"):
        make_grid(SqrtShiftTypes(), n)


@pytest.mark.parametrize("n", [1e300, 10**300])
def test_make_grid_refuses_a_size_too_large_to_allocate(n):
    # numpy refuses 1e300 nodes without allocating; the refusal names the size
    with pytest.raises(InputError, match=r"n=1e\+300 is too large to allocate"):
        make_grid(SqrtShiftTypes(), n)


def test_make_grid_refuses_an_int_beyond_the_largest_double():
    # float(10**400) overflows; the refusal is an InputError, not an OverflowError
    with pytest.raises(InputError, match="too large to allocate"):
        make_grid(SqrtShiftTypes(), 10**400)


def test_make_grid_builds_a_read_only_grid_that_records_its_distribution():
    dist = UniformTypes(0.0, 2.0)
    grid = make_grid(dist, 64)
    assert grid.dist == dist
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
    u = (np.arange(64) + 0.5) / 64
    assert grid.nodes.tobytes() == dist.inverse_cdf(u).tobytes()
    # an equal distribution and the same whole number give the same bits
    assert make_grid(UniformTypes(0.0, 2.0), 64.0).nodes.tobytes() == grid.nodes.tobytes()
    for other in (make_grid(UniformTypes(0.0, 2.0), 65), make_grid(UniformTypes(0.0, 3.0), 64),
                  make_grid(SqrtShiftTypes(), 64)):
        assert not np.array_equal(other.nodes, grid.nodes)
    # the record is no constructor argument and stays out of repr
    assert TypeGrid(nodes=grid.nodes).dist is None
    assert dataclasses.replace(grid).dist is None
    assert "dist" not in repr(grid)


def test_grid_is_immutable(grid2000):
    with pytest.raises(ValueError):
        grid2000.nodes[0] = -1.0


def test_aggregate_examples(grid4000, canon_dist):
    ones = BayesianStrategy(grid=grid4000, values=np.ones(grid4000.n))
    assert aggregate(ones) == pytest.approx(1.0, abs=1e-12)
    assert aggregate(sorted_composition(grid4000, 0.3)) == pytest.approx(0.3, abs=1e-12)
    rev = reversed_composition(grid4000, canon_dist, 0.25)
    assert aggregate(rev) == pytest.approx(0.25, abs=1e-12)


def random_strategy(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    values[rng.random(n) < 0.3] = 0.0
    values[rng.random(n) < 0.3] = 1.0
    return BayesianStrategy(grid=TypeGrid(nodes=np.sort(rng.normal(size=n))), values=values)


@pytest.mark.parametrize("n", [1, 2, 7, 500, 2000, 4000, 8000, 8191, _BLOCK])
def test_aggregate_of_one_block_is_one_dot(n):
    # every bundled and tested grid is one block: the aggregate keeps the
    # bits of a single dot over all its nodes
    x = random_strategy(n, n)
    assert np.float64(aggregate(x)).tobytes() == np.dot(x.grid.weights, x.values).tobytes()


@pytest.mark.parametrize("n", [_BLOCK + 1, 20000, 32000])
def test_aggregate_of_more_blocks_folds_their_dots(n):
    x = random_strategy(n, n)
    w, v = x.grid.weights, x.values
    total = 0.0
    for i in range(0, n, _BLOCK):
        total += float(np.dot(w[i : i + _BLOCK], v[i : i + _BLOCK]))
    assert np.float64(aggregate(x)).tobytes() == np.float64(total).tobytes()


def test_sorted_composition_corners(grid2000):
    assert np.all(sorted_composition(grid2000, 0.0).values == 0.0)
    assert np.all(sorted_composition(grid2000, 1.0).values == 1.0)


def test_sorted_cutoff_type(grid4000):
    # at aggregate 0.25 the cut-off sits at theta = 9/16
    x = sorted_composition(grid4000, 0.25)
    participating = grid4000.nodes[x.values > 0.0]
    spacing = 1.0 / (grid4000.n * 0.4)  # local node spacing near the cut-off
    assert participating.max() <= 0.5625
    assert participating.max() >= 0.5625 - 2.0 * spacing


def test_reversed_threshold_type(grid4000, canon_dist):
    # participants are the types above inverse_cdf(0.75) = 33/16
    x = reversed_composition(grid4000, canon_dist, 0.25)
    participating = grid4000.nodes[x.values > 0.0]
    spacing = 1.0 / (grid4000.n * float(canon_dist.pdf(33 / 16)))
    assert participating.min() >= 33 / 16 - 2.0 * spacing
    assert participating.min() <= 33 / 16 + 2.0 * spacing


def test_reversed_corners(grid2000, canon_dist):
    assert np.all(reversed_composition(grid2000, canon_dist, 0.0).values == 0.0)
    assert np.all(reversed_composition(grid2000, canon_dist, 1.0).values == 1.0)
    both = sorted_composition(grid2000, 1.0)
    assert np.array_equal(
        reversed_composition(grid2000, canon_dist, 1.0).values, both.values
    )


@settings(max_examples=100, deadline=None)
@given(xbar=st.floats(min_value=0.0, max_value=1.0))
def test_cutoff_constructors_bounds_and_aggregate(xbar):
    grid = make_grid(SqrtShiftTypes(), 257)
    dist = SqrtShiftTypes()
    srt = sorted_composition(grid, xbar)
    rev = reversed_composition(grid, dist, xbar)
    for x in (srt, rev):
        assert x.values.min() >= 0.0 and x.values.max() <= 1.0
        assert aggregate(x) == pytest.approx(xbar, abs=1e-12)
    # same aggregate on both (summation order differs by at most a few ulps)
    assert abs(aggregate(srt) - aggregate(rev)) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=600),
    xbar=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)
def test_reversed_composition_is_the_sorted_one_mirrored_bit_for_bit(n, xbar):
    dist = UniformTypes(0.0, 1.0)
    grid = make_grid(dist, n)
    srt = sorted_composition(grid, xbar)
    rev = reversed_composition(grid, dist, xbar)
    assert rev.values.tobytes() == srt.values[::-1].tobytes()
    assert rev.values.flags.c_contiguous and not rev.values.flags.writeable


def test_strategy_rejects_out_of_range(grid2000):
    bad = np.zeros(grid2000.n)
    bad[7] = 1.5
    with pytest.raises(InputError):
        BayesianStrategy(grid=grid2000, values=bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_strategy_rejects_non_finite(grid2000, value):
    bad = np.full(grid2000.n, 0.5)
    bad[7] = value
    with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
        BayesianStrategy(grid=grid2000, values=bad)


def test_grid_weights_are_derived_from_node_count():
    grid = TypeGrid(nodes=np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(grid.weights, np.full(3, 1.0 / 3.0))
    assert not grid.weights.flags.writeable
    with pytest.raises(TypeError):
        TypeGrid(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))


@pytest.mark.parametrize("nodes", [
    [0.0, np.nan, 1.0],  # np.diff against NaN is NaN, never negative
    [np.nan, 0.0, 1.0],
    [0.0, 1.0, np.inf],
    [-np.inf, 0.0, 1.0],
])
def test_grid_refuses_non_finite_nodes(nodes):
    with pytest.raises(InputError, match="must be finite"):
        TypeGrid(nodes=np.array(nodes))


class TestBalancedComposition:
    def test_zero_kappa_is_sorted_equilibrium(self, grid4000, canon_dist, canon_game):
        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.0, 0.3)
        assert np.array_equal(bal.values, sorted_composition(grid4000, 0.25).values)

    def test_deficit_distributions_coincide(self, grid4000, canon_dist, canon_game):
        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        inflow, outflow = flow_distributions(
            canon_game, canon_dist, power_protocol(1.0), bal, 0.25
        )
        assert detailed_balance_residual(inflow, outflow) <= 3.0 / grid4000.n

    def test_aggregate_preserved(self, grid4000, canon_dist, canon_game):
        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        assert abs(aggregate(bal) - 0.25) <= 2.0 / grid4000.n

    def test_values_in_unit_interval(self, grid4000, canon_dist, canon_game):
        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        assert bal.values.min() >= 0.0 and bal.values.max() <= 1.0

    def test_band_outside_support_rejected(self, grid4000, canon_dist, canon_game):
        with pytest.raises(ConstructionError, match="support"):
            balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.6)

    def test_excessive_kappa_rejected(self, grid4000, canon_dist, canon_game):
        with pytest.raises(ConstructionError, match="kappa"):
            balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.95, 0.3)

    def test_requires_aggregate_equilibrium(self, grid4000, canon_dist, canon_game):
        with pytest.raises(InputError, match=r"is not an aggregate equilibrium \(fixed-point residual"):
            balanced_composition(grid4000, canon_dist, canon_game, 0.22, 0.2, 0.1)

    def test_band_top_within_the_support_tolerance(self):
        # the band may pass the support end by up to 1e-12; the kappa check
        # reads the density there clamped into the support, not as p = 0
        dist = SqrtShiftTypes()
        level = float(dist.cdf(2.0))
        t_star = float(dist.inverse_cdf(level))
        game = affine_game(1.0, t_star - level)
        pimax = 3.0 - t_star + 5e-13
        bal = balanced_composition(make_grid(dist, 200), dist, game, level, 0.5, pimax)
        assert bal.values.max() <= 1.0

    @pytest.mark.parametrize("pimax", [float("nan"), 0.0, -0.1])
    def test_band_width_must_be_positive(self, grid4000, canon_dist, canon_game, pimax):
        with pytest.raises(InputError, match="pimax"):
            balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, pimax)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["uniform", "sqrt-shift", "logistic"]),
    level=st.floats(0.02, 0.98),
    room=st.floats(1e-3, 1.0),
    factor=st.floats(0.9, 1.1),
)
# t* = mu: the logistic density read above mu put the sampled ratio at 1 + 1.2e-12
@example(family="logistic", level=0.5, room=0.75, factor=1.0625)
def test_kappa_check_matches_the_sampled_density_ratio(family, level, room, factor):
    # the check reads the density ratio at the band's end; a scan of 4,096
    # deficits in (0, pimax], its former form, is the oracle.  The level
    # puts t* on either side of the logistic's mu.  The probe types are
    # clamped into the support, as the check clamps the band's ends: at
    # room = 1, t* + pimax may pass the support end by rounding, where the
    # density is 0
    dist = {
        "uniform": UniformTypes(-0.5, 1.5),
        "sqrt-shift": SqrtShiftTypes(),
        "logistic": TruncatedLogisticTypes(0.2, 0.1),
    }[family]
    t_star = float(dist.inverse_cdf(level))
    lo, hi = dist.support
    pimax = room * min(t_star - lo, hi - t_star)
    probe = np.linspace(0.0, pimax, 4097)[1:]
    low, high = (dist.pdf(np.clip(t_star + sign * probe, lo, hi)) for sign in (-1.0, 1.0))
    worst = float((low / high).max())
    kappa = min(factor / worst, 1.0)
    game = affine_game(1.0, t_star - level)  # F(level) = t*: an equilibrium
    grid = make_grid(dist, 200)
    if kappa * worst > 1.0 + 1e-12:
        with pytest.raises(ConstructionError, match="kappa"):
            balanced_composition(grid, dist, game, level, kappa, pimax)
    else:
        try:
            balanced_composition(grid, dist, game, level, kappa, pimax)
        except ConstructionError as err:  # the band may drift more than 2/n
            assert "kappa" not in str(err)


class TestDestabilizingPerturbation:
    def test_zero_eps_is_identity(self, grid4000, canon_dist, canon_game):
        base = sorted_composition(grid4000, 0.25)
        out = destabilizing_perturbation(base, canon_game, canon_dist, 0.05, 0.5, 0.0)
        assert out is base

    def test_min_mass_ratio_closed_form(self, cubic):
        # cubic tempering: (2^4 - 1)/(4^4 - 3^4) = 15/175 = 3/35
        assert min_mass_ratio(cubic, 0.05) == pytest.approx(3 / 35, abs=math.ulp(3 / 35))
        assert min_mass_ratio(standard_protocol(), 0.05) == 1.0

    @pytest.mark.parametrize("protocol, ratios", [
        (power_protocol(3), (0.08571428571428572,) * 3),
        (power_protocol(0.5), (0.6521135954584314,) * 3),
        (standard_protocol(), (1.0,) * 3),
        # the rate saturates on neither band while pisharp >= 4e, on both at
        # an infinite band width
        (bounded_power_protocol(2, 0.3), (0.1891891891891892, 0.1891891891891892, 1.0)),
    ], ids=["cubic", "power0.5", "standard", "bounded2"])
    def test_min_mass_ratio_at_extreme_band_widths(self, protocol, ratios):
        # a power rate never saturates, also at an infinite band width, where
        # the saturation over the width would be inf / inf = NaN
        for band_width, ratio in zip((5e-324, 0.05, math.inf), ratios):
            assert min_mass_ratio(protocol, band_width) == ratio

    @pytest.mark.parametrize("pisharp", [1e-3, 0.03, 0.1, 0.15, 0.2, 1.0])
    def test_min_mass_ratio_bounded_power(self, pisharp):
        # the rate-integral ratio by a fine trapezoid; the rate saturates on
        # both bands at pisharp <= e and on neither at pisharp >= 4e
        protocol, e = bounded_power_protocol(2.5, pisharp), 0.05
        gain = np.linspace(e, 2.0 * e, 200_001)
        loss = np.linspace(3.0 * e, 4.0 * e, 200_001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        quadrature = (trapezoid(protocol.rate(gain), gain)
                      / trapezoid(protocol.rate(loss), loss))
        assert min_mass_ratio(protocol, e) == pytest.approx(quadrature, rel=1e-9)

    def test_w_below_exact_rate_ratio_rejected(self, grid4000, canon_dist, canon_game):
        # at k = 0.5 the exact ratio is 0.6521135954584; a 2,049-point
        # trapezoid gave 0.6521135941699, which let this w through
        base = sorted_composition(grid4000, 0.25)
        with pytest.raises(ConstructionError, match="rate-integral ratio"):
            destabilizing_perturbation(
                base, canon_game, canon_dist, e=0.05, w=0.652113595, eps=0.01,
                protocol=power_protocol(0.5),
            )

    def test_aggregate_increase(self, grid4000, canon_dist, canon_game, cubic):
        base = sorted_composition(grid4000, 0.25)
        out = destabilizing_perturbation(
            base, canon_game, canon_dist, e=0.05, w=0.5, eps=0.01, protocol=cubic
        )
        gain = aggregate(out) - aggregate(base)
        # continuum value (1 - w) e eps = 2.5e-4; grid quantization stays far
        # inside the 2/n envelope
        assert gain == pytest.approx((1 - 0.5) * 0.05 * 0.01, abs=2.0 / grid4000.n)
        assert gain == pytest.approx((1 - 0.5) * 0.05 * 0.01, abs=2e-5)

    def test_velocity_strictly_positive(self, grid4000, canon_dist, canon_game, cubic):
        base = sorted_composition(grid4000, 0.25)
        out = destabilizing_perturbation(
            base, canon_game, canon_dist, e=0.05, w=0.5, eps=0.01, protocol=cubic
        )
        velocity = float(np.dot(grid4000.weights, vector_field(canon_game, canon_dist, cubic, out)))
        assert velocity > 0.0

    def test_w_below_rate_ratio_rejected(self, grid4000, canon_dist, canon_game, cubic):
        base = sorted_composition(grid4000, 0.25)
        with pytest.raises(ConstructionError, match="rate-integral ratio"):
            destabilizing_perturbation(
                base, canon_game, canon_dist, e=0.05, w=0.05, eps=0.01, protocol=cubic
            )

    @pytest.mark.parametrize("e", [float("nan"), 0.0, -0.05])
    def test_band_width_must_be_positive(self, grid4000, canon_dist, canon_game, e):
        base = sorted_composition(grid4000, 0.25)
        with pytest.raises(InputError, match="band width"):
            destabilizing_perturbation(base, canon_game, canon_dist, e, 0.1, 0.01)

    def test_band_leaving_support_rejected(self, grid4000, canon_dist, canon_game):
        base = sorted_composition(grid4000, 0.25)
        with pytest.raises(ConstructionError, match="support"):
            destabilizing_perturbation(base, canon_game, canon_dist, e=0.2, w=0.5, eps=0.01)

    def test_value_overflow_rejected(self, grid4000, canon_dist, canon_game):
        base = sorted_composition(grid4000, 0.25)
        with pytest.raises(ConstructionError, match="\\[0, 1\\]"):
            destabilizing_perturbation(base, canon_game, canon_dist, e=0.05, w=0.5, eps=0.5)

    def test_uniform_variant_gain(self, grid4000, canon_dist, canon_game):
        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        eps = 0.01
        out = destabilizing_perturbation(
            bal, canon_game, canon_dist, e=0.0, w=0.0, eps=eps, variant="uniform"
        )
        theta_star = canon_game.payoff(aggregate(bal))
        below = bal.grid.nodes < theta_star
        slack = float(np.dot(bal.grid.weights[below], 1.0 - bal.values[below]))
        assert aggregate(out) - aggregate(bal) == pytest.approx(eps * slack, abs=1e-12)
        assert aggregate(out) > aggregate(bal)

    def test_uniform_variant_velocity_positive(self, grid4000, canon_dist, canon_game, cubic):
        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        out = destabilizing_perturbation(
            bal, canon_game, canon_dist, e=0.0, w=0.0, eps=0.01, variant="uniform"
        )
        velocity = float(np.dot(grid4000.weights, vector_field(canon_game, canon_dist, cubic, out)))
        assert velocity > 0.0


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(min_value=0.01, max_value=1.0),
    pimax=st.floats(min_value=0.01, max_value=0.5),
)
def test_balanced_composition_properties(kappa, pimax):
    from evodyn import ConstructionError as CE
    from evodyn.games import SqrtShiftTypes as D
    from evodyn.games import affine_game as G

    game, dist = G(2.45, -0.05), D()
    grid = make_grid(dist, 1000)
    try:
        bal = balanced_composition(grid, dist, game, 0.25, kappa, pimax)
    except CE:
        return  # band or density-ratio precondition rejected these parameters
    assert bal.values.min() >= 0.0 and bal.values.max() <= 1.0
    assert abs(aggregate(bal) - 0.25) <= 2.0 / grid.n
    inflow, outflow = flow_distributions(game, dist, power_protocol(1.0), bal, 0.25)
    assert detailed_balance_residual(inflow, outflow) <= 3.0 / grid.n
