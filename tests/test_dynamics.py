"""Protocol, vector-field, and integrator behavior.

The reversed-composition velocity oracle below comes from the closed-form
quadrature of the two flow integrals with the substitution s = sqrt(theta+1),
which turns each into a polynomial integral:

    inflow  = int_0^{9/16} (9/16 - t)^3 p(t) dt = 0.0118931...
    outflow = int_{33/16}^3 (t - 9/16)^3 p(t) dt = 1.9854216...
    velocity = inflow - outflow = -1.9735285...
"""

import math
import os
import subprocess
import sys
import weakref
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evodyn import (
    InputError,
    IntegrationError,
    UniformTypes,
    affine_game,
    aggregate,
    make_grid,
    reversed_composition,
    bounded_power_protocol,
    homogenized_field,
    integrate,
    integrate_homogenized,
    power_protocol,
    sorted_composition,
    standard_protocol,
    vector_field,
)
from evodyn.cli import build_initial
from evodyn.composition import (
    BayesianStrategy,
    TypeGrid,
    balanced_composition,
    blocked_dot,
    destabilizing_perturbation,
)
from evodyn.config import parse_config
from evodyn.games import DEFAULT_DOMAIN
from evodyn import dynamics
from evodyn.dynamics import _field_function
from tests.conftest import random_composition

REVERSED_VELOCITY = -1.9735285


def quadrature_velocity(game, dist, protocol, x, npts=200_001):
    """Independent oracle: dense trapezoid quadrature of the two flow integrals."""
    lo, hi = dist.support
    common = game.payoff(float(np.dot(x.grid.weights, x.values)))
    theta = np.linspace(lo, hi, npts)
    dens = np.asarray(dist.pdf(theta))
    below = theta < common
    above = theta > common
    grid_x = np.interp(theta, x.grid.nodes, x.values)
    inflow = np.where(below, protocol.rate(common - theta) * (1 - grid_x) * dens, 0.0)
    outflow = np.where(above, protocol.rate(theta - common) * grid_x * dens, 0.0)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(inflow - outflow, theta))


def test_switching_rate_examples(standard, cubic):
    assert standard.rate(0.3) == 1.0
    assert cubic.rate(0.5) == pytest.approx(0.125, abs=1e-15)
    assert standard.rate(-0.2) == 0.0
    assert cubic.rate(-0.2) == 0.0
    assert cubic.rate(0.0) == 0.0


def test_bounded_power_saturates():
    proto = bounded_power_protocol(2, pisharp=0.01)
    assert proto.rate(0.005) == pytest.approx(0.25)
    assert proto.rate(0.01) == 1.0
    assert proto.rate(5.0) == 1.0
    d = np.linspace(1e-6, 0.01, 100)
    assert np.all(np.diff(proto.rate(d)) > 0.0)  # strictly increasing below pisharp


def test_power_rate_may_exceed_one(cubic):
    # a rate, not a probability: bounded by Q(max realized deficit)
    assert cubic.rate(39 / 16) == pytest.approx((39 / 16) ** 3)


@settings(max_examples=200)
@given(
    d1=st.floats(min_value=-5, max_value=5),
    d2=st.floats(min_value=-5, max_value=5),
)
def test_rates_monotone_and_zero_below(d1, d2):
    for proto in (standard_protocol(), power_protocol(3), bounded_power_protocol(2, 0.5)):
        if d1 <= 0:
            assert proto.rate(d1) == 0.0
        if d1 <= d2:
            assert proto.rate(d1) <= proto.rate(d2)


@settings(max_examples=100, deadline=None)
@given(
    k=st.floats(min_value=0.1, max_value=8.0),
    pisharp=st.floats(min_value=1e-3, max_value=10.0),
    beyond=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=8),
)
def test_rate_is_one_from_its_saturation_and_strictly_increasing_below(k, pisharp, beyond):
    for protocol, saturation in ((standard_protocol(), 0.0), (power_protocol(k), math.inf),
                                 (bounded_power_protocol(k, pisharp), pisharp)):
        assert protocol.saturation == saturation
        if saturation < math.inf:
            # every positive deficit at or past the saturation, the smallest
            # positive double included
            d = np.append(saturation + np.array(beyond), max(saturation, 5e-324))
            assert np.all(protocol.rate(d[d > 0.0]) == 1.0)
        if saturation > 0.0:
            d = min(saturation, 10.0) * np.linspace(0.01, 0.99, 50)
            assert np.all(np.diff(protocol.rate(d)) > 0.0)


def test_protocol_validation():
    with pytest.raises(InputError):
        power_protocol(0.0)
    with pytest.raises(InputError):
        bounded_power_protocol(2, 0.0)
    with pytest.raises(InputError):
        standard_protocol().rate(float("nan"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_protocol_rejects_non_finite_parameters(bad):
    # unchecked, a NaN k failed on the first rate call with a raw ValueError,
    # a NaN pisharp gave NaN rates and an infinite one rate 0 everywhere
    for make in (
        lambda: power_protocol(bad),
        lambda: bounded_power_protocol(bad, 0.5),
        lambda: bounded_power_protocol(2, bad),
    ):
        with pytest.raises(InputError, match="must be finite"):
            make()


def test_sorted_equilibrium_is_stationary(canon_game, canon_dist, grid4000, standard, cubic):
    x = sorted_composition(grid4000, 0.25)
    for proto in (standard, cubic):
        assert np.abs(vector_field(canon_game, canon_dist, proto, x)).max() <= 1e-9


def test_reversed_velocity_matches_quadrature(canon_game, canon_dist, cubic, reversed25):
    v = float(np.dot(reversed25.grid.weights, vector_field(canon_game, canon_dist, cubic, reversed25)))
    assert v == pytest.approx(REVERSED_VELOCITY, abs=5e-3)
    oracle = quadrature_velocity(canon_game, canon_dist, cubic, reversed25)
    assert v == pytest.approx(oracle, abs=2e-3)


def test_reversed_velocity_zero_under_standard(canon_game, canon_dist, standard, reversed25):
    v = float(np.dot(reversed25.grid.weights, vector_field(canon_game, canon_dist, standard, reversed25)))
    assert abs(v) <= 1e-12


def test_integrate_from_equilibrium_stays(canon_game, canon_dist, grid2000, standard, cubic):
    x = sorted_composition(grid2000, 0.25)
    for proto in (standard, cubic):
        traj = integrate(canon_game, canon_dist, proto, x, t_end=10.0, dt=0.01)
        assert np.abs(traj.xbars - 0.25).max() <= 1e-9


def test_standard_reversed_stays_at_equilibrium(canon_game, canon_dist, grid2000, standard):
    rev = reversed_composition(grid2000, canon_dist, 0.25)
    traj = integrate(canon_game, canon_dist, standard, rev, t_end=20.0, dt=0.01)
    assert np.abs(traj.xbars - 0.25).max() <= 1e-6


def test_tempered_escape_is_monotone_exit(escape_run):
    within_50 = escape_run.xbars[1 : int(50 / 0.005) + 1]
    assert within_50.max() < 0.25
    assert escape_run.xbar_at(50.0) < 0.01


def test_integrator_validation(canon_game, canon_dist, grid2000, cubic):
    x = sorted_composition(grid2000, 0.25)
    with pytest.raises(InputError):
        integrate(canon_game, canon_dist, cubic, x, t_end=0.0, dt=0.01)
    with pytest.raises(InputError):
        integrate(canon_game, canon_dist, cubic, x, t_end=1.0, dt=-0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_integrators_reject_non_finite_times(canon_game, canon_dist, grid2000, cubic, bad):
    x = sorted_composition(grid2000, 0.25)
    for t_end, dt in ((bad, 0.01), (1.0, bad)):
        with pytest.raises(InputError, match="finite"):
            integrate(canon_game, canon_dist, cubic, x, t_end=t_end, dt=dt)
        with pytest.raises(InputError, match="finite"):
            integrate_homogenized(canon_game, canon_dist, 0.25, t_end=t_end, dt=dt)
    # no recorded step is nearest to a non-finite time: argmin over NaN
    # distances would answer with the first aggregate
    traj = integrate(canon_game, canon_dist, cubic, x, t_end=1.0, dt=0.1)
    with pytest.raises(InputError, match="finite"):
        traj.xbar_at(bad)


def test_integrator_rejects_unbounded_step_count(canon_game, canon_dist, grid2000, cubic):
    x = sorted_composition(grid2000, 0.25)
    with pytest.raises(InputError, match="not a finite step count"):
        integrate(canon_game, canon_dist, cubic, x, t_end=1e300, dt=1e-300)


@pytest.mark.parametrize("t_end, dt", [(1e300, 0.01), (1.0, 1e-300)])
def test_integrators_refuse_a_step_count_too_large_to_allocate(
    canon_game, canon_dist, grid2000, cubic, t_end, dt
):
    # numpy refuses 1e302 or 1e300 elements without allocating; the
    # integrators turn its ValueError into an InputError that names the count
    x = sorted_composition(grid2000, 0.25)
    with pytest.raises(InputError, match=r"e\+30[02] steps are too many to allocate"):
        integrate(canon_game, canon_dist, cubic, x, t_end=t_end, dt=dt)
    with pytest.raises(InputError, match="too many to allocate"):
        integrate_homogenized(canon_game, canon_dist, 0.25, t_end=t_end, dt=dt)


def test_forward_invariance_and_clamp_budget(canon_game, canon_dist, grid2000, cubic):
    rng = np.random.default_rng(11)
    x0 = random_composition(grid2000, 0.4, rng)
    traj = integrate(canon_game, canon_dist, cubic, x0, t_end=10.0, dt=0.01)
    assert traj.final_values.min() >= 0.0 and traj.final_values.max() <= 1.0
    assert traj.clamp_total <= 1e-6


def test_snapshots_recorded(canon_game, canon_dist, grid2000, cubic):
    x = sorted_composition(grid2000, 0.25)
    traj = integrate(
        canon_game, canon_dist, cubic, x, t_end=1.0, dt=0.01, snapshot_times=(0.0, 0.5)
    )
    times = [t for t, _ in traj.snapshots]
    assert times == pytest.approx([0.0, 0.5], abs=1e-9)
    assert traj.snapshots[0][1].shape == (grid2000.n,)


@pytest.mark.parametrize("when", [
    (float("nan"), 0.5),  # NaN sorted first would block every later time
    (0.5, float("inf")),
    (-float("inf"),),
    (0.5, 1.5),  # after the last step, t = 1
])
def test_unrecordable_snapshot_time_is_refused(canon_game, canon_dist, cubic, when):
    x = sorted_composition(make_grid(canon_dist, 50), 0.25)
    with pytest.raises(InputError, match="snapshot time"):
        integrate(canon_game, canon_dist, cubic, x, t_end=1.0, dt=0.1, snapshot_times=when)


def test_snapshot_times_at_the_ends_are_kept(canon_game, canon_dist, cubic):
    # a negative time snaps to t = 0; the last step time itself is recorded
    x = sorted_composition(make_grid(canon_dist, 50), 0.25)
    traj = integrate(
        canon_game, canon_dist, cubic, x, t_end=1.0, dt=0.1, snapshot_times=(-0.5, 1.0)
    )
    assert [t for t, _ in traj.snapshots] == pytest.approx([0.0, 1.0], abs=1e-12)


class TestAggregability:
    def test_equal_aggregates_coincide_under_standard(
        self, canon_game, canon_dist, grid2000, standard
    ):
        # the standard dynamic's aggregate follows P_n(F(xbar)) - xbar for any
        # composition, so equal starting aggregates give one scalar path
        rng = np.random.default_rng(3)
        a = random_composition(grid2000, 0.4, rng)
        b = random_composition(grid2000, 0.4, rng)
        ta = integrate(canon_game, canon_dist, standard, a, t_end=20.0, dt=0.01)
        tb = integrate(canon_game, canon_dist, standard, b, t_end=20.0, dt=0.01)
        assert np.abs(ta.xbars - tb.xbars).max() <= 1e-6

    def test_coincides_with_homogenized_at_equilibrium_start(
        self, canon_game, canon_dist, grid2000, standard
    ):
        rev = reversed_composition(grid2000, canon_dist, 0.25)
        het = integrate(canon_game, canon_dist, standard, rev, t_end=20.0, dt=0.01)
        hom = integrate_homogenized(canon_game, canon_dist, 0.25, t_end=20.0, dt=0.01)
        assert np.abs(het.xbars - hom.xbars).max() <= 1e-6

    def test_coincides_with_homogenized_generic_start(
        self, canon_game, canon_dist, grid2000, standard
    ):
        # away from the special equilibrium start the match is limited by cdf
        # quantization on the grid, O(1/2n); assert at that scale
        rng = np.random.default_rng(5)
        x0 = random_composition(grid2000, 0.4, rng)
        het = integrate(canon_game, canon_dist, standard, x0, t_end=20.0, dt=0.01)
        hom = integrate_homogenized(canon_game, canon_dist, 0.4, t_end=20.0, dt=0.01)
        assert np.abs(het.xbars - hom.xbars).max() <= 1.0 / grid2000.n

    def test_tempered_dynamic_is_not_aggregable(
        self, canon_game, canon_dist, grid2000, cubic
    ):
        srt = sorted_composition(grid2000, 0.25)
        rev = reversed_composition(grid2000, canon_dist, 0.25)
        ts = integrate(canon_game, canon_dist, cubic, srt, t_end=2.0, dt=0.005)
        tr = integrate(canon_game, canon_dist, cubic, rev, t_end=2.0, dt=0.005)
        assert abs(ts.final_xbar - tr.final_xbar) > 0.05


class TestExponentialExitBound:
    def test_nodes_above_cutoff_decay_at_least_frozen_rate(
        self, canon_game, canon_dist, cubic, reversed25, escape_run
    ):
        # with positive externality and a falling aggregate, exit rates only
        # grow, so each leaver decays at least as fast as its time-0 rate
        theta = reversed25.grid.nodes
        common = canon_game.payoff(0.25)
        above = theta > common
        rate0 = cubic.rate(theta[above] - common)
        for t, values in escape_run.snapshots:
            bound = reversed25.values[above] * np.exp(-rate0 * t) + 1e-6
            assert np.all(values[above] <= bound)


def test_step_halving_is_converged(canon_game, canon_dist, cubic, reversed25, escape_run):
    coarse = integrate(canon_game, canon_dist, cubic, reversed25, t_end=10.0, dt=0.01)
    assert abs(coarse.xbar_at(10.0) - escape_run.xbar_at(10.0)) <= 1e-6


class TestHomogenized:
    def test_field_examples(self, canon_game, canon_dist):
        assert homogenized_field(canon_game, canon_dist, 0.25) == pytest.approx(0.0, abs=1e-15)
        # sign forced by 20 xbar^2 - 9 xbar + 1: negative on (0.2, 0.25)
        assert homogenized_field(canon_game, canon_dist, 0.21) > 0.0
        assert homogenized_field(canon_game, canon_dist, 0.1) < 0.0

    @pytest.mark.parametrize("xbar", [-1e-9, 1.0 + 1e-9, float("nan")])
    def test_rejects_level_outside_unit_interval(self, canon_game, canon_dist, xbar):
        with pytest.raises(InputError, match="outside"):
            homogenized_field(canon_game, canon_dist, xbar)
        with pytest.raises(InputError, match="outside"):
            integrate_homogenized(canon_game, canon_dist, xbar, t_end=1.0, dt=0.01)

    def test_stationary_at_equilibrium(self, canon_game, canon_dist):
        traj = integrate_homogenized(canon_game, canon_dist, 0.25, t_end=10.0, dt=0.01)
        assert np.abs(traj.xbars - 0.25).max() <= 1e-12

    def test_converges_down_to_corner(self, canon_game, canon_dist):
        traj = integrate_homogenized(canon_game, canon_dist, 0.19, t_end=200.0, dt=0.02)
        assert abs(traj.final_xbar - 0.0) <= 1e-4

    def test_converges_up_to_interior(self, canon_game, canon_dist):
        # contraction rate at 0.25 is |g'| = 0.02, so reaching 1e-4 from 0.21
        # takes t ~ 375; by t=200 the gap is still ~3e-3
        traj = integrate_homogenized(canon_game, canon_dist, 0.21, t_end=400.0, dt=0.02)
        assert np.all(np.diff(traj.xbars) >= -1e-12)
        assert abs(traj.final_xbar - 0.25) <= 1e-4


# -- the in-place field and integrator against plain allocating oracles ------


def oracle_field(game, protocol, grid, values):
    """The per-node law of motion written with masks and fresh arrays, at
    the aggregate's blocked sum over all n nodes."""
    xbar = blocked_dot(grid.weights, values)
    lo, hi = DEFAULT_DOMAIN
    if not lo <= xbar <= hi:
        raise InputError(f"aggregate {xbar!r} left the payoff evaluation domain")
    gap = game.slope * xbar + game.intercept - grid.nodes
    rates = protocol.rate(np.abs(gap))
    return np.where(gap >= 0.0, (1.0 - values) * rates, -values * rates)


def oracle_rk4(game, protocol, x0, t_end, dt, snapshot_times=()):
    """Classical RK4 with a clamp after each step, every array allocated anew."""
    steps = max(int(round(t_end / dt)), 1)
    wanted = sorted(snapshot_times)
    x = np.array(x0.values, dtype=float)
    xbars, snaps, clamp_total = [blocked_dot(x0.grid.weights, x)], [], 0.0
    si = 0
    while si < len(wanted) and wanted[si] <= 0.0:
        snaps.append((0.0, x.copy()))
        si += 1

    def f(v):
        return oracle_field(game, protocol, x0.grid, v)

    for step in range(1, steps + 1):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt
        if not np.all(np.isfinite(x)):
            raise IntegrationError("state became non-finite", time=t)
        clipped = np.clip(x, 0.0, 1.0)
        clamp_total += float(np.abs(x - clipped).sum())
        x = clipped
        xbars.append(blocked_dot(x0.grid.weights, x))
        while si < len(wanted) and wanted[si] <= t + 1e-12:
            snaps.append((t, x.copy()))
            si += 1
    return np.array(xbars), x, clamp_total, snaps


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def protocols():
    """Every protocol kind, with integer and non-integer exponents."""
    k = st.one_of(st.integers(1, 6).map(float), st.floats(0.5, 5.0))
    pisharp = st.floats(0.01, 2.0)
    return st.one_of(
        st.just(standard_protocol()),
        k.map(power_protocol),
        st.builds(bounded_power_protocol, k, pisharp),
    )


@st.composite
def field_cases(draw):
    n = draw(st.integers(2, 40))
    nodes = draw(st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n))
    if draw(st.booleans()):  # duplicate nodes
        nodes[1:] = [nodes[i - 1] if draw(st.booleans()) else nodes[i] for i in range(1, n)]
    grid = TypeGrid(nodes=np.sort(np.array(nodes)))
    # stage states stray slightly outside [0, 1]
    values = np.array(draw(st.lists(st.floats(-0.05, 1.05), min_size=n, max_size=n)))
    if draw(st.booleans()):  # F(xbar) lands exactly on a node
        game = affine_game(0.0, float(grid.nodes[draw(st.integers(0, n - 1))]))
    else:
        game = affine_game(draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.0, 3.0)))
    window = None
    if draw(st.booleans()):  # a node window [a, b), maybe with a hole [h0, h1)
        a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        window = [a, b, b, b]
        if a < b and draw(st.booleans()):
            window[1:3] = sorted(draw(st.lists(st.integers(a, b), min_size=2, max_size=2,
                                               unique=True)))
    return game, grid, values, window


@settings(max_examples=300, deadline=None)
@given(case=field_cases(), protocol=protocols())
@example(  # F on a duplicated node, stage values outside [0, 1]
    case=(affine_game(0.0, 0.2), TypeGrid(nodes=np.array([0.1, 0.2, 0.2, 0.3])),
          np.array([0.5, 1.5, -0.5, 0.5]), None),
    protocol=standard_protocol(),
)
@example(  # F below the first node: the cut is m = 0, every type flows out
    case=(affine_game(0.0, -1.0), TypeGrid(nodes=np.array([0.1, 0.2, 0.3])),
          np.array([0.2, 0.7, 1.0]), None),
    protocol=power_protocol(3.0),
)
@example(  # F above the last node: the cut is m = n, every type flows in
    case=(affine_game(0.0, 5.0), TypeGrid(nodes=np.array([0.1, 0.2, 0.3])),
          np.array([0.0, 0.4, 0.9]), None),
    protocol=bounded_power_protocol(2.0, 0.5),
)
@example(  # F exactly on a single node value: that node joins the prefix
    case=(affine_game(0.0, 0.2), TypeGrid(nodes=np.array([0.1, 0.2, 0.3])),
          np.array([0.3, 0.6, 0.9]), None),
    protocol=power_protocol(1.5),
)
@example(  # standard, F on a single node whose stage value is above 1: -0.0
    case=(affine_game(0.0, 0.2), TypeGrid(nodes=np.array([0.1, 0.2, 0.3])),
          np.array([0.3, 1.5, 0.9]), None),
    protocol=standard_protocol(),
)
@example(  # standard, F below the first node (m = 0)
    case=(affine_game(0.0, -1.0), TypeGrid(nodes=np.array([0.1, 0.2, 0.3])),
          np.array([0.2, 0.7, 1.0]), None),
    protocol=standard_protocol(),
)
@example(  # standard, F above the last node (m = n)
    case=(affine_game(0.0, 5.0), TypeGrid(nodes=np.array([0.1, 0.2, 0.3])),
          np.array([0.0, 0.4, 0.9]), None),
    protocol=standard_protocol(),
)
@example(  # a hole [3, 6) above the cut, the band running past it
    case=(affine_game(0.0, 0.25), TypeGrid(nodes=np.arange(1, 9) / 10),
          np.array([0.5, 0.2, 0.9, 0.0, 0.0, 0.0, 0.7, 1.0]), [0, 3, 6, 8]),
    protocol=bounded_power_protocol(2, 0.5),
)
def test_field_matches_masked_oracle_bit_for_bit(case, protocol):
    # with a window, the nodes live after the call (the window as the call
    # widened it, less its hole as the call trimmed it) get the oracle's
    # bits, and the field writes nothing anywhere else
    game, grid, values, window = case
    out = np.full(grid.n, np.nan)
    _field_function(game, protocol, grid, window)(values, out)
    live = np.ones(grid.n, dtype=bool)
    if window:
        a, h0, h1, b = window
        live[:a] = live[h0:h1] = live[b:] = False
    assert same_bits(out[live], oracle_field(game, protocol, grid, values)[live])
    assert np.isnan(out[~live]).all()


@pytest.mark.parametrize(
    "protocol",
    [standard_protocol(), power_protocol(3), power_protocol(1.5), bounded_power_protocol(2, 0.3)],
    ids=["standard", "cubic", "power1.5", "bounded_power"],
)
def test_fields_of_different_games_called_alternately(protocol):
    # each field keeps its own payoff buffer: evaluating one field between
    # the evaluations of another leaves the other's velocities unchanged
    rng = np.random.default_rng(7)
    grid = make_grid(UniformTypes(0.0, 1.0), 60)
    games = [affine_game(1.5, -0.2), affine_game(0.5, 0.4)]
    fields = [_field_function(game, protocol, grid) for game in games]
    for _ in range(10):
        for game, field in zip(games, fields):
            values = rng.uniform(-0.05, 1.05, grid.n)
            out = np.full(grid.n, np.nan)
            field(values, out)
            assert same_bits(out, oracle_field(game, protocol, grid, values))


def dyadic_states(total, rng):
    """Two states of sixteen values in steps of 1/16 that sum to total/16, so
    the aggregate is exactly total/256 under the weights 1/16: one of 0s and
    1s around a single fractional value (with stage values past either end
    at times), and one spread evenly."""
    blocky = np.zeros(16, dtype=int)
    blocky[: total // 16] = 16
    blocky[total // 16 : total // 16 + 1] += total % 16
    if 16 <= total <= 240 and rng.random() < 0.5:
        blocky[0] += 1  # a stage value above 1, balanced by one below 0
        blocky[-1] -= 1
    even = np.full(16, total // 16)
    even[: total % 16] += 1
    return rng.permutation(blocky) / 16.0, rng.permutation(even) / 16.0


# the cut: to n, down onto a triple node, up onto a pair, to 0, onto the
# first and the last node, just past them, and to deficits of exactly 3/256
STATE_TOTALS = [256, 128, 16, 224, 0, 8, 7, 240, 241, 64, 131, 125, 37, 67, 61, 256, 0, 128]


# the nodes of the state sequences, multiples of 1/256 with a pair and two
# triples, so that F = xbar lands exactly on nodes and at deficits of exactly
# pisharp
DYADIC_NODES = np.array([8, 16, 16, 16, 40, 64, 64, 96, 128, 128, 128, 160, 200, 224, 224,
                         240]) / 256

SEQUENCE_PROTOCOLS = pytest.mark.parametrize(
    "protocol",
    [standard_protocol(), power_protocol(3), power_protocol(0.5),
     bounded_power_protocol(2, 3 / 256), bounded_power_protocol(2, np.nextafter(3 / 256, 0.0)),
     bounded_power_protocol(2, np.nextafter(3 / 256, 1.0)), bounded_power_protocol(1.5, 1 / 256)],
    ids=["standard", "cubic", "power0.5", "bounded_at_a_deficit", "bounded_one_ulp_below",
         "bounded_one_ulp_above", "bounded_power1.5"],
)


@SEQUENCE_PROTOCOLS
def test_one_field_over_a_sequence_of_states_matches_oracle(protocol):
    # one field object is called again and again, so nothing it keeps from
    # one call to the next may leak into the velocities as the cut and the
    # band move; the nodes and the aggregates are multiples of 1/256, so
    # F = xbar lands exactly on nodes (duplicated ones too) and at deficits
    # of exactly pisharp
    grid = TypeGrid(nodes=DYADIC_NODES)
    game = affine_game(1.0, 0.0)
    rng = np.random.default_rng(11)
    totals = STATE_TOTALS + rng.integers(0, 257, 300).tolist()
    field = _field_function(game, protocol, grid)
    for total in totals:
        for values in dyadic_states(total, rng):
            out = np.full(grid.n, np.nan)
            assert field(values, out) == total / 256
            assert same_bits(out, oracle_field(game, protocol, grid, values)), total


@SEQUENCE_PROTOCOLS
@pytest.mark.parametrize("window", [None, (3, 6, 10, 13)], ids=["whole", "window"])
def test_one_field_on_two_buffer_pairs_keeps_no_stale_slices(protocol, window):
    # the integrator calls its field on two fixed (values, out) pairs whose
    # contents it overwrites in place, and the field keeps its slices per
    # pair: every call must read and write the slices of its own state as
    # the cut, the band and the window move, when a pair comes back to a
    # state it had before the band moved, and when the values array is
    # rebound at an unchanged state (the integrator's clamp); nothing is
    # written outside the live window, which only grows
    grid = TypeGrid(nodes=DYADIC_NODES)
    game = affine_game(1.0, 0.0)
    window = list(window) if window else None
    field = _field_function(game, protocol, grid, window)
    rng = np.random.default_rng(13)
    pairs = [(np.empty(16), np.full(16, np.nan)) for _ in range(2)]

    def check(values, out, total):
        assert field(values, out) == total / 256
        live = np.ones(16, dtype=bool)
        if window:
            a, h0, h1, b = window
            live[:a] = live[h0:h1] = live[b:] = False
        assert same_bits(out[live], oracle_field(game, protocol, grid, values)[live]), total
        assert np.isnan(out[~live]).all(), total

    # the first pair at one state, the second at the next one, so that each
    # call moves the cut and the band from where the other pair left them;
    # the first totals keep the cut at m = 5, below the window's hole
    # [6, 10), while the band moves up to the hole's first node
    totals = [40, 45, 63, 50, 61] + STATE_TOTALS + rng.integers(0, 257, 60).tolist()
    for now, later in zip(totals, totals[1:]):
        for (values, out), total in zip(pairs, (now, later)):
            values[:] = dyadic_states(total, rng)[0]
            check(values, out, total)
    # back to the first pair's state after the second pair moved the band,
    # with new contents in the same arrays
    (x, acc), (stage, k) = pairs
    for total in (37, 131, 37, 240, 37):
        stage[:] = dyadic_states(total, rng)[1]
        check(stage, k, total)
        x[:] = dyadic_states(37, rng)[0]
        check(x, acc, 37)
    # the clamp's rebinding: a new array at the same state, the old one
    # poisoned so that a kept slice of it would show
    for values in (x, stage):
        fresh = values[::-1].copy()
        values[:] = np.nan
        check(fresh, acc, 37)
        values[:] = fresh
    check(x, acc, 37)
    check(stage, k, 37)


@pytest.fixture
def rate_counts(monkeypatch):
    """Sizes of the deficit arrays each rate evaluation gets, one per call."""
    counts = []
    rate_into = dynamics.RevisionProtocol._rate_into

    def counting(self, d, out):
        counts.append(d.size)
        rate_into(self, d, out)

    monkeypatch.setattr(dynamics.RevisionProtocol, "_rate_into", counting)
    return counts


def test_rate_is_evaluated_on_the_band_only(rate_counts):
    # only deficits below pisharp are priced; past it the bounded rate is 1
    sc = parse_config(Path(__file__).parents[1] / "configs" / "coordination_logistic.ini")
    grid = make_grid(sc.dist, 2000)
    pisharp = sc.protocol.pisharp
    field = _field_function(sc.game, sc.protocol, grid)
    out = np.empty(grid.n)
    high = np.ones(grid.n)  # F = 1 - c, past the last node by more than pisharp
    assert sc.game.slope * field(high, out) + sc.game.intercept >= grid.nodes[-1] + pisharp
    assert rate_counts == []
    for xbar0 in (0.5, 0.3, 0.7):
        x = sorted_composition(grid, xbar0).values
        common = sc.game.slope * field(x, out) + sc.game.intercept
        band = int(np.count_nonzero(np.abs(common - grid.nodes) < pisharp))
        assert 0 < band < grid.n // 2
        assert rate_counts.pop() == band and rate_counts == []


def test_rate_is_priced_on_the_window_only(rate_counts, window_log, hole_log):
    # the balanced start that CI smoke-runs is mostly runs of exact 1s and
    # 0s; the cubic rate is priced on the window only, not on all 2000 nodes
    sc = parse_config(Path(__file__).parents[1] / "configs" / "entry_sqrt.ini",
                      ("initial.composition=balanced", "initial.kappa=0.2", "initial.pimax=0.3"))
    x0 = build_initial(sc, make_grid(sc.dist, sc.n))
    integrate(sc.game, sc.dist, sc.protocol, x0, t_end=100 * sc.dt, dt=sc.dt)
    assert sc.n == 2000 and len(rate_counts) == 401
    assert rate_counts == [b - a for a, b in window_log]
    assert window_log[-1] == (247, 729)
    # the reversed start at n = 8000 opens a hole: the rate is priced on
    # either side of it, once per span, and never on its 4000 frozen nodes
    sc = parse_config(Path(__file__).parents[1] / "configs" / "entry_sqrt.ini", ("grid.n=8000",))
    x0 = build_initial(sc, make_grid(sc.dist, sc.n))
    for log in (rate_counts, window_log, hole_log):
        log.clear()
    integrate(sc.game, sc.dist, sc.protocol, x0, t_end=100 * sc.dt, dt=sc.dt)
    assert len(rate_counts) == 2 * 401
    assert rate_counts == [count for (a, b), (h0, h1) in zip(window_log, hole_log)
                           for count in (h0 - a, b - h1)]
    assert window_log[-1] == (0, 8000) and hole_log[-1] == (2000, 6000)


def floats_around(x, k):
    """The k floats on either side of x, and x."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[1:] + above


def test_band_edges_settle_on_the_float_deficits(rate_counts):
    # nodes within a few ulps of F -+ pisharp, where the bisection's rounded
    # edges and the float deficits disagree: the band must hold exactly the
    # nodes with fl(|F - theta|) < pisharp, on either side of the cut
    rng = np.random.default_rng(5)
    for _ in range(200):
        common, pisharp = float(rng.uniform(-0.5, 1.5)), float(rng.uniform(0.001, 0.5))
        edges = (common - pisharp, common + pisharp, common - np.nextafter(pisharp, 0.0),
                 common + np.nextafter(pisharp, 0.0))
        nodes = [common] + [t for edge in edges for t in floats_around(edge, 4)]
        grid = TypeGrid(nodes=np.sort(np.array(nodes)))
        game, protocol = affine_game(0.0, common), bounded_power_protocol(2, pisharp)
        values = rng.uniform(-0.05, 1.05, grid.n)
        out = np.empty(grid.n)
        _field_function(game, protocol, grid)(values, out)
        band = int(np.count_nonzero(np.abs(common - grid.nodes) < pisharp))
        assert rate_counts == [band]
        assert same_bits(out, oracle_field(game, protocol, grid, values))
        rate_counts.clear()
    # one field object while F steps, one edge ulp at a time, up across the
    # nodes within a few ulps of F0 -+ pisharp and back, then at random: the
    # band kept from the last call must pass its re-check only where it is
    # still the band.  Every node holds the value c = F - F0, a few edge
    # ulps, and the 64 weights are 1/64, so the aggregate sums 64 equal,
    # exactly representable terms to c exactly and F = 1 * c + F0
    for _ in range(60):
        base, pisharp = float(rng.uniform(-0.5, 1.5)), float(rng.uniform(0.001, 0.5))
        edges = (base - pisharp, base + pisharp, base - np.nextafter(pisharp, 0.0),
                 base + np.nextafter(pisharp, 0.0))
        near = [base] + [t for edge in edges for t in floats_around(edge, 4)]
        far = [base - 3.0] * 13 + [base + 3.0] * 14
        grid = TypeGrid(nodes=np.sort(np.array(near + far)))
        step = max(np.spacing(abs(edge)) for edge in edges)
        game, protocol = affine_game(1.0, base), bounded_power_protocol(2, pisharp)
        field = _field_function(game, protocol, grid)
        ks = list(range(-12, 13)) + list(range(11, -13, -1)) + rng.integers(-12, 13, 20).tolist()
        for k in ks:
            values = np.full(grid.n, k * step)
            out = np.empty(grid.n)
            assert field(values, out) == k * step
            common = 1.0 * (k * step) + base
            band = int(np.count_nonzero(np.abs(common - grid.nodes) < pisharp))
            assert rate_counts == [band], k
            assert same_bits(out, oracle_field(game, protocol, grid, values)), k
            rate_counts.clear()


def test_field_keeps_slices_for_a_fixed_number_of_buffers():
    # a field called on fresh arrays each time keeps the slices of at most
    # _VIEW_SETS out buffers, and so holds on to no more arrays than that;
    # an array freed after its set was dropped may hand its address to a
    # later one, which must not find the dropped slices
    grid = make_grid(UniformTypes(0.0, 1.0), 40)
    game, protocol = affine_game(1.5, -0.2), bounded_power_protocol(2, 0.3)
    field = _field_function(game, protocol, grid)
    rng = np.random.default_rng(8)
    refs = []
    for call in range(5000):
        values, out = rng.uniform(-0.05, 1.05, grid.n), np.empty(grid.n)
        refs.append(weakref.ref(out))
        field(values, out)
        if call % 50 == 0:
            assert same_bits(out, oracle_field(game, protocol, grid, values))
        del values, out
        assert sum(ref() is not None for ref in refs[-5:]) <= dynamics._VIEW_SETS
    assert refs[0]() is None
    assert sum(ref() is not None for ref in refs) == dynamics._VIEW_SETS


def test_standard_rate_is_evaluated_on_tied_nodes_only(rate_counts):
    grid = TypeGrid(nodes=np.array([0.1, 0.2, 0.2, 0.2, 0.3]))
    values = np.array([0.5, 0.2, 1.0, 0.0, 0.5])
    for common, ties in ((0.2, 3), (0.25, 0), (0.1, 1), (-1.0, 0)):
        out = np.empty(grid.n)
        _field_function(affine_game(0.0, common), standard_protocol(), grid)(values, out)
        assert rate_counts == ([ties] if ties else [])
        rate_counts.clear()


ONE_NODE_VALUES = np.array([0.5, 0.2, 0.9, 0.0, 0.0, 0.0, 0.7, 1.0])


@pytest.mark.parametrize("protocol,common,window,counts", [
    (standard_protocol(), 0.1, None, [1]),
    (standard_protocol(), 0.5, None, [1]),
    (bounded_power_protocol(2, 0.05), 0.52, None, [1]),
    (bounded_power_protocol(2, 0.05), 0.78, None, [1]),
    (bounded_power_protocol(2, 0.03), 0.31, [0, 3, 6, 8], [1]),
    (bounded_power_protocol(2, 0.5), 0.25, [0, 3, 6, 8], [3, 1]),
], ids=["tie-on-the-first-node", "tie-inside", "below-the-cut", "above-the-cut",
        "before-the-hole", "past-the-hole"])
def test_one_node_band_keeps_its_bits(rate_counts, protocol, common, window, counts):
    # a band of one node, at the window's first node, inside it, on either
    # side of the cut and on either side of the hole [3, 6), is priced on
    # that node alone; the velocities keep their bits, and the field writes
    # nothing in the hole
    grid = TypeGrid(nodes=np.arange(1, 9) / 10)
    game = affine_game(0.0, common)
    out = np.full(grid.n, np.nan)
    _field_function(game, protocol, grid, window)(ONE_NODE_VALUES, out)
    assert rate_counts == counts
    oracle = oracle_field(game, protocol, grid, ONE_NODE_VALUES)
    live = np.ones(grid.n, dtype=bool)
    if window:
        live[window[1]:window[2]] = False
    assert same_bits(out[live], oracle[live])
    assert np.isnan(out[~live]).all()


def test_module_level_operands_are_read_only():
    # the shared 0-d operands of the hot loop: a write would change every run
    operands = [v for v in vars(dynamics).values() if isinstance(v, np.ndarray) and v.ndim == 0]
    assert operands
    for operand in operands:
        assert not operand.flags.writeable
        with pytest.raises(ValueError):
            operand[()] = 0.5


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=40), data=st.data())
def test_bisected_cut_matches_searchsorted(nodes, data):
    # the field bisects the node list; searchsorted on the array is the oracle
    repeats = data.draw(st.lists(st.sampled_from(nodes), max_size=20))
    theta = np.sort(np.array(nodes + repeats))
    common = data.draw(st.one_of(st.sampled_from(nodes), st.floats(-3.0, 4.0)))
    assert bisect_right(theta.tolist(), common) == np.searchsorted(theta, common, side="right")


@pytest.mark.parametrize("window", [
    [0, 40000, 40000, 40000],     # no frozen block
    [8200, 9000, 24600, 32768],   # 1s hold block 0, the hole block 2, the zeros block 4
    [16384, 20000, 20000, 20000],  # a closed hole: 1s hold blocks 0 and 1, zeros 3 and 4
    [3, 5, 39990, 39995],         # the hole holds blocks 1 to 3
])
def test_window_dot_reads_only_the_blocks_that_can_move(window):
    # on a state frozen as the window says, the field's aggregate has
    # blocked_dot's bits and reads no block wholly in the hole or past b;
    # moving the window makes its dot read them again.  The blocks of
    # leading 1s are dotted like any other
    n, block = 40000, dynamics._BLOCK
    grid = make_grid(UniformTypes(0.0, 1.0), n)
    weights = grid.weights
    a, h0, h1, b = window
    values = np.random.default_rng(a).random(n)
    values[:a], values[h0:h1], values[b:] = 1.0, 0.0, 0.0
    poisoned = values.copy()
    for i in range(0, n, block):
        j = min(i + block, n)
        if h0 <= i < j <= h1 or b <= i:
            poisoned[i:j] = np.nan
    expected = np.float64(blocked_dot(weights, values)).tobytes()
    # F is a node's type inside [a, h0), so the call leaves the window as it is
    game = affine_game(0.0, float(grid.nodes[(a + h0) // 2]))
    field = _field_function(game, standard_protocol(), grid, window)
    assert np.float64(field(poisoned, np.zeros(n))).tobytes() == expected
    assert window == [a, h0, h1, b]
    dot = dynamics._window_dot(weights, window)
    assert np.float64(dot(values)).tobytes() == expected
    assert np.float64(dot(poisoned)).tobytes() == expected
    window[:] = 0, n, n, n
    assert np.float64(dot(values)).tobytes() == expected
    assert math.isnan(dot(poisoned)) == bool(np.isnan(poisoned).any())


def blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS runs one thread on one CPU, so no second thread would run")
@pytest.mark.skipif(not blas_is_openblas(),
                    reason="numpy's BLAS is not OpenBLAS, which OPENBLAS_NUM_THREADS sets")
def test_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10,000 elements across its threads
    # and adds their partial sums in another order; the aggregate's blocks
    # of 8,192 nodes each run on one thread
    script = (
        "import hashlib\n"
        "from evodyn import integrate, make_grid, power_protocol, reversed_composition\n"
        "from evodyn.games import SqrtShiftTypes, affine_game\n"
        "dist = SqrtShiftTypes()\n"
        "x0 = reversed_composition(make_grid(dist, 20000), dist, 0.25)\n"
        "traj = integrate(affine_game(2.45, -0.05), dist, power_protocol(3), x0, 1.5, 0.05)\n"
        "for values in (traj.xbars, traj.final_values):\n"
        "    print(hashlib.sha256(values.tobytes()).hexdigest())\n"
    )
    src = str(Path(dynamics.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def assert_same_run(game, dist, protocol, x0, t_end, dt, snapshot_times=()):
    traj = integrate(game, dist, protocol, x0, t_end=t_end, dt=dt, snapshot_times=snapshot_times)
    xbars, final, clamp_total, snaps = oracle_rk4(game, protocol, x0, t_end, dt, snapshot_times)
    assert same_bits(traj.xbars, xbars)
    assert same_bits(traj.final_values, final)
    assert same_bits(traj.clamp_total, clamp_total)
    assert len(traj.snapshots) == len(snaps)
    for (t, v), (t_ref, v_ref) in zip(traj.snapshots, snaps):
        assert t == t_ref and same_bits(v, v_ref)
    return traj


def log_windows(monkeypatch, entry):
    """Wrap ``integrate``'s fields to log ``entry(window)`` after each call."""
    log = []
    make = dynamics._field_function

    def recording(game, protocol, grid, window=None):
        field = make(game, protocol, grid, window)

        def traced(values, out):
            xbar = field(values, out)
            log.append(entry(window))
            return xbar

        return traced

    monkeypatch.setattr(dynamics, "_field_function", recording)
    return log


@pytest.fixture
def window_log(monkeypatch):
    """The node window ``(a, b)`` after each field call of ``integrate``."""
    return log_windows(monkeypatch, lambda window: (window[0], window[3]))


@pytest.fixture
def hole_log(monkeypatch):
    """The window's hole ``(h0, h1)`` after each field call of ``integrate``;
    a closed hole is empty, ``h0 == h1``."""
    return log_windows(monkeypatch, lambda window: (window[1], window[2]))


def frozen_runs(grid, a, b, rng):
    """1 on the first a nodes and 0 from b on, random values between them
    with some exact 0s and 1s."""
    values = np.zeros(grid.n)
    values[:a] = 1.0
    middle = rng.random(b - a)
    middle[rng.random(b - a) < 0.2] = 0.0
    middle[rng.random(b - a) < 0.2] = 1.0
    values[a:b] = middle
    return BayesianStrategy(grid=grid, values=values)


EVERY_KIND = [standard_protocol(), power_protocol(3), power_protocol(0.5),
              power_protocol(2.5), bounded_power_protocol(2, 0.3),
              bounded_power_protocol(1.5, 0.05)]
KIND_IDS = ["standard", "cubic", "power0.5", "power2.5", "bounded2", "bounded1.5"]


class TestIntegratorOracle:
    def test_canonical_escape(self, canon_game, canon_dist, cubic, grid2000):
        rev = reversed_composition(grid2000, canon_dist, 0.25)
        assert_same_run(canon_game, canon_dist, cubic, rev, 2.0, 0.01, (0.0, 0.5, 1.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_games_and_protocols(self, seed):
        rng = np.random.default_rng(seed)
        dist = UniformTypes(0.0, float(rng.uniform(0.5, 2.0)))
        game = affine_game(float(rng.uniform(0.5, 2.5)), float(rng.uniform(-0.2, 0.2)))
        k = float(rng.uniform(0.5, 4.5))
        protocol = [standard_protocol(), power_protocol(k),
                    bounded_power_protocol(k, float(rng.uniform(0.05, 0.5)))][seed % 3]
        x0 = random_composition(make_grid(dist, 300), float(rng.uniform(0.1, 0.9)), rng)
        assert_same_run(game, dist, protocol, x0, 1.0, 0.02, (0.25,))

    def test_large_step_that_clamps(self, window_log):
        dist = UniformTypes(0.0, 1.0)
        game = affine_game(3.0, 0.0)
        x0 = random_composition(make_grid(dist, 200), 0.5, np.random.default_rng(2))
        traj = assert_same_run(game, dist, power_protocol(1), x0, 6.0, 1.0)
        assert traj.clamp_total > 0.0
        # frozen runs around a narrow middle: the clamp rebinds the state
        # while the window grows
        grid = make_grid(dist, 200)
        x0 = frozen_runs(grid, 90, 110, np.random.default_rng(0))
        game = affine_game(3.0, float(grid.nodes[100]) - 3.0 * aggregate(x0))
        for protocol in (standard_protocol(), bounded_power_protocol(1.5, 0.05)):
            window_log.clear()
            traj = assert_same_run(game, dist, protocol, x0, 12.0, 3.0, (3.0,))
            assert traj.clamp_total > 0.0 and window_log[-1] != (90, 110)

    @pytest.mark.parametrize("protocol", EVERY_KIND, ids=KIND_IDS)
    def test_cutoff_and_balanced_starts(self, canon_game, canon_dist, protocol, window_log):
        # mostly frozen runs of 1s and 0s; sorted at 0.2 = 100/500 is an
        # equilibrium made of the two runs alone, so its window never grows
        grid = make_grid(canon_dist, 500)
        balanced = balanced_composition(grid, canon_dist, canon_game, 0.25, 0.2, 0.3)
        starts = [
            sorted_composition(grid, 0.25), sorted_composition(grid, 0.1), balanced,
            destabilizing_perturbation(balanced, canon_game, canon_dist, e=0.0, w=0.0,
                                       eps=0.05, variant="uniform"),
            sorted_composition(grid, 0.2),
        ]
        for x0 in starts:
            window_log.clear()
            assert_same_run(canon_game, canon_dist, protocol, x0, 2.0, 0.02, (0.0, 1.0))
        assert window_log[0] == window_log[-1] == (100, 102)

    @pytest.mark.parametrize("protocol", EVERY_KIND, ids=KIND_IDS)
    def test_cut_moving_into_the_frozen_runs(self, protocol, window_log):
        # a steep game moves the cut from the middle into the run of 1s or of
        # 0s, within a step too; the window must have grown there by then
        rng = np.random.default_rng(int(protocol.k * 10) + len(protocol.kind))
        dist = UniformTypes(0.0, 1.0)
        grown = set()
        for _ in range(20):
            n = int(rng.choice([7, 40, 300, 2000]))
            grid = make_grid(dist, n)
            a = int(rng.integers(0, n))
            b = int(rng.integers(a + 1, n + 1))
            x0 = frozen_runs(grid, a, b, rng)
            # the cut starts at either end of the middle
            cut = float(grid.nodes[a if rng.random() < 0.5 else b - 1])
            slope = float(rng.choice([-1.0, 1.0, 1.0]) * rng.uniform(0.5, 2.0))
            game = affine_game(slope, cut - slope * aggregate(x0))
            dt = float(rng.choice([0.05, 0.2, 0.5]))
            window_log.clear()
            try:
                integrate(game, dist, protocol, x0, t_end=8 * dt, dt=dt,
                          snapshot_times=(0.0, 4 * dt))
            except InputError:  # a stage aggregate left the payoff domain
                with pytest.raises(InputError, match="left the payoff evaluation domain"):
                    oracle_rk4(game, protocol, x0, 8 * dt, dt)
                continue
            assert_same_run(game, dist, protocol, x0, 8 * dt, dt, (0.0, 4 * dt))
            calls = window_log[: len(window_log) // 2]
            for call in range(1, len(calls)):
                (a0, b0), (a1, b1) = calls[call - 1], calls[call]
                if call % 4:  # a later stage of the same step
                    grown |= {"ones"} if a1 < a0 else set()
                    grown |= {"zeros"} if b1 > b0 else set()
        assert grown == {"ones", "zeros"}

    @pytest.mark.parametrize("protocol", EVERY_KIND, ids=KIND_IDS)
    def test_reversed_and_mixture_starts_open_the_hole(self, canon_game, canon_dist, protocol,
                                                        hole_log):
        # at n = 8000 both starts are 0 from the cut (node 2000) to the
        # reversed threshold (node 6000): the hole skips those 4000 nodes
        grid = make_grid(canon_dist, 8000)
        rev = reversed_composition(grid, canon_dist, 0.25)
        mixture = BayesianStrategy(
            grid=grid, values=0.3 * sorted_composition(grid, 0.25).values + 0.7 * rev.values)
        for x0 in (rev, mixture):
            hole_log.clear()
            assert_same_run(canon_game, canon_dist, protocol, x0, 1.0, 0.05, (0.0, 0.5))
            assert hole_log[0] == (2000, 6000)
            assert all(h0 < h1 for h0, h1 in hole_log)

    @pytest.mark.parametrize("protocol", EVERY_KIND, ids=KIND_IDS)
    def test_cut_moving_into_the_hole(self, protocol, hole_log):
        # the aggregate falls, which raises the payoff of a decreasing game,
        # so the cut moves up into the hole [1000, 6000), within a step too:
        # the hole shrinks to stay above it, and closes in the steeper game
        # once it would skip fewer than _HOLE_MIN nodes
        dist = UniformTypes(0.0, 1.0)
        grid = make_grid(dist, 8000)
        values = np.zeros(grid.n)
        values[:1000] = np.random.default_rng(0).random(1000)
        values[6000:] = 1.0
        x0 = BayesianStrategy(grid=grid, values=values)
        for slope, dt, closes in ((-2.0, 0.5, False), (-4.0, 1.0, True)):
            game = affine_game(slope, float(grid.nodes[999]) - slope * aggregate(x0))
            hole_log.clear()
            assert_same_run(game, dist, protocol, x0, 4 * dt, dt)
            assert hole_log[0] == (1000, 6000)
            assert any(hole_log[call][0] > hole_log[call - 1][0]
                       for call in range(1, len(hole_log)) if call % 4)
            h0, h1 = hole_log[-1]
            assert (h0 == h1) if closes else (1000 < h0 < h1 == 6000)

    def test_aggregate_of_three_blocks(self, monkeypatch):
        # at n = 20000 the field sums the aggregate over three blocks
        # (composition._BLOCK = 8192) and skips the frozen ones.  The
        # reversed start's hole [3000, 17000) holds the middle block until
        # the cut rises past node 8192; the sorted start's run of 1s holds
        # the first block until the cut falls below it, and its run of
        # zeros holds the last one throughout
        windows = log_windows(monkeypatch, tuple)
        dist = UniformTypes(0.0, 1.0)
        grid = make_grid(dist, 20000)
        block = dynamics._BLOCK
        seen = set()
        for protocol in EVERY_KIND:
            for x0, slope, node in ((reversed_composition(grid, dist, 0.15), -5.0, 3000),
                                    (sorted_composition(grid, 0.6), 2.0, 9000)):
                game = affine_game(slope, float(grid.nodes[node]) - slope * aggregate(x0))
                windows.clear()
                assert_same_run(game, dist, protocol, x0, 3.0, 0.1, (1.5,))
                for a, h0, h1, b in windows:
                    seen |= {"hole holds a block"} if h0 <= block and 2 * block <= h1 else set()
                    seen |= {"hole lost it"} if block < h0 < h1 else set()
                    seen |= {"1s hold a block"} if a >= block else set()
                    seen |= {"1s lost it"} if a < block < h0 == h1 else set()
                    seen |= {"0s hold a block"} if b <= 2 * block else set()
        assert len(seen) == 5

    def test_hole_below_the_gate_stays_closed(self, canon_game, canon_dist, cubic, hole_log):
        # the reversed starts' frozen middles at n = 2000 and 4000 hold 1000
        # and 2000 nodes: too few to pay for a second span.  At n = 4000 the
        # run of zeros (2998 nodes) opens the hole, and the first cut trims it
        # to 2000 nodes and so closes it
        for n in (2000, 4000):
            x0 = reversed_composition(make_grid(canon_dist, n), canon_dist, 0.25)
            hole_log.clear()
            assert_same_run(canon_game, canon_dist, cubic, x0, 0.5, 0.05)
            assert all(h0 == h1 == n for h0, h1 in hole_log)

    def test_hole_keeps_two_nodes_on_either_side(self, cubic, hole_log):
        # every node is above the cut and all but the last are 0: the hole
        # leaves two nodes of the window on either side of it, so neither
        # span ever has one element (numpy's slow path)
        dist = UniformTypes(0.0, 1.0)
        values = np.zeros(8000)
        values[-1] = 0.5
        x0 = BayesianStrategy(grid=make_grid(dist, 8000), values=values)
        assert_same_run(affine_game(0.0, -1.0), dist, cubic, x0, 0.5, 0.05)
        assert hole_log[0] == hole_log[-1] == (2, 7998)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_state_with_an_open_hole_raises(self, canon_game, canon_dist, cubic,
                                                       monkeypatch, bad):
        # a non-finite velocity at the last stage of the third step, on a node
        # before the hole [2000, 6000) or on one past it: the step's [0, 1]
        # check on both spans must see the state it leaves
        x0 = reversed_composition(make_grid(canon_dist, 8000), canon_dist, 0.25)
        make = dynamics._field_function
        for node in (1000, 7000):
            holes = []

            def poisoned(game, protocol, grid, window=None):
                field = make(game, protocol, grid, window)

                def traced(values, out):
                    xbar = field(values, out)
                    holes.append((window[1], window[2]))
                    if len(holes) == 12:
                        out[node] = bad
                    return xbar

                return traced

            monkeypatch.setattr(dynamics, "_field_function", poisoned)
            with pytest.raises(IntegrationError, match="non-finite") as raised:
                integrate(canon_game, canon_dist, cubic, x0, t_end=1.0, dt=0.01)
            assert raised.value.time == 3 * 0.01
            assert holes == [(2000, 6000)] * 12

    def test_stage_leaving_the_domain_is_refused(self):
        dist = UniformTypes(0.0, 50.0)
        game = affine_game(10.0, 0.0)
        x0 = sorted_composition(make_grid(dist, 200), 0.3)
        for run in (integrate, lambda g, d, p, x, t_end, dt: oracle_rk4(g, p, x, t_end, dt)):
            with pytest.raises(InputError, match="left the payoff evaluation domain"):
                run(game, dist, power_protocol(3), x0, t_end=2.0, dt=0.5)

    def test_overflowing_state_raises_integration_error(self):
        # two types far on either side of a constant payoff: every stage keeps
        # the aggregate at 0 while the velocities grow past the float range
        grid = TypeGrid(nodes=np.array([-1e80, 1e80]))
        x0 = BayesianStrategy(grid=grid, values=np.array([0.5, 0.5]))
        game = affine_game(0.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for run in (integrate, lambda g, d, p, x, t_end, dt: oracle_rk4(g, p, x, t_end, dt)):
                with pytest.raises(IntegrationError, match="non-finite"):
                    run(game, UniformTypes(0.0, 1.0), power_protocol(1), x0, t_end=1.0, dt=1.0)

    def test_recorded_aggregates_are_composition_aggregates(self):
        # the bundled entry config's reversed composition at 0.25, whose
        # aggregate differs from the mean of its values in the last bits
        sc = parse_config(Path(__file__).parents[1] / "configs" / "entry_sqrt.ini")
        x0 = reversed_composition(make_grid(sc.dist, sc.n), sc.dist, 0.25)
        traj = integrate(sc.game, sc.dist, sc.protocol, x0, t_end=0.1, dt=sc.dt)
        assert same_bits(traj.xbars[0], aggregate(x0))
        final = BayesianStrategy(grid=x0.grid, values=traj.final_values)
        assert same_bits(traj.xbars[-1], aggregate(final))

    def test_homogenized_matches_scalar_rk4(self, canon_game, canon_dist):
        traj = integrate_homogenized(canon_game, canon_dist, 0.3, t_end=2.0, dt=0.05)

        def g(x):
            return homogenized_field(canon_game, canon_dist, min(max(x, 0.0), 1.0))

        x, dt = 0.3, 0.05
        for step in range(1, 41):
            k1 = g(x)
            k2 = g(x + 0.5 * dt * k1)
            k3 = g(x + 0.5 * dt * k2)
            k4 = g(x + dt * k3)
            x = min(max(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0), 1.0)
            assert traj.xbars[step] == x
