"""Acceptance suite: one test per criterion, each printed as pass/fail.

Quantitative oracles used below:

* equilibria: roots of 20 x^2 - 9 x + 1 = 0 (0.2, 0.25) plus the clamped
  corner at 0;
* thresholds: cut-off deficit (20 x^2 - 9 x + 1)/20, peaking at 1/1600 at
  x = 0.225 on (0.2, 0.25) and approaching 0.05 at the corner;
* certified decrease set: inverse_cdf >= 2F, i.e. (0, (2.9 - sqrt(8.01))/2].

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import time

import numpy as np
import pytest

from evodyn import (
    bayesian_equilibrium,
    balanced_composition,
    destabilizing_perturbation,
    find_aggregate_equilibria,
    flow_distributions,
    aggregate,
    aggregate_velocity_from_flows,
    bound_trajectory,
    integrate,
    integrate_homogenized,
    is_critical_mass_decrease,
    make_grid,
    reversed_composition,
    robustness_threshold,
    select_most_robust,
    sorted_composition,
    sosd_compare,
    vector_field,
)
from tests.conftest import random_composition

XC = (2.9 - np.sqrt(8.01)) / 2


def report(criterion: str, elapsed: float, budget: float):
    print(f"[acceptance] {criterion}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_equilibrium_set(canon_game, canon_dist):
    start = time.perf_counter()
    rep = find_aggregate_equilibria(canon_game, canon_dist)
    levels = [e.xbar for e in rep.equilibria]
    stabilities = [e.stability for e in rep.equilibria]
    roots = [0.0, (9 - 1) / 40, (9 + 1) / 40]
    assert len(levels) == 3
    for found, expected in zip(levels, roots):
        assert abs(found - expected) <= 1e-6
    assert stabilities == ["stable", "unstable", "stable"]
    report("criterion 1 (equilibrium set {0, 0.2, 0.25})", time.perf_counter() - start, 1.0)


def test_criterion_2_robustness_thresholds(canon_game, canon_dist):
    start = time.perf_counter()
    upper = robustness_threshold(canon_game, canon_dist, 0.25)
    assert abs(upper.overall - 1 / 1600) <= 1e-9
    assert abs(upper.attained_left - 0.225) <= 1e-4
    corner = robustness_threshold(canon_game, canon_dist, 0.0)
    assert abs(corner.overall - 0.05) <= 1e-6
    selection = select_most_robust(canon_game, canon_dist)
    assert selection.selected == pytest.approx(0.0, abs=1e-9)
    report("criterion 2 (thresholds 1/1600 and 0.05, select -> 0)", time.perf_counter() - start, 1.0)


def test_criterion_3_stationarity_suite(canon_game, canon_dist, standard, cubic, grid4000):
    start = time.perf_counter()
    for xbar_star in (0.0, 0.2, 0.25):
        x = bayesian_equilibrium(canon_game, canon_dist, grid4000, xbar_star)
        boundary = int(np.floor(xbar_star * grid4000.n))
        keep = np.arange(grid4000.n) != boundary
        for proto in (standard, cubic):
            rates = vector_field(canon_game, canon_dist, proto, x)
            assert np.abs(rates[keep]).max() <= 1e-9
    bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
    traj = integrate(canon_game, canon_dist, cubic, bal, t_end=5.0, dt=0.005)
    assert np.abs(traj.xbars - 0.25).max() <= 5e-3
    report("criterion 3 (stationarity: equilibria and balanced composition)", time.perf_counter() - start, 30.0)


def test_criterion_4_aggregability_contrast(canon_game, canon_dist, standard, cubic, grid2000):
    start = time.perf_counter()
    srt = sorted_composition(grid2000, 0.25)
    rev = reversed_composition(grid2000, canon_dist, 0.25)
    het_s = integrate(canon_game, canon_dist, standard, srt, t_end=20.0, dt=0.01)
    het_r = integrate(canon_game, canon_dist, standard, rev, t_end=20.0, dt=0.01)
    hom = integrate_homogenized(canon_game, canon_dist, 0.25, t_end=20.0, dt=0.01)
    assert np.abs(het_s.xbars - het_r.xbars).max() <= 1e-6
    assert np.abs(het_s.xbars - hom.xbars).max() <= 1e-6
    assert np.abs(het_r.xbars - hom.xbars).max() <= 1e-6
    temp_s = integrate(canon_game, canon_dist, cubic, srt, t_end=2.0, dt=0.005)
    temp_r = integrate(canon_game, canon_dist, cubic, rev, t_end=2.0, dt=0.005)
    assert abs(temp_s.final_xbar - temp_r.final_xbar) > 0.05
    report("criterion 4 (standard BRD aggregable, tempered BRD not)", time.perf_counter() - start, 30.0)


def test_criterion_5_escape_reproduction(canon_game, canon_dist, cubic, reversed25, request):
    start = time.perf_counter()
    escape_run = request.getfixturevalue("escape_run")
    inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)

    # (a) outflow rates second-order dominate
    assert sosd_compare(outflow, inflow, mass_tol=2 / reversed25.grid.n) == "O_dominates"

    # (b) simulated aggregate stays strictly below the equilibrium on (0, 50]
    upto = int(50 / 0.005) + 1
    assert escape_run.xbars[1:upto].max() < 0.25

    # (c) frozen-rate bound upper-bounds the simulation at all sampled times
    bound = bound_trajectory(inflow, outflow, 0.25, escape_run.times[1:upto])
    assert float((escape_run.xbars[1:upto] - bound).max()) <= 1e-3

    # (d) the bound itself dips below 0.1 within unit time
    early = bound_trajectory(inflow, outflow, 0.25, np.geomspace(1e-3, 1.0, 1000))
    assert early.min() < 0.1

    # (e) long-run escape: below 0.01 by t=50 and at the corner by t=200
    assert escape_run.xbar_at(50.0) < 0.01
    assert abs(escape_run.final_xbar - 0.0) <= 1e-3
    report("criterion 5 (escape: dominance, bound, crossing, long run)", time.perf_counter() - start, 120.0)


def test_criterion_6_critical_mass_oracle(canon_game, canon_dist, cubic):
    start = time.perf_counter()
    theta_min, _ = canon_dist.support

    def brute_force_member(xbar: float) -> bool:
        common = canon_game.payoff(xbar)
        cutoff = float(canon_dist.inverse_cdf(xbar))
        if not cutoff > common:
            return False
        if xbar == 1.0 or float(canon_dist.cdf(common)) == 0.0:
            return True
        thetas = np.linspace(theta_min, common, 2001)[:-1]
        return float(cubic.rate(cutoff - common)) >= float(cubic.rate(common - thetas).max())

    xs = np.arange(1e-4, 0.2, 1e-4)
    member = np.array([is_critical_mass_decrease(canon_game, canon_dist, cubic, float(x))[0] for x in xs])
    oracle = np.array([brute_force_member(float(x)) for x in xs])
    assert np.array_equal(member, oracle)
    # certified set is one interval (0, xc]
    boundary = int(np.argmin(member))
    assert member[:boundary].all() and not member[boundary:].any()
    grid_xc = float(xs[boundary - 1])
    assert abs(grid_xc - XC) <= 1e-3
    report("criterion 6 (certified decrease set (0, 0.0349])", time.perf_counter() - start, 10.0)


def test_criterion_7_flow_identity(canon_game, canon_dist, cubic, standard):
    start = time.perf_counter()
    grid = make_grid(canon_dist, 1000)
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = random_composition(grid, float(rng.uniform(0.0, 1.0)), rng)
        xbar = aggregate(x)
        for proto in (cubic, standard):
            inflow, outflow = flow_distributions(canon_game, canon_dist, proto, x, xbar)
            from_flows = aggregate_velocity_from_flows(inflow, outflow)
            direct = float(np.dot(grid.weights, vector_field(canon_game, canon_dist, proto, x)))
            assert abs(from_flows - direct) <= 1e-12
    report("criterion 7 (flow-distribution velocity identity)", time.perf_counter() - start, 10.0)


def test_criterion_8_perturbation_construction(canon_game, canon_dist, cubic, grid4000):
    start = time.perf_counter()
    base = bayesian_equilibrium(canon_game, canon_dist, grid4000, 0.25)
    perturbed = destabilizing_perturbation(
        base, canon_game, canon_dist, e=0.05, w=0.5, eps=0.01, protocol=cubic
    )
    gain = aggregate(perturbed) - aggregate(base)
    assert abs(gain - (1 - 0.5) * 0.05 * 0.01) <= 2.0 / grid4000.n
    velocity = float(np.dot(grid4000.weights, vector_field(canon_game, canon_dist, cubic, perturbed)))
    assert velocity > 0.0
    report("criterion 8 (band perturbation raises aggregate and velocity)", time.perf_counter() - start, 5.0)


def test_criterion_9_grid_and_step_convergence(canon_game, canon_dist, cubic, escape_run):
    start = time.perf_counter()
    at_10_n4000 = escape_run.xbar_at(10.0)

    grid2k = make_grid(canon_dist, 2000)
    rev2k = reversed_composition(grid2k, canon_dist, 0.25)
    run2k = integrate(canon_game, canon_dist, cubic, rev2k, t_end=10.0, dt=0.005)
    assert abs(run2k.xbar_at(10.0) - at_10_n4000) <= 2e-3

    grid4k = make_grid(canon_dist, 4000)
    rev4k = reversed_composition(grid4k, canon_dist, 0.25)
    fine = integrate(canon_game, canon_dist, cubic, rev4k, t_end=10.0, dt=0.0025)
    assert abs(fine.xbar_at(10.0) - at_10_n4000) <= 1e-6
    report("criterion 9 (grid doubling <= 2e-3, step halving <= 1e-6)", time.perf_counter() - start, 60.0)
