import numpy as np
import pytest

from evodyn import (
    InputError,
    TruncatedLogisticTypes,
    UniformTypes,
    affine_game,
    bayesian_equilibrium,
    cutoff_type,
    find_aggregate_equilibria,
    integrate_homogenized,
    linear_coordination_game,
    vector_field,
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
    from evodyn import aggregate_best_response

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
    assert cutoff_type(canon_dist, 0.2) == pytest.approx(0.44, abs=1e-12)
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
    assert cutoff_type(canon_dist, 0.25) == pytest.approx(9 / 16, abs=1e-15)
    assert cutoff_type(canon_dist, 0.0) == 0.0
    assert cutoff_type(canon_dist, 1.0) == 3.0
    with pytest.raises(InputError):
        cutoff_type(canon_dist, 1.5)


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
