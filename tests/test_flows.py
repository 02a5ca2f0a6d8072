import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evodyn.flows
from evodyn import (
    InputError,
    SqrtShiftTypes,
    SwitchingRateDistribution,
    TruncatedLogisticTypes,
    affine_game,
    aggregate,
    aggregate_velocity_from_flows,
    balanced_composition,
    bound_trajectory,
    bounded_power_protocol,
    critical_mass_sets,
    detailed_balance_residual,
    escape_certificate,
    find_aggregate_equilibria,
    flow_distributions,
    integrate,
    linear_coordination_game,
    make_grid,
    power_protocol,
    rate_ratio_escape_bound,
    reversed_composition,
    sorted_composition,
    sosd_compare,
    standard_protocol,
    start_sources,
    vector_field,
)
from evodyn.cli import main
from evodyn.composition import (
    BalancedRecord,
    BayesianStrategy,
    Cutoff,
    TypeGrid,
    blocked_dot,
    destabilizing_perturbation,
)
from tests.conftest import random_composition


def atoms(pairs):
    qs, ms = zip(*pairs) if pairs else ((), ())
    return SwitchingRateDistribution(qs=np.array(qs, float), ms=np.array(ms, float))


@pytest.fixture(scope="module")
def inflow_dominant(grid2000):
    """Participants packed just above the cut-off: leavers are slow, entrants
    fast, so the inflow rate distribution first-order dominates."""
    n = grid2000.n
    values = np.zeros(n)
    values[156:656] = 1.0  # 500 nodes: aggregate exactly 0.25
    return BayesianStrategy(grid=grid2000, values=values)


class TestFlowDistributions:
    def test_sorted_equilibrium_has_empty_sources(self, canon_game, canon_dist, cubic, grid4000):
        x = sorted_composition(grid4000, 0.25)
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, x, 0.25)
        assert inflow.total_mass == 0.0
        assert outflow.total_mass == 0.0

    def test_reversed_masses_and_rate_ranges(self, canon_game, canon_dist, cubic, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        n = reversed25.grid.n
        assert inflow.total_mass == pytest.approx(0.25, abs=2 / n)
        assert outflow.total_mass == pytest.approx(0.25, abs=2 / n)
        assert inflow.qs.min() >= 0.0
        assert inflow.qs.max() <= (9 / 16) ** 3
        assert outflow.qs.min() >= (3 / 2) ** 3 - 0.01
        assert outflow.qs.max() <= (39 / 16) ** 3 + 1e-12

    def test_equilibrium_balances_source_masses(self, canon_game, canon_dist, cubic, grid2000):
        rng = np.random.default_rng(17)
        x = random_composition(grid2000, 0.25, rng)
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, x, 0.25)
        assert abs(inflow.total_mass - outflow.total_mass) <= 2 / grid2000.n

    def test_deficit_distributions_empty_at_sorted_equilibrium(
        self, canon_game, canon_dist, grid4000
    ):
        x = sorted_composition(grid4000, 0.25)
        inflow, outflow = flow_distributions(
            canon_game, canon_dist, power_protocol(1.0), x, 0.25
        )
        assert inflow.total_mass == 0.0 and outflow.total_mass == 0.0

    def test_deficit_spans_for_reversed(self, canon_game, canon_dist, reversed25):
        inflow, outflow = flow_distributions(
            canon_game, canon_dist, power_protocol(1.0), reversed25, 0.25
        )
        assert 0.0 <= inflow.qs.min() and inflow.qs.max() <= 9 / 16
        assert 3 / 2 - 0.01 <= outflow.qs.min() and outflow.qs.max() <= 39 / 16

    @pytest.mark.parametrize("qs,ms,what", [
        ([float("nan"), 1.0], [0.1, 0.1], "atom values"),
        ([float("inf"), 1.0], [0.1, 0.1], "atom values"),
        ([-0.5, 1.0], [0.1, 0.1], "atom values"),
        ([0.5, 1.0], [float("nan"), 0.1], "masses"),
        ([0.5, 1.0], [float("inf"), 0.1], "masses"),
        ([0.5, 1.0], [-0.1, 0.1], "masses"),
        ([-np.inf, 1.0], [0.1, 0.1], "atom values"),
        ([0.5, 1.0], [0.1, -np.inf], "masses"),
        ([0.5, 1.0], [0.1, -5e-324], "masses"),
    ])
    def test_rejects_non_finite_or_negative_atoms(self, qs, ms, what):
        # a NaN rate would make a NaN bound; a NaN or negative mass would be
        # dropped with the zero masses
        with pytest.raises(InputError, match=f"{what} must be finite and nonnegative"):
            SwitchingRateDistribution(qs=np.array(qs), ms=np.array(ms))

    def test_accepts_signed_zeros_and_no_atoms(self):
        dist = SwitchingRateDistribution(qs=np.array([-0.0, 0.0, 1e308]),
                                         ms=np.array([0.1, -0.0, 0.2]))
        assert dist.qs.tobytes() == np.array([-0.0, 1e308]).tobytes()
        assert dist.total_mass == pytest.approx(0.3)
        assert SwitchingRateDistribution(qs=np.empty(0), ms=np.empty(0)).total_mass == 0.0


class TestVelocityIdentity:
    def test_arithmetic_examples(self):
        assert aggregate_velocity_from_flows(atoms([(2.0, 0.1)]), atoms([(1.0, 0.2)])) == 0.0
        same = atoms([(0.5, 0.1), (1.5, 0.1)])
        assert aggregate_velocity_from_flows(same, same) == 0.0

    def test_reversed_matches_vector_field(self, canon_game, canon_dist, cubic, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        from_flows = aggregate_velocity_from_flows(inflow, outflow)
        direct = float(
            np.dot(reversed25.grid.weights, vector_field(canon_game, canon_dist, cubic, reversed25))
        )
        assert from_flows == pytest.approx(direct, abs=1e-9)

    def test_identity_on_random_compositions(self, canon_game, canon_dist, cubic, standard, grid2000):
        rng = np.random.default_rng(29)
        for _ in range(100):
            x = random_composition(grid2000, float(rng.uniform(0, 1)), rng)
            xbar = aggregate(x)
            for proto in (cubic, standard):
                inflow, outflow = flow_distributions(canon_game, canon_dist, proto, x, xbar)
                from_flows = aggregate_velocity_from_flows(inflow, outflow)
                direct = float(
                    np.dot(grid2000.weights, vector_field(canon_game, canon_dist, proto, x))
                )
                assert abs(from_flows - direct) <= 1e-12

    @pytest.mark.parametrize("size", [1, 300, 8192, 8193, 20000])
    def test_sums_are_the_aggregates_blocked_sums(self, size):
        # up to 8,192 atoms each side is one dot, as before; past that the
        # sums fold 8,192-atom blocks, the same at any BLAS thread count
        rng = np.random.default_rng(size)
        inflow, outflow = (atoms(zip(rng.random(size), rng.random(size) / size)) for _ in "io")
        velocity = aggregate_velocity_from_flows(inflow, outflow)
        if size <= 8192:
            single = float(np.dot(inflow.qs, inflow.ms)) - float(np.dot(outflow.qs, outflow.ms))
            assert np.float64(velocity).tobytes() == np.float64(single).tobytes()
        blocked = blocked_dot(inflow.qs, inflow.ms) - blocked_dot(outflow.qs, outflow.ms)
        assert np.float64(velocity).tobytes() == np.float64(blocked).tobytes()


class TestDetailedBalance:
    def test_empty_distributions_balance(self, canon_game, canon_dist, cubic, grid4000):
        x = sorted_composition(grid4000, 0.25)
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, x, 0.25)
        assert detailed_balance_residual(inflow, outflow) == 0.0

    def test_reversed_residual_saturates(self, canon_game, canon_dist, cubic, reversed25):
        # inflow c.d.f. reaches its full 0.25 mass before any outflow rate
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        assert detailed_balance_residual(inflow, outflow) == pytest.approx(0.25, abs=1e-12)

    def test_balanced_composition_residual(self, canon_game, canon_dist, cubic, grid4000):
        from evodyn import balanced_composition

        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, bal, 0.25)
        assert detailed_balance_residual(inflow, outflow) <= 3 / grid4000.n

    def test_balance_implies_aggregate_stationarity(self, canon_game, canon_dist, cubic, grid4000):
        from evodyn import balanced_composition

        bal = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        traj = integrate(canon_game, canon_dist, cubic, bal, t_end=5.0, dt=0.005)
        assert np.abs(traj.xbars - 0.25).max() <= 5e-3


class TestSecondOrderDominance:
    def test_identical_is_incomparable(self):
        d = atoms([(0.5, 0.1), (1.5, 0.1)])
        assert sosd_compare(d, d) == "incomparable"

    def test_mean_preserving_spread_is_dominated(self):
        inflow = atoms([(1.0, 0.2)])
        outflow = atoms([(0.5, 0.1), (1.5, 0.1)])
        assert sosd_compare(outflow, inflow) == "I_dominates"

    def test_disjoint_supports_give_first_order_ranking(self, canon_game, canon_dist, cubic, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        assert sosd_compare(outflow, inflow, mass_tol=2 / reversed25.grid.n) == "O_dominates"

    def test_mass_mismatch_rejected(self):
        with pytest.raises(InputError):
            sosd_compare(atoms([(1.0, 0.3)]), atoms([(1.0, 0.2)]))

    @pytest.mark.parametrize("mass_tol", [float("nan"), float("inf"), -1e-9])
    def test_mass_tolerance_must_be_finite_and_nonnegative(self, mass_tol):
        # a NaN tolerance once skipped the mass check; a negative one refused
        # identical distributions
        d = atoms([(1.0, 0.2)])
        with pytest.raises(InputError, match="mass_tol"):
            sosd_compare(atoms([(1.0, 0.3)]), d, mass_tol=mass_tol)
        with pytest.raises(InputError, match="mass_tol"):
            sosd_compare(d, d, mass_tol=mass_tol)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.01, max_value=0.05),
            ),
            min_size=1,
            max_size=8,
        ),
        data2=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.01, max_value=0.05),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_antisymmetry(self, data, data2):
        total = sum(m for _, m in data)
        scaled = [(q, m / total * 0.5) for q, m in data]
        total2 = sum(m for _, m in data2)
        scaled2 = [(q, m / total2 * 0.5) for q, m in data2]
        a, b = atoms(scaled), atoms(scaled2)
        forward = sosd_compare(a, b)
        backward = sosd_compare(b, a)
        flip = {"O_dominates": "I_dominates", "I_dominates": "O_dominates",
                "incomparable": "incomparable"}
        assert backward == flip[forward]


class TestBoundTrajectory:
    def test_starts_at_equilibrium(self, canon_game, canon_dist, cubic, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        assert bound_trajectory(inflow, outflow, 0.25, np.array([0.0]))[0] == pytest.approx(
            0.25, abs=1e-12
        )

    def test_decreasing_on_the_dip(self, canon_game, canon_dist, cubic, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        ts = np.linspace(0.0, 0.5, 501)
        bound = bound_trajectory(inflow, outflow, 0.25, ts)
        assert np.all(np.diff(bound) < 0.0)

    def test_dips_below_one_tenth_within_unit_time(self, canon_game, canon_dist, cubic, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        ts = np.geomspace(1e-3, 1.0, 500)
        assert bound_trajectory(inflow, outflow, 0.25, ts).min() < 0.1

    def test_standard_rates_cancel_exactly(self, canon_game, canon_dist, standard, reversed25):
        inflow, outflow = flow_distributions(canon_game, canon_dist, standard, reversed25, 0.25)
        ts = np.geomspace(1e-3, 50.0, 200)
        bound = bound_trajectory(inflow, outflow, 0.25, ts)
        assert np.abs(bound - 0.25).max() <= 1e-12

    def test_upper_bounds_simulation(self, canon_game, canon_dist, cubic, reversed25, escape_run):
        inflow, outflow = flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)
        upto = int(50 / 0.005) + 1
        ts = escape_run.times[1:upto]
        bound = bound_trajectory(inflow, outflow, 0.25, ts)
        assert float((escape_run.xbars[1:upto] - bound).max()) <= 1e-3


    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite_times(self, bad):
        a = atoms([(1.0, 0.1)])
        with pytest.raises(InputError, match="finite and nonnegative"):
            bound_trajectory(a, a, 0.25, np.array([0.5, bad]))

    @pytest.mark.parametrize("times", [0.5, np.full((2, 3), 0.5)], ids=["scalar", "2-d"])
    def test_rejects_times_that_are_not_1d(self, times):
        a = atoms([(1.0, 0.1)])
        with pytest.raises(InputError, match="1-d array"):
            bound_trajectory(a, a, 0.25, times)


def dense_bound(inflow, outflow, xbar_star, ts):
    """The frozen-rate bound as one dense block over every sample time."""
    out = np.full(ts.shape, xbar_star)
    if inflow.qs.size:
        out -= np.exp(-ts[:, None] * inflow.qs[None, :]) @ inflow.ms
    if outflow.qs.size:
        out += np.exp(-ts[:, None] * outflow.qs[None, :]) @ outflow.ms
    return out


def drawn_sources(n_in, n_out):
    """Sources of the given atom counts, rates in the canonical cubic ranges."""
    rng = np.random.default_rng(n_in * 7919 + n_out)
    return (
        SwitchingRateDistribution(qs=rng.uniform(0.0, 0.18, n_in), ms=np.full(n_in, 0.25) / n_in),
        SwitchingRateDistribution(qs=rng.uniform(3.3, 14.5, n_out), ms=np.full(n_out, 0.25) / n_out),
    )


class TestBoundBlocks:
    """The time-blocked bound against the dense formula."""

    @pytest.fixture(scope="class")
    def sources(self, canon_game, canon_dist, cubic, reversed25):
        return flow_distributions(canon_game, canon_dist, cubic, reversed25, 0.25)

    # atom counts (inflow, outflow) and the blocks of rows they give at 2000
    # samples; None is the canonical pair of 1000-atom sources (62 x 32 + 16)
    @pytest.mark.parametrize("sizes", [
        None,
        (1, 0),       # one atom: one block of all 2000 rows
        (12, 20),     # tens of atoms: one block of all 2000 rows
        (36, 24),     # 1092 + 908
        (300, 2500),  # 100 x 20
        (1900, 500),  # 83 x 24 + 8
    ], ids=["canonical", "1+0", "12+20", "36+24", "300+2500", "1900+500"])
    def test_bit_identical_at_the_certificate_samples(self, sources, sizes):
        if sizes is not None:
            sources = drawn_sources(*sizes)
        ts = np.geomspace(1e-3, 50.0, 2000)  # what escape_certificate samples
        bound = bound_trajectory(*sources, 0.25, ts)
        assert bound.tobytes() == dense_bound(*sources, 0.25, ts).tobytes()

    @pytest.mark.parametrize("count", [1, 17, 5003])
    def test_ragged_sample_counts(self, sources, count):
        # a partial block sums its rows in a different BLAS order
        ts = np.geomspace(1e-3, 50.0, count)
        bound = bound_trajectory(*sources, 0.25, ts)
        assert np.abs(bound - dense_bound(*sources, 0.25, ts)).max() <= 1e-15

    def test_empty_sources(self, sources):
        inflow, outflow = sources
        empty = atoms([])
        ts = np.geomspace(1e-3, 50.0, 2000)
        for pair in ((empty, outflow), (inflow, empty), (empty, empty)):
            bound = bound_trajectory(*pair, 0.25, ts)
            assert bound.tobytes() == dense_bound(*pair, 0.25, ts).tobytes()
        assert bound_trajectory(inflow, outflow, 0.25, np.array([])).shape == (0,)


class TestEscapeCertificate:
    def test_reversed_certified_escape(self, canon_game, canon_dist, cubic, reversed25, escape_run):
        report = escape_certificate(canon_game, canon_dist, cubic, reversed25, 0.03)
        assert report.dominance == "O_dominates"
        assert report.crossing_time is not None
        # permanent escape: once the simulation falls below the certified
        # level it never comes back
        below = escape_run.xbars < 0.03
        first = int(np.argmax(below))
        assert below[first:].all()

    def test_sorted_equilibrium_never_crosses(self, canon_game, canon_dist, cubic, grid2000):
        x = sorted_composition(grid2000, 0.25)
        report = escape_certificate(canon_game, canon_dist, cubic, x, 0.03)
        assert report.crossing_time is None
        assert np.abs(report.bound - 0.25).max() <= 1e-12

    def test_standard_reversed_never_crosses(self, canon_game, canon_dist, standard, grid2000):
        from evodyn import reversed_composition

        rev = reversed_composition(grid2000, canon_dist, 0.25)
        report = escape_certificate(canon_game, canon_dist, standard, rev, 0.15)
        assert report.crossing_time is None

    def test_preconditions(self, canon_game, canon_dist, cubic, grid2000):
        not_eq = sorted_composition(grid2000, 0.3)
        with pytest.raises(InputError, match=r"is not an aggregate equilibrium \(fixed-point residual"):
            escape_certificate(canon_game, canon_dist, cubic, not_eq, 0.03)
        eq = sorted_composition(grid2000, 0.25)
        with pytest.raises(InputError, match="certified"):
            escape_certificate(canon_game, canon_dist, cubic, eq, 0.1)
        from evodyn import affine_game

        flat = affine_game(0.0, 0.7)
        flat_eq = sorted_composition(grid2000, float(np.sqrt(1.7) - 1.0))
        with pytest.raises(InputError, match="externality"):
            escape_certificate(flat, canon_dist, cubic, flat_eq, 0.03)

    @pytest.mark.parametrize("xbar_dagger", [0.0, -0.01, 0.3, 1.0])
    def test_rejects_dagger_outside_zero_to_equilibrium(
        self, canon_game, canon_dist, cubic, reversed25, xbar_dagger
    ):
        with pytest.raises(InputError, match="must lie strictly between 0 and the equilibrium"):
            escape_certificate(canon_game, canon_dist, cubic, reversed25, xbar_dagger)

    @pytest.mark.parametrize("t_end", [0.0, 5e-4, -1.0, float("nan")])
    def test_rejects_t_end_not_above_first_sample(
        self, canon_game, canon_dist, cubic, reversed25, t_end
    ):
        with pytest.raises(InputError, match="first bound sample"):
            escape_certificate(canon_game, canon_dist, cubic, reversed25, 0.03, t_end=t_end)

    @pytest.mark.parametrize("t_end", [50, 50.0, 7.5], ids=["int-50", "50.0", "7.5"])
    def test_sample_times_are_shared_read_only_geomspace(
        self, canon_game, canon_dist, cubic, reversed25, t_end
    ):
        first = escape_certificate(canon_game, canon_dist, cubic, reversed25, 0.03, t_end=t_end)
        again = escape_certificate(canon_game, canon_dist, cubic, reversed25, 0.03, t_end=t_end)
        assert first.times.tobytes() == np.geomspace(1e-3, t_end, 2000).tobytes()
        assert again.times is first.times
        assert not first.times.flags.writeable
        with pytest.raises(ValueError):
            first.times[0] = 0.0
        default = escape_certificate(canon_game, canon_dist, cubic, reversed25, 0.03)
        assert (default.times is first.times) == (t_end == 50)

    def test_runs_no_equilibrium_search(
        self, canon_game, canon_dist, cubic, reversed25, monkeypatch
    ):
        # the rate-ratio bound is a separate certificate that needs the
        # equilibrium set; the frozen-rate certificate needs neither
        import evodyn.flows

        def refuse(*args, **kwargs):
            raise AssertionError("escape_certificate must not call this")

        monkeypatch.setattr(evodyn.flows, "rate_ratio_escape_bound", refuse)
        monkeypatch.setattr(evodyn.flows, "find_aggregate_equilibria", refuse)
        report = escape_certificate(canon_game, canon_dist, cubic, reversed25, 0.03)
        assert report.crossing_time is not None
        assert not hasattr(report, "rate_ratio")

    def test_escape_converges_to_lower_equilibrium(self, escape_run):
        # exactly one stable equilibrium below the start: the trajectory ends there
        assert abs(escape_run.final_xbar - 0.0) <= 1e-3


class TestSymmetricDominance:
    def test_inflow_dominance_certified_and_realized(
        self, canon_game, canon_dist, cubic, inflow_dominant
    ):
        assert aggregate(inflow_dominant) == pytest.approx(0.25, abs=1e-12)
        inflow, outflow = flow_distributions(
            canon_game, canon_dist, cubic, inflow_dominant, 0.25
        )
        assert sosd_compare(outflow, inflow, mass_tol=2 / 2000) == "I_dominates"
        traj = integrate(canon_game, canon_dist, cubic, inflow_dominant, t_end=50.0, dt=0.01)
        assert traj.xbars[1:].min() > 0.25


class TestRateRatioBound:
    def test_canonical_numbers(self, canon_game, canon_dist, cubic):
        result = rate_ratio_escape_bound(canon_game, canon_dist, cubic)
        assert result.r == pytest.approx(27 / 512, abs=1e-15)
        expected = 0.25 * (1.0 - (1.0 - result.r) * result.r ** (result.r / (1.0 - result.r)))
        assert result.bound_value == pytest.approx(expected, abs=1e-15)
        assert result.bound_value == pytest.approx(0.0489655, abs=1e-6)
        assert result.max_certified_decrease == pytest.approx(
            (2.9 - np.sqrt(8.01)) / 2, abs=1e-12
        )
        assert result.holds is False

    def test_sharp_tempering_makes_bound_hold(self, canon_game, canon_dist):
        from evodyn import power_protocol

        # r = 0.375^k: sharp tempering collapses the bound value toward 0
        result = rate_ratio_escape_bound(canon_game, canon_dist, power_protocol(20))
        assert result.r < 1e-8
        assert result.bound_value < 1e-6
        assert result.holds is True

    def test_flat_tempering_pushes_bound_to_equilibrium(self, canon_game, canon_dist):
        from evodyn import power_protocol

        # nearly payoff-insensitive rates: r -> 1 and the guaranteed dip
        # shrinks to nothing, so the certified level is out of reach
        result = rate_ratio_escape_bound(canon_game, canon_dist, power_protocol(0.001))
        assert 0.99 < result.r < 1.0
        assert result.bound_value > 0.24
        assert result.holds is False

    def test_tempered_condition_matches_midpoint_form(self, canon_game, canon_dist, cubic):
        # for tempered protocols the prefix condition is F <= (inverse_cdf + theta_min)/2
        result = rate_ratio_escape_bound(canon_game, canon_dist, cubic)
        xs = np.arange(1e-4, 0.2, 1e-4)
        common = np.asarray(canon_game.payoff(xs))
        midpoint = 0.5 * (np.asarray(canon_dist.inverse_cdf(xs)) + 0.0)
        oracle = xs[: int(np.argmin(common <= midpoint))][-1] if not (common <= midpoint).all() else xs[-1]
        assert result.max_certified_decrease == pytest.approx(float(oracle), abs=2e-4)

    def test_prefix_level_is_first_certified_decrease_run(self, canon_game, canon_dist, cubic):
        # both read the one exact decrease set, which starts at the domain edge
        result = rate_ratio_escape_bound(canon_game, canon_dist, cubic)
        report = critical_mass_sets(canon_game, canon_dist, cubic)
        assert report.decrease_intervals[0] == (
            math.nextafter(0.0, 1.0), result.max_certified_decrease
        )

    def test_requires_coordination_shape(self, canon_dist, cubic):
        from evodyn import affine_game

        with pytest.raises(InputError, match="coordination shape"):
            rate_ratio_escape_bound(affine_game(0.0, 0.7), canon_dist, cubic)

    def test_requires_reversed_threshold_above_indifferent_type(self):
        # a shifted, concentrated type distribution puts the reversed
        # threshold below the indifferent type at the upper stable level
        game = linear_coordination_game(0.92)
        dist = TruncatedLogisticTypes(mu=-0.22, s=0.05)
        with pytest.raises(
            InputError,
            match="reversed threshold type -0.517402 must exceed the indifferent type 0.077402",
        ):
            rate_ratio_escape_bound(game, dist, bounded_power_protocol(3, 0.2))


CERTIFY_TIMES = np.geomspace(1e-3, 50.0, 2000)  # the samples escape_certificate takes


def grid_escape(game, dist, protocol, x0, xbar_dagger):
    """The escape report on grid atoms only: dominance and bound alike."""
    xbar_star = aggregate(x0)
    inflow, outflow = flow_distributions(game, dist, protocol, x0, xbar_star)
    bound = bound_trajectory(inflow, outflow, xbar_star, CERTIFY_TIMES)
    hit = (np.maximum.accumulate(bound) < xbar_star) & (bound < xbar_dagger)
    return (
        sosd_compare(outflow, inflow, mass_tol=2.0 / x0.grid.n),
        bound,
        float(CERTIFY_TIMES[int(np.argmax(hit))]) if hit.any() else None,
    )


def continuum_sources(game, dist, protocol, x0, nodes=evodyn.flows._QUADRATURE_NODES):
    """The continuum sources of ``x0`` behind its own gate, or None."""
    record = evodyn.flows._continuum_record(game, dist, protocol, x0)
    if record is None:
        return None
    return evodyn.flows._continuum_sources(game, dist, protocol, record, nodes)


def quadrature_bound(game, dist, protocol, x0, nodes=evodyn.flows._QUADRATURE_NODES):
    """The frozen-rate bound of ``x0``'s continuum sources, from the level
    its escape report starts at."""
    xbar_star = evodyn.flows.reference_level(game, dist, protocol, x0)
    sources = continuum_sources(game, dist, protocol, x0, nodes)
    assert sources is not None
    return bound_trajectory(*sources, xbar_star, CERTIFY_TIMES)


class TestQuadratureSources:
    """Gauss-Legendre atoms of the continuum sources, with the grid as oracle."""

    @staticmethod
    def grid_errors(canon_game, canon_dist, cubic, sizes):
        errors = []
        for n in sizes:
            x0 = reversed_composition(make_grid(canon_dist, n), canon_dist, 0.25)
            grid = grid_escape(canon_game, canon_dist, cubic, x0, 0.03)[1]
            errors.append(np.abs(grid - quadrature_bound(canon_game, canon_dist, cubic, x0)).max())
        return np.array(errors)

    def test_grid_bound_converges_at_second_order(self, canon_game, canon_dist, cubic):
        # the grid atoms are the midpoint rule of the same integrals: with
        # the cut on a cell boundary (0.25 n nodes) the error falls 4x per
        # doubling of n, 1.0e-8 at the n = 4000 of the certify benchmark
        errors = self.grid_errors(canon_game, canon_dist, cubic, (1000, 2000, 4000, 8000))
        assert 0.9e-8 <= errors[2] <= 1.1e-8
        assert np.all((3.8 <= errors[:-1] / errors[1:]) & (errors[:-1] / errors[1:] <= 4.2))

    def test_grid_bound_converges_at_first_order_on_a_split_cell(
        self, canon_game, canon_dist, cubic
    ):
        # 0.25 n = i + 1/4: the cell holding P(F) = 0.25 is all inflow or all
        # not, a mass error of order 1/n at a rate near 0
        errors = self.grid_errors(canon_game, canon_dist, cubic, (1001, 2001, 4001, 8001))
        assert np.all((1.9 <= errors[:-1] / errors[1:]) & (errors[:-1] / errors[1:] <= 2.1))

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(["affine", "logistic", "standard-affine", "standard-logistic"]),
        a=st.floats(2.3, 2.7),
        b=st.floats(-0.08, -0.03),
        c=st.floats(0.15, 0.85),
        s=st.floats(0.03, 0.08),
        k=st.sampled_from([2, 3, 4]),
        pisharp=st.floats(0.01, 0.2),
        level=st.floats(0.01, 0.99),
        reversed_=st.booleans(),
    )
    # the hardest interval found: the unsaturated inflow of a logistic game
    # next to the support end, where 112 nodes miss by 6e-13 and 128 by 4.8e-14
    @example(family="logistic", a=2.5, b=-0.05, c=0.365, s=0.03, k=3, pisharp=0.2,
             level=0.3, reversed_=True)
    def test_shipped_rule_matches_a_256_node_rule(
        self, family, a, b, c, s, k, pisharp, level, reversed_
    ):
        # the certify benchmark's families: affine games on sqrt-shift types
        # with power k in {2, 3, 4}, logistic coordination games with
        # bounded_power k in {2, 3}, and the standard protocol on either
        if family.endswith("logistic"):
            game, dist = linear_coordination_game(c), TruncatedLogisticTypes(0.0, s)
        else:
            game, dist = affine_game(a, b), SqrtShiftTypes()
        if family == "affine":
            protocol = power_protocol(k)
        elif family == "logistic":
            protocol = bounded_power_protocol(min(k, 3), pisharp)
        else:
            protocol = standard_protocol()
        grid = make_grid(dist, 4000)
        if reversed_:
            x0 = reversed_composition(grid, dist, level)
        else:
            x0 = sorted_composition(grid, level)
        shipped = quadrature_bound(game, dist, protocol, x0)
        reference = quadrature_bound(game, dist, protocol, x0, nodes=256)
        assert np.abs(shipped - reference).max() <= 1e-13


def test_quadrature_rule_is_not_imported_at_start():
    # numpy.polynomial costs milliseconds of every CLI start; only a
    # cut-off escape bound needs it
    code = "import sys, evodyn.cli; sys.exit('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(evodyn.flows.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestAtomRouting:
    """Which compositions the escape report takes off the grid, for its bound
    and its dominance verdict alike."""

    @pytest.mark.parametrize("n", [2000, 2001], ids=["cut-on-a-cell-boundary", "cut-splits-a-cell"])
    @pytest.mark.parametrize("shape", ["sorted", "reversed"])
    def test_cutoff_compositions_use_quadrature(self, canon_game, canon_dist, cubic, shape, n):
        grid = make_grid(canon_dist, n)
        x0 = (
            sorted_composition(grid, 0.25)
            if shape == "sorted"
            else reversed_composition(grid, canon_dist, 0.25)
        )
        report = escape_certificate(canon_game, canon_dist, cubic, x0, 0.03)
        dominance, grid_bound, _ = grid_escape(canon_game, canon_dist, cubic, x0, 0.03)
        bound = quadrature_bound(canon_game, canon_dist, cubic, x0)
        assert report.bound.tobytes() == bound.tobytes()
        assert report.dominance == dominance
        if shape == "reversed":
            # the grid error: second order on a cell boundary, first order
            # where the cut splits a cell
            assert 0.0 < np.abs(bound - grid_bound).max() <= (5e-8 if n == 2000 else 2e-4)

    def test_verdict_reads_the_sources_the_bound_sums(self):
        # the reversed composition at the upper stable equilibrium 0.9999233:
        # its cut (7.7e-5 in the quantile) lies inside the top grid cell, so
        # the grid outflow source is empty and the grid verdict incomparable,
        # while the continuum sources carry 7.67e-5 each
        game = linear_coordination_game(0.53)
        dist = TruncatedLogisticTypes(mu=0.0, s=0.05)
        protocol = bounded_power_protocol(3, 0.16)
        xbar_star = max(e.xbar for e in find_aggregate_equilibria(game, dist).stable)
        x0 = reversed_composition(make_grid(dist, 2000), dist, xbar_star)
        report = escape_certificate(game, dist, protocol, x0, 0.335)
        inflow, outflow = continuum_sources(game, dist, protocol, x0)
        assert report.bound.tobytes() == quadrature_bound(game, dist, protocol, x0).tobytes()
        assert outflow.total_mass == pytest.approx(7.67e-5, rel=1e-3)
        assert report.dominance == sosd_compare(outflow, inflow, mass_tol=1e-3) == "I_dominates"
        assert report.crossing_time is None
        _, grid_out = flow_distributions(game, dist, protocol, x0, aggregate(x0))
        assert grid_out.total_mass == 0.0
        assert grid_escape(game, dist, protocol, x0, 0.335)[0] == "incomparable"

    @pytest.mark.parametrize("n", [2000, 2001, 4000])
    @pytest.mark.parametrize("protocol", [standard_protocol(), bounded_power_protocol(2, 0.02)],
                             ids=["standard", "bounded-power"])
    @pytest.mark.parametrize("shape", ["sorted", "reversed"])
    def test_all_ones_start_at_the_corner_equilibrium(self, shape, protocol, n):
        # the grid aggregate of the all-ones start is 1 + a few ulps
        # (1.0000000000000007 at n = 2000); the report starts from the level
        # the start was built at, 1.  The indifferent type F(1) = 0.7 lies
        # above the support, so both sources are empty and the bound stays
        # at the equilibrium
        game = linear_coordination_game(0.3)
        dist = TruncatedLogisticTypes(0.0, 0.05)
        grid = make_grid(dist, n)
        x0 = (
            sorted_composition(grid, 1.0)
            if shape == "sorted"
            else reversed_composition(grid, dist, 1.0)
        )
        assert aggregate(x0) > 1.0
        assert evodyn.flows.reference_level(game, dist, protocol, x0) == 1.0
        levels = critical_mass_sets(game, dist, protocol).decrease_intervals
        xbar_dagger = max(hi for _, hi in levels if hi < 1.0)
        report = escape_certificate(game, dist, protocol, x0, xbar_dagger)
        inflow, outflow = continuum_sources(game, dist, protocol, x0)
        assert inflow.qs.size == outflow.qs.size == 0
        assert np.all(report.bound == 1.0)
        assert (report.dominance, report.crossing_time) == ("incomparable", None)

    @pytest.fixture(scope="class")
    def grid_compositions(self, canon_game, canon_dist, grid4000):
        srt = sorted_composition(grid4000, 0.25)
        rev = reversed_composition(grid4000, canon_dist, 0.25)
        shifted = TypeGrid(nodes=np.nextafter(grid4000.nodes, np.inf))
        two_fractional = srt.values.copy()  # a monotone step, same aggregate
        two_fractional[999:1001] = (0.6, 0.4)
        middle_band = np.zeros(grid4000.n)  # 0/1 but neither sorted nor reversed
        middle_band[1000:2000] = 1.0
        return {
            "perturbed": destabilizing_perturbation(srt, canon_game, canon_dist, 0.05, 0.5, 1e-5),
            "mixture": BayesianStrategy(grid=grid4000, values=0.5 * (srt.values + rev.values)),
            "random": random_composition(grid4000, 0.25, np.random.default_rng(5)),
            "two-fractional": BayesianStrategy(grid=grid4000, values=two_fractional),
            "other-grid": reversed_composition(shifted, canon_dist, 0.25),
            "middle-band": BayesianStrategy(grid=grid4000, values=middle_band),
            # a reversed step by its values, but built by hand: no record
            "hand-built-reversed": BayesianStrategy(grid=grid4000, values=rev.values),
        }

    @pytest.mark.parametrize(
        "name",
        ["perturbed", "mixture", "random", "two-fractional", "other-grid", "middle-band",
         "hand-built-reversed"],
    )
    def test_other_compositions_keep_grid_atoms(
        self, canon_game, canon_dist, cubic, grid_compositions, name
    ):
        x0 = grid_compositions[name]
        assert continuum_sources(canon_game, canon_dist, cubic, x0) is None
        report = escape_certificate(canon_game, canon_dist, cubic, x0, 0.03)
        dominance, bound, crossing = grid_escape(canon_game, canon_dist, cubic, x0, 0.03)
        assert report.times.tobytes() == CERTIFY_TIMES.tobytes()
        assert report.bound.tobytes() == bound.tobytes()
        assert (report.dominance, report.crossing_time) == (dominance, crossing)

    def test_only_a_grid_make_grid_built_reads_quadrature(self, canon_game, canon_dist, cubic):
        # the gate reads the distribution make_grid recorded on its grid, not
        # the nodes: a hand-built grid with equal nodes, a copy through
        # dataclasses.replace and a grid with one node moved by one ulp keep
        # the grid atoms, each at its grid aggregate
        built = make_grid(canon_dist, 1000)
        nudged_nodes = built.nodes.copy()
        nudged_nodes[500] = np.nextafter(nudged_nodes[500], np.inf)
        grids = {
            "make_grid": built,
            "hand-built": TypeGrid(nodes=built.nodes.copy()),
            "replaced": dataclasses.replace(built),
            "nudged": TypeGrid(nodes=nudged_nodes),
        }
        for name, grid in grids.items():
            x0 = reversed_composition(grid, canon_dist, 0.25)
            quadrature = name == "make_grid"
            sources = continuum_sources(canon_game, canon_dist, cubic, x0)
            assert (sources is not None) == quadrature, name
            report = escape_certificate(canon_game, canon_dist, cubic, x0, 0.03)
            if quadrature:
                want = quadrature_bound(canon_game, canon_dist, cubic, x0)
            else:
                want = grid_escape(canon_game, canon_dist, cubic, x0, 0.03)[1]
            assert report.bound.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("start", ["reversed", "balanced", "hand-built"])
    def test_escape_reads_the_gate_once(
        self, canon_game, canon_dist, cubic, grid2000, start, monkeypatch
    ):
        # the reference level and the sources share one reading of the gate
        reversed_ = reversed_composition(grid2000, canon_dist, 0.25)
        x0 = {
            "reversed": reversed_,
            "balanced": balanced_composition(grid2000, canon_dist, canon_game, 0.25, 0.2, 0.3),
            "hand-built": BayesianStrategy(grid=grid2000, values=reversed_.values),
        }[start]
        gate, calls = evodyn.flows._continuum_record, []

        def counting(*args):
            calls.append(args)
            return gate(*args)

        monkeypatch.setattr(evodyn.flows, "_continuum_record", counting)
        escape_certificate(canon_game, canon_dist, cubic, x0, 0.03)
        assert len(calls) == 1

    @pytest.mark.parametrize("protocol", [power_protocol(2.5), bounded_power_protocol(1.5, 0.3)],
                             ids=["power-2.5", "bounded-power-1.5"])
    def test_non_integer_exponent_keeps_grid_atoms(
        self, canon_game, canon_dist, reversed25, protocol
    ):
        # d^k is not smooth where the deficit vanishes, at an end of a source
        report = escape_certificate(canon_game, canon_dist, protocol, reversed25, 0.03)
        dominance, bound, crossing = grid_escape(canon_game, canon_dist, protocol, reversed25, 0.03)
        assert report.bound.tobytes() == bound.tobytes()
        assert (report.dominance, report.crossing_time) == (dominance, crossing)

    def test_constant_rate_intervals_get_one_atom(self, canon_game, canon_dist, reversed25):
        # the standard rate is 1 on both sources; bounded_power saturates
        # past pisharp, on the far interval of each source
        sources = continuum_sources(canon_game, canon_dist, standard_protocol(), reversed25)
        for src in sources:
            assert src.qs.tolist() == [1.0]
            assert src.ms.tolist() == [pytest.approx(0.25, abs=1e-15)]
        inflow, outflow = continuum_sources(
            canon_game, canon_dist, bounded_power_protocol(2, 0.3), reversed25
        )
        nodes = evodyn.flows._QUADRATURE_NODES
        assert (inflow.qs == 1.0).sum() == 1 and inflow.qs.size == nodes + 1
        assert outflow.qs.tolist() == [1.0]  # every leaver is past pisharp
        assert inflow.total_mass == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["affine", "logistic"]),
    a=st.floats(2.3, 2.7),
    b=st.floats(-0.08, -0.03),
    c=st.floats(0.15, 0.85),
    s=st.floats(0.03, 0.08),
    kind=st.sampled_from(["standard", "power", "bounded_power"]),
    k=st.integers(1, 4),
    pisharp=st.floats(0.01, 0.6),
    level=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    n=st.sampled_from([1000, 2001, 4000]),
    reversed_=st.booleans(),
)
def test_start_sources_read_a_cutoff_start_at_its_level(
    family, a, b, c, s, kind, k, pisharp, level, n, reversed_
):
    # a sorted or reversed start is read at the level it was built at, bit
    # for bit, and its sources' net mass is g(level) = P(F(level)) - level:
    # the continuum composition's, whatever the grid aggregate's rounding
    if family == "logistic":
        game, dist = linear_coordination_game(c), TruncatedLogisticTypes(0.0, s)
    else:
        game, dist = affine_game(a, b), SqrtShiftTypes()
    protocol = {
        "standard": standard_protocol(),
        "power": power_protocol(k),
        "bounded_power": bounded_power_protocol(k, pisharp),
    }[kind]
    grid = make_grid(dist, n)
    x0 = reversed_composition(grid, dist, level) if reversed_ else sorted_composition(grid, level)
    xbar_ref, inflow, outflow = start_sources(game, dist, protocol, x0)
    assert np.float64(xbar_ref).tobytes() == np.float64(level).tobytes()
    g = float(dist.cdf(game.payoff(level))) - level
    assert abs(inflow.total_mass - outflow.total_mass - g) <= 1e-15


@pytest.mark.parametrize("protocol", [power_protocol(3), power_protocol(2.5)],
                         ids=["integer-k", "fractional-k"])
@pytest.mark.parametrize("start", ["sorted", "reversed", "balanced", "custom"])
def test_reference_level_is_the_start_sources_level(canon_game, canon_dist, grid2000,
                                                    protocol, start):
    # the level alone, bit for bit the one start_sources reads with the
    # sources: the recorded level under an integer k, the grid aggregate
    # under a fractional k and for a start no constructor recorded
    x0 = {
        "sorted": lambda: sorted_composition(grid2000, 0.25),
        "reversed": lambda: reversed_composition(grid2000, canon_dist, 0.25),
        "balanced": lambda: balanced_composition(grid2000, canon_dist, canon_game, 0.25,
                                                 0.2, 0.3),
        "custom": lambda: random_composition(grid2000, 0.25, np.random.default_rng(5)),
    }[start]()
    level = evodyn.flows.reference_level(canon_game, canon_dist, protocol, x0)
    expected = start_sources(canon_game, canon_dist, protocol, x0)[0]
    assert np.float64(level).tobytes() == np.float64(expected).tobytes()
    recorded = x0.construction is not None and protocol.k == 3
    assert level == (0.25 if recorded else aggregate(x0))


@pytest.mark.parametrize("overrides, built", [
    ((), "_continuum_sources"),
    (("--override", "protocol.k=2.5"), "flow_distributions"),
], ids=["continuum-sources", "grid-atoms"])
def test_cli_escape_builds_the_start_sources_once(monkeypatch, tmp_path, overrides, built):
    builds = []
    for name in ("_continuum_sources", "flow_distributions"):
        def counting(*args, _inner=getattr(evodyn.flows, name), _name=name):
            builds.append(_name)
            return _inner(*args)

        monkeypatch.setattr(evodyn.flows, name, counting)
    config = Path(__file__).parents[1] / "configs" / "entry_sqrt.ini"
    assert main(["escape", "--config", str(config), "--out", str(tmp_path / "out"),
                 *overrides]) == 0
    assert builds == [built]


def balanced_decay(game, dist, protocol, x0, nodes=evodyn.flows._QUADRATURE_NODES):
    """The frozen-rate mass left of one balanced source at the certificate
    samples, less its total mass: the sum the bound takes of each source."""
    sources = continuum_sources(game, dist, protocol, x0, nodes)
    assert sources is not None
    empty = SwitchingRateDistribution(qs=np.empty(0), ms=np.empty(0))
    return bound_trajectory(sources[0], empty, 0.0, CERTIFY_TIMES)


class TestBalancedQuadrature:
    """A balanced start's sources read off the continuum composition it was
    built from, at the equilibrium it was built at."""

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(0.01, 0.65),
        pimax=st.floats(0.01, 0.56),
        kind=st.sampled_from(["standard", "power", "bounded_power"]),
        k=st.integers(1, 4),
        pisharp=st.floats(0.01, 0.6),
    )
    def test_shipped_rule_matches_a_256_node_rule(
        self, canon_game, canon_dist, kappa, pimax, kind, k, pisharp
    ):
        # every pimax up to the distance from t* = 0.5625 to the support end
        # 0; kappa at most 1 / 1.46, the largest density ratio there
        protocol = {
            "standard": standard_protocol(),
            "power": power_protocol(k),
            "bounded_power": bounded_power_protocol(k, pisharp),
        }[kind]
        grid = make_grid(canon_dist, 1000)
        x0 = balanced_composition(grid, canon_dist, canon_game, 0.25, kappa, pimax)
        shipped = balanced_decay(canon_game, canon_dist, protocol, x0)
        reference = balanced_decay(canon_game, canon_dist, protocol, x0, nodes=256)
        assert np.abs(shipped - reference).max() <= 1e-13

    @pytest.mark.parametrize("kappa, pimax", [(0.2, 0.3), (0.5, 0.3), (0.3, 0.5), (0.7, 0.2)])
    def test_grid_bound_approaches_it_at_first_order(
        self, canon_game, canon_dist, cubic, kappa, pimax
    ):
        # the band edges split grid cells, so the grid error is first order
        # and not monotone in n: n times it stays within 1.1 over n = 1000
        # to 64000 on these starts
        errors = []
        for n in (2000, 8000, 32000):
            x0 = balanced_composition(make_grid(canon_dist, n), canon_dist, canon_game,
                                      0.25, kappa, pimax)
            grid = grid_escape(canon_game, canon_dist, cubic, x0, 0.03)[1]
            report = escape_certificate(canon_game, canon_dist, cubic, x0, 0.03)
            errors.append(n * np.abs(grid - report.bound).max())
        assert 0.0 < max(errors) <= 1.5

    @pytest.mark.parametrize("protocol", [power_protocol(3), standard_protocol(),
                                          bounded_power_protocol(2, 0.1)],
                             ids=["cubic", "standard", "bounded-power"])
    def test_sources_balance_and_the_bound_stays_at_the_equilibrium(
        self, canon_game, canon_dist, grid2000, protocol
    ):
        # n = 2000 puts the grid aggregate 7.9e-5 from 0.25: a fixed-point
        # residual of 1.6e-6, which a start reading its own aggregate fails
        x0 = balanced_composition(grid2000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        assert abs(aggregate(x0) - 0.25) > 7e-5
        assert evodyn.flows.reference_level(canon_game, canon_dist, protocol, x0) == 0.25
        report = escape_certificate(canon_game, canon_dist, protocol, x0, 0.03)
        inflow, outflow = continuum_sources(canon_game, canon_dist, protocol, x0)
        # the reflection about t* maps the outflow band onto the inflow band
        assert outflow is inflow
        assert detailed_balance_residual(inflow, outflow) == 0.0
        assert np.all(report.bound == 0.25)
        assert (report.dominance, report.crossing_time) == ("incomparable", None)

    def test_constant_rate_piece_gets_the_integral_of_its_share(
        self, canon_game, canon_dist, grid2000
    ):
        # under the standard rate the band is one atom; its mass is kappa
        # times the band's length in the quantile, not the length itself
        x0 = balanced_composition(grid2000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        inflow, _ = continuum_sources(canon_game, canon_dist, standard_protocol(), x0)
        t_star = canon_game.payoff(0.25)
        u_lo, u_star = canon_dist.cdf(t_star - 0.3), canon_dist.cdf(t_star)
        assert inflow.qs.tolist() == [1.0]
        assert inflow.ms.tolist() == [0.2 * (u_star - u_lo)]
        # bounded_power saturates past pisharp = 0.1: one more piece, one atom
        inflow, _ = continuum_sources(canon_game, canon_dist, bounded_power_protocol(2, 0.1), x0)
        assert inflow.qs.size == evodyn.flows._QUADRATURE_NODES + 1
        assert (inflow.qs == 1.0).sum() == 1
        assert inflow.total_mass == pytest.approx(0.2 * (u_star - u_lo), abs=1e-16)

    def test_other_starts_keep_grid_atoms(self, canon_game, canon_dist, cubic, grid4000):
        balanced = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        # the same t* = 0.5625, so the same values, but another game's record
        other_game = balanced_composition(grid4000, canon_dist, affine_game(2.25, 0.0),
                                          0.25, 0.2, 0.3)
        shifted = TypeGrid(nodes=np.nextafter(grid4000.nodes, np.inf))
        starts = {
            "record-mismatch": (other_game, cubic),
            "non-integer-k": (balanced, power_protocol(2.5)),
            "shifted-grid": (balanced_composition(shifted, canon_dist, canon_game, 0.25, 0.2,
                                                  0.3), cubic),
            "perturbed": (destabilizing_perturbation(balanced, canon_game, canon_dist, e=0.0,
                                                     w=0.0, eps=1e-6, variant="uniform"), cubic),
        }
        assert other_game.construction is not None
        # an equal distribution built apart is the same record's
        assert evodyn.flows._continuum_record(canon_game, SqrtShiftTypes(), cubic,
                                              balanced) is not None
        for name, (x0, protocol) in starts.items():
            assert continuum_sources(canon_game, canon_dist, protocol, x0) is None
            # the grid atoms describe the grid aggregate, so the report
            # starts from it, as for any other composition
            xbar_star = aggregate(x0)
            assert evodyn.flows.reference_level(canon_game, canon_dist, protocol,
                                                x0) == xbar_star, name
            report = escape_certificate(canon_game, canon_dist, protocol, x0, 0.03)
            inflow, outflow = flow_distributions(canon_game, canon_dist, protocol, x0, xbar_star)
            bound = bound_trajectory(inflow, outflow, xbar_star, CERTIFY_TIMES)
            assert report.bound.tobytes() == bound.tobytes(), name
            assert report.dominance == sosd_compare(outflow, inflow, mass_tol=2.0 / 4000), name

    def test_record_is_kept_out_of_equality_and_repr(self, canon_game, canon_dist, grid4000):
        balanced = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.2, 0.3)
        assert balanced.construction == BalancedRecord(
            canon_game, canon_dist, 0.25, 0.2, 0.3
        )
        assert balanced.construction.xbar == 0.25
        assert "construction" not in repr(balanced)
        plain = BayesianStrategy(grid=grid4000, values=balanced.values)
        assert plain.construction is None
        assert dataclasses.replace(balanced, values=balanced.values).construction is None
        srt = sorted_composition(grid4000, 0.25)
        assert srt.construction == Cutoff(False, 0.25)
        assert reversed_composition(grid4000, canon_dist, 0.25).construction == Cutoff(True, 0.25)
        assert BayesianStrategy(grid=grid4000, values=srt.values).construction is None
        assert dataclasses.replace(srt, values=srt.values).construction is None
        # kappa = 0 is the sorted composition, which the cut-off route reads
        zero = balanced_composition(grid4000, canon_dist, canon_game, 0.25, 0.0, 0.3)
        assert zero.construction == Cutoff(False, 0.25)

