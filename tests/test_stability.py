"""Critical-mass certificates, distributional basins, thresholds, selection.

Closed-form oracles for the canonical game:

* cut-off deficit: inverse_cdf(x) - F(x) = (20 x^2 - 9 x + 1)/20;
* the cubic-tempering decrease condition reduces to inverse_cdf >= 2 F,
  i.e. 10 x^2 - 29 x + 1 >= 0, so the certified set below the first interior
  equilibrium is (0, (2.9 - sqrt(8.01))/2].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evodyn import (
    AnalysisError,
    InputError,
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    affine_game,
    bounded_power_protocol,
    critical_mass_sets,
    find_aggregate_equilibria,
    integrate,
    is_critical_mass_decrease,
    is_critical_mass_increase,
    linear_coordination_game,
    power_protocol,
    risk_dominant_action,
    robustness_threshold,
    select_most_robust,
    sorted_composition,
    vector_field,
)
from evodyn.stability import _certify, _merge_runs
from tests.conftest import random_composition

XC = (2.9 - np.sqrt(8.01)) / 2  # ~ 0.0349028


def grid_sup_membership(game, dist, protocol, xbar, direction, npts=2001):
    """Brute-force oracle for the rate-comparison branch: sup over a theta grid."""
    lo, hi = dist.support
    common = game.payoff(xbar)
    cutoff = float(dist.inverse_cdf(xbar))
    if direction == "decrease":
        if not cutoff > common:
            return False
        if xbar == 1.0 or float(dist.cdf(common)) == 0.0:
            return True
        thetas = np.linspace(lo, common, npts)[:-1]
        return float(protocol.rate(cutoff - common)) >= float(
            protocol.rate(common - thetas).max()
        )
    if not cutoff < common:
        return False
    if xbar == 0.0 or float(dist.cdf(common)) == 1.0:
        return True
    thetas = np.linspace(common, hi, npts)[1:]
    return float(protocol.rate(common - cutoff)) >= float(
        protocol.rate(thetas - common).max()
    )


class TestDecreaseCertificates:
    def test_clamped_branch(self, canon_game, canon_dist, cubic):
        # F(0.02) = -0.001 sits below the support: certified without rates
        ok, cert = is_critical_mass_decrease(canon_game, canon_dist, cubic, 0.02)
        assert ok and cert.branch == "clamped_cdf"

    def test_rate_branch_inside(self, canon_game, canon_dist, cubic):
        ok, cert = is_critical_mass_decrease(canon_game, canon_dist, cubic, 0.03)
        assert ok and cert.branch == "rate_comparison"
        assert cert.rate_lhs == pytest.approx((0.0609 - 0.0235) ** 3, rel=1e-9)
        assert cert.rate_rhs == pytest.approx(0.0235**3, rel=1e-9)
        assert cert.rate_lhs >= cert.rate_rhs

    def test_rate_branch_beyond_root(self, canon_game, canon_dist, cubic):
        ok, cert = is_critical_mass_decrease(canon_game, canon_dist, cubic, 0.04)
        assert not ok and cert.rate_lhs < cert.rate_rhs

    def test_standard_protocol_certifies_under_condition_a(
        self, canon_game, canon_dist, standard
    ):
        ok, cert = is_critical_mass_decrease(canon_game, canon_dist, standard, 0.15)
        assert ok and cert.rate_lhs == cert.rate_rhs == 1.0

    def test_corner_level_one(self, canon_game, canon_dist, cubic):
        ok, cert = is_critical_mass_decrease(canon_game, canon_dist, cubic, 1.0)
        assert ok and cert.branch == "corner"

    def test_domain_validation(self, canon_game, canon_dist, cubic):
        with pytest.raises(InputError):
            is_critical_mass_decrease(canon_game, canon_dist, cubic, 0.0)

    def test_increase_refuses_level_one(self, canon_game, canon_dist, cubic):
        with pytest.raises(InputError, match=r"increase level xbar=1.0 must lie in \[0, 1\)"):
            is_critical_mass_increase(canon_game, canon_dist, cubic, 1.0)

    @pytest.mark.parametrize("xbar", [0.01, 0.03, 0.0349, 0.04, 0.1, 0.15, 0.22, 0.3, 0.9, 1.0])
    def test_matches_grid_sup_oracle(self, canon_game, canon_dist, cubic, standard, xbar):
        for proto in (cubic, standard):
            ok, _ = is_critical_mass_decrease(canon_game, canon_dist, proto, xbar)
            assert ok == grid_sup_membership(canon_game, canon_dist, proto, xbar, "decrease")


class TestIncreaseCertificates:
    def test_cubic_fails_in_upper_basin(self, canon_game, canon_dist, cubic):
        # cut-off deficit at 0.225 is 1/1600, dwarfed by the top type's exit gain
        ok, cert = is_critical_mass_increase(canon_game, canon_dist, cubic, 0.225)
        assert not ok
        assert cert.rate_lhs == pytest.approx((1 / 1600) ** 3, rel=1e-6)
        assert cert.rate_rhs == pytest.approx((3 - canon_game.payoff(0.225)) ** 3, rel=1e-9)

    def test_standard_certifies_wherever_cutoff_prefers_in(
        self, canon_game, canon_dist, standard
    ):
        for xbar in (0.21, 0.225, 0.24):
            ok, _ = is_critical_mass_increase(canon_game, canon_dist, standard, xbar)
            assert ok

    def test_condition_a_fails_at_zero(self, canon_game, canon_dist, cubic):
        ok, cert = is_critical_mass_increase(canon_game, canon_dist, cubic, 0.0)
        assert not ok and "prefer I" in cert.reason

    @pytest.mark.parametrize("xbar", [0.0, 0.1, 0.21, 0.225, 0.24, 0.5, 0.99])
    def test_matches_grid_sup_oracle(self, canon_game, canon_dist, cubic, standard, xbar):
        for proto in (cubic, standard):
            ok, _ = is_critical_mass_increase(canon_game, canon_dist, proto, xbar)
            assert ok == grid_sup_membership(canon_game, canon_dist, proto, xbar, "increase")


tempered_protocols = st.one_of(
    st.builds(power_protocol, st.sampled_from([1, 2, 3, 6]) | st.floats(0.3, 8.0)),
    st.builds(
        bounded_power_protocol,
        st.sampled_from([1, 2, 3]) | st.floats(0.3, 8.0),
        st.floats(0.005, 1.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.2, 5.0),
    b=st.floats(-1.5, 1.0),
    protocol=tempered_protocols
    | st.builds(power_protocol, st.floats(1.5, 4.5).filter(lambda k: k != int(k))),
)
def test_certificate_scan_matches_grid_sup_oracle(a, b, protocol):
    game, dist = affine_game(a, b), SqrtShiftTypes()
    levels = np.linspace(0.0, 1.0, 101)
    single = {"decrease": is_critical_mass_decrease, "increase": is_critical_mass_increase}
    for direction, xs in (("decrease", levels[1:]), ("increase", levels[:-1])):
        scan = _certify(game, dist, protocol, xs, direction)
        oracle = [grid_sup_membership(game, dist, protocol, float(x), direction) for x in xs]
        assert scan.member.tolist() == oracle
        # a single-level check evaluates the scan's rates to the bit
        for i, x in enumerate(xs):
            ok, cert = single[direction](game, dist, protocol, float(x))
            assert ok == scan.member[i]
            if cert.branch == "rate_comparison":
                assert (cert.rate_lhs, cert.rate_rhs) == (scan.rate_lhs[i], scan.rate_rhs[i])


def merge_runs_loop(xs, member):
    """Oracle: maximal member runs found by walking the levels one by one."""
    intervals = []
    start = None
    for x, ok in zip(xs, member):
        if ok and start is None:
            start = x
        elif not ok and start is not None:
            intervals.append((float(start), float(prev)))
            start = None
        prev = x
    if start is not None:
        intervals.append((float(start), float(xs[-1])))
    return tuple(intervals)


@settings(max_examples=300, deadline=None)
@given(member=st.lists(st.booleans(), max_size=60), lo=st.floats(0.0, 0.5))
def test_merge_runs_matches_level_walk(member, lo):
    member = np.array(member, dtype=bool)
    xs = np.linspace(lo, 1.0, member.size)
    runs = _merge_runs(xs, member)
    assert runs == merge_runs_loop(xs, member)
    assert all(type(v) is float for run in runs for v in run)


class TestBoundedTempering:
    def test_membership_reduces_to_deficit_threshold(self, canon_game, canon_dist):
        # cut-off deficit (20 x^2 - 9 x + 1)/20: 0.03 at x=0.05, 0.005 at x=0.15
        for k in (2, 3):
            proto = bounded_power_protocol(k, pisharp=0.01)
            ok_lo, _ = is_critical_mass_decrease(canon_game, canon_dist, proto, 0.05)
            ok_hi, _ = is_critical_mass_decrease(canon_game, canon_dist, proto, 0.15)
            assert ok_lo and not ok_hi


class TestCriticalMassSets:
    def test_standard_sets_cover_homogenized_signs(self, canon_game, canon_dist, standard):
        report = critical_mass_sets(canon_game, canon_dist, standard)
        (d_lo, d_hi), *rest = report.decrease_intervals
        res = report.resolution
        assert d_lo == pytest.approx(0.001, abs=1e-12)
        # the certified stretch reaches the equilibrium boundary within one
        # grid step (float dust decides whether the boundary point itself is in)
        assert 0.2 - res - 1e-12 <= d_hi <= 0.2 + 1e-12
        (i_lo, i_hi), *_ = report.increase_intervals
        assert 0.2 - 1e-12 <= i_lo <= 0.2 + res + 1e-12
        assert 0.25 - res - 1e-12 <= i_hi <= 0.25 + 1e-12
        # constant rates: every level off the fixed-point curve is critical,
        # matching the homogenized field's composition-independent sign
        assert rest  # the (0.25, 1] stretch is certified too

    def test_cubic_decrease_interval_matches_closed_form(
        self, canon_game, canon_dist, cubic
    ):
        report = critical_mass_sets(canon_game, canon_dist, cubic)
        (lo, hi), *_ = report.decrease_intervals
        assert lo == pytest.approx(0.001, abs=1e-12)
        assert hi == pytest.approx(XC, abs=report.resolution)
        assert report.increase_intervals == ()

    def test_cubic_basin_for_corner(self, canon_game, canon_dist, cubic):
        report = critical_mass_sets(canon_game, canon_dist, cubic)
        assert len(report.basins) == 1
        basin = report.basins[0]
        assert basin.xbar_star == pytest.approx(0.0, abs=1e-9)
        assert basin.lo == 0.0
        assert basin.hi == pytest.approx(XC, abs=report.resolution)

    def test_standard_basins_bracket_both_stable_equilibria(
        self, canon_game, canon_dist, standard
    ):
        report = critical_mass_sets(canon_game, canon_dist, standard)
        stars = sorted(b.xbar_star for b in report.basins)
        assert stars == pytest.approx([0.0, 0.25], abs=1e-9)
        for basin in report.basins:
            inside = [
                e.xbar
                for e in find_aggregate_equilibria(canon_game, canon_dist).equilibria
                if basin.lo <= e.xbar <= basin.hi
            ]
            assert inside == [pytest.approx(basin.xbar_star, abs=1e-9)]

    def test_constant_rates_certify_everywhere_off_the_curve(
        self, canon_game, canon_dist, standard
    ):
        # with constant switching rates the homogenized field's sign is
        # composition-independent, so every level where the cut-off type is
        # not indifferent is critical in the matching direction
        xs = np.linspace(0.003, 0.997, 199)
        cut = np.asarray(canon_dist.inverse_cdf(xs))
        common = np.asarray(canon_game.payoff(xs))
        for x, c, f in zip(xs, cut, common):
            if abs(c - f) <= 1e-9:
                continue
            if c > f:
                ok, _ = is_critical_mass_decrease(canon_game, canon_dist, standard, float(x))
            else:
                ok, _ = is_critical_mass_increase(canon_game, canon_dist, standard, float(x))
            assert ok

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, float("nan"), 2.0])
    def test_rejects_resolution_out_of_range(self, canon_game, canon_dist, cubic, resolution):
        with pytest.raises(InputError, match="out of range"):
            critical_mass_sets(canon_game, canon_dist, cubic, resolution=resolution)

    def test_condition_a_necessary(self, canon_game, canon_dist, cubic, standard):
        # no certified decrease level where the cut-off type weakly prefers I
        for proto in (cubic, standard):
            report = critical_mass_sets(canon_game, canon_dist, proto)
            for lo, hi in report.decrease_intervals:
                count = int(round((hi - lo) / report.resolution)) + 1
                xs = np.linspace(lo, hi, count)
                cut = np.asarray(canon_dist.inverse_cdf(xs))
                assert np.all(cut > np.asarray(canon_game.payoff(xs)))


class TestCertificateSoundness:
    def test_sorted_composition_maximizes_velocity(
        self, canon_game, canon_dist, cubic, grid2000
    ):
        # at a certified decrease level every composition's aggregate velocity
        # is at most the sorted one's, and that is negative
        rng = np.random.default_rng(41)
        for xbar in (0.02, 0.03, 0.034):
            srt = sorted_composition(grid2000, xbar)
            v_sorted = float(
                np.dot(grid2000.weights, vector_field(canon_game, canon_dist, cubic, srt))
            )
            assert v_sorted < 0.0
            for _ in range(50):
                x = random_composition(grid2000, xbar, rng)
                v = float(
                    np.dot(grid2000.weights, vector_field(canon_game, canon_dist, cubic, x))
                )
                assert v <= v_sorted + 1e-12

    def test_absorption_below_certified_level(self, canon_game, canon_dist, cubic, grid2000):
        ok, _ = is_critical_mass_decrease(canon_game, canon_dist, cubic, 0.03)
        assert ok
        rng = np.random.default_rng(43)
        starts = [
            random_composition(grid2000, 0.03, rng),
            random_composition(grid2000, 0.03, rng),
            sorted_composition(grid2000, 0.03),
        ]
        for x0 in starts:
            traj = integrate(canon_game, canon_dist, cubic, x0, t_end=50.0, dt=0.01)
            assert traj.xbars.max() <= 0.03 + 1e-6


class TestRobustnessThresholds:
    def test_upper_equilibrium_threshold(self, canon_game, canon_dist):
        entry = robustness_threshold(canon_game, canon_dist, 0.25)
        assert entry.threshold_left == pytest.approx(1 / 1600, abs=1e-9)
        assert entry.attained_left == pytest.approx(0.225, abs=1e-4)
        assert entry.threshold_right == pytest.approx(0.6, abs=1e-6)
        assert entry.overall == pytest.approx(1 / 1600, abs=1e-9)

    def test_corner_threshold_is_one_sided(self, canon_game, canon_dist):
        entry = robustness_threshold(canon_game, canon_dist, 0.0)
        assert entry.threshold_left is None
        assert entry.threshold_right == pytest.approx(0.05, abs=1e-6)
        assert entry.overall == pytest.approx(0.05, abs=1e-6)

    def test_rejects_unstable_input(self, canon_game, canon_dist):
        with pytest.raises(InputError):
            robustness_threshold(canon_game, canon_dist, 0.2)

    def test_rejects_level_that_is_not_an_equilibrium(self, canon_game, canon_dist):
        with pytest.raises(InputError, match="not a reported equilibrium"):
            robustness_threshold(canon_game, canon_dist, 0.1)

    def test_flat_game_threshold_positive(self):
        # F constant below the support: O strictly optimal everywhere, and the
        # corner keeps a positive basin-wide deficit
        game = affine_game(0.0, -0.4)
        dist = TruncatedLogisticTypes(mu=0.0, s=0.05, tau=0.3)
        entry = robustness_threshold(game, dist, 0.0)
        assert entry.overall > 0.0


class TestSelection:
    def test_canonical_selection(self, canon_game, canon_dist):
        report = select_most_robust(canon_game, canon_dist)
        assert report.selected == pytest.approx(0.0, abs=1e-9)
        assert not report.tie

    def test_single_equilibrium_selected(self):
        from evodyn import UniformTypes

        report = select_most_robust(affine_game(0.0, 0.7), UniformTypes(0.0, 1.0))
        assert report.selected == pytest.approx(0.7, abs=1e-9)

    def test_identity_map_has_nothing_to_select(self):
        from evodyn import UniformTypes

        # g = 0 on all of [0, 1]: every root is semistable
        with pytest.raises(AnalysisError, match="no stable aggregate equilibrium"):
            select_most_robust(affine_game(1.0, 0.0), UniformTypes(0.0, 1.0))

    def test_coordination_selects_risk_dominant_branch(self):
        game = linear_coordination_game(0.3)
        dist = TruncatedLogisticTypes(mu=0.0, s=0.05)
        report = select_most_robust(game, dist)
        # c < 1/2: the selected equilibrium sits on the high-participation
        # branch (shifted from full participation by the heterogeneity)
        assert report.selected == max(e.xbar_star for e in report.entries)
        assert report.selected > 0.9

    def test_symmetric_cost_ties(self):
        game = linear_coordination_game(0.5)
        dist = TruncatedLogisticTypes(mu=0.0, s=0.05)
        report = select_most_robust(game, dist)
        assert report.tie and report.selected is None

    def test_surviving_set_monotone_in_pisharp(self, canon_game, canon_dist):
        report = select_most_robust(canon_game, canon_dist)
        levels = np.linspace(0.0, 0.1, 41)
        sizes = [len(report.surviving(p)) for p in levels]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert report.surviving(1e-4) == (0.0, 0.25)
        assert report.surviving(0.01) == (0.0,)


def test_risk_dominance():
    assert risk_dominant_action(0.3) == "I"
    assert risk_dominant_action(0.7) == "O"
    with pytest.raises(InputError):
        risk_dominant_action(0.5)
    with pytest.raises(InputError):
        risk_dominant_action(1.2)
