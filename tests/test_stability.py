"""Critical-mass certificates, distributional basins, thresholds, selection.

Closed-form oracles for the canonical game:

* cut-off deficit: inverse_cdf(x) - F(x) = (20 x^2 - 9 x + 1)/20;
* the cubic-tempering decrease condition reduces to inverse_cdf >= 2 F,
  i.e. 10 x^2 - 29 x + 1 >= 0, so the certified set below the first interior
  equilibrium is (0, (2.9 - sqrt(8.01))/2].
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evodyn import (
    AnalysisError,
    InputError,
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    UniformTypes,
    affine_game,
    aggregate_best_response,
    bounded_power_protocol,
    critical_mass_sets,
    escape_certificate,
    find_aggregate_equilibria,
    integrate,
    is_critical_mass_decrease,
    is_critical_mass_increase,
    linear_coordination_game,
    make_grid,
    power_protocol,
    reversed_composition,
    risk_dominant_action,
    robustness_threshold,
    select_most_robust,
    sorted_composition,
    standard_protocol,
    vector_field,
)
from evodyn import stability
from evodyn.stability import _certify, _cutoff_deficit
from tests.conftest import CANON_A, CANON_B, random_composition

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
    for row, (direction, xs) in enumerate((("decrease", levels[1:]), ("increase", levels[:-1]))):
        member = _certify(game, dist, protocol, xs)[0][row]
        oracle = [grid_sup_membership(game, dist, protocol, float(x), direction) for x in xs]
        assert member.tolist() == oracle
        # a single-level check decides as the scan does
        for i, x in enumerate(xs):
            assert single[direction](game, dist, protocol, float(x))[0] == member[i]


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
        # constant rates: every level off the fixed-point curve is critical,
        # matching the homogenized field's composition-independent sign, so
        # the sets end at the equilibria 0.2 and 0.25 (to 1e-12) and at the
        # domain ends
        report = critical_mass_sets(canon_game, canon_dist, standard)
        (d_lo, d_hi), (e_lo, e_hi) = report.decrease_intervals
        assert d_lo == math.nextafter(0.0, 1.0) and e_hi == 1.0
        assert d_hi == pytest.approx(0.2, abs=1e-12)
        assert e_lo == pytest.approx(0.25, abs=1e-12)
        ((i_lo, i_hi),) = report.increase_intervals
        assert i_lo == pytest.approx(0.2, abs=1e-12)
        assert i_hi == pytest.approx(0.25, abs=1e-12)

    def test_cubic_decrease_interval_matches_closed_form(
        self, canon_game, canon_dist, cubic
    ):
        report = critical_mass_sets(canon_game, canon_dist, cubic)
        assert report.decrease_intervals[1:] == ((1.0, 1.0),)
        (lo, hi), _ = report.decrease_intervals
        assert lo == math.nextafter(0.0, 1.0)
        assert hi == pytest.approx(XC, abs=1e-12)
        assert report.increase_intervals == ()

    def test_run_inside_one_scan_cell_is_found(self, canon_dist, standard):
        # under the standard protocol the increase set is the stretch between
        # the two interior equilibria, here (0.3, 0.3005): narrower than a
        # scan cell of 1/1024 and holding no scan level, it shows only as a
        # discrete extremum of the certificate's gap, and as a hole in the
        # decrease set
        game = affine_game(2.6005, -0.3 * 0.3005)
        disc = math.sqrt((game.slope - 2.0) ** 2 + 4.0 * game.intercept)
        r1, r2 = (game.slope - 2.0 - disc) / 2.0, (game.slope - 2.0 + disc) / 2.0
        report = critical_mass_sets(game, canon_dist, standard)
        ((lo, hi),) = report.increase_intervals
        assert lo == pytest.approx(r1, abs=1e-12) and hi == pytest.approx(r2, abs=1e-12)
        (_, d_hi), (e_lo, _) = report.decrease_intervals
        assert d_hi == pytest.approx(r1, abs=1e-12) and e_lo == pytest.approx(r2, abs=1e-12)

    def test_cubic_basin_for_corner(self, canon_game, canon_dist, cubic):
        report = critical_mass_sets(canon_game, canon_dist, cubic)
        assert len(report.basins) == 1
        basin = report.basins[0]
        assert basin.xbar_star == pytest.approx(0.0, abs=1e-9)
        assert basin.lo == 0.0
        assert basin.hi == pytest.approx(XC, abs=1e-12)

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

    def test_condition_a_necessary(self, canon_game, canon_dist, cubic, standard):
        # no certified decrease level where the cut-off type weakly prefers I
        for proto in (cubic, standard):
            report = critical_mass_sets(canon_game, canon_dist, proto)
            for lo, hi in report.decrease_intervals:
                xs = np.linspace(lo, hi, 1001)
                cut = np.asarray(canon_dist.inverse_cdf(xs))
                assert np.all(cut > np.asarray(canon_game.payoff(xs)))


coordination_games = st.one_of(
    st.builds(lambda a, b: (affine_game(a, b), SqrtShiftTypes()),
              st.floats(2.3, 2.7), st.floats(-0.08, -0.03)),
    st.builds(lambda c, s: (linear_coordination_game(c), TruncatedLogisticTypes(0.0, s)),
              st.floats(0.15, 0.85), st.floats(0.03, 0.08)),
)
every_protocol = st.one_of(
    st.just(standard_protocol()),
    st.builds(power_protocol, st.sampled_from([2, 3, 4]) | st.floats(0.5, 4.5)),
    st.builds(bounded_power_protocol, st.sampled_from([2, 3]) | st.floats(0.5, 4.5),
              st.floats(0.01, 0.2)),
)
PUBLIC_TEST = {"decrease": is_critical_mass_decrease, "increase": is_critical_mass_increase}


@settings(max_examples=150, deadline=None)
@given(case=coordination_games, protocol=every_protocol)
@example(case=(affine_game(2.45, -0.05), SqrtShiftTypes()), protocol=power_protocol(2.5))
@example(case=(linear_coordination_game(0.3), TruncatedLogisticTypes(0.0, 0.05)),
         protocol=bounded_power_protocol(2.5, 0.1))
@example(case=(affine_game(2.5, -0.03), SqrtShiftTypes()),
         protocol=bounded_power_protocol(2, 0.01))
def test_exact_sets_hold_every_scanned_member(case, protocol):
    """The scan is the oracle.  Every reported end passes the public test, and
    every end inside (0, 1) has a level within 1e-12 beyond it that fails the
    certificate or lies outside the domain, so an end lies at most 1e-12
    inside the set's boundary.  A 1e-4 scan of each certificate then finds no
    member outside the reported intervals widened by that 1e-12: a scan level
    can sit on the boundary itself (with a = 2.5, b = -0.03 and
    bounded_power(2, 0.01) the increase set is [0.1, 0.4] exactly).  Where
    the certificate's deficits are rounding noise, members and non-members
    alternate, so the levels beyond an end are sampled at 1e-15 spacing."""
    game, dist = case
    report = critical_mass_sets(game, dist, protocol)
    xs = np.linspace(0.0, 1.0, 10_001)
    domain = np.array([xs > 0.0, xs < 1.0])
    scan = _certify(game, dist, protocol, xs)[0] & domain
    steps = 1e-12 * np.arange(1, 1001) / 1000
    for row, (direction, intervals) in enumerate(
        (("decrease", report.decrease_intervals), ("increase", report.increase_intervals))
    ):
        covered = np.zeros(xs.size, bool)
        for lo, hi in intervals:
            assert lo <= hi
            covered |= (xs >= lo - 1e-12) & (xs <= hi + 1e-12)
            for end, beyond in ((lo, lo - steps), (hi, hi + steps)):
                assert PUBLIC_TEST[direction](game, dist, protocol, end)[0]
                if 0.0 < end < 1.0 and ((beyond > 0.0) & (beyond < 1.0)).all():
                    assert not _certify(game, dist, protocol, beyond)[0][row].all()
        missed = xs[scan[row] & ~covered]
        assert missed.size == 0, f"{direction} levels {missed[:5]} lie in no interval"


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

    def test_outer_side_is_reported_but_does_not_set_the_threshold(self):
        # the low equilibrium hugs 0: its outer side [0, 5.4e-5] reads the
        # truncated logistic's lowest types, a smaller deficit than the
        # barrier on its inner side
        game = linear_coordination_game(0.5865849096743062)
        dist = TruncatedLogisticTypes(0.0, 0.060344189400500736)
        low, high = select_most_robust(game, dist).entries
        assert low.threshold_left < low.threshold_right == low.overall
        assert high.overall == high.threshold_left

    def test_lone_equilibrium_takes_the_smaller_of_its_sides(self):
        # F = 0.7 on uniform types: one stable equilibrium, 0.7, whose two
        # sides both end at the domain
        entry = robustness_threshold(affine_game(0.0, 0.7), UniformTypes(0.0, 1.0), 0.7)
        assert entry.threshold_left == pytest.approx(0.7)
        assert entry.threshold_right == pytest.approx(0.3)
        assert entry.overall == entry.threshold_right

    def test_narrow_side_is_read(self):
        # a 3.6e-5-wide side is not skipped: it sets the upper equilibrium's
        # threshold, so the corner 0 is selected
        dist = SqrtShiftTypes()
        report = select_most_robust(NARROW_SIDE_GAME, dist)
        assert report.selected == 0.0 and not report.tie
        upper = report.entries[1]
        below = find_aggregate_equilibria(NARROW_SIDE_GAME, dist).equilibria[1]
        assert upper.xbar_star - below.xbar < 4e-5
        assert upper.overall == upper.threshold_left == pytest.approx(3.3e-10, rel=1e-6)

    def test_flat_game_threshold_positive(self):
        # F constant below the support: O strictly optimal everywhere, and the
        # corner keeps a positive basin-wide deficit
        game = affine_game(0.0, -0.4)
        dist = TruncatedLogisticTypes(mu=0.0, s=0.05, tau=0.3)
        entry = robustness_threshold(game, dist, 0.0)
        assert entry.overall > 0.0


# a near-tangent game: the upper equilibrium's left side is 3.6e-5 wide and
# its deficit peaks at 3.3e-10 there
NARROW_SIDE_GAME = affine_game(2.5, -0.0625 + 3.3e-10)


def scan_side_sup(game, dist, lo, hi, sign):
    """The deficit's largest value on a 1e-4 scan of [lo, hi], both ends
    included: the rule the exact suprema replaced, kept as their oracle."""
    xs = np.linspace(lo, hi, max(int(round((hi - lo) / 1e-4)) + 1, 2))
    return float(np.maximum(sign * _cutoff_deficit(game, dist, xs)[2], 0.0).max())


threshold_cases = coordination_games | st.one_of(
    st.builds(lambda c, mu, s: (linear_coordination_game(c), TruncatedLogisticTypes(mu, s)),
              st.floats(0.05, 0.95), st.floats(-0.3, 0.3), st.floats(1e-3, 0.2)),
    st.builds(lambda a, b, lo, width: (affine_game(a, b), UniformTypes(lo, lo + width)),
              st.floats(-2.0, 3.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
              st.floats(0.1, 3.0)),
)


@settings(max_examples=100, deadline=None)
@given(case=threshold_cases)
@example(case=(NARROW_SIDE_GAME, SqrtShiftTypes()))
def test_side_suprema_are_exact_against_the_scan(case):
    """Every basin side with width gets a supremum, however narrow: it is
    never below the scan's largest deficit on that side and is the deficit
    at its ``attained`` level, which lies on the side."""
    game, dist = case
    for eq in find_aggregate_equilibria(game, dist).stable:
        entry = robustness_threshold(game, dist, eq.xbar)
        for lo, hi, sign, sup, at in (
            (eq.basin_lo, eq.xbar, 1.0, entry.threshold_left, entry.attained_left),
            (eq.xbar, eq.basin_hi, -1.0, entry.threshold_right, entry.attained_right),
        ):
            if hi == lo:
                assert sup is None and at is None
                continue
            assert sup >= scan_side_sup(game, dist, lo, hi, sign) - 1e-12
            assert lo <= at <= hi
            deficit = float(sign * _cutoff_deficit(game, dist, np.array([at]))[2][0])
            assert sup == pytest.approx(max(deficit, 0.0), rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.05, 0.95), mu=st.floats(-0.3, 0.3), s=st.floats(1e-3, 0.2))
@example(c=0.5865849096743062, mu=0.0, s=0.060344189400500736)
@example(c=0.4406152290183474, mu=0.0, s=0.06340787205169851)
def test_selection_is_risk_dominance_on_linear_coordination_games(c, mu, s):
    """With two stable equilibria of F = x - c under logistic(mu, s) types,
    the high branch is selected iff c + mu < 1/2: I is risk-dominant for
    the median type mu.  The game is symmetric under x -> 1 - x exactly when
    c + mu = 1/2, where the thresholds tie."""
    assume(abs(c + mu - 0.5) > 1e-6)
    game, dist = linear_coordination_game(c), TruncatedLogisticTypes(mu, s)
    stable = find_aggregate_equilibria(game, dist).stable
    assume(len(stable) == 2)
    report = select_most_robust(game, dist)
    assert not report.tie
    assert (report.selected == stable[1].xbar) == (c + mu < 0.5)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(-0.1, 0.1), s=st.floats(0.02, 0.1))
@example(mu=0.02, s=0.1)
def test_selection_boundary_is_one_half_less_mu(mu, s):
    """Bisected on c, the level where the two stable equilibria of F = x - c
    under logistic(mu, s) types swap selection is 1/2 - mu to 1e-12.  The
    bracket is 1/2 - mu +- 0.03, where every game drawn here has two stable
    equilibria; +- 0.2 is too wide (near c = 0.28 the game at (0.02, 0.1) has
    one), and nothing is assumed of the sign of the difference beyond the
    bracket's ends."""
    dist = TruncatedLogisticTypes(mu=mu, s=s)

    def low_leads(c: float) -> bool:  # the lower equilibrium's overall is larger
        entries = select_most_robust(linear_coordination_game(c), dist).entries
        assert len(entries) == 2
        return entries[0].overall > entries[1].overall

    lo, hi = 0.5 - mu - 0.03, 0.5 - mu + 0.03
    low_leads_at_lo = low_leads(lo)
    assert low_leads(hi) != low_leads_at_lo
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if low_leads(mid) == low_leads_at_lo:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    assert abs(mid - (0.5 - mu)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(a=st.floats(2.05, 3.0), t=st.floats(0.5, 1.5))
def test_canonical_selection_boundary_is_the_closed_form(a, t):
    """Affine F = a x + b on sqrt-shift types: the deficit F - Pinv is
    -(x^2 + (2 - a) x - b).  Equilibrium 0's one side, up to the unstable
    root, reads its end at 0, -b; the interior stable equilibrium's inner
    side reads the peak at (a - 2)/2, (a - 2)^2/4 + b.  They cross at
    b* = -(a - 2)^2/8 and differ by 2 |b - b*|, so b* +- 1e-8 is outside
    the 1e-9 tie band and selects one side each."""
    dist = SqrtShiftTypes()
    b_star = -((a - 2.0) ** 2) / 8.0
    for b in (b_star, t * b_star):
        game = affine_game(a, b)
        assert len(find_aggregate_equilibria(game, dist).stable) == 2
        corner, interior = select_most_robust(game, dist).entries
        assert corner.xbar_star == 0.0 and corner.overall == -b
        assert abs(interior.overall - ((a - 2.0) ** 2 / 4.0 + b)) <= 1e-15
    for shift, side in ((1e-8, 1), (-1e-8, 0)):
        report = select_most_robust(affine_game(a, b_star + shift), dist)
        assert not report.tie and report.selected == report.entries[side].xbar_star


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


# -- the certify pipeline's bits ---------------------------------------------

def draw_coordination_game(rng, affine: bool):
    """A random game of coordination shape (stable low, unstable, stable
    high), drawn as the ``certify`` benchmark draws it: an affine game on
    sqrt-shift types under d^k, k in {2, 3, 4}, or a linear coordination game
    on logistic types under bounded_power, screened on 2,001 levels."""
    if affine:
        while True:
            a, b = rng.uniform(2.3, 2.7), rng.uniform(-0.08, -0.03)
            if (a - 2.0) ** 2 + 4.0 * b > 0.0:
                return affine_game(a, b), SqrtShiftTypes(), power_protocol(int(rng.choice([2, 3, 4])))
    xs = np.linspace(0.0, 1.0, 2001)
    while True:
        c, s = rng.uniform(0.15, 0.85), rng.uniform(0.03, 0.08)
        game, dist = linear_coordination_game(c), TruncatedLogisticTypes(mu=0.0, s=s)
        g = np.asarray(aggregate_best_response(game, dist, xs)) - xs
        if g[xs < c].min() < 0.0 and g[xs > c].max() > 0.0:
            return game, dist, bounded_power_protocol(int(rng.choice([2, 3])),
                                                      rng.uniform(0.01, 0.2))


def digest_putter(digest):
    """``put(*values)``: feed each value to ``digest``, a float by its hex
    form and anything else by its repr, each followed by a separator."""

    def put(*values):
        for v in values:
            digest.update((v.hex() if isinstance(v, float) else repr(v)).encode() + b";")

    return put


def put_reports(put, game, dist, protocol):
    """Put every bit of the equilibrium report and of the critical-mass
    sets and basins, and return both reports."""
    eqs = find_aggregate_equilibria(game, dist)
    for e in eqs.equilibria:
        put(e.xbar, e.stability, e.basin_lo, e.basin_hi)
    cms = critical_mass_sets(game, dist, protocol)
    for intervals in (cms.decrease_intervals, cms.increase_intervals):
        put(len(intervals), *(end for interval in intervals for end in interval))
    for basin in cms.basins:
        put(basin.xbar_star, basin.lo, basin.hi)
    return eqs, cms


def certify_pipeline_digest(games) -> str:
    """SHA-256 over every bit the certify pipeline reports on ``games``: the
    equilibria, the critical-mass sets and basins, the thresholds and the
    selection, and, from the reversed start at the highest interior stable
    equilibrium, the decrease certificate of the largest certified level
    below it and the escape report (dominance, crossing time, 2,000 bound
    samples)."""
    digest = hashlib.sha256()
    put = digest_putter(digest)
    for game, dist, protocol in games:
        eqs, cms = put_reports(put, game, dist, protocol)
        robust = select_most_robust(game, dist)
        for e in robust.entries:
            put(*dataclasses.astuple(e))
        put(robust.selected, robust.tie)
        interior = [e.xbar for e in eqs.stable if 0.0 < e.xbar < 1.0]
        below = [hi for _, hi in cms.decrease_intervals if interior and hi < max(interior)]
        if not below:
            put(None)
            continue
        xbar_star, dagger = max(interior), max(below)
        put(*dataclasses.astuple(is_critical_mass_decrease(game, dist, protocol, dagger)[1]))
        x0 = reversed_composition(make_grid(dist, 4000), dist, xbar_star)
        escape = escape_certificate(game, dist, protocol, x0, dagger)
        put(escape.dominance, escape.crossing_time)
        digest.update(escape.bound.tobytes())
    return digest.hexdigest()


# recorded before the certificate kernels lost their fixed per-call cost;
# every bit above must survive any change to how they are evaluated, on any
# BLAS thread count
CERTIFY_SHA256 = "238c666f2acccdb52f2afcf9420467770b63dd4b7a0ec8d552e19fdb95b72f17"


def test_certify_pipeline_matches_pinned_hash():
    rng = np.random.default_rng(20261021)
    games = [draw_coordination_game(rng, affine=i % 2 == 0) for i in range(24)]
    assert certify_pipeline_digest(games) == CERTIFY_SHA256


def near_tangent_games(rng, count):
    """``count`` sqrt-shift games a hair from a tangency of g, then three
    games where g is rounding noise or 0, each under one of four protocols.

    With sqrt-shift types g = 0 is x^2 + (2 - a) x - b = 0, which touches 0
    at a/2 - 1 when b = -(a/2 - 1)^2; b is moved off it by 10**-e, e in
    [5, 12], either way, so g has two roots 2 sqrt(10**-e) apart or none,
    often inside one scan cell, where the scan's turns and their vertex
    levels decide what is found."""
    protocols = (power_protocol(3), power_protocol(2.5), standard_protocol(),
                 bounded_power_protocol(2, 0.05))
    games = []
    for i in range(count):
        a = rng.uniform(2.1, 2.9)
        b = -(a / 2.0 - 1.0) ** 2 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(5.0, 12.0)
        games.append((affine_game(a, b), SqrtShiftTypes(), protocols[i % 4]))
    # P(F(x)) = x up to rounding (10,075 reported roots on the first), and g = 0
    games += [
        (affine_game(1e-6, 0.0), UniformTypes(0.0, 1e-6), protocols[0]),
        (affine_game(1e-6, 0.25), UniformTypes(0.25, 0.250001), protocols[1]),
        (affine_game(1.0, 0.0), UniformTypes(0.0, 1.0), protocols[2]),
    ]
    return games


# recorded before the two scans shared one vertex rule; the turns whose
# vertex level each scan keeps must not change what either reports
NEAR_TANGENT_SHA256 = "18e1c23a4aef6f7c71fc1772468c78d1e2504a399ddfeb54d6603bb883f6790b"


def test_near_tangent_reports_match_pinned_hash():
    digest = hashlib.sha256()
    put = digest_putter(digest)
    for game, dist, protocol in near_tangent_games(np.random.default_rng(20261022), 40):
        eqs, _ = put_reports(put, game, dist, protocol)
        put(len(eqs.equilibria))
    assert digest.hexdigest() == NEAR_TANGENT_SHA256


# recorded before the thresholds were read off one deficit pass per game;
# the near-tangent games' narrow sides and the noise games' thousands of
# equilibria reach rules the certify digest does not
SELECTION_SHA256 = "a6a6416ff9ca786a2695385893c986983cf915eb12c836b917d5ed9e2cf35f07"


def test_selection_matches_pinned_hash():
    digest = hashlib.sha256()
    put = digest_putter(digest)
    for game, dist, _ in near_tangent_games(np.random.default_rng(20261022), 40):
        try:
            robust = select_most_robust(game, dist)
        except AnalysisError as exc:  # g = 0 has no stable equilibrium
            put(type(exc).__name__)
            continue
        for e in robust.entries:
            put(*dataclasses.astuple(e))
        put(robust.selected, robust.tie)
    assert digest.hexdigest() == SELECTION_SHA256


@pytest.mark.parametrize("select", [
    lambda: select_most_robust(affine_game(CANON_A, CANON_B), SqrtShiftTypes()),
    # 10,075 equilibria, 113 of them stable
    lambda: select_most_robust(affine_game(1e-6, 0.0), UniformTypes(0.0, 1e-6)),
    lambda: robustness_threshold(affine_game(CANON_A, CANON_B), SqrtShiftTypes(), 0.25),
])
def test_thresholds_evaluate_the_deficit_once(monkeypatch, select):
    calls = []
    deficit = stability._cutoff_deficit

    def counting(game, dist, xs):
        calls.append(np.size(xs))
        return deficit(game, dist, xs)

    monkeypatch.setattr(stability, "_cutoff_deficit", counting)
    select()
    assert len(calls) == 1
