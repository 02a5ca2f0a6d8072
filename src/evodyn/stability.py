"""Distributional critical masses, robustness thresholds, and selection.

A level xbar is a *certified decrease level* when the aggregate falls there
no matter how participants are arranged across types.  The sufficient
certificate has two parts:

(a) the cut-off type strictly prefers O:  Pinv(xbar) > F(xbar); and
(b) one of
    * xbar = 1 (the sorted composition is the only one),
    * P(F(xbar)) = 0 under clamping (no type wants I), or
    * the cut-off type's exit rate weakly beats every possible entry rate:
          rate(Pinv(xbar) - F(xbar)) >= sup_{theta < F(xbar)} rate(F(xbar) - theta).

The mirror statement certifies increase levels.  For the monotone protocols
supported here the supremum sits at the extreme type (theta_min below,
theta_max above); tests cross-check that closed form against a grid scan.
One array kernel evaluates the certificate, for single levels (the
auditable ``CriticalMassCertificate``) and for whole scans (the
critical-mass sets, whose first decrease interval also gives the
prefix-certified level of the rate-ratio escape bound in ``flows``).

A stable aggregate equilibrium bracketed by an increase level below and a
decrease level above (with no other equilibrium between them) is
*distributionally stable*: once the aggregate enters the bracket it can
never leave, whatever the composition does.  Corner equilibria only need
the inward side.

Robustness thresholds turn this into selection: for a bounded tempering
function with sensitivity bound pisharp, a level is certified exactly when
the cut-off type's payoff deficit reaches pisharp, so a stable equilibrium
keeps certified levels on a basin side as long as pisharp does not exceed
the largest deficit on that side.  The equilibrium whose smallest side
threshold is largest survives the longest as pisharp rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import RevisionProtocol
from .equilibria import STABLE, find_aggregate_equilibria
from .errors import AnalysisError, InputError
from .games import ACTION_IN, ACTION_OUT, AggregateGame, TypeDistribution

DECREASE = "decrease"
INCREASE = "increase"

BRANCH_CORNER = "corner"
BRANCH_CLAMPED = "clamped_cdf"
BRANCH_RATES = "rate_comparison"

# scan step of the robustness-threshold deficit suprema
_THRESHOLD_RESOLUTION = 1e-4


@dataclass(frozen=True)
class CriticalMassCertificate:
    """Auditable record of one membership test: both sides of the inequality."""

    xbar: float
    direction: str
    is_member: bool
    cutoff_type: float
    common_payoff: float
    branch: str | None
    rate_lhs: float | None
    rate_rhs: float | None
    rhs_argmax_type: float | None
    reason: str


class _CertificateScan(NamedTuple):
    """Certificate pieces at each level of a scan, for one direction."""

    member: np.ndarray
    prefers: np.ndarray
    corner: np.ndarray
    clamped: np.ndarray
    common: np.ndarray
    cutoff: np.ndarray
    rate_lhs: np.ndarray
    rate_rhs: np.ndarray
    extreme_type: float


# per direction: sign of the cut-off type's gain from moving, corner level,
# preferred action, clamped-c.d.f. reason, and the names of the two rates
_SIDES = {
    DECREASE: (-1.0, 1.0, "O", "no type has I as best response (clamped c.d.f. is 0)",
               "exit rate", "entry-rate supremum"),
    INCREASE: (1.0, 0.0, "I", "every type has I as best response (clamped c.d.f. is 1)",
               "entry rate", "exit-rate supremum"),
}


def _cutoff_deficit(game: AggregateGame, dist: TypeDistribution, xs):
    """F(xs), Pinv(xs) and the cut-off type's gain from I, F(xs) - Pinv(xs)."""
    common = np.asarray(game.payoff(xs))
    cutoff = np.asarray(dist.inverse_cdf(xs))
    return common, cutoff, common - cutoff


def _certify(game, dist, protocol, xs, direction: str) -> _CertificateScan:
    """Evaluate the certificate at every level in ``xs`` (scalar or array).

    Branch precedence: condition (a), then corner, clamped c.d.f., rates.
    """
    xs = np.asarray(xs, dtype=float)
    sign, corner_level = _SIDES[direction][:2]
    theta_min, theta_max = dist.support
    extreme = theta_max if sign > 0.0 else theta_min
    common, cutoff, deficit = _cutoff_deficit(game, dist, xs)
    prefers = sign * deficit > 0.0
    corner = xs == corner_level
    clamped = np.asarray(dist.cdf(common)) == 1.0 - corner_level
    lhs = protocol.rate(sign * deficit)
    rhs = protocol.rate(sign * (extreme - common))
    member = prefers & (corner | clamped | (lhs >= rhs))
    return _CertificateScan(member, prefers, corner, clamped, common, cutoff, lhs, rhs, extreme)


def _certificate_at(game, dist, protocol, xbar: float, direction: str):
    scan = _certify(game, dist, protocol, xbar, direction)
    _, corner_level, action, clamped_reason, lhs_name, rhs_name = _SIDES[direction]
    cutoff, common = float(scan.cutoff), float(scan.common)
    is_member = bool(scan.member)
    lhs = rhs = argmax = None
    if not scan.prefers:
        branch = None
        reason = f"cut-off type {cutoff:.6g} does not strictly prefer {action} at F={common:.6g}"
    elif scan.corner:
        branch, reason = BRANCH_CORNER, f"corner level {corner_level:g}"
    elif scan.clamped:
        branch, reason = BRANCH_CLAMPED, clamped_reason
    else:
        branch = BRANCH_RATES
        lhs, rhs, argmax = float(scan.rate_lhs), float(scan.rate_rhs), scan.extreme_type
        verdict = "holds" if is_member else "fails"
        reason = f"{lhs_name} {lhs:.6g} vs {rhs_name} {rhs:.6g} at theta={argmax:.6g}: {verdict}"
    return is_member, CriticalMassCertificate(
        xbar=xbar,
        direction=direction,
        is_member=is_member,
        cutoff_type=cutoff,
        common_payoff=common,
        branch=branch,
        rate_lhs=lhs,
        rate_rhs=rhs,
        rhs_argmax_type=argmax,
        reason=reason,
    )


def is_critical_mass_decrease(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    xbar: float,
) -> tuple[bool, CriticalMassCertificate]:
    """Certify that the aggregate falls at ``xbar`` for every composition."""
    if not 0.0 < xbar <= 1.0:
        raise InputError(f"decrease level xbar={xbar} must lie in (0, 1]")
    return _certificate_at(game, dist, protocol, xbar, DECREASE)


def is_critical_mass_increase(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    xbar: float,
) -> tuple[bool, CriticalMassCertificate]:
    """Certify that the aggregate rises at ``xbar`` for every composition."""
    if not 0.0 <= xbar < 1.0:
        raise InputError(f"increase level xbar={xbar} must lie in [0, 1)")
    return _certificate_at(game, dist, protocol, xbar, INCREASE)


@dataclass(frozen=True)
class DistributionalBasin:
    xbar_star: float
    lo: float
    hi: float


@dataclass(frozen=True)
class CriticalMassReport:
    decrease_intervals: tuple[tuple[float, float], ...]
    increase_intervals: tuple[tuple[float, float], ...]
    basins: tuple[DistributionalBasin, ...]
    resolution: float


def _merge_runs(xs: np.ndarray, member: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Maximal runs of member levels as (first level, last level) pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], member, [False]))))
    return tuple(
        (float(xs[s]), float(xs[e - 1])) for s, e in zip(edges[0::2], edges[1::2])
    )


def critical_mass_sets(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    resolution: float = 1e-3,
) -> CriticalMassReport:
    """Scan both membership tests and assemble distributional basins.

    A stable equilibrium gets a basin [lo, hi] when a certified increase
    level below it and a certified decrease level above it bracket it with
    no other equilibrium in between; corners supply their own inward bound.
    """
    if not 0.0 < resolution < 0.5:
        raise InputError(f"resolution={resolution} out of range")
    m = int(round(1.0 / resolution))
    xs_dec = np.linspace(resolution, 1.0, m)
    xs_inc = np.linspace(0.0, 1.0 - resolution, m)
    dec_member = _certify(game, dist, protocol, xs_dec, DECREASE).member
    inc_member = _certify(game, dist, protocol, xs_inc, INCREASE).member

    report = find_aggregate_equilibria(game, dist)
    eq_levels = [e.xbar for e in report.equilibria]
    basins = []
    for idx, eq in enumerate(report.equilibria):
        if eq.stability != STABLE:
            continue
        prev_eq = eq_levels[idx - 1] if idx > 0 else None
        next_eq = eq_levels[idx + 1] if idx + 1 < len(eq_levels) else None

        if eq.xbar <= resolution / 2.0:
            lo = 0.0
        else:
            lower_ok = inc_member & (xs_inc < eq.xbar)
            if prev_eq is not None:
                lower_ok &= xs_inc > prev_eq
            lo = float(xs_inc[lower_ok][0]) if lower_ok.any() else None

        if eq.xbar >= 1.0 - resolution / 2.0:
            hi = 1.0
        else:
            upper_ok = dec_member & (xs_dec > eq.xbar)
            if next_eq is not None:
                upper_ok &= xs_dec < next_eq
            hi = float(xs_dec[upper_ok][-1]) if upper_ok.any() else None

        if lo is not None and hi is not None:
            basins.append(DistributionalBasin(xbar_star=eq.xbar, lo=lo, hi=hi))

    return CriticalMassReport(
        decrease_intervals=_merge_runs(xs_dec, dec_member),
        increase_intervals=_merge_runs(xs_inc, inc_member),
        basins=tuple(basins),
        resolution=resolution,
    )


@dataclass(frozen=True)
class ThresholdEntry:
    """Largest cut-off payoff deficits on each side of one stable equilibrium."""

    xbar_star: float
    threshold_left: float | None
    attained_left: float | None
    threshold_right: float | None
    attained_right: float | None
    overall: float


def _side_sup(game, dist, lo: float, hi: float, sign: float):
    if hi - lo < _THRESHOLD_RESOLUTION / 2.0:
        return None, None
    count = max(int(round((hi - lo) / _THRESHOLD_RESOLUTION)) + 1, 2)
    xs = np.linspace(lo, hi, count)
    deficit = sign * _cutoff_deficit(game, dist, xs)[2]
    np.maximum(deficit, 0.0, out=deficit)
    best = int(np.argmax(deficit))
    return float(deficit[best]), float(xs[best])


def robustness_threshold(
    game: AggregateGame,
    dist: TypeDistribution,
    xbar_star: float,
) -> ThresholdEntry:
    """Side-wise suprema of the cut-off type's payoff deficit over the basin.

    Left of the equilibrium the relevant deficit is F - Pinv (entry pressure
    toward it); right of it Pinv - F (exit pressure back down).  The overall
    threshold is the smaller of the sides that exist; corner equilibria have
    a single side.  ``xbar_star`` must be a reported equilibrium of the
    game's cached equilibrium report.
    """
    eq = find_aggregate_equilibria(game, dist).locate(xbar_star)
    if eq.stability != STABLE:
        raise InputError(f"equilibrium {xbar_star} is {eq.stability}, not stable")
    left, at_left = _side_sup(game, dist, eq.basin_lo, eq.xbar, +1.0)
    right, at_right = _side_sup(game, dist, eq.xbar, eq.basin_hi, -1.0)
    sides = [s for s in (left, right) if s is not None]
    if not sides:
        raise AnalysisError(f"equilibrium {xbar_star} has an empty basin")
    return ThresholdEntry(
        xbar_star=eq.xbar,
        threshold_left=left,
        attained_left=at_left,
        threshold_right=right,
        attained_right=at_right,
        overall=min(sides),
    )


@dataclass(frozen=True)
class RobustnessReport:
    entries: tuple[ThresholdEntry, ...]
    selected: float | None
    tie: bool

    def surviving(self, pisharp: float) -> tuple[float, ...]:
        """Stable equilibria still certified on all basin sides at ``pisharp``."""
        return tuple(e.xbar_star for e in self.entries if e.overall >= pisharp)


def select_most_robust(
    game: AggregateGame,
    dist: TypeDistribution,
) -> RobustnessReport:
    """Pick the stable equilibrium with the largest overall threshold.

    Exact ties are reported as a tie with no selection.
    """
    stable = find_aggregate_equilibria(game, dist).stable
    if not stable:
        raise AnalysisError("the game has no stable aggregate equilibrium")
    entries = tuple(robustness_threshold(game, dist, eq.xbar) for eq in stable)
    best = max(entries, key=lambda e: e.overall)
    contenders = [e for e in entries if abs(e.overall - best.overall) <= 1e-9]
    if len(contenders) > 1:
        return RobustnessReport(entries=entries, selected=None, tie=True)
    return RobustnessReport(entries=entries, selected=best.xbar_star, tie=False)


def risk_dominant_action(c: float) -> str:
    """Action optimal against the uniform belief in the 2x2 coordination game."""
    if not 0.0 < c < 1.0:
        raise InputError(f"coordination cost c={c} must lie in (0, 1)")
    if c == 0.5:
        raise InputError("c=1/2 is the risk-dominance tie")
    return ACTION_IN if c < 0.5 else ACTION_OUT
