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
Since every rate is monotone in the deficit, the comparison is decided on
the two deficits (``_certify``).  One array kernel evaluates the
certificate in both directions, for single levels (the auditable
``CriticalMassCertificate``) and for the critical-mass sets.  Those are
found by one scan whose member runs have their ends narrowed to 1e-12 of
the flip, by the bracket kernel of the equilibrium search
(``equilibria._narrow``); their first decrease interval also gives the
prefix-certified level of the rate-ratio escape bound in ``flows``.

A stable aggregate equilibrium bracketed by an increase level below and a
decrease level above (with no other equilibrium between them) is
*distributionally stable*: once the aggregate enters the bracket it can
never leave, whatever the composition does.  Corner equilibria only need
the inward side.

Robustness thresholds turn this into selection: for a bounded tempering
function with sensitivity bound pisharp, a level is certified exactly when
the cut-off type's payoff deficit reaches pisharp, so a stable equilibrium
keeps certified levels on a basin side as long as pisharp does not exceed
the largest deficit on that side.  That supremum is exact: the deficit
F - Pinv is smooth with slope a - Pinv' (a the game's slope), so it peaks
at an end of the side or at a level where Pinv' = a, which each family
gives in closed form.  An equilibrium's threshold is the smallest
supremum over its *inner* sides, those that end at another reported
equilibrium: they hold the barrier between two basins.  An outer side ends
at 0 or 1, where the deficit measures how far the type support reaches
(the truncation of a logistic), so it is reported but does not enter the
threshold.  A lone stable equilibrium has no inner side and takes the
smallest supremum over the sides it has.  The equilibrium whose threshold
is largest survives the longest as pisharp rises; on linear coordination
games that is the risk-dominant one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RevisionProtocol
from .equilibria import (
    _CACHE_SIZE,
    _ROOT_TOL,
    _SECTIONS,
    STABLE,
    _insert_sorted,
    _narrow,
    find_aggregate_equilibria,
)
from .errors import AnalysisError, InputError
from .games import ACTION_IN, ACTION_OUT, AggregateGame, TypeDistribution

DECREASE = "decrease"
INCREASE = "increase"

BRANCH_CORNER = "corner"
BRANCH_CLAMPED = "clamped_cdf"
BRANCH_RATES = "rate_comparison"


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


# per direction: row of a scan (and end of the support that holds the
# extreme type), corner level, preferred action, clamped-c.d.f. reason, and
# the names of the two rates
_SIDES = {
    DECREASE: (0, 1.0, "O", "no type has I as best response (clamped c.d.f. is 0)",
               "exit rate", "entry-rate supremum"),
    INCREASE: (1, 0.0, "I", "every type has I as best response (clamped c.d.f. is 1)",
               "entry rate", "exit-rate supremum"),
}


def _cutoff_deficit(game: AggregateGame, dist: TypeDistribution, xs):
    """F(xs), Pinv(xs) and the cut-off type's gain from I, F(xs) - Pinv(xs)."""
    common = np.asarray(game.payoff(xs))
    cutoff = np.asarray(dist.inverse_cdf(xs))
    return common, cutoff, common - cutoff


# per row of a scan (decrease, then increase): the sign of the cut-off
# type's gain from moving, and the corner level
_SIGN = np.array([[-1.0], [1.0]])
_CORNER = np.array([[1.0], [0.0]])


def _certify(game, dist, protocol, xs):
    """Evaluate both directions' certificates at every level of the array ``xs``.

    Returns the membership, the gap below, lhs and rhs (each with row 0 for
    decrease and row 1 for increase), then F and Pinv at the levels, which
    are evaluated once for both rows.  Branch precedence: condition
    (a), then corner, clamped c.d.f., rates.  P(F) is clamped to 0 exactly
    when F <= theta_min, and to 1 when F >= theta_max, so the clamped branch
    is rhs <= 0.  Every supported rate is nondecreasing in the deficit, and
    strictly increasing below ``protocol.saturation``, the deficit from
    which it is constant (0 for the standard rate, pisharp for
    bounded_power, inf for power).  So for a cut-off type that prefers to
    move (lhs > 0), rate(lhs) >= rate(rhs) holds exactly when
    lhs >= min(rhs, saturation), and the certificate compares deficits
    alone: it holds where the gap lhs - max(min(rhs, saturation), 0) is
    >= 0, which also covers the clamped branch.  The gap is continuous in
    the level.

    Besides F and Pinv, a call makes 11 array operations (and the two
    ``asarray`` of ``_cutoff_deficit``) whatever the number of levels: the
    per-row constants are module arrays, and the extreme types enter by one
    outer difference, ``support - F``.
    """
    common, cutoff, deficit = _cutoff_deficit(game, dist, xs)
    lhs = _SIGN * deficit
    rhs = _SIGN * np.subtract.outer(dist.support, common)
    gap = lhs - np.maximum(np.minimum(rhs, protocol.saturation), 0.0)
    member = (lhs > 0.0) & ((xs == _CORNER) | (gap >= 0.0))
    return member, gap, lhs, rhs, common, cutoff


def _certificate_at(game, dist, protocol, xbar: float, direction: str):
    row, corner_level, action, clamped_reason, lhs_name, rhs_name = _SIDES[direction]
    member, _, lhs, rhs, common, cutoff = _certify(game, dist, protocol, np.array([xbar]))
    lhs, rhs, common, cutoff = (float(v) for v in (lhs[row, 0], rhs[row, 0], common[0], cutoff[0]))
    is_member = bool(member[row, 0])
    rates, argmax = (None, None), None
    if not lhs > 0.0:
        branch = None
        reason = f"cut-off type {cutoff:.6g} does not strictly prefer {action} at F={common:.6g}"
    elif xbar == corner_level:
        branch, reason = BRANCH_CORNER, f"corner level {corner_level:g}"
    elif rhs <= 0.0:
        branch, reason = BRANCH_CLAMPED, clamped_reason
    else:
        branch, argmax = BRANCH_RATES, dist.support[row]
        rates = tuple(protocol.rate(np.array((lhs, rhs))).tolist())
        verdict = "holds" if is_member else "fails"
        reason = (f"{lhs_name} {rates[0]:.6g} vs {rhs_name} {rates[1]:.6g} "
                  f"at theta={argmax:.6g}: {verdict}")
    return is_member, CriticalMassCertificate(
        xbar, direction, is_member, cutoff, common, branch, *rates, argmax, reason
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
    """Certified level sets and the distributional basins they bracket.

    Each interval ``(lo, hi)`` is a run of certified levels whose two ends
    are certified levels.  An end inside the domain lies within 1e-12 of a
    level that fails the certificate.  Decrease levels lie in (0, 1] and
    increase levels in [0, 1), so a decrease run that reaches 0 starts at
    the smallest positive double, ``math.nextafter(0.0, 1.0)``, and an
    increase run that reaches 1 ends at ``math.nextafter(1.0, 0.0)``.
    """

    decrease_intervals: tuple[tuple[float, float], ...]
    increase_intervals: tuple[tuple[float, float], ...]
    basins: tuple[DistributionalBasin, ...]


def critical_mass_sets(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
) -> CriticalMassReport:
    """Find both certified level sets and assemble distributional basins.

    One scan of ``_SECTIONS**2`` cells and the domain's two edge doubles
    finds the runs of member levels; ``_narrow`` then moves every run end
    that has a non-member scan level beyond it to within 1e-12 of the flip.

    A stable equilibrium gets a basin [lo, hi] when a certified increase
    level below it and a certified decrease level above it bracket it with
    no other equilibrium in between; corners supply their own inward bound.

    The report is computed once per (game, dist, protocol), all immutable,
    and shared by every later call with equal arguments for the last few
    inputs, as the equilibrium report is: the CLI's ``escape`` and the
    rate-ratio bound read one report.
    """
    return _sets(game, dist, protocol)


_CELLS = _SECTIONS**2
# the certified-set scan's levels, between two pads: a copy of 0 first and a
# copy of 1 last; decrease levels lie in (0, 1] and increase levels in
# [0, 1), and neither pad is a member
_SET_LEVELS = np.concatenate(([0.0, 0.0, math.nextafter(0.0, 1.0)], np.arange(1, _CELLS) / _CELLS,
                              [math.nextafter(1.0, 0.0), 1.0, 1.0]))
_SET_DOMAIN = np.array([_SET_LEVELS > 0.0, _SET_LEVELS < 1.0])
_SET_DOMAIN[:, [0, -1]] = False


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _sets(game, dist, protocol) -> CriticalMassReport:
    xs = _SET_LEVELS
    member, gap = _certify(game, dist, protocol, xs)[:2]
    member &= _SET_DOMAIN
    # a run or a gap narrower than a cell shows as a discrete extremum of its
    # row's gap that lies within the second difference of 0: the vertex of
    # the parabola through it and its two neighbours (as in the equilibrium
    # search) joins the levels; vertices lie within half a cell of a scan
    # level inside [1/_CELLS, 1 - 1/_CELLS], so inside the domain
    inner = gap[:, 2:-2]
    d = inner[:, 1:] - inner[:, :-1]
    row, turn = np.nonzero((d[:, :-1] * d[:, 1:] < 0.0) & (
        np.abs(gap[:, 3:-3]) <= np.abs(d[:, 1:] - d[:, :-1])))
    if turn.size:
        d1, d2 = d[row, turn], d[row, turn + 1]
        vertices = np.sort(xs[turn + 3] + 0.5 / _CELLS * (d1 + d2) / (d1 - d2))
        at = xs.searchsorted(vertices)
        xs = _insert_sorted(xs, at, vertices)
        member, gap = (_insert_sorted(full, at, part) for full, part in zip(
            (member, gap), _certify(game, dist, protocol, vertices)))
    # each run of member levels starts and ends next to a non-member level,
    # which for a run that reaches a domain end is a pad or the excluded
    # level one double away, so that end is not narrowed
    row, cell = np.nonzero(member[:, 1:] != member[:, :-1])
    inside = cell + member[row, cell + 1]
    outside = 2 * cell + 1 - inside

    def evaluate(levels, live):  # each bracket reads its own direction's row
        pick = (row[live], np.arange(live.size))
        return tuple(v.reshape(2, live.size, -1)[pick] for v in _certify(
            game, dist, protocol, levels.ravel())[:2])

    ends = _narrow(evaluate, xs[inside], gap[row, inside], xs[outside], gap[row, outside],
                   _ROOT_TOL)[0].tolist()
    split = int(np.count_nonzero(row == 0))
    decrease = list(zip(ends[:split:2], ends[1:split:2]))
    increase = list(zip(ends[split::2], ends[split + 1::2]))

    eqs = find_aggregate_equilibria(game, dist).equilibria
    basins = []
    for idx, eq in enumerate(eqs):
        if eq.stability != STABLE:
            continue
        below = eqs[idx - 1].xbar if idx > 0 else -math.inf
        above = eqs[idx + 1].xbar if idx + 1 < len(eqs) else math.inf
        # the lowest increase level and the highest decrease level strictly
        # between the neighbouring equilibria and on their side of this one
        lo = 0.0 if eq.xbar == 0.0 else next(
            (max(a, math.nextafter(below, 1.0)) for a, b in increase
             if b > below and a < eq.xbar), None)
        hi = 1.0 if eq.xbar == 1.0 else next(
            (min(b, math.nextafter(above, 0.0)) for a, b in reversed(decrease)
             if a < above and b > eq.xbar), None)
        if lo is not None and hi is not None:
            basins.append(DistributionalBasin(xbar_star=eq.xbar, lo=lo, hi=hi))

    return CriticalMassReport(tuple(decrease), tuple(increase), tuple(basins))


@dataclass(frozen=True)
class ThresholdEntry:
    """Largest cut-off payoff deficits on each side of one stable equilibrium.

    A side is None where the basin has no width there (a corner).
    ``overall`` is the smallest threshold over the sides that end at another
    reported equilibrium, or over every side if none does.
    """

    xbar_star: float
    threshold_left: float | None
    attained_left: float | None
    threshold_right: float | None
    attained_right: float | None
    overall: float


def _side_sup(game, dist, lo: float, hi: float, sign: float):
    """Supremum over [lo, hi] of the positive part of sign * (F - Pinv), and
    the lowest level that attains it: an end or a level where Pinv' = a."""
    if not hi > lo:
        return None, None
    levels = dist.quantile_slope_levels(game.slope)
    xs = np.concatenate(([lo], levels[(levels > lo) & (levels < hi)], [hi]))
    deficit = np.maximum(sign * _cutoff_deficit(game, dist, xs)[2], 0.0)
    best = int(deficit.argmax())
    return float(deficit[best]), float(xs[best])


def robustness_threshold(
    game: AggregateGame,
    dist: TypeDistribution,
    xbar_star: float,
) -> ThresholdEntry:
    """Side-wise suprema of the cut-off type's payoff deficit over the basin.

    Left of the equilibrium the relevant deficit is F - Pinv (entry pressure
    toward it); right of it Pinv - F (exit pressure back down).  The overall
    threshold is the smaller of the inner sides, those that end at another
    reported equilibrium; an equilibrium with no inner side takes the
    smaller of the sides it has (corner equilibria have a single side).
    ``xbar_star`` must be a reported equilibrium of the game's cached
    equilibrium report.
    """
    eqs = find_aggregate_equilibria(game, dist)
    eq = eqs.locate(xbar_star)
    if eq.stability != STABLE:
        raise InputError(f"equilibrium {xbar_star} is {eq.stability}, not stable")
    left, at_left = _side_sup(game, dist, eq.basin_lo, eq.xbar, +1.0)
    right, at_right = _side_sup(game, dist, eq.xbar, eq.basin_hi, -1.0)
    # a stable equilibrium's basin ends at its neighbours, or at 0 and 1, so
    # every side but a corner's has width and at least one side exists
    inner = (left if eq is not eqs.equilibria[0] else None,
             right if eq is not eqs.equilibria[-1] else None)
    sides = [s for s in inner if s is not None] or [s for s in (left, right) if s is not None]
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
        """Stable equilibria whose threshold (``overall``) is at least ``pisharp``."""
        return tuple(e.xbar_star for e in self.entries if e.overall >= pisharp)


def select_most_robust(
    game: AggregateGame,
    dist: TypeDistribution,
) -> RobustnessReport:
    """Pick the stable equilibrium with the largest overall threshold.

    Thresholds within an absolute 1e-9 of the largest count as a tie, which
    is reported with no selection.  So every game whose two ``overall``
    values cross inside that band reports a tie, not only the game where
    they are equal: on the canonical family (affine F = a x + b on
    sqrt-shift types) that is b within 5e-10 of the crossing b*(a), measured
    at a = 2.45, 2.7 and 3.
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
