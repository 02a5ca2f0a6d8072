"""Aggregate equilibria of the homogenized dynamic and their stability.

An aggregate equilibrium is a fixed point of xbar -> P(F(xbar)), i.e. a zero
of g(xbar) = P(F(xbar)) - xbar on [0, 1] (with the c.d.f. clamped at the
support, so corners where F leaves the support qualify).  g is read on a
uniform grid of levels and at the vertex of the parabola through each
discrete extremum of that scan (where consecutive differences of g change
sign) and its two neighbours, so g is monotone between consecutive levels
wherever the scan resolves its turns (Brent 1973, ch. 4).  Every sign-change
bracket is bisected at once (``_bisect_all``).  Each root is labelled from g
at the levels on either side of it, interior roots and clamped corners alike:

    stable      g > 0 below and g < 0 above (one-sided at corners)
    unstable    g < 0 below and g > 0 above
    semistable  anything else

The basin of a stable equilibrium under the scalar dynamic runs to the
adjacent equilibria (or the domain boundary).

Games, type distributions and reports are immutable, so one report is kept
per (game, dist, scan_resolution) for the last few inputs: critical-mass
sets, selection and the rate-ratio escape bound share one search per game.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .composition import BayesianStrategy, TypeGrid, sorted_composition
from .errors import InputError
from .games import (
    AggregateGame,
    TypeDistribution,
    _homogenized_velocity,
    require_aggregate_equilibrium,
)

STABLE = "stable"
UNSTABLE = "unstable"
SEMISTABLE = "semistable"

_ROOT_TOL = 1e-12
# halvings a bracket may take before its mid is returned as the root
_MAX_STEPS = 200
# distance within which EquilibriumReport.locate matches a reported level
_LOCATE_TOL = 1e-9
#: Number of equilibrium reports find_aggregate_equilibria keeps (least
#: recently used dropped first).
_CACHE_SIZE = 16


@dataclass(frozen=True)
class Equilibrium:
    xbar: float
    stability: str
    basin_lo: float
    basin_hi: float


@dataclass(frozen=True)
class EquilibriumReport:
    equilibria: tuple[Equilibrium, ...]

    @property
    def stable(self) -> tuple[Equilibrium, ...]:
        return tuple(e for e in self.equilibria if e.stability == STABLE)

    def locate(self, xbar: float) -> Equilibrium:
        for eq in self.equilibria:
            if abs(eq.xbar - xbar) <= _LOCATE_TOL:
                return eq
        raise InputError(f"{xbar} is not a reported equilibrium (tol {_LOCATE_TOL})")


def _bisect_all(
    game: AggregateGame, dist: TypeDistribution, lo: np.ndarray, hi: np.ndarray,
    g_lo: np.ndarray, g_hi: np.ndarray,
) -> np.ndarray:
    """Bisect every sign-change bracket [lo[i], hi[i]] of g at once.

    Each bracket, with g at its ends from the search's levels (``g_lo``,
    ``g_hi``), takes the decisions of a scalar bisection: return an end
    where |g| <= _ROOT_TOL, else halve until |g(mid)| <= _ROOT_TOL or the
    bracket is narrower than 1e-16, for at most _MAX_STEPS steps.

    The halvings run in speculative rounds of one array evaluation of g.  A
    round lists, for every open bracket, the mids that lead toward its
    regula-falsi guess (``_predicted_mids``), evaluates g on all of them at
    once and then replays the scalar decisions in Python floats.  A stored
    value is used only while the actual mid equals the predicted one, so
    every decision reads the true g at the true mid and the roots keep the
    bits of one evaluation per step; the next round starts where a bracket
    left its predicted path.  Each round advances every open bracket by at
    least one level.  From a scan cell the first guess is good to about the
    cell width squared, so most brackets close in the second round.  A
    bracket whose mid rounds to the end it replaces would repeat that step
    up to the cap, so it returns the cap's mid at once.
    """
    roots = np.empty_like(lo)
    # an open bracket is (index, a, b, g(a), g(b), steps taken)
    brackets = []
    for i, (a, b, g_a, g_b) in enumerate(
        zip(lo.tolist(), hi.tolist(), g_lo.tolist(), g_hi.tolist())
    ):
        if abs(g_a) <= _ROOT_TOL:
            roots[i] = a
        elif abs(g_b) <= _ROOT_TOL:
            roots[i] = b
        else:
            brackets.append((i, a, b, g_a, g_b, 0))
    while brackets:
        paths = [_predicted_mids(a, b, g_a, g_b, _MAX_STEPS - steps)
                 for _, a, b, g_a, g_b, steps in brackets]
        values = _homogenized_velocity(
            game, dist, np.array([mid for path in paths for mid in path])
        ).tolist()
        still_open, start = [], 0
        for (i, a, b, g_a, g_b, steps), path in zip(brackets, paths):
            root = None
            for predicted, g_mid in zip(path, values[start:start + len(path)]):
                mid = 0.5 * (a + b)
                if mid != predicted:
                    break
                steps += 1
                if abs(g_mid) <= _ROOT_TOL or b - a < 1e-16:
                    root = mid
                    break
                # a mid that rounds to the end it replaces leaves the
                # bracket as it was, so every later step repeats this one
                if (g_a < 0.0) == (g_mid < 0.0):
                    stalled, a, g_a = mid == a, mid, g_mid
                else:
                    stalled, b, g_b = mid == b, mid, g_mid
                if stalled or steps == _MAX_STEPS:
                    root = 0.5 * (a + b)
                    break
            start += len(path)
            if root is None:
                still_open.append((i, a, b, g_a, g_b, steps))
            else:
                roots[i] = root
        brackets = still_open
    return roots


def _predicted_mids(a: float, b: float, g_a: float, g_b: float, budget: int) -> list[float]:
    """The bisection mids of [a, b] that lead toward its regula-falsi guess.

    The list ends at the mid of the first bracket narrower than 1e-16 (where
    the bisection stops), at a mid that rounds to an end of its bracket
    (where it stalls) or after ``budget`` mids.
    """
    guess = a - g_a * (b - a) / (g_b - g_a)
    mids = []
    while len(mids) < budget:
        mid = 0.5 * (a + b)
        mids.append(mid)
        if b - a < 1e-16 or mid == a or mid == b:
            break
        if guess < mid:
            b = mid
        else:
            a = mid
    return mids


def find_aggregate_equilibria(
    game: AggregateGame,
    dist: TypeDistribution,
    scan_resolution: float = 1e-4,
) -> EquilibriumReport:
    """Locate every fixed point of the aggregate best response on [0, 1].

    The report is computed once per (game, dist, scan_resolution) and shared
    by every later call with equal arguments.
    """
    if not 0.0 < scan_resolution < 0.5:
        raise InputError(f"scan_resolution={scan_resolution} out of range")
    return _search(game, dist, float(scan_resolution))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _search(
    game: AggregateGame, dist: TypeDistribution, scan_resolution: float
) -> EquilibriumReport:
    m = int(round(1.0 / scan_resolution))
    xs = np.linspace(0.0, 1.0, m + 1)
    gs = _homogenized_velocity(game, dist, xs)
    # a vertex level within half a step of each discrete extremum of the scan
    d = np.diff(gs)
    turns = np.flatnonzero(d[:-1] * d[1:] < 0.0) + 1
    vertices = xs[turns] + 0.5 / m * (d[turns - 1] + d[turns]) / (d[turns - 1] - d[turns])
    vertices = vertices[vertices != xs[turns]]
    at = np.searchsorted(xs, vertices)
    xs = np.insert(xs, at, vertices)
    gs = np.insert(gs, at, _homogenized_velocity(game, dist, vertices))

    def g_at(j: int) -> float | None:  # no level lies beyond [0, 1]
        return float(gs[j]) if 0 <= j < gs.size else None

    # each candidate root with g at the levels on either side of it; a root
    # at a level sorts before an equal bisected one
    brackets = np.flatnonzero(gs[:-1] * gs[1:] < 0.0)
    ends = (xs[brackets], xs[brackets + 1], gs[brackets], gs[brackets + 1])
    candidates = [(float(xs[j]), g_at(j - 1), g_at(j + 1))
                  for j in np.flatnonzero(np.abs(gs) <= _ROOT_TOL)]
    candidates += [(r, g_at(j), g_at(j + 1))
                   for j, r in zip(brackets, _bisect_all(game, dist, *ends).tolist())]
    candidates.sort(key=lambda c: c[0])
    roots: list[tuple[float, float | None, float | None]] = []
    for c in candidates:
        if not roots or c[0] - roots[-1][0] > 1e-9:
            roots.append(c)

    records: list[Equilibrium] = []
    for idx, (x, g_below, g_above) in enumerate(roots):
        lo = hi = x
        if (g_below is None or g_below > 0.0) and (g_above is None or g_above < 0.0):
            stability = STABLE
            lo = roots[idx - 1][0] if idx > 0 else 0.0
            hi = roots[idx + 1][0] if idx + 1 < len(roots) else 1.0
        elif (g_below is None or g_below < 0.0) and (g_above is None or g_above > 0.0):
            stability = UNSTABLE
        else:
            stability = SEMISTABLE
        records.append(Equilibrium(xbar=x, stability=stability, basin_lo=lo, basin_hi=hi))
    return EquilibriumReport(equilibria=tuple(records))


def bayesian_equilibrium(
    game: AggregateGame,
    dist: TypeDistribution,
    grid: TypeGrid,
    xbar_star: float,
) -> BayesianStrategy:
    """Cut-off composition in which every type best-responds to xbar_star.

    Coincides with the sorted composition at xbar_star; at an aggregate
    equilibrium the cut-off type equals the indifferent type F(xbar_star), so
    the indicator form holds at every non-boundary node.
    """
    require_aggregate_equilibrium(game, dist, xbar_star)
    return sorted_composition(grid, xbar_star)

