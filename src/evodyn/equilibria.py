"""Aggregate equilibria of the homogenized dynamic and their stability.

An aggregate equilibrium is a fixed point of xbar -> P(F(xbar)), i.e. a zero
of g(xbar) = P(F(xbar)) - xbar on [0, 1] (with the c.d.f. clamped at the
support, so corners where F leaves the support qualify).  Roots are located
by a sign scan of g on a uniform grid, then every sign-change bracket is
bisected at once: the brackets step in lockstep with one array evaluation of
g per step.  Stability is classified from the sign of g on each side (both
probes of every root in one evaluation), which treats interior roots and
clamped corners uniformly:

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
    game: AggregateGame, dist: TypeDistribution, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Bisect every sign-change bracket [lo[i], hi[i]] of g at once.

    Each bracket takes the decisions of a scalar bisection: return an
    endpoint where |g| <= _ROOT_TOL, else halve until |g(mid)| <= _ROOT_TOL
    or the bracket is narrower than 1e-16, for at most 200 steps.  Brackets
    that are still open step together, one array evaluation of g per step.
    """
    roots = np.empty_like(lo)
    if lo.size == 0:
        return roots
    lo, hi = lo.copy(), hi.copy()
    g_lo, g_hi = np.split(_homogenized_velocity(game, dist, np.concatenate((lo, hi))), 2)
    at_lo = np.abs(g_lo) <= _ROOT_TOL
    at_hi = ~at_lo & (np.abs(g_hi) <= _ROOT_TOL)
    roots[at_lo], roots[at_hi] = lo[at_lo], hi[at_hi]
    open_ = np.flatnonzero(~(at_lo | at_hi))
    for _ in range(200):
        if open_.size == 0:
            return roots
        a, b = lo[open_], hi[open_]
        mid = 0.5 * (a + b)
        g_mid = _homogenized_velocity(game, dist, mid)
        done = (np.abs(g_mid) <= _ROOT_TOL) | (b - a < 1e-16)
        roots[open_[done]] = mid[done]
        move_lo = (g_lo[open_] < 0.0) == (g_mid < 0.0)
        left, right = open_[move_lo], open_[~move_lo]
        lo[left], g_lo[left] = mid[move_lo], g_mid[move_lo]
        hi[right] = mid[~move_lo]
        open_ = open_[~done]
    roots[open_] = 0.5 * (lo[open_] + hi[open_])
    return roots


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

    brackets = np.flatnonzero(gs[:-1] * gs[1:] < 0.0)
    candidates = [float(xs[i]) for i in np.flatnonzero(np.abs(gs) <= _ROOT_TOL)]
    candidates += _bisect_all(game, dist, xs[brackets], xs[brackets + 1]).tolist()
    candidates.sort()
    roots: list[float] = []
    for r in candidates:
        if not roots or r - roots[-1] > 1e-9:
            roots.append(r)

    # one evaluation of g for both side probes of every root; a probe that
    # would leave [0, 1] is absent (None)
    delta = scan_resolution / 2.0
    levels = np.array(roots)
    has_below, has_above = levels > delta, levels < 1.0 - delta
    probes = iter(_homogenized_velocity(game, dist, np.concatenate((
        np.maximum(levels[has_below] - delta, 0.0),
        np.minimum(levels[has_above] + delta, 1.0),
    ))).tolist())
    below = [next(probes) if ok else None for ok in has_below]
    above = [next(probes) if ok else None for ok in has_above]

    records: list[Equilibrium] = []
    for idx, (x, g_below, g_above) in enumerate(zip(roots, below, above)):
        if (g_below is None or g_below > 0.0) and (g_above is None or g_above < 0.0):
            stability = STABLE
        elif (g_below is None or g_below < 0.0) and (g_above is None or g_above > 0.0):
            stability = UNSTABLE
        else:
            stability = SEMISTABLE
        if stability == STABLE:
            lo = roots[idx - 1] if idx > 0 else 0.0
            hi = roots[idx + 1] if idx + 1 < len(roots) else 1.0
        else:
            lo = hi = x
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

