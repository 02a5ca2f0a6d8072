"""Aggregate equilibria of the homogenized dynamic and their stability.

An aggregate equilibrium is a fixed point of xbar -> P(F(xbar)), i.e. a zero
of g(xbar) = P(F(xbar)) - xbar on [0, 1] (with the c.d.f. clamped at the
support, so corners where F leaves the support qualify).  Roots are located
by a sign scan plus bisection; stability is classified from the sign of g on
each side, which treats interior roots and clamped corners uniformly:

    stable      g > 0 below and g < 0 above (one-sided at corners)
    unstable    g < 0 below and g > 0 above
    semistable  anything else

The basin of a stable equilibrium under the scalar dynamic runs to the
adjacent equilibria (or the domain boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import BayesianStrategy, TypeGrid, sorted_composition
from .dynamics import homogenized_field
from .errors import InputError
from .games import (
    AggregateGame,
    TypeDistribution,
    aggregate_best_response,
    require_aggregate_equilibrium,
)

STABLE = "stable"
UNSTABLE = "unstable"
SEMISTABLE = "semistable"

_ROOT_TOL = 1e-12


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

    def locate(self, xbar: float, tol: float = 1e-6) -> Equilibrium:
        for eq in self.equilibria:
            if abs(eq.xbar - xbar) <= tol:
                return eq
        raise InputError(f"{xbar} is not a reported equilibrium (tol {tol})")


def _bisect(g, lo: float, hi: float) -> float:
    g_lo = g(lo)
    if abs(g_lo) <= _ROOT_TOL:
        return lo
    g_hi = g(hi)
    if abs(g_hi) <= _ROOT_TOL:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= _ROOT_TOL or hi - lo < 1e-16:
            return mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return 0.5 * (lo + hi)


def find_aggregate_equilibria(
    game: AggregateGame,
    dist: TypeDistribution,
    scan_resolution: float = 1e-4,
) -> EquilibriumReport:
    """Locate every fixed point of the aggregate best response on [0, 1]."""
    if not 0.0 < scan_resolution < 0.5:
        raise InputError(f"scan_resolution={scan_resolution} out of range")

    def g(x: float) -> float:
        return homogenized_field(game, dist, x)

    m = int(round(1.0 / scan_resolution))
    xs = np.linspace(0.0, 1.0, m + 1)
    gs = np.asarray(aggregate_best_response(game, dist, xs)) - xs

    candidates = [float(xs[i]) for i in np.flatnonzero(np.abs(gs) <= _ROOT_TOL)]
    candidates += [
        _bisect(g, float(xs[i]), float(xs[i + 1]))
        for i in np.flatnonzero(gs[:-1] * gs[1:] < 0.0)
    ]
    candidates.sort()
    roots: list[float] = []
    for r in candidates:
        if not roots or r - roots[-1] > 1e-9:
            roots.append(r)

    delta = scan_resolution / 2.0
    records: list[Equilibrium] = []
    for idx, r in enumerate(roots):
        below = g(max(r - delta, 0.0)) if r > delta else None
        above = g(min(r + delta, 1.0)) if r < 1.0 - delta else None
        if (below is None or below > 0.0) and (above is None or above < 0.0):
            stability = STABLE
        elif (below is None or below < 0.0) and (above is None or above > 0.0):
            stability = UNSTABLE
        else:
            stability = SEMISTABLE
        if stability == STABLE:
            lo = roots[idx - 1] if idx > 0 else 0.0
            hi = roots[idx + 1] if idx + 1 < len(roots) else 1.0
        else:
            lo = hi = r
        records.append(Equilibrium(xbar=r, stability=stability, basin_lo=lo, basin_hi=hi))
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


def cutoff_type(dist: TypeDistribution, xbar: float) -> float:
    """Boundary type of the sorted composition with aggregate xbar."""
    if not 0.0 <= xbar <= 1.0:
        raise InputError(f"xbar={xbar} outside [0, 1]")
    return float(dist.inverse_cdf(xbar))
