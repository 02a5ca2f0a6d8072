"""Aggregate equilibria of the homogenized dynamic and their stability.

An aggregate equilibrium is a fixed point of xbar -> P(F(xbar)), i.e. a zero
of g(xbar) = P(F(xbar)) - xbar on [0, 1] (with the c.d.f. clamped at the
support, so corners where F leaves the support qualify).  g is read on a
uniform grid of levels and at the vertex of the parabola through each
discrete extremum of that scan (where consecutive differences of g change
sign) and its two neighbours, where the extremum lies within its second
difference plus 1e-12 of 0 (``_vertices``, the certified-set scan's vertex
rule too), so g keeps its sign or is monotone between consecutive levels
wherever the scan resolves its turns (Brent 1973, ch. 4).  A level where
|g| <= 1e-12 is a root.  Every other sign change of g between two levels is
narrowed, all at once, by ``_narrow``, the bracket kernel that also narrows
the certified sets in ``stability``, until the bracket is at most 1e-16 wide
or its ends are adjacent doubles; the root is its end where g is exactly 0,
else its mid, so it lies within 1e-16 of a sign change of g (about an ulp).
Each root is labelled from g at the levels on either side of it, interior
roots and clamped corners alike:

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
# each narrowing round splits a bracket into _SECTIONS cells (and the
# certified-set search scans _SECTIONS**2 of them)
_SECTIONS = 32
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


# fractions of a bracket that a narrowing round evaluates: its split into
# _SECTIONS cells, with both ends, then a ladder at 4**-j of its width on
# both sides of the regula-falsi guess, which is added where _AROUND is 1
_LADDER = 4.0 ** -np.arange(1, 16)
_OFFSETS = np.concatenate((np.arange(_SECTIONS + 1) / _SECTIONS, _LADDER, -_LADDER))
_AROUND = (np.arange(_OFFSETS.size) > _SECTIONS).astype(float)


def _narrow(evaluate, a, gap_a, b, gap_b, tol: float):
    """Narrow every bracket [a[i], b[i]] (either order) around the level
    where membership flips, all brackets at once.

    ``a`` is a member level and ``b`` a non-member one, with the gaps
    there; ``evaluate(levels, live)`` returns the membership and the gap at
    the 2-d ``levels``, whose row k belongs to bracket ``live[k]``.  A round
    evaluates, in every open bracket, its ends, the inner levels of its
    split into ``_SECTIONS`` and a ladder at 4**-j of its width on both
    sides of the regula-falsi guess from the gaps, all in one call.  It
    keeps the cell that holds the first non-member level seen from the
    member end, so each round shrinks a bracket at least ``_SECTIONS``-fold,
    until it is narrower than ``tol`` or its ends are adjacent doubles.
    Returns the final a, gap_a, b and gap_b.

    The open brackets' ends and gaps are the four rows of one array, the
    offsets are module constants, the levels are built in place and the new
    ends are read by flat index, so that besides ``evaluate`` a round makes
    27 numpy calls whatever the number of brackets, and 3 more in a round
    that closes one.
    """
    ends = np.array((a, b, gap_a, gap_b), dtype=float)
    live = np.arange(ends.shape[1])
    # the flat index of the first level of each row of a round's levels
    row_starts = live * _OFFSETS.size
    state = ends
    while True:
        lo, hi = state[0], state[1]
        width = hi - lo
        open_ = (np.abs(width) > tol) & (np.nextafter(lo, hi) != hi)
        if not open_.all():
            live, state, width = live[open_], state[:, open_], width[open_]
            lo, hi = state[0], state[1]
        if not live.size:
            return ends[0], ends[2], ends[1], ends[3]
        gap_lo, gap_hi = state[2], state[3]
        guess = gap_lo / np.where(gap_lo != gap_hi, gap_lo - gap_hi, np.inf)
        levels = np.multiply(guess[:, None], _AROUND)
        levels += _OFFSETS
        np.maximum(levels, 0.0, out=levels)
        np.minimum(levels, 1.0, out=levels)
        levels.sort(axis=1)
        levels *= width[:, None]
        levels += lo[:, None]
        levels[:, -1] = hi
        member, gaps = evaluate(levels, live)
        # levels[lead - 1] is the last member before the first non-member
        # level, levels[lead]; both are read from the flattened rows.  The
        # first level is the member end and the last the non-member end, so
        # 0 < lead < the row's length
        lead = member.argmin(axis=1) + row_starts[: live.size]
        pick = np.concatenate((lead - 1, lead))
        state = np.concatenate((levels.take(pick), gaps.take(pick))).reshape(4, -1)
        ends[:, live] = state


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


@functools.lru_cache(maxsize=4)
def _scan_levels(m: int) -> np.ndarray:
    """The m + 1 evenly spaced scan levels of [0, 1], built once and read-only."""
    xs = np.linspace(0.0, 1.0, m + 1)
    xs.flags.writeable = False  # shared by every search at this resolution
    return xs


def _insert_sorted(arr, at, values):
    """``np.insert(arr, at, values, axis=-1)`` for nondecreasing ``at``, as
    one concatenate of the slices of ``arr`` between the values."""
    pieces, start = [], 0
    for i, stop in enumerate(at.tolist()):
        pieces += (arr[..., start:stop], values[..., i : i + 1])
        start = stop
    pieces.append(arr[..., start:])
    return np.concatenate(pieces, axis=-1)


def _vertices(xs, values, cells: int):
    """The sorted vertex levels of the scan ``values`` (one row or several)
    at the levels ``xs``, ``cells`` cells per unit (Brent 1973, ch. 4).

    At each discrete extremum of a row (where its consecutive differences
    change sign) within its second difference plus ``_ROOT_TOL`` of 0, the
    vertex of the parabola through it and its two neighbours, within half a
    cell of it, unless it rounds to the scan level.  An extremum farther
    from 0 shares its sign with both neighbours, all clear of the
    tolerance, and the parabola's vertex value lies within an eighth of the
    second difference of it, so its two cells hold no sign change or level
    root the parabola predicts.  Four calls find the turns; the rest run on
    the turns only.
    """
    d = values[..., 1:] - values[..., :-1]
    *row, turn = (d[..., :-1] * d[..., 1:] < 0.0).nonzero()
    d_below, d_above = d[(*row, turn)], d[(*row, turn + 1)]
    at_turns = xs[turn + 1]
    keep = np.abs(values[(*row, turn + 1)]) <= np.abs(d_above - d_below) + _ROOT_TOL
    vertices = at_turns + 0.5 / cells * (d_below + d_above) / (d_below - d_above)
    return np.sort(vertices[keep & (vertices != at_turns)])


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _search(
    game: AggregateGame, dist: TypeDistribution, scan_resolution: float
) -> EquilibriumReport:
    """The report of ``find_aggregate_equilibria``.

    Besides g and ``_narrow``, the search makes 10 numpy calls on the whole
    scan (g's differences and their sign changes, g's sign changes and the
    levels where |g| <= 1e-12), two concatenates where there are vertex
    levels, and about 40 more on the few turns, brackets and roots.  The
    scan levels are built once per resolution (``_scan_levels``).
    """
    m = int(round(1.0 / scan_resolution))
    xs = _scan_levels(m)
    gs = _homogenized_velocity(game, dist, xs)
    vertices = _vertices(xs, gs, m)
    if vertices.size:
        at = xs.searchsorted(vertices)
        gs = _insert_sorted(gs, at, _homogenized_velocity(game, dist, vertices))
        xs = _insert_sorted(xs, at, vertices)

    def g_at(j: int) -> float | None:  # no level lies beyond [0, 1]
        return float(gs[j]) if 0 <= j < gs.size else None

    # each candidate root with g at the levels on either side of it; a
    # sign-change bracket with an end where |g| <= _ROOT_TOL already holds
    # that level root, so only the others are narrowed
    small = np.abs(gs) <= _ROOT_TOL
    candidates = [(float(xs[j]), g_at(j - 1), g_at(j + 1)) for j in small.nonzero()[0]]
    brackets = (gs[:-1] * gs[1:] < 0.0).nonzero()[0]
    brackets = brackets[~(small[brackets] | small[brackets + 1])]
    side = np.sign(gs[brackets])

    def evaluate(levels, live):  # a member level has g of the low end's sign
        g = _homogenized_velocity(game, dist, levels)
        return g * side[live, None] > 0.0, g

    a, _, b, g_b = _narrow(evaluate, xs[brackets], gs[brackets], xs[brackets + 1],
                           gs[brackets + 1], 1e-16)
    # the non-member end where g is exactly 0, else the final bracket's mid
    narrowed = np.where(g_b == 0.0, b, 0.5 * (a + b))
    candidates += [(r, g_at(j), g_at(j + 1)) for j, r in zip(brackets, narrowed.tolist())]
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

