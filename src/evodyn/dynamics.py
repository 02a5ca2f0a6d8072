"""Revision protocols and time integration of the heterogeneous dynamic.

Agents receive revision opportunities at rate one and switch only toward
the current best response.  The conditional switching rate depends on the
payoff deficit d = (payoff of the best response) - (payoff of the current
action):

* standard best-response: rate 1 whenever d > 0;
* tempered best-response: rate Q(d) with Q nondecreasing, Q(d <= 0) = 0.
  ``power`` uses Q(d) = d^k (a rate, not a probability: it may exceed 1 but
  is bounded by Q(d_max) on the deficits any game here can realize);
  ``bounded_power`` uses Q(d) = min((d / pisharp)^k, 1), strictly increasing
  up to the sensitivity bound pisharp and saturated at 1 beyond it.

The per-type law of motion at aggregate xbar with common payoff F(xbar):

    xdot(theta) = (1 - x(theta)) * rate(F - theta)   if theta <= F
    xdot(theta) = -x(theta) * rate(theta - F)        if theta >  F

(the tie contributes nothing since rate(0) = 0).  The state enters only
through the aggregate and the grid nodes are nondecreasing, so the types with
theta <= F are a prefix of the nodes: the gaps 1 - x and -x are written on two
slices, with no masks.  The split is ``bisect.bisect_right`` on the node list,
built as Python floats once per run: for a finite F it gives the index of
``np.searchsorted(theta, F, side="right")``, ties and duplicated nodes
included, at a tenth of the cost of a scalar numpy call.

The rate multiplies the gap only on the band of nodes where it is not
exactly 1 (1 * gap is gap bit for bit): the ties at F under the standard
protocol, where (1 - x) * 0 keeps the sign of 1 - x; every node under power;
the nodes with fl(|F - theta|) < pisharp under bounded_power, since past them
fl(d / pisharp) >= 1 and so min((.)^k, 1) = 1.  The band is a slice around
the cut, bisected on the node list and settled on the float deficits.

Only the nodes that can move are integrated.  A best-responding type keeps
its bits through every RK4 stage while F stays on its side: below the cut
x = 1, +0 * rate = +0 and 1 + h * +0 = 1; above it x = +0, -(+0) * rate = -0
and +0 + h * -0 = +0.  So the field and the step run on a list of live
spans, which ``integrate`` sets up and each field evaluation updates in the
shared list [a, h0, h1, b]:

* the node window [a, b) lies between the composition's leading run of 1s
  and its trailing run of zeros (stored as +0); each field evaluation widens
  it to contain its cut;
* the hole [h0, h1) skips a reversed composition's frozen middle, the
  longest run of zeros inside the window, two nodes from either end; each
  field evaluation trims it to lie at or above its cut, and closes it once
  it holds fewer than ``_HOLE_MIN`` nodes, so it only shrinks as the window
  only grows;
* the live spans are [a, h0) alone while the hole is closed (h0 = h1 = b),
  and [a, h0) and [h1, b) while it is open.  The step loops over them; the
  field computes its band once over [a, b) and cuts it at the hole.

The aggregate is ``composition.blocked_dot`` over all n nodes: a left
fold, from 0.0, of the dots of consecutive blocks of 8,192 nodes.  Each
block's dot runs on one OpenBLAS thread (a ddot of more than 10,000 elements
is split across threads, whose partial sums land in another order), so the
bits do not depend on the BLAS thread count.  A grid of one block, every
bundled and tested one, makes the one dot of all its nodes, with no slice
and no loop.  A larger grid dots only the blocks that reach into the live
spans: the blocks of 1s below a fold to a prefix computed once, and the
blocks of zeros in the hole and past b are dropped (``_window_dot``).  The
sum keeps the fold's bits.

Off the spans the stage keeps x's bits and the velocity sums stay zero (the
full step's -0 above the cut never reaches x: +0 + -0 = +0), so a span that
grows within a step picks up the full step's values and every bit is the
same.  A frozen node's rate is not evaluated, so a d^k that would overflow
there never meets its zero gap (0 * inf) and the node keeps its value.

Integration is classical fixed-step RK4; the tempered field is continuous in
the state and the grid, not the step size, governs accuracy at the
tolerances used here.  The field and the step work in place on buffers
allocated once per run, with the same operations in the same order as the
textbook formula, so they give its bits.  At the grid sizes run here
(hundreds to thousands of nodes) a step is bound by the dispatch of its
numpy calls and the Python work around them, not by arithmetic.  On one
span the step makes 13 ufunc calls and two reductions; each field
evaluation makes a dot product and 2 ufunc calls for the gap, and on a
nonempty band 5 more (cubic), 6 (bounded_power with k = 2) or 4 (standard,
at a tie).  So a step makes 27 calls with every band empty and 47 under the
cubic rate.  An open hole's second span adds the step's 13 ufunc calls and
two reductions again, and 1 to 6 calls per field evaluation.  The field and
the step therefore bind the ufuncs to locals and pass ``out`` positionally,
which skips the keyword parsing of each call.  ``np.minimum`` and
``np.maximum`` keep ``out=``: a positional output is deprecated for them as
of numpy 2.4.  A state that leaves [0, 1] is clamped back after the step, on
all n nodes, and the total clamped magnitude is kept as a diagnostic (the
continuous field points inward, so it stays negligible).  The recorded
aggregates are the field's own ``composition.aggregate`` values (from each
step's first stage, and one more evaluation for the final state).

The views those calls run on are sliced once per index state, not once per
call: the step keeps its spans' views until the window changes, and the
field keeps, for each of the step's out buffers, the views of its last
index state (a, lo, m, hi, h0, h1, b) and values array, and slices again
when either changes (``_field_function``).  The cut m and the band's ends
lo and hi are the last call's unless two float comparisons each refute
them; only then are they bisected and settled.  Over the 24 n = 500
ensemble runs of 8,001 field evaluations, the index state changed after the
first call 40.5 times on average (at most 184); on the reversed n = 32000
escape start, 76 times in 2,001 evaluations, and never on the balanced
ones.  Measured on a 2-core Xeon VM (timeit, n = 500, two buffer pairs
alternating), this took an evaluation from 5.2 to 4.1 us under the cubic
rate, 5.9 to 4.5 us under bounded_power and 2.4 to 1.8 us under the
standard rate.

Every scalar operand of the hot loop is a 0-d float64 array built once: the
constants 0, 1 and 2 per module (read-only, since every run shares them),
the step sizes per run, k and pisharp per protocol, and F(xbar) in a 0-d
buffer that each field owns and overwrites at each evaluation.  A ufunc
turns a Python float operand into exactly such an array on every call, so a
prebuilt one selects the same loop on the same values and gives the same
bits without the conversion.

The aggregate of the standard dynamic follows the homogenized smooth
best-response dynamic xbardot = P(F(xbar)) - xbar regardless of the
underlying composition; tempered dynamics are generically not aggregable.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .composition import _BLOCK, BayesianStrategy, TypeGrid
from .errors import InputError, IntegrationError
from .games import DEFAULT_DOMAIN, AggregateGame, TypeDistribution, _homogenized_velocity

KIND_STANDARD = "standard"
KIND_POWER = "power"
KIND_BOUNDED_POWER = "bounded_power"


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 operand (see the module docstring)."""
    c = np.array(value, dtype=float)
    c.flags.writeable = False
    return c


_ZERO, _ONE, _TWO = _constant(0.0), _constant(1.0), _constant(2.0)

# the fewest nodes a hole in the node window must skip to open or stay open.
# Timed on reversed starts under every protocol kind (n = 2000 to 12000),
# every hole of 2,000 nodes or fewer lost to the closed window and every hole
# of about 3,200 or more won or tied; in between, the sign turned with the
# start and the protocol.  The gate is one value inside that band.
_HOLE_MIN = 2500

# the out buffers a field keeps slices for: the integrator's acc and k
_VIEW_SETS = 2


@dataclass(frozen=True)
class RevisionProtocol:
    """Conditional switching rate as a function of the payoff deficit.

    ``saturation`` is the deficit from which the rate is constant: 0 for the
    standard rate (1 at every positive deficit), pisharp for bounded_power
    (1 from there on) and inf for power, which never saturates.  Below it a
    tempered rate is strictly increasing.
    """

    kind: str
    k: float = 1.0
    pisharp: float | None = None

    def __post_init__(self):
        if self.kind not in (KIND_STANDARD, KIND_POWER, KIND_BOUNDED_POWER):
            raise InputError(f"unknown protocol kind {self.kind!r}")
        if not math.isfinite(self.k):
            raise InputError(f"tempering exponent k={self.k} must be finite")
        if self.pisharp is not None and not math.isfinite(self.pisharp):
            raise InputError(f"sensitivity bound pisharp={self.pisharp} must be finite")
        if self.kind != KIND_STANDARD and self.k <= 0.0:
            raise InputError(f"tempering exponent k={self.k} must be positive")
        if self.kind == KIND_BOUNDED_POWER and (
            self.pisharp is None or self.pisharp <= 0.0
        ):
            raise InputError(f"sensitivity bound pisharp={self.pisharp} must be positive")
        # the rate's operands, built once: an integer k in 2..6 is kept as an
        # int for repeated multiplies (0 otherwise), and k as a 0-d exponent
        k = self.k
        object.__setattr__(self, "_int_k", int(k) if k == int(k) and 2 <= k <= 6 else 0)
        object.__setattr__(self, "_k", _constant(k))
        if self.pisharp is not None:
            object.__setattr__(self, "_pisharp", _constant(self.pisharp))

    @property
    def saturation(self) -> float:
        """The deficit from which the rate is constant (class docstring)."""
        return {KIND_STANDARD: 0.0, KIND_BOUNDED_POWER: self.pisharp}.get(self.kind, math.inf)

    def _rate_into(self, d: np.ndarray, out: np.ndarray) -> None:
        """Write the switching rate of nonnegative deficits ``d`` into ``out``.

        ``d`` is scratch (bounded_power scales it in place) and must not be
        ``out``.  Integer exponents are repeated multiplies: float pow
        dominates the integration profile otherwise.  Every scalar operand is
        a 0-d array built once (module docstring), so a call makes one to
        seven numpy calls and no conversions.  A scalar deficit runs as
        a 0-d array through the same ufunc loops as an array and gets the
        same bits.
        """
        kind = self.kind
        if kind == KIND_STANDARD:
            np.greater(d, _ZERO, out)
            return
        if kind == KIND_BOUNDED_POWER:
            np.divide(d, self._pisharp, d)
        int_k = self._int_k
        if int_k:
            multiply = np.multiply
            multiply(d, d, out)
            for _ in range(int_k - 2):
                multiply(out, d, out)
        else:
            np.power(d, self._k, out)
        if kind == KIND_BOUNDED_POWER:
            np.minimum(out, _ONE, out=out)

    def rate(self, deficit):
        """Vectorized switching rate; zero for nonpositive deficits."""
        d = np.asarray(deficit, dtype=float)
        if not np.isfinite(d).all():
            raise InputError("switching-rate deficits must be finite")
        d = np.maximum(d, 0.0, out=np.empty_like(d))
        out = np.empty_like(d)
        self._rate_into(d, out)
        return float(out) if d.ndim == 0 else out


def standard_protocol() -> RevisionProtocol:
    return RevisionProtocol(kind=KIND_STANDARD)


def power_protocol(k: float) -> RevisionProtocol:
    return RevisionProtocol(kind=KIND_POWER, k=k)


def bounded_power_protocol(k: float, pisharp: float) -> RevisionProtocol:
    return RevisionProtocol(kind=KIND_BOUNDED_POWER, k=k, pisharp=pisharp)


_Field = Callable[[np.ndarray, np.ndarray], float]


def _window_dot(weights: np.ndarray, window: list[int]) -> Callable[[np.ndarray], float]:
    """``dot(values)``: ``composition.blocked_dot(weights, values)`` for a
    state that holds 1s on [0, a) and +0 on the hole [h0, h1) and on [b, n),
    with ``window = [a, h0, h1, b]`` read at each call.

    The blocks wholly in [0, a) fold to a prefix taken from their dots on
    blocks of ones; the blocks wholly in the hole or in [b, n) dot to +-0 and
    are dropped (the fold's partial sums are never -0, and S + +-0 = S for
    any other S); only the others are dotted.  The prefix and the blocks to
    dot are worked out again when the window has changed since the last call.
    """
    n = weights.size
    blocks = [(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK)]
    ones = [float(weights[i:j].dot(np.ones(j - i))) for i, j in blocks]
    seen, prefix, live = None, 0.0, []

    def dot(values: np.ndarray) -> float:
        nonlocal seen, prefix, live
        if window != seen:
            seen, (a, h0, h1, b) = window.copy(), window
            prefix, live = 0.0, []
            for (i, j), one_dot in zip(blocks, ones):
                if j <= a:
                    prefix += one_dot
                elif i < b and not h0 <= i < j <= h1:
                    live.append((weights[i:j].dot, i, j))
        xbar = prefix
        for block_dot, i, j in live:
            xbar += float(block_dot(values[i:j]))
        return xbar

    return dot


def _field_function(
    game: AggregateGame,
    protocol: RevisionProtocol,
    grid: TypeGrid,
    window: list[int] | None = None,
) -> _Field:
    """In-place per-node field: ``field(values, out)`` writes the velocities
    on the node window and returns the aggregate it evaluated them at.

    The nodes are nondecreasing, so the types with a nonnegative gap
    F - theta form the prefix ``theta[:m]``, and those whose rate is not 1 a
    band ``[lo, hi)`` around m; the deficit is F - theta below the cut and
    theta - F after it (float negation is exact, so both equal |gap|, and
    both are nonnegative as the rate routine requires).  Each field owns the
    0-d buffer that carries F into the two subtractions.

    ``window`` is the list ``[a, h0, h1, b]`` of the module docstring: the
    nodes [a, b) less the hole [h0, h1), which is closed when h0 = h1 = b
    (default the whole grid, no hole).  The field widens the window in place
    to contain each cut and trims the hole to lie at or above it.  The band
    is found once over [a, b), then cut at the hole: ``[lo, min(hi, h0))``
    before it and ``[h1, hi)`` past it.

    The cut and the band are the last call's unless a re-check fails: m is
    right when ``cuts[m - 1] <= F < cuts[m]`` (no bound below at m = 0, none
    above at m = n), lo when ``lo == a`` or the deficit at lo - 1 exceeds ``width``,
    and ``lo == m`` or the deficit at lo is at most ``width``, and hi
    mirrored.  The deficits are monotone on each side of the cut, so one lo
    and one hi pass: the ones the bisection and the settling on the float
    deficits find when a check fails.  The slices of ``theta``, ``values``,
    ``out`` and the rate scratch are built once per index state
    (a, lo, m, hi, h0, h1, b): each ``out`` buffer keeps one view set, with
    the ``values`` array it was sliced from and its state, and a call on
    another state or another ``values`` array (the clamp rebinds the
    integrator's state) slices again.  At most ``_VIEW_SETS`` buffers keep a
    set, the integrator's ``acc`` and ``k``; a set for another buffer drops
    the oldest.  The state changes rarely: after the first call, 40.5 times
    in the 8,001 evaluations of an n = 500 ensemble run on average and 76
    times in the 2,001 of the reversed n = 32000 escape start (module
    docstring), so nearly every call reuses both the search and the slices.
    """
    theta = grid.nodes
    cuts = theta.tolist()
    n = grid.n
    slope, intercept = game.slope, game.intercept
    dom_lo, dom_hi = DEFAULT_DOMAIN
    subtract, negative, multiply, one = np.subtract, np.negative, np.multiply, _ONE
    # the band: the deficits at most ``width``, the largest double below the
    # saturation (the tie alone under the standard protocol, where both are
    # 0), every node under power
    saturation = protocol.saturation
    whole = saturation == math.inf
    width = math.nextafter(saturation, 0.0)
    scratch, c0 = np.empty(n), np.empty(())
    rate_into = protocol._rate_into
    if window is None:
        window = [0, n, n, n]
    a, h0, h1, b = window
    # the last call's cut and band ends, which the re-checks refute unless
    # right; a only falls and b only rises, so lo >= a and hi <= b hold and
    # every index the checks read is on the grid
    lo = m = hi = a
    # a grid of one block makes blocked_dot's one dot without its call,
    # which cost ensemble (n = 500) about 5%; a larger one skips the blocks
    # the window has frozen, which the balanced escape-large starts need
    dot = grid.weights.dot if n <= _BLOCK else _window_dot(grid.weights, window)
    # id(out) -> (values, out, state, below, gaps, past); holding both arrays
    # keeps their ids from being reused while the set is kept
    sets: dict[int, tuple] = {}

    def views(values, out, state):
        a, lo, m, hi, h0, h1, b = state
        end = hi if hi < h0 else h0
        below = past = None
        if lo < end:
            below = (theta[lo:m], out[lo:m], theta[m:end], out[m:end], out[lo:end],
                     scratch[lo:end])
        gaps = values[a:m], out[a:m], values[m:h0], out[m:h0]
        if h0 < h1:
            upper = (theta[h1:hi], out[h1:hi], scratch[h1:hi]) if h1 < hi else None
            past = values[h1:b], out[h1:b], upper
        return values, out, state, below, gaps, past

    def field(values: np.ndarray, out: np.ndarray) -> float:
        nonlocal a, lo, m, hi, h0, h1, b
        xbar = float(dot(values))
        if not dom_lo <= xbar <= dom_hi:
            raise InputError(f"aggregate {xbar!r} left the payoff evaluation domain")
        common = slope * xbar + intercept
        # the last cut, unless F has left its nodes' interval
        if not ((m == 0 or cuts[m - 1] <= common) and (m == n or common < cuts[m])):
            m = bisect_right(cuts, common)
        if m < a:
            a = window[0] = m
        elif h0 < m:
            if b < m:
                window[1:] = h0, h1, b = m, m, m
            else:
                # the hole's nodes below the cut can move: trim them off, and
                # close the hole once what is left would not pay
                h0, h1 = (m, h1) if h1 - m >= _HOLE_MIN else (b, b)
                window[1:3] = h0, h1
        if whole:
            lo, hi = a, b
        else:
            # re-check the last band's ends; on a failure bisect on the
            # rounded band edges, then settle each end on the float deficits,
            # which are monotone on either side of the cut; all within the
            # window
            if not ((lo == a or common - cuts[lo - 1] > width)
                    and (lo == m or common - cuts[lo] <= width)):
                lo = bisect_left(cuts, common - width, a, m)
                while lo > a and common - cuts[lo - 1] <= width:
                    lo -= 1
                while lo < m and common - cuts[lo] > width:
                    lo += 1
            if not ((hi == b or cuts[hi] - common > width)
                    and (hi == m or cuts[hi - 1] - common <= width)):
                hi = bisect_right(cuts, common + width, m, b)
                while hi > m and cuts[hi - 1] - common > width:
                    hi -= 1
                while hi < b and cuts[hi] - common <= width:
                    hi += 1
        state = (a, lo, m, hi, h0, h1, b)
        key = id(out)
        kept = sets.get(key)
        if kept is None or kept[0] is not values or kept[2] != state:
            if kept is None and len(sets) == _VIEW_SETS:
                del sets[next(iter(sets))]
            kept = sets[key] = views(values, out, state)
        below, (v0, o0, v1, o1), past = kept[3:]
        # the band's part before the hole
        if below:
            c0[()] = common
            t0, o2, t1, o3, band, rate = below
            subtract(c0, t0, o2)
            subtract(t1, c0, o3)
            rate_into(band, rate)
        subtract(one, v0, o0)
        negative(v1, o1)
        if below:
            multiply(band, rate, band)
        if past:
            # past the hole every node is above the cut; the band's part
            # there is [h1, hi), empty unless the band reaches past the hole
            v2, o4, upper = past
            if upper:
                c0[()] = common
                t2, band, rate = upper
                subtract(t2, c0, band)
                rate_into(band, rate)
            negative(v2, o4)
            if upper:
                multiply(band, rate, band)
        return xbar

    return field


def vector_field(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    x: BayesianStrategy,
) -> np.ndarray:
    """Per-node participation velocities at the strategy's own aggregate."""
    out = np.empty(x.grid.n)
    _field_function(game, protocol, x.grid)(x.values, out)
    return out


@dataclass(frozen=True)
class Trajectory:
    """Recorded aggregate path plus optional full-strategy snapshots."""

    times: np.ndarray
    xbars: np.ndarray
    snapshots: tuple[tuple[float, np.ndarray], ...]
    clamp_total: float
    final_values: np.ndarray

    @property
    def final_xbar(self) -> float:
        return float(self.xbars[-1])

    def xbar_at(self, t: float) -> float:
        """Aggregate at the recorded step time nearest to ``t``, which must be
        finite: argmin over NaN distances would pick the first step."""
        if not math.isfinite(t):
            raise InputError(f"time {t!r} must be finite")
        idx = int(np.argmin(np.abs(self.times - t)))
        return float(self.xbars[idx])


def _rk4(
    field: _Field,
    window: list[int],
    x0: np.ndarray,
    t_end: float,
    dt: float,
    snapshot_times: Sequence[float],
) -> Trajectory:
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise InputError(f"t_end={t_end} must be positive and finite")
    if not (np.isfinite(dt) and dt > 0.0):
        raise InputError(f"dt={dt} must be positive and finite")
    ratio = t_end / dt
    if not np.isfinite(ratio):
        raise InputError(f"t_end={t_end} / dt={dt} is not a finite step count")

    steps = max(int(round(ratio)), 1)
    wanted = sorted(float(s) for s in snapshot_times)
    # the recording loop below takes every time up to steps * dt + 1e-12
    for s in wanted:
        if not (math.isfinite(s) and s <= steps * dt + 1e-12):
            raise InputError(f"snapshot time {s!r} must be finite and at most {steps * dt!r}")
    try:
        times = np.arange(steps + 1) * dt
        xbars = np.empty(steps + 1)
    except (ValueError, MemoryError):  # numpy refuses or fails the step arrays
        raise InputError(f"{steps:.6g} steps are too many to allocate") from None
    snaps: list[tuple[float, np.ndarray]] = []
    clamp_total = 0.0

    # outside the window (module docstring) stage is x and acc, k stay zero
    x = np.array(x0, dtype=float)
    stage, acc, k = x.copy(), np.zeros_like(x), np.zeros_like(x)
    half, sixth, step_dt, two = _constant(0.5 * dt), _constant(dt / 6.0), _constant(dt), _TWO
    t = 0.0
    si = 0
    while si < len(wanted) and wanted[si] <= 0.0:
        snaps.append((t, x.copy()))
        si += 1

    def views():
        # the window's live spans: [a, h0), and [h1, b) past an open hole
        a, h0, h1, b = window
        spans = ((a, h0), (h1, b)) if h0 < h1 else ((a, h0),)
        return window.copy(), [(x[i:j], stage[i:j], acc[i:j], k[i:j]) for i, j in spans]

    add, multiply = np.add, np.multiply
    state_min, state_max = np.minimum.reduce, np.maximum.reduce
    seen = None
    for step in range(1, steps + 1):
        # x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated stage by stage
        # (doubling is exact, so 2 k is k * 2 in place) on the views of the
        # window's spans, rebuilt when a field call widened the window or
        # trimmed its hole, or the clamp rebound x
        xbars[step - 1] = field(x, acc)
        if window != seen:
            seen, spans = views()
        for xw, sw, aw, kw in spans:
            multiply(aw, half, sw)
            add(xw, sw, sw)
        for coefficient in (half, step_dt):
            field(stage, k)
            if window != seen:
                seen, spans = views()
            for xw, sw, aw, kw in spans:
                multiply(kw, coefficient, sw)
                add(xw, sw, sw)
                multiply(kw, two, kw)
                add(aw, kw, aw)
        field(stage, k)
        if window != seen:
            seen, spans = views()
        inside = True
        for xw, sw, aw, kw in spans:
            add(aw, kw, aw)
            multiply(aw, sixth, aw)
            add(xw, aw, xw)
            # NaN fails both comparisons; +-inf shows in the min or the max
            inside = inside and state_min(xw) >= 0.0 and state_max(xw) <= 1.0
        t = step * dt
        if not inside:
            if not np.isfinite(x).all():
                raise IntegrationError("state became non-finite", time=t)
            clipped = np.clip(x, 0.0, 1.0)
            clamp_total += float(np.abs(x - clipped).sum())
            x, seen = clipped, None
        while si < len(wanted) and wanted[si] <= t + 1e-12:
            snaps.append((t, x.copy()))
            si += 1
    xbars[steps] = field(x, k)

    return Trajectory(
        times=times,
        xbars=xbars,
        snapshots=tuple(snaps),
        clamp_total=clamp_total,
        final_values=x,
    )


def integrate(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    x0: BayesianStrategy,
    t_end: float,
    dt: float,
    snapshot_times: Sequence[float] = (),
) -> Trajectory:
    """Integrate the heterogeneous dynamic from composition ``x0``.

    Records (t, aggregate) every step and full strategies at the requested
    snapshot times (snapped to the next step boundary; a negative time to
    t = 0).  A non-finite time, or one after the last step, raises InputError.
    """
    # the frozen runs' window (module docstring), two nodes at least: numpy's
    # in-place ufuncs take a slow path on one-element operands (0.8 us, not 0.3)
    x, n = x0.values, x0.grid.n
    a = int((x == 1.0).cumprod().sum())
    b = max(n - int((x[::-1] == 0.0).cumprod().sum()), min(a + 2, n))
    a = max(min(a, b - 2), 0)
    # the hole: the longest run of zeros that leaves two nodes on either side
    # of it in the window, opened if it has _HOLE_MIN nodes
    zero = np.concatenate(([False], x[a + 2 : b - 2] == 0.0, [False]))
    runs = np.flatnonzero(zero[1:] != zero[:-1]).reshape(-1, 2) + (a + 2)
    h0 = h1 = b
    if len(runs):
        start, end = runs[np.argmax(runs[:, 1] - runs[:, 0])].tolist()
        if end - start >= _HOLE_MIN:
            h0, h1 = start, end
    window = [a, h0, h1, b]
    field = _field_function(game, protocol, x0.grid, window)
    return _rk4(field, window, x, t_end, dt, snapshot_times)


def homogenized_field(
    game: AggregateGame, dist: TypeDistribution, xbar: float
) -> float:
    """Scalar field of the homogenized smooth dynamic: P(F(xbar)) - xbar."""
    if not 0.0 <= xbar <= 1.0:
        raise InputError(f"xbar={xbar} outside [0, 1]")
    return _homogenized_velocity(game, dist, xbar)


def integrate_homogenized(
    game: AggregateGame,
    dist: TypeDistribution,
    xbar0: float,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the scalar homogenized dynamic from aggregate ``xbar0``."""
    if not 0.0 <= xbar0 <= 1.0:
        raise InputError(f"xbar0={xbar0} outside [0, 1]")

    def field(state: np.ndarray, out: np.ndarray) -> float:
        x = min(max(float(state[0]), 0.0), 1.0)
        out[0] = _homogenized_velocity(game, dist, x)
        return float(state[0])

    return _rk4(field, [0, 1, 1, 1], np.array([xbar0]), t_end, dt, snapshot_times=())
