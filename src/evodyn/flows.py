"""Flow-source distributions and escape analysis at aggregate equilibria.

When the aggregate sits at a reference level, the agents who are not
best-responding split into two flow sources: the *inflow* source (types
below the indifferent type still playing O) and the *outflow* source (types
above it still playing I).  Collecting each source's switching rates with
their masses gives two atomic distributions.  ``flow_distributions`` takes
one atom per grid node, so on the grid every c.d.f. and integral below is an
exact finite sum.

These distributions carry the aggregate dynamics at the reference point:

* the aggregate velocity is (sum of rate * mass over inflows) minus the same
  over outflows, matching the per-node quadrature exactly;
* the aggregate stays put iff the two distributions coincide (detailed
  balance); the sup-distance between their c.d.f.s is the residual;
* if the outflow distribution second-order stochastically dominates the
  inflow one, the aggregate stays strictly below the equilibrium at every
  later time (and symmetrically above when dominated);
* freezing every rate at its time-0 value yields the closed-form trajectory

      bound(t) = xbar* - sum_in m e^(-q t) + sum_out m e^(-q t),

  an upper bound on the true aggregate: falling aggregates only speed exits
  and slow entries.  If the bound stays below xbar* and dips under a
  certified decrease level, the true path reaches that level in finite time
  and never crosses back.

The grid atoms are the midpoint rule in the quantile u = P(theta) of the
continuum sources.  One reader, ``start_sources``, gives a start's level
and its two sources, for the ``flows`` report, the dominance verdict and
the escape bound alike.  A start whose constructor recorded the continuum
composition it stands for (``BayesianStrategy.construction``: a sorted or
reversed cut-off, or a balanced start), on a grid ``make_grid`` built for
the distribution (``TypeGrid.dist``), is read at the level it was built at,
from Gauss-Legendre atoms of the continuum sources (Golub & Welsch, Math.
Comp. 23, 1969), which carry no grid discretization error; every other
start is read at its grid aggregate, from the grid atoms, whatever its
values.  One step turns a quantile span into atoms
(``_gauss_legendre_source``).

``escape_certificate`` (this bound for one composition) and
``rate_ratio_escape_bound`` (the reversed composition's two extreme rates,
from the equilibrium set) are separate certificates; neither calls the other.
Both take their certified decrease levels from ``stability``, which owns the
decrease set; this module scans no levels itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .composition import (
    BalancedRecord,
    BayesianStrategy,
    Cutoff,
    aggregate,
    blocked_dot,
)
from .dynamics import RevisionProtocol
from .equilibria import STABLE, UNSTABLE, find_aggregate_equilibria
from .errors import AnalysisError, InputError
from .games import AggregateGame, TypeDistribution, require_aggregate_equilibrium
from .stability import critical_mass_sets, is_critical_mass_decrease

O_DOMINATES = "O_dominates"
I_DOMINATES = "I_dominates"
INCOMPARABLE = "incomparable"

# Fixed numerical settings: the first and the number of log-spaced bound
# samples, and the slack of strict dominance.
_BOUND_FIRST_TIME = 1e-3
_BOUND_SAMPLES = 2000
_STRICT_TOL = 1e-12
# Exponentials per block of the frozen-rate bound (512 KB of float64): one
# block of all 2000 samples would need hundreds of megabytes at the largest
# grids used.
_BOUND_BLOCK_ELEMENTS = 65536
# Gauss-Legendre nodes per quantile interval of a source.  On the random
# coordination games of the ``certify`` benchmark, the bound of a cut-off
# composition from 128 nodes per interval is within 1.3e-15 of a 256-node
# rule at every sample, and within 4.8e-14 on the hardest logistic intervals
# found (s = 0.03, pisharp = 0.2, next to the support end), where 112 nodes
# miss by 6e-13.  On 600 random balanced starts of the canonical game, under
# every protocol kind, the frozen-rate sum of the source is within 3.2e-16.
_QUADRATURE_NODES = 128


@dataclass(frozen=True)
class SwitchingRateDistribution:
    """Atomic distribution of switching rates (or payoff deficits) in a source."""

    qs: np.ndarray
    ms: np.ndarray

    def __post_init__(self):
        qs = np.asarray(self.qs, dtype=float)
        ms = np.asarray(self.ms, dtype=float)
        if qs.shape != ms.shape or qs.ndim != 1:
            raise InputError("atom values and masses must be 1-d arrays of equal length")
        for name, arr in (("atom values", qs), ("masses", ms)):
            # negated so that NaN, which fails every comparison, is refused
            if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
                raise InputError(f"{name} must be finite and nonnegative")
        keep = ms > 0.0
        qs, ms = qs[keep], ms[keep]
        order = qs.argsort(kind="stable")
        # gathered anew, so each array is the instance's own, contiguous copy
        qs, ms = qs[order], ms[order]
        if ms.sum(initial=0.0) > 1.0 + 1e-9:
            raise InputError("total atom mass exceeds 1")
        qs.flags.writeable = ms.flags.writeable = False
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "ms", ms)

    @property
    def total_mass(self) -> float:
        return float(self.ms.sum(initial=0.0))

    def cdf(self, q) -> np.ndarray:
        """Right-continuous c.d.f. evaluated at ``q`` (scalar or array)."""
        points = np.asarray(q, dtype=float)
        cum = np.concatenate(([0.0], self.ms.cumsum()))
        out = cum[self.qs.searchsorted(points, side="right")]
        return float(out) if points.ndim == 0 else out

    def integrated_cdf(self, q) -> np.ndarray:
        """Exact integral of the c.d.f. from -inf to ``q``: sum m_k (q - q_k)+."""
        points = np.asarray(q, dtype=float)
        cum_m = np.concatenate(([0.0], self.ms.cumsum()))
        cum_qm = np.concatenate(([0.0], (self.ms * self.qs).cumsum()))
        idx = self.qs.searchsorted(points, side="right")
        out = points * cum_m[idx] - cum_qm[idx]
        return float(out) if points.ndim == 0 else out


def flow_distributions(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    x: BayesianStrategy,
    xbar_ref: float,
) -> tuple[SwitchingRateDistribution, SwitchingRateDistribution]:
    """Switching-rate distributions (inflow to I, outflow from I) at ``xbar_ref``.

    One atom per grid node, its rate frozen at the common payoff F(xbar_ref);
    the composition's own aggregate need not equal the reference.
    """
    theta = x.grid.nodes
    w = x.grid.weights
    common = game.payoff(xbar_ref)
    below = theta < common
    above = theta > common
    inflow = SwitchingRateDistribution(
        qs=protocol.rate(common - theta[below]),
        ms=w[below] * (1.0 - x.values[below]),
    )
    outflow = SwitchingRateDistribution(
        qs=protocol.rate(theta[above] - common),
        ms=w[above] * x.values[above],
    )
    return inflow, outflow


@functools.cache
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    # imported here: numpy.polynomial adds milliseconds to every CLI start
    from numpy.polynomial.legendre import leggauss

    z, w = leggauss(nodes)
    z.flags.writeable = w.flags.writeable = False  # shared by every caller
    return z, w


def _continuum_record(
    game: AggregateGame, dist: TypeDistribution, protocol: RevisionProtocol, x: BayesianStrategy
) -> Cutoff | BalancedRecord | None:
    """``x``'s construction record if its sources may be read off the
    continuum composition it stands for, else None.

    k must be an integer (every source has an end where the deficit d
    vanishes, and a d^k not smooth there makes Gauss-Legendre converge only
    algebraically), the grid one ``make_grid`` built for ``dist``, and a
    balanced record built for ``game`` and ``dist``.
    """
    record = x.construction
    if record is None or not float(protocol.k).is_integer() or x.grid.dist != dist:
        return None
    if isinstance(record, BalancedRecord) and (record.game != game or record.dist != dist):
        return None
    return record


def _gauss_legendre_source(
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    common: float,
    side: float,
    span: tuple[float, float],
    nodes: int,
    share: float = 1.0,
) -> SwitchingRateDistribution:
    """One flow source from Gauss-Legendre atoms on a quantile span.

    ``side`` is -1 for the inflow (deficit F - theta, F = ``common``) and 1
    for the outflow; ``share`` is the source's share of each type on the
    span.  Where the rate saturates at a positive finite deficit
    s = ``protocol.saturation`` (bounded_power), the span is split at
    P(F + side s), its kink.  Each piece gets ``nodes`` atoms: the rate of
    the type P^-1(u) at each node, with ``share`` times the node weight as
    mass.  A piece on which the rate is constant (the standard rate, or
    bounded_power past pisharp) gets one atom of ``share`` times its length,
    the exact integral.
    """
    z, w = _legendre_rule(nodes)
    lo, hi = span
    ends = [lo, hi]
    saturation = protocol.saturation
    if 0.0 < saturation < math.inf:
        kink = float(dist.cdf(common + side * saturation))
        if lo < kink < hi:
            ends.insert(1, kink)
    qs, ms = [np.empty(0)], [np.empty(0)]
    for a, b in zip(ends[:-1], ends[1:]):
        if not a < b:
            continue
        half = 0.5 * (b - a)
        q = protocol.rate(side * (dist.inverse_cdf(a + half * (z + 1.0)) - common))
        if q.min() == q.max():
            qs.append(q[:1])
            ms.append(np.array([share * (b - a)]))
        else:
            qs.append(q)
            ms.append(share * half * w)
    return SwitchingRateDistribution(qs=np.concatenate(qs), ms=np.concatenate(ms))


def _continuum_sources(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    record: Cutoff | BalancedRecord,
    nodes: int = _QUADRATURE_NODES,
) -> tuple[SwitchingRateDistribution, SwitchingRateDistribution]:
    """Both flow sources of the continuum composition ``record`` names, at
    the level ``record.xbar`` it was built at.

    A cut-off record stands for the sorted (x = 1 below the cut) or the
    reversed (x = 1 above it) composition whose cut in the quantile u is
    ``xbar``, or one minus it.  With F = F(xbar), inflow is
    {u < P(F), x = 0} and outflow {u > P(F), x = 1}, the whole type each.

    A balanced record has t* = F(xbar): inflow is the band
    u in (P(t* - pimax), P(t*)), where a share kappa of each type is out.
    The outflow band (P(t*), P(t* + pimax)) holds a share
    kappa p(2 t* - theta) / p(theta) of each type, so the reflection
    theta -> 2 t* - theta carries it onto the inflow, deficit for deficit
    and mass for mass: the outflow is the same atoms.
    """
    common = game.payoff(record.xbar)
    if isinstance(record, BalancedRecord):
        span = (float(dist.cdf(common - record.pimax)), float(dist.cdf(common)))
        inflow = _gauss_legendre_source(dist, protocol, common, -1.0, span, nodes, record.kappa)
        return inflow, inflow
    u_f = float(dist.cdf(common))
    if record.reversed:
        cut = 1.0 - record.xbar
        spans = ((0.0, min(cut, u_f)), (max(cut, u_f), 1.0))
    else:
        spans = ((record.xbar, u_f), (u_f, record.xbar))
    return (
        _gauss_legendre_source(dist, protocol, common, -1.0, spans[0], nodes),
        _gauss_legendre_source(dist, protocol, common, 1.0, spans[1], nodes),
    )


def start_sources(
    game: AggregateGame, dist: TypeDistribution, protocol: RevisionProtocol, x: BayesianStrategy
) -> tuple[float, SwitchingRateDistribution, SwitchingRateDistribution]:
    """The level a start is read at and its two flow sources there:
    ``(xbar_ref, inflow, outflow)``.

    A sorted, reversed or balanced start under an integer k, on a grid
    ``make_grid`` built for ``dist`` (and for a balanced start, built for
    ``game`` and ``dist``), is read at the level its constructor was given,
    from Gauss-Legendre atoms of the continuum composition it stands for
    (``_continuum_sources``).  Every other start, whatever its values, is
    read at its grid aggregate from the grid atoms of
    ``flow_distributions``.
    """
    record = _continuum_record(game, dist, protocol, x)
    if record is None:
        xbar_ref = aggregate(x)
        return (xbar_ref, *flow_distributions(game, dist, protocol, x, xbar_ref))
    return (record.xbar, *_continuum_sources(game, dist, protocol, record))


def aggregate_velocity_from_flows(
    inflow: SwitchingRateDistribution, outflow: SwitchingRateDistribution
) -> float:
    """Aggregate velocity identified from the two rate distributions alone.

    Each sum is ``composition.blocked_dot``, the aggregate's own sum, so a
    grid source of more than 8,192 atoms gives the same bits at any BLAS
    thread count.
    """
    return blocked_dot(inflow.qs, inflow.ms) - blocked_dot(outflow.qs, outflow.ms)


def detailed_balance_residual(
    inflow: SwitchingRateDistribution, outflow: SwitchingRateDistribution
) -> float:
    """Sup-distance between the two c.d.f.s over the merged atom values.

    Zero iff the distributions coincide, the necessary and sufficient
    condition for the aggregate to stay at an aggregate equilibrium.  The
    atom values of both are taken in any order and with repeats, which
    leave the maximum as it is.
    """
    merged = np.concatenate((inflow.qs, outflow.qs))
    if merged.size == 0:
        return 0.0
    return float(np.abs(inflow.cdf(merged) - outflow.cdf(merged)).max())


def sosd_compare(
    outflow: SwitchingRateDistribution,
    inflow: SwitchingRateDistribution,
    mass_tol: float = 1e-9,
) -> str:
    """Second-order stochastic dominance between the flow distributions.

    The dominant distribution is the one with the pointwise *smaller*
    integrated c.d.f. (strictly somewhere).  Comparison happens on the merged
    atom grid, where both integrated c.d.f.s are piecewise linear, so the
    grid comparison is exact.  Identical distributions are incomparable (no
    strict part).  Total masses must agree within ``mass_tol``, which must be
    finite and nonnegative.
    """
    if not 0.0 <= mass_tol < np.inf:
        raise InputError(f"mass_tol={mass_tol} must be finite and nonnegative")
    mass_gap = abs(outflow.total_mass - inflow.total_mass)
    if mass_gap > mass_tol:
        raise InputError(
            f"flow masses differ by {mass_gap:.3g} (tolerance {mass_tol:.3g}); "
            f"dominance needs an aggregate-equilibrium context"
        )
    # every atom value of both, in any order and with repeats, which leave
    # the verdict as it is
    merged = np.concatenate((outflow.qs, inflow.qs))
    if merged.size == 0:
        return INCOMPARABLE
    diff = outflow.integrated_cdf(merged) - inflow.integrated_cdf(merged)
    if (diff <= _STRICT_TOL).all() and (diff < -_STRICT_TOL).any():
        return O_DOMINATES
    if (diff >= -_STRICT_TOL).all() and (diff > _STRICT_TOL).any():
        return I_DOMINATES
    return INCOMPARABLE


def bound_trajectory(
    inflow: SwitchingRateDistribution,
    outflow: SwitchingRateDistribution,
    xbar_star: float,
    times: np.ndarray,
) -> np.ndarray:
    """Frozen-rate upper bound on the aggregate after arriving at ``xbar_star``.

    Every agent keeps its time-0 switching rate, so each atom's remaining
    mass decays like e^(-q t); under positive externality the true dynamic
    only loses entrants and gains leavers relative to this, making the
    frozen path an upper bound on the actual aggregate.

    One pass covers both sources: the block holds e^(-q t) for the inflow
    atoms and then the outflow atoms, and each source's sums are a BLAS
    matrix-vector product on its columns.  The exponents t (-q) are
    einsum's outer product, one rounded product per element like a
    broadcast multiply, which numpy runs through its slower buffered
    iterator below a few thousand atoms.  A block has a multiple of 4 rows:
    as many as fit in 65536 exponentials (512 KB), but at least 4 and no
    more than there are samples.  With OpenBLAS on x86-64, a product over a
    multiple of 4 rows sums each row in the order of one dense block over
    all samples, so 2000 samples (the count ``escape_certificate`` takes)
    give the dense bits; a last block whose row count is not a multiple of
    4, possible only when the sample count is not, differs by about 1e-15.
    ``times`` must be a 1-d array of finite, nonnegative values.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise InputError("bound trajectory times must be a 1-d array")
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise InputError("bound trajectory times must be finite and nonnegative")
    out = np.full(ts.shape, xbar_star, dtype=float)
    n_in = inflow.qs.size
    neg_q = -np.concatenate((inflow.qs, outflow.qs))
    if not neg_q.size:
        return out
    rows = max(4, _BOUND_BLOCK_ELEMENTS // neg_q.size // 4 * 4)
    buf = np.empty((min(rows, ts.size), neg_q.size))
    s_in, s_out = np.empty(ts.size), np.empty(ts.size)
    for start in range(0, ts.size, rows):
        stop = min(start + rows, ts.size)
        e = buf[: stop - start]
        np.einsum("i,j->ij", ts[start:stop], neg_q, out=e)
        np.exp(e, out=e)
        np.matmul(e[:, :n_in], inflow.ms, out=s_in[start:stop])
        np.matmul(e[:, n_in:], outflow.ms, out=s_out[start:stop])
    out -= s_in
    out += s_out
    return out


@dataclass(frozen=True)
class RateRatioBound:
    """Reversed-composition escape check from the two extreme switching rates.

    ``r`` is the time-0 rate of the slowest entrant (the lowest type) over
    the rate of the marginal leaver (the reversed threshold type).  The
    aggregate level the frozen dynamics are guaranteed to reach is
    xbar* (1 - (1 - r) r^(r/(1-r))); the check holds when that level is at
    or below the largest prefix-certified decrease level.
    """

    r: float
    max_certified_decrease: float
    bound_value: float
    holds: bool


@dataclass(frozen=True)
class EscapeReport:
    """Dominance verdict, frozen-rate bound and crossing time of one start.

    ``times`` is the read-only sample array ``escape_certificate`` shares
    between every report with the same ``t_end``:
    ``np.geomspace(1e-3, t_end, 2000)``, bit for bit.
    """

    dominance: str
    times: np.ndarray
    bound: np.ndarray
    crossing_time: float | None


def rate_ratio_escape_bound(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
) -> RateRatioBound:
    """Escape certificate for the reversed composition in a coordination game.

    Requires the coordination shape: a stable equilibrium at 0, one interior
    unstable equilibrium, one interior stable equilibrium xbar*, and a
    reversed-composition threshold type above the indifferent type.
    The largest prefix-certified decrease level is the end of the first
    decrease interval of ``critical_mass_sets``, the same set the CLI and
    the basins read, which must start at the domain edge, the smallest
    positive double (AnalysisError otherwise).
    """
    report = find_aggregate_equilibria(game, dist)
    eqs = report.equilibria
    shape_ok = (
        len(eqs) == 3
        and abs(eqs[0].xbar) <= 1e-9
        and eqs[0].stability == STABLE
        and eqs[1].stability == UNSTABLE
        and eqs[2].stability == STABLE
        and eqs[2].xbar < 1.0 - 1e-9
    )
    if not shape_ok:
        raise InputError(
            "rate-ratio bound needs the coordination shape "
            "{stable 0, interior unstable, interior stable}; got "
            + ", ".join(f"{e.xbar:.4g}:{e.stability}" for e in eqs)
        )
    xbar_star = eqs[2].xbar
    theta_min, _ = dist.support
    theta_star = game.payoff(xbar_star)
    theta_hat = float(dist.inverse_cdf(1.0 - xbar_star))
    if not theta_hat > theta_star:
        raise InputError(
            f"reversed threshold type {theta_hat:.6g} must exceed the "
            f"indifferent type {theta_star:.6g}"
        )
    rate_in = float(protocol.rate(theta_star - theta_min))
    rate_out = float(protocol.rate(theta_hat - theta_star))
    if rate_out <= 0.0:
        raise InputError("marginal leaver's switching rate must be positive")
    r = rate_in / rate_out
    if not r < 1.0:
        raise InputError(f"rate ratio r={r:.6g} must be below 1")

    # Largest level such that every level up to it is a certified decrease
    # level: the end of the first decrease interval, if that interval starts
    # at the domain edge.
    intervals = critical_mass_sets(game, dist, protocol).decrease_intervals
    if not intervals or intervals[0][0] != math.nextafter(0.0, 1.0):
        raise AnalysisError("no positive level satisfies the prefix rate condition")
    max_certified = intervals[0][1]

    # at r = 0 this is 0, since 0.0 ** 0.0 == 1.0
    bound_value = xbar_star * (1.0 - (1.0 - r) * r ** (r / (1.0 - r)))
    return RateRatioBound(
        r=r,
        max_certified_decrease=max_certified,
        bound_value=bound_value,
        holds=bound_value <= max_certified,
    )


@functools.lru_cache(maxsize=4)
def _bound_times(t_end: float) -> np.ndarray:
    """The log-spaced bound samples up to ``t_end``, built once and read-only."""
    times = np.geomspace(_BOUND_FIRST_TIME, t_end, _BOUND_SAMPLES)
    times.flags.writeable = False  # shared by every report with this t_end
    return times


def escape_certificate(
    game: AggregateGame,
    dist: TypeDistribution,
    protocol: RevisionProtocol,
    x0: BayesianStrategy,
    xbar_dagger: float,
    t_end: float = 50.0,
) -> EscapeReport:
    """Certify permanent escape below ``xbar_dagger`` from an equilibrium.

    The composition's aggregate must be an aggregate equilibrium, the game
    must have positive externality, and ``xbar_dagger`` must be a certified
    decrease level.  The report samples the frozen-rate bound on a
    log-spaced time grid; the crossing time is the first sample where the
    bound has stayed below the equilibrium throughout and is below
    ``xbar_dagger``.  A crossing certifies that the true aggregate reaches
    the certified level in finite time and stays below it forever.  The
    samples run from 1e-3 to ``t_end``, which must be finite and larger;
    they are built once per ``t_end`` and shared, read-only, by every report
    with that ``t_end``.

    The equilibrium, the dominance verdict and the bound read one start:
    ``start_sources``, whose Gauss-Legendre atoms are accurate as stated at
    ``_QUADRATURE_NODES``.  A grid bound differs from the quadrature one by
    the midpoint rule's error: second order in n where the composition's
    cut and P(F) fall on cell boundaries (4.1e-8 on the canonical game at
    n = 2000), first order where either splits a cell, as a balanced
    start's band edges do.
    """
    if not (np.isfinite(t_end) and t_end > _BOUND_FIRST_TIME):
        raise InputError(f"t_end={t_end} must be finite and above the first bound sample")
    xbar_star, inflow, outflow = start_sources(game, dist, protocol, x0)
    require_aggregate_equilibrium(game, dist, xbar_star)
    if not game.positive_externality:
        raise InputError("escape certification requires positive externality")
    if not 0.0 < xbar_dagger < xbar_star:
        raise InputError(
            f"xbar_dagger={xbar_dagger} must lie strictly between 0 and the "
            f"equilibrium {xbar_star:.6g}"
        )
    certified, certificate = is_critical_mass_decrease(game, dist, protocol, xbar_dagger)
    if not certified:
        raise InputError(
            f"xbar_dagger={xbar_dagger} is not a certified decrease level: "
            f"{certificate.reason}"
        )

    dominance = sosd_compare(outflow, inflow, mass_tol=2.0 / x0.grid.n)
    times = _bound_times(float(t_end))
    bound = bound_trajectory(inflow, outflow, xbar_star, times)

    below_star = np.maximum.accumulate(bound) < xbar_star
    hit = below_star & (bound < xbar_dagger)
    crossing_time = float(times[int(np.argmax(hit))]) if hit.any() else None
    return EscapeReport(
        dominance=dominance,
        times=times,
        bound=bound,
        crossing_time=crossing_time,
    )
