"""Discretized strategy compositions on a type grid.

A Bayesian strategy assigns each type a participation rate in [0, 1]; its
aggregate is the mean rate.  The grid is equiprobable by construction (mass
1/n per node, nodes at the quantiles of the type distribution; there is no
weight argument), which makes cut-off constructions index computations and
keeps flow-distribution atom masses uniform.

Constructors provided here are the canonical compositions used throughout:

* ``sorted_composition``   -- lowest types participate (cut-off form);
* ``reversed_composition`` -- highest types participate (anti-sorted worst case);
* ``balanced_composition`` -- unsorted but flow-balanced at an aggregate
  equilibrium, built from the mirrored-density band identity
  (1 - x(t* - d)) p(t* - d) = x(t* + d) p(t* + d);
* ``destabilizing_perturbation`` -- a small composition change that pushes
  the aggregate strictly up while staying close to the original.

The first three record what they built (``BayesianStrategy.construction``:
the cut-off side and level, or the balanced arguments), and ``make_grid``
records the distribution its grid samples (``TypeGrid.dist``).  Each call
builds its own grid; equal arguments give equal nodes bit for bit.

Boundary nodes take fractional values so constructed aggregates hit the
requested level exactly (up to float rounding), not just within 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, InputError
from .games import AggregateGame, TypeDistribution, _clamp, require_aggregate_equilibrium


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TypeGrid:
    """Nondecreasing type nodes, each of mass 1/n (``weights`` is derived).

    ``dist`` is the distribution whose quantiles ``make_grid`` put the nodes
    at; every other grid has None, whatever its nodes.  It is no constructor
    argument (``dataclasses.replace`` drops it) and takes no part in
    equality or repr.
    """

    nodes: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    dist: TypeDistribution | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        if self.nodes.ndim != 1 or self.nodes.size == 0:
            raise InputError("grid nodes must be a non-empty 1-d array")
        if not np.isfinite(self.nodes).all():
            raise InputError("grid nodes must be finite")
        if (self.nodes[1:] < self.nodes[:-1]).any():
            raise InputError("grid nodes must be nondecreasing")
        object.__setattr__(self, "weights", _freeze(np.full(self.n, 1.0 / self.n)))

    @property
    def n(self) -> int:
        return self.nodes.size


def make_grid(dist: TypeDistribution, n: int) -> TypeGrid:
    """Equiprobable grid: node i at the ((i - 1/2)/n)-quantile, weight 1/n.

    The grid records ``dist`` (``TypeGrid.dist``).
    """
    try:
        # negated so that NaN, which fails every comparison, is refused
        whole = n >= 2 and float(n).is_integer()
    except OverflowError:  # an int beyond the largest double
        raise InputError("grid size n is beyond the doubles, too large to allocate") from None
    if not whole:
        raise InputError(f"grid size n={n} must be a whole number of at least 2")
    n = int(n)
    try:
        u = (np.arange(n) + 0.5) / n
        grid = TypeGrid(nodes=np.asarray(dist.inverse_cdf(u), dtype=float))
    except (ValueError, MemoryError):  # numpy refuses or fails the node arrays
        raise InputError(f"grid size n={n:.6g} is too large to allocate") from None
    object.__setattr__(grid, "dist", dist)
    return grid


@dataclass(frozen=True)
class Cutoff:
    """How ``sorted_composition`` or ``reversed_composition`` built a strategy:
    the side that participates and the level ``xbar`` it was built at."""

    reversed: bool
    xbar: float


@dataclass(frozen=True)
class BalancedRecord:
    """The arguments past the grid that ``balanced_composition`` built from;
    ``xbar`` is its ``xbar_star``."""

    game: AggregateGame
    dist: TypeDistribution
    xbar: float
    kappa: float
    pimax: float


@dataclass(frozen=True)
class BayesianStrategy:
    """Participation rate per grid node, each in [0, 1].

    ``construction`` records how a constructor of a continuum composition
    built the strategy (``Cutoff`` or ``BalancedRecord``), so that the
    escape analysis can read that composition; every other strategy has
    None, whatever its values.  It is no constructor argument
    (``dataclasses.replace`` drops it) and takes no part in equality or repr.
    """

    grid: TypeGrid
    values: np.ndarray = field(repr=False)
    construction: Cutoff | BalancedRecord | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.nodes.shape:
            raise InputError("strategy values must match the grid shape")
        # negated so that NaN, which fails every comparison, is rejected
        if not (vals.min(initial=0.0) >= -1e-9 and vals.max(initial=0.0) <= 1.0 + 1e-9):
            raise InputError("strategy values must lie in [0, 1]")
        # the clamp (np.clip's bits) keeps a zero's sign; + 0.0 stores +0.0,
        # which the integrator needs
        object.__setattr__(self, "values", _freeze(_clamp(vals, 0.0, 1.0) + 0.0))


#: Nodes per block of ``blocked_dot``.  OpenBLAS runs a ddot of at most
#: 10,000 elements on one thread and splits a longer one across its threads,
#: whose partial sums it adds in another order, so a single dot over n nodes
#: gives bits that depend on the BLAS thread count once n > 10,000 (measured
#: at n = 32000 on a 2-core Xeon, OpenBLAS 0.3.31 Haswell kernels), and the
#: second thread cost wall time there.  8192 is the largest power of two
#: below that cutoff and at or above every bundled and tested grid, so those
#: grids are one block: today's single dot, with its bits.
_BLOCK = 8192


def blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two 1-d arrays, summed block by block.

    A left fold, from 0.0, of ``float(a[i:j].dot(b[i:j]))`` over consecutive
    blocks of ``_BLOCK`` elements (the last one shorter), so each block's dot
    runs on one BLAS thread and the sum has the same bits at any thread
    count.  Arrays of one block are one ``a.dot(b)`` call, with no slice and
    no loop; it differs from the fold only where the dot is -0.0, which the
    fold's 0.0 + (.) turns to +0.0.  The fold's partial sums are never -0.0,
    so adding a block whose dot is +-0 leaves them unchanged.
    """
    n = a.size
    if n <= _BLOCK:
        return float(a.dot(b))
    total = 0.0
    for i in range(0, n, _BLOCK):
        total += float(a[i : i + _BLOCK].dot(b[i : i + _BLOCK]))
    return total


def aggregate(x: BayesianStrategy) -> float:
    """Total participating mass: sum of (1/n) * rate, taken by
    ``blocked_dot`` (at most 8,192 nodes per BLAS call)."""
    return blocked_dot(x.grid.weights, x.values)


def _cutoff(grid: TypeGrid, xbar: float, reversed_: bool) -> BayesianStrategy:
    """The sorted composition, the first floor(xbar n) nodes filled and the
    fractional fill of the next one, mirrored if ``reversed_``; it records
    ``Cutoff(reversed_, xbar)``."""
    if not 0.0 <= xbar <= 1.0:
        raise InputError(f"xbar={xbar} outside [0, 1]")
    scaled = xbar * grid.n
    k = min(math.floor(scaled), grid.n)
    values = np.zeros(grid.n)
    values[:k] = 1.0
    if k < grid.n:
        values[k] = scaled - k
    out = BayesianStrategy(grid=grid, values=values[::-1] if reversed_ else values)
    object.__setattr__(out, "construction", Cutoff(reversed_, xbar))
    return out


def sorted_composition(grid: TypeGrid, xbar: float) -> BayesianStrategy:
    """Perfectly sorted composition: the lowest types participate.

    With an equiprobable grid the cut-off type is the inverse c.d.f. at xbar;
    the boundary node is filled fractionally so the aggregate equals xbar.
    """
    return _cutoff(grid, xbar, False)


def reversed_composition(
    grid: TypeGrid, dist: TypeDistribution, xbar: float
) -> BayesianStrategy:
    """Anti-sorted composition: the highest types participate.

    The participation threshold type is the inverse c.d.f. at 1 - xbar.
    ``dist`` fixes that interpretation; the values themselves only need the
    grid ordering: they are the sorted composition's, mirrored.
    """
    del dist  # threshold type is inverse_cdf(1 - xbar); grid nodes already sorted
    return _cutoff(grid, xbar, True)


def balanced_composition(
    grid: TypeGrid,
    dist: TypeDistribution,
    game: AggregateGame,
    xbar_star: float,
    kappa: float,
    pimax: float,
) -> BayesianStrategy:
    """Unsorted composition whose in/out flow distributions coincide.

    Around the indifferent type t* = F(xbar_star) of an aggregate
    equilibrium, participation is lowered to 1 - kappa on the band
    (t* - pimax, t*) and raised to kappa * p(2 t* - theta) / p(theta) on
    (t*, t* + pimax); outside the bands the strategy is the sorted
    equilibrium.  The mirrored-density identity then balances the deficit
    distributions on both sides at every deficit level, and the aggregate is
    preserved because the mass moved out below t* equals the mass moved in
    above it.  The strategy records its arguments past the grid
    (``BayesianStrategy.construction``) unless kappa is 0, which gives the
    sorted composition.
    """
    if not 0.0 < kappa <= 1.0:
        if kappa == 0.0:
            return sorted_composition(grid, xbar_star)
        raise InputError(f"kappa={kappa} must lie in [0, 1]")
    if not pimax > 0.0:
        raise InputError(f"pimax={pimax} must be positive")

    require_aggregate_equilibrium(game, dist, xbar_star)
    theta_star = game.payoff(xbar_star)
    lo, hi = dist.support
    if theta_star - pimax < lo - 1e-12:
        raise ConstructionError(
            f"band bottom {theta_star - pimax:.6g} below the support minimum {lo:.6g}"
        )
    if theta_star + pimax > hi + 1e-12:
        raise ConstructionError(
            f"band top {theta_star + pimax:.6g} above the support maximum {hi:.6g}"
        )

    # Participation above t* must stay <= 1: kappa * max density ratio <= 1.
    # For every family here p(t* - d) / p(t* + d) is monotone in d: constant
    # (uniform), increasing (sqrt-shift), increasing for t* above the
    # logistic's mu and decreasing below it.  So the ratio peaks at the band's
    # end d = pimax, or stays at most 1, where kappa <= 1 cannot trip the check.
    # The ends are clamped into the support, which the band may pass by 1e-12.
    low, high = dist.pdf(np.clip([theta_star - pimax, theta_star + pimax], lo, hi))
    worst = float(low / high)
    if kappa * worst > 1.0 + 1e-12:
        raise ConstructionError(
            f"kappa * max density ratio = {kappa * worst:.6g} exceeds 1; "
            f"lower kappa below {1.0 / worst:.6g}"
        )

    theta = grid.nodes
    values = np.where(theta <= theta_star, 1.0, 0.0)
    lower = (theta >= theta_star - pimax) & (theta < theta_star)
    upper = (theta > theta_star) & (theta <= theta_star + pimax)
    values[lower] = 1.0 - kappa
    mirrored = 2.0 * theta_star - theta[upper]
    values[upper] = kappa * np.asarray(dist.pdf(mirrored)) / np.asarray(
        dist.pdf(theta[upper])
    )
    out = BayesianStrategy(grid=grid, values=values)
    if abs(aggregate(out) - xbar_star) > 2.0 / grid.n:
        raise ConstructionError(
            f"balanced construction drifted from xbar_star by "
            f"{abs(aggregate(out) - xbar_star):.3g} > 2/n"
        )
    object.__setattr__(out, "construction", BalancedRecord(game, dist, xbar_star, kappa, pimax))
    return out


def min_mass_ratio(protocol, band_width: float) -> float:
    """Smallest admissible mass ratio w for the band perturbation.

    Equals the ratio of the switching-rate integrals over the gain band
    [e, 2e] and the loss band [3e, 4e]; below it the perturbation's
    instantaneous aggregate velocity is not guaranteed positive.  In closed
    form, read from ``protocol.saturation``: 1 for the standard rate, which
    saturates at 0; (2^(k+1) - 1) / (4^(k+1) - 3^(k+1)) for d^k, which never
    saturates, divided through by 4^(k+1) so no power overflows; and for
    min((d/pisharp)^k, 1) the ratio of its piecewise integrals, which is the
    power form while pisharp >= 4e.
    """
    if not band_width > 0.0:
        raise InputError("band width must be positive")
    saturation = protocol.saturation
    if saturation == 0.0:
        return 1.0
    k = protocol.k
    # the rate in units of the band width: min((s / c)^k, 1) at d = s e; an
    # infinite saturation stays infinite, also at an infinite band width
    c = saturation / band_width if saturation < math.inf else math.inf
    if c >= 4.0:
        return (0.5 ** (k + 1.0) - 0.25 ** (k + 1.0)) / (1.0 - 0.75 ** (k + 1.0))

    def integral(s: float) -> float:
        # the integral of min((t / c)^k, 1) over t in [0, s]
        if s <= c:
            return s * (s / c) ** k / (k + 1.0)
        return c / (k + 1.0) + (s - c)

    return (integral(2.0) - integral(1.0)) / (integral(4.0) - integral(3.0))


def destabilizing_perturbation(
    xstar: BayesianStrategy,
    game: AggregateGame,
    dist: TypeDistribution,
    e: float,
    w: float,
    eps: float,
    protocol=None,
    variant: str = "band",
) -> BayesianStrategy:
    """Perturb a composition so the aggregate rises and keeps rising initially.

    ``variant="band"`` (for cut-off equilibrium compositions) adds density
    eps/p on the band [t* + e, t* + 2e) and removes w * eps/p on
    [t* - 4e, t* - 3e), where t* = F(aggregate).  The aggregate increases by
    (1 - w) * e * eps.  When ``protocol`` is given, w is validated against
    ``min_mass_ratio`` so the tempered aggregate velocity at the result is
    strictly positive.

    ``variant="uniform"`` (for balanced non-equilibrium compositions) mixes
    every type below t* toward participation: x -> (1 - eps) x + eps there.
    The aggregate increases by eps times the non-participating mass below t*.
    """
    if eps < 0.0:
        raise InputError(f"eps={eps} must be nonnegative")
    if eps == 0.0:
        return xstar

    grid = xstar.grid
    theta = grid.nodes
    theta_star = game.payoff(aggregate(xstar))
    lo, hi = dist.support

    if variant == "uniform":
        below = theta < theta_star
        values = np.where(below, (1.0 - eps) * xstar.values + eps, xstar.values)
        return BayesianStrategy(grid=grid, values=values)
    if variant != "band":
        raise InputError(f"unknown perturbation variant {variant!r}")

    if not (lo < theta_star < hi):
        raise ConstructionError(
            f"indifferent type {theta_star:.6g} not interior to [{lo:.6g}, {hi:.6g}]"
        )
    if not e > 0.0:
        raise InputError(f"band width e={e} must be positive")
    if theta_star - 4.0 * e < lo - 1e-12 or theta_star + 2.0 * e > hi + 1e-12:
        raise ConstructionError(
            f"perturbation bands [{theta_star - 4 * e:.6g}, {theta_star - 3 * e:.6g}) "
            f"and [{theta_star + e:.6g}, {theta_star + 2 * e:.6g}) leave the support"
        )
    if not w < 1.0:
        raise ConstructionError(f"mass ratio w={w} must be below 1")
    if protocol is not None:
        w_min = min_mass_ratio(protocol, e)
        if w <= w_min:
            raise ConstructionError(
                f"mass ratio w={w} must exceed the rate-integral ratio {w_min:.6g}"
            )

    density = np.asarray(dist.pdf(theta))
    gain = (theta >= theta_star + e) & (theta < theta_star + 2.0 * e)
    loss = (theta >= theta_star - 4.0 * e) & (theta < theta_star - 3.0 * e)
    values = xstar.values.copy()
    values[gain] = values[gain] + eps / density[gain]
    values[loss] = values[loss] - w * eps / density[loss]
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise ConstructionError(
            "perturbed participation leaves [0, 1]; reduce eps or the bands"
        )
    return BayesianStrategy(grid=grid, values=values)
