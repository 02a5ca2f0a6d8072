"""Binary aggregate games with additively separable type heterogeneity.

A game is a common payoff function F for the inside action I, evaluated at
the aggregate participation rate ``xbar`` in [0, 1].  The outside action O
pays each agent its own type ``theta``, drawn from a continuous distribution
with c.d.f. P, density p, and inverse c.d.f. on a compact support.  All
supported payoff families are affine, so F is trivially Lipschitz; the game
has positive externality iff the slope is positive.

Distribution families expose exact closed forms for the c.d.f., its
inverse, the density and the levels where the inverse c.d.f. has a given
slope; ``TypeDistribution`` applies the domain rules around them once.  The
c.d.f. clamps to 0 below the support and 1 above it, which is what the
aggregate best response needs at corner states.  The homogenized velocity
g(xbar) = P(F(xbar)) - xbar, whose zeros are the aggregate equilibria, is
written once here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import InputError

ArrayLike = Union[float, np.ndarray]

ACTION_IN = "I"
ACTION_OUT = "O"

#: Evaluation domain for F: a closed interval containing [0, 1] with margin
#: for integrator stage points that stray slightly outside the simplex.
DEFAULT_DOMAIN = (-0.5, 1.5)


@dataclass(frozen=True)
class AggregateGame:
    """Affine common payoff F(xbar) = slope * xbar + intercept."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise InputError("payoff coefficients must be finite")

    @property
    def positive_externality(self) -> bool:
        return self.slope > 0.0

    def payoff(self, xbar: ArrayLike) -> ArrayLike:
        """F(xbar).  Raises InputError outside DEFAULT_DOMAIN (NaN included).

        An empty array is inside the domain and gives an empty array.
        """
        lo, hi = DEFAULT_DOMAIN
        x = np.asarray(xbar, dtype=float)
        # negated so that NaN, which fails every comparison, is refused;
        # ``initial`` makes an empty array pass
        if not (x.min(initial=lo) >= lo and x.max(initial=hi) <= hi):
            raise InputError(f"aggregate {xbar!r} outside evaluation domain [{lo}, {hi}]")
        out = self.slope * x + self.intercept
        return float(out) if np.ndim(xbar) == 0 else out


def affine_game(a: float, b: float) -> AggregateGame:
    """Game with F(xbar) = a * xbar + b."""
    return AggregateGame(slope=a, intercept=b)


def linear_coordination_game(c: float) -> AggregateGame:
    """Random matching in a 2x2 coordination game with participation cost c.

    The payoff is -c when nobody participates and 1 - c when everybody does,
    so F(xbar) = (1 - c) * xbar - c * (1 - xbar) = xbar - c, with c in (0, 1).
    """
    if not 0.0 < c < 1.0:
        raise InputError(f"coordination cost c={c} must lie in (0, 1)")
    return AggregateGame(slope=1.0, intercept=-c)


def _clamp(x, lo: float, hi: float):
    """``np.clip(x, lo, hi)``, bit for bit, without its Python-level overhead.

    ``np.maximum`` returns its second argument on a tie, so with ``x``
    second a signed zero keeps its sign against a bound of the other sign,
    as in ``np.clip``; NaN stays NaN.
    """
    return np.minimum(hi, np.maximum(lo, x))


class TypeDistribution:
    """Interface shared by the type-distribution families.

    Implementations guarantee cdf(theta_min) = 0, cdf(theta_max) = 1,
    cdf nondecreasing and Lipschitz on the support, and the exact inverse
    identity cdf(inverse_cdf(u)) = u for u in [0, 1].

    A family gives its ``support`` and its closed forms on it (``_cdf``,
    ``_inverse_cdf``, ``_pdf``, ``_quantile_slope_levels``); the rules
    around them live here: P clamps
    the type to the support and its value to [0, 1] (NaN stays NaN), p is 0
    off the support, a quantile outside [0, 1] (NaN included) is refused in
    a one-line message that names the first such value, an
    empty array is accepted, and a scalar argument gives a float.  The
    clamps (``_clamp``) give ``np.clip``'s bits and the range checks are one
    ``min``/``max`` pair, each at a fraction of the call cost of ``np.clip``
    and ``np.all``.
    """

    family: ClassVar[str]
    support: tuple[float, float]

    def cdf(self, theta: ArrayLike) -> ArrayLike:
        lo, hi = self.support
        out = _clamp(self._cdf(_clamp(np.asarray(theta, dtype=float), lo, hi)), 0.0, 1.0)
        return float(out) if np.ndim(theta) == 0 else out

    def inverse_cdf(self, u: ArrayLike) -> ArrayLike:
        arr = np.asarray(u, dtype=float)
        # negated so that NaN, which fails every comparison, is refused;
        # ``initial`` makes an empty array pass
        if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=1.0) <= 1.0):
            # one line naming the first refused value, and its index in an array
            k = int(np.argmin((arr >= 0.0) & (arr <= 1.0)))
            index = ", ".join(str(i) for i in np.unravel_index(k, arr.shape))
            where = f" at index {index}" if index else ""
            raise InputError(f"quantile argument {float(arr.flat[k])!r}{where} outside [0, 1]")
        out = self._inverse_cdf(arr)
        return float(out) if np.ndim(u) == 0 else out

    def pdf(self, theta: ArrayLike) -> ArrayLike:
        lo, hi = self.support
        t = np.asarray(theta, dtype=float)
        inside = (t >= lo) & (t <= hi)
        out = np.where(inside, self._pdf(np.where(inside, t, lo)), 0.0)
        return float(out) if np.ndim(theta) == 0 else out

    def quantile_slope_levels(self, slope: float) -> np.ndarray:
        """Ascending levels u in [0, 1] where Pinv'(u) = ``slope``.

        There the density at the quantile is 1/slope.  Pinv is increasing,
        so a slope of 0 or below has no such level.
        """
        if not slope > 0.0:
            return np.empty(0)
        u = np.asarray(self._quantile_slope_levels(slope), dtype=float)
        return u[(u >= 0.0) & (u <= 1.0)]


@dataclass(frozen=True)
class UniformTypes(TypeDistribution):
    """Uniform types on [lo, hi]."""

    family: ClassVar[str] = "uniform"
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):  # NaN and inf ends too
            raise InputError(f"uniform support [{self.lo}, {self.hi}] must be finite and nonempty")

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def _cdf(self, t):
        return (t - self.lo) / (self.hi - self.lo)

    def _inverse_cdf(self, u):
        return self.lo + u * (self.hi - self.lo)

    def _pdf(self, t):
        return 1.0 / (self.hi - self.lo)

    def _quantile_slope_levels(self, slope):
        return ()  # Pinv' is constant: no isolated level


@dataclass(frozen=True)
class SqrtShiftTypes(TypeDistribution):
    """P(theta) = sqrt(theta + 1) - 1 on [0, 3].

    Inverse is (u + 1)^2 - 1; density 1 / (2 sqrt(theta + 1)).
    """

    family: ClassVar[str] = "sqrt_shift"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 3.0)

    def _cdf(self, t):
        return np.sqrt(t + 1.0) - 1.0

    def _inverse_cdf(self, u):
        return (u + 1.0) ** 2 - 1.0

    def _pdf(self, t):
        return 0.5 / np.sqrt(t + 1.0)

    def _quantile_slope_levels(self, slope):
        return (0.5 * slope - 1.0,)  # Pinv'(u) = 2 (u + 1)


@dataclass(frozen=True)
class TruncatedLogisticTypes(TypeDistribution):
    """Logistic(mu, s) types truncated to the compact interval [mu - tau, mu + tau].

    Truncation keeps the support bounded so suprema over types are attained;
    tau defaults to 12 scale units, where the untruncated tails carry mass
    ~6e-6 per side.  Truncation is symmetric around mu, so cdf(mu) = 1/2 and
    point symmetry around mu is preserved.
    """

    family: ClassVar[str] = "logistic"
    mu: float
    s: float
    tau: float | None = None

    def __post_init__(self):
        if not -math.inf < self.mu < math.inf:
            raise InputError(f"logistic location mu={self.mu} must be finite")
        if not 0.0 < self.s < math.inf:
            raise InputError(f"logistic scale s={self.s} must be positive and finite")
        if self.tau is None:
            object.__setattr__(self, "tau", 12.0 * self.s)
        if not 0.0 < self.tau < math.inf:
            raise InputError(f"truncation half-width tau={self.tau} must be positive and finite")
        lo, hi = self.support
        # the c.d.f. at lo takes exp((mu - lo) / s), which must stay finite;
        # the untruncated tail past that point is below 1e-308
        if (self.mu - lo) / self.s > math.log(np.finfo(float).max):
            raise InputError(f"truncation half-width tau={self.tau} exceeds 709.78 s (s={self.s})")
        # the untruncated c.d.f. below the support, and the mass on it
        c_lo = float(self._base_cdf(lo))
        object.__setattr__(self, "_c_lo", c_lo)
        object.__setattr__(self, "_z", float(self._base_cdf(hi)) - c_lo)

    @property
    def support(self) -> tuple[float, float]:
        return (self.mu - self.tau, self.mu + self.tau)

    def _base_cdf(self, theta):
        z = (np.asarray(theta, dtype=float) - self.mu) / self.s
        return 1.0 / (1.0 + np.exp(-z))

    def _cdf(self, t):
        return (self._base_cdf(t) - self._c_lo) / self._z

    def _inverse_cdf(self, u):
        v = _clamp(self._c_lo + u * self._z, 1e-300, 1.0 - 1e-16)
        lo, hi = self.support
        return _clamp(self.mu + self.s * (np.log(v) - np.log1p(-v)), lo, hi)

    def _pdf(self, t):
        sigma = self._base_cdf(t)
        return sigma * (1.0 - sigma) / (self.s * self._z)

    def _quantile_slope_levels(self, slope):
        # Pinv'(u) = s z / (sigma (1 - sigma)) at sigma = c_lo + u z, so
        # sigma (1 - sigma) = s z / slope; the smaller root is taken from the
        # product of the two, free of cancellation
        product = self.s * self._z / slope
        if not product <= 0.25:
            return ()
        upper = 0.5 + math.sqrt(0.25 - product)
        return tuple((sigma - self._c_lo) / self._z for sigma in (product / upper, upper))


_FAMILIES = {cls.family: cls for cls in (UniformTypes, SqrtShiftTypes, TruncatedLogisticTypes)}


def make_distribution(family: str, **params) -> TypeDistribution:
    """Build a distribution from its family name; other families' parameters are ignored."""
    if family not in _FAMILIES:
        raise InputError(f"distribution family={family!r} is unknown")
    cls = _FAMILIES[family]
    fields = dataclasses.fields(cls)
    missing = [f.name for f in fields if f.name not in params and f.default is dataclasses.MISSING]
    if missing:
        raise InputError(f"{family} distribution needs {' and '.join(missing)}")
    return cls(**{f.name: params[f.name] for f in fields if f.name in params})


def best_response(
    game: AggregateGame, dist: TypeDistribution, xbar: float, theta: float
) -> str:
    """Unique best response for a type, with the tie at theta = F(xbar) going to I.

    The tie rule matches the indicator form of the Bayesian best response;
    under a continuous type distribution the tie set has measure zero, but a
    deterministic rule is needed on a grid.
    """
    lo, hi = dist.support
    if not lo <= theta <= hi:
        raise InputError(f"theta={theta} outside the type support [{lo}, {hi}]")
    return ACTION_IN if theta <= game.payoff(xbar) else ACTION_OUT


def aggregate_best_response(
    game: AggregateGame, dist: TypeDistribution, xbar: ArrayLike
) -> ArrayLike:
    """Mass of types whose best response is I: P(F(xbar)), clamped at the support."""
    return dist.cdf(game.payoff(xbar))


def _homogenized_velocity(
    game: AggregateGame, dist: TypeDistribution, xbar: ArrayLike
) -> ArrayLike:
    """g(xbar) = P(F(xbar)) - xbar, whose zeros are the aggregate equilibria.

    No [0, 1] check: the equilibrium search builds its levels inside [0, 1].
    """
    return aggregate_best_response(game, dist, xbar) - xbar


def require_aggregate_equilibrium(
    game: AggregateGame, dist: TypeDistribution, xbar: float
) -> None:
    """Raise InputError unless P(F(xbar)) = xbar within 1e-6."""
    xbar = float(xbar)
    residual = _homogenized_velocity(game, dist, xbar)
    if abs(residual) > 1e-6:
        raise InputError(
            f"xbar={xbar!r} is not an aggregate equilibrium "
            f"(fixed-point residual {residual:.3g})"
        )
