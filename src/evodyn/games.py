"""Binary aggregate games with additively separable type heterogeneity.

A game is a common payoff function F for the inside action I, evaluated at
the aggregate participation rate ``xbar`` in [0, 1].  The outside action O
pays each agent its own type ``theta``, drawn from a continuous distribution
with c.d.f. P, density p, and inverse c.d.f. on a compact support.  All
supported payoff families are affine, so F is trivially Lipschitz; the game
has positive externality iff the slope is positive.

Distribution families expose exact closed-form (cdf, inverse_cdf, pdf)
triples.  The c.d.f. clamps to 0 below the support and 1 above it, which is
what the aggregate best response needs at corner states.
"""

from __future__ import annotations

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
        """F(xbar).  Raises InputError outside DEFAULT_DOMAIN (NaN included)."""
        lo, hi = DEFAULT_DOMAIN
        x = np.asarray(xbar, dtype=float)
        # negated so that NaN, which fails every comparison, is refused
        if not (np.all(x >= lo) and np.all(x <= hi)):
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


class TypeDistribution:
    """Interface shared by the type-distribution families.

    Implementations guarantee cdf(theta_min) = 0, cdf(theta_max) = 1,
    cdf nondecreasing and Lipschitz on the support, and the exact inverse
    identity cdf(inverse_cdf(u)) = u for u in [0, 1].
    """

    family: ClassVar[str]
    support: tuple[float, float]

    def cdf(self, theta: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def inverse_cdf(self, u: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def pdf(self, theta: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def _scalarize(self, x, arg) -> ArrayLike:
        return float(x) if np.ndim(arg) == 0 else x

    @staticmethod
    def _check_unit(u: ArrayLike) -> np.ndarray:
        arr = np.asarray(u, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise InputError(f"quantile argument {u!r} outside [0, 1]")
        return arr


@dataclass(frozen=True)
class UniformTypes(TypeDistribution):
    """Uniform types on [lo, hi]."""

    family: ClassVar[str] = "uniform"
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise InputError(f"uniform support [{self.lo}, {self.hi}] must be finite and nonempty")

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def cdf(self, theta):
        t = np.asarray(theta, dtype=float)
        out = np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return self._scalarize(out, theta)

    def inverse_cdf(self, u):
        arr = self._check_unit(u)
        return self._scalarize(self.lo + arr * (self.hi - self.lo), u)

    def pdf(self, theta):
        t = np.asarray(theta, dtype=float)
        inside = (t >= self.lo) & (t <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return self._scalarize(out, theta)


@dataclass(frozen=True)
class SqrtShiftTypes(TypeDistribution):
    """P(theta) = sqrt(theta + 1) - 1 on [0, 3].

    Inverse is (u + 1)^2 - 1; density 1 / (2 sqrt(theta + 1)).
    """

    family: ClassVar[str] = "sqrt_shift"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 3.0)

    def cdf(self, theta):
        t = np.asarray(theta, dtype=float)
        inner = np.sqrt(np.clip(t, 0.0, 3.0) + 1.0) - 1.0
        return self._scalarize(np.clip(inner, 0.0, 1.0), theta)

    def inverse_cdf(self, u):
        arr = self._check_unit(u)
        return self._scalarize((arr + 1.0) ** 2 - 1.0, u)

    def pdf(self, theta):
        t = np.asarray(theta, dtype=float)
        inside = (t >= 0.0) & (t <= 3.0)
        out = np.where(inside, 0.5 / np.sqrt(np.where(inside, t, 0.0) + 1.0), 0.0)
        return self._scalarize(out, theta)


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

    @property
    def support(self) -> tuple[float, float]:
        return (self.mu - self.tau, self.mu + self.tau)

    def _base_cdf(self, theta):
        z = (np.asarray(theta, dtype=float) - self.mu) / self.s
        return 1.0 / (1.0 + np.exp(-z))

    @property
    def _mass(self) -> tuple[float, float]:
        lo, hi = self.support
        c_lo = float(self._base_cdf(lo))
        return c_lo, float(self._base_cdf(hi)) - c_lo

    def cdf(self, theta):
        lo, hi = self.support
        c_lo, z = self._mass
        t = np.clip(np.asarray(theta, dtype=float), lo, hi)
        out = np.clip((self._base_cdf(t) - c_lo) / z, 0.0, 1.0)
        return self._scalarize(out, theta)

    def inverse_cdf(self, u):
        arr = self._check_unit(u)
        c_lo, z = self._mass
        v = np.clip(c_lo + arr * z, 1e-300, 1.0 - 1e-16)
        out = self.mu + self.s * (np.log(v) - np.log1p(-v))
        lo, hi = self.support
        return self._scalarize(np.clip(out, lo, hi), u)

    def pdf(self, theta):
        lo, hi = self.support
        _, z = self._mass
        t = np.asarray(theta, dtype=float)
        inside = (t >= lo) & (t <= hi)
        sigma = self._base_cdf(np.where(inside, t, self.mu))
        out = np.where(inside, sigma * (1.0 - sigma) / (self.s * z), 0.0)
        return self._scalarize(out, theta)


def make_distribution(family: str, **params) -> TypeDistribution:
    """Build a distribution from its config-key family name."""
    if family == "uniform":
        return UniformTypes(lo=params["lo"], hi=params["hi"])
    if family == "sqrt_shift":
        return SqrtShiftTypes()
    if family == "logistic":
        return TruncatedLogisticTypes(
            mu=params["mu"], s=params["s"], tau=params.get("tau")
        )
    raise InputError(f"unknown distribution family {family!r}")


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


def require_aggregate_equilibrium(
    game: AggregateGame, dist: TypeDistribution, xbar: float
) -> None:
    """Raise InputError unless P(F(xbar)) = xbar within 1e-6."""
    xbar = float(xbar)
    residual = float(aggregate_best_response(game, dist, xbar)) - xbar
    if abs(residual) > 1e-6:
        raise InputError(
            f"xbar={xbar!r} is not an aggregate equilibrium "
            f"(fixed-point residual {residual:.3g})"
        )
