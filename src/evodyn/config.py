"""INI-style scenario configs: strict parsing with line-attributed errors.

Sections and keys::

    [game]          family = affine | linear_coordination ; a, b ; c
    [distribution]  family = uniform | sqrt_shift | logistic ; lo, hi ; mu, s, tau
    [protocol]      kind = standard | tempered ; tempering = power | bounded_power
                    k ; pisharp ; pisharp_sweep = comma list (select sweep mode;
                    distinct positive values)
    [grid]          n            (default 2000)
    [sim]           dt (default 0.01) ; t_end (default 50) ;
                    snapshot_times = comma list
    [initial]       composition = sorted | reversed | balanced | custom-csv ;
                    xbar0 ; kappa ; pimax ; path

Unknown sections or keys are rejected with the offending line number, as are
malformed values and values the game, distribution or protocol refuses; every
number, integer and list entry must be finite.  A value from an override has
no line.
``key=value`` overrides use dotted names (``game.a=2.45``) and are applied
before validation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .dynamics import (
    RevisionProtocol,
    bounded_power_protocol,
    power_protocol,
    standard_protocol,
)
from .errors import ConfigError, EvodynError
from .games import (
    AggregateGame,
    TypeDistribution,
    affine_game,
    linear_coordination_game,
    make_distribution,
)

_KNOWN_KEYS = {
    "game": {"family", "a", "b", "c"},
    "distribution": {"family", "lo", "hi", "mu", "s", "tau"},
    "protocol": {"kind", "tempering", "k", "pisharp", "pisharp_sweep"},
    "grid": {"n"},
    "sim": {"dt", "t_end", "snapshot_times"},
    "initial": {"composition", "xbar0", "kappa", "pimax", "path"},
}

_COMPOSITIONS = ("sorted", "reversed", "balanced", "custom-csv")

_NAMED_VALUE = re.compile(r"(\w+)=")


@dataclass(frozen=True)
class InitialSpec:
    composition: str
    xbar0: float | None = None
    kappa: float | None = None
    pimax: float | None = None
    path: str | None = None


@dataclass(frozen=True)
class Scenario:
    game: AggregateGame
    dist: TypeDistribution
    protocol: RevisionProtocol
    n: int
    dt: float
    t_end: float
    snapshot_times: tuple[float, ...]
    initial: InitialSpec | None
    pisharp_sweep: tuple[float, ...] | None


def _finite(value: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(value)
    return out


class _Entries:
    """Raw (section, key) -> (value, line) map with typed getters."""

    def __init__(self):
        self.data: dict[tuple[str, str], tuple[str, int | None]] = {}

    def put(self, section: str, key: str, value: str, line: int | None):
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]", line)
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown key {section}.{key}", line)
        self.data[(section, key)] = (value, line)

    def line(self, section: str, key: str) -> int | None:
        entry = self.data.get((section, key))
        return entry[1] if entry else None

    def raw(self, section: str, key: str) -> str | None:
        entry = self.data.get((section, key))
        return entry[0] if entry else None

    def require(self, section: str, key: str) -> str:
        value = self.raw(section, key)
        if value is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return value

    def _typed(self, section, key, caster, typename, default):
        entry = self.data.get((section, key))
        if entry is None:
            return default
        value, line = entry
        try:
            return caster(value)
        except ValueError:
            raise ConfigError(
                f"{section}.{key} = {value!r} is not a valid {typename}", line
            ) from None

    def number(self, section, key, default=None) -> float | None:
        return self._typed(section, key, _finite, "finite number", default)

    def integer(self, section, key, default=None) -> int | None:
        def cast(value: str) -> int:
            as_float = _finite(value)
            as_int = int(as_float)
            if as_int != as_float:
                raise ValueError(value)
            return as_int

        return self._typed(section, key, cast, "finite integer", default)

    def number_list(self, section, key) -> tuple[float, ...] | None:
        def cast(value: str) -> tuple[float, ...]:
            parts = [p.strip() for p in value.split(",") if p.strip()]
            return tuple(_finite(p) for p in parts)

        return self._typed(section, key, cast, "comma-separated list of finite numbers", None)


def _parse_lines(lines, entries: _Entries):
    section = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = stripped.partition("=")
        entries.put(section, key.strip(), value.strip(), lineno)


def _build_scenario(entries: _Entries) -> Scenario:
    def guarded(section: str, builder):
        # a refusal names the value it refuses first, as name=value, and
        # reports that value's line; one that names none (two values at
        # once) reports no line, as does a value from an override
        try:
            return builder()
        except EvodynError as exc:
            named = _NAMED_VALUE.search(str(exc))
            line = entries.line(section, named.group(1)) if named else None
            raise ConfigError(str(exc), line) from None

    family = entries.require("game", "family")
    if family == "affine":
        a = entries.number("game", "a")
        b = entries.number("game", "b")
        if a is None or b is None:
            raise ConfigError("affine game needs game.a and game.b")
        game = guarded("game", lambda: affine_game(a, b))
    elif family == "linear_coordination":
        c = entries.number("game", "c")
        if c is None:
            raise ConfigError("linear_coordination game needs game.c")
        game = guarded("game", lambda: linear_coordination_game(c))
    else:
        raise ConfigError(
            f"unknown game family {family!r}", entries.line("game", "family")
        )

    dist_family = entries.require("distribution", "family")
    dist_params = {}
    for key in ("lo", "hi", "mu", "s", "tau"):
        value = entries.number("distribution", key)
        if value is not None:
            dist_params[key] = value
    dist = guarded("distribution", lambda: make_distribution(dist_family, **dist_params))

    kind = entries.require("protocol", "kind")
    if kind == "standard":
        protocol = standard_protocol()
    elif kind == "tempered":
        tempering = entries.require("protocol", "tempering")
        k = entries.number("protocol", "k")
        if k is None:
            raise ConfigError("tempered protocol needs protocol.k")
        if tempering == "power":
            protocol = guarded("protocol", lambda: power_protocol(k))
        elif tempering == "bounded_power":
            pisharp = entries.number("protocol", "pisharp")
            if pisharp is None:
                raise ConfigError("bounded_power tempering needs protocol.pisharp")
            protocol = guarded("protocol", lambda: bounded_power_protocol(k, pisharp))
        else:
            raise ConfigError(
                f"unknown tempering {tempering!r}", entries.line("protocol", "tempering")
            )
    else:
        raise ConfigError(
            f"unknown protocol kind {kind!r}", entries.line("protocol", "kind")
        )

    n = entries.integer("grid", "n", default=2000)
    if n < 2:
        raise ConfigError(f"grid.n = {n} must be at least 2", entries.line("grid", "n"))
    dt = entries.number("sim", "dt", default=0.01)
    t_end = entries.number("sim", "t_end", default=50.0)
    if dt <= 0.0:
        raise ConfigError("sim.dt must be positive", entries.line("sim", "dt"))
    if t_end <= 0.0:
        raise ConfigError("sim.t_end must be positive", entries.line("sim", "t_end"))
    snapshot_times = entries.number_list("sim", "snapshot_times") or ()

    initial = None
    composition = entries.raw("initial", "composition")
    if composition is not None:
        if composition not in _COMPOSITIONS:
            raise ConfigError(
                f"unknown initial composition {composition!r}; expected one of "
                + ", ".join(_COMPOSITIONS),
                entries.line("initial", "composition"),
            )
        initial = InitialSpec(
            composition=composition,
            xbar0=entries.number("initial", "xbar0"),
            kappa=entries.number("initial", "kappa"),
            pimax=entries.number("initial", "pimax"),
            path=entries.raw("initial", "path"),
        )

    pisharp_sweep = entries.number_list("protocol", "pisharp_sweep")
    if pisharp_sweep is not None:
        # each value names its own sweep/ directory and sweep.json entry
        line = entries.line("protocol", "pisharp_sweep")
        if any(p <= 0.0 for p in pisharp_sweep):
            raise ConfigError("protocol.pisharp_sweep values must be positive", line)
        if len(set(pisharp_sweep)) != len(pisharp_sweep):
            raise ConfigError("protocol.pisharp_sweep values must be distinct", line)

    return Scenario(
        game=game,
        dist=dist,
        protocol=protocol,
        n=n,
        dt=dt,
        t_end=t_end,
        snapshot_times=snapshot_times,
        initial=initial,
        pisharp_sweep=pisharp_sweep,
    )


def _read_utf8(path: Path, what: str) -> str:
    """The text of ``path`` decoded as UTF-8.

    A byte sequence that is not UTF-8 is a ConfigError that names the byte
    and the line it is on, counted as ``str.splitlines`` counts lines.
    """
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")  # valid up to the bad byte
        line = len((before + "?").splitlines())  # the line a character there would be on
        raise ConfigError(
            f"{what} {path} is not valid UTF-8 (byte 0x{data[exc.start]:02x})", line
        ) from None


def parse_config(path, overrides: tuple[str, ...] = ()) -> Scenario:
    """Parse a scenario file, apply ``section.key=value`` overrides, validate."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    entries = _Entries()
    _parse_lines(_read_utf8(p, "config file").splitlines(), entries)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, _, value = item.partition("=")
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, _, key = dotted.strip().partition(".")
        entries.put(section, key.strip(), value.strip(), line=None)
    return _build_scenario(entries)
