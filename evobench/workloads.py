"""The four benchmark workloads: inputs from a seed, ops, and result checks.

Each workload turns the run seed into a stream of *passes*; a pass is a list
of ops and the run always ends on a pass boundary, so every run of a
workload does the same mix of work.  An op is one unit of user work: it is
prepared (untimed), run (timed) and then checked.  Checks test properties of
the result, never its bytes.  A failed property, an error raised by the
program, or a CLI exit code other than the one stored for that invocation
marks the op wrong, and a wrong op makes the run incorrect.  The one
exception is a non-zero exit code the seed program is known to return
(``refs.json``, ``cli.exit_codes``): it marks the op refused.  Wrong and
refused ops both count as failed.

Call evodyn through module attributes (``dynamics.integrate``), never names
bound at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import evodyn.cli as cli
from evodyn import composition, config, dynamics, equilibria, flows, games, stability
from evodyn.errors import EvodynError

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

RESIDUAL_TOL = 1e-9  # |P(F(x)) - x| for every reported equilibrium
CLI_CONFIGS = ("entry_sqrt", "coordination_logistic")
CLI_TIMEOUT_S = 150


def load_refs(path=REFS_PATH) -> dict:
    return json.loads(Path(path).read_text())


def tolerance(errors) -> float:
    """Ten times the seed's largest error, rounded up to a power of ten."""
    worst = max(max(errors), 1e-16)
    return 10.0 ** math.ceil(math.log10(10.0 * worst))


# -- input construction (shared with make_refs.py) ---------------------------

def make_protocol(spec: dict):
    kind = spec["kind"]
    if kind == "standard":
        return dynamics.standard_protocol()
    if kind == "power":
        return dynamics.power_protocol(spec["k"])
    return dynamics.bounded_power_protocol(spec["k"], spec["pisharp"])


def make_game(spec: dict):
    if spec["family"] == "affine":
        return games.affine_game(spec["a"], spec["b"])
    return games.linear_coordination_game(spec["c"])


def make_dist(spec: dict):
    params = {k: v for k, v in spec.items() if k != "family"}
    return games.make_distribution(spec["family"], **params)


def make_composition(grid, dist, game, spec: dict):
    """Build one composition from its stored recipe."""
    kind = spec["kind"]
    if kind == "sorted":
        return composition.sorted_composition(grid, spec["xbar0"])
    if kind == "reversed":
        return composition.reversed_composition(grid, dist, spec["xbar0"])
    if kind == "mixture":
        lam = spec["weight"]
        srt = composition.sorted_composition(grid, spec["xbar0"])
        rev = composition.reversed_composition(grid, dist, spec["xbar0"])
        return composition.BayesianStrategy(
            grid=grid, values=lam * srt.values + (1.0 - lam) * rev.values)
    if kind in ("balanced", "perturbed"):
        x = composition.balanced_composition(
            grid, dist, game, spec["xbar0"], spec["kappa"], spec["pimax"])
        if kind == "balanced":
            return x
        return composition.destabilizing_perturbation(
            x, game, dist, e=0.0, w=0.0, eps=spec["eps"], variant="uniform")
    if kind == "random":
        # random participation rescaled to hit the target aggregate
        values = np.random.default_rng(spec["seed"]).random(grid.n)
        mean, xbar = values.mean(), spec["xbar0"]
        if mean >= xbar:
            values = values * (xbar / mean)
        else:
            values = 1.0 - (1.0 - values) * ((1.0 - xbar) / (1.0 - mean))
        return composition.BayesianStrategy(grid=grid, values=values)
    raise ValueError(f"unknown composition recipe {kind!r}")


# -- checks ------------------------------------------------------------------

class Check:
    """Outcome of one op: largest departure from a reference, and problems.

    ``wrong`` lists broken properties; ``refused`` holds the known refusal,
    if the op met it.
    """

    def __init__(self):
        self.err = 0.0
        self.wrong: list[str] = []
        self.refused: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.wrong) or self.refused is not None

    def require(self, cond, message: str) -> None:
        if not cond:
            self.wrong.append(message)

    def close(self, what: str, value: float, ref: float, tol: float) -> None:
        gap = abs(value - ref)
        if math.isfinite(gap):
            self.err = max(self.err, gap)
        self.require(gap <= tol, f"{what}: {value!r} vs reference {ref!r} (tol {tol:g})")

    def unit_path(self, what: str, values) -> None:
        arr = np.asarray(values, dtype=float)
        self.require(arr.size > 0 and bool(np.all(np.isfinite(arr))),
                     f"{what}: non-finite or empty")
        self.require(bool(np.all((arr >= 0.0) & (arr <= 1.0))), f"{what}: outside [0, 1]")

    def equilibrium(self, game, dist, x: float) -> None:
        residual = abs(float(games.aggregate_best_response(game, dist, x)) - x)
        self.err = max(self.err, residual)
        self.require(0.0 <= x <= 1.0 and residual <= RESIDUAL_TOL,
                     f"equilibrium {x!r} has residual {residual:.3g}")

    def certified(self, game, dist, protocol, x: float, direction: str) -> None:
        test = (stability.is_critical_mass_decrease if direction == "decrease"
                else stability.is_critical_mass_increase)
        try:
            ok = test(game, dist, protocol, x)[0]
        except EvodynError as exc:
            self.wrong.append(f"{direction} level {x!r} rejected: {exc}")
            return
        self.require(ok, f"reported {direction} level {x!r} fails its certificate")


class Op:
    """One unit of user work; ``run`` is timed, ``prepare`` and ``check`` are not."""

    key = ""

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, result, chk: Check) -> None:
        raise NotImplementedError


# -- ensemble ----------------------------------------------------------------

class IntegrateOp(Op):
    def __init__(self, key, game, dist, protocol, x0, ref: dict, run_spec: dict):
        self.key, self.game, self.dist, self.protocol, self.x0 = key, game, dist, protocol, x0
        self.ref, self.spec = ref, run_spec

    def run(self):
        return dynamics.integrate(self.game, self.dist, self.protocol, self.x0,
                                  t_end=self.spec["t_end"], dt=self.spec["dt"])

    def check(self, traj, chk: Check) -> None:
        chk.unit_path("aggregate path", traj.xbars)
        for t, ref in zip(self.spec["checkpoints"], self.ref["ref"]):
            chk.close(f"aggregate at t={t}", traj.xbar_at(t), ref, self.ref["tol"])


class Workload:
    """Stored spec plus a seeded op stream; each pass shuffles ``self.ops``."""

    name = ""
    # Passes a run makes even when --seconds has passed, where the tail
    # percentile would otherwise move between op kinds from run to run.
    min_passes = 1
    in_child_process = False  # whether ops run the program in a child process

    def __init__(self, refs: dict, root: Path, work: Path):
        self.spec, self.root, self.work = refs.get(self.name), root, work

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def next_pass(self) -> list[Op]:
        return [self.ops[i] for i in self.rng.permutation(len(self.ops))]


class Ensemble(Workload):
    """Many short integrations at n = 500 over a stored pool of cases."""

    name = "ensemble"

    def setup(self, seed: int) -> None:
        spec = self.spec
        game, dist = make_game(spec["game"]), make_dist(spec["dist"])
        grid = composition.make_grid(dist, spec["n"])
        self.ops = []
        for i, case in enumerate(spec["cases"]):
            x0 = make_composition(grid, dist, game, case["composition"])
            ref = {"ref": case["ref"], "tol": spec["tolerance"][case["protocol"]["kind"]]}
            self.ops.append(IntegrateOp(f"case{i}", game, dist, make_protocol(case["protocol"]),
                                        x0, ref, spec))
        self.rng = np.random.default_rng(seed)


# -- escape-large ------------------------------------------------------------

class EscapeOp(IntegrateOp):
    def __init__(self, *args, xbar_dagger: float, expect_escape: bool):
        super().__init__(*args)
        self.xbar_dagger, self.expect_escape = xbar_dagger, expect_escape

    def run(self):
        traj = super().run()
        report = flows.escape_certificate(self.game, self.dist, self.protocol, self.x0,
                                          self.xbar_dagger)
        return traj, report

    def check(self, result, chk: Check) -> None:
        traj, report = result
        super().check(traj, chk)
        chk.require(bool(np.all(np.isfinite(report.bound))), "frozen-rate bound not finite")
        chk.certified(self.game, self.dist, self.protocol, self.xbar_dagger, "decrease")
        if self.expect_escape:
            # the paper's escape result: the reversed composition leaves the
            # homogenized-stable equilibrium and is certified never to return
            chk.require(report.crossing_time is not None and report.crossing_time > 0.0,
                        "reversed composition: escape not certified")


def pick_decrease_level(game, dist, protocol, xbar_star: float) -> float | None:
    """Largest certified decrease level below ``xbar_star``, as the CLI picks it."""
    report = stability.critical_mass_sets(game, dist, protocol)
    below = [hi for _, hi in report.decrease_intervals if hi < xbar_star]
    return max(below) if below else None


class EscapeLarge(Workload):
    """The paper's escape experiment on a 32000-node grid."""

    name = "escape-large"
    # An op takes over a second, so a run makes about 4 passes (16 samples)
    # and op_tail_s, 10 samples below the maximum, reads near p37.5 to p50.
    # Ten passes would reach p75 but would not fit the benchmark's run time.
    min_passes = 4

    def setup(self, seed: int) -> None:
        spec = self.spec
        game, dist = make_game(spec["game"]), make_dist(spec["dist"])
        protocol = make_protocol(spec["protocol"])
        grid = composition.make_grid(dist, spec["n"])
        dagger = pick_decrease_level(game, dist, protocol, spec["xbar_star"])
        self.ops = []
        for i, case in enumerate(spec["cases"]):
            recipe = case["composition"]
            x0 = make_composition(grid, dist, game, recipe)
            ref = {"ref": case["ref"], "tol": spec["tolerance"]}
            self.ops.append(EscapeOp(f"{recipe['kind']}{i}", game, dist, protocol, x0, ref,
                                     spec, xbar_dagger=dagger,
                                     expect_escape=recipe["kind"] == "reversed"))
        self.rng = np.random.default_rng(seed)


# -- certify -----------------------------------------------------------------

def _logistic_cdf(theta, s):
    """Truncated logistic(0, s) c.d.f. on [-12 s, 12 s], for shape screening."""
    lo = 1.0 / (1.0 + math.exp(12.0))
    t = np.clip(theta, -12.0 * s, 12.0 * s)
    return (1.0 / (1.0 + np.exp(-t / s)) - lo) / (1.0 - 2.0 * lo)


def draw_certify_game(rng, affine: bool) -> dict:
    """A random game of coordination shape: stable low, unstable, stable high.

    Affine games use sqrt-shift types; F(x) = a x + b has two interior fixed
    points iff (a - 2)^2 + 4 b > 0.  Linear coordination games use truncated
    logistic types and are screened on a grid with the closed-form c.d.f.
    """
    if affine:
        while True:
            a, b = rng.uniform(2.3, 2.7), rng.uniform(-0.08, -0.03)
            if (a - 2.0) ** 2 + 4.0 * b > 0.0:
                return {"game": {"family": "affine", "a": a, "b": b},
                        "dist": {"family": "sqrt_shift"},
                        "protocol": {"kind": "power", "k": int(rng.choice([2, 3, 4]))}}
    xs = np.linspace(0.0, 1.0, 2001)
    while True:
        c, s = rng.uniform(0.15, 0.85), rng.uniform(0.03, 0.08)
        g = _logistic_cdf(xs - c, s) - xs
        low, high = xs < c, xs > c
        if g[low].min() < 0.0 and g[high].max() > 0.0:
            return {"game": {"family": "linear_coordination", "c": c},
                    "dist": {"family": "logistic", "mu": 0.0, "s": s},
                    "protocol": {"kind": "bounded_power", "k": int(rng.choice([2, 3])),
                                 "pisharp": rng.uniform(0.01, 0.2)}}


class CertifyOp(Op):
    def __init__(self, key, spec: dict, escape_n: int):
        self.key, self.spec, self.escape_n = key, spec, escape_n
        self.game, self.dist = make_game(spec["game"]), make_dist(spec["dist"])
        self.protocol = make_protocol(spec["protocol"])

    def run(self):
        game, dist, protocol = self.game, self.dist, self.protocol
        eqs = equilibria.find_aggregate_equilibria(game, dist)
        cms = stability.critical_mass_sets(game, dist, protocol)
        robust = stability.select_most_robust(game, dist)
        interior = [e.xbar for e in eqs.stable if 0.0 < e.xbar < 1.0]
        escape = None
        if interior:
            xbar_star = max(interior)
            below = [hi for _, hi in cms.decrease_intervals if hi < xbar_star]
            if below:
                dagger = max(below)
                grid = composition.make_grid(dist, self.escape_n)
                x0 = composition.reversed_composition(grid, dist, xbar_star)
                escape = dagger, flows.escape_certificate(game, dist, protocol, x0, dagger)
        return eqs, cms, robust, escape

    def check(self, result, chk: Check) -> None:
        eqs, cms, robust, escape = result
        game, dist, protocol = self.game, self.dist, self.protocol
        for eq in eqs.equilibria:
            chk.equilibrium(game, dist, eq.xbar)
        for direction, intervals in (("decrease", cms.decrease_intervals),
                                     ("increase", cms.increase_intervals)):
            for lo, hi in intervals:
                chk.certified(game, dist, protocol, lo, direction)
                chk.certified(game, dist, protocol, hi, direction)
        stable = [e.xbar for e in eqs.stable]
        chk.require(robust.selected is None or robust.selected in stable,
                    f"selected {robust.selected!r} is not a reported stable equilibrium")
        if escape is not None:
            dagger, report = escape
            chk.certified(game, dist, protocol, dagger, "decrease")
            chk.require(bool(np.all(np.isfinite(report.bound))), "frozen-rate bound not finite")


class Certify(Workload):
    """Certificate pipeline on random coordination-shape games; no ODE."""

    name = "certify"
    games_per_pass = 16
    escape_n = 4000

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def next_pass(self) -> list[Op]:
        ops = []
        for i in range(self.games_per_pass):
            spec = draw_certify_game(self.rng, affine=i % 2 == 0)
            ops.append(CertifyOp(f"game{self.count}", spec, self.escape_n))
            self.count += 1
        return ops


# -- cli ---------------------------------------------------------------------

def read_csv(path: Path) -> list[list]:
    """Rows of a CLI CSV file below its header: numbers, or source labels."""
    rows = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.append([cell if cell in ("inflow", "outflow") else float(cell)
                         for cell in row])
    return rows


def output_hashes(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class CliOp(Op):
    """One ``evodyn <subcommand> --config <file>`` invocation, as shipped.

    The exit code must equal the seed program's (``expected_code``).  A
    matching non-zero code is the known refusal; any other code is wrong.
    """

    def __init__(self, root: Path, work: Path, stem: str, sub: str, scenario, ref: dict,
                 expected_code: int):
        self.key = f"{sub}:{stem}"
        self.root, self.sub, self.scenario, self.ref = root, sub, scenario, ref
        self.expected_code = expected_code
        self.out = work / stem / sub
        self.argv = [sub, "--config", str(root / "configs" / f"{stem}.ini"),
                     "--out", str(self.out)]

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "evodyn.cli", *self.argv],
                              cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def run_inprocess(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, result, chk: Check) -> None:
        code, stdout = result
        said = " ".join(stdout.split())[:300]
        if code != self.expected_code:
            chk.wrong.append(f"exit {code}, expected {self.expected_code}: {said}")
            return
        if code != 0:
            chk.refused = f"exit {code}, as at the seed: {said}"
            return
        parsed = {}
        for path in sorted(self.out.rglob("*")):
            if not path.is_file():
                continue
            try:
                parsed[str(path.relative_to(self.out))] = (
                    json.loads(path.read_text()) if path.suffix == ".json" else read_csv(path))
            except (ValueError, StopIteration) as exc:
                chk.wrong.append(f"{path.name} does not parse: {exc}")
        chk.require(parsed, "no output files")
        getattr(self, "_check_" + self.sub.replace("-", "_"))(parsed, chk)

    def _check_equilibria(self, out, chk):
        sc = self.scenario
        for eq in out["equilibria.json"]["equilibria"]:
            chk.equilibrium(sc.game, sc.dist, eq["xbar"])

    def _check_simulate(self, out, chk):
        rows = np.asarray(out["trajectory.csv"], dtype=float)
        chk.unit_path("aggregate path", rows[:, 1])
        half = 0.5 * self.scenario.dt
        for t, ref in zip(self.ref["checkpoints"], self.ref["ref"]):
            hit = np.flatnonzero(np.abs(rows[:, 0] - t) <= half)
            chk.require(hit.size == 1, f"no trajectory row at t={t}")
            if hit.size == 1:
                chk.close(f"aggregate at t={t}", rows[hit[0], 1], ref, self.ref["tol"])
        chk.require("xbar_final" in out["summary.json"], "summary.json lacks xbar_final")

    def _check_critical_mass(self, out, chk):
        sc, report = self.scenario, out["critical_mass.json"]
        for direction in ("decrease", "increase"):
            for lo, hi in report[f"{direction}_intervals"]:
                chk.certified(sc.game, sc.dist, sc.protocol, lo, direction)
                chk.certified(sc.game, sc.dist, sc.protocol, hi, direction)

    def _check_select(self, out, chk):
        sc, report = self.scenario, out["select.json"]
        if report["selected"] is not None:
            chk.equilibrium(sc.game, sc.dist, report["selected"])
        if sc.pisharp_sweep:
            entries = out["sweep.json"]["entries"]
            chk.require(len(entries) == len(sc.pisharp_sweep), "sweep.json misses entries")

    def _check_flows(self, out, chk):
        report = out["flows.json"]
        for key in ("inflow_mass", "outflow_mass"):
            chk.unit_path(key, [report[key]])
        chk.require(math.isfinite(report["velocity"]), "flow velocity is not finite")

    def _check_escape(self, out, chk):
        sc, report = self.scenario, out["escape.json"]
        chk.certified(sc.game, sc.dist, sc.protocol, report["xbar_dagger"], "decrease")
        bound = np.asarray(out["bound.csv"], dtype=float)[:, 1]
        chk.require(bool(np.all(np.isfinite(bound))), "frozen-rate bound not finite")


class Cli(Workload):
    """Every subcommand on both bundled configs, each a fresh process."""

    name = "cli"
    # 2 of the 12 ops of a pass are the slow ``simulate`` runs, so the tail
    # percentile (10 samples beyond it) falls on one.  With 8 passes it is the
    # 6th fastest of 16, a steadier order statistic than the 2nd fastest of
    # 12 at 6 passes; 10 passes (the simulate median) take too long a run.
    min_passes = 8
    in_child_process = True

    def setup(self, seed: int) -> None:
        self.ops = []
        for stem in CLI_CONFIGS:
            scenario = config.parse_config(self.root / "configs" / f"{stem}.ini")
            ref = self.spec["simulate"][stem]
            for sub in cli.SUBCOMMANDS:
                code = self.spec["exit_codes"][f"{sub}:{stem}"]
                self.ops.append(CliOp(self.root, self.work, stem, sub, scenario, ref, code))
        self.rng = np.random.default_rng(seed)


WORKLOADS = {cls.name: cls for cls in (Ensemble, EscapeLarge, Certify, Cli)}
