"""Config-driven scenario runner.

Invocation::

    evodyn <subcommand> --config <path> [--out <dir>] [--override key=value ...]

Subcommands: equilibria, simulate, critical-mass, select, flows, escape.
Each writes JSON reports and/or CSV files into the output directory.  JSON
numbers, the ``thresholds`` keys of ``select.json`` and the
``sweep/<pisharp>/`` directory names are the shortest decimals that read back
to the same doubles, and a non-finite number is refused as an analysis
error; CSV cells use 17 significant digits.  Keys are sorted, so repeated
runs of the same config produce byte-identical files.  Exit codes: 0 on
success, 2 for config errors and for a file or directory that cannot be read
or written, 3 for analysis errors; every error also emits one
machine-readable JSON line on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import composition as comp
from . import dynamics, equilibria, flows, stability
from .config import Scenario, _read_utf8, parse_config
from .errors import AnalysisError, ConfigError, EvodynError, InputError

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_json(path: Path, obj) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot spell
        raise AnalysisError(f"cannot write {path}: {exc}") from None
    path.write_text(text + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row)
                 for row in rows)
    path.write_text("\n".join(lines) + "\n")


def build_initial(scenario: Scenario, grid: comp.TypeGrid) -> comp.BayesianStrategy:
    """Materialize the configured initial composition on the scenario grid."""
    spec = scenario.initial
    if spec is None:
        raise ConfigError("this subcommand needs an [initial] section")
    kind = spec.composition
    if kind in ("sorted", "reversed", "balanced") and spec.xbar0 is None:
        raise ConfigError(f"initial.composition = {kind} needs initial.xbar0")
    if kind == "sorted":
        return comp.sorted_composition(grid, spec.xbar0)
    if kind == "reversed":
        return comp.reversed_composition(grid, scenario.dist, spec.xbar0)
    if kind == "balanced":
        if spec.kappa is None or spec.pimax is None:
            raise ConfigError("balanced composition needs initial.kappa and initial.pimax")
        return comp.balanced_composition(
            grid, scenario.dist, scenario.game, spec.xbar0, spec.kappa, spec.pimax
        )
    if kind == "custom-csv":
        if spec.path is None:
            raise ConfigError("custom-csv composition needs initial.path")
        return _load_custom_csv(Path(spec.path), grid)
    raise ConfigError(f"unknown initial composition {kind!r}")


def _load_custom_csv(path: Path, grid: comp.TypeGrid) -> comp.BayesianStrategy:
    if not path.is_file():
        raise ConfigError(f"composition file {path} does not exist")
    lines = map(str.strip, _read_utf8(path, "composition file").splitlines())
    rows = [(lineno, text) for lineno, text in enumerate(lines, start=1)
            if text and not text.startswith("#")]
    if rows and rows[0][1].lower().replace(" ", "") == "theta,x":
        del rows[0]  # the optional header
    thetas, values = [], []
    for lineno, text in rows:
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigError(f"expected 'theta,x' in {path}", lineno)
        try:
            thetas.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise ConfigError(f"malformed number in {path}", lineno) from None
        if not math.isfinite(thetas[-1]):  # BayesianStrategy refuses a non-finite x
            raise ConfigError(f"theta must be finite in {path}", lineno)
    if not thetas:
        raise ConfigError(f"composition file {path} has no rows")
    order = np.argsort(thetas, kind="stable")
    thetas = np.asarray(thetas)[order]
    values = np.asarray(values)[order]
    # piecewise-constant: each node takes the value of the last row at or below it
    idx = np.clip(np.searchsorted(thetas, grid.nodes, side="right") - 1, 0, None)
    return comp.BayesianStrategy(grid=grid, values=values[idx])


def _run_equilibria(scenario: Scenario, out: Path) -> None:
    report = equilibria.find_aggregate_equilibria(scenario.game, scenario.dist)
    _write_json(out / "equilibria.json", dataclasses.asdict(report))


def _run_simulate(scenario: Scenario, out: Path) -> None:
    grid = comp.make_grid(scenario.dist, scenario.n)
    x0 = build_initial(scenario, grid)
    traj = dynamics.integrate(
        scenario.game,
        scenario.dist,
        scenario.protocol,
        x0,
        t_end=scenario.t_end,
        dt=scenario.dt,
        snapshot_times=scenario.snapshot_times,
    )
    _write_csv(out / "trajectory.csv", "t,xbar", zip(traj.times, traj.xbars))
    if traj.snapshots:
        rows = []
        for t, values in traj.snapshots:
            rows.extend(zip([t] * grid.n, grid.nodes, values))
        _write_csv(out / "snapshots.csv", "t,theta,x", rows)
    _write_json(
        out / "summary.json",
        {
            "xbar0": float(traj.xbars[0]),
            "xbar_final": traj.final_xbar,
            "clamp_total": traj.clamp_total,
            "grid_n": scenario.n,
            "dt": scenario.dt,
            "t_end": scenario.t_end,
        },
    )


def _run_critical_mass(scenario: Scenario, out: Path) -> None:
    report = stability.critical_mass_sets(scenario.game, scenario.dist, scenario.protocol)
    _write_json(out / "critical_mass.json", dataclasses.asdict(report))
    xs = np.linspace(0.0, 1.0, 1001)
    deficit = np.abs(stability._cutoff_deficit(scenario.game, scenario.dist, xs)[2])
    _write_csv(out / "deficit_curve.csv", "xbar,deficit", zip(xs, deficit))


def _select_payload(report: stability.RobustnessReport) -> dict:
    entries = [dataclasses.asdict(e) for e in report.entries]
    for entry in entries:
        entry["xbar"] = entry.pop("xbar_star")
    return {
        "selected": report.selected,
        "tie": report.tie,
        "thresholds": {repr(float(e.xbar_star)): e.overall for e in report.entries},
        "equilibria": entries,
    }


def _run_select(scenario: Scenario, out: Path) -> None:
    report = stability.select_most_robust(scenario.game, scenario.dist)
    _write_json(out / "select.json", _select_payload(report))
    if not scenario.pisharp_sweep:
        return
    entries = []
    for pisharp in scenario.pisharp_sweep:
        surviving = report.surviving(pisharp)
        entry = {
            "pisharp": pisharp,
            "surviving": list(surviving),
            "selected": surviving[0] if len(surviving) == 1 else None,
        }
        sub = out / "sweep" / repr(float(pisharp))
        sub.mkdir(parents=True, exist_ok=True)
        _write_json(sub / "select.json", entry)
        entries.append(entry)
    _write_json(out / "sweep.json", {"entries": entries})


def _run_flows(scenario: Scenario, out: Path) -> None:
    grid = comp.make_grid(scenario.dist, scenario.n)
    x0 = build_initial(scenario, grid)
    xbar_ref, inflow, outflow = flows.start_sources(
        scenario.game, scenario.dist, scenario.protocol, x0
    )
    rows = [(q, m, "inflow") for q, m in zip(inflow.qs, inflow.ms)]
    rows += [(q, m, "outflow") for q, m in zip(outflow.qs, outflow.ms)]
    _write_csv(out / "flows.csv", "q,m,source", rows)
    _write_json(
        out / "flows.json",
        {
            "xbar_ref": xbar_ref,
            "inflow_mass": inflow.total_mass,
            "outflow_mass": outflow.total_mass,
            "velocity": flows.aggregate_velocity_from_flows(inflow, outflow),
            "detailed_balance_residual": flows.detailed_balance_residual(inflow, outflow),
        },
    )


def _pick_decrease_level(scenario: Scenario, xbar_star: float) -> float:
    report = stability.critical_mass_sets(scenario.game, scenario.dist, scenario.protocol)
    candidates = [hi for _, hi in report.decrease_intervals if hi < xbar_star]
    if not candidates:
        raise InputError(
            f"no certified decrease level below the starting equilibrium {xbar_star:.6g}"
        )
    return max(candidates)


def _run_escape(scenario: Scenario, out: Path) -> None:
    grid = comp.make_grid(scenario.dist, scenario.n)
    x0 = build_initial(scenario, grid)
    xbar_star = flows.start_sources(scenario.game, scenario.dist, scenario.protocol, x0)[0]
    xbar_dagger = _pick_decrease_level(scenario, xbar_star)
    report = flows.escape_certificate(
        scenario.game,
        scenario.dist,
        scenario.protocol,
        x0,
        xbar_dagger,
        t_end=scenario.t_end,
    )
    # a separate certificate, run after the frozen-rate one so that its
    # refusals keep their message; null where its preconditions fail
    try:
        ratio = flows.rate_ratio_escape_bound(scenario.game, scenario.dist, scenario.protocol)
    except (InputError, AnalysisError):
        rate_ratio = None
    else:
        rate_ratio = dataclasses.asdict(ratio)
    _write_json(
        out / "escape.json",
        {
            "xbar_star": xbar_star,
            "xbar_dagger": xbar_dagger,
            "dominance": report.dominance,
            "crossing_time": report.crossing_time,
            "rate_ratio": rate_ratio,
        },
    )
    _write_csv(out / "bound.csv", "t,xbarbar", zip(report.times, report.bound))


_RUNNERS = {
    "equilibria": _run_equilibria,
    "simulate": _run_simulate,
    "critical-mass": _run_critical_mass,
    "select": _run_select,
    "flows": _run_flows,
    "escape": _run_escape,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(scenario: Scenario, subcommand: str, out_dir) -> None:
    """Execute one subcommand, writing its outputs under ``out_dir``."""
    if subcommand not in _RUNNERS:
        raise InputError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _RUNNERS[subcommand](scenario, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evodyn",
        description="Heterogeneous best-response dynamics in binary aggregate games",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry, e.g. game.a=2.45 (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        scenario = parse_config(args.config, overrides=tuple(args.override))
        run(scenario, args.subcommand, args.out)
    except (ConfigError, OSError) as exc:
        error = {"kind": "config", "message": str(exc), "line": getattr(exc, "line", None)}
        print(json.dumps({"error": error}, sort_keys=True))
        return 2
    except EvodynError as exc:
        error = {"kind": "analysis", "message": str(exc), "line": None}
        print(json.dumps({"error": error}, sort_keys=True))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
