"""Regenerate ``refs.json``, the stored references the benchmark checks against.

Run from the root of a checkout (about two minutes on two cores):

    python3 evobench/make_refs.py

It writes, from the program in ``src/``:

* the ``ensemble`` and ``escape-large`` case pools (drawn once from
  ``POOL_SEED``; a run's seed only orders them), each case with its
  aggregates at the checkpoint times from an integration at dt / 8;
* the same for the CLI ``simulate`` runs of both bundled configs;
* the SHA-256 of every file the CLI writes, per config and subcommand.

Tolerances are derived from the measured error of the program at the
benchmark's dt against the dt / 8 reference: ten times the largest error of
the group, rounded up to a power of ten (``workloads.tolerance``).  The
reference's own error is estimated by refining once more (dt / 16) on the
worst case of each group and recorded next to the tolerance; it must sit
well below it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import use_checkout

ROOT = use_checkout(Path.cwd())

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from evodyn import cli, composition, config, dynamics  # noqa: E402

POOL_SEED = 20180512
REFINE = 8
CANON = {"game": {"family": "affine", "a": 2.45, "b": -0.05}, "dist": {"family": "sqrt_shift"}}


def ensemble_cases(rng) -> list[dict]:
    """Eight composition recipes for each of the three protocol kinds."""
    cases = []
    for protocol in ("standard", "power", "bounded_power"):
        for kind in ("random", "sorted", "reversed", "mixture", "balanced", "perturbed",
                     "random", "random"):
            recipe = {"kind": kind, "xbar0": float(rng.uniform(0.05, 0.6))}
            if kind == "random":
                recipe["seed"] = int(rng.integers(2**31))
            elif kind == "mixture":
                recipe["weight"] = float(rng.uniform(0.2, 0.8))
            elif kind in ("balanced", "perturbed"):
                # flow-balanced compositions exist only at aggregate equilibria
                recipe.update(xbar0=float(rng.choice([0.2, 0.25])),
                              kappa=float(rng.uniform(0.1, 0.6)),
                              pimax=float(rng.uniform(0.1, 0.4)))
                if kind == "perturbed":
                    recipe["eps"] = float(rng.uniform(0.01, 0.1))
            spec = {"kind": protocol}
            if protocol == "power":
                spec["k"] = 3
            elif protocol == "bounded_power":
                spec.update(k=2, pisharp=float(rng.uniform(0.2, 1.0)))
            cases.append({"protocol": spec, "composition": recipe})
    return cases


def at_checkpoints(traj, checkpoints) -> list[float]:
    return [traj.xbar_at(t) for t in checkpoints]


def reference(game, dist, protocol, x0, spec, checkpoints, refine=REFINE):
    traj = dynamics.integrate(game, dist, protocol, x0, t_end=spec["t_end"],
                              dt=spec["dt"] / refine)
    return at_checkpoints(traj, checkpoints)


def fill_pool(spec: dict, group_of) -> dict:
    """Add references, measured errors and per-group tolerances to a pool."""
    game, dist = wl.make_game(spec["game"]), wl.make_dist(spec["dist"])
    grid = composition.make_grid(dist, spec["n"])
    errors, worst = {}, {}
    for case in spec["cases"]:
        protocol = wl.make_protocol(case.get("protocol", spec.get("protocol")))
        x0 = wl.make_composition(grid, dist, game, case["composition"])
        ref = reference(game, dist, protocol, x0, spec, spec["checkpoints"])
        coarse = at_checkpoints(
            dynamics.integrate(game, dist, protocol, x0, t_end=spec["t_end"], dt=spec["dt"]),
            spec["checkpoints"])
        case["ref"] = ref
        case["seed_err"] = max(abs(a - b) for a, b in zip(coarse, ref))
        group = group_of(case)
        errors.setdefault(group, []).append(case["seed_err"])
        if group not in worst or case["seed_err"] > worst[group][0]["seed_err"]:
            worst[group] = (case, protocol, x0)
        print(f"  {group:14s} {case['composition']['kind']:9s} err {case['seed_err']:.3g}",
              flush=True)
    refinement = {}
    for group, (case, protocol, x0) in worst.items():
        finer = reference(game, dist, protocol, x0, spec, spec["checkpoints"], 2 * REFINE)
        refinement[group] = max(abs(a - b) for a, b in zip(finer, case["ref"]))
    spec["tolerance"] = {g: wl.tolerance(e) for g, e in errors.items()}
    spec["seed_err_max"] = {g: max(e) for g, e in errors.items()}
    # change of the reference when dt / 8 is refined to dt / 16, on the case
    # with the largest error of each group: an estimate of the reference's error
    spec["ref_refinement_change"] = refinement
    return spec


def cli_refs(work: Path) -> dict:
    """Simulate references and the output manifest of the seed CLI."""
    out = {"checkpoints": [10.0, 20.0, 30.0, 40.0, 50.0], "simulate": {}, "manifest": {},
           "exit_codes": {}}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for stem in wl.CLI_CONFIGS:
        cfg = ROOT / "configs" / f"{stem}.ini"
        for sub in cli.SUBCOMMANDS:
            dest = work / stem / sub
            proc = subprocess.run(
                [sys.executable, "-m", "evodyn.cli", sub, "--config", str(cfg), "--out",
                 str(dest)], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=wl.CLI_TIMEOUT_S)
            out["exit_codes"][f"{sub}:{stem}"] = proc.returncode
            out["manifest"][f"{sub}:{stem}"] = (wl.output_hashes(dest) if dest.exists()
                                                else {})
        sc = config.parse_config(cfg)
        grid = composition.make_grid(sc.dist, sc.n)
        x0 = cli.build_initial(sc, grid)
        spec = {"t_end": sc.t_end, "dt": sc.dt}
        ref = reference(sc.game, sc.dist, sc.protocol, x0, spec, out["checkpoints"])
        finer = reference(sc.game, sc.dist, sc.protocol, x0, spec, out["checkpoints"],
                          2 * REFINE)
        rows = np.asarray(wl.read_csv(work / stem / "simulate" / "trajectory.csv"))
        coarse = [rows[np.argmin(np.abs(rows[:, 0] - t)), 1] for t in out["checkpoints"]]
        err = max(abs(a - b) for a, b in zip(coarse, ref))
        out["simulate"][stem] = {
            "checkpoints": out["checkpoints"], "ref": ref, "seed_err": err,
            "tol": wl.tolerance([err]),
            "ref_refinement_change": max(abs(a - b) for a, b in zip(finer, ref)),
        }
        print(f"  cli {stem:22s} err {err:.3g}", flush=True)
    return out


def main() -> None:
    rng = np.random.default_rng(POOL_SEED)
    refs = {"pool_seed": POOL_SEED, "refine": REFINE}
    print("ensemble", flush=True)
    refs["ensemble"] = fill_pool(
        {**CANON, "n": 500, "t_end": 20.0, "dt": 0.01, "checkpoints": [5.0, 10.0, 15.0, 20.0],
         "cases": ensemble_cases(rng)},
        lambda case: case["protocol"]["kind"])
    print("escape-large", flush=True)
    balanced = [{"kind": "balanced", "xbar0": 0.25, "kappa": k, "pimax": p}
                for k, p in ((0.5, 0.3), (0.3, 0.5), (0.7, 0.2))]
    refs["escape-large"] = fill_pool(
        {**CANON, "protocol": {"kind": "power", "k": 3}, "n": 32000, "t_end": 5.0,
         "dt": 0.01, "xbar_star": 0.25, "checkpoints": [1.0, 2.0, 3.0, 4.0, 5.0],
         "cases": [{"composition": {"kind": "reversed", "xbar0": 0.25}}]
         + [{"composition": b} for b in balanced]},
        lambda case: "all")
    refs["escape-large"]["tolerance"] = refs["escape-large"]["tolerance"]["all"]
    print("cli", flush=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        refs["cli"] = cli_refs(Path(tmp))
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFS_PATH}")


if __name__ == "__main__":
    main()
