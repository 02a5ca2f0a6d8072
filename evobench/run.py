"""evodyn benchmark: one workload per run, closed loop, one client.

Run from the root of a checkout:

    python3 evobench/run.py --workload ensemble --seed 1 --seconds 15 --trace 0
    python3 evobench/run.py --workload all --seed 1     # every workload, one row each

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  A detailed record with run metadata goes to
``.bench_results/`` in the checkout.  See evobench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# A run makes the workload's minimum passes and then stops once its ops have
# taken --seconds of rescaled time, or this multiple of --seconds of wall time
# on a slow machine, so that load cannot stretch the benchmark's total time.
MAX_STRETCH = 1.5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# End-to-end times are wall times rescaled to the machine speed at which the
# calibration kernel takes this long (about its typical time on a 2-core
# Intel Xeon VM shared with other tenants, 1.6 ms to 3 ms as load varies).
CALIBRATION_REF_S = 0.002
# Computed float64 traffic of one RK4 step per node: 4 field evaluations
# (read state and nodes, write velocity), 3 stage states (read 2, write 1),
# the update (read 5, write 1) and the clamp (read 1, write 1): 29 arrays.
RK4_ARRAYS_PER_STEP = 29

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "result_err_max": "abs",
}

PER_LAYER = {
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.field_evals": "count",
    "dynamics.step_us": "us",
    "dynamics.node_steps_per_s": "1/s",
    "dynamics.bytes_per_step_computed": "B",
    "equilibria.find_aggregate_equilibria.calls": "count",
    "equilibria.find_aggregate_equilibria.self_s": "s",
    "equilibria.calls_per_op": "count",
    "equilibria.useful_ratio": "ratio",
    "games.aggregate_best_response.calls": "count",
    "games.aggregate_best_response.self_s": "s",
    "stability.critical_mass_sets.calls": "count",
    "stability.critical_mass_sets.self_s": "s",
    "stability.certificate.calls": "count",
    "stability.certificate.self_s": "s",
    "stability.select_most_robust.self_s": "s",
    "stability.robustness_threshold.calls": "count",
    "flows.flow_distributions.self_s": "s",
    "flows.bound_trajectory.self_s": "s",
    "flows.bound_exp_evals": "count",
    "flows.escape_certificate.self_s": "s",
    "flows.rate_ratio_escape_bound.calls": "count",
    "flows.rate_ratio_escape_bound.self_s": "s",
    "flows.sosd_compare.self_s": "s",
    "composition.make_grid.self_s": "s",
    "composition.constructors.self_s": "s",
    "config.parse_config.self_s": "s",
    "cli.startup_s": "s",
    "cli.run.self_s": "s",
    "cli.bytes_written": "B",
    "cli.outputs_changed": "count",
    "trace.overhead_ratio": "ratio",
}


def use_checkout(root: Path) -> Path:
    """Import evodyn from ``root/src`` and nowhere else; exit if it is absent."""
    root = root.resolve()
    src = root / "src"
    if not (src / "evodyn" / "__init__.py").is_file():
        sys.exit(f"evobench: no evodyn sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import evodyn

    if Path(evodyn.__file__).resolve().parent != (src / "evodyn").resolve():
        sys.exit(f"evobench: imported evodyn from {evodyn.__file__}, not from {src}")
    return root


# -- run metadata -------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``root/.git`` without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(root: Path, args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- statistics ---------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not touch evodyn.

    It does what dominates the workloads' time, small numpy operations
    driven from Python plus pure-Python arithmetic, on a few kilobytes that
    stay in cache, so its time tracks the speed the machine currently gives
    this process and not what the previous op left in memory.  The machine
    this benchmark was built on shares cores with other tenants and its speed
    drifts by up to 2x over seconds to minutes; dividing op times by this
    kernel's time, measured next to every op, removes most of that drift.
    """
    import numpy as np

    start = perf_counter()
    x = np.linspace(0.0, 1.0, 512)
    for _ in range(150):
        x = np.where(x > 0.5, (1.0 - x) * x, -x * x) + 0.25
    total = 0
    for i in range(20000):
        total += i
    return perf_counter() - start


def speed_factors(cal: list[float], in_child: bool) -> list[float]:
    """Speed factor of each op from the calibrations ``cal`` around the ops.

    An op run in this process is rescaled by the mean of the calibrations
    just before and after it.  A child process may run on the other core,
    whose speed the calibration here does not follow: rescaled that way,
    the ten-seed spread of ``cli``'s op_tail_s was 0.42, against 0.14 for
    raw wall time.  So ops run in a child process, like the set-up probes,
    share one factor for the run, the median of the per-op factors.
    """
    per_op = [CALIBRATION_REF_S / (0.5 * (a + b)) for a, b in zip(cal, cal[1:])]
    return [statistics.median(per_op)] * len(per_op) if in_child else per_op


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# -- op execution -------------------------------------------------------------

class Tally:
    """Attempted, failed and wrong op counts, with the largest reference error.

    Failed ops are wrong ones plus known refusals; only wrong ops make the
    run incorrect.
    """

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.err_max = 0.0
        self.problems: list[str] = []

    def add(self, key: str, chk) -> None:
        self.attempted += 1
        self.err_max = max(self.err_max, chk.err)
        if chk.failed:
            self.failed += 1
            self.wrong += bool(chk.wrong)
            if len(self.problems) < 20:
                self.problems.append(f"{key}: {'; '.join(chk.wrong[:3]) or chk.refused}")

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def execute(op, tally: Tally, tracer=None, op_id=None, inprocess=False) -> float:
    """Prepare, run (timed), check one op; return its wall time in seconds.

    Every op of every workload runs without error at the seed, so an
    exception raised by the program, or by a check, makes the op wrong.
    """
    from workloads import Check

    op.prepare()
    chk = Check()
    run = op.run_inprocess if inprocess else op.run
    result = None
    if tracer is not None:
        tracer.enabled = True
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        result = run()
    except Exception as exc:  # the op boundary: record, count, keep going
        chk.wrong.append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            wall = tracer.end_op()
            tracer.enabled = False
    if not chk.failed:
        try:
            op.check(result, chk)
        except Exception as exc:  # a malformed result, or the program failing a check
            chk.wrong.append(f"check raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
    tally.add(op.key, chk)
    return wall


def make_workload(name: str, root: Path):
    import workloads

    return workloads.WORKLOADS[name](workloads.load_refs(), root, root / ".bench_work")


# -- the two kinds of run ---------------------------------------------------

def probe_setup(root: Path, args) -> float:
    """Seconds from spawning a fresh process to its first op being ready."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"evobench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_untraced(root: Path, args) -> tuple[dict, dict, Tally]:
    wl = make_workload(args.workload, root)
    wl.setup(args.seed)
    tally, walls, spans, keys, setups = Tally(), [], [], [], []
    cal = [calibrate()]
    scaled_elapsed, passes, start = 0.0, 0, perf_counter()
    while True:
        # set-up probes are spread over the run, one per pass, so that their
        # median does not hinge on one stretch of machine load
        if len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup(root, args))
        for op in wl.next_pass():
            begin = perf_counter()
            walls.append(execute(op, tally))
            spans.append(perf_counter() - begin)
            keys.append(op.key)
            cal.append(calibrate())
            # when to stop is judged on the calibrations around each op
            scaled_elapsed += spans[-1] * speed_factors(cal[-2:], in_child=False)[0]
        passes += 1
        long_enough = (scaled_elapsed >= args.seconds
                       or perf_counter() - start >= MAX_STRETCH * args.seconds)
        if long_enough and passes >= wl.min_passes:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(root, args))

    speed = speed_factors(cal, in_child=wl.in_child_process)
    run_factor = speed_factors(cal, in_child=True)[0]
    scaled = [w * f for w, f in zip(walls, speed)]
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "setup_s": statistics.median(setups) * run_factor,
        "ops_per_s": len(walls) / sum(t * f for t, f in zip(spans, speed)),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "result_err_max": tally.err_max,
    }
    detail = {
        "wall_time_metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(walls) / sum(spans),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail(walls)[0],
        },
        "setup_samples_s": setups,
        "op_samples": len(walls),
        "op_tail_percentile": tail_pct,
        "fail_ratio": tally.failed / tally.attempted,
        "passes": passes,
        "op_walls_s": walls,
        "op_speed_factors": speed,
        "op_keys": keys,
    }
    return metrics, detail, tally


def run_traced(root: Path, args) -> tuple[dict, dict, Tally]:
    from tracing import Tracer
    from workloads import output_hashes

    tracer = Tracer()
    tracer.install()
    wl = make_workload(args.workload, root)
    tracer.enabled = True
    tracer.begin_op("setup")
    wl.setup(args.seed)
    tracer.end_op()
    tracer.enabled = False

    is_cli = args.workload == "cli"
    manifest = wl.spec["manifest"] if is_cli else {}
    tally = Tally()
    plain, traced, traced_ids, startup = [], [], [], []
    written = changed = 0
    passes = 0
    start = perf_counter()
    while True:
        for i, op in enumerate(wl.next_pass()):
            op_id = f"p{passes}.{i}"
            if is_cli:
                startup.append(execute(op, tally))
            # alternate which variant runs first, so neither always sees warm caches
            for variant in ((False, True) if (passes + i) % 2 == 0 else (True, False)):
                if variant:
                    traced.append(execute(op, tally, tracer, op_id, inprocess=is_cli))
                    traced_ids.append(op_id)
                    if is_cli:
                        files = [p for p in op.out.rglob("*") if p.is_file()]
                        written += sum(p.stat().st_size for p in files)
                        seed = manifest.get(op.key, {})
                        now = output_hashes(op.out)
                        changed += sum(now.get(k) != seed.get(k) for k in now.keys() | seed)
                else:
                    plain.append(execute(op, tally, inprocess=is_cli))
            if is_cli:
                startup[-1] -= plain[-1]
        passes += 1
        if perf_counter() - start >= args.seconds:
            break

    calls_s, self_s, work_s = tracer.totals(["setup"])
    calls_p, self_p, work_p = tracer.totals(traced_ids)

    def calls(name):
        return calls_s[name] + calls_p[name] / passes

    def own(name):
        return self_s[name] + self_p[name] / passes

    def work(name):
        return work_s[name] + work_p[name] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    steps = work("dynamics.steps")
    integrate_s = own("dynamics.integrate")
    eq = "equilibria.find_aggregate_equilibria"
    eq_calls_total = calls_s[eq] + calls_p[eq]
    metrics = {
        "dynamics.steps": steps,
        "dynamics.field_evals": 4 * steps,
        "dynamics.step_us": 1e6 * ratio(integrate_s, steps),
        "dynamics.node_steps_per_s": ratio(work("dynamics.node_steps"), integrate_s),
        "dynamics.bytes_per_step_computed":
            8 * RK4_ARRAYS_PER_STEP * ratio(work("dynamics.node_steps"), steps),
        "equilibria.calls_per_op": calls_p[eq] / len(traced_ids),
        "equilibria.useful_ratio":
            ratio(len(work_s.games | work_p.games), eq_calls_total),
        "flows.bound_exp_evals": work("flows.bound_exp_evals"),
        "cli.startup_s": statistics.median(startup) if startup else 0.0,
        "cli.bytes_written": written / passes,
        "cli.outputs_changed": changed / passes,
        "trace.overhead_ratio": sum(traced) / sum(plain),
    }
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name not in metrics:
            metrics[name] = calls(base) if kind == "calls" else own(base)
    spans_path = results_dir(root) / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    tracer.uninstall()
    detail = {"passes": passes, "traced_ops": len(traced_ids), "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(root))}
    return metrics, detail, tally


# -- entry points -------------------------------------------------------------

def results_dir(root: Path) -> Path:
    path = root / ".bench_results"
    path.mkdir(exist_ok=True)
    return path


def run_one(root: Path, args) -> None:
    runner = run_traced if args.trace else run_untraced
    metrics, detail, tally = runner(root, args)
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "meta": metadata(root, args),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": tally.problems,
        **detail,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir(root) / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"evobench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} failed={tally.failed} wrong={tally.wrong}")
    for problem in tally.problems:
        print(f"  failed op {problem}")
    notes = {}
    if not args.trace:
        n = detail["op_samples"]
        notes = {"setup_s": f"median of {SETUP_SAMPLES} fresh processes",
                 "op_p50_s": f"n={n}",
                 "op_tail_s": f"p{detail['op_tail_percentile']:.1f}, n={n}"}
        for name, wall in detail["wall_time_metrics"].items():
            notes[name] = ", ".join(filter(None, [notes.get(name), f"wall {wall:.6g}"]))
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {metrics[name]:.6g} {units[name]}{note}")
    if not args.trace:
        print(f"  {'fail_ratio':44s} {detail['fail_ratio']:.6g} "
              f"({tally.failed}/{tally.attempted})")
    print(f"  record: {path.relative_to(root)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))


def run_all(root: Path, args) -> None:
    """Every workload in its own fresh process; one summary row per workload."""
    import workloads

    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"evobench: workload {name} exited {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        result["metrics"]["fail_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows.append((name, result["metrics"]))
    names = list(rows[0][1])
    print("\n" + "workload".ljust(14) + "".join(n[-18:].rjust(20) for n in names))
    print(" " * 14 + "".join(f"[{rows[0][1][n]['unit']}]".rjust(20) for n in names))
    for name, metrics in rows:
        print(name.ljust(14) + "".join(f"{metrics[n]['value']:.6g}".rjust(20) for n in names))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ensemble, escape-large, certify, cli, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="rescaled op time a run measures; runs end on a pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = use_checkout(Path.cwd())
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        make_workload(args.workload, root).setup(args.seed)
        print("ready", flush=True)
    elif args.workload == "all":
        run_all(root, args)
    else:
        run_one(root, args)


if __name__ == "__main__":
    main()
