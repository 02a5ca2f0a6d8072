import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evodyn import AnalysisError, ConfigError, SqrtShiftTypes, make_grid
from evodyn.cli import _load_custom_csv, _write_json, main
from evodyn.config import parse_config

CANONICAL = """\
[game]
family = affine
a = 2.45
b = -0.05

[distribution]
family = sqrt_shift

[protocol]
kind = tempered
tempering = power
k = 3

[grid]
n = 400

[sim]
dt = 0.01
t_end = 50

[initial]
composition = reversed
xbar0 = 0.25
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CANONICAL)
    return path


def test_parse_canonical_config(config_path):
    scenario = parse_config(config_path)
    assert scenario.game.slope == 2.45
    assert scenario.game.intercept == -0.05
    assert scenario.dist.family == "sqrt_shift"
    assert scenario.protocol.kind == "power" and scenario.protocol.k == 3
    assert scenario.n == 400
    assert scenario.dt == 0.01 and scenario.t_end == 50.0
    assert scenario.initial.composition == "reversed"
    assert scenario.initial.xbar0 == 0.25


def test_defaults_applied(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text(
        "[game]\nfamily = affine\na = 2.45\nb = -0.05\n"
        "[distribution]\nfamily = sqrt_shift\n"
        "[protocol]\nkind = standard\n"
    )
    scenario = parse_config(path)
    assert scenario.n == 2000
    assert scenario.dt == 0.01
    assert scenario.t_end == 50.0
    assert scenario.initial is None


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config("/nonexistent/evodyn.ini")


def test_empty_protocol_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[game]\nfamily = affine\na = 1\nb = 0\n"
        "[distribution]\nfamily = sqrt_shift\n"
        "[protocol]\n"
    )
    with pytest.raises(ConfigError, match="protocol.kind"):
        parse_config(path)


def test_unknown_key_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[game]\nfamily = affine\nslope = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.line == 3


def test_malformed_value_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[game]\nfamily = affine\na = fast\nb = 0\n"
        "[distribution]\nfamily = sqrt_shift\n"
        "[protocol]\nkind = standard\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.line == 3


def test_tiny_grid_rejected(config_path):
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config(config_path, overrides=("grid.n=1",))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[games]\nfamily = affine\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.line == 1


@pytest.mark.parametrize("override", [
    "grid.n=inf",
    "grid.n=nan",
    "game.a=inf",
    "protocol.pisharp_sweep=nan",
    "protocol.pisharp_sweep=0.01, inf",
    "sim.snapshot_times=nan",
    "sim.snapshot_times=0.5, -inf",
])
def test_non_finite_numbers_exit_2_with_one_json_line(config_path, tmp_path, override, capsys):
    out = tmp_path / "out"
    code = main(["select", "--config", str(config_path), "--out", str(out),
                 "--override", override])
    assert code == 2
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert override.partition("=")[0] in error["message"]
    assert "finite" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("override,problem", [
    ("protocol.pisharp_sweep=0.01, 0", "positive"),
    ("protocol.pisharp_sweep=-1, 0.01, 0.010", "positive"),
    ("protocol.pisharp_sweep=0.01, 0.010", "distinct"),  # equal floats
    ("protocol.pisharp_sweep=0.05, 0.01, 5e-2", "distinct"),
])
def test_bad_sweep_exits_2_with_one_json_line(config_path, tmp_path, override, problem,
                                              capsys):
    # every sweep value writes its own sweep/ directory and sweep.json entry
    out = tmp_path / "out"
    code = main(["select", "--config", str(config_path), "--out", str(out),
                 "--override", override])
    assert code == 2
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert "protocol.pisharp_sweep" in error["message"]
    assert problem in error["message"]
    assert not out.exists()


def test_seed_key_is_unknown(config_path):
    with pytest.raises(ConfigError, match="unknown key sim.seed"):
        parse_config(config_path, overrides=("sim.seed=1",))


def test_overrides_apply(config_path):
    scenario = parse_config(config_path, overrides=("game.a=1.5", "sim.t_end=7"))
    assert scenario.game.slope == 1.5
    assert scenario.t_end == 7.0


def test_override_may_switch_the_distribution_family(tmp_path):
    # the file still holds the logistic mu and s, which uniform ignores
    config = Path(__file__).parents[1] / "configs" / "coordination_logistic.ini"
    code = main(["equilibria", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--override", "distribution.family=uniform",
                 "--override", "distribution.lo=-0.5", "--override", "distribution.hi=0.5"])
    assert code == 0


def test_missing_distribution_parameter_is_config_error(config_path):
    with pytest.raises(ConfigError, match="uniform distribution needs"):
        parse_config(config_path, overrides=("distribution.family=uniform",))


def test_bad_override_rejected(config_path):
    with pytest.raises(ConfigError, match="override"):
        parse_config(config_path, overrides=("game.a",))


def test_cli_equilibria_report(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["equilibria", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "equilibria.json").read_text())
    levels = [e["xbar"] for e in report["equilibria"]]
    stabilities = [e["stability"] for e in report["equilibria"]]
    assert levels == pytest.approx([0.0, 0.2, 0.25], abs=1e-6)
    assert stabilities == ["stable", "unstable", "stable"]


def test_cli_simulate_trajectory(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,xbar"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert data[0, 1] == pytest.approx(0.25, abs=1e-12)
    assert np.all(np.diff(data[:, 1]) <= 1e-9)  # monotone exit
    assert data[-1, 1] < 0.01


def test_cli_select_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["select", "--config", str(config_path), "--out", str(out)]) == 0
    report = json.loads((out / "select.json").read_text())
    assert report["selected"] == pytest.approx(0.0)
    # keys are spelled like the JSON numbers: the shortest round-trip decimal
    assert report["thresholds"]["0.0"] == pytest.approx(0.05, abs=1e-6)
    assert report["thresholds"]["0.25"] == pytest.approx(1 / 1600, abs=1e-9)


def test_cli_flows_csv(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["flows", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "flows.csv").read_text().splitlines()
    assert lines[0] == "q,m,source"
    sources = {line.split(",")[2] for line in lines[1:]}
    assert sources == {"inflow", "outflow"}


def test_cli_escape_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["escape", "--config", str(config_path), "--out", str(out)]) == 0
    report = json.loads((out / "escape.json").read_text())
    assert report["dominance"] == "O_dominates"
    assert report["crossing_time"] is not None
    assert report["rate_ratio"]["holds"] is False
    lines = (out / "bound.csv").read_text().splitlines()
    assert lines[0] == "t,xbarbar"


def test_cli_critical_mass_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["critical-mass", "--config", str(config_path), "--out", str(out)]) == 0
    report = json.loads((out / "critical_mass.json").read_text())
    lo, hi = report["decrease_intervals"][0]
    assert lo == math.nextafter(0.0, 1.0)
    assert hi == pytest.approx((2.9 - math.sqrt(8.01)) / 2, abs=1e-12)
    assert (out / "deficit_curve.csv").read_text().splitlines()[0] == "xbar,deficit"


def test_cli_outputs_are_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["select", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("trajectory.csv", "summary.json", "select.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = main(["equilibria", "--config", str(tmp_path / "missing.ini")])
    assert code == 2
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    payload = json.loads(line)
    assert payload["error"]["kind"] == "config"


@pytest.mark.parametrize("drop,override,message", [
    ("b = -0.05\n", None, "affine game needs game.a and game.b"),
    ("", "game.family=linear_coordination", "linear_coordination game needs game.c"),
    ("k = 3\n", None, "tempered protocol needs protocol.k"),
    ("", "protocol.tempering=bounded_power", "bounded_power tempering needs protocol.pisharp"),
    ("[initial]\ncomposition = reversed\nxbar0 = 0.25\n", None,
     "this subcommand needs an [initial] section"),
    ("xbar0 = 0.25\n", "initial.composition=sorted",
     "initial.composition = sorted needs initial.xbar0"),
    ("", "initial.composition=balanced",
     "balanced composition needs initial.kappa and initial.pimax"),
    ("", "initial.composition=custom-csv", "custom-csv composition needs initial.path"),
])
def test_missing_key_exits_2_with_one_json_line(tmp_path, capsys, drop, override, message):
    assert drop in CANONICAL
    path = tmp_path / "scenario.ini"
    path.write_text(CANONICAL.replace(drop, "", 1))
    out = tmp_path / "out"
    overrides = ["--override", override] if override else []
    code = main(["simulate", "--config", str(path), "--out", str(out), *overrides])
    assert code == 2
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert (error["kind"], error["message"]) == ("config", message)


def test_logistic_truncation_past_exp_range_exits_2(tmp_path, capsys):
    # tau / s = 800: exp(800) in the c.d.f. at the support bottom overflows
    config = Path(__file__).parents[1] / "configs" / "coordination_logistic.ini"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["equilibria", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--override", "distribution.tau=40"])
    assert code == 2
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert "tau=40.0" in error["message"]


def test_cli_analysis_error_exit_code(config_path, tmp_path, capsys):
    # sorted composition at a non-equilibrium aggregate: escape preconditions fail
    code = main(
        [
            "escape",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "out"),
            "--override",
            "initial.composition=sorted",
            "--override",
            "initial.xbar0=0.3",
        ]
    )
    assert code == 3
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    payload = json.loads(line)
    assert payload["error"]["kind"] == "analysis"


def test_custom_csv_composition(config_path, tmp_path):
    comp = tmp_path / "comp.csv"
    comp.write_text("theta,x\n0.0,1.0\n0.5625,0.0\n")  # step down at the cut-off
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--override",
            "initial.composition=custom-csv",
            "--override",
            f"initial.path={comp}",
            "--override",
            "sim.t_end=1",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["xbar0"] == pytest.approx(0.25, abs=2 / 400)


def test_custom_csv_nan_row_is_refused(config_path, tmp_path, capsys):
    comp = tmp_path / "comp.csv"
    comp.write_text("theta,x\n0.0,1.0\n0.5625,nan\n")
    code = main(
        [
            "flows",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "out"),
            "--override",
            "initial.composition=custom-csv",
            "--override",
            f"initial.path={comp}",
        ]
    )
    assert code == 3
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    payload = json.loads(line)
    assert payload["error"]["kind"] == "analysis"
    assert "must lie in [0, 1]" in payload["error"]["message"]


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_custom_csv_non_finite_theta_is_refused(config_path, tmp_path, capsys, theta):
    comp = tmp_path / "comp.csv"
    comp.write_text(f"theta,x\n0.0,1.0\n{theta},0.0\n")
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "out"),
            "--override",
            "initial.composition=custom-csv",
            "--override",
            f"initial.path={comp}",
            "--override",
            "sim.t_end=1",
        ]
    )
    assert code == 2
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert "theta must be finite" in error["message"]
    assert error["line"] == 3


@pytest.mark.parametrize("override, count", [
    ("grid.n=1e300", "grid size n=1e+300"),
    ("sim.t_end=1e300", "1e+302 steps"),
    ("sim.dt=1e-300", "5e+301 steps"),
])
def test_count_too_large_to_allocate_exits_3(config_path, tmp_path, capsys, override, count):
    # numpy refuses these counts without allocating; the refusal is one JSON
    # line that names the count, not a traceback
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out"),
                 "--override", override])
    assert code == 3
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert error["kind"] == "analysis"
    assert f"{count} " in error["message"] and "to allocate" in error["message"]


def test_snapshot_time_after_the_run_exits_3(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--override",
            "sim.snapshot_times=0.5,80",
        ]
    )
    assert code == 3
    (line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(line)["error"]
    assert error["kind"] == "analysis"
    assert "snapshot time 80.0" in error["message"]
    assert not (out / "snapshots.csv").exists()


def test_snapshot_times_written(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--override",
            "sim.snapshot_times=0.5, 1.0",
            "--override",
            "sim.t_end=2",
        ]
    )
    assert code == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "t,theta,x"
    times = {float(line.split(",")[0]) for line in lines[1:]}
    assert times == {0.5, 1.0}


def test_select_sweep_mode(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        CANONICAL + "\n"
    )
    out = tmp_path / "out"
    code = main(
        [
            "select",
            "--config",
            str(path),
            "--out",
            str(out),
            "--override",
            "protocol.pisharp_sweep=0.0001, 0.01, 0.04",
        ]
    )
    assert code == 0
    sweep = json.loads((out / "sweep.json").read_text())
    sizes = [len(entry["surviving"]) for entry in sweep["entries"]]
    assert sizes == sorted(sizes, reverse=True)  # selection is monotone in pisharp
    assert sweep["entries"][0]["surviving"] == pytest.approx([0.0, 0.25])
    assert sweep["entries"][-1]["surviving"] == pytest.approx([0.0])
    # directory names are spelled like the JSON numbers: 0.04, not .17g's
    # 0.040000000000000001
    for name in ("0.0001", "0.01", "0.04"):
        assert (out / "sweep" / name / "select.json").is_file()


GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parents[1] / "configs"
ENTRY_CONFIG = CONFIGS / "entry_sqrt.ini"


@pytest.mark.parametrize("subcommand,filename", [
    ("equilibria", "equilibria.json"),
    ("select", "select.json"),
    ("critical-mass", "critical_mass.json"),
    ("escape", "escape.json"),
    ("simulate", "summary.json"),
    ("flows", "flows.json"),
    ("equilibria", "coordination_logistic/equilibria.json"),
    ("select", "coordination_logistic/select.json"),
    ("critical-mass", "coordination_logistic/critical_mass.json"),
])
def test_cli_reports_match_golden_files(tmp_path, subcommand, filename):
    # golden files at the top level are the bundled entry config's reports;
    # those in a subdirectory are the reports of the config of that name
    golden = GOLDEN / filename
    parent = Path(filename).parent.name
    config = CONFIGS / f"{parent}.ini" if parent else ENTRY_CONFIG
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == 0
    assert (out / golden.name).read_bytes() == golden.read_bytes()


def test_escape_reads_one_decrease_set(tmp_path):
    # the level the frozen-rate certificate targets and the rate-ratio
    # bound's prefix level are the end of one exact decrease set
    out = tmp_path / "out"
    assert main(["escape", "--config", str(ENTRY_CONFIG), "--out", str(out)]) == 0
    report = json.loads((out / "escape.json").read_text())
    assert report["xbar_dagger"] == report["rate_ratio"]["max_certified_decrease"]
    assert report["xbar_dagger"] == pytest.approx((2.9 - math.sqrt(8.01)) / 2, abs=1e-12)
    assert report["rate_ratio"]["holds"] is False


def test_escape_computes_one_critical_mass_report(tmp_path):
    # the CLI's decrease level and the rate-ratio bound read one cached report
    from evodyn import stability

    stability._sets.cache_clear()
    out = tmp_path / "out"
    assert main(["escape", "--config", str(ENTRY_CONFIG), "--out", str(out)]) == 0
    calls = stability._sets.cache_info()
    assert (calls.misses, calls.hits) == (1, 1)


# SHA-256 of simulate's trajectory.csv on each bundled config, taken before the
# RK4 step's per-call overhead was trimmed: every recorded aggregate of the run
# must keep its bits, not only the first and last ones in summary.json.  The
# balanced start (the one CI smoke-runs, mostly runs of exact 1s and 0s) was
# pinned before the integrator skipped a composition's frozen runs, and the
# reversed start at n = 8000 (whose frozen middle the integrator skips as a
# hole in its window) before it skipped that middle.
TRAJECTORY_SHA256 = {
    "entry_sqrt": "07e94f147982e2dc71d0d8c8c7bfca9fbed4f078596699d0d85e1894641cb2c4",
    "coordination_logistic": "8eb9b8e74974777c4c3704bf41a801716cf7936c2fab3819abd923ef5ef998c7",
    "entry_sqrt+balanced": "7637c30330eafe43e4ebe9c1cd1efd334a434ffb42232dc0614ca03532a72932",
    "entry_sqrt+n8000": "1b6cce2e60b921f1810115008ede1d2252c9349ea4340bc96c9306cf2fab9ba0",
}
VARIANTS = {
    "": [],
    "balanced": ["--override", "initial.composition=balanced",
                 "--override", "initial.kappa=0.2", "--override", "initial.pimax=0.3"],
    "n8000": ["--override", "grid.n=8000"],
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_simulated_path_matches_pinned_hash(tmp_path, name):
    stem, _, variant = name.partition("+")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / f"{stem}.ini"), "--out", str(out),
                 *VARIANTS[variant]]) == 0
    digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == TRAJECTORY_SHA256[name]


def test_escape_bound_is_within_grid_error_of_the_grid_bound(tmp_path):
    # the bound now sums Gauss-Legendre atoms of the continuum sources; the
    # n = 2000 grid atoms are their midpoint rule, 4.1e-8 away at most
    from evodyn import bound_trajectory, flow_distributions, make_grid, reversed_composition

    out = tmp_path / "out"
    assert main(["escape", "--config", str(ENTRY_CONFIG), "--out", str(out)]) == 0
    times, bound = np.loadtxt(out / "bound.csv", delimiter=",", skiprows=1).T
    sc = parse_config(ENTRY_CONFIG)
    x0 = reversed_composition(make_grid(sc.dist, sc.n), sc.dist, 0.25)
    grid = bound_trajectory(
        *flow_distributions(sc.game, sc.dist, sc.protocol, x0, 0.25), 0.25, times
    )
    assert sc.n == 2000
    assert np.abs(bound - grid).max() <= 1e-7


# SHA-256 of escape's bound.csv on the bundled entry config: Gauss-Legendre
# atoms of the continuum sources (within 1e-7 of the n = 2000 grid bound,
# checked above), from the level 0.25 the reversed start was built at (taken
# when the report stopped starting from the grid aggregate, 0.25 + 1.1e-16,
# which moved no sample by more than 3.1e-16): the golden escape.json pins the
# crossing time, this pins all 2000 bound samples
BOUND_SHA256 = "0659c32b664ac240c37977a88423075df6bad38622d0f7a644e7f4e85f26e6f5"


def test_escape_bound_matches_pinned_hash(tmp_path):
    out = tmp_path / "out"
    assert main(["escape", "--config", str(ENTRY_CONFIG), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "bound.csv").read_bytes()).hexdigest() == BOUND_SHA256


LOGISTIC_CONFIG = CONFIGS / "coordination_logistic.ini"


@pytest.mark.parametrize("edit,override,line", [
    (("s = 0.05", "s = -1"), None, 12),
    (("k = 2", "k = -1"), None, 17),
    (None, "distribution.s=-1", None),
    (None, "distribution.tau=40", None),
    (None, "protocol.k=-1", None),
    # a check on two values at once names no line
    (("family = logistic", "family = uniform\nlo = 1\nhi = 0"), None, None),
], ids=["s-line", "k-line", "s-override", "tau-override", "k-override", "uniform-support"])
def test_refused_value_reports_its_own_line(tmp_path, capsys, edit, override, line):
    # the line of the refused value, not of distribution.family or
    # protocol.pisharp; a value from an override has no line
    text = LOGISTIC_CONFIG.read_text()
    if edit:
        old, new = edit
        assert text.count(f"\n{old}\n") == 1
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    out = tmp_path / "out"
    overrides = ["--override", override] if override else []
    assert main(["equilibria", "--config", str(path), "--out", str(out), *overrides]) == 2
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert error["kind"] == "config"
    assert error["line"] == line
    assert not out.exists()


@pytest.mark.parametrize("edit,override,message,line", [
    (("family = affine", "family = quadratic"), None, "unknown game family 'quadratic'", 2),
    (("tempering = power", "tempering = exp"), None, "unknown tempering 'exp'", 11),
    (None, "protocol.kind=logit", "unknown protocol kind 'logit'", None),
    (None, "initial.composition=uniform",
     "unknown initial composition 'uniform'; expected one of "
     "sorted, reversed, balanced, custom-csv", None),
    (("dt = 0.01", "dt = 0"), None, "sim.dt must be positive", 18),
    (None, "sim.t_end=-1", "sim.t_end must be positive", None),
    (("n = 400", "n = 400.5"), None, "grid.n = '400.5' is not a valid finite integer", 15),
    (("[sim]", "[sim]\ndt 0.01"), None, "expected 'key = value', got 'dt 0.01'", 18),
    (("[game]", "a = 2.45\n[game]"), None, "key outside any [section]", 1),
    (None, "gamea=2", "override key 'gamea' must be section.key", None),
])
def test_bad_entry_exits_2_with_one_json_line(tmp_path, capsys, edit, override, message, line):
    text = CANONICAL
    if edit:
        assert edit[0] in text
        text = text.replace(edit[0], edit[1], 1)
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    out = tmp_path / "out"
    overrides = ["--override", override] if override else []
    assert main(["simulate", "--config", str(path), "--out", str(out), *overrides]) == 2
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    suffix = f" (line {line})" if line else ""
    assert (error["kind"], error["message"], error["line"]) == ("config", message + suffix, line)
    assert not out.exists()


def run_custom_csv(config_path, out, csv_path):
    return main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--override", "initial.composition=custom-csv",
                 "--override", f"initial.path={csv_path}", "--override", "sim.t_end=1"])


@pytest.mark.parametrize("content,message,line", [
    (None, "does not exist", None),
    ("theta,x\n0.0,1.0,0.5\n", "expected 'theta,x' in", 2),
    ("theta,x\n0.0,one\n", "malformed number in", 2),
    ("theta,x\n# no rows yet\n\n", "has no rows", None),
], ids=["missing-file", "three-fields", "malformed-number", "no-rows"])
def test_custom_csv_refusals_exit_2(config_path, tmp_path, capsys, content, message, line):
    comp = tmp_path / "comp.csv"
    if content is not None:
        comp.write_text(content)
    assert run_custom_csv(config_path, tmp_path / "out", comp) == 2
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert error["kind"] == "config"
    assert message in error["message"]
    assert error["line"] == line


def test_config_that_is_not_utf8_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "scenario.ini"
    path.write_bytes(CANONICAL.replace("a = 2.45\n", "a = 2.45\xff\n").encode("latin-1"))
    assert main(["equilibria", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert error == {"kind": "config", "line": 3,
                     "message": f"config file {path} is not valid UTF-8 (byte 0xff) (line 3)"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content,line", [
    (b"theta,x\n0.0,1\n0.5,1\xff\n", 3),
    (b"\xfe0.0,1\n", 1),
    (b"0.0,1\r\n0.5,0\r\n\xc3", 3),  # a truncated two-byte sequence at the end
], ids=["second-row", "first-byte", "truncated-last-line"])
def test_custom_csv_that_is_not_utf8_exits_2_with_its_line(config_path, tmp_path, capsys,
                                                            content, line):
    comp = tmp_path / "comp.csv"
    comp.write_bytes(content)
    assert run_custom_csv(config_path, tmp_path / "out", comp) == 2
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert (error["kind"], error["line"]) == ("config", line)
    assert error["message"].startswith(f"composition file {comp} is not valid UTF-8 (byte 0x")


def test_custom_csv_header_may_follow_comments(config_path, tmp_path):
    # the header is the first line that is neither blank nor a comment
    rows = "theta,x\n0.0,1.0\n0.5625,0.0\n"
    xbar0 = []
    for name, text in (("plain", rows), ("noted", "# note\n" + rows)):
        comp = tmp_path / f"{name}.csv"
        comp.write_text(text)
        out = tmp_path / name
        assert run_custom_csv(config_path, out, comp) == 0
        xbar0.append(json.loads((out / "summary.json").read_text())["xbar0"])
    assert xbar0[0] == xbar0[1]


def test_custom_csv_repeated_theta_takes_the_last_row(tmp_path):
    # rows sharing a theta: the one last in the file applies to the nodes at
    # or above it, however many rows with that theta come before it
    comp = tmp_path / "comp.csv"
    comp.write_text("0.5,0.2\n" * 39 + "0.5,0.9\n" + "0.1,0.3\n" * 40)
    grid = make_grid(SqrtShiftTypes(), 50)
    values = _load_custom_csv(comp, grid).values
    assert np.all(values[grid.nodes >= 0.5] == 0.9)
    assert np.all(values[grid.nodes < 0.5] == 0.3)


def test_negative_zero_is_stored_as_positive_zero(tmp_path):
    # np.clip keeps the sign of a zero, so a "-0" row once reached the
    # t = 0 snapshot as 1,551 cells "-0" on the 2000-node entry grid
    comp = tmp_path / "comp.csv"
    comp.write_text("theta,x\n0.0,1.0\n0.5,-0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ENTRY_CONFIG), "--out", str(out),
                 "--override", "initial.composition=custom-csv",
                 "--override", f"initial.path={comp}", "--override", "sim.t_end=0.01",
                 "--override", "sim.snapshot_times=0"]) == 0
    rows = list(csv.reader((out / "snapshots.csv").open()))[1:]
    assert len(rows) == 2000 and sum(x == "0" for _, _, x in rows) == 1551
    assert not any(x.startswith("-") for _, _, x in rows)


def test_balanced_start_simulates(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--override", "initial.composition=balanced",
                 "--override", "initial.kappa=0.2", "--override", "initial.pimax=0.3",
                 "--override", "sim.t_end=1"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["xbar0"] == pytest.approx(0.25, abs=2 / 400)


def test_balanced_start_escapes_at_the_bundled_grid(tmp_path):
    # at n = 2000 the balanced start's grid aggregate is 0.249921, 1.58e-6
    # from a fixed point; the report starts from the equilibrium it was
    # built at, whose flow sources coincide: the bound stays at 0.25
    out = tmp_path / "out"
    code = main(["escape", "--config", str(ENTRY_CONFIG), "--out", str(out),
                 *VARIANTS["balanced"]])
    assert code == 0
    report = json.loads((out / "escape.json").read_text())
    assert report["xbar_star"] == 0.25
    assert report["dominance"] == "incomparable"
    assert report["crossing_time"] is None
    bound = np.loadtxt(out / "bound.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(bound == 0.25)


def test_escape_from_the_all_ones_start_at_the_corner_equilibrium(tmp_path):
    # the grid aggregate of the all-ones start is 1.0000000000000007; the
    # report starts from the level the start was built at, 1
    out = tmp_path / "out"
    assert main(["escape", "--config", str(LOGISTIC_CONFIG), "--out", str(out),
                 "--override", "initial.xbar0=1"]) == 0
    report = json.loads((out / "escape.json").read_text())
    assert report["xbar_star"] == 1.0
    assert (report["dominance"], report["crossing_time"]) == ("incomparable", None)
    bound = np.loadtxt(out / "bound.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(bound == 1.0)


@pytest.mark.parametrize("variant", ["", "balanced"], ids=["reversed", "balanced"])
def test_flows_and_escape_read_a_start_at_one_level(tmp_path, variant):
    # both subcommands read the start through flows.start_sources: the
    # level its constructor was given, not its grid aggregate (0.25 + 1.1e-16
    # for the reversed start, 0.249921 for the balanced one at n = 2000)
    levels = {}
    for sub, name, key in (("flows", "flows.json", "xbar_ref"),
                           ("escape", "escape.json", "xbar_star")):
        out = tmp_path / sub
        assert main([sub, "--config", str(ENTRY_CONFIG), "--out", str(out),
                     *VARIANTS[variant]]) == 0
        levels[sub] = json.loads((out / name).read_text())[key]
    assert levels["flows"] == levels["escape"] == 0.25


def test_escape_without_a_certified_level_below_the_start_exits_3(config_path, tmp_path,
                                                                   capsys):
    out = tmp_path / "out"
    code = main(["escape", "--config", str(config_path), "--out", str(out),
                 "--override", "game.a=2", "--override", "game.b=0.05",
                 "--override", "initial.composition=sorted", "--override", "initial.xbar0=0.3"])
    assert code == 3
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert error["kind"] == "analysis"
    assert error["message"] == "no certified decrease level below the starting equilibrium 0.3"
    assert not (out / "escape.json").exists()


def test_escape_writes_a_null_rate_ratio_when_its_preconditions_fail(config_path, tmp_path):
    # the standard rate is 1 for every switcher, so the rate ratio r = 1
    out = tmp_path / "out"
    code = main(["escape", "--config", str(config_path), "--out", str(out),
                 "--override", "protocol.kind=standard"])
    assert code == 0
    report = json.loads((out / "escape.json").read_text())
    assert report["rate_ratio"] is None
    assert report["xbar_star"] == pytest.approx(0.25, abs=1e-12)


def test_out_path_that_is_a_file_exits_2_with_one_json_line(tmp_path, capsys):
    # the output directory cannot be made where a regular file stands
    out = tmp_path / "report.txt"
    out.write_text("kept\n")
    assert main(["equilibria", "--config", str(ENTRY_CONFIG), "--out", str(out)]) == 2
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert (error["kind"], error["line"]) == ("config", None)
    assert str(out) in error["message"]
    assert out.read_text() == "kept\n"


# doubles at the edges of the format: a signed zero, the smallest subnormal,
# the double just below 1 and one near the top of the range
EDGE_DOUBLES = [-0.0, 5e-324, math.nextafter(1.0, 0.0), 1e308]
JSON_VALUES = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_DOUBLES)
    | st.integers() | st.none() | st.booleans() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def _assert_same_value(read, written):
    assert type(read) is type(written)
    if isinstance(written, float):
        assert read.hex() == written.hex()
    elif isinstance(written, dict):
        assert sorted(read) == sorted(written)
        for key in written:
            _assert_same_value(read[key], written[key])
    elif isinstance(written, list):
        assert len(read) == len(written)
        for r, w in zip(read, written):
            _assert_same_value(r, w)
    else:
        assert read == written


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=JSON_VALUES)
def test_written_report_reads_back_bit_for_bit(tmp_path, payload):
    path = tmp_path / "report.json"
    _write_json(path, payload)
    text = path.read_text()
    assert text.endswith("\n")
    _assert_same_value(json.loads(text), payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_refuses_a_non_finite_number(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(AnalysisError, match="report.json"):
        _write_json(path, {"xbar": 0.25, "rate_ratio": {"r": bad}})
    assert not path.exists()


def test_non_finite_report_value_exits_3_and_writes_no_report(config_path, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr("evodyn.cli.flows.detailed_balance_residual", lambda *_: math.nan)
    out = tmp_path / "out"
    assert main(["flows", "--config", str(config_path), "--out", str(out)]) == 3
    (json_line,) = capsys.readouterr().out.splitlines()  # exactly one line
    error = json.loads(json_line)["error"]
    assert error["kind"] == "analysis"
    assert str(out / "flows.json") in error["message"]
    assert not (out / "flows.json").exists()
