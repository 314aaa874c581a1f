import gc
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from exitwalk import RunawayError, sinusoidal_drift
from exitwalk.cli import (
    ExperimentConfig,
    load_config_file,
    main,
    parse_params,
    run_validation,
    _parse_T,
)
from stat_helpers import corrupt_gamma


def test_parse_params():
    assert parse_params("k=3,theta=7,sigma=1") == {"k": 3.0, "theta": 7.0, "sigma": 1.0}
    assert parse_params("lambda=2") == {"lambda": 2.0}
    assert parse_params("") == {}
    with pytest.raises(Exception):
        parse_params("k")
    with pytest.raises(Exception):
        parse_params("k=abc")


def test_parse_T():
    assert _parse_T("inf") == math.inf
    assert _parse_T("Infinity") == math.inf
    assert _parse_T("0.5") == 0.5
    with pytest.raises(Exception):
        _parse_T("soon")


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        """
# experiment on [0, 7]
model = sin
a = 0
b = 7
x = 3
T = 1
N = 7
M = 5          # small smoke run
seed = 9
""".strip()
    )
    values = load_config_file(str(cfgfile))
    assert values["model"] == "sin"
    assert values["M"] == "5"
    out = tmp_path / "rows.csv"
    rc = main(["sample", "--config", str(cfgfile), "--M", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema exitwalk.sample v1")
    header_at = next(i for i, ln in enumerate(lines) if ln.startswith("seed,"))
    assert lines[header_at].split(",") == [
        "seed", "exit_time", "exit_location", "steps", "restarts",
        "exit_bm_calls", "cond_bm_calls", "wall_ms", "N", "T",
    ]
    assert len(lines) - header_at - 1 == 7  # --M overrode the file


def test_bad_config_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("banana = 3")
    assert main(["sample", "--config", str(cfgfile)]) == 2


@pytest.mark.parametrize("line, key", [("M = ten", "'M'"), ("seed = 1.5", "'seed'")])
def test_malformed_config_value_is_config_error(tmp_path, capsys, line, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line)
    assert main(["sample", "--config", str(cfgfile)]) == 2
    assert key in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["sample", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_sample_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
            "--T", "1", "--N", "7", "--M", "40", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.csv"
    assert main(["sample", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
                 "--T", "1", "--N", "7", "--M", "40", "--seed", "6", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_sample_wall_ms_zero_without_timing(tmp_path):
    out = tmp_path / "t.csv"
    main(["sample", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
          "--T", "1", "--N", "7", "--M", "5", "--seed", "5", "--out", str(out)])
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert all(row.split(",")[7] == "0.0" for row in rows)


def test_infinite_horizon_only_for_admissible_drift(tmp_path):
    ok = main(["sample", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
               "--T", "inf", "--N", "7", "--M", "3", "--seed", "2",
               "--out", str(tmp_path / "ok.csv")])
    assert ok == 0
    # mean reversion has gamma < 0 on slices containing its extrema
    bad = main(["sample", "--model", "ou", "--params", "lambda=1", "--a", "0", "--b", "7",
                "--x", "3", "--T", "inf", "--N", "7", "--M", "3", "--seed", "2",
                "--out", str(tmp_path / "bad.csv")])
    assert bad == 2


def test_cir_sample_locations_are_exact_endpoints(tmp_path):
    out = tmp_path / "cir.csv"
    rc = main(["sample", "--model", "cir", "--params", "k=3,theta=7,sigma=1",
               "--a", "1", "--b", "6", "--x", "3", "--T", "0.5", "--N", "8",
               "--M", "25", "--seed", "4", "--out", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert all(row.split(",")[2] in ("1.0", "6.0") for row in rows)


def test_sweep_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--model", "sin", "--a", "0", "--b", "7", "--x", "3",
            "--T", "1", "--N0", "5", "--M", "25", "--seed", "8"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# schema exitwalk.sweep v1")
    header_at = next(i for i, ln in enumerate(lines) if ln.startswith("N,"))
    data = [ln.split(",") for ln in lines[header_at + 1:]]
    assert [row[0] for row in data] == ["2", "3", "4", "5"]
    assert all(float(row[1]) > 0 for row in data)


def test_sweep_timing_writes_nan_wall_interval(tmp_path):
    out = tmp_path / "timed.csv"
    rc = main(["sweep", "--model", "cir", "--params", "k=3,theta=7,sigma=1", "--a", "1", "--b", "6",
               "--x", "3", "--T", "0.5", "--N-min", "4", "--N0", "5", "--M", "100", "--seed", "3",
               "--timing", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header_at = next(i for i, ln in enumerate(lines) if ln.startswith("N,"))
    header = lines[header_at].split(",")
    for row in lines[header_at + 1:]:
        cells = dict(zip(header, row.split(",")))
        assert math.isfinite(float(cells["mean_wall_ms"])) and float(cells["mean_wall_ms"]) > 0.0
        assert cells["wall_ci_lo"] == cells["wall_ci_hi"] == "nan"


def test_sweep_rejects_wide_range():
    assert main(["sweep", "--model", "sin", "--N0", "65", "--M", "5"]) == 2


def test_bandit_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "tr1.csv"
    out2 = tmp_path / "tr2.csv"
    args = ["bandit", "--model", "sin", "--a", "0", "--b", "7", "--x", "3", "--T", "1",
            "--N0", "5", "--epsilon", "0.3", "--M", "30", "--seed", "11", "--reward", "work"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    arms1 = Path(str(out1).replace("tr1.csv", "tr1.arms.csv"))
    arms2 = Path(str(out2).replace("tr2.csv", "tr2.arms.csv"))
    assert arms1.read_bytes() == arms2.read_bytes()
    tr_lines = out1.read_text().splitlines()
    assert tr_lines[0].startswith("# schema exitwalk.bandit-trace v1")
    header_at = next(i for i, ln in enumerate(tr_lines) if ln.startswith("iter,"))
    assert tr_lines[header_at] == "iter,N,reward,running_mean,epsilon_effective"
    assert len(tr_lines) - header_at - 1 == 30
    arm_lines = arms1.read_text().splitlines()
    assert arm_lines[0].startswith("# schema exitwalk.bandit-arms v1")
    assert arm_lines[1] == "N,pulls,mean_cost"
    pulls = sum(int(ln.split(",")[1]) for ln in arm_lines[2:])
    assert pulls == 30


def test_validate_zero_case(tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["validate", "--cases", "zero", "--M", "3000", "--seed", "21", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema exitwalk.validate v1")
    assert all(ln.endswith("pass") for ln in lines[2:])


def test_validate_unknown_case():
    assert main(["validate", "--cases", "nonsense", "--M", "10"]) == 2


@pytest.mark.parametrize("cases", ["", ","])
def test_validate_empty_case_list_is_config_error(cases):
    assert main(["validate", "--cases", cases, "--M", "10"]) == 2


def test_t_sensitivity_script_takes_an_infinite_horizon():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_t_sensitivity.py"), "--M", "30", "1", "inf"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert rows[0] == "T,final_running_mean,greedy_arm"
    assert [row.split(",")[0] for row in rows[1:]] == ["1.0", "inf"]


def test_validation_detects_corrupted_gamma():
    """Mutation check: biasing the thinning test must trip the validator."""
    rows = run_validation(
        corrupt_gamma(sinusoidal_drift(), 0.1), 3.0, 0.0, 7.0, 1.0, 7, 20_000, 22, "mutation",
        case="sin-corrupted",
    )
    assert any(r["status"] == "fail" for r in rows)
    # the extra killing rate tilts toward short excursions: the time row trips
    time_row = next(r for r in rows if r["quantity"] == "mean_exit_time")
    assert time_row["status"] == "fail"
    assert time_row["observed"] < time_row["expected"]


def test_config_error_exit_codes():
    assert main(["sample", "--model", "sin", "--a", "3", "--b", "1", "--x", "2"]) == 2
    assert main(["sample", "--model", "sin", "--T", "-1"]) == 2
    assert main(["sample", "--model", "sin", "--params", "k=1"]) == 2
    assert main(["bandit", "--model", "sin", "--epsilon", "2"]) == 2


def test_validate_single_replication_is_config_error():
    # one replication has no standard error, so there is nothing to validate against
    assert main(["validate", "--cases", "zero", "--M", "1"]) == 2


@pytest.mark.parametrize("bad", ["k", "theta", "sigma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cir_non_finite_params_are_config_errors(bad, value):
    params = {"k": "3", "theta": "7", "sigma": "1", bad: value}
    text = ",".join(f"{k}={v}" for k, v in params.items())
    assert main(["sample", "--model", "cir", "--params", text, "--a", "1", "--b", "6",
                 "--x", "3", "--T", "0.5", "--N", "8", "--M", "2", "--seed", "4"]) == 2


def test_runaway_maps_to_exit_code_4(monkeypatch, tmp_path):
    import exitwalk.cli as cli_mod
    import exitwalk.parallel as parallel_mod

    def boom(*args, **kwargs):
        raise RunawayError("stuck")

    monkeypatch.setattr(parallel_mod, "diff_exit", boom)
    assert main(["sample", "--model", "sin", "--M", "1"]) == 4
    # a command that fails after opening --out still closes it
    monkeypatch.setattr(cli_mod, "run_replications", boom)
    for argv in (
        ["sweep", "--model", "sin", "--M", "2", "--N0", "3"],
        ["validate", "--M", "2", "--cases", "zero"],
    ):
        out = tmp_path / f"{argv[0]}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(out)]) == 4
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)], argv


def test_experiment_config_validation():
    cfg = ExperimentConfig(command="sample", a=0.0, b=1.0, x=0.5)
    cfg.validate()
    with pytest.raises(Exception):
        ExperimentConfig(command="sample", a=0.0, b=1.0, x=1.5).validate()
    with pytest.raises(Exception):
        ExperimentConfig(command="sample", seed=-1).validate()
