import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_checkout_against_itself_gives_identical_outputs():
    cmd = [sys.executable, str(ROOT / "scripts" / "ab_inproc.py"), str(ROOT), str(ROOT),
           "--workload", "cir-short", "--rounds", "2"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [ln.endswith(", identical") for ln in lines[:-1]] == [True, True]
    summary = json.loads(lines[-1])
    assert summary["workload"] == "cir-short" and summary["rounds"] == 2
    assert summary["identical_rounds"] == 2
    assert 0.0 < summary["ratio"]["q1"] <= summary["ratio"]["median"] <= summary["ratio"]["q3"]
