import importlib.util
import subprocess
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(seed, parent, change):
    def side(v):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {"sims_per_s": {"value": v}}}

    return {"seed": seed, "first": "parent", "parent": side(parent), "change": side(change)}


def test_summary_records_per_pair_ratios():
    bp = _bench_pairs()
    # the host halves its speed halfway through: each side's spread is wide,
    # while every pair's ratio is 1.5
    pairs = [_pair(1, 100.0, 150.0), _pair(2, 100.0, 150.0), _pair(3, 50.0, 75.0), _pair(4, 50.0, 75.0)]
    metric = {"name": "sims_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    entry = bp.summarise(pairs, [metric])["metrics"]["sims_per_s"]
    assert entry["pair_ratio"]["values"] == [1.5] * 4
    assert entry["pair_ratio"]["median"] == entry["pair_ratio"]["q1"] == entry["pair_ratio"]["q3"] == 1.5
    assert entry["parent"]["q3"] - entry["parent"]["q1"] == pytest.approx(50.0)
    assert entry["wins"] == {"parent": 0, "change": 4}


def _tree(root, src=b"x = 1\n"):
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_bytes(src)
    (root / "perfbench" / "out").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_bytes(b"print()\n")
    return root


def test_tree_hash_names_the_measured_code(tmp_path):
    bp = _bench_pairs()
    one, two = _tree(tmp_path / "one"), _tree(tmp_path / "two")
    assert bp.tree_hash(one) == bp.tree_hash(two)
    # one changed byte under src/ changes the hash
    changed = _tree(tmp_path / "changed", src=b"x = 2\n")
    assert bp.tree_hash(changed) != bp.tree_hash(one)
    # the benchmark's output and byte-code caches do not
    (two / "perfbench" / "out" / "ou2-long-seed1-trace0.json").write_text("{}")
    (two / "src" / "pkg" / "__pycache__").mkdir()
    (two / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert bp.tree_hash(two) == bp.tree_hash(one)


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false", *args],
        cwd=root, check=True, capture_output=True,
    )


def test_git_head_names_only_an_unchanged_checkout(tmp_path):
    bp = _bench_pairs()
    root = _tree(tmp_path / "repo")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "seed")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True).stdout.strip()
    assert bp.git_head(root) == head
    (root / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    assert bp.git_head(root) is None
