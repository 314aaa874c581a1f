import importlib.util
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
