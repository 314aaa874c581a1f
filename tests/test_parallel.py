import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import exitwalk.bandit  # noqa: F401  (the tracer reads its names from sys.modules)
import exitwalk.parallel as parallel_mod
from exitwalk import (
    WORK_UNITS,
    bandit_diff_exit,
    brownian,
    cox_ingersoll_ross,
    diff_exit,
    ornstein_uhlenbeck,
    substream,
)
from exitwalk.parallel import run_replications

CIR = cox_ingersoll_ross(3.0, 7.0, 1.0)


def _tracer():
    """The benchmark's tracer module, loaded by path and only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replications_do_not_depend_on_process_count():
    args = (ornstein_uhlenbeck(1.0), 3.0, 0.0, 7.0, 1.0, 14, 96, 9)
    one = run_replications(*args, tag="procs", processes=1)
    two = run_replications(*args, tag="procs", processes=2)
    assert set(one) == set(two) == {
        "time", "location", "work", "steps", "restarts",
        "exit_bm_calls", "cond_bm_calls", "wall_time",
    }
    for key in one:
        assert one[key].shape == two[key].shape == (96,)
        assert one[key].dtype == two[key].dtype
        if key == "wall_time":  # a clock reading, the one key that may differ
            assert np.all(np.isfinite(two[key])) and np.all(two[key] > 0.0)
        else:
            assert one[key].tobytes() == two[key].tobytes(), key


def test_lane_blocks_do_not_depend_on_process_count():
    n = 2 * parallel_mod._LANES + 100  # three blocks, the last one short
    args = (CIR, 3.0, 1.0, 6.0, 0.5, 16, n, 12)
    one = run_replications(*args, tag="blocks", processes=1)
    two = run_replications(*args, tag="blocks", processes=2)
    again = run_replications(*args, tag="blocks", processes=1)
    for key in one:
        assert one[key].shape == (n,)
        if key != "wall_time":
            assert one[key].tobytes() == two[key].tobytes() == again[key].tobytes(), key


def test_few_replications_keep_one_scalar_walk_each():
    out = run_replications(CIR, 3.0, 1.0, 6.0, 0.5, 16, 8, 13, tag="few", processes=1)
    rng = substream(13, "few", "lanes", 0)
    recs = [diff_exit(rng, CIR, 3.0, 1.0, 6.0, 0.5, 16) for _ in range(8)]
    assert out["time"].tolist() == [r.exit_time for r in recs]
    assert out["location"].tolist() == [r.exit_location for r in recs]
    assert out["work"].tolist() == [r.work.total() for r in recs]
    assert out["steps"].tolist() == [r.steps for r in recs]


def test_trace_seams_resolve():
    for dotted in _tracer().WRAPPED:
        module, attr = dotted.split(".")
        assert callable(getattr(sys.modules.get(f"exitwalk.{module}"), attr, None)), dotted


def test_banked_bandit_runs_under_the_tracer():
    with _tracer().Tracer() as tr:
        recs, _ = bandit_diff_exit(
            substream(64, "traced"), brownian(), 0.5, 0.0, 1.0, 1.0, 5, 0.3, 400, reward=WORK_UNITS
        )
    assert tr.missing == []
    assert len(recs) == 400
    # fewer walk calls than pulls: lane blocks ran through the traced seam
    assert 0 < tr.calls("bandit.diff_exit") < 400


@pytest.mark.parametrize("n", [8, 200])
def test_replications_go_through_the_trace_seams(monkeypatch, n):
    streams = []
    walks = []
    real_substream = parallel_mod.substream
    real_diff_exit = parallel_mod.diff_exit

    def counting_substream(*args):
        streams.append(real_substream(*args))
        return streams[-1]

    def counting_diff_exit(*args, **kwargs):
        walks.append(kwargs.get("lanes"))
        return real_diff_exit(*args, **kwargs)

    monkeypatch.setattr(parallel_mod, "substream", counting_substream)
    monkeypatch.setattr(parallel_mod, "diff_exit", counting_diff_exit)
    out = run_replications(CIR, 3.0, 1.0, 6.0, 0.5, 16, n, 14, tag="seams", processes=1)
    assert len(out["time"]) == n
    # one lane block of n walks, from one stream, whatever n is
    assert walks == [n]
    assert len(streams) == 1
    assert sum(s.draws for s in streams) > 0
