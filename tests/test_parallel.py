import numpy as np

from exitwalk import ornstein_uhlenbeck
from exitwalk.parallel import run_replications


def test_replications_do_not_depend_on_process_count():
    # n >= 64 so that processes=2 fans the work out over a pool
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
