"""Per-layer tracing from outside the program.

The tracer replaces, for the duration of a ``with`` block, the module-level
names through which one layer of ``exitwalk`` calls the next, and counts the
calls and nanoseconds spent in each.  Modules are taken from ``sys.modules``:
the package re-exports functions under the names of their modules
(``exitwalk.box_exit`` is the function), so attribute paths would patch the
wrong object.  A name that a later refactor removes is recorded as missing,
and the metrics that need it are left out rather than guessed.
"""

from __future__ import annotations

import math
import sys
import time

# "module.attribute", module relative to exitwalk; the key each records is the same
# string, except _cond_bm_norm, which records ".image" and ".spectral" apart
WRAPPED = (
    "parallel.diff_exit",
    "parallel.substream",
    "random_walk.box_exit",
    "random_walk.slice_bounds_table",
    "box_exit._exit_bm_norm",
    "box_exit._cond_bm_norm",
    "bandit.diff_exit",
    "bandit.select_arm",
    "bandit.update",
)

# _cond_bm_norm(rng, z, tn) switches from the image to the spectral series at tn = 1/pi
_COND_CROSS = 1.0 / math.pi


class Tracer:
    """Call counts and nanoseconds per wrapped name, plus RNG draws of run_replications."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # key -> [calls, ns]
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._stream = None
        self.draws = 0

    def __enter__(self) -> "Tracer":
        for dotted in WRAPPED:
            mod_name, attr = dotted.split(".")
            module = sys.modules.get(f"exitwalk.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(dotted)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(dotted, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self.flush_draws()

    def _stat(self, key: str) -> list[int]:
        return self.stats.setdefault(key, [0, 0])

    def _wrap(self, dotted: str, fn):
        clock = time.perf_counter_ns
        if dotted == "parallel.substream":
            # run_replications draws each replication from a fresh stream:
            # keep only the live one and bank its draws when the next appears
            def substream(*args):
                self.flush_draws()
                self._stream = fn(*args)
                return self._stream

            return substream
        if dotted == "box_exit._cond_bm_norm":
            image = self._stat(dotted + ".image")
            spectral = self._stat(dotted + ".spectral")

            def cond(rng, z, tn):
                t0 = clock()
                try:
                    return fn(rng, z, tn)
                finally:
                    s = spectral if tn >= _COND_CROSS else image
                    s[0] += 1
                    s[1] += clock() - t0

            return cond
        s = self._stat(dotted)

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                s[0] += 1
                s[1] += clock() - t0

        return timed

    def flush_draws(self) -> None:
        if self._stream is not None:
            self.draws += self._stream.draws
            self._stream = None

    def calls(self, key: str):
        s = self.stats.get(key)
        return None if s is None else s[0]

    def ns(self, key: str):
        s = self.stats.get(key)
        return None if s is None else s[1]
