"""Seeded random variate streams with named, scheduling-independent substreams.

Every sampler in the package draws its variates through a
:class:`RandomStream`: scalars one at a time, or whole arrays for the lanes
of a batched walk.  A fixed seed path and a fixed sequence of calls yield a
bit-identical variate sequence.
Substreams are derived from a 64-bit root seed plus a path of names/indices
(replication block, purpose), so sweeps and parallel replications are
reproducible regardless of execution order.  No stream is derived from
another: a caller that needs more variates, for a bank of walks say, draws
them from the stream it holds.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

_BLOCK = 1024
_ARRAY_BLOCK = 4096
_EMPTY = np.empty(0)


def _spawn_key(path) -> tuple[int, ...]:
    key = []
    for part in path:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, (int, np.integer)):
            if part < 0:
                raise ValueError("substream indices must be nonnegative")
            key.append(int(part))
        else:
            raise TypeError(f"substream path parts must be str or int, got {type(part)!r}")
    return tuple(key)


class RandomStream:
    """Buffered scalar uniform/normal/exponential source over PCG64, plus array draws.

    ``uniform()`` and ``uniforms(n)`` return values in the open interval
    (0, 1) so callers can take logarithms without guards.  ``draws`` counts
    variates actually served, scalar or in arrays, which test harnesses use
    to audit work accounting.
    """

    __slots__ = ("_gen", "_uni", "_u_at", "_nor", "_n_at", "_ua", "_ua_at", "_na", "_na_at", "draws")

    def __init__(self, seed=None, *, _seed_sequence=None):
        if _seed_sequence is None:
            _seed_sequence = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(_seed_sequence))
        # native-float buffers: scalar draws stay cheap in tight loops
        self._uni = self._gen.random(_BLOCK).tolist()
        self._u_at = 0
        self._nor = self._gen.standard_normal(_BLOCK).tolist()
        self._n_at = 0
        # array buffers, filled on the first array draw
        self._ua = self._na = _EMPTY
        self._ua_at = self._na_at = 0
        self.draws = 0

    def uniform(self) -> float:
        """One uniform variate in the open interval (0, 1)."""
        while True:
            if self._u_at == _BLOCK:
                self._uni = self._gen.random(_BLOCK).tolist()
                self._u_at = 0
            u = self._uni[self._u_at]
            self._u_at += 1
            if u > 0.0:
                self.draws += 1
                return u

    def normal(self) -> float:
        if self._n_at == _BLOCK:
            self._nor = self._gen.standard_normal(_BLOCK).tolist()
            self._n_at = 0
        z = self._nor[self._n_at]
        self._n_at += 1
        self.draws += 1
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform variates in the open interval (0, 1), as a read-only array."""
        if self._ua_at + n > len(self._ua):
            u = self._gen.random(max(n, _ARRAY_BLOCK))
            while not u.all():
                zero = (u == 0.0).nonzero()[0]
                u[zero] = self._gen.random(len(zero))
            u.flags.writeable = False
            self._ua = u
            self._ua_at = 0
        at = self._ua_at
        self._ua_at = at + n
        self.draws += n
        return self._ua[at : at + n]

    def normals(self, n: int) -> np.ndarray:
        """n standard normal variates, as a read-only array."""
        if self._na_at + n > len(self._na):
            v = self._gen.standard_normal(max(n, _ARRAY_BLOCK))
            v.flags.writeable = False
            self._na = v
            self._na_at = 0
        at = self._na_at
        self._na_at = at + n
        self.draws += n
        return self._na[at : at + n]

    def exponential(self, rate: float) -> float:
        """Exp(rate) variate; returns inf when rate == 0 without consuming randomness."""
        if rate < 0.0:
            raise ValueError(f"exponential rate must be nonnegative, got {rate}")
        if rate == 0.0:
            return math.inf
        # uniform() is in (0, 1), so log1p(-u) < 0 strictly and the result is positive
        return -math.log1p(-self.uniform()) / rate


def substream(seed: int, *path) -> RandomStream:
    """Stream for (seed, *path); path parts are purpose names or indices."""
    ss = np.random.SeedSequence(seed, spawn_key=_spawn_key(path))
    return RandomStream(_seed_sequence=ss)
