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

The scalar draws ``uniform()`` and ``normal()`` are C-level iterators: each
is the ``__next__`` of an ``itertools.chain`` over blocks of 1,024 variates,
so a draw runs no Python bytecode.  The first uniform block and then the
first normal block are drawn at construction, and each later block when a
draw finds the previous one used up; no seeded byte differs from the earlier
per-draw buffers.
"""

from __future__ import annotations

import itertools
import operator
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


class _Blocks:
    """The blocks behind one scalar draw, as an iterator of list iterators.

    The first block is drawn at construction and each later one when the
    chain asks for it.  Exact zeros are dropped from a block when it is drawn
    if ``positive``.  It holds the generator's method and never the stream,
    so a stream is freed by reference counting alone.
    """

    __slots__ = ("_draw", "_positive", "_first", "_live", "_size", "_done")

    def __init__(self, draw, positive: bool = False):
        self._draw = draw
        self._positive = positive
        self._first = self._block()
        self._live = iter(())
        self._size = self._done = 0

    def _block(self) -> list[float]:
        values = self._draw(_BLOCK).tolist()
        if self._positive and 0.0 in values:
            values = [v for v in values if v > 0.0]
        return values

    def __iter__(self):
        return self

    def __next__(self):
        values = self._first if self._first is not None else self._block()
        self._first = None
        self._done += self._size
        self._size = len(values)
        self._live = iter(values)
        return self._live

    def served(self) -> int:
        """Variates handed out so far: finished blocks, then the live block's position."""
        return self._done + self._size - operator.length_hint(self._live)


class RandomStream:
    """Buffered scalar uniform/normal source over PCG64, plus array draws.

    ``uniform()`` and ``uniforms(n)`` return values in the open interval
    (0, 1) so callers can take logarithms without guards; ``normal()``
    returns one standard normal variate.  The read-only ``draws`` counts
    variates actually served, scalar or in arrays, which test harnesses use
    to audit work accounting.
    """

    __slots__ = ("_gen", "_uni", "_nor", "uniform", "normal", "_ua", "_ua_at", "_na", "_na_at", "_array_draws")

    def __init__(self, seed=None, *, _seed_sequence=None):
        if _seed_sequence is None:
            _seed_sequence = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(_seed_sequence))
        # native-float blocks: the first uniform block, then the first normal one
        self._uni = _Blocks(self._gen.random, positive=True)
        self._nor = _Blocks(self._gen.standard_normal)
        self.uniform = itertools.chain.from_iterable(self._uni).__next__
        self.normal = itertools.chain.from_iterable(self._nor).__next__
        # array buffers, filled on the first array draw
        self._ua = self._na = _EMPTY
        self._ua_at = self._na_at = 0
        self._array_draws = 0

    @property
    def draws(self) -> int:
        """Variates served so far, scalar or in arrays."""
        return self._uni.served() + self._nor.served() + self._array_draws

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
        self._array_draws += n
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
        self._array_draws += n
        return self._na[at : at + n]


def substream(seed: int, *path) -> RandomStream:
    """Stream for (seed, *path); path parts are purpose names or indices."""
    ss = np.random.SeedSequence(seed, spawn_key=_spawn_key(path))
    return RandomStream(_seed_sequence=ss)
