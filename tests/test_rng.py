import gc
import hashlib
import math
import struct

import numpy as np
import pytest

from exitwalk import substream


def test_array_draws_count_and_stay_in_the_open_interval():
    rng = substream(5, "arrays")
    chunks = [rng.uniforms(n) for n in (1, 700, 4000, 5000, 3)]
    normals = [rng.normals(n) for n in (2000, 3000)]
    assert rng.draws == 9704 + 5000
    u = np.concatenate(chunks)
    assert u.shape == (9704,) and np.all((u > 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / len(u))
    v = np.concatenate(normals)
    assert abs(v.mean()) <= 4.0 / math.sqrt(len(v))
    with pytest.raises(ValueError):  # served arrays are read-only views
        chunks[1][0] = 0.5
    again = substream(5, "arrays")
    assert again.uniforms(701).tobytes() == np.concatenate(chunks[:2]).tobytes()


def test_array_uniforms_redraw_exact_zeros():
    rng = substream(6, "zeros")
    real = rng._gen
    calls = []

    class ZerosFirst:
        def random(self, n):
            calls.append(n)
            out = real.random(n)
            if len(calls) == 1:
                out[::3] = 0.0
            return out

    rng._gen = ZerosFirst()
    u = rng.uniforms(30)
    assert np.all(u > 0.0) and len(calls) >= 2 and rng.draws == 30


def test_seeded_stream_known_answer():
    # scalar and array draws mixed across four refills of each scalar block and
    # of the array buffers; the digest was recorded with the index-and-counter
    # buffers that the C-level iterators replaced
    rng = substream(2024, "pin")
    h = hashlib.sha256()

    def record(values):
        h.update(struct.pack(f"<{len(values)}d", *values))
        h.update(struct.pack("<q", rng.draws))

    for r in range(120):
        for _ in range(31):
            record([rng.uniform()])
        for _ in range(37):
            record([rng.normal()])
        for _ in range(7):
            record([-math.log1p(-rng.uniform()) / (0.5 + r % 3)])
        record([math.inf])  # rate 0 draws nothing
        record(rng.uniforms(1 + 97 * r % 300).tolist())
        record(rng.normals(1 + 61 * r % 200).tolist())
    assert rng.draws == 39360
    assert h.hexdigest() == "84faf330a3de05cacced74c1f5bbae67ce5419951a0521ef626b339a74b2d220"


def test_draws_is_read_only():
    rng = substream(8, "count")
    rng.uniform()
    with pytest.raises(AttributeError):
        rng.draws = 0
    assert rng.draws == 1


def test_scalar_uniforms_drop_exact_zeros():
    rng = substream(7, "zeros")
    real = rng._uni._draw

    def zeros_in_every_third(n):
        out = real(n)
        out[::3] = 0.0
        return out

    rng._uni._draw = zeros_in_every_third  # from the second block on
    u = [rng.uniform() for _ in range(3000)]
    assert min(u) > 0.0 and rng.draws == 3000


def test_streams_are_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        for i in range(50):
            rng = substream(i, "cycles")
            rng.uniform(), rng.normal(), -math.log1p(-rng.uniform()), rng.uniforms(3), rng.normals(3)
            assert rng.draws == 9
            del rng
        assert gc.collect() == 0
    finally:
        gc.enable()
