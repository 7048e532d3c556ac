import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lhvlab import geometry, protocols
from lhvlab.geometry import (RandomStream, assert_unit, normalize, planar_setting,
                             sample_uniform_sphere, sgn, substream,
                             unit_vector)


def test_sgn_convention():
    assert sgn(0.3) == 1.0
    assert sgn(-0.3) == -1.0
    assert sgn(0.0) == 1.0  # the tie goes up, everywhere in the package


def test_sgn_vectorized_and_rejects_nonfinite():
    out = sgn(np.array([-2.0, 0.0, 5.0]))
    assert out.tolist() == [-1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        sgn(float("nan"))
    with pytest.raises(ValueError):
        sgn(np.array([1.0, float("inf")]))


def test_sgn_zero_set_unreachable_from_samplers():
    # The convention at zero cannot influence estimates: the zero set is
    # never hit by continuous draws.
    stream = RandomStream(314)
    u = stream.sphere(100_000)
    a = stream.sphere()
    assert np.all(u @ a != 0.0)


def test_normalize_idempotent_exact():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.normal(size=3) * rng.uniform(0.1, 50)
        once = normalize(w)
        assert normalize(once) is once  # bitwise fixed point, not just close
        assert abs(np.dot(once, once) - 1.0) <= 4e-12


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])


def test_unit_vector_and_planar_setting():
    v = unit_vector(3.0, 4.0, 0.0)
    assert np.allclose(v, [0.6, 0.8, 0.0])
    assert np.allclose(planar_setting(90.0), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(planar_setting(60.0), [0.5, math.sqrt(3) / 2, 0.0])


def test_dot_products_cauchy_schwarz():
    stream = RandomStream(7)
    u = stream.sphere(10_000)
    v = stream.sphere(10_000)
    dots = np.einsum("ij,ij->i", u, v)
    assert np.all(np.abs(dots) <= 1.0 + 1e-12)


def test_sphere_sampling_unit_norm_and_reproducible():
    v1 = sample_uniform_sphere(RandomStream(42))
    v2 = sample_uniform_sphere(RandomStream(42))
    assert np.array_equal(v1, v2)
    assert abs(np.dot(v1, v1) - 1.0) < 1e-12
    batch = sample_uniform_sphere(RandomStream(42, 3), 5000)
    assert np.allclose(np.einsum("ij,ij->i", batch, batch), 1.0, atol=1e-12)


def test_sphere_sampling_is_uniform():
    # CLT oracle: each coordinate has variance 1/3, so 3/sqrt(N) bounds
    # the mean vector norm at ~5 sigma.
    n = 1_000_000
    v = sample_uniform_sphere(RandomStream(2024), n)
    means = v.mean(axis=0)
    assert np.all(np.abs(means) < 0.005)
    assert np.linalg.norm(means) < 0.005


def test_substream_determinism_and_distinctness():
    s1 = substream(42, 0)
    s2 = substream(42, 0)
    assert np.array_equal(s1.uniform(100), s2.uniform(100))
    s3 = substream(42, 1)
    assert not np.array_equal(substream(42, 0).uniform(100), s3.uniform(100))


def test_substream_ids_have_no_collisions():
    # stream_id equals the trial index by construction, so the exhaustive
    # map over the first 1e6 indices is injective.
    ids = np.arange(1_000_000)
    assert np.unique(ids).size == ids.size
    for k in (0, 1, 17, 999_999):
        assert substream(42, k).stream_id == k


def test_stream_counter_tracks_draws():
    s = RandomStream(5)
    s.uniform(10)
    s.sphere(3)  # two uniforms per vector
    assert s.counter == 16


def test_stream_signs_bits_integers():
    s = RandomStream(8)
    signs = s.signs(1000)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    bits = s.bits(1000)
    assert set(np.unique(bits)) == {0, 1}
    ints = s.integers(0, 4, 1000)
    assert ints.min() >= 0 and ints.max() <= 3


@pytest.mark.parametrize("v, bad", [
    ([math.nan, 0.0, 0.0], "nan"),
    ([2.0, 0.0, 0.0], "2."),
    ([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0]], "nan"),
    ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]], "0.5"),
])
def test_assert_unit_rejects_nan_and_names_the_bad_vector(v, bad):
    with pytest.raises(ValueError, match="setting must be a unit vector") as info:
        assert_unit(v, "setting")
    assert bad in str(info.value)
    assert "negative probability" not in str(info.value)


def test_assert_unit_accepts_unit_vectors_and_rows():
    x = planar_setting(30.0)
    assert np.array_equal(assert_unit(x), x)
    rows = np.array([x, planar_setting(120.0), [0.0, 0.0, -1.0]])
    assert np.array_equal(assert_unit(rows), rows)


def _plain(x):
    """A generator state with its arrays as lists, so states compare with ==."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x.tolist() if isinstance(x, np.ndarray) else x


# Draws made before the window: none, then odd-length integers calls that
# leave the window mid-block and a 32-bit half buffered (k = 12,566 is the
# sphere-fine grid, whose word count depends on the values).
PRIORS = {
    "none": lambda s: None,
    "int2x1": lambda s: s.integers(0, 2, 1),
    "int12566x3": lambda s: s.integers(0, 12_566, 3),
    "int20x5+uniform": lambda s: (s.integers(0, 20, 5), s.uniform(1)),
}


@pytest.mark.parametrize("size", [*range(10), 65_535, 65_536, 65_537, (4, 5), (2, 65_537),
                                  (3, 0)])
def test_uniform_rows_are_the_whole_draw_in_any_slicing(size):
    rng = np.random.default_rng(7)
    n = size if np.ndim(size) == 0 else size[1]
    starts = set()
    for offset in range(8):
        for prior in PRIORS.values():
            whole_stream, window_stream = RandomStream(17, 2), RandomStream(17, 2)
            for s in (whole_stream, window_stream):
                s.uniform(offset)
                prior(s)
            state = whole_stream._gen.bit_generator.state
            starts.add((state["buffer_pos"], state["has_uint32"]))
            whole = whole_stream.uniform(size)
            draw = window_stream.uniform_rows(size)
            # The stream is where the whole draw leaves it, before any row is read.
            assert window_stream.counter == whole_stream.counter
            assert (_plain(window_stream._gen.bit_generator.state)
                    == _plain(whole_stream._gen.bit_generator.state))
            # Rows in contiguous slices (one of them empty), read in any order.
            cuts = np.sort(rng.integers(0, n + 1, 4))
            pieces = [slice(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, n])]
            for i in rng.permutation(len(pieces)):
                got = draw(pieces[i])
                assert got.shape == whole[..., pieces[i]].shape
                assert got.tobytes() == whole[..., pieces[i]].tobytes()
            for rows in (slice(None), slice(-3, None), slice(n // 2, n + 5)):
                assert draw(rows).tobytes() == whole[..., rows].tobytes()
            # Later draws of either kind go on from the same place.
            assert whole_stream.uniform(5).tobytes() == window_stream.uniform(5).tobytes()
            assert whole_stream.integers(0, 9, 5).tolist() == window_stream.integers(0, 9, 5).tolist()
    # Windows started at every word of a block, with and without a half buffered.
    assert starts == {(pos, half) for pos in (1, 2, 3, 4) for half in (0, 1)}


def test_uniform_rows_read_contiguous_rows_only():
    draw = RandomStream(18).uniform_rows(10)
    with pytest.raises(ValueError, match="contiguous"):
        draw(slice(0, 10, 2))



# Index draws at chunk edges and at edges of index_rows' half blocks.
INDEX_SIZES = [0, 1, 2, 4_095, 4_097, 65_535, 65_536, 65_537, 2 * 65_536 + 3]


@pytest.mark.parametrize("n", INDEX_SIZES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 20, 12_566, 2**31 + 11])
@pytest.mark.parametrize("prior", PRIORS.values(), ids=PRIORS.keys())
def test_index_rows_are_the_whole_integers_draw(k, prior, n):
    # After any of PRIORS (some leave a 32-bit half buffered), the windows
    # hold the values of integers(0, k, n) in the narrowest unsigned dtype,
    # read in any order and from two threads, and the stream moves on as
    # the whole draw moves it. k = 2**31 + 11 rejects about half its halves.
    rng = np.random.default_rng([k, n])
    whole_stream, window_stream = RandomStream(23, 1), RandomStream(23, 1)
    for s in (whole_stream, window_stream):
        prior(s)
    whole = whole_stream.integers(0, k, n)
    draw = window_stream.index_rows(k, n)
    assert window_stream.counter == whole_stream.counter
    assert (_plain(window_stream._gen.bit_generator.state)
            == _plain(whole_stream._gen.bit_generator.state))
    edges = [edge for edge in (4_096, 65_536) if edge <= n]
    cuts = sorted({*rng.integers(0, n + 1, 4).tolist(), *edges})
    pieces = [slice(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, n])]
    order = rng.permutation(len(pieces))
    with ThreadPoolExecutor(2) as pool:
        windows = list(pool.map(draw, [pieces[i] for i in order]))
    for i, got in zip(order, windows):
        assert got.dtype == np.min_scalar_type(k - 1)
        assert got.tolist() == whole[pieces[i]].tolist()
    assert draw(slice(None)).tolist() == whole.tolist()
    # Later draws of either kind go on from the same place.
    assert whole_stream.integers(0, 9, 5).tolist() == window_stream.integers(0, 9, 5).tolist()
    assert whole_stream.uniform(5).tobytes() == window_stream.uniform(5).tobytes()


def test_index_rows_count_rejections_on_the_calling_thread(monkeypatch):
    # More values than one counting read holds, with two workers, and the
    # chunk pool refused: the count at reservation runs on this thread.
    n = 2 * geometry._CHUNK_ROWS + 3
    whole = RandomStream(23, 1).integers(0, 20, n)

    def no_pool(workers):
        raise AssertionError("index_rows asked for the chunk pool")
    monkeypatch.setattr(geometry, "_workers", lambda: 2)
    monkeypatch.setattr(geometry, "_executor", no_pool)
    assert RandomStream(23, 1).index_rows(20, n)(slice(None)).tolist() == whole.tolist()


def test_index_rows_refuse_k_outside_the_32_bit_range():
    for k in (0, 2**32):
        with pytest.raises(ValueError, match="1 <= k < 2"):
            RandomStream(23).index_rows(k, 5)
    with pytest.raises(ValueError, match="contiguous"):
        RandomStream(23).index_rows(3, 10)(slice(0, 10, 2))


@pytest.mark.parametrize("word", [*range(9), 2**70 + 3])
def test_generator_at_reads_the_words_of_a_philox_advanced_there(word):
    key = RandomStream(29, 3)._gen.bit_generator.state["state"]["key"]
    fresh = np.random.Philox(key=key).advance(word // 4)
    fresh.random_raw(word % 4)
    words = fresh.random_raw(6)
    assert geometry._generator_at(key, word).bit_generator.random_raw(6).tolist() == words.tolist()
    # A buffered half is read first, then the word's own halves, low first.
    halves = geometry._generator_at(key, word, 12_345).integers(0, 2**32, 3, dtype=np.uint32)
    assert halves.tolist() == [12_345, int(words[0]) & 0xFFFFFFFF, int(words[0]) >> 32]


# The sphere points each producer made with its own copy of the map before
# geometry.sphere_point was the one map, written out as they were, with the
# azimuth in turns and its cos and sin from geometry.turn_cos_sin.

def _inline_point(z, turns, axis=-1, clip=True):
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z) if clip else 1.0 - z * z)
    c, s = geometry.turn_cos_sin(turns)
    return np.stack([r * c, r * s, z], axis=axis)


@pytest.mark.parametrize("n", [1, 7, 65_537, 150_001])
def test_sphere_samples_are_the_inline_map_of_the_whole_draw(n):
    stream, twin = RandomStream(17, 3), RandomStream(17, 3)
    wz, wphi = twin.uniform((2, n))
    expected = _inline_point(2.0 * wz - 1.0, wphi)
    got = sample_uniform_sphere(stream, n)
    assert got.dtype == expected.dtype and got.shape == expected.shape == (n, 3)
    assert got.tobytes() == expected.tobytes()
    assert stream.counter == twin.counter
    assert stream.uniform(3).tobytes() == twin.uniform(3).tobytes()  # the same state


@pytest.mark.parametrize("watch", [protocols.WATCH_A, protocols.WATCH_B])
def test_watch_vectors_are_the_inline_map(watch):
    t = np.arange(-5, 200_000) * protocols.EMISSION_STEP
    ps = np.mod(t / watch.period_small, 1.0)
    pl = np.mod(t / watch.period_large, 1.0)
    expected = _inline_point(2.0 * ps - 1.0, pl)
    assert protocols.watch_vector(t, watch).tobytes() == expected.tobytes()
    one = protocols.watch_vector(7 * protocols.EMISSION_STEP, watch)
    assert one.shape == (3,) and one.tobytes() == expected[12].tobytes()


@pytest.mark.parametrize("n", [2, 8, 64, 12_566])
def test_detection_grid_is_the_inline_map(n):
    m = n // 2
    k = np.arange(m)
    z = (k + 0.5) / m
    turns = np.mod(k * (math.sqrt(5.0) - 1.0) / 2.0, 1.0)
    upper = _inline_point(z, turns, axis=1, clip=False)
    expected = np.vstack([upper, -upper])
    got = protocols._fibonacci_antipodal_grid(n)
    assert got.shape == (n, 3) and got.tobytes() == expected.tobytes()
