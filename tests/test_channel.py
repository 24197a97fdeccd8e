import math

import numpy as np
import pytest

from beamsel.channel import (
    STREAM_BASELINE,
    STREAM_CHANNEL,
    STREAM_SEARCH,
    build_los,
    compose_channel,
    realize_channel,
    sample_nlos,
    stream_rng,
)
from beamsel.core import ComplexMatrix, SystemConfig


def _cfg(**kw):
    base = dict(M=4, N=2, N_vec=8)
    base.update(kw)
    return SystemConfig(**base)


def test_nlos_entries_have_unit_power():
    cfg = _cfg(M=100, N=100, N_vec=100)
    h = sample_nlos(cfg, np.random.default_rng(0)).data
    power = np.mean(np.abs(h) ** 2)
    assert power == pytest.approx(1.0, abs=0.02)
    assert np.mean(h.real) == pytest.approx(0.0, abs=0.01)
    assert np.mean(h.imag) == pytest.approx(0.0, abs=0.01)
    # real and imaginary parts each carry half the power
    assert np.mean(h.real**2) == pytest.approx(0.5, abs=0.01)


def test_nlos_shape_is_users_by_antennas():
    cfg = _cfg(M=7, N=3, N_vec=8)
    assert sample_nlos(cfg, np.random.default_rng(0)).shape == (3, 7)


def test_stream_rng_reproducible_and_distinct():
    a = stream_rng(12345, 17, STREAM_CHANNEL).standard_normal(8)
    b = stream_rng(12345, 17, STREAM_CHANNEL).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = stream_rng(12345, 17, STREAM_SEARCH).standard_normal(8)
    d = stream_rng(12345, 18, STREAM_CHANNEL).standard_normal(8)
    e = stream_rng(12346, 17, STREAM_CHANNEL).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)
    assert not np.array_equal(c, stream_rng(12345, 17, STREAM_BASELINE).standard_normal(8))


def test_stream_rng_rejects_negative_coordinates():
    with pytest.raises(ValueError):
        stream_rng(-1, 0)
    with pytest.raises(ValueError):
        stream_rng(0, -1)


def test_los_single_antenna_single_user():
    h = build_los(_cfg(M=1, N=1, N_vec=1)).data
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(0.2 * (1 + 1j), abs=1e-15)


def test_los_row_vector_normalization():
    # N=1, M=2, beta=0.2: off-diagonal c = sqrt((2 - 2*0.04) / (2*(2-1))) = sqrt(0.96).
    h = build_los(_cfg(M=2, N=1, N_vec=2)).data
    assert h[0, 0] == pytest.approx(0.2 * (1 + 1j), abs=1e-15)
    c = math.sqrt(0.96)
    assert h[0, 1] == pytest.approx(c * (1 + 1j), abs=1e-15)
    assert np.sum(np.abs(h) ** 2) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("m,n,beta", [
    (32, 8, 0.2),
    (64, 8, 0.2),
    (16, 4, 0.2),
    (3, 3, 0.5),
    (5, 2, 0.0),
    (2, 2, 0.7),
])
def test_los_frobenius_power_equals_entry_count(m, n, beta):
    h = build_los(_cfg(M=m, N=n, N_vec=max(m, n), beta=beta)).data
    assert np.sum(np.abs(h) ** 2) == pytest.approx(m * n, rel=1e-12)


def test_los_structure():
    h = build_los(_cfg(M=5, N=3, N_vec=8)).data
    diag = np.array([h[i, i] for i in range(3)])
    np.testing.assert_allclose(diag, 0.2 * (1 + 1j), atol=1e-15)
    off = [h[i, j] for i in range(3) for j in range(5) if i != j]
    # all off-diagonal entries equal and bigger than the diagonal ones
    assert len(set(np.round(off, 15))) == 1
    assert abs(off[0]) > abs(diag[0])


def test_compose_endpoints_exact():
    rng = np.random.default_rng(3)
    cfg = _cfg()
    h_nlos = sample_nlos(cfg, rng)
    h_los = build_los(cfg)
    assert compose_channel(h_los, h_nlos, 0.0) is h_nlos
    assert compose_channel(h_los, h_nlos, math.inf) is h_los


def test_compose_blend_weights():
    ones = ComplexMatrix(np.ones((2, 2)))
    twos = ComplexMatrix(2.0 * np.ones((2, 2)))
    out = compose_channel(ones, twos, 1.0).data
    want = math.sqrt(0.5) * 1.0 + math.sqrt(0.5) * 2.0
    np.testing.assert_allclose(out, want, rtol=1e-15)


@pytest.mark.parametrize("k", [0.0, 1.0, 10.0])
def test_mean_channel_power_is_entry_count(k):
    cfg = _cfg(M=8, N=4, N_vec=8, k=k, seed=99)
    powers = []
    for r in range(400):
        h = realize_channel(cfg, r).data
        powers.append(np.sum(np.abs(h) ** 2))
    assert np.mean(powers) == pytest.approx(cfg.M * cfg.N, rel=0.03)


def test_realize_channel_deterministic():
    cfg = _cfg(seed=777)
    a = realize_channel(cfg, 5)
    b = realize_channel(cfg, 5)
    np.testing.assert_array_equal(a.data, b.data)


def test_realizations_share_nlos_across_k():
    # Same seed and index: the scattered component is identical, so the k=0
    # channel should be recoverable from any finite-k channel by inverting
    # the blend weights.
    cfg0 = _cfg(k=0.0, seed=5)
    cfg3 = _cfg(k=3.0, seed=5)
    h0 = realize_channel(cfg0, 2).data
    h3 = realize_channel(cfg3, 2).data
    los = build_los(cfg3).data
    recovered = (h3 - math.sqrt(3.0 / 4.0) * los) / math.sqrt(1.0 / 4.0)
    np.testing.assert_allclose(recovered, h0, atol=1e-12)
