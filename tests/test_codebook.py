import numpy as np
import pytest

from beamsel.codebook import Codebook, build_dft_codebook
from scalar_oracle import materialize


def test_entries_match_closed_form():
    m, n_vec = 3, 5
    cb = build_dft_codebook(m, n_vec)
    for r in range(m):
        for c in range(n_vec):
            want = np.exp(-2j * np.pi * r * c / n_vec)
            assert cb.w.data[r, c] == pytest.approx(want, abs=1e-15)


def test_first_row_and_column_are_ones():
    cb = build_dft_codebook(4, 16)
    np.testing.assert_allclose(cb.w.data[0, :], 1.0, atol=1e-15)
    np.testing.assert_allclose(cb.w.data[:, 0], 1.0, atol=1e-15)


def test_second_row_second_column_quarter_turn():
    # exp(-2*pi*j * 1 * 1 / 4) = -j
    cb = build_dft_codebook(2, 4)
    assert cb.w.data[1, 1] == pytest.approx(-1j, abs=1e-15)


def test_constant_modulus():
    cb = build_dft_codebook(8, 128)
    np.testing.assert_allclose(np.abs(cb.w.data), 1.0, atol=1e-12)


def test_square_codebook_columns_orthogonal():
    cb = build_dft_codebook(4, 4)
    w = cb.w.data
    gram = w.conj().T @ w
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-12
    np.testing.assert_allclose(np.diag(gram).real, 4.0, atol=1e-12)


def test_oversampled_codebook_keeps_dft_subset():
    # Columns 0, 2, 4, 6 of the 4x8 codebook are the 4x4 DFT columns.
    wide = build_dft_codebook(4, 8).w.data
    square = build_dft_codebook(4, 4).w.data
    np.testing.assert_allclose(wide[:, ::2], square, atol=1e-12)


def test_shape_properties():
    cb = build_dft_codebook(32, 128)
    assert cb.m == 32
    assert cb.n_vec == 128
    assert cb.w.shape == (32, 128)


def test_materialize_picks_columns_in_selection_order():
    cb = build_dft_codebook(4, 8)
    fwd = materialize(cb, [0, 2]).data
    rev = materialize(cb, [2, 0]).data
    np.testing.assert_array_equal(fwd[:, 0], cb.w.data[:, 0])
    np.testing.assert_array_equal(fwd[:, 1], cb.w.data[:, 2])
    np.testing.assert_array_equal(rev[:, 0], fwd[:, 1])
    np.testing.assert_array_equal(rev[:, 1], fwd[:, 0])


def test_materialize_three_beam_row_keeps_order():
    cb = build_dft_codebook(4, 8)
    three = materialize(cb, np.array([2, 0, 6])).data
    assert three.shape == (4, 3)
    np.testing.assert_array_equal(three, cb.w.data[:, [2, 0, 6]])


def test_materialize_rejects_empty_and_duplicate_rows():
    cb = build_dft_codebook(4, 8)
    with pytest.raises(ValueError):
        materialize(cb, [])
    with pytest.raises(ValueError):
        materialize(cb, [2, 2])


def test_materialize_range_checked():
    cb = build_dft_codebook(4, 8)
    with pytest.raises(ValueError):
        materialize(cb, [0, 8])
    with pytest.raises(ValueError):
        materialize(cb, [-1, 3])


def test_materialize_accepts_last_column_rejects_one_past():
    cb = build_dft_codebook(4, 8)
    assert materialize(cb, [0, 7]).shape == (4, 2)  # first and last columns
    with pytest.raises(ValueError):
        materialize(cb, [0, 8])


def test_codebook_matrix_is_frozen():
    cb = build_dft_codebook(2, 4)
    with pytest.raises(ValueError):
        cb.w.data[0, 0] = 0.0
    assert isinstance(cb, Codebook)


def test_codebook_is_cached_per_shape():
    a = build_dft_codebook(4, 8)
    assert build_dft_codebook(4, 8) is a
    assert build_dft_codebook(4, 16) is not a
    with pytest.raises(ValueError):
        a.w.data[0, 0] = 0.0
