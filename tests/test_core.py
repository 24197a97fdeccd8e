import math

import numpy as np
import pytest

from beamsel.core import (
    ComplexMatrix,
    DimensionError,
    SystemConfig,
    db_to_linear,
    validate_config,
)
from beamsel.config import apply_override
from scalar_oracle import identity, matmul


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference triple-loop product used as the oracle for matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            acc = 0.0 + 0.0j
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_identity_left():
    rng = np.random.default_rng(1)
    a = ComplexMatrix(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    out = matmul(identity(2), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_imaginary_unit_squares_to_minus_one():
    j = ComplexMatrix([[1j]])
    out = matmul(j, j)
    assert out.data[0, 0] == -1.0 + 0.0j


def test_matmul_matches_naive_oracle():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = matmul(ComplexMatrix(a), ComplexMatrix(b)).data
    want = naive_matmul(a, b)
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_oracle_elementwise_relative_error():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    b = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    got = matmul(ComplexMatrix(a), ComplexMatrix(b)).data
    want = naive_matmul(a, b)
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
    assert np.max(rel) < 1e-12


def test_matmul_associative_within_tolerance():
    rng = np.random.default_rng(5)
    mats = [ComplexMatrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            for _ in range(3)]
    a, b, c = mats
    left = matmul(matmul(a, b), c).data
    right = matmul(a, matmul(b, c)).data
    rel = np.abs(left - right) / np.maximum(np.abs(right), 1e-30)
    assert np.max(rel) < 1e-10


def test_matmul_dimension_mismatch():
    a = ComplexMatrix(np.ones((2, 3)))
    b = ComplexMatrix(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        matmul(a, b)


def test_complex_matrix_rejects_non_2d_and_nonfinite():
    with pytest.raises(ValueError):
        ComplexMatrix(np.ones(3))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.nan + 0j]]))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.inf, 0.0]]))


def test_complex_matrix_is_immutable():
    m = ComplexMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_complex_matrix_does_not_alias_input():
    src = np.ones((2, 2), dtype=np.complex128)
    m = ComplexMatrix(src)
    src[0, 0] = 99.0
    assert m.data[0, 0] == 1.0


def test_db_conversions():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(0.0) == 1.0


def test_validate_config_accepts_recipe_parameter_sets():
    # The scenarios the experiment recipes run.
    scenarios = [
        dict(M=32, N=8, N_vec=128, k=0.0, P_dB=10.0, alpha=0.001, N_it=500),
        dict(M=64, N=8, N_vec=128, k=3.0, P_dB=30.0, alpha=0.001, N_it=200,
             pa_epsilon=0.5, pa_mu=0.5, pa_rho_max_dB=35.0),
        dict(M=32, N=8, N_vec=32, k=1.0, P_dB=10.0),
        dict(M=32, N=8, N_vec=128, k=10.0),
        dict(M=32, N=8, N_vec=128, theta_dB=0.0),
        dict(M=16, N=4, N_vec=64, k=3.0),
        dict(M=4, N=2, N_vec=8, N_it=50),
        dict(M=4, N=2, N_vec=8, N_it=1, mutation_fraction=1.0),
    ]
    for kw in scenarios:
        assert validate_config(SystemConfig(**kw)) == []


def test_validate_config_flags_delay_budget():
    cfg = SystemConfig(M=32, N=8, N_vec=128, alpha=0.01, N_it=200)
    errs = validate_config(cfg)
    assert any("alpha*N_it < 1" in e for e in errs)


def test_validate_config_flags_user_count_vs_codebook():
    cfg = SystemConfig(M=9, N=9, N_vec=8)
    errs = validate_config(cfg)
    assert any("N <= N_vec" in e for e in errs)
    assert any("M <= N_vec" in e for e in errs)


def test_validate_config_collects_multiple_violations():
    cfg = SystemConfig(M=2, N=4, N_vec=1, beta=0.9, mutation_fraction=0.0, S=9, L=10)
    errs = validate_config(cfg)
    assert len(errs) >= 4
    assert any("N <= M" in e for e in errs)
    assert any("2*beta^2 <= 1" in e for e in errs)
    assert any("mutation_fraction" in e for e in errs)
    assert any("S + 1 < L" in e for e in errs)
    errs = validate_config(SystemConfig(M=4, N=2, N_vec=8, L=1, S=-1, N_it=0))
    assert any("L >= 2" in e for e in errs)
    assert any("S >= 0" in e for e in errs)
    assert any("N_it >= 1" in e for e in errs)
    errs = validate_config(SystemConfig(M=0, N=1, N_vec=8, beta=-0.1))
    assert any("M >= 1" in e for e in errs)
    assert any("beta >= 0" in e for e in errs)


def test_validate_config_pa_bounds():
    bad_eps = SystemConfig(M=4, N=2, N_vec=8, pa_epsilon=0.0)
    assert any("pa_epsilon" in e for e in validate_config(bad_eps))
    bad_mu = SystemConfig(M=4, N=2, N_vec=8, pa_mu=1.5, pa_rho_max_dB=35.0)
    assert any("pa_mu" in e for e in validate_config(bad_mu))
    # The amplifier cannot deliver these budgets, so a run of them would fail.
    mu_one = SystemConfig(M=4, N=2, N_vec=8, pa_mu=1.0, pa_rho_max_dB=30.0)
    assert any("pa_mu < 1" in e for e in validate_config(mu_one))
    unbounded = SystemConfig(M=4, N=2, N_vec=8, pa_mu=0.5)
    assert any("finite saturation power" in e for e in validate_config(unbounded))
    saturating = SystemConfig(M=4, N=2, N_vec=8, P_dB=60.0,
                              pa_epsilon=0.5, pa_mu=0.5, pa_rho_max_dB=10.0)
    assert any(e.startswith("SaturationError:") for e in validate_config(saturating))
    overflowing = SystemConfig(M=4, N=2, N_vec=8, P_dB=4000.0)
    assert any(e.startswith("OverflowError:") for e in validate_config(overflowing))
    # The outage threshold goes through the same dB conversion on every run.
    overflowing = SystemConfig(M=4, N=2, N_vec=8, theta_dB=4000.0)
    assert any(e.startswith("OverflowError:") for e in validate_config(overflowing))
    ideal = SystemConfig(M=4, N=2, N_vec=8, pa_epsilon=1.0, pa_mu=0.0, pa_rho_max_dB=math.inf)
    assert validate_config(ideal) == []


def test_validate_config_k_and_seed():
    assert validate_config(SystemConfig(M=4, N=2, N_vec=8, k=math.inf)) == []
    assert any("k >= 0" in e for e in validate_config(SystemConfig(M=4, N=2, N_vec=8, k=-1.0)))
    assert any("seed" in e for e in validate_config(SystemConfig(M=4, N=2, N_vec=8, seed=-1)))
    assert any("theta_dB" in e
               for e in validate_config(SystemConfig(M=4, N=2, N_vec=8, theta_dB=math.nan)))
    for theta in (math.inf, -math.inf):  # nobody served, everybody served: both consistent
        assert validate_config(SystemConfig(M=4, N=2, N_vec=8, theta_dB=theta)) == []


def test_with_overrides_routes_pa_fields():
    # Overrides of the amplifier keys land in their own fields and nowhere else.
    cfg = SystemConfig(M=4, N=2, N_vec=8)
    out = cfg
    for key, value in (("P_dB", 20.0), ("pa_epsilon", 0.5), ("pa_mu", 0.5),
                       ("pa_rho_max_dB", 35.0)):
        out = apply_override(out, key, value)
    assert out.P_dB == 20.0
    assert out == SystemConfig(M=4, N=2, N_vec=8, P_dB=20.0, pa_epsilon=0.5, pa_mu=0.5, pa_rho_max_dB=35.0)
    assert cfg == SystemConfig(M=4, N=2, N_vec=8)  # original untouched


def test_p_linear():
    cfg = SystemConfig(M=4, N=2, N_vec=8, P_dB=10.0)
    assert cfg.P_linear == pytest.approx(10.0)
