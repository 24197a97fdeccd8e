import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsel.codebook import build_dft_codebook
from beamsel.core import (
    ComplexMatrix,
    ObjectiveKind,
    SaturationError,
    db_to_linear,
    min_rate_for_threshold,
    pa_output_power,
    rates,
    sinr_from_components,
)
from scalar_oracle import (
    channel_gain,
    delay_factor,
    evaluate_objective,
    materialize,
    outage_throughput,
    pa_consumed_power,
    pa_effective_efficiency,
    served_stats,
    sinr,
    throughput,
)


def naive_gain(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Oracle: |row_i(H) . col_j(V)|^2 accumulated one scalar product at a time."""
    n = h.shape[0]
    cols = v.shape[1]
    out = np.zeros((n, cols))
    for i in range(n):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for t in range(h.shape[1]):
                acc += h[i, t] * v[t, j]
            out[i, j] = abs(acc) ** 2
    return out


def naive_sinr(g: np.ndarray, p: float, m: int) -> np.ndarray:
    n = g.shape[0]
    out = np.zeros(n)
    for i in range(n):
        interf = sum(g[i, j] for j in range(n) if j != i)
        out[i] = (p / m) * g[i, i] / (1.0 + (p / m) * interf)
    return out


def test_channel_gain_identity_channel():
    h = ComplexMatrix(np.eye(2))
    v = ComplexMatrix(np.eye(2))
    np.testing.assert_array_equal(channel_gain(h, v), np.eye(2))


def test_channel_gain_matches_naive_oracle():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    got = channel_gain(ComplexMatrix(h), ComplexMatrix(v))
    want = naive_gain(h, v)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_channel_gain_with_codebook_columns():
    # Unit-modulus beams against an all-ones channel: the aligned beam (all
    # ones) collects |M|^2, the orthogonal one collects 0.
    cb = build_dft_codebook(4, 4)
    v = materialize(cb, [0, 1])
    h = ComplexMatrix(np.ones((1, 4)))
    g = channel_gain(h, v)
    assert g[0, 0] == pytest.approx(16.0, rel=1e-12)
    assert g[0, 1] == pytest.approx(0.0, abs=1e-24)


def test_sinr_pinned_identity_example():
    # Identity gains, P equal to the antenna count: every user sees SINR 1.
    g = np.eye(3)
    np.testing.assert_allclose(sinr(g, 3.0, 3), 1.0, rtol=1e-15)


def test_sinr_pinned_all_ones_example():
    g = np.ones((2, 2))
    np.testing.assert_allclose(sinr(g, 2.0, 2), 0.5, rtol=1e-15)


def test_sinr_matches_scalar_loop():
    rng = np.random.default_rng(2)
    g = rng.random((5, 5)) * 4.0
    got = sinr(g, 10.0, 4)
    np.testing.assert_allclose(got, naive_sinr(g, 10.0, 4), rtol=1e-12)


def test_sinr_interference_free_scales_linearly():
    g = np.diag([2.0, 3.0])
    np.testing.assert_allclose(sinr(g, 8.0, 2), [8.0, 12.0], rtol=1e-15)


def test_sinr_with_interference_is_sublinear_in_power():
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    s1 = sinr(g, 2.0, 2)
    s2 = sinr(g, 4.0, 2)
    assert np.all(s2 < 2.0 * s1)
    assert np.all(s2 > s1)


def test_sinr_validation():
    with pytest.raises(ValueError):
        sinr(np.ones((2, 3)), 1.0, 1)
    with pytest.raises(ValueError):
        sinr(-np.ones((2, 2)), 1.0, 1)
    with pytest.raises(ValueError):
        sinr(np.ones((2, 2)), -1.0, 1)
    with pytest.raises(ValueError):
        sinr(np.ones((2, 2)), 1.0, 0)


def test_sinr_from_components_broadcasts():
    sig = np.array([[1.0, 2.0], [3.0, 4.0]])
    interf = np.zeros((2, 2))
    np.testing.assert_allclose(sinr_from_components(sig, interf, 0.5), sig * 0.5)


def test_rates_pinned_points():
    np.testing.assert_array_equal(rates(np.array([0.0])), [0.0])
    assert rates(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert rates(np.array([3.0]))[0] == pytest.approx(2.0, abs=1e-15)


def test_min_rate_for_threshold():
    assert min_rate_for_threshold(0.0) == pytest.approx(1.0, abs=1e-15)
    assert min_rate_for_threshold(-math.inf) == 0.0
    # tiny thresholds stay positive thanks to log1p
    assert 0.0 < min_rate_for_threshold(-100.0) < 1e-9


def test_delay_factor():
    assert delay_factor(0.0, 1) == 1.0
    assert delay_factor(0.001, 500) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        delay_factor(0.001, 0)
    with pytest.raises(ValueError):
        delay_factor(0.01, 101)


def test_throughput_exhausted_frame_is_exactly_zero():
    r = np.array([5.0, 7.0])
    assert throughput(r, 0.001, 1000) == 0.0


def test_throughput_weighted_example():
    r = np.array([1.0, 1.0, 1.0])
    assert throughput(r, 0.001, 100) == pytest.approx(2.7, abs=1e-12)
    assert throughput(r, 0.0, 100) == 3.0


def test_outage_throughput_threshold_edges():
    r = np.array([0.5, 1.5])
    # theta = 0 dB needs rate >= 1
    assert outage_throughput(r, 0.0, 1, 0.0) == pytest.approx(1.5)
    assert outage_throughput(np.array([0.2, 0.3]), 0.0, 1, 0.0) == 0.0
    # rate exactly at the threshold counts as served
    assert outage_throughput(np.array([1.0]), 0.0, 1, 0.0) == pytest.approx(1.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=8),
    st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_outage_throughput_never_exceeds_unconstrained(r_list, theta):
    r = np.array(r_list)
    assert outage_throughput(r, 0.0, 1, theta) <= throughput(r, 0.0, 1) + 1e-12


def test_served_stats_example():
    served, flags = served_stats(np.array([1.5, 0.5]), 0.0)
    assert served == 1
    np.testing.assert_array_equal(flags, [False, True])


def test_served_stats_everyone_served_without_threshold():
    served, flags = served_stats(np.array([0.0, 0.1]), -math.inf)
    assert served == 2
    assert not flags.any()


# (epsilon, mu, rho_max_dB) of the ideal amplifier and of the recipes' saturating one.
IDEAL_PA = (1.0, 0.0, math.inf)
PA = (0.5, 0.5, 35.0)


def test_ideal_pa_is_identity():
    for p in [0.0, 1.0, 10.0, 1e6]:
        assert pa_output_power(p, *IDEAL_PA) == p
        assert pa_consumed_power(p, *IDEAL_PA) == p


def test_pa_worked_example():
    rho_out = pa_output_power(1000.0, *PA)
    # (0.5 * 1000 / sqrt(3162.27...))^2
    want = (0.5 * 1000.0 / math.sqrt(db_to_linear(35.0))) ** 2
    assert rho_out == pytest.approx(want, rel=1e-12)
    assert rho_out == pytest.approx(79.0569, rel=1e-4)


def test_pa_round_trip():
    for rho_out in [0.5, 10.0, 100.0, 1000.0]:
        cons = pa_consumed_power(rho_out, *PA)
        assert pa_output_power(cons, *PA) == pytest.approx(rho_out, rel=1e-10)


def test_pa_saturation_onset():
    rho_max = db_to_linear(35.0)
    onset = rho_max / 0.5
    assert pa_output_power(onset, *PA) == pytest.approx(rho_max, rel=1e-9)
    with pytest.raises(SaturationError):
        pa_output_power(onset * 1.01, *PA)
    with pytest.raises(SaturationError):
        pa_consumed_power(rho_max * 1.01, *PA)


def test_pa_mu_one_rejected():
    with pytest.raises(ValueError):
        pa_output_power(10.0, 0.5, 1.0, 35.0)
    with pytest.raises(ValueError):
        pa_consumed_power(10.0, 0.5, 1.0, 35.0)


def test_pa_positive_mu_needs_finite_saturation():
    with pytest.raises(ValueError):
        pa_output_power(10.0, 0.5, 0.5, math.inf)


def test_pa_mu_zero_is_constant_efficiency():
    pa = (0.25, 0.0, 35.0)
    assert pa_output_power(100.0, *pa) == pytest.approx(25.0)
    assert pa_effective_efficiency(10.0, *pa) == pytest.approx(0.25)
    assert pa_effective_efficiency(0.01, *pa) == pytest.approx(0.25)


def test_pa_efficiency_improves_toward_saturation():
    points = [1.0, 10.0, 100.0, 1000.0]
    effs = [pa_effective_efficiency(p, *PA) for p in points]
    assert all(b > a for a, b in zip(effs, effs[1:]))
    # peak efficiency epsilon is reached exactly at saturation
    assert pa_effective_efficiency(db_to_linear(35.0), *PA) == pytest.approx(0.5, rel=1e-12)


def test_pa_output_monotone_in_consumption():
    cons = np.linspace(0.1, 6000.0, 50)
    outs = [pa_output_power(c, *PA) for c in cons]
    assert all(b > a for a, b in zip(outs, outs[1:]))


def test_objective_kind_parsing():
    assert ObjectiveKind.from_string("throughput") is ObjectiveKind.THROUGHPUT
    assert ObjectiveKind.from_string("outage_count") is ObjectiveKind.OUTAGE_COUNT
    assert str(ObjectiveKind.OUTAGE_THROUGHPUT) == "outage_throughput"
    with pytest.raises(ValueError):
        ObjectiveKind.from_string("sum_rate")


def test_evaluate_objective_throughput():
    assert evaluate_objective(ObjectiveKind.THROUGHPUT, np.array([1.0, 2.0]), 1, alpha=0.0) == 3.0


def test_evaluate_objective_outage_throughput_matches_when_threshold_is_low():
    r = np.array([0.8, 1.3, 2.2])
    plain = evaluate_objective(ObjectiveKind.THROUGHPUT, r, 7, alpha=0.001)
    gated = evaluate_objective(ObjectiveKind.OUTAGE_THROUGHPUT, r, 7, alpha=0.001, theta_dB=-100.0)
    assert gated == pytest.approx(plain)


def test_evaluate_objective_outage_count_orders_lexicographically():
    more_served = evaluate_objective(ObjectiveKind.OUTAGE_COUNT, np.array([1.1, 1.1, 0.0]), 1, theta_dB=0.0)
    fewer_served = evaluate_objective(ObjectiveKind.OUTAGE_COUNT, np.array([0.0, 9.0, 0.5]), 1, theta_dB=0.0)
    assert more_served == (2, pytest.approx(2.2))
    assert fewer_served[0] == 1
    # two served beats one served no matter how large the single rate is
    assert more_served > fewer_served
