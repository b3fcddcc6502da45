import math

import numpy as np
import pytest

from helpers import random_feasible_set, random_psd, random_unit
from leoican import beamforming
from leoican.beamforming import (
    MrtEngine,
    ZeroForcingError,
    ZfEngine,
    dc_beamforming,
    mrt_weight,
    rank1_extract,
    true_rates_from_q,
    zf_satellite,
)
from leoican.convex_kernel import SurrogateCore, surrogate_components
from leoican.metrics import satellite_rates
from leoican.oracles import matched_filter_rate
from leoican.selection import StructureEvaluator

LOG2 = math.log(2.0)


def _random_channels(rng, k, n):
    return np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)])


def _outers(w):
    return w[:, :, None] * w.conj()[:, None, :]


# ----------------------------------------------------------------- true rates

def test_dc_split_all_zero():
    h = np.array([[1.0 + 0j, 0j], [0j, 1.0 + 0j]])
    q = np.zeros((2, 2, 2), dtype=complex)
    assert np.array_equal(true_rates_from_q(q, h, noise_power=0.7, bandwidth=3.0), [0.0, 0.0])


def test_dc_split_single_user_constant_interference_term():
    # a lone terminal sees no interference: B*log2(1 + h^H Q h / noise)
    rng = np.random.default_rng(0)
    h = _random_channels(rng, 1, 3)
    q = random_psd(rng, 3, 1.3)[None]
    received = np.vdot(h[0], q[0] @ h[0]).real
    assert true_rates_from_q(q, h, noise_power=0.4, bandwidth=2.0)[0] == pytest.approx(
        2.0 * math.log2(1.0 + received / 0.4), rel=1e-12)


def test_dc_split_matches_beamformer_rates_on_rank1():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        h = _random_channels(rng, k, n)
        noise = float(rng.uniform(0.2, 1.5))
        w = np.array([float(rng.uniform(0.2, 2.0)) * random_unit(rng, n) for _ in range(k)])
        lifted = true_rates_from_q(_outers(w), h, noise, bandwidth=1.0)
        via_w = satellite_rates(h, w, noise, 1.0)
        for c in range(k):
            signal = abs(np.vdot(h[c], w[c])) ** 2
            interference = sum(abs(np.vdot(h[c], w[p])) ** 2 for p in range(k) if p != c)
            by_hand = math.log2(1.0 + signal / (interference + noise))
            assert lifted[c] == pytest.approx(by_hand, rel=1e-9)
            assert via_w[c] == pytest.approx(by_hand, rel=1e-9)


# ------------------------------------------------------------- linearization

def test_taylor_matches_g_at_anchor():
    rng = np.random.default_rng(2)
    h = _random_channels(rng, 3, 3)
    anchor = np.array(list(random_feasible_set(rng, range(3), 3, 2.0).values()))
    core = SurrogateCore(h, anchor, 0.5, 1.0)
    assert np.allclose(surrogate_components(core, anchor),
                       true_rates_from_q(anchor, h, 0.5, 1.0), rtol=1e-12, atol=0.0)


def test_taylor_overestimates_concave_g():
    # the linearized interference term overestimates the concave g, so every
    # surrogate component is a minorant of the true rate
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 4))
        h = _random_channels(rng, k, 3)
        anchor = np.array(list(random_feasible_set(rng, range(k), 3, 2.0).values()))
        point = np.array(list(random_feasible_set(rng, range(k), 3, 2.0).values()))
        core = SurrogateCore(h, anchor, 0.5, 1.0)
        surrogate = surrogate_components(core, point)
        rates = true_rates_from_q(point, h, 0.5, 1.0)
        assert np.all(surrogate <= rates + 1e-9 * np.abs(rates))


def test_taylor_scalar_hand_expansion():
    # one antenna, two users: terminal 0's g(q) = B log2(noise + |h0|^2 q_1)
    # expanded at the anchor's q_1
    h = np.array([[1.5 + 0.0j], [0.4 + 0.0j]])
    noise, bandwidth = 0.8, 2.0
    q_anchor = np.array([[[0.3 + 0j]], [[0.6 + 0j]]])
    q_new = np.array([[[0.1 + 0j]], [[0.9 + 0j]]])
    gain = abs(h[0, 0]) ** 2
    at_anchor = noise + gain * 0.6
    g_bar = (bandwidth * math.log2(at_anchor)
             + bandwidth * gain * (0.9 - 0.6) / (LOG2 * at_anchor))
    expected = bandwidth * math.log2(noise + gain * (0.1 + 0.9)) - g_bar
    core = SurrogateCore(h, q_anchor, noise, bandwidth)
    assert surrogate_components(core, q_new)[0] == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ DC algorithm

def test_dc_single_user_reaches_matched_filter():
    rng = np.random.default_rng(4)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    power, noise, bandwidth = 2.0, 0.7, 1.0
    beams, trace = dc_beamforming(h[None, :], power, noise, bandwidth)
    achieved = bandwidth * math.log2(1.0 + abs(np.vdot(h, beams[0])) ** 2 / noise)
    target = matched_filter_rate(bandwidth, power, h, noise)
    assert achieved >= target * (1 - 1e-3)
    assert trace.converged


def test_dc_orthogonal_users_reach_individual_optima():
    power, noise, bandwidth = 2.0, 0.5, 1.0
    h = np.array([[1.3, 0, 0, 0], [0, 0.8, 0, 0]], dtype=complex)
    beams, trace = dc_beamforming(h, power, noise, bandwidth)
    assert beams.shape == (2, 4)
    total = true_rates_from_q(_outers(beams), h, noise, bandwidth).sum()
    target = sum(matched_filter_rate(bandwidth, power, row, noise) for row in h)
    assert total == pytest.approx(target, rel=1e-3)


def test_dc_trace_monotone_and_terminates():
    rng = np.random.default_rng(5)
    h = {c: 3.7e-8 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
         for c in range(2)}
    power, noise, bandwidth = 10 ** 2.6, 1.99e-13, 50e6
    beams, trace = dc_beamforming(np.array([h[0], h[1]]), power, noise, bandwidth)
    assert trace.converged
    rates = [row[2] for row in trace.rows]
    for a, b in zip(rates, rates[1:]):
        assert b >= a - 1e-6 * abs(a)
    for w in beams:
        assert np.linalg.norm(w) ** 2 <= power + 1e-8


def test_dc_respects_max_outer(monkeypatch):
    rng = np.random.default_rng(6)
    h = {c: rng.standard_normal(4) + 1j * rng.standard_normal(4) for c in range(3)}
    monkeypatch.setattr(beamforming, "DC_DELTA_BPS", 0.0)
    monkeypatch.setattr(beamforming, "DC_MAX_OUTER", 4)
    _, trace = dc_beamforming(np.array([h[0], h[1], h[2]]), 2.0, 0.5, 1.0)
    assert trace.iterations == 4
    assert not trace.converged


def test_dc_with_mrt_init_dominates_mrt():
    rng = np.random.default_rng(8)
    for _ in range(5):
        k, n = 3, 4
        h = _random_channels(rng, k, n)
        power, noise, bandwidth = 2.0, 0.4, 1.0
        mrt, _ = MrtEngine(power).beams_for_satellite(h)
        mrt_total = satellite_rates(h, mrt, noise, bandwidth).sum()
        _, trace = dc_beamforming(h, power, noise, bandwidth)
        dc_total = trace.rows[-1][2]
        assert dc_total >= mrt_total * (1 - 1e-6)


# --------------------------------------------------------- rank-1 extraction

def test_rank1_diagonal():
    w = rank1_extract(np.diag([2.0, 0.0]))
    assert np.allclose(w, [math.sqrt(2.0), 0.0])


def test_rank1_recovers_rank1_input():
    rng = np.random.default_rng(9)
    u = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    q = np.outer(u, u.conj())
    w = rank1_extract(q)
    phase = np.vdot(w, u) / abs(np.vdot(w, u))
    assert np.allclose(w * phase, u, atol=1e-9)


def test_rank1_is_best_rank1_approximation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        q = random_psd(rng, 4, 3.0)
        w = rank1_extract(q)
        eigenvalues = np.linalg.eigvalsh(q)
        residual = np.linalg.norm(q - np.outer(w, w.conj())) ** 2
        assert residual == pytest.approx(float(np.sum(eigenvalues[:-1] ** 2)), rel=1e-9)
        assert np.linalg.norm(w) ** 2 <= np.trace(q).real + 1e-9


def test_rank1_rejects_indefinite():
    with pytest.raises(ValueError):
        rank1_extract(np.diag([1.0, -1.0]))


# ------------------------------------------------------------------ baselines

def test_mrt_reference_case():
    beams, trace = MrtEngine(power=4.0).beams_for_satellite(np.array([[1.0 + 0j, 0j]]))
    assert trace is None
    assert np.allclose(beams, [[2.0, 0.0]])


def test_mrt_power_normalization():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = mrt_weight(h, 3.7)
        assert np.linalg.norm(w) ** 2 == pytest.approx(3.7, rel=1e-12)
        assert abs(np.vdot(h, w)) == pytest.approx(np.linalg.norm(h) * np.linalg.norm(w),
                                                   rel=1e-12)


def test_mrt_rejects_zero_channel():
    with pytest.raises(ValueError):
        mrt_weight(np.zeros(3, dtype=complex), 1.0)


def test_zf_single_user_equals_mrt_direction():
    rng = np.random.default_rng(12)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    beams = zf_satellite(h[None, :], power=2.0)
    assert beams.shape == (1, 4)
    w = beams[0]
    assert np.linalg.norm(w) ** 2 == pytest.approx(2.0, rel=1e-9)
    assert abs(np.vdot(h, w)) == pytest.approx(np.linalg.norm(h) * np.linalg.norm(w),
                                               rel=1e-9)


def test_zf_orthonormal_rows():
    power = 2.0
    h = np.array([[1.0, 0, 0], [0, 1.0, 0]], dtype=complex)
    beams = zf_satellite(h, power)
    beta = math.sqrt(power)
    assert np.allclose(beams[0], beta * h[0])
    assert np.allclose(beams[1], beta * h[1])


def test_zf_nulls_cross_terms():
    rng = np.random.default_rng(13)
    h = _random_channels(rng, 3, 4)
    power = 1.8
    beams = zf_satellite(h, power)
    beta = abs(np.vdot(h[0], beams[0]))
    for c in range(3):
        assert abs(np.vdot(h[c], beams[c])) == pytest.approx(beta, rel=1e-9)
        for cp in range(3):
            if c != cp:
                assert abs(np.vdot(h[c], beams[cp])) / beta < 1e-9
    total = sum(np.linalg.norm(w) ** 2 for w in beams)
    assert total == pytest.approx(power * len(h), rel=1e-9)


def test_zf_error_kinds_are_distinct():
    h_over = np.array([[1.0 + 0j, 1j]] * 3)
    with pytest.raises(ZeroForcingError, match="3 terminals exceed 2 antennas"):
        zf_satellite(h_over, 1.0)
    h_rank = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(ZeroForcingError, match="channel rows are rank deficient"):
        zf_satellite(h_rank, 1.0)


def test_zf_beamforming_covers_assignment():
    # the selection layer keeps one engine beam per active link, in the
    # records of the serving satellites
    rng = np.random.default_rng(14)
    channels = {(s, c): rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for s in range(2) for c in range(3)}
    evaluator = StructureEvaluator(ZfEngine(power=1.0), channels, 1.0, 1.0, 2)
    results = evaluator.results({0: (0,), 1: (0, 1), 2: (1,)})
    assert {s: result.ue_ids for s, result in results.items()} == {0: (0, 1), 1: (1, 2)}
    for s, result in results.items():
        assert result.beams.shape == (2, 4)
        assert result.rates.shape == (2,)
        assert result.dc_trace is None
        h = np.array([channels[(s, c)] for c in result.ue_ids])
        assert np.array_equal(result.beams, zf_satellite(h, 1.0))
