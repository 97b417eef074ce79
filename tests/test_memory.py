"""Dual-buffer memory: admission gates, promotion, anchor scoring, negatives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damtrack.config import PipelineConfig
from damtrack.geometry import Box, area, iou
from damtrack.memory import (DistractorAwareMemory, DrmEntry, NegativeBank,
                             RamEntry, penalized_score, score_anchor)


def unit_vec(rng, n: int = 16) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def vec_at_cosine(base: np.ndarray, c: float, rng) -> np.ndarray:
    """A unit vector with exact cosine c to the unit vector base."""
    aux = rng.normal(size=base.shape)
    aux -= np.dot(aux, base) * base
    aux /= np.linalg.norm(aux)
    return c * base + math.sqrt(max(1.0 - c * c, 0.0)) * aux


def random_box(rng, lim: float = 80.0) -> Box:
    return Box(float(rng.uniform(0, lim)), float(rng.uniform(0, lim)),
               float(rng.uniform(4, 30)), float(rng.uniform(4, 30)))


# --- admission ----------------------------------------------------------------


def test_admission_requires_both_gates(rng):
    dam = DistractorAwareMemory(PipelineConfig(tau_in=0.5, tau_a=0.2))
    base = Box(10, 10, 20, 20)
    desc = unit_vec(rng)
    # empty RAM: the area reference is the candidate itself, IoU decides
    assert dam.ram_admit(base, desc, base, 0)
    # good overlap, same size
    assert dam.ram_admit(Box(11, 10, 20, 20), desc, base, 1)
    # overlap too low
    assert not dam.ram_admit(Box(28, 28, 20, 20), desc, base, 2)
    # overlap fine, area way off the median
    assert not dam.ram_admit(Box(10, 10, 20, 30), desc, base, 3)
    assert [e.timestamp for e in dam.ram] == [0, 1]


def test_admission_matches_reevaluation(rng):
    cfg = PipelineConfig(tau_in=0.5, tau_a=0.2)
    dam = DistractorAwareMemory(cfg)
    prev = Box(20, 20, 20, 20)
    for t in range(60):
        cand = Box(float(rng.uniform(10, 30)), float(rng.uniform(10, 30)),
                   float(rng.uniform(12, 30)), float(rng.uniform(12, 30)))
        areas_before = [area(e.box) for e in dam.ram]
        admitted = dam.ram_admit(cand, unit_vec(rng), prev, t)
        # independent re-evaluation of both clauses
        ref = float(np.median(areas_before)) if areas_before else area(cand)
        dev = abs(area(cand) - ref) / (ref + cfg.epsilon)
        want = iou(cand, prev) >= cfg.tau_in and dev <= cfg.tau_a
        assert admitted == want
        # exactly the admitted candidates reach RAM
        assert (bool(dam.ram) and dam.ram[-1].timestamp == t) == want


def test_ram_fifo_eviction(rng):
    dam = DistractorAwareMemory(
        PipelineConfig(ram_capacity=3, tau_in=0.0, tau_a=1.0))
    b = Box(0, 0, 10, 10)
    for t in range(5):
        assert dam.ram_admit(b, unit_vec(rng), b, t)
    assert [e.timestamp for e in dam.ram] == [2, 3, 4]


def test_median_area(rng):
    dam = DistractorAwareMemory(PipelineConfig(tau_in=0.0, tau_a=1.0))
    assert dam.median_area() is None
    sizes = [(10, 10), (10, 20), (10, 30), (10, 16)]
    for t, (w, h) in enumerate(sizes):
        dam.ram_admit(Box(0, 0, w, h), unit_vec(rng), Box(0, 0, w, h), t)
    assert dam.median_area() == float(np.median([100, 200, 300, 160]))


# --- promotion ----------------------------------------------------------------


def promote_ready_dam(rng, cosines: list[float],
                      cfg: PipelineConfig | None = None
                      ) -> DistractorAwareMemory:
    """RAM whose newest entry has the given cosines to the older window."""
    cfg = cfg or PipelineConfig(tau_in=0.0, tau_a=1.0)
    dam = DistractorAwareMemory(cfg)
    newest = unit_vec(rng, 16)
    b = Box(0, 0, 10, 10)
    for t, c in enumerate(cosines):
        dam.ram.append(RamEntry(b, vec_at_cosine(newest, c, rng), t))
    dam.ram.append(RamEntry(b, newest, len(cosines)))
    return dam


def test_promotion_window_counting(rng):
    # window_w=5, m_min=3: newest counts itself, needs 2 more at >= tau_sim
    dam = promote_ready_dam(rng, [0.9, 0.2, 0.9, 0.2])
    assert dam.try_promote(4)
    assert len(dam.drm) == 1
    assert dam.drm[-1].promoted_at == 4
    assert dam.drm[-1].descriptor is dam.ram[-1].descriptor
    dam2 = promote_ready_dam(rng, [0.9, 0.2, 0.2, 0.2])  # only 2 agree
    assert not dam2.try_promote(4)
    assert len(dam2.drm) == 0
    # agreement outside the last window_w entries must not count
    dam3 = promote_ready_dam(rng, [0.95, 0.95, 0.2, 0.2, 0.2])
    assert not dam3.try_promote(5)
    assert len(dam3.drm) == 0


def test_promotion_dedup_near_identical_anchor(rng):
    dam = promote_ready_dam(rng, [0.95, 0.95])
    assert dam.try_promote(2)
    newest = dam.ram[-1]
    dam.ram.append(RamEntry(newest.box, newest.descriptor.copy(), 3))
    # the window agrees, so only the near-duplicate guard can refuse
    assert not dam.try_promote(3)
    assert len(dam.drm) == 1 and dam.drm[-1].promoted_at == 2


def test_promotion_preconditions(rng):
    dam = DistractorAwareMemory()
    with pytest.raises(ValueError):
        dam.try_promote(0)  # empty RAM
    dam.ram.append(RamEntry(Box(0, 0, 5, 5), unit_vec(rng), 3))
    with pytest.raises(ValueError):
        dam.try_promote(7)  # newest not from this frame


def test_drm_fifo_eviction(rng):
    cfg = PipelineConfig(tau_in=0.0, tau_a=1.0, drm_capacity=2, window_w=1,
                         m_min=1)
    dam = DistractorAwareMemory(cfg)
    b = Box(0, 0, 10, 10)
    for t in range(3):
        dam.ram_admit(b, unit_vec(rng), b, t)  # fresh random: never a duplicate
        assert dam.try_promote(t)
    assert [e.promoted_at for e in dam.drm] == [1, 2]


# --- anchor scoring -----------------------------------------------------------


def test_score_anchor_hand_value(rng):
    cfg = PipelineConfig()
    b = Box(0, 0, 10, 10)
    phi = unit_vec(rng)
    entry = DrmEntry(Box(0, 0, 10, 10), phi.copy(), promoted_at=6)
    s = score_anchor(entry, b, phi, pi_t=0.5, t=10, cfg=cfg)
    want = 0.4 * 1.0 + 0.3 * 1.0 + 0.2 * 0.5 + 0.1 * math.exp(-0.05 * 4)
    assert s == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        score_anchor(entry, b, phi, 0.5, t=5, cfg=cfg)  # t precedes promotion


def test_penalized_score(rng):
    cfg = PipelineConfig(gamma=0.25)
    bank = NegativeBank(4)
    psi = unit_vec(rng)
    assert penalized_score(0.8, psi, bank, cfg) == 0.8  # empty bank
    bank.add(vec_at_cosine(psi, 0.6, rng))
    bank.add(vec_at_cosine(psi, 0.9, rng))
    assert penalized_score(0.8, psi, bank, cfg) == pytest.approx(0.8 - 0.25 * 0.9)


def brute_force_best(dam: DistractorAwareMemory, b_ref: Box,
                     phi_ref: np.ndarray, pi, t: int):
    """Independent recomputation of the anchor selection rule."""
    cfg = dam.cfg
    best_entry, best_s = None, -np.inf
    for entry in dam.drm:
        s = (cfg.lambda_iou * iou(entry.box, b_ref)
             + cfg.lambda_app * float(np.dot(entry.descriptor, phi_ref)
                                      / (np.linalg.norm(entry.descriptor)
                                         * np.linalg.norm(phi_ref)))
             + cfg.lambda_mot * pi(entry.box)
             + cfg.lambda_time * math.exp(-cfg.alpha * (t - entry.promoted_at)))
        if len(dam.bank):
            # the bank penalty floors at zero: anticorrelated negatives
            # never raise a score
            s -= cfg.gamma * max(0.0, max(
                float(np.dot(entry.descriptor, n)
                      / (np.linalg.norm(entry.descriptor) * np.linalg.norm(n)))
                for n in dam.bank))
        if s >= best_s:  # newest wins ties, same as the implementation
            best_entry, best_s = entry, s
    if best_entry is None or best_s < cfg.tau_acc:
        return None
    return best_entry, best_s


def build_random_dam(rng) -> DistractorAwareMemory:
    dam = DistractorAwareMemory(PipelineConfig(
        alpha=float(rng.uniform(0.01, 0.2)),
        gamma=float(rng.uniform(0.0, 0.5)),
        tau_acc=float(rng.uniform(0.0, 0.8)),
    ))
    for k in range(int(rng.integers(0, 8))):
        dam.drm.append(DrmEntry(random_box(rng), unit_vec(rng),
                                int(rng.integers(0, 50))))
    for _ in range(int(rng.integers(0, 5))):
        dam.bank.add(unit_vec(rng))
    return dam


def test_best_anchor_matches_brute_force(rng):
    for _ in range(200):
        dam = build_random_dam(rng)
        b_ref = random_box(rng)
        phi_ref = unit_vec(rng)
        t = 60
        pred = (b_ref.cx + 3.0, b_ref.cy - 2.0)
        pi = lambda box: math.exp(-math.hypot(box.cx - pred[0],
                                              box.cy - pred[1]) / b_ref.diagonal)
        got = dam.best_anchor(b_ref, phi_ref, pi, t)
        want = brute_force_best(dam, b_ref, phi_ref, pi, t)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] is want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_best_anchor_tie_keeps_newest(rng):
    dam = DistractorAwareMemory(PipelineConfig(tau_acc=0.0))
    desc = unit_vec(rng)
    b = Box(0, 0, 10, 10)
    first = DrmEntry(b, desc, 5)
    second = DrmEntry(b, desc.copy(), 5)  # identical score
    dam.drm.extend([first, second])
    hit = dam.best_anchor(b, desc, pi=lambda _box: 0.5, t=9)
    assert hit is not None and hit[0] is second


def test_best_anchor_empty_and_below_floor(rng):
    dam = DistractorAwareMemory(PipelineConfig(tau_acc=0.99))
    no_prior = lambda _box: 0.0
    assert dam.best_anchor(Box(0, 0, 5, 5), unit_vec(rng), no_prior, 0) is None
    dam.drm.append(DrmEntry(Box(50, 50, 5, 5), unit_vec(rng), 0))
    assert dam.best_anchor(Box(0, 0, 5, 5), unit_vec(rng), no_prior, 10) is None


# --- negative bank ------------------------------------------------------------


def test_negative_bank_fifo_and_max_cosine(rng):
    bank = NegativeBank(2)
    probe = unit_vec(rng)
    assert bank.max_cosine(probe) == 0.0
    first = vec_at_cosine(probe, 0.95, rng)
    bank.add(first)
    bank.add(vec_at_cosine(probe, 0.4, rng))
    assert bank.max_cosine(probe) == pytest.approx(0.95)
    bank.add(vec_at_cosine(probe, 0.1, rng))  # evicts the 0.95 entry
    assert len(bank) == 2
    assert bank.max_cosine(probe) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        NegativeBank(0)


def test_negative_cosine_floor_at_zero(rng):
    bank = NegativeBank(4)
    probe = unit_vec(rng)
    bank.add(vec_at_cosine(probe, -0.9, rng))
    assert bank.max_cosine(probe) == 0.0  # anticorrelated negatives are free


# --- capacities ---------------------------------------------------------------


_OPS = st.lists(st.tuples(st.sampled_from(["admit", "promote", "negative"]),
                          st.integers(10, 13), st.integers(0, 2**32 - 1)),
                max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 3), _OPS)
def test_buffers_never_exceed_capacities(ram_cap, drm_cap, neg_cap, m_min, ops):
    cfg = PipelineConfig(ram_capacity=ram_cap, drm_capacity=drm_cap,
                    neg_capacity=neg_cap, tau_sim=0.5, m_min=m_min)
    dam = DistractorAwareMemory(cfg)
    for t, (op, side, seed) in enumerate(ops):
        # non-negative descriptors agree at cosine about 0.75, so promotions
        # pass the 0.5 window gate and rarely hit the 0.98 duplicate gate
        desc = np.random.default_rng(seed).uniform(size=16)
        desc /= np.linalg.norm(desc)
        if op == "admit":
            box = Box(0.0, 0.0, float(side), float(side))
            dam.ram_admit(box, desc, box, t)
        elif op == "promote" and dam.ram:
            dam.try_promote(dam.ram[-1].timestamp)
        elif op == "negative":
            dam.add_negative(desc)
        assert len(dam.ram) <= ram_cap
        assert len(dam.drm) <= drm_cap
        assert len(dam.bank) <= neg_cap
