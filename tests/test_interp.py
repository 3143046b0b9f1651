"""Diagnostics correctness: the PCA projector against a direct SVD oracle,
cross-capture on constructed geometries (orthogonal, duplicated, separated
but redundant), the exact silhouette against hand-computed values and an
independent implementation, and dump/report round-trips."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvlatent.engine import InjectionMode
from kvlatent.errors import ContractError, DataFormatError
from kvlatent.interp import (ActivationDump, CaptureMatrix,
                             collect_activations, cross_capture, emit_report,
                             load_dump, mean_offdiag, pca_projector,
                             read_capture_csv, save_dump, silhouette)
from kvlatent.model import ModelConfig
from kvlatent.training import ScheduleConfig, init_system, pretrain_items


# ---------------------------------------------------------------------------
# PCA projector


def svd_oracle(x, tau):
    """Reference: full SVD of the centered rows, smallest rank whose
    cumulative squared singular values reach tau."""
    xc = x - x.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(xc, full_matrices=False)
    frac = np.cumsum(s * s) / np.sum(s * s)
    r = int(np.argmax(frac >= tau - 1e-12)) + 1
    basis = vt[:r]
    return basis.T @ basis, r


@pytest.mark.parametrize("seed,n,d,tau", [(0, 12, 5, 0.9), (1, 30, 8, 0.97),
                                          (2, 6, 3, 0.5), (3, 50, 4, 1.0)])
def test_pca_projector_matches_svd_oracle(seed, n, d, tau):
    x = np.random.default_rng(seed).normal(size=(n, d))
    p, r = pca_projector(x, tau)
    p_ref, r_ref = svd_oracle(x, tau)
    assert r == r_ref
    np.testing.assert_allclose(p, p_ref, atol=1e-10)
    # projector algebra: symmetric idempotent of trace r
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    assert abs(np.trace(p) - r) < 1e-8


def test_pca_projector_rank_is_minimal():
    x = np.random.default_rng(4).normal(size=(40, 6))
    xc = x - x.mean(axis=0)
    s = np.linalg.svd(xc, compute_uv=False)
    frac = np.cumsum(s * s) / np.sum(s * s)
    for tau in (0.3, 0.6, 0.9, 0.99):
        _, r = pca_projector(x, tau)
        assert frac[r - 1] >= tau - 1e-9
        if r > 1:
            assert frac[r - 2] < tau + 1e-12


def test_pca_projector_exact_low_rank_data():
    # rows on a 2-D affine plane in 6-D: tau=1 must give exactly rank 2
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
    coef = rng.normal(size=(25, 2))
    x = coef @ basis + 3.0
    p, r = pca_projector(x, 1.0)
    assert r == 2
    xc = x - x.mean(axis=0)
    np.testing.assert_allclose(xc @ p, xc, atol=1e-10)


def test_pca_projector_degenerate_inputs():
    p, r = pca_projector(np.ones((1, 4)), 0.9)
    assert r == 0 and not p.any()
    p, r = pca_projector(np.full((5, 4), 2.5), 0.9)   # zero variance
    assert r == 0 and not p.any()
    with pytest.raises(ContractError):
        pca_projector(np.zeros((3, 4)), 0.0)
    with pytest.raises(ContractError):
        pca_projector(np.zeros((3, 4)), 1.1)
    with pytest.raises(ContractError):
        pca_projector(np.zeros(4), 0.9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.3, 0.99))
def test_capture_diagonal_meets_threshold(seed, tau):
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=(8, 5)) for _ in range(3)]
    cap = cross_capture(ActivationDump(rows, 5), tau)
    for i in range(3):
        assert cap.h[i, i] >= tau - 1e-9
        assert cap.h[i, i] <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# cross-capture geometries


def line_cluster(direction, center, n, spread, rng):
    t = rng.normal(scale=spread, size=(n, 1))
    return t * direction[None, :] + center[None, :]


def test_orthogonal_slots_have_low_cross_capture():
    # slot i varies only along axis i: subspaces are exactly orthogonal
    rng = np.random.default_rng(6)
    d = 8
    rows = []
    for i in range(4):
        e = np.zeros(d)
        e[i] = 1.0
        rows.append(line_cluster(e, np.zeros(d), 20, 1.0, rng))
    cap = cross_capture(ActivationDump(rows, d), tau=0.97)
    off = mean_offdiag(cap)
    assert off < 0.05
    assert all(cap.h[i, i] > 0.97 for i in range(4))


def test_duplicated_slots_have_high_cross_capture():
    rng = np.random.default_rng(7)
    shared = rng.normal(size=(20, 8))
    rows = [shared.copy() for _ in range(4)]
    cap = cross_capture(ActivationDump(rows, 8), tau=0.97)
    assert mean_offdiag(cap) > 0.97


def test_separated_but_redundant_slots():
    # all slots share one direction; centers sit far apart along it
    rng = np.random.default_rng(8)
    d = 8
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    rows = [line_cluster(v, (100.0 * i) * v, 30, 0.5, rng)
            for i in range(4)]
    dump = ActivationDump(rows, d)
    sil = silhouette(dump)
    cap = cross_capture(dump, tau=0.97)
    assert sil.global_score > 0.4
    assert mean_offdiag(cap) > 0.9


def test_degenerate_slot_is_flagged_not_fatal():
    rng = np.random.default_rng(9)
    rows = [rng.normal(size=(10, 4)), np.full((10, 4), 3.0),
            rng.normal(size=(10, 4))]
    cap = cross_capture(ActivationDump(rows, 4), tau=0.9)
    assert list(cap.valid) == [True, False, True]
    assert np.isnan(cap.h[1]).all() and np.isnan(cap.h[:, 1]).all()
    assert np.isfinite(mean_offdiag(cap))
    only_bad = cross_capture(ActivationDump([np.full((5, 4), 1.0),
                                             np.full((5, 4), 2.0)], 4), 0.9)
    with pytest.raises(ContractError):
        mean_offdiag(only_bad)


def test_uncentered_capture_penalizes_offset_means():
    # rows vary along e0 but sit at a large e1 offset: the centered measure
    # ignores the offset, the raw measure counts it against the subspace
    rng = np.random.default_rng(10)
    d = 4
    e0 = np.zeros(d)
    e0[0] = 1.0
    center = np.zeros(d)
    center[1] = 10.0
    rows = [line_cluster(e0, center, 25, 1.0, rng) for _ in range(2)]
    dump = ActivationDump(rows, d)
    centered = mean_offdiag(cross_capture(dump, 0.97, center=True))
    raw = mean_offdiag(cross_capture(dump, 0.97, center=False))
    assert centered > 0.99
    assert raw < 0.5


# ---------------------------------------------------------------------------
# silhouette


def test_silhouette_four_point_reference():
    # 1-D clusters {0, 1} and {5, 6}: global score is exactly 79/99
    dump = ActivationDump([np.array([[0.0], [1.0]], dtype=np.float32),
                           np.array([[5.0], [6.0]], dtype=np.float32)], 1)
    rep = silhouette(dump)
    assert abs(rep.global_score - 79.0 / 99.0) < 1e-7
    assert abs(rep.per_latent[0] - (9 / 11 + 7 / 9) / 2) < 1e-7
    assert rep.counts == [2, 2]


def test_silhouette_singleton_scores_zero():
    dump = ActivationDump([np.array([[0.0], [1.0]]),
                           np.array([[5.0], [6.0]]),
                           np.array([[10.0]])], 1)
    rep = silhouette(dump)
    assert rep.per_latent[2] == 0.0
    # global average includes the zero
    four = silhouette(ActivationDump([np.array([[0.0], [1.0]]),
                                      np.array([[5.0], [6.0]])], 1))
    assert rep.global_score < four.global_score


def silhouette_oracle(groups):
    """Independent per-point silhouette over a list of (n_i, d) arrays."""
    pts = [(x.astype(np.float64), i) for i, g in enumerate(groups) for x in g]
    scores = []
    for x, i in pts:
        own = [y for y, j in pts if j == i]
        if len(own) == 1:
            scores.append(0.0)
            continue
        # the point's own zero distance is in the sum; dividing by n-1
        # excludes it from the mean
        a = sum(np.linalg.norm(x - y) for y in own) / (len(own) - 1)
        b = min(np.mean([np.linalg.norm(x - y)
                         for y, j in pts if j == c])
                for c in {j for _, j in pts} if c != i)
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_silhouette_matches_independent_implementation(seed):
    rng = np.random.default_rng(seed)
    # the dump stores float32, so the oracle must see the same quantization
    groups = [rng.normal(loc=3.0 * i, size=(rng.integers(2, 6), 3))
              .astype(np.float32) for i in range(3)]
    rep = silhouette(ActivationDump([g.copy() for g in groups], 3))
    assert abs(rep.global_score - silhouette_oracle(groups)) < 1e-9


def test_silhouette_empty_slot_is_nan_and_skipped():
    dump = ActivationDump([np.array([[0.0], [1.0]]),
                           np.zeros((0, 1)),
                           np.array([[5.0], [6.0]])], 1)
    rep = silhouette(dump)
    assert np.isnan(rep.per_latent[1])
    assert abs(rep.global_score - 79.0 / 99.0) < 1e-7


def test_silhouette_contract_errors():
    with pytest.raises(ContractError):
        silhouette(ActivationDump([np.array([[1.0], [2.0]])], 1))
    with pytest.raises(ContractError):
        silhouette(ActivationDump([np.array([[1.0]]),
                                   np.array([[2.0]])], 1))


def test_silhouette_bounds():
    rng = np.random.default_rng(11)
    rows = [rng.normal(size=(6, 4)) for _ in range(3)]
    rep = silhouette(ActivationDump(rows, 4))
    assert -1.0 <= rep.global_score <= 1.0
    for v in rep.per_latent:
        assert -1.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# dumps and reports


def test_dump_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    rows = [rng.normal(size=(4, 3)).astype(np.float32),
            np.zeros((0, 3), dtype=np.float32),
            rng.normal(size=(7, 3)).astype(np.float32)]
    dump = ActivationDump([r.copy() for r in rows], 3, source="mödé α")
    path = tmp_path / "d.bin"
    save_dump(path, dump)
    back = load_dump(path)
    assert back.source == "mödé α"
    assert back.n_latents == 3
    for a, b in zip(rows, back.rows):
        np.testing.assert_array_equal(a, b)


def test_dump_rejects_bad_files(tmp_path):
    bad = tmp_path / "x.bin"
    bad.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(DataFormatError):
        load_dump(bad)
    good = tmp_path / "g.bin"
    save_dump(good, ActivationDump([np.ones((2, 2), dtype=np.float32)], 2))
    data = good.read_bytes()
    (tmp_path / "t.bin").write_bytes(data[:-4])
    with pytest.raises(DataFormatError, match="truncated"):
        load_dump(tmp_path / "t.bin")


def test_dump_shape_validation():
    with pytest.raises(ContractError):
        ActivationDump([np.zeros((3, 4))], 5)
    with pytest.raises(ContractError):
        ActivationDump([np.zeros(4)], 4)


def test_emit_report_and_capture_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    rows = [rng.normal(size=(8, 4)), np.full((8, 4), 1.0),
            rng.normal(size=(8, 4))]
    dump = ActivationDump(rows, 4)
    cap = cross_capture(dump, 0.9)
    sil = silhouette(dump)
    paths = emit_report(cap, sil, tmp_path / "report")
    h = read_capture_csv(paths["capture"])
    mask = np.isfinite(cap.h)
    np.testing.assert_array_equal(np.isfinite(h), mask)
    np.testing.assert_allclose(h[mask], cap.h[mask], atol=1e-6)
    summary = open(paths["summary"]).read()
    assert "tau=0.9000" in summary
    assert "global_silhouette=" in summary
    sil_lines = open(paths["silhouette"]).read().strip().split("\n")
    assert sil_lines[0] == "latent,count,silhouette"
    assert len(sil_lines) == 4


def test_read_capture_csv_rejects_ragged(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("latent,1,2\n1,0.5,0.5\n2,0.5\n")
    with pytest.raises(DataFormatError):
        read_capture_csv(path)


# ---------------------------------------------------------------------------
# activation collection


def test_collect_activations_pools_by_slot():
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=13,
                      max_positions=64)
    sched = ScheduleConfig(seq_len=12, n_sites=2, n_latents=3, n_ahead=2)
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, cfg, 3, seed=14)
    rng = np.random.default_rng(15)
    windows = rng.integers(0, 13, (4, sched.seq_len + 1))
    items = pretrain_items(windows, sched, np.random.default_rng(16))
    dump = collect_activations(system, items)
    assert dump.n_latents == 3
    for k in range(3):
        assert dump.rows[k].shape == (4 * sched.n_sites, 16)

    from kvlatent.engine import base_prefix_pass, coprocessor_pass
    cache = base_prefix_pass(system.base, items[0].prefix_ids)
    blocks = coprocessor_pass(system.coproc, cache, system.bank,
                              items[0].plan)
    for s, blk in enumerate(blocks):
        for k in range(3):
            np.testing.assert_array_equal(
                dump.rows[k][s], blk.z.values[k].astype(np.float32))


def test_collect_activations_respects_cap():
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=13,
                      max_positions=64)
    sched = ScheduleConfig(seq_len=10, n_sites=2, n_latents=2, n_ahead=2)
    system = init_system(InjectionMode.CACHE_CONCAT_FROZEN_BASE, cfg, 2,
                         seed=17)
    rng = np.random.default_rng(18)
    windows = rng.integers(0, 13, (9, sched.seq_len + 1))
    items = pretrain_items(windows, sched, np.random.default_rng(19))
    dump = collect_activations(system, items, cap_per_latent=5)
    for k in range(2):
        assert dump.rows[k].shape[0] == 5


def test_collect_activations_requires_coprocessor():
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=13,
                      max_positions=64)
    system = init_system(InjectionMode.SOFT_EMBEDDING_UNIFIED, cfg, 2,
                         seed=20)
    with pytest.raises(ContractError):
        collect_activations(system, [])


def test_import_leaves_scipy_unloaded():
    # scipy.special and scipy.spatial load on first use, not with the package
    import kvlatent
    src = os.path.dirname(os.path.dirname(kvlatent.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, kvlatent, kvlatent.interp; "
            "print(sorted(m for m in ('scipy.special', 'scipy.spatial.distance')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
