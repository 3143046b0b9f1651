"""Each benchmark check passes on good input and fails on broken input.

    python3 -m pytest kvbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np
import pytest

from kvlatent import checkpoint, engine, interp, model, training
from kvlatent.engine import InjectionMode

import checks
import workloads

TINY = model.ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=263,
                         max_positions=64)
SCHED = training.ScheduleConfig(seq_len=24, n_sites=2, n_latents=3, n_ahead=4)


def tiny_system(mode, seed=0):
    return training.init_system(mode, TINY, SCHED.n_latents, seed=seed)


def tiny_batch(seed=0, n=2):
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, 256, size=(n, SCHED.seq_len + 1))
    return training.pretrain_items(windows, SCHED,
                                   np.random.default_rng([seed, 1]))


@pytest.mark.parametrize("mode", engine.TRAINING_MODES)
def test_greedy_ids_fail_on_a_flipped_token(mode):
    system = tiny_system(mode)
    q = np.arange(10, 30)
    ids = engine.generate_greedy(mode, system.base, system.coproc,
                                 system.bank, q, SCHED.n_latents, [5],
                                 max_new=8)
    logits = workloads.reference_logits(system, SCHED.n_latents, q, [5], ids)
    checks.check_greedy_ids(ids, logits, margin=0.0)
    flipped = list(ids)
    flipped[3] = (flipped[3] + 1) % TINY.vocab_size
    with pytest.raises(checks.CheckFailed):
        checks.check_greedy_ids(flipped, logits, margin=0.0)


@pytest.mark.parametrize("mode", engine.TRAINING_MODES)
def test_gradient_check_fails_on_a_reversed_gradient(mode):
    system = workloads.float64_system(tiny_system(mode))
    grads, direction, fd = workloads.directional_derivatives(
        system, tiny_batch(), seed=3)
    checks.check_directional_gradient(grads, direction, fd)
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_gradient([-g for g in grads], direction, fd)


def test_checkpoint_bytes_fail_on_one_altered_byte(tmp_path):
    system = tiny_system(InjectionMode.EMBEDDING_COFINETUNED)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_checkpoint(first, system, training.OptimizerState(), 1, 0)
    loaded = checkpoint.load_checkpoint(first)
    checkpoint.save_checkpoint(second, loaded.system, loaded.opt,
                               loaded.step, loaded.seed)
    a, b = first.read_bytes(), bytearray(second.read_bytes())
    checks.check_same_bytes(a, bytes(b), "round trip")
    b[len(b) // 2] ^= 0x01
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes(a, bytes(b), "round trip")


def test_packed_loss_matches_per_item_and_fails_when_shifted():
    system = tiny_system(InjectionMode.CACHE_CONCAT_FROZEN_BASE)
    batch = tiny_batch(n=3)
    packed = float(training.run_three_pass(system, batch)[0].values[0, 0])
    nll = [checks.nll_rows(workloads.per_item_logits(system, it), it.targets)
           for it in batch]
    checks.check_packed_loss(packed, nll)
    with pytest.raises(checks.CheckFailed):
        checks.check_packed_loss(packed * (1 + 1e-3), nll)


def dump_of(seed=0, n_slots=4, rows=12, d=6):
    rng = np.random.default_rng(seed)
    return interp.ActivationDump(
        [rng.normal(loc=i, size=(rows, d)) for i in range(n_slots)], d)


def test_silhouette_fails_on_a_perturbed_value():
    dump = dump_of()
    sil = interp.silhouette(dump)
    checks.check_silhouette(sil.global_score, sil.per_latent, dump.rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_silhouette(sil.global_score + 1e-6, sil.per_latent,
                                dump.rows)
    per = list(sil.per_latent)
    per[2] -= 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_silhouette(sil.global_score, per, dump.rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_silhouette(sil.global_score, sil.per_latent[:-1],
                                dump.rows)


def test_silhouette_numpy_handles_singleton_and_empty_slots():
    rows = [np.zeros((1, 3)), np.ones((3, 3)) + np.arange(3)[:, None],
            np.zeros((0, 3)), 5 + np.arange(6.0).reshape(2, 3)]
    dump = interp.ActivationDump(rows, 3)
    sil = interp.silhouette(dump)
    checks.check_silhouette(sil.global_score, sil.per_latent, dump.rows)


def test_capture_fails_below_tau_or_outside_unit_interval():
    cap = interp.cross_capture(dump_of(), tau=0.9)
    checks.check_capture(cap.h, cap.valid, 0.9)
    low = cap.h.copy()
    low[1, 1] = 0.85
    with pytest.raises(checks.CheckFailed):
        checks.check_capture(low, cap.valid, 0.9)
    high = cap.h.copy()
    high[0, 3] = 1.01
    with pytest.raises(checks.CheckFailed):
        checks.check_capture(high, cap.valid, 0.9)


def test_witness_fails_when_it_misses_the_target():
    checks.check_witness("(7 - 3) * 5 / 2", (2, 3, 5, 7), 10)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness("(7 - 3) * 5 / 2", (2, 3, 5, 7), 11)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness("7 * 5 / 2", (2, 3, 5, 7), 10)
    # exact, not integer, division
    with pytest.raises(checks.CheckFailed):
        checks.check_witness("7 / 2 * 2", (2, 2, 7), 6)


def test_frozen_base_and_pass_count_checks_fail_on_a_change():
    w = np.ones((2, 2), dtype=np.float32)
    before = checks.tensor_digests([("w", w)])
    checks.check_bit_identical(before, checks.tensor_digests([("w", w.copy())]),
                               "base")
    w[0, 0] = np.nextafter(np.float32(1), np.float32(2))
    with pytest.raises(checks.CheckFailed):
        checks.check_bit_identical(before, checks.tensor_digests([("w", w)]),
                                   "base")
    checks.check_pass_count(6, 2, dual=True)
    checks.check_pass_count(4, 2, dual=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_pass_count(6, 2, dual=False)


def test_round_outputs_fail_on_any_difference():
    ref = {"a.train.1": 5.5, "a.gen.0": [1, 2, 3]}
    checks.check_same_outputs(ref, dict(ref), "round")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_outputs(ref, {**ref, "a.gen.0": [1, 2, 4]}, "round")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_outputs(ref, {**ref, "a.train.1": 5.5000001},
                                  "round")


def test_first_token_check():
    checks.check_first_token([7], [7, 8, 9])
    with pytest.raises(checks.CheckFailed):
        checks.check_first_token([8], [7, 8, 9])
