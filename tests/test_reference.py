"""The schedule against an independent float64 reference (tests/reference.py):
batch losses, the per-pass wrappers' logits and greedy generation, in all
four modes. The reference shares no pass, mask or model code with the
package, so a bug in rotary positions, latent injection or cache order
that every package path shares still shows here; the last tests plant two
such bugs and check that it does."""

import numpy as np
import pytest

import kvlatent.tensor as T
from kvlatent import engine
from kvlatent.engine import (TRAINING_MODES, InjectionMode, SoftTokenBank,
                             base_prefix_pass, coprocessor_pass, decode_pass,
                             generate_greedy, soft_embedding_pass)
from kvlatent.masks import AugmentationPlan
from kvlatent.model import ModelConfig
from kvlatent.training import (LatentSystem, ScheduleConfig,
                               build_finetune_item, init_system,
                               pretrain_items, run_three_pass)

import reference as ref

CFG = ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=13,
                  max_positions=96)
SCHED = ScheduleConfig(seq_len=12, n_sites=2, n_latents=3, n_ahead=2)
TOL = 1e-9


def f64_system(mode, seed, n_latents=SCHED.n_latents):
    s = init_system(mode, CFG, n_latents, seed=seed)
    coproc = s.coproc.to_float64() if s.coproc is not None else None
    bank = SoftTokenBank(T.tensor(s.bank.embeddings.values,
                                  requires_grad=True, dtype=np.float64))
    return LatentSystem(mode, s.base.to_float64(), coproc, bank)


def ref_args(system):
    coproc = ref.weights(system.coproc) if system.coproc is not None else None
    return (system.mode.value, ref.weights(system.base), coproc,
            system.bank.embeddings.values)


def pretrain_batch(n, seed):
    windows = np.random.default_rng(seed).integers(0, 13,
                                                   (n, SCHED.seq_len + 1))
    return pretrain_items(windows, SCHED, np.random.default_rng(seed + 1))


def mixed_batch(seed):
    """Finetune items with different prefixes, spans and latent counts."""
    rng = np.random.default_rng(seed)
    return [build_finetune_item(rng.integers(0, 13, q), rng.integers(0, 13, a),
                                n, eos_id=12)
            for q, a, n in ((5, 3, 3), (8, 2, 0), (3, 4, 2), (6, 1, 1))]


BATCHES = {"B1": lambda: pretrain_batch(1, 20),
           "B8": lambda: pretrain_batch(8, 21),
           "mixed": lambda: mixed_batch(22)}


def loss_gap(system, items) -> float:
    loss, _ = run_three_pass(system, items)
    return abs(float(loss.values[0, 0])
               - ref.mean_nll(*ref_args(system), items))


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_run_three_pass_matches_reference(mode, batch):
    assert loss_gap(f64_system(mode, 30), BATCHES[batch]()) < TOL


@pytest.mark.parametrize("n_latents", [3, 0])
@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_pass_wrappers_match_reference(mode, n_latents):
    system = f64_system(mode, 31, n_latents)
    ids = np.random.default_rng(32).integers(0, 13, 16)
    plan = AugmentationPlan(seq_len=16, sites=(4, 9), n_latents=n_latents,
                            n_ahead=3, cached_len=12)
    ahead = [ids[t: t + plan.n_ahead] for t in plan.sites]
    prefix = ids[:plan.cached_len]
    if mode is InjectionMode.SOFT_EMBEDDING_UNIFIED:
        site_logits = soft_embedding_pass(system.base, system.bank, prefix,
                                          plan, ahead)
    else:
        cache = base_prefix_pass(system.base, prefix)
        blocks = coprocessor_pass(system.coproc, cache, system.bank, plan)
        site_logits = decode_pass(system.base, cache, blocks, plan, ahead,
                                  mode)
    want = ref.ahead_logits(*ref_args(system), plan, prefix,
                            np.concatenate(ahead))
    got = np.concatenate([x.values for x in site_logits])
    assert np.abs(got - want).max() < TOL


@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_generate_greedy_matches_full_recompute(mode):
    """Each generated id is the argmax of a full, non-incremental decode of
    the question, latents, forced ids and the ids before it. At a near tie
    (top-2 gap below TOL) any id within TOL of the top passes."""
    system = f64_system(mode, 33)
    rng = np.random.default_rng(34)
    args = ref_args(system)
    checked = near = 0
    for q_len in (4, 7, 10):
        q = rng.integers(0, 13, q_len)
        forced = [int(rng.integers(0, 13))]
        ids = generate_greedy(mode, system.base, system.coproc, system.bank,
                              q, SCHED.n_latents, forced, max_new=6)
        assert len(ids) == 6
        for i, tok in enumerate(ids):
            row = ref.generation_logits(*args, q, SCHED.n_latents,
                                        forced + ids[:i])
            second, top = np.sort(row)[-2:]
            if top - second < TOL:
                near += 1
                assert row[tok] >= top - TOL
            else:
                checked += 1
                assert tok == int(np.argmax(row)), (q_len, i)
    assert checked > near


# ---------------------------------------------------------------------------
# the reference has teeth: planted bugs that every package path shares


@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_reference_catches_shifted_decode_positions(mode, monkeypatch):
    system = f64_system(mode, 35)
    items = pretrain_batch(2, 36)
    shifted = AugmentationPlan.decode_positions
    monkeypatch.setattr(AugmentationPlan, "decode_positions",
                        lambda plan: shifted(plan) + 1)
    assert loss_gap(system, items) > TOL


@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_reference_catches_reversed_soft_tokens(mode, monkeypatch):
    system = f64_system(mode, 37)
    items = pretrain_batch(2, 38)
    rows = engine._bank_rows
    monkeypatch.setattr(engine, "_bank_rows", lambda bank, n: T.TensorNode(
        rows(bank, n).values[::-1].copy()))
    assert loss_gap(system, items) > TOL
