"""Training-loop correctness: the packed batch path must equal per-sequence
computation, the optimizer must match a standalone AdamW oracle, site
sampling must be uniform over the feasible set, and frozen modes must leave
the base bit-identical."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kvlatent.tensor as T
from kvlatent.engine import (TRAINING_MODES, InjectionMode, PassCounter,
                             _run_schedule, base_prefix_pass,
                             coprocessor_pass, decode_pass,
                             soft_embedding_pass)
from kvlatent.errors import ContractError, NumericError
from kvlatent.masks import AugmentationPlan
from kvlatent.model import ModelConfig
from kvlatent.training import (CurriculumConfig, MetricsWriter,
                               OptimizerState, ScheduleConfig, SequenceItem,
                               adamw_step, build_finetune_item,
                               curriculum_finetune, evaluate_perplexity,
                               flat_finetune, init_system, lr_at, pretrain,
                               pretrain_items, run_three_pass,
                               select_augmentation_sites, train_step)
from kvlatent.tasks.tokenizer import ByteTokenizer

CFG = ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=13,
                  max_positions=96)
SCHED = ScheduleConfig(seq_len=12, n_sites=2, n_latents=2, n_ahead=2)


def make_items(n, seed=0, sched=SCHED):
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, 13, (n, sched.seq_len + 1))
    return pretrain_items(windows, sched, np.random.default_rng(seed + 1))


# ---------------------------------------------------------------------------
# schedule config and items


def test_schedule_config_feasibility():
    with pytest.raises(ContractError):
        ScheduleConfig(seq_len=8, n_sites=4, n_latents=1, n_ahead=2)
    with pytest.raises(ContractError):
        ScheduleConfig(seq_len=8, n_sites=1, n_latents=1, n_ahead=0)
    ScheduleConfig(seq_len=9, n_sites=4, n_latents=0, n_ahead=2)


def test_pretrain_items_layout():
    rng = np.random.default_rng(5)
    windows = rng.integers(0, 13, (3, SCHED.seq_len + 1))
    items = pretrain_items(windows, SCHED, np.random.default_rng(6))
    assert len(items) == 3
    for item, w in zip(items, windows):
        np.testing.assert_array_equal(item.prefix_ids, w[: SCHED.seq_len])
        assert item.plan.n_sites == SCHED.n_sites
        # slot j of site t re-feeds 1-indexed token t+j+1 (array index t+j)
        # and is supervised on the token after it
        for s, t in enumerate(item.plan.sites):
            for j in range(SCHED.n_ahead):
                row = s * SCHED.n_ahead + j
                assert item.ahead_inputs[row] == w[t + j]
                assert item.targets[row] == w[t + j + 1]


def test_pretrain_items_reject_wrong_window_width():
    windows = np.zeros((2, SCHED.seq_len), dtype=np.intp)
    with pytest.raises(ContractError):
        pretrain_items(windows, SCHED, np.random.default_rng(0))


def test_finetune_item_layout_and_eos():
    tok = ByteTokenizer()
    q = [5, 6, 7]
    ahead = [10, 11, 12]
    item = build_finetune_item(q, ahead, n_latents=2, eos_id=tok.eos)
    assert item.plan.sites == (3,)
    assert item.plan.cached_len == 3
    assert item.plan.seq_len == 6
    np.testing.assert_array_equal(item.ahead_inputs, ahead)
    np.testing.assert_array_equal(item.targets, [11, 12, tok.eos])


# ---------------------------------------------------------------------------
# site sampling


def test_site_selection_respects_constraints():
    rng = np.random.default_rng(7)
    for _ in range(300):
        sites = select_augmentation_sites(14, 3, 3, rng)
        assert len(sites) == 3
        assert sites[0] >= 1
        assert all(b - a >= 3 for a, b in zip(sites, sites[1:]))
        assert sites[-1] + 3 <= 14


def test_site_selection_uniform_over_feasible_set():
    # S=7, M=2, N_A=2: feasible pairs have t2 - t1 >= 2 and t2 + 2 <= 7
    feasible = [(t1, t2) for t1 in range(1, 6) for t2 in range(t1 + 2, 6)]
    assert len(feasible) == 6   # C(K + M - 1, M) with K = 7 - 4 = 3
    rng = np.random.default_rng(8)
    counts = {f: 0 for f in feasible}
    n = 12000
    for _ in range(n):
        sites = tuple(select_augmentation_sites(7, 2, 2, rng))
        counts[sites] += 1
    expected = n / len(feasible)
    for pair, c in counts.items():
        assert abs(c - expected) < 5 * np.sqrt(expected), (pair, c)


def test_site_selection_infeasible_raises():
    with pytest.raises(ContractError):
        select_augmentation_sites(6, 3, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# packed batch equals per-sequence computation


def per_sequence_loss(system, items):
    """Independent reference: run each sequence through the engine's
    contract ops one at a time and average the ahead cross-entropies."""
    total = 0.0
    rows = 0
    for item in items:
        plan = item.plan
        ahead = [item.ahead_inputs[s * plan.n_ahead: (s + 1) * plan.n_ahead]
                 for s in range(plan.n_sites)]
        if system.mode is InjectionMode.SOFT_EMBEDDING_UNIFIED:
            site_logits = soft_embedding_pass(system.base, system.bank,
                                              item.prefix_ids, plan, ahead)
        else:
            cache = base_prefix_pass(system.base, item.prefix_ids)
            blocks = coprocessor_pass(system.coproc, cache, system.bank, plan)
            site_logits = decode_pass(system.base, cache, blocks, plan,
                                      ahead, system.mode)
        targets = item.targets.reshape(plan.n_sites, plan.n_ahead)
        for s, logits in enumerate(site_logits):
            lse = np.log(np.exp(
                logits.values - logits.values.max(axis=1, keepdims=True)
            ).sum(axis=1)) + logits.values.max(axis=1)
            nll = lse - logits.values[np.arange(plan.n_ahead), targets[s]]
            total += float(nll.sum())
            rows += plan.n_ahead
    return total / rows


@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_packed_loss_matches_per_sequence(mode):
    system = init_system(mode, CFG, SCHED.n_latents, seed=3)
    items = make_items(4, seed=4)
    loss, n_rows = run_three_pass(system, items)
    assert n_rows == 4 * SCHED.n_sites * SCHED.n_ahead
    want = per_sequence_loss(system, items)
    assert abs(float(loss.values[0, 0]) - want) < 2e-5


def test_packed_loss_single_item_batch():
    system = init_system(InjectionMode.CACHE_CONCAT_FROZEN_BASE, CFG,
                         SCHED.n_latents, seed=5)
    items = make_items(1, seed=6)
    loss, _ = run_three_pass(system, items)
    want = per_sequence_loss(system, items)
    assert abs(float(loss.values[0, 0]) - want) < 2e-5


def test_packed_loss_heterogeneous_plans():
    # items with different cached lengths and site placements in one batch
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, CFG, 2, seed=7)
    rng = np.random.default_rng(8)
    items = []
    for q_len, a_len in ((3, 2), (5, 3), (4, 4)):
        q = rng.integers(0, 13, q_len)
        ahead = rng.integers(0, 13, a_len)
        items.append(build_finetune_item(q, ahead, 2, eos_id=12))
    loss, n_rows = run_three_pass(system, items)
    assert n_rows == 2 + 3 + 4
    want = per_sequence_loss_finetune(system, items)
    assert abs(float(loss.values[0, 0]) - want) < 2e-5


def per_sequence_loss_finetune(system, items):
    total = 0.0
    rows = 0
    for item in items:
        plan = item.plan
        cache = base_prefix_pass(system.base, item.prefix_ids)
        blocks = coprocessor_pass(system.coproc, cache, system.bank, plan)
        logits = decode_pass(system.base, cache, blocks, plan,
                             [item.ahead_inputs], system.mode)[0]
        lse = np.log(np.exp(
            logits.values - logits.values.max(axis=1, keepdims=True)
        ).sum(axis=1)) + logits.values.max(axis=1)
        nll = lse - logits.values[np.arange(len(item.targets)), item.targets]
        total += float(nll.sum())
        rows += len(item.targets)
    return total / rows


def test_three_pass_counter_by_mode():
    for mode, expect in ((InjectionMode.EMBEDDING_FROZEN_BASE, 3),
                         (InjectionMode.SOFT_EMBEDDING_UNIFIED, 2)):
        system = init_system(mode, CFG, 2, seed=9)
        counter = PassCounter()
        run_three_pass(system, make_items(2, seed=10), counter)
        assert counter.full_passes == expect, mode


@pytest.mark.parametrize("mode", TRAINING_MODES)
def test_batch_is_exactly_its_items(mode):
    """A batch's decode logits are, bit for bit, its items' logits run one
    at a time, and the batch still counts one tick per pass."""
    system = init_system(mode, CFG, 3, seed=11)
    rng = np.random.default_rng(12)
    items = [build_finetune_item(rng.integers(0, 13, q), rng.integers(0, 13, a),
                                 n, eos_id=12)
             for q, a, n in ((4, 3, 3), (7, 2, 0), (3, 5, 2), (9, 1, 1),
                             (5, 4, 3))]

    def schedule(batch, counter=None):
        logits, _ = _run_schedule(mode, system.base, system.coproc,
                                  system.bank, [it.plan for it in batch],
                                  [it.prefix_ids for it in batch],
                                  [it.ahead_inputs for it in batch], counter)
        return logits.values

    counter = PassCounter()
    batched = schedule(items, counter)
    one_by_one = np.concatenate([schedule([it]) for it in items])
    assert batched.tobytes() == one_by_one.tobytes()
    assert counter.log == (["base_prefix", "decode"]
                           if mode is InjectionMode.SOFT_EMBEDDING_UNIFIED
                           else ["base_prefix", "coprocessor", "decode"])


# ---------------------------------------------------------------------------
# optimizer


def adamw_oracle(p, g, m, v, step, lr, b1=0.9, b2=0.95, eps=1e-8, wd=0.1):
    p = p * (1 - lr * wd)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** step)
    vhat = v / (1 - b2 ** step)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m, v


def test_adamw_matches_oracle_over_steps():
    rng = np.random.default_rng(11)
    p0 = rng.normal(size=(3, 4))
    node = T.tensor(p0.copy(), requires_grad=True)
    state = OptimizerState()
    ref_p, ref_m, ref_v = p0.copy(), 0.0, 0.0
    for step in range(1, 6):
        g = rng.normal(size=(3, 4))
        node.grad = g.copy()
        adamw_step([("w", node)], state, lr=1e-2)
        ref_p, ref_m, ref_v = adamw_oracle(ref_p, g, ref_m, ref_v, step, 1e-2)
        np.testing.assert_allclose(node.values, ref_p, atol=1e-12)
    assert state.step == 5


def test_adamw_decays_parameters_with_no_gradient():
    node = T.tensor(np.full((2, 2), 4.0), requires_grad=True)
    node.grad = None
    state = OptimizerState()
    adamw_step([("w", node)], state, lr=0.1)
    # decay applies (4 * (1 - 0.1*0.1) = 3.96); zero grad adds no moment step
    np.testing.assert_allclose(node.values, 3.96, rtol=1e-6)


def test_adamw_rejects_nonfinite_gradient():
    node = T.tensor(np.ones((2, 2)), requires_grad=True)
    node.grad = np.array([[np.nan, 0.0], [0.0, 0.0]], dtype=np.float32)
    with pytest.raises(NumericError):
        adamw_step([("w", node)], OptimizerState(), lr=0.1)


def test_lr_warmup_schedule():
    assert lr_at(1, 1.0, warmup_steps=100) == pytest.approx(0.01)
    assert lr_at(50, 1.0, warmup_steps=100) == pytest.approx(0.5)
    assert lr_at(100, 1.0, warmup_steps=100) == pytest.approx(1.0)
    assert lr_at(5000, 1.0, warmup_steps=100) == pytest.approx(1.0)
    assert lr_at(3, 1.0, warmup_steps=0) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        lr_at(0, 1.0)


# ---------------------------------------------------------------------------
# frozen-parameter guarantees


@pytest.mark.parametrize("mode,theta_moves", [
    (InjectionMode.EMBEDDING_FROZEN_BASE, False),
    (InjectionMode.CACHE_CONCAT_FROZEN_BASE, False),
    (InjectionMode.EMBEDDING_COFINETUNED, True),
    (InjectionMode.SOFT_EMBEDDING_UNIFIED, True),
])
def test_base_weights_frozen_exactly_where_specified(mode, theta_moves):
    system = init_system(mode, CFG, 2, seed=12)
    before = {k: v.values.copy() for k, v in system.base.named_tensors()}
    bank_before = system.bank.embeddings.values.copy()
    opt = OptimizerState()
    for step in range(3):
        train_step(system, make_items(2, seed=20 + step), opt, 1e-3)
    moved = any(not np.array_equal(before[k], v.values)
                for k, v in system.base.named_tensors())
    assert moved == theta_moves
    assert not np.array_equal(bank_before, system.bank.embeddings.values)


def test_coprocessor_trains_in_dual_modes():
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, CFG, 2, seed=13)
    before = {k: v.values.copy() for k, v in system.coproc.named_tensors()}
    opt = OptimizerState()
    train_step(system, make_items(2, seed=14), opt, 1e-3)
    assert any(not np.array_equal(before[k], v.values)
               for k, v in system.coproc.named_tensors())


def test_training_reduces_loss():
    system = init_system(InjectionMode.EMBEDDING_COFINETUNED, CFG, 2, seed=15)
    items = make_items(4, seed=16)
    opt = OptimizerState()
    first = train_step(system, items, opt, 3e-3)
    for _ in range(8):
        last = train_step(system, items, opt, 3e-3)
    assert last < first


# ---------------------------------------------------------------------------
# loops, metrics, evaluation


def test_pretrain_loop_and_metrics(tmp_path):
    rng = np.random.default_rng(17)
    windows = rng.integers(0, 13, (10, SCHED.seq_len + 1))
    system = init_system(InjectionMode.CACHE_CONCAT_FROZEN_BASE, CFG,
                         SCHED.n_latents, seed=18)
    path = os.fspath(tmp_path / "m.csv")
    metrics = MetricsWriter(path)
    counter = PassCounter()
    pretrain(system, windows, SCHED, OptimizerState(), 1e-3, 2, 4, 6, seed=19,
             metrics=metrics, log_every=2, counter=counter)
    assert counter.full_passes == 18
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "step,tokens_seen,loss,ppl,lr,mode,n_latents"
    assert len(lines) == 4   # steps 2, 4, 6
    step, tokens, loss, ppl, lr, mode, nl = lines[1].split(",")
    assert (step, tokens, mode, nl) == ("2", "96",
                                        "cache_concat_frozen_base", "2")
    assert abs(np.exp(float(loss)) - float(ppl)) < 1e-3


def test_pretrain_stream_is_deterministic_and_resumable():
    rng = np.random.default_rng(20)
    windows = rng.integers(0, 13, (7, SCHED.seq_len + 1))

    def run(total, start=0, system=None, opt=None):
        if system is None:
            system = init_system(InjectionMode.EMBEDDING_COFINETUNED, CFG,
                                 SCHED.n_latents, seed=21)
            opt = OptimizerState()
        pretrain(system, windows, SCHED, opt, 1e-3, 2, 3, total, seed=21,
                 start_step=start)
        return system, opt

    full, _ = run(8)
    part, opt = run(4)
    part, _ = run(8, start=4, system=part, opt=opt)
    for (ka, va), (_, vb) in zip(full.base.named_tensors(),
                                 part.base.named_tensors()):
        assert np.array_equal(va.values, vb.values), ka


def test_evaluate_perplexity_deterministic_and_positive():
    rng = np.random.default_rng(22)
    windows = rng.integers(0, 13, (6, SCHED.seq_len + 1))
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, CFG,
                         SCHED.n_latents, seed=23)
    p1 = evaluate_perplexity(system, windows, SCHED, seed=24)
    p2 = evaluate_perplexity(system, windows, SCHED, seed=24)
    assert p1 == p2
    assert 1.0 < p1 < 50.0   # untrained on 13 symbols sits near uniform
    with pytest.raises(ContractError):
        evaluate_perplexity(system, windows[:0], SCHED, seed=24)


# ---------------------------------------------------------------------------
# curriculum


def curriculum_examples(n, tok, rng, n_steps=3):
    out = []
    for _ in range(n):
        q = list(rng.integers(0, 200, 6)) + [tok.q_sep]
        steps = [list(rng.integers(0, 200, 4)) + [tok.a_sep]
                 for _ in range(n_steps)]
        answer = [tok.answer_open, 65, tok.answer_close]
        out.append((q, steps, answer))
    return out


def test_curriculum_stage_layouts():
    tok = ByteTokenizer()
    rng = np.random.default_rng(25)
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=263,
                      max_positions=96)
    cur = CurriculumConfig(n_stages=2, latents_per_step=2)
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, cfg,
                         cur.final_latents, seed=26)
    examples = curriculum_examples(3, tok, rng, n_steps=2)
    reports = curriculum_finetune(system, examples, cur, OptimizerState(),
                                  1e-3, 1, 2, seed=27, tok=tok)
    assert [r.stage for r in reports] == [1, 2]
    assert [r.n_latents for r in reports] == [2, 4]
    assert all(r.skipped == 0 for r in reports)
    assert all(np.isfinite(r.final_loss) for r in reports)


def test_curriculum_skips_short_examples():
    tok = ByteTokenizer()
    rng = np.random.default_rng(28)
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=263,
                      max_positions=96)
    cur = CurriculumConfig(n_stages=2, latents_per_step=1)
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, cfg,
                         cur.final_latents, seed=29)
    examples = (curriculum_examples(2, tok, rng, n_steps=1)
                + curriculum_examples(2, tok, rng, n_steps=2))
    reports = curriculum_finetune(system, examples, cur, OptimizerState(),
                                  1e-3, 1, 2, seed=30, tok=tok)
    assert reports[0].skipped == 0
    assert reports[1].skipped == 2   # one-step examples lack a 2nd stage


def test_curriculum_requires_bank_capacity():
    tok = ByteTokenizer()
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=263,
                      max_positions=96)
    cur = CurriculumConfig(n_stages=3, latents_per_step=2)   # needs 6 slots
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, cfg, 4, seed=31)
    examples = curriculum_examples(2, tok, np.random.default_rng(32))
    with pytest.raises(ContractError):
        curriculum_finetune(system, examples, cur, OptimizerState(), 1e-3,
                            1, 2, seed=33, tok=tok)


def test_flat_finetune_runs_and_reports_loss():
    tok = ByteTokenizer()
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, vocab_size=263,
                      max_positions=96)
    system = init_system(InjectionMode.EMBEDDING_COFINETUNED, cfg, 2, seed=34)
    rng = np.random.default_rng(35)
    items = [build_finetune_item(list(rng.integers(0, 200, 5)),
                                 list(rng.integers(0, 200, 4)), 2, tok.eos)
             for _ in range(4)]
    loss = flat_finetune(system, items, OptimizerState(), 1e-3, 1, 2,
                         epochs=2, seed=36)
    assert np.isfinite(loss)


# ---------------------------------------------------------------------------
# property: loss is permutation-invariant in the batch


@settings(max_examples=10, deadline=None)
@given(st.permutations(list(range(4))))
def test_batch_order_does_not_change_loss(perm):
    system = init_system(InjectionMode.EMBEDDING_FROZEN_BASE, CFG,
                         SCHED.n_latents, seed=37)
    items = make_items(4, seed=38)
    base_loss, _ = run_three_pass(system, items)
    shuffled, _ = run_three_pass(system, [items[i] for i in perm])
    assert abs(float(base_loss.values[0, 0])
               - float(shuffled.values[0, 0])) < 1e-5
