"""Training loops for every injection variant.

The unit of work is a SequenceItem: a cached prefix, an augmentation plan,
the flat ahead-token inputs, and their targets. Pretraining slices items
out of corpus windows (each window is seq_len + 1 tokens so every ahead row
has an in-window target); fine-tuning builds one single-site item per
example. run_three_pass hands a minibatch to the engine's schedule
(engine._run_schedule, the one implementation of the passes). Each pass
runs one forward per item, over that item's own rows, cache and mask, so a
batch's logits are exactly its items' logits and attention costs the sum
of the items' squared lengths. Only the loss is taken over the batch.

Loss is masked cross-entropy over ahead rows only; latent rows are never
supervised. Optimization is decoupled-weight-decay Adam applied uniformly
to every trainable tensor, with the learning-rate schedule (linear warmup,
then constant) computed outside the update rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .engine import (InjectionMode, PassCounter, SoftTokenBank,
                     _run_schedule, base_trainable, has_coprocessor)
from .errors import ContractError, NumericError
from .masks import AugmentationPlan
# Unused here; kvbench/tracer.py wraps these names on every module it traces.
from .masks import (build_attention_mask, causal_mask,  # noqa: F401
                    decode_mask_cache_concat)
from .model import ModelConfig, ModelParams, concat_cache, forward  # noqa: F401
from .tasks.tokenizer import ByteTokenizer


@dataclass(frozen=True)
class ScheduleConfig:
    """Geometry of one pretraining sequence's augmentation."""

    seq_len: int
    n_sites: int
    n_latents: int
    n_ahead: int

    def __post_init__(self):
        if self.seq_len < 1 or self.n_sites < 1:
            raise ContractError("schedule: seq_len and n_sites must be >= 1")
        if self.n_latents < 0 or self.n_ahead < 1:
            raise ContractError("schedule: n_latents >= 0 and n_ahead >= 1")
        if self.seq_len < self.n_sites * self.n_ahead + 1:
            raise ContractError(
                f"schedule: {self.n_sites} sites with {self.n_ahead} ahead "
                f"tokens need seq_len >= {self.n_sites * self.n_ahead + 1}, "
                f"got {self.seq_len}")


@dataclass(frozen=True)
class CurriculumConfig:
    """Stage j of k replaces the first j reasoning steps with j*c latents."""

    n_stages: int
    latents_per_step: int
    epochs_per_stage: int = 1

    def __post_init__(self):
        if self.n_stages < 1 or self.latents_per_step < 1:
            raise ContractError("curriculum: n_stages and latents_per_step "
                                "must be >= 1")
        if self.epochs_per_stage < 1:
            raise ContractError("curriculum: epochs_per_stage must be >= 1")

    @property
    def final_latents(self) -> int:
        return self.n_stages * self.latents_per_step


def select_augmentation_sites(seq_len: int, n_sites: int, n_ahead: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample 1-indexed site positions with non-overlapping ahead
    windows: t_(i+1) >= t_i + n_ahead and t_i + n_ahead <= seq_len.

    Bijection with sorted draws: subtracting (i-1)*n_ahead from the i-th
    site maps valid configurations onto non-decreasing M-tuples over
    [1, K], K = seq_len - n_sites*n_ahead, and those onto distinct M-subsets
    of [1, K + M - 1]; sampling the subset uniformly makes every valid
    configuration equally likely."""
    k = seq_len - n_sites * n_ahead
    if k < 1:
        raise ContractError(
            f"select_augmentation_sites: no room for {n_sites} sites with "
            f"{n_ahead} ahead tokens in seq_len {seq_len}")
    draw = rng.choice(k + n_sites - 1, size=n_sites, replace=False) + 1
    draw.sort()
    u = draw - np.arange(n_sites)
    sites = u + np.arange(n_sites) * n_ahead
    return sites.astype(np.int64)


# ---------------------------------------------------------------------------
# three-pass execution


@dataclass
class SequenceItem:
    """One sequence's contribution to a step: prefix to cache, plan, ahead
    inputs (flat, site-major) and their targets."""

    prefix_ids: np.ndarray
    plan: AugmentationPlan
    ahead_inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.prefix_ids = np.asarray(self.prefix_ids, dtype=np.intp).reshape(-1)
        self.ahead_inputs = np.asarray(self.ahead_inputs,
                                       dtype=np.intp).reshape(-1)
        self.targets = np.asarray(self.targets, dtype=np.intp).reshape(-1)
        if self.prefix_ids.size != self.plan.cached_len:
            raise ContractError(
                f"item: {self.prefix_ids.size} prefix tokens but plan caches "
                f"{self.plan.cached_len}")
        want = self.plan.ahead_rows
        if self.ahead_inputs.size != want or self.targets.size != want:
            raise ContractError(
                f"item: ahead/target length {self.ahead_inputs.size}/"
                f"{self.targets.size}, plan wants {want}")


def pretrain_items(windows: np.ndarray, sched: ScheduleConfig,
                   site_rng: np.random.Generator) -> list[SequenceItem]:
    """Slice (seq_len + 1)-token windows into training items: the model
    consumes tokens 1..seq_len as prefix, ahead slot j of site t re-feeds
    token t+j+1 and is supervised on token t+j+2 (1-indexed)."""
    windows = np.asarray(windows, dtype=np.intp)
    if windows.ndim != 2 or windows.shape[1] != sched.seq_len + 1:
        raise ContractError(
            f"pretrain_items: windows must be (n, {sched.seq_len + 1}), "
            f"got {windows.shape}")
    items = []
    for row in windows:
        sites = select_augmentation_sites(sched.seq_len, sched.n_sites,
                                          sched.n_ahead, site_rng)
        plan = AugmentationPlan(seq_len=sched.seq_len,
                                sites=tuple(int(t) for t in sites),
                                n_latents=sched.n_latents,
                                n_ahead=sched.n_ahead)
        src = plan.ahead_source_positions()          # 1-indexed tokens re-fed
        items.append(SequenceItem(prefix_ids=row[:sched.seq_len],
                                  plan=plan,
                                  ahead_inputs=row[src - 1],
                                  targets=row[src]))
    return items


@dataclass
class LatentSystem:
    """Everything one injection variant trains: the decoding base, the
    optional coprocessor, and the soft token bank."""

    mode: InjectionMode
    base: ModelParams
    coproc: ModelParams | None
    bank: SoftTokenBank

    def trainable(self) -> list[tuple[str, T.TensorNode]]:
        out: list[tuple[str, T.TensorNode]] = []
        if base_trainable(self.mode):
            out += [(f"base.{k}", v) for k, v in self.base.named_tensors()]
        if self.coproc is not None:
            out += [(f"coproc.{k}", v) for k, v in self.coproc.named_tensors()]
        out.append(("bank.soft", self.bank.embeddings))
        return out


def init_system(mode: InjectionMode, config: ModelConfig, n_latents: int,
                seed: int, coproc_config: ModelConfig | None = None
                ) -> LatentSystem:
    """Fresh models for one variant. The coprocessor starts as a copy of the
    base (same weights, its own training trajectory); the soft bank is its
    own small init. Trainability follows the mode: the base only trains in
    the co-finetuned and soft variants."""
    base = ModelParams.init(config, "base", np.random.default_rng([seed, 1]))
    base.set_trainable(base_trainable(mode))
    coproc = None
    if has_coprocessor(mode):
        if coproc_config is None or coproc_config == config:
            coproc = base.clone(role="coprocessor", trainable=True)
        else:
            coproc = ModelParams.init(coproc_config, "coprocessor",
                                      np.random.default_rng([seed, 2]))
    bank = SoftTokenBank.init(n_latents, config.d_model,
                              np.random.default_rng([seed, 3]))
    return LatentSystem(mode, base, coproc, bank)


def run_three_pass(system: LatentSystem, items: list[SequenceItem],
                   counter: PassCounter | None = None
                   ) -> tuple[T.TensorNode, int]:
    """Run the full schedule for a batch of items and return the masked
    mean cross-entropy over all ahead rows plus the row count.

    Dual modes: 3 full passes. Soft-embedding baseline: 2. Every sequence
    is computed on its own; see module docstring."""
    if not items:
        raise ContractError("run_three_pass: empty batch")
    logits, ahead = _run_schedule(
        system.mode, system.base, system.coproc, system.bank,
        [it.plan for it in items], [it.prefix_ids for it in items],
        [it.ahead_inputs for it in items], counter)
    targets = np.zeros(ahead.size, dtype=np.intp)
    targets[ahead] = np.concatenate([it.targets for it in items])
    return T.cross_entropy(logits, targets, ahead), int(ahead.sum())


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam moments, keyed by parameter name."""

    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: list[tuple[str, T.TensorNode]],
               state: OptimizerState, lr: float) -> None:
    """One in-place update from the gradients stored on the given tensors.

    Weight decay is decoupled (p *= 1 - lr*wd before the moment update) and
    applied uniformly to every tensor. Parameters with no gradient this step
    still decay; a zero gradient with zero decay leaves a parameter exactly
    unchanged. Non-finite gradients abort."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.values)
        if not np.isfinite(g).all():
            raise NumericError(f"adamw_step: non-finite gradient for {name} "
                               f"at optimizer step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.values)
            state.v[name] = np.zeros_like(p.values)
        m, v = state.m[name], state.v[name]
        if state.weight_decay:
            p.values *= np.asarray(1.0 - lr * state.weight_decay,
                                   dtype=p.values.dtype)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.values -= np.asarray(lr, dtype=p.values.dtype) * \
            update.astype(p.values.dtype)


def lr_at(step: int, base_lr: float, warmup_steps: int = 100) -> float:
    """Linear warmup to base_lr over warmup_steps, then constant."""
    if step < 1:
        raise ContractError("lr_at: step counts from 1")
    if warmup_steps <= 0:
        return base_lr
    return base_lr * min(1.0, step / warmup_steps)


# ---------------------------------------------------------------------------
# training loops


class MetricsWriter:
    """Append-only CSV of training progress. No timestamps, so reruns of the
    same command produce byte-identical files."""

    HEADER = "step,tokens_seen,loss,ppl,lr,mode,n_latents"

    def __init__(self, path: str | os.PathLike, fresh: bool = False):
        # fresh truncates any stale file from a previous run of the same
        # command; the default appends so resumed phases share one log
        self.path = str(path)
        if fresh or not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0:
            with open(self.path, "w", encoding="utf-8") as f:
                f.write(self.HEADER + "\n")

    def write(self, step: int, tokens_seen: int, loss: float, lr: float,
              mode: InjectionMode, n_latents: int) -> None:
        ppl = float(np.exp(min(loss, 50.0)))
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(f"{step},{tokens_seen},{loss:.6f},{ppl:.6f},"
                    f"{lr:.8f},{mode.value},{n_latents}\n")


def train_step(system: LatentSystem, items: list[SequenceItem],
               opt: OptimizerState, lr: float,
               counter: PassCounter | None = None,
               step_id: int | None = None) -> float:
    """Forward, backward, and optimizer update for one batch. Returns the
    batch loss."""
    loss, _ = run_three_pass(system, items, counter)
    value = float(loss.values[0, 0])
    if not np.isfinite(value):
        raise NumericError(f"train_step: non-finite loss at step {step_id}")
    T.backward(loss)
    adamw_step(system.trainable(), opt, lr)
    return value


def evaluate_perplexity(system: LatentSystem, windows: np.ndarray,
                        sched: ScheduleConfig, seed: int,
                        batch_size: int = 8) -> float:
    """exp(mean NLL) over every ahead position of every window, with site
    placements drawn deterministically from the seed."""
    windows = np.asarray(windows, dtype=np.intp)
    if windows.size == 0:
        raise ContractError("evaluate_perplexity: empty evaluation set")
    site_rng = np.random.default_rng([seed, 0xE7A1])
    items = pretrain_items(windows, sched, site_rng)
    total_nll = 0.0
    total_rows = 0
    for i in range(0, len(items), batch_size):
        chunk = items[i: i + batch_size]
        loss, rows = run_three_pass(system, chunk)
        total_nll += float(loss.values[0, 0]) * rows
        total_rows += rows
    return float(np.exp(total_nll / total_rows))


def pretrain(system: LatentSystem, windows: np.ndarray,
             sched: ScheduleConfig, opt: OptimizerState,
             base_lr: float, warmup_steps: int, batch_size: int,
             total_steps: int, seed: int,
             metrics: MetricsWriter | None = None,
             log_every: int = 20,
             counter: PassCounter | None = None,
             start_step: int = 0) -> float:
    """Streaming pretraining over corpus windows. Batches cycle through the
    window set in a seed-derived order, re-shuffled each epoch; resuming
    from start_step replays the identical stream. Returns the final loss."""
    windows = np.asarray(windows, dtype=np.intp)
    n = windows.shape[0]
    if n == 0:
        raise ContractError("pretrain: no training windows")
    loss_value = float("nan")
    tokens_per_step = batch_size * sched.seq_len
    orders: dict[int, np.ndarray] = {}
    for step in range(start_step + 1, total_steps + 1):
        idx = []
        for j in range(batch_size):
            pos = (step - 1) * batch_size + j
            epoch = pos // n
            if epoch not in orders:
                orders.clear()   # keep at most the current boundary pair
                orders[epoch] = np.random.default_rng(
                    [seed, 0x0D, epoch]).permutation(n)
            idx.append(int(orders[epoch][pos % n]))
        batch = windows[idx]
        site_rng = np.random.default_rng([seed, 0x51, step])
        items = pretrain_items(batch, sched, site_rng)
        lr = lr_at(step, base_lr, warmup_steps)
        loss_value = train_step(system, items, opt, lr, counter, step)
        if metrics is not None and (step % log_every == 0
                                    or step == total_steps):
            metrics.write(step, step * tokens_per_step, loss_value, lr,
                          system.mode, sched.n_latents)
    return loss_value


# ---------------------------------------------------------------------------
# fine-tuning


def build_finetune_item(question_ids, layout_ahead_ids, n_latents: int,
                        eos_id: int) -> SequenceItem:
    """Single-site item: the question is the cached prefix; the latents sit
    after it; the ahead span is fed as input and supervised on its own next
    token, closing with the terminal id."""
    q = np.asarray(question_ids, dtype=np.intp).reshape(-1)
    ahead = np.asarray(layout_ahead_ids, dtype=np.intp).reshape(-1)
    if q.size == 0 or ahead.size == 0:
        raise ContractError("finetune item: question and ahead span must be "
                            "non-empty")
    plan = AugmentationPlan(seq_len=int(q.size + ahead.size),
                            sites=(int(q.size),),
                            n_latents=int(n_latents),
                            n_ahead=int(ahead.size),
                            cached_len=int(q.size))
    targets = np.concatenate([ahead[1:], [eos_id]]).astype(np.intp)
    return SequenceItem(prefix_ids=q, plan=plan, ahead_inputs=ahead,
                        targets=targets)


@dataclass
class StageReport:
    stage: int
    n_latents: int
    steps: int
    skipped: int
    final_loss: float


def curriculum_finetune(system: LatentSystem,
                        examples: list[tuple[list[int], list[list[int]], list[int]]],
                        cur: CurriculumConfig, opt: OptimizerState,
                        base_lr: float, warmup_steps: int, batch_size: int,
                        seed: int, tok: ByteTokenizer | None = None,
                        metrics: MetricsWriter | None = None,
                        counter: PassCounter | None = None
                        ) -> list[StageReport]:
    """Stage-wise fine-tuning on (question, steps, answer) token examples.

    Stage j replaces the first j reasoning steps with j*latents_per_step
    latent slots and supervises the retained steps plus the answer.
    Examples with fewer than j steps are skipped and counted. The terminal
    target of every example is EOS."""
    tok = tok or ByteTokenizer()
    reports: list[StageReport] = []
    global_step = 0
    if cur.final_latents > system.bank.n_latents:
        raise ContractError(
            f"curriculum: final stage needs {cur.final_latents} latent slots, "
            f"bank has {system.bank.n_latents}")
    for stage in range(1, cur.n_stages + 1):
        n_lat = stage * cur.latents_per_step
        usable: list[SequenceItem] = []
        skipped = 0
        for q, steps, answer in examples:
            if len(steps) < stage:
                skipped += 1
                continue
            retained = [t for span in steps[stage:] for t in span]
            usable.append(build_finetune_item(q, retained + list(answer),
                                              n_lat, tok.eos))
        if not usable:
            raise ContractError(f"curriculum stage {stage}: every example "
                                f"was skipped")
        loss_value = float("nan")
        steps_run = 0
        for epoch in range(cur.epochs_per_stage):
            order = np.random.default_rng(
                [seed, 0xF1, stage, epoch]).permutation(len(usable))
            for i in range(0, len(usable), batch_size):
                batch = [usable[j] for j in order[i: i + batch_size]]
                global_step += 1
                steps_run += 1
                lr = lr_at(global_step, base_lr, warmup_steps)
                loss_value = train_step(system, batch, opt, lr, counter,
                                        global_step)
                if metrics is not None and steps_run % 20 == 0:
                    metrics.write(global_step, 0, loss_value, lr,
                                  system.mode, n_lat)
        reports.append(StageReport(stage, n_lat, steps_run, skipped,
                                   loss_value))
    return reports


def flat_finetune(system: LatentSystem,
                  items: list[SequenceItem], opt: OptimizerState,
                  base_lr: float, warmup_steps: int, batch_size: int,
                  epochs: int, seed: int,
                  metrics: MetricsWriter | None = None,
                  counter: PassCounter | None = None,
                  log_every: int = 50) -> float:
    """Fine-tune on fixed items with no curriculum (the countdown regime:
    question, then the full latent budget, then the answer span)."""
    if not items:
        raise ContractError("flat_finetune: no items")
    loss_value = float("nan")
    step = 0
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 0xFA, epoch]).permutation(len(items))
        for i in range(0, len(items), batch_size):
            batch = [items[j] for j in order[i: i + batch_size]]
            step += 1
            lr = lr_at(step, base_lr, warmup_steps)
            loss_value = train_step(system, batch, opt, lr, counter, step)
            if metrics is not None and (step % log_every == 0):
                metrics.write(step, 0, loss_value, lr, system.mode,
                              system.bank.n_latents)
    return loss_value
