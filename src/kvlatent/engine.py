"""The three-pass latent pipeline and its injection variants.

One training step on a dual-model variant is exactly three full forward
passes:

  1. base_prefix_pass: the base consumes the prefix causally and yields its
     per-layer KV cache.
  2. coprocessor_pass: the coprocessor reads that cache plus learnable soft
     tokens (all sites' slots concatenated into one pass) and emits latent
     vectors, its final hidden states.
  3. decode_pass: the base decodes ahead tokens against the prefix cache
     with the latents injected, either re-fed as input embeddings or
     appended to the cache per layer.

The soft-embedding baseline runs one model and two passes (no coprocessor).

The schedule is written once, as passes over a batch of sequences
(_prefix_forward, _coprocessor_forward, _decode_forward). These are the
only code that builds a pass's input rows, mask, positions, latent
injection and PassCounter tick. Each pass runs one forward per sequence,
over that sequence's own rows, cache, mask and positions, so a batch
computes exactly what its items compute one at a time and attention costs
the sum of the sequences' squared lengths, not the square of their sum.
training.run_three_pass runs the passes for a batch through _run_schedule.
base_prefix_pass, coprocessor_pass, decode_pass, soft_embedding_pass and
the first decode of generate_greedy run them for one sequence; after that
first decode, generation is plain cached one-token decoding.

sequential_rollout is a cost model of emitting latents one at a time
(N_L + 1 passes); the passcount command compares it with the schedule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import ContractError
from .masks import (AugmentationPlan, build_attention_mask, causal_mask,
                    decode_mask_cache_concat)
from .model import (ModelCache, ModelParams, concat_cache, detach_cache,
                    embed_tokens, forward, slice_cache)


class InjectionMode(str, Enum):
    """How (and whether) latents reach the decoding model."""

    EMBEDDING_FROZEN_BASE = "embedding_frozen_base"
    CACHE_CONCAT_FROZEN_BASE = "cache_concat_frozen_base"
    EMBEDDING_COFINETUNED = "embedding_cofinetuned"
    SOFT_EMBEDDING_UNIFIED = "soft_embedding_unified"


DUAL_MODES = (InjectionMode.EMBEDDING_FROZEN_BASE,
              InjectionMode.CACHE_CONCAT_FROZEN_BASE,
              InjectionMode.EMBEDDING_COFINETUNED)

TRAINING_MODES = DUAL_MODES + (InjectionMode.SOFT_EMBEDDING_UNIFIED,)


def base_trainable(mode: InjectionMode) -> bool:
    """Whether the decoding model's weights receive updates in this mode."""
    return mode in (InjectionMode.EMBEDDING_COFINETUNED,
                    InjectionMode.SOFT_EMBEDDING_UNIFIED)


def has_coprocessor(mode: InjectionMode) -> bool:
    return mode in DUAL_MODES


def uses_cache_concat(mode: InjectionMode) -> bool:
    return mode is InjectionMode.CACHE_CONCAT_FROZEN_BASE


@dataclass
class SoftTokenBank:
    """Learnable per-slot input embeddings for the latent positions."""

    embeddings: T.TensorNode

    @staticmethod
    def init(n_latents: int, d_model: int, rng: np.random.Generator,
             std: float = 0.02) -> "SoftTokenBank":
        if n_latents < 0:
            raise ContractError("soft bank: n_latents must be >= 0")
        vals = rng.normal(0.0, std, (n_latents, d_model))
        node = T.tensor(vals, requires_grad=True, dtype=np.float32)
        return SoftTokenBank(node)

    @property
    def n_latents(self) -> int:
        return self.embeddings.values.shape[0]

    @property
    def d_model(self) -> int:
        return self.embeddings.values.shape[1]


@dataclass
class LatentBlock:
    """One site's latents: the vectors themselves plus the coprocessor's
    cache entries for those rows (consumed by the cache-concat variant)."""

    site: int
    z: T.TensorNode
    coproc_entries: ModelCache


@dataclass
class PassCounter:
    """Counts full forward passes; the schedule's cost claims are tested
    against it.

    A pass is one stage of the schedule over the whole batch, ticked once
    however many sequences it runs (each gets its own forward): a dual-mode
    step is 3 passes and a soft-mode step 2, at any batch size."""

    full_passes: int = 0
    log: list[str] = field(default_factory=list)

    def tick(self, label: str) -> None:
        self.full_passes += 1
        self.log.append(label)


def effective_context(seq_len: int, n_sites: int, n_latents: int,
                      n_ahead: int) -> int:
    """Total positions one training sequence occupies across the schedule:
    the prefix plus every site's latent slots and ahead tokens."""
    for name, v in (("seq_len", seq_len), ("n_sites", n_sites),
                    ("n_latents", n_latents), ("n_ahead", n_ahead)):
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ContractError(f"effective_context: {name} must be a "
                                f"non-negative integer, got {v!r}")
    return int(seq_len + n_sites * (n_latents + n_ahead))


def rollout_speedup(n_latents: int) -> float:
    """Full-pass ratio of sequential latent emission to the fixed three-pass
    schedule: (N_L + 1) / 3."""
    if n_latents < 0:
        raise ContractError("rollout_speedup: n_latents must be >= 0")
    return (n_latents + 1) / 3.0


# ---------------------------------------------------------------------------
# the schedule, for a batch of sequences (module docstring)


def _bank_rows(bank: SoftTokenBank, n_latents: int) -> T.TensorNode:
    """The first n_latents soft tokens, as a fresh graph node. Curriculum
    stages train a growing prefix of a bank sized for the final stage."""
    if n_latents > bank.n_latents:
        raise ContractError(f"bank has {bank.n_latents} slots, "
                            f"plan wants {n_latents}")
    if n_latents == bank.n_latents:
        return bank.embeddings
    return T.slice_block(bank.embeddings, 0, n_latents, 0, bank.d_model)


def _prefix_forward(base: ModelParams, prefixes: list[np.ndarray],
                    counter: PassCounter | None) -> list[ModelCache]:
    """Pass 1: every prefix, causally; only each sequence's cache
    survives."""
    caches = [forward(base, embed_tokens(base, ids), None,
                      causal_mask(ids.size),
                      np.arange(ids.size, dtype=np.int64))[1]
              for ids in prefixes]
    if counter is not None:
        counter.tick("base_prefix")
    return caches


def _coprocessor_forward(coproc: ModelParams, prefix_caches: list[ModelCache],
                         bank: SoftTokenBank, plans: list[AugmentationPlan],
                         counter: PassCounter | None
                         ) -> list[tuple[ModelCache, T.TensorNode]]:
    """Pass 2: every site of a sequence at once, seeded with the soft
    tokens, against that sequence's prefix cache. Returns per sequence the
    rows' cache entries and final hidden states (the latents), site-major."""
    out = []
    for cache, p in zip(prefix_caches, plans):
        if p.latent_rows:
            inputs = T.concat_rows([_bank_rows(bank, p.n_latents)] * p.n_sites)
        else:
            inputs = T.tensor(np.zeros((0, coproc.config.d_model)),
                              dtype=bank.embeddings.values.dtype)
        _, entries, hidden = forward(coproc, inputs, cache,
                                     build_attention_mask(p, "coprocessor"),
                                     p.coproc_positions())
        out.append((entries, hidden))
    if counter is not None:
        counter.tick("coprocessor")
    return out


def _decode_forward(base: ModelParams, prefix_caches: list[ModelCache],
                    plans: list[AugmentationPlan], aheads: list[np.ndarray],
                    latent_rows: list[list[T.TensorNode]] | None,
                    latent_caches: list[ModelCache] | None,
                    counter: PassCounter | None = None
                    ) -> list[tuple[T.TensorNode, ModelCache, ModelCache]]:
    """Pass 3: the base decodes all of a sequence's ahead tokens at once.

    Embedding injection feeds latent_rows[b] as input rows ahead of sequence
    b's tokens. Cache-concat (latent_rows None) appends latent_caches[b],
    sequence b's coprocessor entries, to its prefix cache and feeds only the
    ahead tokens. Returns per sequence the logits, the cache the rows
    attended and the rows' new cache entries."""
    out = []
    for b, (cache, p, a) in enumerate(zip(prefix_caches, plans, aheads)):
        context, emb = cache, embed_tokens(base, a)
        if latent_rows is None:
            if p.latent_rows:
                context = concat_cache(cache, latent_caches[b])
            inputs, mask = emb, decode_mask_cache_concat(p)
            positions = p.decode_positions()[p.latent_rows:]
        else:
            inputs = T.concat_rows(latent_rows[b] + [emb])
            mask = build_attention_mask(p, "decode")
            positions = p.decode_positions()
        logits, entries, _ = forward(base, inputs, context, mask, positions)
        out.append((logits, context, entries))
    if counter is not None:
        counter.tick("decode")
    return out


def _run_schedule(mode: InjectionMode, base: ModelParams,
                  coproc: ModelParams | None, bank: SoftTokenBank,
                  plans: list[AugmentationPlan], prefixes: list[np.ndarray],
                  aheads: list[np.ndarray], counter: PassCounter | None
                  ) -> tuple[T.TensorNode, np.ndarray]:
    """The whole schedule for a batch of sequences: 3 passes in dual modes,
    2 in the soft baseline. Returns every sequence's decode logits, in
    order, and a boolean mask of their ahead rows (the rest are re-fed
    latent rows)."""
    caches = _prefix_forward(base, prefixes, counter)
    latent_caches = None
    if mode is InjectionMode.SOFT_EMBEDDING_UNIFIED:
        latent_rows = [[_bank_rows(bank, p.n_latents)] * p.n_sites
                       if p.n_latents else [] for p in plans]
    else:
        latents = _coprocessor_forward(coproc, caches, bank, plans, counter)
        if uses_cache_concat(mode):
            latent_rows, latent_caches = None, [e for e, _ in latents]
        else:
            latent_rows = [[h] for _, h in latents]
    decoded = _decode_forward(base, caches, plans, aheads, latent_rows,
                              latent_caches, counter)
    fed = [0 if latent_rows is None else p.latent_rows for p in plans]
    ahead = np.concatenate([np.repeat([False, True], [n, p.ahead_rows])
                            for n, p in zip(fed, plans)])
    return T.concat_rows([logits for logits, _, _ in decoded]), ahead


# ---------------------------------------------------------------------------
# the three passes, one sequence at a time


def base_prefix_pass(base: ModelParams, token_ids,
                     counter: PassCounter | None = None) -> ModelCache:
    """Pass 1: causal forward over the prefix; only the cache survives."""
    ids = np.asarray(token_ids, dtype=np.intp).reshape(-1)
    if ids.size == 0:
        raise ContractError("base_prefix_pass: empty prefix")
    return _prefix_forward(base, [ids], counter)[0]


def coprocessor_pass(coproc: ModelParams, base_cache: ModelCache,
                     bank: SoftTokenBank, plan: AugmentationPlan,
                     counter: PassCounter | None = None) -> list[LatentBlock]:
    """Pass 2: one forward over every site's latent slots at once.

    Site t's slot k is seeded with soft token k and may attend the cached
    prefix up to t plus its own earlier slots. Latents are the final hidden
    states of the corresponding rows; the rows' cache entries are kept for
    cache-concat injection.
    """
    if bank.n_latents != plan.n_latents:
        raise ContractError(
            f"coprocessor_pass: bank has {bank.n_latents} slots, "
            f"plan wants {plan.n_latents}")
    if bank.d_model != coproc.config.d_model:
        raise ContractError("coprocessor_pass: bank width mismatch")
    [(entries, hidden)] = _coprocessor_forward(coproc, [base_cache], bank,
                                               [plan], counter)
    nl = plan.n_latents
    blocks = []
    for s, t in enumerate(plan.sites):
        blocks.append(LatentBlock(
            site=t,
            z=T.slice_block(hidden, s * nl, (s + 1) * nl, 0,
                            coproc.config.d_model),
            coproc_entries=slice_cache(entries, s * nl, (s + 1) * nl),
        ))
    return blocks


def _flat_ahead(plan: AugmentationPlan, ahead_token_ids) -> np.ndarray:
    if len(ahead_token_ids) != plan.n_sites:
        raise ContractError(
            f"decode: {len(ahead_token_ids)} ahead lists for "
            f"{plan.n_sites} sites")
    flat = []
    for ids in ahead_token_ids:
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.size != plan.n_ahead:
            raise ContractError(
                f"decode: ahead list of length {ids.size}, "
                f"plan wants {plan.n_ahead}")
        flat.append(ids)
    return np.concatenate(flat) if flat else np.zeros((0,), dtype=np.intp)


def _split_site_logits(logits: T.TensorNode, plan: AugmentationPlan,
                       first_row: int) -> list[T.TensorNode]:
    v = logits.values.shape[1]
    out = []
    for s in range(plan.n_sites):
        r0 = first_row + s * plan.n_ahead
        out.append(T.slice_block(logits, r0, r0 + plan.n_ahead, 0, v))
    return out


def decode_pass(base: ModelParams, base_cache: ModelCache,
                blocks: list[LatentBlock], plan: AugmentationPlan,
                ahead_token_ids, mode: InjectionMode,
                counter: PassCounter | None = None) -> list[T.TensorNode]:
    """Pass 3: the base decodes every site's ahead tokens in one forward.

    Embedding injection feeds each site's latents as input rows ahead of the
    site's tokens; cache-concat appends each site's coprocessor entries to
    the prefix cache instead and feeds only the ahead tokens. Returns one
    (N_A, vocab) logits block per site.
    """
    if mode not in DUAL_MODES:
        raise ContractError(f"decode_pass: {mode.value} is not a dual-model mode")
    if len(blocks) != plan.n_sites:
        raise ContractError(
            f"decode_pass: {len(blocks)} latent blocks for {plan.n_sites} sites")
    for b, t in zip(blocks, plan.sites):
        if b.site != t:
            raise ContractError(
                f"decode_pass: latent block for site {b.site}, plan says {t}")
        if b.z.values.shape != (plan.n_latents, base.config.d_model):
            raise ContractError(
                f"decode_pass: latent block shape {b.z.values.shape}, "
                f"expected ({plan.n_latents},{base.config.d_model})")
    flat = _flat_ahead(plan, ahead_token_ids)
    if uses_cache_concat(mode):
        entries = functools.reduce(concat_cache,
                                   [b.coproc_entries for b in blocks])
        [(logits, _, _)] = _decode_forward(base, [base_cache], [plan], [flat],
                                           None, [entries], counter)
        return _split_site_logits(logits, plan, 0)
    [(logits, _, _)] = _decode_forward(base, [base_cache], [plan], [flat],
                                       [[b.z for b in blocks]], None, counter)
    return _split_site_logits(logits, plan, plan.latent_rows)


def soft_embedding_pass(base: ModelParams, bank: SoftTokenBank,
                        token_ids, plan: AugmentationPlan, ahead_token_ids,
                        counter: PassCounter | None = None) -> list[T.TensorNode]:
    """Single-model baseline: the latent slots are filled with the bank's
    soft tokens directly and the same model decodes. Two passes per step."""
    if bank.n_latents != plan.n_latents:
        raise ContractError(
            f"soft_embedding_pass: bank has {bank.n_latents} slots, "
            f"plan wants {plan.n_latents}")
    cache = base_prefix_pass(base, token_ids, counter)
    flat = _flat_ahead(plan, ahead_token_ids)
    [(logits, _, _)] = _decode_forward(base, [cache], [plan], [flat],
                                       [[bank.embeddings] * plan.n_sites],
                                       None, counter)
    return _split_site_logits(logits, plan, plan.latent_rows)


def sequential_rollout(params: ModelParams, token_ids, n_latents: int,
                       counter: PassCounter | None = None
                       ) -> tuple[T.TensorNode, int]:
    """Cost model of one-at-a-time latent emission: a full prefix pass, then
    one full pass per latent, each feeding back the previous final hidden
    state. Returns the last pass's logits row and the pass count, N_L + 1."""
    if n_latents < 0:
        raise ContractError("sequential_rollout: n_latents must be >= 0")
    ids = np.asarray(token_ids, dtype=np.intp).reshape(-1)
    if ids.size == 0:
        raise ContractError("sequential_rollout: empty prefix")
    emb = embed_tokens(params, ids)
    positions = np.arange(ids.size, dtype=np.int64)
    logits, cache, hidden = forward(params, emb, None, causal_mask(ids.size),
                                    positions)
    if counter is not None:
        counter.tick("rollout_prefix")
    passes = 1
    d = params.config.d_model
    for i in range(n_latents):
        last = T.slice_block(hidden, hidden.values.shape[0] - 1,
                             hidden.values.shape[0], 0, d)
        p = cache.length()
        mask = np.ones((1, p + 1), dtype=bool)
        pos = np.asarray([ids.size + i], dtype=np.int64)
        logits, entries, hidden = forward(params, last, cache, mask, pos)
        cache = concat_cache(cache, entries)
        if counter is not None:
            counter.tick(f"rollout_latent_{i}")
        passes += 1
    v = params.config.vocab_size
    last_row = T.slice_block(logits, logits.values.shape[0] - 1,
                             logits.values.shape[0], 0, v)
    return last_row, passes


# ---------------------------------------------------------------------------
# greedy generation (evaluation helper)


def generate_greedy(mode: InjectionMode, base: ModelParams,
                    coproc: ModelParams | None, bank: SoftTokenBank | None,
                    question_ids, n_latents: int, forced_ids,
                    max_new: int, stop_id: int | None = None) -> list[int]:
    """Greedy decoding through the latent pipeline for one prompt.

    forced_ids are fed (not predicted) after the latents, mirroring the
    trained layout; generated ids are returned without them. Stops at
    stop_id (kept in the output) or after max_new tokens.
    """
    question_ids = np.asarray(question_ids, dtype=np.intp).reshape(-1)
    forced = np.asarray(forced_ids, dtype=np.intp).reshape(-1)
    if question_ids.size == 0 or not forced.size:
        raise ContractError("generation: needs a question and a forced prefix")
    t = int(question_ids.size)
    plan = AugmentationPlan(seq_len=t + forced.size, sites=(t,),
                            n_latents=n_latents, n_ahead=forced.size,
                            cached_len=t)
    cache = base_prefix_pass(base, question_ids)
    latent_rows = latent_caches = None
    if mode is InjectionMode.SOFT_EMBEDDING_UNIFIED:
        if bank is None or bank.n_latents != n_latents:
            raise ContractError("generation: soft mode needs a matching bank")
        latent_rows = [[bank.embeddings]]
    else:
        if coproc is None or bank is None:
            raise ContractError(
                "generation: dual mode needs coprocessor and bank")
        block = coprocessor_pass(coproc, cache, bank, plan)[0]
        if uses_cache_concat(mode):
            latent_caches = [block.coproc_entries]
        else:
            latent_rows = [[block.z]]

    # First decode pass: latents plus forced tokens, as in training.
    [(logits, context, entries)] = _decode_forward(
        base, [cache], [plan], [forced], latent_rows, latent_caches)
    ctx = concat_cache(detach_cache(context), detach_cache(entries))
    out: list[int] = []
    next_id = int(np.argmax(logits.values[-1]))
    next_pos = t + n_latents + forced.size
    for _ in range(max_new):
        out.append(next_id)
        if len(out) == max_new or next_id == stop_id \
                or next_pos >= base.config.max_positions:
            break
        emb = embed_tokens(base, np.asarray([next_id], dtype=np.intp))
        mask = np.ones((1, ctx.length() + 1), dtype=bool)
        logits, entries, _ = forward(
            base, emb, ctx, mask, np.asarray([next_pos], dtype=np.int64))
        ctx = concat_cache(ctx, detach_cache(entries))
        next_id = int(np.argmax(logits.values[-1]))
        next_pos += 1
    return out
