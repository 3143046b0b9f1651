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

The schedule is written once, as packed passes over any number of
sequences (_prefix_forward, _coprocessor_forward, _decode_forward). These
are the only code that builds a pass's input rows, block-diagonal mask,
positions, latent injection and PassCounter tick. training.run_three_pass
runs them for a batch through _run_schedule. base_prefix_pass,
coprocessor_pass, decode_pass, soft_embedding_pass and the first decode of
generate_greedy run them for one sequence; after that first decode,
generation is plain cached one-token decoding.

sequential_rollout is a cost model of emitting latents one at a time
(N_L + 1 passes); the passcount command compares it with the schedule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
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
    against it."""

    full_passes: int = 0
    rows_processed: int = 0
    log: list[str] = field(default_factory=list)

    def tick(self, rows: int, label: str) -> None:
        self.full_passes += 1
        self.rows_processed += int(rows)
        self.log.append(label)

    def reset(self) -> None:
        self.full_passes = 0
        self.rows_processed = 0
        self.log.clear()


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
# the packed schedule, for any number of sequences at once (module docstring)


def _offsets(sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def _pack_blocks(blocks: list[np.ndarray], col_offsets: list[list[tuple[int, int]]],
                 total_cols: int) -> np.ndarray:
    """Assemble per-sequence masks into one block mask. blocks[b] is the
    local mask; col_offsets[b] lists (global_start, width) segments covering
    the local columns in order."""
    rows = sum(b.shape[0] for b in blocks)
    out = np.zeros((rows, total_cols), dtype=bool)
    r = 0
    for b, segs in zip(blocks, col_offsets):
        c = 0
        for start, width in segs:
            out[r:r + b.shape[0], start:start + width] = b[:, c:c + width]
            c += width
        r += b.shape[0]
    return out


def _bank_rows(bank: SoftTokenBank, n_latents: int) -> T.TensorNode:
    """The first n_latents soft tokens, as a fresh graph node. Curriculum
    stages train a growing prefix of a bank sized for the final stage."""
    if n_latents > bank.n_latents:
        raise ContractError(f"bank has {bank.n_latents} slots, "
                            f"plan wants {n_latents}")
    if n_latents == bank.n_latents:
        return bank.embeddings
    return T.slice_block(bank.embeddings, 0, n_latents, 0, bank.d_model)


def _packed_forward(params: ModelParams, inputs: T.TensorNode,
                    past: ModelCache | None, blocks: list[np.ndarray],
                    past_segments: list[list[tuple[int, int]]],
                    positions: list[np.ndarray], label: str,
                    counter: PassCounter | None):
    """One full pass over several sequences' rows. Sequence b owns the next
    blocks[b].shape[0] input rows; its local mask has one column per cached
    row of its (start, width) segments of past, in order, then one per own
    row. The packed mask keeps the sequences independent."""
    p_len = past.length() if past is not None else 0
    need = sum(w for segs in past_segments for _, w in segs)
    if need != p_len:
        raise ShapeError("forward", f"a cache of {need} rows", f"{p_len} rows")
    row_off = _offsets([b.shape[0] for b in blocks])
    mask = _pack_blocks(
        blocks, [segs + [(p_len + int(row_off[b]), blk.shape[0])]
                 for b, (blk, segs) in enumerate(zip(blocks, past_segments))],
        p_len + int(row_off[-1]))
    out = forward(params, inputs, past, mask, np.concatenate(positions))
    if counter is not None:
        counter.tick(int(row_off[-1]), label)
    return out


def _prefix_forward(base: ModelParams, prefixes: list[np.ndarray],
                    counter: PassCounter | None) -> ModelCache:
    """Pass 1: every prefix, causally, in one forward; only the cache
    survives, sequence after sequence."""
    lens = [p.size for p in prefixes]
    emb = embed_tokens(base, np.concatenate(prefixes))
    _, entries, _ = _packed_forward(
        base, emb, None, [causal_mask(n) for n in lens], [[] for _ in lens],
        [np.arange(n, dtype=np.int64) for n in lens], "base_prefix", counter)
    return entries


def _coprocessor_forward(coproc: ModelParams, prefix_cache: ModelCache,
                         bank: SoftTokenBank, plans: list[AugmentationPlan],
                         counter: PassCounter | None
                         ) -> tuple[ModelCache, T.TensorNode]:
    """Pass 2: every site of every sequence in one forward, seeded with the
    soft tokens. Returns the rows' cache entries and final hidden states
    (the latents), sequence-major then site-major."""
    if sum(p.latent_rows for p in plans):
        parts: list[T.TensorNode] = []
        for p in plans:
            parts += [_bank_rows(bank, p.n_latents)] * p.n_sites
        inputs = T.concat_rows(parts)
    else:
        inputs = T.tensor(np.zeros((0, coproc.config.d_model)),
                          dtype=bank.embeddings.values.dtype)
    p_off = _offsets([p.cached_len for p in plans])
    _, entries, hidden = _packed_forward(
        coproc, inputs, prefix_cache,
        [build_attention_mask(p, "coprocessor") for p in plans],
        [[(int(p_off[b]), p.cached_len)] for b, p in enumerate(plans)],
        [p.coproc_positions() for p in plans], "coprocessor", counter)
    return entries, hidden


def _decode_forward(base: ModelParams, prefix_cache: ModelCache,
                    plans: list[AugmentationPlan], aheads: list[np.ndarray],
                    latent_rows: list[list[T.TensorNode]] | None,
                    latent_cache: ModelCache | None,
                    counter: PassCounter | None = None
                    ) -> tuple[T.TensorNode, ModelCache, ModelCache]:
    """Pass 3: the base decodes every sequence's ahead tokens in one forward.

    Embedding injection feeds latent_rows[b] as input rows ahead of sequence
    b's tokens. Cache-concat (latent_rows None) appends latent_cache, every
    sequence's coprocessor entries in order, to the prefix cache and feeds
    only the ahead tokens. Returns the logits, the cache the rows attended
    and the rows' new cache entries."""
    p_off = _offsets([p.cached_len for p in plans])
    if latent_rows is None:
        lat_off = _offsets([p.latent_rows for p in plans])
        context = prefix_cache
        if lat_off[-1]:
            context = concat_cache(prefix_cache, latent_cache)
        inputs = T.concat_rows([embed_tokens(base, a) for a in aheads])
        blocks = [decode_mask_cache_concat(p) for p in plans]
        segs = [[(int(p_off[b]), p.cached_len),
                 (int(p_off[-1] + lat_off[b]), p.latent_rows)]
                for b, p in enumerate(plans)]
        positions = [p.decode_positions()[p.latent_rows:] for p in plans]
    else:
        context = prefix_cache
        parts: list[T.TensorNode] = []
        for rows, a in zip(latent_rows, aheads):
            parts += rows
            parts.append(embed_tokens(base, a))
        inputs = T.concat_rows(parts)
        blocks = [build_attention_mask(p, "decode") for p in plans]
        segs = [[(int(p_off[b]), p.cached_len)] for b, p in enumerate(plans)]
        positions = [p.decode_positions() for p in plans]
    logits, entries, _ = _packed_forward(base, inputs, context, blocks, segs,
                                         positions, "decode", counter)
    return logits, context, entries


def _run_schedule(mode: InjectionMode, base: ModelParams,
                  coproc: ModelParams | None, bank: SoftTokenBank,
                  plans: list[AugmentationPlan], prefixes: list[np.ndarray],
                  aheads: list[np.ndarray], counter: PassCounter | None
                  ) -> tuple[T.TensorNode, np.ndarray]:
    """The whole schedule for a batch of sequences: 3 passes in dual modes,
    2 in the soft baseline. Returns the decode logits and a boolean mask of
    their ahead rows (the rest are re-fed latent rows)."""
    cache = _prefix_forward(base, prefixes, counter)
    latent_cache = None
    if mode is InjectionMode.SOFT_EMBEDDING_UNIFIED:
        latent_rows = [[_bank_rows(bank, p.n_latents)] * p.n_sites
                       if p.n_latents else [] for p in plans]
    else:
        entries, hidden = _coprocessor_forward(coproc, cache, bank, plans,
                                               counter)
        if uses_cache_concat(mode):
            latent_rows, latent_cache = None, entries
        else:
            lat_off = _offsets([p.latent_rows for p in plans])
            d = coproc.config.d_model
            latent_rows = [[T.slice_block(hidden, int(lat_off[b]),
                                          int(lat_off[b + 1]), 0, d)]
                           if p.latent_rows else []
                           for b, p in enumerate(plans)]
    logits, _, _ = _decode_forward(base, cache, plans, aheads, latent_rows,
                                   latent_cache, counter)
    fed = [0 if latent_rows is None else p.latent_rows for p in plans]
    ahead = np.concatenate([np.repeat([False, True], [n, p.ahead_rows])
                            for n, p in zip(fed, plans)])
    return logits, ahead


# ---------------------------------------------------------------------------
# the three passes, one sequence at a time


def base_prefix_pass(base: ModelParams, token_ids,
                     counter: PassCounter | None = None) -> ModelCache:
    """Pass 1: causal forward over the prefix; only the cache survives."""
    ids = np.asarray(token_ids, dtype=np.intp).reshape(-1)
    if ids.size == 0:
        raise ContractError("base_prefix_pass: empty prefix")
    return _prefix_forward(base, [ids], counter)


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
    entries, hidden = _coprocessor_forward(coproc, base_cache, bank, [plan],
                                           counter)
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
        logits, _, _ = _decode_forward(base, base_cache, [plan], [flat], None,
                                       entries, counter)
        return _split_site_logits(logits, plan, 0)
    logits, _, _ = _decode_forward(base, base_cache, [plan], [flat],
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
    logits, _, _ = _decode_forward(base, cache, [plan], [flat],
                                   [[bank.embeddings] * plan.n_sites], None,
                                   counter)
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
        counter.tick(ids.size, "rollout_prefix")
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
            counter.tick(1, f"rollout_latent_{i}")
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
    latent_rows = latent_cache = None
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
            latent_cache = block.coproc_entries
        else:
            latent_rows = [[block.z]]

    # First decode pass: latents plus forced tokens, as in training.
    logits, context, entries = _decode_forward(base, cache, [plan], [forced],
                                               latent_rows, latent_cache)
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
