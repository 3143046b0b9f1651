"""Decoder-only transformer with an externally manipulable KV cache.

Pre-norm blocks, exact-GELU MLP at 4x expansion, rotary positions, no
linear biases, untied unembedding. The forward pass never assumes causal
structure: callers supply a dense boolean mask over (cache columns + new
rows), which is how the latent passes express their cross-attention rules.

Caches store post-rotary keys per layer, split per head as (positions,
d_head) matrices, together with the absolute position ids of the cached
rows. Cache entries are graph nodes, so training variants that require
gradients to flow through cached keys and values get them for free;
variants with a frozen producer are pruned automatically because their
nodes never require grad.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .masks import validate_mask

MASK_BIAS = -1e30


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    vocab_size: int
    max_positions: int
    rope_theta: float = 10000.0
    mlp_ratio: int = 4
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.n_layers < 1 or self.d_model < 1 or self.n_heads < 1:
            raise ContractError("config: layers, d_model, n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"config: d_model {self.d_model} not divisible by "
                f"n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ContractError("config: head dimension must be even for rotary")
        if self.vocab_size < 1 or self.max_positions < 1:
            raise ContractError("config: vocab_size and max_positions must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_mlp(self) -> int:
        return self.d_model * self.mlp_ratio


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's name and shape, in initialization order."""
    d, dm, v = config.d_model, config.d_mlp, config.vocab_size
    shapes = {"embed": (v, d), "unembed": (d, v),
              "final_ln.g": (1, d), "final_ln.b": (1, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}"
        shapes |= {f"{p}.ln1.g": (1, d), f"{p}.ln1.b": (1, d),
                   f"{p}.attn.wq": (d, d), f"{p}.attn.wk": (d, d),
                   f"{p}.attn.wv": (d, d), f"{p}.attn.wo": (d, d),
                   f"{p}.ln2.g": (1, d), f"{p}.ln2.b": (1, d),
                   f"{p}.mlp.w1": (d, dm), f"{p}.mlp.w2": (dm, d)}
    return shapes


def param_names(config: ModelConfig) -> set[str]:
    return set(param_shapes(config))


class ModelParams:
    """Named parameter tensors for one model (base or coprocessor)."""

    def __init__(self, config: ModelConfig, role: str,
                 tensors: dict[str, T.TensorNode], trainable: bool = True):
        self.config = config
        self.role = role
        self.tensors = tensors
        self._trainable = trainable
        self.set_trainable(trainable)

    @staticmethod
    def init(config: ModelConfig, role: str, rng: np.random.Generator,
             trainable: bool = True) -> "ModelParams":
        std = 0.02
        resid_std = std / np.sqrt(2.0 * config.n_layers)
        tensors: dict[str, T.TensorNode] = {}
        # draws happen in table order, so the table fixes every init
        for name, shape in param_shapes(config).items():
            if name.endswith(".g"):
                vals = np.ones(shape)
            elif name.endswith(".b"):
                vals = np.zeros(shape)
            else:
                s = resid_std if name.endswith((".wo", ".w2")) else std
                vals = rng.normal(0.0, s, shape)
            tensors[name] = T.tensor(vals, dtype=np.float32)
        return ModelParams(config, role, tensors, trainable)

    @property
    def trainable(self) -> bool:
        return self._trainable

    def set_trainable(self, flag: bool) -> None:
        self._trainable = bool(flag)
        for node in self.tensors.values():
            node.requires_grad = self._trainable
            if not self._trainable:
                node.grad = None

    def clone(self, role: str | None = None,
              trainable: bool | None = None) -> "ModelParams":
        tensors = {k: T.TensorNode(v.values.copy()) for k, v in self.tensors.items()}
        return ModelParams(self.config, role or self.role, tensors,
                           self._trainable if trainable is None else trainable)

    def named_tensors(self) -> list[tuple[str, T.TensorNode]]:
        return sorted(self.tensors.items())

    def to_float64(self) -> "ModelParams":
        """Copy with float64 tensors, for gradient checking."""
        tensors = {k: T.tensor(v.values, dtype=np.float64)
                   for k, v in self.tensors.items()}
        return ModelParams(self.config, self.role, tensors, self._trainable)


@dataclass
class LayerCache:
    """Post-rotary keys and values for one layer, one (positions, d_head)
    matrix per head, plus the absolute position id of each cached row."""
    keys: list[T.TensorNode]
    values: list[T.TensorNode]
    position_ids: np.ndarray

    def length(self) -> int:
        return self.keys[0].values.shape[0] if self.keys else 0


@dataclass
class ModelCache:
    """Per-layer caches for a whole model, tagged with their producer."""
    layers: list[LayerCache]
    n_heads: int
    origin: str = "base"

    def length(self) -> int:
        return self.layers[0].length() if self.layers else 0

    def validate(self, config: ModelConfig) -> None:
        if len(self.layers) != config.n_layers:
            raise ContractError(
                f"cache: {len(self.layers)} layers, model has {config.n_layers}")
        if self.n_heads != config.n_heads:
            raise ContractError(
                f"cache: {self.n_heads} heads, model has {config.n_heads}")
        n = self.length()
        for i, lc in enumerate(self.layers):
            if len(lc.keys) != config.n_heads or len(lc.values) != config.n_heads:
                raise ContractError(f"cache: layer {i} head count mismatch")
            for h in range(config.n_heads):
                for mat in (lc.keys[h], lc.values[h]):
                    if mat.values.shape != (n, config.d_head):
                        raise ShapeError("cache", f"({n},{config.d_head})",
                                         str(mat.values.shape))
            if lc.position_ids.shape != (n,):
                raise ContractError(f"cache: layer {i} position ids mismatch")


def concat_cache(a: ModelCache, b: ModelCache) -> ModelCache:
    """Concatenate cached rows along the sequence dimension, per layer and
    per head. Appended rows keep their own position ids."""
    if len(a.layers) != len(b.layers):
        raise ContractError(
            f"concat_cache: layer counts differ ({len(a.layers)} vs {len(b.layers)})")
    if a.n_heads != b.n_heads:
        raise ContractError(
            f"concat_cache: head counts differ ({a.n_heads} vs {b.n_heads})")
    layers = []
    for la, lb in zip(a.layers, b.layers):
        ka0 = la.keys[0].values.shape[1]
        kb0 = lb.keys[0].values.shape[1]
        if ka0 != kb0:
            raise ContractError(
                f"concat_cache: head dims differ ({ka0} vs {kb0})")
        layers.append(LayerCache(
            keys=[T.concat_rows([x, y]) for x, y in zip(la.keys, lb.keys)],
            values=[T.concat_rows([x, y]) for x, y in zip(la.values, lb.values)],
            position_ids=np.concatenate([la.position_ids, lb.position_ids]),
        ))
    return ModelCache(layers, a.n_heads, f"{a.origin}+{b.origin}")


def slice_cache(cache: ModelCache, r0: int, r1: int) -> ModelCache:
    """Row-slice of a cache (used to pull one site's entries out of a pass)."""
    dh = cache.layers[0].keys[0].values.shape[1] if cache.layers else 0
    layers = [LayerCache(
        keys=[T.slice_block(k, r0, r1, 0, dh) for k in lc.keys],
        values=[T.slice_block(v, r0, r1, 0, dh) for v in lc.values],
        position_ids=lc.position_ids[r0:r1],
    ) for lc in cache.layers]
    return ModelCache(layers, cache.n_heads, cache.origin)


def detach_cache(cache: ModelCache) -> ModelCache:
    """Copy the cache as fresh leaves, cutting it out of any graph."""
    layers = [LayerCache(
        keys=[T.TensorNode(k.values.copy()) for k in lc.keys],
        values=[T.TensorNode(v.values.copy()) for v in lc.values],
        position_ids=lc.position_ids.copy(),
    ) for lc in cache.layers]
    return ModelCache(layers, cache.n_heads, cache.origin)


def rope_tables(config: ModelConfig, position_ids: np.ndarray,
                dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin phase tables of shape (len(position_ids), d_head)."""
    dh = config.d_head
    inv_freq = config.rope_theta ** (-np.arange(0, dh, 2, dtype=np.float64) / dh)
    angles = position_ids.astype(np.float64)[:, None] * inv_freq[None, :]
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=1)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=1)
    return cos.astype(dtype), sin.astype(dtype)


def embed_tokens(params: ModelParams, token_ids) -> T.TensorNode:
    ids = np.asarray(token_ids, dtype=np.intp).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= params.config.vocab_size):
        raise ContractError(
            f"embed_tokens: token id outside [0, {params.config.vocab_size})")
    return T.embedding_lookup(params.tensors["embed"], ids)


def _ln_affine(x: T.TensorNode, g: T.TensorNode, b: T.TensorNode,
               eps: float) -> T.TensorNode:
    return T.add(T.mul(T.layer_norm(x, eps), g), b)


def _concat_heads(outs: list[T.TensorNode]) -> T.TensorNode:
    if len(outs) == 1:
        return outs[0]
    return T.transpose(T.concat_rows([T.transpose(o) for o in outs]))


def forward(params: ModelParams,
            input_embeddings: T.TensorNode,
            past: ModelCache | None,
            mask: np.ndarray,
            position_ids: np.ndarray,
            ) -> tuple[T.TensorNode, ModelCache, T.TensorNode]:
    """One full forward pass over new rows against an optional cache.

    input_embeddings: (T, d_model) rows to process (T may be 0).
    past: cache whose columns precede the new rows, or None.
    mask: (T, P + T) boolean, True = may attend; every non-empty row must
        attend somewhere.
    position_ids: (T,) absolute 0-indexed positions for rotary phases.

    Returns (logits (T, vocab), new cache entries for exactly the new rows,
    final hidden states (T, d_model) after the last normalization).
    """
    cfg = params.config
    t_new, d = input_embeddings.values.shape
    if d != cfg.d_model:
        raise ShapeError("forward", f"(T,{cfg.d_model}) embeddings",
                         str(input_embeddings.values.shape))
    position_ids = np.asarray(position_ids, dtype=np.int64).reshape(-1)
    if position_ids.shape[0] != t_new:
        raise ContractError(
            f"forward: {t_new} rows but {position_ids.shape[0]} position ids")
    if t_new and (position_ids.min() < 0 or position_ids.max() >= cfg.max_positions):
        raise ContractError(
            f"forward: position id outside [0, {cfg.max_positions})")
    if past is not None:
        past.validate(cfg)
    p_len = past.length() if past is not None else 0
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (t_new, p_len + t_new):
        raise ShapeError("forward", f"mask ({t_new},{p_len + t_new})",
                         str(mask.shape))
    if t_new:
        validate_mask(mask)

    dtype = input_embeddings.values.dtype
    bias = T.TensorNode(np.where(mask, 0.0, MASK_BIAS).astype(dtype))
    cos, sin = rope_tables(cfg, position_ids, dtype)
    dh = cfg.d_head
    inv_sqrt_dh = 1.0 / np.sqrt(dh)

    x = input_embeddings
    tn = params.tensors
    new_layers: list[LayerCache] = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        h = _ln_affine(x, tn[f"{p}.ln1.g"], tn[f"{p}.ln1.b"], cfg.ln_eps)
        q = T.matmul(h, tn[f"{p}.attn.wq"])
        k = T.matmul(h, tn[f"{p}.attn.wk"])
        v = T.matmul(h, tn[f"{p}.attn.wv"])
        head_outs: list[T.TensorNode] = []
        new_keys: list[T.TensorNode] = []
        new_vals: list[T.TensorNode] = []
        for hd in range(cfg.n_heads):
            c0, c1 = hd * dh, (hd + 1) * dh
            qh = T.rope(T.slice_block(q, 0, t_new, c0, c1), cos, sin)
            kh = T.rope(T.slice_block(k, 0, t_new, c0, c1), cos, sin)
            vh = T.slice_block(v, 0, t_new, c0, c1)
            new_keys.append(kh)
            new_vals.append(vh)
            if past is not None and p_len:
                k_all = T.concat_rows([past.layers[i].keys[hd], kh])
                v_all = T.concat_rows([past.layers[i].values[hd], vh])
            else:
                k_all, v_all = kh, vh
            scores = T.scale(T.matmul(qh, T.transpose(k_all)), inv_sqrt_dh)
            attn = T.softmax_rows(T.add(scores, bias))
            head_outs.append(T.matmul(attn, v_all))
        attn_out = T.matmul(_concat_heads(head_outs), tn[f"{p}.attn.wo"])
        x = T.add(x, attn_out)
        h2 = _ln_affine(x, tn[f"{p}.ln2.g"], tn[f"{p}.ln2.b"], cfg.ln_eps)
        mlp = T.matmul(T.gelu(T.matmul(h2, tn[f"{p}.mlp.w1"])), tn[f"{p}.mlp.w2"])
        x = T.add(x, mlp)
        new_layers.append(LayerCache(new_keys, new_vals, position_ids.copy()))

    hidden_last = _ln_affine(x, tn["final_ln.g"], tn["final_ln.b"], cfg.ln_eps)
    logits = T.matmul(hidden_last, tn["unembed"])
    new_entries = ModelCache(new_layers, cfg.n_heads, params.role)
    return logits, new_entries, hidden_last
