"""A plain-numpy float64 reference for the three-pass schedule.

It shares no code with the package: no graph nodes, no engine, model or
mask code. It reads the weights as arrays, the plan's fields (sites,
n_latents, n_ahead, cached_len) and the brute-force masks of
test_masks.oracle_mask, and states the rest itself: the rotary phases,
layer norm, exact GELU (math.erf), a per-head attention loop, the rotary
position of every row and which rows carry the latents.

One sequence at a time:
  prefix       the base reads the cached prefix causally, positions
               0..cached_len-1, and keeps its keys and values;
  coprocessor  the coprocessor reads that cache plus the first N_L soft
               tokens for every site (site-major); slot k of site t sits
               at position t + k; its final hidden states are the latents;
  decode       the base reads, against the prefix cache, the ahead tokens
               at positions t + N_L + j. Embedding modes feed each site's
               latents (or, in the soft mode, the soft tokens) as rows at
               positions t + k ahead of them; cache-concat appends the
               coprocessor's keys and values to the prefix cache instead.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from test_masks import oracle_mask

_erf = np.vectorize(math.erf)


def weights(params) -> SimpleNamespace:
    """float64 copies of a model's weights and the shape fields used here."""
    cfg = params.config
    w = {name: np.array(node.values, dtype=np.float64)
         for name, node in params.tensors.items()}
    return SimpleNamespace(w=w, n_layers=cfg.n_layers, n_heads=cfg.n_heads,
                           theta=cfg.rope_theta, eps=cfg.ln_eps)


def _layer_norm(x, g, b, eps):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * g + b


def _gelu(x):
    return x * 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def _rope(x, positions, theta):
    """Rotate each row's (i, i + d/2) coordinate pairs by position * freq_i."""
    half = x.shape[1] // 2
    freq = theta ** (-2.0 * np.arange(half) / x.shape[1])
    ang = np.asarray(positions, dtype=np.float64)[:, None] * freq[None, :]
    a, b = x[:, :half], x[:, half:]
    return np.concatenate([a * np.cos(ang) - b * np.sin(ang),
                           b * np.cos(ang) + a * np.sin(ang)], axis=1)


def run_model(m, x, past, mask, positions):
    """Rows x (T, d) against past = per-layer (keys, values) lists of
    (P, d_head) arrays per head, or None. mask is (T, P + T), True = may
    attend. Returns (logits, the rows' own per-layer keys and values,
    final hidden states)."""
    w = m.w
    own = []
    for i in range(m.n_layers):
        p = f"layers.{i}"
        h = _layer_norm(x, w[f"{p}.ln1.g"], w[f"{p}.ln1.b"], m.eps)
        q, k, v = (h @ w[f"{p}.attn.wq"], h @ w[f"{p}.attn.wk"],
                   h @ w[f"{p}.attn.wv"])
        dh = q.shape[1] // m.n_heads
        keys, vals, heads = [], [], []
        for hd in range(m.n_heads):
            cols = slice(hd * dh, (hd + 1) * dh)
            qh = _rope(q[:, cols], positions, m.theta)
            kh = _rope(k[:, cols], positions, m.theta)
            vh = v[:, cols]
            keys.append(kh)
            vals.append(vh)
            k_all, v_all = kh, vh
            if past is not None:
                k_all = np.concatenate([past[i][0][hd], kh])
                v_all = np.concatenate([past[i][1][hd], vh])
            scores = np.where(mask, qh @ k_all.T / math.sqrt(dh), -np.inf)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v_all)
        x = x + np.concatenate(heads, axis=1) @ w[f"{p}.attn.wo"]
        h2 = _layer_norm(x, w[f"{p}.ln2.g"], w[f"{p}.ln2.b"], m.eps)
        x = x + _gelu(h2 @ w[f"{p}.mlp.w1"]) @ w[f"{p}.mlp.w2"]
        own.append((keys, vals))
    hidden = _layer_norm(x, w["final_ln.g"], w["final_ln.b"], m.eps)
    return hidden @ w["unembed"], own, hidden


def _append(past, extra):
    return [([np.concatenate([a, b]) for a, b in zip(pk, ek)],
             [np.concatenate([a, b]) for a, b in zip(pv, ev)])
            for (pk, pv), (ek, ev) in zip(past, extra)]


def ahead_logits(mode: str, base, coproc, bank, plan, prefix_ids,
                 ahead_ids) -> np.ndarray:
    """Logits of one sequence's ahead rows, (n_sites * n_ahead, vocab),
    site-major. mode is an injection mode's value; base and coproc come
    from weights(); bank is the soft-token array."""
    nl, na = plan.n_latents, plan.n_ahead
    sites = list(plan.sites)
    n_lat = len(sites) * nl
    emb = base.w["embed"]
    _, prefix, _ = run_model(base, emb[np.asarray(prefix_ids)], None,
                             oracle_mask(plan, "base_prefix"),
                             np.arange(plan.cached_len))
    lat_pos = [t + k for t in sites for k in range(nl)]
    ahead_pos = [t + nl + j for t in sites for j in range(na)]
    soft = np.concatenate([np.asarray(bank, dtype=np.float64)[:nl]]
                          * len(sites))
    ahead_x = emb[np.asarray(ahead_ids).reshape(-1)]
    decode_mask = oracle_mask(plan, "decode")
    if mode == "soft_embedding_unified" or n_lat == 0:
        latents = soft
    else:
        _, entries, latents = run_model(coproc, soft, prefix,
                                        oracle_mask(plan, "coprocessor"),
                                        lat_pos)
        if mode == "cache_concat_frozen_base":
            logits, _, _ = run_model(base, ahead_x, _append(prefix, entries),
                                     decode_mask[n_lat:], ahead_pos)
            return logits
    logits, _, _ = run_model(base, np.concatenate([latents, ahead_x]), prefix,
                             decode_mask, lat_pos + ahead_pos)
    return logits[n_lat:]


def mean_nll(mode: str, base, coproc, bank, items) -> float:
    """Mean cross-entropy over every ahead row of a batch of SequenceItems."""
    total, rows = 0.0, 0
    for it in items:
        logits = ahead_logits(mode, base, coproc, bank, it.plan,
                              it.prefix_ids, it.ahead_inputs)
        top = logits.max(axis=1)
        lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
        total += float((lse - logits[np.arange(len(lse)), it.targets]).sum())
        rows += len(lse)
    return total / rows


def generation_logits(mode: str, base, coproc, bank, question_ids,
                      n_latents: int, ahead_ids) -> np.ndarray:
    """Full recompute of generation's last row: one site after the
    question, n_latents latents, then ahead_ids (forced ids followed by the
    ids generated so far), all decoded at once."""
    t = len(question_ids)
    plan = SimpleNamespace(sites=(t,), n_sites=1, n_latents=n_latents,
                           n_ahead=len(ahead_ids), cached_len=t)
    return ahead_logits(mode, base, coproc, bank, plan, question_ids,
                        ahead_ids)[-1]
