"""Autodiff soundness: closed-form forward oracles and central-difference
gradient checks for every op kind, plus a gradient check through one full
three-pass training loss."""

import numpy as np
import pytest
from scipy.special import erf, logsumexp

import kvlatent.tensor as T
from kvlatent.engine import InjectionMode, SoftTokenBank
from kvlatent.errors import ContractError, ShapeError
from kvlatent.masks import AugmentationPlan
from kvlatent.model import ModelConfig, ModelParams
from kvlatent.training import (LatentSystem, ScheduleConfig, SequenceItem,
                               pretrain_items, run_three_pass)

F64 = np.float64


def leaf(rng, *shape, scale=1.0):
    return T.tensor(rng.normal(0.0, scale, shape), requires_grad=True,
                    dtype=F64)


def check(build, leaves, tol=1e-6):
    err = T.grad_check(build, leaves)
    assert err < tol, f"max relative grad error {err}"


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = leaf(rng, 3, 4), leaf(rng, 4, 5)
    np.testing.assert_allclose(T.matmul(a, b).values, a.values @ b.values,
                               rtol=1e-12)


def test_softmax_forward_matches_scipy():
    rng = np.random.default_rng(1)
    x = leaf(rng, 4, 7, scale=3.0)
    want = np.exp(x.values - logsumexp(x.values, axis=1, keepdims=True))
    np.testing.assert_allclose(T.softmax_rows(x).values, want, atol=1e-12)


def test_softmax_survives_huge_negative_bias():
    x = T.tensor(np.array([[0.0, -1e30, -1e30]]), dtype=F64)
    y = T.softmax_rows(x).values
    np.testing.assert_allclose(y, [[1.0, 0.0, 0.0]], atol=1e-300)
    assert np.isfinite(y).all()


def test_layer_norm_forward_oracle():
    rng = np.random.default_rng(2)
    x = leaf(rng, 5, 8, scale=2.0)
    mu = x.values.mean(axis=1, keepdims=True)
    var = x.values.var(axis=1, keepdims=True)
    want = (x.values - mu) / np.sqrt(var + 1e-5)
    np.testing.assert_allclose(T.layer_norm(x).values, want, atol=1e-12)


def test_gelu_forward_is_exact_erf_form():
    x = T.tensor(np.linspace(-4, 4, 33).reshape(1, -1), dtype=F64)
    want = 0.5 * x.values * (1.0 + erf(x.values / np.sqrt(2.0)))
    np.testing.assert_allclose(T.gelu(x).values, want, atol=1e-12)


def test_cross_entropy_forward_oracle():
    rng = np.random.default_rng(3)
    logits = leaf(rng, 6, 9, scale=2.0)
    targets = rng.integers(0, 9, 6)
    mask = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
    lse = logsumexp(logits.values, axis=1)
    nll = lse - logits.values[np.arange(6), targets]
    want = nll[mask].mean()
    got = T.cross_entropy(logits, targets, mask).values[0, 0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_rope_preserves_norm_and_zero_position_is_identity():
    rng = np.random.default_rng(4)
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=1, vocab_size=11,
                      max_positions=32)
    from kvlatent.model import rope_tables
    cos, sin = rope_tables(cfg, np.arange(6), dtype=F64)
    x = leaf(rng, 6, 8)
    y = T.rope(x, cos, sin)
    np.testing.assert_allclose(np.linalg.norm(y.values, axis=1),
                               np.linalg.norm(x.values, axis=1), rtol=1e-12)
    np.testing.assert_allclose(y.values[0], x.values[0], atol=1e-12)


def test_rope_relative_phase():
    # rotating q and k by the same offset leaves their dot product unchanged
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=1, vocab_size=11,
                      max_positions=64)
    from kvlatent.model import rope_tables
    rng = np.random.default_rng(5)
    q = rng.normal(size=(1, 8))
    k = rng.normal(size=(1, 8))
    for base in (0, 7, 23):
        cq, sq = rope_tables(cfg, np.array([base + 3]), dtype=F64)
        ck, sk = rope_tables(cfg, np.array([base]), dtype=F64)
        rq = T.rope(T.tensor(q, dtype=F64), cq, sq).values
        rk = T.rope(T.tensor(k, dtype=F64), ck, sk).values
        dot = float((rq @ rk.T)[0, 0])
        if base == 0:
            ref = dot
        else:
            np.testing.assert_allclose(dot, ref, rtol=1e-10)


def test_embedding_lookup_and_concat_slice_transpose_values():
    rng = np.random.default_rng(6)
    table = leaf(rng, 10, 4)
    ids = np.array([3, 3, 0, 9])
    np.testing.assert_array_equal(T.embedding_lookup(table, ids).values,
                                  table.values[ids])
    a, b = leaf(rng, 2, 4), leaf(rng, 3, 4)
    cat = T.concat_rows([a, b])
    np.testing.assert_array_equal(cat.values,
                                  np.vstack([a.values, b.values]))
    np.testing.assert_array_equal(
        T.slice_block(cat, 1, 4, 1, 3).values, cat.values[1:4, 1:3])
    np.testing.assert_array_equal(T.transpose(a).values, a.values.T)


# ---------------------------------------------------------------------------
# gradient checks, one per op kind


def test_grad_matmul():
    rng = np.random.default_rng(10)
    a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
    check(lambda: T.sum_all(T.matmul(a, b)), [a, b])


def test_grad_add_equal_and_broadcast():
    rng = np.random.default_rng(11)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    row = leaf(rng, 1, 4)
    check(lambda: T.sum_all(T.mul(T.add(a, b), T.add(a, row))), [a, b, row])


def test_grad_mul_broadcast_row():
    rng = np.random.default_rng(12)
    a, row = leaf(rng, 4, 5), leaf(rng, 1, 5)
    check(lambda: T.sum_all(T.mul(a, row)), [a, row])


def test_grad_softmax():
    rng = np.random.default_rng(13)
    x = leaf(rng, 3, 6, scale=2.0)
    w = T.tensor(rng.normal(size=(3, 6)), dtype=F64)
    check(lambda: T.sum_all(T.mul(T.softmax_rows(x), w)), [x])


def test_grad_layer_norm():
    rng = np.random.default_rng(14)
    x = leaf(rng, 4, 6, scale=2.0)
    w = T.tensor(rng.normal(size=(4, 6)), dtype=F64)
    check(lambda: T.sum_all(T.mul(T.layer_norm(x), w)), [x], tol=1e-5)


def test_grad_gelu():
    rng = np.random.default_rng(15)
    x = leaf(rng, 3, 7, scale=1.5)
    check(lambda: T.sum_all(T.gelu(x)), [x])


def test_grad_embedding_lookup_accumulates_repeats():
    rng = np.random.default_rng(16)
    table = leaf(rng, 8, 3)
    ids = np.array([2, 2, 2, 5])
    w = T.tensor(rng.normal(size=(4, 3)), dtype=F64)
    check(lambda: T.sum_all(T.mul(T.embedding_lookup(table, ids), w)), [table])
    root = T.sum_all(T.embedding_lookup(table, ids))
    T.backward(root)
    np.testing.assert_allclose(table.grad[2], 3.0)
    np.testing.assert_allclose(table.grad[5], 1.0)
    np.testing.assert_allclose(table.grad[0], 0.0)


def test_grad_slice_concat_transpose_scale():
    rng = np.random.default_rng(17)
    a, b = leaf(rng, 3, 4), leaf(rng, 2, 4)

    def build():
        cat = T.concat_rows([a, b])
        sl = T.slice_block(cat, 1, 5, 0, 3)
        return T.sum_all(T.scale(T.transpose(sl), 1.7))

    check(build, [a, b])


def test_grad_rope():
    rng = np.random.default_rng(18)
    cfg = ModelConfig(n_layers=1, d_model=6, n_heads=1, vocab_size=5,
                      max_positions=16)
    from kvlatent.model import rope_tables
    cos, sin = rope_tables(cfg, np.array([0, 3, 7]), dtype=F64)
    x = leaf(rng, 3, 6)
    w = T.tensor(rng.normal(size=(3, 6)), dtype=F64)
    check(lambda: T.sum_all(T.mul(T.rope(x, cos, sin), w)), [x])


def test_grad_cross_entropy_masked():
    rng = np.random.default_rng(19)
    logits = leaf(rng, 5, 7, scale=2.0)
    targets = rng.integers(0, 7, 5)
    mask = np.array([1, 0, 1, 1, 0], dtype=bool)
    check(lambda: T.cross_entropy(logits, targets, mask), [logits])


def test_grad_via_dispatcher_every_kind():
    # every kind in T._DISPATCH, built through its named constructor
    rng = np.random.default_rng(20)
    cfg = ModelConfig(n_layers=1, d_model=4, n_heads=1, vocab_size=6,
                      max_positions=8)
    from kvlatent.model import rope_tables
    cos, sin = rope_tables(cfg, np.array([1, 2]), dtype=F64)
    a = leaf(rng, 2, 4)
    b = leaf(rng, 4, 4)
    w = T.tensor(rng.normal(size=(6, 6)), dtype=F64)
    logits = leaf(rng, 3, 6, scale=2.0)
    cases = {
        "matmul": (lambda: T.matmul(a, b), a),
        "add": (lambda: T.add(a, a), a),
        "mul": (lambda: T.mul(a, a), a),
        "softmax_rows": (lambda: T.softmax_rows(a), a),
        "layer_norm": (lambda: T.layer_norm(a), a),
        "gelu": (lambda: T.gelu(a), a),
        "embedding_lookup": (
            lambda: T.embedding_lookup(b, np.array([0, 3])), b),
        "slice": (lambda: T.slice_block(a, 0, 2, 1, 3), a),
        "concat_rows": (lambda: T.concat_rows([a, a]), a),
        "transpose": (lambda: T.transpose(a), a),
        "scale": (lambda: T.scale(a, -2.5), a),
        "rope": (lambda: T.rope(a, cos, sin), a),
        # sum and cross_entropy produce scalars directly
        "sum": (lambda: T.sum_all(a), a),
        "cross_entropy": (lambda: T.cross_entropy(
            logits, np.array([1, 4, 0]), np.ones(3, bool)), logits),
    }
    assert set(cases) == set(T._DISPATCH)
    for kind, (make, x) in cases.items():
        if kind in ("sum", "cross_entropy"):
            check(make, [x])
            continue

        def build(make=make):
            out = make()
            r, c = out.values.shape
            return T.sum_all(T.mul(out, T.tensor(w.values[:r, :c], dtype=F64)))
        err = T.grad_check(build, [x])
        assert err < 1e-5, f"{kind}: {err}"


# ---------------------------------------------------------------------------
# graph mechanics


def test_backward_requires_scalar_root():
    x = T.tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.add(x, x))


def test_backward_accumulates_through_shared_subgraph():
    x = T.tensor(np.array([[2.0]]), requires_grad=True, dtype=F64)
    y = T.mul(x, x)
    root = T.sum_all(T.add(y, y))   # f = 2x^2, df/dx = 4x
    T.backward(root)
    np.testing.assert_allclose(x.grad, [[8.0]], rtol=1e-12)


def test_backward_reset_clears_previous_grads():
    x = T.tensor(np.array([[3.0]]), requires_grad=True, dtype=F64)
    root = T.sum_all(T.mul(x, x))
    T.backward(root)
    first = x.grad.copy()
    root2 = T.sum_all(T.mul(x, x))
    T.backward(root2)
    np.testing.assert_allclose(x.grad, first)


def test_grad_check_rejects_nondeterministic_builder():
    rng = np.random.default_rng(21)
    x = T.tensor(np.ones((2, 2)), requires_grad=True, dtype=F64)

    def build():
        noise = T.tensor(rng.normal(size=(2, 2)), dtype=F64)
        return T.sum_all(T.add(x, noise))

    with pytest.raises(ContractError):
        T.grad_check(build, [x])


def test_strict_mode_flags_nonfinite():
    T.set_strict(True)
    try:
        bad = T.tensor(np.array([[np.inf, 0.0]]))
        with pytest.raises(Exception):
            T.add(bad, bad)
    finally:
        T.set_strict(False)


def test_scalar_and_vector_inputs_get_2d_shapes():
    assert T.tensor(3.0).values.shape == (1, 1)
    assert T.tensor([1.0, 2.0, 3.0]).values.shape == (1, 3)


# ---------------------------------------------------------------------------
# full three-pass loss


def _f64_system(mode: InjectionMode, cfg: ModelConfig, n_latents: int,
                seed: int) -> LatentSystem:
    rng = np.random.default_rng([seed, 1])
    base = ModelParams.init(cfg, "base", rng).to_float64()
    coproc = base.clone(role="coprocessor").to_float64()
    bank_vals = np.random.default_rng([seed, 3]).normal(
        0.0, 0.02, (n_latents, cfg.d_model))
    bank = SoftTokenBank(T.tensor(bank_vals, requires_grad=True, dtype=F64))
    base.set_trainable(True)
    coproc.set_trainable(True)
    return LatentSystem(mode=mode, base=base, coproc=coproc, bank=bank)


@pytest.mark.parametrize("mode", [InjectionMode.CACHE_CONCAT_FROZEN_BASE,
                                  InjectionMode.EMBEDDING_COFINETUNED])
def test_grad_full_three_pass_loss(mode):
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=13,
                      max_positions=32)
    sched = ScheduleConfig(seq_len=8, n_sites=1, n_latents=2, n_ahead=2)
    system = _f64_system(mode, cfg, sched.n_latents, seed=7)
    windows = np.random.default_rng(8).integers(0, 13, (2, sched.seq_len + 1))
    items = pretrain_items(windows, sched, np.random.default_rng(9))

    def build():
        loss, _ = run_three_pass(system, items)
        return loss

    leaves = [system.bank.embeddings,
              system.coproc.tensors["layers.0.attn.wq"],
              system.base.tensors["layers.1.mlp.w2"],
              system.base.tensors["final_ln.g"]]
    err = T.grad_check(build, leaves, step=1e-5)
    assert err < 1e-3, f"three-pass loss grad error {err}"
