"""Reverse-mode automatic differentiation over numpy arrays.

Every value in the system is a TensorNode holding a 2-D float array. Graphs
are built eagerly (define-by-run): each operation computes its result
immediately and records the producing op plus input nodes so that
``backward`` can replay the graph in reverse. Training runs in float32;
gradient checking runs the same code in float64 by building leaves with
``dtype=np.float64``.

Masked attention, loss masking and position handling live in higher layers;
this module only knows dense 2-D arrays. The op set is deliberately small:

    matmul, add, mul, softmax_rows, layer_norm, gelu, embedding_lookup,
    slice (slice_block), concat_rows, transpose, scale

plus two fused kinds used by the transformer for node economy: ``sum``
(full reduction to a 1x1 scalar) and ``rope`` (rotary position application).
``cross_entropy`` is the fused loss head. All of them are exercised by the
same central-difference checker.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Toggled by set_strict; when on, every op validates its inputs are finite.
_STRICT = False


def set_strict(flag: bool) -> None:
    """Enable or disable non-finite input detection on every operation."""
    global _STRICT
    _STRICT = bool(flag)


class TensorNode:
    """One node of the computation graph.

    Attributes:
        values: the 2-D numpy array produced by this node.
        grad: accumulated gradient of the same shape, or None before backward.
        requires_grad: whether backward should propagate into this node.
        op: name of the producing operation, None for leaves.
        inputs: producing operation's input nodes (the op record).
    """

    __slots__ = ("values", "grad", "requires_grad", "op", "inputs", "_bwd")

    def __init__(
        self,
        values: np.ndarray,
        requires_grad: bool = False,
        op: str | None = None,
        inputs: tuple["TensorNode", ...] = (),
        bwd: Callable[[np.ndarray], None] | None = None,
    ):
        if values.ndim != 2:
            raise ShapeError(op or "tensor", "a 2-D array", f"ndim={values.ndim}")
        self.values = values
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.inputs = inputs
        self._bwd = bwd


def tensor(values, requires_grad: bool = False, dtype=None) -> TensorNode:
    """Create a leaf node. Float inputs keep float32/float64; others cast."""
    arr = np.asarray(values)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(DEFAULT_DTYPE)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return TensorNode(np.ascontiguousarray(arr), requires_grad=requires_grad)


def _check_finite(op: str, *arrays: np.ndarray) -> None:
    if _STRICT:
        for a in arrays:
            if a.size and not np.isfinite(a).all():
                raise NumericError(f"{op}: non-finite input detected")


def _accum(node: TensorNode, g: np.ndarray) -> None:
    """Accumulate gradient into a node, allocating on first touch."""
    if node.grad is None:
        node.grad = np.array(g, dtype=node.values.dtype, copy=True)
    else:
        node.grad += g


def _result(op, out, inputs, bwd) -> TensorNode:
    rg = any(n.requires_grad for n in inputs)
    return TensorNode(out, requires_grad=rg, op=op, inputs=tuple(inputs),
                      bwd=bwd if rg else None)


# ---------------------------------------------------------------------------
# operations


def matmul(a: TensorNode, b: TensorNode) -> TensorNode:
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError("matmul", "(m,k) @ (k,n)",
                         f"{a.values.shape} @ {b.values.shape}")
    _check_finite("matmul", a.values, b.values)
    out = a.values @ b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ b.values.T)
        if b.requires_grad:
            _accum(b, a.values.T @ g)

    return _result("matmul", out, (a, b), bwd)


def _broadcast_pair(op: str, a: TensorNode, b: TensorNode):
    """Allow equal shapes or a (1, n) row against an (m, n) matrix."""
    sa, sb = a.values.shape, b.values.shape
    if sa == sb:
        return None  # no reduction needed on either side
    if sb == (1, sa[1]):
        return "b"
    if sa == (1, sb[1]):
        return "a"
    raise ShapeError(op, "equal shapes or (1,n) against (m,n)", f"{sa} vs {sb}")


def add(a: TensorNode, b: TensorNode) -> TensorNode:
    reduced = _broadcast_pair("add", a, b)
    _check_finite("add", a.values, b.values)
    out = a.values + b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g.sum(axis=0, keepdims=True) if reduced == "a" else g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0, keepdims=True) if reduced == "b" else g)

    return _result("add", out, (a, b), bwd)


def mul(a: TensorNode, b: TensorNode) -> TensorNode:
    reduced = _broadcast_pair("mul", a, b)
    _check_finite("mul", a.values, b.values)
    out = a.values * b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = g * b.values
            _accum(a, ga.sum(axis=0, keepdims=True) if reduced == "a" else ga)
        if b.requires_grad:
            gb = g * a.values
            _accum(b, gb.sum(axis=0, keepdims=True) if reduced == "b" else gb)

    return _result("mul", out, (a, b), bwd)


def softmax_rows(x: TensorNode) -> TensorNode:
    """Row-wise softmax, stabilized by row-max subtraction."""
    _check_finite("softmax_rows", x.values)
    v = x.values
    if v.shape[0] == 0:
        y = v.copy()
    else:
        shifted = v - v.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, (g - dot) * y)

    return _result("softmax_rows", y, (x,), bwd)


def layer_norm(x: TensorNode, eps: float = 1e-5) -> TensorNode:
    """Row-wise normalization to zero mean, unit variance. No affine here;
    scale/shift compose from mul/add with (1, n) parameters."""
    _check_finite("layer_norm", x.values)
    v = x.values
    mean = v.mean(axis=1, keepdims=True)
    var = v.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=v.dtype))
    y = (v - mean) * inv

    def bwd(g: np.ndarray) -> None:
        gm = g.mean(axis=1, keepdims=True)
        gym = (g * y).mean(axis=1, keepdims=True)
        _accum(x, inv * (g - gm - y * gym))

    return _result("layer_norm", y, (x,), bwd)


def gelu(x: TensorNode) -> TensorNode:
    """Exact GELU: x * Phi(x) with the Gaussian CDF, not the tanh fit."""
    from scipy.special import erf  # deferred: slow to import, gelu only

    _check_finite("gelu", x.values)
    v = x.values
    phi_cdf = 0.5 * (1.0 + erf(v * _INV_SQRT2))
    out = (v * phi_cdf).astype(v.dtype)

    def bwd(g: np.ndarray) -> None:
        pdf = _INV_SQRT2PI * np.exp(-0.5 * v * v)
        _accum(x, g * (phi_cdf + v * pdf))

    return _result("gelu", out, (x,), bwd)


def embedding_lookup(table: TensorNode, ids) -> TensorNode:
    """Gather rows of ``table`` by integer id. ids is data, not a node."""
    ids = np.asarray(ids, dtype=np.intp).reshape(-1)
    n_rows = table.values.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ContractError(
            f"embedding_lookup: id out of range [0, {n_rows}), "
            f"got min={ids.min()} max={ids.max()}")
    _check_finite("embedding_lookup", table.values)
    out = table.values[ids]

    def bwd(g: np.ndarray) -> None:
        gt = np.zeros_like(table.values)
        np.add.at(gt, ids, g)
        _accum(table, gt)

    return _result("embedding_lookup", out, (table,), bwd)


def slice_block(x: TensorNode, r0: int, r1: int, c0: int, c1: int) -> TensorNode:
    rows, cols = x.values.shape
    if not (0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols):
        raise ShapeError("slice", f"bounds within ({rows},{cols})",
                         f"rows [{r0},{r1}) cols [{c0},{c1})")
    out = x.values[r0:r1, c0:c1].copy()

    def bwd(g: np.ndarray) -> None:
        gx = np.zeros_like(x.values)
        gx[r0:r1, c0:c1] = g
        _accum(x, gx)

    return _result("slice", out, (x,), bwd)


def concat_rows(parts: Sequence[TensorNode]) -> TensorNode:
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_rows: needs at least one part")
    width = parts[0].values.shape[1]
    for p in parts:
        if p.values.shape[1] != width:
            raise ShapeError("concat_rows", f"column count {width}",
                             str(p.values.shape))
    out = np.concatenate([p.values for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.values.shape[0] for p in parts])

    def bwd(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad and hi > lo:
                _accum(p, g[lo:hi])

    return _result("concat_rows", out, parts, bwd)


def transpose(x: TensorNode) -> TensorNode:
    out = np.ascontiguousarray(x.values.T)

    def bwd(g: np.ndarray) -> None:
        _accum(x, g.T)

    return _result("transpose", out, (x,), bwd)


def scale(x: TensorNode, c: float) -> TensorNode:
    c = float(c)
    _check_finite("scale", x.values)
    out = x.values * np.asarray(c, dtype=x.values.dtype)

    def bwd(g: np.ndarray) -> None:
        _accum(x, g * np.asarray(c, dtype=x.values.dtype))

    return _result("scale", out, (x,), bwd)


def sum_all(x: TensorNode) -> TensorNode:
    """Reduce every element to a 1x1 scalar node."""
    out = np.array([[x.values.sum()]], dtype=x.values.dtype)

    def bwd(g: np.ndarray) -> None:
        _accum(x, np.full_like(x.values, g[0, 0]))

    return _result("sum", out, (x,), bwd)


def _rot_half(v: np.ndarray) -> np.ndarray:
    h = v.shape[1] // 2
    return np.concatenate([-v[:, h:], v[:, :h]], axis=1)


def _rot_half_inv(v: np.ndarray) -> np.ndarray:
    h = v.shape[1] // 2
    return np.concatenate([v[:, h:], -v[:, :h]], axis=1)


def rope(x: TensorNode, cos: np.ndarray, sin: np.ndarray) -> TensorNode:
    """Apply rotary position phases: x*cos + rotate_half(x)*sin.

    cos/sin are precomputed (T, d_head) arrays indexed by absolute position;
    they are constants of the op, not graph nodes. d_head must be even.
    """
    t, dh = x.values.shape
    if dh % 2 != 0:
        raise ShapeError("rope", "even column count", str(x.values.shape))
    if cos.shape != (t, dh) or sin.shape != (t, dh):
        raise ShapeError("rope", f"cos/sin of shape ({t},{dh})",
                         f"{cos.shape} / {sin.shape}")
    _check_finite("rope", x.values)
    out = x.values * cos + _rot_half(x.values) * sin

    def bwd(g: np.ndarray) -> None:
        _accum(x, g * cos + _rot_half_inv(g * sin))

    return _result("rope", out, (x,), bwd)


def cross_entropy(logits: TensorNode, targets, mask) -> TensorNode:
    """Mean negative log-likelihood over masked-in rows.

    targets: integer class per row; mask: boolean per row. Rows with mask
    False contribute nothing and their targets are ignored. Uses the
    log-sum-exp form; never materializes an unstabilized softmax.
    """
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    t, v = logits.values.shape
    if targets.shape[0] != t or mask.shape[0] != t:
        raise ShapeError("cross_entropy", f"targets/mask of length {t}",
                         f"{targets.shape[0]} / {mask.shape[0]}")
    if not mask.any():
        raise ContractError("cross_entropy: empty mask, no supervised rows")
    sel = targets[mask]
    if sel.size and (sel.min() < 0 or sel.max() >= v):
        raise ContractError(
            f"cross_entropy: target id out of range [0, {v})")
    _check_finite("cross_entropy", logits.values)

    lv = logits.values[mask]
    m = lv.max(axis=1, keepdims=True)
    e = np.exp(lv - m)
    z = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    nll = lse - lv[np.arange(lv.shape[0]), sel]
    n = float(mask.sum())
    out = np.array([[nll.sum() / n]], dtype=logits.values.dtype)
    probs = e / z

    def bwd(g: np.ndarray) -> None:
        gl = np.zeros_like(logits.values)
        d = probs.copy()
        d[np.arange(d.shape[0]), sel] -= 1.0
        gl[mask] = d * (g[0, 0] / n)
        _accum(logits, gl)

    return _result("cross_entropy", out, (logits,), bwd)


# Every op kind this module builds, one per constructor above; the tests
# grad-check each one.
_DISPATCH = ("matmul", "add", "mul", "softmax_rows", "layer_norm", "gelu",
             "embedding_lookup", "slice", "concat_rows", "transpose",
             "scale", "sum", "rope", "cross_entropy")


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: TensorNode) -> list[TensorNode]:
    """Reverse-usable topological order over the grad-requiring subgraph."""
    order: list[TensorNode] = []
    seen: set[int] = set()
    stack: list[tuple[TensorNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            if inp.requires_grad and id(inp) not in seen:
                stack.append((inp, False))
    return order


def backward(root: TensorNode) -> None:
    """Populate .grad on every grad-requiring node reachable from root.

    root must be a 1x1 scalar. Gradients previously stored on the reachable
    subgraph are cleared first.
    """
    if root.values.shape != (1, 1):
        raise ShapeError("backward", "a (1,1) scalar root",
                         str(root.values.shape))
    if not root.requires_grad:
        raise ContractError("backward: root does not require grad")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones((1, 1), dtype=root.values.dtype)
    for node in reversed(order):
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build: Callable[[], TensorNode],
               leaves: Sequence[TensorNode],
               step: float = 1e-5, floor: float = 1e-6) -> float:
    """Compare analytic gradients against central differences.

    ``build`` must construct the graph from the given leaves and return the
    scalar root; it is called repeatedly with perturbed leaf values. Returns
    the maximum relative error |a - n| / max(|a|, |n|, floor) over every
    element of every leaf. The floor keeps elements whose true gradient
    sits below the finite-difference noise floor from dominating the
    metric; at the default it still flags any error above 1e-6 absolute.
    Non-deterministic builders are rejected.
    """
    root = build()
    root_again = build()
    if not np.array_equal(root.values, root_again.values):
        raise ContractError("grad_check: builder is not deterministic")
    backward(root)
    worst = 0.0
    for leaf in leaves:
        if not leaf.requires_grad:
            raise ContractError("grad_check: leaf does not require grad")
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.values)
        flat = leaf.values.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            f_plus = float(build().values[0, 0])
            flat[i] = keep - step
            f_minus = float(build().values[0, 0])
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, err)
    return worst
