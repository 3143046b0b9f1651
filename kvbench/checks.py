"""The benchmark's correctness checks, computed apart from the package.

Each check takes plain numbers or numpy arrays, recomputes what it needs
with its own numpy code, and raises CheckFailed on a mismatch. None of them
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import ast
import hashlib
from fractions import Fraction

import numpy as np

# float32 logits: a top-2 gap under this may flip between the incremental
# and the non-incremental decode path without either being wrong
NEAR_TIE_MARGIN = 1e-4
# relative error allowed between an autodiff directional derivative and a
# float64 central difference of the same loss
GRAD_RTOL = 1e-5
# packed float32 batch loss against the float64 mean of per-item losses
PACKED_LOSS_RTOL = 1e-5
# capture and silhouette are float64 throughout
DIAG_ATOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# gradients


def central_difference(loss_at, eps: float) -> float:
    """(L(+eps) - L(-eps)) / (2 eps) for a loss along one direction."""
    return (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)


def check_directional_gradient(grads, direction, fd: float,
                               rtol: float = GRAD_RTOL) -> float:
    """The autodiff gradient, projected on the direction, must match the
    central difference. Returns the relative error."""
    analytic = float(sum(np.sum(np.asarray(g, dtype=np.float64) * u)
                         for g, u in zip(grads, direction)))
    err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
    require(err <= rtol, f"directional gradient {analytic:.10g} vs central "
                         f"difference {fd:.10g} (relative error {err:.3g})")
    return err


# ---------------------------------------------------------------------------
# losses


def nll_rows(logits: np.ndarray, targets) -> np.ndarray:
    """Per-row negative log-likelihood from a float64 log-softmax."""
    x = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.intp).reshape(-1)
    require(x.shape[0] == t.shape[0], f"{x.shape[0]} logit rows for "
                                      f"{t.shape[0]} targets")
    shifted = x - x.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -logp[np.arange(t.shape[0]), t]


def check_packed_loss(packed: float, item_nll: list[np.ndarray],
                      rtol: float = PACKED_LOSS_RTOL) -> float:
    """The packed batch loss must equal the row-weighted mean of the
    per-item losses, i.e. the mean NLL over every supervised row."""
    rows = np.concatenate([np.asarray(x, dtype=np.float64) for x in item_nll])
    ref = float(rows.mean())
    err = abs(packed - ref) / max(abs(ref), 1e-12)
    require(err <= rtol, f"packed loss {packed:.9g} vs per-item mean "
                         f"{ref:.9g} (relative error {err:.3g})")
    return err


def tensor_digests(named) -> dict[str, str]:
    """SHA-256 of each array's dtype, shape and bytes: a bit-level
    fingerprint that keeps no copy of the weights alive."""
    out = {}
    for name, a in named:
        a = np.ascontiguousarray(a)
        h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        h.update(memoryview(a).cast("B"))
        out[name] = h.hexdigest()
    return out


def check_bit_identical(before: dict[str, str], after: dict[str, str],
                        what: str) -> None:
    """Compare two tensor_digests results."""
    require(before.keys() == after.keys(), f"{what}: tensor sets differ")
    for name, a in before.items():
        require(a == after[name], f"{what}: {name} changed")


def check_pass_count(passes: int, steps: int, dual: bool) -> None:
    want = steps * (3 if dual else 2)
    require(passes == want, f"{passes} full passes in {steps} steps, "
                            f"want {want}")


# ---------------------------------------------------------------------------
# generation


def check_greedy_ids(generated, logits: np.ndarray,
                     margin: float = NEAR_TIE_MARGIN) -> int:
    """Row i of logits comes from one non-incremental decode pass and
    predicts generated[i]. Every id must be that row's argmax, except at a
    near tie (top-2 gap below margin), which is counted and returned."""
    ids = [int(x) for x in generated]
    x = np.asarray(logits, dtype=np.float64)
    require(x.shape[0] == len(ids), f"{x.shape[0]} logit rows for "
                                    f"{len(ids)} generated ids")
    near = 0
    for i, tok in enumerate(ids):
        row = x[i]
        top2 = np.sort(row)[-2:]
        gap = float(top2[1] - top2[0])
        if gap < margin:
            near += 1
            require(row[tok] >= top2[1] - margin,
                    f"token {i}: id {tok} is not within the near-tie margin")
            continue
        require(int(np.argmax(row)) == tok,
                f"token {i}: generated {tok}, argmax {int(np.argmax(row))}")
    return near


def check_first_token(one: list[int], long: list[int]) -> None:
    require(len(one) == 1 and len(long) >= 1 and one[0] == long[0],
            f"one-token generation {one} vs first of long {long[:1]}")


# ---------------------------------------------------------------------------
# diagnostics


def check_capture(h: np.ndarray, valid: np.ndarray, tau: float,
                  atol: float = DIAG_ATOL) -> None:
    """Valid diagonal entries are at least tau (a slot's own tau-subspace
    holds at least tau of its variance); every entry lies in [0, 1]."""
    h = np.asarray(h, dtype=np.float64)
    finite = h[~np.isnan(h)]
    require(finite.size > 0, "capture matrix has no valid entries")
    require(bool(np.all(finite >= -atol) and np.all(finite <= 1 + atol)),
            "capture entry outside [0, 1]")
    for i in np.flatnonzero(valid):
        require(h[i, i] >= tau - atol,
                f"capture diagonal {i} is {h[i, i]:.6f} < tau {tau}")


def silhouette_numpy(groups: list[np.ndarray]) -> tuple[float, list[float]]:
    """Vectorised silhouette with each group as a cluster: (global mean,
    per-group mean, NaN for an empty group). Singleton clusters score 0."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    labels = np.concatenate([np.full(g.shape[0], i)
                             for i, g in enumerate(groups)])
    x = np.concatenate([g for g in groups if g.shape[0]], axis=0)
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(dist, 0.0)
    k = len(groups)
    onehot = (labels[:, None] == np.arange(k)[None, :]).astype(np.float64)
    counts = onehot.sum(axis=0)
    sums = dist @ onehot                       # (n, k) distance to each group
    own = counts[labels]
    a = sums[np.arange(len(labels)), labels] / np.maximum(own - 1, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts[None, :]
    means[:, counts == 0] = np.inf
    means[np.arange(len(labels)), labels] = np.inf
    b = means.min(axis=1)
    s = (b - a) / np.maximum(a, b)
    s[own == 1] = 0.0
    per = [float(s[labels == i].mean()) if counts[i] else float("nan")
           for i in range(k)]
    return float(s.mean()), per


def check_silhouette(global_score: float, per_latent, groups,
                     atol: float = DIAG_ATOL) -> None:
    ref_global, ref_per = silhouette_numpy(groups)
    require(abs(global_score - ref_global) <= atol,
            f"silhouette {global_score:.12f} vs numpy {ref_global:.12f}")
    require(len(per_latent) == len(ref_per),
            f"{len(per_latent)} per-slot silhouettes vs {len(ref_per)} slots")
    for i, (v, r) in enumerate(zip(per_latent, ref_per)):
        require((np.isnan(v) and np.isnan(r)) or abs(v - r) <= atol,
                f"slot {i} silhouette {v:.12f} vs numpy {r:.12f}")


# ---------------------------------------------------------------------------
# checkpoints and reproduction


def check_same_bytes(a: bytes, b: bytes, what: str) -> None:
    if a == b:
        return
    n = min(len(a), len(b))
    first = next((i for i in range(n) if a[i] != b[i]), n)
    raise CheckFailed(f"{what}: {len(a)} vs {len(b)} bytes, first "
                      f"difference at byte {first}")


def check_same_outputs(ref: dict, got: dict, what: str) -> None:
    """Every recorded output (ids, losses, diagnostics) must repeat exactly."""
    require(ref.keys() == got.keys(), f"{what}: different outputs recorded")
    for key, a in ref.items():
        b = got[key]
        if isinstance(a, float) and isinstance(b, float) \
                and np.isnan(a) and np.isnan(b):
            continue
        require(_same(a, b), f"{what}: {key} differs ({a!r} vs {b!r})")


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) \
            and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


# ---------------------------------------------------------------------------
# countdown witnesses


_BINOPS = {ast.Add: lambda x, y: x + y, ast.Sub: lambda x, y: x - y,
           ast.Mult: lambda x, y: x * y, ast.Div: lambda x, y: x / y}


def eval_witness(expr: str) -> tuple[Fraction, list[int]]:
    """Exact value and operand leaves of an arithmetic expression over
    + - * / and parentheses, evaluated with fractions."""
    tree = ast.parse(expr, mode="eval").body
    leaves: list[int] = []

    def ev(node) -> Fraction:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Div) and right == 0:
                raise CheckFailed(f"{expr!r}: division by zero")
            return _BINOPS[type(node.op)](left, right)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            leaves.append(node.value)
            return Fraction(node.value)
        raise CheckFailed(f"{expr!r}: unexpected {ast.dump(node)}")

    return ev(tree), leaves


def check_witness(expr: str, nums, target: int) -> None:
    value, leaves = eval_witness(expr)
    require(value == target, f"{expr!r} = {value}, target {target}")
    require(sorted(leaves) == sorted(int(x) for x in nums),
            f"{expr!r} uses {sorted(leaves)}, operands {sorted(nums)}")
