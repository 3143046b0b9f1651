"""Latent-specialization diagnostics.

Two views of how the latent slots divide their work:

  cross-capture  For each slot i, fit a PCA projector P_i capturing a
                 variance fraction tau of slot i's activation rows; then
                 measure how much of slot j's energy that subspace captures,
                 H[i, j] = |X_j P_i|_F^2 / |X_j|_F^2. High off-diagonal mass
                 means slots share a subspace; low means orthogonal roles.

  silhouette     Treat each slot's rows as a cluster and compute the exact
                 pairwise silhouette. High values mean slots occupy separated
                 regions; values near zero or below mean overlap. Singleton
                 clusters score 0 by definition.

The two are deliberately complementary: clusters far apart along a shared
direction are separated (high silhouette) yet redundant (high cross-capture),
and the tests pin that regime explicitly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataFormatError

_MAGIC = b"KVLD"
_VERSION = 1


@dataclass
class ActivationDump:
    """Latent activations grouped by slot: rows[i] is an (n_i, d) float32
    array of latent i's vectors across examples (and sites)."""

    rows: list[np.ndarray]
    d_model: int
    source: str = ""

    def __post_init__(self):
        for i, r in enumerate(self.rows):
            r = np.asarray(r, dtype=np.float32)
            if r.ndim != 2 or r.shape[1] != self.d_model:
                raise ContractError(
                    f"dump: slot {i} rows must be (n, {self.d_model}), "
                    f"got {r.shape}")
            self.rows[i] = r

    @property
    def n_latents(self) -> int:
        return len(self.rows)


def save_dump(path, dump: ActivationDump) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        src = dump.source.encode("utf-8")
        f.write(struct.pack("<IIII", _VERSION, dump.n_latents, dump.d_model,
                            len(src)))
        f.write(src)
        for r in dump.rows:
            f.write(struct.pack("<Q", r.shape[0]))
        for r in dump.rows:
            f.write(np.ascontiguousarray(r, dtype="<f4").tobytes())


def load_dump(path) -> ActivationDump:
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise DataFormatError(f"{path}: not an activation dump")
        version, n_lat, d, src_len = struct.unpack("<IIII", f.read(16))
        if version != _VERSION:
            raise DataFormatError(f"{path}: dump version {version}, "
                                  f"expected {_VERSION}")
        source = f.read(src_len).decode("utf-8")
        counts = [struct.unpack("<Q", f.read(8))[0] for _ in range(n_lat)]
        rows = []
        for c in counts:
            buf = f.read(c * d * 4)
            if len(buf) != c * d * 4:
                raise DataFormatError(f"{path}: truncated dump")
            rows.append(np.frombuffer(buf, dtype="<f4").reshape(c, d).copy())
    return ActivationDump(rows, d, source)


def pca_projector(x: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
    """Smallest-rank PCA projector capturing at least a fraction tau of the
    centered variance of x's rows.

    Returns (P, r) with P symmetric (d, d) of rank r. Fewer than 2 rows or
    zero variance yields the degenerate (zeros, 0); rank ties resolve to the
    smaller rank because the threshold is the first cumulative crossing."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError("pca_projector: x must be 2-D")
    if not (0.0 < tau <= 1.0):
        raise ContractError(f"pca_projector: tau must be in (0, 1], got {tau}")
    d = x.shape[1]
    if x.shape[0] < 2:
        return np.zeros((d, d)), 0
    xc = x - x.mean(axis=0, keepdims=True)
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    total = float(np.sum(s * s))
    if total <= 0.0:
        return np.zeros((d, d)), 0
    frac = np.cumsum(s * s) / total
    r = int(np.searchsorted(frac, tau - 1e-12) + 1)
    r = min(r, len(s))
    basis = vt[:r]
    return basis.T @ basis, r


@dataclass
class CaptureMatrix:
    """Pairwise energy-capture H over latent slots at threshold tau. Entries
    involving a degenerate slot (too few rows or zero variance) are NaN and
    the slot's flag in `valid` is False."""

    h: np.ndarray
    tau: float
    ranks: list[int]
    valid: np.ndarray


def cross_capture(dump: ActivationDump, tau: float,
                  center: bool = True) -> CaptureMatrix:
    """H[i, j] = fraction of slot j's energy inside slot i's tau-PCA
    subspace. Rows of each slot are centered per slot before measuring (set
    center=False for raw energy)."""
    n = dump.n_latents
    if n < 1:
        raise ContractError("cross_capture: empty dump")
    projectors: list[np.ndarray | None] = []
    ranks: list[int] = []
    valid = np.zeros(n, dtype=bool)
    mats: list[np.ndarray | None] = []
    for i, x in enumerate(dump.rows):
        p, r = pca_projector(x, tau)
        ranks.append(r)
        xj = np.asarray(x, dtype=np.float64)
        if center and xj.shape[0]:
            xj = xj - xj.mean(axis=0, keepdims=True)
        energy = float(np.sum(xj * xj))
        if r == 0 or xj.shape[0] < 2 or energy <= 0.0:
            projectors.append(None)
            mats.append(None)
            continue
        valid[i] = True
        projectors.append(p)
        mats.append(xj)
    h = np.full((n, n), np.nan)
    for i in range(n):
        if projectors[i] is None:
            continue
        for j in range(n):
            if mats[j] is None:
                continue
            xj = mats[j]
            proj = xj @ projectors[i]
            h[i, j] = float(np.sum(proj * proj) / np.sum(xj * xj))
    return CaptureMatrix(h, float(tau), ranks, valid)


def mean_offdiag(capture: CaptureMatrix) -> float:
    """Mean of H over valid pairs i != j; degenerate slots are excluded."""
    idx = np.flatnonzero(capture.valid)
    if idx.size < 2:
        raise ContractError("mean_offdiag: needs at least 2 non-degenerate "
                            "latents")
    vals = [capture.h[i, j] for i in idx for j in idx if i != j]
    return float(np.mean(vals))


@dataclass
class SilhouetteReport:
    global_score: float
    per_latent: list[float]
    counts: list[int]


def silhouette(dump: ActivationDump) -> SilhouetteReport:
    """Exact pairwise silhouette with latent slots as clusters.

    s_p = (b_p - a_p) / max(a_p, b_p), with a_p the mean distance to the
    point's own cluster (excluding itself) and b_p the smallest mean
    distance to another cluster; singleton-cluster points score exactly 0.
    The global score averages over all points; per-latent scores average
    within each slot (NaN for empty slots)."""
    groups = [np.asarray(r, dtype=np.float64) for r in dump.rows]
    labels = np.concatenate([np.full(g.shape[0], i)
                             for i, g in enumerate(groups)]) \
        if groups else np.zeros(0)
    nonempty = [i for i, g in enumerate(groups) if g.shape[0] > 0]
    if len(nonempty) < 2:
        raise ContractError("silhouette: needs at least 2 non-empty latents")
    points = np.concatenate([g for g in groups if g.shape[0] > 0], axis=0)
    if points.shape[0] < 3:
        raise ContractError("silhouette: needs at least 3 points")
    from scipy.spatial.distance import cdist  # deferred: slow to import

    dist = cdist(points, points)
    scores = np.zeros(points.shape[0])
    for p in range(points.shape[0]):
        own = labels == labels[p]
        n_own = int(own.sum())
        if n_own == 1:
            scores[p] = 0.0
            continue
        a = dist[p, own].sum() / (n_own - 1)
        b = np.inf
        for c in nonempty:
            if c == labels[p]:
                continue
            other = labels == c
            b = min(b, dist[p, other].mean())
        scores[p] = (b - a) / max(a, b)
    per_latent = []
    for i, g in enumerate(groups):
        if g.shape[0] == 0:
            per_latent.append(float("nan"))
        else:
            per_latent.append(float(scores[labels == i].mean()))
    return SilhouetteReport(float(scores.mean()), per_latent,
                            [g.shape[0] for g in groups])


def emit_report(capture: CaptureMatrix, sil: SilhouetteReport,
                out_dir) -> dict[str, str]:
    """Write capture.csv, silhouette.csv and summary.txt; returns the paths.

    Latents are 1-indexed in the files. Degenerate capture entries are empty
    cells; unused (empty) latents get a dash in the silhouette table."""
    os.makedirs(out_dir, exist_ok=True)
    n = capture.h.shape[0]
    cap_path = os.path.join(out_dir, "capture.csv")
    with open(cap_path, "w", encoding="utf-8") as f:
        f.write("latent," + ",".join(str(j + 1) for j in range(n)) + "\n")
        for i in range(n):
            cells = []
            for j in range(n):
                v = capture.h[i, j]
                cells.append("" if np.isnan(v) else f"{v:.6f}")
            f.write(f"{i + 1}," + ",".join(cells) + "\n")
    sil_path = os.path.join(out_dir, "silhouette.csv")
    with open(sil_path, "w", encoding="utf-8") as f:
        f.write("latent,count,silhouette\n")
        for i, (c, v) in enumerate(zip(sil.counts, sil.per_latent)):
            cell = "-" if np.isnan(v) else f"{v:.6f}"
            f.write(f"{i + 1},{c},{cell}\n")
    sum_path = os.path.join(out_dir, "summary.txt")
    try:
        h_off = mean_offdiag(capture)
        h_cell = f"{h_off:.6f}"
    except ContractError:
        h_cell = "nan"
    with open(sum_path, "w", encoding="utf-8") as f:
        f.write(f"tau={capture.tau:.4f}\n")
        f.write(f"H_off_mean={h_cell}\n")
        f.write(f"global_silhouette={sil.global_score:.6f}\n")
    return {"capture": cap_path, "silhouette": sil_path, "summary": sum_path}


def read_capture_csv(path) -> np.ndarray:
    """Re-read a capture.csv written by emit_report (round-trip helper)."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    n = len(lines) - 1
    h = np.full((n, n), np.nan)
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")[1:]
        if len(cells) != n:
            raise DataFormatError(f"{path}: row {i + 1} has {len(cells)} "
                                  f"cells, expected {n}")
        for j, c in enumerate(cells):
            if c != "":
                h[i, j] = float(c)
    return h


def collect_activations(system, items, cap_per_latent: int = 512
                        ) -> ActivationDump:
    """Run passes 1 and 2 over items and pool latent vectors by slot index
    across sites and examples, up to cap_per_latent rows per slot. Requires
    a coprocessor (the soft baseline has no produced latents)."""
    from .engine import base_prefix_pass, coprocessor_pass

    if system.coproc is None:
        raise ContractError("collect_activations: mode has no coprocessor")
    n_lat = system.bank.n_latents
    if n_lat < 1:
        raise ContractError("collect_activations: no latent slots")
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_lat)]
    filled = 0
    for it in items:
        cache = base_prefix_pass(system.base, it.prefix_ids)
        blocks = coprocessor_pass(system.coproc, cache, system.bank, it.plan)
        for blk in blocks:
            z = blk.z.values
            for k in range(n_lat):
                if len(buckets[k]) < cap_per_latent:
                    buckets[k].append(z[k].astype(np.float32))
        filled = min(len(b) for b in buckets)
        if filled >= cap_per_latent:
            break
    rows = [np.stack(b, axis=0) if b else
            np.zeros((0, system.base.config.d_model), dtype=np.float32)
            for b in buckets]
    return ActivationDump(rows, system.base.config.d_model,
                          source=system.mode.value)
