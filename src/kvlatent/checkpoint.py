"""Versioned binary checkpoints.

Layout: magic, u32 format version, u64 header length, a canonical JSON
header (sorted keys, compact separators), then raw float32 little-endian
tensor blobs in header-table order. Tensors are tagged with the role they
belong to (base, coprocessor, bank, optimizer moments). Canonical headers
plus fixed-order blobs make save -> load -> save byte-identical, which the
reproducibility tests rely on.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .engine import InjectionMode, SoftTokenBank, base_trainable, has_coprocessor
from .errors import ContractError, DataFormatError
from .model import ModelConfig, ModelParams, param_shapes
from .training import LatentSystem, OptimizerState

_MAGIC = b"KVCK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    system: LatentSystem
    opt: OptimizerState
    step: int
    seed: int
    extra: dict


def _tensor_table(system: LatentSystem, opt: OptimizerState):
    """Deterministic (role, name, array) listing for serialization."""
    out: list[tuple[str, str, np.ndarray]] = []
    for name, node in system.base.named_tensors():
        out.append(("base", name, node.values))
    if system.coproc is not None:
        for name, node in system.coproc.named_tensors():
            out.append(("coprocessor", name, node.values))
    out.append(("bank", "soft", system.bank.embeddings.values))
    for key in sorted(opt.m):
        out.append(("opt.m", key, opt.m[key]))
    for key in sorted(opt.v):
        out.append(("opt.v", key, opt.v[key]))
    return out


def save_checkpoint(path, system: LatentSystem, opt: OptimizerState,
                    step: int, seed: int, extra: dict | None = None) -> None:
    table = _tensor_table(system, opt)
    entries = []
    offset = 0
    for role, name, arr in table:
        if arr.dtype != np.float32:
            raise ContractError(f"checkpoint: tensor {role}/{name} must be "
                                f"float32, got {arr.dtype}")
        entries.append({"name": name, "role": role,
                        "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    header = {
        "version": FORMAT_VERSION,
        "mode": system.mode.value,
        "model": dataclasses.asdict(system.base.config),
        "n_latents": system.bank.n_latents,
        "optimizer": {"beta1": opt.beta1, "beta2": opt.beta2, "eps": opt.eps,
                      "weight_decay": opt.weight_decay, "step": opt.step},
        "rng": {"seed": int(seed), "next_step": int(step)},
        "step": int(step),
        "tensors": entries,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(np.uint32(FORMAT_VERSION).tobytes())
        f.write(np.uint64(len(blob)).tobytes())
        f.write(blob)
        for _, _, arr in table:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file")
        preamble = f.read(12)
        rest = f.read()
    if len(preamble) != 12:
        raise DataFormatError(f"{path}: truncated checkpoint preamble")
    version = int(np.frombuffer(preamble[:4], dtype=np.uint32)[0])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: checkpoint version {version}, "
                              f"this build reads {FORMAT_VERSION}")
    hlen = int(np.frombuffer(preamble[4:], dtype=np.uint64)[0])
    if hlen > len(rest):
        raise DataFormatError(f"{path}: truncated checkpoint header")
    payload = rest[hlen:]

    try:
        header = json.loads(rest[:hlen].decode("utf-8"))
        mode = InjectionMode(header["mode"])
        config = ModelConfig(**header["model"])
        n_latents = int(header["n_latents"])
        tensors = {}
        spans = []       # (role/name, offset, size) in table order
        for ent in header["tensors"]:
            shape = tuple(ent["shape"])
            size = int(np.prod(shape)) * 4 if shape else 4
            raw = payload[ent["offset"]: ent["offset"] + size]
            if len(raw) != size:
                raise DataFormatError(f"{path}: truncated tensor "
                                      f"{ent['role']}/{ent['name']}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            tensors[(ent["role"], ent["name"])] = arr
            spans.append((f"{ent['role']}/{ent['name']}", ent["offset"], size))
        opt_h = header["optimizer"]
        seed = int(header["rng"]["seed"])
        step = int(header["step"])
        extra = header.get("extra", {})
    except (KeyError, TypeError, ValueError) as e:
        raise DataFormatError(f"{path}: malformed checkpoint header ({e})") \
            from e

    shapes = param_shapes(config)

    def model_tensors(role: str) -> dict[str, T.TensorNode]:
        found = {name: arr for (r, name), arr in tensors.items() if r == role}
        if set(found) != set(shapes):
            raise DataFormatError(f"{path}: {role} tensor set does not match "
                                  f"the stored architecture")
        for name, arr in found.items():
            if arr.shape != shapes[name]:
                raise DataFormatError(
                    f"{path}: {role}/{name} has shape {arr.shape}, the "
                    f"stored architecture needs {shapes[name]}")
        return {name: T.TensorNode(arr) for name, arr in found.items()}

    base = ModelParams(config, "base", model_tensors("base"),
                       trainable=base_trainable(mode))
    coproc = None
    if any(role == "coprocessor" for role, _ in tensors):
        coproc = ModelParams(config, "coprocessor",
                             model_tensors("coprocessor"), trainable=True)
    elif has_coprocessor(mode):
        raise DataFormatError(f"{path}: mode {mode.value} needs coprocessor "
                              f"tensors, none stored")
    bank_arr = tensors.get(("bank", "soft"))
    if bank_arr is None:
        raise DataFormatError(f"{path}: missing soft token bank")
    if bank_arr.shape != (n_latents, config.d_model):
        raise DataFormatError(
            f"{path}: soft token bank has shape {bank_arr.shape}, the header "
            f"needs ({n_latents}, {config.d_model})")
    bank = SoftTokenBank(T.TensorNode(bank_arr, requires_grad=True))
    system = LatentSystem(mode, base, coproc, bank)
    opt = OptimizerState(beta1=float(opt_h["beta1"]),
                         beta2=float(opt_h["beta2"]),
                         eps=float(opt_h["eps"]),
                         weight_decay=float(opt_h["weight_decay"]),
                         step=int(opt_h["step"]))
    for (role, name), arr in tensors.items():
        if role == "opt.m":
            opt.m[name] = arr
        elif role == "opt.v":
            opt.v[name] = arr
    if set(opt.m) != set(opt.v):
        raise DataFormatError(f"{path}: optimizer moments m and v name "
                              f"different tensors")
    trainable = {name: node.values.shape for name, node in system.trainable()}
    for name in opt.m:
        if not (trainable.get(name) == opt.m[name].shape == opt.v[name].shape):
            raise DataFormatError(
                f"{path}: optimizer moments for {name} match no trainable "
                f"tensor's shape")
    end = 0
    for what, offset, size in spans:
        if offset != end:
            raise DataFormatError(f"{path}: tensor {what} starts at payload "
                                  f"byte {offset}, expected {end}")
        end += size
    if end != len(payload):
        raise DataFormatError(f"{path}: payload has {len(payload)} bytes, "
                              f"the tensor table covers {end}")
    return Checkpoint(system, opt, step, seed, extra)
