"""Checkpoint format: byte-identical re-serialization, exact tensor and
optimizer round-trips, trainability restoration by mode, and rejection of
malformed files."""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvlatent.checkpoint import (FORMAT_VERSION, load_checkpoint,
                                 save_checkpoint)
from kvlatent.engine import InjectionMode
from kvlatent.errors import ContractError, DataFormatError
from kvlatent.model import ModelConfig
from kvlatent.training import (OptimizerState, ScheduleConfig, init_system,
                               pretrain, pretrain_items, train_step)

CFG = ModelConfig(n_layers=2, d_model=16, n_heads=2, vocab_size=13,
                  max_positions=64)
SCHED = ScheduleConfig(seq_len=12, n_sites=2, n_latents=2, n_ahead=2)


def trained_system(mode, steps=3, seed=50):
    system = init_system(mode, CFG, SCHED.n_latents, seed=seed)
    opt = OptimizerState()
    rng = np.random.default_rng(seed + 1)
    for s in range(steps):
        windows = rng.integers(0, 13, (3, SCHED.seq_len + 1))
        items = pretrain_items(windows, SCHED, np.random.default_rng(s))
        train_step(system, items, opt, 1e-3)
    return system, opt


def test_save_load_save_is_byte_identical(tmp_path):
    system, opt = trained_system(InjectionMode.EMBEDDING_COFINETUNED)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, system, opt, step=3, seed=50,
                    extra={"task": "corpus"})
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.system, ck.opt, step=ck.step, seed=ck.seed,
                    extra=ck.extra)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mode", [InjectionMode.EMBEDDING_FROZEN_BASE,
                                  InjectionMode.CACHE_CONCAT_FROZEN_BASE,
                                  InjectionMode.EMBEDDING_COFINETUNED,
                                  InjectionMode.SOFT_EMBEDDING_UNIFIED])
def test_round_trip_preserves_everything(mode, tmp_path):
    system, opt = trained_system(mode)
    path = tmp_path / "ck.bin"
    extra = {"task": "countdown", "nested": {"a": [1, 2]}}
    save_checkpoint(path, system, opt, step=3, seed=50, extra=extra)
    ck = load_checkpoint(path)
    assert ck.system.mode is mode
    assert ck.step == 3 and ck.seed == 50
    assert ck.extra == extra
    assert ck.system.base.config == CFG
    for (ka, va), (kb, vb) in zip(system.base.named_tensors(),
                                  ck.system.base.named_tensors()):
        assert ka == kb
        np.testing.assert_array_equal(va.values, vb.values)
    if system.coproc is None:
        assert ck.system.coproc is None
    else:
        for (_, va), (_, vb) in zip(system.coproc.named_tensors(),
                                    ck.system.coproc.named_tensors()):
            np.testing.assert_array_equal(va.values, vb.values)
    np.testing.assert_array_equal(system.bank.embeddings.values,
                                  ck.system.bank.embeddings.values)
    assert ck.opt.step == opt.step
    assert set(ck.opt.m) == set(opt.m)
    for k in opt.m:
        np.testing.assert_array_equal(ck.opt.m[k], opt.m[k])
        np.testing.assert_array_equal(ck.opt.v[k], opt.v[k])


@pytest.mark.parametrize("mode,base_trains", [
    (InjectionMode.EMBEDDING_FROZEN_BASE, False),
    (InjectionMode.EMBEDDING_COFINETUNED, True),
])
def test_trainability_restored_by_mode(mode, base_trains, tmp_path):
    system, opt = trained_system(mode, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)
    ck = load_checkpoint(path)
    assert ck.system.base.trainable == base_trains
    assert all(n.requires_grad == base_trains
               for _, n in ck.system.base.named_tensors())
    assert ck.system.coproc.trainable
    assert ck.system.bank.embeddings.requires_grad


def test_resumed_training_matches_uninterrupted(tmp_path):
    rng = np.random.default_rng(51)
    windows = rng.integers(0, 13, (8, SCHED.seq_len + 1))

    def fresh():
        return init_system(InjectionMode.EMBEDDING_COFINETUNED, CFG,
                           SCHED.n_latents, seed=52), OptimizerState()

    sys_a, opt_a = fresh()
    pretrain(sys_a, windows, SCHED, opt_a, 1e-3, 2, 3, 6, seed=52)

    sys_b, opt_b = fresh()
    pretrain(sys_b, windows, SCHED, opt_b, 1e-3, 2, 3, 3, seed=52)
    path = tmp_path / "mid.bin"
    save_checkpoint(path, sys_b, opt_b, step=3, seed=52)
    ck = load_checkpoint(path)
    pretrain(ck.system, windows, SCHED, ck.opt, 1e-3, 2, 3, 6, seed=52,
             start_step=ck.step)

    for (ka, va), (_, vb) in zip(sys_a.base.named_tensors(),
                                 ck.system.base.named_tensors()):
        assert np.array_equal(va.values, vb.values), ka
    np.testing.assert_array_equal(sys_a.bank.embeddings.values,
                                  ck.system.bank.embeddings.values)


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNK" + b"\0" * 64)
    with pytest.raises(DataFormatError, match="not a checkpoint"):
        load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    system, opt = trained_system(InjectionMode.SOFT_EMBEDDING_UNIFIED, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)
    data = bytearray(path.read_bytes())
    data[4:8] = np.uint32(FORMAT_VERSION + 1).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    system, opt = trained_system(InjectionMode.EMBEDDING_FROZEN_BASE, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)
    data = path.read_bytes()
    (tmp_path / "t.bin").write_bytes(data[:-100])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(tmp_path / "t.bin")


@functools.lru_cache(maxsize=None)
def _valid_checkpoint_bytes() -> bytes:
    system, opt = trained_system(InjectionMode.EMBEDDING_FROZEN_BASE, steps=1)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ck.bin")
        save_checkpoint(path, system, opt, step=1, seed=50)
        with open(path, "rb") as f:
            return f.read()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_strict_prefix_is_a_data_format_error(data):
    blob = _valid_checkpoint_bytes()
    header_end = 16 + int(np.frombuffer(blob[8:16], dtype=np.uint64)[0])
    # half the draws land in the preamble or header, where parsing happens
    cut = data.draw(st.one_of(st.integers(0, header_end),
                              st.integers(0, len(blob) - 1)))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cut.bin")
        with open(path, "wb") as f:
            f.write(blob[:cut])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


def _patch_header(path, out, fn):
    """Rewrite the JSON header through fn, keeping the payload."""
    data = path.read_bytes()
    hlen = int(np.frombuffer(data[8:16], dtype=np.uint64)[0])
    header = json.loads(data[16:16 + hlen])
    header = fn(header)
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode()
    out.write_bytes(data[:8] + np.uint64(len(blob)).tobytes() + blob
                    + data[16 + hlen:])


def test_rejects_missing_bank(tmp_path):
    system, opt = trained_system(InjectionMode.EMBEDDING_FROZEN_BASE, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)

    def drop_bank(h):
        h["tensors"] = [t for t in h["tensors"] if t["role"] != "bank"]
        return h

    _patch_header(path, tmp_path / "nb.bin", drop_bank)
    with pytest.raises(DataFormatError, match="bank"):
        load_checkpoint(tmp_path / "nb.bin")


def test_rejects_missing_coprocessor_for_dual_mode(tmp_path):
    system, opt = trained_system(InjectionMode.EMBEDDING_FROZEN_BASE, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)

    def drop_coproc(h):
        h["tensors"] = [t for t in h["tensors"]
                        if t["role"] != "coprocessor"]
        return h

    _patch_header(path, tmp_path / "nc.bin", drop_coproc)
    with pytest.raises(DataFormatError, match="coprocessor"):
        load_checkpoint(tmp_path / "nc.bin")


def test_rejects_wrong_tensor_name_set(tmp_path):
    system, opt = trained_system(InjectionMode.SOFT_EMBEDDING_UNIFIED, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)

    def rename(h):
        for t in h["tensors"]:
            if t["name"] == "embed":
                t["name"] = "wrong_name"
        return h

    _patch_header(path, tmp_path / "rn.bin", rename)
    with pytest.raises(DataFormatError, match="tensor set"):
        load_checkpoint(tmp_path / "rn.bin")


def test_rejects_malformed_header_fields(tmp_path):
    system, opt = trained_system(InjectionMode.SOFT_EMBEDDING_UNIFIED, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)

    def break_model(h):
        del h["model"]["n_layers"]
        return h

    _patch_header(path, tmp_path / "bm.bin", break_model)
    with pytest.raises(DataFormatError, match="malformed"):
        load_checkpoint(tmp_path / "bm.bin")


def _saved(tmp_path):
    system, opt = trained_system(InjectionMode.EMBEDDING_FROZEN_BASE, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)
    return path


def _edit_entries(fn):
    """A header patch that applies fn to every tensor table entry."""
    def patch(h):
        for t in h["tensors"]:
            fn(t)
        return h
    return patch


def _where(role, tensor, **changes):
    return _edit_entries(lambda t: t.update(changes)
                         if (t["role"], t["name"]) == (role, tensor) else None)


# each new shape keeps the element count, so the payload still lines up
@pytest.mark.parametrize("role,name,shape", [
    ("base", "unembed", [13, 16]),                  # (d_model, vocab) reversed
    ("coprocessor", "layers.1.mlp.w1", [64, 16]),
    ("bank", "soft", [4, 8]),                       # header says (2, 16)
])
def test_rejects_tensor_of_the_wrong_shape(tmp_path, role, name, shape):
    _patch_header(_saved(tmp_path), tmp_path / "bad.bin",
                  _where(role, name, shape=shape))
    with pytest.raises(DataFormatError, match="has shape"):
        load_checkpoint(tmp_path / "bad.bin")


@pytest.mark.parametrize("change", [
    dict(name="bank.other"),        # m and v for a tensor that does not exist
    dict(shape=[4, 8]),             # m and v of the wrong shape
])
def test_rejects_moments_that_match_no_trainable_tensor(tmp_path, change):
    patch = _edit_entries(lambda t: t.update(change)
                          if t["role"] in ("opt.m", "opt.v")
                          and t["name"] == "bank.soft" else None)
    _patch_header(_saved(tmp_path), tmp_path / "bad.bin", patch)
    with pytest.raises(DataFormatError, match="optimizer moments"):
        load_checkpoint(tmp_path / "bad.bin")


def test_rejects_m_and_v_for_different_tensors(tmp_path):
    _patch_header(_saved(tmp_path), tmp_path / "bad.bin",
                  _where("opt.m", "bank.soft", name="bank.other"))
    with pytest.raises(DataFormatError, match="different tensors"):
        load_checkpoint(tmp_path / "bad.bin")


@pytest.mark.parametrize("shift", [-4, 4])
def test_rejects_overlapping_or_gapped_offsets(tmp_path, shift):
    def move_bank(t):
        if t["role"] == "bank":
            t["offset"] += shift

    _patch_header(_saved(tmp_path), tmp_path / "bad.bin",
                  _edit_entries(move_bank))
    with pytest.raises(DataFormatError, match="starts at payload byte"):
        load_checkpoint(tmp_path / "bad.bin")


def test_rejects_trailing_bytes(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(DataFormatError, match="payload has"):
        load_checkpoint(path)


def test_save_rejects_non_float32_tensor(tmp_path):
    system, opt = trained_system(InjectionMode.SOFT_EMBEDDING_UNIFIED, steps=1)
    node = system.base.tensors["embed"]
    node.values = node.values.astype(np.float64)
    with pytest.raises(ContractError, match="float32"):
        save_checkpoint(tmp_path / "ck.bin", system, opt, step=1, seed=50)


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    system, opt = trained_system(InjectionMode.EMBEDDING_FROZEN_BASE, steps=1)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, system, opt, step=1, seed=50)
    assert path.exists()
    assert not (tmp_path / "ck.bin.tmp").exists()
