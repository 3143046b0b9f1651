"""Span tracing around the package's public functions, from outside it.

The tracer swaps module attributes for timing wrappers. Functions that the
package imports by name (``forward``, ``concat_cache``, the mask functions)
are looked up through the importing module's globals, so each wrapper goes
on every module that holds the name, not only on the defining one.

Two kinds of wrapper exist:

* layer spans (training, model, masks, engine, interp, tasks) are recorded
  one by one with name, start, end, parent and self time, kept in memory
  and written out when the run ends;
* autodiff op constructors (the 14 kinds in ``tensor._DISPATCH``) run
  hundreds of thousands of times per round, so they are summed per round
  and kind instead. They are leaves, so their sums are exact, and their
  time is still charged to the enclosing span's children.

A span's self time is its duration minus the time covered by its direct
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

# op kind in tensor._DISPATCH -> constructor name in kvlatent.tensor
OP_FUNCTIONS = {
    "matmul": "matmul", "add": "add", "mul": "mul",
    "softmax_rows": "softmax_rows", "layer_norm": "layer_norm",
    "gelu": "gelu", "embedding_lookup": "embedding_lookup",
    "slice": "slice_block", "concat_rows": "concat_rows",
    "transpose": "transpose", "scale": "scale", "sum": "sum_all",
    "rope": "rope", "cross_entropy": "cross_entropy",
}

FORWARD_PASSES = ("prefix", "coprocessor", "decode", "token")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    round: int
    rows: int = 0
    self_s: float = 0.0


@dataclass
class _Open:
    index: int
    name: str
    child_s: float = 0.0
    # how many direct children of each name have started so far
    seen: dict[str, int] = field(default_factory=dict)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # (round, kind) -> [calls, seconds]
    ops: dict[tuple[int, str], list] = field(default_factory=dict)
    round: int = -1
    _stack: list[_Open] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- wrappers ---------------------------------------------------------

    def _layer(self, name, fn, detail=None):
        """Wrap fn in a recorded span; detail(args, kwargs, parent frame or
        None) returns (name suffix or None, rows)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            full, rows = name, 0
            if parent is not None:
                parent.seen[name] = parent.seen.get(name, 0) + 1
            if detail is not None:
                suffix, rows = detail(args, kwargs, parent)
                if suffix:
                    full = f"{name}.{suffix}"
            span = Span(full, 0.0, 0.0, parent.index if parent else -1,
                        tracer.round, rows)
            tracer.spans.append(span)
            frame = _Open(len(tracer.spans) - 1, full)
            tracer._stack.append(frame)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                dur = span.end - span.start
                span.self_s = dur - frame.child_s
                if tracer._stack:
                    tracer._stack[-1].child_s += dur

        return traced

    def _op(self, kind, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                acc = tracer.ops.setdefault((tracer.round, kind), [0, 0.0])
                acc[0] += 1
                acc[1] += dur
                if tracer._stack:
                    tracer._stack[-1].child_s += dur

        return traced

    # -- installing -------------------------------------------------------

    def _patch(self, modules, attr, make):
        original = getattr(modules[0], attr)
        wrapper = make(original)
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the same "
                                   f"object as {modules[0].__name__}.{attr}")
            self._patches.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from kvlatent import (engine, interp, masks, model, tasks, tensor,
                              training)
        from kvlatent.tasks import corpus, countdown

        for kind, fn_name in OP_FUNCTIONS.items():
            self._patch([tensor], fn_name,
                        lambda fn, k=kind: self._op(k, fn))

        def layer(modules, attr, name, detail=None):
            self._patch(modules, attr,
                        lambda fn: self._layer(name, fn, detail))

        layer([training], "train_step", "training.train_step",
              lambda a, k, _: (_arg(a, k, 0, "system").mode.value, 0))
        layer([training], "run_three_pass", "training.run_three_pass")
        layer([training], "adamw_step", "training.adamw_step")
        layer([tensor], "backward", "tensor.backward")
        layer([model, engine, training], "forward", "model.forward",
              _forward_detail)
        layer([model, engine, training], "concat_cache", "model.concat_cache")
        layer([masks, engine, training], "build_attention_mask",
              "masks.build_attention_mask")
        layer([masks, engine, training], "causal_mask", "masks.causal_mask")
        layer([masks, engine, training], "decode_mask_cache_concat",
              "masks.decode_mask_cache_concat")
        layer([engine], "generate_greedy", "engine.generate_greedy")
        layer([engine], "base_prefix_pass", "engine.base_prefix_pass")
        layer([engine], "coprocessor_pass", "engine.coprocessor_pass")
        layer([interp], "collect_activations", "interp.collect_activations")
        layer([interp], "cross_capture", "interp.cross_capture")
        layer([interp], "silhouette", "interp.silhouette")
        layer([corpus, tasks], "synth_corpus", "tasks.synth_corpus")
        layer([corpus, tasks], "ingest_text_corpus",
              "tasks.ingest_text_corpus")
        layer([countdown, tasks], "gen_countdown", "tasks.gen_countdown")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def totals(self, rnd: int) -> dict[str, float]:
        """Per-name sums for one round: '<name>.s', '<name>.calls',
        '<name>.rows' for spans, and '<kind>' entries for ops."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.round != rnd:
                continue
            out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + (s.end - s.start)
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.rows"] = out.get(f"{s.name}.rows", 0) + s.rows
        for kind in OP_FUNCTIONS:
            calls, secs = self.ops.get((rnd, kind), (0, 0.0))
            out[f"tensor.{kind}.s"] = secs
            out[f"tensor.{kind}.calls"] = calls
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name over the whole run, with op time
        listed under its own kind."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        for (_, kind), (_, secs) in self.ops.items():
            key = f"tensor.{kind}"
            out[key] = out.get(key, 0.0) + secs
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name,
                                    "start": s.start, "end": s.end,
                                    "parent": s.parent, "round": s.round,
                                    "rows": s.rows, "self_s": s.self_s})
                        + "\n")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _forward_detail(args, kwargs, parent):
    """Which pass a model.forward call belongs to. The engine's pass
    functions name it through the parent span: under generate_greedy the
    first forward is the decode pass over latents and forced ids, and every
    later one is a one-token step. run_three_pass runs all three passes
    under one span, so there the arguments decide."""
    params = _arg(args, kwargs, 0, "params")
    rows = _arg(args, kwargs, 1, "input_embeddings").values.shape[0]
    pname = parent.name if parent is not None else ""
    if pname == "engine.base_prefix_pass":
        return "prefix", rows
    if pname == "engine.coprocessor_pass":
        return "coprocessor", rows
    if pname == "engine.generate_greedy":
        first = parent.seen["model.forward"] == 1
        return ("decode" if first else "token"), rows
    if _arg(args, kwargs, 2, "past") is None:
        return "prefix", rows
    if params.role == "coprocessor":
        return "coprocessor", rows
    return "decode", rows
