"""The two workloads: inputs made from a seed, and one round of work.

A round takes the four training modes in turn, each on a fresh copy of the
same initial weights, through five phases: training for a fixed number of
steps, a held-out forward-only loss, fixed-length greedy generations with
no stop id, one-token generations, and (dual modes only) the latent
diagnostics. Every round does exactly the same work on the same inputs, so
every round must produce exactly the same ids and losses.

Only the package's public functions are called, and always through their
module (``training.train_step``, not an imported name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from kvlatent import checkpoint, engine, interp, model, tasks, training
from kvlatent import tensor as T
from kvlatent.masks import AugmentationPlan
from kvlatent.tasks import countdown

import checks

MODES = engine.TRAINING_MODES
LR = 3e-3
WARMUP = 10
TAU = 0.9
PHASES = ("train", "eval", "gen", "first", "interp")


@dataclass
class Inputs:
    """Everything a round consumes, made once in set-up."""

    name: str
    seed: int
    config: model.ModelConfig
    n_latents: int
    train_batches: list[list[training.SequenceItem]]
    # each eval op is one call: (name, function of the system, tokens)
    eval_ops: list
    prompts: list[tuple[np.ndarray, list[int]]]   # (question ids, forced)
    n_long: int            # the first n_long prompts also get long runs
    gen_new: int
    interp_items: list[training.SequenceItem]
    fd_items: int          # batch size of the float64 gradient check
    witnesses: list = field(default_factory=list)   # (expr, nums, target)


def _item_tokens(items) -> int:
    """Prefix plus ahead tokens; latent slots are not counted."""
    return sum(it.prefix_ids.size + it.ahead_inputs.size for it in items)


# ---------------------------------------------------------------------------
# pretrain: corpus pretraining at the size of acceptance gate 06


PRETRAIN_CONFIG = model.ModelConfig(n_layers=4, d_model=128, n_heads=4,
                                    vocab_size=263, max_positions=192)
PRETRAIN_SCHED = training.ScheduleConfig(seq_len=128, n_sites=4,
                                         n_latents=8, n_ahead=8)
PRETRAIN_SIZES = dict(train_steps=2, batch=8, eval_windows=8, long=3,
                      prompts=16, prompt_len=96, gen_new=32, interp_items=20,
                      fd_items=2, corpus_bytes=80_000)


def pretrain_inputs(seed: int, out_dir: str) -> Inputs:
    s = PRETRAIN_SIZES
    sched = PRETRAIN_SCHED
    path = os.path.join(out_dir, "corpus.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(tasks.synth_corpus(s["corpus_bytes"], seed))
    windows = tasks.ingest_text_corpus(path, sched.seq_len + 1)
    order = np.random.default_rng([seed, 0xB1]).permutation(len(windows))
    cursor = 0

    def take(n):
        nonlocal cursor
        rows = windows[order[cursor:cursor + n]]
        cursor += n
        if rows.shape[0] != n:
            raise RuntimeError(f"corpus of {len(windows)} windows too small")
        return rows

    train_batches = [
        training.pretrain_items(take(s["batch"]), sched,
                                np.random.default_rng([seed, 0x51, step]))
        for step in range(1, s["train_steps"] + 1)]
    eval_windows = take(s["eval_windows"])
    eval_tokens = s["eval_windows"] * (sched.seq_len + sched.n_sites
                                       * sched.n_ahead)

    def eval_ppl(system):
        return training.evaluate_perplexity(system, eval_windows, sched, seed,
                                            batch_size=s["batch"])

    n = s["prompt_len"]
    prompts = [(row[:n].copy(), [int(row[n])]) for row in take(s["prompts"])]
    interp_items = training.pretrain_items(
        take(s["interp_items"]), sched, np.random.default_rng([seed, 0x1A]))
    return Inputs("pretrain", seed, PRETRAIN_CONFIG, sched.n_latents,
                  train_batches, [("evaluate_perplexity", eval_ppl,
                                   eval_tokens)],
                  prompts, s["long"], s["gen_new"], interp_items,
                  s["fd_items"])


# ---------------------------------------------------------------------------
# countdown: fine-tuning and inference at the size of acceptance gate 07


COUNTDOWN_CONFIG = model.ModelConfig(n_layers=2, d_model=64, n_heads=4,
                                     vocab_size=263, max_positions=176)
COUNTDOWN_SIZES = dict(n_latents=4, train_steps=4, batch=8, eval_batches=5,
                       long=8, prompts=48, gen_new=28, interp_items=80,
                       fd_items=8)


def countdown_inputs(seed: int, out_dir: str) -> Inputs:
    s = COUNTDOWN_SIZES
    tok = tasks.ByteTokenizer()
    # Operands are single digits, so a question's length is set by its
    # operand count and its target's digit count. Cycling through the four
    # classes gives every seed the same lengths, hence the same work.
    classes = [(k, lo, hi) for k in (3, 5) for lo, hi in ((0, 9), (10, 99))]
    rngs = [np.random.default_rng([seed, k, lo]) for k, lo, _ in classes]
    n_total = (s["train_steps"] * s["batch"] + s["eval_batches"] * s["batch"]
               + s["prompts"] + s["interp_items"])
    instances = [tasks.gen_countdown(k, rngs[c], operand_range=(1, 9),
                                     target_range=(lo, hi))
                 for i in range(n_total)
                 for c, (k, lo, hi) in [(i % 4, classes[i % 4])]]

    def question(inst):
        prompt, answer = countdown.format_countdown(inst, tok, s["n_latents"])
        q, n_lat = countdown.split_prompt(prompt, tok)
        return np.asarray(q, dtype=np.intp), answer, n_lat

    def item(inst):
        q, answer, n_lat = question(inst)
        return training.build_finetune_item(q, answer, n_lat, tok.eos)

    pool = iter(instances)

    def take(n):
        return [next(pool) for _ in range(n)]

    train_batches = [[item(x) for x in take(s["batch"])]
                     for _ in range(s["train_steps"])]
    eval_ops = []
    for b in range(s["eval_batches"]):
        batch = [item(x) for x in take(s["batch"])]
        eval_ops.append((f"run_three_pass.{b}",
                         lambda system, batch=batch:
                         float(training.run_three_pass(system, batch)[0]
                               .values[0, 0]),
                         _item_tokens(batch)))
    prompts = [(question(x)[0], [tok.answer_open]) for x in take(s["prompts"])]
    interp_items = [item(x) for x in take(s["interp_items"])]
    witnesses = [(x.solution, x.nums, x.target) for x in instances]
    return Inputs("countdown", seed, COUNTDOWN_CONFIG, s["n_latents"],
                  train_batches, eval_ops, prompts, s["long"], s["gen_new"],
                  interp_items, s["fd_items"], witnesses)


MAKE_INPUTS = {"pretrain": pretrain_inputs, "countdown": countdown_inputs}


# ---------------------------------------------------------------------------
# systems


@dataclass
class InitialWeights:
    base: model.ModelParams
    bank: np.ndarray


def initial_weights(inp: Inputs) -> InitialWeights:
    start = training.init_system(engine.InjectionMode.SOFT_EMBEDDING_UNIFIED,
                                 inp.config, inp.n_latents, seed=inp.seed)
    return InitialWeights(start.base, start.bank.embeddings.values.copy())


def fresh_system(init: InitialWeights, mode) -> training.LatentSystem:
    """A new system for one mode from a copy of the initial weights: the
    coprocessor starts as a copy of the base, as in training.init_system."""
    base = init.base.clone(role="base", trainable=engine.base_trainable(mode))
    coproc = init.base.clone(role="coprocessor", trainable=True) \
        if engine.has_coprocessor(mode) else None
    bank = engine.SoftTokenBank(T.tensor(init.bank.copy(),
                                         requires_grad=True))
    return training.LatentSystem(mode, base, coproc, bank)


def float64_system(system: training.LatentSystem) -> training.LatentSystem:
    coproc = system.coproc.to_float64() if system.coproc is not None else None
    bank = engine.SoftTokenBank(T.tensor(system.bank.embeddings.values,
                                         requires_grad=True,
                                         dtype=np.float64))
    return training.LatentSystem(system.mode, system.base.to_float64(),
                                 coproc, bank)


# ---------------------------------------------------------------------------
# one round


@dataclass
class PhaseStats:
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    tokens: int = 0
    # seconds of each operation of the phase, keyed like Round.outputs
    durations: dict[str, float] = field(default_factory=dict)


class Round:
    """Timing and outputs of one round."""

    def __init__(self, checker=None):
        self.phases = {p: PhaseStats() for p in PHASES}
        self.outputs: dict[str, object] = {}
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.checker = checker

    def run(self, phase: str, key: str, fn, tokens=None):
        """Run one operation, timed; a failure is counted and gives None."""
        st = self.phases[phase]
        st.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:   # counted as a failed operation
            st.failed += 1
            self.errors.append(f"{key}: {type(e).__name__}: {e}")
            self.outputs[key] = None
            return None
        dt = time.perf_counter() - t0
        if self.checker is not None:
            self.checker.mark("round work")
        st.seconds += dt
        st.durations[key] = dt
        st.tokens += tokens(out) if callable(tokens) else (tokens or 0)
        self.outputs[key] = out
        return out


def run_round(inp: Inputs, init: InitialWeights, checker=None) -> Round:
    rnd = Round(checker)
    t_round = time.perf_counter()
    for mode in MODES:
        m = mode.value
        system = fresh_system(init, mode)
        opt = training.OptimizerState()
        counter = engine.PassCounter() if checker else None
        if checker:
            checker.before_train(system)
        for step, batch in enumerate(inp.train_batches, 1):
            lr = training.lr_at(step, LR, WARMUP)
            rnd.run("train", f"{m}.train.{step}",
                    lambda: training.train_step(system, batch, opt, lr,
                                                counter, step),
                    tokens=_item_tokens(batch))
        if checker:
            checker.after_train(system, opt, counter, inp)
        for name, fn, tokens in inp.eval_ops:
            rnd.run("eval", f"{m}.eval.{name}", lambda: fn(system), tokens)
        for i, (q, forced) in enumerate(inp.prompts[:inp.n_long]):
            ids = rnd.run("gen", f"{m}.gen.{i}",
                          lambda: _generate(system, inp, q, forced,
                                            inp.gen_new),
                          tokens=len)
            if checker and ids is not None:
                checker.generated(system, inp, q, forced, ids)
        for i, (q, forced) in enumerate(inp.prompts):
            rnd.run("first", f"{m}.first.{i}",
                    lambda: _generate(system, inp, q, forced, 1), tokens=1)
        if engine.has_coprocessor(mode):
            dump = rnd.run("interp", f"{m}.interp.collect",
                           lambda: interp.collect_activations(
                               system, inp.interp_items))
            if dump is not None:
                cap = rnd.run("interp", f"{m}.interp.capture",
                              lambda: interp.cross_capture(dump, TAU))
                sil = rnd.run("interp", f"{m}.interp.silhouette",
                              lambda: interp.silhouette(dump))
                if checker:
                    checker.diagnostics(dump, cap, sil)
                # record plain values so rounds compare exactly
                rnd.outputs[f"{m}.interp.capture"] = \
                    None if cap is None else cap.h.ravel().tolist()
                rnd.outputs[f"{m}.interp.silhouette"] = None if sil is None \
                    else [sil.global_score] + list(sil.per_latent)
            rnd.outputs.pop(f"{m}.interp.collect", None)
        if checker:
            checker.end_mode(rnd, m, inp)
    rnd.wall_s = time.perf_counter() - t_round
    return rnd


def _generate(system, inp, q, forced, max_new):
    return engine.generate_greedy(system.mode, system.base, system.coproc,
                                  system.bank, q, inp.n_latents, forced,
                                  max_new=max_new, stop_id=None)


# ---------------------------------------------------------------------------
# the check round's references


class Checker:
    """Runs alongside the first round and checks its outputs against
    computations made apart from the code path under test.

    The references must not set the process's peak RSS, which is meant to
    come from the rounds' own work: they keep no weight copies (the frozen
    base is compared by digest), build at most one forward graph at a time,
    and the checkpoint round trip, which loads a second system, waits in
    saved_systems until peak RSS has been read. mark() notes after every
    round operation and every reference computation which of the two last
    raised the peak."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.near_ties = 0
        self.checked_tokens = 0
        self.nodes_per_step: list[int] = []
        self.nodes_per_token = 0
        self._base_before = None
        self._saved: list[tuple[str, float]] = []   # (checkpoint, loss)
        self.peak_kb = 0
        self.peak_set_by = ""
        self.mark("set-up")

    def mark(self, who: str):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if kb > self.peak_kb:
            self.peak_kb, self.peak_set_by = kb, who

    def before_train(self, system):
        self._base_before = None
        if not engine.base_trainable(system.mode):
            self._base_before = checks.tensor_digests(
                (k, v.values) for k, v in system.base.named_tensors())
        self.mark("reference computation")

    def after_train(self, system, opt, counter, inp: Inputs):
        mode = system.mode
        checks.check_pass_count(counter.full_passes, len(inp.train_batches),
                                engine.has_coprocessor(mode))
        if self._base_before is not None:
            checks.check_bit_identical(
                self._base_before, checks.tensor_digests(
                    (k, v.values) for k, v in system.base.named_tensors()),
                f"{mode.value} frozen base")
        loss, _ = training.run_three_pass(system, inp.train_batches[0])
        self.nodes_per_step.append(count_graph_nodes(loss))
        packed = float(loss.values[0, 0])
        del loss
        path = os.path.join(self.out_dir, f"{mode.value}.ckpt")
        checkpoint.save_checkpoint(path, system, opt, step=1, seed=0)
        self._saved.append((path, packed))
        self.mark("reference computation")

    def saved_systems(self, inp: Inputs):
        """For each mode's trained system, saved by the check round: load,
        then save gives identical bytes; the loaded system reproduces the
        packed batch loss exactly; and that loss equals the row-weighted
        mean of per-item losses computed one item at a time."""
        batch = inp.train_batches[0]
        for path, packed in self._saved:
            loaded = checkpoint.load_checkpoint(path)
            what = loaded.system.mode.value
            again_path = path + ".again"
            checkpoint.save_checkpoint(again_path, loaded.system, loaded.opt,
                                       loaded.step, loaded.seed)
            checks.check_same_bytes(_read(path), _read(again_path),
                                    f"{what} save-load-save")
            again = float(training.run_three_pass(loaded.system, batch)[0]
                          .values[0, 0])
            checks.require(again == packed, f"{what}: loaded system loss "
                                            f"{again!r} vs {packed!r}")
            checks.check_packed_loss(packed, [
                checks.nll_rows(per_item_logits(loaded.system, it),
                                it.targets)
                for it in batch])
            os.remove(path)
            os.remove(again_path)

    def generated(self, system, inp, q, forced, ids):
        logits = reference_logits(system, inp.n_latents, q, forced, ids)
        self.near_ties += checks.check_greedy_ids(ids, logits)
        self.checked_tokens += len(ids)
        if not self.nodes_per_token:
            self.nodes_per_token = one_token_nodes(system, q)
        self.mark("reference computation")

    def diagnostics(self, dump, cap, sil):
        if cap is not None:
            checks.check_capture(cap.h, cap.valid, TAU)
        if sil is not None:
            checks.check_silhouette(sil.global_score, sil.per_latent,
                                    dump.rows)
        self.mark("reference computation")

    def end_mode(self, rnd: Round, m: str, inp: Inputs):
        for i in range(inp.n_long):
            one, long = rnd.outputs[f"{m}.first.{i}"], rnd.outputs[f"{m}.gen.{i}"]
            if one is not None and long is not None:
                checks.check_first_token(one, long)


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def count_graph_nodes(root) -> int:
    """Op nodes reachable from root through .inputs (leaves not counted)."""
    seen: set[int] = set()
    stack = [root]
    n = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op is not None:
            n += 1
        stack.extend(node.inputs)
    return n


def one_token_nodes(system, q) -> int:
    """Graph nodes built by one incremental one-token forward against a
    detached prefix cache, as generate_greedy runs it."""
    base = system.base
    cache = model.detach_cache(engine.base_prefix_pass(base, q))
    emb = model.embed_tokens(base, [int(q[-1])])
    logits, _, _ = model.forward(base, emb, cache,
                                 np.ones((1, cache.length() + 1), dtype=bool),
                                 np.asarray([q.size], dtype=np.int64))
    return count_graph_nodes(logits)


def _site_lists(item, plan):
    return [item.ahead_inputs[s * plan.n_ahead:(s + 1) * plan.n_ahead]
            for s in range(plan.n_sites)]


def per_item_logits(system, item) -> np.ndarray:
    """One item's ahead-row logits through the engine's single-sequence
    passes, one pass function at a time."""
    plan = item.plan
    if engine.has_coprocessor(system.mode):
        cache = engine.base_prefix_pass(system.base, item.prefix_ids)
        blocks = engine.coprocessor_pass(system.coproc, cache, system.bank,
                                         plan)
        parts = engine.decode_pass(system.base, cache, blocks, plan,
                                   _site_lists(item, plan), system.mode)
    else:
        parts = engine.soft_embedding_pass(system.base, system.bank,
                                           item.prefix_ids, plan,
                                           _site_lists(item, plan))
    return np.concatenate([p.values for p in parts], axis=0)


def reference_logits(system, n_latents, q, forced, ids) -> np.ndarray:
    """Logits for every generated id from one non-incremental decode pass
    over the question, latents, forced ids and the generated prefix."""
    t = int(np.asarray(q).size)
    ahead = list(forced) + list(ids[:-1])
    plan = AugmentationPlan(seq_len=t + len(ahead), sites=(t,),
                            n_latents=n_latents, n_ahead=len(ahead),
                            cached_len=t)
    item = training.SequenceItem(q, plan, ahead, np.zeros(len(ahead)))
    return per_item_logits(system, item)[len(forced) - 1:]


# ---------------------------------------------------------------------------
# checks outside the rounds


def directional_derivatives(system, batch, seed: int, eps: float = 1e-4):
    """(autodiff gradients, unit direction, central difference of the batch
    loss along that direction) for a float64 system."""
    params = [p for _, p in system.trainable()]
    loss, _ = training.run_three_pass(system, batch)
    T.backward(loss)
    grads = [p.grad if p.grad is not None else np.zeros_like(p.values)
             for p in params]
    rng = np.random.default_rng([seed, 0xFD])
    direction = [rng.normal(size=p.values.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(u * u)) for u in direction))
    direction = [u / norm for u in direction]
    saved = [p.values.copy() for p in params]

    def loss_at(e):
        for p, v, u in zip(params, saved, direction):
            p.values[...] = v + e * u
        value = float(training.run_three_pass(system, batch)[0].values[0, 0])
        for p, v in zip(params, saved):
            p.values[...] = v
        return value

    return grads, direction, checks.central_difference(loss_at, eps)


def check_gradients(inp: Inputs, init: InitialWeights) -> list[float]:
    """For every mode, the float64 autodiff gradient of the batch loss along
    a random unit direction against a central difference."""
    batch = inp.train_batches[0][:inp.fd_items]
    return [checks.check_directional_gradient(*directional_derivatives(
                float64_system(fresh_system(init, mode)), batch, inp.seed))
            for mode in MODES]


def check_witnesses(inp: Inputs) -> int:
    for expr, nums, target in inp.witnesses:
        checks.check_witness(expr, nums, target)
    return len(inp.witnesses)
