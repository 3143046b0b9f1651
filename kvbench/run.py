"""kvlatent benchmark: one workload per invocation, single-threaded.

    python3 kvbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0

Run from the repository root. The process goes through

1. set-up: imports, inputs made from --seed, model initialisation
   (timed from the process's start as setup_s);
2. a check round, untimed, whose outputs are checked against computations
   made apart from the code under test; it also warms the process up;
3. timed rounds: a fixed number, ceil(--seconds / measured round time),
   each doing exactly the work of the check round, which must reproduce
   its ids and losses exactly;
4. peak RSS is read; only then come the checkpoint round trip, which loads
   a second system, and the float64 gradient check, so neither can set the
   peak. The run fails if the check round's reference computations set it.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 half as many timed rounds (rounded up) each run twice, once
plain and once with every layer wrapped, and the last line holds the
per-layer metrics and the tracing overhead (traced over plain median round
time, minus 1). The run record (environment, per-phase counts, per-round
figures) and, when traced, the spans go to
kvbench/out/<workload>-seed<n>-trace<t>/.
"""

import os

# pin the BLAS and OpenMP pools before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# seconds of one untraced timed round, as measured on a 2-vCPU x86 KVM
# guest; sets how many whole rounds --seconds asks for, never a time budget
ROUND_SECONDS = {"pretrain": 9.0, "countdown": 6.4}


def process_start() -> float:
    """Start of this process on CLOCK_BOOTTIME, in seconds (Linux)."""
    with open("/proc/self/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def phase_counts(rounds) -> dict:
    out = {}
    for rnd in rounds:
        for name, st in rnd.phases.items():
            acc = out.setdefault(name, {"attempted": 0, "failed": 0})
            acc["attempted"] += st.attempted
            acc["failed"] += st.failed
    return out


def median_durations(timed, phase: str) -> dict[str, float]:
    """Each operation of a phase, timed by its median over the timed rounds.
    Every round runs the same operations, so the keys line up."""
    keys = [k for k in timed[0].phases[phase].durations
            if all(k in r.phases[phase].durations for r in timed)]
    return {k: statistics.median(r.phases[phase].durations[k] for r in timed)
            for k in keys}


def end_to_end(timed, peak_rss_mb: float, setup_s: float) -> dict:
    """Phase totals of the median round: every operation's median over the
    timed rounds, summed per phase. A slow spell that hits one round is
    dropped operation by operation instead of moving the whole total."""
    def total(phase):
        return sum(median_durations(timed, phase).values())

    def rate(phase):
        return timed[0].phases[phase].tokens / total(phase)

    first = median_durations(timed, "first").values()
    return {
        "setup_s": (setup_s, "s"),
        "train_tokens_per_s": (rate("train"), "tokens/s"),
        "eval_tokens_per_s": (rate("eval"), "tokens/s"),
        "decode_tokens_per_s": (rate("gen"), "tokens/s"),
        "first_token_ms": (1e3 * statistics.median(first), "ms"),
        "interp_s": (total("interp"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced_rounds, plain, checker, modes) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round totals;
    set-up layers come from the one traced set-up (round -1)."""
    from tracer import FORWARD_PASSES, OP_FUNCTIONS

    per_round = [tracer.totals(r) for r in traced_rounds]
    setup = tracer.totals(-1)

    def med(key):
        return statistics.median(t.get(key, 0) for t in per_round)

    out = {}
    for mode in modes:
        out[f"training.train_step.{mode}.s"] = \
            (med(f"training.train_step.{mode}.s"), "s")
    for name in ("training.run_three_pass", "tensor.backward",
                 "training.adamw_step"):
        out[f"{name}.s"] = (med(f"{name}.s"), "s")
    for kind in OP_FUNCTIONS:
        out[f"tensor.{kind}.s"] = (med(f"tensor.{kind}.s"), "s")
        out[f"tensor.{kind}.calls"] = (med(f"tensor.{kind}.calls"), "count")
    out["tensor.graph_nodes_per_step"] = (
        statistics.mean(checker.nodes_per_step), "count")
    out["tensor.graph_nodes_per_token"] = (checker.nodes_per_token, "count")
    for p in FORWARD_PASSES:
        out[f"model.forward.{p}.s"] = (med(f"model.forward.{p}.s"), "s")
        out[f"model.forward.{p}.rows"] = (med(f"model.forward.{p}.rows"),
                                          "count")
    out["model.concat_cache.s"] = (med("model.concat_cache.s"), "s")
    out["model.concat_cache.calls"] = (med("model.concat_cache.calls"),
                                       "count")
    for name in ("masks.build_attention_mask", "masks.causal_mask",
                 "masks.decode_mask_cache_concat", "engine.generate_greedy",
                 "engine.base_prefix_pass", "engine.coprocessor_pass",
                 "interp.collect_activations", "interp.cross_capture",
                 "interp.silhouette"):
        out[f"{name}.s"] = (med(f"{name}.s"), "s")
    for name in ("tasks.synth_corpus", "tasks.ingest_text_corpus",
                 "tasks.gen_countdown"):
        out[f"{name}.s"] = (setup.get(f"{name}.s", 0.0), "s")
    traced_wall = statistics.median(r.wall_s for r in traced_rounds.values())
    plain_wall = statistics.median(r.wall_s for r in plain)
    out["trace.round_s"] = (traced_wall, "s")
    out["trace.untraced_round_s"] = (plain_wall, "s")
    out["trace.overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    start = process_start()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kvlatent",
                                       "__init__.py")):
        print(f"kvbench: no kvlatent sources under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    out_dir = os.path.join(HERE, "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    import checks
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inp = workloads.MAKE_INPUTS[args.workload](args.seed, out_dir)
    init = workloads.initial_weights(inp)
    if tracer:
        tracer.uninstall()
    setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    rss = {"after_setup": maxrss_mb()}

    failures: list[str] = []
    checker = workloads.Checker(out_dir)
    try:
        n_witnesses = workloads.check_witnesses(inp)
        check_round = workloads.run_round(inp, init, checker)
    except checks.CheckFailed as e:
        failures.append(f"check round: {e}")
        check_round, n_witnesses = None, 0
    rss["after_check_round"] = maxrss_mb()

    n_rounds = max(1, math.ceil(args.seconds / ROUND_SECONDS[args.workload]))
    if tracer:
        # each traced round also runs plain; halve the count to keep a
        # traced run near the length of an untraced one
        n_rounds = math.ceil(n_rounds / 2)
    timed = []
    traced_rounds = {}
    for i in range(n_rounds if check_round is not None else 0):
        timed.append(workloads.run_round(inp, init))
        if tracer:
            tracer.round = i
            tracer.install()
            try:
                traced_rounds[i] = workloads.run_round(inp, init)
            finally:
                tracer.uninstall()
    peak_rss_mb = maxrss_mb()
    rss["after_timed_rounds"] = peak_rss_mb
    checker.mark("timed rounds")
    rss["peak_set_by"] = checker.peak_set_by
    if check_round is not None and checker.peak_set_by not in (
            "round work", "timed rounds"):
        failures.append(f"peak RSS {peak_rss_mb:.1f} MB was set by the "
                        f"{checker.peak_set_by}, not by a round's work")

    for i, rnd in enumerate(timed + list(traced_rounds.values())):
        try:
            checks.check_same_outputs(check_round.outputs, rnd.outputs,
                                      f"timed round {i}")
        except checks.CheckFailed as e:
            failures.append(str(e))
    grad_errors = []
    if check_round is not None:
        try:
            checker.saved_systems(inp)
        except checks.CheckFailed as e:
            failures.append(f"checkpoint: {e}")
        try:
            grad_errors = workloads.check_gradients(inp, init)
        except checks.CheckFailed as e:
            failures.append(f"gradient: {e}")

    all_rounds = ([check_round] if check_round else []) + timed \
        + list(traced_rounds.values())
    counts = phase_counts(all_rounds)
    attempted = sum(c["attempted"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    errors = [e for r in all_rounds for e in r.errors]

    metrics = {}
    if check_round is not None and not tracer:
        metrics = end_to_end(timed, peak_rss_mb, setup_s)
    elif check_round is not None:
        metrics = per_layer(tracer, traced_rounds, timed, checker,
                            [m.value for m in workloads.MODES])

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "timed_rounds": len(timed),
        "max_rss_mb": rss,
        "phases": counts,
        "errors": errors,
        "check_failures": failures,
        "checks": {
            "near_ties": checker.near_ties,
            "generated_tokens_checked": checker.checked_tokens,
            "gradient_relative_errors": grad_errors,
            "witnesses_checked": n_witnesses,
        },
        "rounds": [{p: {"seconds": st.seconds, "tokens": st.tokens,
                        "attempted": st.attempted, "failed": st.failed}
                    for p, st in r.phases.items()} | {"wall_s": r.wall_s}
                   for r in all_rounds],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer:
        record["self_s"] = tracer.self_times()
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"FAILED OPERATION: {msg}", file=sys.stderr)
    print(json.dumps({"phases": counts}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
