"""Run the benchmark once per seed and print each metric's median and
quartiles, one process at a time.

    python3 kvbench/spread.py --workload countdown --seeds 1-10 --seconds 30

The spread column is (q3 - q1) / median, with q1 and q3 as
statistics.quantiles(values, n=4) gives them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, cwd=os.path.dirname(HERE),
            check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: no result\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        shares.add(last["failed"] / last["attempted"])
        print(f"seed {seed}: exit {proc.returncode} correct {last['correct']} "
              f"attempted {last['attempted']} failed {last['failed']}",
              flush=True)
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':44s} {'unit':9s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {units[name]:9s} {med:12.4f} {q1:12.4f} "
              f"{q3:12.4f} {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
