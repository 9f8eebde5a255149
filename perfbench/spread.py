"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload short_prompt --seeds 0 1 2 3 4

Runs run.py once per seed (one at a time) and prints, per metric, the median
and the distance between the first and third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json.  A benchmark is steady
when every spread except that of setup_s stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spread of end-to-end metrics")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    steady = True
    print(f"\n{args.workload}, {len(args.seeds)} seeds")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = m["name"] == "setup_s" or spread <= m["bound"]
        steady &= ok
        print(f"{m['name']:14s} median {med:12.6g} {m['unit']:3s} spread {spread:7.2%}"
              f"  bound {m['bound']:.0%}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
