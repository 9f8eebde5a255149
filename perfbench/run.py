"""icuda benchmark runner.

    python3 perfbench/run.py --workload short_prompt --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (``src/icuda`` next to this
directory).  The runner pins BLAS to one thread, times set-up in a few probe
processes, then runs the workload in one fresh session process (session.py)
and waits for it; only one process runs at a time.  Times are CPU seconds of
the session process; set-up is its CPU time from start to the first timed
call, the median over the probes and the session.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a run whose layer functions are
wrapped by tracer.py.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, set-up samples, every instance) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SESSION = os.path.join(HERE, "session.py")

SETUP_PROBES = 2  # plus the measured session itself: three set-up samples
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def pinned_env() -> dict:
    """One BLAS thread: the matrices are small (D = 31), and idle BLAS
    workers spin, which would be charged to the process's CPU time."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_session(args: list[str], env: dict, timeout: float) -> dict:
    """Start one session, wait for it, and return its record."""
    proc = subprocess.Popen([sys.executable, SESSION] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"session exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    t_start = time.monotonic()
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="icuda benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "icuda", "__init__.py")):
        return fail(f"no icuda sources under {os.path.join(ROOT, 'src')}")
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        return fail("BENCHMARK.json not found next to perfbench/")
    with open(bench_path) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = pinned_env()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(run_session(common + ["--setup-only"], env, 60.0)["ready"])
        spans = os.path.join(OUT, f"spans-{tag}.json")
        remaining = DEADLINE_S - (time.monotonic() - t_start)
        record = run_session(
            common + (["--spans", spans] if args.trace else []), env, remaining)
        setups.append(record["ready"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        return fail(f"{args.workload}: {type(e).__name__}: {e}")

    measured = dict(record["metrics"])
    measured["setup_s"] = statistics.median(setups)
    # ru_maxrss is in KiB on Linux; the session is the largest child
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, metrics=measured)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for r in record["instances"]:
        note = r.get("error") or ("pass" if r["pass"] else
                                  f"FAIL {r.get('failed_checks')} routed={r.get('routed')}"
                                  f" round_trip_equal={r.get('round_trip_equal')}")
        print(f"instance seed {r['seed']} designed {r['branch']}: "
              f"routed {r.get('choice')} / oracle {r.get('choice_oracle')}: {note}")
    for stage, shares in (record["layer_shares"] or {}).items():
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(shares.items())[:3])
        print(f"{stage} time by layer (self): {top}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(json.dumps({"correct": failed == 0 and attempted >= 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
