"""One benchmark session: the work a command-line user does on an instance.

For each instance it runs the ``icuda verify`` path (compile, certify,
``tf_norm``, pass rule) and one forward of the built model.  The traced
session (``--trace 1``) also runs the ``icuda describe`` path on the built
model and a ``to_json`` -> ``from_json`` -> forward round trip.  Instances
follow each other until ``--seconds`` have passed, at least one.  The library
is driven only through the public calls the CLI makes, looked up on their
modules at call time so that the tracer's wrappers are seen.

run.py starts this file in a fresh process (so ``build_dann._FIT_CACHE``
starts cold, as for a CLI user) and prints the result; see run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from icuda import build_select, harness, tfcore  # noqa: E402

from tracer import Tracer, layer_metrics, stage_shares  # noqa: E402

# Stage times are CPU time of this process (BLAS runs on one thread, see
# run.py): on a shared machine wall time also counts the time other tenants
# hold the processor, which moved single runs by up to 50 percent.
clock = time.process_time


class Instance:
    """One seeded problem, built the way ``icuda verify --seed`` builds it."""

    def __init__(self, wl: dict, seed: int, index: int):
        self.seed = seed * 1000 + index
        gen_params = dict(wl["gen_params"])
        self.branch = None
        if "branches" in wl:
            names = sorted(wl["branches"])
            self.branch = names[(seed + index) % len(names)]
            fam = wl["branches"][self.branch]
            lo, hi = fam["mu_target"]
            u = np.random.default_rng([seed, index]).random()
            gen_params.update(mu_target=lo + (hi - lo) * u,
                              sigma_target=fam["sigma_target"])
        self.cfg = harness.ExperimentConfig(
            generator=wl["generator"], algo="icuda", seeds=[self.seed],
            gen_params=gen_params, hyper=dict(wl["hyper"]))
        self.cfg.validate()
        self.pair = harness.make_pair(self.cfg, self.seed)
        self.build_cfg = build_select.IcudaBuildConfig(
            sel=harness.selector_config(self.cfg, self.seed))


def weight_arrays(tf):
    for layer in tf.layers:
        for h in layer.heads:
            yield "Q", h.Q
            yield "K", h.K
            yield "V", h.V
        yield "W1", layer.W1
        yield "W2", layer.W2


def structure(build, T: int) -> dict:
    """Counts read off the built model: size of the generated program."""
    tf = build.tf
    nbytes = nnz = v_nnz = v_size = 0
    for kind, arr in weight_arrays(tf):
        nbytes += arr.nbytes
        k = int(np.count_nonzero(arr))
        nnz += k
        if kind == "V":
            v_nnz += k
            v_size += arr.size
    D = tf.layout.dim
    flops = 0
    for layer in tf.layers:
        for h in layer.heads:
            r = h.Q.shape[0]
            # Q@H and K@H, the T x T scores, V@H, and the score-weighted sum
            flops += 2 * (2 * r * D * T + r * T * T + D * D * T + D * T * T)

    def heads(t):
        return sum(len(layer.heads) for layer in t.layers)

    total = heads(tf)
    iwl, dann = heads(build.iwl.tf), heads(build.dann.tf)
    return {
        "weight_bytes": float(nbytes),
        "tfcore.heads": float(total),
        "tfcore.layers": float(len(tf.layers)),
        "tfcore.dim": float(D),
        "tfcore.mlp_hidden": float(sum(layer.W1.shape[0] for layer in tf.layers)),
        "tfcore.weight_nnz": float(nnz),
        "tfcore.value_density": v_nnz / v_size,
        "tfcore.head_flops": float(flops),
        "build_iwl.heads": float(iwl),
        "build_dann.heads": float(dann),
        "build_select.heads": float(total - iwl - dann),
    }


def repeat(call, budget, first=None, most=7):
    """Median CPU time of ``call`` over runs until ``budget`` seconds are
    spent (at most ``most`` runs, at least one), and its last result.
    ``first`` is the time of a run already made."""
    times = [] if first is None else [first]
    result = None
    while not times or (sum(times) < budget and len(times) < most):
        t0 = clock()
        result = call()
        times.append(clock() - t0)
    return statistics.median(times), result


def run_instance(inst: Instance, repeats: bool, inspect: bool) -> dict:
    """All timed stages on one instance; correctness is recorded, not raised.
    ``repeats`` repeats the short stages; ``inspect`` adds the describe path
    and the serialization round trip."""
    row = {"seed": inst.seed, "branch": inst.branch, "pass": False}
    stage = "compile"
    wall = time.perf_counter()
    try:
        t0 = clock()
        build = build_select.build_icuda_transformer(inst.pair, inst.build_cfg)
        t1 = clock()
        stage = "certify"
        rep = build_select.verify_icuda(build, inst.pair)
        t2 = clock()
        tfcore.tf_norm(build.tf)
        failed = [k for k, v in rep.checks.items()
                  if isinstance(v, (bool, np.bool_)) and not v]
        verdict = (rep.agreement and rep.margin_certified
                   and rep.within_branch_bound and not failed)
        t3 = clock()
        row.update(compile_s=t1 - t0, verdict_s=t3 - t0)
        # short stages are repeated (certify is side-effect free) and the
        # median kept, so that one scheduling hiccup does not set the value
        row["certify_s"] = repeat(lambda: build_select.verify_icuda(build, inst.pair),
                                  2.0 if repeats else 0.0, first=t2 - t1)[0]
        band = 0.5 / rep.a
        row.update(
            verdict=bool(verdict), failed_checks=failed,
            choice=rep.choice_tf, choice_oracle=rep.choice_oracle,
            iwl_bound=float(rep.iwl_certificate.bound),
            dann_bound=float(rep.dann_certificate.cumulative),
            q_margin=float(rep.q_lo - (rep.delta + band) if rep.choice_tf == "iwl"
                           else (rep.delta - band) - rep.q_hi))

        stage = "forward"
        tm = build_select.encode_icuda(inst.pair, build)
        row["forward_s"], out = repeat(lambda: tfcore.forward(build.tf, tm),
                                       3.0 if repeats else 0.0)

        if inspect:
            stage = "inspect"
            row.update(inspect_model(build, tm, out))

        row.update(structure(build, tm.tokens))
        routed = rep.choice_tf == rep.choice_oracle and (
            inst.branch is None or rep.choice_tf == inst.branch)
        row["routed"] = bool(routed)
        row["pass"] = bool(verdict and routed and row.get("round_trip_equal", True))
        row["wall_s"] = time.perf_counter() - wall
    except Exception as e:  # a failed instance counts in failed/attempted
        row["error"] = f"{stage}: {type(e).__name__}: {e}"
    return row


def inspect_model(build, tm, out) -> dict:
    """The ``icuda describe`` path on a built model (the compile is shared
    with the verify path), then ``to_json`` -> ``from_json`` -> forward, which
    must reproduce ``out`` bit for bit."""
    row = {}
    t0 = clock()
    info = tfcore.describe(build.tf)
    info["algo"] = "icuda"
    info["tf_norm"] = tfcore.tf_norm(build.tf)
    json.dumps(info, sort_keys=True, indent=2)
    row["describe_s"] = clock() - t0

    t0 = clock()
    text = tfcore.to_json(build.tf)
    loaded = tfcore.from_json(text)
    row["serialize_s"] = clock() - t0
    row["json_bytes"] = float(len(text))  # json.dumps writes ASCII
    del text
    row["round_trip_equal"] = bool(np.array_equal(tfcore.forward(loaded, tm).data,
                                                  out.data))
    return row


def summarize(rows: list[dict], trace: bool) -> dict:
    """Medians over the instances that completed every stage, and the
    certificate numbers as the worst case over them."""
    done = [r for r in rows if "weight_bytes" in r]
    if not done:
        raise SystemExit("no instance completed every stage: " +
                         "; ".join(r.get("error", "?") for r in rows))
    keys = [k for k, v in done[0].items()
            if isinstance(v, float) and k not in ("wall_s", "iwl_bound",
                                                  "dann_bound", "q_margin")]
    out = {k: statistics.median(r[k] for r in done) for k in keys}
    if trace:
        out["traced_verdict_s"] = out.pop("verdict_s")
    out["iwl_bound"] = max(r["iwl_bound"] for r in done)
    out["dann_bound"] = max(r["dann_bound"] for r in done)
    out["q_margin"] = min(r["q_margin"] for r in done)
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed call (set-up probe)")
    ap.add_argument("--spans", default=None, help="write the spans here")
    args = ap.parse_args(argv)

    with open(os.path.join(HERE, "spec.json")) as fh:
        wl = json.load(fh)["workloads"][args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    first = Instance(wl, args.seed, 0)
    ready = clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    rows = []
    start = time.perf_counter()
    inst = first
    while True:
        # the traced run makes every call once, so its counts repeat exactly
        rows.append(run_instance(inst, repeats=not args.trace,
                                 inspect=bool(args.trace)))
        if time.perf_counter() - start >= args.seconds:
            break
        inst = Instance(wl, args.seed, len(rows))
    metrics = summarize(rows, bool(args.trace))
    shares = None
    if tracer is not None:
        tracer.uninstall()
        metrics.update(layer_metrics(tracer.spans, len(rows)))
        shares = {stage: stage_shares(tracer.spans, f"build_select.{fn}")
                  for stage, fn in (("compile", "build_icuda_transformer"),
                                    ("certify", "verify_icuda"))}
        if args.spans:
            tracer.write(args.spans)
    record = {
        "ready": ready,
        "layer_shares": shares,
        "environment": environment(),
        "attempted": len(rows),
        "failed": sum(1 for r in rows if not r["pass"]),
        "metrics": metrics,
        "instances": rows,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
