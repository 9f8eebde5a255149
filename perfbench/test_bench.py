"""Tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest perfbench/test_bench.py -q

They take a few minutes: every session compiles the full composed model.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import session  # noqa: E402

# count and certificate metrics: equal on two runs of one seed
DETERMINISTIC = ("weight_bytes", "json_bytes", "iwl_bound", "dann_bound",
                 "q_margin", "tfcore.heads", "tfcore.weight_nnz",
                 "relu_approx.relu_evals", "tfcore.forward_passes")


def traced_session(seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload",
           "short_prompt", "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, env=run.pinned_env(), stdout=subprocess.PIPE,
                         text=True, check=True, timeout=170).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {"a": traced_session(0), "b": traced_session(0), "c": traced_session(1)}


def test_same_seed_gives_identical_counts_and_certificates(runs):
    a, b = runs["a"]["metrics"], runs["b"]["metrics"]
    for key in DETERMINISTIC:
        assert a[key] == b[key], key


def test_short_prompt_routes_both_ways_and_passes(runs):
    rows = runs["a"]["instances"] + runs["c"]["instances"]
    assert {r["branch"] for r in rows} == {"iwl", "dann"}
    for r in rows:
        assert r["pass"] and r["routed"] and r["round_trip_equal"], r
        assert r["choice"] == r["choice_oracle"] == r["branch"]


def test_traced_run_reports_every_per_layer_metric(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = runs["a"]["metrics"]
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in metrics]
    assert not missing
    shares = runs["a"]["layer_shares"]["compile"]
    assert max(shares, key=shares.get) == "relu_approx"


@pytest.fixture(scope="module")
def instance():
    with open(os.path.join(HERE, "spec.json")) as fh:
        wl = json.load(fh)["workloads"]["short_prompt"]
    return session.Instance(wl, 0, 0)


@pytest.fixture
def cheap_inspection(monkeypatch):
    """describe and serialization replaced by trivial stand-ins, so a gate
    test pays only for compile and certify."""
    from icuda import tfcore

    kept = []
    monkeypatch.setattr(tfcore, "describe", lambda tf: {})
    monkeypatch.setattr(tfcore, "to_json", lambda tf: kept.append(tf) or "{}")
    monkeypatch.setattr(tfcore, "from_json", lambda text: kept[-1])
    return kept


def test_gate_counts_an_exception_as_failed(instance, monkeypatch):
    from icuda import build_select

    def boom(build, pair):
        raise FloatingPointError("injected")

    monkeypatch.setattr(build_select, "verify_icuda", boom)
    row = session.run_instance(instance, repeats=False, inspect=False)
    assert not row["pass"]
    assert row["error"].startswith("certify: FloatingPointError")


def test_gate_counts_wrong_routing_and_broken_round_trip(instance, cheap_inspection,
                                                         monkeypatch):
    from icuda import tfcore

    row = session.run_instance(instance, repeats=False, inspect=True)
    assert row["pass"] and row["round_trip_equal"], row

    designed = instance.branch
    instance.branch = "iwl" if designed == "dann" else "dann"
    try:
        row = session.run_instance(instance, repeats=False, inspect=True)
    finally:
        instance.branch = designed
    assert not row["pass"] and not row["routed"] and row["verdict"]

    def perturbed(text):
        tf = cheap_inspection[-1]
        last = tf.layers[-1]
        W2 = last.W2.copy()
        W2[W2 != 0] *= 1.0 + 1e-12
        layers = tf.layers[:-1] + [tfcore.TransformerLayer(last.heads, last.W1, W2)]
        return tfcore.Transformer(layers, tf.layout, tf.readout)

    monkeypatch.setattr(tfcore, "from_json", perturbed)
    row = session.run_instance(instance, repeats=False, inspect=True)
    assert not row["pass"] and not row["round_trip_equal"]


def test_runner_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    runner exits non-zero and prints no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "short_prompt", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
