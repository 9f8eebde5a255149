"""Span tracing of the icuda layers, installed from outside the package.

Each traced function is replaced, in every loaded ``icuda`` module that binds
it, by a wrapper that records a span (name, start, end, parent) in memory.
Nothing under ``src/`` knows about the tracer; ``uninstall`` puts the original
functions back.  Span names are ``<module>.<function>`` and the module is the
layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# public functions wrapped per layer; calls between them nest as child spans
TRACED = {
    "datagen": ["gen_shifted_gaussians", "gen_two_moon", "encode_tokens"],
    "uda_ref": ["icuda_predict", "iwl_pipeline", "dann_pipeline",
                "make_feature_map", "ulsif_problem", "ulsif_gd", "iwl_run",
                "init_dann", "dann_run", "dann_step", "dann_grads",
                "dann_predict", "kde_eval", "median_bandwidth", "softmin"],
    "relu_approx": ["fit_1d", "fit_interval", "fit_knots", "fit_binary_gated",
                    "fit_nd", "eval_batch"],
    "tfcore": ["attn_forward", "mlp_forward", "forward", "forward_trace",
               "read_output", "tf_norm", "compose", "describe", "to_json",
               "from_json"],
    "build_iwl": ["build_iwl_transformer", "verify_iwl"],
    "build_dann": ["build_dann_transformer", "verify_dann", "activation_fit",
                   "lossgrad_fit", "product_fit", "projection_fit"],
    "build_select": ["build_icuda_transformer", "verify_icuda", "encode_icuda"],
    "harness": ["make_pair", "selector_config"],
}

FIT_1D = {"relu_approx.fit_1d", "relu_approx.fit_interval",
          "relu_approx.fit_knots", "relu_approx.fit_binary_gated"}
FIT_ND = {"relu_approx.fit_nd"}
FORWARDS = {"tfcore.forward", "tfcore.forward_trace", "tfcore.read_output"}
CACHED_FITS = {"build_dann.activation_fit", "build_dann.lossgrad_fit",
               "build_dann.product_fit", "build_dann.projection_fit"}


def _fit_info(args, kwargs, result):
    rs = result[0]
    return {"terms": int(rs.n_terms), "sup_error": float(rs.sup_error)}


def _eval_info(args, kwargs, result):
    rs, Z = args[0], args[1]
    return {"relu_evals": int(np.atleast_2d(Z).shape[0]) * int(rs.n_terms)}


def _encode_info(args, kwargs, result):
    return {"tokens": int(result.tokens)}


INFO = {name: _fit_info for name in FIT_1D | FIT_ND}
INFO["relu_approx.eval_batch"] = _eval_info
INFO["datagen.encode_tokens"] = _encode_info


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items()
                  if n == "icuda" or n.startswith("icuda.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"icuda.{layer}"]
            for attr in names:
                fn = getattr(module, attr)
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._undo):
            setattr(m, key, fn)
        self._undo.clear()

    def _wrap(self, fn, name):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.process_time(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _children(spans: list[list]) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    return children


def _self_times(spans: list[list], children: list[list[int]]) -> list[float]:
    """A span's duration minus the time its child spans cover."""
    dur = [s[2] - s[1] for s in spans]
    return [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]


def layer_metrics(spans: list[list], instances: int) -> dict:
    """Per-layer numbers from the spans of a run, per instance where a sum."""
    children = _children(spans)
    self_s = _self_times(spans, children)

    def per(value):
        return value / instances

    def self_time(pred):
        return per(sum(t for s, t in zip(spans, self_s) if pred(s[0])))

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def outermost(names):
        return [i for i, s in enumerate(spans)
                if s[0] in names and not has_ancestor(i, names)]

    def infos(names, key):
        return [spans[i][4][key] for i in outermost(names)]

    verifies = [i for i, s in enumerate(spans) if s[0] == "build_select.verify_icuda"]
    passes = [i for i in outermost(FORWARDS)
              if has_ancestor(i, {"build_select.verify_icuda"})]
    cache = [i for i, s in enumerate(spans) if s[0] in CACHED_FITS]
    hits = [i for i in cache if not any(spans[c][0] in FIT_1D | FIT_ND
                                        for c in children[i])]
    tokens = [s[4]["tokens"] for s in spans if s[0] == "datagen.encode_tokens"]
    evals = [s[4]["relu_evals"] for s in spans if s[0] == "relu_approx.eval_batch"]

    def layer(prefix):
        return lambda n: n.startswith(prefix + ".")

    return {
        "datagen.gen_s": self_time(lambda n: n in {"datagen.gen_shifted_gaussians",
                                                   "datagen.gen_two_moon"}),
        "datagen.encode_s": self_time(lambda n: n == "datagen.encode_tokens"),
        "datagen.tokens": float(max(tokens)),
        "uda_ref.oracle_s": self_time(layer("uda_ref")),
        "uda_ref.calls": per(sum(1 for s in spans if s[0].startswith("uda_ref."))),
        "relu_approx.fit_s": self_time(lambda n: n in FIT_1D),
        "relu_approx.fit_calls": per(len(outermost(FIT_1D))),
        "relu_approx.fit_terms": per(sum(infos(FIT_1D, "terms"))),
        "relu_approx.fit_nd_s": self_time(lambda n: n in FIT_ND),
        "relu_approx.fit_nd_calls": per(len(outermost(FIT_ND))),
        "relu_approx.eval_batch_s": self_time(lambda n: n == "relu_approx.eval_batch"),
        "relu_approx.relu_evals": per(sum(evals)),
        "relu_approx.sup_error_max_1d": max(infos(FIT_1D, "sup_error")),
        "relu_approx.sup_error_max_nd": max(infos(FIT_ND, "sup_error")),
        "tfcore.attn_s": self_time(lambda n: n == "tfcore.attn_forward"),
        "tfcore.mlp_s": self_time(lambda n: n == "tfcore.mlp_forward"),
        "tfcore.forward_passes": len(passes) / max(len(verifies), 1),
        "tfcore.norm_s": self_time(lambda n: n == "tfcore.tf_norm"),
        "tfcore.compose_s": self_time(lambda n: n == "tfcore.compose"),
        "tfcore.describe_s": self_time(lambda n: n == "tfcore.describe"),
        "tfcore.to_json_s": self_time(lambda n: n == "tfcore.to_json"),
        "tfcore.from_json_s": self_time(lambda n: n == "tfcore.from_json"),
        "build_iwl.build_s": self_time(lambda n: n == "build_iwl.build_iwl_transformer"),
        "build_iwl.verify_s": self_time(lambda n: n == "build_iwl.verify_iwl"),
        "build_dann.build_s": self_time(lambda n: n == "build_dann.build_dann_transformer"),
        "build_dann.verify_s": self_time(lambda n: n == "build_dann.verify_dann"),
        "build_dann.fit_cache_hit_ratio": len(hits) / max(len(cache), 1),
        "build_select.build_s": self_time(lambda n: n == "build_select.build_icuda_transformer"),
        "build_select.verify_s": self_time(lambda n: n == "build_select.verify_icuda"),
        "harness.self_s": self_time(layer("harness")),
    }


def stage_shares(spans: list[list], stage: str) -> dict:
    """Share of a stage's time (spans named ``stage``) spent in each layer's
    own code, for checking which layer a workload is bound by."""
    self_s = _self_times(spans, _children(spans))
    inside = [False] * len(spans)  # parents come before their children
    total = 0.0
    shares: dict[str, float] = {}
    for i, s in enumerate(spans):
        outer = s[3] >= 0 and inside[s[3]]
        inside[i] = outer or s[0] == stage
        if s[0] == stage and not outer:
            total += s[2] - s[1]
        if inside[i]:
            key = s[0] if s[0].startswith("tfcore.") else s[0].split(".")[0]
            shares[key] = shares.get(key, 0.0) + self_s[i]
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    return {k: v / total for k, v in ranked} if total else {}
