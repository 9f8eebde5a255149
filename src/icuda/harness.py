"""Command line orchestration.

Subcommands: gen writes datasets with a manifest, run executes the reference
algorithms and reports held-out accuracy, verify builds the transformer
weights and checks them against the oracles with certificate bounds,
describe prints the structural summary of a built transformer.

Reports are deterministic functions of (config, seeds); wall-clock timings
live in a separate subtree so everything else is byte-for-byte reproducible.
Held-out labels stay inside this module: algorithm code receives DomainPair,
which does not carry them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import typing

import numpy as np

from . import uda_ref as ur
from .build_dann import build_dann_transformer, verify_dann
from .build_iwl import SOUNDNESS_CHECKS, build_iwl_transformer, verify_iwl
from .build_select import (
    BUILD_KNOBS,
    IcudaBuildConfig,
    build_icuda_transformer,
    verify_icuda,
)
from .datagen import (
    ShiftGaussConfig,
    TwoMoonConfig,
    gen_shifted_gaussians,
    gen_two_moon,
    save_csv,
    true_ratio,
)
from .tfcore import describe, tf_norm

GENERATORS = ("shift1d", "shift2d", "two_moon")
ALGOS = ("iwl", "dann", "icuda")


@dataclasses.dataclass
class ExperimentConfig:
    generator: str = "shift1d"
    algo: str = "icuda"
    seeds: list = dataclasses.field(default_factory=lambda: [0])
    gen_params: dict = dataclasses.field(default_factory=dict)
    hyper: dict = dataclasses.field(default_factory=dict)
    build_params: dict = dataclasses.field(default_factory=dict)
    out_dir: str = "runs"

    def validate(self) -> None:
        """Raise ValueError naming the first field that is malformed: a
        wrong type, an unknown name, a parameter the generator or the
        builders do not take, or a value outside its field's range."""
        for name in ("generator", "algo", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, "
                                 f"got {getattr(self, name)!r}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if not isinstance(self.seeds, list) or not all(
                _fits(s, int) and s >= 0 for s in self.seeds):
            raise ValueError(f"seeds must be a list of non-negative integers, "
                             f"got {self.seeds!r}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        gen = TwoMoonConfig if self.generator == "two_moon" else ShiftGaussConfig
        # make_pair sets d and seed itself
        _check_params("gen_params", self.gen_params, typing.get_type_hints(gen),
                      pinned={"d", "seed"}, minimum=SAMPLE_MINIMUM)
        _check_hyper(self.hyper)
        _check_params("build_params", self.build_params, BUILD_TYPES,
                      minimum=dict.fromkeys(BUILD_KNOBS, 2))


# SelectorConfig's fields plus the selector's indicator sharpness, which the
# composed build reads
HYPER_TYPES = {**typing.get_type_hints(ur.SelectorConfig), "a": float}
# the feature and hidden-unit counts, and the step counts (a model of zero
# steps does no adaptation, and its certificate is only the fixed pad); the
# ridge weight and the weight of the adversarial term may be 0 (uLSIF with
# no ridge, training on the source loss alone), which the replayed updates
# and their certificates allow, but a negative one is another objective.
# The step sizes scale each step's certificate, which a step of 0 or less
# turns negative; the soft-minimum and indicator sharpness and the kernel
# bandwidth divide, and the ball radii scale the alignment branch's
# parameters and fit boxes
HYPER_MINIMUM = {"J": 1, "K": 1, "L1": 1, "L2": 1, "L": 1, "lam": 0.0,
                 "lam_dann": 0.0}
HYPER_POSITIVE = frozenset({"eta", "eta1", "eta2", "beta", "kde_h", "a", "B_u",
                            "B_w", "B_v"})
# the knot and term counts of the fitted parts; no fit takes fewer than 2
BUILD_TYPES = {k: typing.get_type_hints(IcudaBuildConfig)[k] for k in BUILD_KNOBS}
# sample sizes of both generators
SAMPLE_MINIMUM = dict.fromkeys(("n_source", "n_target", "n_query", "n_eval"), 1)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a dataclass field's type (a bool is not a
    number, a float must be finite)."""
    for kind in typing.get_args(hint) or (hint,):
        if kind is type(None) and value is None:
            return True
        if isinstance(value, bool):
            if kind is bool:
                return True
        elif kind is int and isinstance(value, int):
            return True
        elif kind is float and isinstance(value, (int, float)):
            return bool(np.isfinite(value))
        elif kind is str and isinstance(value, str):
            return True
    return False


def _check_params(what: str, params, hints: dict, pinned=frozenset(),
                  minimum=None, positive=frozenset()) -> None:
    """``params`` must be an object whose keys name fields in ``hints`` (not
    ``pinned``) and whose values fit those fields' types, are at least the
    field's ``minimum``, where one is given, and are above 0 (or None) for
    the fields in ``positive``."""
    if not isinstance(params, dict):
        raise ValueError(f"{what} must be an object, got {params!r}")
    bad = sorted(k for k in params if k not in hints or k in pinned)
    if bad:
        raise ValueError(f"unknown {what} keys: {bad}")
    for key, value in params.items():
        if not _fits(value, hints[key]):
            kinds = typing.get_args(hints[key]) or (hints[key],)
            names = " or ".join(k.__name__ for k in kinds)
            raise ValueError(f"{what}.{key} must be {names}, got {value!r}")
        low = (minimum or {}).get(key)
        if low is not None and value < low:
            raise ValueError(f"{what}.{key} must be at least {low}, got {value!r}")
        if key in positive and value is not None and not value > 0:
            raise ValueError(f"{what}.{key} must be positive, got {value!r}")


def _check_hyper(hyper) -> None:
    _check_params("hyper", hyper, HYPER_TYPES, minimum=HYPER_MINIMUM,
                  positive=HYPER_POSITIVE)
    if hyper.get("activation", "logistic") not in ur.ACTIVATIONS:
        raise ValueError(f"hyper.activation must be one of "
                         f"{sorted(ur.ACTIVATIONS)}, got {hyper['activation']!r}")


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    bad = set(data) - known
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    cfg = ExperimentConfig(**data)
    cfg.validate()
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def selector_config(cfg: ExperimentConfig, seed: int) -> ur.SelectorConfig:
    _check_hyper(cfg.hyper)
    known = {f.name for f in dataclasses.fields(ur.SelectorConfig)}
    fields = {k: v for k, v in cfg.hyper.items() if k in known}
    fields["seed"] = seed
    return ur.SelectorConfig(**fields)


def make_pair(cfg: ExperimentConfig, seed: int):
    p = dict(cfg.gen_params)
    if cfg.generator == "two_moon":
        return gen_two_moon(TwoMoonConfig(seed=seed, **p))
    d = 1 if cfg.generator == "shift1d" else 2
    return gen_shifted_gaussians(ShiftGaussConfig(d=d, seed=seed, **p))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean((np.asarray(scores) >= 0.5) == (labels >= 0.5)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg: ExperimentConfig) -> int:
    files = {}
    for seed in cfg.seeds:
        pair = make_pair(cfg, seed)
        name = f"{cfg.generator}_seed{seed}.csv"
        path = os.path.join(cfg.out_dir, name)
        os.makedirs(cfg.out_dir, exist_ok=True)
        save_csv(pair, path)
        files[str(seed)] = name
        if cfg.generator.startswith("shift"):
            d = 1 if cfg.generator == "shift1d" else 2
            gc = ShiftGaussConfig(d=d, seed=seed, **cfg.gen_params)
            X = np.concatenate([pair.source_x, pair.target_x, pair.query_x])
            side = os.path.join(cfg.out_dir, name.replace(".csv", "_ratio.csv"))
            with open(side, "w") as fh:
                fh.write(",".join(f"x_{i + 1}" for i in range(d)) + ",ratio\n")
                for row, r in zip(X, true_ratio(gc, X)):
                    cells = [repr(float(v)) for v in row] + [repr(float(r))]
                    fh.write(",".join(cells) + "\n")
            files[str(seed) + "_ratio"] = os.path.basename(side)
    manifest = {
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "files": files,
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    print(f"wrote {len(files)} files to {cfg.out_dir}")
    return 0


def _branch_scores(branch: str, aux: dict, pair, scfg) -> np.ndarray:
    """Held-out scores of a reference branch run."""
    if branch == "iwl":
        return aux["fmap"](pair.eval_x) @ aux["W"][-1]
    return ur.logistic(
        ur.dann_predict(aux["trace"][-1], pair.eval_x, scfg.activation))


def _run_one(cfg: ExperimentConfig, seed: int) -> dict:
    pair = make_pair(cfg, seed)
    scfg = selector_config(cfg, seed)
    rec = {"seed": seed}
    if cfg.algo == "icuda":
        res = ur.icuda_predict(pair, scfg)
        branch, pred, aux = res.choice, res.prediction, res.aux[res.choice]
        rec.update(choice=res.choice, q=res.q)
    else:
        pipeline = ur.iwl_pipeline if cfg.algo == "iwl" else ur.dann_pipeline
        branch = cfg.algo
        pred, aux = pipeline(pair, scfg, pair.query_x[0])
    scores = _branch_scores(branch, aux, pair, scfg)
    rec.update(prediction=pred, accuracy=_accuracy(scores, pair.eval_y))
    return rec


def cmd_run(cfg: ExperimentConfig) -> int:
    t0 = time.time()
    records = [_run_one(cfg, seed) for seed in sorted(cfg.seeds)]
    accs = np.array([r["accuracy"] for r in records])
    report = {
        "algo": cfg.algo,
        "config_hash": config_hash(cfg),
        "records": records,
        "accuracy_mean": float(np.mean(accs)),
        "accuracy_std": float(np.std(accs)),
        "timing": {"seconds": time.time() - t0},
    }
    path = os.path.join(cfg.out_dir, f"run_{cfg.algo}.json")
    _write_json(path, report)
    csv_path = os.path.join(cfg.out_dir, f"run_{cfg.algo}.csv")
    with open(csv_path, "w") as fh:
        fh.write("seed,algo,accuracy\n")
        for r in records:
            fh.write(f"{r['seed']},{cfg.algo},{repr(r['accuracy'])}\n")
    print(f"{cfg.algo}: accuracy {report['accuracy_mean']:.3f}"
          f" +/- {report['accuracy_std']:.3f} over {len(records)} seeds")
    return 0


def build_config(cfg: ExperimentConfig,
                 scfg: ur.SelectorConfig) -> IcudaBuildConfig:
    """The build table of a validated config: the hyperparameters, the
    indicator sharpness ``a`` if the hyper sets it, and the build knobs."""
    sharpness = {"a": cfg.hyper["a"]} if "a" in cfg.hyper else {}
    return IcudaBuildConfig(sel=scfg, **sharpness, **cfg.build_params)


def _iwl_record(build, pair) -> dict:
    cert = verify_iwl(build, pair)
    failed = [k for k in SOUNDNESS_CHECKS if not cert.hypothesis_checks[k]]
    ok = cert.measured_vs_reference <= cert.bound and not failed
    return {
        "failed_checks": failed,
        "oracle": cert.prediction_ref,
        "transformer": cert.prediction_tf,
        "bound": cert.bound,
        "gap": cert.measured_vs_reference,
        "hypothesis": cert.hypothesis_checks,
        "pass": bool(ok),
    }


def _failed_checks(checks: dict) -> list:
    return [k for k, v in checks.items()
            if isinstance(v, (bool, np.bool_)) and not v]


def _dann_record(build, pair) -> dict:
    cert = verify_dann(build, pair)
    failed = _failed_checks(cert.checks)
    ok = (cert.final_gap <= cert.cumulative
          and all(r.ok for r in cert.rows) and not failed)
    return {
        "failed_checks": failed,
        "oracle": cert.prediction_ref,
        "transformer": cert.prediction_tf,
        "bound": cert.cumulative,
        "gap": cert.final_gap,
        "steps": [dataclasses.asdict(r) for r in cert.rows],
        "pass": bool(ok),
    }


def _icuda_record(build, pair) -> dict:
    rep = verify_icuda(build, pair)
    failed = _failed_checks(rep.checks)
    ok = (rep.agreement and rep.margin_certified
          and rep.within_branch_bound and not failed)
    return {
        "failed_checks": failed,
        "oracle": rep.prediction_oracle,
        "transformer": rep.prediction_tf,
        "bound": rep.branch_bound,
        "gap": rep.branch_gap,
        "choice": rep.choice_tf,
        "choice_oracle": rep.choice_oracle,
        "margin_certified": bool(rep.margin_certified),
        "q": rep.q_tf,
        "q_bracket": [rep.q_lo, rep.q_hi],
        "pass": bool(ok),
    }


# algo -> (build(cfg, scfg, pair), record(build, pair)); a record holds the
# verdict fields of one seed, the caller adds seed and tf_norm
ALGO_TABLE = {
    "iwl": (lambda cfg, scfg, pair: build_iwl_transformer(
                pair, build_config(cfg, scfg)),
            _iwl_record),
    "dann": (lambda cfg, scfg, pair: build_dann_transformer(
                 pair, build_config(cfg, scfg)),
             _dann_record),
    "icuda": (lambda cfg, scfg, pair: build_icuda_transformer(
                  pair, build_config(cfg, scfg)),
              _icuda_record),
}


def _verify_one(cfg: ExperimentConfig, seed: int) -> dict:
    pair = make_pair(cfg, seed)
    scfg = selector_config(cfg, seed)
    build_fn, record_fn = ALGO_TABLE[cfg.algo]
    stage = "construction"
    try:
        build = build_fn(cfg, scfg, pair)
        stage = "verification"
        rec = record_fn(build, pair)
        rec.update(seed=seed, tf_norm=tf_norm(build.tf))
    except Exception as e:
        return {"seed": seed, "pass": False,
                "error": f"{stage}: {type(e).__name__}: {e}"}
    return rec


def cmd_verify(cfg: ExperimentConfig) -> int:
    t0 = time.time()
    records = [_verify_one(cfg, seed) for seed in sorted(cfg.seeds)]
    n_pass = sum(1 for r in records if r["pass"])
    report = {
        "algo": cfg.algo,
        "config_hash": config_hash(cfg),
        "records": records,
        "pass_rate": n_pass / len(records),
        "all_pass": bool(n_pass == len(records)),
        "timing": {"seconds": time.time() - t0},
    }
    _write_json(os.path.join(cfg.out_dir, f"verify_{cfg.algo}.json"), report)
    for r in records:
        print("\n".join(_verify_lines(r)))
    return 0 if report["all_pass"] else 1


def _verify_lines(r: dict) -> list[str]:
    """The console lines of one verify record: the verdict with the gap
    against the bound, and for a failure what else failed: the record's
    failed checks (also "none" when the gap is within the bound), for a
    selector record the routing and whether its margin is certified, and
    the failing step rows."""
    line = f"seed {r['seed']}: " + ("pass" if r["pass"] else "FAIL")
    if "error" in r:
        return [line + f"  ({r['error']})"]
    within = r["gap"] <= r["bound"]
    line += f"  gap {r['gap']:.3g} {'<=' if within else '>'} bound {r['bound']:.3g}"
    lines = [line]
    if not r["pass"]:
        failed = r.get("failed_checks", [])
        if failed or within:
            lines.append("  failed checks: " + (", ".join(failed) or "none"))
        if "choice" in r:
            lines.append(f"  route tf={r['choice']} oracle={r['choice_oracle']}"
                         f", margin_certified {r['margin_certified']}")
        for row in r.get("steps", []):
            if not row["ok"]:
                blocks = [f"{b} {row['dev_' + b]:.3g} > {row['bound_' + b]:.3g}"
                          for b in "uwv" if not row["dev_" + b] <= row["bound_" + b]]
                lines.append(f"  step {row['step']} fails: " + ", ".join(blocks))
    return lines


def cmd_describe(cfg: ExperimentConfig) -> int:
    seed = cfg.seeds[0]
    pair = make_pair(cfg, seed)
    scfg = selector_config(cfg, seed)
    tf = ALGO_TABLE[cfg.algo][0](cfg, scfg, pair).tf
    info = describe(tf)
    info["algo"] = cfg.algo
    print(json.dumps(_jsonable(info), sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icuda",
        description="domain adaptation references, transformer weight "
                    "constructions, and certificate verification")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("gen", cmd_gen), ("run", cmd_run),
                     ("verify", cmd_verify), ("describe", cmd_describe)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="single seed override")
        p.add_argument("--algo", choices=ALGOS, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    overrides = {
        "algo": args.algo,
        "out_dir": args.out,
        "seeds": [args.seed] if args.seed is not None else None,
    }
    try:
        cfg = load_config(args.config, overrides)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return args.fn(cfg)


if __name__ == "__main__":
    sys.exit(main())
