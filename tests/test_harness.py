"""Command-line harness: config handling, artifacts, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icuda.harness as hz


def write_config(tmp_path, **kv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kv))
    return str(path)


SMALL_IWL = dict(
    generator="shift1d", algo="iwl", seeds=[3, 1],
    gen_params={"n_source": 20, "n_target": 12, "n_eval": 30,
                "mu_target": 0.5, "boundary": 0.5},
    hyper={"J": 3, "L1": 6, "L2": 6},
)


class TestConfig:
    def test_defaults_validate(self):
        cfg = hz.load_config(None, {})
        assert cfg.generator == "shift1d"
        assert cfg.algo == "icuda"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, generator="shift1d", extra=1)
        with pytest.raises(ValueError, match="unknown config keys"):
            hz.load_config(path, {})

    def test_unknown_generator_rejected(self, tmp_path):
        path = write_config(tmp_path, generator="circles")
        with pytest.raises(ValueError, match="unknown generator"):
            hz.load_config(path, {})

    def test_empty_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path, seeds=[])
        with pytest.raises(ValueError, match="non-empty"):
            hz.load_config(path, {})

    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys):
        # no tolerance is read anywhere, so the key is unknown
        path = write_config(tmp_path, tolerances={"gap": 0.0})
        assert hz.main(["verify", "--config", path]) == 2
        assert "unknown config keys: ['tolerances']" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, algo="iwl", seeds=[5])
        cfg = hz.load_config(path, {"algo": "dann", "seeds": [9]})
        assert cfg.algo == "dann"
        assert cfg.seeds == [9]

    def test_hash_is_stable_and_sensitive(self):
        c1 = hz.ExperimentConfig(seeds=[1, 2])
        c2 = hz.ExperimentConfig(seeds=[1, 2])
        c3 = hz.ExperimentConfig(seeds=[1, 3])
        assert hz.config_hash(c1) == hz.config_hash(c2)
        assert hz.config_hash(c1) != hz.config_hash(c3)
        assert len(hz.config_hash(c1)) == 16

    def test_unknown_hyper_rejected(self):
        cfg = hz.ExperimentConfig(hyper={"learning_rate": 0.1})
        with pytest.raises(ValueError, match="unknown hyper"):
            hz.selector_config(cfg, 0)

    def test_sharpness_hyper_allowed(self):
        cfg = hz.ExperimentConfig(hyper={"a": 50.0, "beta": 100.0})
        scfg = hz.selector_config(cfg, 4)
        assert scfg.beta == 100.0
        assert scfg.seed == 4

    def test_accuracy_thresholds_at_half(self):
        scores = np.array([0.2, 0.5, 0.9, 0.49])
        labels = np.array([0.0, 1.0, 1.0, 1.0])
        assert hz._accuracy(scores, labels) == pytest.approx(0.75)


class TestGen:
    def test_writes_data_ratio_and_manifest(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        assert hz.main(["gen", "--config", cfg_path, "--out", out]) == 0
        manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
        assert manifest["config_hash"]
        names = set(manifest["files"].values())
        assert "shift1d_seed1.csv" in names
        assert "shift1d_seed1_ratio.csv" in names
        for name in names:
            assert (tmp_path / "runs" / name).exists()

    def test_byte_identical_on_repeat(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        hz.main(["gen", "--config", cfg_path, "--out", out])
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "runs").iterdir()}
        hz.main(["gen", "--config", cfg_path, "--out", out])
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "runs").iterdir()}
        assert first == second

    def test_two_moon_has_no_ratio_sidecar(self, tmp_path):
        out = str(tmp_path / "m")
        cfg_path = write_config(tmp_path, generator="two_moon", algo="dann",
                                seeds=[0],
                                gen_params={"n_source": 10, "n_target": 10,
                                            "n_eval": 5})
        assert hz.main(["gen", "--config", cfg_path, "--out", out]) == 0
        names = os.listdir(out)
        assert not any("ratio" in n for n in names)


class TestRun:
    def test_reference_run_reports_accuracy(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        assert hz.main(["run", "--config", cfg_path, "--out", out]) == 0
        report = json.loads((tmp_path / "runs" / "run_iwl.json").read_text())
        assert report["algo"] == "iwl"
        assert len(report["records"]) == 2
        assert [r["seed"] for r in report["records"]] == [1, 3]
        assert 0.0 <= report["accuracy_mean"] <= 1.0
        csv_lines = (tmp_path / "runs" / "run_iwl.csv").read_text().splitlines()
        assert csv_lines[0] == "seed,algo,accuracy"
        assert len(csv_lines) == 3

    def test_report_reproducible_outside_timing(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        hz.main(["run", "--config", cfg_path, "--out", out])
        r1 = json.loads((tmp_path / "runs" / "run_iwl.json").read_text())
        hz.main(["run", "--config", cfg_path, "--out", out])
        r2 = json.loads((tmp_path / "runs" / "run_iwl.json").read_text())
        r1.pop("timing")
        r2.pop("timing")
        assert r1 == r2


class TestVerify:
    def test_passing_instance_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "v")
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        code = hz.main(["verify", "--config", cfg_path, "--out", out,
                        "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("seed 3: pass")
        report = json.loads((tmp_path / "v" / "verify_iwl.json").read_text())
        assert report["all_pass"] is True
        rec = report["records"][0]
        assert rec["gap"] <= rec["bound"]

    def test_report_reproducible_outside_timing(self, tmp_path):
        out = str(tmp_path / "v")
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        hz.main(["verify", "--config", cfg_path, "--out", out, "--seed", "3"])
        r1 = json.loads((tmp_path / "v" / "verify_iwl.json").read_text())
        hz.main(["verify", "--config", cfg_path, "--out", out, "--seed", "3"])
        r2 = json.loads((tmp_path / "v" / "verify_iwl.json").read_text())
        r1.pop("timing")
        r2.pop("timing")
        assert r1 == r2

    def test_diverging_instance_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "v")
        bad = dict(SMALL_IWL)
        bad["hyper"] = dict(SMALL_IWL["hyper"], eta1=1e12, L1=60)
        cfg_path = write_config(tmp_path, **bad)
        code = hz.main(["verify", "--config", cfg_path, "--out", out,
                        "--seed", "3"])
        assert code == 1
        report = json.loads((tmp_path / "v" / "verify_iwl.json").read_text())
        assert report["all_pass"] is False
        assert report["records"][0]["error"].startswith(
            "construction: DivergenceError: ")


class TestCli:
    def test_describe_prints_structure(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, **SMALL_IWL)
        assert hz.main(["describe", "--config", cfg_path, "--seed", "3"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["algo"] == "iwl"
        assert info["num_layers"] > 0
        assert info["tf_norm"] > 0

    def test_config_error_exits_two(self, tmp_path):
        cfg_path = write_config(tmp_path, generator="circles")
        assert hz.main(["run", "--config", cfg_path]) == 2

    def test_missing_config_file_exits_two(self, tmp_path):
        assert hz.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            hz.main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            hz.main(["verify", "--algo", "bogus"])
        assert exc.value.code == 2

    def test_build_params_other_than_the_knobs_exit_two(self, tmp_path, capsys):
        """Hyperparameters, the old per-branch names and the settings that
        became constants are not build knobs."""
        for name in ("J", "iwl_grad_knots", "dann_r_knots", "a", "exp_tail",
                     "s_floor", "feature_layer_cap", "feature_terms_2d"):
            path = write_config(tmp_path, build_params={name: 5})
            assert hz.main(["describe", "--config", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert repr(name) in err

    def test_build_config_reads_knobs_and_sharpness(self, tmp_path):
        cfg = hz.load_config(write_config(
            tmp_path, **dict(SMALL_IWL, hyper=dict(SMALL_IWL["hyper"], a=50.0),
                             build_params={"grad_knots": 80, "r_knots": 90})), {})
        bcfg = hz.build_config(cfg, hz.selector_config(cfg, 3))
        assert (bcfg.a, bcfg.grad_knots, bcfg.r_knots) == (50.0, 80, 90)
        assert bcfg.sel == hz.selector_config(cfg, 3)
        assert bcfg.sel.J == 3


def _digest(layers) -> str:
    """sha256 over every weight array of some layers."""
    h = hashlib.sha256()
    for layer in layers:
        for unit in (*layer.heads, *layer.families):
            for f in dataclasses.fields(unit):
                h.update(np.asarray(getattr(unit, f.name)).tobytes())
        h.update(layer.W1.tobytes())
        h.update(layer.W2.tobytes())
    return h.hexdigest()


# the build knobs each part of the model reads
KNOB_PARTS = {"iwl": ("feature_knots", "grad_knots"),
              "dann": ("r_knots", "gl_knots", "p_terms"),
              "select": ("kernel_knots", "exp_knots", "log_knots")}
SMALL_KNOBS = {"kernel_knots": 40, "exp_knots": 40, "log_knots": 40,
               "feature_knots": 30, "grad_knots": 20, "r_knots": 30,
               "gl_knots": 30, "p_terms": 150}


def _part_digests(algo: str, build_params: dict) -> dict:
    """Weight digest of each part that ``icuda verify --algo algo`` builds."""
    cfg = hz.ExperimentConfig(algo=algo, gen_params=SMALL_IWL["gen_params"],
                              hyper={"J": 3, "L1": 2, "L2": 2, "L": 1},
                              build_params=build_params)
    cfg.validate()
    build = hz.ALGO_TABLE[algo][0](cfg, hz.selector_config(cfg, 3),
                                   hz.make_pair(cfg, 3))
    if algo != "icuda":
        return {algo: _digest(build.tf.layers)}
    return {"iwl": _digest(build.iwl.tf.layers),
            "dann": _digest(build.dann.tf.layers),
            # the overlap, sum and blend layers on top of both branches
            "select": _digest(build.tf.layers[-3:])}


class TestBuildKnobs:
    def test_knobs_are_the_knot_and_term_counts(self):
        assert set(hz.BUILD_KNOBS) == set(SMALL_KNOBS)
        assert sorted(sum(KNOB_PARTS.values(), ())) == sorted(hz.BUILD_KNOBS)

    @pytest.mark.parametrize("algo", hz.ALGOS)
    def test_each_knob_changes_only_its_part(self, algo):
        """Every knob reaches its part under every algorithm that builds
        the part, and leaves the other parts as they were."""
        base = _part_digests(algo, SMALL_KNOBS)
        for part in base:
            for knob in KNOB_PARTS[part]:
                moved = _part_digests(
                    algo, dict(SMALL_KNOBS, **{knob: 2 * SMALL_KNOBS[knob]}))
                for other, digest in base.items():
                    assert (moved[other] != digest) == (other == part), (knob, other)


# ---------------------------------------------------------------------------
# malformed configs


def _fits(value, kind):
    """Test oracle: JSON value types each config field type accepts."""
    if isinstance(value, bool):
        return kind is bool
    if kind is int:
        return isinstance(value, int)
    if kind is float:
        return isinstance(value, (int, float)) and bool(np.isfinite(value))
    return kind is str and isinstance(value, str)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=True), st.text(max_size=3))
_ANY = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2),
                 st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))
# a few typed fields of each parameter object (shift1d's generator config)
_PARAMS = {
    "gen_params": {"n_source": int, "mu_target": float, "boundary": float},
    "hyper": {"L1": int, "beta": float, "activation": str, "a": float},
    "build_params": {"kernel_knots": int, "grad_knots": int},
}
# the smallest value of the fields that have one: a sample size, knot counts
_MINIMUM = {"n_source": 1, "kernel_knots": 2, "grad_knots": 2}


def _bad_params(field):
    keys = _PARAMS[field]
    wrong_value = st.sampled_from(sorted(keys)).flatmap(
        lambda k: _ANY.filter(lambda v: not _fits(v, keys[k])
                              and not (v is None and k == "boundary"))
        .map(lambda v: {k: v}))
    below = [st.integers(max_value=_MINIMUM[k] - 1).map(lambda v, k=k: {k: v})
             for k in sorted(keys) if k in _MINIMUM]
    unknown_key = st.text(min_size=1, max_size=4).map(lambda k: {"zz" + k: 1})
    return st.one_of(_ANY.filter(lambda v: not isinstance(v, dict)),
                     wrong_value, unknown_key, *below)


_BAD_FIELDS = st.one_of(
    st.tuples(st.just("generator"), _ANY.filter(lambda v: v not in hz.GENERATORS)),
    st.tuples(st.just("algo"), _ANY.filter(lambda v: v not in hz.ALGOS)),
    st.tuples(st.just("out_dir"), _ANY.filter(lambda v: not isinstance(v, str))),
    st.tuples(st.just("seeds"), st.one_of(
        _ANY.filter(lambda v: not isinstance(v, list)),
        st.lists(_ANY.filter(lambda v: not _fits(v, int) or v < 0),
                 min_size=1, max_size=2))),
    *(st.tuples(st.just(f), _bad_params(f)) for f in _PARAMS),
)


class TestMalformedConfig:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_BAD_FIELDS)
    def test_wrong_field_is_a_config_error(self, field_value):
        """A wrong-typed field, a parameter its object does not take, or a
        value below its field's minimum raises ValueError naming the field,
        and the CLI exits 2."""
        field, value = field_value
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(pathlib.Path(tmp), **{field: value})
            with pytest.raises(ValueError, match=field if field != "algo"
                               else "algo|algorithm"):
                hz.load_config(path, {})
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert hz.main(["run", "--config", path]) == 2
            assert err.getvalue().startswith("config error: ")

    @pytest.mark.parametrize("text", ['{"seeds": 3}', '{"gen_params": {"bogus": 1}}',
                                      '{"hyper": [1]}', '[1]',
                                      '{"build_params": {"grad_knots": 1}}',
                                      '{"gen_params": {"n_source": 0}}',
                                      '{"hyper": {"beta": 0}}', '{"hyper": {"K": 0}}',
                                      '{"hyper": {"J": 0}}', '{"hyper": {"kde_h": 0}}',
                                      '{"hyper": {"L1": 0}}', '{"hyper": {"L2": 0}}',
                                      '{"hyper": {"L": 0}}', '{"hyper": {"a": 0}}',
                                      '{"hyper": {"B_w": 0}}',
                                      '{"hyper": {"activation": "relu"}}'])
    def test_reported_cases_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert hz.main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
