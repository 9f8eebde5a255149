"""Weight constructions for ratio estimation and weighted regression."""

import numpy as np
import pytest

import icuda.build_iwl as bi
import icuda.datagen as dg
import icuda.harness as hz
import icuda.tfcore as tc
import icuda.uda_ref as ur
from icuda.build_select import IcudaBuildConfig


def make_problem(seed=0, n=10, npr=10, J=3):
    cfg = dg.ShiftGaussConfig(d=1, n_source=n, n_target=npr, mu_target=0.5,
                              seed=seed)
    pair = dg.gen_shifted_gaussians(cfg)
    fmap = ur.make_feature_map(pair, J, seed)
    return ur.ulsif_problem(fmap, pair, 1.0)


class TestRatioLayers:
    def test_iterates_match_reference_exactly(self):
        prob = make_problem(seed=0, n=10, npr=10, J=3)
        eta1, L1 = 0.5, 6
        tf = bi.build_alpha_transformer(prob, eta1, L1)
        tm = bi.encode_ulsif(prob, tf.layout)
        got = bi.alpha_trace_from_tf(tf, tm)
        want = ur.ulsif_gd(prob, eta1, L1)
        assert got.shape == want.shape
        scale = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(got - want)) / scale <= 1e-12

    def test_zero_start(self):
        prob = make_problem(seed=1, J=2)
        tf = bi.build_alpha_transformer(prob, 0.3, 3)
        tm = bi.encode_ulsif(prob, tf.layout)
        trace = bi.alpha_trace_from_tf(tf, tm)
        assert np.all(trace[0] == 0.0)

    def test_rectangular_sizes(self):
        prob = make_problem(seed=2, n=14, npr=6, J=4)
        eta1, L1 = 0.4, 5
        tf = bi.build_alpha_transformer(prob, eta1, L1)
        tm = bi.encode_ulsif(prob, tf.layout)
        got = bi.alpha_trace_from_tf(tf, tm)
        want = ur.ulsif_gd(prob, eta1, L1)
        assert np.max(np.abs(got - want)) <= 1e-11


@pytest.fixture(scope="module")
def built(small_shift_pair):
    cfg = IcudaBuildConfig(sel=ur.SelectorConfig(
        J=3, lam=1.0, eta1=0.5, L1=8, eta2=0.1, L2=8, seed=3))
    build = bi.build_iwl_transformer(small_shift_pair, cfg)
    cert = bi.verify_iwl(build, small_shift_pair)
    return build, cert


class TestEndToEnd:
    def test_gap_within_certificate(self, built):
        _, cert = built
        assert cert.measured_vs_reference <= cert.bound
        assert cert.bound < 0.05

    def test_soundness_checks_hold(self, built):
        _, cert = built
        for name in bi.SOUNDNESS_CHECKS:
            assert cert.hypothesis_checks[name] is True

    def test_surrogate_gradient_fit_is_tight(self, built):
        _, cert = built
        assert cert.eps_grad <= 1e-3

    def test_prediction_agrees_with_reference_pipeline(self, built,
                                                       small_shift_pair):
        build, cert = built
        W = build.ref["W"]
        pred_ref = ur.iwl_predict(W[-1], build.fmap(small_shift_pair.query_x))
        assert cert.prediction_ref == pytest.approx(pred_ref, abs=1e-12)
        assert abs(cert.prediction_tf - pred_ref) <= cert.bound


class TestTwoDimensionalFeatures:
    def test_shift2d_build_passes_its_certificate(self):
        """The d = 2 path of ``icuda verify --algo iwl`` on the shift2d
        defaults: every RBF feature is a fit_nd sum, emitted as one head
        family per dictionary direction, and the prediction still lies
        within its certificate."""
        cfg = hz.ExperimentConfig(generator="shift2d", algo="iwl", seeds=[0])
        pair = hz.make_pair(cfg, 0)
        build = bi.build_iwl_transformer(
            pair, hz.build_config(cfg, hz.selector_config(cfg, 0)))
        assert pair.d == 2
        assert all(rs.input_dim == 2 for rs in build.feature_fits)
        features = build.tf.layers[:len(build.tf.layers) - build.cfg.sel.L1
                                   - build.cfg.sel.L2 - 1]
        assert all(not layer.heads and layer.families for layer in features)
        assert sum(tc.n_heads(layer) for layer in features) == \
            sum(rs.n_terms for rs in build.feature_fits)
        parts = {(int(f.rows[0]), *f.Qf[0, build.layout.rows("x")])
                 for layer in features for f in layer.families}
        assert len(parts) == sum(len(rs.ridges.directions)
                                 for rs in build.feature_fits)
        cert = bi.verify_iwl(build, pair)
        assert cert.measured_vs_reference <= cert.bound
        for name in bi.SOUNDNESS_CHECKS:
            assert cert.hypothesis_checks[name] is True
