"""Reference algorithm oracles: losses, ratio fitting, alignment gradients,
density scoring, branch selection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import icuda.datagen as dg
import icuda.uda_ref as ur

from fd_utils import numeric_grad, playerwise_objectives


class TestLossAndActivations:
    def test_cross_entropy_frozen_point(self):
        val, d1 = ur.gamma_value_deriv(np.array([0.5]), np.array([1.0]), 1e-3)
        assert val[0] == pytest.approx(np.log(2.0), abs=1e-15)
        assert d1[0] == pytest.approx(-2.0, abs=1e-15)

    def test_clamp_keeps_derivative_bounded(self):
        val, d1 = ur.gamma_value_deriv(np.array([0.0, 1.0]),
                                       np.array([1.0, 0.0]), 0.01)
        assert np.all(np.isfinite(val))
        assert np.max(np.abs(d1)) <= 100.0 + 1e-12

    def test_logistic_pair(self):
        r, dr = ur.get_activation("logistic")
        assert r(np.array([0.0]))[0] == pytest.approx(0.5)
        assert dr(np.array([0.0]))[0] == pytest.approx(0.25)
        t = np.linspace(-3, 3, 13)
        fd = (r(t + 1e-6) - r(t - 1e-6)) / 2e-6
        assert_allclose(dr(t), fd, atol=1e-8)

    def test_elu_pair(self):
        r, dr = ur.get_activation("elu")
        t = np.linspace(-2, 2, 11)
        fd = (r(t + 1e-6) - r(t - 1e-6)) / 2e-6
        assert_allclose(dr(t), fd, atol=1e-6)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            ur.get_activation("swish")


class TestDensityScoring:
    def test_kde_single_point_frozen(self):
        val = ur.kde_eval(np.array([[0.0]]), np.array([[1.0]]), 1.0)
        assert val[0] == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_kde_normalization_matches_density(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50000, 1))
        h = 0.2
        val = ur.kde_eval(pts, np.array([[0.0]]), h, normalized=True)
        # the estimator targets the kernel-smoothed density N(0, 1 + h^2)
        smoothed = 1.0 / np.sqrt(2.0 * np.pi * (1.0 + h**2))
        assert val[0] == pytest.approx(smoothed, abs=0.01)

    def test_kde_mean_over_points(self):
        pts = np.array([[0.0], [2.0]])
        val = ur.kde_eval(pts, np.array([[1.0]]), 1.0)
        assert val[0] == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_median_bandwidth_small_set(self):
        X = np.array([[0.0], [1.0], [3.0]])
        assert ur.median_bandwidth(X) == pytest.approx(2.0)

    def test_median_bandwidth_degenerate_set_positive(self):
        X = np.zeros((4, 2))
        assert ur.median_bandwidth(X) > 0.0


class TestSoftmin:
    def test_frozen_value(self):
        assert ur.softmin(np.array([1.0, 2.0]), 1.0) == pytest.approx(
            0.6867383124817772, abs=1e-15)

    def test_bracket_inequalities(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            vals = 3.0 * rng.standard_normal(n)
            beta = float(rng.uniform(0.2, 300.0))
            sm = ur.softmin(vals, beta)
            assert sm <= np.min(vals)
            assert sm >= np.min(vals) - np.log(n) / beta

    def test_equal_entries_exact(self):
        vals = np.full(7, 0.3)
        assert ur.softmin(vals, 5.0) == pytest.approx(
            0.3 - np.log(7.0) / 5.0, abs=1e-15)


class TestUlsif:
    def make_problem(self, seed=0, n=40, npr=30, J=5):
        cfg = dg.ShiftGaussConfig(d=1, n_source=n, n_target=npr,
                                  mu_target=0.5, seed=seed)
        pair = dg.gen_shifted_gaussians(cfg)
        fmap = ur.make_feature_map(pair, J, seed)
        return ur.ulsif_problem(fmap, pair, 0.5)

    def test_closed_form_residual(self):
        prob = self.make_problem()
        alpha = ur.ulsif_closed_form(prob)
        res = (prob.Psi + prob.lam * np.eye(prob.J)) @ alpha - prob.psi
        assert np.linalg.norm(res) <= 1e-12

    def test_gradient_descent_reaches_closed_form(self):
        prob = self.make_problem(seed=2)
        eta = 1.0 / (np.linalg.eigvalsh(prob.Psi)[-1] + prob.lam)
        trace = ur.ulsif_gd(prob, eta, 400)
        assert trace.shape == (401, prob.J)
        assert np.all(trace[0] == 0.0)
        alpha_cf = ur.ulsif_closed_form(prob)
        assert np.linalg.norm(trace[-1] - alpha_cf) <= 1e-8

    def test_one_step_formula(self):
        prob = self.make_problem(seed=3)
        eta = 0.3
        trace = ur.ulsif_gd(prob, eta, 1)
        assert_allclose(trace[1], eta * prob.psi, atol=1e-14)

    def test_divergence_guard(self):
        prob = self.make_problem(seed=1)
        with pytest.raises(ur.DivergenceError):
            ur.ulsif_gd(prob, 1e80, 50)

    def test_ratio_clip_is_optional(self):
        alpha = np.array([-1.0, 0.0])
        phi = np.array([[1.0, 0.0]])
        assert ur.ratio_values(alpha, phi)[0] == -1.0
        assert ur.ratio_values(alpha, phi, clip=True)[0] == 0.0


class TestWeightedRegression:
    def test_weighted_fixed_point(self):
        phi = np.ones((4, 1))
        y = np.array([0.0, 1.0, 1.0, 1.0])
        wts = np.array([3.0, 1.0, 1.0, 1.0])
        W = ur.iwl_run(phi, y, wts, 0.5, 400)
        target = np.sum(wts * y) / np.sum(wts)
        assert W[-1, 0] == pytest.approx(target, abs=1e-10)

    def test_first_step(self):
        phi = np.array([[1.0, 2.0], [0.5, -1.0]])
        y = np.array([1.0, 0.0])
        wts = np.array([2.0, 1.0])
        W = ur.iwl_run(phi, y, wts, 0.1, 1)
        grad0 = phi.T @ (wts * (phi @ np.zeros(2) - y)) / 2
        assert_allclose(W[1], -0.1 * grad0, atol=1e-15)

    def test_predict_reads_first_query(self):
        assert ur.iwl_predict(np.array([2.0]), np.array([[1.5]])) == 3.0


class TestAlignmentGradients:
    def setup_state(self, seed=0):
        cfg = dg.TwoMoonConfig(n_source=10, n_target=8, n_eval=5, seed=seed)
        pair = dg.gen_two_moon(cfg)
        params = ur.SelectorConfig(K=2, eta=0.1, lam_dann=1.0, L=3,
                                   delta_gamma=1e-3)
        state = ur.init_dann(params, pair.d, seed)
        return pair, params, state

    def assert_no_clamp(self, state, pair, params):
        feats = ur.logistic(np.concatenate(
            [pair.source_x, pair.target_x]) @ state.u.T)
        lam_p = ur.logistic(feats[:pair.n] @ state.w)
        dom_p = ur.logistic(feats @ state.v)
        lo, hi = 2 * params.delta_gamma, 1 - 2 * params.delta_gamma
        assert np.all((lam_p > lo) & (lam_p < hi))
        assert np.all((dom_p > lo) & (dom_p < hi))

    def test_block_gradients_match_finite_differences(self):
        for seed in range(3):
            pair, params, state = self.setup_state(seed)
            self.assert_no_clamp(state, pair, params)
            g = ur.dann_grads(state, pair, params)
            label_loss, domain_loss = playerwise_objectives(state, pair, params)

            fu = lambda u: (label_loss(u, state.w)
                            - params.lam_dann * domain_loss(u, state.v))
            fw = lambda w: label_loss(state.u, w)
            fv = lambda v: params.lam_dann * domain_loss(state.u, v)

            for got, f, x0 in ((g.gu, fu, state.u), (g.gw, fw, state.w),
                               (g.gv, fv, state.v)):
                want = numeric_grad(f, x0.copy())
                rel = (np.linalg.norm(got - want)
                       / max(np.linalg.norm(want), 1e-12))
                assert rel <= 1e-5

    def test_step_applies_shared_gradients_then_projects(self):
        pair, params, state = self.setup_state(1)
        g = ur.dann_grads(state, pair, params)
        nxt = ur.dann_step(state, pair, params)
        raw = ur.DannState(state.u - params.eta * g.gu,
                           state.w - params.eta * g.gw,
                           state.v - params.eta * g.gv)
        proj = ur.project_state(raw, params)
        assert_allclose(nxt.flat(), proj.flat(), atol=1e-14)

    def test_run_trace_length(self):
        pair, params, state = self.setup_state(2)
        trace = ur.dann_run(state, pair, params)
        assert len(trace) == params.L + 1
        assert_allclose(trace[0].flat(), state.flat(), atol=0)

    def test_project_ball(self):
        z = np.array([3.0, 4.0])
        out = ur.project_ball(z, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        assert_allclose(out, z / 5.0, atol=1e-15)
        assert_allclose(ur.project_ball(z, 10.0), z, atol=0)

    def test_projection_respects_all_balls(self):
        pair, params, state = self.setup_state(0)
        params = ur.SelectorConfig(K=2, eta=2.0, lam_dann=1.0, L=6,
                                   delta_gamma=1e-3, B_u=0.5, B_w=0.3, B_v=0.3)
        trace = ur.dann_run(state, pair, params)
        for st in trace[1:]:
            assert np.all(np.linalg.norm(st.u, axis=1) <= 0.5 + 1e-12)
            assert np.linalg.norm(st.w) <= 0.3 + 1e-12
            assert np.linalg.norm(st.v) <= 0.3 + 1e-12


class TestBranchSelection:
    def test_identical_domains_route_to_ratio_branch(self):
        cfg = dg.ShiftGaussConfig(d=1, n_source=60, n_target=30,
                                  mu_target=0.0, boundary=0.0, seed=0)
        pair = dg.gen_shifted_gaussians(cfg)
        res = ur.icuda_predict(pair, ur.SelectorConfig())
        assert res.choice == "iwl"
        assert res.prediction == res.f_iwl
        assert res.q > 0.05

    def test_disjoint_domains_route_to_alignment_branch(self):
        cfg = dg.ShiftGaussConfig(d=1, n_source=60, n_target=30,
                                  mu_target=9.0, boundary=0.0, seed=0)
        pair = dg.gen_shifted_gaussians(cfg)
        res = ur.icuda_predict(pair, ur.SelectorConfig())
        assert res.choice == "dann"
        assert res.prediction == res.f_dann
        assert res.q <= 0.05

    def test_pipelines_return_traces(self, small_shift_pair):
        cfg = ur.SelectorConfig()
        pred_i, aux_i = ur.iwl_pipeline(small_shift_pair, cfg,
                                        small_shift_pair.query_x[0])
        assert {"fmap", "prob", "alphas", "W"} <= set(aux_i)
        assert np.isfinite(pred_i)
        pred_d, aux_d = ur.dann_pipeline(small_shift_pair, cfg,
                                         small_shift_pair.query_x[0])
        assert "trace" in aux_d
        assert np.isfinite(pred_d)
