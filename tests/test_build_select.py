"""Overlap scoring and branch-selection constructions.

The half-layer builders are checked against hand-computable stubs first
(constant kernels, flat exponentials, tiny counts), then the composed
selector is verified end to end on routing instances from both regimes.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import icuda.build_dann as bd
import icuda.build_iwl as bi
import icuda.build_select as bs
import icuda.datagen as dg
import icuda.harness as hz
import icuda.relu_approx as ra
import icuda.tfcore as tc
import icuda.uda_ref as ur

from tf_reference import layer_heads
from test_tfcore import (dense_mlp, fit_float_error, head_scores,
                         reference_layer_norm, ridge_z, sharing)


def fit_mlp(fit, layout, in_name, out_name):
    """The layer whose MLP adds fit(in) to the out slot at every token."""
    part = tc.token_part(fit, layout.row(in_name), layout.row(out_name),
                         layout.row("one"))
    return tc.TransformerLayer([], *tc.relu_sum_mlp(layout.dim, 0, []), (), (part,))


def stub_layout(d=1):
    return tc.SlotLayout.build([
        ("x", d), ("y", 1), ("t", 1), ("s", 1), ("one", 1),
        ("fiw", 1), ("fda", 1),
    ] + bs.SELECT_SLOTS)


def attn_layer(heads, D, families=()):
    return tc.TransformerLayer(heads, np.zeros((0, D)), np.zeros((D, 0)), families)


def encode(pair, layout):
    return dg.encode_tokens(pair, layout)


@pytest.fixture
def tiny_pair():
    """3 source, 7 target, 1 query, all scalar."""
    rng = np.random.default_rng(0)
    return dg.DomainPair(
        rng.standard_normal((3, 1)),
        np.array([0.0, 1.0, 1.0]),
        rng.standard_normal((7, 1)) + 0.5,
        np.array([[0.2]]),
    )


class TestKernelHeads:
    def test_constant_kernel_stub_is_exact(self, tiny_pair):
        layout = stub_layout()
        kernel = ra.exact_terms([[0.0]], [1.0], [0.7], k=1)
        fams = bs.build_kde_attn(kernel, layout, n=3, T=11, B_x=3.0)
        tm = encode(tiny_pair, layout)
        out = tc.attn_forward(attn_layer([], layout.dim, fams), tm)
        p = out.data[layout.row("p_kde"), :]
        assert_allclose(p, 0.7, atol=1e-12)

    def test_real_kernel_matches_density_oracle(self, tiny_pair):
        layout = stub_layout()
        h = 0.8
        B_x = float(np.max(np.abs(np.concatenate(
            [tiny_pair.source_x, tiny_pair.target_x, tiny_pair.query_x]))))
        kernel, rep = bs.kernel_diff_fit(1, h, B_x, 2000, seed=0)
        fams = bs.build_kde_attn(kernel, layout, n=3, T=11, B_x=B_x)
        tm = encode(tiny_pair, layout)
        out = tc.attn_forward(attn_layer([], layout.dim, fams), tm)
        all_x = np.concatenate(
            [tiny_pair.source_x, tiny_pair.target_x, tiny_pair.query_x])
        want = ur.kde_eval(tiny_pair.source_x, all_x, h)
        got = out.data[layout.row("p_kde"), :]
        assert np.max(np.abs(got - want)) <= rep.sup_error + 1e-12


class TestExponentialAndSum:
    def test_flat_exponent_grid_collapses_to_linspace(self):
        # with no decay to resolve, a sparse uniform grid is enough
        grid = bs.exp_knot_grid(0.0, -0.1, 1.1, 50, tail=33)
        assert_allclose(grid, np.linspace(-0.1, 1.1, 33), atol=0)

    def test_grid_is_sorted_and_spans_domain(self):
        grid = bs.exp_knot_grid(200.0, -0.01, 1.01, 800)
        assert grid[0] == -0.01
        assert grid[-1] == pytest.approx(1.01)
        assert np.all(np.diff(grid) > 0)

    def test_log_grid_properties(self):
        grid = bs.log_knot_grid(1e-6, 12.0, 500)
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(12.0)
        assert np.all(np.diff(grid) > 0)

    def test_flat_exponential_counts_targets(self, tiny_pair):
        """beta = 0 turns every e into 1; the sum head then counts the
        n' = 7 target tokens exactly."""
        layout = stub_layout()
        tm = encode(tiny_pair, layout)
        T = tm.data.shape[1]
        knots = bs.exp_knot_grid(0.0, -0.5, 1.5, 40)
        efit, _ = ra.fit_knots(lambda p: np.exp(-0.0 * p), knots)
        mlp = fit_mlp(efit, layout, "p_kde", "e_soft")
        tm1 = tc.mlp_forward(mlp, tm)
        assert_allclose(tm1.data[layout.row("e_soft"), :], 1.0, atol=1e-12)
        summ = attn_layer(bs.build_sum_attn(layout, T), layout.dim)
        tm2 = tc.attn_forward(summ, tm1)
        assert_allclose(tm2.data[layout.row("e_sum"), :], 7.0, atol=1e-10)

    def test_equal_scores_recover_shifted_minimum(self, tiny_pair):
        """With all densities equal to c the statistic is exactly
        c - log(n')/beta; the realized stack must land within its fit slack."""
        layout = stub_layout()
        beta, c = 5.0, 0.7
        tm = encode(tiny_pair, layout)
        T = tm.data.shape[1]
        kernel = ra.exact_terms([[0.0]], [1.0], [c], k=1)
        kde = attn_layer([], layout.dim, bs.build_kde_attn(kernel, layout, 3, T, 3.0))
        knots = bs.exp_knot_grid(beta, -0.1, 1.1, 2000)
        efit, _ = ra.fit_knots(lambda p: np.exp(-beta * p), knots)
        exp_mlp = fit_mlp(efit, layout, "p_kde", "e_soft")
        summ = attn_layer(bs.build_sum_attn(layout, T), layout.dim)
        lfit, _ = ra.fit_knots(np.log, bs.log_knot_grid(1e-4, 10.0, 3000))
        q_fit = ra.ReluSum(lfit.a, lfit.b, lfit.c / -beta, input_dim=1,
                           sup_error=lfit.sup_error / beta)
        log_mlp = fit_mlp(q_fit, layout, "e_sum", "q_soft")

        cur = tm
        for layer in (kde, exp_mlp, summ, log_mlp):
            cur = tc.layer_forward(layer, cur)
        q = cur.data[layout.row("q_soft"), -1]
        assert q == pytest.approx(c - np.log(7.0) / beta, abs=1e-3)


class TestSelection:
    def run_stack(self, q_value, fiw=2.5, fda=-1.25, a=10.0, delta=0.05):
        layout = stub_layout()
        D = layout.dim
        H = np.zeros((D, 3))
        H[layout.row("one"), :] = 1.0
        H[layout.row("t"), 0] = 1.0
        H[layout.row("s"), :2] = 1.0
        H[layout.row("y"), 0] = 0.4
        # stale branch values on train tokens must not leak through the gate
        H[layout.row("fiw"), :2] = 99.0
        H[layout.row("fda"), :2] = -99.0
        H[layout.row("fiw"), 2] = fiw
        H[layout.row("fda"), 2] = fda
        H[layout.row("q_soft"), 2] = q_value
        tm = tc.TokenMatrix(H, layout, 1, 1)
        sel = attn_layer(
            bs.build_select_attn(layout, delta, a, 100.0, 3, "fiw", "fda"), D)
        copy = tc.TransformerLayer([], *tc.relu_sum_mlp(
            D, layout.row("one"), [tc.query_copy(layout, 100.0, "blend", "y")]))
        out = tc.layer_forward(copy, tc.layer_forward(sel, tm))
        return layout, out.data

    def test_saturated_high_routes_first_branch(self):
        layout, H = self.run_stack(q_value=0.05 + 0.1)
        assert H[layout.row("y"), 2] == pytest.approx(2.5, abs=1e-12)

    def test_saturated_low_routes_second_branch(self):
        layout, H = self.run_stack(q_value=0.05 - 0.1)
        assert H[layout.row("y"), 2] == pytest.approx(-1.25, abs=1e-12)

    def test_interior_blends_linearly(self):
        layout, H = self.run_stack(q_value=0.05 + 0.04)
        want = 0.9 * 2.5 + 0.1 * (-1.25)
        assert H[layout.row("y"), 2] == pytest.approx(want, abs=1e-12)

    def test_train_labels_untouched(self):
        layout, H = self.run_stack(q_value=0.2)
        assert H[layout.row("y"), 0] == pytest.approx(0.4, abs=1e-12)
        assert H[layout.row("y"), 1] == pytest.approx(0.0, abs=1e-12)


def assert_branch_rows_match_standalone(pair, build):
    """Each branch's slots in the composed trace equal the branch built and
    run alone on its own layout, so certificates computed from the composed
    stream are the branches'."""
    _, trace = tc.forward_trace(build.tf, bs.encode_icuda(pair, build))
    iwl = bi.build_iwl_transformer(pair, build.cfg)
    dann = bd.build_dann_transformer(pair, build.cfg)
    first = 0
    for part, tm in ((iwl, dg.encode_tokens(pair, iwl.layout)),
                     (dann, bd.encode_dann(pair, dann.layout, dann.state0))):
        _, alone = tc.forward_trace(part.tf, tm)
        for k, st in enumerate(alone):
            for name in part.layout.names:
                assert_allclose(trace[first + k].data[build.layout.rows(name)],
                                st.data[part.layout.rows(name)], rtol=0,
                                atol=1e-12)
        first += len(alone)


@pytest.fixture(scope="module")
def composed_pair():
    gcfg = dg.ShiftGaussConfig(d=1, n_source=25, n_target=10, n_eval=20,
                               mu_target=0.1, sigma_target=0.5, boundary=0.3,
                               seed=1)
    return dg.gen_shifted_gaussians(gcfg)


@pytest.fixture(scope="module")
def composed_build(composed_pair):
    cfg = bs.IcudaBuildConfig(sel=ur.SelectorConfig(L1=6, L2=6, L=2))
    return bs.build_icuda_transformer(composed_pair, cfg)


@pytest.fixture(scope="module")
def shift2d():
    """A composed build on the shift2d defaults (d = 2), with a smaller
    kernel fit: (pair, build)."""
    cfg = hz.ExperimentConfig(generator="shift2d", algo="icuda", seeds=[0])
    pair = hz.make_pair(cfg, 0)
    build = bs.build_icuda_transformer(pair, bs.IcudaBuildConfig(
        sel=hz.selector_config(cfg, 0), kernel_knots=900))
    return pair, build


class TestComposedWeights:
    def test_value_maps_are_small_blocks(self, composed_build):
        # as dense D x D matrices the value maps took 174 MB
        heads = [h for layer in composed_build.tf.layers
                 for h in layer_heads(layer)]
        assert len(heads) > 20000
        assert sum(h.V.nbytes for h in heads) < 1e6

    def test_describe_matches_dense_value_maps(self, composed_build):
        tf = composed_build.tf
        D = tf.layout.dim
        info = tc.describe(tf)
        for layer, got in zip(tf.layers, info["layers"], strict=True):
            W1, W2 = dense_mlp(layer)
            read = np.any(W1, axis=0)
            written = np.any(W2, axis=1)
            for h in layer_heads(layer):
                V = np.zeros((D, D))
                V[np.ix_(h.rows, h.cols)] = h.V
                read |= np.any(h.Q, axis=0) | np.any(h.K, axis=0) | np.any(V, axis=0)
                written |= np.any(V, axis=1)
            names = tf.layout.ranges
            assert got["reads"] == sorted(n for n, a, b in names if read[a:b].any())
            assert got["writes"] == sorted(n for n, a, b in names
                                           if written[a:b].any())
        assert "q_soft" in info["layers"][-2]["writes"]
        assert [lay["mlp_hidden"] for lay in info["layers"]] == \
            [len(dense_mlp(layer)[0]) for layer in tf.layers]

    def test_every_fitted_sum_is_a_family(self, composed_build, shift2d):
        """Plain heads are left only for the exact (unfitted) heads: alpha
        steps 4, readout 2, sum 1, select 4, at d = 1 and at d = 2, where
        the kernel and feature fits are fit_nd sums.  The 2-D product fit is
        one family per dictionary direction in each DANN update layer (the
        second layer of each two-layer step), and
        n_heads counts each of its terms as a head."""
        for build in (composed_build, shift2d[1]):
            tf, dann = build.tf, build.dann
            plain = sum(len(layer.heads) for layer in tf.layers)
            assert plain == 4 * build.cfg.sel.L1 + 2 + 1 + 4
            K, pfit, rfit = dann.cfg.sel.K, dann.fits["p"], dann.fits["r"]
            directions = len(ra.ridge_parts(pfit))
            for layer in dann.tf.layers[1:2 * dann.cfg.sel.L:2]:
                assert not layer.heads
                assert len(layer.families) == 3 * K * (directions + 1)
                assert tc.n_heads(layer) == 3 * K * (pfit.n_terms + rfit.n_terms)
        assert sum(len(layer.heads) for layer in composed_build.tf.layers) == \
            4 * 6 + 2 + 1 + 4
        assert shift2d[1].fits["kernel"].input_dim == 2
        assert all(rs.input_dim == 2 for rs in shift2d[1].iwl.feature_fits)

    def test_every_fitted_mlp_sum_is_a_part(self, composed_build):
        """The exp and log fits and the four loss-gradient slices are
        per-token parts; dense units are left only for the exact zeroing
        (8) and copy (2 + 2) pairs, the projection being off here."""
        build = composed_build
        assert not build.dann.proj_enabled
        layers = {id(layer): layer for layer in build.tf.layers}.values()
        assert sum(len(layer.W1) for layer in layers) == 8 + 2 + 2
        parts = [p for layer in layers for p in layer.parts]
        assert len(parts) == 1 + 1 + 4
        fits = build.fits
        assert sorted(p.n_terms for p in parts) == sorted(
            [fits["exp"].n_terms, fits["log"].n_terms]
            + [s.n_terms for s in build.dann.fits["gl"].slices] * 2)

    def test_families_match_their_heads_within_float_error(
            self, composed_pair, composed_build, shift2d):
        """On the streams of a real run, each family's prefix-sum scores and
        its heads' head-by-head sum agree within the fit's float_error (the
        value map and the 1/T average after it are the same for both), at
        d = 1 and at d = 2."""
        for pair, build in ((composed_pair, composed_build), shift2d):
            tf = build.tf
            tm = bs.encode_icuda(pair, build)
            _, trace = tc.forward_trace(tf, tm)
            checked = 0
            for layer, st in zip(tf.layers, [tm] + trace[:-1]):
                for fam in layer.families:
                    z = ridge_z(fam, st.data)
                    gap = np.max(np.abs(tc.family_scores(fam, st.data)
                                        - head_scores(fam, st.data)))
                    assert gap <= fit_float_error(fam, z)
                    checked += 1
            assert checked == sum(len(layer.families) for layer in tf.layers)

    def test_tf_norm_matches_per_head_reference(self, composed_pair,
                                                 composed_build):
        """Every position's describe norm, and tf_norm, equal the per-head
        reference of its layer.  The 24 positions hold 12 layer objects (the
        6 alpha steps, the 6 weight steps and the 2 two-layer DANN steps are
        one object each, 5 + 5 + 2 repeats), and a JSON round trip keeps that pattern and
        the forward bit for bit."""
        tf = composed_build.tf
        reference = {}
        for layer in tf.layers:
            if id(layer) not in reference:
                reference[id(layer)] = reference_layer_norm(layer)
        assert (len(tf.layers), len(reference)) == (24, 12)
        norms = [entry["norm"] for entry in tc.describe(tf)["layers"]]
        want = [reference[id(layer)] for layer in tf.layers]
        assert_allclose(norms, want, rtol=1e-12, atol=0)
        assert tc.tf_norm(tf) == max(norms)
        assert tc.tf_norm(tf) == pytest.approx(max(reference.values()), rel=1e-12)
        back = tc.from_json(tc.to_json(tf))
        assert sharing(back.layers) == sharing(tf.layers)
        tm = bs.encode_icuda(composed_pair, composed_build)
        assert_array_equal(tc.forward(back, tm).data, tc.forward(tf, tm).data)


class TestComposedSelector:
    def build(self, mu_t, sigma_t, seed):
        gcfg = dg.ShiftGaussConfig(d=1, n_source=25, n_target=10, n_eval=20,
                                   mu_target=mu_t, sigma_target=sigma_t,
                                   boundary=0.3, seed=seed)
        pair = dg.gen_shifted_gaussians(gcfg)
        sel = ur.SelectorConfig(L1=6, L2=6, L=2)
        cfg = bs.IcudaBuildConfig(sel=sel)
        build = bs.build_icuda_transformer(pair, cfg)
        return pair, build, bs.verify_icuda(build, pair)

    def test_verify_runs_the_composed_model_once(self, monkeypatch):
        gcfg = dg.ShiftGaussConfig(d=1, n_source=6, n_target=4, n_eval=2,
                                   mu_target=9.0, seed=5)
        pair = dg.gen_shifted_gaussians(gcfg)
        cfg = bs.IcudaBuildConfig(sel=ur.SelectorConfig(L1=2, L2=2, L=1))
        build = bs.build_icuda_transformer(pair, cfg)
        attn = tc.attn_forward
        calls = []
        monkeypatch.setattr(tc, "attn_forward",
                            lambda layer, tm: calls.append(1) or attn(layer, tm))
        bs.verify_icuda(build, pair)
        n_calls, n_layers = len(calls), len(build.tf.layers)
        assert n_calls == n_layers

    def test_overlapping_supports_route_to_ratio_branch(self):
        pair, build, rep = self.build(mu_t=0.1, sigma_t=0.5, seed=1)
        assert rep.agreement
        assert rep.choice_tf == "iwl"
        assert rep.margin_certified
        assert rep.within_branch_bound
        failed = [k for k, v in rep.checks.items() if v is False]
        assert failed == []
        assert_branch_rows_match_standalone(pair, build)

    def test_disjoint_supports_route_to_alignment_branch(self):
        pair, build, rep = self.build(mu_t=9.0, sigma_t=1.0, seed=2)
        assert rep.agreement
        assert rep.choice_tf == "dann"
        assert rep.margin_certified
        assert rep.within_branch_bound
        assert rep.q_hi < rep.delta
        failed = [k for k, v in rep.checks.items() if v is False]
        assert failed == []
        assert_branch_rows_match_standalone(pair, build)

    def test_report_brackets_contain_realized_statistic(self):
        pair, build, rep = self.build(mu_t=9.0, sigma_t=1.0, seed=4)
        assert rep.q_lo <= rep.q_tf <= rep.q_hi
