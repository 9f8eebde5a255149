"""Weight constructions replaying the adversarial alignment updates."""

import numpy as np
import pytest

import icuda.build_dann as bd
import icuda.datagen as dg
import icuda.harness as hz
import icuda.tfcore as tc
import icuda.uda_ref as ur
from icuda.build_select import IcudaBuildConfig

from test_tfcore import fit_float_error, ridge_z


@pytest.fixture(scope="module")
def moon_build(small_moon_pair):
    # lam is the ratio branch's ridge weight: a DANN builder that read it in
    # place of lam_dann would leave the oracle's trajectory
    cfg = IcudaBuildConfig(sel=ur.SelectorConfig(
        K=2, eta=0.1, lam=3.0, lam_dann=1.0, L=3, delta_gamma=0.05, seed=3))
    build = bd.build_dann_transformer(small_moon_pair, cfg)
    cert = bd.verify_dann(build, small_moon_pair)
    return build, cert


class TestPerStep:
    def test_all_blocks_within_bounds(self, moon_build):
        _, cert = moon_build
        assert len(cert.rows) == 3
        for row in cert.rows:
            assert row.dev_u <= row.bound_u
            assert row.dev_w <= row.bound_w
            assert row.dev_v <= row.bound_v
            assert row.ok

    def test_cumulative_certificate(self, moon_build):
        _, cert = moon_build
        assert cert.final_gap <= cert.cumulative

    def test_structural_checks_pass(self, moon_build):
        _, cert = moon_build
        failed = [k for k, v in cert.checks.items() if v is False]
        assert failed == []

    def test_fit_errors_recorded(self, moon_build):
        _, cert = moon_build
        for eps in (cert.eps_r, cert.eps_gl, cert.eps_gd):
            assert 0.0 <= eps < 1e-2


class TestScalarFeatures:
    def test_one_dimensional_inputs(self):
        """d = 1 drives the update heads through large pre-activation
        ranges, which the prescaled activation fits must keep gated."""
        cfg_g = dg.ShiftGaussConfig(d=1, n_source=10, n_target=8,
                                    mu_target=0.8, boundary=0.5, seed=5)
        pair = dg.gen_shifted_gaussians(cfg_g)
        cfg = IcudaBuildConfig(sel=ur.SelectorConfig(
            K=2, eta=0.1, lam_dann=1.0, L=3, delta_gamma=0.05, seed=5))
        build = bd.build_dann_transformer(pair, cfg)
        cert = bd.verify_dann(build, pair)
        for row in cert.rows:
            assert row.ok
        assert cert.final_gap <= cert.cumulative


def assert_mlp_by_term(layer, D, units):
    """The layer's (W1, W2) equal, bit for bit, the MLP written one hidden
    unit at a time from (w1 entries, output row, c) triples, where w1
    entries are (row, value) pairs assigned in order."""
    W1 = np.zeros((len(units), D))
    W2 = np.zeros((D, len(units)))
    for i, (entries, out, c) in enumerate(units):
        for r, v in entries:
            W1[i, r] = v
        W2[out, i] = c
    assert W1.shape == layer.W1.shape and W1.tobytes() == layer.W1.tobytes()
    assert W2.shape == layer.W2.shape and W2.tobytes() == layer.W2.tobytes()


def zeroing_units(layout):
    """The exact pair per scratch row that subtracts the row."""
    return [([(layout.row(name), sign)], layout.row(name), -sign)
            for name in ("lam", "delta", "gl", "gd") for sign in (1.0, -1.0)]


def assert_projection_mlp_by_term(build):
    """The update layer's MLP is the zeroing pairs, then each block's
    projection fits (u_0..u_K-1, w, v) one unit per term, bit for bit."""
    layout, sel = build.layout, build.cfg.sel
    one = layout.row("one")
    units = zeroing_units(layout)
    specs = [(f"u{k}", sel.B_u) for k in range(sel.K)]
    specs += [("w", sel.B_w), ("v", sel.B_v)]
    for slot, B in specs:
        sl = layout.rows(slot)
        fits, _ = bd.projection_fit(B, build.bounds["R_blk"], layout.width(slot),
                                    bd.PROJECTION_TERMS)
        for i, rs in enumerate(fits):
            for m in range(rs.n_terms):
                entries = list(zip(range(sl.start, sl.stop), rs.a[m]))
                units.append((entries + [(one, rs.b[m])], sl.start + i, rs.c[m]))
    assert_mlp_by_term(build.tf.layers[1], layout.dim, units)


class TestProjectionPath:
    def test_boundary_state_activates_projection(self, small_moon_pair):
        sel = ur.SelectorConfig(K=2, eta=0.5, lam_dann=1.0, L=2,
                                delta_gamma=0.05, B_u=0.4, B_w=0.25,
                                B_v=0.25, seed=3)
        state = ur.init_dann(sel, 2, 3)
        state.u *= sel.B_u / np.linalg.norm(state.u, axis=1, keepdims=True)
        state.w *= sel.B_w / np.linalg.norm(state.w)
        state.v *= sel.B_v / np.linalg.norm(state.v)
        build = bd.build_dann_transformer(
            small_moon_pair, IcudaBuildConfig(sel=sel), state0=state)
        assert build.proj_enabled
        assert max(build.eps_proj.values()) > 0.0
        assert_projection_mlp_by_term(build)
        cert = bd.verify_dann(build, small_moon_pair)
        for row in cert.rows:
            assert row.ok
        assert cert.final_gap <= cert.cumulative

    def test_scalar_blocks_project_exactly(self):
        """In d = 1 each u_k block is an interval, projected by the exact
        pair -relu(z - B) + relu(-z - B)."""
        pair = dg.gen_shifted_gaussians(dg.ShiftGaussConfig(
            d=1, n_source=10, n_target=8, mu_target=0.8, boundary=0.5, seed=5))
        sel = ur.SelectorConfig(K=2, eta=0.5, lam_dann=1.0, L=2,
                                delta_gamma=0.05, B_u=0.4, B_w=0.25,
                                B_v=0.25, seed=5)
        state = ur.init_dann(sel, 1, 5)
        state.u *= sel.B_u / np.abs(state.u)
        state.w *= sel.B_w / np.linalg.norm(state.w)
        state.v *= sel.B_v / np.linalg.norm(state.v)
        build = bd.build_dann_transformer(pair, IcudaBuildConfig(sel=sel),
                                          state0=state)
        assert build.proj_enabled
        assert build.eps_proj["u"] == 0.0
        assert_projection_mlp_by_term(build)
        cert = bd.verify_dann(build, pair)
        for row in cert.rows:
            assert row.ok
        assert cert.final_gap <= cert.cumulative

    def test_roomy_balls_skip_projection(self, moon_build):
        build, _ = moon_build
        assert not build.proj_enabled
        assert set(build.eps_proj.values()) == {0.0}


class TestActivationFit:
    def test_cached_fits_are_read_only(self):
        rs, _ = bd.activation_fit("logistic", 3.0, 50)
        assert bd.activation_fit("logistic", 3.0, 50)[0] is rs
        for arr in (rs.a, rs.b, rs.c):
            with pytest.raises(ValueError):
                arr *= 2.0
        gated, _, _ = bd.lossgrad_fit(3.0, 0.05, 40)
        with pytest.raises(ValueError):
            gated.c[0] = 0.0

    def test_value_bound_is_cached_with_its_fit(self, small_moon_pair,
                                                 monkeypatch):
        """B_g is computed with the loss-gradient fit: a second build at the
        same R_sc reads it from the cache and does not evaluate the fit."""
        monkeypatch.setattr(bd, "_FIT_CACHE", {})
        calls = []
        bound = bd._gl_value_bound
        monkeypatch.setattr(bd, "_gl_value_bound",
                            lambda *args: calls.append(args) or bound(*args))
        cfg = IcudaBuildConfig(sel=ur.SelectorConfig(L=1, delta_gamma=0.05))
        first = bd.build_dann_transformer(small_moon_pair, cfg)
        second = bd.build_dann_transformer(small_moon_pair, cfg)
        assert second.bounds["R_sc"] == first.bounds["R_sc"]
        assert len(calls) == 1
        assert second.bounds["B_g"] == first.bounds["B_g"] == bound(
            first.fits["gl"], first.bounds["R_sc"], cfg.gl_knots)

    def test_prescaled_terms_stay_normalized_on_radius(self):
        R1 = 7.0
        rs, rep = bd.activation_fit("logistic", R1, 200)
        # |a t + b| <= 1 must hold over |t| <= R1 for the gates to block
        worst = np.max(np.abs(rs.a[:, 0]) * R1 + np.abs(rs.b))
        assert worst <= 1.0 + 1e-9
        grid = np.linspace(-R1, R1, 801)
        vals = np.array([float(np.maximum(rs.a @ [t] + rs.b, 0.0) @ rs.c)
                         for t in grid])
        ref = ur.logistic(grid)
        assert np.max(np.abs(vals - ref)) <= rep.sup_error + 1e-12


def _weights(tf) -> list:
    """Every weight array of a model, families' fields included."""
    out = []
    for layer in tf.layers:
        for unit in (*layer.heads, *layer.families):
            out += [np.asarray(v) for v in vars(unit).values()
                    if isinstance(v, (np.ndarray, int))]
        out += [layer.W1, layer.W2]
    return out


class TestFitCache:
    def test_cache_keeps_the_newest_fits(self, monkeypatch):
        monkeypatch.setattr(bd, "_FIT_CACHE", {})
        radii = 1.0 + 0.01 * np.arange(bd._FIT_CACHE_SIZE + 4)
        first, rep = bd.activation_fit("logistic", radii[0], 8)
        for R1 in radii[1:]:
            bd.activation_fit("logistic", R1, 8)
        assert len(bd._FIT_CACHE) == bd._FIT_CACHE_SIZE
        assert list(bd._FIT_CACHE) == [("act", "logistic", R1, 8)
                                       for R1 in radii[4:]]
        again, rep2 = bd.activation_fit("logistic", radii[0], 8)
        assert again is not first and not again.c.flags.writeable
        for part in ("a", "b", "c"):
            assert getattr(again, part).tobytes() == getattr(first, part).tobytes()
        assert rep2.sup_error == rep.sup_error
        assert len(bd._FIT_CACHE) == bd._FIT_CACHE_SIZE

    def test_build_does_not_depend_on_earlier_builds(self, monkeypatch):
        """Seeds 2 and 3 of the shift1d dann defaults share the product
        fit's cache key (both have R1 = 7); seed 3 gives the same weights
        and certificate whether or not seed 2 was built first."""
        def build(seed):
            cfg = hz.ExperimentConfig(algo="dann", seeds=[seed])
            pair = hz.make_pair(cfg, seed)
            bcfg = hz.build_config(cfg, hz.selector_config(cfg, seed))
            b = bd.build_dann_transformer(pair, bcfg)
            return _weights(b.tf), repr(bd.verify_dann(b, pair))

        def products():
            return {k for k in bd._FIT_CACHE if k[0] == "prod"}

        monkeypatch.setattr(bd, "_FIT_CACHE", {})
        alone = build(3)
        monkeypatch.setattr(bd, "_FIT_CACHE", {})
        build(2)
        shared = products()
        after = build(3)
        assert products() == shared and len(shared) == 1
        assert len(alone[0]) == len(after[0])
        for x, y in zip(alone[0], after[0]):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert alone[1] == after[1]


@pytest.fixture(scope="module")
def shift_build():
    """The seed-0 build of the shift1d dann defaults, and its pair."""
    cfg = hz.ExperimentConfig(algo="dann", seeds=[0])
    pair = hz.make_pair(cfg, 0)
    bcfg = hz.build_config(cfg, hz.selector_config(cfg, 0))
    return bd.build_dann_transformer(pair, bcfg), pair


def product_heads(build, pair, k, coef_slot, scale, grad_row, kind, vcoef):
    """The heads of one product-fit update family, one plain head per term
    of ``fits["p"]`` in the fit's term order: the score
    a_s w_k gl_j / scale + a_z u_k . x_j / R1 + b + gate (-2 at every
    receiver times k_g at the sender) and the value vcoef scale c I on the
    sender's point."""
    layout, pfit = build.layout, build.fits["p"]
    D, d, R1 = layout.dim, pair.d, build.bounds["R1"]
    one, usl, xs = layout.row("one"), layout.rows(f"u{k}"), layout.rows("x")
    k_g = np.zeros(D)
    k_g[one] = 1.0
    if kind == "src":
        k_g[layout.row("t")] = -1.0
    else:
        k_g[layout.row("s")] = -1.0
        k_g[layout.row("t")] = 1.0
    heads = []
    for m in range(pfit.n_terms):
        a_s, a_z = pfit.a[m]
        Q = np.zeros((d + 3, D))
        K = np.zeros((d + 3, D))
        Q[0, coef_slot] = a_s / scale
        K[0, grad_row] = 1.0
        Q[1 : 1 + d, usl] = (a_z / R1) * np.eye(d)
        K[1 : 1 + d, xs] = np.eye(d)
        Q[1 + d, one] = pfit.b[m]
        K[1 + d, one] = 1.0
        Q[2 + d, one] = -2.0
        K[2 + d] = k_g
        V = np.diag([vcoef * scale * pfit.c[m]] * d)
        heads.append(tc.AttentionHead(Q, K, V, np.r_[usl], np.r_[xs]))
    return heads


class TestUpdateFamilies:
    def test_product_families_expand_to_the_per_term_heads(self, shift_build):
        """Each product-fit family's heads are the fit's per-term heads
        (the constant term first, then direction by direction) to 1e-15
        relative: a_m is alpha_m d as fit_nd computes it, and the heads
        scale d / scale by alpha_m instead."""
        build, pair = shift_build
        cfg, B = build.cfg.sel, build.bounds
        layout = build.layout
        N = pair.n + pair.n_prime
        order = np.argsort(build.fits["p"].ridges.index, kind="stable")
        heads = tc.layer_heads(build.tf.layers[1])
        per_k = len(heads) // cfg.K
        for k in range(cfg.K):
            w, v = layout.start("w") + k, layout.start("v") + k
            specs = [(w, B["S1"], layout.row("gl"), "src",
                      -(N + 1) * cfg.eta / pair.n),
                     (v, B["S3"], layout.row("gd"), "src",
                      (N + 1) * cfg.lam_dann * cfg.eta / pair.n),
                     (v, B["S3"], layout.row("gd"), "tgt",
                      (N + 1) * cfg.lam_dann * cfg.eta / pair.n_prime)]
            want = []
            for spec in specs:
                terms = product_heads(build, pair, k, *spec)
                want += [terms[m] for m in order]
            got = heads[k * per_k : k * per_k + len(want)]
            assert len(got) == len(want) == 3 * build.fits["p"].n_terms
            for g, h in zip(got, want):
                for x, y in ((g.Q, h.Q), (g.K, h.K), (g.V, h.V)):
                    np.testing.assert_allclose(x, y, rtol=1e-15, atol=0)
                assert np.array_equal(g.rows, h.rows)
                assert np.array_equal(g.cols, h.cols)

    def test_update_layer_matches_its_heads(self, shift_build):
        """On the run's own stream, the update layer's attention equals the
        same layer expanded to plain heads within the families' float
        bound: each family's scores within float_error of its terms, times
        its value map's largest row sum and the largest entry it reads."""
        build, pair = shift_build
        tm = bd.encode_dann(pair, build.layout, build.state0)
        _, trace = tc.forward_trace(build.tf, tm)
        for l in range(build.cfg.sel.L):
            layer, st = build.tf.layers[2 * l + 1], trace[2 * l]
            H = st.data
            got = tc.attn_forward(layer, st).data
            expanded = tc.TransformerLayer(tc.layer_heads(layer), layer.W1, layer.W2)
            want = tc.attn_forward(expanded, st).data
            bound = sum(fit_float_error(f, ridge_z(f, H))
                        * np.abs(f.V0).sum(axis=1).max() * np.abs(H[f.cols]).max()
                        for f in layer.families)
            assert np.max(np.abs(got - want)) <= bound


class TestStepMlps:
    def test_lossgrad_mlp_matches_term_by_term(self, shift_build):
        """The forward layer's gated MLP is the gl fit's terms, then the gd
        fit's, each unit reading (score, label) plus the gate row at G and
        the constant row at b_m - G, bit for bit; the update layer's MLP is
        the zeroing pairs alone when the projection is off."""
        build, _ = shift_build
        layout, R_sc = build.layout, build.bounds["R_sc"]
        row = layout.row
        units = []
        for fit, score, label, gate, out in (
                (build.fits["gl"], "lam", "y", "t", "gl"),
                (build.fits["gd"], "delta", "t", "s", "gd")):
            G = float(np.max(np.abs(fit.a[:, 0])) * R_sc
                      + np.max(np.abs(fit.a[:, 1])) + np.max(np.abs(fit.b))) + 1.0
            for m in range(fit.n_terms):
                entries = [(row(score), fit.a[m, 0]), (row(label), fit.a[m, 1]),
                           (row("one"), fit.b[m] - G), (row(gate), G)]
                units.append((entries, row(out), fit.c[m]))
        assert_mlp_by_term(build.tf.layers[0], layout.dim, units)
        assert not build.proj_enabled
        assert_mlp_by_term(build.tf.layers[1], layout.dim, zeroing_units(layout))
