"""Weight constructions replaying the adversarial alignment updates."""

import numpy as np
import pytest

import icuda.build_dann as bd
import icuda.datagen as dg
import icuda.harness as hz


@pytest.fixture(scope="module")
def moon_build(small_moon_pair):
    cfg = bd.DannBuildConfig(d=2, K=2, eta=0.1, lam=1.0, L=3,
                             delta_gamma=0.05, seed=3)
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
        cfg = bd.DannBuildConfig(d=1, K=2, eta=0.1, lam=1.0, L=3,
                                 delta_gamma=0.05, seed=5)
        build = bd.build_dann_transformer(pair, cfg)
        cert = bd.verify_dann(build, pair)
        for row in cert.rows:
            assert row.ok
        assert cert.final_gap <= cert.cumulative


class TestProjectionPath:
    def test_boundary_state_activates_projection(self, small_moon_pair):
        import icuda.uda_ref as ur

        cfg = bd.DannBuildConfig(d=2, K=2, eta=0.5, lam=1.0, L=2,
                                 delta_gamma=0.05, B_u=0.4, B_w=0.25,
                                 B_v=0.25, proj_terms=300, seed=3)
        params = cfg.params()
        state = ur.init_dann(params, 2, 3)
        state.u *= cfg.B_u / np.linalg.norm(state.u, axis=1, keepdims=True)
        state.w *= cfg.B_w / np.linalg.norm(state.w)
        state.v *= cfg.B_v / np.linalg.norm(state.v)
        build = bd.build_dann_transformer(small_moon_pair, cfg, state0=state)
        assert build.proj_enabled
        assert max(build.eps_proj.values()) > 0.0
        cert = bd.verify_dann(build, small_moon_pair)
        for row in cert.rows:
            assert row.ok
        assert cert.final_gap <= cert.cumulative

    def test_scalar_blocks_project_exactly(self):
        """In d = 1 each u_k block is an interval, projected by the exact
        pair -relu(z - B) + relu(-z - B)."""
        import icuda.uda_ref as ur

        pair = dg.gen_shifted_gaussians(dg.ShiftGaussConfig(
            d=1, n_source=10, n_target=8, mu_target=0.8, boundary=0.5, seed=5))
        cfg = bd.DannBuildConfig(d=1, K=2, eta=0.5, lam=1.0, L=2,
                                 delta_gamma=0.05, B_u=0.4, B_w=0.25,
                                 B_v=0.25, proj_terms=300, seed=5)
        state = ur.init_dann(cfg.params(), 1, 5)
        state.u *= cfg.B_u / np.abs(state.u)
        state.w *= cfg.B_w / np.linalg.norm(state.w)
        state.v *= cfg.B_v / np.linalg.norm(state.v)
        build = bd.build_dann_transformer(pair, cfg, state0=state)
        assert build.proj_enabled
        assert build.eps_proj["u"] == 0.0
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
        gated, _ = bd.lossgrad_fit("logistic", 3.0, 0.05, 40)
        with pytest.raises(ValueError):
            gated.c[0] = 0.0

    def test_prescaled_terms_stay_normalized_on_radius(self):
        R1 = 7.0
        rs, rep = bd.activation_fit("logistic", R1, 200)
        # |a t + b| <= 1 must hold over |t| <= R1 for the gates to block
        worst = np.max(np.abs(rs.a[:, 0]) * R1 + np.abs(rs.b))
        assert worst <= 1.0 + 1e-9
        grid = np.linspace(-R1, R1, 801)
        import icuda.uda_ref as ur
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
            b = bd.build_dann_transformer(pair, bcfg.dann_config(pair.d))
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
