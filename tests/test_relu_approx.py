"""Piecewise-linear approximators: exactness, certificates, normalization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import icuda.relu_approx as ra


class TestFit1d:
    def test_piecewise_linear_functions_are_exact(self):
        for f in (np.abs, lambda t: 2.0 * t + 1.0):
            rs, rep = ra.fit_1d(f, 1.0, 33)
            assert rep.sup_error <= 1e-11
            grid = np.linspace(-1.0, 1.0, 401)
            vals = ra.eval_batch(rs, grid[:, None])
            assert_allclose(vals, f(grid), atol=1e-11)

    def test_exponential_error_within_quadratic_budget(self):
        M = 65
        rs, rep = ra.fit_1d(lambda t: np.exp(-t), 1.0, M)
        # curvature bound: max |f''| / 8 times the squared knot spacing
        budget = (np.e / 8.0) * (2.0 / (M - 1)) ** 2
        grid = np.linspace(-1.0, 1.0, 5001)
        err = np.max(np.abs(ra.eval_batch(rs, grid[:, None]) - np.exp(-grid)))
        assert err <= budget
        # the certificate over-covers the measured error, but not wildly
        assert err <= rep.sup_error <= 2.0 * budget

    def test_terms_are_normalized(self):
        rs, _ = ra.fit_1d(lambda t: np.exp(-t), 1.0, 65)
        max_norm = float(np.max(np.sum(np.abs(rs.a), axis=1) + np.abs(rs.b)))
        assert max_norm <= 1.0 + 1e-12


class TestFitKnots:
    def test_interpolates_at_knots(self):
        knots = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
        f = lambda t: np.exp(-t)
        rs, _ = ra.fit_knots(f, knots)
        for k in knots:
            assert rs([k]) == pytest.approx(f(k), abs=1e-12)

    def test_flat_left_extrapolation(self):
        knots = np.linspace(1.0, 4.0, 7)
        rs, _ = ra.fit_knots(np.log, knots)
        left = rs([-50.0])
        assert left == pytest.approx(np.log(1.0), abs=1e-9)

    def test_monotone_data_stays_monotone_on_line(self):
        knots = np.geomspace(1e-6, 10.0, 200)
        rs, _ = ra.fit_knots(np.log, knots)
        grid = np.linspace(-5.0, 20.0, 2000)
        vals = ra.eval_batch(rs, grid[:, None])
        assert np.all(np.diff(vals) >= -1e-9)

    def test_decreasing_function(self):
        knots = np.linspace(-1.0, 1.0, 50)
        rs, _ = ra.fit_knots(lambda t: np.exp(-3.0 * t), knots)
        grid = np.linspace(-2.0, 2.0, 500)
        vals = ra.eval_batch(rs, grid[:, None])
        assert np.all(np.diff(vals) <= 1e-9)


class TestCertificate:
    def test_float_error_bounds_the_float_evaluation(self):
        # the 3000-knot log fit of the selector: sum |c| is about 2e8
        knots = np.geomspace(1e-8, 11.0, 3000)
        rs, rep = ra.fit_knots(np.log, knots)
        z = np.geomspace(1e-8, 11.0, 257)
        pre = np.maximum(np.outer(z.astype(np.longdouble), rs.a[:, 0]) + rs.b, 0)
        exact = pre @ rs.c.astype(np.longdouble)
        gap = np.abs(ra.eval_batch(rs, z[:, None]) - exact)
        bound = np.array([ra.float_error(rs, [t]) for t in z])
        assert np.all(gap <= bound)
        assert rep.float_error == pytest.approx(ra.float_error(rs, [11.0]))

    def test_fit_1d_and_fit_interval_are_knot_fits(self):
        f = lambda t: np.exp(-t)
        for (rs, rep), knots in ((ra.fit_1d(f, 1.0, 17), np.linspace(-1.0, 1.0, 17)),
                                 (ra.fit_interval(f, 0.5, 2.0, 9), np.linspace(0.5, 2.0, 9))):
            ref, ref_rep = ra.fit_knots(f, knots)
            for part in ("a", "b", "c"):
                assert np.array_equal(getattr(rs, part), getattr(ref, part))
            assert rep.sup_error == ref_rep.sup_error

    def test_knot_check_catches_construction_faults(self, monkeypatch):
        normalize = ra._normalize_terms
        swap = [0, 1, 2, 15, *range(4, 15), 3, 16, 17, 18, 19]
        faults = [
            lambda a, b, c: (a, b, c * (1.0 + 1e-6)),
            # a swap leaves the sum unchanged, but at the knots between the
            # swapped terms no prefix of the terms is the active set
            lambda a, b, c: (a[swap], b[swap], c[swap]),
            lambda a, b, c: tuple(np.delete(v, 5, axis=0) for v in (a, b, c)),
        ]
        for fault in faults:
            monkeypatch.setattr(ra, "_normalize_terms",
                                lambda a, b, c, fault=fault: fault(*normalize(a, b, c)))
            with pytest.raises(RuntimeError, match="knot values"):
                ra.fit_knots(np.exp, np.linspace(0.0, 1.0, 20))

    @staticmethod
    def assert_prefix_sums_match_term_sums(f, knots):
        rs, rep = ra.fit_knots(f, knots)
        got = ra.prefix_sum_eval(rs.a[:, 0], rs.b, rs.c)(knots)
        gap = np.abs(got - ra.eval_batch(rs, knots[:, None]))
        assert np.all(gap <= rep.float_error)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(start=st.floats(-50.0, 50.0),
           steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=60),
           omega=st.floats(0.0, 20.0))
    def test_prefix_sums_match_term_sums_at_random_knots(self, start, steps, omega):
        knots = start + np.concatenate([[0.0], np.cumsum(steps)])
        self.assert_prefix_sums_match_term_sums(
            lambda t: np.sin(omega * t) + 0.1 * t ** 2, knots)

    def test_prefix_sums_match_term_sums_on_the_log_grid(self):
        self.assert_prefix_sums_match_term_sums(np.log, np.geomspace(1e-8, 11.0, 3000))

    def test_knot_check_runs_in_linear_memory(self):
        knots = np.geomspace(1e-8, 11.0, 3000)
        tracemalloc.start()
        try:
            ra.fit_knots(np.log, knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an M x M evaluation of the 3000 terms would take 72 MB
        assert peak < 8 * 2**20

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(amp=st.floats(0.0, 5.0), omega=st.floats(0.1, 30.0),
           phase=st.floats(0.0, 2 * np.pi), rate=st.floats(-3.0, 3.0),
           start=st.floats(-3.0, 3.0),
           steps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40))
    def test_dense_sampling_never_exceeds_sup_error(self, amp, omega, phase,
                                                    rate, start, steps):
        def f(t):
            return amp * np.sin(omega * t + phase) + np.exp(rate * t)

        h = 1.0 / max(omega, abs(rate))
        knots = start + h * np.concatenate([[0.0], np.cumsum(steps)])
        rs, rep = ra.fit_knots(f, knots)
        assert rep.sup_error == rep.grid_sup + rep.margin + rep.float_error
        frac = np.linspace(0.0, 1.0, 400)
        z = (knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel()
        err = np.max(np.abs(ra.eval_batch(rs, z[:, None]) - f(z)))
        assert err <= rep.sup_error


class TestMultivariate:
    def test_fit_nd_radial_function(self):
        f = lambda z: np.exp(-0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2))
        rs, rep = ra.fit_nd(f, 2, 1.5, 400, seed=0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.5, 1.5, size=(300, 2))
        vals = ra.eval_batch(rs, pts)
        ref = f(pts)
        assert np.max(np.abs(vals - ref)) <= max(3.0 * rep.sup_error, 0.05)

    @pytest.mark.parametrize("k", [2, 3])
    def test_ridge_parts_split_fit_nd_by_direction(self, k):
        """Every term lands in one part, on its own dictionary direction
        (a_m = alpha_m d bit for bit), each part in strictly increasing
        breakpoint order, the constant term first; the parts' prefix sums
        add up to the fit within its float_error, which sup_error holds."""
        f = lambda z: np.sin(z[..., 0]) * np.cos(z[..., 1])
        rs, rep = ra.fit_nd(f, k, 1.0, 150)
        assert rep.float_error > 0.0
        assert rep.sup_error == rep.grid_sup + rep.margin + rep.float_error
        parts = ra.ridge_parts(rs)
        assert len(parts) == len(rs.ridges.directions)
        assert sum(len(c) for _, _, _, c in parts) == rs.n_terms
        assert parts[0][1][0] == 0.0 and parts[0][2][0] > 0.0
        for d, alpha, b, c in parts:
            assert np.all(alpha >= 0.0)
            assert np.all(np.diff(ra.breakpoints(alpha, b)) > 0.0)
            for am, bm, cm in zip(alpha, b, c):
                m = np.flatnonzero((rs.b == bm) & (rs.c == cm))
                assert m.size == 1 and np.array_equal(rs.a[m[0]], am * d)
        Z = np.random.default_rng(2).uniform(-1.0, 1.0, (200, k))
        total = sum(ra.prefix_sum_eval(alpha, b, c)(Z @ d)
                    for d, alpha, b, c in parts)
        want = ra.eval_batch(rs, Z)
        assert np.max(np.abs(total - want)) <= 2.0 * ra.float_error(rs, np.ones(k))
        # a 1-D sum is one part along d = [1] that reproduces it
        r1 = ra.fit_1d(np.abs, 1.0, 5)[0]
        [(d, alpha, b, c)] = ra.ridge_parts(r1)
        z = np.linspace(-1.0, 1.0, 9)
        assert d.tolist() == [1.0]
        assert np.max(np.abs(ra.prefix_sum_eval(alpha, b, c)(z)
                             - ra.eval_batch(r1, z[:, None]))) <= \
            ra.float_error(r1, [1.0])
        with pytest.raises(ValueError, match="dictionary"):
            ra.ridge_parts(ra.ReluSum(np.ones((1, 2)), [0.0], [1.0], input_dim=2,
                                      sup_error=0.0))

    def test_fit_binary_gated_slices(self):
        """Slice v fits f(., v) within sup_error on the interval, by prefix
        sums too, and its offsets G_m keep every term of the slice off at
        the other label there: a_m t + b_m - G_m <= 0.  Each term's two-input
        unit has l1 norm |a_m| + G_m + |b_m - v G_m| of 1."""
        f = lambda t, v: (1.0 - v) * t + v * (2.0 * t + 1.0)
        gs, rep = ra.fit_binary_gated(f, -1.0, 1.0, 41)
        assert gs.n_terms == sum(s.n_terms for s in gs.slices) and \
            gs.sup_error == rep.sup_error
        grid = np.linspace(-1.0, 1.0, 101)
        for v, (s, G) in enumerate(zip(gs.slices, gs.offsets)):
            assert s.input_dim == 1 and np.all(s.a >= 0.0) and np.all(G >= 0.0)
            assert_allclose(ra.eval_batch(s, grid[:, None]), f(grid, v),
                            atol=1e-9 + rep.sup_error)
            assert_allclose(ra.prefix_sum_eval(s.a[:, 0], s.b, s.c)(grid),
                            f(grid, v), atol=1e-9 + rep.sup_error)
            pre = s.a[:, 0] * grid[:, None] + s.b - G
            assert np.all(pre <= 1e-15)
            assert_allclose(np.abs(s.a[:, 0]) + G + np.abs(s.b - v * G), 1.0,
                            rtol=1e-15)

    def test_lift_embeds_direction(self):
        rs, _ = ra.fit_1d(np.abs, 1.0, 17)
        d = np.array([0.6, -0.8, 0.0])
        lifted = ra.lift(rs, d, 3)
        for z in (np.array([0.3, 0.1, 5.0]), np.array([-0.2, 0.4, -1.0])):
            assert lifted(z) == pytest.approx(rs([d @ z]), abs=1e-12)

    def test_combine_sums_parts(self):
        r1, _ = ra.fit_1d(np.abs, 1.0, 9)
        r2 = ra.exact_terms([[1.0]], [0.0], [2.0], k=1)
        both = ra.combine([r1, r2], 1)
        z = [0.4]
        assert both(z) == pytest.approx(r1(z) + r2(z), abs=1e-12)


class TestExactTerms:
    def test_direct_sum(self):
        rs = ra.exact_terms([[2.0], [-1.0]], [0.5, 0.0], [1.0, 3.0], k=1)
        z = 0.25
        expected = max(2.0 * z + 0.5, 0.0) + 3.0 * max(-z, 0.0)
        assert rs([z]) == pytest.approx(expected, abs=1e-12)

    def test_constant_term(self):
        rs = ra.exact_terms([[0.0]], [1.0], [0.7], k=1)
        for z in (-3.0, 0.0, 11.0):
            assert rs([z]) == pytest.approx(0.7, abs=0)


class TestSerialization:
    def test_eval_batch_matches_loop(self):
        rs, _ = ra.fit_1d(np.abs, 1.0, 17)
        Z = np.linspace(-1.0, 1.0, 23)[:, None]
        batch = ra.eval_batch(rs, Z)
        loop = np.array([rs(z) for z in Z])
        assert_allclose(batch, loop, atol=1e-13)
