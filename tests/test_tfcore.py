"""Stream algebra: attention/MLP forward passes, layouts, composition."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import icuda.relu_approx as ra
import icuda.tfcore as tc

from tf_reference import family_heads, layer_heads, zero_layer


def toy_layout(extra=()):
    slots = [("x", 2), ("y", 1), ("t", 1), ("s", 1), ("one", 1)]
    slots += list(extra)
    return tc.SlotLayout.build(slots)


def random_stream(layout, T, rng):
    H = rng.standard_normal((layout.dim, T))
    H[layout.row("one"), :] = 1.0
    return tc.TokenMatrix(H, layout, n_source=max(T - 2, 1), n_target=1)


def random_head(dim, rows, rng, scale=0.3):
    """Head with a random value block: distinct rows and cols, in random
    order, anywhere from one entry to the full D x D."""
    out = rng.permutation(dim)[: rng.integers(1, dim + 1)]
    inp = rng.permutation(dim)[: rng.integers(1, dim + 1)]
    return tc.AttentionHead(
        scale * rng.standard_normal((rows, dim)),
        scale * rng.standard_normal((rows, dim)),
        scale * rng.standard_normal((out.size, inp.size)),
        out,
        inp,
    )


def dense_value(head, dim):
    V = np.zeros((dim, dim))
    V[np.ix_(head.rows, head.cols)] = head.V
    return V


def reference_norm(M):
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def part_units_reference(part, D):
    """(W1, W2) of a part's hidden units, written one unit at a time as
    relu_sum_mlp wrote a gated fit: a_m at inp, b_m at one, and for each
    gate (row r, open value u, offsets o) (2u - 1) o_m at r and -u o_m at
    one; W2 holds c_m at out."""
    W1 = np.zeros((part.n_terms, D))
    W2 = np.zeros((D, part.n_terms))
    for m in range(part.n_terms):
        W1[m, part.inp] += part.a[m]
        W1[m, part.one] += part.b[m]
        for r, u, o in zip(part.gate_rows, part.gate_open, part.offsets):
            W1[m, r] += (2.0 * u - 1.0) * o[m]
            W1[m, part.one] -= u * o[m]
        W2[part.out, m] = part.c[m]
    return W1, W2


def dense_mlp(layer):
    """The layer's MLP as one dense (W1, W2): W1's units, then each part's
    units (``part_units_reference``)."""
    D = layer.W1.shape[1]
    units = [part_units_reference(p, D) for p in layer.parts]
    return (np.vstack([layer.W1] + [w1 for w1, _ in units]),
            np.hstack([layer.W2] + [w2 for _, w2 in units]))


def reference_layer_norm(layer):
    """layer_norm as one SVD per matrix, summing V norms head by head, with
    the dense MLP (``dense_mlp``)."""
    qk = vsum = 0.0
    for h in layer_heads(layer):
        qk = max(qk, reference_norm(h.Q), reference_norm(h.K))
        vsum += reference_norm(h.V)
    W1, W2 = dense_mlp(layer)
    return qk + vsum + reference_norm(W1) + reference_norm(W2)


def random_layer(dim, heads, rows, hidden, rng, scale=0.3):
    hs = [random_head(dim, rows, rng, scale) for _ in range(heads)]
    W1 = scale * rng.standard_normal((hidden, dim))
    W2 = scale * rng.standard_normal((dim, hidden))
    return tc.TransformerLayer(hs, W1, W2)


class TestForward:
    def test_attention_matches_triple_loop(self, rng):
        layout = toy_layout([("w", 3)])
        T = 7
        tm = random_stream(layout, T, rng)
        layer = random_layer(layout.dim, heads=6, rows=3, hidden=4, rng=rng)
        assert any(h.V.size < layout.dim ** 2 for h in layer.heads)

        out = tc.attn_forward(layer, tm).data
        D = layout.dim
        expected = tm.data.copy()
        for i in range(T):
            acc = np.zeros(D)
            for j in range(T):
                for head in layer.heads:
                    score = 0.0
                    for r in range(head.Q.shape[0]):
                        score += (head.Q[r] @ tm.data[:, i]) * (head.K[r] @ tm.data[:, j])
                    acc += max(score, 0.0) * (dense_value(head, D) @ tm.data[:, j])
            expected[:, i] += acc / T
        assert_allclose(out, expected, atol=1e-12)

    def test_receivers_sharing_their_query_get_the_same_sum(self, rng):
        """A head whose Q reads only rows that every token carries alike (a
        state, here w) is scored once for all receivers: it matches the
        per-receiver scores within rounding, and every receiver gets the
        bitwise same sum, so the state stays equal at every token (a
        (T, T) product may round its columns differently at T = 241)."""
        layout = toy_layout([("w", 2)])
        D, T = layout.dim, 241
        rows = np.r_[layout.rows("w")]
        zl = zero_layer(D)
        for _ in range(20):
            tm = random_stream(layout, T, rng)
            tm.data[rows] = rng.standard_normal((2, 1))
            Q = np.zeros((2, D))
            Q[:, rows] = rng.standard_normal((2, 2))
            head = tc.AttentionHead(Q, rng.standard_normal((2, D)),
                                    0.3 * rng.standard_normal((2, D)), rows,
                                    np.arange(D))
            out = tc.attn_forward(tc.TransformerLayer([head], zl.W1, zl.W2), tm).data
            scores = np.maximum((Q @ tm.data).T @ (head.K @ tm.data), 0.0)
            want = tm.data.copy()
            want[rows] += head.V @ tm.data @ scores.T / T
            assert_allclose(out, want, rtol=1e-12, atol=1e-12)
            assert np.all(out[rows] == out[rows, :1])

    def test_mlp_matches_formula(self, rng):
        layout = toy_layout()
        tm = random_stream(layout, 5, rng)
        layer = random_layer(layout.dim, heads=0, rows=1, hidden=6, rng=rng)
        out = tc.mlp_forward(layer, tm).data
        expected = tm.data + layer.W2 @ np.maximum(layer.W1 @ tm.data, 0.0)
        assert_allclose(out, expected, atol=1e-12)

    def test_layer_is_mlp_after_attention(self, rng):
        layout = toy_layout([("w", 1)])
        tm = random_stream(layout, 6, rng)
        layer = random_layer(layout.dim, heads=1, rows=2, hidden=3, rng=rng)
        step = tc.layer_forward(layer, tm).data
        two = tc.mlp_forward(layer, tc.attn_forward(layer, tm)).data
        assert_allclose(step, two, atol=1e-13)

    def test_token_permutation_equivariance(self, rng):
        layout = toy_layout([("w", 2)])
        T = 8
        tm = random_stream(layout, T, rng)
        tf = tc.Transformer(
            [random_layer(layout.dim, 2, 2, 4, rng) for _ in range(3)],
            layout, readout=("y", None),
        )
        perm = rng.permutation(T)
        tm_p = tc.TokenMatrix(tm.data[:, perm], layout, tm.n_source, tm.n_target)
        out = tc.forward(tf, tm).data
        out_p = tc.forward(tf, tm_p).data
        assert_allclose(out_p, out[:, perm], atol=1e-10)

    def test_forward_trace_prefixes_match_forward(self, rng):
        layout = toy_layout()
        tm = random_stream(layout, 4, rng)
        layers = [random_layer(layout.dim, 1, 2, 3, rng) for _ in range(3)]
        tf = tc.Transformer(layers, layout, readout=("y", None))
        final, trace = tc.forward_trace(tf, tm)
        assert len(trace) == 3
        assert_allclose(final.data, trace[-1].data, atol=0)
        partial = tc.forward(tc.Transformer(layers[:2], layout, ("y", None)), tm)
        assert_allclose(trace[1].data, partial.data, atol=1e-13)

    def test_read_output_takes_query_column(self):
        layout = toy_layout()
        H = np.zeros((layout.dim, 4))
        H[layout.row("one"), :] = 1.0
        H[layout.row("y"), :] = [5.0, 6.0, 7.0, 8.0]
        tm = tc.TokenMatrix(H, layout, n_source=2, n_target=1)
        tf = tc.Transformer([zero_layer(layout.dim)], layout, ("y", None))
        assert tc.read_output(tf, tm) == 8.0

    def test_nonfinite_output_raises(self):
        layout = toy_layout()
        H = np.zeros((layout.dim, 3))
        H[layout.row("one"), :] = 1.0
        H[layout.rows("x"), :] = 1e200
        tm = tc.TokenMatrix(H, layout, 1, 1)
        Q = np.zeros((1, layout.dim))
        K = np.zeros((1, layout.dim))
        Q[0, layout.rows("x")] = [1e200, 0.0]
        K[0, layout.rows("x")] = [1e200, 0.0]
        head = tc.AttentionHead(Q, K, np.ones((1, 1)), np.r_[layout.row("y")],
                                np.r_[layout.row("one")])
        zl = zero_layer(layout.dim)
        layer = tc.TransformerLayer([head], zl.W1, zl.W2)
        tf = tc.Transformer([layer], layout, ("y", None))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tc.ForwardError):
                tc.forward(tf, tm)

    @pytest.mark.parametrize("rows, cols, shape", [
        ([0, 0], [1], (2, 1)),
        ([0], [1, 2, 1], (1, 3)),
        ([7], [1], (1, 1)),
        ([-1], [1], (1, 1)),
        ([0, 1], [2], (1, 1)),
        ([0.0], [1], (1, 1)),
    ], ids=["repeated_row", "repeated_col", "row_past_dim", "negative_row",
            "block_shape", "float_index"])
    def test_bad_value_block_rejected(self, rng, rows, cols, shape):
        layout = toy_layout()  # dim 6
        tm = random_stream(layout, 3, rng)
        good = random_head(layout.dim, 1, rng)
        bad = tc.AttentionHead(good.Q, good.K, np.ones(shape), np.array(rows),
                               np.array(cols))
        zl = zero_layer(layout.dim)
        layer = tc.TransformerLayer([good, bad], zl.W1, zl.W2)
        with pytest.raises(tc.ForwardError, match="head 1"):
            tc.layer_forward(layer, tm)

    def test_shape_error_names_first_bad_head(self, rng):
        D = toy_layout().dim
        heads = [random_head(D, r, rng) for r in (1, 2, 1, 2, 1)]
        # bad: head 2 (a float index), heads 3 and 5 (K rows differ from Q's)
        heads[3] = tc.AttentionHead(heads[3].Q, heads[3].K[:1], heads[3].V,
                                    heads[3].rows, heads[3].cols)
        h = heads[2]
        heads[2] = tc.AttentionHead(h.Q, h.K, h.V, h.rows.astype(float), h.cols)
        heads.append(heads[3])
        zl = zero_layer(D)
        err = tc.shape_error(tc.TransformerLayer(heads, zl.W1, zl.W2), D)
        assert err == (f"head 2: Q {h.Q.shape}, K {h.K.shape}, V {h.V.shape}, "
                       f"rows {h.rows.shape} and cols {h.cols.shape} "
                       f"do not fit dim {D}")
        assert tc.shape_error(tc.TransformerLayer(heads[:2], zl.W1, zl.W2),
                              D) is None


class TestReluSumMlp:
    def test_parts_sum_their_terms_in_part_order(self, rng):
        """Each part adds sum_m c_m relu(a_m . h[ins] + b_m) to its output
        row, one hidden unit per term in part order."""
        layout = toy_layout([("w", 3), ("z", 1)])
        row, T = layout.row, 12
        tm = random_stream(layout, T, rng)
        H = tm.data
        ins = [[0], [0, 1, 2], layout.rows("w"), [0, 1]]
        outs = [row("y"), row("y"), layout.start("w"), row("z")]
        parts = []
        for rows, out, M in zip(ins, outs, (5, 5, 5, 4)):
            k = len(np.r_[rows])
            fit = ra.ReluSum(rng.standard_normal((M, k)), rng.standard_normal(M),
                             rng.standard_normal(M), input_dim=k, sup_error=0.0)
            parts.append(tc.MlpPart(fit, rows, out))
        W1, W2 = tc.relu_sum_mlp(layout.dim, row("one"), parts)
        assert W1.shape == (19, layout.dim) and W2.shape == (layout.dim, 19)
        for part, units in zip(parts, (slice(0, 5), slice(5, 10), slice(10, 15),
                                       slice(15, 19))):
            assert_array_equal(W2[part.out, units], part.fit.c)
            assert_array_equal(W1[units, row("one")], part.fit.b)
        out = tc.mlp_forward(tc.TransformerLayer([], W1, W2), tm).data
        want = H.copy()
        for fit, rows, out_row in parts:
            pre = fit.a @ H[rows] + fit.b[:, None]
            want[out_row] += fit.c @ np.maximum(pre, 0.0)
        assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_no_parts_is_the_empty_mlp(self):
        W1, W2 = tc.relu_sum_mlp(6, 5, [])
        zl = zero_layer(6)
        assert W1.shape == zl.W1.shape and W2.shape == zl.W2.shape


class TestLayout:
    def test_rows_and_width(self):
        layout = toy_layout([("w", 3)])
        assert layout.width("w") == 3
        sl = layout.rows("w")
        assert sl.stop - sl.start == 3
        assert layout.row("one") == layout.rows("one").start

    def test_duplicate_slot_rejected(self):
        with pytest.raises(tc.LayoutError):
            tc.SlotLayout.build([("x", 1), ("x", 2)])

    def test_row_of_wide_slot_rejected(self):
        layout = toy_layout([("w", 2)])
        with pytest.raises(tc.LayoutError):
            layout.row("w")

    def test_unknown_slot_rejected(self):
        with pytest.raises(tc.LayoutError):
            toy_layout().rows("nope")

    def test_stream_shape_checked(self):
        layout = toy_layout()
        with pytest.raises(tc.LayoutError):
            tc.TokenMatrix(np.zeros((layout.dim + 1, 3)), layout, 1, 1)


class TestComposition:
    def make_writer(self, slot, value, layout):
        """One-layer part on `layout` adding `value` to `slot` at every
        token."""
        D = layout.dim
        W1 = np.zeros((1, D))
        W1[0, layout.row("one")] = 1.0
        W2 = np.zeros((D, 1))
        W2[layout.row(slot), 0] = value
        layer = tc.TransformerLayer([], W1, W2)
        return tc.Transformer([layer], layout, readout=(slot, None))

    def test_union_shares_common_rows(self):
        unified = tc.union_layout([toy_layout([("u", 2)]), toy_layout([("v", 1)]),
                                   tc.SlotLayout.build([("z", 1)])])
        assert unified.names == ["x", "y", "t", "s", "one", "u", "v", "z"]
        assert unified.width("x") == 2 and unified.width("u") == 2

    def test_union_rejects_shared_width_mismatch(self):
        narrow = tc.SlotLayout.build(
            [("x", 1), ("y", 1), ("t", 1), ("s", 1), ("one", 1), ("v", 1)])
        with pytest.raises(tc.LayoutError, match="'x'"):
            tc.union_layout([toy_layout([("u", 1)]), narrow])

    def test_union_rejects_a_slot_name_of_two_parts(self):
        """Only the shared slots may appear in two layouts: two branches
        that both name their weights `w` clash."""
        ratio = toy_layout([("phi", 3), ("alpha", 3), ("w", 3), ("fout", 1)])
        alignment = toy_layout([("u0", 2), ("w", 2), ("v", 2)])
        with pytest.raises(tc.LayoutError, match="'w'"):
            tc.union_layout([ratio, alignment])

    def test_compose_runs_parts_on_disjoint_workspaces(self):
        layout = tc.union_layout([toy_layout([("u", 1)]), toy_layout([("v", 1)])])
        p1 = self.make_writer("u", 2.0, layout)
        p2 = self.make_writer("v", 3.0, layout)
        tf = tc.compose([p1, p2])
        assert [id(layer) for layer in tf.layers] == \
            [id(layer) for layer in p1.layers + p2.layers]
        assert tf.layout == layout and tf.readout == ("v", None)
        H = np.zeros((layout.dim, 3))
        H[layout.row("one"), :] = 1.0
        out = tc.forward(tf, tc.TokenMatrix(H, layout, 1, 1))
        assert_allclose(out.data[layout.row("u")], 2.0, atol=1e-13)
        assert_allclose(out.data[layout.row("v")], 3.0, atol=1e-13)

    def test_compose_rejects_parts_on_different_layouts(self):
        p1 = self.make_writer("u", 2.0, toy_layout([("u", 1)]))
        p2 = self.make_writer("v", 3.0, toy_layout([("v", 1)]))
        with pytest.raises(tc.LayoutError, match="part 1"):
            tc.compose([p1, p2])


def sharing(layers):
    """Each position's first position holding the same layer object."""
    ids = [id(layer) for layer in layers]
    return [ids.index(i) for i in ids]


class TestSharedLayers:
    """A step layer that repeats is one object kept at each of its
    positions."""

    def test_compose_norm_and_describe_take_each_layer_once(self, rng,
                                                             monkeypatch):
        layout = gated_layout()
        private = np.arange(6, layout.dim)

        def part_layers():
            step = dataclasses.replace(private_layer(layout, private, rng),
                                       families=(ridge(layout, rng, M=6),))
            return [step, private_layer(layout, private, rng), step, step]

        parts = [tc.Transformer(part_layers(), layout, ("out", None))
                 for _ in range(2)]
        # the same weights, one object per position
        copies = [tc.Transformer([dataclasses.replace(layer) for layer in p.layers],
                                 layout, ("out", None)) for p in parts]
        tf = tc.compose(parts)
        tf_copies = tc.compose(copies)
        assert sharing(tf.layers) == [0, 1, 0, 0, 4, 5, 4, 4]
        assert sharing(tf_copies.layers) == list(range(8))
        tm = gated_stream(layout, 6, rng)
        assert_array_equal(tc.forward(tf, tm).data, tc.forward(tf_copies, tm).data)

        normed = []
        norm = tc.layer_norm
        monkeypatch.setattr(tc, "layer_norm",
                            lambda layer: normed.append(layer) or norm(layer))
        assert tc.tf_norm(tf) == tc.tf_norm(tf_copies)
        # 4 distinct layers in tf, then one per position of tf_copies
        assert len(normed) == 4 + 8
        info = tc.describe(tf)
        assert len(normed) == 4 + 8 + 4
        assert info == tc.describe(tf_copies)
        assert len(info["layers"]) == 8

    def test_json_keeps_the_sharing(self, rng):
        layout = gated_layout()
        private = np.arange(6, layout.dim)
        step = dataclasses.replace(private_layer(layout, private, rng),
                                   families=(ridge(layout, rng, M=6),))
        last = private_layer(layout, private, rng)
        tf = tc.Transformer([step, step, last, step], layout, ("out", None))
        text = tc.to_json(tf)
        obj = json.loads(text)
        assert len(obj["layers"]) == 2 and obj["positions"] == [0, 0, 1, 0]
        back = tc.from_json(text)
        assert sharing(back.layers) == [0, 0, 2, 0]
        tm = gated_stream(layout, 5, rng)
        assert_array_equal(tc.forward(back, tm).data, tc.forward(tf, tm).data)

    def test_layer_and_head_are_immutable(self, rng):
        """Writing into a layer kept at several positions would change every
        one of them, so layers and heads are frozen with read-only arrays."""
        layer = random_layer(toy_layout().dim, 2, 2, 3, rng)
        head = layer.heads[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.heads = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            head.Q = np.zeros_like(head.Q)
        with pytest.raises(ValueError):
            layer.W1[0, 0] = 1.0
        assert isinstance(layer.heads, tuple)
        for arr in (layer.W1, layer.W2, head.Q, head.K, head.V, head.rows,
                    head.cols):
            assert not arr.flags.writeable
        # a writable array is copied, a read-only one shared
        W1 = layer.W1.copy()
        again = dataclasses.replace(layer, W1=W1)
        W1[0, 0] += 1.0
        assert again.W1[0, 0] == layer.W1[0, 0] and again.W2 is layer.W2


class TestDiagnostics:
    def test_operator_norm_matches_svd(self, rng):
        M = rng.standard_normal((6, 6))
        assert abs(tc.operator_norm(M) - np.linalg.norm(M, 2)) < 1e-6
        # close top singular values, where an iterative estimate stops short
        assert abs(tc.operator_norm(np.diag([1.0, 1.0 - 1e-6])) - 1.0) <= 1e-12
        assert tc.operator_norm(np.zeros((0, 4))) == 0.0

    def test_head_norms_keep_input_order(self, rng):
        # mixed and repeated shapes, empty ones included, as a layer's plain
        # heads present them to layer_norm
        shapes = [(2, 3), (1, 1), (3, 2), (2, 3), (0, 4), (1, 1), (4, 0),
                  (3, 2), (2, 3)]
        mats = [rng.standard_normal(s) for s in shapes]
        got = [tc.operator_norm(M) for M in mats]
        assert got == [reference_norm(M) for M in mats]

    def test_layer_norm_matches_per_head_reference(self, rng):
        layout = toy_layout([("w", 3)])
        D = layout.dim
        layers = []
        for hidden in (0, 1, 3, 5):
            # Q row counts and value block shapes mixed in one layer
            layer = random_layer(D, 0, 1, hidden, rng)
            layers.append(dataclasses.replace(
                layer, heads=[random_head(D, int(rng.integers(1, 4)), rng)
                              for _ in range(int(rng.integers(1, 40)))]))
        heads = list(layers[1].heads)
        h = heads[0]
        heads[0] = tc.AttentionHead(np.zeros((0, D)), np.zeros((0, D)), h.V,
                                    h.rows, h.cols)
        heads.append(tc.AttentionHead(h.Q, h.K, np.zeros((0, 2)),
                                      np.array([], dtype=int), np.array([0, 1])))
        layers[1] = dataclasses.replace(layers[1], heads=heads)
        layers += [zero_layer(D), random_layer(D, 0, 1, 4, rng)]
        for layer in layers:
            assert tc.layer_norm(layer) == reference_layer_norm(layer)
        tf = tc.Transformer(layers, layout, ("y", None))
        assert tc.tf_norm(tf) == max(map(reference_layer_norm, layers))

    def test_describe_counts(self, rng):
        layout = toy_layout()
        layers = [random_layer(layout.dim, 2, 2, 5, rng) for _ in range(2)]
        tf = tc.Transformer(layers, layout, ("y", None))
        info = tc.describe(tf)
        assert info["num_layers"] == 2
        assert len(info["layers"]) == 2
        assert info["dim"] == layout.dim
        assert tc.tf_norm(tf) > 0.0
        assert info["tf_norm"] == tc.tf_norm(tf)
        assert tc.describe(tc.Transformer([], layout))["tf_norm"] == 0.0

    def test_json_round_trip(self, rng):
        """Bitwise, also for weights with no entries, which to_json writes
        as []: a 0-row Q and K, a 0-row Qf and Kf, and value blocks with no
        rows."""
        layout = toy_layout([("w", 1)])
        D = layout.dim
        layer = random_layer(D, 1, 2, 3, rng)
        h = layer.heads[0]
        heads = layer.heads + (
            tc.AttentionHead(np.zeros((0, D)), np.zeros((0, D)), h.V, h.rows,
                             h.cols),
            tc.AttentionHead(h.Q, h.K, np.zeros((0, 2)),
                             np.array([], dtype=int), np.array([0, 1])))
        families = (tc.HeadFamily(
            np.zeros((0, D)), np.zeros((0, D)), layout.row("one"), None,
            *knot_terms(rng, 3), np.zeros((0, 1)), np.array([], dtype=int),
            np.r_[layout.row("y")]),)
        layer = dataclasses.replace(layer, heads=heads, families=families)
        tf = tc.Transformer([layer], layout, ("y", None))
        tf2 = tc.from_json(tc.to_json(tf))
        units = tf2.layers[0].heads + tf2.layers[0].families
        for got, want in zip(units, layer.heads + layer.families,
                             strict=True):
            for k in ("Q", "K", "Qf", "Kf", "V", "V0", "rows", "cols"):
                if hasattr(want, k):
                    assert getattr(got, k).shape == getattr(want, k).shape
            assert got.rows.dtype.kind == got.cols.dtype.kind == "i"
        tm = random_stream(layout, 5, rng)
        assert_array_equal(tc.forward(tf2, tm).data, tc.forward(tf, tm).data)

    def test_reprs_give_shapes_not_matrices(self, rng):
        layout = toy_layout()
        layer = random_layer(layout.dim, 200, 3, 4, rng)
        assert len(repr(layer)) <= 200
        assert "heads=200" in repr(layer)
        assert len(repr(tc.Transformer([layer] * 30, layout))) <= 200

    @pytest.mark.parametrize("layout, head2, match", [
        ([["x", 0, 1], ["one", 2, 3]], ([[1.0]], [2], [2]), "'one'"),  # row 1 unused
        ([["x", 0, 1], ["one", 1, 3]], ([[1.0, 0.0]], [2], [2]), "layer 1 head 0"),
        ([["x", 0, 1], ["one", 1, 3]], ([[1.0], [1.0]], [2, 2], [0]),
         "layer 1 head 0"),
        ([["x", 0, 1], ["one", 1, 3]], ([[1.0, 1.0]], [2], [1, 3]),
         "layer 1 head 0"),
        ([["x", 0, 1], ["one", 1, 3]], ([[1.0]], [2.0], [2]), "layer 1 head 0"),
    ], ids=["gapped_layout", "value_shape", "repeated_row", "col_past_dim",
            "float_index"])
    def test_from_json_rejects_bad_layout_and_shapes(self, layout, head2, match):
        def layer(V, rows, cols):
            head = {"Q": [[0.0, 0.0, 1.0]], "K": [[0.0, 0.0, 1.0]],
                    "V": V, "rows": rows, "cols": cols}
            return {"heads": [head], "W1": [], "W2": [[], [], []],
                    "families": [], "parts": []}

        obj = {"layout": layout, "readout": ["x", None],
               "layers": [layer([[1.0]], [2], [2]), layer(*head2)]}
        with pytest.raises(tc.LayoutError, match=match):
            tc.from_json(json.dumps(obj))

    @pytest.mark.parametrize("change, match", [
        (lambda m: m["layers"][0]["families"][0]["c"].__setitem__(1, float("nan")),
         "layer 0 family 0: c has an entry that is not finite"),
        (lambda m: m["layers"][0]["families"][0]["Qf"][0].__setitem__(0, float("inf")),
         "layer 0 family 0: Qf has an entry that is not finite"),
        (lambda m: m["layers"][0]["families"][0].update(a=[True] * 4),
         "layer 0 family 0: a holds bool entries"),
        (lambda m: m["layers"][0]["families"][0].update(a=["x"] * 4),
         "layer 0 family 0: a holds <U1 entries"),
        (lambda m: m["layers"][0].update(W1=[[1.0, 2.0], [1.0]]),
         "layer 0: W1 is not a rectangular array"),
        (lambda m: m.update(readout=["zz", None]), "readout: no slot named 'zz'"),
        (lambda m: m.pop("readout"), "model: missing field 'readout'"),
        (lambda m: m["layers"][0].pop("families"),
         "layer 0: missing field 'families'"),
        (lambda m: m["layers"][0].pop("parts"), "layer 0: missing field 'parts'"),
        (lambda m: m.update(layers=3), "model: field 'layers' is a int, not a list"),
        (lambda m: m.update(positions=[0, 1]),
         r"position 1: layer index 1 is not one of 0..0"),
        (lambda m: m["layout"][1].pop(), r"layout: \['y', 2\] is not \[slot, start, stop\]"),
    ], ids=["nan_c", "inf_qf", "bool_a", "string_a", "ragged_w1",
            "readout_not_in_layout", "missing_readout", "missing_families",
            "missing_parts",
            "layers_not_a_list",
            "position_past_layers", "layout_entry_not_a_triple"])
    def test_from_json_rejects_malformed_weights(self, rng, change, match):
        """A malformed field of a saved one-family model raises LayoutError
        naming the layer and the field."""
        layout = gated_layout()
        zl = zero_layer(layout.dim)
        tf = tc.Transformer(
            [tc.TransformerLayer([], zl.W1, zl.W2, (ridge(layout, rng, M=4),))],
            layout, ("y", None))
        obj = json.loads(tc.to_json(tf))
        change(obj)
        with pytest.raises(tc.LayoutError, match=match):
            tc.from_json(json.dumps(obj))


# ---------------------------------------------------------------------------
# head families


def gated_layout():
    return toy_layout([("u", 2), ("out", 1)])


def knot_terms(rng, M):
    """Knot-table terms of a 1-D fit: a constant term, then unit-norm ramps
    relu(a (z - k)) at increasing knots k, with random slope changes c."""
    knots = np.sort(rng.uniform(-2.0, 2.0, M - 1))
    kappa = 1.0 + np.abs(knots)
    a = np.concatenate([[0.0], 1.0 / kappa])
    b = np.concatenate([[1.0], -knots / kappa])
    return a, b, rng.standard_normal(M)


def ridge(layout, rng, M=40, gate=True, G=50.0):
    """Family scoring z_ij = x_i . u_j, gated to source senders if asked,
    writing into `out` from the `y` row."""
    D = layout.dim
    Qf = np.zeros((2, D))
    Kf = np.zeros((2, D))
    Qf[:, layout.rows("x")] = np.eye(2)
    Kf[:, layout.rows("u")] = np.eye(2)
    q_g = np.zeros(D)
    k_g = np.zeros(D)
    q_g[layout.row("one")] = -G
    k_g[layout.row("one")] = 1.0
    k_g[layout.row("t")] = -1.0
    a, b, c = knot_terms(rng, M)
    return tc.HeadFamily(Qf, Kf, layout.row("one"),
                         np.stack([q_g, k_g]) if gate else None, a, b, c,
                         np.ones((1, 1)), np.r_[layout.row("out")],
                         np.r_[layout.row("y")])


def family_form(layout, rng, r, n, gate, G=50.0):
    """Family with a random (r, D) Qf and Kf, gated to source senders if
    asked, writing s I_n from `u` into `out`.  Its knot-table terms hold a
    constant term, a knot at 0 (b_m = 0) and negative c_m.  Q is larger than
    K and the value sum small, so that the largest |Q_m| sets the norm of a
    layer that holds the family alone."""
    D = layout.dim
    knots = np.sort(np.append(rng.uniform(-2.0, 2.0, int(rng.integers(5, 11))), 0.0))
    kappa = 1.0 + np.abs(knots)
    a = np.concatenate([[0.0], 1.0 / kappa])
    b = np.concatenate([[1.0], -knots / kappa]) + 0.0
    c = 0.01 * rng.standard_normal(a.size)
    c[1] = -abs(c[1])
    gate_rows = None
    if gate:
        gate_rows = np.zeros((2, D))
        gate_rows[0, layout.row("one")] = -G
        gate_rows[1, layout.row("one")] = 1.0
        gate_rows[1, layout.row("t")] = -1.0
    rows = np.arange(layout.start("out"), layout.start("out") + n)
    cols = np.arange(layout.start("u"), layout.start("u") + n)
    return tc.HeadFamily(2.0 * rng.standard_normal((r, D)),
                         0.5 * rng.standard_normal((r, D)),
                         layout.row("one"), gate_rows, a, b, c,
                         rng.uniform(0.5, 2.0) * np.eye(n), rows, cols)


def gated_stream(layout, T, rng, t=None):
    H = rng.standard_normal((layout.dim, T))
    H[layout.row("one")] = 1.0
    H[layout.row("t")] = rng.integers(0, 2, T) if t is None else t
    return tc.TokenMatrix(H, layout, n_source=T - 1, n_target=0)


def ridge_z(fam, H):
    """The family's ridge variable z_ij = <Qf h_i, Kf h_j> at every pair."""
    return (fam.Qf @ H).T @ (fam.Kf @ H)


def head_scores(fam, H):
    """sum_m c_m relu(score_m) as the family's heads compute it, head by head."""
    F = np.zeros((H.shape[1], H.shape[1]))
    for c, h in zip(fam.c, family_heads(fam)):
        F += c * np.maximum((h.Q @ H).T @ (h.K @ H), 0.0)
    return F


def fit_float_error(fam, z):
    """relu_approx.float_error of the family's terms at |z| = max |z|."""
    import icuda.relu_approx as ra

    rs = ra.ReluSum(fam.a[:, None], fam.b, fam.c, input_dim=1, sup_error=0.0)
    return ra.float_error(rs, [float(np.max(np.abs(z)))])


class TestHeadFamily:
    def test_family_matches_its_heads(self, rng):
        layout = gated_layout()
        tm = gated_stream(layout, 9, rng)
        zl = zero_layer(layout.dim)
        for gate in (False, True):
            fam = ridge(layout, rng, gate=gate)
            z = ridge_z(fam, tm.data)
            F = tc.family_scores(fam, tm.data)
            heads = family_heads(fam)
            assert np.max(np.abs(F - head_scores(fam, tm.data))) <= \
                fit_float_error(fam, z)
            got = tc.attn_forward(tc.TransformerLayer([], zl.W1, zl.W2, (fam,)), tm)
            want = tc.attn_forward(tc.TransformerLayer(heads, zl.W1, zl.W2), tm)
            assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    def test_to_heads_scales_the_template_entrywise(self, rng):
        """Head m is Q_m = [a_m Qf; b_m e_one; q_g], K_m = [Kf; e_one; k_g]
        and V_m = c_m V0."""
        layout = gated_layout()
        e_one = np.eye(layout.dim)[layout.row("one")]
        for gate in (True, False):
            fam = ridge(layout, rng, M=5, gate=gate)
            g = fam.gate[:, None] if gate else np.zeros((2, 0, layout.dim))
            for m, h in enumerate(family_heads(fam)):
                assert_array_equal(h.Q, np.vstack([fam.a[m] * fam.Qf,
                                                   fam.b[m] * e_one, *g[:1]]))
                assert_array_equal(h.K, np.vstack([fam.Kf, e_one, *g[1:]]))
                assert_array_equal(h.V, [[fam.c[m]]])

    def test_closed_senders_give_exact_zeros(self, rng):
        layout = gated_layout()
        fam = ridge(layout, rng)
        t = np.array([1, 0, 1, 0, 0, 1, 0])
        tm = gated_stream(layout, 7, rng, t)
        F = tc.family_scores(fam, tm.data)
        assert np.all(F[:, t == 0] == 0.0)
        # the heads subtract the gate offset from the closed pre-activations
        for h in family_heads(fam):
            S = (h.Q @ tm.data).T @ (h.K @ tm.data)
            assert np.all(np.maximum(S[:, t == 0], 0.0) == 0.0)

    def test_half_open_gate_raises(self, rng):
        layout = gated_layout()
        fam = ridge(layout, rng, G=1.0)
        tm = gated_stream(layout, 5, rng, np.array([1, 1, 0.5, 1, 0]))
        tm.data[layout.rows("u")] *= 10.0
        zl = zero_layer(layout.dim)
        layer = tc.TransformerLayer([], zl.W1, zl.W2, (fam,))
        with pytest.raises(tc.ForwardError, match="family 0: a sender is neither"):
            tc.layer_forward(layer, tm)

    def test_closed_sender_past_its_gate_raises(self, rng):
        layout = gated_layout()
        fam = ridge(layout, rng, G=5.0)
        tm = gated_stream(layout, 5, rng, np.array([1, 0, 1, 1, 1]))
        tm.data[layout.rows("x")] = 1.0
        tm.data[layout.rows("u"), 1] = 100.0
        zl = zero_layer(layout.dim)
        layer = tc.TransformerLayer([], zl.W1, zl.W2, (fam,))
        with pytest.raises(tc.ForwardError, match="reaches the gate"):
            tc.layer_forward(layer, tm)
        tm.data[layout.rows("u"), 1] = 0.1
        tc.layer_forward(layer, tm)

    def test_bias_row_must_be_one(self, rng):
        layout = gated_layout()
        tm = gated_stream(layout, 5, rng)
        tm.data[layout.row("one"), 2] = 0.5
        zl = zero_layer(layout.dim)
        layer = tc.TransformerLayer([], zl.W1, zl.W2, (ridge(layout, rng),))
        with pytest.raises(tc.ForwardError, match="bias form"):
            tc.layer_forward(layer, tm)

    def test_constant_row_of_minus_one_raises(self, rng):
        """A constant row of -1 at every token gives bias products of 1 at
        every pair, but the gate and value maps read the row itself."""
        layout = gated_layout()
        tm = gated_stream(layout, 5, rng)
        tm.data[layout.row("one")] = -1.0
        zl = zero_layer(layout.dim)
        layer = tc.TransformerLayer([], zl.W1, zl.W2, (ridge(layout, rng),))
        with pytest.raises(tc.ForwardError, match="bias form"):
            tc.layer_forward(layer, tm)

    def test_open_receivers_with_open_and_closed_senders(self, rng):
        """The gate score is (q_g . h_i)(k_g . h_j): a receiver whose q_g . h_i
        is 0 is open to every sender, the others only to senders whose
        k_g . h_j is 0.  The family's scores equal the head-by-head sum at
        every pair."""
        layout = gated_layout()
        fam = ridge(layout, rng)
        q_g = np.zeros(layout.dim)
        q_g[layout.row("s")] = -50.0
        fam = dataclasses.replace(fam, gate=np.stack([q_g, fam.gate[1]]))
        t = np.array([1, 0, 1, 0, 0, 1, 0, 1])
        s = np.array([1, 0, 1, 1, 0, 1, 1, 0])
        tm = gated_stream(layout, 8, rng, t)
        tm.data[layout.row("s")] = s
        H = tm.data
        F = tc.family_scores(fam, H)
        assert np.max(np.abs(F - head_scores(fam, H))) <= \
            fit_float_error(fam, ridge_z(fam, H))
        assert np.all(F[np.ix_(s == 1, t == 0)] == 0.0)
        assert np.all(F[np.ix_(s == 0, t == 0)] != 0.0)

    def test_receivers_sharing_their_state_get_one_row(self, rng):
        """When every token carries the same Qf h_i (here x) and gate
        factor, the scores are one (1, T) row; the layer adds it to every
        receiver as its heads do."""
        layout = gated_layout()
        tm = gated_stream(layout, 7, rng, np.array([1, 0, 1, 1, 0, 1, 0]))
        tm.data[layout.rows("x")] = rng.standard_normal((2, 1))
        zl = zero_layer(layout.dim)
        for gate in (True, False):
            fam = ridge(layout, rng, gate=gate)
            F = tc.family_scores(fam, tm.data)
            want = head_scores(fam, tm.data)
            assert F.shape == (1, 7)
            assert np.max(np.abs(F - want)) <= \
                fit_float_error(fam, ridge_z(fam, tm.data))
            got = tc.attn_forward(tc.TransformerLayer([], zl.W1, zl.W2, (fam,)), tm)
            heads = tc.TransformerLayer(family_heads(fam), zl.W1, zl.W2)
            assert_allclose(got.data, tc.attn_forward(heads, tm).data,
                            rtol=0, atol=1e-12)

    def test_senders_sharing_their_key_get_one_column(self, rng):
        """An ungated family whose Kf reads only the constant row, as an IWL
        feature family does, scores every sender alike: its scores are one
        (T, 1) column, evaluated once per receiver, within the fit's
        float_error of the T x T head-by-head scores, and the layer sums
        the senders' values once and matches its heads."""
        layout = gated_layout()
        tm = gated_stream(layout, 7, rng)
        zl = zero_layer(layout.dim)
        fam = ridge(layout, rng, gate=False)
        Kf = np.zeros_like(fam.Kf)
        Kf[0, layout.row("one")] = 1.0
        fam = dataclasses.replace(fam, Kf=Kf)
        F = tc.family_scores(fam, tm.data)
        want = head_scores(fam, tm.data)
        assert F.shape == (7, 1)
        assert np.max(np.abs(F - want)) <= \
            fit_float_error(fam, ridge_z(fam, tm.data))
        got = tc.attn_forward(tc.TransformerLayer([], zl.W1, zl.W2, (fam,)), tm)
        heads = tc.TransformerLayer(family_heads(fam), zl.W1, zl.W2)
        assert_allclose(got.data, tc.attn_forward(heads, tm).data,
                        rtol=0, atol=1e-12)
        # a gate keeps the T x T form: the gate closes some senders
        gated = dataclasses.replace(fam, gate=ridge(layout, rng).gate)
        assert tc.family_scores(gated, tm.data).shape == (7, 7)

    def test_layer_norm_and_describe_read_every_head_in_order(self, rng):
        """layer_norm reads the families' ridge form; it equals the SVD of
        every head over the forms the builders emit: Qf of 1-3 rows, gated
        and ungated, a constant term (a_m = 0), terms with b_m = 0, negative
        c_m and scaled-diagonal V0 of size 1-3."""
        layout = toy_layout([("u", 3), ("out", 3)])
        D = layout.dim
        layer = dataclasses.replace(random_layer(D, 5, 2, 3, rng), families=tuple(
            family_form(layout, rng, r, n, gate)
            for r in (1, 2, 3) for n in (1, 2, 3) for gate in (False, True)))
        heads = layer_heads(layer)
        terms = sum(f.n_terms for f in layer.families)
        assert len(heads) == tc.n_heads(layer) == terms + 5
        # the families' heads come first, then the plain heads
        assert heads[terms - 1] is not layer.heads[0]
        assert tuple(heads[terms:]) == layer.heads
        for fam in layer.families:
            assert np.any(fam.a == 0) and np.any(fam.b == 0)
            assert np.any(fam.c < 0)
        assert tc.layer_norm(layer) == reference_layer_norm(layer)
        # each family alone, where its own largest |Q_m| sets the norm
        zl = zero_layer(D)
        for fam in layer.families:
            alone = tc.TransformerLayer([], zl.W1, zl.W2, (fam,))
            assert tc.layer_norm(alone) == reference_layer_norm(alone)
        expanded = tc.TransformerLayer(heads, layer.W1, layer.W2)
        tf = tc.Transformer([layer], layout, ("y", None))
        assert tc.describe(tf) == tc.describe(
            tc.Transformer([expanded], layout, ("y", None)))

    def test_json_round_trip_is_bitwise(self, rng):
        layout = gated_layout()
        layer = dataclasses.replace(random_layer(layout.dim, 2, 2, 3, rng),
                                    families=(ridge(layout, rng),
                                              ridge(layout, rng, gate=False)))
        tf = tc.Transformer([layer], layout, ("y", None))
        tm = gated_stream(layout, 6, rng)
        assert_array_equal(tc.forward(tc.from_json(tc.to_json(tf)), tm).data,
                           tc.forward(tf, tm).data)

    @pytest.mark.parametrize("change, match", [
        (lambda f: dict(a=f.a[[0, 2, 1, 3]], b=f.b[[0, 2, 1, 3]]), "breakpoints"),
        (lambda f: dict(a=f.a[[0, 1, 1, 2]], b=f.b[[0, 1, 1, 2]]), "breakpoints"),
        (lambda f: dict(a=f.a * [1, 1, -1, 1]), "negative slope"),
        (lambda f: dict(c=f.c[:3]), r"a, b and c have shapes \(4,\), \(4,\) and \(3,\)"),
        (lambda f: dict(Kf=f.Kf[:1]), r"Qf \(2, 9\) and Kf \(1, 9\) are not one \(r, 9\)"),
        (lambda f: dict(Qf=f.Qf[:, :-1], Kf=f.Kf[:, :-1]),
         r"Qf \(2, 8\) and Kf \(2, 8\) are not one \(r, 9\)"),
        (lambda f: dict(gate=np.hstack([f.gate, np.ones((2, 1))])),
         r"gate \(2, 10\) is not \(2, 9\)"),
        (lambda f: dict(gate=f.gate[:1]), r"gate \(1, 9\) is not \(2, 9\)"),
        (lambda f: dict(one=9), r"one 9 is not a row of 0..8"),
        (lambda f: dict(V0=np.ones((1, 2))), r"V0 \(1, 2\) does not fit"),
    ], ids=["unsorted_breakpoints", "repeated_breakpoint", "negative_slope",
            "length_mismatch", "qf_kf_shapes_differ", "qf_kf_not_r_by_D",
            "gate_row_outside_dim", "gate_not_two_rows", "one_outside_dim",
            "value_block_shape"])
    def test_bad_family_rejected(self, rng, change, match):
        """A family that cannot run is named, with its layer, both when a
        model is loaded and when it runs."""
        layout = gated_layout()
        good = ridge(layout, rng, M=4)
        bad = dataclasses.replace(good, **change(good))
        zl = zero_layer(layout.dim)
        tf = tc.Transformer([zl, tc.TransformerLayer([], zl.W1, zl.W2, (bad,))],
                            layout, ("y", None))
        tm = gated_stream(layout, 4, rng)
        errors = []
        # the second forward reads the family's stored check
        for _ in range(2):
            with pytest.raises(tc.ForwardError, match="layer 1: family 0: " + match) as err:
                tc.forward(tf, tm)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        with pytest.raises(tc.LayoutError, match="layer 1 family 0: " + match):
            tc.from_json(tc.to_json(tf))

    def test_family_is_immutable(self, rng):
        """A family's arrays are read-only, so its stored evaluator and
        shape check cannot go stale."""
        layout = gated_layout()
        fam = ridge(layout, rng, M=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.a = np.ones(4)
        with pytest.raises(ValueError):
            fam.a[0] = 1.0
        for name in tc.FAMILY_ARRAYS + ("gate",):
            assert not getattr(fam, name).flags.writeable
        # a writable array is copied, a read-only one shared
        c = fam.c.copy()
        again = dataclasses.replace(fam, c=c)
        c[0] = 5.0
        assert again.c[0] == fam.c[0] and c.flags.writeable
        assert again.a is fam.a

    def test_each_family_is_checked_once(self, rng, monkeypatch):
        """Two forwards check each family once; a family made by
        dataclasses.replace is checked on its own."""
        layout = gated_layout()
        zl = zero_layer(layout.dim)
        fams = [ridge(layout, rng), ridge(layout, rng, gate=False),
                ridge(layout, rng, M=6)]
        tf = tc.Transformer([tc.TransformerLayer([], zl.W1, zl.W2, tuple(fams[:2])),
                             tc.TransformerLayer([], zl.W1, zl.W2, tuple(fams[2:]))],
                            layout, ("y", None))
        checked = []
        check = tc._family_error
        monkeypatch.setattr(tc, "_family_error",
                            lambda fam, D: checked.append(fam) or check(fam, D))
        tm = gated_stream(layout, 6, rng)
        first = tc.forward(tf, tm)
        assert_array_equal(tc.forward(tf, tm).data, first.data)
        assert len(checked) == len(fams)
        assert all(got is want for got, want in zip(checked, fams))
        tf.layers[1] = dataclasses.replace(tf.layers[1],
                                           families=(dataclasses.replace(fams[2]),))
        tc.forward(tf, tm)
        assert len(checked) == len(fams) + 1 and checked[-1] is not fams[2]


def member(fam, rng, scale=1.0, M=40):
    """A family of fam's group: fam's key side, gate and value map, with a
    random Qf on the same rows and terms of its own."""
    Qf = np.where(fam.Qf != 0, scale * rng.uniform(0.5, 1.5, fam.Qf.shape), 0.0)
    a, b, c = knot_terms(rng, M)
    return dataclasses.replace(fam, Qf=Qf, a=a, b=b, c=c)


def family_layer(fams):
    zl = zero_layer(fams[0].Qf.shape[1])
    return tc.TransformerLayer([], zl.W1, zl.W2, tuple(fams))


def heads_bound(fams, H):
    """How far a layer of the families may lie from its heads: each
    family's scores are within its float_error of the exact sum, as the
    head-by-head sum is, and the value map and 1/T average scale that by
    at most the largest |V0 h_j|."""
    return sum(2.0 * fit_float_error(f, ridge_z(f, H))
               * np.max(np.abs(f.V0 @ H[f.cols])) for f in fams)


class TestFamilyGroups:
    """attn_forward scores the families that share their key side, gate
    and value map as one group; each family's contribution is unchanged."""

    def mixed_layer(self, layout, rng):
        """Gated and ungated families of two groups each, interleaved, and
        one family of a third group with another value map."""
        gated, plain = ridge(layout, rng), ridge(layout, rng, gate=False)
        other = dataclasses.replace(ridge(layout, rng), V0=np.full((1, 1), 0.5))
        return family_layer([gated, plain, member(gated, rng), other,
                             member(plain, rng), member(gated, rng, 0.5)])

    def test_grouped_layer_matches_its_heads(self, rng):
        layout = gated_layout()
        layer = self.mixed_layer(layout, rng)
        assert [g[0] for g in layer._groups] == [(0, 2, 5), (1, 4), (3,)]
        for _ in range(5):
            H = gated_stream(layout, 9, rng).data
            tm = tc.TokenMatrix(H, layout, 8, 0)
            got = tc.attn_forward(layer, tm).data
            want = tc.attn_forward(tc.TransformerLayer(
                layer_heads(layer), layer.W1, layer.W2), tm).data
            assert 0 < np.max(np.abs(got - want)) <= heads_bound(layer.families, H)

    def test_order_and_split_move_only_rounding(self, rng):
        """Shuffling the families, or moving part of a group to a second
        layer (the families read no row they write), sums the same values
        in another order."""
        layout = gated_layout()
        layer = self.mixed_layer(layout, rng)
        tm = gated_stream(layout, 9, rng)
        base = tc.attn_forward(layer, tm).data
        fams = layer.families
        shuffled = family_layer([fams[i] for i in rng.permutation(len(fams))])
        split = tc.Transformer([family_layer(fams[:3]), family_layer(fams[3:])],
                               layout, ("out", None))
        scale = np.max(np.abs(base))
        for out in (tc.attn_forward(shuffled, tm).data, tc.forward(split, tm).data):
            assert_allclose(out, base, rtol=0, atol=1e-14 * scale)

    def test_failing_member_is_named_by_its_layer_index(self, rng):
        """A member whose closed pairs reach the gate is named by its index
        in the layer, also when another group fails at a later family."""
        layout = gated_layout()
        tm = gated_stream(layout, 5, rng, np.array([1, 0, 1, 1, 1]))
        tm.data[layout.rows("x")] = 1.0
        tm.data[layout.rows("u"), 1] = 100.0
        gated = ridge(layout, rng, G=5.0)
        other = dataclasses.replace(gated, V0=np.full((1, 1), 0.5))
        small = [member(gated, rng, 1e-3), member(other, rng, 1e-3)]
        tc.attn_forward(family_layer(small), tm)
        layer = family_layer([small[0], small[1], member(gated, rng)])
        assert len(layer._groups) == 2
        with pytest.raises(tc.ForwardError, match="^family 2: a sender is "
                           "neither open") as err:
            tc.attn_forward(layer, tm)
        assert err.value.family == 2
        layer = family_layer([small[0], member(other, rng), member(gated, rng)])
        with pytest.raises(tc.ForwardError, match="^family 1: .* reaches the gate"):
            tc.attn_forward(layer, tm)

    def test_receivers_shared_by_some_members_only(self, rng):
        """One member reads a state every token carries (x), the other
        per-token rows (s, y), under a gate whose query factor (from s) is
        0 at some receivers and not at others, or the same at all: the
        group is scored per receiver and matches its heads.  With both
        members on the state it is one row, the same at every receiver."""
        layout = gated_layout()
        D = layout.dim
        H = gated_stream(layout, 8, rng, np.array([1, 0, 1, 0, 0, 1, 0, 1])).data
        H[layout.rows("x")] = rng.standard_normal((2, 1))
        q_g = np.zeros(D)
        q_g[layout.row("s")] = -50.0
        state = ridge(layout, rng)
        state = dataclasses.replace(state, gate=np.stack([q_g, state.gate[1]]))
        Qf = np.zeros_like(state.Qf)
        Qf[0, layout.row("s")] = Qf[1, layout.row("y")] = 1.0
        token = dataclasses.replace(member(state, rng), Qf=Qf)
        layer = family_layer([state, token])
        assert len(layer._groups) == 1
        heads = tc.TransformerLayer(layer_heads(layer), layer.W1, layer.W2)
        for s in ([1, 0, 1, 1, 0, 1, 1, 0], np.ones(8)):
            H[layout.row("s")] = s
            tm = tc.TokenMatrix(H, layout, 7, 0)
            got = tc.attn_forward(layer, tm).data
            want = tc.attn_forward(heads, tm).data
            assert np.max(np.abs(got - want)) <= heads_bound(layer.families, H)
        F = tc.family_scores(state, H)
        assert F.shape == (1, 8) and np.all(F[0, H[layout.row("t")] == 0] == 0)
        H[layout.row("out")] = 0.0
        shared = family_layer([state, member(state, rng)])
        got = tc.attn_forward(shared, tc.TokenMatrix(H, layout, 7, 0)).data
        assert np.all(got[layout.row("out")] == got[layout.row("out"), 0])

    def test_plans_of_two_models_stay_apart(self, rng):
        """Models forwarded A, B, A give A's output bit for bit, and a
        layer made where a freed one stood gets a plan of its own (a plan
        keyed by object identity would return the freed layer's)."""
        layout = gated_layout()
        tm = gated_stream(layout, 9, rng)
        zl = zero_layer(layout.dim)

        def families():
            base = ridge(layout, rng)
            return (base, member(base, rng), ridge(layout, rng, gate=False))

        def model(fams):
            return tc.Transformer([tc.TransformerLayer([], zl.W1, zl.W2, fams)],
                                  layout, ("out", None))

        A, B = model(families()), model(families())
        first = tc.forward(A, tm).data
        assert not np.array_equal(tc.forward(B, tm).data, first)
        assert_array_equal(tc.forward(A, tm).data, first)
        # the next families are made before the last model is freed, so
        # that CPython may place the next layer where the freed one stood
        fams = families()
        for _ in range(5):
            C = model(fams)
            got = tc.forward(C, tm).data
            heads = tc.TransformerLayer(layer_heads(C.layers[0]), zl.W1, zl.W2)
            want = tc.attn_forward(heads, tm).data
            assert np.max(np.abs(got - want)) <= heads_bound(fams, tm.data)
            fams = families()
            del C


# ---------------------------------------------------------------------------
# per-token parts


def part_layout():
    return toy_layout([("g", 1), ("z", 1), ("w", 1)])


def gated_parts(layout, fit, G=50.0):
    """The parts of a binary-gated fit of row x0 with label row y, open
    where row g is 1, adding to row z: slice v is closed by the label at
    the other value and by g at 0."""
    row = layout.row
    return tuple(tc.token_part(s, 0, row("z"), row("one"),
                               [(row("g"), 1.0, G), (row("y"), float(v), o)])
                 for v, (s, o) in enumerate(zip(fit.slices, fit.offsets)))


def part_stream(layout, T, rng, R=2.0):
    """x0 in [-R, R], 0/1 label and gate rows, the constant row at 1."""
    H = rng.standard_normal((layout.dim, T))
    H[0] = rng.uniform(-R, R, T)
    H[layout.row("one")] = 1.0
    H[layout.row("y")] = rng.integers(0, 2, T)
    H[layout.row("g")] = rng.integers(0, 2, T)
    return tc.TokenMatrix(H, layout, n_source=T - 1, n_target=0)


def mlp_layer(D, parts, hidden=0, rng=None):
    """A layer of the given parts after ``hidden`` random dense units that
    read every row and write the last."""
    W1, W2 = np.zeros((hidden, D)), np.zeros((D, hidden))
    if hidden:
        W1 = 0.3 * rng.standard_normal((hidden, D))
        W2[-1] = 0.3 * rng.standard_normal(hidden)
    return tc.TransformerLayer([], W1, W2, (), tuple(parts))


def dense_forward(layer, H):
    W1, W2 = dense_mlp(layer)
    return H + W2 @ np.maximum(W1 @ H, 0.0)


class TestTokenPart:
    def test_one_dimensional_parts_match_their_units(self, rng):
        """Random 1-D knot fits as ungated parts, two of them on one output
        row: the forward equals the unit-by-unit dense MLP within the fits'
        float_error, at every token."""
        layout = part_layout()
        row = layout.row
        tm = part_stream(layout, 11, rng)
        fits = [ra.ReluSum(a[:, None], b, c, input_dim=1, sup_error=0.0)
                for a, b, c in (knot_terms(rng, M) for M in (2, 9, 40))]
        parts = [tc.token_part(f, i, out, row("one"))
                 for f, i, out in zip(fits, (0, 1, row("w")),
                                      (row("z"), row("z"), row("y")))]
        layer = mlp_layer(layout.dim, parts)
        got = tc.mlp_forward(layer, tm).data
        want = dense_forward(layer, tm.data)
        bound = {row("z"): sum(ra.float_error(f, [np.max(np.abs(tm.data[i]))])
                               for f, i in zip(fits, (0, 1))),
                 row("y"): ra.float_error(fits[2], [np.max(np.abs(tm.data[row("w")]))])}
        for r in range(layout.dim):
            assert np.max(np.abs(got[r] - want[r])) <= bound.get(r, 0.0)
        assert np.all(got[row("z")] != tm.data[row("z")])

    def test_binary_gated_parts_match_their_units(self, rng):
        """A binary-gated fit as one part per label: within the fit's float
        term of the dense units at open tokens, exactly the input where its
        gate or label closes a part (every token closes one of the two
        slices, and g = 0 closes both)."""
        layout = part_layout()
        row = layout.row
        for seed in range(3):
            f = (lambda t, v, w=rng.uniform(1.0, 4.0, 2):
                 np.sin(np.where(v == 1, w[1], w[0]) * t) + v * t)
            fit, rep = ra.fit_binary_gated(f, -2.0, 2.0, int(rng.integers(8, 60)))
            parts = gated_parts(layout, fit)
            tm = part_stream(layout, 16, rng)
            H = tm.data
            for layer in (mlp_layer(layout.dim, parts),
                          mlp_layer(layout.dim, parts, hidden=3, rng=rng)):
                got = tc.mlp_forward(layer, tm).data
                assert np.max(np.abs(got - dense_forward(layer, H))) <= \
                    rep.float_error + 1e-12 * (layer.W1.size > 0)
            got = tc.mlp_forward(mlp_layer(layout.dim, parts), tm).data
            closed = H[row("g")] == 0
            assert_array_equal(got[row("z"), closed], H[row("z"), closed])
            open_ = ~closed
            assert_allclose(got[row("z"), open_] - H[row("z"), open_],
                            f(H[0, open_], H[row("y"), open_]),
                            rtol=0, atol=fit.sup_error + 1e-12)
            for v, part in enumerate(parts):
                alone = tc.mlp_forward(mlp_layer(layout.dim, [part]), tm).data
                shut = closed | (H[row("y")] != v)
                assert_array_equal(alone[row("z"), shut], H[row("z"), shut])

    def test_closed_token_past_its_gate_raises(self, rng):
        """A closed token whose pre-activation reaches 0 (a score outside
        the fit interval at the other label) raises ForwardError naming the
        layer and part; inside the interval it is exactly 0."""
        layout = part_layout()
        row = layout.row
        fit, _ = ra.fit_binary_gated(lambda t, v: np.cos(t) + v, -2.0, 2.0, 20)
        layer = mlp_layer(layout.dim, gated_parts(layout, fit))
        tm = part_stream(layout, 6, rng)
        tm.data[row("g")] = 1.0
        tm.data[row("y")] = [1, 1, 0, 1, 1, 1]
        tf = tc.Transformer([zero_layer(layout.dim), layer], layout, ("z", None))
        tc.forward(tf, tm)
        tm.data[0, 2] = 40.0
        with pytest.raises(tc.ForwardError,
                           match="layer 1: part 1: a token is neither open nor"):
            tc.forward(tf, tm)
        tm.data[0, 2] = 0.5
        tm.data[row("one"), 3] = 0.5
        with pytest.raises(tc.ForwardError, match="part 0: bias form"):
            tc.forward(tf, tm)

    def test_norm_and_describe_read_the_units(self, rng):
        """layer_norm equals the dense-MLP reference within 1e-12 (it reads
        the parts' few columns), and describe's MLP width, reads and writes
        equal those of the dense MLP."""
        layout = part_layout()
        D = layout.dim
        fit, _ = ra.fit_binary_gated(lambda t, v: t * t - v, -2.0, 2.0, 30)
        one_d = ra.ReluSum(*(x[:, None] if i == 0 else x for i, x
                             in enumerate(knot_terms(rng, 12))),
                           input_dim=1, sup_error=0.0)
        parts = gated_parts(layout, fit) + (
            tc.token_part(one_d, layout.row("w"), layout.row("y"),
                          layout.row("one")),)
        for hidden in (0, 4):
            layer = mlp_layer(D, parts, hidden, rng)
            want = reference_layer_norm(layer)
            assert abs(tc.layer_norm(layer) - want) <= 1e-12 * want
            W1, W2 = dense_mlp(layer)
            dense = tc.TransformerLayer([], W1, W2)
            got, ref = (tc.describe(tc.Transformer([x], layout))["layers"][0]
                        for x in (layer, dense))
            assert got.pop("norm") == pytest.approx(ref.pop("norm"), rel=1e-12)
            assert got == ref and got["mlp_hidden"] == fit.n_terms + 12 + hidden

    def test_json_round_trip_is_bitwise(self, rng):
        layout = part_layout()
        fit, _ = ra.fit_binary_gated(lambda t, v: np.exp(t - v), -2.0, 2.0, 25)
        parts = gated_parts(layout, fit)
        layer = mlp_layer(layout.dim, parts, hidden=2, rng=rng)
        tf = tc.Transformer([layer, layer], layout, ("z", None))
        back = tc.from_json(tc.to_json(tf))
        assert sharing(back.layers) == [0, 0]
        for got, want in zip(back.layers[0].parts, parts, strict=True):
            for k in tc.PART_ARRAYS:
                x, y = getattr(got, k), getattr(want, k)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes() and not x.flags.writeable
            assert (got.inp, got.out, got.one) == (want.inp, want.out, want.one)
        tm = part_stream(layout, 9, rng)
        assert_array_equal(tc.forward(back, tm).data, tc.forward(tf, tm).data)

    @pytest.mark.parametrize("change, match", [
        (lambda p: dict(a=p.a[[0, 2, 1, 3]], b=p.b[[0, 2, 1, 3]]), "breakpoints"),
        (lambda p: dict(a=p.a * [1, 1, -1, 1]), "negative slope"),
        (lambda p: dict(c=p.c[:3]),
         r"a, b and c have shapes \(4,\), \(4,\) and \(3,\)"),
        (lambda p: dict(inp=9), r"inp 9 is not a row of 0..8"),
        (lambda p: dict(out=-1), r"out -1 is not a row of 0..8"),
        (lambda p: dict(gate_rows=np.array([9, 1])),
         r"gate rows \[9, 1\] leave rows 0..8"),
        (lambda p: dict(gate_open=np.array([1.0, 0.5])), "open values"),
        (lambda p: dict(offsets=p.offsets[:, :3]), r"offsets \(2, 3\) are not"),
    ], ids=["unsorted_breakpoints", "negative_slope", "length_mismatch",
            "input_row_outside_dim", "output_row_outside_dim",
            "gate_row_outside_dim", "open_value_not_0_or_1", "offsets_shape"])
    def test_bad_part_rejected(self, rng, change, match):
        """A part that cannot run is named, with its layer, both when a
        model is loaded and when it runs."""
        layout = part_layout()
        a, b, c = knot_terms(rng, 4)
        fit = ra.ReluSum(a[:, None], b, c, input_dim=1, sup_error=0.0)
        gates = [(layout.row("g"), 1.0, 50.0), (layout.row("y"), 0.0, 5.0)]
        good = tc.token_part(fit, 0, layout.row("z"), layout.row("one"), gates)
        bad = dataclasses.replace(good, **change(good))
        zl = zero_layer(layout.dim)
        tf = tc.Transformer([zl, mlp_layer(layout.dim, [good, bad])], layout,
                            ("z", None))
        tm = part_stream(layout, 4, rng)
        with pytest.raises(tc.ForwardError, match="layer 1: part 1: " + match):
            tc.forward(tf, tm)
        with pytest.raises(tc.LayoutError, match="layer 1 part 1: " + match):
            tc.from_json(tc.to_json(tf))


def private_layer(layout, private, rng, reads=None):
    """Random layer mixing plain heads and gated families that writes only
    the rows in `private` and reads only the rows in `reads` (by default
    every row)."""
    D = layout.dim
    reads = np.arange(D) if reads is None else reads

    def block():
        out = rng.permutation(private)[: rng.integers(1, len(private) + 1)]
        cols = rng.permutation(reads)[: rng.integers(1, len(reads) + 1)]
        return 0.3 * rng.standard_normal((len(out), len(cols))), out, cols

    def rand(r):
        M = np.zeros((r, D))
        M[:, reads] = 0.3 * rng.standard_normal((r, len(reads)))
        return M

    heads = [tc.AttentionHead(rand(r), rand(r), *block())
             for r in rng.integers(1, 3, int(rng.integers(0, 4)))]
    q_g = np.zeros(D)
    k_g = np.zeros(D)
    q_g[layout.row("one")] = -1e3
    k_g[layout.row("one")] = 1.0
    k_g[layout.row("t")] = -1.0
    families = []
    for _ in range(int(rng.integers(0, 3))):
        r = int(rng.integers(1, 3))
        a, b, c = knot_terms(rng, int(rng.integers(2, 9)))
        gate = np.stack([q_g, k_g]) if rng.integers(0, 2) else None
        families.append(tc.HeadFamily(rand(r), rand(r), layout.row("one"), gate,
                                      a, b, 0.1 * c, *block()))
    hidden = int(rng.integers(0, 3))
    W2 = np.zeros((D, hidden))
    W2[private] = 0.3 * rng.standard_normal((len(private), hidden))
    return tc.TransformerLayer(heads, rand(hidden), W2, tuple(families))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_compose_of_random_parts(widths, seed):
    """union_layout keeps the shared slots once and every part's own slots,
    and parts built on it that read the shared slots and their own compose
    into a model that computes every part's own stream on its slots."""
    rng = np.random.default_rng(seed)
    base = toy_layout()
    own = [tc.SlotLayout.build([(f"p{i}w{j}", w) for j, w in enumerate(ws)])
           for i, ws in enumerate(widths)]
    layout = tc.union_layout([base, *own])
    assert layout.names == base.names + [n for o in own for n in o.names]
    parts, rows = [], []
    for i, part_layout in enumerate(own):
        private = np.concatenate([np.arange(layout.start(n), layout.rows(n).stop)
                                  for n in part_layout.names])
        reads = np.concatenate([np.arange(base.dim), private])
        layers = [private_layer(layout, private, rng, reads)
                  for _ in range(int(rng.integers(1, 3)))]
        parts.append(tc.Transformer(layers, layout, (f"p{i}w0", None)))
        rows.append(reads)
    tf = tc.compose(parts)

    H = rng.standard_normal((layout.dim, 7))
    H[layout.row("one")] = 1.0
    H[layout.row("t")] = rng.integers(0, 2, 7)
    _, trace = tc.forward_trace(tf, tc.TokenMatrix(H, layout, 6, 0))
    first = 0
    for part, r in zip(parts, rows):
        _, alone = tc.forward_trace(part, tc.TokenMatrix(H, layout, 6, 0))
        for k, st_ in enumerate(alone):
            assert_allclose(trace[first + k].data[r], st_.data[r], rtol=1e-12,
                            atol=1e-12)
        first += len(alone)
