"""Stream algebra: attention/MLP forward passes, layouts, composition."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import icuda.tfcore as tc


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


def reference_layer_norm(layer):
    """layer_norm as one SVD per matrix, summing V norms head by head."""
    qk = vsum = 0.0
    for h in layer.heads:
        qk = max(qk, reference_norm(h.Q), reference_norm(h.K))
        vsum += reference_norm(h.V)
    return qk + vsum + reference_norm(layer.W1) + reference_norm(layer.W2)


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
        tf = tc.Transformer([tc.zero_layer(layout.dim)], layout, ("y", None))
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
        zl = tc.zero_layer(layout.dim)
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
        zl = tc.zero_layer(layout.dim)
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
        zl = tc.zero_layer(D)
        err = tc.shape_error(tc.TransformerLayer(heads, zl.W1, zl.W2), D)
        assert err == (f"head 2: Q {h.Q.shape}, K {h.K.shape}, V {h.V.shape}, "
                       f"rows {h.rows.shape} and cols {h.cols.shape} "
                       f"do not fit dim {D}")
        assert tc.shape_error(tc.TransformerLayer(heads[:2], zl.W1, zl.W2),
                              D) is None


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
    def make_writer(self, slot, value):
        """One-layer part adding `value` to its private slot at every token."""
        layout = tc.SlotLayout.build(
            [("x", 1), ("y", 1), ("t", 1), ("s", 1), ("one", 1), (slot, 1)])
        D = layout.dim
        W1 = np.zeros((1, D))
        W1[0, layout.row("one")] = 1.0
        W2 = np.zeros((D, 1))
        W2[layout.row(slot), 0] = value
        layer = tc.TransformerLayer([], W1, W2)
        return tc.Transformer([layer], layout, readout=(slot, None))

    def test_union_shares_common_rows(self):
        p1 = self.make_writer("u", 2.0)
        p2 = self.make_writer("u", 3.0)
        unified, maps = tc.union_layout([p1, p2], ["a", "b"])
        names = [name for name, _, _ in unified.ranges]
        assert names.count("x") == 1 and names.count("one") == 1
        assert "a.u" in names and "b.u" in names
        assert maps[0]["u"] == "a.u" and maps[1]["u"] == "b.u"

    def test_union_rejects_shared_width_mismatch(self):
        p1 = self.make_writer("u", 2.0)
        layout2 = tc.SlotLayout.build(
            [("x", 2), ("y", 1), ("t", 1), ("s", 1), ("one", 1), ("v", 1)])
        p2 = tc.Transformer([tc.zero_layer(layout2.dim)], layout2, ("v", None))
        with pytest.raises(tc.LayoutError):
            tc.union_layout([p1, p2], ["a", "b"])

    def test_compose_runs_parts_on_disjoint_workspaces(self):
        p1 = self.make_writer("u", 2.0)
        p2 = self.make_writer("u", 3.0)
        unified, maps = tc.union_layout([p1, p2], ["a", "b"])
        tf = tc.compose([p1, p2], unified, maps, readout=("a.u", None))
        H = np.zeros((unified.dim, 3))
        H[unified.row("one"), :] = 1.0
        tm = tc.TokenMatrix(H, unified, 1, 1)
        out = tc.forward(tf, tm)
        assert_allclose(out.data[unified.row("a.u")], 2.0, atol=1e-13)
        assert_allclose(out.data[unified.row("b.u")], 3.0, atol=1e-13)

    def test_compose_places_blocks_at_embedded_rows(self, rng):
        parts = []
        for slot, extra in (("u", 2), ("v", 1)):
            layout = toy_layout([(slot, extra)])
            layer = random_layer(layout.dim, 3, 2, 2, rng)
            parts.append(tc.Transformer([layer], layout, (slot, None)))
        unified, maps = tc.union_layout(parts, ["a", "b"])
        tf = tc.compose(parts, unified, maps)
        D = unified.dim
        composed = iter(tf.layers)
        for part, mapping in zip(parts, maps):
            idx = tc.embed_rows(part.layout, unified, mapping)
            P = np.zeros((D, part.layout.dim))
            P[idx, np.arange(part.layout.dim)] = 1.0
            layer = next(composed)
            for h, ch in zip(part.layers[0].heads, layer.heads, strict=True):
                assert_array_equal(ch.rows, idx[h.rows])
                assert_array_equal(ch.cols, idx[h.cols])
                assert_array_equal(dense_value(ch, D),
                                   P @ dense_value(h, part.layout.dim) @ P.T)

    def test_compose_rejects_overlapping_claims(self):
        p1 = self.make_writer("u", 2.0)
        p2 = self.make_writer("u", 3.0)
        unified, maps = tc.union_layout([p1, p2], ["a", "b"])
        clash = [dict(maps[0]), dict(maps[1])]
        clash[1]["u"] = "a.u"
        with pytest.raises(tc.LayoutError):
            tc.compose([p1, p2], unified, clash, readout=("a.u", None))


class TestDiagnostics:
    def test_operator_norm_matches_svd(self, rng):
        M = rng.standard_normal((6, 6))
        assert abs(tc.operator_norm(M) - np.linalg.norm(M, 2)) < 1e-6
        # close top singular values, where an iterative estimate stops short
        assert abs(tc.operator_norm(np.diag([1.0, 1.0 - 1e-6])) - 1.0) <= 1e-12
        assert tc.operator_norm(np.zeros((0, 4))) == 0.0

    def test_head_norms_keep_input_order(self, rng):
        shapes = [(2, 3), (1, 1), (3, 2), (2, 3), (0, 4), (1, 1), (4, 0),
                  (3, 2), (2, 3)]
        mats = [rng.standard_normal(s) for s in shapes]
        got = tc.head_norms(mats)
        assert got.tolist() == [reference_norm(M) for M in mats]

    def test_layer_norm_matches_per_head_reference(self, rng):
        layout = toy_layout([("w", 3)])
        D = layout.dim
        layers = []
        for hidden in (0, 1, 3, 5):
            # Q row counts and value block shapes mixed in one layer
            layer = random_layer(D, 0, 1, hidden, rng)
            layer.heads = [random_head(D, int(rng.integers(1, 4)), rng)
                           for _ in range(int(rng.integers(1, 40)))]
            layers.append(layer)
        heads = layers[1].heads
        h = heads[0]
        heads[0] = tc.AttentionHead(np.zeros((0, D)), np.zeros((0, D)), h.V,
                                    h.rows, h.cols)
        heads.append(tc.AttentionHead(h.Q, h.K, np.zeros((0, 2)),
                                      np.array([], dtype=int), np.array([0, 1])))
        layers += [tc.zero_layer(D), random_layer(D, 0, 1, 4, rng)]
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
        layout = toy_layout([("w", 1)])
        tf = tc.Transformer(
            [random_layer(layout.dim, 1, 2, 3, rng)], layout, ("y", None))
        tf2 = tc.from_json(tc.to_json(tf))
        tm = random_stream(layout, 5, rng)
        assert_allclose(tc.forward(tf2, tm).data, tc.forward(tf, tm).data,
                        atol=0)

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
    ], ids=["gapped_layout", "value_shape", "repeated_row", "col_past_dim"])
    def test_from_json_rejects_bad_layout_and_shapes(self, layout, head2, match):
        def layer(V, rows, cols):
            head = {"Q": [[0.0, 0.0, 1.0]], "K": [[0.0, 0.0, 1.0]],
                    "V": V, "rows": rows, "cols": cols}
            return {"heads": [head], "W1": [], "W2": [[], [], []]}

        obj = {"layout": layout, "readout": ["x", None],
               "layers": [layer([[1.0]], [2], [2]), layer(*head2)]}
        with pytest.raises(tc.LayoutError, match=match):
            tc.from_json(json.dumps(obj))
