"""Minimal transformer core: ReLU attention with residual stream, slot layouts,
norm accounting, and the stacking of parts built on one layout.

The forward pass treats the token matrix H (D x T) as a residual stream.
Attention adds (1/T) * sum_j sum_m relu(<Q_m h_i, K_m h_j>) V_m h_j to token i,
the MLP adds W2 relu(W1 h_i).  Q, K, W1 and W2 are dense matrices and each V_m
is stored as the block it writes (see AttentionHead), so that constructions
can be audited entry by entry.  Every MLP the builders write is a list of
ReLU sums, made into one hidden unit per term by ``relu_sum_mlp``.  Every
fitted ReLU sum reaches attention as head families, one per ridge part of
the sum (``relu_approx.ridge_parts``), sum_m c_m relu(a_m z + b_m) along one
direction, one head per term, stored once in ridge form: the bilinear score
z = <Qf h_i, Kf h_j> shared by every term, the constant row that carries the
biases b_m, an optional sender gate, and the (a, b, c) of the terms.
Attention computes z only at the open token pairs and evaluates the sum
there by prefix sums.  Weight norms read the ridge form too (see
``layer_norm``); ``HeadFamily.to_heads`` gives back the heads themselves,
which ``layer_heads`` reads.  A family is immutable, its arrays read-only,
so what is derived from it once stays true: its prefix-sum evaluator and
its shape check, which the first forward on a stream dim makes and later
forwards reuse.  Plain AttentionHeads are left for the exact hand-written
heads, a few per model.  A layer's families precede its plain heads.

Layers and heads are frozen with read-only arrays too, because one layer
object may stand at several positions: a gradient step that repeats L times
is one step layer kept at L positions (the looped form).  ``tf_norm``,
``describe`` and ``to_json`` take each distinct layer object once, so a
repeated step is normed and written once, and shares its families'
evaluators and shape checks; ``from_json`` restores the sharing, and
``compose``, which stacks parts built on one layout, keeps it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .relu_approx import ReluSum, breakpoints, prefix_sum_eval


class LayoutError(ValueError):
    pass


class ForwardError(RuntimeError):
    pass


@dataclass(frozen=True)
class SlotLayout:
    """Named, disjoint, contiguous row ranges covering [0, dim)."""

    ranges: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        start = 0
        seen = set()
        for name, a, b in self.ranges:
            if name in seen:
                raise LayoutError(f"duplicate slot name {name!r}")
            if a != start or b < a:
                raise LayoutError(f"slot {name!r} spans rows [{a}, {b}), "
                                  f"expected a range starting at row {start}")
            seen.add(name)
            start = b

    @classmethod
    def build(cls, slots: list[tuple[str, int]]) -> "SlotLayout":
        ranges = []
        start = 0
        for name, width in slots:
            ranges.append((name, start, start + width))
            start += width
        return cls(tuple(ranges))

    @property
    def dim(self) -> int:
        return self.ranges[-1][2] if self.ranges else 0

    @property
    def names(self) -> list[str]:
        return [r[0] for r in self.ranges]

    def rows(self, name: str) -> slice:
        for n, a, b in self.ranges:
            if n == name:
                return slice(a, b)
        raise LayoutError(f"no slot named {name!r}")

    def start(self, name: str) -> int:
        return self.rows(name).start

    def width(self, name: str) -> int:
        s = self.rows(name)
        return s.stop - s.start

    def row(self, name: str) -> int:
        s = self.rows(name)
        if s.stop - s.start != 1:
            raise LayoutError(f"slot {name!r} has width {s.stop - s.start}, expected 1")
        return s.start


@dataclass
class TokenMatrix:
    """Token embedding matrix of shape (layout.dim, n + n_target + 1).

    Columns 0..n-1 are source tokens, n..n+n_target-1 target tokens, and the
    last column is the query.
    """

    data: np.ndarray
    layout: SlotLayout
    n_source: int
    n_target: int

    def __post_init__(self):
        if self.data.shape[0] != self.layout.dim:
            raise LayoutError(
                f"data has {self.data.shape[0]} rows, layout dim is {self.layout.dim}"
            )

    @property
    def tokens(self) -> int:
        return self.data.shape[1]

    @property
    def query_index(self) -> int:
        return self.tokens - 1

    def slot(self, name: str) -> np.ndarray:
        return self.data[self.layout.rows(name)]

    def copy(self) -> "TokenMatrix":
        return TokenMatrix(self.data.copy(), self.layout, self.n_source, self.n_target)


def _store_read_only(obj, names) -> None:
    """Store the named array fields of a frozen dataclass read-only, past its
    frozen __setattr__: an array that is read-only and owns its data (a
    cached fit's, or another object's) is shared, any other copied."""
    for name in names:
        arr = obj.__dict__[name]
        if arr is not None and (not isinstance(arr, np.ndarray)
                                or arr.flags.writeable or arr.base is not None):
            arr = np.array(arr)
            arr.setflags(write=False)
            obj.__dict__[name] = arr


# reprs give shapes and counts: the families of a composed model hold ~22k
# heads, and printing their matrices takes minutes
@dataclass(frozen=True)
class AttentionHead:
    """One ReLU head whose D x D value matrix is zero outside the
    (len(rows), len(cols)) block ``V`` at ``np.ix_(rows, cols)``.  Frozen,
    with read-only arrays (see ``_store_read_only``)."""

    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        _store_read_only(self, ("Q", "K", "V", "rows", "cols"))

    def __repr__(self) -> str:
        return f"AttentionHead(Q={self.Q.shape}, K={self.K.shape}, V={self.V.shape})"


# a family's array fields besides its gate, which may be None
FAMILY_ARRAYS = ("Qf", "Kf", "a", "b", "c", "V0", "rows", "cols")


@dataclass(frozen=True)
class HeadFamily:
    """The heads of one ReLU sum along one direction,
    sum_m c_m relu(a_m z + b_m), stored once and evaluated by prefix sums:
    one ridge part of a fitted sum at any input dimension
    (``relu_approx.ridge_parts``; a 1-D sum is one part).

    The ridge variable z_ij = <Qf h_i, Kf h_j> is one bilinear score shared
    by every term.  Head m is

        Q_m = [a_m Qf; b_m e_one; q_g],   K_m = [Kf; e_one; k_g],

    with value block c_m V0 (on V0's nonzero entries) at the family's rows
    and cols, so that

        <Q_m h_i, K_m h_j> = a_m z_ij + b_m + g_ij.

    The bias row pairs e_one with e_one, so b_m is added where the stream's
    constant row ``one`` is 1; ``attn_forward`` checks that it is 1 at every
    token.  ``gate`` is None or the (2, D) row pair (q_g, k_g) of a sender
    gate g_ij = (q_g . h_i)(k_g . h_j): 0 at an open pair and a negative
    offset that keeps every term off at a closed one, so a family can sum
    over a subset of the senders.

    With a_m >= 0 and the terms in strictly increasing breakpoint order
    t_m = -b_m / a_m (-inf for a constant term), the sum is A(k) z + B(k)
    with A and B prefix sums and k = #{m : t_m < z}; the evaluator,
    ``relu_approx.prefix_sum_eval``, is built once per family, and its float
    error is within the fit's ``relu_approx.float_error``.  ``fit_knots``
    checks every 1-D fit at its knots with the same evaluator.
    ``attn_forward`` (``family_scores``) computes z and the sum only at open
    pairs, and once for all receivers when they share Qf h_i and q_g . h_i;
    it first checks that no closed pair's largest pre-activation reaches its
    gate, and raises ForwardError otherwise, so the family computes what its
    heads compute or stops.  ``layer_norm`` reads the heads' norms from
    this form; ``to_heads`` gives the heads themselves, which
    ``layer_heads`` reads.

    A family is frozen and its arrays are read-only (a copy of each array
    it is given that could still be written), so the evaluator and the
    result of its shape check (``shape_error``, once per stream dim) are
    made once and cannot go stale; ``dataclasses.replace`` makes a new
    family with caches of its own.
    """

    Qf: np.ndarray
    Kf: np.ndarray
    one: int
    gate: np.ndarray | None
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    V0: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        _store_read_only(self, (*FAMILY_ARRAYS, "gate"))

    def __repr__(self) -> str:
        return (f"HeadFamily(terms={self.n_terms}, Qf={self.Qf.shape}, "
                f"V0={self.V0.shape})")

    @property
    def n_terms(self) -> int:
        return len(self.c)

    def _unit(self) -> np.ndarray:
        e = np.zeros((1, self.Qf.shape[1]))
        e[0, self.one] = 1.0
        return e

    def _gate(self) -> tuple[np.ndarray, np.ndarray]:
        """The gate's (1, D) query and key rows, or two (0, D) blocks."""
        if self.gate is None:
            none = np.zeros((0, self.Qf.shape[1]))
            return none, none
        return self.gate[:1], self.gate[1:]

    def _queries(self, m: np.ndarray) -> np.ndarray:
        """Q_m = [a_m Qf; b_m e_one; q_g] of the terms m, stacked along a
        first axis."""
        q_g = self._gate()[0]
        bias = np.zeros((len(m), 1, self.Qf.shape[1]))
        bias[:, 0, self.one] = self.b[m]
        return np.concatenate([self.a[m, None, None] * self.Qf, bias,
                               np.broadcast_to(q_g, (len(m), *q_g.shape))], axis=1)

    def _key(self) -> np.ndarray:
        """K = [Kf; e_one; k_g], every head's key map."""
        return np.vstack([self.Kf, self._unit(), self._gate()[1]])

    def to_heads(self) -> list[AttentionHead]:
        Qs, K = self._queries(np.arange(self.n_terms)), self._key()
        K.setflags(write=False)
        Vs = np.where(self.V0 != 0, self.c[:, None, None] * self.V0, self.V0)
        return [AttentionHead(q, K, v, self.rows, self.cols)
                for q, v in zip(Qs, Vs)]

    @functools.cached_property
    def _plan(self):
        """The prefix-sum evaluator of the family's ReLU sum."""
        return prefix_sum_eval(self.a, self.b, self.c)

    @functools.cached_property
    def _errors(self) -> dict[int, str | None]:
        """``_family_error`` per stream dim, filled in by ``shape_error``."""
        return {}


def family_scores(fam: HeadFamily, H: np.ndarray) -> np.ndarray:
    """sum_m c_m relu(score_m) at receiver i and sender j, zero at closed
    pairs (see HeadFamily): a (T, T) matrix, or its one (1, T) row when
    every receiver has the same Qf h_i and gate factor (a state that every
    token carries, such as the DANN parameters)."""
    if not np.all(H[fam.one] == 1.0):
        raise ForwardError("bias form: the constant row is not 1 at every token")
    # g_ij = (q_g . h_i)(k_g . h_j): (i, j) is open where either factor is 0
    g = np.zeros((2, H.shape[1])) if fam.gate is None else fam.gate @ H
    Q = np.vstack([fam.Qf @ H, g[:1]])
    if np.all(Q == Q[:, :1]):
        Q = Q[:, :1]
    QH, gq = Q[:-1], Q[-1]
    KH, gk = fam.Kf @ H, g[1]
    senders, closed = np.flatnonzero(gk == 0.0), np.flatnonzero(gk)
    receivers, shut = np.flatnonzero(gq == 0.0), np.flatnonzero(gq)
    if closed.size and shut.size:
        # a_m >= 0: the largest pre-activation grows with z
        zmax = (QH[:, shut].T @ KH[:, closed]).max()
        top = float(np.max(fam.a * zmax + fam.b))
        gmax = np.outer(gq[shut], gk[closed]).max()
        if not top + gmax <= 0.0:
            raise ForwardError(
                f"a sender is neither open (gate 0) nor closed: pre-activation "
                f"{top:.6g} reaches the gate {-gmax:.6g}")
    F = np.zeros((QH.shape[1], H.shape[1]))
    F[:, senders] = fam._plan(QH.T @ KH[:, senders])
    if closed.size and receivers.size:
        F[np.ix_(receivers, closed)] = fam._plan(QH[:, receivers].T @ KH[:, closed])
    return F


@dataclass(frozen=True)
class TransformerLayer:
    """Plain heads, head families and the MLP (W1, W2) of one layer.  Frozen,
    with read-only W1 and W2 and its heads and families stored as tuples, so
    that a layer kept at several positions stays the same at each."""

    heads: tuple[AttentionHead, ...]
    W1: np.ndarray
    W2: np.ndarray
    families: tuple[HeadFamily, ...] = ()

    def __post_init__(self):
        self.__dict__["heads"] = tuple(self.heads)
        self.__dict__["families"] = tuple(self.families)
        _store_read_only(self, ("W1", "W2"))

    def __repr__(self) -> str:
        terms = sum(f.n_terms for f in self.families)
        return (f"TransformerLayer(heads={len(self.heads)}, "
                f"families={len(self.families)} ({terms} heads), "
                f"W1={self.W1.shape}, W2={self.W2.shape})")


def n_heads(layer: TransformerLayer) -> int:
    """Plain heads plus family terms."""
    return len(layer.heads) + sum(f.n_terms for f in layer.families)


def layer_heads(layer: TransformerLayer) -> list[AttentionHead]:
    """Every head of the layer in head order: the families' heads (see
    ``HeadFamily.to_heads``), then the plain heads."""
    out = [h for fam in layer.families for h in fam.to_heads()]
    return out + list(layer.heads)


@dataclass
class Transformer:
    layers: list[TransformerLayer]
    layout: SlotLayout
    readout: tuple[str, int | None] = ("y", None)

    def __repr__(self) -> str:
        heads = sum(n_heads(layer) for layer in self.layers)
        return (f"Transformer(layers={len(self.layers)}, heads={heads}, "
                f"dim={self.layout.dim}, readout={self.readout})")


class MlpPart(NamedTuple):
    """One ReLU sum written as MLP units by ``relu_sum_mlp``: ``fit`` reads
    the stream rows ``ins`` (one per input of the sum) and adds to row
    ``out``; ``gate`` is None or a 0/1 gate ``(row, G)``."""

    fit: ReluSum
    ins: list[int] | slice
    out: int
    gate: tuple[int, float] | None = None


def relu_sum_mlp(dim: int, one: int, parts: list[MlpPart]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(W1, W2) of the MLP that adds each part's ReLU sum to its output row:
    one hidden unit c_m relu(a_m . h[ins] + b_m) per term m of each part, in
    part order, with b_m carried by the constant row ``one``.  A gate
    (row, G) adds G (h[row] - 1) to every unit of its part: where h[row] is
    0 a G at least as large as every a_m . h[ins] + b_m keeps the part at
    exactly 0, and where h[row] is 1 the part is its sum."""
    n = sum(part.fit.n_terms for part in parts)
    W1 = np.zeros((n, dim))
    W2 = np.zeros((dim, n))
    start = 0
    for fit, ins, out, gate in parts:
        units = slice(start, start + fit.n_terms)
        W1[units, ins] = fit.a
        if gate is None:
            W1[units, one] = fit.b
        else:
            W1[units, one] = fit.b - gate[1]
            W1[units, gate[0]] = gate[1]
        W2[out, units] = fit.c
        start = units.stop
    return W1, W2


def query_copy(layout: SlotLayout, G: float, src: str, out: str) -> MlpPart:
    """Row ``src`` copied into row ``out`` at the query token only: the exact
    pair relu(+-v - G t - G s) is v's positive and negative part at the query
    (t = s = 0) and vanishes on training tokens while |v| < G."""
    pair = ReluSum([[1.0, -G, -G], [-1.0, -G, -G]], [0.0, 0.0], [1.0, -1.0],
                   input_dim=3, sup_error=0.0)
    return MlpPart(pair, [layout.row(n) for n in (src, "t", "s")],
                   layout.row(out))


def zero_layer(dim: int) -> TransformerLayer:
    """Layer with no heads and an empty MLP; forward is the identity."""
    return TransformerLayer([], np.zeros((0, dim)), np.zeros((dim, 0)))


def attn_forward(layer: TransformerLayer, tm: TokenMatrix) -> TokenMatrix:
    """Apply the attention half of a layer.

    out_i = h_i + (1/T) sum_j sum_m relu(<Q_m h_i, K_m h_j>) V_m h_j

    A family's heads are summed by ``family_scores``.
    """
    H = tm.data
    D, T = H.shape
    acc = H.copy()
    for head in layer.heads:
        scores = (head.Q @ H).T @ (head.K @ H)
        np.maximum(scores, 0.0, out=scores)
        acc[head.rows] += (head.V @ H[head.cols]) @ scores.T / T
    for f, fam in enumerate(layer.families):
        try:
            F = family_scores(fam, H)
        except ForwardError as e:
            raise ForwardError(f"family {f}: {e}") from e
        # a (1, T) F is every receiver's row; its one column broadcasts
        acc[fam.rows] += (fam.V0 @ H[fam.cols]) @ F.T / T
    if not np.all(np.isfinite(acc)):
        raise ForwardError("non-finite value in attention output")
    return TokenMatrix(acc, tm.layout, tm.n_source, tm.n_target)


def mlp_forward(layer: TransformerLayer, tm: TokenMatrix) -> TokenMatrix:
    """Apply the MLP half of a layer: out_i = h_i + W2 relu(W1 h_i)."""
    H = tm.data
    hidden = np.maximum(layer.W1 @ H, 0.0)
    out = H + layer.W2 @ hidden
    if not np.all(np.isfinite(out)):
        raise ForwardError("non-finite value in MLP output")
    return TokenMatrix(out, tm.layout, tm.n_source, tm.n_target)


def shape_error(layer: TransformerLayer, D: int) -> str | None:
    """Why the layer's weights do not fit stream dim D, or None if they do:
    every head's Q and K must be (r, D) with one r, its rows and cols
    distinct integer indices below D and V (len(rows), len(cols)), and W1 and
    W2 (h, D) and (D, h); the error names the first bad head.  Each family
    must have nonnegative slopes a_m in strictly increasing breakpoint
    order, a, b and c of one length, Qf and Kf of one shape (r, D), a gate
    None or (2, D), ``one`` a row below D, rows and cols as a head's and V0
    (len(rows), len(cols))."""
    for m, h in enumerate(layer.heads):
        if (h.Q.ndim != 2 or h.Q.shape[1] != D or h.K.shape != h.Q.shape
                or h.rows.ndim != 1 or h.cols.ndim != 1
                or h.rows.dtype.kind not in "iu" or h.cols.dtype.kind not in "iu"
                or h.V.shape != h.rows.shape + h.cols.shape):
            return (f"head {m}: Q {h.Q.shape}, K {h.K.shape}, V {h.V.shape}, "
                    f"rows {h.rows.shape} and cols {h.cols.shape} do not fit dim {D}")
        for name in ("rows", "cols"):
            err = _index_error(name, getattr(h, name), D)
            if err is not None:
                return f"head {m}: {err}"
    for f, fam in enumerate(layer.families):
        if D not in fam._errors:
            fam._errors[D] = _family_error(fam, D)
        if fam._errors[D] is not None:
            return f"family {f}: {fam._errors[D]}"
    if (layer.W1.ndim != 2 or layer.W1.shape[1] != D
            or layer.W2.shape != layer.W1.shape[::-1]):
        return f"W1 {layer.W1.shape} and W2 {layer.W2.shape} do not fit dim {D}"
    return None


def _index_error(name: str, idx: np.ndarray, D: int) -> str | None:
    if (idx.ndim != 1 or idx.dtype.kind not in "iu"
            or np.unique(idx).size != idx.size or np.any((idx < 0) | (idx >= D))):
        return f"{name} {idx.tolist()} repeat or leave rows 0..{D - 1}"
    return None


def _family_error(fam: HeadFamily, D: int) -> str | None:
    """Why a family cannot run on stream dim D, or None (see shape_error)."""
    a, b, c = (np.asarray(v) for v in (fam.a, fam.b, fam.c))
    if a.ndim != 1 or a.shape != b.shape or a.shape != c.shape or a.size == 0:
        return f"a, b and c have shapes {a.shape}, {b.shape} and {c.shape}"
    if not np.all(a >= 0):
        return "negative slope a_m"
    if not np.all(np.diff(breakpoints(a, b)) > 0):
        return "breakpoints -b_m / a_m are not strictly increasing"
    if fam.Qf.ndim != 2 or fam.Qf.shape[1] != D or fam.Kf.shape != fam.Qf.shape:
        return f"Qf {fam.Qf.shape} and Kf {fam.Kf.shape} are not one (r, {D})"
    if fam.gate is not None and fam.gate.shape != (2, D):
        return f"gate {fam.gate.shape} is not (2, {D})"
    if (not isinstance(fam.one, (int, np.integer)) or isinstance(fam.one, bool)
            or not 0 <= fam.one < D):
        return f"one {fam.one!r} is not a row of 0..{D - 1}"
    for name in ("rows", "cols"):
        err = _index_error(name, getattr(fam, name), D)
        if err is not None:
            return err
    if fam.V0.shape != (fam.rows.size, fam.cols.size):
        return f"V0 {fam.V0.shape} does not fit rows {fam.rows.size} x cols {fam.cols.size}"
    return None


def layer_forward(layer: TransformerLayer, tm: TokenMatrix) -> TokenMatrix:
    err = shape_error(layer, tm.data.shape[0])
    if err is not None:
        raise ForwardError(err)
    return mlp_forward(layer, attn_forward(layer, tm))


def forward_trace(tf: Transformer, tm: TokenMatrix) -> tuple[TokenMatrix, list[TokenMatrix]]:
    """Forward pass keeping the stream after every layer."""
    out = tm.copy()
    trace = []
    for i, layer in enumerate(tf.layers):
        try:
            out = layer_forward(layer, out)
        except ForwardError as e:
            raise ForwardError(f"layer {i}: {e}") from e
        trace.append(out)
    return out, trace


def forward(tf: Transformer, tm: TokenMatrix) -> TokenMatrix:
    return forward_trace(tf, tm)[0]


def read_output(tf: Transformer, tm: TokenMatrix) -> float:
    """Run the transformer and read the scalar at its declared output slot."""
    out = forward(tf, tm)
    name, col = tf.readout
    c = out.query_index if col is None else col
    return float(out.data[out.layout.row(name), c])


def operator_norm(M: np.ndarray) -> float:
    """Spectral norm (largest singular value); 0.0 for a matrix with no
    entries."""
    return float(_stack_norms(M[None])[0])


def layer_norm(layer: TransformerLayer) -> float:
    """max_m max(|Q_m|, |K_m|) + sum_m |V_m| + |W1| + |W2|  (operator norms)
    over every head of the layer, family heads included.

    A family's norms come from its ridge form (see HeadFamily), without
    building its heads: |Q_m| from the Grams of its terms (``_q_candidates``),
    one K for all its heads, and |c_m V0| = |c_m| |V0|, which for the
    diagonal V0 the builders emit is the SVD of c_m V0 bit for bit.  The
    layer's norms are taken in one call per matrix shape (``_by_shape``), and
    the V norms are summed left to right in head order, as a loop over
    ``layer_heads`` would, so the result does not depend on the batching."""
    fams, heads = layer.families, layer.heads
    queries = _q_candidates(fams) + [h.Q[None] for h in heads]
    keys = [f._key()[None] for f in fams] + [h.K[None] for h in heads]
    qk = [0.0] + [n.max() for n in _by_shape(_stack_norms, queries + keys)]
    values = _by_shape(_stack_norms, [f.V0[None] for f in fams]
                       + [h.V[None] for h in heads])
    v = np.concatenate([np.zeros(0)]
                       + [np.abs(f.c) * n for f, n in zip(fams, values)]
                       + values[len(fams):])
    vsum = float(np.cumsum(v)[-1]) if v.size else 0.0
    return float(max(qk)) + vsum + operator_norm(layer.W1) + operator_norm(layer.W2)


def _q_candidates(fams: tuple[HeadFamily, ...]) -> list[np.ndarray]:
    """The Q_m of the terms of each family that may have its largest |Q_m|.

    Q_m = S_m R with R = [Qf; e_one; q_g] and S_m = diag(a_m, ..., a_m,
    b_m, 1), so |Q_m|^2 is the top eigenvalue of S_m (R R^T) S_m: an
    eigvalsh of small Grams.  That agrees with the SVD of Q_m to a few ulps,
    so every term within 1e-9 of its family's top is kept, and the SVD of
    those gives the family's max |Q_m| bit for bit."""
    grams = []
    for f in fams:
        r = f.Qf.shape[0]
        R = np.vstack([f.Qf, f._unit(), f._gate()[0]])
        S = np.ones((f.n_terms, len(R)))
        S[:, :r] = f.a[:, None]
        S[:, r] = f.b
        grams.append(S[:, :, None] * (R @ R.T) * S[:, None, :])
    tops = _by_shape(lambda G: np.linalg.eigvalsh(G)[:, -1], grams)
    out = []
    for f, top in zip(fams, tops):
        q = np.sqrt(np.maximum(top, 0.0))
        out.append(f._queries(np.flatnonzero(q >= q.max() * (1.0 - 1e-9))))
    return out


def _by_shape(fn, stacks: list[np.ndarray]) -> list[np.ndarray]:
    """fn of every stack of a list, where fn maps a stack of matrices to one
    value per matrix: one call per matrix shape, on the stacks of that shape
    joined (numpy runs the same LAPACK call on each matrix of a stack, so
    every value is the matrix's own)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, S in enumerate(stacks):
        groups.setdefault(S.shape[1:], []).append(i)
    out = [np.zeros(0)] * len(stacks)
    for idx in groups.values():
        ends = np.cumsum([len(stacks[i]) for i in idx])
        parts = np.split(fn(np.concatenate([stacks[i] for i in idx])), ends[:-1])
        for i, part in zip(idx, parts):
            out[i] = part
    return out


def _stack_norms(S: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack; 0.0 for matrices with no
    entries."""
    if 0 in S.shape[1:]:
        return np.zeros(len(S))
    return np.linalg.svd(S, compute_uv=False).max(axis=-1)


def _distinct_layers(layers: list[TransformerLayer]
                    ) -> tuple[list[TransformerLayer], list[int]]:
    """The distinct layer objects of a stack in first-seen order, and the
    index of the one at each position: a step layer kept at L positions is
    one object (see the module docstring)."""
    index: dict[int, int] = {}
    distinct = []
    for layer in layers:
        if id(layer) not in index:
            index[id(layer)] = len(distinct)
            distinct.append(layer)
    return distinct, [index[id(layer)] for layer in layers]


def tf_norm(tf: Transformer) -> float:
    """The largest ``layer_norm``, taken once per distinct layer."""
    return max((layer_norm(layer) for layer in _distinct_layers(tf.layers)[0]),
               default=0.0)


def _family_marks(fam: HeadFamily, read: np.ndarray,
                  written: np.ndarray) -> None:
    """Mark the rows a family's heads read and write, from its templates:
    head m's Q is [a_m Qf; b_m e_one; q_g], its K [Kf; e_one; k_g] and its
    value block c_m V0 (see HeadFamily)."""
    if np.any(fam.a):
        read |= np.any(fam.Qf, axis=0)
    read |= np.any(fam.Kf, axis=0)
    read[fam.one] = True
    if fam.gate is not None:
        read |= np.any(fam.gate, axis=0)
    if np.any(fam.c):
        read[fam.cols[np.any(fam.V0, axis=0)]] = True
        written[fam.rows[np.any(fam.V0, axis=1)]] = True


def _layer_summary(layer: TransformerLayer, layout: SlotLayout) -> dict:
    """A layer's head count, MLP width, norm and the slots it reads and
    writes."""
    read = np.any(layer.W1, axis=0)
    written = np.any(layer.W2, axis=1)
    for head in layer.heads:
        read |= np.any(head.Q, axis=0) | np.any(head.K, axis=0)
        read[head.cols[np.any(head.V, axis=0)]] = True
        written[head.rows[np.any(head.V, axis=1)]] = True
    for fam in layer.families:
        _family_marks(fam, read, written)
    return {
        "heads": n_heads(layer),
        "mlp_hidden": int(layer.W1.shape[0]),
        "norm": layer_norm(layer),
        "reads": sorted(n for n, a, b in layout.ranges if read[a:b].any()),
        "writes": sorted(n for n, a, b in layout.ranges if written[a:b].any()),
    }


def describe(tf: Transformer) -> dict:
    """Structural summary: per-layer head counts, norms, and slot usage, one
    entry per position, each distinct layer summarised once."""
    distinct, positions = _distinct_layers(tf.layers)
    summaries = [_layer_summary(layer, tf.layout) for layer in distinct]
    layers = [dict(summaries[i]) for i in positions]
    return {
        "dim": tf.layout.dim,
        "num_layers": len(tf.layers),
        "layout": {n: [a, b] for n, a, b in tf.layout.ranges},
        "readout": [tf.readout[0], tf.readout[1]],
        # the max of the per-layer norms, which is tf_norm(tf) bit for bit
        "tf_norm": max((lay["norm"] for lay in layers), default=0.0),
        "layers": layers,
    }


SHARED_SLOTS = ("x", "y", "t", "s", "one")


def union_layout(layouts: list[SlotLayout]) -> SlotLayout:
    """The one layout that several parts are built on: the shared slots
    once, then every other slot of each layout in order.  A shared slot
    whose widths disagree, or any other slot name in two layouts, raises
    LayoutError naming it."""
    shared: dict[str, int] = {}
    own: list[tuple[str, int]] = []
    for layout in layouts:
        for name, a, b in layout.ranges:
            if name not in SHARED_SLOTS:
                own.append((name, b - a))
            elif shared.setdefault(name, b - a) != b - a:
                raise LayoutError(f"shared slot {name!r} has widths "
                                  f"{shared[name]} and {b - a}")
    # a name in two layouts repeats here, which SlotLayout rejects
    return SlotLayout.build([(n, shared[n]) for n in SHARED_SLOTS if n in shared]
                            + own)


def compose(parts: list[Transformer]) -> Transformer:
    """The parts' layers stacked in order, read out where the last part
    reads out.  Every part must be built on one layout (``union_layout``);
    each layer object is kept as it is, so a step kept at several positions
    stays one object."""
    layout = parts[0].layout
    for i, part in enumerate(parts):
        if part.layout != layout:
            raise LayoutError(f"part {i} is built on another layout than part 0")
    return Transformer([layer for part in parts for layer in part.layers],
                       layout, parts[-1].readout)


def to_json(tf: Transformer) -> str:
    """The model as JSON: its layout and readout, each distinct layer object
    once under ``"layers"``, and under ``"positions"`` the index into
    ``"layers"`` of the layer at each position."""
    distinct, positions = _distinct_layers(tf.layers)
    obj = {
        "layout": [[n, a, b] for n, a, b in tf.layout.ranges],
        "readout": [tf.readout[0], tf.readout[1]],
        "layers": [
            {
                "heads": [
                    {"Q": h.Q.tolist(), "K": h.K.tolist(), "V": h.V.tolist(),
                     "rows": h.rows.tolist(), "cols": h.cols.tolist()}
                    for h in layer.heads
                ],
                "W1": layer.W1.tolist(),
                "W2": layer.W2.tolist(),
                "families": [
                    {**{k: getattr(f, k).tolist() for k in FAMILY_ARRAYS},
                     "one": int(f.one),
                     "gate": None if f.gate is None else f.gate.tolist()}
                    for f in layer.families
                ],
            }
            for layer in distinct
        ],
        "positions": positions,
    }
    return json.dumps(obj)


def _field(obj, key: str, where: str, kind: type = object):
    """obj[key] of a JSON object read by from_json; a missing key, or a
    value that is not a ``kind``, raises LayoutError naming where and key."""
    if not isinstance(obj, dict) or key not in obj:
        raise LayoutError(f"{where}: missing field {key!r}")
    if not isinstance(obj[key], kind):
        raise LayoutError(f"{where}: field {key!r} is a {type(obj[key]).__name__}, "
                          f"not a {kind.__name__}")
    return obj[key]


def _load(obj, key: str, where: str, *rest: int, index: bool = False) -> np.ndarray:
    """Field ``key`` of a head, family or layer read from JSON: an array of
    finite numbers (as floats), or of integers if ``index``.  to_json writes
    an array whose first axis is empty as [], which np.array reads as a
    float (0,): [] gets back the shape (0, *rest), and an index array the
    integer (0,).  A ragged list, booleans, strings or a non-finite number
    raise LayoutError naming where and key."""
    value = _field(obj, key, where)
    try:
        arr = np.array(value)
    except ValueError as e:
        raise LayoutError(f"{where}: {key} is not a rectangular array") from e
    if arr.shape == (0,):
        return arr.astype(int) if index else np.zeros((0, *rest))
    if arr.dtype.kind not in ("iu" if index else "iuf"):
        raise LayoutError(f"{where}: {key} holds {arr.dtype} entries, not "
                          + ("integers" if index else "numbers"))
    if index:
        return arr
    if not np.all(np.isfinite(arr)):
        raise LayoutError(f"{where}: {key} has an entry that is not finite")
    return arr.astype(float, copy=False)


def _load_layer(lobj, where: str, D: int) -> TransformerLayer:
    """One entry of to_json's ``"layers"``; a field that is missing or
    malformed (see _load), or weights that cannot run on stream dim D (see
    shape_error), raise LayoutError naming where."""
    heads = []
    for m, h in enumerate(_field(lobj, "heads", where, list)):
        at = f"{where} head {m}"
        rows, cols = _load(h, "rows", at, index=True), _load(h, "cols", at, index=True)
        heads.append(AttentionHead(_load(h, "Q", at, D), _load(h, "K", at, D),
                                   _load(h, "V", at, cols.size), rows, cols))
    W1, W2 = _load(lobj, "W1", where), _load(lobj, "W2", where)
    if W1.size == 0:
        W1 = W1.reshape(0, D)
    if W2.size == 0:
        W2 = W2.reshape(D, 0)
    families = []
    for j, f in enumerate(_field(lobj, "families", where, list)):
        at = f"{where} family {j}"
        rows, cols = _load(f, "rows", at, index=True), _load(f, "cols", at, index=True)
        gate = None if _field(f, "gate", at) is None else _load(f, "gate", at)
        families.append(HeadFamily(
            _load(f, "Qf", at, D), _load(f, "Kf", at, D), _field(f, "one", at),
            gate, *(_load(f, k, at) for k in "abc"), _load(f, "V0", at, cols.size),
            rows, cols))
    layer = TransformerLayer(heads, W1, W2, tuple(families))
    err = shape_error(layer, D)
    if err is not None:
        raise LayoutError(f"{where} {err}")
    return layer


def from_json(s: str) -> Transformer:
    """Load a model written by to_json, with one layer object at every
    position that names it.  A missing or malformed field (a ragged,
    boolean, string or non-finite weight, a layout entry that is not
    [slot, start, stop], a readout slot outside the layout, a position that
    names no layer), a layout that is not
    contiguous from row 0, a weight whose shape does not fit it, a value
    block whose rows or cols repeat or leave it, or a family that cannot run
    (see shape_error) raises LayoutError naming the layer and field."""
    obj = json.loads(s)
    ranges = _field(obj, "layout", "model", list)
    for r in ranges:
        if not (isinstance(r, list) and len(r) == 3 and isinstance(r[0], str)
                and all(type(v) is int for v in r[1:])):
            raise LayoutError(f"layout: {r!r} is not [slot, start, stop]")
    layout = SlotLayout(tuple((n, a, b) for n, a, b in ranges))
    layers = [_load_layer(lobj, f"layer {i}", layout.dim)
              for i, lobj in enumerate(_field(obj, "layers", "model", list))]
    positions = _field(obj, "positions", "model", list)
    for p, i in enumerate(positions):
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(layers):
            raise LayoutError(f"position {p}: layer index {i!r} is not one of "
                              f"0..{len(layers) - 1}")
    readout = _field(obj, "readout", "model", list)
    if (len(readout) != 2 or not isinstance(readout[0], str)
            or not (readout[1] is None or type(readout[1]) is int)):
        raise LayoutError(f"readout {readout!r} is not [slot, column or null]")
    try:
        layout.row(readout[0])
    except LayoutError as e:
        raise LayoutError(f"readout: {e}") from e
    return Transformer([layers[i] for i in positions], layout,
                       (readout[0], readout[1]))
