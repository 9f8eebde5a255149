"""Minimal transformer core: ReLU attention with residual stream, slot layouts,
norm accounting, and the stacking of parts built on one layout.

The forward pass treats the token matrix H (D x T) as a residual stream.
Attention adds (1/T) * sum_j sum_m relu(<Q_m h_i, K_m h_j>) V_m h_j to token i,
the MLP adds W2 relu(W1 h_i).  Q, K, W1 and W2 are dense matrices and each V_m
is stored as the block it writes (see AttentionHead), so that constructions
can be audited entry by entry.  Every fitted ReLU sum reaches attention as
head families, one per ridge part of the sum (``relu_approx.ridge_parts``),
sum_m c_m relu(a_m z + b_m) along one direction, one head per term, stored
once in ridge form: the bilinear score z = <Qf h_i, Kf h_j> shared by every
term, the constant row that carries the biases b_m, an optional sender
gate, and the (a, b, c) of the terms.  Attention computes z only at the
open token pairs and evaluates the sum there by prefix sums, one group of
families that share their key side at a time (``attn_forward``).  Weight
norms read the ridge form too (see ``layer_norm``).  Plain AttentionHeads
are left for the exact hand-written heads, a few per model.  A layer's
families precede its plain heads.

Every fitted 1-D ReLU sum an MLP applies at each token is a per-token part
(TokenPart): its input row, its 0/1 gates, its terms (a, b, c) and its
output row, one hidden unit per term, evaluated once per token by prefix
sums.  W1 and W2 hold only the exact units (``relu_sum_mlp``: the zeroing
and copy pairs) and the multivariate projection fits.  Norms, ``describe``,
the shape check and JSON read each part as the hidden units it stands for.
A family or part is immutable, its arrays read-only, so what is derived
from it once stays true: its prefix-sum evaluator and its shape check,
which the first forward on a stream dim makes and later forwards reuse.

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
    def __init__(self, why: str, family: int | None = None):
        # family: the layer index of the head family that failed, if any
        super().__init__(why if family is None else f"family {family}: {why}")
        self.family = family


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
        return self.rows(name).stop - self.start(name)

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
    error is within the fit's ``relu_approx.float_error``.
    ``attn_forward`` scores the families with equal ``one``, Kf, gate, V0,
    rows and cols as one group (the layer's plan, ``_groups``): the key
    side, gate, open pairs, closed-pair check and value product once, and
    per family only the prefix-sum lookup, at the open pairs, after
    checking that no closed pair's largest pre-activation reaches its gate
    (else ForwardError), so the family computes what its heads compute or
    stops.  ``layer_norm`` reads the heads' norms from this form.

    A family is frozen and its arrays are read-only (a copy of each array
    it is given that could still be written), so its evaluator and shape
    check (``shape_error``, once per stream dim) are made once and cannot
    go stale; ``dataclasses.replace`` makes a family with caches of its own.
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

    def _maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """R = [Qf; e_one; q_g], K = [Kf; e_one; k_g] and the (terms, len(R))
        scales S = (a_m, ..., a_m, b_m, 1): head m has Q_m = S_m R and K."""
        r, D = self.Qf.shape
        e = np.eye(1, D, self.one)
        g = np.zeros((2, 0, D)) if self.gate is None else self.gate[:, None]
        R = np.vstack([self.Qf, e, *g[:1]])
        S = np.ones((self.n_terms, len(R)))
        S[:, :r], S[:, r] = self.a[:, None], self.b
        return R, np.vstack([self.Kf, e, *g[1:]]), S

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
    pairs (see HeadFamily): ``_group_scores`` of the family alone."""
    alone = TransformerLayer((), np.zeros((0, 0)), np.zeros((0, 0)), (fam,))
    return _group_scores(alone._groups[0], H)


def _group_scores(group: tuple, H: np.ndarray) -> np.ndarray:
    """The members' summed scores (see HeadFamily): a (T, T) matrix; one
    (1, T) row when every receiver has the same Qf h_i of every member and
    gate factor (a state every token carries, as the DANN parameters); one
    (T, 1) column when the group has no gate and every sender has the same
    Kf h_j (a key that reads only ``one``, as the IWL features' does)."""
    index, fams, Qf, a, b, starts = group
    lead, n = fams[0], len(fams)
    if not np.all(H[lead.one] == 1.0):
        raise ForwardError("bias form: the constant row is not 1 at every "
                           "token", index[0])
    # g_ij = (q_g . h_i)(k_g . h_j): (i, j) is open where either factor is 0
    g = np.zeros((2, H.shape[1])) if lead.gate is None else lead.gate @ H
    Q = np.vstack([Qf @ H, g[:1]])
    if np.all(Q == Q[:, :1]):
        Q = Q[:, :1]
    QH, gq = Q[:-1], Q[-1]
    KH, gk = lead.Kf @ H, g[1]
    if lead.gate is None and np.all(KH == KH[:, :1]):
        KH, gk = KH[:, :1], gk[:1]
    r, Tq = lead.Kf.shape[0], QH.shape[1]
    # z of member f at receiver i and sender j is Z[f, i, j]
    Z = (QH.reshape(n, r, Tq).transpose(0, 2, 1).reshape(n * Tq, r)
         @ KH).reshape(n, Tq, -1)
    shut, closed = gq != 0.0, gk != 0.0
    if shut.any() and closed.any():
        # a_m >= 0: each term peaks at its family's largest closed-pair z
        zmax = Z[:, shut][:, :, closed].reshape(n, -1).max(axis=1)
        zmax = np.repeat(zmax, np.diff(starts, append=a.size))
        top = np.maximum.reduceat(a * zmax + b, starts)
        gmax = np.outer(gq[shut], gk[closed]).max()
        bad = np.flatnonzero(~(top + gmax <= 0.0))
        if bad.size:
            raise ForwardError(f"a sender is neither open (gate 0) nor closed: "
                               f"pre-activation {top[bad[0]]:.6g} reaches the "
                               f"gate {-gmax:.6g}", index[bad[0]])
    is_open = ~(shut[:, None] & closed)
    F = np.zeros(is_open.shape)
    F[is_open] = sum(fam._plan(z[is_open]) for fam, z in zip(fams, Z))
    return F


# a part's array fields
PART_ARRAYS = ("a", "b", "c", "gate_rows", "gate_open", "offsets")


@dataclass(frozen=True)
class TokenPart:
    """One fitted 1-D ReLU sum that an MLP applies at each token, stored as
    its terms and evaluated once per token by prefix sums.  It stands for
    one hidden unit per term m, adding to row ``out``

        c_m relu(a_m h[inp] + b_m + sum_g o_gm (2 u_g - 1)(h[r_g] - u_g)),

    with b_m carried by the constant row ``one`` (``part_values`` checks
    that it is 1 at every token).  Gate g is the stream row
    r_g = ``gate_rows[g]``, its open value u_g = ``gate_open[g]`` (0 or 1)
    and its per-term offsets o_g = ``offsets[g]`` >= 0, so a 0/1 gate row at
    its other value takes o_gm off term m.  At a token where every gate row
    holds its open value the units add sum_m c_m relu(a_m h[inp] + b_m);
    any other token is closed, and ``part_values`` first checks that no
    term's pre-activation reaches 0 there and raises ForwardError
    otherwise, so the part gives exactly 0 at a closed token, as its units
    do, or stops.

    With a_m >= 0 and the terms in strictly increasing breakpoint order,
    the sums at the open tokens come from ``relu_approx.prefix_sum_eval``,
    made once per part, within the fit's ``relu_approx.float_error``.
    ``layer_norm``, ``describe``, ``shape_error`` and JSON read the part as
    the units it stands for (``units``), so |W1|, |W2|, the MLP width and
    the rows read and written are those of the dense MLP.  Frozen with
    read-only arrays, like a HeadFamily, so its evaluator and its shape
    check (once per stream dim) cannot go stale.
    """

    inp: int
    out: int
    one: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gate_rows: np.ndarray
    gate_open: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        _store_read_only(self, PART_ARRAYS)

    def __repr__(self) -> str:
        return (f"TokenPart(terms={self.n_terms}, inp={self.inp}, "
                f"out={self.out}, gates={self.gate_rows.tolist()})")

    @property
    def n_terms(self) -> int:
        return len(self.c)

    def units(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted stream rows the part's units read, and the units'
        (n_terms, len(rows)) block of W1 on them: a_m at ``inp``,
        b_m - sum_g u_g o_gm at ``one`` and (2 u_g - 1) o_gm at r_g.  W2
        holds c_m at row ``out``."""
        rows = np.unique(np.r_[self.inp, self.one, self.gate_rows]).astype(int)
        W = np.zeros((self.n_terms, rows.size))
        at = {r: i for i, r in enumerate(rows.tolist())}
        W[:, at[self.inp]] += self.a
        W[:, at[self.one]] += self.b
        for r, u, o in zip(self.gate_rows.tolist(), self.gate_open, self.offsets):
            W[:, at[r]] += (2.0 * u - 1.0) * o
            W[:, at[self.one]] -= u * o
        return rows, W

    @functools.cached_property
    def _plan(self):
        """The prefix-sum evaluator of the part's ReLU sum."""
        return prefix_sum_eval(self.a, self.b, self.c)

    @functools.cached_property
    def _errors(self) -> dict[int, str | None]:
        """``_part_error`` per stream dim, filled in by ``shape_error``."""
        return {}


def token_part(fit: ReluSum, inp: int, out: int, one: int,
               gates: list[tuple[int, float, np.ndarray | float]] = ()
               ) -> TokenPart:
    """The part that adds the 1-D sum ``fit`` of row ``inp`` to row ``out``
    where every gate (row, open value, offsets) of ``gates`` is open (see
    TokenPart); a scalar offset applies to every term."""
    offsets = np.zeros((len(gates), fit.n_terms))
    for g, (_, _, o) in enumerate(gates):
        offsets[g] = o
    return TokenPart(inp, out, one, fit.a[:, 0], fit.b, fit.c,
                     np.array([g[0] for g in gates], dtype=int),
                     np.array([g[1] for g in gates], dtype=float), offsets)


def part_values(part: TokenPart, H: np.ndarray) -> np.ndarray:
    """The part's sum at every token, exactly 0 at the closed ones (see
    TokenPart): a (T,) row."""
    if not np.all(H[part.one] == 1.0):
        raise ForwardError("bias form: the constant row is not 1 at every token")
    x = H[part.inp]
    # each gate's (2 u - 1)(h[r] - u): 0 where it is open, -1 where a 0/1
    # row closes it
    u = part.gate_open[:, None]
    push = (2.0 * u - 1.0) * (H[part.gate_rows] - u)
    if not np.all(np.isfinite(push)):
        raise ForwardError("a gate row is not finite")
    closed = np.any(push != 0.0, axis=0)
    if closed.any():
        for p in np.unique(push[:, closed], axis=1).T:
            # a_m >= 0: a term's pre-activation grows with x, so the largest
            # x of the tokens this push closes gives each term's largest
            at = closed & np.all(push == p[:, None], axis=0)
            top = float(np.max(part.a * x[at].max() + part.b + p @ part.offsets))
            if not top <= 0.0:
                raise ForwardError(
                    f"a token is neither open nor closed: a term's "
                    f"pre-activation reaches {top:.6g} past its gates")
    values = np.zeros(H.shape[1])
    values[~closed] = part._plan(x[~closed])
    return values


@dataclass(frozen=True)
class TransformerLayer:
    """Plain heads, head families, the MLP (W1, W2) and the MLP's per-token
    parts of one layer; the parts' hidden units follow W1's.  Frozen, with
    read-only W1 and W2 and its heads, families and parts stored as tuples,
    so that a layer kept at several positions stays the same at each."""

    heads: tuple[AttentionHead, ...]
    W1: np.ndarray
    W2: np.ndarray
    families: tuple[HeadFamily, ...] = ()
    parts: tuple[TokenPart, ...] = ()

    def __post_init__(self):
        self.__dict__["heads"] = tuple(self.heads)
        self.__dict__["families"] = tuple(self.families)
        self.__dict__["parts"] = tuple(self.parts)
        _store_read_only(self, ("W1", "W2"))

    @functools.cached_property
    def _groups(self) -> tuple[tuple, ...]:
        """Each group's plan (see HeadFamily), groups in order of first
        member: their layer indices, the members, their Qf stacked, their a
        and b joined and where each member's terms start.  Families group
        by the content of ``one``, Kf, gate, V0, rows and cols."""
        groups: dict[tuple, list[int]] = {}
        for f, fam in enumerate(self.families):
            key = [None if x is None else (x.dtype.str, x.shape, x.tobytes())
                   for x in (fam.Kf, fam.gate, fam.V0, fam.rows, fam.cols)]
            groups.setdefault((fam.one, fam.Qf.shape, *key), []).append(f)
        out = []
        for index in groups.values():
            fams = tuple(self.families[f] for f in index)
            arrays = [np.concatenate([getattr(f, k) for f in fams])
                      for k in ("Qf", "a", "b")]
            starts = np.cumsum([0] + [f.n_terms for f in fams[:-1]])
            for arr in (*arrays, starts):
                arr.setflags(write=False)
            out.append((tuple(index), fams, *arrays, starts))
        return tuple(out)

    def __repr__(self) -> str:
        terms = sum(f.n_terms for f in self.families)
        units = sum(p.n_terms for p in self.parts)
        return (f"TransformerLayer(heads={len(self.heads)}, "
                f"families={len(self.families)} ({terms} heads), "
                f"W1={self.W1.shape}, W2={self.W2.shape}, "
                f"parts={len(self.parts)} ({units} units))")


def n_heads(layer: TransformerLayer) -> int:
    """Plain heads plus family terms."""
    return len(layer.heads) + sum(f.n_terms for f in layer.families)


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
    ``out``."""

    fit: ReluSum
    ins: list[int] | slice
    out: int


def relu_sum_mlp(dim: int, one: int, parts: list[MlpPart]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(W1, W2) of the MLP that adds each part's ReLU sum to its output row:
    one hidden unit c_m relu(a_m . h[ins] + b_m) per term m of each part, in
    part order, with b_m carried by the constant row ``one``.  The builders
    write the exact sums (zeroing and copy pairs) and the multivariate
    projection fits so; a fitted 1-D sum is a TokenPart."""
    n = sum(part.fit.n_terms for part in parts)
    W1 = np.zeros((n, dim))
    W2 = np.zeros((dim, n))
    start = 0
    for fit, ins, out in parts:
        units = slice(start, start + fit.n_terms)
        W1[units, ins] = fit.a
        W1[units, one] = fit.b
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


def attn_forward(layer: TransformerLayer, tm: TokenMatrix) -> TokenMatrix:
    """Apply the attention half of a layer.

    out_i = h_i + (1/T) sum_j sum_m relu(<Q_m h_i, K_m h_j>) V_m h_j

    A head whose Q h_i is the same at every receiver (a state every token
    carries) is scored once for all of them, so that every receiver gets
    the same sum.  Families are scored one group at a time (see
    HeadFamily), the members' scores summed before the group's one value
    product; a ForwardError names the first failing family.
    """
    H = tm.data
    D, T = H.shape
    acc = H.copy()
    for head in layer.heads:
        QH = head.Q @ H
        if np.all(QH == QH[:, :1]):
            QH = QH[:, :1]
        scores = QH.T @ (head.K @ H)
        np.maximum(scores, 0.0, out=scores)
        acc[head.rows] += (head.V @ H[head.cols]) @ scores.T / T
    failed = []
    for group in layer._groups:
        try:
            F = _group_scores(group, H)
        except ForwardError as e:
            failed.append(e)
            continue
        # a (1, T) F is every receiver's row and broadcasts; a (T, 1) F is
        # every sender's column, so the senders' values are summed first
        lead = group[1][0]
        VH = lead.V0 @ H[lead.cols]
        if F.shape[1] == 1:
            VH = VH.sum(axis=1, keepdims=True)
        acc[lead.rows] += VH @ F.T / T
    if failed:
        raise min(failed, key=lambda e: e.family)
    if not np.all(np.isfinite(acc)):
        raise ForwardError("non-finite value in attention output")
    return TokenMatrix(acc, tm.layout, tm.n_source, tm.n_target)


def mlp_forward(layer: TransformerLayer, tm: TokenMatrix) -> TokenMatrix:
    """Apply the MLP half of a layer: out_i = h_i + W2 relu(W1 h_i) plus each
    part's sum at token i (``part_values``)."""
    H = tm.data
    out = H + layer.W2 @ np.maximum(layer.W1 @ H, 0.0)
    for p, part in enumerate(layer.parts):
        try:
            out[part.out] += part_values(part, H)
        except ForwardError as e:
            raise ForwardError(f"part {p}: {e}") from e
    if not np.all(np.isfinite(out)):
        raise ForwardError("non-finite value in MLP output")
    return TokenMatrix(out, tm.layout, tm.n_source, tm.n_target)


def shape_error(layer: TransformerLayer, D: int) -> str | None:
    """Why the layer's weights do not fit stream dim D, or None if they do:
    every head's Q and K must be (r, D) with one r, its rows and cols
    distinct integer indices below D and V (len(rows), len(cols)), and W1 and
    W2 (h, D) and (D, h); the error names the first bad head.  Each family
    and part must have nonnegative slopes a_m in strictly increasing
    breakpoint order and a, b and c of one length.  A family needs Qf and
    Kf of one shape (r, D), a gate None or (2, D), ``one`` a row below D,
    rows and cols as a head's and V0 (len(rows), len(cols)); a part needs
    ``inp``, ``out``, ``one`` and its gate rows below D, an open value of 0
    or 1 per gate row and offsets >= 0 of shape (gates, terms)."""
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
    for kind, units, check in (("family", layer.families, _family_error),
                               ("part", layer.parts, _part_error)):
        for i, unit in enumerate(units):
            if D not in unit._errors:
                unit._errors[D] = check(unit, D)
            if unit._errors[D] is not None:
                return f"{kind} {i}: {unit._errors[D]}"
    if (layer.W1.ndim != 2 or layer.W1.shape[1] != D
            or layer.W2.shape != layer.W1.shape[::-1]):
        return f"W1 {layer.W1.shape} and W2 {layer.W2.shape} do not fit dim {D}"
    return None


def _index_error(name: str, idx: np.ndarray, D: int) -> str | None:
    if (idx.ndim != 1 or idx.dtype.kind not in "iu"
            or np.unique(idx).size != idx.size or np.any((idx < 0) | (idx >= D))):
        return f"{name} {idx.tolist()} repeat or leave rows 0..{D - 1}"
    return None


def _terms_error(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> str | None:
    """Why terms (a, b, c) cannot be summed by prefix sums, or None."""
    if a.ndim != 1 or a.shape != b.shape or a.shape != c.shape or a.size == 0:
        return f"a, b and c have shapes {a.shape}, {b.shape} and {c.shape}"
    if not np.all(a >= 0):
        return "negative slope a_m"
    if not np.all(np.diff(breakpoints(a, b)) > 0):
        return "breakpoints -b_m / a_m are not strictly increasing"
    return None


def _row_error(name: str, row, D: int) -> str | None:
    if (not isinstance(row, (int, np.integer)) or isinstance(row, bool)
            or not 0 <= row < D):
        return f"{name} {row!r} is not a row of 0..{D - 1}"
    return None


def _family_error(fam: HeadFamily, D: int) -> str | None:
    """Why a family cannot run on stream dim D, or None (see shape_error)."""
    err = _terms_error(fam.a, fam.b, fam.c)
    if err is not None:
        return err
    if fam.Qf.ndim != 2 or fam.Qf.shape[1] != D or fam.Kf.shape != fam.Qf.shape:
        return f"Qf {fam.Qf.shape} and Kf {fam.Kf.shape} are not one (r, {D})"
    if fam.gate is not None and fam.gate.shape != (2, D):
        return f"gate {fam.gate.shape} is not (2, {D})"
    err = _row_error("one", fam.one, D)
    if err is not None:
        return err
    for name in ("rows", "cols"):
        err = _index_error(name, getattr(fam, name), D)
        if err is not None:
            return err
    if fam.V0.shape != (fam.rows.size, fam.cols.size):
        return f"V0 {fam.V0.shape} does not fit rows {fam.rows.size} x cols {fam.cols.size}"
    return None


def _part_error(part: TokenPart, D: int) -> str | None:
    """Why a part cannot run on stream dim D, or None (see shape_error)."""
    err = _terms_error(part.a, part.b, part.c)
    for name in ("inp", "out", "one"):
        err = err or _row_error(name, getattr(part, name), D)
    if err is not None:
        return err
    g, u = part.gate_rows, part.gate_open
    if (g.ndim != 1 or g.dtype.kind not in "iu" or np.any((g < 0) | (g >= D))):
        return f"gate rows {g.tolist()} leave rows 0..{D - 1}"
    if u.shape != g.shape or not np.all((u == 0.0) | (u == 1.0)):
        return f"open values {u.tolist()} are not a 0 or 1 per gate row"
    if part.offsets.shape != (g.size, part.n_terms) or np.any(part.offsets < 0):
        return (f"offsets {part.offsets.shape} are not (gates, terms) = "
                f"({g.size}, {part.n_terms}) values >= 0")
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
    over every head of the layer, family heads included, and the dense MLP,
    parts' units included (``_mlp_blocks``).

    A family's norms come from its ridge form (see HeadFamily), without
    building its heads: |Q_m| from the Grams of its terms (``_q_candidates``),
    one K for all its heads, and |c_m V0| = |c_m| |V0|, which for the
    diagonal V0 the builders emit is the SVD of c_m V0 bit for bit.  The
    layer's norms are taken in one call per matrix shape (``_by_shape``), and
    the V norms are summed left to right in head order (the families'
    heads, then the plain heads), so the result does not depend on the
    batching."""
    fams, heads = layer.families, layer.heads
    maps = [f._maps() for f in fams]
    queries = _q_candidates(maps) + [h.Q[None] for h in heads]
    keys = [K[None] for _, K, _ in maps] + [h.K[None] for h in heads]
    qk = [0.0] + [n.max() for n in _by_shape(_stack_norms, queries + keys)]
    values = _by_shape(_stack_norms, [f.V0[None] for f in fams]
                       + [h.V[None] for h in heads])
    v = np.concatenate([np.zeros(0)]
                       + [np.abs(f.c) * n for f, n in zip(fams, values)]
                       + values[len(fams):])
    vsum = float(np.cumsum(v)[-1]) if v.size else 0.0
    _, W1, _, W2 = _mlp_blocks(layer)
    return float(max(qk)) + vsum + operator_norm(W1) + operator_norm(W2)


def _mlp_blocks(layer: TransformerLayer
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layer's MLP as one dense (W1, W2), W1's units then each part's
    (``TokenPart.units``), cut to the stream rows it may read and write:
    (read, W1[:, read], written, W2[written]).  The rows left out are zero
    in the dense matrices, so the norms are the same."""
    units = [p.units() for p in layer.parts]
    read = np.unique(np.concatenate(
        [np.flatnonzero(np.any(layer.W1, axis=0))] + [r for r, _ in units]))
    written = np.unique(np.r_[np.flatnonzero(np.any(layer.W2, axis=1)),
                              [p.out for p in layer.parts]]).astype(int)
    h = layer.W1.shape[0]
    n = h + sum(p.n_terms for p in layer.parts)
    W1 = np.zeros((n, read.size))
    W2 = np.zeros((written.size, n))
    W1[:h] = layer.W1[:, read]
    W2[:, :h] = layer.W2[written]
    for part, (rows, block) in zip(layer.parts, units):
        W1[h : h + part.n_terms, np.searchsorted(read, rows)] = block
        W2[np.searchsorted(written, part.out), h : h + part.n_terms] = part.c
        h += part.n_terms
    return read, W1, written, W2


def _q_candidates(maps: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """The Q_m of the terms of each family that may have its largest |Q_m|.

    Q_m = S_m R (``HeadFamily._maps``, S_m as a diagonal), so |Q_m|^2 is
    the top eigenvalue of S_m (R R^T) S_m: an eigvalsh of small Grams.
    That agrees with the SVD of Q_m to a few ulps, so every term within
    1e-9 of its family's top is kept, and the SVD of those gives the
    family's max |Q_m| bit for bit."""
    tops = _by_shape(lambda G: np.linalg.eigvalsh(G)[:, -1],
                     [S[:, :, None] * (R @ R.T) * S[:, None, :] for R, _, S in maps])
    out = []
    for (R, _, S), top in zip(maps, tops):
        q = np.sqrt(np.maximum(top, 0.0))
        out.append(S[q >= q.max() * (1.0 - 1e-9), :, None] * R)
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
    """A layer's head count, MLP width (its parts' units included), norm
    and the slots it reads and writes."""
    read = np.zeros(layout.dim, dtype=bool)
    written = np.zeros(layout.dim, dtype=bool)
    rows_in, W1, rows_out, W2 = _mlp_blocks(layer)
    read[rows_in[np.any(W1, axis=0)]] = True
    written[rows_out[np.any(W2, axis=1)]] = True
    for head in layer.heads:
        read |= np.any(head.Q, axis=0) | np.any(head.K, axis=0)
        read[head.cols[np.any(head.V, axis=0)]] = True
        written[head.rows[np.any(head.V, axis=1)]] = True
    for fam in layer.families:
        _family_marks(fam, read, written)
    return {
        "heads": n_heads(layer),
        "mlp_hidden": len(W1),
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
                "parts": [
                    {**{k: getattr(p, k).tolist() for k in PART_ARRAYS},
                     **{k: int(getattr(p, k)) for k in ("inp", "out", "one")}}
                    for p in layer.parts
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
    """Field ``key`` of a head, family, part or layer read from JSON: an
    array of finite numbers (as floats), or of integers if ``index``.
    to_json writes an array whose first axis is empty as [], which np.array
    reads as a float (0,): [] gets back the shape (0, *rest), and an index
    array the integer (0,).  A ragged list, booleans, strings or a non-finite number
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
    parts = []
    for p, q in enumerate(_field(lobj, "parts", where, list)):
        at = f"{where} part {p}"
        a, b, c = (_load(q, k, at) for k in "abc")
        parts.append(TokenPart(
            *(_field(q, k, at) for k in ("inp", "out", "one")), a, b, c,
            _load(q, "gate_rows", at, index=True), _load(q, "gate_open", at),
            _load(q, "offsets", at, c.size)))
    layer = TransformerLayer(heads, W1, W2, tuple(families), tuple(parts))
    err = shape_error(layer, D)
    if err is not None:
        raise LayoutError(f"{where} {err}")
    return layer


def from_json(s: str) -> Transformer:
    """Load a model written by to_json, with one layer object at every
    position that names it.  A missing or malformed field (a ragged,
    boolean, string or non-finite weight, a layout entry that is not
    [slot, start, stop], a readout slot outside the layout, a position that
    names no layer), a layout that is not contiguous from row 0, a weight
    whose shape does not fit it, a value block whose rows or cols repeat or
    leave it, or a family or part that cannot run (see shape_error) raises
    LayoutError naming the layer and field."""
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
