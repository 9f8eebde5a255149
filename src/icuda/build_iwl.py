"""Transformer weights that execute the ratio-weighted regression branch.

Layer plan: the feature layers (ReLU-attention fit of the RBF map), one
ratio layer kept at L1 positions (each position performs one exact gradient
step on the ratio coefficients), one regression layer kept at L2 positions
(each performs one weighted gradient step through a fitted gradient
surrogate), and an exact linear readout pair.  Cross-token bilinear products
(coefficient dot feature) come from attention scores, so the ratio layers
are exact; the only approximation errors are the feature fit and the
gradient surrogate, and both are measured.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import relu_approx as ra
from . import uda_ref as ur
from .datagen import DomainPair, encode_tokens
from .tfcore import (
    AttentionHead,
    HeadFamily,
    SlotLayout,
    TokenMatrix,
    Transformer,
    TransformerLayer,
    forward_trace,
    operator_norm,
    read_output,
)

if TYPE_CHECKING:
    from .build_select import IcudaBuildConfig


# terms of each multivariate feature fit, and the summed |value coefficient|
# a feature layer may carry
FEATURE_TERMS_ND = 700
FEATURE_LAYER_CAP = 4.0


def iwl_layout(d: int, J: int) -> SlotLayout:
    return SlotLayout.build([
        ("x", d), ("y", 1), ("t", 1), ("s", 1), ("one", 1),
        ("phi", J), ("alpha", J), ("wr", J), ("fout", 1),
    ])


# ---------------------------------------------------------------------------
# layer builders


def feature_heads(layout: SlotLayout, fits: list[ra.ReluSum]) -> list[HeadFamily]:
    """One HeadFamily per ridge part of each feature fit (``ra.ridge_parts``),
    with z_ij = d . x_i, read as d . x_i times the sender's constant row: the
    score depends only on the receiving token, and averaging the constant
    value column over senders leaves it unchanged."""
    D = layout.dim
    xs = layout.rows("x")
    one = layout.row("one")
    phi0 = layout.start("phi")
    out = []
    for j, rs in enumerate(fits):
        for d, alpha, b, c in ra.ridge_parts(rs):
            Qf = np.zeros((1, D))
            Kf = np.zeros((1, D))
            Qf[0, xs] = d
            Kf[0, one] = 1.0
            out.append(HeadFamily(Qf, Kf, one, None, alpha, b, c,
                                  np.ones((1, 1)), np.r_[phi0 + j], np.r_[one]))
    return out


def _term_slices(masses: np.ndarray, cap: float) -> list[tuple[int, int]]:
    """Consecutive [start, stop) runs of terms, each as long as it can be
    while its summed mass stays under cap (a term over cap runs alone)."""
    runs, start, mass = [], 0, 0.0
    for i, c in enumerate(masses.tolist()):
        if i > start and mass + c > cap:
            runs.append((start, i))
            start, mass = i, 0.0
        mass += c
    if start < len(masses):
        runs.append((start, len(masses)))
    return runs


def build_feature_layers(layout: SlotLayout, fmap: ur.RbfFeatureMap,
                         x_radius: float, cfg: IcudaBuildConfig):
    """Fit each feature component over the instance's coordinate box.

    The families' terms, in family order, are packed into as many layers as
    needed to keep each layer's summed value-coefficient mass |c_m| under
    FEATURE_LAYER_CAP; the feature slot writes are additive, so splitting
    layers does not change the computed values.  A family split between
    layers becomes one term slice per layer.
    """
    d = fmap.centers.shape[1]
    fits, errs = [], []
    for j in range(fmap.J):
        if d == 1:
            def comp(t, j=j):
                return fmap(np.atleast_1d(t)[:, None])[:, j]
            rs, rep = ra.fit_interval(comp, -x_radius, x_radius, cfg.feature_knots)
        else:
            def comp(P, j=j):
                return fmap(P)[:, j]
            rs, rep = ra.fit_nd(comp, d, x_radius, FEATURE_TERMS_ND,
                                seed=cfg.sel.seed + 7 * j)
        fits.append(rs)
        errs.append(rep.sup_error)
    families = feature_heads(layout, fits)
    # a family whose first term is term f0 of the packing order
    first = np.cumsum([0] + [f.n_terms for f in families])
    masses = np.abs(np.concatenate([f.c for f in families]))
    layers = []
    for start, stop in _term_slices(masses, FEATURE_LAYER_CAP):
        sliced = []
        for fam, f0 in zip(families, first):
            lo, hi = max(start - f0, 0), min(stop - f0, fam.n_terms)
            if lo < hi:
                sliced.append(dataclasses.replace(
                    fam, a=fam.a[lo:hi], b=fam.b[lo:hi], c=fam.c[lo:hi]))
        layers.append(TransformerLayer([], np.zeros((0, layout.dim)),
                                       np.zeros((layout.dim, 0)), tuple(sliced)))
    return layers, fits, np.array(errs)


def build_alpha_layer(layout: SlotLayout, n: int, n_prime: int, N: int,
                      eta1: float, lam: float, R_alpha: float) -> TransformerLayer:
    """One exact gradient step on the ratio coefficients (four heads).

    Heads 1 and 2 form relu(z) - relu(-z) = z on source-gated scores to apply
    the quadratic term, head 3 adds the target mean feature, head 4 applies
    ridge shrinkage through the train-token average of the coefficient slot.
    """
    D = layout.dim
    phi = layout.rows("phi")
    alpha = layout.rows("alpha")
    one = layout.row("one")
    t = layout.row("t")
    s = layout.row("s")
    J = phi.stop - phi.start
    heads = []
    for sign in (1.0, -1.0):
        Q = np.zeros((J + 1, D))
        Q[:J, alpha] = sign * np.eye(J)
        Q[J, one] = -R_alpha
        K = np.zeros((J + 1, D))
        K[:J, phi] = np.eye(J)
        K[J, one] = 1.0
        K[J, t] = -1.0
        V = np.diag([-sign * (N + 1) * eta1 / n] * J)
        heads.append(AttentionHead(Q, K, V, np.r_[alpha], np.r_[phi]))
    Q = np.zeros((1, D))
    Q[0, one] = 1.0
    K = np.zeros((1, D))
    K[0, s] = 1.0
    K[0, t] = -1.0
    V = np.diag([(N + 1) * eta1 / n_prime] * J)
    heads.append(AttentionHead(Q, K, V, np.r_[alpha], np.r_[phi]))
    Q = np.zeros((1, D))
    Q[0, one] = 1.0
    K = np.zeros((1, D))
    K[0, s] = 1.0
    V = np.diag([-(N + 1) * lam * eta1 / N] * J)
    heads.append(AttentionHead(Q, K, V, np.r_[alpha], np.r_[alpha]))
    return TransformerLayer(heads, np.zeros((0, D)), np.zeros((D, 0)))


def grad_surrogate(R_box: float, knots: int) -> ra.ReluSum:
    """Fitted weighted-gradient integrand g(s, y, u) = u (s - y).

    u s splits into ridge quadratics along the two diagonals; u y is exact for
    binary labels through a large-offset gate pair.  The certificate is the
    sum of the two one-dimensional quadratic fit errors.  The sum keeps its
    dictionary: ``ra.ridge_parts`` splits it into the p and q diagonals and
    the two u y directions.
    """
    sq, _ = ra.fit_1d(lambda r: r * r, R_box, knots)
    p_part = ra.lift(sq, np.array([0.5, 0.0, 0.5]), 3)
    q_raw = ra.lift(sq, np.array([0.5, 0.0, -0.5]), 3)
    q_part = dataclasses.replace(q_raw, c=-q_raw.c)
    G = max(R_box, 1.0)
    uy = ra.exact_terms([[0.0, G, 1.0], [0.0, G, -1.0]], [-G, -G], [-1.0, 1.0], 3)
    return ra.combine([p_part, q_part, uy], 3)


def build_w_layer(layout: SlotLayout, n: int, N: int, eta2: float,
                  grad_fit: ra.ReluSum, gate: float) -> TransformerLayer:
    """One weighted gradient step on the regression weights.

    Each ridge part (d_s, d_y, d_u) of ``grad_surrogate`` becomes one
    HeadFamily whose ridge variable rebuilds d . (s, y, u) (score s from the
    receiver's weights, label from the sender, ratio value from the
    receiver's coefficients) behind a source gate.
    """
    D = layout.dim
    phi = layout.rows("phi")
    alpha = layout.rows("alpha")
    wsl = layout.rows("wr")
    one = layout.row("one")
    ty = layout.row("y")
    t = layout.row("t")
    J = phi.stop - phi.start
    gate_q = np.zeros(D)
    gate_q[one] = -2.0
    gate_k = np.zeros(D)
    gate_k[one] = gate
    gate_k[t] = -gate
    families = []
    for (d_s, d_y, d_u), slope, b, c in ra.ridge_parts(grad_fit):
        Qf = np.zeros((2 * J + 1, D))
        Kf = np.zeros((2 * J + 1, D))
        Qf[:J, wsl] = d_s * np.eye(J)
        Kf[:J, phi] = np.eye(J)
        Qf[J, one] = d_y
        Kf[J, ty] = 1.0
        Qf[J + 1:, alpha] = d_u * np.eye(J)
        Kf[J + 1:, phi] = np.eye(J)
        families.append(HeadFamily(
            Qf, Kf, one, np.stack([gate_q, gate_k]), slope, b,
            -(N + 1) * c * eta2 / n, np.eye(J), np.r_[wsl], np.r_[phi]))
    return TransformerLayer([], np.zeros((0, D)), np.zeros((D, 0)),
                            tuple(families))


def build_readout_layer(layout: SlotLayout) -> TransformerLayer:
    """Writes the receiver's phi . w into the output slot via an exact
    relu(z) - relu(-z) pair."""
    D = layout.dim
    phi = layout.rows("phi")
    wsl = layout.rows("wr")
    out = layout.row("fout")
    one = layout.row("one")
    J = phi.stop - phi.start
    heads = []
    for sign in (1.0, -1.0):
        Q = np.zeros((J, D))
        Q[:, phi] = sign * np.eye(J)
        K = np.zeros((J, D))
        K[:, wsl] = np.eye(J)
        heads.append(AttentionHead(Q, K, np.array([[sign]]), np.r_[out], np.r_[one]))
    return TransformerLayer(heads, np.zeros((0, D)), np.zeros((D, 0)))


# ---------------------------------------------------------------------------
# ratio-only transformer (exactness checks)


def encode_ulsif(prob: ur.UlsifProblem, layout: SlotLayout) -> TokenMatrix:
    """Prompt with the feature slot pre-populated from the problem, so the
    ratio layers can be checked in isolation."""
    n, npr = prob.n, prob.n_prime
    T = n + npr + 1
    H = np.zeros((layout.dim, T))
    H[layout.rows("phi"), :n] = prob.phi_source.T
    H[layout.rows("phi"), n : n + npr] = prob.phi_target.T
    H[layout.row("t"), :n] = 1.0
    H[layout.row("s"), : n + npr] = 1.0
    H[layout.row("one"), :] = 1.0
    return TokenMatrix(H, layout, n_source=n, n_target=npr)


def build_alpha_transformer(prob: ur.UlsifProblem, eta1: float, L1: int,
                            R_alpha: float | None = None) -> Transformer:
    layout = iwl_layout(1, prob.J)
    if R_alpha is None:
        alphas = ur.ulsif_gd(prob, eta1, L1)
        R_alpha = max(2.0 * float(np.max(np.linalg.norm(alphas, axis=1))), 1.0)
    N = prob.n + prob.n_prime
    layer = build_alpha_layer(layout, prob.n, prob.n_prime, N, eta1, prob.lam, R_alpha)
    return Transformer([layer] * L1, layout, readout=("fout", None))


def alpha_trace_from_tf(tf: Transformer, tm: TokenMatrix) -> np.ndarray:
    """Ratio-coefficient iterates read off the query column, zero start first."""
    _, states = forward_trace(tf, tm)
    q = tm.query_index
    sl = tf.layout.rows("alpha")
    rows = [np.zeros(sl.stop - sl.start)]
    rows.extend(st.data[sl, q].copy() for st in states)
    return np.array(rows)


# ---------------------------------------------------------------------------
# full pipeline build and verification


@dataclass
class IwlBuild:
    tf: Transformer
    layout: SlotLayout
    fmap: ur.RbfFeatureMap
    feature_fits: list
    eps_phi: np.ndarray
    grad_fit: ra.ReluSum
    cfg: IcudaBuildConfig
    bounds: dict
    ref: dict


@dataclass
class IwlCertificate:
    eps_phi: np.ndarray
    eps_grad: float
    rho: float
    step_bound: float
    grad_term: float
    feat_term: float
    bound: float
    measured_vs_surrogate: float
    measured_vs_reference: float
    prediction_tf: float
    prediction_ref: float
    hypothesis_checks: dict


def build_iwl_transformer(pair: DomainPair, cfg: IcudaBuildConfig,
                          layout: SlotLayout | None = None) -> IwlBuild:
    """The ratio-weighted branch with the hyperparameters of ``cfg.sel`` and
    the knot counts ``cfg.feature_knots`` and ``cfg.grad_knots``, written on
    ``layout`` (by default its own ``iwl_layout``)."""
    s = cfg.sel
    # the oracle's run, which the layers replay
    _, ref = ur.iwl_pipeline(pair, s, pair.query_x[0])
    fmap, prob, alphas, W = ref["fmap"], ref["prob"], ref["alphas"], ref["W"]

    # gate scales from the reference trace, with headroom; containment is
    # re-checked at verification time
    B_alpha = max(2.0 * float(np.max(np.linalg.norm(alphas, axis=1))), 1.0)
    s_vals = prob.phi_source @ W.T
    u_vals = prob.phi_source @ alphas[-1]
    R_box = max(2.0 * float(np.max(np.abs(s_vals))),
                2.0 * float(np.max(np.abs(u_vals))), 1.0)
    all_x = np.concatenate([pair.source_x, pair.target_x, pair.query_x], axis=0)
    x_radius = 1.1 * float(np.max(np.abs(all_x))) + 0.1

    layout = layout or iwl_layout(pair.d, s.J)
    feat_layers, fits, eps_phi = build_feature_layers(layout, fmap, x_radius, cfg)
    grad_fit = grad_surrogate(R_box, cfg.grad_knots)
    N = pair.n + pair.n_prime
    gate_w = max(R_box, 1.0)
    alpha_layer = build_alpha_layer(layout, pair.n, pair.n_prime, N, s.eta1,
                                    s.lam, B_alpha)
    w_layer = build_w_layer(layout, pair.n, N, s.eta2, grad_fit, gate_w)
    layers = [*feat_layers, *[alpha_layer] * s.L1, *[w_layer] * s.L2,
              build_readout_layer(layout)]
    tf = Transformer(layers, layout, readout=("fout", None))
    bounds = {"B_alpha": B_alpha, "R_box": R_box, "x_radius": x_radius,
              "gate_w": gate_w}
    return IwlBuild(tf, layout, fmap, fits, eps_phi, grad_fit, cfg, bounds, ref)


SOUNDNESS_CHECKS = ("box_contained", "alpha_gate_ok")


def _surrogate_features(build: IwlBuild, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    return np.stack([ra.eval_batch(rs, X) for rs in build.feature_fits], axis=1)


def verify_iwl(build: IwlBuild, pair: DomainPair, query_index: int = 0) -> IwlCertificate:
    """Runs the transformer and certifies its prediction."""
    tm = encode_tokens(pair, build.layout, query_index)
    return certify_iwl(build, pair, read_output(build.tf, tm), query_index)


def certify_iwl(build: IwlBuild, pair: DomainPair, pred_tf: float,
                query_index: int = 0) -> IwlCertificate:
    """Error certificate for a realised prediction at the query token.

    The deviation from the reference splits into a rigorous part (the
    regression layers against the same pipeline run on the fitted features)
    and a directly measured feature part (fitted-feature pipeline against the
    true-feature pipeline).
    """
    s = build.cfg.sel
    # pipeline on fitted features (surrogate oracle)
    phi_s = _surrogate_features(build, pair.source_x)
    phi_t = _surrogate_features(build, pair.target_x)
    phi_q = _surrogate_features(build, pair.query_x[query_index : query_index + 1])[0]
    prob_b = ur.UlsifProblem(phi_s, phi_t, s.lam)
    alphas_b = ur.ulsif_gd(prob_b, s.eta1, s.L1)
    qhat_b = ur.ratio_values(alphas_b[-1], phi_s)
    W_b = ur.iwl_run(phi_s, pair.source_y, qhat_b, s.eta2, s.L2)
    pred_b = float(W_b[-1] @ phi_q)

    # pipeline on true features (the reference target)
    W_a = build.ref["W"]
    phi_q_true = build.fmap(pair.query_x[query_index : query_index + 1])[0]
    pred_a = float(W_a[-1] @ phi_q_true)

    eps_grad = build.grad_fit.sup_error
    H_b = phi_s.T @ (phi_s * qhat_b[:, None]) / pair.n
    rho = operator_norm(np.eye(s.J) - s.eta2 * H_b)
    B_phi = float(max(np.max(np.linalg.norm(phi_s, axis=1)), 1e-12))
    D = 0.0
    for _ in range(s.L2):
        D = rho * D + s.eta2 * eps_grad * B_phi
    grad_term = D * float(np.linalg.norm(phi_q)) + 1e-9
    feat_term = abs(pred_b - pred_a)
    bound = grad_term + feat_term

    s_vals = phi_s @ W_b.T
    u_vals = phi_s @ alphas_b[-1]
    R_box = build.bounds["R_box"]
    # box_contained and alpha_gate_ok underwrite the certificate (fit domain
    # and gate exactness); the remaining entries report the analysis
    # hypotheses, which are sufficient conditions, not load-bearing ones
    lam_max = float(np.max(np.linalg.eigvalsh((H_b + H_b.T) / 2)))
    wstar = None
    try:
        wstar = np.linalg.solve(H_b + 1e-12 * np.eye(s.J),
                                phi_s.T @ (qhat_b * pair.source_y) / pair.n)
    except np.linalg.LinAlgError:
        pass
    checks = {
        "rho": rho,
        "rho_le_1": bool(rho <= 1.0 + 1e-12),
        "box_contained": bool(np.max(np.abs(s_vals)) <= R_box
                              and np.max(np.abs(u_vals)) <= R_box),
        "alpha_gate_ok": bool(
            np.max(np.abs(np.concatenate([phi_s, phi_t]) @ alphas_b.T))
            <= build.bounds["B_alpha"]),
        "phi_norm_max": B_phi,
        "phi_norm_le_1": bool(B_phi <= 1.0 + float(np.sqrt(s.J)) * np.max(build.eps_phi)),
        "lam_max": lam_max,
        "curvature_le_half_eta2": bool(lam_max <= s.eta2 / 2),
        "wstar_norm": float(np.linalg.norm(wstar)) if wstar is not None else np.nan,
    }
    return IwlCertificate(
        eps_phi=build.eps_phi,
        eps_grad=eps_grad,
        rho=rho,
        step_bound=D,
        grad_term=grad_term,
        feat_term=feat_term,
        bound=bound,
        measured_vs_surrogate=abs(pred_tf - pred_b),
        measured_vs_reference=abs(pred_tf - pred_a),
        prediction_tf=pred_tf,
        prediction_ref=pred_a,
        hypothesis_checks=checks,
    )
