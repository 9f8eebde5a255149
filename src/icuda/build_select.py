"""Transformer weights for overlap scoring and branch selection.

Three layers sit on top of the two branch constructions: layer one scores
source density at every token (kernel attention in difference coordinates)
and exponentiates with the soft-min temperature, layer two sums the
exponentials over target tokens and takes the scaled negative log, layer
three blends the two branch predictions through a clipped linear indicator
and copies the result into the label row of the query token.

The exponential and logarithm use interpolants on nonuniform knot grids,
each applied at every token as a per-token part of its layer's MLP
(``tfcore.TokenPart``);
the log interpolant is monotone with a flat left tail, so even when the
exponential sum underflows its fit domain the overlap statistic saturates
at a known cap above the decision threshold and the routing stays certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import relu_approx as ra
from . import uda_ref as ur
from .build_dann import (
    _round_up,
    build_dann_transformer,
    certify_dann,
    dann_layout,
    encode_dann,
)
from .build_iwl import build_iwl_transformer, certify_iwl, iwl_layout
from .datagen import DomainPair
from .tfcore import (
    AttentionHead,
    HeadFamily,
    SlotLayout,
    TokenMatrix,
    Transformer,
    TransformerLayer,
    compose,
    forward_trace,
    query_copy,
    relu_sum_mlp,
    token_part,
    union_layout,
)

SELECT_SLOTS = [("p_kde", 1), ("e_soft", 1), ("e_sum", 1), ("q_soft", 1), ("blend", 1)]


# ---------------------------------------------------------------------------
# fitted pieces


def kernel_diff_fit(d: int, h: float, B_x: float, knots: int,
                    seed: int = 0) -> tuple[ra.ReluSum, ra.FitReport]:
    """Gaussian bump in difference coordinates on the box of displacements."""
    R = 2.0 * B_x + 1e-6

    def g1(t):
        return np.exp(-np.asarray(t, dtype=float) ** 2 / (2.0 * h * h))

    if d == 1:
        return ra.fit_1d(g1, R, knots)
    if d in (2, 3):
        def gd(P):
            return np.exp(-np.sum(P * P, axis=1) / (2.0 * h * h))
        return ra.fit_nd(gd, d, R, knots, seed=seed)
    raise ValueError("kernel fits support point dimension 1, 2, or 3")


def exp_knot_grid(beta: float, lo: float, hi: float, M: int,
                  tail: int = 33) -> np.ndarray:
    """Knots for exp(-beta p) on [lo, hi], dense where the function is steep.

    Uniform in z = exp(-beta p / 2) the interpolation error per piece is
    (dz)^2 / 2; past the point where z collapses the function is below any
    tolerance and a sparse linear tail suffices.
    """
    if beta <= 0:
        return np.linspace(lo, hi, max(tail, 8))
    z_hi = np.exp(-beta * lo / 2.0)
    z_lo = max(np.exp(-beta * hi / 2.0), z_hi * 1e-7)
    z = np.linspace(z_lo, z_hi, M)
    knots = np.sort(-(2.0 / beta) * np.log(z))
    knots[0] = lo
    if knots[-1] < hi - 1e-12:
        knots = np.concatenate([knots, np.linspace(knots[-1], hi, tail)[1:]])
    knots[-1] = hi
    keep = np.concatenate([[True], np.diff(knots) > 1e-15])
    return knots[keep]


def log_knot_grid(s_lo: float, s_hi: float, M: int) -> np.ndarray:
    """Geometric knots: relative spacing, so the log error is uniform."""
    if s_lo <= 0 or s_hi <= s_lo:
        raise ValueError("need 0 < s_lo < s_hi")
    return np.geomspace(s_lo, s_hi, M)


# ---------------------------------------------------------------------------
# half-layer builders


def build_kde_attn(kernel_fit: ra.ReluSum, layout: SlotLayout, n: int, T: int,
                   B_x: float) -> tuple[HeadFamily, ...]:
    """Head families writing the mean source-kernel mass at every receiving
    token: one per ridge part of the kernel fit (``ra.ridge_parts``), with
    z_ij = d . x_i - d . x_j over two Q/K rows.  A source gate shifts the
    score out of range for non-source senders.
    """
    D = layout.dim
    xs = layout.rows("x")
    one = layout.row("one")
    t_r = layout.row("t")
    G = 2.0 * max(B_x, 1.0) + 1.0
    gate = np.zeros((2, D))
    gate[0, one] = -G
    gate[1, one] = 1.0
    gate[1, t_r] = -1.0
    families = []
    for d, alpha, b, c in ra.ridge_parts(kernel_fit):
        Qf = np.zeros((2, D))
        Kf = np.zeros((2, D))
        Qf[0, xs] = d
        Kf[0, one] = 1.0
        Qf[1, one] = 1.0
        Kf[1, xs] = -d
        families.append(HeadFamily(Qf, Kf, one, gate, alpha, b, c * T / n,
                                   np.ones((1, 1)), np.r_[layout.row("p_kde")],
                                   np.r_[one]))
    return tuple(families)


def build_sum_attn(layout: SlotLayout, T: int) -> list[AttentionHead]:
    """Exact sum of the exponentials over target training tokens.

    The gate score s_j - t_j is already 0 or 1, so a single linear head sums
    with no approximation error.
    """
    D = layout.dim
    Q = np.zeros((1, D))
    K = np.zeros((1, D))
    Q[0, layout.row("one")] = 1.0
    K[0, layout.row("s")] = 1.0
    K[0, layout.row("t")] = -1.0
    return [AttentionHead(Q, K, np.array([[float(T)]]),
                          np.r_[layout.row("e_sum")], np.r_[layout.row("e_soft")])]


def build_select_attn(layout: SlotLayout, delta: float, a: float, G: float,
                      T: int, fiwl_name: str, fdann_name: str) -> list[AttentionHead]:
    """Blend the branch predictions with the clipped linear indicator.

    relu(z + 1/2) - relu(z - 1/2) at z = a (q - delta) weights the ratio
    branch; the mirrored pair weights the adversarial branch; a sender gate
    admits only the query token, whose slots hold the branch outputs.
    """
    D = layout.dim
    one = layout.row("one")
    q_r = layout.row("q_soft")
    sel = layout.row("blend")
    heads = []
    for src_row, a_sign in ((layout.row(fiwl_name), 1.0),
                            (layout.row(fdann_name), -1.0)):
        for off, v_sign in ((0.5, 1.0), (-0.5, -1.0)):
            Q = np.zeros((2, D))
            K = np.zeros((2, D))
            Q[0, q_r] = a_sign * a
            Q[0, one] = -a_sign * a * delta + off
            K[0, one] = 1.0
            Q[1, one] = -G
            K[1, layout.row("s")] = 1.0
            K[1, layout.row("t")] = 1.0
            heads.append(AttentionHead(Q, K, np.array([[v_sign * T]]),
                                       np.r_[sel], np.r_[src_row]))
    return heads


# ---------------------------------------------------------------------------
# composition


@dataclass
class IcudaBuildConfig:
    """The one table of build settings for the composed model and for
    either branch built alone: ``build_iwl_transformer``,
    ``build_dann_transformer`` and ``build_icuda_transformer`` all take it.

    ``sel`` holds the algorithm's hyperparameters and ``a`` the selector's
    indicator sharpness; both come from a config's ``hyper``.  Every other
    field is a build knob (BUILD_KNOBS): the knot or term count of one
    fitted part, named as the part's builder names it and read by that
    builder wherever the part is built, alone or in the composed model.

    - selector: ``kernel_knots`` (source-density kernel), ``exp_knots``
      (soft-min exponential), ``log_knots`` (its logarithm);
    - IWL: ``feature_knots`` (each RBF feature), ``grad_knots`` (the
      weighted-gradient surrogate's quadratic);
    - DANN: ``r_knots`` (activation), ``gl_knots`` (loss gradient),
      ``p_terms`` (the 2-D product fit's terms).
    """

    sel: ur.SelectorConfig = field(default_factory=ur.SelectorConfig)
    a: float = 100.0
    kernel_knots: int = 2500
    exp_knots: int = 3500
    log_knots: int = 3000
    feature_knots: int = 400
    grad_knots: int = 160
    r_knots: int = 600
    gl_knots: int = 700
    p_terms: int = 520


BUILD_KNOBS = tuple(f.name for f in fields(IcudaBuildConfig)
                    if f.name not in ("sel", "a"))


@dataclass
class IcudaBuild:
    tf: Transformer
    layout: SlotLayout
    cfg: IcudaBuildConfig
    iwl: object
    dann: object
    fits: dict
    consts: dict


@dataclass
class SelectionReport:
    q_tf: float
    q_oracle: float
    q_lo: float
    q_hi: float
    delta: float
    a: float
    choice_tf: str
    choice_oracle: str
    agreement: bool
    margin_certified: bool
    in_log_domain: bool
    blend_weight: float
    prediction_tf: float
    prediction_oracle: float
    branch_gap: float
    branch_bound: float
    within_branch_bound: bool
    eps: dict
    checks: dict
    iwl_certificate: object
    dann_certificate: object


def build_icuda_transformer(pair: DomainPair, cfg: IcudaBuildConfig) -> IcudaBuild:
    """Both branches and the selector's three layers, every part written on
    one layout: the branches' layouts and SELECT_SLOTS, joined by
    ``union_layout``."""
    s = cfg.sel
    layout = union_layout([iwl_layout(pair.d, s.J), dann_layout(pair.d, s.K),
                           SlotLayout.build(SELECT_SLOTS)])
    iwl_build = build_iwl_transformer(pair, cfg, layout)
    dann_build = build_dann_transformer(pair, cfg, layout)

    h = s.kde_h if s.kde_h is not None else ur.median_bandwidth(pair.source_x)
    all_x = np.concatenate([pair.source_x, pair.target_x, pair.query_x], axis=0)
    B_x = float(np.max(np.abs(all_x)))
    T = pair.n + pair.n_prime + 1

    kernel_fit, krep = kernel_diff_fit(pair.d, h, B_x, cfg.kernel_knots, s.seed)
    eps1 = kernel_fit.sup_error
    exp_lo = -(4.0 * eps1 + 1e-4)
    exp_hi = 1.0 + 4.0 * eps1 + 1e-4
    exp_fit, erep = ra.fit_knots(
        lambda p: np.exp(-s.beta * np.asarray(p, dtype=float)),
        exp_knot_grid(s.beta, exp_lo, exp_hi, cfg.exp_knots))
    eps2 = exp_fit.sup_error

    # the flat left tail of the log interpolant caps q at -log(s_floor)/beta;
    # the floor must stay below any reachable sum yet keep that cap above the
    # routing threshold, and high enough that the interpolant's slopes do not
    # wreck float accumulation
    s_floor = max(
        min(np.exp(-s.beta * (s.delta + 0.5 / cfg.a + 0.02)),
            0.5 * pair.n_prime * np.exp(-s.beta * exp_hi)),
        1e-8)
    S_hi = pair.n_prime * (np.exp(-s.beta * exp_lo) + eps2) + 1.0
    log_fit, lrep = ra.fit_knots(
        np.log, log_knot_grid(float(s_floor), float(S_hi), cfg.log_knots))
    eps4 = log_fit.sup_error
    knot_vals = np.log(lrep.breakpoints)
    if np.any(np.diff(knot_vals) < 0):
        raise RuntimeError("log interpolant lost monotonicity")

    q_cap = -float(np.log(s_floor)) / s.beta
    q_abs = max(q_cap, abs(-np.log(S_hi) / s.beta)) + eps4 / s.beta + 0.01
    G_sel = cfg.a * (q_abs + s.delta) + 1.0
    f_iwl_all = iwl_build.fmap(pair.query_x) @ iwl_build.ref["W"][-1]
    f_dann_all = ur.dann_predict(dann_build.ref_trace[-1], pair.query_x,
                                 s.activation)
    G_copy = _round_up(max(float(np.max(np.abs(f_iwl_all))),
                           float(np.max(np.abs(f_dann_all)))) + 2.0)

    D, one, row = layout.dim, layout.row("one"), layout.row
    no_units = relu_sum_mlp(D, one, [])
    kde_families = build_kde_attn(kernel_fit, layout, pair.n, T, B_x)
    exp_part = token_part(exp_fit, row("p_kde"), row("e_soft"), one)
    sum_heads = build_sum_attn(layout, T)
    # q = -(1/beta) log of the exponential sum, via the monotone interpolant
    q_fit = ra.ReluSum(log_fit.a, log_fit.b, log_fit.c / -s.beta, input_dim=1,
                       sup_error=eps4 / s.beta)
    log_part = token_part(q_fit, row("e_sum"), row("q_soft"), one)
    sel_heads = build_select_attn(layout, s.delta, cfg.a, G_sel, T,
                                  "fout", "fdann")
    W1c, W2c = relu_sum_mlp(D, one, [query_copy(layout, G_copy, "blend", "y")])

    select = Transformer([TransformerLayer([], *no_units, kde_families, (exp_part,)),
                          TransformerLayer(sum_heads, *no_units, (), (log_part,)),
                          TransformerLayer(sel_heads, W1c, W2c)],
                         layout, readout=("y", None))
    tf = compose([iwl_build.tf, dann_build.tf, select])

    fits = {"kernel": kernel_fit, "exp": exp_fit, "log": log_fit,
            "reports": {"kernel": krep, "exp": erep, "log": lrep}}
    consts = {"h": h, "B_x": B_x, "T": T, "eps1": eps1, "eps2": eps2,
              "eps4": eps4, "s_floor": float(s_floor), "S_hi": float(S_hi),
              "exp_lo": exp_lo, "exp_hi": exp_hi, "q_cap": q_cap,
              "G_sel": G_sel, "G_copy": G_copy,
              "f_iwl_ref": float(f_iwl_all[0]),
              "f_dann_ref": float(f_dann_all[0])}
    return IcudaBuild(tf, layout, cfg, iwl_build, dann_build, fits, consts)


def encode_icuda(pair: DomainPair, build: IcudaBuild,
                 query_index: int = 0) -> TokenMatrix:
    """The prompt, with the alignment branch's initial state at its rows."""
    return encode_dann(pair, build.layout, build.dann.state0, query_index)


def verify_icuda(build: IcudaBuild, pair: DomainPair,
                 query_index: int = 0) -> SelectionReport:
    """Runs the composed transformer once and certifies routing and prediction.

    Both branch certificates come from this one forward: the ratio branch's
    from its output slot at the query token, the alignment branch's from the
    streams after its layers, on the layout both branches share.  The
    overlap statistic gets a rigorous bracket from the oracle densities plus
    the kernel and exponential fit errors, pushed through the monotone log
    interpolant; a bracket clear of the indicator band makes the blend
    weight exactly 0 or 1, reducing the composed error to the chosen
    branch's own certificate.
    """
    cfg = build.cfg
    s = cfg.sel
    layout = build.layout
    C = build.consts
    tm = encode_icuda(pair, build, query_index)
    out, trace = forward_trace(build.tf, tm)
    q_col = tm.query_index

    res = ur.icuda_predict(pair, s, query_index)

    # per-stage stream checks against their oracles
    all_x = np.concatenate([pair.source_x, pair.target_x,
                            pair.query_x[query_index : query_index + 1]], axis=0)
    p_oracle = ur.kde_eval(pair.source_x, all_x, C["h"])
    p_hat = out.data[layout.row("p_kde"), :]
    p_err = float(np.max(np.abs(p_hat - p_oracle)))
    p_in_dom = bool(np.min(p_hat) >= C["exp_lo"] and np.max(p_hat) <= C["exp_hi"])
    e_hat = out.data[layout.row("e_soft"), :]
    e_err = float(np.max(np.abs(e_hat - np.exp(-s.beta * p_hat))))
    S_hat = float(out.data[layout.row("e_sum"), q_col])
    sum_err = abs(S_hat - float(np.sum(e_hat[pair.n : pair.n + pair.n_prime])))
    q_tf = float(out.data[layout.row("q_soft"), q_col])
    q_direct = -build.fits["log"]([S_hat]) / s.beta
    q_err = abs(q_tf - q_direct)

    # rigorous overlap bracket from the oracle densities at target tokens,
    # pushed through the monotone log interpolant (valid on all of R thanks
    # to the flat left tail).  The sum bracket widens by sum_err plus the
    # float bounds of numpy's sums of e_hat and of the bracket; q widens by
    # the log fit's float bound at S_hat (the forward) and at the bracket end.
    log_fit = build.fits["log"]
    p_t = p_oracle[pair.n : pair.n + pair.n_prime]
    e_up = np.exp(-s.beta * (p_t - C["eps1"])) + C["eps2"]
    e_dn = np.exp(-s.beta * (p_t + C["eps1"])) - C["eps2"]
    g = ra.gamma(2 * pair.n_prime)
    S_up = float(np.sum(e_up)) + sum_err + g * float(np.sum(np.abs(e_up)))
    S_dn = float(np.sum(e_dn)) - sum_err - g * float(np.sum(np.abs(e_dn)))
    fl_hat = ra.float_error(log_fit, [S_hat])
    q_lo = -(log_fit([S_up]) + fl_hat + ra.float_error(log_fit, [S_up])) / s.beta
    q_hi = -(log_fit([S_dn]) - fl_hat - ra.float_error(log_fit, [S_dn])) / s.beta
    band = 0.5 / cfg.a

    if q_lo >= s.delta + band:
        choice_tf = "iwl"
        margin_certified = True
    elif q_hi <= s.delta - band:
        choice_tf = "dann"
        margin_certified = True
    else:
        choice_tf = "iwl" if q_tf > s.delta else "dann"
        margin_certified = False
    blend = float(np.clip(cfg.a * (q_tf - s.delta) + 0.5, 0.0, 1.0))

    pred_tf = float(out.data[layout.row("y"), q_col])
    fiwl_q = float(out.data[layout.row("fout"), q_col])
    fdann_q = float(out.data[layout.row("fdann"), q_col])

    iwl_cert = certify_iwl(build.iwl, pair, fiwl_q, query_index)
    first = len(build.iwl.tf.layers)
    dann_trace = [st.data for st in
                  trace[first : first + len(build.dann.tf.layers)]]
    dann_cert = certify_dann(build.dann, pair, dann_trace, query_index)
    if choice_tf == "iwl":
        branch_gap = abs(pred_tf - res.f_iwl)
        branch_bound = iwl_cert.bound
    else:
        branch_gap = abs(pred_tf - res.f_dann)
        branch_bound = dann_cert.cumulative

    checks = {
        "p_err_max": p_err,
        "p_err_le_eps1": bool(p_err <= C["eps1"]),
        "p_in_exp_domain": p_in_dom,
        "e_err_max": e_err,
        "e_err_le_eps2": bool(e_err <= C["eps2"]),
        "sum_exact": bool(sum_err <= 1e-9),
        "q_matches_interpolant": bool(q_err <= 1e-7),
        "sum_below_cap": bool(S_hat <= C["S_hi"]),
        "blend_saturated": bool(blend in (0.0, 1.0)),
        "sel_gate_ok": bool(cfg.a * (abs(q_tf) + s.delta) + 0.5 < C["G_sel"]),
        "copy_gate_ok": bool(
            max(abs(fiwl_q), abs(fdann_q)) + 1.0 < C["G_copy"]),
    }
    eps = {
        "eps1": C["eps1"],
        "eps2": C["eps2"],
        "eps4": C["eps4"],
        "softmin_gap": float(np.log(pair.n_prime)) / s.beta,
    }
    return SelectionReport(
        q_tf=q_tf,
        q_oracle=res.q,
        q_lo=q_lo,
        q_hi=q_hi,
        delta=s.delta,
        a=cfg.a,
        choice_tf=choice_tf,
        choice_oracle=res.choice,
        agreement=bool(choice_tf == res.choice),
        margin_certified=margin_certified,
        in_log_domain=bool(C["s_floor"] <= S_hat <= C["S_hi"]),
        blend_weight=blend,
        prediction_tf=pred_tf,
        prediction_oracle=res.prediction,
        branch_gap=branch_gap,
        branch_bound=branch_bound,
        within_branch_bound=bool(branch_gap <= branch_bound),
        eps=eps,
        checks=checks,
        iwl_certificate=iwl_cert,
        dann_certificate=dann_cert,
    )
