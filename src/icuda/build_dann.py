"""Transformer weights that execute the adversarial alignment branch.

Each optimization step spans two layers: (A) forward attention rebuilds the
label and domain scores per token and a gated MLP turns them into per-token
loss gradients, (B) gradient attention applies all six update families (label
and domain objectives for the three parameter blocks), then its MLP applies
the ball projections when needed and zeroes the scratch rows exactly.  The
two step layers are built once and each kept at its position in all L steps.
A final layer recomputes the label score with layer A's families and copies
it into the output slot at the query token only.  The loss-gradient fit is
one per-token part (``tfcore.TokenPart``) per score and label value; the
exact zeroing and copy pairs and the projection fits are units written by
``tfcore.relu_sum_mlp``.

Parameter blocks live in every token and stay synchronized; per-token scratch
(scores and loss gradients) is rebuilt each step.  Certificates chain the
measured fit errors through the gradient formula with realized trace bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import relu_approx as ra
from . import uda_ref as ur
from .datagen import DomainPair, encode_tokens
from .tfcore import (
    HeadFamily,
    MlpPart,
    SlotLayout,
    TokenMatrix,
    TokenPart,
    Transformer,
    TransformerLayer,
    attn_forward,
    forward_trace,
    query_copy,
    relu_sum_mlp,
    token_part,
)

if TYPE_CHECKING:
    from .build_select import IcudaBuildConfig

# terms of each multivariate ball-projection fit
PROJECTION_TERMS = 600

# fits shared by every build in the process, at most _FIT_CACHE_SIZE of
# them (the oldest is dropped first); their arrays are made read-only, so no
# caller can change a fit another build relies on
_FIT_CACHE: dict = {}
_FIT_CACHE_SIZE = 256


def _freeze(obj):
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, tuple):
        for item in obj:
            _freeze(item)
    elif isinstance(obj, (ra.ReluSum, ra.GatedSum, ra.FitReport, ra.Ridges)):
        _freeze(tuple(vars(obj).values()))
    return obj


def _cached(key: tuple, fit):
    """The frozen result of ``fit()`` stored under ``key``, fitted on a miss."""
    if key not in _FIT_CACHE:
        if len(_FIT_CACHE) >= _FIT_CACHE_SIZE:
            del _FIT_CACHE[next(iter(_FIT_CACHE))]
        _FIT_CACHE[key] = _freeze(fit())
    return _FIT_CACHE[key]


def _round_up(x: float, step: float = 0.5) -> float:
    return float(np.ceil(x / step) * step)


def dann_layout(d: int, K: int) -> SlotLayout:
    slots = [("x", d), ("y", 1), ("t", 1), ("s", 1), ("one", 1)]
    slots += [(f"u{k}", d) for k in range(K)]
    slots += [("w", K), ("v", K), ("lam", 1), ("delta", 1),
              ("gl", 1), ("gd", 1), ("fdann", 1)]
    return SlotLayout.build(slots)


def encode_dann(pair: DomainPair, layout: SlotLayout, state: ur.DannState,
                query_index: int = 0) -> TokenMatrix:
    """Prompt carrying the data plus the initial parameter state in every
    token's parameter slots."""
    tm = encode_tokens(pair, layout, query_index)
    K = state.u.shape[0]
    for k in range(K):
        tm.data[layout.rows(f"u{k}"), :] = state.u[k][:, None]
    tm.data[layout.rows("w"), :] = state.w[:, None]
    tm.data[layout.rows("v"), :] = state.v[:, None]
    return tm


# ---------------------------------------------------------------------------
# fitted pieces (cached across instances)


def activation_fit(name: str, R1: float, knots: int):
    """Activation fit whose terms are normalized on the prescaled input t/R1.

    Fitting r(R1 t~) on the unit interval and folding 1/R1 back into the
    slopes keeps evaluation in original coordinates while guaranteeing
    |a t + b| <= 1 for |t| <= R1, which the source and target gates of the
    parameter-update heads rely on.
    """
    def fit():
        r, _ = ur.get_activation(name)
        rs, rep = ra.fit_1d(lambda z: r(R1 * np.asarray(z, dtype=float)), 1.0, knots)
        rs = ra.ReluSum(rs.a / R1, rs.b, rs.c, input_dim=1,
                        sup_error=rs.sup_error)
        return rs, rep
    return _cached(("act", name, R1, knots), fit)


def lossgrad_fit(R_score: float, delta: float, knots: int):
    """Per-token loss gradient d gamma(clamp(sig(score)), label) / d score as
    a binary-gated fit over (score, label); the score passes through the
    output logistic whatever the hidden activation.  Returns the fit, its
    report and the fit's value bound B_g on the box (``_gl_value_bound``),
    which is cached with it."""
    def f(t, v):
        t = np.asarray(t, dtype=float)
        p = ur.logistic(t)
        _, d1 = ur.gamma_value_deriv(p, np.full_like(t, v), delta)
        return d1 * ur.dlogistic(t)

    def fit():
        rs, rep = ra.fit_binary_gated(f, -R_score, R_score, knots)
        return rs, rep, _gl_value_bound(rs, R_score, knots)
    return _cached(("lg", R_score, delta, knots), fit)


def lossgrad_lipschitz(R_score: float, delta: float) -> float:
    """Slope bound of the true per-token gradient over the fit box.

    Dense finite differences inflated 10 percent; the function is piecewise
    smooth with moderate curvature, so the inflation dominates the grid gap.
    """
    t = np.linspace(-R_score, R_score, 20001)
    worst = 0.0
    for v in (0.0, 1.0):
        p = ur.logistic(t)
        _, d1 = ur.gamma_value_deriv(p, np.full_like(t, v), delta)
        g = d1 * ur.dlogistic(t)
        worst = max(worst, float(np.max(np.abs(np.diff(g) / np.diff(t)))))
    return 1.1 * worst


def product_fit(name: str, R1: float, terms: int):
    """2-D fit of (s, z) -> s * r'(R1 z) on the unit box; s carries the
    prescaled weight-times-gradient product.  The fit's dictionary is drawn
    from the fixed seed 0, so the cache key names everything the fit
    depends on."""
    _, dr = ur.get_activation(name)

    def f(P):
        return P[:, 0] * dr(R1 * P[:, 1])

    return _cached(("prod", name, R1, terms),
                   lambda: ra.fit_nd(f, 2, 1.0, terms, seed=0))


def projection_fit(B: float, R_blk: float, dim: int, terms: int):
    """Componentwise fits of the ball-projection correction
    z -> z (min(1, B/|z|) - 1) over the box of radius R_blk; component i's
    dictionary is drawn from the fixed seed i.

    A block of width 1 needs no fit: its correction clip(z, -B, B) - z is
    the exact pair -relu(z - B) + relu(-z - B)."""
    def fit():
        if dim == 1:
            return (ra.exact_terms([[1.0], [-1.0]], [-B, -B], [-1.0, 1.0],
                                   1),), np.array([0.0])
        fits = []
        errs = []
        for i in range(dim):
            def f(P, i=i):
                nrm = np.linalg.norm(P, axis=1)
                scale = np.minimum(1.0, B / np.maximum(nrm, 1e-300)) - 1.0
                return P[:, i] * scale
            rs, rep = ra.fit_nd(f, dim, R_blk, terms, seed=i)
            fits.append(rs)
            errs.append(rep.sup_error)
        return tuple(fits), np.array(errs)
    return _cached(("proj", B, R_blk, dim, terms), fit)


# ---------------------------------------------------------------------------
# layer builders


def build_forward_attn(layout: SlotLayout, cfg: IcudaBuildConfig, R1: float):
    """Head families rebuilding the label and domain scores into lam/delta
    rows, one per hidden unit k: z_ij = x_i . u_k at sender j."""
    D = layout.dim
    xs = layout.rows("x")
    one = layout.row("one")
    rows = np.r_[layout.row("lam"), layout.row("delta")]
    wsl = layout.rows("w")
    vsl = layout.rows("v")
    rfit, _ = activation_fit(cfg.sel.activation, R1, cfg.r_knots)
    [(_, alpha, b, c)] = ra.ridge_parts(rfit)
    d = layout.width("x")
    families = []
    for k in range(cfg.sel.K):
        Qf = np.zeros((d, D))
        Kf = np.zeros((d, D))
        Qf[:, xs] = np.eye(d)
        Kf[:, layout.rows(f"u{k}")] = np.eye(d)
        families.append(HeadFamily(
            Qf, Kf, one, None, alpha, b, c, np.eye(2), rows,
            np.r_[wsl.start + k, vsl.start + k]))
    return tuple(families)


def build_lossgrad_parts(layout: SlotLayout, fit: ra.GatedSum,
                         R_sc: float) -> tuple[TokenPart, ...]:
    """Gated per-token parts: gl for source tokens from (lam, y), gd for
    train tokens from (delta, t); exactly zero elsewhere.  Each is one part
    per label value v, the fit's slice v, closed by its label row at the
    other label (the slice's offsets) and by its gate row at 0 (offset G).
    Both scores lie in the box |score| <= R_sc, so one loss-gradient fit
    serves both, and G bounds every term's pre-activation on that box at
    either label: the largest slope times R_sc, plus the largest label
    offset, plus the largest bias the term's unit carries."""
    slices = list(enumerate(zip(fit.slices, fit.offsets)))
    G = float(max(np.max(np.abs(s.a)) for _, (s, g) in slices) * R_sc
              + max(np.max(g) for _, (s, g) in slices)
              + max(np.max(np.abs(s.b - v * g)) for v, (s, g) in slices)) + 1.0
    row = layout.row
    return tuple(
        token_part(s, row(score), row(out), row("one"),
                   [(row(gate), 1.0, G), (row(label), float(v), g)])
        for score, label, gate, out in (("lam", "y", "t", "gl"),
                                        ("delta", "t", "s", "gd"))
        for v, (s, g) in slices)


def build_gd_attn(layout: SlotLayout, cfg: IcudaBuildConfig, n: int, n_prime: int,
                  R1: float, S1: float, S3: float):
    """The six update families as gated head families.

    Families 1/3 rebuild weight-times-gradient-times-slope terms through the
    2-D product fit and deliver the sender's point: one HeadFamily per
    direction (d_s, d_z) of the fit's dictionary (``ra.ridge_parts``), whose
    ridge variable is d_s s + d_z z with s = w_k gl_j / scale and
    z = u_k . x_j / R1.  Families 2/4 rebuild the activation value at
    z_ij = u_k,i . x_j and deliver the sender's loss gradient (one
    HeadFamily each).
    """
    D = layout.dim
    xs = layout.rows("x")
    one = layout.row("one")
    t_r = layout.row("t")
    s_r = layout.row("s")
    gl_r = layout.row("gl")
    gd_r = layout.row("gd")
    wsl = layout.rows("w")
    vsl = layout.rows("v")
    N = n + n_prime
    d = layout.width("x")
    eta, lam = cfg.sel.eta, cfg.sel.lam_dann
    pfit, _ = product_fit(cfg.sel.activation, R1, cfg.p_terms)
    parts = ra.ridge_parts(pfit)
    rfit, _ = activation_fit(cfg.sel.activation, R1, cfg.r_knots)
    [(_, r_alpha, r_b, r_c)] = ra.ridge_parts(rfit)
    G = 2.0
    families = []

    def gate_rows(kind):
        # kind: "src" passes t=1 tokens, "tgt" passes s=1, t=0 tokens
        q_g = np.zeros(D)
        k_g = np.zeros(D)
        q_g[one] = -G
        k_g[one] = 1.0
        if kind == "src":
            k_g[t_r] = -1.0
        else:
            k_g[s_r] = -1.0
            k_g[t_r] = 1.0
        return np.stack([q_g, k_g])

    for k in range(cfg.sel.K):
        usl = layout.rows(f"u{k}")
        u_rows, x_cols = np.r_[usl], np.r_[xs]
        # families 1, 3a, 3b: updates of u_k
        for coef_slot, scale, grad_row, specs in (
            (wsl.start + k, S1, gl_r, [("src", -(N + 1) * eta / n)]),
            (vsl.start + k, S3, gd_r, [("src", (N + 1) * lam * eta / n),
                                       ("tgt", (N + 1) * lam * eta / n_prime)]),
        ):
            Kf = np.zeros((1 + d, D))
            Kf[0, grad_row] = 1.0
            Kf[1:, xs] = np.eye(d)
            for kind, vcoef in specs:
                for (d_s, d_z), alpha, b, c in parts:
                    Qf = np.zeros((1 + d, D))
                    Qf[0, coef_slot] = d_s / scale
                    Qf[1:, usl] = (d_z / R1) * np.eye(d)
                    families.append(HeadFamily(
                        Qf, Kf, one, gate_rows(kind), alpha, b, c,
                        vcoef * scale * np.eye(d), u_rows, x_cols))
        # families 2, 4a, 4b: updates of w_k and v_k
        Qf = np.zeros((d, D))
        Kf = np.zeros((d, D))
        Qf[:, usl] = np.eye(d)
        Kf[:, xs] = np.eye(d)
        for out_row, grad_row, specs in (
            (wsl.start + k, gl_r, [(None, -(N + 1) * eta / n)]),
            (vsl.start + k, gd_r, [("src", -(N + 1) * lam * eta / n),
                                   ("tgt", -(N + 1) * lam * eta / n_prime)]),
        ):
            for kind, vcoef in specs:
                families.append(HeadFamily(
                    Qf, Kf, one, gate_rows(kind) if kind else None, r_alpha,
                    r_b, vcoef * r_c, np.ones((1, 1)), np.r_[out_row],
                    np.r_[grad_row]))
    return tuple(families), pfit, rfit


def build_projection_mlp(layout: SlotLayout, cfg: IcudaBuildConfig,
                         enable_proj: bool, R_blk: float):
    """Scratch-row zeroing (exact sign pairs) plus optional ball-projection
    corrections for every parameter block."""
    # -relu(v) + relu(-v) = -v: adding it zeroes the row exactly
    zero = ra.ReluSum([[1.0], [-1.0]], [0.0, 0.0], [-1.0, 1.0], input_dim=1,
                      sup_error=0.0)
    parts = [MlpPart(zero, [layout.row(name)], layout.row(name))
             for name in ("lam", "delta", "gl", "gd")]
    eps_proj = {"u": 0.0, "w": 0.0, "v": 0.0}
    if enable_proj:
        s = cfg.sel
        specs = [(f"u{k}", s.B_u, "u") for k in range(s.K)]
        specs += [("w", s.B_w, "w"), ("v", s.B_v, "v")]
        for slot, B, tag in specs:
            dim = layout.width(slot)
            fits, errs = projection_fit(B, R_blk, dim, PROJECTION_TERMS)
            sl = layout.rows(slot)
            parts += [MlpPart(rs, sl, sl.start + i) for i, rs in enumerate(fits)]
            eps_proj[tag] = max(eps_proj[tag], float(np.sqrt(dim) * np.max(errs)))
    return *relu_sum_mlp(layout.dim, layout.row("one"), parts), eps_proj


# ---------------------------------------------------------------------------
# build + verify


@dataclass
class DannBuild:
    tf: Transformer
    layout: SlotLayout
    cfg: IcudaBuildConfig
    state0: ur.DannState
    bounds: dict
    fits: dict
    eps_proj: dict
    proj_enabled: bool
    ref_trace: list


@dataclass
class DannStepRow:
    step: int
    dev_u: float
    dev_w: float
    dev_v: float
    bound_u: float
    bound_w: float
    bound_v: float
    ok: bool


@dataclass
class DannCertificate:
    rows: list
    cumulative: float
    final_gap: float
    prediction_tf: float
    prediction_ref: float
    eps_r: float
    eps_gl: float
    eps_gd: float
    eps_p: float
    checks: dict


def build_dann_transformer(pair: DomainPair, cfg: IcudaBuildConfig,
                           layout: SlotLayout | None = None,
                           state0: ur.DannState | None = None) -> DannBuild:
    """The alignment branch with the hyperparameters of ``cfg.sel`` and the
    knot and term counts ``cfg.r_knots``, ``cfg.gl_knots`` and
    ``cfg.p_terms``, written on ``layout`` (by default its own
    ``dann_layout``) and started from ``state0`` (by default the reference
    start of ``cfg.sel.seed``)."""
    s = cfg.sel
    if state0 is None:
        state0 = ur.init_dann(s, pair.d, s.seed)
    ref_trace = ur.dann_run(state0, pair, s)

    all_x = np.concatenate([pair.source_x, pair.target_x, pair.query_x], axis=0)
    B_x = float(np.max(np.linalg.norm(all_x, axis=1)))
    # 2 percent headroom so approximate projections and small drifts stay
    # inside every fit domain; containment is re-measured at verify time
    R1 = _round_up(max(1.02 * s.B_u * B_x, 1.0))
    sqK = float(np.sqrt(s.K))
    r, _ = ur.get_activation(s.activation)
    r_max = float(np.max(np.abs(r(np.linspace(-R1, R1, 4001)))))
    R_lam = _round_up(max(1.02 * sqK * s.B_w * r_max, 1.0))
    R_del = _round_up(max(1.02 * sqK * s.B_v * r_max, 1.0))
    R_sc = max(R_lam, R_del)

    gl_fit, _, B_g = lossgrad_fit(R_sc, s.delta_gamma, cfg.gl_knots)
    S1 = 1.02 * s.B_w * B_g
    S3 = 1.02 * s.B_v * B_g

    # projection needed only if some pre-projection block can leave its ball
    pre_norms = _pre_projection_norms(ref_trace, pair, s)
    slack = 0.05 * min(s.B_u, s.B_w, s.B_v)
    enable_proj = bool(
        pre_norms["u"] > s.B_u - slack or pre_norms["w"] > s.B_w - slack
        or pre_norms["v"] > s.B_v - slack)
    R_blk = _round_up(max(pre_norms["u"], pre_norms["w"], pre_norms["v"],
                          s.B_u, s.B_w, s.B_v) * 1.5)

    layout = layout or dann_layout(pair.d, s.K)
    gd_families, pfit, rfit = build_gd_attn(
        layout, cfg, pair.n, pair.n_prime, R1, S1, S3)
    layer_a = TransformerLayer([], *relu_sum_mlp(layout.dim, layout.row("one"), []),
                               build_forward_attn(layout, cfg, R1),
                               build_lossgrad_parts(layout, gl_fit, R_sc))
    W1_p, W2_p, eps_proj = build_projection_mlp(layout, cfg, enable_proj, R_blk)
    layer_bc = TransformerLayer([], W1_p, W2_p, gd_families)

    # the readout recomputes the label score with layer A's families, then
    # copies it into the output slot at the query token only
    copy = query_copy(layout, R_lam + 2.0, "lam", "fdann")
    readout = TransformerLayer([], *relu_sum_mlp(layout.dim, layout.row("one"),
                                                 [copy]), layer_a.families)
    tf = Transformer([layer_a, layer_bc] * s.L + [readout], layout,
                     readout=("fdann", None))

    bounds = {"B_x": B_x, "R1": R1, "R_lam": R_lam, "R_del": R_del,
              "R_sc": R_sc, "B_g": B_g, "S1": S1, "S3": S3, "R_blk": R_blk,
              "r_max": r_max}
    fits = {"r": rfit, "gl": gl_fit, "gd": gl_fit, "p": pfit}
    return DannBuild(tf, layout, cfg, state0, bounds, fits, eps_proj,
                     enable_proj, ref_trace)


def _gl_value_bound(fit: ra.GatedSum, R_sc: float, knots: int) -> float:
    """Bound on |fit| over [-R_sc, R_sc], both labels: each slice interpolates
    on ``knots`` equispaced knots, so it peaks at a knot, up to sup_error."""
    t = np.linspace(-R_sc, R_sc, knots)[:, None]
    return max(float(np.max(np.abs(ra.eval_batch(s, t))))
               for s in fit.slices) + fit.sup_error


def _pre_projection_norms(trace: list, pair: DomainPair,
                          sel: ur.SelectorConfig) -> dict:
    out = {"u": 0.0, "w": 0.0, "v": 0.0}
    for st in trace[:-1]:
        g = ur.dann_grads(st, pair, sel)
        raw_u = st.u - sel.eta * g.gu
        raw_w = st.w - sel.eta * g.gw
        raw_v = st.v - sel.eta * g.gv
        out["u"] = max(out["u"], float(np.max(np.linalg.norm(raw_u, axis=1))))
        out["w"] = max(out["w"], float(np.linalg.norm(raw_w)))
        out["v"] = max(out["v"], float(np.linalg.norm(raw_v)))
    return out


def _state_from(tm_data: np.ndarray, layout: SlotLayout, K: int,
                col: int) -> ur.DannState:
    u = np.stack([tm_data[layout.rows(f"u{k}"), col] for k in range(K)])
    return ur.DannState(u, tm_data[layout.rows("w"), col].copy(),
                        tm_data[layout.rows("v"), col].copy())


def verify_dann(build: DannBuild, pair: DomainPair, query_index: int = 0) -> DannCertificate:
    """Runs the transformer and certifies its parameter trajectory."""
    tm = encode_dann(pair, build.layout, build.state0, query_index)
    _, trace = forward_trace(build.tf, tm)
    return certify_dann(build, pair, [st.data for st in trace], query_index)


def certify_dann(build: DannBuild, pair: DomainPair, trace: list[np.ndarray],
                 query_index: int = 0) -> DannCertificate:
    """Per-step and cumulative certificates against the reference run.

    ``trace`` holds the stream after every layer of ``build.tf``, in
    ``build.layout`` rows, with the query token in the last column.
    """
    s = build.cfg.sel
    layout = build.layout
    q = trace[-1].shape[1] - 1

    eps_r = build.fits["r"].sup_error
    eps_gl = build.fits["gl"].sup_error
    eps_gd = build.fits["gd"].sup_error
    eps_p = build.fits["p"].sup_error
    B = build.bounds
    L_gamma = lossgrad_lipschitz(B["R_sc"], s.delta_gamma)
    sqK = float(np.sqrt(s.K))
    r, dr = ur.get_activation(s.activation)
    B_rp = float(np.max(np.abs(dr(np.linspace(-B["R1"], B["R1"], 4001)))))
    B_r = B["r_max"] + eps_r

    rows = []
    cum = 0.0
    tf_states = [build.state0]
    ref_states = build.ref_trace
    gate_ok = True
    box_ok = True
    domain_ok = True
    for l in range(s.L):
        post_a = trace[2 * l]
        prev = tf_states[-1]
        cur = _state_from(trace[2 * l + 1], layout, s.K, q)
        tf_states.append(cur)

        # realized per-token quantities for this step
        Bg_l = float(np.max(np.abs(post_a[layout.row("gl"), :])))
        Bgd_l = float(np.max(np.abs(post_a[layout.row("gd"), :])))
        box_ok &= bool(np.max(np.abs(post_a[layout.row("lam"), :])) <= B["R_sc"]
                       and np.max(np.abs(post_a[layout.row("delta"), :])) <= B["R_sc"])
        gate_ok &= bool(Bg_l <= B["B_g"] and Bgd_l <= B["B_g"])
        # fit-domain containment for the product heads and score heads
        w_inf = float(np.max(np.abs(prev.w)))
        v_inf = float(np.max(np.abs(prev.v)))
        u_row = float(np.max(np.linalg.norm(prev.u, axis=1)))
        domain_ok &= bool(w_inf * Bg_l <= B["S1"] and v_inf * Bgd_l <= B["S3"]
                          and u_row * B["B_x"] <= B["R1"])
        if build.proj_enabled:
            # the update layer's stream before its projection MLP
            pre = attn_forward(build.tf.layers[2 * l + 1], TokenMatrix(
                post_a, layout, pair.n, pair.n_prime))
            raw = _state_from(pre.data, layout, s.K, q)
            domain_ok &= bool(
                max(float(np.max(np.linalg.norm(raw.u, axis=1))),
                    float(np.linalg.norm(raw.w)),
                    float(np.linalg.norm(raw.v))) <= B["R_blk"])

        # loss-gradient surrogate error chain (fit error at the streamed
        # score, plus the score drift through the true gradient's slope)
        wl1 = float(np.sum(np.abs(prev.w)))
        vl1 = float(np.sum(np.abs(prev.v)))
        E_gl = eps_gl + L_gamma * wl1 * eps_r
        E_gd = eps_gd + L_gamma * vl1 * eps_r

        per_u_src = B["B_x"] * (B["S1"] * eps_p + s.B_w * B_rp * E_gl)
        per_u_dom = B["B_x"] * (B["S3"] * eps_p + s.B_v * B_rp * E_gd)
        eps_u = sqK * (per_u_src + s.lam_dann * 2.0 * per_u_dom)
        eps_w = sqK * ((Bg_l + E_gl) * eps_r + B_r * E_gl)
        eps_v = sqK * s.lam_dann * 2.0 * ((Bgd_l + E_gd) * eps_r + B_r * E_gd)

        exact = ur.dann_step(prev, pair, s)
        dev_u = float(np.linalg.norm(cur.u - exact.u))
        dev_w = float(np.linalg.norm(cur.w - exact.w))
        dev_v = float(np.linalg.norm(cur.v - exact.v))
        bu = s.eta * eps_u + build.eps_proj["u"] * sqK
        bw = s.eta * eps_w + build.eps_proj["w"]
        bv = s.eta * eps_v + build.eps_proj["v"]
        ok = dev_u <= bu and dev_w <= bw and dev_v <= bv
        rows.append(DannStepRow(l + 1, dev_u, dev_w, dev_v, bu, bw, bv, ok))

        # cumulative recursion with realized amplification of the exact map
        dprev = float(np.linalg.norm(tf_states[-2].flat() - ref_states[l].flat()))
        if dprev > 0:
            amp = float(np.linalg.norm(
                exact.flat() - ref_states[l + 1].flat()) / dprev)
        else:
            amp = 1.0
        step_bound = float(np.sqrt(bu**2 + bw**2 + bv**2))
        cum = amp * cum + step_bound

    final = tf_states[-1]
    ref_final = ref_states[-1]
    domain_ok &= bool(
        float(np.max(np.linalg.norm(final.u, axis=1))) * B["B_x"] <= B["R1"])
    # Lipschitz constant of the true score in the parameters, along the
    # segment between the realized and reference final states
    W_seg = max(float(np.max(np.abs(final.w))), float(np.max(np.abs(ref_final.w))))
    G_lam = float(np.sqrt(s.K * B_r**2 + s.K * (W_seg * B_rp * B["B_x"])**2))
    cum_final = float(np.linalg.norm(final.flat() - ref_final.flat()))
    cumulative = eps_r * float(np.sum(np.abs(final.w))) + G_lam * cum

    pred_tf = float(trace[-1][layout.row("fdann"), q])
    pred_ref = float(ur.dann_predict(ref_final,
                                     pair.query_x[query_index : query_index + 1],
                                     s.activation)[0])
    checks = {
        "score_box_contained": box_ok,
        "grad_bound_contained": gate_ok,
        "fit_domains_contained": domain_ok,
        "L_gamma": L_gamma,
        "state_gap_final": cum_final,
        "state_gap_bound": cum,
    }
    return DannCertificate(
        rows=rows,
        cumulative=cumulative,
        final_gap=abs(pred_tf - pred_ref),
        prediction_tf=pred_tf,
        prediction_ref=pred_ref,
        eps_r=eps_r,
        eps_gl=eps_gl,
        eps_gd=eps_gd,
        eps_p=eps_p,
        checks=checks,
    )
