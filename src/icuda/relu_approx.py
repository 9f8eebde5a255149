"""Sums of ReLU ridge functions with sup-error certificates.

A ReluSum represents f(z) ~= sum_m c_m relu(a_m . z + b_m) with every
(a_m, b_m) normalized to |a_m|_1 + |b_m| <= 1 (positive homogeneity lets c_m
absorb the scale), so downstream error budgets can treat sup_error as an
upper bound over the whole fit box.

Every 1-D fit is one knot-table interpolant (fit_knots; fit_1d and
fit_interval choose equispaced knots).  Its certificate reads the exact
interpolant off the knot table with np.interp, adds a curvature margin, and
adds an explicit bound on the float error of evaluating the ReLU sum
(float_error), so it covers the forward pass's own arithmetic.  The fit
checks its terms at the knots in O(M) with prefix_sum_eval, the prefix-sum
evaluator the forward pass runs on a head family; float_error bounds that
summation order as well as a term-by-term one, because it charges
|a_m| |z| and |b_m| apart.  The multivariate least-squares fit (fit_nd) is a
sum of 1-D ridge sums, one per dictionary direction (ridge_parts); it
measures its ReLU sum on a dense grid, adds a curvature margin, and adds
float_error at the box corner, because the forward pass sums the terms
direction by direction and by prefix sums, not in the grid's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ReluSum:
    """f(z) = sum_m c[m] * relu(a[m] . z + b[m]); a has shape (M, k).

    sup_error bounds the error only on the input range the fit was made
    for (the knot interval of a 1-D fit, the box of fit_nd); the sum itself
    does not record that range, so keeping the inputs inside it is the
    caller's part.  ``ridges`` is the dictionary of a sum built from ridge
    directions (fit_nd, lift, exact_terms, combine; see Ridges), None for a
    1-D knot fit and for fit_binary_gated.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    input_dim: int
    sup_error: float
    ridges: Ridges | None = None

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.c = np.asarray(self.c, dtype=float).ravel()

    @property
    def n_terms(self) -> int:
        return len(self.c)

    def __call__(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return float(np.maximum(self.a @ z + self.b, 0.0) @ self.c)


def eval_batch(rs: ReluSum, Z: np.ndarray) -> np.ndarray:
    """Evaluate at Z of shape (P, k) in chunks of about 2**20 ReLUs (an
    8 MB temporary)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    out = np.empty(Z.shape[0])
    chunk = max(1, 2**20 // max(rs.n_terms, 1))
    for i in range(0, Z.shape[0], chunk):
        block = Z[i : i + chunk]
        out[i : i + chunk] = np.maximum(block @ rs.a.T + rs.b, 0.0) @ rs.c
    return out


@dataclass
class Ridges:
    """The dictionary of a ReluSum built from ridge directions: term m is
    c_m relu(alpha_m (directions[index_m] . z) + b_m), so its a_m is
    alpha_m directions[index_m] as computed; index_m is -1 (and alpha_m 0)
    for fit_nd's constant term."""

    directions: np.ndarray
    index: np.ndarray
    alpha: np.ndarray


@dataclass
class FitReport:
    """How a fit's sup_error is made up: grid_sup + margin + float_error,
    where float_error bounds the float error of evaluating the ReLU sum on
    the fit's box in any summation order (see float_error)."""

    sup_error: float
    grid_sup: float
    margin: float
    float_error: float = 0.0
    breakpoints: np.ndarray | None = None


def _normalize_terms(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Rescale each term so |a|_1 + |b| <= 1, folding the scale into c."""
    a = np.atleast_2d(np.asarray(a, dtype=float)).copy()
    b = np.asarray(b, dtype=float).ravel().copy()
    c = np.asarray(c, dtype=float).ravel().copy()
    kappa = np.sum(np.abs(a), axis=1) + np.abs(b)
    keep = kappa > 0
    a, b, c, kappa = a[keep], b[keep], c[keep], kappa[keep]
    a /= kappa[:, None]
    b /= kappa
    c *= kappa
    return a, b, c


def _second_diff_margin(residual: np.ndarray) -> float:
    """Between-node deviation allowance from axiswise second differences."""
    margin = 0.0
    r = np.asarray(residual)
    for axis in range(r.ndim):
        if r.shape[axis] < 3:
            continue
        d2 = np.abs(np.diff(r, n=2, axis=axis))
        margin += 0.5 * float(np.max(d2))
    return margin


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): relative error bound of n chained float
    roundings (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    nu = n * float(np.finfo(float).eps) / 2.0
    return nu / (1.0 - nu)


def float_error(rs: ReluSum, z) -> float:
    """Bound on the float error of evaluating rs at z: gamma_{M+k} times
    sum_m |c_m| (|a_m| . |z| + |b_m|) (Higham, 3.1 and 4.2), where k =
    input_dim + 2 counts the pre-activation's roundings and one for a scale
    folded into the output weights (the log layer's -1/beta)."""
    z = np.abs(np.asarray(z, dtype=float).ravel())
    scale = np.abs(rs.a) @ z + np.abs(rs.b)
    return gamma(rs.n_terms + rs.input_dim + 2) * float(np.abs(rs.c) @ scale)


def breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-b_m / a_m, and -inf (+inf) for a constant term that is on (off)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0, -b / np.where(a > 0, a, 1.0),
                        np.where(b > 0, -np.inf, np.inf))


def prefix_sum_eval(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The function z -> sum_m c_m relu(a_m z + b_m) of 1-D terms with
    a_m >= 0 in strictly increasing breakpoint order, evaluated in O(log M)
    per point.

    The terms active at z are those with breakpoint t_m < z, so

        sum_m c_m relu(a_m z + b_m) = A(k) z + B(k),   k = #{m : t_m < z},

    where A and B are the prefix sums of c_m a_m and c_m b_m, built once
    here; k is a ``searchsorted`` of z in the breakpoints.

    Float error: A(k) z + B(k) takes k products and k - 1 additions per
    prefix sum, one product by z and one final addition, so it lies within
    gamma_{k+2} sum_{m<k} |c_m| (|a_m| |z| + |b_m|) of the exact sum.  That is
    at most ``float_error``, gamma_{M+3} sum_m |c_m| (|a_m| |z| + |b_m|): the
    bound charges |a_m| |z| and |b_m| apart rather than |a_m z + b_m|, so it
    also covers the cancellation between A(k) z and B(k), which the
    summation order of a term-by-term sum never meets.  A term whose rounded
    breakpoint falls on the wrong side of z (z within a relative u/2 of it)
    adds or drops at most (u/2) |c_m a_m z|, which the one spare rounding of
    gamma_{M+3} over gamma_{k+2} (k <= M) covers.
    """
    t = breakpoints(a, b)
    A = np.concatenate([[0.0], np.cumsum(c * a)])
    B = np.concatenate([[0.0], np.cumsum(c * b)])

    def evaluate(z: np.ndarray) -> np.ndarray:
        k = np.searchsorted(t, z)
        return A[k] * z + B[k]

    return evaluate


def fit_knots(f, knots: np.ndarray) -> tuple[ReluSum, FitReport]:
    """Exact piecewise-linear interpolant of f at a sorted knot grid, as the
    constant f(knots[0]) plus slope-change ReLUs; the left extrapolation is
    flat, so interpolants of monotone data stay monotone on all of R.

    sup_error = grid_sup + margin + float_error on [knots[0], knots[-1]]:
    grid_sup is the largest |interpolant - f| over 11 sub-intervals of every
    knot interval, read off the knot table with np.interp; margin is half the
    largest second difference of that residual within a knot interval; and
    float_error is float_error() at the largest knot magnitude.  The emitted
    terms must match the knot values within float_error, or the fit raises.
    That check evaluates the terms with prefix_sum_eval, the evaluator the
    forward pass runs on a fitted head family, in O(M) time and memory; its
    summation order is within float_error (see prefix_sum_eval).
    """
    knots = np.asarray(knots, dtype=float).ravel()
    if knots.size < 2:
        raise ValueError("need at least 2 knots")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    M = knots.size
    vals = np.asarray(f(knots), dtype=float)
    if vals.shape != knots.shape:
        raise ValueError("f must map an array of points to an array of values")
    deltas = np.diff(np.diff(vals) / np.diff(knots), prepend=0.0)
    a = np.concatenate([[0.0], np.ones(M - 1)])[:, None]
    b = np.concatenate([[1.0], -knots[:-1]])
    c = np.concatenate([[vals[0]], deltas])
    a, b, c = _normalize_terms(a, b, c)
    rs = ReluSum(a, b, c, input_dim=1, sup_error=0.0)

    n_sub = 12
    frac = np.linspace(0.0, 1.0, n_sub)
    fine = (knots[:-1, None] + np.diff(knots)[:, None] * frac[None, :]).ravel()
    resid = (np.interp(fine, knots, vals)
             - np.asarray(f(fine), dtype=float)).reshape(M - 1, n_sub)
    grid_sup = float(np.max(np.abs(resid)))
    margin = 0.5 * float(np.max(np.abs(np.diff(resid, n=2, axis=1))))
    fl_err = float_error(rs, [max(abs(knots[0]), abs(knots[-1]))])
    at_knots = np.abs(prefix_sum_eval(rs.a[:, 0], rs.b, rs.c)(knots) - vals)
    if np.max(at_knots) > fl_err:
        raise RuntimeError(
            f"ReLU terms miss the knot values by {np.max(at_knots):.3g}, "
            f"above the float bound {fl_err:.3g}")
    rs.sup_error = grid_sup + margin + fl_err
    report = FitReport(
        sup_error=rs.sup_error,
        grid_sup=grid_sup,
        margin=margin,
        float_error=fl_err,
        breakpoints=knots,
    )
    return rs, report


def fit_1d(f, R: float, M: int) -> tuple[ReluSum, FitReport]:
    """fit_knots at M equispaced knots on [-R, R]."""
    return fit_knots(f, np.linspace(-R, R, M))


def fit_interval(f, lo: float, hi: float, M: int) -> tuple[ReluSum, FitReport]:
    """fit_knots at M equispaced knots on [lo, hi]."""
    return fit_knots(f, np.linspace(lo, hi, M))


def _directions(k: int, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic canonical directions plus seeded quasi-random l1-sphere fill."""
    dirs = []
    if k == 2:
        for i in range(12):
            th = np.pi * i / 12.0
            d = np.array([np.cos(th), np.sin(th)])
            dirs.append(d / np.sum(np.abs(d)))
    else:
        for i in range(k):
            e = np.zeros(k)
            e[i] = 1.0
            dirs.append(e)
        for i in range(k):
            for j in range(i + 1, k):
                for sgn in (1.0, -1.0):
                    d = np.zeros(k)
                    d[i], d[j] = 0.5, 0.5 * sgn
                    dirs.append(d)
    for _ in range(n_random):
        g = rng.standard_normal(k)
        while np.sum(np.abs(g)) < 1e-12:
            g = rng.standard_normal(k)
        dirs.append(g / np.sum(np.abs(g)))
    return np.array(dirs)


def _axis_grid(R: float, k: int, n: int, midpoints: bool = False):
    """The points of the n^k grid on [-R, R]^k (cell midpoints if
    ``midpoints``), in C order."""
    if midpoints:
        h = 2.0 * R / n
        axis = np.linspace(-R + 0.5 * h, R - 0.5 * h, n)
    else:
        axis = np.linspace(-R, R, n)
    mesh = np.meshgrid(*[axis] * k, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fit_nd(f, k: int, R: float, M: int, seed: int = 0) -> tuple[ReluSum, FitReport]:
    """Least-squares ridge fit of f on the box [-R, R]^k (k in {2, 3}).

    The dictionary holds a fixed fan of directions on the l1 sphere (canonical
    axes/diagonals plus a seeded quasi-random fill), each with an equispaced
    bias grid; coefficients are solved on a training grid.  The terms come
    direction by direction, the constant term last, and ``ridges`` keeps
    the dictionary (see ridge_parts).  sup_error is the residual measured on
    a disjoint denser grid, a curvature margin, and float_error at the box
    corner.
    """
    if k not in (2, 3):
        raise ValueError("fit_nd supports input dimension 2 or 3")
    rng = np.random.default_rng(seed)

    n_random = 16 if M >= 400 else 8
    dirs = _directions(k, n_random, rng)
    n_can = len(dirs) - n_random
    budget = M - 1
    m_rand = 8 if n_random else 0
    m_can = max((budget - n_random * m_rand) // n_can, 4)
    knots_per_dir = [m_can] * n_can + [m_rand] * n_random

    a_rows, b_rows, index = [], [], []
    for j, (d, m) in enumerate(zip(dirs, knots_per_dir)):
        # d . z ranges over [-hi, hi] on the box
        hi = sum(abs(d[i]) * R for i in range(k))
        if 2.0 * hi < 1e-12:
            continue
        ts = np.linspace(-hi, hi, m, endpoint=False)
        for t in ts:
            a_rows.append(d)
            b_rows.append(-t)
            index.append(j)
    a_rows.append(np.zeros(k))
    b_rows.append(1.0)
    index.append(-1)
    A = np.array(a_rows)
    B = np.array(b_rows)
    index = np.array(index)

    base = {2: 41, 3: 17}[k]
    need = int(np.ceil((2.0 * len(B)) ** (1.0 / k))) + 1
    n_train = max(base, need)
    pts = _axis_grid(R, k, n_train)
    y = np.asarray(f(pts), dtype=float)
    Phi = np.maximum(pts @ A.T + B, 0.0)
    coef = np.linalg.lstsq(Phi, y, rcond=1e-10)[0]

    # |a_m|_1 + |b_m| <= 1 as in _normalize_terms, with a_m kept as the
    # product alpha_m d that ridge_parts hands out
    kappa = np.sum(np.abs(A), axis=1) + np.abs(B)
    alpha = np.where(index >= 0, 1.0 / kappa, 0.0)
    a = alpha[:, None] * dirs[index]
    rs = ReluSum(a, B / kappa, coef * kappa, input_dim=k, sup_error=0.0,
                 ridges=Ridges(dirs, index, alpha))

    n_test = max({2: 120, 3: 50}[k], 3 * max(knots_per_dir))
    tpts = _axis_grid(R, k, n_test, midpoints=True)
    resid = eval_batch(rs, tpts) - np.asarray(f(tpts), dtype=float)
    resid = resid.reshape((n_test,) * k)
    grid_sup = float(np.max(np.abs(resid)))
    margin = _second_diff_margin(resid)
    fl_err = float_error(rs, np.full(k, R))
    rs.sup_error = grid_sup + margin + fl_err
    return rs, FitReport(sup_error=rs.sup_error, grid_sup=grid_sup,
                         margin=margin, float_error=fl_err)


def ridge_parts(rs: ReluSum) -> list[tuple[np.ndarray, np.ndarray, np.ndarray,
                                          np.ndarray]]:
    """A sum as one 1-D ReLU sum per ridge direction: a list of
    (d, alpha, b, c), one per direction, so that

        rs(z) = sum over the parts of sum_m c_m relu(alpha_m (d . z) + b_m).

    A 1-D sum is one part with d = [1].  A sum that keeps its dictionary
    (``ridges``: fit_nd, lift, exact_terms and their combine) has one part
    per direction in dictionary order; fit_nd's constant term opens the
    first part with alpha 0 (breakpoint -inf).  Each part's slopes alpha_m
    are nonnegative and its terms in increasing breakpoint order
    -b_m / alpha_m as the fits emit them (a head family checks both).

    Float error.  Let a part hold m terms, n of them with alpha_m > 0, and
    let its ridge variable d . z be computed with r roundings relative to
    |d| . w, where w bounds |z| componentwise.  prefix_sum_eval then meets
    n + 3 roundings per slope term (c_m alpha_m, n - 1 prefix additions,
    the product by z, the final addition, and one for a rounded breakpoint)
    and m + 1 per bias term; adding the P parts takes P - 1 more.  So the
    sum lies within gamma_{n + r + P + 2} sum_m |c_m| (|a_m| . w + |b_m|),
    which float_error(rs, w), at gamma_{M + k + 2}, covers when every part
    has M - n - P >= r - k:

    - a 1-D knot fit: P = 1 and n = M - 1, so r <= 1.  That holds for a
      feature, z = x_i (r = 0), and for a kernel, z = x_i - x_j (r = 1,
      w = |x_i| + |x_j|);
    - a fit_nd part: every other direction holds a term and at least two
      of them 4 or more, so M - n - P >= 5.  A feature's ridge variable
      d . x_i has r = k, and a kernel's d . x_i - d . x_j, computed over
      two Q/K rows, r = k + 1: k products and k - 1 additions in each dot
      product, and one subtraction in the score.  fit_nd's float_error
      takes w at the box corner, which holds |x_i| + |x_j| for the kernel.
    """
    if rs.input_dim == 1:
        return [(np.ones(1), rs.a[:, 0], rs.b, rs.c)]
    if rs.ridges is None:
        raise ValueError("ridge_parts needs a 1-D sum or a sum that keeps "
                         "its dictionary")
    r = rs.ridges
    parts = []
    for i, d in enumerate(r.directions):
        sel = np.flatnonzero(r.index == i)
        if i == 0:
            sel = np.r_[np.flatnonzero(r.index < 0), sel]
        parts.append((d, r.alpha[sel], rs.b[sel], rs.c[sel]))
    return parts


def lift(rs: ReluSum, d: np.ndarray, k: int) -> ReluSum:
    """Turn a 1-D ReluSum g(t) into the ridge function g(d . z) on k inputs,
    with one dictionary direction d: term m is
    c_m relu(alpha_m (d . z) + b_m), rescaled so |a_m|_1 + |b_m| <= 1, and
    a_m = alpha_m d as computed.

    The caller is responsible for the ridge range: d . z must stay inside the
    1-D fit interval for the sup_error to transfer.
    """
    if rs.input_dim != 1:
        raise ValueError("lift expects a 1-D ReluSum")
    d = np.asarray(d, dtype=float).ravel()
    if d.shape != (k,):
        raise ValueError("direction length must match the lifted dimension")
    kappa = np.abs(rs.a[:, 0]) * np.sum(np.abs(d)) + np.abs(rs.b)
    keep = kappa > 0
    kappa = kappa[keep]
    alpha = rs.a[keep, 0] / kappa
    return ReluSum(alpha[:, None] * d, rs.b[keep] / kappa, rs.c[keep] * kappa,
                   input_dim=k, sup_error=rs.sup_error,
                   ridges=Ridges(d[None, :], np.zeros(alpha.size, dtype=int),
                                 alpha))


def combine(parts: list[ReluSum], k: int) -> ReluSum:
    """Sum of several ReluSum parts over a shared input space; it keeps the
    parts' dictionaries, one after another, when every part has one.

    sup_error adds across parts (triangle inequality), so the result is sound
    wherever each part's error is.
    """
    if not parts:
        raise ValueError("need at least one part")
    for p in parts:
        if p.input_dim != k:
            raise ValueError("all parts must share the input dimension")
    a = np.concatenate([p.a for p in parts], axis=0)
    b = np.concatenate([p.b for p in parts])
    c = np.concatenate([p.c for p in parts])
    err = float(sum(p.sup_error for p in parts))
    ridges = None
    if all(p.ridges is not None for p in parts):
        first = np.cumsum([0] + [len(p.ridges.directions) for p in parts])
        ridges = Ridges(
            np.concatenate([p.ridges.directions for p in parts]),
            np.concatenate([np.where(p.ridges.index < 0, -1, p.ridges.index + f)
                            for p, f in zip(parts, first)]),
            np.concatenate([p.ridges.alpha for p in parts]))
    return ReluSum(a, b, c, input_dim=k, sup_error=err, ridges=ridges)


def exact_terms(a, b, c, k: int) -> ReluSum:
    """ReluSum from explicit terms with zero approximation error; each term
    is its own dictionary direction (its a_m, with alpha_m = 1)."""
    A, B, C = _normalize_terms(np.atleast_2d(np.asarray(a, dtype=float)), b, c)
    return ReluSum(A, B, C, input_dim=k, sup_error=0.0,
                   ridges=Ridges(A, np.arange(len(C)), np.ones(len(C))))


def fit_binary_gated(f, lo: float, hi: float, M: int) -> tuple[ReluSum, FitReport]:
    """Fit f(t, v) with a binary second input v in {0, 1}.

    Each slice f(., v) gets its own 1-D fit; a per-term offset of size
    G_m = sup of the term's pre-activation turns the other slice off exactly,
    so the certificate is the worse slice's interpolation error plus the
    float bound of the gated two-input sum.
    """
    parts = []
    reps = []
    for v in (0.0, 1.0):
        rs, rep = fit_interval(lambda t, v=v: f(t, v), lo, hi, M)
        G = np.maximum(0.0, np.maximum(rs.a[:, 0] * lo + rs.b,
                                       rs.a[:, 0] * hi + rs.b))
        if v == 1.0:
            a2 = np.stack([rs.a[:, 0], G], axis=1)
            b2 = rs.b - G
        else:
            a2 = np.stack([rs.a[:, 0], -G], axis=1)
            b2 = rs.b
        A, B, C = _normalize_terms(a2, b2, rs.c)
        parts.append(ReluSum(A, B, C, input_dim=2, sup_error=0.0))
        reps.append(rep)
    worst = max(reps, key=lambda r: r.grid_sup + r.margin)
    out = combine(parts, 2)
    fl_err = float_error(out, [max(abs(lo), abs(hi)), 1.0])
    out.sup_error = worst.grid_sup + worst.margin + fl_err
    report = FitReport(
        sup_error=out.sup_error, grid_sup=worst.grid_sup, margin=worst.margin,
        float_error=fl_err,
    )
    return out, report

