"""Reference unsupervised domain adaptation algorithms.

Plain numpy implementations that serve as ground truth for the transformer
constructions: density-ratio estimation by regularized least squares, ratio
weighted prediction, adversarial feature alignment, kernel density scoring,
and the density-overlap branch selector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import DomainPair

DIVERGE_LIMIT = 1e8


class DivergenceError(RuntimeError):
    """An iterate left the numerically trusted region."""


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)) or np.max(np.abs(arr)) > DIVERGE_LIMIT:
        raise DivergenceError(f"{what} diverged")


# ---------------------------------------------------------------------------
# features


def median_bandwidth(X: np.ndarray) -> float:
    """Median pairwise distance; a positive fallback keeps tiny sets usable."""
    X = np.atleast_2d(X)
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    vals = dist[np.triu_indices(len(X), k=1)]
    vals = vals[vals > 0]
    return float(np.median(vals)) if len(vals) else 1.0


@dataclass
class RbfFeatureMap:
    """phi_j(x) = exp(-|x - c_j|^2 / (2 h^2)) / sqrt(J), so |phi(x)|_2 <= 1."""

    centers: np.ndarray
    h: float

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))

    @property
    def J(self) -> int:
        return self.centers.shape[0]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        sq = np.sum((X[:, None, :] - self.centers[None, :, :]) ** 2, axis=2)
        return np.exp(-sq / (2.0 * self.h**2)) / np.sqrt(self.J)


def make_feature_map(pair: DomainPair, J: int, seed: int = 0) -> RbfFeatureMap:
    """Centers subsampled from the target points (cycled if J exceeds them),
    bandwidth from the pooled median heuristic."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([pair.source_x, pair.target_x], axis=0)
    idx = rng.permutation(pair.n_prime)
    take = [pair.target_x[idx[i % pair.n_prime]] for i in range(J)]
    centers = np.array(take)
    if J > pair.n_prime:
        centers = centers + 0.01 * rng.standard_normal(centers.shape)
    return RbfFeatureMap(centers, median_bandwidth(pool))


# ---------------------------------------------------------------------------
# density-ratio estimation


@dataclass
class UlsifProblem:
    phi_source: np.ndarray
    phi_target: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.phi_source.shape[0]

    @property
    def n_prime(self) -> int:
        return self.phi_target.shape[0]

    @property
    def J(self) -> int:
        return self.phi_source.shape[1]

    @property
    def Psi(self) -> np.ndarray:
        return self.phi_source.T @ self.phi_source / self.n

    @property
    def psi(self) -> np.ndarray:
        return np.mean(self.phi_target, axis=0)


def ulsif_problem(fmap: RbfFeatureMap, pair: DomainPair, lam: float) -> UlsifProblem:
    return UlsifProblem(fmap(pair.source_x), fmap(pair.target_x), lam)


def ulsif_closed_form(prob: UlsifProblem) -> np.ndarray:
    return np.linalg.solve(prob.Psi + prob.lam * np.eye(prob.J), prob.psi)


def ulsif_gd(prob: UlsifProblem, eta1: float, L1: int) -> np.ndarray:
    """Gradient descent from zero on the ratio-matching objective.

    Returns the (L1 + 1, J) iterate trace; row 0 is the zero start.
    """
    Psi, psi = prob.Psi, prob.psi
    alphas = np.zeros((L1 + 1, prob.J))
    for l in range(L1):
        a = alphas[l]
        alphas[l + 1] = a - eta1 * (Psi @ a - psi + prob.lam * a)
        _check_finite(alphas[l + 1], "ratio coefficients")
    return alphas


def ratio_values(alpha: np.ndarray, phi: np.ndarray, clip: bool = False) -> np.ndarray:
    """q(x) = alpha . phi(x); clip floors at zero for behavioral use only."""
    q = np.atleast_2d(phi) @ alpha
    return np.maximum(q, 0.0) if clip else q


# ---------------------------------------------------------------------------
# importance-weighted least squares


def iwl_run(phi_source: np.ndarray, y: np.ndarray, weights: np.ndarray,
            eta2: float, L2: int) -> np.ndarray:
    """Weighted squared-loss gradient descent from zero; (L2 + 1, J) trace."""
    n, J = phi_source.shape
    W = np.zeros((L2 + 1, J))
    for l in range(L2):
        w = W[l]
        s = phi_source @ w
        grad = phi_source.T @ (weights * (s - y)) / n
        W[l + 1] = w - eta2 * grad
        _check_finite(W[l + 1], "regression weights")
    return W


def iwl_predict(w: np.ndarray, phi_query: np.ndarray) -> float:
    return float(np.ravel(np.atleast_2d(phi_query) @ w)[0])


# ---------------------------------------------------------------------------
# adversarial feature alignment


def logistic(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def dlogistic(z):
    p = logistic(z)
    return p * (1.0 - p)


def elu(z):
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def delu(z):
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


ACTIVATIONS = {"logistic": (logistic, dlogistic), "elu": (elu, delu)}


def get_activation(name: str):
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return ACTIVATIONS[name]


def gamma_value_deriv(p_raw: np.ndarray, y: np.ndarray, delta: float):
    """Cross entropy with the probability clamped to [delta, 1 - delta].

    The derivative is taken at the clamped value with a straight-through
    clamp, so it stays bounded by 1 / delta scale.
    """
    p = np.clip(p_raw, delta, 1.0 - delta)
    val = -y * np.log(p) - (1.0 - y) * np.log(1.0 - p)
    deriv = -y / p + (1.0 - y) / (1.0 - p)
    return val, deriv


@dataclass
class DannState:
    u: np.ndarray
    w: np.ndarray
    v: np.ndarray

    def copy(self) -> "DannState":
        return DannState(self.u.copy(), self.w.copy(), self.v.copy())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.w, self.v])


def init_dann(cfg: SelectorConfig, d: int, seed: int = 0) -> DannState:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((cfg.K, d))
    u *= 0.5 * cfg.B_u / np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
    w = rng.uniform(-0.5, 0.5, cfg.K) * cfg.B_w
    v = rng.uniform(-0.5, 0.5, cfg.K) * cfg.B_v
    return DannState(u, w, v)


def dann_forward(state: DannState, X: np.ndarray, activation: str = "logistic"):
    """Label score Lam(x) = sum_k w_k r(u_k . x) and domain score Delta(x)
    with shared first-layer features."""
    r, _ = get_activation(activation)
    pre = np.atleast_2d(X) @ state.u.T
    feats = r(pre)
    return feats @ state.w, feats @ state.v, pre


@dataclass
class DannGrads:
    gu: np.ndarray
    gw: np.ndarray
    gv: np.ndarray
    aux: dict


def dann_grads(state: DannState, pair: DomainPair, cfg: SelectorConfig) -> DannGrads:
    """Gradients of the adversarial objective at the current state.

    The label player descends L - lam * Omega in (u, w), with lam
    ``cfg.lam_dann``; the domain player descends Omega in v.  Domain labels:
    source 1, target 0.
    """
    r, dr = get_activation(cfg.activation)
    n, npr = pair.n, pair.n_prime
    X = np.concatenate([pair.source_x, pair.target_x], axis=0)
    pre = X @ state.u.T
    feats = r(pre)
    dfeats = dr(pre)
    lam_scores = feats @ state.w
    del_scores = feats @ state.v

    y = pair.source_y
    gl = np.zeros(n + npr)
    p_lab = logistic(lam_scores[:n])
    _, d1 = gamma_value_deriv(p_lab, y, cfg.delta_gamma)
    gl[:n] = d1 * dlogistic(lam_scores[:n])

    dom = np.concatenate([np.ones(n), np.zeros(npr)])
    p_dom = logistic(del_scores)
    _, d1d = gamma_value_deriv(p_dom, dom, cfg.delta_gamma)
    gd = d1d * dlogistic(del_scores)

    wt = np.concatenate([np.full(n, 1.0 / n), np.full(npr, 1.0 / npr)])

    gw = feats[:n].T @ gl[:n] / n
    gv = feats.T @ (wt * gd)

    # per-unit input gradients; label part sums over source only
    gu_L = (dfeats[:n] * gl[:n, None]).T @ pair.source_x / n
    gu_L = gu_L * state.w[:, None]
    gu_O = (dfeats * (wt * gd)[:, None]).T @ X
    gu_O = gu_O * state.v[:, None]

    gu = gu_L - cfg.lam_dann * gu_O
    aux = {
        "lam_scores": lam_scores,
        "del_scores": del_scores,
        "gl": gl,
        "gd": gd,
        "pre": pre,
        "gu_L": gu_L,
        "gu_Omega": gu_O,
        "gw_L": gw,
        "gv_Omega": gv,
    }
    return DannGrads(gu=gu, gw=gw, gv=cfg.lam_dann * gv, aux=aux)


def project_ball(z: np.ndarray, B: float) -> np.ndarray:
    nrm = np.linalg.norm(z)
    if nrm <= B or nrm == 0.0:
        return z
    return z * (B / nrm)


def project_state(state: DannState, cfg: SelectorConfig) -> DannState:
    u = np.stack([project_ball(row, cfg.B_u) for row in state.u])
    return DannState(u, project_ball(state.w, cfg.B_w), project_ball(state.v, cfg.B_v))


def dann_step(state: DannState, pair: DomainPair, cfg: SelectorConfig) -> DannState:
    """One simultaneous update of all three blocks from shared gradients."""
    g = dann_grads(state, pair, cfg)
    nxt = DannState(
        state.u - cfg.eta * g.gu,
        state.w - cfg.eta * g.gw,
        state.v - cfg.eta * g.gv,
    )
    nxt = project_state(nxt, cfg)
    _check_finite(nxt.flat(), "alignment parameters")
    return nxt


def dann_run(state0: DannState, pair: DomainPair, cfg: SelectorConfig) -> list[DannState]:
    """Trace of states over cfg.L updates, initial state first."""
    trace = [state0.copy()]
    for _ in range(cfg.L):
        trace.append(dann_step(trace[-1], pair, cfg))
    return trace


def dann_predict(state: DannState, X: np.ndarray, activation: str = "logistic") -> np.ndarray:
    lam_scores, _, _ = dann_forward(state, X, activation)
    return lam_scores


# ---------------------------------------------------------------------------
# density scoring and branch selection


def kde_eval(points: np.ndarray, X: np.ndarray, h: float,
             normalized: bool = False) -> np.ndarray:
    """Mean gaussian bump mass of `points` at each row of X.

    Unnormalized by default (values in [0, 1]); normalized divides by the
    gaussian constant so d = 1 matches the standard density estimator.
    """
    points = np.atleast_2d(points)
    X = np.atleast_2d(X)
    d = points.shape[1]
    sq = np.sum((X[:, None, :] - points[None, :, :]) ** 2, axis=2)
    vals = np.mean(np.exp(-sq / (2.0 * h**2)), axis=1)
    if normalized:
        vals = vals / (np.sqrt(2.0 * np.pi) * h) ** d
    return vals


def softmin(vals: np.ndarray, beta: float) -> float:
    """Smooth minimum -(1/beta) log sum exp(-beta v); sits within
    [min - log(len)/beta, min]."""
    vals = np.asarray(vals, dtype=float)
    m = float(np.min(vals))
    return m - float(np.log(np.sum(np.exp(-beta * (vals - m))))) / beta


@dataclass
class SelectorConfig:
    J: int = 3
    lam: float = 1.0
    eta1: float = 0.5
    L1: int = 8
    eta2: float = 0.1
    L2: int = 8
    K: int = 2
    eta: float = 0.1
    lam_dann: float = 1.0
    L: int = 3
    delta_gamma: float = 1e-3
    B_u: float = 2.0
    B_w: float = 1.0
    B_v: float = 1.0
    activation: str = "logistic"
    beta: float = 200.0
    delta: float = 0.05
    kde_h: float | None = None
    seed: int = 0


@dataclass
class IcudaResult:
    choice: str
    prediction: float
    q: float
    f_iwl: float
    f_dann: float
    p_stats: np.ndarray
    aux: dict


def iwl_pipeline(pair: DomainPair, cfg: SelectorConfig, query: np.ndarray):
    """Ratio estimation then weighted regression; returns the query score and
    the intermediate traces the weight constructions replay."""
    fmap = make_feature_map(pair, cfg.J, cfg.seed)
    prob = ulsif_problem(fmap, pair, cfg.lam)
    alphas = ulsif_gd(prob, cfg.eta1, cfg.L1)
    alpha = alphas[-1]
    qhat = ratio_values(alpha, prob.phi_source)
    W = iwl_run(prob.phi_source, pair.source_y, qhat, cfg.eta2, cfg.L2)
    pred = iwl_predict(W[-1], fmap(np.atleast_2d(query)))
    return pred, {"fmap": fmap, "prob": prob, "alphas": alphas, "W": W}


def dann_pipeline(pair: DomainPair, cfg: SelectorConfig, query: np.ndarray):
    state0 = init_dann(cfg, pair.d, cfg.seed)
    trace = dann_run(state0, pair, cfg)
    pred = float(dann_predict(trace[-1], np.atleast_2d(query), cfg.activation)[0])
    return pred, {"trace": trace}


def icuda_predict(pair: DomainPair, cfg: SelectorConfig, query_index: int = 0) -> IcudaResult:
    """Overlap-gated branch selection.

    Source density is scored at every target point; the softmin of those
    scores is the overlap statistic q.  Strictly q > delta routes to the
    ratio-weighted branch, otherwise (ties included) to the adversarial
    branch.
    """
    query = pair.query_x[query_index]
    h = cfg.kde_h if cfg.kde_h is not None else median_bandwidth(pair.source_x)
    p_stats = kde_eval(pair.source_x, pair.target_x, h)
    q = softmin(p_stats, cfg.beta)
    f_iwl, aux_iwl = iwl_pipeline(pair, cfg, query)
    f_dann, aux_dann = dann_pipeline(pair, cfg, query)
    choice = "iwl" if q > cfg.delta else "dann"
    pred = f_iwl if choice == "iwl" else f_dann
    return IcudaResult(
        choice=choice, prediction=pred, q=q, f_iwl=f_iwl, f_dann=f_dann,
        p_stats=p_stats, aux={"iwl": aux_iwl, "dann": aux_dann, "h": h},
    )
