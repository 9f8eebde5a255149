"""Synthetic covariate-shift problem instances and prompt encoding.

A problem instance is labeled source data, unlabeled target data, and query
points; generators also emit a labeled held-out evaluation set drawn from the
target distribution for behavioral scoring.  Token encoding packs an instance
into the column-per-token prompt matrix used by the transformer constructions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .tfcore import SlotLayout, TokenMatrix


@dataclass
class DomainPair:
    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    query_x: np.ndarray
    eval_x: np.ndarray | None = None
    eval_y: np.ndarray | None = None

    def __post_init__(self):
        self.source_x = np.atleast_2d(np.asarray(self.source_x, dtype=float))
        self.target_x = np.atleast_2d(np.asarray(self.target_x, dtype=float))
        self.query_x = np.atleast_2d(np.asarray(self.query_x, dtype=float))
        self.source_y = np.asarray(self.source_y, dtype=float).ravel()

    @property
    def n(self) -> int:
        return self.source_x.shape[0]

    @property
    def n_prime(self) -> int:
        return self.target_x.shape[0]

    @property
    def d(self) -> int:
        return self.source_x.shape[1]


@dataclass
class TwoMoonConfig:
    n_source: int = 100
    n_target: int = 100
    n_query: int = 1
    n_eval: int = 200
    noise: float = 0.1
    angle: float = np.pi / 4
    seed: int = 0


def _moons(rng, n: int, noise: float):
    """Interleaved half circles, centered so the pair is point symmetric
    about the origin (a rotation about the origin maps the clean curves onto
    congruent curves)."""
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([x0, x1], axis=0) - np.array([0.5, 0.25])
    y = np.concatenate([np.zeros(n0), np.ones(n1)])
    x += noise * rng.standard_normal(x.shape)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def _rotate(x: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return x @ np.array([[c, s], [-s, c]]).T


def gen_two_moon(cfg: TwoMoonConfig) -> DomainPair:
    """Source: two moons.  Target: the same distribution rotated by cfg.angle."""
    rng = np.random.default_rng(cfg.seed)
    sx, sy = _moons(rng, cfg.n_source, cfg.noise)
    tx, _ = _moons(rng, cfg.n_target, cfg.noise)
    tx = _rotate(tx, cfg.angle)
    qx, _ = _moons(rng, max(cfg.n_query, 1), cfg.noise)
    qx = _rotate(qx, cfg.angle)
    ex, ey = _moons(rng, cfg.n_eval, cfg.noise)
    ex = _rotate(ex, cfg.angle)
    return DomainPair(sx, sy, tx, qx, eval_x=ex, eval_y=ey)


@dataclass
class ShiftGaussConfig:
    d: int = 1
    n_source: int = 50
    n_target: int = 50
    n_query: int = 1
    n_eval: int = 200
    mu_source: float = 0.0
    mu_target: float = 1.0
    sigma_source: float = 1.0
    sigma_target: float = 1.0
    boundary: float | None = None
    seed: int = 0


def _gauss_label(x: np.ndarray, boundary: float) -> np.ndarray:
    return (x[:, 0] > boundary).astype(float)


def gen_shifted_gaussians(cfg: ShiftGaussConfig) -> DomainPair:
    """Isotropic gaussians with a mean shift along the first axis.

    Labels, when cfg.boundary is set, follow the covariate-shift assumption:
    the same thresholding rule on both domains.
    """
    rng = np.random.default_rng(cfg.seed)

    def draw(n, mu, sigma):
        x = sigma * rng.standard_normal((n, cfg.d))
        x[:, 0] += mu
        return x

    sx = draw(cfg.n_source, cfg.mu_source, cfg.sigma_source)
    tx = draw(cfg.n_target, cfg.mu_target, cfg.sigma_target)
    qx = draw(max(cfg.n_query, 1), cfg.mu_target, cfg.sigma_target)
    ex = draw(cfg.n_eval, cfg.mu_target, cfg.sigma_target)
    b = cfg.boundary if cfg.boundary is not None else 0.0
    sy = _gauss_label(sx, b)
    ey = _gauss_label(ex, b)
    return DomainPair(sx, sy, tx, qx, eval_x=ex, eval_y=ey)


def true_ratio(cfg: ShiftGaussConfig, x: np.ndarray) -> np.ndarray:
    """Target-over-source density ratio of the generating gaussians."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu_s = np.zeros(cfg.d)
    mu_s[0] = cfg.mu_source
    mu_t = np.zeros(cfg.d)
    mu_t[0] = cfg.mu_target
    log_s = -np.sum((x - mu_s) ** 2, axis=1) / (2 * cfg.sigma_source**2) \
        - cfg.d * np.log(cfg.sigma_source)
    log_t = -np.sum((x - mu_t) ** 2, axis=1) / (2 * cfg.sigma_target**2) \
        - cfg.d * np.log(cfg.sigma_target)
    return np.exp(log_t - log_s)


def encode_tokens(pair: DomainPair, layout: SlotLayout, query_index: int = 0) -> TokenMatrix:
    """Pack an instance into the prompt matrix.

    Columns: n source tokens, n' target tokens, one query token (last).
    Rows x carry the point, y the source label (zero elsewhere), t flags
    source tokens, s flags training tokens (source and target), one is the
    constant row.  All workspace rows start at zero.
    """
    n, npr, d = pair.n, pair.n_prime, pair.d
    if layout.width("x") != d:
        raise ValueError("layout x width does not match data dimension")
    T = n + npr + 1
    H = np.zeros((layout.dim, T))
    xs = layout.rows("x")
    H[xs, :n] = pair.source_x.T
    H[xs, n : n + npr] = pair.target_x.T
    H[xs, n + npr] = pair.query_x[query_index]
    H[layout.row("y"), :n] = pair.source_y
    H[layout.row("t"), :n] = 1.0
    H[layout.row("s"), : n + npr] = 1.0
    H[layout.row("one"), :] = 1.0
    return TokenMatrix(H, layout, n_source=n, n_target=npr)


def save_csv(pair: DomainPair, path: str) -> None:
    """Columns x_1..x_d, y, domain with domain in {S, T, Q, E}; unlabeled
    rows leave y empty."""
    d = pair.d
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x_{i + 1}" for i in range(d)] + ["y", "domain"])

        def rows(X, Y, tag):
            for i in range(X.shape[0]):
                lab = "" if Y is None else repr(float(Y[i]))
                w.writerow([repr(float(v)) for v in X[i]] + [lab, tag])

        rows(pair.source_x, pair.source_y, "S")
        rows(pair.target_x, None, "T")
        rows(pair.query_x, None, "Q")
        if pair.eval_x is not None:
            rows(pair.eval_x, pair.eval_y, "E")


def load_csv(path: str) -> DomainPair:
    buckets: dict[str, list] = {"S": [], "T": [], "Q": [], "E": []}
    labels: dict[str, list] = {"S": [], "E": []}
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        d = len(header) - 2
        for row in r:
            tag = row[-1]
            buckets[tag].append([float(v) for v in row[:d]])
            if tag in labels:
                labels[tag].append(float(row[d]))
    ex = np.array(buckets["E"]) if buckets["E"] else None
    ey = np.array(labels["E"]) if buckets["E"] else None
    return DomainPair(
        np.array(buckets["S"]),
        np.array(labels["S"]),
        np.array(buckets["T"]),
        np.array(buckets["Q"]),
        eval_x=ex,
        eval_y=ey,
    )
