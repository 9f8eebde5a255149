"""Finite-difference scaffolding shared by the gradient-oracle tests."""

import numpy as np

import icuda.uda_ref as ur


def playerwise_objectives(state, pair, sel):
    """Scalar objectives whose block gradients the oracle returns."""
    r, _ = ur.get_activation(sel.activation)
    X = np.concatenate([pair.source_x, pair.target_x], axis=0)
    n, npr = pair.n, pair.n_prime

    def label_loss(u, w):
        feats = r(X[:n] @ u.T)
        p = ur.logistic(feats @ w)
        val, _ = ur.gamma_value_deriv(p, pair.source_y, sel.delta_gamma)
        return float(np.mean(val))

    def domain_loss(u, v):
        feats = r(X @ u.T)
        p = ur.logistic(feats @ v)
        dom = np.concatenate([np.ones(n), np.zeros(npr)])
        val, _ = ur.gamma_value_deriv(p, dom, sel.delta_gamma)
        return float(np.sum(val[:n]) / n + np.sum(val[n:]) / npr)

    return label_loss, domain_loss


def numeric_grad(f, x0, h=1e-6):
    g = np.zeros_like(x0, dtype=float)
    flat = x0.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        g.ravel()[i] = (f((flat + bump).reshape(x0.shape))
                        - f((flat - bump).reshape(x0.shape))) / (2 * h)
    return g


def clamp_free(state, pair, sel, margin=1e-3):
    """True when no probability sits at the clamp, so central differences
    see the smooth objective."""
    r, _ = ur.get_activation(sel.activation)
    feats = r(np.concatenate([pair.source_x, pair.target_x]) @ state.u.T)
    lam_p = ur.logistic(feats[:pair.n] @ state.w)
    dom_p = ur.logistic(feats @ state.v)
    lo = sel.delta_gamma + margin
    hi = 1.0 - sel.delta_gamma - margin
    return bool(np.all((lam_p > lo) & (lam_p < hi))
                and np.all((dom_p > lo) & (dom_p < hi)))


def block_gradient_errors(state, pair, sel):
    """Relative error of each oracle gradient block against central FD."""
    g = ur.dann_grads(state, pair, sel)
    label_loss, domain_loss = playerwise_objectives(state, pair, sel)
    fu = lambda u: label_loss(u, state.w) - sel.lam_dann * domain_loss(u, state.v)
    fw = lambda w: label_loss(state.u, w)
    fv = lambda v: sel.lam_dann * domain_loss(state.u, v)
    out = {}
    for name, got, f, x0 in (("u", g.gu, fu, state.u),
                             ("w", g.gw, fw, state.w),
                             ("v", g.gv, fv, state.v)):
        want = numeric_grad(f, x0.copy())
        out[name] = float(np.linalg.norm(got - want)
                          / max(np.linalg.norm(want), 1e-12))
    return out
