"""Per-head dense references for the transformer core, written from the
head formulas rather than from the evaluators they check."""

import numpy as np

import icuda.tfcore as tc


def zero_layer(dim):
    """Layer with no heads and an empty MLP; forward is the identity."""
    return tc.TransformerLayer([], np.zeros((0, dim)), np.zeros((dim, 0)))


def family_heads(fam):
    """The heads a family stands for (see tc.HeadFamily): head m has
    Q_m = [a_m Qf; b_m e_one; q_g], K_m = [Kf; e_one; k_g] and the value
    block c_m V0 on V0's nonzero entries, at the family's rows and cols."""
    D = fam.Qf.shape[1]
    e_one = np.zeros((1, D))
    e_one[0, fam.one] = 1.0
    gate = np.zeros((2, 0, D)) if fam.gate is None else fam.gate[:, None]
    K = np.vstack([fam.Kf, e_one, *gate[1:]])
    heads = []
    for a, b, c in zip(fam.a, fam.b, fam.c):
        bias = np.zeros((1, D))
        bias[0, fam.one] = b
        Q = np.vstack([a * fam.Qf, bias, *gate[:1]])
        V = np.where(fam.V0 != 0, c * fam.V0, fam.V0)
        heads.append(tc.AttentionHead(Q, K, V, fam.rows, fam.cols))
    return heads


def layer_heads(layer):
    """Every head of the layer in head order: the families' heads
    (``family_heads``), then the plain heads."""
    return [h for fam in layer.families for h in family_heads(fam)] + list(layer.heads)
