"""Package-level acceptance checks.

Each test prints a one-line verdict through the capture bypass so a plain
pytest run shows the scoreboard. In order: exact ratio-coefficient updates,
descent consistency with the closed form, the weighted-learning certificate,
per-step and cumulative alignment certificates, branch selection, the soft
minimum bracket, density-estimate convergence, behavioral advantage of the
adapted learners, and the weight-norm budget.
"""

import dataclasses
import time

import numpy as np
import pytest

import icuda.datagen as dg
import icuda.tfcore as tc
import icuda.uda_ref as ur
from icuda.build_dann import build_dann_transformer, verify_dann
from icuda.build_iwl import (
    SOUNDNESS_CHECKS,
    alpha_trace_from_tf,
    build_alpha_transformer,
    build_iwl_transformer,
    encode_ulsif,
    verify_iwl,
)
from icuda.build_select import IcudaBuildConfig, build_icuda_transformer, verify_icuda

from fd_utils import block_gradient_errors, clamp_free


def _say(capsys, num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {label}: {verdict}{detail}")


# ---------------------------------------------------------------------------
# shared instance schedules


@pytest.fixture(scope="module")
def ratio_problems():
    """20 seeded ratio problems cycling size and feature count."""
    grid = [(n, J) for n in (8, 32) for J in (1, 3, 8)]
    probs = []
    for seed in range(20):
        n, J = grid[seed % len(grid)]
        pair = dg.gen_shifted_gaussians(dg.ShiftGaussConfig(
            d=1, n_source=n, n_target=n, n_eval=1, mu_target=0.5,
            boundary=0.5, seed=seed))
        fmap = ur.make_feature_map(pair, J, seed)
        probs.append(ur.ulsif_problem(fmap, pair, 1.0))
    return probs


@pytest.fixture(scope="module")
def iwl_builds():
    """10 seeded end-to-end reweighting builds plus their total wall time."""
    out = []
    t0 = time.perf_counter()
    for seed in range(10):
        pair = dg.gen_shifted_gaussians(dg.ShiftGaussConfig(
            d=1, n_source=40, n_target=25, n_eval=50, mu_target=0.5,
            boundary=0.5, seed=seed))
        cfg = IcudaBuildConfig(sel=ur.SelectorConfig(
            J=3, lam=1.0, eta1=0.5, L1=8, eta2=0.1, L2=8, seed=seed))
        build = build_iwl_transformer(pair, cfg)
        out.append((pair, build, verify_iwl(build, pair)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dann_builds():
    """5 seeded alignment builds on small interleaved half-circles."""
    out = []
    for seed in range(5):
        pair = dg.gen_two_moon(dg.TwoMoonConfig(
            n_source=12, n_target=12, n_eval=20, seed=seed))
        cfg = IcudaBuildConfig(sel=ur.SelectorConfig(
            K=2, eta=0.1, lam_dann=1.0, L=5, delta_gamma=0.05, seed=seed))
        build = build_dann_transformer(pair, cfg)
        out.append((pair, build, verify_dann(build, pair)))
    return out


@pytest.fixture(scope="module")
def selection_reports():
    """10 routing instances: 5 heavy-overlap, 5 disjoint-support."""
    out = []
    overlap = [0.0, 0.05, 0.1, 0.15, 0.2]
    disjoint = [8.0, 8.5, 9.0, 9.5, 10.0]
    for i, mu in enumerate(overlap + disjoint):
        pair = dg.gen_shifted_gaussians(dg.ShiftGaussConfig(
            d=1, n_source=25, n_target=10, n_eval=20, mu_target=mu,
            sigma_target=0.5 if i < 5 else 1.0, boundary=0.3, seed=i))
        cfg = IcudaBuildConfig(sel=ur.SelectorConfig(L1=6, L2=6, L=2, seed=i))
        build = build_icuda_transformer(pair, cfg)
        out.append((verify_icuda(build, pair), "iwl" if i < 5 else "dann"))
    return out


# ---------------------------------------------------------------------------
# the checks


def test_01_ratio_updates_exact(ratio_problems, capsys):
    eta1, L1 = 0.5, 10
    t0 = time.perf_counter()
    worst = 0.0
    for prob in ratio_problems:
        tf = build_alpha_transformer(prob, eta1, L1)
        got = alpha_trace_from_tf(tf, encode_ulsif(prob, tf.layout))
        want = ur.ulsif_gd(prob, eta1, L1)
        scale = max(float(np.max(np.abs(want))), 1.0)
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _say(capsys, 1, "ratio updates match the descent trace", ok,
         f" (worst rel err {worst:.1e}, {elapsed:.1f}s for 20 builds)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_02_ratio_descent_reaches_closed_form(ratio_problems, capsys):
    worst_dist = 0.0
    worst_res = 0.0
    for prob in ratio_problems:
        closed = ur.ulsif_closed_form(prob)
        res = np.linalg.norm(
            (prob.Psi + prob.lam * np.eye(prob.J)) @ closed - prob.psi)
        eta_safe = 1.0 / (float(np.linalg.eigvalsh(prob.Psi)[-1]) + prob.lam)
        alphas = ur.ulsif_gd(prob, eta_safe, 500)
        worst_dist = max(worst_dist, float(np.linalg.norm(alphas[-1] - closed)))
        worst_res = max(worst_res, float(res))
    ok = worst_dist <= 1e-6 and worst_res <= 1e-10
    _say(capsys, 2, "ratio descent reaches the closed form", ok,
         f" (worst distance {worst_dist:.1e}, worst residual {worst_res:.1e})")
    assert worst_dist <= 1e-6
    assert worst_res <= 1e-10


def test_03_reweighted_learning_certificate(iwl_builds, capsys):
    builds, elapsed = iwl_builds
    worst_gap = max(c.measured_vs_reference for _, _, c in builds)
    worst_bound = max(c.bound for _, _, c in builds)
    worst_grad = max(c.eps_grad for _, _, c in builds)
    sound = all(all(c.hypothesis_checks[k] for k in SOUNDNESS_CHECKS)
                for _, _, c in builds)
    covered = all(c.measured_vs_reference <= c.bound for _, _, c in builds)
    ok = (covered and sound and worst_bound <= 0.05
          and worst_grad <= 1e-3 and elapsed < 60.0)
    _say(capsys, 3, "reweighted prediction within certificate", ok,
         f" (worst gap {worst_gap:.1e} <= bound {worst_bound:.1e}, "
         f"grad fit {worst_grad:.1e}, {elapsed:.1f}s for 10 builds)")
    assert covered
    assert sound
    assert worst_bound <= 0.05
    assert worst_grad <= 1e-3
    assert elapsed < 60.0


def test_04_alignment_per_step_certificates(dann_builds, capsys):
    blocks_ok = 0
    blocks_seen = 0
    worst_fd = 0.0
    for pair, build, cert in dann_builds:
        for row in cert.rows:
            for dev, bound in ((row.dev_u, row.bound_u),
                               (row.dev_w, row.bound_w),
                               (row.dev_v, row.bound_v)):
                blocks_seen += 1
                blocks_ok += dev <= bound
        sel = build.cfg.sel
        assert clamp_free(build.state0, pair, sel)
        worst_fd = max(worst_fd, max(
            block_gradient_errors(build.state0, pair, sel).values()))
    ok = blocks_seen == 75 and blocks_ok == 75 and worst_fd <= 1e-5
    _say(capsys, 4, "per-step deviations within measured bounds", ok,
         f" ({blocks_ok}/{blocks_seen} blocks, grad oracle vs FD {worst_fd:.1e})")
    assert blocks_seen == 75
    assert blocks_ok == 75
    assert worst_fd <= 1e-5


def test_05_alignment_cumulative_certificate(dann_builds, capsys):
    worst_gap = max(c.final_gap for _, _, c in dann_builds)
    worst_cum = max(c.cumulative for _, _, c in dann_builds)
    covered = all(c.final_gap <= c.cumulative for _, _, c in dann_builds)
    _say(capsys, 5, "final alignment gap within cumulative certificate",
         covered, f" (worst gap {worst_gap:.1e}, worst budget {worst_cum:.1e})")
    assert covered


def test_06_branch_selection_agreement(selection_reports, capsys):
    agree = sum(rep.agreement for rep, _ in selection_reports)
    margins = all(rep.margin_certified for rep, _ in selection_reports)
    branch = all(rep.within_branch_bound for rep, _ in selection_reports)
    routed = all(rep.choice_tf == want and rep.choice_oracle == want
                 for rep, want in selection_reports)
    ok = agree == 10 and margins and branch and routed
    _say(capsys, 6, "branch selection agrees with the oracle", ok,
         f" ({agree}/10 agree, margins certified: {margins})")
    for rep, want in selection_reports:
        assert rep.agreement
        assert rep.choice_tf == want
        assert rep.choice_oracle == want
        assert rep.margin_certified
        assert rep.within_branch_bound


def test_07_soft_minimum_bracket_exact(capsys):
    rng = np.random.default_rng(7)
    held = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        vals = 3.0 * rng.standard_normal(n)
        beta = float(rng.uniform(0.05, 300.0))
        sm = ur.softmin(vals, beta)
        m = float(np.min(vals))
        held += (m - np.log(n) / beta) <= sm <= m
    _say(capsys, 7, "soft minimum bracket holds with no tolerance",
         held == 1000, f" ({held}/1000 draws)")
    assert held == 1000


def test_08_density_estimate_converges(capsys):
    grid = np.linspace(-3.0, 3.0, 601).reshape(-1, 1)
    truth = np.exp(-0.5 * grid[:, 0] ** 2) / np.sqrt(2.0 * np.pi)
    improved = []
    details = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        errs = []
        for n_prime in (100, 10000):
            sample = rng.standard_normal((n_prime, 1))
            h = float(n_prime) ** -0.2
            est = ur.kde_eval(sample, grid, h, normalized=True)
            errs.append(float(np.max(np.abs(est - truth))))
        improved.append(errs[1] < errs[0])
        details.append(f"{errs[0]:.3f}->{errs[1]:.3f}")
    _say(capsys, 8, "density estimate sharpens with sample size",
         all(improved), " (" + ", ".join(details) + ")")
    assert all(improved)


def test_09_adaptation_beats_source_only(capsys):
    reweight_wins = 0
    for seed in range(5):
        pair = dg.gen_shifted_gaussians(dg.ShiftGaussConfig(
            d=1, n_source=200, n_target=100, n_eval=400, mu_target=2.0,
            boundary=1.5, seed=seed))
        fmap = ur.make_feature_map(pair, 8, seed)
        prob = ur.ulsif_problem(fmap, pair, 0.01)
        alphas = ur.ulsif_gd(prob, 0.2, 300)
        phi_s = fmap(pair.source_x)
        phi_e = fmap(pair.eval_x)
        qhat = ur.ratio_values(alphas[-1], phi_s, clip=True)

        def target_acc(weights):
            W = ur.iwl_run(phi_s, pair.source_y, weights, 0.5, 400)
            pred = (phi_e @ W[-1]) >= 0.5
            return float(np.mean(pred == (pair.eval_y > 0.5)))

        reweight_wins += target_acc(qhat) >= target_acc(np.ones(pair.n))

    align_wins = 0
    for seed in range(5):
        pair = dg.gen_two_moon(dg.TwoMoonConfig(
            n_source=100, n_target=100, n_eval=300, noise=0.1, seed=seed))
        adversarial = ur.SelectorConfig(K=4, eta=0.3, lam_dann=5.0, L=200,
                                        delta_gamma=1e-3, B_u=3.0, B_w=2.0,
                                        B_v=3.0)
        plain = dataclasses.replace(adversarial, lam_dann=0.0)
        state0 = ur.init_dann(adversarial, pair.d, seed)

        def target_acc(params):
            final = ur.dann_run(state0.copy(), pair, params)[-1]
            p = ur.logistic(ur.dann_predict(final, pair.eval_x))
            return float(np.mean((p >= 0.5) == (pair.eval_y > 0.5)))

        align_wins += target_acc(adversarial) >= target_acc(plain)

    ok = reweight_wins >= 4 and align_wins >= 4
    _say(capsys, 9, "adaptation matches or beats source-only training", ok,
         f" (reweighting {reweight_wins}/5, alignment {align_wins}/5)")
    assert reweight_wins >= 4
    assert align_wins >= 4


def test_10_weight_norms_within_budget(iwl_builds, capsys):
    builds, _ = iwl_builds
    worst_ratio = 0.0
    within = True
    for pair, build, _cert in builds:
        cfg = build.cfg.sel
        n, npr = pair.n, pair.n_prime
        N = n + npr
        C = float(np.sum(np.abs(build.grad_fit.c)))
        R = max(build.bounds["B_alpha"],
                np.sqrt(4.0 + 2.0 * build.bounds["gate_w"] ** 2) - 1.0,
                np.sqrt(5.0) - 1.0)
        ratio_pass = (2.0 * (N + 1) / n + (N + 1) / npr
                      + cfg.lam / (N + 1)) * cfg.eta1
        fit_pass = 1.0 + (N + 1) * C * cfg.eta2 / n
        budget = 1.0 + R + max(ratio_pass, fit_pass)
        norm = tc.tf_norm(build.tf)
        within = within and norm <= budget
        worst_ratio = max(worst_ratio, norm / budget)
    _say(capsys, 10, "built weight norms within the closed-form budget",
         within, f" (worst norm/budget {worst_ratio:.3f})")
    assert within
