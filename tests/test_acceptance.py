"""End-to-end acceptance suite.

Each test checks one headline guarantee of the library at the stated
tolerance and prints a single pass/fail line (emitted with capture disabled
so the summary is visible in plain ``pytest -v`` output).
"""

import numpy as np
import pytest

from ccakit.appgrad import (
    AppGradState,
    StepSizes,
    appgrad_step,
    appgrad_step_rank1,
    default_step,
    error_metric,
    random_init,
    run_appgrad,
    theoretical_step_size,
)
from ccakit.baselines import dw_cca, nw_cca, pca_cca
from ccakit.harness import SolverConfig, run_experiment
from ccakit.io import load_csv, load_dataset, save_csv, save_matrix_market
from ccakit.kernels import KernelSpec, kernel_cca, kernel_gram
from ccakit.linalg import gram, induced_norm
from ccakit.metrics import pcc, principal_angles, projected_correlations, tcc
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import naive_gradient_step, spectral_cca, qr_cca
from ccakit.stochastic import MinibatchPlan, StepSchedule, run_stochastic

from conftest import random_orthogonal


@pytest.fixture
def report_line(capfd):
    def _report(num, name, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\n[acceptance {num:2d}] {name}: {status} ({detail})")
        assert ok, f"criterion {num} ({name}): {detail}"

    return _report


def test_01_oracle_agreement(report_line):
    """Spectral and QR-whitened solvers agree on 20 random dense instances."""
    rng = np.random.default_rng(100)
    worst_lam, worst_cos = 0.0, 1.0
    for trial in range(20):
        p1 = int(rng.integers(5, 61))
        p2 = int(rng.integers(5, 61))
        X = rng.standard_normal((500, p1))
        Y = rng.standard_normal((500, p2))
        k = min(5, p1, p2)
        a = spectral_cca(X, Y, k)
        b = qr_cca(X, Y, k)
        worst_lam = max(worst_lam, float(np.max(np.abs(a.lam - b.lam))))
        Sx, Sy = gram(X), gram(Y)
        worst_cos = min(
            worst_cos,
            float(np.min(principal_angles(a.phi, b.phi, S=Sx))),
            float(np.min(principal_angles(a.psi, b.psi, S=Sy))),
        )
    ok = worst_lam <= 1e-8 and worst_cos >= 1 - 1e-6
    report_line(1, "oracle agreement", ok,
                f"max |dlam|={worst_lam:.2e}, min cos={worst_cos:.10f}")


def test_02_fixed_point_suite(report_line):
    """One solver step at the (rotated) oracle fixed point barely moves."""
    rng = np.random.default_rng(200)
    worst = 0.0
    for trial in range(10):
        params = PlantedParams(
            n=300, p1=10, p2=10, correlations=(0.9, 0.7, 0.5),
            cond_x=2.0, cond_y=2.0, latent_rotate=True,
        )
        inst = generate_planted(params, seed=trial)
        truth = inst.empirical
        L = np.diag(truth.lam)
        eta = default_step(inst.x, inst.y)
        # rank-1 fixed point for the leading pair
        s1 = AppGradState(
            truth.phi[:, :1], truth.psi[:, :1],
            truth.lam[0] * truth.phi[:, :1], truth.lam[0] * truth.psi[:, :1],
        )
        n1 = appgrad_step_rank1(s1, eta, inst.x, inst.y)
        worst = max(worst, np.linalg.norm(n1.phi - s1.phi),
                    np.linalg.norm(n1.psi - s1.psi))
        for _ in range(20):
            Q = random_orthogonal(3, rng)
            state = AppGradState(
                truth.phi @ Q, truth.psi @ Q, truth.phi @ L @ Q, truth.psi @ L @ Q
            )
            new = appgrad_step(state, eta, inst.x, inst.y)
            worst = max(
                worst,
                np.linalg.norm(new.phi - state.phi),
                np.linalg.norm(new.psi - state.psi),
                np.linalg.norm(new.phi_tilde - state.phi_tilde),
                np.linalg.norm(new.psi_tilde - state.psi_tilde),
            )
    ok = worst < 1e-8
    report_line(2, "fixed points", ok, f"max movement={worst:.2e}")


def test_03_negative_control(report_line):
    """The unnormalized-gradient scheme walks away from the truth."""
    smallest_move = np.inf
    for trial in range(10):
        params = PlantedParams(
            n=400, p1=8, p2=8, correlations=(0.85, 0.4),
            cond_x=3.0, cond_y=2.5, latent_rotate=True,
        )
        inst = generate_planted(params, seed=trial)
        truth = spectral_cca(inst.x, inst.y, 1)
        Sx = gram(inst.x)
        phi1 = truth.phi[:, 0]
        # hypotheses: lam1 != 1 and phi1 not an eigenvector of the view Gram
        v = Sx @ phi1
        resid = np.linalg.norm(v - (phi1 @ v) * phi1 / (phi1 @ phi1))
        assert truth.lam[0] < 1 - 1e-3 and resid > 1e-6
        phi2, _ = naive_gradient_step(
            phi1, truth.psi[:, 0], 0.5, 0.5, inst.x, inst.y
        )
        smallest_move = min(smallest_move, induced_norm(Sx, phi2 - phi1))
    ok = smallest_move > 1e-6
    report_line(3, "negative control", ok, f"min movement={smallest_move:.2e}")


def test_04_linear_convergence_guarantee(report_line):
    """Inside the contraction region the error obeys the geometric envelope."""
    params = PlantedParams(n=500, p1=8, p2=8, correlations=(0.9, 0.3))
    inst = generate_planted(params, seed=11)
    X, Y = inst.x, inst.y
    truth = spectral_cca(X, Y, 1)
    lam = spectral_cca(X, Y, 2).lam
    L1, L2 = inst.conditioning()
    bound = 2.0 * (lam[0] ** 2 - lam[1] ** 2) / L1
    e0 = 0.5 * bound
    eta, delta, rate = theoretical_step_size(lam[0], lam[1], L1, e0, L2)

    rng = np.random.default_rng(40)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    scale = np.sqrt(e0 / (u @ u + v @ v))
    pt = lam[0] * truth.phi[:, 0] + scale * u
    qt = lam[0] * truth.psi[:, 0] + scale * v
    state = AppGradState(
        (pt / induced_norm(gram(X), pt)).reshape(-1, 1),
        (qt / induced_norm(gram(Y), qt)).reshape(-1, 1),
        pt.reshape(-1, 1), qt.reshape(-1, 1),
    )
    steps = StepSizes.constant(eta)
    errs = [error_metric(state, truth)]
    for _ in range(500):
        state = appgrad_step_rank1(state, steps, X, Y)
        errs.append(error_metric(state, truth))
    errs = np.asarray(errs)
    envelope = errs[0] * rate ** np.arange(errs.size)
    within = bool(np.all(errs <= envelope + 1e-12))
    logs = np.log(errs[errs > 1e-14])
    decreasing = bool(np.all(np.diff(logs) < 0))
    ok = within and decreasing
    report_line(4, "linear convergence", ok,
                f"rate={rate:.4f}, e_500/e_0={errs[-1]/errs[0]:.2e}, "
                f"monotone={decreasing}")


def test_05_batch_accuracy(report_line):
    """Rank-5 batch runs recover >= 99% of the oracle correlation, 10 seeds."""
    params = PlantedParams(
        n=2000, p1=50, p2=50, correlations=(0.9, 0.8, 0.7, 0.6, 0.5)
    )
    scores = []
    for seed in range(10):
        inst = generate_planted(params, seed=seed)
        o = inst.empirical
        model, _ = run_appgrad(
            inst.x, inst.y, 5, seed=seed, max_iters=2000, record_every=0
        )
        scores.append(pcc(inst.x, inst.y, (model.phi, model.psi), (o.phi, o.psi)))
    worst = min(scores)
    ok = worst >= 0.99
    report_line(5, "batch accuracy", ok, f"min PCC over 10 seeds={worst:.6f}")


def test_06_stochastic_reduction_and_efficiency(report_line):
    """Full-batch sampling reproduces the batch path; minibatches reach the
    same accuracy at a fraction of the FLOPs."""
    # (a) m = n reduces to the batch trajectory
    params = PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3))
    inst = generate_planted(params, seed=7)
    X, Y = inst.x, inst.y
    from ccakit.stochastic import stochastic_appgrad_step

    eta = default_step(X, Y)
    sampler = MinibatchPlan(m=400, seed=1).make_sampler(400)
    s_b = random_init(X, Y, 3, seed=2)
    s_s = AppGradState(s_b.phi.copy(), s_b.psi.copy(),
                       s_b.phi_tilde.copy(), s_b.psi_tilde.copy())
    max_gap = 0.0
    for _ in range(50):
        idx = sampler.next_batch()
        s_s = stochastic_appgrad_step(s_s, eta, X[idx], Y[idx])
        s_b = appgrad_step(s_b, eta, X, Y)
        max_gap = max(max_gap, np.linalg.norm(s_s.phi - s_b.phi),
                      np.linalg.norm(s_s.psi - s_b.psi))
    reduction_ok = max_gap < 1e-12

    # (b) FLOPs to reach PCC 0.95, stochastic vs batch, median of 5 seeds
    params = PlantedParams(
        n=20000, p1=100, p2=100, correlations=(0.9, 0.8, 0.7, 0.6, 0.5),
        cond_x=3.0, cond_y=3.0, latent_rotate=True,
    )
    ratios, finals = [], []
    for seed in range(5):
        inst = generate_planted(params, seed=seed)
        o = inst.empirical
        X, Y = inst.x, inst.y
        _, brep = run_appgrad(X, Y, 5, seed=seed, max_iters=200,
                              record_every=5, oracle=o)
        batch_cost = next(
            (r.flops for r in brep.records if r.pcc_train >= 0.95), None
        )
        plan = MinibatchPlan(m=500, seed=seed)
        eta0 = default_step(X, Y, seed=seed).eta1
        _, srep = run_stochastic(
            X, Y, 5, plan, StepSchedule("constant", eta0=eta0),
            max_iters=600, seed=seed, oracle=o, record_every=10,
        )
        stoch_cost = next(
            (r.flops for r in srep.records if r.pcc_train >= 0.95), None
        )
        finals.append(srep.records[-1].pcc_train)
        if batch_cost is None or stoch_cost is None:
            ratios.append(np.inf)
        else:
            ratios.append(stoch_cost / batch_cost)
    med_ratio = float(np.median(ratios))
    med_final = float(np.median(finals))
    efficiency_ok = med_ratio <= 0.20 and med_final >= 0.95
    ok = reduction_ok and efficiency_ok
    report_line(6, "stochastic reduction/efficiency", ok,
                f"max traj gap={max_gap:.2e}, median FLOP ratio={med_ratio:.3f}, "
                f"median final PCC={med_final:.4f}")


def test_07_baseline_ordering(report_line):
    """On scale-skewed data the solver beats all three shortcuts by >= 0.05."""
    params = PlantedParams(
        n=2000, p1=25, p2=25, correlations=(0.9, 0.8, 0.7, 0.6, 0.5),
        cond_x=31.6, cond_y=31.6, latent_rotate=True,  # variances span ~1e3
    )
    margins = {"nw": [], "dw": [], "pca-cca": []}
    for seed in range(5):
        inst = generate_planted(params, seed=seed)
        o = inst.empirical
        X, Y = inst.x, inst.y
        ora = (o.phi, o.psi)

        def score(m):
            return pcc(X, Y, (m.phi, m.psi), ora)

        model, _ = run_appgrad(X, Y, 5, seed=seed, max_iters=2000, record_every=0)
        mine = score(model)
        margins["nw"].append(mine - score(nw_cca(X, Y, 5)))
        margins["dw"].append(mine - score(dw_cca(X, Y, 5)))
        margins["pca-cca"].append(mine - score(pca_cca(X, Y, 5, m=20)))
    meds = {k: float(np.median(v)) for k, v in margins.items()}
    ok = all(v >= 0.05 for v in meds.values())
    report_line(7, "baseline ordering", ok,
                "median margins " + ", ".join(f"{k}={v:.3f}" for k, v in meds.items()))


def test_08_structural_identities(report_line):
    """Decomposition, least-squares, and angle-bound identities hold numerically."""
    rng = np.random.default_rng(800)
    worst_decom = 0.0
    worst_ls = 0.0
    for trial in range(10):
        p = int(rng.integers(4, 9))
        X = rng.standard_normal((120, p))
        Y = rng.standard_normal((120, p))
        n = 120
        full = spectral_cca(X, Y, p)
        Sx, Sy = gram(X), gram(Y)
        Sxy = X.T @ Y / n
        recon = Sx @ full.phi @ np.diag(full.lam) @ full.psi.T @ Sy
        worst_decom = max(
            worst_decom,
            np.linalg.norm(Sxy - recon) / np.linalg.norm(Sxy),
        )
        # exact least-squares partner of psi_1 is lam_1 * phi_1
        ls = np.linalg.lstsq(X, Y @ full.psi[:, 0], rcond=None)[0]
        worst_ls = max(
            worst_ls,
            np.linalg.norm(ls - full.lam[0] * full.phi[:, 0]),
        )

    # normalized movement bounded by tilde movement along 5 rank-1 runs
    curve_ok = True
    for seed in range(5):
        params = PlantedParams(n=500, p1=8, p2=8, correlations=(0.9, 0.3))
        inst = generate_planted(params, seed=seed)
        X, Y = inst.x, inst.y
        truth = spectral_cca(X, Y, 1)
        Sx = gram(X)
        lam1 = truth.lam[0]
        phi1 = truth.phi[:, 0]
        state = random_init(X, Y, 1, seed=seed)
        eta = default_step(X, Y)
        for _ in range(40):
            phi = state.phi[:, 0]
            sign = 1.0 if phi @ Sx @ phi1 >= 0 else -1.0
            cos = phi @ Sx @ (sign * phi1)
            lhs = induced_norm(Sx, phi - sign * phi1)
            rhs = (
                (1.0 / lam1)
                * np.sqrt(2.0 / (1.0 + cos))
                * induced_norm(Sx, state.phi_tilde[:, 0] - sign * lam1 * phi1)
            )
            curve_ok = curve_ok and lhs <= rhs + 1e-10
            state = appgrad_step_rank1(state, eta, X, Y)
    ok = worst_decom <= 1e-8 and worst_ls <= 1e-8 and curve_ok
    report_line(8, "structural identities", ok,
                f"decomposition residual={worst_decom:.2e}, "
                f"least-squares gap={worst_ls:.2e}, angle bound={curve_ok}")


def test_09_kernel_equivalence(report_line):
    """Linear kernels match the primal solver; rbf finds nonlinear links."""
    worst = 0.0
    for seed in range(5):
        params = PlantedParams(n=120, p1=6, p2=6, correlations=(0.85, 0.55))
        inst = generate_planted(params, seed=seed)
        Kx = kernel_gram(inst.x, KernelSpec("linear"))
        Ky = kernel_gram(inst.y, KernelSpec("linear"))
        Wx, Wy, _ = kernel_cca(Kx, Ky, 2, seed=seed)
        dual = projected_correlations(Kx.values @ Wx, Ky.values @ Wy).sum()
        primal = spectral_cca(inst.x, inst.y, 2).lam.sum()
        worst = max(worst, abs(dual - primal))
    linear_ok = worst <= 1e-4

    rng = np.random.default_rng(900)
    x = rng.uniform(-np.pi, np.pi, size=(300, 1))
    y = np.sin(3.0 * x) + 0.05 * rng.standard_normal((300, 1))

    def total(spec):
        Kx = kernel_gram(x, spec)
        Ky = kernel_gram(y, spec)
        Wx, Wy, _ = kernel_cca(Kx, Ky, 1, seed=3)
        return projected_correlations(Kx.values @ Wx, Ky.values @ Wy).sum()

    rbf_total = total(KernelSpec("rbf", sigma=0.5))
    lin_total = total(KernelSpec("linear"))
    rbf_ok = rbf_total > lin_total
    ok = linear_ok and rbf_ok
    report_line(9, "kernel equivalence", ok,
                f"max linear gap={worst:.2e}, rbf={rbf_total:.3f} "
                f"vs linear={lin_total:.3f}")


def test_10_metric_properties(report_line):
    """Captured-correlation metrics are remix-invariant and holdout-safe."""
    params = PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3))
    inst = generate_planted(params, seed=7)
    X, Y = inst.x, inst.y
    o = inst.empirical
    base = tcc(X, Y, o.phi, o.psi)
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(50):
        G = random_orthogonal(3, rng) @ np.diag(rng.uniform(0.5, 2.0, 3))
        G = G @ random_orthogonal(3, rng)
        if rng.integers(2):
            dev = abs(tcc(X, Y, o.phi @ G, o.psi) - base)
        else:
            dev = abs(tcc(X, Y, o.phi, o.psi @ G) - base)
        worst = max(worst, dev)
    invariance_ok = worst <= 1e-8
    self_pcc = pcc(X, Y, (o.phi, o.psi), (o.phi, o.psi))
    self_ok = abs(self_pcc - 1.0) <= 1e-8
    cfg = SolverConfig(solver="appgrad", k=2, holdout=0.25, seed=0, record_every=50)
    result = run_experiment(cfg, x=X, y=Y)
    holdout_ok = bool(np.isfinite(result.pcc_holdout))
    ok = invariance_ok and self_ok and holdout_ok
    report_line(10, "metric properties", ok,
                f"max remix deviation={worst:.2e}, self PCC={self_pcc:.10f}, "
                f"holdout PCC={result.pcc_holdout:.4f}")


def test_11_determinism_and_io(tmp_path, report_line):
    """Reports reproduce byte-for-byte; both file formats round-trip."""
    params = PlantedParams(n=300, p1=10, p2=10, correlations=(0.9, 0.5))
    blobs = []
    for name in ("one.txt", "two.txt"):
        cfg = SolverConfig(solver="stochastic-appgrad", k=2, seed=5,
                           batch_size=75, max_iters=40)
        path = tmp_path / name
        run_experiment(cfg, planted=params, report_path=path)
        blobs.append(path.read_bytes())
    deterministic = blobs[0] == blobs[1]

    rng = np.random.default_rng(1100)
    dense = rng.standard_normal((30, 7))
    csv_path = tmp_path / "x.csv"
    save_csv(csv_path, dense)
    back = load_csv(csv_path).values
    v = rng.standard_normal(7)
    csv_gap = np.linalg.norm(back @ v - dense @ v)

    sparse = dense.copy()
    sparse[np.abs(sparse) < 1.0] = 0.0
    mm_path = tmp_path / "x.mtx"
    save_matrix_market(mm_path, sparse)
    sback = load_dataset(mm_path, fmt="matrix-market").values
    mm_gap = np.linalg.norm(sback @ v - sparse @ v)

    ok = deterministic and csv_gap < 1e-12 and mm_gap < 1e-12
    report_line(11, "determinism and I/O", ok,
                f"reports identical={deterministic}, csv gap={csv_gap:.2e}, "
                f"matrix-market gap={mm_gap:.2e}")
