"""The three benchmark workloads: inputs built from a seed, one closed-loop
operation, and the checks on its outputs.

Every call into ccakit goes through a module attribute looked up at call
time (``appgrad.run_appgrad``), so a traced run reaches the wrappers that
`tracer.Tracer` installs.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ccakit import appgrad, harness, io, planted, stochastic
from ccakit.harness import SolverConfig
from ccakit.kernels import KernelSpec

BUILDS = 3          # set-ups per run; setup_s is their median
PCC_TARGET = 0.95   # acceptance 06 bound on the final PCC
AGREE_RTOL = 1e-8   # spectral vs qr agreement on csv-compare

RANK5 = dict(n=20000, p1=100, p2=100, correlations=(0.9, 0.8, 0.7, 0.6, 0.5),
             latent_rotate=True)


def data_seeds(seed):
    """The BUILDS input seeds of a run, determined by the workload seed."""
    return [int(s >> 1) for s in np.random.SeedSequence(seed).generate_state(BUILDS)]


def solve_seed(seed, i):
    """Solver seed (initialization, sampling) of operation i."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0] >> 1)


@dataclass
class Solve:
    """Outcome of one solve after its checks."""

    solver: str
    ok: bool
    pcc: float = math.nan
    iters_to_pcc95: float = None
    flops_to_pcc95: int = None
    iterations: int = 0
    error: str = None


def attempt(solver, fn):
    """Run one solve as (solver, result, error); an exception is recorded
    as the error instead of ending the run."""
    try:
        return solver, fn(), None
    except Exception as exc:  # the benchmark counts the failure and keeps going
        return solver, None, f"{type(exc).__name__}: {exc}"


def finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def crossing(records, target=PCC_TARGET):
    """Iteration at which the recorded PCC first reaches `target`, linearly
    interpolated between the two records that bracket it; None if never.
    Interpolation keeps the record spacing (5 or 10 iterations) from
    quantising the figure."""
    prev = None
    for rec in records:
        if rec.pcc_train >= target:
            if prev is None:
                return float(rec.t)
            frac = (target - prev.pcc_train) / (rec.pcc_train - prev.pcc_train)
            return prev.t + frac * (rec.t - prev.t)
        prev = rec
    return None


class Rank5:
    """Inputs shared by the batch and minibatch workloads: the acceptance 06
    planted instance, built with its spectral oracle."""

    name = None
    params = planted.PlantedParams(cond_x=3.0, cond_y=3.0, **RANK5)

    def build(self, data_seed, workdir):
        return planted.generate_planted(self.params, seed=data_seed)

    def check(self, inputs, i, outs):
        return [self._check(*o) for o in outs]

    @staticmethod
    def _check(solver, out, error):
        if error is not None:
            return Solve(solver, False, error=error)
        model, report = out
        pcc = report.records[-1].pcc_train
        solve = Solve(solver, False, pcc=pcc, iters_to_pcc95=crossing(report.records),
                      flops_to_pcc95=next((r.flops for r in report.records
                                           if r.pcc_train >= PCC_TARGET), None),
                      iterations=report.final_state.t)
        if not finite(model.phi, model.psi, model.lam):
            solve.error = "non-finite model"
        elif not np.isfinite(pcc):
            solve.error = "final PCC is NaN"
        elif pcc < PCC_TARGET:
            solve.error = f"final PCC {pcc:.4f} < {PCC_TARGET}"
        else:
            solve.ok = True
        return solve

    def bytes_read(self, inputs, i):
        return 0

    def working_set_mb(self, inputs):
        n, p = self.params.n, self.params.p1 + self.params.p2
        return {"views": 8 * n * p / 1e6, "nxk_products": 8 * n * 5 * 4 / 1e6}


class BatchRank5(Rank5):
    name = "batch-rank5"

    def op(self, inputs, seed, i):
        inst = inputs[i % len(inputs)]
        s = solve_seed(seed, i)
        return [attempt("appgrad", lambda: appgrad.run_appgrad(
            inst.x, inst.y, 5, seed=s, max_iters=200, record_every=5,
            oracle=inst.empirical))]


class MinibatchM500(Rank5):
    name = "minibatch-m500"
    m = 500

    def op(self, inputs, seed, i):
        inst = inputs[i % len(inputs)]
        s = solve_seed(seed, i)

        def solve():
            eta0 = appgrad.default_step(inst.x, inst.y, seed=s).eta1
            plan = stochastic.MinibatchPlan(m=self.m, mode="without-replacement", seed=s)
            schedule = stochastic.StepSchedule("constant", eta0=eta0)
            return stochastic.run_stochastic(
                inst.x, inst.y, 5, plan, schedule, max_iters=600, seed=s,
                oracle=inst.empirical, record_every=10)

        return [attempt("stochastic-appgrad", solve)]

    def working_set_mb(self, inputs):
        ws = super().working_set_mb(inputs)
        ws["gathered_batch"] = 8 * self.m * (self.params.p1 + self.params.p2) / 1e6
        return ws


@dataclass
class CsvPair:
    x: Path
    y: Path
    digest_x: str
    digest_y: str


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


class CsvCompare:
    name = "csv-compare"
    params = planted.PlantedParams(cond_x=31.6, cond_y=31.6, **RANK5)
    solvers = ("spectral", "qr", "nw", "dw", "pca-cca")
    kernel_n = 600
    kernel_sigma = 100.0   # about 0.6 of the median row distance of these views

    def build(self, data_seed, workdir):
        inst = planted.generate_planted(self.params, seed=data_seed)
        folder = Path(workdir) / f"pair-{data_seed}"
        folder.mkdir(parents=True, exist_ok=True)
        pair = CsvPair(folder / "x.csv", folder / "y.csv", digest(inst.x), digest(inst.y))
        io.save_csv(pair.x, inst.x)
        io.save_csv(pair.y, inst.y)
        return pair

    def op(self, inputs, seed, i):
        """Load both views, run the five solvers with report and model files,
        then one RBF kernel run on the first kernel_n rows. The first entry
        is the load, as ("load", (X, Y), error)."""
        pair = inputs[i % len(inputs)]
        s = solve_seed(seed, i)
        out_dir = pair.x.parent
        load = attempt("load", lambda: (io.load_csv(pair.x), io.load_csv(pair.y)))
        if load[2] is not None:
            return [load]
        X, Y = load[1]
        outs = [load]
        for name in self.solvers:
            config = SolverConfig(solver=name, k=5, seed=s)
            outs.append(attempt(name, lambda: harness.run_experiment(
                config, x=X, y=Y, report_path=out_dir / f"{name}.report",
                model_prefix=out_dir / name)))
        config = SolverConfig(solver="kernel-appgrad", k=2, max_iters=300, seed=s,
                              kernel=KernelSpec("rbf", sigma=self.kernel_sigma))
        Xk, Yk = X.values[: self.kernel_n], Y.values[: self.kernel_n]
        outs.append(attempt("kernel-appgrad", lambda: harness.run_experiment(
            config, x=Xk, y=Yk, report_path=out_dir / "kernel.report",
            model_prefix=out_dir / "kernel")))
        return outs

    def check(self, inputs, i, outs):
        """One outcome per solver. A failed or wrong load fails them all."""
        pair = inputs[i % len(inputs)]
        _, loaded, load_error = outs[0]
        results = {name: (res, err) for name, res, err in outs[1:]}
        if load_error is None and (digest(loaded[0].values) != pair.digest_x
                                   or digest(loaded[1].values) != pair.digest_y):
            load_error = "load_csv did not return the values that were written"
        solves = {}
        for name in self.solvers + ("kernel-appgrad",):
            res, error = results.get(name, (None, load_error))
            if load_error is not None or error is not None:
                solves[name] = Solve(name, False, error=load_error or error)
                continue
            solve = solves[name] = Solve(name, False, pcc=res.pcc_train)
            if res.pcc_train >= PCC_TARGET:
                solve.iters_to_pcc95 = float(res.report.records[0].t)
            if not finite(res.model.phi, res.model.psi, res.model.lam):
                solve.error = "non-finite model"
            elif name != "kernel-appgrad" and not np.isfinite(res.pcc_train):
                solve.error = "PCC is NaN (oracle missing)"
            else:
                solve.ok = True
        if solves["spectral"].ok and solves["qr"].ok:
            a, b = results["spectral"][0].model, results["qr"][0].model
            if not all(np.allclose(u, v, rtol=AGREE_RTOL, atol=AGREE_RTOL * np.abs(u).max())
                       for u, v in ((a.lam, b.lam), (a.phi, b.phi), (a.psi, b.psi))):
                for solve in (solves["spectral"], solves["qr"]):
                    solve.ok, solve.error = False, "spectral and qr disagree"
        return list(solves.values())

    def bytes_read(self, inputs, i):
        pair = inputs[i % len(inputs)]
        return pair.x.stat().st_size + pair.y.stat().st_size

    def working_set_mb(self, inputs):
        n, p = self.params.n, self.params.p1 + self.params.p2
        return {"csv_text": self.bytes_read(inputs, 0) / 1e6,
                "views": 8 * n * p / 1e6,
                "kernel_grams": 2 * 8 * self.kernel_n**2 / 1e6}


WORKLOADS = {w.name: w for w in (BatchRank5(), MinibatchM500(), CsvCompare())}
