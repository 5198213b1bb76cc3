"""Experiment driver: configuration, solver dispatch, oversampling, holdout
evaluation, and report/model emission."""

from dataclasses import dataclass, asdict

import numpy as np

from . import io
from .appgrad import default_step, extract_model, random_init, run_appgrad
from .baselines import dw_cca, nw_cca, pca_cca
from .kernels import KernelGram, KernelSpec, kernel_cca, kernel_gram
from .linalg import SingularMatrixError, as_matrix
from .metrics import IterationRecord, RunReport, pcc, tcc
from .planted import generate_planted
from .reference import CcaModel, als_cca, qr_cca, spectral_cca
from .stochastic import MinibatchPlan, StepSchedule, run_stochastic


@dataclass(frozen=True)
class Solver:
    """How run_experiment runs one solver. ``run(config, X, Y, k_run, oracle,
    holdout)`` returns a CcaModel, or (model, report) when ``traced``.
    ``views(config, X, Y)``, if given, maps the data to the pair that the
    solver and the metrics act on; the primal spectral oracle does not apply
    to such views, so none is computed."""

    run: object
    traced: bool = False
    views: object = None


def _als(c, X, Y, k_run, **_):
    if c.k != 1:
        raise ValueError("als solves the leading pair only; set k=1")
    init = random_init(X, Y, 1, c.seed, c.lam)
    return als_cca(X, Y, (init.phi[:, 0], init.psi[:, 0]),
                   max_iters=c.max_iters, tol=c.tol, lam=c.lam)


def _appgrad(c, X, Y, k_run, oracle, **_):
    return run_appgrad(X, Y, k_run, eta=c.eta, lam=c.lam, max_iters=c.max_iters,
                       tol=c.tol, seed=c.seed, oracle=oracle,
                       record_every=c.record_every or 1)


def _stochastic(c, X, Y, k_run, oracle, holdout):
    eta0 = c.eta if c.eta is not None else default_step(X, Y, c.lam, seed=c.seed).eta1
    return run_stochastic(
        X, Y, k_run, MinibatchPlan(m=min(c.batch_size, X.shape[0]), seed=c.seed),
        StepSchedule(kind=c.schedule, eta0=eta0), lam=c.lam, max_iters=c.max_iters,
        seed=c.seed, oracle=oracle, record_every=c.record_every, holdout=holdout,
    )


def _pca_cca(c, X, Y, k_run, **_):
    m = c.pca_m if c.pca_m is not None else min(4 * c.k, *X.shape, Y.shape[1])
    return pca_cca(X, Y, k_run, m=max(m, k_run), lam=c.lam, seed=c.seed)


def _grams(c, X, Y):
    spec = c.kernel or KernelSpec("linear")
    return kernel_gram(X, spec).values, kernel_gram(Y, spec).values


def _kernel_appgrad(c, Kx, Ky, k_run, **_):
    spec = c.kernel or KernelSpec("linear")
    Wx, Wy, lams = kernel_cca(
        KernelGram(Kx, spec), KernelGram(Ky, spec), k_run, lam=c.lam or None,
        eta=c.eta, max_iters=c.max_iters, tol=c.tol, seed=c.seed,
    )
    return CcaModel(Wx, Wy, lams)


SOLVERS = {
    "spectral": Solver(lambda c, X, Y, k_run, **_: spectral_cca(X, Y, k_run, lam=c.lam)),
    "qr": Solver(lambda c, X, Y, k_run, **_: qr_cca(X, Y, k_run, lam=c.lam)),
    "als": Solver(_als),
    "appgrad": Solver(_appgrad, traced=True),
    "stochastic-appgrad": Solver(_stochastic, traced=True),
    "nw": Solver(lambda c, X, Y, k_run, **_: nw_cca(X, Y, k_run, seed=c.seed)),
    "dw": Solver(lambda c, X, Y, k_run, **_: dw_cca(X, Y, k_run, lam=c.lam, seed=c.seed)),
    "pca-cca": Solver(_pca_cca),
    "kernel-appgrad": Solver(_kernel_appgrad, views=_grams),
}


@dataclass
class SolverConfig:
    """Resolved run configuration; embedded verbatim in every report."""

    solver: str = "appgrad"
    k: int = 2
    oversample: int = 0
    lam: float = 0.0
    eta: float = None            # None -> solver default / theory-free estimate
    schedule: str = "constant"
    batch_size: int = 100
    max_iters: int = 2000
    tol: float = 1e-7
    seed: int = 0
    holdout: float = 0.0
    kernel: KernelSpec = None
    pca_m: int = None
    record_every: int = None

    def validate(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {', '.join(SOLVERS)}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.oversample < 0 or self.lam < 0:
            raise ValueError("oversample and lam must be nonnegative")
        if not (0.0 <= self.holdout <= 0.5):
            raise ValueError("holdout fraction must be in [0, 0.5]")

    def snapshot(self):
        d = asdict(self)
        if d.get("kernel"):
            d["kernel"] = f"{self.kernel.kind}"
        return {k: v for k, v in d.items() if v is not None}


@dataclass
class ExperimentResult:
    model: CcaModel
    report: RunReport
    oracle: CcaModel = None
    tcc_train: float = float("nan")
    pcc_train: float = float("nan")
    pcc_holdout: float = float("nan")


def extract_best_k(X, Y, model, k):
    """The k directions of a (k+l)-rank model that capture the most correlation."""
    return model if model.k <= k else extract_model(X, Y, model, k)


def _split_holdout(X, Y, fraction, seed):
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = int(round(fraction * n))
    hold, train = perm[:n_hold], perm[n_hold:]
    return (X[train], Y[train]), (X[hold], Y[hold])


def run_experiment(config, x=None, y=None, planted=None,
                   report_path=None, trace_path=None, model_prefix=None):
    """Dispatch one solver run and evaluate it.

    Data comes either from (x, y) matrices or from PlantedParams. The solver
    is run at rank k + oversample and the best k directions are extracted.
    Returns an ExperimentResult; optionally writes the report, the (FLOP, PCC)
    trace, and the canonical-vector matrices.
    """
    config.validate()
    if planted is not None:
        instance = generate_planted(planted, seed=config.seed)
        x, y = instance.x, instance.y
    if x is None or y is None:
        raise ValueError("provide either (x, y) or planted parameters")
    X, Y = as_matrix(x), as_matrix(y)

    holdout_pair = None
    if config.holdout > 0:
        (X, Y), holdout_pair = _split_holdout(X, Y, config.holdout, config.seed)

    k = config.k
    k_run = min(k + config.oversample, X.shape[1], Y.shape[1])
    if k_run < k:
        raise ValueError(f"k={k} exceeds the view widths {X.shape[1]}, {Y.shape[1]}")
    solver = SOLVERS[config.solver]
    oracle = None
    if solver.views:
        X, Y = solver.views(config, X, Y)
    else:
        # exact oracle for PCC is affordable at desk scale; recomputed on the
        # training split so holdout PCC follows the same convention
        try:
            oracle = spectral_cca(X, Y, k, lam=config.lam)
        except SingularMatrixError:
            pass  # a singular view with lam = 0 leaves PCC undefined

    if solver.traced:
        model, report = solver.run(config, X, Y, k_run, oracle=oracle, holdout=holdout_pair)
    else:
        model = solver.run(config, X, Y, k_run, oracle=oracle, holdout=holdout_pair)
        report = RunReport(solver=config.solver, seed=config.seed)
        report.records.append(
            IterationRecord(t=1, flops=0, tcc_train=tcc(X, Y, model.phi, model.psi))
        )
    report.config = config.snapshot()

    model = extract_best_k(X, Y, model, k)
    result = ExperimentResult(model=model, report=report, oracle=oracle)
    result.tcc_train = tcc(X, Y, model.phi, model.psi)
    if oracle is not None:
        result.pcc_train = pcc(X, Y, (model.phi, model.psi), (oracle.phi, oracle.psi))
        if holdout_pair is not None:
            Xh, Yh = holdout_pair
            oracle_h = spectral_cca(Xh, Yh, k, lam=config.lam)
            result.pcc_holdout = pcc(
                Xh, Yh, (model.phi, model.psi), (oracle_h.phi, oracle_h.psi)
            )
    report.validate()
    if report_path:
        report.write(report_path)
    if trace_path:
        report.write_pcc_curve(trace_path)
    if model_prefix:
        io.save_model_matrix(f"{model_prefix}.phi.txt", model.phi)
        io.save_model_matrix(f"{model_prefix}.psi.txt", model.psi)
    return result


def parse_config_file(path):
    """Flat key-value config: one 'key = value' per line, '#' comments."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out
