"""Experiment driver: configuration, solver dispatch, oversampling, holdout
evaluation, and report/model emission."""

from dataclasses import dataclass, asdict
from functools import partial

from . import io
from .appgrad import default_step, extract_model, random_init, run_appgrad
from .baselines import dw_cca, nw_cca, pca_cca
from .kernels import KernelSpec, kernel_gram, kernel_ridge
from .linalg import SingularMatrixError, as_matrix
from .metrics import RunReport, moments, pcc_of, split_holdout, tcc, tcc_evaluator
from .planted import generate_planted
from .reference import CcaModel, als_cca, qr_cca, spectral_from_moments
from .stochastic import MinibatchPlan, StepSchedule, run_stochastic


@dataclass(frozen=True)
class Solver:
    """How run_experiment runs one solver. ``run(config, X, Y, k_run, oracle,
    holdout, M)`` returns a CcaModel, or (model, report) when ``traced`` (the
    report then takes the entry's name); M is ``metrics.moments(X, Y)``.
    ``views(config, X, Y)``, if given, maps the data to the pair that the
    solver and the metrics act on; the primal spectral oracle does not apply
    to such views, so neither it nor M is computed."""

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


def _stochastic(c, X, Y, k_run, oracle, holdout, **_):
    eta0 = c.eta if c.eta is not None else default_step(X, Y, c.lam, seed=c.seed).eta1
    return run_stochastic(
        X, Y, k_run, MinibatchPlan(m=min(c.batch_size, X.shape[0]), seed=c.seed),
        StepSchedule(kind=c.schedule, eta0=eta0), lam=c.lam, max_iters=c.max_iters,
        seed=c.seed, oracle=oracle, record_every=c.record_every, holdout=holdout,
    )


def _pca_cca(c, X, Y, k_run, **_):
    m = min(4 * c.k, *X.shape, Y.shape[1])
    return pca_cca(X, Y, k_run, m=max(m, k_run), lam=c.lam, seed=c.seed)


def _grams(c, X, Y):
    spec = c.kernel or KernelSpec("linear")
    return kernel_gram(X, spec).values, kernel_gram(Y, spec).values


def _kernel_appgrad(c, Kx, Ky, k_run, **_):
    return run_appgrad(Kx, Ky, k_run, eta=c.eta, lam=c.lam or kernel_ridge(Kx, Ky),
                       max_iters=c.max_iters, tol=c.tol, seed=c.seed,
                       record_every=c.record_every or 1)


SOLVERS = {
    "spectral": Solver(lambda c, X, Y, k_run, M, **_: spectral_from_moments(M, k_run, c.lam)),
    "qr": Solver(lambda c, X, Y, k_run, **_: qr_cca(X, Y, k_run, lam=c.lam)),
    "als": Solver(_als),
    "appgrad": Solver(_appgrad, traced=True),
    "stochastic-appgrad": Solver(_stochastic, traced=True),
    "nw": Solver(lambda c, X, Y, k_run, **_: nw_cca(X, Y, k_run, seed=c.seed)),
    "dw": Solver(lambda c, X, Y, k_run, **_: dw_cca(X, Y, k_run, lam=c.lam, seed=c.seed)),
    "pca-cca": Solver(_pca_cca),
    "kernel-appgrad": Solver(_kernel_appgrad, traced=True, views=_grams),
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
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def snapshot(self):
        """The set fields, the kernel as the text ``KernelSpec.parse`` reads."""
        d = asdict(self) | {"kernel": None if self.kernel is None else str(self.kernel)}
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


def _scored(X, Y, k, lam):
    """(M, evaluate, oracle) of a pair: M = moments(X, Y), built once, ``tcc_evaluator(X, Y, M)``
    and the rank-k spectral oracle from M, None when a view is singular at lam = 0."""
    M = moments(X, Y)
    try:
        oracle = spectral_from_moments(M, k, lam)
    except SingularMatrixError:
        oracle = None
    return M, tcc_evaluator(X, Y, M), oracle


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
        (X, Y), holdout_pair = split_holdout(X, Y, config.holdout, config.seed)

    solver = SOLVERS[config.solver]
    if solver.views:
        X, Y = solver.views(config, X, Y)
    k = config.k
    k_run = min(k + config.oversample, X.shape[1], Y.shape[1])
    if k_run < k:
        raise ValueError(f"k={k} exceeds the view widths {X.shape[1]}, {Y.shape[1]}")
    if solver.views:
        M, evaluate, oracle = None, partial(tcc, X, Y), None
    else:  # the exact oracle is affordable at desk scale
        M, evaluate, oracle = _scored(X, Y, k, config.lam)
    oracle_tcc = None if oracle is None else evaluate(oracle.phi, oracle.psi)

    model = solver.run(config, X, Y, k_run, oracle=oracle, holdout=holdout_pair, M=M)
    if solver.traced:
        model, report = model
    else:
        report = RunReport(solver=config.solver, seed=config.seed)
    # a traced solver's resolved step sizes and applied ridge stay, so the header re-runs the run
    resolved = {key: float(report.config[key]) for key in ("eta0", "eta1", "eta2", "lam")
                if key in report.config}
    report.solver, report.config = config.solver, config.snapshot() | resolved

    model = extract_best_k(X, Y, model, k)
    result = ExperimentResult(model=model, report=report, oracle=oracle)
    result.tcc_train = evaluate(model.phi, model.psi)
    if not solver.traced:  # the one row scores the returned rank-k model
        report.record(1, 0, result.tcc_train, oracle_tcc)
    if oracle is not None:
        result.pcc_train = pcc_of(result.tcc_train, oracle_tcc)
        if holdout_pair is not None:
            _, evaluate_h, oracle_h = _scored(*holdout_pair, k, config.lam)
            if oracle_h is not None:
                result.pcc_holdout = pcc_of(evaluate_h(model.phi, model.psi),
                                            evaluate_h(oracle_h.phi, oracle_h.psi))
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
