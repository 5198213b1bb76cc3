"""Experiment driver: configuration, solver dispatch, oversampling, holdout
evaluation, and report/model emission."""

from dataclasses import asdict, dataclass, replace
from math import inf, isfinite

from . import io
from .appgrad import default_step, random_init, run_appgrad
from .baselines import dw_cca, nw_cca, pca_cca
from .kernels import KernelSpec, kernel_gram, kernel_ridge
from .linalg import check_rank, check_ridge
from .metrics import RunReport, Views, pcc_of
from .planted import generate_planted
from .reference import CcaModel, als_cca, qr_cca, spectral_cca
from .stochastic import MinibatchPlan, StepSchedule, run_stochastic


@dataclass(frozen=True)
class Solver:
    """How run_experiment runs one solver. ``run(config, views, k_run, oracle, holdout)``, on the
    ``metrics.Views`` of the run and of its held-out rows (or None), returns a CcaModel, or
    (model, report) when ``traced`` (the report then takes the entry's name). ``grams(config, X,
    Y)``, if given, maps the data to the Gram pair that the solver and the metrics act on."""

    run: object
    traced: bool = False
    grams: object = None


def _als(c, v, k_run, **_):
    init = random_init(v, None, 1, c.seed, c.lam)
    return als_cca(v, None, (init.phi[:, 0], init.psi[:, 0]),
                   max_iters=c.max_iters, tol=c.tol, lam=c.lam)


def _appgrad(c, v, k_run, oracle, **_):
    return run_appgrad(v, None, k_run, eta=c.eta, lam=c.lam, max_iters=c.max_iters,
                       tol=c.tol, seed=c.seed, oracle=oracle,
                       record_every=c.record_every or 1)


def _stochastic(c, v, k_run, oracle, holdout, **_):
    eta0 = c.eta if c.eta is not None else default_step(v, None, c.lam, c.seed).eta1
    return run_stochastic(
        v, None, k_run, MinibatchPlan(m=min(c.batch_size, v.X.shape[0]), seed=c.seed),
        StepSchedule(kind=c.schedule, eta0=eta0), lam=c.lam, max_iters=c.max_iters,
        seed=c.seed, oracle=oracle, record_every=c.record_every, holdout=holdout,
    )


def _pca_cca(c, v, k_run, **_):
    m = min(4 * c.k, *v.X.shape, v.Y.shape[1])
    return pca_cca(v, None, k_run, m=max(m, k_run), lam=c.lam, seed=c.seed)


def _grams(c, X, Y):
    spec = c.kernel or KernelSpec("linear")
    return kernel_gram(X, spec).values, kernel_gram(Y, spec).values


def _kernel_appgrad(c, v, k_run, **_):
    return run_appgrad(v, None, k_run, eta=c.eta, lam=c.lam or kernel_ridge(v.X, v.Y),
                       max_iters=c.max_iters, tol=c.tol, seed=c.seed,
                       record_every=c.record_every or 1)


SOLVERS = {
    "spectral": Solver(lambda c, v, k_run, **_: spectral_cca(v, None, k_run, c.lam)),
    "qr": Solver(lambda c, v, k_run, **_: qr_cca(v, None, k_run, lam=c.lam)),
    "als": Solver(_als),
    "appgrad": Solver(_appgrad, traced=True),
    "stochastic-appgrad": Solver(_stochastic, traced=True),
    "nw": Solver(lambda c, v, k_run, **_: nw_cca(v, None, k_run, seed=c.seed)),
    "dw": Solver(lambda c, v, k_run, **_: dw_cca(v, None, k_run, lam=c.lam, seed=c.seed)),
    "pca-cca": Solver(_pca_cca),
    "kernel-appgrad": Solver(_kernel_appgrad, traced=True, grams=_grams),
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
    tol: float = 1e-7            # bound on the RMS movement of X phi, Y psi per step; unit-free
    seed: int = 0
    holdout: float = 0.0
    kernel: KernelSpec = None
    record_every: int = None

    def validate(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {', '.join(SOLVERS)}")
        if self.schedule not in StepSchedule.KINDS:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        check_rank(self.k, inf)  # the data's widths bound it once they are known
        if self.solver == "als" and self.k != 1:
            raise ValueError("als solves the leading pair only; set k=1")
        if self.oversample < 0:
            raise ValueError("oversample must be nonnegative")
        check_ridge(self.lam)
        if not (0.0 <= self.holdout <= 0.5):
            raise ValueError("holdout fraction must be in [0, 0.5]")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eta is not None and not 0 < self.eta < inf:  # a zero step never moves the init
            raise ValueError("eta must be positive and finite")
        if not isfinite(self.tol):
            raise ValueError("tol must be finite")

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


def extract_best_k(model, k):
    """The k directions of a (k+l)-rank model that capture the most correlation: its leading k,
    as every solver sorts its directions so (see ``reference.CcaModel``)."""
    return replace(model, phi=model.phi[:, :k], psi=model.psi[:, :k], lam=model.lam[:k])


def _oracle(views, k, lam):
    """The rank-k spectral oracle of ``views``; None at lam = 0 when ``Views.singular`` judges a
    view Gram singular, as ``spectral_cca`` would then raise."""
    return None if lam == 0 and any(views.singular) else spectral_cca(views, None, k, lam)


def run_experiment(config, x=None, y=None, planted=None,
                   report_path=None, trace_path=None, model_prefix=None):
    """Dispatch one solver run and evaluate it.

    Data comes either from (x, y) matrices, from a ``metrics.Views`` x (y then None), whose
    moments, moment pair and holdout splits then serve every run given it, or from
    PlantedParams. Every solver and the oracle read the run's ``Views``. The solver
    is run at rank k + oversample and returns its directions sorted by the correlation they
    capture, so the best k are its leading k, kept by truncation (``extract_best_k``).
    Returns an ExperimentResult; optionally writes the report, the (FLOP, PCC)
    trace, and the canonical-vector matrices.
    """
    config.validate()
    if planted is not None:
        instance = generate_planted(planted, seed=config.seed)
        x, y = instance.x, instance.y
    if x is None or (y is None and not isinstance(x, Views)):
        raise ValueError("provide either (x, y) or planted parameters")
    views = Views.of(x, y)
    views, hold = views.split(config.holdout, config.seed) if config.holdout else (views, None)

    solver = SOLVERS[config.solver]
    if solver.grams:
        views = Views(*solver.grams(config, views.X, views.Y))
    X, Y, k = views.X, views.Y, config.k
    check_rank(k, X.shape[1], Y.shape[1])
    k_run = min(k + config.oversample, X.shape[1], Y.shape[1])
    # the exact oracle is affordable at desk scale; it does not apply to a Gram pair
    oracle = None if solver.grams else _oracle(views, k, config.lam)
    oracle_tcc = None if oracle is None else views.evaluate(oracle.phi, oracle.psi)

    model = solver.run(config, views, k_run, oracle=oracle, holdout=hold)
    if solver.traced:
        model, report = model
    else:
        report = RunReport(solver=config.solver, seed=config.seed)
    # a traced solver's resolved step sizes and applied ridge stay, so the header re-runs the run
    resolved = {key: float(report.config[key]) for key in ("eta0", "eta1", "eta2", "lam")
                if key in report.config}
    report.solver, report.config = config.solver, config.snapshot() | resolved

    model = extract_best_k(model, k)
    result = ExperimentResult(model=model, report=report, oracle=oracle)
    result.tcc_train = views.evaluate(model.phi, model.psi)
    if not solver.traced:  # the one row scores the returned rank-k model
        report.record(1, 0, result.tcc_train, oracle_tcc)
    if oracle is not None:
        result.pcc_train = pcc_of(result.tcc_train, oracle_tcc)
        oracle_h = None if hold is None else _oracle(hold, k, config.lam)
        if oracle_h is not None:
            result.pcc_holdout = pcc_of(hold.evaluate(model.phi, model.psi),
                                        hold.evaluate(oracle_h.phi, oracle_h.psi))
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
