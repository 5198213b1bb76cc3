"""Every entry that takes a ridge lam, a rank k or a view pair rejects a bad one with the
ValueError of that rule's one home in ``linalg`` (``check_ridge``, ``check_rank``, ``check_rows``),
before it takes any n-sized product."""

import numpy as np
import pytest

from ccakit import appgrad, baselines, harness, kernels, linalg, metrics, reference, stochastic
from ccakit.appgrad import default_step, random_init, run_appgrad
from ccakit.baselines import dw_cca, nw_cca, pca_cca
from ccakit.harness import SolverConfig, run_experiment
from ccakit.kernels import KernelSpec, kernel_cca, kernel_gram
from ccakit.linalg import cross_covariance, gram, gram_diagonal, randomized_svd
from ccakit.metrics import Views, split_holdout
from ccakit.reference import als_cca, naive_gradient_step, qr_cca, spectral_cca
from ccakit.stochastic import MinibatchPlan, StepSchedule, cross_validate_step, run_stochastic

from conftest import CountingArray

_rng = np.random.default_rng(0)
X, Y = _rng.standard_normal((40, 4)), _rng.standard_normal((40, 3))  # narrow: the moment pair
XW, YW = _rng.standard_normal((30, 8)), _rng.standard_normal((30, 8))  # wide: the rows
KX, KY, KY_SHORT = (kernel_gram(A, KernelSpec("linear")) for A in (X, Y, Y[:-1]))
PLAN, SCHEDULE = MinibatchPlan(m=10), StepSchedule(eta0=0.1)


def cut(A, short):
    """A, less its last row if ``short``."""
    return A[:-1] if short else A


# name: (the rules the entry takes, its bound on k, call(lam, k, short)); ``short`` cuts the
# last row of the second view
ENTRIES = {
    "gram": ("ridge", None, lambda lam, k, short: gram(X, lam)),
    "gram_diagonal": ("ridge", None, lambda lam, k, short: gram_diagonal(X, lam)),
    "cross_covariance": ("rows", None, lambda lam, k, short: cross_covariance(X, cut(Y, short))),
    "Views": ("rows", None, lambda lam, k, short: Views(X, cut(Y, short))),
    "split_holdout": ("rows", None,
                      lambda lam, k, short: split_holdout(X, cut(Y, short), 0.2, 0)),
    "randomized_svd": ("rank", 4, lambda lam, k, short: randomized_svd(X, k)),
    "spectral_cca": ("ridge rank rows", 3,
                     lambda lam, k, short: spectral_cca(X, cut(Y, short), k, lam)),
    "qr_cca": ("ridge rank rows", 3, lambda lam, k, short: qr_cca(X, cut(Y, short), k, lam)),
    "als_cca": ("ridge rows", None, lambda lam, k, short: als_cca(
        X, cut(Y, short), (np.ones(4), np.ones(3)), lam=lam)),
    "naive_gradient_step": ("rows", None, lambda lam, k, short: naive_gradient_step(
        np.ones(4), np.ones(3), 0.1, 0.1, X, cut(Y, short))),
    "nw_cca": ("rank rows", 3, lambda lam, k, short: nw_cca(X, cut(Y, short), k)),
    "dw_cca": ("ridge rank rows", 3, lambda lam, k, short: dw_cca(X, cut(Y, short), k, lam)),
    "pca_cca": ("ridge rank rows", 3,
                lambda lam, k, short: pca_cca(X, cut(Y, short), k, 3, lam=lam)),
    "random_init": ("ridge rank rows", 3,
                    lambda lam, k, short: random_init(X, cut(Y, short), k, 0, lam)),
    "default_step": ("ridge rows", None, lambda lam, k, short: default_step(X, cut(Y, short), lam)),
    "run_appgrad": ("ridge rank rows", 3,
                    lambda lam, k, short: run_appgrad(X, cut(Y, short), k, lam=lam)),
    "run_appgrad-wide": ("ridge rank rows", 8,
                         lambda lam, k, short: run_appgrad(XW, cut(YW, short), k, lam=lam)),
    "run_stochastic": ("ridge rank rows", 3, lambda lam, k, short: run_stochastic(
        X, cut(Y, short), k, PLAN, SCHEDULE, lam=lam)),
    "kernel_cca": ("ridge rank rows", 40, lambda lam, k, short: kernel_cca(
        KX, KY_SHORT if short else KY, k, lam=lam)),
    "cross_validate_step": ("rank rows", 3,
                            lambda lam, k, short: cross_validate_step(X, cut(Y, short), k, [0.1])),
    "run_experiment": ("ridge rank rows", 3, lambda lam, k, short: run_experiment(
        SolverConfig(solver="appgrad", k=k, lam=lam), x=X, y=cut(Y, short))),
}
MESSAGES = {"ridge": "regularization must be nonnegative", "rank": "out of range",
            "rows": "same number of rows"}
CASES = [(name, rule, value) for name, (rules, bound, _) in ENTRIES.items()
         for rule, values in (("ridge", (-0.05, np.nan, np.inf)),
                              ("rank", (0, (bound or 0) + 1)), ("rows", (True,)))
         if rule in rules.split() for value in values]


@pytest.fixture
def counted(monkeypatch):
    """Every view the package reads counts the products taken with it, and ``qr_cca``'s QR of
    its rows counts as one, from 0."""
    original, qr = linalg.as_matrix, reference.householder_qr
    for module in (appgrad, baselines, harness, kernels, linalg, metrics, reference, stochastic):
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", lambda A: original(A).view(CountingArray))

    def counting_qr(A):
        CountingArray.products += 1
        return qr(A)

    monkeypatch.setattr(reference, "householder_qr", counting_qr)
    CountingArray.products = 0


@pytest.mark.parametrize("name, rule, value", CASES,
                         ids=[f"{name}-{rule}-{value}" for name, rule, value in CASES])
def test_a_bad_input_raises_its_rule_before_any_n_sized_product(counted, name, rule, value):
    args = {"lam": 0.0, "k": 2, "short": False} | {{"ridge": "lam", "rank": "k",
                                                     "rows": "short"}[rule]: value}
    with pytest.raises(ValueError, match=MESSAGES[rule]):
        ENTRIES[name][2](**args)
    assert CountingArray.products == 0


# gram_diagonal's einsum is no product, a Views builds nothing until it is asked, and
# split_holdout only gathers rows
@pytest.mark.parametrize("name", sorted(set(ENTRIES) - {"gram_diagonal", "Views", "split_holdout"}))
def test_the_counter_sees_the_products_of_a_valid_input(counted, name):
    ENTRIES[name][2](lam=0.1, k=2, short=False)
    assert CountingArray.products > 0

