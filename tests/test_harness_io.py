"""Tests for the planted-instance generator, file I/O, the experiment driver,
and the command-line interface."""

import argparse
import ast
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import qr

from ccakit import baselines, cli, harness, io, metrics, reference
from ccakit.cli import _CONFIG_TYPES, _add_run_flags, build_config, main
from ccakit.harness import (
    SOLVERS,
    SolverConfig,
    extract_best_k,
    parse_config_file,
    run_experiment,
)
from ccakit.appgrad import default_step, run_appgrad
from ccakit.kernels import KernelSpec, kernel_gram, kernel_ridge
from ccakit.linalg import DegenerateIterateError, SingularMatrixError
from ccakit.metrics import RunReport, moments, tcc
from ccakit.planted import PlantedParams, _mixing, generate_planted
from ccakit.reference import spectral_cca
from conftest import peak_bytes


def planted_views(params, seed):
    """The planted construction with plain copies: x, y and the two mixings."""
    rng = np.random.default_rng(seed)
    n, p1, p2, k = params.n, params.p1, params.p2, params.k
    rho = np.asarray(params.correlations, dtype=float)
    Q = qr(rng.standard_normal((n, p1 + p2)), mode="economic")[0] * np.sqrt(n)
    Zy = np.empty((n, p2))
    Zy[:, :k] = Q[:, :k] * rho + Q[:, p1 : p1 + k] * np.sqrt(1.0 - rho**2)
    Zy[:, k:] = Q[:, p1 + k :]
    Cx, Cy = (_mixing(p, cond, rng, params.rotate, params.canonical_scale, params.latent_rotate)
              for p, cond in ((p1, params.cond_x), (p2, params.cond_y)))
    X, Y = Q[:, :p1] @ Cx.T, Zy @ Cy.T
    if params.noise > 0:
        X = X + params.noise * rng.standard_normal((n, p1))
        Y = Y + params.noise * rng.standard_normal((n, p2))
    return X, Y, Cx, Cy


class TestPlanted:
    @pytest.mark.parametrize("extra", [
        dict(noise=0.3, cond_x=5.0, cond_y=2.0),
        dict(rotate=False, cond_x=4.0),
        dict(canonical_scale="high", cond_x=4.0, noise=0.1),
        dict(latent_rotate=True, cond_x=3.0, cond_y=3.0),
    ])
    def test_matches_the_plain_construction_bit_for_bit(self, extra):
        params = PlantedParams(n=300, p1=9, p2=7, correlations=(0.9, 0.6, 0.3), **extra)
        inst = generate_planted(params, seed=5)
        X, Y, Cx, Cy = planted_views(params, seed=5)
        for got, want in ((inst.x, X), (inst.y, Y), (inst.mixing_x, Cx), (inst.mixing_y, Cy)):
            assert np.array_equal(got, want)
        oracle = spectral_cca(X, Y, 3)
        assert np.array_equal(inst.empirical.phi, oracle.phi)
        assert np.array_equal(inst.empirical.lam, oracle.lam)

    def test_peak_memory_is_two_latent_buffers(self):
        params = PlantedParams(n=4000, p1=20, p2=20, correlations=(0.9, 0.5), noise=0.1)
        inst, peak = peak_bytes(lambda: generate_planted(params, seed=1))
        latent = 4000 * 40 * 8
        assert inst.x.nbytes + inst.y.nbytes == latent
        assert peak <= 2.5 * latent, f"peak {peak / latent:.2f}x one latent buffer"

    def test_same_seed_is_bitwise_identical(self):
        params = PlantedParams(n=100, p1=6, p2=7, correlations=(0.8, 0.4))
        a = generate_planted(params, seed=3)
        b = generate_planted(params, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = generate_planted(params, seed=4)
        assert not np.array_equal(a.x, c.x)

    def test_oracle_recovers_requested_correlations(self):
        params = PlantedParams(n=400, p1=8, p2=9, correlations=(0.9, 0.5))
        inst = generate_planted(params, seed=0)
        # noise-free construction: exact match, well within the 0.02 budget
        assert np.allclose(inst.empirical.lam, (0.9, 0.5), atol=0.02)
        assert np.all(np.diff(inst.empirical.lam) < 0)

    def test_noisy_instance_still_close(self):
        params = PlantedParams(n=2000, p1=8, p2=9, correlations=(0.9, 0.5), noise=0.05)
        inst = generate_planted(params, seed=1)
        assert np.allclose(inst.empirical.lam, (0.9, 0.5), atol=0.02)

    def test_planted_directions_are_canonical(self):
        params = PlantedParams(n=300, p1=7, p2=7, correlations=(0.8, 0.4),
                               cond_x=5.0, cond_y=3.0, latent_rotate=True)
        inst = generate_planted(params, seed=2)
        got = tcc(inst.x, inst.y, inst.model.phi, inst.model.psi)
        assert abs(got - (0.8 + 0.4)) < 1e-8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PlantedParams(n=100, p1=4, p2=4, correlations=(0.5, 0.9)).validate()
        with pytest.raises(ValueError):
            PlantedParams(n=100, p1=4, p2=4, correlations=(1.2,)).validate()
        with pytest.raises(ValueError):
            PlantedParams(n=6, p1=4, p2=4, correlations=(0.5,)).validate()
        with pytest.raises(ValueError):
            PlantedParams(n=100, p1=2, p2=4, correlations=(0.9, 0.5, 0.1)).validate()


class TestIo:
    def test_csv_round_trip_preserves_products(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 5))
        path = tmp_path / "x.csv"
        io.save_csv(path, X)
        back = io.load_csv(path)
        assert back.shape == (20, 5)
        v = rng.standard_normal(5)
        assert np.linalg.norm(back.values @ v - X @ v) < 1e-12

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("col_a,col_b\n1,2\n3,4\n")
        back = io.load_csv(path)
        assert np.array_equal(back.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_errors_name_the_line(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=":2:"):
            io.load_csv(ragged)
        junk = tmp_path / "junk.csv"
        junk.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match=":2:"):
            io.load_csv(junk)
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        with pytest.raises(ValueError, match="no data"):
            io.load_csv(empty)

    def test_matrix_market_round_trip_sparse(self, tmp_path):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((15, 6))
        dense[dense < 0.5] = 0.0
        M = sp.csr_matrix(dense)
        path = tmp_path / "m.mtx"
        io.save_matrix_market(path, M)
        back = io.load_dataset(path, fmt="matrix-market")
        assert back.values.nnz == M.nnz
        v = rng.standard_normal(6)
        assert np.linalg.norm(back.values @ v - dense @ v) < 1e-12

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            io.load_dataset(tmp_path / "x.dat", fmt="parquet")

    def test_model_matrix_round_trip(self, tmp_path):
        A = np.random.default_rng(2).standard_normal((7, 3))
        path = tmp_path / "phi.txt"
        io.save_model_matrix(path, A)
        assert path.read_text().splitlines()[0] == "7 3"
        back = io.load_model_matrix(path)
        assert np.linalg.norm(back - A) < 1e-15

    def test_model_matrix_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ValueError, match="header"):
            io.load_model_matrix(path)


class TestConfig:
    def test_defaults_validate(self):
        SolverConfig().validate()

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="solver"):
            SolverConfig(solver="magic").validate()
        with pytest.raises(ValueError):
            SolverConfig(k=0).validate()
        with pytest.raises(ValueError):
            SolverConfig(holdout=0.8).validate()
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0).validate()
        with pytest.raises(ValueError, match="record_every"):  # 0 would divide the cadence
            SolverConfig(solver="stochastic-appgrad", record_every=0).validate()

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# basic run\nsolver = appgrad\nk = 4  # rank\n\nmax_iters = 500\n"
        )
        got = parse_config_file(path)
        assert got == {"solver": "appgrad", "k": "4", "max_iters": "500"}

    def test_parse_config_file_error_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("solver = appgrad\nnot a pair\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_config_file(path)


class TestRunExperiment:
    def test_spectral_pcc_is_one(self, small_instance):
        cfg = SolverConfig(solver="spectral", k=3)
        result = run_experiment(cfg, x=small_instance.x, y=small_instance.y)
        assert abs(result.pcc_train - 1.0) < 1e-8

    def test_planted_dispatch_and_artifacts(self, tmp_path):
        params = PlantedParams(n=300, p1=10, p2=10, correlations=(0.9, 0.6))
        cfg = SolverConfig(solver="appgrad", k=2, seed=1, record_every=10)
        report_path = tmp_path / "report.txt"
        trace_path = tmp_path / "trace.txt"
        result = run_experiment(
            cfg, planted=params, report_path=report_path,
            trace_path=trace_path, model_prefix=str(tmp_path / "model"),
        )
        assert result.pcc_train >= 0.99
        back = RunReport.read(report_path)
        assert back.solver == "appgrad"
        assert len(back.records) >= 1
        assert trace_path.read_text().strip()
        phi = io.load_model_matrix(tmp_path / "model.phi.txt")
        assert phi.shape == (10, 2)

    def test_converged_run_records_its_last_iterate(self, small_instance):
        cfg = SolverConfig(solver="appgrad", k=3, record_every=10)
        result = run_experiment(cfg, x=small_instance.x, y=small_instance.y)
        assert result.model.converged
        final_t = result.report.final_state.t
        assert final_t % 10 != 0  # the run stops off the record cadence
        assert [r.t for r in result.report.records][-2:] == [final_t // 10 * 10, final_t]

    def test_reports_are_byte_identical(self, tmp_path):
        params = PlantedParams(n=200, p1=8, p2=8, correlations=(0.8, 0.4))
        paths = []
        for name in ("a.txt", "b.txt"):
            cfg = SolverConfig(solver="stochastic-appgrad", k=2, seed=9,
                               batch_size=50, max_iters=40)
            path = tmp_path / name
            run_experiment(cfg, planted=params, report_path=path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_oversampling_never_hurts_truncation(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        full = spectral_cca(X, Y, 6)
        best = extract_best_k(X, Y, full, 3)
        truncated = tcc(X, Y, full.phi[:, :3], full.psi[:, :3])
        assert tcc(X, Y, best.phi, best.psi) >= truncated - 1e-10

    def test_oversampled_stochastic_run(self, small_instance):
        # l = 5 extra directions, best 3 extracted; scores at least as well
        # as the plain run up to a small slack
        X, Y = small_instance.x, small_instance.y
        scores = {}
        for l in (0, 5):
            cfg = SolverConfig(solver="stochastic-appgrad", k=3, oversample=l,
                               batch_size=100, max_iters=400, seed=2)
            scores[l] = run_experiment(cfg, x=X, y=Y).pcc_train
        assert scores[5] >= scores[0] - 0.01

    def test_oversampled_run_ends_alike_on_dense_and_sparse_views(self):
        # dense views run on the moment pair, CSR on the n rows; either both fail with
        # one typed error or both return the same model, never an internal ValueError
        params = PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3))
        inst = generate_planted(params, seed=3)
        cfg = SolverConfig(solver="appgrad", k=2, oversample=2, seed=3, max_iters=300)
        outcomes = []
        for X, Y in ((inst.x, inst.y), (sp.csr_matrix(inst.x), sp.csr_matrix(inst.y))):
            try:
                outcomes.append(run_experiment(cfg, x=X, y=Y).model)
            except (DegenerateIterateError, SingularMatrixError) as err:
                outcomes.append(type(err))
        dense, sparse = outcomes
        if isinstance(dense, type) or isinstance(sparse, type):
            assert dense is sparse
        else:
            for a, b in ((dense.phi, sparse.phi), (dense.psi, sparse.psi), (dense.lam, sparse.lam)):
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    def test_holdout_pcc_reported(self, small_instance):
        cfg = SolverConfig(solver="appgrad", k=2, holdout=0.25, seed=0,
                           record_every=50)
        result = run_experiment(cfg, x=small_instance.x, y=small_instance.y)
        # the holdout oracle is refit on few rows, so the ratio sits well
        # below the in-sample value; it only has to be finite and sensible
        assert np.isfinite(result.pcc_holdout)
        assert result.pcc_holdout > 0.5

    def test_kernel_solver_dispatch(self):
        params = PlantedParams(n=120, p1=5, p2=5, correlations=(0.8, 0.4))
        inst = generate_planted(params, seed=4)
        cfg = SolverConfig(solver="kernel-appgrad", k=2, kernel=KernelSpec("linear"))
        result = run_experiment(cfg, x=inst.x, y=inst.y)
        assert abs(result.tcc_train - inst.empirical.lam.sum()) < 1e-3

    def test_als_requires_rank_one(self, small_instance):
        cfg = SolverConfig(solver="als", k=2)
        with pytest.raises(ValueError, match="k=1"):
            run_experiment(cfg, x=small_instance.x, y=small_instance.y)
        cfg = SolverConfig(solver="als", k=1)
        result = run_experiment(cfg, x=small_instance.x, y=small_instance.y)
        assert abs(result.model.lam[0] - 0.9) < 1e-6

    def test_missing_data_rejected(self):
        with pytest.raises(ValueError, match="planted"):
            run_experiment(SolverConfig(solver="spectral", k=1))

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_every_solver_in_the_table_runs(self, name):
        params = PlantedParams(n=200, p1=6, p2=7, correlations=(0.9, 0.6), noise=0.2)
        k = 1 if name == "als" else 2
        cfg = SolverConfig(solver=name, k=k, seed=1, max_iters=200, batch_size=50)
        result = run_experiment(cfg, planted=params)
        model = result.model
        assert model.phi.shape[1] == model.psi.shape[1] == len(model.lam) == k
        for A in (model.phi, model.psi, model.lam):
            assert np.all(np.isfinite(A))
        assert result.report.solver == name and result.report.records
        result.report.validate()

    @pytest.mark.parametrize("name, oversample", [
        pytest.param(name, oversample, id=name + ("-oversample" if oversample else ""))
        for oversample in (0, 2) for name in ("spectral", "nw")])
    def test_one_shot_trace_has_one_line(self, small_instance, name, oversample, tmp_path):
        path = tmp_path / "trace.txt"
        result = run_experiment(SolverConfig(solver=name, k=2, oversample=oversample),
                                x=small_instance.x, y=small_instance.y, trace_path=path)
        (row,) = result.report.records
        assert row.pcc_train == result.pcc_train  # the row scores the returned rank-k model
        flops, pcc = path.read_text().split()
        assert (int(flops), float(pcc)) == (0, row.pcc_train)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_solver_table_matches_its_drivers(self, name):
        params = PlantedParams(n=200, p1=6, p2=7, correlations=(0.9, 0.6), noise=0.2)
        cfg = SolverConfig(solver=name, k=1, seed=1, max_iters=3, tol=0.0, record_every=1,
                           batch_size=50)
        result = run_experiment(cfg, planted=params)
        if name in ("als", "appgrad", "stochastic-appgrad", "kernel-appgrad"):
            assert result.model.converged is False
        rows = result.report.records
        if SOLVERS[name].traced:  # one row per iteration, each charged
            assert [r.t for r in rows] == [1, 2, 3]
            flops = [r.flops for r in rows]
            assert flops[0] > 0 and flops == sorted(flops)
        else:
            assert [(r.t, r.flops) for r in rows] == [(1, 0)]

    def test_kernel_run_is_run_appgrad_on_the_grams(self, small_instance):
        spec = KernelSpec("rbf", sigma=3.0)
        x, y = small_instance.x[:150], small_instance.y[:150]
        cfg = SolverConfig(solver="kernel-appgrad", k=2, max_iters=40, seed=2, kernel=spec)
        result = run_experiment(cfg, x=x, y=y)
        Kx, Ky = kernel_gram(x, spec).values, kernel_gram(y, spec).values
        model, report = run_appgrad(Kx, Ky, 2, lam=kernel_ridge(Kx, Ky), max_iters=40, seed=2)
        assert result.model.converged is model.converged is False
        for a, b in ((result.model.phi, model.phi), (result.model.psi, model.psi),
                     (result.model.lam, model.lam)):
            assert np.array_equal(a, b)
        assert result.report.solver == "kernel-appgrad"
        assert ([(r.t, r.flops, r.tcc_train) for r in result.report.records]
                == [(r.t, r.flops, r.tcc_train) for r in report.records])

    def test_kernel_report_reruns_from_its_header(self, small_instance, tmp_path):
        # the kernel run of the csv-compare benchmark workload: rbf, sigma 100
        cfg = SolverConfig(solver="kernel-appgrad", k=2, max_iters=60, seed=3,
                           kernel=KernelSpec("rbf", sigma=100.0))
        x, y = small_instance.x[:200], small_instance.y[:200]
        run_experiment(cfg, x=x, y=y, report_path=tmp_path / "first.report")
        header = {key: ast.literal_eval(raw)
                  for key, raw in RunReport.read(tmp_path / "first.report").config.items()}
        Kx, Ky = kernel_gram(x, cfg.kernel).values, kernel_gram(y, cfg.kernel).values
        lam = kernel_ridge(Kx, Ky)
        eta = default_step(Kx, Ky, lam, seed=3)
        assert ((header["kernel"], header["lam"], header["eta1"], header["eta2"])
                == ("rbf:100.0", lam, eta.eta1, eta.eta2))
        (tmp_path / "rerun.cfg").write_text("".join(
            f"{key} = {value}\n" for key, value in header.items() if key in _CONFIG_TYPES))
        rerun = build_config(argparse.Namespace(config=tmp_path / "rerun.cfg"))
        run_experiment(rerun, x=x, y=y, report_path=tmp_path / "rerun.report")
        assert (tmp_path / "rerun.report").read_bytes() == (tmp_path / "first.report").read_bytes()

    @pytest.mark.parametrize("name, solve", [("nw", baselines.nw_cca), ("dw", baselines.dw_cca)])
    def test_oversampled_heuristic_keeps_its_first_directions(self, small_instance, name, solve):
        X, Y = small_instance.x, small_instance.y
        result = run_experiment(SolverConfig(solver=name, k=2, oversample=2, seed=4), x=X, y=Y)
        full = solve(X, Y, 4, seed=4)
        assert result.model.whitened is False
        for got, want in ((result.model.phi, full.phi), (result.model.psi, full.psi),
                          (result.model.lam, full.lam)):
            assert np.array_equal(got, want[..., :2])

    def test_singular_view_leaves_pcc_undefined(self, small_instance):
        X = np.hstack([small_instance.x, small_instance.x[:, :1]])
        result = run_experiment(SolverConfig(solver="nw", k=2), x=X, y=small_instance.y)
        assert result.oracle is None and np.isnan(result.pcc_train)
        assert np.isfinite(result.tcc_train)

    def test_singular_view_tcc_is_projected(self, small_instance):
        # without an oracle the moments buy nothing, and on a singular view
        # they would lend null directions a spurious correlation
        X = np.hstack([small_instance.x, small_instance.x[:, :1]])
        for name in ("nw", "dw"):
            result = run_experiment(SolverConfig(solver=name, k=2), x=X, y=small_instance.y)
            want = tcc(X, small_instance.y, result.model.phi, result.model.psi)
            assert result.tcc_train == want

    @pytest.mark.parametrize("solver", ["appgrad", "stochastic-appgrad"])
    @pytest.mark.parametrize("case", ["csr", "duplicate-lam0.1"])
    def test_sparse_and_singular_views_are_projected(self, small_instance, solver, case):
        # one rule, metrics.tcc_evaluator, also where lam > 0 gives a singular view an oracle
        X, Y, lam = small_instance.x, small_instance.y, 0.1
        if case == "csr":
            X, Y, lam = sp.csr_matrix(X), sp.csr_matrix(Y), 0.0
        else:
            X = np.hstack([X, X[:, :1]])
        cfg = SolverConfig(solver=solver, k=2, lam=lam, max_iters=100)
        result = run_experiment(cfg, x=X, y=Y)
        assert np.isfinite(result.pcc_train)  # the oracle exists
        assert result.tcc_train == tcc(X, Y, result.model.phi, result.model.psi)

    def test_spectral_forms_the_training_moments_once(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        calls = []

        def counted(A, B, lam=0.0):
            calls.append((A.shape, B.shape))
            return moments(A, B, lam)

        for module in (metrics, reference, harness):  # every module that binds the name
            monkeypatch.setattr(module, "moments", counted)
        result = run_experiment(SolverConfig(solver="spectral", k=3), x=X, y=Y)
        assert calls == [(X.shape, Y.shape)]  # one build serves solver, oracle and evaluator
        want = spectral_cca(X, Y, 3)
        for name in ("phi", "psi", "lam"):
            assert np.array_equal(getattr(result.model, name), getattr(want, name))
        assert result.pcc_train == 1.0

    def test_rank_beyond_the_view_widths_rejected(self, small_instance):
        # the narrower view has 12 columns; no solver may silently return fewer
        X, Y = small_instance.x, small_instance.y
        with pytest.raises(ValueError, match="k=13"):
            run_experiment(SolverConfig(solver="spectral", k=13), x=X, y=Y)
        # kernel-appgrad solves on the n-by-n Grams, so its bound is n = 400
        result = run_experiment(SolverConfig(solver="kernel-appgrad", k=13, max_iters=50),
                                x=X, y=Y)
        assert result.model.k == 13
        with pytest.raises(ValueError, match="k=401"):
            run_experiment(SolverConfig(solver="kernel-appgrad", k=401), x=X, y=Y)

    def test_oracle_is_the_spectral_solution(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        for lam in (0.0, 0.01):
            result = run_experiment(SolverConfig(solver="nw", k=2, lam=lam), x=X, y=Y)
            want = spectral_cca(X, Y, 2, lam)
            for name in ("phi", "psi", "lam"):
                assert np.array_equal(getattr(result.oracle, name), getattr(want, name))

    @staticmethod
    def noisy_instance():
        params = PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3), noise=0.3)
        return generate_planted(params, seed=0)

    def test_holdout_without_rows_rejected(self):
        inst = self.noisy_instance()
        cfg = SolverConfig(solver="spectral", k=2, holdout=0.001)
        with pytest.raises(ValueError, match=r"0\.001 of n=400 rows leaves 0 held-out rows"):
            run_experiment(cfg, x=inst.x, y=inst.y)

    def test_singular_holdout_leaves_holdout_pcc_undefined(self):
        # one held-out row: its Grams are singular, so with lam = 0 the
        # holdout oracle is undefined, as the training one is for a singular view
        inst = self.noisy_instance()
        result = run_experiment(SolverConfig(solver="spectral", k=2, holdout=0.002),
                                x=inst.x, y=inst.y)
        assert np.isnan(result.pcc_holdout)
        assert abs(result.pcc_train - 1.0) < 1e-8


class TestCli:
    def generate(self, tmp_path, extra=()):
        argv = [
            "generate", "--n", "200", "--p1", "8", "--p2", "8",
            "--correlations", "0.9,0.5", "--seed", "3",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
        ] + list(extra)
        assert main(argv) == 0

    def test_generate_then_run(self, tmp_path, capsys):
        self.generate(tmp_path, extra=["--truth-prefix", str(tmp_path / "truth")])
        report = tmp_path / "report.txt"
        code = main([
            "run", "--solver", "appgrad", "--k", "2", "--seed", "1",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pcc=" in out
        pcc_line = [l for l in out.splitlines() if l.startswith("pcc=")][0]
        assert float(pcc_line.split("=")[1]) >= 0.99
        assert report.exists()
        truth_phi = io.load_model_matrix(tmp_path / "truth.phi.txt")
        assert truth_phi.shape == (8, 2)

    def test_compare_lists_all_solvers(self, tmp_path, capsys):
        self.generate(tmp_path)
        code = main([
            "compare", "--solvers", "spectral,nw,pca-cca", "--k", "2",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("spectral", "nw", "pca-cca"):
            assert name in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        self.generate(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver = spectral\nk = 1\nseed = 7\n")
        code = main([
            "run", "--config", str(cfg), "--k", "2",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "solver=spectral k=2 seed=7" in out

    def test_config_keys_are_the_config_fields(self):
        assert set(_CONFIG_TYPES) == {f.name for f in fields(SolverConfig)}

    def test_every_config_field_has_a_flag(self):
        parser = argparse.ArgumentParser()
        _add_run_flags(parser)
        assert {f.name for f in fields(SolverConfig)} <= {a.dest for a in parser._actions}
        args = parser.parse_args(["--record-every", "7", "--lambda", "0.5", "--kernel", "rbf:2"])
        cfg = build_config(args)
        assert (cfg.record_every, cfg.lam, cfg.kernel) == (7, 0.5, KernelSpec("rbf", sigma=2.0))

    @pytest.mark.parametrize("flag", [["--record-every", "x"], ["--kernel", "rbf:-1"],
                                      ["--schedule", "linear"], ["--solver", "svd"]])
    def test_bad_flag_value_fails_before_any_run(self, flag, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("a run started"))
        with pytest.raises(SystemExit) as exc:
            main(["run", *flag, "--x", "x.csv", "--y", "y.csv"])
        assert exc.value.code == 2

    def test_kernel_flag_parsing(self, tmp_path, capsys):
        self.generate(tmp_path)
        code = main([
            "run", "--solver", "kernel-appgrad", "--k", "1",
            "--kernel", "rbf:2.5",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
        ])
        assert code == 0
        assert "tcc=" in capsys.readouterr().out
