"""Tests for the planted-instance generator, file I/O, the experiment driver,
and the command-line interface."""

import argparse
import ast
from dataclasses import fields

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from scipy.linalg import cholesky, solve_triangular

from ccakit import appgrad, baselines, cli, harness, io, linalg, metrics, planted, reference
from ccakit.cli import _CONFIG_TYPES, _add_run_flags, build_config, main
from ccakit.harness import (
    SOLVERS,
    SolverConfig,
    extract_best_k,
    parse_config_file,
    run_experiment,
)
from ccakit.appgrad import AppGradState, default_step, extract_model, run_appgrad
from ccakit.kernels import KernelSpec, kernel_gram, kernel_ridge
from ccakit.linalg import DegenerateIterateError, SingularMatrixError
from ccakit.metrics import RunReport, Views, moment_pair_flops, step_flops, tcc
from ccakit.planted import PlantedParams, _mixing, generate_planted
from ccakit.reference import spectral_cca
from ccakit.stochastic import StepSchedule
from conftest import peak_bytes


def planted_views(params, seed):
    """The planted construction as whole arrays: x, y and the two mixings."""
    rng = np.random.default_rng(seed)
    n, p1, p2, k = params.n, params.p1, params.p2, params.k
    rho = np.asarray(params.correlations, dtype=float)
    Z = rng.standard_normal((n, p1 + p2))
    Zx, Zy = np.ascontiguousarray(Z[:, :p1]), np.ascontiguousarray(Z[:, p1:])
    ZxZy = Zx.T @ Zy
    G = np.block([[Zx.T @ Zx, ZxZy], [ZxZy.T, Zy.T @ Zy]])
    W = solve_triangular(cholesky(G), np.eye(p1 + p2)) * np.sqrt(n)
    W[:, p1 : p1 + k] = W[:, :k] * rho + W[:, p1 : p1 + k] * np.sqrt(1.0 - rho**2)
    Cx, Cy = (_mixing(p, cond, rng, params.rotate, params.canonical_scale, params.latent_rotate)
              for p, cond in ((p1, params.cond_x), (p2, params.cond_y)))
    Mx, My = W[:p1, :p1] @ Cx.T, W[:, p1:] @ Cy.T
    X, Y = Zx @ Mx, Zx @ My[:p1] + Zy @ My[p1:]
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

    def test_build_works_inside_its_views(self):
        params = PlantedParams(n=20000, p1=20, p2=20, correlations=(0.9, 0.5), noise=0.1)
        assert params.n * (params.p1 + params.p2) * 8 > 4 * planted._BLOCK_BYTES
        inst, peak = peak_bytes(lambda: generate_planted(params, seed=1))
        views = inst.x.nbytes + inst.y.nbytes
        assert peak <= 1.25 * views, f"peak {peak / views:.2f}x the returned views"

    @pytest.mark.parametrize("seed", range(10))
    def test_square_draw_plants_exact_structure(self, seed):
        # n = p1 + p2 makes the Gaussian draw square, Cholesky QR's worst case
        params = PlantedParams(n=200, p1=110, p2=90, correlations=(0.9, 0.6, 0.3),
                               cond_x=5.0, cond_y=3.0, latent_rotate=True)
        inst = generate_planted(params, seed=seed)
        X, Y, (phi, psi, lam) = inst.x, inst.y, (inst.model.phi, inst.model.psi, inst.model.lam)
        n = params.n
        for got, want in ((phi.T @ (X.T @ X / n) @ phi, np.eye(3)),
                          (psi.T @ (Y.T @ Y / n) @ psi, np.eye(3)),
                          (phi.T @ (X.T @ Y / n) @ psi, np.diag(lam))):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("n, block_bytes", [(15000, None), (300, 1)])
    def test_row_blocks_do_not_change_the_build(self, monkeypatch, n, block_bytes):
        params = PlantedParams(n=n, p1=12, p2=9, correlations=(0.9, 0.6), noise=0.2,
                               cond_x=4.0, cond_y=2.0)
        if block_bytes is not None:
            monkeypatch.setattr(planted, "_BLOCK_BYTES", block_bytes)
        assert planted._BLOCK_BYTES < n * (params.p1 + params.p2) * 8
        blocked = generate_planted(params, seed=6)
        monkeypatch.setattr(planted, "_BLOCK_BYTES", n * (params.p1 + params.p2) * 8)
        whole = generate_planted(params, seed=6)
        assert np.array_equal(blocked.mixing_x, whole.mixing_x)
        assert np.array_equal(blocked.mixing_y, whole.mixing_y)
        for got, want in ((blocked.x, whole.x), (blocked.y, whole.y)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

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

    def test_matrix_market_dense_array_file(self, tmp_path):
        dense = np.random.default_rng(2).standard_normal((7, 4))
        path = tmp_path / "d.mtx"
        scipy.io.mmwrite(path, dense)  # an ndarray is written in the array format
        back = io.load_matrix_market(path)
        assert not sp.issparse(back.values) and np.allclose(back.values, dense, rtol=1e-15, atol=0)

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

    @pytest.mark.parametrize("key", ["lam", "eta", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SolverConfig(**{key: value}).validate()

    @pytest.mark.parametrize("build", [
        lambda: appgrad.StepSizes(np.nan, 0.1), lambda: appgrad.StepSizes(0.1, np.nan),
        lambda: StepSchedule(eta0=np.nan), lambda: StepSchedule(t0=np.nan),
        lambda: KernelSpec("rbf", sigma=np.nan), lambda: KernelSpec("polynomial", offset=np.nan),
    ])
    def test_nan_parameters_rejected_by_their_constructors(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_a_run_without_iterations_rejected(self, small_instance, max_iters):
        cfg = SolverConfig(max_iters=max_iters)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            cfg.validate()
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            run_experiment(cfg, x=small_instance.x, y=small_instance.y)

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
        best = extract_best_k(full, 3)
        truncated = tcc(X, Y, full.phi[:, :3], full.psi[:, :3])
        assert tcc(X, Y, best.phi, best.psi) >= truncated - 1e-10

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_every_solver_sorts_its_pairs_and_whitened_ones_are_canonical(self, name, lam):
        # run_experiment keeps the best k of a rank k + oversample model by truncation,
        # which holds only if every solver returns its directions in this order
        cfg = SolverConfig(solver=name, k=2, oversample=2, lam=lam, seed=3, max_iters=300)
        inst = self.noisy_instance()  # noisy: no rank-4 pair of zero correlation to degenerate
        solver, views = SOLVERS[name], Views(inst.x, inst.y)
        if solver.grams:
            views = Views(*solver.grams(cfg, views.X, views.Y))
        model = solver.run(cfg, views, cfg.k + cfg.oversample, oracle=None, holdout=None)
        if solver.traced:
            model, report = model
            lam = report.config["lam"]  # the ridge the run applied
        assert np.all(np.diff(model.lam) <= 0)
        if model.whitened:
            Sx, Sy, Sxy = views.moments
            for A, S in ((model.phi, Sx), (model.psi, Sy)):
                assert np.abs(A.T @ (S + lam * np.eye(len(S))) @ A
                              - np.eye(model.k)).max() <= 1e-10
            assert np.abs(model.phi.T @ Sxy @ model.psi - np.diag(model.lam)).max() <= 1e-10

    @pytest.mark.parametrize("name", ["appgrad", "stochastic-appgrad"])
    def test_an_oversampled_run_extracts_once(self, monkeypatch, name):
        inst = self.noisy_instance()
        X, Y = inst.x, inst.y
        models = []

        def counted(*args, **kwargs):
            models.append(extract_model(*args, **kwargs))
            return models[-1]
        monkeypatch.setattr(appgrad, "extract_model", counted)
        # counted too if harness binds the name for a second pass after the run
        monkeypatch.setattr(harness, "extract_model", counted, raising=False)
        cfg = SolverConfig(solver=name, k=2, oversample=2, seed=3, max_iters=300)
        model = run_experiment(cfg, x=X, y=Y).model
        [full] = models
        # rotating the rank-4 model a second time, then truncating, moves it by rounding only
        again = extract_model(X, Y, AppGradState(full.phi, full.psi, full.phi, full.psi))
        for a, b in zip((model.phi, model.psi, model.lam),
                        (again.phi[:, :2], again.psi[:, :2], again.lam[:2])):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

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

    def test_driver_report_config_values_are_python_literals(self, small_instance, tmp_path):
        # default_step and kernel_ridge return numpy scalars; their reprs must not reach the file
        spec = KernelSpec("rbf", sigma=3.0)
        Kx = kernel_gram(small_instance.x[:100], spec).values
        Ky = kernel_gram(small_instance.y[:100], spec).values
        lam = kernel_ridge(Kx, Ky)
        _, report = run_appgrad(Kx, Ky, 2, lam=lam, max_iters=5, seed=1)
        assert isinstance(report.config["lam"], np.floating)
        report.write(tmp_path / "kernel.report")
        header = {key: ast.literal_eval(raw)
                  for key, raw in RunReport.read(tmp_path / "kernel.report").config.items()}
        assert header == report.config and header["lam"] == lam

    @pytest.mark.parametrize("name, solve", [("nw", baselines.nw_cca), ("dw", baselines.dw_cca)])
    def test_heuristic_reads_the_cross_covariance_of_the_moments(self, small_instance, monkeypatch,
                                                                 name, solve):
        X, Y = small_instance.x, small_instance.y
        want, cross_covariance, calls = solve(X, Y, 2, seed=4), metrics.cross_covariance, []

        def counted(A, B):
            calls.append((A.shape, B.shape))
            return cross_covariance(A, B)

        monkeypatch.setattr(metrics, "cross_covariance", counted)  # the one module that calls it
        result = run_experiment(SolverConfig(solver=name, k=2, seed=4), x=X, y=Y)
        assert calls == [(X.shape, Y.shape)]  # Views.cross' one product serves the solver
        for attr in ("phi", "psi", "lam"):
            assert np.array_equal(getattr(result.model, attr), getattr(want, attr))

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
        calls, gram, cross_covariance = [], metrics.gram, metrics.cross_covariance
        # metrics.Views forms every moment, through the names metrics binds
        monkeypatch.setattr(metrics, "gram", lambda A: calls.append(A.shape) or gram(A))
        monkeypatch.setattr(metrics, "cross_covariance",
                            lambda A, B: calls.append((A.shape, B.shape)) or cross_covariance(A, B))
        result = run_experiment(SolverConfig(solver="spectral", k=3), x=X, y=Y)
        # one build serves solver, oracle and evaluator
        assert calls == [X.shape, Y.shape, (X.shape, Y.shape)]
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


class TestViews:
    """One ``metrics.Views`` per view pair: each moment is formed once, and one rule routes both
    solving and evaluation."""

    SOLVERS = ["appgrad", "stochastic-appgrad", "spectral", "qr", "nw", "dw"]

    @staticmethod
    def count_products(monkeypatch):
        """Calls of ``gram`` and ``cross_covariance`` as (name, shapes), wherever they are bound."""
        calls, gram, cross_covariance = [], linalg.gram, linalg.cross_covariance
        for module in (metrics, appgrad, reference, baselines):
            if hasattr(module, "gram"):
                monkeypatch.setattr(module, "gram", lambda A, lam=0.0: calls.append(
                    ("gram", A.shape)) or gram(A, lam))
            if hasattr(module, "cross_covariance"):
                monkeypatch.setattr(module, "cross_covariance", lambda A, B: calls.append(
                    ("cross", A.shape, B.shape)) or cross_covariance(A, B))
        return calls

    @pytest.mark.parametrize("name, holdout", [(name, 0.0) for name in SOLVERS]
                             + [("stochastic-appgrad", 0.2)])
    def test_a_run_forms_each_moment_once(self, small_instance, monkeypatch, name, holdout):
        X, Y = small_instance.x, small_instance.y
        calls = self.count_products(monkeypatch)
        run_experiment(SolverConfig(solver=name, k=2, holdout=holdout, max_iters=50), x=X, y=Y)
        rows = [400] if not holdout else [320, 80]  # the training pair, then the held-out one
        want = [call for n in rows
                for call in (("gram", (n, 12)), ("gram", (n, 15)), ("cross", (n, 12), (n, 15)))]
        assert sorted(calls) == sorted(want)

    def test_compare_forms_each_moment_once(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        views, calls = Views(X, Y), self.count_products(monkeypatch)
        for name in self.SOLVERS:
            run_experiment(SolverConfig(solver=name, k=2, max_iters=50), x=views)
        assert sorted(calls) == [("cross", X.shape, Y.shape), ("gram", X.shape), ("gram", Y.shape)]

    def test_solving_and_evaluation_switch_routes_together(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        p1, p2 = X.shape[1], Y.shape[1]
        rows, score = [], metrics.tcc
        monkeypatch.setattr(metrics, "tcc", lambda A, *a: rows.append(len(A)) or score(A, *a))
        for n, narrow in ((4 * (p1 + p2), True), (4 * (p1 + p2) - 1, False)):
            rows.clear()
            cfg = SolverConfig(solver="appgrad", k=2, max_iters=5)
            result = run_experiment(cfg, x=X[:n], y=Y[:n])
            m = p1 + p2 if narrow else n  # the rows both solving and evaluation read
            build = moment_pair_flops(n, p1, p2) if narrow else 0
            assert result.report.records[0].flops == build + step_flops(m, p1, p2, 2)
            assert rows and set(rows) == {m}

    @pytest.mark.parametrize("shape", [(400, 12, 15), (150, 30, 25)])
    def test_stochastic_step_is_the_default_step(self, shape):
        # narrow (p1 + p2 = 27 <= 100) and wide (55 > 37) dense views with p <= 200
        n, p1, p2 = shape
        inst = generate_planted(PlantedParams(n=n, p1=p1, p2=p2, correlations=(0.9, 0.6),
                                              noise=0.3), seed=1)
        cfg = SolverConfig(solver="stochastic-appgrad", k=2, max_iters=5, seed=4)
        result = run_experiment(cfg, x=inst.x, y=inst.y)
        assert result.report.config["eta0"] == default_step(inst.x, inst.y, seed=4).eta1

    @pytest.mark.parametrize("name", ["appgrad", "stochastic-appgrad"])
    def test_oversampled_rows_score_the_top_k(self, name):
        inst = generate_planted(PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3),
                                              noise=0.5), seed=3)
        cfg = SolverConfig(solver=name, k=2, oversample=2, seed=3, max_iters=150)
        result = run_experiment(cfg, x=inst.x, y=inst.y)
        assert all(r.pcc_train <= 1.0 + 1e-12 for r in result.report.records)
        if name == "appgrad":  # a whitened iterate's top 2 are its extracted model's
            assert abs(result.report.records[-1].pcc_train - result.pcc_train) <= 1e-12

    def test_a_singular_view_has_one_verdict(self, small_instance):
        X, Y = small_instance.x.copy(), small_instance.y
        X[:, 1] = X[:, 0]  # a duplicated column: X'X/n is singular, Y'Y/n is not
        views = Views(X, Y)
        assert views.narrow and views.singular == (True, False)
        assert harness._oracle(views, 2, 0.0) is None
        with pytest.raises(SingularMatrixError, match="lam"):
            spectral_cca(views, None, 2)
        assert views.evaluate.args == (views.X, views.Y)  # scored on the rows, not the pair

    @pytest.mark.parametrize("n", [400, 100])  # narrow, and too few rows to be narrow
    @pytest.mark.parametrize("name", list(harness.SOLVERS))
    def test_a_run_forms_each_gram_spectrum_once(self, small_instance, monkeypatch, name, n):
        spectra, eigh = [], metrics.eigh

        def counted(a, *args, **kw):
            if kw.get("eigvals_only"):
                spectra.append(np.asarray(a).tobytes())
            return eigh(a, *args, **kw)

        monkeypatch.setattr(metrics, "eigh", counted)
        cfg = SolverConfig(solver=name, k=1 if name == "als" else 2, max_iters=50)
        run_experiment(cfg, x=small_instance.x[:n], y=small_instance.y[:n])
        assert len(spectra) == len(set(spectra))
        assert len(spectra) >= (0 if name == "kernel-appgrad" else 2)  # the oracle's views

    def test_rows_without_oversampling_sum_every_correlation(self, small_instance):
        X, Y, oracle = small_instance.x, small_instance.y, small_instance.empirical
        runs = [run_appgrad(X, Y, 3, seed=1, max_iters=40, oracle=o)[1] for o in (oracle, None)]
        assert [r.tcc_train for r in runs[0].records] == [r.tcc_train for r in runs[1].records]


class TestMomentReaders:
    """Every moment-reading entry takes the run's ``Views`` and reads only what it needs."""

    count_products = staticmethod(TestViews.count_products)

    def test_als_run_forms_each_moment_once(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        calls = self.count_products(monkeypatch)
        run_experiment(SolverConfig(solver="als", k=1, max_iters=50), x=X, y=Y)
        assert sorted(calls) == [("cross", X.shape, Y.shape), ("gram", X.shape), ("gram", Y.shape)]

    def test_default_step_forms_the_grams_and_no_cross_moment(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        calls = self.count_products(monkeypatch)
        default_step(X, Y)
        assert sorted(calls) == [("gram", X.shape), ("gram", Y.shape)]

    @pytest.mark.parametrize("solve", [baselines.nw_cca, baselines.dw_cca, reference.spectral_cca])
    def test_a_solver_given_views_reads_their_moments(self, small_instance, monkeypatch, solve):
        X, Y = small_instance.x, small_instance.y
        views, want = Views(X, Y), solve(X, Y, 2)
        views.moments  # formed before counting
        calls = self.count_products(monkeypatch)
        got = solve(views, None, 2)
        assert calls == []
        for name in ("phi", "psi", "lam"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_als_given_views_reads_their_moments(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        init = appgrad.random_init(X, Y, 1, seed=2)
        init = init.phi[:, 0], init.psi[:, 0]
        views, want = Views(X, Y), reference.als_cca(X, Y, init, lam=0.01)
        views.moments  # formed before counting
        calls = self.count_products(monkeypatch)
        got = reference.als_cca(views, None, init, lam=0.01)
        assert calls == []
        for name in ("phi", "psi", "lam"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_compare_with_holdout_shares_one_split(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        views, calls = Views(X, Y), self.count_products(monkeypatch)
        results = [run_experiment(SolverConfig(solver=name, k=2, holdout=0.2, max_iters=50),
                                  x=views) for name in ("appgrad", "spectral", "qr")]
        want = [call for n in (320, 80)  # the training pair, then the held-out one
                for call in (("gram", (n, 12)), ("gram", (n, 15)), ("cross", (n, 12), (n, 15)))]
        assert sorted(calls) == sorted(want)
        alone = run_experiment(SolverConfig(solver="spectral", k=2, holdout=0.2), x=X, y=Y)
        assert (results[1].pcc_train, results[1].pcc_holdout) == (alone.pcc_train,
                                                                 alone.pcc_holdout)

    def test_oversampled_stochastic_model_keeps_its_iterates_top_k(self):
        # the rank-4 iterate is whitened on its last batch; the rank-2 model on every row
        inst = generate_planted(PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3),
                                              noise=0.5), seed=0)
        cfg = SolverConfig(solver="stochastic-appgrad", k=2, oversample=2, seed=3, max_iters=150)
        result = run_experiment(cfg, x=inst.x, y=inst.y)
        model = result.model
        for A, W in ((inst.x, model.phi), (inst.y, model.psi)):
            assert np.abs(W.T @ (A.T @ A / len(A)) @ W - np.eye(2)).max() <= 1e-9
        assert result.pcc_train == pytest.approx(result.report.records[-1].pcc_train, rel=1e-9)
        assert model.lam.sum() == pytest.approx(result.tcc_train, rel=1e-9)


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

    @pytest.mark.parametrize("flag", ["--report", "--trace", "--model-prefix"])
    def test_compare_rejects_the_output_flags(self, tmp_path, flag, monkeypatch, capsys):
        # compare writes no report, trace or model, so it must not accept a path for one
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("a run started"))
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--solvers", "spectral,nw", "--k", "2", "--x", "x.csv",
                  "--y", "y.csv", flag, str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    REJECTED = {  # case: (config file, extra flags, message)
        "unknown-key": ("colour = red\n", [], "unknown config key 'colour'"),
        "bad-value": ("k = two\n", [], "config key 'k': invalid literal"),
        "bad-schedule": ("schedule = linear\n", [], "unknown schedule 'linear'"),
        "max-iters": ("", ["--max-iters", "-5"], "max_iters must be >= 1"),
        "batch-size": ("", ["--solver", "stochastic-appgrad", "--batch-size", "0"],
                       "batch_size must be >= 1"),
        "negative-eta": ("", ["--solver", "appgrad", "--eta", "-1"], "eta must be positive"),
        "zero-eta": ("", ["--solver", "stochastic-appgrad", "--eta", "0"], "eta must be positive"),
    }

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("case", [*REJECTED, "no-data"])
    def test_rejected_config_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command,
                                              case):
        monkeypatch.setattr(io, "load_dataset", lambda *a: pytest.fail("data loaded"))
        text, flags, message = self.REJECTED.get(case, ("", [], "need --x and --y"))
        (tmp_path / "run.cfg").write_text(text)
        argv = [command, "--config", str(tmp_path / "run.cfg"), *flags]
        argv += ["--solvers", "spectral,nw"] if command == "compare" else []
        argv += [] if case == "no-data" else ["--x", "x.csv", "--y", "y.csv"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cca-bench {command}: error: " in err and message in err

    @pytest.mark.parametrize("flags, message", [
        (["--solver", "appgrad", "--eta", "nan"], "eta must be positive and finite"),
        (["--solver", "stochastic-appgrad", "--eta", "inf"], "eta must be positive and finite"),
        (["--solver", "spectral", "--lambda", "nan"], "lam must be nonnegative and finite"),
        (["--solver", "spectral", "--lambda", "inf"], "lam must be nonnegative and finite"),
        (["--tol", "nan"], "tol must be finite"),
        (["--solver", "kernel-appgrad", "--kernel", "rbf:nan"], "argument --kernel"),
    ])
    def test_non_finite_value_is_a_usage_error(self, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(io, "load_dataset", lambda *a: pytest.fail("data loaded"))
        with pytest.raises(SystemExit) as exc:
            main(["run", *flags, "--x", "x.csv", "--y", "y.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cca-bench run: error: " in err and message in err

    @pytest.mark.parametrize("flags, message", [
        (["--cond", "0.5"], "conditioning >= 1 required"),
        (["--n", "5", "--p1", "4", "--p2", "4"], "need n >= p1 + p2"),
        (["--correlations", "0.5,0.9"], "correlations must be strictly decreasing"),
    ])
    def test_rejected_planted_params_are_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                       flags, message):
        monkeypatch.setattr(cli, "generate_planted", lambda *a, **kw: pytest.fail("generated"))
        argv = ["generate", "--n", "200", "--p1", "8", "--p2", "8", "--correlations", "0.9,0.5",
                "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"), *flags]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cca-bench generate: error: " in err and message in err
        assert not list(tmp_path.iterdir())

    def test_compare_rejects_an_unknown_solver_before_any_run(self, monkeypatch, capsys):
        monkeypatch.setattr(io, "load_dataset", lambda *a: pytest.fail("data loaded"))
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--solvers", "spectral,svd", "--x", "x.csv", "--y", "y.csv"])
        assert exc.value.code == 2
        assert "unknown solver 'svd'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_als_beyond_rank_one_is_a_usage_error(self, monkeypatch, capsys, command):
        monkeypatch.setattr(io, "load_dataset", lambda *a: pytest.fail("data loaded"))
        argv = [command, "--k", "2", "--x", "x.csv", "--y", "y.csv"]
        argv += ["--solvers", "spectral,als"] if command == "compare" else ["--solver", "als"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"cca-bench {command}: error: " in err and "k=1" in err

    def test_kernel_flag_parsing(self, tmp_path, capsys):
        self.generate(tmp_path)
        code = main([
            "run", "--solver", "kernel-appgrad", "--k", "1",
            "--kernel", "rbf:2.5",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
        ])
        assert code == 0
        assert "tcc=" in capsys.readouterr().out
