"""Tests for the planted-instance generator, file I/O, the experiment driver,
and the command-line interface."""

from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from ccakit import io
from ccakit.cli import _CONFIG_TYPES, main
from ccakit.harness import (
    SOLVERS,
    SolverConfig,
    extract_best_k,
    parse_config_file,
    run_experiment,
)
from ccakit.kernels import KernelSpec
from ccakit.metrics import RunReport, tcc
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import spectral_cca


class TestPlanted:
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

    def test_rank_beyond_the_view_widths_rejected(self, small_instance):
        # the narrower view has 12 columns; no solver may silently return fewer
        for name in ("spectral", "kernel-appgrad"):
            with pytest.raises(ValueError, match="k=13"):
                run_experiment(SolverConfig(solver=name, k=13),
                               x=small_instance.x, y=small_instance.y)

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

    def test_kernel_flag_parsing(self, tmp_path, capsys):
        self.generate(tmp_path)
        code = main([
            "run", "--solver", "kernel-appgrad", "--k", "1",
            "--kernel", "rbf:2.5",
            "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
        ])
        assert code == 0
        assert "tcc=" in capsys.readouterr().out
