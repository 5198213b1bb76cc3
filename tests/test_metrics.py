"""Tests for correlation-capture metrics, subspace angles, and run traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccakit.linalg import gram
from ccakit.metrics import (
    IterationRecord,
    RunReport,
    pcc,
    principal_angles,
    projected_correlations,
    step_flops,
    tcc,
)
from ccakit.reference import spectral_cca

from conftest import random_orthogonal


class TestTcc:
    def test_oracle_directions_recover_lambda_sum(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        oracle = small_instance.empirical
        got = tcc(X, Y, oracle.phi, oracle.psi)
        assert abs(got - oracle.lam.sum()) < 1e-8

    def test_orthogonal_views_capture_nothing(self):
        # X and Y live on disjoint orthonormal column blocks
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((60, 8)))[0]
        X, Y = Q[:, :4], Q[:, 4:]
        A = rng.standard_normal((4, 2))
        B = rng.standard_normal((4, 2))
        assert tcc(X, Y, A, B) <= 1e-6

    def test_invariant_to_invertible_remixing(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        oracle = small_instance.empirical
        base = tcc(X, Y, oracle.phi, oracle.psi)
        rng = np.random.default_rng(1)
        for _ in range(50):
            # invertible with condition number <= 4, so the tiny ridge inside
            # the projected CCA stays far below the 1e-8 budget
            G = random_orthogonal(3, rng) @ np.diag(rng.uniform(0.5, 2.0, 3))
            G = G @ random_orthogonal(3, rng)
            side = rng.integers(2)
            A = oracle.phi @ G if side == 0 else oracle.phi
            B = oracle.psi if side == 0 else oracle.psi @ G
            assert abs(tcc(X, Y, A, B) - base) < 1e-8

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            projected_correlations(np.ones((4, 2)), np.ones((5, 2)))


class TestPcc:
    def test_oracle_scores_one(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        o = small_instance.empirical
        assert abs(pcc(X, Y, (o.phi, o.psi), (o.phi, o.psi)) - 1.0) < 1e-8

    def test_random_directions_score_below_one(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        o = small_instance.empirical
        rng = np.random.default_rng(2)
        A = rng.standard_normal(o.phi.shape)
        B = rng.standard_normal(o.psi.shape)
        score = pcc(X, Y, (A, B), (o.phi, o.psi))
        assert score < 1.0

    def test_holdout_evaluation_is_finite(self, small_instance):
        # both numerator and denominator recomputed on held-out rows; the
        # ratio can legitimately exceed 1 there
        X, Y = small_instance.x, small_instance.y
        train, hold = slice(0, 300), slice(300, 400)
        o_train = spectral_cca(X[train], Y[train], 3)
        o_hold = spectral_cca(X[hold], Y[hold], 3)
        score = pcc(
            X[hold], Y[hold], (o_train.phi, o_train.psi), (o_hold.phi, o_hold.psi)
        )
        assert np.isfinite(score) and score > 0

    def test_degenerate_oracle_rejected(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((40, 6)))[0]
        X, Y = Q[:, :3], Q[:, 3:]  # orthogonal views: no oracle correlation
        A = rng.standard_normal((3, 1))
        B = rng.standard_normal((3, 1))
        with pytest.raises(ValueError, match="PCC"):
            pcc(X, Y, (A, B), (A, B))


class TestPrincipalAngles:
    def test_identical_spans(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 3))
        assert np.allclose(principal_angles(A, A), 1.0)

    def test_orthogonal_spans(self):
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((10, 6)))[0]
        cos = principal_angles(Q[:, :3], Q[:, 3:])
        assert np.all(cos <= 1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((12, 4))
        Q = random_orthogonal(4, rng)
        assert np.allclose(principal_angles(A, A @ Q), 1.0, atol=1e-10)

    def test_custom_inner_product(self, small_instance):
        # under the view Gram, the whitened oracle directions are orthonormal,
        # so angles against themselves are exactly flat
        X = small_instance.x
        Phi = small_instance.empirical.phi
        cos = principal_angles(Phi, Phi, S=gram(X))
        assert np.allclose(cos, 1.0, atol=1e-10)

    def test_rank_deficiency_flagged(self):
        A = np.ones((8, 2))  # duplicate columns
        with pytest.raises(ValueError, match="rank"):
            principal_angles(A, A)


class TestFlopModel:
    def test_positive_and_monotone(self):
        base = step_flops(100, 20, 30, 5)
        assert base > 0
        assert step_flops(200, 20, 30, 5) > base
        assert step_flops(100, 20, 30, 6) > base

    def test_cached_iteration_saves_two_products_per_view(self):
        m, p1, p2, k = 100, 20, 30, 5
        saved = step_flops(m, p1, p2, k) - step_flops(m, p1, p2, k, cached=True)
        assert saved == 2 * (2 * m * p1 * k + 2 * m * p2 * k)

    @given(
        m=st.integers(1, 10_000),
        p1=st.integers(1, 500),
        p2=st.integers(1, 500),
        k=st.integers(1, 50),
    )
    @settings(max_examples=50)
    def test_sparse_cost_never_exceeds_dense(self, m, p1, p2, k):
        dense = step_flops(m, p1, p2, k)
        sparse = step_flops(m, p1, p2, k, nnz1=m * p1 // 2, nnz2=m * p2 // 2)
        assert sparse <= dense


class TestRunReport:
    def make_report(self):
        report = RunReport(solver="appgrad", seed=3, config={"k": 2, "eta1": 0.25})
        report.records = [
            IterationRecord(t=1, flops=100, tcc_train=0.5, pcc_train=0.4),
            IterationRecord(t=5, flops=500, tcc_train=1.1, pcc_train=0.9),
        ]
        return report

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "trace.txt"
        report.write(path)
        back = RunReport.read(path)
        assert back.solver == "appgrad"
        assert back.seed == 3
        assert len(back.records) == 2
        for a, b in zip(report.records, back.records):
            assert a.t == b.t and a.flops == b.flops
            assert a.tcc_train == b.tcc_train
            assert a.pcc_train == b.pcc_train
            assert np.isnan(b.tcc_holdout)

    def test_wall_time_excluded_from_serialization(self, tmp_path):
        report = self.make_report()
        report.records[0].wall_time = 123.456
        other = self.make_report()
        other.records[0].wall_time = 789.0
        assert report.to_lines() == other.to_lines()

    def test_validation_catches_bad_traces(self):
        report = self.make_report()
        report.validate()
        report.records.append(IterationRecord(t=5, flops=600))
        with pytest.raises(ValueError, match="increasing"):
            report.validate()
        report.records[-1].t = 9
        report.records[-1].flops = 10
        with pytest.raises(ValueError, match="FLOP"):
            report.validate()

    def test_pcc_curve_output(self, tmp_path):
        report = self.make_report()
        report.records.append(IterationRecord(t=9, flops=900))  # no PCC: skipped
        path = tmp_path / "curve.txt"
        report.write_pcc_curve(path)
        rows = path.read_text().strip().splitlines()
        assert rows == ["100 0.40000000000000002", "500 0.90000000000000002"]
