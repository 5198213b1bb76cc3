"""Tests for correlation-capture metrics, subspace angles, and run traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svd

from ccakit import metrics
from ccakit.appgrad import normalize_columns
from ccakit.linalg import gram, sym_inv_sqrt
from ccakit.metrics import (
    RECORD_FIELDS,
    RIDGE_SCALE,
    IterationRecord,
    RunReport,
    moment_tcc,
    moments,
    pcc,
    principal_angles,
    projected_correlations,
    step_flops,
    tcc,
)
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import spectral_cca

from conftest import peak_bytes, random_orthogonal


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

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError, match="same number of columns"):
            projected_correlations(np.ones((4, 2)), np.ones((4, 3)))

    def test_one_stacked_inverse_root_matches_two(self, monkeypatch):
        """Both Grams are whitened by one ``sym_inv_sqrt`` call on their stack, whose result is
        bit for bit what one call per Gram gives."""
        def per_gram(U, V):  # one inverse root per Gram
            n = U.shape[0]
            Su, Sv = U.T @ U / n, V.T @ V / n
            lam_u = RIDGE_SCALE * max(np.trace(Su) / max(Su.shape[0], 1), 1e-300)
            lam_v = RIDGE_SCALE * max(np.trace(Sv) / max(Sv.shape[0], 1), 1e-300)
            Ru = sym_inv_sqrt(Su + lam_u * np.eye(Su.shape[0]), floor=lam_u * 1e-6)
            Rv = sym_inv_sqrt(Sv + lam_v * np.eye(Sv.shape[0]), floor=lam_v * 1e-6)
            return np.minimum(svd(Ru @ (U.T @ V / n) @ Rv, compute_uv=False), 1.0 + 1e-9)

        rng = np.random.default_rng(8)
        calls = []
        monkeypatch.setattr(metrics, "sym_inv_sqrt",
                            lambda M, floor: calls.append(np.shape(M)) or sym_inv_sqrt(M, floor))
        for k in (1, 3, 8):
            for scale in (1e-8, 1.0, 1e8):
                U = scale * rng.standard_normal((60, k)) @ rng.standard_normal((k, k))
                V = U @ rng.standard_normal((k, k)) + rng.standard_normal((60, k))
                calls.clear()
                got = projected_correlations(U, V)
                assert calls == [(2, k, k)]
                assert np.array_equal(got, per_gram(U, V))

    @given(k=st.integers(1, 5), log_scale=st.floats(-6, 6), log_cond=st.floats(0, 3),
           duplicate=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_moment_tcc_matches_projected_tcc(self, k, log_scale, log_cond, duplicate, seed):
        # directions near the canonical ones, whitened as the solvers' are; the
        # moments square the view's condition number, so the agreement is of
        # order eps * cond^2 relative, about 1e-10 at cond = 1e3
        cond = 10.0**log_cond
        params = PlantedParams(n=200, p1=8, p2=7, correlations=tuple(np.linspace(0.9, 0.3, k)),
                               cond_x=cond, cond_y=cond, latent_rotate=True)
        inst = generate_planted(params, seed=seed)
        rng = np.random.default_rng(seed)
        X, Y = 10.0**log_scale * inst.x, 10.0**log_scale * inst.y
        A = normalize_columns(X, inst.model.phi) + 0.3 * normalize_columns(X, rng.standard_normal((8, k)))
        B = normalize_columns(Y, inst.model.psi) + 0.3 * normalize_columns(Y, rng.standard_normal((7, k)))
        if duplicate:
            # a duplicated column makes Sx singular (no oracle at lam = 0); A
            # splits column 0's weight over both copies and repeats its first
            # direction, so A'SxA is singular and only the ridge inverts it
            X = np.hstack([X, X[:, :1]])
            A = np.vstack([A, A[:1] / 2])
            A[0] /= 2
            A[:, -1] = A[:, 0]
        want = tcc(X, Y, A, B)
        assert abs(moment_tcc(moments(X, Y), A, B) - want) <= 1e-10 * want


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

    def test_plain_inner_product_forms_nothing_p_by_p(self):
        """Without an S, two 3000 x 5 bases are compared in O(p k) memory, not through a p x p
        identity (72 MB), and the cosines are those of the identity inner product."""
        rng = np.random.default_rng(9)
        p, k = 3000, 5
        A = rng.standard_normal((p, k))
        B = A @ rng.standard_normal((k, k)) + 0.5 * rng.standard_normal((p, k))
        cos, peak = peak_bytes(lambda: principal_angles(A, B))
        assert peak < 2 * (A.nbytes + B.nbytes)
        small_a, small_b = A[:300], B[:300]
        for S in (None, np.eye(300)):
            got = principal_angles(small_a, small_b, S)
            Ga, Gb = small_a.T @ small_a, small_b.T @ small_b  # the cosines by an explicit basis
            Qa, Qb = small_a @ sym_inv_sqrt(Ga, 1e-300), small_b @ sym_inv_sqrt(Gb, 1e-300)
            want = np.minimum(svd(Qa.T @ Qb, compute_uv=False), 1.0)
            assert np.abs(got - want).max() < 1e-14
        assert np.all(np.diff(cos) <= 0) and 0.0 < cos[-1] and cos[0] <= 1.0


class TestFlopModel:
    def test_positive_and_monotone(self):
        base = step_flops(100, 20, 30, 5)
        assert base > 0
        assert step_flops(200, 20, 30, 5) > base
        assert step_flops(100, 20, 30, 6) > base

    def test_cached_iteration_saves_two_products_per_view(self):
        """Products per view, dense or sparse: 3 uncached, 2 cached, 4 without whiteners."""
        m, p1, p2, k = 100, 20, 30, 5
        product = 2 * m * p1 * k + 2 * m * p2 * k
        base = step_flops(m, p1, p2, k, 0, 0)  # the k-by-k terms alone
        for nnz in ((), (m * p1, m * p2)):
            for kw, products in (({}, 3), ({"cached": True}, 2), ({"whitened": False}, 4)):
                assert step_flops(m, p1, p2, k, *nnz, **kw) - base == products * product

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

    def test_reads_a_report_with_the_older_seven_columns(self, tmp_path):
        path = tmp_path / "old.report"
        path.write_text(
            "# solver=appgrad\n# seed=3\n# config k=2\n"
            "# fields: t flops tcc_train tcc_holdout pcc_train pcc_holdout err\n"
            "1 100 0.5 nan 0.40000000000000002 nan nan\n"
            "5 500 1.1000000000000001 0.75 0.90000000000000002 0.625 0.125\n")
        back = RunReport.read(path)
        assert back.solver == "appgrad" and back.seed == 3 and back.config == {"k": "2"}
        assert [(r.t, r.flops, r.tcc_train, r.pcc_train) for r in back.records] == [
            (1, 100, 0.5, 0.4), (5, 500, 1.1, 0.9)]
        assert np.isnan(back.records[0].tcc_holdout) and back.records[1].tcc_holdout == 0.75
        assert not hasattr(back.records[1], "err")
        # written back in the current five columns
        assert back.to_lines()[-1] == "5 500 1.1000000000000001 0.75 0.90000000000000002"

    def test_reads_columns_by_the_fields_line(self, tmp_path):
        path = tmp_path / "reordered.report"
        path.write_text("# solver=appgrad\n# seed=3\n"
                        "# fields: pcc_train flops t future tcc_train\n"
                        "0.25 100 1 7 0.5\n0.75 500 5 8 1.5\n")
        back = RunReport.read(path)
        assert [(r.t, r.flops, r.tcc_train, r.pcc_train) for r in back.records] == [
            (1, 100, 0.5, 0.25), (5, 500, 1.5, 0.75)]
        assert all(np.isnan(r.tcc_holdout) for r in back.records)

    def test_reads_a_report_without_a_fields_line_in_record_order(self, tmp_path):
        path = tmp_path / "bare.report"
        path.write_text("# solver=appgrad\n1 100 0.5 0.25 0.4\n")
        (r,) = RunReport.read(path).records
        assert (r.t, r.flops, r.tcc_train, r.tcc_holdout, r.pcc_train) == (1, 100, 0.5, 0.25, 0.4)

    @pytest.mark.parametrize("text, message", [
        ("# fields: t flops tcc_train\n1 100 0.5\n\n5 500\n", r":5: 2 fields, expected 3"),
        ("# fields: t tcc_train\n1 0.5\n", r":2: fields lack t or flops"),
    ])
    def test_a_malformed_report_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.report"
        path.write_text("# solver=appgrad\n" + text)
        with pytest.raises(ValueError, match=r"bad\.report" + message):
            RunReport.read(path)

    def test_field_order_is_the_file_format(self):
        assert RECORD_FIELDS == ("t", "flops", "tcc_train", "tcc_holdout", "pcc_train")

    def test_record_takes_pcc_from_the_oracle_tcc(self):
        report = RunReport(solver="x", seed=0)
        report.record(1, 10, 0.5, 2.0, tcc_holdout=0.25)
        report.record(2, 20, 0.5, None, wall_time=1.5)
        first, second = report.records
        assert (first.pcc_train, first.tcc_holdout) == (0.25, 0.25)
        assert np.isnan(second.pcc_train) and second.wall_time == 1.5
        with pytest.raises(ValueError, match="oracle captures no correlation"):
            report.record(3, 30, 0.5, 0.0)
        assert len(report.records) == 2

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
