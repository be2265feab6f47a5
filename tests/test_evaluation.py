import numpy as np
import pytest

import ytx
from ytx import core, evaluation as ev
from ytx.errors import ConfigError, DataError


class TestMetrics:
    def test_rse_perfect(self):
        assert ytx.rse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_rse_mean_predictor_is_one(self):
        assert ytx.rse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_rse_arithmetic(self):
        assert ytx.rse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(2.0)

    def test_rse_constant_actual_rejected(self):
        with pytest.raises(DataError, match="zero denominator"):
            ytx.rse([2.0, 2.0], [1.0, 3.0])

    def test_smape_perfect(self):
        assert ytx.smape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_smape_200_at_zero_prediction(self):
        assert ytx.smape([2.0], [0.0]) == pytest.approx(200.0)

    def test_smape_double_zero_convention(self):
        assert ytx.smape([0.0], [0.0]) == 0.0

    def test_smape_bounded(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=100)
        p = rng.normal(size=100)
        assert 0.0 <= ytx.smape(a, p) <= 200.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 51)
            a = rng.normal(size=n) * 10
            p = rng.normal(size=n) * 10
            rse_oracle = sum((x - y) ** 2 for x, y in zip(a, p)) / (
                sum((x - np.mean(a)) ** 2 for x in a))
            smape_oracle = 100.0 / n * sum(
                abs(x - y) / ((abs(x) + abs(y)) / 2) for x, y in zip(a, p))
            assert ytx.rse(a, p) == pytest.approx(rse_oracle, rel=1e-12)
            assert ytx.smape(a, p) == pytest.approx(smape_oracle, rel=1e-12)


def ridge_oracle(X, y, alpha):
    """Independent normal-equations solve with its own standardization."""
    means = X.mean(axis=0)
    stds = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    Xs = (X - means) / stds
    yc = y - y.mean()
    gram = Xs.T @ Xs + alpha * np.eye(X.shape[1])
    return np.linalg.inv(gram) @ (Xs.T @ yc)


class TestRidge:
    def test_exact_interpolation_at_alpha_zero(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = X @ [1.0, -2.0, 0.5, 3.0] + 7.0
        model = ytx.fit_ridge(X, y, alpha=0.0)
        assert np.max(np.abs(ytx.predict(model, X) - y)) <= 1e-8

    def test_infinite_shrinkage(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40) + 5.0
        model = ytx.fit_ridge(X, y, alpha=1e12)
        assert np.max(np.abs(model.coefficients)) < 1e-6
        assert ytx.predict(model, X) == pytest.approx(
            np.full(40, y.mean()), abs=1e-4)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(50, 5))
            y = rng.normal(size=50)
            model = ytx.fit_ridge(X, y, alpha=1.0)
            assert np.max(np.abs(
                model.coefficients - ridge_oracle(X, y, 1.0))) <= 1e-8

    def test_singular_at_alpha_zero(self):
        X = np.ones((10, 2))
        X[:, 1] = 2.0  # both columns constant -> zero after centering
        with pytest.raises(DataError, match="alpha > 0"):
            ytx.fit_ridge(X, np.arange(10.0), alpha=0.0)

    def test_coefficients_minimize_objective(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        alpha = 2.0
        model = ytx.fit_ridge(X, y, alpha)
        Xs = (X - model.feature_means) / model.feature_stds
        yc = y - y.mean()

        def objective(beta):
            return np.sum((yc - Xs @ beta) ** 2) + alpha * np.sum(beta ** 2)

        base = objective(model.coefficients)
        for j in range(4):
            for delta in (1e-3, -1e-3):
                perturbed = model.coefficients.copy()
                perturbed[j] += delta
                assert objective(perturbed) > base


class TestLasso:
    def test_large_alpha_kills_all_coefficients(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        Xs = (X - X.mean(0)) / X.std(0)
        kill = np.max(np.abs(Xs.T @ (y - y.mean()))) / 50
        model = ytx.fit_lasso(X, y, alpha=kill * 1.01)
        assert np.all(model.coefficients == 0.0)

    def test_orthonormal_soft_threshold_oracle(self):
        rng = np.random.default_rng(7)
        n, d = 64, 5
        G = rng.normal(size=(n, d))
        Q, _ = np.linalg.qr(G - G.mean(axis=0))
        X = Q * np.sqrt(n)  # zero-mean, unit-std, X'X = n I
        y = rng.normal(size=n)
        alpha = 0.1
        model = ytx.fit_lasso(X, y, alpha=alpha)
        yc = y - y.mean()
        expected = np.array(
            [np.sign(r) * max(abs(r) - alpha, 0.0) for r in X.T @ yc / n])
        assert np.max(np.abs(model.coefficients - expected)) <= 1e-6

    def test_single_variable_closed_form(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 1))
        y = 2.0 * X[:, 0] + rng.normal(size=40)
        alpha = 0.3
        model = ytx.fit_lasso(X, y, alpha=alpha)
        Xs = (X - X.mean(0)) / X.std(0)
        yc = y - y.mean()
        rho = float(Xs[:, 0] @ yc) / 40
        c = float(Xs[:, 0] @ Xs[:, 0]) / 40
        expected = np.sign(rho) * max(abs(rho) - alpha, 0.0) / c
        assert model.coefficients[0] == pytest.approx(expected, abs=1e-8)

    def test_objective_monotone_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=80)
        model = ytx.fit_lasso(X, y, alpha=0.05)
        history = np.array(model.objective_history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigError):
            ytx.fit_lasso(np.ones((4, 1)), np.arange(4.0), alpha=0.0)


def _soft_threshold(value, amount):
    return np.sign(value) * max(abs(value) - amount, 0.0)


def _reference_fit_lasso(X, y, alpha=1.0, tol=1e-7, max_sweeps=10000):
    """The residual-update coordinate descent that the Gram kernel replaced."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if alpha <= 0.0:
        raise ConfigError("lasso alpha must be positive")
    Xs, means, stds = ev._standardize(X)
    yc = y - y.mean()
    n, d = Xs.shape
    col_sq = np.sum(Xs ** 2, axis=0) / n
    beta = np.zeros(d)
    resid = yc.copy()
    converged = False
    sweep = 0
    history = []
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = (Xs[:, j] @ resid) / n + col_sq[j] * old
            new = _soft_threshold(rho, alpha) / col_sq[j]
            if new != old:
                resid -= (new - old) * Xs[:, j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        history.append(ev.lasso_objective(Xs, yc, beta, alpha))
        if max_delta < tol:
            converged = True
            break
    return ev.LinearModel("lasso", alpha, beta, float(y.mean()), means, stds,
                          converged=converged, n_sweeps=sweep,
                          objective_history=tuple(history))


def factor_design(n=1000, d=50, factors=10, seed=0):
    """Features driven by a few latent factors, with a lognormal target."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, factors))
    X = F @ rng.normal(size=(factors, d)) + 0.7 * rng.normal(size=(n, d))
    y = np.exp(1.0 + F @ rng.uniform(-0.5, 0.5, factors)
               + 0.3 * rng.normal(size=n))
    return X, y


def alpha_max(X, y):
    Xs, _, _ = ev._standardize(X)
    return float(np.max(np.abs(Xs.T @ (y - y.mean())))) / X.shape[0]


class TestLassoKernel:
    """The Gram-matrix kernel retraces the residual-update iterates."""

    def assert_matches_reference(self, X, y, alpha):
        model = ytx.fit_lasso(X, y, alpha)
        ref = _reference_fit_lasso(X, y, alpha)
        assert model.n_sweeps == ref.n_sweeps
        assert model.converged == ref.converged
        assert np.max(np.abs(model.coefficients - ref.coefficients)) <= 1e-10
        return model

    def test_factor_correlated_wide_design(self):
        X, y = factor_design()
        model = self.assert_matches_reference(X, y, 0.1)
        assert model.n_sweeps > 50

    def test_zero_variance_column(self):
        X, y = factor_design(n=200, d=8, factors=3, seed=1)
        X[:, 3] = 2.5
        model = self.assert_matches_reference(X, y, 0.05)
        assert model.coefficients[3] == 0.0

    def test_alpha_at_alpha_max_kills_all(self):
        X, y = factor_design(n=300, d=12, factors=4, seed=2)
        model = self.assert_matches_reference(X, y, alpha_max(X, y))
        assert np.all(model.coefficients == 0.0)
        assert model.n_sweeps == 1

    def test_small_alpha_needs_hundreds_of_sweeps(self):
        X, y = factor_design(n=400, d=30, factors=6, seed=3)
        model = self.assert_matches_reference(X, y, 1e-3)
        assert model.n_sweeps >= 200


class TestStandardize:
    def test_inexact_constant_column_gets_no_weight(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([rng.normal(size=(60, 3)), np.full(60, 0.1)])
        y = X[:, :3] @ [1.0, -0.5, 0.25] + rng.normal(size=60)
        assert X[:, 3].std() > 0.0   # the mean of 0.1s rounds inexactly
        probe = rng.normal(size=(5, 4))
        probe[:, 3] = 0.1
        moved = probe.copy()
        moved[:, 3] = 0.2
        for model in (ytx.fit_ridge(X, y, 1.0), ytx.fit_lasso(X, y, 0.05)):
            assert np.array_equal(ytx.predict(model, probe),
                                  ytx.predict(model, moved))
            assert model.coefficients[3] == 0.0


class TestFoldPlan:
    def test_partition_even(self):
        plan = ytx.make_fold_plan(4, seed=0)
        assert len(plan.folds) == 10
        for train, test in plan.folds:
            assert len(train) == 2 and len(test) == 2
            assert sorted(train + test) == [0, 1, 2, 3]

    def test_partition_odd(self):
        plan = ytx.make_fold_plan(5, seed=1)
        sizes = {(len(a), len(b)) for a, b in plan.folds}
        assert sizes == {(3, 2), (2, 3)}

    def test_deterministic(self):
        assert ytx.make_fold_plan(100, seed=9) == ytx.make_fold_plan(
            100, seed=9)

    def test_each_index_once_per_repeat(self):
        plan = ytx.make_fold_plan(101, seed=3)
        for r in range(5):
            a, b = plan.folds[2 * r]
            assert sorted(a + b) == list(range(101))

    def test_too_small(self):
        with pytest.raises(DataError):
            ytx.make_fold_plan(3, seed=0)


def toy_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.exp(X @ [0.5, -0.3, 0.2] + rng.normal(scale=0.3, size=n))
    return ytx.Dataset(
        features=X, target=y, column_names=("a", "b", "c"),
        roles=ytx.ColumnRoles(target="y"))


class TestBenchmark:
    def test_identity_matches_direct_run(self):
        ds = toy_dataset()
        report = ytx.run_benchmark(ds, models=("ridge",), transforms=(),
                                   seed=7)
        plan = ytx.make_fold_plan(ds.n, 7)
        for i, (train, test) in enumerate(plan.folds):
            model = ytx.fit_ridge(ds.features[list(train)],
                                  ds.target[list(train)], 1.0)
            pred = ytx.predict(model, ds.features[list(test)])
            direct = ytx.rse(ds.target[list(test)], pred)
            assert report.cells[("ridge", "identity")]["rse"][i] == direct

    def test_ridge_cells_match_public_fit_and_predict(self):
        ds = toy_dataset(seed=6)
        kinds = ("log-offset", "sqrt", "yeo-johnson", "quantile-normal")
        report = ytx.run_benchmark(ds, models=("ridge", "lasso"),
                                   transforms=kinds, seed=13)
        plan = ytx.make_fold_plan(ds.n, 13)
        for i, (train, test) in enumerate(plan.folds):
            X_tr, X_te = ds.features[list(train)], ds.features[list(test)]
            y_tr, y_te = ds.target[list(train)], ds.target[list(test)]
            for kind in ("identity",) + kinds:
                t = ev.fit_transform_kind(kind, y_tr)
                model = ytx.fit_ridge(X_tr, ytx.forward(t, y_tr), 1.0)
                z_pred, _ = core.clamp_to_inverse_range(
                    t, ytx.predict(model, X_te))
                y_pred = ytx.inverse(t, z_pred)
                cell = report.cells[("ridge", kind)]
                assert cell["rse"][i] == ytx.rse(y_te, y_pred)
                assert cell["smape"][i] == ytx.smape(y_te, y_pred)

    def test_baseline_always_present(self):
        ds = toy_dataset()
        report = ytx.run_benchmark(ds, models=("lasso",),
                                   transforms=("log-offset",), seed=1)
        assert report.transforms[0] == "identity"
        assert ("lasso", "identity") in report.cells

    def test_std_matches_sample_std(self):
        ds = toy_dataset()
        report = ytx.run_benchmark(ds, models=("ridge",),
                                   transforms=("log-offset",), seed=2)
        folds = report.cells[("ridge", "log-offset")]["rse"]
        _, std = report.mean_std("ridge", "log-offset", "rse")
        assert std == pytest.approx(np.std(folds, ddof=1))

    def test_leakage_guard(self):
        ds = toy_dataset(seed=3)
        plan = ytx.make_fold_plan(ds.n, 5)
        train, test = plan.folds[0]
        y2 = ds.target.copy()
        y2[list(test)] += 100.0
        for kind in ("log-offset", "quantile-normal", "yeo-johnson"):
            t1 = ev.fit_transform_kind(kind, ds.target[list(train)])
            t2 = ev.fit_transform_kind(kind, y2[list(train)])
            assert t1 == t2

    def test_thread_determinism(self):
        ds = toy_dataset(seed=4)
        outputs = [
            ytx.run_benchmark(ds, models=("ridge", "lasso"),
                              transforms=("quantile-normal",), seed=11,
                              threads=k).to_json()
            for k in (None, 2, 4)]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            ytx.run_benchmark(toy_dataset(), models=("gbtr",), seed=0)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError):
            ytx.run_benchmark(toy_dataset(), transforms=("nope",), seed=0)

    def test_markdown_shape(self):
        ds = toy_dataset()
        report = ytx.run_benchmark(ds, models=("ridge",),
                                   transforms=("log-offset",), seed=1,
                                   dataset_name="toy")
        md = report.to_markdown("rse")
        assert "| Base | Ln |" in md.replace("|  |", "|").replace("  ", " ")
        assert "toy" in md

    def test_report_json_roundtrip(self):
        ds = toy_dataset()
        report = ytx.run_benchmark(ds, models=("ridge",),
                                   transforms=("sqrt",), seed=1)
        import json
        again = ev.BenchmarkReport.from_dict(json.loads(report.to_json()))
        assert again.to_json() == report.to_json()

    def test_clamp_counter_recorded(self):
        ds = toy_dataset(seed=5)
        report = ytx.run_benchmark(ds, models=("ridge",),
                                   transforms=("quantile-normal",), seed=3)
        cell = report.cells[("ridge", "quantile-normal")]
        assert cell["clamped"] >= 0
