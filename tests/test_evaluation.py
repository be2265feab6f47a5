import dataclasses
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

import ytx
from ytx import cli, core, ctx, dist, evaluation as ev
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

    @pytest.mark.parametrize("actual, predicted", [
        ([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0], [1.0]), ([], []),
        ([[1.0, 2.0]], [[1.0, 2.0]])])
    def test_rse_needs_equal_vectors_of_two(self, actual, predicted):
        with pytest.raises(DataError) as err:
            ytx.rse(actual, predicted)
        assert str(err.value) == (
            "rse needs two equal-length vectors of length >= 2")

    def test_smape_perfect(self):
        assert ytx.smape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_smape_200_at_zero_prediction(self):
        assert ytx.smape([2.0], [0.0]) == pytest.approx(200.0)

    def test_smape_double_zero_convention(self):
        assert ytx.smape([0.0], [0.0]) == 0.0

    @pytest.mark.parametrize("actual, predicted", [
        ([1.0, 2.0], [1.0]), ([], []), ([[1.0]], [1.0])])
    def test_smape_needs_equal_non_empty_vectors(self, actual, predicted):
        with pytest.raises(DataError) as err:
            ytx.smape(actual, predicted)
        assert str(err.value) == (
            "smape needs two equal-length non-empty vectors")

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


class TestNonFiniteAlpha:
    """NaN and infinite alphas are configuration errors for every entry to
    the fits; a negative one keeps its own message."""

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf,
                                       np.float64("nan")])
    @pytest.mark.parametrize("model", ["ridge", "lasso"])
    def test_rejected(self, model, alpha):
        X = np.random.default_rng(3).normal(size=(20, 2))
        fit = {"ridge": ytx.fit_ridge, "lasso": ytx.fit_lasso}[model]
        with pytest.raises(ConfigError, match="alpha must be finite"):
            fit(X, np.arange(20.0), alpha=alpha)
        with pytest.raises(ConfigError, match="alpha must be finite"):
            ytx.run_benchmark(toy_dataset(), models=(model,), alpha=alpha)

    def test_negative_messages_kept(self):
        X = np.random.default_rng(3).normal(size=(20, 2))
        with pytest.raises(ConfigError, match="^alpha must be non-negative$"):
            ytx.fit_ridge(X, np.arange(20.0), alpha=-1.0)
        with pytest.raises(ConfigError,
                           match="^lasso alpha must be positive$"):
            ytx.fit_lasso(X, np.arange(20.0), alpha=-1.0)


def _soft_threshold(value, amount):
    return np.sign(value) * max(abs(value) - amount, 0.0)


def _reference_fit_lasso(X, y, alpha=1.0, max_sweeps=10000):
    """The residual-update coordinate descent that the Gram kernel replaced,
    stopped on the duality gap it computes from its own residual."""
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
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = (Xs[:, j] @ resid) / n + col_sq[j] * old
            new = _soft_threshold(rho, alpha) / col_sq[j]
            if new != old:
                resid -= (new - old) * Xs[:, j]
                beta[j] = new
        history.append(ev.lasso_objective(Xs, yc, beta, alpha))
        if _residual_gap(Xs, yc, beta, alpha) <= 1e-4 * (yc @ yc / n) / 2:
            converged = True
            break
    return ev.LinearModel("lasso", alpha, beta, float(y.mean()), means, stds,
                          converged=converged, n_sweeps=sweep,
                          objective_history=tuple(history))


def _residual_gap(Xs, yc, beta, alpha):
    """The lasso's duality gap at ``beta``, in O(nd) from the residual r:
    the primal r'r/2n + alpha |beta|_1 less the dual objective at r scaled
    into the dual's feasible set |Xs'theta/n|_inf <= alpha."""
    n = Xs.shape[0]
    resid = yc - Xs @ beta
    rr = resid @ resid / n
    top = np.max(np.abs(Xs.T @ resid / n), initial=0.0)
    s = min(1.0, alpha / top) if top > 0.0 else 1.0
    primal = rr / 2 + alpha * np.sum(np.abs(beta))
    dual = s * (resid @ yc / n) - s ** 2 * rr / 2
    return primal - dual


def _reference_gram_lasso(X, y, alpha):
    """The Gram kernel as it was with beta and ``Gb`` held in numpy arrays
    and beta's entries read with ``item``, frozen; it always records the
    objective history."""
    X = np.asarray(X, dtype=float)
    z = np.asarray(y, dtype=float)
    design = ev._design(X)
    Xs = design.Xs
    n, d = Xs.shape
    zc = z - z.mean()
    zz = float(zc @ zc) / n
    G = design.gram / n
    diag = G.diagonal().tolist()
    c_arr = Xs.T @ zc / n
    c = c_arr.tolist()
    beta = np.zeros(d)
    Gb = np.zeros(d)
    history = []
    converged = False
    sweep = 0
    for sweep in range(1, 10001):
        for j in range(d):
            g_jj = diag[j]
            if g_jj == 0.0:
                continue
            old = beta.item(j)
            rho = c[j] - Gb.item(j) + g_jj * old
            if rho > alpha:
                new = (rho - alpha) / g_jj
            elif rho < -alpha:
                new = (rho + alpha) / g_jj
            else:
                new = 0.0
            if new != old:
                Gb += (new - old) * G[j]
                beta[j] = new
        history.append(ev.lasso_objective(Xs, zc, beta, alpha))
        bc = float(beta @ c_arr)
        rr = zz - 2.0 * bc + float(beta @ Gb)
        top = float(np.abs(c_arr - Gb).max(initial=0.0))
        s = alpha / top if top > alpha else 1.0
        primal = rr / 2.0 + alpha * float(np.abs(beta).sum())
        if primal - (s * (zz - bc) - s * s * rr / 2.0) <= 1e-4 * zz / 2.0:
            converged = True
            break
    return ev.LinearModel("lasso", alpha, beta, float(z.mean()),
                          design.means, design.stds, converged=converged,
                          n_sweeps=sweep, objective_history=tuple(history))


def assert_same_lasso_bits(model, ref):
    """``model`` is ``ref`` to the bit: coefficients, sweeps, convergence
    and every objective in the history."""
    assert model.coefficients.dtype == ref.coefficients.dtype
    assert model.coefficients.tobytes() == ref.coefficients.tobytes()
    assert model.n_sweeps == ref.n_sweeps
    assert model.converged == ref.converged
    assert model.objective_history == ref.objective_history


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


def assert_plain_or_accelerated(model, X, y, alpha):
    """The active-set jump is tried exactly when the plain kernel's first
    sweep does not settle.  ``model`` has the plain kernel's bits where it
    takes neither a jump nor an Anderson point: where the plain kernel
    stops at sweep 1, or where the jump is refused and the plain kernel
    stops before the first extrapolation (which follows sweep
    ``ANDERSON_DEPTH + 1``).  Otherwise it converged, with a gap computed
    here from the residual, in no more sweeps and to no higher an
    objective than the plain kernel."""
    ref = _reference_gram_lasso(X, y, alpha)
    _, jumps = _fit_lasso_spied(X, y, alpha, "_active_set")
    assert len(jumps) == (ref.n_sweeps > 1)
    if ref.n_sweeps == 1 or (ref.n_sweeps <= ev.ANDERSON_DEPTH + 1
                             and jumps == [None]):
        assert_same_lasso_bits(model, ref)
        return ref
    Xs, _, _ = ev._standardize(X)
    yc = y - y.mean()
    tol = ev.LASSO_GAP_TOL * (yc @ yc / len(y)) / 2
    assert model.converged
    assert _residual_gap(Xs, yc, model.coefficients, alpha) <= tol
    assert model.n_sweeps <= ref.n_sweeps
    assert (ev.lasso_objective(Xs, yc, model.coefficients, alpha)
            <= ev.lasso_objective(Xs, yc, ref.coefficients, alpha) + tol)
    return ref


def _spy(function, returned):
    def recorded(*args):
        returned.append(function(*args))
        return returned[-1]
    return recorded


def _fit_lasso_spied(X, y, alpha, *names):
    """``fit_lasso``'s model, then for each of the kernel's functions
    ``names`` a list of what it returned, call by call."""
    records = {name: [] for name in names}
    with mock.patch.multiple(ev, **{name: _spy(getattr(ev, name), returned)
                                    for name, returned in records.items()}):
        model = ytx.fit_lasso(X, y, alpha)
    return (model, *records.values())


class TestLassoKernel:
    """The Gram-matrix kernel retraces the residual-update iterates until
    its first extrapolation, and then converges no later than they do."""

    def assert_matches_reference(self, X, y, alpha):
        model = ytx.fit_lasso(X, y, alpha)
        gram = assert_plain_or_accelerated(model, X, y, alpha)
        ref = _reference_fit_lasso(X, y, alpha)
        assert (gram.n_sweeps, gram.converged) == (ref.n_sweeps, ref.converged)
        assert np.max(np.abs(gram.coefficients - ref.coefficients)) <= 1e-10
        return model, ref

    def test_factor_correlated_wide_design(self):
        X, y = factor_design()
        _, ref = self.assert_matches_reference(X, y, 0.1)
        assert ref.n_sweeps > 50

    def test_zero_variance_column(self):
        X, y = factor_design(n=200, d=8, factors=3, seed=1)
        X[:, 3] = 2.5
        model, _ = self.assert_matches_reference(X, y, 0.05)
        assert model.coefficients[3] == 0.0

    def test_alpha_at_alpha_max_kills_all(self):
        X, y = factor_design(n=300, d=12, factors=4, seed=2)
        model, _ = self.assert_matches_reference(X, y, alpha_max(X, y))
        assert np.all(model.coefficients == 0.0)
        assert model.n_sweeps == 1

    def test_small_alpha_needs_hundreds_of_sweeps(self):
        X, y = factor_design(n=400, d=30, factors=6, seed=3)
        _, ref = self.assert_matches_reference(X, y, 1e-3)
        assert ref.n_sweeps >= 200

    def test_harness_fit_skips_only_the_objective_history(self):
        X, y = factor_design(n=300, d=12, factors=4, seed=4)
        public = ytx.fit_lasso(X, y, 0.05)
        harness = ev._MODEL_FITTERS["lasso"](ev._design(X), y, 0.05)
        assert harness.objective_history == ()
        assert len(public.objective_history) == public.n_sweeps
        assert harness.coefficients.tobytes() == public.coefficients.tobytes()
        assert (harness.n_sweeps, harness.converged) == (
            public.n_sweeps, public.converged)

    def test_unconverged_after_the_sweep_cap(self):
        # Eight columns 1e-3 apart, weighted +100 and -100 in turn: at a
        # tiny alpha, coordinate descent creeps along the narrow valleys
        # between them, and an extrapolation over five differences cannot
        # span them all.  Each column is there twice, so the active-set
        # jump meets a singular G_AA and is refused.
        rng = np.random.default_rng(0)
        x = rng.normal(size=60)
        X = np.column_stack([x + 1e-3 * rng.normal(size=60)
                             for _ in range(8)])
        y = X @ (100.0 * np.array([1, -1] * 4)) + 0.1 * rng.normal(size=60)
        X = np.column_stack([X, X])
        model, jumps = _fit_lasso_spied(X, y, 1e-4, "_active_set")
        assert jumps == [None]
        assert not model.converged
        assert model.n_sweeps == 10000
        assert len(model.objective_history) == 10000
        ref = _reference_gram_lasso(X, y, 1e-4)
        assert not ref.converged and ref.n_sweeps == 10000
        Xs, _, _ = ev._standardize(X)
        yc = y - y.mean()
        tol = ev.LASSO_GAP_TOL * (yc @ yc / 60) / 2
        assert _residual_gap(Xs, yc, model.coefficients, 1e-4) > tol
        assert model.objective_history[-1] <= ref.objective_history[-1]

    def test_extrapolation_fires_on_a_factor_correlated_design(self):
        # wide-lasso's shape: 2,000 rows of 50 features driven by 10
        # factors, alpha 0.1.  Each feature is there twice, so the
        # active-set jump is refused and the sweeps go on from sweep 1.
        X, y = factor_design(n=2000)
        X = np.column_stack([X, X])
        model, jumps, points = _fit_lasso_spied(X, y, 0.1, "_active_set",
                                                "_extrapolate")
        assert jumps == [None]
        assert any(point is not None for point in points)
        assert np.all(np.diff(model.objective_history) <= 1e-12)
        assert model.n_sweeps < _reference_gram_lasso(X, y, 0.1).n_sweeps


class TestExtrapolate:
    """The Anderson point of six iterates, kept only when its objective is
    strictly below the last iterate's; an undefined point is skipped, and
    skipping raises no numpy warning."""

    X, y = factor_design(n=200, d=8, factors=3, seed=1)
    alpha = 0.05

    def extrapolate(self, iterates):
        design = ev._design(self.X)
        n = self.X.shape[0]
        zc = self.y - self.y.mean()
        G = design.gram / n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return G, ev._extrapolate(
                iterates, G, design.Xs.T @ zc / n,
                G @ np.array(iterates[-1]), float(zc @ zc) / n, self.alpha)

    def objective(self, beta):
        Xs, _, _ = ev._standardize(self.X)
        return ev.lasso_objective(Xs, self.y - self.y.mean(), beta,
                                  self.alpha)

    @staticmethod
    def toward(point, seed):
        """Six iterates of a linear iteration that closes on ``point`` at
        a different rate in each coordinate, from zero."""
        rate = np.random.default_rng(seed).uniform(0.6, 0.95, len(point))
        return [(point * (1.0 - rate ** k)).tolist() for k in range(6)]

    @pytest.mark.parametrize("target", ["optimum", "far"])
    def test_kept_only_below_the_last_iterate(self, target):
        optimum = ytx.fit_lasso(self.X, self.y, self.alpha).coefficients
        point = {"optimum": optimum,
                 "far": 50.0 * np.random.default_rng(5).normal(size=8)}
        iterates = self.toward(point[target], seed=6)
        B = np.array(iterates)
        U = np.diff(B, axis=0)
        w = np.linalg.solve(U @ U.T, np.ones(ev.ANDERSON_DEPTH))
        anderson = (w / w.sum()) @ B[1:]
        lower = self.objective(anderson) < self.objective(B[-1])
        assert lower is (target == "optimum")
        G, kept = self.extrapolate(iterates)
        if lower:
            assert kept[0].tobytes() == anderson.tobytes()
            assert kept[1].tobytes() == (G @ anderson).tobytes()
        else:
            assert kept is None

    @pytest.mark.parametrize("steps", [
        [0.0] * 6, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        [0.0, 1e300, -1e300, 1e300, -1e300, 1e300]],
        ids=["equal", "one-direction", "overflowing"])
    def test_undefined_point_is_skipped(self, steps):
        base = np.linspace(-1.0, 1.0, 8)
        iterates = [(base + step).tolist() for step in steps]
        assert self.extrapolate(iterates)[1] is None


@st.composite
def _small_lasso_case(draw):
    """A small design, perhaps with a constant or a near-copy column, a
    target and an alpha as a share of alpha_max (at or above it, too)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 8))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    column = draw(st.integers(0, d - 1))
    shape = draw(st.sampled_from(["plain", "constant", "near-copy"]))
    if shape == "constant":
        X[:, column] = draw(st.sampled_from([0.1, 2.5, -7.0]))
    elif shape == "near-copy" and d > 1:
        X[:, column] = X[:, column - 1] + 1e-2 * rng.normal(size=n)
    y = X @ rng.normal(size=d) + rng.normal(size=n)
    share = draw(st.one_of(st.sampled_from([1.0, 1.5]),
                           st.floats(0.01, 1.0)))
    top = alpha_max(X, y)
    return X, y, share * top if top > 0.0 else share


class TestActiveSetJump:
    """After a first sweep that does not settle, the kernel moves to the
    active-set solution when that is finite and strictly lower; a refused
    jump costs at most 2d solves and raises no numpy warning."""

    @pytest.mark.parametrize("case", [
        "orthonormal", "constant-target", "above-alpha-max"])
    def test_fit_settled_by_sweep_one_never_jumps(self, case):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(64, 5))
        Q, _ = np.linalg.qr(G - G.mean(axis=0))
        X = Q * 8.0  # zero-mean, unit-std, X'X = 64 I
        y, alpha = rng.normal(size=64), 0.1
        if case == "constant-target":
            y = np.full(64, 3.0)
        elif case == "above-alpha-max":
            alpha = 2.0 * alpha_max(X, y)
        model, jumps = _fit_lasso_spied(X, y, alpha, "_active_set")
        assert jumps == [] and model.n_sweeps == 1 and model.converged
        assert_same_lasso_bits(model, _reference_gram_lasso(X, y, alpha))

    def test_accepted_jump_is_certified_by_the_next_gap_check(self):
        X, y = factor_design()
        model, jumps, gaps = _fit_lasso_spied(X, y, 0.1, "_active_set",
                                              "_lasso_gap")
        (b, _), = jumps
        Xs, _, _ = ev._standardize(X)
        yc = y - y.mean()
        tol = ev.LASSO_GAP_TOL * (yc @ yc / len(y)) / 2
        jumped = ev.lasso_objective(Xs, yc, b, 0.1)
        assert model.converged and model.n_sweeps == 2
        assert gaps[0] > tol >= gaps[1]
        assert jumped < model.objective_history[0]
        assert model.objective_history[1] == pytest.approx(jumped, rel=1e-12)
        # The jump is the lasso solution itself, not just within the stop.
        assert _residual_gap(Xs, yc, b, 0.1) <= 1e-9 * tol

    @pytest.mark.parametrize("shape", ["duplicated-column", "full-one-hot"])
    def test_rank_deficient_design_converges_without_warning(self, shape):
        X, y = factor_design(n=600, d=12, factors=4, seed=5)
        if shape == "duplicated-column":
            X = np.column_stack([X, X[:, :1]])
        else:
            # Eight dummies, one per level, sum to 1: skewed-session's
            # categorical column.
            level = np.random.default_rng(5).integers(0, 8, size=600)
            X = np.column_stack([X, np.eye(8)[level]])
            y = y * np.exp(0.2 * level)
        alpha = 0.01 * alpha_max(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, jumps = _fit_lasso_spied(X, y, alpha, "_active_set")
        assert len(jumps) == 1
        Xs, _, _ = ev._standardize(X)
        yc = y - y.mean()
        assert model.converged
        assert _residual_gap(Xs, yc, model.coefficients, alpha) <= (
            ev.LASSO_GAP_TOL * (yc @ yc / len(y)) / 2)

    @pytest.mark.parametrize("seed, ends", [(0, "singular"), (3, "cap")])
    def test_refused_jump_stays_within_the_solve_cap(self, seed, ends):
        # Each column twice: the support takes a column and then its copy.
        X, y = factor_design(n=200, d=8, factors=3, seed=seed)
        X = np.column_stack([X, X])
        design, zc = ev._design(X), y - y.mean()
        G, c = design.gram / len(y), design.Xs.T @ zc / len(y)
        d, solves, solve = len(c), [], np.linalg.solve

        def counted(*args):
            assert len(solves) < 2 * d, "more solves than the cap"
            solves.append(args[0].shape)
            return solve(*args)

        with warnings.catch_warnings(), \
                mock.patch.object(np.linalg, "solve", counted):
            warnings.simplefilter("error")
            assert ev._active_set([0.0] * d, G, c, np.zeros(d),
                                  float(zc @ zc) / len(y), 0.05) is None
        assert (len(solves) == 2 * d) is (ends == "cap")


class TestLassoKernelBits:
    """The list-state kernel gives the plain numpy-state kernel's bits
    until its first extrapolation, and converges no later after it."""

    @given(case=_small_lasso_case())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_frozen_gram_kernel(self, case):
        X, y, alpha = case
        assert_plain_or_accelerated(ytx.fit_lasso(X, y, alpha), X, y, alpha)

    @pytest.mark.parametrize("alpha", [np.float16(0.05), np.float32(0.05),
                                       np.float64(0.05), 0.05])
    def test_numpy_scalar_alpha_keeps_its_arithmetic(self, alpha):
        # Soft-thresholding is float64 arithmetic whatever alpha's type: a
        # float16 or float32 alpha fits as its value as a Python float.
        X, y = factor_design(n=200, d=8, factors=3, seed=1)
        model = ytx.fit_lasso(X, y, alpha)
        assert_same_lasso_bits(model, ytx.fit_lasso(X, y, float(alpha)))
        assert_plain_or_accelerated(model, X, y, float(alpha))


class TestLassoStop:
    """The fit stops at the first sweep whose relative duality gap is at
    most 1e-4."""

    @given(case=_small_lasso_case())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_converged_fit_certifies_its_gap(self, case):
        X, y, alpha = case
        model, gaps = _fit_lasso_spied(X, y, alpha, "_lasso_gap")
        yc = y - y.mean()
        zz = yc @ yc / len(y)
        Xs, _, _ = ev._standardize(X)
        gap = _residual_gap(Xs, yc, model.coefficients, alpha)
        assert len(gaps) == model.n_sweeps
        assert abs(gaps[-1] - gap) <= 1e-10 * zz
        assert all(g > ev.LASSO_GAP_TOL * zz / 2 for g in gaps[:-1])
        if model.converged:
            assert gap <= ev.LASSO_GAP_TOL * zz / 2
        else:
            assert model.n_sweeps == 10000

    @pytest.mark.parametrize("k", [-10, 10])
    def test_scaling_target_and_alpha_is_exact(self, k):
        # Scaling by a power of two is exact in float64, so a scale-free
        # stop takes the same sweeps to the scaled coefficients, through
        # the active-set jump too.
        X, y = factor_design()
        model, jumps = _fit_lasso_spied(X, y, 0.1, "_active_set")
        scaled, scaled_jumps = _fit_lasso_spied(
            X, 2.0 ** k * y, 2.0 ** k * 0.1, "_active_set")
        assert jumps[0] is not None and scaled_jumps[0] is not None
        assert model.converged and scaled.converged
        assert scaled.n_sweeps == model.n_sweeps
        assert scaled.coefficients.tobytes() == (
            2.0 ** k * model.coefficients).tobytes()

    @pytest.mark.parametrize("case", ["constant-target", "above-alpha-max"])
    def test_null_fit_stops_after_one_sweep(self, case):
        X, y = factor_design(n=300, d=12, factors=4, seed=2)
        if case == "constant-target":
            y, alpha = np.full(300, 3.0), 0.1
        else:
            alpha = 2.0 * alpha_max(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = ytx.fit_lasso(X, y, alpha)
        assert model.converged and model.n_sweeps == 1
        assert np.all(model.coefficients == 0.0)

    def test_harness_sweep_budget(self, monkeypatch):
        # The stop that waited for a sweep moving no coefficient by 1e-7
        # took 4,200 sweeps over these 40 fits.  Each fit's first sweep
        # does not settle; the active-set jump then leaves one sweep to
        # certify its gap.
        fit_lasso, models = ev._MODEL_FITTERS["lasso"], []

        def counted(design, z, alpha):
            models.append(fit_lasso(design, z, alpha))
            return models[-1]

        monkeypatch.setitem(ev._MODEL_FITTERS, "lasso", counted)
        X, y = factor_design(n=1000, d=50)
        ds = ytx.Dataset(features=X, target=y,
                         column_names=tuple(f"x{j}" for j in range(50)),
                         roles=ytx.ColumnRoles(target="y"))
        ytx.run_benchmark(ds, models=("lasso",), alpha=0.1, transforms=(
            "log-offset", "yeo-johnson", "quantile-normal"))
        assert len(models) == 40
        assert all(model.converged for model in models)
        assert [model.n_sweeps for model in models] == [2] * 40


class TestPublicFitInput:
    """The public fits check their input; the harness path does not."""

    X = np.random.default_rng(11).normal(size=(6, 2))
    y = np.arange(6.0)

    @pytest.mark.parametrize("model", ["ridge", "lasso"])
    @pytest.mark.parametrize("X, y, problem", [
        (X[:1], y[:1], "needs at least 2 rows"),
        (X[:0], y[:0], "needs at least 2 rows"),
        (X, y[:5], "needs one target per row: X has 6 rows, y has "
                   "shape (5,)"),
        (X[:5], y, "needs one target per row: X has 5 rows, y has "
                   "shape (6,)"),
        (X, y[:, None], "needs one target per row: X has 6 rows, y has "
                        "shape (6, 1)"),
        (X[:, 0], y, "needs a 2-D feature matrix, got 1-D"),
        (X[None], y, "needs a 2-D feature matrix, got 3-D"),
        (np.where(np.eye(6, 2) == 1.0, np.nan, X), y,
         "needs finite features and targets"),
        (np.where(np.eye(6, 2) == 1.0, np.inf, X), y,
         "needs finite features and targets"),
        (X, np.r_[y[:5], np.nan], "needs finite features and targets"),
        (X, np.r_[-np.inf, y[1:]], "needs finite features and targets"),
    ], ids=["one-row", "no-rows", "short-y", "short-X", "column-y", "1-D-X",
            "3-D-X", "nan-X", "inf-X", "nan-y", "inf-y"])
    def test_bad_input_is_data_error(self, model, X, y, problem):
        fit = {"ridge": ytx.fit_ridge, "lasso": ytx.fit_lasso}[model]
        with pytest.raises(DataError) as info:
            fit(X, y, alpha=0.1)
        assert str(info.value) == f"{model} {problem}"


def _reference_standardize(X):
    """``evaluation._standardize`` as one ``np.where`` over the matrix."""
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    varying = stds > 16.0 * np.spacing(np.abs(means))
    stds = np.where(varying, stds, 1.0)
    return np.where(varying, (X - means) / stds, 0.0), means, stds


def aux_rows(dataset, idx):
    """``dataset.aux`` with each role column sliced to rows ``idx``."""
    rows = np.asarray(idx, dtype=np.intp)
    return {role: col[rows] for role, col in dataset.aux.items()}


def _reference_evaluate_fold(dataset, plan, fold_index, model_kinds,
                             transforms, alpha):
    """``evaluation._evaluate_fold`` as it was before it standardized in
    place, on the reference standardization."""
    tr, te = (np.asarray(idx, dtype=np.intp) for idx in plan.folds[fold_index])
    y_train, y_test = dataset.target[tr], dataset.target[te]
    Xs, means, stds = _reference_standardize(dataset.features[tr])
    design = ev._Design(Xs, means, stds, Xs.T @ Xs)
    Xs_test = (dataset.features[te] - design.means) / design.stds
    out = {}
    for kind in transforms:
        t = ev.fit_transform_kind(kind, y_train, aux_rows(dataset, tr))
        z_train = core.forward(t, y_train,
                               ev.aux_column(kind, aux_rows(dataset, tr)))
        aux_te = ev.aux_column(kind, aux_rows(dataset, te))
        for model_kind in model_kinds:
            model = ev._MODEL_FITTERS[model_kind](design, z_train, alpha)
            z_pred = Xs_test @ model.coefficients + model.intercept
            z_pred, n_clamped = core.clamp_to_inverse_range(t, z_pred)
            y_pred = core.inverse(t, z_pred, aux_te)
            out[(model_kind, kind)] = {
                "rse": ev.rse(y_test, y_pred),
                "smape": ev.smape(y_test, y_pred),
                "clamped": n_clamped, "converged": model.converged}
    return out


def _constant_column_dataset(n=200, seed=12):
    """Varying, exactly constant and inexactly constant (0.1) features,
    and a target with ties."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(size=(n, 3)), np.full(n, 2.0),
                         np.full(n, 0.1), rng.integers(0, 3, n),
                         np.full(n, -7.25)])
    y = np.round(np.exp(X[:, :3] @ [0.4, -0.2, 0.1]
                        + rng.normal(scale=0.3, size=n)), 1)
    return ytx.Dataset(features=X, target=y,
                       column_names=tuple("abcdefg"),
                       roles=ytx.ColumnRoles(target="y"))


class TestStandardize:
    @pytest.mark.parametrize("rows", [slice(None), slice(0, 7), slice(3, 4)])
    def test_matches_reference_bytes(self, rows):
        X = _constant_column_dataset().features[rows]
        for got, want in zip(ev._standardize(X), _reference_standardize(X)):
            assert got.tobytes() == want.tobytes()

    def test_fold_cells_match_reference(self):
        ds = _constant_column_dataset()
        assert len(np.unique(ds.target)) < ds.n   # tied targets
        plan = ytx.make_fold_plan(ds.n, seed=3)
        kinds = ("identity", "log-offset", "box-cox", "quantile-normal")
        for fold in (0, 7):
            assert ev._evaluate_fold(ds, plan, fold, ev.MODELS, kinds,
                                     1.0) == _reference_evaluate_fold(
                ds, plan, fold, ev.MODELS, kinds, 1.0)

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


def _reference_aux_slice(kind, dataset, idx):
    """The role map the harness used before the kinds declared their roles."""
    if kind not in core.AUX_KINDS:
        return None
    role = {"subject-center": "subject", "trial-minmax": "trial",
            "frame": "frame", "deflate": "time",
            "expectation-norm": "context",
            "regression-norm": "context"}[kind]
    if role not in dataset.aux:
        raise ConfigError(f"{kind} requires the {role!r} role")
    return dataset.aux[role][np.asarray(idx, dtype=np.intp)]


def _reference_fit_transform_kind(kind, y, dataset=None, idx=None):
    """The if-chain ``fit_transform_kind`` was before the registry held
    each kind's fit."""
    if kind == "identity":
        return core.identity_transform(y)
    if kind == "log-offset":
        return dist.fit_log_offset(y)
    if kind == "sqrt":
        return dist.fit_sqrt(y)
    if kind == "box-cox":
        return dist.fit_box_cox(y)
    if kind == "yeo-johnson":
        return dist.fit_yeo_johnson(y)
    if kind == "quantile-normal":
        return dist.fit_quantile(y, "normal")
    if kind == "quantile-uniform":
        return dist.fit_quantile(y, "uniform")
    aux = _reference_aux_slice(kind, dataset, idx)
    if kind == "subject-center":
        return ctx.fit_subject_center(y, aux)
    if kind == "trial-minmax":
        return ctx.fit_trial_minmax(y, aux)
    if kind == "frame":
        return ctx.fit_frame_normalize(y, aux)
    if kind == "deflate":
        if "price_index" not in dataset.aux:
            raise ConfigError("deflate requires the price_index role")
        prices = dataset.aux["price_index"][np.asarray(idx, dtype=np.intp)]
        groups = ctx._factorize(aux)
        series = {str(aux[i]): float(prices[i])
                  for i in np.sort(groups.order[groups.bounds[:-1]])}
        base = sorted(series, key=ctx._time_sort_key)[0]
        index = ctx.DeflationIndex(series=series, base_time=base)
        return ctx.fit_deflate(y, aux, index)
    if kind == "expectation-norm":
        return ctx.fit_expectation_normalize(y, aux)
    if kind == "regression-norm":
        return ctx.fit_regression_normalize(y, aux)
    raise ConfigError(f"unknown transform kind {kind!r}")


def panel_dataset(n=120, seed=0):
    """A dataset with every role; prices vary within a period."""
    rng = np.random.default_rng(seed)
    context = rng.normal(size=(n, 2))
    y = np.exp(1.0 + 0.3 * context[:, 0] + rng.normal(scale=0.3, size=n))
    time = rng.integers(2000, 2010, size=n)
    return ytx.Dataset(
        features=rng.normal(size=(n, 2)), target=y, column_names=("a", "b"),
        roles=ytx.ColumnRoles(target="y", subject="s", time="t", frame="f",
                              trial="r", context=("c1", "c2"),
                              price_index="p"),
        aux={"subject": np.array([f"s{k}" for k in rng.integers(0, 9, n)],
                                 dtype=object),
             "time": np.array([str(t) for t in time], dtype=object),
             "frame": rng.uniform(0.5, 3.0, size=n),
             "trial": np.array([str(k) for k in rng.integers(0, 4, n)],
                               dtype=object),
             "price_index": (time - 1990) * rng.uniform(0.9, 1.1, size=n),
             "context": context})


def awkward_panel_dataset(n=120, seed=0):
    """``panel_dataset`` with subject and trial keys that mix 1, "1" and
    1.0 (the first two group together) and a plain int time column."""
    ds = panel_dataset(n, seed)

    def mixed(column):
        ks = [int(key.lstrip("s")) for key in column]
        return np.array([(k // 3 + 1, str(k // 3 + 1), float(k // 3 + 1))
                         [k % 3] for k in ks], dtype=object)

    return dataclasses.replace(ds, aux=dict(
        ds.aux, subject=mixed(ds.aux["subject"]),
        trial=mixed(ds.aux["trial"]),
        time=np.array([int(t) for t in ds.aux["time"]])))


def _reference_inverse_range(t):
    """``core.inverse_range`` before every kind carried a range function:
    the kinds registered without one were total, and one quantile range
    branched on ``params["reference"]``."""
    p = t.params
    if t.kind == "sqrt":
        return (0.0, math.inf)
    if t.kind == "box-cox":
        return dist._bc_inverse_range(p)
    if t.kind == "yeo-johnson":
        return dist._yj_inverse_range(p)
    if t.kind in ("quantile-normal", "quantile-uniform"):
        eps = p["clip_epsilon"]
        if p["reference"] == "uniform":
            return (eps, 1.0 - eps)
        return (float(special.ndtri(eps)), float(special.ndtri(1.0 - eps)))
    return (-math.inf, math.inf)


class TestRegistry:
    @pytest.mark.parametrize("kind", core.KNOWN_KINDS)
    def test_inverse_range_matches_reference(self, kind):
        ds = panel_dataset()
        for y, columns in ((ds.target, ds.aux),
                           (ds.target[5:95], aux_rows(ds, np.arange(5, 95)))):
            t = ev.fit_transform_kind(kind, y, columns)
            assert core.inverse_range(t) == _reference_inverse_range(t)

    def test_every_known_kind_is_registered(self):
        assert set(core._REGISTRY) == set(core.KNOWN_KINDS)
        assert set(core._FITS) == set(core.KNOWN_KINDS)
        assert len(core.KNOWN_KINDS) == len(set(core.KNOWN_KINDS)) == 13

    def test_aux_kinds_are_the_kinds_with_roles(self):
        with_roles = {k for k in core.KNOWN_KINDS if core.kind_fit(k)[1]}
        assert set(core.AUX_KINDS) == with_roles == {
            "subject-center", "trial-minmax", "frame", "deflate",
            "expectation-norm", "regression-norm"}
        assert core.kind_fit("deflate")[1] == ("time", "price_index")

    def test_missing_role_is_config_error(self):
        y = np.arange(1.0, 6.0)
        with pytest.raises(ConfigError) as exc:
            ev.fit_transform_kind("subject-center", y)
        assert str(exc.value) == "subject-center requires the 'subject' role"
        ds = panel_dataset()
        no_prices = ytx.Dataset(
            features=ds.features, target=ds.target,
            column_names=ds.column_names, roles=ds.roles,
            aux={k: v for k, v in ds.aux.items() if k != "price_index"})
        with pytest.raises(ConfigError,
                           match="deflate requires the 'price_index' role"):
            ev.fit_transform_kind("deflate", ds.target, no_prices.aux)

    def test_unknown_kind_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown transform kind 'nope'"):
            ev.fit_transform_kind("nope", np.arange(5.0))
        with pytest.raises(ConfigError, match="unknown transform kind 'nope'"):
            ev.aux_column("nope", panel_dataset().aux)

    @pytest.mark.parametrize("kind", core.KNOWN_KINDS)
    def test_matches_reference_if_chain(self, kind):
        ds = panel_dataset()
        every = tuple(range(ds.n))
        assert (ev.fit_transform_kind(kind, ds.target, ds.aux).to_json()
                == _reference_fit_transform_kind(
                    kind, ds.target, ds, every).to_json())
        for idx in (tuple(range(0, ds.n, 2)), np.arange(5, 95)):
            y = ds.target[np.asarray(idx)]
            assert (ev.fit_transform_kind(kind, y, aux_rows(ds, idx)).to_json()
                    == _reference_fit_transform_kind(
                        kind, y, ds, idx).to_json())
            new = ev.aux_column(kind, aux_rows(ds, idx))
            old = _reference_aux_slice(kind, ds, idx)
            assert (new is None) == (old is None)
            if new is not None:
                assert new.tolist() == old.tolist()

    @pytest.mark.parametrize("kind, module, name", [
        ("log-offset", dist, "fit_log_offset"),
        ("sqrt", dist, "fit_sqrt"),
        ("box-cox", dist, "fit_box_cox"),
        ("yeo-johnson", dist, "fit_yeo_johnson"),
        ("quantile-normal", dist, "fit_quantile"),
        ("quantile-uniform", dist, "fit_quantile"),
        ("subject-center", ctx, "fit_subject_center"),
        ("trial-minmax", ctx, "fit_trial_minmax"),
        ("frame", ctx, "fit_frame_normalize"),
        ("deflate", ctx, "fit_deflate"),
        ("expectation-norm", ctx, "fit_expectation_normalize"),
        ("regression-norm", ctx, "fit_regression_normalize"),
    ])
    def test_fit_looks_up_public_function_at_call_time(
            self, kind, module, name, monkeypatch):
        calls = []
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
        ds = panel_dataset()
        ev.fit_transform_kind(kind, ds.target, ds.aux)
        assert calls == [name]


class TestFitTransformKind:
    def test_deflate_keeps_first_price_of_each_period(self):
        # "1.0" and "1" tie under the time sort key, so the base period is
        # the one seen first; a later price in a period is ignored.
        time = np.array(["1.0", "2", "1", "1.0", "2"], dtype=object)
        price = np.array([2.0, 3.0, 1.0, 9.0, 4.0])
        ds = ytx.Dataset(
            features=np.zeros((5, 0)), target=np.arange(1.0, 6.0),
            column_names=(),
            roles=ytx.ColumnRoles(target="y", time="t", price_index="p"),
            aux={"time": time, "price_index": price})
        t = ev.fit_transform_kind("deflate", ds.target,
                                  aux_rows(ds, (0, 1, 2, 3, 4)))
        assert list(t.params["series"].items()) == [
            ("1.0", 2.0), ("2", 3.0), ("1", 1.0)]
        assert t.params["base_time"] == "1.0"
        t = ev.fit_transform_kind("deflate", ds.target[[2, 3, 4]],
                                  aux_rows(ds, np.array([2, 3, 4])))
        assert t.params["series"] == {"1": 1.0, "1.0": 9.0, "2": 4.0}
        assert t.params["base_time"] == "1"

    def test_deflate_groups_its_time_column_once(self, raw_factorize_calls):
        ds = panel_dataset()
        ev.fit_transform_kind("deflate", ds.target, ds.aux)
        ev.fit_transform_kind("deflate", ds.target[:50],
                              aux_rows(ds, np.arange(50)))
        assert raw_factorize_calls == [ds.n, 50]


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", core.KNOWN_KINDS)
    def test_non_finite_target_is_data_error(self, kind, bad):
        # The target is checked before the roles: a zero price on a
        # non-finite row does not turn the error into a price error.
        zero_price = panel_dataset()
        zero_price.aux["price_index"][7] = 0.0
        for ds in (panel_dataset(), zero_price):
            y = ds.target.copy()
            y[[7, 11]] = bad
            with pytest.raises(DataError) as info:
                ev.fit_transform_kind(kind, y, ds.aux)
            assert str(info.value) == f"{kind}: non-finite target at index 7"

    @pytest.mark.parametrize("kind", core.KNOWN_KINDS)
    def test_empty_target_is_data_error(self, kind):
        # A kind with no earlier check fails at the target range.
        messages = {
            "box-cox": "box-cox needs at least 2 samples",
            "yeo-johnson": "degenerate target",
            "quantile-normal": "too few samples for quantile map",
            "quantile-uniform": "too few samples for quantile map",
            "subject-center": "empty dataset",
            "trial-minmax": "empty dataset",
            "deflate": "empty dataset",
            "expectation-norm": "too few rows for the context model",
            "regression-norm": "too few rows for the context model"}
        with pytest.raises(DataError) as info:
            ev.fit_transform_kind(kind, np.array([]),
                                  aux_rows(panel_dataset(), []))
        assert str(info.value) == messages.get(kind, "empty target")


class TestMapValueShape:
    """``forward`` and ``inverse`` name the kind and the shape of a 0-d
    value, and of a value that is not 1-D for a kind with roles; a kind
    without roles maps a matrix elementwise."""

    @staticmethod
    def _fit(kind):
        ds = panel_dataset()
        t = ev.fit_transform_kind(kind, ds.target, ds.aux)
        aux = ev.aux_column(kind, ds.aux)
        return ds, t, aux, ytx.forward(t, ds.target, aux)

    @pytest.mark.parametrize("kind", core.KNOWN_KINDS)
    def test_scalar_is_data_error(self, kind):
        ds, t, aux, _ = self._fit(kind)
        if kind in core.AUX_KINDS:
            message = f"{kind}: values must be 1-D, got shape ()"
        else:
            message = (f"{kind}: values must have at least one dimension, "
                       f"got shape ()")
        for fn in (ytx.forward, ytx.inverse):
            for value in (5.0, np.float64(5.0), np.array(5.0)):
                for column in (aux, None):
                    with pytest.raises(DataError) as info:
                        fn(t, value, column)
                    assert str(info.value) == message

    @pytest.mark.parametrize("kind", sorted(core.AUX_KINDS))
    def test_role_kind_rejects_values_not_1d(self, kind):
        ds, t, aux, z = self._fit(kind)
        for fn, values in ((ytx.forward, ds.target), (ytx.inverse, z)):
            # A (2, n/2) key matrix passes the length check against a
            # (2, n/2) value; a column of the same length against (n, 1).
            for shape, column in (((ds.n, 1), aux),
                                  ((2, -1), aux.reshape(2, -1, *aux.shape[1:])),
                                  ((2, -1), None)):
                shaped = values.reshape(shape)
                with pytest.raises(DataError) as info:
                    fn(t, shaped, column)
                assert str(info.value) == (
                    f"{kind}: values must be 1-D, got shape {shaped.shape}")

    @pytest.mark.parametrize("kind", [k for k in core.KNOWN_KINDS
                                      if k not in core.AUX_KINDS])
    def test_kind_without_roles_maps_a_matrix(self, kind):
        ds, t, _, z = self._fit(kind)
        for fn, values, want in ((ytx.forward, ds.target, z),
                                 (ytx.inverse, z, ytx.inverse(t, z))):
            for shape in ((2, -1), (ds.n, 1), (4, 5, -1)):
                got = fn(t, values.reshape(shape))
                assert got.shape == values.reshape(shape).shape
                assert got.tobytes() == want.tobytes()


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
        # The kind is checked before the fold plan, which needs n >= 4.
        with pytest.raises(ConfigError) as exc:
            ytx.run_benchmark(toy_dataset(n=3), transforms=("nope",), seed=0)
        assert str(exc.value) == "unknown transform kind 'nope'"

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
        again = ev.BenchmarkReport.from_dict(json.loads(report.to_json()))
        assert again.to_json() == report.to_json()

    def test_clamp_counter_recorded(self):
        # A uniform target's linear predictions leave (0, 1) on several
        # folds, so the cell's count is a sum, not the largest fold's.
        ds = toy_dataset(seed=5)
        report = ytx.run_benchmark(ds, models=("ridge",),
                                   transforms=("quantile-uniform",), seed=3)
        counts = []
        for train, test in ytx.make_fold_plan(ds.n, 3).folds:
            t = ev.fit_transform_kind("quantile-uniform",
                                      ds.target[list(train)])
            model = ytx.fit_ridge(ds.features[list(train)],
                                  ytx.forward(t, ds.target[list(train)]))
            counts.append(core.clamp_to_inverse_range(
                t, ytx.predict(model, ds.features[list(test)]))[1])
        assert sum(count > 0 for count in counts) >= 2
        assert report.cells[("ridge", "quantile-uniform")]["clamped"] == sum(
            counts)

    @pytest.mark.parametrize("unconverged_fold", [None, 0, 4, 9])
    def test_converged_only_if_every_fold_converged(self, monkeypatch,
                                                    unconverged_fold):
        fit_lasso, calls = ev._MODEL_FITTERS["lasso"], []

        def one_fold_unconverged(design, z, alpha):
            calls.append(len(calls))  # one fit per fold, in fold order
            return dataclasses.replace(fit_lasso(design, z, alpha),
                                       converged=calls[-1] != unconverged_fold)

        monkeypatch.setitem(ev._MODEL_FITTERS, "lasso", one_fold_unconverged)
        report = ytx.run_benchmark(toy_dataset(seed=9), models=("lasso",),
                                   seed=2, alpha=0.01, threads=None)
        assert len(calls) == 10
        assert report.cells[("lasso", "identity")]["converged"] is (
            unconverged_fold is None)

    def test_report_marks_unconverged_cells(self, monkeypatch, tmp_path,
                                            capsys):
        fit_lasso, calls = ev._MODEL_FITTERS["lasso"], []

        def one_sqrt_fit_unconverged(design, z, alpha):
            calls.append(len(calls))  # identity, then sqrt, in fold order
            return dataclasses.replace(fit_lasso(design, z, alpha),
                                       converged=calls[-1] != 3)

        monkeypatch.setitem(ev._MODEL_FITTERS, "lasso",
                            one_sqrt_fit_unconverged)
        report = ytx.run_benchmark(toy_dataset(seed=9),
                                   models=("lasso", "ridge"),
                                   transforms=("sqrt",), seed=2, alpha=0.01)
        bench = tmp_path / "bench.json"
        bench.write_text(report.to_json())
        assert cli.main(["report", "--in-json", str(bench)]) == 0
        tables = capsys.readouterr().out.split("### ")[1:]
        footnote = ("† not every fold's fit reached a relative duality gap "
                    "of 1e-4 within 10,000 sweeps")
        assert [t.splitlines()[0] for t in tables] == [
            "lasso (RSE)", "ridge (RSE)", "lasso (SMAPE)", "ridge (SMAPE)"]
        for table in tables:
            lines = table.splitlines()
            base, sqrt = lines[3].strip("| ").split(" | ")[1:]
            assert not base.endswith("†")
            if table.startswith("lasso"):
                assert sqrt.endswith("†")
                assert lines[4:] == ["", footnote, ""]
            else:
                assert not sqrt.endswith("†")
                assert lines[4:] == [""]

    @pytest.mark.parametrize("models", [("ridge",), ("ridge", "lasso")])
    @pytest.mark.parametrize("kinds, columns", [
        (("subject-center", "trial-minmax", "deflate"), 3),
        (core.KNOWN_KINDS, 3),
        (("deflate", "frame"), 1),
        ((), 0),
    ], ids=["keyed", "all", "deflate-frame", "none"])
    def test_groups_each_key_column_once(self, raw_factorize_calls, models,
                                         kinds, columns):
        ds = panel_dataset()
        ytx.run_benchmark(ds, models=models, transforms=kinds)
        assert raw_factorize_calls == [ds.n] * columns

    def test_auto_benchmark_groups_each_key_column_once(
            self, monkeypatch, raw_factorize_calls, capsys):
        # diagnose reads the subject and time keys, and subject-center and
        # deflate read them again: one grouping of each serves both.
        argv = ["benchmark", "--input", "panel.csv", "--roles", json.dumps(
            {"target": "y", "subject": "s", "time": "t", "frame": "f",
             "trial": "r", "context": ["c1", "c2"], "price_index": "p"}),
            "--transform", "auto", "--transform", "subject-center",
            "--transform", "deflate"]
        monkeypatch.setattr(core, "load_csv",
                            lambda path, roles: panel_dataset())
        assert cli.main(argv) == 0
        assert raw_factorize_calls == [120, 120]
        ds = panel_dataset()
        kinds = ["subject-center", "deflate"] + [
            kind for kind, _ in ytx.diagnose(ds).recommendations]
        report = ytx.run_benchmark(ds, transforms=kinds, dataset_name="panel")
        assert capsys.readouterr().out == "\n".join(
            map(report.to_markdown, ev.METRICS)) + "\n"

    def test_slices_each_role_column_once_per_fold_side(self, monkeypatch):
        # Every (fold, kind) reads the fold's one slice of each role column
        # on each side: the fit and its forward get the same column object.
        slices, fit_columns, forward_columns = [], [], []
        getitem = ctx._Grouping.__getitem__

        def counted_getitem(grouping, rows):
            slices.append(len(grouping))
            return getitem(grouping, rows)

        def recorded(fit):
            def fit_recording(y, *columns):
                fit_columns.append(columns[0] if columns else None)
                return fit(y, *columns)
            return fit_recording

        forward = core.forward

        def forward_recording(t, y, aux=None):
            forward_columns.append(aux)
            return forward(t, y, aux)

        kinds = ("subject-center", "trial-minmax", "deflate")
        monkeypatch.setattr(ctx._Grouping, "__getitem__", counted_getitem)
        for kind in ("identity", *kinds):
            fit, *rest = core._FITS[kind]
            monkeypatch.setitem(core._FITS, kind, (recorded(fit), *rest))
        monkeypatch.setattr(core, "forward", forward_recording)
        ds = panel_dataset()
        ytx.run_benchmark(ds, models=("ridge",), transforms=kinds, seed=5)
        key_roles = 3   # subject, trial and time
        assert slices == [ds.n] * (2 * 10 * key_roles)
        assert len(fit_columns) == len(forward_columns) == 10 * 4
        assert all(fitted is mapped for fitted, mapped
                   in zip(fit_columns, forward_columns))
        assert sum(column is None for column in fit_columns) == 10

    def test_repeated_models_and_kinds_are_scored_once(self):
        ds = toy_dataset(seed=8)
        repeated = ytx.run_benchmark(
            ds, models=("lasso", "ridge", "lasso"),
            transforms=("sqrt", "identity", "sqrt", "log-offset"), seed=4)
        once = ytx.run_benchmark(ds, models=("lasso", "ridge"),
                                 transforms=("sqrt", "log-offset"), seed=4)
        assert repeated.models == ("lasso", "ridge")
        assert repeated.transforms == ("identity", "sqrt", "log-offset")
        assert repeated.to_json() == once.to_json()
        assert repeated.to_markdown("rse") == once.to_markdown("rse")


def _reference_make_fold_plan(n, seed):
    """The fold plan as built before it sliced ``tolist()``: one
    ``int`` conversion per index."""
    folds = []
    for repeat in range(5):
        rng = np.random.default_rng(ev._splitmix64((seed & ev._M64) ^ repeat))
        perm = rng.permutation(n)
        half = (n + 1) // 2
        first = tuple(int(i) for i in perm[:half])
        second = tuple(int(i) for i in perm[half:])
        folds.append((first, second))
        folds.append((second, first))
    return ev.FoldPlan(seed=seed, folds=tuple(folds))


def _reference_run_benchmark(dataset, models, transforms, seed, alpha=1.0,
                             dataset_name="dataset"):
    """The harness as it was before it made one pass per (fold, kind): a
    table of fitted kinds per fold, a models-outer loop over it, a dict per
    cell and a transpose of the per-fold dicts."""
    kinds = ["identity"] + [t for t in transforms if t != "identity"]
    plan = _reference_make_fold_plan(dataset.n, seed)
    fold_results = []
    for train_idx, test_idx in plan.folds:
        tr = np.asarray(train_idx, dtype=np.intp)
        te = np.asarray(test_idx, dtype=np.intp)
        X_train, y_train = dataset.features[tr], dataset.target[tr]
        X_test, y_test = dataset.features[te], dataset.target[te]
        design = ev._design(X_train)
        Xs_test = (X_test - design.means) / design.stds
        fitted = {}
        for kind in kinds:
            t = ev.fit_transform_kind(kind, y_train, aux_rows(dataset, tr))
            z_train = core.forward(t, y_train,
                                   ev.aux_column(kind, aux_rows(dataset, tr)))
            fitted[kind] = (t, z_train,
                            ev.aux_column(kind, aux_rows(dataset, te)))
        out = {}
        for model_kind in models:
            fitter = ev._MODEL_FITTERS[model_kind]
            for kind in kinds:
                t, z_train, aux_te = fitted[kind]
                model = fitter(design, z_train, alpha)
                z_pred = Xs_test @ model.coefficients + model.intercept
                z_pred, n_clamped = core.clamp_to_inverse_range(t, z_pred)
                y_pred = core.inverse(t, z_pred, aux_te)
                out[(model_kind, kind)] = {
                    "rse": ev.rse(y_test, y_pred),
                    "smape": ev.smape(y_test, y_pred),
                    "clamped": n_clamped,
                    "converged": model.converged,
                }
        fold_results.append(out)
    cells = {}
    for model in models:
        for kind in kinds:
            cells[(model, kind)] = {
                "rse": [fr[(model, kind)]["rse"] for fr in fold_results],
                "smape": [fr[(model, kind)]["smape"] for fr in fold_results],
                "clamped": sum(fr[(model, kind)]["clamped"]
                               for fr in fold_results),
                "converged": all(fr[(model, kind)]["converged"]
                                 for fr in fold_results),
            }
    return ev.BenchmarkReport(
        dataset_name=dataset_name, seed=seed, models=tuple(models),
        transforms=tuple(kinds), cells=cells)


class TestHarnessMatchesReference:
    """The one-pass harness gives the bytes of the harness it replaced."""

    @pytest.mark.parametrize("n", [4, 5, 101, 20000])
    @pytest.mark.parametrize("seed", [0, 42, -1, 2 ** 70])
    def test_fold_plan(self, n, seed):
        plan = ytx.make_fold_plan(n, seed)
        assert plan == _reference_make_fold_plan(n, seed)
        assert all(type(i) is int for fold in plan.folds[:2]
                   for half in fold for i in half)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_report_bytes_all_kinds(self, threads):
        self.assert_report_bytes(panel_dataset(seed=3), threads)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_report_bytes_awkward_keys(self, threads):
        self.assert_report_bytes(awkward_panel_dataset(seed=3), threads)

    def assert_report_bytes(self, ds, threads):
        kinds = tuple(k for k in core.KNOWN_KINDS if k != "identity")
        report = ytx.run_benchmark(ds, models=("ridge", "lasso"),
                                   transforms=kinds, seed=21, alpha=0.05,
                                   threads=threads, dataset_name="panel")
        reference = _reference_run_benchmark(
            ds, ("ridge", "lasso"), kinds, 21, alpha=0.05,
            dataset_name="panel")
        assert report.transforms == ("identity",) + kinds
        assert report.to_json() == reference.to_json()
