import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special

import ytx
from ytx import core, ctx, diagnostics as dg
from ytx.cli import main
from ytx.errors import ConfigError, DataError


class TestSubjective:
    def test_identical_groups_not_flagged(self):
        y = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        keys = ["a", "a", "a", "b", "b", "b"]
        verdict = dg.detect_subjective(y, keys)
        assert verdict.statistic == pytest.approx(0.0)
        assert not verdict.flagged

    def test_separated_groups_flagged(self):
        rng = np.random.default_rng(0)
        y = np.concatenate([rng.normal(0, 1, 100), rng.normal(5, 1, 100)])
        keys = ["a"] * 100 + ["b"] * 100
        verdict = dg.detect_subjective(y, keys)
        assert verdict.flagged
        assert verdict.p_value < 1e-6

    def test_perfectly_separated_groups(self):
        # No spread within a subject: F is infinite and p is 0.
        verdict = dg.detect_subjective([1.0, 1.0, 1.0, 4.0, 4.0, 4.0],
                                       ["a", "a", "a", "b", "b", "b"])
        assert verdict == dg.Verdict(flagged=True, statistic=math.inf,
                                     p_value=0.0)

    def test_single_subject_rejected(self):
        with pytest.raises(DataError):
            dg.detect_subjective(np.arange(4.0), ["a"] * 4)

    @pytest.mark.parametrize("singles", [1, 5])
    def test_single_row_subjects_match_f_oneway(self, singles):
        # A subject with one row adds to the between-subject sum and
        # nothing to the within-subject sum.
        from scipy import stats

        rng = np.random.default_rng(1)
        keys = np.append(np.repeat(np.arange(40), 10),
                         np.arange(40, 40 + singles))
        y = rng.normal(size=keys.size) + 0.5 * (keys % 3)
        verdict = dg.detect_subjective(y, keys)
        want = stats.f_oneway(*(y[keys == k] for k in np.unique(keys)))
        assert verdict.statistic == pytest.approx(want.statistic, rel=1e-12)
        assert verdict.p_value == pytest.approx(want.pvalue, rel=1e-9)
        assert verdict.flagged

    def test_every_subject_with_one_row_rejected(self):
        with pytest.raises(DataError, match="^need more rows than subjects$"):
            dg.detect_subjective(np.arange(4.0), ["a", "b", "c", "d"])


class TestFrame:
    def test_proportional_target_flagged(self):
        frame = np.arange(1.0, 51.0)
        verdict = dg.detect_frame(2.0 * frame, frame)
        assert verdict.statistic == pytest.approx(1.0)
        assert verdict.flagged

    def test_independent_not_flagged(self):
        rng = np.random.default_rng(1)
        verdict = dg.detect_frame(rng.normal(size=1000),
                                  rng.uniform(1, 2, size=1000))
        assert verdict.statistic < 0.1
        assert not verdict.flagged

    def test_constant_frame_degenerate(self):
        verdict = dg.detect_frame(np.arange(10.0), np.ones(10))
        assert verdict.statistic == 0.0
        assert not verdict.flagged


class TestTrend:
    def test_monotone_flagged(self):
        time = [f"{2000 + i}" for i in range(30)]
        verdict = dg.detect_trend(np.arange(30.0), time)
        assert verdict.details["rho"] == pytest.approx(1.0)
        assert verdict.flagged

    def test_reversed_flagged(self):
        time = [f"{2000 + i}" for i in range(30)]
        verdict = dg.detect_trend(-np.arange(30.0), time)
        assert verdict.details["rho"] == pytest.approx(-1.0)
        assert verdict.flagged

    def test_iid_not_flagged(self):
        rng = np.random.default_rng(2)
        time = list(range(1000))
        verdict = dg.detect_trend(rng.normal(size=1000), time)
        assert verdict.statistic < 0.1

    @pytest.mark.parametrize("y, time", [
        (np.arange(10.0), ["2000"] * 10),
        (np.full(10, 3.0), [str(2000 + i) for i in range(10)]),
    ], ids=["one-period", "constant-target"])
    def test_constant_ranks_degenerate(self, y, time):
        verdict = dg.detect_trend(y, time)
        assert verdict == dg.Verdict(flagged=False, statistic=0.0)

    def test_uses_time_keys_not_row_order(self):
        rng = np.random.default_rng(3)
        time = np.arange(200)
        y = time.astype(float)
        perm = rng.permutation(200)
        verdict = dg.detect_trend(y[perm], time[perm])
        assert verdict.details["rho"] == pytest.approx(1.0)


def _reference_time_order_ranks(time):
    """The trend detector's time ranks before periods shared an average
    rank: ties broken by row order, all keys compared as strings when one
    is not a float."""
    keys = list(time)
    try:
        values = np.array([float(k) for k in keys])
    except (TypeError, ValueError):
        values = np.array([str(k) for k in keys], dtype=object)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(keys))
    ranks[order] = np.arange(len(keys))
    return ranks


class TestTrendTies:
    """Rows of one period share their average time rank, so rho is
    Spearman's and does not depend on the row order."""

    def tied_sample(self):
        # 2 periods x 200 rows, sorted by y within each period: breaking
        # the time ties by row order made this look like a trend.
        rng = np.random.default_rng(13)
        y = rng.normal(size=400)
        time = np.repeat(["2001", "2002"], 200)
        y[:200].sort()
        y[200:].sort()
        return y, time

    def test_ties_match_scipy_spearman(self):
        from scipy import stats
        y, time = self.tied_sample()
        verdict = dg.detect_trend(y, time)
        expected = stats.spearmanr(y, time.astype(float))[0]
        assert abs(verdict.details["rho"] - expected) <= 1e-12
        assert not verdict.flagged

    def test_row_permutation_invariant_with_ties(self):
        y, time = self.tied_sample()
        rho = dg.detect_trend(y, time).details["rho"]
        rng = np.random.default_rng(14)
        for _ in range(5):
            perm = rng.permutation(y.shape[0])
            got = dg.detect_trend(y[perm], time[perm]).details["rho"]
            assert got == pytest.approx(rho, abs=1e-12)

    def test_mixed_keys_in_deflate_order(self):
        # deflate's order: numeric keys by value, then the others.
        time = ["a", "10", "9", "b", "2.5"]
        y = np.array([4.0, 2.0, 1.0, 5.0, 0.0])
        assert sorted(time, key=ctx._time_sort_key) == [
            "2.5", "9", "10", "a", "b"]
        assert dg.detect_trend(y, time).details["rho"] == pytest.approx(1.0)

    def test_nan_key_sorts_among_strings(self):
        # "-nan" is no missing token but parses as NaN, which no order
        # ranks: compared as a float it made the order depend on the rows.
        keys = ["3", "-nan", "1", "2", "b"]
        assert sorted(keys, key=ctx._time_sort_key) == [
            "1", "2", "3", "-nan", "b"]
        y = np.array([3.0, 4.0, 1.0, 2.0, 5.0])
        rng = np.random.default_rng(16)
        for _ in range(5):
            perm = rng.permutation(5)
            verdict = dg.detect_trend(y[perm], np.array(keys)[perm])
            assert verdict.details["rho"] == pytest.approx(1.0)

    def test_equal_numeric_keys_tie(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert (dg.detect_trend(y, ["1", "1.0", "2", "2.0"]).details["rho"]
                == dg.detect_trend(y, ["1", "1", "2", "2"]).details["rho"])

    @pytest.mark.parametrize("seed", range(40))
    def test_distinct_keys_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 300))
        y = rng.normal(size=n)
        if seed % 2:
            time = rng.permutation(n) * 1.5 - 7.0
        else:
            time = np.array([f"k{v:05d}" for v in rng.permutation(n)])
        expected = dg._pearson(dg._average_ranks(y),
                               _reference_time_order_ranks(time))
        assert dg.detect_trend(y, time).details["rho"] == expected


class TestDetectorInputs:
    """Inputs of different lengths are data errors naming the input."""

    @pytest.mark.parametrize("call, message", [
        (lambda: dg.detect_frame(np.arange(5.0), np.arange(1.0, 5.0)),
         "frame vector length mismatch"),
        (lambda: dg.detect_trend(np.arange(5.0), ["1", "2", "3"]),
         "time vector length mismatch"),
        (lambda: dg.detect_context(np.arange(5.0), np.ones((4, 2))),
         "context matrix length mismatch"),
        (lambda: dg.breusch_pagan(np.arange(5.0), np.ones((6, 2))),
         "feature matrix length mismatch"),
    ], ids=["frame", "trend", "context", "breusch-pagan"])
    def test_length_mismatch_is_data_error(self, call, message):
        with pytest.raises(DataError, match=message):
            call()

    @pytest.mark.parametrize("y", [[], [3.0], [2.0, 2.0]])
    def test_gap_score_of_fewer_than_two_values(self, y):
        assert dg.gap_score(y) == 0.0


class TestContext:
    def test_exact_linear_flagged(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(100, 2))
        verdict = dg.detect_context(phi @ [1.0, -2.0] + 3.0, phi)
        assert verdict.statistic == pytest.approx(1.0)
        assert verdict.flagged

    def test_independent_not_flagged(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(1000, 2))
        verdict = dg.detect_context(rng.normal(size=1000), phi)
        assert verdict.statistic < 0.05
        assert not verdict.flagged

    def test_no_context_column_is_data_error(self):
        with pytest.raises(DataError) as err:
            dg.detect_context(np.arange(5.0), np.ones((5, 0)))
        assert str(err.value) == "need at least one context column"

    def test_singular_design_warns(self):
        with pytest.warns(RuntimeWarning):
            verdict = dg.detect_context(np.arange(10.0), np.ones((10, 1)))
        assert verdict.statistic == 0.0


class TestOneDimensionalInput:
    """A 1-D context or feature vector is one column, not one row."""

    def sample(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(1.0, 10.0, size=50)
        return x, 2.0 * x + x * rng.normal(size=50)

    def test_detect_context(self):
        x, y = self.sample()
        verdict = dg.detect_context(y, x)
        assert verdict == dg.detect_context(y, x[:, None])
        assert verdict.flagged

    def test_breusch_pagan(self):
        x, y = self.sample()
        assert dg.breusch_pagan(y, x) == dg.breusch_pagan(y, x[:, None])

    def test_detect_distribution(self):
        x, y = self.sample()
        assert (dg.detect_distribution(y, x)
                == dg.detect_distribution(y, x[:, None]))


# The least-squares code before ctx and diagnostics shared one solve: a
# rank SVD (matrix_rank) and then lstsq on the same design.

def _reference_ols(X, y):
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise DataError("collinear context")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _reference_ols_r2(y, X):
    design = np.column_stack([np.ones(X.shape[0]), X])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        return None
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    total = float(np.sum((y - y.mean()) ** 2))
    if total <= 0.0:
        return None
    return 1.0 - float(np.sum(resid ** 2)) / total


def _reference_detect_context(y, context, thresholds=dg.Thresholds()):
    y = np.asarray(y, dtype=float)
    context = np.atleast_2d(np.asarray(context, dtype=float))
    if context.shape[1] < 1:
        raise DataError("need at least one context column")
    r2 = _reference_ols_r2(y, context)
    if r2 is None:
        warnings.warn("context detector: singular design, reporting 0",
                      RuntimeWarning, stacklevel=2)
        return dg.Verdict(flagged=False, statistic=0.0)
    return dg.Verdict(flagged=r2 > thresholds.context_r2, statistic=r2)


def _reference_breusch_pagan(y, X):
    y = np.asarray(y, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    design = np.column_stack([np.ones(X.shape[0]), X])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    r2 = _reference_ols_r2(resid ** 2, X)
    if r2 is None:
        return 0.0, 1.0
    lm = y.shape[0] * max(r2, 0.0)
    return float(lm), float(special.chdtrc(X.shape[1], lm))


def _outcome(fn, *args):
    """``fn(*args)`` as plain values, or its DataError text, and the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except DataError as exc:
            value = ("DataError", str(exc))
    if isinstance(value, np.ndarray):
        value = value.tolist()
    return value, [(w.category, str(w.message)) for w in caught]


def _least_squares_case(name):
    rng = np.random.default_rng(13)
    n = 3 if name == "n<=k" else 60
    X = rng.normal(size=(n, 3))
    if name == "one-hot":
        # a full dummy set sums to the intercept column
        X = np.eye(3)[rng.integers(0, 3, size=n)]
    elif name == "collinear":
        X = rng.integers(-5, 5, size=(n, 3)).astype(float)
        X[:, 2] = X[:, 0] + X[:, 1]
    y = 1.0 + X @ [0.5, -1.0, 2.0] + rng.normal(size=n) * (1 + X[:, 0] ** 2)
    if name == "constant-target":
        y = np.full(n, 2.5)
    return X, y


LEAST_SQUARES_CASES = ["full-rank", "one-hot", "collinear",
                       "constant-target", "n<=k"]


class TestSharedLeastSquares:
    """One rank-checked lstsq gives the results of matrix_rank + lstsq."""

    @pytest.mark.parametrize("name", LEAST_SQUARES_CASES)
    def test_ols_matches_reference(self, name):
        X, y = _least_squares_case(name)
        design = ctx._design(X)
        if design.shape[0] <= design.shape[1]:
            # the fits reject these before any solve, as before
            for fit in (ytx.fit_expectation_normalize,
                        ytx.fit_regression_normalize):
                with pytest.raises(DataError,
                                   match="too few rows for the context"):
                    fit(y, X)
            return
        assert (_outcome(ctx._ols, design, y)
                == _outcome(_reference_ols, design, y))

    @pytest.mark.parametrize("name", LEAST_SQUARES_CASES)
    def test_r2_matches_reference(self, name):
        X, y = _least_squares_case(name)
        assert (dg._r2(y, ctx._design(X))
                == _reference_ols_r2(y, X))

    @pytest.mark.parametrize("name", LEAST_SQUARES_CASES)
    def test_detect_context_matches_reference(self, name):
        X, y = _least_squares_case(name)
        assert (_outcome(dg.detect_context, y, X)
                == _outcome(_reference_detect_context, y, X))

    @pytest.mark.parametrize("name", LEAST_SQUARES_CASES)
    def test_breusch_pagan_matches_reference(self, name):
        X, y = _least_squares_case(name)
        assert (_outcome(dg.breusch_pagan, y, X)
                == _outcome(_reference_breusch_pagan, y, X))

    def test_no_rank_svd(self, monkeypatch):
        def no_matrix_rank(*args, **kwargs):
            raise AssertionError("np.linalg.matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_matrix_rank)
        X, y = _least_squares_case("full-rank")
        context = X[:, :2]
        y = y - y.min() + 1.0
        ds = ytx.Dataset(
            features=X, target=y, column_names=("a", "b", "c"),
            roles=ytx.ColumnRoles(target="y", context=("p", "q")),
            aux={"context": context})
        assert ytx.diagnose(ds).context is not None
        ytx.fit_expectation_normalize(y, context)
        ytx.fit_regression_normalize(y, context)


class TestDistribution:
    def test_uniform_grid_gap_score(self):
        assert dg.gap_score(np.arange(1.0, 101.0)) == pytest.approx(1 / 99)

    def test_gap_flag_on_bimodal(self):
        y = np.concatenate([np.linspace(0, 1, 50), np.linspace(9, 10, 50)])
        verdict = dg.detect_distribution(y, np.zeros((100, 0)))
        assert verdict.details["gap_flag"]

    def test_heteroscedastic_flagged(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(1, 10, size=1000)
        y = x * rng.normal(size=1000)
        verdict = dg.detect_distribution(y, x.reshape(-1, 1))
        assert verdict.details["hetero_flag"]

    def test_homoscedastic_skewless_clean(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1, 10, size=2000)
        y = 2 * x + rng.normal(size=2000)
        verdict = dg.detect_distribution(y, x.reshape(-1, 1))
        assert not verdict.details["skew_flag"]
        assert not verdict.details["hetero_flag"]

    def test_fewer_than_twenty_samples_rejected(self):
        with pytest.raises(DataError) as err:
            dg.detect_distribution(np.arange(19.0), np.zeros((19, 0)))
        assert str(err.value) == (
            "distribution detector needs at least 20 samples")

    def test_constant_target_rejected(self):
        with pytest.raises(DataError):
            dg.detect_distribution(np.full(30, 2.0), np.zeros((30, 0)))

    @pytest.mark.parametrize("intercept, feature_offset", [
        (1.0, 0.0), (1e3, 0.0), (-1e6, 0.0), (1.0, 1e6)])
    def test_exact_linear_fit_is_not_tested(self, intercept, feature_offset):
        """Residuals of an exact fit are round-off, which Breusch-Pagan
        must not read as heteroscedasticity, also when a large intercept
        or large features make that round-off large next to the spread of
        the target; small real noise still is."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = intercept + X @ [1.0, 2.0, 3.0]
        assert dg.breusch_pagan(y, X + feature_offset) == (0.0, 1.0)
        assert not dg.detect_distribution(
            y, X + feature_offset).details["hetero_flag"]
        noisy = y + 1e-6 * rng.normal(size=200) * np.exp(X[:, 0])
        assert dg.breusch_pagan(noisy, X + feature_offset)[1] < 1e-6


class TestScipyParity:
    """The scipy.special calls and numpy ranks match scipy.stats exactly."""

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 3.0, 2.0, 1.0, 3.0],
        [np.inf, -np.inf, 0.0, np.inf, -np.inf, -0.0, 5.0],
        [2.0] * 7,
        [1.5],
        [],
        [1.0, np.nan, 2.0],
        np.round(np.random.default_rng(8).normal(size=500), 1),
    ])
    def test_average_ranks_match_rankdata(self, values):
        from scipy import stats

        got = dg._average_ranks(values)
        want = stats.rankdata(values, method="average")
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_p_values_match_scipy_stats(self, seed):
        from scipy import stats

        rng = np.random.default_rng(seed)
        keys = np.repeat(list("abcde"), 8)
        y = rng.normal(size=40) + 0.3 * seed * (keys == "a")
        verdict = dg.detect_subjective(y, keys)
        assert verdict.p_value == float(
            stats.f.sf(verdict.statistic, 4, 35))
        X = rng.uniform(1, 3, size=(40, 2))
        lm, p = dg.breusch_pagan(X[:, 0] * y, X)
        assert 0.0 < p < 1.0
        assert p == float(stats.chi2.sf(lm, 2))

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        # Loading scipy.special takes about 0.3 s and scipy.stats or
        # scipy.optimize a few tenths more, on every CLI start. Neither the
        # import nor a power, contextual or linear fit nor `ytx report`
        # may load any scipy module; the normal quantile and the p-values
        # load scipy.special on first use and match it bit for bit, and
        # scipy.stats and scipy.optimize stay unloaded throughout.
        import os
        import subprocess
        import sys
        import textwrap

        src = os.path.dirname(os.path.dirname(ytx.__file__))
        cell = {"rse": {"folds": [1.0, 0.9]}, "smape": {"folds": [0.5, 0.4]},
                "clamped": 0, "converged": True}
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "dataset": "toy", "seed": 1, "models": ["ridge"],
            "transforms": ["identity"],
            "results": {"ridge": {"identity": cell}}}))
        code = textwrap.dedent("""\
            import contextlib, io, json, sys
            import numpy as np
            import ytx, ytx.cli
            from ytx import core, diagnostics as dg

            def scipy_modules():
                return sorted(m for m in sys.modules
                              if m == "scipy" or m.startswith("scipy."))

            out = {"import": scipy_modules()}
            rng = np.random.default_rng(0)
            y = np.exp(np.linspace(-2.0, 2.0, 50))
            ytx.fit_box_cox(y)
            ytx.fit_yeo_johnson(y - 1.0)
            subject = np.repeat(list("abcde"), 10)
            core.forward(ytx.fit_subject_center(y, subject), y, subject)
            X = rng.uniform(1.0, 3.0, size=(50, 2))
            ytx.fit_ridge(X, y)
            ytx.fit_lasso(X, y, alpha=0.1)
            with contextlib.redirect_stdout(io.StringIO()):
                out["report_exit"] = ytx.cli.main(
                    ["report", "--in-json", sys.argv[1]])
            out["fits"] = scipy_modules()

            x = np.linspace(-6.0, 6.0, 25)
            cdf, cdf1 = ytx.normal_cdf(x), ytx.normal_cdf(0.3)
            ppf, ppf1 = ytx.normal_ppf(cdf), ytx.normal_ppf(0.3)
            verdict = dg.detect_subjective(y, subject)
            lm, p = dg.breusch_pagan(X[:, 0] * y, X)
            t = ytx.fit_quantile(y, "normal")
            qn_range = ytx.inverse_range(t)
            from scipy import special
            eps = t.params["clip_epsilon"]
            out["parity"] = {
                "cdf": cdf.tobytes() == special.ndtr(x).tobytes(),
                "cdf1": cdf1 == float(special.ndtr(0.3)),
                "ppf": ppf.tobytes() == special.ndtri(cdf).tobytes(),
                "ppf1": ppf1 == float(special.ndtri(0.3)),
                "anova": 0.0 < verdict.p_value < 1.0 and verdict.p_value
                         == float(special.fdtrc(4, 45, verdict.statistic)),
                "bp": 0.0 < p < 1.0 and p == float(special.chdtrc(2, lm)),
                "qn_range": qn_range == (float(special.ndtri(eps)),
                                         float(special.ndtri(1.0 - eps))),
            }
            out["end"] = [m for m in ("scipy.stats", "scipy.optimize")
                          if m in sys.modules]
            print(json.dumps(out))
            """)
        run = subprocess.run([sys.executable, "-c", code, str(bench)],
                             check=True, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        out = json.loads(run.stdout)
        assert out["import"] == []
        assert out["report_exit"] == 0
        assert out["fits"] == []
        assert out["parity"] == dict.fromkeys(
            ["cdf", "cdf1", "ppf", "ppf1", "anova", "bp", "qn_range"], True)
        assert out["end"] == []


def make_report(**flags):
    def verdict(name):
        if name in ("skew", "gap", "hetero"):
            return None
        return dg.Verdict(flagged=flags.get(name, False), statistic=0.0)

    distribution = dg.Verdict(
        flagged=any(flags.get(k, False) for k in ("skew", "gap", "hetero")),
        statistic=0.0,
        details={"skew_flag": flags.get("skew", False),
                 "gap_flag": flags.get("gap", False),
                 "hetero_flag": flags.get("hetero", False)})
    return dg.DiagnosticReport(
        subjective=verdict("subjective"), frame=verdict("frame"),
        trend=verdict("trend"), context=verdict("context"),
        distribution=distribution)


class TestRecommend:
    def test_skew_only(self):
        kinds = [k for k, _ in dg.recommend(make_report(skew=True))]
        assert kinds[0] == "log-offset"
        assert kinds == ["log-offset", "yeo-johnson", "quantile-normal"]

    def test_nothing_flagged(self):
        assert dg.recommend(make_report()) == ()

    def test_skew_and_gap_dedupes(self):
        kinds = [k for k, _ in dg.recommend(make_report(skew=True, gap=True))]
        assert kinds.count("quantile-normal") == 1
        assert "quantile-uniform" in kinds

    def test_all_flags_deterministic(self):
        report = make_report(subjective=True, frame=True, trend=True,
                             context=True, skew=True, gap=True, hetero=True)
        first = dg.recommend(report)
        assert first == dg.recommend(report)
        kinds = [k for k, _ in first]
        assert kinds[0] == "subject-center"
        assert len(kinds) == len(set(kinds))


def _summary_verdicts(out):
    """The ``(name, state)`` of each verdict line ``ytx diagnose`` prints,
    in order."""
    return re.findall(r"^  (\w+) +(FLAGGED|ok) +statistic=", out, re.M)


class TestDiagnose:
    def test_role_gated_verdicts(self, tmp_path, capsys):
        rows = ["x,y"] + [f"{i},{(i * 37) % 101}" for i in range(40)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        ds = ytx.load_csv(str(path), ytx.ColumnRoles(target="y"))
        report = ytx.diagnose(ds)
        assert report.subjective is None
        assert report.frame is None
        assert report.trend is None
        assert report.context is None
        assert report.distribution is not None
        assert list(report.verdicts) == ["distribution"]
        assert main(["diagnose", "--input", str(path),
                     "--roles", '{"target": "y"}']) == 0
        state = "FLAGGED" if report.distribution.flagged else "ok"
        assert _summary_verdicts(capsys.readouterr().out) == [
            ("distribution", state)]

    @pytest.mark.parametrize("thresholds", [
        dg.Thresholds(),
        dg.Thresholds(subjective_p=0.0, frame_r=1.0, trend_rho=1.0,
                      context_r2=1.0),
    ], ids=["default", "never-flag"])
    def test_contextual_verdicts(self, thresholds, tmp_path, capsys):
        # Subject bias, frame scaling, a trend over periods and a context
        # effect, all planted; each verdict is its detector's on the column.
        rng = np.random.default_rng(4)
        n = 200
        subject = rng.integers(0, 8, n)
        period = rng.integers(0, 20, n)
        frame = rng.uniform(0.7, 1.4, n)
        context = rng.normal(size=(n, 2))
        y = frame * (5.0 + subject + 0.5 * period + 4.0 * context[:, 0]
                     + rng.normal(scale=0.3, size=n))
        ds = ytx.Dataset(
            features=rng.normal(size=(n, 2)), target=y,
            column_names=("a", "b"),
            roles=ytx.ColumnRoles(target="y", subject="s", time="t",
                                  frame="f", trial="r", context=("c1", "c2"),
                                  price_index="p"),
            aux={"subject": np.array([f"s{k}" for k in subject],
                                     dtype=object),
                 "time": np.array([str(2000 + t) for t in period],
                                  dtype=object),
                 "frame": frame,
                 "trial": np.array([str(k % 3) for k in subject],
                                   dtype=object),
                 "price_index": 1.0 + 0.01 * period,
                 "context": context})
        report = ytx.diagnose(ds, thresholds)
        expected = {
            "subjective": dg.detect_subjective(y, ds.aux["subject"],
                                               thresholds),
            "frame": dg.detect_frame(y, frame, thresholds),
            "trend": dg.detect_trend(y, ds.aux["time"], thresholds),
            "context": dg.detect_context(y, context, thresholds),
        }
        flagged = thresholds == dg.Thresholds()
        doc = report.to_dict()
        for name, verdict in expected.items():
            assert repr(getattr(report, name)) == repr(verdict), name
            assert verdict.flagged is flagged, name
            assert doc[name] == verdict.to_dict(), name
        assert set(doc) == {*expected, "distribution", "recommendations"}
        # The verdicts, the report's keys and the summary lines of
        # ``ytx diagnose`` on the same rows all follow field order.
        order = [*expected, "distribution"]
        assert list(report.verdicts) == order
        assert list(doc) == [*order, "recommendations"]
        columns = {"a": ds.features[:, 0], "b": ds.features[:, 1], "y": y,
                   "s": ds.aux["subject"], "t": ds.aux["time"], "f": frame,
                   "r": ds.aux["trial"], "p": ds.aux["price_index"],
                   "c1": context[:, 0], "c2": context[:, 1]}
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(
            [",".join(columns)]
            + [",".join(map(str, row)) for row in zip(*columns.values())])
            + "\n")
        roles = json.dumps(dataclasses.asdict(ds.roles))
        argv = ["diagnose", "--input", str(path), "--roles", roles]
        for key, value in dataclasses.asdict(thresholds).items():
            argv += ["--threshold", f"{key}={value}"]
        assert main(argv) == 0
        assert _summary_verdicts(capsys.readouterr().out) == [
            (name, "FLAGGED" if report.verdicts[name].flagged else "ok")
            for name in order]

    @pytest.mark.parametrize("role, dropped", [
        ("subject", "trial-minmax"), ("time", "deflate")])
    def test_advice_names_only_kinds_the_roles_run(self, role, dropped):
        # A planted subject effect or trend, with no 'trial' or
        # 'price_index' role to run the second kind its flag suggests.
        rng = np.random.default_rng(9)
        n = 400
        level = np.repeat(np.arange(10), n // 10)
        y = 3.0 * level + rng.normal(size=n)
        ds = ytx.Dataset(
            features=rng.normal(size=(n, 1)), target=y, column_names=("x",),
            roles=ytx.ColumnRoles(target="y", **{role: "k"}),
            aux={role: np.array([str(k) for k in level], dtype=object)})
        report = ytx.diagnose(ds)
        assert report.verdicts["subjective" if role == "subject"
                               else "trend"].flagged
        advised = [kind for kind, _ in dg.recommend(report)]
        kinds = [kind for kind, _ in report.recommendations]
        assert dropped in advised and dropped not in kinds
        assert kinds == [kind for kind in advised if kind != dropped]
        for kind in kinds:
            assert set(core.kind_fit(kind)[1]) <= set(ds.aux), kind

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        y = rng.gamma(2.0, size=200)
        X = rng.normal(size=(200, 3))
        base = dg.detect_distribution(y, X)
        perm = rng.permutation(200)
        shuffled = dg.detect_distribution(y[perm], X[perm])
        assert base.details["skewness"] == pytest.approx(
            shuffled.details["skewness"])
        assert base.p_value == pytest.approx(shuffled.p_value)

    def test_thresholds_replace_rejects_unknown(self):
        with pytest.raises(ConfigError):
            dg.Thresholds().replace(bogus=1.0)
        with pytest.raises(ConfigError,
                           match=r"^unknown thresholds: \['self'\]$"):
            dg.Thresholds().replace(self=1.0)
