import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

import ytx
from ytx import dist
from ytx.errors import DataError, TransformDomainError


def bisect_ppf(p, tol=1e-13):
    """Independent quantile oracle: bisection on an mpmath erfc CDF."""
    import mpmath

    mpmath.mp.dps = 30

    def cdf(x):
        return 0.5 * mpmath.erfc(-x / mpmath.sqrt(2))

    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestLogOffset:
    def test_offset_all_positive(self):
        t = ytx.fit_log_offset(np.array([0.5, 2.0, 10.0]))
        assert t.params["offset"] == 1.0

    def test_offset_negative_values(self):
        t = ytx.fit_log_offset(np.array([-2.3, 1.0]))
        assert t.params["offset"] == 3.0

    def test_forward_zero(self):
        t = ytx.fit_log_offset(np.array([0.0, 5.0]))
        assert ytx.forward(t, np.array([0.0]))[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("y", [[-3.0, 1.0], [-1.0, 0.0, 5.0]])
    def test_integer_minimum_forward_finite(self, y):
        y = np.array(y)
        t = ytx.fit_log_offset(y)
        assert np.all(np.isfinite(ytx.forward(t, y)))


class TestSqrt:
    def test_forward(self):
        t = ytx.fit_sqrt(np.array([4.0]))
        assert ytx.forward(t, np.array([4.0]))[0] == 2.0

    def test_zero_fixed_point(self):
        t = ytx.fit_sqrt(np.array([0.0, 1.0]))
        assert ytx.forward(t, np.array([0.0]))[0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(TransformDomainError):
            ytx.fit_sqrt(np.array([-1.0]))


def grid_best_log_likelihood(loglike):
    grid = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    return max(loglike(g) for g in grid)


class TestBoxCox:
    def test_lognormal_lambda_near_zero(self):
        y = np.exp(np.random.default_rng(3).normal(size=1000))
        t = ytx.fit_box_cox(y)
        assert -0.15 <= t.params["lambda"] <= 0.15

    def test_normal_lambda_near_one(self):
        y = np.random.default_rng(4).normal(10.0, 1.0, size=1000)
        t = ytx.fit_box_cox(y)
        assert 0.5 <= t.params["lambda"] <= 1.5

    def test_lambda_one_is_shifted_identity(self):
        from ytx.core import FittedTransform, forward
        t = FittedTransform("box-cox",
                            {"lambda": 1.0, "shift": 2.0,
                             "log_likelihood": 0.0}, (0.0, 1.0))
        y = np.array([3.0, 7.5])
        assert forward(t, y) == pytest.approx(y + 2.0 - 1.0)

    def test_constant_target_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            ytx.fit_box_cox(np.full(10, 3.0))

    def test_optimizer_beats_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            y = np.abs(rng.normal(size=200)) + 0.1
            t = ytx.fit_box_cox(y)
            shifted = y + t.params["shift"]
            best = grid_best_log_likelihood(
                lambda l: dist.box_cox_log_likelihood(shifted, l))
            assert t.params["log_likelihood"] >= best - 1e-6


class TestYeoJohnson:
    def test_identity_branch(self):
        assert dist.yeo_johnson_transform(np.array([3.0]), 1.0)[0] == (
            pytest.approx(3.0))

    def test_log_branch(self):
        got = dist.yeo_johnson_transform(np.array([math.e - 1.0]), 0.0)[0]
        assert got == pytest.approx(1.0)

    def test_reduces_lognormal_skew(self):
        y = np.exp(np.random.default_rng(5).normal(size=1000))
        t = ytx.fit_yeo_johnson(y)
        assert abs(ytx.skewness(ytx.forward(t, y))) < 0.3

    def test_optimizer_beats_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            y = rng.normal(size=150) ** 3
            t = ytx.fit_yeo_johnson(y)
            best = grid_best_log_likelihood(
                lambda l: dist.yeo_johnson_log_likelihood(y, l))
            assert t.params["log_likelihood"] >= best - 1e-6

    def test_negative_values_roundtrip(self):
        y = np.random.default_rng(6).normal(size=200) - 5.0
        t = ytx.fit_yeo_johnson(y)
        back = ytx.inverse(t, ytx.forward(t, y))
        assert np.allclose(back, y, rtol=1e-9, atol=1e-12)


# The power-transform fits as they were before each fit computed its
# lambda-free likelihood terms once, with the lambda search they used then:
# a full scan of a 101-point grid, then golden-section refinement.  Given
# the same search, the fits must match them bit for bit; with their own
# search, they must reach the full scan's likelihood.  For 1e-12 <= |lam| <
# 1e-6 the maps take the expm1 form that the fits took later.

def _reference_maximize_unimodal(fn, lo, hi):
    """``(fn(x), x)`` at the best point of a 101-point grid refined by
    golden-section search to a bracket narrower than 1e-9."""
    grid = np.linspace(lo, hi, 101)
    values = [fn(g) for g in grid]
    best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-9:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max((fn(x), x) for x in (a, (a + b) / 2.0, b, grid[best]))


def _reference_box_cox_transform(x, lam):
    if abs(lam) < 1e-12:
        return np.log(x)
    if abs(lam) < 1e-6:
        return np.expm1(lam * np.log(x)) / lam
    return (np.power(x, lam) - 1.0) / lam


def _reference_box_cox_log_likelihood(y_shifted, lam):
    n = y_shifted.shape[0]
    z = _reference_box_cox_transform(y_shifted, lam)
    var = np.var(z)
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return float((lam - 1.0) * np.sum(np.log(y_shifted))
                 - 0.5 * n * math.log(var))


def _reference_fit_box_cox(y, search=_reference_maximize_unimodal):
    y = np.asarray(y, dtype=float)
    span = float(np.max(y) - np.min(y))
    floor = 1e-6 * span
    shift = 0.0
    if np.min(y) < floor:
        shift = floor - float(np.min(y))
    shifted = y + shift
    _, lam = search(lambda l: _reference_box_cox_log_likelihood(shifted, l),
                    *dist.LAMBDA_BOUNDS)
    ll = _reference_box_cox_log_likelihood(shifted, lam)
    return {"lambda": float(lam), "shift": float(shift),
            "log_likelihood": float(ll)}


def _reference_yeo_johnson_transform(y, lam):
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    pos = y >= 0.0
    if abs(lam) < 1e-12:
        out[pos] = np.log1p(y[pos])
    elif abs(lam) < 1e-6:
        out[pos] = np.expm1(lam * np.log1p(y[pos])) / lam
    else:
        out[pos] = (np.power(y[pos] + 1.0, lam) - 1.0) / lam
    if abs(lam - 2.0) < 1e-12:
        out[~pos] = -np.log1p(-y[~pos])
    elif abs(lam - 2.0) < 1e-6:
        out[~pos] = -(np.expm1((2.0 - lam) * np.log1p(-y[~pos]))
                      / (2.0 - lam))
    else:
        out[~pos] = -(np.power(1.0 - y[~pos], 2.0 - lam) - 1.0) / (2.0 - lam)
    return out


def _reference_yeo_johnson_log_likelihood(y, lam):
    n = y.shape[0]
    z = _reference_yeo_johnson_transform(y, lam)
    var = np.var(z)
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return float((lam - 1.0) * np.sum(np.sign(y) * np.log1p(np.abs(y)))
                 - 0.5 * n * math.log(var))


def _reference_fit_yeo_johnson(y, search=_reference_maximize_unimodal):
    y = np.asarray(y, dtype=float)
    _, lam = search(lambda l: _reference_yeo_johnson_log_likelihood(y, l),
                    *dist.LAMBDA_BOUNDS)
    ll = _reference_yeo_johnson_log_likelihood(y, lam)
    return {"lambda": float(lam), "shift": 0.0, "log_likelihood": float(ll)}


def power_target(sign, n, seed):
    """A seeded skewed target: all positive, mixed in sign, all negative,
    or holding zeros (which gives Box-Cox a shift > 0)."""
    rng = np.random.default_rng(seed)
    y = np.exp(rng.normal(scale=rng.uniform(0.2, 2.0), size=n))
    if sign == "mixed":
        y -= np.median(y)
    elif sign == "negative":
        y = -y
    elif sign == "zeros":
        y[::3] = 0.0
        y -= rng.integers(0, 2)      # zeros, or -1s with mixed signs
    return y


def count_calls(mp, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    mp.setattr(owner, name, counted)
    return calls


#: Tied and discrete targets; the last two have the n >= 10 that a
#: quantile map needs.
TIED_TARGETS = [
    pytest.param([1.0, 2.0], id="two-points"),
    pytest.param([3.0, 5.0, 3.0, 3.0, 5.0], id="two-values"),
    pytest.param([0.0, 1.0, 2.0, 3.0], id="0-3"),
    pytest.param(np.random.default_rng(30).integers(0, 4, 60), id="0-3-ties"),
    pytest.param(np.random.default_rng(31).poisson(3.0, 200), id="poisson")]


def assert_roundtrips(fit, y):
    """The inverse of the forward map of ``fit(y)`` gives ``y`` back."""
    y = np.asarray(y, dtype=float)
    t = fit(y)
    assert np.allclose(ytx.inverse(t, ytx.forward(t, y)), y,
                       rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("y", TIED_TARGETS)
@pytest.mark.parametrize("fit", [ytx.identity_transform, ytx.fit_log_offset,
                                 ytx.fit_sqrt])
def test_tied_and_discrete_targets_roundtrip(fit, y):
    assert_roundtrips(fit, y)


@pytest.mark.parametrize("y", TIED_TARGETS[3:])
@pytest.mark.parametrize("reference", ["normal", "uniform"])
def test_tied_and_discrete_targets_roundtrip_quantile(reference, y):
    assert_roundtrips(lambda y: ytx.fit_quantile(y, reference), y)


class TestPowerFitsMatchReference:
    """The fits compute their lambda-free terms once and still give the
    reference's lambda, shift, log-likelihood and forward bytes under the
    same search, with no more likelihood evaluations; their Brent search
    reaches the full scan's likelihood."""

    @given(st.sampled_from(["positive", "mixed", "negative", "zeros"]),
           st.integers(2, 400), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_fits_are_bit_equal(self, sign, n, seed):
        y = power_target(sign, n, seed)
        module = sys.modules[__name__]
        with pytest.MonkeyPatch.context() as mp:
            bc_new = count_calls(mp, dist, "box_cox_log_likelihood")
            yj_new = count_calls(mp, dist, "yeo_johnson_log_likelihood")
            bc_ref = count_calls(mp, module,
                                 "_reference_box_cox_log_likelihood")
            yj_ref = count_calls(mp, module,
                                 "_reference_yeo_johnson_log_likelihood")
            search = dist._maximize_unimodal
            fits = {"box-cox": (ytx.fit_box_cox(y),
                                _reference_fit_box_cox(y, search)),
                    "yeo-johnson": (ytx.fit_yeo_johnson(y),
                                    _reference_fit_yeo_johnson(y, search))}
        assert len(bc_new) <= len(bc_ref) and len(yj_new) <= len(yj_ref)
        for kind, (fitted, ref) in fits.items():
            assert fitted.params == ref, kind
            lam, shift = ref["lambda"], ref["shift"]
            if kind == "box-cox":
                expected = _reference_box_cox_transform(y + shift, lam)
            else:
                expected = _reference_yeo_johnson_transform(y, lam)
            assert ytx.forward(fitted, y).tobytes() == expected.tobytes()

    @given(st.sampled_from(["positive", "mixed", "negative", "zeros"]),
           st.one_of(st.integers(2, 9), st.integers(10, 400)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_likelihood_matches_full_scan(self, sign, n, seed):
        # Below 10 points the loss may reach 1e-7: a 2-point profile is
        # flat near lambda = 0, where (x**lam - 1) / lam cancels, and the
        # full scan's exact lambda = 0 wins there.
        y = power_target(sign, n, seed)
        bound = 1e-12 if n >= 10 else 1e-7
        for fitted, ref in ((ytx.fit_box_cox(y), _reference_fit_box_cox(y)),
                            (ytx.fit_yeo_johnson(y),
                             _reference_fit_yeo_johnson(y))):
            best = ref["log_likelihood"]
            assert best - fitted.params["log_likelihood"] <= bound * abs(best)

    @given(st.sampled_from(["positive", "mixed", "negative", "zeros"]),
           st.integers(2, 200), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 5e-13, -5e-13, 2.0, 2.0 + 5e-13,
                            2.0 - 5e-13, 1.0, -4.5, 0.37, 4.9]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_branch_lambdas_are_bit_equal(self, sign, n, seed, lam):
        y = power_target(sign, n, seed)
        assert (dist.yeo_johnson_transform(y, lam).tobytes()
                == _reference_yeo_johnson_transform(y, lam).tobytes())
        assert (dist.yeo_johnson_log_likelihood(y, lam)
                == _reference_yeo_johnson_log_likelihood(y, lam))
        shifted = y - np.min(y) + 0.5
        assert (dist.box_cox_log_likelihood(shifted, lam)
                == _reference_box_cox_log_likelihood(shifted, lam))

    def test_fits_make_few_evaluations(self):
        """At most 30 likelihood evaluations per fit, where golden-section
        search made 51: on c4's 20 gamma sets, on a lognormal target the
        size of a benchmark fold, and on every training fold of a lognormal
        target the size of skewed-session's."""
        rng = np.random.default_rng(400)
        targets = []
        for _ in range(20):
            y = rng.gamma(rng.uniform(0.5, 5.0), 2.0, size=120) + 0.05
            targets.append((y, y - np.median(y)))
        y = np.exp(np.random.default_rng(9).normal(size=9900))
        targets.append((y, y))
        y = np.exp(np.random.default_rng(7).normal(size=19800))
        for train, _ in ytx.make_fold_plan(y.shape[0], 42).folds:
            targets.append((y[list(train)], y[list(train)]))
        for bc_y, yj_y in targets:
            with pytest.MonkeyPatch.context() as mp:
                bc = count_calls(mp, dist, "box_cox_log_likelihood")
                yj = count_calls(mp, dist, "yeo_johnson_log_likelihood")
                ytx.fit_box_cox(bc_y)
                ytx.fit_yeo_johnson(yj_y)
            assert 0 < len(bc) <= 30 and 0 < len(yj) <= 30

    @pytest.mark.parametrize("fit, loglik", [
        (ytx.fit_box_cox, "box_cox_log_likelihood"),
        (ytx.fit_yeo_johnson, "yeo_johnson_log_likelihood")])
    def test_tie_falls_back_to_the_grid(self, fit, loglik):
        # The variance overflows away from lambda ~ 0.5, so the first
        # probes tie at -inf and the search scans the 101-point grid.
        y = 1e300 * np.random.default_rng(3).uniform(1.0, 2.0, 200)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, dist, loglik)
            with np.errstate(all="ignore"):
                fitted = fit(y)
        assert len(calls) > 101
        assert fitted.params["lambda"] == 0.5120981212562179

    @pytest.mark.parametrize("y", TIED_TARGETS)
    @pytest.mark.parametrize("fit", [ytx.fit_box_cox, ytx.fit_yeo_johnson])
    def test_tied_and_discrete_targets_roundtrip(self, fit, y):
        assert_roundtrips(fit, y)

    def test_no_finite_likelihood_is_data_error(self):
        # Every lambda's variance underflows to zero.
        y = 1e-300 * np.random.default_rng(0).uniform(1.0, 2.0, 50)
        with pytest.raises(DataError,
                           match="yeo-johnson: no lambda gives a finite"):
            ytx.fit_yeo_johnson(y)

    def test_transform_keeps_shape_of_scalars_and_matrices(self):
        y = np.array([[-1.5, 0.0], [2.0, 3.5]])
        for lam in (0.0, 0.5, 2.0):
            got = dist.yeo_johnson_transform(y, lam)
            assert got.shape == (2, 2)
            assert got.tobytes() == _reference_yeo_johnson_transform(
                y, lam).tobytes()
            assert dist.yeo_johnson_transform(-0.5, lam).shape == ()


def synthetic_profile(shape, peak, offset, left, right, step):
    """A function of lambda whose 101-point grid on LAMBDA_BOUNDS peaks at
    index ``peak``: ``-(lam - mu)**2`` with mu within 0.045 of that grid
    point; "plateaus" makes it -inf beyond grid points ``left`` and
    ``right`` (taken no nearer the peak than ``peak``), "ties" floors it
    to multiples of ``step``."""
    grid = np.linspace(*dist.LAMBDA_BOUNDS, 101)
    mu = grid[peak] + offset
    lo = grid[min(left, peak)] - 0.05
    hi = grid[max(right, peak)] + 0.05

    def fn(lam):
        if shape == "plateaus" and not lo <= lam <= hi:
            return -math.inf
        value = -(lam - mu) ** 2
        if shape == "ties":
            value = math.floor(value / step) * step
        return value
    return fn


def step_profile(values):
    """A step function of lambda: ``values[i]`` on the i-th of
    ``len(values)`` equal parts of LAMBDA_BOUNDS."""
    lo, hi = dist.LAMBDA_BOUNDS
    last = len(values) - 1
    return lambda lam: values[round((lam - lo) / (hi - lo) * last)]


class TestGridSearch:
    """The Brent search reaches the full scan's value: within 1e-18, the
    square of its 1e-9 bracket."""

    @given(st.builds(synthetic_profile,
                     st.sampled_from(["strict", "plateaus", "ties"]),
                     st.one_of(st.sampled_from([0, 100]), st.integers(1, 99)),
                     st.floats(-0.045, 0.045), st.integers(0, 100),
                     st.integers(0, 100),
                     st.sampled_from([1e-3, 1e-2, 0.1, 1.0])))
    @example(step_profile([1.0, 3.0, 3.0, 1.0]))
    @example(step_profile([-math.inf] * 5 + [0.0] + [-math.inf] * 5))
    @example(step_profile([1.0, math.nan, 2.0, 0.0]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_search_matches_full_scan(self, fn):
        value, lam = dist._maximize_unimodal(fn, *dist.LAMBDA_BOUNDS)
        best, best_lam = _reference_maximize_unimodal(fn, *dist.LAMBDA_BOUNDS)
        if math.isnan(best):    # NaN ranks nowhere: both keep the scan's NaN
            assert math.isnan(value) and lam == best_lam
        else:
            assert value == fn(lam) and value >= best - 1e-18


# The power transforms' inverses and inverse ranges as they were before
# Yeo-Johnson's were built from the Box-Cox root; the inverses must match
# them bit for bit, and the domain errors by type.  For 1e-12 <= |lam| <
# 1e-6 they take the log1p form that the inverses took later.

def _reference_bc_inverse(params, z):
    lam, shift = params["lambda"], params["shift"]
    if abs(lam) < 1e-12:
        return np.exp(z) - shift
    base = lam * z + 1.0
    if np.any(base <= 0.0):
        raise TransformDomainError("box-cox: outside inverse domain")
    if abs(lam) < 1e-6:
        return np.exp(np.log1p(lam * z) / lam) - shift
    return np.power(base, 1.0 / lam) - shift


def _reference_yj_inverse(params, z):
    lam = params["lambda"]
    out = np.empty_like(z)
    pos = z >= 0.0
    if abs(lam) < 1e-12:
        out[pos] = np.expm1(z[pos])
    else:
        base = lam * z[pos] + 1.0
        if np.any(base <= 0.0):
            raise TransformDomainError(
                "yeo-johnson: value outside inverse domain")
        if abs(lam) < 1e-6:
            out[pos] = np.expm1(np.log1p(lam * z[pos]) / lam)
        else:
            out[pos] = np.power(base, 1.0 / lam) - 1.0
    if abs(lam - 2.0) < 1e-12:
        out[~pos] = -np.expm1(-z[~pos])
    else:
        base = 1.0 - (2.0 - lam) * z[~pos]
        if np.any(base <= 0.0):
            raise TransformDomainError(
                "yeo-johnson: value outside inverse domain")
        if abs(lam - 2.0) < 1e-6:
            out[~pos] = 0.0 - np.expm1(np.log1p(-(2.0 - lam) * z[~pos])
                                       / (2.0 - lam))
        else:
            out[~pos] = 1.0 - np.power(base, 1.0 / (2.0 - lam))
    return out


def _reference_bc_inverse_range(params):
    lam = params["lambda"]
    if abs(lam) < 1e-12:
        return (-math.inf, math.inf)
    if lam > 0:
        return (-1.0 / lam, math.inf)
    return (-math.inf, -1.0 / lam)


def _reference_yj_inverse_range(params):
    lam = params["lambda"]
    # Strict comparisons: the inverse takes its power branch at λ = -1e-12
    # and 2 + 1e-12, so the range is finite there.  With >= and <= it was
    # (-inf, inf) at those λ and clamping let the inverse raise (the
    # CHANGES.md FOUND on _yj_inverse_range).
    hi = math.inf if lam > -1e-12 else -1.0 / lam
    lo = -math.inf if lam < 2.0 + 1e-12 else -1.0 / (lam - 2.0)
    return (lo, hi)


EDGE_LAMBDAS = [0.0, 1e-12, -1e-12, 5e-13, -5e-13, 1e-11, -1e-11,
                2.0, 2.0 + 1e-12, 2.0 - 1e-12, 2.0 + 5e-13, 2.0 - 5e-13,
                1.0, -0.5, -2.0, -4.5, 0.37, 2.5, 3.0, 4.9]


def _outcome(fn, *args):
    """A map's shape and bytes, or the type of the error it raised."""
    try:
        out = fn(*args)
    except TransformDomainError as exc:
        return type(exc)
    return out.shape, out.tobytes()


class TestPowerInversesMatchReference:
    """Yeo-Johnson's inverse is two Box-Cox roots and still gives the
    reference's bytes: at the branch edges, on both sides of zero, at
    signed zeros, tiny values, infinities and NaN, and on a matrix."""

    SAMPLES = [
        np.array([0.0, -0.0, 1e-300, -1e-300, 5e-17, -5e-17, 1e-16,
                  -1e-16, np.nan, -np.nan, np.inf, -np.inf]),
        np.random.default_rng(21).normal(scale=3.0, size=400),
        -np.abs(np.random.default_rng(22).normal(size=60)),
        np.abs(np.random.default_rng(23).normal(size=60)),
        np.linspace(-0.4, 0.4, 81),
        np.random.default_rng(24).normal(size=(6, 3)),
    ]

    @pytest.mark.parametrize("lam", EDGE_LAMBDAS)
    def test_inverses_are_bit_equal(self, lam):
        with np.errstate(all="ignore"):
            for z in self.SAMPLES:
                for shift in (0.0, 0.75):
                    params = {"lambda": lam, "shift": shift}
                    assert (_outcome(dist._bc_inverse, params, z, None)
                            == _outcome(_reference_bc_inverse, params, z))
                params = {"lambda": lam, "shift": 0.0}
                assert (_outcome(dist._yj_inverse, params, z, None)
                        == _outcome(_reference_yj_inverse, params, z))

    @pytest.mark.parametrize("lam", EDGE_LAMBDAS)
    def test_inverse_ranges_are_equal(self, lam):
        params = {"lambda": lam}
        assert dist._bc_inverse_range(params) == (
            _reference_bc_inverse_range(params))
        assert dist._yj_inverse_range(params) == (
            _reference_yj_inverse_range(params))

    @pytest.mark.parametrize("lam", EDGE_LAMBDAS)
    @pytest.mark.parametrize("kind", ["box-cox", "yeo-johnson"])
    def test_clamped_values_invert(self, kind, lam):
        t = ytx.FittedTransform(kind, {"lambda": lam, "shift": 0.0},
                                (0.0, 1.0))
        magnitudes = [1e300, 1e13, 2e12, 1.0, 0.0]
        z = np.array(magnitudes + [-m for m in magnitudes])
        with np.errstate(all="ignore"):
            ytx.inverse(t, ytx.core.clamp_to_inverse_range(t, z)[0])


#: Lambdas where ``(x**lam - 1) / lam`` and its power inverse lose about
#: 1e-16/|lam| relative (``2 - lam`` for Yeo-Johnson's lower half).
NEAR_ZERO_LAMBDAS = [1e-11, -1e-11, 2.8e-10, -2.8e-10, 1e-8, -1e-8, 1e-7,
                     -1e-7, 2.0 + 1e-9, 2.0 - 1e-9]


@pytest.mark.parametrize("lam", NEAR_ZERO_LAMBDAS)
@pytest.mark.parametrize("kind", ["box-cox", "yeo-johnson"])
def test_near_zero_lambda_roundtrips(kind, lam):
    y = np.exp(np.random.default_rng(50).normal(scale=1.5, size=400))
    if kind == "yeo-johnson":
        mixed = np.random.default_rng(51).normal(scale=2.0, size=400) ** 3
        y = np.concatenate([y, -y, mixed])
    t = ytx.FittedTransform(kind, {"lambda": lam, "shift": 0.0}, (0.0, 1.0))
    back = ytx.inverse(t, ytx.forward(t, y))
    assert np.all(np.abs(back - y) <= 1e-14 * np.maximum(1.0, np.abs(y)))


class TestQuantile:
    def test_median_maps_near_zero(self):
        y = np.random.default_rng(8).normal(5.0, 2.0, size=1000)
        t = ytx.fit_quantile(y, "normal")
        z = ytx.forward(t, np.array([np.median(y)]))[0]
        assert abs(z) <= 0.05

    def test_uniform_extremes(self):
        y = np.arange(1.0, 101.0)
        t = ytx.fit_quantile(y, "uniform")
        eps = t.params["clip_epsilon"]
        assert ytx.forward(t, np.array([1.0]))[0] == pytest.approx(eps)
        assert ytx.forward(t, np.array([100.0]))[0] == pytest.approx(1 - eps)

    def test_normal_reference_is_normalish(self):
        from scipy import stats
        y = np.random.default_rng(9).gamma(2.0, size=1000)
        t = ytx.fit_quantile(y, "normal")
        ks = stats.kstest(ytx.forward(t, y), "norm").statistic
        assert ks <= 0.05

    @pytest.mark.parametrize("reference", ["cauchy", "Normal", ""])
    def test_unknown_reference_rejected(self, reference):
        with pytest.raises(DataError) as err:
            ytx.fit_quantile(np.arange(20.0), reference)
        assert str(err.value) == f"unknown quantile reference {reference!r}"

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="too few samples"):
            ytx.fit_quantile(np.arange(5.0), "normal")

    def test_forward_monotone(self):
        y = np.random.default_rng(10).normal(size=300)
        t = ytx.fit_quantile(y, "normal")
        probe = np.sort(np.random.default_rng(1).uniform(
            y.min(), y.max(), size=200))
        z = ytx.forward(t, probe)
        assert np.all(np.diff(z) >= 0.0)


# The quantile maps as they were when both kinds shared one forward, one
# inverse and one range that branched on params["reference"]; each kind's
# own maps must give their bytes, and its range their values.

def _reference_quantile_tables(params):
    knots = np.asarray(params["quantile_knots"], dtype=float)
    eps = params["clip_epsilon"]
    probs = np.clip(np.linspace(0.0, 1.0, knots.shape[0]), eps, 1.0 - eps)
    return knots, probs


def _reference_q_forward(params, y):
    knots, probs = _reference_quantile_tables(params)
    p = np.interp(y, knots, probs)
    if params["reference"] == "uniform":
        return p
    return dist.normal_ppf(p)


def _reference_q_inverse(params, z):
    knots, probs = _reference_quantile_tables(params)
    eps = params["clip_epsilon"]
    if params["reference"] == "uniform":
        p = np.clip(z, eps, 1.0 - eps)
    else:
        p = np.clip(dist.normal_cdf(z), eps, 1.0 - eps)
    return np.interp(p, probs, knots)


def _reference_q_inverse_range(params):
    eps = params["clip_epsilon"]
    if params["reference"] == "uniform":
        return (eps, 1.0 - eps)
    return (float(special.ndtri(eps)), float(special.ndtri(1.0 - eps)))


def _quantile_fits():
    """Fitted quantile transforms of both kinds: fewer and more samples
    than knots, ties, a sidecar-style bag whose clip_epsilon is wider than
    the first knot gap (the inverse's clip then picks the last of the
    tied clipped probabilities)."""
    rng = np.random.default_rng(31)
    samples = [np.arange(10.0), rng.gamma(2.0, size=1500),
               rng.integers(0, 5, size=200).astype(float),
               rng.normal(size=300)]
    for reference in ("normal", "uniform"):
        for y in samples:
            yield dist.fit_quantile(y, reference)
        wide = dist.fit_quantile(np.arange(10.0), reference)
        yield ytx.FittedTransform(wide.kind, {**wide.params,
                                              "clip_epsilon": 0.25},
                                  wide.training_target_range)


_QUANTILE_FITS = list(_quantile_fits())


def _shuffled_with_specials(values, rng):
    """``values`` and NaN, +-inf and +-0.0, in a random order."""
    return rng.permutation(np.concatenate(
        [values, [np.nan, np.inf, -np.inf, 0.0, -0.0]]))


def _blind(t):
    """``t`` without its ``reference`` entry: the kind alone decides the
    maps, so such a bag (or one with another reference) maps the same."""
    return ytx.FittedTransform(
        t.kind, {k: v for k, v in t.params.items() if k != "reference"},
        t.training_target_range)


def _assert_quantile_maps_match(t, y_probes, z_probes):
    """Each quantile map gives the reference's shape and bytes on every
    probe, for ``t`` and for ``_blind(t)``."""
    params, blind = t.params, _blind(t)
    for y in y_probes:
        expected = _outcome(_reference_q_forward, params, y)
        assert _outcome(ytx.forward, t, y) == expected
        assert _outcome(ytx.forward, blind, y) == expected
    for z in z_probes:
        expected = _outcome(_reference_q_inverse, params, z)
        assert _outcome(ytx.inverse, t, z) == expected
        assert _outcome(ytx.inverse, blind, z) == expected


class TestQuantileMapsMatchReference:
    """The maps look their values up in ascending order and scatter the
    results back; sorted, shuffled and matrix probes must all give the
    reference's bytes in the probe's shape."""

    @pytest.mark.parametrize("t", _QUANTILE_FITS, ids=lambda t: t.kind)
    def test_maps_and_range_are_equal(self, t):
        params = t.params
        lo, hi = t.training_target_range
        span = hi - lo
        knots = np.asarray(params["quantile_knots"])
        rng = np.random.default_rng(32)
        y_probes = [np.linspace(lo, hi, 257), knots,
                    np.array([lo - span, hi + span, -1e300, 1e300, -0.0]),
                    np.array([-np.inf, np.inf]), np.array([np.nan]),
                    rng.permutation(np.linspace(lo, hi, 257)),
                    _shuffled_with_specials(knots, rng),
                    rng.uniform(lo - span, hi + span, size=(17, 13))]
        z_probes = [np.linspace(-8.0, 8.0, 401), np.linspace(-0.5, 1.5, 401),
                    np.array([0.0, -0.0, 1.0, 1e-7, 1.0 - 1e-7, 0.25, 0.75,
                              -1e300, 1e300]),
                    np.array([-np.inf, np.inf]), np.array([np.nan]),
                    rng.permutation(np.linspace(-8.0, 8.0, 401)),
                    _shuffled_with_specials(np.linspace(-0.5, 1.5, 401), rng),
                    rng.normal(scale=3.0, size=(17, 13)),
                    rng.uniform(-0.5, 1.5, size=(13, 17))]
        _assert_quantile_maps_match(t, y_probes, z_probes)
        expected = _reference_q_inverse_range(params)
        for fitted in (t, _blind(t)):
            got = ytx.inverse_range(fitted)
            assert got == expected
            assert [type(v) for v in got] == [float, float]


@given(st.sampled_from(_QUANTILE_FITS),
       hnp.arrays(np.float64, st.integers(0, 3000), fill=st.nothing(),
                  elements=st.one_of(st.floats(-10.0, 10.0),
                                     st.floats(-0.5, 1.5), st.floats())))
@settings(max_examples=40, deadline=None)
def test_quantile_maps_match_reference_on_any_draw(t, values):
    _assert_quantile_maps_match(t, [values], [values])


class TestSkewness:
    def test_symmetric_sample(self):
        assert ytx.skewness(np.array([-1.0, 0.0, 1.0])) == pytest.approx(0.0)

    def test_constant_rejected(self):
        with pytest.raises(DataError, match="zero variance"):
            ytx.skewness(np.full(5, 2.0))

    @pytest.mark.parametrize("y", [[], [1.0], [1.0, 2.0]])
    def test_fewer_than_three_samples_rejected(self, y):
        with pytest.raises(DataError) as err:
            ytx.skewness(np.array(y))
        assert str(err.value) == "skewness needs at least 3 samples"

    @given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, a, b):
        y = np.random.default_rng(13).gamma(2.0, size=60)
        base = ytx.skewness(y)
        assert ytx.skewness(a * y + b) == pytest.approx(base, abs=1e-7)

    def test_negation_flips_sign(self):
        y = np.random.default_rng(14).gamma(2.0, size=60)
        assert ytx.skewness(-y) == pytest.approx(-ytx.skewness(y), abs=1e-10)


class TestNormalPpf:
    def test_half_maps_to_zero(self):
        assert ytx.normal_ppf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_values_against_bisection(self):
        assert ytx.normal_ppf(0.975) == pytest.approx(
            bisect_ppf(0.975), abs=1e-8)
        assert ytx.normal_ppf(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert ytx.normal_ppf(0.0013499) == pytest.approx(-3.0, abs=1e-3)
        assert ytx.normal_ppf(0.0013499) == pytest.approx(
            bisect_ppf(0.0013499), abs=1e-8)

    def test_random_probabilities_against_bisection(self):
        rng = np.random.default_rng(15)
        for p in rng.uniform(1e-6, 1 - 1e-6, size=10):
            assert ytx.normal_ppf(p) == pytest.approx(bisect_ppf(p), abs=1e-8)

    def test_ppf_cdf_roundtrip(self):
        for x in np.linspace(-6.0, 6.0, 61):
            assert ytx.normal_ppf(ytx.normal_cdf(x)) == pytest.approx(
                x, abs=1e-7)

    def test_out_of_range(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(TransformDomainError):
                ytx.normal_ppf(p)

    def test_extreme_tails(self):
        for p in (1e-12, 1.0 - 1e-12):
            assert ytx.normal_ppf(p) == pytest.approx(bisect_ppf(p), abs=1e-8)


def _reference_quantile_knots(y):
    """``fit_quantile``'s knots as it took them from the unsorted sample."""
    y = np.asarray(y, dtype=float)
    return np.quantile(y, np.linspace(0.0, 1.0, min(1000, y.shape[0])))


@pytest.mark.parametrize("y", [
    pytest.param(np.random.default_rng(40).lognormal(size=9900), id="9900"),
    pytest.param(np.random.default_rng(41).integers(0, 6, 2500), id="ties"),
    pytest.param(np.random.default_rng(42).normal(size=999), id="999"),
    pytest.param(np.full(50, 0.1), id="constant"),
    pytest.param(np.array([3.0, -0.0, 0.0, 2.0, -0.0, 1.0, 0.0, 3.0, 1.0,
                           2.0]), id="signed-zeros")])
def test_quantile_knots_match_unsorted_reference(y):
    knots = np.asarray(dist.fit_quantile(y).params["quantile_knots"])
    assert knots.tobytes() == _reference_quantile_knots(y).tobytes()
