import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import ytx
from ytx import ctx, diagnostics as dg
from ytx.core import FittedTransform, target_range
from ytx.diagnostics import Thresholds, Verdict
from ytx.errors import DataError, TransformDomainError


class TestSubjectCenter:
    def test_single_subject(self):
        t = ytx.fit_subject_center([1.0, 2.0, 3.0], ["A", "A", "A"])
        got = ytx.forward(t, [1.0, 2.0, 3.0], aux=["A", "A", "A"])
        assert got == pytest.approx([-1.0, 0.0, 1.0])

    def test_two_subjects(self):
        y = [1.0, 3.0, 10.0]
        keys = ["A", "A", "B"]
        t = ytx.fit_subject_center(y, keys)
        assert ytx.forward(t, y, aux=keys) == pytest.approx([-1.0, 1.0, 0.0])

    def test_unseen_subject_uses_global_mean(self):
        t = ytx.fit_subject_center([2.0, 6.0], ["A", "B"])
        assert t.params["global_mean"] == 4.0
        got = ytx.forward(t, [5.0], aux=["C"])
        assert got == pytest.approx([1.0])

    def test_per_subject_mean_exactly_zero(self):
        rng = np.random.default_rng(0)
        keys = rng.choice(list("abcd"), size=200)
        y = rng.normal(size=200) + 10.0
        t = ytx.fit_subject_center(y, keys)
        centered = ytx.forward(t, y, aux=keys)
        for key in "abcd":
            assert abs(np.mean(centered[keys == key])) <= 1e-12

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            ytx.fit_subject_center([], [])


class TestTrialMinmax:
    def test_endpoints(self):
        t = ytx.fit_trial_minmax([2.0, 4.0, 6.0], ["T", "T", "T"])
        got = ytx.forward(t, [2.0, 4.0, 6.0], aux=["T", "T", "T"])
        assert got == pytest.approx([0.0, 0.5, 1.0])

    def test_trial_local_scaling(self):
        y = [0.0, 10.0, 5.0, 15.0]
        keys = ["a", "a", "b", "b"]
        t = ytx.fit_trial_minmax(y, keys)
        assert ytx.forward(t, y, aux=keys) == pytest.approx([0, 1, 0, 1])

    def test_constant_trial_rejected(self):
        with pytest.raises(DataError, match="constant trial"):
            ytx.fit_trial_minmax([3.0, 3.0], ["T", "T"])

    def test_empty_dataset(self):
        with pytest.raises(DataError, match="empty dataset"):
            ytx.fit_trial_minmax([], [])

    def test_unseen_trial_rejected(self):
        t = ytx.fit_trial_minmax([1.0, 2.0], ["a", "a"])
        with pytest.raises(DataError, match="unseen trial"):
            ytx.forward(t, [1.0], aux=["z"])

    def test_training_min_max_exact(self):
        rng = np.random.default_rng(1)
        keys = np.repeat(["a", "b", "c"], 20)
        y = rng.normal(size=60)
        t = ytx.fit_trial_minmax(y, keys)
        z = ytx.forward(t, y, aux=keys)
        for key in "abc":
            group = z[keys == key]
            assert group.min() == 0.0 and group.max() == 1.0


class TestFrame:
    def test_division(self):
        t = ytx.fit_frame_normalize([62.0], [31.0])
        assert ytx.forward(t, [62.0], aux=[31.0])[0] == pytest.approx(2.0)

    def test_unit_frame_is_identity(self):
        y = np.array([3.0, 4.0])
        t = ytx.fit_frame_normalize(y, np.ones(2))
        assert ytx.forward(t, y, aux=np.ones(2)) == pytest.approx(y)

    def test_zero_frame_rejected(self):
        with pytest.raises(TransformDomainError):
            ytx.fit_frame_normalize([1.0], [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_rejected(self, bad):
        frame = [1.0, 2.0, bad]
        with pytest.raises(TransformDomainError,
                           match="non-finite frame value at index 2"):
            ytx.fit_frame_normalize([1.0, 2.0, 3.0], frame)
        t = ytx.fit_frame_normalize([1.0, 2.0], [1.0, 2.0])
        for apply in (ytx.forward, ytx.inverse):
            with pytest.raises(TransformDomainError) as info:
                apply(t, [1.0, 2.0, 3.0], aux=frame)
            assert info.value.index == 2

    def test_forward_linear_in_y(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=50)
        frames = rng.uniform(0.5, 3.0, size=50)
        t = ytx.fit_frame_normalize(y, frames)
        assert ytx.forward(t, 3.0 * y, aux=frames) == pytest.approx(
            3.0 * ytx.forward(t, y, aux=frames))


class TestDeflate:
    def index(self):
        return ytx.DeflationIndex(
            series={"2019": 1.0, "2020": 1.1}, base_time="2019")

    def test_deflation_arithmetic(self):
        t = ytx.fit_deflate([110.0], ["2020"], self.index())
        assert ytx.forward(t, [110.0], aux=["2020"])[0] == pytest.approx(100.0)

    def test_base_period_is_identity(self):
        t = ytx.fit_deflate([110.0], ["2019"], self.index())
        assert ytx.forward(t, [110.0], aux=["2019"])[0] == pytest.approx(110.0)

    def test_unknown_time_key(self):
        with pytest.raises(DataError, match="2077"):
            ytx.fit_deflate([1.0], ["2077"], self.index())

    def test_empty_dataset(self):
        with pytest.raises(DataError, match="empty dataset"):
            ytx.fit_deflate([], [], self.index())

    def test_zero_training_rows_from_price_column(self):
        ds = ytx.Dataset(
            features=np.zeros((2, 0)), target=np.array([1.0, 2.0]),
            column_names=(),
            roles=ytx.ColumnRoles(target="y", time="t", price_index="p"),
            aux={"time": np.array(["2019", "2020"], dtype=object),
                 "price_index": np.array([1.0, 1.1])})
        with pytest.raises(DataError, match="empty dataset"):
            ytx.evaluation.fit_transform_kind(
                "deflate", np.array([]), ds, np.array([], dtype=int))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_index_value_is_data_error(self, bad):
        with pytest.raises(DataError, match="must be finite"):
            ytx.DeflationIndex(series={"1": bad, "2": 2.0}, base_time="2")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_index_from_csv_non_finite_row(self, tmp_path, token):
        path = tmp_path / "cpi.csv"
        path.write_text(f"year,cpi\n2019,1.0\n2020,{token}\n")
        with pytest.raises(DataError, match="must be finite"):
            ytx.DeflationIndex.from_csv(str(path))

    def test_index_from_csv(self, tmp_path):
        path = tmp_path / "cpi.csv"
        path.write_text("year,cpi\n2019,1.0\n2020,1.1\n")
        index = ytx.DeflationIndex.from_csv(str(path))
        assert index.base_time == "2019"
        assert index.series["2020"] == 1.1

    @pytest.mark.parametrize("text, row", [
        ("year,cpi\n2019,1.0\n2020,1.1O\n2021,1.2\n", 3),
        ("year,cpi\nperiod,index\n2019,1.0\n", 2),
        ("2019,1.0\n\n2020,\n", 3),
    ], ids=["typo", "second-header", "empty-value"])
    def test_index_from_csv_bad_value_after_first_row(self, tmp_path, text,
                                                       row):
        path = tmp_path / "cpi.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"cpi.csv: row {row}: index "
                           "value '.*' is not a number"):
            ytx.DeflationIndex.from_csv(str(path))

    def test_index_from_csv_not_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "cpi.csv"
        path.write_bytes(b"2019,1.0\n2020,1.\xff1\n")
        with pytest.raises(DataError, match="not UTF-8 text at byte 16"):
            ytx.DeflationIndex.from_csv(str(path))

    def test_index_from_csv_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ytx.DeflationIndex.from_csv(str(tmp_path / "absent.csv"))

    def test_index_from_csv_ignores_bom(self, tmp_path):
        path = tmp_path / "cpi.csv"
        path.write_bytes(b"\xef\xbb\xbf2019,1.0\n2020,1.1\n")
        assert ytx.DeflationIndex.from_csv(str(path)).series == {
            "2019": 1.0, "2020": 1.1}

    @pytest.mark.parametrize("text", [
        b"2019,1.0\r2020,1.1\r", b"2019,1.0\r\n2020,1.1",
        b"\n2019,1.0\n\n2020,1.1\n", b'"2019",1.0\n"2020",1.1\n',
    ], ids=["cr", "crlf", "blank-lines", "quoted"])
    def test_index_from_csv_line_ends(self, tmp_path, text):
        path = tmp_path / "cpi.csv"
        path.write_bytes(text)
        assert ytx.DeflationIndex.from_csv(str(path)).series == {
            "2019": 1.0, "2020": 1.1}

    def test_forward_linear_in_y(self):
        t = ytx.fit_deflate([110.0, 55.0], ["2020", "2019"], self.index())
        aux = ["2020", "2019"]
        y = np.array([110.0, 55.0])
        assert ytx.forward(t, 2.0 * y, aux=aux) == pytest.approx(
            2.0 * ytx.forward(t, y, aux=aux))


class TestExpectationNormalize:
    def test_exact_linear_gives_zero(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(100, 1))
        y = 2.0 * phi[:, 0] + 1.0
        t = ytx.fit_expectation_normalize(y, phi)
        z = ytx.forward(t, y, aux=phi)
        # residuals are float noise; the sigma floor keeps the ratio finite
        assert np.max(np.abs(z)) < 1e-2

    def test_noise_standardized(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(2000, 1))
        y = 2.0 * phi[:, 0] + rng.normal(size=2000)
        t = ytx.fit_expectation_normalize(y, phi)
        z = ytx.forward(t, y, aux=phi)
        assert 0.8 <= np.std(z) <= 1.25

    def test_constant_context_rejected(self):
        with pytest.raises(DataError, match="collinear context"):
            ytx.fit_expectation_normalize(
                np.arange(10.0), np.ones((10, 1)))


class TestRegressionNormalize:
    def test_exact_ratio_is_one(self):
        rng = np.random.default_rng(5)
        phi = rng.uniform(1.0, 5.0, size=(50, 1))
        y = 3.0 * phi[:, 0]
        t = ytx.fit_regression_normalize(y, phi)
        z = ytx.forward(t, y, aux=phi)
        assert z == pytest.approx(np.ones(50))

    def test_plug_in_formula(self):
        from ytx.core import FittedTransform, forward
        t = FittedTransform("regression-norm",
                            {"beta": [1.0, 2.0], "denom_floor": 1e-6},
                            (0.0, 10.0))
        got = forward(t, np.array([10.0]), aux=np.array([[2.0]]))
        assert got[0] == pytest.approx(2.0)

    def test_zero_denominator_at_fit(self):
        phi = np.array([[-1.0], [1.0], [2.0], [-2.0]])
        y = phi[:, 0] * 2.0  # intercept ~0, predicted value ~0 nowhere? no:
        # craft a row whose prediction is exactly zero
        y = np.array([2.0, -2.0, -4.0, 4.0])  # y = -2*phi, pred 0 at phi=0
        phi = np.array([[-1.0], [1.0], [0.0], [-2.0]])
        y = -2.0 * phi[:, 0]
        with pytest.raises(DataError, match="zero denominator"):
            ytx.fit_regression_normalize(y, phi)

    def test_apply_time_clamp_warns(self):
        rng = np.random.default_rng(6)
        phi = rng.uniform(1.0, 5.0, size=(50, 1))
        y = 3.0 * phi[:, 0] + 0.1
        t = ytx.fit_regression_normalize(y, phi)
        beta = t.params["beta"]
        root = -beta[0] / beta[1]  # context value whose prediction is ~0
        with pytest.warns(RuntimeWarning):
            ytx.forward(t, np.array([1.0]), aux=np.array([[root]]))


class TestOneDimensionalContext:
    """A 1-D context vector is one column, not one row."""

    @pytest.mark.parametrize("fit", [ytx.fit_expectation_normalize,
                                     ytx.fit_regression_normalize])
    def test_fit_and_maps_match_one_column(self, fit):
        rng = np.random.default_rng(11)
        c = rng.uniform(1.0, 3.0, size=50)
        y = 5.0 + 2.0 * c + rng.normal(scale=0.3, size=50)
        t = fit(y, c)
        assert t == fit(y, c[:, None])
        z = ytx.forward(t, y, aux=c)
        assert np.array_equal(z, ytx.forward(t, y, aux=c[:, None]))
        assert np.array_equal(ytx.inverse(t, z, aux=c),
                              ytx.inverse(t, z, aux=c[:, None]))


class TestContextLength:
    @pytest.mark.parametrize("fit", [ytx.fit_expectation_normalize,
                                     ytx.fit_regression_normalize])
    def test_length_mismatch_is_data_error(self, fit):
        rng = np.random.default_rng(15)
        with pytest.raises(DataError, match="context matrix length mismatch"):
            fit(rng.uniform(1.0, 2.0, size=50), rng.normal(size=(40, 2)))


class TestRoundTrips:
    def test_all_contextual_kinds(self):
        rng = np.random.default_rng(7)
        n = 80
        y = rng.normal(5.0, 2.0, size=n)
        keys = rng.choice(list("abcd"), size=n)
        frames = rng.uniform(0.5, 4.0, size=n)
        phi = rng.uniform(1.0, 3.0, size=(n, 2))
        times = rng.choice(["2019", "2020", "2021"], size=n)
        index = ytx.DeflationIndex(
            series={"2019": 1.0, "2020": 1.05, "2021": 1.12},
            base_time="2019")
        cases = [
            (ytx.fit_subject_center(y, keys), keys),
            (ytx.fit_trial_minmax(y, keys), keys),
            (ytx.fit_frame_normalize(y, frames), frames),
            (ytx.fit_deflate(y, times, index), times),
            (ytx.fit_expectation_normalize(y, phi), phi),
            (ytx.fit_regression_normalize(np.abs(y) + 1.0, phi), phi),
        ]
        for t, aux in cases:
            target = np.abs(y) + 1.0 if t.kind == "regression-norm" else y
            back = ytx.inverse(t, ytx.forward(t, target, aux=aux), aux=aux)
            err = np.max(np.abs(back - target)
                         / np.maximum(1.0, np.abs(target)))
            assert err <= 1e-9, t.kind


# The per-group-mask and per-row code that key factorization replaced, kept
# verbatim (names prefixed) as the oracle of TestGroupedEquivalence.
def _reference_as_keys(keys):
    return np.array([str(k) for k in keys], dtype=object)


def _reference_fit_subject_center(y, subject):
    y = np.asarray(y, dtype=float)
    keys = _reference_as_keys(subject)
    if y.shape[0] == 0:
        raise DataError("empty dataset")
    if keys.shape[0] != y.shape[0]:
        raise DataError("subject vector length mismatch")
    means = {}
    for key in np.unique(keys):
        means[key] = float(np.mean(y[keys == key]))
    return FittedTransform(
        "subject-center",
        {"means": means, "global_mean": float(np.mean(y))},
        target_range(y))


def _reference_subject_means_for(params, keys):
    means = params["means"]
    fallback = params["global_mean"]
    return np.array([means.get(str(k), fallback) for k in keys])


def _reference_fit_trial_minmax(y, trial):
    y = np.asarray(y, dtype=float)
    keys = _reference_as_keys(trial)
    if keys.shape[0] != y.shape[0]:
        raise DataError("trial vector length mismatch")
    ranges = {}
    for key in np.unique(keys):
        values = y[keys == key]
        lo, hi = float(np.min(values)), float(np.max(values))
        if hi <= lo:
            raise DataError(f"constant trial {key!r}")
        ranges[key] = [lo, hi]
    return FittedTransform("trial-minmax", {"ranges": ranges},
                           target_range(y))


def _reference_trial_bounds(params, keys):
    ranges = params["ranges"]
    lo = np.empty(len(keys))
    hi = np.empty(len(keys))
    for i, key in enumerate(keys):
        key = str(key)
        if key not in ranges:
            raise DataError(f"unseen trial {key!r}")
        lo[i], hi[i] = ranges[key]
    return lo, hi


def _reference_fit_deflate(y, time, index):
    y = np.asarray(y, dtype=float)
    keys = _reference_as_keys(time)
    if keys.shape[0] != y.shape[0]:
        raise DataError("time vector length mismatch")
    for key in keys:
        if key not in index.series:
            raise DataError(f"unknown time key {key!r}")
    return FittedTransform(
        "deflate",
        {"series": dict(index.series), "base_time": index.base_time},
        target_range(y))


def _reference_deflate_factors(params, keys):
    series = params["series"]
    base = series[params["base_time"]]
    factors = np.empty(len(keys))
    for i, key in enumerate(keys):
        key = str(key)
        if key not in series:
            raise DataError(f"unknown time key {key!r}")
        factors[i] = base / series[key]
    return factors


def _reference_detect_subjective(y, subject, thresholds=Thresholds()):
    """One-way ANOVA across subject groups."""
    y = np.asarray(y, dtype=float)
    keys = np.array([str(k) for k in subject], dtype=object)
    groups = [y[keys == key] for key in np.unique(keys)]
    if len(groups) < 2:
        raise DataError("need at least 2 subjects")
    if any(len(g) < 2 for g in groups):
        raise DataError("every subject needs at least 2 samples")
    grand = y.mean()
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    df_b = len(groups) - 1
    df_w = y.shape[0] - len(groups)
    scale = max(float(np.sum((y - grand) ** 2)), 1.0)
    if ssb <= 1e-12 * scale:
        f_stat, p = 0.0, 1.0
    elif ssw <= 1e-12 * scale:
        f_stat, p = float("inf"), 0.0
    else:
        f_stat = (ssb / df_b) / (ssw / df_w)
        p = float(stats.f.sf(f_stat, df_b, df_w))
    return Verdict(flagged=p < thresholds.subjective_p,
                   statistic=float(f_stat), p_value=p)


def _reference_maps(kind, params, aux):
    """The reference forward and inverse maps of a contextual kind."""
    if kind == "subject-center":
        shift = _reference_subject_means_for(params, aux)
        return (lambda y: y - shift), (lambda z: z + shift)
    if kind == "trial-minmax":
        lo, hi = _reference_trial_bounds(params, aux)
        return (lambda y: (y - lo) / (hi - lo)), (lambda z: z * (hi - lo) + lo)
    factors = _reference_deflate_factors(params, aux)
    return (lambda y: y * factors), (lambda z: z / factors)


# 1 and "1" are one group under str(); "B" has no price, and "z" and 7
# never occur in training.
_KEYS = (1, "1", 2, "2", "a", "b", "10", "A", "B")
_UNSEEN = ("z", 7)
_TARGETS = (0.0, -0.0, 1.0, 2.5, -3.0, 1e300, -1e-300)
_INDEX = ytx.DeflationIndex(
    series={"1": 1.0, "2": 1.25, "a": 0.8, "b": 3.0, "10": 1e-3, "A": 7.0},
    base_time="2")


def _outcome(fn, *args):
    """``fn(*args)``, or the text of the DataError it raises."""
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


@st.composite
def _grouped_case(draw):
    """Training keys and tied targets, and apply-time keys and values."""
    groups = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=5,
                           unique=True))
    levels = draw(st.lists(st.one_of(st.sampled_from(_TARGETS),
                                     st.floats(-1e6, 1e6, allow_nan=False)),
                           min_size=1, max_size=6))
    n = draw(st.integers(1, 30))
    keys = draw(st.lists(st.sampled_from(groups), min_size=n, max_size=n))
    y = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    m = draw(st.integers(0, 8))
    seen = st.sampled_from(keys)
    pool = (st.one_of(seen, st.sampled_from(_UNSEEN))
            if draw(st.booleans()) else seen)
    apply_keys = draw(st.lists(pool, min_size=m, max_size=m))
    values = draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m))
    if draw(st.booleans()):
        keys = np.array(keys, dtype=object)
    if draw(st.integers(1, 16)) == 16:
        keys = list(keys)[:-1]
    return np.array(y), keys, apply_keys, np.array(values)


class TestGroupedEquivalence:
    """Factorized grouping gives the per-group-mask code's results."""

    @given(case=_grouped_case())
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_matches_reference(self, case):
        y, keys, apply_keys, values = case
        fits = [
            ("subject-center", ctx.fit_subject_center,
             _reference_fit_subject_center, ()),
            ("trial-minmax", ctx.fit_trial_minmax,
             _reference_fit_trial_minmax, ()),
            ("deflate", ctx.fit_deflate, _reference_fit_deflate, (_INDEX,)),
        ]
        with np.errstate(all="ignore"):
            for kind, fit, reference_fit, extra in fits:
                got = _outcome(fit, y, keys, *extra)
                want = _outcome(reference_fit, y, keys, *extra)
                if isinstance(want, str) or isinstance(got, str):
                    assert got == want, kind
                    continue
                assert got.kind == want.kind
                assert repr(got.params) == repr(want.params), kind
                assert (repr(got.training_target_range)
                        == repr(want.training_target_range))
                for aux, v in ((keys, y), (apply_keys, values)):
                    forward = _outcome(ytx.forward, got, v, aux)
                    inverse = _outcome(ytx.inverse, got, v, aux)
                    maps = _outcome(_reference_maps, kind, want.params, aux)
                    if isinstance(maps, str) or isinstance(forward, str):
                        assert forward == inverse == maps, kind
                        continue
                    assert forward.tobytes() == maps[0](v).tobytes(), kind
                    assert inverse.tobytes() == maps[1](v).tobytes(), kind

            got = _outcome(dg.detect_subjective, y, keys)
            if len(keys) != len(y):
                # The mask code raised IndexError here.
                assert got == "DataError: subject vector length mismatch"
                return
            want = _outcome(_reference_detect_subjective, y, keys)
            assert repr(got) == repr(want)

    def test_codes_wider_than_a_byte(self):
        # 300 groups take 16-bit codes, 70000 take 32-bit ones.
        rng = np.random.default_rng(9)
        keys = rng.permutation([f"k{i}" for i in range(300)] * 2)
        y = rng.normal(size=600)
        for fit, reference_fit in (
                (ctx.fit_subject_center, _reference_fit_subject_center),
                (ctx.fit_trial_minmax, _reference_fit_trial_minmax)):
            got, want = fit(y, keys), reference_fit(y, keys)
            assert repr(got.params) == repr(want.params)
            assert (ytx.forward(got, y, aux=keys).tobytes()
                    == _reference_maps(got.kind, want.params, keys)[0](y)
                    .tobytes())
        keys = [str(i) for i in range(70000)][::-1]
        y = np.arange(70000.0)
        t = ctx.fit_subject_center(y, keys)
        assert t.params["means"] == dict(zip(keys, y.tolist()))
        assert not ytx.forward(t, y, aux=keys).any()

    def test_first_unseen_row_is_named(self):
        t = ytx.fit_trial_minmax([1.0, 2.0, 3.0, 5.0], ["b", "b", "a", "a"])
        with pytest.raises(DataError, match="unseen trial 'z'$"):
            ytx.forward(t, np.zeros(4), aux=["a", "z", "y", "b"])
        d = ytx.fit_deflate([1.0], ["2"], _INDEX)
        with pytest.raises(DataError, match="unknown time key '9'$"):
            ytx.inverse(d, np.zeros(3), aux=["1", 9, "0"])


class TestKeyedInputChecks:
    """The keyed fits and detectors check the key length first and
    emptiness second."""

    @pytest.mark.parametrize("y, keys, message", [
        ([], [], "empty dataset"),
        ([], ["a"], "{} length mismatch"),
        ([1.0], [], "{} length mismatch"),
    ], ids=["empty", "extra-key", "missing-key"])
    @pytest.mark.parametrize("call, name", [
        (ctx.fit_subject_center, "subject vector"),
        (ctx.fit_trial_minmax, "trial vector"),
        (lambda y, keys: ctx.fit_deflate(y, keys, _INDEX), "time vector"),
        (dg.detect_subjective, "subject vector"),
        (dg.detect_trend, "time vector"),
    ], ids=["subject-center", "trial-minmax", "deflate", "detect-subjective",
            "detect-trend"])
    def test_check_order(self, call, name, y, keys, message):
        with pytest.raises(DataError, match=f"^{message.format(name)}$"):
            call(y, keys)


class TestUnicodeKeys:
    """A numpy unicode key array groups as its ``str`` values do: the same
    results as the keys in an object array or a list."""

    POOL = [str(i) for i in range(11)] + ["é", "a b"]

    def variants(self):
        rng = np.random.default_rng(11)
        keys = np.array(self.POOL)[rng.integers(0, len(self.POOL), 300)]
        assert keys.dtype.kind == "U"
        y = rng.normal(size=300)
        return y, [keys, keys.astype(object), keys.tolist()]

    def test_factorize(self):
        _, variants = self.variants()
        got = [ctx._factorize(keys) for keys in variants]
        for groups in got[1:]:
            assert groups.keys == got[0].keys
            assert all(type(k) is str for k in groups.keys)
            for mine, theirs in ((groups.codes, got[0].codes),
                                 (groups.order, got[0].order),
                                 (groups.bounds, got[0].bounds)):
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("kind", ["subject-center", "trial-minmax",
                                      "deflate"])
    def test_fits_and_maps(self, kind):
        index = ytx.DeflationIndex(
            series={k: 1.0 + i / 7 for i, k in enumerate(self.POOL)},
            base_time="3")
        fit = {"subject-center": ctx.fit_subject_center,
               "trial-minmax": ctx.fit_trial_minmax,
               "deflate": lambda y, keys: ctx.fit_deflate(y, keys, index)}
        y, variants = self.variants()
        results = []
        for keys in variants:
            t = fit[kind](y, keys)
            results.append((repr(t.params),
                            ytx.forward(t, y, aux=keys).tobytes(),
                            ytx.inverse(t, y, aux=keys).tobytes()))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("detect", [dg.detect_subjective,
                                        dg.detect_trend],
                             ids=["subjective", "trend"])
    def test_detectors(self, detect):
        y, variants = self.variants()
        got = [repr(detect(y, keys)) for keys in variants]
        assert got[0] == got[1] == got[2]


_AWKWARD_KEYS = (1, "1", 1.0, 0.0, -0.0, math.nan, "nan", "a", "b", 7)


@st.composite
def _key_rows(draw):
    """A key column as an object array and the rows to take of it: none,
    ``slice(None)``, a subset in any order, or indices with repeats."""
    keys = draw(st.lists(st.one_of(st.sampled_from(_AWKWARD_KEYS),
                                   st.integers(-3, 40),
                                   st.text("ab1.", max_size=3)),
                         max_size=40))
    if draw(st.booleans()):  # more than 256 groups: 16-bit codes
        keys += [f"k{i}" for i in range(draw(st.integers(250, 300)))]
    keys = np.asarray(draw(st.permutations(keys)), dtype=object)
    shape = draw(st.sampled_from(["empty", "all", "subset", "repeats"]))
    if shape == "all" or (shape != "empty" and not keys.size):
        return keys, slice(None)
    index = st.integers(0, keys.size - 1)
    rows = {"empty": st.just([]),
            "subset": st.lists(index, unique=True),
            "repeats": st.lists(index, min_size=1)}[shape]
    return keys, np.array(draw(rows), dtype=np.intp)


def _reference_factorize(keys):
    """The grouping as one function, kept frozen: the sorted distinct
    ``str`` keys, each row's code into them in the narrowest unsigned type,
    the stable argsort of the codes and the group bounds in it."""
    index = {}
    first_seen = [index.setdefault(str(k), len(index)) for k in keys]
    distinct = sorted(index)
    rank = np.empty(len(distinct), dtype=np.min_scalar_type(len(distinct)))
    rank[[index[k] for k in distinct]] = np.arange(len(distinct))
    codes = rank[np.fromiter(first_seen, np.intp, len(first_seen))]
    order = np.argsort(codes, kind="stable")
    bounds = np.zeros(len(distinct) + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=len(distinct)), out=bounds[1:])
    return distinct, codes, order, bounds


def _assert_same_groups(got, want):
    """``got`` (a ``_Grouping``) holds the ``_reference_factorize``
    ``want``: equal keys, and codes, order and bounds of equal dtype and
    bytes."""
    assert got.keys == want[0]
    assert all(type(k) is str for k in got.keys)
    for mine, theirs in zip((got.codes, got.order, got.bounds), want[1:]):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


class TestGroupedKeys:
    """A grouped key column and its row subsets group as the frozen
    reference groups the same rows of the keys."""

    @given(case=_key_rows())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_rows_match_factorize(self, case):
        keys, rows = case
        col = ctx._factorize(keys)
        assert len(col) == len(keys)
        _assert_same_groups(col, _reference_factorize(keys))
        sub = col[rows]
        assert len(sub) == len(keys[rows])
        _assert_same_groups(sub, _reference_factorize(keys[rows]))
        # A subset of a subset is grouped as the keys of those rows.
        _assert_same_groups(sub[::-1], _reference_factorize(keys[rows][::-1]))

    def test_factorize_passes_groups_through(self):
        col = ctx._factorize(["b", 1, "a", 1.0])
        assert ctx._factorize(col) is col
