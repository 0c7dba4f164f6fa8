from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopres.indicators import stack_episodes
from coopres.resilience import CurvePair, Milestones, _trapezoid, guarded_ratio, summary_metric
from coopres.timeseries import _COMPRESSED_SUFFIXES, TimeSeries

from conftest import write_raw_curve

# Finite non-negative curve values: most reprs run to 17 significant digits,
# and the second strategy draws only subnormals.
curve_value = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                        st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
                        st.sampled_from([5e-324, 0.1 + 0.2, 1 / 3, 1.7976931348623157e308]))
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# Mixes live values with ones on either side of the guard's EPS = 1e-9.
ratio_operand = st.one_of(finite, st.floats(min_value=-1e-8, max_value=1e-8),
                          st.sampled_from([0.0, 1e-9, 9.9e-10, 1.01e-9]))


def scalar_guarded_ratio(num, den, eps=1e-9, cap=2.0):
    """Branch-by-branch reference for one pair of operands."""
    if den >= eps:
        return num / den
    if num < eps:
        return 1.0
    return cap


class TestTimeSeries:
    def test_basic_properties(self):
        ts = TimeSeries([1.0, 2.0, 3.0], t0=5)
        assert len(ts) == 3
        assert ts.t0 == 5
        assert ts.values[1] == 2.0

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            TimeSeries([])

    def test_rejects_negative_t0(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], t0=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries([1.0, bad, 2.0])

    def test_csv_round_trip(self, tmp_path):
        ts = TimeSeries([0.1, 0.2, 1 / 3], t0=4)
        path = write_raw_curve(tmp_path / "series.csv", ts.values.tolist(), t0=4)
        back = TimeSeries.from_csv(path)
        assert back.t0 == ts.t0 and np.array_equal(back.values, ts.values)

    def test_csv_rejects_gap_in_ticks(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tick,value\n0,1.0\n2,2.0\n")
        with pytest.raises(ValueError, match="consecutive"):
            TimeSeries.from_csv(path)

    def test_csv_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("tick,value\n0,1.0\n1,nan\n")
        with pytest.raises(ValueError, match=r"nan\.csv: .*finite"):
            TimeSeries.from_csv(path)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            TimeSeries.from_csv(path)

    @given(rows=st.lists(st.tuples(curve_value, st.sampled_from(["{!r}", "{:.6f}", "{:.17e}"])),
                         min_size=1, max_size=40),
           t0=st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=200, deadline=None)
    def test_csv_reads_each_value_as_python_float_does(self, tmp_path_factory, rows, t0):
        fields = [fmt.format(v) for v, fmt in rows]
        path = write_raw_curve(tmp_path_factory.getbasetemp() / "round_trip.csv", fields, t0=t0)
        back = TimeSeries.from_csv(path)
        assert back.t0 == t0
        assert back.values.tobytes() == np.array([float(f) for f in fields]).tobytes()

    def test_refused_suffixes_are_the_ones_numpy_decompresses(self):
        # np.loadtxt opens a path through np.lib._datasource, which picks a
        # decompressor by suffix; a suffix a later numpy adds must be refused too.
        openers = np.lib._datasource._file_openers.keys()
        assert sorted(s for s in openers if s is not None) == sorted(_COMPRESSED_SUFFIXES)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_csv_rejects_a_pipe(self):
        # The header and the rows are read through two opens; a pipe would lose
        # the rows buffered by the first and silently start at a later tick.
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            fh.write("tick,value\n" + "".join(f"{t},1.0\n" for t in range(2000)))
        try:
            with pytest.raises(ValueError, match="regular file"):
                TimeSeries.from_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)


class TestTrapezoidIntegral:
    """``resilience._trapezoid``: the area under a curve between two indices."""

    def test_constant_series(self):
        assert _trapezoid(np.ones(11), 0, 10) == pytest.approx(10.0)

    def test_zero_series(self):
        assert _trapezoid(np.zeros(20), 3, 15) == 0.0

    def test_linear_ramp(self):
        # closed form: area of triangle, b=4, h=4 -> 8
        assert _trapezoid(np.arange(5.0), 0, 4) == pytest.approx(8.0)

    def test_zero_length_window(self):
        assert _trapezoid(np.array([5.0, 5.0]), 1, 1) == 0.0

    def test_window_outside_horizon(self):
        # Areas are only taken on the curves' ticks: the event score refuses
        # a span that leaves them.
        flat = [1.0] * 5
        with pytest.raises(ValueError, match="outside"):
            summary_metric(CurvePair(TimeSeries(flat), TimeSeries(flat)),
                           Milestones(t_i=0, t_f=0, t_r=5, window_start=0))
        with pytest.raises(ValueError, match="outside"):
            summary_metric(CurvePair(TimeSeries(flat, t0=10), TimeSeries(flat, t0=10)),
                           Milestones(t_i=0, t_f=0, t_r=3, window_start=0))

    @given(values=st.lists(finite, min_size=3, max_size=50), data=st.data())
    @settings(max_examples=200)
    def test_additive_over_adjacent_windows(self, values, data):
        values = np.asarray(values, dtype=np.float64)
        n = len(values) - 1
        b = data.draw(st.integers(min_value=0, max_value=n))
        a = data.draw(st.integers(min_value=0, max_value=b))
        c = data.draw(st.integers(min_value=b, max_value=n))
        whole = _trapezoid(values, a, c)
        split = _trapezoid(values, a, b) + _trapezoid(values, b, c)
        assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))

    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=30))
    def test_non_negative_integrand(self, values):
        assert _trapezoid(np.asarray(values, dtype=np.float64), 0, len(values) - 1) >= 0.0


def stacked(*rows) -> np.ndarray:
    """One indicator's episodes as the harness stacks them: one row per episode."""
    return stack_episodes([{"x": np.asarray(r, dtype=np.float64)} for r in rows])["x"]


class TestPointwiseMean:
    """The averaged curve is the mean over axis 0 of an (episodes, horizon) stack."""

    def test_two_constants(self):
        assert stacked([2.0] * 4, [4.0] * 4).mean(axis=0).tolist() == [3.0] * 4

    def test_single_series_identity(self):
        assert stacked([1.0, 5.0, 2.0]).mean(axis=0).tolist() == [1.0, 5.0, 2.0]

    def test_crossing_ramps(self):
        assert stacked([0, 1, 2], [2, 1, 0]).mean(axis=0).tolist() == [1.0, 1.0, 1.0]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            stacked()

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ValueError):
            stacked([1, 2], [1, 2, 3])

    @given(st.lists(st.lists(finite, min_size=5, max_size=5), min_size=1, max_size=6))
    def test_bounded_by_pointwise_extremes(self, rows):
        stack = stacked(*rows)
        mean = stack.mean(axis=0)
        assert np.all(mean >= stack.min(axis=0) - 1e-9)
        assert np.all(mean <= stack.max(axis=0) + 1e-9)

    def test_std_companion(self):
        assert stacked([0.0, 1.0], [2.0, 1.0]).std(axis=0).tolist() == [1.0, 0.0]


class TestGuardedRatio:
    """``resilience.guarded_ratio``, with its fixed EPS = 1e-9 and CAP = 2.0."""

    def test_ordinary_division(self):
        assert guarded_ratio(5, 10) == 0.5

    def test_both_vanishing(self):
        assert guarded_ratio(0, 0) == 1.0

    def test_capped_when_denominator_vanishes(self):
        assert guarded_ratio(3, 0) == 2.0

    @given(num=finite, den=finite)
    @settings(max_examples=500)
    def test_never_nan_or_inf(self, num, den):
        out = guarded_ratio(num, den)
        assert type(out) is float
        assert math.isfinite(out)

    @given(pairs=st.lists(st.tuples(ratio_operand, ratio_operand), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_array_matches_scalar_branches(self, pairs):
        num = np.array([n for n, _ in pairs])
        den = np.array([d for _, d in pairs])
        out = guarded_ratio(num, den)
        assert out.shape == num.shape
        expected = [scalar_guarded_ratio(n, d) for n, d in pairs]
        assert out.tolist() == expected
        assert [guarded_ratio(n, d) for n, d in pairs] == expected
