from __future__ import annotations

import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopres.harness import ScenarioConfig
from coopres.indicators import (
    INDICATOR_NAMES,
    compute_indicators,
    gini,
    stack_episodes,
)
from coopres.report import write_indicator_csv

from conftest import build_trace


def pairwise_gini(values):
    """Mean-absolute-difference form over all pairs: the reference for gini()."""
    x = np.asarray(values, dtype=np.float64)
    total = x.sum()
    if total == 0:
        return 0.0
    return np.abs(x[:, None] - x[None, :]).sum() / (2 * x.size * total)


class TestGini:
    def test_perfect_equality(self):
        assert gini([3, 3, 3, 3]) == 0.0

    def test_zero_total_convention(self):
        assert gini([0, 0, 0, 0]) == 0.0

    def test_one_agent_takes_all(self):
        # sum |xi - xj| = 80, 2 n^2 mu = 100
        assert gini([10, 0, 0, 0, 0]) == pytest.approx(0.8)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gini([1.0, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gini([])

    # Scaling a subnormal drops mantissa bits, so the scaled list is not
    # scale * values and the two indices can differ by more than 1e-12.
    @given(values=st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False),
                           min_size=1, max_size=20),
           scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=300)
    def test_scale_invariance_and_range(self, values, scale):
        g = gini(values)
        n = len(values)
        assert 0.0 <= g <= 1.0 - 1.0 / n + 1e-12
        scaled = gini([scale * v for v in values])
        assert abs(g - scaled) <= 1e-12

    @given(values=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_integer_inputs_match_pairwise_form_exactly(self, values):
        assert gini(values) == pairwise_gini(values)

    def test_rows_of_a_matrix(self):
        rows = np.array([[3, 3, 3], [0, 0, 0], [10, 0, 0], [1, 2, 3]])
        assert gini(rows).tolist() == [pairwise_gini(r) for r in rows]

    def test_tiny_float_total(self):
        # a floor on the total would score this far below its true 0.5
        assert gini([0.0, 2.2e-308]) == 0.5

    def test_equal_floats_never_negative(self):
        # unclamped, the rank sum of five 0.1s rounds to -5.6e-17
        assert gini([0.1] * 5) == 0.0


def curve(trace, name, h_max=100):
    """One indicator's curve of a trace, as ``compute_indicators`` gives it."""
    return compute_indicators(trace, (name,), h_max)[name]


class TestPerCapitaCurves:
    def test_apples_per_capita(self, flat_trace):
        assert curve(flat_trace, "apples_pc").tolist() == [6.0] * 20

    def test_zero_apples(self):
        trace = build_trace(np.zeros((4, 2)), np.zeros((4, 5)))
        assert curve(trace, "apples_pc").tolist() == [0.0] * 4

    def test_consumption_step(self):
        # one apple eaten at t=3: 30 -> 29 with N=5 steps 6.0 -> 5.8
        apples = [[30]] * 3 + [[29]] * 3
        consumed = np.zeros((6, 5), dtype=int)
        consumed[3:, 0] = 1
        assert (curve(build_trace(apples, consumed), "apples_pc").tolist()
                == [6.0, 6.0, 6.0, 5.8, 5.8, 5.8])

    def test_trees_per_capita(self):
        apples = np.tile([3, 1, 2, 5, 1, 4], (4, 1))
        trace = build_trace(apples, np.zeros((4, 5)))
        assert curve(trace, "trees_pc").tolist() == [1.2] * 4

    def test_all_trees_dead(self):
        trace = build_trace(np.zeros((4, 6)), np.zeros((4, 5)))
        assert curve(trace, "trees_pc").tolist() == [0.0] * 4

    def test_tree_death_step(self):
        h = 120
        apples = np.tile([2, 2, 2, 2, 2, 2], (h, 1))
        apples[100:, 0] = 0
        trees = curve(build_trace(apples, np.zeros((h, 5))), "trees_pc")
        assert trees[99] == pytest.approx(1.2)
        assert trees[100] == pytest.approx(1.0)

    def test_integer_recoverable(self):
        rng = np.random.default_rng(7)
        apples = rng.integers(0, 7, size=(50, 6))
        trace = build_trace(apples, np.zeros((50, 5)))
        back = curve(trace, "apples_pc") * 5
        assert np.array_equal(np.rint(back).astype(int), apples.sum(axis=1))


class TestGiniEquality:
    def test_equal_consumption(self):
        consumed = np.tile([4, 4, 4], (5, 1))
        trace = build_trace(np.ones((5, 1)), consumed)
        assert curve(trace, "gini_equality").tolist() == [1.0] * 5

    def test_no_consumption_yet(self):
        trace = build_trace(np.ones((3, 1)), np.zeros((3, 4)))
        assert curve(trace, "gini_equality").tolist() == [1.0] * 3

    def test_single_eater(self):
        consumed = np.zeros((2, 5), dtype=int)
        consumed[:, 0] = 10
        trace = build_trace(np.ones((2, 1)), consumed)
        assert curve(trace, "gini_equality").tolist() == pytest.approx([0.2, 0.2])


class TestHungerIndex:
    def test_everyone_just_ate(self):
        consumed = np.tile(np.arange(3)[:, None], (1, 4))  # everyone eats every tick
        trace = build_trace(np.ones((3, 1)), consumed)
        assert curve(trace, "hunger_index", h_max=100).tolist() == [1.0] * 3

    def test_starvation_saturates(self):
        trace = build_trace(np.ones((5, 1)), np.zeros((5, 4)))
        assert curve(trace, "hunger_index", h_max=2).tolist() == [1.0, 0.5, 0.0, 0.0, 0.0]

    def test_mixed_hunger(self):
        consumed = np.array([[0, 0], [1, 0], [1, 0]])  # agent 0 eats at tick 1
        trace = build_trace(np.ones((3, 1)), consumed)
        assert trace.hunger_ticks.tolist() == [[0, 0], [0, 1], [1, 2]]
        assert curve(trace, "hunger_index", h_max=2).tolist() == [1.0, 0.75, 0.25]

    def test_hunger_is_derived_from_consumption(self):
        consumed = np.array([[2], [2], [3], [3], [3], [5], [5]])
        trace = build_trace(np.ones((7, 1)), consumed)
        # A count at tick 0 is no meal: hunger counts from tick 0.
        assert trace.hunger_ticks[:, 0].tolist() == [0, 1, 0, 1, 2, 0, 1]

    @given(meals=st.lists(st.lists(st.booleans(), min_size=3, max_size=3), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_derivation_matches_a_tick_by_tick_counter(self, meals):
        ate = np.array(meals, dtype=bool).reshape(-1, 3)
        ate[:1] = False  # no meal comes before tick 0
        counter, expected = np.zeros(3, dtype=np.int64), []
        for t, row in enumerate(ate):
            if t:
                counter = np.where(row, 0, counter + 1)
            expected.append(counter.tolist())
        trace = build_trace(np.ones((len(ate), 1)), np.cumsum(ate, axis=0))
        assert trace.hunger_ticks.tolist() == expected

    def test_h_max_validation(self):
        trace = build_trace(np.ones((2, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="h_max"):
            compute_indicators(trace, h_max=0)

    def test_full_at_start_when_fed(self):
        trace = build_trace(np.ones((5, 1)), np.zeros((5, 3)))
        assert compute_indicators(trace)["hunger_index"][0] == 1.0


class TestTraceValidation:
    def test_valid_trace_passes(self, flat_trace):
        flat_trace.validate()

    def test_consumption_must_not_decrease(self):
        consumed = np.array([[2], [1]])
        trace = build_trace(np.ones((2, 1)), consumed)
        with pytest.raises(ValueError, match="non-decreasing"):
            trace.validate()

    def test_trees_must_not_resurrect(self):
        apples = np.array([[0], [1]])
        trace = build_trace(apples, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="non-increasing"):
            trace.validate()

    # No welfare agent, rows too narrow for the agents' columns and the
    # ledgers, and a bot record missing.
    BAD_SHAPES = {
        "n_agents": lambda t: {"n_agents": 0},
        "rows": lambda t: {"rows": t.rows[:, 3:]},
        "bot_records": lambda t: {"bot_records": [[]] * (t.horizon - 1)},
    }

    @pytest.mark.parametrize("name", sorted(BAD_SHAPES))
    def test_every_array_shape_is_checked(self, name):
        trace = build_trace(np.ones((4, 2)), np.zeros((4, 3)), bot_records=[[]] * 4)
        trace.validate()
        with pytest.raises(ValueError, match=name):
            replace(trace, **self.BAD_SHAPES[name](trace)).validate()

    def test_every_field_is_a_view_of_the_rows(self):
        trace = build_trace(np.ones((4, 2)), np.arange(12).reshape(4, 3))
        for name in ("apples_per_tree", "consumed", "positions",
                     "ledger_consumed", "ledger_regrown", "ledger_event_vanished"):
            assert np.shares_memory(getattr(trace, name), trace.rows), name
        # The one derived field: every agent eats on every tick.
        assert not np.shares_memory(trace.hunger_ticks, trace.rows)
        assert trace.hunger_ticks.tolist() == [[0] * 3] * 4
        assert trace.consumed.tolist() == np.arange(12).reshape(4, 3).tolist()
        assert trace.positions.shape == (4, 3, 2)


class TestComputeIndicators:
    def test_single_episode_identity(self, flat_trace):
        curves = compute_indicators(flat_trace)
        stacked = stack_episodes([curves])
        for name, row in curves.items():
            assert stacked[name].shape == (1, flat_trace.horizon)
            assert stacked[name].mean(axis=0).tolist() == row.tolist()

    def test_identical_episodes_average_to_same(self, flat_trace):
        stacked = stack_episodes([compute_indicators(flat_trace)] * 5)
        single = compute_indicators(flat_trace)
        for name, curves in stacked.items():
            assert curves.shape == (5, flat_trace.horizon)
            assert np.allclose(curves.mean(axis=0), single[name])

    def test_mean_of_two_levels(self):
        t4 = build_trace(np.full((6, 1), 20), np.zeros((6, 5)))
        t6 = build_trace(np.full((6, 1), 30), np.zeros((6, 5)))
        stacked = stack_episodes([compute_indicators(t4), compute_indicators(t6)])
        assert stacked["apples_pc"].mean(axis=0).tolist() == [5.0] * 6

    def test_constant_world_gives_constant_resource_curves(self, flat_trace):
        # no consumption and no regrowth: the resource curves stay flat
        curves = compute_indicators(flat_trace)
        for name in ("apples_pc", "trees_pc"):
            assert np.all(curves[name] == curves[name][0])

    # CurvePair refuses a negative curve, so scoring relies on these ranges.
    @given(data=st.data(), h=st.integers(1, 30), n=st.integers(1, 6),
           n_trees=st.integers(0, 4), h_max=st.integers(1, 200))
    @settings(max_examples=150, deadline=None)
    def test_ranges_hold(self, data, h, n, n_trees, h_max):
        apples = np.sort(data.draw(st.lists(
            st.lists(st.integers(0, 9), min_size=n_trees, max_size=n_trees),
            min_size=h, max_size=h)), axis=0)[::-1]
        meals = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                   min_size=h, max_size=h))
        trace = build_trace(apples, np.cumsum(meals, axis=0))
        trace.validate()
        curves = compute_indicators(trace, h_max=h_max)
        for name, values in curves.items():
            assert np.all(np.isfinite(values) & (values >= 0)), name
        for name in ("gini_equality", "hunger_index"):
            assert np.all(curves[name] <= 1), name

    def test_subset_selection(self, flat_trace):
        curves = compute_indicators(flat_trace, ("apples_pc",))
        assert list(curves) == ["apples_pc"]
        assert curves["apples_pc"].shape == (flat_trace.horizon,)
        assert curves["apples_pc"].dtype == np.float64

    def test_canonical_order_whatever_the_selection_order(self, flat_trace):
        per_episode = [compute_indicators(flat_trace, ("hunger_index", "apples_pc"))]
        assert list(per_episode[0]) == ["apples_pc", "hunger_index"]
        assert list(stack_episodes(per_episode)) == ["apples_pc", "hunger_index"]
        all_names = compute_indicators(flat_trace)
        assert tuple(all_names) == INDICATOR_NAMES

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_episodes([])

    def test_mismatched_horizons_rejected(self, flat_trace):
        short = build_trace(np.ones((3, 2)), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            stack_episodes([compute_indicators(flat_trace), compute_indicators(short)])

    def test_unknown_indicator_rejected(self):
        # Names are checked where a scenario is validated, before any episode.
        with pytest.raises(ValueError):
            ScenarioConfig(indicators=("apples_pc", "wealth")).validate()


class TestIndicatorCsv:
    def test_round_trip(self, tmp_path):
        curves = {"apples_pc": np.array([6.0, 5.8, 1 / 3]),
                  "hunger_index": np.array([1.0, 0.1 + 0.2, 0.0])}
        path = tmp_path / "indicators.csv"
        write_indicator_csv(curves, path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["tick", "apples_pc", "hunger_index"]
            rows = list(reader)
        assert [int(row["tick"]) for row in rows] == [0, 1, 2]
        for name, curve in curves.items():
            assert [float(row[name]) for row in rows] == curve.tolist()

    @pytest.mark.parametrize("names", [["apples_pc"], list(INDICATOR_NAMES)])
    def test_bytes_equal_csv_writer(self, names, tmp_path):
        awkward = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, 6.0]
        curves = {name: np.roll(awkward, k) for k, name in enumerate(names)}
        path = tmp_path / "indicators.csv"
        write_indicator_csv(curves, path)
        assert path.read_bytes() == csv_writer_bytes(curves)

    # Values repeat within and across columns, as piecewise-constant curves
    # do; the pool always holds both zeros, subnormals and 17-digit values.
    @given(data=st.data(),
           drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
           n_columns=st.integers(1, len(INDICATOR_NAMES)), h=st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_csv_writer_on_repeated_values(self, tmp_path_factory, data, drawn,
                                                       n_columns, h):
        pool = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1 / 3,
                1.7976931348623157e308, *drawn]
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=h, max_size=h)
        curves = {name: np.array([pool[i] for i in data.draw(picks)], dtype=np.float64)
                  for name in INDICATOR_NAMES[:n_columns]}
        path = tmp_path_factory.getbasetemp() / "repeated.csv"
        write_indicator_csv(curves, path)
        assert path.read_bytes() == csv_writer_bytes(curves)


def csv_writer_bytes(curves):
    """The file ``csv.writer`` writes, each value by its ``repr``: the reference for the writer."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["tick", *curves])
    writer.writerows([i, *(repr(v) for v in row)]
                     for i, row in enumerate(zip(*(c.tolist() for c in curves.values()))))
    return expected.getvalue().encode()
