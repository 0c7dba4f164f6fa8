from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopres.disruptions import apply_apple_vanish
from coopres.world import (
    ACTIONS,
    VIEW_RADIUS,
    Action,
    AgentState,
    Orientation,
    PolicyKind,
    build_view,
    line_of_sight,
    load_default_map,
    load_map,
    make_world,
    policy_action,
    regrow,
    rotate,
    step_world,
    write_trace_jsonl,
)

NO_REGROWTH = (0.0,)


def corridor_map():
    # one open row with an apple anchor on the left and spawns mid-row
    return load_map("################\n"
                    "#A.....S.S.....#\n"
                    "################")


def open_map(side=9):
    rows = ["#" * side]
    rows += ["#" + "." * (side - 2) + "#" for _ in range(side - 2)]
    rows += ["#" * side]
    text = "\n".join(rows)
    text = text.replace(".", "S", 1)  # one spawn in the first open cell
    return load_map(text)


class TestLoadMap:
    def test_empty_floor(self):
        grid = load_map("...\n...\n...")
        assert (grid.width, grid.height) == (3, 3)
        assert grid.trees == [] and grid.spawn_points == []

    def test_single_apple_cell(self):
        grid = load_map("#####\n#.A.#\n#####")
        assert len(grid.trees) == 1
        assert grid.trees[0].apple_cells == ((1, 2),)

    def test_wall_separated_clusters_are_two_trees(self):
        grid = load_map("AA#AA")
        assert len(grid.trees) == 2
        assert {t.apple_cells for t in grid.trees} == {((0, 0), (0, 1)), ((0, 3), (0, 4))}

    def test_diagonal_cells_are_separate_trees(self):
        grid = load_map("A.\n.A")
        assert len(grid.trees) == 2

    def test_digit_labels_group_disconnected_cells(self):
        grid = load_map("1.1\n...\n2.2")
        assert len(grid.trees) == 2
        assert grid.trees[0].apple_cells == ((0, 0), (0, 2))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            load_map("###\n##\n###")

    def test_unknown_glyph_rejected(self):
        with pytest.raises(ValueError, match="row 1, col 1"):
            load_map("###\n#X#\n###")

    def test_default_map(self):
        grid = load_default_map()
        assert (grid.width, grid.height) == (24, 18)
        assert len(grid.trees) == 6
        assert all(len(t.apple_cells) == 6 for t in grid.trees)
        assert len(grid.spawn_points) == 8
        assert grid.respawn_zone

    def test_respawn_zone_is_far_from_apples(self):
        grid = corridor_map()
        # distance to the apple at (1,1) is maximised at the right end
        assert grid.respawn_zone == [(1, 14)]


class TestDistances:
    def test_distance_respects_walls(self):
        grid = load_map("#####\n#...#\n###.#\n#...#\n#####")
        assert grid.distance((1, 1), (1, 3)) == 2
        assert grid.distance((1, 1), (3, 1)) == 6  # around the wall stub

    def test_unreachable_cells(self):
        grid = load_map("#####\n#.#.#\n#####")
        assert grid.distance((1, 1), (1, 3)) > 10 ** 6

    def test_line_of_sight_blocked_by_wall(self):
        grid = load_map("#####\n#.#.#\n#####")
        assert not line_of_sight(grid, (1, 1), (1, 3))
        open_grid = load_map("#####\n#...#\n#####")
        assert line_of_sight(open_grid, (1, 1), (1, 3))


class TestStepWorld:
    def test_move_consumes_adjacent_apple(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        agent = state.agents[0]
        agent.position = (1, 2)
        state.occupied = {(1, 2): 0}
        step_world(state, {0: Action.MOVE_LEFT}, random.Random(0))
        assert agent.position == (1, 1)
        assert agent.cumulative_consumed == 1
        assert agent.ticks_since_meal == 0
        assert state.live_apple_total() == 0
        assert state.total_consumed == 1

    def test_wall_blocks_move(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 7)
        state.occupied = {(1, 7): 0}
        step_world(state, {0: Action.MOVE_UP}, random.Random(0))
        assert state.agents[0].position == (1, 7)

    def test_occupied_cell_blocks_move(self):
        grid = corridor_map()
        state = make_world(grid, 2, NO_REGROWTH)
        a, b = state.agents[0], state.agents[1]
        assert (a.position, b.position) == ((1, 7), (1, 9))
        a.position = (1, 8)
        state.occupied = {(1, 8): 0, (1, 9): 1}
        step_world(state, {0: Action.MOVE_RIGHT, 1: Action.NOOP}, random.Random(0))
        assert a.position == (1, 8)

    def test_rotation(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        step_world(state, {0: Action.ROTATE_RIGHT}, random.Random(0))
        assert state.agents[0].orientation is Orientation.E
        step_world(state, {0: Action.ROTATE_LEFT}, random.Random(0))
        assert state.agents[0].orientation is Orientation.N

    def test_rotate_cycle(self):
        o = Orientation.N
        for expected in (Orientation.E, Orientation.S, Orientation.W, Orientation.N):
            o = rotate(o, clockwise=True)
            assert o is expected

    def test_zap_relocates_first_agent_in_beam(self):
        grid = corridor_map()
        state = make_world(grid, 2, NO_REGROWTH)
        zapper, target = state.agents[0], state.agents[1]
        zapper.orientation = Orientation.E  # target sits 2 cells east
        step_world(state, {0: Action.ZAP, 1: Action.NOOP}, random.Random(0))
        assert target.position == (1, 14)  # the far-from-apples zone
        assert zapper.position == (1, 7)
        assert zapper.zap_cooldown == 5
        assert state.occupied == {(1, 7): 0, (1, 14): 1}

    def test_zap_cooldown_blocks_refire(self):
        grid = corridor_map()
        state = make_world(grid, 2, NO_REGROWTH)
        state.agents[0].orientation = Orientation.E
        step_world(state, {0: Action.ZAP, 1: Action.NOOP}, random.Random(0))
        state.agents[1].position = (1, 9)
        state.occupied = {(1, 7): 0, (1, 9): 1}
        step_world(state, {0: Action.ZAP, 1: Action.NOOP}, random.Random(0))
        assert state.agents[1].position == (1, 9)  # cooldown swallowed the zap

    def test_zap_range_is_three_cells(self):
        grid = corridor_map()
        state = make_world(grid, 2, NO_REGROWTH)
        state.agents[1].position = (1, 11)  # 4 cells east of the zapper
        state.occupied = {(1, 7): 0, (1, 11): 1}
        state.agents[0].orientation = Orientation.E
        step_world(state, {0: Action.ZAP, 1: Action.NOOP}, random.Random(0))
        assert state.agents[1].position == (1, 11)

    def test_unknown_agent_action_rejected(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        with pytest.raises(ValueError, match="unknown agent"):
            step_world(state, {0: Action.NOOP, 9: Action.NOOP}, random.Random(0))

    def test_missing_action_rejected(self):
        grid = corridor_map()
        state = make_world(grid, 2, NO_REGROWTH)
        with pytest.raises(ValueError, match="missing actions"):
            step_world(state, {0: Action.NOOP}, random.Random(0))

    def test_tick_increments(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        for expected in (1, 2, 3):
            step_world(state, {0: Action.NOOP}, random.Random(0))
            assert state.tick == expected


class TestRegrow:
    def _one_tree_state(self, table, live_cells=3):
        grid = load_map("########\n#AAAAAA#\n#S.....#\n########")
        state = make_world(grid, 0, table)
        tree = state.trees[0]
        for i in range(live_cells, 6):
            state.remove_apple(tree.apple_cells[i])
        return state, tree

    def test_vanished_tree_never_regrows(self):
        state, tree = self._one_tree_state((0.0, 1.0, 1.0, 1.0), live_cells=0)
        rng = random.Random(0)
        for _ in range(50):
            regrow(state, rng)
        assert tree.vanished
        assert tree.live_count() == 0

    def test_zero_probability_table_is_inert(self):
        state, tree = self._one_tree_state((0.0, 0.0, 0.0, 0.0), live_cells=3)
        before = dict(state.live_apples)
        regrow(state, random.Random(0))
        assert state.live_apples == before
        assert state.total_regrown == 0

    def test_revival_frequency_matches_table(self):
        # 3 live apples -> per-dead-cell revival probability table[3] = 0.025
        table = (0.0, 0.005, 0.01, 0.025)
        rng = random.Random(123)
        revived = 0
        trials = 10_000
        state, tree = self._one_tree_state(table, live_cells=3)
        dead_cells = [i for i in range(6) if not tree.alive[i]]
        for _ in range(trials):
            for i in dead_cells:
                if tree.alive[i]:
                    state.remove_apple(tree.apple_cells[i])
            state.total_regrown = 0
            regrow(state, rng)
            revived += state.total_regrown
        n_draws = trials * len(dead_cells)
        expected = n_draws * 0.025
        sigma = (n_draws * 0.025 * 0.975) ** 0.5
        assert abs(revived - expected) <= 3 * sigma

    def test_regrowth_skips_occupied_cells(self):
        state, tree = self._one_tree_state((1.0, 1.0, 1.0, 1.0), live_cells=3)
        dead_cell = tree.apple_cells[4]
        state.occupied[dead_cell] = 99
        regrow(state, random.Random(0))
        assert dead_cell not in state.live_apples
        assert tree.live_count() == 5  # the other two dead cells revived


class TestPolicies:
    def test_greedy_steps_onto_adjacent_apple(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 2)
        state.occupied = {(1, 2): 0}
        view = build_view(state, 0)
        action = policy_action(PolicyKind.GREEDY, view, random.Random(0))
        assert action is Action.MOVE_LEFT

    def test_sustainable_never_raids_depleted_tree(self):
        grid = corridor_map()  # single tree with a single apple
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 2)
        state.occupied = {(1, 2): 0}
        view = build_view(state, 0)
        assert view.apples == {(1, 1): 1}
        rng = random.Random(0)
        for _ in range(200):
            action = policy_action(PolicyKind.SUSTAINABLE, view, rng)
            assert action in (Action.NOOP, Action.MOVE_RIGHT)  # never onto the apple

    def test_sustainable_harvests_healthy_tree(self):
        grid = load_map("########\n#AAA...#\n#AAAS..#\n########")
        state = make_world(grid, 1, NO_REGROWTH)
        view = build_view(state, 0)
        action = policy_action(PolicyKind.SUSTAINABLE, view, random.Random(0))
        assert action is Action.MOVE_LEFT

    def test_random_policy_is_uniform(self):
        grid = open_map()
        state = make_world(grid, 1, NO_REGROWTH)
        view = build_view(state, 0)
        rng = random.Random(99)
        counts = Counter(policy_action(PolicyKind.RANDOM, view, rng)
                         for _ in range(10_000))
        expected = 10_000 / len(ACTIONS)
        sigma = (10_000 * (1 / 8) * (7 / 8)) ** 0.5
        for action in ACTIONS:
            assert abs(counts[action] - expected) <= 3 * sigma

    def test_bot_heads_for_known_tree_sites(self):
        # apple is out of view (distance > 5) but the bot still closes in
        state = make_world(corridor_map(), 1, NO_REGROWTH)
        state.agents[0].position = (1, 9)
        state.occupied = {(1, 9): 0}
        view = build_view(state, 0)
        assert view.apples == {}
        action = policy_action(PolicyKind.UNSUSTAINABLE_BOT, view, random.Random(0))
        assert action is Action.MOVE_LEFT

    def test_view_radius_and_line_of_sight(self):
        grid = load_map("#######\n#A..#A#\n#..S..#\n#######")
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 2)  # in line with both apples
        state.occupied = {(1, 2): 0}
        view = build_view(state, 0)
        # (1,1) is adjacent; (1,5) sits behind the wall at (1,4)
        assert (1, 1) in view.apples
        assert (1, 5) not in view.apples
        assert view.tree_stocks == (1, 1)

    def test_view_radius_limit(self):
        state = make_world(corridor_map(), 1, NO_REGROWTH)
        assert build_view(state, 0).apples == {}  # apple is 6 cells away
        state.agents[0].position = (1, 6)
        state.occupied = {(1, 6): 0}
        assert build_view(state, 0).apples == {(1, 1): 1}


class TestWorldInvariants:
    def _run_ticks(self, state, policies, rng, ticks):
        livestream = []
        for _ in range(ticks):
            actions = {}
            for agent_id in sorted(state.agents):
                view = build_view(state, agent_id)
                actions[agent_id] = policy_action(policies[agent_id], view, rng)
            before = state.live_apple_total()
            consumed0, regrown0 = state.total_consumed, state.total_regrown
            step_world(state, actions, rng)
            delta = state.live_apple_total() - before
            livestream.append(
                delta == (state.total_regrown - regrown0) - (state.total_consumed - consumed0))
        return livestream

    def test_conservation_ledger(self):
        grid = load_default_map()
        state = make_world(grid, 5, (0.0, 0.1, 0.2, 0.3))
        policies = {i: PolicyKind.GREEDY for i in range(5)}
        checks = self._run_ticks(state, policies, random.Random(7), 300)
        assert all(checks)

    def test_no_agents_means_non_decreasing_apples(self):
        grid = load_default_map()
        state = make_world(grid, 0, (0.0, 0.3, 0.3, 0.3))
        # knock out a few apples so regrowth has room
        tree = state.trees[0]
        for i in range(3):
            state.remove_apple(tree.apple_cells[i])
        rng = random.Random(3)
        last = state.live_apple_total()
        for _ in range(200):
            step_world(state, {}, rng)
            now = state.live_apple_total()
            assert now >= last
            last = now

    def test_tree_death_is_permanent(self):
        grid = corridor_map()
        state = make_world(grid, 0, (0.5, 0.5))
        tree = state.trees[0]
        state.remove_apple(tree.apple_cells[0])
        rng = random.Random(1)
        for _ in range(100):
            regrow(state, rng)
        assert tree.vanished and tree.live_count() == 0

    def test_agents_never_share_a_cell(self):
        grid = load_default_map()
        state = make_world(grid, 8, (0.0, 0.1))
        policies = {i: PolicyKind.RANDOM for i in range(8)}
        rng = random.Random(11)
        for _ in range(200):
            actions = {i: policy_action(policies[i], build_view(state, i), rng)
                       for i in sorted(state.agents)}
            step_world(state, actions, rng)
            positions = [a.position for a in state.agents.values()]
            assert len(set(positions)) == len(positions)
            assert state.occupied == {a.position: a.id for a in state.agents.values()}

    def test_same_seed_same_trajectory(self):
        def run():
            state = make_world(load_default_map(), 5, (0.0, 0.005, 0.01, 0.025))
            rng = random.Random(21)
            history = []
            for _ in range(150):
                actions = {i: policy_action(PolicyKind.SUSTAINABLE, build_view(state, i), rng)
                           for i in sorted(state.agents)}
                step_world(state, actions, rng)
                history.append((tuple(sorted(state.occupied)),
                                tuple(sorted(state.live_apples))))
            return history

        assert run() == run()

    def test_copy_steps_like_the_original_and_shares_nothing_mutable(self):
        state = make_world(load_default_map(), 5, (0.0, 0.05, 0.1, 0.2))
        rng = random.Random(8)
        # Sustainable foragers keep every tree alive, so the stock keeps changing.
        self._run_ticks(state, {i: PolicyKind.SUSTAINABLE for i in range(5)}, rng, 40)
        twin = state.copy()
        assert twin.grid is state.grid

        def run(world, rng_state):
            stream = random.Random()
            stream.setstate(rng_state)
            history = []
            for _ in range(120):
                actions = {i: policy_action(PolicyKind.SUSTAINABLE, build_view(world, i),
                                            stream)
                           for i in sorted(world.agents)}
                step_world(world, actions, stream)
                history.append((dict(world.occupied), dict(world.live_apples),
                                [list(t.alive) for t in world.trees], world.total_consumed))
            return history

        # The twin runs first: any state it shared would change the original's run.
        rng_state = rng.getstate()
        assert run(twin, rng_state) == run(state, rng_state)


class TestTraceExport:
    def test_jsonl_round_trip(self, tmp_path):
        from coopres.harness import ScenarioConfig, run_episode

        config = ScenarioConfig(episode_length=40, episodes=1)
        trace = run_episode(config, seed=3, with_events=False)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 40
        first = json.loads(lines[0])
        assert first["tick"] == 0
        assert first["apples_per_tree"] == [6] * 6
        assert set(first["per_agent"]) == {"0", "1", "2", "3", "4"}
        assert all(rec["consumed"] == 0 for rec in first["per_agent"].values())

    def test_jsonl_requires_positions(self, flat_trace):
        with pytest.raises(ValueError, match="positions"):
            write_trace_jsonl(flat_trace, "/tmp/never-written.jsonl")


WALLED_MAP = load_map("##############\n"
                      "#AA..#...11..#\n"
                      "#AA..#.......#\n"
                      "#....###..#..#\n"
                      "#.S.......#22#\n"
                      "#..#..A...#22#\n"
                      "#..#......S..#\n"
                      "#333...##....#\n"
                      "##############")


def scanned_view(state, agent_id, radius=VIEW_RADIUS):
    """The view as a scan over every live apple; the reference for ``build_view``."""
    agent = state.agents[agent_id]
    r0, c0 = agent.position
    live_counts = [sum(t.alive) for t in state.trees]
    apples = {}
    for cell, tree_idx in state.live_apples.items():
        if (abs(cell[0] - r0) <= radius and abs(cell[1] - c0) <= radius
                and line_of_sight(state.grid, agent.position, cell)):
            apples[cell] = live_counts[tree_idx]
    occupied = frozenset(
        cell for cell, aid in state.occupied.items()
        if aid != agent_id and abs(cell[0] - r0) <= radius and abs(cell[1] - c0) <= radius)
    return apples, occupied, tuple(live_counts)


def assert_stocks_consistent(state):
    for idx, tree in enumerate(state.trees):
        entries = sum(1 for i in state.live_apples.values() if i == idx)
        assert tree.live_count() == sum(tree.alive) == entries
        assert [cell in state.live_apples for cell in tree.apple_cells] == tree.alive


class TestVisibilityTable:
    @pytest.mark.parametrize("grid", [load_default_map(), WALLED_MAP],
                             ids=["default", "walled"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_view_equals_scan_over_live_apples(self, grid, data):
        state = make_world(grid, 0, NO_REGROWTH)
        apple_cells = sorted(grid.apple_slots)
        for cell in data.draw(st.sets(st.sampled_from(apple_cells))):
            state.remove_apple(cell)
        floor = [c for c in grid.floor if c not in state.live_apples]
        positions = data.draw(st.lists(st.sampled_from(floor), min_size=1, max_size=6,
                                       unique=True))
        for i, pos in enumerate(positions):
            state.agents[i] = AgentState(id=i, position=pos)
            state.occupied[pos] = i
        for i in state.agents:
            view = build_view(state, i)
            assert (view.apples, view.occupied, view.tree_stocks) == scanned_view(state, i)

    def test_line_of_sight_runs_once_per_cell_pair(self, monkeypatch):
        import coopres.world as world

        calls = Counter()

        def counted(grid, a, b):
            calls[a, b] += 1
            return line_of_sight(grid, a, b)

        monkeypatch.setattr(world, "line_of_sight", counted)
        grid = load_map(world.DEFAULT_MAP)
        state = make_world(grid, 5, NO_REGROWTH)
        for _ in range(3):
            for i in state.agents:
                build_view(state, i)
        assert calls and set(calls.values()) == {1}


class TestTreeStock:
    def test_revive_of_a_live_apple_rejected(self):
        state = make_world(corridor_map(), 0, NO_REGROWTH)
        with pytest.raises(ValueError, match="already bears"):
            state.revive_apple((1, 1))

    @given(seed=st.integers(0, 2 ** 16),
           ops=st.lists(st.sampled_from(["step", "regrow", "vanish", "copy"]), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_live_count_follows_every_mutation(self, seed, ops):
        state = make_world(load_default_map(), 5, (0.0, 0.3, 0.3, 0.3))
        rng = random.Random(seed)
        policies = (PolicyKind.GREEDY, PolicyKind.RANDOM) * 3
        states = [state]
        for op in ops:
            if op == "step":
                actions = {i: policy_action(policies[i], build_view(state, i), rng)
                           for i in sorted(state.agents)}
                step_world(state, actions, rng)
            elif op == "regrow":
                regrow(state, rng)
            elif op == "vanish":
                apply_apple_vanish(state, rng.random(), rng)
            else:
                state = state.copy()
                states.append(state)
            assert_stocks_consistent(state)
        # A copy that shared trees with its original would break the original's counts.
        for world in states:
            assert_stocks_consistent(world)
