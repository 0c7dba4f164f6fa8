from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coopres.disruptions import EventEngine, apply_apple_vanish, parse_schedule
from coopres.indicators import EpisodeTrace
from coopres.world import (
    ACTIONS,
    BLOCK_TICKS,
    DEFAULT_MAP,
    UNREACHABLE,
    VIEW_RADIUS,
    ZAP_COOLDOWN,
    Action,
    AgentState,
    Orientation,
    PolicyKind,
    build_view,
    line_of_sight,
    load_map,
    make_world,
    policy_action,
    regrow,
    rotate,
    shuffle_order,
    step_world,
    wander,
    write_trace_jsonl,
)

NO_REGROWTH = (0.0,)


def stocks(state):
    """The tick's tree stocks, as ``run_episode`` passes them to ``build_view``."""
    return tuple(state.stock)


def decide(policy, state, agent_id, rng):
    """One decision, made as ``run_episode`` makes it."""
    return policy_action(policy, state, agent_id, build_view(state, agent_id, stocks(state)), rng)


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
        assert grid.trees[0] == ((1, 2),)

    def test_wall_separated_clusters_are_two_trees(self):
        grid = load_map("AA#AA")
        assert len(grid.trees) == 2
        assert set(grid.trees) == {((0, 0), (0, 1)), ((0, 3), (0, 4))}

    def test_diagonal_cells_are_separate_trees(self):
        grid = load_map("A.\n.A")
        assert len(grid.trees) == 2

    def test_digit_labels_group_disconnected_cells(self):
        grid = load_map("1.1\n...\n2.2")
        assert len(grid.trees) == 2
        assert grid.trees[0] == ((0, 0), (0, 2))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            load_map("###\n##\n###")

    def test_unknown_glyph_rejected(self):
        # Tree labels are ASCII 1-9: a Unicode digit such as '²' once loaded as a tree.
        for glyph in "X²":
            with pytest.raises(ValueError, match=f"glyph '{glyph}' at row 1, col 1"):
                load_map(f"###\n#{glyph}#\n###")

    def test_default_map(self):
        grid = load_map(DEFAULT_MAP)
        assert (grid.width, grid.height) == (24, 18)
        assert len(grid.trees) == 6
        assert all(len(cells) == 6 for cells in grid.trees)
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


class TestIsWall:
    @pytest.mark.parametrize("text", [DEFAULT_MAP, "A.#\n.S.\n#.."], ids=["default", "borderless"])
    def test_off_the_map_or_hash(self, text):
        rows = text.splitlines()
        grid = load_map(text)
        for r in range(-1, grid.height + 1):
            for c in range(-1, grid.width + 1):
                on_map = 0 <= r < grid.height and 0 <= c < grid.width
                assert grid.is_wall((r, c)) is (not on_map or rows[r][c] == "#"), (r, c)
        # moves lists the open cells in row-major order
        assert list(grid.moves) == [(r, c) for r, row in enumerate(rows)
                                    for c, ch in enumerate(row) if ch != "#"]


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
        assert len(state.live_apples) == 0
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

    @pytest.mark.parametrize("cooling", [0, 3])
    def test_nobody_acting_steps_like_every_agent_noop(self, cooling):
        state = make_world(load_map(DEFAULT_MAP), 5, (0.0, 0.3, 0.3, 0.3))
        for cell in sorted(state.live_apples)[::3]:  # dead cells draw to regrow
            state.remove_apple(cell)
        state.agents[2].zap_cooldown = cooling
        twin, rng, twin_rng = state.copy(), random.Random(5), random.Random(5)
        for _ in range(4):
            step_world(state, {}, rng)
            step_world(twin, dict.fromkeys(twin.agents, Action.NOOP), twin_rng)
        assert rng.getstate() == twin_rng.getstate()
        assert [vars(a) for a in state.agents.values()] == [vars(a) for a in twin.agents.values()]
        assert (state.live_apples, state.total_regrown) == (twin.live_apples, twin.total_regrown)
        assert state.total_regrown > 0

    @given(n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_shuffle_order_draws_as_random_shuffle(self, n, seed):
        expected, rng = list(range(n)), random.Random(seed)
        rng.shuffle(expected)
        order, own, bits_only = list(range(n)), random.Random(seed), random.Random(seed)
        shuffle_order(own, n, order)
        shuffle_order(bits_only, n)
        assert order == expected
        assert own.getstate() == rng.getstate() == bits_only.getstate()

    @pytest.mark.parametrize("seed", range(3))
    def test_absent_agents_step_like_noop(self, seed):
        state = make_world(load_map(DEFAULT_MAP), 6, (0.0, 0.3, 0.3, 0.3))
        for cell in sorted(state.live_apples)[::3]:  # dead cells draw to regrow
            state.remove_apple(cell)
        twin, rng, twin_rng = state.copy(), random.Random(seed), random.Random(seed)
        pick = random.Random(seed + 100)
        for _ in range(40):
            # About 40% of the agents are named, some of them with NOOP.
            actions = {i: pick.choice(ACTIONS) for i in sorted(state.agents)
                       if pick.random() < 0.4}
            step_world(state, actions, rng)
            step_world(twin, {i: actions.get(i, Action.NOOP) for i in twin.agents}, twin_rng)
            assert rng.getstate() == twin_rng.getstate()
            assert [vars(a) for a in state.agents.values()] == [
                vars(a) for a in twin.agents.values()]
            assert (state.occupied, state.live_apples, state.stock) == (
                twin.occupied, twin.live_apples, twin.stock)
            assert (state.total_consumed, state.total_regrown) == (
                twin.total_consumed, twin.total_regrown)


class TestRegrow:
    def _one_tree_state(self, table, live_cells=3):
        grid = load_map("########\n#AAAAAA#\n#S.....#\n########")
        state = make_world(grid, 0, table)
        cells = grid.trees[0]
        for i in range(live_cells, 6):
            state.remove_apple(cells[i])
        return state, cells

    def test_vanished_tree_never_regrows(self):
        state, _ = self._one_tree_state((0.0, 1.0, 1.0, 1.0), live_cells=0)
        rng = random.Random(0)
        for _ in range(50):
            regrow(state, rng)
        assert state.stock == [0]
        assert state.live_apples == {}

    def test_tree_without_stock_draws_nothing(self):
        # Why a stock of 0 needs no flag of its own: neither regrowth nor a
        # vanish draws for the tree, so the tree stays dead and the stream stays put.
        state, _ = self._one_tree_state((1.0, 1.0, 1.0, 1.0), live_cells=0)
        rng = random.Random(4)
        before = rng.getstate()
        for _ in range(3):
            regrow(state, rng)
            apply_apple_vanish(state, 1.0, rng)
        assert rng.getstate() == before
        assert state.stock == [0]
        assert state.total_regrown == state.total_event_vanished == 0

    def test_zero_probability_table_is_inert(self):
        state, _ = self._one_tree_state((0.0, 0.0, 0.0, 0.0), live_cells=3)
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
        state, cells = self._one_tree_state(table, live_cells=3)
        dead_cells = [cell for cell in cells if cell not in state.live_apples]
        for _ in range(trials):
            for cell in dead_cells:
                if cell in state.live_apples:
                    state.remove_apple(cell)
            state.total_regrown = 0
            regrow(state, rng)
            revived += state.total_regrown
        n_draws = trials * len(dead_cells)
        expected = n_draws * 0.025
        sigma = (n_draws * 0.025 * 0.975) ** 0.5
        assert abs(revived - expected) <= 3 * sigma

    def test_regrowth_skips_occupied_cells(self):
        state, cells = self._one_tree_state((1.0, 1.0, 1.0, 1.0), live_cells=3)
        dead_cell = cells[4]
        state.occupied[dead_cell] = 99
        regrow(state, random.Random(0))
        assert dead_cell not in state.live_apples
        assert state.stock == [5]  # the other two dead cells revived


class TestPolicies:
    def test_greedy_steps_onto_adjacent_apple(self):
        grid = corridor_map()
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 2)
        state.occupied = {(1, 2): 0}
        assert decide(PolicyKind.GREEDY, state, 0, random.Random(0)) is Action.MOVE_LEFT

    def test_sustainable_never_raids_depleted_tree(self):
        grid = corridor_map()  # single tree with a single apple
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 2)
        state.occupied = {(1, 2): 0}
        apples = build_view(state, 0, stocks(state))
        assert apples == {(1, 1): 1}
        rng = random.Random(0)
        for _ in range(200):
            action = policy_action(PolicyKind.SUSTAINABLE, state, 0, apples, rng)
            assert action in (Action.NOOP, Action.MOVE_RIGHT)  # never onto the apple

    def test_sustainable_harvests_healthy_tree(self):
        grid = load_map("########\n#AAA...#\n#AAAS..#\n########")
        state = make_world(grid, 1, NO_REGROWTH)
        assert decide(PolicyKind.SUSTAINABLE, state, 0, random.Random(0)) is Action.MOVE_LEFT

    def test_random_policy_is_uniform(self):
        grid = open_map()
        state = make_world(grid, 1, NO_REGROWTH)
        rng = random.Random(99)
        counts = Counter(decide(PolicyKind.RANDOM, state, 0, rng) for _ in range(10_000))
        expected = 10_000 / len(ACTIONS)
        sigma = (10_000 * (1 / 8) * (7 / 8)) ** 0.5
        for action in ACTIONS:
            assert abs(counts[action] - expected) <= 3 * sigma

    def test_bot_heads_for_known_tree_sites(self):
        # apple is out of view (distance > 5) but the bot still closes in
        state = make_world(corridor_map(), 1, NO_REGROWTH)
        state.agents[0].position = (1, 9)
        state.occupied = {(1, 9): 0}
        assert build_view(state, 0, stocks(state)) == {}
        assert decide(PolicyKind.UNSUSTAINABLE_BOT, state, 0, random.Random(0)) is Action.MOVE_LEFT

    def test_view_radius_and_line_of_sight(self):
        grid = load_map("#######\n#A..#A#\n#..S..#\n#######")
        state = make_world(grid, 1, NO_REGROWTH)
        state.agents[0].position = (1, 2)  # in line with both apples
        state.occupied = {(1, 2): 0}
        apples = build_view(state, 0, stocks(state))
        # (1,1) is adjacent; (1,5) sits behind the wall at (1,4)
        assert (1, 1) in apples
        assert (1, 5) not in apples

    def test_view_radius_limit(self):
        state = make_world(corridor_map(), 1, NO_REGROWTH)
        assert build_view(state, 0, stocks(state)) == {}  # apple is 6 cells away
        state.agents[0].position = (1, 6)
        state.occupied = {(1, 6): 0}
        assert build_view(state, 0, stocks(state)) == {(1, 1): 1}


# The agent stands next to a tree at stock 1, two cells from one at stock 2,
# and five from one at stock 3; all three are in view.
TARGET_RULE_MAP = ("#########\n"
                   "#..22...#\n"
                   "#1S.....#\n"
                   "#.......#\n"
                   "#....333#\n"
                   "#########")


class TestTargetRule:
    """Which apples each policy targets, in a view holding trees at stock 1, 2 and 3."""

    # Greedy agents and bots step onto the nearest apple, of the stock-1 tree;
    # sustainable agents head for the stock-3 tree, around the apple beside them.
    FIRST_STEP = {PolicyKind.GREEDY: Action.MOVE_LEFT,
                  PolicyKind.UNSUSTAINABLE_BOT: Action.MOVE_LEFT,
                  PolicyKind.SUSTAINABLE: Action.MOVE_DOWN}

    @pytest.mark.parametrize("policy", list(PolicyKind), ids=lambda p: p.value)
    def test_first_step(self, policy):
        state = make_world(load_map(TARGET_RULE_MAP), 1, NO_REGROWTH)
        assert sorted(build_view(state, 0, stocks(state)).values()) == [1, 2, 2, 3, 3, 3]
        rng, twin = random.Random(0), random.Random(0)
        # A random agent targets nothing: its action is one uniform draw.
        expected = twin.choice(ACTIONS) if policy is PolicyKind.RANDOM else self.FIRST_STEP[policy]
        assert decide(policy, state, 0, rng) is expected
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("seed", range(5))
    def test_sustainable_eats_only_at_or_above_three(self, seed):
        grid = load_map(TARGET_RULE_MAP)
        state = make_world(grid, 1, NO_REGROWTH)
        start = stocks(state)
        rich = next(i for i, cells in enumerate(grid.trees) if len(cells) == 3)
        rng = random.Random(seed)
        for _ in range(60):
            below = {cell for cell, i in state.live_apples.items() if state.stock[i] < 3}
            step_world(state, {0: decide(PolicyKind.SUSTAINABLE, state, 0, rng)}, rng)
            assert state.agents[0].position not in below
        # One apple of the stock-3 tree, which then holds 2 and is left alone.
        assert state.total_consumed == 1
        assert stocks(state) == tuple(s - (i == rich) for i, s in enumerate(start))


class TestWorldInvariants:
    def _run_ticks(self, state, policies, rng, ticks):
        livestream = []
        for _ in range(ticks):
            actions = {}
            for agent_id in sorted(state.agents):
                actions[agent_id] = decide(policies[agent_id], state, agent_id, rng)
            before = len(state.live_apples)
            consumed0, regrown0 = state.total_consumed, state.total_regrown
            step_world(state, actions, rng)
            delta = len(state.live_apples) - before
            livestream.append(
                delta == (state.total_regrown - regrown0) - (state.total_consumed - consumed0))
        return livestream

    def test_conservation_ledger(self):
        grid = load_map(DEFAULT_MAP)
        state = make_world(grid, 5, (0.0, 0.1, 0.2, 0.3))
        policies = {i: PolicyKind.GREEDY for i in range(5)}
        checks = self._run_ticks(state, policies, random.Random(7), 300)
        assert all(checks)

    def test_no_agents_means_non_decreasing_apples(self):
        grid = load_map(DEFAULT_MAP)
        state = make_world(grid, 0, (0.0, 0.3, 0.3, 0.3))
        # knock out a few apples so regrowth has room
        for cell in grid.trees[0][:3]:
            state.remove_apple(cell)
        rng = random.Random(3)
        last = len(state.live_apples)
        for _ in range(200):
            step_world(state, {}, rng)
            now = len(state.live_apples)
            assert now >= last
            last = now

    def test_tree_death_is_permanent(self):
        grid = corridor_map()
        state = make_world(grid, 0, (0.5, 0.5))
        state.remove_apple(grid.trees[0][0])
        rng = random.Random(1)
        for _ in range(100):
            regrow(state, rng)
        assert state.stock == [0] and state.live_apples == {}

    def test_agents_never_share_a_cell(self):
        grid = load_map(DEFAULT_MAP)
        state = make_world(grid, 8, (0.0, 0.1))
        policies = {i: PolicyKind.RANDOM for i in range(8)}
        rng = random.Random(11)
        for _ in range(200):
            actions = {i: decide(policies[i], state, i, rng) for i in sorted(state.agents)}
            step_world(state, actions, rng)
            positions = [a.position for a in state.agents.values()]
            assert len(set(positions)) == len(positions)
            assert state.occupied == {a.position: i for i, a in state.agents.items()}

    def test_same_seed_same_trajectory(self):
        def run():
            state = make_world(load_map(DEFAULT_MAP), 5, (0.0, 0.005, 0.01, 0.025))
            rng = random.Random(21)
            history = []
            for _ in range(150):
                actions = {i: decide(PolicyKind.SUSTAINABLE, state, i, rng)
                           for i in sorted(state.agents)}
                step_world(state, actions, rng)
                history.append((tuple(sorted(state.occupied)),
                                tuple(sorted(state.live_apples))))
            return history

        assert run() == run()

    def test_copy_steps_like_the_original_and_shares_nothing_mutable(self):
        state = make_world(load_map(DEFAULT_MAP), 5, (0.0, 0.05, 0.1, 0.2))
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
                actions = {i: decide(PolicyKind.SUSTAINABLE, world, i, stream)
                           for i in sorted(world.agents)}
                step_world(world, actions, stream)
                history.append((dict(world.occupied), dict(world.live_apples),
                                list(world.stock), world.total_consumed))
            return history

        # The twin runs first: any state it shared would change the original's run.
        rng_state = rng.getstate()
        assert run(twin, rng_state) == run(state, rng_state)


# sha256 of every agent's (id, position, orientation, cooldown, hunger,
# consumption) after each of 300 ticks, taken before policies read the world
# in place and before step_world ran in two passes.
TRAJECTORY_DIGESTS = {
    0: "bd68bfe58382d3a3fad5ef16f8b8e88637300598a7b6c68f2a7569dd99f230dd",
    1: "3c27cc2d222e35081c814135f5e2db99ce9a79ab4e21b027ef0d595c3db342af",
}

# sha256 of run_episode's trace arrays and bot records for the same policies
# and schedule over 300 ticks, taken before idle agents and idle ticks
# skipped the decision and step machinery, with each array at the dtype it
# had then.
EPISODE_DIGESTS = {
    0: "ff06ca58a0222c9062d4bbebb566b967e947581e696c8ebc16ac6ec9abb08d86",
    1: "6acbd846548cc4d3b61cd1e2390e27b98e3a796ee99ba170279ece8e341e304e",
}


class TestTrajectoryPinned:
    # Neither preset rotates or zaps; random agents do both.
    POLICIES = (PolicyKind.RANDOM, PolicyKind.GREEDY, PolicyKind.RANDOM,
                PolicyKind.SUSTAINABLE, PolicyKind.RANDOM, PolicyKind.GREEDY)

    @pytest.mark.parametrize("seed", sorted(TRAJECTORY_DIGESTS))
    def test_rotations_zaps_and_bots_step_as_pinned(self, seed):
        state = make_world(load_map(DEFAULT_MAP), len(self.POLICIES), (0.0, 0.05, 0.1, 0.2))
        engine = EventEngine(parse_schedule("apple_vanish 60 0.5\nbot_intrusion 100 120 2\n"))
        rng, event_rng = random.Random(seed), random.Random(seed + 1)
        digest = hashlib.sha256()
        seen = Counter()
        hunger = Counter()  # agent id -> ticks since its last meal, or since it entered
        for t in range(300):
            engine.fire_events(state, t, event_rng)
            # Bots are the agents from len(POLICIES) up.
            actions = {i: decide(self.POLICIES[i] if i < len(self.POLICIES)
                                 else PolicyKind.UNSUSTAINABLE_BOT, state, i, rng)
                       for i in sorted(state.agents)}
            before = {i: a.cumulative_consumed for i, a in state.agents.items()}
            step_world(state, actions, rng)
            for i, a in sorted(state.agents.items()):
                hunger[i] = 0 if a.cumulative_consumed > before[i] else hunger[i] + 1
                digest.update(repr((i, a.position, a.orientation.name, a.zap_cooldown,
                                    hunger[i], a.cumulative_consumed)).encode())
                seen["rotated"] += a.orientation is not Orientation.N
                seen["zapped"] += a.zap_cooldown == ZAP_COOLDOWN
                seen["bot"] += i >= len(self.POLICIES)
        assert min(seen.values()) > 0
        assert digest.hexdigest() == TRAJECTORY_DIGESTS[seed]

    @pytest.mark.parametrize("seed", sorted(EPISODE_DIGESTS))
    def test_run_episode_steps_as_pinned(self, seed):
        from coopres.harness import ScenarioConfig, run_episode

        config = ScenarioConfig(policies=self.POLICIES, episode_length=300,
                                regrowth_table=(0.0, 0.05, 0.1, 0.2), schedule=parse_schedule(
                                    "apple_vanish 60 0.5\nbot_intrusion 100 120 2\n"))
        trace = run_episode(config, seed, with_events=True)
        digest = hashlib.sha256()
        for name, dtype in (("apples_per_tree", np.int32), ("consumed", np.int64),
                            ("hunger_ticks", np.int64), ("ledger_consumed", np.int64),
                            ("ledger_regrown", np.int64), ("ledger_event_vanished", np.int64),
                            ("positions", np.int32)):
            digest.update(getattr(trace, name).astype(dtype).tobytes())
        digest.update(repr(trace.bot_records).encode())
        assert trace.fired_triggers == (60, 100)
        assert digest.hexdigest() == EPISODE_DIGESTS[seed]


def dumped_records(trace):
    """Each tick's record as a dict through ``json.dumps``: the reference for the writer."""
    for t in range(trace.horizon):
        record = {
            "tick": t,
            "apples_per_tree": [int(x) for x in trace.apples_per_tree[t]],
            "per_agent": {
                str(i): {
                    "consumed": int(trace.consumed[t, i]),
                    "hunger_ticks": int(trace.hunger_ticks[t, i]),
                    "pos": [int(trace.positions[t, i, 0]), int(trace.positions[t, i, 1])],
                }
                for i in range(trace.n_agents)
            },
        }
        if trace.bot_records and trace.bot_records[t]:
            record["bots"] = [{"id": bid, "pos": [pos[0], pos[1]], "consumed": consumed}
                              for bid, pos, consumed in trace.bot_records[t]]
        yield json.dumps(record)


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

    @pytest.mark.parametrize("shape", ["1 agent", "5 agents", "bots", "walled map"])
    def test_jsonl_lines_equal_json_dumps_of_each_record(self, shape, tmp_path):
        from coopres.harness import ScenarioConfig, run_episode

        greedy, sustainable = PolicyKind.GREEDY, PolicyKind.SUSTAINABLE
        config = {
            "1 agent": ScenarioConfig(policies=(greedy,)),
            "5 agents": ScenarioConfig(),
            # Two bots stay across the boundary between the first two blocks.
            "bots": ScenarioConfig(schedule=parse_schedule(
                f"bot_intrusion {BLOCK_TICKS - 6} 12 2\n")),
            "walled map": ScenarioConfig(map_text=WALLED_MAP_TEXT, policies=(greedy, sustainable)),
        }[shape]
        config = replace(config, episode_length=2 * BLOCK_TICKS + 3)
        trace = run_episode(config, seed=3, with_events=True)
        if shape == "bots":
            assert {len(bots) for bots in trace.bot_records} == {0, 2}
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        assert path.read_text().splitlines() == list(dumped_records(trace))

    # Values far outside any episode's (negative, beyond 2**40, int64's
    # ends), files whose values span more than the file holds, and
    # negative values looked up in the table.
    @given(seed=st.integers(0, 2**32 - 1), lo=st.integers(-2**63, 2**63 - 1),
           span=st.sampled_from([0, 6, 1500, 2**40, 2**64]),
           h=st.integers(BLOCK_TICKS + 1, 3 * BLOCK_TICKS),
           n_trees=st.integers(0, 6), n_agents=st.integers(1, 5), with_bots=st.booleans())
    @example(seed=0, lo=-2**63, span=2**64, h=BLOCK_TICKS + 1, n_trees=6, n_agents=5,
             with_bots=True)
    @example(seed=1, lo=2**40, span=6, h=2 * BLOCK_TICKS + 3, n_trees=6, n_agents=2,
             with_bots=False)
    @example(seed=2, lo=-6, span=6, h=2 * BLOCK_TICKS + 3, n_trees=6, n_agents=2,
             with_bots=True)
    @settings(max_examples=40, deadline=None)
    def test_jsonl_lines_equal_json_dumps_for_any_int64(self, tmp_path_factory, seed, lo, span,
                                                         h, n_trees, n_agents, with_bots):
        rng = np.random.default_rng(seed)
        hi = min(lo + span, 2**63 - 1)

        def ints(*shape):
            return rng.integers(lo, hi, size=shape, dtype=np.int64, endpoint=True)

        # Ticks with zero, one or two bots, their ints drawn like the rest.
        bot_records = [[(n_agents + b, (v, -v), v) for b, v in enumerate(ints(t % 3).tolist())]
                       for t in range(h)] if with_bots else []
        trace = EpisodeTrace(n_agents=n_agents, rows=ints(h, n_trees + 4 * n_agents + 3),
                             bot_records=bot_records)
        path = tmp_path_factory.getbasetemp() / "any_int64.jsonl"
        write_trace_jsonl(trace, path)
        assert path.read_text().splitlines() == list(dumped_records(trace))


WALLED_MAP_TEXT = ("##############\n"
                   "#AA..#...11..#\n"
                   "#AA..#.......#\n"
                   "#....###..#..#\n"
                   "#.S.......#22#\n"
                   "#..#..A...#22#\n"
                   "#..#......S..#\n"
                   "#333...##....#\n"
                   "##############")
WALLED_MAP = load_map(WALLED_MAP_TEXT)


def plain_distances(grid, a):
    """Walking distance from ``a`` to each floor cell it reaches: the reference for ``distance``."""
    dist, queue = {a: 0}, deque([a])
    while queue:
        r, c = u = queue.popleft()
        for n in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if n not in dist and not grid.is_wall(n):
                dist[n] = dist[u] + 1
                queue.append(n)
    return dist


class TestDistanceRows:
    @pytest.mark.parametrize("text", [DEFAULT_MAP, WALLED_MAP_TEXT], ids=["default", "walled"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_distance_equals_plain_bfs_in_any_query_order(self, text, data):
        grid = load_map(text)  # no distance row built yet
        walls = [(r, c) for r in range(grid.height) for c in range(grid.width)
                 if grid.is_wall((r, c))]
        # ``distance`` takes a floor cell as its target, as every apple cell is.
        sources = st.sampled_from(list(grid.moves) + walls[:4])
        targets = st.sampled_from(list(grid.moves))
        for a, b in data.draw(st.lists(st.tuples(sources, targets), min_size=1, max_size=30)):
            expected = (UNREACHABLE if grid.is_wall(a)
                        else plain_distances(grid, a).get(b, UNREACHABLE))
            assert grid.distance(a, b) == expected


def scanned_view(state, agent_id, radius=VIEW_RADIUS):
    """The view as a scan over every live apple; the reference for ``build_view``."""
    agent = state.agents[agent_id]
    r0, c0 = agent.position
    per_tree = Counter(state.live_apples.values())
    live_counts = [per_tree[idx] for idx in range(len(state.grid.trees))]
    apples = {}
    for cell, tree_idx in state.live_apples.items():
        if (abs(cell[0] - r0) <= radius and abs(cell[1] - c0) <= radius
                and line_of_sight(state.grid, agent.position, cell)):
            apples[cell] = live_counts[tree_idx]
    return apples, tuple(live_counts)


def assert_stocks_consistent(state):
    per_tree = Counter(state.live_apples.values())
    assert state.stock == [per_tree[idx] for idx in range(len(state.grid.trees))]


class TestVisibilityTable:
    @pytest.mark.parametrize("grid", [load_map(DEFAULT_MAP), WALLED_MAP],
                             ids=["default", "walled"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_view_equals_scan_over_live_apples(self, grid, data):
        state = make_world(grid, 0, NO_REGROWTH)
        apple_cells = sorted(grid.apple_tree)
        for cell in data.draw(st.sets(st.sampled_from(apple_cells))):
            state.remove_apple(cell)
        floor = [c for c in grid.moves if c not in state.live_apples]
        positions = data.draw(st.lists(st.sampled_from(floor), min_size=1, max_size=6,
                                       unique=True))
        for i, pos in enumerate(positions):
            state.agents[i] = AgentState(position=pos)
            state.occupied[pos] = i
        for i in state.agents:
            apples, tree_stocks = scanned_view(state, i)
            assert stocks(state) == tree_stocks
            assert build_view(state, i, stocks(state)) == apples

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
                build_view(state, i, stocks(state))
        assert calls and set(calls.values()) == {1}


def frozen_world(state, agent_id):
    """The world as the agent would see it if decisions read only their surroundings.

    A copy whose ``occupied`` keeps only the cells within ``VIEW_RADIUS``
    of the agent, paired with its visible apples rescanned from fresh tree
    stocks.  The reference for the decision path, which reads the world in
    place.
    """
    world = state.copy()
    r0, c0 = world.agents[agent_id].position
    world.occupied = {cell: aid for cell, aid in world.occupied.items()
                      if abs(cell[0] - r0) <= VIEW_RADIUS and abs(cell[1] - c0) <= VIEW_RADIUS}
    return world, scanned_view(world, agent_id)[0]


class TestDecisionPath:
    @pytest.mark.parametrize("grid", [load_map(DEFAULT_MAP), WALLED_MAP],
                             ids=["default", "walled"])
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_decision_equals_frozen_view(self, grid, data, seed):
        state = make_world(grid, 0, NO_REGROWTH)
        for cell in data.draw(st.sets(st.sampled_from(sorted(grid.apple_tree)))):
            state.remove_apple(cell)
        floor = [c for c in grid.moves if c not in state.live_apples]
        # Agents crowd around an anchor cell, so neighbouring cells are often taken.
        r0, c0 = data.draw(st.sampled_from(floor))
        near = [c for c in floor if abs(c[0] - r0) <= 2 and abs(c[1] - c0) <= 2]
        positions = data.draw(st.lists(st.sampled_from(near), min_size=1, max_size=8,
                                       unique=True))
        for i, pos in enumerate(positions):
            state.agents[i] = AgentState(position=pos,
                                         orientation=data.draw(st.sampled_from(list(Orientation))))
            state.occupied[pos] = i
        for i in state.agents:
            policy = data.draw(st.sampled_from(list(PolicyKind)))
            rng, ref_rng = random.Random(seed), random.Random(seed)
            world, apples = frozen_world(state, i)
            action = decide(policy, state, i, rng)
            assert action is policy_action(policy, world, i, apples, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


class TestNoTargetShortcut:
    """The episode loop's no-target shortcut decides and draws as ``policy_action`` does.

    For a policy with an idle coin and an agent with no target in view, the
    loop draws the coin and, only if it says move, wanders among the cells
    without a live apple.
    """

    # Four seeds whose first draw lands below 0.9, four in [0.9, 0.99) and four
    # at or above 0.99: both policies idle, only the sustainable one moves, both move.
    SEEDS = [seed for lo, hi in ((0.0, 0.9), (0.9, 0.99), (0.99, 1.0))
             for seed in [s for s in range(2000) if lo <= random.Random(s).random() < hi][:4]]
    GRID = load_map(DEFAULT_MAP)

    @pytest.mark.parametrize("policy", [p for p in PolicyKind if p.explore_idle_prob > 0],
                             ids=lambda p: p.value)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_shortcut_equals_policy_action(self, policy, data):
        grid = self.GRID
        state = make_world(grid, 0, NO_REGROWTH)
        for cells in grid.trees:  # each tree keeps a drawn number of apples, often below 3
            keep = data.draw(st.integers(0, len(cells)))
            for cell in data.draw(st.permutations(cells))[keep:]:
                state.remove_apple(cell)
        floor = [c for c in grid.moves if c not in state.live_apples]
        beside = [c for c in floor if any(n in state.live_apples for _, n in grid.moves[c])]
        # The first agent often stands beside an apple, which it must not eat;
        # the others crowd around it, so neighbouring cells are often taken.
        r0, c0 = data.draw(st.sampled_from(beside or floor) | st.sampled_from(floor))
        near = [c for c in floor if abs(c[0] - r0) <= 1 and abs(c[1] - c0) <= 1]
        others = data.draw(st.lists(st.sampled_from(near), max_size=4, unique=True))
        for i, pos in enumerate([(r0, c0)] + [c for c in others if c != (r0, c0)]):
            state.agents[i] = AgentState(position=pos)
            state.occupied[pos] = i
        apples = build_view(state, 0, stocks(state))
        assume(all(stock < policy.min_stock for stock in apples.values()))
        for seed in self.SEEDS:
            rng, twin = random.Random(seed), random.Random(seed)
            action = policy_action(policy, state, 0, apples, rng)
            shortcut = (Action.NOOP if twin.random() < policy.explore_idle_prob
                        else wander(state, (r0, c0), twin, state.live_apples))
            assert action is shortcut
            assert rng.getstate() == twin.getstate()


class TestTreeStock:
    @given(seed=st.integers(0, 2 ** 16),
           ops=st.lists(st.sampled_from(["step", "regrow", "vanish", "copy"]), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_live_count_follows_every_mutation(self, seed, ops):
        state = make_world(load_map(DEFAULT_MAP), 5, (0.0, 0.3, 0.3, 0.3))
        rng = random.Random(seed)
        policies = (PolicyKind.GREEDY, PolicyKind.RANDOM) * 3
        states = [state]
        for op in ops:
            if op == "step":
                actions = {i: decide(policies[i], state, i, rng) for i in sorted(state.agents)}
                step_world(state, actions, rng)
            elif op == "regrow":
                regrow(state, rng)
            elif op == "vanish":
                apply_apple_vanish(state, rng.random(), rng)
            else:
                state = state.copy()
                states.append(state)
            assert_stocks_consistent(state)
        # A copy that shared its stock with its original would break the original's counts.
        for world in states:
            assert_stocks_consistent(world)
