"""Commons-harvest grid world: trees, stock-dependent regrowth, agents.

Cells are (row, col) pairs.  The world is stepped once per tick with the
actions of the agents that act; all stochastic choices flow through the
caller's seeded random generator, so a seed plus an action stream fully
determines the trajectory.  Scripted policies decide from the world
itself: the visible apples ``build_view`` lists, plus the agent's
neighbouring cells and the static map.
"""

from __future__ import annotations

import json
import random
from collections import deque
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .indicators import EpisodeTrace

Cell = tuple[int, int]

UNREACHABLE = 10 ** 9

ZAP_RANGE = 3
ZAP_COOLDOWN = 5
VIEW_RADIUS = 5

DEFAULT_REGROWTH_TABLE = (0.0, 0.005, 0.01, 0.025)


class Action(Enum):
    MOVE_UP = "move_up"
    MOVE_DOWN = "move_down"
    MOVE_LEFT = "move_left"
    MOVE_RIGHT = "move_right"
    ROTATE_LEFT = "rotate_left"
    ROTATE_RIGHT = "rotate_right"
    ZAP = "zap"
    NOOP = "noop"


ACTIONS = tuple(Action)

# The four moves with their (row, col) deltas, in the order policies try them.
# Iterated with identity tests: hashing an Enum member runs Python code.
MOVES = ((Action.MOVE_UP, (-1, 0)), (Action.MOVE_DOWN, (1, 0)),
         (Action.MOVE_LEFT, (0, -1)), (Action.MOVE_RIGHT, (0, 1)))


class Orientation(Enum):
    N = (-1, 0)
    E = (0, 1)
    S = (1, 0)
    W = (0, -1)


def rotate(orientation: Orientation, clockwise: bool) -> Orientation:
    order = list(Orientation)  # clockwise, as the members are defined
    return order[(order.index(orientation) + (1 if clockwise else -1)) % len(order)]


class PolicyKind(Enum):
    """A scripted policy, with the two rules that ``policy_action`` and the episode loop read.

    ``explore_idle_prob`` is its idle probability while exploring (no target
    in view).  ``min_stock`` is its target floor: the least stock of a tree
    whose apples it targets, or eats in passing.  Sustainable foragers patrol
    widely, which spaces their visits out and lets tree stock rebuild, and
    leave trees holding 2 or fewer apples alone; greedy gluttons are
    sedentary until food shows up; intruding bots press on relentlessly.
    Random agents read neither rule.
    """

    GREEDY = "greedy", 0.99, 1
    SUSTAINABLE = "sustainable", 0.9, 3
    RANDOM = "random", 0.0, 1
    UNSUSTAINABLE_BOT = "unsustainable_bot", 0.0, 1

    def __new__(cls, value: str, explore_idle_prob: float, min_stock: int):
        member = object.__new__(cls)
        member._value_ = value
        member.explore_idle_prob = explore_idle_prob
        member.min_stock = min_stock
        return member


class GridMap:
    """Static geometry of a map: walls, tree layout, spawn and respawn cells.

    ``trees`` lists each tree's apple cells, in map order, and
    ``apple_tree`` maps each apple cell to the index of its tree.  ``load_map``
    builds it, so each apple cell is a floor cell of exactly one tree.

    Also owns three tables keyed by floor cell.  ``moves``, the map's one
    record of which cells are open, lists each cell's moves into open
    cells.  Walking distances to a cell, one BFS row per target cell built
    on first use, are the scripted policies' knowledge of the (static) map
    layout.  ``visible``, built here, maps each floor cell to the (apple
    cell, tree index) pairs an agent standing there can see: within
    ``VIEW_RADIUS`` in both axes and in line of sight.
    """

    def __init__(self, width: int, height: int, walls: frozenset[Cell],
                 trees: list[tuple[Cell, ...]], spawn_points: list[Cell]):
        self.width = width
        self.height = height
        self.trees = trees
        self.spawn_points = spawn_points
        floor = dict.fromkeys((r, c) for r in range(height) for c in range(width)
                              if (r, c) not in walls)
        # floor cell, in row-major order -> (move, floor cell) for each open cell next to it
        self.moves = {a: tuple((move, n) for move, (dr, dc) in MOVES
                               if (n := (a[0] + dr, a[1] + dc)) in floor)
                      for a in floor}
        self._dist_rows: dict[Cell, dict[Cell, int]] = {}  # target cell -> distances to it

        self.apple_tree = {cell: idx for idx, cells in enumerate(trees) for cell in cells}
        self.respawn_zone = self._compute_respawn_zone()
        self.visible = self._build_visibility_table()

    def is_wall(self, cell: Cell) -> bool:
        """True for a ``#`` cell and for any cell off the map."""
        return cell not in self.moves

    def _bfs(self, sources: list[Cell]) -> dict[Cell, int]:
        """Walking distance from the nearest of ``sources`` to each floor cell it reaches."""
        moves = self.moves
        row = dict.fromkeys(sources, 0)
        q = deque(sources)
        while q:
            u = q.popleft()
            du = row[u] + 1
            for _, v in moves[u]:
                if v not in row:
                    row[v] = du
                    q.append(v)
        return row

    def _compute_respawn_zone(self) -> list[Cell]:
        if not self.apple_tree:
            return list(self.moves)
        dist = self._bfs(list(self.apple_tree))
        far = max(dist.values())
        return [c for c in self.moves if dist.get(c) == far]

    def _build_distance_table(self, s: Cell) -> dict[Cell, int]:
        """Walking distances between floor cell ``s`` and every floor cell it reaches."""
        return self._bfs([s])

    def distance(self, a: Cell, b: Cell) -> int:
        """Shortest walking distance from ``a`` to floor cell ``b`` (walls block).

        Only ``b``'s row is built, on first use: policies pass apple cells as
        ``b``, and ``load_map`` puts every apple cell on the floor.
        """
        row = self._dist_rows.get(b)
        if row is None:
            row = self._dist_rows[b] = self._build_distance_table(b)
        return row.get(a, UNREACHABLE)

    def _build_visibility_table(self) -> dict[Cell, tuple[tuple[Cell, int], ...]]:
        # One (cell, tree index) tuple per apple cell, shared by every entry.
        pairs = list(self.apple_tree.items())
        table = {}
        for a in self.moves:
            r0, c0 = a
            table[a] = tuple(
                pair for pair, cell in zip(pairs, self.apple_tree)
                if abs(cell[0] - r0) <= VIEW_RADIUS and abs(cell[1] - c0) <= VIEW_RADIUS
                and line_of_sight(self, a, cell))
        return table


@dataclass
class AgentState:
    position: Cell
    orientation: Orientation = Orientation.N
    cumulative_consumed: int = 0
    zap_cooldown: int = 0


@dataclass
class WorldState:
    grid: GridMap
    stock: list[int]  # live apples per tree
    agents: dict[int, AgentState]  # agent id -> agent; the ids from n_agents up are bots
    regrowth_table: tuple[float, ...]
    live_apples: dict[Cell, int] = field(default_factory=dict)  # cell -> tree index
    occupied: dict[Cell, int] = field(default_factory=dict)     # cell -> agent id
    total_consumed: int = 0
    total_regrown: int = 0
    total_event_vanished: int = 0
    next_agent_id: int = 0

    def remove_apple(self, cell: Cell) -> None:
        """Take the live apple off ``cell``."""
        self.stock[self.live_apples.pop(cell)] -= 1

    def revive_apple(self, cell: Cell) -> None:
        """Put an apple back on the dead apple cell ``cell`` (``regrow`` checks it is dead)."""
        idx = self.live_apples[cell] = self.grid.apple_tree[cell]
        self.stock[idx] += 1

    def copy(self) -> "WorldState":
        """An independent copy of the dynamic state; the static map is shared.

        Dicts keep their insertion order, so a copy steps exactly like the
        original under the same random stream.
        """
        return replace(self, stock=self.stock.copy(),
                       agents={i: replace(a) for i, a in self.agents.items()},
                       live_apples=dict(self.live_apples), occupied=dict(self.occupied))


def load_map(ascii_text: str) -> GridMap:
    """Parse an ASCII map.

    Legend: ``#`` wall, ``.`` floor, ``A`` apple cell, ``1``-``9`` apple
    cell with an explicit tree label, ``S`` spawn point.  Same-digit cells
    form one tree; unlabeled ``A`` cells are grouped into trees by
    4-connectivity.
    """
    rows = [line for line in ascii_text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("map is empty")
    width = len(rows[0])
    for r, line in enumerate(rows):
        if len(line) != width:
            raise ValueError(f"map row {r} has length {len(line)}, expected {width}")
    height = len(rows)

    walls: set[Cell] = set()
    spawns: list[Cell] = []
    labeled: dict[str, list[Cell]] = {}
    plain_apples: set[Cell] = set()
    for r, line in enumerate(rows):
        for c, ch in enumerate(line):
            cell = (r, c)
            if ch == "#":
                walls.add(cell)
            elif ch == ".":
                pass
            elif ch == "S":
                spawns.append(cell)
            elif ch == "A":
                plain_apples.add(cell)
            elif ch in "123456789":
                labeled.setdefault(ch, []).append(cell)
            else:
                raise ValueError(f"unknown map glyph {ch!r} at row {r}, col {c}")

    groups: list[list[Cell]] = [sorted(cells) for _, cells in sorted(labeled.items())]
    # Cluster unlabeled apple cells by 4-connectivity.
    remaining = set(plain_apples)
    for start in sorted(plain_apples):
        if start not in remaining:
            continue
        cluster = [start]
        remaining.discard(start)
        q = deque([start])
        while q:
            r, c = q.popleft()
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                n = (r + dr, c + dc)
                if n in remaining:
                    remaining.discard(n)
                    cluster.append(n)
                    q.append(n)
        groups.append(sorted(cluster))

    groups.sort(key=lambda cells: cells[0])
    return GridMap(width=width, height=height, walls=frozenset(walls),
                   trees=[tuple(cells) for cells in groups], spawn_points=spawns)


def make_world(grid: GridMap, n_agents: int,
               regrowth_table: tuple[float, ...]) -> WorldState:
    """Fresh state of a validated config: pristine trees, agents on the first spawn points."""
    state = WorldState(grid=grid, stock=[len(cells) for cells in grid.trees], agents={},
                       regrowth_table=tuple(regrowth_table),
                       live_apples=dict(grid.apple_tree), next_agent_id=n_agents)
    for i in range(n_agents):
        pos = grid.spawn_points[i]
        state.agents[i] = AgentState(position=pos)
        state.occupied[pos] = i
    return state


def regrow(state: WorldState, rng: random.Random) -> None:
    """Stock-dependent apple regrowth; a fully stripped tree is dead for good.

    Each dead cell of a tree with stock revives independently with the
    probability keyed by the tree's stock (``state.stock``) at the start
    of the tick.  Cells under an agent do not regrow.  A tree with no
    stock and a full tree are skipped; neither draws from ``rng``.
    """
    table, occupied, live_apples, draw = (state.regrowth_table, state.occupied,
                                          state.live_apples, rng.random)
    top = len(table) - 1
    for cells, live in zip(state.grid.trees, state.stock):
        if live == 0 or live == len(cells):
            continue
        p = table[live if live < top else top]
        if p <= 0.0:
            continue
        for cell in cells:
            if cell not in live_apples and cell not in occupied and draw() < p:
                state.revive_apple(cell)
                state.total_regrown += 1


def shuffle_order(rng: random.Random, n: int, order: list | None = None) -> None:
    """Shuffle ``order``, of ``n`` items, with the draws of ``rng.shuffle(order)``.

    CPython's Fisher–Yates with its rejection sampling over ``getrandbits``.
    With ``order`` None only the bits are drawn; ``rng`` ends the same.
    """
    bits = rng.getrandbits
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        while (j := bits(k)) > i:
            pass
        if order is not None:
            order[i], order[j] = order[j], order[i]


def step_world(state: WorldState, actions: dict[int, Action], rng: random.Random) -> None:
    """Advance the world one tick.

    ``actions`` maps ids of agents in ``state.agents`` to their actions (the
    episode loop builds it from them); an agent not in it takes ``NOOP``.
    Agents act in a seeded-random order, in two passes.  In the first each
    agent rotates or moves (walls and occupied cells block; entering a live
    apple cell consumes it).  The second covers only the agents that zap
    this tick or are cooling down: each one's cooldown runs down, then its
    zap resolves.  Regrowth comes last.

    When ``actions`` is empty and no agent is cooling down, only the bits
    of the order's shuffle are drawn before regrowth, with no order built:
    the same draws and the same world as the two passes.
    """
    agents, occupied = state.agents, state.occupied
    if not actions and not any(a.zap_cooldown for a in agents.values()):
        shuffle_order(rng, len(agents))
        regrow(state, rng)
        return

    order = sorted(agents)
    shuffle_order(rng, len(order), order)
    act = actions.get
    for agent_id in order:
        action = act(agent_id, Action.NOOP)
        if action is Action.NOOP:
            continue
        agent = agents[agent_id]
        if action is Action.ROTATE_LEFT or action is Action.ROTATE_RIGHT:
            agent.orientation = rotate(agent.orientation,
                                       clockwise=action is Action.ROTATE_RIGHT)
            continue
        for move, target in state.grid.moves[agent.position]:
            if action is move:
                break
        else:  # a zap, or a move into a wall
            continue
        if target in occupied:
            continue
        del occupied[agent.position]
        agent.position = target
        occupied[target] = agent_id
        if target in state.live_apples:
            state.remove_apple(target)
            state.total_consumed += 1
            agent.cumulative_consumed += 1

    for agent_id in [i for i in order if act(i) is Action.ZAP or agents[i].zap_cooldown]:
        zapper = agents[agent_id]
        if zapper.zap_cooldown > 0:
            zapper.zap_cooldown -= 1
        if act(agent_id) is not Action.ZAP or zapper.zap_cooldown > 0:
            continue
        zapper.zap_cooldown = ZAP_COOLDOWN
        dr, dc = zapper.orientation.value
        r, c = zapper.position
        for k in range(1, ZAP_RANGE + 1):
            cell = (r + dr * k, c + dc * k)
            if state.grid.is_wall(cell):
                break
            hit = occupied.get(cell)
            if hit is not None:
                _relocate(state, hit)
                break

    regrow(state, rng)


def _relocate(state: WorldState, agent_id: int) -> None:
    agent = state.agents[agent_id]
    for cell in state.grid.respawn_zone:
        if cell not in state.occupied:
            del state.occupied[agent.position]
            agent.position = cell
            state.occupied[cell] = agent_id
            return
    # No free respawn cell: the zap fizzles and the target stays put.


def line_of_sight(grid: GridMap, a: Cell, b: Cell) -> bool:
    """True when no wall cell lies on the straight line between a and b."""
    (r0, c0), (r1, c1) = a, b
    dr, dc = abs(r1 - r0), abs(c1 - c0)
    sr = 1 if r1 > r0 else -1
    sc = 1 if c1 > c0 else -1
    err = dr - dc
    r, c = r0, c0
    while (r, c) != (r1, c1):
        e2 = 2 * err
        if e2 > -dc:
            err -= dc
            r += sr
        if e2 < dr:
            err += dr
            c += sc
        if (r, c) != (r1, c1) and (r, c) not in grid.moves:
            return False
    return True


def build_view(state: WorldState, agent_id: int, stocks: list[int]) -> dict[Cell, int]:
    """The live apples one agent sees, each mapped to its tree's stock.

    ``stocks`` is the tick's ``state.stock``.  Which apple cells the
    agent can see (within ``VIEW_RADIUS`` in both axes and in line of
    sight) is read from the map's visibility table; of those, the cells
    with a live apple enter the view, in table order.
    """
    live = state.live_apples
    return {cell: stocks[idx] for cell, idx in state.grid.visible[state.agents[agent_id].position]
            if cell in live}


def _open_moves(state: WorldState, pos: Cell,
                forbidden: Collection[Cell]) -> list[tuple[Action, Cell]]:
    """(move, cell) for each neighbour of ``pos`` that is free and allowed, in ``MOVES`` order."""
    return [(move, n) for move, n in state.grid.moves[pos]
            if n not in state.occupied and n not in forbidden]


def _step_toward(state: WorldState, pos: Cell, target: Cell,
                 forbidden: Collection[Cell]) -> Action:
    """The first open move among those that end nearest ``target``."""
    options = _open_moves(state, pos, forbidden)
    if not options:
        return Action.NOOP
    distance = state.grid.distance
    return min(options, key=lambda option: distance(option[1], target))[0]


def wander(state: WorldState, pos: Cell, rng: random.Random,
           forbidden: Collection[Cell]) -> Action:
    """A random open move from ``pos`` that avoids ``forbidden``; NOOP when there is none."""
    options = _open_moves(state, pos, forbidden)
    return rng.choice(options)[0] if options else Action.NOOP


def _nearest_live_tree_cell(state: WorldState, pos: Cell) -> Cell | None:
    """Closest apple cell of any tree that still has stock, map-wide."""
    best: tuple[int, Cell] | None = None
    for cells, live in zip(state.grid.trees, state.stock):
        if live == 0:
            continue
        for cell in cells:
            d = state.grid.distance(pos, cell)
            if d < UNREACHABLE and (best is None or (d, cell) < best):
                best = (d, cell)
    return best[1] if best else None


def policy_action(policy: PolicyKind, state: WorldState, agent_id: int,
                  apples: dict[Cell, int], rng: random.Random) -> Action:
    """Scripted decision rules standing in for learned agents.

    ``apples`` is the agent's view from ``build_view``.  Beyond it a policy
    reads the agent's position, static map knowledge (walls, tree sites,
    walking distances) and which of the four cells next to the agent are
    occupied; intruding bots also read every tree's live-apple count.
    """
    if policy is PolicyKind.RANDOM:
        return rng.choice(ACTIONS)

    pos = state.agents[agent_id].position
    forbidden: Collection[Cell] = ()
    if apples:
        # Apples of trees below the policy's floor must not be eaten even in passing.
        forbidden = {cell for cell, stock in apples.items() if stock < policy.min_stock}
        targets = apples.keys() - forbidden
        if targets:
            dist, target = min([(state.grid.distance(pos, cell), cell) for cell in targets])
            if dist < UNREACHABLE:
                return _step_toward(state, pos, target, forbidden)
    if policy is PolicyKind.UNSUSTAINABLE_BOT:
        # Intruders raid known tree sites instead of wandering.
        site = _nearest_live_tree_cell(state, pos)
        if site is not None:
            return _step_toward(state, pos, site, forbidden)
    if policy.explore_idle_prob > 0.0 and rng.random() < policy.explore_idle_prob:
        return Action.NOOP
    return wander(state, pos, rng, forbidden)


# Ticks the writers format and join at once: bounds the strings held.
BLOCK_TICKS = 256


def join_rows(pieces: Sequence[str], fields: np.ndarray) -> str:
    """Every row of an object array of strings, its fields set between the literal ``pieces``."""
    cells = np.empty((len(fields), 2 * fields.shape[1] + 1), dtype=object)
    cells[:, 0::2] = np.array(pieces, dtype=object)
    cells[:, 1::2] = fields
    return "".join(cells.ravel().tolist())


def _trace_record_pieces(n_trees: int, n_agents: int) -> list[str]:
    """Literal text of a trace record around its fields, as ``json.dumps`` writes it.

    The fields are the tick, the live apples per tree, then consumed, hunger
    ticks, row and column for each agent in turn, and last the ``bots``
    entry, empty on ticks without bots.
    """
    agents = ", ".join(f'"{i}": {{"consumed": @, "hunger_ticks": @, "pos": [@, @]}}'
                       for i in range(n_agents))
    return ('{"tick": @, "apples_per_tree": [' + ", ".join(["@"] * n_trees)
            + '], "per_agent": {' + agents + "}@}\n").split("@")


def _int_strings(lo: int, hi: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """``str`` of each int of a block whose values lie in ``lo..hi``, as an object array.

    Looked up in one table over ``lo..hi`` when that range is narrower than
    ``size``, the count of ints to format, else taken value by value, so any
    int64 comes out right.
    """
    if hi - lo >= size:
        return lambda block: block.astype(str).astype(object)
    table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
    return lambda block: table[block - lo]


def write_trace_jsonl(trace: EpisodeTrace, path: str | Path) -> None:
    """Dump a trace as one JSON record per tick.

    A record holds ``tick``, ``apples_per_tree`` and ``per_agent`` (keyed by
    agent id: ``consumed``, ``hunger_ticks``, ``pos``), all ints, and a
    ``bots`` list only on ticks with bots on the map.
    """
    n_trees, n, h = trace.apples_per_tree.shape[1], trace.n_agents, trace.horizon
    per_agent = np.dstack([trace.consumed, trace.hunger_ticks, trace.positions])
    fields = np.column_stack([trace.apples_per_tree, per_agent.reshape(h, 4 * n)])
    ticks, pieces = np.arange(h), _trace_record_pieces(n_trees, n)
    # ``initial`` takes the ticks 0..horizon - 1 into the range.
    strings = _int_strings(int(fields.min(initial=0)), int(fields.max(initial=len(ticks) - 1)),
                           ticks.size + fields.size)
    with open(path, "w") as fh:
        for start in range(0, len(ticks), BLOCK_TICKS):
            block = slice(start, start + BLOCK_TICKS)
            ends = np.full(len(ticks[block]), "", dtype=object)
            for i, bots in enumerate(trace.bot_records[block]):
                if bots:
                    listed = [{"id": bid, "pos": [pos[0], pos[1]], "consumed": consumed}
                              for bid, pos, consumed in bots]
                    ends[i] = ', "bots": ' + json.dumps(listed)
            fh.write(join_rows(pieces, np.column_stack(
                [strings(ticks[block]), strings(fields[block]), ends])))


# The bundled 24x18 map: six 6-apple trees, eight spawn points.
DEFAULT_MAP = """\
########################
#......................#
#111#..............#222#
#111#..............#222#
####................####
#......................#
#..........SS..........#
####.......SS.......####
#333.......SS.......444#
#333................444#
####.......SS.......####
#......................#
#......................#
####................####
#555#..............#666#
#555#..............#666#
#......................#
########################
"""
