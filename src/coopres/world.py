"""Commons-harvest grid world: trees, stock-dependent regrowth, agents.

Cells are (row, col) pairs.  The world is stepped once per tick with one
action per living agent; all stochastic choices flow through the caller's
seeded random generator, so a seed plus an action stream fully determines
the trajectory.
"""

from __future__ import annotations

import json
import random
from collections import deque
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
SUSTAINABLE_MIN_STOCK = 3  # sustainable agents leave trees at or below 2 apples alone

# Idle probability while exploring (no target in view).  Sustainable
# foragers patrol widely, which spaces their visits out and lets tree stock
# rebuild in between; greedy gluttons are sedentary until food shows up;
# intruding bots press on relentlessly.
EXPLORE_IDLE_PROB = {
    "greedy": 0.99,
    "sustainable": 0.9,
    "unsustainable_bot": 0.0,
}

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

MOVE_DELTAS = {
    Action.MOVE_UP: (-1, 0),
    Action.MOVE_DOWN: (1, 0),
    Action.MOVE_LEFT: (0, -1),
    Action.MOVE_RIGHT: (0, 1),
}


class Orientation(Enum):
    N = (-1, 0)
    E = (0, 1)
    S = (1, 0)
    W = (0, -1)


_ORIENT_ORDER = (Orientation.N, Orientation.E, Orientation.S, Orientation.W)


def rotate(orientation: Orientation, clockwise: bool) -> Orientation:
    i = _ORIENT_ORDER.index(orientation)
    return _ORIENT_ORDER[(i + (1 if clockwise else -1)) % 4]


class PolicyKind(Enum):
    GREEDY = "greedy"
    SUSTAINABLE = "sustainable"
    RANDOM = "random"
    UNSUSTAINABLE_BOT = "unsustainable_bot"


@dataclass
class Tree:
    """A fixed group of apple cells, ``alive[i]`` telling whether cell i bears one.

    ``live`` counts the true entries of ``alive``.  Within a world it is
    kept by ``WorldState.remove_apple`` and ``WorldState.revive_apple``,
    which must be the only writers of ``alive``.
    """

    id: int
    apple_cells: tuple[Cell, ...]
    alive: list[bool]
    vanished: bool = False
    live: int = field(init=False)

    def __post_init__(self):
        self.live = sum(self.alive)

    def live_count(self) -> int:
        return self.live

    def copy(self) -> "Tree":
        return Tree(id=self.id, apple_cells=self.apple_cells,
                    alive=list(self.alive), vanished=self.vanished)


class GridMap:
    """Static geometry of a map: walls, tree layout, spawn and respawn cells.

    Also owns two lazily built tables over floor cells.  The all-pairs
    shortest-path table is the scripted policies' knowledge of the
    (static) map layout.  The visibility table lists, for each floor
    cell, the apple cells an agent standing there can see: within
    ``VIEW_RADIUS`` in both axes and in line of sight.
    """

    def __init__(self, width: int, height: int, walls: frozenset[Cell],
                 trees: list[Tree], spawn_points: list[Cell]):
        self.width = width
        self.height = height
        self.walls = walls
        self.trees = trees
        self.spawn_points = spawn_points
        self.floor = [(r, c) for r in range(height) for c in range(width)
                      if (r, c) not in walls]
        self._floor_index = {cell: i for i, cell in enumerate(self.floor)}
        self.respawn_zone = self._compute_respawn_zone()
        self._dist: np.ndarray | None = None
        self._visible: dict[Cell, tuple[tuple[Cell, int], ...]] | None = None

        # apple cell -> (tree index, slot in the tree's apple_cells)
        self.apple_slots: dict[Cell, tuple[int, int]] = {}
        for idx, tree in enumerate(trees):
            for i, cell in enumerate(tree.apple_cells):
                if cell in walls:
                    raise ValueError(f"apple cell {cell} is a wall")
                if cell in self.apple_slots:
                    raise ValueError(f"apple cell {cell} belongs to two trees")
                self.apple_slots[cell] = (idx, i)

    def is_wall(self, cell: Cell) -> bool:
        r, c = cell
        if not (0 <= r < self.height and 0 <= c < self.width):
            return True
        return cell in self.walls

    def _neighbors(self, cell: Cell) -> list[Cell]:
        r, c = cell
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            n = (r + dr, c + dc)
            if not self.is_wall(n):
                out.append(n)
        return out

    def _multi_source_bfs(self, sources: list[Cell]) -> dict[Cell, int]:
        dist = {cell: 0 for cell in sources}
        q = deque(sources)
        while q:
            u = q.popleft()
            du = dist[u] + 1
            for v in self._neighbors(u):
                if v not in dist:
                    dist[v] = du
                    q.append(v)
        return dist

    def _compute_respawn_zone(self) -> list[Cell]:
        apple_cells = [cell for tree in self.trees for cell in tree.apple_cells]
        if not apple_cells:
            return list(self.floor)
        dist = self._multi_source_bfs(apple_cells)
        reachable = [c for c in self.floor if c in dist]
        far = max(dist[c] for c in reachable)
        return [c for c in reachable if dist[c] == far]

    def _build_distance_table(self) -> np.ndarray:
        n = len(self.floor)
        nbr_idx: list[list[int]] = []
        for cell in self.floor:
            nbr_idx.append([self._floor_index[v] for v in self._neighbors(cell)])
        table = np.full((n, n), UNREACHABLE, dtype=np.int32)
        for s in range(n):
            row = [UNREACHABLE] * n
            row[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                du = row[u] + 1
                for v in nbr_idx[u]:
                    if row[v] > du:
                        row[v] = du
                        q.append(v)
            table[s] = row
        return table

    def distance(self, a: Cell, b: Cell) -> int:
        """Shortest walking distance between two floor cells (walls block)."""
        ia = self._floor_index.get(a)
        ib = self._floor_index.get(b)
        if ia is None or ib is None:
            return UNREACHABLE
        if self._dist is None:
            self._dist = self._build_distance_table()
        return int(self._dist[ia, ib])

    def _build_visibility_table(self) -> dict[Cell, tuple[tuple[Cell, int], ...]]:
        # One (cell, tree index) tuple per apple cell, shared by every entry.
        pairs = [(cell, idx) for cell, (idx, _) in self.apple_slots.items()]
        table = {}
        for a in self.floor:
            r0, c0 = a
            table[a] = tuple(
                pair for pair, cell in zip(pairs, self.apple_slots)
                if abs(cell[0] - r0) <= VIEW_RADIUS and abs(cell[1] - c0) <= VIEW_RADIUS
                and line_of_sight(self, a, cell))
        return table

    def visible_apple_cells(self, cell: Cell) -> tuple[tuple[Cell, int], ...]:
        """(apple cell, tree index) pairs an agent on floor ``cell`` can see."""
        if self._visible is None:
            self._visible = self._build_visibility_table()
        return self._visible[cell]


@dataclass
class AgentState:
    id: int
    position: Cell
    orientation: Orientation = Orientation.N
    cumulative_consumed: int = 0
    ticks_since_meal: int = 0
    is_bot: bool = False
    zap_cooldown: int = 0


@dataclass
class WorldState:
    grid: GridMap
    trees: list[Tree]
    agents: dict[int, AgentState]
    regrowth_table: tuple[float, ...]
    tick: int = 0
    live_apples: dict[Cell, int] = field(default_factory=dict)  # cell -> tree index
    occupied: dict[Cell, int] = field(default_factory=dict)     # cell -> agent id
    total_consumed: int = 0
    total_regrown: int = 0
    total_event_vanished: int = 0
    next_agent_id: int = 0

    def live_apple_total(self) -> int:
        return len(self.live_apples)

    def welfare_agents(self) -> list[AgentState]:
        return [a for a in self.agents.values() if not a.is_bot]

    def bots(self) -> list[AgentState]:
        return [a for a in self.agents.values() if a.is_bot]

    def remove_apple(self, cell: Cell) -> None:
        """Take the live apple off ``cell``."""
        idx, i = self.grid.apple_slots[cell]
        del self.live_apples[cell]
        tree = self.trees[idx]
        tree.alive[i] = False
        tree.live -= 1

    def revive_apple(self, cell: Cell) -> None:
        """Put an apple back on the dead apple cell ``cell``."""
        idx, i = self.grid.apple_slots[cell]
        tree = self.trees[idx]
        if tree.alive[i]:
            raise ValueError(f"apple cell {cell} already bears an apple")
        tree.alive[i] = True
        tree.live += 1
        self.live_apples[cell] = idx

    def copy(self) -> "WorldState":
        """An independent copy of the dynamic state; the static map is shared.

        Dicts keep their insertion order, so a copy steps exactly like the
        original under the same random stream.
        """
        return replace(self, trees=[t.copy() for t in self.trees],
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
            elif ch.isdigit() and ch != "0":
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
    trees = []
    for i, cells in enumerate(groups):
        if not cells:
            raise ValueError(f"tree {i} has no apple cells")
        trees.append(Tree(id=i, apple_cells=tuple(cells), alive=[True] * len(cells)))
    return GridMap(width=width, height=height, walls=frozenset(walls),
                   trees=trees, spawn_points=spawns)


def make_world(grid: GridMap, n_agents: int,
               regrowth_table: tuple[float, ...]) -> WorldState:
    """Fresh episode state: pristine trees, agents on the first spawn points."""
    if n_agents < 0 or n_agents > len(grid.spawn_points):
        raise ValueError(
            f"need {n_agents} spawn points, map has {len(grid.spawn_points)}")
    if not regrowth_table or any(not 0.0 <= p <= 1.0 for p in regrowth_table):
        raise ValueError("regrowth table must be non-empty probabilities in [0, 1]")
    trees = [t.copy() for t in grid.trees]
    state = WorldState(grid=grid, trees=trees, agents={},
                       regrowth_table=tuple(regrowth_table), next_agent_id=n_agents)
    for idx, tree in enumerate(trees):
        for cell, alive in zip(tree.apple_cells, tree.alive):
            if alive:
                state.live_apples[cell] = idx
    for i in range(n_agents):
        pos = grid.spawn_points[i]
        state.agents[i] = AgentState(id=i, position=pos)
        state.occupied[pos] = i
    return state


def _consume(state: WorldState, agent: AgentState, cell: Cell) -> None:
    state.remove_apple(cell)
    agent.cumulative_consumed += 1
    state.total_consumed += 1


def regrow(state: WorldState, rng: random.Random) -> WorldState:
    """Stock-dependent apple regrowth; a fully stripped tree is dead for good.

    Each dead cell of a living tree revives independently with the
    probability keyed by the tree's live-apple count at the start of the
    tick.  Cells under an agent do not regrow.  A full tree has no dead
    cell and is skipped; either way it draws nothing from ``rng``.
    """
    table = state.regrowth_table
    top = len(table) - 1
    for tree in state.trees:
        if tree.vanished:
            continue
        live = tree.live
        if live == 0:
            tree.vanished = True
            continue
        p = table[min(live, top)]
        if p <= 0.0 or live == len(tree.alive):
            continue
        for i, cell in enumerate(tree.apple_cells):
            if tree.alive[i] or cell in state.occupied:
                continue
            if rng.random() < p:
                state.revive_apple(cell)
                state.total_regrown += 1
    return state


def step_world(state: WorldState, actions: dict[int, Action],
               rng: random.Random) -> WorldState:
    """Advance the world one tick.

    Phases: rotations, moves in a seeded-random agent order (walls and
    occupied cells block; entering a live apple cell consumes it), zap
    resolution, regrowth, hunger bookkeeping.
    """
    for agent_id in actions:
        if agent_id not in state.agents:
            raise ValueError(f"action for unknown agent {agent_id}")
    if set(actions) != set(state.agents):
        missing = sorted(set(state.agents) - set(actions))
        raise ValueError(f"missing actions for agents {missing}")

    ate: set[int] = set()

    for agent_id, action in actions.items():
        agent = state.agents[agent_id]
        if action is Action.ROTATE_LEFT:
            agent.orientation = rotate(agent.orientation, clockwise=False)
        elif action is Action.ROTATE_RIGHT:
            agent.orientation = rotate(agent.orientation, clockwise=True)

    order = sorted(state.agents)
    rng.shuffle(order)
    for agent_id in order:
        action = actions[agent_id]
        delta = MOVE_DELTAS.get(action)
        if delta is None:
            continue
        agent = state.agents[agent_id]
        r, c = agent.position
        target = (r + delta[0], c + delta[1])
        if state.grid.is_wall(target) or target in state.occupied:
            continue
        del state.occupied[agent.position]
        agent.position = target
        state.occupied[target] = agent_id
        if target in state.live_apples:
            _consume(state, agent, target)
            ate.add(agent_id)

    for agent in state.agents.values():
        if agent.zap_cooldown > 0:
            agent.zap_cooldown -= 1
    for agent_id in order:
        if actions[agent_id] is not Action.ZAP:
            continue
        zapper = state.agents[agent_id]
        if zapper.zap_cooldown > 0:
            continue
        zapper.zap_cooldown = ZAP_COOLDOWN
        dr, dc = zapper.orientation.value
        r, c = zapper.position
        for k in range(1, ZAP_RANGE + 1):
            cell = (r + dr * k, c + dc * k)
            if state.grid.is_wall(cell):
                break
            hit = state.occupied.get(cell)
            if hit is not None:
                _relocate(state, state.agents[hit])
                break

    regrow(state, rng)

    for agent in state.agents.values():
        if agent.id in ate:
            agent.ticks_since_meal = 0
        else:
            agent.ticks_since_meal += 1
    state.tick += 1
    return state


def _relocate(state: WorldState, agent: AgentState) -> None:
    for cell in state.grid.respawn_zone:
        if cell not in state.occupied:
            del state.occupied[agent.position]
            agent.position = cell
            state.occupied[cell] = agent.id
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
        if (r, c) != (r1, c1) and (r, c) in grid.walls:
            return False
    return True


@dataclass
class LocalView:
    """What one agent can observe: a radius-limited egocentric crop.

    ``apples`` maps visible live apple cells (within ``VIEW_RADIUS`` and in
    line of sight) to the live-apple count of the tree they belong to.
    ``tree_stocks`` is the coarse per-tree stock vector; only the intruder
    bots act on it.  ``grid`` exposes static map knowledge (walls, tree
    sites, walking distances).
    """

    position: Cell
    orientation: Orientation
    apples: dict[Cell, int]
    occupied: frozenset[Cell]
    tree_stocks: tuple[int, ...]
    grid: GridMap


def build_view(state: WorldState, agent_id: int) -> LocalView:
    """The view of one agent.

    Which apple cells the agent can see is read from the map's visibility
    table; of those, the cells with a live apple enter ``apples``, in
    table order.
    """
    agent = state.agents[agent_id]
    r0, c0 = agent.position
    stocks = tuple([t.live for t in state.trees])
    live = state.live_apples
    apples = {cell: stocks[idx] for cell, idx in state.grid.visible_apple_cells(agent.position)
              if cell in live}
    occupied = frozenset(
        cell for cell, aid in state.occupied.items()
        if aid != agent_id and abs(cell[0] - r0) <= VIEW_RADIUS
        and abs(cell[1] - c0) <= VIEW_RADIUS)
    return LocalView(position=agent.position, orientation=agent.orientation,
                     apples=apples, occupied=occupied, tree_stocks=stocks, grid=state.grid)


_MOVE_ORDER = (Action.MOVE_UP, Action.MOVE_DOWN, Action.MOVE_LEFT, Action.MOVE_RIGHT)


def _step_toward(view: LocalView, target: Cell, forbidden: set[Cell]) -> Action:
    best: tuple[int, int] | None = None  # (distance, order index)
    r, c = view.position
    for i, action in enumerate(_MOVE_ORDER):
        dr, dc = MOVE_DELTAS[action]
        n = (r + dr, c + dc)
        if view.grid.is_wall(n) or n in view.occupied or n in forbidden:
            continue
        d = view.grid.distance(n, target)
        if best is None or (d, i) < best:
            best = (d, i)
    if best is None:
        return Action.NOOP
    return _MOVE_ORDER[best[1]]


def _explore(view: LocalView, rng: random.Random, forbidden: set[Cell],
             idle_prob: float) -> Action:
    if idle_prob > 0.0 and rng.random() < idle_prob:
        return Action.NOOP
    r, c = view.position
    options = []
    for action in _MOVE_ORDER:
        dr, dc = MOVE_DELTAS[action]
        n = (r + dr, c + dc)
        if not view.grid.is_wall(n) and n not in view.occupied and n not in forbidden:
            options.append(action)
    if not options:
        return Action.NOOP
    return rng.choice(options)


def _nearest_live_tree_cell(view: LocalView) -> Cell | None:
    """Closest apple cell of any tree that still has stock, map-wide."""
    best: tuple[int, Cell] | None = None
    pos = view.position
    for tree, stock in zip(view.grid.trees, view.tree_stocks):
        if stock == 0:
            continue
        for cell in tree.apple_cells:
            d = view.grid.distance(pos, cell)
            if d < UNREACHABLE and (best is None or (d, cell) < best):
                best = (d, cell)
    return best[1] if best else None


def policy_action(policy: PolicyKind, view: LocalView, rng: random.Random) -> Action:
    """Scripted decision rules standing in for learned agents."""
    if policy is PolicyKind.RANDOM:
        return rng.choice(ACTIONS)

    if policy is PolicyKind.SUSTAINABLE:
        targets = {cell: stock for cell, stock in view.apples.items()
                   if stock >= SUSTAINABLE_MIN_STOCK}
        # Off-limits apples must not be eaten even in passing.
        forbidden = {cell for cell in view.apples if cell not in targets}
    else:  # greedy and unsustainable bots harvest without restraint
        targets = dict(view.apples)
        forbidden = set()

    if targets:
        pos = view.position
        scored = [(view.grid.distance(pos, cell), cell) for cell in targets]
        dist, target = min(scored)
        if dist < UNREACHABLE:
            return _step_toward(view, target, forbidden)
    if policy is PolicyKind.UNSUSTAINABLE_BOT:
        # Intruders raid known tree sites instead of wandering.
        site = _nearest_live_tree_cell(view)
        if site is not None:
            return _step_toward(view, site, forbidden)
    return _explore(view, rng, forbidden, EXPLORE_IDLE_PROB[policy.value])


def write_trace_jsonl(trace: EpisodeTrace, path: str | Path) -> None:
    """Dump a trace as one JSON record per tick."""
    if trace.positions is None:
        raise ValueError("trace has no recorded positions")
    with open(path, "w") as fh:
        for t in range(trace.horizon):
            record = {
                "tick": t,
                "apples_per_tree": [int(x) for x in trace.apples_per_tree[t]],
                "per_agent": {
                    str(i): {
                        "consumed": int(trace.consumed[t, i]),
                        "hunger_ticks": int(trace.hunger_ticks[t, i]),
                        "pos": [int(trace.positions[t, i, 0]),
                                int(trace.positions[t, i, 1])],
                    }
                    for i in range(trace.n_agents)
                },
            }
            if trace.bot_records and trace.bot_records[t]:
                record["bots"] = [
                    {"id": bid, "pos": [pos[0], pos[1]], "consumed": consumed}
                    for bid, pos, consumed in trace.bot_records[t]
                ]
            fh.write(json.dumps(record) + "\n")


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


def load_default_map() -> GridMap:
    """The bundled 24x18 map: six 6-apple trees, eight spawn points."""
    return load_map(DEFAULT_MAP)
