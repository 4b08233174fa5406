"""Deterministic grid-world traffic simulator.

Cars loop around rectangular routes on a road lattice and are the
decision-making agents; pedestrians are scripted walkers that shuttle
across intersections or circle block corners at constant pace, with
pauses baked into their routes as repeated cells.  Movement is
route-index arithmetic (so a state plus decided actions fully determines
the next state); each AgentState derives its position and heading once,
and the route layout is built once per (grid, roads).  Grounding
evaluates the ten predicates of the fixed language ``PREDICATES`` inline
as integer arithmetic on simulator ground truth, bit i for
``PREDICATES[i]``, with Close and Near within ``CLOSE_RADIUS`` and
``NEAR_RADIUS``.  Who observes whom (Chebyshev closed
balls) is ``comms.ego_pools``; whether a Q-sentence pattern satisfies a
hypothesis is ``logic.Hypothesis.satisfied_by``, memoized per pattern as
a hypothesis mask by ``selection.KeyEngine.sat_mask``; the decision is
``RuleSet.action_of``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import FrozenSet, List, Mapping, Sequence, Set, Tuple

from .errors import ConfigurationError, reject_repeats
from .logic import Hypothesis

Cell = Tuple[int, int]

CAR = "car"
PEDESTRIAN = "pedestrian"

ACTION_SPEED = {"Stop": 0, "Slow": 1, "Normal": 2, "Fast": 3}
DEFAULT_ACTION = "Normal"


@dataclass(frozen=True)
class RuleSet:
    """Hypotheses plus a total action-priority order (index 0 wins).

    Truth vectors are bitmasks over the hypotheses (bit i for
    hypotheses[i]); action_of resolves one to an action, memoized per
    mask on the instance.
    """

    name: str
    hypotheses: Tuple[Hypothesis, ...]
    action_priority: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ConfigurationError("rule set %r has no hypotheses" % self.name)
        reject_repeats("action in priority order", self.action_priority)
        if DEFAULT_ACTION not in self.action_priority:
            raise ConfigurationError("priority order must include %r" % DEFAULT_ACTION)
        for action in self.action_priority:
            if action not in ACTION_SPEED:
                raise ConfigurationError("unknown action %r (no speed defined)" % action)
        reject_repeats("hypothesis id in rule set %r" % self.name, [h.id for h in self.hypotheses])
        for h in self.hypotheses:
            if h.action not in self.action_priority:
                raise ConfigurationError(
                    "hypothesis %d action %r missing from priority order" % (h.id, h.action)
                )
        object.__setattr__(self, "_actions", {})

    def priority_index(self, action: str) -> int:
        return self.action_priority.index(action)

    def action_of(self, mask: int) -> str:
        """Highest-priority action among the triggered hypotheses.

        Normal is always in the running, so an action ranked after it
        never wins and no trigger at all gives Normal.
        """
        try:
            return self._actions[mask]
        except KeyError:
            best = self.priority_index(DEFAULT_ACTION)
            for i, h in enumerate(self.hypotheses):
                if (mask >> i) & 1:
                    best = min(best, self.priority_index(h.action))
            action = self._actions[mask] = self.action_priority[best]
            return action


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid: int
    roads: Tuple[int, ...]
    cars: int
    pedestrians: int
    r_fov: int  # field-of-view radius (Chebyshev)
    r_vic: int  # vicinity radius
    steps: int

    def __post_init__(self) -> None:
        if self.grid < 8:
            raise ConfigurationError("grid too small")
        if any(not 0 <= r < self.grid for r in self.roads):
            raise ConfigurationError("road line outside grid")
        reject_repeats("road line", self.roads)  # a repeat gives an empty car route
        if len(self.roads) < 2:
            raise ConfigurationError("need at least two road lines to form routes")
        if self.cars < 1 or self.pedestrians < 0 or self.steps < 1:
            raise ConfigurationError("need at least one car, non-negative pedestrians, steps >= 1")
        if not 0 < self.r_fov <= self.r_vic:
            raise ConfigurationError(
                "need 0 < r_fov <= r_vic, got r_fov=%d r_vic=%d" % (self.r_fov, self.r_vic)
            )


@dataclass(frozen=True)
class AgentState:
    """One agent at one tick; position and heading are derived once, here."""

    id: int
    kind: str
    route: Tuple[Cell, ...]
    route_pos: int
    moved: bool = True
    position: Cell = field(init=False, repr=False, compare=False)
    heading: Cell = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x0, y0 = self.route[self.route_pos]
        x1, y1 = self.route[(self.route_pos + 1) % len(self.route)]
        dx, dy = x1 - x0, y1 - y0
        object.__setattr__(self, "position", (x0, y0))
        object.__setattr__(self, "heading", ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))


@dataclass(frozen=True)
class WorldState:
    grid: int
    agents: Tuple[AgentState, ...]
    intersections: FrozenSet[Cell]


# ---------------------------------------------------------------------------
# The language
# ---------------------------------------------------------------------------

# What each predicate asserts about an (ego, entity) pair is evaluated
# inline by ground_entity; d is (entity - ego) and "within r" is the
# Chebyshev closed ball.  Bit i of a pattern is PREDICATES[i].
PREDICATES = (
    "IsPedestrian",  # entity kind is pedestrian
    "IsCar",  # entity kind is car
    "InIntersection",  # entity on an intersection cell
    "IsMoving",  # entity changed cell on its last tick
    "Close",  # entity within CLOSE_RADIUS
    "Near",  # entity within NEAR_RADIUS
    "AheadOf",  # ego heading . d > 0
    "LeftOf",  # ego heading x d > 0 (left of its axis)
    "Facing",  # entity heading . -d > 0
    "SameHeading",  # equal headings
)
T = len(PREDICATES)
CLOSE_RADIUS = 2
NEAR_RADIUS = 6


# ---------------------------------------------------------------------------
# Routes and world construction
# ---------------------------------------------------------------------------

def _rect_loop(x0: int, y0: int, x1: int, y1: int) -> Tuple[Cell, ...]:
    cells: List[Cell] = []
    for x in range(x0, x1):
        cells.append((x, y0))
    for y in range(y0, y1):
        cells.append((x1, y))
    for x in range(x1, x0, -1):
        cells.append((x, y1))
    for y in range(y1, y0, -1):
        cells.append((x0, y))
    return tuple(cells)


def _crossing_route(
    center: Cell, horizontal: bool, reach: int, dwell: int
) -> Tuple[Cell, ...]:
    """Back-and-forth shuttle through an intersection center.

    A positive dwell repeats each turnaround cell, which makes the walker
    pause there (position unchanged while the route index advances).
    """
    cx, cy = center
    if horizontal:
        fwd = [(x, cy) for x in range(cx - reach, cx + reach + 1)]
        back = [(x, cy) for x in range(cx + reach - 1, cx - reach, -1)]
    else:
        fwd = [(cx, y) for y in range(cy - reach, cy + reach + 1)]
        back = [(cx, y) for y in range(cy + reach - 1, cy - reach, -1)]
    return tuple(fwd + [fwd[-1]] * dwell + back + [fwd[0]] * dwell)


def _corner_loop(center: Cell, radius: int) -> Tuple[Cell, ...]:
    cx, cy = center
    return _rect_loop(cx - radius, cy - radius, cx + radius, cy + radius)


def _car_routes(roads: Sequence[int]) -> List[Tuple[Cell, ...]]:
    roads = sorted(roads)
    routes = []
    for i in range(len(roads)):
        for j in range(i + 1, len(roads)):
            for p in range(len(roads)):
                for q in range(p + 1, len(roads)):
                    routes.append(_rect_loop(roads[i], roads[p], roads[j], roads[q]))
    return routes


def _pedestrian_routes(grid: int, roads: Sequence[int]) -> List[Tuple[Cell, ...]]:
    roads = sorted(roads)
    reach = 3
    routes = []

    def in_grid(route: Tuple[Cell, ...]) -> bool:
        return all(0 <= x < grid and 0 <= y < grid for x, y in route)

    for rx in roads:
        for ry in roads:
            for horizontal in (True, False):
                for dwell in (0, 2):
                    route = _crossing_route((rx, ry), horizontal, reach, dwell)
                    if in_grid(route):
                        routes.append(route)
            corner = _corner_loop((rx, ry), 2)
            if in_grid(corner):
                routes.append(corner)
    return routes


def _intersection_cells(grid: int, roads: Sequence[int]) -> FrozenSet[Cell]:
    cells: Set[Cell] = set()
    for rx in roads:
        for ry in roads:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    x, y = rx + dx, ry + dy
                    if 0 <= x < grid and 0 <= y < grid:
                        cells.add((x, y))
    return frozenset(cells)


@lru_cache(maxsize=32)
def _route_layout(grid: int, roads: Tuple[int, ...]):
    """Car routes, pedestrian routes, their cell capacities and the
    intersection cells of one road layout, built on first use."""
    car_routes = tuple(_car_routes(roads))
    ped_routes = tuple(_pedestrian_routes(grid, roads))
    return (
        car_routes,
        ped_routes,
        len({c for r in car_routes for c in r}),
        len({c for r in ped_routes for c in r}),
        _intersection_cells(grid, roads),
    )


def init_world(scenario: ScenarioConfig, seed: int) -> WorldState:
    """Reproducible placement: same (scenario, seed), same world."""
    car_routes, ped_routes, capacity, ped_capacity, intersections = _route_layout(
        scenario.grid, tuple(scenario.roads)
    )
    if scenario.cars > capacity or scenario.pedestrians > ped_capacity:
        raise ConfigurationError(
            "agent counts (%d cars, %d pedestrians) exceed route capacity (%d, %d)"
            % (scenario.cars, scenario.pedestrians, capacity, ped_capacity)
        )
    rng = random.Random(seed)
    agents: List[AgentState] = []
    occupied: Set[Cell] = set()

    def place(agent_id: int, kind: str, routes: Sequence[Tuple[Cell, ...]]) -> AgentState:
        for _ in range(64):
            route = routes[rng.randrange(len(routes))]
            if rng.random() < 0.5:
                route = tuple(reversed(route))
            pos = rng.randrange(len(route))
            if route[pos] not in occupied:
                break
        else:
            raise ConfigurationError("no free cell for agent %d (%s) in 64 draws" % (agent_id, kind))
        occupied.add(route[pos])
        return AgentState(id=agent_id, kind=kind, route=route, route_pos=pos)

    for i in range(scenario.cars):
        agents.append(place(i, CAR, car_routes))
    for i in range(scenario.pedestrians):
        agents.append(place(scenario.cars + i, PEDESTRIAN, ped_routes))
    return WorldState(
        grid=scenario.grid,
        agents=tuple(agents),
        intersections=intersections,
    )


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def ground_entity(world: WorldState, ego: AgentState, ent: AgentState) -> int:
    """The pair's Q-sentence pattern: bit i is set iff ``PREDICATES[i]`` holds."""
    ex, ey = ego.position
    nx, ny = ent.position
    dx, dy = nx - ex, ny - ey
    hx, hy = ego.heading
    gx, gy = ent.heading
    adx = dx if dx >= 0 else -dx
    ady = dy if dy >= 0 else -dy
    d = adx if adx >= ady else ady  # Chebyshev distance
    kind = ent.kind
    bits = 1 if kind == PEDESTRIAN else 2 if kind == CAR else 0
    if ent.position in world.intersections:
        bits |= 4  # InIntersection
    if ent.moved:
        bits |= 8  # IsMoving
    if d <= CLOSE_RADIUS:
        bits |= 16  # Close
    if d <= NEAR_RADIUS:
        bits |= 32  # Near
    if hx * dx + hy * dy > 0:
        bits |= 64  # AheadOf
    if hx * dy - hy * dx > 0:
        bits |= 128  # LeftOf
    if gx * dx + gy * dy < 0:  # the entity heads toward the ego
        bits |= 256  # Facing
    if gx == hx and gy == hy:
        bits |= 512  # SameHeading
    return bits


def step(world: WorldState, actions: Mapping[int, str]) -> WorldState:
    """Advance the world one tick.

    Cars move by their decided action's speed and must each have an
    entry in the actions mapping.  Pedestrians ignore the mapping and
    advance one route index per tick; a dwell cell repeated in their
    route realizes a pause.  Movement state reflects actual position
    change, not route-index change.
    """
    new_agents = []
    for a in world.agents:
        if a.kind == PEDESTRIAN:
            speed = 1
        else:
            try:
                action = actions[a.id]
            except KeyError:
                raise ConfigurationError("no action decided for car %d" % a.id) from None
            try:
                speed = ACTION_SPEED[action]
            except KeyError:
                raise ConfigurationError("unknown action %r" % action) from None
        new_pos = (a.route_pos + speed) % len(a.route)
        new_agents.append(
            AgentState(
                id=a.id,
                kind=a.kind,
                route=a.route,
                route_pos=new_pos,
                moved=a.route[new_pos] != a.position,
            )
        )
    return WorldState(
        grid=world.grid,
        agents=tuple(new_agents),
        intersections=world.intersections,
    )
