"""Deterministic grid-world traffic simulator.

Cars loop around rectangular routes on a road lattice and are the
decision-making agents; pedestrians are scripted walkers that shuttle
across intersections or circle block corners at constant pace, with
pauses baked into their routes as repeated cells.  Movement is
route-index arithmetic (so a state plus decided actions fully determines
the next state), and grounding evaluates the vocabulary's built-in
predicates against simulator ground truth.  Who observes whom (Chebyshev
closed balls) is ``comms.ego_pools``; which hypotheses a Q-sentence
witnesses is ``selection.KeyEngine.sat_mask``; the decision is
``RuleSet.action_of``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from .errors import ConfigurationError
from .logic import Hypothesis, PredicateCategory, PredicateVocabulary, QSentence

Cell = Tuple[int, int]

CAR = "car"
PEDESTRIAN = "pedestrian"

ACTION_SPEED = {"Stop": 0, "Slow": 1, "Normal": 2, "Fast": 3}
DEFAULT_ACTION = "Normal"


@dataclass(frozen=True)
class ObservationConfig:
    r_fov: int
    r_vic: int

    def __post_init__(self) -> None:
        if not 0 < self.r_fov <= self.r_vic:
            raise ConfigurationError(
                "need 0 < r_fov <= r_vic, got r_fov=%d r_vic=%d" % (self.r_fov, self.r_vic)
            )


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
        if len(set(self.action_priority)) != len(self.action_priority):
            raise ConfigurationError("duplicate action in priority order")
        if DEFAULT_ACTION not in self.action_priority:
            raise ConfigurationError("priority order must include %r" % DEFAULT_ACTION)
        for action in self.action_priority:
            if action not in ACTION_SPEED:
                raise ConfigurationError("unknown action %r (no speed defined)" % action)
        ids = [h.id for h in self.hypotheses]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate hypothesis ids in rule set %r" % self.name)
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
    observation: ObservationConfig
    steps: int
    close_radius: int = 2
    near_radius: int = 6
    vocabulary: PredicateVocabulary = None  # filled by default_vocabulary() if omitted

    def __post_init__(self) -> None:
        if self.grid < 8:
            raise ConfigurationError("grid too small")
        if not self.roads:
            raise ConfigurationError("at least one road line is required")
        if any(not 0 <= r < self.grid for r in self.roads):
            raise ConfigurationError("road line outside grid")
        if len(self.roads) < 2:
            raise ConfigurationError("need at least two road lines to form routes")
        if self.cars < 1 or self.pedestrians < 0 or self.steps < 1:
            raise ConfigurationError("need at least one car, non-negative pedestrians, steps >= 1")
        if self.vocabulary is None:
            object.__setattr__(self, "vocabulary", default_vocabulary())
        if not 0 < self.close_radius < self.near_radius:
            raise ConfigurationError("need 0 < close_radius < near_radius")


@dataclass(frozen=True)
class AgentState:
    id: int
    kind: str
    route: Tuple[Cell, ...]
    route_pos: int
    moved: bool = True
    last_action: str = DEFAULT_ACTION

    @property
    def position(self) -> Cell:
        return self.route[self.route_pos]

    @property
    def heading(self) -> Cell:
        x0, y0 = self.route[self.route_pos]
        x1, y1 = self.route[(self.route_pos + 1) % len(self.route)]
        dx, dy = x1 - x0, y1 - y0
        return ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))


@dataclass(frozen=True)
class WorldState:
    grid: int
    agents: Tuple[AgentState, ...]
    intersections: FrozenSet[Cell]
    step: int = 0


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


# ---------------------------------------------------------------------------
# Built-in predicate vocabulary
# ---------------------------------------------------------------------------

def _is_pedestrian(world, ego, ent, scen):
    return ent.kind == PEDESTRIAN


def _is_car(world, ego, ent, scen):
    return ent.kind == CAR


def _in_intersection(world, ego, ent, scen):
    return ent.position in world.intersections


def _is_moving(world, ego, ent, scen):
    return ent.moved


def _close(world, ego, ent, scen):
    return chebyshev(ego.position, ent.position) <= scen.close_radius


def _near(world, ego, ent, scen):
    return chebyshev(ego.position, ent.position) <= scen.near_radius


def _ahead_of(world, ego, ent, scen):
    hx, hy = ego.heading
    dx, dy = ent.position[0] - ego.position[0], ent.position[1] - ego.position[1]
    return hx * dx + hy * dy > 0


def _left_of(world, ego, ent, scen):
    # Positive cross product: entity lies left of the ego's heading axis.
    hx, hy = ego.heading
    dx, dy = ent.position[0] - ego.position[0], ent.position[1] - ego.position[1]
    return hx * dy - hy * dx > 0


def _facing(world, ego, ent, scen):
    hx, hy = ent.heading
    dx, dy = ego.position[0] - ent.position[0], ego.position[1] - ent.position[1]
    return hx * dx + hy * dy > 0


def _same_heading(world, ego, ent, scen):
    return ent.heading == ego.heading


PredicateFn = Callable[[WorldState, AgentState, AgentState, ScenarioConfig], bool]

BUILTIN_PREDICATES: Dict[str, Tuple[PredicateCategory, PredicateFn]] = {
    "IsPedestrian": (PredicateCategory.MONADIC, _is_pedestrian),
    "IsCar": (PredicateCategory.MONADIC, _is_car),
    "InIntersection": (PredicateCategory.MONADIC, _in_intersection),
    "IsMoving": (PredicateCategory.MONADIC, _is_moving),
    "Close": (PredicateCategory.EGO_ENTITY, _close),
    "Near": (PredicateCategory.EGO_ENTITY, _near),
    "AheadOf": (PredicateCategory.EGO_ENTITY, _ahead_of),
    "LeftOf": (PredicateCategory.EGO_ENTITY, _left_of),
    "Facing": (PredicateCategory.ENTITY_EGO, _facing),
    "SameHeading": (PredicateCategory.ENTITY_EGO, _same_heading),
}

DEFAULT_PREDICATE_ORDER = (
    "IsPedestrian",
    "IsCar",
    "InIntersection",
    "IsMoving",
    "Close",
    "Near",
    "AheadOf",
    "LeftOf",
    "Facing",
    "SameHeading",
)


def default_vocabulary() -> PredicateVocabulary:
    return PredicateVocabulary(
        predicates=tuple((n, BUILTIN_PREDICATES[n][0]) for n in DEFAULT_PREDICATE_ORDER)
    )


def validate_vocabulary(vocab: PredicateVocabulary) -> None:
    """Every configured predicate must be one the simulator can evaluate."""
    for name, category in vocab.predicates:
        known = BUILTIN_PREDICATES.get(name)
        if known is None:
            raise ConfigurationError(
                "predicate %r has no simulator evaluator (known: %s)"
                % (name, ", ".join(sorted(BUILTIN_PREDICATES)))
            )
        if known[0] != category:
            raise ConfigurationError(
                "predicate %r has category %s, not %s" % (name, known[0].value, category.value)
            )


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
    center: Cell, horizontal: bool, reach: int, dwell: int = 0
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


def _car_routes(scenario: ScenarioConfig) -> List[Tuple[Cell, ...]]:
    roads = sorted(scenario.roads)
    routes = []
    for i in range(len(roads)):
        for j in range(i + 1, len(roads)):
            for p in range(len(roads)):
                for q in range(p + 1, len(roads)):
                    routes.append(_rect_loop(roads[i], roads[p], roads[j], roads[q]))
    return routes


def _pedestrian_routes(scenario: ScenarioConfig) -> List[Tuple[Cell, ...]]:
    roads = sorted(scenario.roads)
    reach = 3
    routes = []

    def in_grid(route: Tuple[Cell, ...]) -> bool:
        return all(0 <= x < scenario.grid and 0 <= y < scenario.grid for x, y in route)

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


def _intersection_cells(scenario: ScenarioConfig) -> FrozenSet[Cell]:
    cells: Set[Cell] = set()
    for rx in scenario.roads:
        for ry in scenario.roads:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    x, y = rx + dx, ry + dy
                    if 0 <= x < scenario.grid and 0 <= y < scenario.grid:
                        cells.add((x, y))
    return frozenset(cells)


def init_world(scenario: ScenarioConfig, seed: int) -> WorldState:
    """Reproducible placement: same (scenario, seed), same world."""
    validate_vocabulary(scenario.vocabulary)
    car_routes = _car_routes(scenario)
    ped_routes = _pedestrian_routes(scenario)
    capacity = len({c for r in car_routes for c in r})
    ped_capacity = len({c for r in ped_routes for c in r})
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
        occupied.add(route[pos])
        return AgentState(id=agent_id, kind=kind, route=route, route_pos=pos)

    for i in range(scenario.cars):
        agents.append(place(i, CAR, car_routes))
    for i in range(scenario.pedestrians):
        agents.append(place(scenario.cars + i, PEDESTRIAN, ped_routes))
    return WorldState(
        grid=scenario.grid,
        agents=tuple(agents),
        intersections=_intersection_cells(scenario),
        step=0,
    )


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def ground_entity(
    world: WorldState, ego: AgentState, ent: AgentState, scenario: ScenarioConfig
) -> QSentence:
    """The pair's Q-sentence: bit i is set iff the vocabulary's i-th predicate holds."""
    vocab = scenario.vocabulary
    bits = 0
    for i, (name, _) in enumerate(vocab.predicates):
        if BUILTIN_PREDICATES[name][1](world, ego, ent, scenario):
            bits |= 1 << i
    return QSentence(bits, vocab.T)


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
            action = a.last_action
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
            replace(
                a,
                route_pos=new_pos,
                moved=a.route[new_pos] != a.position,
                last_action=action,
            )
        )
    return WorldState(
        grid=world.grid,
        agents=tuple(new_agents),
        intersections=world.intersections,
        step=world.step + 1,
    )
