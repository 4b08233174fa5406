"""Grid world: placement, observation, grounding, rules, and dynamics."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grounding_reference as ref
from grounding_reference import chebyshev, vocabulary_of
from satisfaction_reference import bit
from semcom.comms import Architecture, ego_pools
from semcom.config import load_rule_set, load_run_config
from semcom.errors import ConfigurationError
from semcom.logic import Hypothesis, PredicateCategory, PredicateVocabulary
from semcom.selection import KeyEngine
from semcom.world import (
    ACTION_SPEED,
    CAR,
    DEFAULT_PREDICATE_ORDER,
    PEDESTRIAN,
    AgentState,
    ObservationConfig,
    RuleSet,
    ScenarioConfig,
    WorldState,
    default_vocabulary,
    ground_entity,
    init_world,
    step,
    validate_vocabulary,
)

ROOT = Path(__file__).resolve().parents[1]
VOCAB = default_vocabulary()


def scenario(**overrides):
    base = dict(
        name="t",
        grid=40,
        roads=(10, 30),
        cars=4,
        pedestrians=2,
        observation=ObservationConfig(r_fov=5, r_vic=15),
        steps=10,
        vocabulary=VOCAB,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def static_agent(aid, kind, pos):
    return AgentState(id=aid, kind=kind, route=(pos,), route_pos=0)


def hand_world(agents, grid=40, intersections=frozenset()):
    return WorldState(grid=grid, agents=tuple(agents), intersections=intersections)


def slot(name):
    return VOCAB.slot_of(name)


def truth_mask(rules, patterns):
    """Hypotheses witnessed by some observed pattern, as the sweep computes it."""
    engine = KeyEngine(rules.hypotheses, VOCAB.T)
    mask = 0
    for bits in patterns:
        mask |= engine.sat_mask(bits)
    return mask


# ----------------------------------------------------------------- configs


def test_observation_radii_are_ordered():
    with pytest.raises(ConfigurationError):
        ObservationConfig(r_fov=0, r_vic=5)
    with pytest.raises(ConfigurationError):
        ObservationConfig(r_fov=6, r_vic=5)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        scenario(grid=4)
    with pytest.raises(ConfigurationError):
        scenario(roads=(10,))
    with pytest.raises(ConfigurationError):
        scenario(roads=(10, 99))
    with pytest.raises(ConfigurationError):
        scenario(cars=0)
    with pytest.raises(ConfigurationError):
        scenario(close_radius=6, near_radius=6)


def test_rule_set_validation():
    h = Hypothesis.from_constraints(1, {0: 1}, "Stop")
    good = ("Stop", "Slow", "Fast", "Normal")
    RuleSet(name="ok", hypotheses=(h,), action_priority=good)
    with pytest.raises(ConfigurationError):
        RuleSet(name="x", hypotheses=(), action_priority=good)
    with pytest.raises(ConfigurationError):
        RuleSet(name="x", hypotheses=(h,), action_priority=("Stop", "Stop", "Normal"))
    with pytest.raises(ConfigurationError):
        RuleSet(name="x", hypotheses=(h,), action_priority=("Stop", "Slow"))
    with pytest.raises(ConfigurationError):
        RuleSet(name="x", hypotheses=(h,), action_priority=("Stop", "Creep", "Normal"))
    with pytest.raises(ConfigurationError):
        RuleSet(name="x", hypotheses=(h, h), action_priority=good)
    with pytest.raises(ConfigurationError):
        RuleSet(
            name="x",
            hypotheses=(Hypothesis.from_constraints(1, {0: 1}, "Slow"),),
            action_priority=("Stop", "Normal"),
        )


def test_vocabulary_must_map_onto_simulator_evaluators():
    with pytest.raises(ConfigurationError):
        validate_vocabulary(
            PredicateVocabulary(predicates=(("Mystery", PredicateCategory.MONADIC),))
        )
    with pytest.raises(ConfigurationError):
        validate_vocabulary(
            PredicateVocabulary(
                predicates=(("Close", PredicateCategory.MONADIC),)  # wrong category
            )
        )
    validate_vocabulary(VOCAB)
    # a scenario cannot carry a vocabulary that grounding has no bit for
    with pytest.raises(ConfigurationError, match="Mystery"):
        scenario(
            vocabulary=PredicateVocabulary(predicates=(("Mystery", PredicateCategory.MONADIC),))
        )


# ----------------------------------------------------------------- placement


def test_init_world_is_deterministic():
    cfg = scenario()
    assert init_world(cfg, seed=3) == init_world(cfg, seed=3)


def test_init_world_seeds_differ():
    cfg = scenario(cars=8, pedestrians=4)
    assert init_world(cfg, seed=1) != init_world(cfg, seed=2)


def test_population_on_a_large_grid():
    cfg = scenario(grid=241, roads=(40, 120, 200), cars=20, pedestrians=8)
    world = init_world(cfg, seed=0)
    assert len(world.agents) == 28
    kinds = [a.kind for a in world.agents]
    assert kinds[:20] == [CAR] * 20 and kinds[20:] == [PEDESTRIAN] * 8
    assert [a.id for a in world.agents] == list(range(28))
    assert all(0 <= x < 241 and 0 <= y < 241 for a in world.agents for x, y in [a.position])


def test_zero_pedestrians_is_valid():
    world = init_world(scenario(pedestrians=0), seed=5)
    assert all(a.kind == CAR for a in world.agents)


def test_overfull_world_is_rejected():
    with pytest.raises(ConfigurationError):
        init_world(scenario(grid=8, roads=(2, 5), cars=60, pedestrians=0), seed=0)


def test_a_full_route_layout_refuses_rather_than_stacks_agents():
    # 40 cars fill the route capacity exactly; on these seeds 64 draws
    # find no free cell for the last car, which must not share a cell
    cfg = scenario(grid=20, roads=(5, 15), cars=40, pedestrians=0)
    for seed in (11, 13, 15):
        with pytest.raises(ConfigurationError, match=r"no free cell for agent 39 \(car\)"):
            init_world(cfg, seed)
    world = init_world(cfg, seed=0)
    assert len({a.position for a in world.agents}) == 40


def test_intersections_are_blocks_around_road_crossings():
    world = init_world(scenario(), seed=0)
    for cx, cy in [(10, 10), (10, 30), (30, 10), (30, 30)]:
        assert (cx, cy) in world.intersections
        assert (cx + 1, cy - 1) in world.intersections
        assert (cx + 2, cy) not in world.intersections


# --------------------------------------------------------------- observation


def test_visibility_boundary_is_inclusive():
    obs = ObservationConfig(r_fov=3, r_vic=7)
    world = hand_world(
        [
            static_agent(0, CAR, (10, 10)),
            static_agent(1, CAR, (13, 10)),   # exactly r_fov away
            static_agent(2, CAR, (14, 10)),   # one past
            static_agent(3, CAR, (17, 10)),   # exactly r_vic away
            static_agent(4, CAR, (18, 10)),   # one past
        ]
    )
    view = ego_pools(world, obs, Architecture.zones)[0]
    assert view.fov_ids == (1,)
    assert view.vic_ids == (1, 2, 3)


def test_fov_is_contained_in_vicinity():
    # only cars decide, so only cars get a view
    cfg = scenario(cars=8, pedestrians=4)
    world = init_world(cfg, seed=11)
    views = ego_pools(world, cfg.observation, Architecture.zones)
    assert sorted(views) == [a.id for a in world.agents if a.kind == CAR]
    for ego_id, view in views.items():
        assert set(view.fov_ids) <= set(view.vic_ids)
        assert ego_id not in view.vic_ids


def test_isolated_ego_sees_nothing():
    world = hand_world([static_agent(0, CAR, (10, 10)), static_agent(1, CAR, (39, 39))])
    obs = ObservationConfig(r_fov=3, r_vic=7)
    view = ego_pools(world, obs, Architecture.zones)[0]
    assert view.fov_ids == ()
    assert view.vic_ids == ()


# ----------------------------------------------------------------- grounding


def moving_agent(aid, kind, cells, pos=0):
    return AgentState(id=aid, kind=kind, route=tuple(cells), route_pos=pos)


def test_grounding_matches_hand_truth_assignment():
    # ego drives east along y=10; entities placed around it
    ego = moving_agent(0, CAR, [(10, 10), (11, 10)])
    ahead_same = moving_agent(1, CAR, [(14, 10), (15, 10)])       # ahead, same heading
    left_facing = moving_agent(2, PEDESTRIAN, [(10, 14), (10, 13)])  # left side, walking toward ego
    behind_far = moving_agent(3, CAR, [(3, 10), (2, 10)])         # behind, facing away
    world = hand_world([ego, ahead_same, left_facing, behind_far],
                       intersections=frozenset({(14, 10)}))
    cfg = scenario()

    q1 = ground_entity(world, ego, ahead_same, cfg)
    assert bit(q1, slot("IsCar")) == 1
    assert bit(q1, slot("IsPedestrian")) == 0
    assert bit(q1, slot("InIntersection")) == 1
    assert bit(q1, slot("IsMoving")) == 1
    assert bit(q1, slot("Close")) == 0      # chebyshev 4 > 2
    assert bit(q1, slot("Near")) == 1       # 4 <= 6
    assert bit(q1, slot("AheadOf")) == 1
    assert bit(q1, slot("LeftOf")) == 0
    assert bit(q1, slot("Facing")) == 0     # heading east, away from ego
    assert bit(q1, slot("SameHeading")) == 1

    q2 = ground_entity(world, ego, left_facing, cfg)
    assert bit(q2, slot("IsPedestrian")) == 1
    assert bit(q2, slot("AheadOf")) == 0    # perpendicular to ego heading
    assert bit(q2, slot("LeftOf")) == 1
    assert bit(q2, slot("Facing")) == 1     # walking south toward ego row

    q3 = ground_entity(world, ego, behind_far, cfg)
    assert bit(q3, slot("AheadOf")) == 0
    assert bit(q3, slot("Near")) == 0       # distance 7
    assert bit(q3, slot("Facing")) == 0


def test_close_and_near_use_scenario_radii():
    ego = static_agent(0, CAR, (10, 10))
    other = static_agent(1, CAR, (13, 10))
    world = hand_world([ego, other])
    near_cfg = scenario(close_radius=3, near_radius=6)
    far_cfg = scenario(close_radius=2, near_radius=3)
    assert bit(ground_entity(world, ego, other, near_cfg), slot("Close")) == 1
    assert bit(ground_entity(world, ego, other, far_cfg), slot("Close")) == 0


def test_dwelling_pedestrian_grounds_as_not_moving():
    # route repeats a cell to pause there; heading collapses to zero
    ego = static_agent(0, CAR, (10, 10))
    ped = moving_agent(1, PEDESTRIAN, [(12, 10), (12, 10), (13, 10)], pos=0)
    world = hand_world([ego, ped])
    walked = step(world, {0: "Stop"})
    by_id = {a.id: a for a in walked.agents}
    ped_after = by_id[1]
    assert ped_after.position == (12, 10)
    assert ped_after.moved is False
    q = ground_entity(walked, by_id[0], ped_after, scenario())
    assert bit(q, slot("IsMoving")) == 0


def shipped_scenario(path):
    return load_run_config(str(ROOT / path)).scenarios[0]


def seeded_worlds(scen, seeds, steps):
    """Worlds at each of the first steps ticks; cars cycle through every action."""
    actions = sorted(ACTION_SPEED)
    for seed in seeds:
        world = init_world(scen, seed)
        for tick in range(steps):
            yield world
            world = step(world, {
                a.id: actions[(a.id + tick) % len(actions)] for a in world.agents if a.kind == CAR
            })


GROUNDING_VOCABULARIES = (
    VOCAB,
    vocabulary_of(tuple(reversed(DEFAULT_PREDICATE_ORDER))),
    vocabulary_of(("Facing", "IsMoving", "SameHeading")),
)


@pytest.mark.parametrize(
    "path,seeds,steps",
    [("configs/desk.yaml", (1, 2), 6), ("perfbench/dense.yaml", (1,), 3)],
)
def test_grounding_matches_the_per_predicate_reference_on_every_pair(path, seeds, steps):
    base = shipped_scenario(path)
    scenarios = [replace(base, vocabulary=v) for v in GROUNDING_VOCABULARIES]
    checked = 0
    for world in seeded_worlds(base, seeds, steps):
        for ego in world.agents:
            for ent in world.agents:
                if ent.id == ego.id:
                    continue
                for scen in scenarios:
                    expected = 0
                    for i, (name, _) in enumerate(scen.vocabulary.predicates):
                        if ref.PREDICATES[name](world, ego, ent, scen):
                            expected |= 1 << i
                    assert ground_entity(world, ego, ent, scen) == expected, (ego, ent)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("path", ["configs/desk.yaml", "perfbench/dense.yaml"])
def test_position_and_heading_follow_the_route_after_every_step(path):
    headings = set()
    for world in seeded_worlds(shipped_scenario(path), (3,), 8):
        for a in world.agents:
            assert a.position == ref.position(a)
            assert a.heading == ref.heading(a)
            headings.add(a.heading)
    # every direction and a dwell: the worlds exercise each heading
    assert headings >= {(1, 0), (-1, 0), (0, 1), (0, -1)}


# ------------------------------------------------------------------- rules


def stop_slow_rules():
    return RuleSet(
        name="two",
        hypotheses=(
            Hypothesis.from_constraints(1, {slot("IsPedestrian"): 1}, "Stop"),
            Hypothesis.from_constraints(2, {slot("IsCar"): 1}, "Slow"),
        ),
        action_priority=("Stop", "Slow", "Fast", "Normal"),
    )


def test_hypotheses_are_existential_over_evidence():
    rules = stop_slow_rules()
    ped = 1 << slot("IsPedestrian")
    car = 1 << slot("IsCar")
    assert truth_mask(rules, []) == 0b00
    assert truth_mask(rules, [ped]) == 0b01
    assert truth_mask(rules, [ped, car]) == 0b11


@given(st.sets(st.integers(min_value=0, max_value=1023), max_size=6), st.data())
@settings(max_examples=100)
def test_more_evidence_never_retracts_a_hypothesis(bits, data):
    rules = stop_slow_rules()
    pool = sorted(bits)
    sub_size = data.draw(st.integers(min_value=0, max_value=len(pool)))
    before = truth_mask(rules, pool[:sub_size])
    after = truth_mask(rules, pool)
    assert before & ~after == 0


def test_action_defaults_to_normal_and_follows_priority():
    rules = stop_slow_rules()
    assert rules.action_of(0b00) == "Normal"
    assert rules.action_of(0b10) == "Slow"
    assert rules.action_of(0b11) == "Stop"


def test_an_action_ranked_after_normal_never_wins():
    rules = RuleSet(
        name="lazy",
        hypotheses=(Hypothesis.from_constraints(1, {slot("IsCar"): 1}, "Fast"),),
        action_priority=("Stop", "Normal", "Fast"),
    )
    assert rules.action_of(0b1) == "Normal"


# ----------------------------------------------------------------- dynamics


def test_step_needs_an_action_for_every_car():
    world = init_world(scenario(pedestrians=0, cars=2), seed=0)
    with pytest.raises(ConfigurationError):
        step(world, {0: "Stop"})
    with pytest.raises(ConfigurationError):
        step(world, {0: "Stop", 1: "Dash"})


def test_cars_advance_by_action_speed():
    route = tuple((x, 10) for x in range(10, 20))
    car = moving_agent(0, CAR, route)
    world = hand_world([car])
    for action, dist in [("Stop", 0), ("Slow", 1), ("Normal", 2), ("Fast", 3)]:
        moved = {a.id: a for a in step(world, {0: action}).agents}[0]
        assert moved.position == (10 + dist, 10)
        assert moved.moved is (dist > 0)


def test_all_stop_freezes_a_car_only_world():
    cfg = scenario(pedestrians=0, cars=5)
    world = init_world(cfg, seed=9)
    frozen = step(world, {a.id: "Stop" for a in world.agents})
    assert [a.position for a in frozen.agents] == [a.position for a in world.agents]


def test_pedestrians_walk_one_cell_regardless_of_car_actions():
    cfg = scenario(cars=2, pedestrians=2)
    world = init_world(cfg, seed=4)
    frozen = step(world, {a.id: "Stop" for a in world.agents if a.kind == CAR})
    for before, after in zip(world.agents, frozen.agents):
        if before.kind == PEDESTRIAN:
            assert after.route_pos == (before.route_pos + 1) % len(before.route)
        else:
            assert after.position == before.position


def test_route_wraps_around():
    route = ((0, 0), (1, 0), (1, 1), (0, 1))
    world = hand_world([moving_agent(0, CAR, route, pos=3)], grid=8)
    assert {a.id: a for a in step(world, {0: "Slow"}).agents}[0].position == (0, 0)


def test_two_step_trace_is_reproducible():
    # frozen from a hand-audited run: five cars, two walkers, seed 7
    cfg = scenario(cars=5, pedestrians=2, steps=2)
    rules = load_rule_set("core", VOCAB)
    engine = KeyEngine(rules.hypotheses, VOCAB.T)
    world = init_world(cfg, seed=7)
    assert [(a.id, a.position) for a in world.agents] == [
        (0, (20, 30)), (1, (21, 10)), (2, (10, 18)), (3, (30, 14)),
        (4, (10, 22)), (5, (30, 29)), (6, (10, 8)),
    ]
    seen = []
    for _ in range(2):
        actions = {}
        by_id = {a.id: a for a in world.agents}
        for ego_id, view in ego_pools(world, cfg.observation, Architecture.zones).items():
            mask = 0
            for ent_id in view.fov_ids:
                mask |= engine.sat_mask(ground_entity(world, by_id[ego_id], by_id[ent_id], cfg))
            actions[ego_id] = rules.action_of(mask)
        world = step(world, actions)
        seen.append((dict(sorted(actions.items())), [a.position for a in world.agents]))
    assert seen == [
        (
            {0: "Normal", 1: "Normal", 2: "Fast", 3: "Normal", 4: "Normal"},
            [(18, 30), (19, 10), (10, 21), (30, 12), (10, 24), (30, 28), (10, 9)],
        ),
        (
            {0: "Normal", 1: "Normal", 2: "Fast", 3: "Normal", 4: "Normal"},
            [(16, 30), (17, 10), (10, 24), (30, 10), (10, 26), (30, 27), (10, 10)],
        ),
    ]


def test_chebyshev_distance():
    assert chebyshev((0, 0), (3, -4)) == 4
    assert chebyshev((2, 2), (2, 2)) == 0
