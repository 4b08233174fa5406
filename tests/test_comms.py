"""Uplink pools per architecture, and what the downlink sends from them."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pools_reference import ball, reference_pool_ids, zone_of
from semcom import metrics
from semcom.comms import (
    ARCHITECTURE_KINDS,
    MULTI_ZONE_LNA,
    SENSOR_GNA,
    SINGLE_ZONE_GNA,
    ZONES,
    ego_pools,
)
from semcom.config import load_rule_set
from semcom.errors import ConfigurationError
from semcom.metrics import StepView, Trajectory, evaluate_cell
from semcom.selection import RANDOM, SEMANTIC, KeyEngine, downlink
from semcom.world import (
    CAR,
    PEDESTRIAN,
    AgentState,
    T,
    ScenarioConfig,
    WorldState,
    ground_entity,
    init_world,
    step,
)

R_FOV, R_VIC = 3, 12


def static_agent(aid, kind, pos):
    return AgentState(id=aid, kind=kind, route=(pos,), route_pos=0)


def scene(agents, grid=40, intersections=frozenset()):
    return WorldState(grid=grid, agents=tuple(agents), intersections=intersections)


def hand_scene():
    """Five agents arranged so the three pool flavours all differ.

    Ego car 0 sees car 1 only.  Car 1's camera covers walker 3, car 2
    announces itself from the neighbouring zone, and walker 4 stands in
    nobody's camera cone.  Walkers carry no transmitter.
    """
    return scene(
        [
            static_agent(0, CAR, (10, 10)),
            static_agent(1, CAR, (10, 13)),
            static_agent(2, CAR, (10, 20)),
            static_agent(3, PEDESTRIAN, (10, 16)),
            static_agent(4, PEDESTRIAN, (18, 10)),
        ]
    )


def cfg(**overrides):
    base = dict(
        name="t", grid=40, roads=(10, 30), cars=3, pedestrians=2,
        r_fov=R_FOV, r_vic=R_VIC, steps=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def grounded(world, ego_id, ids):
    """Pattern bits of each pool entity as the ego grounds it."""
    by_id = {a.id: a for a in world.agents}
    return {i: ground_entity(world, by_id[ego_id], by_id[i]) for i in ids}


def pools_of(world):
    """Car 0's pool per architecture kind (2x2 zones), as the sweep reads them."""
    return ego_pools(world, R_FOV, R_VIC)[0].pools


def test_zone_partition_is_half_open():
    assert ZONES == 2
    assert zone_of((19, 0), 40) == (0, 0)
    assert zone_of((20, 0), 40) == (1, 0)
    assert zone_of((39, 39), 40) == (1, 1)
    # an odd grid still splits into whole cells, the larger half last
    assert zone_of((18, 20), 41) == (0, 0)
    assert zone_of((20, 21), 41) == (0, 1)
    assert zone_of((40, 40), 41) == (1, 1)


def test_hand_scene_pools_match_manual_enumeration():
    pools = pools_of(hand_scene())
    assert pools[SENSOR_GNA] == (2, 3, 4)
    assert pools[SINGLE_ZONE_GNA] == (2, 3)
    assert pools[MULTI_ZONE_LNA] == (3,)


def test_unseen_walker_reaches_only_the_sensor_pool():
    pools = pools_of(hand_scene())
    assert 4 in pools[SENSOR_GNA]
    assert 4 not in pools[SINGLE_ZONE_GNA]
    assert 4 not in pools[MULTI_ZONE_LNA]


def test_pool_never_includes_fov_or_ego():
    world = hand_scene()
    for kind in ARCHITECTURE_KINDS:
        ids = set(pools_of(world)[kind])
        assert 0 not in ids
        assert ids.isdisjoint(ball(world, 0, R_FOV))


def test_alone_in_zone_gets_an_empty_local_pool():
    world = scene(
        [
            static_agent(0, CAR, (5, 15)),
            static_agent(2, CAR, (5, 21)),      # in range, but across the zone line
            static_agent(3, PEDESTRIAN, (5, 10)),  # ego zone, but no transmitter
        ]
    )
    assert pools_of(world)[MULTI_ZONE_LNA] == ()
    assert pools_of(world)[SENSOR_GNA] == (2, 3)


def test_pools_nest_across_architectures_on_simulated_worlds():
    config = cfg(cars=8, pedestrians=4, r_fov=4, r_vic=14)
    for seed in range(6):
        world = init_world(config, seed=seed)
        for ego_id, seen in ego_pools(world, config.r_fov, config.r_vic).items():
            sensor = set(seen.pools[SENSOR_GNA])
            single = set(seen.pools[SINGLE_ZONE_GNA])
            multi = set(seen.pools[MULTI_ZONE_LNA])
            assert multi <= single <= sensor
            assert sensor <= set(ball(world, ego_id, config.r_vic))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cars=st.integers(min_value=1, max_value=12),
    pedestrians=st.integers(min_value=0, max_value=8),
    r_fov=st.integers(min_value=1, max_value=6),
    extra_vic=st.integers(min_value=0, max_value=12),
    steps=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_ego_pools_match_the_per_ego_reference(
    seed, cars, pedestrians, r_fov, extra_vic, steps
):
    r_vic = r_fov + extra_vic
    world = init_world(
        cfg(cars=cars, pedestrians=pedestrians, r_fov=r_fov, r_vic=r_vic), seed=seed
    )
    rng = random.Random(seed)
    for _ in range(steps):
        world = step(world, {a.id: rng.choice(("Stop", "Slow", "Normal", "Fast"))
                             for a in world.agents if a.kind == CAR})
    seen = ego_pools(world, r_fov, r_vic)
    assert sorted(seen) == [a.id for a in world.agents if a.kind == CAR]
    for ego_id, view in seen.items():
        assert view.fov_ids == ball(world, ego_id, r_fov)
        assert view.vic_ids == ball(world, ego_id, r_vic)
        for kind in ARCHITECTURE_KINDS:
            expected = reference_pool_ids(world, ego_id, kind, r_fov, r_vic)
            assert view.pools[kind] == expected


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_ego_pools_do_not_depend_on_agent_order(order):
    r_fov, r_vic = 4, 14
    config = cfg(cars=8, pedestrians=6, r_fov=r_fov, r_vic=r_vic)
    for seed in range(4):
        world = init_world(config, seed=seed)
        agents = list(world.agents)
        if order == "reversed":
            agents.reverse()
        else:
            random.Random(seed).shuffle(agents)
        world = scene(agents, grid=world.grid, intersections=world.intersections)
        seen = ego_pools(world, r_fov, r_vic)
        assert sorted(seen) == sorted(a.id for a in agents if a.kind == CAR)
        for ego_id, view in seen.items():
            for ids in (view.fov_ids, view.vic_ids, *view.pools.values()):
                assert list(ids) == sorted(set(ids))
            assert view.fov_ids == ball(world, ego_id, r_fov)
            assert view.vic_ids == ball(world, ego_id, r_vic)
            for kind in ARCHITECTURE_KINDS:
                assert view.pools[kind] == reference_pool_ids(world, ego_id, kind, r_fov, r_vic)


def test_downlink_budget_edges(monkeypatch):
    # the scorer alone handles the edges: k = 0 sends nothing and
    # k >= len(pool) the whole pool under either strategy, without downlink
    world = hand_scene()
    rules = load_rule_set("core")
    engine = KeyEngine(rules.hypotheses, T)
    pool = pools_of(world)[SENSOR_GNA]
    qbits = grounded(world, 0, pool)
    whole = 0
    for ent_id in pool:
        whole |= engine.sat_mask(qbits[ent_id])
    assert whole  # sending the pool shows in the mask

    def masks(pool, budgets):
        """Masks of a one-view trajectory with an empty field of view."""
        view = StepView(fov_ids=(), qbits=qbits, pools={SENSOR_GNA: pool}, fi_mask=whole)
        trajectory = Trajectory(seed=0, views=({0: view},))
        return evaluate_cell(trajectory, [SENSOR_GNA], budgets, engine).records[0].strategy_masks

    monkeypatch.setattr(metrics, "downlink", lambda *args: pytest.fail("downlink was called"))
    edges = [(SEMANTIC, 0), (SEMANTIC, 9), (RANDOM, 0), (RANDOM, len(pool)), (RANDOM, 9)]
    assert masks(pool, edges) == (0, whole, 0, whole, whole)
    assert masks((), [(RANDOM, 2)]) == (0,)


def test_downlink_sends_the_whole_pool_ascending_at_any_budget_past_it():
    world = hand_scene()
    engine = KeyEngine(load_rule_set("core").hypotheses, T)
    pool = pools_of(world)[SENSOR_GNA]
    qbits = grounded(world, 0, pool)
    assert len(pool) > 1 and list(pool) == sorted(pool)
    for k in (len(pool), len(pool) + 1, 9):
        assert downlink(pool, qbits, k, SEMANTIC, engine, 0) == pool
        assert downlink(pool, qbits, k, RANDOM, None, 0) == pool
    assert downlink((), {}, 2, RANDOM, None, 0) == ()


def test_downlink_and_select_refuse_a_negative_budget():
    world = hand_scene()
    engine = KeyEngine(load_rule_set("core").hypotheses, T)
    pool = pools_of(world)[SENSOR_GNA]
    qbits = grounded(world, 0, pool)
    message = "budget k must be non-negative, got -1"
    for strategy in (SEMANTIC, RANDOM):
        with pytest.raises(ConfigurationError, match=message):
            downlink(pool, qbits, -1, strategy, engine, 0)
    for entries in ([(i, qbits[i]) for i in pool], []):
        with pytest.raises(ConfigurationError, match=message):
            engine.select(entries, -1)


def test_walker_near_crossing_wins_the_single_slot():
    # the walker inside the intersection block is the only pool entity
    # whose pattern covers any rule, so the semantic picker must take it
    world = scene(
        [
            static_agent(0, CAR, (10, 10)),
            static_agent(1, CAR, (10, 14)),
            static_agent(2, CAR, (18, 10)),
            static_agent(3, PEDESTRIAN, (10, 16)),
        ],
        intersections=frozenset({(10, 16)}),
    )
    rules = load_rule_set("core")
    pool = pools_of(world)[SENSOR_GNA]
    assert pool == (1, 2, 3)
    engine = KeyEngine(rules.hypotheses, T)
    assert downlink(pool, grounded(world, 0, pool), 1, SEMANTIC, engine, 0) == (3,)


def test_random_downlink_delegates_to_the_seeded_sampler():
    world = hand_scene()
    pool = pools_of(world)[SENSOR_GNA]
    qbits = grounded(world, 0, pool)
    for seed in (0, 7, 123):
        chosen = downlink(pool, qbits, 2, RANDOM, None, rng_seed=seed)
        assert chosen == tuple(random.Random(seed).sample(pool, 2))
