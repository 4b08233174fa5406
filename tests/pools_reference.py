"""Per-ego reference definitions of the vicinity ball and the pools.

``semcom.comms.ego_pools`` fills every car's FOV, vicinity and three
pools from one id-sorted scan per car.  The tests check it against
these definitions, which rescan the world once per ego and per uploader.
"""

from typing import Set

from grounding_reference import chebyshev
from semcom.comms import MULTI_ZONE_LNA, SENSOR_GNA, ZONES
from semcom.world import CAR


def ball(world, ego_id, radius):
    """Ids within the closed Chebyshev ball around an agent, itself excluded, ascending."""
    centre = {a.id: a for a in world.agents}[ego_id].position
    return tuple(sorted(
        a.id for a in world.agents
        if a.id != ego_id and chebyshev(a.position, centre) <= radius
    ))


def zone_of(position, grid):
    """Half-open ZONES x ZONES rectangle containing a cell (edge cells clamp inward)."""
    x, y = position
    return (min(x * ZONES // grid, ZONES - 1), min(y * ZONES // grid, ZONES - 1))


def reference_pool_ids(world, ego_id, kind, r_fov, r_vic):
    """Per-ego pool by definition: rescans every uploader's FOV."""
    vic = set(ball(world, ego_id, r_vic))
    fov = set(ball(world, ego_id, r_fov))
    if kind == SENSOR_GNA:
        candidates = vic
    else:
        if kind == MULTI_ZONE_LNA:
            ego_pos = {a.id: a for a in world.agents}[ego_id].position
            ego_zone = zone_of(ego_pos, world.grid)
            uploaders = [
                a for a in world.agents
                if a.kind == CAR
                and zone_of(a.position, world.grid) == ego_zone
            ]
        else:
            uploaders = [a for a in world.agents if a.kind == CAR]
        uploaded: Set[int] = set()
        for a in uploaders:
            uploaded.add(a.id)
            uploaded.update(ball(world, a.id, r_fov))
        candidates = uploaded & vic
    return tuple(sorted(candidates - fov - {ego_id}))
