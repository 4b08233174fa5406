"""Communication architectures: who can tell the ego about what.

Three pool flavours share one contract: the pool is the set of entities
an ego could receive but has not already seen itself (its own FOV is
subtracted), restricted to its vicinity ball.  The downlink then picks
at most k of them, by semantic value or uniformly at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from .world import CAR, WorldState

SENSOR_GNA = "sensor-gna"
SINGLE_ZONE_GNA = "single-zone-gna"
MULTI_ZONE_LNA = "multi-zone-lna"

ARCHITECTURE_KINDS = (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA)

ZONES = 2  # multi-zone-lna cuts the grid into a ZONES x ZONES partition


@dataclass(frozen=True)
class EgoPools:
    """One car's view of one world state; every id tuple is ascending."""

    fov_ids: Tuple[int, ...]
    vic_ids: Tuple[int, ...]
    pools: Mapping[str, Tuple[int, ...]]


def ego_pools(world: WorldState, r_fov: int, r_vic: int) -> Dict[int, EgoPools]:
    """FOV, vicinity and the three architecture pools of every car.

    sensor-gna: roadside sensing covers the ego's whole vicinity.
    single-zone-gna: every car uploads its FOV contents and announces
        its own presence; the ego can receive whatever landed in its
        vicinity.  Pedestrians carry no transmitter, so one nobody sees
        stays invisible to the assistant.
    multi-zone-lna: as single-zone, but only uploads from cars in the
        ego's zone of the ZONES x ZONES grid reach it.

    One (id, x, y) list is sorted by id per call.  Each car scans it once
    against the coordinate windows of its Chebyshev balls of radii r_fov
    and r_vic, so its vicinity and FOV ids come out ascending for any
    world.agents order.
    """
    points = sorted((a.id, a.position[0], a.position[1]) for a in world.agents)
    grid = world.grid
    uploads_all: Set[int] = set()
    uploads_by_zone: Dict[Tuple[int, int], Set[int]] = {}
    car_views = []
    for a in world.agents:
        if a.kind != CAR:
            continue
        ego = a.id
        x, y = a.position
        vx0, vx1, vy0, vy1 = x - r_vic, x + r_vic, y - r_vic, y + r_vic
        fx0, fx1, fy0, fy1 = x - r_fov, x + r_fov, y - r_fov, y + r_fov
        vic: List[int] = []
        fov: List[int] = []
        for j, xj, yj in points:
            if vx0 <= xj <= vx1 and vy0 <= yj <= vy1 and j != ego:
                vic.append(j)
                if fx0 <= xj <= fx1 and fy0 <= yj <= fy1:
                    fov.append(j)
        # half-open zone rectangles; edge cells clamp inward
        zone = (min(x * ZONES // grid, ZONES - 1), min(y * ZONES // grid, ZONES - 1))
        uploads_all.add(ego)
        uploads_all.update(fov)
        zone_src = uploads_by_zone.setdefault(zone, set())
        zone_src.add(ego)
        zone_src.update(fov)
        car_views.append((ego, zone, vic, fov))

    out: Dict[int, EgoPools] = {}
    for ego_id, zone, vic, fov in car_views:
        fov_set = set(fov)
        sensor = tuple([i for i in vic if i not in fov_set])
        zone_src = uploads_by_zone[zone]
        out[ego_id] = EgoPools(
            fov_ids=tuple(fov),
            vic_ids=tuple(vic),
            pools={
                SENSOR_GNA: sensor,
                SINGLE_ZONE_GNA: tuple([i for i in sensor if i in uploads_all]),
                MULTI_ZONE_LNA: tuple([i for i in sensor if i in zone_src]),
            },
        )
    return out
