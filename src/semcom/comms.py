"""Communication architectures: who can tell the ego about what.

Three pool flavours share one contract: the pool is the set of entities
an ego could receive but has not already seen itself (its own FOV is
subtracted), restricted to its vicinity ball.  The downlink then picks
at most k of them, by semantic value or uniformly at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from .errors import ConfigurationError
from .world import CAR, ObservationConfig, WorldState

SENSOR_GNA = "sensor-gna"
SINGLE_ZONE_GNA = "single-zone-gna"
MULTI_ZONE_LNA = "multi-zone-lna"

ARCHITECTURE_KINDS = (SENSOR_GNA, SINGLE_ZONE_GNA, MULTI_ZONE_LNA)


@dataclass(frozen=True)
class Architecture:
    kind: str
    zones: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ARCHITECTURE_KINDS:
            raise ConfigurationError(
                "unknown architecture %r (choose from %s)"
                % (self.kind, ", ".join(ARCHITECTURE_KINDS))
            )
        if self.zones < 1:
            raise ConfigurationError("zone grid must be at least 1x1")


@dataclass(frozen=True)
class EgoPools:
    """One car's view of one world state; every id tuple is ascending."""

    fov_ids: Tuple[int, ...]
    vic_ids: Tuple[int, ...]
    pools: Mapping[str, Tuple[int, ...]]


def ego_pools(world: WorldState, obs: ObservationConfig, zones: int) -> Dict[int, EgoPools]:
    """FOV, vicinity and the three architecture pools of every car.

    sensor-gna: roadside sensing covers the ego's whole vicinity.
    single-zone-gna: every car uploads its FOV contents and announces
        its own presence; the ego can receive whatever landed in its
        vicinity.  Pedestrians carry no transmitter, so one nobody sees
        stays invisible to the assistant.
    multi-zone-lna: as single-zone, but only uploads from cars in the
        ego's zone of the zones x zones grid reach it.

    One pairwise pass over coordinate lists fills every agent's FOV and
    vicinity ball with inline Chebyshev comparisons.
    """
    agents = world.agents
    ids = [a.id for a in agents]
    xs = [a.position[0] for a in agents]
    ys = [a.position[1] for a in agents]
    r_vic, r_fov = obs.r_vic, obs.r_fov
    vic_lists: List[List[int]] = [[] for _ in agents]
    fov_lists: List[List[int]] = [[] for _ in agents]
    for i in range(len(agents)):
        xi, yi, id_i, vic_i, fov_i = xs[i], ys[i], ids[i], vic_lists[i], fov_lists[i]
        for j in range(i + 1, len(agents)):
            dx = xs[j] - xi
            dy = ys[j] - yi
            if -r_vic <= dx <= r_vic and -r_vic <= dy <= r_vic:
                vic_i.append(ids[j])
                vic_lists[j].append(id_i)
                if -r_fov <= dx <= r_fov and -r_fov <= dy <= r_fov:
                    fov_i.append(ids[j])
                    fov_lists[j].append(id_i)
    grid = world.grid
    uploads_all: Set[int] = set()
    uploads_by_zone: Dict[Tuple[int, int], Set[int]] = {}
    car_views = []
    for a, vic, fov in zip(agents, vic_lists, fov_lists):
        if a.kind != CAR:
            continue
        # the pair loop fills both lists in agent order; one in-place pass sorts them by id
        vic.sort()
        fov.sort()
        x, y = a.position
        # half-open zone rectangles; edge cells clamp inward
        zone = (min(x * zones // grid, zones - 1), min(y * zones // grid, zones - 1))
        uploads_all.add(a.id)
        uploads_all.update(fov)
        zone_src = uploads_by_zone.setdefault(zone, set())
        zone_src.add(a.id)
        zone_src.update(fov)
        car_views.append((a.id, zone, vic, fov))

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
