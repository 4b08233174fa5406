"""Per-predicate reference semantics of the simulator's language.

``semcom.world.ground_entity`` evaluates all ten predicates inline at
constant bits from cached headings.  The tests check it against these
one-predicate-at-a-time definitions, which recompute every position and
heading from the agents' routes.  The reference keeps its own slot
order (the order of ``PREDICATES`` below) and its own radii (Close
within 2, Near within 6), so a wrong bit or radius in the simulator
shows as a mismatch.
"""

from semcom.world import CAR, PEDESTRIAN


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def position(agent):
    return agent.route[agent.route_pos]


def heading(agent):
    """Unit step toward the agent's next route cell; (0, 0) while it dwells."""
    x0, y0 = agent.route[agent.route_pos]
    x1, y1 = agent.route[(agent.route_pos + 1) % len(agent.route)]
    dx, dy = x1 - x0, y1 - y0
    return ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))


def is_pedestrian(world, ego, ent):
    return ent.kind == PEDESTRIAN


def is_car(world, ego, ent):
    return ent.kind == CAR


def in_intersection(world, ego, ent):
    return position(ent) in world.intersections


def is_moving(world, ego, ent):
    return ent.moved


def close(world, ego, ent):
    return chebyshev(position(ego), position(ent)) <= 2


def near(world, ego, ent):
    return chebyshev(position(ego), position(ent)) <= 6


def ahead_of(world, ego, ent):
    hx, hy = heading(ego)
    dx, dy = position(ent)[0] - position(ego)[0], position(ent)[1] - position(ego)[1]
    return hx * dx + hy * dy > 0


def left_of(world, ego, ent):
    # Positive cross product: entity lies left of the ego's heading axis.
    hx, hy = heading(ego)
    dx, dy = position(ent)[0] - position(ego)[0], position(ent)[1] - position(ego)[1]
    return hx * dy - hy * dx > 0


def facing(world, ego, ent):
    hx, hy = heading(ent)
    dx, dy = position(ego)[0] - position(ent)[0], position(ego)[1] - position(ent)[1]
    return hx * dx + hy * dy > 0


def same_heading(world, ego, ent):
    return heading(ent) == heading(ego)


PREDICATES = {
    "IsPedestrian": is_pedestrian,
    "IsCar": is_car,
    "InIntersection": in_intersection,
    "IsMoving": is_moving,
    "Close": close,
    "Near": near,
    "AheadOf": ahead_of,
    "LeftOf": left_of,
    "Facing": facing,
    "SameHeading": same_heading,
}
