"""Dependency-DAG shapes.

Each shape function returns ``deps``: a list where ``deps[k]`` is the
list of unit indices unit *k* imports (all < k, so the list order is
already topological).
"""

from __future__ import annotations

import random


def chain(n: int) -> list[list[int]]:
    """u0 <- u1 <- u2 <- ...: the worst case for cascading rebuilds."""
    return [[] if k == 0 else [k - 1] for k in range(n)]


def tree(depth: int, fanout: int = 2) -> list[list[int]]:
    """A dependency tree: the root (unit 0) is imported by ``fanout``
    children, each of those by ``fanout`` more, down to ``depth`` levels.
    Leaves depend on their parent only."""
    deps: list[list[int]] = [[]]
    frontier = [0]
    for _level in range(depth - 1):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                deps.append([parent])
                next_frontier.append(len(deps) - 1)
        frontier = next_frontier
    return deps


def fanout(width: int) -> list[list[int]]:
    """Wide fan-out: one base unit imported by ``width`` independent
    units, plus one top unit importing them all.  The best case for
    parallel builds (the whole middle layer is one antichain) and
    the worst case for an interface edit to the base."""
    deps: list[list[int]] = [[]]
    deps.extend([0] for _ in range(width))
    deps.append(list(range(1, width + 1)))
    return deps


def diamond(width: int, depth: int) -> list[list[int]]:
    """Layered diamonds: one base unit, ``depth`` layers of ``width``
    units each depending on the whole previous layer, and one top unit
    depending on the last layer.  High fan-in, the shape of library
    stacks."""
    deps: list[list[int]] = [[]]
    previous = [0]
    for _level in range(depth):
        layer = []
        for _ in range(width):
            deps.append(list(previous))
            layer.append(len(deps) - 1)
        previous = layer
    deps.append(list(previous))
    return deps


def layered(layers: list[int], fan_in: int = 2,
            seed: int = 0) -> list[list[int]]:
    """``layers[i]`` units in layer i; each unit imports up to ``fan_in``
    random units of the previous layer."""
    rng = random.Random(seed)
    deps: list[list[int]] = []
    previous: list[int] = []
    for count in layers:
        current = []
        for _ in range(count):
            if previous:
                k = min(fan_in, len(previous))
                chosen = sorted(rng.sample(previous, rng.randint(1, k)))
            else:
                chosen = []
            deps.append(chosen)
            current.append(len(deps) - 1)
        previous = current
    return deps


def random_dag(n: int, max_deps: int = 3, seed: int = 0) -> list[list[int]]:
    """A random DAG: unit k imports up to ``max_deps`` units < k."""
    rng = random.Random(seed)
    deps: list[list[int]] = []
    for k in range(n):
        if k == 0:
            deps.append([])
            continue
        count = rng.randint(0, min(max_deps, k))
        deps.append(sorted(rng.sample(range(k), count)))
    return deps
