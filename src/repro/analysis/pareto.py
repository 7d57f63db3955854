"""Pareto-front extraction for accuracy / efficiency trade-offs."""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if point ``a`` Pareto-dominates ``b`` (all objectives maximised).

    ``a`` dominates ``b`` when it is at least as good in every objective and
    strictly better in at least one.
    """
    if len(a) != len(b):
        raise ValueError("points must have the same number of objectives")
    at_least_as_good = all(x >= y for x, y in zip(a, b))
    strictly_better = any(x > y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def pareto_front(
    items: Sequence[T],
    objectives: Callable[[T], Sequence[float]],
) -> List[T]:
    """Return the subset of ``items`` not dominated by any other item.

    Parameters
    ----------
    items:
        Candidate configurations (e.g. sweep results).
    objectives:
        Function mapping an item to a tuple of objectives, all maximised
        (negate any metric that should be minimised, e.g. latency).
    """
    points = [tuple(objectives(item)) for item in items]
    front: List[T] = []
    for i, item in enumerate(items):
        if not any(dominates(points[j], points[i]) for j in range(len(items)) if j != i):
            front.append(item)
    return front
