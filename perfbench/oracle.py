"""Verdict oracle that shares no code with drdkit.

Distances come from Floyd-Warshall. A strongly connected digraph is
distance-regular (Damerell, JCTB 31, 1981) when, for every h, i and j, the
count |{z : d(x,z) = i, d(z,y) = j}| is the same for all pairs (x, y) with
d(x,y) = h.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

INF = float("inf")


def distances(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[float]]:
    """All-pairs directed distances; INF where no path exists."""
    d = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in arcs:
        d[u][v] = 1.0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    return d


def verdict(n: int, arcs: Sequence[tuple[int, int]]) -> str:
    """"yes" when the digraph is distance-regular, "no" otherwise.

    Raises ValueError for a digraph that is not strongly connected, where
    distance-regularity is not defined."""
    d = distances(n, arcs)
    if any(INF in row for row in d):
        raise ValueError("digraph is not strongly connected")
    profile: dict[float, Counter] = {}
    for x in range(n):
        dx = d[x]
        for y in range(n):
            counts = Counter((dx[z], d[z][y]) for z in range(n))
            if profile.setdefault(dx[y], counts) != counts:
                return "no"
    return "yes"
