import random
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from drdkit.corpus import (
    cycle,
    cycle_with_chord,
    debruijn,
    kautz,
    paley,
    paper6,
    random_sc,
)
from drdkit.digraph import Digraph, strongly_connected

# Selected with --hypothesis-profile=ci: a failing property prints the blob
# that replays it (@reproduce_failure), and no example has a deadline.
settings.register_profile("ci", print_blob=True, deadline=None)


def circulant(n: int, jumps: tuple[int, ...]) -> Digraph:
    return Digraph.from_arcs(n, [(x, (x + s) % n) for x in range(n) for s in jumps])


def strongly_connected_digraphs(max_n: int):
    """Hypothesis strategy: strongly connected simple digraphs on 1..max_n
    vertices. An arc set that is not strongly connected gets the arcs of the
    cycle 0 -> 1 -> ... -> n-1 -> 0 added, so every strongly connected
    digraph can be drawn as it is."""

    def make(n: int, bits: int) -> Digraph:
        positions = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = {p for i, p in enumerate(positions) if bits >> i & 1}
        if not strongly_connected(Digraph.from_arcs(n, arcs)):
            arcs |= {(v, (v + 1) % n) for v in range(n) if n > 1}
        return Digraph.from_arcs(n, sorted(arcs))

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(make, st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1))
    )


def traced_peak(call) -> int:
    """The peak of the memory traced while call runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def named_corpus() -> list[tuple[str, Digraph]]:
    """The fixed test corpus: positive families, negative families, the
    weak-DR strictness witness, a regular normal spectrally-maximum-diameter
    graph that is still not distance-regular, and a seeded batch of random
    graphs."""
    graphs: list[tuple[str, Digraph]] = [("k1", Digraph.from_arcs(1, []))]
    for n in range(2, 13):
        graphs.append((f"cycle{n}", cycle(n)))
    graphs.append(("paper6", paper6()))
    graphs.append(("paley7", paley(7)))
    graphs.append(("paley11", paley(11)))
    graphs.append(("kautz_2_1", kautz(2, 1)))
    graphs.append(("kautz_2_2", kautz(2, 2)))
    graphs.append(("kautz_2_3", kautz(2, 3)))
    graphs.append(("debruijn_2_2", debruijn(2, 2)))
    graphs.append(("debruijn_2_3", debruijn(2, 3)))
    # Regular and normal with as many distinct eigenvalues as diameter + 1,
    # yet not distance-regular: keeps the excess-equality test two-sided.
    graphs.append(("circulant8_145", circulant(8, (1, 4, 5))))
    for n in range(4, 9):
        graphs.append((f"chord{n}", cycle_with_chord(n)))
    rng = random.Random(20240805)
    for i in range(20):
        n = rng.randint(5, 8)
        p = rng.uniform(0.25, 0.65)
        graphs.append((f"random{i}", random_sc(n, p, seed=rng.randrange(1 << 30))))
    return graphs


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Digraph]]:
    return named_corpus()


@pytest.fixture(scope="session")
def fig6() -> Digraph:
    """The 6-vertex 2-regular distance-regular digraph."""
    return paper6()
