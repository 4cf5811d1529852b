"""Deterministic generators for positive and negative test digraphs."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import digraph
from .digraph import Digraph, _check_size
from .errors import InvalidParameter, ParseError
from .ratlin import _is_prime

# The 6-vertex 2-regular distance-regular digraph used throughout the test
# corpus: a -> b,c; b -> d,e; c -> d,e; d -> a,f; e -> a,f; f -> b,c.
_PAPER6_ARCS = (
    ("a", "b"), ("a", "c"),
    ("b", "d"), ("b", "e"),
    ("c", "d"), ("c", "e"),
    ("d", "a"), ("d", "f"),
    ("e", "a"), ("e", "f"),
    ("f", "b"), ("f", "c"),
)


def cycle(n: int) -> Digraph:
    """Directed cycle C_n."""
    if n < 2:
        raise InvalidParameter("cycle needs n >= 2")
    _check_size(n)
    return Digraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


def paper6() -> Digraph:
    """The 6-vertex girth-3 distance-regular digraph of valency 2."""
    labels = ("a", "b", "c", "d", "e", "f")
    index = {s: i for i, s in enumerate(labels)}
    return Digraph.from_arcs(6, [(index[u], index[v]) for u, v in _PAPER6_ARCS], labels)


def _check_word_count(first: int, d: int, n: int) -> None:
    """Check first * d**(n - 1) vertices, for 2 <= d <= 10, against the
    vertex limit before any word is built. d**(n - 1) >= 2**(n - 1), so an
    n - 1 past the limit's bit length fails without the power being formed."""
    limit = digraph.MAX_VERTICES
    if n - 1 > limit.bit_length():
        raise ParseError(f"{first} * {d}^{n - 1} vertices exceed the limit of {limit}")
    _check_size(first * d ** (n - 1))


def paley(q: int) -> Digraph:
    """Paley tournament on Z_q: x -> y iff y - x is a nonzero square mod q.

    Needs q prime with q = 3 (mod 4) so that -1 is not a square and the
    tournament is well defined.
    """
    _check_size(q)
    if not _is_prime(q):
        raise InvalidParameter(f"paley needs a prime, got {q}")
    if q % 4 != 3:
        raise InvalidParameter(f"paley needs q = 3 (mod 4), got {q}")
    is_square = np.zeros(q, dtype=bool)
    is_square[np.arange(1, q) ** 2 % q] = True  # 0 is not one: no loops
    x = np.arange(q)
    return Digraph(tuple(map(str, range(q))), is_square[(x - x[:, None]) % q])


def _shift_digraph(words: list[str], alphabet: str) -> Digraph:
    """The digraph on words, labeled by them, with an arc w -> w[1:] + c for
    each symbol c of alphabet, in order, that makes a word other than w."""
    index = {w: i for i, w in enumerate(words)}
    shifts = ((i, w, w[1:] + c) for i, w in enumerate(words) for c in alphabet)
    arcs = [(i, index[v]) for i, w, v in shifts if v != w and v in index]
    return Digraph.from_arcs(len(words), arcs, tuple(words))


def debruijn(d: int, n: int) -> Digraph:
    """Shift digraph on words of length n over d symbols, with the d loop
    arcs at constant words dropped so the result is simple.

    The classical construction keeps those loops; dropping them changes the
    degree sequence, so this family is corpus filler, not a canonical example
    of anything. Words are spelled in the digits 0-9, so d is at most 10.
    """
    if not 2 <= d <= 10 or n < 1:
        raise InvalidParameter("debruijn needs 2 <= d <= 10 and n >= 1")
    _check_word_count(d, d, n)
    alphabet = "0123456789"[:d]
    return _shift_digraph(["".join(w) for w in itertools.product(*[alphabet] * n)], alphabet)


def kautz(d: int, n: int) -> Digraph:
    """Kautz digraph K(d, n): words of length n over d + 1 symbols with no
    two consecutive symbols equal; arcs shift left by one symbol.

    (d+1) * d^(n-1) vertices, d-regular, loop-free, diameter n. Words are
    spelled in the digits 0-9, so d is at most 9."""
    if not 2 <= d <= 9 or n < 1:
        raise InvalidParameter("kautz needs 2 <= d <= 9 and n >= 1")
    _check_word_count(d + 1, d, n)
    alphabet = "0123456789"[: d + 1]
    words = [
        "".join(w)
        for w in itertools.product(*[alphabet] * n)
        if all(a != b for a, b in zip(w, w[1:]))
    ]
    return _shift_digraph(words, alphabet)


def cycle_with_chord(n: int) -> Digraph:
    """C_n plus the chord 0 -> 2: strongly connected but never
    distance-regular for n >= 4."""
    if n < 4:
        raise InvalidParameter("cycle-with-chord needs n >= 4")
    _check_size(n)
    arcs = [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]
    return Digraph.from_arcs(n, arcs)


def random_sc(
    n: int, p: float = 0.5, seed: Optional[int] = None, max_attempts: int = 1000
) -> Digraph:
    """Random strongly connected digraph: sample arcs independently with
    probability p and resample until strongly connected."""
    if n < 1:
        raise InvalidParameter("random-sc needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter(f"arc probability {p} outside [0, 1]")
    _check_size(n)
    if p == 0 and n > 1:
        raise InvalidParameter(f"no digraph on {n} vertices without arcs is strongly connected")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < p
        ]
        if _arcs_strongly_connected(n, arcs):
            return Digraph.from_arcs(n, arcs)
    raise InvalidParameter(
        f"no strongly connected graph found in {max_attempts} samples (n={n}, p={p})"
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Family name plus integer parameters; seed only matters for random-sc."""

    family: str
    params: tuple[int, ...] = ()
    p: float = 0.5
    seed: Optional[int] = None


# Family name -> (constructor, names of its integer parameters). random-sc
# also takes the spec's arc probability and seed.
_FAMILY_TABLE = {
    "cycle": (cycle, ("n",)),
    "paper6": (paper6, ()),
    "paley": (paley, ("q",)),
    "debruijn": (debruijn, ("d", "n")),
    "kautz": (kautz, ("d", "n")),
    "random-sc": (random_sc, ("n",)),
    "cycle-with-chord": (cycle_with_chord, ("n",)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def generate(spec: GeneratorSpec) -> Digraph:
    family = spec.family
    if family not in _FAMILY_TABLE:
        raise InvalidParameter(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    make, names = _FAMILY_TABLE[family]
    if len(spec.params) != len(names):
        if not names:
            raise InvalidParameter(f"{family} takes no parameters")
        count = ("one parameter", "two parameters")[len(names) - 1]
        raise InvalidParameter(f"{family} takes {count}: {' '.join(names)}")
    if family == "random-sc":
        return random_sc(*spec.params, spec.p, spec.seed)
    return make(*spec.params)


# An enumeration batch holds at most this many adjacency entries (0.5 MB
# of bool) for any n up to 724, so a large n cannot exhaust memory at once.
_BATCH_ENTRIES = 1 << 19


def all_strongly_connected_digraphs(n: int) -> Iterator[Digraph]:
    """Every strongly connected simple digraph on n labeled vertices, in
    bitmask order: bit b of a mask is the b-th off-diagonal position in
    row-major order. Exponential in n(n - 1).

    The masks run in batches of 2**low consecutive ones: the low bits are
    one fixed table, and the high bits one Python int, exact at any n. A
    batch is decided at once by Warshall's closure: a digraph is strongly
    connected iff the boolean power (A | I)^(n - 1) is all true, and
    ceil(log2(n - 1)) boolean squarings of A | I reach a power at least that
    high. n = 5's 565,080 digraphs take about 0.7 s. A yielded matrix is a
    read-only view of its batch's survivors, which it keeps alive (0.4 MB at
    most for n = 5); a copy each would add about 0.75 us a digraph."""
    if n < 1:
        raise InvalidParameter("need n >= 1")
    labels = tuple(map(str, range(n)))
    cells = np.flatnonzero(~np.eye(n, dtype=bool))
    low = min(len(cells), max((_BATCH_ENTRIES // n**2).bit_length() - 1, 0))
    high_cells = cells[low:]
    batch = np.zeros((1 << low, n * n), dtype=bool)
    masks = np.arange(1 << low)
    for b in range(low):  # a column at a time: no (2**low, low) int64 table
        batch[:, cells[b]] = masks >> b & 1
    eye = np.eye(n, dtype=bool)
    for high in range(1 << len(high_cells)):
        batch[:, high_cells] = [high >> b & 1 for b in range(len(high_cells))]
        adj = batch.reshape(-1, n, n)
        reach = adj | eye
        for _ in range(max(n - 2, 0).bit_length()):
            reach = reach @ reach
        survivors = adj[reach.all(axis=(1, 2))]
        survivors.flags.writeable = False
        for matrix in survivors:
            yield Digraph._unchecked(labels, matrix)


def _arcs_strongly_connected(n: int, arcs: list[tuple[int, int]]) -> bool:
    """`strongly_connected` on an arc list, decided before a Digraph is
    built: most arc sets on few vertices are rejected."""
    forward, backward = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in arcs:
        forward[u].append(v)
        backward[v].append(u)
    return digraph._sweeps_from_0(forward, backward, n) is not None


def edge_list_text(g: Digraph) -> str:
    """Serialize a digraph in the edge-list input format.

    Labels are kept only when they cannot be mistaken for vertex indices
    (the parser auto-detects label mode by non-numeric tokens), so digraphs
    whose labels are digit strings round-trip through dense indices.
    """
    try:
        for label in g.labels:
            int(label)
    except ValueError:
        names = g.labels
    else:
        names = tuple(map(str, range(g.n)))
    return "\n".join([f"{g.n} {g.m}"] + [f"{names[u]} {names[v]}" for u, v in g.arcs()]) + "\n"
