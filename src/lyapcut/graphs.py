"""Problem instances: graph construction, test families, cut oracle, edge coloring.

Graphs are unweighted, undirected and simple. Vertices are 0..n-1 and every
edge is stored as a pair (u, v) with u < v. Generators resample until the
sample is connected and are deterministic for a fixed seed (PCG64 streams,
one sub-seed per retry attempt).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .statevector import STATE_CAP_DEFAULT, cap_message

MAX_GENERATION_ATTEMPTS = 10_000
FAMILIES = ("regular3", "erdos_renyi", "bipartite")

# Connected cubic graph counts up to isomorphism; enumerate_cubic supports exactly these sizes.
CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}


class GraphError(ValueError):
    """Invalid graph data or infeasible generator parameters."""


class GenerationError(RuntimeError):
    """Random generation did not produce a valid sample within the retry budget."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with canonical edge pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_size(self.n)
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u}, {v}) for n={self.n}; need 0 <= u < v < n")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a Graph from arbitrary (u, v) pairs, normalizing orientation and order."""
        canon = sorted((min(u, v), max(u, v)) for u, v in edges)
        return cls(n=n, edges=tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nb)) for nb in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adjacency)

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        if not rows or len(rows[0]) != 2:
            raise GraphError("expected header line 'n m'")
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise GraphError(f"header promises {m} edges, found {len(rows) - 1}")
        if bad := [" ".join(row) for row in rows[1:] if len(row) != 2]:
            raise GraphError(f"edge line {bad[0]!r} needs two vertex numbers")
        return cls.from_edges(n, [(int(a), int(b)) for a, b in rows[1:]])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        return cls.from_edges(int(data["n"]), data["edges"])

    def content_hash(self) -> str:
        """Git-blob style sha1 of the canonical text serialization."""
        payload = self.to_text().encode()
        return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring: each layer is a matching, layers partition E."""

    layers: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_colors(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class CutOracleResult:
    """Exhaustive Max-Cut result: best cut value and all attaining assignments.

    Maximizers are basis indices; bit j of an index is the side of vertex j.
    The set is closed under global bit flip.
    """

    optimum: int
    maximizers: tuple[int, ...]

    @classmethod
    def from_table(cls, table: np.ndarray) -> "CutOracleResult":
        """The optimum and every maximizer of a full cut table, such as cut_table(g)."""
        best = int(table.max())
        return cls(optimum=best, maximizers=tuple(int(i) for i in np.flatnonzero(table == best)))


def load_graph(path: str) -> Graph:
    """Read a graph from either the plain-text or the JSON on-disk format;
    malformed content raises GraphError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return Graph.from_json_dict(json.loads(text)) if text.lstrip().startswith("{") else Graph.from_text(text)
    except KeyError as err:
        raise GraphError(f"graph file {path}: no {err} key") from None
    except (ValueError, TypeError) as err:
        raise GraphError(f"graph file {path}: {err}") from None


def _rng_for_attempt(seed: int, attempt: int) -> np.random.Generator:
    # Fresh sub-seed per retry so rejection sampling stays reproducible.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, attempt))))


def is_connected(g: Graph) -> bool:
    order, seen = [0], {0}
    for v in order:  # breadth first: the loop reaches the vertices it appends
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return len(order) == g.n


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Connected d-regular graph via the pairing model with rejection.

    Non-simple and disconnected pairings are rejected and resampled with a
    fresh sub-seed, up to MAX_GENERATION_ATTEMPTS.
    """
    _check_regular(n, d)
    stubs_template = np.repeat(np.arange(n), d)
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        pairs = _rng_for_attempt(seed, attempt).permutation(stubs_template).reshape(-1, 2)
        edge_set = set()
        for a, b in pairs:
            u, v = (int(a), int(b)) if a < b else (int(b), int(a))
            if u == v or (u, v) in edge_set:
                break
            edge_set.add((u, v))
        else:
            g = Graph(n=n, edges=tuple(sorted(edge_set)))
            if is_connected(g):
                return g
    raise GenerationError(f"no connected simple {d}-regular sample for n={n}, seed={seed}")


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p) sample; resamples until connected."""
    _check_probability(p)
    return _connected_sample(n, list(combinations(range(n), 2)), p, seed, f"G({n}, {p})")


def gen_bipartite(n1: int, n2: int, p: float, seed: int) -> Graph:
    """Connected binomial bipartite sample with parts {0..n1-1} and {n1..n1+n2-1}."""
    _check_bipartite(n1, n2, p)
    pairs = [(u, n1 + v) for u in range(n1) for v in range(n2)]
    return _connected_sample(n1 + n2, pairs, p, seed, f"bipartite({n1}, {n2}, {p})")


def _connected_sample(n: int, pairs: list, p: float, seed: int, what: str) -> Graph:
    """Keep each pair with probability p, resampling with a fresh sub-seed until connected."""
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        mask = _rng_for_attempt(seed, attempt).random(len(pairs)) < p
        g = Graph(n=n, edges=tuple(e for e, keep in zip(pairs, mask) if keep))
        if is_connected(g):
            return g
    raise GenerationError(f"no connected {what} sample for seed={seed}")


def bipartite_parts(n: int) -> tuple[int, int]:
    return (n + 1) // 2, n // 2


def _check_size(n: int) -> None:
    if n < 2:
        raise GraphError(f"need at least 2 vertices, got n={n}")


def _check_regular(n: int, d: int) -> None:
    if n * d % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    if not 0 < d < n:
        raise GraphError(f"need 0 < d < n, got n={n}, d={d}")


def _check_probability(p: float) -> None:
    if not 0 < p <= 1:
        raise GraphError(f"need 0 < p <= 1, got p={p}")


def _check_bipartite(n1: int, n2: int, p: float) -> None:
    if n1 < 1 or n2 < 1:
        raise GraphError(f"both parts need at least one vertex, got {n1}, {n2}")
    _check_probability(p)


def _family_generator(family: str, n: int, p: float, degree: int):
    """The generator of a test family and its arguments but the seed, after the size check of
    every Graph and the generator's own check."""
    if family not in FAMILIES:
        raise GraphError(f"family must be one of {FAMILIES}, got {family!r}")
    _check_size(n)
    if family == "regular3":
        _check_regular(n, degree)
        return gen_random_regular, (n, degree)
    if family == "erdos_renyi":
        _check_probability(p)
        return gen_erdos_renyi, (n, p)
    parts = bipartite_parts(n)
    _check_bipartite(*parts, p)
    return gen_bipartite, (*parts, p)


def check_family(family: str, n: int, p: float = 0.5, degree: int = 3) -> None:
    """Raise the GraphError that make_graph would raise for these arguments before it samples."""
    _family_generator(family, n, p, degree)


def make_graph(family: str, n: int, seed: int, p: float = 0.5, degree: int = 3) -> Graph:
    """One sample of a test family; bipartite parts are {0..ceil(n/2)-1} and the rest."""
    generator, args = _family_generator(family, n, p, degree)
    return generator(*args, seed)


def cut_table(g: Graph) -> np.ndarray:
    """Cut value of every basis index as uint16, length 2^n; bit j of an index
    is the side of vertex j. Built in place by vertex doubling: for x < 2^k,
    T(x + 2^k) = T(x) + deg(k) - 2 #{w < k adjacent to k : bit w of x is 1},
    since moving vertex k to side 1 cuts its edges but those to lower
    neighbours already on side 1. No value wraps: T(x) counts each of those."""
    table = np.zeros(1 << g.n, dtype=np.uint16)
    for k, neighbours in enumerate(g.adjacency):
        block = np.add(table[:1 << k], len(neighbours), out=table[1 << k:2 << k])
        for w in neighbours:
            if w < k:
                block.reshape(-1, 2, 1 << w)[:, 1] -= 2
    return table


def brute_force_max_cut(g: Graph, cap: int = STATE_CAP_DEFAULT) -> CutOracleResult:
    """Exhaustive optimum and every maximizer, read off the full cut table."""
    if g.n > cap:
        raise GraphError(cap_message(g.n, cap))
    return CutOracleResult.from_table(cut_table(g))


def _first_free(used: dict[int, int], num_colors: int) -> int:
    for c in range(num_colors):
        if c not in used:
            return c
    raise AssertionError("no free color; degree bookkeeping broken")


def edge_coloring(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max_degree + 1 colors (Misra-Gries)."""
    if g.m == 0:
        return EdgeColoring(layers=())
    delta = max(g.degrees)
    num_colors = delta + 1
    color_of: dict[tuple[int, int], int] = {}
    used: list[dict[int, int]] = [dict() for _ in range(g.n)]  # vertex -> color -> neighbor

    def assign(u: int, v: int, c: int) -> None:
        color_of[(min(u, v), max(u, v))] = c
        used[u][c] = v
        used[v][c] = u

    def unassign(u: int, v: int) -> int:
        c = color_of.pop((min(u, v), max(u, v)))
        del used[u][c]
        del used[v][c]
        return c

    def invert_path(start: int, c: int, d: int) -> None:
        # Maximal path from `start` alternating colors d, c, d, ...; swap c and d on it.
        path = []
        cur, want = start, d
        while want in used[cur]:
            nxt = used[cur][want]
            path.append((cur, nxt))
            cur, want = nxt, (c if want == d else d)
        old = [unassign(a, b) for a, b in path]
        for (a, b), col in zip(path, old):
            assign(a, b, d if col == c else c)

    for u, v in g.edges:
        # Maximal fan of u starting at v.
        fan = [v]
        in_fan = {v}
        while True:
            tail = fan[-1]
            ext = None
            for w in g.adjacency[u]:
                if w in in_fan:
                    continue
                cw = color_of.get((min(u, w), max(u, w)))
                if cw is not None and cw not in used[tail]:
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)

        c = _first_free(used[u], num_colors)
        d = _first_free(used[fan[-1]], num_colors)
        if c != d:
            invert_path(u, c, d)

        # Longest fan prefix that is still a fan and ends where d is free.
        chosen = None
        for k in range(len(fan) - 1, -1, -1):
            if d in used[fan[k]]:
                continue
            valid = all(
                color_of[(min(u, fan[i]), max(u, fan[i]))] not in used[fan[i - 1]]
                for i in range(1, k + 1)
            )
            if valid:
                chosen = k
                break
        if chosen is None:
            raise AssertionError("fan rotation failed; coloring invariant broken")

        shift = [color_of[(min(u, fan[i]), max(u, fan[i]))] for i in range(1, chosen + 1)]
        for i in range(1, chosen + 1):
            unassign(u, fan[i])
        for i, col in enumerate(shift):
            assign(u, fan[i], col)
        assign(u, fan[chosen], d)

    layers: dict[int, list[tuple[int, int]]] = {}
    for edge, c in color_of.items():
        layers.setdefault(c, []).append(edge)
    ordered = tuple(tuple(sorted(layers[c])) for c in sorted(layers))
    return EdgeColoring(layers=ordered)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test; intended for the small enumeration sizes."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    n = g1.n
    adj1 = [set(nb) for nb in g1.adjacency]
    adj2 = [set(nb) for nb in g2.adjacency]
    mapping = [-1] * n
    mapped_to = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if mapped_to[w] or g2.degrees[w] != g1.degrees[v]:
                continue
            if all((prev in adj1[v]) == (mapping[prev] in adj2[w]) for prev in range(v)):
                mapping[v] = w
                mapped_to[w] = True
                if extend(v + 1):
                    return True
                mapped_to[w] = False
        return False

    return extend(0)


def enumerate_cubic(n: int, seed: int = 0, max_samples: int = 200_000) -> tuple[Graph, ...]:
    """All connected cubic graphs on n vertices, one per isomorphism class.

    Collects classes by seeded sampling until the known class count for n is
    reached, so the result is exhaustive for the supported sizes and
    deterministic for a fixed seed.
    """
    if n not in CONNECTED_CUBIC_COUNTS:
        raise GraphError(f"exhaustive cubic enumeration supports n in {sorted(CONNECTED_CUBIC_COUNTS)}")
    target = CONNECTED_CUBIC_COUNTS[n]
    found: list[Graph] = []
    for k in range(max_samples):
        g = gen_random_regular(n, 3, seed=(seed << 20) + k)
        if any(are_isomorphic(g, h) for h in found):
            continue
        found.append(g)
        if len(found) == target:
            return tuple(sorted(found, key=lambda gr: gr.edges))
    raise GenerationError(f"found only {len(found)}/{target} cubic classes for n={n}")
