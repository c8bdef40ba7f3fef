"""The ball oracle: exact Cayley balls by a BFS over dicts and tuples.

This is the dict BFS that built `randomgroups.cayley.cayley_ball` before the
ball was built level by level on arrays, kept as an independent check of it.
It names every vertex by its lex-least geodesic word and identifies each
candidate word one at a time, through Dehn reduction and the geodesic swap
closure.  Its engine reduces every rewritten word in full and builds every
complement word afresh, as the original did.  It builds its own arcs and
detect windows from the relator strings, as the rotations (s + s)[q : q + l]
of each relator s and of its inverse, and matches and complements arcs on
them, so it shares with the array path only the verified presentation (and
the thresholds that its piece bound sets), never the window index.

`check_ball_invariants` asserts what any ball must satisfy, whichever way
it was built: its graph-distance checks walk the recorded adjacency by
levels.

`ball_dict` and `ball_json` read a `CayleyBall`'s words, distances and
adjacency in plain Python into the dict and the `json.dumps` text that its
export bytes are pinned against; the library writes those bytes only
through `CayleyBall.json_text`, in bulk from the arrays.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from randomgroups.cayley import (
    DEFAULT_CLOSURE_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    CayleyBall,
    DehnEngine,
)
from randomgroups.errors import BudgetExceededError, PartialBallError
from randomgroups.model import Presentation
from randomgroups.words import _reduce_ints, inverse_word


class _OracleEngine(DehnEngine):
    """The Dehn engine with the rewriting steps of the original dict BFS."""

    def __init__(self, p: Presentation):
        super().__init__(p)
        ab, l = p.alphabet, p.l
        rotations = [(s + s)[q : q + l] for r in p.relators
                     for s in (r, inverse_word(r, ab)) for q in range(l)]
        self.arcs = {ab.encode(rot[: self.t_move]):
                     (ab.encode(rot), ab.encode(inverse_word(rot, ab))) for rot in rotations}
        self.detect = {ab.encode(rot[: self.t_detect]) for rot in rotations}

    def _match(self, w: tuple[int, ...], i: int):
        """The rotation that w reads from position i for at least t_move
        letters, and how far it reads it: ((rotation, inverse), j), or None."""
        hit = self.arcs.get(w[i : i + self.t_move])
        if hit is None:
            return None
        rotation = hit[0]
        tail = w[i : i + self.l]
        j = next((j for j, (a, b) in enumerate(zip(tail, rotation)) if a != b), len(tail))
        return hit, j

    def is_suspicious(self, w: tuple[int, ...]) -> bool:
        """Does w hold a detect window?  Looked up in the oracle's own set."""
        k = self.t_detect
        return any(w[i : i + k] in self.detect for i in range(len(w) - k + 1))

    def complement_inverse(self, rotation: tuple[int, ...], j: int) -> tuple[int, ...]:
        """The inverse of the complement rotation[j:] of the arc rotation[:j]."""
        return tuple(x ^ 1 for x in reversed(rotation[j:]))

    def dehn_step(self, w: tuple[int, ...]):
        found = self._find_arc(w, self.half)
        if found is None:
            return None
        i, (rotation, _), j = found
        return _reduce_ints(w[:i] + self.complement_inverse(rotation, j) + w[i + j :])

    def dehn_reduce(self, w: tuple[int, ...]) -> tuple[int, ...]:
        w = _reduce_ints(w)
        while True:
            nxt = self.dehn_step(w)
            if nxt is None:
                return w
            w = nxt

    def geodesic_closure(self, w: tuple[int, ...]):
        """All words of |w|'s length reachable by relator-arc swaps, or a
        strictly shorter equal word if one appears.

        Returns (class_words, shorter) with shorter=None when w is geodesic.
        Words may temporarily grow by at most l - 2*t_move letters, enough to
        cross any ladder cell given the verified piece bound.
        """
        n = len(w)
        cap = n + self.slack
        seen = {w}
        frontier = [w]
        same = {w}
        while frontier:
            nxt = []
            for u in frontier:
                for i in range(len(u)):
                    hit = self._match(u, i)
                    if hit is None:
                        continue
                    (rotation, _), j = hit
                    for jj in range(self.t_move, j + 1):
                        repl = self.complement_inverse(rotation, jj)
                        v = _reduce_ints(u[:i] + repl + u[i + jj :])
                        if len(v) > cap or v in seen:
                            continue
                        if len(v) < n:
                            return same, v
                        seen.add(v)
                        if len(seen) > DEFAULT_CLOSURE_BUDGET:
                            raise BudgetExceededError(
                                f"geodesic closure exceeded {DEFAULT_CLOSURE_BUDGET} words",
                                budget=DEFAULT_CLOSURE_BUDGET,
                            )
                        if len(v) == n:
                            same.add(v)
                        nxt.append(v)
            frontier = nxt
        return same, None


@functools.lru_cache(maxsize=16)
def _oracle_engine(p: Presentation) -> _OracleEngine:
    return _OracleEngine(p)


@dataclass
class OracleBall:
    presentation: Presentation
    radius: int
    words: list[str]                     # canonical (lex-least geodesic) per vertex
    dist: list[int]
    adjacency: list[dict[int, int]]      # letter code -> vertex id

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_dict(self) -> dict:
        letters = self.presentation.alphabet.letters
        return {
            "m": self.presentation.m,
            "l": self.presentation.l,
            "radius": self.radius,
            "vertices": [
                {"id": i, "word": w, "distance": d}
                for i, (w, d) in enumerate(zip(self.words, self.dist))
            ],
            "edges": sorted(
                {
                    (min(u, v), max(u, v), letters[x if u < v else x ^ 1])
                    for u, nbrs in enumerate(self.adjacency)
                    for x, v in nbrs.items()
                }
            ),
        }

    def adjacency_csv(self) -> str:
        letters = self.presentation.alphabet.letters
        lines = ["src,dst,letter"]
        for u, nbrs in enumerate(self.adjacency):
            for x, v in sorted(nbrs.items()):
                lines.append(f"{u},{v},{letters[x]}")
        return "\n".join(lines) + "\n"


def ball_dict(ball: CayleyBall) -> dict:
    """The ball as a dict: m, l, radius, each vertex's id, word and
    distance, and the edges as the sorted set of (low, high, letter) triples
    read off the adjacency in plain Python, as `OracleBall.to_dict` does."""
    letters = ball.presentation.alphabet.letters
    return {
        "m": ball.presentation.m,
        "l": ball.presentation.l,
        "radius": ball.radius,
        "vertices": [
            {"id": i, "word": w, "distance": d}
            for i, (w, d) in enumerate(zip(ball.words, ball.dist.tolist()))
        ],
        "edges": sorted(
            {
                (min(u, v), max(u, v), letters[x if u < v else x ^ 1])
                for u, row in enumerate(ball.adjacency.tolist())
                for x, v in enumerate(row)
                if v >= 0
            }
        ),
    }


def ball_json(ball: CayleyBall) -> str:
    return json.dumps(ball_dict(ball), indent=2)


def cayley_ball_oracle(
    p: Presentation,
    radius: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> OracleBall:
    """Exact ball of the word metric, vertices named by lex-least geodesics.

    BFS by levels; candidate words are identified through Dehn reduction
    (strictly shorter words walk back through completed adjacency) and the
    geodesic swap closure (same-length merges).  Identification is skipped
    entirely while 2n < l, where no relation can close up.  The origin
    counts against the vertex budget, so a budget below 1 completes no
    radius.
    """
    if vertex_budget < 1:
        raise PartialBallError(
            f"vertex budget {vertex_budget} exhausted",
            completed_radius=-1,
            budget=vertex_budget,
        )
    eng = _oracle_engine(p)
    ab = eng.ab
    words: list[tuple[int, ...]] = [()]
    dist = [0]
    adjacency: list[dict[int, int]] = [dict()]
    index: dict[tuple[int, ...], int] = {(): 0}
    susp = [False]                       # eng.is_suspicious(words[v])
    canon_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def walk(w: tuple[int, ...]) -> int:
        at = 0
        for x in w:
            at = adjacency[at][x]
        return at

    def identify(u: int, w: tuple[int, ...], create: bool) -> int | None:
        """Vertex for candidate w = words[u] + (x,), one letter beyond a
        complete level.  Its only window that words[u] lacks is its tail, so
        w is suspicious exactly when u is or that tail is a detect window."""
        n = len(w)
        if 2 * n < p.l or not (susp[u] or w[-eng.t_detect :] in eng.detect):
            vid = index.get(w)
            if vid is not None:
                return vid
            if not create:
                return None
            return _new_vertex(w, n)
        short = eng.dehn_reduce(w)
        if len(short) < n:
            return walk(short)
        same, shorter = eng.geodesic_closure(w)
        if shorter is not None:
            return walk(eng.dehn_reduce(shorter))
        key = min(same)
        for member in same:
            canon_cache[member] = key
        vid = index.get(key)
        if vid is not None:
            return vid
        if not create:
            return None
        return _new_vertex(key, n)

    def _new_vertex(key: tuple[int, ...], n: int) -> int:
        if len(words) >= vertex_budget:
            raise PartialBallError(
                f"vertex budget {vertex_budget} exhausted",
                completed_radius=n - 1,
                budget=vertex_budget,
            )
        words.append(key)
        susp.append(eng.is_suspicious(key))
        dist.append(n)
        adjacency.append(dict())
        index[key] = len(words) - 1
        return len(words) - 1

    level = [0]
    for n in range(1, radius + 1):
        for u in level:
            wu = words[u]
            for x in range(2 * p.m):
                if x in adjacency[u]:
                    continue
                if wu and wu[-1] == (x ^ 1):
                    v = index[wu[:-1]]
                else:
                    cached = canon_cache.get(wu + (x,))
                    if cached is not None:
                        v = index.get(cached)
                        if v is None:
                            v = _new_vertex(cached, n)
                    else:
                        v = identify(u, wu + (x,), create=True)
                adjacency[u][x] = v
                adjacency[v][x ^ 1] = u
        level = [v for v in range(len(words)) if dist[v] == n]
    # rim pass: edges among radius-level vertices and back to radius-1
    for u in [v for v in range(len(words)) if dist[v] == radius]:
        wu = words[u]
        for x in range(2 * p.m):
            if x in adjacency[u]:
                continue
            if wu and wu[-1] == (x ^ 1):
                v = index[wu[:-1]]
            else:
                v = identify(u, wu + (x,), create=False)
            if v is not None:
                adjacency[u][x] = v
                adjacency[v][x ^ 1] = u
    return OracleBall(
        presentation=p,
        radius=radius,
        words=[ab.decode(w) for w in words],
        dist=dist,
        adjacency=adjacency,
    )


def check_ball_invariants(ball: CayleyBall, samples: int = 200, seed: int = 0) -> None:
    """Assert the origin is "1" at distance 0, every edge joins adjacent
    levels and is recorded both ways, every vertex inside the rim is
    closed, and `samples` random pairs satisfy the triangle inequality
    through the origin."""
    adj, dist = ball.adjacency, ball.dist
    assert dist[0] == 0 and ball.words[0] == "1"
    u, x = np.nonzero(adj >= 0)
    v = adj[u, x]
    assert (np.abs(dist[u] - dist[v]) <= 1).all()
    assert (adj[v, x ^ 1] == u).all()
    open_ = np.flatnonzero((adj < 0).any(axis=1) & (dist < ball.radius))
    assert not open_.size, (
        f"vertex {open_[0]} at distance {dist[open_[0]]} is not closed"
    )
    rng = np.random.default_rng(seed)
    n = len(ball.words)
    for _ in range(samples):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        assert abs(int(dist[a]) - int(dist[b])) <= _graph_distance(ball, a, b)


def _graph_distance(ball: CayleyBall, a: int, b: int) -> int:
    """Length of a shortest path from a to b inside the ball, by levels."""
    if a == b:
        return 0
    seen = np.zeros(len(ball.dist), dtype=bool)
    seen[a] = True
    frontier = np.array([a])
    d = 0
    while frontier.size:
        d += 1
        nxt = ball.adjacency[frontier].ravel()
        nxt = np.unique(nxt[nxt >= 0])
        nxt = nxt[~seen[nxt]]
        if (nxt == b).any():
            return d
        seen[nxt] = True
        frontier = nxt
    return int(ball.dist.max()) * 2 + 1  # disconnected within the ball: only at the rim
