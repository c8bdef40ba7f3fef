"""Word-problem and metric queries in a presented group.

All exact metric queries are gated on a verified strict C'(1/6) check: Dehn's
algorithm is then a correct triviality test, and geodesic words for one group
element are connected by boundary-arc swaps across the cells of (ladder)
bigon diagrams.  The ball construction identifies vertices through that swap
closure, so every vertex carries the lexicographically least geodesic word.

Presentations that are not verified refuse all exact queries.  A separate
naive-closure mode returns distance upper bounds with an explicit warning
flag and no exactness claim (used by the high-density probes).
"""

from __future__ import annotations

import functools
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    NotVerifiedError,
    PartialBallError,
    PreconditionError,
)
from .model import Presentation, check_seed, sample_presentation
from .words import (
    Alphabet,
    PieceReport,
    _reduce_ints,
    _relator_texts,
    _slot_windows,
    _text_length,
    check_c_prime,
    enumerate_cyclically_reduced,
    max_piece_length,
    max_piece_length_quadratic,
)
from .bounds import wilson_interval

DEFAULT_VERTEX_BUDGET = 10**6
DEFAULT_CLOSURE_BUDGET = 20_000

LAMBDA_DEHN = Fraction(1, 6)


@functools.lru_cache(maxsize=64)
def small_cancellation_report(p: Presentation) -> PieceReport:
    return max_piece_length(list(p.relators))


def is_dehn_ready(p: Presentation) -> bool:
    """Strict C'(1/6), the correctness condition for every exact query here."""
    rep = small_cancellation_report(p)
    return rep.max_piece_length * 6 < p.l and not rep.relator_coincidences


def ensure_dehn_ready(p: Presentation) -> PieceReport:
    rep = small_cancellation_report(p)
    if not is_dehn_ready(p):
        raise NotVerifiedError(
            f"presentation is not verified C'(1/6): max piece "
            f"{rep.max_piece_length} vs l/6 = {p.l}/6"
        )
    return rep


class _RelatorArcs:
    """Occurrence index over the cyclic rotations of relators and inverses:
    slot (text ti, position q) of `texts` under its length-`gram` window."""

    def __init__(self, texts: np.ndarray, gram: int):
        self.l = _text_length(texts)
        self.gram = gram
        self.texts = [tuple(t) for t in texts.tolist()]
        self.index: dict[tuple, list[tuple[int, int]]] = {}
        for slot, key in enumerate(map(tuple, _slot_windows(texts, gram).tolist())):
            self.index.setdefault(key, []).append(divmod(slot, self.l))

    def matches(self, word: tuple[int, ...], i: int) -> list[tuple[int, int, int]]:
        """Maximal arc matches (text, q, length) starting at position i."""
        key = word[i : i + self.gram]
        if len(key) < self.gram:
            return []
        out = []
        for (ti, q) in self.index.get(key, ()):
            t = self.texts[ti]
            j = self.gram
            # t has 2l-1 letters and q, j < l, so t[q + j] is always inside it
            while i + j < len(word) and j < self.l and word[i + j] == t[q + j]:
                j += 1
            out.append((ti, q, j))
        return out

    def complement_inverse(self, ti: int, q: int, j: int) -> tuple[int, ...]:
        """For a matched arc s = t[q:q+j], the word c^-1 with s =_G c^-1."""
        t = self.texts[ti]
        c = t[q + j : q + self.l]
        return tuple(x ^ 1 for x in reversed(c))


class DehnEngine:
    """Preprocessed rewriting machinery for one verified presentation."""

    def __init__(self, p: Presentation):
        self.report = ensure_dehn_ready(p)
        self.p = p
        self.l = p.l
        self.ab = p.alphabet
        self.pmax = self.report.max_piece_length
        self.half = p.l // 2 + 1  # smallest length strictly more than half
        # arc thresholds from the verified piece bound: interior ladder cells
        # expose at least ceil(l/2) - 2*pmax letters on a geodesic side, end
        # cells at least l - pmax - floor(l/2)
        self.t_move = max(1, -(-p.l // 2) - 2 * self.pmax)
        self.t_detect = max(1, p.l - self.pmax - p.l // 2)
        self.slack = p.l - 2 * self.t_move
        texts = _relator_texts(p.relators)
        self.arcs = _RelatorArcs(texts, self.t_move)
        self._detect_index = set(map(tuple, _slot_windows(texts, self.t_detect).tolist()))

    def has_long_arc(self, w: tuple[int, ...]) -> bool:
        """Does w contain more than half of some relator rotation?"""
        return self._find_half_arc(w) is not None

    def _find_half_arc(self, w):
        for i in range(len(w) - self.half + 1):
            for (ti, q, j) in self.arcs.matches(w, i):
                if j >= self.half:
                    return (i, ti, q, j)
        return None

    def is_suspicious(self, w: tuple[int, ...]) -> bool:
        """Might w merge with another geodesic or fail to be geodesic?

        Any such word contains at least t_detect consecutive letters of a
        relator rotation (end-cell arc of the connecting bigon ladder).
        """
        k = self.t_detect
        return any(w[i : i + k] in self._detect_index for i in range(len(w) - k + 1))

    def dehn_step(self, w: tuple[int, ...]):
        found = self._find_half_arc(w)
        if found is None:
            return None
        i, ti, q, j = found
        return _reduce_ints(w[:i] + self.arcs.complement_inverse(ti, q, j) + w[i + j :])

    def dehn_reduce(self, w: tuple[int, ...]) -> tuple[int, ...]:
        w = _reduce_ints(w)
        while True:
            nxt = self.dehn_step(w)
            if nxt is None:
                return w
            w = nxt

    def geodesic_closure(self, w: tuple[int, ...], budget: int = DEFAULT_CLOSURE_BUDGET):
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
                    for (ti, q, j) in self.arcs.matches(u, i):
                        for jj in range(self.t_move, j + 1):
                            repl = self.arcs.complement_inverse(ti, q, jj)
                            v = _reduce_ints(u[:i] + repl + u[i + jj :])
                            if len(v) > cap or v in seen:
                                continue
                            if len(v) < n:
                                return same, v
                            seen.add(v)
                            if len(seen) > budget:
                                raise BudgetExceededError(
                                    f"geodesic closure exceeded {budget} words",
                                    budget=budget,
                                )
                            if len(v) == n:
                                same.add(v)
                            nxt.append(v)
            frontier = nxt
        return same, None


@functools.lru_cache(maxsize=16)
def _engine(p: Presentation) -> DehnEngine:
    return DehnEngine(p)


def dehn_reduce(word: str, p: Presentation) -> str:
    """Greedy >half-relator replacement to a Dehn-irreducible word.

    For a verified C'(1/6) presentation the result is empty exactly when the
    input represents the identity.
    """
    eng = _engine(p)
    return eng.ab.decode(eng.dehn_reduce(eng.ab.encode(word)))


@dataclass
class CayleyBall:
    presentation: Presentation
    radius: int
    words: list[str]                     # canonical (lex-least geodesic) per vertex
    dist: list[int]
    adjacency: list[dict[int, int]]      # letter code -> vertex id
    index: dict[str, int]

    def vertex_of_word(self, word: str) -> int | None:
        """Walk a word from the origin through recorded adjacency."""
        eng = _engine(self.presentation)
        at = 0
        for x in eng.ab.encode(word):
            at = self.adjacency[at].get(x)
            if at is None:
                return None
        return at

    def check_invariants(self, samples: int = 200, seed: int = 0) -> None:
        assert self.dist[0] == 0 and self.words[0] == "1"
        for u, nbrs in enumerate(self.adjacency):
            for x, v in nbrs.items():
                assert abs(self.dist[u] - self.dist[v]) <= 1
                assert self.adjacency[v].get(x ^ 1) == u
            if self.dist[u] < self.radius:
                assert len(nbrs) == 2 * self.presentation.m, (
                    f"vertex {u} at distance {self.dist[u]} is not closed"
                )
        rng = np.random.default_rng(seed)
        n = len(self.words)
        for _ in range(samples):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            # triangle inequality through the origin
            assert abs(self.dist[a] - self.dist[b]) <= _graph_distance(self, a, b)

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


def _graph_distance(ball: CayleyBall, a: int, b: int) -> int:
    if a == b:
        return 0
    from collections import deque

    seen = {a: 0}
    q = deque([a])
    while q:
        u = q.popleft()
        for v in ball.adjacency[u].values():
            if v not in seen:
                seen[v] = seen[u] + 1
                if v == b:
                    return seen[v]
                q.append(v)
    return max(ball.dist) * 2 + 1  # disconnected within the ball: only at the rim


def cayley_ball(
    p: Presentation,
    radius: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> CayleyBall:
    """Exact ball of the word metric, vertices named by lex-least geodesics.

    BFS by levels; candidate words are identified through Dehn reduction
    (strictly shorter words walk back through completed adjacency) and the
    geodesic swap closure (same-length merges).  Identification is skipped
    entirely while 2n < l, where no relation can close up.
    """
    eng = _engine(p)
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
        if 2 * n < p.l or not (susp[u] or w[-eng.t_detect :] in eng._detect_index):
            vid = index.get(w)
            if vid is not None:
                return vid
            if not create:
                return None
            return _new_vertex(w, n)
        short = eng.dehn_reduce(w)
        if len(short) < n:
            return walk(short)
        same, shorter = eng.geodesic_closure(w, budget=closure_budget)
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
    return CayleyBall(
        presentation=p,
        radius=radius,
        words=[ab.decode(w) for w in words],
        dist=dist,
        adjacency=adjacency,
        index={ab.decode(w): i for w, i in index.items()},
    )


# (presentation fingerprint, radius) -> ball, least recently used first
_BALL_CACHE: OrderedDict[tuple[str, int], CayleyBall] = OrderedDict()
_BALL_CACHE_SIZE = 8


def _cached_ball(p: Presentation, radius: int, vertex_budget: int) -> CayleyBall:
    """A cached ball of radius >= `radius` for p, else a new one, cached."""
    fp = p.fingerprint()
    key = next((k for k in _BALL_CACHE if k[0] == fp and k[1] >= radius), None)
    if key is not None:
        _BALL_CACHE.move_to_end(key)
        return _BALL_CACHE[key]
    ball = cayley_ball(p, radius, vertex_budget)
    _BALL_CACHE[(fp, radius)] = ball
    if len(_BALL_CACHE) > _BALL_CACHE_SIZE:
        _BALL_CACHE.popitem(last=False)
    return ball


def distance(p: Presentation, word: str, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Exact distance from the identity.

    The word is Dehn-reduced first (an upper bound on the distance), then the
    element is located in a ball of that radius.
    """
    eng = _engine(p)
    w = eng.dehn_reduce(eng.ab.encode(word))
    if not w:
        return 0
    ball = _cached_ball(p, len(w), vertex_budget)
    vid = ball.vertex_of_word(eng.ab.decode(w))
    return ball.dist[vid]


def is_geodesic(p: Presentation, word: str, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> bool:
    eng = _engine(p)
    w = eng.ab.encode(word)
    if _reduce_ints(w) != w:
        return False
    return distance(p, word, vertex_budget) == len(w)


def hyperbolicity_delta_bound(l: int, d) -> Fraction:
    """Upper bound 4l/(1-2d) for the hyperbolicity constant."""
    d = Fraction(d)
    if not (0 <= d < Fraction(1, 2)):
        raise DomainError(f"need 0 <= d < 1/2, got {d}")
    return Fraction(4 * l) / (1 - 2 * d)


# ---------------------------------------------------------------------------
# Genericity scan
# ---------------------------------------------------------------------------


@dataclass
class ScanCell:
    d: Fraction
    trials: int
    passes: int
    empty: bool

    @property
    def p_hat(self) -> float:
        return self.passes / self.trials if self.trials else float("nan")

    def interval(self) -> tuple[float, float]:
        if not self.trials:
            return (float("nan"), float("nan"))
        return wilson_interval(self.passes, self.trials)

    def to_dict(self) -> dict:
        lo, hi = self.interval()
        return {
            "d": str(self.d),
            "trials": self.trials,
            "passes": self.passes,
            "empty": self.empty,
            "p_hat": self.p_hat,
            "ci_low": lo,
            "ci_high": hi,
        }


@dataclass
class GenericityScanReport:
    m: int
    l: int
    lam: Fraction
    seed: int
    cells: list[ScanCell] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "lambda": str(self.lam),
            "seed": self.seed,
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_csv(self) -> str:
        lines = ["d,trials,passes,p_hat,ci_low,ci_high"]
        for c in self.cells:
            lo, hi = c.interval()
            lines.append(f"{c.d},{c.trials},{c.passes},{c.p_hat},{lo},{hi}")
        return "\n".join(lines) + "\n"


def cprime_genericity_scan(
    m: int,
    l: int,
    lam,
    d_grid,
    trials: int,
    seed: int,
) -> GenericityScanReport:
    """Per-cell fraction of sampled presentations satisfying C'(λ)."""
    check_seed(seed)
    lam = Fraction(lam)
    report = GenericityScanReport(m=m, l=l, lam=lam, seed=seed)
    for ci, d in enumerate(d_grid):
        d = Fraction(d)
        passes = 0
        for t in range(trials):
            s = int(
                np.random.SeedSequence(entropy=seed, spawn_key=(ci, t)).generate_state(1)[0]
            )
            p = sample_presentation(m, l, d, seed=s)
            if check_c_prime(list(p.relators), lam):
                passes += 1
        report.cells.append(ScanCell(d=d, trials=trials, passes=passes, empty=trials == 0))
    return report


def exact_cprime_fraction_single_relator(m: int, l: int, lam) -> Fraction:
    """Micro-oracle at d = 0: the exact fraction of single relators passing C'(λ)."""
    lam = Fraction(lam)
    words = enumerate_cyclically_reduced(m, l)
    good = sum(1 for w in words if check_c_prime([w], lam))
    return Fraction(good, len(words))


# ---------------------------------------------------------------------------
# Unverified (naive closure) mode
# ---------------------------------------------------------------------------


@dataclass
class UnverifiedBall:
    """Quotient of the free ball by relator closure within a word-length cap.

    Distances here are upper bounds for the true word metric (every quotient
    edge is a real Cayley edge); nothing is claimed exact.  `saturated` records
    whether the last closure pass added no merges within the cap.
    """

    presentation: Presentation
    word_cap: int
    saturated: bool
    warning: str
    _index: dict[tuple[int, ...], int]
    _root: list[int]
    _dist: dict[int, int]

    def _find(self, a: int) -> int:
        r = self._root
        while r[a] != a:
            r[a] = r[r[a]]
            a = r[a]
        return a

    def class_of_word(self, word: str) -> int | None:
        w = _reduce_ints(self.presentation.alphabet.encode(word))
        vid = self._index.get(w)
        return None if vid is None else self._find(vid)

    def distance_upper(self, word: str) -> int | None:
        """Upper bound on d(1, word); None when the word leaves the cap."""
        c = self.class_of_word(word)
        if c is None:
            return None
        return self._dist.get(c)


def naive_closure_ball(
    p: Presentation,
    word_cap: int,
    node_budget: int = 300_000,
    passes: int = 3,
) -> UnverifiedBall:
    """Bounded congruence closure: no termination or exactness guarantee.

    Every node w is merged with the node w·ρ for each relator rotation ρ that
    lands inside the cap.  Both words are reduced, so w·ρ reduces to
    w[:n-k] + ρ[k:] for the length k of the cancellation at the seam, and it
    has length ≤ cap exactly when k ≥ k0 = max(0, ⌈(n + l - cap)/2⌉).  So
    only the rotations whose first k0 letters invert the last k0 letters of w
    are tried, looked up in an index of the rotations by their k0-prefix.

    The merge pairs are therefore a fixed set, collected once.  `union` hangs
    the larger root under the smaller, so each class's root is its least
    node whatever the order of the merges, and a second pass never merges
    anything: with `passes` ≥ 2, `saturated` is always true.
    """
    m = p.m
    nodes: list[tuple[int, ...]] = [()]
    index: dict[tuple[int, ...], int] = {(): 0}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            if len(w) >= word_cap:
                continue
            for x in range(2 * m):
                if w and w[-1] == (x ^ 1):
                    continue
                v = w + (x,)
                if v not in index:
                    if len(nodes) >= node_budget:
                        raise BudgetExceededError(
                            f"naive closure exceeded {node_budget} nodes at cap {word_cap}",
                            budget=node_budget,
                        )
                    index[v] = len(nodes)
                    nodes.append(v)
                    nxt.append(v)
        frontier = nxt
    root = list(range(len(nodes)))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
            return True
        return False

    rotations = [tuple(rho) for rho in _slot_windows(_relator_texts(p.relators), p.l).tolist()]
    by_prefix: dict[int, dict[tuple[int, ...], list[tuple[int, ...]]]] = {}
    pairs = []
    for a, w in enumerate(nodes):
        n = len(w)
        k0 = max(0, -(-(n + p.l - word_cap) // 2))
        if k0 > min(n, p.l):
            continue
        if k0 not in by_prefix:
            by_prefix[k0] = {}
            for rho in rotations:
                by_prefix[k0].setdefault(rho[:k0], []).append(rho)
        seam = tuple(x ^ 1 for x in reversed(w[n - k0 :]))
        for rho in by_prefix[k0].get(seam, ()):
            # index holds every reduced word within the cap
            pairs.append((a, index[_reduce_ints(w + rho)]))
    saturated = False
    for _ in range(passes):
        changed = False
        for a, b in pairs:
            if union(a, b):
                changed = True
        if not changed:
            saturated = True
            break
    # BFS over the quotient graph: classes are vertices, free-graph steps
    # between member words are the edges
    from collections import defaultdict, deque

    members: dict[int, list[int]] = defaultdict(list)
    for i in range(len(nodes)):
        members[find(i)].append(i)
    start = find(0)
    dist: dict[int, int] = {start: 0}
    q = deque([start])
    while q:
        c = q.popleft()
        for i in members[c]:
            w = nodes[i]
            neighbors = []
            if w:
                neighbors.append(w[:-1])
            if len(w) < word_cap:
                for x in range(2 * m):
                    if not w or w[-1] != (x ^ 1):
                        neighbors.append(w + (x,))
            for v in neighbors:
                vi = index.get(v)
                if vi is None:
                    continue
                rv = find(vi)
                if rv not in dist:
                    dist[rv] = dist[c] + 1
                    q.append(rv)
    return UnverifiedBall(
        presentation=p,
        word_cap=word_cap,
        saturated=saturated,
        warning=(
            "distances are upper bounds from a bounded relator closure; "
            "no small-cancellation guarantee applies"
        ),
        _index=index,
        _root=root,
        _dist=dist,
    )
