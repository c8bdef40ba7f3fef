"""Word-problem and metric queries in a presented group.

All exact metric queries are gated on a verified strict C'(1/6) check: Dehn's
algorithm is then a correct triviality test, and geodesic words for one group
element are connected by boundary-arc swaps across the cells of (ladder)
bigon diagrams.  The ball construction identifies vertices through that swap
closure, so every vertex carries the lexicographically least geodesic word.

Presentations that are not verified refuse all exact queries.  A separate
naive-closure mode returns distance upper bounds (`UnverifiedBall`), with no
exactness claim (used by the high-density probes).

What a query learns about a presentation stays on that presentation object:
its window index (`Presentation.windows`), its Dehn engine
(`Presentation.engine`) and the largest ball `distance` has built
(`DehnEngine.ball`).  This module keeps nothing across presentations, so an
equal presentation loaded again builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    NotVerifiedError,
    PartialBallError,
)
from .model import Presentation, _trial_relators, check_seed, check_trials, relator_count
from .words import (
    EMPTY_WORD,
    _BYTE_OF_CODE,
    _c_prime_block,
    _decode_rows,
    _join,
    _reduce_ints,
    check_lambda,
)
from .bounds import wilson_interval

DEFAULT_VERTEX_BUDGET = 10**6
DEFAULT_CLOSURE_BUDGET = 20_000
CLOSURE_NODE_BUDGET = 300_000  # free-ball words of one naive closure
CLOSURE_PAIR_BLOCK = 1 << 17   # merge pairs of one naive closure ranked at once

LAMBDA_DEHN = Fraction(1, 6)


def is_dehn_ready(p: Presentation) -> bool:
    """Strict C'(1/6), the correctness condition for every exact query here:
    no window of the index at two slots (so no coincident relators) and every
    piece shorter than l/6, both read off the presentation's window index."""
    w, lam = p.windows, LAMBDA_DEHN
    return not w.repeats and w.longest_piece * lam.denominator < lam.numerator * p.l


def ensure_dehn_ready(p: Presentation) -> None:
    if not is_dehn_ready(p):
        den = LAMBDA_DEHN.denominator
        raise NotVerifiedError(
            f"presentation is not verified C'({LAMBDA_DEHN}): max piece "
            f"{p.windows.longest_piece} vs l/{den} = {p.l}/{den}"
        )


class DehnEngine:
    """Preprocessed rewriting machinery for one verified presentation.

    Every rotation of the relators and their inverses, and the longest
    piece, are read off the presentation's window index
    (`Presentation.windows`), the one the gate has read.  `arcs` maps the
    first t_move letters of each rotation to the rotation and its inverse; a
    window longer than every piece starts one rotation only, and under the
    gate 6p < l for the longest piece p, so t_move = ceil(l/2) - 2p >= p + 1.
    The complement of an arc rotation[:j] is rotation[j:], and its inverse
    the first l - j letters of the rotation's inverse.

    `ball` is the largest ball `distance` has built, or None: a ball of
    radius r answers every query of Dehn-reduced length at most r.
    """

    def __init__(self, p: Presentation):
        ensure_dehn_ready(p)
        self.l = p.l
        self.ab = p.alphabet
        self.windows = p.windows
        self.pmax = self.windows.longest_piece
        self.half = p.l // 2 + 1  # smallest length strictly more than half
        # arc thresholds from the verified piece bound: interior ladder cells
        # expose at least ceil(l/2) - 2*pmax letters on a geodesic side, end
        # cells at least l - pmax - floor(l/2)
        self.t_move = max(1, -(-p.l // 2) - 2 * self.pmax)
        self.t_detect = max(1, p.l - self.pmax - p.l // 2)
        self.slack = p.l - 2 * self.t_move
        rows = self.windows.rows(self.windows.keys)
        self.arcs = {
            window[: self.t_move]: (window, inverse)
            for window, inverse in zip(map(tuple, rows.tolist()),
                                       map(tuple, (rows[:, ::-1] ^ 1).tolist()))
        }
        assert len(self.arcs) == len(p.relators) * 2 * p.l, "a window lies at two slots"
        self.ball: CayleyBall | None = None

    def _match(self, w: tuple[int, ...], i: int):
        """The maximal arc match ((window, inverse), j) starting at position
        i of w: w[i : i + j] = window[:j], or None."""
        # every key has t_move letters, so a shorter tail finds none
        hit = self.arcs.get(w[i : i + self.t_move])
        if hit is None:
            return None
        window = hit[0]
        n = len(w)
        j = self.t_move
        while i + j < n and j < self.l and w[i + j] == window[j]:
            j += 1
        return hit, j

    def _find_arc(self, w: tuple[int, ...], k: int):
        """The first arc match (i, (window, inverse), j) in w of at least k
        letters, or None; k is at least t_move, the arcs' key length."""
        for i in range(len(w) - k + 1):
            hit = self._match(w, i)
            if hit is not None and hit[1] >= k:
                return (i, *hit)
        return None

    def dehn_step(self, w: tuple[int, ...]):
        """One >half-arc replacement in the reduced word w, or None."""
        found = self._find_arc(w, self.half)
        if found is None:
            return None
        i, (_, inverse), j = found
        return _join(_join(w[:i], inverse[: self.l - j]), w[i + j :])

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
                    (_, inverse), j = hit
                    # swapping any prefix of at least t_move letters of the
                    # matched arc s gives this one word: the rest of s
                    # cancels against the end of the longer complement.  u
                    # and the pieces are reduced, so only seams cancel
                    v = _join(_join(u[:i], inverse[: self.l - j]), u[i + j :])
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


def dehn_reduce(word: str, p: Presentation) -> str:
    """Greedy >half-relator replacement to a Dehn-irreducible word.

    For a verified C'(1/6) presentation the result is empty exactly when the
    input represents the identity.
    """
    eng = p.engine
    return eng.ab.decode(eng.dehn_reduce(eng.ab.encode(word)))


def _text_rows(parts: list, count: int) -> np.ndarray:
    """`count` rows of ASCII text as one uint8 array, each row the
    concatenation of `parts` in turn: a bytes part is the same in every row,
    an int array (values >= 0) gives each row its value in decimal, and a
    (count, w) uint8 matrix each row its own w bytes.

    The rows are one (count, width) byte matrix, filled from a template row
    and then a column slice per varying part.  A number fills the columns of
    the widest value right-aligned, with zero bytes to its left; no other
    part holds a zero byte, so when the values differ in width a mask of the
    nonzero bytes drops that padding."""
    if not count:
        return np.zeros(0, dtype=np.uint8)
    spans = [len(part) if isinstance(part, bytes)
             else part.shape[1] if part.ndim == 2 else len(str(part.max()))
             for part in parts]
    template = np.frombuffer(b"".join(part if isinstance(part, bytes) else bytes(span)
                                      for part, span in zip(parts, spans)), dtype=np.uint8)
    rows = np.empty((count, len(template)), dtype=np.uint8)
    rows[:] = template
    padded = False
    at = 0
    for part, span in zip(parts, spans):
        if isinstance(part, np.ndarray) and part.ndim == 2:
            rows[:, at : at + span] = part
        elif isinstance(part, np.ndarray):
            # the digits column by column, last first, each column
            # contiguous; a column past a value's leading digit is zero
            digits = np.empty((span, count), dtype=np.uint8)
            value = part.astype(np.int64)
            digits[-1] = value % 10 + 48
            for col in range(span - 2, -1, -1):
                value //= 10
                digits[col] = (value % 10 + 48) * (value > 0)
            rows[:, at : at + span] = digits.T
            padded |= span > 1 and not value.all()
        at += span
    return rows[rows > 0] if padded else rows


def _walk(adjacency: np.ndarray, codes) -> int | None:
    """The vertex that a word's letter codes lead to from the origin through
    a ball's adjacency, or None where they leave the ball."""
    at = 0
    for x in codes:
        at = adjacency.item(at, x)
        if at < 0:
            return None
    return at


@dataclass
class CayleyBall:
    """A ball of the Cayley graph, vertex ids in BFS order.

    `levels[n]` holds the words of the vertices at distance n as a (count,
    n) int8 letter-code matrix, in id order.  `adjacency[v, x]` is the
    vertex that letter code x leads to from v, or -1 where that edge leaves
    the ball (only at the rim).
    """

    presentation: Presentation
    radius: int
    levels: list[np.ndarray]             # canonical (lex-least geodesic) words per level
    dist: np.ndarray                     # (N,) int32
    adjacency: np.ndarray                # (N, 2m) int32, -1 past the rim

    @cached_property
    def words(self) -> list[str]:
        """Each vertex's word as a string, EMPTY_WORD for the origin."""
        return [EMPTY_WORD] + [w for block in self.levels[1:] for w in _decode_rows(block)]

    def vertex_of_word(self, word: str) -> int | None:
        """Walk a word from the origin through recorded adjacency."""
        return _walk(self.adjacency, self.presentation.alphabet.encode(word))

    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every recorded (u, x, v) with adjacency[u, x] = v, ordered by u, x."""
        u, x = np.nonzero(self.adjacency >= 0)
        return u, x, self.adjacency[u, x]

    def _edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ball's edges as (low, high, letter byte) columns, each edge
        once, sorted by low end, high end and letter.  Every edge is recorded
        from both ends, so its entry at the low end names it, with the letter
        read from there.  One int64 key per such entry, (low * N + high) *
        256 + letter byte, is sorted; the byte order of ASCII letters is
        their order as strings."""
        n = len(self.dist)
        low, x = np.nonzero(self.adjacency > np.arange(n)[:, None])
        key = (low * n + self.adjacency[low, x]) << 8 | _BYTE_OF_CODE[x]
        key.sort()
        pair = key >> 8
        return pair // n, pair % n, (key & 255).astype(np.uint8)

    def json_text(self, indent: str = "") -> str:
        """The ball as indented, key-sorted JSON, with every line after the
        first led by `indent`: the layout of `json.dumps(..., indent=2,
        sort_keys=True)` of {"edges", "l", "m", "radius", "vertices"}, the
        edges as `_edge_columns` rows and each vertex as {"distance", "id",
        "word"}.  Its rows are written in bulk from the arrays
        (`_text_rows`): the edges at once, and the vertices one block per
        level and id width, whose rows are all of one width.  Words and
        letters are ASCII letters or EMPTY_WORD, so no string needs
        escaping."""
        i1, i2, i3 = (f"\n{indent}{pad}".encode() for pad in ("  ", "    ", "      "))
        sep = b"," + i2
        low, high, letter = self._edge_columns()
        edges = _text_rows([b"[" + i3, low, b"," + i3, high, b"," + i3 + b'"', letter[:, None],
                            b'"' + i2 + b"]" + sep], len(low))
        origin = np.frombuffer(EMPTY_WORD.encode(), dtype=np.uint8)[None]
        vertices = []
        start = 0
        for n, block in enumerate(self.levels):
            words = _BYTE_OF_CODE[block] if n else origin
            stop = start + len(block)
            cuts = [10**k for k in range(len(str(start)), len(str(stop - 1)))]  # id widths
            for a, b in zip([start, *cuts], [*cuts, stop]):
                vertices.append(_text_rows(
                    [b"{" + i3 + b'"distance": %d,' % n + i3 + b'"id": ', np.arange(a, b),
                     b"," + i3 + b'"word": "', words[a - start : b - start],
                     b'"' + i2 + b"}" + sep], b - a))
            start = stop
        # the last row of each list ends without its separator
        vertices[-1] = vertices[-1].reshape(-1)[: -len(sep)]
        edges = [b"[" + i2, edges.reshape(-1)[: -len(sep)], i1 + b"]"] if len(low) else [b"[]"]
        p = self.presentation
        return b"".join([
            b"{" + i1 + b'"edges": ', *edges,
            b"," + i1 + b'"l": %d,' % p.l + i1 + b'"m": %d,' % p.m,
            i1 + b'"radius": %d,' % self.radius + i1 + b'"vertices": [' + i2, *vertices,
            i1 + b"]" + f"\n{indent}}}".encode(),
        ]).decode("ascii")

    def adjacency_csv(self) -> str:
        u, x, v = self._edges()
        rows = _text_rows([u, b",", v, b",", _BYTE_OF_CODE[x][:, None], b"\n"], len(u))
        return b"".join([b"src,dst,letter\n", rows]).decode("ascii")


def cayley_ball(
    p: Presentation,
    radius: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> CayleyBall:
    """Exact ball of the word metric, vertices named by lex-least geodesics.

    The ball is built level by level on arrays.  The candidates of level n
    are the open pairs (u, x) of level n-1, in BFS order, and each maps to a
    vertex that depends only on its word words[u] + x:

    - a candidate w = words[u] + x is suspicious when 2n >= l and its last
      t_detect letters start a relator rotation: one prefix range of the
      engine's window index for all the tails at once.  A candidate that is
      not suspicious (always so while 2n < l) is a new vertex, named by
      itself.  This is the end-cell argument.  The geodesics of w's element
      that end in x are u's geodesics followed by x, so w is the least of
      them and the only candidate among them.  Any other geodesic v does
      not end in x, nor does any when the element lies at distance n - 1
      (v = v' + x would name u in n - 2 letters).  So the last component of
      the reduced bigon w v^-1 touches w's end, and its end cell exposes at
      least l - p_max - floor(l/2) = t_detect letters as a suffix of w, as
      v, a geodesic, holds at most floor(l/2) of them;
    - a suspicious word goes through Python: Dehn reduction or the geodesic
      swap closure finds a strictly shorter word, which walks back through
      the completed levels, or the class of equal geodesic words, named by
      its least member.  Every member of such a class is suspicious by the
      same argument.

    So the new vertices are the non-suspicious candidates and the first
    candidate of each new class, in candidate order.  A final rim pass adds
    the edges between vertices at the radius, which only suspicious rim
    candidates can have; when l is even the graph is bipartite and has none.

    Words are stored as one (count, n) int8 letter-code matrix per level,
    which the ball keeps (`CayleyBall.levels`), and the tails of a level
    are searched in the window index as such a matrix
    (`_WindowIndex.prefix_ranges`, which finds nothing for a letter no
    relator uses).  A level that would take the ball past
    `vertex_budget` vertices raises PartialBallError before any of its rows
    are made, and a budget below 1, which not even the origin fits, raises
    it before anything is built.
    """
    if radius < 0:
        raise DomainError(f"need a ball radius >= 0, got {radius}")
    if vertex_budget < 1:
        raise PartialBallError(f"vertex budget {vertex_budget} exhausted",
                               completed_radius=-1, budget=vertex_budget)
    eng = p.engine
    k = 2 * p.m
    adjacency = np.full((1, k), -1, dtype=np.int32)
    levels = [np.zeros((1, 0), dtype=np.int8)]  # level n: its words as letter codes
    canon_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def identify(w: tuple[int, ...]) -> int | tuple[int, ...]:
        """The vertex of a suspicious candidate w equal to a shorter word,
        else the least word of its class."""
        n = len(w)
        short = eng.dehn_reduce(w)
        if len(short) < n:
            return _walk(adjacency, short)
        same, shorter = eng.geodesic_closure(w)
        if shorter is not None:
            return _walk(adjacency, eng.dehn_reduce(shorter))
        key = min(same)
        for member in same:
            canon_cache[member] = key
        return key

    def past_budget(size: int, made: int) -> bool:
        # whether one of the `made` vertices new on a level of `size` took
        # the ball past the budget.  It is asked in candidate order, so the
        # error comes before any work on later candidates
        return made > 0 and size + made > vertex_budget

    start = 0  # first id of the last level
    for n in range(1, radius + 1 + p.l % 2):
        rim = n > radius
        size = len(adjacency)
        prev = levels[-1]
        # the open candidates (u, x) of the last level, in BFS order
        rows, x = np.nonzero(adjacency[start:] < 0)
        u = rows + start
        suspicious = np.zeros(len(u), dtype=bool)
        if 2 * n >= p.l:  # so n >= ceil(l/2) >= t_detect
            tails = np.concatenate(
                [prev[rows, n - eng.t_detect :], x.astype(np.int8)[:, None]], axis=1
            )
            starts, stops = eng.windows.prefix_ranges(tails)
            suspicious = stops > starts
        target = np.full(len(u), -1, dtype=np.int64)  # an existing vertex, else -1
        creates = np.zeros_like(suspicious) if rim else ~suspicious
        first: dict[tuple[int, ...], int] = {}  # new class key -> its first candidate
        again = []                              # (candidate, first candidate of its class)
        idx = np.flatnonzero(suspicious)
        for i, before, row, xi in zip(idx.tolist(), np.cumsum(creates)[idx].tolist(),
                                      prev[rows[idx]].tolist(), x[idx].tolist()):
            if past_budget(size, before + len(first)):
                break
            w = (*row, xi)
            r = canon_cache.get(w)
            if r is None:
                r = identify(w)
            if type(r) is int:
                target[i] = r
            elif not rim:  # a class key: rim classes lie outside the ball
                j = first.setdefault(r, i)
                if j == i:
                    creates[i] = True
                else:
                    again.append((i, j))
        total = int(creates.sum())
        if past_budget(size, total):
            raise PartialBallError(
                f"vertex budget {vertex_budget} exhausted",
                completed_radius=n - 1,
                budget=vertex_budget,
            )
        if not rim:
            ids = size - 1 + np.cumsum(creates)
            target[creates] = ids[creates]
            if again:
                i, j = np.array(again).T
                target[i] = target[j]
            words = np.concatenate(
                [prev[rows[creates]], x[creates].astype(np.int8)[:, None]], axis=1
            )
            if first:
                words[ids[list(first.values())] - size] = list(first)
            levels.append(words)
            adjacency = np.concatenate([adjacency, np.full((total, k), -1, dtype=np.int32)])
            start = size
        ok = target >= 0
        u, x, v = u[ok], x[ok], target[ok]
        adjacency[u, x] = v
        adjacency[v, x ^ 1] = u
    return CayleyBall(
        presentation=p,
        radius=radius,
        levels=levels,
        dist=np.repeat(np.arange(len(levels), dtype=np.int32), [len(b) for b in levels]),
        adjacency=adjacency,
    )


def distance(p: Presentation, word: str) -> int:
    """Exact distance from the identity.

    The word is Dehn-reduced first (an upper bound on the distance), then the
    element is located in the engine's ball, which is rebuilt at that radius
    only when it is smaller.
    """
    eng = p.engine
    w = eng.dehn_reduce(eng.ab.encode(word))
    if not w:
        return 0
    if eng.ball is None or eng.ball.radius < len(w):
        eng.ball = cayley_ball(p, len(w))
    return int(eng.ball.dist[_walk(eng.ball.adjacency, w)])


def is_geodesic(p: Presentation, word: str) -> bool:
    eng = p.engine
    w = eng.ab.encode(word)
    if _reduce_ints(w) != w:
        return False
    return distance(p, word) == len(w)


def hyperbolicity_delta_bound(l: int, d) -> Fraction:
    """Upper bound 4l/(1-2d) for the hyperbolicity constant."""
    d = Fraction(d)
    if not (0 <= d < Fraction(1, 2)):
        raise DomainError(f"need 0 <= d < 1/2, got {d}")
    if l < 1:
        raise DomainError(f"need l >= 1, got l={l}")
    return Fraction(4 * l) / (1 - 2 * d)


# ---------------------------------------------------------------------------
# Genericity scan
# ---------------------------------------------------------------------------


@dataclass
class ScanCell:
    d: Fraction
    trials: int
    passes: int

    @property
    def empty(self) -> bool:
        return self.trials == 0

    @property
    def p_hat(self) -> float:
        return self.passes / self.trials if self.trials else float("nan")

    def interval(self) -> tuple[float, float]:
        if not self.trials:
            return (float("nan"), float("nan"))
        return wilson_interval(self.passes, self.trials)

    def to_dict(self) -> dict:
        # an empty cell has no estimate: null, since JSON has no NaN
        p_hat, (lo, hi) = (None, (None, None)) if self.empty else (self.p_hat, self.interval())
        return {
            "d": str(self.d),
            "trials": self.trials,
            "passes": self.passes,
            "empty": self.empty,
            "p_hat": p_hat,
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
    """Per-cell fraction of sampled presentations satisfying C'(λ).  Trial
    t of cell ci samples with the derived seed SeedSequence(seed,
    spawn_key=(ci, t)); the trials' relators are drawn a block of trials at
    a time (`_trial_relators`), and each block is checked at once, its
    trials' keys sorted together (`words._c_prime_block`).  The trial count
    is bounded by TRIAL_BUDGET.  λ and every cell's relator count are
    checked before the first draw, so a scan of no trials refuses the same
    inputs as any other."""
    check_seed(seed)
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    check_trials(trials)
    lam = Fraction(lam)
    check_lambda(lam)
    d_grid = [Fraction(d) for d in d_grid]
    for d in d_grid:
        relator_count(m, l, d)
    report = GenericityScanReport(m=m, l=l, lam=lam, seed=seed)
    for ci, d in enumerate(d_grid):
        t = np.arange(trials, dtype=np.uint32)
        keys = np.stack([np.full_like(t, ci), t], axis=1)
        passes = sum(int(_c_prime_block(block, lam).sum())
                     for block in _trial_relators(m, l, d, seed, keys))
        report.cells.append(ScanCell(d=d, trials=trials, passes=passes))
    return report


# ---------------------------------------------------------------------------
# Unverified (naive closure) mode
# ---------------------------------------------------------------------------


@dataclass
class UnverifiedBall:
    """Quotient of the free ball by relator closure within a word-length cap.

    The nodes are the reduced words of length at most the cap, numbered as
    in `naive_closure_ball`: `starts[n]` is the first node of length n, and
    the last entry is the node count.  `label[v]` is the least node of v's
    class, and `dist[v]` the quotient distance of that class.

    Distances here are upper bounds for the true word metric (every quotient
    edge is a real Cayley edge); nothing is claimed exact.
    """

    presentation: Presentation
    starts: list[int]
    label: np.ndarray  # (N,) int64
    dist: np.ndarray   # (N,) int64

    def class_of_word(self, word: str) -> int | None:
        w = _reduce_ints(self.presentation.alphabet.encode(word))
        if len(w) >= len(self.starts) - 1:
            return None
        rank = w[0] if w else 0
        for prev, x in zip(w, w[1:]):
            rank = rank * (2 * self.presentation.m - 1) + x - (x > prev ^ 1)
        return int(self.label[self.starts[len(w)] + rank])

    def distance_upper(self, word: str) -> int | None:
        """Upper bound on d(1, word); None when the word leaves the cap."""
        c = self.class_of_word(word)
        return None if c is None else int(self.dist[c])


def naive_closure_ball(p: Presentation, word_cap: int) -> UnverifiedBall:
    """Bounded congruence closure: no termination or exactness guarantee.

    The nodes are the reduced words of length at most the cap, shortest
    first and in generation order within a length: the first letter in base
    2m, then each later code c, which cannot be the inverse of the letter
    before, as the digit c − (c > prev ^ 1) in base 2m − 1.  So a word's node
    is its length's offset plus that mixed-radix rank, and the words of one
    length are one (count, n) int8 letter-code matrix, each made from the
    last by appending every digit to every row.  The free ball's size is
    summed one length at a time first: a ball of more than
    CLOSURE_NODE_BUDGET words raises BudgetExceededError before any matrix
    is made, and a word cap below 0 raises DomainError.

    Every node w is merged with the node w·ρ for each relator rotation ρ that
    lands inside the cap.  Both words are reduced, so w·ρ reduces to
    w[:n-k] + ρ[k:] for the length k of the cancellation at the seam, and it
    has length ≤ cap exactly when k ≥ k0 = max(0, ⌈(n + l - cap)/2⌉).  So
    only the rotations whose first k0 letters invert the last k0 letters of w
    are tried: a prefix range of the presentation's window index
    (`Presentation.windows`), the one that the gate and round trees read.
    The nodes of one length share k0 and ask for their ranges at once
    (`prefix_ranges`).  Each (node, rotation) pair found then takes its own
    seam, which can pass k0, and ranks its joined word by arithmetic: the
    prefix's rank is w's rank divided by (2m − 1)^k, and ρ's letters after
    the seam follow as digits.  The index is first read for the first length
    with k0 ≤ min(n, l), so a cap below l/2, where no node can merge, reads
    no relator text when nothing has built the index before.

    The merge pairs are therefore a fixed set, and the classes are its
    connected components.  The pairs are ranked CLOSURE_PAIR_BLOCK at a
    time, so memory follows the block and not the pair count, and each block
    is joined into the node labels by min-label pointer jumping
    (`_least_labels`).  A label only ever falls to a smaller node of its
    component, so each class ends labelled by its least node, whatever the
    order of the pairs: the node numbers are the generation order, so that
    is its shortest, then first generated, word.  The distances are a
    level-synchronous search from the origin's class over the free edges
    (w, parent of w), with both ends mapped to their labels: in generation
    order the origin has 2m children and every later node 2m − 1, in a row.
    """
    if word_cap < 0:
        raise DomainError(f"need a word cap >= 0, got {word_cap}")
    k, base = 2 * p.m, 2 * p.m - 1
    starts = [0, 1]  # the first node of each length, then the node count
    for n in range(1, word_cap + 1):
        starts.append(starts[-1] + k * base ** (n - 1))
        if starts[-1] > CLOSURE_NODE_BUDGET:
            raise BudgetExceededError(
                f"naive closure exceeded {CLOSURE_NODE_BUDGET} nodes at cap {word_cap}",
                budget=CLOSURE_NODE_BUDGET,
            )
    levels = [np.zeros((1, 0), dtype=np.int8), np.arange(k, dtype=np.int8)[:, None]]
    digits = np.arange(base, dtype=np.int8)
    for _ in range(2, word_cap + 1):
        prev = levels[-1]
        x = digits + (digits >= prev[:, -1:] ^ 1)
        levels.append(np.concatenate([np.repeat(prev, base, axis=0), x.reshape(-1, 1)], axis=1))
    first = np.array(starts)
    label = np.arange(starts[-1])
    for n, words in enumerate(levels[: word_cap + 1]):
        k0 = max(0, -(-(n + p.l - word_cap) // 2))
        if k0 > min(n, p.l):
            continue
        windows = p.windows
        lo, hi = windows.prefix_ranges(words[:, n - k0 :][:, ::-1] ^ 1)
        ends = np.cumsum(hi - lo)  # the pairs of row r end at ends[r]
        for at in range(0, int(ends[-1]), CLOSURE_PAIR_BLOCK):
            pair = np.arange(at, min(at + CLOSURE_PAIR_BLOCK, int(ends[-1])))
            row = np.searchsorted(ends, pair, side="right")
            rho = windows.rows(windows.keys[hi[row] - ends[row] + pair])
            w = words[row]
            seam = np.full(len(row), k0)
            on = np.ones(len(row), dtype=bool)
            for t in range(k0, min(n, p.l)):
                on &= w[:, n - 1 - t] == rho[:, t] ^ 1
                seam += on
            head = n - seam
            rank = np.where(head > 0, row // base**seam, 0)
            # the inverse of the letter before the seam, which cannot follow
            # it; k where no letter is left
            barred = np.concatenate([np.full((len(row), 1), k, dtype=np.int8), w ^ 1],
                                    axis=1)[np.arange(len(row)), head]
            for j in range(p.l):
                past = j >= seam
                x = rho[:, j]
                rank = np.where(past, rank * base + x - (x > barred), rank)
                barred = np.where(past, x ^ 1, barred)
            label = _least_labels(label, starts[n] + row, first[head + p.l - seam] + rank)
    nodes = np.arange(1, starts[-1])  # each with the label of its parent
    a, b = label[nodes], label[np.maximum((nodes - k - 1) // base + 1, 0)]
    dist = np.full(starts[-1], -1)
    dist[0] = 0
    d = 0
    while len(a):
        da, db = dist[a], dist[b]
        dist[np.concatenate([b[(da == d) & (db < 0)], a[(db == d) & (da < 0)]])] = d + 1
        live = (da < 0) | (db < 0)  # an edge with an end not yet reached
        a, b, d = a[live], b[live], d + 1
    return UnverifiedBall(presentation=p, starts=starts, label=label, dist=dist[label])


def _least_labels(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Node labels with the pairs (a, b) joined, by min-label pointer
    jumping.  `label` maps every node to the least node of its component so
    far (label[label] == label).  Each round hangs the larger label of every
    pair that still differs under the smaller, then jumps every label to its
    root.  A label never rises and never leaves its component, so each
    component ends labelled by its least node."""
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        a, b, la, lb = a[differ], b[differ], la[differ], lb[differ]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while (label[label] != label).any():
            label = label[label]
