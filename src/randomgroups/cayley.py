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
from typing import NamedTuple

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
    _row_keys,
    check_lambda,
)
from .bounds import wilson_interval

DEFAULT_VERTEX_BUDGET = 10**6
DEFAULT_CLOSURE_BUDGET = 20_000
CLOSURE_NODE_BUDGET = 300_000  # free-ball words of one naive closure
CLOSURE_PAIR_BLOCK = 1 << 17   # merge pairs of one naive closure ranked at once
SWAP_OWNER_BLOCK = 1 << 12     # ball candidates whose swap closures run at once

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
    the first l - j letters of the rotation's inverse.  `rotations` and
    `inverses` hold the same rotations as two (2R·l, l) int8 matrices, in
    the index's key order.

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
        # the rotations in key order, and their inverses, for the batched
        # swap closure of the ball build (`_swap_closures`)
        self.rotations = self.windows.rows(self.windows.keys)
        self.inverses = self.rotations[:, ::-1] ^ 1
        self.arcs = {
            window[: self.t_move]: (window, inverse)
            for window, inverse in zip(map(tuple, self.rotations.tolist()),
                                       map(tuple, self.inverses.tolist()))
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


def dehn_reduce(word: str, p: Presentation) -> str:
    """Greedy >half-relator replacement to a Dehn-irreducible word.

    For a verified C'(1/6) presentation the result is empty exactly when the
    input represents the identity.
    """
    eng = p.engine
    return eng.ab.decode(eng.dehn_reduce(eng.ab.encode(word)))


def _decimal_digits(values: np.ndarray) -> np.ndarray:
    """The ints >= 0 of `values` in decimal as a (count, span) uint8 matrix,
    span the width of the largest: each row right-aligned, with zero bytes
    to the left of a shorter value's leading digit."""
    span = len(str(values.max())) if len(values) else 1
    # the digits column by column, last first, each column contiguous; a
    # column past a value's leading digit is zero
    digits = np.empty((span, len(values)), dtype=np.uint8)
    value = values.astype(np.int64)
    digits[-1] = value % 10 + 48
    for col in range(span - 2, -1, -1):
        value //= 10
        digits[col] = (value % 10 + 48) * (value > 0)
    return np.ascontiguousarray(digits.T)


def _text_rows(parts: list, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """`count` rows of ASCII text as one uint8 array, each row the
    concatenation of `parts` in turn: a bytes part is the same in every row,
    an int array (values >= 0) gives each row its value in decimal
    (`_decimal_digits`), and a (count, w) uint8 matrix each row its own w
    bytes, less any zero bytes it starts with.

    The rows are one (count, width) byte matrix, filled from a template row
    and then a column slice per varying part: `out` when it is given, a
    uint8 array of that many bytes.  A number fills the columns of the
    widest value right-aligned, with zero bytes to its left, as a matrix of
    such numbers does; no other part holds a zero byte, so when a row starts
    one of these parts with one, a mask of the nonzero bytes drops that
    padding, into a new array.  Rows written into `out` must hold none."""
    if not count:
        return np.zeros(0, dtype=np.uint8)
    parts = [part if isinstance(part, bytes) or part.ndim == 2 else _decimal_digits(part)
             for part in parts]
    template = np.frombuffer(b"".join(part if isinstance(part, bytes) else bytes(part.shape[1])
                                      for part in parts), dtype=np.uint8)
    rows = (np.empty((count, len(template)), dtype=np.uint8) if out is None
            else out.reshape(count, len(template)))
    rows[:] = template
    padded = False
    at = 0
    for part in parts:
        if isinstance(part, bytes):
            at += len(part)
            continue
        span = part.shape[1]
        rows[:, at : at + span] = part
        padded |= span > 1 and not part[:, 0].all()
        at += span
    assert not (padded and out is not None), "padding in rows written in place"
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
        n, k = self.adjacency.shape
        at = np.flatnonzero(self.adjacency > np.arange(n)[:, None])
        low, x = np.divmod(at, k)
        key = (low * n + self.adjacency.ravel()[at]) << 8 | _BYTE_OF_CODE[x]
        key.sort(kind="stable")  # a merge sort: the keys come nearly sorted
        pair = key >> 8
        return pair // n, pair % n, (key & 255).astype(np.uint8)

    def json_text(self, indent: str = "") -> str:
        """The ball as indented, key-sorted JSON, with every line after the
        first led by `indent`: the layout of `json.dumps(..., indent=2,
        sort_keys=True)` of {"edges", "l", "m", "radius", "vertices"}, the
        edges as `_edge_columns` rows and each vertex as {"distance", "id",
        "word"}.  Its rows are written in bulk from the arrays
        (`_text_rows`): the edges at once, and the vertices one block per
        level and id width, whose rows are all of one width, each straight
        into its place in the one byte array that is decoded at the end.
        Every id is written from one decimal table of the vertex ids,
        sliced for the vertex rows and gathered for the two edge columns.
        Words and letters are ASCII letters or EMPTY_WORD, so no string
        needs escaping."""
        i1, i2, i3 = (f"\n{indent}{pad}".encode() for pad in ("  ", "    ", "      "))
        sep = b"," + i2
        low, high, letter = self._edge_columns()
        ids = _decimal_digits(np.arange(len(self.dist)))
        edges = _text_rows([b"[" + i3, ids.take(low, axis=0), b"," + i3, ids.take(high, axis=0),
                            b"," + i3 + b'"', letter[:, None], b'"' + i2 + b"]" + sep], len(low))
        origin = np.frombuffer(EMPTY_WORD.encode(), dtype=np.uint8)[None]
        blocks = []  # (parts, rows, bytes) of each vertex block
        start = 0
        for n, block in enumerate(self.levels):
            words = _BYTE_OF_CODE[block] if n else origin
            stop = start + len(block)
            cuts = [10**k for k in range(len(str(start)), len(str(stop - 1)))]  # id widths
            for a, b in zip([start, *cuts], [*cuts, stop]):
                parts = [b"{" + i3 + b'"distance": %d,' % n + i3 + b'"id": ',
                         ids[a:b, ids.shape[1] - len(str(a)) :],
                         b"," + i3 + b'"word": "', words[a - start : b - start],
                         b'"' + i2 + b"}" + sep]
                width = sum(len(part) if isinstance(part, bytes) else part.shape[1]
                            for part in parts)
                blocks.append((parts, b - a, (b - a) * width))
            start = stop
        p = self.presentation
        # the last row of each list ends without its separator
        head = [b"{" + i1 + b'"edges": ',
                *([b"[" + i2, edges.reshape(-1)[: -len(sep)], i1 + b"]"] if len(low) else [b"[]"]),
                b"," + i1 + b'"l": %d,' % p.l + i1 + b'"m": %d,' % p.m + i1
                + b'"radius": %d,' % self.radius + i1 + b'"vertices": [' + i2]
        tail = np.frombuffer(i1 + b"]" + f"\n{indent}}}".encode(), dtype=np.uint8)
        size = sum(map(len, head)) + sum(nbytes for *_, nbytes in blocks) - len(sep) + len(tail)
        text = np.empty(size + len(sep), dtype=np.uint8)
        at = 0
        for part in head:
            text[at : at + len(part)] = np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part
            at += len(part)
        for parts, count, nbytes in blocks:
            _text_rows(parts, count, out=text[at : at + nbytes])
            at += nbytes
        text[at - len(sep) : size] = tail
        return str(text[:size], "ascii")

    def adjacency_csv(self) -> str:
        u, x, v = self._edges()
        rows = _text_rows([u, b",", v, b",", _BYTE_OF_CODE[x][:, None], b"\n"], len(u))
        return b"".join([b"src,dst,letter\n", rows]).decode("ascii")


def _walk_rows(adjacency: np.ndarray, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The vertex that the first `lengths[i]` letter codes of each row i of
    a matrix lead to from the origin, through adjacency that holds every
    edge they take."""
    at = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        at = np.where(j < lengths, adjacency[at, rows[:, j]], at)
    return at


def _swaps(eng: DehnEngine, frontier: np.ndarray, length: np.ndarray):
    """Every relator-arc swap in the words of a frontier, an (R, cap) int8
    matrix whose row r holds a reduced word of length[r] letters, that
    leaves at most cap letters and may be new: (rows, words, lengths), the
    words zero-padded to cap letters and in generation order, by row and
    then by position.

    An arc is the first t_move letters of a rotation at some position i of
    a word u: one membership test of all those windows in the window index
    (`prefix_firsts`), and t_move > p_max, so they start one rotation only.
    The match runs on for j <= l letters, and the swap is
    u[:i] · inverse[:l - j] · u[i + j:], freely reduced.  When u[i - 1] is
    the rotation's last letter, u reads the rotation that starts there from
    i - 1 on, and the swap of that arc is this word, made first: the swap
    is dropped.  So no letter cancels on the left, and none on the right
    while some of the inverse is left, since j is maximal.  When none is
    left (j = l, a whole relator), the two ends of u may cancel k letters.
    This is the word that `_join` makes of the same parts."""
    l, t = eng.l, eng.t_move
    width = frontier.shape[1]
    if width < t:
        return np.zeros(0, dtype=np.int64), frontier[:0], length[:0]
    windows = np.lib.stride_tricks.sliding_window_view(frontier, t, axis=1)
    row, at = np.nonzero(np.arange(width - t + 1) + t <= length[:, None])
    key = eng.windows.prefix_firsts(windows[row, at])
    row, at, key = row[key >= 0], at[key >= 0], key[key >= 0]
    flat, rot = frontier.ravel(), eng.rotations.ravel()
    base, turn = row * width, key * l
    first = (at == 0) | (flat[base + at - 1] != rot[turn + l - 1])
    row, at, base, turn = row[first], at[first], base[first], turn[first]
    size = length[row]

    def letter(col):
        return flat[base + np.clip(col, 0, width - 1)]

    j = np.full(len(row), t)
    on = np.ones(len(row), dtype=bool)
    for s in range(t, l):
        on &= (at + s < size) & (letter(at + s) == rot[turn + s])
        if not on.any():
            break
        j += on
    k = np.zeros_like(j)
    on = j == l
    for s in range(width):
        on &= (s < at) & (s < size - at - l) & (letter(at - 1 - s) == letter(at + l + s) ^ 1)
        if not on.any():
            break
        k += on
    out = size + l - 2 * (j + k)
    keep = out <= width
    row, at, turn, base, j, k, out = (a[keep] for a in (row, at, turn, base, j, k, out))
    # letter s of a swap: u[s] up to the head, then the inverse, then the
    # rest of u from i + j + k, then zero; all read off one flat text of the
    # frontier, the inverses and a zero
    text = np.concatenate([flat, eng.inverses.ravel(), np.zeros(1, dtype=np.int8)])
    head, mid = (at - k).astype(np.int32)[:, None], (l - j).astype(np.int32)[:, None]
    s = np.arange(width, dtype=np.int32)
    past = s - head
    index = np.where(past < 0, (base.astype(np.int32)[:, None] + s),
                     np.where(past < mid, (len(flat) + turn).astype(np.int32)[:, None] + past,
                              (base + at + j + k).astype(np.int32)[:, None] + past - mid))
    index[s >= out[:, None]] = len(text) - 1
    return row, text[index], out


class _Closures(NamedTuple):
    """The swap closures of N words of one length n (`_swap_closures`)."""

    short: np.ndarray      # (N, n) int8: each word's first strictly shorter word, zero-padded
    short_len: np.ndarray  # (N,) that word's length, or -1 where none was found
    owner: np.ndarray      # (M,) with `same`: the length-n words that each word
    same: np.ndarray       # (M, n) reached, for those that found no shorter one, in word order
    label: np.ndarray      # (N,) the first word of each word's class, or -1
    least: np.ndarray      # (N, n) int8: at a class's first word, the class's least word
    overrun: int           # the first word whose closure passed the budget, or N


def _swap_closures(eng: DehnEngine, words: np.ndarray, classes: bool = True) -> _Closures:
    """The geodesic swap closures of the rows of an (N, n) int8 matrix of
    reduced words, run together on arrays, SWAP_OWNER_BLOCK words (owners)
    at a time.

    The closure of a word w explores the words that relator-arc swaps
    (`_swaps`) reach from it, of at most cap = n + slack letters: enough to
    cross any ladder cell under the verified piece bound.  It runs breadth
    first, one round per step, with one frontier matrix for all owners and
    an owner per row.  Each round generates its owners' swaps in the order
    of a Python breadth-first search of each owner alone: frontier row,
    then position.  A swap already seen by its owner, or seen earlier in
    the round, is dropped: one lexicographic sort of (owner, length, packed
    word) rows, the owner's seen words first.  An owner stops at its first
    strictly shorter word.  In the first round it stops there whatever came
    before: a shorter swap of w itself is a Dehn step.  Otherwise it passes
    the budget when its seen words, w included, would number more than
    DEFAULT_CLOSURE_BUDGET before its first shorter word; that is when the
    search of that owner alone would have stopped, so the first such owner
    is `overrun`, and no owner after it runs on.  A block holds its owners'
    seen words together, so it is bounded by SWAP_OWNER_BLOCK times that
    budget; on the radius-11 (2, 13, 0) ball a search sees 5.6 words on
    average and 10 at most.

    An owner that finds no shorter word is a geodesic, and its class is the
    length-n words it reached.  When classes are asked for, owners that
    reach a common word are merged (`_least_labels`), so each class is
    labelled by its first owner and named by its least word."""
    N, n = words.shape
    cap = n + eng.slack
    m = eng.ab.m
    short = np.zeros((N, n), dtype=np.int8)
    short_len = np.full(N, -1)
    owners, sames = [np.arange(N)], [words]
    overrun = N
    for lo in range(0, N, SWAP_OWNER_BLOCK):
        B = min(SWAP_OWNER_BLOCK, N - lo)
        frontier = np.zeros((B, cap), dtype=np.int8)
        frontier[:, :n] = words[lo : lo + B]
        length, owner = np.full(B, n), np.arange(B)
        seen_at, seen_keys = owner * (cap + 1) + n, _row_keys(frontier, m)
        seen = np.ones(B, dtype=np.int64)
        running = np.ones(B, dtype=bool)
        first = True
        while len(frontier):
            row, swapped, size = _swaps(eng, frontier, length)
            by = owner[row]
            pos = np.arange(len(row))
            shorter = size < n
            stop = np.full(B, len(row))
            who, at = np.unique(by[shorter], return_index=True)
            stop[who] = pos[shorter][at]
            # drop the swaps seen before, by their owner or earlier in the round
            rest = np.flatnonzero(~shorter)
            where = np.concatenate([seen_at, by[rest] * (cap + 1) + size[rest]])
            keys = [np.concatenate(pair) for pair in zip(seen_keys, _row_keys(swapped[rest], m))]
            order = np.lexsort([*keys[::-1], where])
            where, keys = where[order], [k[order] for k in keys]
            head = np.ones(len(order), dtype=bool)
            head[1:] = where[1:] != where[:-1]
            for k in keys:
                head[1:] |= k[1:] != k[:-1]
            fresh = order[head] - len(seen_at)
            new = np.zeros(len(row), dtype=bool)
            new[rest[fresh[fresh >= 0]]] = True
            counted = np.bincount(by[new & (pos < stop[by])], minlength=B)
            found = stop < len(row)
            over = seen + counted > DEFAULT_CLOSURE_BUDGET
            if first:
                over &= ~found
            found &= ~over
            if over.any():
                overrun = min(overrun, lo + int(np.argmax(over)))
            f = np.flatnonzero(found)
            short[lo + f] = swapped[stop[f], :n]
            short_len[lo + f] = size[stop[f]]
            running &= ~(found | over)
            running[max(overrun - lo, 0) :] = False
            nxt = new & running[by]
            if classes:
                level = nxt & (size == n)
                owners.append(lo + by[level])
                sames.append(swapped[level, :n])
            seen += np.bincount(by[nxt], minlength=B)
            live = running[where[head] // (cap + 1)]
            seen_at, seen_keys = where[head][live], [k[head][live] for k in keys]
            frontier, length, owner = swapped[nxt], size[nxt], by[nxt]
            first = False
        if overrun < N:
            break
    label = np.full(N, -1)
    least = np.zeros((N, n), dtype=np.int8)
    owner, same = np.concatenate(owners), np.concatenate(sames)
    keep = (short_len[owner] < 0) & (owner < overrun) & classes
    owner, same = owner[keep], same[keep]
    keys = _row_keys(same, m)
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(owner))
    owner, same, keys = owner[order], same[order], [k[order] for k in keys]
    twice = np.ones(max(len(owner) - 1, 0), dtype=bool)
    for k in keys:
        twice &= k[1:] == k[:-1]
    eligible = (short_len < 0) & (np.arange(N) < overrun) & classes
    label[eligible] = _least_labels(np.arange(N), owner[1:][twice], owner[:-1][twice])[eligible]
    cls, at = np.unique(label[owner], return_index=True)
    least[cls] = same[at]
    return _Closures(short, short_len, owner, same, label, least, overrun)


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
      t_detect letters start a relator rotation: one membership test of all
      the tails of a level among the distinct t_detect-letter prefixes of
      the engine's window index (`_WindowIndex.prefix_firsts`, which finds
      nothing for a letter no relator uses).  A candidate that is
      not suspicious (always so while 2n < l) is a new vertex, named by
      itself.  This is the end-cell argument.  The geodesics of w's element
      that end in x are u's geodesics followed by x, so w is the least of
      them and the only candidate among them.  Any other geodesic v does
      not end in x, nor does any when the element lies at distance n - 1
      (v = v' + x would name u in n - 2 letters).  So the last component of
      the reduced bigon w v^-1 touches w's end, and its end cell exposes at
      least l - p_max - floor(l/2) = t_detect letters as a suffix of w, as
      v, a geodesic, holds at most floor(l/2) of them;
    - the suspicious candidates of a level run their geodesic swap
      closures together (`_swap_closures`).  One that reaches a strictly
      shorter word is that word's vertex: any word of fewer than n letters
      walks through the completed levels, whose vertices below n - 1 have
      all their edges, to the vertex of its element, so the first shorter
      word found names the same vertex as every other, a Dehn reduction
      included.  One that reaches none is a geodesic, and its class is the
      equal geodesic words it reached, named by its least member; two
      candidates that reach a common word are in one class.  Every member
      of a class is suspicious by the same argument.

    So the new vertices are the non-suspicious candidates and the first
    candidate of each new class, in candidate order.  A final rim pass adds
    the edges between vertices at the radius, which only suspicious rim
    candidates that reach a shorter word can have, so the rim keeps no
    class; when l is even the graph is bipartite and has no rim pass.

    Words are stored as one (count, n) int8 letter-code matrix per level,
    which the ball keeps (`CayleyBall.levels`), and the tails and the
    suspicious candidates of a level are such matrices too.  A level that
    would take the ball past `vertex_budget` vertices raises
    PartialBallError before any of its rows are made, and a budget below 1,
    which not even the origin fits, raises it before anything is built.  A
    closure that passes DEFAULT_CLOSURE_BUDGET words raises
    BudgetExceededError, unless the vertices made by the candidates before
    it already passed the vertex budget: the errors come as a search of one
    candidate at a time, asking the vertex budget before each, would raise
    them.  Such a search skips a candidate in the class of an earlier one,
    which the batch searches too; but that candidate's swaps reach only words
    that the earlier search reached, so it passes the budget only where the
    earlier one did.
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

    def past_budget(size: int, made: int) -> bool:
        # whether one of the `made` vertices new on a level of `size` took
        # the ball past the budget
        return made > 0 and size + made > vertex_budget

    start = 0  # first id of the last level
    for n in range(1, radius + 1 + p.l % 2):
        rim = n > radius
        size = len(adjacency)
        prev = levels[-1]
        # the open candidates (u, x) of the last level, in BFS order
        rows, x = np.divmod(np.flatnonzero(adjacency[start:] < 0), k)
        u = rows + start
        x8 = x.astype(np.int8)[:, None]
        suspicious = np.zeros(len(u), dtype=bool)
        if 2 * n >= p.l:  # so n >= ceil(l/2) >= t_detect
            tails = np.concatenate([prev[:, n - eng.t_detect :].take(rows, axis=0), x8], axis=1)
            suspicious = eng.windows.prefix_firsts(tails) >= 0
        idx = np.flatnonzero(suspicious)
        found = _swap_closures(eng, np.concatenate([prev.take(rows[idx], axis=0), x8[idx]], axis=1),
                               classes=not rim)
        target = np.full(len(u), -1, dtype=np.int64)  # an existing vertex, else -1
        has = found.short_len >= 0
        target[idx[has]] = _walk_rows(adjacency, found.short[has], found.short_len[has])
        new = found.label == np.arange(len(idx))  # the first candidate of a new class
        creates = np.zeros(len(u), dtype=bool) if rim else ~suspicious
        creates[idx[new]] = True
        o = found.overrun
        # the vertex budget is asked before each closure, in candidate order,
        # so it wins when the vertices new before the overrun pass it
        if o < len(idx) and not past_budget(size, 0 if rim else idx[o] - o + int(new[:o].sum())):
            raise BudgetExceededError(
                f"geodesic closure exceeded {DEFAULT_CLOSURE_BUDGET} words",
                budget=DEFAULT_CLOSURE_BUDGET,
            )
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
            member = found.label >= 0
            target[idx[member]] = target[idx[found.label[member]]]
            words = np.concatenate([prev.take(rows[creates], axis=0), x8[creates]], axis=1)
            words[ids[idx[new]] - size] = found.least[new]
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
