"""Desk-scale combinatorial round trees.

The tree is a leveled planar 2-complex grown from a single host-relator cell.
Each growth step partitions every current sector's outer boundary into
segments, sprouts an offset path and V diverging extension paths at every
segment endpoint, and fills each (segment, branch) bracket with a 2-cell
whose boundary word is a host relator containing the bracket label.

Desk-scale realities drive two design choices recorded in the project notes:
growth validates geodesic increase in the intrinsic path metric of the stored
1-skeleton (exact, recomputed each level) rather than in the host's Cayley
metric, and extension words are read off the chosen relator windows, searched
by backtracking with the uniformity rule "one offset word and one V-tuple of
extension words per incoming-edge class, fixed once assigned".  Equal bracket
labels always reuse the registered cell word, so bracket labels determine
boundary words by construction.  The search keeps every such commitment as
one entry of a single table that never changes an entry once set: a window
adds the entries it lacks, and backtracking deletes exactly those.

The candidate cell words form the window index: every rotation of every host
relator and its inverse, read off the shared doubled-text matrix (layout and
slot order in the `words` module docstring), deduplicated and sorted, one
key per window (`words._WindowIndex`).  A key packs the window's letters
into one uint64, b = (2m-1).bit_length() bits a letter, whenever l·b <= 64
(l <= 32 at m = 2, l <= 21 at m = 3 or 4); wider windows sort as byte
strings, and only `words` tells the two apart.  On a 38 050-relator host
the index is 1.8 M keys.  The host presentation builds it once, on first use
(`Presentation.windows`), and the C'(1/6) gate, the Dehn engine and the
naive closure read the same object.  A tree asks for it on its first
`grow_level`, never on `init_round_tree` or `tree_from_json`, so emanating
words never pay for it; a probe's target builds its own through the gate.

The index is the only structure the search reads candidates from, and every
question it asks is a prefix range of it, as in a suffix array.  Since the
index holds every rotation of each window, the windows that read a word w
from position a are those that start with w, rotated right by a: two binary
searches find the range of keys that start with w (`prefix_range`), and a
rotation and a sort of that range put them in index order (`reading`).  The
search unpacks letters only from the keys of the windows it tries.

In a tree file each `Cell`, `Sector` (less its key, which names the record)
and `Bracket` record is its dataclass's fields in declaration order, written
and read by one pair of helpers (`_record`, `_from_record`): a field change is
a format change.  The file is the text the standard `json` encoder writes
for its payload at indent 1, but written without that encoder: the edges
and the step lists, most of the file, go out as rows of text in bulk
(`tree_to_json`).  Loading goes through the `RoundTree` constructor, which
validates the parameters against the host, and then puts the file's complex
in place of the base cell it lays down, once its vertices and letters are in
range, its edges agree and every record's steps are edges of it.

Every path is laid and read one way.  `RoundTree._walk(at, word, create)`
is the one walker: it returns the vertex path of a word from a vertex, and
stops at a missing edge unless `create` makes a new vertex there.
`_lay_cell(v1, window, bl, sector)` lays a cell on it: the first bl letters
(the bracket) must already be edges, the free arc follows or makes edges,
and the last letter closes at v1.  The base cell (bl = 0 from a fresh
vertex), every bracket cell, each leg, the free-arc reversal and the load
checks of `tree_from_json` all read their paths off these two.
`RoundTree._bfs(start, radius)` is the one breadth-first search: it tries
letters in sorted order, and growth, `distances_from_base` and the probe's
tree words read its distances and parent chains.  Only `_ball_in_tree`
keeps its own visit, in edge insertion order: that order decides which
vertex the distortion probe's random draw picks, so a sorted visit would
change its payloads.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .cayley import _text_rows
from .errors import (
    BracketUnfillableError,
    BudgetExceededError,
    ConstructionObstructedError,
    DomainError,
    EmptyStatisticsError,
    MalformedWordError,
    ParseError,
    PreconditionError,
)
from .model import Presentation, check_seed, check_trials, parse_presentation
from .words import Alphabet, _reduce_ints

DEFAULT_SEARCH_BUDGET = 200_000
LEVEL_BUDGET = 20_000  # new cells per level


@dataclass(frozen=True)
class RoundTreeParams:
    V: int
    H: int
    ext_offset: int
    ext_len: int
    seg_len: int | None = None          # defaults to l // H
    beta: Fraction | None = None        # echoed for bound evaluation
    eta: Fraction | None = None
    paper_mode: bool = False            # enforce the bracket < l/4 budget
    search_budget: int = DEFAULT_SEARCH_BUDGET

    def validate(self, l: int):
        if self.V < 2 or self.H < 2:
            raise DomainError("need V >= 2 and H >= 2")
        if self.ext_len < 1 or self.ext_offset < 1:
            raise DomainError("need ext_offset >= 1 and ext_len >= 1")
        seg = self.segment_length(l)
        if not (1 <= seg <= l):
            raise DomainError("need 1 <= seg_len <= l")
        bracket_max = 2 * (self.ext_offset + self.ext_len) + seg
        if self.paper_mode and not (bracket_max * 4 < l):
            raise DomainError(
                f"paper-mode bracket budget violated: {bracket_max} >= l/4 = {l}/4"
            )

    def segment_length(self, l: int) -> int:
        return self.seg_len if self.seg_len is not None else max(1, l // self.H)


@dataclass
class Bracket:
    cell: int
    label: str
    k: int                 # ext_offset + ext_len
    level: int
    p1: int                # junction vertices on the previous outer boundary
    p2: int
    v1: int                # extension tips
    v2: int


@dataclass
class Cell:
    id: int
    level: int
    sector: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]     # (src vertex, letter) cycle, length l
    word: str

    def vertices(self) -> set[int]:
        return {v for (v, _x) in self.steps}

    def edges(self) -> set[tuple]:
        return {_ekey(v, x, w) for (v, x), (w, _y) in zip(self.steps, self.steps[1:] + self.steps[:1])}


def _ekey(v: int, letter: int, w: int):
    a = (v, letter, w)
    b = (w, letter ^ 1, v)
    return min(a, b)


@dataclass
class Sector:
    key: tuple[int, ...]
    outer: list[tuple[int, int]]           # directed steps (src, letter), L -> R
    lray: list[tuple[int, int]]            # directed steps base -> L tip
    rray: list[tuple[int, int]]
    cells: list[int] = field(default_factory=list)

    def outer_vertices(self, tree: "RoundTree") -> list[int]:
        if not self.outer:
            return []
        verts = [self.outer[0][0]]
        for (v, x) in self.outer:
            verts.append(tree.out[v][x])
        return verts


class RoundTree:
    def __init__(self, host: Presentation, params: RoundTreeParams):
        params.validate(host.l)
        self.host = host
        self.params = params
        self.ab: Alphabet = host.alphabet
        self.levels = 0
        self.out: list[dict[int, int]] = []
        self.cells: list[Cell] = []
        self.sectors: dict[tuple[int, ...], Sector] = {}
        self.brackets: list[Bracket] = []
        self.offset_words: dict[str, tuple[int, ...]] = {}
        self.ext_words: dict[str, list[tuple[int, ...]]] = {}
        self.extension_paths: list[dict] = []  # {u, class, branch, tip, label, level}
        self._init_base_cell()

    # -- construction ------------------------------------------------------

    def _new_vertex(self) -> int:
        self.out.append({})
        return len(self.out) - 1

    def _add_edge(self, v: int, letter: int, w: int):
        if self.out[v].get(letter, w) != w or self.out[w].get(letter ^ 1, v) != v:
            raise ConstructionObstructedError(
                f"immersion violated at vertex {v} letter {self.ab.letters[letter]}"
            )
        self.out[v][letter] = w
        self.out[w][letter ^ 1] = v

    def _walk(self, at: int, word, create: bool = False) -> list[int]:
        """The vertex path of `word` read from `at`.  At a missing edge it
        stops, unless `create` makes a new vertex there."""
        path = [at]
        for x in word:
            nxt = self.out[at].get(x)
            if nxt is None:
                if not create:
                    break
                nxt = self._new_vertex()
                self._add_edge(at, x, nxt)
            path.append(nxt)
            at = nxt
        return path

    def _lay_cell(self, v1: int, window, bl: int, sector: tuple[int, ...]) -> list[int]:
        """Lay the cell reading `window` around from `v1`, and return its
        vertex path (v1 at both ends).  Its first `bl` letters must already
        be edges; the free arc follows edges or makes them, and its last
        letter closes at v1."""
        path = self._walk(v1, window[:bl])
        if len(path) <= bl:
            raise ConstructionObstructedError(
                "bracket path missing from the complex", sector=sector, vertex=path[-1]
            )
        path += self._walk(path[-1], window[bl:-1], create=True)[1:]
        if len(path) == len(window):  # the free arc's closing letter
            x = window[-1]
            if x not in self.out[path[-1]]:
                self._add_edge(path[-1], x, v1)
            path.append(self.out[path[-1]][x])
        if path[-1] != v1:
            raise ConstructionObstructedError(
                "cell boundary failed to close", sector=sector, vertex=path[-1]
            )
        return path

    def _init_base_cell(self):
        word = self.ab.encode(self.host.relators[0])
        self.base = self._new_vertex()
        path = self._lay_cell(self.base, word, 0, ())
        steps = list(zip(path, word))
        self.cells.append(Cell(id=0, level=0, sector=(), steps=tuple(steps),
                               word=self.host.relators[0]))
        self.sectors[()] = Sector(key=(), outer=steps, lray=[], rray=[], cells=[0])

    # -- metric helpers ----------------------------------------------------

    def distances_from_base(self) -> list[int]:
        return self._bfs(self.base)[0]

    def _bfs(self, start: int, radius: int | None = None
             ) -> tuple[list[int], list[tuple[int, int] | None]]:
        """Distances from `start` (-1 where not reached), and the
        deterministic BFS tree that tries letters in sorted order: parent
        (vertex, letter-from-child) pairs.  Vertices at distance `radius`
        are not expanded."""
        dist = [-1] * len(self.out)
        parent: list[tuple[int, int] | None] = [None] * len(self.out)
        dist[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            if dist[v] == radius:
                continue
            for letter in sorted(self.out[v]):
                w = self.out[v][letter]
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    parent[w] = (v, letter ^ 1)
                    q.append(w)
        return dist, parent

    # -- growth ------------------------------------------------------------

    def grow_level(self) -> "RoundTree":
        prm = self.params
        seg = prm.segment_length(self.host.l)
        dist, parents = self._bfs(self.base)
        current = [s for k, s in self.sectors.items() if len(k) == self.levels]
        new_cells_this_level = 0
        for sector in sorted(current, key=lambda s: s.key):
            pieces, points = self._partition(sector, dist, seg)
            # the sector gets one cell per piece and branch: refuse a level
            # over budget before searching and building it
            new_cells_this_level += len(pieces) * prm.V
            if new_cells_this_level > LEVEL_BUDGET:
                raise ConstructionObstructedError(
                    f"level budget {LEVEL_BUDGET} exceeded", sector=sector.key
                )
            classes = [self._class_of(u, parents, sector, idx, len(points))
                       for idx, u in enumerate(points)]
            plan = self._search_windows(sector, pieces, points, classes)
            self._build_from_plan(sector, pieces, points, classes, plan)
        self.levels += 1
        self._post_level_checks()
        return self

    def _partition(self, sector: Sector, dist, seg):
        """Split the outer boundary into segments of length `seg` (first and
        last possibly shorter), nudging interior endpoints off local minima of
        the base-distance function along the boundary."""
        E = sector.outer
        verts = sector.outer_vertices(self)
        n = len(E)
        if n == 0:
            raise ConstructionObstructedError("sector has empty outer boundary",
                                              sector=sector.key)
        cuts = [0]
        while cuts[-1] + seg < n:
            # nudge the endpoint backwards (shortening the piece, so that
            # every piece keeps |p_i| <= seg_len) until it is not a local
            # minimum of the base distance along the boundary
            moved = cuts[-1] + seg
            budget = max(1, seg // 2)
            while moved > cuts[-1] + 1 and self._is_local_min(verts, dist, moved) and budget:
                moved -= 1
                budget -= 1
            if self._is_local_min(verts, dist, moved):
                raise ConstructionObstructedError(
                    "could not move a partition endpoint off a local minimum",
                    sector=sector.key, vertex=verts[moved],
                )
            cuts.append(moved)
        cuts.append(n)
        pieces = [E[cuts[i]:cuts[i + 1]] for i in range(len(cuts) - 1)]
        points = [verts[c] for c in cuts]
        return pieces, points

    def _is_local_min(self, verts, dist, idx) -> bool:
        v = verts[idx]
        left = dist[verts[idx - 1]] if idx > 0 else None
        right = dist[verts[idx + 1]] if idx + 1 < len(verts) else None
        around = [d for d in (left, right) if d is not None]
        return bool(around) and all(dist[v] <= d for d in around)

    def _class_of(self, u, parents, sector, idx, npoints) -> str:
        """Uniformity class of an extension point.

        The paper keys extension labels by the initial edge of a geodesic
        back to the base; at desk scale the class also records the letters
        already present at the vertex, so that "one offset word per class"
        can never fold into the complex (noted in the project decisions).
        """
        taken = "".join(sorted(self.ab.letters[x] for x in self.out[u]))
        if self.levels == 0 and idx == 0:
            return f"<base-L|{taken}>"
        if self.levels == 0 and idx == npoints - 1:
            return f"<base-R|{taken}>"
        par = parents[u]
        if par is None:
            raise ConstructionObstructedError("extension point has no path to base",
                                              sector=sector.key, vertex=u)
        return f"{self.ab.letters[par[1]]}|{taken}"

    # -- the bracket-window search ------------------------------------------

    def _search_windows(self, sector, pieces, points, classes):
        """Backtracking assignment of a relator window to every
        (piece, branch) slot.

        Every commitment is one entry of the table `fixed`, never changed
        once set:
        - ("off", c): the offset word of class c;
        - ("ext", c, j): its branch-j extension word;
        - ("tip", c, x): the branch of c whose extension starts with letter x
          (branches diverge at the offset tip);
        - ("lead", u, x): the class that leaves point u by offset letter x;
        - ("label", s): the cell word of the bracket labelled s.
        A window fits a slot when its offset letters are not yet edges at its
        points, it does not undo the previous same-branch cell's free arc at
        their shared tip, and every entry it needs is unset or holds the same
        value in the table as it stood before the window.  Committing adds
        the entries it lacks (the first of two equal keys wins), and
        backtracking deletes exactly those.  The table starts from the tree's
        offset words, extension words (both read back out of it in insertion
        order) and its brackets' cell words.

        Candidates are prefix-range queries of the window index.  A piece's
        windows are those that read it at ext_offset + ext_len, in index
        order; each attempt shuffles that list once.  A slot's candidates are
        the windows of its piece that also read the legs fixed for its
        branch, in the attempt's order.  The forward check after a commit
        asks only whether each later slot of the two touched classes still
        has a candidate, which is whether its range is empty.

        Each window and each forward-check word is worked out once per call,
        in three memos kept across the attempts: a window's letters, by
        piece and position in the piece's list (`decoded`); what it needs
        of the table at a slot, or that it never fits there (`fits`; the
        complex does not change while the search runs); and whether some
        window reads what a piece and its fixed legs spell (`opens`, keyed
        by the piece and the legs' table entries, so a hit builds no word).
        Each attempt's ranks invert its shuffles in one scatter each, with
        no sort.  Candidate order, shuffles and the budget are as without
        them: the budget still counts candidates, a memoised one too, and
        not forward checks.

        Runs several randomized passes with per-pass node budgets: dead ends
        hinge on early table commitments, so shuffled restarts are far more
        effective than one deep exhaustive search.
        """
        prm = self.params
        off_n = prm.ext_offset
        oe = prm.ext_offset + prm.ext_len
        l = self.host.l
        W = self.host.windows
        piece_labels = [tuple(int(x) for (_v, x) in p) for p in pieces]
        piece_windows = []
        for lab in piece_labels:
            if len(lab) + 2 * oe > l:
                raise ConstructionObstructedError(
                    f"bracket length {len(lab) + 2 * oe} exceeds the relator length {l}",
                    sector=sector.key,
                )
            rows = W.reading(lab, oe)
            if not len(rows):
                raise BracketUnfillableError(
                    f"no relator window contains a boundary segment labelled "
                    f"{self.ab.decode(lab)!r}",
                    sector=sector.key,
                )
            piece_windows.append(rows)
        # each attempt shuffles orders[i], the order it tries piece i's windows
        # in, and ranks[i] is that order's inverse
        orders = [np.arange(len(rows)) for rows in piece_windows]
        ranks = [np.empty_like(order) for order in orders]
        slots = [(i, j) for i in range(len(pieces)) for j in range(prm.V)]
        slots_by_class: dict[str, list[int]] = {}
        for si, (i, j) in enumerate(slots):
            slots_by_class.setdefault(classes[i], []).append(si)
            slots_by_class.setdefault(classes[i + 1], []).append(si)
        # the later slots of slot si's two classes, which its forward check
        # asks, and the table keys of slot si's legs: the offset and branch-j
        # extension words of its two classes
        later = [sorted({sj for c in (classes[i], classes[i + 1])
                         for sj in slots_by_class[c] if sj > si}) for si, (i, j) in enumerate(slots)]
        leg_keys = [(("off", classes[i]), ("ext", classes[i], j),
                     ("off", classes[i + 1]), ("ext", classes[i + 1], j)) for i, j in slots]
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.host.seed,
                spawn_key=(self.levels, sum(sector.key) + len(sector.key)),
            )
        )
        start: dict[tuple, object] = {
            ("label", self.ab.encode(b.label)): self.ab.encode(self.cells[b.cell].word)
            for b in self.brackets
        }
        for c, o in self.offset_words.items():
            start[("off", c)] = o
            for j, e in enumerate(self.ext_words[c]):
                if e is not None:
                    start[("ext", c, j)] = e
                    start[("tip", c, e[0])] = j
        fixed: dict[tuple, object] = {}
        # slots fill in order, so a stale window is overwritten before it is read
        assignment: dict[tuple[int, int], tuple[int, ...]] = {}
        budget = [0]
        # the memos of this call: the letters of piece i's window at position
        # pos of its list, by (i, pos); `fit` of slot si and pos, by (si, pos);
        # whether some window reads what a piece and its fixed legs spell, by
        # the piece and the four leg entries of the table (None if unset)
        decoded: dict[tuple[int, int], tuple[int, ...]] = {}
        fits: dict[tuple[int, int], tuple] = {}
        opens: dict[tuple, bool] = {}

        def slot_query(i, j):
            """The word that piece i and the legs fixed for branch j spell on a
            fitting window, and the position it starts at."""
            # a class's extension words are fixed only after its offset word
            left, right = (fixed[("off", c)] + fixed[("ext", c, j)] if ("ext", c, j) in fixed else ()
                           for c in (classes[i], classes[i + 1]))
            if left:
                return tuple(x ^ 1 for x in reversed(left)) + piece_labels[i] + right, 0
            return piece_labels[i] + right, oe

        def candidates(i, j):
            """Positions in piece i's window list of the windows that fit the
            legs fixed for branch j, in the attempt's order."""
            word, at = slot_query(i, j)
            if len(word) == len(piece_labels[i]):  # no leg fixed
                return orders[i]
            pos = np.searchsorted(piece_windows[i], W.reading(word, at))
            return pos[np.argsort(ranks[i][pos])]

        def has_candidate(sj):
            """Does some window read what slot sj's piece and fixed legs spell?
            The word is built only when the memo has not seen them."""
            key = (slots[sj][0], *map(fixed.get, leg_keys[sj]))
            found = opens.get(key)
            if found is None:
                found = opens[key] = len(W.prefix_range(slot_query(*slots[sj])[0])) > 0
            return found

        def fit(si, pos):
            """Window pos of slot si's piece and the table entries it needs
            there, or () when it never fits the slot: its two legs differ for
            one class, or a leg's first letter is already an edge at its
            point (the complex does not change during the search)."""
            i, j = slots[si]
            window = decoded.get((i, pos))
            if window is None:
                window = decoded[(i, pos)] = W.letters(piece_windows[i][pos])
            bl = 2 * oe + len(piece_labels[i])
            ends = ((points[i], classes[i]), (points[i + 1], classes[i + 1]))
            legs = (tuple(x ^ 1 for x in reversed(window[:oe])), window[bl - oe : bl])
            if classes[i] == classes[i + 1] and legs[0] != legs[1]:
                return ()
            if any(leg[0] in self.out[u] for (u, _c), leg in zip(ends, legs)):
                return ()
            need = [(("label", window[:bl]), window)]
            for (u, c), leg in zip(ends, legs):
                need += [(("off", c), leg[:off_n]), (("ext", c, j), leg[off_n:]),
                         (("tip", c, leg[off_n]), j), (("lead", u, leg[0]), c)]
            return window, need

        def try_slot(si):
            if si == len(slots):
                return True
            i, j = slots[si]
            # adjacent same-branch cells share an extension tip: this cell's
            # free arc may not end by undoing the first letter of the previous
            undo = None
            if i and 2 * oe + len(piece_labels[i - 1]) < l:
                undo = assignment[(i - 1, j)][2 * oe + len(piece_labels[i - 1])] ^ 1
            for pos in candidates(i, j):
                budget[0] -= 1
                if budget[0] <= 0:
                    raise ConstructionObstructedError(
                        "window search budget exhausted", sector=sector.key
                    )
                entry = fits.get((si, pos))
                if entry is None:
                    entry = fits[(si, pos)] = fit(si, pos)
                if not entry:
                    continue
                window, need = entry
                if window[l - 1] == undo or any(fixed.get(k, v) != v for k, v in need):
                    continue
                added = []
                for k, v in need:
                    if k not in fixed:
                        fixed[k] = v
                        added.append(k)
                assignment[(i, j)] = window
                if all(has_candidate(sj) for sj in later[si]) and try_slot(si + 1):
                    return True
                for k in added:
                    del fixed[k]
            return False

        attempts = 8
        saw_budget_stop = False
        for _attempt in range(attempts):
            for order, rank in zip(orders, ranks):
                rng.shuffle(order)
                rank[order] = np.arange(len(order))
            budget[0] = max(1, prm.search_budget // attempts)
            fixed.clear()
            fixed.update(start)
            try:
                if try_slot(0):
                    break
            except ConstructionObstructedError:
                saw_budget_stop = True
        else:
            if saw_budget_stop:
                raise ConstructionObstructedError(
                    "window search budget exhausted", sector=sector.key
                )
            raise BracketUnfillableError(
                "no consistent window assignment for this sector "
                "(desk-scale genericity failure)",
                sector=sector.key,
            )
        self.offset_words = {k[1]: v for k, v in fixed.items() if k[0] == "off"}
        self.ext_words = {c: [fixed.get(("ext", c, j)) for j in range(prm.V)]
                          for c in self.offset_words}
        return assignment

    # -- building from a plan ------------------------------------------------

    def _build_from_plan(self, sector, pieces, points, classes, plan) -> None:
        prm = self.params
        oe = prm.ext_offset + prm.ext_len
        # lay each point's legs, its class's offset word (shared by the
        # branches) then the branch's extension word: (point index, branch)
        # -> the leg's vertex path, which ends at the extension tip, and word
        legs: dict[tuple[int, int], tuple[list[int], tuple[int, ...]]] = {}
        for idx, u in enumerate(points):
            c = classes[idx]
            o = self.offset_words[c]
            if o[0] in self.out[u]:
                raise ConstructionObstructedError(
                    "offset path folds into the complex",
                    sector=sector.key, vertex=u,
                )
            for j in range(prm.V):
                word = o + self.ext_words[c][j]
                path = self._walk(u, word, create=True)
                legs[(idx, j)] = path, word
                self.extension_paths.append(
                    {
                        "u": u,
                        "class": c,
                        "branch": j,
                        "tip": path[-1],
                        "label": self.ab.decode(word),
                        "level": self.levels,
                    }
                )
        # build cells and the child sectors
        for j in range(prm.V):
            child_key = sector.key + (j,)
            child_outer: list[tuple[int, int]] = []
            child_cells = []
            tips = [legs[(idx, j)][0][-1] for idx in range(len(points))]
            for i, piece in enumerate(pieces):
                window = plan[(i, j)]
                bl = 2 * oe + len(piece)
                # leg down, piece and leg up are edges; the free arc is new
                path = self._lay_cell(tips[i], window, bl, sector.key)
                cid = len(self.cells)
                self.cells.append(
                    Cell(id=cid, level=self.levels + 1, sector=child_key,
                         steps=tuple(zip(path, window)), word=self.ab.decode(window))
                )
                child_cells.append(cid)
                self.brackets.append(
                    Bracket(cell=cid, label=self.ab.decode(window[:bl]), k=oe,
                            level=self.levels, p1=points[i], p2=points[i + 1],
                            v1=tips[i], v2=tips[i + 1])
                )
                # the free arc, reversed, is the child's outer boundary piece
                child_outer += [(path[t + 1], window[t] ^ 1) for t in reversed(range(bl, len(window)))]
            self.sectors[child_key] = Sector(
                key=child_key, outer=child_outer,
                lray=sector.lray + list(zip(*legs[(0, j)])),
                rray=sector.rray + list(zip(*legs[(len(points) - 1, j)])),
                cells=child_cells,
            )

    def _post_level_checks(self):
        dist = self.distances_from_base()
        oe = self.params.ext_offset + self.params.ext_len
        for rec in self.extension_paths:
            if rec["level"] != self.levels - 1:
                continue
            if dist[rec["tip"]] != dist[rec["u"]] + oe:
                raise ConstructionObstructedError(
                    f"extension at vertex {rec['u']} is not geodesic in the "
                    f"tree metric", vertex=rec["u"]
                )


def init_round_tree(p: Presentation, params: RoundTreeParams) -> RoundTree:
    return RoundTree(p, params)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    passes: dict[str, bool]
    witnesses: dict[str, object]

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def check_round_tree_axioms(tree: RoundTree) -> AxiomReport:
    """Initial-cell uniqueness, sector boundary decomposition, the sibling
    sandwich condition, the V·H branching bound, bracket-label consistency,
    and the per-vertex extension cap.

    Each cell's vertex and edge sets, each level complex A_n and each leaf
    sector's complex are built once per call, and the checks intersect them.
    Nothing is kept on the tree, which may change between calls."""
    passes: dict[str, bool] = {}
    wit: dict[str, object] = {}
    cell_verts = [c.vertices() for c in tree.cells]
    cell_edges = [c.edges() for c in tree.cells]

    def in_sector(c: Cell, key: tuple[int, ...]) -> bool:
        return c.sector == key[: len(c.sector)]

    def complex_of(member) -> tuple[set, set]:
        verts, edges = set(), set()
        for c, cv, ce in zip(tree.cells, cell_verts, cell_edges):
            if member(c):
                verts |= cv
                edges |= ce
        return verts, edges

    # (1) the base point lies on the boundary of a unique level-0 cell
    level0 = [c for c in tree.cells if c.level == 0]
    containing = [c.id for c, cv in zip(tree.cells, cell_verts)
                  if c.level == 0 and tree.base in cv]
    passes["initial-cell-unique"] = len(level0) == 1 and containing == [0]
    if not passes["initial-cell-unique"]:
        wit["initial-cell-unique"] = containing

    # (2) sector boundary decomposition: boundary edges of each sector complex
    #     are exactly L ∪ E ∪ R, with L ∩ R = {base}
    ok2 = True
    for key, s in tree.sectors.items():
        edge_faces: Counter = Counter()
        for c, ce in zip(tree.cells, cell_edges):
            if in_sector(c, key):
                edge_faces.update(ce)
        boundary = {e for e, cnt in edge_faces.items() if cnt == 1}
        declared = set()
        for steps in (s.lray, s.outer, s.rray):
            for (v, x) in steps:
                declared.add(_ekey(v, x, tree.out[v][x]))
        lverts = {tree.base} | {tree.out[v][x] for (v, x) in s.lray} | {v for (v, x) in s.lray}
        rverts = {tree.base} | {tree.out[v][x] for (v, x) in s.rray} | {v for (v, x) in s.rray}
        if boundary != declared or (lverts & rverts) != {tree.base}:
            ok2 = False
            wit.setdefault("sector-boundary", []).append(key)
    passes["sector-boundary"] = ok2

    # (3) sandwich condition A_n ∩ A_a ⊆ A_a ∩ A_b ⊆ A_{n+1} ∩ A_a for every
    #     ordered pair of leaf sectors a, b with common prefix of length n
    ok3 = True
    leaf_keys = [k for k in tree.sectors if len(k) == tree.levels]
    sector_complex = {k: complex_of(lambda c: in_sector(c, k)) for k in leaf_keys}
    level_complex = [complex_of(lambda c: c.level <= n) for n in range(tree.levels + 1)]
    for a in leaf_keys:
        av, ae = sector_complex[a]
        for b in leaf_keys:
            if a == b:
                continue
            bv, be = sector_complex[b]
            n = _common_prefix(a, b)
            (nv, ne), (n1v, n1e) = level_complex[n], level_complex[n + 1]
            if not (nv & av <= av & bv <= n1v & av and ne & ae <= ae & be <= n1e & ae):
                ok3 = False
                wit.setdefault("sandwich", []).append((a, b))
    passes["sandwich"] = ok3

    # (4) every 2-cell of A_n meets at most V·H 2-cells of A_{n+1} \ A_n
    ok4 = True
    cap = tree.params.V * tree.params.H
    for n in range(tree.levels):
        nxt = [dv for d, dv in zip(tree.cells, cell_verts) if d.level == n + 1]
        for c, cv in zip(tree.cells, cell_verts):
            if c.level > n:
                continue
            meets = sum(1 for dv in nxt if not cv.isdisjoint(dv))
            if meets > cap:
                ok4 = False
                wit.setdefault("branching", []).append((c.id, meets, cap))
    passes["branching-VH"] = ok4

    # (5) equal bracket labels receive equal boundary words
    ok5 = True
    by_label: dict[str, set[str]] = {}
    for b in tree.brackets:
        by_label.setdefault(b.label, set()).add(tree.cells[b.cell].word)
    for label, words in by_label.items():
        if len(words) > 1:
            ok5 = False
            wit.setdefault("bracket-consistency", []).append((label, sorted(words)))
    passes["bracket-consistency"] = ok5

    # (6) per-point extension cap |X_k(u)| <= V.  The base point roots both
    #     rays at level 0 (the boundary walk visits it twice), so points are
    #     keyed by (vertex, class): one bundle of V labels per ray root.
    ok6 = True
    per_u: dict[tuple[int, int, str], set[str]] = {}
    for rec in tree.extension_paths:
        per_u.setdefault((rec["level"], rec["u"], rec["class"]), set()).add(rec["label"])
    for (lvl, u, _c), labels in per_u.items():
        if len(labels) > tree.params.V:
            ok6 = False
            wit.setdefault("extension-cap", []).append((lvl, u, len(labels)))
    passes["extension-cap"] = ok6

    return AxiomReport(passes=passes, witnesses=wit)


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


# ---------------------------------------------------------------------------
# Extension words and emanating words
# ---------------------------------------------------------------------------


@dataclass
class ExtensionWordReport:
    k: int
    words: set[str]
    per_vertex: dict[int, set[str]]
    classes: int


def extension_words(tree: RoundTree) -> ExtensionWordReport:
    """The extension word set X_k, k = ext_offset + ext_len, with its
    per-vertex views; checks that labels based at a vertex depend only on
    the vertex's incoming-edge class."""
    if tree.levels < 1:
        raise PreconditionError("tree has no grown level")
    words = set()
    per_vertex: dict[int, set[str]] = {}
    by_class: dict[str, set[str]] = {}
    for rec in tree.extension_paths:
        words.add(rec["label"])
        per_vertex.setdefault(rec["u"], set()).add(rec["label"])
        by_class.setdefault(rec["class"], set()).add(rec["label"])
    report = ExtensionWordReport(
        k=tree.params.ext_offset + tree.params.ext_len,
        words=words, per_vertex=per_vertex, classes=len(by_class),
    )
    for c, labels in by_class.items():
        table = {
            tree.ab.decode(tree.offset_words[c] + e) for e in tree.ext_words[c] if e
        }
        if not labels <= table:
            raise PreconditionError(f"extension labels for class {c!r} left the table")
    return report


@dataclass
class EmanatingSet:
    k: int
    words: set[str]
    path_count: int


def enumerate_emanating(tree: RoundTree, k: int) -> EmanatingSet:
    """Labels of all length-k geodesic paths from the base in the 1-skeleton."""
    dist = tree.distances_from_base()
    if k < 0 or k > max(dist):
        raise DomainError(f"k = {k} exceeds the built depth {max(dist)}")
    # geodesic DAG edges go from distance d to d+1
    labels: dict[int, set[tuple[int, ...]]] = {tree.base: {()}}
    counts: dict[int, int] = {tree.base: 1}
    frontier = [tree.base]
    for depth in range(k):
        nxt: dict[int, None] = {}
        new_labels: dict[int, set[tuple[int, ...]]] = {}
        new_counts: dict[int, int] = {}
        for v in frontier:
            for x, w in tree.out[v].items():
                if dist[w] != dist[v] + 1:
                    continue
                new_counts[w] = new_counts.get(w, 0) + counts[v]
                bucket = new_labels.setdefault(w, set())
                for lab in labels[v]:
                    bucket.add(lab + (x,))
                nxt[w] = None
        frontier = list(nxt)
        labels = new_labels
        counts = new_counts
    words = {tree.ab.decode(lab) for labs in labels.values() for lab in labs}
    return EmanatingSet(k=k, words=words, path_count=sum(counts.values()))


# ---------------------------------------------------------------------------
# Probes against a target presentation
# ---------------------------------------------------------------------------


@dataclass
class ProbeVerdict:
    status: str                 # "pass" | "violation" | "inconclusive"
    exact: bool                 # True when the target metric engine is exact
    window: int | None = None   # first violating window index
    detail: str = ""


def _require_nested(tree: RoundTree, target: Presentation):
    if target.fingerprint() == tree.host.fingerprint():
        return
    if target.parent_fingerprint != tree.host.fingerprint():
        raise PreconditionError(
            "target presentation does not extend the tree's host (fingerprint mismatch)"
        )


def _target_distance(target: Presentation, word_cap: int):
    """Whether the target's metric is exact, and its distance function: the
    Dehn `distance` of a verified target, else the upper bound of a naive
    closure under `word_cap` (None for a word the closure cannot locate).
    DomainError for a word cap below 0, whichever the target."""
    from .cayley import distance, is_dehn_ready, naive_closure_ball

    if word_cap < 0:
        raise DomainError(f"need a word cap >= 0, got {word_cap}")
    if is_dehn_ready(target):
        return True, lambda word: distance(target, word)
    return False, naive_closure_ball(target, word_cap=word_cap).distance_upper


def local_geodesic_probe(
    tree: RoundTree,
    path: list[int],
    window: int,
    target: Presentation,
    word_cap: int | None = None,
) -> ProbeVerdict:
    """Check every length-`window` subpath of a tree path for shortcuts in
    the target.  Violations found through the bounded search are real paths
    and therefore certain; a pass is exact only for a verified target."""
    _require_nested(tree, target)
    if window < 1:
        raise DomainError("window must be >= 1")
    labels = [x for (_v, x) in _steps_along(tree, path)]
    if window > len(labels):
        raise DomainError("window exceeds the path length")
    try:
        exact, dist = _target_distance(target, window + 1 if word_cap is None else word_cap)
    except BudgetExceededError as e:  # the closure cannot even bound
        return ProbeVerdict(status="inconclusive", exact=False, detail=str(e))
    for i in range(len(labels) - window + 1):
        sub = tree.ab.decode(labels[i : i + window])
        d = dist(sub)
        if d is None:
            return ProbeVerdict(
                status="inconclusive", exact=False, window=i,
                detail="word cap too small to locate the subword",
            )
        if d < window:
            found = f"distance {d}" if exact else f"a path of length {d}"
            return ProbeVerdict(
                status="violation", exact=exact, window=i,
                detail=f"subword {sub!r} has {found} < {window}",
            )
    return ProbeVerdict(status="pass", exact=exact)


def _steps_along(tree: RoundTree, path: list[int]) -> list[tuple[int, int]]:
    for v in path:
        if not 0 <= v < len(tree.out):
            raise PreconditionError(f"path vertex {v} is not among the tree's {len(tree.out)} vertices")
    steps = []
    for v, w in zip(path, path[1:]):
        x = next((x for x, ww in tree.out[v].items() if ww == w), None)
        if x is None:
            raise PreconditionError(f"no edge between {v} and {w} in the tree")
        steps.append((v, x))
    return steps


@dataclass
class DistortionStats:
    samples: int
    certified: int
    inconclusive: int
    max_ratio: float
    ratios: list[float]

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "certified": self.certified,
            "inconclusive": self.inconclusive,
            "max_ratio": self.max_ratio,
        }


def distortion_probe(
    tree: RoundTree,
    target: Presentation,
    radius: int,
    samples: int,
    seed: int,
    word_cap: int | None = None,
) -> DistortionStats:
    """Distribution of ρ_A(p,q) / ρ_t(π(p), π(q)) over sampled vertex pairs.

    With a verified target the ratios are exact; otherwise only the pairs
    whose distance is pinned (upper bound equal to the 1-Lipschitz lower
    bound regime) are certified, the rest are reported inconclusive.  The
    sample count is bounded by TRIAL_BUDGET.  DomainError unless the radius
    is at least 1, which every distinct pair needs, and unless at least one
    pair is sampled."""
    if radius < 1:
        raise DomainError(f"need a probe radius >= 1, got {radius}")
    if samples < 1:
        raise DomainError(f"need probe samples >= 1, got {samples}")
    check_seed(seed)
    check_trials(samples)
    _require_nested(tree, target)
    rng = np.random.default_rng(seed)
    exact, dist = _target_distance(target, radius + 1 if word_cap is None else word_cap)
    nverts = len(tree.out)
    ratios: list[float] = []
    inconclusive = 0
    taken = 0
    for _ in range(samples):
        p = int(rng.integers(nverts))
        reach = _ball_in_tree(tree, p, radius)
        q = reach[int(rng.integers(len(reach)))]
        if p == q:
            continue
        taken += 1
        rho_a, word = _tree_distance_and_word(tree, p, q, radius)
        rho_t = dist(word)
        # distance 0: distinct tree vertices map together.  An inexact
        # distance is an upper bound, so its sample is certified only when it
        # meets the 1-Lipschitz ceiling rho_a, pinning the true distance and
        # giving ratio exactly 1
        if rho_t and (exact or rho_t == rho_a):
            assert rho_t <= rho_a, "combinatorial maps are 1-Lipschitz"
            ratios.append(rho_a / rho_t)
        else:
            inconclusive += 1
    if not ratios:
        raise EmptyStatisticsError("all sampled pairs were inconclusive")
    return DistortionStats(
        samples=taken,
        certified=len(ratios),
        inconclusive=inconclusive,
        max_ratio=max(ratios),
        ratios=ratios,
    )


def _ball_in_tree(tree: RoundTree, v: int, radius: int) -> list[int]:
    seen = {v: 0}
    q = deque([v])
    out = [v]
    while q:
        u = q.popleft()
        if seen[u] >= radius:
            continue
        for w in tree.out[u].values():
            if w not in seen:
                seen[w] = seen[u] + 1
                out.append(w)
                q.append(w)
    return out


def _tree_distance_and_word(tree: RoundTree, p: int, q: int, radius: int) -> tuple[int, str]:
    """The distance from p to q, which lies within `radius` of p, and the
    word of the path to q in the sorted-letter BFS tree from p."""
    parent = tree._bfs(p, radius)[1]
    letters = []
    while parent[q] is not None:
        q, x = parent[q]
        letters.append(x ^ 1)
    return len(letters), tree.ab.decode(reversed(letters))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _record(obj, skip: tuple[str, ...] = ()) -> dict:
    """A dataclass's file record: its fields in declaration order (JSON
    writes the tuples as lists)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


# how a JSON value is read back into a field, by the field's annotation; a
# tuple field missing here would load as a list, which the round-trip tests
# catch, since a list never equals a tuple
_READ_FIELD = {
    "tuple[int, ...]": tuple,
    "tuple[tuple[int, int], ...]": lambda v: tuple(map(tuple, v)),
    "list[tuple[int, int]]": lambda v: [tuple(s) for s in v],
    "Fraction | None": lambda v: None if v is None else Fraction(v),
}


def _from_record(cls, record: dict, **known):
    """The dataclass `cls` from its file record; `known` gives the fields the
    record leaves out.  A field the record lacks takes its default, and a
    missing required field is a TypeError."""
    read = {
        f.name: _READ_FIELD.get(f.type, lambda v: v)(record[f.name])
        for f in fields(cls)
        if f.name in record and f.name not in known
    }
    return cls(**known, **read)


class _Written(str):
    """JSON text already written, which `_json_text` inserts as it stands."""


def _json_text(value, depth: int = 0) -> str:
    """`value` as the `json` encoder writes it at indent 1 and nesting `depth`:
    dicts and lists one item a line, indented one space a level, and each
    scalar as json.dumps writes it (strings through its own C escaper, ints
    as their decimal); a `_Written` value as it stands.  Every key is a
    string."""
    if isinstance(value, _Written):
        return value
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, dict):
        items, brackets = [f"{encode_basestring_ascii(k)}: {_json_text(v, depth + 1)}"
                           for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json_text(v, depth + 1) for v in value], "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


# 10, 100, ..., 10^18: a value v >= 0 has 1 + searchsorted(_TENS, v, "right") digits
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)


def _json_row_lists(rows: np.ndarray, counts: list[int], depth: int) -> list[_Written]:
    """Lists of the rows of an (n, k) matrix of ints >= 0, the first counts[0]
    rows, then the next counts[1], and so on, each list written as
    `_json_text` writes a list of k-int lists at nesting `depth`.  All rows
    are written at once by `cayley._text_rows`, each ending in ",\\n"; a
    list is then the span of its rows less that last separator, and a row's
    span is its fixed bytes and its digits."""
    if not len(rows):
        return [_Written("[]")] * len(counts)
    inner, item = "\n" + " " * (depth + 2), " " * (depth + 1)
    parts = [f"{item}[{inner}".encode(), rows[:, 0]]
    for column in rows.T[1:]:
        parts += [f",{inner}".encode(), column]
    parts.append(f"\n{item}],\n".encode())
    text = _text_rows(parts, len(rows)).tobytes().decode("ascii")
    fixed = sum(len(part) for part in parts if isinstance(part, bytes))
    spans = fixed + rows.shape[1] + np.searchsorted(_TENS, rows, side="right").sum(axis=1)
    ends = np.concatenate(([0], np.cumsum(spans))).tolist()
    cuts = np.concatenate(([0], np.cumsum(counts))).tolist()
    close = "\n" + " " * depth + "]"
    return [_Written(f"[\n{text[ends[a] : ends[b] - 2]}{close}" if b > a else "[]")
            for a, b in zip(cuts, cuts[1:])]


def tree_to_json(tree: RoundTree) -> str:
    """The tree file: the text that the `json` encoder writes at indent 1
    for the payload below, byte for byte (`tests/oracles.py` keeps that
    encoder call as the oracle).  CPython's encoder runs in pure Python
    when it indents, so the big sections, the edges and every cell's and
    sector's step list, are rows of ints written in bulk
    (`_json_row_lists`), and `_json_text` writes the rest around them.  An
    edge is listed once, as the least of (v, x, w) and its reverse
    (w, x ^ 1, v), in sorted order."""
    edges = np.fromiter(chain.from_iterable((v, x, w) for v, nbrs in enumerate(tree.out)
                                            for x, w in nbrs.items()), dtype=np.int64).reshape(-1, 3)
    v, x, w = edges.T
    edges = edges[(v < w) | ((v == w) & (x % 2 == 0))]
    edges = edges[np.lexsort(edges.T[::-1])]
    cells = [_record(c) for c in tree.cells]
    sectors = {",".join(map(str, k)): _record(sec, skip=("key",)) for k, sec in tree.sectors.items()}
    step_lists = [(rec, "steps") for rec in cells] + [
        (rec, f) for rec in sectors.values() for f in ("outer", "lray", "rray")]
    steps = np.fromiter(chain.from_iterable(chain.from_iterable(rec[f] for rec, f in step_lists)),
                        dtype=np.int64).reshape(-1, 2)
    written = _json_row_lists(steps, [len(rec[f]) for rec, f in step_lists], depth=3)
    for (rec, f), text in zip(step_lists, written):
        rec[f] = text
    payload = {
        "host": tree.host.serialize(),
        "host_fingerprint": tree.host.fingerprint(),
        "params": {
            "V": tree.params.V,
            "H": tree.params.H,
            "ext_offset": tree.params.ext_offset,
            "ext_len": tree.params.ext_len,
            "seg_len": tree.params.segment_length(tree.host.l),
            "beta": None if tree.params.beta is None else str(tree.params.beta),
            "eta": None if tree.params.eta is None else str(tree.params.eta),
        },
        "levels": tree.levels,
        "vertices": len(tree.out),
        "edges": _json_row_lists(edges, [len(edges)], depth=1)[0],
        "cells": cells,
        "sectors": sectors,
        "brackets": [_record(b) for b in tree.brackets],
        "extension_paths": tree.extension_paths,
        "offset_words": {c: tree.ab.decode(w) for c, w in tree.offset_words.items()},
        "ext_words": {
            c: [None if w is None else tree.ab.decode(w) for w in ws]
            for c, ws in tree.ext_words.items()
        },
    }
    return _json_text(payload)


def tree_from_json(text: str) -> RoundTree:
    """Load a tree written by `tree_to_json`.

    Raises ParseError when the text is not such a file, its host does not
    match the recorded fingerprint, or its complex and records do not fit
    the host (`_check_loaded`), and DomainError when its parameters are
    invalid for the host.  Like a new tree, a loaded one builds its window
    index on its first `grow_level`.
    """
    try:
        data = json.loads(text)
        host = parse_presentation(data["host"])
        if data["host_fingerprint"] != host.fingerprint():
            raise ParseError("host_fingerprint does not match the embedded host")
        tree = _tree_from_payload(data, host)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError,
            MalformedWordError, ConstructionObstructedError) as e:
        raise ParseError(f"not a round-tree file: {type(e).__name__}: {e}") from e
    return tree


def _tree_from_payload(data: dict, host: Presentation) -> RoundTree:
    # the constructor validates the params against the host and lays down the
    # base cell at vertex 0; the file's records then replace the whole complex,
    # which is connected, so a vertex count past len(edges) + 1 is refused
    # before any vertex is made
    tree = RoundTree(host, _from_record(RoundTreeParams, data["params"]))
    tree.levels = data["levels"]
    n, letters = data["vertices"], 2 * host.m
    if n > len(data["edges"]) + 1:
        raise ParseError(f"{n} vertices cannot be connected by {len(data['edges'])} edges")
    tree.out = [dict() for _ in range(n)]
    for (v, x, w) in data["edges"]:
        if not (0 <= v < n and 0 <= w < n and 0 <= x < letters):
            raise ParseError(f"edge {[v, x, w]} is outside {n} vertices and {letters} letters")
        tree._add_edge(v, x, w)
    tree.cells = [_from_record(Cell, c) for c in data["cells"]]
    tree.sectors = {}
    for key, sec in data["sectors"].items():
        k = tuple(int(t) for t in key.split(",")) if key else ()
        tree.sectors[k] = _from_record(Sector, sec, key=k)
    tree.brackets = [_from_record(Bracket, b) for b in data["brackets"]]
    tree.extension_paths = data["extension_paths"]
    tree.offset_words = {c: tree.ab.encode(w) for c, w in data["offset_words"].items()}
    tree.ext_words = {
        c: [None if w is None else tree.ab.encode(w) for w in ws]
        for c, ws in data["ext_words"].items()
    }
    _check_loaded(tree)
    return tree


def _check_loaded(tree: RoundTree) -> None:
    """Raise ParseError unless a loaded tree's records lie on its complex:
    the base is one of its vertices, cells close along edges, sector steps
    are edges, each bracket label and extension label reads along edges
    from its first vertex through the vertices its record names, and each
    leg is a reduced word of length ext_offset + ext_len.  One pass over
    the records."""
    def walk(v: int, word) -> list[int]:
        if not 0 <= v < len(tree.out):
            raise ParseError(f"vertex {v} is not among the {len(tree.out)} vertices")
        path = tree._walk(v, word)
        if len(path) <= len(word):
            raise ParseError(f"step ({path[-1]}, {word[len(path) - 1]}) is not an edge of the complex")
        return path

    walk(tree.base, ())
    for c in tree.cells:
        for (v, x), (w, _y) in zip(c.steps, c.steps[1:] + c.steps[:1]):
            if walk(v, (x,))[-1] != w:
                raise ParseError(f"cell {c.id} does not close along its edges")
    for sec in tree.sectors.values():
        for (v, x) in sec.outer + sec.lray + sec.rray:
            walk(v, (x,))
    for b in tree.brackets:
        path = walk(b.v1, tree.ab.encode(b.label))
        if not 0 <= b.cell < len(tree.cells) or (b.p1, b.p2, b.v2) != (path[b.k], path[-1 - b.k], path[-1]):
            raise ParseError(f"bracket {b.label!r} does not match its cell or its vertices")
    for rec in tree.extension_paths:
        if walk(rec["u"], tree.ab.encode(rec["label"]))[-1] != rec["tip"]:
            raise ParseError(f"extension label {rec['label']!r} does not end at its tip")
    prm = tree.params
    for c, o in tree.offset_words.items():
        for e in tree.ext_words[c]:
            if e is not None and ((len(o), len(e)) != (prm.ext_offset, prm.ext_len)
                                  or _reduce_ints(o + e) != o + e):
                raise ParseError(f"class {c!r} has a leg that is not a reduced word of its length")
