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
boundary words by construction.

The candidate cell words form the window index: every rotation of every host
relator and its inverse, as an int8 row matrix, deduplicated and sorted.  It
is built by viewing each row as one byte string and sorting those in place
(`words._sort_rows`), then dropping rows equal to their predecessor; on a
38 050-relator host that is 1.8 M rows.  A tree builds the index on its first
`grow_level`, never on `init_round_tree` or `tree_from_json`, so the read-side
operations (emanating words, probes) never pay for it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BracketUnfillableError,
    ConstructionObstructedError,
    DomainError,
    EmptyStatisticsError,
    ParseError,
    PreconditionError,
)
from .model import Presentation, parse_presentation
from .words import Alphabet, _encode_rows, _sort_rows

DEFAULT_SEARCH_BUDGET = 200_000


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
    level_budget: int = 20_000
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
        if not host.relators:
            raise PreconditionError("host presentation has no relators")
        self.host = host
        self.params = params
        self.ab: Alphabet = host.alphabet
        self.levels = 0
        self.out: list[dict[int, int]] = []
        self.cells: list[Cell] = []
        self.sectors: dict[tuple[int, ...], Sector] = {}
        self.brackets: list[Bracket] = []
        self.bracket_registry: dict[str, str] = {}
        self.offset_words: dict[str, tuple[int, ...]] = {}
        self.ext_words: dict[str, list[tuple[int, ...]]] = {}
        self.extension_paths: list[dict] = []  # {u, class, branch, tip, label, level}
        self._init_base_cell()

    # -- construction ------------------------------------------------------

    @cached_property
    def _windows(self) -> np.ndarray:
        """The cell-word candidates (see `_relator_windows`), built on first
        use: the first `grow_level`, never on init or load."""
        return _relator_windows(self.host.relators)

    @cached_property
    def _center_index_cache(self) -> dict[int, dict[bytes, np.ndarray]]:
        return {}

    def _center_rows(self, plen: int) -> dict[bytes, np.ndarray]:
        """Window rows grouped by the piece slot w[oe : oe+plen]."""
        cached = self._center_index_cache.get(plen)
        if cached is not None:
            return cached
        oe = self.params.ext_offset + self.params.ext_len
        centers = self._windows[:, oe : oe + plen]
        order = np.lexsort(centers.T[::-1])
        sorted_c = centers[order]
        boundaries = np.nonzero((sorted_c[1:] != sorted_c[:-1]).any(axis=1))[0] + 1
        index = {}
        for g in np.split(order, boundaries):
            index[centers[g[0]].tobytes()] = g
        self._center_index_cache[plen] = index
        return index

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

    def _init_base_cell(self):
        l = self.host.l
        word = self.ab.encode(self.host.relators[0])
        base = self._new_vertex()
        verts = [base] + [self._new_vertex() for _ in range(l - 1)]
        steps = []
        for t in range(l):
            v, w = verts[t], verts[(t + 1) % l]
            self._add_edge(v, word[t], w)
            steps.append((v, word[t]))
        cell = Cell(id=0, level=0, sector=(), steps=tuple(steps),
                    word=self.host.relators[0])
        self.cells.append(cell)
        self.base = base
        self.sectors[()] = Sector(key=(), outer=list(steps), lray=[], rray=[],
                                  cells=[0])

    # -- metric helpers ----------------------------------------------------

    def distances_from_base(self) -> list[int]:
        dist = [-1] * len(self.out)
        dist[self.base] = 0
        q = deque([self.base])
        while q:
            v = q.popleft()
            for w in self.out[v].values():
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist

    def bfs_parents(self) -> list[tuple[int, int] | None]:
        """Deterministic BFS tree: parent (vertex, letter-from-child) pairs."""
        parent: list[tuple[int, int] | None] = [None] * len(self.out)
        seen = [False] * len(self.out)
        seen[self.base] = True
        q = deque([self.base])
        while q:
            v = q.popleft()
            for letter in sorted(self.out[v]):
                w = self.out[v][letter]
                if not seen[w]:
                    seen[w] = True
                    parent[w] = (v, letter ^ 1)
                    q.append(w)
        return parent

    def path_label(self, steps) -> str:
        return self.ab.decode(x for (_v, x) in steps)

    # -- growth ------------------------------------------------------------

    def grow_level(self) -> "RoundTree":
        prm = self.params
        seg = prm.segment_length(self.host.l)
        dist = self.distances_from_base()
        parents = self.bfs_parents()
        current = [s for k, s in self.sectors.items() if len(k) == self.levels]
        new_cells_this_level = 0
        for sector in sorted(current, key=lambda s: s.key):
            pieces, points = self._partition(sector, dist, seg)
            classes = [self._class_of(u, parents, sector, idx, len(points))
                       for idx, u in enumerate(points)]
            plan = self._search_windows(sector, pieces, points, classes)
            new_cells_this_level += self._build_from_plan(
                sector, pieces, points, classes, plan
            )
            if new_cells_this_level > prm.level_budget:
                raise ConstructionObstructedError(
                    f"level budget {prm.level_budget} exceeded", sector=sector.key
                )
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
        (piece, branch) slot, consistent with the class tables, the bracket
        registry, branch divergence, and the immersion at junctions.

        Runs several randomized passes with per-pass node budgets: dead ends
        hinge on early table commitments, so shuffled restarts are far more
        effective than one deep exhaustive search.
        """
        prm = self.params
        off_n = prm.ext_offset
        oe = prm.ext_offset + prm.ext_len
        l = self.host.l
        W = self._windows
        piece_labels = [tuple(int(x) for (_v, x) in p) for p in pieces]
        piece_rows = []
        for lab in piece_labels:
            if len(lab) + 2 * oe > l:
                raise ConstructionObstructedError(
                    f"bracket length {len(lab) + 2 * oe} exceeds the relator length {l}",
                    sector=sector.key,
                )
            rows = self._center_rows(len(lab)).get(
                np.array(lab, dtype=np.int8).tobytes()
            )
            if rows is None or not len(rows):
                raise BracketUnfillableError(
                    f"no relator window contains a boundary segment labelled "
                    f"{self.ab.decode(lab)!r}",
                    sector=sector.key,
                )
            piece_rows.append(rows.copy())
        slots = [(i, j) for i in range(len(pieces)) for j in range(prm.V)]
        slot_pos = {s: si for si, s in enumerate(slots)}
        slots_by_class: dict[str, list[int]] = {}
        for si, (i, j) in enumerate(slots):
            slots_by_class.setdefault(classes[i], []).append(si)
            slots_by_class.setdefault(classes[i + 1], []).append(si)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.host.seed,
                spawn_key=(self.levels, sum(sector.key) + len(sector.key)),
            )
        )
        off: dict[str, tuple] = {}
        ext: dict[str, list] = {}
        registry: dict[str, str] = {}
        reserved: dict[int, dict[str, int]] = {}
        assignment: dict[tuple[int, int], tuple[int, ...]] = {}
        budget = [0]

        def known_leg(c, j):
            o = off.get(c)
            e = ext.get(c, [None] * prm.V)[j]
            if o is None or e is None:
                return None
            return o + e

        def candidate_rows(i, j, cL, cR):
            rows = piece_rows[i]
            plen = len(piece_labels[i])
            legL_k = known_leg(cL, j)
            legR_k = known_leg(cR, j)
            if legL_k is not None:
                left = np.array([x ^ 1 for x in reversed(legL_k)], dtype=np.int8)
                rows = rows[(W[rows, :oe] == left).all(axis=1)]
            if legR_k is not None and len(rows):
                right = np.array(legR_k, dtype=np.int8)
                rows = rows[(W[rows, oe + plen : 2 * oe + plen] == right).all(axis=1)]
            return rows

        def split_leg(leg):
            return leg[:off_n], leg[off_n:]

        def tables_ok(c, j, leg):
            o, e = split_leg(leg)
            if c in off and off[c] != o:
                return None
            exts = ext.get(c, [None] * prm.V)
            if exts[j] is not None and exts[j] != e:
                return None
            for jj, other in enumerate(exts):
                if jj != j and other is not None and other[0] == e[0]:
                    return None  # branches must diverge at the offset tip
            return (c, j, o, e)

        def offset_letter_ok(c, u, o):
            if o[0] in self.out[u]:
                return False
            held = reserved.get(u, {})
            return held.get(c, o[0]) == o[0] and all(
                x != o[0] for cc, x in held.items() if cc != c
            )

        def forward_ok(si, touched):
            for c in touched:
                for sj in slots_by_class.get(c, ()):
                    if sj <= si:
                        continue
                    i, j = slots[sj]
                    if not len(candidate_rows(i, j, classes[i], classes[i + 1])):
                        return False
            return True

        def try_slot(si):
            if si == len(slots):
                return True
            i, j = slots[si]
            plen = len(piece_labels[i])
            uL, uR = points[i], points[i + 1]
            cL, cR = classes[i], classes[i + 1]
            bl = 2 * oe + plen
            for row in candidate_rows(i, j, cL, cR):
                budget[0] -= 1
                if budget[0] <= 0:
                    raise ConstructionObstructedError(
                        "window search budget exhausted", sector=sector.key
                    )
                window = tuple(int(x) for x in W[row])
                legL = tuple(x ^ 1 for x in reversed(window[:oe]))
                legR = window[oe + plen : bl]
                if cL == cR and legL != legR:
                    continue
                upd_L = tables_ok(cL, j, legL)
                if upd_L is None:
                    continue
                upd_R = None
                if cR != cL:
                    upd_R = tables_ok(cR, j, legR)
                    if upd_R is None:
                        continue
                if not offset_letter_ok(cL, uL, legL[:off_n]):
                    continue
                if not offset_letter_ok(cR, uR, legR[:off_n]):
                    continue
                # adjacent same-branch cells share an extension tip: the free
                # arc of this cell ends where the previous cell's begins
                prev = assignment.get((i - 1, j))
                if prev is not None:
                    bl_prev = 2 * oe + len(piece_labels[i - 1])
                    if bl_prev < l and (window[l - 1] ^ 1) == prev[bl_prev]:
                        continue
                label = self.ab.decode(
                    tuple(x ^ 1 for x in reversed(legL)) + piece_labels[i] + legR
                )
                reg_word = registry.get(label)
                if reg_word is not None and self.ab.encode(reg_word) != window:
                    continue
                saved = (
                    dict(off),
                    {c: list(v) for c, v in ext.items()},
                    dict(registry),
                    {u: dict(h) for u, h in reserved.items()},
                )
                touched = []
                for upd in (upd_L, upd_R):
                    if upd is None:
                        continue
                    c, jj, o, e = upd
                    off[c] = o
                    ext.setdefault(c, [None] * prm.V)[jj] = e
                    touched.append(c)
                reserved.setdefault(uL, {})[cL] = off[cL][0]
                reserved.setdefault(uR, {})[cR] = off[cR][0]
                registry.setdefault(label, self.ab.decode(window))
                assignment[(i, j)] = window
                if forward_ok(si, touched) and try_slot(si + 1):
                    return True
                del assignment[(i, j)]
                off.clear(); off.update(saved[0])
                ext.clear(); ext.update(saved[1])
                registry.clear(); registry.update(saved[2])
                reserved.clear(); reserved.update(saved[3])
            return False

        attempts = 8
        solved = False
        saw_budget_stop = False
        for _attempt in range(attempts):
            for rows in piece_rows:
                rng.shuffle(rows)
            budget[0] = max(1, prm.search_budget // attempts)
            assignment.clear()
            off.clear(); off.update(self.offset_words)
            ext.clear(); ext.update({c: list(ws) for c, ws in self.ext_words.items()})
            registry.clear(); registry.update(self.bracket_registry)
            reserved.clear()
            try:
                if try_slot(0):
                    solved = True
                    break
            except ConstructionObstructedError:
                saw_budget_stop = True
                continue
        if not solved:
            if saw_budget_stop:
                raise ConstructionObstructedError(
                    "window search budget exhausted", sector=sector.key
                )
            raise BracketUnfillableError(
                "no consistent window assignment for this sector "
                "(desk-scale genericity failure)",
                sector=sector.key,
            )
        self.offset_words = off
        self.ext_words = {c: [w for w in ws] for c, ws in ext.items()}
        self.bracket_registry = registry
        return assignment

    # -- building from a plan ------------------------------------------------

    def _build_from_plan(self, sector, pieces, points, classes, plan) -> int:
        prm = self.params
        off_n, ext_n = prm.ext_offset, prm.ext_len
        oe = off_n + ext_n
        l = self.host.l
        # build the shared offset paths and per-branch extension paths
        tips: dict[tuple[int, int], int] = {}     # (point index, branch) -> tip vertex
        offset_tip: dict[int, int] = {}
        for idx, u in enumerate(points):
            c = classes[idx]
            o = self.offset_words[c]
            at = u
            for x in o:
                existing = self.out[at].get(x)
                if existing is not None and at == u:
                    raise ConstructionObstructedError(
                        "offset path folds into the complex",
                        sector=sector.key, vertex=u,
                    )
                if existing is None:
                    w = self._new_vertex()
                    self._add_edge(at, x, w)
                    at = w
                else:
                    at = existing
            offset_tip[idx] = at
            for j in range(prm.V):
                e = self.ext_words[c][j]
                at2 = offset_tip[idx]
                for x in e:
                    existing = self.out[at2].get(x)
                    if existing is None:
                        w = self._new_vertex()
                        self._add_edge(at2, x, w)
                        at2 = w
                    else:
                        at2 = existing
                tips[(idx, j)] = at2
                self.extension_paths.append(
                    {
                        "u": u,
                        "class": c,
                        "branch": j,
                        "tip": at2,
                        "label": self.ab.decode(o + e),
                        "level": self.levels,
                    }
                )
        # build cells and the child sectors
        created = 0
        for j in range(prm.V):
            child_key = sector.key + (j,)
            child_outer: list[tuple[int, int]] = []
            child_cells = []
            for i, piece in enumerate(pieces):
                window = plan[(i, j)]
                v1 = tips[(i, j)]
                v2 = tips[(i + 1, j)]
                # walk the cell cycle: leg down, piece, leg up, free arc
                steps = []
                at = v1
                for t in range(l):
                    x = window[t]
                    steps.append((at, x))
                    nxt = self.out[at].get(x)
                    if t < 2 * oe + len(piece) and nxt is None:
                        raise ConstructionObstructedError(
                            "bracket path missing from the complex",
                            sector=sector.key, vertex=at,
                        )
                    if nxt is None:
                        target = v1 if t == l - 1 else self._new_vertex()
                        self._add_edge(at, x, target)
                        nxt = target
                    at = nxt
                if at != v1:
                    raise ConstructionObstructedError(
                        "cell boundary failed to close", sector=sector.key, vertex=at
                    )
                cid = len(self.cells)
                word = self.ab.decode(window)
                self.cells.append(
                    Cell(id=cid, level=self.levels + 1, sector=child_key,
                         steps=tuple(steps), word=word)
                )
                child_cells.append(cid)
                created += 1
                bl = 2 * oe + len(piece)
                label = self.path_label(steps[:bl])
                self.brackets.append(
                    Bracket(cell=cid, label=label, k=oe, level=self.levels,
                            p1=points[i], p2=points[i + 1], v1=v1, v2=v2)
                )
                # the free arc, reversed, is the child's outer boundary piece
                arc = steps[bl:]
                rev = []
                for (v, x) in reversed(arc):
                    w = self.out[v][x]
                    rev.append((w, x ^ 1))
                child_outer.extend(rev)
            lray = sector.lray + self._leg_steps(points[0], classes[0], j)
            rray = sector.rray + self._leg_steps(points[-1], classes[-1], j)
            self.sectors[child_key] = Sector(
                key=child_key, outer=child_outer, lray=lray, rray=rray,
                cells=child_cells,
            )
        return created

    def _leg_steps(self, u, c, j):
        word = self.offset_words[c] + self.ext_words[c][j]
        steps = []
        at = u
        for x in word:
            steps.append((at, x))
            at = self.out[at][x]
        return steps

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

    # -- derived complexes ---------------------------------------------------

    def cells_of_prefix(self, key: tuple[int, ...]) -> list[Cell]:
        return [
            c
            for c in self.cells
            if c.sector == key[: len(c.sector)]
        ]

    def complex_sets(self, cells) -> tuple[set, set]:
        verts, edges = set(), set()
        for c in cells:
            verts |= c.vertices()
            edges |= c.edges()
        return verts, edges

    def level_cells(self, n: int) -> list[Cell]:
        return [c for c in self.cells if c.level <= n]


def _relator_windows(relators: Sequence[str]) -> np.ndarray:
    """All rotations of the relators and their inverses, deduplicated and in
    lexicographic order, as a (W, l) int8 matrix.

    The order matters: the window search shuffles row indices, so the rows
    must come out in the same order for a tree to be reproducible.
    """
    base = _encode_rows(relators)
    l = base.shape[1]
    both = np.concatenate([base, base[:, ::-1] ^ 1])
    doubled = np.concatenate([both, both[:, :-1]], axis=1)
    rots = sliding_window_view(doubled, l, axis=1).copy().reshape(-1, l)
    repeat = _sort_rows(rots)
    return rots[np.concatenate(([True], ~repeat))]


def init_round_tree(p: Presentation, params: RoundTreeParams) -> RoundTree:
    return RoundTree(p, params)


def grow_level(tree: RoundTree) -> RoundTree:
    return tree.grow_level()


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
    and the per-vertex extension cap."""
    passes: dict[str, bool] = {}
    wit: dict[str, object] = {}

    # (1) the base point lies on the boundary of a unique level-0 cell
    level0 = [c for c in tree.cells if c.level == 0]
    containing = [c.id for c in level0 if tree.base in c.vertices()]
    passes["initial-cell-unique"] = len(level0) == 1 and containing == [0]
    if not passes["initial-cell-unique"]:
        wit["initial-cell-unique"] = containing

    # (2) sector boundary decomposition: boundary edges of each sector complex
    #     are exactly L ∪ E ∪ R, with L ∩ R = {base}
    ok2 = True
    for key, s in tree.sectors.items():
        cells = tree.cells_of_prefix(key)
        edge_faces: dict[tuple, int] = {}
        for c in cells:
            for e in c.edges():
                edge_faces[e] = edge_faces.get(e, 0) + 1
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

    # (3) sandwich condition for sibling pairs at every stored depth
    ok3 = True
    depth = tree.levels
    leaf_keys = [k for k in tree.sectors if len(k) == depth]
    for a in leaf_keys:
        for b in leaf_keys:
            if a == b:
                continue
            n = _common_prefix(a, b)
            if n + 1 > len(a) or n + 1 > len(b):
                continue
            A_a = tree.complex_sets(tree.cells_of_prefix(a))
            A_b = tree.complex_sets(tree.cells_of_prefix(b))
            A_n = tree.complex_sets(tree.level_cells(n))
            A_n1 = tree.complex_sets(tree.level_cells(n + 1))
            lhs_v = A_n[0] & A_a[0]
            mid_v = A_a[0] & A_b[0]
            rhs_v = A_n1[0] & A_a[0]
            lhs_e = A_n[1] & A_a[1]
            mid_e = A_a[1] & A_b[1]
            rhs_e = A_n1[1] & A_a[1]
            if not (lhs_v <= mid_v <= rhs_v and lhs_e <= mid_e <= rhs_e):
                ok3 = False
                wit.setdefault("sandwich", []).append((a, b))
    passes["sandwich"] = ok3

    # (4) every 2-cell of A_n meets at most V·H 2-cells of A_{n+1} \ A_n
    ok4 = True
    cap = tree.params.V * tree.params.H
    for n in range(tree.levels):
        nxt = [c for c in tree.cells if c.level == n + 1]
        for c in tree.cells:
            if c.level > n:
                continue
            cv = c.vertices()
            meets = sum(1 for d in nxt if cv & d.vertices())
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


def extension_words(tree: RoundTree, k: int | None = None) -> ExtensionWordReport:
    """The extension word set X_k with its per-vertex views; checks that
    labels based at a vertex depend only on the vertex's incoming-edge class."""
    oe = tree.params.ext_offset + tree.params.ext_len
    if k is None:
        k = oe
    if k != oe:
        raise DomainError(f"extension words exist at k = ext_offset+ext_len = {oe}")
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
        k=k, words=words, per_vertex=per_vertex, classes=len(by_class)
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


def local_geodesic_probe(
    tree: RoundTree,
    path: list[int],
    window: int,
    target: Presentation,
    word_cap: int | None = None,
    node_budget: int = 300_000,
) -> ProbeVerdict:
    """Check every length-`window` subpath of a tree path for shortcuts in
    the target.  Violations found through the bounded search are real paths
    and therefore certain; a pass is exact only for a verified target."""
    from .cayley import distance, is_dehn_ready, naive_closure_ball

    _require_nested(tree, target)
    if window < 1:
        raise DomainError("window must be >= 1")
    steps = _steps_along(tree, path)
    labels = [x for (_v, x) in steps]
    if window > len(labels):
        raise DomainError("window exceeds the path length")
    exact = is_dehn_ready(target)
    nb = None
    if not exact:
        cap = word_cap if word_cap is not None else window + 1
        try:
            nb = naive_closure_ball(target, word_cap=cap, node_budget=node_budget)
        except Exception as e:  # budget exhaustion: cannot even bound
            return ProbeVerdict(status="inconclusive", exact=False, detail=str(e))
    for i in range(len(labels) - window + 1):
        sub = tree.ab.decode(labels[i : i + window])
        if exact:
            d = distance(target, sub)
            if d < window:
                return ProbeVerdict(
                    status="violation", exact=True, window=i,
                    detail=f"subword {sub!r} has distance {d} < {window}",
                )
        else:
            upper = nb.distance_upper(sub)
            if upper is None:
                return ProbeVerdict(
                    status="inconclusive", exact=False, window=i,
                    detail="word cap too small to locate the subword",
                )
            if upper < window:
                return ProbeVerdict(
                    status="violation", exact=False, window=i,
                    detail=f"subword {sub!r} has a path of length {upper} < {window}",
                )
    return ProbeVerdict(status="pass", exact=exact)


def _steps_along(tree: RoundTree, path: list[int]) -> list[tuple[int, int]]:
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
    node_budget: int = 300_000,
) -> DistortionStats:
    """Distribution of ρ_A(p,q) / ρ_t(π(p), π(q)) over sampled vertex pairs.

    With a verified target the ratios are exact; otherwise only the pairs
    whose distance is pinned (upper bound equal to the 1-Lipschitz lower
    bound regime) are certified, the rest are reported inconclusive."""
    from .cayley import distance, is_dehn_ready, naive_closure_ball

    _require_nested(tree, target)
    rng = np.random.default_rng(seed)
    exact = is_dehn_ready(target)
    nb = None
    if not exact:
        cap = word_cap if word_cap is not None else radius + 1
        nb = naive_closure_ball(target, word_cap=cap, node_budget=node_budget)
    dist0 = tree.distances_from_base()
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
        rho_a, word = _tree_distance_and_word(tree, p, q)
        if exact:
            rho_t = distance(target, word)
            if rho_t == 0:
                inconclusive += 1  # distinct tree vertices mapping together
                continue
            assert rho_t <= rho_a, "combinatorial maps are 1-Lipschitz"
            ratios.append(rho_a / rho_t)
        else:
            upper = nb.distance_upper(word)
            if upper is None or upper == 0:
                inconclusive += 1
                continue
            # the quotient distance is an upper bound, so the sample is
            # certified only when it meets the 1-Lipschitz ceiling rho_a,
            # pinning the true distance and giving ratio exactly 1
            if upper == rho_a:
                ratios.append(1.0)
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


def _tree_distance_and_word(tree: RoundTree, p: int, q: int) -> tuple[int, str]:
    prev: dict[int, tuple[int, int] | None] = {p: None}
    dq = deque([p])
    while dq:
        u = dq.popleft()
        if u == q:
            break
        for x, w in sorted(tree.out[u].items()):
            if w not in prev:
                prev[w] = (u, x)
                dq.append(w)
    letters = []
    at = q
    n = 0
    while prev[at] is not None:
        u, x = prev[at]
        letters.append(x)
        at = u
        n += 1
    return n, tree.ab.decode(reversed(letters))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def tree_to_json(tree: RoundTree) -> str:
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
        "edges": sorted(
            (v, x, w) for v, nbrs in enumerate(tree.out) for x, w in nbrs.items() if (v, x, w) <= (w, x ^ 1, v)
        ),
        "cells": [
            {
                "id": c.id,
                "level": c.level,
                "sector": list(c.sector),
                "steps": [list(s) for s in c.steps],
                "word": c.word,
            }
            for c in tree.cells
        ],
        "sectors": {
            ",".join(map(str, k)): {
                "outer": [list(s) for s in sec.outer],
                "lray": [list(s) for s in sec.lray],
                "rray": [list(s) for s in sec.rray],
                "cells": sec.cells,
            }
            for k, sec in tree.sectors.items()
        },
        "brackets": [
            {
                "cell": b.cell,
                "label": b.label,
                "k": b.k,
                "level": b.level,
                "p1": b.p1,
                "p2": b.p2,
                "v1": b.v1,
                "v2": b.v2,
            }
            for b in tree.brackets
        ],
        "extension_paths": tree.extension_paths,
        "offset_words": {c: tree.ab.decode(w) for c, w in tree.offset_words.items()},
        "ext_words": {
            c: [None if w is None else tree.ab.decode(w) for w in ws]
            for c, ws in tree.ext_words.items()
        },
    }
    return json.dumps(payload, indent=1)


def tree_from_json(text: str) -> RoundTree:
    """Load a tree written by `tree_to_json`.

    Raises ParseError when the text is not such a file or its host does not
    match the recorded fingerprint, and DomainError when its parameters are
    invalid for the host.  Like a new tree, a loaded one builds its window
    index on its first `grow_level`.
    """
    try:
        data = json.loads(text)
        host = parse_presentation(data["host"])
        if data["host_fingerprint"] != host.fingerprint():
            raise ParseError("host_fingerprint does not match the embedded host")
        tree = _tree_from_payload(data, host)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as e:
        raise ParseError(f"not a round-tree file: {type(e).__name__}: {e}") from e
    return tree


def _tree_from_payload(data: dict, host: Presentation) -> RoundTree:
    prm = data["params"]
    params = RoundTreeParams(
        V=prm["V"],
        H=prm["H"],
        ext_offset=prm["ext_offset"],
        ext_len=prm["ext_len"],
        seg_len=prm["seg_len"],
        beta=None if prm["beta"] is None else Fraction(prm["beta"]),
        eta=None if prm["eta"] is None else Fraction(prm["eta"]),
    )
    params.validate(host.l)
    tree = RoundTree.__new__(RoundTree)
    tree.host = host
    tree.params = params
    tree.ab = host.alphabet
    tree.levels = data["levels"]
    tree.out = [dict() for _ in range(data["vertices"])]
    for (v, x, w) in data["edges"]:
        tree.out[v][x] = w
        tree.out[w][x ^ 1] = v
    tree.cells = [
        Cell(
            id=c["id"],
            level=c["level"],
            sector=tuple(c["sector"]),
            steps=tuple((s[0], s[1]) for s in c["steps"]),
            word=c["word"],
        )
        for c in data["cells"]
    ]
    tree.base = 0
    tree.sectors = {}
    for key, sec in data["sectors"].items():
        k = tuple(int(t) for t in key.split(",")) if key else ()
        tree.sectors[k] = Sector(
            key=k,
            outer=[(s[0], s[1]) for s in sec["outer"]],
            lray=[(s[0], s[1]) for s in sec["lray"]],
            rray=[(s[0], s[1]) for s in sec["rray"]],
            cells=sec["cells"],
        )
    tree.brackets = [
        Bracket(
            cell=b["cell"], label=b["label"], k=b["k"], level=b["level"],
            p1=b["p1"], p2=b["p2"], v1=b["v1"], v2=b["v2"],
        )
        for b in data["brackets"]
    ]
    tree.bracket_registry = {b.label: tree.cells[b.cell].word for b in tree.brackets}
    tree.extension_paths = data["extension_paths"]
    tree.offset_words = {c: tree.ab.encode(w) for c, w in data["offset_words"].items()}
    tree.ext_words = {
        c: [None if w is None else tree.ab.encode(w) for w in ws]
        for c, ws in data["ext_words"].items()
    }
    return tree
