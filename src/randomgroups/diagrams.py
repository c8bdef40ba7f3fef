"""Restricted abstract van Kampen diagrams.

A diagram is a planar 2-complex with per-face data (bearing, reading
orientation, distinguished edge), a 0/1 restriction marking on boundary
edges, and letters on the restricted edges.  Faces are stored with their
boundary as a cyclic list of signed edge ids in counterclockwise order; a
face with orientation -1 reads its word against that storage direction.
The k-th edge of a face (k = 1..l) starts at the distinguished edge and
follows the face's own reading direction.

`belonging` is the one pass over a diagram's edges: it validates the
diagram once and reads its side map once, for the charges behind the degree
of constraint and for the filling conditions.  It is the module's one
reading of those conditions.  `compile_constraints` is that report with its
letters coded, made once per diagram: `fill`, the exact counts and Monte
Carlo share it.  A filling is searched in two steps: `_candidates` marks,
for a block of trials' relators at once, the rows each bearing index may
take, and `_fillings` backtracks over one trial's candidates.  `fill` is
the block of one, and Monte Carlo backtracks only the trials with a
candidate at every index.  `boundary_word` and `isoperimetric_check` check
a given filling against the same report.  The independent reading, straight
off the faces and restrictions, is the test oracle in `tests/oracles.py`.

Conventions fixed here (the module's canonical isomorphism):
  * interior edges must be traversed oppositely by their two face sides
    (orientation-consistent planar storage);
  * the boundary word is read in face direction, so a single cell filled by
    r reads a rotation of r;
  * a "tie" edge ((i1,k1) == (i2,k2)) is charged to the later face so the
    identity d_c = |I| + |r^-1(1)| holds for every reduced diagram, and the
    diagram is flagged never-fillable.  On a reduced diagram both faces read
    a tie edge the same way, so its letter would equal its own inverse and
    the flag is the definition; on a non-reduced mirrored pair it is `fill`'s
    counting convention (see `fill`);
  * enumeration glues faces along single connected boundary arcs, which is
    exactly the contractible planar edge-glued family; vertex-pinched
    complexes validate but are never enumerated.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    MalformedWordError,
    ParseError,
    PreconditionError,
)
from .words import Alphabet, _infer_alphabet, reduce_word

DEFAULT_ENUMERATION_BUDGET = 500_000


@dataclass(frozen=True)
class Edge:
    id: int
    src: int
    dst: int


@dataclass(frozen=True)
class Face:
    bears: int
    orientation: int
    boundary: tuple[int, ...]  # signed edge ids, CCW
    distinguished: int = 0

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise DomainError("face orientation must be +1 or -1")
        if not self.boundary:
            raise DomainError("face boundary must be nonempty")
        if not (0 <= self.distinguished < len(self.boundary)):
            raise DomainError("distinguished index out of range")


@dataclass
class Diagram:
    vertices: tuple[int, ...]
    edges: dict[int, Edge]
    faces: tuple[Face, ...]
    restrictions: dict[int, str] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return max((f.bears for f in self.faces), default=0)

    @property
    def face_sizes(self) -> set[int]:
        return {len(f.boundary) for f in self.faces}

    def side_map(self) -> dict[int, list[tuple[int, int, int]]]:
        """edge id -> [(face index, position in boundary, sign)]."""
        sides: dict[int, list[tuple[int, int, int]]] = {e: [] for e in self.edges}
        for fi, f in enumerate(self.faces):
            for pos, se in enumerate(f.boundary):
                sides[abs(se)].append((fi, pos, 1 if se > 0 else -1))
        return sides

    def internal_edges(self) -> set[int]:
        return {e for e, s in self.side_map().items() if len(s) == 2}

    def bridges(self) -> set[int]:
        return {e for e, s in self.side_map().items() if len(s) == 0}


def k_of(face: Face, pos: int) -> int:
    """1-based reading index of boundary position `pos` in this face."""
    L = len(face.boundary)
    if face.orientation == 1:
        return (pos - face.distinguished) % L + 1
    return (face.distinguished - pos) % L + 1


def slot_of(face: Face, k: int) -> tuple[int, int]:
    """(boundary position, traversal direction in storage terms) of the k-th edge."""
    L = len(face.boundary)
    if face.orientation == 1:
        pos = (face.distinguished + k - 1) % L
    else:
        pos = (face.distinguished - (k - 1)) % L
    sign = 1 if face.boundary[pos] > 0 else -1
    return pos, sign * face.orientation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    # the side map the checks read, which `belonging` reads again; None when
    # a face names a missing edge, since none can be built then
    sides: dict[int, list[tuple[int, int, int]]] | None = None

    @property
    def valid(self) -> bool:
        return not self.violations


def _endpoints(diagram: Diagram, signed_edge: int) -> tuple[int, int]:
    e = diagram.edges[abs(signed_edge)]
    return (e.src, e.dst) if signed_edge > 0 else (e.dst, e.src)


def _dangling_edges(diagram: Diagram) -> list[str]:
    vset = set(diagram.vertices)
    return [
        f"edge {e.id} references missing vertices"
        for e in diagram.edges.values()
        if e.src not in vset or e.dst not in vset
    ]


def validate(diagram: Diagram) -> ValidationReport:
    """Structural check of every defining condition; report-based."""
    rep = ValidationReport(violations=_dangling_edges(diagram))
    vset = set(diagram.vertices)
    for fi, f in enumerate(diagram.faces):
        for se in f.boundary:
            if se == 0 or abs(se) not in diagram.edges:
                rep.violations.append(f"face {fi} references missing edge {se}")
                return rep
        for i, se in enumerate(f.boundary):
            nxt = f.boundary[(i + 1) % len(f.boundary)]
            if _endpoints(diagram, se)[1] != _endpoints(diagram, nxt)[0]:
                rep.violations.append(f"face {fi} boundary is not a closed walk at step {i}")

    n = diagram.n
    if not diagram.faces:
        rep.violations.append("a diagram needs at least one face (1 <= n <= |X|)")
    else:
        borne = {f.bears for f in diagram.faces}
        if n < 1 or borne != set(range(1, n + 1)):
            rep.violations.append(
                f"bearing map is not surjective onto 1..{n}: bears {sorted(borne)}"
            )

    sides = rep.sides = diagram.side_map()
    for e, s in sides.items():
        if len(s) > 2:
            rep.violations.append(f"edge {e} lies on more than two face sides")
        elif len(s) == 2 and s[0][2] == s[1][2]:
            rep.violations.append(
                f"edge {e} traversed twice in the same direction (orientation-inconsistent)"
            )

    # connectivity of the 1-skeleton
    if diagram.vertices:
        adj: dict[int, set[int]] = {v: set() for v in diagram.vertices}
        for e in diagram.edges.values():
            if e.src in vset and e.dst in vset:
                adj[e.src].add(e.dst)
                adj[e.dst].add(e.src)
        seen = {diagram.vertices[0]}
        stack = [diagram.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vset):
            rep.violations.append("1-skeleton is not connected")

    # planarity and contractibility: V - E + F = 1 counting inner faces only,
    # i.e. V - E + F_total = 2 with the outer face
    chi = len(diagram.vertices) - len(diagram.edges) + len(diagram.faces)
    if chi != 1:
        rep.violations.append(
            f"Euler check failed: V - E + F_total = {chi + 1} != 2 (not a contractible planar diagram)"
        )
    if diagram.faces and not any(len(s) <= 1 for s in sides.values()):
        rep.violations.append("diagram has empty boundary (sphere-like complex)")

    for e, lab in diagram.restrictions.items():
        if e not in diagram.edges:
            rep.violations.append(f"restriction on missing edge {e}")
            continue
        if len(sides.get(e, [])) != 1:
            rep.violations.append(
                f"restriction on edge {e} which is not a boundary edge of any face"
            )
        if len(lab) != 1:
            rep.violations.append(f"restriction label {lab!r} is not a single letter")
        else:
            try:
                _infer_alphabet([lab])
            except MalformedWordError:
                rep.violations.append(f"restriction label {lab!r} is not a letter")
    return rep


def is_reduced(diagram: Diagram) -> bool:
    """No same-relator mirrored pair across an edge, no degree-1 boundary vertices.

    PreconditionError when an edge names a missing vertex, which `validate`
    reports as a violation."""
    dangling = _dangling_edges(diagram)
    if dangling:
        raise PreconditionError(f"is_reduced requires a valid diagram: {dangling[0]}")
    sides = diagram.side_map()
    for e, s in sides.items():
        if len(s) != 2:
            continue
        (f1, p1, _), (f2, p2, _) = s
        a, b = diagram.faces[f1], diagram.faces[f2]
        if f1 != f2 and a.bears == b.bears and a.orientation != b.orientation:
            if k_of(a, p1) == k_of(b, p2):
                return False
    deg: dict[int, int] = {v: 0 for v in diagram.vertices}
    for e in diagram.edges.values():
        deg[e.src] += 1
        deg[e.dst] += 1
    return all(d != 1 for d in deg.values())


# ---------------------------------------------------------------------------
# Belonging and the degree of constraint
# ---------------------------------------------------------------------------


@dataclass
class ConstraintReport:
    belongs: dict[int, int]              # edge id -> face index
    E_per_face: dict[int, int]           # face index -> E(f)
    E_per_relator: dict[int, int]        # sorted position (1-based) -> E_i
    multiplicity: dict[int, int]         # sorted position -> m_i (descending)
    order: tuple[int, ...]               # original bearing indices, sorted by multiplicity
    d_c: int
    tie_edges: list[int]
    never_fillable: bool
    internal_count: int
    restricted_count: int
    boundary_count: int
    face_count: int
    face_size: int | None                # the diagram's l; None when face sizes differ
    # the filling conditions by bearing index, each shared edge at its later
    # (i, k) end; `flip` is 1 where both faces read the edge the same way,
    # so its letters satisfy x == y ^ 1
    letters: dict[int, list[tuple[int, str]]]          # i -> [(k, restricted letter)]
    same: dict[int, list[tuple[int, int, int]]]        # i -> [(k1, k2, flip)]
    cross: dict[int, list[tuple[int, int, int, int]]]  # later i2 -> [(i1, k1, k2, flip)]

    def to_rows(self) -> list[dict]:
        return [
            {
                "position": i,
                "original_relator": self.order[i - 1],
                "multiplicity": self.multiplicity[i],
                "E_i": self.E_per_relator[i],
            }
            for i in self.multiplicity
        ]


def belonging(diagram: Diagram) -> ConstraintReport:
    """One pass over a valid diagram's edges: the charges and the filling
    conditions.  PreconditionError, naming the first violation, unless the
    diagram is valid.

    Every constrained edge is charged to a face ("the second face it
    meets").  Relator indices are normalized so multiplicities are
    non-increasing (order is a presentation convention); the report records
    the order used.  Tie edges are charged to the later face and flag the
    diagram never-fillable, keeping d_c = |I| + |r^-1(1)| exact for every
    reduced diagram.  A tie is the same test on bearing indices as on their
    ranks, since ranking is a bijection.
    """
    report = validate(diagram)
    if not report.valid:
        raise PreconditionError(f"the diagram is not valid: {report.violations[0]}")
    n = diagram.n
    mult = {i: sum(1 for f in diagram.faces if f.bears == i) for i in range(1, n + 1)}
    order = tuple(sorted(mult, key=lambda i: (-mult[i], i)))
    rank = {orig: pos + 1 for pos, orig in enumerate(order)}  # original -> sorted position

    letters: dict[int, list] = {i: [] for i in mult}
    same: dict[int, list] = {i: [] for i in mult}
    cross: dict[int, list] = {i: [] for i in mult}
    belongs: dict[int, int] = {}
    ties: list[int] = []
    internal = 0
    for e, s in report.sides.items():
        if len(s) == 2:
            internal += 1
            (f1, p1, _), (f2, p2, _) = s
            a, b = diagram.faces[f1], diagram.faces[f2]
            ka, kb = k_of(a, p1), k_of(b, p2)
            key1, key2 = (rank[a.bears], ka), (rank[b.bears], kb)
            belongs[e] = max((key1, f1), (key2, f2))[1]
            if key1 == key2:
                ties.append(e)
            flip = int(a.orientation == b.orientation)
            (i1, k1), (i2, k2) = sorted([(a.bears, ka), (b.bears, kb)])
            if i1 == i2:
                same[i1].append((k1, k2, flip))
            else:
                cross[i2].append((i1, k1, k2, flip))
        elif len(s) == 1 and e in diagram.restrictions:
            (f1, p1, _) = s[0]
            belongs[e] = f1
            f = diagram.faces[f1]
            letters[f.bears].append((k_of(f, p1), diagram.restrictions[e]))

    E_per_face = {fi: 0 for fi in range(len(diagram.faces))}
    for fi in belongs.values():
        E_per_face[fi] += 1
    E_per_relator = {
        pos: max(
            (E_per_face[fi] for fi, f in enumerate(diagram.faces) if f.bears == orig),
            default=0,
        )
        for orig, pos in rank.items()
    }
    sizes = diagram.face_sizes
    return ConstraintReport(
        belongs=belongs,
        E_per_face=E_per_face,
        E_per_relator=E_per_relator,
        multiplicity={rank[i]: mult[i] for i in mult},
        order=order,
        d_c=sum(E_per_face.values()),
        tie_edges=ties,
        never_fillable=bool(ties),
        internal_count=internal,
        restricted_count=len(diagram.restrictions),
        boundary_count=len(diagram.edges) - internal,  # `validate`: at most two sides an edge
        face_count=len(diagram.faces),
        face_size=min(sizes) if len(sizes) == 1 else None,
        letters=letters,
        same=same,
        cross=cross,
    )


# ---------------------------------------------------------------------------
# Filling
# ---------------------------------------------------------------------------


@dataclass
class CompiledConstraints:
    """`belonging`'s filling conditions with the restricted letters coded."""

    n: int
    l: int
    order: tuple[int, ...]                              # `belonging`'s order
    alphabet: Alphabet
    unary: dict[int, list[tuple[int, int]]]             # i -> [(k, letter code)]
    same: dict[int, list[tuple[int, int, int]]]         # i -> [(k1, k2, flip)]
    cross: dict[int, list[tuple[int, int, int, int]]]   # later i2 -> [(i1, k1, k2, flip)]
    never_fillable: bool                                # some edge is a tie


def compile_constraints(diagram: Diagram, alphabet: Alphabet) -> CompiledConstraints:
    """The constraints every filling routine reads: `belonging`'s report with
    its letters coded.  PreconditionError unless the diagram is valid,
    bridgeless and made of l-gons of one size."""
    rep = belonging(diagram)
    # an internal edge has two face sides and every other edge one, unless
    # it is a bridge, with none
    if rep.boundary_count + 2 * rep.internal_count != sum(len(f.boundary) for f in diagram.faces):
        raise PreconditionError("filling assumes every edge bounds a face")
    if rep.face_size is None:
        raise PreconditionError("filling assumes all faces are l-gons of equal size")
    return CompiledConstraints(
        n=diagram.n, l=rep.face_size, order=rep.order, alphabet=alphabet,
        unary={i: [(k, alphabet.encode(x)[0]) for k, x in ks] for i, ks in rep.letters.items()},
        same=rep.same, cross=rep.cross, never_fillable=rep.never_fillable,
    )


def _index_mask(words: np.ndarray, cons: CompiledConstraints, i: int) -> np.ndarray:
    """Rows of an int8 (N, l) word matrix that may sit at bearing index i:
    they carry its restricted letters and agree on edges its faces share."""
    mask = np.ones(len(words), dtype=bool)
    for k, code in cons.unary[i]:
        mask &= words[:, k - 1] == code
    for k1, k2, flip in cons.same[i]:
        mask &= words[:, k1 - 1] == words[:, k2 - 1] ^ flip
    return mask


def fill(diagram: Diagram, relators: Sequence[str], mode: str = "all", distinct: bool = True):
    """Assignments of relator words to bearing indices satisfying both
    filling conditions.

    A diagram with a tie edge is never filled.  On a reduced diagram that is
    the definition.  On a non-reduced mirrored pair, whose faces read the
    tie edge oppositely, the tie's condition x == x holds and the conditions
    accept every word, as `boundary_word` does; `fill` still finds nothing,
    so it agrees with the definition on reduced diagrams only.

    With `distinct=True` (fill-by-presentation) the words assigned to
    different indices must be pairwise distinct; `distinct=False` is the raw
    definition-level search.  The relators are a block of one trial for
    `_candidates` and `_fillings`, the steps `mc_fillability` runs on a
    block of trials, and only the fillings returned are decoded; `mode` is
    one of "first" | "all" | "count".
    """
    if mode not in ("first", "all", "count"):
        raise DomainError(f"unknown fill mode {mode!r}")
    relators = list(relators)
    cons = compile_constraints(diagram, _infer_alphabet(relators))
    coded = [cons.alphabet.encode(w) for w in relators]
    if cons.never_fillable:
        coded = []  # no word is read
    elif any(len(w) != cons.l for w in coded):
        raise PreconditionError("every relator must match the face size l")
    masks, _ = _candidates(cons, np.array(coded, dtype=np.int8).reshape(1, len(coded), cons.l))
    found = _fillings(cons, coded, masks[:, 0], distinct)
    if mode == "count":
        return sum(1 for _ in found)
    words = (tuple(cons.alphabet.decode(coded[r]) for r in chosen) for chosen in found)
    return next(words, None) if mode == "first" else list(words)


def _candidates(cons: CompiledConstraints, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate step of filling, for a (T, N, l) int8 block of T
    trials' relator codes (as `model._trial_relators` draws them): the
    (n, T, N) masks of the rows that may sit at each bearing index (index i
    at i - 1), and the (T,) mask of the trials that give every index a
    candidate; the other trials cannot fill.  The tie rule is the
    callers': a tie diagram reads no relator."""
    T, N, l = block.shape
    flat = block.reshape(T * N, l)
    masks = np.stack([_index_mask(flat, cons, i).reshape(T, N) for i in range(1, cons.n + 1)])
    return masks, masks.any(axis=2).all(axis=0)


def _fillings(cons: CompiledConstraints, coded: Sequence[Sequence[int]], masks: np.ndarray,
              distinct: bool):
    """The fillings of one trial, lazily and in search order, each as the
    tuple of rows of `coded` (its relator codes) placed at bearing indices
    1..n.  Index i takes the rows of its mask `masks[i - 1]` in relator
    order, and each cross pair is checked once, at its later index."""
    candidates = [np.flatnonzero(mask).tolist() for mask in masks]
    chosen: list[int] = []  # the relator placed at each index 1..len(chosen)

    def rec(i: int):
        if i > cons.n:
            yield tuple(chosen)
            return
        for r in candidates[i - 1]:
            w = coded[r]
            if distinct and any(w == coded[c] for c in chosen):
                continue
            if all(coded[chosen[i1 - 1]][k1 - 1] == w[k2 - 1] ^ flip
                   for i1, k1, k2, flip in cons.cross[i]):
                chosen.append(r)
                yield from rec(i + 1)
                chosen.pop()

    return rec(1)


def _count_partial_fillings(cons: CompiledConstraints, words: np.ndarray,
                            order: tuple[int, ...]) -> int:
    """Number of len(order)-tuples of rows of `words` that partially fill the
    compiled diagram, where slot s bears index order[s]; repeats are allowed,
    matching the i.i.d. sampling semantics."""
    if cons.never_fillable:
        return 0
    N, upto = len(words), len(order)

    def along(column: np.ndarray, slot: int) -> np.ndarray:
        shape = [1] * upto
        shape[slot] = N
        return column.reshape(shape)

    # broadcast every constraint over the tuple product
    slot_of_index = {idx: s for s, idx in enumerate(order)}
    total = np.ones([N] * upto, dtype=bool)
    for s, idx in enumerate(order):
        total &= along(_index_mask(words, cons, idx), s)
    for i2, group in cons.cross.items():
        for i1, k1, k2, flip in group:
            if i1 in slot_of_index and i2 in slot_of_index:
                total &= along(words[:, k1 - 1], slot_of_index[i1]) == along(
                    words[:, k2 - 1] ^ flip, slot_of_index[i2])
    return int(total.sum())


# ---------------------------------------------------------------------------
# Boundary word
# ---------------------------------------------------------------------------


def boundary_walks(diagram: Diagram) -> list[list[tuple[int, int]]]:
    """Closed boundary walks as lists of (edge id, direction).

    Each boundary edge is traversed in its unique face's storage (CCW)
    direction, which chains into closed walks around the complex; the
    per-face reading flag plays no geometric role here.  At a pinch vertex
    with several outgoing boundary edges the successor with the smallest
    edge id is taken (deterministic, documented choice).
    """
    sides = diagram.side_map()
    outgoing: dict[int, list[tuple[int, int]]] = {}
    for e, s in sides.items():
        if len(s) != 1:
            continue
        (_fi, _pos, sgn) = s[0]
        direction = sgn
        src, _ = _endpoints(diagram, e if direction > 0 else -e)
        outgoing.setdefault(src, []).append((e, direction))
    for v in outgoing:
        outgoing[v].sort()
    walks = []
    used: set[tuple[int, int]] = set()
    for v in sorted(outgoing):
        for start in outgoing[v]:
            if start in used:
                continue
            walk = []
            cur = start
            at = v
            while True:
                used.add(cur)
                walk.append(cur)
                e, direction = cur
                _, dst = _endpoints(diagram, e if direction > 0 else -e)
                at = dst
                nxt = next((c for c in outgoing.get(at, []) if c not in used), None)
                if nxt is None:
                    break
                cur = nxt
            walks.append(walk)
    return walks


def _require_filling(diagram: Diagram,
                     filling: Sequence[str]) -> tuple[ConstraintReport, Alphabet]:
    """`belonging`'s report of the diagram and the alphabet of `filling`;
    PreconditionError unless `filling` is n(X) words, each as long as the
    faces bearing it, that meet every filling condition of the report, tie
    edges included.  The diagram is validated first, so the shape check
    reads only bearings in 1..n(X)."""
    rep = belonging(diagram)
    if len(filling) != diagram.n or any(
            len(filling[f.bears - 1]) != len(f.boundary) for f in diagram.faces):
        raise PreconditionError(
            f"a filling is {diagram.n} words, one per bearing index, as long as its faces")
    ab = _infer_alphabet(list(filling))
    coded = dict(enumerate((ab.encode(w) for w in filling), start=1))  # by bearing index
    letters = [(i, k, ab.encode(x)[0]) for i, ks in rep.letters.items() for k, x in ks]
    if not (all(coded[i][k - 1] == code for i, k, code in letters)
            and all(coded[i][k1 - 1] == coded[i][k2 - 1] ^ flip
                    for i, ks in rep.same.items() for k1, k2, flip in ks)
            and all(coded[i1][k1 - 1] == coded[i2][k2 - 1] ^ flip
                    for i2, ks in rep.cross.items() for i1, k1, k2, flip in ks)):
        raise PreconditionError("the given words do not fill the diagram")
    return rep, ab


def boundary_word(diagram: Diagram, filling: Sequence[str]) -> tuple[str, str]:
    """Boundary label word of a filled diagram and its free reduction."""
    _, ab = _require_filling(diagram, filling)
    walks = boundary_walks(diagram)
    if not walks:
        raise PreconditionError("diagram has no boundary")
    if len(walks) > 1:
        raise PreconditionError("diagram boundary is not a single closed walk")
    sides = diagram.side_map()
    letters = []
    for (e, _direction) in walks[0]:
        (fi, pos, _sgn) = sides[e][0]
        f = diagram.faces[fi]
        k = k_of(f, pos)
        code = ab.encode(filling[f.bears - 1])[k - 1]
        # the walk follows storage direction; the k-th letter labels the
        # face's reading direction, which agrees with storage iff the flag
        # is +1
        letters.append(code if f.orientation == 1 else code ^ 1)
    word = ab.decode(letters)
    return word, reduce_word(word, ab)


# ---------------------------------------------------------------------------
# Isoperimetry
# ---------------------------------------------------------------------------


def isoperimetric_check(
    diagram: Diagram, filling: Sequence[str] | None, d, epsilon
) -> tuple[Fraction, bool]:
    """|∂D| / (l·|D|) against the linear isoperimetric threshold 1 - 2d - ε,
    with |∂D| and |D| read off `belonging`'s report.  PreconditionError,
    naming the first violation, unless the diagram is valid, and unless
    `filling`, when given, fills it."""
    d = Fraction(d)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    rep = belonging(diagram) if filling is None else _require_filling(diagram, filling)[0]
    ratio = Fraction(rep.boundary_count, max(diagram.face_sizes) * rep.face_count)
    return ratio, ratio >= 1 - 2 * d - epsilon


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------


@dataclass
class LadderVerdict:
    is_ladder: bool
    cell_sequence: list[tuple[str, int]] = field(default_factory=list)  # ("face"|"edge", idx)
    reason: str = ""


def _cell_vertices(diagram: Diagram, cell: tuple[str, int]) -> set[int]:
    kind, idx = cell
    if kind == "edge":
        e = diagram.edges[idx]
        return {e.src, e.dst}
    verts = set()
    for se in diagram.faces[idx].boundary:
        a, b = _endpoints(diagram, se)
        verts.update((a, b))
    return verts


def classify_ladder(
    diagram: Diagram, beta1: Sequence[int], beta2: Sequence[int]
) -> LadderVerdict:
    """Is the diagram a chain of cells R_1..R_k with only consecutive
    intersections, from the boundary path beta1 to beta2?

    Cells are the 2-cells together with bridge edges (1-cells); betas are
    given as vertex lists on the boundary.
    """
    boundary_vertices = set()
    sides = diagram.side_map()
    for e, s in sides.items():
        if len(s) <= 1:
            ed = diagram.edges[e]
            boundary_vertices.update((ed.src, ed.dst))
    for b in (beta1, beta2):
        if not set(b) <= boundary_vertices:
            raise PreconditionError("beta paths must lie on the diagram boundary")

    cells: list[tuple[str, int]] = [("face", i) for i in range(len(diagram.faces))]
    cells += [("edge", e) for e in diagram.bridges()]
    verts = {c: _cell_vertices(diagram, c) for c in cells}
    k = len(cells)
    if k == 0:
        return LadderVerdict(False, reason="no cells")
    if k == 1:
        c = cells[0]
        ok = set(beta1) <= verts[c] and set(beta2) <= verts[c]
        return LadderVerdict(ok, [c] if ok else [], "" if ok else "betas not in the cell")

    adj = {
        (a, b)
        for a, b in itertools.combinations(cells, 2)
        if verts[a] & verts[b]
    }

    def deg(c):
        return sum(1 for (a, b) in adj if a == c or b == c)

    ends = [c for c in cells if deg(c) == 1]
    if any(deg(c) > 2 for c in cells) or len(ends) != 2:
        return LadderVerdict(False, reason="cell intersection graph is not a path")
    # walk the path from an end containing beta1
    start = next((c for c in ends if set(beta1) <= verts[c]), None)
    if start is None:
        return LadderVerdict(False, reason="beta1 is not inside an end cell")
    seq = [start]
    seen = {start}
    while len(seq) < k:
        nxt = next(
            (
                d
                for (a, b) in adj
                for d in ((b,) if a == seq[-1] else (a,) if b == seq[-1] else ())
                if d not in seen
            ),
            None,
        )
        if nxt is None:
            return LadderVerdict(False, reason="cells do not chain")
        seq.append(nxt)
        seen.add(nxt)
    for i, j in itertools.combinations(range(k), 2):
        if j - i > 1 and verts[seq[i]] & verts[seq[j]]:
            return LadderVerdict(False, reason=f"R_{i + 1} meets R_{j + 1}")
    if not set(beta2) <= verts[seq[-1]]:
        return LadderVerdict(False, reason="beta2 is not inside the last cell")
    if k >= 2:
        # beta1 must lie in R_1 \ R_2 and beta2 in R_k \ R_{k-1}
        if set(beta1) & verts[seq[1]]:
            return LadderVerdict(False, reason="beta1 meets R_2")
        if set(beta2) & verts[seq[-2]]:
            return LadderVerdict(False, reason="beta2 meets R_{k-1}")
    return LadderVerdict(True, seq)


# ---------------------------------------------------------------------------
# Enumeration of reduced abstract diagrams
# ---------------------------------------------------------------------------


def single_face_diagram(
    l: int,
    bears: int = 1,
    orientation: int = 1,
    distinguished: int = 0,
    restrictions: dict[int, str] | None = None,
) -> Diagram:
    """A plain l-gon; edge i (1-based) runs from vertex i-1 to vertex i mod l."""
    vertices = tuple(range(l))
    edges = {i + 1: Edge(i + 1, i, (i + 1) % l) for i in range(l)}
    face = Face(bears=bears, orientation=orientation,
                boundary=tuple(range(1, l + 1)), distinguished=distinguished)
    return Diagram(vertices=vertices, edges=edges, faces=(face,),
                   restrictions=dict(restrictions or {}))


def glue_face(
    diagram: Diagram,
    walk_start: int,
    arc_len: int,
    bears: int,
    orientation: int = 1,
    distinguished: int = 0,
) -> Diagram:
    """Glue a fresh l-gon onto `arc_len` consecutive edges of the boundary walk.

    The new face traverses the shared arc against the walk, keeping the
    planar storage orientation-consistent.
    """
    walks = boundary_walks(diagram)
    if len(walks) != 1:
        raise PreconditionError("can only glue onto a single-walk boundary")
    walk = walks[0]
    l = max(diagram.face_sizes)
    if not (1 <= arc_len <= min(l - 1, len(walk) - 1)):
        raise DomainError("arc length out of range")
    arc = [walk[(walk_start + i) % len(walk)] for i in range(arc_len)]
    if len({e for (e, _) in arc}) != arc_len:
        raise DomainError("arc revisits an edge")
    # shared arc, traversed backwards by the new face
    shared = []
    for (e, direction) in reversed(arc):
        sgn = 1 if direction > 0 else -1
        shared.append(-sgn * e)
    # fresh chain from the arc start back around to the arc end
    u0, _ = _endpoints(diagram, arc[0][0] if arc[0][1] > 0 else -arc[0][0])
    _, uj = _endpoints(diagram, arc[-1][0] if arc[-1][1] > 0 else -arc[-1][0])
    next_v = max(diagram.vertices) + 1
    next_e = max(diagram.edges) + 1
    fresh_vertices = []
    fresh_edges = {}
    chain = []
    prev = u0
    for t in range(l - arc_len):
        dst = uj if t == l - arc_len - 1 else next_v + t
        if dst != uj:
            fresh_vertices.append(dst)
        fresh_edges[next_e + t] = Edge(next_e + t, prev, dst)
        chain.append(next_e + t)
        prev = dst
    boundary = tuple(shared) + tuple(chain)
    face = Face(bears=bears, orientation=orientation, boundary=boundary,
                distinguished=distinguished)
    return Diagram(
        vertices=diagram.vertices + tuple(fresh_vertices),
        edges={**diagram.edges, **fresh_edges},
        faces=diagram.faces + (face,),
        restrictions=dict(diagram.restrictions),
    )


def canonical_code(diagram: Diagram) -> tuple:
    """Rooted combinatorial-map code, minimized over faces bearing relator 1.

    Two diagrams are duplicates exactly when a bearing-, orientation- and
    distinguished-edge-preserving isomorphism exists, i.e. when their codes
    coincide.
    """
    roots = [fi for fi, f in enumerate(diagram.faces) if f.bears == 1]
    if not roots:
        roots = list(range(len(diagram.faces)))
    sides = diagram.side_map()
    best = None
    for root in roots:
        code = _code_from_root(diagram, sides, root)
        if best is None or code < best:
            best = code
    return best


def _code_from_root(diagram: Diagram, sides, root: int) -> tuple:
    face_ids: dict[int, int] = {root: 0}
    edge_ids: dict[int, int] = {}
    vert_ids: dict[int, int] = {}
    queue = [root]
    out = []
    qi = 0
    while qi < len(queue):
        fi = queue[qi]
        qi += 1
        f = diagram.faces[fi]
        L = len(f.boundary)
        entry = []
        for k in range(1, L + 1):
            pos, direction = slot_of(f, k)
            e = abs(f.boundary[pos])
            a, b = _endpoints(diagram, e if direction > 0 else -e)
            eid = edge_ids.setdefault(e, len(edge_ids))
            va = vert_ids.setdefault(a, len(vert_ids))
            vb = vert_ids.setdefault(b, len(vert_ids))
            entry.append((eid, va, vb))
            for (gi, _, _) in sides[e]:
                if gi not in face_ids:
                    face_ids[gi] = len(face_ids)
                    queue.append(gi)
        out.append((f.bears, f.orientation, tuple(entry)))
    restr = tuple(
        sorted((edge_ids.get(e, -1), lab) for e, lab in diagram.restrictions.items())
    )
    return (len(diagram.faces), tuple(out), restr)


@dataclass
class EnumerationReport:
    count: int
    log_l_count: float
    shape_bound_exponent: int  # the l-exponent 4C of the counting bound


def enumerate_diagrams(
    C: int, l: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[list[Diagram], EnumerationReport]:
    """All reduced abstract diagrams with l-gon faces, |X| <= C, every edge on
    a face, up to the module's canonical isomorphism.

    Faces are glued along single connected boundary arcs (the contractible
    planar edge-glued family).  Counts are reported next to the l^(4C) shape
    of the generic counting bound; its constant is existence-only and never
    claimed.
    """
    if C < 1 or C > 3 or l < 2 or l > 12:
        raise DomainError("desk budget: 1 <= C <= 3 and 2 <= l <= 12")
    shapes: list[Diagram] = []

    def grow(diag: Diagram, faces_left: int):
        shapes.append(diag)
        if faces_left == 0:
            return
        walk = boundary_walks(diag)[0]
        for start in range(len(walk)):
            for j in range(1, min(l - 1, len(walk) - 1) + 1):
                try:
                    bigger = glue_face(diag, start, j, bears=1)
                except DomainError:
                    continue
                grow(bigger, faces_left - 1)

    grow(single_face_diagram(l), C - 1)

    est = sum((2 * l) ** len(s.faces) * len(s.faces) ** len(s.faces) for s in shapes)
    if est > budget:
        raise BudgetExceededError(
            f"decorated enumeration (~{est} candidates) exceeds budget {budget}",
            budget=budget,
        )

    seen: dict[tuple, Diagram] = {}
    for shape in shapes:
        c = len(shape.faces)
        face_data = itertools.product(
            *[itertools.product((1, -1), range(l)) for _ in range(c)]
        )
        bearings = [
            bear
            for n in range(1, c + 1)
            for bear in itertools.product(range(1, n + 1), repeat=c)
            if set(bear) == set(range(1, n + 1))
        ]
        for data in face_data:
            for bear in bearings:
                faces = tuple(
                    Face(
                        bears=bear[i],
                        orientation=data[i][0],
                        boundary=shape.faces[i].boundary,
                        distinguished=data[i][1],
                    )
                    for i in range(c)
                )
                cand = Diagram(
                    vertices=shape.vertices, edges=shape.edges, faces=faces
                )
                if not is_reduced(cand):
                    continue
                code = canonical_code(cand)
                if code not in seen:
                    if not validate(cand).valid:
                        continue
                    seen[code] = cand
    out = list(seen.values())
    report = EnumerationReport(
        count=len(out),
        log_l_count=math.log(len(out), l) if len(out) and l > 1 else 0.0,
        shape_bound_exponent=4 * C,
    )
    return out, report


def restrict_boundary(diagram: Diagram, labels: dict[int, str]) -> Diagram:
    """Copy of the diagram with restrictions placed by boundary-walk position.

    `labels` maps positions along the (single) boundary walk to letters; the
    letter constrains the word as read in the owning face's direction.
    """
    walks = boundary_walks(diagram)
    if len(walks) != 1:
        raise PreconditionError("restriction patterns need a single boundary walk")
    walk = walks[0]
    restrictions = dict(diagram.restrictions)
    for pos, letter in labels.items():
        e, _direction = walk[pos % len(walk)]
        restrictions[e] = letter
    return Diagram(
        vertices=diagram.vertices,
        edges=diagram.edges,
        faces=diagram.faces,
        restrictions=restrictions,
    )


# ---------------------------------------------------------------------------
# JSON / CSV
# ---------------------------------------------------------------------------


def diagram_record(diagram: Diagram) -> dict:
    """The diagram as the JSON record that `diagram_to_json` writes."""
    return {
        "vertices": list(diagram.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in diagram.edges.values()],
        "faces": [
            {
                "id": fi,
                "bears": f.bears,
                "orientation": f.orientation,
                "boundary": list(f.boundary),
                "distinguished": f.distinguished,
            }
            for fi, f in enumerate(diagram.faces)
        ],
        "restrictions": [
            {"edge": e, "label": lab} for e, lab in sorted(diagram.restrictions.items())
        ],
    }


def diagram_to_json(diagram: Diagram) -> str:
    return json.dumps(diagram_record(diagram), indent=2, sort_keys=True)


def diagram_from_json(text: str) -> Diagram:
    """Load a diagram written by `diagram_to_json`; ParseError when the text
    is not JSON, lacks a field, holds a vertex, edge id, endpoint, face
    field or boundary entry that is not an integer (bools excluded), or a
    restriction label that is not a string."""
    try:
        data = json.loads(text)
        ints = [*data["vertices"]]
        for e in data["edges"]:
            ints += [e["id"], e["src"], e["dst"]]
        for f in data["faces"]:
            ints += [f["id"], f["bears"], f["orientation"], f["distinguished"], *f["boundary"]]
        for r in data.get("restrictions", []):
            ints.append(r["edge"])
            if type(r["label"]) is not str:
                raise ParseError(f"not a diagram file: restriction label {r['label']!r} is not a string")
        for v in ints:
            if type(v) is not int:
                raise ParseError(f"not a diagram file: {v!r} is not an integer")
        edges = {e["id"]: Edge(e["id"], e["src"], e["dst"]) for e in data["edges"]}
        faces = tuple(
            Face(
                bears=f["bears"],
                orientation=f["orientation"],
                boundary=tuple(f["boundary"]),
                distinguished=f["distinguished"],
            )
            for f in sorted(data["faces"], key=lambda f: f["id"])
        )
        return Diagram(
            vertices=tuple(data["vertices"]),
            edges=edges,
            faces=faces,
            restrictions={r["edge"]: r["label"] for r in data.get("restrictions", [])},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"not a diagram file: {type(e).__name__}: {e}") from e


def constraint_report_csv(report: ConstraintReport) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["position", "original_relator", "multiplicity", "E_i"])
    w.writeheader()
    for row in report.to_rows():
        w.writerow(row)
    return buf.getvalue()
