import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomgroups.bounds import exact_partial_fillability_sequence
from randomgroups.diagrams import (
    Diagram,
    Edge,
    Face,
    belonging,
    boundary_walks,
    boundary_word,
    canonical_code,
    classify_ladder,
    compile_constraints,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagrams,
    fill,
    glue_face,
    is_reduced,
    isoperimetric_check,
    restrict_boundary,
    single_face_diagram,
    validate,
)
from randomgroups.errors import DomainError, MalformedWordError, PreconditionError
from randomgroups.words import Alphabet, enumerate_cyclically_reduced, inverse_word

from tests.oracles import _filling_conditions, fill_tuples_bruteforce, verify_filling


def two_face_diagram(l, arc_len, bears=(1, 2), orientations=(1, 1), dists=(0, 0)):
    d = single_face_diagram(l, bears=bears[0], orientation=orientations[0], distinguished=dists[0])
    return glue_face(d, 0, arc_len, bears=bears[1], orientation=orientations[1], distinguished=dists[1])


def test_validate_single_face():
    d = single_face_diagram(4)
    assert validate(d).valid


def test_validate_restriction_on_bridge_invalid():
    # a face plus a dangling bridge edge; restricting the bridge violates 4.1(4)
    d = single_face_diagram(3)
    edges = dict(d.edges)
    edges[99] = Edge(99, 0, 77)
    bad = Diagram(vertices=d.vertices + (77,), edges=edges, faces=d.faces,
                  restrictions={99: "a"})
    rep = validate(bad)
    assert not rep.valid
    assert any("not a boundary edge of any face" in v for v in rep.violations)


def test_validate_bearing_surjective():
    d = two_face_diagram(4, 1, bears=(1, 3))
    rep = validate(d)
    assert not rep.valid
    assert any("surjective" in v for v in rep.violations)


def test_validate_rejects_annulus():
    # two squares glued along two opposite edges: not contractible
    d = single_face_diagram(4)
    # second face shares edges 1 and 3, traversed oppositely
    edges = dict(d.edges)
    edges[5] = Edge(5, 1, 2)
    edges[6] = Edge(6, 3, 0)
    f2 = Face(bears=1, orientation=1, boundary=(-1, 6, -3, 5), distinguished=0)
    # boundary walk check: -1: 1->0, 6: 3->0? construct carefully instead:
    # -1 goes 1->0, then need edge 0->3: that's -4 (4 is 3->0)
    f2 = Face(bears=1, orientation=1, boundary=(-1, -4, -3, -2), distinguished=0)
    bad = Diagram(vertices=d.vertices, edges=d.edges, faces=d.faces + (f2,))
    rep = validate(bad)
    assert not rep.valid


def test_is_reduced_examples():
    # mirrored pair: same relator, opposite orientations, equal k at shared edge
    d = two_face_diagram(3, 1, bears=(1, 1), orientations=(1, -1), dists=(0, 0))
    # shared edge is k=1 of face 1 (dist 0, +1). For face 2 (boundary (-1,4,5),
    # orientation -1, dist 0) the shared edge sits at position 0 = k 1.
    assert validate(d).valid
    assert not is_reduced(d)
    # different relators: reduced
    d2 = two_face_diagram(3, 1, bears=(1, 2), orientations=(1, -1))
    assert is_reduced(d2)
    # spike: degree-1 vertex on the boundary
    d3 = single_face_diagram(4)
    edges = dict(d3.edges)
    edges[9] = Edge(9, 0, 50)
    d3 = Diagram(vertices=d3.vertices + (50,), edges=edges, faces=d3.faces)
    assert not is_reduced(d3)
    # an edge naming a missing vertex: the violation `validate` reports
    d4 = single_face_diagram(3)
    edges = dict(d4.edges)
    edges[1] = Edge(1, 77, edges[1].dst)
    d4 = Diagram(vertices=d4.vertices, edges=edges, faces=d4.faces)
    violation = validate(d4).violations[0]
    assert violation == "edge 1 references missing vertices"
    with pytest.raises(PreconditionError, match=violation):
        is_reduced(d4)


def test_belonging_two_faces():
    d = two_face_diagram(4, 1, bears=(1, 2))
    rep = belonging(d)
    assert rep.d_c == 1
    shared = next(iter(d.internal_edges()))
    owner = rep.belongs[shared]
    assert d.faces[owner].bears == 2
    assert rep.internal_count == 1 and rep.restricted_count == 0


def test_belonging_single_face_restrictions():
    d = single_face_diagram(4)
    d = restrict_boundary(d, {0: "a", 1: "b", 2: "B"})
    rep = belonging(d)
    assert rep.d_c == 3
    assert rep.internal_count == 0 and rep.restricted_count == 3


def test_belonging_identity_enumerated():
    for l in (3, 4):
        diagrams, _ = enumerate_diagrams(2, l)
        rng = random.Random(l)
        for d in diagrams:
            rep = belonging(d)
            assert rep.d_c == rep.internal_count + rep.restricted_count
            assert l * rep.face_count <= rep.boundary_count + 2 * rep.internal_count
            # and again with a random restriction pattern
            walk = boundary_walks(d)[0]
            pat = {
                i: "aAbB"[rng.randrange(4)]
                for i in rng.sample(range(len(walk)), min(3, len(walk)))
            }
            rd = restrict_boundary(d, pat)
            rep2 = belonging(rd)
            assert rep2.d_c == rep2.internal_count + rep2.restricted_count


def test_tie_edges_flagged_and_unfillable():
    # two faces bearing the same relator, same orientation, aligned so the
    # shared edge has equal k: k1 = k2 = 1 with both distinguished at the arc
    d = two_face_diagram(3, 1, bears=(1, 1), orientations=(1, 1), dists=(0, 0))
    # face 2 boundary (-1, 4, 5): position of the shared edge is 0, so k=1
    # equals face 1's k=1: a tie
    rep = belonging(d)
    assert rep.never_fillable and rep.tie_edges
    assert rep.d_c == rep.internal_count + rep.restricted_count  # still exact
    words = enumerate_cyclically_reduced(2, 3)
    assert fill(d, words, mode="all", distinct=False) == []
    assert fill_tuples_bruteforce(d, words, distinct=False) == []


@pytest.mark.parametrize("l", [3, 4])
def test_compiled_never_fillable_matches_belonging(l):
    ab = Alphabet(2)
    rng = random.Random(31 + l)
    diagrams, _ = enumerate_diagrams(2, l)
    if l == 3:
        diagrams.append(two_face_diagram(3, 1, bears=(1, 1), orientations=(1, 1), dists=(0, 0)))
    seen = set()
    for d in diagrams:
        walk = boundary_walks(d)[0]
        pat = {i: "aAbB"[rng.randrange(4)] for i in rng.sample(range(len(walk)), 2)}
        for dd in (d, restrict_boundary(d, pat)):
            tie = belonging(dd).never_fillable
            assert compile_constraints(dd, ab).never_fillable == tie
            seen.add(tie)
    assert seen == {True, False}


@pytest.mark.parametrize("C, l", [(1, 3), (2, 3), (2, 4), (3, 3)])
def test_compiled_conditions_match_the_oracle(C, l):
    # as sets, 0-based, each shared edge with its ends in (i, k) order
    ab = Alphabet(2)
    rng = random.Random(19 * C + l)
    for d in enumerate_diagrams(C, l)[0][:60]:
        walk = boundary_walks(d)[0]
        pat = {i: rng.choice(ab.letters) for i in rng.sample(range(len(walk)), rng.randint(0, 3))}
        rd = restrict_boundary(d, pat)
        cons = compile_constraints(rd, ab)
        pairs, letters = _filling_conditions(rd, ab, rd.n)
        assert {(i - 1, k - 1, code) for i, ks in cons.unary.items() for k, code in ks} == \
            set(letters)
        compiled = {(i - 1, k1 - 1, i - 1, k2 - 1, flip)
                    for i, ks in cons.same.items() for k1, k2, flip in ks}
        compiled |= {(i1 - 1, k1 - 1, i2 - 1, k2 - 1, flip)
                     for i2, ks in cons.cross.items() for i1, k1, k2, flip in ks}
        assert compiled == {(*min(a[:2], a[2:4]), *max(a[:2], a[2:4]), a[4]) for a in pairs}


def test_invalid_diagram_message_names_the_violation():
    d = single_face_diagram(3)
    edges = dict(d.edges)
    edges[1] = Edge(1, 77, edges[1].dst)
    dangling = Diagram(vertices=d.vertices, edges=edges, faces=d.faces)
    # the face names edge 2, which the diagram lacks
    missing = Diagram(vertices=d.vertices, edges={1: d.edges[1], 3: d.edges[3]}, faces=d.faces)
    dens, eps = Fraction(1, 4), Fraction(1, 10)
    for bad in (dangling, missing):
        violation = validate(bad).violations[0]
        for reads in (belonging, lambda x: compile_constraints(x, Alphabet(2)),
                      lambda x: fill(x, ["abA"]), lambda x: boundary_word(x, ["abA"]),
                      lambda x: isoperimetric_check(x, ["abA"], dens, eps),
                      lambda x: isoperimetric_check(x, None, dens, eps)):
            with pytest.raises(PreconditionError, match=f"^the diagram is not valid: {violation}$"):
                reads(bad)


@pytest.mark.parametrize("bears", [-3, 0])
def test_filled_reads_validate_bearings_first(bears):
    # a bearing below 1 beside a face bearing 1: the filling's shape check
    # must not index the filling with it before the diagram is validated
    d = glue_face(single_face_diagram(3), 0, 1, bears=1)
    bad = Diagram(vertices=d.vertices, edges=d.edges,
                  faces=[d.faces[0], replace(d.faces[1], bears=bears)])
    violation = re.escape(validate(bad).violations[0])
    for reads in (lambda: boundary_word(bad, ["abA"]),
                  lambda: isoperimetric_check(bad, ["abA"], Fraction(1, 4), Fraction(1, 10))):
        with pytest.raises(PreconditionError, match=f"^the diagram is not valid: {violation}$"):
            reads()


def _gate_verdict(d, tup):
    """True or False as `boundary_word` and `isoperimetric_check` accept or
    refuse the filling `tup`, or the class of any other exception; both
    must agree."""
    verdicts = []
    for gate in (lambda: boundary_word(d, tup),
                 lambda: isoperimetric_check(d, tup, Fraction(1, 4), Fraction(1, 10))):
        try:
            gate()
            verdicts.append(True)
        except Exception as e:
            refused = type(e) is PreconditionError and \
                str(e) == "the given words do not fill the diagram"
            verdicts.append(False if refused else type(e))
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


def _oracle_verdict(d, tup):
    try:
        return verify_filling(d, tup)
    except Exception as e:
        return type(e)


# a non-reduced mirrored pair: its tie edge is read oppositely by its faces
MIRRORED_TIE = glue_face(single_face_diagram(3), 0, 1, bears=1, orientation=-1)


def test_filling_gate_matches_the_oracle():
    # random restrictions, sometimes with letters beyond the words' alphabet,
    # fed random word tuples and the fillings `fill` finds
    rng = random.Random(2027)
    diagrams = [d for C, l in ((1, 3), (2, 3), (2, 4)) for d in enumerate_diagrams(C, l)[0]]
    seen = set()
    for d in diagrams + [MIRRORED_TIE] * 10:
        l = max(d.face_sizes)
        allwords = enumerate_cyclically_reduced(2, l)
        walk = boundary_walks(d)[0]
        letters = "aAbBcC" if rng.random() < 0.2 else "aAbB"
        pat = {i: rng.choice(letters)
               for i in rng.sample(range(len(walk)), rng.randint(0, min(3, len(walk))))}
        rd = restrict_boundary(d, pat)
        tuples = [tuple(rng.choice(allwords) for _ in range(rd.n)) for _ in range(8)]
        if set(pat.values()) <= set("aAbB"):
            tuples += fill(rd, rng.sample(allwords, 12), mode="all", distinct=False)[:4]
        for tup in tuples:
            verdict = _oracle_verdict(rd, tup)
            assert _gate_verdict(rd, tup) == verdict, (rd, tup)
            seen.add(verdict)
    assert seen == {True, False, MalformedWordError}


def test_mirrored_tie_is_fills_convention_not_the_oracles():
    # `fill` counts a tie as never fillable; the conditions themselves, read
    # by the oracle and the gate, hold for every word here
    d = MIRRORED_TIE
    words = enumerate_cyclically_reduced(2, 3)
    assert not is_reduced(d) and belonging(d).tie_edges
    assert fill(d, words, mode="count", distinct=False) == 0
    assert len(words) == 28 and all(verify_filling(d, (w,)) for w in words)
    assert boundary_word(d, ["abA"]) == ("aBbA", "1")


def test_fill_single_bigon():
    # single 2-gon face, relator "ab"
    d = single_face_diagram(2)
    got = fill(d, ["ab"], mode="all", distinct=True)
    assert got == [("ab",)]
    assert verify_filling(d, ("ab",))


def test_fill_restricted_matches_direct_scan():
    words = enumerate_cyclically_reduced(2, 3)
    for k in range(3):
        d = restrict_boundary(single_face_diagram(3), {k: "a"})
        got = {t[0] for t in fill(d, words, mode="all", distinct=False)}
        # direct scan oracle: the k-th letter (1-based k = position+1 here,
        # distinguished 0, orientation +1) must be 'a'
        walk = boundary_walks(d)[0]
        expect = {w for w in words if w[k] == "a"}
        assert got == expect
        assert fill(d, words, mode="count", distinct=False) == len(expect)
        first = fill(d, words, mode="first", distinct=False)
        assert first is not None and first[0] in expect


def test_fill_oracle_equivalence_small():
    rng = random.Random(17)
    for l in (3, 4):
        allwords = enumerate_cyclically_reduced(2, l)
        diagrams, _ = enumerate_diagrams(2, l)
        sample = rng.sample(diagrams, min(12, len(diagrams)))
        for d in sample:
            walk = boundary_walks(d)[0]
            pat = {
                i: "aAbB"[rng.randrange(4)]
                for i in rng.sample(range(len(walk)), min(2, len(walk)))
            }
            rd = restrict_boundary(d, pat)
            words = rng.sample(allwords, 10)
            for distinct in (True, False):
                got = set(fill(rd, words, mode="all", distinct=distinct))
                want = set(fill_tuples_bruteforce(rd, words, distinct=distinct))
                assert got == want


def test_fill_distinct_compares_word_content():
    # a sampled presentation may draw one word twice: two rows with the same
    # word are not distinct relators
    rng = random.Random(34)
    allwords = enumerate_cyclically_reduced(2, 3)
    diagrams, _ = enumerate_diagrams(2, 3)
    two_index = [d for d in diagrams if d.n == 2]
    for d in two_index[::10] + [glue_face(d, 0, 1, bears=3) for d in two_index[::30]]:
        words = rng.sample(allwords, 5)
        words += words[:3]
        want = sorted(fill_tuples_bruteforce(d, words, distinct=True))
        assert sorted(fill(d, words, mode="all", distinct=True)) == want
        assert fill(d, words, mode="count", distinct=True) == len(want)
        assert all(len(set(t)) == len(t) for t in want)


def test_fill_returns_words_in_every_mode():
    d = restrict_boundary(glue_face(single_face_diagram(3), 0, 1, bears=2), {0: "a"})
    words = enumerate_cyclically_reduced(2, 3)
    every = fill(d, words, mode="all")
    assert every and all(isinstance(w, str) and w in words for t in every for w in t)
    assert fill(d, words, mode="first") == every[0]
    assert fill(d, words, mode="count") == len(every)


def test_every_fill_verifies():
    rng = random.Random(23)
    allwords = enumerate_cyclically_reduced(2, 4)
    diagrams, _ = enumerate_diagrams(2, 4)
    for d in rng.sample(diagrams, 10):
        words = rng.sample(allwords, 15)
        for tup in fill(d, words, mode="all", distinct=True):
            assert verify_filling(d, tup)


def test_vectorized_count_matches_bruteforce():
    rng = random.Random(7)
    ab = Alphabet(2)
    allwords = enumerate_cyclically_reduced(2, 3)
    N = len(allwords)
    diagrams, _ = enumerate_diagrams(2, 3)
    for d in rng.sample(diagrams, 10):
        walk = boundary_walks(d)[0]
        pat = {i: "aAbB"[rng.randrange(4)] for i in rng.sample(range(len(walk)), 2)}
        rd = restrict_boundary(d, pat)
        rep = belonging(rd)
        ps = exact_partial_fillability_sequence(rd, 2, 3)
        for upto in range(1, rd.n + 1):
            want = sum(
                1
                for tup in itertools.product(allwords, repeat=upto)
                if verify_filling(
                    _relabeled(rd, rep.order), tup, ab, upto=upto
                )
            )
            assert ps[upto - 1] * N**upto == want


def _relabeled(diagram, order):
    """Relabel bearing indices so order[i] becomes i+1 (test helper)."""
    rank = {orig: pos + 1 for pos, orig in enumerate(order)}
    faces = tuple(
        Face(bears=rank[f.bears], orientation=f.orientation,
             boundary=f.boundary, distinguished=f.distinguished)
        for f in diagram.faces
    )
    return Diagram(vertices=diagram.vertices, edges=diagram.edges, faces=faces,
                   restrictions=dict(diagram.restrictions))


def test_boundary_word_single_face():
    w = "abA"
    d = single_face_diagram(3)
    word, reduced = boundary_word(d, [w])
    rotations = {w[i:] + w[:i] for i in range(3)}
    assert word in rotations
    # orientation -1 reads the inverse word
    d2 = single_face_diagram(3, orientation=-1)
    word2, _ = boundary_word(d2, [w])
    wi = inverse_word(w)
    assert word2 in {wi[i:] + wi[:i] for i in range(3)}


def test_boundary_word_two_faces_hand_checked():
    d = two_face_diagram(3, 1, bears=(1, 2))
    w1, w2 = "abA", "AbA"
    assert verify_filling(d, (w1, w2))
    word, reduced = boundary_word(d, (w1, w2))
    assert word == "bAbA"
    assert reduced == "bAbA"


def test_boundary_word_requires_filling():
    d = two_face_diagram(3, 1, bears=(1, 2))
    with pytest.raises(PreconditionError):
        boundary_word(d, ("abA", "abA"))


@pytest.mark.parametrize("d, filling", [
    (single_face_diagram(3), ["ab"]),
    (single_face_diagram(3), ["abAB"]),
    (single_face_diagram(3), ["abA", "abA"]),
    (two_face_diagram(3, 1, bears=(1, 2)), ["abA"]),
    (two_face_diagram(3, 1, bears=(1, 2)), ["abA", "AbAb"]),
])
def test_filling_of_the_wrong_shape_refused(d, filling):
    with pytest.raises(PreconditionError, match="one per bearing index"):
        boundary_word(d, filling)
    with pytest.raises(PreconditionError, match="one per bearing index"):
        isoperimetric_check(d, filling, Fraction(1, 4), Fraction(1, 10))


def test_isoperimetric_examples():
    d = single_face_diagram(6)
    ratio, passes = isoperimetric_check(d, ["ababab"[:6]], Fraction(1, 4), Fraction(1, 100))
    assert ratio == 1 and passes
    for j in (1, 2):
        d2 = two_face_diagram(4, j)
        ratio2, _ = isoperimetric_check(d2, None, Fraction(1, 4), Fraction(1, 100))
        assert ratio2 == Fraction(2 * 4 - 2 * j, 2 * 4)
    # planted violation: threshold impossible to meet with epsilon tiny and d=0
    d3 = two_face_diagram(4, 3)
    ratio3, ok3 = isoperimetric_check(d3, None, Fraction(0), Fraction(1, 1000))
    assert ratio3 == Fraction(2, 8) and not ok3


def test_ladder_examples():
    # single 2-cell: a ladder from one boundary arc to the opposite one
    d = single_face_diagram(4)
    v = classify_ladder(d, [0, 1], [2, 3])
    assert v.is_ladder and len(v.cell_sequence) == 1 and v.reason == ""
    # chain of 3 cells sharing only consecutive arcs
    d3 = single_face_diagram(4)
    d3 = glue_face(d3, 0, 1, bears=1)
    walk = boundary_walks(d3)[0]
    # glue the third face onto a fresh edge of face 2 avoiding face 1 entirely
    f1_verts = _vertices_of_face(d3, 0)
    idx = next(
        i
        for i, (e, direction) in enumerate(walk)
        if e >= 5
        and not ({d3.edges[e].src, d3.edges[e].dst} & f1_verts)
    )
    d3 = glue_face(d3, idx, 1, bears=1)
    faces_meet = [
        _vertices_of_face(d3, i) for i in range(3)
    ]
    assert not (faces_meet[0] & faces_meet[2])
    b1 = sorted(faces_meet[0] - faces_meet[1])[:2]
    b2 = sorted(faces_meet[2] - faces_meet[1])[:2]
    v3 = classify_ladder(d3, b1, b2)
    assert v3.is_ladder and len(v3.cell_sequence) == 3 and v3.reason == ""
    # beta1 may not reach the second cell
    seam = sorted(faces_meet[0] & faces_meet[1])[:1]
    assert classify_ladder(d3, b1 + seam, b2).reason == "beta1 meets R_2"
    # triangle of three mutually touching cells is not a ladder
    dt = single_face_diagram(4)
    dt = glue_face(dt, 0, 1, bears=1)
    dt = glue_face(dt, 0, 1, bears=1)  # touches both earlier faces at vertex 0
    fm = [_vertices_of_face(dt, i) for i in range(3)]
    if fm[0] & fm[2]:
        b1 = sorted(fm[0] - fm[1] - fm[2])[:1]
        b2 = sorted(fm[2] - fm[1] - fm[0])[:1]
        if b1 and b2:
            vt = classify_ladder(dt, b1, b2)
            assert not vt.is_ladder and vt.reason == "cell intersection graph is not a path"


def _vertices_of_face(d, fi):
    verts = set()
    for se in d.faces[fi].boundary:
        e = d.edges[abs(se)]
        verts.update((e.src, e.dst))
    return verts


def test_enumerate_single_face_count():
    # the only data surviving the canonical quotient on a plain l-gon is the
    # orientation flag: rotations identify all distinguished positions
    for l in (3, 4, 5):
        out, report = enumerate_diagrams(1, l)
        assert report.count == len(out) == 2
        codes = set()
        for orient in (1, -1):
            for dist in range(l):
                codes.add(canonical_code(single_face_diagram(l, orientation=orient, distinguished=dist)))
        assert len(codes) == 2


def test_enumerate_two_faces_l3_arcs():
    out, _ = enumerate_diagrams(2, 3)
    two_face = [d for d in out if len(d.faces) == 2]
    assert two_face
    for d in two_face:
        internal = d.internal_edges()
        assert len(internal) in (1, 2)
        # the shared arc is connected: its edges form a path
        verts = {}
        for e in internal:
            ed = d.edges[e]
            for v in (ed.src, ed.dst):
                verts[v] = verts.get(v, 0) + 1
        if len(internal) == 2:
            assert sorted(verts.values()) == [1, 1, 2]


def test_enumerate_outputs_valid_reduced_distinct():
    out, _ = enumerate_diagrams(2, 4)
    codes = set()
    for d in out:
        assert validate(d).valid
        assert is_reduced(d)
        code = canonical_code(d)
        assert code not in codes
        codes.add(code)


def test_enumerate_budget_guard():
    from randomgroups.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        enumerate_diagrams(3, 12)
    with pytest.raises(DomainError):
        enumerate_diagrams(4, 4)


def test_json_round_trip():
    d = restrict_boundary(two_face_diagram(4, 2), {0: "a", 3: "B"})
    text = diagram_to_json(d)
    d2 = diagram_from_json(text)
    assert canonical_code(d2) == canonical_code(d)
    assert diagram_to_json(d2) == text


_ROUND_TRIP_DIAGRAMS = [d for C in (1, 2) for l in (3, 4) for d in enumerate_diagrams(C, l)[0]]


@given(
    st.sampled_from(_ROUND_TRIP_DIAGRAMS),
    st.dictionaries(st.integers(0, 12), st.sampled_from(Alphabet(2).letters), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_json_round_trip_enumerated(d, pattern):
    # enumerated diagrams at l = 3 and 4, with and without boundary patterns
    if pattern:
        d = restrict_boundary(d, pattern)
    assert diagram_from_json(diagram_to_json(d)) == d
