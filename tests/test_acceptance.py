"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Two criteria (8 and 9) pin desk-scale parameters that are provably
unattainable (counting arguments recorded in the project decision notes):
strict small cancellation C'(1/6) cannot hold at (m=2, l=12) because the 24
rotation/inversion digram slots outnumber the 12 reduced digrams, and the
(m=2, l=16, d=1/16) round-tree host both fails C'(1/6) the same way (96
trigram slots vs 36 trigrams) and offers 3 relators' worth of windows
against 12-letter bracket labels.  Those two tests run faithfully as stated,
fail, and are marked xfail(strict=True); the machinery they were meant to
exercise is verified at the nearest feasible parameters in the companion
tests directly below each.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from randomgroups.bounds import (
    emanating_bound,
    exact_partial_fillability_sequence,
    inductive_fill_bounds,
    mc_fillability,
    rule_out_bound,
    transfer_params,
)
from randomgroups.cayley import (
    cayley_ball,
    cprime_genericity_scan,
    dehn_reduce,
    is_dehn_ready,
)
from randomgroups.diagrams import (
    belonging,
    boundary_walks,
    enumerate_diagrams,
    fill,
    glue_face,
    restrict_boundary,
    single_face_diagram,
)
from randomgroups.model import _relator_codes, sample_presentation
from randomgroups.roundtree import (
    RoundTreeParams,
    check_round_tree_axioms,
    enumerate_emanating,
    init_round_tree,
)
from randomgroups.words import (
    Alphabet,
    enumerate_cyclically_reduced,
    max_piece_length,
    rivin_count,
    sample_cyclically_reduced,
)

from tests.conftest import TREE_DEMO
from tests.oracles import fill_tuples_bruteforce, max_piece_length_quadratic


class _Criterion:
    def __init__(self, number, text):
        self.number = number
        self.text = text
        self.t0 = time.time()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        if exc_type is None:
            print(f"CRITERION {self.number}: PASS — {self.text} ({dt:.1f}s)")
        else:
            print(f"CRITERION {self.number}: FAIL — {self.text}: {exc} ({dt:.1f}s)")
        return False

    def check_runtime(self, seconds):
        elapsed = time.time() - self.t0
        assert elapsed < seconds, f"runtime {elapsed:.1f}s over the {seconds}s budget"


def test_criterion_1_rivin_exactness():
    with _Criterion(1, "Rivin count equals exhaustive enumeration") as c:
        for m in (2, 3):
            for l in range(1, 9):
                assert len(enumerate_cyclically_reduced(m, l)) == rivin_count(m, l)
        c.check_runtime(30)


def test_criterion_2_sampler_uniformity():
    from scipy import stats

    with _Criterion(2, "sampler uniform over the 28 words at (2,3), 1e5 draws") as c:
        allwords = enumerate_cyclically_reduced(2, 3)
        idx = {w: i for i, w in enumerate(allwords)}
        ab = Alphabet(2)
        # relators 0 .. 1e5-1 of seed 20240810, from the batch streams that
        # presentations use
        batch = _relator_codes(2, 3, 20240810, np.arange(100_000))
        counts = np.zeros(len(allwords))
        seen = set()
        for row in batch:
            w = ab.decode(int(x) for x in row)
            counts[idx[w]] += 1
            seen.add(w)
        assert stats.chisquare(counts).pvalue > 1e-3
        assert seen == set(allwords)  # support matches enumeration exactly
        # the one-at-a-time sampler draws from the same support
        rng2 = np.random.default_rng(7)
        for _ in range(200):
            assert sample_cyclically_reduced(2, 3, rng2) in idx
        c.check_runtime(10)


def test_criterion_3_piece_oracle_equivalence():
    import random

    with _Criterion(3, "sorted-window piece lengths equal the quadratic oracle, 200 sets") as c:
        rng = random.Random(33)
        ab = Alphabet(2)
        for _ in range(200):
            l = rng.randint(2, 12)
            rels = []
            while len(rels) < rng.randint(1, 5):
                w = [rng.randrange(4)]
                while len(w) < l:
                    x = rng.randrange(3)
                    w.append(x if x < (w[-1] ^ 1) else x + 1)
                if l == 1 or w[-1] != (w[0] ^ 1):
                    rels.append(ab.decode(w))
            assert max_piece_length(rels).max_piece_length == max_piece_length_quadratic(rels)
        c.check_runtime(30)


def _pattern_catalogue(diagram, count, seed):
    """Deterministic restriction patterns over the diagram's boundary walk."""
    import random

    rng = random.Random(seed)
    walk = boundary_walks(diagram)[0]
    out = []
    for _ in range(count):
        k = rng.randint(1, min(3, len(walk)))
        pat = {pos: "aAbB"[rng.randrange(4)] for pos in rng.sample(range(len(walk)), k)}
        out.append(pat)
    return out


def test_criterion_4_degree_of_constraint_identity():
    with _Criterion(4, "d_c = |I| + |r^-1(1)| and l|X| <= |dX| + 2|I|, all |X|<=2, l in {3,4}") as c:
        for l in (3, 4):
            diagrams, _ = enumerate_diagrams(2, l)
            for d in diagrams:
                for pat in [{}] + _pattern_catalogue(d, 3, seed=l * 1000 + d.n):
                    rd = restrict_boundary(d, pat) if pat else d
                    rep = belonging(rd)
                    assert rep.d_c == rep.internal_count + rep.restricted_count
                    assert l * rep.face_count <= rep.boundary_count + 2 * rep.internal_count
        c.check_runtime(120)


def test_criterion_5_inductive_filling_domination():
    with _Criterion(5, "exact p_i <= 2m(2m-1)^(-E_i) p_{i-1} over the l=4 catalogue") as c:
        diagrams, _ = enumerate_diagrams(2, 4)
        checked = 0
        for di, d in enumerate(diagrams):
            for pat in _pattern_catalogue(d, 20, seed=54_000 + di):
                rd = restrict_boundary(d, pat)
                ps = exact_partial_fillability_sequence(rd, 2, 4)
                bnds = inductive_fill_bounds(belonging(rd), 2, 4, Fraction(1, 4))
                prev = Fraction(1)
                for p_i, b in zip(ps, bnds):
                    assert p_i <= Fraction(4) * Fraction(1, 3) ** b.E_i * prev
                    prev = p_i
                checked += 1
            if di >= 25:  # 26 diagrams x 20 patterns >= 500 instances
                break
        assert checked >= 20 * 20
        c.check_runtime(300)


def _ruleout_catalogue(l):
    """Restricted diagrams satisfying the half-boundary hypothesis 2|r^-1(1)| >= |dX|."""
    out = []
    letters = "abAB"
    for shift in range(3):
        pat = {i: letters[(i + shift) % 4] for i in range(l // 2)}
        out.append(restrict_boundary(single_face_diagram(l), pat))
    two = glue_face(single_face_diagram(l), 0, 2, bears=2)
    walk_len = len(boundary_walks(two)[0])
    need = -(-walk_len // 2)
    for shift in range(3):
        pat = {i: letters[(i + shift) % 4] for i in range(need)}
        out.append(restrict_boundary(two, pat))
    return out


def test_criterion_6_rule_out_bound_mc():
    with _Criterion(6, "MC fillability <= rule-out bound + 3 binomial SE at d=1/4") as c:
        trials = 10_000
        total = 0
        for l in (6, 8):
            bound_val = min(1.0, 3.0 ** rule_out_bound(2, l, Fraction(1, 4)).value_log)
            by_hand = min(1.0, 4.0 * 3.0 ** float((Fraction(1, 4) - Fraction(1, 2)) * l))
            assert math.isclose(bound_val, by_hand)
            for d in _ruleout_catalogue(l):
                rep = belonging(d)
                assert 2 * rep.restricted_count >= rep.boundary_count  # hypothesis
                fp = mc_fillability(d, 2, l, Fraction(1, 4), trials=trials, seed=606 + l)
                se = math.sqrt(max(fp.estimate * (1 - fp.estimate), 1e-12) / trials)
                assert fp.estimate <= bound_val + 3 * se, (
                    f"estimate {fp.estimate} exceeds bound {bound_val} + 3se"
                )
                total += 1
        assert total >= 10
        c.check_runtime(600)


def test_criterion_7_filler_oracle_equivalence():
    with _Criterion(7, "fill(mode=all) equals brute-force tuple filtering, l <= 4") as c:
        for l in (2, 3, 4):
            words = enumerate_cyclically_reduced(2, l)
            diagrams, _ = enumerate_diagrams(2, l)
            for di, d in enumerate(diagrams):
                pats = [{}] if l == 4 and di % 3 else [{}]
                pats += _pattern_catalogue(d, 1, seed=77_000 + di)
                for pat in pats:
                    rd = restrict_boundary(d, pat) if pat else d
                    got = set(fill(rd, words, mode="all", distinct=False))
                    want = set(fill_tuples_bruteforce(rd, words, distinct=False))
                    assert got == want
        c.check_runtime(600)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: strict C'(1/6) is impossible at (m=2, l=12) — the 24 "
    "digram slots among rotations and inversions outnumber the 12 reduced "
    "digrams, forcing a piece of length 2 = l/6 in every presentation; see "
    "the decisions ledger and the companion test below",
)
def test_criterion_8_dehn_bfs_agreement_as_stated():
    with _Criterion(8, "Dehn/BFS agreement at the stated (m=2, l=12, d=1/20)"):
        verified = None
        for seed in range(20):
            p = sample_presentation(2, 12, Fraction(1, 20), seed=seed)
            if is_dehn_ready(p):
                verified = p
                break
            rep = max_piece_length(list(p.relators))
            print(f"  seed {seed}: max piece {rep.max_piece_length} >= 12/6, not C'(1/6)")
        assert verified is not None, "no seed yields a C'(1/6)-verified presentation"


def test_criterion_8_companion_dehn_bfs_agreement(verified_presentation):
    import random

    with _Criterion(
        8, "companion: Dehn/BFS agreement on a sampled C'(1/6) presentation (m=3, l=12)"
    ) as c:
        p = verified_presentation
        radius = 7
        ball = cayley_ball(p, radius)
        rng = random.Random(99)
        ab = p.alphabet
        for _ in range(500):
            n = rng.randint(1, radius)
            w = [rng.randrange(ab.size)]
            while len(w) < n:
                x = rng.randrange(ab.size - 1)
                w.append(x if x < (w[-1] ^ 1) else x + 1)
            word = ab.decode(w)
            vid = ball.vertex_of_word(word)
            assert (dehn_reduce(word, p) == "1") == (vid == 0)
        # free-ball property: a tree strictly below half the relator length
        small = cayley_ball(p, p.l // 2 - 1)
        undirected = int((small.adjacency >= 0).sum()) // 2
        assert undirected == len(small.words) - 1
        c.check_runtime(120)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the stated host (m=2, l=16, d=1/16) can never verify "
    "C'(1/6) (96 trigram slots vs 36 reduced trigrams force a piece of length "
    "3 > 16/6) and its 3 relators offer ~96 windows against 12-letter bracket "
    "labels (~4·3^11 possibilities), so bracket filling fails for every seed; "
    "see the decisions ledger and the companion test below",
)
def test_criterion_9_round_tree_as_stated():
    with _Criterion(9, "3-level round tree at the stated toy parameters"):
        params = RoundTreeParams(V=2, H=4, ext_offset=2, ext_len=2)
        built = None
        for seed in range(20):
            host = sample_presentation(2, 16, Fraction(1, 16), seed=seed)
            try:
                tree = init_round_tree(host, params)
                for _ in range(3):
                    tree.grow_level()
                built = tree
                break
            except Exception as e:
                print(f"  seed {seed}: obstructed — {type(e).__name__}: {e}")
        assert built is not None, "no seed builds at the stated parameters"


def test_criterion_9_companion_round_tree(demo_tree):
    import copy

    from randomgroups.roundtree import Cell, extension_words

    with _Criterion(
        9,
        "companion: 3-level tree at feasible parameters "
        f"(m={TREE_DEMO['m']}, l={TREE_DEMO['l']}, d={TREE_DEMO['d']}, "
        f"V={TREE_DEMO['V']}, H={TREE_DEMO['H']}) with axiom checks and detectors",
    ) as c:
        tree = demo_tree
        rep = check_round_tree_axioms(tree)
        assert rep.all_pass, rep.witnesses
        ew = extension_words(tree)
        assert all(len(v) <= 2 * tree.params.V for v in ew.per_vertex.values())
        # detector 1: equal-label brackets with different boundary words
        t1 = copy.deepcopy(tree)
        b1 = t1.brackets[0]
        b2 = next(b for b in t1.brackets if t1.cells[b.cell].word != t1.cells[b1.cell].word)
        b2.label = b1.label
        assert not check_round_tree_axioms(t1).passes["bracket-consistency"]
        # detector 2: a cell adjacent to more than V*H next-level cells
        t2 = copy.deepcopy(tree)
        template = next(cc for cc in t2.cells if cc.level == 1)
        for _ in range(t2.params.V * t2.params.H + 1):
            t2.cells.append(Cell(id=len(t2.cells), level=1, sector=template.sector,
                                 steps=template.steps, word=template.word))
        assert not check_round_tree_axioms(t2).passes["branching-VH"]
        # detector 3: a second initial cell at the base
        t3 = copy.deepcopy(tree)
        c0 = t3.cells[0]
        t3.cells.append(Cell(id=len(t3.cells), level=0, sector=(), steps=c0.steps,
                             word=c0.word))
        assert not check_round_tree_axioms(t3).passes["initial-cell-unique"]
        c.check_runtime(300)


def test_criterion_10_emanating_domination(demo_tree):
    with _Criterion(10, "log|E_k| <= emanating bound for all built depths") as c:
        tree = demo_tree
        base = 2 * tree.host.m - 1
        depth = max(tree.distances_from_base())
        for k in range(1, depth + 1):
            es = enumerate_emanating(tree, k)
            bound = emanating_bound(
                k, tree.host.m, tree.host.l, tree.host.density,
                tree.params.beta, tree.params.H, Fraction(1, 10),
            )
            lhs = math.log(max(1, len(es.words)), base)
            assert lhs <= bound.value_log + 1e-9
        c.check_runtime(120)


def test_criterion_11_transfer_parameters():
    with _Criterion(11, "transfer parameters: d_s < 1/18 and H > 2/d_s on a 50-point grid") as c:
        lo, hi = Fraction(1, 8), Fraction(1, 2)
        for i in range(50):
            d_t = lo + (hi - lo) * Fraction(i, 50)
            tp = transfer_params(d_t)
            assert tp.d_s < Fraction(1, 18)
            assert tp.H > 2 / tp.d_s
        c.check_runtime(30)


def test_criterion_12_directional_genericity():
    with _Criterion(12, "P(C'(1/3)) at d=0.05 strictly exceeds d=0.30 (m=2, l=24)") as c:
        rep = cprime_genericity_scan(
            2, 24, Fraction(1, 3),
            [Fraction(5, 100), Fraction(30, 100)],
            trials=200, seed=12,
        )
        lo_cell, hi_cell = rep.cells
        assert lo_cell.passes > hi_cell.passes
        c.check_runtime(300)


def test_criterion_13_determinism(tmp_path):
    import json

    from randomgroups.cli import main

    with _Criterion(13, "byte-identical reruns for every sampling command") as c:
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["sample", "--m", "2", "--l", "10", "--d", "1/5",
                         "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for out in (s1, s2):
            assert main(["cprime-scan", "--m", "2", "--l", "8", "--lam", "1/3",
                         "--d-grid", "0/1,1/4", "--trials", "20", "--seed", "5",
                         "--out", str(out)]) == 0
        pa, pb = json.loads(s1.read_text()), json.loads(s2.read_text())
        pa.pop("timestamp"), pb.pop("timestamp")
        assert pa == pb
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        dfile = tmp_path / "d.json"
        from randomgroups.diagrams import diagram_to_json

        dfile.write_text(diagram_to_json(
            restrict_boundary(single_face_diagram(4), {0: "a", 1: "b"})
        ))
        for out in (m1, m2):
            assert main(["fillprob-mc", "--diagram", str(dfile), "--m", "2",
                         "--l", "4", "--d", "1/4", "--trials", "60",
                         "--seed", "3", "--out", str(out)]) == 0
        qa, qb = json.loads(m1.read_text()), json.loads(m2.read_text())
        qa.pop("timestamp"), qb.pop("timestamp")
        assert qa == qb
        c.check_runtime(120)
