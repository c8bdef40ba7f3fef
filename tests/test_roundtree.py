import copy
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from randomgroups.bounds import emanating_bound
from randomgroups.cayley import is_dehn_ready
from randomgroups.errors import (
    BracketUnfillableError,
    ConstructionObstructedError,
    DomainError,
    ParseError,
    PreconditionError,
)
from randomgroups.model import Presentation, sample_presentation
from randomgroups.roundtree import (
    Cell,
    _relator_windows,
    RoundTreeParams,
    check_round_tree_axioms,
    distortion_probe,
    enumerate_emanating,
    extension_words,
    init_round_tree,
    local_geodesic_probe,
    tree_from_json,
    tree_to_json,
)
from randomgroups.words import Alphabet, inverse_word, reduce_word

from tests.conftest import TREE_DEMO, find_verified_presentation, relator_sets


def _level0_tree(p, seg=3):
    params = RoundTreeParams(V=2, H=4, ext_offset=1, ext_len=1, seg_len=seg)
    return init_round_tree(p, params)


def test_init_round_tree(verified_presentation):
    p = verified_presentation
    tree = _level0_tree(p)
    assert len(tree.cells) == 1
    assert len(tree.cells[0].steps) == p.l
    assert tree.base in tree.cells[0].vertices()
    assert tree.cells[0].word == p.relators[0]
    assert tree.levels == 0
    assert "_windows" not in vars(tree)  # the index waits for grow_level


def test_init_requires_relators():
    with pytest.raises(DomainError):
        # zero relators cannot happen through the model (count >= 1), so an
        # invalid presentation is rejected earlier
        Presentation(m=2, l=4, density=Fraction(0), relators=(), seed=0)


def test_paper_mode_refuses_fat_brackets(verified_presentation):
    with pytest.raises(DomainError):
        RoundTreeParams(V=2, H=4, ext_offset=2, ext_len=2, seg_len=4,
                        paper_mode=True).validate(16)
    # fine when the bracket budget fits under l/4
    RoundTreeParams(V=2, H=40, ext_offset=1, ext_len=2, seg_len=3,
                    paper_mode=True).validate(40)


def test_grow_contract(demo_tree):
    tree = demo_tree
    prm = tree.params
    oe = prm.ext_offset + prm.ext_len
    assert tree.levels == 3
    # every partition point spawned exactly V extension endpoints
    per_point = {}
    for rec in tree.extension_paths:
        per_point.setdefault((rec["level"], rec["u"], rec["class"]), set()).add(rec["tip"])
    assert per_point
    for tips in per_point.values():
        assert len(tips) == prm.V
    # bracket arithmetic: |B(C)| = 2(ext_offset+ext_len) + |p_i| <= 2 oe + seg
    seg = prm.segment_length(tree.host.l)
    for b in tree.brackets:
        assert b.k == oe
        assert 2 * oe + 1 <= len(b.label) <= 2 * oe + seg
    # sector counts: V^n sectors at level n
    for n in range(tree.levels + 1):
        assert sum(1 for k in tree.sectors if len(k) == n) == prm.V**n


def test_axioms_pass_on_built_tree(demo_tree):
    rep = check_round_tree_axioms(demo_tree)
    assert rep.all_pass, rep.witnesses


def test_detector_bracket_consistency(demo_tree):
    tree = copy.deepcopy(demo_tree)
    b1, b2 = None, None
    for x in tree.brackets:
        for y in tree.brackets:
            if tree.cells[x.cell].word != tree.cells[y.cell].word:
                b1, b2 = x, y
                break
        if b1:
            break
    assert b1 is not None
    b2.label = b1.label  # two equal-label brackets, different boundary words
    rep = check_round_tree_axioms(tree)
    assert not rep.passes["bracket-consistency"]
    assert any(b1.label == lab for (lab, _words) in rep.witnesses["bracket-consistency"])


def test_detector_branching_cap(demo_tree):
    tree = copy.deepcopy(demo_tree)
    cap = tree.params.V * tree.params.H
    template = next(c for c in tree.cells if c.level == 1)
    for _ in range(cap + 1):
        cid = len(tree.cells)
        tree.cells.append(Cell(id=cid, level=1, sector=template.sector,
                               steps=template.steps, word=template.word))
    rep = check_round_tree_axioms(tree)
    assert not rep.passes["branching-VH"]
    assert rep.witnesses["branching"]


def test_detector_initial_cell(demo_tree):
    tree = copy.deepcopy(demo_tree)
    c0 = tree.cells[0]
    tree.cells.append(Cell(id=len(tree.cells), level=0, sector=(),
                           steps=c0.steps, word=c0.word))
    rep = check_round_tree_axioms(tree)
    assert not rep.passes["initial-cell-unique"]


def test_extension_words_views(demo_tree):
    tree = demo_tree
    oe = tree.params.ext_offset + tree.params.ext_len
    rep = extension_words(tree)
    assert rep.k == oe
    assert all(len(w) == oe for w in rep.words)
    assert len(rep.words) <= rep.classes * tree.params.V
    with pytest.raises(DomainError):
        extension_words(tree, oe + 1)


def test_extension_tables_stable_across_levels():
    tree, failures = __import__("tests.conftest", fromlist=["build_demo_tree"]).build_demo_tree(levels=1)
    assert tree is not None, failures
    snap_off = dict(tree.offset_words)
    snap_ext = {c: list(ws) for c, ws in tree.ext_words.items()}
    tree.grow_level()
    for c, w in snap_off.items():
        assert tree.offset_words[c] == w
    for c, ws in snap_ext.items():
        for j, w in enumerate(ws):
            if w is not None:
                assert tree.ext_words[c][j] == w


def test_emanating_basics(demo_tree):
    tree = demo_tree
    e1 = enumerate_emanating(tree, 1)
    base_letters = {tree.ab.letters[x] for x in tree.out[tree.base]}
    assert e1.words <= base_letters
    assert len(e1.words) <= len(tree.out[tree.base])
    for k in range(1, 7):
        es = enumerate_emanating(tree, k)
        assert len(es.words) <= es.path_count
    with pytest.raises(DomainError):
        enumerate_emanating(tree, 10_000)


def test_emanating_dominated_by_bound(demo_tree):
    import math

    tree = demo_tree
    d = tree.host.density
    beta, eta = tree.params.beta, tree.params.eta
    H = tree.params.H
    depth = max(tree.distances_from_base())
    for k in range(1, min(depth, 8) + 1):
        es = enumerate_emanating(tree, k)
        bound = emanating_bound(k, tree.host.m, tree.host.l, d, beta, H, Fraction(1, 10))
        lhs = math.log(max(1, len(es.words)), 2 * tree.host.m - 1)
        assert lhs <= bound.value_log + 1e-9


def test_probe_level0_exact(verified_presentation):
    p = verified_presentation
    tree = _level0_tree(p)
    # pairs along the boundary cycle are emanating-path pairs: ratio exactly 1
    stats = distortion_probe(tree, p, radius=4, samples=40, seed=3)
    assert stats.certified > 0
    assert stats.max_ratio == 1.0
    # determinism
    stats2 = distortion_probe(tree, p, radius=4, samples=40, seed=3)
    assert stats2.ratios == stats.ratios
    # geodesic in the tree implies geodesic in the verified host
    path = [i for i in range(6)]
    verdict = local_geodesic_probe(tree, path, window=3, target=p)
    assert verdict.status == "pass" and verdict.exact
    v1 = local_geodesic_probe(tree, path, window=1, target=p)
    assert v1.status == "pass"


def test_probe_detects_planted_shortcut(verified_presentation):
    p = verified_presentation
    tree = _level0_tree(p)
    r = p.relators[0]
    ab = p.alphabet
    import random

    rng = random.Random(2)
    w7 = r[:7]
    from randomgroups.words import is_cyclically_reduced_word

    while True:
        x = []
        x.append(rng.randrange(6))
        while len(x) < 5:
            c = rng.randrange(5)
            x.append(c if c < (x[-1] ^ 1) else c + 1)
        x5 = ab.decode(x)
        cand = reduce_word(w7 + inverse_word(x5), ab)
        if len(cand) == 12 and is_cyclically_reduced_word(cand, ab):
            break
    target = Presentation(
        m=p.m, l=p.l, density=Fraction(1, 20), relators=(r, cand), seed=0,
        parent_fingerprint=p.fingerprint(),
    )
    assert not is_dehn_ready(target)
    path = list(range(8))  # the first 7 boundary edges spell w7
    verdict = local_geodesic_probe(tree, path, window=7, target=target,
                                   word_cap=7, node_budget=400_000)
    assert verdict.status == "violation" and not verdict.exact
    # foreign targets are rejected
    stranger = sample_presentation(p.m, p.l, 0, seed=777)
    if stranger.fingerprint() != p.fingerprint():
        with pytest.raises(PreconditionError):
            local_geodesic_probe(tree, path, window=3, target=stranger)


def test_distortion_probe_unverified_modes(verified_presentation):
    p = verified_presentation
    tree = _level0_tree(p)
    r = p.relators[0]
    target = Presentation(
        m=p.m, l=p.l, density=Fraction(1, 20),
        relators=(r, find_verified_presentation(3, 12, 0, 1).relators[0]
                  if False else sample_presentation(3, 12, 0, seed=9999).relators[0]),
        seed=0, parent_fingerprint=p.fingerprint(),
    )
    stats = distortion_probe(tree, target, radius=3, samples=30, seed=1,
                             word_cap=5, node_budget=200_000)
    assert stats.certified + stats.inconclusive >= stats.samples - 1
    assert stats.max_ratio >= 1.0


def test_tree_json_round_trip(demo_tree):
    text = tree_to_json(demo_tree)
    tree2 = tree_from_json(text)
    assert tree2.levels == demo_tree.levels
    assert len(tree2.cells) == len(demo_tree.cells)
    assert check_round_tree_axioms(tree2).all_pass
    e1, e2 = enumerate_emanating(demo_tree, 4), enumerate_emanating(tree2, 4)
    assert e1.words == e2.words and e1.path_count == e2.path_count
    assert tree_to_json(tree2) == text
    # loading and the read-side queries never build the window index
    assert "_windows" not in vars(tree2)


def test_saved_tree_grows_like_direct_build(demo_tree):
    tree = init_round_tree(demo_tree.host, demo_tree.params)
    tree.grow_level()
    saved = tree_to_json(tree)
    tree.grow_level()
    loaded = tree_from_json(saved)
    loaded.grow_level()
    assert tree_to_json(loaded) == tree_to_json(tree)


def test_tree_from_json_rejects_bad_files(verified_presentation):
    text = tree_to_json(_level0_tree(verified_presentation))
    assert tree_to_json(tree_from_json(text)) == text
    data = json.loads(text)
    with pytest.raises(ParseError):
        tree_from_json("not json")
    with pytest.raises(ParseError):
        tree_from_json("[1, 2]")
    for key in ("host", "params", "edges", "host_fingerprint"):
        with pytest.raises(ParseError):
            tree_from_json(json.dumps({k: v for k, v in data.items() if k != key}))
    with pytest.raises(ParseError, match="fingerprint"):
        tree_from_json(json.dumps(dict(data, host_fingerprint="0" * 64)))
    with pytest.raises(DomainError):
        tree_from_json(json.dumps(dict(data, params=dict(data["params"], V=1))))


def _windows_by_unique(relators, m):
    # the index as np.unique over every rotation: the order-defining oracle
    ab = Alphabet(m)
    l = len(relators[0])
    base = np.array([ab.encode(r) for r in relators], dtype=np.int8)
    both = np.concatenate([base, base[:, ::-1] ^ 1])
    rots = np.concatenate([np.roll(both, -q, axis=1) for q in range(l)])
    return np.unique(rots, axis=0)


@given(relator_sets())
@settings(max_examples=300, deadline=None)
def test_relator_windows_match_unique_oracle(case):
    m, rels = case
    got = _relator_windows(rels)
    want = _windows_by_unique(rels, m)
    assert got.dtype == want.dtype == np.int8
    assert np.array_equal(got, want)


def test_stated_toy_parameters_obstruct_quickly():
    # the acceptance wish-list parameters: every seed obstructs (analysed in
    # the decisions ledger); here we check the failure is clean and fast
    params = RoundTreeParams(V=2, H=4, ext_offset=2, ext_len=2)
    host = sample_presentation(2, 16, Fraction(1, 16), seed=0)
    tree = init_round_tree(host, params)
    with pytest.raises((BracketUnfillableError, ConstructionObstructedError)) as e:
        for _ in range(3):
            tree.grow_level()
    assert str(e.value)
