import copy
import functools
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomgroups import cayley
from randomgroups import roundtree as roundtree_mod
from randomgroups.bounds import emanating_bound
from randomgroups.cayley import is_dehn_ready
from randomgroups.errors import (
    BracketUnfillableError,
    ConstructionObstructedError,
    DomainError,
    ParseError,
    PreconditionError,
)
from randomgroups.cli import main
from randomgroups.model import Presentation, sample_presentation, save_presentation
from randomgroups.roundtree import (
    Cell,
    _ball_in_tree,
    _tree_distance_and_word,
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
from randomgroups.words import Alphabet, _relator_windows, inverse_word, reduce_word

from tests.conftest import assert_same_text, long_relator_sets, relator_sets
from tests.oracles import tree_file_by_json_dumps


def _level0_tree(p, seg=3):
    params = RoundTreeParams(V=2, H=4, ext_offset=1, ext_len=1, seg_len=seg)
    return init_round_tree(p, params)


def test_init_round_tree(verified_presentation):
    v = verified_presentation
    # a fresh copy: the gate that found the fixture has built its index
    p = Presentation(m=v.m, l=v.l, density=v.density, relators=v.relators, seed=v.seed)
    tree = _level0_tree(p)
    assert len(tree.cells) == 1
    assert len(tree.cells[0].steps) == p.l
    assert tree.base in tree.cells[0].vertices()
    assert tree.cells[0].word == p.relators[0]
    assert tree.levels == 0
    assert "windows" not in vars(tree.host)  # the index waits for grow_level


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


def test_detector_sector_boundary(demo_tree):
    tree = copy.deepcopy(demo_tree)
    key = max(tree.sectors)
    tree.sectors[key].outer.pop()  # one outer edge no longer declared
    rep = check_round_tree_axioms(tree)
    assert not rep.passes["sector-boundary"]
    assert rep.witnesses["sector-boundary"] == [key]


def test_detector_sandwich(demo_tree):
    tree = copy.deepcopy(demo_tree)
    a, b = min(k for k in tree.sectors if len(k) == tree.levels), max(tree.sectors)
    assert a[0] != b[0]
    # a copy of one of b's outermost cells filed under a: A_a and A_b now
    # share vertices far outside A_1
    template = next(c for c in tree.cells if c.sector == b)
    tree.cells.append(Cell(id=len(tree.cells), level=template.level, sector=a,
                           steps=template.steps, word=template.word))
    rep = check_round_tree_axioms(tree)
    assert not rep.passes["sandwich"]
    assert (a, b) in rep.witnesses["sandwich"] and (b, a) in rep.witnesses["sandwich"]


def test_detector_extension_cap(demo_tree):
    tree = copy.deepcopy(demo_tree)
    rec = tree.extension_paths[0]
    for j in range(tree.params.V):
        tree.extension_paths.append(dict(rec, label=f"{rec['label']}#{j}"))
    rep = check_round_tree_axioms(tree)
    assert not rep.passes["extension-cap"]
    assert rep.witnesses["extension-cap"] == [
        (rec["level"], rec["u"], 2 * tree.params.V)
    ]


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
    verdict = local_geodesic_probe(tree, path, window=7, target=target, word_cap=7)
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
        relators=(r, sample_presentation(3, 12, 0, seed=9999).relators[0]),
        seed=0, parent_fingerprint=p.fingerprint(),
    )
    stats = distortion_probe(tree, target, radius=3, samples=30, seed=1, word_cap=5)
    assert stats.certified + stats.inconclusive >= stats.samples - 1
    assert stats.max_ratio >= 1.0


def test_local_probe_is_inconclusive_only_on_budget(verified_presentation, monkeypatch):
    p = verified_presentation
    tree = _level0_tree(p)
    target = Presentation(
        m=p.m, l=p.l, density=Fraction(1, 20),
        relators=(p.relators[0], sample_presentation(3, 12, 0, seed=9999).relators[0]),
        seed=0, parent_fingerprint=p.fingerprint(),
    )
    assert not is_dehn_ready(target)
    path = list(range(6))
    # a closure that exhausts its budget cannot even bound the distances
    monkeypatch.setattr(cayley, "CLOSURE_NODE_BUDGET", 10)
    verdict = local_geodesic_probe(tree, path, window=3, target=target)
    assert (verdict.status, verdict.exact, verdict.window) == ("inconclusive", False, None)
    assert verdict.detail == "naive closure exceeded 10 nodes at cap 4"

    # any other error is no verdict at all
    def broken(*args, **kwargs):
        raise ValueError("closure bug")

    monkeypatch.setattr(cayley, "naive_closure_ball", broken)
    with pytest.raises(ValueError, match="closure bug"):
        local_geodesic_probe(tree, path, window=3, target=target)


def test_probe_refuses_path_ids_off_the_tree(verified_presentation):
    p = verified_presentation
    tree = _level0_tree(p)
    for path in ([99, 0], [-1, 0], [0, 1, len(tree.out)], [-1]):
        with pytest.raises(PreconditionError, match="not among the tree's"):
            local_geodesic_probe(tree, path, window=1, target=p)


@pytest.mark.parametrize("case", ["demo", "l20-len2"])
def test_tree_words_walk_to_their_ends(case, request):
    tree = request.getfixturevalue("demo_tree") if case == "demo" else _pinned_tree(case)
    rng = np.random.default_rng(0)
    radius = 5
    for _ in range(40):
        p = int(rng.integers(len(tree.out)))
        reach = _ball_in_tree(tree, p, radius)
        q = reach[int(rng.integers(len(reach)))]
        n, word = _tree_distance_and_word(tree, p, q, radius)
        path = tree._walk(p, tree.ab.encode(word))
        assert len(path) == n + 1 and path[-1] == q
        assert tree._bfs(p)[0][q] == n <= radius


def test_lay_cell_refuses_a_missing_bracket_or_an_open_cycle(verified_presentation):
    tree = _level0_tree(verified_presentation)
    word = tree.ab.encode(tree.host.relators[0])
    l, n = len(word), len(tree.out)
    # the base cell lies on edges, so laying it again as a bracket adds nothing
    cycle = [v for (v, _x) in tree.cells[0].steps]
    assert tree._lay_cell(tree.base, word, l, ()) == cycle + [tree.base]
    assert tree._walk(cycle[1], word[1:]) == cycle[1:] + [tree.base]
    assert len(tree.out) == n
    # a bracket letter that is not an edge at the base: the walk stops there
    x = next(y for y in range(len(tree.ab.letters)) if y not in tree.out[tree.base])
    assert tree._walk(tree.base, (x,) + word[1:]) == [tree.base]
    with pytest.raises(ConstructionObstructedError, match="bracket path missing") as e:
        tree._lay_cell(tree.base, (x,) + word[1:], 1, (5,))
    assert (e.value.sector, e.value.vertex) == ((5,), tree.base)
    # a last letter that leads back along the cycle instead of to v1
    with pytest.raises(ConstructionObstructedError, match="failed to close") as e:
        tree._lay_cell(tree.base, word[:-1] + (word[-2] ^ 1,), l - 1, (5,))
    assert (e.value.sector, e.value.vertex) == ((5,), cycle[-2])
    assert len(tree.out) == n


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
    assert "windows" not in vars(tree2.host)


# sha256 of the demo tree's file (host seed 0, the fixture's parameters):
# any change to a record's fields or their order changes these bytes
DEMO_TREE_DIGEST = "10a6d039316dc442e117a04c08799b95e0d6601f29422759923e9e5be0f3ad7f"


def test_tree_json_digest(demo_tree):
    assert demo_tree.host.seed == 0
    text = tree_to_json(demo_tree)
    assert hashlib.sha256(text.encode()).hexdigest() == DEMO_TREE_DIGEST
    again = tree_to_json(tree_from_json(text))
    assert hashlib.sha256(again.encode()).hexdigest() == DEMO_TREE_DIGEST


def test_tree_json_records_load_as_built(demo_tree):
    tree = tree_from_json(tree_to_json(demo_tree))
    assert tree.params == demo_tree.params
    assert tree.cells == demo_tree.cells
    assert tree.sectors == demo_tree.sectors
    assert tree.brackets == demo_tree.brackets
    assert tree.out == demo_tree.out
    assert tree.base == demo_tree.base
    assert tree.offset_words == demo_tree.offset_words
    assert tree.ext_words == demo_tree.ext_words
    assert tree.extension_paths == demo_tree.extension_paths


def test_saved_tree_grows_like_direct_build(demo_tree):
    tree = init_round_tree(demo_tree.host, demo_tree.params)
    tree.grow_level()
    saved = tree_to_json(tree)
    tree.grow_level()
    loaded = tree_from_json(saved)
    assert "windows" not in vars(loaded.host)
    loaded.grow_level()
    assert "windows" in vars(loaded.host)  # built by the first window search
    assert tree_to_json(loaded) == tree_to_json(tree)


# search outcomes off the demo configuration, all on hosts
# sample_presentation(2, l, 2/5, seed): sha256 of the tree file after two
# levels, or the error, its message and the level it stopped at
PINNED_TREES = {
    "l18-V3": (18, 0, dict(V=3, H=4, ext_offset=1, ext_len=1, seg_len=4),
               "c423047b08544da9051c73b35791aab43f6811fb478a353faf79dffd6c40eae0"),
    "l20-offset2": (20, 1, dict(V=2, H=4, ext_offset=2, ext_len=1, seg_len=4),
                    "6c1933a2f3a29d4ab855276c610e8a7e56ae05c141c4fbc7b43cd0e935703b02"),
    "l20-len2": (20, 0, dict(V=2, H=3, ext_offset=1, ext_len=2, seg_len=5),
                 "4e503574e7d1b3587d23645345934d2021b2421cd4129ae9564b1c4fe918875c"),
}
PINNED_FAILURES = {
    "l16-V3": (16, 1, dict(V=3, H=4, ext_offset=1, ext_len=1, seg_len=4),
               BracketUnfillableError,
               "no consistent window assignment for this sector (desk-scale genericity failure)"),
    "l16-budget": (16, 1, dict(V=2, H=4, ext_offset=2, ext_len=1, seg_len=4,
                               search_budget=2000),
                   ConstructionObstructedError, "window search budget exhausted"),
    "l20-budget": (20, 0, dict(V=2, H=4, ext_offset=2, ext_len=1, seg_len=4,
                               search_budget=40000),
                   ConstructionObstructedError, "window search budget exhausted"),
}


def _pinned_start(l, seed, kw):
    return init_round_tree(sample_presentation(2, l, Fraction(2, 5), seed=seed),
                           RoundTreeParams(**kw))


@functools.cache
def _pinned_tree(case):
    tree = _pinned_start(*PINNED_TREES[case][:3])
    tree.grow_level()
    return tree.grow_level()


@pytest.mark.parametrize("case", sorted(PINNED_TREES))
def test_search_outcome_pinned(case):
    text = tree_to_json(_pinned_tree(case))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TREES[case][3]


@pytest.mark.parametrize("case", sorted(PINNED_FAILURES))
def test_search_failure_pinned(case):
    l, seed, kw, error, message = PINNED_FAILURES[case]
    tree = _pinned_start(l, seed, kw)
    with pytest.raises(ConstructionObstructedError) as e:
        for _ in range(2):
            tree.grow_level()
    assert type(e.value) is error and str(e.value) == message
    assert tree.levels == 1


@pytest.mark.parametrize("case", ["demo", "level0", "loop"] + sorted(PINNED_TREES))
def test_tree_file_matches_json_dumps(case, request):
    # a level-0 tree has empty lists (its rays, brackets), empty dicts (its
    # words) and the sector key ""; on a one-letter relator its edge is a loop
    tree = (request.getfixturevalue("demo_tree") if case == "demo"
            else _level0_tree(request.getfixturevalue("verified_presentation")) if case == "level0"
            else _level0_tree(sample_presentation(2, 1, 0, seed=0), seg=1) if case == "loop"
            else _pinned_tree(case))
    assert_same_text(tree_to_json(tree), tree_file_by_json_dumps(tree))


@given(l=st.sampled_from([12, 14, 16]), seed=st.integers(0, 40), V=st.integers(2, 3),
       seg_len=st.integers(2, 5), levels=st.integers(0, 2),
       beta=st.sampled_from([None, Fraction(1, 2)]), null_leg=st.booleans())
@settings(max_examples=30, deadline=None)
def test_tree_file_matches_json_dumps_at_any_level(l, seed, V, seg_len, levels, beta, null_leg):
    host = sample_presentation(2, l, Fraction(2, 5), seed=seed)
    tree = init_round_tree(host, RoundTreeParams(V=V, H=4, ext_offset=1, ext_len=1, seg_len=seg_len,
                                                 beta=beta, search_budget=4000))
    try:
        for _ in range(levels):
            tree.grow_level()
    except ConstructionObstructedError:
        pass  # a tree that stopped growing is written all the same
    if null_leg and tree.ext_words:
        tree.ext_words[next(iter(tree.ext_words))][-1] = None
    assert_same_text(tree_to_json(tree), tree_file_by_json_dumps(tree))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=20)


@given(_JSON_VALUES, st.integers(1, 3), st.lists(st.integers(0, 5), max_size=5),
       st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_json_writers_match_json_dumps(value, k, counts, depth, data):
    assert roundtree_mod._json_text(value) == json.dumps(value, indent=1)
    # lists of k-int rows, written in bulk at `depth`, inside `depth` - 1 lists
    rows = data.draw(st.lists(st.integers(0, 10**15), min_size=k * sum(counts),
                              max_size=k * sum(counts)))
    matrix = np.array(rows, dtype=np.int64).reshape(-1, k)
    lists = np.split(matrix, np.cumsum(counts)[:-1]) if counts else []
    plain, written = [m.tolist() for m in lists], roundtree_mod._json_row_lists(matrix, counts, depth)
    for _ in range(depth - 1):
        plain, written = [plain], [written]
    assert roundtree_mod._json_text(written) == json.dumps(plain, indent=1)


# the benchmark's trees: the host `sample --m 2 --l 24 --d 2/5 --seed S` for
# each of its 16 host seeds, grown by `roundtree-build` with the options of
# SWEEP_BUILD.  sha256 of the tree file after 3 levels for every seed, and
# after 4 levels for the seeds that build that far; at 4 levels the seeds of
# SWEEP_STOPS stop with that message and exit 2
SWEEP_BUILD = dict(V=2, H=4, ext_offset=1, ext_len=1, seg_len=6)
SWEEP_DIGESTS = {
    0: "e77d84629eec7cbd701930a96a9113957f0ebe7fb608176a6d5790c6dfb85e30",
    1: "69987ef90fdad8a2505f58b7b13a89c155db12cd2b55b7b2d2a47bd88a779cae",
    2: "752f69dcc71c239e3fcc6ef0ccffb4ec82ee8ade0d7517680941abb492785bf4",
    3: "b064f86c18b49973bbb7415b86a05be1c3664efcc6f106ddd95e6715b80e5c3d",
    4: "76b882196738d0ee025ae167e344e6f4dd2da6aa80fa2245b24e9fcf1e72ccba",
    5: "37fcf1d1fccb44fad96976168ff717c5f06f875a0d69271c223dfd632ebb04cc",
    6: "252099a2ac79607b0cc3bdcd529503ae3e5a9af6f48e70300e266d2838fcdb41",
    7: "c3734c0e42339638f4168f2dc985ec1f35599d4face2b138fd4c192780ce5a8f",
    8: "79efc784a43d127bb131f80844461738e592ef0e5f4dac0e47b094bbeb1aaa74",
    9: "88af2531ca5b56a1a799cd1aa33f2895ab3a3994dc885f09f85679382498f3f0",
    10: "13d2c217b0f46a07c7804b4dea844892bb456a9332f8c3731a07c50ce3f285e6",
    11: "08befc67d230cce4c11bcacbd5f9254af77a2c7f32bc6ab40effbc36ffe2a8bd",
    12: "a7354f36e853a494c2e4cf412efc3888166030427b738bbb5db54c19d4d06023",
    13: "84e63cd62338e8734e29c99802d3da89f14d70cc8b2e9e125e2c977a7664c201",
    14: "becdd454a5df19297087d5bdcc01c1b51163bf295c9962af2f476b3c8932f355",
    15: "a8548014d664f9d6b6a535cb2e09567339269c1f540acb06c35b5b5e7c02bbd2",
}
SWEEP_DIGESTS_4 = {
    1: "7e00269f0e44d2a105263d86c90427c9b1ec24c0698ec4182403f4fca8b6c92d",
    2: "063fa7067a6ec630732244f0a3510c92ce59f24145ea8e3fe5187a1766131989",
}
SWEEP_STOPS = {0: "window search budget exhausted", 3: "window search budget exhausted"}


@pytest.fixture(scope="module", params=sorted(SWEEP_DIGESTS))
def sweep_host(request):
    """The demo host of one sweep seed, sampled once for all its checks."""
    return sample_presentation(2, 24, Fraction(2, 5), seed=request.param)


def test_demo_tree_sweep(sweep_host, tmp_path, capsys):
    seed = sweep_host.seed
    tree = init_round_tree(sweep_host, RoundTreeParams(**SWEEP_BUILD))
    for _ in range(3):
        tree.grow_level()
    assert hashlib.sha256(tree_to_json(tree).encode()).hexdigest() == SWEEP_DIGESTS[seed]
    if seed in SWEEP_DIGESTS_4:
        tree.grow_level()
        assert hashlib.sha256(tree_to_json(tree).encode()).hexdigest() == SWEEP_DIGESTS_4[seed]
    if seed in SWEEP_STOPS:
        host, out = tmp_path / "host.txt", tmp_path / "tree.json"
        save_presentation(sweep_host, host)
        assert main(["roundtree-build", "--in", str(host), "--out", str(out), "--levels", "4",
                     "--branching-v", "2", "--bigh", "4", "--ext-offset", "1", "--ext-len", "1",
                     "--seg-len", "6"]) == 2
        assert capsys.readouterr().err == f"error: {SWEEP_STOPS[seed]}\n"
        assert not out.exists()


@pytest.mark.parametrize("case", ["demo"] + sorted(PINNED_TREES))
def test_built_tree_keeps_search_constraints(case, request):
    tree = request.getfixturevalue("demo_tree") if case == "demo" else _pinned_tree(case)
    # a class's branches diverge at its offset tip
    for c, exts in tree.ext_words.items():
        assert len({e[0] for e in exts}) == len(exts), c
    # distinct classes leave an extension point by distinct offset letters
    leads: dict[int, dict[str, int]] = {}
    for rec in tree.extension_paths:
        leads.setdefault(rec["u"], {})[rec["class"]] = tree.offset_words[rec["class"]][0]
    for u, by_class in leads.items():
        assert len(set(by_class.values())) == len(by_class), u
    # equal bracket labels get equal cell words
    assert check_round_tree_axioms(tree).passes["bracket-consistency"]


def test_tree_from_json_rejects_bad_files(verified_presentation, demo_tree):
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
    cell = {k: v for k, v in data["cells"][0].items() if k != "word"}
    with pytest.raises(ParseError):
        tree_from_json(json.dumps(dict(data, cells=[cell])))
    with pytest.raises(ParseError):  # no vertex for the base
        tree_from_json(json.dumps(dict(data, vertices=0, edges=[], cells=[], sectors={})))
    # the complex must use the host's vertices and letters, and every record
    # must lie on it: (name, path to the changed value, new value)
    text = tree_to_json(demo_tree)
    grown = json.loads(text)
    n, letters = grown["vertices"], demo_tree.ab.letters
    v, x, w = grown["edges"][0]
    free_v, free_x = next((u, y) for u, nbrs in enumerate(demo_tree.out)
                          for y in range(len(letters)) if y not in nbrs)
    b0 = grown["brackets"][0]
    c = next(iter(grown["offset_words"]))
    bad = [
        ("edge letter", ("edges", 0), [v, 9, w]),
        ("edge vertex", ("edges", 0), [-1, x, w]),
        ("vertex count", ("vertices",), 10),
        ("conflicting edges", ("edges",), grown["edges"] + [[v, x, (w + 1) % n]]),
        ("cell vertex", ("cells", 0, "steps", 0), [10**6, x]),
        ("cell step", ("cells", -1, "steps", 0), [free_v, free_x]),
        ("sector step", ("sectors", "0", "outer", 0), [free_v, free_x]),
        ("bracket step", ("brackets", 0),
         dict(b0, v1=free_v, label=letters[free_x] + b0["label"][1:])),
        ("bracket vertex", ("brackets", 0, "p2"), b0["p1"]),
        ("bracket cell", ("brackets", 0, "cell"), len(grown["cells"])),
        ("bracket cell -1", ("brackets", 0, "cell"), -1),
        ("extension point", ("extension_paths", 0, "u"), n),
        ("unreduced leg", ("ext_words", c, 0), grown["offset_words"][c].swapcase()),
    ]
    accepted = []
    for name, path, value in bad:
        d = json.loads(text)
        at = d
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = value
        try:
            tree_from_json(json.dumps(d))
            accepted.append(name)
        except ParseError:
            pass
    assert accepted == []


def test_tree_vertex_count_refused_before_allocation(monkeypatch, verified_presentation):
    # a complex is connected, so a count past its edges plus one is refused,
    # and before any vertex is allocated: a file's count is not trusted
    data = json.loads(tree_to_json(_level0_tree(verified_presentation)))

    def no_vertex():
        raise AssertionError("a vertex was allocated")

    monkeypatch.setattr(roundtree_mod, "dict", no_vertex, raising=False)
    for n in (len(data["edges"]) + 2, 10**9):
        with pytest.raises(ParseError, match="cannot be connected"):
            tree_from_json(json.dumps(dict(data, vertices=n)))


def _windows_by_unique(relators, m):
    # the index as np.unique over every rotation: the order-defining oracle
    ab = Alphabet(m)
    l = len(relators[0])
    base = np.array([ab.encode(r) for r in relators], dtype=np.int8)
    both = np.concatenate([base, base[:, ::-1] ^ 1])
    rots = np.concatenate([np.roll(both, -q, axis=1) for q in range(l)])
    return np.unique(rots, axis=0)


def _check_prefix_ranges(index, W, words, n):
    # the batched query finds, for each length-n word, the rows of W that
    # start with it
    starts, stops = index.prefix_ranges(np.array(words, dtype=np.int8).reshape(len(words), n))
    for word, a, b in zip(words, starts.tolist(), stops.tolist()):
        assert list(range(a, b)) == np.flatnonzero((W[:, :n] == word).all(axis=1)).tolist(), word


def test_prefix_ranges_find_nothing_for_a_letter_outside_the_index():
    # packed at b = 2 bits, "ad" spills d's high bit into a's slot and keys
    # like "Ab", which the index holds
    index = _relator_windows(["Abab"])
    _check_prefix_ranges(index, index.rows(index.keys), [(0, 6), (1, 2)], 2)
    firsts = index.prefix_firsts(np.array([(0, 6), (1, 2)], dtype=np.int8))
    assert firsts.tolist() == [-1, index.prefix_range((1, 2)).start]


@given(st.one_of(relator_sets(), long_relator_sets()), st.data())
@settings(max_examples=300, deadline=None)
def test_prefix_firsts_match_prefix_ranges(case, data):
    # the membership test among the distinct k-letter prefixes of the keys
    # gives the start of each nonempty prefix range and -1 for an empty one:
    # on packed and byte-row indexes (l·b on both sides of 64), for tails of
    # 0 to l letters, some read by a window, some with a letter past the
    # index's bits
    m, rels = case
    index = _relator_windows(rels)
    W = index.rows(index.keys)
    l = W.shape[1]
    k = data.draw(st.sampled_from([0, l]) | st.integers(0, l))
    top = max(2 * m - 1, 1 << index.bits)  # 1 << bits is past the bits
    read = data.draw(st.lists(st.integers(0, len(W) - 1), max_size=4))
    rows = [W[r, :k].tolist() for r in read]
    rows += data.draw(st.lists(st.lists(st.integers(0, top), min_size=k, max_size=k), max_size=6))
    words = np.array(rows, dtype=np.int8).reshape(len(rows), k)
    starts, stops = index.prefix_ranges(words)
    firsts = index.prefix_firsts(words)
    assert firsts.tolist() == np.where(stops > starts, starts, -1).tolist()
    assert (firsts[: len(read)] >= 0).all()


@given(relator_sets())
@settings(max_examples=300, deadline=None)
def test_relator_windows_match_unique_oracle(case):
    m, rels = case
    index = _relator_windows(rels)
    got = index.rows(index.keys)
    want = _windows_by_unique(rels, m)
    assert got.dtype == want.dtype == np.int8
    assert np.array_equal(got, want)


@given(relator_sets(), st.data())
@settings(max_examples=300, deadline=None)
def test_windows_reading_matches_filter(case, data):
    m, rels = case
    index = _relator_windows(rels)
    W = index.rows(index.keys)
    l = W.shape[1]
    n = data.draw(st.integers(1, l))
    if data.draw(st.booleans()):  # a word some window reads
        at = data.draw(st.integers(0, l - n))
        word = tuple(W[data.draw(st.integers(0, len(W) - 1)), at : at + n].tolist())
    else:  # often read by none
        word = tuple(data.draw(st.lists(st.integers(0, 2 * m - 1), min_size=n, max_size=n)))
    for a in range(l - n + 1):
        want = W[(W[:, a : a + n] == word).all(axis=1)]
        got = index.rows(index.reading(word, a))
        assert got.dtype == np.int8 and np.array_equal(got, want), (word, a)
    _check_prefix_ranges(index, W, [word, *map(tuple, W[:3, :n].tolist())], n)
    _check_prefix_ranges(index, W, [()], 0)


@given(long_relator_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_windows_match_oracles_at_key_width(case, data):
    # l·b = 64 is the widest index that packs into one key per window (at
    # m = 2 the largest key is all ones); one letter more falls back to
    # byte rows, and both must meet the oracles
    m, rels = case
    l, top = len(rels[0]), 2 * m - 1
    index = _relator_windows(rels)
    assert (index.keys.dtype == np.uint64) == (l * top.bit_length() <= 64)
    W = index.rows(index.keys)
    assert W.dtype == np.int8 and np.array_equal(W, _windows_by_unique(rels, m))
    for n in range(1, l + 1):  # prefixes of the largest key
        starts = (W[:, :n] == top).all(axis=1)
        assert list(index.prefix_range((top,) * n)) == np.flatnonzero(starts).tolist()
        _check_prefix_ranges(index, W, [(top,) * n], n)
    n = data.draw(st.integers(1, l))
    kind = data.draw(st.sampled_from(["window", "top", "random"]))
    if kind == "window":  # a word some window reads
        at = data.draw(st.integers(0, l - n))
        word = tuple(W[data.draw(st.integers(0, len(W) - 1)), at : at + n].tolist())
    elif kind == "top":  # a prefix of the largest key
        word = (top,) * n
    else:  # often read by none
        word = tuple(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    for a in range(l - n + 1):
        want = W[(W[:, a : a + n] == word).all(axis=1)]
        got = index.rows(index.reading(word, a))
        assert got.dtype == np.int8 and np.array_equal(got, want), (word, a)
    _check_prefix_ranges(index, W, [word, *map(tuple, W[:3, :n].tolist())], n)
    _check_prefix_ranges(index, W, [()], 0)


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
