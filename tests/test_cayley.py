import dataclasses
import functools
import hashlib
import itertools
import json
import random
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randomgroups import cayley as cayley_mod
from randomgroups import model as model_mod
from randomgroups import words as words_mod
from randomgroups.cayley import (
    DEFAULT_VERTEX_BUDGET,
    cayley_ball,
    cprime_genericity_scan,
    dehn_reduce,
    distance,
    hyperbolicity_delta_bound,
    is_dehn_ready,
    is_geodesic,
    naive_closure_ball,
)
from randomgroups.errors import (
    BudgetExceededError,
    DomainError,
    NotVerifiedError,
    PartialBallError,
)
from randomgroups.model import Presentation, sample_presentation
from randomgroups.roundtree import RoundTreeParams, distortion_probe, init_round_tree
from randomgroups.words import (
    _reduce_ints,
    _relator_texts,
    check_c_prime,
    inverse_word,
    max_piece_length,
    reduce_word,
)

from tests import ball_oracle
from tests.ball_oracle import (
    _oracle_engine,
    ball_dict,
    ball_json,
    cayley_ball_oracle,
    check_ball_invariants,
)
from tests.conftest import assert_same_text, find_verified_presentation
from tests.oracles import exact_cprime_fraction_single_relator


def _random_reduced_word(ab, length, rng):
    w = [rng.randrange(ab.size)]
    while len(w) < length:
        c = rng.randrange(ab.size - 1)
        c = c if c < (w[-1] ^ 1) else c + 1
        w.append(c)
    return ab.decode(w)


def test_gate_rejects_unverified():
    # (m=2, l=12) can never verify strict C'(1/6): 24 digram slots land in 12
    # possible reduced digrams, so some piece has length >= 2 = 12/6
    p = sample_presentation(2, 12, 0, seed=1)
    assert not is_dehn_ready(p)
    with pytest.raises(NotVerifiedError):
        dehn_reduce("abAB", p)
    with pytest.raises(NotVerifiedError):
        cayley_ball(p, 3)


def test_pigeonhole_at_l12_m2_all_seeds():
    for seed in range(200):
        p = sample_presentation(2, 12, Fraction(1, 20), seed=seed)
        assert max_piece_length(list(p.relators)).max_piece_length >= 2


def test_dehn_reduce_examples(verified_presentation):
    p = verified_presentation
    r = p.relators[0]
    assert dehn_reduce(r, p) == "1"
    assert dehn_reduce("1", p) == "1"
    assert dehn_reduce(inverse_word(r), p) == "1"
    # conjugates and products of conjugates of relators are trivial
    ab = p.alphabet
    rng = random.Random(0)
    for _ in range(20):
        u = _random_reduced_word(ab, rng.randint(1, 4), rng)
        w = reduce_word(u + r + inverse_word(u), ab)
        assert dehn_reduce(w, p) == "1"
    # a generator is certainly not trivial
    assert dehn_reduce("a", p) != "1"


def test_free_ball_below_half(verified_presentation):
    p = verified_presentation
    ball = cayley_ball(p, 5)
    sizes = {}
    for d in ball.dist:
        sizes[d] = sizes.get(d, 0) + 1
    expect = [1]
    for k in range(1, 6):
        expect.append(2 * p.m * (2 * p.m - 1) ** (k - 1))
    assert [sizes[i] for i in range(6)] == expect
    # tree: no cycles below half the girth
    undirected = int((ball.adjacency >= 0).sum()) // 2
    assert undirected == len(ball.words) - 1


def test_ball_invariants_and_closure(verified_presentation):
    ball = cayley_ball(verified_presentation, 6)
    check_ball_invariants(ball, samples=100, seed=1)


def test_radius_zero_and_one(verified_presentation):
    p = verified_presentation
    b0 = cayley_ball(p, 0)
    assert len(b0.words) == 1 and b0.dist.tolist() == [0]
    b1 = cayley_ball(p, 1)
    assert len(b1.words) == 1 + 2 * p.m


def test_dehn_vs_bfs_agreement(verified_presentation):
    p = verified_presentation
    radius = 7
    ball = cayley_ball(p, radius)
    rng = random.Random(12345)
    ab = p.alphabet
    for _ in range(300):
        w = _random_reduced_word(ab, rng.randint(1, radius), rng)
        vid = ball.vertex_of_word(w)
        assert vid is not None
        assert (dehn_reduce(w, p) == "1") == (ball.dist[vid] == 0) == (vid == 0)


def test_distance_and_geodesics(verified_presentation):
    p = verified_presentation
    r = p.relators[0]
    assert distance(p, r) == 0
    assert distance(p, "1") == 0
    # any reduced word shorter than half the girth is geodesic
    rng = random.Random(7)
    ab = p.alphabet
    for _ in range(20):
        w = _random_reduced_word(ab, rng.randint(1, p.l // 2 - 1), rng)
        assert is_geodesic(p, w)
    # more than half of a relator is not geodesic
    long_arc = r[: p.l // 2 + 1]
    assert not is_geodesic(p, long_arc)
    assert distance(p, long_arc) == p.l - len(long_arc)


def test_geodesic_prefix_monotonicity(verified_presentation):
    p = verified_presentation
    rng = random.Random(3)
    ab = p.alphabet
    ball = cayley_ball(p, 7)
    for _ in range(40):
        w = _random_reduced_word(ab, 7, rng)
        vid = ball.vertex_of_word(w)
        if ball.dist[vid] == 7:  # geodesic word
            for j in range(1, 7):
                pv = ball.vertex_of_word(w[:j])
                assert ball.dist[pv] == j


def test_vertex_budget():
    p = find_verified_presentation(3, 12, 0)
    with pytest.raises(PartialBallError) as e:
        cayley_ball(p, 6, vertex_budget=100)
    assert e.value.completed_radius <= 6


def test_ball_exports(verified_presentation):
    ball = cayley_ball(verified_presentation, 2)
    js = ball_json(ball)
    assert '"radius": 2' in js
    csv = ball.adjacency_csv()
    assert csv.startswith("src,dst,letter")
    # radius 6 reaches 2n >= l, where vertices are identified; the digests
    # pin the export bytes
    ball = cayley_ball(verified_presentation, 6)
    assert len(ball.words) == 23425
    assert hashlib.sha256(ball_json(ball).encode()).hexdigest() == (
        "76c4184e960743940563007340f78690fea1a65b9a2e30db60c68badfbe18048")
    assert hashlib.sha256(ball.adjacency_csv().encode()).hexdigest() == (
        "d3e6c56b578fdf3b76a74140cae5616804ade3c1ae9bff2aacf43fe64a7229c1")


def _dense(oracle):
    """The oracle's adjacency dicts as an (N, 2m) array, -1 for no edge."""
    adj = np.full((len(oracle.words), 2 * oracle.presentation.m), -1)
    for u, nbrs in enumerate(oracle.adjacency):
        for x, v in nbrs.items():
            adj[u, x] = v
    return adj


def _assert_same_ball(ball, oracle, exports=True):
    assert ball.words == oracle.words
    assert ball.dist.tolist() == oracle.dist
    assert np.array_equal(ball.adjacency, _dense(oracle))
    if exports:
        assert_same_text(ball_json(ball), oracle.to_json())
        assert ball.adjacency_csv() == oracle.adjacency_csv()


def _merged_and_same_level(ball):
    """Vertices reached from the level below under two or more letters (each
    such letter ends another geodesic word: a merged closure class), and
    edge ends whose two vertices lie on one level (odd cycles only)."""
    u, x, v = ball._edges()
    du, dv = ball.dist[u], ball.dist[v]
    down = np.bincount(u[dv == du - 1], minlength=len(ball.words))
    return int((down >= 2).sum()), int((du == dv).sum())


@pytest.fixture(scope="module")
def oracle_r6(verified_presentation):
    return cayley_ball_oracle(verified_presentation, 6)


@pytest.fixture(scope="module")
def odd_presentation():
    """The first verified sample at (m=2, l=13): relators of odd length
    close odd cycles, so some candidates equal words one letter shorter."""
    return find_verified_presentation(2, 13, 0)


def test_ball_oracle_even_l_merged_classes(verified_presentation, oracle_r6):
    ball = cayley_ball(verified_presentation, 6)
    assert len(ball.words) == 23425
    # the closure merged classes here; with l even no edge joins one level
    assert _merged_and_same_level(ball) == (12, 0)
    _assert_same_ball(ball, oracle_r6)


def _recording_closures(monkeypatch) -> list:
    """Record each level's batched swap closure as (candidate words, whether
    classes were kept, result), in build order."""
    calls = []
    real = cayley_mod._swap_closures

    def recording(eng, words, classes=True):
        found = real(eng, words, classes)
        calls.append((words, classes, found))
        return found

    monkeypatch.setattr(cayley_mod, "_swap_closures", recording)
    return calls


def test_ball_oracle_odd_l_shortened_candidates(monkeypatch, odd_presentation):
    p = odd_presentation
    calls = _recording_closures(monkeypatch)
    ball = cayley_ball(p, 7)
    monkeypatch.undo()
    # each end u of an edge inside a level is a candidate words[u] + x whose
    # closure finds a word on u's own level, and Dehn reduction shortens each
    shortened = [w for words, _, found in calls
                 for w in map(tuple, words[found.short_len >= 0].tolist())]
    assert len(shortened) == _merged_and_same_level(ball)[1] == 78
    oracle = _oracle_engine(p)
    assert all(len(oracle.dehn_reduce(w)) < len(w) for w in shortened)
    _assert_same_ball(ball, cayley_ball_oracle(p, 7))


def test_ball_oracle_byte_row_keys(monkeypatch, verified_presentation, oracle_r6):
    # windows wider than 64 bits are keyed as byte rows; force that format
    # into the window index whose prefix ranges a ball's tails are searched
    # in, for a ball that packs them otherwise
    p = verified_presentation
    eng = p.engine
    monkeypatch.setattr(words_mod, "_key_bits", lambda texts: 64)
    monkeypatch.setattr(eng, "windows", words_mod._relator_windows(p.relators))
    assert eng.windows.keys.dtype.kind == "V"
    _assert_same_ball(cayley_ball(p, 6), oracle_r6, exports=False)


def test_ball_json_text_matches_json_dumps(odd_presentation, verified_presentation):
    # the text written from the arrays is the json.dumps layout of its dict,
    # nested at any indent; radius 0 has no edges, the odd-l host has edges
    # inside a level from radius 7, and in the radius-6 ball of the (3, 12, 0)
    # host the ids 10, 100, 1 000 and 10 000 each lie inside a level
    balls = [cayley_ball(odd_presentation, radius) for radius in range(8)]
    balls.append(cayley_ball(verified_presentation, 6))
    ends = set(np.cumsum([len(level) for level in balls[-1].levels]).tolist())
    assert len(balls[-1].dist) > 10000 and not ends & {10, 100, 1000, 10000}
    for ball in balls:
        oracle = json.dumps(ball_dict(ball), indent=2, sort_keys=True)
        for indent in ("", "  ", "\t "):
            assert_same_text(ball.json_text(indent), oracle.replace("\n", "\n" + indent))


def test_ball_json_text_ids_change_width_inside_a_level(odd_presentation):
    # the ids are one decimal table, sliced for the vertex rows and gathered
    # for the two edge columns: the (2, 13, 0) balls of radius 2, 4 and 6
    # hold the ids 10, 100 and 1 000 inside a level, and the radius-1 ball
    # (5 vertices) has only one-digit ids, so no padding to drop
    for radius, crossed in [(1, set()), (2, {10}), (4, {10, 100}), (6, {10, 100, 1000})]:
        ball = cayley_ball(odd_presentation, radius)
        ends = np.cumsum([len(level) for level in ball.levels])
        assert {c for c in (10, 100, 1000) if c < ends[-1]} == crossed
        assert not crossed & set(ends.tolist())
        oracle = json.loads(ball_json(ball))
        assert_same_text(ball.json_text(), json.dumps(oracle, indent=2, sort_keys=True))


# ints in [0, 2**31), every power of ten below 2**31 and its neighbours among them
_EDGE_INTS = sorted({10**k + d for k in range(10) for d in (-1, 0, 1)} | {2**31 - 1})
_INTS = st.one_of(st.integers(0, 2**31 - 1), st.sampled_from(_EDGE_INTS))


@given(st.lists(st.tuples(_INTS, _INTS), max_size=40))
@settings(max_examples=200, deadline=None)
def test_text_rows_write_ints_as_str(pairs):
    # the row writer's digits are str(int)'s, padded or not, in any column
    first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    rows = cayley_mod._text_rows([b"[", first, b",", second, b"]\n"], len(pairs))
    assert rows.tobytes().decode() == "".join(f"[{a},{b}]\n" for a, b in pairs)
    # and so are those of a decimal table's rows, gathered as one matrix
    table = cayley_mod._decimal_digits(np.concatenate([first, second]))
    rows = cayley_mod._text_rows([b"[", table[: len(pairs)], b",", table[len(pairs) :], b"]\n"],
                                 len(pairs))
    assert rows.tobytes().decode() == "".join(f"[{a},{b}]\n" for a, b in pairs)


def test_text_rows_written_in_place_hold_no_padding():
    # a number part whose row starts with a zero byte would leave that byte
    # in the text of a row written in place, where no mask can drop it
    out = np.empty(4, dtype=np.uint8)
    cayley_mod._text_rows([np.array([12, 34])], 2, out=out)
    assert out.tobytes() == b"1234"
    with pytest.raises(AssertionError):
        cayley_mod._text_rows([np.array([1, 34])], 2, out=out)


def test_distance_reads_no_word_strings(monkeypatch, verified_presentation):
    # distance and is_geodesic walk the ball's adjacency: no vertex's word is
    # decoded into a string, on a presentation whose engine has no ball yet
    def refuse(self):
        raise AssertionError("a ball's words were decoded")

    monkeypatch.setattr(cayley_mod.CayleyBall, "words", property(refuse))
    p = dataclasses.replace(verified_presentation)
    r = p.relators[0]
    assert distance(p, r) == 0
    assert distance(p, r[: p.l // 2 + 1]) == p.l - (p.l // 2 + 1)
    assert is_geodesic(p, r[: p.l // 2])
    assert not is_geodesic(p, r[: p.l // 2 + 1])
    assert p.engine.ball is not None


@pytest.mark.parametrize("m, l", [(2, 13), (3, 12), (4, 12)])
def test_dehn_arcs_match_string_rotations(m, l):
    # the engine's arcs, read off the window index, are the oracle's
    # rotations built from the relator strings, and each complement slice
    # that a match hands out is the string complement's inverse
    p = _verified_host(m, l)
    eng, oracle = p.engine, _oracle_engine(p)
    assert eng.arcs == oracle.arcs
    ab = p.alphabet
    for window, inverse in eng.arcs.values():
        rotation = ab.decode(window)
        for j in range(eng.t_move, l + 1):
            hit, got = eng._match(window[:j], 0)
            assert hit == (window, inverse) and got == j
            want = ab.encode(inverse_word(rotation[j:], ab))
            assert inverse[: l - j] == want


def _ball_outcome(build, p, radius, budget):
    try:
        return build(p, radius, budget)
    except PartialBallError as e:
        return (type(e), str(e), e.completed_radius, e.budget)
    except BudgetExceededError as e:
        return (type(e), str(e), e.budget)


def test_ball_oracle_budget_parity(verified_presentation, oracle_r6):
    # budgets at every level boundary and one either side, and budgets <= 0,
    # which not even the origin fits, at radii 6, 1 and 0: the same error at
    # the same radius, or the same ball
    p = verified_presentation
    sizes = np.cumsum(np.bincount(oracle_r6.dist)).tolist()
    budgets = sorted({s + d for s in sizes for d in (-1, 0, 1)} | {0, -1, -7})
    raised = 0
    for radius, budget in [(6, b) for b in budgets] + [(0, 0), (0, -1), (1, 0)]:
        got = _ball_outcome(cayley_ball, p, radius, budget)
        want = _ball_outcome(cayley_ball_oracle, p, radius, budget)
        if isinstance(want, tuple):
            assert got == want, (radius, budget)
            raised += 1
        else:
            _assert_same_ball(got, want, exports=False)
    assert raised == sum(b < sizes[-1] for b in budgets) + 3


@functools.lru_cache(maxsize=None)
def _verified_host(m, l):
    return find_verified_presentation(m, l, 0)


@st.composite
def _arc_words(draw):
    """A reduced word holding an arc of a relator rotation, with a random
    prefix and suffix: the inputs that Dehn steps and swaps act on."""
    ab_size = draw(st.sampled_from([4, 6]))
    rot = draw(st.integers(0, 99))
    k = draw(st.integers(1, 12))
    pre = draw(st.lists(st.integers(0, ab_size - 1), max_size=4))
    post = draw(st.lists(st.integers(0, ab_size - 1), max_size=4))
    return ab_size, rot, k, pre, post


@given(_arc_words())
@settings(max_examples=80, deadline=None)
def test_closure_and_dehn_match_ball_oracle_engine(case):
    # the engine's seam joins, complement slices and one swap per matched
    # arc give the oracle engine's full reductions and per-prefix swaps
    ab_size, rot, k, pre, post = case
    p = _verified_host(ab_size // 2, 12 if ab_size == 6 else 13)
    texts = _relator_texts(p.relators)
    t = texts[rot % len(texts)].tolist()
    q = rot % p.l
    w = _reduce_ints(pre + t[q : q + min(k, p.l)] + post)
    eng, oracle = p.engine, _oracle_engine(p)
    assert eng.dehn_reduce(w) == oracle.dehn_reduce(w)
    same, shorter = oracle.geodesic_closure(w)
    assert _closure_of(eng, w) == (same if shorter is None else None, shorter)


@st.composite
def _arc_products(draw):
    """(host, word): the reduced product of one to three arcs of relator
    rotations, each of t_move to l/2 + 1 letters, and a few more letters:
    words whose closure may find a shorter word only after some rounds."""
    p = _verified_host(*draw(st.sampled_from([(3, 12), (2, 13)])))
    texts, t = _relator_texts(p.relators).tolist(), p.engine.t_move
    word = draw(st.lists(st.integers(0, 2 * p.m - 1), max_size=2))
    for _ in range(draw(st.integers(1, 3))):
        q, k = draw(st.integers(0, p.l - 1)), draw(st.integers(t, p.l // 2 + 1))
        word += draw(st.sampled_from(texts))[q : q + k]
    return p, _reduce_ints(word + draw(st.lists(st.integers(0, 2 * p.m - 1), max_size=2)))


# words of the (3, 12, 0) host that Dehn reduction does not shorten and
# whose closure finds a shorter word once it has seen 6 and 4 words
_LATE_SHORTER = [(1, 3, 4, 4, 1, 3, 3, 1, 5, 0, 5, 0, 2, 2, 4, 3, 5),
                 (4, 3, 5, 1, 3, 4, 2, 0, 4, 2, 5, 3, 4, 2, 5, 3)]


@given(_arc_products(), st.integers(1, 6))
@example((_verified_host(3, 12), _LATE_SHORTER[0]), 5)
@example((_verified_host(3, 12), _LATE_SHORTER[0]), 6)
@example((_verified_host(3, 12), _LATE_SHORTER[1]), 3)
@example((_verified_host(3, 12), _LATE_SHORTER[1]), 4)
@settings(max_examples=200, deadline=None)
def test_swap_closure_budget_matches_one_word_search(case, budget):
    # with a small budget, one word's batched closure passes it exactly when
    # the oracle engine's search of that word alone raises, counting the
    # words seen before any shorter one, after a Dehn reduction that
    # shortens nothing; else it returns what that search returns
    p, w = case
    eng, oracle = p.engine, _oracle_engine(p)
    want = oracle.geodesic_closure(w)  # within the default budget
    with mock.patch.object(cayley_mod, "DEFAULT_CLOSURE_BUDGET", budget), \
            mock.patch.object(ball_oracle, "DEFAULT_CLOSURE_BUDGET", budget):
        if len(oracle.dehn_reduce(w)) == len(w):
            try:
                want = oracle.geodesic_closure(w)
            except BudgetExceededError:
                want = None
        found = cayley_mod._swap_closures(eng, np.array([w], dtype=np.int8).reshape(1, len(w)))
    if want is None:
        assert found.overrun == 0
    else:
        same, shorter = want
        assert _closure_of(eng, w, found) == (same if shorter is None else None, shorter)


@given(st.integers(1, 4), st.integers(0, 70), st.data())
@settings(max_examples=100, deadline=None)
def test_row_keys_order_rows_lexicographically(m, width, data):
    # the closure's dedup keys: one uint64 column per 64 // b letters, b the
    # bits of the largest letter code 2m - 1, so rows wider than that take
    # several, and they sort as the rows do
    b = (2 * m - 1).bit_length()
    codes = st.integers(0, 2 * m - 1)
    rows = data.draw(st.lists(st.lists(codes, min_size=width, max_size=width), max_size=12))
    keys = words_mod._row_keys(np.array(rows, dtype=np.int8).reshape(len(rows), width), m)
    assert len(keys) == -(-width // (64 // b))
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(rows))
    assert [rows[i] for i in order] == sorted(rows)


def _closure_of(eng, w, found=None):
    """The batched swap closure of the one word w: (the length-|w| words it
    reached, None), or (None, the first strictly shorter word); `found` is
    that closure when already run."""
    if found is None:
        found = cayley_mod._swap_closures(eng, np.array([w], dtype=np.int8).reshape(1, len(w)))
    assert found.overrun == 1
    if found.short_len[0] >= 0:
        return None, tuple(found.short[0, : found.short_len[0]].tolist())
    return {tuple(x) for x in found.same.tolist()}, None


@pytest.mark.parametrize("m, l, radius", [(2, 13, 8), (3, 12, 7), (4, 12, 6)])
def test_class_representatives_are_suspicious(monkeypatch, m, l, radius):
    # every class the batched closure keeps has a least word that holds a
    # detect window of the oracle engine's own set, though the build scans
    # no class's least word
    p = _verified_host(m, l)
    calls = _recording_closures(monkeypatch)
    ball = cayley_ball(p, radius)
    monkeypatch.undo()
    oracle = _oracle_engine(p)
    least = [tuple(found.least[i].tolist()) for _, _, found in calls
             for i in np.flatnonzero(found.label == np.arange(len(found.label)))]
    assert least and all(map(oracle.is_suspicious, least))
    # some classes are new vertices inside the ball
    assert {p.alphabet.decode(w) for w in least} & set(ball.words)


@pytest.mark.parametrize("m, l, radius, calls", [(3, 12, 7, 636), (2, 13, 8, 2704)])
def test_closure_sees_only_tails_that_start_a_rotation(monkeypatch, m, l, radius, calls):
    # a candidate goes to the closure only when its own last t_detect
    # letters start a rotation of the oracle engine's own set, not because
    # its parent did; the first host is the queries-type (3, 12, 0) host.
    # The count is of the searches that one candidate at a time would run:
    # none for a candidate that Dehn reduction shortens, or that lies in the
    # class of an earlier one
    p = _verified_host(m, l)
    recorded = _recording_closures(monkeypatch)
    cayley_ball(p, radius)
    monkeypatch.undo()
    oracle = _oracle_engine(p)
    k = p.engine.t_detect
    seen = [w for words, _, _ in recorded for w in map(tuple, words.tolist())]
    assert all(w[-k:] in oracle.detect for w in seen)
    known, ran = set(), 0
    for w in seen:
        if w in known or len(oracle.dehn_reduce(w)) < len(w):
            continue
        ran += 1
        same, shorter = oracle.geodesic_closure(w)
        if shorter is None:
            known |= same
    assert ran == calls


@pytest.mark.parametrize("m, l, radius", [(3, 12, 7), (2, 13, 8), (4, 12, 6)])
def test_swap_closures_match_the_oracle_on_every_level(monkeypatch, m, l, radius):
    # each level's batch against the oracle engine's closure of each of its
    # candidates alone: whether a shorter word exists, and then the very
    # word found first and the vertex the candidate's edge reaches, which
    # the oracle's Dehn reductions of that word and of the candidate reach
    # too (any shorter word names the same vertex); else the class, its
    # least word and the vertex it names.  Rim candidates keep no class
    p = _verified_host(m, l)
    recorded = _recording_closures(monkeypatch)
    ball = cayley_ball(p, radius)
    monkeypatch.undo()
    oracle, ab = _oracle_engine(p), p.alphabet
    vertex = {w: v for v, w in enumerate(ball.words)}
    shorter_words = larger_classes = 0
    for words, classes, found in recorded:
        assert classes == (words.shape[1] <= radius)
        for i, w in enumerate(map(tuple, words.tolist())):
            same, shorter = oracle.geodesic_closure(w)
            target = ball.adjacency[ball.vertex_of_word(ab.decode(w[:-1])), w[-1]]
            if shorter is not None:
                shorter_words += 1
                assert tuple(found.short[i, : found.short_len[i]].tolist()) == shorter
                walked = {cayley_mod._walk(ball.adjacency, v)
                          for v in (shorter, oracle.dehn_reduce(shorter), oracle.dehn_reduce(w))}
                assert walked == {target} and found.label[i] == -1
                continue
            assert found.short_len[i] == -1
            if not classes:
                assert found.label[i] == -1 and target == -1
                continue
            assert {tuple(x) for x in found.same[found.owner == i].tolist()} == same
            assert tuple(found.least[found.label[i]].tolist()) == min(same)
            assert target == vertex[ab.decode(min(same))]
            larger_classes += len(same) > 1
    assert (shorter_words > 0) == (l % 2 == 1)
    assert (larger_classes > 0) == (l % 2 == 0)


@pytest.mark.parametrize("closure_budget", [1, 6])
def test_closure_budget_matches_the_oracle(monkeypatch, odd_presentation, closure_budget):
    # a closure budget that the radius-8 ball passes, alone and beside
    # vertex budgets at the last level boundaries, either of which can come
    # first: the batch raises the oracle's error, at the candidate whose
    # closure raised in the oracle when it is an overrun
    p = odd_presentation
    monkeypatch.setattr(cayley_mod, "DEFAULT_CLOSURE_BUDGET", closure_budget)
    monkeypatch.setattr(ball_oracle, "DEFAULT_CLOSURE_BUDGET", closure_budget)
    closure = ball_oracle._OracleEngine.geodesic_closure
    searched = []

    def recording(self, w):
        searched.append(w)
        return closure(self, w)

    monkeypatch.setattr(ball_oracle._OracleEngine, "geodesic_closure", recording)
    recorded = _recording_closures(monkeypatch)
    sizes = [1, 5, 17, 53, 161, 485, 1457, 4347, 12965]  # the radius-8 ball's levels
    overruns = 0
    for budget in [DEFAULT_VERTEX_BUDGET] + [s + d for s in sizes[-4:] for d in (-1, 0, 1)]:
        got = _ball_outcome(cayley_ball, p, 8, budget)
        want = _ball_outcome(cayley_ball_oracle, p, 8, budget)
        assert got == want, budget
        if got[0] is BudgetExceededError:
            words, _, found = recorded[-1]
            assert tuple(words[found.overrun].tolist()) == searched[-1]
            overruns += 1
    assert 0 < overruns < 13


def _first_overrun(levels, oracle):
    """Where a build that searches one candidate at a time first passes the
    closure budget, as (level, candidate) among `levels`, each level's
    suspicious candidates in order, or None; and how many candidates it
    skipped before that as members of a class an earlier search found.  It
    searches, with the oracle engine, each candidate that Dehn reduction
    does not shorten and that lies in no such class."""
    known, skipped = set(), 0
    for n, words in enumerate(levels):
        for i, w in enumerate(map(tuple, words.tolist())):
            skipped += w in known
            if w in known or len(oracle.dehn_reduce(w)) < len(w):
                continue
            try:
                same, shorter = oracle.geodesic_closure(w)
            except BudgetExceededError:
                return (n, i), skipped
            if shorter is None:
                known |= same
    return None, skipped


@pytest.mark.parametrize("m, l, radius, late", [(3, 12, 7, 0), (2, 14, 9, 2)])
def test_closure_budget_matches_a_one_candidate_search(monkeypatch, m, l, radius, late):
    # even-l hosts whose classes hold two candidates, the second of which a
    # search of one candidate at a time skips and the batch searches too:
    # with closure budgets of 1 to 6 the batch raises at the candidate where
    # that search first raises, and builds the same ball where it raises
    # nowhere.  On the (2, 14, 0) host two budgets pass after 14 and 42
    # skipped members.  A later member's search cannot pass the budget where
    # the first member's did not: it reaches only words that the first
    # reached
    p = _verified_host(m, l)
    recorded = _recording_closures(monkeypatch)
    ball = cayley_ball(p, radius)
    levels = [words for words, _, _ in recorded]
    oracle = _oracle_engine(p)
    assert _first_overrun(levels, oracle)[1] > 0
    outcomes, after_skips = set(), 0
    for budget in range(1, 7):
        monkeypatch.setattr(cayley_mod, "DEFAULT_CLOSURE_BUDGET", budget)
        monkeypatch.setattr(ball_oracle, "DEFAULT_CLOSURE_BUDGET", budget)
        want, skipped = _first_overrun(levels, oracle)
        del recorded[:]
        got = _ball_outcome(cayley_ball, p, radius, DEFAULT_VERTEX_BUDGET)
        if want is None:
            assert got.words == ball.words and np.array_equal(got.adjacency, ball.adjacency)
        else:
            n, i = want
            assert got == (BudgetExceededError, f"geodesic closure exceeded {budget} words",
                           budget)
            assert len(recorded) == n + 1 and recorded[-1][2].overrun == i
            after_skips += skipped > 0
        outcomes.add(want is None)
    assert outcomes == {True, False} and after_skips == late


# verified hosts whose balls the dict-BFS oracle builds in a fraction of a
# second up to the radius given, one or two levels past l/2: odd l, where
# Dehn reduction finds words one letter shorter, and even l, where the
# closure merges classes of two or more words, at m = 2, 3 and 4
_CHEAP_HOSTS = {(2, 13): 6, (2, 15): 7, (3, 7): 4, (3, 8): 4, (3, 9): 5, (3, 10): 5,
                (4, 7): 4, (4, 8): 4}


@functools.lru_cache(maxsize=None)
def _nth_verified_host(m, l, k):
    """The k-th sample at (m, l, 0) that passes the C'(1/6) gate."""
    samples = (sample_presentation(m, l, 0, seed) for seed in itertools.count())
    return next(itertools.islice(filter(is_dehn_ready, samples), k, None))


@st.composite
def _ball_cases(draw):
    """(host, radius, at): a radius within two levels of the host's
    largest, and at None for the default budget or (level, d) for a budget
    d in -1..1 away from the ball's size up to that level."""
    (m, l), top = draw(st.sampled_from(sorted(_CHEAP_HOSTS.items())))
    radius = draw(st.integers(top - 2, top))
    budget = draw(st.none() | st.tuples(st.integers(0, radius), st.integers(-1, 1)))
    return _nth_verified_host(m, l, draw(st.integers(0, 2))), radius, budget


@given(_ball_cases())
@example((_nth_verified_host(3, 8, 0), 4, None))     # merged classes
@example((_nth_verified_host(3, 7, 0), 4, None))     # shorter words
@example((_nth_verified_host(3, 8, 0), 4, (4, -1)))  # one short of the ball
@settings(max_examples=30, deadline=None)
def test_ball_json_text_matches_bfs_oracle(case):
    # the ball built on the tail test alone is the dict BFS's, byte for byte
    # in its JSON, or fails at the same level with the same error
    p, radius, at = case
    budget = DEFAULT_VERTEX_BUDGET
    if at is not None:
        level, d = at
        budget = int(np.cumsum(np.bincount(cayley_ball(p, radius).dist))[level]) + d
    got = _ball_outcome(cayley_ball, p, radius, budget)
    want = _ball_outcome(cayley_ball_oracle, p, radius, budget)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_text(got.json_text(), json.dumps(want.to_dict(), indent=2, sort_keys=True))


def test_engine_keeps_its_largest_ball(monkeypatch, verified_presentation):
    built = []

    def recording(p, radius):
        built.append(radius)
        return cayley_ball(p, radius)

    monkeypatch.setattr(cayley_mod, "cayley_ball", recording)
    # fresh objects equal to the fixture, whose engine may hold a ball already
    p, q = (sample_presentation(3, 12, 0, seed=verified_presentation.seed) for _ in range(2))
    assert p == q == verified_presentation
    # reduced words of at most l/2 letters are Dehn-irreducible, so each
    # query asks for a ball of its own length: a larger ball serves a
    # smaller radius, and a larger radius builds
    assert [distance(p, w) for w in ("abcab", "abc", "abcabc", "abca")] == [5, 3, 6, 4]
    assert built == [5, 6]
    # and a ball of the radius asked for serves too
    assert distance(p, "cbacba") == 6
    assert built == [5, 6]
    assert p.engine.ball.radius == 6
    # an equal presentation builds its own engine, on its own index, and its
    # own ball
    assert q.engine is not p.engine
    assert q.engine.windows is q.windows
    assert q.engine.ball is None
    assert distance(q, "abc") == 3
    assert built == [5, 6, 3]


def test_fingerprint_computed_once(monkeypatch):
    p = sample_presentation(2, 8, Fraction(1, 4), seed=3)
    calls = []
    real = Presentation.serialize
    monkeypatch.setattr(Presentation, "serialize", lambda self: calls.append(1) or real(self))
    fp = p.fingerprint()
    assert p.fingerprint() == fp and len(calls) == 1
    assert fp == hashlib.sha256(real(p).encode("utf-8")).hexdigest()


def test_hyperbolicity_bound():
    assert hyperbolicity_delta_bound(100, Fraction(1, 4)) == 800
    assert hyperbolicity_delta_bound(10, 0) == 40
    vals = [hyperbolicity_delta_bound(10, Fraction(i, 100)) for i in range(0, 50, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        hyperbolicity_delta_bound(10, Fraction(1, 2))
    for l in (0, -5):
        with pytest.raises(DomainError, match="need l >= 1"):
            hyperbolicity_delta_bound(l, Fraction(1, 4))


def test_naive_closure_matches_verified(verified_presentation):
    p = verified_presentation
    ball = cayley_ball(p, 6)
    nb = naive_closure_ball(p, word_cap=7)
    rng = random.Random(5)
    ab = p.alphabet
    for _ in range(60):
        w = _random_reduced_word(ab, rng.randint(1, 6), rng)
        upper = nb.distance_upper(w)
        vid = ball.vertex_of_word(w)
        assert upper is not None
        assert upper >= ball.dist[vid]  # upper bound, never below exact
        if len(w) <= 5:
            assert upper == ball.dist[vid]  # tight well inside the cap


def test_naive_closure_finds_planted_shortcut():
    p = find_verified_presentation(3, 12, 0)
    r = p.relators[0]
    # plant a relator making the first 7 letters of r equal a 5-letter word
    planted = p.relators[0]
    # construct a cyclically reduced planted relator: w7 * x5^-1 of length 12
    ab = p.alphabet
    w7 = r[:7]
    rng = random.Random(11)
    while True:
        x5 = _random_reduced_word(ab, 5, rng)
        cand = reduce_word(w7 + inverse_word(x5), ab)
        from randomgroups.words import is_cyclically_reduced_word

        if len(cand) == 12 and is_cyclically_reduced_word(cand, ab):
            break
    target = Presentation(
        m=p.m,
        l=p.l,
        density=Fraction(1, 20),  # floor(5^(12/20)) = 2 relators
        relators=(r, cand),
        seed=0,
        parent_fingerprint=p.fingerprint(),
    )
    nb = naive_closure_ball(target, word_cap=7)
    upper = nb.distance_upper(w7)
    assert upper is not None and upper <= 5  # the shortcut is a real path


def _closure_oracle(p, cap):
    """The all-rotations scan: every reduced word within the cap, in
    generation order, against every rotation of every relator and inverse,
    repeated until a scan merges nothing.  Returns the words, the least
    member of each word's class and the quotient BFS distances by class."""
    ab = p.alphabet
    rotations = [ab.encode(s[q:] + s[:q]) for r in p.relators
                 for s in (r, inverse_word(r, ab)) for q in range(p.l)]
    nodes = [()]
    for w in nodes:
        if len(w) < cap:
            nodes += [w + (x,) for x in range(ab.size) if not w or x != w[-1] ^ 1]
    index = {w: i for i, w in enumerate(nodes)}
    root = list(range(len(nodes)))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    changed = True
    while changed:
        changed = False
        for w in nodes:
            for rho in rotations:
                b = index.get(_reduce_ints(w + rho))
                if b is not None:
                    ra, rb = find(index[w]), find(b)
                    if ra != rb:
                        root[max(ra, rb)] = min(ra, rb)
                        changed = True
    cls = [find(i) for i in range(len(nodes))]
    adj = {c: set() for c in cls}
    for i, w in enumerate(nodes):
        if w:
            adj[cls[i]].add(cls[index[w[:-1]]])
            adj[cls[index[w[:-1]]]].add(cls[i])
    dist = {cls[0]: 0}
    queue = deque([cls[0]])
    while queue:
        c = queue.popleft()
        for e in adj[c]:
            if e not in dist:
                dist[e] = dist[c] + 1
                queue.append(e)
    return nodes, cls, dist


def _assert_closure_matches_oracle(p, cap):
    nb = naive_closure_ball(p, word_cap=cap)
    nodes, cls, dist = _closure_oracle(p, cap)
    assert nb.label.tolist() == cls
    assert nb.dist.tolist() == [dist[c] for c in cls]
    # a word is reduced before it is located: a longest word with a
    # cancelling pair appended is still inside the cap, and one letter more
    # that does not cancel leaves it
    ab, w = p.alphabet, nodes[-1]
    assert nb.distance_upper(ab.decode(w + (0, 1))) == dist[cls[-1]]
    assert nb.distance_upper(ab.decode(w + (w[-1:] or (0,)))) is None


@st.composite
def _closure_cases(draw):
    m = draw(st.sampled_from([2, 3, 4]))
    l = draw(st.integers(2, 6))
    d = draw(st.sampled_from([Fraction(0), Fraction(1, 6), Fraction(1, 4)]))
    cap = draw(st.integers(1, {2: 7, 3: 5, 4: 3}[m]))
    return sample_presentation(m, l, d, seed=draw(st.integers(0, 2**32))), cap


@given(_closure_cases())
@example((sample_presentation(3, 4, 0, seed=1), 3))  # seams that cancel past k0
@example((sample_presentation(2, 3, 0, seed=0), 3))  # merges onto shorter words
@example((sample_presentation(2, 4, 0, seed=0), 0))  # the origin alone
@settings(max_examples=40, deadline=None)
def test_naive_closure_matches_all_rotations_scan(case):
    # caps below l, where short nodes are skipped, and at or above l + |w|,
    # where every rotation is tried (k0 = 0), both occur
    _assert_closure_matches_oracle(*case)


@pytest.mark.parametrize("m, l, d, cap", [
    (2, 6, Fraction(9, 10), 2),   # 377 relators; no node can merge
    (2, 6, Fraction(9, 10), 3),   # 35 of its 53 nodes merge
    (2, 8, Fraction(4, 5), 2),    # 1 131 relators
])
def test_naive_closure_matches_all_rotations_scan_on_many_relators(m, l, d, cap):
    _assert_closure_matches_oracle(sample_presentation(m, l, d, seed=0), cap)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_naive_closure_blocks_of_pairs_give_the_same_classes(monkeypatch, block):
    # the merge pairs are ranked and joined a block at a time; this ball's
    # 485 nodes fall into 106 classes of more than one node, over many more
    # pairs than the smallest blocks
    monkeypatch.setattr(cayley_mod, "CLOSURE_PAIR_BLOCK", block)
    _assert_closure_matches_oracle(sample_presentation(2, 6, Fraction(1, 6), seed=0), 5)


def test_naive_closure_below_half_l_reads_no_relator_text(monkeypatch):
    # below l/2 every node has k0 > n, so no seam query is asked and no
    # window index is built
    p = sample_presentation(2, 12, Fraction(1, 4), seed=0)

    def unread(*args):
        raise AssertionError("relator texts read")

    monkeypatch.setattr(words_mod, "_relator_texts", unread)
    nb = naive_closure_ball(p, word_cap=5)
    assert len(nb.label) == 1 + 4 * (3**5 - 1) // 2
    assert nb.label.tolist() == list(range(len(nb.label)))
    # at l/2 the longest nodes can merge, and the index is built
    with pytest.raises(AssertionError, match="relator texts read"):
        naive_closure_ball(p, word_cap=6)


def test_naive_closure_budget_allows_cap_10_at_m2():
    # the free ball at m = 2 holds 2·3^c − 1 words, so within the node budget
    # the cap is at most 10, and a merge (cap >= l/2) needs l <= 20; against
    # l = 24 every distance is the free length
    assert 2 * 3**10 - 1 <= cayley_mod.CLOSURE_NODE_BUDGET < 2 * 3**11 - 1
    p = sample_presentation(2, 24, Fraction(1, 24), seed=0)
    nb = naive_closure_ball(p, word_cap=10)
    assert len(nb.label) == 2 * 3**10 - 1
    assert nb.label.tolist() == list(range(len(nb.label)))
    assert nb.distance_upper("ab" * 5) == 10
    with pytest.raises(BudgetExceededError, match="at cap 11"):
        naive_closure_ball(p, word_cap=11)


def test_naive_closure_budget_is_refused_before_any_array(monkeypatch):
    # the free ball's size is summed one length at a time, so a cap past the
    # budget, however large, is refused before numpy makes anything
    p = sample_presentation(2, 24, Fraction(1, 24), seed=0)

    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} read")

    monkeypatch.setattr(cayley_mod, "np", NoArrays())
    for cap in (11, 10**9):
        with pytest.raises(BudgetExceededError,
                           match=f"^naive closure exceeded 300000 nodes at cap {cap}$"):
            naive_closure_ball(p, word_cap=cap)


def test_gate_engine_ball_and_closure_share_the_presentation_windows(
        monkeypatch, verified_presentation):
    # each presentation builds one window index, and the gate, the Dehn
    # engine, the ball and the naive closure all read it; the piece search
    # never runs.  Fresh copies, so no earlier test has built their index
    v = verified_presentation
    p = Presentation(m=v.m, l=v.l, density=v.density, relators=v.relators, seed=v.seed)
    target = Presentation(
        m=v.m, l=v.l, density=Fraction(1, 20),
        relators=(v.relators[0], sample_presentation(3, 12, 0, seed=9999).relators[0]),
        seed=0, parent_fingerprint=v.fingerprint(),
    )

    def unread(*args):
        raise AssertionError("piece search run")

    for name in ("max_piece_length", "_relator_coincidences", "_piece_witness"):
        monkeypatch.setattr(words_mod, name, unread)
    built = []
    init = words_mod._WindowIndex.__init__

    def counting(self, texts):
        built.append(self)
        init(self, texts)

    monkeypatch.setattr(words_mod._WindowIndex, "__init__", counting)
    assert is_dehn_ready(p)
    assert dehn_reduce(p.relators[0], p) == "1"
    assert len(cayley_ball(p, 4).words) == 1 + 6 * (5**4 - 1) // 4
    assert distance(p, "abc") == 3
    assert p.engine.windows is p.windows
    tree = init_round_tree(p, RoundTreeParams(V=2, H=4, ext_offset=1, ext_len=1, seg_len=3))
    assert not is_dehn_ready(target)
    stats = distortion_probe(tree, target, radius=3, samples=10, seed=1, word_cap=6)
    assert stats.certified + stats.inconclusive == stats.samples
    assert built == [p.windows, target.windows]


def test_scan_micro_oracle_at_d0():
    lam = Fraction(1, 3)
    exact = exact_cprime_fraction_single_relator(2, 6, lam)
    rep = cprime_genericity_scan(2, 6, lam, [Fraction(0)], trials=400, seed=9)
    cell = rep.cells[0]
    lo, hi = cell.interval()
    assert lo <= float(exact) <= hi
    assert not cell.empty


@pytest.mark.parametrize("m, l, lam, grid, trials, rows, sort_keys", [
    (2, 8, Fraction(1, 3), [Fraction(0), Fraction(1, 8)], 30, None, None),
    (3, 6, Fraction(1, 2), [Fraction(0), Fraction(1, 10)], 25, 8, None),  # 4 and 7 chunks
    (4, 5, Fraction(2, 5), [Fraction(0), Fraction(1, 10)], 20, 3, None),  # blocks of 3 and 1
    (2, 24, Fraction(1, 3), [Fraction(1, 20), Fraction(1, 10)], 30, 50, 300),  # 2 a sort, then 1
    (3, 23, Fraction(43, 46), [Fraction(1, 10)], 6, None, None),  # 66-bit keys: bytes
    (2, 33, Fraction(32, 33), [Fraction(1, 10)], 6, None, None),  # 64-bit keys: packed
])
def test_cprime_scan_passes_match_per_trial_oracle(monkeypatch, m, l, lam, grid, trials, rows,
                                                   sort_keys):
    # each cell's passes are check_c_prime of every trial's presentation,
    # sampled on its own from the derived seed, however the trials are
    # chunked and sorted
    if rows is not None:
        monkeypatch.setattr(model_mod, "_TRIAL_ROWS", rows)
    if sort_keys is not None:
        monkeypatch.setattr(words_mod, "_SORT_KEYS", sort_keys)
    rep = cprime_genericity_scan(m, l, lam, grid, trials, seed=5)
    for ci, (d, cell) in enumerate(zip(grid, rep.cells, strict=True)):
        seeds = [int(np.random.SeedSequence(5, spawn_key=(ci, t)).generate_state(1)[0])
                 for t in range(trials)]
        assert (cell.d, cell.trials) == (d, trials)
        assert cell.passes == sum(check_c_prime(sample_presentation(m, l, d, s).relators, lam)
                                  for s in seeds)


def test_scan_zero_trials_flagged():
    rep = cprime_genericity_scan(2, 6, Fraction(1, 3), [Fraction(0)], trials=0, seed=9)
    assert rep.cells[0].empty


def test_scan_directional_small():
    # small version of the directional check: more relators, less cancellation
    rep = cprime_genericity_scan(
        2, 18, Fraction(1, 3), [Fraction(1, 20), Fraction(3, 10)], trials=60, seed=4
    )
    assert rep.cells[0].passes > rep.cells[1].passes
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "d,trials,passes,p_hat,ci_low,ci_high"
