import hashlib
import random
from collections import OrderedDict, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomgroups import cayley as cayley_mod
from randomgroups.cayley import (
    cayley_ball,
    cprime_genericity_scan,
    dehn_reduce,
    distance,
    exact_cprime_fraction_single_relator,
    hyperbolicity_delta_bound,
    is_dehn_ready,
    is_geodesic,
    naive_closure_ball,
    small_cancellation_report,
)
from randomgroups.errors import DomainError, NotVerifiedError, PartialBallError
from randomgroups.model import Presentation, sample_presentation
from randomgroups.words import Alphabet, _reduce_ints, inverse_word, reduce_word

from tests.conftest import find_verified_presentation


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
        assert small_cancellation_report(p).max_piece_length >= 2


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
    undirected = sum(len(a) for a in ball.adjacency) // 2
    assert undirected == len(ball.words) - 1


def test_ball_invariants_and_closure(verified_presentation):
    ball = cayley_ball(verified_presentation, 6)
    ball.check_invariants(samples=100, seed=1)


def test_radius_zero_and_one(verified_presentation):
    p = verified_presentation
    b0 = cayley_ball(p, 0)
    assert len(b0.words) == 1 and b0.dist == [0]
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
    js = ball.to_json()
    assert '"radius": 2' in js
    csv = ball.adjacency_csv()
    assert csv.startswith("src,dst,letter")
    # radius 6 reaches 2n >= l, where vertices are identified; the digests
    # pin the export bytes
    ball = cayley_ball(verified_presentation, 6)
    assert len(ball.words) == 23425
    assert hashlib.sha256(ball.to_json().encode()).hexdigest() == (
        "76c4184e960743940563007340f78690fea1a65b9a2e30db60c68badfbe18048")
    assert hashlib.sha256(ball.adjacency_csv().encode()).hexdigest() == (
        "d3e6c56b578fdf3b76a74140cae5616804ade3c1ae9bff2aacf43fe64a7229c1")


def test_ball_cache_is_a_bounded_lru(monkeypatch):
    built = []

    def fake_ball(p, radius, vertex_budget):
        built.append((p.seed, radius))
        return (p.seed, radius)

    monkeypatch.setattr(cayley_mod, "cayley_ball", fake_ball)
    monkeypatch.setattr(cayley_mod, "_BALL_CACHE", OrderedDict())
    size = cayley_mod._BALL_CACHE_SIZE
    ps = [sample_presentation(2, 4, 0, seed=s) for s in range(size + 1)]
    cached = cayley_mod._cached_ball
    # a larger cached ball serves a smaller radius; a larger radius builds
    assert cached(ps[0], 5, 100) == (0, 5)
    assert cached(ps[0], 3, 100) == (0, 5)
    assert cached(ps[0], 6, 100) == (0, 6)
    assert built == [(0, 5), (0, 6)]
    for p in ps[1:size - 1]:
        cached(p, 1, 100)
    assert len(cayley_mod._BALL_CACHE) == size
    # touching (0, 5) makes (0, 6) the least recently used entry
    assert cached(ps[0], 4, 100) == (0, 5)
    cached(ps[size - 1], 1, 100)
    assert len(cayley_mod._BALL_CACHE) == size
    assert (ps[0].fingerprint(), 6) not in cayley_mod._BALL_CACHE
    assert (ps[0].fingerprint(), 5) in cayley_mod._BALL_CACHE
    del built[:]
    assert cached(ps[0], 6, 100) == (0, 6)
    assert built == [(0, 6)]
    assert (ps[1].fingerprint(), 1) not in cayley_mod._BALL_CACHE


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


def test_naive_closure_matches_verified(verified_presentation):
    p = verified_presentation
    ball = cayley_ball(p, 6)
    nb = naive_closure_ball(p, word_cap=7, node_budget=400_000)
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
    nb = naive_closure_ball(target, word_cap=7, node_budget=400_000)
    upper = nb.distance_upper(w7)
    assert upper is not None and upper <= 5  # the shortcut is a real path


def _closure_oracle(p, nb, passes):
    """The all-rotations scan: every node of nb's free ball against every
    rotation of every relator and inverse.  Returns the least member of each
    node's class, the quotient BFS distances by class and `saturated`."""
    ab = p.alphabet
    rotations = [ab.encode(s[q:] + s[:q]) for r in p.relators
                 for s in (r, inverse_word(r, ab)) for q in range(p.l)]
    index = nb._index
    nodes = sorted(index, key=index.get)
    root = list(range(len(nodes)))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    saturated = False
    for _ in range(passes):
        changed = False
        for w in nodes:
            for rho in rotations:
                b = index.get(_reduce_ints(w + rho))
                if b is not None:
                    ra, rb = find(index[w]), find(b)
                    if ra != rb:
                        root[max(ra, rb)] = min(ra, rb)
                        changed = True
        if not changed:
            saturated = True
            break
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
    return cls, dist, saturated


@st.composite
def _closure_cases(draw):
    m = draw(st.sampled_from([2, 3]))
    l = draw(st.integers(2, 6))
    d = draw(st.sampled_from([Fraction(0), Fraction(1, 6), Fraction(1, 4)]))
    cap = draw(st.integers(1, 7 if m == 2 else 5))
    return sample_presentation(m, l, d, seed=draw(st.integers(0, 2**32))), cap


@given(_closure_cases())
@settings(max_examples=40, deadline=None)
def test_naive_closure_matches_all_rotations_scan(case):
    # caps below l, where short nodes are skipped, and at or above l + |w|,
    # where every rotation is tried (k0 = 0), both occur
    p, cap = case
    for passes in (1, 3):
        nb = naive_closure_ball(p, word_cap=cap, passes=passes)
        cls, dist, saturated = _closure_oracle(p, nb, passes)
        assert [nb._find(i) for i in range(len(cls))] == cls
        assert nb._dist == dist
        assert nb.saturated == saturated


def test_scan_micro_oracle_at_d0():
    lam = Fraction(1, 3)
    exact = exact_cprime_fraction_single_relator(2, 6, lam)
    rep = cprime_genericity_scan(2, 6, lam, [Fraction(0)], trials=400, seed=9)
    cell = rep.cells[0]
    lo, hi = cell.interval()
    assert lo <= float(exact) <= hi
    assert not cell.empty


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
