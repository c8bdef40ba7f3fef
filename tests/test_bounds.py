import concurrent.futures
import math
import os
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from randomgroups.bounds import (
    rule_out_dominates,
    confdim_bounds,
    emanating_bound,
    exact_fillability,
    exact_partial_fillability_sequence,
    inductive_fill_bounds,
    mc_fillability,
    presentation_fill_probability_exact,
    q_constant,
    roundtree_lower,
    rule_out_bound,
    transfer_params,
    wilson_interval,
)
from randomgroups import bounds as bounds_mod
from randomgroups import diagrams as diagrams_mod
from randomgroups.diagrams import (
    Diagram,
    Edge,
    Face,
    belonging,
    boundary_walks,
    enumerate_diagrams,
    fill,
    glue_face,
    restrict_boundary,
    single_face_diagram,
)
from randomgroups.errors import BudgetExceededError, DomainError, PreconditionError
from randomgroups.model import _TRIAL_ROWS, relator_count, sample_presentation
from randomgroups.words import Alphabet, enumerate_cyclically_reduced


def test_rule_out_values():
    r = rule_out_bound(2, 8, Fraction(1, 4))
    assert r.value == Fraction(4, 9)
    r2 = rule_out_bound(2, 4, Fraction(1, 4))
    assert r2.value == Fraction(4, 3)  # > 1, vacuous but correct
    with pytest.raises(DomainError):
        rule_out_bound(2, 8, Fraction(1, 2))


def test_rule_out_monotone_in_l():
    vals = [rule_out_bound(2, l, Fraction(1, 4)).value_log for l in range(4, 40, 4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_log_values_match_mpmath():
    mpmath.mp.dps = 50
    for (m, l, d) in [(2, 8, Fraction(1, 4)), (3, 20, Fraction(1, 3)), (2, 100, Fraction(2, 5))]:
        r = rule_out_bound(m, l, d)
        base = 2 * m - 1
        expo = (d - Fraction(1, 2)) * l
        exact = mpmath.log(2 * m, base) + mpmath.mpf(expo.numerator) / expo.denominator
        assert abs(r.value_log - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))
    e = emanating_bound(4, 2, 10, Fraction(2, 5), Fraction(1, 2), 100, Fraction(1, 10))
    base = 3
    want = (
        mpmath.log(50, base)
        + mpmath.mpf(40 * 4) / mpmath.mpf(4) * mpmath.log(4, base)
        + mpmath.mpf(84) / 10
        + mpmath.mpf(16)
    )
    assert abs(e.value_log - float(want)) <= 1e-9 * float(want)


def test_emanating_bound_example_and_monotonicity():
    # direct substitution at (m=2, l=10, d=0.4, k=4, beta=0.5, H=100, eps=0.1):
    # log3(50) + 40 log3(4) + (2*0.5 + 40/40 + 0.1)*4 + 4*4
    e = emanating_bound(4, 2, 10, Fraction(2, 5), Fraction(1, 2), 100, Fraction(1, 10))
    want = math.log(50, 3) + 40 * math.log(4, 3) + 8.4 + 16.0
    assert abs(e.value_log - want) < 1e-12
    vals = [
        emanating_bound(k, 2, 10, Fraction(2, 5), Fraction(1, 2), 100, Fraction(1, 10)).value_log
        for k in range(1, 10)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_emanating_bound_simplification_at_k_eq_dl():
    # with k = dl, beta = 0, eps = 0 and H -> infinity the exponent collapses
    m, l, d = 2, 10, Fraction(2, 5)
    k = int(d * l)
    e = emanating_bound(k, m, l, d, 0, 10**9, 0)
    want = math.log(50, 3) + 40 * math.log(k, 3) + float(4 * d * l)
    assert abs(e.value_log - want) < 1e-4  # H large, not infinite


def test_transfer_params_values():
    tp = transfer_params(Fraction(1, 4))
    assert tp.d_t == Fraction(1, 4) and tp.epsilon == Fraction(1, 4)
    assert tp.d_s == Fraction(1, 10**7) / 64
    assert tp.beta == Fraction(1, 10**7) / 16
    assert tp.eta == Fraction(1, 10**8) / 256
    assert tp.H == Fraction(40 * 10**14 * 1024)
    with pytest.raises(DomainError):
        transfer_params(Fraction(1, 16))


def test_transfer_params_consistency_grid():
    # d_s < 1/18 and H > 2/d_s across the admissible range
    for i in range(50):
        d_t = Fraction(1, 8) + (Fraction(1, 2) - Fraction(1, 8)) * Fraction(i, 50)
        tp = transfer_params(d_t)
        assert tp.d_s < Fraction(1, 18)
        assert tp.H > 2 / tp.d_s
        assert tp.eta == tp.d_s / 40


def test_confdim_and_roundtree_lower():
    assert roundtree_lower(4, 2) == 3.0
    assert roundtree_lower(5, 5) == 2.0
    lo1, _ = confdim_bounds(2, 100, Fraction(1, 4))
    lo2, _ = confdim_bounds(2, 200, Fraction(1, 4))
    assert abs(lo2.inputs["value_float"] / lo1.inputs["value_float"] - 2.0) < 1e-9
    with pytest.raises(DomainError):
        roundtree_lower(1, 2)
    assert q_constant(2, 10, 3) == 16 * 30


def test_wilson_contains_estimate():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 500)
        k = rng.randint(0, n)
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi


def test_exact_fillability_examples():
    # single face l=3, restriction 'a' at the distinguished position: 7/28
    d = restrict_boundary(single_face_diagram(3), {0: "a"})
    fp = exact_fillability(d, 2, 3)
    assert fp.exact == Fraction(7, 28) == Fraction(1, 4)
    # no restrictions: probability 1
    assert exact_fillability(single_face_diagram(3), 2, 3).exact == 1
    # tie-flagged two-face diagram: 0
    from tests.test_diagrams import two_face_diagram

    tie = two_face_diagram(3, 1, bears=(1, 1), orientations=(1, 1), dists=(0, 0))
    assert exact_fillability(tie, 2, 3).exact == 0


def test_exact_fillability_budget():
    d = single_face_diagram(3)
    with pytest.raises(BudgetExceededError):
        exact_fillability(d, 2, 3, budget=10)


@pytest.mark.parametrize("exact", [exact_fillability, exact_partial_fillability_sequence])
def test_tuple_budget_checked_before_enumerating(monkeypatch, exact):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated words before checking the tuple budget")

    monkeypatch.setattr(bounds_mod, "enumerate_cyclically_reduced", no_enumeration)
    # 4 782 972 words of length 14 at m = 2
    with pytest.raises(BudgetExceededError):
        exact(single_face_diagram(14), 2, 14, budget=1000)
    # the message names the N^n tuples of p_n, though N^1 = 28 fits
    bigon = glue_face(single_face_diagram(3), 0, 1, bears=2)
    with pytest.raises(BudgetExceededError, match=r"^28\^2 tuples exceed the tuple budget 100$"):
        exact(bigon, 2, 3, budget=100)


def test_exact_fillability_is_the_last_term_of_the_sequence():
    rng = random.Random(11)
    for l in (3, 4):
        diagrams, _ = enumerate_diagrams(2, l)
        for d in diagrams:
            walk = boundary_walks(d)[0]
            pat = {i: "aAbB"[rng.randrange(4)] for i in rng.sample(range(len(walk)), 2)}
            for dd in (d, restrict_boundary(d, pat)):
                assert exact_fillability(dd, 2, l).exact == \
                    exact_partial_fillability_sequence(dd, 2, l)[-1]


def test_inductive_fill_bound_example():
    # single face, E_1 = 3 restricted edges, m=2: p_1 bound = 4/27
    d = restrict_boundary(single_face_diagram(4), {0: "a", 1: "b", 2: "B"})
    rep = belonging(d)
    bounds = inductive_fill_bounds(rep, 2, 4, Fraction(1, 4))
    assert bounds[0].p_bound == Fraction(4, 27)
    # no constraints: vacuous bound (2m)^n >= 1
    d2 = single_face_diagram(4)
    b2 = inductive_fill_bounds(belonging(d2), 2, 4, Fraction(1, 4))
    assert b2[0].p_bound == Fraction(4)


def test_lemma_domination_exact_small():
    # exact p_i <= 2m(2m-1)^(-E_i) p_{i-1} on a sample of restricted diagrams
    rng = random.Random(3)
    diagrams, _ = enumerate_diagrams(2, 4)
    sample = rng.sample(diagrams, 30)
    for d in sample:
        walk = boundary_walks(d)[0]
        pat = {i: "aAbB"[rng.randrange(4)] for i in rng.sample(range(len(walk)), 2)}
        rd = restrict_boundary(d, pat)
        ps = exact_partial_fillability_sequence(rd, 2, 4)
        bnds = inductive_fill_bounds(belonging(rd), 2, 4, Fraction(1, 4))
        prev = Fraction(1)
        for p_i, b in zip(ps, bnds):
            assert p_i <= Fraction(4) * Fraction(1, 3) ** b.E_i * prev
            assert p_i <= b.p_bound
            prev = p_i


def test_presentation_level_exact_rule_out():
    # n(X)=1 closed form 1-(1-q)^R, and it respects the rule-out bound when
    # the half-boundary-restricted hypothesis holds; exact rationals only
    letters = "abAB"
    for l in (4, 6):
        for shift in range(4):
            pat = {i: letters[(i + shift) % 4] for i in range(l // 2)}
            rd = restrict_boundary(single_face_diagram(l), pat)
            rep = belonging(rd)
            assert 2 * rep.restricted_count >= rep.boundary_count
            for d in (Fraction(1, 4), Fraction(1, 3)):
                p = presentation_fill_probability_exact(rd, 2, l, d)
                assert 0 <= p <= 1
                assert rule_out_dominates(p, 2, l, d)
    with pytest.raises(DomainError):
        from tests.test_diagrams import two_face_diagram

        presentation_fill_probability_exact(two_face_diagram(4, 1), 2, 4, Fraction(1, 4))


def test_mc_matches_exact_within_ci():
    # d with count 1, instance with known exact probability
    l = 4
    rd = restrict_boundary(single_face_diagram(l), {0: "a"})
    exact = presentation_fill_probability_exact(rd, 2, l, 0)
    fp = mc_fillability(rd, 2, l, 0, trials=400, seed=99)
    assert fp.ci_low <= float(exact) <= fp.ci_high
    assert fp.ci_low <= fp.estimate <= fp.ci_high
    with pytest.raises(DomainError):
        mc_fillability(rd, 2, l, 0, trials=0, seed=1)


def test_mc_deterministic_and_jobs_invariant():
    l = 4
    rd = restrict_boundary(single_face_diagram(l), {0: "a", 1: "b"})
    a = mc_fillability(rd, 2, l, Fraction(1, 4), trials=60, seed=5)
    b = mc_fillability(rd, 2, l, Fraction(1, 4), trials=60, seed=5)
    assert a.estimate == b.estimate
    c = mc_fillability(rd, 2, l, Fraction(1, 4), trials=60, seed=5, jobs=2)
    assert c.estimate == a.estimate


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, trials, workers", [
    (64, 4, 60, 4),
    (8, None, 60, None),
    (8, 16, 3, 3),
    (3, 16, 60, 3),
])
def test_mc_jobs_clamped_before_pool(monkeypatch, jobs, cpus, trials, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.created = []
    rd = restrict_boundary(single_face_diagram(4), {0: "a", 1: "b"})
    fp = mc_fillability(rd, 2, 4, Fraction(1, 4), trials=trials, seed=5, jobs=jobs)
    assert _RecordingPool.created == ([] if workers is None else [workers])
    serial = mc_fillability(rd, 2, 4, Fraction(1, 4), trials=trials, seed=5)
    assert fp.estimate == serial.estimate


@pytest.mark.parametrize("jobs", [0, -5])
def test_mc_rejects_jobs_below_one(jobs):
    rd = restrict_boundary(single_face_diagram(4), {0: "a"})
    with pytest.raises(DomainError):
        mc_fillability(rd, 2, 4, 0, trials=10, seed=1, jobs=jobs)


def test_mc_compiles_the_diagram_once(monkeypatch):
    calls = []
    real = diagrams_mod.compile_constraints

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # patched in both modules, so a per-trial `fill` would be counted too
    monkeypatch.setattr(bounds_mod, "compile_constraints", counting)
    monkeypatch.setattr(diagrams_mod, "compile_constraints", counting)
    rd = restrict_boundary(single_face_diagram(4), {0: "a"})
    mc_fillability(rd, 2, 4, Fraction(1, 4), trials=30, seed=3)
    assert calls == [rd]


def test_exact_sequence_compiles_the_diagram_once(monkeypatch):
    d = glue_face(single_face_diagram(4), 0, 2, bears=2)
    ab = Alphabet(2)
    arr = np.array([ab.encode(w) for w in enumerate_cyclically_reduced(2, 4)], dtype=np.int8)
    order = belonging(d).order
    N = len(arr)
    cons = diagrams_mod.compile_constraints(d, ab)
    per_index = [Fraction(diagrams_mod._count_partial_fillings(cons, arr, order[:i]), N**i)
                 for i in range(1, d.n + 1)]
    calls = []
    real = diagrams_mod.compile_constraints

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "compile_constraints", counting)
    monkeypatch.setattr(diagrams_mod, "compile_constraints", counting)
    assert per_index[-1] > 0
    assert exact_partial_fillability_sequence(d, 2, 4) == per_index
    assert calls == [d]


def test_exact_sequence_validates_the_diagram_once(monkeypatch):
    calls = []
    real = diagrams_mod.validate

    def counting(diagram):
        calls.append(diagram)
        return real(diagram)

    monkeypatch.setattr(diagrams_mod, "validate", counting)
    d = restrict_boundary(glue_face(single_face_diagram(3), 0, 1, bears=2), {0: "a"})
    exact_partial_fillability_sequence(d, 2, 3)
    assert calls == [d]


@pytest.mark.parametrize("l", [3, 5, 40])
def test_bounds_refuse_faces_that_are_not_l_gons(l):
    # a square restricted at all four positions
    d = restrict_boundary(single_face_diagram(4), dict(enumerate("abAB")))
    message = f"^the diagram has 4-gon faces, not l={l}$"
    if l < 40:
        for exact in (exact_fillability, exact_partial_fillability_sequence):
            with pytest.raises(PreconditionError, match=message):
                exact(d, 2, l)
        with pytest.raises(PreconditionError, match=message):
            presentation_fill_probability_exact(d, 2, l, Fraction(1, 4))
        with pytest.raises(PreconditionError, match=message):
            mc_fillability(d, 2, l, Fraction(1, 4), trials=5, seed=0)
    with pytest.raises(PreconditionError, match=message):
        inductive_fill_bounds(belonging(d), 2, l, Fraction(1, 4))


def test_inductive_refuses_faces_of_several_sizes():
    # a triangle and a square glued along edge 1
    edges = {i: Edge(i, s, t) for i, s, t in
             [(1, 0, 1), (2, 1, 2), (3, 2, 0), (4, 0, 3), (5, 3, 4), (6, 4, 1)]}
    faces = (Face(bears=1, orientation=1, boundary=(1, 2, 3)),
             Face(bears=2, orientation=1, boundary=(-1, 4, 5, 6)))
    d = Diagram(vertices=tuple(range(5)), edges=edges, faces=faces)
    rep = belonging(d)
    assert rep.face_size is None and rep.d_c == 1
    with pytest.raises(PreconditionError, match="^the diagram has faces of several sizes, not l=4$"):
        inductive_fill_bounds(rep, 2, 4, Fraction(1, 4))


def _per_trial_fills(d, l, density, trials, seed, distinct=True):
    """Whether `fill` fills d with the relators of each trial of
    `mc_fillability(d, 2, l, density, trials, seed)`, one sampled
    presentation at a time: the oracle of the block search."""
    out = []
    for t in range(trials):
        s = int(np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(1)[0])
        relators = sample_presentation(2, l, density, seed=s).relators
        out.append(fill(d, relators, mode="first", distinct=distinct) is not None)
    return out


@pytest.mark.parametrize("index", range(6))
def test_mc_hits_match_per_trial_fill(index):
    from tests.test_acceptance import _ruleout_catalogue

    trials, seed = 200, 7
    for l in (6, 8):
        d = _ruleout_catalogue(l)[index]
        hits = sum(_per_trial_fills(d, l, Fraction(1, 4), trials, seed))
        assert hits > 0
        fp = mc_fillability(d, 2, l, Fraction(1, 4), trials=trials, seed=seed)
        assert fp.estimate == hits / trials


def _enumerated_cases(kind):
    """(l, diagram) pairs at l = 3 and 4 of one kind, three enumerated
    diagrams per l, each bare and restricted at one seeded position:
    "three_faces" glues a face bearing index 3 onto a two-index diagram,
    "one_index" has two faces bearing one index (its `same` constraints),
    "tie" is never fillable and "two_index" is where `distinct` decides."""
    rng = random.Random(34)
    out = []
    for l in (3, 4):
        diagrams, _ = enumerate_diagrams(2, l)
        picked = {
            "three_faces": [glue_face(d, 0, 1, bears=3) for d in diagrams if d.n == 2],
            "one_index": [d for d in diagrams if len(d.faces) == 2 and d.n == 1
                          and not belonging(d).never_fillable],
            "tie": [d for d in diagrams if belonging(d).never_fillable],
            "two_index": [d for d in diagrams if d.n == 2],
        }[kind]
        for d in picked[:: len(picked) // 3][:3]:
            walk = boundary_walks(d)[0]
            pattern = {rng.randrange(len(walk)): "aAbB"[rng.randrange(4)]}
            out += [(l, d), (l, restrict_boundary(d, pattern))]
    return out


@pytest.mark.parametrize("kind", ["three_faces", "one_index", "tie", "two_index"])
def test_mc_hits_match_per_trial_fill_enumerated(kind):
    density, trials, seed = Fraction(2, 5), 100, 34
    cases = _enumerated_cases(kind)
    hits = loose = 0
    for l, d in cases:
        per_trial = sum(_per_trial_fills(d, l, density, trials, seed))
        fp = mc_fillability(d, 2, l, density, trials=trials, seed=seed)
        assert fp.estimate == per_trial / trials
        hits += per_trial
        loose += sum(_per_trial_fills(d, l, density, trials, seed, distinct=False))
    if kind == "three_faces":
        assert all(d.n == 3 for _, d in cases)
    assert (hits == 0) == (kind == "tie")
    # some trial has a candidate at both indices and fills them only with
    # one word twice
    assert (loose > hits) == (kind in ("three_faces", "two_index"))


def test_mc_hits_match_per_trial_fill_across_chunks():
    from tests.test_acceptance import _ruleout_catalogue

    l, density, seed = 12, Fraction(2, 5), 11
    per_chunk = _TRIAL_ROWS // relator_count(2, l, density)
    trials = per_chunk + 40
    d = _ruleout_catalogue(l)[0]
    fills = _per_trial_fills(d, l, density, trials, seed)
    assert any(fills[:per_chunk]) and any(fills[per_chunk:])
    for jobs in (1, 2):
        fp = mc_fillability(d, 2, l, density, trials=trials, seed=seed, jobs=jobs)
        assert fp.estimate == sum(fills) / trials


def test_mc_decodes_no_word(monkeypatch):
    from tests.test_acceptance import _ruleout_catalogue

    def no_decoding(self, codes):
        raise AssertionError("decoded a word")

    d = _ruleout_catalogue(6)[0]
    monkeypatch.setattr(Alphabet, "decode", no_decoding)
    assert mc_fillability(d, 2, 6, Fraction(1, 4), trials=200, seed=7).estimate > 0


def test_mc_draws_nothing_for_a_tie(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled for a diagram that is never filled")

    tie = next(d for d in enumerate_diagrams(2, 3)[0] if belonging(d).never_fillable)
    monkeypatch.setattr(bounds_mod, "_trial_relators", no_sampling)
    for jobs in (1, 2):
        assert mc_fillability(tie, 2, 3, Fraction(2, 5), trials=50, seed=0, jobs=jobs).estimate == 0


def test_mc_rejects_wrong_face_size_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the face size")

    monkeypatch.setattr(bounds_mod, "_trial_relators", no_sampling)
    with pytest.raises(PreconditionError):
        mc_fillability(single_face_diagram(4), 2, 5, Fraction(1, 4), trials=5, seed=0)


def test_trial_budget_checked_before_drawing(monkeypatch):
    from randomgroups import cayley as cayley_mod
    from randomgroups.cayley import cprime_genericity_scan
    from randomgroups.model import TRIAL_BUDGET

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the trial budget")

    monkeypatch.setattr(bounds_mod, "_trial_relators", no_sampling)
    monkeypatch.setattr(cayley_mod, "_trial_relators", no_sampling)
    triangle = single_face_diagram(3)
    for trials in (TRIAL_BUDGET + 1, 10**400):
        with pytest.raises(BudgetExceededError):
            mc_fillability(triangle, 2, 3, 0, trials=trials, seed=0)
        with pytest.raises(BudgetExceededError):
            cprime_genericity_scan(2, 8, Fraction(1, 3), [0], trials, seed=0)


def test_wilson_coverage_on_exact_instance():
    # |estimate - exact| <= CI half-width in >= 99% of repeated runs
    l = 3
    rd = restrict_boundary(single_face_diagram(l), {0: "a"})
    exact = float(presentation_fill_probability_exact(rd, 2, l, 0))
    hits = 0
    for rep in range(100):
        fp = mc_fillability(rd, 2, l, 0, trials=150, seed=1000 + rep)
        if fp.ci_low <= exact <= fp.ci_high:
            hits += 1
    assert hits >= 99
