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
    belonging,
    boundary_walks,
    enumerate_diagrams,
    fill,
    glue_face,
    restrict_boundary,
    single_face_diagram,
)
from randomgroups.errors import BudgetExceededError, DomainError, PreconditionError
from randomgroups.model import sample_presentation
from randomgroups.words import Alphabet, enumerate_cyclically_reduced, rivin_count


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
    assert tp.epsilon == Fraction(1, 4)
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
    per_index = [Fraction(diagrams_mod.count_partial_fillings_vectorized(d, arr, i, ab, order),
                          N**i) for i in range(1, d.n + 1)]
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


@pytest.mark.parametrize("index", [0, 3])
def test_mc_hits_match_per_trial_fill(index):
    from tests.test_acceptance import _ruleout_catalogue

    l, trials, seed = 6, 200, 7
    d = _ruleout_catalogue(l)[index]
    hits = 0
    for t in range(trials):
        s = int(np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(1)[0])
        relators = sample_presentation(2, l, Fraction(1, 4), seed=s).relators
        hits += fill(d, relators, mode="first") is not None
    assert hits > 0
    fp = mc_fillability(d, 2, l, Fraction(1, 4), trials=trials, seed=seed)
    assert fp.estimate == hits / trials


def test_mc_rejects_wrong_face_size_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the face size")

    monkeypatch.setattr(bounds_mod, "sample_presentation", no_sampling)
    with pytest.raises(PreconditionError):
        mc_fillability(single_face_diagram(4), 2, 5, Fraction(1, 4), trials=5, seed=0)


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
