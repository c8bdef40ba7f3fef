import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomgroups.errors import (
    BudgetExceededError,
    DomainError,
    NestingError,
    ParseError,
)
from randomgroups.model import (
    Presentation,
    extend_presentation,
    integer_nth_root,
    load_presentation,
    parse_presentation,
    relator_count,
    sample_presentation,
    save_presentation,
)
from randomgroups.words import is_cyclically_reduced_word, rivin_count


def test_integer_nth_root_oracle():
    rng = random.Random(0)
    for _ in range(500):
        q = rng.randint(1, 9)
        r = rng.randint(0, 50)
        n = r**q + rng.randint(0, max(r, 1))
        got = integer_nth_root(n, q)
        assert got**q <= n < (got + 1) ** q
    big = 3**200 + 12345
    r = integer_nth_root(big, 7)
    assert r**7 <= big < (r + 1) ** 7


@given(st.integers(0, 2**5000), st.integers(1, 300))
@settings(max_examples=300, deadline=None)
def test_integer_nth_root_big_ints(n, q):
    # n beyond the float range must not pass through a float
    r = integer_nth_root(n, q)
    assert r**q <= n < (r + 1) ** q


def test_relator_count_near_density_one():
    # (2m-1)^(pl) has over a million bits here: the root's first guess used
    # to overflow a float
    assert relator_count(2, 1, Fraction(999999, 1000000)) == 2
    assert relator_count(2, 7, Fraction(99999, 100000)) == 2186


def test_relator_count_exact_values():
    assert relator_count(2, 10, Fraction(1, 5)) == 9  # 3^2 exactly
    assert relator_count(2, 12, Fraction(1, 4)) == 27  # 3^3 exactly
    assert relator_count(2, 5, 0) == 1
    # decimal strings convert by literal digits
    assert relator_count(2, 10, "0.2") == 9
    # floor taken exactly just below an integer power: dl = 199/100 * ... pick
    # d so that dl is slightly below 2: (2m-1)^(dl) < 9 -> count 8
    assert relator_count(2, 10, Fraction(199, 1000)) == 8
    assert relator_count(2, 10, Fraction(201, 1000)) == 9


def test_relator_count_budget():
    with pytest.raises(BudgetExceededError):
        relator_count(2, 100, Fraction(1, 2), budget=10**6)
    with pytest.raises(DomainError):
        relator_count(2, 10, Fraction(3, 2))
    with pytest.raises(DomainError):
        relator_count(2, 10, 0.2)  # bare floats rejected


def test_sample_presentation_basic():
    p = sample_presentation(2, 8, 0, seed=5)
    assert len(p.relators) == 1
    p2 = sample_presentation(2, 10, Fraction(1, 5), seed=7)
    assert len(p2.relators) == 9
    for r in p2.relators:
        assert len(r) == 10
        assert is_cyclically_reduced_word(r)


def test_sample_presentation_deterministic():
    a = sample_presentation(2, 10, Fraction(1, 5), seed=7)
    b = sample_presentation(2, 10, Fraction(1, 5), seed=7)
    assert a.relators == b.relators
    assert a.serialize() == b.serialize()
    c = sample_presentation(2, 10, Fraction(1, 5), seed=8)
    assert c.relators != a.relators


def test_extend_presentation_prefix():
    # note: at (m=2, l=10) the counts are floor(3^1) = 3 and floor(3^2) = 9
    base = sample_presentation(2, 10, Fraction(1, 10), seed=3)
    assert len(base.relators) == 3
    ext = extend_presentation(base, Fraction(1, 5), seed=11)
    assert len(ext.relators) == 9
    assert ext.relators[: len(base.relators)] == base.relators
    assert ext.parent_fingerprint == base.fingerprint()
    same = extend_presentation(base, base.density, seed=11)
    assert same.relators == base.relators
    with pytest.raises(NestingError):
        extend_presentation(ext, Fraction(1, 10), seed=1)


def test_extend_prefix_property_random_pairs():
    rng = random.Random(99)
    for _ in range(100):
        num = rng.randint(0, 20)
        ds = Fraction(num, 100)
        dt = Fraction(rng.randint(num, 20), 100)
        base = sample_presentation(2, 10, ds, seed=rng.randrange(2**32))
        ext = extend_presentation(base, dt, seed=rng.randrange(2**32))
        assert ext.relators[: len(base.relators)] == base.relators


def test_save_load_round_trip(tmp_path):
    p = sample_presentation(2, 10, Fraction(1, 5), seed=7)
    path = tmp_path / "p.txt"
    save_presentation(p, path)
    q = load_presentation(path)
    assert q == p
    assert q.fingerprint() == p.fingerprint()
    # byte-exact: saving again produces identical bytes
    save_presentation(q, tmp_path / "p2.txt")
    assert (tmp_path / "p.txt").read_bytes() == (tmp_path / "p2.txt").read_bytes()


def test_parse_rejects_bad_files():
    good = sample_presentation(2, 6, 0, seed=1).serialize()
    with pytest.raises(ParseError):
        parse_presentation("not a header\n")
    lines = good.splitlines()
    # non-reduced relator line
    bad = "\n".join([lines[0], lines[1], "aAbbbb"]) + "\n"
    with pytest.raises(ParseError) as e:
        parse_presentation(bad)
    assert e.value.line == 3
    # wrong length relator
    bad2 = "\n".join([lines[0], lines[1], "ab"]) + "\n"
    with pytest.raises(ParseError):
        parse_presentation(bad2)
    # count mismatch
    bad3 = "\n".join([lines[0], lines[1].replace("count=1", "count=2"), lines[2]]) + "\n"
    with pytest.raises(ParseError):
        parse_presentation(bad3)


def test_presentation_invariants_enforced():
    with pytest.raises(DomainError):
        Presentation(m=2, l=4, density=Fraction(0), relators=("ab", "ba"), seed=0)
    with pytest.raises(DomainError):
        Presentation(m=2, l=4, density=Fraction(0), relators=("abbA",), seed=0)


def test_marginal_uniformity_positionwise():
    # each relator position is marginally uniform over the N_3 = 28 words
    from scipy import stats

    words = {}
    n_words = rivin_count(2, 3)
    trials = 4000
    d = Fraction(1, 3)  # dl = 1 -> 3 relators
    counts = np.zeros((3, n_words))
    for t in range(trials):
        p = sample_presentation(2, 3, d, seed=t)
        for j, r in enumerate(p.relators):
            counts[j, words.setdefault(r, len(words))] += 1
    assert len(words) == n_words
    for j in range(3):
        assert stats.chisquare(counts[j]).pvalue > 1e-3
