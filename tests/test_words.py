import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomgroups import words
from randomgroups.errors import (
    BudgetExceededError,
    DomainError,
    HeterogeneousLengthError,
    MalformedWordError,
)
from randomgroups.words import (
    Alphabet,
    CyclicWord,
    check_c_prime,
    cyclically_reduce,
    enumerate_cyclically_reduced,
    has_piece_of_length,
    inverse_word,
    is_cyclically_reduced_word,
    max_piece_length,
    max_piece_length_quadratic,
    reduce_word,
    rivin_count,
    sample_cyclically_reduced,
    sample_cyclically_reduced_batch,
)

from tests.conftest import relator_sets


def test_alphabet_round_trip():
    ab = Alphabet(2)
    assert ab.letters == "aAbB"
    assert ab.encode("aAbB") == (0, 1, 2, 3)
    assert ab.decode(()) == "1"
    assert ab.encode("1") == ()


def test_alphabet_rejects_bad_letters():
    ab = Alphabet(2)
    with pytest.raises(MalformedWordError):
        ab.encode("abc")  # c outside 2-generator alphabet
    with pytest.raises(MalformedWordError):
        ab.encode("a?b")
    with pytest.raises(DomainError):
        Alphabet(0)
    with pytest.raises(DomainError):
        Alphabet(27)


def test_reduce_examples():
    assert reduce_word("aA") == "1"
    assert reduce_word("abBA") == "1"
    assert reduce_word("abA") == "abA"


def test_cyclic_reduce_examples():
    assert cyclically_reduce("Aba").word == "b"
    assert cyclically_reduce("ab").word == "ab"
    assert cyclically_reduce("aBAb").word == "aBAb"


def test_canonical_rotation_is_lex_least():
    cw = cyclically_reduce("ba")
    assert cw.canonical == "ab"
    # letter order is a < A < b < B
    cw2 = CyclicWord.from_word("bA")
    assert cw2.canonical == "Ab"


word_strategy = st.text(alphabet="aAbBcC", min_size=0, max_size=30)


@given(word_strategy)
@settings(max_examples=200)
def test_reduce_idempotent(w):
    r = reduce_word(w, Alphabet(3))
    assert reduce_word(r, Alphabet(3)) == r


@given(word_strategy, st.integers(min_value=0, max_value=29))
@settings(max_examples=200)
def test_cyclic_reduce_rotation_stable(w, k):
    ab = Alphabet(3)
    cw = cyclically_reduce(w, ab)
    if len(cw) <= 1:
        return
    s = cw.word
    rot = s[k % len(s):] + s[: k % len(s)]
    assert cyclically_reduce(rot, ab).canonical == cw.canonical


# Frozen [DERIVED] values: exhaustive enumeration of all reduced strings of
# the stated length, discarding those with last letter inverse to the first.
def _brute_cyclically_reduced(m, l):
    ab = Alphabet(m)
    out = []

    def rec(prefix):
        if len(prefix) == l:
            if l == 1 or prefix[-1] != (prefix[0] ^ 1):
                out.append(ab.decode(prefix))
            return
        for x in range(2 * m):
            if prefix and x == (prefix[-1] ^ 1):
                continue
            rec(prefix + [x])

    rec([])
    return out


def test_rivin_small_values():
    assert rivin_count(2, 1) == 4 == len(_brute_cyclically_reduced(2, 1))
    assert rivin_count(2, 2) == 12 == len(_brute_cyclically_reduced(2, 2))
    assert rivin_count(2, 3) == 28 == len(_brute_cyclically_reduced(2, 3))


def test_rivin_matches_enumeration_all_small():
    for m in (2, 3):
        ab = Alphabet(m)
        for l in range(1, 9):
            got = enumerate_cyclically_reduced(m, l)
            assert len(got) == rivin_count(m, l)
            # lexicographic in the declared letter order a < A < b < B < ...
            assert got == sorted(got, key=ab.encode)
            assert len(set(got)) == len(got)


def test_enumeration_order_and_contents():
    assert enumerate_cyclically_reduced(2, 1) == ["a", "A", "b", "B"]
    for w in enumerate_cyclically_reduced(2, 2):
        assert is_cyclically_reduced_word(w)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError) as e:
        enumerate_cyclically_reduced(2, 20, budget=1000)
    assert "1000" in str(e.value)


def test_sampler_contract():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = sample_cyclically_reduced(2, 9, rng)
        assert is_cyclically_reduced_word(w)
        assert len(w) == 9
    with pytest.raises(DomainError):
        sample_cyclically_reduced(1, 5, rng)


def test_sampler_support_matches_enumeration():
    # support equality at m=2 for every l <= 3, 1e5 draws at l=3
    rng = np.random.default_rng(123)
    ab = Alphabet(2)
    for l, draws in ((1, 2000), (2, 5000), (3, 100_000)):
        enumerated = set(enumerate_cyclically_reduced(2, l))
        batch = sample_cyclically_reduced_batch(2, l, draws, rng)
        seen = {ab.decode(int(x) for x in row) for row in batch}
        assert seen == enumerated


def test_sampler_uniform_chi_square():
    from scipy import stats

    rng = np.random.default_rng(2024)
    allwords = enumerate_cyclically_reduced(2, 3)
    idx = {w: i for i, w in enumerate(allwords)}
    counts = np.zeros(len(allwords))
    ab = Alphabet(2)
    batch = sample_cyclically_reduced_batch(2, 3, 100_000, rng)
    for row in batch:
        counts[idx[ab.decode(int(x) for x in row)]] += 1
    res = stats.chisquare(counts)
    assert res.pvalue > 1e-3


def test_piece_examples():
    # {"abab"}: "aba" occurs at cyclic positions 0 and 2  -> 3
    assert max_piece_length_quadratic(["abab"]) == 3
    rep = max_piece_length(["abab"])
    assert rep.max_piece_length == 3
    assert rep.witness is not None and len(rep.witness.subword) == 3
    # {"ab"}: no repeated subword among rotations/inverses -> 0
    assert max_piece_length_quadratic(["ab"]) == 0
    assert max_piece_length(["ab"]).max_piece_length == 0
    # empty set
    assert max_piece_length([]).max_piece_length == 0


def test_piece_witness_is_genuine():
    rng = random.Random(5)
    for _ in range(30):
        rels = _random_relators(rng, m=2, l=rng.randint(3, 10), count=rng.randint(1, 4))
        rep = max_piece_length(rels)
        if rep.max_piece_length == 0:
            continue
        w = rep.witness
        assert len(w.subword) == rep.max_piece_length
        assert w.first != w.second
        for (ri, pos, orient) in (w.first, w.second):
            r = rels[ri] if orient == 1 else inverse_word(rels[ri])
            doubled = r + r
            assert doubled[pos : pos + len(w.subword)] == w.subword


def _random_relators(rng, m, l, count):
    rels = []
    while len(rels) < count:
        w = [rng.randrange(2 * m)]
        for _ in range(l - 1):
            c = rng.randrange(2 * m - 1)
            c = c if c < (w[-1] ^ 1) else c + 1
            w.append(c)
        if l == 1 or w[-1] != (w[0] ^ 1):
            rels.append(Alphabet(m).decode(w))
    return rels


def test_piece_suffix_structure_matches_quadratic_oracle():
    rng = random.Random(42)
    for _ in range(200):
        l = rng.randint(2, 12)
        rels = _random_relators(rng, 2, l, rng.randint(1, 5))
        assert max_piece_length(rels).max_piece_length == max_piece_length_quadratic(rels)


def test_piece_invariant_under_rotation_and_inverse():
    rng = random.Random(9)
    for _ in range(40):
        l = rng.randint(3, 10)
        rels = _random_relators(rng, 2, l, 3)
        base = max_piece_length(rels).max_piece_length
        i = rng.randrange(3)
        k = rng.randrange(l)
        variant = list(rels)
        variant[i] = variant[i][k:] + variant[i][:k]
        assert max_piece_length(variant).max_piece_length == base
        variant[i] = inverse_word(variant[i])
        assert max_piece_length(variant).max_piece_length == base


def test_has_piece_of_length_consistent_with_max():
    rng = random.Random(11)
    for _ in range(60):
        l = rng.randint(2, 10)
        rels = _random_relators(rng, 2, l, rng.randint(1, 4))
        mp = max_piece_length_quadratic(rels)
        for L in range(1, l):
            assert has_piece_of_length(rels, L) == (mp >= L)


@given(relator_sets())
@settings(max_examples=300, deadline=None)
def test_has_piece_of_length_matches_quadratic_oracle(case):
    _m, rels = case
    mp = max_piece_length_quadratic(rels)
    for L in range(1, len(rels[0]) + 2):
        assert has_piece_of_length(rels, L) == (mp >= L)


def test_check_c_prime_examples():
    assert check_c_prime(["abab"], Fraction(1, 2)) is False  # piece 3 >= 2
    assert check_c_prime(["ab"], Fraction(1, 6)) is True  # 0 < 1/3
    assert check_c_prime([], Fraction(1, 6)) is True
    with pytest.raises(HeterogeneousLengthError):
        check_c_prime(["ab", "abab"], Fraction(1, 6))
    with pytest.raises(DomainError):
        check_c_prime(["ab"], Fraction(3, 2))


def test_check_c_prime_matches_strict_definition():
    rng = random.Random(3)
    for _ in range(80):
        l = rng.randint(2, 12)
        rels = _random_relators(rng, 2, l, rng.randint(1, 4))
        mp = max_piece_length_quadratic(rels)
        for lam in (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            assert check_c_prime(rels, lam) == (mp * lam.denominator < lam.numerator * l)


def test_relator_coincidences_reported():
    rep = max_piece_length(["abab", "abab"])
    assert (0, 1) in rep.relator_coincidences
    # rotation of the inverse is also a coincidence
    w = "aabAB"
    rot_inv = inverse_word(w)[2:] + inverse_word(w)[:2]
    rep2 = max_piece_length([w, rot_inv])
    assert (0, 1) in rep2.relator_coincidences
