import itertools
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randomgroups import words
from randomgroups.errors import (
    BudgetExceededError,
    DomainError,
    HeterogeneousLengthError,
    MalformedWordError,
)
from randomgroups.model import _relator_codes, sample_presentation
from randomgroups.words import (
    _CHARS,
    Alphabet,
    CyclicWord,
    PieceWitness,
    check_c_prime,
    cyclically_reduce,
    enumerate_cyclically_reduced,
    has_piece_of_length,
    inverse_word,
    is_cyclically_reduced_word,
    max_piece_length,
    reduce_word,
    rivin_count,
    sample_cyclically_reduced,
)

from tests.conftest import long_relator_sets, relator_sets
from tests.oracles import max_piece_length_quadratic


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
    for l in range(1, 5):
        every = ["".join(w) for w in itertools.product("aAbB", repeat=l)]
        assert [w for w in every if is_cyclically_reduced_word(w)] == \
            enumerate_cyclically_reduced(2, l)
    assert is_cyclically_reduced_word("1")


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
    # support equality at m=2 for every l <= 3, 1e5 draws at l=3, on the
    # relator streams that presentations use
    ab = Alphabet(2)
    for l, draws in ((1, 2000), (2, 5000), (3, 100_000)):
        enumerated = set(enumerate_cyclically_reduced(2, l))
        batch = _relator_codes(2, l, 123, np.arange(draws))
        seen = {ab.decode(int(x) for x in row) for row in batch}
        assert seen == enumerated


def test_sampler_uniform_chi_square():
    from scipy import stats

    allwords = enumerate_cyclically_reduced(2, 3)
    idx = {w: i for i, w in enumerate(allwords)}
    counts = np.zeros(len(allwords))
    ab = Alphabet(2)
    batch = _relator_codes(2, 3, 2024, np.arange(100_000))
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
    # l = 0: no window, yet two empty relators coincide
    assert max_piece_length(["1", "1"]).relator_coincidences == [(0, 1)]


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


@st.composite
def _c_prime_blocks(draw):
    """(l, trials, λ): T presentations of one relator length l and one
    relator count R (0 included), each cut from a `relator_sets` or a
    `long_relator_sets` draw at that l, so trials on fewer generators sit
    beside trials on more; at the long lengths the block's key bits can
    exceed one trial's, and the threshold ceil(λl) = L, drawn from 1..l,
    falls on both sides of the packed-key width."""
    long = draw(st.booleans())
    l = draw(st.sampled_from([21, 22, 23, 32, 33, 34]) if long else st.integers(1, 12))
    sets = long_relator_sets if long else relator_sets
    trials = [draw(sets(l=l))[1] for _ in range(draw(st.integers(1, 5)))]
    R = draw(st.integers(0, min(map(len, trials))))
    L = draw(st.integers(1, l))
    return l, [rels[:R] for rels in trials], Fraction(2 * L - 1, 2 * l)


def _code_block(l, trials):
    """The (T, R, l) int8 letter codes of T presentations of R relators."""
    ab = Alphabet(4)
    return np.array([[ab.encode(r) for r in rels] for rels in trials],
                    dtype=np.int8).reshape(len(trials), len(trials[0]), l)


@given(_c_prime_blocks())
@example((5, [[], [], []], Fraction(1, 3)))                       # no relators
@example((4, [["abab"], ["abAB"]], Fraction(1, 2)))               # one relator
@example((6, [["ababab"], ["aaaaaa"], ["abAB" + "ab"]], Fraction(11, 12)))  # ceil(λl) = l
@example((23, [["B" * 23, "B" * 22 + "a"], ["cab" + "a" * 20, "cbAbabCbcaBcbcAbcbaCabc"]],
          Fraction(43, 46)))                                       # packed alone, bytes in the block
@settings(max_examples=400, deadline=None)
def test_c_prime_block_matches_oracles(case):
    l, trials, lam = case
    block = _code_block(l, trials)
    mask = words._c_prime_block(block, lam)
    assert mask.shape == (len(trials),) and mask.dtype == bool
    per_trial = [check_c_prime(rels, lam) for rels in trials]
    quadratic = [max_piece_length_quadratic(rels) * lam.denominator < lam.numerator * l
                 for rels in trials]
    assert mask.tolist() == per_trial == quadratic
    # sorts of one and of two trials' keys, each slice with its own key bits
    for sort_keys in (1, 2 * block.shape[1] * 2 * l):
        with patch.object(words, "_SORT_KEYS", sort_keys):
            assert words._c_prime_block(block, lam).tolist() == quadratic
    if -(-lam.numerator * l // lam.denominator) == l:
        assert mask.all()  # a piece is at most l - 1 letters


def test_c_prime_block_key_width_follows_the_block():
    # at L = 22 a trial on 2 generators packs its keys alone (44 bits), but
    # beside a trial that needs a third generator every key takes 3 bits a
    # letter (66 bits) and the block sorts byte rows: the verdicts agree
    trials = [["B" * 23, "B" * 22 + "a"], ["cab" + "a" * 20, "cbAbabCbcaBcbcAbcbaCabc"]]
    block = _code_block(23, trials)
    assert words._slot_keys(words._relator_texts(block[:1]), 22).dtype == np.uint64
    assert words._slot_keys(words._relator_texts(block), 22).dtype.kind == "V"
    lam = Fraction(43, 46)
    assert words._c_prime_block(block[:1], lam).tolist() == [False]
    assert words._c_prime_block(block, lam).tolist() == [False, True]
    assert [check_c_prime(rels, lam) for rels in trials] == [False, True]


def test_c_prime_block_rejects_bad_relators_in_any_trial():
    block = _code_block(3, [["abb"], ["aBA"]])  # 'aBA' is not cyclically reduced
    with pytest.raises(MalformedWordError, match="'aBA'"):
        words._c_prime_block(block, Fraction(1, 3))
    with pytest.raises(DomainError):
        words._c_prime_block(block, Fraction(3, 2))


class _SuffixAutomaton:
    """Generalized suffix automaton over int sequences joined by unique separators.

    Tracks, per state, up to two distinct occurrence slots (text id, end mod l)
    so that repeated-in-two-distinct-ways queries are exact.
    """

    def __init__(self):
        self.next: list[dict[int, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        self.own: list[tuple[int, int] | None] = [None]  # (text id, end index)
        self.last = 0

    def extend(self, c: int, occ: tuple[int, int] | None):
        cur = len(self.next)
        self.next.append({})
        self.length.append(self.length[self.last] + 1)
        self.link.append(0)
        self.own.append(occ)
        p = self.last
        while p >= 0 and c not in self.next[p]:
            self.next[p][c] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.next[p][c]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = len(self.next)
                self.next.append(dict(self.next[q]))
                self.length.append(self.length[p] + 1)
                self.link.append(self.link[q])
                self.own.append(None)
                while p >= 0 and self.next[p].get(c) == q:
                    self.next[p][c] = clone
                    p = self.link[p]
                self.link[q] = self.link[cur] = clone
        self.last = cur


def _witness_from_state(d, rows, l, plen) -> PieceWitness:
    occs = list(d.values())[:2]
    slots = []
    sub = None
    for tid, end in occs:
        start_in_text = end - plen + 1
        if sub is None:
            sub = "".join(_CHARS[x] for x in rows[tid][start_in_text : end + 1])
        slots.append((tid // 2, start_in_text % l, 1 - 2 * (tid % 2)))
    return PieceWitness(first=slots[0], second=slots[1], subword=sub)


def _automaton_report(relators):
    """The full-automaton piece report: one suffix automaton over every
    doubled text; the witness oracle for `max_piece_length`."""
    texts = words._relator_texts(relators)
    l = words._text_length(texts)
    report = words.PieceReport(0, None, {}, words._relator_coincidences(texts), l)
    if l >= 2:
        rows = texts.tolist()
        sam = _SuffixAutomaton()
        for tid, t in enumerate(rows):
            for pos, c in enumerate(t):
                sam.extend(c, (tid, pos))
            sam.extend(-1 - tid, None)
        nstates = len(sam.length)
        slots = [dict() for _ in range(nstates)]

        def add_slot(v, occ):
            if len(slots[v]) < 2:
                slots[v].setdefault((occ[0], occ[1] % l), occ)

        for v in range(nstates):
            if sam.own[v] is not None:
                add_slot(v, sam.own[v])
        for v in sorted(range(nstates), key=lambda v: sam.length[v], reverse=True):
            if sam.link[v] > 0:
                for occ in slots[v].values():
                    add_slot(sam.link[v], occ)
        best_v, best_len = -1, 0
        for v in range(1, nstates):
            if len(slots[v]) >= 2 and min(sam.length[v], l - 1) > best_len:
                best_len, best_v = min(sam.length[v], l - 1), v
        if best_v >= 0:
            report.max_piece_length = best_len
            report.witness = _witness_from_state(slots[best_v], rows, l, best_len)
    report.lambda_threshold_passed = {lam: report.passes(lam) for lam in words._DEFAULT_LAMBDAS}
    return report


@given(relator_sets())
@example((2, []))
@example((2, ["1"]))
@example((2, ["1", "1"]))
@example((2, ["a"]))
@example((2, ["a", "a"]))
@example((2, ["a", "A", "b"]))
@example((2, ["aa", "AA"]))
@example((2, ["abab"]))
@example((2, ["abab", "abab"]))
@example((3, ["abcabc", "CBACBA", "bcabca"]))
# the winning piece "a" begins text 0, so its class owns a stream prefix
@example((2, ["aa", "AB"]))
# two child classes tie on length, so creation order picks the second slot;
# ordering tied classes by first occurrence gives (6, 1, 1), not (5, 1, 1)
@example((2, ["ABB", "aaa", "AAB", "BaB", "aaa", "AAB", "BAB"]))
@settings(max_examples=1000, deadline=None)
def test_max_piece_length_matches_full_automaton(case):
    # relator_sets yields capped sets (periodic relators, repeated relators)
    # and uncapped ones; every report field must agree, witness slots included
    _m, rels = case
    assert max_piece_length(rels) == _automaton_report(rels)


@given(long_relator_sets())
@example((2, ["B" * 32, "B" * 31 + "a"]))
@example((2, ["B" * 33, "B" * 32 + "a", "a" + "B" * 32]))
@example((4, ["D" * 22, "D" * 21 + "a"]))
@settings(max_examples=200, deadline=None)
def test_pieces_match_oracles_at_key_width(case):
    # windows of length l - 1 and l fall on both sides of 64 bits, so the
    # packed keys and the byte-row fallback both meet every oracle
    _m, rels = case
    mp = max_piece_length_quadratic(rels)
    report = max_piece_length(rels)
    assert report == _automaton_report(rels)
    assert report.max_piece_length == mp
    assert report.relator_coincidences == _coincidences_by_string(rels)
    for L in range(1, len(rels[0]) + 1):
        assert has_piece_of_length(rels, L) == (mp >= L)


def _check_longest_piece(rels):
    """The window index's longest piece against the all-pairs scan, its
    repeats against the string rotations (some rotation lies at two slots),
    and its gate against the report of `max_piece_length`."""
    l = len(rels[0])
    report = max_piece_length(rels)
    index = words._relator_windows(rels)
    rotations = [(s + s)[q : q + l] for r in rels for s in (r, inverse_word(r))
                 for q in range(l)]
    assert index.repeats == (len(set(rotations)) < len(rotations))
    assert index.longest_piece == max_piece_length_quadratic(rels)
    if index.repeats:
        assert index.longest_piece == l - 1
    if report.relator_coincidences:
        assert index.repeats
    lam = Fraction(1, 6)
    gate = not index.repeats and index.longest_piece * lam.denominator < lam.numerator * l
    assert gate == (report.passes(lam) and not report.relator_coincidences)


@given(relator_sets())
@example((2, ["abab"]))
@example((2, ["aabAB", "ABaab"]))  # a relator and a rotation of its inverse
@example((2, ["a", "A"]))  # l = 1: a piece of 0 letters, but a repeat
@example((2, ["a", "b"]))
@settings(max_examples=1000, deadline=None)
def test_longest_piece_matches_max_piece_length(case):
    _m, rels = case
    _check_longest_piece(rels)


@given(long_relator_sets())
@example((2, ["B" * 32, "B" * 31 + "a"]))
@example((2, ["B" * 33, "B" * 32 + "a", "a" + "B" * 32]))
@settings(max_examples=300, deadline=None)
def test_longest_piece_at_key_width(case):
    # length-l keys are packed at l·b <= 64 and byte rows above it
    _m, rels = case
    _check_longest_piece(rels)


def test_longest_piece_gates_on_repeats_alone():
    # at l = 1 the piece bound 0·6 < 1 holds, so only the repeat fails the gate
    index = words._relator_windows(["a", "A"])
    assert (index.repeats, index.longest_piece) == (True, 0)
    index = words._relator_windows(["a", "b"])
    assert (index.repeats, index.longest_piece) == (False, 0)
    index = words._relator_windows(["abab"])
    assert (index.repeats, index.longest_piece) == (True, 3)


@pytest.mark.parametrize("rels", [[], ["1"], ["1", "1"]])
def test_relator_windows_without_windows(rels):
    # no relator, or relators of length 0: the index holds no key
    index = words._relator_windows(rels)
    assert (len(index.keys), index.repeats, index.longest_piece) == (0, False, 0)


def test_bit_length_is_exact_at_key_width():
    values = [0, 1, 2, 3] + [v for k in range(2, 65) for v in (2**k - 1, 2**k - 2, 2 ** (k - 1) + 1)]
    rng = random.Random(1)
    values += [rng.getrandbits(rng.randint(1, 64)) for _ in range(1000)]
    got = words._bit_length(np.array(values, dtype=np.uint64))
    assert got.tolist() == [v.bit_length() for v in values]


@pytest.mark.parametrize("m, l, d", [
    (2, 8, Fraction(1, 5)), (2, 12, Fraction(1, 4)), (2, 16, Fraction(3, 10)),
    (3, 8, Fraction(1, 4)), (3, 10, Fraction(1, 3)), (2, 14, Fraction(1, 10)),
    (2, 20, Fraction(3, 10)),
])
def test_max_piece_length_matches_full_automaton_on_samples(m, l, d):
    for seed in range(4):
        rels = list(sample_presentation(m, l, d, seed=seed).relators)
        assert max_piece_length(rels) == _automaton_report(rels)


_LAMBDAS = (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


@given(relator_sets())
@settings(max_examples=300, deadline=None)
def test_lambda_flags_match_check_c_prime(case):
    _m, rels = case
    report = max_piece_length(rels)
    assert report.lambda_threshold_passed == {
        lam: check_c_prime(rels, lam) for lam in words._DEFAULT_LAMBDAS}
    assert [report.passes(lam) for lam in _LAMBDAS] == [check_c_prime(rels, lam) for lam in _LAMBDAS]


def test_relator_coincidences_reported():
    rep = max_piece_length(["abab", "abab"])
    assert (0, 1) in rep.relator_coincidences
    # rotation of the inverse is also a coincidence
    w = "aabAB"
    rot_inv = inverse_word(w)[2:] + inverse_word(w)[:2]
    rep2 = max_piece_length([w, rot_inv])
    assert (0, 1) in rep2.relator_coincidences


def _coincidences_by_string(rels):
    """Pairs of relators equal as unoriented cyclic words, from the canonical
    rotations of each relator and its inverse as strings."""
    canon = [min(cyclically_reduce(w).canonical, cyclically_reduce(inverse_word(w)).canonical)
             for w in rels]
    return [(i, j) for i in range(len(canon)) for j in range(i + 1, len(canon))
            if canon[i] == canon[j]]


@given(relator_sets())
@example((2, ["1", "1"]))
@settings(max_examples=300, deadline=None)
def test_relator_coincidences_match_string_oracle(case):
    _m, rels = case
    assert max_piece_length(rels).relator_coincidences == _coincidences_by_string(rels)


@given(relator_sets())
@settings(max_examples=200, deadline=None)
def test_slot_windows_match_string_slots(case):
    m, rels = case
    ab = Alphabet(m)
    l = len(rels[0])
    texts = words._relator_texts(rels)
    for L in range(1, l + 1):
        want = [(s + s)[q : q + L] for r in rels for s in (r, inverse_word(r, ab))
                for q in range(l)]
        got = words._slot_view(texts, L)
        assert got.shape == (2 * len(rels), l, L)
        assert [ab.decode(row) for row in got.reshape(-1, L).tolist()] == want


@given(m=st.sampled_from([2, 3, 4]), l=st.integers(1, 34), trials=st.integers(0, 3),
       R=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(m=2, l=32, trials=0, R=3, seed=0)  # l·b = 64: the widest rotations
@example(m=2, l=32, trials=3, R=2, seed=1)
@example(m=2, l=33, trials=0, R=3, seed=0)  # one letter past: keyed window by window
@example(m=2, l=33, trials=2, R=2, seed=1)
@example(m=3, l=22, trials=0, R=3, seed=0)
@example(m=3, l=22, trials=2, R=2, seed=1)
@settings(max_examples=150, deadline=None)
def test_slot_keys_from_rotations_match_window_keys(m, l, trials, R, seed):
    # the texts of one presentation (trials = 0) or of a block of them; the
    # first relator is the power of the last letter, so the texts need all
    # b bits and hold the largest key (all ones at m = 2, l = 32)
    rng = np.random.default_rng(seed)
    ab = Alphabet(m)
    codes = np.array([ab.encode(sample_cyclically_reduced(m, l, rng))
                      for _ in range(max(trials, 1) * R)], dtype=np.int8).reshape(-1, R, l)
    codes[0, 0] = 2 * m - 1
    texts = words._relator_texts(codes if trials else codes[0])
    b = words._key_bits(texts)
    assert b == (2 * m - 1).bit_length()
    for L in range(1, l + 1):
        want = words._window_keys(words._slot_view(texts, L), b)
        got = words._slot_keys(texts, L)
        assert got.shape == texts.shape[:-2] + (texts.shape[-2] * l,)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), L
        # the wrapped letters or'ed a few rows at a time, in blocks of 1 to 5
        # rows, as the largest presentations are
        with patch.object(words, "_KEY_BLOCK", (seed % 5 + 1) * l):
            assert words._slot_keys(texts, L).tobytes() == want.tobytes(), L


@pytest.mark.parametrize("check", [
    max_piece_length,
    lambda rels: has_piece_of_length(rels, 1),
    lambda rels: check_c_prime(rels, Fraction(1, 3)),
])
@pytest.mark.parametrize("rels, error, message", [
    (["ab", "aA", "bB"], MalformedWordError, "'aA'"),
    (["abA"], MalformedWordError, "'abA'"),
    (["ab", "a?"], MalformedWordError, "'?'"),
    (["ab", "abab"], HeterogeneousLengthError, "unequal"),
])
def test_piece_functions_reject_bad_relators(check, rels, error, message):
    with pytest.raises(error, match=message):
        check(rels)
