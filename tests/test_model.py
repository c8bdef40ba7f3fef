import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randomgroups import model
from randomgroups import words as words_mod
from randomgroups.errors import (
    BudgetExceededError,
    DomainError,
    NestingError,
    ParseError,
    PreconditionError,
)
from randomgroups.model import (
    Presentation,
    _batch_codes,
    _relator_codes,
    _relator_rng,
    _trial_relators,
    _trial_seeds,
    extend_presentation,
    integer_nth_root,
    load_presentation,
    parse_presentation,
    relator_count,
    sample_presentation,
    save_presentation,
)
from randomgroups.words import (
    Alphabet,
    _not_cyclically_reduced,
    _relator_windows,
    is_cyclically_reduced_word,
    rivin_count,
    sample_cyclically_reduced,
)


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
    for budget in (0, -1):
        with pytest.raises(BudgetExceededError):
            relator_count(2, 4, 0, budget=budget)
    # dl = 6 - 6/(4·10^400 + 1): a small count behind a power of 2m-1 with
    # about 10^400 bits, refused before computing it
    huge = 10**400
    with pytest.raises(BudgetExceededError, match="bits"):
        relator_count(2, 24, Fraction(huge, 4 * huge + 1))
    assert relator_count(2, 24, Fraction(1, huge)) == 1
    with pytest.raises(DomainError, match="out of scope"):
        relator_count(2, huge, 0)


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


@st.composite
def _presentations(draw):
    """Sampled presentations, and extensions of them carrying a parent
    fingerprint."""
    m = draw(st.sampled_from([2, 3]))
    l = draw(st.integers(2, 10))
    densities = [Fraction(0), Fraction(1, 10), Fraction(1, 6), Fraction(1, 4), Fraction(3, 10)]
    d = draw(st.sampled_from(densities))
    p = sample_presentation(m, l, d, seed=draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        dt = draw(st.sampled_from([x for x in densities if x >= d]))
        p = extend_presentation(p, dt, seed=draw(st.integers(0, 2**32)))
    return p


@given(_presentations())
@settings(max_examples=100, deadline=None)
def test_presentation_file_round_trip(p):
    q = parse_presentation(p.serialize())
    assert q == p
    assert q.fingerprint() == p.fingerprint()
    assert q.parent_fingerprint == p.parent_fingerprint


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
    # a length no relator can have
    huge = "\n".join([lines[0], lines[1].replace("l=6", f"l={10**400}"), lines[2]]) + "\n"
    with pytest.raises(ParseError) as e:
        parse_presentation(huge)
    assert e.value.line == 3


def test_negative_seed_refused_on_load():
    # a file's seed is SeedSequence entropy, as a sampler's is: the
    # constructor refuses a negative one, and the parser names line 2
    p = sample_presentation(2, 6, 0, seed=1)
    with pytest.raises(DomainError, match="seed"):
        dataclasses.replace(p, seed=-1)
    with pytest.raises(ParseError, match="seed") as e:
        parse_presentation(p.serialize().replace(" seed=1 ", " seed=-1 "))
    assert e.value.line == 2


# ⌊51^(4·159/181)⌋ = 1 000 186 relators of length 4 on 26 generators: just
# past the default count budget, and one short relator repeated keeps the
# files small
BIG_M, BIG_L, BIG_D = 26, 4, Fraction(159, 181)
BIG_COUNT = 1_000_186


def test_files_past_the_default_count_budget_round_trip(tmp_path):
    assert relator_count(BIG_M, BIG_L, BIG_D, budget=2 * 10**6) == BIG_COUNT > model.DEFAULT_COUNT_BUDGET
    p = Presentation(m=BIG_M, l=BIG_L, density=BIG_D, relators=("abcd",) * BIG_COUNT, seed=0)
    assert parse_presentation(p.serialize()) == p
    save_presentation(p, tmp_path / "big.txt")
    assert load_presentation(tmp_path / "big.txt") == p


def test_file_past_the_default_count_budget_must_agree_with_its_header():
    def text(d):
        header = f"m={BIG_M} l={BIG_L} d={d} seed=0 count={BIG_COUNT} parent=none"
        return f"{model.FORMAT_HEADER}\n{header}\n" + "abcd\n" * BIG_COUNT

    # the header's density promises more relators than the file holds
    assert relator_count(BIG_M, BIG_L, Fraction(160, 181), budget=2 * 10**6) > BIG_COUNT
    with pytest.raises(BudgetExceededError):
        parse_presentation(text("160/181"))
    # ... or fewer than the default count budget
    with pytest.raises(ParseError, match="relators, got 1000186") as e:
        parse_presentation(text("158/181"))
    assert e.value.line == 2


def test_relators_are_checked_once(monkeypatch, tmp_path):
    # a loaded file's relators are checked once, by the parser, whose code
    # matrix the constructor keeps; the samplers pass the matrix they drew,
    # each row drawn cyclically reduced, so their relators are not read back
    # from the strings; a direct construction checks them itself
    p = sample_presentation(3, 10, Fraction(1, 5), seed=4)
    save_presentation(p, tmp_path / "p.txt")
    keys = _relator_windows(list(p.relators)).keys
    checks = []
    real = model._checked_codes
    monkeypatch.setattr(model, "_checked_codes", lambda *args: checks.append(1) or real(*args))
    loaded = load_presentation(tmp_path / "p.txt")
    assert len(checks) == 1
    sampled = sample_presentation(3, 10, Fraction(1, 5), seed=4)
    extended = extend_presentation(sample_presentation(3, 10, Fraction(1, 10), seed=4),
                                   Fraction(1, 5), seed=4)
    assert len(checks) == 1
    built = Presentation(m=3, l=10, density=Fraction(1, 5), relators=p.relators, seed=4)
    assert len(checks) == 2
    # each keeps its relators' codes, and builds its window index from them
    # without reading a relator string again
    def refuse(words):
        raise AssertionError("relator strings read")

    monkeypatch.setattr(words_mod, "_letter_codes", refuse)
    for q in (loaded, sampled, built):
        assert q == p
        assert q.codes.tolist() == [list(Alphabet(3).encode(r)) for r in p.relators]
        assert q.windows.keys.tobytes() == keys.tobytes()
    assert extended.codes.tolist() == [list(Alphabet(3).encode(r)) for r in extended.relators]


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


# ---------------------------------------------------------------------------
# Batch relator streams against the per-relator sampler, their oracle.  They
# rest on numpy's stream algorithms, so every test here has "stream" in its
# name and CI runs them as a step of their own.
# ---------------------------------------------------------------------------


def _oracle_codes(m, l, seed, indices):
    ab = Alphabet(m)
    words = [ab.encode(sample_cyclically_reduced(m, l, _relator_rng(seed, int(i))))
             for i in indices]
    return np.array(words, dtype=np.int8).reshape(len(words), l)


def _oracle_relators(m, l, d, seed, start=0):
    return tuple(sample_cyclically_reduced(m, l, _relator_rng(seed, i))
                 for i in range(start, relator_count(m, l, d)))


@given(m=st.integers(2, 5), l=st.integers(1, 30), seed=st.integers(0, 2**70),
       offset=st.integers(0, 10**6), n=st.integers(0, 100))
@example(m=2, l=24, seed=2**32, offset=0, n=100)       # two entropy words
@example(m=3, l=7, seed=2**64 + 7, offset=5, n=100)    # three
@example(m=2, l=5, seed=2**128 + 1, offset=9, n=100)   # five: past the pool
@example(m=2, l=1, seed=0, offset=0, n=100)
@settings(max_examples=300, deadline=None)
def test_stream_batch_matches_per_relator_sampler(m, l, seed, offset, n):
    indices = np.arange(offset, offset + n)
    want = _oracle_codes(m, l, seed, indices)
    codes, redo = _batch_codes(m, l, seed, indices)
    # at m <= 5 a draw is redrawn with probability below 2e-9
    assert redo.sum() <= 1
    assert np.array_equal(codes[~redo], want[~redo])
    assert np.array_equal(_relator_codes(m, l, seed, indices), want)


def test_stream_rejected_draws_fall_back_to_the_oracle():
    # relators 64573 and 243357 of seed 0 at (m=24, l=256) draw a value in
    # the 32-bit Lemire rejection zone (about 1e-8 per draw; found by a
    # search over the first 250 000 indices), which numpy redraws
    indices = np.array([64573, 243357, 5])
    _codes, redo = _batch_codes(24, 256, 0, indices)
    assert redo.tolist() == [True, True, False]
    assert np.array_equal(_relator_codes(24, 256, 0, indices), _oracle_codes(24, 256, 0, indices))


def test_stream_forced_fallback_and_small_chunks(monkeypatch):
    real = model._batch_codes

    def every_other_row_redone(m, l, entropy, indices):
        codes, redo = real(m, l, entropy, indices)
        codes[::2] = 0
        redo[::2] = True
        return codes, redo

    indices = np.arange(100, 180)  # at least _BATCH_MIN_ROWS
    want = _oracle_codes(2, 11, 77, indices)
    monkeypatch.setattr(model, "_CHUNK_BLOCKS", 7)  # one row per chunk
    assert np.array_equal(_relator_codes(2, 11, 77, indices), want)
    monkeypatch.setattr(model, "_batch_codes", every_other_row_redone)
    assert np.array_equal(_relator_codes(2, 11, 77, indices), want)
    seeds = np.arange(80, dtype=np.uint32) * 7919
    per_row = _relator_codes(2, 11, seeds, indices)
    for r in range(80):
        assert np.array_equal(per_row[r], _oracle_codes(2, 11, int(seeds[r]), indices[r:r + 1])[0])


def _draws_of(m, word, reject=False):
    """32-bit draws that an attempt turns into `word` (m generators), each
    the middle of its letter's Lemire interval.  A rejected attempt's second
    draw is 0, in the rejection zone of every bound not a power of two."""
    bounds = [2 * m] + [2 * m - 1] * (len(word) - 1)
    steps = [word[0]] + [c - (c > p ^ 1) for p, c in zip(word, word[1:])]
    draws = [((2 * s + 1) << 32) // (2 * b) for s, b in zip(steps, bounds)]
    if reject:
        draws[1] = 0
    return draws


def test_stream_widened_pass_keeps_the_sequential_rule(monkeypatch):
    # scripted streams at (m=3, l=4): each row's attempts are open (not
    # cyclically reduced), closed (a word to keep) or rejected (a draw
    # numpy would redraw).  A row must end exactly as the per-relator
    # sampler would: at its first closed or rejected attempt in order
    m, l, rows = 3, 4, 40
    open_word, closed_words = [5, 1, 2, 4], [[0, 2, 4, 2], [1, 3, 5, 3], [2, 0, 4, 0]]
    assert _not_cyclically_reduced(np.array([open_word] + closed_words)).tolist() == [
        True, False, False, False]
    horizon = 3 * model._PASS_ATTEMPTS
    K = model._PASS_ATTEMPTS // rows  # the first pass's attempts per row
    rng = np.random.default_rng(5)
    script = rng.choice(["open", "closed0", "closed1", "rejected"], p=[.6, .15, .15, .1],
                        size=(rows, horizon)).astype(object)
    script[0, :5] = ["open", "open", "closed0", "rejected", "closed1"]  # done at attempt 2
    script[1, :3] = ["open", "rejected", "closed0"]  # rejected before it closes
    script[2, : K + 3] = "open"  # still open after the first pass
    script[2, K + 3] = "closed2"
    draws = np.zeros((rows, horizon * l), dtype=np.uint32)
    for r in range(rows):
        for k, kind in enumerate(script[r]):
            word = open_word if kind in ("open", "rejected") else closed_words[int(kind[-1])]
            draws[r, k * l : (k + 1) * l] = _draws_of(m, word, kind == "rejected")

    calls, row_of = [], {}

    def scripted(keys, start, n):
        if not row_of:
            row_of.update((int(k), r) for r, k in enumerate(keys[0]))
        which = [row_of[int(k)] for k in keys[0]]
        calls.append((which, start, n))
        return draws[which, start : start + n]

    monkeypatch.setattr(model, "_philox_draws", scripted)
    codes, redo = _batch_codes(m, l, 0, np.arange(rows))

    for r in range(rows):  # the sequential rule, attempt by attempt
        k = next(k for k, kind in enumerate(script[r]) if kind != "open")
        assert redo[r] == (script[r][k] == "rejected")
        if not redo[r]:
            assert codes[r].tolist() == closed_words[int(script[r][k][-1])]
    assert codes[0].tolist() == closed_words[0] and not redo[0]
    assert redo[1]
    assert codes[2].tolist() == closed_words[2] and not redo[2]
    assert calls[0] == (list(range(rows)), 0, K * l)
    # row 2 takes up at attempt K, the first that no pass has drawn
    assert [start for which, start, _n in calls if 2 in which] == [0, K * l]


def test_stream_pass_shapes(monkeypatch):
    real, calls = model._philox_draws, []

    def recorded(keys, start, n):
        calls.append((len(keys[0]), start, n))
        return real(keys, start, n)

    def passes():  # (open rows, draws per row) of each pass, in order
        starts = sorted({start for _rows, start, _n in calls})
        return [(sum(r for r, s, _n in calls if s == start),
                 {n for _r, s, n in calls if s == start}) for start in starts]

    monkeypatch.setattr(model, "_philox_draws", recorded)
    drawn = []
    # the 38 050-row demo host: while at least _PASS_ATTEMPTS rows are open,
    # each draws one attempt a pass
    sample_presentation(2, 24, Fraction(2, 5), 0)
    assert passes()[0] == (38_050, {24})
    assert all(n == {24} for rows, n in passes() if rows >= model._PASS_ATTEMPTS)
    drawn += calls
    # a 200-trial block at (2, 6, 1/4), 1 000 rows, ends in at most 3 passes
    for seed in range(5):
        calls.clear()
        list(_trial_relators(2, 6, Fraction(1, 4), seed, np.arange(200, dtype=np.uint32)[:, None]))
        assert passes()[0] == (1000, {6}) and len(passes()) <= 3
        drawn += calls
    # one open row at (m=24, l=256) draws many attempts in one pass
    calls.clear()
    _batch_codes(24, 256, 0, np.array([5]))
    assert calls[0][2] > 100 * 256
    drawn += calls
    for rows, start, n in drawn:  # no call computes more than _CHUNK_BLOCKS blocks
        assert rows * ((start + n - 1) // 8 - start // 8 + 1) <= model._CHUNK_BLOCKS


@pytest.mark.parametrize("m, l, d, seed", [
    (2, 24, Fraction(3, 10), 0), (2, 24, Fraction(3, 10), 12345), (3, 12, Fraction(1, 4), 1),
    (2, 8, Fraction(1, 4), 2**40 + 3), (4, 9, Fraction(1, 3), 2), (26, 3, Fraction(1, 2), 5),
])
def test_stream_presentations_match_per_relator_sampler(m, l, d, seed):
    p = sample_presentation(m, l, d, seed)
    assert p.relators == _oracle_relators(m, l, d, seed)
    base = sample_presentation(m, l, d / 2, seed)
    ext = extend_presentation(base, d, seed + 1)
    assert ext.relators == base.relators + _oracle_relators(m, l, d, seed + 1, len(base.relators))


@given(seed=st.integers(0, 2**70),
       keys=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=20),
       width=st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_stream_trial_seeds_match_seed_sequence(seed, keys, width):
    keys = np.array(keys, dtype=np.uint32)[:, :width]  # keys (t,) and (ci, t)
    want = [int(np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in key))
                .generate_state(1)[0]) for key in keys]
    assert _trial_seeds(seed, keys).tolist() == want


@pytest.mark.parametrize("m, l, d, seed, ci", [
    (2, 6, Fraction(1, 4), 7, None), (2, 12, Fraction(1, 5), 3, 2), (3, 5, Fraction(1, 3), 2**40, 0),
])
def test_stream_trial_relators_match_sample_presentation(monkeypatch, m, l, d, seed, ci):
    # several chunks of trials, the last one below _BATCH_MIN_ROWS
    monkeypatch.setattr(model, "_TRIAL_ROWS", 100)
    t = np.arange(25, dtype=np.uint32)
    keys = t[:, None] if ci is None else np.stack([np.full_like(t, ci), t], axis=1)
    blocks = list(_trial_relators(m, l, d, seed, keys))
    # one (t, count, l) block per chunk of _TRIAL_ROWS // count trials
    count = relator_count(m, l, d)
    per_chunk = max(1, 100 // count)
    sizes = [min(per_chunk, len(keys) - lo) for lo in range(0, len(keys), per_chunk)]
    assert [b.shape for b in blocks] == [(t, count, l) for t in sizes]
    assert all(b.dtype == np.int8 for b in blocks)
    drawn = [rows for b in blocks for rows in b]
    ab = Alphabet(m)
    for key, rows in zip(keys, drawn, strict=True):
        s = int(np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in key))
                .generate_state(1)[0])
        assert tuple(ab.decode(r) for r in rows.tolist()) == _oracle_relators(m, l, d, s)


# ---------------------------------------------------------------------------
# One relator check for the constructor and the file parser
# ---------------------------------------------------------------------------

_LETTERS = Alphabet(26).letters


@st.composite
def _mutated_presentation(draw):
    """A serialised sampled presentation with one or two relators made bad,
    blank lines here and there, and the index of the first bad relator."""
    m, l = draw(st.integers(2, 4)), draw(st.integers(2, 8))
    p = sample_presentation(m, l, Fraction(1, 3), draw(st.integers(0, 2**40)))
    relators = list(p.relators)
    bad = sorted(draw(st.lists(st.integers(0, len(relators) - 1), min_size=1, max_size=2,
                               unique=True)))
    for k in bad:
        r, j = relators[k], draw(st.integers(0, l - 1))
        kind = draw(st.sampled_from(["letter", "beyond 2m", "length", "cancelling"]))
        if kind == "letter":
            r = r[:j] + draw(st.sampled_from("1?é*-")) + r[j + 1:]
        elif kind == "beyond 2m":
            r = r[:j] + draw(st.sampled_from(_LETTERS[2 * m:])) + r[j + 1:]
        elif kind == "length":
            r = draw(st.sampled_from([r[:-1], r + r[0], r * 2]))
        else:  # letter j+1 (cyclically) cancels letter j
            inv = r[j].swapcase()
            r = r[:j + 1] + inv + r[j + 2:] if j + 1 < l else inv + r[1:]
        relators[k] = r
    lines = p.serialize().splitlines()[:2]
    line_of = []
    for r in relators:
        lines += [""] * draw(st.integers(0, 2))
        lines.append(r)
        line_of.append(len(lines))
    return p, tuple(relators), "\n".join(lines) + "\n", line_of[bad[0]]


@given(_mutated_presentation())
@settings(max_examples=300, deadline=None)
def test_parse_and_constructor_agree_on_bad_relators(case):
    p, relators, text, line = case
    with pytest.raises(PreconditionError) as direct:
        Presentation(m=p.m, l=p.l, density=p.density, relators=relators, seed=p.seed)
    with pytest.raises(ParseError) as parsed:
        parse_presentation(text)
    assert parsed.value.line == line
    assert str(parsed.value) == f"line {line}: {direct.value}"
