"""Sampling, nesting, and persistence of density-model presentations.

A presentation is a list of ⌊(2m-1)^(dl)⌋ i.i.d. uniform cyclically reduced
words of length l.  The density d is kept as an exact rational and the floor
is computed with integer q-th roots, so the count is never off by one at a
floor boundary.  Relator i is drawn from its own counter-derived stream
(SeedSequence(seed, spawn_key=(i,)) feeding Philox), which makes sampling
order-deterministic and embarrassingly parallel.

Those streams are computed for many relators at once (`_relator_codes`):
Philox is counter-based (Salmon et al., SC'11), so relator i's draws are a
pure function of (seed, i, counter), and the SeedSequence hash, the
Philox4x64-10 rounds and numpy's bounded draw (Lemire, ACM TOMACS 2019) are
each a few lines of uint32/uint64 array arithmetic over the relators.  The
result is the same stream that `sample_cyclically_reduced(m, l,
_relator_rng(seed, i))` draws, byte for byte: rows whose draws numpy would
have rejected and redrawn are handed to that sampler, which stays as the
oracle.  The contract rests on numpy's documented stream algorithms
(SeedSequence, Philox, `Generator.integers`); the tier-1 properties named
`stream` in tests/test_model.py pin it, so a numpy release that changed a
stream would fail them rather than drift.

A `Presentation` also holds what is computed from its relators, each part
built on first use and kept for the object's life: its window index
(`windows`), its Dehn engine (`engine`), and through the engine the largest
Cayley ball that `cayley.distance` has built.  No module keeps a cache, so
nothing is shared across presentations, equal ones included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    MalformedWordError,
    NestingError,
    ParseError,
    PreconditionError,
)
from .words import (
    Alphabet,
    _WindowIndex,
    _decode_rows,
    _letter_codes,
    _not_cyclically_reduced,
    _relator_windows,
    sample_cyclically_reduced,
)

DEFAULT_COUNT_BUDGET = 10**6
# the most Monte Carlo trials one call may run (`mc_fillability`,
# `cprime_genericity_scan`): checked before a seed is derived
TRIAL_BUDGET = 10**6
# a desk-scale limit, like Alphabet's 26 generators: it bounds each relator
# before a single letter is drawn
MAX_RELATOR_LENGTH = 10_000
# the largest power (2m-1)^p that relator_count computes exactly: a density
# with a huge denominator makes p huge even when the count is small
POWER_BIT_BUDGET = 1 << 22

FORMAT_HEADER = "gromov-presentation v1"


def integer_nth_root(n: int, q: int) -> int:
    """Largest r with r**q <= n, for n >= 0, q >= 1.  Exact integer arithmetic."""
    if n < 0 or q < 1:
        raise DomainError("integer_nth_root needs n >= 0, q >= 1")
    if n < 2 or q == 1:
        return n
    if q >= n.bit_length():
        return 1  # 2**q > n; also keeps a huge q out of floats and powers
    # first guess from log2(n): math.log2 takes an int of any size, so n
    # never becomes a float, which could overflow.  Below 2**40 the guess is
    # within one of the root; above, only its top 40 bits are trusted
    e = math.log2(n) / q
    shift = max(0, int(e) - 40)
    r = int(2.0 ** (e - shift)) << shift
    if shift:
        # integer Newton: from any start its first step lands at or above
        # the root (AM-GM), and from there it descends to it
        r = ((q - 1) * r + n // r ** (q - 1)) // q
        while True:
            r2 = ((q - 1) * r + n // r ** (q - 1)) // q
            if r2 >= r:
                break
            r = r2
    while r ** q > n:
        r -= 1
    while (r + 1) ** q <= n:
        r += 1
    return r


def as_density(d) -> Fraction:
    """Densities are exact rationals; decimals convert by their literal digits."""
    if isinstance(d, Fraction):
        dd = d
    elif isinstance(d, int):
        dd = Fraction(d)
    elif isinstance(d, str):
        dd = Fraction(d)  # accepts "p/q" and decimal literals exactly
    elif isinstance(d, float):
        raise DomainError(
            "float densities are ambiguous; pass a Fraction or a string literal"
        )
    else:
        raise DomainError(f"cannot interpret {d!r} as a density")
    if not (0 <= dd < 1):
        raise DomainError(f"density must satisfy 0 <= d < 1, got {dd}")
    return dd


def relator_count(m: int, l: int, d, budget: int = DEFAULT_COUNT_BUDGET) -> int:
    """Exact ⌊(2m-1)^(dl)⌋ via integer q-th roots of (2m-1)^(pl).  It is
    the one gate of m and l before any relator is drawn."""
    if m < 2 or l < 1:
        raise DomainError(f"need m >= 2 and l >= 1, got m={m}, l={l}")
    Alphabet(m)  # m names at most 26 generators
    if l > MAX_RELATOR_LENGTH:
        raise DomainError(f"relators longer than {MAX_RELATOR_LENGTH} letters are out of scope")
    d = as_density(d)
    base = 2 * m - 1
    exponent = d * l  # exact Fraction p/q in lowest terms
    p, q = exponent.numerator, exponent.denominator
    if p * base.bit_length() > POWER_BIT_BUDGET:
        raise BudgetExceededError(
            f"the exact count needs a power of 2m-1 of over {POWER_BIT_BUDGET} bits",
            budget=POWER_BIT_BUDGET,
        )
    # cheap guard before computing base**p: p is bounded now, and a float
    # compares exactly with an int q of any size
    if budget < 1 or p * math.log2(base) / (math.log2(budget) + 2) > q:
        raise BudgetExceededError(
            f"relator count (2m-1)^(dl) exceeds the model budget {budget}",
            budget=budget,
        )
    count = integer_nth_root(base**p, q)
    if count > budget:
        raise BudgetExceededError(
            f"relator count {count} exceeds the model budget {budget}", budget=budget
        )
    return count


@dataclass(frozen=True)
class Presentation:
    """A sampled point of the density model: (m, l, d, relators, seed).  It
    holds ⌊(2m-1)^(dl)⌋ relators, however many: that count is computed under
    the larger of DEFAULT_COUNT_BUDGET and the number of relators given.

    `codes` is the relators' (R, l) int8 letter-code matrix, kept once they
    are checked.  A caller that already holds it checked (a parsed file's,
    or the sampler's own draw) passes it in, and the relators are not read
    again; otherwise the constructor checks them and builds it."""

    m: int
    l: int
    density: Fraction
    relators: tuple[str, ...]
    seed: int
    parent_fingerprint: str | None = None
    codes: InitVar[np.ndarray | None] = None

    def __post_init__(self, codes):
        Alphabet(self.m)  # m names at most 26 generators
        expected = relator_count(self.m, self.l, self.density,
                                 max(DEFAULT_COUNT_BUDGET, len(self.relators)))
        if len(self.relators) != expected:
            raise DomainError(
                f"presentation must have ⌊(2m-1)^(dl)⌋ = {expected} relators, "
                f"got {len(self.relators)}"
            )
        if codes is None:
            codes, bad = _checked_codes(self.relators, self.m, self.l)
            if bad is not None:
                raise bad[1]
        check_seed(self.seed)
        object.__setattr__(self, "codes", codes)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.m)

    def serialize(self) -> str:
        d = self.density
        parent = self.parent_fingerprint or "none"
        lines = [
            FORMAT_HEADER,
            f"m={self.m} l={self.l} d={d.numerator}/{d.denominator} "
            f"seed={self.seed} count={len(self.relators)} parent={parent}",
        ]
        lines.extend(self.relators)
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # computed once: every field that serialize() reads is frozen
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    @cached_property
    def windows(self) -> _WindowIndex:
        """The window index of the relators (`words._relator_windows`), built
        on first use: the C'(1/6) gate, the Dehn engine, the naive closure
        and the round-tree window search all read this one object."""
        return _relator_windows(self.codes)

    @cached_property
    def engine(self):
        """The Dehn engine of the relators (`cayley.DehnEngine`), built on
        first use: every exact query of `cayley` reads this one object, and
        it keeps the largest Cayley ball that `cayley.distance` has built.
        An unverified presentation raises NotVerifiedError on every access."""
        from .cayley import DehnEngine

        return DehnEngine(self)


def check_seed(seed: int) -> None:
    """Seeds are SeedSequence entropy, so they must be nonnegative."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def check_trials(trials: int) -> None:
    """Monte Carlo callers bound their trial count before deriving a seed."""
    if trials > TRIAL_BUDGET:
        raise BudgetExceededError(
            f"the trial count exceeds the trial budget {TRIAL_BUDGET}", budget=TRIAL_BUDGET
        )


def _checked_codes(
    relators: Sequence[str], m: int, l: int
) -> tuple[np.ndarray | None, tuple[int, PreconditionError] | None]:
    """The relators' (R, l) int8 letter-code matrix and None when each is a
    cyclically reduced word of length l on m generators; else None and the
    index of the first relator that is not, with the error that says why.

    One array check: the relators before the first one of another length
    are joined and read through a byte table, their codes must lie below
    2m, and their code matrix must be cyclically reduced.  Within a
    relator, a wrong length is reported before a bad letter, and a bad
    letter before a cancelling pair.
    """
    lengths = np.fromiter(map(len, relators), dtype=np.int64, count=len(relators))
    wrong = np.flatnonzero(lengths != l)
    n = int(wrong[0]) if len(wrong) else len(relators)  # relators[:n] have length l
    codes = _letter_codes(relators[:n])
    letters = np.flatnonzero(codes.view(np.uint8) >= 2 * m)  # a non-letter's -1 reads 255
    if len(letters):
        n, pos = divmod(int(letters[0]), l)
    # no row of length l: l may be any int read from a file
    rows = codes[: n * l].reshape(n, l if n else 0)
    unreduced = np.flatnonzero(_not_cyclically_reduced(rows))
    if len(unreduced):
        i = int(unreduced[0])
        return None, (i, DomainError(f"relator {relators[i]!r} is not cyclically reduced"))
    if len(letters):
        ch = relators[n][pos]
        return None, (n, MalformedWordError(f"letter {ch!r} outside alphabet on {m} generators"))
    if n < len(relators):
        return None, (n, DomainError(f"relator length {lengths[n]} != l={l}"))
    return rows, None


def _relator_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Relator streams, many relators at a time
# ---------------------------------------------------------------------------
#
# The constants and steps of numpy's SeedSequence (O'Neill's seed_seq
# hash: a 4-word pool, hashmix and mix), of its Philox4x64-10 bit generator
# and of Generator.integers' 32-bit Lemire draw.  numpy's Philox starts
# with an empty buffer, so its first block is at counter 1; each uint64 it
# emits serves two 32-bit draws, low half first.
#
# `_batch_codes` draws in passes over the rows still open, each pass one
# `_philox_draws` call per chunk of rows.  A pass costs a few hundred numpy
# calls whatever its size (about 0.4 ms on a 2-core Xeon VM), about as much
# as _PASS_ATTEMPTS row-attempts of l = 6 to 24, so once fewer rows than
# that are open each draws _PASS_ATTEMPTS // open attempts in one pass: a
# 1 000-row block of l = 6 takes 2 or 3 passes instead of 5 to 8.  In a
# pass the ten Philox rounds are most of the work: the counter words keep
# the shape they need, so round 0 costs one product of the B counters, and
# `_mulhilo` makes 15 numpy calls.

_M32 = 0xFFFFFFFF
_U32, _U64 = np.uint32, np.uint64
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Philox blocks computed at once: about 20 arrays of this many uint64 are
# alive in a round, so a chunk takes a few MiB
_CHUNK_BLOCKS = 1 << 14
# trial presentations drawn at once by `_trial_relators`
_TRIAL_ROWS = 1 << 15
# a batch costs 0.7-1.1 ms flat up to 128 rows and one relator drawn on
# its own 30-40 µs, so fewer relators than this are drawn one at a time
_BATCH_MIN_ROWS = 32
# fewer open rows than this draw _PASS_ATTEMPTS // open attempts a pass
_PASS_ATTEMPTS = 1 << 10


def _seed_pool(entropy, spawn: list[np.ndarray]) -> list[np.ndarray]:
    """The 4-word pool of SeedSequence(entropy, spawn_key) for rows of spawn
    words, one uint32 array per word.  `entropy` is an int shared by every
    row (its pool mix broadcasts, so it is done once) or a uint32 array with
    one 32-bit entropy word per row."""
    if isinstance(entropy, np.ndarray):
        run = [entropy.astype(_U32)]
    else:
        words, x = [entropy & _M32], entropy >> 32
        while x:
            words.append(x & _M32)
            x >>= 32
        run = [np.array([w], dtype=_U32) for w in words]
    # with a spawn key, the run entropy is zero-padded to the pool size
    run += [np.zeros(1, dtype=_U32)] * (_POOL_SIZE - len(run))
    entropy_words = run + spawn
    const = _HASH_INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ _U32(const)
        const = const * _HASH_MULT_A & _M32
        v = v * _U32(const)
        return v ^ (v >> _U32(16))

    def mix(x, y):
        r = _U32(_MIX_L) * x - _U32(_MIX_R) * y
        return r ^ (r >> _U32(16))

    pool = [hashmix(w) for w in entropy_words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool


def _seed_state(pool: list[np.ndarray], n: int) -> list[np.ndarray]:
    """SeedSequence.generate_state(n) (uint32 words) of every row of a pool."""
    const, out = _HASH_INIT_B, []
    for i in range(n):
        v = pool[i % _POOL_SIZE] ^ _U32(const)
        const = const * _HASH_MULT_B & _M32
        v = v * _U32(const)
        out.append(v ^ (v >> _U32(16)))
    return out


def _trial_seeds(seed: int, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0] for
    every row of a (T, k) matrix of keys below 2**32, as a uint32 array."""
    return _seed_state(_seed_pool(seed, [keys[:, j] for j in range(keys.shape[1])]), 1)[0]


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 halves of the 128-bit products a·b: three
    32×32-bit partial sums, each below 2**64, added in place."""
    a_lo, a_hi = _U64(a & _M32), _U64(a >> 32)
    b_lo, b_hi = b & _U64(_M32), b >> _U64(32)
    t = b_lo * a_lo
    t >>= _U64(32)
    t += b_hi * a_lo
    mid = t & _U64(_M32)
    mid += b_lo * a_hi
    hi = b_hi * a_hi
    t >>= _U64(32)
    hi += t
    mid >>= _U64(32)
    hi += mid
    return hi, b * _U64(a)


def _philox_draws(keys: tuple[np.ndarray, np.ndarray], start: int, n: int) -> np.ndarray:
    """The 32-bit draws start .. start+n-1 of every row's Philox stream, as
    an (R, n) uint32 array; `keys` are the rows' two key words.

    Each counter word keeps the smallest shape it has: the counter starts
    as one (1, B) row shared by every key and c1 = c2 = c3 = 0, so round 0
    multiplies the B counters alone and only its last xor meets the keys."""
    first, stop = start // 8, (start + n - 1) // 8 + 1  # 8 draws per block
    c0 = np.arange(first + 1, stop + 1, dtype=_U64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=_U64)
    k0, k1 = keys[0][:, None], keys[1][:, None]
    for r in range(10):
        if r:
            k0, k1 = k0 + _U64(_PHILOX_W[0]), k1 + _U64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    # each uint64 serves two draws, low half first: its little-endian words
    out = np.stack([c0, c1, c2, c3], axis=-1).astype("<u8", copy=False)
    draws = out.view("<u4").reshape(len(out), -1)
    return draws[:, start - 8 * first : start - 8 * first + n]


def _batch_codes(m: int, l: int, entropy, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (R, l) int8 codes `sample_cyclically_reduced` draws from each
    row's stream, with the mask of rows left for it to redo.

    Row r's stream is SeedSequence(entropy, spawn_key=(indices[r],)) into
    Philox, `entropy` as in `_seed_pool`.  An attempt takes l draws: a
    first letter below 2m, then steps below 2m-1, each c -> c + (c >= the
    previous letter's inverse).  Attempt k is draws k·l .. k·l+l-1.  A pass
    gives every open row its next attempt, or its next K = _PASS_ATTEMPTS
    // open ones when fewer than _PASS_ATTEMPTS rows are open, since a pass
    costs about as much for a few rows as for that many.  A row ends at its
    first attempt that is cyclically reduced or has a draw in Lemire's
    rejection zone, which numpy would have redrawn: the first is its word,
    the second leaves the row (zero) for the per-relator sampler.  Attempts
    after the one a row ends at are drawn and ignored.
    """
    R = len(indices)
    w = [x.astype(_U64) for x in _seed_state(_seed_pool(entropy, [indices.astype(_U32)]), 4)]
    k0, k1 = w[0] | w[1] << _U64(32), w[2] | w[3] << _U64(32)  # the Philox key
    codes = np.zeros((R, l), dtype=np.int8)
    redo = indices >= 1 << 32  # a two-word spawn key: left to the per-relator sampler
    bound = np.full(l, 2 * m - 1, dtype=_U64)
    bound[0] = 2 * m
    threshold = (_U64(1 << 32) - bound) % bound
    pending, attempt = np.flatnonzero(~redo), 0
    while len(pending):
        # one row's K attempts fit in _CHUNK_BLOCKS blocks
        K = max(1, min(_PASS_ATTEMPTS // len(pending), 8 * (_CHUNK_BLOCKS - 2) // l))
        chunk = max(1, _CHUNK_BLOCKS // (K * l // 8 + 2))
        left = []
        for lo in range(0, len(pending), chunk):
            rows = pending[lo : lo + chunk]
            prod = _philox_draws((k0[rows], k1[rows]), attempt * l, K * l).reshape(-1, l) * bound
            rejected = ((prod & _U64(_M32)) < threshold).any(axis=1)
            # letter by letter over (l, attempts), each letter one contiguous row
            word = (prod >> _U64(32)).T.astype(np.int8, order="C")
            for j in range(1, l):
                word[j] += word[j] >= word[j - 1] ^ 1
            # (rows, K): the attempts a row may end at; `at` is the column
            # of word that holds each row's first
            ends = (rejected | (word[-1] != word[0] ^ 1)).reshape(len(rows), K)
            ended = ends.any(axis=1)
            at = ends.argmax(axis=1) + K * np.arange(len(rows))
            done = ended & ~rejected[at]
            codes[rows[done]] = word.T[at[done]]
            redo[rows[ended & rejected[at]]] = True
            left.append(rows[~ended])
        pending, attempt = np.concatenate(left), attempt + K
    return codes, redo


def _relator_codes(m: int, l: int, entropy, indices) -> np.ndarray:
    """The (R, l) int8 letter codes of `sample_cyclically_reduced(m, l,
    _relator_rng(e, i))` for each row's entropy e and index i: `entropy` is
    the seed of every row or a uint32 array of one seed per row.  From
    _BATCH_MIN_ROWS rows on they come from `_batch_codes`.  Its callers
    have passed m and l through `relator_count`."""
    ab = Alphabet(m)
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) >= _BATCH_MIN_ROWS:
        codes, redo = _batch_codes(m, l, entropy, indices)
    else:
        codes, redo = np.empty((len(indices), l), dtype=np.int8), np.ones(len(indices), bool)
    for r in np.flatnonzero(redo).tolist():
        e = int(entropy[r]) if isinstance(entropy, np.ndarray) else entropy
        word = sample_cyclically_reduced(m, l, _relator_rng(e, int(indices[r])))
        codes[r] = ab.encode(word)
    return codes


def _trial_relators(m: int, l: int, d, seed: int, keys: np.ndarray):
    """The relators of the trials of a (T, k) matrix of spawn keys, one
    (t, count, l) int8 block per chunk of t trials, in key order: row i of
    a block holds the relator codes of sample_presentation(m, l, d,
    seed=s), where s is its trial seed SeedSequence(seed,
    spawn_key=key).generate_state(1)[0].

    A chunk is _TRIAL_ROWS // count trials (at least one), every relator of
    a chunk drawn in one `_relator_codes` call; nothing is computed for no
    trials.
    """
    if len(keys) == 0:
        return
    count = relator_count(m, l, d)
    per_chunk = max(1, _TRIAL_ROWS // count)
    for lo in range(0, len(keys), per_chunk):
        seeds = _trial_seeds(seed, keys[lo : lo + per_chunk])
        codes = _relator_codes(m, l, np.repeat(seeds, count), np.tile(np.arange(count), len(seeds)))
        yield codes.reshape(len(seeds), count, l)


def sample_presentation(
    m: int, l: int, d, seed: int, budget: int = DEFAULT_COUNT_BUDGET
) -> Presentation:
    """⌊(2m-1)^(dl)⌋ i.i.d. uniform cyclically reduced relators; byte-deterministic."""
    check_seed(seed)
    d = as_density(d)
    count = relator_count(m, l, d, budget)
    codes = _relator_codes(m, l, seed, np.arange(count))
    return Presentation(m=m, l=l, density=d, relators=tuple(_decode_rows(codes)), seed=seed,
                        codes=codes)


def extend_presentation(base: Presentation, d_target, seed: int) -> Presentation:
    """Two-step sampling: keep base.relators as a prefix, draw the rest fresh,
    up to DEFAULT_COUNT_BUDGET relators in all."""
    check_seed(seed)
    d_target = as_density(d_target)
    if d_target < base.density:
        raise NestingError(
            f"target density {d_target} is below the base density {base.density}"
        )
    count = relator_count(base.m, base.l, d_target)
    fresh = _relator_codes(base.m, base.l, seed, np.arange(len(base.relators), count))
    return Presentation(
        m=base.m,
        l=base.l,
        density=d_target,
        relators=base.relators + tuple(_decode_rows(fresh)),
        seed=seed,
        parent_fingerprint=base.fingerprint(),
        codes=np.concatenate([base.codes, fresh]),
    )


def save_presentation(p: Presentation, path) -> None:
    Path(path).write_text(p.serialize(), encoding="utf-8")


def load_presentation(path) -> Presentation:
    """The presentation saved at path, whatever its relator count."""
    return parse_presentation(Path(path).read_text(encoding="utf-8"))


def parse_presentation(text: str) -> Presentation:
    """The presentation a file's text holds, whatever its relator count (the
    constructor's check); a ParseError names the first line at fault."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing parameter line", line=2)
    fields = {}
    for tok in lines[1].split():
        if "=" not in tok:
            raise ParseError(f"malformed parameter token {tok!r}", line=2)
        k, v = tok.split("=", 1)
        fields[k] = v
    try:
        m = int(fields["m"])
        l = int(fields["l"])
        d = Fraction(fields["d"])
        seed = int(fields["seed"])
        count = int(fields["count"])
        parent = fields["parent"]
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad parameter line: {e}", line=2)
    Alphabet(m)  # m names at most 26 generators
    relators = [r for raw in lines[2:] if (r := raw.strip())]
    codes, bad = _checked_codes(relators, m, l)
    if bad is not None:
        numbered = (i for i, raw in enumerate(lines[2:], start=3) if raw.strip())
        raise ParseError(str(bad[1]), line=next(islice(numbered, bad[0], None)))
    if len(relators) != count:
        raise ParseError(
            f"header promises {count} relators, file has {len(relators)}",
            line=len(lines),
        )
    try:
        return Presentation(
            m=m,
            l=l,
            density=d,
            relators=tuple(relators),
            seed=seed,
            parent_fingerprint=None if parent == "none" else parent,
            codes=codes,
        )
    except DomainError as e:
        raise ParseError(str(e), line=2)
