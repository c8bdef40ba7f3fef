"""Free-group word algebra over a symmetrized alphabet.

Letters are serialized as ASCII: lowercase ``a..z`` are generators, the
matching uppercase letters their formal inverses, and the empty word prints
as ``"1"``.  The letter order used everywhere (lexicographic enumeration,
canonical rotations) is ``a < A < b < B < ...``.

Internally a word is a tuple of ints ``0 .. 2m-1`` where generator ``k``
is ``2k``, its inverse ``2k + 1``, so inversion is ``x ^ 1`` and the int
order coincides with the declared letter order.

Every layer reads the cyclic rotations of relators off one int8 matrix of
doubled texts, built and validated by `_relator_texts`.  For R relators of
common length l it has shape (2R, 2l-1): row 2i is rᵢ·rᵢ[:-1] and row 2i+1
the same for rᵢ⁻¹, so the window of length L <= l starting at position q
(0 <= q < l) of row t is the subword of length L at slot
(relator t // 2, orientation ±1, position q).  Slot order is relator, then
orientation (the relator before its inverse), then position.  Only this
module reads slots: the window index, the piece witness search, the
coincidence test and the C'(λ) check key the slot windows in that order
(`_slot_view`, `_slot_keys`).  The C'(λ) check reads a block of T stacked
presentations, a (T, 2R, 2l-1) block of texts, with one row of keys each.
Every other layer reads the rotations through one sorted, deduplicated
index of their keys (`_relator_windows`), which each presentation builds
once, on first use (`model.Presentation.windows`): the C'(1/6) gate reads
its longest piece, and the Dehn engine's arcs, the Cayley ball's tails, the
naive closure's seams and the round trees' window search read its ranges.
So the slot layout and the key format are decided here alone.

Pieces are found by sorting windows: a repeated length-L window is a piece
of length L.  The longest piece is computed in one place, the window index
(`_WindowIndex.longest_piece`): l-1 when a rotation lies at two slots, else
the longest common prefix of two neighbouring length-l windows in sorted
order.  Each window sorts as one key (`_slot_keys`).  A letter takes
b = (2m-1).bit_length() bits, for the m generators the letters need, so a
window of L letters packs into one uint64, first letter highest, whenever
L·b <= 64: L <= 32 at m = 2 and L <= 21 at m = 3 or 4.  Numeric order of
the keys is then the lexicographic order of the windows (the k-mer packing
of Marçais & Kingsford), and the common prefix of two keys is read off the
highest bit in which they differ.  Wider windows fall back to sorting each
row as one opaque byte string.  When a whole rotation packs (l·b <= 64) the
slot keys come from the rotations: each text's first l letters pack into
one key, and every rotation and every shorter window of it is two shifts
and an or of that key (`_slot_keys`).  Packing letter by letter, by Horner
steps (`_window_keys`), remains for wider texts and for the padded query
words of `prefix_ranges`.  The witness of `max_piece_length` is read
off the occurrences of the longest pieces in the few texts that hold one.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    HeterogeneousLengthError,
    MalformedWordError,
)

EMPTY_WORD = "1"

_CHARS = "".join(c + c.upper() for c in string.ascii_lowercase)  # "aAbB..."
_CHAR_TO_INT = {c: i for i, c in enumerate(_CHARS)}
_CODE_OF_BYTE = np.full(256, -1, dtype=np.int8)
_BYTE_OF_CODE = np.frombuffer(_CHARS.encode("ascii"), dtype=np.uint8)
_CODE_OF_BYTE[_BYTE_OF_CODE] = np.arange(len(_CHARS))

DEFAULT_ENUMERATION_BUDGET = 10**7
# exact counts and bounds are printed in full; CPython refuses to convert an
# int of more decimal digits than this (its default int_max_str_digits)
DECIMAL_DIGIT_BUDGET = 4300


class Alphabet:
    """The symmetrized alphabet S ∪ S⁻¹ on m generators."""

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise DomainError(f"need an integer m >= 1, got {m!r}")
        if m > 26:
            raise DomainError("alphabets beyond 26 generators are out of scope")
        self.m = m
        self.size = 2 * m
        self.letters = _CHARS[: 2 * m]

    def encode(self, word: str) -> tuple[int, ...]:
        if word == EMPTY_WORD or word == "":
            return ()
        out = []
        for ch in word:
            x = _CHAR_TO_INT.get(ch)
            if x is None or x >= self.size:
                raise MalformedWordError(f"letter {ch!r} outside alphabet on {self.m} generators")
            out.append(x)
        return tuple(out)

    def decode(self, ints: Iterable[int]) -> str:
        s = "".join(_CHARS[x] for x in ints)
        return s if s else EMPTY_WORD

    def __eq__(self, other):
        return isinstance(other, Alphabet) and other.m == self.m

    def __hash__(self):
        return hash(("Alphabet", self.m))

    def __repr__(self):
        return f"Alphabet(m={self.m})"


def _infer_alphabet(words: Sequence[str]) -> Alphabet:
    hi = 0
    for w in words:
        if w == EMPTY_WORD:
            continue
        for ch in w:
            x = _CHAR_TO_INT.get(ch)
            if x is None:
                raise MalformedWordError(f"letter {ch!r} is not a valid alphabet symbol")
            hi = max(hi, x)
    return Alphabet(hi // 2 + 1)


def _letter_codes(words: Sequence[str]) -> np.ndarray:
    """The letter codes of the words joined end to end, as a flat int8 array;
    -1 marks a character that is no letter (one entry per character)."""
    joined = "".join(words).encode("ascii", errors="replace")
    return _CODE_OF_BYTE[np.frombuffer(joined, dtype=np.uint8)]


def _decode_rows(codes: np.ndarray) -> list[str]:
    """The words spelled by the rows of an (R, l) letter-code matrix, l >= 1."""
    R, l = codes.shape
    text = _BYTE_OF_CODE[codes].tobytes().decode("ascii")
    return [text[i : i + l] for i in range(0, R * l, l)]


def _not_cyclically_reduced(codes: np.ndarray) -> np.ndarray:
    """The mask of rows of an (..., l) letter-code array that are not
    cyclically reduced: a letter next to its inverse, the wrap-around pair
    included."""
    if codes.shape[-1] < 2:
        return np.zeros(codes.shape[:-1], dtype=bool)
    return ((codes[..., 1:] == codes[..., :-1] ^ 1).any(axis=-1)
            | (codes[..., -1] == codes[..., 0] ^ 1))


def _reduce_ints(w: Sequence[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in w:
        if stack and stack[-1] == (x ^ 1):
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The free reduction of a·b for reduced a and b: only the seam cancels."""
    if not a or not b or a[-1] != b[0] ^ 1:
        return a + b
    k, top = 1, min(len(a), len(b))
    while k < top and a[-1 - k] == b[k] ^ 1:
        k += 1
    return a[: len(a) - k] + b[k:]


def reduce_word(word: str, alphabet: Alphabet | None = None) -> str:
    """Free reduction: the unique reduced word freely equal to ``word``."""
    ab = alphabet or _infer_alphabet([word])
    return ab.decode(_reduce_ints(ab.encode(word)))


def is_reduced_word(word: str, alphabet: Alphabet | None = None) -> bool:
    ab = alphabet or _infer_alphabet([word])
    w = ab.encode(word)
    return all(w[i + 1] != (w[i] ^ 1) for i in range(len(w) - 1))


def is_cyclically_reduced_word(word: str, alphabet: Alphabet | None = None) -> bool:
    # is_reduced_word has validated the letters, and a letter's inverse is
    # the same letter in the other case
    return is_reduced_word(word, alphabet) and (len(word) <= 1 or word[-1] != word[0].swapcase())


def _canonical_rotation_index(w: tuple[int, ...]) -> int:
    if len(w) <= 1:
        return 0
    best, best_i = None, 0
    for i in range(len(w)):
        rot = w[i:] + w[:i]
        if best is None or rot < best:
            best, best_i = rot, i
    return best_i


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word with its canonical (lex-least) rotation."""

    word: str
    rotation: int = field(default=0)

    @staticmethod
    def from_word(word: str, alphabet: Alphabet | None = None) -> "CyclicWord":
        ab = alphabet or _infer_alphabet([word])
        w = ab.encode(word)
        if not is_cyclically_reduced_word(word, ab):
            raise MalformedWordError(f"{word!r} is not cyclically reduced")
        return CyclicWord(word=ab.decode(w), rotation=_canonical_rotation_index(w))

    @property
    def canonical(self) -> str:
        if self.word == EMPTY_WORD:
            return EMPTY_WORD
        i = self.rotation
        return self.word[i:] + self.word[:i]

    def __len__(self):
        return 0 if self.word == EMPTY_WORD else len(self.word)


def cyclically_reduce(word: str, alphabet: Alphabet | None = None) -> CyclicWord:
    """Reduce, then strip matching first/last inverse pairs until cyclically reduced."""
    ab = alphabet or _infer_alphabet([word])
    w = list(_reduce_ints(ab.encode(word)))
    while len(w) >= 2 and w[-1] == (w[0] ^ 1):
        w = w[1:-1]
    return CyclicWord.from_word(ab.decode(w), ab)


def inverse_word(word: str, alphabet: Alphabet | None = None) -> str:
    ab = alphabet or _infer_alphabet([word])
    w = ab.encode(word)
    return ab.decode(tuple((x ^ 1) for x in reversed(w)))


def rivin_count(m: int, l: int) -> int:
    """Exact number of cyclically reduced words of length l on m generators."""
    if m < 1 or l < 1:
        raise DomainError(f"need m >= 1 and l >= 1, got m={m}, l={l}")
    # (2m-1)^l >= 2^(l·⌊log2(2m-1)⌋) and 10^k < 2^(4k), so a power past the
    # first test could not be printed anyway and is never computed
    n = None
    if l * ((2 * m - 1).bit_length() - 1) <= 4 * DECIMAL_DIGIT_BUDGET:
        n = (2 * m - 1) ** l + 1 + (m - 1) * (1 + (-1) ** l)
    if n is None or n >= 10**DECIMAL_DIGIT_BUDGET:
        raise BudgetExceededError(
            f"the count has more than {DECIMAL_DIGIT_BUDGET} digits",
            budget=DECIMAL_DIGIT_BUDGET,
        )
    return n


def enumerate_cyclically_reduced(
    m: int, l: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[str]:
    """All cyclically reduced words of length l in lexicographic order."""
    if m < 1 or l < 1:
        raise DomainError(f"need m >= 1 and l >= 1, got m={m}, l={l}")
    if (2 * m - 1) ** l > budget:
        raise BudgetExceededError(
            f"(2m-1)^l = {(2 * m - 1) ** l} exceeds the enumeration budget {budget}",
            budget=budget,
        )
    ab = Alphabet(m)
    out: list[str] = []
    word = [0] * l

    def rec(i: int):
        if i == l:
            if l == 1 or word[-1] != (word[0] ^ 1):
                out.append(ab.decode(word))
            return
        for x in range(2 * m):
            if i > 0 and x == (word[i - 1] ^ 1):
                continue
            word[i] = x
            rec(i + 1)

    rec(0)
    return out


def sample_cyclically_reduced(m: int, l: int, rng: np.random.Generator) -> str:
    """One exactly-uniform cyclically reduced word of length l.

    Rejection sampling: draw a uniform reduced word (first letter uniform
    over 2m, each next uniform over the 2m-1 non-cancelling letters), accept
    iff the last letter is not the inverse of the first.  Acceptance
    probability is at least (2m-2)/(2m-1) and uniformity over the accepted
    set is exact.
    """
    if m < 2 or l < 1:
        raise DomainError(f"need m >= 2 and l >= 1, got m={m}, l={l}")
    ab = Alphabet(m)
    while True:
        first = int(rng.integers(0, 2 * m))
        steps = rng.integers(0, 2 * m - 1, size=l - 1).tolist()
        w = [first]
        for c in steps:
            prev_inv = w[-1] ^ 1
            w.append(c if c < prev_inv else c + 1)
        if l == 1 or w[-1] != (w[0] ^ 1):
            return ab.decode(w)


# ---------------------------------------------------------------------------
# Pieces and metric small cancellation
# ---------------------------------------------------------------------------
#
# A piece is a common subword occurring at two distinct slots among the
# cyclic rotations of the relators and their inverses, where a slot is a
# (relator index, rotation position, orientation) triple and the identical
# occurrence is never paired with itself.  Piece lengths are capped at l-1;
# a full-length match is a relator coincidence and reported separately.


@dataclass(frozen=True)
class PieceWitness:
    first: tuple[int, int, int]   # (relator index, rotation position, orientation ±1)
    second: tuple[int, int, int]
    subword: str


@dataclass
class PieceReport:
    max_piece_length: int
    witness: PieceWitness | None
    lambda_threshold_passed: dict[Fraction, bool]
    relator_coincidences: list[tuple[int, int]]
    relator_length: int

    def passes(self, lam: Fraction) -> bool:
        # strict metric condition: every piece shorter than λ·l
        return self.max_piece_length * lam.denominator < lam.numerator * self.relator_length


_DEFAULT_LAMBDAS = (Fraction(1, 6), Fraction(1, 8), Fraction(1, 12))


def _relator_texts(relators: Sequence[str] | np.ndarray) -> np.ndarray:
    """The doubled texts of the relators and their inverses, as a (2R, 2l-1)
    int8 matrix in the layout of the module docstring.

    This is the one place that validates relators for rotation work: every
    letter must be a valid symbol, all relators must share one length, and
    each must be cyclically reduced (checked on the code matrix).  The
    relators may also come as an (R, l) int8 letter-code matrix, or as a
    (T, R, l) block of T stacked presentations, as the model's sampler
    draws them; only their reducedness is checked then, over the whole
    block at once, and the texts are a (T, 2R, 2l-1) block.
    """
    if isinstance(relators, np.ndarray):
        codes = relators
    else:
        words = ["" if w == EMPTY_WORD else w for w in relators]
        codes = _letter_codes(words)
        if (codes < 0).any():
            _infer_alphabet(words)  # raises, naming the first bad letter
        l = len(words[0]) if words else 0
        if any(len(w) != l for w in words):
            raise HeterogeneousLengthError("relators of unequal length")
        codes = codes.reshape(len(words), l)
    *lead, R, l = codes.shape
    bad = _not_cyclically_reduced(codes).ravel()
    if bad.any():
        word = _decode_rows(codes.reshape(-1, l)[[int(bad.argmax())]])[0]
        raise MalformedWordError(f"relator {word!r} is not cyclically reduced")
    both = np.stack([codes, codes[..., ::-1] ^ 1], axis=-2).reshape(*lead, 2 * R, l)
    return np.concatenate([both, both[..., :-1]], axis=-1)


def _text_length(texts: np.ndarray) -> int:
    """The relator length l of a `_relator_texts` matrix or block."""
    return (texts.shape[-1] + 1) // 2


def _slot_view(texts: np.ndarray, L: int) -> np.ndarray:
    """The length-L window (1 <= L <= l) at every slot as a (2R, l, L) view
    of the texts, or (T, 2R, l, L) of a block: window [..., t, q] is
    texts[..., t, q:q+L].  Built by hand, as one strided view, because
    `sliding_window_view` costs several times more than the
    small-presentation key builds that call this."""
    texts = np.ascontiguousarray(texts)
    shape = texts.shape[:-1] + (_text_length(texts), L)
    return np.ndarray(shape, texts.dtype, texts, 0, texts.strides + texts.strides[-1:])


def _key_bits(texts: np.ndarray) -> int:
    """Bits per letter of a packed window key: (2m-1).bit_length() for the
    m generators that the largest letter code in `texts` needs."""
    return (int(texts.max(initial=0)) | 1).bit_length()


def _window_keys(windows: np.ndarray, b: int) -> np.ndarray:
    """One sort key per window of non-negative letter codes along the last
    axis of `windows` (any leading shape): the L letters packed into one
    uint64, b bits each and the first letter highest, when L·b <= 64; else
    the window as one opaque byte string, whose byte order is then letter
    order.  Either way keys compare as their windows do lexicographically.
    This is the one place that chooses between the two formats."""
    L = windows.shape[-1]
    if L * b > 64:
        return np.ascontiguousarray(windows).view(np.dtype((np.void, L)))[..., 0]
    codes = windows.view(np.uint8)
    keys = np.zeros(windows.shape[:-1], dtype=np.uint64)
    for j in range(L):  # Horner steps over the window columns
        keys <<= b
        keys |= codes[..., j]
    return keys


# keys whose wrapped letters `_slot_keys` or's in at once: 512 KiB of
# temporaries.  Shifting all 1.8 M keys of the 38 050-relator demo host at
# once made a second 14 MiB array, and the `tree_build` benchmark's peak RSS
# then read 102 MiB in about half its runs, against 88 MiB
_KEY_BLOCK = 1 << 16


def _slot_keys(texts: np.ndarray, L: int) -> np.ndarray:
    """One `_window_keys` key per length-L slot window, in slot order, with
    b = `_key_bits` bits a letter: 2R·l keys, or a (T, 2R·l) row of them
    per presentation of a block, whose keys share the block's b.

    When l·b <= 64 the keys come from the rotations: each row's first l
    letters pack into one key K (l Horner steps over 2R values), rotation q
    is K shifted left by b·q, cut to l letters, or'ed with K shifted right
    by b·(l-q), and the window of length L at q is that rotation shifted
    right by b·(l-L).  Rotation 0 is K itself: its right shift is 0, not
    b·l, which is 64 at the widest and undefined for a uint64.  The keys
    are built in place; the right shifts are or'ed in _KEY_BLOCK keys at a
    time, so no second array of all the keys is made.  Wider texts are keyed
    window by window, by `_window_keys` on `_slot_view`."""
    l, b = _text_length(texts), _key_bits(texts)
    if l * b > 64:
        keys = _window_keys(_slot_view(texts, L), b)
    else:
        first = _window_keys(texts[..., :l], b).reshape(-1, 1)
        q = np.arange(l, dtype=np.uint64)
        right = (np.uint64(l) - q) * np.uint64(b)
        right[:1] = 0
        keys = np.left_shift(first, q * np.uint64(b))
        keys &= np.uint64((1 << b * l) - 1)
        rows = max(1, _KEY_BLOCK // max(l, 1))
        for lo in range(0, len(keys), rows):
            keys[lo : lo + rows] |= first[lo : lo + rows] >> right
        if L < l:
            keys >>= np.uint64(b * (l - L))
    return keys.reshape(texts.shape[:-2] + (texts.shape[-2] * l,))


_POWERS_OF_TWO = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """`int.bit_length` of every entry of a uint64 array, exactly: how many of
    the powers of two 2⁰ .. 2⁶³ are at most x, by a binary search that
    compares integers and never goes through a float."""
    return np.searchsorted(_POWERS_OF_TWO, x, side="right")


def _neighbour_lcp(ranked: np.ndarray, L: int, b: int) -> np.ndarray:
    """The longest common prefix, in letters, of each pair of neighbours of
    sorted `_slot_keys` of length-L windows, b bits per letter."""
    if ranked.dtype == np.uint64:
        # the first letter that differs holds the highest set bit of x ^ y
        return (b * L - _bit_length(ranked[1:] ^ ranked[:-1])) // b
    rows = ranked.view(np.int8).reshape(-1, L)
    return np.logical_and.accumulate(rows[1:] == rows[:-1], axis=1).sum(axis=1)


class _WindowIndex:
    """The distinct length-l windows of a `_relator_texts` matrix, one
    `_slot_keys` key each, sorted: every rotation of every relator and its
    inverse.

    Every query is a range of keys, as in a suffix array: the windows that
    start with a word are one run of the index (`prefix_range`), and since
    the index holds every rotation of each window, those that read a word
    from position a are that run rotated right by a (`reading`).  The index
    also knows whether the dedup dropped a key (`repeats`) and the longest
    piece (`longest_piece`), which is all the C'(1/6) gate asks.
    """

    def __init__(self, texts: np.ndarray):
        self.width = _text_length(texts)
        self.bits = _key_bits(texts)
        keys = _slot_keys(texts, self.width)
        keys.sort()
        # the first key of each run; the slice drops the leading True when
        # there is no key (no relator, or relators of length 0)
        self.keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)]]
        # a window at two slots: a periodic relator, or a coincidence
        self.repeats = len(self.keys) < len(keys)
        self._packed = keys.dtype == np.uint64

    @cached_property
    def longest_piece(self) -> int:
        """The longest piece: the one place it is computed, for the C'(1/6)
        gate and `max_piece_length` alike.  Any two keys share at most the
        prefix that some two sorted neighbours share, and a window at two
        slots shares its first l-1 letters with itself."""
        return self.width - 1 if self.repeats else int(
            _neighbour_lcp(self.keys, self.width, self.bits).max(initial=0))

    def prefix_range(self, word: Sequence[int]) -> range:
        """The positions of the keys whose windows start with `word`: two
        binary searches that read no window."""
        pad = self.width - len(word)
        if self._packed:
            if max(word, default=0) >> self.bits:
                return range(0)  # a letter that no window holds
            lo = 0
            for x in word:
                lo = lo << self.bits | x
            lo <<= self.bits * pad
            # the upper end as an or, which cannot carry past 64 bits
            lo, hi = np.uint64(lo), np.uint64(lo | ((1 << self.bits * pad) - 1))
        else:
            # codes lie in 0..127, so these paddings bracket every window
            lo, hi = np.void(bytes(word) + bytes(pad)), np.void(bytes(word) + b"\x7f" * pad)
        return range(np.searchsorted(self.keys, lo), np.searchsorted(self.keys, hi, side="right"))

    def prefix_ranges(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`prefix_range` of every row of an (N, k) int8 letter-code matrix,
        as arrays of starts and stops: the rows padded to full windows with
        the least and the greatest letter, keyed, and searched at once."""
        n, k = words.shape
        top = (1 << self.bits) - 1 if self._packed else 0x7F
        lo, hi = (_window_keys(np.concatenate([words, np.full((n, self.width - k), pad, np.int8)],
                                              axis=1), self.bits) for pad in (0, top))
        starts = np.searchsorted(self.keys, lo)
        stops = np.searchsorted(self.keys, hi, side="right")
        if self._packed:  # a letter that no window holds finds none
            stops = np.where((words >> self.bits).any(axis=1), starts, stops)
        return starts, stops

    def reading(self, word: Sequence[int], at: int) -> np.ndarray:
        """The sorted keys of the windows that read `word` from position `at`."""
        r = self.prefix_range(word)
        keys = self.keys[r.start : r.stop]
        if self._packed:
            s, n = self.bits * (at % self.width), self.bits * self.width
            if s:
                keys = keys >> s | (keys << (n - s) & np.uint64((1 << n) - 1))
        else:
            keys = np.roll(self.rows(keys), at, axis=1).view(keys.dtype).ravel()
        return np.sort(keys)

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The windows of `keys` as an (n, l) int8 letter-code matrix."""
        if self._packed:
            shifts = np.arange(self.width - 1, -1, -1, dtype=np.uint64) * np.uint64(self.bits)
            return (keys[:, None] >> shifts & np.uint64((1 << self.bits) - 1)).astype(np.int8)
        return keys.view(np.int8).reshape(-1, self.width)

    def letters(self, key) -> tuple[int, ...]:
        """The letter codes of the window of one key."""
        if self._packed:
            k, b = int(key), self.bits
            return tuple(k >> s & ((1 << b) - 1) for s in range(b * (self.width - 1), -1, -b))
        return tuple(key.tobytes())


def _relator_windows(relators: Sequence[str] | np.ndarray) -> _WindowIndex:
    """All rotations of the relators and their inverses, deduplicated and in
    lexicographic order, as the keys of a `_WindowIndex`: the C'(1/6) gate's
    longest piece, the round trees' cell-word candidates, the naive
    closure's seam index, and the Dehn engine's arcs and ball tails.  Built
    once per presentation, by `model.Presentation.windows`.

    The order matters: the window search shuffles positions in this order,
    so the windows must come out in the same order for a tree to be
    reproducible.
    """
    return _WindowIndex(_relator_texts(relators))


def max_piece_length(relators: Sequence[str]) -> PieceReport:
    """Maximum piece length over all rotations of the relators and inverses.

    The length plen is the window index's `longest_piece`: the longest
    common prefix of two sorted neighbours among the length-l windows
    (Manber & Myers), or l-1 when a window lies at two slots.  Relator
    coincidences are sought only then, since a coincidence repeats a
    rotation.  The texts that hold a slot of a longest piece are the texts
    of the slots whose length-plen window equals one at another slot, found
    by sorting those windows by value.  The witness is the one a generalized
    suffix automaton of all the texts gives, read off those texts
    (`_piece_witness`):

    - The texts form one stream: text t starts at t·2l, and each text's
      start is a letter of its own.  An occurrence is its end (t, e), in
      stream order, at slot (t, e mod l).  A class is the set of words with
      the same ends; it owns a stream prefix if it has one end or its
      longest word begins text 0.
    - A candidate is a class that covers two slots and whose longest word
      has length plen, or any length >= l-1 when plen = l-1.  The witness
      class is the candidate created first.  An owner is created at its
      first end, any other class at its first end whose preceding letter
      differs from the letter before an earlier end.
    - The two slots are the first two distinct ones in this order: the
      class's own first end, if it owns a stream prefix; then its
      one-letter-longer classes, one per letter before its ends, each in
      the same order, recursively, by rank descending, then by creation.
      An owner's rank is its first end's stream position + 1, any other
      class's the length of its longest word.

    The all-pairs scan in `tests/oracles.py` is the independent length
    oracle, and the full automaton in `tests/test_words.py` the witness
    oracle.
    """
    texts = _relator_texts(relators)
    index = _WindowIndex(texts)
    l, plen = index.width, index.longest_piece
    # a coincidence repeats a rotation, but at l = 0 there is no window and
    # every relator is the empty word
    coincidences = _relator_coincidences(texts) if index.repeats or l == 0 else []
    report = PieceReport(plen, None, {}, coincidences, l)
    if plen > 0:
        # the texts of the slots whose length-plen window lies at another
        # slot; a slot of text t is t·l + position (`_slot_keys`)
        keys = _slot_keys(texts, plen)
        ranked = np.sort(keys)
        repeated = ranked[1:][ranked[1:] == ranked[:-1]]
        held = repeated.take(np.searchsorted(repeated, keys), mode="clip") == keys
        tids = np.unique(np.flatnonzero(held) // l)
        report.witness = _piece_witness(texts, tids.tolist(), plen)
    report.lambda_threshold_passed = {lam: report.passes(lam) for lam in _DEFAULT_LAMBDAS}
    return report


def _piece_witness(texts: np.ndarray, tids: list[int], plen: int) -> PieceWitness:
    """The witness of a longest piece, of length plen, read off the ends of
    the length-plen words in the texts `tids`, which hold every occurrence of
    a longest piece, by the rule stated in `max_piece_length`.  A class is
    its ends, in stream order, and the length of its longest word."""
    l = _text_length(texts)
    rows = {t: texts[t].tobytes() for t in tids}
    groups: dict[bytes, list[tuple[int, int]]] = {}
    for t in tids:
        for e in range(plen - 1, 2 * l - 1):
            groups.setdefault(rows[t][e - plen + 1 : e + 1], []).append((t, e))

    def pos(end):
        return end[0] * 2 * l + end[1]

    def before(end, L):
        # the letter before the length-L word that ends at `end`; the start
        # of text t is a letter of its own, -1 - t
        t, e = end
        return rows[t][e - L] if e >= L else -1 - t

    def klass(ends, L):
        # the longest word: extend left while one letter precedes every end
        while len(ends) > 1:
            letters = {before(x, L) for x in ends}
            if len(letters) > 1 or min(letters) < 0:
                break
            L += 1
        return ends, L

    def owner(ends, L):
        return len(ends) == 1 or ends[0] == (0, L - 1)

    def created(ends, L):
        if owner(ends, L):
            return pos(ends[0])
        return pos(next(x for x in ends if before(x, L) != before(ends[0], L)))

    def rank(ends, L):
        return pos(ends[0]) + 1 if owner(ends, L) else L

    def children(ends, L):
        # the one-letter-longer classes, by the letter before each end
        kids: dict[int, list[tuple[int, int]]] = {}
        for x in ends[owner(ends, L):]:
            kids.setdefault(before(x, L), []).append(x)
        return [klass(k, L + 1) for k in kids.values()]

    first: dict[tuple[int, int], None] = {}

    def order(ends, L):
        if owner(ends, L):
            first.setdefault((ends[0][0], ends[0][1] % l))
        for kid in sorted(children(ends, L), key=lambda k: (-rank(*k), created(*k))):
            if len(first) < 2:
                order(*kid)

    # the candidates searched are the words of length plen at two slots that
    # are the longest of their class.  A longer candidate is never created
    # first: its longest word less the last letter is a candidate too,
    # created one end earlier.
    cands = [ends for ends in groups.values()
             if len({(t, e % l) for t, e in ends}) > 1 and klass(ends, plen)[1] == plen]
    order(min(cands, key=lambda ends: created(ends, plen)), plen)
    (t, e), (t2, e2) = first
    q, q2 = (e - plen + 1) % l, (e2 - plen + 1) % l
    return PieceWitness((t // 2, q, 1 - 2 * (t % 2)), (t2 // 2, q2, 1 - 2 * (t2 % 2)),
                        "".join(_CHARS[x] for x in rows[t][q : q + plen]))


def _relator_coincidences(texts: np.ndarray) -> list[tuple[int, int]]:
    """Pairs of relator indices equal as unoriented cyclic words, in sorted
    order: relators whose least rotation (of the relator or its inverse)
    agree."""
    R, l = texts.shape[0] // 2, _text_length(texts)
    if l == 0:
        groups = [np.arange(R)]  # every relator is the empty word
    else:
        keys = _slot_keys(texts, l).reshape(R, 2 * l)
        least = np.sort(keys, axis=1)[:, 0]
        order = np.argsort(least, kind="stable")
        ranked = least[order]
        groups = np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)
    return sorted(pair for g in groups for pair in combinations(g.tolist(), 2))


# keys sorted at once by `_has_repeated_window`: 512 KiB of packed keys.  A
# 12-trial chunk of 2 724-relator presentations at l = 24 (12.5 MiB of keys)
# checked 35 % slower in one sort than in 12, while slices of this size
# checked chunks of 195-relator presentations 20 % faster than one sort (both
# on a 2-core Xeon VM)
_SORT_KEYS = 1 << 16


def _has_repeated_window(texts: np.ndarray, L: int) -> np.ndarray:
    """The (T,) mask of the presentations of a (T, 2R, 2l-1) block of
    `_relator_texts` in which some length-L subword occurs at two distinct
    slots: one sort along the rows of a (t, 2R·l) key matrix answers t
    presentations at once, t as many as fill _SORT_KEYS keys (at least
    one)."""
    out = np.zeros(len(texts), dtype=bool)
    if not 1 <= L <= _text_length(texts) - 1:
        return out
    step = max(1, _SORT_KEYS // max(1, texts.shape[1] * _text_length(texts)))
    for lo in range(0, len(texts), step):
        # distinct keys are distinct slots by construction, so a key equal to
        # its sorted neighbour is exactly a piece of length L
        keys = _slot_keys(texts[lo : lo + step], L)
        keys.sort(axis=1)
        out[lo : lo + step] = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
    return out


def has_piece_of_length(relators: Sequence[str], L: int) -> bool:
    """Exact test: does some length-L subword occur at two distinct slots?
    The block test of `_has_repeated_window` on a block of one."""
    return bool(_has_repeated_window(_relator_texts(relators)[None], L)[0])


def check_lambda(lam: Fraction) -> None:
    if not (0 < lam < 1):
        raise DomainError(f"λ must lie in (0,1), got {lam}")


def check_c_prime(relators: Sequence[str] | np.ndarray, lam: Fraction) -> bool:
    """Strict metric small cancellation C'(λ): every piece shorter than λ·l.
    The relators are words or an (R, l) letter-code matrix (`_relator_texts`),
    checked as a block of one by `_c_prime_block`."""
    return bool(_c_prime_block(relators, lam)[0])


def _c_prime_block(relators: Sequence[str] | np.ndarray, lam: Fraction) -> np.ndarray:
    """C'(λ) of every presentation of a (T, R, l) int8 letter-code block, as
    `model._trial_relators` draws them, as a (T,) mask; one presentation, as
    `check_c_prime` takes it, is a block of one.  The presentations are
    answered together by sorts along the rows of key matrices
    (`_has_repeated_window`), not one check at a time."""
    lam = Fraction(lam)
    check_lambda(lam)
    texts = _relator_texts(relators)
    if texts.ndim == 2:
        texts = texts[None]
    l = _text_length(texts)
    # max_piece >= λl  <=>  a repeated window of length ceil(λl) exists
    # (piece lengths are integers, capped at l-1)
    threshold = -((-lam.numerator * l) // lam.denominator)  # ceil(λl)
    return ~_has_repeated_window(texts, threshold)
