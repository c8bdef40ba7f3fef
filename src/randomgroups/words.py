"""Free-group word algebra over a symmetrized alphabet.

Letters are serialized as ASCII: lowercase ``a..z`` are generators, the
matching uppercase letters their formal inverses, and the empty word prints
as ``"1"``.  The letter order used everywhere (lexicographic enumeration,
canonical rotations) is ``a < A < b < B < ...``.

Internally a word is a tuple of ints ``0 .. 2m-1`` where generator ``k``
is ``2k``, its inverse ``2k + 1``, so inversion is ``x ^ 1`` and the int
order coincides with the declared letter order.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_CODE_OF_BYTE[np.frombuffer(_CHARS.encode("ascii"), dtype=np.uint8)] = np.arange(len(_CHARS))

DEFAULT_ENUMERATION_BUDGET = 10**7


def inverse_letter(x: int) -> int:
    return x ^ 1


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


def _reduce_ints(w: Sequence[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in w:
        if stack and stack[-1] == (x ^ 1):
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def reduce_word(word: str, alphabet: Alphabet | None = None) -> str:
    """Free reduction: the unique reduced word freely equal to ``word``."""
    ab = alphabet or _infer_alphabet([word])
    return ab.decode(_reduce_ints(ab.encode(word)))


def is_reduced_word(word: str, alphabet: Alphabet | None = None) -> bool:
    ab = alphabet or _infer_alphabet([word])
    w = ab.encode(word)
    return all(w[i + 1] != (w[i] ^ 1) for i in range(len(w) - 1))


def is_cyclically_reduced_word(word: str, alphabet: Alphabet | None = None) -> bool:
    ab = alphabet or _infer_alphabet([word])
    w = ab.encode(word)
    if not all(w[i + 1] != (w[i] ^ 1) for i in range(len(w) - 1)):
        return False
    return len(w) <= 1 or w[-1] != (w[0] ^ 1)


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
    return (2 * m - 1) ** l + 1 + (m - 1) * (1 + (-1) ** l)


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


def _sample_reduced_batch(m: int, l: int, n: int, rng: np.random.Generator) -> np.ndarray:
    words = np.empty((n, l), dtype=np.int8)
    words[:, 0] = rng.integers(0, 2 * m, size=n)
    for j in range(1, l):
        c = rng.integers(0, 2 * m - 1, size=n).astype(np.int8)
        prev_inv = words[:, j - 1] ^ 1
        words[:, j] = c + (c >= prev_inv)
    return words


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


def sample_cyclically_reduced_batch(
    m: int, l: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized sampler; returns an (count, l) int8 array of letter codes."""
    if m < 2 or l < 1:
        raise DomainError(f"need m >= 2 and l >= 1, got m={m}, l={l}")
    chunks = []
    need = count
    while need > 0:
        batch = _sample_reduced_batch(m, l, max(need + 8, int(need * 1.1)), rng)
        if l > 1:
            batch = batch[batch[:, -1] != (batch[:, 0] ^ 1)]
        chunks.append(batch[:need])
        need -= len(batch[:need])
    return np.concatenate(chunks, axis=0)


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


def _relator_texts(relators: Sequence[str], ab: Alphabet) -> tuple[list[tuple[int, int, tuple[int, ...]]], int]:
    """Doubled-minus-last texts for each relator and inverse, with slot metadata."""
    if not relators:
        return [], 0
    words = []
    for r in relators:
        w = r.word if isinstance(r, CyclicWord) else r
        if not is_cyclically_reduced_word(w, ab):
            raise MalformedWordError(f"relator {w!r} is not cyclically reduced")
        words.append(ab.encode(w))
    l = len(words[0])
    if any(len(w) != l for w in words):
        raise HeterogeneousLengthError("relators of unequal length")
    texts = []
    for i, w in enumerate(words):
        wi = tuple((x ^ 1) for x in reversed(w))
        texts.append((i, +1, w + w[:-1]))
        texts.append((i, -1, wi + wi[:-1]))
    return texts, l


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


def max_piece_length(
    relators: Sequence[str | CyclicWord],
    lambdas: Sequence[Fraction] = _DEFAULT_LAMBDAS,
) -> PieceReport:
    """Maximum piece length over all rotations of the relators and inverses.

    Default implementation: a generalized suffix automaton over the doubled
    rotations; `max_piece_length_quadratic` is the independent oracle.
    """
    ab = _infer_alphabet([r.word if isinstance(r, CyclicWord) else r for r in relators]) \
        if relators else Alphabet(1)
    texts, l = _relator_texts(relators, ab)
    report = PieceReport(0, None, {}, _relator_coincidences(relators, ab), l)
    if texts and l >= 2:
        # one automaton over all texts chained with unique separators: a
        # substring containing a separator occurs exactly once, so it can
        # never witness a repeat and needs no special handling
        sam = _SuffixAutomaton()
        for tid, (_ri, _o, t) in enumerate(texts):
            for pos, c in enumerate(t):
                sam.extend(c, (tid, pos))
            sam.extend(-1 - tid, None)

        nstates = len(sam.length)
        # per state: up to two occurrences keyed by slot identity
        # (text id, end mod l); two distinct keys are two distinct slots
        slots: list[dict[tuple[int, int], tuple[int, int]]] = [dict() for _ in range(nstates)]

        def add_slot(v: int, occ: tuple[int, int]):
            d = slots[v]
            if len(d) >= 2:
                return
            tid, end = occ
            d.setdefault((tid, end % l), occ)

        for v in range(nstates):
            if sam.own[v] is not None:
                add_slot(v, sam.own[v])
        order = sorted(range(nstates), key=lambda v: sam.length[v], reverse=True)
        for v in order:
            p = sam.link[v]
            if p > 0:
                for occ in slots[v].values():
                    add_slot(p, occ)

        best_v, best_len = -1, 0
        for v in range(1, nstates):
            if len(slots[v]) >= 2:
                cand = min(sam.length[v], l - 1)
                if cand > best_len:
                    best_len, best_v = cand, v
        if best_v >= 0:
            report.max_piece_length = best_len
            report.witness = _witness_from_state(sam, slots[best_v], texts, l, best_len, ab)
    report.lambda_threshold_passed = {lam: report.passes(lam) for lam in lambdas}
    return report


def _witness_from_state(sam, d, texts, l, plen, ab) -> PieceWitness:
    occs = list(d.values())[:2]
    slots = []
    sub = None
    for tid, end in occs:
        ri, orient, t = texts[tid]
        start_in_text = end - plen + 1
        if sub is None:
            sub = ab.decode(t[start_in_text : end + 1])
        slots.append((ri, start_in_text % l, orient))
    return PieceWitness(first=slots[0], second=slots[1], subword=sub)


def _relator_coincidences(relators: Sequence[str | CyclicWord], ab: Alphabet) -> list[tuple[int, int]]:
    """Pairs of relator indices equal as unoriented cyclic words."""
    canon = []
    for r in relators:
        w = r.word if isinstance(r, CyclicWord) else r
        cw = cyclically_reduce(w, ab).canonical
        cinv = cyclically_reduce(inverse_word(w, ab), ab).canonical
        canon.append(min(cw, cinv))
    out = []
    for i in range(len(canon)):
        for j in range(i + 1, len(canon)):
            if canon[i] == canon[j]:
                out.append((i, j))
    return out


def max_piece_length_quadratic(relators: Sequence[str | CyclicWord]) -> int:
    """All-pairs scan over rotation windows; the test oracle for max_piece_length."""
    ab = _infer_alphabet([r.word if isinstance(r, CyclicWord) else r for r in relators]) \
        if relators else Alphabet(1)
    texts, l = _relator_texts(relators, ab)
    if not texts or l < 2:
        return 0
    for L in range(l - 1, 0, -1):
        seen: dict[tuple, tuple] = {}
        for (ri, orient, t) in texts:
            for p in range(l):
                w = t[p : p + L]
                slot = (ri, p, orient)
                prev = seen.get(w)
                if prev is not None and prev != slot:
                    return L
                seen.setdefault(w, slot)
    return 0


def _encode_rows(words: Sequence[str]) -> np.ndarray:
    """Validated words of one common length as an (n, l) int8 matrix of
    letter codes, encoded in one vectorised lookup."""
    text = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    return _CODE_OF_BYTE[text].reshape(len(words), -1)


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Sort the rows of a C-contiguous int8 matrix in place, lexicographically,
    and return the mask of rows equal to their predecessor (length n - 1).

    Each row is viewed as one opaque byte string, so this is a single
    `np.sort` of n items for every row width.  Letter codes are
    non-negative, so byte order is the lexicographic order of the codes.
    (NumPy's row-wise unique, which sorts a structured view, is about eight
    times slower on 1.8 M rows of 24 letters.)
    """
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    keys.sort()
    return keys[1:] == keys[:-1]


def _window_matrix(relators: Sequence[str], ab: Alphabet, L: int) -> np.ndarray:
    """The length-L window at every slot, one row per slot: 2·R·l rows."""
    texts, l = _relator_texts(relators, ab)
    doubled = np.array([t for (_ri, _o, t) in texts], dtype=np.int8)
    windows = sliding_window_view(doubled, L, axis=1)[:, :l]
    return windows.copy().reshape(-1, L)


def has_piece_of_length(relators: Sequence[str | CyclicWord], L: int) -> bool:
    """Exact test: does some length-L subword occur at two distinct slots?"""
    rel = [r.word if isinstance(r, CyclicWord) else r for r in relators]
    if not rel:
        return False
    ab = _infer_alphabet(rel)
    l = len(rel[0])
    if L < 1 or L > l - 1:
        return False
    rows = _window_matrix(rel, ab, L)
    # distinct rows are distinct slots by construction, so a duplicated row
    # value is exactly a piece of length L
    return bool(_sort_rows(rows).any())


def check_c_prime(relators: Sequence[str | CyclicWord], lam: Fraction) -> bool:
    """Strict metric small cancellation C'(λ): every piece shorter than λ·l."""
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise DomainError(f"λ must lie in (0,1), got {lam}")
    rel = [r.word if isinstance(r, CyclicWord) else r for r in relators]
    if not rel:
        return True
    ab = _infer_alphabet(rel)
    l = len(ab.encode(rel[0]))
    for r in rel:
        if len(ab.encode(r)) != l:
            raise HeterogeneousLengthError("relators of unequal length")
    # max_piece >= λl  <=>  a repeated window of length ceil(λl) exists
    # (piece lengths are integers, capped at l-1)
    threshold = -((-lam.numerator * l) // lam.denominator)  # ceil(λl)
    if threshold > l - 1:
        return True
    return not has_piece_of_length(rel, threshold)
