"""Sampling, nesting, and persistence of density-model presentations.

A presentation is a list of ⌊(2m-1)^(dl)⌋ i.i.d. uniform cyclically reduced
words of length l.  The density d is kept as an exact rational and the floor
is computed with integer q-th roots, so the count is never off by one at a
floor boundary.  Relator i is drawn from its own counter-derived stream
(SeedSequence(seed, spawn_key=(i,)) feeding Philox), which makes sampling
order-deterministic and embarrassingly parallel.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import BudgetExceededError, DomainError, NestingError, ParseError
from .words import Alphabet, is_cyclically_reduced_word, sample_cyclically_reduced

DEFAULT_COUNT_BUDGET = 10**6
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
    """Exact ⌊(2m-1)^(dl)⌋ via integer q-th roots of (2m-1)^(pl)."""
    if m < 2 or l < 1:
        raise DomainError(f"need m >= 2 and l >= 1, got m={m}, l={l}")
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
    """A sampled point of the density model: (m, l, d, relators, seed)."""

    m: int
    l: int
    density: Fraction
    relators: tuple[str, ...]
    seed: int
    parent_fingerprint: str | None = None
    count_budget: int = field(default=DEFAULT_COUNT_BUDGET, repr=False, compare=False)

    def __post_init__(self):
        ab = Alphabet(self.m)
        expected = relator_count(self.m, self.l, self.density, self.count_budget)
        if len(self.relators) != expected:
            raise DomainError(
                f"presentation must have ⌊(2m-1)^(dl)⌋ = {expected} relators, "
                f"got {len(self.relators)}"
            )
        for r in self.relators:
            if len(r) != self.l:
                raise DomainError(f"relator {r!r} does not have length l={self.l}")
            if not is_cyclically_reduced_word(r, ab):
                raise DomainError(f"relator {r!r} is not cyclically reduced")

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


def check_seed(seed: int) -> None:
    """Seeds are SeedSequence entropy, so they must be nonnegative."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def _relator_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_presentation(
    m: int, l: int, d, seed: int, budget: int = DEFAULT_COUNT_BUDGET
) -> Presentation:
    """⌊(2m-1)^(dl)⌋ i.i.d. uniform cyclically reduced relators; byte-deterministic."""
    check_seed(seed)
    d = as_density(d)
    count = relator_count(m, l, d, budget)
    relators = tuple(
        sample_cyclically_reduced(m, l, _relator_rng(seed, i)) for i in range(count)
    )
    return Presentation(m=m, l=l, density=d, relators=relators, seed=seed,
                        count_budget=budget)


def extend_presentation(
    base: Presentation, d_target, seed: int, budget: int = DEFAULT_COUNT_BUDGET
) -> Presentation:
    """Two-step sampling: keep base.relators as a prefix, draw the rest fresh."""
    check_seed(seed)
    d_target = as_density(d_target)
    if d_target < base.density:
        raise NestingError(
            f"target density {d_target} is below the base density {base.density}"
        )
    count = relator_count(base.m, base.l, d_target, budget)
    fresh = tuple(
        sample_cyclically_reduced(base.m, base.l, _relator_rng(seed, i))
        for i in range(len(base.relators), count)
    )
    return Presentation(
        m=base.m,
        l=base.l,
        density=d_target,
        relators=base.relators + fresh,
        seed=seed,
        parent_fingerprint=base.fingerprint(),
        count_budget=budget,
    )


def save_presentation(p: Presentation, path) -> None:
    Path(path).write_text(p.serialize(), encoding="utf-8")


def load_presentation(path, budget: int = DEFAULT_COUNT_BUDGET) -> Presentation:
    text = Path(path).read_text(encoding="utf-8")
    return parse_presentation(text, budget=budget)


def parse_presentation(text: str, budget: int = DEFAULT_COUNT_BUDGET) -> Presentation:
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
    relators = []
    ab = Alphabet(m)
    for i, raw in enumerate(lines[2:], start=3):
        r = raw.strip()
        if not r:
            continue
        if len(r) != l:
            raise ParseError(f"relator length {len(r)} != l={l}", line=i)
        if not is_cyclically_reduced_word(r, ab):
            raise ParseError(f"relator {r!r} is not cyclically reduced", line=i)
        relators.append(r)
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
            count_budget=budget,
        )
    except DomainError as e:
        raise ParseError(str(e), line=2)
