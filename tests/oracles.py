"""Independent oracles that the tests compare the library's fast paths against.

Each one is the plain, slow definition of what it checks, and none reads the
path it checks:

- `fill_tuples_bruteforce` filters the full tuple product through the
  filling conditions as `verify_filling` reads them off the diagram, not
  through the compiled constraints that `fill` and the exact counts share;
- `max_piece_length_quadratic` scans every pair of rotation windows, where
  `max_piece_length` sorts packed window keys;
- `exact_cprime_fraction_single_relator` enumerates every relator and
  tests C'(λ) through the all-pairs scan, where `cprime_genericity_scan`
  samples and checks repeated windows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from randomgroups.diagrams import Diagram, _filling_conditions, _meets_conditions
from randomgroups.words import (
    _infer_alphabet,
    _relator_texts,
    _text_length,
    enumerate_cyclically_reduced,
)


def fill_tuples_bruteforce(
    diagram: Diagram,
    words: Sequence[str],
    distinct: bool = True,
    upto: int | None = None,
) -> list[tuple[str, ...]]:
    """Every `upto`-tuple of `words` (n(X) by default) that fills the
    diagram, in product order; with `distinct` only tuples of distinct words."""
    ab = _infer_alphabet(list(words))
    n = upto if upto is not None else diagram.n
    conditions = _filling_conditions(diagram, ab, n)
    coded = [ab.encode(w) for w in words]
    out = []
    for tup, codes in zip(itertools.product(words, repeat=n),
                          itertools.product(coded, repeat=n)):
        if distinct and len(set(tup)) != len(tup):
            continue
        if _meets_conditions(codes, conditions):
            out.append(tup)
    return out


def max_piece_length_quadratic(relators: Sequence[str]) -> int:
    """The longest subword at two distinct slots of the relator texts, by an
    all-pairs scan over rotation windows from the longest length down."""
    texts = _relator_texts(relators)
    l = _text_length(texts)
    if l < 2:
        return 0
    rows = [tuple(t) for t in texts.tolist()]
    for L in range(l - 1, 0, -1):
        seen: dict[tuple, tuple] = {}
        for tid, t in enumerate(rows):
            for p in range(l):
                w = t[p : p + L]
                slot = (tid, p)
                prev = seen.get(w)
                if prev is not None and prev != slot:
                    return L
                seen.setdefault(w, slot)
    return 0


def exact_cprime_fraction_single_relator(m: int, l: int, lam) -> Fraction:
    """The exact fraction of single relators passing C'(λ), the scan's value
    at d = 0: every piece is shorter than λ·l."""
    lam = Fraction(lam)
    words = enumerate_cyclically_reduced(m, l)
    good = sum(1 for w in words if max_piece_length_quadratic([w]) < lam * l)
    return Fraction(good, len(words))
