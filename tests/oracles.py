"""Independent oracles that the tests compare the library's fast paths against.

Each one is the plain, slow definition of what it checks, and none reads the
path it checks:

- `verify_filling` reads the two filling conditions straight off a
  diagram's faces and restrictions (`_filling_conditions`), where the
  library reads them through `belonging`: `fill`, the exact counts, Monte
  Carlo and the filling gate of `boundary_word` and `isoperimetric_check`
  all do.  It checks every condition, tie edges included, so it agrees with
  `fill` on reduced diagrams only: on a non-reduced mirrored pair the tie's
  condition x == x holds and the oracle accepts every word, while `fill`
  counts the diagram as never fillable;
- `fill_tuples_bruteforce` filters the full tuple product through the
  filling conditions as `verify_filling` reads them off the diagram, not
  through the compiled constraints that `fill` and the exact counts share;
- `max_piece_length_quadratic` scans every pair of rotation windows, where
  `max_piece_length` sorts packed window keys;
- `exact_cprime_fraction_single_relator` enumerates every relator and
  tests C'(λ) through the all-pairs scan, where `cprime_genericity_scan`
  samples and checks repeated windows;
- `tree_file_by_json_dumps` writes a round tree's file as one
  `json.dumps(payload, indent=1)` call, CPython's encoder, where
  `tree_to_json` writes its edges and step lists as rows of text in bulk.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Sequence

from randomgroups.diagrams import Diagram, k_of
from randomgroups.roundtree import RoundTree, _record
from randomgroups.words import (
    Alphabet,
    _infer_alphabet,
    _relator_texts,
    _text_length,
    enumerate_cyclically_reduced,
)


def verify_filling(
    diagram: Diagram,
    words: Sequence[str],
    alphabet: Alphabet | None = None,
    upto: int | None = None,
) -> bool:
    """Independent checker of the two filling conditions, straight off their text.

    `words` are the candidate relator words for indices 1..len(words); with
    `upto = m` only faces bearing indices <= m constrain the outcome.
    """
    ab = alphabet or _infer_alphabet(list(words))
    conditions = _filling_conditions(diagram, ab, upto if upto is not None else len(words))
    return _meets_conditions([ab.encode(w) for w in words], conditions)


def _filling_conditions(diagram: Diagram, ab: Alphabet, upto: int):
    """The filling conditions of the faces bearing indices <= upto, read off
    the diagram's faces and restrictions alone: each shared edge as (i1, k1,
    i2, k2, flip), whose letters satisfy x == y ^ flip, and each restricted
    boundary edge as (i, k, letter code), with 0-based i and k."""
    pairs, letters = [], []
    for e, s in diagram.side_map().items():
        if len(s) == 2:
            (fa, pa, _), (fb, pb, _) = s
            a, b = diagram.faces[fa], diagram.faces[fb]
            if a.bears <= upto and b.bears <= upto:
                pairs.append((a.bears - 1, k_of(a, pa) - 1, b.bears - 1, k_of(b, pb) - 1,
                              int(a.orientation == b.orientation)))
        elif len(s) == 1 and e in diagram.restrictions:
            (fa, pa, _) = s[0]
            f = diagram.faces[fa]
            if f.bears <= upto:
                letters.append((f.bears - 1, k_of(f, pa) - 1,
                                ab.encode(diagram.restrictions[e])[0]))
    return pairs, letters


def _meets_conditions(coded: Sequence[Sequence[int]], conditions) -> bool:
    """Do the coded words, one per bearing index, meet `_filling_conditions`?"""
    pairs, letters = conditions
    return (all(coded[i1][k1] == coded[i2][k2] ^ flip for i1, k1, i2, k2, flip in pairs)
            and all(coded[i][k] == code for i, k, code in letters))


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


def tree_file_by_json_dumps(tree: RoundTree) -> str:
    """The tree file as `json.dumps` writes its payload at indent 1."""
    payload = {
        "host": tree.host.serialize(),
        "host_fingerprint": tree.host.fingerprint(),
        "params": {
            "V": tree.params.V,
            "H": tree.params.H,
            "ext_offset": tree.params.ext_offset,
            "ext_len": tree.params.ext_len,
            "seg_len": tree.params.segment_length(tree.host.l),
            "beta": None if tree.params.beta is None else str(tree.params.beta),
            "eta": None if tree.params.eta is None else str(tree.params.eta),
        },
        "levels": tree.levels,
        "vertices": len(tree.out),
        "edges": sorted(
            (v, x, w) for v, nbrs in enumerate(tree.out) for x, w in nbrs.items() if (v, x, w) <= (w, x ^ 1, v)
        ),
        "cells": [_record(c) for c in tree.cells],
        "sectors": {
            ",".join(map(str, k)): _record(sec, skip=("key",)) for k, sec in tree.sectors.items()
        },
        "brackets": [_record(b) for b in tree.brackets],
        "extension_paths": tree.extension_paths,
        "offset_words": {c: tree.ab.decode(w) for c, w in tree.offset_words.items()},
        "ext_words": {
            c: [None if w is None else tree.ab.decode(w) for w in ws]
            for c, ws in tree.ext_words.items()
        },
    }
    return json.dumps(payload, indent=1)
