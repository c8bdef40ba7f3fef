from fractions import Fraction

import pytest
from hypothesis import strategies as st

from randomgroups.cayley import is_dehn_ready
from randomgroups.model import sample_presentation
from randomgroups.roundtree import RoundTreeParams, init_round_tree
from randomgroups.words import Alphabet, inverse_word

# feasible desk-scale round-tree configuration: a dense host makes bracket
# windows plentiful, and 6-edge segments keep the sector growth rate tame
TREE_DEMO = dict(m=2, l=24, d=Fraction(2, 5), seg_len=6, V=2, H=4,
                 ext_offset=1, ext_len=1)


@st.composite
def relator_sets(draw):
    """(m, relators): equal-length cyclically reduced relators on m in {2, 3}
    generators, with periodic relators (whose rotations coincide) and
    repeated relators, rotated or inverted, among them."""
    m = draw(st.sampled_from([2, 3]))
    period = draw(st.integers(1, 4))
    l = period * draw(st.integers(1, 3))

    def word(n):
        w = [draw(st.integers(0, 2 * m - 1))]
        while len(w) < n:
            banned = {w[-1] ^ 1} | ({w[0] ^ 1} if len(w) == n - 1 else set())
            w.append(draw(st.sampled_from([x for x in range(2 * m) if x not in banned])))
        return w

    ab = Alphabet(m)
    rels = []
    for _ in range(draw(st.integers(1, 5))):
        periodic = draw(st.booleans())
        rels.append(ab.decode(word(period) * (l // period) if periodic else word(l)))
    for i in draw(st.lists(st.integers(0, len(rels) - 1), max_size=3)):
        r = inverse_word(rels[i], ab) if draw(st.booleans()) else rels[i]
        k = draw(st.integers(0, l - 1))
        rels.append(r[k:] + r[:k])
    return m, rels


def find_verified_presentation(m, l, d, max_seeds=5000):
    """First seed whose sampled presentation passes the strict C'(1/6) gate."""
    for seed in range(max_seeds):
        p = sample_presentation(m, l, d, seed=seed)
        if is_dehn_ready(p):
            return p
    return None


def build_demo_tree(levels=3, max_seeds=20):
    cfg = TREE_DEMO
    params = RoundTreeParams(
        V=cfg["V"], H=cfg["H"], ext_offset=cfg["ext_offset"],
        ext_len=cfg["ext_len"], seg_len=cfg["seg_len"],
        beta=Fraction(1, 2), eta=Fraction(1, 12),
    )
    failures = []
    for seed in range(max_seeds):
        host = sample_presentation(cfg["m"], cfg["l"], cfg["d"], seed=seed)
        try:
            tree = init_round_tree(host, params)
            for _ in range(levels):
                tree.grow_level()
            return tree, failures
        except Exception as e:
            failures.append((seed, type(e).__name__, str(e)))
    return None, failures


@pytest.fixture(scope="session")
def verified_presentation():
    """A sampled C'(1/6)-verified presentation; small-cancellation is rare at
    desk scale, so the generators/length differ from the acceptance wish list
    (see the criterion 8 discussion in tests/test_acceptance.py)."""
    p = find_verified_presentation(3, 12, 0)
    if p is None:
        pytest.skip("no verified presentation found in the seed range")
    return p


@pytest.fixture(scope="session")
def demo_tree():
    tree, failures = build_demo_tree(levels=3)
    if tree is None:
        pytest.fail(f"no demo tree built; obstructions: {failures}")
    return tree
