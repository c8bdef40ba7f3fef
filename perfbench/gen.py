"""Build one run's input artefacts and op list, in a process of its own.

    python3 perfbench/gen.py --workload NAME --seed N --dir DIR

Every artefact (presentations, diagrams, trees, word lists) is made by the
library under test from values derived from the workload seed, and written
under DIR together with `ops.json`, the run's fixed op list.  Each op is a
`randomgroups` argv plus the workload units it completes and the checks its
output must pass.  Running this in its own process keeps artefact memory out
of the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Host seeds of the m=2, l=24, d=2/5 demo round tree (branching 2, H=4,
# extension offset 1 and length 1, 6-edge segments, 3 levels).  Each was
# built to 3 levels without obstruction at the benchmark's first commit; a
# workload seed picks one, so no op of a run is an expected failure.
DEMO_HOST_SEEDS = tuple(range(16))
DEMO_HOST = ["sample", "--m", "2", "--l", "24", "--d", "2/5"]
DEMO_TREE = ["roundtree-build", "--branching-v", "2", "--bigh", "4", "--ext-offset", "1",
             "--ext-len", "1", "--seg-len", "6", "--levels", "3"]

# workload sizes
DENSE_TRIALS = 1          # cprime_scan: presentations at d=3/10 (2 724 relators)
SPARSE_TRIALS = 250       # cprime_scan: presentations per cell at d=1/20 and 1/10
MC_TRIALS = 200           # mc_fill: trials per catalogue diagram
BALL_RADIUS = 7
PROBE_SAMPLES = 200
DEHN_WORDS = 8            # per kind: trivial long, random long, short


def derive(workload: str, seed: int, label: str) -> int:
    """A 31-bit integer fixed by (workload, seed, label)."""
    h = hashlib.sha256(f"{workload}:{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "big") % 2**31


def op(op_id, argv, units=1, out=None, **checks):
    """One CLI invocation; `out` names the file it writes, `checks` what
    its output must satisfy (see `check_output` in run.py)."""
    return {"id": op_id, "argv": [str(a) for a in argv], "units": units,
            "out": None if out is None else str(out), "checks": checks}


def _free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _inverse(word: str) -> str:
    return word[::-1].swapcase()


def _random_reduced(letters: str, n: int, rng: random.Random) -> str:
    w = [rng.choice(letters)]
    while len(w) < n:
        ch = rng.choice(letters)
        if ch != w[-1].swapcase():
            w.append(ch)
    return "".join(w)


def gen_cprime_scan(seed, d):
    from randomgroups.model import sample_presentation, save_presentation

    dense = d / "dense.txt"
    save_presentation(sample_presentation(2, 24, Fraction(3, 10),
                                          derive("cprime_scan", seed, "dense-file")), dense)
    scan = ["cprime-scan", "--m", 2, "--l", 24, "--lam", "1/3"]
    return [
        op("scan-dense", scan + ["--d-grid", "3/10", "--trials", DENSE_TRIALS,
                                 "--seed", derive("cprime_scan", seed, "dense")],
           units=DENSE_TRIALS, cell_trials=DENSE_TRIALS),
        op("scan-sparse", scan + ["--d-grid", "1/20,1/10", "--trials", SPARSE_TRIALS,
                                  "--seed", derive("cprime_scan", seed, "sparse")],
           units=2 * SPARSE_TRIALS, cell_trials=SPARSE_TRIALS),
        op("pieces-dense", ["pieces", "--in", dense], pieces_agree_with=str(dense)),
    ]


def _ruleout_catalogue(l):
    """One- and two-face diagrams meeting the half-boundary hypothesis
    2|r^-1(1)| >= |dX| of the rule-out bound (acceptance criterion 6)."""
    from randomgroups.diagrams import (boundary_walks, glue_face, restrict_boundary,
                                       single_face_diagram)

    letters = "abAB"
    out = [restrict_boundary(single_face_diagram(l),
                             {i: letters[(i + s) % 4] for i in range(l // 2)})
           for s in range(3)]
    two = glue_face(single_face_diagram(l), 0, 2, bears=2)
    need = -(-len(boundary_walks(two)[0]) // 2)
    out += [restrict_boundary(two, {i: letters[(i + s) % 4] for i in range(need)})
            for s in range(3)]
    return out


def gen_mc_fill(seed, d):
    from randomgroups.diagrams import diagram_to_json

    ops = []
    for l in (6, 8):
        # criterion 6's hand formula for the rule-out bound at m=2, d=1/4
        bound = min(1.0, 4.0 * 3.0 ** float((Fraction(1, 4) - Fraction(1, 2)) * l))
        for k, diagram in enumerate(_ruleout_catalogue(l)):
            path = d / f"diagram-l{l}-{k}.json"
            path.write_text(diagram_to_json(diagram))
            ops.append(op(f"mc-l{l}-{k}",
                          ["fillprob-mc", "--diagram", path, "--m", 2, "--l", l,
                           "--d", "1/4", "--trials", MC_TRIALS,
                           "--seed", derive("mc_fill", seed, f"l{l}-{k}")],
                          units=MC_TRIALS, estimate_at_most=bound))
    return ops


def demo_tree_ops(seed, d):
    host, tree = d / "host.txt", d / "tree.json"
    return [
        op("sample-host", DEMO_HOST + ["--seed", DEMO_HOST_SEEDS[seed % len(DEMO_HOST_SEEDS)],
                                       "--out", host], units=0, out=host),
        op("build-tree", DEMO_TREE + ["--in", host, "--out", tree],
           units="vertices", out=tree, axioms_pass=True),
    ]


def gen_queries(seed, d):
    from randomgroups.cayley import is_dehn_ready
    from randomgroups.cli import main
    from randomgroups.model import (extend_presentation, sample_presentation,
                                    save_presentation)
    from randomgroups.roundtree import (RoundTreeParams, init_round_tree,
                                        tree_to_json)

    # the demo tree, built by the same commands as `tree_build` runs
    for o in demo_tree_ops(seed, d):
        with contextlib.redirect_stdout(io.StringIO()):
            if main(o["argv"]) != 0:
                raise RuntimeError(f"setup command failed: {o['argv']}")
    demo = o["out"]

    # the first C'(1/6)-verified host at (m=3, l=12, d=0) from a derived start
    start = derive("queries", seed, "verified") % 1_000_000
    verified = next(p for p in (sample_presentation(3, 12, 0, s)
                                for s in range(start, start + 20_000))
                    if is_dehn_ready(p))
    vfile = d / "verified.txt"
    save_presentation(verified, vfile)
    level0 = d / "level0-tree.json"
    level0.write_text(tree_to_json(init_round_tree(
        verified, RoundTreeParams(V=2, H=4, ext_offset=1, ext_len=1, seg_len=3))))
    # a nested extension that fails the C'(1/6) gate sends the probe down
    # the naive-closure path
    e0 = derive("queries", seed, "extension")
    ext = next(p for p in (extend_presentation(verified, Fraction(1, 20), s)
                           for s in range(e0, e0 + 1000))
               if not is_dehn_ready(p))
    efile = d / "extension.txt"
    save_presentation(ext, efile)

    probe = ["roundtree-probe", "--tree", level0, "--which", "distortion",
             "--samples", PROBE_SAMPLES, "--seed", derive("queries", seed, "probe")]
    ops = [
        op("emanate", ["roundtree-emanate", "--tree", demo, "--k", 4]),
        op("ball", ["ball", "--in", vfile, "--radius", BALL_RADIUS],
           free_ball_below=verified.l // 2),
        op("probe-dehn", probe + ["--target", vfile, "--radius", 6], max_ratio=1.0),
        op("probe-closure", probe + ["--target", efile, "--radius", 4,
                                     "--word-cap", 6], max_ratio=1.0),
    ]
    rng = random.Random(derive("queries", seed, "words"))
    letters = verified.alphabet.letters
    rels = list(verified.relators)
    for i in range(DEHN_WORDS):
        target = 500 + (3500 * i) // max(1, DEHN_WORDS - 1)
        w = ""
        while len(w) < target:
            g = _random_reduced(letters, rng.randint(1, 40), rng)
            r = rng.choice(rels)
            w = _free_reduce(w + g + (r if rng.random() < 0.5 else _inverse(r)) + _inverse(g))
        ops.append(op(f"dehn-trivial-{i}", ["dehn", "--in", vfile, "--word", w],
                      reduced="1"))
        ops.append(op(f"dehn-random-{i}", ["dehn", "--in", vfile, "--word",
                                           _random_reduced(letters, target, rng)]))
        ops.append(op(f"dehn-short-{i}", ["dehn", "--in", vfile, "--word",
                                          _random_reduced(letters, 1 + i % 5, rng)],
                      trivial=False))
    return ops


GENERATORS = {
    "cprime_scan": gen_cprime_scan,
    "mc_fill": gen_mc_fill,
    "tree_build": demo_tree_ops,
    "queries": gen_queries,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    a = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    d = Path(a.dir).resolve()
    d.mkdir(parents=True, exist_ok=True)
    ops = GENERATORS[a.workload](a.seed, d)
    (d / "ops.json").write_text(json.dumps(ops, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
