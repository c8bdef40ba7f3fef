"""Spans around calls into the library's public functions, from outside it.

`Tracer.install()` wraps each function in TARGETS and puts the wrapper in
every `randomgroups` namespace that holds the original (names imported with
`from .x import f` included), and `RoundTree.grow_level` on its class.
Spans are kept in memory as lists [name, start, end, parent, op, info] and
turned into per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("words", "model", "cayley", "diagrams", "bounds", "roundtree", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _windows(args, kwargs, _res):
    rel = list(_arg(args, kwargs, 0, "relators"))
    return 2 * len(rel) * len(getattr(rel[0], "word", rel[0])) if rel else 0


def _tree_size(tree):
    return (len(tree.out), len(tree.cells))


# (module, attribute, span name, info(args, kwargs, result, before), before(args, kwargs))
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("model", "sample_presentation", "model.sample",
     lambda a, k, r, b: len(r.relators), None),
    ("model", "load_presentation", "model.load", None, None),
    ("model", "parse_presentation", "model.parse",
     lambda a, k, r, b: len(r.relators), None),
    ("words", "check_c_prime", "words.check_c_prime",
     lambda a, k, r, b: (bool(r), _windows(a, k, r)), None),
    ("words", "max_piece_length", "words.max_piece_length",
     lambda a, k, r, b: _windows(a, k, r), None),
    ("cayley", "cprime_genericity_scan", "cayley.scan", None, None),
    ("cayley", "cayley_ball", "cayley.ball", lambda a, k, r, b: len(r.words), None),
    ("cayley", "naive_closure_ball", "cayley.closure",
     lambda a, k, r, b: len(getattr(r, "_index", ())), None),
    ("cayley", "dehn_reduce", "cayley.dehn",
     lambda a, k, r, b: len(_arg(a, k, 0, "word")), None),
    ("cayley", "distance", "cayley.distance", None, None),
    ("diagrams", "fill", "diagrams.fill",
     lambda a, k, r, b: r is not None and r != [] and r != 0, None),
    ("diagrams", "validate", "diagrams.validate", None, None),
    ("diagrams", "belonging", "diagrams.belonging", None, None),
    ("diagrams", "compile_constraints", "diagrams.compile",
     lambda a, k, r, b: id(_arg(a, k, 0, "diagram")), None),
    ("bounds", "mc_fillability", "bounds.mc",
     lambda a, k, r, b: (r.trials, round(r.estimate * r.trials)), None),
    ("roundtree", "init_round_tree", "roundtree.init",
     lambda a, k, r, b: _tree_size(r), None),
    ("roundtree", "RoundTree.grow_level", "roundtree.grow",
     lambda a, k, r, b: tuple(x - y for x, y in zip(_tree_size(a[0]), b)),
     lambda a, k: _tree_size(a[0])),
    ("roundtree", "tree_to_json", "roundtree.to_json", None, None),
    ("roundtree", "check_round_tree_axioms", "roundtree.axioms", None, None),
    ("roundtree", "tree_from_json", "roundtree.from_json", None, None),
    ("roundtree", "enumerate_emanating", "roundtree.emanate", None, None),
    ("roundtree", "distortion_probe", "roundtree.probe", None, None),
    ("roundtree", "local_geodesic_probe", "roundtree.probe", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None                 # (pass index, op id) of the op now running
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info, before):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b = before(args, kwargs) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info:
                span[5] = info(args, kwargs, result, b)
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"randomgroups.{m}") for m in MODULES]
        namespaces = [m for k, m in sys.modules.items()
                      if k == "randomgroups" or k.startswith("randomgroups.")]
        for modname, attr, name, info, before in TARGETS:
            owner = mods[MODULES.index(modname)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, info, before))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, info, before)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._undo.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


def layer_metrics(spans: list[list], pass_index: int) -> dict[str, float]:
    """Per-layer times (s) and counts over the spans of one pass.

    `x.s` is the time inside x's spans, not counting a span nested in one of
    the same group twice; `x.self_s` subtracts the time covered by children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[4][0] == pass_index:
            by_name.setdefault(s[0], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def covered(*names):
        total = 0.0
        for i in idx(*names):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += spans[i][2] - spans[i][1]
        return total

    def self_s(*names):
        return sum(spans[i][2] - spans[i][1] - child[i] for i in idx(*names))

    def calls(name):
        return len(by_name.get(name, ()))

    def info(name):
        return [spans[i][5] for i in by_name.get(name, ())]

    fills = info("diagrams.fill")
    compiled = {(spans[i][4], spans[i][5]) for i in idx("diagrams.compile")}
    mc = info("bounds.mc")
    checks = info("words.check_c_prime")
    built = info("roundtree.init") + info("roundtree.grow")
    return {
        "cli.self_s": self_s("cli.main"),
        "model.sample.s": covered("model.sample"),
        "model.sample.calls": calls("model.sample"),
        "model.relators_sampled": sum(info("model.sample")),
        "model.load.s": covered("model.load", "model.parse"),
        "model.load.relators": sum(info("model.parse")),
        "words.check_c_prime.s": covered("words.check_c_prime"),
        "words.check_c_prime.calls": len(checks),
        "words.check_c_prime.passes": sum(ok for ok, _ in checks),
        "words.windows_indexed": sum(w for _, w in checks) + sum(info("words.max_piece_length")),
        "words.max_piece_length.s": covered("words.max_piece_length"),
        "words.max_piece_length.calls": calls("words.max_piece_length"),
        "cayley.scan.self_s": self_s("cayley.scan"),
        "cayley.ball.s": covered("cayley.ball"),
        "cayley.ball_vertices": sum(info("cayley.ball")),
        "cayley.closure.s": covered("cayley.closure"),
        "cayley.closure_nodes": sum(info("cayley.closure")),
        "cayley.dehn.s": covered("cayley.dehn"),
        "cayley.dehn.calls": calls("cayley.dehn"),
        "cayley.dehn.letters_in": sum(info("cayley.dehn")),
        "cayley.distance.s": covered("cayley.distance"),
        "cayley.distance.calls": calls("cayley.distance"),
        "diagrams.fill.s": covered("diagrams.fill"),
        "diagrams.fill.calls": len(fills),
        "diagrams.fill.hit_ratio": sum(fills) / len(fills) if fills else 0.0,
        "diagrams.compile.s": covered("diagrams.validate", "diagrams.belonging",
                                      "diagrams.compile"),
        "diagrams.compile.per_diagram":
            calls("diagrams.compile") / len(compiled) if compiled else 0.0,
        "bounds.mc.self_s": self_s("bounds.mc"),
        "bounds.mc.trials": sum(t for t, _ in mc),
        "bounds.mc.hits": sum(h for _, h in mc),
        "roundtree.init.s": covered("roundtree.init"),
        "roundtree.grow.s": covered("roundtree.grow"),
        "roundtree.grow.calls": calls("roundtree.grow"),
        "roundtree.vertices": sum(v for v, _ in built),
        "roundtree.cells": sum(c for _, c in built),
        "roundtree.to_json.s": covered("roundtree.to_json"),
        "roundtree.axioms.s": covered("roundtree.axioms"),
        "roundtree.from_json.s": covered("roundtree.from_json"),
        "roundtree.emanate.s": covered("roundtree.emanate"),
        "roundtree.probe.self_s": self_s("roundtree.probe"),
    }
