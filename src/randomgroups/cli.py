"""Command-line workbench.

Every subcommand is a thin adapter over exactly one library operation (see
OP_TABLE); all heavy lifting lives in the modules.  Outputs are
machine-readable: a JSON payload embedding the full resolved configuration
and a tool version, with the timestamp confined to a single header field so
reruns are byte-comparable.  Exit codes: 0 success, 2 precondition/domain
errors, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import BudgetExceededError, PreconditionError, RandomGroupsError
from . import bounds as bounds_mod
from . import cayley as cayley_mod
from . import diagrams as diagrams_mod
from . import model as model_mod
from . import roundtree as roundtree_mod
from . import words as words_mod

OP_TABLE = {
    "rivin": "randomgroups.words.rivin_count",
    "sample": "randomgroups.model.sample_presentation",
    "extend": "randomgroups.model.extend_presentation",
    "pieces": "randomgroups.words.max_piece_length",
    "cprime-scan": "randomgroups.cayley.cprime_genericity_scan",
    "dehn": "randomgroups.cayley.dehn_reduce",
    "ball": "randomgroups.cayley.cayley_ball",
    "diagrams-enumerate": "randomgroups.diagrams.enumerate_diagrams",
    "fill": "randomgroups.diagrams.fill",
    "constraint": "randomgroups.diagrams.belonging",
    "fillprob-exact": "randomgroups.bounds.exact_fillability",
    "fillprob-mc": "randomgroups.bounds.mc_fillability",
    "bounds": "randomgroups.bounds.rule_out_bound",  # dispatched by --which
    "transfer-params": "randomgroups.bounds.transfer_params",
    "roundtree-build": "randomgroups.roundtree.init_round_tree",
    "roundtree-emanate": "randomgroups.roundtree.enumerate_emanating",
    "roundtree-probe": "randomgroups.roundtree.distortion_probe",
}

BOUNDS_DISPATCH = {
    "rule-out": "randomgroups.bounds.rule_out_bound",
    "emanating": "randomgroups.bounds.emanating_bound",
    "confdim": "randomgroups.bounds.confdim_bounds",
    "roundtree-lower": "randomgroups.bounds.roundtree_lower",
    "inductive": "randomgroups.bounds.inductive_fill_bounds",
    "hyperbolicity": "randomgroups.cayley.hyperbolicity_delta_bound",
}


def _frac(text: str) -> Fraction:
    return Fraction(text)


def _frac_list(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    cfg = {}
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(f"config line {i} is not key=value: {line!r}")
        k, v = line.split("=", 1)
        cfg[k.strip().replace("_", "-")] = v.strip()
    return cfg


def _resolve(args, config, key, cast, default=None, required=False):
    cli_val = getattr(args, key.replace("-", "_"), None)
    if cli_val is not None and not isinstance(cli_val, str):
        return cli_val
    text = cli_val if cli_val is not None else config.get(key)
    if text is None:
        if required and default is None:
            raise PreconditionError(f"missing required parameter --{key}")
        return default
    try:
        return cast(text)
    except (ValueError, ZeroDivisionError) as e:
        raise PreconditionError(f"--{key}: cannot read {text!r}: {e}") from e


def _emit(args, payload: dict, csv_text: str | None = None):
    fmt = getattr(args, "format", None) or "json"
    if fmt == "csv":
        if csv_text is None:
            raise PreconditionError("this command has no CSV format")
        text = csv_text
    else:
        payload.setdefault("version", __version__)
        payload.setdefault("timestamp", datetime.now(timezone.utc).isoformat())
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _payload(command: str, config: dict, result) -> dict:
    return {"command": command, "config": config, "result": result}


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_rivin(args, cfg):
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    n = words_mod.rivin_count(m, l)
    _emit(args, _payload("rivin", {"m": m, "l": l}, {"count": str(n)}))


def cmd_sample(args, cfg):
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    d = _resolve(args, cfg, "d", _frac, required=True)
    seed = _resolve(args, cfg, "seed", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=model_mod.DEFAULT_COUNT_BUDGET)
    p = model_mod.sample_presentation(m, l, d, seed, budget=budget)
    if args.out:
        model_mod.save_presentation(p, args.out)
        sys.stdout.write(p.fingerprint() + "\n")
    else:
        sys.stdout.write(p.serialize())


def _load_presentation(args):
    if args.infile is None:
        raise PreconditionError("missing required parameter --in")
    return model_mod.load_presentation(args.infile)


def cmd_extend(args, cfg):
    base = _load_presentation(args)
    d_t = _resolve(args, cfg, "d-target", _frac, required=True)
    seed = _resolve(args, cfg, "seed", int, required=True)
    p = model_mod.extend_presentation(base, d_t, seed)
    if args.out:
        model_mod.save_presentation(p, args.out)
        sys.stdout.write(p.fingerprint() + "\n")
    else:
        sys.stdout.write(p.serialize())


def cmd_pieces(args, cfg):
    p = _load_presentation(args)
    rep = words_mod.max_piece_length(list(p.relators))
    result = {
        "max_piece_length": rep.max_piece_length,
        "relator_length": rep.relator_length,
        "witness": None
        if rep.witness is None
        else {
            "first": list(rep.witness.first),
            "second": list(rep.witness.second),
            "subword": rep.witness.subword,
        },
        "lambda_threshold_passed": {
            str(lam): ok for lam, ok in rep.lambda_threshold_passed.items()
        },
        "relator_coincidences": rep.relator_coincidences,
    }
    _emit(args, _payload("pieces", {"in": str(args.infile)}, result))


def cmd_cprime_scan(args, cfg):
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    lam = _resolve(args, cfg, "lam", _frac, required=True)
    grid = _resolve(args, cfg, "d-grid", _frac_list, required=True)
    trials = _resolve(args, cfg, "trials", int, required=True)
    seed = _resolve(args, cfg, "seed", int, default=0)
    rep = cayley_mod.cprime_genericity_scan(m, l, lam, grid, trials, seed)
    config = {"m": m, "l": l, "lambda": str(lam), "d_grid": [str(g) for g in grid],
              "trials": trials, "seed": seed}
    _emit(args, _payload("cprime-scan", config, rep.to_dict()), csv_text=rep.to_csv())


def cmd_dehn(args, cfg):
    p = _load_presentation(args)
    word = _resolve(args, cfg, "word", str, required=True)
    reduced = cayley_mod.dehn_reduce(word, p)
    _emit(args, _payload("dehn", {"in": str(args.infile), "word": word},
                         {"reduced": reduced, "trivial": reduced == "1"}))


def cmd_ball(args, cfg):
    p = _load_presentation(args)
    radius = _resolve(args, cfg, "radius", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=cayley_mod.DEFAULT_VERTEX_BUDGET)
    ball = cayley_mod.cayley_ball(p, radius, vertex_budget=budget)
    payload = _payload("ball", {"in": str(args.infile), "radius": radius}, ball.to_dict())
    _emit(args, payload, csv_text=ball.adjacency_csv() if args.format == "csv" else None)


def cmd_diagrams_enumerate(args, cfg):
    C = _resolve(args, cfg, "faces", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=diagrams_mod.DEFAULT_ENUMERATION_BUDGET)
    out, rep = diagrams_mod.enumerate_diagrams(C, l, budget=budget)
    result = {
        "count": rep.count,
        "log_l_count": rep.log_l_count,
        "shape_bound_exponent": rep.shape_bound_exponent,
        "diagrams": [json.loads(diagrams_mod.diagram_to_json(d)) for d in out],
    }
    csv_text = "faces,l,count,log_l_count,shape_bound_exponent\n" + \
        f"{C},{l},{rep.count},{rep.log_l_count},{rep.shape_bound_exponent}\n"
    _emit(args, _payload("diagrams-enumerate", {"faces": C, "l": l}, result), csv_text=csv_text)


def _load_diagram(args):
    if args.diagram is None:
        raise PreconditionError("missing required parameter --diagram")
    return diagrams_mod.diagram_from_json(Path(args.diagram).read_text())


def cmd_fill(args, cfg):
    d = _load_diagram(args)
    mode = _resolve(args, cfg, "mode", str, default="all")
    distinct = not bool(getattr(args, "raw", False))
    if args.infile:
        p = _load_presentation(args)
        relators = list(p.relators)
    else:
        relators = _resolve(args, cfg, "words", str, required=True).split(",")
    got = diagrams_mod.fill(d, relators, mode=mode, distinct=distinct)
    if mode == "count":
        result = {"count": got}
    elif mode == "first":
        result = {"filling": None if got is None else list(got)}
    else:
        result = {"fillings": [list(t) for t in got]}
    _emit(args, _payload("fill", {"diagram": str(args.diagram), "mode": mode,
                                  "distinct": distinct}, result))


def cmd_constraint(args, cfg):
    d = _load_diagram(args)
    rep = diagrams_mod.belonging(d)
    result = {
        "d_c": rep.d_c,
        "internal_count": rep.internal_count,
        "restricted_count": rep.restricted_count,
        "boundary_count": rep.boundary_count,
        "never_fillable": rep.never_fillable,
        "order": list(rep.order),
        "multiplicity": {str(k): v for k, v in rep.multiplicity.items()},
        "E_per_relator": {str(k): v for k, v in rep.E_per_relator.items()},
        "E_per_face": {str(k): v for k, v in rep.E_per_face.items()},
    }
    _emit(args, _payload("constraint", {"diagram": str(args.diagram)}, result),
          csv_text=diagrams_mod.constraint_report_csv(rep))


def cmd_fillprob_exact(args, cfg):
    d = _load_diagram(args)
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=bounds_mod.DEFAULT_TUPLE_BUDGET)
    fp = bounds_mod.exact_fillability(d, m, l, budget=budget)
    _emit(args, _payload("fillprob-exact", {"diagram": str(args.diagram), "m": m, "l": l},
                         fp.to_dict()))


def cmd_fillprob_mc(args, cfg):
    d = _load_diagram(args)
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    dens = _resolve(args, cfg, "d", _frac, required=True)
    trials = _resolve(args, cfg, "trials", int, required=True)
    seed = _resolve(args, cfg, "seed", int, default=0)
    jobs = _resolve(args, cfg, "jobs", int, default=1)
    fp = bounds_mod.mc_fillability(d, m, l, dens, trials, seed, jobs=jobs)
    _emit(args, _payload(
        "fillprob-mc",
        {"diagram": str(args.diagram), "m": m, "l": l, "d": str(dens),
         "trials": trials, "seed": seed},
        fp.to_dict(),
    ))


def cmd_bounds(args, cfg):
    which = _resolve(args, cfg, "which", str, required=True)
    if which not in BOUNDS_DISPATCH:
        raise PreconditionError(f"unknown bound {which!r}")
    m = _resolve(args, cfg, "m", int, default=2)
    l = _resolve(args, cfg, "l", int, default=8)
    dens = _resolve(args, cfg, "d", _frac, required=which != "roundtree-lower")
    if which == "rule-out":
        rep = bounds_mod.rule_out_bound(m, l, dens)
        result = rep.to_dict()
    elif which == "emanating":
        rep = bounds_mod.emanating_bound(
            _resolve(args, cfg, "k", int, required=True), m, l, dens,
            _resolve(args, cfg, "beta", _frac, required=True),
            _resolve(args, cfg, "bigh", _frac, required=True),
            _resolve(args, cfg, "epsilon", _frac, default=Fraction(0)),
        )
        result = rep.to_dict()
    elif which == "confdim":
        C = _resolve(args, cfg, "const", _frac, default=Fraction(10) ** 17)
        lo, hi = bounds_mod.confdim_bounds(m, l, dens, C=C)
        result = {"lower": lo.to_dict(), "upper": hi.to_dict()}
    elif which == "roundtree-lower":
        result = {
            "value": bounds_mod.roundtree_lower(
                _resolve(args, cfg, "branching-v", int, required=True),
                _resolve(args, cfg, "bigh", int, required=True),
            )
        }
    elif which == "hyperbolicity":
        result = {"delta_bound": str(cayley_mod.hyperbolicity_delta_bound(l, dens))}
    else:  # inductive
        d = _load_diagram(args)
        rep = diagrams_mod.belonging(d)
        items = bounds_mod.inductive_fill_bounds(rep, m, l, dens)
        result = {
            "bounds": [
                {
                    "position": b.position,
                    "E_i": b.E_i,
                    "p_bound": str(b.p_bound),
                    "p_bound_log": b.p_bound_log,
                    "P_bound_log": b.P_bound_log,
                }
                for b in items
            ]
        }
    _emit(args, _payload("bounds", {"which": which, "m": m, "l": l,
                                    "d": None if dens is None else str(dens)}, result))


def cmd_transfer_params(args, cfg):
    d_t = _resolve(args, cfg, "dt", _frac, required=True)
    tp = bounds_mod.transfer_params(d_t)
    _emit(args, _payload("transfer-params", {"d_t": str(d_t)}, tp.to_dict()))


def cmd_roundtree_build(args, cfg):
    host = _load_presentation(args)
    params = roundtree_mod.RoundTreeParams(
        V=_resolve(args, cfg, "branching-v", int, required=True),
        H=_resolve(args, cfg, "bigh", int, required=True),
        ext_offset=_resolve(args, cfg, "ext-offset", int, required=True),
        ext_len=_resolve(args, cfg, "ext-len", int, required=True),
        seg_len=_resolve(args, cfg, "seg-len", int, default=None),
        search_budget=_resolve(args, cfg, "search-budget", int,
                               default=roundtree_mod.DEFAULT_SEARCH_BUDGET),
    )
    levels = _resolve(args, cfg, "levels", int, required=True)
    tree = roundtree_mod.init_round_tree(host, params)
    for _ in range(levels):
        tree.grow_level()
    text = roundtree_mod.tree_to_json(tree)
    if args.out:
        Path(args.out).write_text(text)
        rep = roundtree_mod.check_round_tree_axioms(tree)
        sys.stdout.write(json.dumps({"levels": tree.levels, "cells": len(tree.cells),
                                     "axioms_pass": rep.all_pass}) + "\n")
    else:
        sys.stdout.write(text)


def cmd_roundtree_emanate(args, cfg):
    tree = roundtree_mod.tree_from_json(Path(args.tree).read_text())
    k = _resolve(args, cfg, "k", int, required=True)
    es = roundtree_mod.enumerate_emanating(tree, k)
    _emit(args, _payload("roundtree-emanate", {"tree": str(args.tree), "k": k},
                         {"k": es.k, "count": len(es.words),
                          "path_count": es.path_count,
                          "words": sorted(es.words)}))


def cmd_roundtree_probe(args, cfg):
    tree = roundtree_mod.tree_from_json(Path(args.tree).read_text())
    target = model_mod.load_presentation(args.target)
    which = _resolve(args, cfg, "which", str, required=True)
    if which == "local-geodesic":
        path = _resolve(args, cfg, "path", _int_list, required=True)
        verdict = roundtree_mod.local_geodesic_probe(
            tree, path,
            window=_resolve(args, cfg, "window", int, required=True),
            target=target,
            word_cap=_resolve(args, cfg, "word-cap", int, default=None),
        )
        result = {"status": verdict.status, "exact": verdict.exact,
                  "window": verdict.window, "detail": verdict.detail}
    elif which == "distortion":
        stats = roundtree_mod.distortion_probe(
            tree, target,
            radius=_resolve(args, cfg, "radius", int, required=True),
            samples=_resolve(args, cfg, "samples", int, required=True),
            seed=_resolve(args, cfg, "seed", int, default=0),
            word_cap=_resolve(args, cfg, "word-cap", int, default=None),
        )
        result = stats.to_dict()
    else:
        raise PreconditionError(f"unknown probe {which!r}")
    _emit(args, _payload("roundtree-probe", {"which": which, "tree": str(args.tree),
                                             "target": str(args.target)}, result))


HANDLERS = {
    "rivin": cmd_rivin,
    "sample": cmd_sample,
    "extend": cmd_extend,
    "pieces": cmd_pieces,
    "cprime-scan": cmd_cprime_scan,
    "dehn": cmd_dehn,
    "ball": cmd_ball,
    "diagrams-enumerate": cmd_diagrams_enumerate,
    "fill": cmd_fill,
    "constraint": cmd_constraint,
    "fillprob-exact": cmd_fillprob_exact,
    "fillprob-mc": cmd_fillprob_mc,
    "bounds": cmd_bounds,
    "transfer-params": cmd_transfer_params,
    "roundtree-build": cmd_roundtree_build,
    "roundtree-emanate": cmd_roundtree_emanate,
    "roundtree-probe": cmd_roundtree_probe,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randomgroups",
        description="workbench for random group presentations in the density model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, infile=False, diagram=False, tree=False, target=False, flags=()):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        if infile:
            sp.add_argument("--in", dest="infile", default=None)
        if diagram:
            sp.add_argument("--diagram", required=True)
        if tree:
            sp.add_argument("--tree", required=True)
        if target:
            sp.add_argument("--target", required=True)
        for f in flags:
            sp.add_argument(f, default=None)
        return sp

    add("rivin", flags=("--m", "--l"))
    add("sample", flags=("--m", "--l", "--d", "--seed", "--budget"))
    add("extend", infile=True, flags=("--d-target", "--seed"))
    add("pieces", infile=True)
    add("cprime-scan", flags=("--m", "--l", "--lam", "--d-grid", "--trials", "--seed"))
    add("dehn", infile=True, flags=("--word",))
    add("ball", infile=True, flags=("--radius", "--budget"))
    add("diagrams-enumerate", flags=("--faces", "--l", "--budget"))
    add("fill", infile=True, diagram=True, flags=("--mode", "--words"))
    sub.choices["fill"].add_argument("--raw", action="store_true")
    add("constraint", diagram=True)
    add("fillprob-exact", diagram=True, flags=("--m", "--l", "--budget"))
    add("fillprob-mc", diagram=True, flags=("--m", "--l", "--d", "--trials", "--seed", "--jobs"))
    add("bounds", flags=("--which", "--m", "--l", "--d", "--k", "--beta",
                         "--bigh", "--epsilon", "--const", "--branching-v"))
    sub.choices["bounds"].add_argument("--diagram", default=None)
    add("transfer-params", flags=("--dt",))
    add("roundtree-build", infile=True,
        flags=("--branching-v", "--bigh", "--ext-offset", "--ext-len",
               "--seg-len", "--levels", "--search-budget"))
    add("roundtree-emanate", tree=True, flags=("--k",))
    add("roundtree-probe", tree=True, target=True,
        flags=("--which", "--path", "--window", "--radius", "--samples",
               "--seed", "--word-cap"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config)
        HANDLERS[args.command](args, cfg)
        return 0
    except BudgetExceededError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except (RandomGroupsError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
