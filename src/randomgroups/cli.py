"""Command-line workbench.

Every subcommand is a thin adapter over exactly one library operation; all
heavy lifting lives in the modules.  Each is declared once, in COMMANDS: its
handler, the operation it adapts and its options.  The argument parser is
built from that table once, at import (PARSER).  Outputs are
machine-readable: a JSON payload embedding the full resolved configuration
and a tool version, with the timestamp confined to a single header field so
reruns are byte-comparable.  Exit codes: 0 success, 2 precondition/domain
errors and obstructed constructions, 3 budget exhaustion.  A round-tree build
that stops is obstructed whatever stopped it, so it exits 2 also when its
window-search budget (`--search-budget`) runs out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .errors import BudgetExceededError, DomainError, PreconditionError, RandomGroupsError
from . import bounds as bounds_mod
from . import cayley as cayley_mod
from . import diagrams as diagrams_mod
from . import model as model_mod
from . import roundtree as roundtree_mod
from . import words as words_mod

BOUNDS_DISPATCH = {
    "rule-out": "randomgroups.bounds.rule_out_bound",
    "emanating": "randomgroups.bounds.emanating_bound",
    "confdim": "randomgroups.bounds.confdim_bounds",
    "roundtree-lower": "randomgroups.bounds.roundtree_lower",
    "inductive": "randomgroups.bounds.inductive_fill_bounds",
    "hyperbolicity": "randomgroups.cayley.hyperbolicity_delta_bound",
}


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


def _emit(args, config: dict, result, csv_text: str | None = None):
    """Write the command's CSV text, or its JSON payload: the command name,
    its resolved config, its result, the tool version and a timestamp.

    A CayleyBall result writes its own text (`CayleyBall.json_text`), which
    is spliced in at the `result` key of the payload's layout: the parts
    are written in turn, never joined into one string."""
    if args.format == "csv":
        if csv_text is None:
            raise PreconditionError("this command has no CSV format")
        parts = [csv_text]
    else:
        ball = isinstance(result, cayley_mod.CayleyBall)
        payload = {"command": args.command, "config": config,
                   "result": None if ball else result, "version": __version__,
                   "timestamp": datetime.now(timezone.utc).isoformat()}
        parts = [json.dumps(payload, indent=2, sort_keys=True) + "\n"]
        if ball:
            # a JSON string holds no raw newline and the config's keys sit
            # one level deeper, so this is the top-level result key
            head, _, tail = parts[0].partition('\n  "result": null')
            parts = [head + '\n  "result": ', result.json_text("  "), tail]
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        for part in parts:
            out.write(part)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_rivin(args, cfg):
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    n = words_mod.rivin_count(m, l)
    _emit(args, {"m": m, "l": l}, {"count": str(n)})


def cmd_sample(args, cfg):
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    d = _resolve(args, cfg, "d", Fraction, required=True)
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
    d_t = _resolve(args, cfg, "d-target", Fraction, required=True)
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
    _emit(args, {"in": str(args.infile)}, result)


def cmd_cprime_scan(args, cfg):
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    lam = _resolve(args, cfg, "lam", Fraction, required=True)
    grid = _resolve(args, cfg, "d-grid", _frac_list, required=True)
    trials = _resolve(args, cfg, "trials", int, required=True)
    seed = _resolve(args, cfg, "seed", int, default=0)
    rep = cayley_mod.cprime_genericity_scan(m, l, lam, grid, trials, seed)
    config = {"m": m, "l": l, "lambda": str(lam), "d_grid": [str(g) for g in grid],
              "trials": trials, "seed": seed}
    _emit(args, config, rep.to_dict(), csv_text=rep.to_csv())


def cmd_dehn(args, cfg):
    p = _load_presentation(args)
    word = _resolve(args, cfg, "word", str, required=True)
    reduced = cayley_mod.dehn_reduce(word, p)
    _emit(args, {"in": str(args.infile), "word": word},
          {"reduced": reduced, "trivial": reduced == "1"})


def cmd_ball(args, cfg):
    p = _load_presentation(args)
    radius = _resolve(args, cfg, "radius", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=cayley_mod.DEFAULT_VERTEX_BUDGET)
    ball = cayley_mod.cayley_ball(p, radius, vertex_budget=budget)
    _emit(args, {"in": str(args.infile), "radius": radius}, ball,
          csv_text=ball.adjacency_csv() if args.format == "csv" else None)


def cmd_diagrams_enumerate(args, cfg):
    C = _resolve(args, cfg, "faces", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=diagrams_mod.DEFAULT_ENUMERATION_BUDGET)
    out, rep = diagrams_mod.enumerate_diagrams(C, l, budget=budget)
    result = {
        "count": rep.count,
        "log_l_count": rep.log_l_count,
        "shape_bound_exponent": rep.shape_bound_exponent,
        "diagrams": [diagrams_mod.diagram_record(d) for d in out],
    }
    csv_text = "faces,l,count,log_l_count,shape_bound_exponent\n" + \
        f"{C},{l},{rep.count},{rep.log_l_count},{rep.shape_bound_exponent}\n"
    _emit(args, {"faces": C, "l": l}, result, csv_text=csv_text)


def _load_diagram(args):
    if args.diagram is None:
        raise PreconditionError("missing required parameter --diagram")
    return diagrams_mod.diagram_from_json(Path(args.diagram).read_text())


def cmd_fill(args, cfg):
    d = _load_diagram(args)
    mode = _resolve(args, cfg, "mode", str, default="all")
    distinct = not args.raw
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
    _emit(args, {"diagram": str(args.diagram), "mode": mode, "distinct": distinct}, result)


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
    _emit(args, {"diagram": str(args.diagram)}, result,
          csv_text=diagrams_mod.constraint_report_csv(rep))


def cmd_fillprob_exact(args, cfg):
    d = _load_diagram(args)
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    budget = _resolve(args, cfg, "budget", int, default=bounds_mod.DEFAULT_TUPLE_BUDGET)
    fp = bounds_mod.exact_fillability(d, m, l, budget=budget)
    _emit(args, {"diagram": str(args.diagram), "m": m, "l": l}, fp.to_dict())


def cmd_fillprob_mc(args, cfg):
    d = _load_diagram(args)
    m = _resolve(args, cfg, "m", int, required=True)
    l = _resolve(args, cfg, "l", int, required=True)
    dens = _resolve(args, cfg, "d", Fraction, required=True)
    trials = _resolve(args, cfg, "trials", int, required=True)
    seed = _resolve(args, cfg, "seed", int, default=0)
    jobs = _resolve(args, cfg, "jobs", int, default=1)
    fp = bounds_mod.mc_fillability(d, m, l, dens, trials, seed, jobs=jobs)
    _emit(args, {"diagram": str(args.diagram), "m": m, "l": l, "d": str(dens),
                 "trials": trials, "seed": seed}, fp.to_dict())


def cmd_bounds(args, cfg):
    which = _resolve(args, cfg, "which", str, required=True)
    if which not in BOUNDS_DISPATCH:
        raise PreconditionError(f"unknown bound {which!r}")
    m = _resolve(args, cfg, "m", int, default=2)
    l = _resolve(args, cfg, "l", int, default=8)
    dens = _resolve(args, cfg, "d", Fraction, required=which != "roundtree-lower")
    if which == "rule-out":
        rep = bounds_mod.rule_out_bound(m, l, dens)
        result = rep.to_dict()
    elif which == "emanating":
        rep = bounds_mod.emanating_bound(
            _resolve(args, cfg, "k", int, required=True), m, l, dens,
            _resolve(args, cfg, "beta", Fraction, required=True),
            _resolve(args, cfg, "bigh", Fraction, required=True),
            _resolve(args, cfg, "epsilon", Fraction, default=Fraction(0)),
        )
        result = rep.to_dict()
    elif which == "confdim":
        C = _resolve(args, cfg, "const", Fraction, default=Fraction(10) ** 17)
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
    _emit(args, {"which": which, "m": m, "l": l, "d": None if dens is None else str(dens)},
          result)


def cmd_transfer_params(args, cfg):
    d_t = _resolve(args, cfg, "dt", Fraction, required=True)
    tp = bounds_mod.transfer_params(d_t)
    _emit(args, {"d_t": str(d_t)}, tp.to_dict())


def cmd_roundtree_build(args, cfg):
    levels = _resolve(args, cfg, "levels", int, required=True)
    if levels < 0:
        raise DomainError(f"need --levels >= 0, got {levels}")
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
    _emit(args, {"tree": str(args.tree), "k": k},
          {"k": es.k, "count": len(es.words), "path_count": es.path_count,
           "words": sorted(es.words)})


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
    _emit(args, {"which": which, "tree": str(args.tree), "target": str(args.target)}, result)


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace, dict[str, str]], None]
    op: str         # the library operation the handler adapts
    options: tuple  # after --config, --out and --format: a flag, or (flag, add_argument keywords)


IN = ("--in", {"dest": "infile"})
REQUIRED = {"required": True}

# every subcommand, in the parser's order
COMMANDS = {
    "rivin": Command(cmd_rivin, "randomgroups.words.rivin_count", ("--m", "--l")),
    "sample": Command(cmd_sample, "randomgroups.model.sample_presentation",
                      ("--m", "--l", "--d", "--seed", "--budget")),
    "extend": Command(cmd_extend, "randomgroups.model.extend_presentation",
                      (IN, "--d-target", "--seed")),
    "pieces": Command(cmd_pieces, "randomgroups.words.max_piece_length", (IN,)),
    "cprime-scan": Command(cmd_cprime_scan, "randomgroups.cayley.cprime_genericity_scan",
                           ("--m", "--l", "--lam", "--d-grid", "--trials", "--seed")),
    "dehn": Command(cmd_dehn, "randomgroups.cayley.dehn_reduce", (IN, "--word")),
    "ball": Command(cmd_ball, "randomgroups.cayley.cayley_ball", (IN, "--radius", "--budget")),
    "diagrams-enumerate": Command(cmd_diagrams_enumerate,
                                  "randomgroups.diagrams.enumerate_diagrams",
                                  ("--faces", "--l", "--budget")),
    "fill": Command(cmd_fill, "randomgroups.diagrams.fill",
                    (IN, ("--diagram", REQUIRED), "--mode", "--words",
                     ("--raw", {"action": "store_true"}))),
    "constraint": Command(cmd_constraint, "randomgroups.diagrams.belonging",
                          (("--diagram", REQUIRED),)),
    "fillprob-exact": Command(cmd_fillprob_exact, "randomgroups.bounds.exact_fillability",
                              (("--diagram", REQUIRED), "--m", "--l", "--budget")),
    "fillprob-mc": Command(cmd_fillprob_mc, "randomgroups.bounds.mc_fillability",
                           (("--diagram", REQUIRED), "--m", "--l", "--d", "--trials", "--seed",
                            "--jobs")),
    # --which picks the bound, from BOUNDS_DISPATCH
    "bounds": Command(cmd_bounds, "randomgroups.bounds.rule_out_bound",
                      ("--which", "--m", "--l", "--d", "--k", "--beta", "--bigh", "--epsilon",
                       "--const", "--branching-v", "--diagram")),
    "transfer-params": Command(cmd_transfer_params, "randomgroups.bounds.transfer_params",
                               ("--dt",)),
    "roundtree-build": Command(cmd_roundtree_build, "randomgroups.roundtree.init_round_tree",
                               (IN, "--branching-v", "--bigh", "--ext-offset", "--ext-len",
                                "--seg-len", "--levels", "--search-budget")),
    "roundtree-emanate": Command(cmd_roundtree_emanate,
                                 "randomgroups.roundtree.enumerate_emanating",
                                 (("--tree", REQUIRED), "--k")),
    "roundtree-probe": Command(cmd_roundtree_probe, "randomgroups.roundtree.distortion_probe",
                               (("--tree", REQUIRED), ("--target", REQUIRED), "--which",
                                "--path", "--window", "--radius", "--samples", "--seed",
                                "--word-cap")),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="randomgroups",
        description="workbench for random group presentations in the density model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("json", "csv"))
        for option in command.options:
            flag, keywords = (option, {}) if isinstance(option, str) else option
            sp.add_argument(flag, **keywords)
    return parser


# the parser depends on nothing but COMMANDS, so one serves every call
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = _read_config(args.config)
        COMMANDS[args.command].handler(args, cfg)
        return 0
    except BudgetExceededError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except (RandomGroupsError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
