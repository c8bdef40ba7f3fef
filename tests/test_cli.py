import argparse
import contextlib
import hashlib
import importlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomgroups import __version__
from randomgroups.cayley import CayleyBall, cayley_ball
from randomgroups import cli
from randomgroups.cli import (
    BOUNDS_DISPATCH,
    COMMANDS,
    build_parser,
    main,
)
from randomgroups.diagrams import diagram_to_json, restrict_boundary, single_face_diagram
from randomgroups.model import load_presentation, sample_presentation, save_presentation
from randomgroups.roundtree import RoundTreeParams, init_round_tree, tree_to_json

from tests.ball_oracle import ball_dict, ball_json
from tests.conftest import assert_same_text, find_verified_presentation


def run(argv):
    return main(argv)


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def test_op_table_covers_every_command_and_resolves():
    subcommands = set(_subparsers(build_parser()))
    assert subcommands == set(COMMANDS)
    for path in [c.op for c in COMMANDS.values()] + list(BOUNDS_DISPATCH.values()):
        mod, name = path.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(mod), name))
    assert all(callable(c.handler) for c in COMMANDS.values())


def _option(flag, dest=None, required=False, default=None, choices=None, action="_StoreAction"):
    return ((flag,), dest or flag[2:].replace("-", "_"), required, default, choices, action)


_IN = _option("--in", dest="infile")
_DIAGRAM = _option("--diagram", required=True)
_TREE = _option("--tree", required=True)
# every subcommand's options after -h, --config, --out and --format, in
# order: a flag stands for a plain optional string, default None
PINNED_OPTIONS = {
    "rivin": ["--m", "--l"],
    "sample": ["--m", "--l", "--d", "--seed", "--budget"],
    "extend": [_IN, "--d-target", "--seed"],
    "pieces": [_IN],
    "cprime-scan": ["--m", "--l", "--lam", "--d-grid", "--trials", "--seed"],
    "dehn": [_IN, "--word"],
    "ball": [_IN, "--radius", "--budget"],
    "diagrams-enumerate": ["--faces", "--l", "--budget"],
    "fill": [_IN, _DIAGRAM, "--mode", "--words",
             _option("--raw", default=False, action="_StoreTrueAction")],
    "constraint": [_DIAGRAM],
    "fillprob-exact": [_DIAGRAM, "--m", "--l", "--budget"],
    "fillprob-mc": [_DIAGRAM, "--m", "--l", "--d", "--trials", "--seed", "--jobs"],
    "bounds": ["--which", "--m", "--l", "--d", "--k", "--beta", "--bigh", "--epsilon",
               "--const", "--branching-v", "--diagram"],
    "transfer-params": ["--dt"],
    "roundtree-build": [_IN, "--branching-v", "--bigh", "--ext-offset", "--ext-len",
                        "--seg-len", "--levels", "--search-budget"],
    "roundtree-emanate": [_TREE, "--k"],
    "roundtree-probe": [_TREE, _option("--target", required=True), "--which", "--path",
                        "--window", "--radius", "--samples", "--seed", "--word-cap"],
}


def test_every_subcommand_keeps_its_options_in_order():
    subparsers = _subparsers(cli.PARSER)
    assert list(subparsers) == list(PINNED_OPTIONS)
    common = [(("-h", "--help"), "help", False, argparse.SUPPRESS, None, "_HelpAction"),
              _option("--config"), _option("--out"),
              _option("--format", choices=("json", "csv"))]
    for name, options in PINNED_OPTIONS.items():
        got = [(tuple(a.option_strings), a.dest, a.required, a.default, a.choices,
                type(a).__name__) for a in subparsers[name]._actions]
        want = common + [_option(o) if isinstance(o, str) else o for o in options]
        assert got == want, name


def test_main_builds_no_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["rivin", "--m", "2", "--l", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == "28"


def test_rivin(capsys):
    assert run(["rivin", "--m", "2", "--l", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["count"] == "28"
    assert out["command"] == "rivin"
    assert "version" in out and "timestamp" in out


def test_sample_deterministic_files(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(["sample", "--m", "2", "--l", "10", "--d", "1/5", "--seed", "7",
                "--out", str(a)]) == 0
    assert run(["sample", "--m", "2", "--l", "10", "--d", "1/5", "--seed", "7",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    p = load_presentation(a)
    assert len(p.relators) == 9


def test_extend_prefix(tmp_path, capsys):
    base = tmp_path / "base.txt"
    ext = tmp_path / "ext.txt"
    run(["sample", "--m", "2", "--l", "10", "--d", "1/10", "--seed", "3",
         "--out", str(base)])
    assert run(["extend", "--in", str(base), "--d-target", "1/5", "--seed", "11",
                "--out", str(ext)]) == 0
    b, e = load_presentation(base), load_presentation(ext)
    assert e.relators[: len(b.relators)] == b.relators
    assert e.parent_fingerprint == b.fingerprint()


def test_pieces_and_dehn_and_exit_codes(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    run(["sample", "--m", "2", "--l", "12", "--d", "0/1", "--seed", "1",
         "--out", str(pfile)])
    capsys.readouterr()
    assert run(["pieces", "--in", str(pfile)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["max_piece_length"] >= 2  # pigeonhole at l=12, m=2
    # dehn refuses unverified presentations with exit code 2
    assert run(["dehn", "--in", str(pfile), "--word", "abAB"]) == 2


def test_dehn_and_ball_verified(tmp_path, capsys, verified_presentation):
    pfile = tmp_path / "v.txt"
    save_presentation(verified_presentation, pfile)
    r = verified_presentation.relators[0]
    assert run(["dehn", "--in", str(pfile), "--word", r]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["trivial"] is True
    ballfile = tmp_path / "ball.json"
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--out", str(ballfile)]) == 0
    ball = json.loads(ballfile.read_text())
    assert ball["result"]["radius"] == 6
    # the payload bytes are those of a round trip through the ball's JSON
    exact = cayley_ball(verified_presentation, 6)
    old = {"command": "ball", "config": {"in": str(pfile), "radius": 6},
           "result": json.loads(ball_json(exact)), "version": __version__,
           "timestamp": ball["timestamp"]}
    assert_same_text(ballfile.read_text(), json.dumps(old, indent=2, sort_keys=True) + "\n")
    csvfile = tmp_path / "ball.csv"
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--format", "csv",
                "--out", str(csvfile)]) == 0
    assert csvfile.read_text() == exact.adjacency_csv()


def test_ball_csv_builds_no_payload(tmp_path, monkeypatch, verified_presentation):
    def refuse(self, indent=""):
        raise AssertionError("the JSON payload was built for CSV output")

    pfile = tmp_path / "v.txt"
    save_presentation(verified_presentation, pfile)
    monkeypatch.setattr(CayleyBall, "json_text", refuse)
    csvfile = tmp_path / "ball.csv"
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--format", "csv",
                "--out", str(csvfile)]) == 0
    # the export bytes pinned in test_cayley.py
    assert hashlib.sha256(csvfile.read_bytes()).hexdigest() == (
        "d3e6c56b578fdf3b76a74140cae5616804ade3c1ae9bff2aacf43fe64a7229c1")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ball_decodes_no_word_strings(fmt, tmp_path, monkeypatch, verified_presentation):
    # the payload is written from the ball's level matrices: no vertex's
    # word is decoded into a string
    def refuse(self):
        raise AssertionError("the ball's words were decoded")

    pfile = tmp_path / "v.txt"
    save_presentation(verified_presentation, pfile)
    monkeypatch.setattr(CayleyBall, "words", property(refuse))
    out = tmp_path / f"ball.{fmt}"
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--format", fmt,
                "--out", str(out)]) == 0
    monkeypatch.undo()
    ball = cayley_ball(verified_presentation, 6)
    text = out.read_text()
    if fmt == "json":
        want = _ball_payload_oracle(ball, pfile, text)
    else:  # each recorded edge in (src, letter) order, formatted in plain Python
        letters = verified_presentation.alphabet.letters
        want = "src,dst,letter\n" + "".join(
            f"{u},{v},{letters[x]}\n" for u, row in enumerate(ball.adjacency.tolist())
            for x, v in enumerate(row) if v >= 0)
    assert_same_text(text, want)


def _ball_payload_oracle(ball, pfile, text):
    """The payload bytes `ball` gave before its result was written from the
    arrays: json.dumps of its dict, with the timestamp read off `text`."""
    payload = {"command": "ball", "config": {"in": str(pfile), "radius": ball.radius},
               "result": ball_dict(ball), "version": __version__,
               "timestamp": json.loads(text)["timestamp"]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# radii 0 (no edges), 1, l//2 and l//2 + 1 on verified hosts with m = 2, 3
# and 4, odd l among them; at m = 4 the radius-7 ball passes the default
# vertex budget, so that host stops at l//2
@pytest.mark.parametrize("m, l, radius", [
    (2, 13, 0), (2, 13, 1), (2, 13, 6), (2, 13, 7),
    (3, 12, 0), (3, 12, 1), (3, 12, 6), (3, 12, 7),
    (4, 12, 0), (4, 12, 1), (4, 12, 6),
])
def test_ball_json_from_arrays_matches_json_dumps(m, l, radius, tmp_path):
    p = find_verified_presentation(m, l, 0)
    pfile = tmp_path / "v.txt"
    save_presentation(p, pfile)
    ball = cayley_ball(p, radius)
    out = tmp_path / "ball.json"
    assert run(["ball", "--in", str(pfile), "--radius", str(radius), "--out", str(out)]) == 0
    text = out.read_text()
    assert_same_text(text, _ball_payload_oracle(ball, pfile, text))


def test_ball_json_splice_lands_on_the_result_key(tmp_path, verified_presentation):
    # a path that holds the spliced key itself, a raw newline, a quote, a
    # backslash and a letter that json escapes
    pfile = tmp_path / 'v\n  "result": null \\ é.txt'
    save_presentation(verified_presentation, pfile)
    out = tmp_path / "ball.json"
    assert run(["ball", "--in", str(pfile), "--radius", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert json.loads(text)["config"]["in"] == str(pfile)
    ball = cayley_ball(verified_presentation, 2)
    assert_same_text(text, _ball_payload_oracle(ball, pfile, text))


def test_ball_budget_exit_code(tmp_path, verified_presentation):
    pfile = tmp_path / "v.txt"
    save_presentation(verified_presentation, pfile)
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--budget", "50"]) == 3


def test_ball_negative_radius_exits_2(tmp_path, capsys, verified_presentation):
    pfile = tmp_path / "v.txt"
    save_presentation(verified_presentation, pfile)
    assert run(["ball", "--in", str(pfile), "--radius", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "radius" in captured.err


def test_bounds_rule_out(capsys):
    assert run(["bounds", "--which", "rule-out", "--m", "2", "--l", "8",
                "--d", "1/4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["value_exact"] == "4/9"
    assert run(["bounds", "--which", "hyperbolicity", "--l", "100", "--d", "1/4"]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["result"]["delta_bound"] == "800"
    assert run(["bounds", "--which", "nonsense"]) == 2


def test_transfer_params(capsys):
    assert run(["transfer-params", "--dt", "1/4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert Fraction(out["result"]["d_s"]) == Fraction(1, 640_000_000)


def test_diagram_pipeline(tmp_path, capsys):
    d = restrict_boundary(single_face_diagram(3), {0: "a"})
    dfile = tmp_path / "d.json"
    dfile.write_text(diagram_to_json(d))
    assert run(["constraint", "--diagram", str(dfile)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["d_c"] == 1
    assert run(["fillprob-exact", "--diagram", str(dfile), "--m", "2", "--l", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["exact"] == "1/4"
    assert run(["fill", "--diagram", str(dfile), "--words", "abA,aBA,bab",
                "--mode", "count", "--raw"]) == 0
    cnt = json.loads(capsys.readouterr().out)
    assert cnt["result"]["count"] == 2
    assert run(["fillprob-mc", "--diagram", str(dfile), "--m", "2", "--l", "3",
                "--d", "0/1", "--trials", "50", "--seed", "4"]) == 0
    mc = json.loads(capsys.readouterr().out)
    assert 0 <= mc["result"]["estimate"] <= 1


def test_enumerate_and_scan(tmp_path, capsys):
    assert run(["diagrams-enumerate", "--faces", "1", "--l", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["count"] == 2
    assert run(["cprime-scan", "--m", "2", "--l", "8", "--lam", "1/3",
                "--d-grid", "0/1,1/4", "--trials", "10", "--seed", "2"]) == 0
    scan = json.loads(capsys.readouterr().out)
    assert len(scan["result"]["cells"]) == 2
    csvfile = tmp_path / "scan.csv"
    assert run(["cprime-scan", "--m", "2", "--l", "8", "--lam", "1/3",
                "--d-grid", "0/1", "--trials", "5", "--seed", "2",
                "--format", "csv", "--out", str(csvfile)]) == 0
    assert csvfile.read_text().startswith("d,trials,passes")


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_empty_scan_cell_is_strict_json(tmp_path, capsys):
    argv = ["cprime-scan", "--m", "2", "--l", "12", "--lam", "1/3", "--d-grid", "1/10",
            "--trials", "0"]
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    cell = out["result"]["cells"][0]
    assert cell["empty"] and cell["trials"] == 0 and cell["passes"] == 0
    assert cell["p_hat"] is cell["ci_low"] is cell["ci_high"] is None
    # the CSV keeps writing nan for an empty cell
    csvfile = tmp_path / "scan.csv"
    assert run(argv + ["--format", "csv", "--out", str(csvfile)]) == 0
    assert csvfile.read_text().splitlines()[1] == "1/10,0,0,nan,nan,nan"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m=2\nl=3\n")
    assert run(["rivin", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == "28"
    # flags override the config
    assert run(["rivin", "--config", str(cfg), "--l", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == "84"


def test_rerun_byte_identical_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["bounds", "--which", "rule-out", "--m", "2", "--l", "8", "--d", "1/4"]
    run(argv + ["--out", str(out1)])
    run(argv + ["--out", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_roundtree_cli_round_trip(tmp_path, capsys, verified_presentation):
    # a level-0 tree exercises build -> emanate -> probe end to end
    pfile = tmp_path / "host.txt"
    save_presentation(verified_presentation, pfile)
    tfile = tmp_path / "tree.json"
    assert run(["roundtree-build", "--in", str(pfile), "--branching-v", "2",
                "--bigh", "4", "--ext-offset", "1", "--ext-len", "1",
                "--seg-len", "3", "--levels", "0", "--out", str(tfile)]) == 0
    capsys.readouterr()
    assert run(["roundtree-emanate", "--tree", str(tfile), "--k", "3"]) == 0
    em = json.loads(capsys.readouterr().out)
    assert em["result"]["count"] >= 1
    assert run(["roundtree-probe", "--tree", str(tfile), "--target", str(pfile),
                "--which", "distortion", "--radius", "3", "--samples", "20",
                "--seed", "1"]) == 0
    pr = json.loads(capsys.readouterr().out)
    assert pr["result"]["max_ratio"] == 1.0
    assert run(["roundtree-probe", "--tree", str(tfile), "--target", str(pfile),
                "--which", "local-geodesic", "--path", "0,1,2,3",
                "--window", "2"]) == 0
    lg = json.loads(capsys.readouterr().out)
    assert lg["result"]["status"] == "pass"


# inputs that used to crash with a traceback and exit 1
BAD_INPUTS = {
    "rivin-m": "rivin --m abc --l 3",
    "sample-d": "sample --m 2 --l 4 --d 0.2.1 --seed 1",
    "scan-grid": "cprime-scan --m 2 --l 8 --lam 1/3 --d-grid 1/4,x --trials 1",
    "rule-out-no-d": "bounds --which rule-out",
    "diagram": "constraint --diagram {bad}",
    "emanate-tree": "roundtree-emanate --tree {bad} --k 2",
    "probe-tree": "roundtree-probe --tree {bad} --target {host} --which distortion "
                  "--radius 2 --samples 5",
    "pieces-no-in": "pieces",
    "extend-no-in": "extend --d-target 1/4 --seed 1",
    "dehn-no-in": "dehn --word ab",
    "ball-no-in": "ball --radius 1",
    "build-no-in": "roundtree-build --branching-v 2 --bigh 4 --ext-offset 1 --ext-len 1 "
                   "--levels 1",
    "fill-dangling-edge": "fill --diagram {dangling} --words abc",
    "mc-dangling-edge": "fillprob-mc --diagram {dangling} --m 2 --l 3 --d 0 --trials 2",
    "constraint-missing-vertex": "constraint --diagram {stray_vertex}",
    "in-zero-denominator": "pieces --in {zero_denominator}",
    "in-not-utf8": "pieces --in {not_utf8}",
    "in-directory": "pieces --in {directory}",
    "tree-directory": "roundtree-emanate --tree {directory} --k 2",
    "config-directory": "rivin --config {directory}",
    "sample-negative-seed": "sample --m 2 --l 4 --d 0 --seed -1",
    "extend-negative-seed": "extend --in {host} --d-target 1/4 --seed -1",
    "mc-negative-seed": "fillprob-mc --diagram {triangle} --m 2 --l 3 --d 0 --trials 2 "
                        "--seed -1",
    "scan-negative-seed": "cprime-scan --m 2 --l 8 --lam 1/3 --d-grid 0 --trials 1 --seed -1",
    "scan-negative-trials": "cprime-scan --m 2 --l 8 --lam 1/3 --d-grid 0 --trials -1",
    # a scan of no trials refuses what a scan of three does
    "scan-no-trials-lam-2": "cprime-scan --m 2 --l 8 --lam 2 --d-grid 0 --trials 0",
    "scan-no-trials-d-2": "cprime-scan --m 2 --l 8 --lam 1/3 --d-grid 2 --trials 0",
    "scan-no-trials-m-1-l-0": "cprime-scan --m 1 --l 0 --lam 1/3 --d-grid 0 --trials 0",
    # more than 26 generators are refused before a count or a draw
    "scan-no-trials-m-30": "cprime-scan --m 30 --l 4 --lam 1/6 --d-grid 0 --trials 0",
    "sample-m-30-count-over-budget": "sample --m 30 --l 24 --d 1/2 --seed 0",
    "confdim-const-zero": "bounds --which confdim --d 1/4 --const 0",
    "confdim-const-negative": "bounds --which confdim --d 1/4 --const -1",
    "confdim-const-huge": "bounds --which confdim --d 1/4 --const 1e400",
    "rule-out-m-1": "bounds --which rule-out --m 1 --d 1/4",
    "confdim-m-1": "bounds --which confdim --m 1 --d 1/4",
    "sample-huge-l": "sample --m 2 --l {huge} --d 0 --seed 0",
    "scan-huge-l": "cprime-scan --m 2 --l {huge} --lam 1/3 --d-grid 0 --trials 1",
    "rule-out-l-0": "bounds --which rule-out --l 0 --d 1/4",
    "rule-out-huge-l": "bounds --which rule-out --l {huge} --d 1/4",
    "hyperbolicity-l-0": "bounds --which hyperbolicity --l 0 --d 1/4",
    "hyperbolicity-l-negative": "bounds --which hyperbolicity --l -5 --d 1/4",
    "emanating-huge-k": "bounds --which emanating --k {huge} --beta 1/2 --bigh 4 --d 1/4",
    "inductive-huge-l": "bounds --which inductive --diagram {triangle} --l {huge} --d 1/4",
    "probe-negative-seed": "roundtree-probe --tree {tree} --target {verified} "
                           "--which distortion --radius 2 --samples 3 --seed -1",
    "build-huge-branching": "roundtree-build --in {host} --branching-v {huge} --bigh 4 "
                            "--ext-offset 1 --ext-len 1 --levels 1",
    "emanate-tree-bad-letter": "roundtree-emanate --tree {tree_bad_letter} --k 2",
    "emanate-tree-no-vertices": "roundtree-emanate --tree {tree_no_vertices} --k 1",
    "emanate-tree-huge-vertex-count": "roundtree-emanate --tree {tree_huge_count} --k 2",
    # a presentation file's seed is SeedSequence entropy, as a sampler's is
    "build-negative-seed-host": "roundtree-build --in {negative_seed} --branching-v 2 "
                                "--bigh 2 --ext-offset 1 --ext-len 1 --levels 1",
    "emanate-tree-negative-seed-host": "roundtree-emanate --tree {tree_negative_seed} --k 2",
    "probe-path-off-tree": "roundtree-probe --tree {tree} --target {verified} "
                           "--which local-geodesic --path 99,0 --window 1",
    "probe-config-path-off-tree": "roundtree-probe --tree {tree} --target {verified} "
                                  "--which local-geodesic --config {path_negative} --window 1",
    "constraint-boundary-not-int": "constraint --diagram {boundary_str}",
    "fill-bears-not-int": "fill --diagram {bears_str} --words abAB",
    "exact-label-not-string": "fillprob-exact --diagram {label_int} --m 2 --l 4",
    "constraint-vertex-not-int": "constraint --diagram {vertex_list}",
    # a square's faces are not --l-gons
    "exact-l-below-faces": "fillprob-exact --diagram {square_restricted} --m 2 --l 3",
    "exact-l-above-faces": "fillprob-exact --diagram {square_restricted} --m 2 --l 5",
    "inductive-l-not-faces": "bounds --which inductive --diagram {square_restricted} "
                             "--l 40 --d 1/4",
    "build-negative-levels": "roundtree-build --in {host} --branching-v 2 --bigh 4 "
                             "--ext-offset 1 --ext-len 1 --levels -3",
    "probe-radius-0": "roundtree-probe --tree {tree} --target {verified} "
                      "--which distortion --radius 0 --samples 3",
    "probe-radius-negative": "roundtree-probe --tree {tree} --target {verified} "
                             "--which distortion --radius -2 --samples 3",
    "probe-samples-0": "roundtree-probe --tree {tree} --target {verified} "
                       "--which distortion --radius 2 --samples 0",
    "probe-samples-negative": "roundtree-probe --tree {tree} --target {verified} "
                              "--which distortion --radius 2 --samples -3",
    # an unverified target bounds distances by a naive closure under the cap
    "probe-local-geodesic-word-cap-negative":
        "roundtree-probe --tree {tree_level0} --target {host} --which local-geodesic "
        "--path 0,1 --window 1 --word-cap -3",
    "probe-distortion-word-cap-negative":
        "roundtree-probe --tree {tree_level0} --target {host} --which distortion "
        "--radius 2 --samples 3 --word-cap -3",
    # a verified target reads no closure, and refuses the cap all the same
    "probe-local-geodesic-word-cap-negative-verified":
        "roundtree-probe --tree {tree} --target {verified} --which local-geodesic "
        "--path 0,1 --window 1 --word-cap -3",
    "probe-distortion-word-cap-negative-verified":
        "roundtree-probe --tree {tree} --target {verified} --which distortion "
        "--radius 2 --samples 3 --word-cap -3",
    # an obstructed build exits 2 whatever stopped it, a spent search budget too
    "build-search-budget-1": "roundtree-build --in {verified} --branching-v 2 --bigh 4 "
                             "--ext-offset 1 --ext-len 1 --seg-len 3 --levels 1 "
                             "--search-budget 1",
}

# the flag or cause that the error of a BAD_INPUTS case must name
NAMED_FLAG = {
    "build-negative-levels": "--levels",
    "probe-radius-0": "radius",
    "probe-radius-negative": "radius",
    "probe-samples-0": "samples",
    "probe-samples-negative": "samples",
    "probe-local-geodesic-word-cap-negative": "word cap",
    "probe-distortion-word-cap-negative": "word cap",
    "probe-local-geodesic-word-cap-negative-verified": "word cap",
    "probe-distortion-word-cap-negative-verified": "word cap",
    "build-search-budget-1": "window search budget exhausted",
    "scan-no-trials-m-30": "26 generators",
    "sample-m-30-count-over-budget": "26 generators",
    "emanate-tree-huge-vertex-count": "cannot be connected",
    "build-negative-seed-host": "seed",
    "emanate-tree-negative-seed-host": "seed",
}

# inputs that used to hang, exhaust memory or crash, and now exhaust a budget
OVER_BUDGET_INPUTS = {
    "rivin-huge-l": "rivin --m 2 --l {huge}",
    "rivin-unprintable": "rivin --m 2 --l 9020",
    "sample-negative-budget": "sample --m 2 --l 4 --d 0 --seed 0 --budget -1",
    "sample-huge-denominator": "sample --m 2 --l 24 --d {huge}/4{huge}1 --seed 0",
    "exact-huge-l": "fillprob-exact --diagram {triangle} --m 2 --l {huge}",
    "mc-huge-trials": "fillprob-mc --diagram {triangle} --m 2 --l 3 --d 0 --trials {huge}",
    "scan-huge-trials": "cprime-scan --m 2 --l 8 --lam 1/3 --d-grid 0 --trials {huge}",
    "probe-huge-samples": "roundtree-probe --tree {tree_level0} --target {host} "
                          "--which distortion --radius 2 --samples {huge}",
    # a closure cap whose free ball passes the node budget, refused before any is built
    "probe-huge-word-cap": "roundtree-probe --tree {tree_level0} --target {host} "
                           "--which distortion --radius 2 --samples 3 --word-cap 1000000000",
    # not even the origin fits a vertex budget below 1, whatever the radius
    "ball-budget-0-radius-0": "ball --in {verified} --radius 0 --budget 0",
}


def _bad_input_files(tmp_path, verified_presentation) -> dict:
    triangle = json.loads(diagram_to_json(single_face_diagram(3)))
    dangling = json.loads(diagram_to_json(single_face_diagram(3)))
    dangling["faces"][0]["boundary"] = [1, 2, 9]
    stray_vertex = json.loads(diagram_to_json(single_face_diagram(3)))
    stray_vertex["edges"][0]["src"] = 77
    # squares with a field of the wrong type
    square = diagram_to_json(single_face_diagram(4))
    boundary_str, bears_str, label_int, vertex_list = (json.loads(square) for _ in range(4))
    boundary_str["faces"][0]["boundary"][1] = "x"
    bears_str["faces"][0]["bears"] = "1"
    label_int["restrictions"] = [{"edge": 1, "label": 5}]
    vertex_list["vertices"][0] = [0]
    square_restricted = restrict_boundary(single_face_diagram(4), dict(enumerate("abAB")))
    texts = {
        "bad": "this is not JSON\n",
        "triangle": json.dumps(triangle),
        "dangling": json.dumps(dangling),
        "stray_vertex": json.dumps(stray_vertex),
        "boundary_str": json.dumps(boundary_str),
        "bears_str": json.dumps(bears_str),
        "label_int": json.dumps(label_int),
        "vertex_list": json.dumps(vertex_list),
        "square_restricted": diagram_to_json(square_restricted),
        # "-1" would index the tree's vertices from the end
        "path_negative": "path=-1,0\n",
        "zero_denominator": "gromov-presentation v1\nm=2 l=4 d=1/0 seed=0 count=1 "
                            "parent=none\nabab\n",
    }
    files = {name: tmp_path / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        files[name].write_text(text)
    files["not_utf8"] = tmp_path / "not_utf8.txt"
    files["not_utf8"].write_bytes(b"gromov-presentation v1\n\xff\xfe\n")
    files["directory"] = tmp_path / "directory"
    files["directory"].mkdir()
    files["host"] = tmp_path / "host.txt"
    save_presentation(sample_presentation(2, 4, 0, seed=0), files["host"])
    files["verified"] = tmp_path / "verified.txt"
    save_presentation(verified_presentation, files["verified"])
    # the verified host and the tree host with seed -1 (and a fingerprint to
    # match in the tree): a build reaches its window search on the first
    seed = f" seed={verified_presentation.seed} "
    files["negative_seed"] = tmp_path / "negative_seed.txt"
    files["negative_seed"].write_text(files["verified"].read_text().replace(seed, " seed=-1 "))
    negative_host = files["host"].read_text().replace(" seed=0 ", " seed=-1 ")
    files["huge"] = "1" + "0" * 400
    # level-0 trees on that host: a valid one, one with no vertex at all, and
    # one with letter 9 (m = 2 has 0-3) on the first edge
    tree = json.loads(tree_to_json(init_round_tree(
        load_presentation(files["host"]),
        RoundTreeParams(V=2, H=2, ext_offset=1, ext_len=1, seg_len=2))))
    files["tree_level0"] = tmp_path / "tree_level0.json"
    files["tree_level0"].write_text(json.dumps(tree))
    files["tree_no_vertices"] = tmp_path / "tree_no_vertices.json"
    files["tree_no_vertices"].write_text(json.dumps(
        dict(tree, vertices=0, edges=[], cells=[], sectors={})))
    files["tree_huge_count"] = tmp_path / "tree_huge_count.json"
    files["tree_huge_count"].write_text(json.dumps(dict(tree, vertices=10**9)))
    files["tree_negative_seed"] = tmp_path / "tree_negative_seed.json"
    files["tree_negative_seed"].write_text(json.dumps(dict(
        tree, host=negative_host,
        host_fingerprint=hashlib.sha256(negative_host.encode()).hexdigest())))
    tree["edges"][0][1] = 9
    files["tree_bad_letter"] = tmp_path / "tree_bad_letter.json"
    files["tree_bad_letter"].write_text(json.dumps(tree))
    return files


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys, verified_presentation):
    files = _bad_input_files(tmp_path, verified_presentation)
    if "{tree}" in BAD_INPUTS[case]:
        files["tree"] = tmp_path / "tree.json"
        assert run(["roundtree-build", "--in", str(files["verified"]), "--branching-v", "2",
                    "--bigh", "4", "--ext-offset", "1", "--ext-len", "1", "--seg-len", "3",
                    "--levels", "0", "--out", str(files["tree"])]) == 0
    assert run(BAD_INPUTS[case].format(**files).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert NAMED_FLAG.get(case, "") in err


@pytest.mark.parametrize("case", sorted(OVER_BUDGET_INPUTS))
def test_over_budget_input_exits_3(case, tmp_path, capsys, verified_presentation):
    files = _bad_input_files(tmp_path, verified_presentation)
    assert run(OVER_BUDGET_INPUTS[case].format(**files).split()) == 3
    assert capsys.readouterr().err.startswith("budget exhausted: ")


def test_jobs_only_on_fillprob_mc(capsys):
    parser = build_parser()
    assert parser.parse_args(["fillprob-mc", "--diagram", "d.json", "--jobs", "2"]).jobs == "2"
    with pytest.raises(SystemExit) as e:
        main(["rivin", "--m", "2", "--l", "3", "--jobs", "2"])
    assert e.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_sample_near_density_one(capsys):
    assert run(["sample", "--m", "2", "--l", "7", "--d", "99999/100000", "--seed", "0",
                "--budget", "3000"]) == 0
    assert "count=2186 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# argv fuzz: a valid command line for every command, with one or two flags
# set to a bad value (unreadable, negative, zero, huge, a file of the wrong
# format) and now and then a flag left out.  Valid trials, samples and radii
# are <= 3 and jobs is never above 1, so no example is slow and none starts
# a process pool.
# ---------------------------------------------------------------------------

_HUGE = "1" + "0" * 400
_BAD_INT = ["abc", "1.5", "-1", "0", "100000000000000000000", _HUGE, "-" + _HUGE]
_BAD_FRAC = ["x", "1/0", "-1/2", "0", "3/2", "1e400", f"1/{_HUGE}", f"{_HUGE}/4{_HUGE}1",
             "100000000000000000000"]
_BAD_COUNT = ["abc", "", "1.5", "0", "-1", "-" + _HUGE]    # trials, samples, radii, jobs
_BAD_FILES = ["@" + f for f in ("host.txt", "verified.txt", "tri.json", "tree.json",
                                "junk.txt", "empty.txt", "binary.txt", "zero_den.txt",
                                "huge_l.txt", "bad_relator.txt", "missing.txt", "dir")]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, verified_presentation):
    """Valid inputs and inputs of the wrong format, by name."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: root / name for name in (
        "host.txt", "verified.txt", "tri.json", "tree.json", "cfg.txt", "junk.txt",
        "empty.txt", "binary.txt", "zero_den.txt", "huge_l.txt", "bad_relator.txt",
        "cfg_bad.txt", "missing.txt", "dir", "out.json")}
    save_presentation(sample_presentation(2, 6, 0, seed=0), files["host.txt"])
    save_presentation(verified_presentation, files["verified.txt"])
    files["tri.json"].write_text(diagram_to_json(single_face_diagram(3)))
    assert main(["roundtree-build", "--in", str(files["verified.txt"]), "--branching-v", "2",
                 "--bigh", "4", "--ext-offset", "1", "--ext-len", "1", "--seg-len", "3",
                 "--levels", "0", "--out", str(files["tree.json"])]) == 0
    files["cfg.txt"].write_text("m=2\nl=3\n")
    files["cfg_bad.txt"].write_text("m 2\n")
    files["junk.txt"].write_text("this is not any format\n")
    files["empty.txt"].write_text("")
    files["binary.txt"].write_bytes(b"\x00\xff\xfe{\n")
    head = "gromov-presentation v1\nm=2 l={l} d={d} seed=0 count=1 parent=none\n"
    files["zero_den.txt"].write_text(head.format(l=4, d="1/0") + "abab\n")
    files["huge_l.txt"].write_text(head.format(l=_HUGE, d="0/1") + "abab\n")
    files["bad_relator.txt"].write_text(head.format(l=4, d="0/1") + "abAB\n")
    files["dir"].mkdir()
    return {name: str(path) for name, path in files.items()}


def _int(*valid):
    return list(valid), _BAD_INT


def _frac(*valid):
    return list(valid), _BAD_FRAC


def _count(*valid):
    return list(valid), _BAD_COUNT


def _file(*valid):
    return ["@" + f for f in valid], _BAD_FILES


# command -> flag -> (valid values, bad values); "@name" is fuzz file `name`
_FUZZ_FLAGS = {
    "rivin": {"--m": _int("2", "3"), "--l": _int("3", "8")},
    "sample": {"--m": _int("2", "3"), "--l": _int("4", "8"), "--d": _frac("0", "1/4"),
               "--seed": _int("0", "7"), "--budget": _int("50", "1000")},
    "extend": {"--in": _file("host.txt"), "--d-target": _frac("1/4", "1/3"),
               "--seed": _int("1")},
    "pieces": {"--in": _file("host.txt", "verified.txt")},
    "cprime-scan": {"--m": _int("2"), "--l": _int("6", "8"), "--lam": _frac("1/3"),
                    "--d-grid": _frac("0", "1/10,1/4"), "--trials": _count("1", "3"),
                    "--seed": _int("2")},
    "dehn": {"--in": _file("verified.txt"), "--word": (["abAB", "1", "a" * 200],
                                                       ["", "xyz", "a?b", _HUGE])},
    "ball": {"--in": _file("verified.txt"), "--radius": _count("1", "3"),
             "--budget": _int("50", "100000")},
    "diagrams-enumerate": {"--faces": _int("1", "2"), "--l": _int("3", "4"),
                           "--budget": _int("100", "100000")},
    "fill": {"--diagram": _file("tri.json"), "--mode": (["all", "first", "count"], ["x", ""]),
             "--words": (["abA,aBA,bab"], ["", "xyz", "ab,ab", _HUGE])},
    "constraint": {"--diagram": _file("tri.json")},
    "fillprob-exact": {"--diagram": _file("tri.json"), "--m": _int("2", "3"),
                       "--l": _int("3"), "--budget": _int("100000")},
    "fillprob-mc": {"--diagram": _file("tri.json"), "--m": _int("2"), "--l": _int("3"),
                    "--d": _frac("0", "1/4"), "--trials": _count("1", "3"),
                    "--seed": _int("4"), "--jobs": _count("1")},
    "bounds": {"--which": (["rule-out", "emanating", "confdim", "roundtree-lower",
                            "hyperbolicity", "inductive"], ["nonsense", ""]),
               "--m": _int("2", "3"), "--l": _int("8", "100"), "--d": _frac("1/4"),
               "--k": _int("4"), "--beta": _frac("1/2"), "--bigh": _frac("4"),
               "--epsilon": _frac("1/10"), "--const": _frac("100"),
               "--branching-v": _int("2"), "--diagram": _file("tri.json")},
    "transfer-params": {"--dt": _frac("1/4", "1/8")},
    "roundtree-build": {"--in": _file("verified.txt"), "--branching-v": _int("2"),
                        "--bigh": _int("4"), "--ext-offset": _int("1"), "--ext-len": _int("1"),
                        "--seg-len": _int("3"), "--levels": _int("0", "1"),
                        "--search-budget": _int("1000")},
    "roundtree-emanate": {"--tree": _file("tree.json"), "--k": _int("1", "3")},
    "roundtree-probe": {"--tree": _file("tree.json"), "--target": _file("verified.txt"),
                        "--which": (["distortion", "local-geodesic"], ["x", ""]),
                        "--path": (["0,1,2"], ["", "a,b", "-1,99999", _HUGE]),
                        "--window": _count("2"), "--radius": _count("2"),
                        "--samples": _count("3"), "--seed": _int("1"),
                        "--word-cap": _count("3")},
}
_COMMON_FLAGS = {"--config": (["@cfg.txt"], ["@cfg_bad.txt", "@dir", "@missing.txt",
                                             "@binary.txt"]),
                 "--format": (["json"], ["csv"]), "--out": (["@out.json"], ["@dir"])}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = {**_FUZZ_FLAGS[command], **_COMMON_FLAGS}
    bad = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2, unique=True))
    dropped = draw(st.lists(st.sampled_from(sorted(_FUZZ_FLAGS[command])), max_size=1))
    argv = [command]
    for flag, (valid, wrong) in flags.items():
        if flag in bad:
            argv += [flag, draw(st.sampled_from(wrong))]
        elif flag not in dropped and (flag not in _COMMON_FLAGS or draw(st.booleans())):
            argv += [flag, draw(st.sampled_from(valid))]
    return argv


@given(argv=_fuzz_argv())
@settings(max_examples=500, deadline=None)
def test_cli_fuzz_exits_0_2_or_3_without_traceback(argv, fuzz_files):
    argv = [fuzz_files[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
