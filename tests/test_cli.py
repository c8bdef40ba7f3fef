import importlib
import json
from fractions import Fraction

import pytest

from randomgroups import __version__
from randomgroups.cayley import cayley_ball
from randomgroups.cli import BOUNDS_DISPATCH, HANDLERS, OP_TABLE, build_parser, main
from randomgroups.diagrams import diagram_to_json, restrict_boundary, single_face_diagram
from randomgroups.model import load_presentation, sample_presentation, save_presentation


def run(argv):
    return main(argv)


def test_op_table_covers_every_command_and_resolves():
    parser = build_parser()
    subcommands = set(parser._subparsers._group_actions[0].choices)
    assert subcommands == set(OP_TABLE) == set(HANDLERS)
    for path in list(OP_TABLE.values()) + list(BOUNDS_DISPATCH.values()):
        mod, name = path.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(mod), name))


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
    # the payload bytes are those of a round trip through CayleyBall.to_json
    exact = cayley_ball(verified_presentation, 6)
    old = {"command": "ball", "config": {"in": str(pfile), "radius": 6},
           "result": json.loads(exact.to_json()), "version": __version__,
           "timestamp": ball["timestamp"]}
    assert ballfile.read_text() == json.dumps(old, indent=2, sort_keys=True) + "\n"
    csvfile = tmp_path / "ball.csv"
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--format", "csv",
                "--out", str(csvfile)]) == 0
    assert csvfile.read_text() == exact.adjacency_csv()


def test_ball_budget_exit_code(tmp_path, verified_presentation):
    pfile = tmp_path / "v.txt"
    save_presentation(verified_presentation, pfile)
    assert run(["ball", "--in", str(pfile), "--radius", "6", "--budget", "50"]) == 3


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
    "confdim-const-zero": "bounds --which confdim --d 1/4 --const 0",
    "confdim-const-negative": "bounds --which confdim --d 1/4 --const -1",
    "confdim-const-huge": "bounds --which confdim --d 1/4 --const 1e400",
    "rule-out-m-1": "bounds --which rule-out --m 1 --d 1/4",
    "confdim-m-1": "bounds --which confdim --m 1 --d 1/4",
}


def _bad_input_files(tmp_path) -> dict:
    triangle = json.loads(diagram_to_json(single_face_diagram(3)))
    dangling = json.loads(diagram_to_json(single_face_diagram(3)))
    dangling["faces"][0]["boundary"] = [1, 2, 9]
    stray_vertex = json.loads(diagram_to_json(single_face_diagram(3)))
    stray_vertex["edges"][0]["src"] = 77
    texts = {
        "bad": "this is not JSON\n",
        "triangle": json.dumps(triangle),
        "dangling": json.dumps(dangling),
        "stray_vertex": json.dumps(stray_vertex),
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
    return files


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    assert run(BAD_INPUTS[case].format(**_bad_input_files(tmp_path)).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
