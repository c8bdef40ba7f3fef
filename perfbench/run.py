"""randomgroups benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A fresh `gen.py` process builds the
run's artefacts and op list from the seed; this process then runs the op
list through `randomgroups.cli.main(argv)`, one op after another, as passes
over the list until S seconds are used (at least one pass).  Library caches
are emptied before every op, so no op reuses work another op cached.

Each op's output (stdout plus any file it writes, the `timestamp` field
removed) is hashed and checked: against the reference digests for seed 0,
against the first pass, against earlier runs of the same source and seed,
and by the op's own checks.  The last stdout line is the JSON result; a
results file with the environment stamp goes to perfbench/results/.

With --trace 1 every call into the library's public functions is recorded
as a span (see tracer.py) and the metrics are per-layer times and counts.
Every reported time is scaled by the run's machine speed (SpeedProbe).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# workload -> (unit counted by ops_per_s, setup repeats); queries sets up
# once because its setup builds the 38 050-relator demo tree (about 15 s)
WORKLOADS = {
    "cprime_scan": ("presentations checked", 3),
    "mc_fill": ("MC trials", 3),
    "tree_build": ("tree vertices built", 3),
    "queries": ("CLI queries answered", 1),
}
MAX_PASSES = 100
LAYER_UNITS = {"cli.out_bytes": "bytes", "diagrams.fill.hit_ratio": "ratio",
               "diagrams.compile.per_diagram": "ratio"}
TIMESTAMP = re.compile(rb'"timestamp"\s*:\s*"[^"]*",?\s*')


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def source_id() -> str:
    """Digest of the library source and the op generator: runs with the same
    digest and seed must give the same outputs and counts."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + [HERE / "gen.py"]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def setup(workload: str, seed: int, work: Path, repeats: int):
    """Generate the artefacts `repeats` times in fresh processes; every copy
    must be identical.  Returns (ops, generation times, whether all agree)."""
    times, digests = [], []
    for k in range(repeats):
        d = work / f"setup{k}"
        t = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                        "--seed", str(seed), "--dir", str(d)],
                       check=True, timeout=170, cwd=ROOT)
        times.append(time.perf_counter() - t)
        files = sorted(p for p in d.rglob("*") if p.is_file())
        h = hashlib.sha256()
        for p in files:
            data = p.read_bytes().replace(str(d).encode(), b"<dir>")
            h.update(p.name.encode() + b"\0" + data + b"\0")
        digests.append(h.hexdigest())
        if k:
            shutil.rmtree(d)
    d0 = work / "setup0"
    ops = json.loads((d0 / "ops.json").read_text())
    return ops, times, len(set(digests)) == 1


def clear_caches() -> None:
    """Empty every memo cache of the library: lru_cache'd functions and
    module-level dicts named *CACHE*."""
    for name, mod in list(sys.modules.items()):
        if name != "randomgroups" and not name.startswith("randomgroups."):
            continue
        for attr, val in list(vars(mod).items()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
            elif isinstance(val, dict) and "CACHE" in attr.upper():
                val.clear()


def check_output(checks: dict, stdout: str) -> list[str]:
    """Problems with one op's output against the checks gen.py attached."""
    if not checks:
        return []
    payload = json.loads(stdout)
    res = payload.get("result", payload)
    problems = []
    for key, want in checks.items():
        if key in ("reduced", "trivial", "max_ratio", "axioms_pass"):
            ok = res.get(key) == want
        elif key == "cell_trials":
            ok = all(c["trials"] == want and 0 <= c["passes"] <= want for c in res["cells"])
        elif key == "estimate_at_most":
            p, n = res["estimate"], res["trials"]
            ok = p <= want + 3 * math.sqrt(max(p * (1 - p), 1e-12) / n)
        elif key == "free_ball_below":
            # below half the relator length a C'(1/6) ball is the free ball
            k = 2 * res["m"]
            want_n = 1 + sum(k * (k - 1) ** (r - 1) for r in range(1, want))
            ok = sum(v["distance"] < want for v in res["vertices"]) == want_n
        elif key == "pieces_agree_with":
            continue  # checked once after the passes, in finish()
        else:
            raise KeyError(f"unknown check {key!r}")
        if not ok:
            problems.append(f"check {key}={want!r} failed")
    return problems


def run_op(cli, op: dict, tracer, pass_index: int, artefacts: Path) -> dict:
    clear_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.op = (pass_index, op["id"])
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except (Exception, SystemExit) as e:  # an op that raises is a failed op
        rc = f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t
    stdout = out.getvalue()
    blob = stdout.encode()
    if op["out"] and rc == 0:
        blob += b"\0" + Path(op["out"]).read_bytes()
    # outputs echo their input paths; the artefact directory differs per run
    blob = TIMESTAMP.sub(b"", blob).replace(str(artefacts).encode(), b"<dir>")
    problems = [] if rc == 0 else [f"exit {rc}: {err.getvalue()[-300:]}"]
    units = 0
    if rc == 0:
        try:
            problems += check_output(op["checks"], stdout)
            units = op["units"]
            if units == "vertices":
                units = json.loads(Path(op["out"]).read_text())["vertices"]
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"unreadable output: {type(e).__name__}: {e}")
    return {"id": op["id"], "s": dt, "rc": rc, "digest": hashlib.sha256(blob).hexdigest(),
            "out_bytes": len(blob), "units": units, "problems": problems,
            "result": stdout if "pieces_agree_with" in op["checks"] else None}


def env_stamp(workload: str, seed: int, trace: bool, numpy_version: str) -> dict:
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        commit = r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "source_sha256": source_id(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "workload": workload, "seed": seed, "trace": trace,
            "utc": datetime.now(timezone.utc).isoformat()}


def memo_recall(path: Path, key: str, value):
    """What an earlier run of the same source and seed stored under `key`;
    `value` is stored and returned when no run did."""
    memo = json.loads(path.read_text()) if path.exists() else {}
    if key not in memo:
        memo[key] = value
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(memo, sort_keys=True))
        tmp.replace(path)
    return memo[key]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="randomgroups benchmark, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (SRC / "randomgroups" / "__init__.py").is_file():
        log(f"no randomgroups sources under {SRC}: run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import randomgroups.cli as cli
    from tracer import Tracer

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        log(f"imported randomgroups from {cli.__file__}, not from {SRC}")
        return 2

    unit, repeats = WORKLOADS[a.workload]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "memo").mkdir(exist_ok=True)
    stem = (f"{a.workload}-seed{a.seed}-trace{a.trace}-"
            f"{datetime.now(timezone.utc).strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = RESULTS / f"work-{os.getpid()}"
    tracer = Tracer() if a.trace else None
    faults: list[str] = []
    try:
        try:
            ops, gen_times, same = setup(a.workload, a.seed, work, repeats)
        except (subprocess.SubprocessError, OSError, ValueError) as e:
            log(f"setup failed: {e}")
            return 2
        if not same:
            faults.append("setup repeats produced different artefacts")
        t_ready = time.perf_counter()
        setup_s = t_ready - T_START - sum(gen_times) + statistics.median(gen_times)

        if tracer:
            tracer.install()
        probe = SpeedProbe(numpy)
        try:
            passes = run_passes(cli, ops, tracer, probe, a.seconds, t_ready,
                                work / "setup0")
        finally:
            if tracer:
                tracer.uninstall()
        result = finish(a, unit, ops, passes, setup_s, gen_times, tracer, probe, faults,
                        stem, numpy.__version__)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


class SpeedProbe:
    """How fast the machine runs during this run.

    On a shared machine the speed of every op drifts together by a quarter
    or more over minutes.  Two fixed kernels that call no library code (one
    of Python dict and tuple work, one NumPy row sort) are timed in a burst
    before the first op and after the last, and before any op that starts
    `EVERY` seconds or more after the last timing.  Their median times over their reference times
    give the run's slowdown; `factor()` is its square root, because library
    ops drift less than the two kernels do: on two sets of five runs per
    workload at the first commit, dividing by the full slowdown widened the
    spread of the memory-bound `tree_build` and `queries`, and dividing by
    its square root kept the largest spread lowest.  Timings are divided by
    `factor()`.
    """

    EVERY = 1.0
    BURST = 5
    REF_PY_S, REF_NP_S = 0.075, 0.06   # kernel times at the reference speed

    def __init__(self, numpy):
        self._np = numpy
        self._rows = numpy.random.default_rng(0).integers(0, 4, size=(25_000, 12),
                                                          dtype=numpy.int8)
        self.samples: list[tuple[float, float]] = []
        self._last = -math.inf
        self._time()  # warm-up: the first run of the kernels pays for allocation

    def _time(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        d: dict[tuple[int, int], int] = {}
        for i in range(250_000):
            k = (i & 63, (i >> 6) & 63)   # few keys: no memory held past the kernel
            d[k] = d.get(k, 0) + i
        sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
        t1 = time.perf_counter()
        self._np.unique(self._rows, axis=0)
        self._last = time.perf_counter()
        return (t1 - t0, self._last - t1)

    def burst(self) -> None:
        self.samples += [self._time() for _ in range(self.BURST)]

    def sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY:
            self.samples.append(self._time())

    def factor(self) -> float:
        py = statistics.median(s[0] for s in self.samples) / self.REF_PY_S
        np_ = statistics.median(s[1] for s in self.samples) / self.REF_NP_S
        return (py * np_) ** 0.25


def run_passes(cli, ops, tracer, probe, seconds, t_ready, artefacts) -> list[list[dict]]:
    """Repeat the op list until `seconds` after `t_ready` would be exceeded
    by one more pass; at least one pass."""
    passes: list[list[dict]] = []
    walls: list[float] = []
    probe.burst()
    while True:
        t = time.perf_counter()
        records = []
        for op in ops:
            probe.sample()
            records.append(run_op(cli, op, tracer, len(passes), artefacts))
        passes.append(records)
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t_ready
        if len(passes) >= MAX_PASSES or elapsed + statistics.median(walls) > seconds:
            probe.burst()
            return passes


def op_list_wall(passes: list[list[dict]]) -> float:
    """Wall time of the op list: the sum over ops of each op's median time
    across passes, so a burst of outside load on a shared machine that slows
    one pass moves no op's figure."""
    return sum(statistics.median(p[i]["s"] for p in passes) for i in range(len(passes[0])))


def finish(a, unit, ops, passes, setup_s, gen_times, tracer, probe, faults, stem,
           numpy_version) -> dict:
    """Gate the outputs, compute the metrics, write the results file."""
    from randomgroups.model import load_presentation
    from randomgroups.words import check_c_prime
    from tracer import layer_metrics

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = json.loads((HERE / "reference.json").read_text())
    ref = reference.get(a.workload, {}) if a.seed == 0 else {}
    first = {r["id"]: r["digest"] for r in passes[0]}
    env = env_stamp(a.workload, a.seed, bool(a.trace), numpy_version)
    memo = RESULTS / "memo" / f"{env['source_sha256'][:16]}-{a.workload}-seed{a.seed}.json"
    earlier = memo_recall(memo, "digests", first)

    # pieces agrees with the C'(1/3) check on the same file
    for op in ops:
        path = op["checks"].get("pieces_agree_with")
        if path is None:
            continue
        rec = next(r for r in passes[0] if r["id"] == op["id"])
        if rec["rc"] != 0:
            continue
        res = json.loads(rec["result"])["result"]
        p = load_presentation(path)
        if (3 * res["max_piece_length"] < res["relator_length"]) != \
                check_c_prime(list(p.relators), Fraction(1, 3)):
            for pass_ in passes:
                for r in pass_:
                    if r["id"] == op["id"]:
                        r["problems"].append("pieces disagrees with check_c_prime at 1/3")

    attempted = failed = 0
    for pass_ in passes:
        for r in pass_:
            if r["id"] in ref and r["digest"] != ref[r["id"]]:
                r["problems"].append("digest differs from the seed-0 reference")
            if r["digest"] != first[r["id"]]:
                r["problems"].append("digest differs from the first pass")
            if r["digest"] != earlier.get(r["id"], r["digest"]):
                r["problems"].append("digest differs from an earlier run of this source")
            attempted += 1
            failed += bool(r["problems"])
            for msg in r["problems"]:
                log(f"op {r['id']}: {msg}")

    units = [sum(r["units"] for r in p) for p in passes]
    if len(set(units)) != 1:
        faults.append(f"units per pass differ: {units}")
    speed = probe.factor()
    wall_s = op_list_wall(passes) / speed
    if tracer:
        per_pass = [layer_metrics(tracer.spans, i) for i in range(len(passes))]
        for m, p in zip(per_pass, passes):
            m["cli.out_bytes"] = sum(r["out_bytes"] for r in p)
        metrics, counts = {}, {}
        for name in per_pass[0]:
            vals = [m[name] for m in per_pass]
            if name.endswith((".s", ".self_s")):
                metrics[name] = {"value": statistics.median(vals) / speed, "unit": "s"}
                continue
            if len(set(vals)) != 1:
                faults.append(f"count {name} differs between passes: {vals}")
            counts[name] = vals[0]
            metrics[name] = {"value": vals[0], "unit": LAYER_UNITS.get(name, "count")}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        if memo_recall(memo, "counts", counts) != counts:
            faults.append("counts differ from an earlier traced run of this source and seed")
    else:
        metrics = {
            "setup_s": {"value": setup_s / speed, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": units[0] / wall_s, "unit": "units/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for f in faults:
        log(f"benchmark fault: {f}")

    record = {
        "env": env,
        "seconds": a.seconds,
        "unit": unit,
        "units_per_pass": units[0],
        "setup_generation_s": gen_times,
        "wall_s": wall_s,
        "raw_wall_s": op_list_wall(passes),
        "raw_setup_s": setup_s,
        "speed_factor": speed,
        "speed_samples": probe.samples,
        "ops": [[{k: r[k] for k in ("id", "s", "rc", "digest", "units", "problems")}
                 for r in p] for p in passes],
        "failed_frac": failed / attempted,
        "faults": faults,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        with gzip.open(RESULTS / f"{stem}.spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps({"run_id": stem, "fields": [
                "name", "start", "end", "parent", "pass", "op", "info"]}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4][0], s[4][1], s[5]]) + "\n")
    return {"correct": failed == 0 and not faults, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
