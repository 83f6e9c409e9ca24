"""The htoeplitz benchmark.

    python3 bench/run.py --workload derive --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --smoke

Closed loop, one client: a single process sends one request at a time to
`htoeplitz.cli.main(argv)` in process, with no worker threads.  Each request
is timed from the call to its parsed JSON verdict.  Outside the timed region
the report is validated against the package's RunReport schema and its
verdict is checked against a known answer (see workloads.py); a request
that raises, exits with another code than expected, or fails either check
counts as failed.

Run from the repository root.  The program is imported from ./src, so no
build or install step is needed; without ./src the benchmark exits with
code 2 and prints no result.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: set-up time in fresh interpreters (median of three),
wall time of one pass over the workload's request list (mean over the
run's passes, which blends the slow and fast stretches of a shared host
rather than picking one), the median per-request time, and the peak
resident memory of this process.  With --trace 1 the run alternates
untraced and traced passes and reports per-pass layer metrics from
spans.py plus the tracing overhead.
--workload all runs every workload, each in a fresh interpreter, and prints
one table.  --smoke runs one small request per workload and checks that
verdict checks, schema validation, span nesting and metric names are wired.

Lines before the last one are a readable table and machine notes; the full
record of each run, with per-request samples, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gzip
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "verdict_s_p50": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
MIN_PASSES = 2        # timed runs average at least two passes
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import htoeplitz.cli\n"
    "htoeplitz.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
TAIL_BEYOND = 10      # samples required beyond the reported tail percentile


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# the program under test


def load_program():
    """Import htoeplitz.cli from ./src of this checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "htoeplitz" / "cli.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import htoeplitz.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "htoeplitz").resolve():
        print(f"error: imported htoeplitz from {cli.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def schema_validator():
    import jsonschema

    schema = json.loads((ROOT / "src/htoeplitz/schema/runreport.schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def measure_setup(repeats: int) -> List[float]:
    """Seconds to import htoeplitz.cli and build its parser, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class Sample:
    seconds: float
    ok: bool
    why: Optional[str]
    report_bytes: int


class Client:
    """Sends requests to cli.main and checks each verdict outside the timed region."""

    def __init__(self, cli, validator):
        self.cli = cli
        self.validator = validator
        self.sent = 0

    def send(self, req: wl.Request, tracer: Optional[Tracer] = None) -> Sample:
        self.sent += 1
        if tracer is not None:
            tracer.begin_request(self.sent)
        out, err = io.StringIO(), io.StringIO()
        report, why, code = None, None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
            report = json.loads(out.getvalue())
        except SystemExit as exc:       # argparse refusing the request
            why = f"exited through SystemExit({exc.code}): {err.getvalue().strip()}"
        except Exception:               # the loop must go on; record what broke
            why = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        if why is None:
            why = self.verdict(req, code, report)
        return Sample(seconds, why is None, why, len(out.getvalue()))

    def verdict(self, req: wl.Request, code, report) -> Optional[str]:
        if code != req.expect_exit:
            return f"exit {code}, expected {req.expect_exit}"
        errors = sorted(e.message for e in self.validator.iter_errors(report))
        if errors:
            return f"report fails the schema: {errors[0]}"
        if report["status"] != ("ok" if req.expect_exit == 0 else "fail"):
            return f"status {report['status']} with exit {code}"
        return req.check(report)


def run_passes(client: Client, reqs, budget: float, min_passes: int,
               tracer: Optional[Tracer] = None):
    """Whole passes over `reqs` for at least `budget` seconds and `min_passes` passes."""
    walls: List[float] = []
    samples: List[Sample] = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        samples.extend(client.send(r, tracer) for r in reqs)
        walls.append(time.perf_counter() - t0)
    return walls, samples


def tail(seconds: List[float]):
    """The highest percentile with TAIL_BEYOND samples beyond it, if that is at least p50."""
    n = len(seconds)
    rank = n - TAIL_BEYOND
    if rank < 1 or 100 * rank // n < 50:
        return None
    return {"percentile": 100 * rank // n, "value": sorted(seconds)[rank - 1], "samples": n}


# ---------------------------------------------------------------------------
# machine notes


def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_notes() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "src_lines": src_lines,
        "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one workload


def save_profile(client: Client) -> Path:
    """cProfile top-20 (cumulative) of the derive L = 5 request."""
    req = wl.requests("derive", 0)[0]
    prof = cProfile.Profile()
    prof.enable()
    client.send(req)
    prof.disable()
    text = io.StringIO()
    pstats.Stats(prof, stream=text).sort_stats("cumulative").print_stats(20)
    path = OUT / "profile-derive-L5.txt"
    path.write_text(" ".join(req.argv) + "\n" + text.getvalue())
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    notes = machine_notes()
    setup = [] if trace else measure_setup(SETUP_REPEATS)
    client = Client(cli, schema_validator())
    reqs = wl.requests(workload, seed)
    for req in wl.smoke_requests(workload, seed):   # warm-up, not counted
        client.send(req)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "requests": [list(r.argv) for r in reqs]}
    if not trace:
        walls, samples = run_passes(client, reqs, seconds, MIN_PASSES)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(walls),
            "verdict_s_p50": statistics.median(s.seconds for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        record["setup_samples"] = setup
    else:
        # untraced and traced passes alternate, so a slow stretch of a shared
        # host falls on both sides of trace.overhead_s
        tracer = Tracer()
        walls, traced_walls, samples, traced = [], [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            more_walls, more = run_passes(client, reqs, 0, 1)
            with tracer.installed():
                more_traced_walls, more_traced = run_passes(client, reqs, 0, 1, tracer)
            walls += more_walls
            samples += more
            traced_walls += more_traced_walls
            traced += more_traced
        values = tracer.layer_metrics(len(traced_walls))
        values["cli.report_bytes"] = sum(s.report_bytes for s in traced) / len(traced_walls)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        record["ratio_bases"] = tracer.ratio_bases()
        record["traced_walls"] = traced_walls
        samples = samples + traced
        OUT.mkdir(exist_ok=True)
        with gzip.open(OUT / f"spans-{workload}-seed{seed}.jsonl.gz", "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        if workload == "derive":
            record["profile"] = str(save_profile(client).relative_to(ROOT))

    failed = [s for s in samples if not s.ok]
    notes["loadavg_after"] = os.getloadavg()
    record.update({
        "machine": notes,
        "walls": walls,
        "samples": [[s.seconds, s.ok] for s in samples],
        "failures": [s.why for s in failed][:10],
        "fail_ratio": len(failed) / len(samples),
        "verdict_s_tail": tail([s.seconds for s in samples]),
        "result": {"correct": not failed, "attempted": len(samples), "failed": len(failed),
                   "metrics": metrics},
    })
    return record


def print_table(records: List[dict]) -> None:
    names = list(records[0]["result"]["metrics"])
    width = max(len(n) for n in names + ["verdict_s_tail"]) + 2
    print("metric".ljust(width) + "unit    " + "".join(r["workload"].rjust(14) for r in records))
    for name in names:
        unit = records[0]["result"]["metrics"][name]["unit"]
        cells = "".join(f"{r['result']['metrics'][name]['value']:14.6g}" for r in records)
        print(name.ljust(width) + unit.ljust(8) + cells)
    print("fail_ratio".ljust(width) + "ratio   "
          + "".join(f"{r['result']['failed']}/{r['result']['attempted']}".rjust(14) for r in records))
    if not records[0]["trace"]:
        cells = "".join(
            (f"p{t['percentile']}={t['value']:.4g}" if t else "n/a").rjust(14)
            for t in (r["verdict_s_tail"] for r in records))
        print("verdict_s_tail".ljust(width) + "s       " + cells)
        print("  (tail: highest percentile with 10 samples beyond it; samples: "
              + ", ".join(f"{r['workload']} {len(r['samples'])}" for r in records) + ")")
    else:
        for r in records:
            bases = ", ".join(f"{k} of {v}" for k, v in r["ratio_bases"].items())
            print(f"  ({r['workload']}: ratio bases {bases})")
    for r in records:
        m = r["machine"]
        print(f"machine[{r['workload']}]: python {m['python']}, nproc {m['nproc']}, "
              f"load {m['loadavg_before'][0]:.2f} -> {m['loadavg_after'][0]:.2f}, "
              f"commit {m['commit']}, src lines {m['src_lines']}")
        for why in r["failures"]:
            print(f"FAILED [{r['workload']}]: {why}")


def save(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    records = []
    for workload in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        name = f"{workload}-seed{seed}-trace{int(trace)}.json"
        records.append(json.loads((OUT / name).read_text()))
    print_table(records)
    failed = sum(r["result"]["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": failed,
        "metrics": {f"{r['workload']}.{k}": v
                    for r in records for k, v in r["result"]["metrics"].items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# smoke


def smoke() -> int:
    """Small requests through every check, in seconds; exit 1 if any wiring is broken."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    cli = load_program()
    client = Client(cli, schema_validator())
    setup = measure_setup(1)
    for workload in wl.WORKLOADS:
        reqs = wl.smoke_requests(workload, 0)
        walls, samples = run_passes(client, reqs, 0, 1)
        tracer = Tracer()
        with tracer.installed():
            _, traced = run_passes(client, reqs, 0, 1, tracer)
        for s in samples + traced:
            if not s.ok:
                problems.append(f"{workload}: known-answer check failed: {s.why}")
        if not tracer.spans:
            problems.append(f"{workload}: tracing recorded no spans")
        problems += [f"{workload}: {e}" for e in tracer.nesting_errors()]
        # a wrong answer must be caught: corrupt the verdict of the first request
        problems += [f"{workload}: {p}" for p in _corrupted_reports_caught(client, reqs[0])]
        layers = set(tracer.layer_metrics(1)) | {"cli.report_bytes", "trace.overhead_s"}
        if layers != {m["name"] for m in spec["per_layer"]}:
            problems.append(f"per-layer metric names differ from BENCHMARK.json: "
                            f"{sorted(layers ^ {m['name'] for m in spec['per_layer']})}")
        print(f"smoke {workload}: {len(samples) + len(traced)} requests, "
              f"{len(tracer.spans)} spans, pass {walls[0]:.3f} s")
    if set(END_TO_END) != {m["name"] for m in spec["end_to_end"]}:
        problems.append("end-to-end metric names differ from BENCHMARK.json")
    if {w["name"]: w["why"] for w in spec["workloads"]} != wl.WHY:
        problems.append("workloads differ from BENCHMARK.json")
    if not setup[0] > 0:
        problems.append("set-up time not measured")
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def _corrupted_reports_caught(client: Client, req: wl.Request) -> List[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = client.cli.main(list(req.argv))
    report = json.loads(out.getvalue())
    res = report["result"]
    if "survivors" in res:
        res["survivors"] = res["survivors"] + ["C2"]
    elif "lemmas" in res:
        res["lemmas"][-1]["match"] = not res["lemmas"][-1]["match"]
    elif "commutes" in res:
        res["commutes"] = not res["commutes"]
    else:
        res["failures"] = [{"case": 0}]
    problems = []
    if client.verdict(req, code, report) is None:
        problems.append("a corrupted verdict passed its known-answer check")
    report["extra"] = True
    if client.validator.is_valid(report):
        problems.append("a report with an unknown key passed the schema")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="wiring check with small requests")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record)
    print_table([record])
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
