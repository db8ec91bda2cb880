"""faradaycorr benchmark: times CLI runs the way a user makes them.

    python3 bench/run.py --workload exact_grid --seed 0 --seconds 24 --trace 0

Every operation is one ``faradaycorr`` CLI invocation in a fresh interpreter
(bench/cli_op.py) on a config generated from ``--seed`` (bench/workloads.py).
A run repeats whole rounds of its workload's operations, plus the workload's
fault probe, until ``--seconds`` have passed, checks the outputs, and prints
one JSON object as the last line of stdout:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.
* ``--trace 1``: the per-layer metrics. Each round runs every operation
  untraced and then traced (their wall-time difference is the tracing
  overhead); one more pass records allocation peaks.

The package is imported from ``src/`` of the checkout this file sits in; the
run refuses to start without it. Work files go to bench/work/, and a record
of the run with its environment to bench/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread per process: with two OpenBLAS threads on a 2-core machine a
# small eigh stalls on the thread hand-off (see README). Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

SETUPS_PER_ROUND = 2
OP_TIMEOUT_S = 150.0
MIB = 1024.0

BUILD_SPANS = ("config.build_model", "config.build_protocols", "config.build_field")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Spawns cli_op.py processes and collects what they report."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FARADAYCORR_")}
        self.env.update(BLAS_ENV, PYTHONPATH=str(SRC))

    def spawn(self, mode: str, op, tag: str) -> dict:
        """Run one invocation; returns its report plus wall time, peak RSS and exit code."""
        out_dir = self.workdir / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        report_path = self.workdir / f"{tag}.json"
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "cli_op.py"), mode, str(report_path), "--", *op.args, "--out", str(out_dir)]
        with open(self.workdir / f"{tag}.stderr", "wb") as err:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text())
        report.update(start=start, wall_s=end - start, rss_mib=usage.ru_maxrss / MIB, rc=proc.returncode)
        if proc.returncode == 0 and mode != "setup":
            report["results"] = (out_dir / "results.csv").read_bytes()
        elif proc.returncode != 0:
            tail = (self.workdir / f"{tag}.stderr").read_text(errors="replace")[-2000:]
            log(f"{tag}: exit {proc.returncode}\n{tail}")
        return report


def span_round(reports) -> dict:
    """Per-layer numbers of one round: calls, self time and counters of its
    traced reports, summed over the round's operations."""
    from tracer import span_totals

    out: dict[str, float] = {}
    for rep in reports:
        for name, (calls, self_s) in span_totals(rep["spans"]).items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        for key, n in rep["counters"].items():
            out[key] = out.get(key, 0) + n
    out["config.build.self_s"] = sum(out.get(f"{n}.self_s", 0.0) for n in BUILD_SPANS)
    out["cli.results_bytes"] = sum(len(rep["results"]) for rep in reports)
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "faradaycorr" / "cli.py").is_file():
        log(f"no faradaycorr sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    import faradaycorr

    if Path(faradaycorr.__file__).resolve().parent != SRC / "faradaycorr":
        log(f"imported faradaycorr from {faradaycorr.__file__}, not from {SRC}")
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(workdir)
    setup_op = workload.ops[0]

    # Warm-up: byte-compiles the package and fills the page cache once, as an
    # installed package would have; not measured.
    warm = runner.spawn("setup", setup_op, "warmup")
    if warm["rc"] != 0 or Path(warm["package"]).parent != SRC / "faradaycorr":
        log("set-up failed")
        return 1

    errors: list[str] = []
    setups: list[float] = []
    first: dict[str, bytes] = {}
    rounds: list[dict] = []
    attempted = failed = 0

    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        i = len(rounds)
        plain, traced = [], []
        # set-up samples are spread over the run, so that they meet the same
        # machine load as the operations
        for _ in range(SETUPS_PER_ROUND if args.trace == 0 else 0):
            rep = runner.spawn("setup", setup_op, "setup")
            if rep["rc"] != 0:
                log("set-up failed")
                return 1
            setups.append(rep["ready"] - rep["start"])
        for op in workload.ops:
            attempted += 1
            rep = runner.spawn("run", op, op.name)
            if rep["rc"] != 0:
                failed += 1
                errors.append(f"round {i}: {op.name} exited {rep['rc']}")
                continue
            if first.setdefault(op.name, rep["results"]) != rep["results"]:
                errors.append(f"round {i}: {op.name} results.csv differs from round 0")
            plain.append((op, rep))
            if args.trace:
                trep = runner.spawn("trace", op, f"{op.name}.trace")
                if trep["rc"] != 0 or trep.get("results") != rep["results"]:
                    errors.append(f"round {i}: traced {op.name} failed or changed results.csv")
                else:
                    traced.append(trep)
        rounds.append({"plain": plain, "traced": traced})
        try:
            probe = workload.probe()
        except Exception:  # an unexpected crash of the probed code is a failure too
            log(traceback.format_exc())
            probe = True
        if probe is not None:
            attempted += 1
            failed += int(probe)

    allocs = []
    if args.trace:
        for op in workload.ops:
            rep = runner.spawn("alloc", op, f"{op.name}.alloc")
            if rep["rc"] != 0:
                errors.append(f"alloc pass of {op.name} exited {rep['rc']}")
            allocs.append(rep)

    if len(first) == len(workload.ops):
        try:
            errors += workload.check(first)
        except (KeyError, ValueError, IndexError) as exc:
            errors.append(f"unreadable results: {exc!r}")
    complete = [r for r in rounds if len(r["plain"]) == len(workload.ops)]
    if not complete:
        log("no round completed: " + "; ".join(errors))
        return 1

    samples: dict[str, list] = {}
    if args.trace == 0:
        ops = [(op, rep) for r in complete for op, rep in r["plain"]]
        samples["wall_s"] = [rep["wall_s"] for _, rep in ops]
        # Means over the run, not medians: the host's speed drifts between a
        # fast and a slow state for about a minute at a time, and a median
        # over a run flips with whichever state holds most of it (README).
        metrics = {
            "setup_s": statistics.fmean(setups),
            "wall_s": statistics.fmean(samples["wall_s"]),
            "shots_per_s": sum(op.shots for op, _ in ops) / sum(rep["main_s"] for _, rep in ops),
            "peak_rss_mib": max(rep["rss_mib"] for _, rep in ops),
        }
        samples["setup_s"] = setups
    else:
        traced_rounds = [r for r in complete if len(r["traced"]) == len(workload.ops)]
        if not traced_rounds:
            log("no traced round completed: " + "; ".join(errors))
            return 1
        layer_rounds = [span_round(r["traced"]) for r in traced_rounds]
        counts = [{k: v for k, v in lr.items() if not k.endswith("self_s")} for lr in layer_rounds]
        if any(c != counts[0] for c in counts):
            errors.append("per-layer counts differ between rounds")
        # times are medians over rounds; counts repeat exactly
        metrics = {k: statistics.median(lr[k] for lr in layer_rounds) for k in layer_rounds[0]}
        metrics.update(counts[0])
        metrics["cli.import_s"] = statistics.median(
            rep["import_s"] for r in complete for _, rep in r["plain"]
        )
        for rep in allocs:
            for key, peak in rep.get("peaks_mib", {}).items():
                metrics[key] = max(metrics.get(key, 0.0), peak)
        overhead = [
            sum(t["wall_s"] for t in r["traced"]) - sum(rep["wall_s"] for _, rep in r["plain"])
            for r in traced_rounds
        ]
        metrics["trace.overhead_s"] = statistics.median(overhead)
        samples["layers"] = layer_rounds
        samples["trace.overhead_s"] = overhead
        samples["alloc_pass_wall_s"] = [rep["wall_s"] for rep in allocs]

    for e in errors:
        log(f"check failed: {e}")

    # A per-layer metric whose function the workload never calls reads 0.
    declared = declared_metrics(args.trace)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": unit} for k, unit in declared.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "errors": errors,
        "environment": environment(),
        "result": result,
        "samples": samples,
    }
    records = BENCH / "records"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
