"""Benchmark of the evolat CLI: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh child process (perfbench/child.py),
so that its peak memory is its own.  Passes run one after another, a closed
loop with one client: at least three, and more while another whole pass is
expected to end within `--seconds`; metrics are medians over the passes.
The BLAS library keeps its default thread count and the CLI's `--threads`
is never passed.

--trace 0 reports, per workload:
  wall_s       time of all the workload's commands in one pass
  setup_s      from starting the child to its first command: interpreter,
               `import evolat` and input generation
  peak_rss_mb  ru_maxrss of the child, in MiB
  ok_ratio     share of commands that ran and passed the output checks
               (1 - fail ratio)

--trace 1 alternates plain and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py), with the tracing overhead
against the plain passes and the number of output files whose bytes
differed between passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run that cannot start the program, or
whose child dies, exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
DEFAULT_SECONDS = 35
# the median of three passes ignores a first pass slowed by fresh memory
MIN_PASSES = 3
# a run must end well within 180 s: no pass starts that would end past this
HARD_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}
PER_LAYER = {
    "linalg.eigendecompose_s": "s",
    "linalg.eigendecompose_calls": "count",
    "resonant.build_block_hamiltonian_s": "s",
    "resonant.local_diagonals_s": "s",
    "resonant.local_pairs": "count",
    "resonant.z_bytes": "bytes",
    "syk.chaotic_syk_s": "s",
    "syk.local_diagonals_s": "s",
    "syk.monomials": "count",
    "engine.nonlocality_matrix_self_s": "s",
    "engine.pipeline_init_self_s": "s",
    "engine.bound_at_calls": "count",
    "engine.bound_at_self_s": "s",
    "engine.bound_at_p50_us": "us",
    "engine.bound_at_p99_us": "us",
    "lattice.lll_s": "s",
    "lattice.lll_calls": "count",
    "lattice.lll_star_sq_ratio": "ratio",
    "lattice.lll_u_max": "count",
    "lattice.brute_force_s": "s",
    "lattice.brute_force_points": "count",
    "lattice.method_ladder_s": "s",
    "lattice.babai_s": "s",
    "lattice.babai_calls": "count",
    "lattice.greedy_s": "s",
    "lattice.greedy_calls": "count",
    "lattice.greedy_improved_ratio": "ratio",
    "lattice.lattice_basis_s": "s",
    "lattice.gram_schmidt_s": "s",
    "lattice.gram_schmidt_calls": "count",
    "spectral.unfold_s": "s",
    "spectral.ks_distance_s": "s",
    "setup.import_evolat_s": "s",
    "setup.import_scipy_stats_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.byte_mismatch_files": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "trace.focus_share": "ratio",
}

_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a child that died."""


def _scipy_stats_import_s(log: str) -> float:
    """Cumulative `-X importtime` of scipy.stats.  Its own line can be
    missing (scipy loads it lazily), so sum the outermost lines of the
    package and its submodules."""
    entries = []
    for line in log.splitlines():
        m = _IMPORTTIME.match(line)
        if m and (m.group(3) == "scipy.stats" or m.group(3).startswith("scipy.stats.")):
            entries.append((len(m.group(2)), int(m.group(1))))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def run_pass(workload: str, seed: int, traced: bool, work: Path, deadline: float) -> dict:
    """Run one pass in a fresh child; return its result with setup_s added."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_file = work / "result.json"
    log_file = work / "child.log"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), "--work", str(work),
           "--result", str(result_file), *(["--trace"] if traced else [])]
    with open(log_file, "w") as log:
        started = monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} pass still running at the {HARD_LIMIT_S:.0f} s limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    text = log_file.read_text()
    if code != 0 or not result_file.is_file():
        raise BenchError(f"{workload} child exited with code {code}:\n{text[-3000:]}")
    res = json.loads(result_file.read_text())
    res["setup_s"] = res["first_command_monotonic"] - started
    if traced:
        res["layers"]["setup.import_scipy_stats_s"] = _scipy_stats_import_s(text)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(result_file, traces / f"{workload}-seed{seed}.json")
    shutil.rmtree(work, ignore_errors=True)
    return res


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    start = monotonic()
    deadline = start + HARD_LIMIT_S
    passes, lengths = [], []
    try:
        while True:
            t = monotonic()
            passes.append(run_pass(workload, seed, trace and len(passes) % 2 == 1, work, deadline))
            now = monotonic()
            lengths.append(now - t)
            # another pass starts only if it is expected to end within the run
            # time, so that a run lasts about --seconds whatever the workload
            expected = statistics.median(lengths)
            if now + expected > deadline:
                break
            if now + expected > start + seconds and len(passes) >= MIN_PASSES:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, passes, trace)


def summarize(workload: str, passes: list, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        keys = set(PER_LAYER) - {"setup.import_evolat_s", "trace.overhead_ratio",
                                 "cli.byte_mismatch_files"}
        values = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
        values["setup.import_evolat_s"] = statistics.median(p["import_s"] for p in plain)
        # the first pass can pay for memory the host has not mapped yet
        base = plain[1:] or plain
        values["trace.overhead_ratio"] = (
            values["trace.wall_s"] / statistics.median(p["wall_s"] for p in base) - 1.0)
        seen = {}
        for p in passes:
            for name, digest in p["digests"].items():
                seen.setdefault(name, set()).add(digest)
        values["cli.byte_mismatch_files"] = sum(1 for d in seen.values() if len(d) > 1)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    errors = [f"{c['label']}: {c['error']}" for p in passes for c in p["commands"] if c["error"]]
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "samples": {"plain": len(plain), "traced": len(traced)},
        "blas_threads": sorted({p["blas_threads"] for p in passes}, key=str),
        "errors": errors,
    }


def report(s: dict) -> None:
    n = s["samples"]
    print(f"== {s['workload']}: {n['plain']} plain and {n['traced']} traced passes, "
          f"BLAS threads {s['blas_threads']}, {s['failed']} of {s['attempted']} commands "
          f"failed (fail_ratio {s['failed'] / s['attempted']:.4f})", file=sys.stderr)
    for name, m in s["metrics"].items():
        print(f"   {name:38s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    for e in s["errors"][:10]:
        print(f"   FAILED {e}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        report(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
