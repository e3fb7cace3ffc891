"""One pass of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --work DIR --result FILE [--trace]

Imports evolat from the checkout's `src/`, writes the workload's inputs,
runs its commands in process through `evolat.cli.main`, then checks the
outputs and writes a JSON result.  Set-up ends when the first command starts;
the parent measures it from the moment it started this process.  Everything
after the last command (checks, digests, trace analysis) is untimed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    if not (SRC / "evolat" / "__init__.py").is_file():
        print(f"no evolat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import evolat.cli as cli
    import_s = perf_counter() - t0

    import workloads as wl

    cmds = wl.commands(args.workload, args.seed)
    inputs = args.work / "inputs"
    wl.write_inputs(cmds, inputs)

    tracer = None
    main_fn = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli", cli.main)

    first = monotonic()
    results = []
    for i, c in enumerate(cmds):
        if tracer is not None:
            tracer.run = i
        out = args.work / "out" / c.label
        t = perf_counter()
        try:
            rc = main_fn(c.argv(inputs, out))
            error = None if rc in (0, None) else f"exit code {rc}"
        except (Exception, SystemExit) as exc:  # a failed command is counted, not fatal
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        results.append({"label": c.label, "seconds": perf_counter() - t, "error": error})
    wall = sum(r["seconds"] for r in results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = wl.load_refs(args.workload, args.seed)
    for c, r in zip(cmds, results):
        if r["error"] is None:
            try:
                wl.check(c, args.work / "out" / c.label, refs)
            except Exception as exc:  # any unreadable or wrong output fails the command
                r["error"] = f"check: {type(exc).__name__}: {exc}"

    digests, bytes_written = {}, 0
    for path in (args.work / "out").rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            digests[str(path.relative_to(args.work / "out"))] = hashlib.sha256(data).hexdigest()
            bytes_written += len(data)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "first_command_monotonic": first,
        "import_s": import_s,
        "commands": results,
        "wall_s": wall,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["error"] is not None),
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": _blas_threads(),
        "digests": digests,
        "bytes_written": bytes_written,
    }
    if tracer is not None:
        layers = tracer.metrics(args.workload, wall, cli.lattice)
        layers["cli.bytes_written"] = bytes_written
        result["layers"] = layers
        # name, start, end, parent, run id, dim
        result["spans"] = [s[:5] + [d] for s, d in zip(tracer.spans, tracer.dims())]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
