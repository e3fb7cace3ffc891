"""The four benchmark workloads: seeded inputs, CLI command lists and output checks.

Each workload is a fixed sequence of `evolat` subcommands.  Its inputs are
config files generated from the seed:

- the start of the resonant time window, uniform in [20000, 21000);
- the SYK coupling seed;
- three random 8-dimensional CVP instances.

Every output is checked two ways.  Invariants hold for any seed.  For the
default seed, numbers are also compared with `refs.json`, which holds the
outputs of commit 988432e.  Comparisons are numeric (relative 1e-9), never
byte for byte: with the default two BLAS threads, sums are reordered between
processes and the last digits of the outputs move.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
RTOL = 1e-9
REFS = Path(__file__).with_name("refs.json")

WINDOW = 4000.0
CVP_DIM = 8
CVP_RADIUS = 3
CVP_COUNT = 3

# Why each workload exists; BENCHMARK.json repeats these lines.  No workload is
# dominated by the per-time solve (Babai's Python loop of short numpy calls): on
# a shared 2-vCPU host the speed of that loop drifts so much between minutes
# that ten runs of it spread by up to 0.4 of their median, past any bound.
# bound_at, Babai and greedy still run, and are traced, in plateau and bound.
WORKLOADS = {
    "lattice-ladder": "plateau at D=135 with lll+babai+greedy, then the cvp ladder on "
                      "three D=8 instances: LLL and the brute-force box dominate",
    "q-bound": "bound on the (20,20) block, D=627, 41 times: the complex pairs x D array "
               "behind Q sets time and peak memory; no LLL",
    "syk-spectra": "qspec and stats on SYK chaotic4, n=14: the only workload that "
                   "touches syk and spectral; dense monomial products dominate",
}


@dataclass(frozen=True)
class Command:
    label: str
    kind: str  # evolat subcommand
    config: dict
    expect: dict  # what the checks need to know about this command

    def argv(self, inputs: Path, out: Path) -> list:
        return [self.kind, "--config", str(inputs / f"{self.label}.json"), "--out", str(out)]


def _resonant(n: int) -> dict:
    return {"family": "resonant", "kind": "truncated", "n_particles": n, "total_level": n}


def _sweep(n: int, chain: str, count: int, start: float) -> dict:
    return {
        "model": _resonant(n),
        "threshold": 4,
        "mu": "dim",
        "chain": chain,
        "times": {"start": start, "stop": start + WINDOW, "count": count},
        "window": [start, start + WINDOW],
    }


def commands(workload: str, seed: int) -> list:
    """The command sequence of one pass of a workload, built from the seed."""
    rng = np.random.default_rng(seed)
    start = float(rng.uniform(20000.0, 21000.0))
    syk_seed = int(rng.integers(0, 2**31 - 1))
    instances = []
    for _ in range(CVP_COUNT):
        b = rng.standard_normal((CVP_DIM, CVP_DIM))
        instances.append((b, b @ rng.uniform(-4.0, 4.0, size=CVP_DIM)))

    if workload == "lattice-ladder":
        cmds = [Command("plateau", "plateau", _sweep(14, "lll+babai+greedy", 41, start),
                        {"dim": 135, "count": 41})]
        for i, (b, t) in enumerate(instances):
            cfg = {"basis": b.T.tolist(), "target": t.tolist(), "radius": CVP_RADIUS}
            cmds.append(Command(f"cvp{i}", "cvp", cfg, {}))
        return cmds
    if workload == "q-bound":
        return [Command("bound", "bound", _sweep(20, "babai+greedy", 41, start),
                        {"dim": 627, "count": 41})]
    if workload == "syk-spectra":
        model = {"family": "syk", "variant": "chaotic4", "n_modes": 14, "seed": syk_seed}
        return [
            Command("qspec", "qspec", {"model": model, "threshold": 4}, {"dim": 128}),
            Command("stats", "stats", {"model": model}, {"dim": 128}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(cmds: list, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for c in cmds:
        (inputs / f"{c.label}.json").write_text(json.dumps(c.config))


# ---------------------------------------------------------------- checks

class CheckError(Exception):
    """An output broke an invariant or disagrees with the pinned reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, scale: float | None = None) -> bool:
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= RTOL * scale


def _csv(path: Path, header: str) -> list:
    lines = path.read_text().splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# evolat schema="),
             f"{path.name}: missing schema line")
    _require(lines[1] == header, f"{path.name}: column header {lines[1]!r}")
    return [line.split(",") for line in lines[2:]]


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_bound(cmd: Command, out: Path) -> dict:
    rows = _csv(out / "bound.csv", "t,c_bound,method")
    tc = cmd.config["times"]
    grid = np.linspace(tc["start"], tc["stop"], tc["count"])
    _require(len(rows) == grid.size, f"bound.csv has {len(rows)} rows for {grid.size} times")
    dim = cmd.expect["dim"]
    ceiling = math.pi * dim  # pi * sqrt(mu * D) with mu = D
    values = []
    for (t, v, method), g in zip(rows, grid):
        t, v = float(t), float(v)
        _require(_close(t, g), f"bound.csv time {t!r} is not grid time {g!r}")
        _require(0.0 <= v <= ceiling, f"bound {v!r} at t={t!r} outside [0, {ceiling!r}]")
        _require(method == cmd.config["chain"], f"bound.csv method {method!r}")
        values.append(v)
    meta = _json(out / "bound_meta.json")
    _require(meta["dim"] == dim, f"bound_meta dim {meta['dim']} != {dim}")
    _require(_close(meta["max_value"], max(values)), "bound_meta max_value != max of trace")
    return {"values": values}


def _check_plateau(cmd: Command, out: Path) -> dict:
    meta = _json(out / "plateau.json")
    ceiling = math.pi * cmd.expect["dim"]
    _require(meta["count"] == cmd.expect["count"], f"plateau count {meta['count']}")
    _require(0.0 < meta["mean"] <= ceiling, f"plateau mean {meta['mean']!r} outside (0, {ceiling!r}]")
    _require(meta["variance"] >= 0.0, "negative plateau variance")
    _require(meta["estimate"] > 0.0, "non-positive plateau estimate")
    _require(_close(meta["ratio"], meta["mean"] / meta["estimate"]), "plateau ratio != mean/estimate")
    return {k: meta[k] for k in ("mean", "variance", "estimate")}


def _check_cvp(cmd: Command, out: Path) -> dict:
    basis = np.array(cmd.config["basis"], dtype=float).T
    target = np.array(cmd.config["target"], dtype=float)
    dist = {}
    for m in _json(out / "cvp.json")["methods"]:
        c = np.array(m["coeffs"], dtype=float)
        _require(c.shape == target.shape and np.all(c == np.round(c)),
                 f"cvp {m['method']}: coefficients are not an integer vector")
        own = float(np.linalg.norm(basis @ c - target))
        _require(_close(m["distance"], own, max(own, 1.0)),
                 f"cvp {m['method']}: distance {m['distance']!r} but |Bc - t| = {own!r}")
        dist[m["method"]] = m["distance"]
    _require("babai" in dist, "cvp ladder has no babai rung")
    stronger = [d for name, d in dist.items() if name not in ("naive", "babai")]
    _require(bool(stronger) and min(stronger) <= dist["babai"] * (1.0 + RTOL),
             f"cvp: no rung beyond babai reaches babai's {dist['babai']!r}")
    return {"distances": dist}


def _check_qspec(cmd: Command, out: Path) -> dict:
    rows = _csv(out / "qspec.csv", "index,eigenvalue")
    dim = cmd.expect["dim"]
    _require([int(r[0]) for r in rows] == list(range(dim)), f"qspec.csv needs indices 0..{dim - 1}")
    ev = [float(r[1]) for r in rows]
    _require(all(-RTOL <= v <= 1.0 + RTOL for v in ev), "Q eigenvalue outside [0, 1]")
    _require(all(a <= b for a, b in zip(ev, ev[1:])), "Q eigenvalues not ascending")
    _require(_json(out / "qspec_meta.json")["threshold"] == cmd.config["threshold"],
             "qspec_meta threshold")
    return {"eigenvalues": ev}


def _check_stats(cmd: Command, out: Path) -> dict:
    meta = _json(out / "stats.json")
    dim = cmd.expect["dim"]
    delta = int(round(math.sqrt(dim)))
    _require(meta["levels"] == dim, f"stats levels {meta['levels']}")
    _require(meta["spacing_count"] == dim - 2 * delta - 1, f"spacing count {meta['spacing_count']}")
    ks_w, ks_p = meta["ks_wigner"], meta["ks_poisson"]
    _require(0.0 <= ks_w <= 1.0 and 0.0 <= ks_p <= 1.0, "KS distance outside [0, 1]")
    _require(meta["closer"] == ("wigner" if ks_w < ks_p else "poisson"), "stats closer label")
    counts = [int(r[1]) for r in _csv(out / "spacings.csv", "s,count,wigner_ref,poisson_ref")]
    _require(min(counts) >= 0 and sum(counts) <= meta["spacing_count"], "histogram counts")
    return {"ks_wigner": ks_w, "ks_poisson": ks_p, "counts": counts}


_CHECKS = {
    "bound": _check_bound,
    "plateau": _check_plateau,
    "cvp": _check_cvp,
    "qspec": _check_qspec,
    "stats": _check_stats,
}


def _compare(label: str, got: dict, ref: dict) -> None:
    """Numbers within RTOL of the pinned ones; integers exactly."""
    for key, want in ref.items():
        have = got[key]
        if key == "distances":
            # the ladder's rungs may change; its best point may not get worse
            _require(min(have.values()) <= min(want.values()) * (1.0 + RTOL),
                     f"{label}: best cvp distance {min(have.values())!r} worse than "
                     f"reference {min(want.values())!r}")
            for name in set(have) & set(want):
                _require(_close(have[name], want[name]),
                         f"{label}: {name} distance {have[name]!r} != reference {want[name]!r}")
        elif isinstance(want, list):
            _require(len(have) == len(want), f"{label}: {key} has {len(have)} entries, "
                                             f"reference {len(want)}")
            scale = max(abs(w) for w in want) if key == "eigenvalues" else None
            for i, (h, w) in enumerate(zip(have, want)):
                ok = h == w if isinstance(w, int) else _close(h, w, scale)
                _require(ok, f"{label}: {key}[{i}] = {h!r}, reference {w!r}")
        else:
            _require(_close(have, want), f"{label}: {key} = {have!r}, reference {want!r}")


def load_refs(workload: str, seed: int) -> dict | None:
    """Pinned outputs per command label, or None when the seed has none."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFS.read_text())[workload]


def check(cmd: Command, out: Path, refs: dict | None) -> dict:
    """Check one command's outputs; return the numbers pinned in refs.json."""
    got = _CHECKS[cmd.kind](cmd, out)
    if refs is not None:
        _compare(cmd.label, got, refs[cmd.label])
    return got
