"""Spans around the public functions of each evolat layer, and the per-layer
metrics computed from them.

A wrapper records (name, start, end, parent, run id) for each call, where the
run id is the index of the CLI command that caused it.  The arguments and
results that the counters need are kept by reference; dimensions and
counters are computed after the commands have finished, so they add no time
to any span.  A layer's self time is its span time minus the time its child
spans cover.  Calls are assumed to come from one thread: the sweep's
`--threads` pool is never used by the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np


def _keep_result(args, kwargs, result):
    return args, kwargs, result


def _keep_args(args, kwargs, result):
    return args, kwargs, None


def _keep_shape(args, kwargs, result):
    return args, kwargs, np.shape(result)


# (module, attribute or Class.method, span name, what the counters keep).
# Modules and functions that a version of evolat lacks are skipped.
TARGETS = [
    ("linalg", "eigendecompose", "linalg.eigendecompose", _keep_args),
    ("resonant", "build_block_hamiltonian", "resonant.build_block_hamiltonian", _keep_args),
    ("resonant", "ResonantClassifier.local_diagonals", "resonant.local_diagonals", _keep_shape),
    ("syk", "chaotic_syk", "syk.chaotic_syk", _keep_args),
    ("syk", "MonomialClassifier.local_diagonals", "syk.local_diagonals", _keep_shape),
    ("engine", "nonlocality_matrix", "engine.nonlocality_matrix", _keep_args),
    ("engine", "ComplexityPipeline.__init__", "engine.pipeline_init", _keep_args),
    ("engine", "ComplexityPipeline.bound_at", "engine.bound_at", _keep_args),
    ("lattice", "lll_reduce", "lattice.lll", _keep_result),
    ("lattice", "lll_reduce_with_transform", "lattice.lll", _keep_result),
    ("lattice", "brute_force_cvp", "lattice.brute_force", _keep_args),
    ("lattice", "method_ladder", "lattice.method_ladder", _keep_args),
    ("lattice", "babai_nearest_plane", "lattice.babai", _keep_args),
    ("lattice", "greedy_descent", "lattice.greedy", _keep_result),
    ("lattice", "LatticeBasis.__post_init__", "lattice.lattice_basis", _keep_args),
    ("lattice", "gram_schmidt", "lattice.gram_schmidt", _keep_args),
    ("spectral", "unfold", "spectral.unfold", _keep_args),
    ("spectral", "ks_distance", "spectral.ks_distance", _keep_args),
]

# Time metrics are self times summed over calls; "calls" counts calls that
# were not made from a span of the same name.
SELF_TIMES = {
    "linalg.eigendecompose_s": "linalg.eigendecompose",
    "resonant.build_block_hamiltonian_s": "resonant.build_block_hamiltonian",
    "resonant.local_diagonals_s": "resonant.local_diagonals",
    "syk.chaotic_syk_s": "syk.chaotic_syk",
    "syk.local_diagonals_s": "syk.local_diagonals",
    "engine.nonlocality_matrix_self_s": "engine.nonlocality_matrix",
    "engine.pipeline_init_self_s": "engine.pipeline_init",
    "engine.bound_at_self_s": "engine.bound_at",
    "lattice.lll_s": "lattice.lll",
    "lattice.brute_force_s": "lattice.brute_force",
    "lattice.method_ladder_s": "lattice.method_ladder",
    "lattice.babai_s": "lattice.babai",
    "lattice.greedy_s": "lattice.greedy",
    "lattice.lattice_basis_s": "lattice.lattice_basis",
    "lattice.gram_schmidt_s": "lattice.gram_schmidt",
    "spectral.unfold_s": "spectral.unfold",
    "spectral.ks_distance_s": "spectral.ks_distance",
}
CALLS = {
    "linalg.eigendecompose_calls": "linalg.eigendecompose",
    "engine.bound_at_calls": "engine.bound_at",
    "lattice.lll_calls": "lattice.lll",
    "lattice.babai_calls": "lattice.babai",
    "lattice.greedy_calls": "lattice.greedy",
    "lattice.gram_schmidt_calls": "lattice.gram_schmidt",
}

# Where each workload should spend most of its traced time.
FOCUS = {
    "lattice-ladder": ("lattice.lll_s", "lattice.brute_force_s"),
    "q-bound": ("engine.nonlocality_matrix_self_s", "resonant.local_diagonals_s"),
    "syk-spectra": ("syk.chaotic_syk_s", "syk.local_diagonals_s"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id, kept]
        self.run = 0
        self._open = []

    def wrap(self, name: str, fn, keep=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep is not None:
                rec[5] = keep(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every name it is looked up from: module
        attributes in all loaded evolat modules that hold the same object,
        and the class attribute for methods."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "evolat" or n.startswith("evolat.")]
        for mod_name, attr, span, keep in TARGETS:
            try:
                owner = importlib.import_module(f"evolat.{mod_name}")
            except ImportError:
                continue
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(span, original, keep)
            if cls_path:
                setattr(owner, fn_name, wrapped)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def dims(self) -> list:
        """Per span, the `dim` of the first argument (or of its basis) that
        has one, else None."""
        out = []
        for *_, kept in self.spans:
            dim = None
            for a in kept[0] if kept is not None else ():
                for obj in (a, getattr(a, "basis", None)):
                    if isinstance(getattr(obj, "dim", None), int):
                        dim = obj.dim
                        break
                if dim is not None:
                    break
            out.append(dim)
        return out

    def metrics(self, workload: str, wall: float, lattice_module) -> dict:
        """Per-layer metrics; `wall` is the traced run's command time, timed
        outside the spans."""
        spans = self.spans
        selfs = self.self_times()
        names = [s[0] for s in spans]
        outer = [s[3] < 0 or names[s[3]] != s[0] for s in spans]
        m = {}
        for metric, name in SELF_TIMES.items():
            m[metric] = sum(t for t, n in zip(selfs, names) if n == name)
        for metric, name in CALLS.items():
            m[metric] = sum(1 for n, o in zip(names, outer) if n == name and o)

        m["cli.self_s"] = sum(t for t, n in zip(selfs, names) if n == "cli")

        bound_at = sorted(s[2] - s[1] for s, o in zip(spans, outer)
                          if s[0] == "engine.bound_at" and o)
        m["engine.bound_at_p50_us"] = _percentile(bound_at, 0.50) * 1e6
        m["engine.bound_at_p99_us"] = _percentile(bound_at, 0.99) * 1e6

        pairs = z_bytes = monomials = 0
        for name, _, _, _, _, kept in spans:
            if name == "resonant.local_diagonals" and kept is not None and len(kept[2]) == 2:
                pairs += kept[2][0]
                z_bytes += kept[2][0] * kept[2][1] * 16  # complex128
            elif name == "syk.local_diagonals" and kept is not None and kept[2]:
                monomials += kept[2][0]
        m["resonant.local_pairs"] = pairs
        m["resonant.z_bytes"] = z_bytes
        m["syk.monomials"] = monomials

        # LLL counters from the innermost span, the one that did the work
        has_lll_child = {s[3] for s in spans if s[0] == "lattice.lll" and s[3] >= 0
                         and names[s[3]] == "lattice.lll"}
        before = after = 0.0
        u_max = 0
        for i, (name, _, _, _, _, kept) in enumerate(spans):
            if name != "lattice.lll" or i in has_lll_child or kept is None:
                continue
            args, _, result = kept
            reduced, u = result if isinstance(result, tuple) else (result, None)
            before += _star_sq_sum(args[0].columns)
            after += _star_sq_sum(reduced.columns)
            if u is not None:
                u_max = max(u_max, int(np.max(np.abs(np.asarray(u, dtype=object)))))
        m["lattice.lll_star_sq_ratio"] = after / before if before else 0.0
        m["lattice.lll_u_max"] = u_max

        points = 0
        default_radius = getattr(lattice_module, "BRUTE_FORCE_RADIUS_DEFAULT", None)
        for name, _, _, _, _, kept in spans:
            if name == "lattice.brute_force" and kept is not None:
                args, kwargs, _ = kept
                radius = kwargs.get("radius", args[1] if len(args) > 1 else default_radius)
                points += (2 * radius + 1) ** args[0].basis.dim
        m["lattice.brute_force_points"] = points

        greedy = [s[5] for s, o in zip(spans, outer)
                  if s[0] == "lattice.greedy" and o and s[5] is not None]
        improved = sum(1 for args, _, result in greedy
                       if not np.array_equal(np.asarray(args[1]), np.asarray(result)))
        m["lattice.greedy_improved_ratio"] = improved / len(greedy) if greedy else 0.0

        m["trace.wall_s"] = wall
        m["trace.accounted_ratio"] = (sum(m[k] for k in SELF_TIMES) + m["cli.self_s"]) / wall
        m["trace.focus_share"] = sum(m[k] for k in FOCUS[workload]) / wall
        return m


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(np.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def _star_sq_sum(columns: np.ndarray) -> float:
    """Sum of |b*_i|^2 of a basis, the squared diagonal of its R factor."""
    r = np.linalg.qr(np.asarray(columns, dtype=float), mode="r")
    return float(np.sum(np.diag(r) ** 2))
