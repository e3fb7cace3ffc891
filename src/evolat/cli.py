"""Command line front end.

The first argument names one of COMMANDS, which `evolat --help` lists.

Configurations are JSON files; a handful of named presets cover the standard
desk-scale runs.  Outputs are CSV/JSON with a schema line and the hash of the
resolved configuration, written atomically; a fixed config and seed
reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, engine, lattice, linalg, resonant, spectral, syk

SCHEMA = 1


# ---------------------------------------------------------------- presets

PRESETS = {
    # bi-invariant plateau of a featureless spectrum
    "biinv-plateau-desk": {
        "model": {"family": "synthetic", "kind": "uniform", "dim": 1000, "seed": 11},
        "chain": "biinvariant",
        "times": {"start": 20000.0, "stop": 24000.0, "count": 201},
        "window": [20000.0, 24000.0],
    },
    # nonlocality spectra of the Majorana models
    "syk-free-qspec-desk": {
        "model": {"family": "syk", "variant": "free", "n_modes": 12, "seed": 7},
        "threshold": 2,
    },
    "syk-integrable-qspec-desk": {
        "model": {
            "family": "syk", "variant": "integrable", "n_modes": 12,
            "epsilon": 1.0, "seed": 7,
        },
        "threshold": 4,
    },
    # truncated vs random separation, one block
    "resonant-truncated-bound-desk": {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 12, "total_level": 12},
        "threshold": 4,
        "mu": "dim",
        "times": {"start": 20000.0, "stop": 24000.0, "count": 41},
        "window": [20000.0, 24000.0],
    },
    "resonant-random-bound-desk": {
        "model": {"family": "resonant", "kind": "random",
                  "n_particles": 12, "total_level": 12, "seed": 5},
        "threshold": 4,
        "mu": "dim",
        "times": {"start": 20000.0, "stop": 24000.0, "count": 41},
        "window": [20000.0, 24000.0],
    },
    # level statistics references
    "stats-goe-desk": {
        "model": {"family": "synthetic", "kind": "goe", "dim": 1000, "seed": 3},
    },
    "stats-truncated-desk": {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 12, "total_level": 12},
    },
    # the paper's (30,30) block, D = 5604: 12-15 min and a 1,011 MiB peak on 2 cores
    "resonant-truncated-bound-full": {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 30, "total_level": 30},
        "chain": "babai+greedy",
        "threshold": 4,
        "mu": "dim",
        "times": {"start": 50000.0, "stop": 54000.0, "count": 41},
        "window": [50000.0, 54000.0],
    },
}


# ---------------------------------------------------------------- plumbing

def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _fmt(x) -> str:
    return repr(float(x))


def _csv_text(cfg_hash: str, kind: str, header: str, rows) -> str:
    lines = [f"# evolat schema={SCHEMA} kind={kind} config={cfg_hash} version={__version__}"]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _meta(cfg: dict, **extra) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        **extra,
    }


# ---------------------------------------------------------------- models

@dataclass(frozen=True)
class Model:
    """A model before any dim x dim array exists: functions that build H and
    map a threshold to a classifier, or in their place a synthetic model's
    normalized energies.  extras maps a file name to its text's renderer."""

    name: str
    dim: int
    hamiltonian: Callable[[], linalg.HermitianMatrix] | None = None
    classifier: Callable[[int], engine.LocalityClassifier] | None = None
    extras: dict = field(default_factory=dict)
    energies: np.ndarray | None = None


def _build_syk(mc: dict) -> Model:
    n = mc["n_modes"]
    variant = mc["variant"]
    try:
        eps = float(mc.get("epsilon", 1.0))
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"syk epsilon: {exc}") from None
    if not np.isfinite(eps):
        raise SystemExit(f"syk epsilon must be finite, got {eps}")
    rng = np.random.default_rng(mc.get("seed", 0))
    try:
        rep = syk.build_clifford(n)
        syk.check_dense(rep)
    except ValueError as exc:
        raise SystemExit(f"syk n_modes: {exc}") from None
    j2 = syk.sample_quadratic_couplings(n, rng)
    if variant == "free":
        build = partial(syk.free_syk, rep, j2)
    elif variant == "integrable":
        omegas, frame = syk.antisymmetric_canonical_form(j2)
        pair = syk.sample_pair_couplings(n, rng)
        build = partial(syk.integrable_syk, rep, omegas, pair, eps, frame=frame)
    elif variant in ("chaotic4", "chaotic3"):
        body = 4 if variant == "chaotic4" else 3
        many = syk.sample_many_body_couplings(n, body, rng)
        build = partial(syk.chaotic_syk, rep, j2, many, eps, body=body)
    else:
        raise SystemExit(f"unknown syk variant {variant!r}")
    return Model(f"syk-{variant}-n{n}", rep.dim, build, lambda k: syk.MonomialClassifier(rep, k))


def _build_resonant(mc: dict) -> Model:
    n, m = mc["n_particles"], mc["total_level"]
    kind = mc["kind"]
    try:
        scheme = resonant.CouplingScheme(
            kind,
            alpha=float(mc.get("alpha", 1.0)) if kind == "alpha" else 0.0,
            delta_coeff=float(mc.get("delta_coeff", 1.0)) if kind == "delta" else 0.0,
            seed=mc.get("seed", 0) if kind == "random" else None,
        )
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"resonant coupling: {exc}") from None
    for key in ("alpha", "delta_coeff"):
        if not np.isfinite(getattr(scheme, key)):
            raise SystemExit(f"resonant {key} must be finite, got {getattr(scheme, key)}")
    try:
        block = resonant.enumerate_block(n, m)
    except ValueError as exc:
        raise SystemExit(f"resonant block: {exc}") from None
    if block.dim < 2:
        raise SystemExit(f"resonant block ({n},{m}) holds D = {block.dim} state; "
                         "a model needs at least 2")
    return Model(f"resonant-{kind}-{n}-{m}", block.dim,
                 partial(resonant.build_block_hamiltonian, block, scheme),
                 lambda k: resonant.ResonantClassifier(block, k),
                 {"block_states.csv": lambda: resonant.block_states_csv(block)})


def _build_synthetic(mc: dict) -> Model:
    dim = mc["dim"]
    if dim < 2:
        raise SystemExit(f"a synthetic model needs dim >= 2, got {dim}")
    rng = np.random.default_rng(mc.get("seed", 0))
    kind = mc.get("kind", "uniform")
    if kind == "uniform":
        energies = np.sort(rng.uniform(0.0, 1.0, size=dim))
    elif kind == "goe":
        a = rng.normal(size=(dim, dim))
        energies = np.linalg.eigvalsh((a + a.T) / np.sqrt(8.0 * dim))
    else:
        raise SystemExit(f"unknown synthetic kind {kind!r}")
    return Model(f"synthetic-{kind}-{dim}", dim, energies=linalg.normalize_energies(energies))


def _build_model(cfg: dict) -> Model:
    mc = cfg.get("model")
    if not isinstance(mc, dict) or "family" not in mc:
        raise SystemExit("config needs a model object with a family field")
    builders = {
        "syk": (_build_syk, ("variant", "n_modes")),
        "resonant": (_build_resonant, ("kind", "n_particles", "total_level")),
        "synthetic": (_build_synthetic, ("dim",)),
    }
    if mc["family"] not in builders:
        raise SystemExit(f"unknown model family {mc['family']!r}")
    builder, keys = builders[mc["family"]]
    missing = [key for key in keys if key not in mc]
    if missing:
        raise SystemExit(f"a {mc['family']} model needs {', '.join(missing)}")
    for key in mc.keys() & {"n_particles", "total_level", "n_modes", "dim", "seed"}:
        if type(mc[key]) is not int or mc[key] < 0:
            raise SystemExit(f"model {key} must be a non-negative integer, got {mc[key]!r}")
    return builder(mc)


def _family(cfg: dict):
    mc = cfg.get("model")
    return mc.get("family") if isinstance(mc, dict) else None


def _default_threshold(cfg: dict) -> int:
    return 4 if _family(cfg) == "syk" and cfg["model"].get("variant") != "free" else 2


def _metric_settings(cfg: dict, dim: int = 1) -> tuple:
    """(mu, nu, threshold) at dimension dim; dim = 1 checks them up front."""
    mu, nu = cfg.get("mu", 1.0), cfg.get("nu", 0.0)
    family = _family(cfg)
    syk_modes = cfg["model"].get("n_modes") if family == "syk" else None
    # SYK locality counts Majorana monomials of weight 1 to n_modes; an
    # n_modes that is not a positive integer is left for _build_model to name
    lo, hi = (1, syk_modes) if type(syk_modes) is int and syk_modes > 0 else (0, np.inf)
    try:
        mu = float(dim) if mu == "dim" else float(mu)
        nu = engine.SU_NU_FACTOR * mu if nu == "su" else float(nu)
        thr = cfg.get("threshold", _default_threshold(cfg))
        if type(thr) is not int:  # int() would truncate 2.7 and take True
            raise TypeError(f"threshold must be an integer, got {thr!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise SystemExit(f"mu, nu, threshold: {exc}") from None
    if not (1.0 <= mu < np.inf and 0.0 <= nu < np.inf and lo <= thr <= hi):
        raise SystemExit(f"need finite mu >= 1 and nu >= 0, threshold in [{lo}, {hi}]; "
                         f"got {mu}, {nu}, {thr}")
    if family == "synthetic" and (mu != 1.0 or cfg.get("mu") == "dim"):
        raise SystemExit("a synthetic model has no locality structure; use mu = 1")
    return mu, nu, thr


def _spectrum(model: Model, thr: int | None = None) -> tuple:
    """The stage after the model in bound, plateau, qspec and stats:
    (normalized energies, Q at threshold thr or None).  H is handed to
    eigendecompose as a temporary, so it is freed inside, before LAPACK
    runs (from CPython 3.11; 3.10 keeps it until the call returns), and
    the eigenvectors are freed when this returns."""
    if model.hamiltonian is None:
        return model.energies, None
    spec = linalg.normalize_spectrum(linalg.eigendecompose(model.hamiltonian()))
    q = None if thr is None else engine.nonlocality_matrix(spec, model.classifier(thr))
    return spec.energies, q


def _metric(model: Model, mu: float, nu: float, thr: int) -> tuple:
    """(energies, G = I + (mu - 1) Q + nu 11^T).  Q is built only for mu > 1,
    and is freed when this returns, before the pipeline factors G."""
    energies, q = _spectrum(model, None if mu == 1.0 else thr)
    return energies, engine.ComplexityMetric(mu, nu, q).matrix(model.dim)


def _times(cfg: dict) -> np.ndarray:
    """The time grid, checked before any model is built."""
    tc = cfg.get("times")
    if tc is None:
        raise SystemExit("config needs a times object (start/stop/count or grid)")
    try:
        if "grid" in tc:
            times = np.asarray(tc["grid"], dtype=float)
        else:
            count = tc["count"]
            if type(count) is not int:  # int() would truncate 20.9 and take True
                raise TypeError(f"count must be an integer, got {count!r}")
            if count < 1:
                raise SystemExit(f"times: count must be at least 1, got {count}")
            times = np.linspace(float(tc["start"]), float(tc["stop"]), count)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"times: {exc!r}") from None
    if times.ndim != 1 or times.size == 0:
        raise SystemExit(f"times: the grid must be a non-empty list, got shape {times.shape}")
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0):
        raise SystemExit("times: the grid must be finite and strictly increasing")
    return times


def _load_config(args) -> dict:
    if args.preset and args.config:
        raise SystemExit("give either --preset or --config, not both")
    if args.preset:
        if args.preset not in PRESETS:
            raise SystemExit(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg = json.loads(json.dumps(PRESETS[args.preset]))
    elif args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise SystemExit(f"--config {args.config}: {exc.strerror}") from None
        except ValueError as exc:  # not JSON, or not text
            raise SystemExit(f"--config {args.config}: not JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise SystemExit(f"--config {args.config}: the top level must be a JSON object")
    else:
        raise SystemExit("a --config file or --preset name is required")
    if args.seed is not None:
        mc = cfg.get("model")
        if not isinstance(mc, dict):
            raise SystemExit("--seed sets the model seed, but this config has no model")
        if mc.get("family") == "resonant" and mc.get("kind") != "random":
            raise SystemExit(f"--seed: resonant kind {mc.get('kind')!r} draws no random couplings")
        mc["seed"] = args.seed
    return cfg


# ---------------------------------------------------------------- commands

def cmd_gen(cfg: dict, outdir: Path) -> int:
    model = _build_model(cfg)
    meta = _meta(cfg, model=model.name, dim=model.dim, normalized=True)
    energies = model.energies
    if model.hamiltonian is not None:
        h = model.hamiltonian()
        energies = linalg.normalize_spectrum(linalg.eigendecompose(h)).energies
        path = outdir / "hamiltonian.npy"
        entries = h.entries
        if np.iscomplexobj(entries) and not entries.imag.any():
            entries = entries.real
        buf = io.BytesIO()
        np.save(buf, entries)
        linalg.atomic_write(path, buf.getbuffer())
        meta["hamiltonian_file"] = path.name
        print(f"wrote {path}")
    linalg.atomic_write(outdir / "energies.json", _json_text({"energies": energies.tolist()}))
    print(f"wrote {outdir / 'energies.json'}")
    for name, render in model.extras.items():
        linalg.atomic_write(outdir / name, render())
        print(f"wrote {outdir / name}")
    linalg.atomic_write(outdir / "gen_meta.json", _json_text(meta))
    print(f"wrote {outdir / 'gen_meta.json'}")
    return 0


def _sweep(cfg: dict, times: np.ndarray, outdir: Path):
    """Build the model, solve the time grid, write bound.csv and bound_meta.json."""
    mu, nu, _ = _metric_settings(cfg)
    chain = cfg.get("chain", engine.DEFAULT_CHAIN)
    try:
        chain = None if chain == "biinvariant" else engine.SolverChain.parse(chain)
    except (AttributeError, ValueError) as exc:
        raise SystemExit(f"chain: {exc}") from None
    if chain is None and (mu != 1.0 or cfg.get("mu") == "dim" or nu != 0.0):
        raise SystemExit("chain: biinvariant is the closed form for mu = 1 and nu = 0")
    model = _build_model(cfg)
    mu, nu, thr = _metric_settings(cfg, model.dim)
    if chain is None:
        pipeline, trace = None, engine.bi_invariant_trace(_spectrum(model)[0], times)
    else:
        pipeline = engine.ComplexityPipeline(*_metric(model, mu, nu, thr), chain)
        trace = pipeline.sweep(times)
    rows = [f"{_fmt(t)},{_fmt(v)},{trace.method}" for t, v in zip(trace.times, trace.values)]
    text = _csv_text(_config_hash(cfg), "trace", "t,c_bound,method", rows)
    linalg.atomic_write(outdir / "bound.csv", text)
    meta = _meta(
        cfg,
        model=model.name,
        dim=model.dim,
        method=trace.method,
        ceiling=engine.complexity_ceiling(mu, model.dim),
        max_value=float(trace.values.max()),
    )
    linalg.atomic_write(outdir / "bound_meta.json", _json_text(meta))
    print(f"wrote {outdir / 'bound.csv'} ({trace.values.size} samples, method {trace.method})")
    return model.name, model.dim, trace, pipeline


def cmd_bound(cfg: dict, outdir: Path) -> int:
    _sweep(cfg, _times(cfg), outdir)
    return 0


def cmd_qspec(cfg: dict, outdir: Path) -> int:
    thr = _metric_settings(cfg)[2]
    if _family(cfg) == "synthetic":
        raise SystemExit("a synthetic model has no locality structure, so no Q spectrum")
    model = _build_model(cfg)
    energies, q = _spectrum(model, thr)
    h = _config_hash(cfg)
    rows = [f"{i},{_fmt(v)}" for i, v in enumerate(q.eigenvalues)]
    linalg.atomic_write(outdir / "qspec.csv", _csv_text(h, "qspec", "index,eigenvalue", rows))
    meta = _meta(
        cfg,
        model=model.name,
        threshold=thr,
        null_residual=q.null_residual(energies),
        null_count=int(np.sum(q.eigenvalues < 1e-8)),
    )
    linalg.atomic_write(outdir / "qspec_meta.json", _json_text(meta))
    print(f"wrote {outdir / 'qspec.csv'} ({q.dim} eigenvalues, threshold {thr})")
    return 0


def cmd_stats(cfg: dict, outdir: Path) -> int:
    model = _build_model(cfg)
    try:
        spacings = spectral.unfold(_spectrum(model)[0])
    except ValueError as exc:
        raise SystemExit(f"stats: {exc}") from None
    h = _config_hash(cfg)
    linalg.atomic_write(
        outdir / "spacings.csv",
        _csv_text(h, "spacings", "s,count,wigner_ref,poisson_ref",
                  spectral.histogram_rows(spacings)),
    )
    ks_w = spectral.ks_distance(spacings, "wigner")
    ks_p = spectral.ks_distance(spacings, "poisson")
    meta = _meta(
        cfg,
        model=model.name,
        levels=model.dim,
        spacing_count=spacings.values.size,
        ks_wigner=ks_w,
        ks_poisson=ks_p,
        closer="wigner" if ks_w < ks_p else "poisson",
    )
    linalg.atomic_write(outdir / "stats.json", _json_text(meta))
    print(f"wrote {outdir / 'stats.json'} (KS wigner {ks_w:.4f}, poisson {ks_p:.4f})")
    return 0


def cmd_plateau(cfg: dict, outdir: Path) -> int:
    times = _times(cfg)
    try:
        window = tuple(cfg.get("window", (times[0], times[-1])))
        engine.plateau_window(times, window)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"window: {exc}") from None
    name, dim, trace, pipeline = _sweep(cfg, times, outdir)
    stats = engine.plateau_stats(trace, window)
    if pipeline is not None:
        estimate = lattice.plateau_estimate(pipeline.lattice)
    else:
        estimate = float(np.pi * np.sqrt(dim / 3.0))
    meta = _meta(
        cfg,
        model=name,
        window=list(window),
        mean=stats.mean,
        variance=stats.variance,
        count=stats.count,
        estimate=estimate,
        ratio=stats.mean / estimate,
    )
    linalg.atomic_write(outdir / "plateau.json", _json_text(meta))
    print(f"wrote {outdir / 'plateau.json'} (mean {stats.mean:.4f}, estimate {estimate:.4f})")
    return 0


def cmd_cvp(cfg: dict, outdir: Path) -> int:
    if "basis" not in cfg or "target" not in cfg:
        raise SystemExit("cvp config must hold a basis (list of columns) and a target")
    try:
        basis = np.array(cfg["basis"], dtype=float).T
        target = np.array(cfg["target"], dtype=float)
        instance = lattice.TriangularLattice.from_columns(basis, target)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SystemExit(f"cvp instance: {exc}") from None
    entries = lattice.method_ladder(instance)
    # distances measured in the input basis rather than in its triangular frame
    dist = {e.method: float(np.linalg.norm(basis @ e.coeffs.astype(float) - target))
            for e in entries}
    meta = _meta(
        cfg,
        dim=target.size,
        methods=[
            {"method": e.method, "coeffs": e.coeffs.tolist(), "distance": dist[e.method]}
            for e in entries
        ],
    )
    linalg.atomic_write(outdir / "cvp.json", _json_text(meta))
    # wall times vary from run to run, so they stay out of cvp.json
    timing = {
        "config_hash": meta["config_hash"],
        "methods": [{"method": e.method, "wall_time_s": e.seconds} for e in entries],
    }
    linalg.atomic_write(outdir / "cvp_timing.json", _json_text(timing))
    best = min(dist, key=dist.get)
    print(f"wrote {outdir / 'cvp.json'} (best {best}: {dist[best]:.6f})")
    return 0


COMMANDS = {
    "gen": (cmd_gen, "build a model, store Hamiltonian and spectrum"),
    "bound": (cmd_bound, "complexity-bound trace over a time grid"),
    "qspec": (cmd_qspec, "eigenvalues of the nonlocality matrix"),
    "stats": (cmd_stats, "level-spacing statistics and KS distances"),
    "plateau": (cmd_plateau, "bound, then the late-time plateau vs Gram-Schmidt estimate"),
    "cvp": (cmd_cvp, "solver ladder on a stored lattice instance"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evolat",
        description="complexity bounds for quantum evolution via lattice optimization",
        epilog="commands:\n" + "\n".join(f"  {name:9s}{text}"
                                          for name, (_, text) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run (see commands below)")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the model seed")
    args = parser.parse_args(argv)
    cfg = _load_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return COMMANDS[args.command][0](cfg, outdir)


if __name__ == "__main__":
    sys.exit(main())
