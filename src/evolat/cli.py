"""Command line front end.

Subcommands: gen (build a model and store its spectrum), bound (complexity
trace over a time grid), qspec (nonlocality-matrix spectrum), stats (level
spacing statistics), plateau (the bound trace plus its late-time mean against
the Gram-Schmidt estimate), cvp (solver ladder on a stored instance).

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
from pathlib import Path

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

class ModelBundle:
    def __init__(self, name, spectrum, hamiltonian=None, classifier=None, extras=None):
        self.name = name
        self.spectrum = spectrum  # normalized
        self.hamiltonian = hamiltonian
        self.classifier = classifier  # callable threshold -> classifier, or None
        self.extras = extras or {}  # file name -> callable rendering its text


def _build_syk(mc: dict) -> ModelBundle:
    n = mc["n_modes"]
    variant = mc["variant"]
    try:
        eps = float(mc.get("epsilon", 1.0))
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"syk epsilon: {exc}") from None
    rng = np.random.default_rng(mc.get("seed", 0))
    try:
        rep = syk.build_clifford(n)
    except ValueError as exc:
        raise SystemExit(f"syk n_modes: {exc}") from None
    j2 = syk.sample_quadratic_couplings(n, rng)
    if variant == "free":
        h = syk.free_syk(rep, j2)
    elif variant == "integrable":
        omegas, frame = syk.antisymmetric_canonical_form(j2)
        pair = syk.sample_pair_couplings(n, rng)
        h = syk.integrable_syk(rep, omegas, pair, eps, frame=frame)
    elif variant in ("chaotic4", "chaotic3"):
        body = 4 if variant == "chaotic4" else 3
        many = syk.sample_many_body_couplings(n, body, rng)
        h = syk.chaotic_syk(rep, j2, many, eps, body=body)
    else:
        raise SystemExit(f"unknown syk variant {variant!r}")
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    return ModelBundle(
        f"syk-{variant}-n{n}",
        spec,
        hamiltonian=h,
        classifier=lambda k: syk.MonomialClassifier(rep, k),
    )


def _build_resonant(mc: dict) -> ModelBundle:
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
    try:
        block = resonant.enumerate_block(n, m)
    except ValueError as exc:
        raise SystemExit(f"resonant block: {exc}") from None
    h = resonant.build_block_hamiltonian(block, scheme)
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    return ModelBundle(
        f"resonant-{kind}-{n}-{m}",
        spec,
        hamiltonian=h,
        classifier=lambda k: resonant.ResonantClassifier(block, k),
        extras={"block_states.csv": lambda: resonant.block_states_csv(block)},
    )


def _build_synthetic(mc: dict) -> ModelBundle:
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
    spec = linalg.Spectrum(linalg.normalize_energies(energies), np.eye(dim))
    return ModelBundle(f"synthetic-{kind}-{dim}", spec)


def _build_model(cfg: dict) -> ModelBundle:
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


def _metric_for(cfg: dict, bundle: ModelBundle) -> engine.ComplexityMetric:
    """Resolve the metric from mu/nu/threshold settings."""
    mu, nu, thr = _metric_settings(cfg, bundle.spectrum.dim)
    if mu == 1.0:  # Q carries weight mu - 1, so it is not built
        return engine.ComplexityMetric(nu=nu)
    q = engine.nonlocality_matrix(bundle.spectrum, bundle.classifier(thr))
    return engine.ComplexityMetric(mu=mu, nu=nu, q=q)


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
        with open(args.config) as fh:
            cfg = json.load(fh)
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
    bundle = _build_model(cfg)
    meta = _meta(cfg, model=bundle.name, dim=bundle.spectrum.dim, normalized=True)
    if bundle.hamiltonian is not None:
        path = outdir / "hamiltonian.npy"
        entries = bundle.hamiltonian.entries
        if np.iscomplexobj(entries) and not entries.imag.any():
            entries = entries.real
        buf = io.BytesIO()
        np.save(buf, entries)
        linalg.atomic_write(path, buf.getbuffer())
        meta["hamiltonian_file"] = path.name
        print(f"wrote {path}")
    linalg.atomic_write(
        outdir / "energies.json",
        _json_text({"energies": bundle.spectrum.energies.tolist()}),
    )
    print(f"wrote {outdir / 'energies.json'}")
    for name, render in bundle.extras.items():
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
    bundle = _build_model(cfg)
    bundle.hamiltonian = None  # only gen writes H; Q needs the eigenvectors alone
    metric = None if chain is None else _metric_for(cfg, bundle)
    energies, bundle.spectrum = bundle.spectrum.energies, None  # Q was V's last reader
    if chain is None:
        pipeline = None
        trace = engine.bi_invariant_trace(energies, times)
    else:
        mu, g = metric.mu, metric.matrix(energies.size)
        del metric  # the pipeline needs G alone, so Q goes before the Cholesky
        pipeline = engine.ComplexityPipeline(energies, g, chain)
        trace = pipeline.sweep(times)
    rows = [f"{_fmt(t)},{_fmt(v)},{trace.method}" for t, v in zip(trace.times, trace.values)]
    text = _csv_text(_config_hash(cfg), "trace", "t,c_bound,method", rows)
    linalg.atomic_write(outdir / "bound.csv", text)
    meta = _meta(
        cfg,
        model=bundle.name,
        dim=energies.size,
        method=trace.method,
        ceiling=engine.complexity_ceiling(mu, energies.size),
        max_value=float(trace.values.max()),
    )
    linalg.atomic_write(outdir / "bound_meta.json", _json_text(meta))
    print(f"wrote {outdir / 'bound.csv'} ({trace.values.size} samples, method {trace.method})")
    return bundle.name, energies.size, trace, pipeline


def cmd_bound(cfg: dict, outdir: Path) -> int:
    _sweep(cfg, _times(cfg), outdir)
    return 0


def cmd_qspec(cfg: dict, outdir: Path) -> int:
    thr = _metric_settings(cfg)[2]
    if _family(cfg) == "synthetic":
        raise SystemExit("a synthetic model has no locality structure, so no Q spectrum")
    bundle = _build_model(cfg)
    bundle.hamiltonian = None  # only gen writes H; Q needs the eigenvectors alone
    q = engine.nonlocality_matrix(bundle.spectrum, bundle.classifier(thr))
    h = _config_hash(cfg)
    rows = [f"{i},{_fmt(v)}" for i, v in enumerate(q.eigenvalues)]
    linalg.atomic_write(outdir / "qspec.csv", _csv_text(h, "qspec", "index,eigenvalue", rows))
    meta = _meta(
        cfg,
        model=bundle.name,
        threshold=thr,
        null_residual=q.null_residual(bundle.spectrum.energies),
        null_count=int(np.sum(q.eigenvalues < 1e-8)),
    )
    linalg.atomic_write(outdir / "qspec_meta.json", _json_text(meta))
    print(f"wrote {outdir / 'qspec.csv'} ({q.dim} eigenvalues, threshold {thr})")
    return 0


def cmd_stats(cfg: dict, outdir: Path) -> int:
    bundle = _build_model(cfg)
    spacings = spectral.unfold(bundle.spectrum.energies)
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
        model=bundle.name,
        levels=bundle.spectrum.dim,
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
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the model seed")
    args = parser.parse_args(argv)
    cfg = _load_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return COMMANDS[args.command][0](cfg, outdir)


if __name__ == "__main__":
    sys.exit(main())
