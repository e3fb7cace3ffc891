"""End-to-end checks of the command line interface.

Commands run in-process through main(argv), so the tests exercise real
argument parsing, config resolution, and artifact writing without the
overhead of spawning interpreters.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from evolat import cli, engine, lattice, linalg
from evolat.cli import COMMANDS, PRESETS, _config_hash, main


def run(tmp_path, command, cfg, tag, extra=()):
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / tag
    rc = main([command, "--config", str(cfg_path), "--out", str(outdir), *extra])
    assert rc == 0
    return outdir


SYNTH_TRACE = {
    "model": {"family": "synthetic", "kind": "uniform", "dim": 40, "seed": 5},
    "chain": "biinvariant",
    "times": {"start": 2000.0, "stop": 4000.0, "count": 41},
}


# ---------------------------------------------------------------- config plumbing

def test_requires_config_or_preset(tmp_path):
    with pytest.raises(SystemExit, match="required"):
        main(["bound", "--out", str(tmp_path)])


def test_rejects_config_and_preset_together(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(SYNTH_TRACE))
    with pytest.raises(SystemExit, match="not both"):
        main(["bound", "--config", str(cfg_path), "--preset", "stats-goe-desk",
              "--out", str(tmp_path)])


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit, match="unknown preset"):
        main(["stats", "--preset", "no-such-preset", "--out", str(tmp_path)])


def test_unknown_model_family(tmp_path):
    with pytest.raises(SystemExit, match="unknown model family"):
        run(tmp_path, "gen", {"model": {"family": "ising", "dim": 4}}, "bad")


@pytest.mark.parametrize("model", [
    {"family": "resonant", "kind": "cubic", "n_particles": 3, "total_level": 3},
    {"family": "syk", "variant": "quartic", "n_modes": 4},
], ids=["resonant-kind", "syk-variant"])
def test_unknown_model_kind_is_named(tmp_path, model):
    bad = model.get("kind", model.get("variant"))
    with pytest.raises(SystemExit, match=f"'{bad}'"):
        run(tmp_path, "gen", {"model": model}, "bad")


@pytest.mark.parametrize("command", ["bound", "plateau"])
@pytest.mark.parametrize("times", [
    {"start": 1.0, "stop": 2.0, "count": 0},
    {"start": 1.0, "stop": 2.0, "count": -1},
    {"grid": []},
    {"grid": [[1.0, 2.0], [3.0, 4.0]]},
    {"grid": [1.0, 1.0, 2.0]},
    {"grid": [3.0, 2.0]},
], ids=["count-0", "count-negative", "empty", "2-d", "repeated", "decreasing"])
def test_bad_time_grid_refused_before_the_model(tmp_path, monkeypatch, command, times):
    def refuse(cfg):
        raise AssertionError("the model was built before the time grid was checked")

    monkeypatch.setattr(cli, "_build_model", refuse)
    with pytest.raises(SystemExit, match="times"):
        run(tmp_path, command, dict(SYNTH_TRACE, times=times), "bad_times")


@pytest.mark.parametrize("command", ["bound", "plateau"])
@pytest.mark.parametrize("times", [
    {"start": 1.0, "count": 20},
    {"grid": "abc"},
    {"start": 1.0, "stop": 2.0, "count": "many"},
    {"start": 1.0, "stop": 2.0, "count": 20.9},
    {"start": 1.0, "stop": 2.0, "count": True},
    5,
], ids=["no-stop", "grid-not-numbers", "count-not-int", "count-fraction", "count-bool",
        "not-an-object"])
def test_malformed_times_refused_with_a_message(tmp_path, monkeypatch, command, times):
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    with pytest.raises(SystemExit, match="^times: "):
        run(tmp_path, command, dict(SYNTH_TRACE, times=times), "bad_times")


def refuse_model(cfg):
    raise AssertionError("the model was built before the settings were checked")


@pytest.mark.parametrize("command", ["bound", "plateau"])
@pytest.mark.parametrize("chain", ["lll+babi", "lll+naive", 5])
def test_bad_chain_refused_before_the_model(tmp_path, monkeypatch, command, chain):
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    cfg = dict(SYNTH_TRACE, chain=chain)
    with pytest.raises(SystemExit, match="^chain: "):
        run(tmp_path, command, cfg, "bad_chain")


@pytest.mark.parametrize("model, missing, builder", [
    ({"family": "resonant", "n_particles": 3, "total_level": 3}, "kind",
     (cli.resonant, "enumerate_block")),
    ({"family": "syk", "variant": "free"}, "n_modes", (cli.syk, "build_clifford")),
    ({"family": "synthetic", "kind": "goe"}, "dim", (np.random, "default_rng")),
], ids=["resonant-kind", "syk-n_modes", "synthetic-dim"])
def test_missing_model_key_is_named_before_any_array(tmp_path, monkeypatch, model, missing,
                                                     builder):
    monkeypatch.setattr(*builder, refuse_model)
    with pytest.raises(SystemExit, match=f"model needs {missing}$"):
        run(tmp_path, "gen", {"model": model}, "bad_model")


@pytest.mark.parametrize("model, message", [
    ({"family": "resonant", "kind": "truncated", "n_particles": "twelve", "total_level": 12},
     "model n_particles must be a non-negative integer, got 'twelve'"),
    ({"family": "resonant", "kind": "truncated", "n_particles": -1, "total_level": 4},
     "model n_particles must be a non-negative integer, got -1"),
    ({"family": "resonant", "kind": "truncated", "n_particles": 40, "total_level": 40},
     "resonant block: .* exceeding the 20000-state guard"),
    ({"family": "syk", "variant": "free", "n_modes": 13}, "syk n_modes: need an even number"),
    ({"family": "synthetic", "kind": "goe", "dim": 1.5},
     "model dim must be a non-negative integer, got 1.5"),
    ({"family": "synthetic", "kind": "goe", "dim": 1}, "needs dim >= 2, got 1"),
    ({"family": "synthetic", "kind": "goe", "dim": 4, "seed": -3},
     "model seed must be a non-negative integer, got -3"),
    ({"family": "syk", "variant": "integrable", "n_modes": 8, "epsilon": "big"},
     "syk epsilon: could not convert string to float: 'big'"),
    ({"family": "syk", "variant": "free", "n_modes": "twelve"},
     "model n_modes must be a non-negative integer, got 'twelve'"),
    ({"family": "resonant", "kind": "alpha", "n_particles": 4, "total_level": 4, "alpha": None},
     "resonant coupling: float"),
], ids=["count-not-a-number", "negative-count", "block-over-guard", "odd-modes",
        "fractional-dim", "dim-1", "negative-seed", "epsilon-not-a-number",
        "modes-not-a-number", "alpha-null"])
def test_bad_model_value_refused_with_a_message(tmp_path, model, message):
    # bound reads n_modes for the threshold range before it builds the model
    for command in ("gen", "bound"):
        with pytest.raises(SystemExit, match=message):
            run(tmp_path, command, dict(SYNTH_TRACE, model=model), "bad_model")


def test_qspec_refuses_a_synthetic_model_before_building_it(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    with pytest.raises(SystemExit, match="synthetic model has no locality structure"):
        main(["qspec", "--preset", "stats-goe-desk", "--out", str(tmp_path)])


@pytest.mark.parametrize("command", ["bound", "plateau", "qspec"])
@pytest.mark.parametrize("mu", [2.0, "dim"])
def test_synthetic_mu_above_one_refused_before_the_model(tmp_path, monkeypatch, command, mu):
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    cfg = dict(SYNTH_TRACE, chain="babai", mu=mu)
    with pytest.raises(SystemExit, match="no locality structure; use mu = 1"):
        run(tmp_path, command, cfg, "synthetic_mu")


@pytest.mark.parametrize("command", ["bound", "plateau", "qspec"])
@pytest.mark.parametrize("key,value", [
    ("mu", "big"), ("mu", 0.5), ("mu", None), ("mu", float("inf")),
    ("nu", "x"), ("nu", -1.0), ("threshold", -1), ("threshold", "four"), ("threshold", None),
    ("threshold", 2.7), ("threshold", True),
])
def test_bad_metric_setting_refused_before_the_model(tmp_path, monkeypatch, command, key, value):
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    cfg = dict(SYNTH_TRACE, chain="babai", window=[2000.0, 4000.0], **{key: value})
    with pytest.raises(SystemExit, match=re.escape(str(value))):
        run(tmp_path, command, cfg, "bad_setting")


@pytest.mark.parametrize("command", ["bound", "plateau"])
@pytest.mark.parametrize("key,value", [("mu", "dim"), ("mu", 2.0), ("nu", "su"), ("nu", 0.5)])
def test_biinvariant_chain_refuses_a_penalized_metric(tmp_path, monkeypatch, command, key,
                                                      value):
    """The closed form is the mu = 1, nu = 0 bound; it cannot stand for another."""
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    cfg = {
        "model": {"family": "resonant", "kind": "truncated", "n_particles": 8, "total_level": 8},
        "chain": "biinvariant",
        "times": {"start": 20000.0, "stop": 24000.0, "count": 21},
        key: value,
    }
    with pytest.raises(SystemExit, match="^chain: biinvariant .* mu = 1 and nu = 0$"):
        run(tmp_path, command, cfg, "biinvariant_metric")


@pytest.mark.parametrize("command", ["bound", "plateau", "qspec"])
@pytest.mark.parametrize("threshold", [0, 9])
def test_syk_threshold_outside_modes_refused_before_the_model(tmp_path, monkeypatch, command,
                                                              threshold):
    """SYK locality counts monomials of weight 1 to n_modes (here 8)."""
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    cfg = {
        "model": {"family": "syk", "variant": "free", "n_modes": 8, "seed": 1},
        "threshold": threshold,
        "mu": "dim",
        "chain": "babai",
        "times": {"start": 100.0, "stop": 200.0, "count": 11},
    }
    with pytest.raises(SystemExit, match=rf"threshold in \[1, 8\]; got .*, {threshold}$"):
        run(tmp_path, command, cfg, "bad_syk_threshold")


@pytest.mark.parametrize("window", [
    [2000.0, 2100.0], [2000.0, 4000.0, 1000.0], [1000.0, 3000.0], [2000.0], ["a", "b"], 5, None,
], ids=["3-samples", "3-strided-samples", "outside-grid", "one-entry", "not-numbers",
        "a-number", "null"])
def test_bad_plateau_window_refused_before_the_model(tmp_path, monkeypatch, window):
    monkeypatch.setattr(cli, "_build_model", refuse_model)
    with pytest.raises(SystemExit, match="^window: "):
        run(tmp_path, "plateau", dict(SYNTH_TRACE, window=window), "bad_window")


def test_presets_name_real_models():
    for name, cfg in PRESETS.items():
        assert cfg["model"]["family"] in ("syk", "resonant", "synthetic"), name


def test_command_table_complete():
    assert set(COMMANDS) == {"gen", "bound", "qspec", "stats", "plateau", "cvp"}


# ---------------------------------------------------------------- gen

def test_gen_synthetic_artifacts(tmp_path):
    cfg = {"model": {"family": "synthetic", "kind": "uniform", "dim": 40, "seed": 5}}
    out = run(tmp_path, "gen", cfg, "gen_synth")
    energies = np.array(json.load(open(out / "energies.json"))["energies"])
    assert energies.size == 40
    assert abs(energies.mean()) < 1e-12
    assert abs(np.sum(energies**2) - 1.0) < 1e-12
    meta = json.load(open(out / "gen_meta.json"))
    assert meta["schema"] == 1
    assert meta["dim"] == 40
    assert meta["model"] == "synthetic-uniform-40"
    assert meta["config_hash"] == _config_hash(cfg)
    assert not (out / "spectrum.json").exists()
    # synthetic spectra carry no operator content
    assert not (out / "hamiltonian.npy").exists()


def test_gen_resonant_block_table(tmp_path):
    cfg = {"model": {"family": "resonant", "n_particles": 3, "total_level": 3,
                     "kind": "truncated"}}
    out = run(tmp_path, "gen", cfg, "gen_res")
    lines = (out / "block_states.csv").read_text().splitlines()
    assert lines[0] == "index,partition,occupation"
    assert lines[1] == "0,3,2 0 0 1"
    assert lines[2] == "1,2+1,1 1 1 0"
    assert lines[3] == "2,1+1+1,0 3 0 0"
    h = np.load(out / "hamiltonian.npy")
    assert h.shape == (3, 3)
    assert h.dtype == np.float64
    energies = np.array(json.load(open(out / "energies.json"))["energies"])
    np.testing.assert_allclose(
        energies, linalg.normalize_energies(np.linalg.eigvalsh(h)), atol=1e-12
    )
    meta = json.load(open(out / "gen_meta.json"))
    assert meta["hamiltonian_file"] == "hamiltonian.npy"


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gen_stores_a_real_hamiltonian_as_float64(tmp_path, monkeypatch, dtype):
    """A real H, and a complex one whose imaginary part is zero, are both
    written as the same float64 array."""
    cfg = {"model": {"family": "resonant", "n_particles": 4, "total_level": 4,
                     "kind": "truncated"}}
    want = (run(tmp_path, "gen", cfg, "gen_real") / "hamiltonian.npy").read_bytes()
    build = cli._build_model

    def build_as(cfg):
        bundle = build(cfg)
        bundle.hamiltonian = linalg.HermitianMatrix(bundle.hamiltonian.entries.astype(dtype))
        assert bundle.hamiltonian.entries.dtype == dtype
        return bundle

    monkeypatch.setattr(cli, "_build_model", build_as)
    out = run(tmp_path, "gen", cfg, "gen_as")
    assert (out / "hamiltonian.npy").read_bytes() == want
    assert np.load(out / "hamiltonian.npy").dtype == np.float64


def test_only_gen_renders_the_block_table(tmp_path, monkeypatch):
    def refuse(block):
        raise AssertionError("block_states.csv rendered for a command that does not write it")

    monkeypatch.setattr(cli.resonant, "block_states_csv", refuse)
    cfg = {"model": {"family": "resonant", "kind": "truncated",
                     "n_particles": 6, "total_level": 6},
           "threshold": 2, "mu": "dim", "times": {"start": 100.0, "stop": 200.0, "count": 5}}
    run(tmp_path, "bound", cfg, "bound_no_table")


def test_gen_syk_round_trip(tmp_path):
    cfg = {"model": {"family": "syk", "variant": "free", "n_modes": 6, "seed": 3}}
    out = run(tmp_path, "gen", cfg, "gen_syk")
    h = np.load(out / "hamiltonian.npy")
    assert h.shape == (8, 8)
    assert h.dtype == np.complex128
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    energies = np.array(json.load(open(out / "energies.json"))["energies"])
    np.testing.assert_allclose(
        energies, linalg.normalize_energies(np.linalg.eigvalsh(h)), atol=1e-12
    )


# ---------------------------------------------------------------- bound

def test_bound_trace_csv_and_meta(tmp_path):
    out = run(tmp_path, "bound", SYNTH_TRACE, "bound_synth")
    lines = (out / "bound.csv").read_text().splitlines()
    assert lines[0].startswith("# evolat schema=1 kind=trace config=")
    assert _config_hash(SYNTH_TRACE) in lines[0]
    assert lines[1] == "t,c_bound,method"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 41
    ts = np.array([float(r[0]) for r in rows])
    vs = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(ts, np.linspace(2000.0, 4000.0, 41))
    assert all(r[2] == "biinvariant" for r in rows)
    meta = json.load(open(out / "bound_meta.json"))
    assert meta["method"] == "biinvariant"
    assert abs(meta["ceiling"] - np.pi * np.sqrt(40)) < 1e-12
    assert meta["max_value"] == vs.max()
    assert vs.max() <= meta["ceiling"] + 1e-9


def test_bound_runs_are_byte_identical(tmp_path):
    out1 = run(tmp_path, "bound", SYNTH_TRACE, "rep1")
    out2 = run(tmp_path, "bound", SYNTH_TRACE, "rep2")
    assert (out1 / "bound.csv").read_bytes() == (out2 / "bound.csv").read_bytes()
    assert (out1 / "bound_meta.json").read_bytes() == (out2 / "bound_meta.json").read_bytes()


def test_bound_default_chain_on_resonant_block(tmp_path):
    cfg = {
        "model": {"family": "resonant", "n_particles": 5, "total_level": 5,
                  "kind": "truncated"},
        "mu": "dim",
        "threshold": 4,
        "times": {"start": 100.0, "stop": 200.0, "count": 5},
    }
    out = run(tmp_path, "bound", cfg, "bound_res")
    meta = json.load(open(out / "bound_meta.json"))
    assert meta["method"] == "lll+babai+greedy"
    assert meta["dim"] == 7
    assert abs(meta["ceiling"] - np.pi * 7.0) < 1e-12
    assert 0.0 < meta["max_value"] <= meta["ceiling"]


def test_bound_accepts_explicit_time_grid(tmp_path):
    cfg = {
        "model": {"family": "synthetic", "kind": "uniform", "dim": 20, "seed": 1},
        "chain": "biinvariant",
        "times": {"grid": [5.0, 10.0, 15.0]},
    }
    out = run(tmp_path, "bound", cfg, "bound_grid")
    lines = (out / "bound.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["5.0", "10.0", "15.0"]


def test_mu_above_one_needs_locality(tmp_path):
    cfg = dict(SYNTH_TRACE, mu="dim", chain="lll+babai")
    with pytest.raises(SystemExit, match="no locality structure"):
        run(tmp_path, "bound", cfg, "bound_mu")


def test_su_restriction_at_unit_cost_needs_no_locality(tmp_path):
    cfg = dict(SYNTH_TRACE, mu=1, nu="su", chain="babai+greedy")
    out = run(tmp_path, "bound", cfg, "bound_su")
    meta = json.load(open(out / "bound_meta.json"))
    assert 0.0 < meta["max_value"] <= meta["ceiling"]


@pytest.mark.parametrize("mu", [1, "dim"])
def test_su_config_matches_su_metric(mu):
    cfg = {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 5, "total_level": 5},
        "threshold": 4,
        "mu": mu,
        "nu": "su",
    }
    bundle = cli._build_model(cfg)
    metric = cli._metric_for(cfg, bundle)
    assert metric.nu == engine.SU_NU_FACTOR * metric.mu > 0.0


def test_unit_cost_skips_the_nonlocality_matrix(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("Q built at mu = 1")

    monkeypatch.setattr(engine, "nonlocality_matrix", refuse)
    cfg = {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 6, "total_level": 6},
        "mu": 1,
        "nu": "su",
        "chain": "babai",
        "times": {"start": 100.0, "stop": 200.0, "count": 11},
    }
    out = run(tmp_path, "bound", cfg, "bound_unit")
    assert (out / "bound.csv").is_file()


@pytest.mark.parametrize("command", ["bound", "plateau", "qspec"])
@pytest.mark.parametrize("model", [
    {"family": "resonant", "kind": "random", "n_particles": 6, "total_level": 6, "seed": 2},
    {"family": "syk", "variant": "chaotic4", "n_modes": 8, "seed": 1},
], ids=["resonant", "syk"])
def test_hamiltonian_released_before_the_nonlocality_matrix(tmp_path, monkeypatch, command,
                                                            model):
    """Only gen writes H: the commands that build Q let it go once the
    spectrum is known, so H and Q are never held at once."""
    refs = []
    eigendecompose, nonlocality_matrix = linalg.eigendecompose, engine.nonlocality_matrix

    def keep_weakref(h):
        refs.extend([weakref.ref(h), weakref.ref(h.entries)])
        return eigendecompose(h)

    def check_released(*args):
        assert refs and all(ref() is None for ref in refs), "H is still alive"
        return nonlocality_matrix(*args)

    monkeypatch.setattr(linalg, "eigendecompose", keep_weakref)
    monkeypatch.setattr(engine, "nonlocality_matrix", check_released)
    cfg = {
        "model": model,
        "threshold": 4,
        "mu": "dim",
        "chain": "babai",
        "times": {"start": 100.0, "stop": 200.0, "count": 11},
    }
    run(tmp_path, command, cfg, "released")
    assert len(refs) == 2


@pytest.mark.parametrize("command", ["bound", "plateau"])
def test_eigenvectors_released_once_q_is_built(tmp_path, monkeypatch, command):
    """Past Q, bound and plateau read only the energies: the eigenvectors
    are gone before the lattice is built."""
    refs = []
    build_model, pipeline = cli._build_model, engine.ComplexityPipeline

    def keep_weakref(cfg):
        bundle = build_model(cfg)
        refs.append(weakref.ref(bundle.spectrum.vectors))
        return bundle

    def check_released(*args):
        assert refs and refs[0]() is None, "the eigenvectors are still alive"
        return pipeline(*args)

    monkeypatch.setattr(cli, "_build_model", keep_weakref)
    monkeypatch.setattr(engine, "ComplexityPipeline", check_released)
    cfg = {
        "model": {"family": "resonant", "kind": "random", "n_particles": 6, "total_level": 6,
                  "seed": 2},
        "threshold": 4,
        "mu": "dim",
        "chain": "babai",
        "times": {"start": 100.0, "stop": 200.0, "count": 11},
    }
    run(tmp_path, command, cfg, "released")
    assert len(refs) == 1


@pytest.mark.parametrize("command", ["bound", "plateau"])
def test_q_released_before_the_cholesky(tmp_path, monkeypatch, command):
    """Past the metric matrix G, bound and plateau read neither Q nor its
    entries: both are gone before the Cholesky factorization."""
    refs = []
    nonlocality_matrix, cholesky = engine.nonlocality_matrix, np.linalg.cholesky

    def keep_weakref(*args):
        q = nonlocality_matrix(*args)
        refs.extend([weakref.ref(q), weakref.ref(q.entries)])
        return q

    def check_released(g):
        assert refs and all(ref() is None for ref in refs), "Q is still alive"
        return cholesky(g)

    monkeypatch.setattr(engine, "nonlocality_matrix", keep_weakref)
    monkeypatch.setattr(np.linalg, "cholesky", check_released)
    cfg = {
        "model": {"family": "resonant", "kind": "random", "n_particles": 6, "total_level": 6,
                  "seed": 2},
        "threshold": 4,
        "mu": "dim",
        "chain": "babai",
        "times": {"start": 100.0, "stop": 200.0, "count": 11},
    }
    run(tmp_path, command, cfg, "released")
    assert len(refs) == 2


# ---------------------------------------------------------------- qspec

def test_qspec_free_syk(tmp_path):
    cfg = {"model": {"family": "syk", "variant": "free", "n_modes": 6, "seed": 3}}
    out = run(tmp_path, "qspec", cfg, "qspec_syk")
    lines = (out / "qspec.csv").read_text().splitlines()
    assert "kind=qspec" in lines[0]
    assert lines[1] == "index,eigenvalue"
    eigs = np.array([float(line.split(",")[1]) for line in lines[2:]])
    assert eigs.size == 8
    assert eigs.min() > -1e-9 and eigs.max() < 1.0 + 1e-9
    meta = json.load(open(out / "qspec_meta.json"))
    assert meta["threshold"] == 2  # free variant defaults to quadratic locality
    assert meta["null_residual"] < 1e-8
    assert meta["null_count"] >= 3


def test_qspec_rejects_featureless_model(tmp_path):
    cfg = {"model": {"family": "synthetic", "kind": "uniform", "dim": 10, "seed": 0}}
    with pytest.raises(SystemExit, match="no locality structure"):
        run(tmp_path, "qspec", cfg, "qspec_synth")


# ---------------------------------------------------------------- stats

def test_stats_uniform_spectrum_is_poissonian(tmp_path):
    cfg = {"model": {"family": "synthetic", "kind": "uniform", "dim": 150, "seed": 7}}
    out = run(tmp_path, "stats", cfg, "stats_u")
    meta = json.load(open(out / "stats.json"))
    # 150 levels, unfolding window round(sqrt(150)) = 12 on each side
    assert meta["spacing_count"] == 150 - 2 * 12 - 1
    assert meta["closer"] == "poisson"
    assert meta["ks_poisson"] < meta["ks_wigner"]
    assert 0.0 < meta["ks_poisson"] < 1.0
    lines = (out / "spacings.csv").read_text().splitlines()
    assert lines[1] == "s,count,wigner_ref,poisson_ref"
    assert len(lines) == 2 + 50
    counts = np.array([float(line.split(",")[1]) for line in lines[2:]])
    assert counts.sum() <= meta["spacing_count"]


# ---------------------------------------------------------------- plateau

def test_plateau_matches_estimate(tmp_path):
    cfg = dict(SYNTH_TRACE, window=[2000.0, 4000.0])
    out = run(tmp_path, "plateau", cfg, "plateau_synth")
    meta = json.load(open(out / "plateau.json"))
    assert meta["count"] == 41
    assert abs(meta["estimate"] - np.pi * np.sqrt(40.0 / 3.0)) < 1e-12
    assert meta["ratio"] == meta["mean"] / meta["estimate"]
    assert 0.8 < meta["ratio"] < 1.2
    assert meta["variance"] > 0.0


@pytest.mark.parametrize("chain", ["lll+babai+greedy", "babai+greedy"])
def test_plateau_estimate_reuses_pipeline_reduction(tmp_path, monkeypatch, chain):
    """The estimate comes from the lattice the chain solves on.  With LLL that
    is the reduced basis, equal to the last bit to a separate reduction of
    the embedding basis; without LLL nothing is reduced at all."""
    cfg = {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 10, "total_level": 10},
        "threshold": 2,
        "mu": "dim",
        "chain": chain,
        "times": {"start": 20000.0, "stop": 24000.0, "count": 21},
        "window": [20000.0, 24000.0],
    }
    bundle = cli._build_model(cfg)
    metric = cli._metric_for(cfg, bundle)
    if "lll" in chain:
        embedding = engine.ComplexityPipeline(bundle.spectrum.energies, metric, "babai")
        solved_on = lattice.lll_reduce_with_transform(embedding.lattice)[0]
    else:
        def refuse(*args, **kwargs):
            raise AssertionError("LLL run for a chain without it")

        monkeypatch.setattr(lattice, "lll_reduce_with_transform", refuse)
    pipeline = engine.ComplexityPipeline(bundle.spectrum.energies, metric, chain)
    if "lll" in chain:
        assert np.array_equal(pipeline.lattice.r, solved_on.r)
    out = run(tmp_path, "plateau", cfg, "plateau_reuse")
    meta = json.load(open(out / "plateau.json"))
    assert meta["estimate"] == lattice.plateau_estimate(pipeline.lattice)


PLATEAU_LLL = {
    "model": {"family": "resonant", "kind": "truncated", "n_particles": 8, "total_level": 8},
    "threshold": 4,
    "mu": "dim",
    "chain": "lll+babai+greedy",
    "times": {"start": 20000.0, "stop": 24000.0, "count": 21},
}


@pytest.mark.parametrize("cfg", [PLATEAU_LLL, SYNTH_TRACE], ids=["resonant-lll", "biinvariant"])
def test_plateau_writes_the_bound_trace(tmp_path, cfg):
    """One plateau run leaves the same bound.csv and bound_meta.json as bound."""
    bound = run(tmp_path, "bound", cfg, "bound_alone")
    plateau = run(tmp_path, "plateau", cfg, "plateau_too")
    for name in ("bound.csv", "bound_meta.json"):
        assert (plateau / name).read_bytes() == (bound / name).read_bytes(), name
    assert (plateau / "plateau.json").is_file()


# ---------------------------------------------------------------- cvp

def test_cvp_ladder_artifact(tmp_path, cvp6):
    cfg = {"basis": cvp6["basis"], "target": cvp6["target"]}
    out = run(tmp_path, "cvp", cfg, "cvp_run")
    meta = json.load(open(out / "cvp.json"))
    assert meta["dim"] == 6
    methods = {e["method"]: e for e in meta["methods"]}
    assert set(methods) == {"naive", "babai", "lll+babai", "lll+babai+greedy", "exact"}
    exact = methods["exact"]
    assert exact["coeffs"] == cvp6["optimal_coeffs"]
    assert abs(exact["distance"] - cvp6["optimal_distance"]) < 1e-9
    basis = np.array(cvp6["basis"], dtype=float).T
    target = np.array(cvp6["target"], dtype=float)
    timing = json.load(open(out / "cvp_timing.json"))
    assert timing["config_hash"] == meta["config_hash"]
    assert [t["method"] for t in timing["methods"]] == [e["method"] for e in meta["methods"]]
    for t in timing["methods"]:
        assert t["wall_time_s"] >= 0.0
    for entry in meta["methods"]:
        assert entry["distance"] >= exact["distance"] - 1e-9
        recomputed = np.linalg.norm(basis @ np.array(entry["coeffs"]) - target)
        assert abs(recomputed - entry["distance"]) < 1e-9


def test_cvp_runs_are_byte_identical(tmp_path, cvp6):
    cfg = {"basis": cvp6["basis"], "target": cvp6["target"]}
    first = run(tmp_path, "cvp", cfg, "cvp_a")
    second = run(tmp_path, "cvp", cfg, "cvp_b")
    assert (first / "cvp.json").read_bytes() == (second / "cvp.json").read_bytes()


def test_cvp_requires_instance_fields(tmp_path):
    with pytest.raises(SystemExit, match="basis"):
        run(tmp_path, "cvp", {"target": [0.0, 0.0]}, "cvp_bad")


@pytest.mark.parametrize("basis, target, message", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0, 3.0], "basis must be square"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0], "does not match basis dimension 2"),
    ([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0], "rank deficient"),
    ("abc", [1.0, 2.0], "could not convert string to float"),
    ([[float("nan"), 0.0], [0.0, 1.0]], [1.0, 2.0], "basis has a non-finite entry"),
    ([[1.0, 0.0], [0.0, 1.0]], [float("inf"), 2.0], "target has a non-finite entry"),
], ids=["non-square", "target-length", "rank-deficient", "not-numbers", "nan-basis",
        "infinite-target"])
def test_cvp_refuses_a_malformed_instance_with_a_message(tmp_path, basis, target, message):
    with pytest.raises(SystemExit, match=f"^cvp instance: .*{message}"):
        run(tmp_path, "cvp", {"basis": basis, "target": target}, "cvp_bad")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_cvp_refuses_a_non_finite_basis_before_factoring_it(tmp_path, monkeypatch, bad):
    """The refusal comes before the QR factorization, so no RuntimeWarning
    from arithmetic on infinities precedes the message."""
    def refuse(*args, **kwargs):
        raise AssertionError("a non-finite basis reached np.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    cfg = {"basis": [[bad, 0.0], [0.0, 1.0]], "target": [1.0, 2.0]}
    with pytest.raises(SystemExit, match="^cvp instance: basis has a non-finite entry$"):
        run(tmp_path, "cvp", cfg, "cvp_bad")


# ---------------------------------------------------------------- overrides

def test_seed_override_changes_hash_and_output(tmp_path):
    cfg = {"model": {"family": "synthetic", "kind": "uniform", "dim": 20, "seed": 1}}
    out_base = run(tmp_path, "gen", cfg, "seed_base")
    out_over = run(tmp_path, "gen", cfg, "seed_over", extra=("--seed", "9"))
    base = json.load(open(out_base / "gen_meta.json"))
    over = json.load(open(out_over / "gen_meta.json"))
    assert over["config"]["model"]["seed"] == 9
    assert over["config_hash"] != base["config_hash"]
    e_base = json.load(open(out_base / "energies.json"))["energies"]
    e_over = json.load(open(out_over / "energies.json"))["energies"]
    assert e_base != e_over


def test_seed_override_refused_for_cvp(tmp_path, cvp6):
    cfg = {"basis": cvp6["basis"], "target": cvp6["target"]}
    with pytest.raises(SystemExit, match="no model"):
        run(tmp_path, "cvp", cfg, "cvp_seed", extra=("--seed", "4"))
    assert not (tmp_path / "cvp_seed" / "cvp.json").exists()


@pytest.mark.parametrize("preset, refused", [
    ("resonant-truncated-bound-desk", True),
    ("stats-truncated-desk", True),
    ("resonant-random-bound-desk", False),
    ("syk-free-qspec-desk", False),
    ("biinv-plateau-desk", False),
])
def test_seed_override_needs_a_seeded_model(preset, refused):
    """Only models that draw random numbers take --seed: a seed that
    changes nothing but the config hash is refused."""
    args = argparse.Namespace(preset=preset, config=None, seed=4)
    if refused:
        with pytest.raises(SystemExit, match="resonant kind 'truncated' draws no random"):
            cli._load_config(args)
    else:
        assert cli._load_config(args)["model"]["seed"] == 4


# ---------------------------------------------------------------- one BLAS library

# Runs an evolat command in a fresh interpreter, then reports the scipy modules
# it imported and the BLAS libraries mapped into it (where /proc/self/maps
# exists).  scipy ships its own OpenBLAS next to numpy's; each has a thread
# pool, and switching between the two stalls.
ONE_BLAS_PROBE = """
import json, os, sys
import evolat.cli
if len(sys.argv) > 1:
    assert evolat.cli.main(sys.argv[1:]) == 0
maps = "/proc/self/maps"
libs = None
if os.path.exists(maps):
    with open(maps) as fh:
        paths = {line.split()[-1] for line in fh if "/" in line}
    libs = sorted(p for p in paths if "blas" in os.path.basename(p).lower())
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "blas": libs}))
"""

ONE_BLAS_RUNS = {
    "import": None,
    "qspec-syk-chaotic4": ("qspec", {
        "model": {"family": "syk", "variant": "chaotic4", "n_modes": 10, "seed": 3},
        "threshold": 4,
    }),
    "qspec-syk-integrable": ("qspec", {
        "model": {"family": "syk", "variant": "integrable", "n_modes": 10, "seed": 3},
        "threshold": 4,
    }),
    "bound-resonant-mu-dim": ("bound", {
        "model": {"family": "resonant", "kind": "truncated",
                  "n_particles": 8, "total_level": 8},
        "threshold": 4,
        "mu": "dim",
        "chain": "babai+greedy",
        "times": {"start": 20000.0, "stop": 24000.0, "count": 11},
    }),
}


@pytest.mark.parametrize("case", sorted(ONE_BLAS_RUNS))
def test_cli_loads_no_scipy_and_one_blas(tmp_path, case):
    """Importing the CLI, and building Q for SYK and resonant models, loads no
    scipy module (not even scipy.stats) and maps at most one BLAS library."""
    argv = []
    if ONE_BLAS_RUNS[case] is not None:
        command, cfg = ONE_BLAS_RUNS[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", ONE_BLAS_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["scipy"] == []
    if report["blas"] is not None:
        assert len(report["blas"]) <= 1, report["blas"]
