"""The desk commands' artifacts, held to a committed reference.

Each case is one command that CI runs on a desk preset or a config under
tests/fixtures, run twice through cli.main.  The two runs must write the
same bytes.  Against tests/fixtures/desk/<case>/, the text between the
numbers must be equal and each number within its file's TOLERANCE.  Whether
the bytes equal the reference is reported by a warning, not required, as
OpenBLAS picks its kernels by CPU and thread count.  A hamiltonian.npy is
held as its shape; cvp_timing.json holds wall times and is not held at all.

The references are written at one BLAS thread.  A change that moves an
artifact regenerates them, and says so, with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_desk.py
"""

import json
import os
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from evolat.cli import main
from test_cli import SYNTH_TRACE

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE = FIXTURES / "desk"
# case: (command, a preset's name, a config file or a config)
CASES = {
    "gen-resonant-random": ("gen", "resonant-random-bound-desk"),
    "gen-syk-integrable": ("gen", "syk-integrable-qspec-desk"),
    "bound-resonant-truncated": ("bound", "resonant-truncated-bound-desk"),
    "bound-resonant-random": ("bound", "resonant-random-bound-desk"),
    "bound-synthetic": ("bound", SYNTH_TRACE),
    "plateau-resonant-truncated": ("plateau", "resonant-truncated-bound-desk"),
    "plateau-biinvariant": ("plateau", "biinv-plateau-desk"),
    "qspec-syk-free": ("qspec", "syk-free-qspec-desk"),
    "qspec-syk-integrable": ("qspec", "syk-integrable-qspec-desk"),
    "qspec-syk-chaotic4": ("qspec", FIXTURES / "syk_chaotic4.json"),
    "stats-goe": ("stats", "stats-goe-desk"),
    "stats-resonant-truncated": ("stats", "stats-truncated-desk"),
    "stats-syk-integrable": ("stats", "syk-integrable-qspec-desk"),
    "stats-syk-chaotic4": ("stats", FIXTURES / "syk_chaotic4.json"),
    "cvp": ("cvp", FIXTURES / "cvp6.json"),
}
# each number a of a file against its reference b: |a - b| <= tol * max(|b|, 1).
# Between 1 and 2 BLAS threads only stats-goe moves, its KS distances by 2e-13
# (GOE at D = 1000); the rest leaves room for another CPU's kernels, not for
# another lattice point or another histogram bin
TOLERANCE = {
    "hamiltonian.shape.json": 0.0,
    "block_states.csv": 0.0,
    "gen_meta.json": 0.0,
    "energies.json": 1e-12,
    "qspec.csv": 1e-12,
    "qspec_meta.json": 1e-12,
    "spacings.csv": 1e-12,
    "stats.json": 1e-9,
    "bound.csv": 1e-10,
    "bound_meta.json": 1e-10,
    "plateau.json": 1e-10,
    "cvp.json": 1e-12,
}
WALL_TIMES = "cvp_timing.json"
# a decimal number standing alone: not a digit of a config hash or of a version
NUMBER = re.compile(r"(?<![\w.])([-+]?\d+\.?\d*(?:[eE][-+]?\d+)?)(?![\w.])")


def run(case: str, out: Path) -> Path:
    command, source = CASES[case]
    if isinstance(source, dict):
        path = out.with_suffix(".json")
        path.write_text(json.dumps(source))
        source = path
    where = ["--preset", source] if isinstance(source, str) else ["--config", str(source)]
    assert main([command, *where, "--out", str(out)]) == 0
    return out


def artifacts(out: Path) -> dict:
    """The held form of each file a run wrote: its bytes, an array's shape."""
    held = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".npy":
            held[f"{path.stem}.shape.json"] = json.dumps(np.load(path).shape).encode()
        elif path.name != WALL_TIMES:
            held[path.name] = path.read_bytes()
    return held


def assert_close(name: str, text: str, reference: str) -> None:
    parts, ref = NUMBER.split(text), NUMBER.split(reference)
    assert parts[::2] == ref[::2], f"{name}: the text between the numbers differs"
    a, b = np.array(parts[1::2], float), np.array(ref[1::2], float)
    tol = TOLERANCE[name]
    off = ~(np.abs(a - b) <= tol * np.maximum(np.abs(b), 1.0))
    assert not off.any(), (f"{name}: {off.sum()} numbers off by more than {tol}, "
                           f"the first {float(a[off][0])!r} against {float(b[off][0])!r}")


@pytest.mark.parametrize("case", CASES)
def test_desk_command_matches_its_reference(tmp_path, case):
    first, second = run(case, tmp_path / "a"), run(case, tmp_path / "b")
    names = sorted(p.name for p in first.iterdir() if p.name != WALL_TIMES)
    assert names == sorted(p.name for p in second.iterdir() if p.name != WALL_TIMES)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    held = artifacts(first)
    reference = {p.name: p.read_bytes() for p in (REFERENCE / case).iterdir()}
    assert sorted(held) == sorted(reference)
    for name, data in held.items():
        assert_close(name, data.decode(), reference[name].decode())
    moved = [name for name, data in held.items() if data != reference[name]]
    if moved:
        warnings.warn(f"{case}: {', '.join(moved)} within tolerance of the reference, "
                      "not byte-identical")


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("the references are written at one BLAS thread: "
                 "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_desk.py")
    shutil.rmtree(REFERENCE, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (REFERENCE / case).mkdir(parents=True)
            for name, data in artifacts(run(case, Path(tmp) / case)).items():
                (REFERENCE / case / name).write_bytes(data)
