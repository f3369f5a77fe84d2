"""The experiment scripts in ``scripts/`` run end to end at toy size."""

import importlib.util
from pathlib import Path

import pytest

from kashin import formats, frames, quantize

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def decay_experiment():
    return _load("decay_experiment")


@pytest.fixture(scope="module")
def quantizer_sweep():
    return _load("quantizer_sweep")


def test_decay_experiment_over_all_families(decay_experiment, tmp_path, capsys):
    out = tmp_path / "decay.csv"
    assert decay_experiment.main([
        "--out", str(out), "--shapes", "16x32", "--trials", "2",
        "--families", *frames.FAMILY_TAGS,
    ]) == 0
    rows = formats.read_experiment_csv(out)
    # subgaussian frames at n = N/2 are too far from tight to contract
    # (eta' >= 1), so they are skipped rather than swept
    assert [r.family for r in rows] == [frames.RANDOM_ORTHOGONAL] * 2 + [
        frames.PARTIAL_FOURIER] * 2
    assert all((r.n, r.N, r.model, r.L) == (16, 32, "decay", 0) for r in rows)
    assert all(r.bound_ok for r in rows)
    assert capsys.readouterr().out.count("skipped: adjusted eta") == 2


def test_quantizer_sweep_rows(quantizer_sweep, tmp_path):
    out = tmp_path / "sweep.csv"
    assert quantizer_sweep.main([
        "--out", str(out), "--levels", "16", "64", "--trials", "2",
    ]) == 0
    rows = formats.read_experiment_csv(out)
    # per level: 2 codec + 2 baseline quantize-only rows, 2 erasure rows
    assert len(rows) == 12
    assert {r.family for r in rows} == {frames.RANDOM_ORTHOGONAL}
    assert [(r.L, r.model) for r in rows[:6]] == [
        (16, quantize.QUANTIZE_ONLY), (16, "baseline")] * 2 + [
        (16, quantize.ERASURE)] * 2
    assert sorted({r.L for r in rows}) == [16, 64]
    assert all(r.damage_fraction == (4 / 128 if r.model == quantize.ERASURE else 0.0)
               for r in rows)
    assert all(r.bound_ok for r in rows)


def test_quantizer_sweep_without_baseline(quantizer_sweep, tmp_path):
    out = tmp_path / "sweep.csv"
    assert quantizer_sweep.main([
        "--out", str(out), "--levels", "16", "--trials", "2",
        "--models", quantize.ADVERSARIAL, "--no-baseline",
    ]) == 0
    rows = formats.read_experiment_csv(out)
    assert [(r.model, r.seed) for r in rows] == [(quantize.ADVERSARIAL, 0),
                                                 (quantize.ADVERSARIAL, 1)]
    assert all(r.bound_ok for r in rows)
