"""The benchmark's own tests: every workload at toy sizes, in both modes,
and every correctness check rejecting a corrupted output.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from kashin import conversion, formats, frames, linalg, quantize, uncertainty  # noqa: E402
from spans import Tracer  # noqa: E402

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_outside_a_checkout_fails(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_paused_tracer_records_no_spans():
    tracer = Tracer()
    tracer.install([linalg])
    try:
        with tracer.paused():
            linalg.dft(np.ones(8, dtype=complex))
        assert tracer.spans == []
        linalg.dft(np.ones(8, dtype=complex))
    finally:
        tracer.uninstall()
    count = len(tracer.spans)
    assert tracer.spans[0][0] == "linalg.dft" and all(rec[4] == 0 for rec in tracer.spans)
    linalg.dft(np.ones(8, dtype=complex))
    assert len(tracer.spans) == count


@pytest.fixture(scope="module")
def encoded():
    frame = frames.gen_random_orthogonal(32, 64, 3)
    cfg = conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=workloads.ETA, delta=0.05),
        truncation=conversion.TruncationSpec(), iterations=20,
        frame_epsilon=frame.tightness_eps + 1e-12)
    x = workloads.column_input(frame, 5)
    return frame, x, conversion.kashin_encode(frame, x, cfg), cfg


def test_encoding_check_rejects_a_perturbed_coefficient(encoded):
    frame, x, rep, cfg = encoded
    checks.check_encoding(frame, x, rep, workloads.ETA, cfg.frame_epsilon)
    a = rep.coefficients.copy()
    a[7] += 1e-6
    bad = dataclasses.replace(rep, coefficients=a)
    with pytest.raises(CheckFailed, match="final residual"):
        checks.check_encoding(frame, x, bad, workloads.ETA, cfg.frame_epsilon)


def test_encoding_check_rejects_a_pass_above_eta(encoded):
    frame, x, rep, cfg = encoded
    with pytest.raises(CheckFailed, match="contracted"):
        checks.check_encoding(frame, x, rep, 0.1, cfg.frame_epsilon)


def test_decoding_check_rejects_a_misdecoded_vector(encoded):
    frame, _, rep, _ = encoded
    x_hat = conversion.kashin_decode(frame, rep)
    checks.check_decoded(frame, rep.coefficients, x_hat)
    x_hat[3] += 1e-7
    with pytest.raises(CheckFailed, match="decoded"):
        checks.check_decoded(frame, rep.coefficients, x_hat)


def test_decoding_reference_for_fourier_frames():
    frame = frames.gen_partial_fourier(48, 24, 2, mode=frames.EXACT_N)
    a = np.random.default_rng(0).standard_normal(48) + 0j
    checks.check_decoded(frame, a, frames.synthesis(frame, a))
    with pytest.raises(CheckFailed):
        checks.check_decoded(frame, a, frames.synthesis(frame, a[::-1].copy()))


def test_quantizer_check_rejects_a_moved_component(encoded):
    _, _, rep, _ = encoded
    spec = quantize.QuantizerSpec.from_representation(rep, 16)
    a_hat = quantize.quantize_coeffs(rep.coefficients, spec)[1]
    checks.check_quantized(rep.coefficients, a_hat, spec)
    a_hat[0] += spec.step
    with pytest.raises(CheckFailed, match="step/2"):
        checks.check_quantized(rep.coefficients, a_hat, spec)


def test_channel_check_rejects_an_extra_erasure(encoded):
    _, _, rep, _ = encoded
    model = quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=0.1, seed=4)
    damaged = quantize.apply_error_model(rep.coefficients, model, 1.0)
    checks.check_channel(quantize.ERASURE, rep.coefficients, damaged, 0.1, 0, 1.0)
    damaged[np.flatnonzero(damaged)[0]] = 0.0
    with pytest.raises(CheckFailed, match="erasure changed"):
        checks.check_channel(quantize.ERASURE, rep.coefficients, damaged, 0.1, 0, 1.0)


def test_distortion_check_rejects_a_wrong_error(encoded):
    frame, x, rep, _ = encoded
    spec = quantize.QuantizerSpec.from_representation(rep, 64)
    model = quantize.ErrorModel(tag=quantize.ADVERSARIAL, damage_fraction=0.05, seed=2)
    report = quantize.distortion_experiment(frame, x, rep, spec, model)
    damaged = quantize.apply_error_model(rep.coefficients, model, spec.range_half_width)
    checks.check_distortion(frame, x, report, damaged)
    bad = dataclasses.replace(report, l2_error=report.l2_error * 0.99,
                              bound_satisfied=True)
    with pytest.raises(CheckFailed, match="l2_error"):
        checks.check_distortion(frame, x, bad, damaged)


@pytest.mark.parametrize("family", [frames.RANDOM_ORTHOGONAL, frames.PARTIAL_FOURIER])
def test_witness_check_rejects_a_wrong_ratio(family):
    frame = (frames.gen_random_orthogonal(8, 32, 1) if family == frames.RANDOM_ORTHOGONAL
             else frames.gen_partial_fourier(64, 16, 1, mode=frames.EXACT_N))
    delta = 0.1 if family == frames.RANDOM_ORTHOGONAL else 0.6
    width = checks.fraction_count(delta, frame.N)
    ratio, witness = uncertainty.up_estimate(frame, delta, 3, 7)
    checks.check_witness(frame, ratio, witness, width)
    wrong = ratio * 1.01
    with pytest.raises(CheckFailed, match="ratio"):
        checks.check_witness(frame, wrong, dataclasses.replace(witness, ratio=wrong), width)


def test_exhaustive_check_rejects_a_larger_estimate():
    checks.check_exhaustive(0.8, [0.7, 0.8])
    with pytest.raises(CheckFailed, match="below a sampled estimate"):
        checks.check_exhaustive(0.8, [0.81])


def test_csv_check_rejects_an_altered_row(tmp_path):
    rows = [formats.ExperimentRow(
        family="dense", n=4, N=8, up_eta=0.9, up_delta=0.25, K=3.0, L=64,
        model=tag, damage_fraction=0.1, seed=s, l2_error=0.1 * s, bound=1.0,
        bound_ok=True) for s, tag in enumerate(quantize.MODEL_TAGS)]
    path = tmp_path / "rows.csv"
    formats.write_experiment_csv(path, rows)
    expected = [{"model": r.model, "seed": r.seed, "l2_error": r.l2_error,
                 "bound": r.bound, "bound_ok": r.bound_ok} for r in rows]
    checks.check_csv(path, expected)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("0.10000000000000001", "0.10000000000000002")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="l2_error"):
        checks.check_csv(path, expected)
