"""Per-layer metrics derived from the spans of one traced run.

Per-call times are medians over calls.  Names ending in ``self_<unit>``,
and the frame operators split by frame (``dense``, ``fourier``,
``small``), are self times: a span's duration minus its child spans.
Every other per-call time includes the calls it makes.  A layer that
does not run in a workload reports 0: no calls, no time.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from spans import self_times

MS, US, S = 1e-6, 1e-3, 1e-9  # ns -> unit


def frame_label(attrs: dict) -> str:
    """Which frame-operator metric a call belongs to."""
    if attrs["kind"] == "partial-fourier":
        return "fourier"
    return "small" if attrs["N"] <= 256 else "dense"


def transform_label(attrs: dict) -> str:
    N = attrs["N"]
    return "pow2" if N & (N - 1) == 0 else "other"


def per_layer(spans, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, by name, from one
    run's spans."""
    selfs = self_times(spans)
    incl = defaultdict(list)   # key -> inclusive durations (ns)
    own = defaultdict(list)    # key -> self times (ns)
    per_call = defaultdict(list)  # key -> duration per support (ns)
    passes = defaultdict(int)  # kashin_encode span -> truncation passes
    ops = [i for i, rec in enumerate(spans) if rec[0] == "op"]
    analysis_in_ops = supports = 0
    for i, rec in enumerate(spans):
        name, start, end, parent, root, attrs = rec
        phase = spans[root][0]
        dur = end - start
        key = name
        if name in ("frames.analysis", "frames.synthesis"):
            key = f"{name}.{frame_label(attrs)}"
            analysis_in_ops += phase == "op" and name == "frames.analysis"
        elif name in ("linalg.dft", "linalg.idft"):
            key = f"{name}.{transform_label(attrs)}"
        elif name == "conversion.kashin_encode" and phase == "op":
            key = f"{name}.{spans[root][5]['input']}"
        elif name == "quantize.distortion_experiment":
            key = f"{name}.{attrs['model']}"
        elif name == "cli.run":
            key = f"{name}.{attrs['command']}"
        elif name == "conversion.truncation_operator":
            passes[parent] += 1
        if name.startswith("uncertainty.up_") and phase == "op":
            key = f"{name}.{frame_label(attrs)}"
            per_call[key].append(dur / attrs["supports"])
            supports += attrs["supports"]
        incl[(phase, key)].append(dur)
        own[(phase, key)].append(selfs[i])

    def med(table, phase, key, scale):
        values = table.get((phase, key))
        return median(values) * scale if values else 0.0

    encode_passes = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[0] == "conversion.kashin_encode" and spans[rec[4]][0] == "op":
            encode_passes[spans[rec[4]][5]["input"]].append(passes[i])

    out = {}
    for label in ("dense", "fourier"):
        for op_name in ("analysis", "synthesis"):
            out[f"frames.{op_name}.{label}_ms"] = med(own, "op", f"frames.{op_name}.{label}", MS)
    dense_calls = [
        rec for rec in spans
        if rec[0] == "frames.analysis" and frame_label(rec[5]) == "dense"
    ]
    dense_self = out["frames.analysis.dense_ms"]
    out["frames.analysis.dense_gbps_computed"] = (
        16 * dense_calls[0][5]["n"] * dense_calls[0][5]["N"] / (dense_self * 1e-3) / 1e9
        if dense_calls and dense_self else 0.0
    )
    out["frames.synthesis.small_us"] = med(own, "op", "frames.synthesis.small", US)
    out["frames.analysis.calls_per_op"] = analysis_in_ops / len(ops) if ops else 0.0
    for name in ("dft", "idft"):
        for label in ("pow2", "other"):
            out[f"linalg.{name}.{label}_ms"] = med(incl, "op", f"linalg.{name}.{label}", MS)
    for kind in ("column", "random"):
        out[f"conversion.kashin_encode.{kind}_ms"] = med(
            incl, "op", f"conversion.kashin_encode.{kind}", MS)
    out["conversion.truncation_operator.self_ms"] = med(
        own, "op", "conversion.truncation_operator", MS)
    out["conversion.kashin_decode_ms"] = med(incl, "op", "conversion.kashin_decode", MS)
    for kind in ("column", "random"):
        counts = encode_passes.get(kind)
        out[f"conversion.passes.{kind}"] = sum(counts) / len(counts) if counts else 0.0
    for name in ("frames.measure_tightness", "linalg.qr_orthonormalize_rows",
                 "frames.gen_random_orthogonal", "frames.gen_partial_fourier"):
        out[f"{name}_s"] = med(incl, "setup", name, S)
    out["formats.frame_from_bytes.self_s"] = med(own, "setup", "formats.frame_from_bytes", S)
    for label in ("dense", "fourier"):
        values = per_call.get(f"uncertainty.up_estimate.{label}")
        out[f"uncertainty.up_estimate.trial_ms.{label}"] = median(values) * MS if values else 0.0
    values = per_call.get("uncertainty.up_check_exact.small")
    out["uncertainty.up_check_exact.support_us"] = median(values) * US if values else 0.0
    out["uncertainty.supports_per_op"] = supports / len(ops) if ops else 0.0
    out["quantize.quantize_coeffs_us"] = med(incl, "op", "quantize.quantize_coeffs", US)
    for tag in ("quantize-only", "erasure", "adversarial", "bit-flip"):
        out[f"quantize.distortion_experiment.self_us.{tag}"] = med(
            own, "op", f"quantize.distortion_experiment.{tag}", US)
    out["formats.write_experiment_csv_ms"] = med(incl, "op", "formats.write_experiment_csv", MS)
    for name in ("representation_to_bytes", "representation_from_bytes"):
        out[f"formats.{name}_us"] = med(incl, "op", f"formats.{name}", US)
    out["formats.read_vector_ms"] = med(incl, "cli", "formats.read_vector", MS)
    for command in ("encode", "decode", "up-check", "simulate"):
        out[f"cli.run.{command}_s"] = med(incl, "cli", f"cli.run.{command}", S)
    out["trace.overhead_pct"] = overhead_pct
    op_time = sum(spans[i][2] - spans[i][1] for i in ops)
    out["trace.op_residual_pct"] = 100.0 * sum(selfs[i] for i in ops) / op_time if op_time else 0.0
    return out
