"""Correctness checks on the outputs of one benchmark operation.

Every check recomputes what it compares against with numpy, apart from
the package's own frame operators, or tests a property the method must
have.  None compares against a stored copy of an earlier output.  A
failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# relative float tolerance for quantities computed two different ways
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def frame_columns(frame, support) -> np.ndarray:
    """Columns ``support`` of the frame matrix, built here: the stored
    matrix for dense frames, DFT rows ``exp(-2 pi i w k / N)/sqrt(N)``
    for partial Fourier frames."""
    support = np.asarray(support, dtype=np.int64)
    if frame.matrix is not None:
        return frame.matrix[:, support]
    phase = np.outer(frame.omega, support) % frame.N
    return np.exp((-2j * np.pi / frame.N) * phase) / math.sqrt(frame.N)


def synthesize(frame, a) -> np.ndarray:
    """U @ a computed apart from ``kashin.frames``."""
    if frame.matrix is not None:
        return frame.matrix @ a
    return np.fft.fft(a, norm="ortho")[frame.omega]


def adjusted_eta(eta: float, eps: float) -> float:
    """eta' for exact clipping against a frame tight up to (1 +/- eps)."""
    if eps > 0.0:
        return math.sqrt(1.0 + eps) * eta + eps
    return eta


def check_encoding(frame, x, rep, eta: float, eps: float) -> None:
    """Certificates and per-pass contraction of one encoding."""
    a = rep.coefficients
    norm = float(np.linalg.norm(x))
    require(abs(rep.input_norm - norm) <= REL_TOL * norm,
            f"input_norm {rep.input_norm} differs from ||x|| = {norm}")
    residual = float(np.linalg.norm(x - synthesize(frame, a)))
    require(residual <= rep.residual_bound,
            f"residual {residual} exceeds the certified bound {rep.residual_bound}")
    peak = float(np.max(np.abs(a)))
    cap = rep.level_K * norm / math.sqrt(a.size)
    require(peak <= cap * (1.0 + REL_TOL),
            f"max|a_i| = {peak} exceeds level_K*||x||/sqrt(N) = {cap}")
    eta_p = adjusted_eta(eta, eps)
    prev = norm
    for k, rn in enumerate(rep.residual_norms, 1):
        require(rn <= eta_p * prev + 1e-12 * norm,
                f"pass {k} contracted by {rn / prev:.6f} > eta' = {eta_p:.6f}")
        prev = rn
    require(abs(prev - residual) <= 1e-10 * norm,
            f"recorded final residual {prev} differs from ||x - Ua|| = {residual}")


def check_quantized(a, a_hat, spec) -> None:
    """Every quantized component lies within step/2 of its input."""
    half = spec.step / 2.0 * (1.0 + REL_TOL)
    require(bool(np.all(np.abs(a_hat.real - a.real) <= half)),
            "a real component moved by more than step/2")
    if spec.complex_mode:
        require(bool(np.all(np.abs(a_hat.imag - a.imag) <= half)),
                "an imaginary component moved by more than step/2")
    else:
        require(bool(np.all(a_hat.imag == 0.0)), "real-mode output has imaginary parts")


def fraction_count(fraction: float, N: int) -> int:
    return int(math.floor(fraction * N + 1e-9))


def check_channel(tag: str, sent, received, fraction: float, flips: int,
                  clamp_W: float) -> None:
    """Channel damage touches only what the model allows.

    Erasure zeroes exactly floor(f*N) coefficients; the adversary replaces
    at most that many, within magnitude W; bit flips change at most one
    coefficient per flip, within W.  Everything else is bit-identical.
    """
    changed = np.flatnonzero(sent != received)
    if tag == "erasure":
        want = fraction_count(fraction, sent.size)
        require(changed.size == want,
                f"erasure changed {changed.size} coefficients, expected {want}")
        require(bool(np.all(received[changed] == 0.0)), "an erased coefficient is nonzero")
        return
    limit = flips if tag == "bit-flip" else fraction_count(fraction, sent.size)
    require(changed.size <= limit,
            f"{tag} changed {changed.size} coefficients, at most {limit} allowed")
    require(bool(np.all(np.abs(received[changed]) <= clamp_W * (1.0 + REL_TOL))),
            f"{tag} wrote a coefficient above the clamp {clamp_W}")


def check_decoded(frame, a, x_hat) -> None:
    """The decoded vector equals U @ a computed with numpy."""
    ref = synthesize(frame, a)
    err = float(np.linalg.norm(x_hat - ref))
    require(err <= 1e-10 * max(float(np.linalg.norm(a)), 1e-300),
            f"decoded vector is {err} away from U @ a")


def check_distortion(frame, x, report, damaged) -> None:
    """l2_error equals ||x - U damaged|| and is within the budget."""
    l2 = float(np.linalg.norm(x - synthesize(frame, damaged)))
    require(abs(report.l2_error - l2) <= REL_TOL * max(l2, 1e-12),
            f"l2_error {report.l2_error} differs from ||x - U damaged|| = {l2}")
    require(report.l2_error <= report.theoretical_bound,
            f"l2_error {report.l2_error} exceeds the bound {report.theoretical_bound}")


def check_witness(frame, ratio: float, witness, width: int) -> None:
    """A calibration witness realizes its ratio and is a lower bound.

    The ratio must equal ||U_S v|| for columns built here, lie below
    sigma_max(U_S) from numpy's SVD, and stay at most 1 (U_S is a column
    subset of a tight frame).
    """
    support = np.asarray(witness.support, dtype=np.int64)
    require(support.size == width, f"witness support has {support.size} entries, not {width}")
    v = witness.vector
    off = np.ones(v.size, dtype=bool)
    off[support] = False
    require(bool(np.all(v[off] == 0.0)), "witness vector is nonzero off its support")
    require(abs(float(np.linalg.norm(v)) - 1.0) <= REL_TOL, "witness vector is not a unit vector")
    cols = frame_columns(frame, support)
    realized = float(np.linalg.norm(cols @ v[support]))
    require(abs(ratio - realized) <= REL_TOL * max(realized, 1e-12),
            f"witness ratio {ratio} differs from ||U_S v|| = {realized}")
    require(witness.ratio == ratio, "returned ratio and witness ratio differ")
    smax = float(np.linalg.svd(cols, compute_uv=False)[0])
    require(ratio <= smax * (1.0 + REL_TOL), f"ratio {ratio} exceeds sigma_max(U_S) = {smax}")
    require(ratio <= 1.0 + REL_TOL, f"ratio {ratio} exceeds 1")


def check_exhaustive(exact: float, estimates) -> None:
    """Exhaustive enumeration dominates every sampled estimate."""
    for est in estimates:
        require(exact >= est * (1.0 - 1e-12),
                f"exact value {exact} is below a sampled estimate {est}")


def check_csv(path, expected) -> None:
    """The experiment CSV holds exactly the expected rows.

    ``expected`` is a list of dicts keyed by CSV column; numbers are
    compared after parsing, so the file must round-trip them exactly.
    """
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    require(len(records) == len(expected) + 1,
            f"CSV has {len(records) - 1} rows, expected {len(expected)}")
    header = records[0]
    for lineno, (record, want) in enumerate(zip(records[1:], expected), 2):
        row = dict(zip(header, record))
        for key, value in want.items():
            cell = row.get(key)
            if isinstance(value, bool):
                ok = cell == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                try:
                    ok = float(cell) == float(value)
                except (TypeError, ValueError):
                    ok = False
            else:
                ok = cell == value
            require(ok, f"CSV line {lineno}: {key} = {cell!r}, expected {value!r}")
