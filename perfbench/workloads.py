"""The four benchmark workloads.

Each workload has a set-up (generate its frames, write them as ``.kfrm``
and read them back with ``formats.read_frame``), a fixed round of
operations whose inputs are drawn from the benchmark seed, and a CLI
sample run in-process through ``kashin.cli.run``.  Every operation
returns its outputs to a check from ``checks`` that runs outside the
timed region.

Shapes and the composition of a round are chosen so that each class of
operation (one frame, one pass count) takes a fixed share of every run,
and the median and the 90th percentile each fall well inside one class.
The README lists the classes, their shares and where the percentiles
fall.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kashin import cli, conversion, formats, frames, quantize, uncertainty

import checks
from checks import require

# (eta, delta) for encoding: above the sampled calibration of every frame
# used here, and far above the measured per-pass contraction (<= 0.45),
# so no operation raises NonConvergence.  delta = 0.02 keeps random inputs
# at one pass (the clip level is 7 coefficient RMS) while frame columns
# clip for 3 (dense) or 4 (power-of-two Fourier) passes.
ETA = 0.9
DELTA = 0.02
ITERS = 20
LEVELS = 64
DAMAGE = 0.02
CHANNELS = (quantize.ERASURE, quantize.ADVERSARIAL, quantize.BIT_FLIP)
MODELS = quantize.MODEL_TAGS
_CLI_MODELS = {
    quantize.QUANTIZE_ONLY: "quantize",
    quantize.ERASURE: "erasure",
    quantize.ADVERSARIAL: "adversarial",
    quantize.BIT_FLIP: "bitflip",
}


@dataclass(frozen=True)
class FrameSpec:
    """One frame of a workload: label, family and shape."""

    label: str
    family: str
    n: int
    N: int


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run`` is the program work, ``check``
    verifies its output untimed, ``label`` names the op's class from its
    output (frame, input kind, pass count)."""

    cls: str
    run: Callable[[], object]
    check: Callable[[object], None]
    label: Callable[[object], str]


def _run_cli(argv) -> str:
    """Run one CLI command in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    require(code == 0, f"`kashin {' '.join(argv)}` exited with code {code}")
    return out.getvalue()


def frame_seed(seed: int, index: int) -> int:
    """Seed of the index-th frame of a run, derived from the run seed."""
    return int(np.random.SeedSequence([seed, 1000 + index]).generate_state(1, np.uint64)[0])


def _generate(spec: FrameSpec, seed: int):
    if spec.family == frames.PARTIAL_FOURIER:
        return frames.gen_partial_fourier(spec.N, spec.n, seed, mode=frames.EXACT_N)
    return frames.gen_random_orthogonal(spec.n, spec.N, seed)


def _config(frame) -> conversion.ConversionConfig:
    # the same configuration the CLI builds from --eta/--delta/--iters
    return conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=ETA, delta=DELTA),
        truncation=conversion.TruncationSpec(),
        iterations=ITERS,
        frame_epsilon=frame.tightness_eps + 1e-12,
    )


def _complex_mode(rep) -> bool:
    return bool(np.max(np.abs(rep.coefficients.imag)) > 1e-12 * max(rep.input_norm, 1.0))


def unit(v) -> np.ndarray:
    return v / np.linalg.norm(v)


def column_input(frame, j: int) -> np.ndarray:
    """Frame column j, normalized: an input that really clips."""
    return unit(checks.frame_columns(frame, [j])[:, 0])


class Workload:
    """Shared set-up: generate, write and read back the frames."""

    name = ""
    specs: tuple[FrameSpec, ...] = ()
    setup_reps = 3
    cli_reps = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.frames: dict[str, frames.FrameMatrix] = {}
        self.paths: dict[str, str] = {}

    def setup(self) -> None:
        """Program work timed as ``setup_s``."""
        for index, spec in enumerate(self.specs):
            made = _generate(spec, frame_seed(self.seed, index))
            path = str(self.workdir / f"{spec.label}.kfrm")
            formats.write_frame(path, made)
            self.frames[spec.label] = formats.read_frame(path)
            self.paths[spec.label] = path

    def check_setup(self) -> None:
        """Frames read back are the frames generated, and tight."""
        g = np.random.default_rng(self.seed)
        for spec in self.specs:
            frame = self.frames[spec.label]
            require((frame.n, frame.N) == (spec.n, spec.N), f"{spec.label}: wrong shape")
            if frame.kind == frames.DENSE:
                v = g.standard_normal(frame.n)
                coeffs = frame.matrix.conj().T @ v
                require(abs(np.linalg.norm(coeffs) - np.linalg.norm(v))
                        <= 1e-10 * np.linalg.norm(v), f"{spec.label}: frame is not tight")
            else:
                require(np.unique(frame.omega).size == spec.n, f"{spec.label}: repeated rows")
            require(frame.tightness_eps <= 1e-10,
                    f"{spec.label}: measured tightness defect {frame.tightness_eps}")

    def round(self, rng) -> list[Op]:
        raise NotImplementedError

    def cli_sample(self) -> None:
        """Program work timed as one ``cli_s`` sample."""
        raise NotImplementedError

    def check_cli(self) -> None:
        raise NotImplementedError


class Codec(Workload):
    """encode -> quantize -> channel -> .kcof round trip -> decode."""

    # (frame label, input kind) per op, in round order
    plan: tuple[tuple[str, str], ...] = ()
    flips = 8

    def _op(self, label: str, kind: str, rng, position: int) -> Op:
        frame = self.frames[label]
        cfg = _config(frame)
        if kind == "column":
            x = column_input(frame, int(rng.integers(frame.N)))
        else:
            x = unit(rng.standard_normal(frame.n))
        tag = CHANNELS[position % len(CHANNELS)]
        model = quantize.ErrorModel(tag=tag, damage_fraction=DAMAGE,
                                    flip_count=self.flips,
                                    seed=int(rng.integers(2**32)))

        def run():
            rep = conversion.kashin_encode(frame, x, cfg)
            complex_mode = _complex_mode(rep)
            spec = quantize.QuantizerSpec.from_representation(
                rep, LEVELS, complex_mode=complex_mode)
            a_hat = quantize.quantize_coeffs(rep.coefficients, spec)[1]
            damaged = quantize.apply_error_model(
                a_hat, model, spec.range_half_width, spec)
            # midpoint pairs reach sqrt(2) W in complex mode, as in `kashin quantize`
            cfac = math.sqrt(2.0) if complex_mode else 1.0
            sent = conversion.KashinRepresentation(
                coefficients=damaged, level_K=rep.level_K * cfac,
                input_norm=rep.input_norm, residual_bound=rep.residual_bound,
                iterations_used=rep.iterations_used)
            received = formats.representation_from_bytes(
                formats.representation_to_bytes(sent))
            return rep, spec, a_hat, damaged, received, conversion.kashin_decode(frame, received)

        def check(out):
            rep, spec, a_hat, damaged, received, x_hat = out
            checks.check_encoding(frame, x, rep, ETA, cfg.frame_epsilon)
            checks.check_quantized(rep.coefficients, a_hat, spec)
            checks.check_channel(tag, a_hat, damaged, DAMAGE, self.flips,
                                 spec.range_half_width)
            require(bool(np.array_equal(received.coefficients, damaged))
                    and received.input_norm == rep.input_norm
                    and received.residual_bound == rep.residual_bound,
                    ".kcof round trip changed the representation")
            checks.check_decoded(frame, received.coefficients, x_hat)

        return Op(cls=f"{label}/{kind}", run=run, check=check,
                  label=lambda out: f"{label}/{kind}/{out[0].iterations_used}p")

    def round(self, rng) -> list[Op]:
        return [self._op(label, kind, rng, i) for i, (label, kind) in enumerate(self.plan)]

    def _cli_files(self, label: str) -> dict[str, str]:
        stem = str(self.workdir / f"cli-{label}")
        return {"vec": stem + ".vec", "kcof": stem + ".kcof", "out": stem + "-out.vec"}

    def prepare_cli(self) -> None:
        g = np.random.default_rng(self.seed)
        for label, frame in self.frames.items():
            x = column_input(frame, int(g.integers(frame.N)))
            formats.write_vector(self._cli_files(label)["vec"], x)

    def cli_sample(self) -> None:
        for label in self.frames:
            files = self._cli_files(label)
            _run_cli(["encode", self.paths[label], "--in", files["vec"],
                      "--eta", str(ETA), "--delta", str(DELTA),
                      "--iters", str(ITERS), "--out", files["kcof"]])
            _run_cli(["decode", self.paths[label], "--in", files["kcof"],
                      "--out", files["out"]])

    def check_cli(self) -> None:
        for label, frame in self.frames.items():
            files = self._cli_files(label)
            x = formats.read_vector(files["vec"])
            rep = conversion.kashin_encode(frame, x, _config(frame))
            require(Path(files["kcof"]).read_bytes() == formats.representation_to_bytes(rep),
                    f"{label}: `kashin encode` output differs from kashin_encode")
            decoded = np.loadtxt(files["out"], ndmin=2)
            decoded = decoded[:, 0] + 1j * decoded[:, 1]
            require(bool(np.array_equal(decoded, conversion.kashin_decode(frame, rep))),
                    f"{label}: `kashin decode` output differs from kashin_decode")
            checks.check_decoded(frame, rep.coefficients, decoded)


class DenseCodec(Codec):
    name = "dense-codec"
    specs = (FrameSpec("dense", frames.RANDOM_ORTHOGONAL, 1024, 2048),)
    # 80% random inputs (1 pass), 20% frame columns (3 passes): the median
    # sits at the random class's 62nd percentile, the 90th percentile at
    # the column class's median
    plan = ((("dense", "random"),) * 4 + (("dense", "column"),)) * 2
    setup_reps = 3
    cli_reps = 3


class FourierCodec(Codec):
    name = "fourier-codec"
    # pow2: N a power of two above the materialization cap (radix-2 path,
    # no tightness SVD); other: N not a power of two (direct DFT path, and
    # read_frame measures tightness by SVD)
    specs = (
        FrameSpec("pow2", frames.PARTIAL_FOURIER, 2048, 4096),
        FrameSpec("other", frames.PARTIAL_FOURIER, 240, 480),
    )
    # pow2/random (1 pass) 80% of ops, pow2/column (4 passes) 17.5%, other
    # frame 2.5%: the median sits at pow2/random's 62nd percentile, the
    # 90th percentile near pow2/column's median, and the slow direct-DFT
    # ops (2-3 passes, about a third of the time) lie above both
    plan = tuple(
        op for other in ("random", "column")
        for op in [("pow2", "random")] * 32 + [("pow2", "column")] * 7 + [("other", other)]
    )
    setup_reps = 15
    cli_reps = 21


class Calibrate(Workload):
    name = "calibrate"
    specs = (
        FrameSpec("dense", frames.RANDOM_ORTHOGONAL, 256, 1024),
        FrameSpec("fourier", frames.PARTIAL_FOURIER, 256, 1024),
        FrameSpec("tiny", frames.RANDOM_ORTHOGONAL, 6, 16),
    )
    # dense: width floor(0.03*1024) = 30 <= 32, the exact-SVD path;
    # fourier: width 51 > 32, the power-iteration path; tiny: width 3 of
    # 16, C(16, 3) = 560 supports enumerated
    deltas = {"dense": 0.03, "fourier": 0.05, "tiny": 0.2}
    trials = {"dense": 5, "fourier": 8, "tiny": 8}
    cli_trials = {"dense": 20, "fourier": 4}
    # dense 80% of ops, tiny 17.5%, fourier 2.5%: the median sits at the
    # dense class's 62nd percentile, the 90th percentile near the tiny
    # class's median, and the slow Fourier ops (about a third of the
    # time) lie above both
    plan = ("dense",) * 4 + (("tiny",) + ("dense",) * 4) * 7 + ("fourier",)
    setup_reps = 7
    cli_reps = 11

    def _width(self, label: str) -> int:
        return checks.fraction_count(self.deltas[label], self.frames[label].N)

    def _op(self, label: str, rng) -> Op:
        frame = self.frames[label]
        delta, trials = self.deltas[label], self.trials[label]
        width = self._width(label)
        seed = int(rng.integers(2**32))
        if label == "tiny":
            def run():
                exact = uncertainty.up_check_exact(frame, delta)
                return exact, uncertainty.up_estimate(frame, delta, trials, seed)

            def check(out):
                (exact, witness), (est, est_witness) = out
                checks.check_witness(frame, exact, witness, width)
                checks.check_witness(frame, est, est_witness, width)
                checks.check_exhaustive(exact, [est])
        else:
            def run():
                return uncertainty.up_estimate(frame, delta, trials, seed)

            def check(out):
                checks.check_witness(frame, out[0], out[1], width)

        return Op(cls=label, run=run, check=check, label=lambda out: label)

    def round(self, rng) -> list[Op]:
        return [self._op(label, rng) for label in self.plan]

    def prepare_cli(self) -> None:
        self.cli_seed = frame_seed(self.seed, 99) % 2**32

    def _cli_argv(self, label: str) -> list[str]:
        argv = ["up-check", self.paths[label], "--delta", str(self.deltas[label])]
        if label == "tiny":
            return argv + ["--exact"]
        return argv + ["--trials", str(self.cli_trials[label]), "--seed", str(self.cli_seed)]

    def cli_sample(self) -> None:
        self.cli_text = {label: _run_cli(self._cli_argv(label)) for label in self.frames}

    def check_cli(self) -> None:
        for label, text in self.cli_text.items():
            frame = self.frames[label]
            delta = self.deltas[label]
            if label == "tiny":
                eta, witness = uncertainty.up_check_exact(frame, delta)
            else:
                eta, witness = uncertainty.up_estimate(
                    frame, delta, self.cli_trials[label], self.cli_seed)
            lines = text.splitlines()
            require(lines[0].endswith(f": {eta:.17g}"),
                    f"{label}: `kashin up-check` printed {lines[0]!r}, library gives {eta!r}")
            require(lines[1] == f"worst support: {list(witness.support)}",
                    f"{label}: `kashin up-check` printed another witness")
            checks.check_witness(frame, eta, witness, self._width(label))


class ChannelSim(Workload):
    name = "channel-sim"
    specs = (
        FrameSpec("small", frames.RANDOM_ORTHOGONAL, 64, 128),
        FrameSpec("large", frames.RANDOM_ORTHOGONAL, 128, 256),
    )
    # trials per model in one op; the large frame's batch is five times
    # as long, so a hiccup in a small op does not reach the large class
    batch = {"small": 8, "large": 40}
    # small 80%, large 20%: the median sits at the small class's 62nd
    # percentile, the 90th percentile at the large class's median
    plan = (("small",) * 4 + ("large",)) * 2
    cli_trials = 25
    setup_reps = 15
    cli_reps = 21

    def _flips(self, frame) -> int:
        return max(1, int(DAMAGE * frame.N))

    def _models(self, frame, base: int, count: int):
        return [quantize.ErrorModel(tag=tag, damage_fraction=DAMAGE,
                                    flip_count=self._flips(frame), seed=base + t)
                for tag in MODELS for t in range(count)]

    def _rows(self, frame, rep, models, reports) -> list[formats.ExperimentRow]:
        return [formats.ExperimentRow(
            family=frame.kind, n=frame.n, N=frame.N, up_eta=ETA, up_delta=DELTA,
            K=rep.level_K, L=LEVELS, model=m.tag, damage_fraction=DAMAGE, seed=m.seed,
            l2_error=r.l2_error, bound=r.theoretical_bound, bound_ok=r.bound_satisfied)
            for m, r in zip(models, reports)]

    def _op(self, label: str, rng, position: int) -> Op:
        frame = self.frames[label]
        cfg = _config(frame)
        x = unit(rng.standard_normal(frame.n))
        count = self.batch[label]
        models = self._models(frame, int(rng.integers(2**32)), count)
        path = str(self.workdir / f"sim-{label}.csv")

        def run():
            rep = conversion.kashin_encode(frame, x, cfg)
            spec = quantize.QuantizerSpec.from_representation(
                rep, LEVELS, complex_mode=_complex_mode(rep))
            reports = [quantize.distortion_experiment(frame, x, rep, spec, m) for m in models]
            formats.write_experiment_csv(path, self._rows(frame, rep, models, reports))
            return rep, spec, reports

        def check(out):
            rep, spec, reports = out
            checks.check_encoding(frame, x, rep, ETA, cfg.frame_epsilon)
            # recompute one trial per model, rotating through the batch
            for k in range(len(MODELS)):
                i = k * count + position % count
                m, report = models[i], reports[i]
                W = spec.range_half_width
                if m.tag == quantize.QUANTIZE_ONLY:
                    damaged = quantize.quantize_coeffs(rep.coefficients, spec)[1]
                    checks.check_quantized(rep.coefficients, damaged, spec)
                else:
                    damaged = quantize.apply_error_model(rep.coefficients, m, W, spec)
                    # bit flips act on the quantized code stream
                    sent = (quantize.quantize_coeffs(rep.coefficients, spec)[1]
                            if m.tag == quantize.BIT_FLIP else rep.coefficients)
                    checks.check_channel(m.tag, sent, damaged, DAMAGE, m.flip_count, W)
                checks.check_distortion(frame, x, report, damaged)
            checks.check_csv(path, [
                {"model": m.tag, "seed": m.seed, "n": frame.n, "N": frame.N,
                 "K": rep.level_K, "l2_error": r.l2_error, "bound": r.theoretical_bound,
                 "bound_ok": r.bound_satisfied}
                for m, r in zip(models, reports)])

        return Op(cls=label, run=run, check=check, label=lambda out: label)

    def round(self, rng) -> list[Op]:
        return [self._op(label, rng, i) for i, label in enumerate(self.plan)]

    def prepare_cli(self) -> None:
        frame = self.frames["large"]
        self.cli_vec = str(self.workdir / "cli.vec")
        formats.write_vector(self.cli_vec, unit(np.random.default_rng(self.seed).standard_normal(frame.n)))
        self.cli_seed = frame_seed(self.seed, 99) % 2**32

    def _csv(self, tag: str) -> str:
        return str(self.workdir / f"cli-{_CLI_MODELS[tag]}.csv")

    def cli_sample(self) -> None:
        frame = self.frames["large"]
        for tag in MODELS:
            _run_cli(["simulate", self.paths["large"], "--in", self.cli_vec,
                      "--model", _CLI_MODELS[tag], "--eta", str(ETA), "--delta", str(DELTA),
                      "--iters", str(ITERS), "--levels", str(LEVELS),
                      "--damage", str(DAMAGE), "--flips", str(self._flips(frame)),
                      "--trials", str(self.cli_trials), "--seed", str(self.cli_seed),
                      "--csv", self._csv(tag)])

    def check_cli(self) -> None:
        frame = self.frames["large"]
        x = formats.read_vector(self.cli_vec)
        rep = conversion.kashin_encode(frame, x, _config(frame))
        spec = quantize.QuantizerSpec.from_representation(
            rep, LEVELS, complex_mode=_complex_mode(rep))
        for tag in MODELS:
            expected = []
            for t in range(self.cli_trials):
                model = quantize.ErrorModel(tag=tag, damage_fraction=DAMAGE,
                                            flip_count=self._flips(frame),
                                            seed=self.cli_seed + t)
                r = quantize.distortion_experiment(frame, x, rep, spec, model)
                expected.append({"model": tag, "seed": self.cli_seed + t, "K": rep.level_K,
                                 "l2_error": r.l2_error, "bound": r.theoretical_bound,
                                 "bound_ok": r.bound_satisfied})
            checks.check_csv(self._csv(tag), expected)


WORKLOADS = {w.name: w for w in (DenseCodec, FourierCodec, Calibrate, ChannelSim)}


def toy(cls):
    """The same workload at toy sizes, for the benchmark's own tests."""
    small = {
        "dense-codec": {"specs": (FrameSpec("dense", frames.RANDOM_ORTHOGONAL, 32, 64),)},
        "fourier-codec": {"specs": (FrameSpec("pow2", frames.PARTIAL_FOURIER, 32, 64),
                                    FrameSpec("other", frames.PARTIAL_FOURIER, 24, 48))},
        "calibrate": {"specs": (FrameSpec("dense", frames.RANDOM_ORTHOGONAL, 32, 128),
                                FrameSpec("fourier", frames.PARTIAL_FOURIER, 32, 128),
                                FrameSpec("tiny", frames.RANDOM_ORTHOGONAL, 4, 8)),
                      "deltas": {"dense": 0.05, "fourier": 0.3, "tiny": 0.375}},
        "channel-sim": {"specs": (FrameSpec("small", frames.RANDOM_ORTHOGONAL, 16, 32),
                                  FrameSpec("large", frames.RANDOM_ORTHOGONAL, 32, 64)),
                        "batch": {"small": 2, "large": 3}, "cli_trials": 3},
    }[cls.name]
    return type(cls.__name__ + "Toy", (cls,), {**small, "setup_reps": 2, "cli_reps": 2})
