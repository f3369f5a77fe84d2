"""Command-line driver: frame generation, calibration, encoding,
quantization, channel simulation, and benchmark sweeps.

Every subcommand is a thin wrapper over the library; anything it prints
can be reproduced by direct calls with the same parameters.  Exit codes:
0 success, 1 malformed files or flags (including I/O failures), 2
mathematical contract violations (non-convergence, invalid
configurations, and the like).
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import conversion, formats, frames, linalg, quantize, uncertainty
from .errors import FormatError, InvalidParams, KashinError

_FAMILY_FLAGS = {
    "orthogonal": frames.RANDOM_ORTHOGONAL,
    "fourier": frames.PARTIAL_FOURIER,
    "gaussian": frames.GAUSSIAN,
    "bernoulli": frames.BERNOULLI,
}

_MODEL_FLAGS = {
    "quantize": quantize.QUANTIZE_ONLY,
    "erasure": quantize.ERASURE,
    "adversarial": quantize.ADVERSARIAL,
    "bitflip": quantize.BIT_FLIP,
}


class _UsageError(Exception):
    """Raised in place of argparse's sys.exit so run() can map usage
    problems to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kashin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-frame", help="generate a frame and write a .kfrm file")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_FLAGS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("info", help="print a frame file's parameters")
    p.add_argument("frame")

    p = sub.add_parser("up-check", help="calibrate the uncertainty constant eta")
    p.add_argument("frame")
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--exact", action="store_true",
                   help="exhaustive enumeration instead of random supports")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("encode", help="convert a vector to spread coefficients")
    p.add_argument("frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eta", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--accuracy", type=float)
    p.add_argument("--exact-last", action="store_true")
    p.add_argument("--approx-trunc", metavar="NU,TAU",
                   help="clip through the approximate map with these parameters")
    p.add_argument("--format", choices=[formats.ASCII, formats.BINARY],
                   default=formats.ASCII)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="synthesize coefficients back to a vector")
    p.add_argument("frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=[formats.ASCII, formats.BINARY],
                   default=formats.ASCII)
    p.add_argument("--out", required=True)

    p = sub.add_parser("quantize", help="replace coefficients by quantizer midpoints")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", required=True, type=int)
    p.add_argument("--real", action="store_true",
                   help="quantize only real parts (default covers both components)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="end-to-end distortion trials over a channel")
    p.add_argument("frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True, choices=sorted(_MODEL_FLAGS))
    p.add_argument("--eta", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--iters", type=int, default=8)
    p.add_argument("--levels", type=int, default=64)
    p.add_argument("--damage", type=float, default=0.0)
    p.add_argument("--flips", type=int,
                   help="bit flips per trial (default: damage fraction of N)")
    p.add_argument("--worst-direction", action="store_true")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=[formats.ASCII, formats.BINARY],
                   default=formats.ASCII)
    p.add_argument("--csv", required=True)

    p = sub.add_parser("bench", help="benchmark sweeps emitting CSV")
    p.add_argument("--suite", required=True,
                   choices=["decay", "quantization", "corruption"])
    p.add_argument("--trials", type=int,
                   help="override the per-setting trial count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True)
    return parser


def _cmd_gen_frame(args) -> int:
    tag = _FAMILY_FLAGS[args.family]
    if tag == frames.RANDOM_ORTHOGONAL:
        frame = frames.gen_random_orthogonal(args.n, args.N, args.seed)
    elif tag == frames.PARTIAL_FOURIER:
        frame = frames.gen_partial_fourier(
            args.N, args.n, args.seed, mode=frames.EXACT_N
        )
    else:
        frame = frames.gen_subgaussian(args.n, args.N, tag, args.seed)
    formats.write_frame(args.out, frame)
    print(f"wrote {args.out}: {args.family} n={frame.n} N={frame.N}")
    print(f"tightness epsilon: {frame.tightness_eps:.6e}")
    return 0


def _cmd_info(args) -> int:
    frame = formats.read_frame(args.frame)
    print(f"kind: {frame.kind}")
    print(f"n: {frame.n}")
    print(f"N: {frame.N}")
    print(f"tightness epsilon: {frame.tightness_eps:.6e}")
    print(f"frame-norm sum: {frames.frame_norm_sum(frame):.12g}")
    return 0


def _cmd_up_check(args) -> int:
    frame = formats.read_frame(args.frame)
    if args.exact:
        eta, witness = uncertainty.up_check_exact(frame, args.delta)
        label = "exact"
    else:
        eta, witness = uncertainty.up_estimate(
            frame, args.delta, args.trials, args.seed
        )
        label = f"estimated ({args.trials} trials)"
    print(f"eta ({label}): {eta:.17g}")
    print(f"worst support: {list(witness.support)}")
    return 0


def _truncation_from_flag(flag: str | None) -> conversion.TruncationSpec:
    if flag is None:
        return conversion.TruncationSpec(mode=conversion.EXACT)
    parts = flag.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--approx-trunc expects NU,TAU, got {flag!r}")
    try:
        nu, tau = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _UsageError(f"--approx-trunc expects numbers: {exc}") from exc
    return conversion.TruncationSpec(
        mode=conversion.APPROXIMATE, nu=nu, tau=tau
    )


def _conversion_config(frame, eta, delta, iters, accuracy, exact_last,
                       trunc_flag) -> conversion.ConversionConfig:
    if (iters is None) == (accuracy is None):
        raise _UsageError("give exactly one of --iters and --accuracy")
    return conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=_truncation_from_flag(trunc_flag),
        iterations=iters,
        target_accuracy=accuracy,
        exact_last_iteration=exact_last,
        frame_epsilon=frame.tightness_eps + 1e-12,
    )


def _cmd_encode(args) -> int:
    frame = formats.read_frame(args.frame)
    x = formats.read_vector(args.infile, args.format)
    cfg = _conversion_config(
        frame, args.eta, args.delta, args.iters, args.accuracy,
        args.exact_last, args.approx_trunc,
    )
    rep = conversion.kashin_encode(frame, x, cfg)
    formats.write_representation(args.out, rep)
    print(f"level K: {rep.level_K:.17g}")
    print(f"iterations: {rep.iterations_used}")
    print(f"residual bound: {rep.residual_bound:.17g}")
    return 0


def _cmd_decode(args) -> int:
    frame = formats.read_frame(args.frame)
    rep = formats.read_representation(args.infile)
    formats.write_vector(args.out, conversion.kashin_decode(frame, rep),
                         args.format)
    print(f"wrote {args.out}: {frame.n} entries")
    return 0


def _cmd_quantize(args) -> int:
    rep = formats.read_representation(args.infile)
    complex_mode = not args.real
    if args.real and quantize.has_imaginary_mass(rep.coefficients, rep.input_norm):
        raise InvalidParams("--real would drop the coefficients' imaginary parts")
    spec = quantize.QuantizerSpec.from_representation(
        rep, args.levels, complex_mode=complex_mode
    )
    a_hat = quantize.quantize_coeffs(rep.coefficients, spec)[1]
    # midpoint pairs can reach sqrt(2) times the per-component range, so
    # the stored certificate grows by that factor in complex mode
    cfac = math.sqrt(2.0) if complex_mode else 1.0
    n_coeff = rep.coefficients.size
    quantized = conversion.KashinRepresentation(
        coefficients=a_hat,
        level_K=rep.level_K * cfac,
        input_norm=rep.input_norm,
        residual_bound=rep.residual_bound
        + cfac * spec.range_half_width * math.sqrt(n_coeff) / args.levels,
        iterations_used=rep.iterations_used,
    )
    formats.write_representation(args.out, quantized)
    print(f"levels: {args.levels}")
    print(f"step: {spec.step:.17g}")
    print(f"residual bound: {quantized.residual_bound:.17g}")
    return 0


def _cmd_simulate(args) -> int:
    frame = formats.read_frame(args.frame)
    x = formats.read_vector(args.infile, args.format)
    tag = _MODEL_FLAGS[args.model]
    cfg = _conversion_config(
        frame, args.eta, args.delta, args.iters, None, False, None
    )
    rep = conversion.kashin_encode(frame, x, cfg)
    spec = quantize.QuantizerSpec.from_representation(
        rep, args.levels,
        complex_mode=quantize.has_imaginary_mass(rep.coefficients, rep.input_norm),
    )
    flips = args.flips
    if flips is None:
        flips = max(1, int(args.damage * frame.N)) if tag == quantize.BIT_FLIP else 0

    def one_trial(index: int) -> formats.ExperimentRow:
        model = quantize.ErrorModel(
            tag=tag,
            damage_fraction=args.damage,
            flip_count=flips,
            seed=args.seed + index,
            worst_direction=args.worst_direction,
        )
        report = quantize.distortion_experiment(frame, x, rep, spec, model)
        return formats.ExperimentRow(
            family=frame.kind, n=frame.n, N=frame.N, up_eta=args.eta,
            up_delta=args.delta, K=rep.level_K, L=args.levels, model=tag,
            damage_fraction=args.damage, seed=args.seed + index,
            l2_error=report.l2_error, bound=report.theoretical_bound,
            bound_ok=report.bound_satisfied,
        )

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(one_trial, range(args.trials)))
    else:
        rows = [one_trial(i) for i in range(args.trials)]
    formats.write_experiment_csv(args.csv, rows)
    violations = sum(not r.bound_ok for r in rows)
    print(f"trials: {len(rows)}")
    print(f"mean l2 error: {np.mean([r.l2_error for r in rows]):.6e}")
    print(f"bound violations: {violations}")
    return 0


def _bench_decay(seed: int, trials: int | None) -> list[formats.ExperimentRow]:
    n, N, delta, r = 64, 128, 0.05, 20
    count = 200 if trials is None else trials
    frame = frames.gen_random_orthogonal(n, N, seed)
    eta_hat = uncertainty.up_estimate(frame, delta, 2000, seed)[0]
    eta = eta_hat + 0.02
    cfg = conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=conversion.TruncationSpec(),
        iterations=r,
        frame_epsilon=frame.tightness_eps + 1e-12,
    )
    g = linalg.rng_from_seed(seed + 1)
    rows = []
    for t in range(count):
        x = g.standard_normal(n)
        x = x / np.linalg.norm(x)
        rep = conversion.kashin_encode(frame, x, cfg)
        bound = eta**r + 1e-13
        rows.append(formats.ExperimentRow(
            family=frames.RANDOM_ORTHOGONAL, n=n, N=N, up_eta=eta,
            up_delta=delta, K=rep.level_K, L=0, model="decay",
            damage_fraction=0.0, seed=seed + t,
            l2_error=rep.residual_norms[-1], bound=bound,
            bound_ok=rep.residual_norms[-1] <= bound + 1e-9,
        ))
    return rows


def _bench_channel(seed: int, trials: int | None, suite: str
                   ) -> list[formats.ExperimentRow]:
    n, N, delta, r = 64, 128, 0.05, 12
    count = 100 if trials is None else trials
    frame = frames.gen_random_orthogonal(n, N, seed)
    eta = uncertainty.up_estimate(frame, delta, 2000, seed)[0] + 0.02
    cfg = conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=conversion.TruncationSpec(),
        iterations=r,
        frame_epsilon=frame.tightness_eps + 1e-12,
    )
    if suite == "quantization":
        settings = [(quantize.QUANTIZE_ONLY, 0.0, levels)
                    for levels in (16, 64, 256)]
    else:
        settings = [(quantize.ADVERSARIAL, fraction, 64)
                    for fraction in (1 / 128, 4 / 128, 8 / 128)]
    g = linalg.rng_from_seed(seed + 1)
    rows = []
    for tag, fraction, levels in settings:
        for t in range(count):
            x = g.standard_normal(n)
            x = x / np.linalg.norm(x)
            rep = conversion.kashin_encode(frame, x, cfg)
            spec = quantize.QuantizerSpec.from_representation(rep, levels)
            model = quantize.ErrorModel(
                tag=tag, damage_fraction=fraction, seed=seed + t
            )
            report = quantize.distortion_experiment(frame, x, rep, spec, model)
            rows.append(formats.ExperimentRow(
                family=frames.RANDOM_ORTHOGONAL, n=n, N=N, up_eta=eta,
                up_delta=delta, K=rep.level_K, L=levels, model=tag,
                damage_fraction=fraction, seed=seed + t,
                l2_error=report.l2_error, bound=report.theoretical_bound,
                bound_ok=report.bound_satisfied,
            ))
    return rows


def _cmd_bench(args) -> int:
    if args.suite == "decay":
        rows = _bench_decay(args.seed, args.trials)
    else:
        rows = _bench_channel(args.seed, args.trials, args.suite)
    formats.write_experiment_csv(args.csv, rows)
    violations = sum(not r.bound_ok for r in rows)
    print(f"suite: {args.suite}")
    print(f"rows: {len(rows)}")
    print(f"bound violations: {violations}")
    return 0


_COMMANDS = {
    "gen-frame": _cmd_gen_frame,
    "info": _cmd_info,
    "up-check": _cmd_up_check,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "quantize": _cmd_quantize,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def run(argv) -> int:
    """Parse and execute one command line; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KashinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))
