"""Command-line driver: frame generation, calibration, encoding,
quantization, channel simulation, and benchmark sweeps.

Every subcommand is a thin wrapper over the library; anything it prints
can be reproduced by direct calls with the same parameters.  Exit codes:
0 success, 1 malformed files or flags (including I/O failures), 2
mathematical contract violations (non-convergence, invalid
configurations, a ``bench`` row over its bound, and the like).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import conversion, formats, frames, quantize, sweeps, uncertainty
from .errors import FormatError, InvalidConfig, InvalidParams, KashinError

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


def _count(minimum: int):
    """argparse type of a count flag: a whole number of at least
    ``minimum``.  Other text reads ``invalid count value``, argparse
    naming the type by the inner function."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


def _fraction(closed: bool):
    """argparse type of a fraction flag: a real in (0, 1), or in [0, 1)
    when ``closed``.  Other text reads ``invalid fraction value``."""
    def fraction(text: str) -> float:
        value = float(text)
        if not ((0.0 <= value if closed else 0.0 < value) and value < 1.0):
            raise argparse.ArgumentTypeError(
                f"must lie in {'[' if closed else '('}0, 1), got {value}")
        return value
    return fraction


def _gen_frame_args(p) -> None:
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_FLAGS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", required=True)


def _info_args(p) -> None:
    p.add_argument("frame")


def _up_check_args(p) -> None:
    p.add_argument("frame")
    p.add_argument("--delta", required=True, type=_fraction(False))
    p.add_argument("--exact", action="store_true",
                   help="exhaustive enumeration instead of random supports")
    p.add_argument("--trials", type=_count(1), default=1000)
    p.add_argument("--seed", type=_count(0), default=0)


def _encode_args(p) -> None:
    p.add_argument("frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eta", required=True, type=_fraction(False))
    p.add_argument("--delta", required=True, type=_fraction(False))
    p.add_argument("--iters", required=True, type=_count(1))
    p.add_argument("--exact-last", action="store_true")
    p.add_argument("--format", choices=[formats.ASCII, formats.BINARY],
                   default=formats.ASCII)
    p.add_argument("--out", required=True)


def _decode_args(p) -> None:
    p.add_argument("frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=[formats.ASCII, formats.BINARY],
                   default=formats.ASCII)
    p.add_argument("--out", required=True)


def _quantize_args(p) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", required=True, type=_count(2))
    p.add_argument("--out", required=True)


def _simulate_args(p) -> None:
    p.add_argument("frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True, choices=sorted(_MODEL_FLAGS))
    p.add_argument("--eta", required=True, type=_fraction(False))
    p.add_argument("--delta", required=True, type=_fraction(False))
    p.add_argument("--iters", type=_count(1), default=8)
    p.add_argument("--levels", type=_count(2), default=64)
    p.add_argument("--damage", type=_fraction(True), default=0.0)
    p.add_argument("--flips", type=_count(0),
                   help="bit flips per trial (default: damage fraction of N)")
    p.add_argument("--worst-direction", action="store_true")
    p.add_argument("--trials", type=_count(1), default=10)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--format", choices=[formats.ASCII, formats.BINARY],
                   default=formats.ASCII)
    p.add_argument("--csv", required=True)


def _shape(text: str) -> tuple[int, int]:
    try:
        n, N = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NxM, got {text!r}") from None
    return n, N


def _bench_args(p) -> None:
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    p.add_argument("--shapes", type=_shape, nargs="+", default=[(64, 128)],
                   metavar="NxM")
    p.add_argument("--families", nargs="+", default=["orthogonal"],
                   choices=sorted(_FAMILY_FLAGS))
    p.add_argument("--delta", type=_fraction(False), default=0.05)
    p.add_argument("--passes", type=_count(1))
    p.add_argument("--trials", type=_count(1), help="inputs per frame")
    p.add_argument("--levels", type=_count(2), nargs="+")
    p.add_argument("--models", nargs="+",
                   choices=["adversarial", "erasure", "quantize"])
    p.add_argument("--damage", type=_fraction(True), nargs="+")
    p.add_argument("--baseline", action="store_true", default=None,
                   help="add raw-frame rows to quantize cells")
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--csv", required=True)


def _build_parser(command: str | None = None) -> _Parser:
    """The ``kashin`` parser with every subcommand, or with only
    ``command``'s when it is given."""
    parser = _Parser(prog="kashin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _families(command: str, flags, shapes, seed: int) -> list[frames.FrameFamily]:
    """The frame recipe of each family flag at each (n, N) shape, built
    before any work so that a shape the family refuses is a usage error."""
    try:
        return [frames.FrameFamily(_FAMILY_FLAGS[flag], n, N, seed)
                for flag in flags for n, N in shapes]
    except InvalidParams as exc:
        raise _UsageError(f"kashin {command}: {exc}") from None


def _cmd_gen_frame(args) -> int:
    family, = _families(args.command, [args.family], [(args.n, args.N)],
                        args.seed)
    frame = frames.generate(family)
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


def _conversion_config(frame, eta, delta, iters,
                       exact_last) -> conversion.ConversionConfig:
    return conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=conversion.TruncationSpec(),
        iterations=iters,
        exact_last_iteration=exact_last,
        frame_epsilon=frame.tightness_eps + 1e-12,
    )


def _cmd_encode(args) -> int:
    frame = formats.read_frame(args.frame)
    x = formats.read_vector(args.infile, args.format)
    cfg = _conversion_config(
        frame, args.eta, args.delta, args.iters, args.exact_last
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
    spec = quantize.QuantizerSpec.from_representation(rep, args.levels)
    if rep.input_norm == 0.0:
        # zero coefficients are exact, and a mid-rise quantizer has no zero
        # midpoint, so a zero-norm representation is written back unchanged
        quantized = rep
    else:
        a_hat = quantize.quantize_coeffs(rep.coefficients, spec)[1]
        # midpoint pairs can reach sqrt(2) times the per-component range
        quantized = conversion.KashinRepresentation(
            coefficients=a_hat,
            level_K=rep.level_K * (math.sqrt(2.0) if spec.complex_mode else 1.0),
            input_norm=rep.input_norm,
            residual_bound=rep.residual_bound + spec.error_bound(rep.coefficients),
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
    cfg = _conversion_config(frame, args.eta, args.delta, args.iters, False)
    rep = conversion.kashin_encode(frame, x, cfg)
    spec = quantize.QuantizerSpec.from_representation(rep, args.levels)
    flips = args.flips
    if flips is None:
        flips = max(1, int(args.damage * frame.N)) if tag == quantize.BIT_FLIP else 0
    models = [
        quantize.ErrorModel(
            tag=tag,
            damage_fraction=args.damage,
            flip_count=flips,
            seed=args.seed + index,
            worst_direction=args.worst_direction,
        )
        for index in range(args.trials)
    ]
    rows = sweeps.trial_rows(frame.kind, frame, x, rep, spec, models, cfg.up)
    formats.write_experiment_csv(args.csv, rows)
    violations = sum(not r.bound_ok for r in rows)
    print(f"trials: {len(rows)}")
    print(f"mean l2 error: {np.mean([r.l2_error for r in rows]):.6e}")
    print(f"bound violations: {violations}")
    return 0


def _decay_rows(family, args) -> list:
    sweep = sweeps.decay_sweep(family, args.delta, args.passes, args.trials)
    finals = [row.l2_error for row in sweep.rows]
    print(f"  eta={sweep.eta:.4f} (sampled + {sweeps.ETA_MARGIN}; "
          f"adjusted {sweep.eta_adjusted:.4f}, level {sweep.level:.1f}); "
          f"worst per-pass ratio={sweep.worst_ratio:.4f}; "
          f"final residual median={np.median(finals):.3e} "
          f"max={max(finals):.3e} vs bound={sweep.rows[0].bound:.3e}")
    return sweep.rows


def _channel_rows(family, args) -> list:
    # levels x models x damages; quantize-only cells damage nothing
    cells = [(_MODEL_FLAGS[model], damage, levels)
             for levels in args.levels for model in args.models
             for damage in ([0.0] if model == "quantize" else args.damage)]
    per_cell = sweeps.channel_sweep(family, args.delta, args.passes, cells,
                                    args.trials, baseline=args.baseline)
    print(f"  eta={per_cell[0][0].up_eta:.4f}")
    for (tag, damage, levels), rows in zip(cells, per_cell):
        errors = [row.l2_error for row in rows if row.model == tag]
        base = [row.l2_error for row in rows if row.model == "baseline"]
        extra = f"  baseline median={np.median(base):.4e}" if base else ""
        print(f"  L={levels:5d} {tag:13s} damage={damage:.4f} "
              f"median l2={np.median(errors):.4e}{extra}")
    return [row for rows in per_cell for row in rows]


# suite -> (sweep, defaults of the flags left unset); the channel flags
# apply only to the suites whose row sets them
_SUITES = {
    "decay": (_decay_rows, {"passes": 20, "trials": 200}),
    "quantization": (_channel_rows, {
        "passes": 12, "trials": 100, "levels": [16, 64, 256],
        "models": ["quantize"], "damage": [4 / 128], "baseline": False}),
    "corruption": (_channel_rows, {
        "passes": 12, "trials": 100, "levels": [64], "models": ["adversarial"],
        "damage": [1 / 128, 4 / 128, 8 / 128], "baseline": False}),
}


def _cmd_bench(args) -> int:
    sweep, defaults = _SUITES[args.suite]
    for name in ("levels", "models", "damage", "baseline"):
        if getattr(args, name) is not None and name not in defaults:
            raise _UsageError(f"kashin bench: argument --{name}: does not "
                              f"apply to --suite {args.suite}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    rows = []
    for family in _families(args.command, args.families, args.shapes, args.seed):
        print(f"{family.tag} n={family.n} N={family.N} delta={args.delta} "
              f"passes={args.passes}")
        try:
            rows += sweep(family, args)
        except InvalidConfig as exc:  # eta' >= 1: no contraction
            print(f"  skipped: {exc}")
    formats.write_experiment_csv(args.csv, rows)
    violations = sum(not r.bound_ok for r in rows)
    print(f"suite: {args.suite}")
    print(f"rows: {len(rows)}")
    print(f"bound violations: {violations}")
    return 2 if violations else 0


# command -> (handler, help line, argument builder)
_COMMANDS = {
    "gen-frame": (_cmd_gen_frame, "generate a frame and write a .kfrm file",
                  _gen_frame_args),
    "info": (_cmd_info, "print a frame file's parameters", _info_args),
    "up-check": (_cmd_up_check, "calibrate the uncertainty constant eta",
                 _up_check_args),
    "encode": (_cmd_encode, "convert a vector to spread coefficients",
               _encode_args),
    "decode": (_cmd_decode, "synthesize coefficients back to a vector",
               _decode_args),
    "quantize": (_cmd_quantize, "replace coefficients by quantizer midpoints",
                 _quantize_args),
    "simulate": (_cmd_simulate, "end-to-end distortion trials over a channel",
                 _simulate_args),
    "bench": (_cmd_bench, "benchmark sweeps emitting CSV", _bench_args),
}


def run(argv) -> int:
    """Parse and execute one command line; returns the exit code.

    Only the named command's arguments are built; a command line that
    names none (empty, an option first, or an unknown name) gets the full
    parser, which reports it.
    """
    argv = list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (_UsageError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KashinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))
