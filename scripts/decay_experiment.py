#!/usr/bin/env python3
"""Residual-decay sweep across frame families and shapes.

For each (family, n, N) configuration the script runs
`kashin.sweeps.decay_sweep`: it calibrates an empirical uncertainty
constant by random sparse probing, converts a batch of normalized frame
columns (inputs that clip, unlike most random vectors) into their spread
representations, and records the final residual against the geometric
prediction eta'^r.  Configurations whose tightness defect
leaves no contraction (eta' >= 1) are skipped.  Results land in the
standard experiment CSV; a per-configuration summary is printed.

Example:
    python3 scripts/decay_experiment.py --out decay.csv \
        --shapes 64x128 128x256 --families random-orthogonal partial-fourier
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

from kashin import formats, frames, sweeps
from kashin.errors import InvalidConfig


def parse_shape(text):
    try:
        n, N = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NxM, got {text!r}")
    return n, N


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--shapes", type=parse_shape, nargs="+",
                        default=[(64, 128), (128, 256)],
                        metavar="NxM", help="frame shapes n x N")
    parser.add_argument("--families", nargs="+",
                        default=[frames.RANDOM_ORTHOGONAL],
                        choices=sorted(frames.FAMILY_TAGS),
                        help="frame families to sweep")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="sparsity fraction for calibration")
    parser.add_argument("--passes", type=int, default=20,
                        help="conversion passes per input")
    parser.add_argument("--trials", type=int, default=100,
                        help="frame-column inputs per configuration")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    all_rows = []
    for family_tag in args.families:
        for n, N in args.shapes:
            print(f"{family_tag} n={n} N={N} delta={args.delta}")
            family = frames.FrameFamily(family_tag, n, N, args.seed)
            try:
                sweep = sweeps.decay_sweep(family, args.delta, args.passes, args.trials)
            except InvalidConfig as exc:
                print(f"  skipped: {exc}")
                continue
            finals = np.array([row.l2_error for row in sweep.rows])
            print(f"  eta={sweep.eta:.4f} (sampled + {sweeps.ETA_MARGIN}; "
                  f"adjusted {sweep.eta_adjusted:.4f}, level {sweep.level:.1f}); "
                  f"worst per-pass ratio={sweep.worst_ratio:.4f}; "
                  f"final residual median={np.median(finals):.3e} "
                  f"max={finals.max():.3e} vs bound={sweep.rows[0].bound:.3e}")
            all_rows.extend(sweep.rows)
    formats.write_experiment_csv(args.out, all_rows)
    violations = sum(not row.bound_ok for row in all_rows)
    print(f"wrote {len(all_rows)} rows to {args.out} "
          f"({violations} bound violations)")
    return 0 if violations == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
