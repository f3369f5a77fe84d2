#!/usr/bin/env python3
"""Distortion sweep over quantizer resolution and channel damage.

Runs the spread-coefficient codec (`kashin.sweeps.channel_sweep`) on a
random orthogonal frame against a grid of quantizer levels and error
models, paired with the raw-frame-coefficient baseline at each
resolution, and reports median distortion per cell.  Every cell sees the
same inputs.  Rows go to the standard experiment CSV (baseline rows use
model tag "baseline").

Codec rows quantize over the certified worst-case coefficient range, so
at coarse resolutions the raw baseline can come out ahead; the paired
comparison at the measured dynamic range is `separation_experiment` in
`kashin.quantize`.

Example:
    python3 scripts/quantizer_sweep.py --out sweep.csv \
        --levels 16 64 256 1024 --models quantize-only erasure adversarial
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

from kashin import formats, frames, quantize, sweeps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--shape", type=str, default="64x128",
                        help="frame shape n x N")
    parser.add_argument("--levels", type=int, nargs="+",
                        default=[16, 64, 256, 1024])
    parser.add_argument("--models", nargs="+",
                        default=[quantize.QUANTIZE_ONLY, quantize.ERASURE],
                        choices=[quantize.QUANTIZE_ONLY, quantize.ERASURE,
                                 quantize.ADVERSARIAL],
                        help="error models to sweep")
    parser.add_argument("--damage", type=float, default=4 / 128,
                        help="damage fraction for channel models")
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--passes", type=int, default=12)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the raw-frame-coefficient baseline rows")
    args = parser.parse_args(argv)

    n, N = (int(part) for part in args.shape.lower().split("x"))
    family = frames.FrameFamily(frames.RANDOM_ORTHOGONAL, n, N, args.seed)
    cells = [(tag, 0.0 if tag == quantize.QUANTIZE_ONLY else args.damage, levels)
             for levels in args.levels for tag in args.models]
    per_cell = sweeps.channel_sweep(family, args.delta, args.passes, cells,
                                    args.trials, baseline=not args.no_baseline)
    print(f"{family.tag} n={n} N={N}, eta={per_cell[0][0].up_eta:.4f}, "
          f"passes={args.passes}")

    all_rows = []
    for (tag, damage, levels), rows in zip(cells, per_cell):
        errors = [row.l2_error for row in rows if row.model == tag]
        base_errors = [row.l2_error for row in rows if row.model == "baseline"]
        extra = (f"  baseline median={np.median(base_errors):.4e}"
                 if base_errors else "")
        print(f"  L={levels:5d} {tag:13s} damage={damage:.4f} "
              f"median l2={np.median(errors):.4e}{extra}")
        all_rows.extend(rows)
    formats.write_experiment_csv(args.out, all_rows)
    violations = sum(not row.bound_ok for row in all_rows)
    print(f"wrote {len(all_rows)} rows to {args.out} "
          f"({violations} bound violations)")
    return 0 if violations == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
