#!/usr/bin/env python3
"""Width-versus-fiber-length sweep for one arm.

Simulates the single-arm presets over a list of lengths, fits each
coincidence peak, and prints the weighted linear fit of FWHM against length
together with the dispersion coefficient recovered from the slope.  The
sweep is the one ``ndcsim reproduce fig3`` runs, with the same per-length
seeds, so ``smf --seed 0`` prints fig3's seed-0 nominal-k2 SMF slope.
"""

import argparse
import sys

from ndcsim import presets
from ndcsim.analyze import dispersion_from_slope
from ndcsim.model import SourceParams
from ndcsim.reproduce import sweep_slope


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fiber", choices=("smf", "dcf"))
    parser.add_argument("--lengths-km", type=float, nargs="+", default=None)
    parser.add_argument("--fitted-k2", action="store_true",
                        help="use the slope-fitted dispersion coefficients")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration-s", type=float, default=presets.ACQUISITION_S)
    parser.add_argument("--out", default=None, help="optional CSV of the sweep points")
    args = parser.parse_args()

    lengths = args.lengths_km
    if lengths is None:
        lengths = presets.FIG3_SMF_KM if args.fiber == "smf" else presets.FIG3_DCF_KM

    fit, points = sweep_slope(args.fiber, lengths, args.fitted_k2, args.seed, args.duration_s)
    print(f"{'length_km':>10} {'fwhm_ps':>10} {'err_ps':>8}")
    for length, fwhm, err in points:
        print(f"{length:10.3f} {fwhm:10.2f} {err:8.2f}")

    sign = -1 if args.fiber == "smf" else 1
    k2 = dispersion_from_slope(fit.slope, SourceParams(), sign=sign)
    print(f"\nslope = {fit.slope:.2f} +- {fit.slope_err:.2f} ps/km")
    print(f"intercept = {fit.intercept:.2f} +- {fit.intercept_err:.2f} ps")
    print(f"recovered k2 = {k2:.4g} s^2/m")

    if args.out:
        with open(args.out, "w") as f:
            f.write("length_km,fwhm_ps,fwhm_err_ps\n")
            for length, fwhm, err in points:
                f.write(f"{length},{fwhm:.4f},{err:.4f}\n")
        print(f"sweep points -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
