"""Drive the pointwise unitary gauge solver over random smooth fields.

Synthesizes fields as vacuum plus a smooth perturbation of growing
amplitude and records residual Goldstone defects, iteration counts, and
norm preservation per site.  Large amplitudes start the climb far from
the transverse slice, where it needs more trust-region steps.
"""
import argparse

import numpy as np

from ssbspec.electroweak import build_model
from ssbspec.latticefields import Grid, smooth_multiplet_field
from ssbspec.unitarygauge import UnitaryGaugeConfig, apply_unitary_gauge_field


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=16, help="extent per axis")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument(
        "--scales", type=float, nargs="+", default=[0.1, 0.35, 0.8, 1.5], help="perturbation amplitudes"
    )
    args = ap.parse_args()

    model = build_model()
    grid = Grid(dim=2, shape=(args.grid, args.grid), spacing=1.0 / args.grid)
    n = model.vacuum.size

    print(f"{grid.site_count} sites per field, {args.seeds} seeds per amplitude")
    print("scale   max defect   max iters   mean iters   norm drift")
    for scale in args.scales:
        max_defect = 0.0
        max_iter = 0
        total_iter = 0
        drift = 0.0
        for seed in range(args.seeds):
            field = model.vacuum + scale * smooth_multiplet_field(grid, n, seed=seed)
            result = apply_unitary_gauge_field(model.generators, model.vacuum, field, UnitaryGaugeConfig())
            max_defect = max(max_defect, float(np.max(result.defects)))
            max_iter = max(max_iter, int(np.max(result.iterations)))
            total_iter += int(np.sum(result.iterations))
            gap = np.linalg.norm(result.transformed, axis=-1) - np.linalg.norm(field, axis=-1)
            drift = max(drift, float(np.max(np.abs(gap))))
        mean = total_iter / (args.seeds * grid.site_count)
        print(f"{scale:<7g} {max_defect:<12.3e} {max_iter:<11d} {mean:<12.2f} {drift:.3e}")


if __name__ == "__main__":
    main()
