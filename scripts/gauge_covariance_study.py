"""Measure discrete gauge covariance orders across random smooth fields.

For each seed the defect of the covariant derivative and of the field
strength under a smooth random transform is measured on a refinement
ladder, and the observed convergence orders are tabulated.  Central
differences should give orders near 2; the last line counts the seeds
whose orders fail `ssbspec gauge-check`'s rule (cli.orders_pass): the
finest pair in the band, and with several pairs the distance from 2 at
least halving from each pair to the next.

The seeds are drawn with numpy's default_rng(123) from the range the
CLI's --seed takes, so a run with more seeds extends a shorter one, and
each seed can be rerun as `ssbspec gauge-check --seed SEED`.  The
generators are the electroweak doublet's, or those of --model.
"""
import argparse

import numpy as np

from ssbspec.cli import ORDER_BAND, orders_pass
from ssbspec.electroweak import build_generators
from ssbspec.latticefields import Grid, convergence_orders
from ssbspec.modelfile import parse_model_file


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=16, help="coarsest extent per axis")
    ap.add_argument("--refine", type=int, default=2, help="number of halvings")
    ap.add_argument("--seeds", type=int, default=10, help="independent field draws")
    ap.add_argument("--model", help="model file whose generators to use (default: the electroweak doublet)")
    ap.add_argument("--g", type=float, default=2.0, help="doublet coupling g, without --model")
    ap.add_argument("--gp", type=float, default=1.0, help="doublet coupling g', without --model")
    args = ap.parse_args()

    if args.model:
        with open(args.model) as fh:
            gs = parse_model_file(fh.read()).model.generators
    else:
        gs = build_generators(args.g, args.gp)
    grid = Grid(dim=2, shape=(args.grid, args.grid), spacing=1.0 / args.grid)
    seeds = np.random.default_rng(123).integers(0, 2**31 - 1, size=args.seeds)
    lo, hi = ORDER_BAND

    print(f"grid {args.grid}^2, {args.refine} refinements, {args.seeds} seeds, n = {gs.n}")
    print("seed         derivative orders        strength orders")
    seen, outside = [], []
    for seed in map(int, seeds):
        der, stre = convergence_orders(gs, grid, seed=seed, refinements=args.refine)
        seen += [*der.orders, *stre.orders]
        if not (orders_pass(der.orders) and orders_pass(stre.orders)):
            outside.append(seed)
        d = "  ".join(f"{o:.4f}" for o in der.orders)
        s = "  ".join(f"{o:.4f}" for o in stre.orders)
        print(f"{seed:<12} {d:<24} {s}")
    print(f"\norder range over all seeds: [{min(seen):.4f}, {max(seen):.4f}]")
    rule = f"finest order in [{lo}, {hi}]" + (", distance from 2 halving" if args.refine > 1 else "")
    print(f"seeds outside gauge-check's rule ({rule}): {len(outside)} of {args.seeds} {outside}")


if __name__ == "__main__":
    main()
