"""Measure discrete gauge covariance orders across random smooth fields.

For each seed the defect of the covariant derivative and of the field
strength under a smooth random transform is measured on a refinement
ladder, and the observed convergence orders are tabulated.  Central
differences should give orders near 2.
"""
import argparse

from ssbspec.electroweak import build_generators
from ssbspec.latticefields import Grid, convergence_orders


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=16, help="coarsest extent per axis")
    ap.add_argument("--refine", type=int, default=2, help="number of halvings")
    ap.add_argument("--seeds", type=int, default=10, help="independent field draws")
    ap.add_argument("--g", type=float, default=2.0)
    ap.add_argument("--gp", type=float, default=1.0)
    args = ap.parse_args()

    gs = build_generators(args.g, args.gp)
    grid = Grid(dim=2, shape=(args.grid, args.grid), spacing=1.0 / args.grid)

    print(f"grid {args.grid}^2, {args.refine} refinements, {args.seeds} seeds")
    print("seed   derivative orders        strength orders")
    seen = []
    for seed in range(args.seeds):
        der, stre = convergence_orders(gs, grid, seed=seed, refinements=args.refine)
        seen += [*der.orders, *stre.orders]
        d = "  ".join(f"{o:.4f}" for o in der.orders)
        s = "  ".join(f"{o:.4f}" for o in stre.orders)
        print(f"{seed:<6} {d:<24} {s}")
    print(f"\norder range over all seeds: [{min(seen):.4f}, {max(seen):.4f}]")


if __name__ == "__main__":
    main()
