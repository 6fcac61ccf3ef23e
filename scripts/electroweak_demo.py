"""Print the electroweak boson spectrum next to its closed forms.

Usage: python3 scripts/electroweak_demo.py [--g G] [--gp GP] [--mu MU] [--lambda LAM]
"""
import argparse
import math

import numpy as np

from ssbspec.breaking import spectrum
from ssbspec.electroweak import (
    ElectroweakParams,
    boson_mass_predictions,
    build_model,
    charge_operators,
    weinberg_angle,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--g", type=float, default=2.0, help="su(2) coupling")
    ap.add_argument("--gp", type=float, default=1.0, help="u(1) coupling")
    ap.add_argument("--mu", type=float, default=2.0, help="quadratic potential coefficient")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0, help="quartic coefficient")
    args = ap.parse_args()

    p = ElectroweakParams(g=args.g, gp=args.gp, mu=args.mu, lam=args.lam)
    model = build_model(p)
    result = spectrum(model)
    closed = boson_mass_predictions(p)

    print(f"couplings        g = {p.g:g}, g' = {p.gp:g}, mu = {p.mu:g}, lambda = {p.lam:g}")
    print(f"vacuum norm      {np.linalg.norm(model.vacuum):.12g}")
    print(f"weinberg angle   {weinberg_angle(p):.12g} rad (tan = g'/g = {p.gp / p.g:g})")
    print()
    print("mode      closed form       numerical         gap")
    rows = [
        ("W (x2)", closed.w, result.boson_masses[1]),
        ("W (x2)", closed.w, result.boson_masses[2]),
        ("Z", closed.z, result.boson_masses[0]),
        ("photon", closed.photon, result.boson_masses[3]),
        ("higgs", closed.higgs, result.higgs_masses[0]),
    ]
    for name, want, got in rows:
        print(f"{name:<9} {want:<17.12g} {got:<17.12g} {abs(want - got):.3e}")

    print()
    print(f"goldstone modes  {result.goldstone_count}")
    ops = charge_operators(model.generators, p)
    print(f"charge diagonal  {np.diag(ops.charge).real.tolist()}  (φ⁺, φ⁰)")
    ratio = closed.w / closed.z
    print(f"m_W / m_Z        {ratio:.12g} = cos(theta_W) = {math.cos(weinberg_angle(p)):.12g}")


if __name__ == "__main__":
    main()
