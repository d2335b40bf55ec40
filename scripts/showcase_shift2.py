#!/usr/bin/env python3
"""Walk the whole toolkit over the 2x2 lower shift and its doubling.

Prints the closed-form extremal operators, the LMI witness, the unital CP
witness map, the power-dilation compressions, the truncated bilateral-shift
corner, and the order-2 nilpotent dilation, with every verification residual.
"""

import sys
from pathlib import Path

import numpy as np

# run from a checkout: the package is imported from its src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mrange as mr  # noqa: E402


def show(name, M):
    rows = "; ".join(
        " ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row) for row in np.asarray(M))
    print(f"  {name} = [{rows}]")


def main():
    E = mr.shift(2)
    print("== lower shift, radius", f"{mr.num_radius(E):.12f}", "==")
    dec = mr.ando_decompose(E)
    show("X", dec.X)
    show("Y_max", dec.Y_max)
    show("Y_min", dec.Y_min)
    show("Z", dec.Z)
    show("C", dec.C)
    print("  residuals:", {k: f"{v:.2e}" for k, v in dec.residuals.items()})

    ok, A = mr.radius_lmi(E)
    print("  radius <= 1/2 LMI feasible:", ok)
    show("A", A)
    phi = mr.ucp_from_e21(E)
    cp_ok, mn = mr.is_cp(phi)
    print(f"  ucp witness map CP: {cp_ok} (Choi min eig {mn:.2e})")

    print("== doubled lower shift, radius", f"{mr.num_radius(2 * E):.12f}", "==")
    dec2 = mr.ando_decompose(2 * E)
    show("X", dec2.X)
    show("Y_max = Y_min", dec2.Y_max)
    show("C", dec2.C)

    win = mr.two_dilation(2 * E, 8)
    errs = []
    Tn = np.eye(2, dtype=complex)
    for n in range(1, 4):
        Tn = Tn @ (2 * E)
        errs.append(mr.op_norm(win.center_block_of_power(n) - Tn / 2))
    print("  banded unitary window 8, compression errors:",
          [f"{e:.2e}" for e in errs])

    rep = mr.bilateral_e21_model(8)
    print("  bilateral-shift corner is the lower unit:", rep.is_lower_unit,
          "; flipped orientation is the upper unit:", rep.flipped_is_upper_unit,
          "; squared corner vanishes:", rep.square_is_zero)

    nd = mr.nilpotent_dilation(E, 2)
    err = mr.op_norm(np.conj(nd.V).T @ nd.N @ nd.V - E)
    print(f"  order-2 nilpotent dilation: multiplicity {nd.r}, "
          f"compression error {err:.2e}")

    verdict = mr.member_e21(E)
    print("  membership in the order-2 range ball:", verdict.member,
          f"(margin {verdict.margin:.2e})")


if __name__ == "__main__":
    main()
