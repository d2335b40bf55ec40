#!/usr/bin/env python3
"""Moment-problem round trips on the circle.

Builds a strictly positive trigonometric density, spectral-factors it,
treats its leading Fourier coefficients as a Toeplitz spec, recovers an
atomic representing measure, and closes the loop back to the coefficients.
Also runs the block version on matrix-weighted atoms.
"""

import sys
from pathlib import Path

import numpy as np

# run from a checkout: the package is imported from its src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mrange as mr  # noqa: E402
from mrange.rng import SplitMix64  # noqa: E402


def scalar_demo(seed=2024, degree=5, n=5):
    gen = SplitMix64(seed)
    q = gen.complex_normals(degree + 1)
    tau = mr.trig_poly_from_factor(q)
    coeffs = tau.coeffs.copy()
    coeffs[0] = coeffs[0].real + 0.05
    tau = mr.TrigPoly(coeffs=coeffs)

    p = mr.fejer_riesz(tau)
    th = 2 * np.pi * np.arange(4096) / 4096
    lam = np.exp(1j * th)
    factor_err = np.abs(tau.eval_at_angle(th)
                        - np.abs(np.polyval(p[::-1], lam)) ** 2).max()
    print(f"density degree {tau.degree}, spectral factor degree {p.size - 1}, "
          f"grid error {factor_err:.2e}")

    spec = mr.ToeplitzSpec(coeffs=tau.coeffs[:n])
    ok, min_eig = mr.toeplitz_psd(spec)
    print(f"leading {n} coefficients: Toeplitz min eig {min_eig:.4f} (psd={ok})")

    mu = mr.measure_from_toeplitz(spec)
    mom_err = max(abs(mu.moment(k) - spec.coeffs[k]) for k in range(n))
    print(f"recovered measure: {mu.nodes.size} atoms, moment error {mom_err:.2e}")

    back = mr.toeplitz_from_measure(mu, n)
    print(f"round trip coefficient error "
          f"{np.abs(back.coeffs - spec.coeffs).max():.2e}")


def block_demo(seed=7, d=2, n=3):
    gen = SplitMix64(seed)
    G = 8 * n
    nodes = 2 * np.pi * np.arange(G) / G
    weights = []
    for _ in range(G):
        W = gen.complex_matrix(d, d)
        weights.append(0.02 * np.eye(d) + W @ np.conj(W).T / G)
    mu0 = mr.AtomicMeasure(nodes=nodes, weights=tuple(weights))
    spec = mr.toeplitz_from_measure(mu0, n)
    ok, min_eig = mr.toeplitz_psd(spec)
    print(f"block spec d={d}, n={n}: min eig {min_eig:.4f} (psd={ok})")

    mu = mr.block_measure_from_toeplitz(spec)
    resid = max(mr.op_norm(mu.moment(k) - spec.blocks[k]) for k in range(n))
    psd_floor = min(mr.psd_check(Wt)[1] for Wt in mu.weights)
    print(f"recovered matrix weights: moment residual {resid:.2e}, "
          f"worst weight min eig {psd_floor:.2e}")


if __name__ == "__main__":
    print("== scalar ==")
    scalar_demo()
    print("== block ==")
    block_demo()
