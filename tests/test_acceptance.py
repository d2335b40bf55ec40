"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run directly through pytest, or via scripts/run_acceptance.py for the plain
line-per-criterion report.
"""

import numpy as np
import pytest

import mrange as mr
from mrange.rng import SplitMix64, split

from helpers import (
    E21,
    radius_bruteforce,
    random_partition_of_identity,
    random_ucp_map,
    random_with_radius,
)


def crit01_exact_extremal_values():
    """Closed-form extremal operators for the lower unit at both scales."""
    atol = 1e-8
    checks = []
    X, _ = mr.ando_X(E21)
    checks.append(np.abs(X - np.diag([0.75, 1.0])).max())
    dec = mr.ando_decompose(E21)
    checks.append(np.abs(dec.Y_max - np.diag([0.5, 1.0])).max())
    checks.append(np.abs(dec.Y_min - np.diag([-1.0, -0.5])).max())
    # Z agrees with the lower unit up to a unimodular phase
    phase = dec.Z[1, 0] / abs(dec.Z[1, 0])
    checks.append(np.abs(dec.Z / phase - E21).max())
    X2, _ = mr.ando_X(2 * E21)
    checks.append(np.abs(X2 - np.diag([0.0, 1.0])).max())
    dec2 = mr.ando_decompose(2 * E21)
    checks.append(np.abs(dec2.Y_max - np.diag([-1.0, 1.0])).max())
    checks.append(np.abs(dec2.Y_min - np.diag([-1.0, 1.0])).max())
    worst = max(checks)
    return worst <= atol, f"worst entrywise deviation {worst:.2e} (tol {atol:g})"


def crit02_radius_values():
    w1 = mr.num_radius(E21)
    S3 = mr.shift(3)
    w2 = mr.num_radius(S3)
    oracle = radius_bruteforce(S3, seed=7, vectors=1_000_000, angles=50_000)
    ok = abs(w1 - 0.5) <= 1e-10 and abs(w2 - np.cos(np.pi / 4)) <= 1e-8 \
        and abs(w2 - oracle) <= 1e-8
    return ok, (f"w(E21)={w1:.12f}, w(S3)={w2:.12f}, "
                f"bruteforce oracle {oracle:.12f}")


def crit03_power_dilation_window():
    worst = 0.0
    for k in range(20):
        dim = 2 + k % 3
        T = random_with_radius(dim, 1.0, split(301, k))
        win = mr.two_dilation(T, 16)
        Tn = np.eye(dim, dtype=complex)
        for n in range(1, 8):
            Tn = Tn @ T
            worst = max(worst, mr.op_norm(win.center_block_of_power(n) - Tn / 2))
    return worst <= 1e-9, f"20 boundary inputs, worst compression error {worst:.2e}"


def crit04_spectral_factor_round_trip():
    th = 2 * np.pi * np.arange(4096) / 4096
    lam = np.exp(1j * th)
    worst = 0.0
    for k in range(100):
        deg = 1 + k % 8
        q = SplitMix64(split(401, k)).complex_normals(deg + 1)
        tau = mr.trig_poly_from_factor(q)
        coeffs = tau.coeffs.copy()
        coeffs[0] = coeffs[0].real + 0.01
        tau = mr.TrigPoly(coeffs=coeffs)
        p = mr.fejer_riesz(tau)
        vals = tau.eval_at_angle(th)
        err = np.abs(vals - np.abs(np.polyval(p[::-1], lam)) ** 2).max()
        worst = max(worst, err / (1.0 + vals.max()))
    return worst <= 1e-7, f"100 factorizations, worst scaled grid error {worst:.2e}"


def _seeded_psd_spec(n, seed):
    gen = SplitMix64(seed)
    if gen.uniform() < 0.25:
        # atomic measure supported on the recovery grid
        G = 8 * n
        atoms = 1 + int(gen.uniform() * 4)
        nodes = np.array([2 * np.pi * np.floor(gen.uniform() * G) / G
                          for _ in range(atoms)])
        weights = np.array([0.1 + gen.uniform() for _ in range(atoms)])
        mu = mr.AtomicMeasure(nodes=nodes, weights=weights)
        return mr.toeplitz_from_measure(mu, n)
    deg = max(1, int(gen.uniform() * n))
    q = gen.complex_normals(deg + 1)
    tau = mr.trig_poly_from_factor(q)
    coeffs = np.zeros(n, dtype=complex)
    take = min(n, tau.coeffs.size)
    coeffs[:take] = tau.coeffs[:take]
    coeffs[0] = coeffs[0].real + 0.01
    return mr.ToeplitzSpec(coeffs=coeffs)


def crit05_scalar_moment_recovery():
    worst_mom = 0.0
    worst_psd = 0.0
    for k in range(50):
        n = 2 + k % 5
        spec = _seeded_psd_spec(n, split(501, k))
        mu = mr.measure_from_toeplitz(spec)
        mom = np.array([mu.moment(j) for j in range(n)])
        worst_mom = max(worst_mom, float(np.abs(mom - spec.coeffs).max()))
        _, mn = mr.toeplitz_psd(mr.toeplitz_from_measure(mu, n))
        worst_psd = min(worst_psd, mn)
    ok = worst_mom <= 1e-6 and worst_psd >= -1e-9
    return ok, (f"50 specs, worst moment residual {worst_mom:.2e}, "
                f"worst round-trip min eig {worst_psd:.2e}")


def crit06_order_two_dichotomy():
    agree = 0
    dilated = 0
    feasible = 0
    total = 200
    for k in range(total):
        dim = 2 + k % 3
        child = split(601, k)
        gen = SplitMix64(child)
        if gen.uniform() < 0.5:
            target = 0.05 + 0.44 * gen.uniform()   # [0.05, 0.49]
        else:
            target = 0.51 + 0.69 * gen.uniform()   # [0.51, 1.20]
        T = random_with_radius(dim, target, split(child, 1))
        margin = mr.nilpotent_condition(T, 2)
        inside = target <= 0.5
        if (margin >= -1e-9) == inside:
            agree += 1
        if inside:
            feasible += 1
            nd = mr.nilpotent_dilation(T, 2)
            err = mr.op_norm(np.conj(nd.V).T @ nd.N @ nd.V - T)
            if err <= 1e-7:
                dilated += 1
    ok = agree == total and dilated == feasible
    return ok, (f"sign agreement {agree}/{total}, verified dilations "
                f"{dilated}/{feasible}")


def crit07_equivalence_suite():
    agreeing = 0
    total = 50
    for k in range(total):
        dim = 2 + k % 3
        child = split(701, k)
        gen = SplitMix64(child)
        if gen.uniform() < 0.5:
            target = 0.30 + 0.68 * gen.uniform()   # [0.30, 0.98]
        else:
            target = 1.02 + 0.98 * gen.uniform()   # [1.02, 2.00]
        T = random_with_radius(dim, target, split(child, 1))
        rep = mr.equivalence_suite(T)  # raises on any disagreement
        conds = rep.all_conditions()
        if all(c == conds[0] for c in conds):
            agreeing += 1
    return agreeing == total, f"all nine conditions agree in {agreeing}/{total} cases"


def crit08_compression_radius():
    worst = 0.0
    for k in range(50):
        dim = 2 + k % 7
        T = mr.random_matrix(dim, dim, split(801, k))
        nu, _ = mr.smith_ward_nu(T, 2)
        worst = max(worst, mr.op_norm(T) - nu)
    return worst <= 1e-8, f"50 inputs, worst norm deficit {worst:.2e}"


def crit09_cp_pipeline():
    total = 100
    passed = 0
    details = []
    for k in range(total):
        child = split(901, k)
        gen = SplitMix64(child)
        n = 2 + int(gen.uniform() * 2)
        m = 2 + int(gen.uniform() * 2)
        if gen.uniform() < 0.5:
            T = random_with_radius(m, 0.05 + 0.40 * gen.uniform(), split(child, 1))
            pairs = [(mr.shift(2), T), (mr.shift(2).T, np.conj(T).T)]
            n = 2
        else:
            psi = random_ucp_map(n, m, split(child, 2))
            Sn = mr.shift(n)
            target = mr.apply_map(psi, Sn)
            pairs = [(Sn, target), (Sn.T, np.conj(target).T)]
        out = mr.solve_map_problem(n, m, pairs)
        if not isinstance(out, mr.Feasible):
            details.append(f"case {k}: solver undetermined")
            continue
        C = mr.ChoiMat(n=n, m=m, block=out.matrix)
        _, mn = mr.psd_check(C.block)
        if mn < -1e-7:
            details.append(f"case {k}: Choi min eig {mn:.2e}")
            continue
        ks = mr.kraus_from_choi(C, mr.Tolerances(psd_eps=1e-6))
        back = ks.reconstruct(n, m)
        rec = max(mr.op_norm(back.value(i, j) - C.block_at(i, j))
                  for i in range(1, n + 1) for j in range(1, n + 1))
        if rec > 1e-8:
            details.append(f"case {k}: Kraus reconstruction {rec:.2e}")
            continue
        st_form = mr.stinespring(mr.map_from_choi(C), mr.Tolerances(psd_eps=1e-6))
        iso = mr.op_norm(np.conj(st_form.V).T @ st_form.V - np.eye(m))
        if iso > 1e-10:
            details.append(f"case {k}: isometry defect {iso:.2e}")
            continue
        comp = max(
            mr.op_norm(np.conj(st_form.V).T
                       @ mr.kron(mr.matrix_unit(n, i, j), np.eye(st_form.r))
                       @ st_form.V - C.block_at(i, j))
            for i in range(1, n + 1) for j in range(1, n + 1))
        if comp > 1e-7:
            details.append(f"case {k}: compression identity {comp:.2e}")
            continue
        passed += 1
    return passed == total, f"{passed}/{total} solves fully verified" + \
        ("" if not details else "; first failure: " + details[0])


def crit10_positive_definiteness_bridge():
    good = 0
    for k in range(30):
        dim = 1 + k % 4
        gen = SplitMix64(split(1001, k))
        T = random_with_radius(dim, 0.1 + 0.9 * gen.uniform(), split(1001, 1000 + k))
        ok, _ = mr.pd_function_check(mr.halved_power_blocks(T, 6))
        good += ok
    bad = 0
    for k in range(30):
        dim = 1 + k % 4
        gen = SplitMix64(split(1002, k))
        # the 7-block finite section separates reliably only from ~1.1 up,
        # so infeasible draws are taken from [1.15, 2.0] (all >= 1.05)
        T = random_with_radius(dim, 1.15 + 0.85 * gen.uniform(), split(1002, 1000 + k))
        ok, _ = mr.pd_function_check(mr.halved_power_blocks(T, 6))
        bad += not ok
    return good == 30 and bad == 30, \
        f"pass side {good}/30, fail side {bad}/30 (agreement {good + bad}/60)"


def crit11_membership_closure():
    pool = []
    for k in range(60):
        gen = SplitMix64(split(1101, k))
        X = random_with_radius(2, 0.05 + 0.44 * gen.uniform(), split(1101, 500 + k))
        verdict = mr.member_e21(X)
        if not (verdict.member and verdict.witness is not None):
            return False, f"pool member {k} failed verification"
        pool.append(X)
    worst_combo = 0.0
    for k in range(200):
        child = split(1102, k)
        gen = SplitMix64(child)
        r = 2 + int(gen.uniform() * 3)
        Xs = [pool[int(gen.uniform() * len(pool))] for _ in range(r)]
        As = random_partition_of_identity(2, r, split(child, 1))
        Y = mr.cstar_convex(Xs, As)
        worst_combo = max(worst_combo, mr.num_radius(Y))
    worst_spatial = 0.0
    for s in mr.spatial_samples(E21, 2, 500, 1103):
        worst_spatial = max(worst_spatial, mr.num_radius(s))
    ok = worst_combo <= 0.5 + 1e-8 and worst_spatial <= 0.5 + 1e-9
    return ok, (f"200 combinations worst radius {worst_combo:.12f}, "
                f"500 spatial samples worst radius {worst_spatial:.12f}")


CRITERIA = [
    ("01 exact extremal values", crit01_exact_extremal_values),
    ("02 radius reference values", crit02_radius_values),
    ("03 power dilation window", crit03_power_dilation_window),
    ("04 spectral factor round trip", crit04_spectral_factor_round_trip),
    ("05 scalar moment recovery", crit05_scalar_moment_recovery),
    ("06 order-two dichotomy", crit06_order_two_dichotomy),
    ("07 equivalence suite", crit07_equivalence_suite),
    ("08 compression radius", crit08_compression_radius),
    ("09 cp pipeline integrity", crit09_cp_pipeline),
    ("10 positive-definiteness bridge", crit10_positive_definiteness_bridge),
    ("11 membership closure", crit11_membership_closure),
]


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(name, fn):
    ok, detail = fn()
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {name}: {detail}"
