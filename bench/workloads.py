"""The four workloads: seeded inputs, the operations run on them, and the
checks each answer must pass.

An operation is one call into mrange. Its ``check`` recomputes the
answer's residuals with :mod:`oracle` (numpy only) and returns them as
(residual, bound) pairs; it raises ``CheckFailed`` for a wrong answer and
``Unanswered`` when mrange gave no verified answer (an error exit or an
unverified witness). Only operations marked ``known_defect`` may fail
without making the run incorrect. Inputs come from ``numpy.random.default_rng`` seeded
by the workload seed, never from mrange's own generator, and their construction
fixes every expected verdict.
"""

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracle import (E21, X_OF_2E21, X_OF_E21, expect, herm, min_eig, op_norm,
                    radius_bracket, shift, shift_radius, sqrt_psd)

PSD_EPS = 1e-9       # mrange's relative PSD slack
FEAS_EPS = 1e-7      # residual the feasibility solver accepts
WITNESS_EPS = 1e-6   # bound mrange asserts on membership witnesses
FACTOR_EPS = 1e-8    # bound mrange asserts on the factorization residuals
WINDOW = 12          # blocks of the two_dilation window (M)


class Unanswered(Exception):
    """mrange gave no verified answer: the CLI exited with an error, or the
    result is flagged unverified."""


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # a known mrange defect can make this operation fail: its failures count
    # in fail_share, but only a wrong answer makes the run incorrect
    known_defect: bool = False


def gaussian(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def with_radius(rng, n, w):
    """Gaussian T rescaled so that the oracle radius is w; returns T and its
    certified radius bracket."""
    G = gaussian(rng, n)
    lo, hi = radius_bracket(G)
    return G * (w / lo), (w, w * hi / lo)


def psd_pair(H, bound):
    """(negative part of the smallest eigenvalue, bound)."""
    return max(0.0, -min_eig(H)), bound


# -- checks shared by the API and the CLI operations ---------------------------

def check_radius(w, bracket, T):
    lo, hi = bracket
    bound = PSD_EPS * (1.0 + op_norm(T))
    expect(lo - bound <= w <= hi + bound,
           f"radius {w!r} outside the certified bracket [{lo!r}, {hi!r}]")
    return [(abs(w - lo), bound)]


def check_factorization(T, X, Y, Z, C):
    """Extremal X in [0, I] satisfying the defining LMI, and both factorizations
    of T recomputed from the returned operators."""
    n = T.shape[0]
    I = np.eye(n)
    scale = 1.0 + op_norm(T)
    lmi = np.block([[I - X, T.conj().T / 2.0], [T / 2.0, X]])
    return [
        psd_pair(X, PSD_EPS * scale),
        psd_pair(I - X, PSD_EPS * scale),
        psd_pair(lmi, PSD_EPS * scale),
        (op_norm(Y - (2.0 * X - I)), PSD_EPS * scale),
        (op_norm(sqrt_psd(I + Y) @ Z @ sqrt_psd(I - Y) - T), FACTOR_EPS * scale),
        (op_norm(2.0 * sqrt_psd(I - C.conj().T @ C) @ C - T), FACTOR_EPS * scale),
    ]


def check_lmi_half(M, A):
    """0 <= A <= I and [[A, M*], [M, I - A]] PSD."""
    I = np.eye(M.shape[0])
    bound = PSD_EPS * (1.0 + op_norm(M))
    block = np.block([[A, M.conj().T], [M, I - A]])
    return [psd_pair(A, bound), psd_pair(I - A, bound), psd_pair(block, bound)]


def check_ucp(M, values, choi=None):
    """Unital CP map on M_2 with phi(E_21) = M, from its values and Choi block
    (assembled from the values when not given)."""
    I = np.eye(M.shape[0])
    choi = np.block(values) if choi is None else choi
    bound = PSD_EPS * (1.0 + op_norm(M))
    return [psd_pair(choi, bound),
            (op_norm(values[0][0] + values[1][1] - I), bound),
            (op_norm(values[1][0] - M), bound),
            (op_norm(values[0][1] - M.conj().T), bound)]


def check_power_dilation(T, V, N, order):
    """V isometric, V* N^j V = T^j for j < order, N^order = 0."""
    out = [(op_norm(V.conj().T @ V - np.eye(T.shape[0])), PSD_EPS)]
    P = np.eye(N.shape[0])
    Tj = np.eye(T.shape[0])
    for _ in range(1, order):
        P, Tj = P @ N, Tj @ T
        out.append((op_norm(V.conj().T @ P @ V - Tj), FEAS_EPS))
    out.append((op_norm(P @ N), PSD_EPS))
    return out


def check_weights(weights, coeffs, targets, bound):
    """PSD weights H_j with sum_j coeffs[k][j] H_j = targets[k] for every k.

    The feasibility solver iterates until the weights are PSD within
    FEAS_EPS and stops there, so where that residual lands below FEAS_EPS
    says nothing about accuracy: it is checked, but returns no margin.
    """
    H = np.asarray(weights)
    negative = max(0.0, -min(min_eig(h) for h in H))
    expect(negative <= FEAS_EPS,
           f"weights not PSD: eigenvalue {-negative:.3e} below -{FEAS_EPS:.0e}")
    return [(op_norm(np.tensordot(c, H, axes=1) - target), bound)
            for c, target in zip(coeffs, targets)]


# -- radius-scan ---------------------------------------------------------------

def radius_scan(m, rng, workdir):
    """Support-function scans: num_radius, radius_characterizations and
    range_boundary (K = 256) on Gaussian T with radii below and above 1, and
    on the shifts S_n, whose radius cos(pi / (n + 1)) is exact."""
    ALL = ("num_radius", "radius_characterizations", "range_boundary")
    inputs = []
    # enough n = 16 inputs that the seven slowest operations (n = 32, 64)
    # stay below the top tenth, so op_p90_ms falls among many similar calls
    for k in range(20):
        inputs.append((16, f"gauss-{k}", *with_radius(rng, 16, (0.6, 1.4)[k % 2]), ALL))
    inputs.append((16, "shift", shift(16), (shift_radius(16),) * 2, ALL))
    inputs.append((32, "gauss-0", *with_radius(rng, 32, 1.25), ALL))
    inputs.append((32, "shift", shift(32), (shift_radius(32),) * 2,
                   ("num_radius", "range_boundary")))
    inputs.append((64, "gauss-0", *with_radius(rng, 64, 0.9), ("num_radius", "range_boundary")))

    checks = {"num_radius": check_radius, "radius_characterizations": check_characterizations,
              "range_boundary": check_boundary}
    ops = []
    for n, label, T, bracket, kinds in inputs:
        for kind in kinds:
            args = (T, 256) if kind == "range_boundary" else (T,)
            ops.append(Op(f"{kind} n={n} {label}",
                          lambda k=kind, a=args: getattr(m, k)(*a),
                          lambda out, c=checks[kind], T=T, b=bracket: c(out, b, T)))
    return ops


def check_characterizations(rep, bracket, T):
    out = check_radius(rep.radius, bracket, T)
    expected = bracket[1] <= 1.0
    expect(all(c == expected for c in rep.conditions),
           f"conditions {rep.conditions} but the oracle radius is {bracket[0]!r}")
    attained = float(np.linalg.eigvalsh(herm(np.exp(1j * rep.argmax_angle) * T))[-1])
    out.append((abs(attained - rep.radius), PSD_EPS * (1.0 + op_norm(T))))
    return out


def check_boundary(points, bracket, T):
    """Each point is <Tv, v> for a top eigenvector v of Re(e^{-i theta_k} T), so
    Re(e^{-i theta_k} p_k) equals the support function at that angle."""
    K = len(points)
    expect(K == 256, f"{K} boundary points, expected 256")
    phases = np.exp(-2j * np.pi * np.arange(K) / K)
    stack = phases[:, None, None] * T[None]
    tops = np.linalg.eigvalsh((stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0)[:, -1]
    p = np.asarray(points)
    bound = PSD_EPS * (1.0 + op_norm(T))
    expect(np.abs(p).max() <= bracket[1] + bound, "a boundary point lies outside W(T)")
    return [(float(np.abs((phases * p).real - tops).max()), bound)]


# -- extremal-boundary ---------------------------------------------------------

def extremal_boundary(m, rng, workdir):
    """Inputs with w(T) = 1 exactly: 2 E21 and S_n / cos(pi / (n + 1)) in closed
    form, and Gaussian T scaled by the oracle radius."""
    inputs = [(2, "2E21", 2.0 * E21)]
    for n in (4, 8):
        inputs.append((n, "shift", shift(n) / shift_radius(n)))
    for n, count in ((2, 4), (4, 3), (8, 3), (16, 1), (24, 1)):
        for k in range(count):
            inputs.append((n, f"gauss-{k}", with_radius(rng, n, 1.0)[0]))

    kinds = {
        "ando_decompose": (lambda T: m.ando_decompose(T), check_decomposition),
        "two_dilation": (lambda T: m.two_dilation(T, WINDOW), check_two_dilation),
        "radius_lmi": (lambda T: m.radius_lmi(T / 2.0), check_radius_lmi),
        "ucp_from_e21": (lambda T: m.ucp_from_e21(T / 2.0), check_ucp_map),
    }
    ops = []
    for n, label, T in inputs:
        # n = 16 and 24 keep one operation each: all four would take ~25 s a pass
        names = ("radius_lmi",) if n == 24 else ("ando_decompose",) if n == 16 else kinds
        for kind in names:
            call, check = kinds[kind]
            ops.append(Op(f"{kind} n={n} {label}", lambda c=call, T=T: c(T),
                          lambda out, c=check, T=T, lab=label: c(out, T, lab)))
    return ops


def check_decomposition(dec, T, label):
    out = check_factorization(T, dec.X, dec.Y_max, dec.Z, dec.C)
    if label == "2E21":
        out.append((op_norm(dec.X - X_OF_2E21), FACTOR_EPS))
    return out


def check_two_dilation(win, T, label):
    """(U^k)_{00} = T^k / 2 for 1 <= k < WINDOW // 2, U unitary away from the
    window's edges."""
    d = T.shape[0]
    U = win.dense()
    size = (2 * WINDOW + 1) * d
    expect(U.shape == (size, size), f"dilation has shape {U.shape}, expected {size}")
    inner = slice(2 * d, size - 2 * d)
    out = [(op_norm((U.conj().T @ U - np.eye(size))[inner, inner]), FEAS_EPS)]
    c = WINDOW * d
    P, Tk = np.eye(size), np.eye(d)
    for _ in range(1, WINDOW // 2):
        P, Tk = P @ U, Tk @ T
        out.append((op_norm(P[c:c + d, c:c + d] - Tk / 2.0), PSD_EPS))
    return out


def check_radius_lmi(result, T, label):
    ok, A = result
    expect(ok, "radius LMI reported infeasible at w(T) = 1/2")
    out = check_lmi_half(T / 2.0, A)
    if label == "2E21":
        out.append((op_norm(A - np.diag([1.0, 0.0])), FACTOR_EPS))
    return out


def check_ucp_map(phi, T, label):
    return check_ucp(T / 2.0, [[phi.value(i, j) for j in (1, 2)] for i in (1, 2)])


# -- psd-feasibility -----------------------------------------------------------

def psd_feasibility(m, rng, workdir):
    """The PSD-affine feasibility solver behind membership witnesses, power
    dilations and block moment recovery, plus Fejer-Riesz and scalar moments.

    Known defects stay in the list and count as failures: fejer_riesz
    fails its own grid check on generic inputs at degree 64 (and at 48 on
    some) and, rarely at any degree, raises RootPairingFailed; one sparse
    off-grid block moment problem ends SolverUndetermined; and
    measure_from_toeplitz, mostly at n >= 20, stops on scipy's nnls
    iteration limit. These operations are marked ``known_defect``.
    """
    ops = []
    for d, nodes in ((2, 16), (2, 32), (2, 64), (4, 16), (4, 64)):
        # all singular values 0.7: interior, and the solver's iteration count
        # barely depends on the seed (for Gaussian X it varies fivefold)
        X = 0.7 * np.linalg.qr(gaussian(rng, d))[0]
        ops.append(Op(f"member_shift_ball d={d} nodes={nodes}",
                      lambda X=X, k=nodes: m.member_shift_ball(X, k),
                      lambda v, X=X, k=nodes: check_shift_member(v, X, k)))
    for d in (2, 3, 4):
        for k in (3, 4, 5, 6):
            lams = np.exp(2j * np.pi * np.arange(k) / k)
            # halfway between the uniform partition I/k and a random one: an
            # interior point, so the solver's work (its set-up) barely depends
            # on the seed; random partitions alone vary it twentyfold
            X = sum(l * (np.eye(d) / k + H) / 2.0
                    for l, H in zip(lams, random_partition(rng, d, k)))
            ops.append(Op(f"member_normal d={d} k={k}",
                          lambda X=X, s=lams: m.member_normal(s, X),
                          lambda v, X=X, s=lams: check_normal_member(v, X, s)))
    # |T| <= 0.45 gives w(T) <= 1/2 (order 2); |T| = 0.3 keeps
    # I + 2 Re(l T + l^2 T^2) >= (1 - 0.6 - 0.18) I (order 3)
    for order, norm in ((2, 0.45), (3, 0.3)):
        for dim in (2, 3, 4, 5):
            T = gaussian(rng, dim)
            T *= norm / op_norm(T)
            ops.append(Op(f"nilpotent_dilation order={order} m={dim}",
                          lambda T=T, o=order: m.nilpotent_dilation(T, o),
                          lambda nd, T=T, o=order: check_power_dilation(T, nd.V, nd.N, o)))
    for d, n, grid in ((2, 3, True), (2, 4, False), (2, 5, True), (2, 6, False),
                       (3, 3, False), (3, 4, True)):
        spec = block_spec(m, rng, d, n, atoms=8 * n, on_grid=grid)
        where = "on" if grid else "off"
        ops.append(Op(f"block_measure_from_toeplitz d={d} n={n} {where}-grid",
                      lambda s=spec: m.block_measure_from_toeplitz(s),
                      lambda mu, s=spec: check_block_measure(mu, s)))
    # Sparse off-grid atoms: the solver stalls far above its tolerance. At
    # the default 20000 iterations one call takes about 40 s, so it runs with
    # a 400-iteration cap; it ends SolverUndetermined either way.
    spec = block_spec(m, rng, 2, 5, atoms=5, on_grid=False)
    ops.append(Op("block_measure_from_toeplitz d=2 n=5 sparse-off-grid",
                  lambda s=spec: m.block_measure_from_toeplitz(s, max_iter=400),
                  lambda mu, s=spec: check_block_measure(mu, s), known_defect=True))
    for k, degree in enumerate((8, 16, 24, 32, 40) * 3 + (48, 64, 64)):
        q = gaussian(rng, 1, degree + 1)[0]
        coeffs = np.convolve(q, np.conj(q[::-1]))[degree:]
        coeffs[0] = coeffs[0].real
        tau = m.TrigPoly(coeffs=coeffs)
        ops.append(Op(f"fejer_riesz degree={degree} input={k}", lambda t=tau: m.fejer_riesz(t),
                      lambda p, t=tau: check_spectral_factor(p, t), known_defect=True))
    for n in range(4, 27, 2):
        G = 8 * n
        nodes = 2.0 * np.pi * rng.choice(G, size=n + 2, replace=False) / G
        weights = rng.random(n + 2) + 0.1
        coeffs = np.array([np.sum(weights * np.exp(1j * k * nodes)) for k in range(n)])
        coeffs[0] = coeffs[0].real
        spec = m.ToeplitzSpec(coeffs=coeffs)
        ops.append(Op(f"measure_from_toeplitz n={n}",
                      lambda s=spec: m.measure_from_toeplitz(s),
                      lambda mu, s=spec: check_scalar_measure(mu, s), known_defect=True))
    return ops


def random_partition(rng, d, k):
    """k random positive definite d x d matrices summing to the identity."""
    Hs = [g @ g.conj().T for g in (gaussian(rng, d) for _ in range(k))]
    w, V = np.linalg.eigh(sum(Hs))
    root = (V / np.sqrt(w)) @ V.conj().T
    return [root @ H @ root for H in Hs]


def block_spec(m, rng, d, n, atoms, on_grid):
    """Block Toeplitz moments of an atomic measure with positive definite
    weights: on the recovery grid (8 n equispaced nodes) or off it."""
    G = 8 * n
    if on_grid:
        nodes = 2.0 * np.pi * np.sort(rng.choice(G, size=atoms, replace=False)) / G
    else:
        nodes = 2.0 * np.pi * (np.sort(rng.choice(G, size=atoms, replace=False))
                               + rng.uniform(0.2, 0.8, size=atoms)) / G
    weights = [g @ g.conj().T / (d * atoms) for g in (gaussian(rng, d) for _ in range(atoms))]
    blocks = [sum(np.exp(1j * k * t) * W for t, W in zip(nodes, weights)) for k in range(n)]
    blocks[0] = herm(blocks[0])
    return m.BlockToeplitzSpec(blocks=tuple(blocks))


def check_shift_member(verdict, X, nodes):
    expect(verdict.member, "a point of norm 0.7 reported outside the unit ball")
    if verdict.unverified or verdict.witness is None:
        raise Unanswered("member_shift_ball returned an unverified witness")
    omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    d = X.shape[0]
    return check_weights(verdict.witness, [np.ones(nodes), omega], [np.eye(d), X],
                         WITNESS_EPS)


def check_normal_member(verdict, X, lams):
    if verdict.unverified:
        raise Unanswered("member_normal returned an unverified non-member")
    expect(verdict.member and verdict.witness is not None,
           "a constructed convex combination reported outside the range")
    return check_weights(verdict.witness, [np.ones(len(lams)), lams],
                         [np.eye(X.shape[0]), X], WITNESS_EPS)


def check_block_measure(mu, spec):
    nodes = np.asarray(mu.nodes)
    coeffs = [np.exp(1j * k * nodes) for k in range(spec.n)]
    scale = 1.0 + max(op_norm(B) for B in spec.blocks)
    return check_weights(mu.weights, coeffs, spec.blocks, WITNESS_EPS * scale)


def check_spectral_factor(p, tau):
    """|p|^2 against tau on the 4096-point circle grid."""
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    a = np.asarray(tau.coeffs)
    k = np.arange(1, a.size)
    values = a[0].real + 2.0 * (a[1:][None, :] * np.exp(1j * np.outer(theta, k))).real.sum(1)
    fit = np.abs(np.polyval(np.asarray(p)[::-1], np.exp(1j * theta))) ** 2
    return [(float(np.abs(values - fit).max()), FEAS_EPS * (1.0 + values.max()))]


def check_scalar_measure(mu, spec):
    w = np.asarray(mu.weights)
    expect(w.size and w.min() >= 0.0, "negative atom weight")
    moments = np.array([np.sum(w * np.exp(1j * k * np.asarray(mu.nodes)))
                        for k in range(spec.n)])
    return [(float(np.abs(moments - spec.coeffs).max()),
             WITNESS_EPS * (1.0 + float(np.abs(spec.coeffs).max())))]


# -- cli-interior --------------------------------------------------------------

def cli_interior(m, rng, workdir):
    """Small interior problems through ``mrange.cli.run`` with JSON files.

    Every input's radius w comes from its construction, which fixes each
    verdict and exit code: the half-radius tests (lmi, member, the order-2
    condition) hold iff w <= 1/2 and exit 2 otherwise.
    """
    from mrange import cli

    ops = []

    def add(name, argv, check, expected_code):
        ops.append(Op(name, lambda: run_cli(cli, argv),
                      lambda res: check_cli(res, expected_code, check)))

    path = write_json(workdir, "E21", cli.matrix_to_json(E21))
    add("cli ando E21", ["ando", "--input", path],
        lambda o: check_cli_ando(o, E21, X_OF_E21), 0)
    for n in range(2, 9):
        for w in (0.2, 0.45, 0.9):
            T, bracket = with_radius(rng, n, w)
            tag = f"n={n} w={w}"
            path = write_json(workdir, f"T-{n}-{w}", cli.matrix_to_json(T))
            half = w <= 0.5
            code = 0 if half else 2
            add(f"cli numrad {tag}", ["numrad", "--input", path],
                lambda o, T=T, b=bracket: check_radius(o["radius"], b, T), 0)
            add(f"cli ando {tag}", ["ando", "--input", path],
                lambda o, T=T: check_cli_ando(o, T), 0)
            add(f"cli lmi {tag}", ["lmi", "--input", path],
                lambda o, T=T, h=half: check_cli_lmi(o, T, h), code)
            add(f"cli member {tag}", ["member", "--input", path],
                lambda o, T=T, b=bracket, h=half: check_cli_member(o, T, b, h), code)
            add(f"cli nilpotent-cond {tag}", ["nilpotent-cond", "--input", path],
                lambda o, T=T, b=bracket, h=half: check_cli_condition(o, T, b, h), code)
            if half:
                add(f"cli ucp-e21 {tag}", ["ucp-e21", "--input", path],
                    lambda o, T=T: check_cli_ucp(o, T), 0)
                add(f"cli nilpotent-dilate {tag}", ["nilpotent-dilate", "--input", path],
                    lambda o, T=T: check_power_dilation(
                        T, from_json(o["V"]), from_json(o["N"]), 2), 0)
            order = max(1, n // 2)
            add(f"cli spatial {tag}", ["spatial", "--input", path, "--order", str(order),
                                       "--count", "8", "--seed", str(n)],
                lambda o, T=T, b=bracket, k=order: check_cli_spatial(o, T, b, k), 0)
            U = np.linalg.qr(gaussian(rng, n))[0]
            path2 = write_json(workdir, f"P-{n}-{w}", {
                "S": cli.matrix_to_json(T), "T": cli.matrix_to_json(U.conj().T @ T @ U)})
            add(f"cli probe {tag}", ["probe", "--input", path2, "--order", "2",
                                     "--count", "16", "--seed", str(n)],
                lambda o, T=T: check_cli_probe(o, T), 0)
        T, bracket = with_radius(rng, n, 0.6)
        path = write_json(workdir, f"S-{n}", cli.matrix_to_json(T))
        add(f"cli suite n={n} w=0.6", ["suite", "--input", path],
            lambda o, T=T, b=bracket: check_cli_suite(o, T, b), 0)
    return ops


def write_json(workdir, name, obj):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return CliResult(code, buf.getvalue())


def from_json(obj):
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def check_cli(result, expected_code, check):
    code = result.code
    out = json.loads(result.stdout)
    if code == 1 and "error" in out:
        raise Unanswered(f"exit 1: {out['error']['name']}: {out['error']['message']}")
    expect(code == expected_code, f"exit code {code}, expected {expected_code}")
    return check(out)


def check_cli_ando(out, T, closed_form=None):
    X = from_json(out["X"])
    res = check_factorization(T, X, from_json(out["Y_max"]), from_json(out["Z"]),
                              from_json(out["C"]))
    if closed_form is not None:
        res.append((op_norm(X - closed_form), FACTOR_EPS))
    return res


def check_cli_lmi(out, T, half):
    expect(out["feasible"] == half, f"lmi feasible={out['feasible']}, expected {half}")
    return check_lmi_half(T, from_json(out["A"])) if half else []


def check_cli_member(out, T, bracket, half):
    expect(out["member"] == half, f"member={out['member']}, expected {half}")
    if out["unverified"] or (half and not out["witness_verified"]):
        raise Unanswered("member verdict without a verified witness")
    return check_radius(0.5 - out["margin"], bracket, T)


def check_cli_condition(out, T, bracket, half):
    """The order-2 margin min_l lambda_min(I + 2 Re(l T)) equals 1 - 2 w(T)."""
    expect(out["holds"] == half, f"condition holds={out['holds']}, expected {half}")
    return check_radius((1.0 - out["margin"]) / 2.0, bracket, T)


def check_cli_ucp(out, T):
    values = [[from_json(out["values"][f"E{i}{j}"]) for j in (1, 2)] for i in (1, 2)]
    return check_ucp(T, values, from_json(out["choi"]))


def check_cli_spatial(out, T, bracket, order):
    """Compressions V*TV cannot have a larger numerical radius than T."""
    expect(out["count"] == 8, f"{out['count']} samples, expected 8")
    expect(all(s["rows"] == order == s["cols"] for s in out["samples"]),
           "compression of the wrong size")
    bound = PSD_EPS * (1.0 + op_norm(T))
    return [(max(0.0, out["max_radius"] - bracket[1]), bound)]


def check_cli_probe(out, T):
    """Unitarily equivalent inputs have equal operator-system norms."""
    expect(out["samples"] == 16, f"{out['samples']} samples, expected 16")
    return [(out["max_gap"], PSD_EPS * (1.0 + op_norm(T)))]


def check_cli_suite(out, T, bracket):
    expect(out["all_true"] and all(out["conditions"]),
           f"conditions {out['conditions']} at radius {bracket[0]!r}")
    return check_radius(out["radius"], bracket, T)


WORKLOADS = {
    "radius-scan": radius_scan,
    "extremal-boundary": extremal_boundary,
    "psd-feasibility": psd_feasibility,
    "cli-interior": cli_interior,
}
