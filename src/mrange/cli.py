"""Command-line front end over a JSON matrix interchange format.

Matrices travel as ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with
row-major data. Results are a single JSON object on stdout carrying the
command echo, verdicts/values, residuals, any matrices, and elapsed_ms.
Floats are emitted through repr, which round-trips every binary64 value
exactly; elapsed_ms is 0.0 unless --timing is passed so identical inputs
produce byte-identical output.

Exit codes: 0 success; 2 computed-but-negative verdict (or failed
precondition) on test-like commands; 1 error, with a machine-readable
error object on stdout.
"""

import argparse
import json
import sys
import time
from functools import cache

import numpy as np

from . import __version__, ando, dilation, matrange, numrange, toeplitz
from .cpmaps import choi, is_cp
from .errors import BadJson, BadOutput, MrangeError, UnknownCommand
from .linalg import BAND, Tolerances, as_cmat, op_norm
from .toeplitz import BlockToeplitzSpec, ToeplitzSpec

COMMANDS = (
    "numrad", "boundary", "ando", "lmi", "ucp-e21", "dilate2", "bilateral",
    "pdcheck", "nilpotent-cond", "nilpotent-dilate", "fejer-riesz",
    "toeplitz-check", "toeplitz-measure", "block-measure", "member",
    "spatial", "smith-ward", "probe", "suite",
)
# the commands whose input is one matrix, and those whose input is a Toeplitz spec
MATRIX_COMMANDS = frozenset((
    "numrad", "boundary", "ando", "lmi", "ucp-e21", "dilate2", "nilpotent-cond",
    "nilpotent-dilate", "member", "spatial", "smith-ward", "suite"))
TOEPLITZ_COMMANDS = frozenset(("toeplitz-check", "toeplitz-measure", "block-measure"))


def matrix_to_json(M):
    A = np.ascontiguousarray(as_cmat(M))
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": A.view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj):
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
        count = len(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadJson(f"matrix object needs rows/cols/data: {exc}")
    if min(rows, cols) < 0 or count != rows * cols:
        raise BadJson(f"{rows} x {cols} matrix with {count} data entries")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BadJson(f"matrix entries must be [re, im] pairs: {exc}")
    if not np.isfinite(flat).all():
        raise BadJson("matrix entries must be finite")
    return flat.reshape(rows, cols)


def complex_from_json(pair):
    return complex(pair[0], pair[1])


def complex_to_json(z):
    return [float(np.real(z)), float(np.imag(z))]


def _load_input(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or not JSON
        raise BadJson(f"cannot read input JSON: {exc}")


def _field(payload, key, convert, many=False):
    """convert(payload[key]), or with ``many`` convert of each of its items;
    BadJson when the input has no such field or it does not convert."""
    if not isinstance(payload, dict) or key not in payload:
        raise BadJson(f"input must carry a '{key}' field")
    try:
        return [convert(v) for v in payload[key]] if many else convert(payload[key])
    except (TypeError, ValueError, IndexError) as exc:
        raise BadJson(f"malformed '{key}' field: {exc}")


def _require_matrix(payload):
    if isinstance(payload, dict) and "rows" in payload and "data" in payload:
        return matrix_from_json(payload)
    return _field(payload, "matrix", matrix_from_json)


@cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="mrange",
        description="numerical radius / matricial range / dilation toolkit")
    p.add_argument("command", help="one of " + ", ".join(COMMANDS))
    p.add_argument("--input", required=False, help="input JSON file")
    p.add_argument("--tol", type=float, default=None,
                   help="PSD-check slack; threshold verdicts keep a fixed band")
    p.add_argument("--seed", type=int, default=2024, help="random seed")
    p.add_argument("--order", type=int, default=2, help="nilpotent order / subspace size")
    p.add_argument("--window", type=int, default=8, help="dilation window half-width")
    p.add_argument("--count", type=int, default=100, help="sample count")
    p.add_argument("--set", dest="target_set", choices=("e21", "shift", "normal"),
                   default="e21", help="membership target set")
    p.add_argument("--out", default=None, help="also write the JSON result here")
    p.add_argument("--timing", action="store_true",
                   help="report real elapsed_ms (breaks byte-determinism)")
    p.add_argument("--version", action="version", version=__version__)
    return p


def _run_command(cmd, args):
    """Returns (payload dict, exit code)."""
    if cmd not in COMMANDS:
        raise UnknownCommand(cmd)
    # BadTolerance unless --tol is a finite positive number
    tol = Tolerances() if args.tol is None else Tolerances(args.tol)
    payload = _load_input(args.input) if args.input else None
    T = _require_matrix(payload) if cmd in MATRIX_COMMANDS else None
    spec = _toeplitz_spec(payload) if cmd in TOEPLITZ_COMMANDS else None

    if cmd == "numrad":
        return {"radius": numrange.num_radius(T)}, 0

    if cmd == "boundary":
        pts = numrange.range_boundary(T, args.count)
        return {"points": [complex_to_json(z) for z in pts]}, 0

    if cmd == "ando":
        dec = ando.ando_decompose(T, tol)
        return {
            "X": matrix_to_json(dec.X),
            "Y_max": matrix_to_json(dec.Y_max),
            "Y_min": matrix_to_json(dec.Y_min),
            "Z": matrix_to_json(dec.Z),
            "C": matrix_to_json(dec.C),
            "iterations": dec.iterations,
            "residuals": {k: float(v) for k, v in dec.residuals.items()},
        }, 0

    if cmd == "lmi":
        ok, A = ando.radius_lmi(T, tol)
        out = {"feasible": ok}
        if ok:
            out["A"] = matrix_to_json(A)
        return out, 0 if ok else 2

    if cmd == "ucp-e21":
        phi = ando.ucp_from_e21(T, tol)
        cp_ok, min_eig = is_cp(phi, tol)
        return {
            "values": {f"E{i}{j}": matrix_to_json(phi.value(i, j))
                       for i in (1, 2) for j in (1, 2)},
            "choi": matrix_to_json(choi(phi).block),
            "cp": cp_ok,
            "choi_min_eig": min_eig,
        }, 0

    if cmd == "dilate2":
        win = dilation.two_dilation(T, args.window, tol)
        return {
            "window": args.window,
            "block_dim": win.block_dim,
            "compression_residual": win.residuals["compression"],
            "U": matrix_to_json(win.dense()),
        }, 0

    if cmd == "bilateral":
        rep = dilation.bilateral_e21_model(args.window)
        ok = rep.is_lower_unit and rep.flipped_is_upper_unit and rep.square_is_zero
        return {
            "compression": matrix_to_json(rep.compression),
            "compression_flipped": matrix_to_json(rep.compression_flipped),
            "square_compression": matrix_to_json(rep.square_compression),
            "model_verified": ok,
        }, 0 if ok else 2

    if cmd == "pdcheck":
        blocks = _field(payload, "blocks", matrix_from_json, many=True)
        ok, min_eig = dilation.pd_function_check(blocks, tol)
        return {"positive_definite": ok, "min_eig": min_eig}, 0 if ok else 2

    if cmd == "nilpotent-cond":
        margin = dilation.nilpotent_condition(T, args.order)
        ok = margin >= -BAND
        return {"order": args.order, "margin": margin, "holds": ok}, 0 if ok else 2

    if cmd == "nilpotent-dilate":
        nd = dilation.nilpotent_dilation(T, args.order)
        return {
            "order": nd.order,
            "multiplicity": nd.r,   # r = dim T: V comes from a d x d spectral factor
            "isometry_residual": nd.residuals["isometry"],
            "compression_residual": nd.residuals["compression"],
            "V": matrix_to_json(nd.V),
            "N": matrix_to_json(nd.N),
        }, 0

    if cmd == "fejer-riesz":
        coeffs = np.array(_field(payload, "coeffs", complex_from_json, many=True))
        poly = toeplitz.TrigPoly(coeffs=coeffs)
        p = toeplitz.fejer_riesz(poly)
        # |tau - |p|^2| on fejer_riesz's 4096-point precheck grid
        resid = float(np.abs(toeplitz._trig_grid(poly.coeffs)
                             - np.abs(toeplitz._circle_sums(p)) ** 2).max())
        return {
            "factor": [complex_to_json(z) for z in p],
            "grid_residual": resid,
        }, 0

    if cmd == "toeplitz-check":
        ok, min_eig = toeplitz.toeplitz_psd(spec, tol)
        return {"psd": ok, "min_eig": min_eig}, 0 if ok else 2

    if cmd == "toeplitz-measure":
        mu = toeplitz.measure_from_toeplitz(spec, tol)
        moments = [mu.moment(k) for k in range(spec.n)]
        return {
            "nodes": [float(x) for x in mu.nodes],
            "weights": [float(x) for x in mu.weights],
            "moments": [complex_to_json(z) for z in moments],
            "moment_residual": float(np.abs(np.array(moments)
                                            - spec.coeffs).max()),
        }, 0

    if cmd == "block-measure":
        mu = toeplitz.block_measure_from_toeplitz(spec, tol)
        resid = max(op_norm(mu.moment(k) - spec.blocks[k])
                    for k in range(spec.n))
        return {
            "nodes": [float(x) for x in mu.nodes],
            "weights": [matrix_to_json(G) for G in mu.weights],
            "moment_residual": resid,
        }, 0

    if cmd == "member":
        if args.target_set == "e21":
            verdict = matrange.member_e21(T, tol)
        elif args.target_set == "shift":
            verdict = matrange.member_shift_ball(T, tol=tol)
        else:
            spectrum = _field(payload, "spectrum", complex_from_json, many=True)
            verdict = matrange.member_normal(spectrum, T, tol)
        return {
            "set": args.target_set,
            "member": verdict.member,
            "margin": float(verdict.margin),
            "witness_verified": verdict.witness is not None,
            "unverified": verdict.unverified,
        }, 0 if verdict.member else 2

    if cmd == "spatial":
        mats = matrange.spatial_samples(T, args.order, args.count, args.seed)
        # W(A + B) is the hull of W(A) and W(B): the largest radius is that
        # of the samples' direct sum, one level-set solve
        return {
            "count": len(mats),
            "max_radius": numrange._RadiusSolve(mats[:, None]).maximum[0] if len(mats) else 0.0,
            "samples": [matrix_to_json(M) for M in mats[:8]],
        }, 0

    if cmd == "smith-ward":
        nu, comp = matrange.smith_ward_nu(T, args.order)
        return {
            "nu_lower": nu,
            "op_norm": op_norm(T),
            "compression": matrix_to_json(comp),
        }, 0

    if cmd == "probe":
        S = _field(payload, "S", matrix_from_json)
        T = _field(payload, "T", matrix_from_json)
        rep = matrange.opsys_probe(S, T, args.order, args.count, args.seed)
        return {"samples": rep.samples, "max_gap": rep.max_gap}, 0

    if cmd == "suite":
        rep = matrange.equivalence_suite(T, tol)
        conds = rep.all_conditions()
        return {
            "radius": rep.radius,
            "conditions": list(conds),
            "all_true": all(conds),
        }, 0 if all(conds) else 2


def _toeplitz_spec(payload):
    if isinstance(payload, dict) and "coeffs" in payload:
        return ToeplitzSpec(coeffs=np.array(_field(payload, "coeffs", complex_from_json, True)))
    if isinstance(payload, dict) and "blocks" in payload:
        return BlockToeplitzSpec(blocks=tuple(_field(payload, "blocks", matrix_from_json, True)))
    raise BadJson("Toeplitz input needs 'coeffs' or 'blocks'")


def run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        payload, code = _run_command(args.command, args)
        elapsed = (time.perf_counter() - started) * 1000.0 if args.timing else 0.0
        text = json.dumps({"command": args.command, **payload, "elapsed_ms": elapsed})
    except MrangeError as exc:
        text, code = _error_json(args.command, exc), 1
    if args.out:   # written before stdout, so an unwritable path prints its error alone
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            text, code = _error_json(args.command, BadOutput(f"cannot write --out: {exc}")), 1
    sys.stdout.write(text + "\n")
    return code


def _error_json(command, exc):
    return json.dumps({"command": command, "error": {"name": exc.name, "message": str(exc)}})


def main():
    sys.exit(run(sys.argv[1:]))
