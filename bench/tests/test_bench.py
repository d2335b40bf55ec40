"""Tests of the benchmark itself: oracles, failure accounting, flop formulas
and span recording.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import mrange  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_oracle_brackets_shift_radius(n):
    lower, upper = oracle.radius_bracket(oracle.shift(n))
    exact = oracle.shift_radius(n)
    assert lower <= exact + 1e-15 <= upper + 2e-15
    assert abs(lower - exact) < 1e-12


def test_oracle_bracket_contains_gaussian_radius():
    rng = np.random.default_rng(7)
    T = workloads.gaussian(rng, 6)
    lower, upper = oracle.radius_bracket(T)
    assert lower <= upper <= lower + oracle.op_norm(T) * np.pi / 1024 + 1e-15
    # a much finer grid never beats the certified upper bound, and the
    # refined lower bound is at least as good as the fine grid
    fine = oracle._support(T, 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)).max()
    assert fine <= upper
    assert fine <= lower + 1e-14 and lower - fine < 1e-7


@pytest.mark.parametrize("T, X", [(oracle.E21, oracle.X_OF_E21),
                                  (2.0 * oracle.E21, oracle.X_OF_2E21)])
def test_closed_forms_satisfy_the_oracle_checks(T, X):
    I = np.eye(2)
    # Y = 2X - I; Z = X^{+1/2} (T/2) (I-X)^{+1/2} restricted to the ranges
    def pinv_sqrt(H):
        w, V = np.linalg.eigh(H)
        keep = w > 1e-12
        return (V * np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)) @ V.conj().T

    Z = pinv_sqrt(X) @ (T / 2.0) @ pinv_sqrt(I - X)
    C = Z @ oracle.sqrt_psd(I - X)
    pairs = workloads.check_factorization(T, X, 2.0 * X - I, Z, C)
    assert all(r <= b for r, b in pairs)


def test_mrange_reproduces_the_closed_forms():
    for T, X in [(oracle.E21, oracle.X_OF_E21), (2.0 * oracle.E21, oracle.X_OF_2E21)]:
        dec = mrange.ando_decompose(T)
        pairs = workloads.check_decomposition(dec, T, "2E21" if T[1, 0] == 2 else "E21")
        assert all(r <= b for r, b in pairs)
        assert oracle.op_norm(dec.X - X) < 1e-8


def _one_pass(op):
    r = run.Run()
    r.run_pass([op])
    return r


def test_wrong_answer_counts_as_failed_and_incorrect():
    T = oracle.shift(3)
    w = oracle.shift_radius(3)
    wrong = workloads.Op("num_radius wrong", lambda: w + 1e-6,
                         lambda out: workloads.check_radius(out, (w, w), T),
                         known_defect=True)
    r = _one_pass(wrong)
    assert (r.attempted, r.failed) == (1, 1)
    assert "num_radius wrong" in r.incorrect


def test_right_answer_passes_with_a_margin():
    T = oracle.shift(3)
    w = oracle.shift_radius(3)
    right = workloads.Op("num_radius", lambda: mrange.num_radius(T),
                         lambda out: workloads.check_radius(out, (w, w), T))
    r = _one_pass(right)
    assert (r.failed, r.incorrect) == (0, {})
    assert r.margins["num_radius"] > 3.0


def test_margin_is_the_smallest_over_passes_and_the_metric_its_worst_few():
    residuals = iter([1e-12, 1e-10])
    op = workloads.Op("op", lambda: next(residuals), lambda res: [(res, 1e-9)])
    r = run.Run()
    r.run_pass([op])
    r.run_pass([op])
    assert r.margins["op"] == pytest.approx(1.0)
    # one operation degraded to its bound moves tol_margin_digits by a fifth
    r.margins = {f"op{k}": 3.0 for k in range(20)}
    before = run.end_to_end(_timed(r), 1.0)["tol_margin_digits"][0]
    r.margins["op0"] = 0.0
    after = run.end_to_end(_timed(r), 1.0)["tol_margin_digits"][0]
    assert (before, after) == (3.0, pytest.approx(3.0 * (1 - 1 / run.MARGIN_WORST)))


def _timed(r):
    r.latencies, r.pass_seconds, r.attempted = [[0.001] * 20], [0.02], 20
    return r


@pytest.mark.parametrize("known_defect", [False, True])
def test_unverified_verdict_counts_as_failed(known_defect):
    X = 0.7 * np.eye(2)
    verdict = mrange.MembershipVerdict(member=True, margin=0.3, unverified=True)
    op = workloads.Op("member_shift_ball", lambda: verdict,
                      lambda v: workloads.check_shift_member(v, X, 16), known_defect)
    r = _one_pass(op)
    assert r.failed == 1
    assert "unverified" in r.failures["member_shift_ball"][0]
    # only an operation with a known defect may fail and leave the run correct
    assert bool(r.incorrect) is not known_defect


@pytest.mark.parametrize("known_defect", [False, True])
def test_exception_counts_as_failed(known_defect):
    def boom():
        raise mrange.errors.SolverUndetermined("stalled")

    r = _one_pass(workloads.Op("boom", boom, lambda out: [], known_defect))
    assert r.failed == 1
    assert r.failures["boom"][0].startswith("raises SolverUndetermined")
    assert bool(r.incorrect) is not known_defect


def test_solver_tolerance_residual_is_checked_without_a_margin():
    I = np.eye(2)
    H = [I / 2.0, I / 2.0]
    pairs = workloads.check_weights(H, [np.ones(2)], [I], workloads.WITNESS_EPS)
    assert len(pairs) == 1
    H[0] = np.diag([0.5 + 2e-7, -2e-7])
    H[1] = I - H[0]
    with pytest.raises(oracle.CheckFailed):
        workloads.check_weights(H, [np.ones(2)], [I], workloads.WITNESS_EPS)


def test_cli_error_exit_and_changed_stdout():
    first = workloads.CliResult(0, '{"radius": 0.5}\n')
    second = workloads.CliResult(0, '{"radius": 0.6}\n')
    results = iter([first, second])
    op = workloads.Op("cli numrad", lambda: next(results),
                      lambda res: workloads.check_cli(res, 0, lambda o: []))
    r = run.Run()
    r.run_pass([op])
    r.run_pass([op])
    assert r.failed == 1 and "cli numrad" in r.incorrect

    error = workloads.CliResult(1, '{"error": {"name": "RadiusTooLarge", "message": "w"}}\n')
    r = _one_pass(workloads.Op("cli ucp", lambda: error,
                               lambda res: workloads.check_cli(res, 0, lambda o: [])))
    assert r.failed == 1 and "cli ucp" in r.incorrect
    assert r.failures["cli ucp"][0].startswith("unanswered: exit 1")


def test_flop_formulas_match_hand_counts():
    real3 = np.zeros((3, 3))
    assert spans.flops("eigvalsh", (real3,), {}) == pytest.approx(36.0)        # 4/3 * 27
    assert spans.flops("eigh", (np.zeros((2, 2), complex),), {}) == 288.0        # 4 * 9 * 8
    assert spans.flops("eigvalsh", (np.zeros((5, 2, 2), complex),), {}) == \
        pytest.approx(5 * 4 * 4 / 3 * 8)
    a = np.zeros((4, 2))
    assert spans.flops("svd", (a,), {"compute_uv": False}) == pytest.approx(64 - 32 / 3)
    assert spans.flops("svd", (a,), {}) == 4 * 16 * 2 + 8 * 4 * 4 + 9 * 8      # 328
    assert spans.flops("svd", (a,), {"full_matrices": False}) == 14 * 4 * 4 + 8 * 8
    assert spans.flops("lstsq", (a, np.zeros(4)), {}) == pytest.approx(64 - 32 / 3 + 16)
    assert spans.flops("pinv", (np.zeros((3, 2)),), {}) == 14 * 3 * 4 + 8 * 8 + 2 * 3 * 2 * 2


def test_spans_nest_and_uninstall():
    original = mrange.ando.num_radius
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mrange.ando.num_radius is not original
        X, iterations = tracer.recorded(lambda: mrange.ando_X(oracle.E21))()
        mrange.ando_X(oracle.E21)   # outside a recorded call: not counted
    finally:
        tracer.uninstall()
    assert mrange.ando.num_radius is original
    assert tracer.calls["ando.ando_X"] == 1
    assert tracer.calls["numrange.num_radius"] == 1
    assert tracer.calls["numpy.linalg.eigvalsh"] > 0
    assert tracer.counts["ando.ando_X.iterations"] == iterations
    assert tracer.counts["numpy.linalg.eigvalsh.flops_computed"] > 0
    assert all(v >= 0.0 for v in tracer.self_s.values())


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer._wrap("linalg", "op_norm", lambda: sum(range(200000)))
    outer = tracer._wrap("numrange", "num_radius", lambda: inner() + inner())
    tracer.recorded(outer)()
    span = tracer.self_s["numrange.num_radius"] + tracer.self_s["linalg.op_norm"]
    assert tracer.calls["linalg.op_norm"] == 2
    assert tracer.self_s["numrange.num_radius"] < tracer.self_s["linalg.op_norm"]
    assert span > 0.0


def test_escaped_exceptions_count_once_per_layer():
    tracer = spans.Tracer()

    def fail():
        raise ValueError

    inner = tracer._wrap("ando", "ando_X", fail)
    outer = tracer._wrap("ando", "ando_decompose", inner)
    with pytest.raises(ValueError):
        tracer.recorded(outer)()
    assert tracer.failed["ando"] == 1


def test_margin_is_capped_at_rounding_level():
    assert oracle.margin(0.0, 1e-9) == oracle.MARGIN_CAP
    assert oracle.margin(1e-12, 1e-9) == pytest.approx(3.0)
    with pytest.raises(oracle.CheckFailed):
        oracle.margin(2e-9, 1e-9)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = {name: unit for name, (_, unit) in
              spans.Tracer().metrics(BENCH.parent / "src", 1).items()}
    traced.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def _traced_counts(passes):
    """Per-pass traced metrics of a small operation list whose check, like
    the oracle's, calls numpy.linalg.eigvalsh; everything but times."""
    T = oracle.shift(3)
    w = oracle.shift_radius(3)
    ops = [workloads.Op("characterizations", lambda: mrange.radius_characterizations(T),
                        lambda rep: workloads.check_characterizations(rep, (w, w), T)),
           workloads.Op("ando_X", lambda: mrange.ando_X(oracle.E21), lambda out: [])]
    metrics = run.traced_metrics(run.Run(), ops, passes, 60.0)
    return {k: v for k, (v, unit) in metrics.items() if unit != "s" and k != "trace.overhead_share"}


def test_traced_counts_are_per_pass_and_leave_out_checks():
    short, longer = _traced_counts(1), _traced_counts(5)
    assert short == pytest.approx(longer, rel=1e-12)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.recorded(lambda: mrange.radius_characterizations(oracle.shift(3)))()
        tracer.recorded(lambda: mrange.ando_X(oracle.E21))()
    finally:
        tracer.uninstall()
    assert short["numpy.linalg.eigvalsh.calls"] == tracer.calls["numpy.linalg.eigvalsh"] > 0
    assert short["numrange.num_radius.calls"] == tracer.calls["numrange.num_radius"]


def test_pass_count_depends_on_the_arguments_alone():
    ops = [workloads.Op("op", lambda: 0.0, lambda res: [])] * 62
    assert run.pass_count("psd-feasibility", ops, 30) == 6
    assert run.pass_count("psd-feasibility", ops, 1) == run.MIN_PASSES
    assert run.pass_count("psd-feasibility", ops[:10], 1) == 10
    r = run.Run()
    run.run_passes(r, ops[:1], 3, 60.0)
    assert (len(r.pass_seconds), r.attempted) == (3, 3)
