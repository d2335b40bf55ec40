import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mrange as mr
from mrange.cli import build_parser, matrix_from_json, matrix_to_json, run
from mrange.rng import SplitMix64

from helpers import E21, support_residual


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_captured(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


E21_JSON = {"rows": 2, "cols": 2,
            "data": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}


class TestMatrixJson:
    def test_round_trip_exact_to_the_ulp(self):
        M = np.array([[1 / 3 + 1j * np.pi, np.e], [5e-324, -0.1 + 0.7j]])
        text = json.dumps(matrix_to_json(M))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, M)

    def test_rejects_bad_length(self):
        from mrange.errors import BadJson
        with pytest.raises(BadJson):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})

    @pytest.mark.parametrize("obj", [
        {"rows": 1, "cols": 1, "data": 5},
        {"rows": "one", "cols": 1, "data": [[0.0, 0.0]]},
        {"rows": -1, "cols": -1, "data": [[0.0, 0.0]]},
        {"rows": 1, "cols": 1, "data": [["0.5", "0"]]},
        {"rows": 1, "cols": 1, "data": [[0.5, 0.0, 1.0]]},
        {"rows": 1, "cols": 1, "data": [[None, 0.0]]},
        {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]},
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [0.0, float("-inf")]]},
    ])
    def test_rejects_malformed(self, obj):
        from mrange.errors import BadJson
        with pytest.raises(BadJson):
            matrix_from_json(obj)

    def test_to_json_matches_the_element_loop(self):
        # signed zeros, subnormals and a non-contiguous view included
        M = np.array([[-0.0 + 0.0j, 5e-324 - 0.0j], [1 / 3 + 1e300j, -2.5]]).T
        expected = [[float(z.real), float(z.imag)] for z in M.reshape(-1)]
        assert json.dumps(matrix_to_json(M)["data"]) == json.dumps(expected)


class TestCommands:
    def test_numrad(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["numrad", "--input", path])
        assert code == 0
        assert out["radius"] == pytest.approx(0.5, abs=1e-10)

    def test_ando_zero_gives_identity(self, tmp_path, capsys):
        path = write_json(tmp_path, "zero.json",
                          {"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 4})
        code, out = run_captured(capsys, ["ando", "--input", path])
        assert code == 0
        X = matrix_from_json(out["X"])
        np.testing.assert_allclose(X, np.eye(2), atol=1e-12)

    def test_fejer_riesz(self, tmp_path, capsys):
        path = write_json(tmp_path, "tau.json",
                          {"coeffs": [[2.01, 0.0], [1.0, 0.0]]})
        code, out = run_captured(capsys, ["fejer-riesz", "--input", path])
        assert code == 0
        assert out["grid_residual"] <= 1e-7

    def test_member_verdict_exit_codes(self, tmp_path, capsys):
        inside = write_json(tmp_path, "in.json", E21_JSON)
        code, out = run_captured(capsys, ["member", "--input", inside, "--set", "e21"])
        assert code == 0 and out["member"]
        big = np.eye(2) * 0.7
        outside = write_json(tmp_path, "out.json", matrix_to_json(big))
        code, out = run_captured(capsys, ["member", "--input", outside, "--set", "e21"])
        assert code == 2 and not out["member"]

    def test_error_is_machine_readable(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"rows": 2, "cols": 2, "data": []})
        code, out = run_captured(capsys, ["numrad", "--input", path])
        assert code == 1
        assert out["error"]["name"] == "BadJson"

    def test_precondition_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "big.json", matrix_to_json(3.0 * np.eye(2)))
        code, out = run_captured(capsys, ["ando", "--input", path])
        assert code == 1
        assert out["error"]["name"] == "RadiusTooLarge"

    def test_suite(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", matrix_to_json(1.5 * E21))
        code, out = run_captured(capsys, ["suite", "--input", path])
        assert code == 0
        assert out["all_true"] and len(out["conditions"]) == 9

    def test_nilpotent_cond_verdict(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", matrix_to_json(2 * E21))
        code, out = run_captured(capsys, ["nilpotent-cond", "--input", path,
                                          "--order", "2"])
        assert code == 2
        assert out["margin"] == pytest.approx(-1.0, abs=1e-9)

    def test_toeplitz_measure(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json",
                          {"coeffs": [[1.0, 0.0], [0.5, 0.0]]})
        code, out = run_captured(capsys, ["toeplitz-measure", "--input", path])
        assert code == 0
        mom = [complex(re, im) for re, im in out["moments"]]
        assert abs(mom[1] - 0.5) <= 1e-6

    def test_toeplitz_measure_of_numerically_singular_spec(self, tmp_path, capsys):
        # moments of 34 atoms on the 256-point grid at n = 32 (cond T ~ 6e15),
        # where nonnegative least squares on the grid stopped on its
        # iteration limit
        n = 32
        u = SplitMix64(2).uniforms(2 * (n + 2))
        nodes = 2 * np.pi * np.floor(8 * n * u[:n + 2]) / (8 * n)
        coeffs = np.exp(1j * np.outer(np.arange(n), nodes)) @ (u[n + 2:] + 0.1)
        path = write_json(tmp_path, "spec.json", {
            "coeffs": [[c.real, c.imag] for c in coeffs]})
        code, out = run_captured(capsys, ["toeplitz-measure", "--input", path])
        assert code == 0
        assert out["moment_residual"] <= 1e-6
        assert len(out["nodes"]) <= n

    def test_toeplitz_measure_failure_is_machine_readable(self, tmp_path, capsys,
                                                          monkeypatch):
        # a measure off its moments is never returned: nodes turned by a
        # quarter turn must surface as an error object
        import scipy.linalg
        schur = scipy.linalg.schur

        def turned(W, output):
            L, Z = schur(W, output=output)
            return 1j * L, Z

        monkeypatch.setattr(scipy.linalg, "schur", turned)
        path = write_json(tmp_path, "spec.json",
                          {"coeffs": [[1.0, 0.0], [0.5, 0.0]]})
        code, out = run_captured(capsys, ["toeplitz-measure", "--input", path])
        assert code == 1
        assert out["error"]["name"] == "MomentResidualTooLarge"

    def test_probe(self, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", {
            "S": matrix_to_json(np.diag([1.0, 0.0])),
            "T": matrix_to_json(np.diag([1.0, 2.0])),
        })
        code, out = run_captured(capsys, ["probe", "--input", path,
                                          "--order", "2", "--count", "50"])
        assert code == 0
        assert out["max_gap"] > 0.4

    @pytest.mark.parametrize("argv", [
        ["spatial", "--order", "0", "--count", "8"],
        ["spatial", "--order", "2", "--count", "-1"],
        ["probe", "--order", "0", "--count", "4"],
        ["probe", "--order", "2", "--count", "-1"],
    ])
    def test_bad_sample_arguments(self, tmp_path, capsys, argv):
        payload = {"S": E21_JSON, "T": E21_JSON} if argv[0] == "probe" else E21_JSON
        path = write_json(tmp_path, "in.json", payload)
        code, out = run_captured(capsys, argv[:1] + ["--input", path] + argv[1:])
        assert code == 1
        assert out["error"]["name"] == "BadShape"

    def test_spatial_is_one_level_set_solve(self, tmp_path, capsys, monkeypatch):
        # the largest sample radius is that of the samples' direct sum
        calls = []
        solve = mr.numrange._RadiusSolve

        def counted(D):
            calls.append(np.shape(D))
            return solve(D)

        monkeypatch.setattr(mr.numrange, "_RadiusSolve", counted)
        T = mr.random_matrix(4, 4, 12)
        path = write_json(tmp_path, "t.json", matrix_to_json(T))
        code, out = run_captured(capsys, ["spatial", "--input", path, "--order", "2",
                                          "--count", "8", "--seed", "3"])
        assert code == 0 and calls == [(8, 1, 2, 2)]
        radii = [mr.num_radius(M) for M in mr.spatial_samples(T, 2, 8, 3)]
        assert out["max_radius"] == pytest.approx(max(radii), rel=1e-14)
        calls.clear()
        code, out = run_captured(capsys, ["spatial", "--input", path, "--order", "2",
                                          "--count", "0"])
        assert code == 0 and out["max_radius"] == 0.0 and out["samples"] == []
        assert calls == []

    def test_smith_ward(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", matrix_to_json(np.diag([3.0, 1.0])))
        code, out = run_captured(capsys, ["smith-ward", "--input", path,
                                          "--order", "2"])
        assert code == 0
        assert out["nu_lower"] == pytest.approx(3.0, abs=1e-9)

    def test_out_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        target = tmp_path / "result.json"
        code, out = run_captured(capsys, ["numrad", "--input", path,
                                          "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text()) == out

    def test_boundary(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["boundary", "--input", path,
                                          "--count", "90"])
        assert code == 0
        mods = [abs(complex(re, im)) for re, im in out["points"]]
        assert max(mods) <= 0.5 + 1e-9

    @pytest.mark.parametrize("count", [7, 8])
    def test_boundary_support_points(self, tmp_path, capsys, count):
        T = mr.random_matrix(5, 5, 950)
        path = write_json(tmp_path, "t.json", matrix_to_json(T))
        argv = ["boundary", "--input", path, "--count", str(count)]
        outs = []
        for _ in range(2):
            assert run(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        pts = [complex(re, im) for re, im in json.loads(outs[0])["points"]]
        assert len(pts) == count
        assert support_residual(T, pts) <= 1e-13 * (1.0 + np.linalg.norm(T, 2))

    def test_dilate2(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", matrix_to_json(2 * E21))
        code, out = run_captured(capsys, ["dilate2", "--input", path,
                                          "--window", "8"])
        assert code == 0
        assert out["compression_residual"] <= 1e-9
        U = matrix_from_json(out["U"])
        assert U.shape == (34, 34)

    def test_bilateral_as_a_module(self):
        # through ``python -m mrange``: the entry point and its exit code
        src = os.path.dirname(os.path.dirname(mr.__file__))
        proc = subprocess.run([sys.executable, "-m", "mrange", "bilateral", "--window", "8"],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["model_verified"] is True
        assert np.array_equal(matrix_from_json(out["compression"]), E21)

    def test_lmi_feasible(self, tmp_path, capsys):
        T = 0.4 * E21
        path = write_json(tmp_path, "t.json", matrix_to_json(T))
        code, out = run_captured(capsys, ["lmi", "--input", path])
        assert code == 0 and out["feasible"] is True
        A = matrix_from_json(out["A"])
        assert np.array_equal(A, mr.radius_lmi(T)[1])
        assert mr.psd_check(np.block([[A, T.conj().T], [T, np.eye(2) - A]]))[0]

    def test_ucp_e21(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["ucp-e21", "--input", path])
        assert code == 0
        assert out["cp"] and out["choi_min_eig"] >= -1e-9
        np.testing.assert_array_equal(matrix_from_json(out["values"]["E21"]), E21)

    def test_nilpotent_dilate(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["nilpotent-dilate", "--input", path,
                                          "--order", "2"])
        assert code == 0
        assert out["compression_residual"] <= 1e-7
        assert out["isometry_residual"] <= 1e-10
        assert out["multiplicity"] == 2   # r = dim T

    def test_pdcheck(self, tmp_path, capsys):
        blocks = [matrix_to_json(B) for B in mr.halved_power_blocks(2 * E21, 3)]
        path = write_json(tmp_path, "pd.json", {"blocks": blocks})
        code, out = run_captured(capsys, ["pdcheck", "--input", path])
        assert code == 0 and out["positive_definite"]

    def test_toeplitz_check_block(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", {
            "blocks": [matrix_to_json(np.eye(2)), matrix_to_json(E21)]})
        code, out = run_captured(capsys, ["toeplitz-check", "--input", path])
        assert code == 0 and out["psd"]

    def test_block_measure(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", {
            "blocks": [matrix_to_json(np.eye(2)),
                       matrix_to_json(np.zeros((2, 2)))]})
        code, out = run_captured(capsys, ["block-measure", "--input", path])
        assert code == 0
        assert out["moment_residual"] <= 1e-6

    def test_member_normal(self, tmp_path, capsys):
        path = write_json(tmp_path, "x.json", {
            "matrix": matrix_to_json(np.eye(2) / 2),
            "spectrum": [[0.0, 0.0], [1.0, 0.0]]})
        code, out = run_captured(capsys, ["member", "--input", path,
                                          "--set", "normal"])
        assert code == 0 and out["member"]

    def test_member_shift(self, tmp_path, capsys):
        path = write_json(tmp_path, "x.json", matrix_to_json(0.5 * E21))
        code, out = run_captured(capsys, ["member", "--input", path,
                                          "--set", "shift"])
        assert code == 0 and out["member"] and out["witness_verified"]

    def test_member_shift_beyond_the_inscribed_disk(self, tmp_path, capsys):
        # 0.999 > cos(pi / 64): the unitary dilation's measure is the witness
        U = np.linalg.qr(mr.random_matrix(3, 3, 17))[0]
        path = write_json(tmp_path, "x.json", matrix_to_json(0.999 * U))
        argv = ["member", "--input", path, "--set", "shift"]
        outs = []
        for _ in range(2):
            assert run(argv) == 0
            outs.append(capsys.readouterr().out)
        out = json.loads(outs[0])
        assert out["member"] and out["witness_verified"] and not out["unverified"]
        assert outs[0] == outs[1]

    def test_unknown_command(self, capsys):
        code, out = run_captured(capsys, ["frobnicate"])
        assert code == 1
        assert out["error"]["name"] == "UnknownCommand"

    @pytest.mark.parametrize("argv", [["--seed", "3", "frobnicate"],
                                      ["frobnicate", "--input", "no-such-file.json"]])
    def test_unknown_command_after_options_or_before_bad_input(self, capsys, argv):
        code, out = run_captured(capsys, argv)
        assert code == 1
        assert out["error"] == {"name": "UnknownCommand", "message": "frobnicate"}

    @pytest.mark.parametrize("cmd", ["numrad", "ando", "member", "boundary", "suite",
                                     "nilpotent-cond"])
    def test_empty_matrix_is_a_bad_shape(self, tmp_path, capsys, cmd):
        path = write_json(tmp_path, "empty.json", {"rows": 0, "cols": 0, "data": []})
        code, out = run_captured(capsys, [cmd, "--input", path])
        assert code == 1
        assert out["error"]["name"] == "BadShape"
        assert "requires a nonempty matrix" in out["error"]["message"]

    def test_verification_failure_is_machine_readable(self, tmp_path, capsys,
                                                      monkeypatch):
        from mrange import numrange
        from mrange.errors import VerificationFailed

        def failing(T):
            raise VerificationFailed("forced")

        monkeypatch.setattr(numrange, "num_radius", failing)
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["numrad", "--input", path])
        assert code == 1
        assert out["error"] == {"name": "VerificationFailed", "message": "forced"}

    def test_env_tolerance_override(self, tmp_path, capsys):
        # min eigenvalue -1e-6: inside the loose band, outside the strict one
        path = write_json(tmp_path, "spec.json",
                          {"coeffs": [[1.0, 0.0], [1.000001, 0.0]]})
        code, strict = run_captured(capsys, ["toeplitz-check", "--input", path])
        assert code == 2 and not strict["psd"]
        code, loose = run_captured(capsys, ["toeplitz-check", "--input", path,
                                            "--tol", "1e-4"])
        assert code == 0 and loose["psd"]


class TestE21VerdictAtLooseTolerance:
    def test_one_verdict_just_above_one_half(self, tmp_path, capsys):
        # --tol loosens the witness's PSD check, not the threshold w <= 1/2
        path = write_json(tmp_path, "t.json", matrix_to_json(1.00002 * E21))
        loose = ["--input", path, "--tol", "1e-4"]
        code, out = run_captured(capsys, ["member", "--set", "e21", *loose])
        assert code == 2 and out["member"] is False and out["unverified"] is False
        code, out = run_captured(capsys, ["lmi", *loose])
        assert code == 2 and out["feasible"] is False
        code, out = run_captured(capsys, ["ucp-e21", *loose])
        assert code == 1
        assert out["error"] == {"name": "RadiusTooLarge",
                                "message": "numerical radius 0.500010000000 exceeds 1/2"}

    def test_shift_ball_and_nilpotent_verdicts_just_outside(self, tmp_path, capsys):
        # norm 1.00002 and order-2 margin -2e-5 lie outside the fixed
        # rounding band of threshold verdicts, which --tol does not widen
        path = write_json(tmp_path, "t.json", matrix_to_json(1.00002 * E21))
        loose = ["--input", path, "--tol", "1e-4"]
        code, out = run_captured(capsys, ["member", "--set", "shift", *loose])
        assert code == 2 and out["member"] is False
        code, out = run_captured(capsys, ["nilpotent-cond", "--order", "2", *loose])
        assert code == 2 and out["holds"] is False
        code, out = run_captured(capsys, ["nilpotent-dilate", "--order", "2", *loose])
        assert code == 1
        assert out["error"] == {"name": "ConditionFails",
                                "message": "order-2 condition margin -2.000e-05 is negative"}


class TestBadTolerance:
    """A --tol that is not a finite positive number is an error object
    with exit 1, not a traceback or a solver failure."""

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_flag(self, tmp_path, capsys, value):
        path = write_json(tmp_path, "t.json", matrix_to_json(np.array([[0.3]])))
        code, out = run_captured(capsys, ["ando", "--input", path, "--tol", value])
        assert code == 1 and out["error"]["name"] == "BadTolerance"


class TestMissingFields:
    """A missing or malformed payload field, or a missing --input, is a
    BadJson error object with exit 1, not a bare traceback."""

    @pytest.mark.parametrize("argv, payload", [
        (["pdcheck"], {}),
        (["pdcheck"], {"blocks": 3}),
        (["pdcheck"], None),
        (["fejer-riesz"], {}),
        (["fejer-riesz"], {"coeffs": [[1.0]]}),
        (["probe"], {"S": E21_JSON}),
        (["member", "--set", "normal"], E21_JSON),
        (["member", "--set", "normal"], {"matrix": E21_JSON, "spectrum": [1.0]}),
        (["toeplitz-check"], None),
        (["toeplitz-check"], {"coeffs": "ab"}),
        (["block-measure"], {"blocks": [[1.0, 0.0]]}),
        (["numrad"], None),
    ], ids=["pdcheck-no-blocks", "pdcheck-blocks-not-list", "pdcheck-no-input",
            "fejer-riesz-no-coeffs", "fejer-riesz-bad-pair", "probe-no-T",
            "member-normal-no-spectrum", "member-normal-bad-spectrum",
            "toeplitz-check-no-input", "toeplitz-check-coeffs-not-list",
            "block-measure-bad-block", "numrad-no-input"])
    def test_bad_json_error_object(self, tmp_path, capsys, argv, payload):
        if payload is not None:
            argv = argv + ["--input", write_json(tmp_path, "in.json", payload)]
        code, out = run_captured(capsys, argv)
        assert code == 1
        assert out["error"]["name"] == "BadJson"
        assert out["command"] == argv[0]

    @pytest.mark.parametrize("text", [None, "", "{\"rows\": 1,", "[1, 2"],
                             ids=["missing", "empty", "truncated", "unclosed"])
    def test_unreadable_input_file(self, tmp_path, capsys, text):
        path = tmp_path / "in.json"
        if text is not None:
            path.write_text(text)
        code, out = run_captured(capsys, ["numrad", "--input", str(path)])
        assert code == 1 and out["error"]["name"] == "BadJson"
        assert out["error"]["message"].startswith("cannot read input JSON: ")

    def test_non_finite_entry(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity; a matrix entry must still be finite
        path = tmp_path / "in.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[Infinity, 0.0]]}')
        code, out = run_captured(capsys, ["numrad", "--input", str(path)])
        assert code == 1
        assert out["error"] == {"name": "BadJson", "message": "matrix entries must be finite"}


class TestArgumentOrder:
    @pytest.mark.parametrize("cmd, options", [
        ("numrad", []),
        ("member", ["--set", "shift"]),
        ("spatial", ["--order", "2", "--count", "6", "--seed", "3"]),
    ])
    def test_options_before_the_command(self, tmp_path, capsys, cmd, options):
        path = write_json(tmp_path, "x.json", matrix_to_json(0.5 * E21))
        outputs = []
        for argv in ([cmd, "--input", path, *options], ["--input", path, *options, cmd],
                     [*options, cmd, "--input", path]):
            outputs.append((run(argv), capsys.readouterr().out))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        e21 = write_json(tmp_path, "e21.json", E21_JSON)
        t = write_json(tmp_path, "t.json", matrix_to_json(0.4 * E21))
        for argv in (["spatial", "--input", e21, "--order", "2", "--count", "10", "--seed", "5"],
                     ["bilateral", "--window", "8"],
                     ["lmi", "--input", t]):
            first = (run(argv), capsys.readouterr().out)
            second = (run(argv), capsys.readouterr().out)
            assert first[0] == 0 and first == second, argv

    def test_matrices_reparse_exactly(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["ando", "--input", path])
        assert code == 0
        dec = mr.ando_decompose(E21)
        assert np.array_equal(matrix_from_json(out["X"]), dec.X)
        assert np.array_equal(matrix_from_json(out["Z"]), dec.Z)

    def test_commands_in_sequence_match_each_alone(self, tmp_path, capsys):
        # the parser is built once per process; options set by one command
        # (order, tolerance, set) must not carry over to the next
        e21 = write_json(tmp_path, "e21.json", E21_JSON)
        spec = write_json(tmp_path, "spec.json", {"coeffs": [[1.0, 0.0], [0.5, 0.0]]})
        argvs = [
            ["nilpotent-cond", "--input", e21, "--order", "3", "--tol", "1e-6"],
            ["nilpotent-cond", "--input", e21],
            ["member", "--input", e21, "--set", "shift"],
            ["member", "--input", e21],
            ["toeplitz-measure", "--input", spec, "--tol", "1e-6"],
            ["toeplitz-measure", "--input", spec],
            ["numrad", "--input", e21, "--order", "x"],
            ["numrad", "--input", e21],
        ]
        assert build_parser() is build_parser()
        in_sequence = []
        for argv in argvs:
            in_sequence.append((run(argv), capsys.readouterr().out))
        for argv, seen in zip(argvs, in_sequence):
            build_parser.cache_clear()
            assert (run(argv), capsys.readouterr().out) == seen


def test_readme_flags_match_the_parser():
    # the Flags line of README.md lists every option the parser takes, and no other
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    line = readme.split("Flags: `", 1)[1].split("`", 1)[0]
    listed = {word for word in line.split() if word.startswith("--")}
    options = {s for a in build_parser()._actions for s in a.option_strings
               if s not in ("-h", "--help")}
    assert listed == options
