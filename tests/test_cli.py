import json

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

    def test_toeplitz_measure_failure_is_machine_readable(self, tmp_path, capsys):
        # moments of 34 atoms on the 256-point grid at n = 32: scipy's nnls
        # stops on its iteration limit, which must surface as an error object
        n = 32
        u = SplitMix64(2).uniforms(2 * (n + 2))
        nodes = 2 * np.pi * np.floor(8 * n * u[:n + 2]) / (8 * n)
        coeffs = np.exp(1j * np.outer(np.arange(n), nodes)) @ (u[n + 2:] + 0.1)
        path = write_json(tmp_path, "spec.json", {
            "coeffs": [[c.real, c.imag] for c in coeffs]})
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
                                          "--set", "shift", "--nodes", "32"])
        assert code == 0 and out["member"] and out["witness_verified"]

    def test_unknown_command(self, capsys):
        code, out = run_captured(capsys, ["frobnicate"])
        assert code == 1
        assert out["error"]["name"] == "UnknownCommand"

    def test_verification_failure_is_machine_readable(self, tmp_path, capsys,
                                                      monkeypatch):
        from mrange import numrange
        from mrange.errors import VerificationFailed

        def failing(T, tol=None):
            raise VerificationFailed("forced")

        monkeypatch.setattr(numrange, "num_radius", failing)
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["numrad", "--input", path])
        assert code == 1
        assert out["error"] == {"name": "VerificationFailed", "message": "forced"}

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        # min eigenvalue -1e-6: inside the loose band, outside the strict one
        path = write_json(tmp_path, "spec.json",
                          {"coeffs": [[1.0, 0.0], [1.000001, 0.0]]})
        code, strict = run_captured(capsys, ["toeplitz-check", "--input", path])
        assert code == 2 and not strict["psd"]
        monkeypatch.setenv("MRANGE_TOL", "1e-4")
        code, loose = run_captured(capsys, ["toeplitz-check", "--input", path])
        assert code == 0 and loose["psd"]


class TestBadTolerance:
    """A --tol or MRANGE_TOL that is not a finite positive number is an
    error object with exit 1, not a traceback or a solver failure."""

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_flag(self, tmp_path, capsys, value):
        path = write_json(tmp_path, "t.json", matrix_to_json(np.array([[0.3]])))
        code, out = run_captured(capsys, ["ando", "--input", path, "--tol", value])
        assert code == 1 and out["error"]["name"] == "BadTolerance"

    def test_environment(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "t.json", matrix_to_json(np.array([[0.3]])))
        monkeypatch.setenv("MRANGE_TOL", "abc")
        code, out = run_captured(capsys, ["ando", "--input", path])
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


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        run(["spatial", "--input", path, "--order", "2",
             "--count", "10", "--seed", "5"])
        first = capsys.readouterr().out
        run(["spatial", "--input", path, "--order", "2",
             "--count", "10", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_matrices_reparse_exactly(self, tmp_path, capsys):
        path = write_json(tmp_path, "e21.json", E21_JSON)
        code, out = run_captured(capsys, ["ando", "--input", path])
        assert code == 0
        dec = mr.ando_decompose(E21)
        assert np.array_equal(matrix_from_json(out["X"]), dec.X)
        assert np.array_equal(matrix_from_json(out["Z"]), dec.Z)

    def test_commands_in_sequence_match_each_alone(self, tmp_path, capsys):
        # the parser is built once per process; options set by one command
        # (order, tolerance, set, grid) must not carry over to the next
        e21 = write_json(tmp_path, "e21.json", E21_JSON)
        spec = write_json(tmp_path, "spec.json", {"coeffs": [[1.0, 0.0], [0.5, 0.0]]})
        argvs = [
            ["nilpotent-cond", "--input", e21, "--order", "3", "--tol", "1e-6"],
            ["nilpotent-cond", "--input", e21],
            ["member", "--input", e21, "--set", "shift", "--nodes", "16"],
            ["member", "--input", e21],
            ["toeplitz-measure", "--input", spec, "--grid", "16"],
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
