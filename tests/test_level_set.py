"""The level-set radius and order-n nilpotent condition: inputs with
tangencies, symmetric extrema and degenerate pencils, checked against exact
values and the brute-force oracles."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eig as qz

import mrange as mr
from mrange import numrange
from mrange.numrange import _ascend, _level_pencil, _pencil_eigenvalues, _support_grid
from mrange.rng import split

from helpers import E21, nilpotent_margin_bracket, radius_bruteforce, random_with_radius


def _attained(T, angle):
    return float(_support_grid(T, np.array([angle]))[0])


@pytest.fixture
def qz_calls(monkeypatch):
    """Records every call of scipy.linalg.eig, the level-set QZ fallback."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return qz(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counted)
    return calls


class TestShiftAndInvert:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unimodular_eigenvalues_match_qz(self, m, qz_calls):
        for k in range(4):
            D = np.array([mr.random_matrix(5, 5, split(900 + m, m * k + j)) for j in range(m)])
            # the support value at one angle is a level with crossings
            r = _attained(D, 0.4 + 1.3 * k)
            P, Q = _level_pencil(D, r)
            ref = qz(P, Q, right=False)
            ref = ref[np.abs(np.abs(ref) - 1.0) <= 1e-4]
            z = _pencil_eigenvalues(P, Q)
            z = z[np.abs(np.abs(z) - 1.0) <= 1e-4]
            assert ref.size >= 2 and z.size == ref.size
            assert np.abs(z[:, None] - ref[None, :]).min(axis=0).max() <= 1e-10
        assert qz_calls == []

    def test_qz_only_for_singular_pencils(self, qz_calls):
        mr.num_radius(mr.random_matrix(16, 16, split(910, 0)))
        assert len(qz_calls) == 0
        assert mr.num_radius(np.zeros((3, 3))) == 0.0
        assert len(qz_calls) >= 1
        # constant support function: every pencil is singular
        before = len(qz_calls)
        J = 2.5 * np.exp(0.3j) * mr.shift(5).T
        assert mr.num_radius(J) == pytest.approx(2.5 * np.cos(np.pi / 6), abs=1e-12)
        assert len(qz_calls) > before


@pytest.fixture
def pencil_calls(monkeypatch):
    """Counts the level-set pencil solves."""
    calls = []

    def counted(P, Q):
        calls.append(P.shape[0])
        return _pencil_eigenvalues(P, Q)

    monkeypatch.setattr(numrange, "_pencil_eigenvalues", counted)
    return calls


def _ascent_stack(T):
    """The (2, n, n) stack [Re T, Re(iT)] that ``_ascend`` climbs on."""
    T = np.asarray(T, dtype=complex)
    return np.array([T + T.conj().T, 1j * T - 1j * T.conj().T]) / 2.0


class TestNewtonAscent:
    def test_one_certifying_pencil_solve_per_radius(self, pencil_calls):
        # each level-set pencil used to climb as well as certify: about 3 solves
        # per radius on these inputs, now about 1
        radii = 0
        for n in (2, 4, 8, 16, 32, 64):
            for k in range(6):
                T = mr.random_matrix(n, n, split(2000 + n, k))
                if k % 2:
                    T = T.real.astype(complex)
                w, angle = numrange._radius_and_angle(T, None)
                assert _attained(T, angle) == pytest.approx(w, abs=1e-12)
                radii += 1
        assert len(pencil_calls) / radii <= 1.5

    def test_climbs_only_where_concave(self):
        # from a start where f is concave the ascent ends at a local maximum;
        # where f'' > 0 it takes no step and leaves the climb to the pencil
        concave = 0
        for k in range(6):
            T = mr.random_matrix(6, 6, split(2100, k))
            start = 2.0 * np.pi * np.argmax(_support_grid(T, 2.0 * np.pi * np.arange(8) / 8)) / 8
            value, angle = _ascend(_ascent_stack(T), start)
            f = _support_grid(T, start + np.array([-1e-3, 0.0, 1e-3]))
            if f[0] + f[2] - 2.0 * f[1] < 0.0:
                concave += 1
                near = _support_grid(T, angle + np.array([-1e-4, 0.0, 1e-4]))
                assert value >= f[1] and near.max() <= value + 1e-14
                assert near[1] == pytest.approx(value, abs=1e-14)
            else:
                assert angle == start and value == pytest.approx(f[1], abs=1e-14)
        assert 0 < concave < 6

    @pytest.mark.parametrize("T, expected", [
        (np.zeros((3, 3)), 0.0),
        (0.3 * np.eye(3), 0.3),
        (mr.shift(4), np.cos(np.pi / 5)),
        (mr.shift(7), np.cos(np.pi / 8)),
        (0.7 * mr.shift(6) + 0.2 * np.eye(6), 0.7 * np.cos(np.pi / 7) + 0.2),
        (np.array([[0.3 - 0.4j]]), 0.5),
        # lambda_max is double at theta = pi / 4, a kink of the support function
        (np.diag([1.0, 1j, -1.0, -1j]), 1.0),
    ])
    def test_degenerate_inputs(self, T, expected):
        assert mr.num_radius(T) == pytest.approx(expected, abs=1e-14)

    def test_no_step_at_a_double_top_eigenvalue(self):
        # at theta = pi / 4 the top eigenvalue cos(pi / 4) is double, so f'' is
        # undefined: the ascent stays put and leaves the maximum to the pencil
        value, angle = _ascend(_ascent_stack(np.diag([1.0, 1j, -1.0, -1j])), np.pi / 4)
        assert angle == np.pi / 4 and value == pytest.approx(np.cos(np.pi / 4), abs=1e-15)

    @pytest.mark.parametrize("n", [3, 4])
    def test_nilpotent_margins_in_bracket(self, n):
        for dim in (2, 4, 6):
            for k in range(2):
                T = mr.random_matrix(dim, dim, split(2200 + dim, k))
                T = T * (0.35 / mr.num_radius(T))
                lower, upper = nilpotent_margin_bracket(T, n)
                assert lower - 1e-12 <= mr.nilpotent_condition(T, n) <= upper + 1e-10


class TestLevelSetRadius:
    @pytest.mark.parametrize("dim, k", [(2, 120), (3, 44)])
    def test_real_input_with_local_min_at_zero(self, dim, k):
        # the start level f(0) touches the support function at a local
        # minimum between two symmetric maxima; that tangent crossing leaves
        # the unit circle by about sqrt(machine eps), and dropping it stops
        # the iteration at f(0), more than 1e-3 below the radius
        T = mr.random_matrix(dim, dim, split(dim, k)).real.astype(complex)
        f0, f_near = _support_grid(T, np.array([0.0, 1e-3]))
        w = mr.num_radius(T)
        assert f_near > f0 and w > f0 + 1e-3
        assert w == pytest.approx(radius_bruteforce(T), abs=1e-8)

    def test_shift_128(self):
        assert mr.num_radius(mr.shift(128)) == pytest.approx(np.cos(np.pi / 129), abs=1e-12)

    def test_shift_256(self):
        assert mr.num_radius(mr.shift(256)) == pytest.approx(np.cos(np.pi / 257), abs=1e-12)

    def test_zero(self):
        for n in (1, 3):
            assert mr.num_radius(np.zeros((n, n))) == 0.0

    def test_scalar(self):
        c = 0.7 * np.exp(2.1j)
        w, angle = mr.numrange._radius_and_angle(np.array([[c]]), None)
        assert w == pytest.approx(0.7, abs=1e-14)
        assert _attained(np.array([[c]]), angle) == pytest.approx(0.7, abs=1e-14)

    def test_scalar_times_identity(self):
        T = 1.5j * np.eye(4)
        assert mr.num_radius(T) == pytest.approx(1.5, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_nilpotent_jordan_block(self, n):
        # the support function is constant, so every pencil is singular
        J = 2.5 * np.exp(0.3j) * mr.shift(n).T
        assert mr.num_radius(J) == pytest.approx(2.5 * np.cos(np.pi / (n + 1)), abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_against_bruteforce(self, dim):
        for k in range(3):
            T = mr.random_matrix(dim, dim, split(700 + dim, k))
            w, angle = mr.numrange._radius_and_angle(T, None)
            brute = radius_bruteforce(T, seed=k, vectors=50_000)
            # the oracle's values are attained, so it can only fall short
            assert brute <= w + 1e-12
            assert w - brute <= 1e-7 * (1.0 + w)
            assert _attained(T, angle) == pytest.approx(w, abs=1e-12)


class TestCharacterizationsByLevelSet:
    @pytest.mark.parametrize("target", [0.8, 1.2])
    def test_negated_input(self, target):
        T = random_with_radius(4, target, 17)
        rep, neg = mr.radius_characterizations(T), mr.radius_characterizations(-T)
        assert neg.radius == pytest.approx(rep.radius, abs=1e-12)
        assert neg.conditions == rep.conditions == (target <= 1.0,) * 4

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_ring_condition_at_its_margin(self, offset):
        # 0.9 w(T) = 1 + offset: only the ring condition sits at its margin,
        # and every condition must still read False
        T = random_with_radius(3, (1.0 + offset) / 0.9, 5)
        rep = mr.radius_characterizations(T)
        assert rep.conditions == (False, False, False, False)
        assert rep.worst_margin == pytest.approx(1.0 - 1.0 / 0.9, abs=1e-8)

    def test_one_level_solve_beyond_the_radius(self, pencil_calls):
        # conditions (2) to (4) share one level-set test
        for n in (2, 4, 16):
            for target in (0.8, 1.2):
                T = random_with_radius(n, target, split(960, n))
                pencil_calls.clear()
                mr.num_radius(T)
                radius_solves = len(pencil_calls)
                mr.radius_characterizations(T)
                assert len(pencil_calls) - radius_solves == radius_solves + 1


def _margins_at(T, n, thetas):
    """lambda_min(I + 2 Re sum_{k<n} l^k T^k) at the given angles."""
    S = sum(np.exp(1j * k * thetas)[:, None, None] * np.linalg.matrix_power(T, k)
            for k in range(1, n))
    return np.linalg.eigvalsh(np.eye(T.shape[0]) + S + np.conj(np.swapaxes(S, 1, 2)))[:, 0]


class TestNilpotentConditionByLevelSet:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_grid_oracle(self, n):
        for dim in (1, 2, 3, 5):
            for k in range(3):
                T = mr.random_matrix(dim, dim, split(800 + 10 * n + dim, k))
                if k == 1:
                    T = T.real.astype(complex)
                T = T * ((0.2 + 0.15 * k) / mr.num_radius(T))
                lower, upper = nilpotent_margin_bracket(T, n)
                assert lower - 1e-12 <= mr.nilpotent_condition(T, n) <= upper + 1e-10

    def test_order_two_is_one_minus_twice_the_radius(self):
        for dim in range(1, 9):
            for k in range(3):
                T = mr.random_matrix(dim, dim, split(850 + dim, k))
                assert mr.nilpotent_condition(T, 2) == pytest.approx(
                    1.0 - 2.0 * mr.num_radius(T), abs=1e-12)

    @pytest.mark.parametrize("T, n, expected", [
        (np.zeros((3, 3)), 2, 1.0),
        (np.zeros((3, 3)), 4, 1.0),
        # T^{n-1} = 0: the leading coefficient of the pencil vanishes
        (E21, 3, 0.0),
        (E21, 4, 0.0),
        (np.kron(np.eye(2), E21), 2, 0.0),
        (np.kron(np.eye(2), E21), 3, 0.0),
        # I + 2 Re sum l^k S_n^k = u u* with u = (l^i): the margin is 0 at every
        # angle, so every pencil is singular
        (mr.shift(3), 3, 0.0),
        (mr.shift(4), 4, 0.0),
        (mr.shift(5), 5, 0.0),
        (mr.shift(6), 6, 0.0),
        # a zero eigenvalue gives a constant branch; the 0.3 one decides:
        # 1 - 0.6 at order 2, min of 0.82 + 0.6c + 0.36c^2 at order 3
        (np.diag([0.0, 0.3, -0.2j]), 2, 0.4),
        (np.diag([0.0, 0.3, -0.2j]), 3, 0.57),
    ])
    def test_degenerate_inputs(self, T, n, expected):
        assert mr.nilpotent_condition(T, n) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_common_null_vector(self, n):
        # T e_0 = T* e_0 = 0 keeps the eigenvalue 1 at every angle
        B = 0.3 * mr.random_matrix(2, 2, split(860, n))
        T = np.zeros((3, 3), dtype=complex)
        T[1:, 1:] = B
        assert mr.nilpotent_condition(T, n) == pytest.approx(
            mr.nilpotent_condition(B, n), abs=1e-12)

    @pytest.mark.parametrize("n, dim, k", [(3, 2, 384), (3, 3, 217), (4, 3, 360)])
    def test_real_input_with_local_max_at_zero(self, n, dim, k):
        # the margin of a real input is even in theta; here theta = 0 is the
        # lowest of the 8 start angles but a local maximum, so the start
        # level touches the level set tangentially there (with a 1e-8
        # unimodularity filter the margin came back up to 8e-3 high)
        T = mr.random_matrix(dim, dim, split(dim, k)).real.astype(complex)
        T = T * (0.3 / mr.num_radius(T))
        m0, m_near = _margins_at(T, n, np.array([0.0, 1e-3]))
        margin = mr.nilpotent_condition(T, n)
        assert m_near < m0 and margin < m0 - 1e-3
        lower, upper = nilpotent_margin_bracket(T, n)
        assert lower - 1e-12 <= margin <= upper + 1e-10

    def test_order_two_at_dimension_64(self):
        T = mr.random_matrix(64, 64, split(870, 0))
        T = T * (0.45 / mr.num_radius(T))
        assert mr.nilpotent_condition(T, 2) == pytest.approx(
            1.0 - 2.0 * mr.num_radius(T), abs=1e-12)


class TestScaleInvariance:
    """The level-set maximum is taken on D scaled by a power of 2 near
    1 / max|D| and scaled back exactly, so it is relative to |D|: no
    absolute rounding floor below |T| ~ 1e-16 and no overflow near 1e300."""

    SCALES = [2.0 ** -1000, 1e-300, 1e-16, 1e300, 2.0 ** 1000]

    @pytest.mark.parametrize("s", SCALES)
    def test_radius_ratio(self, s):
        T = mr.random_matrix(6, 6, 7)
        assert mr.num_radius(s * T) / s == pytest.approx(mr.num_radius(T), rel=1e-15)

    @pytest.mark.parametrize("s", SCALES)
    def test_nilpotent_margin_ratio(self, s):
        # 1 - nilpotent_condition(s T, 2) is the order-2 maximum of s T; below
        # s ~ 1e-16 the margin itself rounds to 1, so its maximum is compared
        T = mr.random_matrix(6, 6, 7)
        top = 1.0 - mr.nilpotent_condition(T, 2)
        assert numrange._level_set_max(np.array([-2.0 * s * T]))[0] / s \
            == pytest.approx(top, rel=1e-15)
        if s > 1.0:
            assert (1.0 - mr.nilpotent_condition(s * T, 2)) / s == pytest.approx(top, rel=1e-15)

    def test_zero_keeps_unit_scale(self):
        assert numrange._pow2_scale(np.zeros((3, 3))) == 1.0
        assert mr.num_radius(np.zeros((3, 3))) == 0.0
