import inspect
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import lapack

import mrange as mr
from mrange.cpmaps import Feasible
from mrange.errors import (LostDefiniteness, NoConvergence, NotContraction, RadiusTooLarge,
                           VerificationFailed)
from mrange.rng import split

from helpers import E21, ando_reference, random_with_radius, two_dilation_reference


class TestAndoX:
    def test_lower_unit_exact(self):
        X, iters = mr.ando_X(E21)
        np.testing.assert_allclose(X, np.diag([0.75, 1.0]), atol=1e-12)
        assert iters <= 3

    def test_doubled_lower_unit_exact(self):
        X, _ = mr.ando_X(2 * E21)
        np.testing.assert_allclose(X, np.diag([0.0, 1.0]), atol=1e-12)

    def test_constant_support_summand_beside_an_interior_block(self):
        # w = 1 on the whole circle: no shift, and C_1 = 0 + 7/8 is singular
        # but PSD, so the 2 E21 summand stays at its fixed point diag(0, 1)
        X, _ = mr.ando_X(mr.direct_sum([2 * E21, np.array([[0.5]])]))
        x = (1.0 + np.sqrt(0.75)) / 2.0   # x + 1/(16 x) = 1
        np.testing.assert_allclose(X, np.diag([0.0, 1.0, x]), atol=1e-12)

    def test_zero(self):
        X, _ = mr.ando_X(np.zeros((2, 2)))
        np.testing.assert_allclose(X, np.eye(2), atol=1e-14)

    def test_radius_precondition(self):
        with pytest.raises(RadiusTooLarge):
            mr.ando_X(random_with_radius(3, 1.2, 0))

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_radius_just_above_one(self, dim):
        # inside the 1e-9 admission band no maximal solution exists, so the
        # iteration cannot settle: its C_k turns indefinite, and the radius
        # is what is wrong with the input
        T = random_with_radius(dim, 1.0 + 1e-10, split(83, dim))
        with pytest.raises(RadiusTooLarge,
                           match="numerical radius 1.0000000001.*lost definiteness"):
            mr.ando_X(T)

    def test_indefinite_step_is_typed(self):
        # lost definiteness is its own NoConvergence subclass, which callers
        # catch by type; error reports keep the base class's name
        with pytest.raises(LostDefiniteness,
                           match="^cyclic reduction lost definiteness at step 0$") as info:
            mr.ando._cyclic_reduction(np.diag([1.0, -1.0]).astype(complex),
                                      0.5 * np.eye(2, dtype=complex))
        assert isinstance(info.value, NoConvergence) and info.value.name == "NoConvergence"

    @pytest.mark.parametrize("excess, refused", [
        (lambda eps, a: 2.0 * eps * (1.0 + a), True),
        (lambda eps, a: eps * (1.0 + a / 2.0), False),
        (lambda eps, a: eps / 2.0, False),
    ], ids=["past-the-bound", "between-eps-and-the-bound", "under-eps"])
    def test_limit_above_the_identity(self, excess, refused, monkeypatch):
        # with the LMI check patched to pass, a limit c I is refused exactly
        # when c > 1 + psd_eps (1 + |T|); at or below 1 + psd_eps the check
        # needs no |T|, and between the two it must still take it
        T = random_with_radius(4, 0.7, 3)
        eps = mr.default_tolerances().psd_eps
        c = 1.0 + excess(eps, mr.op_norm(T))
        monkeypatch.setattr(mr.ando, "psd_check", lambda H, tol=None: (True, 0.0))
        monkeypatch.setattr(mr.ando, "_cyclic_reduction",
                            lambda A0, A1, **kwargs: (c * np.eye(4, dtype=complex), 0))
        if refused:
            with pytest.raises(NoConvergence, match="^limit exceeds the identity$"):
                mr.ando_X(T)
            return
        X, _ = mr.ando_X(T)
        assert np.array_equal(X, c * np.eye(4))

    def test_fixed_point_consistency(self):
        for seed in range(5):
            T = random_with_radius(3, 0.9, seed)
            X, _ = mr.ando_X(T)
            F = np.eye(3) - 0.25 * np.conj(T).T @ mr.pinv(X) @ T
            assert mr.op_norm(X - (F + np.conj(F).T) / 2) <= 1e-8

    def test_boundary_radius_one(self):
        for seed in range(3):
            T = random_with_radius(3, 1.0, seed + 50)
            X, _ = mr.ando_X(T)
            lmi = np.block([[np.eye(3) - X, np.conj(T).T / 2], [T / 2, X]])
            assert mr.psd_check(lmi)[1] >= -1e-9 * (1 + mr.op_norm(lmi))

    @pytest.mark.parametrize("dim, k", [(2, 117), (2, 118), (2, 133), (3, 121)])
    def test_boundary_ymin_below_ymax(self, dim, k):
        # at w(T) = 1, Y_max - Y_min is singular at the exact solution; a stop
        # on step size or stagnation runs on to the rounding floor, where X
        # can end slightly below the maximal solution and Y_min then rises
        # above Y_max on these inputs
        T = random_with_radius(dim, 1.0, split(61, k))
        dec = mr.ando_decompose(T)
        assert dec.residuals["ymin_below_ymax"] >= -1e-9 * (1 + mr.op_norm(T))


def _unshifted_X(T):
    """X from cyclic reduction without the boundary shift, and its steps."""
    A = np.asarray(T, dtype=complex)
    return mr.ando._cyclic_reduction(np.eye(A.shape[0], dtype=complex), np.conj(A).T / 2)


def _real_boundary(k):
    T = mr.random_matrix(5, 5, split(63, k)).real
    return T / mr.num_radius(T)


def _direct_sum(T):
    Z = np.zeros_like(T)
    return np.block([[T, Z], [Z, np.exp(1j) * T]])


def _boundary_inputs():
    for dim, k in [(2, 117), (2, 118), (2, 133), (3, 121)]:
        yield f"ymin-{dim}-{k}", random_with_radius(dim, 1.0, split(61, k))
    for dim in (2, 3, 6):
        for k in range(30):
            yield f"gauss-{dim}-{k}", random_with_radius(dim, 1.0, split(61, k))
    # real inputs: maxima at +-theta* (two, a rank-2 shift) and at theta* = pi
    yield "real-0", _real_boundary(0)
    yield "real-6", _real_boundary(6)
    # maxima at two angles one radian apart, one from each summand
    yield "direct-sum", _direct_sum(random_with_radius(3, 1.0, 5))


_BOUNDARY = list(_boundary_inputs())


class TestBoundaryShift:
    """At w(T) = 1 the extremal X comes from cyclic reduction on the
    Brauer-shifted equation: quadratic, and at the maximal solution instead
    of about 4e-7 above it."""

    @pytest.mark.parametrize("T", [T for _, T in _BOUNDARY], ids=[i for i, _ in _BOUNDARY])
    def test_maximal_and_accurate(self, T):
        A = np.asarray(T, dtype=complex)
        I = np.eye(A.shape[0])
        A1 = np.conj(A).T / 2
        scale = 1 + mr.op_norm(A)
        X, steps = mr.ando_X(A)
        # the unshifted limit lies above the maximal solution, never below
        assert np.linalg.eigvalsh(X - _unshifted_X(A)[0])[-1] <= 1e-12 * scale
        assert mr.op_norm(X - (I - A1 @ np.linalg.solve(X, np.conj(A1).T))) <= 1e-14 * scale
        # G = -X^{-1} A1* of the maximal X is the minimal solvent: rho(G) <= 1
        G = -np.linalg.solve(X, np.conj(A1).T)
        assert np.abs(np.linalg.eigvals(G)).max() <= 1 + 1e-8
        dec = mr.ando_decompose(A)
        assert dec.residuals["ymin_below_ymax"] >= -1e-9 * scale

    @pytest.mark.parametrize("T, maxima", [(_real_boundary(0), 2), (_real_boundary(6), 1),
                                           (_direct_sum(random_with_radius(3, 1.0, 5)), 2)],
                             ids=["real-pm", "real-pi", "direct-sum"])
    def test_one_maximum_per_angle(self, T, maxima):
        assert len(mr.num_radius(T).maxima) == maxima

    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("real", [False, True])
    def test_steps(self, n, real):
        # the unshifted iteration takes 20 steps at w(T) = 1, then its polishing step
        for k in range(2):
            T = mr.random_matrix(n, n, split(64 + n, k))
            T = T.real if real else T
            T = T / mr.num_radius(T)
            assert mr.ando_X(T)[1] <= 10
            assert _unshifted_X(T)[1] == 21

    @pytest.mark.parametrize("T, X", [
        (2 * E21, np.diag([0.0, 1.0])),
        (mr.shift(4) / np.cos(np.pi / 5), None),
        (mr.shift(8) / np.cos(np.pi / 9), None),
    ], ids=["2E21", "S4", "S8"])
    def test_constant_support_function_unshifted(self, T, X):
        # the maximum is attained on the whole circle: no maxima, no shift,
        # and the closed forms come out exactly as before
        assert len(mr.num_radius(T).maxima) == 0
        out, steps = mr.ando_X(T)
        plain, plain_steps = _unshifted_X(T)
        assert np.array_equal(out, plain) and steps == plain_steps
        if X is not None:
            np.testing.assert_allclose(out, X, atol=1e-12)

    def test_outside_shift_band(self):
        # at 1 - w = 1e-12 a unimodular z misses G's eigenvalue by enough to
        # fail the stop, so no shift is tried: the unshifted X, bit for bit
        T = random_with_radius(4, 1.0 - 1e-12, 9)
        X, steps = mr.ando_X(T)
        plain, plain_steps = _unshifted_X(T)
        assert np.array_equal(X, plain) and steps == plain_steps
        G = -np.linalg.solve(X, T / 2)
        assert np.abs(np.linalg.eigvals(G)).max() <= 1 + 1e-8

    def test_ill_conditioned_gram_takes_no_shift(self, monkeypatch):
        # a Gram matrix V*V under _SHIFT_RCOND_MIN gives no shift: at w = 1
        # the unshifted X, bit for bit
        T = random_with_radius(4, 1.0, split(61, 3))
        w = mr.num_radius(T)
        assert mr.ando._boundary_shifts(T, w, w.maxima) is not None
        monkeypatch.setattr(mr.ando, "_SHIFT_RCOND_MIN", np.inf)
        assert mr.ando._boundary_shifts(T, w, w.maxima) is None
        X, steps = mr.ando_X(T)
        plain, plain_steps = _unshifted_X(T)
        assert np.array_equal(X, plain) and steps == plain_steps

    def test_wrong_shifts_fall_back_under_optimize(self):
        # a shift at angles 0.1 away from the maxima never meets the stop, and
        # the shift by the outer eigenvalues gives the minimal Hermitian
        # solution, which meets the stop and the LMI and only fails
        # rho(G) <= 1; both fall back to the unshifted X, also under python -O
        code = textwrap.dedent("""
            import numpy as np
            import scipy.linalg
            import mrange as mr
            from mrange import ando

            def plain(T):
                I = np.eye(T.shape[0], dtype=complex)
                return ando._cyclic_reduction(I, T.conj().T / 2)

            T = mr.random_matrix(4, 4, 7)
            T = T / mr.num_radius(T)
            w = mr.num_radius(T)
            X, steps = ando._extremal_X(T, mr.numrange._Radius(w, w.maxima + 0.1),
                                        mr.default_tolerances())[:2]
            print(__debug__, np.array_equal(X, plain(T)[0]), steps == ando._SHIFT_STEPS + plain(T)[1])

            T = mr.random_matrix(4, 4, 0)
            T = 0.9 * T / mr.num_radius(T)
            I, Z = np.eye(4), np.zeros((4, 4))
            A1 = T.conj().T / 2
            mu, U = scipy.linalg.eig(np.block([[Z, I], [-A1.conj().T, -I]]),
                                     np.block([[I, Z], [Z, A1]]))
            outer = np.argsort(np.abs(mu))[4:]
            V = U[:4, outer]
            S = (V * mu[outer]) @ np.linalg.inv(V)
            Xmin = I + A1 @ S
            Xmin = (Xmin + Xmin.conj().T) / 2
            print(mr.op_norm(Xmin + A1 @ np.linalg.solve(Xmin, A1.conj().T) - I) < 1e-12)
            ando._boundary_shifts = lambda A, w, maxima: ((S, np.eye(4)), None)
            X, steps = mr.ando_X(T)
            print(np.array_equal(X, plain(T)[0]))
        """)
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "True", "True", "True", "True"], out.stderr



def _scalar_shift(z):
    """A shift (S, P) of _cyclic_reduction for n = 1: S = z, P = 1."""
    return np.array([[z]], dtype=complex), np.eye(1, dtype=complex)


class TestFailedShift:
    """A shifted run that fails, in process: the plain run takes over, and
    the count adds the rejected run's whole budget of _SHIFT_STEPS."""

    @pytest.mark.parametrize("s", range(6))
    def test_shift_off_the_maxima_falls_back(self, s, monkeypatch):
        # a shift built pi/3 away from the maxima stalls at its 12-step
        # budget, so X(T) and X(T*) are the plain runs bit for bit
        T = random_with_radius(4, 1.0, split(77, s))
        boundary_shifts = mr.ando._boundary_shifts
        monkeypatch.setattr(mr.ando, "_boundary_shifts", lambda A, w, maxima:
                            boundary_shifts(A, w, maxima + np.pi / 3))
        plain, steps = _unshifted_X(T)
        plain_star, steps_star = _unshifted_X(np.conj(T).T)
        assert steps == steps_star == 21
        X, k = mr.ando_X(T)
        assert np.array_equal(X, plain) and k == mr.ando._SHIFT_STEPS + steps
        dec = mr.ando_decompose(T)
        assert np.array_equal(dec.X, plain) and np.array_equal(dec.Xstar, plain_star)
        assert dec.iterations == 2 * mr.ando._SHIFT_STEPS + steps + steps_star

    @pytest.mark.parametrize("T, z, message", [
        # A_0 = 1 + (1/2)(-2) = 0 at the first step
        (1.0, -2.0, "singular cyclic-reduction step"),
        # z is the outer root of 1/4 + z + z^2/4 = 0: A_{-1} = 0, so 1 + z/4
        # is a fixed point at once, from the solvent of modulus 2 + sqrt(3)
        (0.5, -2.0 - np.sqrt(3.0), "shifted solvent is not the minimal one"),
    ], ids=["singular-step", "outer-solvent"])
    def test_rejected_shift(self, T, z, message):
        I, A1 = np.eye(1, dtype=complex), np.array([[T / 2.0]], dtype=complex)
        with pytest.raises(NoConvergence, match=message):
            mr.ando._cyclic_reduction(I, A1, shift=_scalar_shift(z))
        A = np.array([[T]], dtype=complex)
        X, k = mr.ando._extremal_X(A, mr.num_radius(A), mr.default_tolerances(),
                                   _scalar_shift(z))[:2]
        plain, steps = _unshifted_X(A)
        assert np.array_equal(X, plain) and k == mr.ando._SHIFT_STEPS + steps


_CLOSED_FORM_STEPS = [
    ("E21", E21, 2),
    ("2E21", 2 * E21, 2),
    ("zero", np.zeros((3, 3)), 1),
    ("S4", mr.shift(4), 3),
    ("S4-cos", mr.shift(4) / np.cos(np.pi / 5), 3),
    ("S8-cos", mr.shift(8) / np.cos(np.pi / 9), 4),
    ("0.999I", 0.999 * np.eye(3), 9),
    ("I", np.eye(3), 21),
]


def _two_step_input():
    T = mr.random_matrix(4, 4, 11)
    return 0.9 * T / mr.num_radius(T)


def _residual_after_two_steps(T):
    """op_norm of the fixed-point residual of X_2, the unshifted iterate."""
    I, B = np.eye(T.shape[0], dtype=complex), T / 2
    X, C = I.copy(), I.copy()
    for _ in range(2):
        KB = np.linalg.solve(C, B)
        X, C, B = (X - B.conj().T @ KB,
                   C - B @ np.linalg.solve(C, B.conj().T) - B.conj().T @ KB, -B @ KB)
    A1 = T.conj().T / 2
    return mr.op_norm(X - (I - A1 @ np.linalg.solve(X, A1.conj().T)))


def _reported_residual(T):
    """The residual named by the NoConvergence of an unshifted run on T."""
    try:
        mr.ando._cyclic_reduction(np.eye(T.shape[0], dtype=complex), T.conj().T / 2)
    except NoConvergence as exc:
        return float(re.search(r"residual ([^)]*)\)", str(exc)).group(1))
    return None


def _factor_moments(P):
    """Q_k = sum_j P_j* P_{j+k} for a stack P_0..P_N."""
    N = P.shape[0] - 1
    return np.array([sum(np.conj(P[j]).T @ P[j + k] for j in range(N + 1 - k))
                     for k in range(N + 1)])


def _seeded_moments(degree, seed):
    """The moments of a seeded 2 x 2 factor P_0..P_degree."""
    return _factor_moments(mr.random_matrix(2 * (degree + 1), 2, seed).reshape(degree + 1, 2, 2))


def _scaled_moment_problem(scale, degree, seed):
    """(A0, A1) of _spectral_factor for scale times the moments
    Q_k = sum_j P_j* P_{j+k} of a seeded 2 x 2 factor P_0..P_degree."""
    Q = scale * _seeded_moments(degree, seed)
    return (mr.toeplitz._block_toeplitz(Q, degree),
            mr.toeplitz._block_toeplitz(Q, degree, degree))


class TestResidualGate:
    """The fixed-point residual is evaluated only once the last update or
    A_{-1} is under sqrt(FIXPOINT_EPS max(1, |A0|_1))."""

    @pytest.mark.parametrize("T, steps", [(T, k) for _, T, k in _CLOSED_FORM_STEPS],
                             ids=[name for name, _, _ in _CLOSED_FORM_STEPS])
    def test_closed_form_step_counts(self, T, steps):
        assert mr.ando_X(T)[1] == steps
        assert _unshifted_X(T)[1] == steps

    @pytest.mark.parametrize("solve", [
        lambda: mr.fejer_riesz(mr.trig_poly_from_factor(mr.random_matrix(1, 65, 17)[0])),
        lambda: mr.ando_X(random_with_radius(8, 0.9, split(71, 8))),
    ], ids=["fejer_riesz-64", "ando_X-8"])
    def test_at_most_two_evaluations_per_solve(self, solve, monkeypatch):
        evals, solves = [], []
        defect, reduce = mr.ando._fixpoint_defect, mr.ando._cyclic_reduction

        def counted_reduce(*args, **kwargs):
            solves.append(1)
            return reduce(*args, **kwargs)

        monkeypatch.setattr(mr.ando, "_fixpoint_defect",
                            lambda *args: evals.append(1) or defect(*args))
        monkeypatch.setattr(mr.ando, "_cyclic_reduction", counted_reduce)
        monkeypatch.setattr(mr.toeplitz, "_cyclic_reduction", counted_reduce)
        solve()
        assert len(solves) == 1 and 1 <= len(evals) <= 2

    @pytest.mark.parametrize("A0, A1, steps", [
        (np.array([[30.0 + 0j]]), np.array([[13.5 + 0j]]), 6),
        (np.array([[1e4 + 0j]]), np.array([[4e3 + 0j]]), 6),
        (*_scaled_moment_problem(30.0, 4, 25), 7),
    ], ids=["scalar-30", "scalar-1e4", "moments-30"])
    def test_scaled_input_matches_residual_at_every_step(self, A0, A1, steps, monkeypatch):
        # the gate grows with |A0|, so a residual of about update^2 / |A0| is
        # evaluated at the step where it first passes: X and the step count
        # equal those of a run that evaluates it before every step
        X, k = mr.ando._cyclic_reduction(A0, A1)
        monkeypatch.setattr(mr.ando, "_RESIDUAL_GATE", np.inf)
        X_every, k_every = mr.ando._cyclic_reduction(A0, A1)
        assert k == k_every == steps and np.array_equal(X, X_every)

    def test_no_convergence_names_last_residual(self, monkeypatch):
        monkeypatch.setattr(mr.ando, "_MAX_STEPS", 2)
        T = _two_step_input()
        expected = _residual_after_two_steps(T)
        assert expected > mr.linalg.FIXPOINT_EPS
        assert _reported_residual(T) == pytest.approx(expected, rel=1e-3)

    def test_no_convergence_names_last_residual_under_optimize(self):
        code = "\n".join([
            "import re", "import numpy as np", "import mrange as mr",
            "from mrange.errors import NoConvergence",
            *(inspect.getsource(f) for f in
              (_two_step_input, _residual_after_two_steps, _reported_residual)),
            "mr.ando._MAX_STEPS = 2",
            "T = _two_step_input()",
            "ratio = _reported_residual(T) / _residual_after_two_steps(T)",
            "print(__debug__, abs(ratio - 1) < 1e-3)",
        ])
        src = os.path.dirname(os.path.dirname(mr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False", "True"], out.stderr


class TestRelativeStop:
    """The fixed-point stop is FIXPOINT_EPS max(1, |A0|_1): inputs whose
    rounding floor lies above 1e-12 stop as well."""

    @pytest.mark.parametrize("scale", [30.0, 1e3, 1e5])
    def test_scaled_moments_factor(self, scale):
        Q = scale * _seeded_moments(8, 3)
        P = mr.toeplitz._spectral_factor(Q)
        assert np.abs(_factor_moments(P) - Q).max() <= 1e-13 * np.abs(Q).max()

    def test_Q_singular_on_the_whole_circle_factors(self):
        # A0 = Q_0 has a zero block, so the first step's C is singular but PSD
        U = mr.random_isometry(2, 2, 3)
        Q = np.array([U @ np.diag([q, 0.0]) @ U.conj().T for q in (3.0, 1.0)])
        P = mr.toeplitz._spectral_factor(Q)
        assert np.abs(_factor_moments(P) - Q).max() <= 1e-13

    @pytest.mark.parametrize("degree", [256, 384])
    def test_high_degree_fejer_riesz(self, degree):
        c = mr.trig_poly_from_factor(np.ones(degree + 1)).coeffs
        c[0] *= 1.001
        p = mr.fejer_riesz(mr.TrigPoly(coeffs=c))
        err = np.abs(np.convolve(p, np.conj(p[::-1]))[degree:] - c)
        # all coefficients are positive, so tau peaks at angle 0
        assert p.size == degree + 1
        assert err[0] + 2 * err[1:].sum() <= 1e-9 * (1 + c[0].real + 2 * c[1:].real.sum())


def _symmetrizing_cyclic_reduction(A0, A1, shift=None, steps=None):
    """The reference for ando._cyclic_reduction: the same iteration, but X
    and A_0 symmetrized after every step (Ah each step, shifted), the
    Hermitian products formed from conjugate copies, and every block
    updated in the polishing step as well."""
    ando, linalg = mr.ando, mr.linalg
    herm, dag = linalg.herm_part, linalg.dagger
    Am, C, Ap, X = dag(A1), A0.copy(), A1, A0.copy()
    if steps is None:
        steps = ando._MAX_STEPS if shift is None else ando._SHIFT_STEPS
    if shift is not None:
        S, P = shift
        Am0 = Am = Am - Am @ P
        C = Ah = A0 + A1 @ S
        X = herm(Ah)
    scale = max(1.0, np.abs(A0).sum(axis=0).max())
    gate = ando._RESIDUAL_GATE * np.sqrt(scale)
    update, n = np.inf, A0.shape[0]
    for k in range(steps):
        done = (update <= gate or np.linalg.norm(Am) <= gate) and linalg._norm_within(
            ando._fixpoint_defect(A0, A1, X), linalg.FIXPOINT_EPS * scale)
        if shift is None:
            BB = np.concatenate([Am, dag(Am)], axis=1)
            L, info = lapack.zpotrf(C, lower=1)
            if info == 0:
                FBB = lapack.ztrtrs(L, BB, lower=1)[0]
            else:
                c, U = np.linalg.eigh(C)
                if c[0] < -linalg.RANK_REL * c[-1]:
                    if done:
                        break
                    raise LostDefiniteness(f"cyclic reduction lost definiteness at step {k}")
                FBB = (linalg._pinv_sqrt(c)[:, None] * dag(U)) @ BB
            W, V = FBB[:, :n], FBB[:, n:]
            BCB, BCBs, Am = dag(W) @ W, dag(V) @ V, -(dag(V) @ W)
            update = np.linalg.norm(BCB)
            X = herm(X - BCB)
            C = herm(C - BCBs - BCB)
        else:
            try:
                K = ando._lu_solve(C, np.concatenate([Am, Ap], axis=1))
            except NoConvergence:
                if done:
                    break
                raise
            KAm, KAp = K[:, :n], K[:, n:]
            ApKAm = Ap @ KAm
            update = np.linalg.norm(ApKAm)
            Ah = Ah - ApKAm
            X = herm(Ah)
            C = C - Am @ KAp - ApKAm
            Am, Ap = -Am @ KAm, -Ap @ KAp
        if done:
            k += 1
            break
    else:
        raise NoConvergence(f"no fixed point after {steps} steps "
                            f"(residual {mr.op_norm(ando._fixpoint_defect(A0, A1, X)):.3e})")
    if shift is not None and \
            np.abs(np.linalg.eigvals(S - ando._lu_solve(Ah, Am0))).max() > 1.0 + 1e-8:
        raise NoConvergence("shifted solvent is not the minimal one")
    return X, k


def _cyclic_reduction_inputs():
    """(name, solve) for entry points whose cyclic-reduction runs the reference
    test replays: unshifted with A0 = I (interior Ando), unshifted spectral
    factors (Fejer-Riesz, nilpotent, a singular first A_0) and shifted
    (w = 1)."""
    for n, w, seed in [(2, 0.3, 1), (4, 0.9, 2), (8, 0.999, 3), (16, 0.9, 4), (24, 0.5, 5)]:
        T = random_with_radius(n, w, split(83, seed))
        yield f"ando-{n}-{w}", lambda T=T: mr.ando_decompose(T)
    for name, T in _BOUNDARY[:4] + _BOUNDARY[34:37] + _BOUNDARY[64:67] + _BOUNDARY[-3:]:
        yield f"ando-w1-{name}", lambda T=T: mr.ando_decompose(T)
    for degree, seed in [(8, 1), (16, 2), (32, 3), (64, 4)]:
        tau = mr.trig_poly_from_factor(mr.random_matrix(1, degree + 1, split(89, seed))[0])
        yield f"fejer-riesz-{degree}", lambda tau=tau: mr.fejer_riesz(tau)
    for order, d in [(2, 3), (3, 2), (4, 3)]:
        T = mr.random_matrix(d, d, split(97, order))
        yield f"nilpotent-{order}-{d}", lambda T=T, order=order: mr.nilpotent_dilation(
            0.3 * T / mr.op_norm(T), order)
    U = mr.random_isometry(2, 2, 3)
    Q = np.array([U @ np.diag([q, 0.0]) @ U.conj().T for q in (3.0, 1.0)])
    yield "singular-A0", lambda: mr.toeplitz._spectral_factor(Q)


_CR_INPUTS = list(_cyclic_reduction_inputs())
# fixed from the dtype before any run: 64 roundings of s = max(1, |A0|_1),
# far under the FIXPOINT_EPS s stop
_CR_TOL = 64 * np.finfo(float).eps


class TestHermitianWork:
    """Cyclic reduction symmetrizes X only where it is read and reads A_0 by
    its lower triangle: the same steps as the symmetrizing reference, X
    within rounding of it (bit for bit when shifted), and exactly Hermitian."""

    @pytest.mark.parametrize("solve", [s for _, s in _CR_INPUTS],
                             ids=[name for name, _ in _CR_INPUTS])
    def test_matches_the_symmetrizing_loop(self, solve, monkeypatch):
        runs, reduce = [], mr.ando._cyclic_reduction

        def recorded(*args, **kwargs):
            runs.append((args, kwargs))
            return reduce(*args, **kwargs)
        monkeypatch.setattr(mr.ando, "_cyclic_reduction", recorded)
        monkeypatch.setattr(mr.toeplitz, "_cyclic_reduction", recorded)
        solve()
        assert runs
        for args, kwargs in runs:
            try:
                X_ref, k_ref = _symmetrizing_cyclic_reduction(*args, **kwargs)
            except (NoConvergence, LostDefiniteness) as exc:
                with pytest.raises(type(exc)):
                    reduce(*args, **kwargs)
                continue
            X, k = reduce(*args, **kwargs)
            scale = max(1.0, np.abs(args[0]).sum(axis=0).max())
            assert k == k_ref
            assert np.abs(X - X_ref).max() <= _CR_TOL * scale
            assert np.array_equal(X, X.conj().T)
            if kwargs.get("shift") is not None:
                assert np.array_equal(X, X_ref)

    def test_no_convergence_names_the_residual_of_herm_Ah(self):
        # shifted, Ah is far from Hermitian until it converges: a run cut
        # after two steps names the residual of herm(Ah), as the reference does
        T = _BOUNDARY[34][1]
        w = mr.num_radius(T)
        shift = mr.ando._boundary_shifts(T, w, w.maxima)[0]
        args = (np.eye(3, dtype=complex), T.conj().T / 2)
        messages = []
        for reduce in (mr.ando._cyclic_reduction, _symmetrizing_cyclic_reduction):
            with pytest.raises(NoConvergence) as exc:
                reduce(*args, shift=shift, steps=2)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_inputs_cover_every_kind_of_run(self, monkeypatch):
        kinds, reduce = set(), mr.ando._cyclic_reduction

        def recorded(A0, A1, shift=None, steps=None):
            out = reduce(A0, A1, shift, steps)
            identity = np.array_equal(A0, np.eye(A0.shape[0]))
            kinds.add("shifted" if shift is not None else "ando" if identity else "spectral")
            return out
        monkeypatch.setattr(mr.ando, "_cyclic_reduction", recorded)
        monkeypatch.setattr(mr.toeplitz, "_cyclic_reduction", recorded)
        for _, solve in _CR_INPUTS:
            solve()
        assert kinds == {"ando", "spectral", "shifted"}


class TestPolishingStep:
    """The step after the stop is met updates X alone, so it solves for
    A_{-1} only: n right-hand sides, not 2n."""

    def test_unshifted_solves_for_B_alone(self, count_calls):
        n = 6
        T = random_with_radius(n, 0.9, 5)
        solves = count_calls(mr.ando.lapack, "ztrtrs")
        _, k = mr.ando._cyclic_reduction(np.eye(n, dtype=complex), T.conj().T / 2)
        columns = [rhs.shape[1] for _, rhs in solves]
        # the steps before the stop solve for [B, B*]; the residual's own
        # solves and the polishing step's have n columns
        assert columns.count(2 * n) == k - 1
        assert columns[-1] == n

    def test_shifted_solves_for_A_minus_1_alone(self, count_calls):
        T = _BOUNDARY[34][1]
        n = T.shape[0]
        solves = count_calls(mr.ando, "_lu_solve")
        _, k = mr.ando_X(T)
        # k steps, the last one polishing, then the minimal-solvent check
        assert [rhs.shape[1] for _, rhs in solves] == [2 * n] * (k - 1) + [n, n]


def _lmi_feasible_point(T, start):
    """Project a random Hermitian pair into {[[I-Y, T*/2],[T/2, Y]] >= 0}."""
    d = T.shape[0]
    # one cone, a 2 x 2 grid of d x d blocks: the (2, 1) block is pinned to
    # T/2 and the diagonal blocks sum to the identity
    K = [[np.array([[0, 0], [1, 0]])], [np.eye(2)]]
    out = mr.solve_feasibility(K, [T / 2, np.eye(d)], start=start)
    if not isinstance(out, Feasible):
        return None
    return out.matrix[0, d:, d:]


class TestAndoDecompose:
    def test_lower_unit_values(self):
        dec = mr.ando_decompose(E21)
        np.testing.assert_allclose(dec.Y_max, np.diag([0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(dec.Y_min, np.diag([-1.0, -0.5]), atol=1e-12)
        np.testing.assert_allclose(dec.Z, E21, atol=1e-12)
        np.testing.assert_allclose(dec.C, E21 / 2, atol=1e-12)

    def test_doubled_lower_unit_values(self):
        dec = mr.ando_decompose(2 * E21)
        np.testing.assert_allclose(dec.Y_max, np.diag([-1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(dec.Y_min, dec.Y_max, atol=1e-12)
        np.testing.assert_allclose(dec.Z, E21, atol=1e-12)
        np.testing.assert_allclose(dec.C, E21, atol=1e-12)

    def test_radius_computed_once(self, count_calls):
        # at w = 1 the start values settle nothing, and X at the first
        # ascent's provisional radius does: one start grid and no level set,
        # and w(T*) = w(T), so the adjoint problem reuses that radius
        starts = count_calls(mr.numrange, "_start_grid")
        levels = count_calls(mr.numrange, "_level_pencil")
        mr.ando_decompose(2 * E21)
        assert (len(starts), len(levels)) == (1, 0)

    def test_zero(self):
        dec = mr.ando_decompose(np.zeros((2, 2)))
        np.testing.assert_allclose(dec.Y_max, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(dec.Z, np.zeros((2, 2)), atol=1e-12)

    def test_reconstructions_on_random_inputs(self):
        for seed in range(6):
            target = 0.3 + 0.14 * seed  # up to ~1.0
            T = random_with_radius(3, min(target, 1.0), seed)
            dec = mr.ando_decompose(T)
            I = np.eye(3)
            scale = 1 + mr.op_norm(T)
            assert mr.op_norm(mr.sqrt_psd(I + dec.Y_max) @ dec.Z
                              @ mr.sqrt_psd(I - dec.Y_max) - T) <= 1e-8 * scale
            assert mr.op_norm(2 * mr.sqrt_psd(I - np.conj(dec.C).T @ dec.C)
                              @ dec.C - T) <= 1e-8 * scale
            assert mr.op_norm(dec.Z) <= 1 + 1e-8
            assert np.linalg.eigvalsh(dec.Y_max - dec.Y_min)[0] >= -1e-9

    def test_z_column_next_to_the_rank_cutoff(self):
        # I - X has an eigenvalue of 2.4e-10, just above the RANK_REL cutoff.
        # Z's column there, X^{+1/2} (T/2) u / sqrt(1 - x), divides the Riccati
        # residual by it and came out 6e-7 above norm 1; every entry point
        # that builds Z failed its |Z| <= 1 + 1e-8 check
        T = mr.random_matrix(21, 21, 21763).real
        T = T * (0.2 / mr.num_radius(T))
        scale = 1 + mr.op_norm(T)
        dec = mr.ando_decompose(T)
        assert dec.residuals["z_norm_excess"] <= 1e-8
        assert dec.residuals["reconstruction_ymax"] <= 1e-8 * scale
        assert dec.residuals["reconstruction_c"] <= 1e-8 * scale
        assert dec.residuals["z_isometry_defect"] <= 1e-7
        assert mr.two_dilation(T, 8).residuals["compression"] <= 1e-9
        assert all(mr.equivalence_suite(T).all_conditions())

    def test_adjoint_symmetry_by_construction(self):
        T = random_with_radius(3, 0.8, 17)
        dec = mr.ando_decompose(T)
        Xstar, _ = mr.ando_X(np.conj(T).T)
        np.testing.assert_allclose(dec.Y_min, -(2 * Xstar - np.eye(3)), atol=1e-12)

    def test_maximality_against_sampled_feasible_points(self, monkeypatch):
        monkeypatch.setattr(mr.cpmaps, "MAX_ITER", 4000)
        T = random_with_radius(2, 0.9, 23)
        X, _ = mr.ando_X(T)
        hits = 0
        for k in range(100):
            Y0 = mr.random_hermitian(2, split(404, k)) * 0.4 + 0.5 * np.eye(2)
            start = np.block([[np.eye(2) - Y0, np.conj(T).T / 2], [T / 2, Y0]])
            Y = _lmi_feasible_point(T, start)
            if Y is None:
                continue
            hits += 1
            assert np.linalg.eigvalsh(X - Y)[0] >= -1e-6
        assert hits >= 90  # the sampler must actually produce feasible points


def _reference_inputs():
    yield 2 * E21
    yield mr.shift(4) / np.cos(np.pi / 5)   # w(S_n) = cos(pi / (n + 1))
    yield mr.shift(8) / np.cos(np.pi / 9)
    for w in (0.8, 1.0):
        for dim in (2, 3, 5, 6):
            yield random_with_radius(dim, w, split(3101, dim))


class TestOneFactorizationPerOperator:
    """Every function of X comes from one eigendecomposition of X, and the
    dilation's defect operators from one SVD of C."""

    @pytest.mark.parametrize("run, bound", [
        (lambda T: mr.ando_decompose(T), 11),
        (lambda T: mr.two_dilation(T, 12), 7),
        (lambda T: mr.equivalence_suite(T / 2), 24),
    ], ids=["ando_decompose", "two_dilation", "equivalence_suite"])
    def test_decomposition_count(self, run, bound, monkeypatch):
        T = random_with_radius(6, 1.0, 5)
        calls = []

        def counted(name):
            solver = getattr(np.linalg, name)

            def call(*args, **kwargs):
                # op_norm's one singular value is a norm, not a factorization
                # of an operator: its SVD is not counted
                if sys._getframe(1).f_code.co_name != "op_norm":
                    calls.append(name)
                return solver(*args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        run(T)
        assert len(calls) <= bound, calls

    @pytest.mark.parametrize("T", list(_reference_inputs()))
    def test_matches_separate_decompositions(self, T):
        dec = mr.ando_decompose(T)
        Z, C = ando_reference(T, dec.X)
        scale = 1 + mr.op_norm(T)
        assert np.abs(dec.Z - Z).max() <= 1e-10 * scale
        assert np.abs(dec.C - C).max() <= 1e-12 * scale
        # where C has a singular value of exactly 1, as for S_4/cos(pi/5) and
        # S_8/cos(pi/9), (I - C*C)^{1/2} and (I - CC*)^{1/2} take the root of a
        # rounding-level eigenvalue, so an SVD and an eigh agree on them only
        # to about sqrt(eps). The roots are checked as Hermitian PSD roots of
        # their squares, and they and the blocks built from them against the
        # eigh products to 1e-7, the root of a few hundred eps (each product
        # has a factor of norm <= 1, so it adds at most the two roots' errors).
        # Block (0, 0) is checked against T/2 (T = 2 (I - C*C)^{1/2} C), every
        # other block against the reference as before.
        d, M = T.shape[0], 8
        U, ref = mr.two_dilation(T, M).dense(), two_dilation_reference(dec.C, M)

        def block(A, i, j):
            return A[(i + M) * d:(i + M + 1) * d, (j + M) * d:(j + M + 1) * d]

        C, Cs, I = dec.C, np.conj(dec.C).T, np.eye(d)
        for (i, j), square in (((1, 0), I - Cs @ C), ((-1, -2), I - C @ Cs)):
            R = block(U, i, j)
            assert np.abs(R - np.conj(R).T).max() <= 1e-12 * scale
            assert np.linalg.eigvalsh((R + np.conj(R).T) / 2).min() >= -1e-12 * scale
            assert np.abs(R @ R - square).max() <= 1e-12 * scale
        root_blocks = [(1, 0), (-1, -2), (-1, -1), (0, -1)]
        for i, j in root_blocks:
            assert np.abs(block(U, i, j) - block(ref, i, j)).max() <= 1e-7 * scale
        assert np.abs(block(U, 0, 0) - T / 2).max() <= 1e-12 * scale
        for i, j in root_blocks + [(0, 0)]:
            block(ref, i, j)[:] = block(U, i, j)
        assert np.abs(U - ref).max() <= 1e-12 * scale

    def test_defect_outside_slack_is_not_psd(self):
        # 1 - s^2 = -2e-7: the defect operators do not exist, and their roots,
        # clipped to zero, leave a unitarity defect past its 1e-7 bound
        C = (1 + 1e-7) * E21
        with pytest.raises(VerificationFailed, match="interior unitarity defect"):
            mr.dilation._two_dilation(2 * C, C, 8)
        # within the rounding of a verified |C| <= 1 + 1e-8 they are clipped to zero
        C = (1 + 1e-9) * E21
        win = mr.dilation._two_dilation(2 * C, C, 8)
        np.testing.assert_allclose(win.blocks[(1, 0)], np.diag([0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("excess", [2.5e-9, 3.1e-9])
    def test_x_past_the_identity_is_decided_by_the_extremal_check(self, excess, monkeypatch):
        # for 2 E21 the LMI check of _extremal_X admits X's top eigenvalue up
        # to about 1 + 3e-9 at the default psd_eps; the roots of I - X then
        # clip to 0 rather than check again with a tighter slack of their own
        reduce = mr.ando._cyclic_reduction

        def pushed(*args, **kwargs):
            X, steps = reduce(*args, **kwargs)
            u = np.linalg.eigh(X)[1][:, -1]
            return X + excess * np.outer(u, u.conj()), steps

        monkeypatch.setattr(mr.ando, "_cyclic_reduction", pushed)
        if excess > 3e-9:
            with pytest.raises(NoConvergence, match="defining LMI"):
                mr.ando_decompose(2 * E21)
            return
        dec = mr.ando_decompose(2 * E21)
        x, U = np.linalg.eigh(dec.X)
        assert x[-1] - 1 == pytest.approx(excess, rel=1e-6)
        assert np.linalg.norm(dec.C @ U[:, -1]) <= 1e-15   # (1 - x)^{1/2} clipped
        assert dec.residuals["reconstruction_c"] <= 1e-8


class TestRadiusLmi:
    def test_lower_unit(self):
        ok, A = mr.radius_lmi(E21)
        assert ok
        block = np.block([[A, E21.T], [E21, np.eye(2) - A]])
        assert mr.psd_check(block)[1] >= -1e-9
        np.testing.assert_allclose(A, np.diag([1.0, 0.0]), atol=1e-10)

    def test_zero(self):
        ok, A = mr.radius_lmi(np.zeros((2, 2)))
        assert ok
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12

    def test_large_radius_rejected(self):
        ok, A = mr.radius_lmi(0.51 * np.eye(2))
        assert not ok and A is None

    def test_matches_radius_threshold_on_samples(self):
        for seed in range(12):
            target = 0.2 + 0.05 * seed  # 0.2 .. 0.75, skipping the 1e-3 band
            if abs(target - 0.5) < 1e-3:
                continue
            T = random_with_radius(2, target, split(31, seed))
            ok, _ = mr.radius_lmi(T)
            assert ok == (target <= 0.5)


class TestFixedRoundingBand:
    def test_loose_tolerance_does_not_widen_it(self):
        # the w <= 1 + 1e-9 of _extremal_X ignores psd_eps: widened to 1e-4,
        # these inputs just outside fail verification ("Y_min above Y_max",
        # "interior unitarity defect") instead of being refused; halmos_unitary
        # takes no tolerance, and its norm <= 1 + 1e-9 refuses the same way
        loose = mr.Tolerances(psd_eps=1e-4)
        with pytest.raises(RadiusTooLarge):
            mr.ando_decompose(1.00002 * mr.shift(4) / np.cos(np.pi / 5), loose)
        with pytest.raises(RadiusTooLarge):
            mr.two_dilation(2.00004 * E21, 8, loose)
        with pytest.raises(NotContraction):
            mr.halmos_unitary(1.00002 * E21)

    def test_threshold_verdicts_keep_it(self):
        # the norm <= 1 of member_shift_ball and the w <= 1 and nilpotent
        # margin >= 0 conditions of the suite round by the same fixed band:
        # at psd_eps = 0.05, w = 1.02 fails all nine conditions instead of
        # letting (2) and (4) disagree with the rest
        loose = mr.Tolerances(psd_eps=1e-4)
        assert not mr.member_shift_ball(1.00002 * E21, 64, loose).member
        rep = mr.equivalence_suite(2.04 * E21, mr.Tolerances(psd_eps=0.05))
        assert rep.all_conditions() == (False,) * 9


class TestUcpFromE21:
    def test_lower_unit_witness(self):
        phi = mr.ucp_from_e21(E21)
        assert mr.is_cp(phi)[0]
        assert phi.unital_defect() <= 1e-12
        np.testing.assert_allclose(phi.value(2, 1), E21, atol=1e-12)
        np.testing.assert_allclose(phi.value(1, 2), E21.T, atol=1e-12)
        np.testing.assert_allclose(phi.value(1, 1) + phi.value(2, 2),
                                   np.eye(2), atol=1e-12)

    def test_zero(self):
        phi = mr.ucp_from_e21(np.zeros((2, 2)))
        assert mr.is_cp(phi)[0]
        assert phi.unital_defect() <= 1e-12

    def test_normal_boundary_input(self):
        T = np.diag([0.5, -0.5]).astype(complex)  # radius 1/2 by normality
        phi = mr.ucp_from_e21(T)
        ok, mn = mr.is_cp(phi)
        assert ok and mn >= -1e-9

    def test_rejects_large_radius(self):
        with pytest.raises(RadiusTooLarge):
            mr.ucp_from_e21(0.6 * np.eye(2))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_choi_block_checked_once_by_the_lmi(self, d, monkeypatch):
        # the call's one PSD check is _extremal_X's LMI for (2T)*,
        # [[I - A, T], [T*, A]]: the witness map's Choi matrix
        # [[A, T*], [T, I - A]] with its block rows and columns swapped,
        # bit for bit
        checked, inside = [], []
        extremal_X, psd_check = mr.ando._extremal_X, mr.linalg.psd_check

        def traced_X(*args, **kwargs):
            inside.append(True)
            try:
                return extremal_X(*args, **kwargs)
            finally:
                inside.pop()

        def traced_check(H, tol=None):
            checked.append((bool(inside), H.copy()))
            return psd_check(H, tol)

        monkeypatch.setattr(mr.ando, "_extremal_X", traced_X)
        monkeypatch.setattr(mr.ando, "psd_check", traced_check)
        monkeypatch.setattr(mr.cpmaps, "psd_check", traced_check)
        phi = mr.ucp_from_e21(random_with_radius(d, 0.4, split(53, d)))
        swap = np.roll(np.arange(2 * d), d)
        block = mr.choi(phi).block[np.ix_(swap, swap)]
        assert len(checked) == 1
        assert checked[0][0] and np.array_equal(checked[0][1], block)

    def test_non_psd_block_raises(self, monkeypatch):
        # the witness map relies on that one check: when it fails, no map
        # is built
        monkeypatch.setattr(mr.ando, "psd_check", lambda H, tol=None: (False, -1.0))
        with pytest.raises(NoConvergence, match="limit violates the defining LMI"):
            mr.ucp_from_e21(random_with_radius(3, 0.4, split(53, 3)))


class TestWitnessAtRoundingLevel:
    """Every cyclic-reduction run takes its polishing step, so an interior
    E21 witness is PSD to rounding level, not to the stop's 1e-12."""

    @pytest.mark.parametrize("w", [0.2, 0.45])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_witness_blocks_are_psd(self, n, w):
        for seed in range(4):
            T = random_with_radius(n, w, split(101 + n, seed))
            bound = -1e-14 * (1.0 + mr.op_norm(T))
            ok, A = mr.radius_lmi(T)
            assert ok
            block = np.block([[A, np.conj(T).T], [T, np.eye(n) - A]])
            assert np.linalg.eigvalsh(block)[0] >= bound
            assert np.linalg.eigvalsh(mr.choi(mr.ucp_from_e21(T)).block)[0] >= bound


class TestAdjointXIsTheE21Witness:
    """Ando's X of T* is the E21 witness of T/2: ando_decompose's Xstar and
    radius_lmi's A come from the one solve of the adjoint problem."""

    @pytest.mark.parametrize("w", [0.3, 0.9, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_xstar_is_the_halved_lmi_witness(self, w, d):
        T = random_with_radius(d, w, split(67, 10 * d))
        ok, A = mr.radius_lmi(T / 2.0)
        assert ok and np.array_equal(mr.ando_decompose(T).Xstar, A)
        # T* attains its radius at the negated angles: at w = 1 a shift from
        # the wrong ones would fall back to the plain run, 4e-7 above X(T*)
        np.testing.assert_allclose(A, mr.ando_X(np.conj(T).T)[0], rtol=0, atol=1e-12)
        phi = mr.ucp_from_e21(T / 2.0)
        assert np.array_equal(phi.value(1, 1), A)
        assert np.array_equal(mr.member_e21(T / 2.0).witness.values, phi.values)

    def test_doubling_keeps_the_radius_and_its_maxima(self):
        # num_radius scales its input by a power of two first, so doubling T
        # doubles the radius exactly and keeps the angles where it is attained
        for d in (2, 3, 6):
            T = random_with_radius(d, 1.0, split(61, d))
            w, w2 = mr.num_radius(T), mr.num_radius(2.0 * T)
            assert 2.0 * w == w2 and np.array_equal(w.maxima, w2.maxima)

    @pytest.fixture
    def solved(self, count_calls):
        """The arguments of each _extremal_X call, in call order."""
        return count_calls(mr.ando, "_extremal_X")

    @pytest.mark.parametrize("call, solves", [
        (mr.radius_lmi, 1), (mr.ucp_from_e21, 1), (mr.member_e21, 1), (mr.ando_decompose, 2)])
    @pytest.mark.parametrize("w", [0.4, 1.0])
    def test_one_extremal_solve_per_problem(self, call, solves, w, solved):
        T = random_with_radius(3, w, split(71, 3))
        call(T / 2.0 if call is not mr.ando_decompose else T)
        assert len(solved) == solves
        # the E21 solve and the decomposition's second one are on the adjoint
        assert np.array_equal(solved[-1][0], np.conj(T).T)

    def test_large_radius_is_refused_by_every_e21_entry_point(self, solved):
        T = random_with_radius(3, 0.6, split(73, 3))
        assert mr.radius_lmi(T) == (False, None)
        verdict = mr.member_e21(T)
        assert not verdict.member and verdict.witness is None
        assert verdict.margin == 0.5 - mr.num_radius(T)
        message = f"numerical radius {mr.num_radius(T):.12f} exceeds 1/2"
        with pytest.raises(RadiusTooLarge, match=f"^{re.escape(message)}$"):
            mr.ucp_from_e21(T)
        assert len(solved) == 3
