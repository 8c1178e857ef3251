"""Symmetric eigensolver, functional calculus, and operator Jensen checks."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from hconvexlab import (
    ConvergenceError, DimensionMismatch, Interval, SpectrumDomainError,
    interval, opcalc,
)
from hconvexlab.convexity import JensenCoefficient
from hconvexlab.funclib import Refusals, evaluate_array, scalar_function
from hconvexlab.opcalc import (
    DIM_CAP, JENSEN_MODES, Spectra, SymmetricMatrix, UnitVector, _calculus,
    apply_function, jensen_verify, quadratic_form, spectral_decompose,
    spectrum_in,
)

NEGLOG = scalar_function("neglog")
EXPW = scalar_function("exp_weight", alpha=2.0, beta=2.16)
SQUARE = scalar_function("square")

PINNED_A = SymmetricMatrix.diagonal([0.64, 0.8])
PINNED_X = UnitVector([0.7071067811865476, 0.7071067811865476])


def _random_symmetric(rng, dim, spectrum_lo=-2.0, spectrum_hi=2.0):
    """Random symmetric matrix with a controlled spectrum (QR rotation)."""
    lam = rng.uniform(spectrum_lo, spectrum_hi, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * lam) @ q.T
    return SymmetricMatrix(0.5 * (a + a.T))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricMatrix([[1.0, 2.0], [0.5, 1.0]])
    # sub-tolerance asymmetry is mirrored away
    eps = 1e-14
    A = SymmetricMatrix([[1.0, 2.0], [2.0 + eps, 1.0]])
    assert A.entries[0, 1] == A.entries[1, 0]


def test_symmetric_matrix_shape_and_cap():
    with pytest.raises(ValueError):
        SymmetricMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        SymmetricMatrix.diagonal(np.ones(DIM_CAP + 1))
    assert SymmetricMatrix.diagonal(np.ones(DIM_CAP)).dim == DIM_CAP


def test_unit_vector_renormalizes():
    x = UnitVector([3.0, 4.0])
    assert x.renormalized
    assert math.isclose(float(np.dot(x.components, x.components)), 1.0,
                        rel_tol=1e-15)
    e1 = UnitVector([1.0, 0.0])
    assert not e1.renormalized
    with pytest.raises(ValueError):
        UnitVector([0.0, 0.0])


def test_unit_vector_refuses_a_norm_that_overflowed():
    # the sum of squares overflows: dividing by an infinite norm would keep
    # the zero vector as a unit vector
    for x in ([1e308, 1e308], [1e200, 1.0], [-1e155, 1e155, 0.0]):
        with pytest.raises(ValueError, match="norm inf"):
            UnitVector(x)
    assert UnitVector([1e150, 1e150]).components.tolist() \
        == [0.7071067811865476, 0.7071067811865476]


# ---------------------------------------------------------------------------
# Eigensolver vs the numpy oracle
# ---------------------------------------------------------------------------

def test_two_by_two_exact_spectrum():
    A = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
    dec = spectral_decompose(A)
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)
    assert np.allclose(dec.reconstruct(), A.entries, atol=1e-14)


def test_diagonal_matrix_is_its_own_decomposition():
    A = SymmetricMatrix.diagonal([3.0, -1.0, 0.5])
    dec = spectral_decompose(A)
    assert np.allclose(dec.eigenvalues, [-1.0, 0.5, 3.0], atol=0.0)
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_diagonal_path_matches_the_dense_path_bit_for_bit():
    # Spectra.of reads a diagonal matrix's spectrum off instead of running
    # Jacobi, whichever constructor built it; Jacobi's route is the
    # reference
    rng = np.random.default_rng(3)
    f = scalar_function("neglog")
    for _ in range(50):
        values = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 9)))
        values[rng.integers(values.size)] = values[0]  # ties keep order
        fast, dense = (SymmetricMatrix.diagonal(values),
                       SymmetricMatrix(np.diag(values)))
        assert np.array_equal(fast.entries, dense.entries)
        got, want = fast.decomposition(), spectral_decompose(dense)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
        assert np.array_equal(apply_function(f, fast).entries,
                              apply_function(f, dense).entries)
        x = UnitVector(rng.standard_normal(values.size))
        xv, lo, hi = x.components, want.eigenvalues[0], want.eigenvalues[-1]
        fa = _calculus(want.eigenvectors, evaluate_array(f, want.eigenvalues))
        for A in (fast, dense):
            s = Spectra.of(A, x)
            assert s.qf[0] == min(max(float(xv @ A.entries @ xv), lo), hi)
            assert (s.lo[0], s.hi[0]) == (lo, hi)
            assert s.expectation(evaluate_array(f, s.eigs), Refusals(1))[0] \
                == float(xv @ fa @ xv)
    with pytest.raises(ValueError):
        SymmetricMatrix.diagonal([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        SymmetricMatrix.diagonal([1.0, math.inf])


def test_jacobi_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        A = _random_symmetric(rng, dim)
        dec = spectral_decompose(A)
        expected = np.linalg.eigvalsh(A.entries)
        scale = max(1.0, float(np.linalg.norm(A.entries)))
        assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-10 * scale
        # orthogonality and reconstruction
        q = dec.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(dim))) < 1e-12
        assert np.max(np.abs(dec.reconstruct() - A.entries)) < 1e-10 * scale


# sha256 over repr((eigenvalues, eigenvectors)) as Python float lists of the
# 1,000 dense matrices of acceptance criterion 2, drawn in its order from its
# seed.  Pins the bits of the cyclic Jacobi path at dims 2-8 (x86-64,
# numpy 2.4).
CRITERION_2_JACOBI_DIGEST = (
    "33dc02e264b3e9683f528ebd6e780f77cffba00477d75dbc178b59c143252f2f")


def test_jacobi_bits_match_digest_on_criterion_2_matrices():
    rng = np.random.default_rng(20260815 + 1)
    digest = hashlib.sha256()
    for lo, hi in ((-2.0, 2.0), (-2.0, 2.0), (0.0, 2.0), (0.02, 0.98)):
        for _ in range(250):
            dim = int(rng.integers(2, 9))
            A = _random_symmetric(rng, dim, lo, hi)
            rng.standard_normal(dim)  # criterion 2's vector x
            dec = spectral_decompose(A)
            digest.update(repr((dec.eigenvalues.tolist(),
                                dec.eigenvectors.tolist())).encode())
    assert digest.hexdigest() == CRITERION_2_JACOBI_DIGEST


def _repeated_spectrum(rng, dim):
    lam = rng.choice([-1.0, 0.5, 2.0], size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * lam) @ q.T
    return SymmetricMatrix(0.5 * (a + a.T))


def _block_diagonal(rng, dim):
    # stored dense, so Jacobi runs and meets exactly zero pairs to skip
    a = np.zeros((dim, dim))
    k = dim // 2
    a[:k, :k] = _random_symmetric(rng, k).entries
    a[k:, k:] = _random_symmetric(rng, dim - k).entries
    return SymmetricMatrix(a)


def _tiny_off_diagonals(rng, dim):
    # one O(1) pair keeps the first sweep going; the 1e-13 pairs against
    # diagonal gaps >= 1 have |theta| > 1e10
    noise = 1e-13 * rng.standard_normal((dim, dim))
    a = np.diag(np.arange(1.0, dim + 1.0)) + noise + noise.T
    a[0, 1] = a[1, 0] = 0.5
    return SymmetricMatrix(a)


@pytest.mark.parametrize("dim", [9, 16, 33, 64])
@pytest.mark.parametrize("draw", [_random_symmetric, _repeated_spectrum,
                                  _block_diagonal, _tiny_off_diagonals])
def test_round_robin_jacobi_matches_lapack(monkeypatch, dim, draw):
    # with the cyclic path ended at 8, every dim here runs round-robin
    monkeypatch.setattr(opcalc, "_CYCLIC_MAX_DIM", 8)
    A = draw(np.random.default_rng(dim), dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = spectral_decompose(A)
    scale = max(1.0, float(np.linalg.norm(A.entries)))
    expected = np.linalg.eigvalsh(A.entries)
    assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-10 * scale
    q = dec.eigenvectors
    assert np.max(np.abs(q.T @ q - np.eye(dim))) < 1e-12
    assert np.max(np.abs(dec.reconstruct() - A.entries)) < 1e-10 * scale


@pytest.mark.parametrize("dim", [6, 20])  # cyclic and round-robin paths
def test_sweep_cap_counts_full_sweeps(monkeypatch, dim):
    monkeypatch.setattr(opcalc, "JACOBI_MAX_SWEEPS", 1)
    A = _random_symmetric(np.random.default_rng(dim), dim)
    with pytest.raises(ConvergenceError, match="Jacobi sweep cap 1 hit"):
        spectral_decompose(A)
    # a 2x2 matrix is diagonal after its one rotation, within the cap
    dec = spectral_decompose(SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_decomposition_is_cached():
    A = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert A.decomposition() is A.decomposition()


# ---------------------------------------------------------------------------
# Functional calculus
# ---------------------------------------------------------------------------

def test_apply_square_equals_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = _random_symmetric(rng, int(rng.integers(2, 7)))
        fA = apply_function(SQUARE, A)
        assert np.max(np.abs(fA.entries - A.entries @ A.entries)) < 1e-11


def test_apply_function_frozen_example():
    A = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
    fA = apply_function(SQUARE, A)
    assert np.allclose(fA.entries, [[5.0, 4.0], [4.0, 5.0]], atol=1e-12)


def test_apply_affine_matches_direct_formula():
    rng = np.random.default_rng(11)
    aff = scalar_function("affine", intercept=2.0, slope=-3.0)
    A = _random_symmetric(rng, 4)
    fA = apply_function(aff, A)
    direct = 2.0 * np.eye(4) - 3.0 * A.entries
    assert np.max(np.abs(fA.entries - direct)) < 1e-12


def test_apply_function_rejects_spectrum_outside_domain():
    A = SymmetricMatrix.diagonal([0.5, -0.25])
    with pytest.raises(SpectrumDomainError) as exc:
        apply_function(NEGLOG, A)
    assert -0.25 in exc.value.offending


def test_a_finite_f_of_a_near_the_overflow_threshold_is_kept():
    # Q f(L) Q^T + its transpose overflows past 8.99e307; each half is added
    # where the sum overflows, so f(A) stays finite and no warning escapes
    A = SymmetricMatrix([[1e308, 1e-3], [1e-3, 1.0]])
    verdict = jensen_verify(scalar_function("abs"), None, A,
                            UnitVector([0.6, 0.8]), "classical")
    assert math.isfinite(verdict.margin) and math.isfinite(verdict.rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fa = apply_function(scalar_function("abs"), A).entries
    assert np.isfinite(fa).all() and fa[0, 0] == 1e308


def test_spectrum_slack_pulls_roundoff_onto_closed_endpoints():
    # an eigenvalue a hair above a closed endpoint still counts as inside
    A = SymmetricMatrix.diagonal([1.0 + 1e-13, 0.5])
    ok, offenders = spectrum_in(A, Interval(0.0, 1.0))
    assert ok and offenders == ()
    bad = SymmetricMatrix.diagonal([1.0 + 1e-9, 0.5])
    ok, offenders = spectrum_in(bad, Interval(0.0, 1.0))
    assert not ok and len(offenders) == 1


def test_quadratic_form_and_dimension_mismatch():
    qf = quadratic_form(PINNED_A, PINNED_X)
    assert abs(qf - 0.72) < 1e-15
    with pytest.raises(DimensionMismatch):
        quadratic_form(PINNED_A, UnitVector([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Jensen comparisons
# ---------------------------------------------------------------------------

def test_modes_tuple():
    assert JENSEN_MODES == ("classical", "per-lambda", "infimum", "half-bound")
    with pytest.raises(ValueError):
        jensen_verify(SQUARE, None, PINNED_A, PINNED_X, "no-such-mode")


def test_classical_margin_nonnegative_for_convex_fixtures():
    rng = np.random.default_rng(123)
    fixtures = [
        (SQUARE, (-2.0, 2.0)),
        (scalar_function("exp"), (-2.0, 2.0)),
        (scalar_function("expdecay"), (0.0, 2.0)),
        (NEGLOG, (0.05, 0.95)),
    ]
    for _ in range(80):
        dim = int(rng.integers(2, 9))
        for f, (lo, hi) in fixtures:
            A = _random_symmetric(rng, dim, lo, hi)
            x = UnitVector(rng.standard_normal(dim))
            verdict = jensen_verify(f, None, A, x, "classical")
            assert verdict.margin >= -1e-10, (f.family, verdict.margin)
            assert verdict.rhs_factor == 1.0


def test_classical_mode_equality_for_affine():
    rng = np.random.default_rng(5)
    aff = scalar_function("affine", intercept=1.0, slope=2.0)
    A = _random_symmetric(rng, 5)
    x = UnitVector(rng.standard_normal(5))
    verdict = jensen_verify(aff, None, A, x, "classical")
    assert abs(verdict.margin) < 1e-12


def test_per_lambda_frozen_margins():
    v9 = jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "per-lambda", lam=0.9)
    assert v9.margin == 0.04828287040861601
    assert v9.rhs_factor == 1.1256937075156486
    v99 = jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "per-lambda",
                        lam=0.99)
    assert v99.margin == -0.01233733886115379
    # the tempered bound crosses sign between these two weights
    assert v9.margin > 0.0 > v99.margin


def test_per_lambda_requires_lam():
    with pytest.raises(ValueError):
        jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "per-lambda")


def test_infimum_mode_with_explicit_coefficient():
    co = JensenCoefficient(2.0 / 2.16, None, True)
    verdict = jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "infimum",
                            coefficient=co)
    assert verdict.margin == -0.018582467924522228
    assert verdict.rhs_factor == 2.0 / 2.16
    # without a supplied coefficient the grid infimum lands within 2e-9
    auto = jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "infimum")
    assert abs(auto.margin - verdict.margin) < 2e-9


def test_half_bound_frozen_margin():
    verdict = jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "half-bound")
    assert verdict.rhs_factor == 2.3778248457180395  # 2 h(1/2)
    assert verdict.margin == 0.4673903537429937
    assert verdict.margin > 0.0


def test_modes_needing_weight_reject_missing_h():
    for mode in ("per-lambda", "infimum", "half-bound"):
        with pytest.raises(ValueError):
            jensen_verify(NEGLOG, None, PINNED_A, PINNED_X, mode, lam=0.5)


def test_jensen_verdict_serializes():
    verdict = jensen_verify(NEGLOG, EXPW, PINNED_A, PINNED_X, "half-bound")
    d = verdict.to_json()
    assert d["mode"] == "half-bound"
    assert d["margin"] == verdict.margin
    assert set(d) >= {"lhs", "rhs", "rhs_factor", "margin", "expectation"}
