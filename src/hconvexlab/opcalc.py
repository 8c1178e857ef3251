"""Real symmetric operator calculus on small dense matrices.

Spectral decomposition is a hand-rolled Jacobi solver (dimension is capped
at 64, where Jacobi's orthogonality guarantees beat any speed argument).
Up to dimension 14 it runs cyclic sweeps on Python lists, one rotation at a
time in row-major (p, r) order; above it, round-robin sweeps apply n // 2
disjoint rotations per numpy step, the parallel ordering of Brent and Luk
(SIAM J. Sci. Stat. Comput. 6(1), 1985).  The cutover is where the two
measured per-call times cross.  A matrix built with
SymmetricMatrix.diagonal needs no sweep: its spectrum is its diagonal, and
f(A) is again diagonal.  On top of the decomposition sit the functional
calculus f(A) = Q f(L) Q^T, quadratic forms <Ax, x>, spectrum containment
checks, and the operator Jensen verifiers

    classical    f(<Ax,x>) <= <f(A)x,x>
    per-lambda   f(<Ax,x>) <= (h(lam)/lam) <f(A)x,x>
    infimum      f(<Ax,x>) <= M_(0,1)(h) <f(A)x,x>
    half-bound   f(<Ax,x>) <= 2 h(1/2) <f(A)x,x>

A verifier never raises on a negative margin: the signed margin is the
result, and falsification treats violations as data.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convexity import jcoeff
from .errors import (
    ConvergenceError, DimensionMismatch, SpectrumDomainError,
)
from .funclib import (
    Interval, ScalarFunction, _one_row, core_array, evaluate, evaluate_array,
)

logger = logging.getLogger(__name__)

DIM_CAP = 64
JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-12
SPECTRUM_SLACK = 1e-12

JENSEN_MODES = ("classical", "per-lambda", "infimum", "half-bound")


# ---------------------------------------------------------------------------
# Matrices and vectors
# ---------------------------------------------------------------------------

class SymmetricMatrix:
    """Dense real symmetric matrix; one triangle is authoritative.

    Construction mirrors the lower triangle, so entries[i][j] == entries[j][i]
    holds exactly afterwards.  Input asymmetry beyond 1e-12*(1+max|a|) is
    rejected rather than silently repaired.
    """

    __slots__ = ("_a", "_decomp", "_diagonal")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        _check_size_and_values(a)
        scale = 1.0 + float(np.abs(a).max(initial=0.0))
        asym = float(np.abs(a - a.T).max(initial=0.0))
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
        lower = np.tril(a)
        self._init(lower + np.tril(a, -1).T, diagonal=False)

    def _init(self, a: np.ndarray, diagonal: bool) -> None:
        a.flags.writeable = False
        self._a = a
        self._decomp = None
        self._diagonal = diagonal

    @classmethod
    def diagonal(cls, values) -> "SymmetricMatrix":
        """diag(values), whose decomposition is read off without Jacobi.

        The entries equal those of SymmetricMatrix(np.diag(values)); adding
        0.0 turns a -0.0 value into +0.0 as that constructor's mirroring
        does.
        """
        d = np.array(values, dtype=float)
        if d.ndim != 1:
            raise ValueError(f"expected a vector of diagonal values, got "
                             f"shape {d.shape}")
        _check_size(d.shape[0])
        (d,) = _one_row(lambda refuse: diagonal_rows(d[None, :], refuse))
        out = cls.__new__(cls)
        out._init(np.diag(d), diagonal=True)
        return out

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._a

    @property
    def is_diagonal(self) -> bool:
        """Built by :meth:`diagonal`; dense input is never inspected."""
        return self._diagonal

    def decomposition(self) -> "SpectralDecomposition":
        if self._decomp is None:
            self._decomp = _diagonal_decomposition(self._a) \
                if self._diagonal else spectral_decompose(self)
        return self._decomp

    def __repr__(self):
        return f"SymmetricMatrix(dim={self.dim})"


def diagonal_rows(d: np.ndarray, refuse) -> np.ndarray:
    """SymmetricMatrix.diagonal's rule over rows of diagonal values,
    refusing the rows with an entry that is not finite.  Adding 0.0 turns a
    -0.0 value into +0.0, as the dense constructor's mirroring does."""
    refuse(~np.isfinite(d).all(-1), _not_finite)
    return d + 0.0


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    if n > DIM_CAP:
        raise ValueError(f"dimension {n} exceeds cap {DIM_CAP}")


def _check_size_and_values(a: np.ndarray) -> None:
    _check_size(a.shape[0])
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvectors are the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


class UnitVector:
    """Euclidean unit vector; non-unit input is normalized (and noted)."""

    __slots__ = ("_x", "renormalized")

    def __init__(self, components):
        x = np.array(components, dtype=float).ravel()
        if x.size < 1:
            raise ValueError("vector must have at least one component")
        with np.errstate(all="ignore"):  # an overflowed norm is refused
            norm = float(np.linalg.norm(x))
        renormalized, (x,) = _one_row(lambda refuse: unit_rows(
            x[None, :], np.array([norm]), refuse))
        self.renormalized = bool(renormalized[0])
        if self.renormalized:
            logger.debug("renormalizing input vector (norm deviation %.3e)",
                         norm - 1.0)
        x.flags.writeable = False
        self._x = x

    @property
    def dim(self) -> int:
        return self._x.size

    @property
    def components(self) -> np.ndarray:
        return self._x


def unit_rows(x: np.ndarray, norm: np.ndarray, refuse):
    """UnitVector's rule over rows of x, given each row's Euclidean norm:
    (renormalized, rows).  The rows it refuses are refused with its errors:
    entries not finite, a norm not finite (it overflows past about 1.3e154
    per entry) or zero.  A row is divided by its norm when that lies more
    than 1e-12 from 1."""
    refuse(~np.isfinite(x).all(1), lambda j: ValueError(
        "vector components must be finite"))
    refuse(~(np.isfinite(norm) & (norm != 0.0)), lambda j: ValueError(
        f"cannot normalize a vector of norm {float(norm[j])}"))
    renormalized = np.abs(norm - 1.0) > 1e-12
    with np.errstate(all="ignore"):
        return renormalized, np.where(renormalized[:, None],
                                      x / norm[:, None], x)


# ---------------------------------------------------------------------------
# Jacobi eigensolver
# ---------------------------------------------------------------------------

# Largest dimension that runs cyclic sweeps on Python lists.  Per call on
# x86-64 (CPython 3.11, numpy 2.4), the list sweeps take 0.3-0.8x the time
# of the round-robin numpy sweeps at dims 8-13, 0.75-1.0x at 14, 1.1-1.5x
# at 15-16, 3x at 32 and 6x at 64.
_CYCLIC_MAX_DIM = 14


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def spectral_decompose(A: SymmetricMatrix) -> SpectralDecomposition:
    """Jacobi diagonalization, eigenvalues sorted ascending.

    Up to dimension 14, cyclic sweeps rotate one (p, r) pair at a time in
    row-major order on Python lists.  Above it, a sweep is the n - 1 rounds
    (n rounds for odd n) of a round-robin ordering, each applying n // 2
    disjoint rotations in one numpy step (Brent and Luk, 1985).  Either
    way, stops when the off-diagonal Frobenius norm drops below
    1e-12 * ||A||_F, or raises ConvergenceError after 100 full sweeps.
    """
    a = np.array(A.entries, dtype=float)
    tol = JACOBI_REL_TOL * float(np.linalg.norm(a))
    jacobi = _cyclic_jacobi if A.dim <= _CYCLIC_MAX_DIM \
        else _round_robin_jacobi
    a, q = jacobi(a, tol)
    eigs = np.diag(a).copy()
    order = np.argsort(eigs, kind="stable")
    return SpectralDecomposition(eigs[order], q[:, order])


def _sweeps(offdiag: Callable[[], float], tol: float):
    """Yield once per sweep to run until ``offdiag()`` is within ``tol``;
    raise ConvergenceError if it is not after JACOBI_MAX_SWEEPS sweeps."""
    for _ in range(JACOBI_MAX_SWEEPS):
        if offdiag() <= tol:
            return
        yield
    off = offdiag()
    if off > tol:
        raise ConvergenceError(
            f"Jacobi sweep cap {JACOBI_MAX_SWEEPS} hit with off-diagonal "
            f"norm {off:g} above tolerance {tol:g}")


@functools.lru_cache(maxsize=None)
def _cyclic_pairs(n: int) -> tuple:
    """(p, r, the other indices) for each pair p < r, in row-major order."""
    return tuple((p, r, tuple(i for i in range(n) if i not in (p, r)))
                 for p in range(n - 1) for r in range(p + 1, n))


def _cyclic_jacobi(a: np.ndarray, tol: float):
    """Cyclic sweeps on Python lists: (diagonalized a, eigenvector matrix).

    Each rotation applies c*x - s*y and s*x + c*y to columns p, r and then
    to rows p, r, as a numpy column-then-row update would round them.  The
    matrix stays exactly symmetric (SymmetricMatrix mirrors its input, and
    a[i][p], a[p][i] come from equal operands), so each entry outside the
    (p, r) block is computed once and mirrored.
    """
    n = a.shape[0]
    rows, qt = a.tolist(), np.eye(n).tolist()  # qt[k] is column k of Q
    for _ in _sweeps(lambda: _offdiag_norm(np.array(rows)), tol):
        for p, r, others in _cyclic_pairs(n):
            ap, ar = rows[p], rows[r]
            apr = ap[r]
            if apr == 0.0:
                continue
            app, arr = ap[p], ar[r]
            theta = (arr - app) / (2.0 * apr)
            if abs(theta) > 1e10:
                t = 1.0 / (2.0 * theta)
            else:
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for i in others:
                row = rows[i]
                x, y = row[p], row[r]
                row[p] = ap[i] = c * x - s * y
                row[r] = ar[i] = s * x + c * y
            bpp, bpr = c * app - s * apr, s * app + c * apr
            brp, brr = c * apr - s * arr, s * apr + c * arr
            ap[p] = c * bpp - s * brp
            ar[r] = s * bpr + c * brr
            ap[r] = ar[p] = 0.0
            qp, qr = qt[p], qt[r]
            qt[p] = [c * x - s * y for x, y in zip(qp, qr)]
            qt[r] = [s * x + c * y for x, y in zip(qp, qr)]
    return np.array(rows), np.array(qt).T


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """One parallel sweep: per round, index arrays (p, r) of disjoint pairs.

    Circle method: index 0 stays, the others rotate one place per round,
    and together the rounds visit every pair once.  For odd n, the pair
    with the phantom index n is the round's bye.
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(ring[k], ring[m - 1 - k]) for k in range(m // 2)]
        p, r = (np.array(side) for side in
                zip(*[pair for pair in pairs if n not in pair]))
        p.flags.writeable = r.flags.writeable = False
        rounds.append((p, r))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return tuple(rounds)


def _round_robin_jacobi(a: np.ndarray, tol: float):
    """Round-robin sweeps in numpy: (diagonalized a, eigenvector matrix).

    t = tan of the rotation angle is the cyclic formula's
    sign(theta) / (|theta| + sqrt(theta^2 + 1)) multiplied through by
    |2 a_pr|; hypot keeps it finite with no branch for large |theta|.
    """
    n = a.shape[0]
    w = np.vstack([a, np.eye(n)])  # column rotations act on A and Q alike
    a = w[:n]
    for _ in _sweeps(lambda: _offdiag_norm(a), tol):
        for p, r in _round_robin(n):
            apr = a[p, r]
            nonzero = apr != 0.0
            if not nonzero.all():
                p, r, apr = p[nonzero], r[nonzero], apr[nonzero]
            d, apr2 = a[r, r] - a[p, p], 2.0 * apr
            t = apr2 * np.copysign(1.0, d) / (np.abs(d) + np.hypot(d, apr2))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            wp, wr = w[:, p], w[:, r]
            w[:, p] = c * wp - s * wr
            w[:, r] = s * wp + c * wr
            c, s = c[:, None], s[:, None]
            ap, ar = a[p], a[r]
            a[p] = c * ap - s * ar
            a[r] = s * ap + c * ar
            a[p, r] = a[r, p] = 0.0
    return a, w[n:]


def _diagonal_decomposition(a: np.ndarray) -> SpectralDecomposition:
    """What spectral_decompose returns for a diagonal matrix, which it
    leaves after zero sweeps: the sorted diagonal and permuted unit vectors."""
    eigs = np.diag(a)
    order = np.argsort(eigs, kind="stable")
    return SpectralDecomposition(eigs[order], np.eye(eigs.size)[:, order])


# ---------------------------------------------------------------------------
# Functional calculus and forms
# ---------------------------------------------------------------------------

def clamped_spectrum(f: ScalarFunction, eigs: np.ndarray):
    """Pull eigenvalues within slack of a closed endpoint onto it.

    eigs may be one spectrum or an array of them.  Returns (clamped
    eigenvalues, which of them lie in f's domain).
    """
    dom = f.domain
    out = eigs.copy()
    if math.isfinite(dom.lo) and not dom.lo_open:
        near = (out < dom.lo) & (out >= dom.lo - SPECTRUM_SLACK)
        out[near] = dom.lo
    if math.isfinite(dom.hi) and not dom.hi_open:
        near = (out > dom.hi) & (out <= dom.hi + SPECTRUM_SLACK)
        out[near] = dom.hi
    return out, dom.contains_array(out)


def spectrum_rows(f: ScalarFunction, eigs: np.ndarray, refuse) -> np.ndarray:
    """clamped_spectrum over rows of eigenvalues, refusing the rows with an
    eigenvalue outside f's domain."""
    eigs, inside = clamped_spectrum(f, eigs)
    refuse(~inside.all(1), lambda j: SpectrumDomainError(
        f"{f.label()}: {int((~inside[j]).sum())} eigenvalue(s) outside "
        f"domain {f.domain}",
        offending=tuple(np.sort(eigs[j][~inside[j]]).tolist())))
    return eigs


def apply_function(f: ScalarFunction, A: SymmetricMatrix) -> SymmetricMatrix:
    """Functional calculus f(A) = Q f(L) Q^T.

    For a diagonal A, Q is a permutation, so Q f(L) Q^T = diag(Q f(L)):
    the same entries as the dense product, without forming it.
    """
    dec = A.decomposition()
    (eigs,) = _one_row(lambda refuse: spectrum_rows(
        f, dec.eigenvalues[None, :], refuse))
    fa = _calculus(A, dec.eigenvectors, evaluate_array(f, eigs))
    return SymmetricMatrix.diagonal(np.diag(fa)) if A.is_diagonal \
        else SymmetricMatrix(fa)


def quadratic_form(A: SymmetricMatrix, x: UnitVector) -> float:
    """<Ax, x> = x^T A x."""
    if A.dim != x.dim:
        raise DimensionMismatch(
            f"matrix dim {A.dim} does not match vector dim {x.dim}")
    xv = x.components
    return float(xv @ A.entries @ xv)


def spectrum_in(A: SymmetricMatrix, I: Interval):
    """(contained, offending eigenvalues); 1e-12 slack at closed endpoints."""
    eigs = A.decomposition().eigenvalues
    bad = eigs[~within_slack(eigs, I.lo, I.hi, I.lo_open, I.hi_open)]
    return bad.size == 0, tuple(float(t) for t in bad)


def within_slack(t, lo, hi, lo_open=False, hi_open=False):
    """Which of t lie between lo and hi, with SPECTRUM_SLACK at a closed
    end; lo and hi may be arrays that broadcast against t."""
    lo_ok = (t > lo) if lo_open else (t >= lo - SPECTRUM_SLACK)
    hi_ok = (t < hi) if hi_open else (t <= hi + SPECTRUM_SLACK)
    return lo_ok & hi_ok


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x_k . y_k by the BLAS dot of each pair, so each equals
    float(x_k @ y_k); x @ diag(d) @ x is _dots(x * d, x)."""
    return np.matmul(x[:, None, :], y[:, :, None]).ravel()


def _clamp_rows(t, lo, hi):
    """min(max(t, lo), hi) of each row, as Python's min and max pick."""
    t = np.where(lo > t, lo, t)
    return np.where(hi < t, hi, t)


def _not_finite(j) -> ValueError:
    return ValueError("matrix entries must be finite")


def _calculus(A: SymmetricMatrix, q: np.ndarray, values: np.ndarray):
    """The entries of f(A), as SymmetricMatrix holds them, from f at A's
    ascending eigenvalues and their eigenvectors q: Q f(L) Q^T symmetrised,
    or, Q being a permutation for a diagonal A, diag(Q f(L))."""
    if A.is_diagonal:
        return np.diag(q @ values + 0.0)
    mat = (q * values) @ q.T
    return (mat + mat.T) / 2.0 + 0.0


class Spectra:
    """The spectral step of the operator Jensen kernel and the Hoelder-
    McCarthy chain, over rows of symmetric A and unit x: each row's
    eigenvalues ``eigs``, their ends ``lo`` and ``hi``, and ``qf`` =
    <Ax,x> clamped to [lo, hi]; ``expectation(values, refuse)`` is
    <f(A)x,x> from f at ``eigs``, refusing the rows whose f(A) is not
    finite.  Diagonal rows stay arrays; a dense matrix is a row of its own.
    """

    def __init__(self, eigs, lo, hi, qf, expectation: Callable):
        self.eigs, self.lo, self.hi = eigs, lo, hi
        self.qf, self.expectation = _clamp_rows(qf, lo, hi), expectation

    @classmethod
    def diagonal(cls, d: np.ndarray, x: np.ndarray, refuse) -> "Spectra":
        """Rows diag(d_k) and x_k of (rows, n) arrays, the eigenvalues in
        d's order; the rows SymmetricMatrix.diagonal or UnitVector refuses
        are refused with its errors."""
        d = diagonal_rows(d, refuse)
        with np.errstate(all="ignore"):
            norm = np.sqrt(_dots(x, x))  # np.linalg.norm of each row
            _, x = unit_rows(x, norm, refuse)

            def expectation(values, refuse):
                fd = values + 0.0  # the diagonal of f(A)
                refuse(~np.isfinite(fd).all(1), _not_finite)
                return _dots(x * fd, x)
            return cls(d, d.min(1), d.max(1), _dots(x * d, x), expectation)

    @classmethod
    def of(cls, A: SymmetricMatrix, x: UnitVector) -> "Spectra":
        """One matrix and vector, raising as quadratic_form and the
        decomposition raise; the eigenvalues ascend."""
        with np.errstate(all="ignore"):  # overflow reads inf, as in Python
            qf = quadratic_form(A, x)
            dec = A.decomposition()

        def expectation(values, refuse):  # its callers ignore fp errors
            fa = _calculus(A, dec.eigenvectors, values[0])
            refuse(np.array([not np.isfinite(fa).all()]), _not_finite)
            return np.array([float(x.components @ fa @ x.components)])
        eigs = dec.eigenvalues
        return cls(eigs[None, :], eigs[:1], eigs[-1:], np.array([qf]),
                   expectation)


# ---------------------------------------------------------------------------
# Operator Jensen verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenVerdict:
    """One signed comparison f(<Ax,x>) vs factor * <f(A)x,x>.

    margin = rhs - lhs; its sign is the finding, never an error.
    """

    lhs: float
    rhs_factor: float
    rhs: float
    margin: float
    mode: str
    lam: float | None = None
    expectation: float | None = None  # <f(A)x,x>

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs_factor": self.rhs_factor,
                "rhs": self.rhs, "margin": self.margin, "mode": self.mode,
                "lambda": self.lam, "expectation": self.expectation}


def jensen_factor(mode: str, h: ScalarFunction | None, lam, ev, num,
                  infimum: Callable):
    """The factor of <f(A)x,x> in ``mode`` in the number type ``num`` of an
    arithmetic whose ``ev(h, t)`` evaluates h; ``infimum()`` is M_(0,1)(h).
    lam may be an array of rows, whose factors are then an array."""
    if mode not in JENSEN_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {JENSEN_MODES}")
    if mode != "classical" and h is None:
        raise ValueError(f"mode {mode!r} requires a weight function h")
    if mode == "classical":
        return num(1)
    if mode == "per-lambda":
        if lam is None or not np.all((0.0 < lam) & (lam < 1.0)):
            raise ValueError(f"per-lambda mode requires lambda in (0,1), got {lam!r}")
        return ev(h, lam) / num(lam)
    if mode == "infimum":
        return num(infimum())
    return 2 * ev(h, num(0.5))  # half-bound


def jensen_verify(f: ScalarFunction, h: ScalarFunction | None,
                  A: SymmetricMatrix, x: UnitVector, mode: str,
                  lam: float | None = None,
                  coefficient=None) -> JensenVerdict:
    """Evaluate one operator Jensen comparison in the requested mode: the
    kernel jensen_rows on a block of one.

    ``coefficient`` may carry a precomputed JensenCoefficient for the
    infimum mode; otherwise M_(0,1)(h) is computed here.
    """
    factor = jensen_factor(mode, h, lam, evaluate, float, lambda: (
        coefficient or jcoeff(h, Interval(0.0, 1.0, True, True))).value)
    lhs, rhs, expectation = _one_row(
        lambda refuse: jensen_rows(f, Spectra.of(A, x), factor, refuse))
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return JensenVerdict(lhs, factor, rhs, rhs - lhs, mode,
                         lam if mode == "per-lambda" else None,
                         float(expectation[0]))


def jensen_rows(f: ScalarFunction, spectra: "Spectra", factor, refuse):
    """The operator Jensen kernel over rows: (lhs, rhs, expectation) with
    lhs = f(<Ax,x>), expectation = <f(A)x,x> and rhs = factor *
    expectation, each an array over the rows; the margin is rhs - lhs.
    ``factor`` is a number or an array over the rows (jensen_factor's).
    The rows jensen_verify refuses are refused by refuse(mask, error) with
    its errors, in its order, and read nan or what the arithmetic gives."""
    with np.errstate(all="ignore"):
        eigs = spectrum_rows(f, spectra.eigs, refuse)
        expectation = spectra.expectation(
            core_array(f.family, f.params, eigs), refuse)
        qf, inside = clamped_spectrum(f, spectra.qf)
        refuse(~inside, lambda j: SpectrumDomainError(
            f"{f.label()}: <Ax,x>={float(spectra.qf[j])!r} outside domain "
            f"{f.domain}", offending=(float(spectra.qf[j]),)))
        lhs = core_array(f.family, f.params, qf)
        return lhs, factor * expectation, expectation
