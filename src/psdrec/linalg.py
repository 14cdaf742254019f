"""Hermitian linear algebra kernel.

Exact Euclidean projections onto the constraint sets used by the models: the
unit simplex, the spectrahedron (density matrices), the operator interval
0 <= E <= I, and the POVM set.

All functions are pure. Matrices may be real symmetric or complex Hermitian;
the dtype of the input is preserved. Functions documented as batched accept
arbitrary leading axes over the last two matrix axes.

The spectral projections and `min_eigvalsh` take the closed-form eigenvalues
m -+ r of a 2 x 2 Hermitian matrix (its Bloch form) at D = 2, and batched
LAPACK eigh or eigvalsh at any other D.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceFailure, InvalidInput

__all__ = [
    "hermitianize",
    "project_to_simplex",
    "project_to_simplex_rows",
    "project_to_spectrahedron",
    "project_to_effect",
    "project_to_binary_povm",
    "project_to_povm",
    "min_eigvalsh",
    "trace_inner",
]

# Relative tolerance for accepting an input matrix as Hermitian.
HERMITIAN_ATOL = 1e-8

_POVM_TOL = 1e-8
_POVM_MAX_ROUNDS = 500


def hermitianize(a):
    """Return (A + A^dagger) / 2 along the last two axes.

    Applied after arithmetic updates to suppress Hermitian drift.
    """
    a = np.asarray(a)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def _as_square(a, op):
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidInput(f"{op}: expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{op}: non-finite entries")
    return a


def _require_hermitian(a, op):
    dev = float(np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2)))))
    scale = max(1.0, float(np.max(np.abs(a))))
    if dev > HERMITIAN_ATOL * scale:
        raise InvalidInput(f"{op}: matrix is not Hermitian (deviation {dev:.3e})")
    return hermitianize(a)


def project_to_simplex(v):
    """Euclidean projection of a real vector onto the unit simplex.

    Sort-and-threshold algorithm; exact and idempotent.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInput(f"project_to_simplex: expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("project_to_simplex: non-finite entries")
    return project_to_simplex_rows(v[None, :])[0]


def project_to_simplex_rows(v):
    """Simplex projection along the last axis of a real array."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    u = -np.sort(-v, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    k = np.arange(1, d + 1)
    # The active-set condition u_k - css_k / k > 0 holds on a prefix.
    rho = np.count_nonzero(u * k > css, axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


def _recompose(w, v):
    """Rebuild sum_k w_k v_k v_k^dagger from a (batched) eigensystem."""
    return hermitianize((v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2)))


def _bloch(a):
    """Bloch parts of the Hermitian part [[p, b], [conj(b), q]] of each 2 x 2
    matrix along the last two axes: m = (p + q) / 2, h = (p - q) / 2, b, and
    r = sqrt(h^2 + |b|^2). The eigenvalues are m - r and m + r."""
    p = a[..., 0, 0].real
    q = a[..., 1, 1].real
    b = 0.5 * (a[..., 0, 1] + np.conj(a[..., 1, 0]))
    h = 0.5 * (p - q)
    return 0.5 * (p + q), h, b, np.hypot(h, np.abs(b))


def _spectral_map(a, f):
    """Apply f to the eigenvalues of each Hermitian matrix along the last two axes.

    D = 2 takes the closed form of `_bloch`: f maps the eigenvalues m -+ r to
    w0, w1, and the result is (w0 + w1)/2 I + (w1 - w0)/(2r) (A - m I), the
    second term dropped where r = 0. Larger D goes through batched LAPACK eigh.
    """
    if a.shape[-1] != 2:
        w, v = np.linalg.eigh(a)
        return _recompose(f(w), v)
    m, h, b, r = _bloch(a)
    w = f(np.stack([m - r, m + r], axis=-1))
    mean = 0.5 * (w[..., 0] + w[..., 1])
    scale = np.divide(0.5 * (w[..., 1] - w[..., 0]), r, out=np.zeros_like(r), where=r > 0)
    out = np.empty_like(a)
    out[..., 0, 0] = mean + scale * h
    out[..., 1, 1] = mean - scale * h
    out[..., 0, 1] = scale * b
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    return out


def min_eigvalsh(a):
    """Smallest eigenvalue of each Hermitian matrix along the last two axes.

    m - r from `_bloch` at D = 2, batched LAPACK eigvalsh otherwise. Unchecked,
    like `hermitianize`: the model checks call it on stacks whose NaN entries
    their Hermitian check reports.
    """
    a = np.asarray(a)
    if a.shape[-1] == 2:
        m, _, _, r = _bloch(a)
        return m - r
    return np.linalg.eigvalsh(a)[..., 0]


def project_to_spectrahedron(a):
    """Frobenius-nearest density matrix: psd with unit trace. Batched.

    Eigendecompose, project the eigenvalue vector onto the simplex, recompose.
    This is the exact Euclidean projection; idempotent.
    """
    a = _as_square(a, "project_to_spectrahedron")
    return _spectral_map(_require_hermitian(a, "project_to_spectrahedron"), project_to_simplex_rows)


def project_to_effect(a):
    """Frobenius-nearest effect, 0 <= E <= I, by clamping eigenvalues. Batched."""
    a = _as_square(a, "project_to_effect")
    return _spectral_map(_require_hermitian(a, "project_to_effect"), lambda w: np.clip(w, 0.0, 1.0))


def project_to_binary_povm(a1, a2):
    """Frobenius-nearest two-outcome POVM (E, I - E) to the pair (a1, a2).

    Minimizing ||E - a1||^2 + ||(I - E) - a2||^2 over 0 <= E <= I has the
    closed form E = clamp((a1 - a2 + I) / 2). Batched.
    """
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    if a1.shape != a2.shape:
        raise InvalidInput(f"project_to_binary_povm: shape mismatch {a1.shape} vs {a2.shape}")
    _as_square(a1, "project_to_binary_povm")
    eye = np.eye(a1.shape[-1])
    e = project_to_effect(hermitianize((a1 - a2 + eye) / 2.0))
    return e, eye - e


def _psd_part(a):
    """Clamp eigenvalues at zero along the last two axes."""
    return _spectral_map(a, lambda w: np.maximum(w, 0.0))


def project_to_povm(es):
    """Project a tuple of Hermitian matrices onto the POVM set by Dykstra.

    Alternates between the product of psd cones and the affine set of tuples
    summing to the identity, with Dykstra correction terms, so the iterates
    converge to the Euclidean-nearest POVM. A valid POVM is returned unchanged
    within tolerance. Deterministic.

    Stops once the psd violation and the gap between the two sets' iterates
    are at most _POVM_TOL (1e-8). Raises ConvergenceFailure carrying the last
    residual if _POVM_MAX_ROUNDS (500) rounds do not get there.
    """
    try:
        e = np.stack([np.asarray(x) for x in es])
    except ValueError as exc:
        raise InvalidInput(f"project_to_povm: mismatched shapes: {exc}") from None
    if e.shape[0] < 2:
        raise InvalidInput("project_to_povm: need at least two outcomes")
    e = _as_square(e, "project_to_povm")
    if e.ndim != 3:
        raise InvalidInput(f"project_to_povm: expected a tuple of matrices, got shape {e.shape}")
    z, d = e.shape[0], e.shape[-1]
    e = hermitianize(e.astype(np.result_type(e.dtype, float)))

    eye = np.eye(d, dtype=e.dtype)
    x = e.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    residual = np.inf
    for _ in range(_POVM_MAX_ROUNDS):
        y = _psd_part(x + p)
        p = x + p - y
        t = y + q
        x = t - (np.sum(t, axis=0) - eye) / z
        q = t - x
        # x sums to the identity exactly; check psd violation and the gap
        # between the two sets' iterates.
        wmin = float(np.min(min_eigvalsh(x)))
        gap = float(np.max(np.abs(x - y)))
        residual = max(0.0, -wmin, gap)
        if residual <= _POVM_TOL:
            return tuple(hermitianize(x))
    raise ConvergenceFailure(
        f"project_to_povm: residual {residual:.3e} after {_POVM_MAX_ROUNDS} rounds",
        residual=residual,
    )


def trace_inner(a, b):
    """tr(A^dagger B) = sum over j, k of conj(A_jk) B_jk.

    Real for Hermitian pairs; any imaginary residue is discarded.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"trace_inner: dimension mismatch {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInput("trace_inner: non-finite entries")
    return float(np.real(np.sum(np.conj(a) * b)))
