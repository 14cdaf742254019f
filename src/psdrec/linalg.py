"""Hermitian linear algebra kernel.

Exact Euclidean projections onto the constraint sets used by the models: the
unit simplex, the spectrahedron (density matrices), the operator interval
0 <= E <= I, and the POVM set.

All functions are pure. Matrices may be real symmetric or complex Hermitian;
the dtype of the input is preserved. Functions documented as batched accept
arbitrary leading axes over the last two matrix axes.

The spectral projections wrap one unchecked kernel on real coordinate rows
(`to_coords`). It and `min_eigvalsh` take the closed-form eigenvalues m -+ r
at D = 2, and batched LAPACK eigh or eigvalsh at any other D.
`project_to_povm` solves its dual by semismooth Newton on LAPACK eigh.
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
    "to_coords",
    "from_coords",
    "spectral_coords",
]

# Relative tolerance for accepting an input matrix as Hermitian.
HERMITIAN_ATOL = 1e-8

_POVM_MAX_ROUNDS = 200

_SQRT2 = np.sqrt(2.0)


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


def to_coords(a):
    """Real coordinates of Hermitian matrices (last two axes) in an orthonormal
    basis: the diagonal, then sqrt(2) Re and, for a complex dtype only,
    sqrt(2) Im of the upper off-diagonal entries (generalized Bloch
    coordinates; Bertlmann & Krammer, J. Phys. A 41, 2008). So Re tr(A B) is
    the dot product of two rows. Reads the upper triangle only; unchecked."""
    upper = _SQRT2 * a[..., ~np.tri(a.shape[-1], dtype=bool)]
    parts = [np.diagonal(a, axis1=-2, axis2=-1).real, upper.real]
    if np.iscomplexobj(a):
        parts.append(upper.imag)
    return np.concatenate(parts, axis=-1)


def from_coords(x, d, dtype):
    """The D x D matrices of dtype with coordinates x along the last axis,
    exactly Hermitian by construction; inverts `to_coords`. Unchecked."""
    above, n = ~np.tri(d, dtype=bool), d * (d - 1) // 2
    a = np.zeros(x.shape[:-1] + (d, d), dtype)
    a[..., range(d), range(d)] = x[..., :d]
    upper = x[..., d : d + n] / _SQRT2
    if a.dtype.kind == "c":
        upper = upper + 1j * (x[..., d + n :] / _SQRT2)
    a[..., above] = upper
    np.swapaxes(a, -1, -2)[..., above] = np.conj(upper)
    return a


def _two_by_two(x):
    """m, h = (x0 -+ x1) / 2 and r of 2 x 2 coordinate rows: eigenvalues m -+ r."""
    h = 0.5 * (x[..., 0] - x[..., 1])
    return 0.5 * (x[..., 0] + x[..., 1]), h, np.hypot(h, np.sqrt(0.5 * np.sum(x[..., 2:] ** 2, axis=-1)))


def spectral_coords(x, d, f):
    """Coordinates of f applied to the eigenvalues of the D x D Hermitian
    matrices with coordinates x. Unchecked. At D = 2 f maps m -+ r to w0, w1
    and the result is (w0 + w1)/2 I + (w1 - w0)/(2r) (A - m I), the second term
    dropped where r = 0; any other D assembles the matrices for batched LAPACK
    eigh and recomposes sum_k f(w_k) v_k v_k^H."""
    if d == 2:
        m, h, r = _two_by_two(x)
        w = f(np.stack([m - r, m + r], axis=-1))
        mean = 0.5 * (w[..., 0] + w[..., 1])
        scale = np.divide(0.5 * (w[..., 1] - w[..., 0]), r, out=np.zeros_like(r), where=r > 0)
        out = scale[..., None] * x
        out[..., 0] = mean + scale * h
        out[..., 1] = mean - scale * h
        return out
    w, v = np.linalg.eigh(from_coords(x, d, complex if x.shape[-1] > d * (d + 1) // 2 else float))
    return to_coords(np.einsum("...ik,...k,...jk->...ij", v, f(w), np.conj(v)))


def _spectral_map(a, op, f):
    a = _require_hermitian(_as_square(a, op), op)
    return from_coords(spectral_coords(to_coords(a), a.shape[-1], f), a.shape[-1], a.dtype)


def min_eigvalsh(a):
    """Smallest eigenvalue of each Hermitian matrix along the last two axes.

    m - r from the coordinates at D = 2, batched LAPACK eigvalsh otherwise.
    Unchecked, like `hermitianize`: the model checks call it on stacks whose
    NaN entries their Hermitian check reports.
    """
    a = np.asarray(a)
    if a.shape[-1] == 2:
        m, _, r = _two_by_two(to_coords(a))
        return m - r
    return np.linalg.eigvalsh(a)[..., 0]


def project_to_spectrahedron(a):
    """Frobenius-nearest density matrix: psd with unit trace. Batched.

    Eigendecompose, project the eigenvalue vector onto the simplex, recompose.
    This is the exact Euclidean projection; idempotent.
    """
    return _spectral_map(a, "project_to_spectrahedron", project_to_simplex_rows)


def project_to_effect(a):
    """Frobenius-nearest effect, 0 <= E <= I, by clamping eigenvalues. Batched."""
    return _spectral_map(a, "project_to_effect", lambda w: np.clip(w, 0.0, 1.0))


def project_to_binary_povm(a1, a2):
    """Frobenius-nearest two-outcome POVM (E, I - E) to the pair (a1, a2).

    Minimizing ||E - a1||^2 + ||(I - E) - a2||^2 over 0 <= E <= I has the
    closed form E = clamp((a1 - a2 + I) / 2). Batched.
    """
    op = "project_to_binary_povm"
    a1, a2 = (_require_hermitian(_as_square(x, op), op) for x in (a1, a2))
    if a1.shape != a2.shape:
        raise InvalidInput(f"{op}: shape mismatch {a1.shape} vs {a2.shape}")
    eye = np.eye(a1.shape[-1])
    e = project_to_effect((a1 - a2 + eye) / 2.0)
    return e, eye - e


def project_to_povm(es):
    """Frobenius-nearest POVM to a tuple of Hermitian matrices A_z. Exact.

    The projection is E_z = (A_z - Y)_+, where the Hermitian Y minimises the
    smooth convex dual theta(Y) = 1/2 sum_z ||(A_z - Y)_+||^2 + tr Y, whose
    gradient is I - sum_z (A_z - Y)_+ (Malick, SIAM J. Matrix Anal. Appl.
    2004). Semismooth Newton (Qi & Sun, same journal, 2006) starts at
    Y = (sum_z A_z - I) / Z. Each round takes one batched LAPACK eigh of
    A_z - Y = V_z diag(w_z) V_z^H, builds the generalized Hessian
    H -> sum_z V_z (Omega_z o V_z^H H V_z) V_z^H, Omega_z the divided
    differences of max(., 0) at w_z, solves for the step with a 1e-8 ||grad||
    regulariser, and halves the step until theta falls (Armijo) or ||grad||
    halves, or the step is below one ulp. Deterministic.

    Stops once ||grad|| is at rounding level, 16 ulp * Z * D * max(1, max|A|).
    Raises ConvergenceFailure carrying the last gradient norm if
    _POVM_MAX_ROUNDS (200) rounds do not get there.
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
    a = _require_hermitian(e.astype(np.result_type(e.dtype, float)), "project_to_povm")
    z, d = a.shape[0], a.shape[-1]
    eye = np.eye(d, dtype=a.dtype)
    tol = 16 * np.finfo(float).eps * z * d * max(1.0, float(np.max(np.abs(a))))

    def dual(y):
        w, v = np.linalg.eigh(a - y)
        wp = np.maximum(w, 0.0)
        e = hermitianize((v * wp[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2)))
        grad = eye - np.sum(e, axis=0)
        return y, w, wp, v, e, grad, float(np.linalg.norm(grad)), 0.5 * np.sum(wp * wp) + np.trace(y).real

    y, w, wp, v, e, grad, norm, theta = dual((np.sum(a, axis=0) - eye) / z)
    for _ in range(_POVM_MAX_ROUNDS):
        if norm <= tol:
            break
        gap = w[:, :, None] - w[:, None, :]
        omega = np.divide(wp[:, :, None] - wp[:, None, :], gap, where=gap != 0,
                          out=np.broadcast_to(w[:, :, None] > 0, gap.shape).astype(float))
        # vec(V X V^H) = K vec(X), with K[(i, k), (j, l)] = V_ij conj(V_kl).
        k = np.einsum("zij,zkl->zikjl", v, np.conj(v)).reshape(z, d * d, d * d)
        hess = np.einsum("zab,zb,zcb->ac", k, omega.reshape(z, d * d), np.conj(k))
        step = np.linalg.solve(hess + 1e-8 * norm * np.eye(d * d), -grad.ravel())
        step = hermitianize(step.reshape(d, d))
        slope, t, trial = float(np.real(np.vdot(grad, step))), 1.0, dual(y + step)
        # Near the root theta's decrease falls below its own rounding, so a
        # step that halves ||grad|| is taken too.
        while trial[-1] > theta + 1e-4 * t * slope and trial[-2] > 0.5 * norm and t >= np.finfo(float).eps:
            t *= 0.5
            trial = dual(y + t * step)
        y, w, wp, v, e, grad, norm, theta = trial
    if norm > tol:
        raise ConvergenceFailure(
            f"project_to_povm: dual gradient {norm:.3e} after {_POVM_MAX_ROUNDS} rounds", residual=norm
        )
    return tuple(e)


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
