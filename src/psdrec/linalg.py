"""Hermitian linear algebra kernel.

Exact Euclidean projections onto the constraint sets used by the models: the
unit simplex, the spectrahedron (density matrices), the operator interval
0 <= E <= I, and the POVM set.

All functions are pure. Matrices may be real symmetric or complex Hermitian;
the dtype of the input is preserved. Functions documented as batched accept
arbitrary leading axes over the last two matrix axes.

The spectral projections wrap one unchecked kernel on real coordinate rows
(`to_coords`), `spectral_coords`. It and `min_eigvalsh` read one private
eigen-dispatch, `_eigensystem`, in row blocks: closed forms from the rows at
D <= 3 (eigenvalues m -+ r at D = 2; at D = 3 one trigonometric eigenvalue,
its eigenprojector from the adjugate and the D = 2 form for the other pair),
batched LAPACK eigh otherwise. `project_to_povm` solves its dual by
semismooth Newton.
"""

from __future__ import annotations

import functools
import itertools

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
    """Simplex projection along the last axis of a real array.

    Sort-and-threshold (Held, Wolfe & Crowder, Math. Prog. 6, 1974) on the
    row shifted by its maximum, the robust form of the rule (Condat, Math.
    Prog. 158, 2016): with u the shifted row sorted in descending order and
    css_k = u_1 + ... + u_k - 1, the threshold is theta = css_rho / rho for
    the largest rho with rho u_rho > css_rho, and the projection is
    max((v - max v) - theta, 0). The shift makes u_1 = 0, so rho >= 1 and
    every finite row lands on the simplex, however large its entries. Rows
    of at most three entries, the eigenvalues of the D <= 3 spectral
    projections, are sorted column by column by a compare-exchange network
    in place of np.sort, with the same sequential prefix sums, so finite
    rows project bit for bit as wider ones would; a NaN in such a row makes
    the whole row NaN.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    if not 0 < d <= 3:
        u = -np.sort(-v, axis=-1)
        top = u[..., :1].copy()
        u -= top
        css = np.cumsum(u, axis=-1) - 1.0
        k = np.arange(1, d + 1)
        # The active-set condition u_k - css_k / k > 0 holds on a prefix.
        rho = np.count_nonzero(u * k > css, axis=-1)
        pick = np.take_along_axis(css, rho[..., None] - 1, axis=-1)[..., 0]
    else:
        u = [v[..., j] for j in range(d)]
        for i, j in ((0, 1), (1, 2), (0, 1))[: d * (d - 1) // 2]:
            u[i], u[j] = np.maximum(u[i], u[j]), np.minimum(u[i], u[j])
        top = u[0][..., None]
        u = [t - u[0] for t in u]
        css = [t - 1.0 for t in itertools.accumulate(u)]
        rho = sum(t * k > c for k, (t, c) in enumerate(zip(u, css), start=1))
        pick = css[0]
        for k in range(2, d + 1):
            pick = np.where(rho == k, css[k - 1], pick)
    return np.maximum((v - top) - (pick / rho)[..., None], 0.0)


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


def _coords3(diag, upper):
    """The K coordinate columns of the 3 x 3 Hermitian matrices with diagonal
    entries diag and upper off-diagonal entries upper, (0, 1), (0, 2) and
    (1, 2): lists of three 1-d arrays, the upper ones real or complex."""
    upper = [_SQRT2 * t for t in upper]
    parts = diag + [t.real for t in upper]
    if np.iscomplexobj(upper[0]):
        parts += [t.imag for t in upper]
    return parts


def _three_by_three(x):
    """lam, mu, r, Q, R of 3 x 3 coordinate rows x (N, K): the eigenvalues are
    lam and mu -+ r, and Q and R, the K coordinate columns of the eigenprojector
    for lam and of P A P - mu P, where P = I - Q.

    Each row is first scaled by the power of two of its largest entry, which is
    exact, so that no square below overflows and a tiny row keeps its
    precision; m and p are scaled back. With m = tr A / 3 and p = ||A - m I|| / sqrt(6), the kernel works on
    C = (A - m I) / p, whose eigenvalues 2 cos(phi + 2 pi j / 3) follow from
    phi = arccos(det C / 2) / 3 (Smith, CACM 4, 1961). lam takes the one at
    least sqrt(3) p from the other two, j = 0 where phi < pi/6 and j = 1
    otherwise, so it stays accurate where arccos is ill-conditioned. For a
    simple eigenvalue s of C, adj(C - s I) is the product of the other two
    gaps times the eigenprojector (Horn & Johnson, Matrix Analysis, 2nd ed.,
    2013), and its trace is that product, at least 3 here, so Q is the
    adjugate over its trace. C Q = s Q makes P C P = C - s Q, so
    R / p = C - nu I - (s - nu) Q with nu = (tr C - s) / 2, mu = m + p nu and
    r = ||R|| / sqrt(2). At p = 0, C = 0 and Q = I / 3. All arithmetic is on
    1-d arrays of N entries; a NaN row gives NaN."""
    e = np.frexp(functools.reduce(np.maximum, np.abs(x.T)))[1]
    xt = np.ldexp(x, -e[:, None]).T
    m = (xt[0] + xt[1] + xt[2]) / 3.0
    b = [t - m for t in xt[:3]]
    p = np.sqrt((b[0] * b[0] + b[1] * b[1] + b[2] * b[2] + np.einsum("kn,kn->n", xt[3:], xt[3:])) / 6.0)
    s = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0)
    b = [t * s for t in b]
    # The upper off-diagonal entries of C from their sqrt(2) Re, sqrt(2) Im rows.
    s /= _SQRT2
    o = [t * s for t in xt[3:6]]
    if x.shape[1] == 9:
        o = [t + 1j * (i * s) for t, i in zip(o, xt[6:])]
    oc = [np.conj(t) for t in o]
    sq = [(t * tc).real for t, tc in zip(o, oc)]
    det = b[0] * b[1] * b[2] + 2.0 * (o[0] * o[2] * oc[1]).real - b[0] * sq[2] - b[1] * sq[1] - b[2] * sq[0]
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    shift = 2.0 * np.cos(np.where(phi < np.pi / 6, phi, phi + 2.0 * np.pi / 3))
    c = [t - shift for t in b]
    # The adjugate of C - shift I, shift = (lam - m) / p, is Hermitian:
    # diagonal g00, g11, g22 and upper entries g01, g02, g12.
    g00, g11, g22 = c[1] * c[2] - sq[2], c[0] * c[2] - sq[1], c[0] * c[1] - sq[0]
    g01, g02, g12 = o[1] * oc[2] - o[0] * c[2], o[0] * o[2] - o[1] * c[1], o[1] * oc[0] - o[2] * c[0]
    inv = 1.0 / (g00 + g11 + g22)
    qd, qo = [g00 * inv, g11 * inv, g22 * inv], [g01 * inv, g02 * inv, g12 * inv]
    nu = 0.5 * (b[0] + b[1] + b[2] - shift)
    gap = shift - nu
    rr = _coords3([t - nu - gap * q for t, q in zip(b, qd)], [t - gap * q for t, q in zip(o, qo)])
    m, p = np.ldexp(m, e), np.ldexp(p, e)
    r = p * np.sqrt(0.5 * sum(t * t for t in rr))
    return m + p * shift, m + p * nu, r, _coords3(qd, qo), [t * p for t in rr]


# Rows per `_eigensystem` call. At D = 3 its 1-d temporaries, about 50 of
# them, then take about 1.4 MB. The heap they leave behind stays mapped, so
# larger blocks raise the peak RSS of every later step.
_BLOCK = 2048


def _eigensystem(x, d, vectors=True):
    """Eigenvalues w (N, D) of the D x D Hermitian matrices with coordinate
    rows x (N, K) and compose(fw), the rows of the matrices with eigenvalues
    fw on the same eigenvectors; the one place that picks an eigensolver by D.
    At D <= 3, w0, w1 = mu -+ r and compose gives mean I + scale R, mean and
    slope scale = (fw1 - fw0) / (2r) (0 where r = 0, bounded by f's Lipschitz
    constant) of f over that pair: R = A - mu I at D = 2; at D = 3 it adds
    (fw2 - mean) Q for lam's eigenprojector Q of `_three_by_three`, as
    mean P + fw2 Q does. Any other D recomposes sum_k fw_k v_k v_k^H from
    batched LAPACK eigh; with vectors False it takes eigvalsh's eigenvalues
    alone, and compose is None."""
    if d == 2:
        mu, h = 0.5 * (x[:, 0] + x[:, 1]), 0.5 * (x[:, 0] - x[:, 1])
        # |a01| = |x2 + i x3| / sqrt(2) by abs and hypot, which do not overflow
        # where x2 * x2 does, past 1e154.
        off = x[:, 2] if x.shape[1] == 3 else np.abs(x[:, 2] + 1j * x[:, 3])
        r = np.hypot(h, off / _SQRT2)
        w = np.stack([mu - r, mu + r], axis=-1)
    elif d == 3:
        lam, mu, r, q, rr = _three_by_three(x)
        w = np.stack([mu - r, mu + r, lam], axis=-1)
    else:
        a = from_coords(x, d, complex if x.shape[-1] > d * (d + 1) // 2 else float)
        if not vectors:
            return np.linalg.eigvalsh(a), None
        w, v = np.linalg.eigh(a)
        return w, lambda fw: to_coords(np.einsum("...ik,...k,...jk->...ij", v, fw, np.conj(v)))

    def compose(fw):
        mean = 0.5 * (fw[:, 0] + fw[:, 1])
        scale = np.divide(0.5 * (fw[:, 1] - fw[:, 0]), r, out=np.zeros_like(r), where=r > 0)
        if d == 2:
            out = scale[:, None] * x
            out[:, 0] = mean + scale * h
            out[:, 1] = mean - scale * h
            return out
        top, out = fw[:, 2] - mean, np.empty(x.shape)
        for j, (qj, rj) in enumerate(zip(q, rr)):
            out[:, j] = top * qj + scale * rj
        out[:, :3] += mean[:, None]
        return out

    return w, compose


def _by_blocks(x, d, g, *shape, vectors=True):
    """g(w, compose) of `_eigensystem` per block of _BLOCK rows of x (any leading
    axes), into one x.shape[:-1] + shape array. A block's arrays outlive the next
    block's computation; freed first, malloc would trim and refault the heap."""
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((len(rows),) + shape)
    for lo in range(0, len(rows), _BLOCK):
        system = _eigensystem(rows[lo : lo + _BLOCK], d, vectors)
        out[lo : lo + _BLOCK] = g(*system)
    return out.reshape(x.shape[:-1] + shape)


def spectral_coords(x, d, f):
    """Coordinates of f of the eigenvalues of the D x D Hermitian matrices with
    coordinates x (any leading axes), by `_eigensystem` in row blocks. Unchecked."""
    return _by_blocks(x, d, lambda w, compose: compose(f(w)), x.shape[-1])


def _spectral_map(a, op, f):
    a = _require_hermitian(_as_square(a, op), op)
    return from_coords(spectral_coords(to_coords(a), a.shape[-1], f), a.shape[-1], a.dtype)


def min_eigvalsh(a):
    """Smallest eigenvalue of each Hermitian matrix along the last two axes, the
    least of `_eigensystem`'s: mu - r at D = 2, min(lam, mu - r) at D = 3,
    eigvalsh's first otherwise (no eigenvectors), folded over the columns of w
    with np.minimum (a reduction along the D-wide axis costs far more).
    Unchecked, like `hermitianize`: a NaN entry gives NaN."""
    a = np.asarray(a)
    x = to_coords(a)
    return _by_blocks(x, a.shape[-1], lambda w, _: functools.reduce(np.minimum, w.T), vectors=False)


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
