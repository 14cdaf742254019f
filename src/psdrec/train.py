"""Alternating constrained least squares for binary-outcome models.

Per sweep, all item like-effects are updated with user states fixed, then all
user states with items fixed. Each subproblem is solved inexactly by a few
projected-gradient steps of length 1/L, where L bounds the Lipschitz constant
of the unit's gradient; by the descent lemma such a step never increases the
unit's subobjective, so no line search is needed. Target values are star
ratings rescaled to [0, 1]; unknown entries can be zero-filled for the leading
sweeps (all sweeps when optimizing for ranking) to counter the selection bias
of observed ratings.

With one side frozen, each unit's subobjective is the quadratic
x^T G x - 2 c^T x + k in the real coordinate row x of its state (K = D, D^2
or D(D+1)/2 entries; see `models`), on which each update's steps and
projections run. No step reads k; the units' k add up to the objective's one
constant, sum t^2, the same on both sides and in both target phases. A
training run builds one `Targets`, which groups its entries by user once into
a sparse (U x I) matrix of the dataset's own ratings, uncopied when they come
in user order, and cuts its rows once into bounded chunks. Every product of
the targets with the frozen rows, by rows for the user side and by columns
for the item side, in both target phases, scales one chunk at a time into
one buffer of its own (`_product`), bit for bit the public sparse product of
ratings / z_star; recall mode never builds observed-only targets. c, G and
the step bounds are rebuilt per half-sweep. Zero-filled sweeps share one G of
the whole frozen side, so the dense user-item target matrix is never
materialized; observed-only sweeps give each unit its own G over its own
entries. No inner iteration revisits the ratings, and the per-sweep
objective is the value of the user side's quadratics instead of a rescoring:
the ones the sweep's user update built, with the items it had just updated
frozen, at the rows it ended on, so each sweep builds two quadratics.

scipy is loaded when the first `Targets` is built, not with this module:
scipy.sparse costs a process about 20 MB, and runs that never train, such as
a hierarchy from a saved model, never load it.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput, NumericalFailure, ParseError
from .data import check_count, check_index, check_real, group_entries
from .models import KINDS, NnmModel, QuantumModel
from .models import score_entries  # noqa: F401  perfbench/spans.py wraps train.score_entries

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "Targets",
    "init_quantum_users",
    "effective_targets",
    "objective",
    "user_gradient",
    "item_gradient",
    "update_users",
    "update_items",
    "constraint_residual",
    "train_quantum",
    "train_nnm",
]

MODES = ("mae", "recall")
FIELDS = ("real", "complex")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    zero_fill_sweeps = None resolves to 2 in mae mode and to max_iter in
    recall mode. Each half-sweep takes inner_iters projected-gradient steps
    of length 1/L per unit, L the Lipschitz bound of the unit's gradient, so
    no step increases the unit's subobjective (Beck & Teboulle, SIAM J.
    Imaging Sci. 2009) and there is no step size to tune. Targets are
    scaled by the dataset's own top rating (`effective_targets`).
    """

    D: int = 2
    max_iter: int = 16
    mode: str = "mae"
    zero_fill_sweeps: int | None = None
    inner_iters: int = 5
    seed: int = 0
    field: str = "complex"
    kind: str = "quantum"

    def __post_init__(self):
        for name, low in (("D", 1), ("max_iter", 0), ("inner_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count("TrainConfig", getattr(self, name), name, low))
        if self.zero_fill_sweeps is not None:
            zf = check_count("TrainConfig", self.zero_fill_sweeps, "zero_fill_sweeps", 0, self.max_iter)
            object.__setattr__(self, "zero_fill_sweeps", zf)
        if self.mode not in MODES:
            raise InvalidInput(f"TrainConfig: mode must be one of {MODES}")
        if self.field not in FIELDS:
            raise InvalidInput(f"TrainConfig: field must be one of {FIELDS}")
        if self.kind not in KINDS:
            raise InvalidInput(f"TrainConfig: kind must be one of {tuple(KINDS)}")

    def resolved_zero_fill(self):
        if self.zero_fill_sweeps is not None:
            return self.zero_fill_sweeps
        if self.mode == "recall":
            return self.max_iter
        return min(2, self.max_iter)

    @classmethod
    def from_file(cls, path):
        """Load `key=value` lines; `#` starts a comment, blank lines skipped."""
        converters = {f.name: int if f.type.startswith("int") else str.lower for f in fields(cls)}
        canonical = {name.lower(): name for name in converters}
        values = {}
        try:
            with open(path, "r", encoding="ascii") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not ASCII text") from None
        for ln, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = (part.strip() for part in line.partition("="))
            if not sep or not key:
                raise ParseError(f"{path} line {ln}: expected key=value")
            name = canonical.get(key.lower())
            if name is None:
                raise ParseError(f"{path} line {ln}: unknown key {key!r}")
            if name in values:
                raise ParseError(f"{path} line {ln}: repeated key {key!r}")
            try:
                values[name] = converters[name](val)
            except ValueError:
                raise ParseError(f"{path} line {ln}: bad value {val!r} for {key}") from None
        try:
            return cls(**values)
        except InvalidInput as exc:
            raise ParseError(f"{path}: {exc}") from None


@dataclass
class TrainHistory:
    """Per-sweep objective (on that sweep's targets, the value of the
    quadratics its user update built, at the updated users) and target
    phase; `constraint_residual` checks feasibility."""

    objective: list = field(default_factory=list)
    phase: list = field(default_factory=list)

    def append(self, obj, phase):
        self.objective.append(float(obj))
        self.phase.append(phase)

    def __len__(self):
        return len(self.objective)


# Entries per chunk of the target products: whole user rows, a longer row
# alone. Each product scales its chunks into one 512 KiB float buffer.
_TARGET_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class Targets:
    """Sparse target map. With zero_fill it covers all (u, i) pairs, the
    unlisted ones carrying 0; otherwise only the listed entries exist. The
    entries, arguments uu, ii and values, lie in [0, U) x [0, I); a repeated
    (u, i) pair stays two entries. The targets are values / scale, scale
    finite and positive: integer values, such as a dataset's ratings, are
    kept as they are, any others become float64 and must be finite.
    Construction groups the entries by user once into the (U x I) CSR
    `matrix` of the values themselves and keeps only it, `scale` and
    `sq_total` = sum t^2, the objective's constant. When the entries already
    come in user order the CSR keeps the given values and item indices as its
    data, so editing them edits the targets.

    `matrix` is a scipy.sparse.csr_matrix, and the first construction
    imports scipy.sparse. Its rows are cut once into chunks of whole rows,
    at most _TARGET_CHUNK entries each or one longer row. `sq_total` and each
    `_product` scale a chunk at a time into a float buffer of their own, so
    the targets hold no float copy of the values and no scratch state.
    `_observed()` copies share the matrix, the chunks and `sq_total`: do not
    edit in place."""

    uu: InitVar[np.ndarray]
    ii: InitVar[np.ndarray]
    values: InitVar[np.ndarray]
    zero_fill: bool
    U: int
    I: int
    scale: float = 1.0
    matrix: scipy.sparse.csr_matrix = field(init=False, repr=False)
    sq_total: float = field(init=False, repr=False)

    def __post_init__(self, uu, ii, values):
        import scipy.sparse as sp

        for name in ("U", "I"):
            object.__setattr__(self, name, check_count("Targets", getattr(self, name), name, 0))
        scale = check_real("Targets", self.scale, "scale")
        if not 0 < scale < np.inf:
            raise InvalidInput(f"Targets: scale must be a finite positive number, got {self.scale!r}")
        object.__setattr__(self, "scale", scale)
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            values = values.astype(float, copy=False)
        if not (np.shape(uu) == np.shape(ii) == values.shape) or values.ndim != 1:
            raise InvalidInput("Targets: entry arrays must be parallel 1-d arrays")
        uu, ii = check_index("Targets", uu, self.U, "user"), check_index("Targets", ii, self.I, "item")
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise InvalidInput("Targets: values must be finite")
        indptr, items, grouped = group_entries(uu, self.U, ii, values)
        m = sp.csr_matrix((grouped, items, indptr), shape=(self.U, self.I))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_chunks", _row_chunks(m.indptr, _TARGET_CHUNK))
        buffer, total = self._buffer(), 0.0
        for _, _, start, stop, _ in self._chunks:
            t = self._scaled(start, stop, buffer)
            total += float(np.dot(t, t))
        object.__setattr__(self, "sq_total", total)

    def _buffer(self):
        """A new float buffer as long as the longest chunk."""
        return np.empty(max((stop - start for _, _, start, stop, _ in self._chunks), default=0))

    def _scaled(self, start, stop, buffer):
        """The targets of entries [start, stop), written into `buffer`."""
        return np.divide(self.matrix.data[start:stop], self.scale, out=buffer[: stop - start], dtype=float)

    def _observed(self):
        """These entries as observed-only targets, sharing the matrix and sq_total."""
        twin = copy.copy(self)
        object.__setattr__(twin, "zero_fill", False)
        return twin


def _row_chunks(indptr, size):
    """The rows of a CSR matrix with these indptr cut into chunks of whole
    rows of at most `size` entries each, a longer row alone, as tuples
    (lo, hi, start, stop, ptr): rows [lo, hi), their entries [start, stop)
    and their indptr shifted to start at 0, in its dtype. Rows without
    entries at a chunk's edge may fall in no chunk."""
    chunks, lo, n_rows = [], 0, len(indptr) - 1
    while lo < n_rows:
        start = int(indptr[lo])
        hi = max(int(np.searchsorted(indptr, start + size, side="right")) - 1, lo + 1)
        stop = int(indptr[hi])
        if stop > start:
            chunks.append((lo, hi, start, stop, np.subtract(indptr[lo : hi + 1], start, dtype=indptr.dtype)))
        lo = hi
    return tuple(chunks)


def _product(targets, side, fix, pattern=False):
    """targets.matrix / scale @ fix for the user side, its transpose's product
    for the item side; with pattern, the 0/1 entry pattern's.

    Each chunk's targets (or ones), in one buffer per call, are accumulated
    into the output by the kernels scipy's own sparse-dense products call,
    csr_matvecs by rows and csc_matvecs through the transpose, so every row
    and column sums its terms in the order, and to the bits, of the public
    product. These kernels are private to scipy, hence the upper bound on
    scipy in pyproject.toml; they are imported here, with scipy.sparse
    already loaded by the targets' construction."""
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

    m = targets.matrix
    fix = np.ascontiguousarray(fix, dtype=float)
    n_out, n_fix = (targets.U, targets.I) if side == "user" else (targets.I, targets.U)
    if fix.ndim != 2 or len(fix) != n_fix:
        # The kernels index fix unchecked.
        raise InvalidInput(f"{side} product: expected {n_fix} frozen rows, got shape {fix.shape}")
    k = fix.shape[1]
    out = np.zeros((n_out, k))
    flat_fix, flat_out = fix.ravel(), out.ravel()
    buffer = targets._buffer()
    if pattern:
        buffer[:] = 1.0
    for lo, hi, start, stop, ptr in targets._chunks:
        vals = buffer[: stop - start] if pattern else targets._scaled(start, stop, buffer)
        items = m.indices[start:stop]
        if side == "user":
            csr_matvecs(hi - lo, targets.I, k, ptr, items, vals, flat_fix, out[lo:hi].ravel())
        else:
            csc_matvecs(targets.I, hi - lo, k, ptr, items, vals, fix[lo:hi].ravel(), flat_out)
    return out


def effective_targets(ds, zero_fill):
    """Targets R_ui / z_star on the observed entries, optionally zero-filled.

    The dataset's own ratings, int8 for five stars, and index arrays are
    passed on with scale z_star: on user-ordered entries the targets copy
    neither, and hold only their row pointers and chunks beyond them."""
    return Targets(ds.uu, ds.ii, ds.rr, bool(zero_fill), ds.U, ds.I, ds.z_star)


def init_quantum_users(n_users, d, seed, field="complex"):
    """Rank-1 user states v v^dagger with v uniform on the unit sphere.

    Gaussian components normalized; complex by default. Reproducible from
    seed.
    """
    n_users, d = check_count("init_quantum_users", n_users, "n_users", 1), check_count("init_quantum_users", d, "d", 1)
    if field not in FIELDS:
        raise InvalidInput(f"init_quantum_users: field must be one of {FIELDS}")
    rng = np.random.default_rng(check_count("init_quantum_users", seed, "seed", 0))
    v = rng.standard_normal((n_users, d))
    if field == "complex":
        v = v + 1j * rng.standard_normal((n_users, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.einsum("ua,ub->uab", v, np.conj(v))


def objective(m, targets):
    """Sum over target pairs of (P[like] - target)^2, on unclamped scores,
    as the value of the user side's quadratics: one sparse product, no scoring."""
    own, quad = _quadratic(m, targets, "user")
    return quad.value(own)


class _Quadratic(NamedTuple):
    """Subobjectives x_r^T G_r x_r - 2 c_r^T x_r of the units r on one side,
    step bounds lips[r] and the side's constant k; see `_quadratic`."""

    gram: np.ndarray
    cvec: np.ndarray
    const: float
    lips: np.ndarray

    def times_gram(self, x):
        """x_r G_r for each row r of x."""
        if self.gram.ndim == 2:
            return x @ self.gram
        return (x[:, None, :] @ self.gram)[:, 0]

    def value(self, x):
        """The objective at rows x: sum_r (x_r^T G_r x_r - 2 c_r^T x_r) + k."""
        return float(np.sum(x * (self.times_gram(x) - 2.0 * self.cvec))) + self.const

    def gradient(self, x):
        return 2.0 * (self.times_gram(x) - self.cvec)


def _quadratic(m, targets, side):
    """Coordinate rows of the units on `side` and their subproblems, the
    other side frozen.

    With entries f (frozen coordinate rows) and targets t of unit r:
    c_r = sum t f and G_r = sum f f^T over the unit's entries, or over all
    frozen rows when zero-filled; the constant is `targets.sq_total`, since
    no step reads a unit's own sum t^2. The step bound L_r is
    2 lambda_max(G) when zero-filled and 2 tr(G_r) >= 2 lambda_max(G_r)
    otherwise; either bounds the Lipschitz constant of the unit's gradient.
    Both products run through `_product`, by rows of `targets.matrix` for
    users and by its columns for items, in both phases; the observed phase
    sums f f^T over the same entries with ones in place of the targets.
    Only c, G and L, which depend on the model, are rebuilt per call.
    """
    if getattr(m, "Z", None) != 2:
        raise InvalidInput("training operates on binary-outcome models (Z = 2)")
    uf, ef = m.flat_users(), m.flat_likes()
    if (targets.U, targets.I) != (m.U, m.I):
        raise InvalidInput(f"targets are {targets.U} x {targets.I}, the model {m.U} x {m.I}")
    own, fix = (uf, ef) if side == "user" else (ef, uf)
    cvec = _product(targets, side, fix)
    if targets.zero_fill:
        # gram[a, b] = sum_f f_a f_b, so (sum_f <f, x> f) per row is x @ gram.
        gram = fix.T @ fix
        lam = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
        lips = np.full(len(own), max(2.0 * lam, 1e-12))
    else:
        # Sum the upper-triangle products f_a f_b per unit and mirror them.
        k = fix.shape[1]
        a, b = np.triu_indices(k)
        upper = _product(targets, side, fix[:, a] * fix[:, b], pattern=True)
        gram = np.empty((len(own), k, k))
        gram[:, b, a] = upper
        gram[:, a, b] = upper
        lips = np.maximum(2.0 * np.trace(gram, axis1=1, axis2=2), 1e-12)
    return own, _Quadratic(gram, cvec, targets.sq_total, lips)


def _unit_gradient(op, m, targets, idx, side):
    own, quad = _quadratic(m, targets, side)
    idx = check_index(op, idx, len(own), side)
    if idx.ndim:
        raise InvalidInput(f"{op}: expected one {side}, got {idx}")
    return m._states(quad.gradient(own)[idx])


def user_gradient(m, targets, u):
    """Gradient 2 sum_i (P_like(u, i) - t_ui) E_i1 of user u's subobjective."""
    return _unit_gradient("user_gradient", m, targets, u, "user")


def item_gradient(m, targets, i):
    """Gradient 2 sum_u (P_like(u, i) - t_ui) rho_u of item i's subobjective."""
    return _unit_gradient("item_gradient", m, targets, i, "item")


def _update_side(m, targets, cfg, side):
    """cfg.inner_iters projected-gradient steps for every unit on one side, the
    other side frozen.

    Both target phases run on the quadratics `_quadratic` builds once per
    call, so each gradient costs O(K^2) per unit however many ratings the
    unit has. Each step has length 1/L_r, L_r a Lipschitz bound of unit r's
    gradient, so by the descent lemma for projected gradient (Beck &
    Teboulle, SIAM J. Imaging Sci. 2009) no step increases a subobjective
    beyond rounding. Returns the final rows and the quadratics, whose value
    at those rows is the objective of the updated model.
    `_quadratic` checks the model before any of its methods is looked up.
    """
    v, quad = _quadratic(m, targets, side)
    project_rows = m.project_users if side == "user" else m.project_likes
    step = 1.0 / quad.lips[:, None]
    for _ in range(cfg.inner_iters):
        g = quad.gradient(v)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(f"{side} update: non-finite gradient")
        v = project_rows(v - step * g)
    return v, quad


def update_users(m, targets, cfg):
    """Projected-gradient update of every user state, items fixed."""
    rows, _ = _update_side(m, targets, cfg, "user")
    return m.with_users(rows)


def update_items(m, targets, cfg):
    """Projected-gradient update of every item like-effect, users fixed.

    Only the like-effect enters the objective; the complementary effect is
    rebuilt by `with_likes`.
    """
    rows, _ = _update_side(m, targets, cfg, "item")
    return m.with_likes(rows)


def constraint_residual(m):
    """Worst feasibility violation over all user and item constraints."""
    return m.residual()


def _init_model(ds, cfg):
    if cfg.kind == "quantum":
        users = init_quantum_users(ds.U, cfg.D, cfg.seed, field=cfg.field)
        eye = np.eye(cfg.D, dtype=users.dtype)
        items = np.tile(eye / 2.0, (ds.I, 2, 1, 1))
        return QuantumModel(users, items)
    rho = init_quantum_users(ds.U, cfg.D, cfg.seed, field="complex")
    users = np.einsum("uaa->ua", rho).real.copy()
    users /= users.sum(axis=1, keepdims=True)
    items = np.full((ds.I, 2, cfg.D), 0.5)
    return NnmModel(users, items)


def _train(ds, cfg):
    if ds.U == 0 or ds.I == 0:
        raise InvalidInput(f"training needs at least one user and one item, got {ds.U} users and {ds.I} items")
    model = _init_model(ds, cfg)
    history = TrainHistory()
    zf = cfg.resolved_zero_fill()
    targets = effective_targets(ds, zf > 0)
    for sweep in range(cfg.max_iter):
        if sweep == zf and targets.zero_fill:
            targets = targets._observed()
        model = update_items(model, targets, cfg)
        # `update_users` inlined: its quadratics, items frozen, give the
        # sweep's `objective` at the final rows without a rebuild.
        rows, quad = _update_side(model, targets, cfg, "user")
        model = model.with_users(rows)
        obj = quad.value(rows)
        if not np.isfinite(obj):
            raise NumericalFailure(f"sweep {sweep + 1}: non-finite objective")
        history.append(obj, "zero_fill" if targets.zero_fill else "observed")
    return model, history


def train_quantum(ds, cfg):
    """Full alternating run for a quantum model: init, then max_iter sweeps of
    (items, users) updates with the configured zero-fill schedule."""
    return _train(ds, replace(cfg, kind="quantum"))


def train_nnm(ds, cfg):
    """Alternating run for the vector model; simplex and box projections
    replace the spectral ones."""
    return _train(ds, replace(cfg, kind="nnm"))
