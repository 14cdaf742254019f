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
x^H G x - 2 Re(c^H x) + k in its flattened state x (K = D entries for vector
models, D^2 for matrix models). A training run builds one `Targets`, and
each side's sparse target incidence and k are built once on it and serve
both target phases; recall mode never builds observed-only targets. c, G and
the step bounds are rebuilt per half-sweep. Zero-filled sweeps share one G of
the whole frozen side, so the dense user-item target matrix is never
materialized; observed-only sweeps give each unit its own G over its own
entries. No inner iteration revisits the ratings, and the per-sweep
objective sums the user side's quadratics instead of rescoring them.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .exceptions import InvalidInput, NumericalFailure, ParseError
from .data import group_entries
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
        if self.D < 1:
            raise InvalidInput("TrainConfig: D must be at least 1")
        if self.max_iter < 0:
            raise InvalidInput("TrainConfig: max_iter must be nonnegative")
        if self.mode not in MODES:
            raise InvalidInput(f"TrainConfig: mode must be one of {MODES}")
        if self.zero_fill_sweeps is not None and not 0 <= self.zero_fill_sweeps <= self.max_iter:
            raise InvalidInput("TrainConfig: zero_fill_sweeps must lie in [0, max_iter]")
        if self.inner_iters < 1:
            raise InvalidInput("TrainConfig: inner_iters must be at least 1")
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
    """Per-sweep objective (on that sweep's targets, summed over the user
    quadratics), wall time and target phase; `constraint_residual` checks feasibility."""

    objective: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    phase: list = field(default_factory=list)

    def append(self, obj, wall, phase):
        self.objective.append(float(obj))
        self.wall_time.append(float(wall))
        self.phase.append(phase)

    def __len__(self):
        return len(self.objective)


class _Incidence(NamedTuple):
    """One side's targets in both phases: CSR `coef` (unit x frozen row), `const` = sum t^2 per unit."""

    coef: sp.csr_matrix
    const: np.ndarray


@dataclass(frozen=True, eq=False)
class Targets:
    """Sparse target map. With zero_fill it covers all (u, i) pairs, the
    unlisted ones carrying 0; otherwise only the listed entries exist.
    Entries lie in [0, U) x [0, I) with finite values. Each side's
    incidence, the same in both phases, is cached on first use and shared
    with `_observed()` copies, so the entry arrays must not be edited in place."""

    uu: np.ndarray
    ii: np.ndarray
    values: np.ndarray
    zero_fill: bool
    U: int
    I: int
    _incidences: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("uu", np.int64), ("ii", np.int64), ("values", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not (self.uu.shape == self.ii.shape == self.values.shape) or self.uu.ndim != 1:
            raise InvalidInput("Targets: entry arrays must be parallel 1-d arrays")
        lo = min(self.U, self.I, self.uu.min(initial=0), self.ii.min(initial=0))
        if lo < 0 or self.uu.max(initial=-1) >= self.U or self.ii.max(initial=-1) >= self.I:
            raise InvalidInput(f"Targets: entries must lie in [0, {self.U}) x [0, {self.I})")
        if not np.isfinite(self.values).all():
            raise InvalidInput("Targets: values must be finite")

    def _observed(self):
        """These entries as observed-only targets, sharing arrays and incidence cache."""
        twin = copy.copy(self)
        object.__setattr__(twin, "zero_fill", False)
        return twin

    def _incidence(self, side, unit, n, other, n_other):
        if side not in self._incidences:
            indptr, other_sorted, t_sorted = group_entries(unit, n, other, self.values)
            coef = sp.csr_matrix((t_sorted, other_sorted, indptr), shape=(n, n_other))
            const = np.bincount(unit, weights=self.values**2, minlength=n)
            self._incidences[side] = _Incidence(coef, const)
        return self._incidences[side]

    @property
    def by_user(self):
        return self._incidence("user", self.uu, self.U, self.ii, self.I)

    @property
    def by_item(self):
        return self._incidence("item", self.ii, self.I, self.uu, self.U)


def effective_targets(ds, zero_fill):
    """Targets R_ui / z_star on the observed entries, optionally zero-filled."""
    return Targets(ds.uu, ds.ii, ds.rr.astype(float) / ds.z_star, bool(zero_fill), ds.U, ds.I)


def init_quantum_users(n_users, d, seed, field="complex"):
    """Rank-1 user states v v^dagger with v uniform on the unit sphere.

    Gaussian components normalized; complex by default. Reproducible from
    seed.
    """
    if n_users < 1 or d < 1:
        raise InvalidInput("init_quantum_users: need positive sizes")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_users, d))
    if field == "complex":
        v = v + 1j * rng.standard_normal((n_users, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.einsum("ua,ub->uab", v, np.conj(v))


def _require_binary(m):
    if getattr(m, "Z", None) != 2:
        raise InvalidInput("training operates on binary-outcome models (Z = 2)")


def objective(m, targets):
    """Sum over target pairs of (P[like] - target)^2, on unclamped scores,
    as the sum of the user side's subobjectives: one sparse product, no scoring."""
    own, quad = _quadratic(m, targets, "user")
    return float(np.sum(quad.value(own)))


class _Quadratic(NamedTuple):
    """Subobjectives x^H G_r x - 2 Re(c_r^H x) + k_r of the units r on one
    side, with step bounds lips[r]; see `_quadratic`."""

    gram: np.ndarray
    cvec: np.ndarray
    const: np.ndarray
    lips: np.ndarray

    def times_gram(self, x):
        """x_r G_r for each row r of x."""
        if self.gram.ndim == 2:
            return x @ self.gram
        return (x[:, None, :] @ self.gram)[:, 0]

    def value(self, x):
        quad = np.real(np.sum(np.conj(x) * self.times_gram(x), axis=1))
        cross = np.real(np.sum(np.conj(self.cvec) * x, axis=1))
        return quad - 2.0 * cross + self.const

    def gradient(self, x):
        return 2.0 * (self.times_gram(x) - self.cvec)


def _quadratic(m, targets, side):
    """Flattened states of the units on `side` and their subproblems, the
    other side frozen.

    With entries f (flattened frozen rows) and targets t of unit r:
    c_r = sum t f, k_r = sum t^2, and G_r = sum conj(f) f^T over the unit's
    entries, or over all frozen rows when zero-filled. The step bound L_r is
    2 lambda_max(G) when zero-filled and 2 tr(G_r) >= 2 lambda_max(G_r)
    otherwise; either bounds the Lipschitz constant of the unit's gradient.
    The incidence matrices and k are cached on `targets` and read by both
    phases; the observed phase takes its 0/1 entry pattern from coef's index
    arrays. Only c, G and L, which depend on the model, are rebuilt per call.
    """
    _require_binary(m)
    uf, ef = m.flat_users(), m.flat_likes()
    if (targets.U, targets.I) != (m.U, m.I):
        raise InvalidInput(f"targets are {targets.U} x {targets.I}, the model {m.U} x {m.I}")
    own, fix_flat = (uf, ef) if side == "user" else (ef, uf)
    inc = targets.by_user if side == "user" else targets.by_item
    # Real targets times the frozen rows' real and imaginary parts side by side.
    fix_flat = np.ascontiguousarray(fix_flat, dtype=np.result_type(fix_flat, float))
    cvec = (inc.coef @ fix_flat.view(float)).view(fix_flat.dtype)
    if targets.zero_fill:
        # gram[a, b] = sum_f conj(f_a) f_b, so (sum_f <f, x> f) per row is x @ gram.
        gram = np.conj(fix_flat).T @ fix_flat
        lam = float(np.linalg.eigvalsh(gram)[-1].real) if gram.size else 0.0
        lips = np.full(len(own), max(2.0 * lam, 1e-12))
    else:
        # Sum the upper-triangle products conj(f_a) f_b as real columns; the lower
        # triangle is their conjugate, written first so the sums overwrite it on the diagonal.
        k = fix_flat.shape[1]
        a, b = np.triu_indices(k)
        upper = np.multiply(np.conj(fix_flat[:, a]), fix_flat[:, b], order="C")
        pattern = sp.csr_matrix((np.ones(inc.coef.nnz), inc.coef.indices, inc.coef.indptr), inc.coef.shape)
        upper = (pattern @ upper.view(float)).view(upper.dtype)
        gram = np.empty((len(own), k, k), dtype=upper.dtype)
        gram[:, b, a] = np.conj(upper)
        gram[:, a, b] = upper
        lips = np.maximum(2.0 * np.real(np.trace(gram, axis1=1, axis2=2)), 1e-12)
    return own, _Quadratic(gram, cvec, inc.const, lips)


def _unit_gradient(m, targets, idx, side):
    own, quad = _quadratic(m, targets, side)
    return quad.gradient(own)[idx].reshape(m.users.shape[1:])


def user_gradient(m, targets, u):
    """Gradient 2 sum_i (P_like(u, i) - t_ui) E_i1 of user u's subobjective."""
    return _unit_gradient(m, targets, u, "user")


def item_gradient(m, targets, i):
    """Gradient 2 sum_u (P_like(u, i) - t_ui) rho_u of item i's subobjective."""
    return _unit_gradient(m, targets, i, "item")


def _update_side(m, targets, cfg, side, project_rows):
    """cfg.inner_iters projected-gradient steps for every unit on one side, the
    other side frozen.

    Both target phases run on the quadratics `_quadratic` builds once per
    call, so each gradient costs O(K^2) per unit however many ratings the
    unit has. Each step has length 1/L_r, L_r a Lipschitz bound of unit r's
    gradient, so by the descent lemma for projected gradient (Beck &
    Teboulle, SIAM J. Imaging Sci. 2009) no step increases a subobjective
    beyond rounding.
    """
    v, quad = _quadratic(m, targets, side)
    step = 1.0 / quad.lips[:, None]
    for _ in range(cfg.inner_iters):
        g = quad.gradient(v)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(f"{side} update: non-finite gradient")
        v = project_rows(v - step * g)
    return v


def update_users(m, targets, cfg):
    """Projected-gradient update of every user state, items fixed."""
    _require_binary(m)
    return m.with_users(_update_side(m, targets, cfg, "user", m.project_users))


def update_items(m, targets, cfg):
    """Projected-gradient update of every item like-effect, users fixed.

    Only the like-effect enters the objective; the complementary effect is
    rebuilt by `with_likes`.
    """
    _require_binary(m)
    return m.with_likes(_update_side(m, targets, cfg, "item", m.project_likes))


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
    model = _init_model(ds, cfg)
    history = TrainHistory()
    zf = cfg.resolved_zero_fill()
    targets = effective_targets(ds, zf > 0)
    for sweep in range(cfg.max_iter):
        if sweep == zf and targets.zero_fill:
            targets = targets._observed()
        tic = time.perf_counter()
        model = update_items(model, targets, cfg)
        model = update_users(model, targets, cfg)
        wall = time.perf_counter() - tic
        obj = objective(model, targets)
        if not np.isfinite(obj):
            raise NumericalFailure(f"sweep {sweep + 1}: non-finite objective")
        history.append(obj, wall, "zero_fill" if targets.zero_fill else "observed")
    return model, history


def train_quantum(ds, cfg):
    """Full alternating run for a quantum model: init, then max_iter sweeps of
    (items, users) updates with the configured zero-fill schedule."""
    return _train(ds, replace(cfg, kind="quantum"))


def train_nnm(ds, cfg):
    """Alternating run for the vector model; simplex and box projections
    replace the spectral ones."""
    return _train(ds, replace(cfg, kind="nnm"))
