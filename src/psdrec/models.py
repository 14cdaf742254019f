"""Model containers and model-level operations.

Two interchangeable model families over a rating alphabet of Z outcomes.
Each kind states its constraint geometry once, on its class: how its states
map to real coordinate rows, the projections onto its user set and its
like-effect set, how a binary model is rebuilt from rows, and the list of
constraint violations that both `validate` and `residual` read.

* NnmModel: each user is a probability vector on the unit simplex, each item
  a tuple of Z nonnegative vectors summing to the all-ones vector; the
  probability of outcome z is a dot product. The NNM is the diagonal special
  case of the quantum model (see embed_nnm).
* QuantumModel: each user is a density matrix (psd, unit trace), each item a
  POVM (psd effects summing to the identity); the probability of outcome z is
  a trace inner product.

Also here: the exact diagonal embedding of an NNM into a quantum model, the
dense perfect-fit construction, recovery of an NNM from a commuting quantum
model by simultaneous diagonalization, numerical rank profiles, and a
line-oriented text persistence format.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from . import linalg
from .data import check_count, check_index
from .exceptions import InvalidInput, NotSimultaneouslyDiagonalizable, ParseError

__all__ = [
    "NnmModel",
    "QuantumModel",
    "RankProfile",
    "nnm_predict",
    "quantum_predict",
    "predict",
    "score_items",
    "score_entries",
    "embed_nnm",
    "overfit_model",
    "recover_nnm",
    "rank_profile",
    "save_model",
    "load_model",
]


def _max_abs(x):
    return float(np.max(np.abs(x), initial=0.0))


@dataclass(frozen=True, eq=False)
class _Model:
    """Sizes, coordinate rows, rebuilds and checks shared by both model kinds.

    A kind states its constraint geometry once: `_rows` and `_states` map
    states to real coordinate rows and back, `project_users` and
    `project_likes` map rows onto its user set and its like-effect set,
    `_one` is the sum its outcome effects must reach, and `_violations`
    yields (message, value, tolerance) for each constraint. `_rank` is the
    number of D-sized axes of one state (1 for vectors, 2 for matrices), and
    `_dtype` the dtype both arrays are cast to (None keeps the given field).

    A model converts each side's states to coordinate rows once, on the
    first `flat_users` or `flat_likes` call, and hands out read-only views
    of them, so its state arrays must not be edited in place after that.
    The models `with_users` and `with_likes` return convert the rebuilt
    side's rows themselves and share this model's rows of the unchanged side.
    """

    users: np.ndarray
    items: np.ndarray
    _dtype = None

    def __post_init__(self):
        name = type(self).__name__
        users = np.asarray(self.users, dtype=self._dtype)
        items = np.asarray(self.items, dtype=self._dtype)
        state = users.shape[1:]
        if users.ndim != 1 + self._rank or items.shape[2:] != state or len(set(state)) != 1:
            dims = ", D" * self._rank
            raise InvalidInput(
                f"{name}: expected users (U{dims}) and items (I, Z{dims}), got {users.shape} and {items.shape}"
            )
        if items.shape[1] < 2:
            raise InvalidInput(f"{name}: need Z >= 2 outcomes")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "items", items)

    @property
    def U(self):
        return self.users.shape[0]

    @property
    def I(self):
        return self.items.shape[0]

    @property
    def D(self):
        return self.users.shape[1]

    @property
    def Z(self):
        return self.items.shape[1]

    def _read_only(self, states):
        """A read-only view of the coordinate rows of states; the array it
        views stays writeable (an NNM's rows are its own state arrays)."""
        rows = self._rows(states).view()
        rows.flags.writeable = False
        return rows

    @cached_property
    def _user_rows(self):
        return self._read_only(self.users)

    @cached_property
    def _like_rows(self):
        return self._read_only(self.items[:, 0])

    def flat_users(self):
        """User states as real rows of K coordinates: D, D^2 or D(D+1)/2."""
        return self._user_rows

    def flat_likes(self):
        """Like effects (outcome 1) as real coordinate rows of K entries."""
        return self._like_rows

    def with_users(self, rows):
        """The same model with its user states read from coordinate rows."""
        model = type(self)(self._states(rows), self.items)
        vars(model)["_like_rows"] = self.flat_likes()
        return model

    def with_likes(self, rows):
        """The binary model with like effects read from coordinate rows and
        each dislike effect their complement `_one - E`."""
        likes = self._states(rows)
        model = type(self)(self.users, np.stack([likes, self._one - likes], axis=1))
        vars(model)["_user_rows"] = self.flat_users()
        return model

    def validate(self):
        """Raise InvalidInput on the first constraint violated beyond its tolerance or NaN."""
        for message, value, tol in self._violations():
            if not value <= tol:
                raise InvalidInput(message)

    def residual(self):
        """Worst violation over all user and item constraints; NaN exactly
        when `validate` fails on NaN."""
        return float(np.max([value for _, value, _ in self._violations()]))


@dataclass(frozen=True, eq=False)
class NnmModel(_Model):
    """users: (U, D) rows on the simplex; items: (I, Z, D) with the Z vectors
    of every item summing to the all-ones vector entrywise. Like effects are
    projected onto the box [0, 1]^D."""

    _rank = 1
    _dtype = float
    _one = 1.0

    _rows = _states = staticmethod(np.asarray)
    project_users = staticmethod(linalg.project_to_simplex_rows)
    project_likes = staticmethod(lambda rows: np.clip(rows, 0.0, 1.0))

    def _violations(self):
        yield "NnmModel: a user vector does not sum to 1", _max_abs(self.users.sum(axis=1) - 1.0), 1e-10
        yield "NnmModel: a user vector has a negative entry", -float(np.min(self.users, initial=0.0)), 1e-10
        yield "NnmModel: an item vector has a negative entry", -float(np.min(self.items, initial=0.0)), 1e-10
        yield (
            "NnmModel: item outcome vectors do not sum to the all-ones vector",
            _max_abs(self.items.sum(axis=1) - 1.0),
            1e-8,
        )


@dataclass(frozen=True, eq=False)
class QuantumModel(_Model):
    """users: (U, D, D) density matrices; items: (I, Z, D, D) POVMs. Like
    effects are projected onto 0 <= E <= I, so the binary POVM projection
    keeps the dislike effect I - E implicit and clamps E's eigenvalues."""

    _rank = 2

    @property
    def _one(self):
        return np.eye(self.D)

    @property
    def _field(self):
        return np.result_type(self.users, self.items, float)

    def _rows(self, states):
        return linalg.to_coords(states.astype(self._field, copy=False))

    def _states(self, rows):
        return linalg.from_coords(rows, self.D, self._field)

    def project_users(self, rows):
        return linalg.spectral_coords(rows, self.D, NnmModel.project_users)

    def project_likes(self, rows):
        return linalg.spectral_coords(rows, self.D, NnmModel.project_likes)

    def _violations(self):
        for what, stack in (("a user state", self.users), ("an item effect", self.items)):
            if not np.isfinite(stack).all():
                # NaN fails validate here and makes the residual NaN; the
                # checks below would only misname the fault.
                yield f"QuantumModel: {what} has a non-finite entry", np.nan, 0.0
                return
        for name, stack in (("user", self.users), ("item", self.items)):
            dev = _max_abs(stack - np.conj(np.swapaxes(stack, -1, -2)))
            yield f"QuantumModel: a {name} matrix is not Hermitian (deviation {dev:.3e})", dev, 1e-10
        traces = np.einsum("ukk->u", self.users).real
        yield "QuantumModel: a user state does not have unit trace", _max_abs(traces - 1.0), 1e-8
        for what, stack in (("a user state", self.users), ("an item effect", self.items)):
            low = float(np.min(linalg.min_eigvalsh(stack))) if stack.size else 0.0
            yield f"QuantumModel: {what} is not psd", -low, 1e-8
        sums = self.items.sum(axis=1) - self._one
        yield "QuantumModel: item effects do not sum to the identity", _max_abs(sums), 1e-8


def _predict(op, kind, m, u, i, z):
    """clip(Re <users[u], items[i, z - 1]>, 0, 1), the clamped score_items score."""
    if not isinstance(m, kind):
        raise InvalidInput(f"{op}: unsupported model type {type(m).__name__}")
    u, i, z = (check_index(op, *args) for args in ((u, m.U, "user"), (i, m.I, "item"), (z, m.Z + 1, "outcome")))
    if u.ndim or i.ndim or z.ndim or z == 0:
        raise InvalidInput(f"{op}: expected one user, one item and one outcome in [1, {m.Z}], got {u}, {i}, {z}")
    p = float(np.real(np.vdot(m.users[u], m.items[i, z - 1])))
    if not np.isfinite(p):
        raise InvalidInput(f"{op}: non-finite prediction for user {u}, item {i}")
    return float(np.clip(p, 0.0, 1.0))


def nnm_predict(m, u, i, z):
    """P[user u rates item i as z] = E_iz . p_u, clamped to [0, 1].

    Outcomes z are 1-based rating values.
    """
    return _predict("nnm_predict", NnmModel, m, u, i, z)


def quantum_predict(m, u, i, z):
    """P[user u rates item i as z] = tr(rho_u E_iz), clamped to [0, 1]."""
    return _predict("quantum_predict", QuantumModel, m, u, i, z)


def predict(m, u, i, z):
    """nnm_predict or quantum_predict, by model type."""
    return _predict("predict", _Model, m, u, i, z)


def score_items(m, u):
    """Raw like scores (outcome 1, unclamped) Re <users[u], items[i, 0]> of
    every item i.

    u is one user index, giving an (I,) row, or a 1-D integer array of user
    indices, giving one row per index, shape (len(u), I). Either way the
    scores come from one real product of the model's coordinate rows, which
    it converts once. recall_at_n ranks
    a block of users at once from these rows: a held-out item is in a user's
    top n exactly when its score is above the (n+1)-th largest score of the row.
    """
    idx = check_index("score_items", u, m.U, "user")
    return m.flat_users()[idx] @ m.flat_likes().T


# Most elements any scoring temporary holds (512 KiB of float64), in
# score_entries chunks and in metrics.recall_at_n's blocks of users.
_SCORE_BLOCK = 1 << 16


def score_entries(m, uu, ii):
    """Raw like scores for paired index arrays (uu[k], ii[k]), gathered
    max(1, _SCORE_BLOCK // K) entries at a time for rows of K coordinates."""
    uu = check_index("score_entries", uu, m.U, "user")
    ii = check_index("score_entries", ii, m.I, "item")
    if uu.shape != ii.shape or uu.ndim != 1:
        raise InvalidInput(f"score_entries: expected 1-D index arrays of one length, got {uu.shape} and {ii.shape}")
    uf = m.flat_users()
    ef = m.flat_likes()
    out = np.empty(uu.shape[0])
    step = max(1, _SCORE_BLOCK // uf.shape[1])
    for s in range(0, uu.shape[0], step):
        sl = slice(s, s + step)
        out[sl] = np.einsum("nk,nk->n", uf[uu[sl]], ef[ii[sl]])
    return out


def embed_nnm(m):
    """Embed an NNM as a diagonal quantum model with identical predictions."""
    if not isinstance(m, NnmModel):
        raise InvalidInput("embed_nnm: expected an NnmModel")
    d = m.D
    rng = np.arange(d)
    users = np.zeros((m.U, d, d))
    users[:, rng, rng] = m.users
    items = np.zeros((m.I, m.Z, d, d))
    items[:, :, rng, rng] = m.items
    return QuantumModel(users, items)


# Largest memorizing model overfit_model allocates, in bytes.
_OVERFIT_MAX_BYTES = 2**30


def overfit_model(ds):
    """Perfect-fit quantum model of dimension D = U, the embedding of an NNM.

    In that NNM every user is their own basis vector; the outcome-z vector of
    item i marks the users who rated i as z, with users who did not rate i
    marked in the z = 1 vector. embed_nnm turns each into a basis projector
    and each item vector into a diagonal effect. Fits every
    known rating with probability exactly 1, and for z >= 2 the rank of E_iz
    is at most the number of users who rated item i.

    Raises InvalidInput before allocating when the model's 8 (U^3 + I Z U^2)
    bytes exceed _OVERFIT_MAX_BYTES.
    """
    if len(ds) == 0:
        raise InvalidInput("overfit_model: empty dataset")
    u_n, i_n, z_n = ds.U, ds.I, ds.z_star
    need = 8 * (u_n**3 + i_n * z_n * u_n**2)
    if need > _OVERFIT_MAX_BYTES:
        raise InvalidInput(
            f"overfit_model: D = {u_n} users need {need / 2**30:.1f} GiB, "
            f"above the {_OVERFIT_MAX_BYTES / 2**30:.1f} GiB limit"
        )
    items = np.zeros((i_n, z_n, u_n))
    items[:, 0] = 1.0
    items[ds.ii, 0, ds.uu] = 0.0
    items[ds.ii, ds.rr - 1, ds.uu] = 1.0
    return embed_nnm(NnmModel(np.eye(u_n), items))


def recover_nnm(m, tol=1e-6, *, seed=0):
    """Recover an NNM from a quantum model whose matrices all commute.

    Commuting Hermitian matrices share an eigenbasis. One that diagonalizes
    every user state and item effect is the eigenbasis of a random, strictly
    positive combination of them all: with continuous weights, two distinct
    joint eigenvalues collide with probability zero, and on a joint
    eigenspace any basis will do. Every matrix is rotated into that basis,
    and the NNM is read off the diagonals. The recovered model reproduces all
    predictions within tol, up to a global coordinate permutation. The
    matrices are held once, in O(k D^2) memory for k = U + I Z of them.

    Raises NotSimultaneouslyDiagonalizable if some rotated matrix has an
    off-diagonal Frobenius norm above tol (or NaN), and InvalidInput unless
    tol is finite and nonnegative.
    """
    if not isinstance(m, QuantumModel):
        raise InvalidInput("recover_nnm: expected a QuantumModel")
    if not 0.0 <= tol < np.inf:
        raise InvalidInput(f"recover_nnm: tol must be finite and nonnegative, got {tol!r}")
    d = m.D
    mats = np.concatenate([m.users, m.items.reshape(m.I * m.Z, d, d)])
    weights = np.random.default_rng(check_count("recover_nnm", seed, "seed", 0)).uniform(0.5, 1.5, mats.shape[0])
    _, basis = np.linalg.eigh(linalg.hermitianize(np.tensordot(weights, mats, axes=1)))
    rotated = np.conj(basis.T) @ mats @ basis
    idx = np.arange(d)
    diags = rotated[:, idx, idx].real
    rotated[:, idx, idx] = 0.0
    residual = float(np.max(np.linalg.norm(rotated, axis=(1, 2))))
    if not residual <= tol:
        raise NotSimultaneouslyDiagonalizable(
            f"recover_nnm: a rotated model matrix has off-diagonal norm {residual:.3e}, above tol {tol:.3e}"
        )

    users = linalg.project_to_simplex_rows(diags[: m.U])
    raw_items = diags[m.U :].reshape(m.I, m.Z, d)
    # Exact projection onto the item constraint set: per coordinate, the Z
    # outcome weights form a point on the unit simplex.
    cols = raw_items.transpose(0, 2, 1).reshape(m.I * d, m.Z)
    items = linalg.project_to_simplex_rows(cols).reshape(m.I, d, m.Z).transpose(0, 2, 1)
    return NnmModel(users, items)


@dataclass(frozen=True)
class RankProfile:
    """Numerical ranks of item effects.

    effect_ranks[i, z] is the rank of effect z of item i (eigenvalues above
    _TAU_RANK times the largest one).
    """

    effect_ranks: np.ndarray


_TAU_RANK = 1e-8


def rank_profile(m):
    """Numerical rank profile of a quantum model's item effects: an effect's
    rank counts its eigenvalues above _TAU_RANK (1e-8) times its largest."""
    if not isinstance(m, QuantumModel):
        raise InvalidInput("rank_profile: expected a QuantumModel")
    ev = np.linalg.eigvalsh(m.items)
    lam_max = ev[..., -1]
    counts = np.count_nonzero(ev > _TAU_RANK * lam_max[..., None], axis=-1)
    return RankProfile(effect_ranks=np.where(lam_max > 0.0, counts, 0))


# ---------------------------------------------------------------------------
# Persistence: line-oriented text format.
#
# Header:  PSDREC v1 | kind=quantum | D | U | I | Z | field=complex
# Records: "user <u> <entries>" and "item <i> <z> <entries>", one per line
# and each exactly once, entries row-major, z 1-based, reals with 17
# significant digits, complex entries as "re,im".
# ---------------------------------------------------------------------------

FORMAT_MAGIC = "PSDREC v1"
KINDS = {"quantum": QuantumModel, "nnm": NnmModel}


# Most values one save_model block formats at once (a few hundred KiB in all).
_SAVE_BLOCK = 1 << 12


def save_model(m, path):
    """Write a model to a text file; see load_model for the format.

    Records go out straight from the state arrays, one `%` format per block
    of at most _SAVE_BLOCK values with the record indices in columns beside
    them, so no copy of the model is made. A model with D, U or I below 1,
    whose file load_model would reject, raises InvalidInput before path is
    opened."""
    kind = next((k for k, cls in KINDS.items() if isinstance(m, cls)), None)
    if kind is None:
        raise InvalidInput(f"save_model: unsupported model type {type(m).__name__}")
    if min(m.D, m.U, m.I) < 1:
        raise InvalidInput(f"save_model: a model file needs D, U and I of at least 1, got {m.D}, {m.U} and {m.I}")
    complex_field = bool(np.iscomplexobj(m.users) or np.iscomplexobj(m.items))
    field = "complex" if complex_field else "real"
    per_record = m.D**m._rank
    entries = " ".join(["%.17g,%.17g" if complex_field else "%.17g"] * per_record) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{FORMAT_MAGIC} | kind={kind} | {m.D} | {m.U} | {m.I} | {m.Z} | field={field}\n")
        for label, n_heads, states in (("user %d ", 1, m.users[:, None]), ("item %d %d ", 2, m.items)):
            z_n = states.shape[1]
            step = max(1, _SAVE_BLOCK // (z_n * per_record * (1 + complex_field)))
            for s in range(0, len(states), step):
                block = states[s : s + step].reshape(-1, per_record)
                if complex_field:
                    # An entry's "re,im" pair is two neighbours in the interleaved float view.
                    block = block.astype(complex, copy=False).view(float)
                unit, z = np.divmod(np.arange(s * z_n, s * z_n + len(block)), z_n)
                table = np.column_stack((unit, z + 1)[:n_heads] + (block,))
                fh.write(((label + entries) * len(table)) % tuple(table.ravel().tolist()))


def _parse_value(token, complex_field, path, ln):
    try:
        if complex_field:
            re_s, im_s = token.split(",")
            return complex(float(re_s), float(im_s))
        return float(token)
    except ValueError:
        raise ParseError(f"{path} line {ln}: bad numeric token {token!r}") from None


def _parse_index(token, path, ln):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{path} line {ln}: bad record index {token!r}") from None


def _parse_header(head, path):
    """The class, D, U, I, Z and complex flag a header line names."""
    parts = [part.strip() for part in head.split("|")]
    if len(parts) != 7 or parts[0] != FORMAT_MAGIC:
        raise ParseError(f"{path} line 1: bad header {head!r}")
    try:
        kind = parts[1].split("=", 1)[1]
        d, u_n, i_n, z_n = (int(x) for x in parts[2:6])
        field = parts[6].split("=", 1)[1]
    except (IndexError, ValueError):
        raise ParseError(f"{path} line 1: bad header {head!r}") from None
    if kind not in KINDS or field not in ("real", "complex") or (kind, field) == ("nnm", "complex"):
        raise ParseError(f"{path} line 1: bad header {head!r}")
    if min(d, u_n, i_n) < 1 or z_n < 2:
        raise ParseError(f"{path} line 1: bad sizes in header")
    return KINDS[kind], d, u_n, i_n, z_n, field == "complex"


def _read_records(lines, path, cls, d, u_n, i_n, z_n, complex_field):
    """Read the record lines to their end: (found, chars, fault, rows, values).

    found counts the non-blank lines, chars their characters bar newlines,
    and fault is the first faulty line's ParseError or None. Before it,
    values holds the records' entries (a complex one as re, im) in file
    order, and rows each one's row of the flat state array, or None while
    they come in save_model's order, which needs no set to find repeats."""
    per_record = d**cls._rank
    seen, rows, values = None, array("q"), array("d")
    found = chars = 0
    fault = None
    for ln, line in enumerate(lines, start=2):
        chars += len(line) - line.endswith("\n")
        if line.isspace():
            continue
        found += 1
        if fault is not None:
            continue
        tokens = line.split()
        try:
            role = tokens[0]
            if role not in ("user", "item"):
                raise ParseError(f"{path} line {ln}: unknown record {role!r}")
            n_head = 2 if role == "user" else 3
            if len(tokens) != n_head + per_record:
                raise ParseError(f"{path} line {ln}: expected {per_record} entries")
            if role == "user":
                row = _parse_index(tokens[1], path, ln)
                if not 0 <= row < u_n:
                    raise ParseError(f"{path} line {ln}: user index {row} out of range")
            else:
                i, z = _parse_index(tokens[1], path, ln), _parse_index(tokens[2], path, ln)
                if not (0 <= i < i_n and 1 <= z <= z_n):
                    raise ParseError(f"{path} line {ln}: item record ({i}, {z}) out of range")
                row = u_n + i * z_n + z - 1
            if seen is None and row != len(rows):
                seen = set(rows)  # the records have left save_model's order
            if seen is not None:
                if row in seen:
                    raise ParseError(f"{path} line {ln}: repeated record {' '.join(tokens[:n_head])!r}")
                seen.add(row)
            rows.append(row)
            record = tokens[n_head:]
            try:
                if complex_field:
                    # As many commas as tokens and one in each: a "re,im" pair each.
                    pairs, record = record, ",".join(record).split(",")
                    if len(record) != 2 * per_record or not all(map(operator.contains, pairs, repeat(","))):
                        raise ValueError
                values.extend(map(float, record))
            except ValueError:
                for token in tokens[n_head:]:
                    _parse_value(token, complex_field, path, ln)
                raise
        except ParseError as exc:
            fault = exc
    return found, chars, fault, None if seen is None else rows, values


def load_model(path):
    """Read a model written by save_model; validates all invariants.

    The file must hold the U + I Z records its header calls for, each exactly
    once. Lines end at `\n`, `\r\n` or `\r`, as the ratings loaders count
    them. One pass reads a line at a time (a pipe loads too), converts each
    record as it goes and holds the first fault until the read ends; then
    it raises on text that is not ASCII, an empty file, a bad header, the
    record count, sizes the file cannot hold, and last the first faulty
    line. Arrays are built only after those checks, from the read buffer
    itself when the records come in save_model's order, so the peak follows
    the model's size, not the text's, and a header claiming more than the
    file holds allocates nothing.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            head = fh.readline()
            if not head:
                raise ParseError(f"{path}: empty model file")
            head = head.removesuffix("\n")
            try:
                layout = _parse_header(head, path)
            except ParseError:
                for _ in fh:  # text that is not ASCII outranks a bad header
                    pass
                raise
            found, chars, fault, rows, values = _read_records(fh, path, *layout)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not ASCII text") from None

    cls, d, u_n, i_n, z_n, complex_field = layout
    per_record = d**cls._rank
    n_records = u_n + i_n * z_n
    if found != n_records:
        raise ParseError(f"{path}: expected {n_records} records, found {found}")
    # An entry and its separator take at least two characters, so sizes the
    # file cannot hold are rejected before anything is allocated.
    if 2 * n_records * per_record > len(head) + chars:
        raise ParseError(f"{path}: {n_records} records of {per_record} entries cannot fit the file")
    if fault is not None:
        raise fault
    flat = np.frombuffer(values, dtype=complex if complex_field else float).reshape(n_records, per_record)
    if rows is not None:
        flat, given = np.empty_like(flat), flat
        flat[np.frombuffer(rows, dtype=np.int64)] = given

    state = (d,) * cls._rank
    model = cls(flat[:u_n].reshape(u_n, *state), flat[u_n:].reshape(i_n, z_n, *state))
    model.validate()
    return model
