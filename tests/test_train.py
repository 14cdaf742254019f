import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from psdrec import cli, linalg, models, train
from psdrec.exceptions import InvalidInput, NumericalFailure, ParseError

from _oracles import (
    fd_coefficients,
    hermitian_basis,
    naive_objective,
    naive_observed_quadratic,
    naive_pg_update,
)
from conftest import from_arrays, planted_dataset, random_dataset, random_nnm_model, random_quantum_model


# A valid non-default value for every TrainConfig field; a new field must be
# added here, so it cannot go without a from_file converter or an effect on
# training unnoticed.
NON_DEFAULT = {
    "D": 3,
    "max_iter": 7,
    "mode": "recall",
    "zero_fill_sweeps": 1,
    "inner_iters": 2,
    "seed": 4,
    "field": "real",
    "kind": "nnm",
}


class TestTrainConfig:
    def test_defaults(self):
        cfg = train.TrainConfig()
        assert cfg.D == 2 and cfg.max_iter == 16 and cfg.mode == "mae"
        assert cfg.inner_iters == 5 and cfg.field == "complex" and cfg.kind == "quantum"

    def test_zero_fill_schedule(self):
        assert train.TrainConfig(mode="mae", max_iter=10).resolved_zero_fill() == 2
        assert train.TrainConfig(mode="recall", max_iter=10).resolved_zero_fill() == 10
        assert train.TrainConfig(mode="mae", zero_fill_sweeps=7).resolved_zero_fill() == 7
        assert train.TrainConfig(mode="recall", zero_fill_sweeps=0).resolved_zero_fill() == 0

    def test_validation(self):
        for kwargs in (
            {"D": 0},
            {"max_iter": -1},
            {"mode": "nope"},
            {"inner_iters": 0},
            {"field": "quaternion"},
            {"kind": "classical"},
            {"zero_fill_sweeps": -1},
        ):
            with pytest.raises(InvalidInput):
                train.TrainConfig(**kwargs)

    def test_from_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# comment\nD = 4\nmax_iter=3\nmode = recall\nseed=9\n\n")
        cfg = train.TrainConfig.from_file(str(path))
        assert cfg.D == 4 and cfg.max_iter == 3 and cfg.mode == "recall" and cfg.seed == 9

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        # Removed keys are unknown like any other.
        for key in ("banana", "step_init", "step_shrink", "max_backtracks", "z_star"):
            path.write_text(f"{key} = 0.5\n")
            with pytest.raises(ParseError, match="unknown key"):
                train.TrainConfig.from_file(str(path))

    @pytest.mark.parametrize("text", ["D = 2\nD = 3\n", "d=2\n# comment\nD = 3\n"], ids=["same-case", "mixed-case"])
    def test_from_file_repeated_key(self, tmp_path, text):
        # Keys match case-insensitively, so the second line sets D again.
        path = tmp_path / "train.cfg"
        path.write_text(text)
        line = len(text.splitlines())
        with pytest.raises(ParseError, match=f"line {line}: repeated key 'D'"):
            train.TrainConfig.from_file(str(path))

    def test_from_file_sets_every_field(self, tmp_path):
        path = tmp_path / "train.cfg"
        for f in dataclasses.fields(train.TrainConfig):
            assert NON_DEFAULT[f.name] != f.default
            path.write_text(f"{f.name} = {NON_DEFAULT[f.name]}\n")
            assert getattr(train.TrainConfig.from_file(str(path)), f.name) == NON_DEFAULT[f.name]

    def test_every_key_changes_the_trained_model(self, tmp_path):
        # No config key may be read and then ignored: setting any one of them
        # alone must change the model `psdrec train` writes.
        rng = np.random.default_rng(5)
        ratings = tmp_path / "u.data"
        ratings.write_text("".join(
            f"{u}\t{i}\t{int(rng.integers(1, 6))}\t0\n" for u in range(1, 7) for i in range(1, 6)
        ))

        def trained(name, text):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.psdrec"
            cfg.write_text(text)
            argv = ["train", "--data", str(ratings), "--config", str(cfg), "--model-out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        default = trained("default", "")
        for f in dataclasses.fields(train.TrainConfig):
            assert trained(f.name, f"{f.name} = {NON_DEFAULT[f.name]}\n") != default, f.name

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        para = next(p for p in readme.split("\n\n") if p.startswith("Config files are"))
        keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", para.split("TrainConfig`:", 1)[1]))
        assert keys == [f.name for f in dataclasses.fields(train.TrainConfig)]

    def test_from_file_bad_value(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("D = -3\n")
        with pytest.raises(ParseError):
            train.TrainConfig.from_file(str(path))
        path.write_text("D = x\n")
        with pytest.raises(ParseError):
            train.TrainConfig.from_file(str(path))

    def test_from_file_non_ascii(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"D = 2\n# caf\xe9\n")
        with pytest.raises(ParseError):
            train.TrainConfig.from_file(str(path))


class TestTargets:
    def test_values_are_rating_fractions(self):
        ds = from_arrays([0, 1], [0, 1], [5, 2], U=2, I=2)
        t = train.effective_targets(ds, False)
        np.testing.assert_allclose(t.values, [1.0, 0.4])
        assert t.uu.tolist() == [0, 1] and t.ii.tolist() == [0, 1]
        assert not t.zero_fill

    def test_zero_fill_reads_zero(self):
        ds = from_arrays([0], [0], [5], U=2, I=2)
        t = train.effective_targets(ds, True)
        assert t.zero_fill
        assert (t.U, t.I) == (2, 2)
        assert t.values.tolist() == [1.0]

    @pytest.mark.parametrize("zero_fill", [False, True])
    @pytest.mark.parametrize(
        "uu, ii, values",
        [
            ([0, 2], [0, 1], [1.0, 1.0]),
            ([0, 1], [0, 5], [1.0, 1.0]),
            ([0, -1], [0, 1], [1.0, 1.0]),
            ([0, 1], [-1, 1], [1.0, 1.0]),
            ([0, 1], [0, 1], [np.nan, 1.0]),
            ([0, 1], [0, 1], [1.0, np.inf]),
            ([0, 1], [0, 1], [1.0, -np.inf]),
        ],
        ids=["user>=U", "item>=I", "user<0", "item<0", "nan", "inf", "-inf"],
    )
    def test_rejects_invalid_entries(self, zero_fill, uu, ii, values):
        # Each would otherwise reach the unchecked sparse kernels, where an
        # item index past I reads outside the model.
        with pytest.raises(InvalidInput, match="Targets"):
            train.Targets(uu, ii, values, zero_fill, 2, 2)

    @pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (2.5, 2), ("2", 2), (2, True), (2, np.float64(2))])
    def test_rejects_negative_shape(self, shape):
        with pytest.raises(InvalidInput, match="Targets"):
            train.Targets([], [], [], False, *shape)

    def test_fields_cannot_be_reassigned(self):
        t = train.Targets([0, 1], [1, 0], [0.2, 0.4], False, 2, 2)
        matrix, sq_sums = t.matrix, t.sq_sums
        for name, value in (
            ("uu", [1, 0]),
            ("ii", [0, 1]),
            ("values", [1.0, 1.0]),
            ("zero_fill", True),
            ("matrix", matrix.T),
            ("sq_sums", {}),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, value)
        assert t.matrix is matrix and t.sq_sums is sq_sums
        assert t.matrix.toarray().tolist() == [[0.0, 0.2], [0.4, 0.0]]
        np.testing.assert_allclose(t.sq_sums["user"], [0.04, 0.16])
        np.testing.assert_allclose(t.sq_sums["item"], [0.16, 0.04])

    def test_observed_sweeps_read_the_zero_fill_incidence(self, monkeypatch):
        # One mae-mode run: both sides of both phases read the one matrix the
        # zero-fill targets built, and the item side's transpose is a view of
        # its arrays, not a regrouping.
        read = []
        quadratic = train._quadratic

        def recorded(m, targets, side):
            read.append((targets.zero_fill, side, targets.matrix, targets.sq_sums))
            return quadratic(m, targets, side)

        monkeypatch.setattr(train, "_quadratic", recorded)
        ds = random_dataset(np.random.default_rng(25), 6, 5, density=0.6)
        train.train_quantum(ds, train.TrainConfig(D=2, max_iter=4, mode="mae", seed=0))
        assert {(zero_fill, side) for zero_fill, side, _, _ in read} == {
            (zero_fill, side) for zero_fill in (True, False) for side in ("user", "item")
        }
        matrix, sq_sums = read[0][2:]
        assert all(got is matrix and sums is sq_sums for _, _, got, sums in read)
        assert matrix.shape == (ds.U, ds.I) and matrix.nnz == len(ds)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(matrix.T, name), getattr(matrix, name)), name

    @pytest.mark.parametrize("mode", ["recall", "mae"])
    def test_entries_grouped_once_per_run(self, monkeypatch, mode):
        # One validation and one grouping, by user, per run in both modes;
        # recall mode never makes observed-only targets.
        calls, validated, phases = [], [], set()
        group, post_init, update_users = train.group_entries, train.Targets.__post_init__, train.update_users

        def counted_group(*args):
            calls.append(args)
            return group(*args)

        def counted_post_init(self):
            validated.append(self)
            post_init(self)

        def recorded_update(m, targets, cfg):
            phases.add(targets.zero_fill)
            return update_users(m, targets, cfg)

        monkeypatch.setattr(train, "group_entries", counted_group)
        monkeypatch.setattr(train.Targets, "__post_init__", counted_post_init)
        monkeypatch.setattr(train, "update_users", recorded_update)
        ds = random_dataset(np.random.default_rng(26), 6, 5, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=4, mode=mode, seed=0)
        train.train_quantum(ds, cfg)
        assert len(calls) == 1 and np.array_equal(calls[0][0], ds.uu) and calls[0][1] == ds.U
        assert len(validated) == 1
        assert phases == ({True} if mode == "recall" else {True, False})


def _from_file_text(tmp_path, text):
    path = tmp_path / "train.cfg"
    path.write_text(text)
    return train.TrainConfig.from_file(str(path))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp_path: _from_file_text(tmp_path, "D = 2\nmax_iter 4\n"), ParseError, "line 2: expected key=value"),
        (lambda tmp_path: train.Targets([0, 1], [0], [1.0, 1.0], False, 2, 2), InvalidInput, "parallel"),
        (lambda tmp_path: train.Targets([[0]], [[0]], [[1.0]], False, 2, 2), InvalidInput, "parallel"),
        (lambda tmp_path: train.init_quantum_users(0, 2, seed=0), InvalidInput, "positive sizes"),
        (lambda tmp_path: train.init_quantum_users(2, 0, seed=0), InvalidInput, "positive sizes"),
        (lambda tmp_path: train.init_quantum_users(2, 2, seed=-1), InvalidInput,
         "init_quantum_users: seed must be nonnegative, got -1"),
        (lambda tmp_path: train.TrainConfig(seed=-1), InvalidInput, "TrainConfig: seed must be nonnegative, got -1"),
        (lambda tmp_path: _from_file_text(tmp_path, "seed = -3\n"), ParseError,
         "TrainConfig: seed must be nonnegative, got -3"),
    ],
    ids=["config-no-equals", "targets-lengths", "targets-2d", "init-no-users", "init-no-dimension",
         "init-negative-seed", "config-negative-seed", "config-file-negative-seed"],
)
def test_rejects_malformed_input(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


class TestInit:
    def test_unit_trace_rank_one(self):
        users = train.init_quantum_users(6, 3, seed=0)
        traces = np.einsum("ukk->u", users).real
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)
        for rho in users:
            w = np.linalg.eigvalsh(rho)
            assert w.min() >= -1e-12
            assert abs(w[-1] - 1.0) <= 1e-12  # pure states

    def test_seeded(self):
        a = train.init_quantum_users(4, 2, seed=5)
        b = train.init_quantum_users(4, 2, seed=5)
        c = train.init_quantum_users(4, 2, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_real_field(self):
        users = train.init_quantum_users(3, 2, seed=0, field="real")
        assert not np.iscomplexobj(users)


class TestObjective:
    @pytest.mark.parametrize("zero_fill", [False, True])
    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    def test_matches_naive(self, zero_fill, kind):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 6, 5, density=0.6)
        if kind == "quantum":
            m = random_quantum_model(rng, 6, 5, 2)
        else:
            m = random_nnm_model(rng, 6, 5, 3)
        t = train.effective_targets(ds, zero_fill)
        assert abs(train.objective(m, t) - naive_objective(m, ds, zero_fill)) <= 1e-9

    def test_real_field_model(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 4, 4, density=0.7)
        m = random_quantum_model(rng, 4, 4, 2, field="real")
        t = train.effective_targets(ds, True)
        assert abs(train.objective(m, t) - naive_objective(m, ds, True)) <= 1e-9

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 6, 5, density=0.6)
        m = random_quantum_model(rng, 5, 5, 2)
        for zero_fill in (False, True):
            t = train.effective_targets(ds, zero_fill)
            with pytest.raises(InvalidInput, match="targets"):
                train.objective(m, t)
            with pytest.raises(InvalidInput, match="targets"):
                train.update_users(m, t, train.TrainConfig())

    def test_unit_objectives_sum_to_total(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 5, 4, density=0.8)
        m = random_quantum_model(rng, 5, 4, 2)
        for zero_fill in (False, True):
            t = train.effective_targets(ds, zero_fill)
            for side in ("user", "item"):
                own, quad = train._quadratic(m, t, side)
                assert abs(sum(quad.value(own)) - train.objective(m, t)) <= 1e-9


# Quantum models over every D and field the trainer offers, and the NNM kind.
_QUADRATIC_MODELS = [
    pytest.param("quantum", d, field, id=f"quantum-D{d}-{field}")
    for d in (1, 2, 3)
    for field in ("real", "complex")
] + [pytest.param("nnm", 3, "real", id="nnm-D3")]


class TestObservedQuadratic:
    @pytest.mark.parametrize("entries", ["entries", "no-entries", "repeated"])
    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("kind, d, field", _QUADRATIC_MODELS)
    def test_matches_naive_gram_stack(self, kind, d, field, side, entries):
        # User 0 and item 5 have no entries, so their subproblems are zero.
        # "repeated" lists one (user, item) pair twice: two entries, each
        # adding to the pair's Gram matrices, not one entry with summed targets.
        rng = np.random.default_rng(27)
        ds = random_dataset(rng, 7, 6, density=0.6)
        keep = (ds.uu != 0) & (ds.ii != 5) & (entries != "no-entries")
        uu, ii, values = ds.uu[keep], ds.ii[keep], ds.rr[keep] / 5.0
        if entries == "repeated":
            uu, ii, values = np.append(uu, uu[2]), np.append(ii, ii[2]), np.append(values, 0.3)
        t = train.Targets(uu, ii, values, False, 7, 6)
        if kind == "quantum":
            m = random_quantum_model(rng, 7, 6, d, field=field)
        else:
            m = random_nnm_model(rng, 7, 6, d)
        own, quad = train._quadratic(m, t, side)
        fix, units, others, n = (
            (m.flat_likes(), t.uu, t.ii, m.U) if side == "user" else (m.flat_users(), t.ii, t.uu, m.I)
        )
        want = naive_observed_quadratic(fix, units, others, t.values, n)
        for name, got, ref in zip(("gram", "cvec", "const", "lips"), quad, want):
            assert got.shape == ref.shape, name
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name
        empty_unit = 0 if side == "user" else 5
        assert not np.any(quad.gram[empty_unit]) and quad.lips[empty_unit] == 1e-12
        k = fix.shape[1]
        lower = np.tril_indices(k, -1)
        assert np.array_equal(quad.gram[:, lower[0], lower[1]], np.conj(quad.gram[:, lower[1], lower[0]]))
        assert np.array_equal(own, m.flat_users() if side == "user" else m.flat_likes())


class TestGradients:
    @pytest.mark.parametrize("zero_fill", [False, True])
    def test_quantum_user_gradient_fd(self, zero_fill):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 4, 5, density=0.7)
        m = random_quantum_model(rng, 4, 5, 2)
        t = train.effective_targets(ds, zero_fill)
        u = 1
        basis = hermitian_basis(m.D)
        g = train.user_gradient(m, t, u)

        def f(x):
            users = m.users.copy()
            users[u] = x
            return train.objective(models.QuantumModel(users, m.items), t)

        fd = fd_coefficients(f, m.users[u], basis)
        an = np.array([linalg.trace_inner(g, h) for h in basis])
        assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-12)

    @pytest.mark.parametrize("zero_fill", [False, True])
    def test_quantum_item_gradient_fd(self, zero_fill):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 5, 4, density=0.7)
        m = random_quantum_model(rng, 5, 4, 2)
        t = train.effective_targets(ds, zero_fill)
        i = 2
        basis = hermitian_basis(m.D)
        g = train.item_gradient(m, t, i)

        def f(x):
            items = m.items.copy()
            items[i, 0] = x
            items[i, 1] = np.eye(m.D) - x
            return train.objective(models.QuantumModel(m.users, items), t)

        fd = fd_coefficients(f, m.items[i, 0], basis)
        an = np.array([linalg.trace_inner(g, h) for h in basis])
        assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-12)

    def test_nnm_user_gradient_fd(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 4, 4, density=0.8)
        m = random_nnm_model(rng, 4, 4, 3)
        t = train.effective_targets(ds, False)
        u = 0
        g = train.user_gradient(m, t, u)
        directions = list(np.eye(m.D))

        def f(x):
            users = m.users.copy()
            users[u] = x
            return train.objective(models.NnmModel(users, m.items), t)

        fd = fd_coefficients(f, m.users[u], directions)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1e-12)


def _naive_update_side(m, ds, zero_fill, cfg, side):
    """Mirror of the batched update built from scalar loops."""
    tmap = {(int(u), int(i)): int(r) / ds.z_star for u, i, r in zip(ds.uu, ds.ii, ds.rr)}
    quantum = isinstance(m, models.QuantumModel)
    d = m.D
    uf = m.users.reshape(m.U, -1)
    ef = m.items[:, 0].reshape(m.I, -1)
    var, fix = (uf, ef) if side == "user" else (ef, uf)

    if zero_fill:
        pairs = lambda k: [(j, tmap.get((k, j) if side == "user" else (j, k), 0.0)) for j in range(fix.shape[0])]
        lips = 2.0 * float(np.linalg.eigvalsh(np.conj(fix).T @ fix)[-1].real)
        lips = max(lips, 1e-12)
        lips_of = lambda k: lips
    else:
        by_unit = {}
        for u, i in zip(ds.uu, ds.ii):
            k, j = (int(u), int(i)) if side == "user" else (int(i), int(u))
            by_unit.setdefault(k, []).append((j, tmap[(int(u), int(i))]))
        pairs = lambda k: by_unit.get(k, [])
        lips_of = lambda k: max(
            2.0 * sum(float(np.real(np.sum(np.conj(fix[j]) * fix[j]))) for j, _ in pairs(k)), 1e-12
        )

    def f_unit(k):
        def f(v):
            total = 0.0
            for j, t in pairs(k):
                total += (float(np.real(np.sum(np.conj(v) * fix[j]))) - t) ** 2
            return total

        return f

    def g_unit(k):
        def g(v):
            acc = np.zeros_like(v)
            for j, t in pairs(k):
                acc = acc + 2.0 * (float(np.real(np.sum(np.conj(v) * fix[j]))) - t) * fix[j]
            return acc

        return g

    if quantum:
        if side == "user":
            project = lambda v: linalg.project_to_spectrahedron(
                linalg.hermitianize(v.reshape(d, d))
            ).reshape(-1)
        else:
            project = lambda v: linalg.project_to_effect(linalg.hermitianize(v.reshape(d, d))).reshape(-1)
    else:
        if side == "user":
            project = linalg.project_to_simplex
        else:
            project = lambda v: np.clip(v, 0.0, 1.0)

    rows = [
        naive_pg_update(var[k], f_unit(k), g_unit(k), project, lips_of(k), cfg)
        for k in range(var.shape[0])
    ]
    return np.stack(rows)


def _update_dataset(rng, holes):
    """Random 5 x 4 ratings; with holes, user 0 and item 3 have no ratings, so
    their observed-phase subproblems are zero and their step bound floors."""
    ds = random_dataset(rng, 5, 4, density=0.6)
    if not holes:
        return ds
    keep = (ds.uu != 0) & (ds.ii != 3)
    return from_arrays(ds.uu[keep], ds.ii[keep], ds.rr[keep], U=5, I=4)


# Cases without holes keep their plain kind-zero_fill ids.
_UPDATE_CASES = [
    pytest.param(kind, zero_fill, holes, id=f"{kind}-{zero_fill}" + ("-holes" if holes else ""))
    for holes in (False, True)
    for zero_fill in (False, True)
    for kind in ("quantum", "nnm")
]


class TestUpdates:
    @pytest.mark.parametrize("kind, zero_fill, holes", _UPDATE_CASES)
    def test_update_users_matches_naive(self, kind, zero_fill, holes):
        rng = np.random.default_rng(6)
        ds = _update_dataset(rng, holes)
        m = (
            random_quantum_model(rng, 5, 4, 2)
            if kind == "quantum"
            else random_nnm_model(rng, 5, 4, 3)
        )
        cfg = train.TrainConfig(D=m.D, inner_iters=2, kind=kind)
        t = train.effective_targets(ds, zero_fill)
        got = train.update_users(m, t, cfg)
        want = _naive_update_side(m, ds, zero_fill, cfg, "user")
        np.testing.assert_allclose(got.users.reshape(m.U, -1), want, atol=1e-9)
        assert np.array_equal(got.items, m.items)

    @pytest.mark.parametrize("kind, zero_fill, holes", _UPDATE_CASES)
    def test_update_items_matches_naive(self, kind, zero_fill, holes):
        rng = np.random.default_rng(7)
        ds = _update_dataset(rng, holes)
        m = (
            random_quantum_model(rng, 5, 4, 2)
            if kind == "quantum"
            else random_nnm_model(rng, 5, 4, 3)
        )
        cfg = train.TrainConfig(D=m.D, inner_iters=2, kind=kind)
        t = train.effective_targets(ds, zero_fill)
        got = train.update_items(m, t, cfg)
        want = _naive_update_side(m, ds, zero_fill, cfg, "item")
        np.testing.assert_allclose(got.items[:, 0].reshape(m.I, -1), want, atol=1e-9)
        assert np.array_equal(got.users, m.users)

    def test_fixed_point_projects_once_per_inner_iteration(self, monkeypatch):
        # Each item rated once, so every item's observed-phase subproblem
        # reaches a fixed point, where a step can raise it by rounding; each
        # unit must still be projected exactly once per inner iteration.
        rng = np.random.default_rng(0)
        ds = from_arrays(
            rng.integers(0, 6, 12), np.arange(12), rng.integers(1, 6, 12), U=6, I=12
        )
        m = random_quantum_model(rng, 6, 12, 2)
        cfg = train.TrainConfig(D=2)
        t = train.effective_targets(ds, False)
        for _ in range(60):
            m = train.update_items(m, t, cfg)
        calls = []
        project = models.QuantumModel.project_likes
        monkeypatch.setattr(models.QuantumModel, "project_likes", lambda self, x: calls.append(1) or project(self, x))
        train.update_items(m, t, cfg)
        assert len(calls) == cfg.inner_iters

    def test_updates_never_increase_objective(self):
        rng = np.random.default_rng(8)
        for zero_fill in (False, True):
            ds = random_dataset(rng, 6, 5, density=0.5)
            m = random_quantum_model(rng, 6, 5, 2)
            cfg = train.TrainConfig(D=2)
            t = train.effective_targets(ds, zero_fill)
            before = train.objective(m, t)
            m2 = train.update_items(m, t, cfg)
            mid = train.objective(m2, t)
            m3 = train.update_users(m2, t, cfg)
            after = train.objective(m3, t)
            assert mid <= before + 1e-10
            assert after <= mid + 1e-10
            m3.validate()

    def test_binary_model_required(self):
        rng = np.random.default_rng(9)
        m = random_quantum_model(rng, 3, 3, 2, z=3)
        ds = random_dataset(rng, 3, 3)
        t = train.effective_targets(ds, False)
        with pytest.raises(InvalidInput):
            train.update_users(m, t, train.TrainConfig())

    @pytest.mark.parametrize("update", [train.update_users, train.update_items])
    def test_non_model_rejected(self, update):
        ds = random_dataset(np.random.default_rng(9), 3, 3)
        t = train.effective_targets(ds, False)
        with pytest.raises(InvalidInput):
            update(np.zeros((3, 2)), t, train.TrainConfig())
        with pytest.raises(InvalidInput):
            train.objective(None, t)

    def test_non_finite_raises(self):
        rng = np.random.default_rng(10)
        m = random_quantum_model(rng, 3, 3, 2)
        users = m.users.copy()
        users[0, 0, 0] = np.nan
        bad = models.QuantumModel(users, m.items)
        ds = random_dataset(rng, 3, 3, density=1.0)
        t = train.effective_targets(ds, False)
        with pytest.raises(NumericalFailure):
            train.update_users(bad, t, train.TrainConfig())


class TestConstraintResidual:
    def test_feasible_is_tiny(self):
        rng = np.random.default_rng(11)
        assert train.constraint_residual(random_quantum_model(rng, 3, 3, 2)) <= 1e-10
        assert train.constraint_residual(random_nnm_model(rng, 3, 3, 2)) <= 1e-10

    def test_detects_violation(self):
        rng = np.random.default_rng(12)
        m = random_quantum_model(rng, 2, 2, 2)
        assert train.constraint_residual(models.QuantumModel(m.users * 1.1, m.items)) > 1e-3

    @pytest.mark.parametrize(
        "kind, case",
        [
            ("quantum", "scaled user"),
            ("quantum", "non-Hermitian user"),
            ("quantum", "negative like"),
            ("quantum", "outcomes off one"),
            ("nnm", "scaled user"),
            ("nnm", "negative like"),
            ("nnm", "outcomes off one"),
        ],
    )
    def test_residual_covers_every_check(self, kind, case):
        rng = np.random.default_rng(14)
        make = random_quantum_model if kind == "quantum" else random_nnm_model
        m = make(rng, 3, 3, 2)
        users, items = m.users.copy(), m.items.copy()
        one = np.eye(2) if kind == "quantum" else np.ones(2)
        if case == "scaled user":
            users[0] *= 1.1
        elif case == "non-Hermitian user":
            users[0, 0, 1] += 1e-2
        elif case == "negative like":
            # The outcomes still sum to `one`; only the like effect leaves the cone.
            like = np.diag([-0.1, 0.5]) if kind == "quantum" else np.array([-0.1, 0.5])
            items[0] = np.stack([like, one - like])
        else:
            items[0, 0] *= 0.9
        bad = type(m)(users, items)
        with pytest.raises(InvalidInput):
            bad.validate()
        assert train.constraint_residual(bad) > 1e-3


class TestTrainLoop:
    def test_history_and_phases(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 8, 6, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=5, mode="mae", seed=0)
        m, hist = train.train_quantum(ds, cfg)
        m.validate()
        assert len(hist) == 5
        assert hist.phase == ["zero_fill", "zero_fill", "observed", "observed", "observed"]
        assert train.constraint_residual(m) <= 1e-8
        assert m.D == 2 and m.Z == 2

    @pytest.mark.parametrize(
        "kind, d, field", [("quantum", 2, "complex"), ("quantum", 3, "real"), ("nnm", 3, "complex")]
    )
    def test_every_update_stays_feasible(self, monkeypatch, kind, d, field):
        # Training records no residual; every half-sweep's model is checked here instead.
        checked = []

        def feasible(update):
            def wrapper(m, targets, cfg):
                out = update(m, targets, cfg)
                assert train.constraint_residual(out) <= 1e-8
                checked.append(targets.zero_fill)
                return out

            return wrapper

        monkeypatch.setattr(train, "update_items", feasible(train.update_items))
        monkeypatch.setattr(train, "update_users", feasible(train.update_users))
        ds = random_dataset(np.random.default_rng(24), 8, 6, density=0.6)
        cfg = train.TrainConfig(D=d, max_iter=4, mode="mae", field=field, kind=kind, seed=5)
        trainer = train.train_quantum if kind == "quantum" else train.train_nnm
        _, hist = trainer(ds, cfg)
        assert hist.phase == ["zero_fill", "zero_fill", "observed", "observed"]
        assert checked == [True] * 4 + [False] * 4

    @pytest.mark.parametrize("trainer", [train.train_quantum, train.train_nnm])
    def test_training_never_checks_feasibility(self, monkeypatch, trainer):
        calls = []
        residual = models._Model.residual

        def counted(self):
            calls.append(type(self).__name__)
            return residual(self)

        monkeypatch.setattr(models._Model, "residual", counted)
        ds = random_dataset(np.random.default_rng(25), 6, 5, density=0.6)
        _, hist = trainer(ds, train.TrainConfig(D=2, max_iter=3, seed=0))
        assert len(hist) == 3
        assert calls == []

    def test_recall_mode_stays_zero_filled(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, 6, 5, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=3, mode="recall", seed=0)
        _, hist = train.train_quantum(ds, cfg)
        assert hist.phase == ["zero_fill"] * 3

    def test_monotone_descent_within_phases(self):
        rng = np.random.default_rng(15)
        ds = planted_dataset(rng, 10, 8)
        cfg = train.TrainConfig(D=3, max_iter=6, mode="mae", zero_fill_sweeps=3, seed=1)
        _, hist = train.train_quantum(ds, cfg)
        objs, phases = hist.objective, hist.phase
        for k in range(1, len(objs)):
            if phases[k] == phases[k - 1]:
                assert objs[k] <= objs[k - 1] + 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, 6, 5, density=0.7)
        cfg = train.TrainConfig(D=2, max_iter=3, seed=42)
        m1, h1 = train.train_quantum(ds, cfg)
        m2, h2 = train.train_quantum(ds, cfg)
        assert np.array_equal(m1.users, m2.users)
        assert np.array_equal(m1.items, m2.items)
        assert h1.objective == h2.objective
        m3, _ = train.train_quantum(ds, train.TrainConfig(D=2, max_iter=3, seed=43))
        assert not np.array_equal(m1.users, m3.users)

    def test_nnm_training(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 6, 5, density=0.7)
        cfg = train.TrainConfig(D=3, max_iter=3, seed=0)
        m, hist = train.train_nnm(ds, cfg)
        m.validate()
        assert isinstance(m, models.NnmModel)
        assert len(hist) == 3

    def test_max_iter_zero(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, 4, 4, density=0.8)
        m, hist = train.train_quantum(ds, train.TrainConfig(D=2, max_iter=0, seed=0))
        m.validate()
        assert len(hist) == 0

    def test_planted_data_reaches_low_error(self):
        rng = np.random.default_rng(19)
        ds = planted_dataset(rng, 10, 6)
        cfg = train.TrainConfig(D=5, max_iter=12, mode="mae", zero_fill_sweeps=0, seed=2)
        m, hist = train.train_quantum(ds, cfg)
        t = train.effective_targets(ds, False)
        per_entry = hist.objective[-1] / len(ds)
        assert per_entry < 0.01

    def test_real_field_training(self):
        rng = np.random.default_rng(20)
        ds = random_dataset(rng, 5, 4, density=0.8)
        cfg = train.TrainConfig(D=2, max_iter=2, field="real", seed=0)
        m, _ = train.train_quantum(ds, cfg)
        m.validate()
        assert not np.iscomplexobj(m.users)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    def test_recorded_objective_matches_naive(self, kind, max_iter):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 7, 6, density=0.6)
        cfg = train.TrainConfig(D=2, max_iter=max_iter, zero_fill_sweeps=1, seed=3)
        trainer = train.train_quantum if kind == "quantum" else train.train_nnm
        m, hist = trainer(ds, cfg)
        zero_fill = max_iter == 1
        assert hist.phase[-1] == ("zero_fill" if zero_fill else "observed")
        assert abs(hist.objective[-1] - naive_objective(m, ds, zero_fill)) <= 1e-9

    def test_training_never_rescores_entries(self, monkeypatch):
        def no_scores(*args, **kwargs):
            raise AssertionError("training scored the targets entry by entry")

        monkeypatch.setattr(models, "score_entries", no_scores)
        monkeypatch.setattr(train, "score_entries", no_scores)
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 6, 5, density=0.6)
        m, hist = train.train_quantum(ds, train.TrainConfig(D=2, max_iter=3, seed=0))
        assert len(hist) == 3
        for zero_fill in (True, False):
            assert np.isfinite(train.objective(m, train.effective_targets(ds, zero_fill)))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_d2_never_reaches_lapack_eigensolvers(self, monkeypatch, field, d):
        # D = 2 projections and residual checks take the closed form; only the
        # 2-d Gram eigvalsh of the zero-fill step bound may call LAPACK. The
        # D = 3 run shows the dispatch stops at D = 2.
        eigvalsh = np.linalg.eigvalsh

        def no_eigh(a, *args, **kwargs):
            raise AssertionError(f"eigh on shape {np.shape(a)}")

        def gram_eigvalsh_only(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise AssertionError(f"eigvalsh on shape {np.shape(a)}")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", gram_eigvalsh_only)
        ds = random_dataset(np.random.default_rng(23), 7, 6, density=0.6)
        cfg = train.TrainConfig(D=d, max_iter=3, zero_fill_sweeps=1, field=field, seed=4)
        if d == 3:
            with pytest.raises(AssertionError, match="eigh on shape"):
                train.train_quantum(ds, cfg)
            return
        m, hist = train.train_quantum(ds, cfg)
        assert hist.phase == ["zero_fill", "observed", "observed"]
        assert train.constraint_residual(m) <= 1e-8
