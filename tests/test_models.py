import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrec import models
from psdrec.exceptions import InvalidInput, NotSimultaneouslyDiagonalizable, ParseError

from _oracles import best_permutation_error, naive_load_model
from conftest import (
    from_arrays,
    random_dataset,
    random_density,
    random_nnm_model,
    random_povm,
    random_quantum_model,
)


class TestModelValidation:
    def test_valid_models_pass(self):
        rng = np.random.default_rng(0)
        random_quantum_model(rng, 3, 4, 2).validate()
        random_nnm_model(rng, 3, 4, 2).validate()

    def test_quantum_bad_trace(self):
        rng = np.random.default_rng(1)
        m = random_quantum_model(rng, 2, 2, 2)
        bad = models.QuantumModel(users=m.users * 1.5, items=m.items)
        with pytest.raises(InvalidInput):
            bad.validate()

    def test_quantum_not_psd(self):
        rng = np.random.default_rng(2)
        m = random_quantum_model(rng, 2, 2, 2)
        users = m.users.copy()
        users[0] = np.diag([1.5, -0.5])
        with pytest.raises(InvalidInput):
            models.QuantumModel(users=users, items=m.items).validate()

    def test_quantum_not_hermitian(self):
        rng = np.random.default_rng(3)
        m = random_quantum_model(rng, 2, 2, 2)
        users = m.users.copy()
        users[0, 0, 1] += 1e-3
        with pytest.raises(InvalidInput):
            models.QuantumModel(users=users, items=m.items).validate()

    def test_quantum_effects_must_sum_to_identity(self):
        rng = np.random.default_rng(4)
        m = random_quantum_model(rng, 2, 2, 2)
        items = m.items.copy()
        items[0, 0] *= 0.9
        with pytest.raises(InvalidInput):
            models.QuantumModel(users=m.users, items=items).validate()

    def test_nnm_user_off_simplex(self):
        rng = np.random.default_rng(5)
        m = random_nnm_model(rng, 2, 2, 3)
        users = m.users.copy()
        users[0, 0] += 0.1
        with pytest.raises(InvalidInput):
            models.NnmModel(users=users, items=m.items).validate()

    def test_nnm_items_must_sum_to_ones(self):
        rng = np.random.default_rng(6)
        m = random_nnm_model(rng, 2, 2, 3)
        items = m.items.copy()
        items[0, 0, 0] += 0.1
        with pytest.raises(InvalidInput):
            models.NnmModel(users=m.users, items=items).validate()

    def test_non_finite_entries_fail(self):
        rng = np.random.default_rng(33)
        for m in (random_quantum_model(rng, 2, 2, 2), random_nnm_model(rng, 2, 2, 2)):
            for stack in (m.users, m.items):
                bad = stack.copy()
                bad.flat[0] = np.nan
                parts = (bad, m.items) if stack is m.users else (m.users, bad)
                with pytest.raises(InvalidInput):
                    type(m)(*parts).validate()

    def test_residual_is_nan_when_validate_fails_on_nan(self):
        # The NaN sits in an item, so a check that passes comes before it.
        like = np.array([[np.nan, 0.0], [0.0, 0.5]])
        for m in (
            models.NnmModel(users=[[0.5, 0.5]], items=[[[np.nan, 0.5], [0.5, 0.5]]]),
            models.QuantumModel(users=[np.eye(2) / 2], items=[[like, np.eye(2) - like]]),
        ):
            with pytest.raises(InvalidInput):
                m.validate()
            assert np.isnan(m.residual())

    def test_shape_checks(self):
        with pytest.raises(InvalidInput):
            models.QuantumModel(users=np.zeros((2, 2, 2)), items=np.zeros((2, 1, 2, 2)))
        with pytest.raises(InvalidInput):
            models.NnmModel(users=np.zeros((2, 3)), items=np.zeros((2, 2, 4)))
        with pytest.raises(InvalidInput, match="NnmModel: need Z >= 2"):
            models.NnmModel(users=np.zeros((2, 3)), items=np.zeros((2, 1, 3)))
        with pytest.raises(InvalidInput, match=r"QuantumModel: expected users \(U, D, D\)"):
            models.QuantumModel(users=np.zeros((2, 2, 3)), items=np.zeros((2, 2, 2, 3)))
        with pytest.raises(InvalidInput, match=r"NnmModel: expected users \(U, D\)"):
            models.NnmModel(users=np.zeros((2, 3, 3)), items=np.zeros((2, 2, 3, 3)))

    def test_properties(self):
        rng = np.random.default_rng(7)
        m = random_quantum_model(rng, 3, 5, 2, z=4)
        assert (m.U, m.I, m.D, m.Z) == (3, 5, 2, 4)


class TestPredict:
    def test_quantum_is_trace(self):
        rng = np.random.default_rng(8)
        m = random_quantum_model(rng, 3, 3, 3, z=3)
        for z in (1, 2, 3):
            want = float(np.real(np.trace(m.users[1] @ m.items[2, z - 1])))
            got = models.quantum_predict(m, 1, 2, z)
            assert abs(got - np.clip(want, 0, 1)) <= 1e-12

    def test_nnm_is_dot(self):
        rng = np.random.default_rng(9)
        m = random_nnm_model(rng, 3, 3, 4, z=3)
        want = float(np.dot(m.items[0, 1], m.users[2]))
        assert abs(models.nnm_predict(m, 2, 0, 2) - np.clip(want, 0, 1)) <= 1e-12

    def test_dispatch_and_types(self):
        rng = np.random.default_rng(10)
        q = random_quantum_model(rng, 2, 2, 2)
        n = random_nnm_model(rng, 2, 2, 2)
        assert isinstance(models.predict(q, 0, 0, 1), float)
        assert isinstance(models.predict(n, 0, 0, 1), float)
        with pytest.raises(InvalidInput):
            models.predict("nope", 0, 0, 1)
        with pytest.raises(InvalidInput):
            models.nnm_predict(q, 0, 0, 1)
        with pytest.raises(InvalidInput):
            models.quantum_predict(n, 0, 0, 1)

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(30)
        for m in (random_quantum_model(rng, 2, 2, 2), random_nnm_model(rng, 2, 2, 2)):
            users = m.users.copy()
            users[0].flat[0] = np.nan
            with pytest.raises(InvalidInput, match="non-finite"):
                models.predict(type(m)(users, m.items), 0, 1, 1)

    def test_index_validation(self):
        rng = np.random.default_rng(11)
        m = random_quantum_model(rng, 2, 3, 2)
        with pytest.raises(InvalidInput):
            models.predict(m, 2, 0, 1)
        with pytest.raises(InvalidInput):
            models.predict(m, 0, 3, 1)
        with pytest.raises(InvalidInput):
            models.predict(m, 0, 0, 0)
        with pytest.raises(InvalidInput):
            models.predict(m, 0, 0, 3)
        with pytest.raises(InvalidInput):
            models.predict(m, -1, 0, 1)

    def test_clamped_to_unit_interval(self):
        # numerically feasible models can still produce tiny negatives
        users = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
        e1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        m = models.QuantumModel(users=users, items=np.stack([np.stack([e1, np.eye(2) - e1])]))
        assert models.predict(m, 0, 0, 1) == 0.0
        assert models.predict(m, 0, 0, 2) == 1.0


class TestScores:
    def test_score_items_matches_predict(self):
        rng = np.random.default_rng(12)
        m = random_quantum_model(rng, 4, 6, 2)
        scores = models.score_items(m, 2)
        assert scores.shape == (6,)
        for i in range(6):
            raw = float(np.real(np.trace(m.users[2] @ m.items[i, 0])))
            assert abs(scores[i] - raw) <= 1e-12

    def test_score_entries_matches_loop(self):
        rng = np.random.default_rng(13)
        for m in (random_quantum_model(rng, 5, 4, 3), random_nnm_model(rng, 5, 4, 3)):
            uu = rng.integers(0, 5, size=40)
            ii = rng.integers(0, 4, size=40)
            got = models.score_entries(m, uu, ii)
            for k in range(40):
                want = models.score_items(m, int(uu[k]))[ii[k]]
                assert abs(got[k] - want) <= 1e-12

    def test_score_entries_chunking(self, monkeypatch):
        rng = np.random.default_rng(14)
        m = random_quantum_model(rng, 3, 3, 2)
        uu = rng.integers(0, 3, size=17)
        ii = rng.integers(0, 3, size=17)
        whole = models.score_entries(m, uu, ii)
        monkeypatch.setattr(models, "_SCORE_BLOCK", 4 * m.D**2)
        np.testing.assert_allclose(models.score_entries(m, uu, ii), whole, atol=0)

    def test_score_entries_peak_memory_bounded_by_the_block(self):
        # 200k gathered entries of 9 complex values per side would take 58 MB at once
        rng = np.random.default_rng(16)
        m = random_quantum_model(rng, 50, 40, 3)
        uu = rng.integers(0, m.U, size=200_000)
        ii = rng.integers(0, m.I, size=200_000)
        tracemalloc.start()
        try:
            models.score_entries(m, uu, ii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_score_entries_validates(self):
        rng = np.random.default_rng(15)
        m = random_quantum_model(rng, 3, 3, 2)
        for uu, ii, message in (
            (np.array([3]), np.array([0]), "user index out of range"),
            (np.array([0, 1]), np.array([0]), "1-D index arrays of one length"),
            (np.array([0.5]), np.array([0]), "integer index"),
            (np.array([0]), np.array([True]), "integer index"),
            (np.array([[0]]), np.array([[0]]), "integer index or 1-D index array"),
            (np.int64(0), np.int64(0), "1-D index arrays"),
        ):
            with pytest.raises(InvalidInput, match=message):
                models.score_entries(m, uu, ii)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: random_nnm_model(rng, 5, 7, 3),
            lambda rng: random_quantum_model(rng, 5, 7, 3, field="real"),
            lambda rng: random_quantum_model(rng, 5, 7, 3),
        ],
        ids=["nnm", "real", "complex"],
    )
    def test_score_items_index_array_stacks_rows(self, make):
        m = make(np.random.default_rng(17))
        for idx in (np.array([4, 0, 4, 2]), np.arange(5, dtype=np.int32), [1]):
            got = models.score_items(m, idx)
            want = np.stack([models.score_items(m, int(u)) for u in idx])
            assert got.shape == (len(idx), m.I)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert models.score_items(m, np.array([], dtype=np.int64)).shape == (0, m.I)
        for bad in (-1, 5, np.int64(5), np.array([0, 5]), np.array([-1, 2])):
            with pytest.raises(InvalidInput, match="out of range"):
                models.score_items(m, bad)
        for bad in (1.0, np.array([0.0, 1.0]), np.array([True]), np.array([[0, 1]]), "0"):
            with pytest.raises(InvalidInput, match="integer index"):
                models.score_items(m, bad)


_MAKERS = [
    lambda rng: random_nnm_model(rng, 4, 5, 3),
    lambda rng: random_quantum_model(rng, 4, 5, 3, field="real"),
    lambda rng: random_quantum_model(rng, 4, 5, 3),
]


@pytest.mark.parametrize("make", _MAKERS, ids=["nnm", "real", "complex"])
class TestCoordinateRows:
    def test_rows_are_computed_once_and_read_only(self, make):
        m = make(np.random.default_rng(18))
        for rows, fresh in ((m.flat_users(), m._rows(m.users)), (m.flat_likes(), m._rows(m.items[:, 0]))):
            assert not rows.flags.writeable
            assert rows.dtype == fresh.dtype and rows.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                rows[0, 0] = 0.5
        assert m.flat_users() is m.flat_users() and m.flat_likes() is m.flat_likes()
        # The model's own arrays stay writeable: an NNM's rows view them.
        assert m.users.flags.writeable and m.items.flags.writeable

    def test_rebuilt_models_convert_their_own_rows(self, make, monkeypatch):
        # The rebuilt side converts its own rows; the unchanged side's rows
        # are the parent's read-only object, not a second conversion.
        m = make(np.random.default_rng(19))
        user_rows, like_rows = m.flat_users(), m.flat_likes()
        converted, rows_of = [], m._rows
        monkeypatch.setattr(type(m), "_rows", lambda self, states: converted.append(1) or rows_of(states))
        for rebuilt, own, kept, parent_rows in (
            (m.with_users(user_rows), "flat_users", "flat_likes", like_rows),
            (m.with_likes(like_rows), "flat_likes", "flat_users", user_rows),
        ):
            assert getattr(rebuilt, kept)() is parent_rows and not converted
            rows = getattr(rebuilt, own)()
            assert converted == [1] and rows is not user_rows and rows is not like_rows
            converted.clear()
            for rows, states in ((rebuilt.flat_users(), rebuilt.users), (rebuilt.flat_likes(), rebuilt.items[:, 0])):
                assert not rows.flags.writeable
                assert rows.tobytes() == rows_of(states).tobytes()

    def test_scorers_read_the_stored_rows(self, make, monkeypatch):
        m = make(np.random.default_rng(20))
        uu, ii = np.array([0, 3, 1, 1]), np.array([4, 0, 2, 2])
        user_rows, like_rows = m._rows(m.users), m._rows(m.items[:, 0])
        m.flat_users(), m.flat_likes()
        monkeypatch.setattr(type(m), "_rows", lambda *args: pytest.fail("rows converted again"))
        assert np.array_equal(models.score_items(m, np.arange(m.U)), user_rows @ like_rows.T)
        want = np.einsum("nk,nk->n", user_rows[uu], like_rows[ii])
        assert np.array_equal(models.score_entries(m, uu, ii), want)


class TestEmbed:
    def test_diagonal_structure(self):
        rng = np.random.default_rng(16)
        n = random_nnm_model(rng, 3, 4, 3, z=4)
        q = models.embed_nnm(n)
        q.validate()
        assert q.D == n.D and q.Z == n.Z
        for stack in (q.users, q.items.reshape(-1, q.D, q.D)):
            off = stack - np.einsum("kab,ab->kab", stack, np.eye(q.D))
            assert float(np.max(np.abs(off))) == 0.0

    def test_prediction_equality(self):
        rng = np.random.default_rng(17)
        n = random_nnm_model(rng, 4, 5, 3, z=3)
        q = models.embed_nnm(n)
        for u in range(4):
            for i in range(5):
                for z in range(1, 4):
                    assert abs(models.predict(n, u, i, z) - models.predict(q, u, i, z)) <= 1e-12

    def test_rejects_quantum(self):
        rng = np.random.default_rng(18)
        with pytest.raises(InvalidInput):
            models.embed_nnm(random_quantum_model(rng, 2, 2, 2))


class TestOverfit:
    def test_zero_training_error(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, 9, 7, density=0.4)
        m = models.overfit_model(ds)
        m.validate()
        assert m.D == ds.U and m.Z == ds.z_star
        for u, i, r in zip(ds.uu, ds.ii, ds.rr):
            assert abs(models.predict(m, int(u), int(i), int(r)) - 1.0) <= 1e-12

    def test_rank_bound(self):
        rng = np.random.default_rng(20)
        ds = random_dataset(rng, 12, 6, density=0.3)
        m = models.overfit_model(ds)
        profile = models.rank_profile(m)
        per_item = np.bincount(ds.ii, minlength=ds.I)
        for i in range(ds.I):
            for z in range(2, m.Z + 1):
                assert profile.effect_ranks[i, z - 1] <= per_item[i]

    def test_memory_bound_checked_before_allocating(self, monkeypatch):
        # ML-100K shape: 8 (U^3 + I Z U^2) bytes is 6.7 + 59.8 GB.
        ds = from_arrays([0, 1, 942], [0, 5, 1681], [5, 3, 1], U=943, I=1682)

        def no_alloc(*args, **kwargs):
            raise AssertionError("overfit_model allocated before checking its size")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(InvalidInput, match="limit"):
            models.overfit_model(ds)

    def test_empty_dataset_rejected(self):
        ds = random_dataset(np.random.default_rng(21), 4, 4)
        empty = ds.subset(np.array([], dtype=np.int64))
        with pytest.raises(InvalidInput):
            models.overfit_model(empty)


class TestRecover:
    def _planted(self, rng, d, z, n_items):
        n_users = n_items * z
        users = rng.random((n_users, d)) + 1e-2
        users /= users.sum(axis=1, keepdims=True)
        items = rng.random((n_items, z, d)) + 1e-2
        items /= items.sum(axis=1, keepdims=True)
        return models.NnmModel(users=users, items=items)

    def _haar_unitary(self, rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def _rotated(self, q, u):
        return models.QuantumModel(
            users=np.einsum("ab,kbc,dc->kad", u, q.users, np.conj(u)),
            items=np.einsum("ab,kzbc,dc->kzad", u, q.items, np.conj(u)),
        )

    def test_round_trip_up_to_permutation(self):
        rng = np.random.default_rng(22)
        for trial in range(5):
            d = z = int(rng.integers(2, 5))
            nnm = self._planted(rng, d, z, n_items=3)
            rotated = self._rotated(models.embed_nnm(nnm), self._haar_unitary(rng, d))
            rotated.validate()
            rec = models.recover_nnm(rotated, tol=1e-6, seed=trial)
            rec.validate()
            assert best_permutation_error(rec, nnm) <= 1e-6

    def test_memory_linear_in_matrix_count(self):
        # k = U + I Z = 2000 matrices of D=2 take 128 KB; all k^2 pairwise
        # products of them would take about 400 MB.
        rng = np.random.default_rng(33)
        nnm = self._planted(rng, 2, 2, n_items=500)
        rotated = self._rotated(models.embed_nnm(nnm), self._haar_unitary(rng, 2))
        tracemalloc.start()
        try:
            rec = models.recover_nnm(rotated)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert best_permutation_error(rec, nnm) <= 1e-6

    def test_rejects_one_item_off_the_common_basis(self):
        # Among 2000 commuting matrices, one item's POVM turned by 45 degrees
        # stays a POVM but has off-diagonal entries 0.35 in the common basis.
        rng = np.random.default_rng(34)
        q = models.embed_nnm(self._planted(rng, 2, 2, n_items=500))
        turn = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        like = turn @ np.diag([0.9, 0.2]) @ turn.T
        items = q.items.copy()
        items[7] = [like, np.eye(2) - like]
        m = self._rotated(models.QuantumModel(q.users, items), self._haar_unitary(rng, 2))
        m.validate()
        with pytest.raises(NotSimultaneouslyDiagonalizable, match="off-diagonal norm"):
            models.recover_nnm(m)

    def test_rejects_noncommuting(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        e1 = np.diag([1.0, 0.0]).astype(complex)
        users = np.stack([plus, np.diag([1.0, 0.0]).astype(complex)])
        items = np.stack([np.stack([e1, np.eye(2) - e1])])
        m = models.QuantumModel(users=users, items=items)
        with pytest.raises(NotSimultaneouslyDiagonalizable):
            models.recover_nnm(m)

    def test_rejects_nan(self):
        users = np.array([[[np.nan, 0.0], [0.0, 1.0]]])
        items = np.array([[np.eye(2), np.zeros((2, 2))]])
        with pytest.raises(NotSimultaneouslyDiagonalizable, match="norm nan"):
            models.recover_nnm(models.QuantumModel(users=users, items=items))

    def test_rejects_negative_seed(self):
        m = models.embed_nnm(self._planted(np.random.default_rng(24), 2, 2, n_items=3))
        with pytest.raises(InvalidInput, match="recover_nnm: seed must be an integer >= 0, got -1"):
            models.recover_nnm(m, seed=-1)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, -np.inf])
    def test_rejects_bad_tol(self, tol):
        # A bad tol is the argument's fault: on this exactly diagonal model
        # it raised NotSimultaneouslyDiagonalizable ("norm 0.000e+00, above tol nan").
        m = models.embed_nnm(self._planted(np.random.default_rng(24), 2, 2, n_items=3))
        with pytest.raises(InvalidInput, match=f"recover_nnm: tol must be finite and nonnegative, got {tol!r}"):
            models.recover_nnm(m, tol=tol)
        assert isinstance(models.recover_nnm(m, tol=0.0), models.NnmModel)

    def test_rejects_nnm_input(self):
        rng = np.random.default_rng(23)
        with pytest.raises(InvalidInput):
            models.recover_nnm(random_nnm_model(rng, 2, 2, 2))

    def test_almost_commuting_fails_strict_tolerance(self):
        # off-diagonal 1e-5 puts the commutator around 2e-6, far above a
        # 1e-12 tolerance but below the default 1e-6 validate slack
        e1 = np.diag([1.0, 0.0]).astype(complex)
        e1[0, 1] = e1[1, 0] = 1e-5
        users = np.stack([np.diag([0.4, 0.6]).astype(complex)])
        items = np.stack([np.stack([e1, np.eye(2) - e1])])
        m = models.QuantumModel(users=users, items=items)
        with pytest.raises(NotSimultaneouslyDiagonalizable, match="off-diagonal norm"):
            models.recover_nnm(m, tol=1e-12)


class TestRankProfile:
    def test_known_ranks(self):
        e_like = np.diag([1.0, 1.0, 0.0]).astype(complex)
        users = np.stack([np.eye(3, dtype=complex) / 3])
        items = np.stack([np.stack([e_like, np.eye(3) - e_like])])
        m = models.QuantumModel(users=users, items=items)
        profile = models.rank_profile(m)
        assert profile.effect_ranks[0, 0] == 2
        assert profile.effect_ranks[0, 1] == 1

    def test_zero_effect_has_rank_zero(self):
        e_like = np.eye(2, dtype=complex)
        users = np.stack([np.eye(2, dtype=complex) / 2])
        items = np.stack([np.stack([e_like, np.eye(2) - e_like])])
        profile = models.rank_profile(models.QuantumModel(users=users, items=items))
        assert profile.effect_ranks[0, 1] == 0


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(24)
        for m in (random_quantum_model(rng, 3, 4, 2, z=3), random_nnm_model(rng, 3, 4, 2, z=3)):
            path = tmp_path / "model.psdrec"
            models.save_model(m, str(path))
            loaded = models.load_model(str(path))
            assert type(loaded) is type(m)
            assert np.array_equal(loaded.users, m.users)
            assert np.array_equal(loaded.items, m.items)

    def test_golden_bytes(self, tmp_path):
        # 17 significant digits, "re,im" pairs in a complex file (real
        # matrices included), and -0 and 1e-300 kept as written.
        q = models.QuantumModel(
            users=np.array([[[0.75, 0.25j], [-0.25j, 0.25]]]),
            items=np.array([[[[1 / 3, 0.0], [0.0, 1e-300]], [[2 / 3, -0.0], [-0.0, 1.0]]]]),
        )
        n = models.NnmModel(users=np.array([[0.1, 0.9]]), items=np.array([[[0.1, 1e-300], [0.9, 1.0]]]))
        path = tmp_path / "model.psdrec"
        models.save_model(q, str(path))
        assert path.read_bytes() == (
            b"PSDREC v1 | kind=quantum | 2 | 1 | 1 | 2 | field=complex\n"
            b"user 0 0.75,0 0,0.25 -0,-0.25 0.25,0\n"
            b"item 0 1 0.33333333333333331,0 0,0 0,0 1e-300,0\n"
            b"item 0 2 0.66666666666666663,0 -0,0 -0,0 1,0\n"
        )
        models.save_model(n, str(path))
        assert path.read_bytes() == (
            b"PSDREC v1 | kind=nnm | 2 | 1 | 1 | 2 | field=real\n"
            b"user 0 0.10000000000000001 0.90000000000000002\n"
            b"item 0 1 0.10000000000000001 1e-300\n"
            b"item 0 2 0.90000000000000002 1\n"
        )

    _VALID = (
        "PSDREC v1 | kind=quantum | 2 | 1 | 1 | 2 | field=real\n"
        "user 0 1 0 0 0\nitem 0 1 1 0 0 0\nitem 0 2 0 0 0 1\n"
    )

    @pytest.mark.parametrize(
        "old, new, message",
        [
            pytest.param(_VALID, "", ": empty model file", id="empty"),
            pytest.param(
                "| 2 |",
                "| two |",
                " line 1: bad header 'PSDREC v1 | kind=quantum | two | 1 | 1 | 2 | field=real'",
                id="header-number",
            ),
            pytest.param(
                "kind=quantum",
                "quantum",
                " line 1: bad header 'PSDREC v1 | quantum | 2 | 1 | 1 | 2 | field=real'",
                id="header-key",
            ),
            pytest.param("| 1 | 1 |", "| 0 | 1 |", " line 1: bad sizes in header", id="no-users"),
            pytest.param("| 2 | field", "| 1 | field", " line 1: bad sizes in header", id="one-outcome"),
            pytest.param("user 0", "usr 0", " line 2: unknown record 'usr'", id="unknown-record"),
            pytest.param("item 0 1 1 0 0 0", "item 0 1 1 0 0", " line 3: expected 4 entries", id="entry-count"),
            pytest.param("user 0", "user 1", " line 2: user index 1 out of range", id="user-range"),
            pytest.param("item 0 2", "item 0 3", " line 4: item record (0, 3) out of range", id="item-range"),
            # The blank line counts: the bad token sits on line 3.
            pytest.param("real\nuser 0 1 0", "real\n\nuser 0 1 x", " line 3: bad numeric token 'x'", id="numeric-token"),
        ],
    )
    def test_parse_errors_name_their_line(self, tmp_path, old, new, message):
        path = tmp_path / "model.psdrec"
        path.write_text(self._VALID.replace(old, new, 1))
        with pytest.raises(ParseError) as exc_info:
            models.load_model(str(path))
        assert str(exc_info.value) == f"{path}{message}"

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\t"])
    def test_lines_end_only_at_newlines(self, tmp_path, mark):
        # str.splitlines would also end a line at these marks (\x1f and \t
        # aside) and count the user record below as two records.
        text = self._VALID.replace("user 0 1 0", f"user 0 1{mark}0", 1)
        path = tmp_path / "model.psdrec"
        path.write_text(text)
        assert np.array_equal(models.load_model(str(path)).users, [np.diag([1.0, 0.0])])
        path.write_text(text.replace("item 0 2 0", "item 0 2 y", 1))
        with pytest.raises(ParseError) as exc_info:
            models.load_model(str(path))
        assert str(exc_info.value) == f"{path} line 4: bad numeric token 'y'"

    def test_non_finite_entry_named_before_the_hermitian_check(self, tmp_path):
        # inf - inf in the Hermitian check would warn and report a deviation of nan.
        path = tmp_path / "model.psdrec"
        path.write_text(self._VALID.replace("user 0 1 0", "user 0 inf 0", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="QuantumModel: a user state has a non-finite entry"):
                models.load_model(str(path))
            items = np.stack([np.eye(2), np.diag([np.inf, 0.0])])[None]
            m = models.QuantumModel(users=[np.eye(2) / 2], items=items)
            with pytest.raises(InvalidInput, match="QuantumModel: an item effect has a non-finite entry"):
                m.validate()
            assert np.isnan(m.residual())

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_line_endings_counted_like_the_ratings_loaders(self, tmp_path, newline):
        path = tmp_path / "model.psdrec"
        text = self._VALID.replace("item 0 1 1", "item 0 1 z", 1)
        path.write_bytes(text.encode().replace(b"\n", newline))
        with pytest.raises(ParseError) as exc_info:
            models.load_model(str(path))
        assert str(exc_info.value) == f"{path} line 3: bad numeric token 'z'"

    @pytest.mark.parametrize("n_items", [1, 1024])
    def test_comma_count_checked_per_token(self, tmp_path, n_items):
        # A token without a comma and one with two balance out in a count
        # over the whole record; the fault is named however many records follow.
        path = tmp_path / "model.psdrec"
        items = "".join(f"item {i} {z} 0,0 0,0 0,0 0,0\n" for i in range(n_items) for z in (1, 2))
        path.write_text(
            f"PSDREC v1 | kind=quantum | 2 | 1 | {n_items} | 2 | field=complex\n"
            "user 0 1 0.5,0,0 0,0 0.5,0\n" + items
        )
        with pytest.raises(ParseError) as exc_info:
            models.load_model(str(path))
        assert str(exc_info.value) == f"{path} line 2: bad numeric token '1'"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("user 1 ", "repeated record 'user 1'"),
            ("usr 1 ", "unknown record 'usr'"),
            ("user 9 ", "user index 9 out of range"),
            ("user x ", "bad record index 'x'"),
        ],
    )
    def test_bad_token_before_a_structural_fault_wins(self, tmp_path, fault, message):
        rng = np.random.default_rng(35)
        path = tmp_path / "model.psdrec"
        for m in (random_quantum_model(rng, 4, 2, 2), random_nnm_model(rng, 4, 2, 2)):
            models.save_model(m, str(path))
            lines = path.read_text().split("\n")
            tokens = lines[2].split()
            token = "1,2,3" if tokens[2].count(",") else "1,2"
            lines[2] = " ".join(tokens[:2] + [token] + tokens[3:])  # user 1, line 3
            lines[4] = fault + lines[4].split(" ", 2)[2]  # user 3, line 5
            path.write_text("\n".join(lines))
            with pytest.raises(ParseError) as exc_info:
                models.load_model(str(path))
            assert str(exc_info.value) == f"{path} line 3: bad numeric token {token!r}"
            lines[2] = " ".join(tokens)
            path.write_text("\n".join(lines))
            with pytest.raises(ParseError) as exc_info:
                models.load_model(str(path))
            assert str(exc_info.value) == f"{path} line 5: {message}"

    def test_blank_record_lines_skipped(self, tmp_path):
        path = tmp_path / "model.psdrec"
        path.write_text(self._VALID.replace("\n", "\n\n  \n", 2))
        m = models.load_model(str(path))
        assert np.array_equal(m.users, [np.diag([1.0, 0.0])])
        assert np.array_equal(m.items, [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]])

    def test_header_contents(self, tmp_path):
        rng = np.random.default_rng(25)
        m = random_quantum_model(rng, 2, 3, 2)
        path = tmp_path / "model.psdrec"
        models.save_model(m, str(path))
        header = path.read_text().splitlines()[0]
        assert header.startswith("PSDREC v1")
        assert "kind=quantum" in header

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(26)
        m = random_quantum_model(rng, 2, 2, 2)
        path = tmp_path / "model.psdrec"
        models.save_model(m, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            models.load_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.psdrec"
        path.write_text("NOPE v9 | kind=quantum | 2 | 1 | 1 | 2 | field=complex\n")
        with pytest.raises(ParseError):
            models.load_model(str(path))

    def test_complex_nnm_rejected(self, tmp_path):
        # Loading it would drop the imaginary parts without a word.
        path = tmp_path / "model.psdrec"
        path.write_text(
            "PSDREC v1 | kind=nnm | 2 | 1 | 1 | 2 | field=complex\n"
            "user 0 0.5,7 0.5,0\nitem 0 1 0.5,3 0.5,0\nitem 0 2 0.5,0 0.5,0\n"
        )
        with pytest.raises(ParseError, match="line 1: bad header"):
            models.load_model(str(path))

    def test_corrupt_value_fails_validation(self, tmp_path):
        rng = np.random.default_rng(27)
        m = random_quantum_model(rng, 2, 2, 2)
        path = tmp_path / "model.psdrec"
        models.save_model(m, str(path))
        text = path.read_text()
        lines = text.splitlines()
        for k, line in enumerate(lines):
            if line.startswith("user 0"):
                parts = line.split()
                parts[2] = "9.5,0"
                lines[k] = " ".join(parts)
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises((InvalidInput, ParseError)):
            models.load_model(str(path))
        parts[2] = "nan,0"
        lines[k] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises((InvalidInput, ParseError)):
            models.load_model(str(path))
        # A record index that is not an integer names its line.
        for prefix, bad in (("user 0 ", "user x "), ("item 1 2 ", "item 1 y ")):
            k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
            broken = lines[:k] + [bad + lines[k][len(prefix) :]] + lines[k + 1 :]
            path.write_text("\n".join(broken) + "\n")
            with pytest.raises(ParseError, match=f"line {k + 1}"):
                models.load_model(str(path))

    def test_non_ascii_byte(self, tmp_path):
        rng = np.random.default_rng(29)
        path = tmp_path / "model.psdrec"
        models.save_model(random_quantum_model(rng, 2, 2, 2), str(path))
        path.write_bytes(path.read_bytes().replace(b"user 1", b"user\xe9 1"))
        with pytest.raises(ParseError):
            models.load_model(str(path))
        # Text that is not ASCII outranks a bad header, however far past the
        # header's line the byte sits.
        models.save_model(random_quantum_model(rng, 400, 2, 2), str(path))
        text = path.read_bytes()
        assert len(text) > 2**16
        path.write_bytes(b"PSDREC v9" + text[len(b"PSDREC v1") : -9] + b"\xe9" + text[-9:])
        with pytest.raises(ParseError) as exc_info:
            models.load_model(str(path))
        assert str(exc_info.value) == f"{path}: not ASCII text"

    @pytest.mark.parametrize(
        "header",
        [
            "PSDREC v1 | kind=quantum | 2 | 100000000000 | 1 | 2 | field=complex",
            "PSDREC v1 | kind=quantum | 1000000 | 1 | 1 | 2 | field=complex",
        ],
    )
    def test_header_sizes_allocate_nothing(self, tmp_path, header):
        # A header claiming 13 TiB of users, or records of 10^12 entries,
        # fails on the records it does not have, not on an allocation. The
        # second file does hold the header's three records.
        entries = " 1,0 0,0 0,0 0,0\n"
        path = tmp_path / "model.psdrec"
        path.write_text(header + "\nuser 0" + entries + "item 0 1" + entries + "item 0 2" + entries)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                models.load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_repeated_record(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "model.psdrec"
        models.save_model(random_quantum_model(rng, 2, 2, 2), str(path))
        lines = path.read_text().splitlines()
        # A second `user 0` line in place of user 1's, holding its valid state.
        lines[2] = "user 0 " + lines[2].split(" ", 2)[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3: repeated record 'user 0'"):
            models.load_model(str(path))

    def test_record_count_outranks_an_earlier_bad_token(self, tmp_path):
        path = tmp_path / "model.psdrec"
        path.write_text(self._VALID.replace("user 0 1 0", "user 0 x 0", 1).replace("item 0 2 0 0 0 1\n", "", 1))
        with pytest.raises(ParseError) as exc_info:
            models.load_model(str(path))
        assert str(exc_info.value) == f"{path}: expected 3 records, found 2"

    def test_reads_a_pipe(self, tmp_path):
        path = tmp_path / "model.psdrec"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(self._VALID,), daemon=True)
        writer.start()
        m = models.load_model(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(m.users, [np.diag([1.0, 0.0])])
        assert np.array_equal(m.items, [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]])

    def test_records_in_any_order(self, tmp_path):
        rng = np.random.default_rng(37)
        path = tmp_path / "model.psdrec"
        for m in (random_quantum_model(rng, 5, 4, 2, z=3), random_nnm_model(rng, 5, 4, 2, z=3)):
            models.save_model(m, str(path))
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:1] + [lines[1 + k] for k in rng.permutation(len(lines) - 1)]))
            loaded = models.load_model(str(path))
            assert np.array_equal(loaded.users, m.users) and np.array_equal(loaded.items, m.items)

    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    def test_load_peak_scales_with_the_arrays_not_the_text(self, tmp_path, kind):
        # Trailing blanks make the text ten times longer than the arrays;
        # the reader holds a line at a time, and the peak is the model's
        # arrays and validation's temporaries (3.8 times the arrays for this
        # quantum model, 1.5 for the NNM).
        rng = np.random.default_rng(36)
        m = random_quantum_model(rng, 2000, 1000, 3) if kind == "quantum" else random_nnm_model(rng, 2000, 1000, 8)
        nbytes = m.users.nbytes + m.items.nbytes
        path = tmp_path / "model.psdrec"
        models.save_model(m, str(path))
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:1] + [line + " " * (10 * len(line)) for line in lines[1:]]))
        assert path.stat().st_size >= 10 * nbytes
        tracemalloc.start()
        try:
            loaded = models.load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.users, m.users) and np.array_equal(loaded.items, m.items)
        assert peak <= 5 * nbytes

    def test_save_transients_bounded_whatever_the_model_size(self, tmp_path):
        # 8 MiB of states go out in blocks of at most _SAVE_BLOCK values:
        # no concatenated copy of the states and no list of labels.
        d = 32
        m = models.NnmModel(np.full((2**15, d), 1 / d), np.full((1, 2, d), 0.5))
        assert m.users.nbytes + m.items.nbytes >= 8 * 2**20
        path = tmp_path / "model.psdrec"
        tracemalloc.start()
        try:
            models.save_model(m, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        with path.open() as fh:
            assert next(fh) == f"PSDREC v1 | kind=nnm | {d} | {2**15} | 1 | 2 | field=real\n"
            assert next(fh) == "user 0" + " 0.03125" * d + "\n"

    @pytest.mark.parametrize("kind", ["quantum", "nnm"])
    @pytest.mark.parametrize("empty", ["users", "items"])
    def test_save_rejects_a_model_the_loader_would(self, tmp_path, kind, empty):
        # A model without users or items saves a header that reads as bad
        # sizes; it is refused before the file is opened, so an existing
        # file is left as it was.
        if kind == "quantum":
            users, items = np.tile(np.eye(2) / 2, (2, 1, 1)), np.tile(np.eye(2) / 2, (3, 2, 1, 1))
        else:
            users, items = np.full((2, 2), 0.5), np.full((3, 2, 2), 0.5)
        m = models.KINDS[kind](users[:0] if empty == "users" else users, items[:0] if empty == "items" else items)
        path = tmp_path / "model.psdrec"
        path.write_bytes(b"kept")
        with pytest.raises(InvalidInput, match="save_model: a model file needs D, U and I of at least 1"):
            models.save_model(m, str(path))
        assert path.read_bytes() == b"kept"

    def test_extra_record(self, tmp_path):
        rng = np.random.default_rng(32)
        path = tmp_path / "model.psdrec"
        for m in (random_quantum_model(rng, 2, 2, 2), random_nnm_model(rng, 2, 2, 2)):
            models.save_model(m, str(path))
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines + [lines[-1]]) + "\n")
            with pytest.raises(ParseError, match=f"expected {len(lines) - 1} records, found {len(lines)}"):
                models.load_model(str(path))


@st.composite
def _models(draw):
    """A random valid model: NNM, real quantum or complex quantum."""
    kind = draw(st.sampled_from(["nnm", "real", "complex"]))
    u_n, i_n, d, z_n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "nnm":
        return random_nnm_model(rng, u_n, i_n, d, z=z_n)
    return random_quantum_model(rng, u_n, i_n, d, z=z_n, field=kind)


_BAD_TOKENS = ["x", "1,2,3", "1", ",1", "1,", "1,,2", "1..0", "nan", "inf", "1e999", "0x1", "1_0", "--1", "1,x"]
_BAD_INDICES = ["-1", "0", "1", "2", "3", "9", "x", "1.0", "+1", "1_0"]
_HEADER_FIELDS = [
    ["PSDREC v2", "PSDREC", "psdrec v1"],
    ["kind=nnm", "kind=quantum", "kind=", "quantum"],
    ["0", "1", "2", "3", "4", "x"],
    ["0", "1", "2", "3", "4", "-1"],
    ["0", "1", "2", "3", "4"],
    ["1", "2", "3", "4"],
    ["field=real", "field=complex", "field=quaternion"],
]


def _corrupt(draw, lines):
    """Apply one drawn fault to the list of lines of a saved model file."""
    records = [k for k in range(1, len(lines)) if lines[k].split()]
    k = draw(st.sampled_from(records))
    tokens = lines[k].split()
    # An earlier fault may have cut the line short.
    last = len(tokens) - 1
    n_head = min(2 if tokens[0] == "user" else 3, last)
    fault = draw(st.sampled_from(["token", "header", "index", "repeat", "extra", "missing", "role", "entries",
                                  "blank", "mark", "comma"]))
    if fault == "token":
        tokens[draw(st.integers(n_head, last))] = draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "comma":
        # Cut two neighbouring value tokens at another comma of their join:
        # "a,b c,d" becomes "a b,c,d". The record's commas still balance, and
        # only the one-comma-per-token rule of field=complex catches it.
        if last <= n_head:
            return
        j = draw(st.integers(n_head, last - 1))
        parts = f"{tokens[j]},{tokens[j + 1]}".split(",")
        cut = draw(st.sampled_from([c for c in range(len(parts) + 1) if c != tokens[j].count(",") + 1]))
        tokens[j : j + 2] = ",".join(parts[:cut]), ",".join(parts[cut:])
    elif fault == "header":
        head = lines[0].split(" | ")
        j = draw(st.integers(0, 6))
        head[j] = draw(st.sampled_from(_HEADER_FIELDS[j]))
        lines[0] = " | ".join(head)
        return
    elif fault == "index":
        tokens[draw(st.integers(1, max(1, n_head - 1))) if last else 0] = draw(st.sampled_from(_BAD_INDICES))
    elif fault == "repeat":
        tokens = lines[draw(st.sampled_from(records))].split()
    elif fault == "extra":
        lines.insert(draw(st.integers(1, len(lines))), lines[k])
        return
    elif fault == "missing":
        del lines[k]
        return
    elif fault == "role":
        tokens[0] = draw(st.sampled_from(["usr", "items", "USER", "#"]))
    elif fault == "entries":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + [tokens[-1]]
    elif fault == "blank":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t\x0c", "\x0b"])))
        return
    else:
        mark = draw(st.sampled_from(["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r", "  "]))
        lines[k] = mark.join(tokens)
        return
    lines[k] = " ".join(tokens)


def _outcome(load, path):
    try:
        m = load(path)
    except (ParseError, InvalidInput) as exc:
        return type(exc).__name__, str(exc)
    return type(m).__name__, m.users.dtype.str, m.users.shape, m.items.shape, m.users.tobytes(), m.items.tobytes()


class TestModelParserFuzz:
    @given(m=_models())
    @settings(max_examples=60, deadline=None)
    def test_valid_models_round_trip_bit_exactly(self, tmp_path_factory, m):
        path = str(tmp_path_factory.mktemp("fuzz") / "model.psdrec")
        models.save_model(m, path)
        got = _outcome(models.load_model, path)
        assert got == _outcome(lambda p: m, path)
        assert got == _outcome(naive_load_model, path)

    @given(m=_models(), data_=st.data())
    @settings(max_examples=300, deadline=None)
    def test_corrupted_files_fail_as_the_record_loop_does(self, tmp_path_factory, m, data_):
        path = tmp_path_factory.mktemp("fuzz") / "model.psdrec"
        models.save_model(m, str(path))
        lines = path.read_text().split("\n")
        for _ in range(data_.draw(st.integers(1, 3))):
            _corrupt(data_.draw, lines)
        path.write_text("\n".join(lines))
        got = _outcome(models.load_model, str(path))
        assert got == _outcome(naive_load_model, str(path))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, tmp_path: models.score_entries(m, np.array([0]), np.array([m.I])), "item index out of range"),
        (lambda m, tmp_path: models.score_entries(m, np.array([0]), np.array([-1])), "item index out of range"),
        (lambda m, tmp_path: models.rank_profile(random_nnm_model(np.random.default_rng(34), 2, 2, 2)),
         "expected a QuantumModel"),
        (lambda m, tmp_path: models.save_model(object(), str(tmp_path / "x.psdrec")), "unsupported model type"),
    ],
    ids=["score-item-high", "score-item-negative", "rank-profile-nnm", "save-unsupported"],
)
def test_rejects_invalid_arguments(tmp_path, call, message):
    m = random_quantum_model(np.random.default_rng(33), 3, 4, 2)
    with pytest.raises(InvalidInput, match=message):
        call(m, tmp_path)
