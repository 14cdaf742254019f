import tracemalloc

import numpy as np
import pytest

from psdrec import models
from psdrec.exceptions import InvalidInput, NotSimultaneouslyDiagonalizable, ParseError

from _oracles import best_permutation_error
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
        monkeypatch.setattr(models, "_SCORE_CHUNK", 4)
        np.testing.assert_allclose(models.score_entries(m, uu, ii), whole, atol=0)

    def test_score_entries_validates(self):
        rng = np.random.default_rng(15)
        m = random_quantum_model(rng, 3, 3, 2)
        with pytest.raises(InvalidInput):
            models.score_entries(m, np.array([3]), np.array([0]))
        with pytest.raises(InvalidInput):
            models.score_entries(m, np.array([0, 1]), np.array([0]))


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

    def test_extra_record(self, tmp_path):
        rng = np.random.default_rng(32)
        path = tmp_path / "model.psdrec"
        for m in (random_quantum_model(rng, 2, 2, 2), random_nnm_model(rng, 2, 2, 2)):
            models.save_model(m, str(path))
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines + [lines[-1]]) + "\n")
            with pytest.raises(ParseError, match=f"expected {len(lines) - 1} records, found {len(lines)}"):
                models.load_model(str(path))
