import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrec import linalg
from psdrec.exceptions import ConvergenceFailure, InvalidInput

from _oracles import projection_vi_gap
from conftest import random_density, random_effect, random_povm


def simplex_points(rng, d, n):
    pts = rng.random((n, d)) + 1e-9
    return pts / pts.sum(axis=1, keepdims=True)


class TestProjectToSimplex:
    def test_fixed_point(self):
        v = np.array([0.25, 0.75])
        np.testing.assert_allclose(linalg.project_to_simplex(v), v, atol=1e-15)

    def test_known_values(self):
        np.testing.assert_allclose(linalg.project_to_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
        np.testing.assert_allclose(
            linalg.project_to_simplex(np.array([0.6, 0.6])), [0.5, 0.5], atol=1e-15
        )
        np.testing.assert_allclose(
            linalg.project_to_simplex(np.array([-1.0, -2.0])), [1.0, 0.0], atol=1e-15
        )

    def test_variational_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            x = rng.standard_normal(d) * 3
            p = linalg.project_to_simplex(x)
            assert p.min() >= 0 and abs(p.sum() - 1) <= 1e-12
            gap = projection_vi_gap(x, p, simplex_points(rng, d, 40))
            assert gap <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        p = linalg.project_to_simplex(x)
        np.testing.assert_allclose(linalg.project_to_simplex(p), p, atol=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_always_on_simplex(self, values):
        p = linalg.project_to_simplex(np.array(values))
        assert p.min() >= -1e-15
        assert abs(p.sum() - 1.0) <= 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            linalg.project_to_simplex(np.array([]))
        with pytest.raises(InvalidInput):
            linalg.project_to_simplex(np.array([np.nan, 0.0]))
        with pytest.raises(InvalidInput):
            linalg.project_to_simplex(np.array([np.inf, 0.0]))


class TestProjectToSimplexRows:
    def test_matches_single(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 5)) * 2
        rows = linalg.project_to_simplex_rows(x)
        for k in range(20):
            np.testing.assert_allclose(rows[k], linalg.project_to_simplex(x[k]), atol=1e-14)


class TestSpectralInputs:
    PROJECTIONS = (linalg.project_to_spectrahedron, linalg.project_to_effect)

    def test_rejects_non_hermitian(self):
        for project in self.PROJECTIONS:
            with pytest.raises(InvalidInput, match="not Hermitian"):
                project(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        for project in self.PROJECTIONS:
            with pytest.raises(InvalidInput, match="square"):
                project(np.zeros((2, 3)))


class TestProjectToSpectrahedron:
    def test_feasible_and_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = 0.5 * (g + np.conj(g.T)) * 2
            p = linalg.project_to_spectrahedron(x)
            w = np.linalg.eigvalsh(p)
            assert w.min() >= -1e-12
            assert abs(np.real(np.trace(p)) - 1.0) <= 1e-10
            np.testing.assert_allclose(linalg.project_to_spectrahedron(p), p, atol=1e-10)

    def test_variational_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = 0.5 * (g + np.conj(g.T))
            p = linalg.project_to_spectrahedron(x)
            samples = [random_density(rng, d) for _ in range(30)]
            assert projection_vi_gap(x, p, samples) <= 1e-9

    def test_diagonal_matches_simplex(self):
        rng = np.random.default_rng(6)
        diag = rng.standard_normal(5)
        p = linalg.project_to_spectrahedron(np.diag(diag).astype(complex))
        np.testing.assert_allclose(
            np.sort(np.diag(p).real), np.sort(linalg.project_to_simplex(diag)), atol=1e-12
        )
        assert float(np.max(np.abs(p - np.diag(np.diag(p))))) <= 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 3, 3))
        x = 0.5 * (g + np.swapaxes(g, -1, -2))
        batch = linalg.project_to_spectrahedron(x)
        for k in range(6):
            np.testing.assert_allclose(batch[k], linalg.project_to_spectrahedron(x[k]), atol=1e-12)


class TestProjectToEffect:
    def test_eigenvalues_clamped(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = 0.5 * (g + np.conj(g.T)) * 3
            p = linalg.project_to_effect(x)
            w = np.linalg.eigvalsh(p)
            assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12
            np.testing.assert_allclose(linalg.project_to_effect(p), p, atol=1e-10)

    def test_diagonal_is_clip(self):
        x = np.diag([-0.5, 0.25, 1.75])
        np.testing.assert_allclose(linalg.project_to_effect(x), np.diag([0.0, 0.25, 1.0]), atol=1e-14)


def _two_by_two(seed, structure, field, exponent, n=3):
    """n Hermitian 2 x 2 matrices of one structure, scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2, 2))
    if field == "complex":
        g = g + 1j * rng.standard_normal((n, 2, 2))
    a = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    if structure == "b = 0":
        a[:, 0, 1] = a[:, 1, 0] = 0.0
    elif structure == "p = q":
        a[:, 1, 1] = a[:, 0, 0]
    elif structure == "multiple of I":
        a = a[:, :1, :1] * np.eye(2)
    elif structure == "rank one":
        v = g[:, :, 0]
        a = rng.choice([-1.0, 1.0], size=(n, 1, 1)) * v[:, :, None] * np.conj(v[:, None, :])
    elif structure == "zero":
        a = np.zeros_like(a)
    return a * 10.0**exponent


def _eigh_map(a, f):
    w, v = np.linalg.eigh(a)
    return (v * f(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _norms(a):
    return np.linalg.norm(a, axis=(-2, -1))


def _assert_close(got, want, norm):
    """Agreement within 1e-12 max(1, ||A||)."""
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, norm))


_D2_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(["random", "b = 0", "p = q", "multiple of I", "rank one", "zero"]),
    field=st.sampled_from(["real", "complex"]),
)


class TestClosedFormTwoByTwo:
    """D = 2 takes the closed-form eigensystem; it must match LAPACK eigh."""

    @given(exponent=st.integers(-12, 6), **_D2_CASES)
    @settings(max_examples=200, deadline=None)
    def test_projections_match_eigh(self, seed, structure, field, exponent):
        a = _two_by_two(seed, structure, field, exponent)
        for project, f in (
            (linalg.project_to_spectrahedron, linalg.project_to_simplex_rows),
            (linalg.project_to_effect, lambda w: np.clip(w, 0.0, 1.0)),
        ):
            p = project(a)
            assert p.dtype == a.dtype
            assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2)))
            _assert_close(p, _eigh_map(a, f), _norms(a)[:, None, None])
            _assert_close(project(p), p, _norms(p)[:, None, None])

    @given(exponent=st.integers(-12, 6), **_D2_CASES)
    @settings(max_examples=200, deadline=None)
    def test_min_eigvalsh_matches_eigvalsh(self, seed, structure, field, exponent):
        a = _two_by_two(seed, structure, field, exponent)
        w = linalg.min_eigvalsh(a)
        assert w.dtype == np.float64
        _assert_close(w, np.linalg.eigvalsh(a)[:, 0], _norms(a))

    # Dykstra's 500-round cap is reached on random inputs of norm about 100,
    # whichever eigensolver it runs on, so the POVM inputs stop at scale 1.
    @given(exponent=st.integers(-12, 0), **_D2_CASES)
    @settings(max_examples=100, deadline=None)
    def test_povm_matches_eigh(self, seed, structure, field, exponent):
        a = _two_by_two(seed, structure, field, exponent)
        p = np.stack(linalg.project_to_povm(a))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_psd_part", lambda x: _eigh_map(x, lambda w: np.maximum(w, 0.0)))
            mp.setattr(linalg, "min_eigvalsh", lambda x: np.linalg.eigvalsh(x)[..., 0])
            want = np.stack(linalg.project_to_povm(a))
        assert p.dtype == a.dtype
        assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2)))
        _assert_close(p, want, np.linalg.norm(a))


class TestProjectToBinaryPovm:
    def test_closed_form_matches_dykstra(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            g1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a1 = 0.5 * (g1 + np.conj(g1.T))
            a2 = 0.5 * (g2 + np.conj(g2.T))
            e1, e2 = linalg.project_to_binary_povm(a1, a2)
            ref = linalg.project_to_povm(np.stack([a1, a2]))
            np.testing.assert_allclose(e1, ref[0], atol=1e-6)
            np.testing.assert_allclose(e2, ref[1], atol=1e-6)

    def test_outputs_form_povm(self):
        rng = np.random.default_rng(10)
        d = 3
        g1 = rng.standard_normal((d, d))
        g2 = rng.standard_normal((d, d))
        e1, e2 = linalg.project_to_binary_povm(0.5 * (g1 + g1.T), 0.5 * (g2 + g2.T))
        np.testing.assert_allclose(e1 + e2, np.eye(d), atol=1e-12)
        assert np.linalg.eigvalsh(e1).min() >= -1e-12
        assert np.linalg.eigvalsh(e2).min() >= -1e-12

    def test_feasible_pair_unchanged(self):
        rng = np.random.default_rng(11)
        e = random_effect(rng, 3)
        e1, e2 = linalg.project_to_binary_povm(e, np.eye(3) - e)
        np.testing.assert_allclose(e1, e, atol=1e-10)
        np.testing.assert_allclose(e2, np.eye(3) - e, atol=1e-10)

    def test_optimality_against_samples(self):
        # the returned pair must beat every sampled feasible pair in
        # squared distance to the input pair
        rng = np.random.default_rng(12)
        d = 2
        g1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a1 = 0.5 * (g1 + np.conj(g1.T))
        a2 = 0.5 * (g2 + np.conj(g2.T))
        e1, e2 = linalg.project_to_binary_povm(a1, a2)
        best = np.sum(np.abs(e1 - a1) ** 2) + np.sum(np.abs(e2 - a2) ** 2)
        for _ in range(200):
            f1 = random_effect(rng, d)
            cand = np.sum(np.abs(f1 - a1) ** 2) + np.sum(np.abs(np.eye(d) - f1 - a2) ** 2)
            assert best <= cand + 1e-9


class TestProjectToPovm:
    def test_feasible_output(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d, z = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            g = rng.standard_normal((z, d, d)) + 1j * rng.standard_normal((z, d, d))
            x = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
            p = np.stack(linalg.project_to_povm(x))
            np.testing.assert_allclose(p.sum(axis=0), np.eye(d), atol=1e-7)
            assert np.linalg.eigvalsh(p).min() >= -1e-7

    def test_fixed_point(self):
        rng = np.random.default_rng(14)
        povm = random_povm(rng, 3, 3)
        p = np.stack(linalg.project_to_povm(povm))
        np.testing.assert_allclose(p, povm, atol=1e-7)

    def test_convergence_failure_carries_residual(self, monkeypatch):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((3, 4, 4))
        x = 0.5 * (g + np.swapaxes(g, -1, -2)) * 5
        monkeypatch.setattr(linalg, "_POVM_MAX_ROUNDS", 1)
        monkeypatch.setattr(linalg, "_POVM_TOL", 1e-14)
        with pytest.raises(ConvergenceFailure) as exc_info:
            linalg.project_to_povm(x)
        assert exc_info.value.residual is not None
        assert exc_info.value.residual > 0


class TestTraceInner:
    def test_matches_trace(self):
        rng = np.random.default_rng(16)
        a = random_density(rng, 3)
        b = random_effect(rng, 3)
        assert abs(linalg.trace_inner(a, b) - np.real(np.trace(a @ b))) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            linalg.trace_inner(np.eye(2), np.eye(3))


class TestHermitianize:
    def test_batched(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        h = linalg.hermitianize(g)
        np.testing.assert_allclose(h, np.conj(np.swapaxes(h, -1, -2)), atol=1e-15)
        np.testing.assert_allclose(h, (g + np.conj(np.swapaxes(g, -1, -2))) / 2, atol=1e-15)
