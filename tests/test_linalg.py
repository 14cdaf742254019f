import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrec import linalg
from psdrec.exceptions import ConvergenceFailure, InvalidInput

from _oracles import projection_vi_gap, sorted_simplex_rows
from conftest import random_density, random_effect, random_povm


def shifted_sort_path(v):
    """The sort-based oracle on each row shifted by its maximum, as the library shifts it."""
    return sorted_simplex_rows(v - v.max(axis=-1, keepdims=True))


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


    @pytest.mark.parametrize(
        "v, want",
        [
            ([1e17, 0.0], [1.0, 0.0]),
            ([1e16, 0.0], [1.0, 0.0]),
            ([0.0, 2.0**53], [0.0, 1.0]),
            ([2.0**53 + 2, 0.0], [1.0, 0.0]),
            ([3e16, 1.0, -5.0], [1.0, 0.0, 0.0]),
            ([-5.0, 1e17, 1e17], [0.0, 0.5, 0.5]),
            ([1e17, 0.0, 2.0, -1.0, 3.0], [1.0, 0.0, 0.0, 0.0, 0.0]),
        ],
        ids=["1e17", "1e16", "2^53", "2^53+2", "d3", "d3-tie", "d5-sort"],
    )
    def test_entries_beyond_unit_resolution(self, v, want):
        # Entries so large that u_1 - 1 rounds, to u_1 from about 2^53 up:
        # unless each row is shifted by its maximum first, no prefix
        # qualifies (an all-zero row and a divide-by-zero warning) or the
        # threshold is off by the rounding ([2, 0] at 2^53 + 2).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.project_to_simplex(np.array(v))
            other = 0.3 * np.arange(len(v)) - 0.2
            rows = linalg.project_to_simplex_rows(np.array([v, other]))
        assert got.tolist() == want and rows[0].tolist() == want
        # A row beside it projects bit for bit as the sort path projects it shifted.
        assert np.array_equal(rows[1], shifted_sort_path(other))

    def test_threshold_of_a_large_offset_row(self):
        # Unless the row is shifted by its maximum first, its threshold
        # rounds and the projection sums to 2: [1, 0.5, 0.5].
        want = np.array([2 / 3, 1 / 6, 1 / 6])
        got = linalg.project_to_simplex(np.array([3e15 + 0.5, 3e15, 3e15]))
        assert np.all(np.abs(got - want) <= np.spacing(want))

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        exponent=st.integers(-12, 17),
        offset=st.sampled_from([0.0, 1.0, -3e15, 2.0**53, 1e17, -1e17]),
        rows=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_land_on_the_simplex(self, seed, d, exponent, offset, rows):
        v = np.random.default_rng(seed).standard_normal((rows, d)) * 10.0**exponent + offset
        got = linalg.project_to_simplex_rows(v)
        assert np.all(got >= 0)
        assert np.all(np.abs(got.sum(axis=-1) - 1.0) <= 8 * d * np.finfo(float).eps)

    def test_spectrahedron_beyond_unit_resolution(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (2, 3, 4):
                a = np.diag([1e17] + [0.0] * (d - 1))
                rho = linalg.project_to_spectrahedron(a)
                np.testing.assert_allclose(rho, np.diag([1.0] + [0.0] * (d - 1)), atol=1e-15)


def _simplex_rows(seed, d, structure, exponent, lead):
    """Rows of d entries of one structure, scaled by 10**exponent, with leading axes lead."""
    rng = np.random.default_rng(seed)
    shape = lead + (d,)
    v = rng.standard_normal(shape) * 10.0**exponent
    if structure == "ties":
        v = rng.integers(-2, 3, shape) * 10.0**exponent
    elif structure == "signed zeros":
        v = np.where(rng.random(shape) < 0.5, rng.choice([0.0, -0.0], shape), v)
    elif structure == "on the simplex":
        v = sorted_simplex_rows(v)
    return v


_SIMPLEX_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    structure=st.sampled_from(["random", "ties", "signed zeros", "on the simplex"]),
    exponent=st.integers(-12, 6),
    lead=st.sampled_from([(), (1,), (7,), (2, 3)]),
)


class TestSimplexRowsNetwork:
    """Rows of at most three entries skip np.sort; every row must still
    project bit for bit as the sort-based path projects it shifted by its
    maximum."""

    @given(**_SIMPLEX_CASES)
    @settings(max_examples=300, deadline=None)
    def test_matches_sort_path(self, seed, d, structure, exponent, lead):
        v = _simplex_rows(seed, d, structure, exponent, lead)
        got = linalg.project_to_simplex_rows(v)
        assert got.shape == v.shape and got.dtype == np.float64
        assert np.array_equal(got, shifted_sort_path(v))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nan_fills_its_row(self, d):
        # np.sort put a NaN last, so the sort path projected the other
        # entries as if it were absent; the network spreads it to the row.
        v = np.random.default_rng(3).standard_normal((3, d))
        v[1, d - 1] = np.nan
        got = linalg.project_to_simplex_rows(v)
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[[0, 2]], shifted_sort_path(v[[0, 2]]))


class TestSpectralInputs:
    PROJECTIONS = (linalg.project_to_spectrahedron, linalg.project_to_effect)

    def test_rejects_non_hermitian(self):
        for project in self.PROJECTIONS:
            with pytest.raises(InvalidInput, match="not Hermitian"):
                project(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # Both POVM projections check every outcome, as the effect projection does.
        a, eye = np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2)
        for call, op in (
            (lambda: linalg.project_to_povm((a, eye - a)), "project_to_povm"),
            (lambda: linalg.project_to_binary_povm(a, eye - a), "project_to_binary_povm"),
            (lambda: linalg.project_to_binary_povm(0.5 * eye, a), "project_to_binary_povm"),
        ):
            with pytest.raises(InvalidInput, match=f"{op}: matrix is not Hermitian"):
                call()

    def test_rejects_non_square(self):
        for project in self.PROJECTIONS:
            with pytest.raises(InvalidInput, match="square"):
                project(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: linalg.project_to_spectrahedron(np.diag([np.nan, 1.0])), "non-finite"),
            (lambda: linalg.project_to_effect(np.diag([np.inf, 1.0])), "non-finite"),
            (lambda: linalg.project_to_binary_povm(np.eye(2), np.eye(3)), "shape mismatch"),
            (lambda: linalg.project_to_binary_povm(np.eye(2), np.diag([np.nan, 1.0])),
             "project_to_binary_povm: non-finite"),
            (lambda: linalg.project_to_binary_povm(np.diag([np.inf, 1.0]), np.eye(2)),
             "project_to_binary_povm: non-finite"),
            (lambda: linalg.project_to_povm((np.eye(2), np.diag([np.nan, 1.0]))), "project_to_povm: non-finite"),
            (lambda: linalg.project_to_povm((np.eye(2), np.eye(3))), "mismatched shapes"),
            (lambda: linalg.project_to_povm((np.eye(2),)), "at least two outcomes"),
            (lambda: linalg.project_to_povm((np.eye(2)[None], np.eye(2)[None])), "tuple of matrices"),
            (lambda: linalg.trace_inner(np.eye(2), np.diag([np.nan, 1.0])), "non-finite"),
        ],
        ids=["spectrahedron-nan", "effect-inf", "binary-povm-shapes", "binary-povm-a2-nan", "binary-povm-a1-inf",
             "povm-nan", "povm-shapes", "povm-one", "povm-ndim", "trace-inner-nan"],
    )
    def test_rejects_bad_inputs(self, call, message):
        with pytest.raises(InvalidInput, match=message):
            call()


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


class TestCoordinates:
    """to_coords is an isometry from Hermitian matrices to real rows, and from_coords its inverse."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), field=st.sampled_from(["real", "complex"]),
           exponent=st.integers(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_dot_product_and_round_trip(self, seed, d, field, exponent):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 5, d, d))
        if field == "complex":
            g = g + 1j * rng.standard_normal((2, 5, d, d))
        a, b = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2))) * 10.0**exponent
        x, y = linalg.to_coords(a), linalg.to_coords(b)
        assert x.shape == (5, d * d if field == "complex" else d * (d + 1) // 2) and x.dtype == np.float64
        want = np.real(np.einsum("nij,nji->n", a, b))
        assert np.all(np.abs(np.sum(x * y, axis=1) - want) <= 1e-12 * _norms(a) * _norms(b))
        back = linalg.from_coords(x, d, a.dtype)
        assert back.dtype == a.dtype
        assert np.array_equal(back, np.conj(np.swapaxes(back, -1, -2)))
        _assert_close(back, a, _norms(a)[:, None, None])


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
    """Frobenius norms, taken on each matrix scaled by the power of two of its
    largest entry, so that no square overflows or underflows."""
    e = np.frexp(np.max(np.abs(a), axis=(-2, -1)))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(np.abs(a), -e[..., None, None]), axis=(-2, -1)), e)


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

    @given(exponent=st.integers(-300, 300), **_D2_CASES)
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

    @given(exponent=st.integers(-300, 300), **_D2_CASES)
    @settings(max_examples=200, deadline=None)
    def test_min_eigvalsh_matches_eigvalsh(self, seed, structure, field, exponent):
        a = _two_by_two(seed, structure, field, exponent)
        w = linalg.min_eigvalsh(a)
        assert w.dtype == np.float64
        _assert_close(w, np.linalg.eigvalsh(a)[:, 0], _norms(a))

    @given(exponent=st.integers(-12, 6), z=st.integers(2, 5), **_D2_CASES)
    @settings(max_examples=100, deadline=None)
    def test_povm_matches_exact_references(self, seed, structure, field, exponent, z):
        a = _two_by_two(seed, structure, field, exponent, n=z)
        norm = max(1.0, float(np.linalg.norm(a)))
        p = np.stack(linalg.project_to_povm(a))
        assert p.dtype == a.dtype
        assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2)))
        _assert_close(p.sum(axis=0), np.eye(2), norm)
        assert np.linalg.eigvalsh(p).min() >= -1e-12 * norm
        _assert_close(np.stack(linalg.project_to_povm(p)), p, norm)
        if z == 2:
            _assert_close(p, np.stack(linalg.project_to_binary_povm(a[0], a[1])), norm)
        rng = np.random.default_rng(seed)
        # Optimality: <A - E, F - E> <= 0 for every POVM F.
        samples = [random_povm(rng, 2, z, field) for _ in range(20)]
        assert projection_vi_gap(a, p, samples) <= 1e-12 * norm**2
        # Diagonal inputs project coordinate by coordinate onto the simplex.
        for d in range(1, 5):
            w = rng.standard_normal((z, d)) * 10.0**exponent
            want = linalg.project_to_simplex_rows(w.T).T
            got = np.stack(linalg.project_to_povm(w[:, :, None] * np.eye(d)))
            _assert_close(got, want[:, :, None] * np.eye(d), max(1.0, float(np.linalg.norm(w))))


def _structured(seed, structure, field, exponent, d=3, n=4):
    """n Hermitian d x d matrices of one structure, scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d, d))
    if field == "complex":
        g = g + 1j * rng.standard_normal((n, d, d))
    a = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    w = rng.standard_normal((n, d))
    if structure in ("degenerate pair", "split pair", "split triple"):
        if structure == "split triple":
            w = w[:, :1] + 1e-9 * w
        else:
            w[:, -1] = w[:, -2] + (1e-12 if structure == "split pair" else 0.0)
        q = np.linalg.qr(g)[0]
        a = (q * w[:, None, :]) @ np.conj(np.swapaxes(q, -1, -2))
        a = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    elif structure == "rank one":
        v = g[:, :, 0]
        a = rng.choice([-1.0, 1.0], size=(n, 1, 1)) * v[:, :, None] * np.conj(v[:, None, :])
    elif structure == "multiple of I":
        a = a[:, :1, :1] * np.eye(d)
    elif structure == "diagonal":
        a = a * np.eye(d)
    elif structure == "zero":
        a = np.zeros_like(a)
    return a * 10.0**exponent


_D3_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    structure=st.sampled_from(
        ["random", "rank one", "degenerate pair", "split pair", "split triple", "multiple of I", "diagonal", "zero"]
    ),
    field=st.sampled_from(["real", "complex"]),
)


class TestClosedFormThreeByThree:
    """D = 3 takes the trigonometric closed form; it must match LAPACK eigh."""

    @given(exponent=st.integers(-300, 300), **_D3_CASES)
    @settings(max_examples=200, deadline=None)
    def test_projections_match_eigh(self, seed, structure, field, exponent):
        a = _structured(seed, structure, field, exponent)
        norm = _norms(a)[:, None, None]
        for project, f in (
            (linalg.project_to_spectrahedron, linalg.project_to_simplex_rows),
            (linalg.project_to_effect, lambda w: np.clip(w, 0.0, 1.0)),
        ):
            p, want = project(a), _eigh_map(a, f)
            assert p.dtype == a.dtype
            assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2)))
            _assert_close(p, want, norm)
            # The projection is 1-Lipschitz and p lies within rounding of
            # ||A|| of its own projection, so idempotence holds to that scale:
            # rounding of a large multiple of I leaves tr p off 1 by 1e-10.
            _assert_close(project(p), p, norm)
            _assert_close(project(a.reshape(2, 2, 3, 3)), want.reshape(2, 2, 3, 3), norm.reshape(2, 2, 1, 1))
            _assert_close(project(a[0]), want[0], norm[0])

    @given(exponent=st.integers(-300, 300), **_D3_CASES)
    @settings(max_examples=200, deadline=None)
    def test_min_eigvalsh_matches_eigvalsh(self, seed, structure, field, exponent):
        a = _structured(seed, structure, field, exponent)
        want, norm = np.linalg.eigvalsh(a)[:, 0], _norms(a)
        w = linalg.min_eigvalsh(a)
        assert w.dtype == np.float64
        _assert_close(w, want, norm)
        _assert_close(linalg.min_eigvalsh(a.reshape(2, 2, 3, 3)), want.reshape(2, 2), norm.reshape(2, 2))
        w0 = linalg.min_eigvalsh(a[0])
        assert w0.shape == ()
        _assert_close(w0, want[0], norm[0])


@given(exponent=st.integers(-300, 300), d=st.integers(2, 4), **_D3_CASES)
@settings(max_examples=300, deadline=None)
def test_eigensystem_spectral_calculus(seed, structure, field, exponent, d):
    # compose(f(w)) is f(A) on A's eigenvectors: it rebuilds A from w, I from
    # ones and A @ A from w**2. The last holds at D = 3 only if the kernel's
    # projector Q satisfies C Q = shift Q, which its R rests on.
    a = _structured(seed, structure, field, exponent, d=d)
    x, norm = linalg.to_coords(a), _norms(a)[:, None]
    eye = linalg.to_coords(np.broadcast_to(np.eye(d, dtype=a.dtype), a.shape))
    w, compose = linalg._eigensystem(x, d)
    _assert_close(compose(w), x, norm)
    _assert_close(compose(np.ones_like(w)), eye, 0.0)
    if exponent <= 150:  # beyond it A @ A overflows
        assert np.all(np.abs(compose(w**2) - linalg.to_coords(a @ a)) <= 1e-12 * np.maximum(1.0, norm) ** 2)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_row_blocks(monkeypatch, d, field):
    # Seven matrices in blocks of three: two full blocks and a short one,
    # through each branch of the eigen-dispatch (closed forms at D = 2
    # and 3, LAPACK at D = 4).
    monkeypatch.setattr(linalg, "_BLOCK", 3)
    rng = np.random.default_rng(12)
    g = rng.standard_normal((7, d, d))
    if field == "complex":
        g = g + 1j * rng.standard_normal((7, d, d))
    a = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    norm = _norms(a)
    for project, f in (
        (linalg.project_to_spectrahedron, linalg.project_to_simplex_rows),
        (linalg.project_to_effect, lambda w: np.clip(w, 0.0, 1.0)),
    ):
        _assert_close(project(a), _eigh_map(a, f), norm[:, None, None])
    _assert_close(linalg.min_eigvalsh(a), np.linalg.eigvalsh(a)[:, 0], norm)


@pytest.mark.parametrize("d", [2, 3])
def test_min_eigvalsh_keeps_nan(d):
    a = np.stack([np.eye(d), np.eye(d)])
    a[1, 0, d - 1] = a[1, d - 1, 0] = np.nan
    w = linalg.min_eigvalsh(a)
    assert w[0] == 1.0 and np.isnan(w[1])


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), field=st.sampled_from(["real", "complex"]),
       exponent=st.integers(-300, 300))
@settings(max_examples=100, deadline=None)
def test_min_eigvalsh_is_the_row_min(seed, d, field, exponent):
    # min_eigvalsh folds np.minimum over the eigenvalue columns; it must
    # equal the row minimum of the same eigensystem (eigenvalues only, so
    # eigvalsh's at D = 4), and keep the NaN rows of the closed forms
    # (LAPACK rejects NaN).
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((5, d, d))
    if field == "complex":
        g = g + 1j * rng.standard_normal((5, d, d))
    a = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2))) * 10.0**exponent
    if d in (2, 3):
        a[0, 0, 0] = np.nan
    w, _ = linalg._eigensystem(linalg.to_coords(a), d, vectors=False)
    assert np.array_equal(linalg.min_eigvalsh(a), w.min(axis=1), equal_nan=True)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [4, 5])
def test_min_eigvalsh_takes_no_eigenvectors(monkeypatch, d, field):
    # Past the closed forms min_eigvalsh needs the eigenvalues alone.
    def refuse(a, *args, **kwargs):
        raise AssertionError("min_eigvalsh computed eigenvectors")

    rng = np.random.default_rng(13)
    g = rng.standard_normal((9, d, d))
    if field == "complex":
        g = g + 1j * rng.standard_normal((9, d, d))
    a = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    want = np.linalg.eigvalsh(a)[:, 0]
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    _assert_close(linalg.min_eigvalsh(a), want, _norms(a))


class TestProjectToBinaryPovm:
    def test_closed_form_matches_project_to_povm(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            g1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a1 = 0.5 * (g1 + np.conj(g1.T))
            a2 = 0.5 * (g2 + np.conj(g2.T))
            e1, e2 = linalg.project_to_binary_povm(a1, a2)
            ref = linalg.project_to_povm(np.stack([a1, a2]))
            atol = 1e-12 * max(1.0, float(np.linalg.norm(np.stack([a1, a2]))))
            np.testing.assert_allclose(e1, ref[0], rtol=0, atol=atol)
            np.testing.assert_allclose(e2, ref[1], rtol=0, atol=atol)

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

    def test_moderate_scale_matches_closed_form(self):
        # Dykstra with an absolute 1e-8 stop failed 15 of these 20 inputs.
        rng = np.random.default_rng(18)
        for _ in range(20):
            g = rng.standard_normal((2, 2, 2))
            a = 0.5 * (g + np.swapaxes(g, -1, -2)) * 100.0
            p = np.stack(linalg.project_to_povm(a))
            want = np.stack(linalg.project_to_binary_povm(a[0], a[1]))
            assert np.max(np.abs(p - want)) <= 1e-12 * 100.0

    def test_convergence_failure_carries_residual(self, monkeypatch):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((3, 4, 4))
        x = 0.5 * (g + np.swapaxes(g, -1, -2)) * 5
        monkeypatch.setattr(linalg, "_POVM_MAX_ROUNDS", 1)
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
