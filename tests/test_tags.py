import numpy as np
import pytest

from psdrec import data, models, tags
from psdrec.exceptions import InvalidInput

from _oracles import bloch_subset_oracle
from conftest import random_effect, random_nnm_model, random_quantum_model


def operator(matrix, name="t"):
    return tags.TagOperator(name=name, matrix=np.asarray(matrix, dtype=complex), members=(0,))


def biased_effect(rng, lam_top=None, d=2):
    """Random d x d effect, optionally with a pinned top eigenvalue."""
    e = random_effect(rng, d)
    if lam_top is not None:
        w, v = np.linalg.eigh(e)
        w = np.append(w[:-1] * lam_top, lam_top)
        e = (v * w) @ np.conj(v.T)
    return 0.5 * (e + np.conj(e.T))


class TestTagOperator:
    def test_mean_of_like_effects(self):
        rng = np.random.default_rng(0)
        m = random_quantum_model(rng, 2, 4, 2)
        t = tags.tag_operator(m, [0, 2], name="pair")
        np.testing.assert_allclose(t.matrix, (m.items[0, 0] + m.items[2, 0]) / 2, atol=1e-15)
        assert t.name == "pair"
        assert t.members == 2

    def test_member_validation(self):
        rng = np.random.default_rng(1)
        m = random_quantum_model(rng, 2, 3, 2)
        with pytest.raises(InvalidInput):
            tags.tag_operator(m, [])
        with pytest.raises(InvalidInput):
            tags.tag_operator(m, [3])
        with pytest.raises(InvalidInput):
            tags.tag_operator(m, [-1])

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), "non-finite"),
            (np.array([[0.5, np.inf], [0.0, 0.5]]), "non-finite"),
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
            (np.array([[0.5, 0.1j], [0.1j, 0.5]]), "not Hermitian"),
            (np.eye(2)[None], "one square matrix"),
            (np.ones((2, 3)), "square"),
            (np.diag([1.5, 0.5]), r"\[0, 1\]"),
            (np.diag([-0.5, 0.5]), r"\[0, 1\]"),
        ],
        ids=["nan", "inf", "upper-only", "anti-hermitian", "stacked", "rectangular", "above-one", "negative"],
    )
    def test_rejects_invalid_matrices(self, matrix, message):
        with pytest.raises(InvalidInput, match=message):
            tags.TagOperator(name="t", matrix=matrix, members=1)

    def test_nan_rejected_before_either_test(self):
        # at construction, so no containment answer is ever given for a NaN
        # operator, whichever argument it would have been
        valid = operator(np.diag([1.0, 0.3]))
        nan_op = np.diag([1.0, np.nan])
        with pytest.raises(InvalidInput, match="non-finite"):
            tags.subset_sdp(valid, operator(nan_op), 0.3)
        with pytest.raises(InvalidInput, match="non-finite"):
            tags.subset_sdp(operator(nan_op), valid, 0.3)

    def test_stores_the_hermitian_part(self):
        # a drift within tolerance is removed once, so both containment
        # tests judge the same matrix
        drift = np.array([[0.6, 0.2 + 1e-10], [0.2, 0.3]])
        t = tags.TagOperator(name="t", matrix=drift, members=1)
        np.testing.assert_array_equal(t.matrix, t.matrix.T)
        np.testing.assert_array_equal(t.matrix, 0.5 * (drift + drift.T))

    def test_hermitian_input_stored_bit_for_bit(self):
        rng = np.random.default_rng(7)
        e = biased_effect(rng, d=3)
        np.testing.assert_array_equal(operator(e).matrix, e)

    def test_rejects_nnm_model(self):
        # An NNM's items are probability vectors, not effect matrices, so it
        # has no tag operators.
        m = random_nnm_model(np.random.default_rng(2), 2, 3, 2)
        with pytest.raises(InvalidInput, match="expected a QuantumModel"):
            tags.tag_operator(m, [0, 1])


class TestSubsetSimple:
    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = operator(random_effect(rng, 2), "a")
            b = operator(random_effect(rng, 2), "b")
            eps = float(rng.uniform(0.0, 0.9))
            want = float(np.real(np.trace(a.matrix @ b.matrix))) >= (1.0 - eps) * float(
                np.real(np.trace(a.matrix))
            )
            assert tags.subset_simple(a, b, eps) == want

    def test_reflexive_for_projectors_at_eps_zero(self):
        # tr(E^2) = tr(E) exactly when E is a projector
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        q, _ = np.linalg.qr(g)
        t = operator(q @ np.conj(q.T))
        assert tags.subset_simple(t, t, 0.0)
        assert tags.subset_simple(operator(np.eye(3)), operator(np.eye(3)), 0.0)

    def test_support_containment_on_indicators(self):
        # diagonal 0/1 indicators: containment at eps=0 is exactly support
        # inclusion
        a = operator(np.diag([1.0, 0.0, 0.0]))
        b = operator(np.diag([1.0, 1.0, 0.0]))
        c = operator(np.diag([0.0, 1.0, 1.0]))
        assert tags.subset_simple(a, b, 0.0)
        assert not tags.subset_simple(b, a, 0.0)
        assert not tags.subset_simple(a, c, 0.0)

    def test_eps_validation(self):
        rng = np.random.default_rng(4)
        t = operator(random_effect(rng, 2))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidInput):
                tags.subset_simple(t, t, bad)
        for bad in ("0.3", None, [0.3], np.array([0.3]), True):
            with pytest.raises(InvalidInput, match="subset_simple: eps must be a real number"):
                tags.subset_simple(t, t, bad)
            with pytest.raises(InvalidInput, match="subset_sdp: eps must be a real number"):
                tags.subset_sdp(t, t, bad)

    def test_dimension_mismatch(self):
        a = operator(np.eye(2))
        b = operator(np.eye(3))
        with pytest.raises(InvalidInput):
            tags.subset_simple(a, b, 0.1)


class TestSubsetSdp:
    def test_gate_failure_is_false(self):
        # top eigenvalue 0.5 can never reach 1 - eps/2 for eps < 1
        a = operator(np.diag([0.5, 0.25]))
        b = operator(np.eye(2) * 0.9)
        assert not tags.subset_sdp(a, b, 0.2)

    def test_identical_operators_contained(self):
        a = operator(np.diag([1.0, 0.3]))
        assert tags.subset_sdp(a, a, 0.1)

    def test_analytic_example(self):
        # E_t = diag(1, 0), E_t' = diag(.95, .05): the accepting states have
        # rho_11 >= 1 - eps/2 so |tr(rho diff)| <= .05; contained iff
        # eps/2 >= .05 (up to the gate)
        a = operator(np.diag([1.0, 0.0]))
        b = operator(np.diag([0.95, 0.05]))
        assert tags.subset_sdp(a, b, 0.2)
        assert not tags.subset_sdp(a, b, 0.05)

    def test_matches_bloch_oracle(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            a = biased_effect(rng, lam_top=float(rng.uniform(0.85, 1.0)))
            b = biased_effect(rng)
            eps = float(rng.uniform(0.05, 0.5))
            want, margin = bloch_subset_oracle(a, b - a, eps, step=0.05)
            if margin <= 5e-3:
                continue
            checked += 1
            got = tags.subset_sdp(operator(a), operator(b), eps)
            assert got == want, f"disagree at eps={eps}: sdp={got} oracle={want} margin={margin}"
        assert checked >= 10

    def test_seeded_deterministic(self):
        rng = np.random.default_rng(6)
        a = operator(biased_effect(rng, 0.95))
        b = operator(biased_effect(rng))
        cfg = tags.SdpConfig(seed=3)
        assert tags.subset_sdp(a, b, 0.3, cfg) == tags.subset_sdp(a, b, 0.3, cfg)

    def test_boundary_top_eigenspace(self):
        # lambda_max(E_t) = c = 1: only e0 e0^T is accepting, and diff_00 = 0
        a = operator(np.diag([1.0, 0.3]))
        b = operator(np.diag([1.0, 0.9]))
        assert tags.subset_sdp(a, b, 0.0)

    def test_contained_by_dual_certificate(self):
        a = np.array(
            [
                [0.452, 0.121 + 0.299j, 0.196 - 0.018j, -0.137 + 0.071j],
                [0.121 - 0.299j, 0.366, 0.113 - 0.074j, 0.037 + 0.001j],
                [0.196 + 0.018j, 0.113 + 0.074j, 0.308, -0.138 + 0.208j],
                [-0.137 - 0.071j, 0.037 - 0.001j, -0.138 - 0.208j, 0.567],
            ]
        )
        b = np.array(
            [
                [0.503, 0.123 + 0.286j, 0.202 - 0.041j, -0.161 + 0.081j],
                [0.123 - 0.286j, 0.380, 0.093 - 0.021j, 0.036 - 0.009j],
                [0.202 + 0.041j, 0.093 + 0.021j, 0.378, -0.147 + 0.198j],
                [-0.161 - 0.081j, 0.036 + 0.009j, -0.147 - 0.198j, 0.621],
            ]
        )
        eps, mu = 0.115, 0.5293
        c = 1.0 - eps / 2.0
        # weak duality at one mu bounds both signed maxima below eps/2
        for diff in (b - a, a - b):
            assert np.linalg.eigvalsh(diff + mu * a)[-1] - mu * c < eps / 2.0
        assert np.linalg.eigvalsh(a)[-1] >= c
        assert tags.subset_sdp(operator(a), operator(b), eps)

    @pytest.mark.parametrize("d", [3, 4])
    def test_dual_bound_has_feasible_witness(self, d):
        rng = np.random.default_rng(8 + d)
        threshold_sides = set()
        for _ in range(60):
            a = biased_effect(rng, float(rng.uniform(0.85, 1.0)), d)
            # mixing toward a makes some pairs contained
            t = rng.uniform(0.0, 1.0)
            b = (1.0 - t) * a + t * random_effect(rng, d)
            eps = float(rng.uniform(0.02, 0.5))
            c = 1.0 - eps / 2.0
            if np.linalg.eigvalsh(a)[-1] < c:
                continue
            uppers = []
            for diff in (b - a, a - b):
                diff = 0.5 * (diff + np.conj(diff.T))
                upper, rho = tags._max_over_accepting(diff, a, c)
                np.testing.assert_allclose(rho, np.conj(rho.T), atol=1e-10)
                assert abs(np.real(np.trace(rho)) - 1.0) <= 1e-10
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10
                assert np.real(np.trace(rho @ a)) >= c - 1e-10
                assert abs(np.real(np.trace(rho @ diff)) - upper) <= 1e-9
                # upper is the dual minimum: no dual value on a grid lies below it
                grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
                dual = [np.linalg.eigvalsh(diff + mu * a)[-1] - mu * c for mu in grid]
                assert min(dual) >= upper - 1e-9
                uppers.append(upper)
            contained = max(uppers) - eps / 2.0 <= tags.THRESHOLD_SLACK
            assert tags.subset_sdp(operator(a), operator(b), eps) == contained
            threshold_sides.add(contained)
        assert threshold_sides == {True, False}

    def test_grid_oracle_monotone_in_eps(self):
        # once contained at some eps, contained at every larger eps;
        # checked on the exact grid decision with a margin filter
        rng = np.random.default_rng(7)
        eps_grid = np.linspace(0.05, 0.6, 12)
        for _ in range(30):
            a = biased_effect(rng, lam_top=float(rng.uniform(0.8, 1.0)))
            b = biased_effect(rng)
            decisions = []
            for eps in eps_grid:
                want, margin = bloch_subset_oracle(a, b - a, float(eps), step=0.05)
                if margin > 5e-3:
                    decisions.append(want)
            for x, y in zip(decisions, decisions[1:]):
                assert y >= x


class TestHierarchy:
    def _model_and_catalog(self):
        # items 0, 1 share the dominant like direction; item 2 is disjoint
        e_major = np.diag([1.0, 0.0]).astype(complex)
        e_near = np.diag([0.9, 0.1]).astype(complex)
        e_other = np.diag([0.1, 0.6]).astype(complex)
        def pair(e):
            return np.stack([e, np.eye(2) - e])
        items = np.stack([pair(e_major), pair(e_near), pair(e_other)])
        users = np.tile(np.eye(2, dtype=complex)[None] / 2, (2, 1, 1))
        m = models.QuantumModel(users=users, items=items)
        catalog = data.TagCatalog(
            tags=("big", "top", "side"),
            membership={"top": np.array([0]), "big": np.array([0, 1]), "side": np.array([2])},
        )
        return m, catalog

    def test_simple_hierarchy(self):
        m, catalog = self._model_and_catalog()
        g = tags.build_hierarchy(m, catalog, 0.25, method="simple")
        assert g.vertices == ("big", "side", "top")
        assert ("top", "big") in g.edges
        assert ("side", "top") not in g.edges
        assert g.method == "simple" and g.eps == 0.25

    def test_sdp_method_dispatch(self):
        m, catalog = self._model_and_catalog()
        g = tags.build_hierarchy(m, catalog, 0.3, method="sdp", cfg=tags.SdpConfig(seed=0))
        assert g.method == "sdp"
        for child, parent in g.edges:
            assert child != parent

    @pytest.mark.parametrize("eps", [1.5, 1.0, -0.1, float("nan")])
    def test_eps_checked_without_pairs(self, eps):
        # one tag has no ordered pairs, so only the up-front check sees eps
        m, catalog = self._model_and_catalog()
        one = data.TagCatalog(tags=("top",), membership={"top": catalog.membership["top"]})
        with pytest.raises(InvalidInput, match=r"eps must lie in \[0, 1\)"):
            tags.build_hierarchy(m, one, eps)

    def test_eps_must_be_a_real_number(self):
        m, catalog = self._model_and_catalog()
        for bad in ("0.3", None, [0.3], True):
            with pytest.raises(InvalidInput, match="build_hierarchy: eps must be a real number"):
                tags.build_hierarchy(m, catalog, bad)

    def test_method_validation(self):
        m, catalog = self._model_and_catalog()
        with pytest.raises(InvalidInput):
            tags.build_hierarchy(m, catalog, 0.2, method="fancy")

    def test_graph_validation(self):
        with pytest.raises(InvalidInput):
            tags.HierarchyGraph(vertices=("a",), edges=(("a", "b"),), eps=0.1, method="simple")
        with pytest.raises(InvalidInput):
            tags.HierarchyGraph(vertices=("a",), edges=(("a", "a"),), eps=0.1, method="simple")


class TestExportDot:
    def test_empty(self):
        g = tags.HierarchyGraph(vertices=(), edges=(), eps=0.1, method="simple")
        assert tags.export_dot(g) == "digraph { }\n"

    def test_vertices_and_edges(self):
        g = tags.HierarchyGraph(
            vertices=("a", "b", "c"), edges=(("a", "b"),), eps=0.1, method="simple"
        )
        out = tags.export_dot(g)
        assert '"a";' in out and '"b";' in out and '"c";' in out
        assert '"a" -> "b";' in out

    def test_mutual_edges_collapse(self):
        g = tags.HierarchyGraph(
            vertices=("a", "b"), edges=(("a", "b"), ("b", "a")), eps=0.1, method="simple"
        )
        out = tags.export_dot(g)
        assert out.count("->") == 1
        assert "[dir=both]" in out

    def test_quoting(self):
        g = tags.HierarchyGraph(
            vertices=('we"ird', "back\\slash"), edges=(), eps=0.1, method="simple"
        )
        out = tags.export_dot(g)
        assert '"we\\"ird"' in out
        assert '"back\\\\slash"' in out
