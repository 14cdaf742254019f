"""Tag operators, approximate-containment tests, hierarchy graphs, and DOT export.

A tag's operator is the mean of the like-effects of its member items; it maps
a user state to that user's probability of liking a random item with the tag.
Two containment tests between tags t and t' are provided:

* subset_simple: trace overlap, tr(E_t E_t') >= (1 - eps) tr(E_t).
* subset_sdp: spectral gate max eig(E_t) >= 1 - eps/2, plus infeasibility of
  a state accepted by E_t with probability >= 1 - eps/2 whose acceptance
  probabilities under E_t and E_t' differ by more than eps/2. That is decided
  exactly through the one-dimensional Lagrange dual of the largest such
  difference, which certifies "contained" and yields a witness otherwise.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InvalidInput, NumericalFailure

__all__ = [
    "TagOperator",
    "HierarchyGraph",
    "SdpConfig",
    "tag_operator",
    "subset_simple",
    "subset_sdp",
    "build_hierarchy",
    "export_dot",
]

# Deterministic slack on the strict feasibility threshold eps/2.
THRESHOLD_SLACK = 1e-9

# _max_over_accepting stops at a duality gap of _GAP_TOL, at a bracket of
# machine precision, or after _MAX_ROUNDS bisection rounds.
_GAP_TOL = 1e-12
_MAX_ROUNDS = 200
# The dual minimiser, and with it the dual's rounding error eps * mu, grow like
# 1/sqrt(lambda_max(E) - c); below this gap the error would pass THRESHOLD_SLACK.
_BOUNDARY_SLACK = (np.finfo(float).eps / THRESHOLD_SLACK) ** 2


@dataclass(frozen=True)
class TagOperator:
    """Mean like-effect of a tag's member items."""

    name: str
    matrix: np.ndarray
    members: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidInput("TagOperator: matrix must be square")
        w = np.linalg.eigvalsh(0.5 * (matrix + np.conj(matrix.T)))
        if w[0] < -1e-8 or w[-1] > 1.0 + 1e-8:
            raise InvalidInput(
                f"TagOperator: eigenvalues must lie in [0, 1], got [{w[0]:.3e}, {w[-1]:.3e}]"
            )
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class SdpConfig:
    """Accepted by subset_sdp and build_hierarchy; seed has no effect, since
    the test is exact and draws no random numbers."""

    seed: int = 0


@dataclass(frozen=True)
class HierarchyGraph:
    """Directed graph over tag names; an edge (t, t') means t is contained
    in t' at the recorded eps under the recorded method. No self-loops."""

    vertices: tuple
    edges: tuple
    eps: float
    method: str

    def __post_init__(self):
        vset = set(self.vertices)
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise InvalidInput(f"HierarchyGraph: edge ({a!r}, {b!r}) uses unknown vertex")
            if a == b:
                raise InvalidInput(f"HierarchyGraph: self-loop on {a!r}")


def tag_operator(m, members, name=""):
    """Arithmetic mean of the like-effects of the member items."""
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise InvalidInput("tag_operator: empty member set")
    if members.min() < 0 or members.max() >= m.I:
        raise InvalidInput("tag_operator: member index out of range")
    e = linalg.hermitianize(np.mean(m.items[members, 0], axis=0))
    return TagOperator(name=name, matrix=e, members=int(members.size))


def _check_pair(t, tp, eps):
    if t.matrix.shape != tp.matrix.shape:
        raise InvalidInput("tag operators have different dimensions")
    if not 0.0 <= eps < 1.0:
        raise InvalidInput(f"eps must lie in [0, 1), got {eps}")


def subset_simple(t, tp, eps):
    """True iff tr(E_t E_t') >= (1 - eps) tr(E_t)."""
    _check_pair(t, tp, eps)
    overlap = linalg.trace_inner(t.matrix, tp.matrix)
    return bool(overlap >= (1.0 - eps) * np.real(np.trace(t.matrix)))


_Probe = namedtuple("_Probe", "g psi subgradient value")


def _probe(delta, e, c, mu):
    """Dual value g(mu) = lambda_max(delta + mu e) - mu c at one mu, with a top
    eigenvector psi, the subgradient psi^H e psi - c and psi^H delta psi."""
    w, v = np.linalg.eigh(delta + mu * e)
    psi = v[:, -1]
    subgradient = float(np.real(np.conj(psi) @ e @ psi)) - c
    return _Probe(float(w[-1]) - mu * c, psi, subgradient, float(np.real(np.conj(psi) @ delta @ psi)))


def _max_over_accepting(delta, e, c):
    """Upper bound and feasible witness for max tr(rho delta) over density
    matrices rho with tr(rho e) >= c, given lambda_max(e) >= c.

    Every value of the convex dual g(mu), mu >= 0, bounds the maximum from
    above. Bisection on the subgradient's sign keeps a bracket [lo, hi]
    whose top eigenvectors are infeasible at lo and feasible at hi; the
    witness mixes the two so that tr(rho e) = c. Returns (least g seen, rho).
    """
    w_e, v_e = np.linalg.eigh(e)
    slack = float(w_e[-1]) - c
    if slack <= _BOUNDARY_SLACK:
        # Only states on e's top eigenspace are accepting (exactly so at slack
        # 0): the maximum is the top eigenvalue of delta compressed onto it.
        basis = v_e[:, w_e >= w_e[-1] - _BOUNDARY_SLACK]
        w, v = np.linalg.eigh(np.conj(basis.T) @ delta @ basis)
        psi = basis @ v[:, -1]
        return float(w[-1]), np.outer(psi, np.conj(psi))
    low = _probe(delta, e, c, 0.0)
    if low.subgradient >= 0.0:
        return low.g, np.outer(low.psi, np.conj(low.psi))
    # At mu every top eigenvector has subgradient >= slack - spread(delta) / mu,
    # so at hi it is at least slack / 2.
    lo, hi = 0.0, 2.0 * (low.g - float(np.linalg.eigvalsh(delta)[0])) / slack + 1.0
    high = _probe(delta, e, c, hi)
    upper = min(low.g, high.g)
    for _ in range(_MAX_ROUNDS):
        theta = high.subgradient / (high.subgradient - low.subgradient)
        if upper - (theta * low.value + (1.0 - theta) * high.value) <= _GAP_TOL:
            break  # duality gap closed
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # bracket at machine precision
        probe = _probe(delta, e, c, mid)
        upper = min(upper, probe.g)
        if probe.subgradient >= 0.0:
            hi, high = mid, probe
        else:
            lo, low = mid, probe
    rho = theta * np.outer(low.psi, np.conj(low.psi)) + (1.0 - theta) * np.outer(high.psi, np.conj(high.psi))
    return upper, rho


def subset_sdp(t, tp, eps, cfg=None):
    """Spectral-gate plus exact feasibility containment test.

    True iff max eig(E_t) >= 1 - eps/2 and no state rho with
    tr(rho E_t) >= 1 - eps/2 attains |tr(rho (E_t' - E_t))| > eps/2.
    Each signed maximum is bounded from above by its Lagrange dual, min over
    mu >= 0 of lambda_max(+-diff + mu E_t) - mu (1 - eps/2), which a feasible
    state attains to within 1e-12; the bound decides. cfg has no effect.
    """
    _check_pair(t, tp, eps)
    c = 1.0 - eps / 2.0
    et = linalg.hermitianize(t.matrix)
    if np.linalg.eigvalsh(et)[-1] < c:
        return False
    diff = linalg.hermitianize(tp.matrix - t.matrix)
    if float(np.max(np.abs(diff))) == 0.0:
        return True
    upper = max(_max_over_accepting(diff, et, c)[0], _max_over_accepting(-diff, et, c)[0])
    if not np.isfinite(upper):
        raise NumericalFailure("subset_sdp: dual bound is not finite")
    return upper <= eps / 2.0 + THRESHOLD_SLACK


def build_hierarchy(m, catalog, eps, method="simple", cfg=None):
    """Evaluate the chosen containment test on all ordered tag pairs."""
    if method not in ("simple", "sdp"):
        raise InvalidInput(f"build_hierarchy: unknown method {method!r}")
    ops = {tag: tag_operator(m, catalog.membership[tag], tag) for tag in catalog.tags}
    edges = []
    for a in catalog.tags:
        for b in catalog.tags:
            if a == b:
                continue
            if method == "simple":
                related = subset_simple(ops[a], ops[b], eps)
            else:
                related = subset_sdp(ops[a], ops[b], eps, cfg)
            if related:
                edges.append((a, b))
    return HierarchyGraph(
        vertices=tuple(sorted(catalog.tags)), edges=tuple(sorted(edges)), eps=float(eps), method=method
    )


def _quote(name):
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g):
    """Render the hierarchy as DOT text.

    Vertices in lexicographic order; mutual edges rendered once with
    dir=both; the empty graph renders as `digraph { }`.
    """
    if not g.vertices:
        return "digraph { }\n"
    lines = ["digraph {"]
    for v in sorted(g.vertices):
        lines.append(f"  {_quote(v)};")
    edge_set = set(g.edges)
    for a, b in sorted(edge_set):
        if (b, a) in edge_set:
            if a < b:
                lines.append(f"  {_quote(a)} -> {_quote(b)} [dir=both];")
        else:
            lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
