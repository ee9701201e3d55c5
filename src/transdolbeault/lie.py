"""Lie algebras with exact structure constants.

Brackets are stored sparsely on basis pairs (i, j) with i < j; antisymmetry
is structural. Structure constants are real rationals; complex coefficients
enter only through the vectors a bracket is applied to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ShapeError, ValidationError
from .linalg import add_vectors, basis_vector, scale_vector, sub_vectors, zero_vector
from .scalars import GaussianRational

__all__ = [
    "LieAlgebra",
    "JacobiReport",
    "SubalgebraReport",
    "validate_lie_algebra",
    "bracket",
    "bracket_escape",
    "subalgebra_report",
]


@dataclass(frozen=True, slots=True)
class LieAlgebra:
    """dim: basis size n; brackets: sorted tuple of ((i, j), c^k_{ij} vector), i < j."""

    dim: int
    brackets: tuple

    @classmethod
    def from_brackets(cls, dim, table):
        """Build from {(i, j): coeffs} with 0-based indices.

        coeffs may be a mapping {k: scalar} or a full length-dim vector.
        Pairs with i > j are folded in by antisymmetry; i == j must be zero.
        """
        if dim <= 0:
            raise ShapeError("dimension must be positive")
        merged = {}
        for (i, j), coeffs in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeError(f"bracket pair ({i},{j}) out of range for dim {dim}")
            if isinstance(coeffs, dict):
                vec = [GaussianRational.of(0)] * dim
                for k, c in coeffs.items():
                    if not 0 <= k < dim:
                        raise ShapeError(f"coefficient index {k} out of range")
                    vec[k] = GaussianRational.of(c)
                vec = tuple(vec)
            else:
                vec = tuple(GaussianRational.of(c) for c in coeffs)
                if len(vec) != dim:
                    raise ShapeError(
                        f"coefficient vector for ({i},{j}) has length {len(vec)}, expected {dim}"
                    )
            sign = 1
            if i == j:
                if any(vec):
                    raise ValidationError(f"[e{i}, e{i}] must vanish")
                continue
            if i > j:
                i, j, sign = j, i, -1
            if (i, j) in merged:
                raise ValidationError(f"duplicate bracket pair ({i},{j})")
            if any(c.triple[1] for c in vec):
                raise ValidationError("structure constants must be real rationals")
            if sign < 0:
                vec = tuple(-c for c in vec)
            if any(vec):
                merged[(i, j)] = vec
        return cls(dim, tuple(sorted(merged.items())))

    @classmethod
    def abelian(cls, dim):
        return cls(dim, ())

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coefficient vector."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ShapeError(f"basis pair ({i},{j}) out of range")
        if i == j:
            return zero_vector(self.dim)
        table = _bracket_table(self)
        if i < j:
            return table.get((i, j), zero_vector(self.dim))
        vec = table.get((j, i))
        return tuple(-c for c in vec) if vec else zero_vector(self.dim)


@lru_cache(maxsize=None)
def _bracket_table(algebra):
    return dict(algebra.brackets)


def bracket(algebra, x, y):
    """[x, y], extended bilinearly over Q(i)."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise ShapeError(f"vectors must have length {n}")
    out = None
    for (i, j), vec in algebra.brackets:
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            term = scale_vector(coef, vec)
            out = term if out is None else add_vectors(out, term)
    return out if out is not None else zero_vector(n)


@dataclass(frozen=True)
class JacobiReport:
    """Jacobi defects per basis triple; empty means the algebra is valid."""

    violations: tuple  # ((i, j, k), defect vector)

    @property
    def valid(self):
        return not self.violations


def validate_lie_algebra(algebra):
    """Check the Jacobi identity on every basis triple."""
    n = algebra.dim
    violations = []
    ident = [basis_vector(n, i) for i in range(n)]
    table = _bracket_table(algebra)  # one cache lookup per call, not one per bracket
    zero = zero_vector(n)
    for i, j, k in combinations(range(n), 3):
        s = bracket(algebra, table.get((i, j), zero), ident[k])
        s = add_vectors(s, bracket(algebra, table.get((j, k), zero), ident[i]))
        # [[e_k, e_i], e_j] = -[[e_i, e_k], e_j]
        s = sub_vectors(s, bracket(algebra, table.get((i, k), zero), ident[j]))
        if any(s):
            violations.append(((i, j, k), s))
    return JacobiReport(tuple(violations))


@dataclass(frozen=True)
class SubalgebraReport:
    is_subalgebra: bool
    is_ideal: bool
    subalgebra_witness: tuple | None  # (u, v, [u,v]) escaping V
    ideal_witness: tuple | None  # (basis index, v, [e_i, v]) escaping V


def bracket_escape(algebra, sub):
    """The first basis pair (u, v, [u,v]) of sub whose bracket leaves sub, or None."""
    for u, v in combinations(sub.basis, 2):
        w = bracket(algebra, u, v)
        if not sub.contains(w):
            return u, v, w
    return None


def subalgebra_report(algebra, subspace):
    """Bracket-closure of a subspace: [V,V] ⊆ V and [g,V] ⊆ V on basis pairs."""
    n = algebra.dim
    if subspace.ambient_dim != n:
        raise ShapeError("subspace ambient dimension must equal the algebra dimension")
    sub_witness = bracket_escape(algebra, subspace)
    ideal_witness = None
    for i in range(n):
        ei = basis_vector(n, i)
        for v in subspace.basis:
            w = bracket(algebra, ei, v)
            if not subspace.contains(w):
                ideal_witness = (i, v, w)
                break
        if ideal_witness:
            break
    return SubalgebraReport(sub_witness is None, ideal_witness is None, sub_witness, ideal_witness)
