"""Almost complex structures on a Lie algebra.

Covers validation, the ±i eigenspace splitting of the complexified algebra,
the Nijenhuis tensor and its image, and the Lie-derivative endomorphisms
X ↦ [u, JX] − J[u, X] that drive the derived flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ShapeError, ValidationError
from .lie import bracket
from .linalg import (
    Subspace,
    as_matrix,
    basis_vector,
    conj_vector,
    mat_inverse,
    mat_vec,
    rref_rows,
    sub_vectors,
    transpose,
)
from .scalars import GaussianRational, I

__all__ = [
    "AlmostComplexStructure",
    "ACSReport",
    "Splitting",
    "validate_acs",
    "split_10_01",
    "nijenhuis",
    "nijenhuis_image",
    "lie_derivative_endo",
    "square_defect",
]

_HALF = GaussianRational.of(1) / 2
_MINUS_I_HALF = -I / 2


@dataclass(frozen=True, slots=True)
class AlmostComplexStructure:
    """J as an n×n rational matrix; mod_h selects the homogeneous (mod-h) regime."""

    J: tuple
    mod_h: Subspace | None = None

    def __post_init__(self):
        object.__setattr__(self, "J", as_matrix(self.J))
        n = len(self.J)
        if any(len(row) != n for row in self.J):
            raise ShapeError("J must be square")
        if any(c.triple[1] for row in self.J for c in row):
            raise ValidationError("J must have rational (real) entries")
        if self.mod_h is None:
            if n % 2:
                raise ShapeError(f"strict almost complex structure needs even dimension, got {n}")
            cols = tuple(square_defect(self.J))
            if cols:
                raise ValidationError(f"J^2 != -Id; offending columns {cols}")
        else:
            # mod-h invariants (J(h) ⊆ h, J^2 = -Id mod h, even codimension) are
            # checked once per homogeneous.HomogeneousPair (its violations), not enforced here
            if self.mod_h.ambient_dim != n:
                raise ShapeError("mod_h ambient dimension must match J")

    @classmethod
    def from_rows(cls, rows, mod_h=None):
        return cls(tuple(tuple(r) for r in rows), mod_h)

    @property
    def dim(self):
        return len(self.J)

    @property
    def strict(self):
        return self.mod_h is None

    def apply(self, v):
        return mat_vec(self.J, v)


def square_defect(J):
    """{a: column a of J^2 + Id} for every column that is not zero, in column order."""
    out = {}
    for a, col in enumerate(transpose(J)):
        v = mat_vec(J, col)
        v = v[:a] + (v[a] + 1,) + v[a + 1:]
        if any(v):
            out[a] = v
    return out


@dataclass(frozen=True)
class ACSReport:
    valid: bool
    failing_columns: tuple


def validate_acs(algebra, J):
    """Strict-mode check of a raw matrix: J^2 = -Id exactly."""
    J = as_matrix(J)
    n = algebra.dim
    if len(J) != n or any(len(r) != n for r in J):
        raise ShapeError(f"J must be {n}x{n}")
    if n % 2:
        raise ShapeError(f"strict almost complex structure needs even dimension, got {n}")
    bad = tuple(square_defect(J))
    return ACSReport(valid=not bad, failing_columns=bad)


def _require_strict(acs):
    if not acs.strict:
        raise ValidationError("operation requires a strict (not mod-h) almost complex structure")
    return acs


@dataclass(frozen=True)
class Splitting:
    """Canonical bases of the ±i eigenspaces and their dual covectors.

    dual_10[a] pairs to 1 with basis_10[a] and kills every basis_01 vector
    (and symmetrically), so coordinates in the eigenbasis are plain pairings.
    """

    basis_10: tuple
    basis_01: tuple
    dual_10: tuple
    dual_01: tuple


@lru_cache(maxsize=None)
def split_10_01(algebra, acs):
    _require_strict(acs)
    n = algebra.dim
    m = n // 2
    # span of the projectors A+ e_a = (e_a - i J e_a)/2, echelon-reduced
    gens = []
    for a in range(n):
        jea = mat_vec(acs.J, basis_vector(n, a))
        gens.append(tuple(
            (_HALF if k == a else 0) + _MINUS_I_HALF * jea[k] for k in range(n)
        ))
    ech, _ = rref_rows(gens)
    if len(ech) != m:  # impossible once J^2 = -Id holds
        raise ValidationError(f"eigenspace rank {len(ech)} != {m}")
    basis_10 = ech
    basis_01 = tuple(conj_vector(v) for v in basis_10)
    big = basis_10 + basis_01
    inv = mat_inverse(big)
    duals = tuple(tuple(inv[i][a] for i in range(n)) for a in range(n))
    return Splitting(basis_10, basis_01, duals[:m], duals[m:])


def nijenhuis(algebra, acs, x, y):
    """N^J(x,y) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y].

    This is the J^2[x,y] form for a strict J (J^2 = -Id exactly) and the
    homogeneous normalization for a mod-h J (J^2 = -Id only mod h).
    """
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise ShapeError(f"vectors must have length {n}")
    jx, jy = acs.apply(x), acs.apply(y)
    out = bracket(algebra, jx, jy)
    out = sub_vectors(out, acs.apply(bracket(algebra, jx, y)))
    out = sub_vectors(out, acs.apply(bracket(algebra, x, jy)))
    return sub_vectors(out, bracket(algebra, x, y))


@lru_cache(maxsize=None)
def nijenhuis_image(algebra, acs):
    """Span of N^J over basis pairs; J-stable (mod h for a mod-h J) by N^J(Jx,y) = -J N^J(x,y)."""
    n = algebra.dim
    vals = [
        nijenhuis(algebra, acs, basis_vector(n, i), basis_vector(n, j))
        for i, j in combinations(range(n), 2)
    ]
    return Subspace.from_rows(n, vals)


def lie_derivative_endo(algebra, acs, u):
    """Matrix of X ↦ [u, JX] − J[u, X]; anticommutes with J when J^2 = -Id."""
    n = algebra.dim
    if len(u) != n:
        raise ShapeError(f"vector must have length {n}")
    cols = []
    for j in range(n):
        ej = basis_vector(n, j)
        col = sub_vectors(
            bracket(algebra, u, acs.apply(ej)),
            acs.apply(bracket(algebra, u, ej)),
        )
        cols.append(col)
    return transpose(cols)
