"""Homogeneous-space checks at the (g, h, J) level.

Models a homogeneous space with stabilizer subalgebra h at a base point: J is
an endomorphism of g preserving h with J^2 = -Id mod h. All Nijenhuis data is
computed in g and read modulo h. With h = 0 everything reduces to the
left-invariant Lie-group case and must agree with the strict-mode kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .acs import AlmostComplexStructure, nijenhuis, nijenhuis_image
from .cohomology import transverse_structure_report
from .errors import PreconditionError, ShapeError
from .flag import closure_witness
from .lie import LieAlgebra, bracket, bracket_escape, subalgebra_report
from .linalg import Subspace, basis_vector, mat_vec, sub_vectors, subspace_sum
from .scalars import GaussianRational

__all__ = [
    "HomogeneousPair",
    "PairReport",
    "validate_pair",
    "invariance_check",
    "base_nijenhuis",
    "minimal_homogeneous_check",
    "fibration_report",
]


@dataclass(frozen=True)
class HomogeneousPair:
    """g with stabilizer subalgebra h and a lift J normalized to preserve h."""

    algebra: LieAlgebra
    h: Subspace
    acs: AlmostComplexStructure

    def __post_init__(self):
        if self.h.ambient_dim != self.algebra.dim:
            raise ShapeError("h must live in the algebra's ambient space")

    @classmethod
    def lie_group(cls, algebra, acs):
        """The h = 0 case; accepts a strict acs."""
        return cls(algebra, Subspace.zero(algebra.dim), acs)


@dataclass(frozen=True)
class PairReport:
    violations: tuple  # (description, witness)

    @property
    def valid(self):
        return not self.violations


def validate_pair(pair):
    """h must be a subalgebra; J must preserve h and square to -Id mod h."""
    algebra, h, J = pair.algebra, pair.h, pair.acs.J
    n = algebra.dim
    violations = []
    escape = bracket_escape(algebra, h)
    if escape is not None:
        violations.append(("h is not a subalgebra", escape))
    moved = closure_witness(algebra, pair.acs, h, ("j_stable",))
    if moved is not None:
        violations.append(("J does not preserve h", (moved["vector"], moved["image"])))
    if (n - h.rank) % 2:
        violations.append(("dim g - dim h is odd", (n, h.rank)))
    for a in range(n):
        ea = basis_vector(n, a)
        v = mat_vec(J, mat_vec(J, ea))
        defect = tuple(x + y for x, y in zip(v, ea))
        if not h.contains(defect):
            violations.append(("(J^2 + Id)(g) is not contained in h", (a, defect)))
            break
    return PairReport(tuple(violations))


def _require_valid(pair):
    report = validate_pair(pair)
    if not report.valid:
        raise PreconditionError(f"invalid homogeneous pair: {report.violations[0][0]}")
    return pair


def invariance_check(pair):
    """Infinitesimal invariance: [H, JA] - J[H, A] ∈ h for H ∈ h, A ∈ g."""
    _require_valid(pair)
    algebra, h, J = pair.algebra, pair.h, pair.acs.J
    n = algebra.dim
    for hrow in h.basis:
        for a in range(n):
            ea = basis_vector(n, a)
            defect = sub_vectors(
                bracket(algebra, hrow, mat_vec(J, ea)),
                mat_vec(J, bracket(algebra, hrow, ea)),
            )
            if not h.contains(defect):
                return {"invariant": False, "witness": (hrow, a, defect)}
    return {"invariant": True, "witness": None}


def base_nijenhuis(pair, a, b):
    """N^J(a,b) reduced mod h: the canonical coset representative.

    The manifold-level tensor on fundamental vector fields at the base point
    is the negative of this value; on left-invariant fields (h = 0) the two
    computations agree as returned.
    """
    _require_valid(pair)
    a = tuple(GaussianRational.of(c) for c in a)
    b = tuple(GaussianRational.of(c) for c in b)
    return pair.h.reduce(nijenhuis(pair.algebra, pair.acs, a, b))


def minimal_homogeneous_check(pair):
    """[JA, N^J(B,C)] − J[A, N^J(B,C)] ∈ Im N^J + h over all basis triples.

    Short-circuits when Im N^J + h is an ideal (containment is then automatic).
    """
    _require_valid(pair)
    algebra, J = pair.algebra, pair.acs.J
    n = algebra.dim
    target = subspace_sum(nijenhuis_image(algebra, pair.acs), pair.h)
    if subalgebra_report(algebra, target).is_ideal:
        return {"holds": True, "witness": None, "via_ideal_shortcut": True}
    nvals = {}
    for i, j in combinations(range(n), 2):
        w = nijenhuis(algebra, pair.acs, basis_vector(n, i), basis_vector(n, j))
        if any(w):
            nvals[(i, j)] = w
    for a in range(n):
        ea = basis_vector(n, a)
        jea = mat_vec(J, ea)
        for (i, j), w in nvals.items():
            defect = sub_vectors(
                bracket(algebra, jea, w), mat_vec(J, bracket(algebra, ea, w))
            )
            if not target.contains(defect):
                return {
                    "holds": False,
                    "witness": {"A": a, "BC": (i, j), "defect": defect},
                    "via_ideal_shortcut": False,
                }
    return {"holds": True, "witness": None, "via_ideal_shortcut": False}


def fibration_report(pair):
    """Foliation data of Im N^J when the minimality criterion holds.

    dim_im_N counts the distribution on g/h, i.e. dim((Im N^J + h)/h).
    fibers_complex uses the dim-2 shortcut, else tests N^J on Im N^J pairs.
    """
    check = minimal_homogeneous_check(pair)
    if not check["holds"]:
        return {"applicable": False, "reason": "minimality criterion fails", "witness": check["witness"]}
    algebra = pair.algebra
    image = nijenhuis_image(algebra, pair.acs)
    target = subspace_sum(image, pair.h)
    dim_mod_h = target.rank - pair.h.rank
    closure = subalgebra_report(algebra, target)
    if dim_mod_h == 2:
        fibers_complex = True
        via_dim2 = True
    else:
        via_dim2 = False
        fibers_complex = True
        for u, v in combinations(image.basis, 2):
            w = nijenhuis(algebra, pair.acs, u, v)
            if not pair.h.contains(w):
                fibers_complex = False
                break
    transverse = transverse_structure_report(algebra, pair.acs, target)
    return {
        "applicable": True,
        "dim_im_N": dim_mod_h,
        "is_subalgebra": closure.is_subalgebra,
        "is_ideal": closure.is_ideal,
        "fibers_complex": fibers_complex,
        "via_dim2_shortcut": via_dim2,
        "transverse_complex_structure": transverse.ok,
    }
