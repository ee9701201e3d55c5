"""Homogeneous-space checks at the (g, h, J) level.

Models a homogeneous space with stabilizer subalgebra h at a base point: J is
an endomorphism of g preserving h with J^2 = -Id mod h. All Nijenhuis data is
computed in g and read modulo h. With h = 0 everything reduces to the
left-invariant Lie-group case and must agree with the strict-mode kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .acs import (
    AlmostComplexStructure,
    lie_derivative_endo,
    nijenhuis,
    nijenhuis_image,
    square_defect,
)
from .cohomology import transverse_structure_report
from .errors import PreconditionError, ShapeError
from .flag import closure_witness
from .lie import LieAlgebra, bracket_escape, subalgebra_report
from .linalg import Subspace, subspace_sum, transpose
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
    """g with stabilizer subalgebra h and a lift J normalized to preserve h.

    ``violations`` holds the ``(description, witness)`` pairs of every pair
    condition that fails (see validate_pair). The pair is immutable, so they
    are computed once, here, and the Im N^J data of the minimality and
    fibration checks once, on first use; neither takes part in equality.
    """

    algebra: LieAlgebra
    h: Subspace
    acs: AlmostComplexStructure
    violations: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.h.ambient_dim != self.algebra.dim:
            raise ShapeError("h must live in the algebra's ambient space")
        object.__setattr__(self, "violations", _pair_violations(self.algebra, self.h, self.acs))

    @classmethod
    def lie_group(cls, algebra, acs):
        """The h = 0 case; accepts a strict acs."""
        return cls(algebra, Subspace.zero(algebra.dim), acs)

    @cached_property
    def _image_data(self):
        """(Im N^J, Im N^J + h, its subalgebra_report, minimality witness or None).

        [JA, w] − J[A, w] = −(L_w J)(A) is linear in A and w, and Im N^J is
        spanned by the N^J values on basis pairs, so the criterion holds iff
        Im(L_u J) ⊆ Im N^J + h for u over the echelon basis of Im N^J. When
        Im N^J + h is an ideal that is automatic and no witness is sought.
        Built once, on first use by a check that has required a valid pair.
        """
        algebra, acs = self.algebra, self.acs
        image = nijenhuis_image(algebra, acs)
        target = subspace_sum(image, self.h)
        closure = subalgebra_report(algebra, target)
        witness = None
        if not closure.is_ideal:
            witness = next((
                {"u": u, "value": col}
                for u in image.basis
                for col in transpose(lie_derivative_endo(algebra, acs, u))
                if not target.contains(col)
            ), None)
        return image, target, closure, witness


@dataclass(frozen=True)
class PairReport:
    violations: tuple  # (description, witness)

    @property
    def valid(self):
        return not self.violations


def _pair_violations(algebra, h, acs):
    n = algebra.dim
    violations = []
    escape = bracket_escape(algebra, h)
    if escape is not None:
        violations.append(("h is not a subalgebra", escape))
    moved = closure_witness(algebra, acs, h, ("j_stable",))
    if moved is not None:
        violations.append(("J does not preserve h", (moved["vector"], moved["image"])))
    if (n - h.rank) % 2:
        violations.append(("dim g - dim h is odd", (n, h.rank)))
    outside = next(((a, v) for a, v in square_defect(acs.J).items() if not h.contains(v)), None)
    if outside is not None:
        violations.append(("(J^2 + Id)(g) is not contained in h", outside))
    return tuple(violations)


def validate_pair(pair):
    """h must be a subalgebra; J must preserve h and square to -Id mod h."""
    return PairReport(pair.violations)


def _require_valid(pair):
    if pair.violations:
        raise PreconditionError(f"invalid homogeneous pair: {pair.violations[0][0]}")


def invariance_check(pair):
    """Infinitesimal invariance: [H, JA] - J[H, A] ∈ h for H ∈ h, A ∈ g.

    That is Im(L_H J) ⊆ h for H over a basis of h; the witness is
    closure_witness's "lie_derivative" dict, or None.
    """
    _require_valid(pair)
    witness = closure_witness(pair.algebra, pair.acs, pair.h, ("lie_derivative",))
    return {"invariant": witness is None, "witness": witness}


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
    """[JA, N^J(B,C)] − J[A, N^J(B,C)] ∈ Im N^J + h for all A, B, C in g.

    Tested as Im(L_u J) ⊆ Im N^J + h over a basis u of Im N^J, short-circuited
    when Im N^J + h is an ideal (via_ideal_shortcut). The witness is
    {"u": u, "value": a column of L_u J outside Im N^J + h}, or None.
    """
    _require_valid(pair)
    _, _, closure, witness = pair._image_data
    return {"holds": witness is None, "witness": witness, "via_ideal_shortcut": closure.is_ideal}


def fibration_report(pair):
    """Foliation data of Im N^J when the minimality criterion holds.

    dim_im_N counts the distribution on g/h, i.e. dim((Im N^J + h)/h).
    fibers_complex uses the dim-2 shortcut, else tests N^J on Im N^J pairs.
    """
    _require_valid(pair)
    algebra = pair.algebra
    image, target, closure, witness = pair._image_data
    if witness is not None:
        return {"applicable": False, "reason": "minimality criterion fails", "witness": witness}
    dim_mod_h = target.rank - pair.h.rank
    via_dim2 = dim_mod_h == 2
    fibers_complex = via_dim2 or all(
        pair.h.contains(nijenhuis(algebra, pair.acs, u, v))
        for u, v in combinations(image.basis, 2)
    )
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
