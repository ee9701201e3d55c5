"""The derived flag of the +i eigenspace and the integrability classifier.

The real trace of the derived distributions of T^{1,0} starts at Im N^J and
grows by Lie-derivative images of J and by brackets:

    D^(1) = Im N^J,   D^(k+1) = D^(k) + Σ_U Im(L_U J) + [D^(k), D^(k)],

with U running over a basis of D^(k). Every stage is J-stable, so the
recursion stabilizes within dim(g) steps; the first fixed point is the
involutive limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .acs import lie_derivative_endo, nijenhuis_image
from .errors import PreconditionError, TheoremViolationError
from .lie import bracket, bracket_escape
from .linalg import Subspace, column_space, subspace_sum

__all__ = [
    "DerivedFlag",
    "InvolutivityReport",
    "Classification",
    "derived_flag",
    "closure_witness",
    "t10_derived_involutive",
    "classify",
]


@dataclass(frozen=True)
class DerivedFlag:
    stages: tuple  # D^(1) ⊆ D^(2) ⊆ ... ⊆ D^(stable_index)
    stable_index: int
    limit: Subspace


def _grow(algebra, acs, d):
    nxt = d
    for u in d.basis:
        nxt = subspace_sum(nxt, column_space(lie_derivative_endo(algebra, acs, u)))
    for u, v in combinations(d.basis, 2):
        w = bracket(algebra, u, v)
        if any(w):
            nxt = subspace_sum(nxt, Subspace.from_rows(algebra.dim, [w]))
    return nxt


@lru_cache(maxsize=None)
def derived_flag(algebra, acs):
    stages = [nijenhuis_image(algebra, acs)]
    while True:
        nxt = _grow(algebra, acs, stages[-1])
        if nxt == stages[-1]:
            break
        if nxt.rank <= stages[-1].rank:  # strict growth is forced until the fixed point
            raise TheoremViolationError("derived flag failed to grow strictly before stabilizing")
        stages.append(nxt)
        if len(stages) > algebra.dim + 1:
            raise TheoremViolationError("derived flag did not stabilize within dim(g) steps")
    return DerivedFlag(tuple(stages), len(stages), stages[-1])


def _first_outside(d, sub):
    return next((r for r in sub.basis if not d.contains(r)), None)


def closure_witness(algebra, acs, d, kinds):
    """Witness dict for the first property in kinds that the subspace d fails, or None.

    Kinds, checked in the order given: "j_stable" (J d ⊆ d), "bracket"
    ([d, d] ⊆ d on basis pairs), "lie_derivative" (Im(L_U J) ⊆ d for every
    basis vector U of d) and "nijenhuis_image" (Im N^J ⊆ d).
    """
    for kind in kinds:
        if kind == "j_stable":
            for row in d.basis:
                jr = acs.apply(row)
                if not d.contains(jr):
                    return {"kind": kind, "vector": row, "image": jr}
        elif kind == "bracket":
            escape = bracket_escape(algebra, d)
            if escape is not None:
                u, v, w = escape
                return {"kind": kind, "u": u, "v": v, "value": w}
        elif kind == "lie_derivative":
            for u in d.basis:
                bad = _first_outside(d, column_space(lie_derivative_endo(algebra, acs, u)))
                if bad is not None:
                    return {"kind": kind, "u": u, "value": bad}
        elif kind == "nijenhuis_image":
            bad = _first_outside(d, nijenhuis_image(algebra, acs))
            if bad is not None:
                return {"kind": kind, "value": bad}
        else:
            raise ValueError(f"unknown closure kind {kind!r}")
    return None


@dataclass(frozen=True)
class InvolutivityReport:
    involutive: bool
    witness: dict | None


def t10_derived_involutive(algebra, acs, k):
    """Is the k-th derived distribution of T^{1,0} involutive?

    True iff D^(k) is bracket-closed and Im(L_U J) ⊆ D^(k) for every basis
    vector U of D^(k).
    """
    flag = derived_flag(algebra, acs)
    if not 1 <= k <= flag.stable_index:
        raise PreconditionError(
            f"k={k} out of range; flag stabilizes at index {flag.stable_index}"
        )
    witness = closure_witness(algebra, acs, flag.stages[k - 1], ("bracket", "lie_derivative"))
    return InvolutivityReport(witness is None, witness)


@dataclass(frozen=True)
class Classification:
    class_name: str  # Integrable | MinimallyNonIntegrable | MaximallyNonIntegrable | Intermediate
    flag_dims: tuple
    dim_im_N: int
    dim2_refinement: bool

    def to_json(self):
        return {
            "class": self.class_name,
            "flag_dims": list(self.flag_dims),
            "dim_im_N": self.dim_im_N,
            "dim2_refinement": self.dim2_refinement,
        }


def classify(algebra, acs):
    """Integrability class from the Nijenhuis image and the derived flag."""
    flag = derived_flag(algebra, acs)
    im = flag.stages[0]
    dims = tuple(s.rank for s in flag.stages)
    d = im.rank
    if d == 0:
        name = "Integrable"
    elif d == algebra.dim:
        name = "MaximallyNonIntegrable"
    elif t10_derived_involutive(algebra, acs, 1).involutive:
        name = "MinimallyNonIntegrable"
    else:
        name = "Intermediate"
    return Classification(name, dims, d, d == 2)
