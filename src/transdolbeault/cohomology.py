"""Transverse form modules and the three cohomology pipelines.

* transverse_dolbeault: del_bar-cohomology of forms annihilated (by contraction
  and Lie derivative) along the involutive limit of the derived flag;
* mu_bar_cohomology: per-bidegree subquotients Ker mu_bar / Im mu_bar;
* generalized_dolbeault: cohomology of the map induced by del_bar on the
  mu_bar-cohomology.

compare_p0 cross-checks the first and third pipelines in degrees (p,0); a
mismatch is a proved impossibility and raises TheoremViolationError.
All tables are invariant-level (constant-coefficient) dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import PreconditionError, TheoremViolationError
from .flag import closure_witness, derived_flag
from .forms import bigraded_frame, component_operators, wedge_one_form
from .linalg import (
    Subspace,
    _apply_sparse,
    combine_rows,
    induced_map_on_quotient,
    kernel,
    quotient_representatives,
    rref_rows,
    solve_many_in_rows,
    sparse_rows,
    transpose,
)
from .scalars import ONE, ZERO

__all__ = [
    "TransverseModule",
    "CohomologyTable",
    "Subquotient",
    "TransverseStructureReport",
    "transverse_structure_report",
    "transverse_module",
    "transverse_dolbeault",
    "mu_bar_cohomology",
    "generalized_dolbeault",
    "compare_p0",
    "comparison_map_rank",
]


@dataclass(frozen=True)
class Subquotient:
    """sub/quot_by with deterministic echelon-complement representatives."""

    sub: Subspace
    quot_by: Subspace
    reps: tuple

    @property
    def dim(self):
        return len(self.reps)


@dataclass(frozen=True)
class CohomologyTable:
    theory: str  # trans | mu_bar | cw
    dims: tuple  # sorted (((p, q), dim), ...)
    representatives: tuple = ()  # sorted (((p, q), (vectors...)), ...)

    def dim(self, p, q):
        return dict(self.dims).get((p, q), 0)

    def reps(self, p, q):
        return dict(self.representatives).get((p, q), ())

    def dims_dict(self):
        return dict(self.dims)


@dataclass(frozen=True)
class TransverseStructureReport:
    """Closure properties making J a transverse complex structure along D."""

    j_stable: bool
    involutive: bool
    lie_images_contained: bool
    contains_nijenhuis_image: bool
    witness: dict | None

    @property
    def ok(self):
        return (
            self.j_stable
            and self.involutive
            and self.lie_images_contained
            and self.contains_nijenhuis_image
        )


def transverse_structure_report(algebra, acs, dist):
    witness = closure_witness(
        algebra, acs, dist, ("j_stable", "bracket", "lie_derivative", "nijenhuis_image")
    )
    failed = witness and witness["kind"]
    return TransverseStructureReport(
        failed != "j_stable",
        failed != "bracket",
        failed != "lie_derivative",
        failed != "nijenhuis_image",
        witness,
    )


@dataclass(frozen=True)
class TransverseModule:
    """Per-bidegree spaces of forms basic along D: ι_U ω = 0 and L_U ω = 0 for U in D."""

    distribution: Subspace
    spaces: tuple  # sorted (((p, q), Subspace of the bidegree coefficient space), ...)

    def space(self, p, q):
        return dict(self.spaces)[(p, q)]


@lru_cache(maxsize=None)
def transverse_module(algebra, acs, dist):
    frame = bigraded_frame(algebra, acs)
    witness = closure_witness(algebra, acs, dist, ("j_stable", "bracket"))
    if witness is not None and witness["kind"] == "j_stable":
        raise PreconditionError(
            f"distribution is not J-stable: J maps {tuple(map(str, witness['vector']))} outside"
        )
    if witness is not None:
        u, v = (tuple(map(str, witness[key])) for key in ("u", "v"))
        raise PreconditionError(f"distribution is not involutive: [{u}, {v}] escapes")
    if dist.is_zero():
        return TransverseModule(
            dist, tuple(((p, q), Subspace.full(frame.dim(p, q))) for p, q in frame.bidegrees())
        )
    # Basic forms: ker(ι_D) on Λ^{p,q} is Λ^{p,q}(Ann D), and there L_U ω = ι_U dω.
    coords_list = [frame.w_coords(f) for f in dist.basis]
    ann = kernel(coords_list, ncols=2 * frame.m)
    rows_10, rows_01 = [], []
    for row in ann.basis:
        support = [g for g, c in enumerate(row) if c]
        if support[-1] < frame.m:
            rows_10.append(row)
        elif support[0] >= frame.m:
            rows_01.append(row)
        else:
            raise TheoremViolationError(
                f"annihilator of a J-stable distribution has a mixed-type row {tuple(map(str, row))}"
            )
    spaces = []
    for p, q in frame.bidegrees():
        dim = frame.dim(p, q)
        index = frame.mono_index(p, q)
        forms = []
        for chosen in product(combinations(rows_10, p), combinations(rows_01, q)):
            flat = {(): ONE}
            for row in chosen[0] + chosen[1]:
                flat = wedge_one_form(flat, row)
            forms.append(flat)
        # rows of the system ι_U dω = 0 in the coefficients of the wedge basis
        rows = {}
        for b, flat in enumerate(forms):
            d_omega = frame.d_flat(flat)
            for fi, coords in enumerate(coords_list):
                for tgt, c in frame.contract_flat(coords, d_omega).items():
                    rows.setdefault((fi, tgt), [ZERO] * len(forms))[b] = c
        solution = kernel(tuple(tuple(r) for r in rows.values()), ncols=len(forms))
        form_rows = [tuple((index[mono], c) for mono, c in flat.items() if c) for flat in forms]
        gens = [combine_rows(x, form_rows, dim) for x in solution.basis]
        spaces.append(((p, q), Subspace.from_rows(dim, gens)))
    return TransverseModule(dist, tuple(spaces))


@lru_cache(maxsize=None)
def _restricted_del_bar(algebra, acs):
    """Matrices of del_bar between transverse-module bases, with closure checks."""
    frame = bigraded_frame(algebra, acs)
    flag = derived_flag(algebra, acs)
    closure = transverse_structure_report(algebra, acs, flag.limit)
    if not closure.ok:
        raise TheoremViolationError(
            f"derived-flag limit lost transverse closure: {closure.witness}"
        )
    module = transverse_module(algebra, acs, flag.limit)
    restricted = {}
    for p, q in frame.bidegrees():
        space = module.space(p, q)
        cod = module.space(p, q + 1) if q + 1 <= frame.m else None
        cols = []
        for vec in space.basis:
            flat = {
                mono: c for mono, c in zip(frame.mono_basis(p, q), vec) if c
            }
            image = frame.d_flat(flat)
            grouped = {}
            for tgt, c in image.items():
                bid = frame.bidegree_of(tgt)
                grouped.setdefault(bid, {})[tgt] = c
            for bid, part in grouped.items():
                shift = (bid[0] - p, bid[1] - q)
                pvec = [ZERO] * frame.dim(*bid)
                index = frame.mono_index(*bid)
                for tgt, c in part.items():
                    pvec[index[tgt]] = c
                pvec = tuple(pvec)
                if shift in ((2, -1), (-1, 2)):
                    raise TheoremViolationError(
                        f"mu/mu_bar acted nontrivially on a transverse ({p},{q})-form"
                    )
                tgt_space = module.space(*bid)
                if not tgt_space.contains(pvec):
                    raise TheoremViolationError(
                        f"d left the transverse module at bidegree {bid}"
                    )
            dbar_bid = (p, q + 1)
            pvec = [ZERO] * (frame.dim(*dbar_bid) if cod is not None else 0)
            if cod is not None and dbar_bid in grouped:
                index = frame.mono_index(*dbar_bid)
                for tgt, c in grouped[dbar_bid].items():
                    pvec[index[tgt]] = c
            cols.append(tuple(pvec))
        if cod is not None:
            mat_cols = solve_many_in_rows(cod.basis, cols)
            if any(coeffs is None for coeffs in mat_cols):
                raise TheoremViolationError("restricted del_bar image escaped the module")
            mat = transpose(mat_cols) if mat_cols else tuple(() for _ in cod.basis)
        else:
            mat = ()
        restricted[(p, q)] = mat
    return module, restricted


def _two_term_cohomology(incoming_cols, outgoing, space):
    """ker(outgoing)/im(incoming) inside the Subspace space.

    outgoing: matrix in the coordinates of space.basis; incoming_cols:
    ambient image vectors. Returns (dim, reps in ambient coordinates).
    """
    if space.is_zero():
        return 0, ()
    ambient = space.ambient_dim
    ker_coeffs = kernel(outgoing, ncols=space.rank)
    ker_vectors = [
        combine_rows(coeffs, space.sparse_basis, ambient) for coeffs in ker_coeffs.basis
    ]
    ker_sub = Subspace.from_rows(ambient, ker_vectors)
    im_sub = Subspace.from_rows(ambient, incoming_cols)
    if not ker_sub.contains_subspace(im_sub):
        raise TheoremViolationError("image is not contained in kernel")
    reps = quotient_representatives(ker_sub, im_sub)
    return len(reps), reps


@lru_cache(maxsize=None)
def transverse_dolbeault(algebra, acs):
    """Invariant transverse Dolbeault table for the derived-flag limit."""
    frame = bigraded_frame(algebra, acs)
    module, restricted = _restricted_del_bar(algebra, acs)
    dims = []
    reps_all = []
    for p, q in frame.bidegrees():
        space = module.space(p, q)
        ambient = frame.dim(p, q)
        incoming = []
        if q >= 1:
            prev = module.space(p, q - 1)
            mat = restricted[(p, q - 1)]
            for j in range(len(prev.basis)):
                col = tuple(mat[i][j] for i in range(len(mat)))
                incoming.append(combine_rows(col, space.sparse_basis, ambient))
        dim, reps = _two_term_cohomology(incoming, restricted[(p, q)], space)
        dims.append(((p, q), dim))
        reps_all.append(((p, q), reps))
    return CohomologyTable("trans", tuple(dims), tuple(reps_all))


@lru_cache(maxsize=None)
def _mu_bar_presentations(algebra, acs):
    frame = bigraded_frame(algebra, acs)
    ops = component_operators(algebra, acs)
    mu_bar = ops["mu_bar"]
    out = {}
    for p, q in frame.bidegrees():
        dim = frame.dim(p, q)
        block = mu_bar.block(p, q)
        ker = kernel(block if block else (), ncols=dim)
        src = mu_bar.block(p + 1, q - 2)
        if src and frame.dim(p + 1, q - 2):
            img = Subspace.from_rows(dim, transpose(src))
        else:
            img = Subspace.zero(dim)
        if not ker.contains_subspace(img):
            raise TheoremViolationError("Im mu_bar escaped Ker mu_bar (mu_bar^2 != 0)")
        out[(p, q)] = Subquotient(ker, img, quotient_representatives(ker, img))
    return out


@lru_cache(maxsize=None)
def mu_bar_cohomology(algebra, acs):
    """Ker mu_bar / Im mu_bar per bidegree, with subquotient presentations."""
    frame = bigraded_frame(algebra, acs)
    pres = _mu_bar_presentations(algebra, acs)
    dims = tuple(((p, q), pres[(p, q)].dim) for p, q in frame.bidegrees())
    reps = tuple(((p, q), pres[(p, q)].reps) for p, q in frame.bidegrees())
    return CohomologyTable("mu_bar", dims, reps)


def _nonzero_rows(matrix):
    """The nonzero rows of an induced matrix as sparse rows, for _apply_sparse."""
    return [row for row in sparse_rows(matrix) if row]


@lru_cache(maxsize=None)
def _cw_pipeline(algebra, acs):
    """Induced del_bar on mu_bar-cohomology and its two-term cohomology data."""
    frame = bigraded_frame(algebra, acs)
    ops = component_operators(algebra, acs)
    del_bar = ops["del_bar"]
    pres = _mu_bar_presentations(algebra, acs)
    trivial = Subquotient(Subspace.zero(0), Subspace.zero(0), ())
    tilde = {}
    for p, q in frame.bidegrees():
        dom = pres[(p, q)]
        cod = pres.get((p, q + 1), trivial)
        f = del_bar.block(p, q)
        if f is None or q + 1 > frame.m:
            f = ()
            cod = trivial
        tilde[(p, q)] = induced_map_on_quotient(f, dom.sub, dom.quot_by, cod.sub, cod.quot_by)
    # tilde^2 = 0 block by block (forced by mu_bar del + del mu_bar + del_bar^2 = 0)
    for p, q in frame.bidegrees():
        if q + 1 > frame.m:
            continue
        first, second = tilde[(p, q)], tilde[(p, q + 1)]
        nonzero = _nonzero_rows(second.matrix)
        if not nonzero:
            continue
        ncols = len(second.matrix[0])
        for col in transpose(first.matrix) if first.matrix else ():
            if any(_apply_sparse(nonzero, ncols, col)):
                raise TheoremViolationError("induced del_bar does not square to zero")
    dol = {}
    for p, q in frame.bidegrees():
        dom = pres[(p, q)]
        h = dom.dim
        outgoing = tilde[(p, q)].matrix
        incoming = []
        if q >= 1 and pres[(p, q - 1)].dim:
            mat = tilde[(p, q - 1)].matrix
            for j in range(pres[(p, q - 1)].dim):
                incoming.append(tuple(mat[i][j] for i in range(len(mat))))
        # cohomology inside the rep-coordinate space of H_mu_bar
        dim, reps_coords = _two_term_cohomology(incoming, outgoing, Subspace.full(h))
        rep_rows = sparse_rows(dom.reps)
        ambient_reps = tuple(
            combine_rows(coords, rep_rows, frame.dim(p, q)) for coords in reps_coords
        )
        dol[(p, q)] = (dim, reps_coords, ambient_reps)
    return pres, tilde, dol


@lru_cache(maxsize=None)
def generalized_dolbeault(algebra, acs):
    """Cohomology of the map induced by del_bar on mu_bar-cohomology."""
    frame = bigraded_frame(algebra, acs)
    _, _, dol = _cw_pipeline(algebra, acs)
    dims = tuple(((p, q), dol[(p, q)][0]) for p, q in frame.bidegrees())
    reps = tuple(((p, q), dol[(p, q)][2]) for p, q in frame.bidegrees())
    return CohomologyTable("cw", dims, reps)


def compare_p0(algebra, acs):
    """Transverse vs generalized Dolbeault dimensions in degrees (p,0).

    Equality is a theorem; any mismatch raises TheoremViolationError.
    """
    frame = bigraded_frame(algebra, acs)
    trans = transverse_dolbeault(algebra, acs)
    cw = generalized_dolbeault(algebra, acs)
    out = {}
    bad = []
    for p in range(frame.m + 1):
        t, c = trans.dim(p, 0), cw.dim(p, 0)
        out[p] = (t, c, t == c)
        if t != c:
            bad.append((p, t, c))
    if bad:
        raise TheoremViolationError(
            "transverse and generalized Dolbeault dimensions differ in degrees (p,0): "
            + ", ".join(f"p={p}: {t} vs {c}" for p, t, c in bad)
        )
    return out


def comparison_map_rank(algebra, acs, p, q):
    """Rank of H_trans^{p,q} -> H_Dol^{p,q} (transverse class to its mu_bar class)."""
    frame = bigraded_frame(algebra, acs)
    trans = transverse_dolbeault(algebra, acs)
    pres, tilde, dol = _cw_pipeline(algebra, acs)
    treps = trans.reps(p, q)
    if not treps:
        return 0
    mu_pres = pres[(p, q)]
    dol_dim, dol_reps_coords, _ = dol[(p, q)]
    # image of tilde from (p, q-1) inside the rep-coordinate space
    incoming = []
    if q >= 1 and pres[(p, q - 1)].dim:
        mat = tilde[(p, q - 1)].matrix
        for j in range(pres[(p, q - 1)].dim):
            incoming.append(tuple(mat[i][j] for i in range(len(mat))))
    h = mu_pres.dim
    im_sub = Subspace.from_rows(h, incoming) if h else Subspace.zero(0)
    # both presentations are factored once; the checks below run per class, in order
    classes = [
        None if coeffs is None else tuple(coeffs[: len(mu_pres.reps)])
        for coeffs in solve_many_in_rows(mu_pres.reps + mu_pres.quot_by.basis, treps)
    ]
    all_coords = iter(
        solve_many_in_rows(dol_reps_coords + im_sub.basis, [c for c in classes if c is not None])
    )
    outgoing = tilde[(p, q)].matrix
    nonzero = _nonzero_rows(outgoing)
    cols = []
    for v, cls in zip(treps, classes):
        if not mu_pres.sub.contains(v):
            raise TheoremViolationError("a transverse form escaped Ker mu_bar")
        if cls is None:
            raise TheoremViolationError("transverse class has no mu_bar-class expression")
        if nonzero and any(_apply_sparse(nonzero, len(outgoing[0]), cls)):
            raise TheoremViolationError("image of a del_bar-closed transverse form is not closed")
        coords = next(all_coords)
        if coords is None:
            raise TheoremViolationError("mu_bar class not expressible in H_Dol presentation")
        cols.append(tuple(coords[: dol_dim]))
    if not cols or dol_dim == 0:
        return 0
    return len(rref_rows(cols)[0])
