"""Transverse form modules and the three cohomology tables.

Per bidegree (p,q) write K = Ker mu_bar and I = Im mu_bar (the image of
Λ^{p+1,q-2}), D = del_bar, and M for the transverse module: the forms basic
along the involutive limit of the derived flag. Every table is a sum of exact
ranks; no quotient is presented and no representative is built.

* mu_bar_cohomology: dim H_mu_bar = dim K - rank I.
* generalized_dolbeault: del_bar induces tilde_{p,q} on H_mu_bar, of rank
  rank[D·K^{p,q} mod I^{p,q+1}], and
  dim H_cw = dim H_mu_bar - rank tilde_{p,q} - rank tilde_{p,q-1}.
* transverse_dolbeault: dim H_trans = dim M - rank D·M^{p,q} - rank D·M^{p,q-1},
  with the images kept in ambient coordinates.
* comparison_map_rank: the rank of H_trans -> H_cw is
  rank[Z ; I ; E] - rank[I ; E], where Z is the D-closed part of M^{p,q} and
  E = D·K^{p,q-1}.

The inclusions that make these formulas hold are checked on the way (I ⊆ K,
D·K ⊆ K', D·I ⊆ I', D(D·K) ⊆ I, D² = 0 on M, d keeps M and mu, mu_bar kill
it); each is a consequence of d² = 0, so a failure raises
TheoremViolationError naming the bidegree. compare_p0 cross-checks the
transverse and generalized tables in degrees (p,0). All tables are
invariant-level (constant-coefficient) dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import PreconditionError, TheoremViolationError
from .flag import closure_witness, derived_flag
from .forms import bigraded_frame, component_operators, wedge_one_form
from .linalg import Subspace, combine_rows, dense_vector, kernel, mat_rank, transpose
from .scalars import ONE, ZERO

__all__ = [
    "TransverseModule",
    "CohomologyTable",
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
class CohomologyTable:
    theory: str  # trans | mu_bar | cw
    dims: tuple  # sorted (((p, q), dim), ...)

    def dim(self, p, q):
        return dict(self.dims).get((p, q), 0)

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


def _images(op, p, q, vectors):
    """op·v for each dense v in Λ^{p,q}, as a dense vector, or None where it is zero."""
    cols = op.block_columns(p, q)
    if not any(cols):
        return [None] * len(vectors)
    n = op.frame.dim(*op.target(p, q))
    return [y if any(y) else None for y in (combine_rows(v, cols, n) for v in vectors)]


@lru_cache(maxsize=None)
def _restricted_del_bar(algebra, acs):
    """The transverse module M and del_bar of each basis row of M, with closure checks.

    Returns (module, images): images[(p, q)] holds, for each basis row b of
    M^{p,q}, D·b as a dense vector of Λ^{p,q+1}, or None where D·b = 0. d of
    every basis row is checked to have no mu or mu_bar part and to stay in M.
    """
    frame = bigraded_frame(algebra, acs)
    flag = derived_flag(algebra, acs)
    closure = transverse_structure_report(algebra, acs, flag.limit)
    if not closure.ok:
        raise TheoremViolationError(
            f"derived-flag limit lost transverse closure: {closure.witness}"
        )
    module = transverse_module(algebra, acs, flag.limit)
    ops = component_operators(algebra, acs)
    images = {}
    for p, q in frame.bidegrees():
        basis = module.space(p, q).basis
        for name, op in ops.items():
            parts = _images(op, p, q, basis)
            if name in ("mu", "mu_bar") and any(y is not None for y in parts):
                raise TheoremViolationError(
                    f"mu/mu_bar acted nontrivially on a transverse ({p},{q})-form"
                )
            bid = op.target(p, q)
            if not all(y is None or module.space(*bid).contains(y) for y in parts):
                raise TheoremViolationError(
                    f"d left the transverse module at bidegree {bid}"
                )
            if name == "del_bar":
                images[(p, q)] = tuple(parts)
    return module, images


@lru_cache(maxsize=None)
def transverse_dolbeault(algebra, acs):
    """Invariant transverse Dolbeault table for the derived-flag limit."""
    frame = bigraded_frame(algebra, acs)
    module, images = _restricted_del_bar(algebra, acs)
    del_bar = component_operators(algebra, acs)["del_bar"]
    ranks = {}
    for (p, q), column in images.items():
        exact = [y for y in column if y is not None]
        # D·M^{p,q} lies in M^{p,q+1}, where D must vanish on it
        if any(z is not None for z in _images(del_bar, p, q + 1, exact)):
            raise TheoremViolationError(
                "del_bar does not square to zero on the transverse module "
                f"at bidegree {(p, q)}"
            )
        ranks[(p, q)] = mat_rank(exact)
    dims = tuple(
        ((p, q), module.space(p, q).rank - ranks[(p, q)] - ranks.get((p, q - 1), 0))
        for p, q in frame.bidegrees()
    )
    return CohomologyTable("trans", dims)


@lru_cache(maxsize=None)
def _mu_bar_presentations(algebra, acs):
    """{(p, q): (K, I)}: Ker mu_bar and Im mu_bar in Λ^{p,q}, with I ⊆ K checked."""
    frame = bigraded_frame(algebra, acs)
    mu_bar = component_operators(algebra, acs)["mu_bar"]
    kernels, images = {}, {}
    for p, q in frame.bidegrees():
        dim = frame.dim(p, q)
        nonzero = [col for col in mu_bar.block_columns(p, q) if col]
        if not nonzero:
            kernels[(p, q)] = Subspace.full(dim)
            continue
        kernels[(p, q)] = kernel(mu_bar.block(p, q), ncols=dim)
        n = frame.dim(p - 1, q + 2)
        images[(p - 1, q + 2)] = Subspace.from_rows(n, [dense_vector(c, n) for c in nonzero])
    out = {}
    for p, q in frame.bidegrees():
        ker = kernels[(p, q)]
        img = images.get((p, q), Subspace.zero(ker.ambient_dim))
        if not ker.contains_subspace(img):
            raise TheoremViolationError(
                f"Im mu_bar escaped Ker mu_bar at bidegree {(p, q)} (mu_bar^2 != 0)"
            )
        out[(p, q)] = (ker, img)
    return out


@lru_cache(maxsize=None)
def mu_bar_cohomology(algebra, acs):
    """dim Ker mu_bar - rank Im mu_bar per bidegree."""
    frame = bigraded_frame(algebra, acs)
    pres = _mu_bar_presentations(algebra, acs)
    dims = tuple(
        ((p, q), pres[(p, q)][0].rank - pres[(p, q)][1].rank) for p, q in frame.bidegrees()
    )
    return CohomologyTable("mu_bar", dims)


@lru_cache(maxsize=None)
def _cw_pipeline(algebra, acs):
    """Rank of each tilde_{p,q} : H_mu_bar^{p,q} -> H_mu_bar^{p,q+1}, with its checks.

    Returns (pres, ranks, images): pres from _mu_bar_presentations,
    ranks[(p, q)] = rank[D·K^{p,q} mod I^{p,q+1}] and images[(p, q)] the
    nonzero vectors of D·K^{p,q} in Λ^{p,q+1}. D·K ⊆ K' and D·I ⊆ I' make
    tilde well defined, and D(D·K) ⊆ I makes it square to zero; all three
    follow from d² = 0.
    """
    frame = bigraded_frame(algebra, acs)
    del_bar = component_operators(algebra, acs)["del_bar"]
    pres = _mu_bar_presentations(algebra, acs)
    ranks, images = {}, {}
    for p, q in frame.bidegrees():
        if q == frame.m:
            ranks[(p, q)], images[(p, q)] = 0, ()
            continue
        ker, img = pres[(p, q)]
        ker_next, img_next = pres[(p, q + 1)]
        dk = [y for y in _images(del_bar, p, q, ker.basis) if y is not None]
        if not all(ker_next.contains(y) for y in dk):
            raise TheoremViolationError(
                f"del_bar(Ker mu_bar) is not contained in Ker mu_bar at bidegree {(p, q + 1)}"
            )
        if not all(y is None or img_next.contains(y) for y in _images(del_bar, p, q, img.basis)):
            raise TheoremViolationError(
                f"del_bar(Im mu_bar) is not contained in Im mu_bar at bidegree {(p, q + 1)}"
            )
        ranks[(p, q)] = mat_rank([r for r in (img_next.reduce(y) for y in dk) if any(r)])
        images[(p, q)] = tuple(dk)
    for p, q in frame.bidegrees():
        if q + 2 > frame.m:
            continue
        twice = _images(del_bar, p, q + 1, images[(p, q)])
        if not all(z is None or pres[(p, q + 2)][1].contains(z) for z in twice):
            raise TheoremViolationError(
                f"induced del_bar does not square to zero: del_bar(del_bar(Ker mu_bar)) "
                f"is not contained in Im mu_bar at bidegree {(p, q + 2)}"
            )
    return pres, ranks, images


@lru_cache(maxsize=None)
def generalized_dolbeault(algebra, acs):
    """Cohomology of the map induced by del_bar on mu_bar-cohomology."""
    frame = bigraded_frame(algebra, acs)
    pres, ranks, _ = _cw_pipeline(algebra, acs)
    dims = tuple(
        ((p, q), pres[(p, q)][0].rank - pres[(p, q)][1].rank
         - ranks[(p, q)] - ranks.get((p, q - 1), 0))
        for p, q in frame.bidegrees()
    )
    return CohomologyTable("cw", dims)


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
    """Rank of H_trans^{p,q} -> H_cw^{p,q} (a transverse class to its mu_bar class).

    H_cw^{p,q} is {k in K : D·k in I'} / (I + E) with E = D·K^{p,q-1}, and
    the exact transverse forms lie in E, so the rank is
    rank[Z ; I ; E] - rank[I ; E] for Z = ker D on M^{p,q}.
    """
    frame = bigraded_frame(algebra, acs)
    if (p, q) not in frame.bidegrees():
        return 0
    module, d_images = _restricted_del_bar(algebra, acs)
    pres, _, dk_images = _cw_pipeline(algebra, acs)
    space = module.space(p, q)
    zero = (ZERO,) * frame.dim(p, q + 1)
    d_matrix = transpose([zero if y is None else y for y in d_images[(p, q)]])
    closed = tuple(
        combine_rows(c, space.sparse_basis, space.ambient_dim)
        for c in kernel(d_matrix, ncols=space.rank).basis
    )
    ker, img = pres[(p, q)]
    if not all(ker.contains(z) for z in closed):
        raise TheoremViolationError("a transverse form escaped Ker mu_bar")
    ie = img.basis + dk_images.get((p, q - 1), ())
    return mat_rank(closed + ie) - mat_rank(ie)
