"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the production code paths it checks:
forms are evaluated as alternating multilinear maps on explicit vector
tuples, the differential comes from the r<s double-sum formula, and ranks
are computed by local elimination routines. The elimination oracles
(oracle_rank, oracle_rref, oracle_kernel, oracle_solve, oracle_intersection,
oracle_quotient_representatives, oracle_reduce) use nothing from
transdolbeault.linalg; oracle_transverse_module,
largest_graded_dstable_annihilator and module_closure_properties eliminate
with them, and take only the Subspace container from transdolbeault.linalg
(a test checks that by parsing this file).
oracle_nijenhuis uses nothing from transdolbeault.acs, and oracle_d2_failures
nothing from transdolbeault.forms. oracle_cohomology_dims and
oracle_comparison_rank present every cohomology as a quotient with
representatives, induced maps and solves, using only the elimination oracles
above and nothing from transdolbeault.linalg or transdolbeault.cohomology.
oracle_invariant, oracle_minimal_criterion and oracle_fibration state the
homogeneous checks as their definitions, on basis vectors and basis triples.
oracle_qi and oracle_triple do Q(i) arithmetic on (re, im) pairs of
Fractions, with no GaussianRational operation.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, lcm

from transdolbeault.lie import bracket
from transdolbeault.scalars import GaussianRational, I, ZERO

ONE = GaussianRational.of(1)
HALF = ONE / 2


def basis_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def mat_vec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for a, b in zip(row, v):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return tuple(out)


def oracle_nijenhuis(algebra, J, x, y):
    """[Jx,Jy] - J[Jx,y] - J[x,Jy] + J^2[x,y], with J applied by the local dense mat_vec.

    The J^2 term is kept as written: it equals -[x,y] exactly when J^2 = -Id,
    and modulo h when J^2 = -Id only mod h.
    """
    jx, jy = mat_vec(J, x), mat_vec(J, y)
    terms = (
        bracket(algebra, jx, jy),
        tuple(-c for c in mat_vec(J, bracket(algebra, jx, y))),
        tuple(-c for c in mat_vec(J, bracket(algebra, x, jy))),
        mat_vec(J, mat_vec(J, bracket(algebra, x, y))),
    )
    return tuple(sum(cs, ZERO) for cs in zip(*terms))


def oracle_rank(rows):
    """Row rank by plain forward elimination (no normalization, no reuse)."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                f = work[r][col] / pv
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def oracle_rref(rows):
    """Canonical RREF by dense Gauss-Jordan: (tuple of nonzero rows, tuple of pivots).

    First nonzero entry at or below the current row is the pivot; every
    entry of every row is visited for every pivot.
    """
    mat = [[GaussianRational.of(x) for x in r] for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = None
        for i in range(prow, nrows):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        pv = mat[prow][col]
        if pv != ONE:
            inv = ONE / pv
            mat[prow] = [inv * x if x else x for x in mat[prow]]
        prow_vals = mat[prow]
        for i in range(nrows):
            if i != prow and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], prow_vals)]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return tuple(tuple(r) for r in mat[:prow]), tuple(pivots)


def oracle_solve(rows, v):
    """Coefficients x with sum(x_i * rows[i]) == v (free ones zero), or None."""
    if not rows:
        return () if not any(v) else None
    k = len(rows)
    aug = [[rows[r][i] for r in range(k)] + [v[i]] for i in range(len(v))]
    ech, pivots = oracle_rref(aug)
    coeffs = [ZERO] * k
    for row, p in zip(ech, pivots):
        if p == k:
            return None
        coeffs[p] = row[k]
    return tuple(coeffs)


def oracle_reduce(basis, v):
    """Dense residue of v against echelon rows: for each row in order, clear its leading column.

    Every entry of v is rewritten for every row, zeros included.
    """
    v = [GaussianRational.of(x) for x in v]
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        c = v[p] / row[p]
        v = [a - c * b for a, b in zip(v, row)]
    return tuple(v)


def oracle_kernel(rows, ncols):
    """Canonical echelon basis of {v : rows·v = 0} in Q(i)^ncols, by oracle_rref twice."""
    ech, pivots = oracle_rref(rows) if rows else ((), ())
    gens = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(ech, pivots):
            v[p] = -row[free]
        gens.append(v)
    return oracle_rref(gens)[0] if gens else ()


def oracle_intersection(a, b, ncols):
    """Canonical echelon basis of span(a) ∩ span(b) in Q(i)^ncols.

    A span is the common kernel of the rows of its annihilator (kernel of the
    rows), so the intersection is the kernel of both annihilators stacked.
    """
    annihilators = list(oracle_kernel(list(a), ncols)) + list(oracle_kernel(list(b), ncols))
    return oracle_kernel(annihilators, ncols)


def oracle_transverse_module(algebra, acs, vectors):
    """{(p, q): Subspace} of forms killed by ι_U and L_U for every U in ``vectors``.

    The joint kernel of every contraction row and every Lie-derivative row
    (L_U taken directly from the brackets, not by Cartan's formula), per
    bidegree, eliminated by oracle_rref. The span of ``vectors`` is not
    checked for J-stability or involutivity. Subspace only holds the
    canonical rows.
    """
    from transdolbeault.forms import bigraded_frame
    from transdolbeault.linalg import Subspace

    frame = bigraded_frame(algebra, acs)
    coords = [frame.w_coords(f) for f in vectors]
    lies = [frame.lie_coefficients(f) for f in vectors]
    out = {}
    for p, q in frame.bidegrees():
        dim = frame.dim(p, q)
        rows = {}
        for j, mono in enumerate(frame.mono_basis(p, q)):
            for fi, c in enumerate(coords):
                for tgt, val in frame.contract_flat(c, {mono: ONE}).items():
                    rows.setdefault(("i", fi, tgt), [ZERO] * dim)[j] = val
            for fi, lco in enumerate(lies):
                for tgt, val in frame.lie_flat(lco, {mono: ONE}).items():
                    rows.setdefault(("l", fi, tgt), [ZERO] * dim)[j] = val
        out[(p, q)] = Subspace(dim, oracle_kernel(list(rows.values()), dim))
    return out


def oracle_quotient_representatives(sub_basis, quot_basis):
    """Greedy: the rows of sub_basis, in order, that raise the rank of what came before."""
    acc = list(quot_basis)
    rank = oracle_rank(acc)
    reps = []
    for row in sub_basis:
        grown = oracle_rank(acc + [row])
        if grown > rank:
            acc.append(row)
            reps.append(row)
            rank = grown
    return tuple(reps)


def eval_real_form(real_form, vectors):
    """Evaluate a real-basis k-form (dict of index tuples) on k vectors."""
    k = len(vectors)
    total = ZERO
    for key, coeff in real_form.items():
        coeff = GaussianRational.of(coeff)
        if len(key) != k or not coeff:
            continue
        acc = ZERO
        for perm in permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = coeff if sign > 0 else -coeff
            for slot, idx in zip(perm, key):
                prod = prod * vectors[slot][idx]
                if not prod:
                    break
            acc = acc + prod
        total = total + acc
    return total


def oracle_d_real(algebra, real_form, degree):
    """d of a real-basis form via the invariant double-sum formula."""
    n = algebra.dim
    out = {}
    for key in combinations(range(n), degree + 1):
        vecs = [basis_vector(n, i) for i in key]
        total = ZERO
        for r, s in combinations(range(degree + 1), 2):
            rest = [vecs[t] for t in range(degree + 1) if t not in (r, s)]
            args = [bracket(algebra, vecs[r], vecs[s])] + rest
            sign = (-1) ** (r + s)
            total = total + eval_real_form(real_form, args) * sign
        if total:
            out[key] = total
    return out


def _aminus(acs, v):
    jv = mat_vec(acs.J, v)
    return tuple(a * HALF + b * (I * HALF) for a, b in zip(v, jv))


def _t01_basis(algebra, acs):
    """A spanning set of T^{0,1}: the projectors A^- e_a (not echelonized)."""
    n = algebra.dim
    return [_aminus(acs, basis_vector(n, a)) for a in range(n)]


def oracle_hp0_dims(algebra, acs, limit):
    """dim H_trans^{p,0} for all p via the closed-form joint kernel:

    forms in Lambda^p annihilated by contraction and Lie derivative along
    T^{0,1} + (limit)^C, computed on full (non-bigraded) complex p-forms.
    """
    n = algebra.dim
    m = n // 2
    constraints_z = _t01_basis(algebra, acs) + [tuple(c for c in row) for row in limit.basis]
    dims = {}
    for p in range(m + 1):
        monos = list(combinations(range(n), p))
        dim = len(monos)
        rows = []
        for zi, z in enumerate(constraints_z):
            # iota(z) omega = 0: for each (p-1)-tuple of basis vectors
            for rest in combinations(range(n), p - 1) if p else ():
                row = []
                vecs = [z] + [basis_vector(n, i) for i in rest]
                for mono in monos:
                    row.append(eval_real_form({mono: 1}, vecs))
                rows.append(row)
            # (L_z omega)(args) = -sum omega(..., [z, arg], ...) = 0
            for args in combinations(range(n), p):
                row = []
                base = [basis_vector(n, i) for i in args]
                for mono in monos:
                    total = ZERO
                    for t in range(p):
                        repl = base[:t] + [bracket(algebra, z, base[t])] + base[t + 1:]
                        total = total - eval_real_form({mono: 1}, repl)
                    row.append(total)
                rows.append(row)
        if not rows:
            dims[p] = dim
        else:
            dims[p] = dim - oracle_rank(rows)
    return dims


def largest_graded_dstable_annihilator(algebra, acs):
    """Fixed point: the largest bidegree-graded d-stable subspace of forms
    annihilated by contraction with Im N^J. The transverse module must equal it."""
    from transdolbeault.acs import nijenhuis_image
    from transdolbeault.forms import bigraded_frame
    from transdolbeault.linalg import Subspace

    frame = bigraded_frame(algebra, acs)
    coords = [frame.w_coords(v) for v in nijenhuis_image(algebra, acs).basis]
    spaces = {}
    for p, q in frame.bidegrees():
        monos = frame.mono_basis(p, q)
        dim = len(monos)
        rows = {}
        for j, mono in enumerate(monos):
            for ci, c in enumerate(coords):
                for tgt, val in frame.contract_flat(c, {mono: ONE}).items():
                    rows.setdefault((ci, tgt), [ZERO] * dim)[j] = val
        spaces[(p, q)] = oracle_kernel(list(rows.values()), dim)
    changed = True
    while changed:
        changed = False
        for p, q in frame.bidegrees():
            space = spaces[(p, q)]
            if not space:
                continue
            dim = frame.dim(p, q)
            rowmap = {}
            for j, mono in enumerate(frame.mono_basis(p, q)):
                grouped = {}
                for tgt, c in frame.d_flat({mono: ONE}).items():
                    grouped.setdefault(frame.bidegree_of(tgt), {})[tgt] = c
                for bid, part in grouped.items():
                    vec = [ZERO] * frame.dim(*bid)
                    idx = frame.mono_index(*bid)
                    for tgt, c in part.items():
                        vec[idx[tgt]] = c
                    for t, val in enumerate(oracle_reduce(spaces[bid], vec)):
                        if val:
                            rowmap.setdefault((bid, t), [ZERO] * dim)[j] = val
            if rowmap:
                nxt = oracle_intersection(space, oracle_kernel(list(rowmap.values()), dim), dim)
                if nxt != space:
                    spaces[(p, q)] = nxt
                    changed = True
    return {bid: Subspace(frame.dim(*bid), rows) for bid, rows in spaces.items()}


def module_closure_properties(algebra, acs, module):
    """(annihilates Im N^J, d-stable, splits by bidegree) for a graded module."""
    from transdolbeault.acs import nijenhuis_image
    from transdolbeault.forms import bigraded_frame

    frame = bigraded_frame(algebra, acs)
    spaces = dict(module.spaces) if hasattr(module, "spaces") else dict(module)
    coords = [frame.w_coords(v) for v in nijenhuis_image(algebra, acs).basis]

    def flat_of(p, q, vec):
        return {m: c for m, c in zip(frame.mono_basis(p, q), vec) if c}

    annihilates = True
    for (p, q), space in spaces.items():
        for vec in space.basis:
            for c in coords:
                if frame.contract_flat(c, flat_of(p, q, vec)):
                    annihilates = False
    d_stable = True
    for (p, q), space in spaces.items():
        for vec in space.basis:
            grouped = {}
            for tgt, c in frame.d_flat(flat_of(p, q, vec)).items():
                grouped.setdefault(frame.bidegree_of(tgt), {})[tgt] = c
            for bid, part in grouped.items():
                pvec = [ZERO] * frame.dim(*bid)
                idx = frame.mono_index(*bid)
                for tgt, c in part.items():
                    pvec[idx[tgt]] = c
                if any(oracle_reduce(spaces[bid].basis, pvec)):
                    d_stable = False
    # splitting: the ungraded joint kernel on each total degree decomposes into
    # the per-bidegree kernels (contraction/Lie constraints mix bidegrees a
    # priori; J-stability of the distribution is what forbids cross terms)
    splits = True
    dist = getattr(module, "distribution", None)
    if dist is not None:
        f_coords = [frame.w_coords(f) for f in dist.basis]
        f_lie = [frame.lie_coefficients(f) for f in dist.basis]
        for k in range(algebra.dim + 1):
            bids = [(p, k - p) for p in range(k + 1)
                    if frame.dim(p, k - p)]
            offsets, total = {}, 0
            for bid in bids:
                offsets[bid] = total
                total += frame.dim(*bid)
            if not total:
                continue
            rows = {}
            for bid in bids:
                for j, mono in enumerate(frame.mono_basis(*bid)):
                    colidx = offsets[bid] + j
                    for fi, c in enumerate(f_coords):
                        for tgt, val in frame.contract_flat(c, {mono: ONE}).items():
                            rows.setdefault(("i", fi, tgt), [ZERO] * total)[colidx] = val
                    for fi, lco in enumerate(f_lie):
                        for tgt, val in frame.lie_flat(lco, {mono: ONE}).items():
                            rows.setdefault(("l", fi, tgt), [ZERO] * total)[colidx] = val
            joint = oracle_kernel(list(rows.values()), total)
            graded_dim = sum(spaces[bid].rank for bid in bids)
            if len(joint) != graded_dim:
                splits = False
    return annihilates, d_stable, splits


# The seven component identities of d∘d = 0 as (name, ((outer, inner), ...)),
# and the bidegree shift of each component; written out here, not imported.
_ORACLE_SHIFTS = {"mu": (2, -1), "del": (1, 0), "del_bar": (0, 1), "mu_bar": (-1, 2)}
_ORACLE_D2_RELATIONS = (
    ("mu_bar mu_bar = 0", (("mu_bar", "mu_bar"),)),
    ("mu_bar del_bar + del_bar mu_bar = 0", (("mu_bar", "del_bar"), ("del_bar", "mu_bar"))),
    ("mu_bar del + del mu_bar + del_bar del_bar = 0",
     (("mu_bar", "del"), ("del", "mu_bar"), ("del_bar", "del_bar"))),
    ("mu mu_bar + mu_bar mu + del del_bar + del_bar del = 0",
     (("mu", "mu_bar"), ("mu_bar", "mu"), ("del", "del_bar"), ("del_bar", "del"))),
    ("mu del_bar + del_bar mu + del del = 0", (("mu", "del_bar"), ("del_bar", "mu"), ("del", "del"))),
    ("mu del + del mu = 0", (("mu", "del"), ("del", "mu"))),
    ("mu mu = 0", (("mu", "mu"),)),
)


def oracle_d2_failures(blocks_by_name):
    """(relation name, source bidegree) of every d² identity whose composite is nonzero.

    blocks_by_name maps each component name to {(p, q): matrix}; a composite
    outer·inner is the GaussianRational product of the dense matrices
    (zero factors skipped), and each relation's products are summed
    entrywise. Bidegrees are visited in sorted order within each relation.
    """
    failures = []
    for name, terms in _ORACLE_D2_RELATIONS:
        for p, q in sorted(set().union(*(blocks.keys() for blocks in blocks_by_name.values()))):
            total = {}
            for outer, inner in terms:
                dp, dq = _ORACLE_SHIFTS[inner]
                a = blocks_by_name[inner].get((p, q))
                b = blocks_by_name[outer].get((p + dp, q + dq))
                if a is None or b is None:
                    continue
                for r, brow in enumerate(b):
                    for k, x in enumerate(brow):
                        if x:
                            for j, y in enumerate(a[k]):
                                if y:
                                    total[(r, j)] = total.get((r, j), ZERO) + x * y
            if any(total.values()):
                failures.append((name, (p, q)))
    return tuple(failures)


def _oracle_columns(matrix, ncols):
    return [tuple(row[j] for row in matrix) for j in range(ncols)]


def _oracle_coords(basis, v):
    coeffs = oracle_solve(list(basis), v)
    assert coeffs is not None, "vector outside the span it must lie in"
    return coeffs


def _oracle_two_term(outgoing, basis, incoming):
    """Representatives of ker(outgoing)/span(incoming) inside span(basis).

    outgoing is a matrix in the coordinates of the echelon rows ``basis``;
    incoming are vectors in the ambient coordinates of those rows.
    """
    if not basis:
        return ()
    ker = oracle_kernel(list(outgoing), len(basis))
    ker_vectors = [
        tuple(sum((c * b[i] for c, b in zip(coeffs, basis)), ZERO) for i in range(len(basis[0])))
        for coeffs in ker
    ]
    ker_sub = oracle_rref(ker_vectors)[0] if ker_vectors else ()
    im_sub = oracle_rref(list(incoming))[0] if incoming else ()
    return oracle_quotient_representatives(ker_sub, im_sub)


def _oracle_quotient_pipeline(blocks_by_name, module_bases):
    """Every table as a quotient presentation: the algorithm the kernel used before ranks.

    blocks_by_name: {"mu_bar": {(p, q): dense matrix}, "del_bar": {...}, ...};
    module_bases: {(p, q): rows spanning the transverse module}, in echelon form.
    The result is memoized on the last input, so oracle_cohomology_dims and
    oracle_comparison_rank on the same instance share one pipeline.
    """
    return _oracle_quotient_pipeline_frozen(
        tuple(sorted(blocks_by_name["mu_bar"].items())),
        tuple(sorted(blocks_by_name["del_bar"].items())),
        tuple(sorted((bid, tuple(rows)) for bid, rows in module_bases.items())),
    )


@lru_cache(maxsize=1)
def _oracle_quotient_pipeline_frozen(mu_bar, del_bar, module_bases):
    mu_bar, del_bar, module_bases = dict(mu_bar), dict(del_bar), dict(module_bases)
    bids = sorted(del_bar)
    m = max(p for p, _ in bids)

    def dim(p, q):
        return comb(m, p) * comb(m, q) if 0 <= p <= m and 0 <= q <= m else 0

    # H_mu_bar^{p,q} = K / I with representatives from the echelon basis of K
    mu = {}
    for p, q in bids:
        ker = oracle_kernel(list(mu_bar[(p, q)]), dim(p, q))
        src = mu_bar.get((p + 1, q - 2))
        cols = _oracle_columns(src, dim(p + 1, q - 2)) if src else []
        img = oracle_rref(cols)[0] if cols else ()
        mu[(p, q)] = (ker, img, oracle_quotient_representatives(ker, img))
    # tilde_{p,q}: the matrix of del_bar from H_mu_bar^{p,q} to H_mu_bar^{p,q+1}
    tilde = {}
    for p, q in bids:
        reps = mu[(p, q)][2]
        if q == m:
            tilde[(p, q)] = ()
            continue
        _, img_next, reps_next = mu[(p, q + 1)]
        cols = [
            _oracle_coords(reps_next + img_next, mat_vec(del_bar[(p, q)], r))[: len(reps_next)]
            for r in reps
        ]
        tilde[(p, q)] = tuple(zip(*cols)) if cols and reps_next else ()
    # H_cw^{p,q} = ker tilde_{p,q} / im tilde_{p,q-1} in the coordinates of the mu reps
    cw = {}
    for p, q in bids:
        h = len(mu[(p, q)][2])
        unit = tuple(tuple(ONE if i == j else ZERO for j in range(h)) for i in range(h))
        incoming = _oracle_columns(tilde[(p, q - 1)], len(mu[(p, q - 1)][2])) if q else []
        incoming = [c for c in incoming if any(c)]
        reps = _oracle_two_term(tilde[(p, q)], unit, incoming)
        cw[(p, q)] = (reps, oracle_rref(incoming)[0] if incoming else ())
    # H_trans: del_bar restricted to the module, as a matrix between module bases
    restricted = {}
    for p, q in bids:
        basis = module_bases[(p, q)]
        if q == m:
            restricted[(p, q)] = ()
            continue
        cod = module_bases[(p, q + 1)]
        cols = [_oracle_coords(cod, mat_vec(del_bar[(p, q)], b)) for b in basis]
        restricted[(p, q)] = tuple(zip(*cols)) if cols and cod else ()
    trans = {}
    for p, q in bids:
        incoming = [mat_vec(del_bar[(p, q - 1)], b) for b in module_bases[(p, q - 1)]] if q else []
        incoming = [v for v in incoming if any(v)]
        trans[(p, q)] = _oracle_two_term(restricted[(p, q)], tuple(module_bases[(p, q)]), incoming)
    return mu, cw, trans


def oracle_cohomology_dims(blocks_by_name, module_bases):
    """{"trans" | "mu_bar" | "cw": {(p, q): dim}} from quotient presentations."""
    mu, cw, trans = _oracle_quotient_pipeline(blocks_by_name, module_bases)
    return {
        "trans": {bid: len(reps) for bid, reps in trans.items()},
        "mu_bar": {bid: len(data[2]) for bid, data in mu.items()},
        "cw": {bid: len(data[0]) for bid, data in cw.items()},
    }


def oracle_comparison_rank(blocks_by_name, module_bases):
    """{(p, q): rank of H_trans -> H_cw}: each transverse representative is written
    in the mu_bar presentation, then in the H_cw presentation, and the
    resulting coordinate columns are ranked."""
    mu, cw, trans = _oracle_quotient_pipeline(blocks_by_name, module_bases)
    out = {}
    for bid, treps in trans.items():
        _, img, mu_reps = mu[bid]
        cw_reps, cw_im = cw[bid]
        cols = []
        for v in treps:
            cls = _oracle_coords(mu_reps + img, v)[: len(mu_reps)]
            cols.append(_oracle_coords(cw_reps + cw_im, cls)[: len(cw_reps)])
        out[bid] = oracle_rank(cols) if cols and cw_reps else 0
    return out


# -- homogeneous checks from their definitions -----------------------------------

def _oracle_span(rows):
    rows = [r for r in rows if any(r)]
    return oracle_rref(rows)[0] if rows else ()


def _oracle_inside(ech, v):
    return not any(oracle_reduce(ech, v))


def _oracle_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _oracle_n_mod_h(algebra, J, x, y):
    """N^J in the homogeneous normalization [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y]."""
    jx, jy = mat_vec(J, x), mat_vec(J, y)
    out = _oracle_sub(bracket(algebra, jx, jy), mat_vec(J, bracket(algebra, jx, y)))
    out = _oracle_sub(out, mat_vec(J, bracket(algebra, x, jy)))
    return _oracle_sub(out, bracket(algebra, x, y))


@lru_cache(maxsize=1)
def _oracle_image_plus_h(algebra, J, h_rows):
    """(N^J on every basis pair, echelon basis of Im N^J + h); memoized on the last input."""
    n = algebra.dim
    e = [basis_vector(n, i) for i in range(n)]
    values = [_oracle_n_mod_h(algebra, J, e[i], e[j]) for i, j in combinations(range(n), 2)]
    return values, _oracle_span(values + list(h_rows))


def oracle_invariant(algebra, J, h_rows):
    """[H, JA] - J[H, A] ∈ h for every row H of h_rows and every basis vector A."""
    n = algebra.dim
    h = _oracle_span(h_rows)
    return all(
        _oracle_inside(h, _oracle_sub(
            bracket(algebra, hrow, mat_vec(J, basis_vector(n, a))),
            mat_vec(J, bracket(algebra, hrow, basis_vector(n, a))),
        ))
        for hrow in h_rows
        for a in range(n)
    )


def _oracle_is_ideal(algebra, ech):
    n = algebra.dim
    return all(
        _oracle_inside(ech, bracket(algebra, basis_vector(n, i), v)) for i in range(n) for v in ech
    )


@lru_cache(maxsize=1)
def oracle_minimal_criterion(algebra, J, h_rows):
    """(holds, is_ideal): holds iff [JA, N^J(B,C)] - J[A, N^J(B,C)] ∈ Im N^J + h
    for every basis vector A and basis pair B < C; is_ideal says whether
    Im N^J + h is an ideal of g. Memoized on the last input (J and h_rows are
    tuples), so oracle_fibration on the same pair reuses it."""
    n = algebra.dim
    values, target = _oracle_image_plus_h(algebra, J, h_rows)
    e = [basis_vector(n, a) for a in range(n)]
    je = [mat_vec(J, v) for v in e]
    holds = all(
        _oracle_inside(target, _oracle_sub(
            bracket(algebra, je[a], w),
            mat_vec(J, bracket(algebra, e[a], w)),
        ))
        for a in range(n)
        for w in values
    )
    return holds, _oracle_is_ideal(algebra, target)


def oracle_fibration(algebra, J, h_rows):
    """fibration_report's fields other than the witness, from the definitions.

    Fibers are complex when dim((Im N^J + h)/h) = 2 or N^J maps every pair of
    basis-pair values of N^J into h; the transverse structure needs Im N^J + h
    to be J-stable, bracket-closed, and to hold [U, JA] - J[U, A] for every U
    in it and every basis vector A.
    """
    n = algebra.dim
    holds, is_ideal = oracle_minimal_criterion(algebra, J, h_rows)
    if not holds:
        return {"applicable": False, "reason": "minimality criterion fails"}
    values, target = _oracle_image_plus_h(algebra, J, h_rows)
    h = _oracle_span(h_rows)
    dim_im_n = len(target) - len(h)
    is_subalgebra = all(
        _oracle_inside(target, bracket(algebra, u, v)) for u, v in combinations(target, 2)
    )
    fibers = dim_im_n == 2 or all(
        _oracle_inside(h, _oracle_n_mod_h(algebra, J, u, v)) for u, v in combinations(values, 2)
    )
    e = [basis_vector(n, a) for a in range(n)]
    transverse = (
        all(_oracle_inside(target, mat_vec(J, v)) for v in target)
        and is_subalgebra
        and all(
            _oracle_inside(target, _oracle_sub(
                bracket(algebra, u, mat_vec(J, e[a])),
                mat_vec(J, bracket(algebra, u, e[a])),
            ))
            for u in target
            for a in range(n)
        )
    )
    return {
        "applicable": True,
        "dim_im_N": dim_im_n,
        "is_subalgebra": is_subalgebra,
        "is_ideal": is_ideal,
        "fibers_complex": fibers,
        "via_dim2_shortcut": dim_im_n == 2,
        "transverse_complex_structure": transverse,
    }


def oracle_qi(op, x, y):
    """x op y in Q(i) for op in "+-*/", on (re, im) pairs of Fractions."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d  # "/": x·conj(y)/|y|², which raises ZeroDivisionError at y = 0
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def oracle_triple(re, im):
    """The canonical (a, b, d) of re + im·i: d the lcm of the two reduced
    denominators, a = re·d and b = im·d."""
    re, im = Fraction(re), Fraction(im)
    d = lcm(re.denominator, im.denominator)
    return int(re * d), int(im * d), d
