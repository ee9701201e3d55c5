"""Exact linear algebra over Q(i).

Vectors are tuples of :class:`GaussianRational`; matrices are tuples of row
tuples. Subspaces are kept in reduced row-echelon form, which is a normal
form: two equal subspaces store bit-identical bases, so fixed points of the
derived-flag recursion are detected by plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ShapeError, WellDefinednessError
from .scalars import ONE, ZERO, GaussianRational

__all__ = [
    "Subspace",
    "QuotientMap",
    "as_vector",
    "as_matrix",
    "basis_vector",
    "zero_vector",
    "add_vectors",
    "sub_vectors",
    "scale_vector",
    "conj_vector",
    "dot",
    "mat_vec",
    "mat_mul",
    "transpose",
    "identity_matrix",
    "sparse_rows",
    "dense_vector",
    "combine_rows",
    "mat_inverse",
    "mat_rank",
    "rref_rows",
    "kernel",
    "column_space",
    "subspace_sum",
    "solve_in_rows",
    "solve_many_in_rows",
    "quotient_representatives",
    "induced_map_on_quotient",
]


# -- vector / matrix plumbing -------------------------------------------------

def as_vector(entries):
    return tuple(GaussianRational.of(x) for x in entries)


def as_matrix(rows):
    mat = tuple(as_vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ShapeError("ragged rows: all rows must have the same length")
    return mat


def zero_vector(n):
    return (ZERO,) * n


def basis_vector(n, i):
    if not 0 <= i < n:
        raise ShapeError(f"basis index {i} out of range for ambient dimension {n}")
    return (ZERO,) * i + (ONE,) + (ZERO,) * (n - i - 1)


def _check_len(v, n, what="vector"):
    if len(v) != n:
        raise ShapeError(f"{what} has length {len(v)}, expected {n}")


def add_vectors(u, v):
    _check_len(v, len(u))
    return tuple(a + b for a, b in zip(u, v))


def sub_vectors(u, v):
    _check_len(v, len(u))
    return tuple(a - b for a, b in zip(u, v))


def scale_vector(c, v):
    c = GaussianRational.of(c)
    return tuple(c * a for a in v)


def conj_vector(v):
    return tuple(a.conjugate() for a in v)


def dot(u, v):
    _check_len(v, len(u))
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def mat_vec(m, v):
    if m and len(m[0]) != len(v):
        raise ShapeError(f"matrix has {len(m[0])} columns, vector has length {len(v)}")
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    if not m:
        return ()
    return tuple(zip(*m))


def identity_matrix(n):
    return tuple(basis_vector(n, i) for i in range(n))


def mat_rank(m):
    return len(rref_rows(m)[0])


def mat_inverse(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise ShapeError("matrix must be square")
    aug = [list(row) + list(basis_vector(n, i)) for i, row in enumerate(m)]
    ech, pivots = _rref_inplace(aug)
    if pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return tuple(tuple(row[n:]) for row in ech)


# -- reduced row-echelon form --------------------------------------------------

def _rref_inplace(mat):
    """Canonical RREF of a list of dense rows: (nonzero echelon rows, pivot columns).

    This is the one elimination routine. Each row becomes a sparse
    {column: value} map once and only stored nonzeros are touched; for each
    pivot column the candidate row with the fewest nonzeros is taken. The
    reduced echelon form of a matrix is unique, so the rows returned do not
    depend on that choice. ``mat`` is consumed.
    """
    ncols = len(mat[0]) if mat else 0
    active = [r for r in ({j: x for j, x in enumerate(row) if x} for row in mat) if r]
    done = []  # reduced pivot rows, in pivot order
    pivots = []
    for col in range(ncols):
        if not active:
            break
        hits = [r for r in active if col in r]
        if not hits:
            continue
        chosen = min(hits, key=len)
        prow = chosen
        pv = prow[col]
        if pv != ONE:
            inv = ONE / pv
            prow = {j: inv * x for j, x in prow.items()}
        rest = [(j, x) for j, x in prow.items() if j != col]
        for r in [r for r in hits if r is not chosen] + [r for r in done if col in r]:
            f = -r.pop(col)
            for j, x in rest:
                old = r.get(j)
                if old is None:
                    r[j] = f * x
                else:
                    new = old + f * x
                    if new:
                        r[j] = new
                    else:
                        del r[j]
        active = [r for r in active if r and r is not chosen]
        done.append(prow)
        pivots.append(col)
    rows = []
    for prow in done:
        row = [ZERO] * ncols
        for j, x in prow.items():
            row[j] = x
        rows.append(row)
    return rows, pivots


def rref_rows(rows):
    """Canonical RREF of arbitrary rows: (tuple of nonzero echelon rows, pivots)."""
    mat = [list(r) for r in as_matrix(rows)]
    ech, pivots = _rref_inplace(mat)
    return tuple(tuple(r) for r in ech), tuple(pivots)


# -- subspaces -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Subspace:
    """A linear subspace of Q(i)^ambient_dim in canonical reduced echelon form.

    Next to the dense ``basis`` it stores, once, the pivot column of each
    basis row and the row's ``((column, value), ...)`` nonzeros; membership
    and reduction touch only those. Both are derived from ``basis``, so they
    take no part in equality or hashing.
    """

    ambient_dim: int
    basis: tuple
    pivots: tuple = field(init=False, compare=False, repr=False)
    sparse_basis: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        srows = sparse_rows(self.basis)
        object.__setattr__(self, "sparse_basis", srows)
        object.__setattr__(self, "pivots", tuple(row[0][0] for row in srows))

    @classmethod
    def from_rows(cls, ambient_dim, rows):
        rows = tuple(rows)
        for r in rows:
            _check_len(r, ambient_dim, "spanning vector")
        ech, _ = rref_rows(rows)
        return cls(ambient_dim, ech)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, identity_matrix(ambient_dim))

    @property
    def rank(self):
        return len(self.basis)

    def reduce(self, v):
        """Residue of v after eliminating all pivot coordinates; zero iff v is in the span."""
        _check_len(v, self.ambient_dim)
        v = as_vector(v)
        w = {j: x for j, x in enumerate(v) if x}
        if not w:
            return v
        for row, p in zip(self.sparse_basis, self.pivots):
            c = w.get(p)
            if c is None:
                continue
            for j, x in row:
                old = w.get(j)
                if old is None:
                    w[j] = -(c * x)
                else:
                    new = old - c * x
                    if new:
                        w[j] = new
                    else:
                        del w[j]
        return dense_vector(w.items(), self.ambient_dim)

    def contains(self, v):
        return not any(self.reduce(v))

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return all(self.contains(row) for row in other.basis)

    def is_zero(self):
        return not self.basis


def subspace_sum(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Subspace.from_rows(a.ambient_dim, a.basis + b.basis)


def kernel(m, ncols=None):
    """Right null space {v : m·v = 0} as a Subspace of Q(i)^ncols."""
    if m:
        ncols = len(m[0])
    elif ncols is None:
        raise ShapeError("kernel of an empty matrix needs an explicit column count")
    else:
        return Subspace.full(ncols)
    ech, pivots = rref_rows(m)
    pivset = set(pivots)
    gens = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(ech, pivots):
            if row[free]:
                v[p] = -row[free]
        gens.append(tuple(v))
    return Subspace.from_rows(ncols, gens)


def column_space(m):
    if not m:
        raise ShapeError("column space of an empty matrix is undefined")
    return Subspace.from_rows(len(m), transpose(m))


def solve_in_rows(rows, v):
    """Coefficients x with sum(x_i * rows[i]) == v, or None if v is outside the span.

    Free coefficients (dependent rows) are set to zero.
    """
    return solve_many_in_rows(rows, [v])[0]


def solve_many_in_rows(rows, targets):
    """solve_in_rows for every target, from one elimination of [rowsᵀ | targets].

    Deleting columns of a reduced echelon matrix leaves one, so the
    coefficient columns of a target in the span equal those of its own
    solve. A row whose pivot lies among the targets reads 0 = (its entry)
    for every target, so each target with a nonzero entry there is outside
    the span, whether or not that target's column holds a pivot.
    """
    rows = as_matrix(rows)
    if not rows or not targets:
        return [() if not any(v) else None for v in targets]
    n = len(rows[0])
    for v in targets:
        _check_len(v, n, "target vector")
    targets = [as_vector(v) for v in targets]
    k = len(rows)
    aug = [list(col) + [v[i] for v in targets] for i, col in enumerate(transpose(rows))]
    ech, pivots = _rref_inplace(aug)
    solvable = [True] * len(targets)
    for row, p in zip(ech, pivots):
        if p >= k:
            for t, x in enumerate(row[k:]):
                if x:
                    solvable[t] = False
    out = []
    for t, ok in enumerate(solvable):
        coeffs = None
        if ok:
            coeffs = [ZERO] * k
            for row, p in zip(ech, pivots):
                if p < k:
                    coeffs[p] = row[k + t]
            coeffs = tuple(coeffs)
        out.append(coeffs)
    return out


def _quotient_rep_indices(sub, quot_by):
    """Indices into sub.basis of the rows that extend quot_by to a basis of sub.

    They are the pivot columns of one RREF of the columns [quot_by | sub]:
    exactly the first echelon rows of sub that grow the span.
    """
    if not sub.basis:
        return ()
    k = quot_by.rank
    _, pivots = _rref_inplace([list(col) for col in transpose(quot_by.basis + sub.basis)])
    return tuple(p - k for p in pivots if p >= k)


def quotient_representatives(sub, quot_by):
    """Rows of sub's canonical basis extending quot_by to a basis of sub.

    The choice is deterministic (first echelon rows that grow the span), so
    quotient presentations are reproducible.
    """
    return tuple(sub.basis[i] for i in _quotient_rep_indices(sub, quot_by))


def sparse_rows(rows):
    """Each dense row as its ``((column, value), ...)`` nonzeros, in column order."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def dense_vector(nonzeros, n):
    """The length-n vector with these (index, value) entries and zeros elsewhere."""
    out = [ZERO] * n
    for j, x in nonzeros:
        out[j] = x
    return tuple(out)


def combine_rows(coeffs, srows, n):
    """sum(c * row for c, row in zip(coeffs, srows)) as a dense length-n vector.

    The rows are given by their nonzeros (see sparse_rows); only those and
    the nonzero coefficients are touched.
    """
    acc = {}
    for c, row in zip(coeffs, srows):
        if not c:
            continue
        for j, x in row:
            old = acc.get(j)
            acc[j] = c * x if old is None else old + c * x
    return dense_vector(acc.items(), n)


def _apply_sparse(srows, ncols, v):
    """mat_vec on a matrix given by its [(column, value)] nonzero rows and column count."""
    if srows and ncols != len(v):
        raise ShapeError(f"matrix has {ncols} columns, vector has length {len(v)}")
    out = []
    for row in srows:
        acc = ZERO
        for j, a in row:
            b = v[j]
            if b:
                acc = acc + a * b
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class QuotientMap:
    """A linear map between quotients, presented on echelon-complement bases."""

    matrix: tuple
    dom_reps: tuple
    cod_reps: tuple


def induced_map_on_quotient(f, dom_sub, dom_quot_by, cod_sub, cod_quot_by):
    """The map induced by f : dom_sub/dom_quot_by -> cod_sub/cod_quot_by.

    All four well-definedness inclusions are verified and named on failure.
    """
    f = as_matrix(f)
    if not dom_sub.contains_subspace(dom_quot_by):
        raise WellDefinednessError("dom_quot_by is not contained in dom_sub")
    if not cod_sub.contains_subspace(cod_quot_by):
        raise WellDefinednessError("cod_quot_by is not contained in cod_sub")
    fs = sparse_rows(f)  # f is scanned once
    fcols = len(f[0]) if f else 0
    images = [_apply_sparse(fs, fcols, row) for row in dom_sub.basis]
    for y in images:
        if not cod_sub.contains(y):
            raise WellDefinednessError("f(dom_sub) is not contained in cod_sub")
    for row in dom_quot_by.basis:
        if not cod_quot_by.contains(_apply_sparse(fs, fcols, row)):
            raise WellDefinednessError("f(dom_quot_by) is not contained in cod_quot_by")

    dom_idx = _quotient_rep_indices(dom_sub, dom_quot_by)
    dom_reps = tuple(dom_sub.basis[i] for i in dom_idx)
    cod_reps = quotient_representatives(cod_sub, cod_quot_by)
    solutions = solve_many_in_rows(cod_reps + cod_quot_by.basis, [images[i] for i in dom_idx])
    if any(coeffs is None for coeffs in solutions):  # unreachable given the checks above
        raise WellDefinednessError("image escaped cod_sub despite containment checks")
    cols = [coeffs[: len(cod_reps)] for coeffs in solutions]
    matrix = transpose(cols) if cols else tuple(() for _ in cod_reps)
    if not cod_reps:
        matrix = ()
    return QuotientMap(matrix=matrix, dom_reps=dom_reps, cod_reps=cod_reps)
