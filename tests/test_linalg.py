import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_intersection,
    oracle_quotient_representatives,
    oracle_rank,
    oracle_reduce,
    oracle_rref,
    oracle_solve,
)
from transdolbeault.errors import ShapeError, WellDefinednessError
from transdolbeault.linalg import (
    Subspace,
    as_matrix,
    as_vector,
    basis_vector,
    combine_rows,
    induced_map_on_quotient,
    identity_matrix,
    kernel,
    mat_vec,
    quotient_representatives,
    rref_rows,
    solve_in_rows,
    solve_many_in_rows,
    sparse_rows,
    subspace_sum,
)
from transdolbeault.scalars import GaussianRational, I, ONE, ZERO

G = GaussianRational.of


def vec(*entries):
    return as_vector(entries)


def rand_vector(rng, n):
    return as_vector([rng.randint(-3, 3) for _ in range(n)])


def rand_subspace(rng, n, k):
    return Subspace.from_rows(n, [rand_vector(rng, n) for _ in range(k)])


# -- rref -------------------------------------------------------------------

def test_rref_identity_case():
    sub = Subspace.from_rows(2, [vec(1, 0), vec(0, 1)])
    assert sub.rank == 2
    assert sub.basis == identity_matrix(2)


def test_rref_complex_dependent_rows():
    sub = Subspace.from_rows(2, [vec(1, I), vec(I, -1)])
    assert sub.rank == 1
    assert sub.basis == (vec(1, I),)


def test_rref_proportional_rows():
    assert rref_rows([vec(2, 4), vec(1, 2), vec(0, 0)]) == ((vec(1, 2),), (0,))


def test_rref_ragged_rows_shape_error():
    with pytest.raises(ShapeError):
        rref_rows([vec(1, 0), vec(1, 0, 0)])


def test_rref_canonicity_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [rand_vector(rng, n) for _ in range(rng.randint(1, 5))]
        sub = Subspace.from_rows(n, rows)
        assert Subspace.from_rows(n, sub.basis) == sub
        # equal spans give bit-identical bases: rescale and shuffle the rows
        scaled = [tuple(G(rng.choice([1, 2, -1, 3])) * c for c in r) for r in rows]
        rng.shuffle(scaled)
        assert Subspace.from_rows(n, scaled + rows) == sub or not all(
            sub.contains(r) for r in scaled
        )


# -- subspace lattice ---------------------------------------------------------

def test_sum_of_axes():
    a = Subspace.from_rows(3, [basis_vector(3, 0)])
    b = Subspace.from_rows(3, [basis_vector(3, 1)])
    assert subspace_sum(a, b) == Subspace.from_rows(3, [basis_vector(3, 0), basis_vector(3, 1)])


def test_sum_idempotent():
    v = Subspace.from_rows(4, [vec(1, 2, 0, -1), vec(0, 1, 1, 1)])
    assert subspace_sum(v, v) == v


def test_sum_diagonal_split():
    a = Subspace.from_rows(2, [vec(1, 1)])
    b = Subspace.from_rows(2, [vec(1, -1)])
    assert subspace_sum(a, b) == Subspace.full(2)


def test_sum_ambient_mismatch():
    with pytest.raises(ShapeError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def test_contains_examples():
    assert Subspace.zero(3).contains((ZERO, ZERO, ZERO))
    s = Subspace.from_rows(4, [basis_vector(4, 0), basis_vector(4, 2)])
    assert s.contains(basis_vector(4, 2))
    assert not s.contains(basis_vector(4, 1))
    with pytest.raises(ShapeError):
        s.contains(vec(1, 0))


def test_dimension_formula_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = rand_subspace(rng, n, rng.randint(0, n))
        b = rand_subspace(rng, n, rng.randint(0, n))
        s = subspace_sum(a, b)
        i = Subspace(n, oracle_intersection(a.basis, b.basis, n))
        assert s.rank + i.rank == a.rank + b.rank
        assert a.contains_subspace(i) and b.contains_subspace(i)
        assert s.contains_subspace(a) and s.contains_subspace(b)


def test_kernel_and_solve():
    m = as_matrix([[1, 1, 0], [0, 0, 1]])
    k = kernel(m)
    assert k.basis == (vec(1, -1, 0),)
    coeffs = solve_in_rows([vec(1, 1), vec(0, 1)], vec(2, 5))
    assert coeffs == (G(2), G(3))
    assert solve_in_rows([vec(1, 0)], vec(0, 1)) is None


# -- induced maps on quotients ---------------------------------------------------

def test_induced_zero_map():
    zero = as_matrix([[0, 0], [0, 0]])
    q = induced_map_on_quotient(
        zero, Subspace.full(2), Subspace.zero(2), Subspace.full(2), Subspace.zero(2)
    )
    assert all(not any(row) for row in q.matrix)


def test_induced_trivial_quotients_restrict():
    f = as_matrix([[1, 2], [0, 1]])
    dom = Subspace.from_rows(2, [vec(1, 0)])
    q = induced_map_on_quotient(f, dom, Subspace.zero(2), Subspace.full(2), Subspace.zero(2))
    # restriction of f to dom in the chosen bases
    assert q.dom_reps == (vec(1, 0),)
    assert mat_vec(f, q.dom_reps[0]) == vec(1, 0)


def test_induced_identity_on_quotient():
    f = identity_matrix(2)
    quot = Subspace.from_rows(2, [basis_vector(2, 0)])
    q = induced_map_on_quotient(f, Subspace.full(2), quot, Subspace.full(2), quot)
    assert q.matrix == ((ONE,),)


def test_induced_violations_named():
    f = identity_matrix(2)
    with pytest.raises(WellDefinednessError, match="dom_quot_by"):
        induced_map_on_quotient(
            f, Subspace.from_rows(2, [vec(1, 0)]), Subspace.from_rows(2, [vec(0, 1)]),
            Subspace.full(2), Subspace.zero(2),
        )
    g = as_matrix([[0, 1], [1, 0]])
    with pytest.raises(WellDefinednessError, match="f\\(dom_quot_by\\)"):
        induced_map_on_quotient(
            g, Subspace.full(2), Subspace.from_rows(2, [vec(1, 0)]),
            Subspace.full(2), Subspace.from_rows(2, [vec(1, 0)]),
        )


def test_induced_map_commutes_with_projection_randomized():
    rng = random.Random(23)
    done = 0
    while done < 200:
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        f = tuple(rand_vector(rng, n) for _ in range(m))
        dom_sub = rand_subspace(rng, n, rng.randint(0, n))
        if dom_sub.is_zero():
            continue
        dom_quot = Subspace.from_rows(
            n, [r for r in dom_sub.basis if rng.random() < 0.5]
        )
        f_sub = [mat_vec(f, r) for r in dom_sub.basis]
        f_quot = [mat_vec(f, r) for r in dom_quot.basis]
        cod_quot = subspace_sum(Subspace.from_rows(m, f_quot), rand_subspace(rng, m, 1))
        cod_sub = subspace_sum(Subspace.from_rows(m, f_sub), cod_quot)
        q = induced_map_on_quotient(f, dom_sub, dom_quot, cod_sub, cod_quot)
        # projection of f(v) equals the induced matrix applied to the projection of v
        for v in dom_sub.basis:
            coeffs = solve_in_rows(q.dom_reps + dom_quot.basis, v)
            cls = coeffs[: len(q.dom_reps)]
            lhs = mat_vec(q.matrix, cls)
            rhs_coeffs = solve_in_rows(q.cod_reps + cod_quot.basis, mat_vec(f, v))
            assert rhs_coeffs is not None
            assert tuple(lhs) == tuple(rhs_coeffs[: len(q.cod_reps)])
        done += 1


def test_quotient_representatives_deterministic():
    sub = Subspace.from_rows(3, [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    quot = Subspace.from_rows(3, [vec(1, 1, 0)])
    reps = quotient_representatives(sub, quot)
    assert reps == quotient_representatives(sub, quot)
    assert len(reps) == 2


# -- the sparse elimination kernel against the dense oracle -----------------------

_parts = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_entries = st.builds(GaussianRational, _parts, st.one_of(st.just(0), _parts))
_SHAPES = ((0, 6), (1, 8), (8, 8), (3, 9), (12, 3))  # max rows, max cols: square, wide, tall


@st.composite
def qi_matrices(draw, ncols=None):
    """Q(i) matrices from all-zero to dense, with zero rows and dependent rows."""
    max_rows, max_cols = draw(st.sampled_from(_SHAPES))
    nrows = draw(st.integers(0, max_rows))
    if ncols is None:
        ncols = draw(st.integers(1, max_cols))
    zero_pct = draw(st.sampled_from((0, 50, 85, 100)))
    rows = []
    for _ in range(nrows):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rows.append((ZERO,) * ncols)
        elif kind == 1 and rows:
            a, b = draw(_entries), draw(_entries)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
        else:
            rows.append(tuple(
                ZERO if draw(st.integers(0, 99)) < zero_pct else draw(_entries)
                for _ in range(ncols)
            ))
    return ncols, tuple(rows)


@settings(max_examples=120, deadline=None)
@given(qi_matrices())
def test_rref_rows_matches_dense_oracle(shaped):
    _, rows = shaped
    got = rref_rows(rows)
    want = oracle_rref(rows)
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_many_matches_one_at_a_time_oracle(data):
    n, rows = data.draw(qi_matrices())
    combos = []
    for _ in range(data.draw(st.integers(0, 4))):
        v = (ZERO,) * n
        for row in rows:
            c = data.draw(_entries)
            v = tuple(a + c * b for a, b in zip(v, row))
        combos.append(v)
    _, free = data.draw(qi_matrices(ncols=n))  # mostly outside the span
    targets = data.draw(st.permutations(combos + list(free) + [(ZERO,) * n]))
    got = solve_many_in_rows(rows, targets)
    assert got == [oracle_solve(rows, v) for v in targets]
    assert [solve_in_rows(rows, v) for v in targets] == got


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_representatives_match_greedy_oracle(data):
    n, rows = data.draw(qi_matrices())
    _, extra = data.draw(qi_matrices(ncols=n))
    sub = Subspace.from_rows(n, rows + extra)
    quot_rows = [r for r in rows if data.draw(st.booleans())]
    if data.draw(st.booleans()):
        quot_rows += list(extra[:1])  # may leave sub: the greedy rule still applies
    quot = Subspace.from_rows(n, quot_rows)
    assert quotient_representatives(sub, quot) == oracle_quotient_representatives(
        sub.basis, quot.basis
    )


# -- the stored sparse rows of a Subspace against the dense oracle ----------------

def _dense_combination(coeffs, rows, n):
    out = (ZERO,) * n
    for c, row in zip(coeffs, rows):
        out = tuple(a + c * b for a, b in zip(out, row))
    return out


@st.composite
def subspaces(draw):
    """(Subspace, spanning rows) from random rows, or the zero or full subspace."""
    n, rows = draw(qi_matrices())
    kind = draw(st.sampled_from(("rows", "rows", "zero", "full")))
    if kind == "zero":
        rows = ()
    elif kind == "full":
        rows = tuple(basis_vector(n, i) for i in range(n))
    return Subspace.from_rows(n, rows), rows


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_subspace_reduce_and_contains_match_dense_oracle(data):
    sub, rows = data.draw(subspaces())
    n = sub.ambient_dim
    assert sub.pivots == tuple(next(j for j, x in enumerate(r) if x) for r in sub.basis)
    members = [
        _dense_combination([data.draw(_entries) for _ in rows], rows, n)
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    _, others = data.draw(qi_matrices(ncols=n))  # mostly outside the span
    base_rank = oracle_rank(sub.basis)
    for v in members + list(others) + [(ZERO,) * n]:
        assert sub.reduce(v) == oracle_reduce(sub.basis, v)
        assert sub.contains(v) == (oracle_rank(list(sub.basis) + [v]) == base_rank)
    for v in members:
        assert sub.contains(v)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equal_spans_give_equal_subspaces_and_hashes(data):
    sub, rows = data.draw(subspaces())
    n = sub.ambient_dim
    # an invertible recombination of the rows, reordered, with zero rows mixed in
    other = []
    for r in rows:
        c = data.draw(_entries.filter(bool))
        other.append(tuple(c * x for x in r))
    if len(other) > 1:
        c = data.draw(_entries)
        other[0] = tuple(a + c * b for a, b in zip(other[0], other[-1]))
    other = data.draw(st.permutations(other + [(ZERO,) * n] * data.draw(st.integers(0, 2))))
    again = Subspace.from_rows(n, other)
    assert again == sub
    assert hash(again) == hash(sub)
    assert again.pivots == sub.pivots and again.sparse_basis == sub.sparse_basis


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_combine_rows_matches_dense_sum(data):
    n, rows = data.draw(qi_matrices())
    coeffs = [ZERO if data.draw(st.booleans()) else data.draw(_entries) for _ in rows]
    assert combine_rows(coeffs, sparse_rows(rows), n) == _dense_combination(coeffs, rows, n)


def test_oracles_import_no_elimination_or_cohomology_code():
    """tests/oracles.py takes only the Subspace container from transdolbeault.linalg
    and nothing defined in transdolbeault.cohomology, at module level or inside
    functions, directly or through a re-export."""
    import ast
    import importlib
    from pathlib import Path

    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
    origins = set()
    for module, name in found:
        if module.split(".")[0] != "transdolbeault":
            continue
        obj = getattr(importlib.import_module(module), name) if name else None
        origins.add((getattr(obj, "__module__", None) or module, name))
    assert ("transdolbeault.linalg", "Subspace") in origins
    forbidden = {"transdolbeault.linalg", "transdolbeault.cohomology"}
    assert sorted(o for o in origins if o[0] in forbidden and o != ("transdolbeault.linalg", "Subspace")) == []
