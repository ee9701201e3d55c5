import random

import pytest

from conftest import instance_pool
from oracles import oracle_nijenhuis
from transdolbeault.acs import (
    AlmostComplexStructure,
    lie_derivative_endo,
    nijenhuis,
    nijenhuis_image,
    split_10_01,
    validate_acs,
)
from transdolbeault.catalog import random_acs, standard_j
from transdolbeault.errors import ShapeError, ValidationError
from transdolbeault.lie import LieAlgebra
from transdolbeault.linalg import (
    Subspace,
    as_vector,
    basis_vector,
    dot,
    identity_matrix,
    mat_vec,
    scale_vector,
    add_vectors,
)
from transdolbeault.scalars import GaussianRational, I, ONE, ZERO

G = GaussianRational.of
HALF = ONE / 2


def rand_vec(rng, n, complex_ok=True):
    if complex_ok:
        return as_vector(
            [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        )
    return as_vector([rng.randint(-3, 3) for _ in range(n)])


def test_validate_standard_j0():
    L = LieAlgebra.abelian(4)
    assert validate_acs(L, standard_j(4)).valid


def test_validate_identity_fails():
    L = LieAlgebra.abelian(4)
    report = validate_acs(L, identity_matrix(4))
    assert not report.valid
    assert report.failing_columns == (0, 1, 2, 3)


def test_validate_kt(kt):
    assert validate_acs(kt.algebra, kt.acs.J).valid


def test_validate_odd_dimension_errors(su2):
    with pytest.raises(ShapeError):
        validate_acs(su2.algebra, identity_matrix(3))


def test_constructor_enforces_square():
    with pytest.raises(ValidationError):
        AlmostComplexStructure(identity_matrix(4))


def test_split_r2():
    L = LieAlgebra.abelian(2)
    acs = AlmostComplexStructure(standard_j(2))
    sp = split_10_01(L, acs)
    # basis_10 spans (e1 - i e2)/2
    target = Subspace.from_rows(2, [as_vector([HALF, -I * HALF])])
    assert Subspace.from_rows(2, sp.basis_10) == target
    # dual pairing: dual_10 kills basis_01 and pairs to 1 with basis_10
    assert dot(sp.dual_10[0], sp.basis_10[0]) == ONE
    assert dot(sp.dual_10[0], sp.basis_01[0]) == ZERO


def test_split_kt(kt):
    sp = split_10_01(kt.algebra, kt.acs)
    assert len(sp.basis_10) == 2
    expected = Subspace.from_rows(4, [
        as_vector([1, 0, -I, 0]) , as_vector([0, 1, 0, -I]),
    ])
    assert Subspace.from_rows(4, sp.basis_10) == expected
    # J v = i v on every returned (1,0) vector
    for v in sp.basis_10:
        assert mat_vec(kt.acs.J, v) == tuple(I * c for c in v)
    # duality is exactly the Kronecker pairing
    for a, cov in enumerate(sp.dual_10):
        for b, v in enumerate(sp.basis_10):
            assert dot(cov, v) == (ONE if a == b else ZERO)
        for v in sp.basis_01:
            assert dot(cov, v) == ZERO


def test_split_conjugation_symmetry(strict_entries):
    for entry in strict_entries:
        sp = split_10_01(entry.algebra, entry.acs)
        assert sp.basis_01 == tuple(tuple(c.conjugate() for c in v) for v in sp.basis_10)
        assert sp.dual_01 == tuple(tuple(c.conjugate() for c in v) for v in sp.dual_10)
        assert len(sp.basis_10) == entry.algebra.dim // 2


def test_nijenhuis_abelian_vanishes():
    L = LieAlgebra.abelian(6)
    acs = random_acs(L, 4)
    rng = random.Random(0)
    for _ in range(5):
        assert not any(nijenhuis(L, acs, rand_vec(rng, 6), rand_vec(rng, 6)))


def test_nijenhuis_kt_values(kt):
    L, acs = kt.algebra, kt.acs
    e = [basis_vector(4, i) for i in range(4)]
    assert nijenhuis(L, acs, e[0], e[1]) == scale_vector(-1, e[2])
    # N(J e1, e2) = N(e3, e2) = -e1 = -J(N(e1,e2))
    assert nijenhuis(L, acs, e[2], e[1]) == scale_vector(-1, e[0])
    assert nijenhuis(L, acs, e[2], e[1]) == scale_vector(
        -1, mat_vec(acs.J, nijenhuis(L, acs, e[0], e[1]))
    )


def test_nijenhuis_matches_oracle_on_pool():
    rng = random.Random(23)
    for algebra, acs, _ in instance_pool(21, start_seed=300):
        n = algebra.dim
        pairs = [(basis_vector(n, i), basis_vector(n, j)) for i in range(n) for j in range(i + 1, n)]
        pairs += [(rand_vec(rng, n), rand_vec(rng, n)) for _ in range(3)]
        for x, y in pairs:
            assert nijenhuis(algebra, acs, x, y) == oracle_nijenhuis(algebra, acs.J, x, y)


def test_nijenhuis_symmetries_randomized(strict_entries):
    rng = random.Random(17)
    for entry in strict_entries:
        L, acs = entry.algebra, entry.acs
        n = L.dim
        for _ in range(6):
            x, y = rand_vec(rng, n), rand_vec(rng, n)
            nxy = nijenhuis(L, acs, x, y)
            assert nijenhuis(L, acs, y, x) == scale_vector(-1, nxy)
            assert nijenhuis(L, acs, mat_vec(acs.J, x), y) == scale_vector(
                -1, mat_vec(acs.J, nxy)
            )


def test_bracket_t01_component_is_minus_n(strict_entries):
    """The T^{0,1} part of [x - iJx, y - iJy] equals A^-(-N(x,y))."""
    from transdolbeault.lie import bracket

    rng = random.Random(19)
    for entry in strict_entries:
        L, acs = entry.algebra, entry.acs
        n, m = L.dim, L.dim // 2
        sp = split_10_01(L, acs)
        duals = sp.dual_10 + sp.dual_01
        vectors = sp.basis_10 + sp.basis_01
        for _ in range(4):
            x, y = rand_vec(rng, n, complex_ok=False), rand_vec(rng, n, complex_ok=False)
            ax = tuple(c - I * d for c, d in zip(x, mat_vec(acs.J, x)))
            ay = tuple(c - I * d for c, d in zip(y, mat_vec(acs.J, y)))
            br = bracket(L, ax, ay)
            proj01 = (ZERO,) * n
            for b in range(m, 2 * m):
                c = dot(duals[b], br)
                if c:
                    proj01 = add_vectors(proj01, scale_vector(c, vectors[b]))
            nxy = nijenhuis(L, acs, x, y)
            aminus = tuple(HALF * (-c - I * d) for c, d in zip(nxy, mat_vec(acs.J, nxy)))
            # A^-(v) = (v + i J v)/2 applied to -N(x,y)
            assert proj01 == aminus


def test_nijenhuis_image_examples(kt, kt_integrable):
    L = LieAlgebra.abelian(4)
    assert nijenhuis_image(L, AlmostComplexStructure(standard_j(4))).is_zero()
    im = nijenhuis_image(kt.algebra, kt.acs)
    assert im == Subspace.from_rows(4, [basis_vector(4, 0), basis_vector(4, 2)])
    assert nijenhuis_image(kt_integrable.algebra, kt_integrable.acs).is_zero()


def test_nijenhuis_image_j_stable(strict_entries):
    for entry in strict_entries:
        im = nijenhuis_image(entry.algebra, entry.acs)
        for row in im.basis:
            assert im.contains(mat_vec(entry.acs.J, row))


def test_lie_derivative_endo_examples(kt):
    L, acs = kt.algebra, kt.acs
    zero = lie_derivative_endo(LieAlgebra.abelian(4), AlmostComplexStructure(standard_j(4)), basis_vector(4, 0))
    assert all(not any(row) for row in zero)
    central = lie_derivative_endo(L, acs, basis_vector(4, 2))
    assert all(not any(row) for row in central)
    m = lie_derivative_endo(L, acs, basis_vector(4, 0))
    assert mat_vec(m, basis_vector(4, 1)) == basis_vector(4, 0)


def test_lie_derivative_anticommutes_with_j(strict_entries):
    rng = random.Random(31)
    for entry in strict_entries:
        L, acs = entry.algebra, entry.acs
        n = L.dim
        for _ in range(4):
            u = rand_vec(rng, n)
            m = lie_derivative_endo(L, acs, u)
            for a in range(n):
                ea = basis_vector(n, a)
                lhs = mat_vec(m, mat_vec(acs.J, ea))
                rhs = mat_vec(acs.J, mat_vec(m, ea))
                assert lhs == scale_vector(-1, rhs)


def test_split_requires_strict(su2):
    with pytest.raises(ValidationError):
        split_10_01(su2.algebra, su2.acs)
