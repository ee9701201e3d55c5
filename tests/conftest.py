import random

import pytest

from transdolbeault import catalog_get
from transdolbeault.acs import AlmostComplexStructure
from transdolbeault.catalog import random_acs
from transdolbeault.forms import BigradedOperator
from transdolbeault.lie import LieAlgebra, validate_lie_algebra
from transdolbeault.linalg import Subspace, basis_vector


@pytest.fixture(scope="session")
def kt():
    return catalog_get("kodaira_thurston")


@pytest.fixture(scope="session")
def kt_integrable():
    return catalog_get("kt_integrable")


@pytest.fixture(scope="session")
def iwasawa():
    return catalog_get("iwasawa")


@pytest.fixture(scope="session")
def su2():
    return catalog_get("su2_mod_u1")


@pytest.fixture(scope="session")
def h5r():
    return catalog_get("heisenberg5_plus_r")


@pytest.fixture(scope="session")
def maxcand():
    return catalog_get("max_nonintegrable_candidate")


@pytest.fixture(scope="session")
def so3so3():
    return LieAlgebra.from_brackets(6, {
        (0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1},
        (3, 4): {5: 1}, (4, 5): {3: 1}, (3, 5): {4: -1},
    })


@pytest.fixture(scope="session")
def strict_entries(kt, kt_integrable, iwasawa, h5r, maxcand):
    """Every strict-mode catalog entry plus the abelian tori."""
    entries = [catalog_get("abelian2n", n=n) for n in (1, 2, 3)]
    entries += [kt, kt_integrable, iwasawa, h5r, maxcand]
    return entries


def instance_pool(count, start_seed=0, dims=(2, 4, 6)):
    """Deterministic (algebra, acs) pairs drawn from the catalog algebras."""
    algebras = []
    if 2 in dims:
        algebras.append(catalog_get("abelian2n", n=1).algebra)
    if 4 in dims:
        algebras.append(catalog_get("abelian2n", n=2).algebra)
        algebras.append(catalog_get("kodaira_thurston").algebra)
    if 6 in dims:
        algebras.append(catalog_get("abelian2n", n=3).algebra)
        algebras.append(catalog_get("iwasawa").algebra)
        algebras.append(catalog_get("heisenberg5_plus_r").algebra)
        algebras.append(catalog_get("max_nonintegrable_candidate").algebra)
    out = []
    for k in range(count):
        algebra = algebras[k % len(algebras)]
        seed = start_seed + k
        out.append((algebra, random_acs(algebra, seed), seed))
    return out


def _nilpotent_algebras(n):
    """Four nilpotent algebras of odd dimension n = 2k + 1: filiform and
    Heisenberg, each once with e_{n-1} central and once with e_{n-1} not."""
    k = (n - 1) // 2
    return (
        LieAlgebra.from_brackets(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}),
        LieAlgebra.from_brackets(n, {(n - 1, i): {i + 1: 1} for i in range(n - 2)}),
        LieAlgebra.from_brackets(n, {(i, k + i): {n - 1: 1} for i in range(k)}),
        LieAlgebra.from_brackets(n, {(i, k + i): {0: 1} for i in range(1, k + 1)}),
    )


def mod_h_pairs(per_algebra, dims=(3, 5, 7)):
    """Deterministic (algebra, mod-h acs, h) with h = span(e_{n-1}) and
    J = [[A, 0], [b, 0]], A a random_acs of the abelian (n-1)-dim algebra and b
    a random integer row: J preserves h and J^2 + Id = [[0, 0], [bA, 1]] maps
    g into h. Invariance and the minimality criterion fail on many of them."""
    rng = random.Random(0)
    out = []
    for n in dims:
        h = Subspace.from_rows(n, [basis_vector(n, n - 1)])
        for algebra in _nilpotent_algebras(n):
            assert validate_lie_algebra(algebra).valid
            for t in range(per_algebra):
                a = random_acs(LieAlgebra.abelian(n - 1), 100 * n + t).J
                b = [rng.randint(-2, 2) for _ in range(n - 1)]
                rows = [list(r) + [0] for r in a] + [b + [0]]
                out.append((algebra, AlmostComplexStructure(rows, mod_h=h), h))
    return out


def sphere_product_pairs():
    """S^2 x S^2 as (su2 + su2)/(u1 + u1): g = so3so3, h = span(e2, e5), J a
    rotation by ±90° on span(e0, e1) and on span(e3, e4) whose images may pick
    up h components. All are integrable mod h, and h is not an ideal."""
    algebra = LieAlgebra.from_brackets(6, {
        (0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1},
        (3, 4): {5: 1}, (4, 5): {3: 1}, (3, 5): {4: -1},
    })
    h = Subspace.from_rows(6, [basis_vector(6, 2), basis_vector(6, 5)])
    out = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for b in range(2):
                rows = [[0] * 6 for _ in range(6)]
                rows[1][0], rows[0][1] = s1, -s1
                rows[4][3], rows[3][4] = s2, -s2
                rows[2][0], rows[5][4] = b, b - 1
                out.append((algebra, AlmostComplexStructure(rows, mod_h=h), h))
    return out


def direct_sum(first, second):
    """(g1 ⊕ g2, J1 ⊕ J2 as a mod-h acs, h1 ⊕ h2) of two (algebra, acs, h) triples.

    g1 takes the lower indices, so the echelon basis of Im N^J lists the
    vectors of Im N^J1 first.
    """
    (a1, acs1, h1), (a2, acs2, h2) = first, second
    n1, n = a1.dim, a1.dim + a2.dim
    table = {(i, j): dict(enumerate(vec)) for (i, j), vec in a1.brackets}
    table.update({
        (n1 + i, n1 + j): {n1 + k: c for k, c in enumerate(vec)} for (i, j), vec in a2.brackets
    })
    rows = [list(r) + [0] * a2.dim for r in acs1.J] + [[0] * n1 + list(r) for r in acs2.J]
    h = Subspace.from_rows(n, [tuple(r) + (0,) * a2.dim for r in h1.basis]
                           + [(0,) * n1 + tuple(r) for r in h2.basis])
    return LieAlgebra.from_brackets(n, table), AlmostComplexStructure(rows, mod_h=h), h


def operator_from_blocks(op, blocks):
    """A BigradedOperator with op's frame and shift whose blocks are the dense
    ((p, q), matrix) pairs given, stored as the operator stores them: one
    ((target index, value), ...) column of nonzeros per source monomial."""
    columns = tuple(
        ((p, q), tuple(
            tuple((i, row[j]) for i, row in enumerate(mat) if row[j])
            for j in range(op.frame.dim(p, q))
        ))
        for (p, q), mat in blocks
    )
    return BigradedOperator(op.frame, op.shift, columns)
