import pytest

from transdolbeault import catalog_get
from transdolbeault.catalog import random_acs
from transdolbeault.forms import BigradedOperator
from transdolbeault.lie import LieAlgebra


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
