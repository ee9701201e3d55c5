import random
from collections import Counter

import pytest

from conftest import direct_sum, instance_pool, mod_h_pairs, sphere_product_pairs
from oracles import oracle_fibration, oracle_invariant, oracle_minimal_criterion, oracle_nijenhuis
from transdolbeault.acs import AlmostComplexStructure, nijenhuis, nijenhuis_image
from transdolbeault.catalog import catalog_get, random_acs
from transdolbeault.cli import RunConfig, execute
from transdolbeault.errors import PreconditionError
from transdolbeault.flag import t10_derived_involutive
from transdolbeault.homogeneous import (
    HomogeneousPair,
    base_nijenhuis,
    fibration_report,
    invariance_check,
    minimal_homogeneous_check,
    validate_pair,
)
from transdolbeault.lie import LieAlgebra
from transdolbeault.linalg import (
    Subspace,
    add_vectors,
    as_matrix,
    as_vector,
    basis_vector,
    mat_vec,
    scale_vector,
    subspace_sum,
)
from transdolbeault.scalars import GaussianRational

G = GaussianRational.of


def su2_pair():
    return catalog_get("su2_mod_u1")


def _pair(entry):
    return HomogeneousPair(entry.algebra, entry.h, entry.acs)


def test_validate_su2_pair(su2):
    assert validate_pair(_pair(su2)).valid


def test_validate_rejects_j_not_preserving_h(su2):
    L = su2.algebra
    h = Subspace.from_rows(3, [basis_vector(3, 0)])  # span{e1} is a subalgebra
    j = as_matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])  # J e1 = e2 escapes h
    pair = HomogeneousPair(L, h, AlmostComplexStructure(j, mod_h=h))
    report = validate_pair(pair)
    assert not report.valid
    assert any("preserve" in desc for desc, _ in report.violations)


def test_validate_lie_group_case(kt):
    pair = HomogeneousPair.lie_group(kt.algebra, AlmostComplexStructure(kt.acs.J, mod_h=Subspace.zero(4)))
    assert validate_pair(pair).valid


def test_invariance_su2(su2):
    assert invariance_check(_pair(su2))["invariant"]


def test_invariance_vacuous_without_h(kt):
    pair = HomogeneousPair.lie_group(kt.algebra, AlmostComplexStructure(kt.acs.J, mod_h=Subspace.zero(4)))
    assert invariance_check(pair)["invariant"]


def test_base_nijenhuis_su2_sphere(su2):
    pair = _pair(su2)
    out = base_nijenhuis(pair, basis_vector(3, 0), basis_vector(3, 1))
    assert not any(out)


def test_base_nijenhuis_abelian():
    L = LieAlgebra.abelian(4)
    acs = AlmostComplexStructure(random_acs(L, 3).J, mod_h=Subspace.zero(4))
    pair = HomogeneousPair.lie_group(L, acs)
    rng = random.Random(1)
    for _ in range(4):
        a = as_vector([rng.randint(-3, 3) for _ in range(4)])
        b = as_vector([rng.randint(-3, 3) for _ in range(4)])
        assert not any(base_nijenhuis(pair, a, b))


def test_base_nijenhuis_reduces_to_strict_case(kt):
    L = kt.algebra
    pair = HomogeneousPair.lie_group(L, AlmostComplexStructure(kt.acs.J, mod_h=Subspace.zero(4)))
    e = [basis_vector(4, i) for i in range(4)]
    assert base_nijenhuis(pair, e[0], e[1]) == scale_vector(-1, e[2])
    assert base_nijenhuis(pair, e[0], e[1]) == nijenhuis(L, kt.acs, e[0], e[1])


def test_base_nijenhuis_well_defined_mod_h(su2):
    pair = _pair(su2)
    rng = random.Random(5)
    for _ in range(8):
        a = as_vector([rng.randint(-3, 3) for _ in range(3)])
        b = as_vector([rng.randint(-3, 3) for _ in range(3)])
        base = base_nijenhuis(pair, a, b)
        h1 = scale_vector(rng.randint(-2, 2), pair.h.basis[0])
        h2 = scale_vector(rng.randint(-2, 2), pair.h.basis[0])
        assert base_nijenhuis(pair, add_vectors(a, h1), add_vectors(b, h2)) == base


def test_base_nijenhuis_matches_oracle_mod_h(su2):
    """The J^2 oracle agrees mod h, where J^2 = -Id holds only mod h (su2) or exactly (h = 0)."""
    pairs = [_pair(su2)]
    for algebra, acs, _ in instance_pool(14, start_seed=500):
        pairs.append(HomogeneousPair.lie_group(
            algebra, AlmostComplexStructure(acs.J, mod_h=Subspace.zero(algebra.dim))
        ))
    rng = random.Random(8)
    for pair in pairs:
        n = pair.algebra.dim
        vecs = [(basis_vector(n, i), basis_vector(n, j)) for i in range(n) for j in range(i + 1, n)]
        vecs += [
            (as_vector([rng.randint(-3, 3) for _ in range(n)]), as_vector([rng.randint(-3, 3) for _ in range(n)]))
            for _ in range(3)
        ]
        for a, b in vecs:
            expected = pair.h.reduce(oracle_nijenhuis(pair.algebra, pair.acs.J, a, b))
            assert base_nijenhuis(pair, a, b) == expected


def test_nijenhuis_j_twist_mod_h(su2, kt):
    """N^J(Ja, b) = -J N^J(a, b) mod h on invariant pairs."""
    cases = [_pair(su2),
             HomogeneousPair.lie_group(kt.algebra, AlmostComplexStructure(kt.acs.J, mod_h=Subspace.zero(4)))]
    rng = random.Random(6)
    for pair in cases:
        n = pair.algebra.dim
        for _ in range(8):
            a = as_vector([rng.randint(-3, 3) for _ in range(n)])
            b = as_vector([rng.randint(-3, 3) for _ in range(n)])
            lhs = base_nijenhuis(pair, mat_vec(pair.acs.J, a), b)
            rhs = pair.h.reduce(scale_vector(-1, mat_vec(pair.acs.J, base_nijenhuis(pair, a, b))))
            assert lhs == rhs


def test_minimal_check_kt_agrees_with_flag(kt):
    pair = HomogeneousPair.lie_group(kt.algebra, AlmostComplexStructure(kt.acs.J, mod_h=Subspace.zero(4)))
    result = minimal_homogeneous_check(pair)
    assert result["holds"]
    assert result["via_ideal_shortcut"]  # Im N^J = span{e1,e3} is an ideal in KT
    assert t10_derived_involutive(kt.algebra, kt.acs, 1).involutive


def test_minimal_check_integrable_trivial(su2):
    assert minimal_homogeneous_check(_pair(su2))["holds"]


def test_minimal_check_agrees_with_t10_randomized():
    agree = 0
    for algebra, acs, _ in instance_pool(20, start_seed=1200):
        pair = HomogeneousPair.lie_group(
            algebra, AlmostComplexStructure(acs.J, mod_h=Subspace.zero(algebra.dim))
        )
        holds = minimal_homogeneous_check(pair)["holds"]
        t10 = t10_derived_involutive(algebra, acs, 1).involutive
        assert holds == t10
        agree += 1
    assert agree == 20


def test_fibration_kt(kt):
    pair = HomogeneousPair.lie_group(kt.algebra, AlmostComplexStructure(kt.acs.J, mod_h=Subspace.zero(4)))
    rep = fibration_report(pair)
    assert rep["applicable"]
    assert rep["dim_im_N"] == 2
    assert rep["is_subalgebra"] and rep["fibers_complex"] and rep["via_dim2_shortcut"]
    assert rep["transverse_complex_structure"]


def test_fibration_integrable_vacuous(su2):
    rep = fibration_report(_pair(su2))
    assert rep["applicable"]
    assert rep["dim_im_N"] == 0


def test_fibration_noncomplex_fibers_witness(iwasawa):
    """Frozen from a seeded search: dim Im N^J = 4 with N^J nonvanishing on it."""
    L = iwasawa.algebra
    acs = random_acs(L, 0)
    pair = HomogeneousPair.lie_group(L, AlmostComplexStructure(acs.J, mod_h=Subspace.zero(6)))
    rep = fibration_report(pair)
    assert rep["applicable"]
    assert rep["dim_im_N"] == 4
    assert not rep["fibers_complex"]
    assert not rep["via_dim2_shortcut"]


@pytest.mark.parametrize("operation", [
    invariance_check,
    minimal_homogeneous_check,
    fibration_report,
    lambda pair: base_nijenhuis(pair, basis_vector(3, 0), basis_vector(3, 1)),
], ids=["invariance_check", "minimal_homogeneous_check", "fibration_report", "base_nijenhuis"])
def test_operations_require_valid_pair(su2, operation):
    L = su2.algebra
    h = Subspace.from_rows(3, [basis_vector(3, 0)])
    j = as_matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    pair = HomogeneousPair(L, h, AlmostComplexStructure(j, mod_h=h))
    assert validate_pair(pair).violations == pair.violations != ()
    with pytest.raises(PreconditionError, match="invalid homogeneous pair: J does not preserve h"):
        operation(pair)


def test_checks_match_definition_oracles(su2, kt):
    """Invariance, the minimality criterion and the fibration fields agree with
    their definitions (basis vectors and basis triples) on su2, Lie-group pool
    instances, mod-h pairs with h = span(e_last) and S^2 x S^2 pairs. Among
    them the criterion fails at least 8 times, invariance fails and the
    criterion holds without the ideal shortcut at least 10 times each."""
    pairs = [_pair(su2)]
    pairs += [HomogeneousPair.lie_group(algebra, acs) for algebra, acs, _ in instance_pool(14, start_seed=700)]
    triples = mod_h_pairs(4, dims=(3, 5)) + mod_h_pairs(2, dims=(7,)) + sphere_product_pairs()
    # direct sums: the criterion holding on a summand with Im N^J ≠ 0 only
    # because of h (against su2, whose Im N^J + h = h is not an ideal), and
    # failing only at a later basis vector of Im N^J (KT's image comes first)
    su2_triple = (su2.algebra, su2.acs, su2.h)
    triples += [direct_sum(triple, su2_triple) for triple in mod_h_pairs(2, dims=(3, 5))]
    r2r2 = LieAlgebra.from_brackets(4, {(0, 1): {1: 1}, (2, 3): {3: 1}})
    triples += [
        direct_sum((kt.algebra, kt.acs, Subspace.zero(4)), (r2r2, random_acs(r2r2, seed), Subspace.zero(4)))
        for seed in range(3)
    ]
    pairs += [HomogeneousPair(algebra, h, acs) for algebra, acs, h in triples]
    seen = Counter()
    for pair in pairs:
        algebra, J, h_rows = pair.algebra, pair.acs.J, pair.h.basis
        assert pair.violations == ()
        invariant = invariance_check(pair)["invariant"]
        assert invariant == oracle_invariant(algebra, J, h_rows)
        holds, is_ideal = oracle_minimal_criterion(algebra, J, h_rows)
        check = minimal_homogeneous_check(pair)
        assert (check["holds"], check["via_ideal_shortcut"]) == (holds, is_ideal)
        if not holds:
            image = nijenhuis_image(algebra, pair.acs)
            assert image.contains(check["witness"]["u"])
            assert not subspace_sum(image, pair.h).contains(check["witness"]["value"])
        fib = fibration_report(pair)
        assert {k: v for k, v in fib.items() if k != "witness"} == oracle_fibration(algebra, J, h_rows)
        seen[(invariant, holds, is_ideal)] += 1
    assert sum(n for (_, holds, _), n in seen.items() if not holds) >= 8
    assert sum(n for (invariant, _, _), n in seen.items() if not invariant) >= 10
    assert sum(n for (_, holds, ideal), n in seen.items() if holds and not ideal) >= 10


@pytest.mark.parametrize("kw", [
    {"catalog": "iwasawa", "seed": 1},
    {"catalog": "su2_mod_u1"},
    {"catalog": "kodaira_thurston", "seed": 1},
], ids=["iwasawa-1", "su2", "kt-1"])
def test_homogeneous_command_checks_the_pair_once(monkeypatch, kw):
    """One `homogeneous` command validates its pair once and builds the
    subalgebra report of Im N^J + h once, shared by the checks that read it."""
    import transdolbeault.homogeneous as hom

    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(hom, "_pair_violations", counted("validate", hom._pair_violations))
    monkeypatch.setattr(hom, "subalgebra_report", counted("subalgebra", hom.subalgebra_report))
    status, _ = execute(RunConfig("homogeneous", fmt="json", **kw))
    assert status == 0
    assert calls["validate"] == 1
    assert calls["subalgebra"] == 1
