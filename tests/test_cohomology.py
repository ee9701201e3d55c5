from math import comb

import pytest

from conftest import instance_pool
from oracles import (
    oracle_cohomology_dims,
    oracle_comparison_rank,
    oracle_hp0_dims,
    oracle_rank,
    oracle_transverse_module,
)
from transdolbeault.catalog import catalog_get, random_acs
from transdolbeault.cohomology import (
    compare_p0,
    comparison_map_rank,
    generalized_dolbeault,
    mu_bar_cohomology,
    transverse_dolbeault,
    transverse_module,
    transverse_structure_report,
)
from transdolbeault.errors import PreconditionError, TheoremViolationError
from transdolbeault.acs import nijenhuis_image
from transdolbeault.flag import derived_flag
from transdolbeault.lie import LieAlgebra, bracket
from transdolbeault.forms import BigradedForm, bigrade, bigraded_frame, component_operators, contract
from transdolbeault.linalg import Subspace, as_vector, basis_vector, kernel
from transdolbeault.scalars import GaussianRational, I, ONE, ZERO

G = GaussianRational.of
HALF = ONE / 2


def _module_form(frame, p, q, coeffs):
    return BigradedForm.from_components(frame, {(p, q): coeffs})


# -- transverse module -------------------------------------------------------------

def test_module_trivial_distribution_is_everything(kt):
    L, acs = kt.algebra, kt.acs
    frame = bigraded_frame(L, acs)
    mod = transverse_module(L, acs, Subspace.zero(4))
    for (p, q), space in mod.spaces:
        assert space.rank == frame.dim(p, q)


def test_module_full_distribution_keeps_constants_only(kt):
    mod = transverse_module(kt.algebra, kt.acs, Subspace.full(4))
    for (p, q), space in mod.spaces:
        assert space.rank == (1 if (p, q) == (0, 0) else 0)


def test_module_kt_dims_and_generators(kt):
    L, acs = kt.algebra, kt.acs
    dist = derived_flag(L, acs).limit
    mod = transverse_module(L, acs, dist)
    dims = {bid: space.rank for bid, space in mod.spaces}
    assert dims == {bid: (1 if bid in ((0, 0), (1, 0), (0, 1), (1, 1)) else 0)
                    for bid in dims}
    # the (1,0) survivor is spanned by e^2 + i e^4
    frame = bigraded_frame(L, acs)
    space = mod.space(1, 0)
    w = bigrade(L, acs, {(1,): 1, (3,): I})
    assert space.contains(w.component(1, 0))


def test_module_preconditions(kt):
    L, acs = kt.algebra, kt.acs
    with pytest.raises(PreconditionError, match="J-stable"):
        transverse_module(L, acs, Subspace.from_rows(4, [basis_vector(4, 0)]))
    # span{e1+e4, e3-e2} is J-stable but not a subalgebra
    bad = Subspace.from_rows(4, [
        as_vector([1, 0, 0, 1]), as_vector([0, -1, 1, 0]),
    ])
    with pytest.raises(PreconditionError, match="involutive"):
        transverse_module(L, acs, bad)


def test_module_basis_constraints_are_linear_in_f(kt):
    """Joint kernel is unchanged when D-basis linear combinations are added."""
    L, acs = kt.algebra, kt.acs
    dist = derived_flag(L, acs).limit
    base = transverse_module(L, acs, dist)
    fatter = Subspace.from_rows(4, dist.basis + (
        tuple(a + b for a, b in zip(dist.basis[0], dist.basis[1])),
    ))
    assert fatter == dist  # canonical form absorbs the redundant generator
    assert transverse_module(L, acs, fatter) == base


def test_module_conjugation_symmetry(strict_entries):
    for entry in strict_entries[:6]:
        L, acs = entry.algebra, entry.acs
        frame = bigraded_frame(L, acs)
        dist = derived_flag(L, acs).limit
        mod = transverse_module(L, acs, dist)
        for (p, q), space in mod.spaces:
            mirror = mod.space(q, p)
            for vec in space.basis:
                w = _module_form(frame, p, q, vec).conjugate()
                assert mirror.contains(w.component(q, p))


def _assert_module_matches_oracle(L, acs, dist):
    module = transverse_module(L, acs, dist)
    oracle = oracle_transverse_module(L, acs, dist.basis)
    assert [bid for bid, _ in module.spaces] == sorted(oracle)
    for bid, space in module.spaces:
        expected = oracle[bid]
        assert space.rank == expected.rank, (bid, space.rank, expected.rank)
        stacked = list(space.basis) + list(expected.basis)
        assert oracle_rank(stacked) == space.rank, bid


def test_module_matches_joint_kernel_oracle(strict_entries):
    """Basic forms (Λ(Ann D), then ι_U dω = 0) span the contraction + Lie joint kernel."""
    for entry in strict_entries:
        L, acs = entry.algebra, entry.acs
        for dist in (derived_flag(L, acs).limit, Subspace.zero(L.dim), Subspace.full(L.dim)):
            _assert_module_matches_oracle(L, acs, dist)


def test_module_matches_joint_kernel_oracle_on_pool():
    """Flag limits, and every involutive span{e_i, J e_i}: most flag limits are
    ideals, where L_U kills Λ(Ann D) anyway; 14 of these planes are not."""
    for L, acs, _seed in instance_pool(21):
        _assert_module_matches_oracle(L, acs, derived_flag(L, acs).limit)
        for i in range(L.dim):
            e = basis_vector(L.dim, i)
            plane = Subspace.from_rows(L.dim, [e, acs.apply(e)])
            if all(plane.contains(bracket(L, u, v)) for u in plane.basis for v in plane.basis):
                _assert_module_matches_oracle(L, acs, plane)


def test_module_mixed_annihilator_row_is_a_theorem_violation(kt, monkeypatch):
    """A J-stable D has a type-pure annihilator; a mixed echelon row is reported, not used."""
    import transdolbeault.cohomology as coh

    L, acs = kt.algebra, kt.acs
    dist = derived_flag(L, acs).limit
    mixed = Subspace.from_rows(4, [as_vector([1, 0, 1, 0])])  # e^0 + e^2: (1,0) + (0,1)
    monkeypatch.setattr(coh, "kernel", lambda m, ncols=None: mixed)
    with pytest.raises(TheoremViolationError, match="mixed-type row"):
        transverse_module.__wrapped__(L, acs, dist)


# -- transverse Dolbeault ------------------------------------------------------------

def test_abelian_torus_tables():
    for n in (1, 2, 3):
        entry = catalog_get("abelian2n", n=n)
        table = transverse_dolbeault(entry.algebra, entry.acs)
        for p in range(n + 1):
            for q in range(n + 1):
                assert table.dim(p, q) == comb(n, p) * comb(n, q)


def test_kt_golden_table(kt):
    table = transverse_dolbeault(kt.algebra, kt.acs)
    expected = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert {bid: d for bid, d in table.dims if d} == expected


def test_max_nonintegrable_table(maxcand):
    table = transverse_dolbeault(maxcand.algebra, maxcand.acs)
    assert {bid: d for bid, d in table.dims if d} == {(0, 0): 1}


def test_transverse_structure_report_on_limits(strict_entries):
    for entry in strict_entries:
        dist = derived_flag(entry.algebra, entry.acs).limit
        assert transverse_structure_report(entry.algebra, entry.acs, dist).ok


def test_transverse_structure_report_witnesses(kt):
    """One subspace per failure kind on KT ([e0,e1] = e2, J e0 = e2, J e1 = e3): exact witness, one False flag."""
    L, acs = kt.algebra, kt.acs
    e = [basis_vector(4, i) for i in range(4)]
    cases = [
        (Subspace.from_rows(4, [e[0]]), "j_stable",
         {"kind": "j_stable", "vector": e[0], "image": e[2]}),
        (Subspace.from_rows(4, [as_vector([1, 0, 0, 1]), as_vector([0, -1, 1, 0])]), "involutive",
         {"kind": "bracket", "u": as_vector([1, 0, 0, 1]), "v": as_vector([0, 1, -1, 0]), "value": e[2]}),
        (Subspace.from_rows(4, [e[1], acs.apply(e[1])]), "lie_images_contained",
         {"kind": "lie_derivative", "u": e[1], "value": e[0]}),
        (Subspace.zero(4), "contains_nijenhuis_image",
         {"kind": "nijenhuis_image", "value": e[0]}),
    ]
    flags = ("j_stable", "involutive", "lie_images_contained", "contains_nijenhuis_image")
    for dist, failing, witness in cases:
        report = transverse_structure_report(L, acs, dist)
        assert report.witness == witness
        assert {f: getattr(report, f) for f in flags} == {f: f != failing for f in flags}
        assert not report.ok


# -- mu_bar cohomology ---------------------------------------------------------------

def test_mu_bar_integrable_degenerates(iwasawa):
    table = mu_bar_cohomology(iwasawa.algebra, iwasawa.acs)
    for p in range(4):
        for q in range(4):
            assert table.dim(p, q) == comb(3, p) * comb(3, q)


def test_mu_bar_abelian_degenerates():
    entry = catalog_get("abelian2n", n=2)
    table = mu_bar_cohomology(entry.algebra, entry.acs)
    for p in range(3):
        for q in range(3):
            assert table.dim(p, q) == comb(2, p) * comb(2, q)


def test_mu_bar_kernel_is_nijenhuis_annihilator_at_10(kt):
    """Ker mu_bar on (1,0) = forms with iota(N)omega = 0 for N in Im N^J."""
    L, acs = kt.algebra, kt.acs
    frame = bigraded_frame(L, acs)
    table = mu_bar_cohomology(L, acs)
    assert table.dim(1, 0) == 1
    ops = component_operators(L, acs)
    ker = kernel(ops["mu_bar"].block(1, 0), ncols=frame.dim(1, 0))
    imn = nijenhuis_image(L, acs)
    constraint = [[ZERO] * frame.dim(1, 0) for _ in imn.basis]
    for j, mono in enumerate(frame.mono_basis(1, 0)):
        form = _module_form(frame, 1, 0, tuple(ONE if t == j else ZERO for t in range(frame.dim(1, 0))))
        for fi, nvec in enumerate(imn.basis):
            constraint[fi][j] = contract(nvec, form).component(0, 0)[0]
    assert kernel(tuple(tuple(r) for r in constraint)) == ker


# -- generalized Dolbeault ------------------------------------------------------------

def test_cw_abelian():
    entry = catalog_get("abelian2n", n=3)
    table = generalized_dolbeault(entry.algebra, entry.acs)
    for p in range(4):
        for q in range(4):
            assert table.dim(p, q) == comb(3, p) * comb(3, q)


def test_cw_iwasawa_hodge_numbers(iwasawa):
    table = generalized_dolbeault(iwasawa.algebra, iwasawa.acs)
    assert table.dim(1, 0) == 3
    assert table.dim(0, 1) == 2
    trans = transverse_dolbeault(iwasawa.algebra, iwasawa.acs)
    assert dict(trans.dims) == dict(table.dims)


def test_cw_kt(kt):
    assert generalized_dolbeault(kt.algebra, kt.acs).dim(1, 0) == 1


# -- coincidence and comparison -------------------------------------------------------

def test_compare_p0_catalog(strict_entries):
    for entry in strict_entries:
        result = compare_p0(entry.algebra, entry.acs)
        assert all(eq for _, _, eq in result.values())


def test_compare_p0_randomized_sample():
    for algebra, acs, _ in instance_pool(10, start_seed=900):
        compare_p0(algebra, acs)


def test_comparison_map_rank_examples(kt):
    L, acs = kt.algebra, kt.acs
    assert comparison_map_rank(L, acs, 0, 0) == 1
    assert comparison_map_rank(L, acs, 1, 0) == 1
    entry = catalog_get("abelian2n", n=2)
    for p in range(3):
        for q in range(3):
            assert comparison_map_rank(entry.algebra, entry.acs, p, q) == comb(2, p) * comb(2, q)


def test_comparison_map_rank_bounded(strict_entries):
    for entry in strict_entries[:6]:
        trans = transverse_dolbeault(entry.algebra, entry.acs)
        cw = generalized_dolbeault(entry.algebra, entry.acs)
        m = entry.algebra.dim // 2
        for p in range(m + 1):
            for q in range(m + 1):
                r = comparison_map_rank(entry.algebra, entry.acs, p, q)
                assert r <= min(trans.dim(p, q), cw.dim(p, q))
                if q == 0:
                    assert r == trans.dim(p, 0)  # coincidence forces isomorphism


# -- hp0 closed-form oracle ------------------------------------------------------------

def test_hp0_closed_form_oracle(kt, kt_integrable, h5r, maxcand):
    entries = [catalog_get("abelian2n", n=2), kt, kt_integrable, h5r, maxcand]
    for entry in entries:
        L, acs = entry.algebra, entry.acs
        limit = derived_flag(L, acs).limit
        expected = oracle_hp0_dims(L, acs, limit)
        table = transverse_dolbeault(L, acs)
        for p, dim in expected.items():
            assert table.dim(p, 0) == dim


def test_trans_constants_survive(strict_entries):
    """(0,0) of the transverse table is always at least 1 (the constants)."""
    for entry in strict_entries:
        assert transverse_dolbeault(entry.algebra, entry.acs).dim(0, 0) >= 1


# -- rank formulas against the quotient-presentation oracle ---------------------------

def _assert_tables_match_quotient_oracle(L, acs):
    blocks = {name: dict(op.blocks) for name, op in component_operators(L, acs).items()}
    module = transverse_module(L, acs, derived_flag(L, acs).limit)
    bases = {bid: space.basis for bid, space in module.spaces}
    expected = oracle_cohomology_dims(blocks, bases)
    assert transverse_dolbeault(L, acs).dims_dict() == expected["trans"]
    assert mu_bar_cohomology(L, acs).dims_dict() == expected["mu_bar"]
    assert generalized_dolbeault(L, acs).dims_dict() == expected["cw"]
    ranks = oracle_comparison_rank(blocks, bases)
    assert {bid: comparison_map_rank(L, acs, *bid) for bid in ranks} == ranks


def test_tables_match_quotient_oracle_catalog(strict_entries):
    """Every table and comparison rank, from ranks, equals the quotient presentation's."""
    for entry in strict_entries:
        L = entry.algebra
        _assert_tables_match_quotient_oracle(L, entry.acs)
        for seed in range(3):
            _assert_tables_match_quotient_oracle(L, random_acs(L, seed))


def test_tables_match_quotient_oracle_on_pool():
    for L, acs, _seed in instance_pool(21):
        _assert_tables_match_quotient_oracle(L, acs)
    filiform8 = LieAlgebra.from_brackets(8, {(0, i): {i + 1: 1} for i in range(1, 7)})
    _assert_tables_match_quotient_oracle(filiform8, random_acs(filiform8, 0))
