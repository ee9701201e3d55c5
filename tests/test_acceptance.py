"""Acceptance suite: one test per criterion, one pass/fail line each.

All tolerances are exact (integer dimensions, exact matrix identities); the
randomized instance set is the deterministic seeded pool shared across
criteria 1, 2, 7 and 8.
"""

import json
import subprocess
import sys
import time
from itertools import combinations
from math import comb

import pytest

from conftest import instance_pool
from oracles import (
    largest_graded_dstable_annihilator,
    module_closure_properties,
    oracle_hp0_dims,
    oracle_transverse_module,
)
from transdolbeault.acs import (
    AlmostComplexStructure,
    lie_derivative_endo,
    nijenhuis,
    nijenhuis_image,
)
from transdolbeault.catalog import catalog_get
from transdolbeault.cohomology import (
    compare_p0,
    generalized_dolbeault,
    transverse_dolbeault,
    transverse_module,
)
from transdolbeault.flag import classify, derived_flag, t10_derived_involutive
from transdolbeault.forms import component_operators, verify_d2_relations
from transdolbeault.homogeneous import (
    HomogeneousPair,
    base_nijenhuis,
    minimal_homogeneous_check,
)
from transdolbeault.lie import bracket
from transdolbeault.linalg import (
    Subspace,
    basis_vector,
    column_space,
    mat_vec,
    scale_vector,
)

_timings = {}


def _timed(key):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()

        def __exit__(self, *exc):
            _timings[key] = _timings.get(key, 0.0) + time.perf_counter() - self.t0

    return _Ctx()


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalog_entries():
    entries = [catalog_get("abelian2n", n=n) for n in (1, 2, 3)]
    for name in ("kodaira_thurston", "kt_integrable", "iwasawa",
                 "heisenberg5_plus_r", "max_nonintegrable_candidate"):
        entries.append(catalog_get(name))
    return entries


@pytest.fixture(scope="module")
def pool100():
    with _timed("pool"):
        return instance_pool(100, start_seed=0)


def test_criterion_01_p0_coincidence(catalog_entries, pool100):
    with _timed("c1"):
        for entry in catalog_entries:
            result = compare_p0(entry.algebra, entry.acs)
            assert all(t == c for t, c, _ in result.values())
        for algebra, acs, seed in pool100:
            result = compare_p0(algebra, acs)
            assert all(t == c for t, c, _ in result.values()), f"seed {seed}"
    _report("1 (p,0)-coincidence", True, "catalog + 100 seeded instances, exact")


def test_criterion_02_d2_relations(catalog_entries, pool100):
    with _timed("c2"):
        for entry in catalog_entries:
            assert verify_d2_relations(entry.algebra, entry.acs).passed
        for algebra, acs, seed in pool100:
            report = verify_d2_relations(algebra, acs)
            assert report.passed, f"seed {seed}: {report.failures}"
    _report("2 d^2 component relations", True, "all seven identities, exact")


def test_criterion_03_kodaira_thurston_golden():
    entry = catalog_get("kodaira_thurston")
    L, acs = entry.algebra, entry.acs
    c = classify(L, acs)
    ok = c.class_name == "MinimallyNonIntegrable" and c.dim_im_N == 2
    limit = derived_flag(L, acs).limit
    ok &= limit == Subspace.from_rows(4, [basis_vector(4, 0), basis_vector(4, 2)])
    table = transverse_dolbeault(L, acs)
    golden = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    ok &= {bid: d for bid, d in table.dims if d} == golden
    # independent confirmation of the frozen golden values in degrees (p,0)
    hp0 = oracle_hp0_dims(L, acs, limit)
    ok &= hp0 == {0: 1, 1: 1, 2: 0}
    _report("3 Kodaira-Thurston golden table", ok)


def test_criterion_04_abelian_torus():
    ok = True
    for n in (1, 2, 3):
        entry = catalog_get("abelian2n", n=n)
        trans = transverse_dolbeault(entry.algebra, entry.acs)
        cw = generalized_dolbeault(entry.algebra, entry.acs)
        for p in range(n + 1):
            for q in range(n + 1):
                want = comb(n, p) * comb(n, q)
                ok &= trans.dim(p, q) == want == cw.dim(p, q)
    _report("4 abelian torus binomial tables", ok, "n = 1, 2, 3")


def test_criterion_05_iwasawa_degeneration():
    entry = catalog_get("iwasawa")
    L, acs = entry.algebra, entry.acs
    ops = component_operators(L, acs)
    ok = all(
        not any(any(row) for row in block)
        for name in ("mu", "mu_bar")
        for _, block in ops[name].blocks
    )
    trans = transverse_dolbeault(L, acs)
    cw = generalized_dolbeault(L, acs)
    ok &= dict(trans.dims) == dict(cw.dims)
    ok &= cw.dim(1, 0) == 3 and cw.dim(0, 1) == 2
    _report("5 Iwasawa integrable degeneration", ok, "mu = mu_bar = 0, h10=3, h01=2")


def test_criterion_06_maximal_nonintegrability():
    entry = catalog_get("max_nonintegrable_candidate")
    L, acs = entry.algebra, entry.acs
    module = transverse_module(L, acs, derived_flag(L, acs).limit)
    ok = all(
        space.rank == (1 if bid == (0, 0) else 0) for bid, space in module.spaces
    )
    table = transverse_dolbeault(L, acs)
    ok &= all(d == 0 for bid, d in table.dims if bid != (0, 0))
    ok &= table.dim(0, 0) == 1
    _report("6 maximal non-integrability", ok, "module and H_trans trivial above (0,0)")


def _flag_invariants_hold(algebra, acs):
    fl = derived_flag(algebra, acs)
    dims = [s.rank for s in fl.stages]
    if not all(a < b for a, b in zip(dims, dims[1:])):
        return False
    if fl.stable_index > algebra.dim:
        return False
    for stage in fl.stages:
        for row in stage.basis:
            if not stage.contains(mat_vec(acs.J, row)):
                return False
    limit = fl.limit
    if not limit.contains_subspace(nijenhuis_image(algebra, acs)):
        return False
    for u, v in combinations(limit.basis, 2):
        if not limit.contains(bracket(algebra, u, v)):
            return False
    for u in limit.basis:
        if not limit.contains_subspace(column_space(lie_derivative_endo(algebra, acs, u))):
            return False
    return t10_derived_involutive(algebra, acs, fl.stable_index).involutive


def test_criterion_07_flag_invariants(catalog_entries, pool100):
    with _timed("c7"):
        ok = True
        for entry in catalog_entries:
            ok &= _flag_invariants_hold(entry.algebra, entry.acs)
        for algebra, acs, _ in pool100:
            ok &= _flag_invariants_hold(algebra, acs)
    _report("7 derived-flag invariants", ok, "monotone, J-stable, involutive limit")


def test_criterion_08_homogeneous_consistency():
    with _timed("c8"):
        su2 = catalog_get("su2_mod_u1")
        pair = HomogeneousPair(su2.algebra, su2.h, su2.acs)
        ok = True
        for i, j in combinations(range(3), 2):
            ok &= not any(base_nijenhuis(pair, basis_vector(3, i), basis_vector(3, j)))
        # h = 0: the minimality criterion coincides with t10_derived_involutive(1)
        for algebra, acs, _ in instance_pool(50, start_seed=5000):
            lg = HomogeneousPair.lie_group(
                algebra, AlmostComplexStructure(acs.J, mod_h=Subspace.zero(algebra.dim))
            )
            holds = minimal_homogeneous_check(lg)["holds"]
            ok &= holds == t10_derived_involutive(algebra, acs, 1).involutive
            # N^J(Ja,b) = -J N^J(a,b) mod h, and agreement with the strict kernel
            n = algebra.dim
            for a, b in ((0, 1), (1, n - 1)):
                ea, eb = basis_vector(n, a), basis_vector(n, b)
                lhs = base_nijenhuis(lg, mat_vec(acs.J, ea), eb)
                rhs = scale_vector(-1, mat_vec(acs.J, base_nijenhuis(lg, ea, eb)))
                ok &= lhs == lg.h.reduce(rhs)
                ok &= base_nijenhuis(lg, ea, eb) == nijenhuis(algebra, acs, ea, eb)
    _report("8 homogeneous consistency", ok, "sphere + 50 Lie-group instances")


def test_criterion_09_smallest_submodule(catalog_entries):
    ok = True
    detail = []
    for entry in catalog_entries:
        L, acs = entry.algebra, entry.acs
        dist = derived_flag(L, acs).limit
        module = transverse_module(L, acs, dist)
        props = module_closure_properties(L, acs, module)
        ok &= all(props)
        # maximality: the module IS the largest graded d-stable annihilating space
        fixed = largest_graded_dstable_annihilator(L, acs)
        spaces = dict(module.spaces)
        ok &= all(fixed[bid] == spaces[bid] for bid in fixed)
        # generator-deletion trials on the distribution basis: each deletion
        # either leaves the joint kernel unchanged (J-stability pairs the
        # constraints) or enlarges it, and an enlarged candidate must lose a
        # closure property (it would otherwise contradict maximality)
        for drop in range(dist.rank):
            rows = tuple(r for i, r in enumerate(dist.basis) if i != drop)
            candidate = oracle_transverse_module(L, acs, rows)
            grew = any(
                candidate[bid].rank > spaces[bid].rank for bid in candidate
            )
            if not grew:
                ok &= all(candidate[bid] == spaces[bid] for bid in candidate)
                continue
            cprops = module_closure_properties(L, acs, tuple(candidate.items()))
            ok &= not (cprops[0] and cprops[1])
            detail.append(f"{entry.name}: deletion {drop} broke a closure property")
    _report("9 smallest-submodule characterization", ok)


def test_criterion_10_determinism_and_budget():
    cmd = [sys.executable, "-m", "transdolbeault.cli", "report",
           "--catalog", "kodaira_thurston", "--format", "json", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    ok = bool(first.stdout) and first.stdout == second.stdout
    doc = json.loads(first.stdout)
    ok &= doc["p0_check"] == "pass"
    randomized = sum(v for k, v in _timings.items() if k in ("pool", "c1", "c2", "c7", "c8"))
    ok &= randomized < 60.0
    _report(
        "10 determinism and time budget", bool(ok),
        f"bit-identical reports; randomized suite {randomized:.1f}s < 60s",
    )
