import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instance_pool, operator_from_blocks
from oracles import mat_vec as oracle_mat_vec, oracle_d2_failures, oracle_d_real
from transdolbeault.catalog import random_acs
from transdolbeault.errors import ShapeError
from transdolbeault.forms import (
    BigradedForm,
    SHIFTS,
    bigrade,
    bigraded_frame,
    ce_d,
    component_operators,
    contract,
    lie_form,
    realize,
    verify_d2_relations,
)
from transdolbeault.lie import LieAlgebra
from transdolbeault.linalg import as_vector, basis_vector, mat_vec
from transdolbeault.scalars import GaussianRational, I, ONE, ZERO

G = GaussianRational.of
HALF = ONE / 2


def rand_real_form(rng, n, degree, count=3):
    out = {}
    for _ in range(count):
        key = tuple(sorted(rng.sample(range(n), degree)))
        out[key] = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
    return out


def rand_bigraded(rng, algebra, acs, degree):
    return bigrade(algebra, acs, rand_real_form(rng, algebra.dim, degree))


# -- differential ---------------------------------------------------------------

def test_d_zero_on_abelian():
    L = LieAlgebra.abelian(6)
    acs = random_acs(L, 8)
    rng = random.Random(1)
    for degree in (1, 2, 3):
        w = rand_bigraded(rng, L, acs, degree)
        assert ce_d(L, w).is_zero()


def test_kt_generator_differentials(kt):
    L, acs = kt.algebra, kt.acs
    d_e3 = ce_d(L, bigrade(L, acs, {(2,): 1}))
    assert realize(d_e3) == {(0, 1): G(-1)}
    for idx in (0, 1, 3):
        assert ce_d(L, bigrade(L, acs, {(idx,): 1})).is_zero()


def test_d_matches_double_sum_oracle(kt, iwasawa, h5r):
    rng = random.Random(13)
    cases = [(kt.algebra, kt.acs, (1, 2, 3)), (iwasawa.algebra, iwasawa.acs, (1, 2)), (h5r.algebra, h5r.acs, (1, 2))]
    for algebra, acs, degrees in cases:
        for degree in degrees:
            form = rand_real_form(rng, algebra.dim, degree)
            via_kernel = realize(ce_d(algebra, bigrade(algebra, acs, form)))
            via_oracle = oracle_d_real(algebra, form, degree)
            assert via_kernel == via_oracle


def test_d_squared_zero_on_random_instances():
    rng = random.Random(2)
    for algebra, acs, _ in instance_pool(12, start_seed=700):
        for degree in (1, 2):
            w = rand_bigraded(rng, algebra, acs, degree)
            assert ce_d(algebra, ce_d(algebra, w)).is_zero()


# -- bigrading ---------------------------------------------------------------------

def test_bigrade_pure_types(kt):
    L, acs = kt.algebra, kt.acs
    w10 = bigrade(L, acs, {(0,): 1, (2,): I})
    assert w10.bidegrees() == ((1, 0),)
    w01 = bigrade(L, acs, {(1,): 1, (3,): -I})
    assert w01.bidegrees() == ((0, 1),)


def test_bigrade_real_form_splits(kt):
    L, acs = kt.algebra, kt.acs
    w = bigrade(L, acs, {(0,): 1})
    assert set(w.bidegrees()) == {(1, 0), (0, 1)}
    ten = BigradedForm.from_components(w.frame, {(1, 0): w.component(1, 0)})
    assert realize(ten) == {(0,): HALF, (2,): I * HALF}
    assert realize(w) == {(0,): G(1)}


def test_bigrade_roundtrip_randomized(strict_entries):
    rng = random.Random(3)
    for entry in strict_entries[:6]:
        n = entry.algebra.dim
        for degree in (1, 2):
            form = rand_real_form(rng, n, degree)
            w = bigrade(entry.algebra, entry.acs, form)
            assert realize(w) == {k: v for k, v in form.items() if v}


def test_bigrade_component_characterization(kt):
    """A (p,q) component vanishes unless p args come from T10 and q from T01."""
    L, acs = kt.algebra, kt.acs
    frame = bigraded_frame(L, acs)
    w = bigrade(L, acs, {(0, 1): 2, (2, 3): -1})
    flat = w.flat()
    for mono, coeff in flat.items():
        p, q = frame.bidegree_of(mono)
        assert sum(1 for g in mono if g < frame.m) == p
        assert coeff


def test_bigrade_rejects_out_of_range(kt):
    with pytest.raises(ShapeError):
        bigrade(kt.algebra, kt.acs, {(9,): 1})


# -- component operators ----------------------------------------------------------

def test_operators_abelian_zero():
    L = LieAlgebra.abelian(4)
    ops = component_operators(L, random_acs(L, 5))
    for op in ops.values():
        for _, block in op.blocks:
            assert all(not any(row) for row in block)


def test_operators_integrable_mu_vanishes(kt_integrable, iwasawa):
    for entry in (kt_integrable, iwasawa):
        ops = component_operators(entry.algebra, entry.acs)
        for name in ("mu", "mu_bar"):
            for _, block in ops[name].blocks:
                assert all(not any(row) for row in block)


def test_mu_bar_nonzero_on_kt(kt):
    L, acs = kt.algebra, kt.acs
    ops = component_operators(L, acs)
    phi = bigrade(L, acs, {(0,): 1, (2,): I})
    image = ops["mu_bar"].apply(phi)
    assert not image.is_zero()
    assert image.bidegrees() == ((0, 2),)
    assert realize(ce_d(L, phi)) == {(0, 1): -I}


def test_operator_reassembly(strict_entries):
    rng = random.Random(7)
    for entry in strict_entries:
        ops = component_operators(entry.algebra, entry.acs)
        for degree in (1, 2):
            w = rand_bigraded(rng, entry.algebra, entry.acs, degree)
            total = None
            for op in ops.values():
                piece = op.apply(w)
                total = piece if total is None else total + piece
            assert total == ce_d(entry.algebra, w)


def test_conjugation_symmetry(strict_entries):
    rng = random.Random(8)
    for entry in strict_entries[:6]:
        ops = component_operators(entry.algebra, entry.acs)
        for degree in (1, 2):
            w = rand_bigraded(rng, entry.algebra, entry.acs, degree)
            assert ce_d(entry.algebra, w.conjugate()) == ce_d(entry.algebra, w).conjugate()
            assert ops["mu"].apply(w.conjugate()) == ops["mu_bar"].apply(w).conjugate()


def test_operator_columns_round_trip(strict_entries, d2_instances):
    """Each operator equals the one rebuilt from its own dense blocks, and
    apply equals the dense product block(p, q)·v of the oracles' mat_vec."""
    rng = random.Random(11)
    cases = [(entry.algebra, entry.acs) for entry in strict_entries]
    cases += [(algebra, acs) for algebra, acs, _ in instance_pool(21)]
    cases.append(d2_instances[2])  # filiform-8 under random_acs(seed=0)
    for algebra, acs in cases:
        frame = bigraded_frame(algebra, acs)
        for op in component_operators(algebra, acs).values():
            assert operator_from_blocks(op, op.blocks) == op
            w = BigradedForm.from_components(frame, {
                bid: [GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                       Fraction(rng.choice((0, 0, 1, -2)), rng.randint(1, 4)))
                      for _ in range(frame.dim(*bid))]
                for bid in frame.bidegrees()
            })
            image = op.apply(w)
            for (p, q), mat in op.blocks:
                assert image.component(*op.target(p, q)) == oracle_mat_vec(mat, w.component(p, q))


def _blocks_by_name(ops):
    return {name: dict(op.blocks) for name, op in ops.items()}


def test_d2_relations_catalog(strict_entries):
    """No failure on the catalog or on instance_pool, by the check and by the dense oracle."""
    cases = [(entry.algebra, entry.acs) for entry in strict_entries]
    cases += [(algebra, acs) for algebra, acs, _ in instance_pool(21)]
    for algebra, acs in cases:
        assert verify_d2_relations(algebra, acs).failures == ()
        assert oracle_d2_failures(_blocks_by_name(component_operators(algebra, acs))) == ()


# -- contraction and Lie derivative --------------------------------------------------

def test_d2_relations_report_a_corrupted_block(kt, monkeypatch):
    """One wrong entry of del_bar on 0-forms, at the (0,1) generator i, adds
    column i of c's (0,1) block to the one relation with a term (c, del_bar);
    no other relation or bidegree sees the corrupted block."""
    import transdolbeault.forms as forms_mod
    from transdolbeault.forms import _D2_RELATIONS

    ops = component_operators(kt.algebra, kt.acs)
    frame = bigraded_frame(kt.algebra, kt.acs)

    def column_nonzero(name, j):
        return any(row[j] for row in ops[name].block(0, 1))

    i = next(j for j in range(frame.dim(0, 1)) if any(column_nonzero(c, j) for c in SHIFTS))
    del_bar = ops["del_bar"]
    bad = [list(row) for row in del_bar.block(0, 0)]
    bad[i][0] = bad[i][0] + ONE
    blocks = tuple(
        (bid, tuple(map(tuple, bad)) if bid == (0, 0) else mat) for bid, mat in del_bar.blocks
    )
    corrupted = dict(ops, del_bar=operator_from_blocks(del_bar, blocks))
    monkeypatch.setattr(forms_mod, "component_operators", lambda algebra, acs: corrupted)
    expected = tuple(
        (name, (0, 0))
        for name, terms in _D2_RELATIONS
        if any(inner == "del_bar" and column_nonzero(outer, i) for outer, inner in terms)
    )
    assert expected
    assert verify_d2_relations(kt.algebra, kt.acs).failures == expected


@pytest.fixture(scope="module")
def d2_instances(kt, iwasawa):
    """kodaira_thurston and iwasawa (small denominators) and filiform-8 under
    random_acs(seed=0), whose block denominators have an lcm of about 20 bits."""
    filiform8 = LieAlgebra.from_brackets(8, {(0, i): {i + 1: 1} for i in range(1, 7)})
    return [(kt.algebra, kt.acs), (iwasawa.algebra, iwasawa.acs), (filiform8, random_acs(filiform8, 0))]


_corruption_values = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda a, b, c, d: GaussianRational(Fraction(a, b), Fraction(c, d)),
        st.integers(-9, 9), st.integers(1, 97), st.integers(-9, 9), st.integers(1, 97),
    ),
)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_d2_relations_match_dense_oracle_on_corrupted_operators(d2_instances, data):
    """1-3 entries of real operators replaced by Gaussian rationals with new
    denominators (so the common denominator changes) or by zero: the failures
    equal those of a dense Q(i) product, in the same order."""
    import transdolbeault.forms as forms_mod

    algebra, acs = data.draw(st.sampled_from(d2_instances))
    ops = component_operators(algebra, acs)
    cells = [
        (name, index)
        for name, op in ops.items()
        for index, (_, mat) in enumerate(op.blocks)
        if mat and mat[0]
    ]
    blocks = {name: [list(map(list, mat)) for _, mat in op.blocks] for name, op in ops.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        name, index = data.draw(st.sampled_from(cells))
        mat = blocks[name][index]
        r = data.draw(st.integers(0, len(mat) - 1))
        c = data.draw(st.integers(0, len(mat[0]) - 1))
        mat[r][c] = data.draw(_corruption_values)
    corrupted = {
        name: operator_from_blocks(op, tuple(
            (bid, tuple(map(tuple, mat))) for (bid, _), mat in zip(op.blocks, blocks[name])
        ))
        for name, op in ops.items()
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms_mod, "component_operators", lambda algebra, acs: corrupted)
        failures = verify_d2_relations(algebra, acs).failures
    assert failures == oracle_d2_failures(_blocks_by_name(corrupted))


def test_contract_examples(kt):
    L, acs = kt.algebra, kt.acs
    w = bigrade(L, acs, {(0, 1): 1})  # e^1 ∧ e^2
    assert realize(contract(basis_vector(4, 0), w)) == {(1,): ONE}
    w13 = bigrade(L, acs, {(0, 2): 1})
    assert contract(basis_vector(4, 1), w13).is_zero()
    # pairing of eigenvector with its dual-type 1-form
    phi = bigrade(L, acs, {(0,): 1, (2,): I})
    v = tuple(HALF * (c - I * d) for c, d in zip(basis_vector(4, 0), mat_vec(acs.J, basis_vector(4, 0))))
    res = contract(v, phi)
    assert res.component(0, 0) == (ONE,)


def test_contract_drops_bidegree(kt):
    L, acs = kt.algebra, kt.acs
    frame = bigraded_frame(L, acs)
    w = bigrade(L, acs, {(0, 1): 1, (2, 3): 1})
    for v10 in frame.splitting.basis_10:
        out = contract(v10, w)
        assert all(bid[1] == 1 and bid[0] == 0 for bid in out.bidegrees()) or out.is_zero()


def test_lie_form_examples(kt):
    L, acs = kt.algebra, kt.acs
    abelian = LieAlgebra.abelian(4)
    aacs = random_acs(abelian, 6)
    rng = random.Random(9)
    w = rand_bigraded(rng, abelian, aacs, 2)
    assert lie_form(abelian, basis_vector(4, 0), w).is_zero()
    e3 = bigrade(L, acs, {(2,): 1})
    assert realize(lie_form(L, basis_vector(4, 0), e3)) == {(1,): G(-1)}
    e2 = bigrade(L, acs, {(1,): 1})
    assert lie_form(L, basis_vector(4, 0), e2).is_zero()


def test_cartan_identity_randomized(strict_entries):
    rng = random.Random(10)
    for entry in strict_entries:
        L, acs = entry.algebra, entry.acs
        n = L.dim
        for degree in (1, 2):
            w = rand_bigraded(rng, L, acs, degree)
            f = as_vector([rng.randint(-2, 2) for _ in range(n)])
            lhs = lie_form(L, f, w)
            rhs = contract(f, ce_d(L, w)) + ce_d(L, contract(f, w))
            assert lhs == rhs


def test_shifts_are_documented_values():
    assert SHIFTS == {"mu": (2, -1), "del": (1, 0), "del_bar": (0, 1), "mu_bar": (-1, 2)}
