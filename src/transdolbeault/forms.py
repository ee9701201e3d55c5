"""The invariant bigraded exterior algebra and its differential.

Complex k-forms are expanded in wedge monomials of the dual eigenbasis: the
first m generators are (1,0) covectors, the last m their conjugates, and a
monomial is a strictly increasing tuple of generator indices (so all (1,0)
factors come first). The invariant differential is determined by its values
on generators, dψ(X,Y) = -ψ([X,Y]), and extends as a degree-+1 derivation.

d splits into the four bidegree components mu_bar, del_bar, del, mu with
shifts (-1,2), (0,1), (1,0), (2,-1); anything landing elsewhere is a bug and
raises TheoremViolationError. Each component is stored once, as sparse
columns: for every source monomial, the ((target index, value), ...)
nonzeros of its image, in index order. Every consumer reads these columns;
dense matrices (BigradedOperator.block, .blocks) are views built on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import lcm

from .acs import split_10_01
from .errors import ShapeError, TheoremViolationError
from .lie import bracket
from .linalg import combine_rows, dot
from .scalars import GaussianRational, ONE, ZERO

__all__ = [
    "BigradedFrame",
    "BigradedForm",
    "BigradedOperator",
    "D2Report",
    "bigraded_frame",
    "ce_d",
    "bigrade",
    "realize",
    "wedge_one_form",
    "component_operators",
    "verify_d2_relations",
    "contract",
    "lie_form",
    "SHIFTS",
]

# bidegree shifts of the four components of d
SHIFTS = {"mu": (2, -1), "del": (1, 0), "del_bar": (0, 1), "mu_bar": (-1, 2)}


def _sort_with_sign(seq):
    """(sign, sorted tuple) of a wedge index sequence; sign 0 on repeats."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return 0, None
    return sign, tuple(items)


def wedge_one_form(flat, coeffs):
    """flat ∧ (Σ_a coeffs[a] e^a) for a flat {monomial: coeff} form.

    Terms are accumulated in (monomial, a) order, which fixes the key order
    of the result; zero sums are kept.
    """
    out = {}
    for mono, mc in flat.items():
        for a, w in enumerate(coeffs):
            if w:
                sgn, tgt = _sort_with_sign(mono + (a,))
                if sgn:
                    val = mc * w * sgn
                    acc = out.get(tgt)
                    out[tgt] = val if acc is None else acc + val
    return out


class BigradedFrame:
    """Shared wedge-basis data for one (algebra, acs) pair."""

    def __init__(self, algebra, acs):
        self.algebra = algebra
        self.acs = acs
        self.n = algebra.dim
        self.m = self.n // 2
        split = split_10_01(algebra, acs)
        self.splitting = split
        self.vectors = split.basis_10 + split.basis_01
        self.covectors = split.dual_10 + split.dual_01
        gen_count = 2 * self.m
        d_gen = [dict() for _ in range(gen_count)]
        for b, c in combinations(range(gen_count), 2):
            br = bracket(algebra, self.vectors[b], self.vectors[c])
            if not any(br):
                continue
            for a in range(gen_count):
                coeff = dot(self.covectors[a], br)
                if coeff:
                    d_gen[a][(b, c)] = -coeff
        self.d_gen = tuple(d_gen)
        self._monos = {}
        self._mono_index = {}

    # -- monomial bookkeeping -------------------------------------------------

    def mono_basis(self, p, q):
        if not (0 <= p <= self.m and 0 <= q <= self.m):
            return ()
        key = (p, q)
        if key not in self._monos:
            monos = []
            for s in combinations(range(self.m), p):
                for t in combinations(range(self.m), q):
                    monos.append(s + tuple(g + self.m for g in t))
            self._monos[key] = tuple(monos)
            self._mono_index[key] = {mono: i for i, mono in enumerate(monos)}
        return self._monos[key]

    def mono_index(self, p, q):
        self.mono_basis(p, q)
        return self._mono_index.get((p, q), {})

    def dim(self, p, q):
        return len(self.mono_basis(p, q))

    def bidegree_of(self, mono):
        p = sum(1 for g in mono if g < self.m)
        return (p, len(mono) - p)

    def bidegrees(self):
        return [(p, q) for p in range(self.m + 1) for q in range(self.m + 1)]

    # -- coordinates ------------------------------------------------------------

    def w_coords(self, x):
        """Coefficients of x in the eigenbasis (dual pairing; no solving)."""
        if len(x) != self.n:
            raise ShapeError(f"vector must have length {self.n}")
        return tuple(dot(cov, x) for cov in self.covectors)

    # -- differential -------------------------------------------------------------

    def d_flat(self, flat):
        out = {}
        d_gen = self.d_gen
        for mono, c in flat.items():
            unit = c == ONE
            for pos, g in enumerate(mono):
                dg = d_gen[g]
                if not dg:
                    continue
                head, tail = mono[:pos], mono[pos + 1:]
                pos_sign = -1 if pos % 2 else 1
                for (b, cc), dcoef in dg.items():
                    sgn, tgt = _sort_with_sign(head + (b, cc) + tail)
                    if sgn:
                        val = dcoef if unit else c * dcoef
                        if sgn != pos_sign:
                            val = -val
                        acc = out.get(tgt)
                        out[tgt] = val if acc is None else acc + val
        return {k: v for k, v in out.items() if v}

    def contract_flat(self, coords, flat):
        out = {}
        for mono, c in flat.items():
            for pos, g in enumerate(mono):
                cg = coords[g]
                if cg:
                    tgt = mono[:pos] + mono[pos + 1:]
                    val = c * cg * (-1 if pos % 2 else 1)
                    acc = out.get(tgt)
                    out[tgt] = val if acc is None else acc + val
        return {k: v for k, v in out.items() if v}

    def lie_coefficients(self, f):
        """lie_coefficients(f)[a][b]: coefficient of generator b in L_f(gen a)."""
        if len(f) != self.n:
            raise ShapeError(f"vector must have length {self.n}")
        brs = [bracket(self.algebra, f, w) for w in self.vectors]
        return tuple(
            tuple(-dot(cov, br) for br in brs) for cov in self.covectors
        )

    def lie_flat(self, coeffs, flat):
        out = {}
        gen_count = 2 * self.m
        for mono, c in flat.items():
            for pos, g in enumerate(mono):
                row = coeffs[g]
                head, tail = mono[:pos], mono[pos + 1:]
                for b in range(gen_count):
                    lc = row[b]
                    if lc:
                        sgn, tgt = _sort_with_sign(head + (b,) + tail)
                        if sgn:
                            val = c * lc * sgn
                            acc = out.get(tgt)
                            out[tgt] = val if acc is None else acc + val
        return {k: v for k, v in out.items() if v}

    # -- operator blocks ------------------------------------------------------------

    def d_blocks(self, p, q):
        """The four components of d out of bidegree (p,q), as {name: columns}.

        columns[j] holds d of source monomial j in that component as its
        ((target index, value), ...) nonzeros, in index order.
        """
        targets = {
            (p + dp, q + dq): (name, self.mono_index(p + dp, q + dq))
            for name, (dp, dq) in SHIFTS.items()
        }
        cols = {name: [] for name in SHIFTS}
        for mono in self.mono_basis(p, q):
            parts = {name: [] for name in SHIFTS}
            for tgt, c in self.d_flat({mono: ONE}).items():
                bid = self.bidegree_of(tgt)
                if bid not in targets:
                    raise TheoremViolationError(
                        f"d of a ({p},{q})-form landed in bidegree {bid}"
                    )
                name, index = targets[bid]
                parts[name].append((index[tgt], c))
            for name, part in parts.items():
                cols[name].append(tuple(sorted(part)))
        return {name: tuple(c) for name, c in cols.items()}


@lru_cache(maxsize=None)
def bigraded_frame(algebra, acs):
    return BigradedFrame(algebra, acs)


@dataclass(frozen=True)
class BigradedForm:
    """An invariant complex form, stored per bidegree as coefficient vectors."""

    frame: BigradedFrame
    components: tuple  # sorted ((p, q), coefficient tuple), zero components dropped

    @classmethod
    def from_components(cls, frame, mapping):
        comps = []
        for (p, q), coeffs in sorted(mapping.items()):
            coeffs = tuple(GaussianRational.of(c) for c in coeffs)
            if len(coeffs) != frame.dim(p, q):
                raise ShapeError(
                    f"bidegree ({p},{q}) expects {frame.dim(p, q)} coefficients, got {len(coeffs)}"
                )
            if any(coeffs):
                comps.append(((p, q), coeffs))
        return cls(frame, tuple(comps))

    @classmethod
    def from_flat(cls, frame, flat):
        grouped = {}
        for mono, c in flat.items():
            if not c:
                continue
            bid = frame.bidegree_of(mono)
            vec = grouped.setdefault(bid, [ZERO] * frame.dim(*bid))
            vec[frame.mono_index(*bid)[mono]] = c
        return cls.from_components(frame, {k: tuple(v) for k, v in grouped.items()})

    def component(self, p, q):
        for bid, coeffs in self.components:
            if bid == (p, q):
                return coeffs
        return (ZERO,) * self.frame.dim(p, q)

    def flat(self):
        out = {}
        for (p, q), coeffs in self.components:
            for mono, c in zip(self.frame.mono_basis(p, q), coeffs):
                if c:
                    out[mono] = c
        return out

    def bidegrees(self):
        return tuple(bid for bid, _ in self.components)

    def is_zero(self):
        return not self.components

    def __add__(self, other):
        if not isinstance(other, BigradedForm) or other.frame is not self.frame:
            return NotImplemented
        flat = self.flat()
        for mono, c in other.flat().items():
            flat[mono] = flat.get(mono, ZERO) + c
        return BigradedForm.from_flat(self.frame, flat)

    def __sub__(self, other):
        if not isinstance(other, BigradedForm) or other.frame is not self.frame:
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        c = GaussianRational.of(c)
        return BigradedForm.from_flat(
            self.frame, {mono: c * v for mono, v in self.flat().items()}
        )

    def conjugate(self):
        """Entrywise conjugate with dual_10 and dual_01 monomials swapped."""
        m = self.frame.m
        out = {}
        for mono, c in self.flat().items():
            swapped = tuple(g + m if g < m else g - m for g in mono)
            sgn, tgt = _sort_with_sign(swapped)
            out[tgt] = out.get(tgt, ZERO) + c.conjugate() * sgn
        return BigradedForm.from_flat(self.frame, out)


def _check_frame(algebra, form):
    if form.frame.algebra != algebra:
        raise ShapeError("form was built over a different Lie algebra")
    return form.frame


def ce_d(algebra, form):
    """Chevalley–Eilenberg differential of an invariant bigraded form."""
    frame = _check_frame(algebra, form)
    return BigradedForm.from_flat(frame, frame.d_flat(form.flat()))


def bigrade(algebra, acs, real_form):
    """Decompose a k-form given in the real coordinate dual basis into (p,q) parts.

    real_form maps index tuples (i_1, ..., i_k), 0-based, to coefficients;
    the empty tuple keys a 0-form.
    """
    frame = bigraded_frame(algebra, acs)
    flat = {}
    columns = tuple(zip(*frame.vectors))  # columns[i][a]: coordinate i of generator a
    for key, raw in real_form.items():
        c = GaussianRational.of(raw)
        if not c:
            continue
        key = tuple(key)
        if any(not 0 <= i < frame.n for i in key):
            raise ShapeError(f"covector index out of range in {key}")
        sgn, skey = _sort_with_sign(key)
        if not sgn:
            continue
        terms = {(): c * sgn}
        for i in skey:
            terms = wedge_one_form(terms, columns[i])
        for mono, mc in terms.items():
            if mc:
                flat[mono] = flat.get(mono, ZERO) + mc
    return BigradedForm.from_flat(frame, flat)


def realize(form):
    """Inverse of bigrade: expand back into the real coordinate dual basis."""
    frame = form.frame
    out = {}
    for mono, c in form.flat().items():
        terms = {(): c}
        for g in mono:
            terms = wedge_one_form(terms, frame.covectors[g])
        for rmono, mc in terms.items():
            acc = out.get(rmono)
            out[rmono] = mc if acc is None else acc + mc
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class BigradedOperator:
    """One bidegree component of d, stored once as sparse columns.

    ``columns`` holds ((p, q), cols) for every in-range source bidegree, in
    sorted order; cols[j] is the image of source monomial j as its
    ((target index, value), ...) nonzeros, in index order. The dense
    matrices ``block(p, q)`` and ``blocks`` are views built from the columns
    on request.
    """

    frame: BigradedFrame
    shift: tuple
    columns: tuple

    def block_columns(self, p, q):
        """The sparse columns out of (p, q); () outside the bidegree range."""
        for bid, cols in self.columns:
            if bid == (p, q):
                return cols
        return ()

    def block(self, p, q):
        """The dense matrix out of (p, q); None outside the bidegree range."""
        cols = self.block_columns(p, q)
        if not cols:
            return None
        mat = [[ZERO] * len(cols) for _ in range(self.frame.dim(*self.target(p, q)))]
        for j, col in enumerate(cols):
            for i, x in col:
                mat[i][j] = x
        return tuple(tuple(row) for row in mat)

    @property
    def blocks(self):
        """Sorted ((p, q), dense matrix) for every in-range source bidegree."""
        return tuple((bid, self.block(*bid)) for bid, _ in self.columns)

    def target(self, p, q):
        """The bidegree the block out of (p, q) maps into."""
        return (p + self.shift[0], q + self.shift[1])

    def apply(self, form):
        images = {}
        for (p, q), coeffs in form.components:
            cols = self.block_columns(p, q)
            if cols:
                tgt = self.target(p, q)
                images[tgt] = combine_rows(coeffs, cols, self.frame.dim(*tgt))
        return BigradedForm.from_components(self.frame, images)


@lru_cache(maxsize=None)
def component_operators(algebra, acs):
    """The four components of d, each a BigradedOperator of sparse columns.

    Returns {"mu_bar": .., "del_bar": .., "del": .., "mu": ..} ("del" is a
    Python keyword, hence the string-keyed dict).
    """
    frame = bigraded_frame(algebra, acs)
    per_name = {name: [] for name in SHIFTS}
    for p, q in frame.bidegrees():
        for name, cols in frame.d_blocks(p, q).items():
            per_name[name].append(((p, q), cols))
    return {
        name: BigradedOperator(frame, SHIFTS[name], tuple(per_name[name]))
        for name in SHIFTS
    }


_D2_RELATIONS = (
    ("mu_bar mu_bar = 0", (("mu_bar", "mu_bar"),)),
    ("mu_bar del_bar + del_bar mu_bar = 0", (("mu_bar", "del_bar"), ("del_bar", "mu_bar"))),
    (
        "mu_bar del + del mu_bar + del_bar del_bar = 0",
        (("mu_bar", "del"), ("del", "mu_bar"), ("del_bar", "del_bar")),
    ),
    (
        "mu mu_bar + mu_bar mu + del del_bar + del_bar del = 0",
        (("mu", "mu_bar"), ("mu_bar", "mu"), ("del", "del_bar"), ("del_bar", "del")),
    ),
    (
        "mu del_bar + del_bar mu + del del = 0",
        (("mu", "del_bar"), ("del_bar", "mu"), ("del", "del")),
    ),
    ("mu del + del mu = 0", (("mu", "del"), ("del", "mu"))),
    ("mu mu = 0", (("mu", "mu"),)),
)


@dataclass(frozen=True)
class D2Report:
    failures: tuple  # (relation name, source bidegree)

    @property
    def passed(self):
        return not self.failures


def verify_d2_relations(algebra, acs):
    """Check the seven component identities equivalent to d∘d = 0, column by column.

    The check reads the operators' sparse columns and runs in Gaussian
    integers. Each stored entry is a canonical triple (a + b·i)/d, read
    through GaussianRational.triple; let L be the lcm of every stored d.
    Each column is rewritten once as (target index, a·(L//d), b·(L//d))
    ints, so L·A is integral for every block A. A composite B·A then becomes
    (L·B)(L·A) = L²·(B·A), and a relation ΣB_t·A_t vanishes over Q(i)
    exactly when its L²-multiple vanishes in Z[i]. Column j of B·A is
    Σ_k A[k,j]·B[:,k], so no Fraction is formed and each sum runs over the
    stored entries of its two factors only.
    """
    ops = component_operators(algebra, acs)
    frame = bigraded_frame(algebra, acs)
    # cols[(name, p, q)]: the block's columns, rewritten in place below as
    # (index, a·(L//d), b·(L//d)) once L is known; a block with no stored
    # entry is left out, as it adds nothing to any composite
    cols = {
        (name, p, q): [list(col) for col in block]
        for name, op in ops.items() for (p, q), block in op.columns if any(block)
    }
    scale = lcm(*{x.triple[2] for block in cols.values() for col in block for _, x in col})
    for block in cols.values():
        for col in block:
            for k, (i, x) in enumerate(col):
                a, b, d = x.triple
                col[k] = (i, a * (scale // d), b * (scale // d))

    def column_nonzero(pairs, j):
        """Whether column j of Σ outer·inner is nonzero. Every term of one
        relation has the same total shift, so the outer blocks' indices all
        name monomials of one target bidegree."""
        acc_re, acc_im = {}, {}
        for outer, inner in pairs:
            for k, ar, ai in inner[j]:
                for i, br, bi in outer[k]:
                    acc_re[i] = acc_re.get(i, 0) + br * ar - bi * ai
                    acc_im[i] = acc_im.get(i, 0) + br * ai + bi * ar
        return any(acc_re.values()) or any(acc_im.values())

    failures = []
    for name, terms in _D2_RELATIONS:
        for p, q in frame.bidegrees():
            pairs = []
            for outer, inner in terms:
                a = cols.get((inner, p, q))
                b = cols.get((outer, *ops[inner].target(p, q)))
                if a and b:
                    pairs.append((b, a))
            if pairs and any(column_nonzero(pairs, j) for j in range(frame.dim(p, q))):
                failures.append((name, (p, q)))
    return D2Report(tuple(failures))


def contract(x, form):
    """Interior product ι(x)ω for a vector x in the real coordinate basis."""
    frame = form.frame
    coords = frame.w_coords(tuple(GaussianRational.of(c) for c in x))
    return BigradedForm.from_flat(frame, frame.contract_flat(coords, form.flat()))


def lie_form(algebra, f, form):
    """Invariant Lie derivative (L_f ω)(X_1..X_k) = -Σ_i ω(X_1,..,[f,X_i],..,X_k)."""
    frame = _check_frame(algebra, form)
    coeffs = frame.lie_coefficients(tuple(GaussianRational.of(c) for c in f))
    return BigradedForm.from_flat(frame, frame.lie_flat(coeffs, form.flat()))
