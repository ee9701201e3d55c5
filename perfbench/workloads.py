"""Workload definitions, per-op output checks and result digests.

An op is one distinct (g, J): ``report`` and ``homogeneous`` through the
public ``cli.execute`` entry, then ``forms.verify_d2_relations`` on the same
instance. Kernel entry points are looked up on their modules at call time, so
a traced run sees the wrappers that ``tracing`` binds there.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from math import comb

from transdolbeault import catalog, cli, forms
from transdolbeault.acs import AlmostComplexStructure
from transdolbeault.lie import LieAlgebra
from transdolbeault.schema import dumps_canonical, entry_to_dict

# Seeds of op k start at base + k; a run with --seed s uses base = s * SEED_STRIDE.
SEED_STRIDE = 100_000
# Dim-2 structures repeat often under random_acs; a repeat retries seed + RETRY_STRIDE.
RETRY_STRIDE = 1_000_000

# The algebras of tests/conftest.instance_pool, in its order: (catalog name, n).
CENSUS_ALGEBRAS = (
    ("abelian2n", 1),
    ("abelian2n", 2),
    ("kodaira_thurston", None),
    ("abelian2n", 3),
    ("iwasawa", None),
    ("heisenberg5_plus_r", None),
    ("max_nonintegrable_candidate", None),
)


@dataclass(frozen=True)
class Spec:
    """One workload: which algebras its ops cycle and how they reach the CLI."""

    name: str
    algebras: tuple  # ((catalog name, n), ...) or (("filiform", dim),)
    unit: int  # ops per measured unit; a run stops only between units
    min_ops: int  # ops every untraced run makes; peak RSS is read after them
    fixed_ops: int  # ops of a traced run and of the recorded digest
    abelian_m: int | None = None  # every table cell must equal C(m,p)*C(m,q)


SPECS = {
    "census": Spec("census", CENSUS_ALGEBRAS, unit=7, min_ops=28, fixed_ops=7),
    "abelian10": Spec("abelian10", (("abelian2n", 5),), unit=1, min_ops=2, fixed_ops=1,
                      abelian_m=5),
    "filiform8": Spec("filiform8", (("filiform", 8),), unit=1, min_ops=2, fixed_ops=1),
}


def filiform(dim):
    """The filiform algebra [e0, ei] = e(i+1), i = 1..dim-2 (0-based)."""
    return LieAlgebra.from_brackets(dim, {(0, i): {i + 1: 1} for i in range(1, dim - 1)})


@dataclass
class Instance:
    seed: int
    slot: int  # index into Spec.algebras
    algebra: object
    acs: object


@dataclass
class OpResult:
    k: int
    report_s: float = 0.0
    homogeneous_s: float = 0.0
    verify_s: float = 0.0
    digest: str = ""
    problems: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    marks: list = field(default_factory=list)


class Workload:
    """Generated inputs of one workload run, drawn from the run seed only."""

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.base = seed * SEED_STRIDE
        self.algebras = []
        self.input_file = None
        for name, n in spec.algebras:
            if name == "filiform":
                algebra = filiform(n)
                os.makedirs(workdir, exist_ok=True)
                self.input_file = os.path.join(workdir, f"{spec.name}-{os.getpid()}.json")
                doc = entry_to_dict(algebra, AlmostComplexStructure(catalog.standard_j(n)))
                with open(self.input_file, "w", encoding="utf-8") as fh:
                    fh.write(dumps_canonical(doc) + "\n")
            else:
                algebra = catalog.catalog_get(name, n=n).algebra
            self.algebras.append(algebra)
        self._instances = []
        self._seen = set()
        for k in range(spec.unit):
            self.instance(k)

    def close(self):
        if self.input_file is not None and os.path.exists(self.input_file):
            os.remove(self.input_file)

    def instance(self, k):
        """Op k: the first seed base+k, base+k+RETRY_STRIDE, ... giving an unseen (g, J)."""
        while len(self._instances) <= k:
            j = len(self._instances)
            slot = j % len(self.algebras)
            algebra = self.algebras[slot]
            seed = self.base + j
            acs = catalog.random_acs(algebra, seed)
            while (slot, acs.J) in self._seen:
                seed += RETRY_STRIDE
                acs = catalog.random_acs(algebra, seed)
            self._seen.add((slot, acs.J))
            self._instances.append(Instance(seed, slot, algebra, acs))
        return self._instances[k]

    def config(self, inst, command):
        name, n = self.spec.algebras[inst.slot]
        if name == "filiform":
            return cli.RunConfig(command=command, input=self.input_file, seed=inst.seed, fmt="json")
        return cli.RunConfig(command=command, catalog=name, n=n, seed=inst.seed, fmt="json")

    def run_op(self, k, golden=None, gap=None):
        """Run op k, time its three calls and check every output.

        gap(seconds_of_the_call_before) runs after each call, outside the timed
        regions; its return values are kept in OpResult.gaps, and the calls'
        (start, end) clock readings in OpResult.marks.
        """
        inst = self.instance(k)
        res = OpResult(k)
        calls = (
            lambda: cli.execute(self.config(inst, "report")),
            lambda: cli.execute(self.config(inst, "homogeneous")),
            lambda: forms.verify_d2_relations(inst.algebra, inst.acs),
        )
        out = []
        clock = time.perf_counter
        try:
            for call in calls:
                t0 = clock()
                out.append(call())
                t1 = clock()
                res.marks.append((t0, t1))
                if gap:
                    res.gaps.append(gap(t1 - t0))
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            res.problems.append(f"raised {type(exc).__name__}: {exc}")
            return res
        (status, text), (hstatus, htext), d2 = out
        res.report_s, res.homogeneous_s, res.verify_s = (t1 - t0 for t0, t1 in res.marks)
        doc = None
        if status != 0:
            res.problems.append(f"report exit status {status}")
        else:
            doc = json.loads(text)
            res.problems += check_report(doc, self.spec.abelian_m)
            res.digest = digest(doc)
            if golden is not None and k < len(golden) and res.digest != golden[k]:
                res.problems.append(f"digest {res.digest} differs from golden {golden[k]}")
        if hstatus != 0:
            res.problems.append(f"homogeneous exit status {hstatus}")
        elif json.loads(htext).get("pair_valid") is not True:
            res.problems.append("homogeneous: pair_valid is not true")
        if not d2.passed:
            res.problems.append(f"d2 relations failed: {d2.failures}")
        return res


def check_report(doc, abelian_m=None):
    """Problems found in one report document; empty when every check holds."""
    problems = []
    if doc.get("p0_check") != "pass":
        problems.append(f"p0_check is {doc.get('p0_check')!r}")
    tables = doc.get("tables", {})
    mu_bar = tables.get("mu_bar", {})
    cells = {tuple(int(t) for t in key.split(",")): d for key, d in mu_bar.items()}
    m = max((p for p, _ in cells), default=0)
    for (p, q), d in sorted(cells.items()):
        dual = cells.get((m - p, m - q))
        if dual != d:
            problems.append(f"mu_bar duality: H^{p},{q} = {d} but H^{m - p},{m - q} = {dual}")
    if abelian_m is not None:
        for name in ("trans", "mu_bar", "cw"):
            table = tables.get(name, {})
            want = {
                f"{p},{q}": comb(abelian_m, p) * comb(abelian_m, q)
                for p in range(abelian_m + 1)
                for q in range(abelian_m + 1)
            }
            if table != want:
                bad = sorted(k for k in want.keys() | table.keys() if table.get(k) != want.get(k))
                problems.append(f"abelian {name} table differs from C(m,p)C(m,q) at {bad}")
    return problems


def digest(doc):
    """Digest of the mathematical fields only, so added report fields do not move it."""
    core = {key: doc.get(key) for key in ("classification", "flag_dims", "tables")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_digest(op_digests):
    return hashlib.sha256(",".join(op_digests).encode()).hexdigest()[:16]
