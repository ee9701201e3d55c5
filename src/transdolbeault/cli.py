"""Batch command-line frontend.

Commands: validate | classify | flag | cohomology | homogeneous | report.
Input is either --catalog NAME (with --n for abelian2n) or --input FILE in
the documented JSON schema; --seed replaces the entry's J by a seeded random
conjugate of the standard structure. Exit codes: 0 success, 1 validation
failure, 2 theorem violation (an internal bug, never user data), 3 I/O or
schema errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .acs import AlmostComplexStructure, validate_acs
from .catalog import catalog_get, random_acs
from .cohomology import (
    compare_p0,
    generalized_dolbeault,
    mu_bar_cohomology,
    transverse_dolbeault,
)
from .errors import (
    PreconditionError,
    SchemaError,
    ShapeError,
    TheoremViolationError,
    UnknownCatalogEntry,
    ValidationError,
)
from .flag import classify, derived_flag
from .homogeneous import (
    HomogeneousPair,
    fibration_report,
    invariance_check,
    minimal_homogeneous_check,
    validate_pair,
)
from .lie import validate_lie_algebra
from .scalars import rational_to_str
from .schema import dumps_canonical, load_entry_file

__all__ = ["RunConfig", "execute", "main"]

COMMANDS = ("validate", "classify", "flag", "cohomology", "homogeneous", "report")


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    catalog: str | None = None
    theory: str = "both"
    fmt: str = "text"
    seed: int | None = None
    max_degree: int | None = None
    n: int | None = None


def _load(config, validate=True):
    if (config.input is None) == (config.catalog is None):
        raise SchemaError("exactly one of --input or --catalog is required")
    if config.catalog is not None:
        entry = catalog_get(config.catalog, n=config.n)
        algebra, acs, h, j_rows = entry.algebra, entry.acs, entry.h, entry.acs.J
    else:
        parsed = load_entry_file(config.input, validate=validate)
        algebra, acs, h, j_rows = parsed.algebra, parsed.acs, parsed.h, parsed.j_rows
    if config.seed is not None:
        if h is not None:
            raise PreconditionError("--seed replaces J and is not supported with a stabilizer h")
        acs = random_acs(algebra, config.seed)
        j_rows = acs.J
    if h is not None and config.command in ("classify", "flag", "cohomology", "report"):
        raise PreconditionError(
            f"{config.command} expects a strict structure; use the homogeneous command"
        )
    return algebra, acs, h, j_rows


def _filter_dims(table, max_degree):
    dims = dict(table.dims)
    if max_degree is None:
        return dims
    return {pq: d for pq, d in dims.items() if pq[0] + pq[1] <= max_degree}


def _tables_json(tables, max_degree):
    """Each table's dims keyed "p,q", filtered by --max-degree."""
    return {
        name: {f"{p},{q}": d for (p, q), d in _filter_dims(t, max_degree).items()}
        for name, t in tables.items()
    }


def _render_grid(title, dims):
    if not dims:
        return f"{title}: (empty)\n"
    pmax = max(p for p, _ in dims)
    qmax = max(q for _, q in dims)
    lines = [title]
    header = "      " + "".join(f"{'q=' + str(q):>6}" for q in range(qmax + 1))
    lines.append(header)
    for p in range(pmax + 1):
        row = f"{'p=' + str(p):>6}"
        for q in range(qmax + 1):
            cell = dims.get((p, q))
            row += f"{'.' if cell is None else cell:>6}"  # '.' = filtered out
        lines.append(row)
    return "\n".join(lines) + "\n"


def _tables(algebra, acs, theory):
    out = {}
    if theory in ("trans", "both"):
        out["trans"] = transverse_dolbeault(algebra, acs)
    if theory in ("cw", "both"):
        out["mu_bar"] = mu_bar_cohomology(algebra, acs)
        out["cw"] = generalized_dolbeault(algebra, acs)
    return out


_TITLES = {
    "trans": "H_trans (transverse Dolbeault, invariant level)",
    "mu_bar": "H_mu_bar (invariant level)",
    "cw": "H_cw (generalized Dolbeault, invariant level)",
}


def _cmd_validate(config):
    algebra, _, h, j_rows = _load(config, validate=False)
    jacobi = validate_lie_algebra(algebra)
    doc = {
        "algebra_valid": jacobi.valid,
        "jacobi_violations": [
            {"triple": [i + 1, j + 1, k + 1], "defect": [str(c) for c in defect]}
            for (i, j, k), defect in jacobi.violations
        ],
    }
    if h is None:
        report = validate_acs(algebra, j_rows)
        doc["acs_valid"] = report.valid
        doc["acs_failing_columns"] = [c + 1 for c in report.failing_columns]
        valid = jacobi.valid and report.valid
    else:
        pair = HomogeneousPair(algebra, h, AlmostComplexStructure(j_rows, mod_h=h))
        report = validate_pair(pair)
        doc["pair_valid"] = report.valid
        doc["pair_violations"] = [desc for desc, _ in report.violations]
        valid = jacobi.valid and report.valid
    doc["valid"] = valid
    if config.fmt == "json":
        return (0 if valid else 1), dumps_canonical(doc) + "\n"
    lines = [f"lie algebra: {'OK' if jacobi.valid else 'INVALID'}"]
    for item in doc["jacobi_violations"]:
        lines.append(f"  jacobi fails on triple {tuple(item['triple'])}: defect {item['defect']}")
    if h is None:
        lines.append(f"almost complex structure: {'OK' if doc['acs_valid'] else 'INVALID'}")
        if doc["acs_failing_columns"]:
            lines.append(f"  J^2 != -Id on columns {doc['acs_failing_columns']}")
    else:
        lines.append(f"homogeneous pair: {'OK' if doc['pair_valid'] else 'INVALID'}")
        for desc in doc["pair_violations"]:
            lines.append(f"  {desc}")
    return (0 if valid else 1), "\n".join(lines) + "\n"


def _cmd_classify(config):
    algebra, acs, _, _ = _load(config)
    c = classify(algebra, acs)
    if config.fmt == "json":
        return 0, dumps_canonical(c.to_json()) + "\n"
    return 0, f"{c.class_name}, dim Im N = {c.dim_im_N}\n"


def _cmd_flag(config):
    algebra, acs, _, _ = _load(config)
    fl = derived_flag(algebra, acs)
    doc = {
        "flag_dims": [s.rank for s in fl.stages],
        "stable_index": fl.stable_index,
        "limit": [[rational_to_str(c.re) for c in row] for row in fl.limit.basis],
    }
    if config.fmt == "json":
        return 0, dumps_canonical(doc) + "\n"
    lines = [
        "derived flag dims: " + " -> ".join(str(d) for d in doc["flag_dims"]),
        f"stable index: {fl.stable_index}",
        f"limit dimension: {fl.limit.rank}",
    ]
    for row in doc["limit"]:
        lines.append("  limit basis: [" + ", ".join(row) + "]")
    return 0, "\n".join(lines) + "\n"


def _cmd_cohomology(config):
    algebra, acs, _, _ = _load(config)
    tables = _tables(algebra, acs, config.theory)
    if config.fmt == "json":
        doc = {"tables": _tables_json(tables, config.max_degree)}
        return 0, dumps_canonical(doc) + "\n"
    out = ""
    for name in ("trans", "mu_bar", "cw"):
        if name in tables:
            out += _render_grid(_TITLES[name], _filter_dims(tables[name], config.max_degree))
    return 0, out


def _cmd_homogeneous(config):
    algebra, acs, h, _ = _load(config)
    if h is None:
        pair = HomogeneousPair.lie_group(algebra, acs)
    else:
        pair = HomogeneousPair(algebra, h, acs)
    report = validate_pair(pair)
    if not report.valid:
        doc = {"pair_valid": False, "violations": [d for d, _ in report.violations]}
        if config.fmt == "json":
            return 1, dumps_canonical(doc) + "\n"
        return 1, "homogeneous pair: INVALID\n" + "\n".join(
            "  " + d for d in doc["violations"]
        ) + "\n"
    inv = invariance_check(pair)
    minimal = minimal_homogeneous_check(pair)
    fib = fibration_report(pair)
    doc = {
        "pair_valid": True,
        "invariant": inv["invariant"],
        "minimal_criterion_holds": minimal["holds"],
        "via_ideal_shortcut": minimal["via_ideal_shortcut"],
        "fibration": {k: v for k, v in fib.items() if k != "witness"},
    }
    if config.fmt == "json":
        return 0, dumps_canonical(doc) + "\n"
    lines = [
        "homogeneous pair: OK",
        f"invariance (mod h): {'holds' if inv['invariant'] else 'FAILS'}",
        f"minimality criterion: {'holds' if minimal['holds'] else 'fails'}"
        + (" (Im N^J + h is an ideal)" if minimal["via_ideal_shortcut"] else ""),
    ]
    if fib.get("applicable"):
        lines.append(
            f"foliation: dim Im N = {fib['dim_im_N']}, subalgebra={fib['is_subalgebra']}, "
            f"ideal={fib['is_ideal']}, fibers_complex={fib['fibers_complex']}, "
            f"transverse_complex_structure={fib['transverse_complex_structure']}"
        )
    else:
        lines.append("foliation: not applicable (minimality criterion fails)")
    return 0, "\n".join(lines) + "\n"


def _cmd_report(config):
    algebra, acs, _, _ = _load(config)
    c = classify(algebra, acs)
    tables = _tables(algebra, acs, "both")
    compare_p0(algebra, acs)  # raises TheoremViolationError on mismatch
    doc = {
        "classification": c.to_json(),
        "flag_dims": list(c.flag_dims),
        "tables": _tables_json(tables, config.max_degree),
        "p0_check": "pass",
    }
    if config.fmt == "json":
        return 0, dumps_canonical(doc) + "\n"
    out = f"classification: {c.class_name}, dim Im N = {c.dim_im_N}\n"
    out += "flag dims: " + " -> ".join(str(d) for d in c.flag_dims) + "\n"
    for name in ("trans", "mu_bar", "cw"):
        out += _render_grid(_TITLES[name], _filter_dims(tables[name], config.max_degree))
    out += "p0 coincidence check: pass\n"
    return 0, out


_DISPATCH = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "flag": _cmd_flag,
    "cohomology": _cmd_cohomology,
    "homogeneous": _cmd_homogeneous,
    "report": _cmd_report,
}


def execute(config):
    """Run one command; returns (exit_status, rendered_output)."""
    if config.command not in _DISPATCH:
        raise SchemaError(f"unknown command {config.command!r}; choose from {COMMANDS}")
    if config.theory not in ("trans", "cw", "both"):
        raise SchemaError("--theory must be trans, cw or both")
    if config.fmt not in ("text", "json"):
        raise SchemaError("--format must be text or json")
    return _DISPATCH[config.command](config)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="transdolbeault",
        description="Exact invariant-level Nijenhuis/derived-flag/Dolbeault kernel",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="path to a JSON schema file")
    parser.add_argument("--catalog", help="built-in entry name")
    parser.add_argument("--n", type=int, default=None, help="half-dimension for abelian2n")
    parser.add_argument("--theory", choices=("trans", "cw", "both"), default="both")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=None, help="replace J by random_acs(algebra, seed)")
    parser.add_argument("--max-degree", type=int, default=None, help="only print bidegrees with p+q <= K")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input=args.input,
        catalog=args.catalog,
        theory=args.theory,
        fmt=args.fmt,
        seed=args.seed,
        max_degree=args.max_degree,
        n=args.n,
    )
    try:
        status, out = execute(config)
    except TheoremViolationError as exc:
        print(f"theorem violation (internal bug): {exc}", file=sys.stderr)
        return 2
    except (ValidationError, PreconditionError, ShapeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, UnknownCatalogEntry, OSError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"input error: {msg}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
