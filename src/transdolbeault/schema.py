"""JSON schemas for algebras, structures and reports.

Indices are 1-based on the wire (the Python API is 0-based). Rationals travel
as strings "p" or "p/q"; Gaussian rationals as {"re": "p/q", "im": "r/s"}.
An input document looks like

    {"dim": 4,
     "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
     "J": ["0", "0", "-1", "0", ...],          # row-major n*n rational strings
     "h": [["0", "0", "1"]],                   # optional stabilizer rows
     "J_mod_h": true}                          # present iff h is
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .acs import AlmostComplexStructure
from .errors import SchemaError, ShapeError, ValidationError
from .lie import LieAlgebra, validate_lie_algebra
from .linalg import Subspace, as_matrix
from .scalars import GaussianRational, rational_from_str, rational_to_str

__all__ = [
    "ParsedEntry",
    "parse_entry",
    "load_entry_file",
    "entry_to_dict",
    "scalar_to_json",
    "scalar_from_json",
    "dumps_canonical",
]


def scalar_to_json(x):
    x = GaussianRational.of(x)
    if not x.im:
        return rational_to_str(x.re)
    return x.to_json()


def scalar_from_json(v):
    try:
        return GaussianRational.from_json(v)
    except (ValueError, AttributeError, TypeError) as exc:
        raise SchemaError(f"bad scalar {v!r}: {exc}") from exc


def _json_int(value, what):
    """A JSON integer; a number with an integral value (2.0, 1e300) is read as one."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


_DECIMAL = "0|[1-9][0-9]*"


def _decimal_key(key, what):
    """A key that is a canonical ASCII decimal ("3", not " 3", "+3", "03",
    "3_0" or a non-ASCII digit), as an int."""
    if not (isinstance(key, str) and re.fullmatch(_DECIMAL, key)):
        raise SchemaError(f"{what} must be a decimal basis index, got {key!r}")
    return int(key)


def _coeff_index(key):
    """0-based index of a bracket coefficient key (1-based on the wire)."""
    return _decimal_key(key, "coefficient key") - 1


def _real_from_str(s):
    try:
        return rational_from_str(s) if isinstance(s, str) else rational_from_str(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from exc


@dataclass(frozen=True)
class ParsedEntry:
    algebra: LieAlgebra
    j_rows: tuple  # raw n x n matrix
    h: Subspace | None
    acs: AlmostComplexStructure | None  # constructed only when validate=True
    expected: dict | None


def parse_entry(doc, validate=True):
    """Parse one schema document.

    With validate=True the Jacobi identity is enforced and the almost complex
    structure is constructed (raising ValidationError on failure); with
    validate=False raw pieces are returned for report-style validation.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if "dim" not in doc:
        raise SchemaError("missing 'dim'")
    n = _json_int(doc["dim"], "'dim'")
    if n <= 0:
        raise SchemaError(f"'dim' must be a positive integer, got {n}")
    # J is checked first: its length bounds dim before anything of size dim is built.
    # Messages name dim, not dim*dim, which may be too long to print.
    flat = doc.get("J")
    if flat is None:
        raise SchemaError("missing 'J' (row-major list of rational strings)")
    if not isinstance(flat, (list, tuple)):
        raise SchemaError(f"'J' must be a list of dim*dim rational strings, got {flat!r}")
    if len(flat) != n * n:
        raise SchemaError(f"'J' must have dim*dim entries for dim {n}, got {len(flat)}")
    vals = [_real_from_str(s) for s in flat]
    j_rows = tuple(tuple(GaussianRational.of(x) for x in vals[r * n:(r + 1) * n]) for r in range(n))

    brackets = doc.get("brackets", ())
    if not isinstance(brackets, (list, tuple)):
        raise SchemaError(f"'brackets' must be a list of bracket entries, got {brackets!r}")
    table = {}
    for item in brackets:
        try:
            i, j = (_json_int(item[key], f"bracket {key!r}") - 1 for key in ("i", "j"))
            coeffs = {
                _coeff_index(k): _real_from_str(v) for k, v in item.get("coeffs", {}).items()
            }
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            # AttributeError: 'coeffs' (or the entry) is not an object
            raise SchemaError(f"bad bracket entry {item!r}: {exc}") from exc
        table[(i, j)] = coeffs
    try:
        algebra = LieAlgebra.from_brackets(n, table)
    except (ShapeError, ValidationError) as exc:
        raise SchemaError(f"bad bracket table: {exc}") from exc

    h = None
    if "h" in doc:
        rows = doc["h"]
        try:
            h = Subspace.from_rows(n, as_matrix([[_real_from_str(s) for s in row] for row in rows]))
        except (ShapeError, TypeError) as exc:  # TypeError: h or a row is not a list
            raise SchemaError(f"bad 'h' rows: {exc}") from exc

    acs = None
    if validate:
        report = validate_lie_algebra(algebra)
        if not report.valid:
            (i, j, k), defect = report.violations[0]
            raise ValidationError(
                f"Jacobi identity fails on basis triple ({i + 1},{j + 1},{k + 1}); "
                f"defect {[str(c) for c in defect]}"
            )
        acs = AlmostComplexStructure(j_rows, mod_h=h)
    return ParsedEntry(algebra, j_rows, h, acs, doc.get("expected"))


def load_entry_file(path, validate=True):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers too long to convert
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return parse_entry(doc, validate=validate)


def entry_to_dict(algebra, acs, h=None, expected=None):
    doc = {
        "dim": algebra.dim,
        "brackets": [
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": {
                    str(k + 1): rational_to_str(c.re) for k, c in enumerate(vec) if c
                },
            }
            for (i, j), vec in algebra.brackets
        ],
        "J": [rational_to_str(c.re) for row in acs.J for c in row],
    }
    if h is not None:
        doc["h"] = [[rational_to_str(c.re) for c in row] for row in h.basis]
        doc["J_mod_h"] = True
    if expected is not None:
        doc["expected"] = expected
    return doc


def form_to_json(form):
    """Bigraded form as {"p,q": {monomial index: scalar}} in the stored ordering."""
    out = {}
    for (p, q), coeffs in form.components:
        comp = {str(i): scalar_to_json(c) for i, c in enumerate(coeffs) if c}
        if comp:
            out[f"{p},{q}"] = comp
    return out


def form_from_json(frame, doc):
    """The inverse of form_to_json: bidegree keys "p,q" and monomial keys are
    canonical ASCII decimals, and monomial indices are 0-based."""
    from .forms import BigradedForm

    if not isinstance(doc, dict):
        raise SchemaError(f"a form must be a JSON object, got {doc!r}")
    comps = {}
    for key, entries in doc.items():
        if not (isinstance(key, str) and re.fullmatch(f"({_DECIMAL}),({_DECIMAL})", key)):
            raise SchemaError(f"bad bidegree key {key!r}")
        p, q = (int(t) for t in key.split(","))
        if not isinstance(entries, dict):
            raise SchemaError(f"component {key!r} must be a JSON object, got {entries!r}")
        dim = frame.dim(p, q)
        vec = [GaussianRational.of(0)] * dim
        for idx, val in entries.items():
            i = _decimal_key(idx, "monomial key")
            if not 0 <= i < dim:
                raise SchemaError(f"monomial index {i} out of range at bidegree ({p},{q})")
            vec[i] = scalar_from_json(val)
        comps[(p, q)] = tuple(vec)
    return BigradedForm.from_components(frame, comps)


def dumps_canonical(obj):
    """The one JSON writer: stable key order so reports are bit-identical."""
    return json.dumps(obj, indent=2, sort_keys=True)
