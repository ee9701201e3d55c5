"""Built-in validated instances and seeded random structure generation.

Entries ship as JSON data files in the same schema user files use, and are
re-validated on every load; the Iwasawa entry is additionally accepted only
if the kernel confirms N^J = 0, and the frozen maximally non-integrable
candidate only if the classifier still reports MaximallyNonIntegrable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

from .acs import AlmostComplexStructure, nijenhuis_image
from .errors import ShapeError, UnknownCatalogEntry, ValidationError
from .flag import classify
from .lie import LieAlgebra
from .linalg import Subspace, mat_inverse, mat_mul
from .scalars import GaussianRational, ZERO, ONE
from .schema import parse_entry

__all__ = ["CatalogEntry", "catalog_get", "catalog_names", "random_acs", "standard_j"]

_FILE_ENTRIES = (
    "kodaira_thurston",
    "kt_integrable",
    "iwasawa",
    "su2_mod_u1",
    "heisenberg5_plus_r",
    "max_nonintegrable_candidate",
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    acs: AlmostComplexStructure
    h: Subspace | None
    expected: dict | None


def catalog_names():
    return ("abelian2n",) + _FILE_ENTRIES


def standard_j(n):
    """The block-standard J0: e_{2k} -> e_{2k+1}, e_{2k+1} -> -e_{2k} (0-based)."""
    if n % 2:
        raise ValidationError("standard J needs even dimension")
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(0, n, 2):
        rows[k + 1][k] = ONE
        rows[k][k + 1] = -ONE
    return tuple(tuple(r) for r in rows)


def _load_data(name):
    ref = resources.files("transdolbeault.data").joinpath(f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def catalog_get(name, n=None):
    """Fetch a validated entry; abelian2n takes the half-dimension parameter n."""
    if name == "abelian2n":
        half = 1 if n is None else int(n)
        if half < 1:
            raise ValidationError("abelian2n needs n >= 1")
        algebra = LieAlgebra.abelian(2 * half)
        acs = AlmostComplexStructure(standard_j(2 * half))
        return CatalogEntry("abelian2n", algebra, acs, None, None)
    if name not in _FILE_ENTRIES:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}"
        )
    parsed = parse_entry(_load_data(name), validate=True)
    entry = CatalogEntry(name, parsed.algebra, parsed.acs, parsed.h, parsed.expected)
    if name == "iwasawa" and nijenhuis_image(entry.algebra, entry.acs).rank != 0:
        raise ValidationError("iwasawa data corrupted: N^J != 0 for the shipped J")
    if name == "max_nonintegrable_candidate":
        got = classify(entry.algebra, entry.acs).class_name
        if got != "MaximallyNonIntegrable":
            raise ValidationError(
                f"frozen candidate no longer classifies MaximallyNonIntegrable (got {got})"
            )
    return entry


def random_acs(algebra, seed):
    """J = P J0 P^{-1} for a seeded random invertible integer P, entries in -2..2.

    Deterministic per (algebra, seed); always satisfies J^2 = -Id. A singular
    draw is skipped; ValidationError if 64 draws in a row are singular.
    """
    n = algebra.dim
    if n % 2:
        raise ValidationError("random almost complex structure needs even dimension")
    rng = random.Random(seed)
    j0 = standard_j(n)
    for _ in range(64):
        p = tuple(
            tuple(GaussianRational.of(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(n)
        )
        try:
            inverse = mat_inverse(p)
        except ShapeError:  # singular draw
            continue
        return AlmostComplexStructure(mat_mul(mat_mul(p, j0), inverse))
    raise ValidationError("could not draw an invertible matrix in 64 attempts")
