"""Bundled exact fixtures.

Two kinds of frozen reference data live here:

* ``load_phi_fixtures`` reads the plain-text fixture file bundled under
  ``wfact/data/`` containing the core polynomials of the full-factorization
  series at the identity for several well-known reflection groups
  (G2, H3, H4, F4, E6, E7, E8 in Cartan-type naming).
* ``TABLE1`` holds exact closed-form full-factorization series of the
  identity for the reflection subgroup types occurring inside the rank-3
  icosahedral group, built directly from Laurent-polynomial arithmetic.

Fixture file format, one record per line::

    name=G2; lowest=0; coeffs=1,4,10,16,10,16,10,4,1

with coefficients ascending from ``X**lowest``, where lowest >= 0, read by
``groups.read_fields`` and ``groups.read_integer``: empty fields are skipped,
and a repeated key, '٣' or '1_0' is refused.  Blank lines and lines starting
with ``#`` are ignored.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .groups import read_fields, read_integer, read_integers
from .laurent import LaurentPoly

if TYPE_CHECKING:
    from importlib.abc import Traversable

__all__ = ["load_phi_fixtures", "default_fixture_path", "TABLE1"]


def _power(base: LaurentPoly, k: int) -> LaurentPoly:
    out = LaurentPoly.one()
    for _ in range(k):
        out = out * base
    return out


_XM1 = LaurentPoly(0, [-1, 1])  # X - 1

# Exact full-factorization series of the identity, one per subgroup type of
# the rank-3 icosahedral group.  A1^2 and A1^3 are recorded as displayed
# (explicit products), not as powers of the A1 entry; the product identity
# is checked downstream, not assumed here.
TABLE1: dict[str, LaurentPoly] = {
    "trivial": LaurentPoly.one(),
    "A1": LaurentPoly(-1, [1], 2) * _power(_XM1, 2),
    "A1^2": LaurentPoly(-2, [1], 4) * _power(_XM1, 4),
    "A1^3": LaurentPoly(-3, [1], 8) * _power(_XM1, 6),
    "A2": LaurentPoly(-3, [1, 4, 1], 6) * _power(_XM1, 4),
    "I2(5)": LaurentPoly(-5, [1, 4, 10, 20, 10, 4, 1], 10) * _power(_XM1, 4),
}


def default_fixture_path() -> Traversable:
    """The fixture file bundled with the package, as a package resource.

    Not a filesystem path: the package may be imported from a zip archive.
    """
    return resources.files("wfact").joinpath("data/phi_fixtures.txt")


def load_phi_fixtures(path: str | Path | None = None) -> dict[str, LaurentPoly]:
    """Parse a fixture file into a name -> LaurentPoly mapping.

    Without a path, reads the bundled file.  Raises FileNotFoundError if the
    file is absent and ValueError (with the offending line number) on any
    malformed record.
    """
    fpath = Path(path) if path is not None else default_fixture_path()
    if not fpath.is_file():
        raise FileNotFoundError(f"fixture file not found: {fpath}")
    out: dict[str, LaurentPoly] = {}
    for lineno, raw in enumerate(fpath.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = read_fields(line)
            missing = {"name", "lowest", "coeffs"} - fields.keys()
            if missing:
                raise ValueError(f"missing fields {sorted(missing)}")
            name = fields["name"]
            if not name or name in out:
                raise ValueError(f"bad or duplicate name {name!r}")
            lowest = read_integer(fields["lowest"])
            if lowest < 0:
                # A core polynomial has no negative powers of X.
                raise ValueError(f"lowest must be nonnegative, got {lowest}")
            out[name] = LaurentPoly(lowest, read_integers(fields["coeffs"]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not out:
        raise ValueError(f"no fixture records found in {fpath}")
    return out
