"""Exact reflection-factorization series for wreath-product reflection groups.

Computes, for any element of the three-parameter wreath family of complex
reflection groups, the exponential generating function of its factorizations
into reflections that generate the whole group, as an exact Laurent
polynomial in X = e**z — together with the minimum factorization length, the
count at that length, the core polynomial left after stripping structural
factors, and a brute-force enumeration oracle for independent verification.
"""

from .cyclic import cyclic_all_series, cyclic_element_order, cyclic_full_series
from .errors import CapabilityError, RootFindingError
from .factorizations import (
    full_length,
    lead_coeff,
    lead_from_phi,
    phi_data,
    series_full,
    series_full_factored,
    series_ppn,
    series_window,
)
from .fixtures import TABLE1, load_phi_fixtures
from .groups import (
    CycleData,
    Element,
    GroupParams,
    Reflection,
    all_elements,
    conjugate,
    cycle_data,
    identity,
    inverse,
    is_full_set,
    is_member,
    multiply,
    parse_element,
    project,
    reflections,
    weight,
)
from .hurwitz import hurwitz_h0, hurwitz_h1
from .laurent import LaurentPoly, extract_phi, laurent_from_egf, lowest_order
from .oracle import (
    acts_transitively_on_Em,
    class_representatives,
    count_factorizations,
    oracle_series,
)
from .roots import find_roots
from .symmetric import (
    dyz_identity_series,
    frobenius_series_sn,
    full_series_sn,
    full_series_sn_type,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CycleData",
    "Element",
    "GroupParams",
    "LaurentPoly",
    "Reflection",
    "RootFindingError",
    "TABLE1",
    "acts_transitively_on_Em",
    "all_elements",
    "class_representatives",
    "conjugate",
    "count_factorizations",
    "cycle_data",
    "cyclic_all_series",
    "cyclic_element_order",
    "cyclic_full_series",
    "dyz_identity_series",
    "extract_phi",
    "find_roots",
    "frobenius_series_sn",
    "full_length",
    "full_series_sn",
    "full_series_sn_type",
    "hurwitz_h0",
    "hurwitz_h1",
    "identity",
    "inverse",
    "is_full_set",
    "is_member",
    "laurent_from_egf",
    "lead_coeff",
    "lead_from_phi",
    "load_phi_fixtures",
    "lowest_order",
    "multiply",
    "oracle_series",
    "parse_element",
    "phi_data",
    "project",
    "reflections",
    "series_full",
    "series_full_factored",
    "series_ppn",
    "series_window",
    "weight",
]
