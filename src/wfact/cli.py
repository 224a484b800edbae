"""Command-line surface.

Subcommands
-----------
series          exact full-factorization series, length, leading count, and
                core polynomial for one group element; JSON on stdout.
oracle-verify   brute-force factorization counts compared against the
                closed-form series, for one element or every conjugacy class.
roots           numerical roots of a core polynomial (bundled fixture,
                freshly computed, or a sweep over symmetric groups of even
                degree); CSV or SVG output files.
fixtures-check  re-derives the bundled fixture data from scratch and checks
                the published cross-identities.

Exit codes: 0 success; 1 verification failure; 2 usage or parse error;
3 capability cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache, lru_cache
from pathlib import Path

from .errors import CapabilityError
from .factorizations import (
    KEY_CACHE_SIZE,
    WINDOW_GUARD,
    closed_lowest_order,
    full_length,
    lead_from_phi,
    phi_data,
    phi_data_by_key,
    series_full,
    series_key,
    series_window,
)
from .fixtures import TABLE1, load_phi_fixtures
from .groups import (
    Element, GroupParams, identity, element_to_json, parse_element, read_integer, read_integers
)
from .laurent import LaurentPoly, extract_phi
from .oracle import class_representatives, count_factorizations
from .roots import RootFindingError, find_roots
from .symmetric import FULL_GUARD, dyz_identity_series, full_series_sn

ELEMENT_GRAMMAR = (
    "element grammar: either 'perm=(2,1); colors=(1,0)' (1-based image tuple "
    "plus one color per position) or 'cycles=[(2,1),(1,0)]' (one (length, color) "
    "pair per cycle, lengths summing to n); --cycles takes the bare pair list "
    "'(2,1),(1,0)'. Each value is a (...) or [...] sequence of integers, or "
    "for cycles of (...) or [...] pairs of integers; an integer is an optional "
    "sign and decimal digits; whitespace may surround any token and a sequence "
    "may end in one comma, so (1) and (1,) both hold one entry; each key may "
    "be given once"
)


class UsageError(Exception):
    """Bad arguments or unparseable input; mapped to exit code 2."""


def _integer(text: str) -> int:
    """The argparse type of every integer flag: ``read_integer``, refusing as int's type does."""
    try:
        return read_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _egf_entry(q: Fraction) -> str:
    """An egf_prefix entry as JSON: an int, or an "n/d" string."""
    return str(q.numerator) if q.denominator == 1 else f'"{_fraction_str(q)}"'


def _group_params(m: int, p: int, n: int) -> GroupParams:
    try:
        return GroupParams(m, p, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _element_from_args(params: GroupParams, args: argparse.Namespace) -> Element:
    try:
        if args.cycles is not None:
            return parse_element(f"cycles=[{args.cycles}]", params)
        if args.element is not None:
            return parse_element(args.element, params)
    except ValueError as exc:
        raise UsageError(f"{exc}\n{ELEMENT_GRAMMAR}") from None
    return identity(params)


def _is_unimodal(values: tuple[int, ...]) -> bool:
    seen_descent = False
    for prev, cur in zip(values, values[1:]):
        if cur > prev and seen_descent:
            return False
        if cur < prev:
            seen_descent = True
    return True


# The `wfact series` document is written directly, in the fixed shape of
# json.dumps(doc, indent=2) and byte for byte equal to it: with an indent,
# json runs its pure-Python encoder, which cost more than a cached call's
# series maths.  Every string in the document is a group name G(m,p,n) or an
# n/d fraction, which JSON does not escape, so each is quoted as it is.


def _json_list(items: list[str], pad: str) -> str:
    """The indent=2 dump of a list of rendered items, on a line indented by ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _json_laurent(poly: LaurentPoly, pad: str) -> str:
    """The indent=2 dump of ``poly.to_json()``, on a line indented by ``pad``."""
    fields = poly.to_json()
    inner = pad + "  "
    coeffs = _json_list([f'"{c}"' for c in fields["coeffs"]], inner)
    return f'{{\n{inner}"min_deg": {fields["min_deg"]},\n{inner}"coeffs": {coeffs}\n{pad}}}'


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _series_head(params: GroupParams, g: Element) -> str:
    """The "group" and "element" fields of the `wfact series` document, rendered."""
    perm = _json_list([str(i) for i in g.perm], "    ")
    colors = _json_list([str(c) for c in g.colors], "    ")
    return (
        f'  "group": "{params}",\n'
        '  "element": {\n'
        f'    "m": {params.m},\n'
        f'    "p": {params.p},\n'
        f'    "n": {params.n},\n'
        f'    "perm": {perm},\n'
        f'    "colors": {colors}\n'
        "  }"
    )


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _series_body(key: tuple, top_len: int) -> str:
    """Every field of the `wfact series` document after "element", as indent=2 JSON.

    They depend on g only through its series key, so each key's body at the
    default prefix length is rendered once.  An explicit --prefix-len is
    rendered through ``__wrapped__``, past the cache.  The counts are
    computed one at a time, and the first one too long to print stops the
    walk before any is printed, so a long prefix fails at once instead of
    after every count.  The UsageError for counts too long to print is
    raised again on each call: lru_cache keeps no exceptions.
    """
    params = key[0]
    phi, ell, series = phi_data_by_key(key)
    lo, hi = series_window(params)
    lead = lead_from_phi(phi, params.order, ell)
    # phi.denom > 0, so its numerators have the signs and order of its
    # coefficients.
    observations = (
        f'    "phi_degree": {phi.max_deg},\n'
        f'    "phi_palindromic": {_json_bool(phi.is_palindromic())},\n'
        f'    "phi_nonnegative": {_json_bool(min(phi.numers) >= 0)},\n'
        f'    "phi_unimodal": {_json_bool(_is_unimodal(phi.numers))},\n'
        '    "window_attained": '
        + _json_list([_json_bool(series.min_deg == lo), _json_bool(series.max_deg == hi)], "    ")
    )
    limit = sys.get_int_max_str_digits()  # 0: no limit
    try:
        # The series has the factor (X - 1)**ell, so every count below
        # length ell is 0, and the count at ell is the lead.
        counts = []
        for q in series.egf_counts(top_len, ell):
            # 10**limit > 2**(3 * limit): only a longer count can be past the limit.
            if limit and q.numerator.bit_length() > 3 * limit and abs(q.numerator) >= 10**limit:
                raise ValueError(q)  # reported below, before any count is printed
            counts.append(q)
        if counts and counts[0] != lead:
            raise AssertionError(
                f"count at length ell = {ell} is {counts[0]}, not the lead {lead}"
            )
        zeros = ["0"] * min(ell, top_len + 1)
        egf = _json_list(zeros + [_egf_entry(q) for q in counts], "  ")
        return (
            f'  "laurent": {_json_laurent(series, "  ")},\n'
            f'  "ell_full": {ell},\n'
            f'  "lead_coeff": "{_fraction_str(lead)}",\n'
            f'  "phi": {_json_laurent(phi, "  ")},\n'
            f'  "egf_prefix": {egf},\n'
            f'  "window": {_json_list([str(lo), str(hi)], "  ")},\n'
            f'  "observations": {{\n{observations}\n  }}'
        )
    except ValueError:
        # Python refuses to turn an int of more than
        # sys.get_int_max_str_digits() digits into a string.
        raise UsageError(
            f"--prefix-len {top_len} gives counts of more than "
            f"{limit} digits, past the interpreter's "
            "limit for printing an int (sys.get_int_max_str_digits)"
        ) from None


def cmd_series(args: argparse.Namespace) -> int:
    params = _group_params(args.m, args.p, args.n)
    g = _element_from_args(params, args)
    key = series_key(params, g)
    phi, ell_from_phi, _ = phi_data_by_key(key)
    ell, lead = closed_lowest_order(*key)
    # phi = #W * X^#A * series / (X-1)^ell, so this is lowest_order(series)
    order_check = (ell_from_phi, lead_from_phi(phi, params.order, ell_from_phi))
    if order_check != (ell, lead):
        print(
            "internal consistency failure: series lowest order "
            f"{order_check} vs case analysis ({ell}, {lead})",
            file=sys.stderr,
        )
        return 1
    # The body's ell_full and lead_coeff come from phi; the check above has
    # just shown them equal to the key's case analysis.
    if args.prefix_len is None:
        body = _series_body(key, ell + 4)
    elif args.prefix_len < 0:
        raise UsageError("--prefix-len must be nonnegative")
    else:
        # A body grows with its prefix, so an explicit one is not cached.
        body = _series_body.__wrapped__(key, args.prefix_len)
    print("{\n" + _series_head(params, g) + ",\n" + body + "\n}")
    return 0


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    params = _group_params(args.m, args.p, args.n)
    if args.cycles is not None or args.element is not None:
        targets = [_element_from_args(params, args)]
    else:
        targets = class_representatives(params)
    max_len = args.max_len
    if max_len is None:
        max_len = params.num_reflections + 2
    if max_len < 0:
        raise UsageError("--max-len must be nonnegative")
    corrupt = args.self_test_corrupt
    checked = 0
    prefixes: dict[LaurentPoly, list] = {}  # representatives share few series
    for g in targets:
        series = series_full(params, g)
        expected = count_factorizations(params, g, max_len, mode="full")
        if series not in prefixes:
            prefixes[series] = series.egf_prefix(max_len)
        got = list(prefixes[series])
        if corrupt:
            got[min(full_length(params, g), max_len)] += 1
            corrupt = False
        for length in range(max_len + 1):
            if expected[length] != got[length]:
                print(
                    "MISMATCH "
                    f"element={element_to_json(g, params)} length={length} "
                    f"expected={expected[length]} got={got[length]}",
                    file=sys.stderr,
                )
                return 1
        checked += 1
    print(
        f"verified {checked} element(s) of {params} up to length {max_len}",
        file=sys.stderr,
    )
    json.dump(
        {"group": str(params), "elements": checked, "max_len": max_len, "status": "ok"},
        sys.stdout,
    )
    print()
    return 0


def _svg_scatter(groups: list[tuple[str, list[complex]]]) -> str:
    # Imported here: xml.sax.saxutils pulls in urllib.request, http.client and
    # ssl, about 25 ms that every other command would pay at import.
    from xml.sax.saxutils import escape

    size = 800
    margin = 40
    half = size / 2
    scale_target = half - margin
    radius = max(
        [abs(z) for _, zs in groups for z in zs] + [1.0]
    ) * 1.1
    def sx(x: float) -> float:
        return half + (x / radius) * scale_target
    def sy(y: float) -> float:
        return half - (y / radius) * scale_target
    palette = [
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
        "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" '
        'stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" '
        'stroke="#cccccc" stroke-width="1"/>',
        f'<circle cx="{half}" cy="{half}" r="{scale_target / radius:.3f}" '
        'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="6 4"/>',
    ]
    for idx, (label, zs) in enumerate(groups):
        color = palette[idx % len(palette)]
        parts.append(
            f'<g fill="{color}" fill-opacity="0.8"><title>{escape(label)}</title>'
        )
        for z in zs:
            parts.append(
                f'<circle cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" r="4"/>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def _write_root_output(
    out: str, groups: list[tuple[str, list[complex]]], labelled: bool
) -> None:
    path = Path(out)
    if path.suffix.lower() == ".svg":
        path.write_text(_svg_scatter(groups))
        return
    lines = ["label,re,im" if labelled else "re,im"]
    for label, zs in groups:
        # Order by the printed coordinates: the two roots of a conjugate pair
        # have real parts that agree only to rounding, and would otherwise
        # come out in an order set by that rounding.
        printed = sorted((float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")) for z in zs)
        for x, y in printed:
            coords = f"{x:.12g},{y:.12g}"
            lines.append(f"{label},{coords}" if labelled else coords)
    path.write_text("\n".join(lines) + "\n")


def cmd_roots(args: argparse.Namespace) -> int:
    # argparse has seen exactly one selector and at most one element flag.
    if args.phi_from is None and (args.cycles, args.element) != (None, None):
        flag = "--cycles" if args.cycles is not None else "--element"
        raise UsageError(f"{flag} applies only with --phi-from")
    cores: list[tuple[str, LaurentPoly]] = []
    labelled = False
    if args.fixture is not None:
        fixtures = _load_fixtures_or_usage_error(args.fixtures)
        if args.fixture not in fixtures:
            raise UsageError(
                f"unknown fixture {args.fixture!r}; "
                f"available: {', '.join(sorted(fixtures))}"
            )
        cores.append((args.fixture, fixtures[args.fixture]))
    elif args.phi_from is not None:
        try:
            m, p, n = read_integers(args.phi_from)
        except ValueError:
            raise UsageError("--phi-from expects 'm,p,n'") from None
        params = _group_params(m, p, n)
        g = _element_from_args(params, args)
        phi, _, _ = phi_data(params, g)
        cores.append((str(params), phi))
    else:
        top = args.sn_sweep
        if top < 2:
            raise UsageError("--sn-sweep expects an integer >= 2")
        # Past FULL_GUARD the double-precision iteration cannot resolve the
        # cores (S_16, the next one swept, does not certify), so refuse
        # before building any.
        if top > FULL_GUARD:
            raise CapabilityError(f"--sn-sweep is guarded at {FULL_GUARD}; got {top}")
        labelled = True
        for degree in range(2, top + 1, 2):
            sn = GroupParams(1, 1, degree)
            phi, _ = extract_phi(dyz_identity_series(degree), sn.order, sn.num_hyperplanes)
            cores.append((str(degree), phi))
    # A computed core has degree at most #R + #A <= WINDOW_GUARD; a fixture
    # file's may have any, and the root finder's memory grows with it.
    for label, phi in cores:
        if phi.max_deg > WINDOW_GUARD:
            raise CapabilityError(f"core {label} has degree {phi.max_deg}, past {WINDOW_GUARD}")
    # A constant core polynomial has no roots.
    groups = [
        (label, find_roots(phi) if phi.max_deg >= 1 else []) for label, phi in cores
    ]
    total = sum(len(zs) for _, zs in groups)
    _write_root_output(args.out, groups, labelled)
    print(f"wrote {total} root(s) to {args.out}", file=sys.stderr)
    return 0


def _load_fixtures_or_usage_error(path):
    try:
        return load_phi_fixtures(path)
    except ValueError as exc:
        raise UsageError(f"bad fixture file: {exc}") from None


def cmd_fixtures_check(args: argparse.Namespace) -> int:
    fixtures = _load_fixtures_or_usage_error(args.fixtures)
    failures: list[str] = []

    def report(check_id: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {check_id}: {detail}", file=sys.stderr)
        if not ok:
            failures.append(check_id)

    # (a) freshly computed core polynomial vs the bundled dihedral record
    g2_params = GroupParams(6, 6, 2)
    phi_g2, _, _ = phi_data(g2_params, identity(g2_params))
    if "G2" not in fixtures:
        report("G2", False, "record missing from fixture file")
    else:
        report(
            "G2",
            phi_g2 == fixtures["G2"],
            "computed core polynomial for G(6,6,2) identity vs fixture",
        )

    # (b) closed-form table rows vs computed identity series
    report(
        "A1",
        full_series_sn(2, (1, 2)) == TABLE1["A1"],
        "symmetric group on 2 points, identity series",
    )
    report(
        "A2",
        full_series_sn(3, (1, 2, 3)) == TABLE1["A2"],
        "symmetric group on 3 points, identity series",
    )
    i25_params = GroupParams(5, 5, 2)
    report(
        "I2(5)",
        series_full(i25_params, identity(i25_params)) == TABLE1["I2(5)"],
        "order-10 dihedral group, identity series",
    )

    # (c) product groups multiply their series
    a1 = TABLE1["A1"]
    report("A1^2", TABLE1["A1^2"] == a1 * a1, "square of the A1 row")
    report("A1^3", TABLE1["A1^3"] == a1 * a1 * a1, "cube of the A1 row")

    # (d)/(e) the bundled icosahedral record reproduces known counts
    if "H3" not in fixtures:
        report("H3-lead", False, "record missing from fixture file")
        report("H3-value", False, "record missing from fixture file")
    else:
        h3 = fixtures["H3"]
        report(
            "H3-lead",
            lead_from_phi(h3, 120, 6) == 172800,
            "minimum-length count from the fixture",
        )
        report(
            "H3-value",
            h3.evaluate(Fraction(1)) == 28800,
            "fixture evaluated at 1",
        )

    status = "ok" if not failures else "fail"
    json.dump({"status": status, "failures": failures}, sys.stdout)
    print()
    return 0 if not failures else 1


@cache  # built once per process; parsing does not mutate them
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="wfact",
        description=(
            "Exact reflection-factorization series for the wreath-product "
            "family of complex reflection groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=_integer, required=True, help="color modulus m")
        p.add_argument("--p", type=_integer, required=True, help="weight divisor p (p | m)")
        p.add_argument("--n", type=_integer, required=True, help="number of positions n")

    def add_element_flags(p: argparse.ArgumentParser) -> None:
        element = p.add_mutually_exclusive_group()
        element.add_argument(
            "--cycles",
            help="element as bare (length, color) pairs, e.g. '(2,1),(1,0)'",
        )
        element.add_argument(
            "--element",
            help="element in full grammar, e.g. 'perm=(2,1); colors=(1,0)'",
        )

    p_series = sub.add_parser(
        "series", help="exact series, length, leading count, core polynomial"
    )
    add_group_flags(p_series)
    add_element_flags(p_series)
    p_series.add_argument(
        "--prefix-len",
        type=_integer,
        default=None,
        help="largest factorization length listed in egf_prefix "
        "(default: min length + 4)",
    )
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser(
        "oracle-verify", help="brute-force counts vs closed-form series"
    )
    add_group_flags(p_verify)
    add_element_flags(p_verify)
    p_verify.add_argument(
        "--max-len",
        type=_integer,
        default=None,
        help="largest factorization length to compare (default: window end + 2)",
    )
    p_verify.add_argument(
        "--self-test-corrupt", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_oracle_verify)

    p_roots = sub.add_parser("roots", help="roots of a core polynomial")
    selector = p_roots.add_mutually_exclusive_group(required=True)
    selector.add_argument("--fixture", help="bundled fixture name, e.g. G2 or H3")
    selector.add_argument("--phi-from", help="group parameters 'm,p,n'")
    selector.add_argument(
        "--sn-sweep",
        type=_integer,
        help="roots for symmetric groups of every even degree up to this bound",
    )
    add_element_flags(p_roots)
    p_roots.add_argument("--out", required=True, help="output file (.csv or .svg)")
    p_roots.add_argument("--fixtures", help="override path of the fixture file")
    p_roots.set_defaults(func=cmd_roots)

    p_check = sub.add_parser(
        "fixtures-check", help="validate bundled fixtures against fresh computation"
    )
    p_check.add_argument("--fixtures", help="override path of the fixture file")
    p_check.set_defaults(func=cmd_fixtures_check)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A command's own parser reads the rest of argv once; through the
    # top-level parser it would be matched there first and then parsed again.
    # The top-level parser takes everything else: -h, no argv, an unknown
    # command.
    parser, commands = build_parsers()
    if argv and argv[0] in commands:
        namespace = argparse.Namespace(command=argv[0])  # as the top-level parser sets it
        args = commands[argv[0]].parse_args(argv[1:], namespace)
    else:
        args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`wfact series ... | head`): not a
        # failure of the command.  Point stdout at the null device so the
        # interpreter's final flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A path that cannot be read or written: a missing fixture file, an
        # --out that names a directory or sits in a missing one.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability limit: {exc}", file=sys.stderr)
        return 3
    except RootFindingError as exc:
        print(f"root finding failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
