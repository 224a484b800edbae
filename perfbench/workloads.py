"""The four benchmark workloads: their inputs, their ops and their output checks.

Each workload is a list of ops run as a closed loop (one client; the next op
starts when the previous one returns).  The seed picks a random conjugate of
every conjugacy class and the op order; it changes neither the work nor the
exact outputs, which is why every output digest is keyed by class.

``build`` is called after ``import wfact`` and its cost counts as set-up.
Ops call wfact through module attributes (``cli.main``, ``oracle.oracle_series``)
so the traced run's wrappers see them.  ``Op.check`` runs outside the timed
region.  Its costly part (the second series route, the mpmath Newton steps)
runs only when ``thorough`` is set, on the first pass of a run: the later
passes must reproduce the same per-class digests, so they are checked too.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Any, Callable

import numpy as np
from wfact import cli, factorizations, fixtures, laurent, oracle, symmetric
from wfact.groups import Element, GroupParams

# Groups per workload and size.  "full" is what the benchmark measures;
# "tiny" runs in about a second and exists for the benchmark's own tests.
SERIES_GROUPS = {
    "full": [(2, 1, 7), (4, 2, 6), (3, 3, 6)],
    "tiny": [(2, 1, 3), (4, 2, 2), (3, 3, 3)],
}
VERIFY_GROUPS = {
    "full": [(2, 1, 4), (4, 1, 3), (6, 3, 3), (3, 3, 4), (3, 1, 4)],
    "tiny": [(2, 1, 2), (3, 3, 2)],
}
WINDOW_GROUPS = {
    "full": [(2, 1, 3), (3, 3, 3), (4, 4, 3), (2, 2, 4), (4, 2, 3)],
    "tiny": [(2, 1, 2), (3, 3, 2)],
}
ROOT_FIXTURES = {"full": None, "tiny": ["G2", "H3"]}  # None: every bundled fixture
ROOT_SN_TOP = {"full": 12, "tiny": 6}

NEWTON_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-8


@dataclass
class Op:
    """One timed call and the checks on its output."""

    key: str  # the class (or fixture) the op works on; independent of the seed
    call: Callable[[], Any]
    check: Callable[[Any, bool], "Verdict"]  # (output, thorough)


@dataclass
class Verdict:
    problems: list[str]
    digest: str  # short hash of the op's exact output
    stats: dict[str, float] = field(default_factory=dict)


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Classes and random conjugates, built without calling wfact
# ---------------------------------------------------------------------------


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def class_keys(m: int, p: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every multiset of (cycle length, cycle color) in G(m,p,n), sorted."""
    keys = set()
    for lengths in _partitions(n):
        for colors in itertools.product(range(m), repeat=len(lengths)):
            if sum(colors) % p == 0:
                keys.add(tuple(sorted(zip(lengths, colors))))
    return sorted(keys)


def random_conjugate(pairs, m: int, n: int, rng: random.Random):
    """(perm, colors), 0-based perm, of h g h^-1 for g with these cycles, h random.

    g is the canonical element (consecutive supports, each cycle's color on
    its last position) and h a uniform element of G(m,1,n).  The product is
    x*y: perm[t] = x.perm[y.perm[t]], colors[t] = x.colors[y.perm[t]] + y.colors[t].
    """
    perm, colors, start = [], [], 0
    for length, color in pairs:
        perm += [start + i + 1 for i in range(length - 1)] + [start]
        colors += [0] * (length - 1) + [color % m]
        start += length
    h_perm = list(range(n))
    rng.shuffle(h_perm)
    h_colors = [rng.randrange(m) for _ in range(n)]
    h_inv_perm = [0] * n
    for t, v in enumerate(h_perm):
        h_inv_perm[v] = t
    h_inv_colors = [(-h_colors[h_inv_perm[t]]) % m for t in range(n)]

    def mul(x, y):
        return (
            [x[0][y[0][t]] for t in range(n)],
            [(x[1][y[0][t]] + y[1][t]) % m for t in range(n)],
        )

    return mul(mul((h_perm, h_colors), (perm, colors)), (h_inv_perm, h_inv_colors))


def _class_label(params: tuple[int, int, int], pairs) -> str:
    m, p, n = params
    return f"G({m},{p},{n}) " + ",".join(f"({a},{b})" for a, b in pairs)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# series-sweep: `wfact series` once per class
# ---------------------------------------------------------------------------


def _series_ops(rng: random.Random, size: str) -> list[Op]:
    ops = []
    for m, p, n in SERIES_GROUPS[size]:
        for pairs in class_keys(m, p, n):
            perm, colors = random_conjugate(pairs, m, n, rng)
            element = f"perm={[v + 1 for v in perm]}; colors={colors}"
            argv = ["series", "--m", str(m), "--p", str(p), "--n", str(n),
                    "--element", element]
            g = Element(tuple(v + 1 for v in perm), tuple(colors))
            ops.append(Op(
                _class_label((m, p, n), pairs),
                lambda argv=argv: _run_cli(argv),
                lambda out, thorough, params=GroupParams(m, p, n), g=g: (
                    _check_series(params, g, out, thorough)),
            ))
    rng.shuffle(ops)
    return ops


def _check_series(params: GroupParams, g: Element, out, thorough: bool) -> Verdict:
    code, text = out
    if code != 0:
        return Verdict([f"exit code {code}"], "")
    doc = json.loads(text)
    problems = []
    if thorough and params.p < params.m and factorizations.series_full(params, g) != (
        factorizations.series_full_factored(params, g)
    ):
        problems.append("series_full differs from series_full_factored")
    phi = [Fraction(c) for c in doc["phi"]["coeffs"]]
    if any(c.denominator != 1 for c in phi):
        problems.append("phi has a non-integer coefficient")
    if not phi or phi[-1] != 1:
        problems.append("phi is not monic")
    doc.pop("element")  # the conjugate depends on the seed; the rest must not
    return Verdict(problems, _digest(doc))


# ---------------------------------------------------------------------------
# oracle-verify: `wfact oracle-verify` once per group
# ---------------------------------------------------------------------------


def _verify_ops(rng: random.Random, size: str, corrupt: bool = False) -> list[Op]:
    ops = []
    for m, p, n in VERIFY_GROUPS[size]:
        argv = ["oracle-verify", "--m", str(m), "--p", str(p), "--n", str(n)]
        if corrupt:
            argv.append("--self-test-corrupt")
        ops.append(Op(f"G({m},{p},{n})", lambda argv=argv: _run_cli(argv),
                      lambda out, thorough: _check_verify(out)))
    rng.shuffle(ops)
    return ops


def _check_verify(out) -> Verdict:
    code, text = out
    if code != 0:
        return Verdict([f"exit code {code}"], "")
    doc = json.loads(text.strip().splitlines()[-1])
    problems = [] if doc.get("status") == "ok" else [f"status {doc.get('status')!r}"]
    return Verdict(problems, _digest(doc))


# ---------------------------------------------------------------------------
# oracle-window: oracle_series == series_full per class
# ---------------------------------------------------------------------------


def _window_ops(rng: random.Random, size: str) -> list[Op]:
    ops = []
    for m, p, n in WINDOW_GROUPS[size]:
        params = GroupParams(m, p, n)
        for pairs in class_keys(m, p, n):
            perm, colors = random_conjugate(pairs, m, n, rng)
            g = Element(tuple(v + 1 for v in perm), tuple(colors))
            ops.append(Op(
                _class_label((m, p, n), pairs),
                lambda params=params, g=g: (
                    oracle.oracle_series(params, g), factorizations.series_full(params, g)
                ),
                lambda out, thorough: _check_window(out),
            ))
    rng.shuffle(ops)
    return ops


def _check_window(out) -> Verdict:
    brute, closed = out
    problems = [] if brute == closed else ["oracle_series differs from series_full"]
    return Verdict(problems, _digest(brute.to_json()))


# ---------------------------------------------------------------------------
# roots: find_roots on the bundled fixtures and the S_n identity cores
# ---------------------------------------------------------------------------


def _roots_ops(rng: random.Random, size: str) -> list[Op]:
    polys = fixtures.load_phi_fixtures()
    wanted = ROOT_FIXTURES[size]
    if wanted is not None:
        polys = {name: polys[name] for name in wanted}
    # The cores `wfact roots --sn-sweep` plots: constant ones have no roots.
    for degree in range(2, ROOT_SN_TOP[size] + 1, 2):
        series = symmetric.dyz_identity_series(degree)
        phi, _ = laurent.extract_phi(series, factorial(degree), degree * (degree - 1) // 2)
        if phi.max_deg - phi.min_deg >= 1:
            polys[f"S{degree}"] = phi
    ops = [
        Op(name, lambda phi=phi: laurent.find_roots(phi),
           lambda out, thorough, name=name, phi=phi: _check_roots(name, phi, out, thorough))
        for name, phi in polys.items()
    ]
    rng.shuffle(ops)
    return ops


def _worst_newton_step(descending: list[int], roots: list[complex]) -> float:
    """Largest 50-digit Newton step |p(r)/p'(r)| / |r| over the roots."""
    import mpmath  # only the checks need it; keep it out of set-up

    worst = 0.0
    with mpmath.workdps(50):
        for r in roots:
            x = mpmath.mpc(r.real, r.imag)
            value, slope = mpmath.polyval(descending, x, derivative=True)
            if value == 0:
                continue
            step = abs(value / slope) if slope != 0 else mpmath.inf
            worst = max(worst, float(step / max(abs(x), mpmath.mpf("1e-300"))))
    return worst


def _check_roots(name: str, phi, roots: list[complex], thorough: bool) -> Verdict:
    degree = phi.max_deg
    problems = []
    stats = {}
    if len(roots) != degree:
        problems.append(f"{len(roots)} roots for degree {degree}")
    descending = [phi.coefficient(d) for d in range(degree, -1, -1)]
    if any(c.denominator != 1 for c in descending):
        problems.append("core polynomial has a non-integer coefficient")
    elif thorough:
        worst = _worst_newton_step([int(c) for c in descending], roots)
        stats["roots_worst_rel_err"] = worst
        if worst > NEWTON_REL_TOL:
            problems.append(f"worst relative Newton step {worst:.3e}")
    z = np.array(roots, dtype=complex)
    images = [("conjugation", np.conj(z))]
    if phi.is_palindromic() and phi.min_deg == 0:
        images.append(("inversion", 1.0 / z))
    for label, image in images:
        gaps = np.abs(image[:, None] - z[None, :]).min(axis=1)
        if (gaps > SYMMETRY_TOL * np.maximum(1.0, np.abs(image))).any():
            problems.append(f"root set not closed under {label}")
    return Verdict(problems, _digest([name, degree, len(roots)]), stats)


def build(name: str, seed: int, size: str = "full", corrupt: bool = False) -> list[Op]:
    """The ops of one workload; ``corrupt`` adds the CLI's self-test flag."""
    rng = random.Random(seed)
    if name == "series-sweep":
        return _series_ops(rng, size)
    if name == "oracle-verify":
        return _verify_ops(rng, size, corrupt)
    if name == "oracle-window":
        return _window_ops(rng, size)
    if name == "roots":
        return _roots_ops(rng, size)
    raise ValueError(f"unknown workload {name!r}")
