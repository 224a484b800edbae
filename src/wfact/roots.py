"""Complex roots of the core polynomials (inexact; feeds plots only).

``find_roots`` is the single deliberately inexact operation of the package.
It works on a polynomial's integer numerators alone (``min_deg`` and
``numers`` of a ``LaurentPoly``), in three steps:

* square-free split: Yun's algorithm over Z, with Brown's modular gcd
  (``_squarefree_parts``), so the iteration only ever meets simple roots;
* Aberth-Ehrlich sweeps on double-precision coefficients
  (``_certified_simple_roots``), started on the circles of the Newton polygon
  after three Graeffe root-squarings, in the variable x**g when p is a
  polynomial in x**g (``_newton_polygon_start``);
* certification: Newton steps with p and p' evaluated in fixed point to a
  proven error bound on the integer coefficients (``_certify_pending``,
  ``_newton_step``), each pass started at the precision it needs; on a
  palindromic part each outer root takes its Newton step from its certified
  inverse's last pass (``_inverse_root``).  Certification, not a sweep
  count, ends the iteration.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapabilityError, RootFindingError

if TYPE_CHECKING:
    from .laurent import LaurentPoly

__all__ = ["find_roots", "RootFindingError"]


def _newton_polygon_start(ics: Sequence[int]) -> np.ndarray:
    """Aberth starting points from the Newton polygon after Graeffe steps (Bini 1996).

    ``ics`` are integer coefficients, ascending, with both ends nonzero.
    With g the gcd of the exponents of the nonzero coefficients, p(x) =
    q(x**g), and the starts for q are found first.  ``_GRAEFFE_STEPS``
    root-squarings q_{k+1}(y**2) = +-q_k(y) * q_k(-y) turn each root w of
    q into w**(2**k); that spreads the root moduli apart, so the Newton
    polygon of q_k reads them off closely (Ostrowski, *Acta Math.* 72
    (1940)).  Each step is one convolution on doubles, rescaled to unit
    maximum with the log of the scale carried, so nothing overflows; a
    coefficient that underflows to 0 is left off the hull, and the two end
    coefficients, a_0**(2**k) and a_n**(2**k) exactly, take their logs from
    the integers, so the hull always spans 0..n.  Each edge from i to j of
    the upper convex hull of the points (i, log|c_i|) over the nonzero
    coefficients c of q_k contributes j - i points on the circle of radius
    (|c_i| / |c_j|)**(1 / ((j - i) * 2**k)), the size of the roots of q
    that edge accounts for; the angles are spread evenly on each circle and
    rotated per edge, off the real axis.  Each start w of q then gives its
    g g-th roots, the starts for p.
    """
    g = math.gcd(*(i for i, c in enumerate(ics) if c))
    q = ics[::g]
    n = len(q) - 1
    # q_k = a * e**log_scale, with max |a| = 1.
    a = np.array([float(c) for c in q])
    top = np.abs(a).max()
    a /= top
    log_scale = math.log(top)
    for _ in range(_GRAEFFE_STEPS):
        alternating = a.copy()
        alternating[1::2] *= -1.0
        a = np.convolve(a, alternating)[::2]
        top = np.abs(a).max()
        a /= top
        log_scale = 2.0 * log_scale + math.log(top)
    # The hull is built in the frame of a, where the heights are small and
    # exact to rounding; only the exact end logs are shifted into it.
    power = 2**_GRAEFFE_STEPS
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(a))
    logs[0] = power * math.log(abs(q[0])) - log_scale
    logs[-1] = power * math.log(abs(q[-1])) - log_scale
    hull: list[tuple[int, float]] = []
    for i in np.flatnonzero(np.isfinite(logs)).tolist():
        li = float(logs[i])
        # Pop the last hull point while it lies on or below the chord to (i, li).
        while len(hull) >= 2:
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            if (i1 - i0) * (li - l0) < (l1 - l0) * (i - i0):
                break
            hull.pop()
        hull.append((i, li))
    ends, heights = np.array(hull).T
    widths = np.diff(ends).astype(int)
    # Start t of q lies on the edge from i to i + k with t in [i, i + k).
    first = np.repeat(ends[:-1], widths)
    log_radius = np.repeat(-np.diff(heights) / widths, widths) / power
    t = np.arange(n)
    angle = 2.0 * np.pi * ((t - first) / np.repeat(widths, widths) + first / n) + 0.45
    turns = 2.0 * np.pi * np.arange(g)[:, None]
    return np.exp((log_radius + 1j * (angle + turns)) / g).ravel()


def _newton_and_residual(
    z: np.ndarray, asc: np.ndarray, d_asc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(p/p', relative backward error |p| / sum_i |a_i| |z|**i) at each z.

    The relative backward error is the scale a double-precision evaluation
    can resolve: at an exact root the computed |p(z)| is roundoff of size
    ~deg * eps * sum_i |a_i||z|**i, so the ratio bottoms out near deg * eps
    whatever the coefficient magnitudes.  Overflow-safe for |z| > 1 via
    w = 1/z and the reversed coefficients: p(z) = z**deg * q(w) and
    p'(z) = z**(deg - 1) * r(w), where q and r have the reversed
    coefficients of p and p', so p/p' = z * q(w)/r(w) with no subtraction,
    and the ratio is |q(w)| / sum |a~_i||w|**i.

    Each side of |z| = 1 is evaluated by ``_power_eval`` at x = z or x = w,
    so |x| <= 1.  Its power x**i carries at most i roundings, the same order
    as Horner's rule.
    """
    newton = np.empty_like(z)
    res = np.empty(len(z))
    small = np.abs(z) <= 1.0
    for side, x, cs, d_cs in (
        (small, z[small], asc, d_asc),
        (~small, 1.0 / z[~small], asc[::-1], d_asc[::-1]),
    ):
        p, dp, mag = _power_eval(x, cs, d_cs)
        res[side] = np.abs(p) / mag
        newton[side] = p / np.where(dp == 0, 1e-300, dp)
    newton[~small] *= z[~small]
    return newton, res


def _power_eval(
    x: np.ndarray, cs: np.ndarray, d_cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p(x), p'(x) and sum_i |c_i||x|**i at each x, for |x| <= 1.

    ``cs`` are p's ascending coefficients and ``d_cs`` those of p'.  The
    powers V[k, i] = x_k**i come from one running product along each row,
    so no Python loop runs over the degree; |x| <= 1 keeps them from
    overflowing.
    """
    V = np.empty((len(x), len(cs)), dtype=complex)
    V[:, 0] = 1.0
    V[:, 1:] = x[:, None]
    np.cumprod(V, axis=1, out=V)
    return V @ cs, V[:, :-1] @ d_cs, np.abs(V) @ np.abs(cs)


class _Evaluation(NamedTuple):
    """One fixed-point pass: p(z) * 2**F = pr + pi*i and p'(z) * 2**F = qr + qi*i.

    z = (A + B*i) / 2**e is the double the pass evaluated at; both values are
    proven to 2**-64 relative (``_newton_step``).
    """

    pr: int
    pi: int
    qr: int
    qi: int
    A: int
    B: int
    e: int
    F: int

    def conjugate(self) -> _Evaluation:
        """The pass at conj(z): p has real coefficients, so p(conj z) = conj p(z)."""
        return self._replace(pi=-self.pi, qi=-self.qi, B=-self.B)


def _certify_newton(
    ics: Sequence[int], z: complex
) -> tuple[complex, bool, _Evaluation | None]:
    """Newton corrections of the double z by ``_newton_step`` until converged.

    Returns (z, converged, last), where ``last`` is the fixed-point pass of
    the last step (None if none was taken).  The step is p/p' to about
    2**-63 relative, so the only residual error is float rounding when the
    iterate is rounded back to a double after each step.  Converged means the last step was at
    rounding level, 1e-14 * (1 + |z|), within ``_NEWTON_STEPS`` steps (at
    once at an exact root).  ``find_roots`` only passes square-free p, and
    Newton converges quadratically near a simple root, so each step from an
    Aberth iterate close to its root is far below half the one before.  The
    attempt stops at the first step that does not at least halve, or that
    does not exist (p'(z) = 0 off a root): such a start is not yet in the
    root's quadratic basin, and a root still moving after ``_NEWTON_STEPS``
    steps is not resolved by the float iteration; the caller must not
    return either.

    Each pass after the first starts at the F that the pass before shows it
    needs (``_next_precision``), so the pass at a point within rounding of
    the root is not first tried, and refused, at F = 128.
    """
    deg = len(ics) - 1
    limit = math.inf
    F = 128
    last = None
    for _ in range(_NEWTON_STEPS):
        step, last = _newton_step(ics, z, F)
        size = abs(step)
        if not size <= limit:  # also a NaN step
            break
        z -= step
        if size <= 1e-14 * (1.0 + abs(z)):
            return z, True, last
        limit = size / 2
        F = _next_precision(deg, z, last)
    return z, False, last


def _bits_needed(deg: int, z: complex) -> float:
    """log2 of sqrt(2) * n * M**n * 2**64, plus one bit of slack for the float logs.

    The bit length a pass's p(z) * 2**F must reach for ``_newton_step`` to
    accept it, with M = max(1, |z|).
    """
    return deg * math.log2(max(1.0, abs(z))) + math.log2(deg) + 65.5


def _next_precision(deg: int, z: complex, last: _Evaluation) -> int:
    """The F at which the pass at the next iterate z should pass ``_newton_step``'s test.

    A step at rounding level leaves z within about |z| * 2**-53 of the root,
    and rarely much closer, so |p(z)| is about |p'| * |z| * 2**-53, with |p'|
    read off the previous pass (|qr + qi*i| >= 2**(b - 1) for the larger
    bit length b).  p(z) * 2**F then has the ``_bits_needed`` bits once F >=
    need - log2|p'| + 53 - log2|z|; 11 more bits cover an iterate up to
    2**-64 * |z| from the root.  Never below 128.  A start F only saves
    refused passes: the acceptance test and the doubling are
    ``_newton_step``'s.
    """
    log_dp = max(last.qr.bit_length(), last.qi.bit_length()) - 1 - last.F
    log_z = math.log2(abs(z)) if z else 0.0
    return max(128, math.ceil(_bits_needed(deg, z) - log_dp + 64 - log_z))


def _newton_step(
    ics: Sequence[int], z: complex, F: int = 128
) -> tuple[complex, _Evaluation]:
    """(p(z) / p'(z), pass): p and p' evaluated in fixed point to a proven bound.

    ``ics`` are p's coefficients times a common denominator, ascending, and
    n = deg p.  A double is a dyadic rational, so z = (A + B*i) / 2**e with
    integers A and B; ``_fixed_horner`` then returns p(z) * 2**F and
    p'(z) * 2**F with each part floored after every multiplication by z.
    Each floor errs by less than sqrt(2) units, so with M = max(1, |z|) the
    a priori Horner bounds (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Sec. 5.1) are, in units of 2**-F,

        |err p|  <= sqrt(2) * sum_{k<n} |z|**k  <= sqrt(2) * n * M**n,
        |err p'| <= sqrt(2) * n**2 * M**n.

    An evaluation is accepted when both bounds are at most 2**-64 of the
    computed |p| and |p'|, compared in log2 so that neither a large |z| nor
    a large n can overflow; otherwise F doubles from the start ``F``
    (128 unless the caller knows the point needs more).  Once F >= e * n
    no floor truncates and the pass is exact, so the loop ends, and an
    exact root gives the step 0.  The quotient is one correctly rounded int
    division.  When p'(z) is exactly zero the step is 0 if p(z) is too (a
    multiple root) and NaN otherwise, since no Newton step exists there.
    The accepted pass comes back with the step, for ``_next_precision`` and
    ``_inverse_root``.
    """
    deg = len(ics) - 1
    ar, dr = z.real.as_integer_ratio()
    ai, di = z.imag.as_integer_ratio()
    D = max(dr, di)  # both denominators are powers of two
    A = ar * (D // dr)
    B = ai * (D // di)
    e = D.bit_length() - 1
    need_p = _bits_needed(deg, z)
    need_q = need_p + math.log2(deg)
    while True:
        pr, pi, qr, qi = _fixed_horner(ics, A, B, e, F)
        # The larger part of an int x + y*i with bit length b has |.| >= 2**(b - 1).
        if F >= e * deg or (
            max(pr.bit_length(), pi.bit_length()) - 1 >= need_p
            and max(qr.bit_length(), qi.bit_length()) - 1 >= need_q
        ):
            break
        F *= 2
    last = _Evaluation(pr, pi, qr, qi, A, B, e, F)
    # The 2**F scalings cancel in the quotient.
    if qr == qi == 0:
        return (0j if pr == pi == 0 else complex(math.nan, 0.0)), last
    return _quotient(pr, pi, qr, qi), last


def _quotient(nr: int, ni: int, dr: int, di: int) -> complex:
    """(nr + ni*i) / (dr + di*i) for ints, each part correctly rounded; dr + di*i != 0."""
    den = dr * dr + di * di
    # int / int rounds correctly and skips the gcd a Fraction would take.
    return complex((nr * dr + ni * di) / den, (ni * dr - nr * di) / den)


def _inverse_root(deg: int, last: _Evaluation) -> tuple[complex, bool] | None:
    """(w, certified): one exact Newton step at w0 = 1/z on a palindromic p, from its pass at z.

    A palindromic p of degree n has p(x) = x**n * p(1/x), so its values at
    w0 come from the pass ``last`` at z = Z / 2**e, Z = A + B*i, with P =
    p(z) * 2**F and Q = p'(z) * 2**F: p(w0) = z**-n * p(z) and p'(w0) =
    z**(1-n) * (n*p(z) - z*p'(z)).  The Newton step at w0 and the next
    iterate are Gaussian-integer quotients,

        t      = P * 2**(2e) / den,
        w0 - t = 2**e * ((n - 1) * 2**e * P - Z*Q) / den,
        den    = Z * (n * 2**e * P - Z*Q),

    each part correctly rounded, as in ``_newton_step``; no Horner pass is
    made.  With P and Q to 2**-64 relative and rho = n|p(z)| / (|z||p'(z)|),
    den is within 2**-64 * (1 + 2*rho) / (1 - rho) of its exact value,
    relative, for rho < 1; near a root rho is tiny, so t is accurate to
    about 2**-63 relative, like the step of ``_newton_step``.  Certified
    means |t| <= 1e-14 * (1 + |w|), ``_certify_newton``'s test for its last
    step.  A real z gives a real w, with imaginary part exactly 0.0.  None
    when den is 0 (z = 0, or p'(w0) = 0): there is no step.
    """
    pr, pi, qr, qi, A, B, e, _ = last
    # Z*P and Z*Q.
    zpr, zpi = A * pr - B * pi, A * pi + B * pr
    zqr, zqi = A * qr - B * qi, A * qi + B * qr
    dr = ((deg * zpr) << e) - (A * zqr - B * zqi)
    di = ((deg * zpi) << e) - (A * zqi + B * zqr)
    if dr == di == 0:
        return None
    t = _quotient(pr << 2 * e, pi << 2 * e, dr, di)
    nr = (((deg - 1) * pr) << e) - zqr
    ni = (((deg - 1) * pi) << e) - zqi
    w = _quotient(nr << e, ni << e, dr, di)
    return w, abs(t) <= 1e-14 * (1.0 + abs(w))


def _fixed_horner(
    ics: Sequence[int], A: int, B: int, e: int, F: int
) -> tuple[int, int, int, int]:
    """p(z) * 2**F and p'(z) * 2**F at z = (A + B*i) / 2**e, as (re, im, re', im').

    One fused Horner pass for integer coefficients; every product with
    A + B*i is shifted right by e, which floors each part.  Exact once
    F >= e * deg; ``_newton_step`` states the error bounds below that.
    """
    pr, pi = ics[-1] << F, 0
    qr = qi = 0
    for c in reversed(ics[:-1]):
        qr, qi = ((qr * A - qi * B) >> e) + pr, ((qr * B + qi * A) >> e) + pi
        pr, pi = ((pr * A - pi * B) >> e) + (c << F), (pr * B + pi * A) >> e
    return pr, pi, qr, qi


# Square-free decomposition: exact, on integer polynomials as ascending
# coefficient lists; [] is the zero polynomial.


def _derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _subtract(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    r = [x - y for x, y in zip([*a, *[0] * (n - len(a))], [*b, *[0] * (n - len(b))])]
    while r and r[-1] == 0:
        r.pop()
    return r


def _primitive(a: Sequence[int]) -> list[int]:
    """a over the gcd of its coefficients, with a positive leading one."""
    g = math.gcd(*a)
    return [c // g if a[-1] > 0 else -c // g for c in a]


def _word_primes() -> Iterator[int]:
    """Every prime below 2**31, descending: a product of two residues fits in an int64.

    Miller-Rabin with the bases 2, 7 and 61 is exact below 4,759,123,141
    (Jaeschke, *Math. Comp.* 61 (1993)); a power a**d that is 0 means n is 7
    or 61.
    """
    for n in range(2**31 - 1, 2, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
        for a in (2, 7, 61):
            x = pow(a, (n - 1) >> s, n)
            if x in (0, 1):
                continue
            for _ in range(s):
                if x == n - 1:
                    break
                x = x * x % n
            else:
                break  # a witnesses that n is composite
        else:
            yield n


def _monic_gcd_mod(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """The monic gcd of a and b modulo the prime q, ascending, for q not dividing lc(a).

    Euclid's algorithm runs on int64 arrays of residues, one array operation
    per elimination.
    """
    # Descending residues, so u[0] is the leading coefficient.
    u = np.array([c % q for c in reversed(a)], dtype=np.int64)
    v = np.array([c % q for c in reversed(b)], dtype=np.int64)
    while True:
        # Drop v's leading zeros; a remainder rarely has more than one.
        lead = 0
        while lead < len(v) and v[lead] == 0:
            lead += 1
        v = v[lead:]
        if not len(v):
            break
        n = len(v)
        inv = pow(int(v[0]), -1, q)
        while len(u) >= n:
            f = int(u[0]) * inv % q
            u[1:n] -= f * v[1:]
            u[1:n] %= q
            u = u[1:]
        u, v = v, u
    inv = pow(int(u[0]), -1, q)
    return [int(c) * inv % q for c in reversed(u)]


def _int_gcd(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """(h, a / h, b / h): the primitive gcd h of a != 0 and b over Z, and the cofactors.

    h is [1] when a and b are coprime.

    Brown's modular algorithm (Brown, *J. ACM* 18 (1971)).  Modulo a prime
    that divides neither leading coefficient, h keeps its degree and divides
    both reductions, so the monic gcd there has degree >= deg h, with
    equality for all but finitely many primes; primes above the least degree
    seen are skipped.  The gcds of least degree, scaled to l = gcd(lc a, lc b),
    a multiple of lc h, are combined by CRT until the primitive part of the
    symmetric residues divides a and b exactly: a common divisor of degree
    >= deg h is h.  A coprime pair ends on the first prime with degree 0.
    The exact divisions that prove h give the cofactors.
    """
    if not b:
        h = _primitive(a)
        return h, [a[-1] // h[-1]], []
    lead = math.gcd(a[-1], b[-1])
    residues: list[int] = []
    modulus = 1
    for q in _word_primes():
        if a[-1] % q == 0 or b[-1] % q == 0:
            continue
        g = _monic_gcd_mod(a, b, q)
        if residues and len(g) > len(residues):
            continue
        if len(g) != len(residues):  # the first prime, or the earlier ones were unlucky
            residues, modulus = [0] * len(g), 1
        # x = r mod modulus and x = l * g mod q, by Garner's step.
        lift, scale = pow(modulus, -1, q), lead % q
        residues = [
            r + modulus * ((scale * c - r) * lift % q) for r, c in zip(residues, g)
        ]
        modulus *= q
        candidate = _primitive([r - modulus if 2 * r > modulus else r for r in residues])
        try:
            return candidate, _exact_quotient(a, candidate), _exact_quotient(b, candidate)
        except ArithmeticError:
            continue
    raise ArithmeticError("ran out of word-size primes")


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for integer polynomials where b is primitive and divides a over Q.

    By Gauss's lemma the quotient has integer coefficients; a nonzero
    remainder raises ArithmeticError.
    """
    r = list(a)
    quotient = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        f, rest = divmod(r[shift + len(b) - 1], b[-1])
        if rest:
            raise ArithmeticError("polynomial division is not exact")
        quotient[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return quotient


def _squarefree_parts(ics: Sequence[int]) -> list[tuple[list[int], int]]:
    """[(a_k, k), ...] with p = c * Prod_k a_k**k, each a_k square-free and nonconstant.

    Yun's algorithm (Yun, *On square-free decomposition algorithms*, SYMSAC
    1976) over Z: the a_k are pairwise coprime, so every root of p is a
    simple root of exactly one a_k, and k is its multiplicity.  Each gcd is
    ``_int_gcd``, whose cofactors the loop continues with; for a square-free
    p the first is normally one modular Euclid pass.
    """
    _, c, d = _int_gcd(ics, _derivative(ics))
    parts, k = [], 1
    while len(c) > 1:
        d = _subtract(d, _derivative(c))
        a, c, d = _int_gcd(c, d)
        if len(a) > 1:
            parts.append((a, k))
        k += 1
    return parts


# The sweeps have converged when every relative backward error is below this.
_TOL = 1e-10
# The budget of Aberth sweeps per square-free part.
_MAX_ITER = 500
# The budget of exact Newton steps per root in the certification.
_NEWTON_STEPS = 8
# The iteration gives up after this many sweeps with no newly certified root.
_GIVE_UP = 4
# Graeffe root-squarings before the Newton polygon of the starts.
_GRAEFFE_STEPS = 3


def _certified_simple_roots(ics: Sequence[int]) -> tuple[np.ndarray, str | None]:
    """(iterates, failure): ``find_roots``' iteration on a square-free p.

    ``ics`` are p's integer coefficients, ascending, with both ends nonzero
    and degree >= 1.  ``failure`` is None when every iterate is a certified
    root, else the reason it is not.

    The iterates start from ``_newton_polygon_start``: on the bundled
    fixtures the k-th smallest start modulus is 0.91 to 1.09 times the k-th
    smallest root modulus.  Certification, not a sweep count, ends the
    iteration.  Aberth sweeps run until the relative backward error of every
    pending iterate is below ``_TOL``, and then ``_certify_pending``
    certifies what it can.  A certified root stays fixed and still repels
    the others; only the pending iterates take further sweeps, each followed
    by another certification while they stay below ``_TOL``.  An
    ill-conditioned root that does not certify when the test first passes
    usually does a few sweeps later, against exact neighbours.  The loop
    ends when every root is certified, ``_GIVE_UP`` sweeps after the last
    newly certified root (or after the first certification, if it
    certified none), or after ``_MAX_ITER`` sweeps.
    """
    deg = len(ics) - 1
    try:
        asc = np.array([float(c) for c in ics], dtype=np.float64)
    except OverflowError:
        raise CapabilityError(
            f"a coefficient of a degree-{deg} square-free factor has "
            f"{max(abs(c) for c in ics).bit_length()} bits; the double-precision "
            "iteration takes coefficients below 2**1024"
        ) from None
    # Scale to unit maximum coefficient magnitude; the roots and the
    # relative residual are unchanged, the float range headroom improves.
    asc /= np.abs(asc).max()
    coeffs = (asc, asc[1:] * np.arange(1, deg + 1, dtype=np.float64))

    z = _newton_polygon_start(ics)
    done = np.zeros(deg, dtype=bool)
    passes: list[_Evaluation | None] = [None] * deg
    palindromic = list(ics) == list(reversed(ics))
    last = None  # the sweep of the first certification or of the last new root
    for sweep in range(_MAX_ITER):
        todo = np.flatnonzero(~done)
        newton, res = _newton_and_residual(z[todo], *coeffs)
        if float(res.max()) < _TOL:
            if _certify_pending(ics, z, done, todo, palindromic, passes) > 0 or last is None:
                last = sweep
            if done.all():
                return z, None
            keep = ~done[todo]
            todo, newton = todo[keep], newton[keep]
        if last is not None and sweep - last >= _GIVE_UP:
            break
        # The Aberth step of each pending iterate, repelled by every other;
        # an iterate on top of another gets no finite step and stays put.
        diff = z[todo, None] - z[None, :]
        diff[np.arange(len(todo)), todo] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            repulsion = (1.0 / diff).sum(axis=1)
            denom = 1.0 - newton * repulsion
            denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            step = newton / denom
        z[todo] -= np.where(np.isfinite(step), step, 0.0)
    if last is None:
        _, res = _newton_and_residual(z, *coeffs)
        return z, (
            f"root finding did not reach residual {_TOL} within {_MAX_ITER} "
            f"iterations (worst residual {float(res.max()):.3e})"
        )
    return z, (
        f"{deg - int(done.sum())} of {deg} roots did not certify under exact "
        "Newton steps; the double-precision iteration cannot resolve this polynomial"
    )


def _certify_pending(
    ics: Sequence[int],
    z: np.ndarray,
    done: np.ndarray,
    todo: np.ndarray,
    palindromic: bool,
    passes: list[_Evaluation | None],
) -> int:
    """Certify the pending iterates z[todo] in place; return how many were certified.

    Certification: double-precision evaluation noise caps the attainable
    accuracy of a root with condition number kappa at about eps * kappa,
    which for the largest inputs is worse than the root spacing downstream
    consumers rely on.  Each root gets Newton corrections whose p/p' is
    accurate to about 2**-63 relative (``_newton_step``) until the step is
    at rounding level, which lands on the true root to within float
    rounding; ``z`` and ``done`` take each certified root, and an iterate
    that does not certify keeps its Aberth value, since Newton may have
    wandered off.  ``passes`` keeps, per certified root, the fixed-point
    pass of its last Newton step (None for a root certified without one).

    p has real coefficients, so p(conj z) = conj p(z) and the exact Newton
    step at conj(r) is the conjugate of the step at r: conj(r) is certified
    exactly when r is.  Iterate k's partner is the iterate nearest to
    conj(z_k).  The first of a mutual pending pair is certified and the
    second takes the conjugate, and the conjugated pass; a real root is its
    own partner, and it and an iterate whose partner does not pair back are
    certified on their own.
    A real root's Newton steps start from the real part of its start: from
    a real point they stay real, so the root's imaginary part comes out
    exactly 0.0.

    The iterates with |z| <= 1 are certified first.  A palindromic p has
    1/r as a root with r.  An iterate whose inversion partner (each is the
    other's nearest iterate to its inverse) is already certified, from a
    pass at z, takes the exact Newton step at 1/z from that pass
    (``_inverse_root``): it is certified when that step is at rounding
    level, with no pass of its own, and otherwise its Newton steps start
    from the iterate the step gives (from 1/r when the partner has no pass
    or there is no step).  A real iterate takes the derived root only when
    it is exactly real.  On the unit circle the inversion partner is the
    conjugate partner, still pending, and the iterate starts from itself.

    A square-free p has no repeated root, so two certified roots within
    rounding of each other (a start that drifted to a neighbouring root)
    both go back to pending; the count returned is net of them.
    """
    deg = len(ics) - 1
    old = np.flatnonzero(done)
    w = z[todo]
    row = np.full(len(z), -1)
    row[todo] = np.arange(len(todo))
    partner = np.abs(z[None, :] - w.conj()[:, None]).argmin(axis=1)
    if palindromic:
        inverse = np.abs(z[None, :] - (1.0 / z)[:, None]).argmin(axis=1)
    handled = np.zeros(len(todo), dtype=bool)
    fresh = []
    for a in np.argsort(np.abs(w) > 1.0, kind="stable"):
        if handled[a]:
            continue
        k, j = todo[a], partner[a]
        b = row[j]
        mirror = j != k and b >= 0 and partner[b] == k
        handled[a] = True
        if mirror:
            handled[b] = True
        start, derived = complex(w[a]), False
        if palindromic:
            s = inverse[k]
            if s != k and inverse[s] == k and done[s]:
                step = None if passes[s] is None else _inverse_root(deg, passes[s])
                start, derived = step or (1.0 / complex(z[s]), False)
        if derived and (j != k or start.imag == 0):
            r, ok, last = start, True, None
        else:
            if j == k:
                start = complex(start.real, 0.0)
            r, ok, last = _certify_newton(ics, start)
        if not ok:
            continue
        z[k], done[k], passes[k] = r, True, last
        fresh.append(k)
        if mirror:
            z[j], done[j] = r.conjugate(), True
            passes[j] = None if last is None else last.conjugate()
            fresh.append(j)
    if not fresh:
        return 0
    # Two certified roots within rounding of each other are one root, so
    # both go back to pending: a fresh one at its Aberth value, an earlier
    # one at its certified value.
    fresh = np.array(fresh)
    ids = np.concatenate([old, fresh])
    f = z[fresh]
    near = np.abs(f[:, None] - z[ids][None, :]) <= 1e-14 * (1.0 + np.abs(f))[:, None]
    near[np.arange(len(fresh)), len(old) + np.arange(len(fresh))] = False
    hit = near.any(axis=0)
    hit[len(old) :] |= near.any(axis=1)
    back = ids[hit]
    done[back] = False
    for i in back:
        passes[i] = None
    back = back[row[back] >= 0]
    z[back] = w[row[back]]
    return len(fresh) - int(hit.sum())


def find_roots(poly: LaurentPoly) -> list[complex]:
    """All complex roots of an ordinary polynomial (min_deg >= 0), degree >= 1.

    Roots are listed with multiplicity.  The integer numerators are first
    split exactly into square-free parts (``_squarefree_parts``), so the
    iteration only ever meets simple roots, and a root of multiplicity k is
    found once and listed k times.  On each part: Aberth-Ehrlich
    simultaneous iteration on double-precision coefficients, started on the
    circles of the Newton polygon (Bini 1996) of the part after three
    Graeffe root-squarings, which spread the root moduli apart so that each
    circle lies close to the size of the roots its hull edge accounts for;
    a part that is a polynomial q(x**g) gets the g-th roots of q's starts
    (``_newton_polygon_start``).  Every returned root is certified, so the
    starts change only how many sweeps the iteration takes.  Each sweep
    evaluates p/p' and the relative backward error
    |p(r)| / sum_i |a_i||r|**i of all iterates from one power matrix per side
    of |r| = 1 (``_newton_and_residual``).  Once every backward error is
    below ``_TOL``, every root is certified by Newton steps with p and p'
    evaluated on the integer coefficients in fixed point to a proven error
    bound (exact in the limit), repeated until the step is at rounding
    level, which leaves the root accurate to float rounding.  Certification
    ends the iteration: certified roots stay fixed, and only the iterates
    that did not certify take more sweeps and are certified again, until
    ``_GIVE_UP`` sweeps pass with no newly certified root
    (``_certified_simple_roots``).  Each conjugate pair of iterates is
    certified once: p has real coefficients, so the exact Newton step at
    conj(r) is the conjugate of the step at r, and the other member of the
    pair takes the exact conjugate of the certified r.  On a palindromic
    part the roots inside the unit circle are certified first, and each
    outer root takes the exact Newton step at 1/z from the last pass of its
    certified inverse, made at z, with p(x) = x**n * p(1/x): a step at
    rounding level certifies it with no pass of its own, and otherwise its
    Newton steps start from the iterate that step gives.  Each pass after
    the first of a root starts at the precision the pass before shows it
    needs, so a pass is rarely refused and redone.
    A certified root that repeats another is sent back to the sweeps, so no
    root of a part is returned twice.  RootFindingError, carrying the best
    iterates sorted like the result, is raised when the sweeps do not
    converge within ``_MAX_ITER`` or when some root does not certify before
    the iteration gives up; the latter happens on cores (such as the S_16
    identity core) whose roots double precision cannot separate.
    CapabilityError is raised when a coefficient of a square-free part does
    not fit in a double.  Results are sorted by (real, imag).
    """
    if poly.min_deg < 0:
        raise ValueError("find_roots expects an ordinary polynomial (min_deg >= 0)")
    # Roots of the monomial-shifted polynomial part: X = 0 with multiplicity
    # min_deg, plus the roots of the coefficient vector.
    roots = [0j] * poly.min_deg
    cs = poly.numers
    if len(cs) < 2:
        if not roots:
            raise ValueError("find_roots requires degree >= 1")
        return roots
    failures = []
    for ics, mult in _squarefree_parts(cs):
        z, failure = _certified_simple_roots(ics)
        roots += [complex(v) for v in z for _ in range(mult)]
        if failure:
            failures.append(failure)
    roots.sort(key=lambda r: (r.real, r.imag))
    if failures:
        raise RootFindingError("; ".join(failures), roots)
    return roots
