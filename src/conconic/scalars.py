"""Scalar backends shared by every predicate.

Two kinds of number flow through the package: exact rationals (``int`` and
``fractions.Fraction``) and IEEE floats.  A value tuple is *exact* when all
entries are rational; any float member switches the whole object to the float
backend.  Every zero test goes through ``is_zero``, which reads the backend
from the computed value itself: arithmetic with any float operand yields a
float, so a non-float value was computed from exact inputs only and is zero
only when it ``== 0``, while a float value is zero relative to a scale,
``|x| <= eps * scale``, that each predicate supplies and that is only
computed on the float path.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction, float]

DEFAULT_EPS = 1e-9
DEFAULT_CLOSURE_TOL = 1e-7

_FLOAT_MAX = sys.float_info.max


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    for v in values:
        if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
            return False
    return True


def div(a: Scalar, b: Scalar) -> Scalar:
    """Field division that never silently leaves the exact backend."""
    if is_exact(a) and is_exact(b):
        return Fraction(a, b)
    return a / b


def near_zero(x: float, scale: float, eps: float) -> bool:
    return abs(x) <= eps * max(scale, 1e-300)


def is_zero(x: Scalar, eps: float, scale: Callable[[], float]) -> bool:
    """The zero test of every predicate, in the backend of ``x`` itself.

    A float ``x`` is zero relative to ``scale()``, which is called once and
    only here; any other ``x`` is exact and zero only when it equals 0.
    """
    if isinstance(x, float):
        return near_zero(x, scale(), eps)
    return x == 0


def exact_sqrt(x: Scalar) -> Optional[Fraction]:
    """Square root of a rational, or None when it is not a perfect square."""
    f = Fraction(x)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        return None
    return Fraction(rn, rd)


# ints past this many bits (over 3,000 digits) are described, not printed:
# ``str`` of one past 4,300 digits raises under the interpreter's default limit
_PRINTABLE_INT_BITS = 10_000


def brief_repr(value) -> str:
    """``repr(value)``, or past 40 characters its ends and ``len(str(value))``.

    An ``int`` past ``_PRINTABLE_INT_BITS`` bits becomes its sign and its
    approximate digit count, read from ``bit_length`` without ``str``.
    """
    if isinstance(value, int) and value.bit_length() > _PRINTABLE_INT_BITS:
        digits = int(value.bit_length() * math.log10(2)) + 1
        return f"{'a negative' if value < 0 else 'an'} integer of about {digits} digits"
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:20]}...{text[-6:]} ({len(str(value))} characters)"


def parse_scalar(text: Union[str, int], exact: bool) -> Scalar:
    """Parse "p/q", integer, or decimal notation (or an ``int``) into the
    requested backend.  An integer or "p/q" with runs of more digits than
    the interpreter converts to an ``int`` (``sys.get_int_max_str_digits``),
    as ``format_scalar`` writes them, is read by ``_int_from_digits``.
    Raises ``ValueError`` naming ``text`` when it is not a number, when it
    is a decimal or exponent form past that limit, or when the float
    backend cannot hold it."""
    try:
        value = Fraction(text.strip() if isinstance(text, str) else text)
    except (ValueError, ZeroDivisionError) as err:
        # the interpreter's digit limit, worded as in its documentation
        if "for integer string conversion" not in str(err):
            raise ValueError(f"cannot parse {brief_repr(text)} as a number") from None
        match = _LONG_RATIONAL.fullmatch(text.strip())
        if match is None:
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{brief_repr(text)} has more digits than the interpreter converts ({limit:,})") from None
        sign, num, den = match.groups()
        try:
            value = Fraction(_int_from_digits(num), _int_from_digits(den or "1"))
        except ZeroDivisionError:
            raise ValueError(f"cannot parse {brief_repr(text)} as a number") from None
        if sign == "-":
            value = -value
    if exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{brief_repr(text)} is too large for a float") from None


# an integer or "p/q" as format_scalar writes it
_LONG_RATIONAL = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")


def _int_from_digits(digits: str) -> int:
    """``int(digits)`` of a run of decimal digits of any length: past the
    interpreter's digit limit, the high and low halves are read apart and
    joined by a power of 10 (divide and conquer, Knuth TAOCP 2, 4.4)."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _int_from_digits(digits[:-half]) * 10**half + _int_from_digits(digits[-half:])


def _int_to_digits(n: int) -> str:
    """``str(n)`` of an ``int`` of any size: past the interpreter's digit
    limit, the quotient and remainder by a power of 10 of about half its
    digits are written apart, the low half padded with zeros to that power
    (divide and conquer, Knuth TAOCP 2, 4.4).  Never lifts the limit."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_to_digits(-n)
        half = int(n.bit_length() * math.log10(2)) // 2
        high, low = divmod(n, 10**half)
        return _int_to_digits(high) + _int_to_digits(low).rjust(half, "0")


# an exact canonical tuple past this many bits is scaled before it meets a
# float: a float past 2**512 overflows when squared, and a conic's Gram
# matrix doubles its coefficients
FLOAT_BITS = 500


def float_scaled(values: tuple) -> tuple:
    """A canonical tuple as it may meet a float: ``values`` itself, unless it
    is all ``int`` with an entry past ``FLOAT_BITS`` bits.  Such a tuple is
    divided by one power of two, which brings its largest entry to
    ``FLOAT_BITS`` bits, and comes back as correctly rounded floats.  That
    is exact in projective terms: the point, line or conic is the same.
    """
    if type(values[0]) is int:
        bits = max([v.bit_length() for v in values])
        if bits > FLOAT_BITS:
            scale = 1 << (bits - FLOAT_BITS)
            return tuple([v / scale for v in values])
    return values


def format_scalar(x: Scalar) -> str:
    if isinstance(x, float):
        return repr(x)
    f = Fraction(x)
    if f.denominator == 1:
        return _int_to_digits(f.numerator)
    return f"{_int_to_digits(f.numerator)}/{_int_to_digits(f.denominator)}"


def canonical_triple(x: Scalar, y: Scalar, z: Scalar) -> tuple:
    """Canonical representative of the homogeneous triple (x : y : z).

    The one rule for the coordinates of every point and line.  Three
    floats are checked finite (each magnitude, taken once, at most the
    largest float: a comparison that infinity and NaN fail), then divided
    by the first component of largest magnitude, which pins it to exactly
    +1.0, so canonicalizing a canonical float triple returns it bit for
    bit.  Three ints are divided by one gcd, signed so that the first
    nonzero entry (``x or y or z``) is positive, and floor division only
    runs when that signed gcd is not 1.  Any other triple (a ``Fraction``,
    a ``bool``, mixed types) takes the generic rule of ``canonical_tuple``.
    Raises ``ValueError`` on a non-finite float entry and on an all-zero
    triple.
    """
    tx = type(x)
    if tx is float:
        if type(y) is float and type(z) is float:
            ax, ay, az = abs(x), abs(y), abs(z)
            if not (ax <= _FLOAT_MAX and ay <= _FLOAT_MAX and az <= _FLOAT_MAX):
                raise ValueError("non-finite homogeneous coordinate")
            pivot, m = x, ax
            if ay > m:
                pivot, m = y, ay
            if az > m:
                pivot, m = z, az
            if m == 0.0:
                raise ValueError("homogeneous coordinates cannot all be zero")
            return (x / pivot, y / pivot, z / pivot)
    elif tx is int and type(y) is int and type(z) is int:
        g = math.gcd(x, y, z)
        if g == 0:
            raise ValueError("homogeneous coordinates cannot all be zero")
        if (x or y or z) < 0:
            g = -g
        return (x, y, z) if g == 1 else (x // g, y // g, z // g)
    return _canonical_generic([x, y, z])


def canonical_tuple(values: Sequence[Scalar]) -> tuple:
    """Canonical representative of a homogeneous coordinate tuple.

    Rational entries: clear denominators in integer arithmetic (an
    all-``int`` tuple has none), divide by the gcd, and make the first
    nonzero entry positive, so equality up to scale becomes plain tuple
    equality.  An exact canonical tuple is therefore all ``int`` and a float
    one all ``float``: its first entry's type names its backend, and two
    exact tuples agree up to scale exactly when they are equal.  Float
    entries: divide by the first component of largest magnitude, which pins
    that component to exactly +1.0.  A tuple with any float member is a
    float tuple; one that starts with a float goes there without the exact
    scans.  Conic coefficient 6-tuples are its own work; a triple is handed
    to ``canonical_triple``, the one rule for points and lines.
    """
    vals = list(values)
    if len(vals) == 3:
        return canonical_triple(*vals)
    return _canonical_generic(vals)


_INT_ONLY = frozenset((int,))


def _canonical_generic(vals: list) -> tuple:
    """The generic rule of ``canonical_tuple`` on a list of any length."""
    if not vals:
        raise ValueError("empty coordinate tuple")
    if type(vals[0]) is not float:
        if set(map(type, vals)) == _INT_ONLY:
            return _reduced(vals)
        if all_exact(vals):
            denom_lcm = math.lcm(*(v.denominator for v in vals))
            return _reduced([v.numerator * (denom_lcm // v.denominator) for v in vals])
    floats = list(map(float, vals))
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite homogeneous coordinate")
    pivot = m = 0.0
    for v in floats:
        if abs(v) > m:
            pivot, m = v, abs(v)
    if m == 0.0:
        raise ValueError("homogeneous coordinates cannot all be zero")
    return tuple([v / pivot for v in floats])


def _reduced(ints: Sequence[int]) -> tuple:
    """``ints`` divided by their gcd, signed so the first nonzero is positive."""
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("homogeneous coordinates cannot all be zero")
    for lead in ints:
        if lead:
            break
    if lead < 0:
        g = -g
    if g == 1:
        return tuple(ints)
    return tuple([v // g for v in ints])
