"""Arithmetic in GF(2^m), 1 <= m <= 16, with a user-supplied reduction polynomial.

Field elements are plain unsigned ints: bit k of the int is the coefficient
of x^k in the residue polynomial.  The zero and one elements are the ints
0 and 1, and addition is XOR.  A `GF2m` instance carries the reduction
polynomial and the log/antilog tables used for fast multiplication; all of
its operations are pure functions of their int arguments, so instances are
safe to share across processes.

Polynomials over GF(2) are also encoded as ints, e.g. 0x11D =
x^8 + x^4 + x^3 + x^2 + 1; `is_irreducible` decides the reduction
polynomial by trial division, and `GF2m.mul_raw` is the one
shift-and-reduce product, which builds the tables.
"""

from __future__ import annotations


class FieldError(ValueError):
    """Base class for field construction and arithmetic errors."""


class DegreeMismatch(FieldError):
    """Reduction polynomial does not have degree exactly m."""


class Reducible(FieldError):
    """Reduction polynomial is not irreducible over GF(2)."""


class ZeroInverse(FieldError):
    """Multiplicative inverse of zero requested."""


class OutOfRange(FieldError):
    """Element value does not fit in the field."""


class BadSyntax(FieldError):
    """Malformed element literal."""


MAX_DEGREE = 16


def _poly_mod(a: int, mod: int) -> int:
    """Remainder of polynomial division over GF(2)."""
    width = mod.bit_length()
    while a.bit_length() >= width:
        a ^= mod << (a.bit_length() - width)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(poly: int, m: int) -> bool:
    """Whether poly, of degree m, is irreducible over GF(2): a reducible
    poly has a factor of degree 1 .. m // 2, and every polynomial of those
    degrees is a bit pattern in 2 .. 2^(m // 2 + 1) - 1, so trial division
    by each decides it (Lidl and Niederreiter, Finite Fields, ch. 3); at
    m = 16 that is at most 510 remainders."""
    return all(_poly_mod(poly, d) for d in range(2, 1 << (m // 2 + 1)))


class GF2m:
    """The field GF(2^m) = GF(2)[x] / (poly).

    `poly` is the reduction polynomial as a bit pattern with bit m set.
    Multiplication uses log/antilog tables built on a primitive element;
    `mul_raw` is the shift-and-reduce product used to build the tables
    and kept separate so the two strategies can be cross-checked.  The
    tables are public for loops that multiply many nonzero elements:
    `exp_table[i]` is generator^i for 0 <= i < 2(q-1), so the product of
    nonzero a and b is `exp_table[log_table[a] + log_table[b]]`.
    """

    def __init__(self, m: int, poly: int):
        if not 1 <= m <= MAX_DEGREE:
            raise DegreeMismatch(f"extension degree must be 1..{MAX_DEGREE}, got {m}")
        if poly >> m != 1:
            raise DegreeMismatch(
                f"polynomial 0x{poly:X} does not have degree exactly {m}"
            )
        if not is_irreducible(poly, m):
            raise Reducible(f"0x{poly:X} is reducible over GF(2)")
        self.m = m
        self.poly = poly
        self.order = 1 << m
        self._mult_order = self.order - 1
        self._hex_width = (m + 3) // 4
        self._names: dict[int, str] = {}
        self._build_tables()

    def _build_tables(self) -> None:
        q1 = self._mult_order
        g = self._find_generator()
        exp = [1] * (2 * q1)
        log = [0] * self.order
        v = 1
        for i in range(q1):
            exp[i] = v
            exp[i + q1] = v
            log[v] = i
            v = self.mul_raw(v, g)
        self.generator = g
        self.exp_table = exp
        self.log_table = log

    def _find_generator(self) -> int:
        q1 = self._mult_order
        primes = _prime_factors(q1) if q1 > 1 else []
        for g in range(2, self.order):
            if all(self._pow_raw(g, q1 // p) != 1 for p in primes):
                return g
        return 1  # m == 1: the unit group is trivial

    def _pow_raw(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self.mul_raw(r, a)
            a = self.mul_raw(a, a)
            k >>= 1
        return r

    # -- arithmetic ---------------------------------------------------------

    def mul_raw(self, a: int, b: int) -> int:
        """Shift-and-reduce multiplication, independent of the log tables."""
        top = self.order
        poly = self.poly
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= poly
        return r

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.exp_table[self._mult_order - self.log_table[a]]

    def pow(self, a: int, k: int) -> int:
        """a^k for k >= 0, with 0^0 = 1."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 1 if k == 0 else 0
        return self.exp_table[self.log_table[a] * k % self._mult_order]

    def element_order(self, a: int) -> int:
        """Order of a in the multiplicative group."""
        if a == 0:
            raise ZeroInverse("0 is not in the multiplicative group")
        from math import gcd

        return self._mult_order // gcd(self.log_table[a], self._mult_order)

    def x_is_primitive(self) -> bool:
        """Whether the residue class of x (the element 0x2) generates the unit group."""
        if self.m == 1:
            return False  # x reduces to a constant in GF(2)
        return self.element_order(2) == self._mult_order

    # -- I/O ----------------------------------------------------------------

    def parse_element(self, text: str) -> int:
        s = text.strip()
        if s[:2].lower() == "0x":
            s = s[2:]
        if not s or any(c not in "0123456789abcdefABCDEF" for c in s):
            raise BadSyntax(f"not a hex element literal: {text!r}")
        v = int(s, 16)
        if v >= self.order:
            raise OutOfRange(f"0x{v:X} does not fit in GF(2^{self.m})")
        return v

    def format_element(self, a: int) -> str:
        """The hex name of a, kept in `_names` from the first time a is
        formatted: the cache holds at most the 2^m names, and a field that
        formats nothing builds none."""
        try:
            return self._names[a]
        except KeyError:
            if not 0 <= a < self.order:
                raise OutOfRange(f"{a} does not fit in GF(2^{self.m})") from None
            name = self._names[a] = f"0x{a:0{self._hex_width}X}"
            return name

    # -- identity and sharing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and (self.m, self.poly) == (other.m, other.poly)

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly=0x{self.poly:X})"

    def __reduce__(self):
        return (get_field, (self.m, self.poly))


_CACHE: dict[tuple[int, int], GF2m] = {}


def get_field(m: int, poly: int) -> GF2m:
    """Shared, validated GF2m instance (table construction done once)."""
    key = (m, poly)
    gf = _CACHE.get(key)
    if gf is None:
        gf = _CACHE[key] = GF2m(m, poly)
    return gf
