"""Exact coefficient fields: the rationals and prime fields F_p.

Elements are plain Python values (fractions.Fraction over Q, ints in [0, p)
over F_p); a FieldCtx object carries the arithmetic. Everything is exact,
there is no floating point in any field operation.
"""
from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldCtx:
    """Common interface; concrete fields below."""

    kind = "?"

    def is_prime_field(self) -> bool:
        return self.kind == "Fp"

    # subclasses: zero, one, add, sub, mul, neg, inv, div, from_int,
    # parse, fmt, units, to_pair, from_pair

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class Rationals(FieldCtx):
    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def key(self):
        return ("Q",)

    def __repr__(self):
        return "Rationals()"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def units(self):
        raise ValueError("units(): the rationals have infinitely many units")

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def fmt(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def to_pair(self, a):
        a = Fraction(a)
        return (str(a.numerator), str(a.denominator))

    def from_pair(self, pair) -> Fraction:
        num, den = pair
        return Fraction(int(num), int(den))


class PrimeField(FieldCtx):
    kind = "Fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p < 5:
            raise ValueError(f"p = {p} too small; need p >= 5")
        self.p = p
        self.zero = 0
        self.one = 1

    def key(self):
        return ("Fp", self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def units(self):
        return list(range(1, self.p))

    def parse(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def to_pair(self, a):
        return (str(a % self.p), "1")

    def from_pair(self, pair) -> int:
        num, den = pair
        return self.div(int(num) % self.p, int(den) % self.p)


def field_to_json(ctx: FieldCtx) -> dict:
    if ctx.is_prime_field():
        return {"type": "Fp", "p": ctx.p}
    return {"type": "Q"}


def field_from_json(obj: dict) -> FieldCtx:
    """Inverse of field_to_json; malformed input raises ValueError."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "Fp":
        p = obj.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"field 'p' must be an integer, got {p!r}")
        return PrimeField(p)
    if kind == "Q":
        return Rationals()
    raise ValueError(f"unknown field {obj!r}")
