"""Scalar rings with an explicit Euclidean division contract.

Elements are plain Python integers.  A prime field F_p works with reduced
representatives in range(p); the integer ring works with arbitrary ints.
The rest of the package relies on one contract only:

    norm(a - euclid_q(a, b) * b) < norm(b)    whenever b != 0.

Over a field the norm is 0/1 and division is exact.  Over the integers the
norm is the absolute value; the quotient is 0 when |a| < |b| (so reduction
maps fix already-reduced values) and otherwise leaves the canonical
remainder in [0, |b|).

The echelon form in ``linalg`` needs two more things, and only these
differ between the rings: ``normalizing_unit`` turns a pivot into its
canonical associate (1 over a field, positive over the integers), and
``canonical_q`` is the quotient that leaves the canonical remainder (0
over a field, floor division over the integers).
"""

from __future__ import annotations

# Enumeration costs grow fast with the field size.
MAX_FIELD_PRIME = 7


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class EuclideanScalarRing:
    """Commutative unital ring with a norm and Euclidean division."""

    kind = "abstract"
    name = "abstract"

    def reduce(self, a: int) -> int:
        raise NotImplementedError

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def norm(self, a: int) -> int:
        raise NotImplementedError

    def euclid_q(self, a: int, b: int) -> int:
        """Quotient q with norm(a - q*b) < norm(b).  Raises on b = 0."""
        raise NotImplementedError

    def canonical_q(self, a: int, b: int) -> int:
        """Quotient q leaving the canonical remainder a - q*b modulo b."""
        raise NotImplementedError

    def normalizing_unit(self, a: int) -> int:
        """Unit u such that u*a is the canonical associate of a != 0."""
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def is_field(self) -> bool:
        return self.kind == "prime_field"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PrimeField(EuclideanScalarRing):
    """F_p with elements 0..p-1."""

    kind = "prime_field"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > MAX_FIELD_PRIME:
            raise ValueError(
                f"field size {p} exceeds the bound {MAX_FIELD_PRIME}")
        self.p = p
        self.name = f"p{p}"

    def reduce(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def norm(self, a: int) -> int:
        return 0 if a % self.p == 0 else 1

    def euclid_q(self, a: int, b: int) -> int:
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return (a * self.inv(b)) % self.p

    def canonical_q(self, a: int, b: int) -> int:
        return self.euclid_q(a, b)

    def normalizing_unit(self, a: int) -> int:
        return self.inv(a)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


class IntegerRing(EuclideanScalarRing):
    """The rational integers with the absolute-value norm."""

    kind = "integers"
    name = "Z"

    def reduce(self, a: int) -> int:
        return a

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def norm(self, a: int) -> int:
        return abs(a)

    def euclid_q(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if abs(a) < abs(b):
            return 0
        # canonical remainder in [0, |b|)
        if b > 0:
            return a // b
        return -(a // -b)

    def canonical_q(self, a: int, b: int) -> int:
        # floor division: the remainder lies between 0 and b, with b's sign
        return a // b

    def normalizing_unit(self, a: int) -> int:
        return -1 if a < 0 else 1

    def inv(self, a: int) -> int:
        if a not in (1, -1):
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        return a

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash("IntegerRing")


ZZ = IntegerRing()


def ring_from_name(name: str) -> EuclideanScalarRing:
    """Parse 'Z' or 'p<prime>' (e.g. 'p2', 'p5')."""
    if name in ("Z", "z", "int", "integers"):
        return ZZ
    if name.startswith("p") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown ring name {name!r}")
