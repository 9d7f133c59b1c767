"""Exact arithmetic for quadratic Pisot units in (0, 1).

A unit beta is the root in (0, 1) of x^2 + m*x = 1 (family "a", m >= 1,
conjugate root below -1) or of x^2 - m*x = -1 (family "b", m >= 3,
conjugate root above 1).  Ring elements a + b*beta carry plain integer
coordinates, and every floor, ceiling, sign and comparison is decided
through integer square roots.  Floating point exists only in the
clearly named display accessors and never feeds a decision.
"""

from __future__ import annotations

import enum
import math
from functools import total_ordering
from operator import attrgetter
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .gfib import GFib


class Family(enum.Enum):
    """Defining equation of a unit, keyed by its command-line letter."""

    PLUS = "a"   # x^2 + m*x = 1
    MINUS = "b"  # x^2 - m*x = -1


class DomainError(ValueError):
    """Unit parameter outside the admissible range of its family."""


class UnitMismatch(ValueError):
    """Arithmetic attempted between values bound to different units."""


class InvariantError(ValueError):
    """An identity the exact arithmetic relies on failed to hold."""


class _Frozen:
    """Base of the package's immutable value types.  Equality (only between
    objects of one class), hashing and repr read the fields named in the
    subclass's ``__slots__``, in order; assigning or deleting an attribute
    raises AttributeError, so ``__init__`` sets the fields with
    ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the slots, state[1], through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class QuadraticUnit(_Frozen):
    """The unit beta of one family, identified by the parameter m.

    ``sign`` is the family sign sigma, +1 (family a) or -1 (family b), with
    beta^2 = sigma*(1 - m*beta), and ``D`` = m^2 + 4*sigma is the
    discriminant; both are derived from the family.
    """

    __slots__ = ("family", "m", "sign", "D")
    family: Family
    m: int
    sign: int
    D: int

    def __init__(self, family: Family, m: int) -> None:
        sign = 1 if family is Family.PLUS else -1
        if m < 2 - sign:
            raise DomainError(f"family {family.value} requires m >= {2 - sign}, got m={m}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sign", sign)
        # D is never a square (5 at m = 1, else strictly between m^2 and (m +- 1)^2), and m^2 - D = -4*sign
        object.__setattr__(self, "D", m * m + 4 * sign)

    def floor_mul(self, j: int) -> int:
        """Exact floor of j*beta for any integer j."""
        # beta = sign*(sqrt(D) - m)/2, so j*beta == (half + c*sqrt(D)) / 2
        c = self.sign * j
        half = -c * self.m
        if c >= 0:
            rad = math.isqrt(c * c * self.D)
        else:
            # c*sqrt(D) is irrational whenever c != 0, so its floor sits
            # strictly below the reflected positive root
            rad = -math.isqrt(c * c * self.D) - 1
        # floor((half + x)/2) == floor((half + floor(x))/2) for integer half
        return (half + rad) // 2

    def pair_sign(self, a: int, b: int) -> int:
        """Exact sign of a + b*beta.

        For b != 0, b*beta is irrational, so a + b*beta is never 0, and it
        is positive iff b*beta > -a iff floor(b*beta) >= -a (-a is an
        integer that b*beta cannot equal).
        """
        if b == 0:
            return (a > 0) - (a < 0)
        return 1 if a + self.floor_mul(b) >= 0 else -1

    def element(self, a: int, b: int) -> "ZBeta":
        return ZBeta(a, b, self)

    def beta_approx(self) -> float:
        """Float approximation of beta.

        Display and plotting only; exact decisions must never read it.
        """
        return self.sign * (math.sqrt(self.D) - self.m) / 2.0

    def __str__(self) -> str:
        return f"beta[{self.family.value},m={self.m}]"


def make_unit(family: Union[Family, str], m: int) -> QuadraticUnit:
    """Validated constructor; accepts the enum or its letter "a"/"b"."""
    return QuadraticUnit(family if isinstance(family, Family) else Family(family), m)


@total_ordering
class ZBeta(_Frozen):
    """Ring element a + b*beta with exact integer coordinates."""

    __slots__ = ("a", "b", "unit")
    a: int
    b: int
    unit: QuadraticUnit

    def __init__(self, a: int, b: int, unit: QuadraticUnit) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "unit", unit)

    def _check_unit(self, other: "ZBeta") -> None:
        if other.unit != self.unit:
            raise UnitMismatch(f"cannot mix {self.unit} with {other.unit}")

    def __add__(self, other: Union[int, "ZBeta"]) -> "ZBeta":
        if isinstance(other, int):
            return ZBeta(self.a + other, self.b, self.unit)
        if not isinstance(other, ZBeta):
            return NotImplemented
        self._check_unit(other)
        return ZBeta(self.a + other.a, self.b + other.b, self.unit)

    __radd__ = __add__

    def __sub__(self, other: Union[int, "ZBeta"]) -> "ZBeta":
        return self + (-other)

    def __rsub__(self, other: Union[int, "ZBeta"]) -> "ZBeta":
        return (-self) + other

    def __neg__(self) -> "ZBeta":
        return ZBeta(-self.a, -self.b, self.unit)

    def __mul__(self, other: Union[int, "ZBeta"]) -> "ZBeta":
        if isinstance(other, int):
            return ZBeta(self.a * other, self.b * other, self.unit)
        if not isinstance(other, ZBeta):
            return NotImplemented
        self._check_unit(other)
        const = self.a * other.a
        lin = self.a * other.b + self.b * other.a
        sq = self.unit.sign * self.b * other.b
        # beta^2 = sign*(1 - m*beta)
        return ZBeta(const + sq, lin - self.unit.m * sq, self.unit)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ZBeta":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(f"negative power {n} not supported")
        result = ZBeta(1, 0, self.unit)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def sign(self) -> int:
        return self.unit.pair_sign(self.a, self.b)

    def floor(self) -> int:
        return self.a + self.unit.floor_mul(self.b)

    def ceil(self) -> int:
        return -(-self).floor()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        if isinstance(other, ZBeta):
            return self.a == other.a and self.b == other.b and self.unit == other.unit
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.unit))

    def __lt__(self, other: Union[int, "ZBeta"]) -> bool:
        # total_ordering derives <=, > and >= from this and __eq__
        if not isinstance(other, (int, ZBeta)):
            return NotImplemented
        return (self - other).sign() < 0

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*beta"


def mismatch_epsilon(unit: QuadraticUnit, i: int) -> int:
    """The level sign eps_i = (-sign)**(i + 1): -1 for family a at even i,
    +1 otherwise.  It is the single nonzero value the discrepancy can take
    at level i, and beta**i = eps_i*(G_i*beta - G_{i-1})."""
    return 1 if i % 2 else -unit.sign


def beta_pow(unit: QuadraticUnit, table: GFib, i: int) -> ZBeta:
    """Exact coordinates of beta**i read off the unit's recurrence table:
    beta**i = eps_i*(G_i*beta - G_{i-1}), see :func:`mismatch_epsilon`.
    """
    prev, cur = table.level(unit, i)
    eps = mismatch_epsilon(unit, i)
    return ZBeta(-eps * prev, eps * cur, unit)
