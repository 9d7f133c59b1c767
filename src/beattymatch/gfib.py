"""Recurrence tables attached to a unit.

G_0 = 0, G_1 = 1 and G_{n+2} = m*G_{n+1} + sign*G_n, with the family
sign +1 (family a) or -1 (family b).  The entries are exactly the
integers that turn powers of beta into linear coordinates, so the
table doubles as the coefficient store for every closed form in the
package.
"""

from __future__ import annotations

from .units import QuadraticUnit, UnitMismatch, _Frozen

DEFAULT_LENGTH = 64
# for_level refuses a table whose entries could together exceed this many bits
MAX_TABLE_BITS = 1 << 32


class GFib(_Frozen):
    """Immutable table G_0..G_N for one unit."""

    __slots__ = ("unit", "values")
    unit: QuadraticUnit
    values: tuple[int, ...]

    def __init__(self, unit: QuadraticUnit, values: tuple[int, ...]) -> None:
        if len(values) < 2 or values[0] != 0 or values[1] != 1:
            raise ValueError("table must start with G_0=0, G_1=1")
        m, sign = unit.m, unit.sign
        for n in range(len(values) - 2):
            if values[n + 2] != m * values[n + 1] + sign * values[n]:
                raise ValueError(f"table breaks the recurrence at index {n + 2}")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "values", values)

    @classmethod
    def build(cls, unit: QuadraticUnit, n: int = DEFAULT_LENGTH) -> "GFib":
        """Table G_0..G_n of the unit's recurrence."""
        if n < 1:
            raise ValueError(f"table needs at least G_0..G_1, got n={n}")
        vals = [0, 1]
        m, sign = unit.m, unit.sign
        for _ in range(n - 1):
            vals.append(m * vals[-1] + sign * vals[-2])
        return cls(unit, tuple(vals))

    @classmethod
    def for_level(cls, unit: QuadraticUnit, i: int) -> "GFib":
        """Table long enough for every routine at shift levels up to i:
        G_0..G_i, and never shorter than the default.

        A table past MAX_TABLE_BITS (see :meth:`size_bound`) is refused
        with ValueError before anything is built.
        """
        n = max(DEFAULT_LENGTH, i)
        if cls.size_bound(unit, i) > MAX_TABLE_BITS:
            raise ValueError(f"a table G_0..G_{n} for m={unit.m} exceeds the cap of {MAX_TABLE_BITS} bits")
        return cls.build(unit, n)

    @staticmethod
    def size_bound(unit: QuadraticUnit, i: int) -> int:
        """Bits that :meth:`for_level` may hold at level i: G_n <= (m + 1)**(n - 1),
        so the n + 1 entries, n = max(DEFAULT_LENGTH, i), hold at most
        n**2 * bit_length(m) / 2 bits."""
        n = max(DEFAULT_LENGTH, i)
        return n * n * unit.m.bit_length() // 2

    def level(self, unit: QuadraticUnit, i: int) -> tuple[int, int]:
        """(G_{i-1}, G_i), the drop and the shift of level i, after the one check
        of a (unit, table, i) argument: UnitMismatch for another unit's table,
        ValueError for i < 1, IndexError past the end of the table."""
        if unit is not self.unit and unit != self.unit:
            raise UnitMismatch("table belongs to a different unit")
        if i < 1:
            raise ValueError(f"shift index must be >= 1, got {i}")
        if i >= len(self.values):
            raise IndexError(f"table of length {len(self.values)} has no entry {i}")
        return self.values[i - 1], self.values[i]

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)
