"""Recurrence tables attached to a unit.

G_0 = 0, G_1 = 1 and G_{n+2} = m*G_{n+1} + sign*G_n, with the family
sign +1 (family a) or -1 (family b).  The entries are exactly the
integers that turn powers of beta into linear coordinates, so the
table doubles as the coefficient store for every closed form in the
package.  :meth:`GFib.build` is the one way to make a table: it fills
G_0..G_n once, and refuses a table past MAX_TABLE_BITS before it starts.
"""

from __future__ import annotations

from .units import QuadraticUnit, UnitMismatch, _Frozen

DEFAULT_LENGTH = 64
# build refuses a table whose entries could together exceed this many bits
MAX_TABLE_BITS = 1 << 32


class GFib(_Frozen):
    """Immutable table G_0..G_N for one unit, made by :meth:`build`."""

    __slots__ = ("unit", "values")
    unit: QuadraticUnit
    values: tuple[int, ...]

    @classmethod
    def build(cls, unit: QuadraticUnit, n: int = DEFAULT_LENGTH) -> "GFib":
        """Table G_0..G_n of the unit's recurrence.

        ValueError for n < 1, and for a table past MAX_TABLE_BITS (see
        :meth:`size_bound`) before anything is built.
        """
        if n < 1:
            raise ValueError(f"table needs at least G_0..G_1, got n={n}")
        if cls.size_bound(unit, n) > MAX_TABLE_BITS:
            raise ValueError(f"a table G_0..G_{n} for m={unit.m} exceeds the cap of {MAX_TABLE_BITS} bits")
        vals = [0, 1]
        m, sign = unit.m, unit.sign
        for _ in range(n - 1):
            vals.append(m * vals[-1] + sign * vals[-2])
        table = object.__new__(cls)
        object.__setattr__(table, "unit", unit)
        object.__setattr__(table, "values", tuple(vals))
        return table

    @staticmethod
    def size_bound(unit: QuadraticUnit, n: int) -> int:
        """Bits that :meth:`build` may hold for G_0..G_n: G_n <= (m + 1)**(n - 1),
        so the n + 1 entries hold at most n**2 * bit_length(m) / 2 bits."""
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
