"""Integer 3x3 determinant-one matrices and their elementary-generator balls.

Validation happens at the boundary: `LambdaMatrix(rows)` checks the shape,
the entries (integers by `operator.index`, stored as plain ints) and the
determinant, and `Tower.lam` and the element grammar build their
matrices through it.  Products, inverses and transposes of such matrices
have determinant 1 because the determinant is multiplicative (and
invariant under transposition), so they are built by the private
`_trusted` constructor without re-checking.

This module also holds what the value classes of the package
(`LambdaMatrix` here, `KVector` and `G0Element` in `semidirect`,
`GroupWord` in `words`) share.  Each is a `__slots__` class on
`_Immutable`, whose `__setattr__`/`__delattr__` raise AttributeError, and
writes `__eq__`, `__hash__` and `__repr__` by hand as the frozen dataclass
it replaces generated them, so hashes, and with them every dict and set
order, are those of the dataclass.  Its one trusted constructor builds an
instance of the private `_unguarded` twin of the class, stores each slot
plainly, and then makes the object an instance of the public class, so no
twin escapes.  The public constructor checks what it is given, if
anything, and calls the trusted one, and `__reduce__` rebuilds through
it, which keeps `pickle` and `deepcopy` working (a word is rebuilt blank
and then given its fields; see `GroupWord.__reduce__`).  `copy.copy`
returns the object itself, as for a tuple, so a copy of a tower's
identity word is still that word.
"""
from __future__ import annotations

from functools import lru_cache

from .primes import _integer

__all__ = [
    "LambdaMatrix",
    "IDENTITY_MATRIX",
    "ELEMENTARY_GENERATORS",
    "elementary",
    "generator_ball",
]

Rows = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

_ID_ROWS: Rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

_set = object.__setattr__


class _Immutable:
    """Base of the value classes: no field can be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self


def _unguarded(cls: type) -> type:
    """A private twin of `cls` whose slots take plain stores.

    Both hooks are object's own, so attribute stores take CPython's fast
    path; an object built as a twin must be handed out only after its
    `__class__` is set back to `cls`.
    """
    return type(f"_Unguarded{cls.__name__}", (cls,), {
        "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
    })


def _det3(r: Rows) -> int:
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


class LambdaMatrix(_Immutable):
    """An element of the integer special linear group in rank 3.

    Entries are arbitrary-precision ints; the determinant must be +1,
    so the inverse is the integer adjugate.  The public constructor
    validates; arithmetic results skip validation (see the module
    docstring).  The hash and the inverse are cached on the instance.
    """

    __slots__ = ("rows", "_hash", "_inv")

    def __new__(cls, rows: Rows) -> "LambdaMatrix":
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError(f"need a 3x3 matrix, got {rows!r}")
        rows = tuple(tuple(_integer(e, "matrix entries must be integers") for e in r) for r in rows)
        d = _det3(rows)
        if d != 1:
            raise ValueError(f"matrix determinant must be 1, got {d}")
        return _trusted(rows)

    @property
    def is_identity(self) -> bool:
        return self.rows == _ID_ROWS

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        # cached, and equal to the hash the dataclass generated
        h = self._hash
        if h is None:
            h = hash((self.rows,))
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        return _trusted, (self.rows,)

    def __mul__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = self.rows
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = other.rows
        return _trusted((
            (a00 * b00 + a01 * b10 + a02 * b20,
             a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20,
             a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20,
             a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22),
        ))

    def inverse(self) -> "LambdaMatrix":
        """Integer inverse via the adjugate (valid because det == 1).

        Computed once per instance; the result remembers this matrix as
        its own inverse, so `m.inverse().inverse() is m`.
        """
        inv = self._inv
        if inv is None:
            (a, b, c), (d, e, f), (g, h, i) = self.rows
            inv = _trusted((
                (e * i - f * h, c * h - b * i, b * f - c * e),
                (f * g - d * i, a * i - c * g, c * d - a * f),
                (d * h - e * g, b * g - a * h, a * e - b * d),
            ))
            _set(inv, "_inv", self)
            _set(self, "_inv", inv)
        return inv

    def transpose(self) -> "LambdaMatrix":
        return _trusted(tuple(zip(*self.rows)))

    def apply(self, v: tuple[int, int, int], modulus: int) -> tuple[int, int, int]:
        """Matrix-vector product with coordinates reduced mod `modulus`."""
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        x, y, z = v
        return (
            (a * x + b * y + c * z) % modulus,
            (d * x + e * y + f * z) % modulus,
            (g * x + h * y + i * z) % modulus,
        )

    def mod(self, modulus: int) -> Rows:
        return tuple(tuple(e % modulus for e in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"LambdaMatrix({self.rows})"


_UnguardedMatrix = _unguarded(LambdaMatrix)


def _trusted(rows: Rows) -> LambdaMatrix:
    """Build a matrix known to have det 1 without re-validating it."""
    m = object.__new__(_UnguardedMatrix)
    m.rows = rows
    m._hash = None
    m._inv = None
    m.__class__ = LambdaMatrix
    return m


IDENTITY_MATRIX = _trusted(_ID_ROWS)


def elementary(i: int, j: int, amount: int) -> LambdaMatrix:
    """Identity plus `amount` in off-diagonal slot (i, j)."""
    if i == j or not (0 <= i < 3 and 0 <= j < 3):
        raise ValueError(f"elementary slot must be off-diagonal, got ({i}, {j})")
    rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    rows[i][j] = amount
    return LambdaMatrix(rows)


# The twelve one-step generators: both signs in each off-diagonal slot,
# in a fixed order so reports and balls are reproducible.
ELEMENTARY_GENERATORS: tuple[LambdaMatrix, ...] = tuple(
    elementary(i, j, s) for i in range(3) for j in range(3) if i != j for s in (1, -1)
)


@lru_cache(maxsize=None)
def generator_ball(radius: int) -> tuple[LambdaMatrix, ...]:
    """All products of at most `radius` elementary generators, in BFS order."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    seen: dict[LambdaMatrix, None] = {IDENTITY_MATRIX: None}
    frontier = [IDENTITY_MATRIX]
    for _ in range(radius):
        nxt: list[LambdaMatrix] = []
        for m in frontier:
            for g in ELEMENTARY_GENERATORS:
                prod = m * g
                if prod not in seen:
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return tuple(seen)
