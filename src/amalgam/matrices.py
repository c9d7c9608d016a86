"""Integer 3x3 determinant-one matrices and their elementary-generator balls.

Validation happens at the boundary: `LambdaMatrix(rows)` checks the shape
and the determinant, and `Tower.lam` and the element grammar build their
matrices through it.  Products, inverses and transposes of such matrices
have determinant 1 because the determinant is multiplicative (and
invariant under transposition), so they are built by the private
`_trusted` constructor without re-checking.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _det3(r: Rows) -> int:
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


@dataclass(frozen=True)
class LambdaMatrix:
    """An element of the integer special linear group in rank 3.

    Entries are arbitrary-precision ints; the determinant must be +1,
    so the inverse is the integer adjugate.  The public constructor
    validates; arithmetic results skip validation (see the module
    docstring).  The hash and the inverse are cached on the instance.
    """

    rows: Rows

    def __post_init__(self) -> None:
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError(f"need a 3x3 matrix, got {self.rows!r}")
        d = _det3(self.rows)
        if d != 1:
            raise ValueError(f"matrix determinant must be 1, got {d}")

    @property
    def is_identity(self) -> bool:
        return self.rows == _ID_ROWS

    def __hash__(self) -> int:
        # cached, and equal to the hash the dataclass would generate
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.rows,))
            _set(self, "_hash", h)
        return h

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
        inv = self.__dict__.get("_inv")
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


def _trusted(rows: Rows) -> LambdaMatrix:
    """Build a matrix known to have det 1 without re-validating it."""
    m = object.__new__(LambdaMatrix)
    _set(m, "rows", rows)
    return m


IDENTITY_MATRIX = _trusted(_ID_ROWS)


def elementary(i: int, j: int, amount: int) -> LambdaMatrix:
    """Identity plus `amount` in off-diagonal slot (i, j)."""
    if i == j or not (0 <= i < 3 and 0 <= j < 3):
        raise ValueError(f"elementary slot must be off-diagonal, got ({i}, {j})")
    rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    rows[i][j] = amount
    return LambdaMatrix(tuple(tuple(r) for r in rows))


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
