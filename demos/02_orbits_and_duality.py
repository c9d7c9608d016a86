"""
Orbit structure and blockwise duality
=====================================

The matrix group acts diagonally on products of coordinate blocks.  This
script classifies the orbits, checks them against the zero patterns,
counts the invariant functions, and moves between functions on a block
and group algebra coefficients through the blockwise transform.
"""
from __future__ import annotations

import numpy as np

from amalgam import (
    ELEMENTARY_GENERATORS,
    PrimeSeq,
    Tower,
    check_intertwiner,
    diagonal_orbits,
    fixed_point_dimension,
    fourier,
    inverse_fourier,
    partitions_agree,
    projection_en,
    zero_pattern_partition,
)

primes = PrimeSeq.parse("2,3,5")
tower = Tower(primes)

# ---------------------------------------------------------------------
# Orbits of the diagonal action.  On a single block the two orbits are
# {0} and everything else; on a product of blocks, one orbit per
# pattern of zero positions.
for indices in ((0,), (0, 1), (0, 1, 2)):
    part = diagonal_orbits(primes, indices)
    agree = partitions_agree(part, zero_pattern_partition(primes, indices))
    print(
        f"blocks {indices}: {part.block_count} orbits, sizes {sorted(part.block_sizes)},"
        f" zero-pattern match: {agree}"
    )

# The dimension of the invariant functions is the number of classes of
# the union-find the orbits come from, exact, one per zero pattern:
for count in (1, 2, 3):
    dim = fixed_point_dimension(primes, tuple(range(count)))
    print(f"invariant functions on {count} block(s): dimension {dim} = 2^{count}")

# ---------------------------------------------------------------------
# Duality on one block.  A function on the 27 points of block 1 maps to
# coefficients on the group basis of that block and back.
rng = np.random.default_rng(0)
f = rng.normal(size=27) + 1j * rng.normal(size=27)
element = fourier(tower, 1, f)
back = inverse_fourier(element, 1)
print("round-trip defect:      ", float(np.max(np.abs(back - f))))
print("trace vs function mean: ", abs(complex(element.trace()) - complex(np.mean(f))))

# Convolving the averaging idempotent with itself returns it exactly —
# rational coefficients in, rational coefficients out:
e1 = projection_en(tower, 1)
print("e1 support size:        ", e1.support_size)
print("e1 * e1 == e1:          ", e1.mul(e1).equals(e1))
print("trace(e1):              ", e1.trace())

# The transform intertwines the two matrix actions (permuting points vs
# relabelling basis words by the inverse-transpose action); the defect
# is at rounding level for every generator:
worst = max(check_intertwiner(tower, g, n) for g in ELEMENTARY_GENERATORS for n in range(3))
print("worst intertwining defect over 12 generators x 3 blocks:", worst)

print("done.")
