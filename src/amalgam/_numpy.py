"""numpy, imported the first time an array is used.

Only block computations use arrays: orbit counts, the transforms and
convolutions on one block, image tables and the fourier suite.  Element
arithmetic, the grammar and `amalgam elem` never do.  `semidirect`,
`orbits`, `fourier` and `suites` import this module as `np`, so a
process that never computes on a block never loads numpy.  The first
lookup of a name imports numpy and stores the attribute here, so every
later lookup is an ordinary module attribute read.
"""


def __getattr__(name):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
