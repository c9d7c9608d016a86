"""Configured sequences of distinct primes indexing the mod-p coordinate blocks."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["PrimeSeq", "is_prime", "next_prime"]


# Miller-Rabin to these twelve bases is exact below _DECIDED_BELOW
# (Sorenson and Webster, 2015), well above the 2^64 that PrimeSeq allows
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DECIDED_BELOW = 318_665_857_834_031_151_167_461


def _integer(value, rule: str) -> int:
    """`value` as a plain int, np.int64 included; ValueError "<rule>, got
    <value>" for what `operator.index` refuses, such as floats and strings."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{rule}, got {value!r}") from None


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..37, in O(log n)
    multiplications; ValueError from _DECIDED_BELOW (about 3.2e23) on."""
    if n < 2:
        return False
    if n >= _DECIDED_BELOW:
        raise ValueError(f"primality is decided only below {_DECIDED_BELOW}, got {n}")
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


@dataclass(frozen=True)
class PrimeSeq:
    """An explicit finite prefix p_0, p_1, ... of distinct primes.

    Index n hosts a rank-3 coordinate block mod p_n.  Operations that
    would need an index beyond the configured prefix raise IndexError, and
    an index that is not an integer raises ValueError.
    """

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        primes = tuple(_integer(p, "primes must be integers") for p in self.primes)
        object.__setattr__(self, "primes", primes)
        if not self.primes:
            raise ValueError("prime sequence must be nonempty")
        for p in self.primes:
            if p >= 2**64:
                raise ValueError(f"primes must be below 2^64, got {p}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must be distinct, got {self.primes}")

    @classmethod
    def first(cls, count: int) -> "PrimeSeq":
        """The increasing sequence of the first `count` primes."""
        out: list[int] = []
        p = 1
        for _ in range(count):
            p = next_prime(p)
            out.append(p)
        return cls(tuple(out))

    @classmethod
    def default(cls) -> "PrimeSeq":
        return cls.first(16)

    @classmethod
    def parse(cls, text: str) -> "PrimeSeq":
        """Parse a comma-separated list such as '2,3,5'."""
        try:
            values = tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ValueError(f"bad prime list {text!r}: {exc}") from None
        return cls(values)

    def p(self, n: int) -> int:
        """The prime at index n."""
        # one comparison and one lookup on the valid path, which samplers take
        # per draw; a bad index is sorted out once the lookup has failed
        try:
            if n >= 0:
                return self.primes[n]
        except (TypeError, IndexError):
            pass
        n = _integer(n, "prime indices must be integers")
        if n < 0:
            raise IndexError(f"prime index {n} is negative")
        raise IndexError(f"prime index {n} not configured (only {len(self.primes)} primes)")

    def cube(self, n: int) -> int:
        """Size p_n**3 of the rank-3 block at index n."""
        return self.p(n) ** 3

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)


def as_prime_seq(primes: "PrimeSeq | Sequence[int] | str") -> PrimeSeq:
    """Coerce a raw sequence of ints, or a list such as '2,3,5', into a PrimeSeq."""
    if isinstance(primes, PrimeSeq):
        return primes
    if isinstance(primes, str):
        return PrimeSeq.parse(primes)
    return PrimeSeq(tuple(primes))
