"""Integer partitions as plain tuples, plus the p-adic helpers built on them.

A partition is a tuple of weakly decreasing positive ints; ``()`` is the
empty partition.  All enumeration is in descending lexicographic order, so
``(n)`` comes first and ``(1,)*n`` last; every dense vector in this package
is aligned to that order.
"""

from functools import cache

Partition = tuple[int, ...]


class ArgumentError(ValueError):
    """A command-line argument is malformed or out of range."""


def parse_partition(text: str) -> Partition:
    """Parse the wire format: comma-separated decreasing ints, '' is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"bad partition literal {text!r}") from exc
    if any(x <= 0 for x in parts):
        raise ArgumentError(f"parts must be positive in {text!r}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ArgumentError(f"parts must be weakly decreasing in {text!r}")
    return tuple(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(map(str, lam))


def format_multipartition(phi: tuple[Partition, ...]) -> str:
    """Components in the wire format, joined by ';' (empty ones included)."""
    return ";".join(format_partition(mu) for mu in phi)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= i) for i in range(1, lam[0] + 1))


def sqcup(lam: Partition, mu: Partition) -> Partition:
    """Disjoint union of parts, resorted."""
    return tuple(sorted(lam + mu, reverse=True))


def scale(m: int, lam: Partition) -> Partition:
    """Multiply every part by m >= 1."""
    if m < 1:
        raise ValueError("scale factor must be >= 1")
    return tuple(m * x for x in lam)


def contains(lam: Partition, mu: Partition) -> bool:
    """Containment of Young diagrams."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, descending lexicographic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[Partition] = []
    _descend([], n, n, out)
    return tuple(out)


def _descend(parts: list, rem: int, maxpart: int, out: list) -> None:
    # Not a closure (see symchar._peel): appends parts followed by each
    # partition of rem into parts at most maxpart, largest first part first.
    if not rem:
        out.append(tuple(parts))
        return
    for first in range(min(rem, maxpart), 0, -1):
        parts.append(first)
        _descend(parts, rem - first, first, out)
        parts.pop()


@cache
def multipartitions(k: int, w: int) -> tuple[tuple[Partition, ...], ...]:
    """All k-tuples of partitions with total size w, descending lexicographic.
    The nonempty components are placed left to right, each at the earliest
    free position first and the largest partition first (_place), so every
    tuple is built once.  fits[r] lists the nonempty (partition, size) pairs
    of size at most r, descending."""
    heads = sorted(((mu, m) for m in range(1, w + 1) for mu in enumerate_partitions(m)), reverse=True)
    fits = [[(mu, m) for mu, m in heads if m <= r] for r in range(w + 1)]
    out: list[tuple[Partition, ...]] = []
    _place([()] * k, 0, w, fits, out)
    return tuple(out)


def _place(comps: list, start: int, rest: int, fits: list, out: list) -> None:
    # Not a closure (see symchar._peel); each level places one nonempty
    # component, so the recursion is at most w deep.
    if not rest:
        out.append(tuple(comps))
        return
    for i in range(start, len(comps)):
        for mu, m in fits[rest]:
            comps[i] = mu
            _place(comps, i + 1, rest - m, fits, out)
        comps[i] = ()


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def v_p(n: int, p: int) -> int:
    """Exponent of p in n; n must be nonzero."""
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    if p < 2:
        raise ValueError("p must be >= 2")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def p_adic_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first; 0 has no digits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if p < 2:
        raise ValueError("p must be >= 2")
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits
