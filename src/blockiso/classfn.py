"""One exact class-function type over a cached description of a group's classes.

A `ClassSpace` holds a finite group's class labels in canonical order, the
index map, the group order |G| and the integer class sizes |G|/z_c.  Every
inner product and transfer is then one integer dot product against those
weights followed by a single division by |G| (times a common denominator
when the values are Fractions).  Every linear combination of rows is one
`combine`.  All classes of the groups handled here are real, so no complex
conjugation is needed.
"""

from collections import namedtuple
from math import lcm
from operator import mul


class ClassSpace:
    """Labels, index map, order and class-size weights of one group."""

    def __init__(self, labels, centralizers, order: int, n=None, p=None, w=None):
        self.labels = labels
        self.index = {lbl: i for i, lbl in enumerate(labels)}
        self.order = order
        self.weights = tuple(order // z for z in centralizers)
        self.n, self.p, self.w = n, p, w

    def weighted(self, values) -> tuple[tuple[int, ...], int]:
        """The integers |c| * values[c] * d over the classes c, and d, the
        least common denominator of the values."""
        if all(type(v) is int for v in values):
            d = 1
        else:
            d = lcm(*(v.denominator for v in values))
            values = [v.numerator * (d // v.denominator) for v in values]
        return tuple(map(mul, self.weights, values)), d

    def pairings(self, values, vectors) -> tuple:
        """Inner products of values with each of the given vectors: an int
        where the product is integral, a Fraction otherwise."""
        u, d = self.weighted(values)
        den = self.order * d
        return tuple(_ratio(sum(map(mul, u, v)), den) for v in vectors)

    def inner(self, a, b):
        return self.pairings(a, (b,))[0]

    def combine(self, coeffs, rows) -> list:
        """The linear combination of the rows with the paired coefficients,
        skipping zero coefficients; the zero row when there are none."""
        out = [0] * len(self.labels)
        for c, row in zip(coeffs, rows):
            if c:
                out = [x + c * y for x, y in zip(out, row)]
        return out


def _ratio(num: int, den: int):
    q, r = divmod(num, den)
    if not r:
        return q
    from fractions import Fraction
    return Fraction(num, den)


class ClassFunction(namedtuple("ClassFunction", "space values")):
    """Dense class function over a space, in the space's label order; an
    immutable (space, values) pair, equal on the same space object with equal values."""

    __slots__ = ()

    @property
    def n(self):
        return self.space.n

    @property
    def p(self):
        return self.space.p

    @property
    def w(self):
        return self.space.w

    def value(self, label):
        """The value at a label, which must be in its canonical form."""
        return self.values[self.space.index[label]]

    def scaled(self, c) -> "ClassFunction":
        return ClassFunction(self.space, tuple(c * a for a in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)
