"""Reference oracle for induced characters: enumerate every deal of a label's
cycles to the factors, then evaluate each factor at the cycle type it was
dealt.  `symchar.induced_row` and `wreath.zeta_row` peel border strips
instead, a whole list of labels per call, and are checked against these
one label at a time.  Each factor is evaluated by the tuple recursion of
`strip_reference`, not by the bead masks under test.
"""

from strip_reference import mn

from blockiso.symchar import sn_space


def induced_value(items, sizes, caps, term):
    """Sum of term(groups) over every deal of the items to len(caps) factors
    in which the sizes of the items dealt to factor i add up to caps[i].

    groups[i] lists the items dealt to factor i in their given order.
    """
    if sum(caps) != sum(sizes):
        raise ValueError("factor sizes do not sum to the total size")
    rem = list(caps)
    groups: list[list] = [[] for _ in caps]
    total = 0

    def rec(j: int):
        nonlocal total
        if j == len(items):
            total += term(groups)
            return
        k = sizes[j]
        for i, group in enumerate(groups):
            if rem[i] >= k:
                rem[i] -= k
                group.append(items[j])
                rec(j + 1)
                group.pop()
                rem[i] += k

    rec(0)
    return total


def _cycle_type(group) -> tuple:
    return tuple(sorted((k for k, _ in group), reverse=True))


def reference_induced_mn(factors, label) -> int:
    """induced_row at one label, by deals: factors (row, lam, mu), label pairs (k, c)."""

    def term(groups) -> int:
        out = 1
        for (row, lam, mu), group in zip(factors, groups):
            out *= mn(lam, mu, _cycle_type(group))
            for _, c in group:
                out *= row[c]
        return out

    caps = [sum(lam) - sum(mu) for _, lam, mu in factors]
    return induced_value(label, [k for k, _ in label], caps, term)


def reference_zeta_value(p: int, factors, label) -> int:
    """zeta_row at one label, by deals: factors (row, mu, ()), label pairs (k, base class)."""
    class_idx = sn_space(p).index
    return reference_induced_mn(factors, [(k, class_idx[c]) for k, c in label])
