"""The signed bijection from a symmetric-group block onto wreath irreducibles.

A block character is sent to a wreath irreducible by reading its quotient
components off the runners, pairing runner ranks with hook leg lengths
(conjugating at odd legs), and attaching the bead-move sign corrected by
the odd-leg component sizes.  The verification routines check the defining
congruences classwise, entirely in exact arithmetic, including the brute
force centralizer characterisation on explicit permutations.
"""

from functools import cache
from math import factorial

from .abacus import (
    circularly_nondecreasing,
    from_core_and_quotient,
    hook_partition,
    is_core,
    p_quotient,
    p_sign,
    partitions_with_core,
    runner_permutation,
)
from .classfn import ClassFunction
from .partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    multipartitions,
    scale,
    sqcup,
    v_p,
)
from .reporting import Report
from .symchar import (
    character_value,
    degree,
    height_by_tower,
    height_by_valuation,
    induced_row,
    irr_class_function,
    skew_row,
    sn_space,
)
from .wreath import (
    canonical_label,
    embed_to_sn,
    enumerate_wreath_classes,
    format_class_label,
    in_U_s,
    induction_factors,
    irr_base_rows,
    labels_in_U_s,
    lambda_psi,
    wreath_space,
    zeta_irr,
    zeta_row,
)


@cache
def isometry_row(lam: Partition, rho: Partition, p: int) -> tuple[int, tuple[Partition, ...]]:
    """The sign and leg-indexed components psi of lam's image.  The runner
    of rank p - 1 - i gives component i, conjugated at odd legs i; the sign
    is the bead-move sign of lam over rho times (-1)^|component| at each
    odd leg."""
    gamma = runner_permutation(rho, p)
    quot = p_quotient(lam, p)
    sign = p_sign(lam, rho, p)
    psi: list[Partition] = [()] * p
    for runner, rank in enumerate(gamma):
        i = p - 1 - rank
        comp = quot[runner]
        if i % 2:
            sign *= (-1) ** sum(comp)
            comp = conjugate(comp)
        psi[i] = comp
    return sign, tuple(psi)


def isometry_inverse(psi: tuple[Partition, ...], rho: Partition, p: int) -> Partition:
    """The block character whose leg-indexed components are psi."""
    gamma = runner_permutation(rho, p)
    quot = []
    for runner in range(p):
        i = p - 1 - gamma[runner]
        comp = psi[i] if i % 2 == 0 else conjugate(psi[i])
        quot.append(comp)
    return from_core_and_quotient(rho, tuple(quot), p)


def isometry_image(lam: Partition, rho: Partition, p: int) -> ClassFunction:
    sign, psi = isometry_row(lam, rho, p)
    w = (sum(lam) - sum(rho)) // p
    return zeta_irr(p, w, lambda_psi(psi, p)).scaled(sign)


def block_basis(p: int, w: int, rho: Partition):
    """The block's members in block order, their irr_class_function rows and
    their signed isometry_image rows.  Not cached: the rows are."""
    members = partitions_with_core(p * w + sum(rho), rho, p)
    chis = [irr_class_function(lam).values for lam in members]
    return members, chis, [isometry_image(lam, rho, p).values for lam in members]


def pushdown_to_wreath(p: int, w: int, rho: Partition, s: int):
    """The labels in U_s, the block's members in block order and each member's
    skew row lam/rho at the labels' cycle types (skew_row; at the empty core,
    the restriction): the one pushdown that the pointwise checks read."""
    labels = labels_in_U_s(p, w, s)
    taus = [embed_to_sn(lbl) for lbl in labels]
    members = partitions_with_core(p * w + sum(rho), rho, p)
    return labels, members, [skew_row(lam, rho, taus) for lam in members]


def _pointwise(p: int, w: int, rho: Partition, s: int):
    """pushdown_to_wreath's labels, and per member lam, lam with its image's row
    (sign * zeta_row, the wreath Murnaghan-Nakayama rule) and its pushdown row."""
    labels, members, pushed = pushdown_to_wreath(p, w, rho, s)
    rows = []
    for lam, down in zip(members, pushed):
        sign, psi = isometry_row(lam, rho, p)
        image = zeta_row(p, induction_factors(irr_base_rows(p), lambda_psi(psi, p)), labels)
        rows.append((lam, [sign * v for v in image], down))
    return labels, rows


def build_isometry(p: int, w: int, rho: Partition):
    """Rows (lam, sign, psi) over the block, with bijectivity checks."""
    if not is_core(rho, p):
        raise ValueError(f"{rho} is not a p-core for p={p}")
    n = p * w + sum(rho)
    rows = [(lam,) + isometry_row(lam, rho, p) for lam in partitions_with_core(n, rho, p)]
    seen = {psi for _, _, psi in rows}
    if seen != set(multipartitions(p, w)):
        raise AssertionError("leg assignments do not exhaust the target set")
    for lam, _, psi in rows:
        if isometry_inverse(psi, rho, p) != lam:
            raise AssertionError("inverse failed to recover the block label")
    return rows


def verify_main(p: int, w: int, rho: Partition) -> Report:
    """Image minus pushdown vanishes on w base p-cycles, and on w-1 when
    the runner ranks rotate the identity.  Both sides are evaluated only at
    the labels in U_s (_pointwise)."""
    rep = Report("main", {"p": p, "w": w, "core": format_partition(rho)})
    levels = [w] if circularly_nondecreasing(rho, p) is None else [w, w - 1]
    labels, rows = _pointwise(p, w, rho, min(levels))
    for lam, image, pushed in rows:
        delta = [a - b for a, b in zip(image, pushed)]
        for s in levels:
            bad = [(lbl, d) for lbl, d in zip(labels, delta) if d and in_U_s(lbl, p, s)]
            witness = None
            if bad:
                witness = {"label": format_class_label(bad[0][0]), "difference": str(bad[0][1])}
            rep.add({"lambda": format_partition(lam), "level": s}, not bad, witness)
    return rep


def verify_val(p: int, w: int) -> Report:
    """Exact value agreement on classes with at least w-1 base p-cycles:
    main's evaluation at the empty core, where pushdown is restriction."""
    rep = Report("val", {"p": p, "w": w})
    labels, rows = _pointwise(p, w, (), w - 1)
    texts = [format_class_label(lbl) for lbl in labels]
    for lam, image, restricted in rows:
        lam_text = format_partition(lam)
        for text, lhs, rhs in zip(texts, image, restricted):
            rep.add(
                {"lambda": lam_text, "label": text},
                lhs == rhs,
                None if lhs == rhs else {"image": str(lhs), "restricted": str(rhs)},
            )
    return rep


def wreath_irr_degree(w: int, components) -> int:
    """Degree of the wreath irreducible with the given (kappa, mu) pairs, base
    irreducible kappa carrying mu, by Clifford theory: w! / prod |mu|! *
    prod deg(kappa)^|mu| * deg(mu), one step per pair; an empty mu adds 1."""
    out, size = factorial(w), 0
    for kappa, mu in components:
        if mu:
            m = sum(mu)
            size += m
            out = out // factorial(m) * degree(kappa) ** m * degree(mu)
    if size != w:
        raise ValueError("assignment sizes must sum to w")
    return out


def verify_heights(p: int, w: int, rho: Partition) -> Report:
    """Both height computations agree and transfer across the bijection.
    The principal psi puts psi[i] on the hook with leg i."""
    rep = Report("heights", {"p": p, "w": w})
    n = p * w + sum(rho)
    hooks = [hook_partition(i, p) for i in range(p)]
    valuation = {psi: v_p(wreath_irr_degree(w, zip(hooks, psi)), p) for psi in multipartitions(p, w)}
    floor = min(valuation.values())
    rep.add({"wreath_floor": floor}, floor == 0)
    for lam in partitions_with_core(n, rho, p):
        h_tower = height_by_tower(lam, p)
        h_val = height_by_valuation(lam, p)
        h_wr = valuation[isometry_row(lam, rho, p)[1]] - floor
        ok = h_tower == h_val == h_wr
        rep.add(
            {"core": format_partition(rho), "lambda": format_partition(lam)},
            ok,
            None if ok else {"tower": h_tower, "valuation": h_val, "wreath": h_wr},
        )
    return rep


def verify_uniqueness(p: int, w: int) -> Report:
    """Signed sums of distinct restricted block characters stay detectable.
    The restrictions are pushdown_to_wreath's rows at the labels in U_{w-1}."""
    rep = Report("unique", {"p": p, "w": w})
    labels, block, restricted = pushdown_to_wreath(p, w, (), w - 1)
    top = [in_U_s(lbl, p, w) for lbl in labels]
    texts = [format_partition(lam) for lam in block]
    for a in range(len(block)):
        for b in range(a + 1, len(block)):
            for sign in (1, -1):
                ok = any(x - sign * y for x, y in zip(restricted[a], restricted[b]))
                pair = {"lambda1": texts[a], "lambda2": texts[b], "sign": "-" if sign == 1 else "+"}
                rep.add(pair, ok)
    for text, values in zip(texts, restricted):
        rep.add({"lambda": text, "single": True}, any(v for v, t in zip(values, top) if t))
    return rep


# ---------------------------------------------------------------------------
# brute-force permutation side


def p_part_perm(g, p: int):
    """The power of g of order the p-part of the order of g.  On a cycle of
    length p^a * m with m prime to p it is the shift by m * (m^-1 mod p^a)."""
    img = list(range(len(g)))
    seen = set()
    for i in range(len(g)):
        if i in seen:
            continue
        cycle = [i]
        while g[cycle[-1]] != i:
            cycle.append(g[cycle[-1]])
        seen.update(cycle)
        pa = 1
        while len(cycle) % (pa * p) == 0:
            pa *= p
        m = len(cycle) // pa
        shift = m * pow(m, -1, pa)
        for t, x in enumerate(cycle):
            img[x] = cycle[(t + shift) % len(cycle)]
    return tuple(img)


def _perm_of_type(c: Partition, p: int):
    img = list(range(p))
    at = 0
    for part in c:
        for t in range(part):
            img[at + t] = at + (t + 1) % part
        at += part
    return tuple(img)


def label_representative(label, p: int, w: int, e: int):
    """Explicit permutation of p*w + e points realising the label."""
    img = list(range(p * w + e))
    block = 0
    for k, c in label:
        base = block * p
        x = _perm_of_type(c, p)
        for j in range(k - 1):
            for t in range(p):
                img[base + j * p + t] = base + (j + 1) * p + t
        for t in range(p):
            img[base + (k - 1) * p + t] = base + x[t]
        block += k
    return tuple(img)


def _in_wreath_times_tail(g, p: int, w: int) -> bool:
    for t in range(p * w, len(g)):
        if g[t] < p * w:
            return False
    for b in range(w):
        first = g[b * p] // p
        if first >= w:
            return False
        for t in range(1, p):
            if g[b * p + t] // p != first:
                return False
    return True


@cache
def _centralizer_scan(hp, p: int, w: int) -> tuple[bool, int | None]:
    """Walk the centralizer of the permutation hp: whether it stays inside
    the block subgroup times the tail, and its order (None once an element
    outside is found and the walk stops).  A permutation g commutes with hp
    exactly when g(hp^t(i)) = hp^t(g(i)) for all i and t, so choosing
    g(i) = v fixes g along i's whole cycle; a choice that meets a point
    already taken, or does not close up after one turn of the cycle, is
    pruned.  The leaves are exactly the elements of the centralizer."""
    count = _walk(hp, p, w, [None] * len(hp), [False] * len(hp), 0)
    return count is not None, count


def _walk(hp, p: int, w: int, g: list, taken: list, i: int) -> int | None:
    # Not a closure (see symchar._peel).  The number of centralizer elements
    # extending g, which is fixed on every point below i; None once one lies
    # outside.
    n = len(hp)
    while i < n and g[i] is not None:
        i += 1
    if i == n:
        return 1 if _in_wreath_times_tail(g, p, w) else None
    count = 0
    for v in range(n):
        if taken[v]:
            continue
        orbit = []
        x, y = i, v
        while not taken[y]:
            g[x], taken[y] = y, True
            orbit.append(x)
            x, y = hp[x], hp[y]
            if x == i:
                break
        if x == i and y == v:
            below = _walk(hp, p, w, g, taken, i + 1)
            if below is None:
                return None
            count += below
        for x in orbit:
            taken[g[x]] = False
            g[x] = None
    return count


def compute_W(p: int, w: int, e: int) -> dict:
    """For each class label, whether the centralizer of the p-part of its
    representative stays inside the block subgroup times the tail.  Classes
    whose representatives share a p-part share one scan."""
    return {
        label: _centralizer_scan(p_part_perm(label_representative(label, p, w, e), p), p, w)[0]
        for label in enumerate_wreath_classes(p, w)
    }


def verify_centp(p: int, w: int, e: int) -> Report:
    """Brute-force check that the centralizer condition cuts out exactly the
    classes with w (or w-1 when the tail is empty) base p-cycles."""
    rep = Report("centp", {"p": p, "w": w, "e": e})
    threshold = w - 1 if e == 0 else w
    membership = compute_W(p, w, e)
    for label, inside in membership.items():
        expected = in_U_s(label, p, threshold)
        rep.add(
            {"label": format_class_label(label), "threshold": threshold},
            inside == expected,
            None if inside == expected else {"bruteforce": inside, "expected": expected},
        )
    central = canonical_label(((1, (p,)),) * w)
    hp = p_part_perm(label_representative(central, p, w, e), p)
    # A scan that stopped early counted nothing, so its record fails.
    _, count = _centralizer_scan(hp, p, w)
    expected_order = p**w * factorial(w) * factorial(e)
    rep.add(
        {"central_centralizer": count},
        count == expected_order,
        None if count == expected_order else {"expected": expected_order},
    )
    return rep


# ---------------------------------------------------------------------------
# commuting square and hook expansion checks


def verify_diagram(p: int, w: int, rho: Partition) -> Report:
    """Both squares, from one pairing per member and alpha.  Level m holds
    the block of weight w - m: block_basis's characters nu and images I(nu),
    I the signed bijection, and the skews nu/rho; the block is level 0.
    Adjoining p*alpha to lam's character leaves a class function of the
    smaller group; c holds its inner products with level m's nu.  Left: sum
    c_nu nu/rho is lam/rho at p*alpha + sigma.  Right: sum c_nu nu gives
    back the adjoined character (so nothing of it lies off the smaller
    block), each c_nu is integral, and sum c_nu I(nu) is I(lam) at the
    labels with (alpha_j, p-cycle) adjoined.  Each adjunction reads level
    0's rows through one index map per alpha."""
    rep = Report("diagram", {"p": p, "w": w, "core": format_partition(rho)})
    e = sum(rho)
    for m in range(w + 1):
        space, down, wreath = sn_space(p * (w - m) + e), sn_space(p * (w - m)), wreath_space(p, w - m)
        small, chis, images = block_basis(p, w - m, rho)
        skews = [skew_row(nu, rho, down.labels) for nu in small]
        if not m:
            members = list(zip(map(format_partition, small), chis, skews, images))
            index, down_index, wreath_index = space.index, down.index, wreath.index
        for alpha in enumerate_partitions(m):
            stretched = scale(p, alpha)
            extra = tuple((a, (p,)) for a in alpha)
            at = [index[sqcup(stretched, tau)] for tau in space.labels]
            down_at = [down_index[sqcup(stretched, sigma)] for sigma in down.labels]
            wreath_at = [wreath_index[canonical_label(lbl + extra)] for lbl in wreath.labels]
            alpha_text = format_partition(alpha)
            for text, xi, skew, image in members:
                base = {"alpha": alpha_text, "lambda": text}
                adjoined = [xi[i] for i in at]
                c = space.pairings(adjoined, chis)
                rep.add(dict(base, square="left"), down.combine(c, skews) == [skew[i] for i in down_at])

                witness = None
                rebuilt = space.combine(c, chis)
                fractional = [(nu, x) for nu, x in zip(small, c) if type(x) is not int]
                if rebuilt != adjoined:
                    tau = next(t for t, a, b in zip(space.labels, rebuilt, adjoined) if a != b)
                    witness = {"outside_block": True, "class": format_partition(tau)}
                elif fractional:
                    nu, x = fractional[0]
                    witness = {"nu": format_partition(nu), "coeff": str(x)}
                else:
                    total = wreath.combine(c, images)
                    direct = [image[i] for i in wreath_at]
                    if total != direct:
                        witness = {
                            "via_block": [str(v) for v in total],
                            "via_wreath": [str(v) for v in direct],
                        }
                rep.add(dict(base, square="right"), witness is None, witness)
    return rep


def f_tensor(lam: Partition, p: int) -> dict:
    """Values of the character of lam at one p-multiplied type joined with
    one type of p."""
    w = sum(lam) // p
    pairs = [(alpha, beta) for alpha in enumerate_partitions(w - 1) for beta in enumerate_partitions(p)]
    return dict(zip(pairs, skew_row(lam, (), [sqcup(scale(p, alpha), beta) for alpha, beta in pairs])))


def verify_lemma_f(p: int, w: int) -> Report:
    """Hook expansion of the p-multiplied evaluation tensor."""
    if w < 1:
        raise ValueError(f"lemmaf needs w >= 1, got w={w}")
    rep = Report("lemma_f", {"p": p, "w": w})
    alphas = enumerate_partitions(w - 1)
    cycles = [[(k, 0) for k in alpha] for alpha in alphas]
    # hooks[beta][j]: the hook with leg p - j - 1 at beta, times (-1)^(p - j - 1).
    hooks = {
        beta: [(-1) ** i * character_value(hook_partition(i, p), beta) for i in reversed(range(p))]
        for beta in enumerate_partitions(p)
    }
    for lam in partitions_with_core(p * w, (), p):
        quot = p_quotient(lam, p)
        eps = p_sign(lam, (), p)
        legs = [j for j in range(p) if quot[j]]
        rows = [
            induced_row([((1,), q, (1,) if i == j else ()) for i, q in enumerate(quot)], cycles)
            for j in legs
        ]
        skew = dict(zip(alphas, zip(*rows)))
        witness = None
        for (alpha, beta), val in f_tensor(lam, p).items():
            rhs = eps * sum(hooks[beta][j] * term for j, term in zip(legs, skew[alpha]))
            if rhs != val:
                witness = {
                    "alpha": format_partition(alpha),
                    "beta": format_partition(beta),
                    "direct": val,
                    "expansion": rhs,
                }
                break
        rep.add({"lambda": format_partition(lam)}, witness is None, witness)
    return rep
