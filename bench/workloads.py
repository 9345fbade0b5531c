"""Invocation lists for the four benchmark workloads.

An invocation is the argv list given to `blockiso` (without the program
name).  The `heavy` workload is a fixed list in three parts, trimmed so that
one pass takes about ten seconds; the seed only sets the order of each pass.
The `cold_sweep` workload adds inputs sampled from finite universes, and
every member of every universe has a recorded digest, so the output gate
applies in full whatever the seed.

Nothing here imports `blockiso`: the inputs must not change when the program
under test does.
"""

from __future__ import annotations

import random

# The parts of `heavy`, each chosen for the layer it loads (see README.md).
HEAVY_PARTS = {
    # zeta_value rows and wreath_inner_product; the S_n side stays at S_w.
    "wreath_rows": [
        "decomp --p 5 --w 2",
        "decomp --p 3 --w 4",
        "verify orth --p 5 --w 2",
        "verify orth --p 3 --w 4",
        "verify heights --p 5 --w 3",
        "verify heights --p 3 --w 4",
    ],
    # S_11 class functions: inner_product, block_projection, R_mu / I_mu.
    "sn_transfer": [
        "verify type --p 3 --w 3 --core 2",
        "verify transfer --p 3 --w 3 --core 2",
        "verify diagram --p 3 --w 3 --core 2",
        "verify sep --p 3 --w 3 --core 2",
        "mu --p 3 --w 3 --core 2",
    ],
    # Big-n Murnaghan-Nakayama rows (S_15, S_17) pushed down to the wreath
    # product and compared with isometry_image; about 0.9 MB of JSON Lines.
    "pushdown": [
        "verify main --p 5 --w 3",
        "verify main --p 5 --w 3 --core 2",
        "verify main --p 3 --w 3 --core 1",
        "verify main --p 3 --w 3 --core 1,1",
        "verify main --p 2 --w 4 --core 2,1",
        "verify val --p 5 --w 3",
        "verify lemmaf --p 5 --w 3",
        "verify unique --p 5 --w 3",
    ],
}

WORKLOADS = ("heavy", "cold_sweep")

# Every p-core of size at most 3, for p in {2, 3}.
SMALL_CORES = {2: ("", "1", "2,1"), 3: ("", "1", "2", "1,1")}
CORE_FREE_VERBS = ("val", "unique", "lemmaf", "orth")
CORE_VERBS = ("main", "heights", "diagram", "sep", "type", "perfproj", "probe", "transfer")
SAMPLES_PER_UNIVERSE = 3


def argv(text: str) -> list[str]:
    return text.split()


def partitions(n: int, largest: int | None = None):
    """Partitions of n as decreasing tuples, descending lexicographic."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def text(lam) -> str:
    return ",".join(map(str, lam))


def is_core(lam, p: int) -> bool:
    """No hook of length divisible by p (equivalently, none of length p)."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    return all(
        (lam[i] - j - 1) + (conj[j] - i - 1) + 1 != p
        for i in range(len(lam))
        for j in range(lam[i])
    )


def _wreath_phis(p: int, w: int):
    """`kappa:mu;...` assignments of partitions to the base labels, total w."""
    kappas = list(partitions(p))

    def assign(i: int, rem: int):
        if i == len(kappas):
            if rem == 0:
                yield []
            return
        for size in range(rem + 1):
            for mu in partitions(size):
                for rest in assign(i + 1, rem - size):
                    yield ([f"{text(kappas[i])}:{text(mu)}"] if mu else []) + rest

    return [";".join(items) for items in assign(0, w)]


def _wreath_classes(p: int, w: int):
    """`k:c,...` class labels: multisets of (k, c) with c a partition of p."""
    pairs = [(k, c) for k in range(1, w + 1) for c in partitions(p)]

    def choose(start: int, rem: int):
        if rem == 0:
            yield []
            return
        for i in range(start, len(pairs)):
            k, c = pairs[i]
            if k <= rem:
                for rest in choose(i, rem - k):
                    yield [f"{k}:{text(c)}"] + rest

    return [",".join(items) for items in choose(0, w)]


def universes() -> dict[str, list[list[str]]]:
    """Every input the cold sweep may sample, by subcommand."""
    small = [lam for n in range(1, 8) for lam in partitions(n)]
    out: dict[str, list[list[str]]] = {}
    for cmd in ("core", "quotient", "sign"):
        out[cmd] = [[cmd, "--p", str(p), "--partition", text(lam)] for p in (2, 3) for lam in small]
    out["gamma"] = [
        ["gamma", "--p", str(p), "--core", text(lam)]
        for p in (2, 3)
        for n in range(11)
        for lam in partitions(n)
        if is_core(lam, p)
    ]
    out["char"] = [
        ["char", "--n", str(n), "--lambda", text(lam), "--class", text(tau)]
        for n in range(1, 7)
        for lam in partitions(n)
        for tau in partitions(n)
    ]
    out["wchar"] = [
        ["wchar", "--p", str(p), "--w", str(w), "--phi", phi, "--class", cls]
        for p in (2, 3)
        for w in (1, 2)
        for phi in _wreath_phis(p, w)
        for cls in _wreath_classes(p, w)
    ]
    table = [["table", "--n", str(n)] for n in range(1, 9)]
    for p, cores in SMALL_CORES.items():
        for core in cores:
            size = sum(map(int, core.split(","))) if core else 0
            table += [
                ["table", "--n", str(n), "--p", str(p), "--core", core, "--format", fmt]
                for n in range(max(size, 1), 9)
                if (n - size) % p == 0
                for fmt in ("csv", "json")
            ]
    out["table"] = table
    return out


def cold_fixed() -> list[list[str]]:
    """The sweep's fixed part: every subcommand and verify verb at p = 2 and
    p = 3, each p-core of size at most 3 taken in turn."""
    out = []
    for p in (2, 3):
        out += [argv(f"verify {verb} --p {p} --w 3") for verb in CORE_FREE_VERBS]
        out.append(argv(f"decomp --p {p} --w 3"))
        cores = SMALL_CORES[p]
        for i, cmd in enumerate([f"verify {verb}" for verb in CORE_VERBS] + ["isometry", "mu"]):
            core = cores[i % len(cores)]
            out.append(argv(f"{cmd} --p {p} --w 2") + (["--core", core] if core else []))
    # Brute-force permutation scans at n = 8 and n = 9, and the lattice layer.
    out.append(argv("verify centp --p 2 --w 4 --e 0"))
    out.append(argv("verify centp --p 3 --w 3 --e 0 --max-group-order 400000"))
    out.append(argv("verify perfproj --p 3 --w 4"))
    return out


def build(name: str, seed: int) -> tuple[list[list[str]], random.Random]:
    """The workload's invocations for this seed, and the generator that
    orders its passes (call `next_pass`)."""
    rng = random.Random(seed)
    if name == "heavy":
        invocations = [argv(t) for part in HEAVY_PARTS.values() for t in part]
    elif name == "cold_sweep":
        invocations = cold_fixed()
        for cmd, universe in sorted(universes().items()):
            invocations += rng.sample(universe, SAMPLES_PER_UNIVERSE)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return invocations, rng


def next_pass(invocations: list[list[str]], rng: random.Random) -> list[list[str]]:
    order = list(invocations)
    rng.shuffle(order)
    return order


def every_invocation() -> list[list[str]]:
    """Each invocation any seed can produce; the gate records all of them."""
    out = [argv(t) for part in HEAVY_PARTS.values() for t in part] + cold_fixed()
    for universe in universes().values():
        out += universe
    return out
