"""
Exact character tables and block data
=====================================

Values come from the recursive border-strip rule over plain integers, so
rows print exactly as they appear in the reference tables.
"""

from blockiso.abacus import p_core, partitions_with_core
from blockiso.partitions import enumerate_partitions, format_partition
from blockiso.symchar import (
    degree,
    height_by_tower,
    height_by_valuation,
    irr_class_function,
)

n = 5
classes = enumerate_partitions(n)
print("classes of degree", n, "in descending lex order:")
print("  ", [format_partition(c) for c in classes])

for lam in classes:
    print(f"{format_partition(lam):>12}  {list(irr_class_function(lam).values)}")

# degrees satisfy the sum of squares identity
total = sum(degree(lam) ** 2 for lam in enumerate_partitions(n))
print("sum of squared degrees:", total, "= 5! =", total == 120)

# partitions sort into blocks by their p-core
p = 2
cores = {}
for lam in enumerate_partitions(n):
    cores.setdefault(p_core(lam, p), []).append(lam)
for rho, members in sorted(cores.items()):
    print(f"2-core {format_partition(rho) or '()'}:",
          [format_partition(m) for m in members])

# two height computations, one from iterated cores, one from valuations
for lam in partitions_with_core(4, (), 2):
    ht = height_by_tower(lam, 2)
    hv = height_by_valuation(lam, 2)
    print(f"height of {format_partition(lam):>8}: tower {ht}, valuation {hv}")
