"""
The signed bijection between a block and its wreath product
===========================================================

Each block character maps to a sign and a tuple of small partitions, one
per leg length; the signed wreath character it labels agrees with the
pushed-down block character on every class rich in base p-cycles.
"""

from blockiso.abacus import partitions_with_core
from blockiso.isometry import build_isometry, isometry_image, isometry_row, pushdown_to_wreath
from blockiso.partitions import format_partition

p, w, rho = 2, 2, ()
n = p * w + sum(rho)

print(f"block: partitions of {n} with empty {p}-core")
for lam, sign, psi in build_isometry(p, w, rho):
    pretty = ", ".join(format_partition(q) or "()" for q in psi)
    print(f"  {format_partition(lam):>8}  ->  sign {sign:+d}  legs ({pretty})")

# spot check the agreement on the classes with at least w base p-cycles,
# where the pushdown lam/rho is read at each class's cycle type
heavy, members, pushed = pushdown_to_wreath(p, w, rho, w)
print("heavy classes:", heavy)
for lam, down in zip(members, pushed):
    image = isometry_image(lam, rho, p)
    agree = [image.value(lbl) for lbl in heavy] == down
    print(f"  {format_partition(lam):>8}: agreement on heavy classes: {agree}")

# a block with nonempty core works the same way
print("core (1), p=2, weight 2:")
for lam in partitions_with_core(5, (1,), 2):
    sign, psi = isometry_row(lam, (1,), 2)
    pretty = ", ".join(format_partition(q) or "()" for q in psi)
    print(f"  {format_partition(lam):>8}  ->  sign {sign:+d}  legs ({pretty})")
