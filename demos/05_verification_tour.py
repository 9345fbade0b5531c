"""
Running the verification suites from Python
===========================================

Each suite returns a report of per-identity records; the command line
prints the same records as JSON Lines.  This script summarizes a short
tour at desk scale.
"""

from blockiso.isometry import (
    verify_centp,
    verify_heights,
    verify_main,
    verify_uniqueness,
    verify_val,
)
from blockiso.modular import decomposition_matrix, verify_orth
from blockiso.perfect import build_mu, perfectness_probe, verify_sep


def show(name, rep):
    status = "ok" if rep.ok else f"{len(rep.failures())} failures"
    print(f"{name:<28} {len(rep.records):>3} records  {status}")


show("values (2,2)", verify_val(2, 2))
show("values (3,2)", verify_val(3, 2))
show("pushdown (2,2,core 1)", verify_main(2, 2, (1,)))
show("heights (2,3)", verify_heights(2, 3, ()))
show("uniqueness (2,2)", verify_uniqueness(2, 2))
show("centralizers (2,2,e=1)", verify_centp(2, 2, 1))
show("modular Gram (3,2)", verify_orth(3, 2))
show("separation (2,2)", verify_sep(2, 2, ()))

print("decomposition matrix for p=2, w=2 (rows ordinary, columns modular):")
for row in decomposition_matrix(2, 2):
    print("  ", row)

print("bicharacter matrix for p=2, w=1 over the principal block:")
for row in build_mu(2, 1, ()):
    print("  ", row)

# perfectness holds exactly while the weight stays below p: there the
# valuation probe asserts it, and from w = p on it only reports
for p, w in ((2, 1), (3, 2), (2, 2)):
    rep = perfectness_probe(p, w, ())
    perfect = all(r["parameters"]["violations"] == 0 for r in rep.records)
    print(f"probe p={p} w={w}: perfect={perfect}")
