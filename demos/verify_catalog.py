"""Walkthrough: verifying the level-five identity catalog.

Every catalog entry encodes one exact identity as a cross-multiplied pair of
series; verification compares coefficients up to the common truncation
order.  Five printed sources carry misprints (proved by independent numeric
evaluation): those entries ship an extra "corrected" variant, and the
default as-stated run reports their failures rather than hiding them.

Run:  python demos/verify_catalog.py
"""

from theta5 import verify
from theta5.catalog import catalog

print(f"catalog size: {len(catalog())} entries")
print()
print("id     variant     result  compared-below  location")
print("-" * 72)

failures = []
for entry in catalog():
    for variant in entry.variants:
        r = verify(entry.id, max(20, entry.min_meaningful_order), variant)
        status = "pass" if r.passed else "FAIL"
        order = "inf" if r.order_checked is None else f"{float(r.order_checked):g}"
        print(f"{r.id:6s} {variant:11s} {status:6s} {order:>8s}        {entry.location}")
        if not r.passed:
            failures.append(r)

print()
print("as-stated failures (each one a misprint in the printed source):")
for r in failures:
    print(f"  {r.id}: first mismatch at q^{r.first_mismatch_exponent}, "
          f"lhs coefficient {r.lhs_coeff}, rhs {r.rhs_coeff}")
print()
print("every failing entry passes in its corrected variant; the corrected")
print("forms were solved for numerically and then re-verified exactly here.")
