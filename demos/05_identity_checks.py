"""Run the machine-checkable identity suite and print the report.

Exact identities are hard asserts; bounds with unknown constants are
reported as diagnostics with their fitted values.
"""

import sys

import fermigas as fg
from fermigas import verify

cfg = fg.fermi_ball(1.0)
pot = fg.coulomb(1.0)

reports = verify.run_all(cfg, pot)
width = max(len(r.name) for r in reports)
for r in sorted(reports, key=lambda r: r.name):
    line = f"{r.status:10s} {r.name:{width}s}  measured = {r.measured:.3e}"
    if r.tolerance is not None and r.tolerance not in (0.0, float("inf")):
        line += f"  (tolerance {r.tolerance:.0e})"
    print(line)

failed = [r for r in reports if r.status == "fail"]
if failed:
    print("\nfailures with reproducers:")
    for r in failed:
        print(f"  {r.name}: {r.reproducer}")
print(f"\n{len(reports)} checks, {len(failed)} failed")
sys.exit(1 if failed else 0)
