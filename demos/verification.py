"""Cross-checking every counting route against exhaustive enumeration.

Run:  python3 demos/verification.py
"""

from bitpairs import enumerate_circular, enumerate_Z, verify_all

print("verify_all sweeps the full (n, k, m) grid, comparing each fast method")
print("to the exhaustive oracle, re-checking the closed form on the m = 0")
print("column and the circular formula, and testing the end-bit parity rule")
print("on every string.")
print()

report = verify_all(12, "both")
print(report.summary())
print()

print("The report object is structured, so failures are machine-readable:")
print(f"  success    = {report.success}")
print(f"  checks     = {report.checks}")
print(f"  methods    = {', '.join(report.methods)}")
print(f"  mismatches = {list(report.mismatches)}")
print()

print("The counts also match the listings string for string.  For n = 6,")
print("k = m = 1, the linear members (leading 0) are:")
for b in enumerate_Z(6, 1, 1):
    print(f"  {b}")
print("and the circular members (either leading bit, ring adjacency):")
for b in enumerate_circular(6, 1, 1):
    print(f"  {b}")
print()
print("Same sweep from the shell:  bitpairs verify --max-n 12 --mode both")
