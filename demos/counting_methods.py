"""Tour of the six counting routes and where each one earns its keep.

Run:  python3 demos/counting_methods.py
"""

import time

from bitpairs import (
    MemoCache,
    s_circular,
    s_circular_oracle,
    z_auto,
    z_closed_m0,
    z_oracle,
    z_recur_firstone,
    z_recur_split,
    z_reduce_to_m0,
)

print("How many length-8 binary strings, arranged in a ring, have exactly")
print("two adjacent 00 pairs and two adjacent 11 pairs?")
print()
print(f"  formula:      {s_circular(8, 2, 2)}")
print(f"  brute force:  {s_circular_oracle(8, 2, 2)}")
print()

print("The formula is one linear count.  A ring with r = (n-k-m)/2 runs of each")
print("bit has r places where a 0-run starts; cut there, it is a string counted")
print("by z(n,k,m), and each such string closes into a ring at any of its n")
print("rotations, so r * s(n,k,m) = n * z(n,k,m):")
print(f"  s(8,2,2) = 8 * z(8,2,2) / 2 = 8 * {z_auto(8, 2, 2)} / 2")
print()

print("The linear count z(n,k,m) fixes a leading 0 and drops the wraparound")
print("adjacency.  Six routes compute it, five of them here.  The two")
print("recurrences share one append-a-bit step and differ in seed and readout;")
print("the other routes are derived on their own:")
print()
n, k, m = 12, 3, 2
routes = [
    ("oracle (enumerate 2^11 strings)", lambda: z_oracle(n, k, m)),
    ("last-bit recurrence", lambda: z_recur_split(n, k, m)),
    ("first-1-position recurrence", lambda: z_recur_firstone(n, k, m)),
    ("reduction to the m=0 column", lambda: z_reduce_to_m0(n, k, m)),
    ("runs count, two binomials", lambda: z_auto(n, k, m)),
]
for name, fn in routes:
    print(f"  z({n},{k},{m}) = {fn():>4}   via {name}")
print()

print("The m = 0 column needs no recursion at all: z(n,k,0) is the single")
print("binomial C(floor((n+k-1)/2), k).")
for kk in range(6):
    print(f"  z(20,{kk},0) = {z_closed_m0(20, kk)}")
print()

print("Counts are exact Python integers, so nothing overflows at scale:")
t0 = time.perf_counter()
big = z_auto(500, 120, 80)
dt = time.perf_counter() - t0
print(f"  z(500,120,80) has {len(str(big))} digits ({dt * 1000:.1f} ms)")
print(f"  = {big}")
print()

print("Both recurrences append one bit at a time to the strings counted on two")
print("grids of the query's (k+1)(m+1) cells, one grid per last bit, so their")
print("memory stays bounded whatever n is.  The split starts from \"0\" and sums")
print("both grids; first-one starts from \"0\" and \"1\" and reads the grid of")
print("strings ending in 0, which reversed are the ones starting with 0.  An")
print("optional write-once MemoCache receives the final layer, so a warm cache")
print("answers later queries at the same n without another pass, and a cache")
print("shared by both recurrences raises if they ever disagree on a cell both")
print("wrote:")
shared = MemoCache()
first = z_recur_split(60, 10, 8, shared)
print(f"  z(60,10,8) = {first} (split, one layer), cache holds {len(shared)} entries")
again = z_recur_split(60, 3, 5, shared)
print(f"  z(60,3,5) = {again} (read off that layer), cache holds {len(shared)} entries")
wide = z_recur_firstone(60, 12, 8, shared)
print(f"  z(60,12,8) = {wide} (first-one, a wider layer that agreed with split's")
print(f"  on every cell both wrote), cache holds {len(shared)} entries")
