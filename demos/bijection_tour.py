"""The correspondence between 1-pair-free strings and parity-alternating
position sequences, end to end on small cases.

Run:  python3 demos/bijection_tour.py
"""

from bitpairs import (
    enumerate_terquem,
    enumerate_Z,
    from_terquem,
    linear_pair_counts,
    sd_encode,
    terquem_T,
    to_terquem,
)

b = "001010001010001"
print(f"Take b = {b} (length 15, five 00 pairs, no 11 pairs).")
print(f"  profile:   {linear_pair_counts(b)}")
print(f"  S/D word:  {sd_encode(b)}   (S = adjacent bits equal)")
print()
print("Recording the 1-indexed position of the first 0 of each 00 pair:")
t = to_terquem(b)
print(f"  t = {t}")
print("The entries alternate parity and start odd; that is forced, because")
print("with no 11 pairs every equal-adjacent slot sits at a position whose")
print("parity matches its index in the sequence.")
print()
print("The map inverts by copying the previous bit at slots in t and")
print("flipping elsewhere:")
print(f"  from_terquem(t, 15) = {from_terquem(t, 15)}")
print()

n, k = 7, 2
print(f"Over all of Z({n},{k},0) the map is a bijection onto the sequences")
print(f"with entries from 1..{n - 1}:")
for s in enumerate_Z(n, k, 0):
    print(f"  {s}  ->  {to_terquem(s)}")
print()
seqs = enumerate_terquem(n - 1, k)
print(f"enumerate_terquem({n - 1}, {k}) lists the same {len(seqs)} sequences:")
print(f"  {seqs}")
print(f"and the triangle agrees: T({n - 1},{k}) = {terquem_T(n - 1, k)}")
print()

print("The sequences over 1..bound that start even are those over 1..bound-1")
print("raised by one, so they are counted one triangle row up:")
for bound in range(2, 7):
    even = [tuple(v + 1 for v in t) for t in enumerate_terquem(bound - 1, 2)]
    print(f"  bound={bound}: {len(even):>2} even-start pairs, T({bound - 1},2) = {terquem_T(bound - 1, 2)}")
