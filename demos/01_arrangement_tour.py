# A tour of the basic objects: a central arrangement of four planes in
# three variables, its defining polynomial, and the rank-2 flats (the lines
# where two or more planes meet) with their adapted coordinate systems.

from arrops import parse_arrangement

arr = parse_arrangement("x1; x2; x3; x1-x2")
print("arrangement:", arr.text())
print("defining polynomial Q =", arr.defining_polynomial().text())

rank = arr.rank()
print("rank =", rank, "(essential)" if rank == arr.dim else "(degenerate)")

# Every pair of planes meets in a line through the origin.  Deduplicating
# those lines gives the rank-2 flats; each flat knows which planes pass
# through it.
print("\nflats:")
for flat in arr.lattice.flats:
    planes = ", ".join(arr.hyperplanes[i].text() for i in flat.local_indices)
    print(f"  direction {flat.direction}: planes {{{planes}}}")

# Each flat carries a direction derivation delta = sum v_i d_i, a section
# form y with delta(y) = 1, and kernel forms spanning ker(delta).  The
# forms of the planes through the flat live in the kernel coordinates.
print("\ncoordinate data per flat:")
for flat in arr.lattice.flats:
    frame = flat.to_json()
    print(f"  {flat.direction}: y = {frame['section']},", "kernel =", frame["kernel_forms"])

# The direction derivation annihilates exactly the forms through the flat.
flat0 = arr.lattice.flats[0]
print("\ndelta on each plane form (zero iff the plane contains the flat):")
for i, h in enumerate(arr.hyperplanes):
    print(f"  {h.text():>8} -> {sum(c * v for c, v in zip(h.normal, flat0.direction))}")
