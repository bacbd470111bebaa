# An independent check on everything: the exact dimension of the degree-d
# slice of the order-m module, computed as the nullspace dimension of the
# membership linear system over the rationals.  If the module is free with
# exponents e_1..e_r, the dimension at degree d must be the sum of the
# binomials counting degree-(d - e_i) monomials.

from itertools import combinations_with_replacement

from arrops import exp_3arr_closed, hilbert_check, oracle_dims, parse_arrangement

arr = parse_arrangement("x1; x2; x3; x1-x2")

exps = exp_3arr_closed(arr, 2)
print("closed-form exponents at m = 2:", list(exps))
report = hilbert_check(arr, 2, exps.entries, max(exps.entries) + 2)
print("degree | oracle | free-module prediction")
for d, dim, pred in report.rows:
    print(f"  {d:>4} | {dim:>6} | {pred:>6}")
print("verdict:", "consistent" if report.consistent else "inconsistent")

# A negative control: the generic arrangement of four planes is NOT free at
# order 1.  No candidate exponent triple survives the oracle.
generic = parse_arrangement("x1; x2; x3; x1+x2+x3")
print("\ngeneric 4-plane arrangement at order 1:")
print("  true dimensions:", oracle_dims(generic, 1, 5))
for triple in combinations_with_replacement(range(5), 3):
    if sum(triple) != 4:
        continue
    verdict = hilbert_check(generic, 1, triple, 5).consistent
    print(f"  exponents {triple}: {'consistent' if verdict else 'ruled out'}")
