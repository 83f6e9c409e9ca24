"""Why f = z^2 cannot commute with T_u once u has a conjugate part.

The commutator is applied to concrete basis vectors, then certified for
all indices at once by the generic rational-in-n residual.
"""

from htoeplitz import (
    basis_label,
    parse_symbol_expr,
    u_symbol,
    commutator_residual,
    verify_commute,
)

u = u_symbol(1)
f = parse_symbol_expr("z^2")
print(f"u = {u}")
print(f"f = {f}")
print()

print("residuals [T_f, T_u] v on low basis vectors:")
# basis vectors by signed index: 1, z, z^2, zbar, zbar^2
for m in [0, 1, 2, -1, -2]:
    res = commutator_residual(f, u, m)
    print(f"  v = {basis_label(m):<7} ->  {res}")

report = verify_commute(f, u, n_max=8)
print()
print(f"verdict: commutes = {report.commutes}, witnesses found = {len(report.witnesses)}")
print()

# the affine family in u does commute, exactly and generically
g = parse_symbol_expr("C1*z + C0 + C1*abar1*conj(z)")
report = verify_commute(g, u, n_max=12)
print(f"g = {g}")
print(f"verdict: commutes = {report.commutes} "
      f"(generic residuals zero on both sides, threshold n0* = {report.threshold})")
