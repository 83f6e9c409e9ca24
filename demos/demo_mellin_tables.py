"""A tour of the exact Mellin layer.

Transforms of r^a (ln r)^b are rational functions of z with a single pole
at -a; inversion is exact, and adaptive quadrature agrees to full
precision.
"""

from htoeplitz import RadialFunction, inverse_mellin, mellin, mellin_numeric

print("transform table")
for a, b in [(2, 0), (4, 1), (0, 2), (-1, 0), (3, 3)]:
    phi = RadialFunction.term(1, a, b)
    print(f"  {str(phi):<16} ->  {mellin(phi).render()}")

print()
print("round trips")
phi = (
    RadialFunction.term(1, 3)
    + RadialFunction.term(3, 1)
    + RadialFunction.term(2, 1, 1)
    - RadialFunction.term(1, -1)
)
ahat = mellin(phi)
print(f"  phi      = {phi}")
print(f"  phi^     = {ahat.render()}")
print(f"  inverted = {inverse_mellin(ahat)}")
assert inverse_mellin(ahat) == phi

print()
print("exact vs quadrature at s = 3, 5, 7")
for s in (3.0, 5.0, 7.0):
    exact = sum((c.bind({}) / (s + float(q)) ** j for (q, j), c in ahat.fractions.items()), 0j)
    quad = mellin_numeric(phi, s)
    print(f"  s = {s}: exact {exact:+.12f}, quadrature {quad.real:+.12f}, "
          f"diff {abs(exact - quad):.2e}")
