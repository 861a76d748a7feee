"""A tour of the covariant field equations with dissipation.

Run with ``python3 demos/field_equations_tour.py``.

The canonical phase space of a first-order field theory with n
independent and m dependent variables carries a multicontact form.  A
Hamiltonian H(x, y, p^mu_i, s^mu) induces an exact jet-space system of
field equations plus a dissipation 1-form sigma that twists every
conservation law.
"""

from fractions import Fraction

from gjb import (
    Chart,
    Coefficient,
    DiffForm,
    MultiVector,
    NFormStructure,
    build_canonical,
    dissipated_check,
    distortion,
    elementary_tables,
    evolution_residual,
    gamma_obstruction,
    good_hamiltonian_check,
    hamiltonian_section,
    hdw_residuals,
    is_multicontact,
    variational_check,
    vertical_conformal_from_FG,
    wedge,
)


def headline(text):
    print()
    print(text)
    print("-" * len(text))


# ---------------------------------------------------------------------------
headline("The canonical phase space for n = 2, m = 1")

C = build_canonical(2, 1, parameters=("g",))
print(f"coordinates: {', '.join(C.chart.coordinates)}")
print(f"theta = {C.theta}")

# A damped scalar field: quadratic momenta plus a linear action term
# whose coefficient g is an inert parameter.
half = Fraction(1, 2)
p0, p1, s0 = (C.coordinate(name) for name in ("p0", "p1", "s0"))
g = C.coordinate("g")
H = (p0**2).scale(half) + (p1**2).scale(half) + g * s0
section = hamiltonian_section(C, H)
print(f"H = {H}")
print(f"h = {section.h_form}")


# ---------------------------------------------------------------------------
headline("Dissipation form and the field equations")

print(f"sigma = {section.sigma}")

labels = (
    ["E_s"]
    + [f"E_y[{i},{mu}]" for i in range(C.spec.m) for mu in range(C.spec.n)]
    + [f"E_p[{i}]" for i in range(C.spec.m)]
)
for label, residual in zip(labels, hdw_residuals(section)):
    print(f"  {label} = {residual}")
print("(setting each residual to zero gives the covariant Hamilton equations;")
print(" jet symbols like y_x0 stand for the partial derivatives of a section)")


# ---------------------------------------------------------------------------
headline("Evolution of the elementary conformal forms")

rows, _ = elementary_tables(C)
for row in rows:
    value = evolution_residual(section, row.data)
    dissipated = dissipated_check(section, row.data)
    print(
        f"  {row.label}: evolution residual = {value}"
        f"{'  [dissipated quantity]' if dissipated else ''}"
    )


# ---------------------------------------------------------------------------
headline("A conformal current from generating functions")

# F(x, y) and G^mu(x, y, p) generate a vertical conformal transformation
# whose form is a candidate dissipated current.
F = Coefficient.zero(C.chart)
G = (Coefficient.constant(C.chart, -1), Coefficient.zero(C.chart))
_, data = vertical_conformal_from_FG(C, F, G)
print(f"alpha = {data.alpha}")
print(f"dissipated for this H: {dissipated_check(section, data)}")


# ---------------------------------------------------------------------------
headline("Variational structures and the goodness obstruction")

report = variational_check(C)
grid, all_zero = distortion(C)
print(f"canonical structure variational: {report.ok}  (distortion all zero: {all_zero})")

# A five-dimensional structure that is multicontact but NOT variational:
# its two Reeb directions pair nontrivially through theta.
chart = Chart(("x", "y", "z", "s1", "s2"), nonvanishing=frozenset({"z"}))
z = Coefficient.coordinate(chart, "z")
theta = wedge(
    DiffForm.differential(chart, "s1"), DiffForm.differential(chart, "s2")
) + wedge(DiffForm.differential(chart, "x"), DiffForm.differential(chart, "y")).scale(z)
five = NFormStructure(chart, theta)
print(f"five-dimensional example multicontact: {is_multicontact(five).ok}")
print(f"five-dimensional example variational:  {variational_check(five).ok}")

# For a non-variational structure a Hamiltonian can fail to be "good":
# the obstruction below is the exact 1-form gamma that measures it.
h = wedge(DiffForm.differential(chart, "s1"), DiffForm.differential(chart, "s2")).scale(
    Coefficient.coordinate(chart, "x")
)
R1 = MultiVector.basis_vector(chart, "s1")
R2 = MultiVector.basis_vector(chart, "s2")
gamma = gamma_obstruction(five, h, R1, R2)
print(f"good Hamiltonian: {good_hamiltonian_check(five, h).ok}")
print(f"obstruction gamma = {gamma}")
