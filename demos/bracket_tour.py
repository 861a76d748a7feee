"""A tour of the graded bracket machinery on two small charts.

Run with ``python3 demos/bracket_tour.py``.  Everything is exact: the
coefficients are Laurent polynomials over the rationals, so every
identity printed below is a literal equality of data structures.
"""

from gjb import (
    Chart,
    Coefficient,
    DiffForm,
    MultiVector,
    NFormStructure,
    cup_product,
    exterior_derivative,
    interior_product,
    is_multicontact,
    jacobi_bracket,
    lie_derivative,
    make_conformal_data,
    verify_conformal,
)


def headline(text):
    print()
    print(text)
    print("-" * len(text))


# ---------------------------------------------------------------------------
headline("A contact chart and its structure form")

chart = Chart(("q", "p", "z"))
q, p, z = (Coefficient.coordinate(chart, name) for name in "qpz")
eta = DiffForm.differential(chart, "z") - DiffForm.differential(chart, "q").scale(p)
S = NFormStructure(chart, eta)
print(f"theta = {eta}")
print(f"multicontact: {is_multicontact(S).ok}")


# ---------------------------------------------------------------------------
headline("Conformal data: a transformation, its form, and its witness")

# Every function f on a contact chart generates a conformal triple:
# the form f itself, a vector field X_f, and the witness -df/dz.
def data_of(f):
    fq, fp, fz = (f.partial(name) for name in "qpz")
    X = (
        MultiVector.basis_vector(chart, "q").scale(fp)
        - MultiVector.basis_vector(chart, "p").scale(fq + p * fz)
        + MultiVector.basis_vector(chart, "z").scale(p * fp - f)
    )
    return make_conformal_data(S, DiffForm.from_scalar(f), X, -fz)


f, g, h = q * q, p * z, q + z
a, b, c = data_of(f), data_of(g), data_of(h)
print(f"f = {f}:  X = {a.x_field},  witness = {a.v_field}")
print(f"g = {g}:  X = {b.x_field},  witness = {b.v_field}")

# The defining equation: dragging theta along X scales it by the witness.
assert lie_derivative(a.x_field, eta) == eta.scale(a.v_field.scalar())
print("checked: L_X theta = V * theta for f")


# ---------------------------------------------------------------------------
headline("The bracket and its identities")

ab = jacobi_bracket(a, b)
print(f"{{f, g}} = {ab.alpha}")

ba = jacobi_bracket(b, a)
assert ab.alpha == -ba.alpha
print("checked: skew symmetry  {f, g} = -{g, f}")

total = (
    jacobi_bracket(a, jacobi_bracket(b, c)).alpha
    + jacobi_bracket(b, jacobi_bracket(c, a)).alpha
    + jacobi_bracket(c, jacobi_bracket(a, b)).alpha
)
assert total.is_zero()
print("checked: Jacobi identity on (f, g, h)")

expression = lie_derivative(a.x_field, b.alpha) - interior_product(a.v_field, b.alpha)
assert ab.alpha == expression
print("checked: {f, g} = (L_X - i_V) g")

assert cup_product(a, b).alpha.is_zero()
print("checked: the cup product of two functions vanishes on a contact chart")


# ---------------------------------------------------------------------------
headline("Discovering a witness instead of supplying one")

X = b.x_field
V = verify_conformal(S, X)
print(f"solved witness for X_g: {V}  (matches the known one: {V == b.v_field})")

not_conformal = MultiVector.basis_vector(chart, "q").scale(z)
print(f"witness for z*e_q: {verify_conformal(S, not_conformal)}  (no witness exists)")


# ---------------------------------------------------------------------------
headline("Exactness pays off: a Laurent coefficient ring")

ring = Chart(("u", "w"), nonvanishing=frozenset({"w"}))
w_inverse = Coefficient.coordinate(ring, "w") ** -1
series = (Coefficient.coordinate(ring, "u") + w_inverse) ** 3
print(f"(u + w^-1)^3 = {series}")
print(f"d of it       = {exterior_derivative(DiffForm.from_scalar(series))}")
