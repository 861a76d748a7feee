"""The public surface of the package: every exported name resolves, and
every elimination passes its matrix positionally.

``bench/tracer.py`` wraps each entry of every module's ``__all__`` by
``getattr`` and reads an elimination's matrix as its first positional
argument, so a stale export or a keyword matrix breaks traced runs.
"""

import ast
import functools
import importlib
import pathlib
import pkgutil
import types

import pytest

import gjb
from conftest import fg_conformal_data
from gjb.coeffring import Coefficient
from gjb.dsl import parse_coefficient
from gjb.fieldtheory import build_canonical
from gjb.structures import cup_product, jacobi_bracket

MODULES = ["gjb"] + [
    f"gjb.{info.name}" for info in pkgutil.iter_modules(gjb.__path__) if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_rref_is_called_with_its_rows_first():
    calls = []
    for path in pathlib.Path(gjb.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "rref":
                    calls.append((path.name, node.lineno, bool(node.args)))
    assert calls, "no call of rref found"
    assert [call for call in calls if not call[2]] == []


def test_only_the_expression_language_asks_a_contraction_to_refuse():
    """A contraction past the bottom degree is the zero of its negative
    degree.  The one call in the package that asks for a refusal instead is
    the expression language's ``i_`` (``strict=True``)."""
    passed, parameters = [], {}
    for path in pathlib.Path(gjb.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                passed += [(path.name, ast.unparse(kw.value)) for kw in node.keywords if kw.arg == "strict"]
            if isinstance(node, ast.FunctionDef) and node.name == "interior_product":
                arguments = node.args
                parameters[node.name] = [a.arg for a in arguments.args + arguments.kwonlyargs]
    assert passed == [("dsl.py", "True")]
    assert parameters == {"interior_product": ["U", "omega", "strict"]}


def test_every_private_function_has_a_caller():
    """A module-level ``_name`` function that nothing in the package
    refers to (outside its own body) is dead code."""
    package = pathlib.Path(gjb.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defined = [
        (filename, node)
        for filename, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    unreferenced = []
    for filename, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        referenced = any(
            id(node) not in own
            and (getattr(node, "id", None) == definition.name or getattr(node, "attr", None) == definition.name)
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )
        if not referenced:
            unreferenced.append(f"{filename}:{definition.lineno} {definition.name}")
    assert unreferenced == []


def test_one_function_joins_signed_terms():
    """Plain and LaTeX text of every value come from one writer: the
    ``" + "`` and ``" - "`` that join the terms of a sum are spelled in
    ``coeffring._signed_sum`` and nowhere else in the package."""
    package = pathlib.Path(gjb.__file__).parent

    def separators(tree):
        return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in {" + ", " - "}]

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert {name: len(separators(tree)) for name, tree in trees.items() if separators(tree)} == {"coeffring.py": 2}
    (signed_sum,) = [node for node in trees["coeffring.py"].body if getattr(node, "name", None) == "_signed_sum"]
    assert sorted(separators(signed_sum)) == [" + ", " - "]


def test_one_grammar_reads_every_text():
    """``coeffring`` writes text and reads none: it defines no tokenizer,
    parser or reader and raises no ParseError.  ``dsl`` is the only module
    that calls ``tokenize``, and the one-pass reader of the writer's form,
    ``_writer_form``, lives in ``dsl`` and is called only there, by
    ``parse_coefficient``, ahead of the grammar."""
    package = pathlib.Path(gjb.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    ring = trees["coeffring.py"]
    defined = {node.name for node in ring.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert defined & {"Token", "tokenize", "_ScalarParser", "parse_coefficient", "_writer_form"} == set()
    assert [node.lineno for node in ast.walk(ring) if isinstance(node, ast.Name) and node.id == "ParseError"] == []

    def callers(name):
        return {
            module
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        }

    assert callers("tokenize") == {"dsl.py"}
    readers = {
        module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_writer_form"
    }
    assert readers == callers("_writer_form") == {"dsl.py"}
    parse_coefficient = next(
        node for node in trees["dsl.py"].body if isinstance(node, ast.FunctionDef) and node.name == "parse_coefficient"
    )
    assert "_writer_form" in {getattr(node.func, "id", None) for node in ast.walk(parse_coefficient) if isinstance(node, ast.Call)}


def test_only_the_interchange_reader_reads_inside_a_payload():
    """The interchange layout is known to ``dsl`` alone: no other module
    subscripts a payload, or ``.get``s from one, with a key of a serialized
    value (a session reads its own members, never a binding's fields)."""
    package = pathlib.Path(gjb.__file__).parent
    layout = {"kind", "degree", "terms", "indices", "coeff", "alpha", "x_field", "v_field"}

    def key(node):
        if isinstance(node, ast.Subscript):
            return node.slice
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args:
            return node.args[0]
        return None

    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(key(node), ast.Constant) and key(node).value in layout
    }
    assert readers == {"dsl.py"}


def test_one_builder_reads_the_contraction_sign_rule():
    """Every contraction system comes from one builder: the sign rule
    ``exterior._contract_key`` is used inside ``exterior`` and, elsewhere in
    the package, only by ``structures._contraction_columns``, which reads
    the columns ι_{∂_J}ω off the forms' terms (and by the import that
    brings it there)."""
    package = pathlib.Path(gjb.__file__).parent

    def refers(node):
        return (
            isinstance(node, ast.Name)
            and node.id == "_contract_key"
            or isinstance(node, ast.Attribute)
            and node.attr == "_contract_key"
            or isinstance(node, ast.alias)
            and node.name == "_contract_key"
        )

    uses = set()
    for path in package.glob("*.py"):
        if path.name != "exterior.py":
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                if any(refers(node) for node in ast.walk(top)):
                    uses.add((path.name, type(top).__name__, getattr(top, "name", None)))
    assert uses == {
        ("structures.py", "ImportFrom", None),
        ("structures.py", "FunctionDef", "_contraction_columns"),
    }


def _scopes(body, prefix=""):
    """(qualified name, node) of each top-level statement, methods of a
    class named ``Class.method``."""
    for top in body:
        name = f"{prefix}{getattr(top, 'name', '')}"
        if isinstance(top, ast.ClassDef):
            yield from _scopes(top.body, f"{name}.")
        else:
            yield name, top


def test_a_section_computes_its_sigma_in_one_place():
    """sigma_h has one call path: in the package, only
    ``HamiltonianSection.sigma`` refers to ``fieldtheory.dissipation_form``
    (besides imports and ``__all__``), so each section solves its refined
    Reeb pairs once and every reader shares the result."""
    package = pathlib.Path(gjb.__file__).parent

    def refers(node):
        return getattr(node, "id", None) == "dissipation_form" or (
            isinstance(node, ast.Attribute) and node.attr == "dissipation_form"
        )

    uses = {
        (path.name, name)
        for path in package.glob("*.py")
        for name, top in _scopes(ast.parse(path.read_text(encoding="utf-8")).body)
        if any(refers(node) for node in ast.walk(top))
    }
    assert uses == {("fieldtheory.py", "HamiltonianSection.sigma")}


def test_the_hamilton_system_pulls_back_through_the_monomial_table():
    """The jet's table of x-volume coefficients is the package's only form
    pullback.  ``_monomial`` is called only by itself (each entry wedges
    its prefix's) and by ``_pulled_top``; ``_pulled_top`` only by the
    Hamilton system and the evolution law.  Nothing defines or calls a
    ``pull``, ``pull_form`` or ``pull_form_along``."""
    package = pathlib.Path(gjb.__file__).parent
    generic = {"pull", "pull_form", "pull_form_along", "PolyMap"}
    callers = {"_monomial": set(), "_pulled_top": set()}
    found = set()
    for path in package.glob("*.py"):
        for name, top in _scopes(ast.parse(path.read_text(encoding="utf-8")).body):
            if name.rpartition(".")[2] in generic:
                found.add((path.name, name))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in callers:
                        callers[called].add((path.name, name))
                    elif called in generic:
                        found.add((path.name, f"{name} calls {called}"))
    assert callers == {
        "_monomial": {("fieldtheory.py", "JetSection._monomial"), ("fieldtheory.py", "_pulled_top")},
        "_pulled_top": {("fieldtheory.py", "_hdw_system"), ("fieldtheory.py", "evolution_residual")},
    }
    assert found == set()


def test_a_hamiltonian_pair_is_verified_once():
    """ι_WΩ = dΨ(α) is checked where a pair enters: ``psi_map`` checks
    each image it builds and ``poisson_bracket`` the pairs its caller
    supplies.  Nothing in the package calls ``poisson_bracket`` on pairs
    ``psi_map`` has just checked; it brackets them with ``_poisson``."""
    package = pathlib.Path(gjb.__file__).parent

    calls = {"poisson_bracket": set(), "_verify_hamiltonian_pair": set()}
    for path in package.glob("*.py"):
        for name, top in _scopes(ast.parse(path.read_text(encoding="utf-8")).body):
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in calls:
                        calls[called].add((path.name, name))
    assert calls == {
        "poisson_bracket": set(),
        "_verify_hamiltonian_pair": {("symplectization.py", "poisson_bracket"), ("symplectization.py", "psi_map")},
    }


def test_conformal_data_is_checked_against_both_equations_only_where_alpha_comes_from_outside():
    """``make_conformal_data`` checks an α its caller supplies: the
    command-line operands of ``conformal verify``, a stored payload, a
    re-validated binding, and the sum or multiple of two checked triples.
    Data whose α the package computes, −ι_XΘ, is built by
    ``_contracted_data`` from a given witness or by ``_witnessed_data``,
    which solves for it (``conformal make`` and ``verify_conformal``); both
    check the conformal equation through ``_checked_data``, and
    ``fieldtheory`` builds through nothing else."""
    package = pathlib.Path(gjb.__file__).parent

    calls = {
        "make_conformal_data": set(),
        "_contracted_data": set(),
        "_witnessed_data": set(),
        "_checked_data": set(),
        "ConformalData": set(),
    }
    for path in package.glob("*.py"):
        for name, top in _scopes(ast.parse(path.read_text(encoding="utf-8")).body):
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in calls:
                        calls[called].add((path.name, name))
    assert calls == {
        "make_conformal_data": {
            ("cli.py", "_cmd_conformal"),
            ("dsl.py", "_check_shape"),
            ("session.py", "Session._revalidate_bindings"),
            ("structures.py", "ConformalData.__add__"),
            ("structures.py", "ConformalData.scale"),
        },
        "_contracted_data": {
            ("fieldtheory.py", "_table1_rows"),
            ("fieldtheory.py", "vertical_conformal_from_FG"),
            ("structures.py", "cup_product"),
            ("structures.py", "jacobi_bracket"),
        },
        "_witnessed_data": {("cli.py", "_cmd_conformal"), ("structures.py", "verify_conformal")},
        "_checked_data": {("structures.py", "_contracted_data"), ("structures.py", "_witnessed_data")},
        "ConformalData": {("structures.py", "_checked_data"), ("structures.py", "make_conformal_data")},
    }


def _callers(filename, called):
    """The scopes of a package module that call ``called``, by name or as
    an attribute."""
    tree = ast.parse((pathlib.Path(gjb.__file__).parent / filename).read_text(encoding="utf-8"))
    return {
        name
        for name, top in _scopes(tree.body)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and called in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_the_flat_map_is_eliminated_in_one_place():
    """In ``fieldtheory`` two functions eliminate: ``_flat_map``, whose one
    elimination of the flat images every Reeb-dual and subbundle reader
    reads, and ``_hdw_system``, the Hamilton system's own."""
    assert _callers("fieldtheory.py", "rref") == {"_flat_map", "_hdw_system"}


def test_a_verdict_has_one_way_in_and_one_way_out():
    """A failed ``CheckReport`` becomes an exception only through
    ``CheckReport.require``: no ``if not <expr>.ok:`` in the package has a
    ``raise`` in its body.  The CLI prints a verdict only through
    ``_verdict``: no other function of ``cli.py`` spells a ``witness:`` or
    ``details:`` line, and ``_verdict``'s callers are the four commands
    that answer with a verdict."""
    package = pathlib.Path(gjb.__file__).parent
    raising = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            test = getattr(node, "test", None)
            if (
                isinstance(node, ast.If)
                and isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Attribute)
                and test.operand.attr == "ok"
                and any(isinstance(inner, ast.Raise) for statement in node.body for inner in ast.walk(statement))
            ):
                raising.append(f"{path.name}:{node.lineno}")
    assert raising == []
    printers = {
        name
        for name, top in _scopes(ast.parse((package / "cli.py").read_text(encoding="utf-8")).body)
        for node in ast.walk(top)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith(("witness:", "details:"))
    }
    assert printers == {"_verdict"}
    assert _callers("cli.py", "_verdict") == {
        "_cmd_check_multicontact",
        "_cmd_dissipated",
        "_cmd_psi_check",
        "_cmd_symplectize",
    }


def test_psi_map_reads_no_upsilon():
    """``psi_map``'s one check is its Hamiltonian pair, a contraction
    against Ω: neither it nor a function of its module it calls, directly
    or not, reads Υ, which the Υ check of ``lift_conformal`` reads."""
    tree = ast.parse((pathlib.Path(gjb.__file__).parent / "symplectization.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}

    def reads(name):
        return {node.attr for node in ast.walk(functions[name]) if isinstance(node, ast.Attribute)}

    reached, todo = set(), ["psi_map"]
    while todo:
        name = todo.pop()
        reached.add(name)
        calls = {getattr(node.func, "id", None) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}
        todo += sorted((calls & functions.keys()) - reached)
    assert reached == {"psi_map", "_homogeneous_lift", "_verify_hamiltonian_pair"}
    assert [name for name in sorted(reached) if "upsilon" in reads(name)] == []
    assert "upsilon" in reads("lift_conformal")


def test_solves_do_not_enumerate_every_index_tuple():
    """A contraction solve, the flat-image span and its reductions read only
    the index tuples some term touches; an untouched unknown is counted
    (``math.comb``), never listed.  ``structures._all_index_tuples`` lists all
    C(N, p) of them, which at (n, m) = (8, 2) is 6 724 520 for p = 7, so
    none of these functions may refer to it."""
    package = pathlib.Path(gjb.__file__).parent
    sparse = {
        "structures.py": {
            "_contraction_columns",
            "_stacked_rows",
            "solve_by_contraction",
            "verify_conformal",
        },
        "sharp.py": {"z_membership"},
        "fieldtheory.py": {
            "refined_reeb",
            "_flat_map",
            "hamiltonian_subbundle_check",
            "_mod_flat_representative",
        },
    }
    found, offenders = set(), []
    for filename, names in sparse.items():
        tree = ast.parse((package / filename).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found.add((filename, node.name))
                if any(
                    "_all_index_tuples" in (getattr(inner, "id", None), getattr(inner, "attr", None), getattr(inner, "name", None))
                    for inner in ast.walk(node)
                    if inner is not node
                ):
                    offenders.append(f"{filename}:{node.name}")
    assert found == {(filename, name) for filename, names in sparse.items() for name in names}
    assert offenders == []


def test_every_module_level_import_is_used():
    """A name a module imports at its top level is read somewhere in that
    module: in code, in a quoted annotation such as ``"JetSection"``, or
    by ``__all__``."""
    package = pathlib.Path(gjb.__file__).parent

    def annotations(tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                yield node.returns
            elif isinstance(node, ast.arg) and node.annotation:
                yield node.annotation
            elif isinstance(node, ast.AnnAssign):
                yield node.annotation

    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for annotation in annotations(tree):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    quoted = ast.parse(node.value, mode="eval")
                    used.update(inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == [], unused


def test_every_cache_is_bounded():
    """A cache lives as long as the process, so each one has a bound:
    every ``lru_cache`` of the package is called with an int ``maxsize``
    (a literal or a module constant), and nothing uses ``functools.cache``,
    ``maxsize=None`` or a bare ``lru_cache``."""
    package = pathlib.Path(gjb.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(f"gjb.{path.stem}") if path.stem != "__main__" else None
        local = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
        }

        def kind(node):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
                return node.attr
            if isinstance(node, ast.Name):
                return local.get(node.id)
            return None

        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and kind(node.func) == "lru_cache":
                called.add(id(node.func))
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                size = None
                if len(sizes) == 1 and isinstance(sizes[0], ast.Constant):
                    size = sizes[0].value
                elif len(sizes) == 1 and isinstance(sizes[0], ast.Name):
                    size = getattr(module, sizes[0].id, None)
                if type(size) is not int:
                    offenders.append(f"{path.name}:{node.lineno} lru_cache without an int maxsize")
        for node in ast.walk(tree):
            if kind(node) == "cache":
                offenders.append(f"{path.name}:{node.lineno} functools.cache")
            elif kind(node) == "lru_cache" and id(node) not in called:
                offenders.append(f"{path.name}:{node.lineno} bare lru_cache")
    assert offenders == [], offenders


def test_only_the_ring_reads_the_packed_layout():
    """The packed key layout (``_WIDTH``, ``_BIAS``, ``_SLOT``, ``_GUARD``)
    is named in ``coeffring`` alone; every other module moves packed keys
    through its helpers, such as ``_slot_shifted`` for the one-slot
    transport of ``symplectization``."""
    package = pathlib.Path(gjb.__file__).parent
    layout = {"_WIDTH", "_BIAS", "_SLOT", "_GUARD"}

    def named(node):
        return {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)} & layout

    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and named(node)
    }
    assert readers == {"coeffring.py"}


def test_only_the_ring_and_its_kernels_read_numerators_and_denominators():
    """A Coefficient's fields ``nums`` and ``den`` are read and written as
    attributes in ``coeffring`` and in the modules that work on the ring's
    representation: the product kernel of ``exterior``, the content and
    division of ``linalg``, and the Hamilton rows of ``fieldtheory``.
    ``dsl`` writes a stored literal's numerator and denominator through
    ``Coefficient._checked_nums`` without naming the fields; every other
    module reads a value through the ring's operations."""
    package = pathlib.Path(gjb.__file__).parent
    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in {"nums", "den"}
    }
    assert readers == {"coeffring.py", "exterior.py", "fieldtheory.py", "linalg.py"}
    dsl = ast.parse((package / "dsl.py").read_text(encoding="utf-8"))
    assert "_checked_nums" in {getattr(node.func, "attr", None) for node in ast.walk(dsl) if isinstance(node, ast.Call)}


def test_a_leibniz_check_reads_no_boundary_view(monkeypatch):
    """Leibniz checks on vertical (F, G) data at (2, 1) with denominators 2
    and 3, one on three degree-1 operands (its cup is degree-2 data) and
    one led by a degree-2 operand, do all their arithmetic on the ring's
    numerators and denominators: ``Coefficient.terms``, the boundary view,
    is read zero times."""
    S = build_canonical(2, 1)

    def data(F, A, B):
        read = functools.partial(parse_coefficient, S.chart)
        return fg_conformal_data(S, 2, 1, read(F), [read(text) for text in A], [read(text) for text in B])

    a = data("1/2*x0", ["1/3*y", "x1"], ["1/2"])
    b = data("1/3*y", ["1/2*x0*y", "0"], ["1/3*x1"])
    c = data("1/2", ["x0", "1/3"], ["1/2*x1"])
    a2 = cup_product(a, data("x1", ["1/6", "1/2*y"], ["y"]))
    assert {coeff.den for d in (a, b, c, a2) for coeff in d.alpha.terms.values()} >= {2, 3}
    reads = []
    view = Coefficient.terms
    monkeypatch.setattr(Coefficient, "terms", property(lambda coeff: reads.append(coeff) or view.fget(coeff)))
    fields = []
    for first in (a, a2):
        bracket = jacobi_bracket(first, cup_product(b, c))
        rhs = cup_product(jacobi_bracket(first, b), c).alpha + cup_product(b, jacobi_bracket(first, c)).alpha
        assert bracket.alpha == rhs
        fields.append(bracket.x_field)
    # vertical data brackets to vertical fields, so every α here is zero,
    # but the fields the brackets computed are not
    assert a2.degree == 2 and not fields[0].is_zero()
    assert reads == []
    # the count is live: a read of the view is counted
    next(iter(fields[0].terms.values())).terms
    assert len(reads) == 1


def _members(cls):
    """(owner, name) of each public method and property of ``cls``, its
    package base classes' too; dunders are not members here."""
    kinds = (types.FunctionType, staticmethod, classmethod, property, functools.cached_property)
    return {
        (owner.__name__, name)
        for owner in cls.__mro__
        if owner.__module__.startswith("gjb.")
        for name, value in vars(owner).items()
        if not name.startswith("_") and isinstance(value, kinds)
    }


def test_every_exported_name_has_a_reader():
    """Every name of every module's ``__all__``, and every public method
    and property of every exported class, is read somewhere in the
    package, the demos or the benchmark: an exported name as a name or an
    attribute in code, not as an import, a definition or an ``__all__``
    entry, and a member as an attribute outside its own body.  A name only
    tests read is not public surface; it belongs in ``tests/oracles.py``.

    The check goes by name, not by type: a member passes when any
    attribute of that name is read.  So ``Coefficient.evaluate`` and
    ``DiffForm.volume`` passed it only by sharing a name with
    ``dsl.evaluate`` and ``CanonicalStructure.volume``; both are now
    oracles in ``tests/oracles.py``."""
    root = pathlib.Path(gjb.__file__).parent
    files = [*root.glob("*.py"), *(root.parents[1] / "demos").glob("*.py"), *(root.parents[1] / "bench").glob("*.py")]
    read, attributes = set(), set()
    for path in files:
        if path.name.startswith("test_"):
            continue
        for scope, top in _scopes(ast.parse(path.read_text(encoding="utf-8")).body):
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                    attributes.add((node.attr, scope))
    exported = {
        f"{module}.{name}": getattr(importlib.import_module(module), name)
        for module in MODULES
        for name in getattr(importlib.import_module(module), "__all__", ())
    }
    assert sorted(name for name in exported if name.rpartition(".")[2] not in read) == []
    members = set().union(*(_members(value) for value in exported.values() if isinstance(value, type)))
    unread = {
        f"{owner}.{name}"
        for owner, name in members
        if not any(attr == name and not f"{scope}.".startswith(f"{owner}.{name}.") for attr, scope in attributes)
    }
    assert sorted(unread) == []


def test_no_code_writes_to_the_terms_of_a_built_value():
    """A graded object's ``terms`` and a Coefficient's ``nums`` and ``den``
    are never written after construction, which keeps the Schouten inputs
    a multivector holds (``MultiVector._schouten``, whose cleared terms may
    be a coefficient's ``nums`` itself) exact.  Outside the constructors
    of ``Coefficient`` (``_reduced`` among them) and ``_Graded`` no code
    in the package rebinds,
    assigns into, deletes from or calls a mutating method on a ``.terms``
    or a ``.nums``, rebinds a ``.den``, or passes a ``.terms`` or a
    ``.nums`` as ``_accumulate``'s target; and only ``schouten_nijenhuis``
    and its helper name the slot."""
    package = pathlib.Path(gjb.__file__).parent
    builders = {"Coefficient.__init__", "Coefficient._trusted", "Coefficient._reduced", "_Graded.__init__", "_Graded._trusted"}
    mutators = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr in {"terms", "nums"}

    offenders, slot_readers = [], set()
    for path in sorted(package.glob("*.py")):
        for name, top in _scopes(ast.parse(path.read_text(encoding="utf-8")).body):
            for node in ast.walk(top):
                where = f"{path.name}:{node.__dict__.get('lineno')} {name}"
                writes = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
                if writes and isinstance(node, ast.Attribute) and node.attr in {"terms", "nums", "den"} and name not in builders:
                    offenders.append(f"{where} rebinds .{node.attr}")
                elif writes and isinstance(node, ast.Subscript) and is_terms(node.value):
                    offenders.append(f"{where} writes into .terms")
                elif isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and func.attr in mutators and is_terms(func.value):
                        offenders.append(f"{where} calls .terms.{func.attr}")
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    target = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "terms"]
                    if called == "_accumulate" and any(is_terms(arg) for arg in target):
                        offenders.append(f"{where} accumulates into .terms")
                if (isinstance(node, ast.Attribute) and node.attr == "_schouten") or (
                    isinstance(node, ast.Constant) and node.value == "_schouten"
                ):
                    # a statement of a class body is named by its class
                    slot_readers.add((path.name, name.rstrip(".")))
    assert offenders == []
    # the one string naming the slot is its entry in MultiVector.__slots__
    assert slot_readers == {("exterior.py", "MultiVector"), ("exterior.py", "_schouten_inputs")}
