"""The public surface of the package: every exported name resolves, and
every elimination passes its matrix positionally.

``bench/tracer.py`` wraps each entry of every module's ``__all__`` by
``getattr`` and reads an elimination's matrix as its first positional
argument, so a stale export or a keyword matrix breaks traced runs.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gjb

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
    the expression language's ``i_`` (``strict=True``), and
    ``form_contraction`` takes no ``strict`` at all."""
    passed, parameters = [], {}
    for path in pathlib.Path(gjb.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                passed += [(path.name, ast.unparse(kw.value)) for kw in node.keywords if kw.arg == "strict"]
            if isinstance(node, ast.FunctionDef) and node.name in {"interior_product", "form_contraction"}:
                arguments = node.args
                parameters[node.name] = [a.arg for a in arguments.args + arguments.kwonlyargs]
    assert passed == [("dsl.py", "True")]
    assert parameters == {"interior_product": ["U", "omega", "strict"], "form_contraction": ["xi", "U"]}


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
    """``coeffring`` writes text and reads none: it defines no tokenizer
    or parser and raises no ParseError, and ``dsl`` is the only module
    that calls ``tokenize``."""
    package = pathlib.Path(gjb.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    ring = trees["coeffring.py"]
    defined = {node.name for node in ring.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert defined & {"Token", "tokenize", "_ScalarParser", "parse_coefficient"} == set()
    assert [node.lineno for node in ast.walk(ring) if isinstance(node, ast.Name) and node.id == "ParseError"] == []
    callers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "tokenize" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    }
    assert callers == {"dsl.py"}


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


def test_solves_do_not_enumerate_every_index_tuple():
    """A contraction solve, the flat-image span and its reductions read only
    the index tuples some term touches; an untouched unknown is counted
    (``math.comb``), never listed.  ``structures._index_tuples`` lists all
    C(N, p) of them, which at (n, m) = (8, 2) is 6 724 520 for p = 7, so
    none of these functions may refer to it."""
    package = pathlib.Path(gjb.__file__).parent
    sparse = {
        "structures.py": {
            "_contraction_columns",
            "_stacked_rows",
            "solve_by_contraction",
            "verify_conformal",
            "ms_hamiltonian_pair",
        },
        "sharp.py": {"_decomposition_solution"},
        "fieldtheory.py": {
            "refined_reeb",
            "_flat_image_span",
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
                    "_index_tuples" in (getattr(inner, "id", None), getattr(inner, "attr", None), getattr(inner, "name", None))
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
