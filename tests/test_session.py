"""Session persistence: schema versioning, round trips, re-validation on
read, lazy bindings, verbatim write-back and atomic saves.  A
``gjb-session/1`` file names its chart in every value; the tests that
edit a stored chart write such a file (``_as_version_1``)."""

import builtins
import contextlib
import copy
import errno
import io
import json
import shutil
from pathlib import Path

import pytest

from gjb import dsl as dsl_module
from gjb import session as session_module
from gjb.cli import main
from gjb.coeffring import Chart, Coefficient
from gjb.dsl import _check_shape, _payload, render
from gjb.errors import StructuralError, ValidationError
from gjb.exterior import DiffForm, MultiVector
from gjb.fieldtheory import build_canonical, elementary_tables
from gjb.session import SCHEMA, Session, SessionError
from oracles import volume

CAN = build_canonical(2, 1)
CONTACT_GOLDEN = Path(__file__).resolve().parent / "golden" / "session" / "contact.json"


def canonical_session():
    session = Session(chart=CAN.chart)
    session.set_theta(CAN.theta)
    return session


def test_round_trip_preserves_every_binding_kind(tmp_path):
    session = canonical_session()
    rows, _ = elementary_tables(CAN)
    session.bindings["scalar"] = Coefficient.coordinate(CAN.chart, "p0")
    session.bindings["form"] = DiffForm.differential(CAN.chart, "x0")
    session.bindings["vector"] = MultiVector.basis_vector(CAN.chart, "s1")
    session.bindings["data"] = rows[0].data
    path = tmp_path / "session.json"
    session.save(path)

    loaded = Session.load(path)
    assert loaded.chart == CAN.chart
    assert loaded.theta == CAN.theta
    assert loaded.bindings["scalar"] == session.bindings["scalar"]
    assert loaded.bindings["form"] == session.bindings["form"]
    assert loaded.bindings["vector"] == session.bindings["vector"]
    assert loaded.bindings["data"].alpha == rows[0].data.alpha
    assert loaded.bindings["data"].structure is loaded.structure()


def test_schema_tag_is_required(tmp_path):
    session = canonical_session()
    path = tmp_path / "session.json"
    session.save(path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == SCHEMA

    payload["schema"] = "gjb-session/3"
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionError, match="unsupported session schema 'gjb-session/3'"):
        Session.load(path)

    del payload["schema"]
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionError):
        Session.load(path)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(SessionError):
        Session.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SessionError):
        Session.load(bad)


def test_conformal_data_revalidates_on_load(tmp_path):
    session = canonical_session()
    rows, _ = elementary_tables(CAN)
    session.bindings["data"] = rows[3].data
    path = tmp_path / "session.json"
    session.save(path)

    payload = json.loads(path.read_text())
    payload["bindings"]["data"]["x_field"]["terms"][0]["coeff"] = "17"
    path.write_text(json.dumps(payload))
    loaded = Session.load(path)
    with pytest.raises(ValidationError):
        loaded.bindings["data"]


CONTACT_CHART = {"coordinates": ["q", "p", "z"], "nonvanishing": []}

# c = cup(a, b) for X_a = e_q, X_b = e_p + q*e_z on theta = dz - p*dq, as
# files written before zero forms carried negative degrees stored it: the
# zero alpha sits at degree 0 rather than n - p = -1
OLD_CUP_SESSION = {
    "schema": "gjb-session/1",
    "chart": CONTACT_CHART,
    "theta": {
        "kind": "form",
        "degree": 1,
        "chart": CONTACT_CHART,
        "terms": [{"coeff": "-1*p", "indices": [0]}, {"coeff": "1", "indices": [2]}],
    },
    "bindings": {
        "c": {
            "kind": "conformal-data",
            "alpha": {"kind": "form", "degree": 0, "chart": CONTACT_CHART, "terms": []},
            "x_field": {
                "kind": "multivector",
                "degree": 2,
                "chart": CONTACT_CHART,
                "terms": [{"coeff": "1", "indices": [0, 1]}, {"coeff": "1*q", "indices": [0, 2]}],
            },
            "v_field": {
                "kind": "multivector",
                "degree": 1,
                "chart": CONTACT_CHART,
                "terms": [{"coeff": "-1", "indices": [2]}],
            },
            "validated": True,
        }
    },
}


def test_old_zero_alpha_at_degree_zero_still_loads(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(OLD_CUP_SESSION))
    cup = Session.load(path).bindings["c"]
    assert cup.alpha.is_zero()
    assert cup.alpha.degree == -1
    assert str(cup.x_field) == "e_q^e_p + q*e_q^e_z"
    assert str(cup.v_field) == "-e_z"


def test_typed_zero_alpha_survives_a_round_trip(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(OLD_CUP_SESSION))
    loaded = Session.load(path)
    loaded.save(path)
    assert json.loads(path.read_text())["bindings"]["c"]["alpha"]["degree"] == -1
    again = Session.load(path)
    assert again.bindings["c"].alpha == loaded.bindings["c"].alpha
    assert again.bindings["c"].x_field == loaded.bindings["c"].x_field
    assert again.bindings["c"].v_field == loaded.bindings["c"].v_field


def test_conformal_data_without_theta_is_refused(tmp_path):
    session = canonical_session()
    rows, _ = elementary_tables(CAN)
    path = tmp_path / "session.json"
    session.save(path)
    payload = json.loads(path.read_text())
    payload["theta"] = None
    payload["bindings"] = {"data": _payload(rows[0].data)}
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionError, match="binding 'data': conformal data needs a structure"):
        Session.load(path)


def test_set_theta_revalidates_and_rolls_back():
    session = canonical_session()
    rows, _ = elementary_tables(CAN)
    session.bindings["data"] = rows[0].data
    # a different multicontact form on the same chart invalidates the triple
    other = volume(CAN.chart, ("x0", "x1"))
    with pytest.raises(ValidationError):
        session.set_theta(other)
    assert session.theta == CAN.theta  # rolled back
    assert session.structure().theta == CAN.theta


def test_set_theta_rejects_foreign_charts_and_scalars():
    session = canonical_session()
    foreign = Chart(("a", "b"))
    with pytest.raises(StructuralError):
        session.set_theta(DiffForm.differential(foreign, "a"))
    with pytest.raises(StructuralError):
        session.set_theta(DiffForm.zero(CAN.chart, 2))


def test_environment_carries_structure_and_bindings():
    session = canonical_session()
    session.bindings["w"] = DiffForm.differential(CAN.chart, "y")
    env = session.environment()
    assert env.chart == CAN.chart
    assert env.structure is session.structure()
    assert env.bindings["w"] == session.bindings["w"]
    bare = Session(chart=CAN.chart)
    assert bare.environment().structure is None
    with pytest.raises(SessionError):
        bare.structure()


# -- the lazy contract ---------------------------------------------------------
#
# A load checks every binding's shape and name; a binding's coefficients
# are parsed, and conformal data re-validated, when a command first reads it.


def _saved(tmp_path, bindings):
    session = canonical_session()
    for name, value in bindings.items():
        session.bindings[name] = value
    path = tmp_path / "session.json"
    session.save(path)
    return path


def _as_version_1(payload):
    """A saved payload as a ``gjb-session/1`` file stores it: θ and every
    graded value (each part of conformal data) name the session chart."""
    payload = copy.deepcopy(payload)
    payload["schema"] = "gjb-session/1"
    values = [] if payload["theta"] is None else [payload["theta"]]
    for value in payload["bindings"].values():
        parts = ("alpha", "x_field", "v_field") if value["kind"] == "conformal-data" else ()
        values.extend([value[part] for part in parts] or [value])
    for value in values:
        value["chart"] = copy.deepcopy(payload["chart"])
    return payload


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_command_builds_only_the_bindings_it_reads(tmp_path, capsys, monkeypatch):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {f"a{i}": rows[i % len(rows)].data for i in range(32)})
    stored = json.loads(path.read_text())
    built = []

    def counting(payload, *args, **kwargs):
        parse = _check_shape(payload, *args, **kwargs)

        def counted():
            built.append(payload)
            return parse()

        return counted

    # every binding is checked at load, and its parse pass builds it on read
    monkeypatch.setattr(session_module, "_check_shape", counting)
    code, out, _ = _cli(capsys, "render", "a0", "-s", str(path))
    assert code == 0
    assert out == render(rows[0].data) + "\n"
    assert built == [stored["bindings"]["a0"]]


def test_a_written_binding_is_read_without_the_grammar(tmp_path, monkeypatch):
    # the texts the package writes are read in one pass; a hand-edited text
    # outside the writer's form goes through the grammar
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "h": Coefficient.coordinate(CAN.chart, "y")})
    payload = json.loads(path.read_text())
    assert payload["bindings"]["data"]["x_field"]["terms"]
    payload["bindings"]["h"]["terms"][0]["coeff"] = "(x0 + y)^2"
    path.write_text(json.dumps(payload))
    texts = []
    real = dsl_module.tokenize
    monkeypatch.setattr(dsl_module, "tokenize", lambda text: texts.append(text) or real(text))
    loaded = Session.load(path)
    assert loaded.bindings["data"].x_field == rows[0].data.x_field
    assert texts == []
    assert loaded.bindings["h"] == (Coefficient.coordinate(CAN.chart, "x0") + Coefficient.coordinate(CAN.chart, "y")) ** 2
    assert texts == ["(x0 + y)^2"]


def test_membership_iteration_and_length_read_nothing(tmp_path):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    loaded = Session.load(path)
    assert "data" in loaded.bindings and "zz" not in loaded.bindings
    assert list(loaded.bindings) == ["data", "w"]
    assert len(loaded.bindings) == 2
    assert loaded.environment().bindings is loaded.bindings
    assert all(isinstance(entry, session_module._Unread) for entry in loaded.bindings._entries.values())


def test_unread_payloads_are_written_back_verbatim(tmp_path):
    path = _saved(tmp_path, {"w": DiffForm.differential(CAN.chart, "y")})
    payload = json.loads(path.read_text())
    # not the canonical text to_json writes, so a rebuilt value would differ
    payload["bindings"]["w"]["terms"][0]["coeff"] = "2 - 1"
    payload["bindings"]["w"]["stamp"] = "kept"
    path.write_text(json.dumps(payload))
    loaded = Session.load(path)
    loaded.bindings["u"] = DiffForm.differential(CAN.chart, "x0")
    loaded.save(path)
    saved = json.loads(path.read_text())
    assert saved["bindings"]["w"] == payload["bindings"]["w"]
    assert saved["bindings"]["u"] == _payload(loaded.bindings["u"])
    again = Session.load(path)
    assert again.bindings["w"] == DiffForm.differential(CAN.chart, "y")
    again.save(path)
    assert json.loads(path.read_text())["bindings"]["w"] == _payload(DiffForm.differential(CAN.chart, "y"))


def test_a_version_1_file_is_written_back_as_version_2_with_its_texts(tmp_path):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    payload = json.loads(path.read_text())
    payload["bindings"]["w"]["terms"][0]["coeff"] = "2 - 1"
    path.write_text(json.dumps(_as_version_1(payload)))
    Session.load(path).save(path)
    saved = json.loads(path.read_text())
    assert saved == payload
    assert path.read_text().count('"chart"') == 1


def test_set_theta_forces_every_binding_and_its_rollback_keeps_them_unread(tmp_path):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    # the refused θ = dq^dp has another n - p, at which the reader would
    # type the old cup's stored zero α; the rollback keeps it at -1
    old = tmp_path / "old" / "session.json"
    old.parent.mkdir()
    old.write_text(json.dumps(OLD_CUP_SESSION))
    Session.load(old).save(old)
    for path, name, other in ((path, "data", ("x0", "x1")), (old, "c", ("q", "p"))):
        before = path.read_bytes()
        loaded = Session.load(path)
        theta = loaded.theta
        with pytest.raises(ValidationError):
            loaded.set_theta(volume(loaded.chart, other))
        assert loaded.theta == theta
        assert all(isinstance(entry, session_module._Unread) for entry in loaded.bindings._entries.values())
        loaded.save(path)
        assert path.read_bytes() == before

        loaded.set_theta(theta)
        assert not any(isinstance(entry, session_module._Unread) for entry in loaded.bindings._entries.values())
        assert loaded.bindings[name].structure is loaded.structure()


def _tampered(tmp_path):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[3].data})
    payload = json.loads(path.read_text())
    payload["bindings"]["data"]["x_field"]["terms"][0]["coeff"] = "17"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def test_a_tampered_triple_fails_the_commands_that_read_it(tmp_path, capsys):
    path = _tampered(tmp_path)
    before = Path(path).read_bytes()
    for argv in (["bracket", "data", "data"], ["theta", "set", str(CAN.theta)]):
        code, out, err = _cli(capsys, *argv, "-s", path)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ")
        assert "\n  residual[" in err
    assert Path(path).read_bytes() == before
    code, out, _ = _cli(capsys, "render", "d(x0)", "-s", path)
    assert (code, out) == (0, "dx0\n")


def test_a_malformed_coefficient_names_its_binding(tmp_path, capsys):
    path = _saved(tmp_path, {"w": DiffForm.differential(CAN.chart, "x0"), "u": DiffForm.differential(CAN.chart, "y")})
    payload = json.loads(path.read_text())
    payload["bindings"]["w"]["terms"][0]["coeff"] = "2*x0^"
    path.write_text(json.dumps(payload))
    code, out, err = _cli(capsys, "render", "w", "-s", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: malformed session file: binding 'w': coefficient '2*x0^': "
        "expected a name, number or '(', found 'end of input' (line 1, column 5)\n"
    )
    code, out, err = _cli(capsys, "render", "u", "-s", str(path))
    assert (code, out, err) == (0, "dy\n", "")


def test_a_coefficient_outside_the_ring_names_its_binding(tmp_path, capsys):
    rows, _ = elementary_tables(CAN)
    dx0, dy = DiffForm.differential(CAN.chart, "x0"), DiffForm.differential(CAN.chart, "y")
    path = _saved(tmp_path, {"w": dx0, "a": rows[0].data, "u": dy})
    payload = json.loads(path.read_text())
    # parses, but x0 may vanish, so x0^-1 is not in the chart's Laurent ring
    payload["bindings"]["w"]["terms"][0]["coeff"] = "x0^-1"
    payload["bindings"]["a"]["x_field"]["terms"][0]["coeff"] = "p^-2"
    path.write_text(json.dumps(payload))
    code, out, err = _cli(capsys, "render", "w", "-s", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed session file: binding 'w': coefficient 'x0^-1': 1*x0 is not a unit of the Laurent ring (line 1, column 2)\n"
    code, out, err = _cli(capsys, "bracket", "a", "a", "-s", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed session file: binding 'a': coefficient 'p^-2': 1*p is not a unit of the Laurent ring (line 1, column 1)\n"
    code, out, err = _cli(capsys, "render", "u", "-s", str(path))
    assert (code, out, err) == (0, "dy\n", "")


def test_saving_into_a_missing_directory_is_a_session_error(tmp_path, capsys):
    target = tmp_path / "nodir" / "x.json"
    code, out, err = _cli(capsys, "chart", "new", "--coordinates", "q,p,z", "-s", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write session file {target}: No such file or directory\n"
    with pytest.raises(SessionError, match="cannot write session file"):
        canonical_session().save(target)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_save_leaves_the_old_file_whole(tmp_path, monkeypatch):
    rows, _ = elementary_tables(CAN)
    bindings = {f"a{i}": rows[i].data for i in range(len(rows))}
    path = _saved(tmp_path, bindings)
    loaded = Session.load(path)
    loaded.bindings["w"] = DiffForm.differential(CAN.chart, "y")
    real_open = builtins.open

    class HalfWrite:
        """A file that takes half of what is written, then runs out of space."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return HalfWrite(handle) if "w" in mode and str(tmp_path) in str(file) else handle

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    with pytest.raises(OSError):
        loaded.save(path)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == ["session.json"]
    again = Session.load(path)
    assert sorted(again.bindings) == sorted(bindings)
    for name, data in bindings.items():
        assert again.bindings[name].alpha == data.alpha


# -- the file layout -------------------------------------------------------------
#
# A save writes one member to a line and one binding to a line, each value by
# the C encoder (json.dumps without an indent); a load needs only valid JSON.


def _binding_lines(text):
    lines = text.splitlines()
    start = lines.index('  "bindings": {')
    return lines[start + 1 : lines.index("  },", start)]


@pytest.mark.parametrize("k", [1, 2, 7])
def test_a_save_writes_one_line_per_binding(tmp_path, k):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {f"a{i}": rows[i % len(rows)].data for i in reversed(range(k))})
    text = path.read_text()
    lines = _binding_lines(text)
    assert len(lines) == k
    assert [json.loads("{" + line.rstrip(",") + "}").popitem()[0] for line in lines] == [f"a{i}" for i in range(k)]
    tail = text.splitlines()[k + 3 :]
    assert [line.split(":")[0] for line in tail] == ['  "chart"', '  "schema"', '  "theta"', "}"]


def test_an_empty_session_writes_an_empty_bindings_object(tmp_path):
    path = tmp_path / "session.json"
    canonical_session().save(path)
    assert path.read_text().splitlines()[:2] == ["{", '  "bindings": {},']


def test_the_saved_text_holds_exactly_the_payload(tmp_path):
    rows, _ = elementary_tables(CAN)
    session = canonical_session()
    session.bindings["w"] = DiffForm.differential(CAN.chart, "x0")
    session.bindings["s"] = Coefficient.coordinate(CAN.chart, "p0")
    session.bindings["data"] = rows[2].data
    path = tmp_path / "session.json"
    session.save(path)
    assert json.loads(path.read_text()) == session.to_payload()
    bare = Session(chart=Chart(("q", "p", "z"), frozenset({"z"})))
    bare.save(path)
    assert json.loads(path.read_text()) == bare.to_payload()


def test_saving_an_unchanged_file_reproduces_its_bytes(tmp_path):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    before = path.read_bytes()
    Session.load(path).save(path)
    assert path.read_bytes() == before
    loaded = Session.load(path)
    loaded.bindings["data"], loaded.bindings["w"]  # read, then written from the values
    loaded.save(path)
    assert path.read_bytes() == before


def test_a_file_in_the_indented_layout_loads_and_is_rewritten_in_the_new_one(tmp_path):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    new_layout = path.read_bytes()
    payload = json.loads(new_layout)
    # an unread value keeps even a spelling the writer would not produce
    payload["bindings"]["w"]["terms"][0]["coeff"] = "2 - 1"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    loaded = Session.load(path)
    assert loaded.to_payload() == payload
    loaded.save(path)
    text = path.read_text()
    assert json.loads(text) == payload
    assert len(_binding_lines(text)) == 2
    assert len(text.splitlines()) == 9
    assert Session.load(path).bindings["w"] == DiffForm.differential(CAN.chart, "y")


@pytest.mark.parametrize(
    "chart",
    [
        {"coordinates": ["a", "b"], "nonvanishing": []},
        {"coordinates": list(reversed(CAN.chart.coordinates)), "nonvanishing": []},
        {"coordinates": list(CAN.chart.coordinates), "nonvanishing": ["p"]},
    ],
    ids=["other-names", "other-order", "other-flags"],
)
@pytest.mark.parametrize("part", [None, "alpha", "x_field", "v_field"])
def test_a_binding_on_a_foreign_chart_is_refused_at_load(tmp_path, capsys, chart, part):
    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    payload = _as_version_1(json.loads(path.read_text()))
    if part is None:
        payload["bindings"]["w"]["chart"] = chart
    else:
        payload["bindings"]["data"][part]["chart"] = chart
    path.write_text(json.dumps(payload))
    name = "w" if part is None else "data"
    with pytest.raises(SessionError, match=f"binding '{name}': serialized object lives on a different chart"):
        Session.load(path)
    code, out, err = _cli(capsys, "render", "dx0", "-s", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: malformed session file: binding '{name}': serialized object lives on a different chart\n"


def test_a_value_off_the_session_chart_is_refused_when_stored():
    # the reader refuses a binding on another chart, so a session that
    # stored one would write a file no command can load
    from gjb.symplectization import build, psi_map

    rows, _ = elementary_tables(CAN)
    sym = build(CAN)
    psi, witness = psi_map(sym, rows[0].data)
    other = elementary_tables(build_canonical(3, 1))[0][0].data
    session = canonical_session()
    for value in (psi, witness, sym.conformal_factor, other):
        with pytest.raises(SessionError, match="cannot store 'c': its value lives off the session chart"):
            session.bindings["c"] = value
        with pytest.raises(SessionError, match="cannot store 'c'"):
            Session(chart=CAN.chart, bindings={"c": value})
    assert "c" not in session.bindings
    session.bindings["c"] = rows[0].data
    assert session.bindings["c"] is rows[0].data


def test_a_binding_on_an_equal_chart_spelled_otherwise_loads(tmp_path):
    chart = Chart(("q", "p", "z"), frozenset({"p", "z"}))
    p = Coefficient.coordinate(chart, "p")
    session = Session(chart=chart)
    session.set_theta(DiffForm.differential(chart, "z") - DiffForm.differential(chart, "q").scale(p))
    w = DiffForm.differential(chart, "q").scale(p ** -1)
    session.bindings["w"] = w
    path = tmp_path / "session.json"
    session.save(path)
    payload = _as_version_1(json.loads(path.read_text()))
    assert payload["bindings"]["w"]["chart"]["nonvanishing"] == ["p", "z"]
    payload["bindings"]["w"]["chart"]["nonvanishing"] = ["z", "p", "z"]
    path.write_text(json.dumps(payload))
    assert Session.load(path).bindings["w"] == w

    rows, _ = elementary_tables(CAN)
    path = _saved(tmp_path, {"data": rows[0].data, "w": DiffForm.differential(CAN.chart, "y")})
    payload = _as_version_1(json.loads(path.read_text()))
    for value in (payload["bindings"]["w"], *(payload["bindings"]["data"][part] for part in ("alpha", "x_field", "v_field"))):
        del value["chart"]["nonvanishing"]
    path.write_text(json.dumps(payload))
    loaded = Session.load(path)
    assert loaded.bindings["w"] == DiffForm.differential(CAN.chart, "y")
    assert loaded.bindings["data"].x_field == rows[0].data.x_field


@pytest.mark.parametrize("name", ["g3", "b0"])
def test_each_payload_is_checked_once_per_command(tmp_path, capsys, monkeypatch, name):
    """θ and every binding are checked once at load; reading a binding
    runs the parse pass that check returned, not a second check."""
    path = shutil.copy(CONTACT_GOLDEN, tmp_path / "contact.json")
    checked = []

    def counting(payload, *args, **kwargs):
        checked.append(payload)
        return _check_shape(payload, *args, **kwargs)

    monkeypatch.setattr(dsl_module, "_check_shape", counting)
    monkeypatch.setattr(session_module, "_check_shape", counting)
    code, _, err = _cli(capsys, "render", name, "-s", str(path))
    assert (code, err) == (0, "")
    stored = json.loads(CONTACT_GOLDEN.read_text())
    assert len(checked) == len(stored["bindings"]) + 1
    assert checked[0] == stored["theta"]


@pytest.fixture(scope="module")
def contact_payload(tmp_path_factory):
    """The golden contact session (coefficients and conformal data) with
    one `let`-stored 2-form ``w``."""
    path = shutil.copy(CONTACT_GOLDEN, tmp_path_factory.mktemp("contact") / "contact.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["let", "w", "=", "d(q)^d(z)", "-s", str(path)]) == 0
    return json.loads(path.read_text())


def _pop(key):
    return lambda value: value.pop(key)


def _set(key, entry):
    return lambda value: value.update({key: entry})


def _set_in_term(key, entry):
    return lambda value: value["terms"][0].update({key: entry})


MALFORMED = {
    "no-kind": _pop("kind"),
    "no-chart": _pop("chart"),
    "no-degree": _pop("degree"),
    "no-terms": _pop("terms"),
    "no-indices": lambda value: value["terms"][0].pop("indices"),
    "no-coeff": lambda value: value["terms"][0].pop("coeff"),
    "degree-true": _set("degree", True),
    "degree-float": _set("degree", 1.0),
    "degree-string": _set("degree", "1"),
    "indices-not-a-list": _set_in_term("indices", "junk"),
    "indices-repeated": _set_in_term("indices", [0, 0]),
    "indices-decreasing": _set_in_term("indices", [2, 0]),
    "indices-out-of-chart": _set_in_term("indices", [0, 3]),
    "coeff-not-a-string": _set_in_term("coeff", 1),
}


@pytest.mark.parametrize("mutation", list(MALFORMED))
@pytest.mark.parametrize("name, part", [("g3", None), ("w", None), ("b0", "x_field")])
def test_a_malformed_binding_is_refused_at_load_and_named(tmp_path, capsys, contact_payload, name, part, mutation):
    """A coefficient, a form and a part of conformal data of a
    ``gjb-session/1`` file are checked alike; the refusal is an error line
    and exit code 2."""
    payload = _as_version_1(contact_payload)
    binding = payload["bindings"][name]
    MALFORMED[mutation](binding if part is None else binding[part])
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(payload))
    code, out, err = _cli(capsys, "render", name, "-s", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed session file: binding {name!r}: ")
    assert err.count("\n") == 1


# a gjb-session/2 value names no chart, not even the session's own
MALFORMED_V2 = {
    **{mutation: edit for mutation, edit in MALFORMED.items() if mutation != "no-chart"},
    "a-chart": _set("chart", CONTACT_CHART),
}


@pytest.mark.parametrize("mutation", list(MALFORMED_V2))
@pytest.mark.parametrize("name, part", [("g3", None), ("w", None), ("b0", "x_field")])
def test_a_malformed_version_2_binding_is_refused_at_load_and_named(tmp_path, capsys, contact_payload, name, part, mutation):
    payload = copy.deepcopy(contact_payload)
    assert payload["schema"] == SCHEMA == "gjb-session/2"
    binding = payload["bindings"][name]
    MALFORMED_V2[mutation](binding if part is None else binding[part])
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(payload))
    code, out, err = _cli(capsys, "render", name, "-s", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed session file: binding {name!r}: ")
    assert err.count("\n") == 1
    if mutation == "a-chart":
        assert err.endswith(": a stored value names no chart of its own; the session file names it once\n")


def test_a_version_2_theta_naming_a_chart_is_refused(tmp_path, capsys):
    path = shutil.copy(CONTACT_GOLDEN, tmp_path / "contact.json")
    payload = json.loads(path.read_text())
    payload["theta"]["chart"] = CONTACT_CHART
    path.write_text(json.dumps(payload))
    code, out, err = _cli(capsys, "render", "dq", "-s", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed session file: theta: a stored value names no chart of its own; the session file names it once\n"


def test_a_version_2_load_reads_the_chart_once(tmp_path, capsys, monkeypatch):
    """The document chart is read once; no stored value carries a chart to
    compare with it, so ``_chart_of`` never runs, also for the bindings a
    command reads."""
    path = shutil.copy(CONTACT_GOLDEN, tmp_path / "contact.json")
    calls = {"chart_from_json": 0, "_chart_of": 0}

    def counted(name, function):
        def counting(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counting

    for name in calls:
        monkeypatch.setattr(dsl_module, name, counted(name, getattr(dsl_module, name)))
    monkeypatch.setattr(session_module, "chart_from_json", dsl_module.chart_from_json)
    code, _, err = _cli(capsys, "cup", "b1", "b2", "-s", str(path))
    assert (code, err) == (0, "")
    assert calls == {"chart_from_json": 1, "_chart_of": 0}

    calls.update(chart_from_json=0)
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(_as_version_1(json.loads(path.read_text()))))
    assert _cli(capsys, "render", "g0", "-s", str(v1))[0] == 0
    stored = json.loads(path.read_text())
    values = 1 + sum(3 if value["kind"] == "conformal-data" else 1 for value in stored["bindings"].values())
    assert calls["_chart_of"] == values
    assert calls["chart_from_json"] == 1
