"""Session persistence: schema versioning, round trips, re-validation."""

import json

import pytest

from gjb.coeffring import Chart, Coefficient
from gjb.dsl import to_json
from gjb.errors import StructuralError, ValidationError
from gjb.exterior import DiffForm, MultiVector
from gjb.fieldtheory import build_canonical, elementary_tables
from gjb.session import SCHEMA, Session, SessionError

CAN = build_canonical(2, 1)


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

    payload["schema"] = "gjb-session/2"
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionError):
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
    with pytest.raises(ValidationError):
        Session.load(path)


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
    payload["bindings"] = {"data": to_json(rows[0].data)}
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionError):
        Session.load(path)


def test_set_theta_revalidates_and_rolls_back():
    session = canonical_session()
    rows, _ = elementary_tables(CAN)
    session.bindings["data"] = rows[0].data
    # a different multicontact form on the same chart invalidates the triple
    other = DiffForm.volume(CAN.chart, ("x0", "x1"))
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
