"""End-to-end tests of the command-line interface, run in-process.

Every test drives ``gjb.cli.main`` with an argv list and inspects the
exit code plus captured stdout/stderr, using throwaway session files
under ``tmp_path``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gjb
from gjb import cli
from gjb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def canonical_session(tmp_path, capsys):
    """A session on the canonical (n=2, m=1) phase space, theta installed."""
    path = str(tmp_path / "canonical.json")
    assert main(["chart", "new", "--canonical", "2,1", "-s", path]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def contact_session(tmp_path, capsys):
    """A session on the contact chart (q, p, z) with theta = dz - p dq."""
    path = str(tmp_path / "contact.json")
    assert main(["chart", "new", "--coordinates", "q,p,z", "-s", path]) == 0
    assert main(["theta", "set", "d(z) - p*d(q)", "-s", path]) == 0
    capsys.readouterr()
    return path


# ---------------------------------------------------------------------------
# chart / theta management
# ---------------------------------------------------------------------------


class TestChartAndTheta:
    def test_canonical_chart_reports_coordinates_and_theta(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        code, out, _ = run(capsys, "chart", "new", "--canonical", "2,1", "-s", path)
        assert code == 0
        assert "chart: x0, x1, y, p, p0, p1, s0, s1" in out
        assert "theta = -p*dx0^dx1 - p1*dx0^dy + dx0^ds1 + p0*dx1^dy - dx1^ds0" in out
        assert f"session written to {path}" in out

    def test_explicit_chart_with_nonvanishing(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        code, out, _ = run(
            capsys, "chart", "new", "--coordinates", "q,w,z", "--nonvanishing", "z", "-s", path
        )
        assert code == 0
        assert "chart: q, w, z" in out
        assert "nonvanishing: z" in out
        # Laurent exponents on the flagged coordinate now parse.
        code, out, _ = run(capsys, "render", "z^-2*q", "-s", path)
        assert code == 0
        assert out.strip() == "q*z^-2"

    def test_chart_new_flag_combinations_are_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        both = run(capsys, "chart", "new", "--canonical", "2,1", "--coordinates", "a,b", "-s", path)
        neither = run(capsys, "chart", "new", "-s", path)
        nonvanishing = run(
            capsys, "chart", "new", "--canonical", "2,1", "--nonvanishing", "p", "-s", path
        )
        parameters = run(
            capsys, "chart", "new", "--coordinates", "a,b", "--parameters", "g", "-s", path
        )
        malformed = run(capsys, "chart", "new", "--canonical", "two", "-s", path)
        for code, _, err in (both, neither, nonvanishing, parameters, malformed):
            assert code == 2
            assert "error:" in err

    def test_canonical_chart_accepts_parameters(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        code, out, _ = run(
            capsys, "chart", "new", "--canonical", "2,1", "--parameters", "g,k", "-s", path
        )
        assert code == 0
        assert "chart: x0, x1, y, p, p0, p1, s0, s1, g, k" in out
        code, out, _ = run(capsys, "render", "g*k^2", "-s", path)
        assert code == 0
        assert out.strip() == "g*k^2"

    def test_theta_set_prints_the_form(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        run(capsys, "chart", "new", "--coordinates", "q,p,z", "-s", path)
        code, out, _ = run(capsys, "theta", "set", "d(z) - p*d(q)", "-s", path)
        assert code == 0
        assert out.strip() == "theta = -p*dq + dz"

    def test_theta_must_be_a_positive_degree_form(self, contact_session, capsys):
        code, _, err = run(capsys, "theta", "set", "p", "-s", contact_session)
        assert code == 2
        assert "positive degree" in err


# ---------------------------------------------------------------------------
# structure checks and kernels
# ---------------------------------------------------------------------------


class TestChecksAndKernel:
    def test_contact_structure_is_multicontact(self, contact_session, capsys):
        code, out, _ = run(capsys, "check", "multicontact", "-s", contact_session)
        assert code == 0
        assert out.strip() == "multicontact: yes"

    def test_degenerate_structure_fails_with_witness(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        run(capsys, "chart", "new", "--coordinates", "x,y", "-s", path)
        run(capsys, "theta", "set", "d(x)", "-s", path)
        code, out, _ = run(capsys, "check", "multicontact", "-s", path)
        assert code == 1
        assert "multicontact: no" in out
        assert "witness: e_y" in out

    def test_kernel_listing_on_the_contact_chart(self, contact_session, capsys):
        code, out, _ = run(capsys, "kernel", "--which", "both", "-s", contact_session)
        assert code == 0
        lines = out.splitlines()
        assert "kernel of degree 1 against theta: dimension 2" in lines
        assert "  e_q + p*e_z" in lines
        assert "  e_p" in lines
        assert "kernel of degree 1 against d(theta): dimension 1" in lines
        assert "  e_z" in lines


# ---------------------------------------------------------------------------
# conformal data, brackets, and the homogeneous extension
# ---------------------------------------------------------------------------


class TestConformalAndBrackets:
    def test_make_solves_for_the_witness_and_stores(self, canonical_session, capsys):
        code, out, _ = run(
            capsys, "conformal", "make", "--x=-e_s0", "--store", "a", "-s", canonical_session
        )
        assert code == 0
        assert "conformal: yes" in out
        assert "alpha = dx1" in out
        assert "X = -e_s0" in out
        assert "V = 0" in out
        assert "stored as a" in out
        # The binding persists in the session file.
        code, out, _ = run(capsys, "render", "a", "-s", canonical_session)
        assert code == 0
        assert "alpha = dx1" in out

    def test_make_refuses_a_non_conformal_field(self, canonical_session, capsys):
        code, out, _ = run(
            capsys,
            "conformal",
            "make",
            "--x",
            "e_y + p0*e_s0 + p1*e_s1",
            "-s",
            canonical_session,
        )
        assert code == 1
        assert "conformal: no" in out

    def test_verify_accepts_a_valid_triple(self, canonical_session, capsys):
        code, out, _ = run(
            capsys,
            "conformal",
            "verify",
            "--alpha",
            "d(x1)",
            "--x=-e_s0",
            "--v",
            "0",
            "-s",
            canonical_session,
        )
        assert code == 0
        assert "conformal: yes" in out

    def test_verify_rejects_a_bad_witness_with_residuals(self, canonical_session, capsys):
        code, _, err = run(
            capsys,
            "conformal",
            "verify",
            "--alpha",
            "d(x1)",
            "--x=-e_s0",
            "--v",
            "1",
            "-s",
            canonical_session,
        )
        assert code == 1
        assert "error:" in err
        assert "residual[" in err

    def test_verify_reads_a_typed_zero_alpha(self, contact_session, capsys):
        # p = 2 > n = 1, so alpha lives in degree -1 and the typed 0 is read there
        code, out, _ = run(
            capsys,
            "conformal",
            "verify",
            "--alpha",
            "0",
            "--x=e_q^e_p+q*e_q^e_z",
            "--v=-e_z",
            "-s",
            contact_session,
        )
        assert code == 0
        assert out.splitlines() == [
            "conformal: yes",
            "alpha = 0",
            "X = e_q^e_p + q*e_q^e_z",
            "V = -e_z",
        ]

    def _store_pair(self, session, capsys):
        run(capsys, "conformal", "make", "--x=-e_s0", "--store", "a", "-s", session)
        run(capsys, "conformal", "make", "--x", "e_y", "--store", "b", "-s", session)

    def test_bracket_of_stored_data(self, canonical_session, capsys):
        self._store_pair(canonical_session, capsys)
        code, out, _ = run(capsys, "bracket", "a", "b", "-s", canonical_session)
        assert code == 0
        assert out.splitlines() == ["alpha = 0", "X = 0", "V = 0"]

    def test_cup_of_stored_data(self, canonical_session, capsys):
        self._store_pair(canonical_session, capsys)
        code, out, _ = run(capsys, "cup", "a", "b", "-s", canonical_session)
        assert code == 0
        assert out.splitlines() == ["alpha = 0", "X = e_y^e_s0", "V = 0"]

    def test_bracket_operands_must_be_conformal_data(self, canonical_session, capsys):
        code, _, err = run(capsys, "bracket", "d(x0)", "d(x1)", "-s", canonical_session)
        assert code == 2
        assert "conformal data" in err

    def test_lift_poisson_and_psi_check(self, canonical_session, capsys):
        self._store_pair(canonical_session, capsys)
        code, out, _ = run(capsys, "lift", "a", "-s", canonical_session)
        assert code == 0
        assert out.strip() == "lift = -e_s0"
        code, out, _ = run(capsys, "poisson", "a", "b", "-s", canonical_session)
        assert code == 0
        assert out.strip() == "0"
        code, out, _ = run(capsys, "psi-check", "a", "b", "-s", canonical_session)
        assert code == 0
        assert "residual = 0" in out
        assert "correspondence holds: yes" in out

    def test_symplectize_renames_a_taken_fiber(self, contact_session, capsys):
        code, out, _ = run(capsys, "symplectize", "-s", contact_session)
        assert code == 0
        lines = out.splitlines()
        assert "fiber: z1" in lines
        assert "upsilon = -p*z1*dq + z1*dz" in lines
        assert "omega = -z1*dq^dp - p*dq^dz1 + dz^dz1" in lines
        assert "liouville = z1*e_z1" in lines
        assert "nondegenerate: yes" in lines


# ---------------------------------------------------------------------------
# sharp / Reeb on the contact chart
# ---------------------------------------------------------------------------


class TestSharp:
    def test_sharp_of_a_z_free_function(self, contact_session, capsys):
        code, out, _ = run(capsys, "sharp", "d(q^2)", "-s", contact_session)
        assert code == 0
        assert out.splitlines() == ["sharp = -2*q*e_p", "reeb factor = 0"]

    def test_sharp_of_the_momentum_differential(self, contact_session, capsys):
        code, out, _ = run(capsys, "sharp", "d(p)", "-s", contact_session)
        assert code == 0
        assert out.splitlines() == ["sharp = e_q + p*e_z", "reeb factor = 0"]

    def test_reeb_factor_reads_the_z_derivative(self, contact_session, capsys):
        code, out, _ = run(capsys, "sharp", "d(z)", "-s", contact_session)
        assert code == 0
        assert out.splitlines() == ["sharp = -p*e_p", "reeb factor = 1"]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


class TestTables:
    def test_plain_tables_for_n2_m1(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "2", "--m", "1")
        assert code == 0
        assert "factor = -1" in out
        assert out.count("factor = 0") == 5
        mismatch_lines = [line for line in out.splitlines() if "MISMATCH" in line]
        assert len(mismatch_lines) == 4
        pairs = {line.strip().split(" = ")[0] for line in mismatch_lines}
        assert pairs == {
            "{2(0,0), 3(0)}",
            "{2(0,1), 3(0)}",
            "{3(0), 2(0,0)}",
            "{3(0), 2(0,1)}",
        }
        for line in mismatch_lines:
            assert "reference sign is opposite to the definitional bracket" in line
        assert "36 brackets, 4 mismatch(es) against the reference table" in out

    def test_index_typo_note_appears_on_the_1_4_cells(self, capsys):
        _, out, _ = run(capsys, "tables", "--n", "2", "--m", "1")
        noted = [
            line
            for line in out.splitlines()
            if "tabulated with the row index in place of the column index" in line
        ]
        assert len(noted) == 2
        assert all("{1, 4(" in line for line in noted)
        assert all("MATCH" in line for line in noted)

    def test_json_tables_payload(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "2", "--m", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["m"] == 1
        assert len(payload["table1"]) == 6
        assert [row["factor"] for row in payload["table1"]] == ["-1", "0", "0", "0", "0", "0"]
        assert len(payload["table2"]) == 36
        mismatches = [e for e in payload["table2"] if not e["match"]]
        assert {(e["row"], e["column"]) for e in mismatches} == {
            ("2(0,0)", "3(0)"),
            ("2(0,1)", "3(0)"),
            ("3(0)", "2(0,0)"),
            ("3(0)", "2(0,1)"),
        }
        first = payload["table1"][0]
        assert set(first["alpha"]) == {"chart", "degree", "kind", "terms"}

    def test_latex_tables_use_latex_markup(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "2", "--m", "1", "--format", "latex")
        assert code == 0
        assert "\\mathrm{d}x^{0}" in out
        assert "\\partial_{p^{0}}" in out

    def test_tables_for_n3_m2_have_the_expected_shape(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "3", "--m", "2")
        assert code == 0
        assert "factor = -1" in out
        # families: 1 (one row), 2 (m*n = 6), 3 (m = 2), 4 (n = 3) -> 12 rows
        titles = [line for line in out.splitlines() if line.startswith("  [")]
        assert len(titles) == 12
        assert "144 brackets, 12 mismatch(es) against the reference table" in out


# ---------------------------------------------------------------------------
# covariant Hamilton equations
# ---------------------------------------------------------------------------

HDW_ARGS = ("--n", "2", "--m", "1", "--H", "1/2*p0^2+1/2*p1^2+g*s0")


class TestHdw:
    def test_plain_output_matches_the_worked_example(self, capsys):
        code, out, _ = run(capsys, "hdw", *HDW_ARGS)
        assert code == 0
        lines = out.splitlines()
        assert "parameters: g" in lines
        assert "sigma = g*dx0" in lines
        assert "  E_s: g*s0 - 1/2*p0^2 - 1/2*p1^2 + s0_x0 + s1_x1" in lines
        assert "  E_y[0,0]: -p0 + y_x0" in lines
        assert "  E_y[0,1]: -p1 + y_x1" in lines
        assert "  E_p[0]: g*p0 + p0_x0 + p1_x1" in lines
        assert "  y_x0: first derivative of y along x0" in lines

    def test_latex_output(self, capsys):
        code, out, _ = run(capsys, "hdw", *HDW_ARGS, "--format", "latex")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "\\sigma_h = g\\, \\mathrm{d}x^{0}"
        assert (
            "0 = g s^{0} - \\tfrac{1}{2} {p^{0}}^{2} - \\tfrac{1}{2} {p^{1}}^{2}"
            " + s^{0}_{x^{0}} + s^{1}_{x^{1}} \\qquad [E_{s}]" in lines
        )
        assert "0 = -p^{0} + y_{x^{0}} \\qquad [E_{y[0,0]}]" in lines
        assert "0 = g p^{0} + p^{0}_{x^{0}} + p^{1}_{x^{1}} \\qquad [E_{p[0]}]" in lines

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "hdw", *HDW_ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["parameters"] == ["g"]
        assert [r["label"] for r in payload["residuals"]] == [
            "E_s",
            "E_y[0,0]",
            "E_y[0,1]",
            "E_p[0]",
        ]
        assert payload["sigma"]["kind"] == "form" and payload["sigma"]["degree"] == 1
        assert "y_x0" in payload["legend"]

    def test_equation_count_scales_with_n_and_m(self, capsys):
        code, out, _ = run(capsys, "hdw", "--n", "2", "--m", "2", "--H", "p0_0*y0")
        assert code == 0
        labels = [line.split(":")[0].strip() for line in out.splitlines() if line.startswith("  E")]
        assert labels == ["E_s", "E_y[0,0]", "E_y[0,1]", "E_y[1,0]", "E_y[1,1]", "E_p[0]", "E_p[1]"]

    def test_hamiltonian_must_be_scalar(self, capsys):
        code, _, err = run(capsys, "hdw", "--n", "2", "--m", "1", "--H", "d(x0)")
        assert code == 2
        assert "--H must be a scalar expression" in err


# ---------------------------------------------------------------------------
# sigma / dissipated / distortion
# ---------------------------------------------------------------------------


class TestSigmaDissipatedDistortion:
    def test_sigma_prints_the_dissipation_form(self, capsys):
        code, out, _ = run(capsys, "sigma", "--n", "2", "--m", "1", "--H", "g*s0")
        assert code == 0
        assert out.strip() == "g*dx0"

    def test_sigma_vanishes_without_s_dependence(self, capsys):
        code, out, _ = run(capsys, "sigma", "--n", "2", "--m", "1", "--H", "1/2*p0^2")
        assert code == 0
        assert out.strip() == "0"

    def test_dissipated_row_yes(self, capsys):
        code, out, _ = run(
            capsys, "dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2", "--row", "3:0"
        )
        assert code == 0
        assert "alpha = -p1*dx0 + p0*dx1" in out
        assert "dissipated: yes" in out

    def test_dissipated_row_no_when_h_depends_on_y(self, capsys):
        code, out, _ = run(
            capsys, "dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2+y*s0", "--row", "3:0"
        )
        assert code == 1
        assert "dissipated: no" in out

    def test_dissipated_from_fg_components(self, capsys):
        code, out, _ = run(
            capsys,
            "dissipated",
            "--n",
            "2",
            "--m",
            "1",
            "--H",
            "1/2*p0^2",
            "--F",
            "0",
            "--G=-1",
            "--G",
            "0",
        )
        assert code == 0
        assert "alpha = dx1" in out
        assert "dissipated: yes" in out

    def test_dissipated_usage_errors(self, capsys):
        base = ("dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2")
        bad_row = run(capsys, *base, "--row", "bogus")
        ambiguous = run(capsys, *base, "--row", "2")
        both = run(capsys, *base, "--row", "3:0", "--F", "0")
        neither = run(capsys, *base)
        short_g = run(capsys, *base, "--G", "0")
        for code, _, err in (bad_row, ambiguous, both, neither, short_g):
            assert code == 2
            assert "error:" in err

    def test_dissipated_rejects_a_malformed_row_index(self, capsys):
        code, out, err = run(
            capsys, "dissipated", "--n", "2", "--m", "1", "--H", "p0^2", "--row", "2:x"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "FAMILY[:i[,mu]]" in err

    def test_distortion_of_the_canonical_space(self, capsys):
        code, out, _ = run(capsys, "distortion", "--n", "2", "--m", "1")
        assert code == 0
        lines = out.splitlines()
        assert "C[0][0] = 0" in lines
        assert "C[1][1] = 0" in lines
        assert "all zero: yes" in lines

    def test_distortion_reads_the_session_without_nm(self, canonical_session, capsys):
        code, out, _ = run(capsys, "distortion", "-s", canonical_session)
        assert code == 0
        assert "all zero: yes" in out

    def test_distortion_needs_both_nm_flags(self, capsys):
        code, _, err = run(capsys, "distortion", "--n", "2")
        assert code == 2
        assert "give both --n and --m" in err


# ---------------------------------------------------------------------------
# render / let round trips
# ---------------------------------------------------------------------------


class TestRenderAndLet:
    def test_render_contracts_the_worked_expression(self, canonical_session, capsys):
        code, out, _ = run(
            capsys, "render", "d(s0)^i_(e_x0, d(x0)^d(x1))", "-s", canonical_session
        )
        assert code == 0
        assert out.strip() == "-dx1^ds0"

    def test_render_latex(self, canonical_session, capsys):
        code, out, _ = run(capsys, "render", "p*d(x0)", "--format", "latex", "-s", canonical_session)
        assert code == 0
        assert out.strip() == "p\\, \\mathrm{d}x^{0}"

    def test_render_json_is_the_interchange_payload(self, canonical_session, capsys):
        code, out, _ = run(
            capsys, "render", "d(x0)^d(x1)", "--format", "json", "-s", canonical_session
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "form" and payload["degree"] == 2
        assert payload["terms"] == [{"coeff": "1", "indices": [0, 1]}]

    def test_let_binds_and_later_expressions_use_it(self, canonical_session, capsys):
        code, out, _ = run(capsys, "let", "w", "=", "d(x0)^d(x1)", "-s", canonical_session)
        assert code == 0
        assert "w =" in out and "stored as w" in out
        code, out, _ = run(capsys, "render", "i_(e_x1, w)", "-s", canonical_session)
        assert code == 0
        assert out.strip() == "-dx0"

    def test_let_rejects_coordinate_and_function_names(self, canonical_session, capsys):
        code, _, err = run(capsys, "let", "p", "=", "d(x0)", "-s", canonical_session)
        assert code == 2
        assert "chart coordinate" in err
        code, _, err = run(capsys, "let", "d", "=", "d(x0)", "-s", canonical_session)
        assert code == 2
        assert "builtin function" in err
        # Nothing was printed or stored before the rejection.
        code, _, err = run(capsys, "render", "d(x0) + p", "-s", canonical_session)
        assert code == 2  # p is still the scalar coordinate: degree mismatch

    def test_differential_and_vector_field_names_cannot_be_rebound(self, contact_session, capsys):
        code, out, err = run(capsys, "let", "dq", "=", "2*dz", "-s", contact_session)
        assert code == 2
        assert "'dq' is a chart coordinate differential" in err and "dq =" not in out
        code, out, err = run(
            capsys, "conformal", "make", "--x", "e_z", "--store", "e_p", "-s", contact_session
        )
        assert code == 2
        assert "'e_p' is a chart coordinate vector field" in err and "conformal: yes" not in out
        # both names still mean what they render as
        code, out, _ = run(capsys, "render", "dq + e_p", "-s", contact_session)
        assert code == 2  # a 1-form and a 1-vector do not add
        code, out, _ = run(capsys, "render", "i_(e_p, dq)", "-s", contact_session)
        assert code == 0 and out.strip() == "0"

    def test_let_requires_an_equals_sign(self, canonical_session, capsys):
        code, _, err = run(capsys, "let", "w", "d(x0)", "-s", canonical_session)
        assert code == 2
        assert "let <name> = <expression>" in err

    def test_store_flag_refuses_collisions_before_printing(self, canonical_session, capsys):
        code, out, err = run(
            capsys, "conformal", "make", "--x", "e_y", "--store", "p", "-s", canonical_session
        )
        assert code == 2
        assert "chart coordinate" in err
        assert "conformal: yes" not in out


# ---------------------------------------------------------------------------
# error paths and diagnostics
# ---------------------------------------------------------------------------


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["tables", "--n", "1", "--m", "1"], "at least two independent variables"),
            (["hdw", "--n", "2", "--m", "0", "--H", "p0"], "at least one field component"),
            (["sigma", "--n", "-3", "--m", "1", "--H", "p0"], "at least two independent variables"),
            (["dissipated", "--n", "2", "--m", "-1", "--H", "p0", "--row", "1"], "at least one field component"),
            (["distortion", "--n", "0", "--m", "1"], "at least two independent variables"),
            (["chart", "new", "--canonical", "1,1"], "at least two independent variables"),
            (["chart", "new", "--canonical", "2,0"], "at least one field component"),
        ],
    )
    def test_phase_space_shape_out_of_range_is_a_usage_error(self, tmp_path, capsys, argv, message):
        session = str(tmp_path / "f.json")
        code, out, err = run(capsys, *argv, "-s", session) if argv[0] == "chart" else run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: a phase space needs {message}\n"
        assert not os.path.exists(session)

    def test_repeated_parameter_is_not_called_a_coordinate_collision(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        code, _, err = run(capsys, "chart", "new", "--canonical", "2,1", "--parameters", "g,g", "-s", path)
        assert code == 2
        assert err == "error: parameter names are repeated: ('g',)\n"
        code, _, err = run(capsys, "chart", "new", "--canonical", "2,1", "--parameters", "g,p0", "-s", path)
        assert code == 2
        assert err == "error: parameter names collide with phase-space coordinates: ('p0',)\n"
        assert not os.path.exists(path)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["hdw", "--n", "2", "--m", "1", "--H", "p0^"], "in --H: expected a name, number or '(', found 'end of input' (line 1, column 3)"),
            (["sigma", "--n", "2", "--m", "1", "--H", "p0 +"], "in --H: expected a name, number or '(', found 'end of input' (line 1, column 4)"),
            (
                ["dissipated", "--n", "2", "--m", "1", "--H", "p0 +", "--F", "y", "--G", "y", "--G", "y"],
                "in --H: expected a name, number or '(', found 'end of input' (line 1, column 4)",
            ),
            (
                ["dissipated", "--n", "2", "--m", "1", "--H", "p0", "--F", "y^", "--G", "y", "--G", "y"],
                "in --F: expected a name, number or '(', found 'end of input' (line 1, column 2)",
            ),
            (
                ["dissipated", "--n", "2", "--m", "1", "--H", "p0", "--F", "y", "--G", "y", "--G", "(y"],
                "in --G: expected ')', found 'end of input' (line 1, column 2)",
            ),
        ],
    )
    def test_a_syntax_error_in_a_phase_space_flag_names_the_flag(self, capsys, argv, message):
        # the texts are read for parameter names before they are evaluated,
        # and that first read labels its errors too
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--coordinates", "q,dq,z"], "coordinate 'dq' would shadow the differential of 'q'"),
            (["--coordinates", "e_z,q,z"], "coordinate 'e_z' would shadow the vector field of 'z'"),
            (["--canonical", "2,1", "--parameters", "dx0"], "coordinate 'dx0' would shadow the differential of 'x0'"),
            (["--canonical", "2,1", "--parameters", "g,dg"], "coordinate 'dg' would shadow the differential of 'g'"),
            (["--coordinates", "q,2x"], "bad coordinate name '2x'"),
            (["--canonical", "2,1", "--parameters", "2x"], "bad coordinate name '2x'"),
        ],
    )
    def test_chart_names_that_do_not_read_back_are_refused(self, tmp_path, capsys, argv, message):
        path = str(tmp_path / "c.json")
        assert run(capsys, "chart", "new", *argv, "-s", path) == (2, "", f"error: {message}\n")
        assert not os.path.exists(path)

    def test_a_d_or_e_prefix_without_its_coordinate_is_a_plain_name(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        assert run(capsys, "chart", "new", "--coordinates", "q,dz,e_w", "-s", path)[0] == 0
        assert run(capsys, "render", "dz*d(dz)", "-s", path) == (0, "dz*ddz\n", "")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["render", "2²"], "error: in expression: unexpected character '²' (line 1, column 1)\n"),
            (["hdw", "--n", "2", "--m", "1", "--H", "3²"], "error: in --H: unexpected character '²' (line 1, column 1)\n"),
            (["hdw", "--n", "2", "--m", "1", "--H", "p0²"], "error: in --H: unexpected character '²' (line 1, column 2)\n"),
        ],
    )
    def test_a_non_ascii_digit_is_a_parse_error_at_it(self, contact_session, capsys, argv, message):
        extra = ["-s", contact_session] if argv[0] == "render" else []
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out, err) == (2, "", message)

    def test_a_binding_name_outside_the_name_alphabet_is_refused(self, contact_session, capsys):
        before = pathlib.Path(contact_session).read_bytes()
        code, out, err = run(capsys, "let", "α = dq", "-s", contact_session)
        assert (code, out, err) == (2, "", "error: 'α' is not a valid binding name\n")
        assert pathlib.Path(contact_session).read_bytes() == before

    def test_missing_session_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", "multicontact", "-s", str(tmp_path / "nope.json"))
        assert code == 2
        assert "run `chart new` first" in err

    def test_unsupported_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        code, _, err = run(capsys, "check", "multicontact", "-s", str(path))
        assert code == 2
        assert "unsupported session schema 'other/9'" in err

    def test_malformed_session_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "multicontact", "-s", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": "gjb-session/1"},
            {
                "schema": "gjb-session/1",
                "chart": {"coordinates": ["q", "p", "z"], "nonvanishing": []},
                "theta": None,
                "bindings": {"a": 3},
            },
            {
                "schema": "gjb-session/1",
                "chart": {"coordinates": ["q", "p", "z"], "nonvanishing": []},
                "theta": {
                    "kind": "form",
                    "degree": 1,
                    "chart": {"coordinates": ["q", "p", "z"], "nonvanishing": []},
                },
            },
        ],
        ids=["no-chart", "binding-not-an-object", "theta-without-terms"],
    )
    def test_malformed_session_file_is_a_usage_error(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "kernel", "-s", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_syntax_error_reports_position(self, canonical_session, capsys):
        code, _, err = run(capsys, "render", "d(x0", "-s", canonical_session)
        assert code == 2
        assert "(line 1, column 4)" in err

    def test_unknown_name(self, canonical_session, capsys):
        code, _, err = run(capsys, "render", "zz + d(x0)", "-s", canonical_session)
        assert code == 2
        assert "unknown name 'zz'" in err

    def test_degree_mismatch_reports_both_degrees(self, canonical_session, capsys):
        code, _, err = run(capsys, "render", "d(x0) + d(x0)^d(x1)", "-s", canonical_session)
        assert code == 2
        assert "degrees 1 and 2 do not match" in err

    def test_vanishing_wedge_warns_but_succeeds(self, canonical_session, capsys):
        code, out, err = run(capsys, "render", "d(x0)^d(x0)", "-s", canonical_session)
        assert code == 0
        assert out.strip() == "0"
        assert "warning:" in err and "vanishes identically" in err

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["render", "q^-1"], "in expression: 1*q is not a unit of the Laurent ring (line 1, column 1)"),
            (["render", "p + q^(0 - 2)*d(z)"], "in expression: 1*q is not a unit of the Laurent ring (line 1, column 5)"),
            (["let", "w", "=", "z*q^-1"], "in expression: 1*q is not a unit of the Laurent ring (line 1, column 4)"),
            (["conformal", "make", "--x", "p^-1*e_q"], "in --x: 1*p is not a unit of the Laurent ring (line 1, column 1)"),
        ],
    )
    def test_a_power_outside_the_ring_is_an_expression_error(self, contact_session, capsys, argv, error):
        assert run(capsys, *argv, "-s", contact_session) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["render", "q^16384"], "in expression: power 16384 takes an exponent outside the range [-16384, 16383] of its slot (line 1, column 1)"),
            (["render", "p*q^16383*q"], "in expression: an exponent leaves the range [-16384, 16383] of its slot (line 1, column 9)"),
            (["render", "(q^10000*dq + q^10000*dp)^2"], "in expression: an exponent leaves the range [-16384, 16383] of its slot (line 1, column 25)"),
            (["render", "q^10000*(q^10000*dq)"], "in expression: an exponent leaves the range [-16384, 16383] of its slot (line 1, column 7)"),
        ],
    )
    def test_an_exponent_past_its_slot_is_an_expression_error(self, contact_session, capsys, argv, error):
        assert run(capsys, *argv, "-s", contact_session) == (2, "", f"error: {error}\n")
        assert run(capsys, "render", "q^16383", "-s", contact_session) == (0, "q^16383\n", "")

    def test_an_overlong_interior_product_is_an_expression_error(self, contact_session, capsys):
        error = "in expression: cannot contract a degree-2 multivector into a degree-1 form (line 1, column 0)"
        assert run(capsys, "render", "i_(e_q^e_p, dq)", "-s", contact_session) == (2, "", f"error: {error}\n")
        # a Lie derivative past the bottom degree is the typed zero, not a refusal
        assert run(capsys, "render", "L_(e_q^e_p, q)", "-s", contact_session) == (0, "0\n", "")

    @pytest.mark.parametrize("expr", ["q^p", "q^(1/2)"])
    def test_a_scalar_power_needs_an_integer_exponent(self, contact_session, capsys, expr):
        error = "in expression: exponent must be an integer (line 1, column 1)"
        assert run(capsys, "render", expr, "-s", contact_session) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize(
        "expr,error",
        [
            ("sn(q, p)", "the graded bracket of two scalars is not defined (line 1, column 0)"),
            ("L_(e_z, z^-16384)", "an exponent leaves the range [-16384, 16383] of its slot (line 1, column 0)"),
            ("d(z^-16384)", "an exponent leaves the range [-16384, 16383] of its slot (line 1, column 0)"),
            ("q + 2*sn(p, z)", "the graded bracket of two scalars is not defined (line 1, column 6)"),
        ],
    )
    def test_a_library_error_in_a_call_is_an_expression_error(self, tmp_path, capsys, expr, error):
        path = str(tmp_path / "laurent.json")
        assert main(["chart", "new", "--coordinates", "q,p,z", "--nonvanishing", "z", "-s", path]) == 0
        capsys.readouterr()
        assert run(capsys, "render", expr, "-s", path) == (2, "", f"error: in expression: {error}\n")

    @pytest.mark.parametrize("expr,twin", [("dq^(1+1)", "dq^2"), ("e_q^(1+1)", "e_q^2"), ("(dq + dp)^(3-1)", "(dq + dp)^2")])
    def test_a_graded_power_with_a_constant_exponent_prints_as_its_literal_twin(self, contact_session, capsys, expr, twin):
        warning = "warning: exterior product vanishes identically (repeated factor)\n"
        assert run(capsys, "render", twin, "-s", contact_session) == (0, "0\n", warning)
        assert run(capsys, "render", expr, "-s", contact_session) == (0, "0\n", warning)

    @pytest.mark.parametrize("expr", ["dq^(1/2)", "e_q^p"])
    def test_a_graded_power_needs_an_integer_exponent(self, contact_session, capsys, expr):
        column = expr.index("^")
        error = f"in expression: exponent must be an integer (line 1, column {column})"
        assert run(capsys, "render", expr, "-s", contact_session) == (2, "", f"error: {error}\n")

    def test_no_command_is_a_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "required: command" in err

    def test_theta_commands_before_theta_is_set(self, tmp_path, capsys):
        path = str(tmp_path / "bare.json")
        run(capsys, "chart", "new", "--coordinates", "a,b", "-s", path)
        code, _, err = run(capsys, "check", "multicontact", "-s", path)
        assert code == 2
        assert "no structure form" in err

    @pytest.mark.parametrize("name", ["dq", "e_p", "q", "d", "jb", "not-a-name"])
    def test_stored_reserved_binding_names_are_refused_on_load(self, contact_session, capsys, name):
        assert run(capsys, "let", "u", "=", "2*dz", "-s", contact_session)[0] == 0
        with open(contact_session) as handle:
            payload = json.load(handle)
        payload["bindings"] = {name: payload["bindings"]["u"]}
        with open(contact_session, "w") as handle:
            json.dump(payload, handle)
        code, out, err = run(capsys, "render", "dq", "-s", contact_session)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: malformed session file: binding {name!r}: {name!r} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name,shadowed", [("dq", "differential of 'q'"), ("e_z", "vector field of 'z'")])
    def test_a_stored_chart_with_a_shadowing_pair_is_refused_on_load(self, contact_session, capsys, name, shadowed):
        with open(contact_session) as handle:
            payload = json.load(handle)
        for chart in (payload["chart"], payload["theta"]["chart"]):
            chart["coordinates"].append(name)
        with open(contact_session, "w") as handle:
            json.dump(payload, handle)
        code, out, err = run(capsys, "render", "dq", "-s", contact_session)
        assert code == 2
        assert out == ""
        assert err == f"error: malformed session file: chart: coordinate {name!r} would shadow the {shadowed}\n"


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

DISSIPATED = ["dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2", "--F", "0"]

# each pair could leak a default from its first command into its second
REUSE = {
    "repeated-G": [DISSIPATED + ["--G=-1", "--G", "0"], DISSIPATED],
    "bracket-cup": [["bracket", "a", "b"], ["cup", "a", "b"]],
    "store": [["conformal", "make", "--x=-e_s0", "--store", "a"], ["conformal", "make", "--x=-e_s0"]],
    "usage-error": [["kernel", "--which", "nothing"], ["kernel", "--which", "dtheta"]],
}


class TestParserReuse:
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    @pytest.mark.parametrize("pair", sorted(REUSE))
    def test_one_parser_gives_what_a_fresh_parser_gives(self, canonical_session, capsys, monkeypatch, pair, order):
        run(capsys, "conformal", "make", "--x=-e_s0", "--store", "a", "-s", canonical_session)
        run(capsys, "conformal", "make", "--x", "e_y", "--store", "b", "-s", canonical_session)
        commands = REUSE[pair] if order == "forward" else REUSE[pair][::-1]
        shared = cli._build_parser()
        for argv in commands:
            if argv[0] != "dissipated":
                argv = argv + ["-s", canonical_session]
            reused = run(capsys, *argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
                fresh = run(capsys, *argv)
            assert reused == fresh
            if reused[0] != 2:
                fresh_parser = cli._build_parser.__wrapped__()
                assert vars(shared.parse_args(argv)) == vars(fresh_parser.parse_args(argv))
        assert cli._build_parser() is shared


# ---------------------------------------------------------------------------
# operands: one reader, and the extension built only where it is read
# ---------------------------------------------------------------------------


class TestOperandPath:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Calls of ``symplectization.build``, wherever a module binds it."""
        from gjb import symplectization

        calls = []
        real = symplectization.build

        def counting(S):
            calls.append(S)
            return real(S)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gjb" and getattr(module, "build", None) is real:
                monkeypatch.setattr(module, "build", counting)
        return calls

    COMMANDS = [
        (0, ["render", "i_(e_x0, d(x0)^d(x1))"]),
        (0, ["let", "w = a"]),
        (0, ["conformal", "make", "--x", "e_y"]),
        (0, ["bracket", "a", "b"]),
        (0, ["cup", "a", "b"]),
        (1, ["lift", "a"]),
        (1, ["poisson", "a", "b"]),
        (1, ["psi-check", "a", "b"]),
        (1, ["symplectize"]),
        (1, ["render", "psi(a) + psi(b)"]),
    ]

    @pytest.mark.parametrize("expected, argv", COMMANDS, ids=[" ".join(argv) for _, argv in COMMANDS])
    def test_only_the_extension_commands_build_it(self, canonical_session, capsys, builds, expected, argv):
        run(capsys, "conformal", "make", "--x=-e_s0", "--store", "a", "-s", canonical_session)
        run(capsys, "conformal", "make", "--x", "e_y", "--store", "b", "-s", canonical_session)
        builds.clear()
        code, _, err = run(capsys, *argv, "-s", canonical_session)
        assert (code, err) == (0, "")
        assert len(builds) == expected

    def test_sharp_builds_no_extension(self, contact_session, capsys, builds):
        assert run(capsys, "sharp", "d(q^2)", "-s", contact_session)[0] == 0
        assert builds == []

    def test_warnings_of_every_operand_print_once_before_the_error(self, canonical_session, capsys):
        code, out, err = run(
            capsys, "conformal", "verify", "--alpha", "d(x0)^d(x0)", "--x", "e_y^e_y", "--v", "0",
            "-s", canonical_session,
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "warning: exterior product vanishes identically (repeated factor)",
            "error: scalar witness supplied where degree 1 is needed",
        ]

    def test_a_degree_zero_multivector_is_a_scalar_operand(self, contact_session, capsys):
        # sn(e_q, q) = e_q(q) = 1 is a degree-0 multivector; --alpha needs a form
        code, out, err = run(
            capsys, "conformal", "verify", "--alpha", "sn(e_q, q)", "--x=-e_z", "--v", "0", "-s", contact_session
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["conformal: yes", "alpha = 1", "X = -e_z", "V = 0"]

    # captured from the version that built the whole bracket table first
    ROWS = {
        "1": (1, "form: s^mu d^{n-1}x_mu\nalpha = -s1*dx0 + s0*dx1\ndissipated: no\n"),
        "3:0": (1, "form: p^mu_0 d^{n-1}x_mu\nalpha = -p1*dx0 + p0*dx1\ndissipated: no\n"),
        "2:0,1": (0, "form: y^0 d^{n-1}x_1\nalpha = -y*dx0\ndissipated: yes\n"),
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_dissipated_row_computes_no_bracket(self, capsys, monkeypatch, row):
        from gjb import fieldtheory, structures

        calls = []
        for module in (fieldtheory, structures):
            real = module.jacobi_bracket
            monkeypatch.setattr(module, "jacobi_bracket", lambda a, b, real=real: calls.append(1) or real(a, b))
        code, out, err = run(capsys, "dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2 + k*y", "--row", row)
        assert (code, out, err) == (*self.ROWS[row], "")
        assert calls == []


class TestOneStructurePerCommand:
    COMMANDS = [
        ["hdw", "--n", "2", "--m", "1", "--H", "p0^2/2 + g*s0"],
        ["hdw", "--n", "2", "--m", "1", "--H", "p0^2/2"],
        ["sigma", "--n", "2", "--m", "1", "--H", "k*y"],
        ["dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2 + k*y", "--row", "2:0,1"],
        ["tables", "--n", "2", "--m", "1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
    def test_a_phase_space_command_builds_one_canonical_structure(self, capsys, monkeypatch, argv):
        from gjb.fieldtheory import CanonicalStructure

        built = []
        real = CanonicalStructure.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(CanonicalStructure, "__init__", counting)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(built) == 1


class TestClosedPipe:
    """Writing into a pipe whose reader is gone, as in
    ``gjb tables --n 2 --m 1 | head -1``, ends quietly with exit 141."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--n", "2", "--m", "1"],
            ["sigma", "--n", "2", "--m", "1", "--H", "3*s0"],
        ],
    )
    def test_a_closed_pipe_exits_141_without_a_traceback(self, argv):
        src = str(pathlib.Path(gjb.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "gjb.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 141
