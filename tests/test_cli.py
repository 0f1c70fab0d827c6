import json
import subprocess
import sys

import pytest

from superalg.cli import RunConfig, main, raise_for_status, run
from superalg.errors import CheckFailed
from superalg.liealg import build_gl, dump_definition
from superalg.scalars import gr, ONE


def run_main(argv, capsys):
    status = main(argv)
    out = capsys.readouterr().out
    return status, (json.loads(out) if out.strip() else None)


def without_timing(report):
    out = dict(report)
    out.pop("timing_ms", None)
    return out


class TestCommands:
    def test_casimir_check_central(self, capsys):
        status, rep = run_main(
            ["casimir", "--algebra", "gl:1,1", "--order", "2", "--check-central"],
            capsys,
        )
        assert status == 0
        assert rep["pass"] is True
        assert rep["results"][0]["check"] == "central"
        assert "element" in rep["values"]

    def test_gelfand_order(self, capsys):
        status, rep = run_main(
            ["casimir", "--algebra", "gl:1,1", "--order", "3", "--check-central"],
            capsys,
        )
        assert status == 0
        assert rep["values"]["kind"] == "gelfand"

    def test_gamma_check(self, capsys):
        status, rep = run_main(
            ["gamma-check", "--algebra", "gl:2,1", "--points", "8", "--seed", "7"],
            capsys,
        )
        assert status == 0
        assert rep["values"]["sign"] in (1, -1)
        assert rep["values"]["points_tested"] >= 8

    def test_radial_report_shape(self, capsys):
        status, rep = run_main(
            [
                "radial",
                "--algebra",
                "gl:1,1",
                "--points",
                "5",
                "--weights",
                "10",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert status == 0
        vals = rep["values"]
        assert set(vals) >= {"gamma_check", "eigenvalue_c", "P_fit", "leading_term_match"}
        assert vals["eigenvalue_c"] == [0, 1, 0, 1]
        assert vals["leading_term_match"] is True

    def test_hopf_check(self, capsys):
        status, rep = run_main(
            ["hopf-check", "--algebra", "gl:1,1", "--samples", "12", "--seed", "5"],
            capsys,
        )
        assert status == 0
        names = {r["check"] for r in rep["results"]}
        assert "antipode_left" in names and "super_cocommutativity" in names

    def test_jstruct_check(self, capsys):
        status, rep = run_main(["jstruct-check", "--algebra", "gl:1,1"], capsys)
        assert status == 0
        assert {r["check"] for r in rep["results"]} == {
            "validate-J",
            "nijenhuis",
            "eigenspace-brackets",
        }

    def test_complexify(self, capsys):
        status, rep = run_main(["complexify", "--algebra", "gl:1,1"], capsys)
        assert status == 0
        assert rep["values"]["quotient_dim"] == 4

    def test_complexify_non_ideal_fails(self, capsys):
        # E11 alone is not an ideal: exit 1, report still written
        status, rep = run_main(
            ["complexify", "--algebra", "gl:1,1", "--ideal", "1"], capsys
        )
        assert status == 1
        assert rep["pass"] is False

    def test_build_dumps_definition(self, capsys, tmp_path):
        out = tmp_path / "algebra.json"
        status = main(["build", "--algebra", "gl:2,1", "--output", str(out)])
        assert status == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert len(data["values"]["definition"]["generators"]) == 9


class TestFiles:
    def test_check_jacobi_from_file(self, capsys, tmp_path):
        g, form, rs = build_gl(1, 1)
        path = tmp_path / "gl11.json"
        path.write_text(json.dumps(dump_definition(g, form, rs)))
        status, rep = run_main(["check-jacobi", "--file", str(path)], capsys)
        assert status == 0

    def test_check_jacobi_bad_file(self, capsys, tmp_path):
        # corrupt one structure constant: [E12,E21] hits E22 with -1
        g, _, _ = build_gl(1, 1)
        data = dump_definition(g)
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        i22 = g.names.index("E22")
        for ent in data["brackets"]:
            if {ent["i"], ent["j"]} == {i12, i21}:
                ent["result"] = [
                    [[1, 1], [0, 1], g.names.index("E11")],
                    [[-1, 1], [0, 1], i22],
                ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        status, rep = run_main(["check-jacobi", "--file", str(path)], capsys)
        assert status == 1
        assert rep["pass"] is False
        jac = [r for r in rep["results"] if r["check"] == "jacobi"][0]
        assert jac["witness"]["triple"]

    def test_jstruct_check_loads_J_from_file(self, capsys, tmp_path):
        from superalg.jstruct import realify

        g, _, _ = build_gl(1, 1)
        real, j = realify(g)
        data = dump_definition(real, j_matrix=j.matrix)
        path = tmp_path / "with_j.json"
        path.write_text(json.dumps(data))
        status, rep = run_main(["jstruct-check", "--file", str(path)], capsys)
        assert status == 0
        assert rep["values"]["dim"] == 8

    def test_jstruct_check_bad_J_from_file(self, capsys, tmp_path):
        g, _, _ = build_gl(1, 1)
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        jm = [[gr(0)] * 4 for _ in range(4)]
        jm[i22][i11], jm[i11][i22] = ONE, gr(-1)
        jm[i12][i21], jm[i21][i12] = ONE, gr(-1)
        data = dump_definition(g, j_matrix=jm)
        path = tmp_path / "bad_j.json"
        path.write_text(json.dumps(data))
        status, rep = run_main(["jstruct-check", "--file", str(path)], capsys)
        assert status == 1
        assert not rep["pass"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        status = main(["check-jacobi", "--file", str(path)])
        err = capsys.readouterr().err
        assert status == 2
        assert "line" in err

    def test_unsupported_algebra_exit_2(self, capsys):
        status = main(["build", "--algebra", "sp:2"])
        assert status == 2
        assert "builder" in capsys.readouterr().err


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["hopf-check", "--algebra", "gl:1,1", "--samples", "15", "--seed", "21"],
            ["gamma-check", "--algebra", "gl:2,1", "--points", "6", "--seed", "9"],
            ["radial", "--algebra", "gl:1,1", "--points", "4", "--weights", "10", "--seed", "2"],
        ],
    )
    def test_same_seed_same_report(self, argv, capsys):
        s1, r1 = run_main(argv, capsys)
        s2, r2 = run_main(argv, capsys)
        assert s1 == s2
        assert without_timing(r1) == without_timing(r2)

    def test_different_seed_changes_samples(self, capsys):
        _, r1 = run_main(
            ["gamma-check", "--algebra", "gl:1,1", "--points", "5", "--seed", "1"],
            capsys,
        )
        _, r2 = run_main(
            ["gamma-check", "--algebra", "gl:1,1", "--points", "5", "--seed", "2"],
            capsys,
        )
        assert r1["values"]["points"] != r2["values"]["points"]

    def test_byte_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["hopf-check", "--algebra", "gl:1,1", "--samples", "10", "--seed", "4"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestDegreeCap:
    def test_env_var_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERALG_DEGREE_CAP", "1")
        _, rep = run_main(
            ["hopf-check", "--algebra", "gl:1,1", "--samples", "5", "--seed", "3"],
            capsys,
        )
        assert rep["inputs"]["degree_cap"] == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERALG_DEGREE_CAP", "1")
        _, rep = run_main(
            [
                "hopf-check",
                "--algebra",
                "gl:1,1",
                "--samples",
                "5",
                "--seed",
                "3",
                "--degree-cap",
                "3",
            ],
            capsys,
        )
        assert rep["inputs"]["degree_cap"] == 3


class TestLibraryUse:
    def test_run_and_raise_for_status(self):
        status, report = run(RunConfig(command="check-jacobi", algebra="gl:1,1"))
        assert status == 0
        raise_for_status(report)  # must not raise
        status, report = run(
            RunConfig(command="complexify", algebra="gl:1,1", ideal=[1])
        )
        assert status == 1
        with pytest.raises(CheckFailed):
            raise_for_status(report)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "superalg.cli",
                "check-jacobi",
                "--algebra",
                "gl:1,1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["pass"] is True

    def test_exit_status_tracks_pass(self, capsys):
        status, rep = run_main(
            ["complexify", "--algebra", "gl:1,1", "--ideal", "1"], capsys
        )
        assert status == 1 and rep["pass"] is False
        status, rep = run_main(["complexify", "--algebra", "gl:1,1"], capsys)
        assert status == 0 and rep["pass"] is True


class TestCheckFailures:
    def test_non_central_gelfand_exits_1_with_witness(self, capsys, monkeypatch):
        import superalg.cli as cli
        from superalg.pbw import PBWElement

        real = cli.gelfand_invariant
        monkeypatch.setattr(
            cli,
            "gelfand_invariant",
            lambda g, k: real(g, k) + PBWElement.generator(g, 0),
        )
        status, rep = run_main(
            ["casimir", "--algebra", "gl:1,1", "--kind", "gelfand", "--order", "2",
             "--check-central"],
            capsys,
        )
        assert status == 1 and rep["pass"] is False
        row = rep["results"][0]
        assert row["check"] == "central" and row["pass"] is False
        assert row["witness"]["generator"]

    def test_broken_hopf_check_exits_1_with_witness(self, capsys, monkeypatch):
        # a super flip that forgets the Koszul sign breaks co-commutativity
        import superalg.smash as smash
        from superalg.smash import TensorElement

        monkeypatch.setattr(
            smash,
            "_twist",
            lambda t: TensorElement(t.alg, 2, {(k2, k1): c for (k1, k2), c in t.terms.items()}),
        )
        status, rep = run_main(
            ["hopf-check", "--algebra", "gl:1,1", "--samples", "100", "--seed", "7"],
            capsys,
        )
        assert status == 1 and rep["pass"] is False
        failing = [r for r in rep["results"] if not r["pass"]]
        assert [r["check"] for r in failing] == ["super_cocommutativity"]
        witness = failing[0]["witness"]
        assert witness["check"] == "super_cocommutativity" and "#" in witness["witness"]

    def test_wrong_laplacian_symbol_exits_1_with_P_fit_witness(self, capsys, monkeypatch):
        # injected defect: c_i / 2 in place of c_i / 4 in the symbol
        from superalg.radial import TorusLaplacian

        real = TorusLaplacian.symbol
        monkeypatch.setattr(
            TorusLaplacian, "symbol", lambda lap: {e: c * 2 for e, c in real(lap).items()}
        )
        status, rep = run_main(
            ["radial", "--algebra", "gl:1,1", "--points", "2", "--weights", "6"], capsys
        )
        assert status == 1 and rep["pass"] is False
        row = next(r for r in rep["results"] if r["check"] == "P-fit")
        assert row["pass"] is False
        assert row["witness"]["reason"].startswith("weight [1, 0]:")
        assert rep["values"]["P_fit"] == row["witness"]

    @pytest.mark.parametrize("command", ["gamma-check", "radial"])
    @pytest.mark.parametrize(
        "defect", ["odd-pairing-zero", "mate-pairing-doubled", "cartan-null"]
    )
    def test_degenerate_frame_exits_2(self, command, defect, capsys, tmp_path):
        from superalg.liealg import QuadraticForm

        g, form, rs = build_gl(1, 1)
        i12, i21 = g.names.index("E12"), g.names.index("E21")  # X_beta, X_-beta
        gram = [list(row) for row in form.gram]
        if defect == "odd-pairing-zero":
            gram[i12][i21] = gram[i21][i12] = gr(0)
        elif defect == "mate-pairing-doubled":
            gram[i21][i12] = gram[i21][i12] * 2
        else:
            i11 = g.names.index("E11")
            gram[i11][i11] = gr(0)
        path = tmp_path / "gl11.json"
        path.write_text(json.dumps(dump_definition(g, QuadraticForm(gram), rs)))
        status = main([command, "--file", str(path), "--points", "2"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error:")
        assert "DegenerateForm" in captured.err
        assert captured.out == ""


class TestInputBoundary:
    """Malformed input exits 2 with an error line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "--ideal", "x"], "--ideal"),
            (["complexify", "--ideal", "99"], "--ideal"),
            (["casimir", "--order", "0"], "--order"),
            (["hopf-check", "--degree-cap", "-1", "--samples", "3"], "--degree-cap"),
            (["radial", "--weights", "2"], "--weights"),
            (["gamma-check", "--points", "-3"], "--points"),
            (["casimir", "--kind", "casimir2", "--order", "3"], "--order 3"),
        ],
    )
    def test_rejected_with_exit_2(self, argv, message, capsys):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the argument itself
            status = exc.code
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert "error:" in lines[-1] and message in lines[-1]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, definition, message",
        [
            (["casimir", "--kind", "gelfand"], "gl11", "gl(m|n) builder"),
            (["casimir", "--order", "3"], "gl11", "gl(m|n) builder"),
            (["jstruct-check"], "non-square-J", "must be square"),
            (["gamma-check", "--points", "1"], "odd-weights-zero", "regular torus point"),
            (["radial", "--points", "1"], "odd-weights-zero", "regular torus point"),
            (["hopf-check", "--samples", "1"], "weight-too-short", "weight length"),
            (["radial"], "positives-out-of-range", "positives must index"),
            (["gamma-check"], "form-not-square", "gram matrix must be square"),
        ],
    )
    def test_definition_file_rejected_with_exit_2(
        self, argv, definition, message, capsys, tmp_path
    ):
        from superalg.jstruct import realify

        g, form, rs = build_gl(1, 1)
        if definition == "non-square-J":
            real, j = realify(g)
            data = dump_definition(real, j_matrix=[row[:-1] for row in j.matrix])
        else:
            data = dump_definition(g, form, rs)
        if definition == "odd-weights-zero":  # Ad is 1 on every odd root
            for root in data["root_system"]["roots"]:
                root["weight"] = [0] * len(root["weight"])
            # the Cartan must then commute with the odd vectors, or the
            # weights contradict the bracket table and loading fails first
            cartan = set(data["root_system"]["cartan"])
            data["brackets"] = [
                b for b in data["brackets"] if not ({b["i"], b["j"]} & cartan)
            ]
        elif definition == "weight-too-short":
            data["root_system"]["roots"][0]["weight"] = [1]
        elif definition == "positives-out-of-range":
            data["root_system"]["positives"] = [7]
        elif definition == "form-not-square":
            data["form"][0] = data["form"][0][:-1]
        path = tmp_path / "def.json"
        path.write_text(json.dumps(data))
        status = main(argv + ["--file", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("weight", [(2, -2), (10**6, 1)])
    @pytest.mark.parametrize(
        "argv", [["hopf-check", "--samples", "3"], ["gamma-check", "--points", "2"], ["radial"]]
    )
    def test_weights_contradicting_the_brackets_exit_2(self, argv, weight, capsys, tmp_path):
        # gl(1|1) has odd weights +-(1, -1); +-(2, -2) once let hopf-check
        # pass, and +-(10^6, 1) hung it raising coordinates to the 2*10^6
        g, form, rs = build_gl(1, 1)
        data = dump_definition(g, form, rs)
        for root in data["root_system"]["roots"]:
            sign = 1 if root["weight"][0] > 0 else -1
            root["weight"] = [sign * w for w in weight]
        path = tmp_path / "def.json"
        path.write_text(json.dumps(data))
        status = main(argv + ["--file", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "contradicts the bracket" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_degree_cap_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERALG_DEGREE_CAP", "-1")
        status = main(["hopf-check", "--algebra", "gl:1,1", "--samples", "3"])
        captured = capsys.readouterr()
        assert status == 2 and captured.err.startswith("error:")
        assert captured.out == ""

    def test_casimir2_at_its_own_order_still_runs(self, capsys):
        status, rep = run_main(["casimir", "--kind", "casimir2", "--order", "2"], capsys)
        assert status == 0 and rep["values"]["order"] == 2
