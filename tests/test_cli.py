import dataclasses
import json
import subprocess
import sys

import pytest

from superalg.cli import (
    _COMMAND_TABLE,
    COMMANDS,
    RunConfig,
    _build_parser,
    main,
    run,
)
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


def assert_degree_cap_env_ignored(value, capsys, monkeypatch):
    """With SUPERALG_DEGREE_CAP set to value, hopf-check, build and
    gamma-check exit 0 and print the report of a run without it: the
    degree cap comes only from --degree-cap."""
    for argv in (
        ["hopf-check", "--algebra", "gl:1,1", "--samples", "5", "--seed", "3"],
        ["build", "--algebra", "gl:1,1"],
        ["gamma-check", "--algebra", "gl:1,1", "--points", "2"],
    ):
        monkeypatch.delenv("SUPERALG_DEGREE_CAP", raising=False)
        status, plain = run_main(argv, capsys)
        monkeypatch.setenv("SUPERALG_DEGREE_CAP", value)
        status_env, rep = run_main(argv, capsys)
        assert status == status_env == 0, argv
        assert without_timing(rep) == without_timing(plain), argv
        assert rep["inputs"]["degree_cap"] == 2


def non_jacobi_gl11():
    """gl(1|1) with [E12, E21] = E11 - E22: graded, so it loads, but it
    breaks super Jacobi (and the form's invariance)."""
    g, form, rs = build_gl(1, 1)
    data = dump_definition(g, form, rs)
    i12, i21 = g.names.index("E12"), g.names.index("E21")
    for ent in data["brackets"]:
        if {ent["i"], ent["j"]} == {i12, i21}:
            ent["result"] = [
                [[1, 1], [0, 1], g.names.index("E11")],
                [[-1, 1], [0, 1], g.names.index("E22")],
            ]
    return data


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
        data = non_jacobi_gl11()
        del data["form"], data["root_system"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        status, rep = run_main(["check-jacobi", "--file", str(path)], capsys)
        assert status == 1
        assert rep["pass"] is False
        jac = [r for r in rep["results"] if r["check"] == "jacobi"][0]
        assert jac["witness"]["triple"]

    @pytest.mark.parametrize(
        "command, failing",
        [
            ("build", ["jacobi", "quadratic-form"]),
            ("check-jacobi", ["jacobi"]),
            ("complexify", ["quotient-jacobi"]),
        ],
    )
    def test_non_jacobi_file_is_a_failing_check(self, command, failing, capsys, tmp_path):
        # the commands that check Jacobi themselves report it as a row
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(non_jacobi_gl11()))
        status, rep = run_main([command, "--file", str(path)], capsys)
        assert status == 1
        assert [r["check"] for r in rep["results"] if not r["pass"]] == failing

    @pytest.mark.parametrize(
        "defect, failing",
        [
            # [E21, E11] given with the sign of [E11, E21]: the table is not
            # super-antisymmetric, and the rows after structure see it too
            ("antisymmetry", {
                "structure": "(E21, E11)",
                "jacobi": {"defect": {"E21": "-2"}, "indices": [0, 1, 1],
                           "triple": ["E21", "E11", "E11"]},
                "quadratic-form": ["E11", "E21", "E12"],
                "root-eigenequations": ["E11", "E21"],
            }),
            # every root weight doubled: [E11, E21] = -E21, but the weight
            # of E21 says -2
            ("doubled-weights", {"root-eigenequations": ["E11", "E21"]}),
        ],
    )
    def test_build_reports_a_bad_file_as_failing_rows(self, defect, failing, capsys, tmp_path):
        # these files once exited 2 at load time, so the structure and
        # root-eigenequations rows of build could never fail
        g, form, rs = build_gl(1, 1)
        data = dump_definition(g, form, rs)
        if defect == "antisymmetry":
            i11, i21 = g.names.index("E11"), g.names.index("E21")
            ent = next(b for b in data["brackets"] if {b["i"], b["j"]} == {i11, i21})
            data["brackets"].append({"i": ent["j"], "j": ent["i"], "result": ent["result"]})
        else:
            for root in data["root_system"]["roots"]:
                root["weight"] = [2 * w for w in root["weight"]]
        path = tmp_path / "bad.json"
        for _ in range(2):
            path.write_text(json.dumps(data))
            status, rep = run_main(["build", "--file", str(path)], capsys)
            assert status == 1
            assert {r["check"]: r["witness"] for r in rep["results"] if not r["pass"]} == failing
            # the dumped definition is the table that failed: building it fails alike
            data = rep["values"]["definition"]

    def test_opposite_positive_roots_give_the_same_sign(self, capsys, tmp_path):
        # gamma and its sign i^|R1| depend on the root pairs, not on which
        # root of each pair is called positive
        g, form, rs = build_gl(2, 1)
        data = dump_definition(g, form, rs)
        data["root_system"]["positives"] = sorted(
            rs.roots.index(rs.negative_of(rs.roots[p])) for p in rs.positives
        )
        assert not set(data["root_system"]["positives"]) & set(rs.positives)
        path = tmp_path / "def.json"
        path.write_text(json.dumps(data))
        argv = ["gamma-check", "--points", "6", "--seed", "1"]
        status, rep = run_main(argv + ["--file", str(path)], capsys)
        _, builtin = run_main(argv + ["--algebra", "gl:2,1"], capsys)
        assert status == 0 and rep["pass"] is True
        assert rep["values"]["sign"] == builtin["values"]["sign"] == 1
        assert rep["values"]["skipped"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma-check", "--points", "6", "--seed", "1"],
            ["hopf-check", "--samples", "20", "--degree-cap", "2", "--seed", "1"],
            ["radial", "--points", "2", "--weights", "15", "--seed", "1"],
            ["casimir", "--kind", "casimir2", "--check-central"],
        ],
    )
    def test_reports_do_not_depend_on_the_root_order(
        self, argv, permuted_definition, capsys, tmp_path
    ):
        reports = []
        for name, data in (
            ("builder.json", dump_definition(*build_gl(2, 2))),
            ("permuted.json", permuted_definition(2, 2)),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            status, rep = run_main(argv + ["--file", str(path)], capsys)
            assert status == 0, name
            rep = without_timing(rep)
            rep.pop("algebra")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_rank_zero_cartan_projection_is_empty(self, capsys, tmp_path):
        # no Cartan generator: the projection is a polynomial in 0 variables,
        # here 0, since the Casimir 2 AB has no constant term
        data = {
            "generators": [{"name": "A", "parity": 0}, {"name": "B", "parity": 0}],
            "brackets": [],
            "form": [[0, 1], [1, 0]],
            "root_system": {
                "cartan": [],
                "roots": [
                    {"index": 0, "parity": 0, "weight": []},
                    {"index": 1, "parity": 0, "weight": []},
                ],
                "positives": [0],
            },
        }
        path = tmp_path / "rank0.json"
        path.write_text(json.dumps(data))
        argv = ["casimir", "--kind", "casimir2", "--check-central", "--file", str(path)]
        status, rep = run_main(argv, capsys)
        assert status == 0 and rep["pass"] is True
        assert rep["values"]["cartan_projection"] == {}

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

    def test_jstruct_check_not_almost_complex_J_from_file(self, capsys, tmp_path):
        # a well-formed J with J^2 != -Id is a failing check, not malformed input
        from superalg.jstruct import realify

        g, _, _ = build_gl(1, 1)
        real, _ = realify(g)
        jm = [[ONE if r == c else gr(0) for c in range(real.dim)] for r in range(real.dim)]
        path = tmp_path / "identity_j.json"
        path.write_text(json.dumps(dump_definition(real, j_matrix=jm)))
        status, rep = run_main(["jstruct-check", "--file", str(path)], capsys)
        assert status == 1
        rows = {r["check"]: r for r in rep["results"]}
        assert rows["validate-J"]["pass"] is False
        assert rows["validate-J"]["detail"] == "J^2=-Id"
        assert rows["eigenspace-brackets"]["pass"] is False
        assert rows["eigenspace-brackets"]["detail"] == "J^2=-Id"

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
    def test_env_var_does_not_set_default(self, capsys, monkeypatch):
        assert_degree_cap_env_ignored("1", capsys, monkeypatch)

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
    def test_run_returns_status_and_report(self):
        status, report = run(RunConfig(command="check-jacobi", algebra="gl:1,1"))
        assert status == 0 and report["pass"] is True
        status, report = run(
            RunConfig(command="complexify", algebra="gl:1,1", ideal=[1])
        )
        assert status == 1 and report["pass"] is False
        assert [r["check"] for r in report["results"] if not r["pass"]] == ["ideal"]


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

    def test_casimir_certifies_centrality_without_the_flag(self, capsys, monkeypatch):
        # injected defect: casimir2 with the word V_i V_k in place of V_k V_i,
        # the element of tests/test_pbw.py's untransposed-word-order test
        import superalg.cli as cli
        from superalg.liealg import theta_dual
        from superalg.pbw import PBWElement, normalize_terms

        argv = ["casimir", "--algebra", "gl:1,1", "--order", "2"]
        status, rep = run_main(argv, capsys)
        assert status == 0
        assert [r["check"] for r in rep["results"]] == ["central"]

        def untransposed(g, form):
            m = theta_dual(form)
            items = [((i, k), c) for i, row in enumerate(m) for k, c in enumerate(row) if not c.is_zero()]
            return PBWElement(g, normalize_terms(g, items))

        monkeypatch.setattr(cli, "casimir2", untransposed)
        status, rep = run_main(argv, capsys)
        assert status == 1 and rep["pass"] is False
        (row,) = rep["results"]
        assert row["check"] == "central" and row["pass"] is False
        assert row["witness"]["generator"] == "E21"

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
        # the detail names the first differing term of Δ twisted and Δ, both coefficients
        assert witness["detail"] and " vs " in witness["detail"]
        _, again = run_main(
            ["hopf-check", "--algebra", "gl:1,1", "--samples", "100", "--seed", "7"],
            capsys,
        )
        assert [r["witness"] for r in again["results"] if not r["pass"]] == [witness]

    def test_wrong_laplacian_symbol_exits_1_with_P_fit_witness(self, capsys, monkeypatch):
        # injected defect: c_i / 2 in place of c_i / 4 in the symbol
        from superalg.radial import TorusLaplacian

        real = TorusLaplacian.symbol
        monkeypatch.setattr(TorusLaplacian, "symbol", lambda lap: real(lap).scale(2))
        status, rep = run_main(
            ["radial", "--algebra", "gl:1,1", "--points", "2", "--weights", "6"], capsys
        )
        assert status == 1 and rep["pass"] is False
        row = next(r for r in rep["results"] if r["check"] == "P-fit")
        assert row["pass"] is False
        assert row["witness"]["reason"].startswith("weight [1, 0]:")
        assert rep["values"]["P_fit"] == row["witness"]

    def test_not_eigenfunction_exits_1_with_eigenfunction_witness(self, capsys, monkeypatch):
        # injected defect: the first Laplacian coefficient doubled, so
        # L(j) = c j has no scalar solution c
        from superalg.radial import TorusLaplacian

        real = TorusLaplacian.from_cartan

        def doubled(rs, form):
            coeffs = real(rs, form).coeffs
            return TorusLaplacian((coeffs[0] * 2,) + coeffs[1:])

        monkeypatch.setattr(TorusLaplacian, "from_cartan", staticmethod(doubled))
        status = main(["radial", "--algebra", "gl:1,1", "--points", "2", "--weights", "6"])
        captured = capsys.readouterr()
        assert status == 1 and "Traceback" not in captured.err
        rep = json.loads(captured.out)
        assert rep["pass"] is False
        assert [r["check"] for r in rep["results"]] == ["gamma-oracle", "eigenfunction"]
        gamma_row, row = rep["results"]
        assert gamma_row["pass"] is True
        assert row["pass"] is False
        assert row["witness"] == "L(j) is not a scalar multiple of j"
        assert set(rep["values"]) == {"gamma_check"}

    def test_inverted_laplacian_coefficients_fail_leading_term(
        self, capsys, monkeypatch, tmp_path
    ):
        # injected defect: the Laplacian coefficient b(H,H) in place of
        # 1/b(H,H).  Every gl(m|n) Cartan norm is +-1, where the two agree,
        # so the defect shows only on a form whose Cartan norms are not:
        # gl(2|1) with its form doubled, read from a file
        from superalg.liealg import QuadraticForm
        from superalg.radial import TorusLaplacian

        g, form, rs = build_gl(2, 1)
        doubled = QuadraticForm([[c * 2 for c in row] for row in form.gram])
        path = tmp_path / "gl21-doubled-form.json"
        path.write_text(json.dumps(dump_definition(g, doubled, rs)))
        argv = ["radial", "--file", str(path), "--points", "3", "--weights", "12", "--seed", "1"]
        status, rep = run_main(argv, capsys)
        assert status == 0
        assert [r["check"] for r in rep["results"]] == [
            "gamma-oracle", "eigenfunction", "P-fit", "leading-term"
        ]
        real = TorusLaplacian.from_cartan

        def inverted(rs, form):
            return TorusLaplacian(tuple(c.inverse() for c in real(rs, form).coeffs))

        monkeypatch.setattr(TorusLaplacian, "from_cartan", staticmethod(inverted))
        status, rep = run_main(argv, capsys)
        assert status == 1 and rep["pass"] is False
        assert [r["check"] for r in rep["results"] if not r["pass"]] == ["leading-term"]

    @pytest.mark.parametrize("command", ["gamma-check", "radial"])
    def test_wrong_sdet_exits_1_with_gamma_witness(self, command, capsys, monkeypatch):
        # injected defect: the Jacobian Berezinian tripled at every point
        import superalg.radial as radial

        real = radial.gamma_via_sdet
        monkeypatch.setattr(radial, "gamma_via_sdet", lambda alg, a: real(alg, a) * 3)
        status, rep = run_main(
            [command, "--algebra", "gl:1,1", "--points", "4", "--seed", "3"], capsys
        )
        assert status == 1 and rep["pass"] is False
        row = next(r for r in rep["results"] if r["check"] == "gamma-oracle")
        assert row["pass"] is False
        assert 1 <= len(row["witness"]) <= 3
        for ent in row["witness"]:
            assert ent["agree"] is False and len(ent["point"]) == 2
        others = [r for r in rep["results"] if r["check"] != "gamma-oracle"]
        assert all(r["pass"] for r in others)

    @pytest.mark.parametrize("algebra", ["gl:1,1", "gl:2,1", "gl:2,2"])
    def test_negated_sdet_exits_1_with_gamma_witness(self, algebra, capsys, monkeypatch):
        # injected defect: the Jacobian Berezinian with the opposite global
        # sign, which a sign taken from the first point would absorb
        import superalg.radial as radial

        real = radial.gamma_via_sdet
        monkeypatch.setattr(radial, "gamma_via_sdet", lambda alg, a: -real(alg, a))
        status, rep = run_main(
            ["gamma-check", "--algebra", algebra, "--points", "6", "--seed", "1"], capsys
        )
        assert status == 1 and rep["pass"] is False
        m, n = (int(x) for x in algebra[3:].split(","))
        sign = rep["values"]["sign"]
        assert sign == (-1) ** (m * n)
        row = rep["results"][0]
        assert row["check"] == "gamma-oracle" and row["pass"] is False
        assert 1 <= len(row["witness"]) <= 3
        for ent in row["witness"]:
            # the negated sdet is -sign * closed: equal to closed when sign = -1
            assert ent["agree"] is False and (ent["sdet"] == ent["closed"]) == (sign == -1)

    @pytest.mark.parametrize("command", ["gamma-check", "radial"])
    @pytest.mark.parametrize(
        "defect", ["odd-pairing-zero", "mate-pairing-doubled", "cartan-null"]
    )
    def test_degenerate_frame_exits_2(self, command, defect, capsys, tmp_path):
        # the form check at load refuses each of these forms before a frame
        # is built; tests/test_smash.py::TestCheckFrame tests the frame check
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
            (["complexify", "--ideal", "x"], "--ideal"),
            (["complexify", "--ideal", "99"], "--ideal"),
            (["casimir", "--order", "0"], "--order"),
            (["hopf-check", "--degree-cap", "-1", "--samples", "3"], "--degree-cap"),
            (["radial", "--weights", "2"], "--weights"),
            (["gamma-check", "--points", "-3"], "--points"),
            (["casimir", "--kind", "casimir2", "--order", "3"], "--order 3"),
            # options build does not read
            (["build", "--degree-cap", "7", "--points", "5", "--ideal", "3"], "--degree-cap 7"),
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
            (["hopf-check", "--samples", "3"], "weights-scaled-1e6", "beyond +-64"),
            (["gamma-check", "--points", "2"], "weights-scaled-1e6", "beyond +-64"),
            (["radial"], "weights-scaled-1e6", "beyond +-64"),
            (["hopf-check", "--samples", "3"], "bracket-off-grading", "leaves weight [2, -2]"),
            # these three once passed on a table that is not a Lie superalgebra
            (["hopf-check", "--samples", "50", "--degree-cap", "3"], "non-jacobi",
             "fails super Jacobi at (E21, E21, E12)"),
            (["gamma-check", "--points", "4"], "non-jacobi",
             "fails super Jacobi at (E21, E21, E12)"),
            (["radial", "--points", "2", "--weights", "6"], "non-jacobi",
             "fails super Jacobi at (E21, E21, E12)"),
            (["gamma-check", "--points", "4"], "form-not-invariant",
             "DegenerateForm: quadratic form is not invariant at (E21, E12, E11)"),
            (["radial", "--points", "2", "--weights", "6"], "form-not-invariant",
             "DegenerateForm: quadratic form is not invariant at (E21, E12, E11)"),
            # these two once ran on the non-Jacobi table: jstruct-check
            # passed, and casimir failed blaming central
            (["jstruct-check"], "non-jacobi", "fails super Jacobi at (E21, E21, E12)"),
            (["casimir", "--order", "2", "--check-central"], "non-jacobi",
             "fails super Jacobi at (E21, E21, E12)"),
            (["casimir", "--order", "2", "--check-central"], "form-not-invariant",
             "DegenerateForm: quadratic form is not invariant at (E21, E12, E11)"),
            # the predicted sign i^|R1| needs one positive root per +- pair;
            # the first two once exited 1 with an IndexError traceback
            (["gamma-check"], "positives-both-of-a-pair", "exactly one of E21 and its opposite"),
            (["radial"], "positives-both-of-a-pair", "exactly one of E21 and its opposite"),
            (["gamma-check"], "positives-repeated", "exactly one of E21 and its opposite"),
            (["radial"], "positives-repeated", "exactly one of E21 and its opposite"),
            (["gamma-check"], "positives-empty", "exactly one of E21 and its opposite"),
            (["radial"], "positives-empty", "exactly one of E21 and its opposite"),
            # a float or bool where an integer belongs; int() once truncated
            # the first three to a valid gl(1|1), which then passed
            (["gamma-check", "--points", "2"], "weights-scaled-1.9", "expected an integer, got -1.9"),
            (["check-jacobi"], "numerator-1.7", "expected an integer, got 1.7"),
            (["build"], "numerator-1.7", "expected an integer, got 1.7"),
            (["build"], "denominator-true", "expected an integer, got True"),
            (["build"], "imaginary-part-true", "bad rational encoding: True"),
            (["check-jacobi"], "parity-float", "expected an integer, got 1.0"),
            (["check-jacobi"], "parity-true", "expected an integer, got True"),
            (["build"], "bracket-index-float", "expected an integer, got 0.0"),
            (["build"], "bracket-target-float", "expected an integer, got 0.0"),
            (["gamma-check"], "cartan-float", "expected an integer, got 1.0"),
            (["gamma-check"], "root-index-float", "expected an integer, got 0.0"),
            (["radial"], "positive-float", "expected an integer, got 1.0"),
            # a bool in a scalar of the form or J once loaded as 0 or 1
            (["build"], "form-entry-true", "malformed definition: bad scalar encoding: True"),
            (["build"], "form-entry-pair-true", "malformed definition: expected an integer, got True"),
            (["build"], "form-entry-quad-true", "malformed definition: expected an integer, got True"),
            (["build"], "form-entry-pairs-true", "malformed definition: expected an integer, got True"),
            (["jstruct-check"], "J-entry-true", "malformed definition: bad scalar encoding: True"),
            (["jstruct-check"], "J-entry-pair-true", "malformed definition: expected an integer, got True"),
            (["jstruct-check"], "J-entry-quad-true", "malformed definition: expected an integer, got True"),
            (["jstruct-check"], "J-entry-pairs-true", "malformed definition: expected an integer, got True"),
            # with no generators, hopf-check, gamma-check and radial once
            # died with a traceback, and the rest passed having checked nothing
            (["build"], "no-generators", "at least one generator"),
            (["check-jacobi"], "no-generators", "at least one generator"),
            (["casimir"], "no-generators", "at least one generator"),
            (["hopf-check"], "no-generators", "at least one generator"),
            (["gamma-check"], "no-generators", "at least one generator"),
            (["radial"], "no-generators", "at least one generator"),
            (["jstruct-check"], "no-generators", "at least one generator"),
            (["complexify"], "no-generators", "at least one generator"),
            # check-jacobi once read the generators and brackets only
            (["check-jacobi"], "form-not-square", "gram matrix must be square"),
            (["check-jacobi"], "positives-out-of-range", "positives must index"),
            (["check-jacobi"], "non-square-J", "must be square"),
            # a generator name that is not a JSON string once reached the
            # join of the super Jacobi witness: TypeError traceback, exit 1
            (["casimir", "--order", "2", "--check-central"], "non-jacobi-int-names",
             "generator name must be a JSON string, got 0"),
            (["hopf-check", "--samples", "3"], "non-jacobi-int-names",
             "generator name must be a JSON string, got 0"),
            (["gamma-check", "--points", "2"], "non-jacobi-int-names",
             "generator name must be a JSON string, got 0"),
            (["jstruct-check"], "non-jacobi-int-names",
             "generator name must be a JSON string, got 0"),
            (["radial", "--points", "2", "--weights", "6"], "non-jacobi-int-names",
             "generator name must be a JSON string, got 0"),
            (["build"], "non-jacobi-null-names", "generator name must be a JSON string, got None"),
            # a table that is not super-antisymmetric: from_json is the one
            # structure check left in front of these commands
            (["hopf-check", "--samples", "3"], "antisymmetry",
             "invalid structure table: (E21, E11)"),
            (["casimir", "--order", "2", "--check-central"], "antisymmetry",
             "invalid structure table: (E21, E11)"),
            (["gamma-check", "--points", "2"], "antisymmetry",
             "invalid structure table: (E21, E11)"),
            (["radial", "--points", "2", "--weights", "6"], "antisymmetry",
             "invalid structure table: (E21, E11)"),
            (["jstruct-check"], "antisymmetry", "invalid structure table: (E21, E11)"),
            (["complexify"], "antisymmetry", "invalid structure table: (E21, E11)"),
            # every witness names generators, so a repeated name makes one
            # ambiguous; E21 renamed E22 once passed these five commands
            (["build"], "repeated-name", "generator name 'E22' is repeated"),
            (["casimir", "--order", "2", "--check-central"], "repeated-name",
             "generator name 'E22' is repeated"),
            (["hopf-check", "--samples", "3"], "repeated-name", "generator name 'E22' is repeated"),
            (["gamma-check", "--points", "2"], "repeated-name", "generator name 'E22' is repeated"),
            (["radial", "--points", "2", "--weights", "6"], "repeated-name",
             "generator name 'E22' is repeated"),
            # [E21, E11] given twice, once doubled: the last copy once won
            # silently, so these passed or failed by the order of the file
            *[
                (argv, f"repeated-bracket-{place}", "bracket entry [E21, E11] is repeated")
                for argv in (["build"], ["check-jacobi"], ["casimir", "--order", "2"],
                             ["hopf-check", "--samples", "3"])
                for place in ("first", "last")
            ],
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
        elif definition.startswith("J-entry-"):
            real, j = realify(g)
            data = dump_definition(real, j_matrix=j.matrix)
        elif definition.startswith("non-jacobi"):
            data = non_jacobi_gl11()
        elif definition == "no-generators":
            data = {
                "generators": [],
                "brackets": [],
                "form": [],
                "root_system": {"cartan": [], "roots": [], "positives": []},
            }
        else:
            data = dump_definition(g, form, rs)
        if definition == "odd-weights-zero":  # Ad is 1 on every odd root
            for root in data["root_system"]["roots"]:
                root["weight"] = [0] * len(root["weight"])
            # the Cartan must then commute with the odd vectors, or the
            # weights contradict the bracket table and loading fails first;
            # and [E21, E12] = E11 + E22 must go too, or the supertrace form
            # is no longer invariant and the form check fails first.  The
            # abelian algebra that is left keeps the form valid.
            data["brackets"] = []
        elif definition == "weight-too-short":
            data["root_system"]["roots"][0]["weight"] = [1]
        elif definition == "positives-out-of-range":
            data["root_system"]["positives"] = [7]
        elif definition == "form-not-square":
            data["form"][0] = data["form"][0][:-1]
        elif definition == "weights-scaled-1e6":
            # the Cartan-odd brackets and the odd weights scaled together
            # agree with each other, and Jacobi holds because [E21, E12] is
            # central; unbounded, these runs hung raising torus coordinates
            # to the power 2*10^6
            cartan = set(data["root_system"]["cartan"])
            for b in data["brackets"]:
                if {b["i"], b["j"]} & cartan and len({b["i"], b["j"]} - cartan) == 1:
                    for term in b["result"]:
                        term[0][0] *= 10**6
            for root in data["root_system"]["roots"]:
                root["weight"] = [w * 10**6 for w in root["weight"]]
        elif definition == "form-not-invariant":
            # b(E11, E11) = 2: even, supersymmetric, non-degenerate, and
            # b([E21, E12], E11) = 2 while b(E21, [E12, E11]) = 1
            i11 = g.names.index("E11")
            data["form"][i11][i11] = [2, 1, 0, 1]
        elif definition == "bracket-off-grading":
            # [E12, E12] = E11 keeps parity and symmetry, but E11 has weight
            # 0, not 2 w(E12); the closed-form antipode needs the grading
            i11, i12 = g.names.index("E11"), g.names.index("E12")
            data["brackets"].append({"i": i12, "j": i12, "result": [[[1, 1], [0, 1], i11]]})
        elif definition == "positives-both-of-a-pair":
            data["root_system"]["positives"] = [0, 1]
        elif definition == "positives-repeated":
            data["root_system"]["positives"] = [1, 1]
        elif definition == "positives-empty":
            data["root_system"]["positives"] = []
        elif definition == "weights-scaled-1.9":
            for root in data["root_system"]["roots"]:
                root["weight"] = [w * 1.9 for w in root["weight"]]
        elif definition == "numerator-1.7":
            data["brackets"][0]["result"][0][0][0] = 1.7
        elif definition == "denominator-true":
            data["brackets"][0]["result"][0][0][1] = True
        elif definition == "imaginary-part-true":
            data["brackets"][0]["result"][0][1] = True
        elif definition.startswith("parity-"):
            data["generators"][0]["parity"] = 1.0 if definition == "parity-float" else True
        elif definition == "bracket-index-float":
            data["brackets"][0]["i"] = 0.0
        elif definition == "bracket-target-float":
            data["brackets"][0]["result"][0][2] = 0.0
        elif definition == "cartan-float":
            data["root_system"]["cartan"][0] = 1.0
        elif definition == "root-index-float":
            data["root_system"]["roots"][0]["index"] = 0.0
        elif definition == "positive-float":
            data["root_system"]["positives"] = [1.0]
        elif definition.endswith("-names"):
            for k, gen in enumerate(data["generators"]):
                gen["name"] = k if definition == "non-jacobi-int-names" else None
        elif definition == "repeated-name":
            assert data["generators"][0]["name"] == "E21"
            data["generators"][0]["name"] = "E22"
        elif definition.startswith("repeated-bracket-"):
            ent = data["brackets"][0]
            assert [g.names[ent["i"]], g.names[ent["j"]]] == ["E21", "E11"]
            doubled = {**ent, "result": [[[2 * re[0], re[1]], im, k] for re, im, k in ent["result"]]}
            data["brackets"].insert(0 if definition.endswith("first") else len(data["brackets"]), doubled)
        elif definition == "antisymmetry":
            # [E11, E21] given equal to [E21, E11] instead of its negative
            i11, i21 = g.names.index("E11"), g.names.index("E21")
            ent = next(b for b in data["brackets"] if {b["i"], b["j"]} == {i11, i21})
            data["brackets"].append({"i": ent["j"], "j": ent["i"], "result": ent["result"]})
        if "-entry-" in definition:
            key, encoding = definition.split("-entry-")
            data[key][0][0] = {
                "true": True,
                "pair-true": [True, 1],
                "quad-true": [2, 1, 0, True],
                "pairs-true": [[1, 1], [True, 1]],
            }[encoding]
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
        # the environment is not an input, so no value of it is malformed
        assert_degree_cap_env_ignored("-1", capsys, monkeypatch)

    def test_casimir2_at_its_own_order_still_runs(self, capsys):
        status, rep = run_main(["casimir", "--kind", "casimir2", "--order", "2"], capsys)
        assert status == 0 and rep["values"]["order"] == 2


# RunConfig fields a command may read beyond algebra, file and output
EXTRA_FIELDS = [
    f.name for f in dataclasses.fields(RunConfig)
    if f.name not in ("command", "algebra", "file", "output")
]
# a valid argv value of each option, and a RunConfig value other than the default
ARGV_VALUE = {
    "samples": ["3"], "seed": ["1"], "degree_cap": ["1"], "points": ["2"],
    "weights": ["6"], "order": ["2"], "kind": ["gelfand"], "check_central": [],
    "ideal": ["0"], "algebra": ["gl:1,1"], "file": ["def.json"], "output": ["out.json"],
}
NON_DEFAULT = {
    "samples": 3, "seed": 5, "degree_cap": 1, "points": 3, "weights": 7, "order": 3,
    "kind": "gelfand", "check_central": True, "ideal": [1],
}


def flag(field):
    return "--" + field.replace("_", "-")


class TestCommandOptions:
    """Each command declares exactly the options it reads."""

    @pytest.mark.parametrize(
        "command, field",
        [(c, f) for c in COMMANDS for f in EXTRA_FIELDS if f not in _COMMAND_TABLE[c][1]],
    )
    def test_undeclared_option_exits_2(self, command, field, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--algebra", "gl:1,1", flag(field), *ARGV_VALUE[field]])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err and flag(field) in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_declared_options_are_accepted(self, command):
        declared = ("algebra", "file", *_COMMAND_TABLE[command][1], "output")
        argv = [command]
        for field in declared:
            argv += [flag(field), *ARGV_VALUE[field]]
        parsed = vars(_build_parser().parse_args(argv))
        assert set(parsed) == {"command", *declared}
        RunConfig(**parsed)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_undeclared_fields_do_not_change_the_report(self, command):
        # a run with every field the command does not declare moved off its
        # default has the results and values of a run without them: the
        # table lists everything the command reads
        reads = _COMMAND_TABLE[command][1]
        small = {"samples": 4, "seed": 2, "points": 2, "weights": 6, "ideal": [0]}
        base = {f: v for f, v in small.items() if f in reads}
        moved = {f: v for f, v in NON_DEFAULT.items() if f not in reads}
        _, plain = run(RunConfig(command, "gl:1,1", **base))
        _, other = run(RunConfig(command, "gl:1,1", **base, **moved))
        assert other["results"] == plain["results"]
        assert other.get("values") == plain.get("values")


class TestDefinitionViewsDerivedOnce:
    """A run scans each algebra's table for structure once and builds its
    adjacency lists once, inverts each Gram matrix at most once, and derives
    the Jacobian frame once per root system, not at every torus point."""

    @pytest.fixture
    def derived(self, monkeypatch):
        """Counters of each derivation, by the object it was derived for."""
        from collections import Counter

        import superalg.smash as smash
        from superalg.liealg import LieSuperalgebra, QuadraticForm, RootSystem

        counts = {name: Counter() for name in ("structure", "right", "gram_inverse", "frame")}
        counts["points"] = Counter()
        kept = []  # keeps every counted object alive, so that no id is reused

        def counting(name, real):
            def wrapped(obj, *args):
                kept.append(obj)
                counts[name][id(obj)] += 1
                return real(obj, *args)

            return wrapped

        for cls, name in (
            (LieSuperalgebra, "structure"), (LieSuperalgebra, "right"), (QuadraticForm, "gram_inverse")
        ):
            view = cls.__dict__[name]
            monkeypatch.setattr(view, "func", counting(name, view.func))
        monkeypatch.setattr(RootSystem, "__init__", counting("frame", RootSystem.__init__))
        monkeypatch.setattr(smash, "jacobian_at", counting("points", smash.jacobian_at))
        return counts

    def assert_once(self, counts, argv, forms):
        assert counts["structure"] and set(counts["structure"].values()) == {1}, argv
        assert counts["right"] and set(counts["right"].values()) == {1}, argv
        assert len(counts["gram_inverse"]) == forms and set(counts["gram_inverse"].values()) <= {1}, argv
        assert list(counts["frame"].values()) == [1], argv

    @pytest.mark.parametrize("command", ["build", "check-jacobi"])
    def test_builder(self, command, derived, capsys):
        argv = [command, "--algebra", "gl:2,2"]
        status, _ = run_main(argv, capsys)
        assert status == 0
        self.assert_once(derived, argv, forms=int(command == "build"))

    @pytest.mark.parametrize(
        "argv, forms",
        [
            (["build"], 1),
            (["check-jacobi"], 0),
            (["casimir", "--kind", "casimir2"], 1),
            (["hopf-check", "--samples", "4", "--degree-cap", "2"], 0),
            (["jstruct-check"], 0),
            (["gamma-check", "--points", "3"], 1),
            (["radial", "--points", "2", "--weights", "12"], 1),
            (["complexify"], 0),
        ],
    )
    def test_definition_file(self, argv, forms, derived, capsys, tmp_path):
        path = tmp_path / "gl21.json"
        path.write_text(json.dumps(dump_definition(*build_gl(2, 1))))
        for counts in derived.values():
            counts.clear()
        status, _ = run_main(argv + ["--file", str(path)], capsys)
        assert status == 0
        self.assert_once(derived, argv, forms)
        if argv[0] in ("gamma-check", "radial"):
            assert sum(derived["points"].values()) >= 2
