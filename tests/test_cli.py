"""End-to-end command line checks driving main() with temp directories."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from mesh_reference import classify_document, mesh_variant, refined_mesh

import helimag
from helimag.cli import main, run
from helimag.lattice import SpinField


def read_json(path):
    return json.loads(path.read_text())


class TestPlumbing:
    def test_unknown_command(self):
        status, result = run("fold", {})
        assert status == 1
        assert "unknown command" in result["error"]

    def test_config_file_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair": "++", "n": 8, "lambda": 0.05, "delta": 0.3}))
        out = tmp_path / "o"
        rc = main(["groundstate", "--config", str(cfg), "--pair", "+-", "--out", str(out)])
        assert rc == 0
        u = SpinField.from_json((out / "groundstate.json").read_text())
        # flag wins: negative vertical steps come from zsgn = -1
        assert u.angles[1, 0] < u.angles[0, 0]

    def test_missing_config_file(self, capsys):
        assert main(["groundstate", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("text", ["[1, 2]", '[["n", 4]]'])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["groundstate", "--config", str(cfg), "--lambda", "0.05",
                   "--delta", "0.2", "--out", str(tmp_path)])
        assert rc == 1
        assert "must be an object" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("text", [None, "{", "[1, 2]"])
    def test_config_error_as_json(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["groundstate", "--config", str(cfg), "--json-errors"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["status"] == 1
        assert doc["error"].startswith("cannot read config")

    @pytest.mark.parametrize("argv, message", [
        (["nosuch"], "invalid choice: 'nosuch'"),
        (["groundstate", "--n", "abc"], "invalid int value: 'abc'"),
        (["energy", "--format", "json"], "invalid choice: 'json'"),
        ([], "required: command"),
        (["selftest", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_usage_error_is_status_1(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert main(argv + ["--json-errors"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["status"] == 1 and message in doc["error"]

    def test_help_is_status_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "selftest" in capsys.readouterr().out

    def test_flags_land_under_their_config_keys(self, monkeypatch):
        from helimag import cli

        seen = []
        monkeypatch.setattr(cli, "run", lambda command, config: seen.append(config) or (0, {}))
        assert main(["classify", "--lambda", "0.05", "--in", "u.json", "--n-walls", "4"]) == 0
        assert seen == [{"lambda": 0.05, "in": "u.json", "n_walls": 4}]


class TestGroundstateEnergy:
    def test_energy_json_is_the_two_reports(self, tmp_path):
        from helimag.energy import energy_H, mm_decomposition
        from helimag.lattice import Domain, ModelParams

        psi = np.random.default_rng(3).uniform(-math.pi, math.pi, (9, 7))
        u = SpinField.from_angles(psi, 0.05)
        f = tmp_path / "u.json"
        f.write_text(u.to_json())
        status, _ = run("energy", {"in": str(f), "delta": 0.25, "out": str(tmp_path)})
        assert status == 0
        dom, p = Domain(width=7 * 0.05, height=9 * 0.05), ModelParams(lam=0.05, delta=0.25)
        want = {"direct": json.loads(energy_H(u, dom, p).to_json()),
                "decomposition": json.loads(mm_decomposition(u, dom, p).to_json())}
        assert (tmp_path / "energy.json").read_text() == json.dumps(want)

    def test_groundstate_energy_zero(self, tmp_path):
        out = tmp_path
        rc = main([
            "groundstate", "--pair=-+", "--delta", "0.2", "--lambda", "0.05",
            "--n", "12", "--out", str(out),
        ])
        assert rc == 0
        rc = main([
            "energy", "--in", str(out / "groundstate.json"), "--delta", "0.2",
            "--out", str(out),
        ])
        assert rc == 0
        doc = read_json(out / "energy.json")
        assert abs(doc["direct"]["total"]) < 1e-10
        assert abs(doc["decomposition"]["total"]) < 1e-10

    def test_energy_csv_format(self, tmp_path):
        main(["groundstate", "--delta", "0.2", "--lambda", "0.05", "--n", "8",
              "--out", str(tmp_path)])
        rc = main(["energy", "--in", str(tmp_path / "groundstate.json"),
                   "--delta", "0.2", "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "energy.csv").read_text().strip().split("\n")
        assert lines[0].startswith("lambda,delta,epsilon")
        assert len(lines) == 2

    def test_bad_pair_rejected(self, tmp_path):
        rc = main(["groundstate", "--pair", "xx", "--delta", "0.2",
                   "--lambda", "0.05", "--out", str(tmp_path)])
        assert rc == 1

    def test_missing_input(self, tmp_path):
        rc = main(["energy", "--in", str(tmp_path / "nope.json"),
                   "--delta", "0.2", "--out", str(tmp_path)])
        assert rc == 1


class TestTransform:
    def test_groundstate_has_no_vortices(self, tmp_path):
        main(["groundstate", "--delta", "0.3", "--lambda", "0.05", "--n", "10",
              "--out", str(tmp_path)])
        rc = main(["transform", "--in", str(tmp_path / "groundstate.json"),
                   "--delta", "0.3", "--out", str(tmp_path)])
        assert rc == 0
        vort = read_json(tmp_path / "vorticity.json")
        assert all(v == 0.0 for v in vort["values"])
        chir = read_json(tmp_path / "chirality.json")
        np.testing.assert_allclose(chir["w"], 1.0, atol=1e-10)

    def test_vortex_field_exit_code(self, tmp_path):
        # a field with an undefinable plaquette (antipodal spins) exits 2
        psi = np.array([[0.0, math.pi], [0.0, 0.0]])
        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(psi, 0.1).to_json())
        rc = main(["transform", "--in", str(f), "--delta", "0.3",
                   "--out", str(tmp_path)])
        assert rc in (0, 2)


class TestClassify:
    def test_four_quadrant(self, tmp_path):
        rc = main(["classify", "--kind", "four_quadrant", "--format", "svg",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = read_json(tmp_path / "classify.json")
        assert doc["limit_energy"] == pytest.approx(16.0 / 3.0)
        assert (tmp_path / "mesh.svg").exists()
        classes = {s["class"] for s in doc["segments"]}
        assert classes == {"J1", "J2"}

    def test_mesh_file_input(self, tmp_path):
        from helimag.continuum import build_example

        mesh = tmp_path / "m.json"
        mesh.write_text(build_example("vertical_wall").to_json())
        rc = main(["classify", "--mesh", str(mesh), "--out", str(tmp_path)])
        assert rc == 0
        doc = read_json(tmp_path / "classify.json")
        assert doc["limit_energy"] == pytest.approx(8.0 / 3.0)

    def test_unknown_kind(self, tmp_path):
        rc = main(["classify", "--kind", "moebius", "--out", str(tmp_path)])
        assert rc == 1

    def test_invalid_mesh(self, tmp_path):
        from helimag.continuum import build_example

        m = build_example("vertical_wall")
        heights = m.heights.copy()
        heights[0] += 0.25  # one gradient off the {+-1}^2 lattice
        m = dataclasses.replace(m, heights=heights)
        mesh = tmp_path / "m.json"
        mesh.write_text(m.to_json())
        status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert status == 1
        assert "gradients off" in result["error"]
        assert not (tmp_path / "classify.json").exists()

    @pytest.mark.parametrize("variant", ["plain", "shuffled", "rotated"])
    @pytest.mark.parametrize("k", [4, 16])
    @pytest.mark.parametrize("kind", ["vertical_wall", "horizontal_wall", "diagonal_wall",
                                      "four_quadrant", "laminate"])
    def test_document_matches_the_loop_reference(self, tmp_path, kind, k, variant):
        # the rows, totals and limit of classify.json, byte for byte, against
        # the dict-of-edges jump set and the scalar classifier
        rng = np.random.default_rng([k, len(kind)])
        m = mesh_variant(refined_mesh(kind, k, rng), variant, rng)
        mesh = tmp_path / "m.json"
        mesh.write_text(m.to_json())
        status, _ = run("classify", {"mesh": str(mesh), "format": "svg", "out": str(tmp_path)})
        assert status == 0
        assert (tmp_path / "classify.json").read_bytes() == classify_document(m).encode()

    def test_one_jump_set_per_request(self, tmp_path, jump_set_calls):
        status, _ = run("classify", {"kind": "four_quadrant", "format": "svg",
                                     "out": str(tmp_path)})
        assert status == 0
        assert len(jump_set_calls) == 1

    @pytest.mark.parametrize("index", [1e30, -1e30, 2.0 ** 63])
    def test_huge_float_triangle_index(self, tmp_path, index):
        # rejected by the range check before the cast to int could warn
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        doc["triangles"][0][1] = index
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert caught == []
        assert status == 1
        assert result["error"] == "cannot load mesh: triangle vertex indices must lie in [0, 6)"

    @pytest.mark.parametrize("domain", ["missing y0", "a string"])
    def test_mesh_domain_that_is_not_a_rectangle(self, tmp_path, domain):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        if domain == "missing y0":
            del doc["domain"]["y0"]
        else:
            doc["domain"] = "unit square"
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == ("cannot load mesh: domain must be an object with numeric "
                                   "x0, y0, width and height")


class TestRecoverSweepMinimize:
    def test_recover(self, tmp_path):
        rc = main(["recover", "--kind", "vertical_wall", "--n", "24",
                   "--delta", "0.1", "--lambda", str(1.0 / 24),
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path / "recovery_energy.json")
        assert rep["total"] > 0.0
        assert (tmp_path / "recovery_spin.json").exists()
        assert (tmp_path / "recovery_chirality.json").exists()

    @pytest.mark.parametrize("command", ["recover", "sweep"])
    def test_one_jump_set_per_mesh(self, tmp_path, jump_set_calls, command):
        status, result = run(command, {"kind": "diagonal_wall", "lambda": 1.0 / 16,
                                       "delta": 0.2, "finest_n": 16, "levels": 2,
                                       "out": str(tmp_path)})
        assert status == 0
        assert result["segments"] == 1
        assert len(jump_set_calls) == 1

    def test_sweep_ratio(self, tmp_path):
        rc = main(["sweep", "--kind", "vertical_wall", "--finest-n", "32",
                   "--levels", "2", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        ratio = float(lines[-1].split(",")[7])
        assert 0.8 < ratio < 1.3

    def test_recover_and_sweep_report_their_work(self, tmp_path):
        from helimag.continuum import build_example, jump_set
        from helimag.lattice import ModelParams
        from helimag.recovery import build_recovery

        lam = 1.0 / 16
        params = ModelParams(lam=lam, delta=lam ** (2.0 / 3.0))
        m = build_example("laminate", n=2)
        want = build_recovery(m, params).quadrature_points
        status, rec = run("recover", {"kind": "laminate", "n_walls": 2, "lambda": lam,
                                      "delta": params.delta, "out": str(tmp_path)})
        assert status == 0
        assert rec["segments"] == len(jump_set(m)) == 2
        assert rec["quadrature_points"] == want
        # the one sweep row has the recover command's lattice and width
        status, sweep = run("sweep", {"kind": "laminate", "n_walls": 2, "finest_n": 16,
                                      "levels": 1, "out": str(tmp_path)})
        assert status == 0
        assert sweep["segments"] == 2
        assert sweep["quadrature_points"] == want

    @pytest.mark.parametrize("kind", ["diagonal_wall", "vertical_wall"])
    def test_recover_has_the_sweep_rows_energy(self, tmp_path, kind):
        # both take pick_width's smoothing width
        lam = 1.0 / 32
        status, rec = run("recover", {"kind": kind, "lambda": lam, "delta": lam ** (2.0 / 3.0),
                                      "out": str(tmp_path / "rc")})
        assert status == 0
        status, _ = run("sweep", {"kind": kind, "finest_n": 32, "levels": 1,
                                  "out": str(tmp_path / "sw")})
        assert status == 0
        row = (tmp_path / "sw" / "sweep.csv").read_text().split("\n")[1].split(",")
        assert rec["H_n"].hex() == float(row[3]).hex()

    def test_failed_sweep_row_names_its_cause(self, tmp_path):
        # the first step's lattice has 2 columns, too few for a stencil
        sched = tmp_path / "schedule.json"
        sched.write_text(json.dumps([[0.5, 0.3], [0.0625, 0.0625 ** (2.0 / 3.0)]]))
        status, result = run("sweep", {"kind": "vertical_wall", "schedule": str(sched),
                                       "out": str(tmp_path)})
        assert status == 2
        assert "lambda=0.5 failed: lattice too coarse for the domain" in result["error"]
        lines = (tmp_path / "sweep.csv").read_text().split("\n")
        assert lines[1] == "0.6454972243679028,0.5,0.3,failed,failed,failed,2.6666666666666665,failed,0"
        assert len(lines) == 4 and lines[3] == ""
        assert "failed" not in lines[2]

    def test_minimize_writes_artifacts(self, tmp_path):
        rc = main(["minimize", "--n", "30", "--lambda", "0.04", "--delta",
                   str(0.04 ** (2.0 / 3.0)), "--bc", "+-", "--max-iter", "400",
                   "--out", str(tmp_path)])
        assert rc == 0
        for f in ("minimize_psi.json", "minimize_log.csv", "minimize_report.json"):
            assert (tmp_path / f).exists()
        log = (tmp_path / "minimize_log.csv").read_text().strip().split("\n")
        assert log[0] == "iter,energy,grad_norm,step"

    def test_minimize_reports_why_it_stopped(self, tmp_path):
        status, result = run("minimize", {"n": 30, "lambda": 0.04,
                                          "delta": 0.04 ** (2.0 / 3.0), "max_iter": 50,
                                          "out": str(tmp_path)})
        assert status == 0
        assert result["reason"] == "max_iter" and not result["converged"]
        log = (tmp_path / "minimize_log.csv").read_text().strip().split("\n")
        # one evaluation before the first step, at least one trial per step
        assert result["objective_evals"] >= len(log)
        # a 30-site chain evaluates its trials in stacks of three
        assert result["rows_evaluated"] > result["objective_evals"]

    def test_minimize_bad_bc(self, tmp_path):
        rc = main(["minimize", "--n", "30", "--lambda", "0.04", "--delta", "0.2",
                   "--bc", "+o", "--out", str(tmp_path)])
        assert rc == 1


class TestSelftestProfile:
    def test_selftest(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v["failed"] == 0 for v in doc.values())

    def test_profile1d(self, tmp_path):
        assert main(["profile1d", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "profile1d.json")
        assert doc["total"] == pytest.approx(8.0 / 3.0, rel=1e-7)


class TestErrorContract:
    """Invalid input returns status 1 with an error message, never a raw
    exception out of run()."""

    def test_sweep_schedule_without_cells(self, tmp_path):
        status, result = run("sweep", {"kind": "vertical_wall", "finest_n": 2,
                                       "levels": 3, "out": str(tmp_path)})
        assert status == 1
        assert "schedule" in result["error"]

    def test_recover_lattice_too_coarse(self, tmp_path):
        status, result = run("recover", {"kind": "vertical_wall", "lambda": 0.5,
                                         "delta": 0.3, "out": str(tmp_path)})
        assert status == 1
        assert "too coarse" in result["error"]

    @pytest.mark.parametrize("command", ["energy", "transform"])
    def test_single_row_field(self, tmp_path, command):
        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(np.zeros((1, 8)), 0.1).to_json())
        status, result = run(command, {"in": str(f), "delta": 0.3,
                                       "out": str(tmp_path)})
        assert status == 1
        assert "2x2" in result["error"]

    def test_minimize_chain_too_short(self, tmp_path):
        status, result = run("minimize", {"n": 3, "lambda": 0.04, "delta": 0.2,
                                          "out": str(tmp_path)})
        assert status == 1
        assert "at least 5 sites" in result["error"]

    @pytest.mark.parametrize("value", ["x", 2.5, True, None])
    @pytest.mark.parametrize("command, key, config", [
        ("groundstate", "n", {"lambda": 0.05, "delta": 0.2}),
        ("minimize", "max_iter", {"n": 8, "lambda": 0.04, "delta": 0.2}),
        # read inside _schedule's handler, which must not prefix the message
        ("sweep", "finest_n", {"kind": "vertical_wall"}),
        ("sweep", "levels", {"kind": "vertical_wall"}),
    ])
    def test_non_integer_config_value(self, tmp_path, command, key, config, value):
        status, result = run(command, {**config, key: value, "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == f"{key} must be an integer, got {value!r}"

    def test_integral_float_config_value(self, tmp_path):
        status, _ = run("groundstate", {"n": 4.0, "lambda": 0.05, "delta": 0.2,
                                        "out": str(tmp_path)})
        assert status == 0
        u = SpinField.from_json((tmp_path / "groundstate.json").read_text())
        assert u.angles.shape == (4, 4)

    @pytest.mark.parametrize("command", ["energy", "transform"])
    @pytest.mark.parametrize("delta", [None, 1.5, -1.0])
    def test_bad_delta(self, tmp_path, command, delta):
        main(["groundstate", "--delta", "0.2", "--lambda", "0.05", "--n", "4",
              "--out", str(tmp_path)])
        config = {"in": str(tmp_path / "groundstate.json"), "out": str(tmp_path)}
        if delta is not None:
            config["delta"] = delta
        status, result = run(command, config)
        assert status == 1
        assert "model parameters" in result["error"]

    @pytest.mark.parametrize("command", ["sweep", "recover"])
    def test_invalid_mesh(self, tmp_path, command):
        from helimag.continuum import build_example

        m = build_example("vertical_wall")
        heights = m.heights.copy()
        heights[0] += 0.25  # one gradient off the {+-1}^2 lattice
        m = dataclasses.replace(m, heights=heights)
        mesh = tmp_path / "m.json"
        mesh.write_text(m.to_json())
        status, result = run(command, {"mesh": str(mesh), "lambda": 1.0 / 16, "delta": 0.2,
                                       "finest_n": 16, "levels": 1, "out": str(tmp_path)})
        assert status == 1
        assert "gradients off" in result["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("command", ["classify", "recover"])
    def test_triangle_index_out_of_range(self, tmp_path, command):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        doc["triangles"][0][1] = 99  # 6 vertices
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run(command, {"mesh": str(mesh), "lambda": 1.0 / 16, "delta": 0.2,
                                       "out": str(tmp_path)})
        assert status == 1
        assert "cannot load mesh" in result["error"]

    @pytest.mark.parametrize("command", ["energy", "transform"])
    def test_spin_file_holding_a_list(self, tmp_path, command):
        f = tmp_path / "u.json"
        f.write_text("[1, 2, 3]")
        status, result = run(command, {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == "cannot load spin field: expected a JSON object, got list"

    @pytest.mark.parametrize("key", ["nx", "ny", "lambda", "angles"])
    @pytest.mark.parametrize("command", ["energy", "transform"])
    def test_spin_file_missing_a_key(self, tmp_path, command, key):
        doc = {"nx": 2, "ny": 2, "lambda": 0.1, "angles": [0.1, 0.2, 0.3, 0.4]}
        del doc[key]
        f = tmp_path / "u.json"
        f.write_text(json.dumps(doc))
        status, result = run(command, {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert (status, result) == (1, {"error": f"cannot load spin field: missing key '{key}'"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.json"]

    @pytest.mark.parametrize("key", ["vertices", "triangles", "heights", "domain"])
    def test_mesh_file_missing_a_key(self, tmp_path, key):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        del doc[key]
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert (status, result) == (1, {"error": f"cannot load mesh: missing key '{key}'"})

    def test_mesh_file_holding_a_list(self, tmp_path):
        mesh = tmp_path / "m.json"
        mesh.write_text('[{"domain": {}}]')
        status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert (status, result) == (1, {"error": "cannot load mesh: expected a JSON object, got list"})

    @pytest.mark.parametrize("doc", [
        {"nx": 2, "ny": 2, "lambda": 0.1, "angles": ["0.1", "0.2", "0.3", "0.4"]},
        {"nx": 2, "ny": 2, "lambda": 0.1, "angles": [True, False, True, False]},
        {"nx": 2.7, "ny": 2, "lambda": 0.1, "angles": [0.1, 0.2, 0.3, 0.4]},
        {"nx": "2", "ny": 2, "lambda": 0.1, "angles": [0.1, 0.2, 0.3, 0.4]},
        {"nx": 2, "ny": True, "lambda": 0.1, "angles": [0.1, 0.2]},
        {"nx": 2, "ny": 2, "lambda": "0.5", "angles": [0.1, 0.2, 0.3, 0.4]},
        {"nx": 2, "ny": 2, "lambda": 0.1, "angles": [0.1, None, 0.3, 0.4]},
    ], ids=["string angles", "boolean angles", "fractional nx", "string nx",
            "boolean ny", "string lambda", "null angle"])
    @pytest.mark.parametrize("command", ["energy", "transform"])
    def test_spin_file_with_values_that_are_not_numbers(self, tmp_path, command, doc):
        f = tmp_path / "u.json"
        f.write_text(json.dumps(doc))
        status, result = run(command, {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert status == 1
        assert "cannot load spin field" in result["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.json"]

    @pytest.mark.parametrize("command", ["energy", "transform"])
    def test_spin_file_with_a_boolean_among_numbers(self, tmp_path, command):
        f = tmp_path / "u.json"
        f.write_text('{"nx": 2, "ny": 2, "lambda": 0.1, "angles": [true, 0.5, 0.3, 0.4]}')
        status, result = run(command, {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == ("cannot load spin field: angles must hold JSON numbers only, "
                                   "not booleans")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.json"]

    @pytest.mark.parametrize("key", ["vertices", "heights"])
    def test_mesh_with_a_boolean_among_numbers(self, tmp_path, key):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        if key == "vertices":
            doc["vertices"][0][1] = False  # (0.0, 0.0) reads the same with a boolean
        else:
            doc["heights"][-1] = True
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == f"cannot load mesh: {key} must hold JSON numbers only, not booleans"

    @pytest.mark.parametrize("change", ["string vertices", "string width"])
    def test_mesh_with_values_that_are_not_numbers(self, tmp_path, change):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        if change == "string vertices":
            doc["vertices"] = [[str(x), str(y)] for x, y in doc["vertices"]]
        else:
            doc["domain"]["width"] = "1.0"
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run("classify", {"mesh": str(mesh), "out": str(tmp_path)})
        assert status == 1
        assert "cannot load mesh" in result["error"]

    @pytest.mark.parametrize("command, name, config", [
        ("groundstate", "groundstate.json", {"n": 4, "lambda": 0.05, "delta": 0.2}),
        ("energy", "energy.csv", {"in": "u.json", "delta": 0.3, "format": "csv"}),
        ("transform", "chirality.json", {"in": "u.json", "delta": 0.3}),
        ("classify", "mesh.svg", {"kind": "four_quadrant", "format": "svg"}),
        ("recover", "recovery_spin.json", {"kind": "vertical_wall", "lambda": 1.0 / 16,
                                           "delta": 0.2}),
        ("sweep", "sweep.csv", {"kind": "vertical_wall", "finest_n": 16, "levels": 2}),
        ("minimize", "minimize_psi.json", {"n": 8, "lambda": 0.04, "delta": 0.2,
                                           "max_iter": 5}),
        ("profile1d", "profile1d.json", {}),
    ])
    def test_artefact_name_taken_by_a_directory(self, tmp_path, command, name, config):
        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(np.zeros((4, 4)), 0.1).to_json())
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        if "in" in config:
            config = {**config, "in": str(f)}
        status, result = run(command, {**config, "out": str(out)})
        assert status == 1
        assert result["error"].startswith(f"cannot write {out / name}: ")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_minimize_iteration_cap_below_one(self, tmp_path, cap):
        status, result = run("minimize", {"n": 30, "lambda": 0.04, "delta": 0.2,
                                          "max_iter": cap, "out": str(tmp_path)})
        assert status == 1
        assert "max_iter" in result["error"]
        assert not (tmp_path / "minimize_report.json").exists()

    def test_groundstate_non_finite_lambda(self, tmp_path):
        status, result = run("groundstate", {"n": 4, "lambda": math.inf, "delta": 0.2,
                                             "out": str(tmp_path)})
        assert status == 1
        assert "model parameters" in result["error"]
        assert not (tmp_path / "groundstate.json").exists()

    @pytest.mark.parametrize("command, config", [
        ("energy", {}),
        ("minimize", {"n": 8, "lambda": 0.05}),
        ("recover", {"kind": "vertical_wall", "lambda": 0.0625}),
    ])
    def test_delta_whose_prefactor_underflows(self, tmp_path, command, config):
        # delta ** 1.5 is 0.0, so the energy prefactor would divide by zero
        main(["groundstate", "--delta", "0.2", "--lambda", "0.05", "--n", "4",
              "--out", str(tmp_path)])
        config = {"in": str(tmp_path / "groundstate.json"), **config}
        status, result = run(command, {**config, "delta": 1e-300, "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == "bad model parameters: the energy prefactor is not finite"

    def test_minimize_lambda_whose_plane_prefactor_overflows(self, tmp_path):
        # profile_init would make NaN angles from lam * n overflowing
        status, result = run("minimize", {"lambda": 1e308, "delta": 0.5, "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == "bad model parameters: the energy prefactor is not finite"
        assert not (tmp_path / "minimize_report.json").exists()

    def test_recover_lattice_size_not_finite(self, tmp_path):
        status, result = run("recover", {"kind": "vertical_wall", "lambda": 1e-320,
                                         "delta": 0.5, "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == "lattice size is not finite"

    def test_sweep_step_whose_prefactor_underflows(self, tmp_path):
        # lam * delta ** 1.5 is 0.0: the row's energy would be NaN
        sched = tmp_path / "schedule.json"
        sched.write_text(json.dumps([[0.0625, 1e-210]]))
        status, result = run("sweep", {"kind": "vertical_wall", "schedule": str(sched),
                                       "out": str(tmp_path)})
        assert status == 1
        assert result["error"] == "bad model parameters: the energy prefactor is not finite"
        assert not (tmp_path / "sweep.csv").exists()

    def test_lattice_too_large_to_allocate(self, tmp_path):
        # the (2, n, n) index grid would take 1.4 PiB, more than a process
        # can map, so numpy refuses it before touching any memory
        status, result = run("groundstate", {"lambda": 0.01, "delta": 0.1, "n": 10**7,
                                             "out": str(tmp_path)})
        assert status == 1
        assert result["error"].startswith("out of memory: ")
        assert not (tmp_path / "groundstate.json").exists()

    @pytest.mark.parametrize("command", ["classify", "recover"])
    @pytest.mark.parametrize("mesh", ["list", "path_list"])
    def test_mesh_that_is_a_list(self, tmp_path, command, mesh):
        f = tmp_path / "m.json"
        f.write_text("[1, 2, 3]")
        path = str(f) if mesh == "list" else [str(f)]
        status, result = run(command, {"mesh": path, "lambda": 1.0 / 16, "delta": 0.2,
                                       "out": str(tmp_path)})
        assert status == 1
        assert "cannot load mesh" in result["error"]

    @pytest.mark.parametrize("command", ["classify", "recover"])
    @pytest.mark.parametrize("key, value", [
        ("triangles", 0.7), ("heights", math.nan), ("vertices", math.inf),
    ])
    def test_mesh_values(self, tmp_path, command, key, value):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        row = doc[key] if key == "heights" else doc[key][0]
        row[1] = value  # 0.7 would truncate to vertex 0
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run(command, {"mesh": str(mesh), "lambda": 1.0 / 16, "delta": 0.2,
                                       "out": str(tmp_path)})
        assert status == 1
        assert "cannot load mesh" in result["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("command", ["classify", "recover"])
    def test_boolean_in_mesh_triangles(self, tmp_path, command):
        from helimag.continuum import build_example

        doc = json.loads(build_example("vertical_wall").to_json())
        doc["triangles"][0][1] = True  # [0, true, 3] would read as vertex 1
        mesh = tmp_path / "m.json"
        mesh.write_text(json.dumps(doc))
        status, result = run(command, {"mesh": str(mesh), "lambda": 1.0 / 16, "delta": 0.2,
                                       "out": str(tmp_path)})
        assert status == 1
        assert result["error"].startswith("cannot load mesh: triangles ")

    @pytest.mark.parametrize("command, key, config", [
        ("groundstate", "pair", {"n": 4, "lambda": 0.05, "delta": 0.2}),
        ("minimize", "bc", {"n": 8, "lambda": 0.04, "delta": 0.2}),
    ])
    def test_sign_pair_that_is_a_list(self, tmp_path, command, key, config):
        status, result = run(command, {**config, key: ["+", "-"], "out": str(tmp_path)})
        assert status == 1
        assert result["error"].startswith(f"{key} must be one of")

    @pytest.mark.parametrize("text", ['{"nx": 2, "ny": 1, "lambda": 0.1, "angles": [0.0, NaN]}',
                                      '{"nx": 2, "ny": 1, "lambda": 0.1, "angles": [0.0, 1e400]}'])
    def test_spin_file_with_a_non_finite_angle(self, tmp_path, text):
        f = tmp_path / "u.json"
        f.write_text(text)
        status, result = run("energy", {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert status == 1
        assert "cannot load spin field" in result["error"]

    @pytest.mark.parametrize("command, work, config", [
        ("sweep", "gamma_sweep", {"kind": "laminate", "n_walls": 8, "finest_n": 64,
                                  "levels": 3}),
        ("recover", "build_recovery", {"kind": "vertical_wall", "lambda": 1.0 / 16,
                                       "delta": 0.2}),
        ("minimize", "minimize_H", {"n": 30, "lambda": 0.04, "delta": 0.2}),
        ("classify", "jump_set", {"kind": "laminate"}),
        ("groundstate", "SpinField", {"n": 4, "lambda": 0.05, "delta": 0.2}),
        ("profile1d", "profile_transition_energy", {}),
    ])
    def test_output_directory_checked_before_the_work(self, tmp_path, monkeypatch,
                                                      command, work, config):
        from helimag import cli, continuum

        # a mesh computes its jump set in continuum, on first use
        owner = continuum if work == "jump_set" else cli
        monkeypatch.setattr(owner, work, lambda *a, **k: pytest.fail(f"{work} ran"))
        taken = tmp_path / "taken"
        taken.write_text("")
        status, result = run(command, {**config, "out": str(taken)})
        assert status == 1
        assert "output directory" in result["error"]

    @pytest.mark.parametrize("command, work", [("energy", "energy_H"),
                                               ("transform", "transform")])
    def test_field_output_directory_checked_before_the_work(self, tmp_path, monkeypatch,
                                                            command, work):
        from helimag import cli

        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(np.zeros((4, 4)), 0.1).to_json())
        monkeypatch.setattr(cli, work, lambda *a, **k: pytest.fail(f"{work} ran"))
        taken = tmp_path / "taken"
        taken.write_text("")
        status, result = run(command, {"in": str(f), "delta": 0.3, "out": str(taken)})
        assert status == 1
        assert "output directory" in result["error"]

    @pytest.mark.parametrize("nx, ny", [(0, 0), (3, 0)])
    def test_energy_on_an_empty_spin_file(self, tmp_path, nx, ny):
        f = tmp_path / "u.json"
        f.write_text(json.dumps({"nx": nx, "ny": ny, "lambda": 0.1, "angles": [0.0] * (nx * ny)}))
        status, result = run("energy", {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert (status, result) == (1, {"error": "domain width and height must be positive"})

    @pytest.mark.parametrize("nx, ny", [(5, 1), (1, 4)])
    def test_energy_on_a_spin_file_of_one_row_or_column(self, tmp_path, nx, ny):
        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(np.zeros((ny, nx)), 0.1).to_json())
        status, result = run("energy", {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert (status, result) == (1, {"error": (
            f"energy needs a spin field of at least 2x2 sites; {f} holds {ny}x{nx} "
            "(rows x columns)")})

    @pytest.mark.parametrize("command, delta, status, warned", [
        ("energy", 1e-300, 1, False), ("energy", 1e-3, 0, True), ("sweep", 1e-210, 1, False),
    ])
    def test_regime_warning_only_for_accepted_parameters(self, tmp_path, command, delta,
                                                         status, warned):
        # epsilon = lam / sqrt(2 delta) >= 1 in every case; at the smaller
        # deltas the energy prefactor is not finite and the input is rejected
        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(np.zeros((4, 4)), 0.1).to_json())
        sched = tmp_path / "schedule.json"
        sched.write_text(json.dumps([[0.0625, delta]]))
        config = {"in": str(f), "delta": delta, "kind": "vertical_wall",
                  "schedule": str(sched), "out": str(tmp_path / "o")}
        src = str(Path(helimag.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             f"from helimag.cli import run; print(run({command!r}, {config!r})[0])"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])])},
        )
        assert proc.stdout.strip() == str(status)
        assert ("UserWarning: epsilon = lam/sqrt(2*delta) >= 1" in proc.stderr) is warned
        assert warned or proc.stderr == ""

    def test_any_value_error_of_a_layer_is_status_1(self, tmp_path, monkeypatch):
        from helimag import cli

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "energy_H", boom)
        f = tmp_path / "u.json"
        f.write_text(SpinField.from_angles(np.zeros((4, 4)), 0.1).to_json())
        status, result = run("energy", {"in": str(f), "delta": 0.3, "out": str(tmp_path)})
        assert (status, result) == (1, {"error": "boom"})

    @pytest.mark.parametrize("n_walls", [1e300, 2**20])
    def test_laminate_strips_narrower_than_the_snap_grid(self, tmp_path, n_walls):
        # 1e300 walls would build a list of 1e300 breakpoints; at 2**20 the
        # snapped breakpoints of the unit domain collide
        status, result = run("classify", {"kind": "laminate", "n_walls": n_walls,
                                          "out": str(tmp_path)})
        assert status == 1
        assert result["error"].startswith("laminate strips must be at least 1/1048576 wide")

    @pytest.mark.parametrize("out", ["existing_file", "list"])
    def test_unusable_output_directory(self, tmp_path, out):
        taken = tmp_path / "taken"
        taken.write_text("")
        status, result = run("groundstate", {
            "n": 4, "lambda": 0.05, "delta": 0.2,
            "out": str(taken) if out == "existing_file" else [str(tmp_path / "o")],
        })
        assert status == 1
        assert "output directory" in result["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_transform_memory_peak(tmp_path):
    # traced allocation peak of one 256x256 transform request over the
    # memory live before it: reading the field, the transform and writing
    # the two grids, which are encoded ENCODE_CHUNK values at a time
    rng = np.random.default_rng(17)
    f = tmp_path / "u.json"
    SpinField.from_angles(rng.uniform(-np.pi, np.pi, (256, 256)), 1.0 / 256).write_json(f)
    tracemalloc.start()
    try:
        status, _ = run("transform", {"in": str(f), "delta": 0.2, "out": str(tmp_path)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 6 * 2 ** 20
