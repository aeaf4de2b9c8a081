import json

import numpy as np
import pytest

from warpfill.cli import main
from warpfill.filling_topology import axis_filling, filling_to_json_dict
from warpfill.model_spaces import LatticeTorus
from warpfill.numerics import Const
from warpfill.warp_engine import WarpedSpace, space_to_json_dict


@pytest.fixture()
def h2_file(tmp_path, h2_space):
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(space_to_json_dict(h2_space)))
    return str(path)


@pytest.fixture()
def flat_file(tmp_path):
    flat = WarpedSpace(interval=(-3.0, 3.0), euclid_dim=1, warp_g=Const(1.0))
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(space_to_json_dict(flat)))
    return str(path)


@pytest.fixture()
def fg_file(tmp_path, fg_space):
    path = tmp_path / "fg.json"
    path.write_text(json.dumps(space_to_json_dict(fg_space)))
    return str(path)


def filling_file(tmp_path, n, dims, side=7.0, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(filling_to_json_dict(axis_filling(n, dims, side))))
    return str(path)


class TestWarpBuild:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["warp-build", "--lambda", "1.6", "--delta0", "0.2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["command"] == "warp-build"
        assert doc["results"]["kappa_floor"] > 0
        assert 0 < doc["results"]["delta"] < doc["results"]["delta0"]
        assert capsys.readouterr().out == ""

    def test_stdout_default(self, capsys):
        rc = main(["warp-build", "--lambda", "0.8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["lambda"] == 0.8

    def test_csv_table(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["warp-build", "--lambda", "1.6", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:1] == ["r"]
        assert len(lines) > 100

    def test_csv_requires_out(self, capsys):
        assert main(["warp-build", "--lambda", "1.6", "--format", "csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_and_atomic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["warp-build", "--lambda", "1.6", "--out", str(a)])
        main(["warp-build", "--lambda", "1.6", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".warpfill-")]
        assert leftovers == []


class TestGeodesic:
    def test_h2_distance(self, h2_file, tmp_path):
        out = tmp_path / "geo.json"
        rc = main([
            "geodesic", "--space", h2_file,
            "--from", "[0, 0]", "--to", "[0, 1]",
            "--samples", "16", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["results"]["distance"] == pytest.approx(np.arccosh(1.5), abs=1e-3)

    def test_named_point_form(self, h2_file, capsys):
        rc = main([
            "geodesic", "--space", h2_file,
            "--from", '{"r": 0.0, "e": [0.0]}', "--to", '{"r": 1.0, "e": [0.0]}',
            "--samples", "8",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["distance"] == pytest.approx(1.0, abs=1e-6)

    def test_wrong_arity_is_input_error(self, h2_file, capsys):
        rc = main(["geodesic", "--space", h2_file, "--from", "[0]", "--to", "[0, 1]"])
        assert rc == 2
        assert "coordinates" in capsys.readouterr().err

    def test_missing_space_file(self, capsys):
        rc = main(["geodesic", "--space", "/nonexistent.json", "--from", "[0,0]", "--to", "[0,1]"])
        assert rc == 2

    @pytest.mark.parametrize("point", [
        '{"r": [1], "e": [0]}',
        "5",
        "[true, 0]",
        '{"r": 1, "e": [0], "bogus": 3}',
    ], ids=["r_list", "bare_number", "bool_coordinate", "extra_key"])
    def test_malformed_point_is_input_error(self, h2_file, capsys, point):
        rc = main(["geodesic", "--space", h2_file, "--from", point, "--to", "[0, 1]", "--samples", "8"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestCatTest:
    def test_h2_passes(self, h2_file, tmp_path):
        out = tmp_path / "cat.json"
        rc = main([
            "cat-test", "--space", h2_file, "--kappa", "-1",
            "--samples", "2", "--box", "[[-0.5, 0.5], [-0.5, 0.5]]",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["max_violation"] <= 2e-4
        assert len(doc["results"]["triangles"]) == 2

    def test_flat_fails_minus_one(self, flat_file):
        rc = main([
            "cat-test", "--space", flat_file, "--kappa", "-1",
            "--samples", "2", "--box", "[[-1.0, 1.0], [-1.0, 1.0]]",
        ])
        assert rc == 1

    def test_box_without_room_is_input_error(self, h2_file, capsys):
        rc = main(["cat-test", "--space", h2_file, "--kappa", "-1",
                   "--samples", "1", "--box", "[[1, 1], [0, 0]]"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_deterministic_per_seed(self, h2_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "cat-test", "--space", h2_file, "--kappa", "-1",
            "--samples", "1", "--box", "[[-0.4, 0.4], [-0.4, 0.4]]", "--seed", "7",
        ]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCurvatureScan:
    def test_fg_scan_json(self, fg_file, tmp_path):
        out = tmp_path / "scan.json"
        rc = main([
            "curvature-scan", "--space", fg_file,
            "--grid", "0.05:2.55:101", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["empirical_kappa"] > 0
        assert doc["results"]["fd_checks_ok"] is True

    def test_csv_output(self, fg_file, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main([
            "curvature-scan", "--space", fg_file,
            "--grid", "1.9:2.5:11", "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12

    def test_bad_grid_is_input_error(self, fg_file):
        assert main(["curvature-scan", "--space", fg_file, "--grid", "bogus"]) == 2


class TestFkCheck:
    def test_cosh_passes(self, tmp_path):
        data = tmp_path / "cosh.csv"
        ts = np.linspace(0, 2, 60)
        data.write_text("".join(f"{t},{np.cosh(t)}\n" for t in ts))
        rc = main(["fk-check", "--data", str(data), "--kappa", "-1", "--window", "0.3"])
        assert rc == 0

    def test_sin_fails(self, tmp_path, capsys):
        data = tmp_path / "sin.csv"
        ts = np.linspace(0.1, 3.0, 60)
        data.write_text("# t,u\n" + "".join(f"{t},{np.sin(t)}\n" for t in ts))
        rc = main(["fk-check", "--data", str(data), "--kappa", "-1", "--window", "0.3"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["violations"]

    def test_missing_file(self):
        assert main(["fk-check", "--data", "/nope.csv", "--kappa", "0"]) == 2


class TestFillingAnalyze:
    def test_passing_spec(self, tmp_path, capsys):
        spec = filling_file(tmp_path, 3, [1, 2])
        out = tmp_path / "inv.json"
        rc = main(["filling-analyze", "--spec", spec, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["s"] == 2
        assert doc["results"]["group_cohomology"] == {"3": "INFINITE", "4": 1}
        assert "n = 3" in capsys.readouterr().err

    def test_short_systole_fails(self, tmp_path):
        spec = filling_file(tmp_path, 2, [1], side=6.0)
        assert main(["filling-analyze", "--spec", spec]) == 1

    def test_schedule_adds_shells(self, tmp_path, capsys):
        spec = filling_file(tmp_path, 3, [2])
        sched = tmp_path / "sched.json"
        sched.write_text("[[0], [0]]")
        rc = main(["filling-analyze", "--spec", spec, "--schedule", str(sched)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]["shells"]) == 2
        assert doc["results"]["shell_colimit"]["2"] == "INFINITE"

    def test_fractional_coefficients_are_input_error(self, tmp_path, capsys):
        spec = tmp_path / "frac.json"
        doc = filling_to_json_dict(axis_filling(2, [1]))
        doc["cusps"][0]["filling_coeffs"] = [[1.5, 0]]
        spec.write_text(json.dumps(doc))
        assert main(["filling-analyze", "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_finite_basis_is_input_error(self, tmp_path, capsys):
        spec = tmp_path / "nan.json"
        doc = filling_to_json_dict(axis_filling(2, [1]))
        doc["cusps"][0]["basis"][0][0] = float("nan")
        spec.write_text(json.dumps(doc))
        assert "NaN" in spec.read_text()
        assert main(["filling-analyze", "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["filling-analyze", "--spec", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


H2_DOC = {"interval": [-6.0, 6.0], "euclid_dim": 1, "torus": None, "warp_f": None,
          "warp_g": {"analytic": "exp_shift", "params": {"shift": 0.0}}}
FILLING_DOC = filling_to_json_dict(axis_filling(3, [1]))


def _piece(warp, kind):
    """The first piece of ``kind`` in a warp-function document."""
    return next(piece for piece in warp["pieces"] if piece["kind"] == kind)


# edits that make fg_space's warp_g document malformed
FG_WARP_EDITS = {
    "delta_string": lambda w: w.update(delta="0.1"),
    "lambda_null": lambda w: w.update({"lambda": None}),
    "kappa_floor_string": lambda w: w.update(kappa_floor="x"),
    "splice_eps_string": lambda w: _piece(w, "mollified_splice").update(eps="0.01"),
    "splice_extra_key": lambda w: _piece(w, "mollified_splice").update(bogus=1.0),
    "shift_bool": lambda w: _piece(w, "exp_shift").update(shift=True),
    "shift_string": lambda w: _piece(w, "exp_shift").update(shift="1.0"),
    "ellipse_arc_extra_key": lambda w: _piece(w, "ellipse_arc").update(bogus=1.0),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("flag, doc", [
        ("--space", {**H2_DOC, "interval": 5}),
        ("--space", {**H2_DOC, "warp_g": 3}),
        ("--space", {**H2_DOC, "warp_g": {"analytic": "exp_shift", "params": {"bogus": 1}}}),
        ("--space", {**H2_DOC, "euclid_dim": 1.5}),
        ("--space", {**H2_DOC, "warp_g": {"version": 1, "pieces": 5}}),
        ("--space", {**H2_DOC, "warp_g": {"version": 1, "pieces": [
            {"kind": "ellipse_arc", "interval": 5, "affine_map": [[1, 0, 0], [0, 1, 0]],
             "convexity_floor": 0.1}]}}),
        ("--spec", {**FILLING_DOC, "cusps": 5}),
        ("--spec", []),
        ("--spec", {**FILLING_DOC, "n": 3.7}),
        ("--spec", {**FILLING_DOC, "n": "3"}),
    ], ids=["interval", "warp_g", "params", "euclid_dim", "pieces", "piece_interval", "cusps", "top_level_list", "n_float", "n_string"])
    def test_is_input_error(self, tmp_path, capsys, flag, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        if flag == "--space":
            argv = ["geodesic", "--space", str(path), "--from", "[0, 0]", "--to", "[0, 1]", "--samples", "8"]
        else:
            argv = ["filling-analyze", "--spec", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("edit", FG_WARP_EDITS.values(), ids=FG_WARP_EDITS.keys())
    def test_warp_function_is_input_error(self, tmp_path, capsys, fg_space, edit):
        doc = space_to_json_dict(fg_space)
        edit(doc["warp_g"])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["geodesic", "--space", str(path), "--from", "[1, 0, 0]", "--to", "[1.2, 0.3, 2]", "--samples", "8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["warp-build"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["warp-build", "--lambda", "1.6", "--seed", "3"],
        ["geodesic", "--space", "s.json", "--from", "[0, 0]", "--to", "[0, 1]", "--seed", "3"],
        ["geodesic", "--space", "s.json", "--from", "[0, 0]", "--to", "[0, 1]", "--format", "csv"],
        ["cat-test", "--space", "s.json", "--kappa", "-1", "--format", "csv"],
        ["fk-check", "--data", "d.csv", "--kappa", "-1", "--seed", "3"],
        ["fk-check", "--data", "d.csv", "--kappa", "-1", "--format", "csv"],
        ["filling-analyze", "--spec", "f.json", "--seed", "3"],
        ["filling-analyze", "--spec", "f.json", "--format", "csv"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_command_does_not_use_is_rejected(self, argv, capsys):
        # --seed goes only to the sampling commands and --format only to the
        # ones with a CSV form; anywhere else it would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
