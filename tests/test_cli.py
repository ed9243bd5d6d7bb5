import json

import pytest

from quiltlab import cli
from quiltlab.cli import main


def test_catalog_lists_ids(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "floer.cp2.u0.pp" in out
    assert "quilt.acw.plus" in out


def test_catalog_instantiates_families(capsys):
    assert main(["catalog", "--h", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "quilt.const.h0.7.pm" in out
    assert "quilt.maslov1.h0.7.v0.p.fplus" in out


def test_verify_acw_passes_and_reports(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--quilt", "quilt.acw.plus",
                 "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["pass"] is True
    assert abs(payload["total_area"] - 0.5) <= 1e-6


def test_verify_tamper_negative_control(capsys):
    code = main(["verify", "--quilt", "quilt.acw.plus",
                 "--tamper", "seam+0.01"])
    assert code == 1


def test_verify_unknown_id_is_usage_error(capsys):
    assert main(["verify", "--quilt", "quilt.nonexistent"]) == 2
    assert main(["verify"]) == 2


@pytest.mark.parametrize("argv", [
    ["area", "--quilt", "nope"],
    ["verify", "--quilt", "floer.cp2."],
    ["verify", "--quilt", "quilt.const.h2.0.pp"],
    ["area", "--quilt", "floer.cp2.u0.ppX"],
    ["verify", "--quilt", "quilt.maslov1.h0.7.v0.p.fxyz"],
    ["catalog", "--h", "0"],
    ["sweep", "--family", "const", "--h-grid", "0.5,2.0"],
    ["sweep", "--h-grid", "0.5,x"],
    ["moment-plot", "--grid", "-5"],
    ["moment-plot", "--grid", "0"],
    ["verify", "--quilt", "quilt.acw.plus", "--samples", "-3"],
    ["verify", "--quilt", "quilt.acw.plus", "--samples", "0"],
    ["verify", "--quilt", "quilt.acw.plus", "--samples", "160"],
])
def test_bad_input_exits_2_with_one_line(argv, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started before the grid was checked")
    monkeypatch.setattr(cli, "sweep_family", no_sweep)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_bad_tamper_spec_is_usage_error(capsys):
    assert main(["verify", "--quilt", "quilt.acw.plus",
                 "--tamper", "wat"]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quilt": "quilt.acw.minus", "h": 0.5}))
    code = main(["--config", str(cfg), "verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "quilt.acw.minus" in out
    # flags override the file
    code = main(["--config", str(cfg), "verify",
                 "--quilt", "quilt.acw.plus"])
    assert code == 0
    out = capsys.readouterr().out
    assert "quilt.acw.plus" in out


def test_config_file_rejects_unknown_keys(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started before the family was checked")
    monkeypatch.setattr(cli, "sweep_family", no_sweep)
    cfg = tmp_path / "cfg.json"
    for values, command in (
            ({"nope": 1}, "catalog"),
            ({"h": "abc"}, "catalog"),
            ({"family": "bogus", "h_grid": [0.5]}, "sweep"),
            ({"samples": "abc", "quilt": "quilt.acw.plus"}, "verify"),
            ({"tol_seam": 1e-3, "quilt": "quilt.acw.plus"}, "verify"),
            ({"samples": True, "quilt": "quilt.acw.plus"}, "verify"),
            ({"quilt": 7}, "verify"),
            ({"grid": "x"}, "moment-plot"),
            ({"samples": -3, "quilt": "quilt.acw.plus"}, "verify"),
            ({"grid": 0}, "moment-plot"),
            ({"samples": 160, "quilt": "quilt.acw.plus"}, "verify"),
            ({"grid": 100, "quilt": "quilt.acw.plus"}, "verify"),
            ({"report": 5, "quilt": "quilt.acw.plus"}, "verify")):
        cfg.write_text(json.dumps(values))
        assert main(["--config", str(cfg), command]) == 2, values
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_config_file_accepts_typed_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quilt": "quilt.acw.plus", "h": 0.5,
                               "report": None}))
    assert main(["--config", str(cfg), "verify"]) == 0


def test_floer_command(capsys):
    assert main(["floer", "--side", "cp2"]) == 0
    out = capsys.readouterr().out
    assert "squares to identity with 12 strips: True" in out
    assert main(["floer", "--side", "cp1"]) == 0
    out = capsys.readouterr().out
    assert "squares to zero with 8 strips: True" in out


def test_area_command(capsys):
    assert main(["area", "--quilt", "floer.cp2.u0.pp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["total"] - 0.5) <= 1e-5


def test_moment_plot_writes_artifacts(tmp_path, capsys):
    code = main(["moment-plot", "--grid", "80", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "figure.svg").exists()
    assert (tmp_path / "figure_lambda.csv").exists()


def test_moment_plot_takes_no_quilt():
    assert main(["moment-plot", "--quilt", "quilt.acw.plus"]) == 2


def test_moment_plot_csv_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["moment-plot", "--grid", "60", "--out", str(out1)]) == 0
    assert main(["moment-plot", "--grid", "60", "--out", str(out2)]) == 0
    for name in ("figure_lambda.csv", "figure_u2_right_edge.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eight_command(capsys):
    assert main(["eight"]) == 0
    out = capsys.readouterr().out
    assert "quilt.acw.plus" in out and "quilt.acw.minus" in out
    assert "pass=True" in out
