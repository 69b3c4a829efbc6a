import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fracgaussiso.cli import _COMMANDS, build_parser, main, parse_set
from fracgaussiso.errors import SetParseError
from fracgaussiso.sets import GaussianSet, halfline


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "fracgaussiso"] + args,
                          capture_output=True, text=True, **kw)


def test_parse_set_halfline():
    assert parse_set("(-inf,0)") == halfline(0.0)


def test_parse_set_merge():
    assert parse_set("(0,1)|(1,2)") == GaussianSet.from_intervals([(0.0, 2.0)])


def test_parse_set_whitespace():
    assert parse_set(" ( -1 , 0.5 ) | ( 1 , inf ) ") == \
        GaussianSet.from_intervals([(-1.0, 0.5), (1.0, math.inf)])


def test_parse_set_inverted_offset():
    with pytest.raises(SetParseError) as exc:
        parse_set("(2,1)")
    assert exc.value.offset == 1


def test_parse_set_malformed():
    with pytest.raises(SetParseError) as exc:
        parse_set("(0,1)|x")
    assert exc.value.offset == 6
    with pytest.raises(SetParseError):
        parse_set("(0 1)")


def test_parse_roundtrip():
    E = GaussianSet.from_intervals([(-math.inf, -1.0), (0.25, 2.0)])
    assert parse_set(str(E)) == E


def test_main_perimeter_inprocess(capsys):
    code = main(["perimeter", "--set", "(-inf,0)", "--s", "0.5", "--K", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# frac-gauss-iso v1, convention=with_constant\n")
    lines = out.strip().splitlines()
    header = next(csv.reader([lines[1]]))
    row = next(csv.reader([lines[2]]))
    assert header[:2] == ["set", "s"]
    assert float(row[header.index("value")]) > 0.0


def test_main_deficit_zero_for_halfline(capsys):
    code = main(["deficit", "--set", "(-inf,0)", "--s", "0.5", "--K", "500"])
    out = capsys.readouterr().out
    assert code == 0
    header = next(csv.reader([out.strip().splitlines()[1]]))
    row = next(csv.reader([out.strip().splitlines()[2]]))
    deficit = float(row[header.index("deficit")])
    assert abs(deficit) < 1e-12


def test_main_json_format(capsys):
    code = main(["asymmetry", "--set", "(0,1)", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["set"] == "(0.0,1.0)"
    assert 0.0 < rows[0]["asym"] < 2.0


def test_main_parse_error_exit_code(capsys):
    code = main(["perimeter", "--set", "(2,1)", "--s", "0.5"])
    assert code == 2


def test_main_missing_set(capsys):
    code = main(["perimeter", "--s", "0.5"])
    assert code == 2


def test_main_bad_convention_grid(capsys):
    code = main(["perimeter", "--set", "(0,1)", "--s-grid", "bad"])
    assert code == 2


def test_asymptotic_convention(capsys):
    code = main(["asymptotic", "--s-grid", "0.9", "--K", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# frac-gauss-iso v1, convention=remark\n")
    for conv in ("remark", "with-constant"):
        with pytest.raises(SystemExit) as exc:
            main(["asymptotic", "--convention", conv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"set": "(0,1)", "s": 0.5, "K": 300}))
    code = main(["perimeter", "--config", str(cfg)])
    out1 = capsys.readouterr().out
    assert code == 0
    assert ",300," in out1
    # flag overrides the file
    code = main(["perimeter", "--config", str(cfg), "--K", "200"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert ",200," in out2


@pytest.mark.parametrize("cfg, key", [
    ({"set": "(0,1)", "c": 9}, "'c'"),
    ({"set": "(0,1)", "K": None}, "'K'"),
    ({"set": "(0,1)", "format": "xml"}, "'format'"),
    ({"set": "(0,1)", "convention": "bogus"}, "'convention'"),
])
def test_config_key_errors(tmp_path, capsys, cfg, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["perimeter", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("spelling", ["with-constant", "with_constant", "remark"])
def test_config_convention_spellings(tmp_path, capsys, spelling):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"set": "(0,1)", "K": 300, "convention": spelling}))
    assert main(["perimeter", "--config", str(path)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"# frac-gauss-iso v1, convention={spelling.replace('-', '_')}"


@pytest.mark.parametrize("argv", [
    ["asymmetry", "--set", "(0,1)", "--K", "5"],
    ["extension-eval", "--set", "(0,1)", "--s-grid", "0.25:0.75:0.25"],
    ["asymptotic", "--s", "0.5"],  # would abbreviate --s-grid
    ["deficit", "--set", "(0,1)", "--seed", "3"],
    ["verify", "--s-grid", "0.5"],
    ["perimeter", "--se", "(0,1)"],  # an abbreviation of --set
    ["perimeter", "--set", "(0,1)", "--conv", "remark"],  # of --convention
])
def test_unread_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "main", "--n", "0"],
    ["verify", "--suite", "levelset", "--n", "-4"],
])
def test_verify_needs_cases(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def _readme_cli_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## CLI", 1)[1].split("\n## ", 1)[0]


def test_readme_examples_parse():
    lines = [line for line in _readme_cli_section().splitlines()
             if line.startswith("frac-gauss-iso ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_lists_each_commands_options():
    section = _readme_cli_section()
    for name, cmd in _COMMANDS.items():
        opts = " ".join(f"`{k}`" if v is None else f"`{k}={v}`"
                        for k, v in cmd.options.items())
        assert f"| `{name}` | {opts} |" in section


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code = main(["perimeter", "--set", "(0,1)", "--s", "0.5", "--K", "200",
                 "--out", str(path)])
    assert code == 0
    assert path.read_text().startswith("# frac-gauss-iso v1")


def test_sweep(capsys):
    code = main(["sweep", "--r-grid", "0:1:0.5", "--s", "0.5", "--K", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 3  # header, columns, 3 rows


def test_extension_eval(capsys):
    code = main(["extension-eval", "--set", "(0,1)", "--s", "0.5", "--K", "500",
                 "--x", "0.5,3.0", "--z", "0.2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [next(csv.reader([line])) for line in out.strip().splitlines()[2:]]
    v_in = float(rows[0][-1])
    v_out = float(rows[1][-1])
    assert v_in > v_out


def test_verify_determinism_small():
    r1 = run_cli(["verify", "--suite", "transfer", "--n", "20", "--seed", "3"])
    r2 = run_cli(["verify", "--suite", "transfer", "--n", "20", "--seed", "3"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_verify_unknown_suite():
    r = run_cli(["verify", "--suite", "bogus"])
    assert r.returncode == 2
