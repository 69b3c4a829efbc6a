import ast
import csv
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fracgaussiso import cli, sets
from fracgaussiso.cli import _COMMANDS, build_parser, main
from fracgaussiso.errors import SetParseError
from fracgaussiso.extension import evaluate_extension, extension_field
from fracgaussiso.sets import GaussianSet, halfline, parse_set
from fracgaussiso.spectral import halfline_perimeter
from fracgaussiso.suites import SUITES


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


def test_the_cli_reads_sets_with_the_one_reader_in_sets():
    assert cli.parse_set is sets.parse_set
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for a in node.names}
    assert not names & {"re", "SetParseError"} and not hasattr(cli, "_BOUND_RE")


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


def test_deficit_of_the_whole_line_names_the_measure_and_no_function(capsys):
    assert main(["deficit", "--set", "(-inf,inf)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "measure in (0, 1), got 1.0" in err and "verify_main" not in err


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
    code = main(["asymptotic", "--s-grid", "0.9"])
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
    if "c" in cfg:  # a key perimeter does not read
        assert main(["perimeter", "--config", str(path)]) == 2
    else:  # a bad value, which argparse reports as it reports its flag
        with pytest.raises(SystemExit) as exc:
            main(["perimeter", "--config", str(path)])
        assert exc.value.code == 2
        key = "--" + key.strip("'")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


def test_config_values_are_read_as_their_flags_text(tmp_path, capsys):
    path = tmp_path / "run.json"
    for command, cfg, flag in [("perimeter", {"set": "(0,1)", "K": 2.9}, "--K"),
                               ("perimeter", {"set": "(0,1)", "K": True}, "--K"),
                               ("extension-eval", {"set": "(0,1)", "z": False}, "--z"),
                               ("verify", {"n": 1.7}, "--n")]:
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
    for K in ("300", 300):
        path.write_text(json.dumps({"set": "(0,1)", "s": 0.5, "K": K}))
        assert main(["perimeter", "--config", str(path)]) == 0
        assert ",300," in capsys.readouterr().out
    assert main(["perimeter", "--set", "(0,1)", "--K", "300",
                 "--convention", "with_constant"]) == 0
    assert capsys.readouterr().out.startswith("# frac-gauss-iso v1, convention=with_constant\n")


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
    ["asymptotic", "--K", "1000"],  # the profile has no truncation
    ["sweep", "--K", "10"],  # nor has sweep's
    ["deficit", "--set", "(0,1)", "--seed", "3"],
    ["verify", "--s-grid", "0.5"],
    ["perimeter", "--se", "(0,1)"],  # an abbreviation of --set
    ["perimeter", "--set", "(0,1)", "--conv", "remark"],  # of --convention
    ["extension-eval", "--set", "(0,1)", "--K", "3000"],  # U has no truncation
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


@pytest.mark.parametrize("suite", ["main"])
def test_verify_passes_K_0_to_the_suite(capsys, suite):
    # the suite's own K >= 1 check must see the 0, not a default in its place
    assert main(["verify", "--suite", suite, "--n", "1", "--K", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "K >= 1" in captured.err


@pytest.mark.parametrize("command", ["perimeter", "deficit"])
@pytest.mark.parametrize("K", ["0", "-1"])
def test_a_truncation_below_1_has_one_message(capsys, command, K):
    assert main([command, "--set", "(0,1)", "--s", "0.5", "--K", K]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: perimeter needs truncation K >= 1\n"


# only the main suite reads K, c and convention
_DROPPED = [("transfer", "K", "4000"), ("transfer", "c", "1.0"),
            ("transfer", "convention", "with-constant"),
            ("levelset", "c", "1.0"), ("levelset", "convention", "remark"),
            ("bounds", "c", "2"), ("bounds", "convention", "with-constant"),
            ("levelset", "K", "4000"), ("bounds", "K", "4000")]


@pytest.mark.parametrize("suite, key, value", _DROPPED)
def test_verify_rejects_options_its_suite_drops(tmp_path, capsys, suite, key, value):
    assert main(["verify", "--suite", suite, "--n", "1", f"--{key}", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--{key}" in captured.err
    path = tmp_path / "run.json"
    cfg_value = value if key == "convention" else json.loads(value)
    path.write_text(json.dumps({"suite": suite, "n": 1, key: cfg_value}))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--{key}" in captured.err


def _record_suite_calls(monkeypatch) -> list:
    """Replace every suite runner by one that records (name, options) and passes."""
    calls = []
    for name in SUITES:
        def fake_run(n, seed, name=name, **knobs):
            calls.append((name, knobs))
            return [], 0
        monkeypatch.setitem(SUITES, name, fake_run)
    return calls


@pytest.mark.parametrize("suite, kept", [
    ("main", ("K", "c", "convention")), ("levelset", ()), ("bounds", ()),
])
def test_verify_passes_options_to_the_suites_that_read_them(monkeypatch, capsys,
                                                             suite, kept):
    calls = _record_suite_calls(monkeypatch)
    given = {"K": ("700", 700), "c": ("2.5", 2.5), "convention": ("remark", "remark")}
    argv = ["verify", "--suite", suite]
    for key in kept:
        argv += [f"--{key}", given[key][0]]
    assert main(argv) == 0
    assert calls == [(suite, {key: given[key][1] for key in kept})]
    header = capsys.readouterr().out.splitlines()[0]
    conv = "remark" if "convention" in kept else "with_constant"
    assert header == f"# frac-gauss-iso v1, convention={conv}"
    calls.clear()
    assert main(["verify", "--suite", "all", "--K", "700", "--c", "2.5",
                 "--convention", "remark"]) == 0
    assert calls == [("transfer", {}), ("levelset", {}), ("bounds", {}),
                     ("main", {"K": 700, "c": 2.5, "convention": "remark"})]


@pytest.mark.parametrize("c", ["inf", "0", "nan"])
def test_verify_checks_c_before_any_suite_runs(monkeypatch, capsys, c):
    calls = _record_suite_calls(monkeypatch)
    assert main(["verify", "--suite", "all", "--c", c]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "constant c must be positive and finite" in captured.err


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    # the parser is built once per process, so each call must start clean
    assert build_parser() is build_parser()

    def K_column():
        lines = capsys.readouterr().out.strip().splitlines()
        header, row = next(csv.reader([lines[1]])), next(csv.reader([lines[2]]))
        return row[header.index("K")]

    assert main(["deficit", "--set", "(-inf,0)", "--s", "0.5", "--K", "50"]) == 0
    assert K_column() == "50"
    assert main(["deficit", "--set", "(-inf,0)", "--s", "0.5"]) == 0
    assert K_column() == "10000"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"set": "(0,1)", "s": 0.5, "K": 300}))
    assert main(["perimeter", "--config", str(path)]) == 0
    assert ",300," in capsys.readouterr().out
    # without --config no key of the file is read: --set is missing again
    assert main(["perimeter", "--s", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--set is required" in captured.err


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_section() -> str:
    text = _README.read_text(encoding="utf-8")
    return text.split("## CLI", 1)[1].split("\n## ", 1)[0]


def _readme_blocks_and_prose(text: str) -> tuple[list[str], list[str]]:
    """README's fenced blocks, and its prose: each paragraph or list item outside
    the fences, without the table rows."""
    blocks, prose, unit, fence = [], [], [], None
    for line in text.splitlines():
        if line.startswith("```"):
            if fence is not None:
                blocks.append("".join(f"{row}\n" for row in fence))
            fence = [] if fence is None else None
            line = ""
        elif fence is not None:
            fence.append(line)
            continue
        if not line.strip() or line.startswith(("#", "|")) or re.match(r"\s*- ", line):
            prose.append(" ".join(unit))
            unit = []
        if line.startswith("#"):
            prose.append(line)
        elif line.strip() and not line.startswith("|"):
            unit.append(line.strip())
    return blocks, [p for p in prose + [" ".join(unit)] if p]


# A number written with a point or an exponent: 0.5, 37.567, 1e-9.
_DECIMAL = re.compile(r"\d\.\d|\d[eE][+-]?\d")
_TEST_REF = re.compile(r"tests/(test_\w+)\.py::(\w+)")


def test_readme_shows_golden_outputs_and_names_the_test_of_each_number():
    # README, "Shown output" and "Standing failures": a shown command is one of
    # cli_golden.COMMANDS, shown as its chunk of the golden file; a prose
    # paragraph or list item with a decimal in it names the test that checks it
    from cli_golden import GOLDEN

    chunks = {chunk.split("\n", 1)[0]: chunk for chunk in
              re.split(r"(?m)^(?=\$ frac-gauss-iso )", GOLDEN.read_text(encoding="utf-8"))}
    blocks, prose = _readme_blocks_and_prose(_README.read_text(encoding="utf-8"))
    shown = [block for block in blocks if block.startswith("$ frac-gauss-iso ")]
    assert shown
    for block in shown:
        assert block == chunks.get(block.split("\n", 1)[0]), block
    tests = {path.stem: {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                         if isinstance(node, ast.FunctionDef)}
             for path in Path(__file__).parent.glob("test_*.py")}
    for unit in prose:
        refs = _TEST_REF.findall(unit)
        assert refs or not _DECIMAL.search(unit), f"names no test: {unit}"
        for module, name in refs:
            assert name in tests.get(module, ()), f"no test {module}::{name}: {unit}"


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
    code = main(["sweep", "--r-grid", "0:1:0.5", "--s", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 3  # header, columns, 3 rows
    # each row is the closed-form halfline profile, bit for bit, in both conventions
    for conv in ("with-constant", "remark"):
        assert main(["sweep", "--r-grid=-2:1.5:1.75", "--s-grid", "0.25:0.75:0.25",
                     "--convention", conv]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        # r-major, though the orders are evaluated one at a time
        assert [(float(row["r"]), float(row["s"])) for row in rows] == [
            (r, s) for r in (-2.0, -0.25, 1.5) for s in (0.25, 0.5, 0.75)]
        for row in rows:
            pv = halfline_perimeter(float(row["r"]), float(row["s"]), conv.replace("-", "_"))
            assert (float(row["value"]), float(row["tail_bound"])) == (pv.value, pv.tail_bound)


@pytest.mark.parametrize("argv", [["asymptotic", "--s-grid", "0.5:0.6:1e-12"],
                                  ["sweep", "--r-grid=-2:2:1e-11"]])
def test_huge_finite_grids_are_refused_before_they_are_built(argv):
    # each grid has about 1e11 points; building it first would not finish,
    # so the child gets 1 GB of address space and 20 s
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = run_cli(argv, timeout=20, preexec_fn=limit_memory,
                     env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 2 and result.stdout == ""
    assert "more than" in result.stderr


@pytest.mark.parametrize("argv, column, points", [
    (["perimeter", "--set", "(0,1)", "--s-grid", "1e-13:5e-13:1e-13"], "s", 5),
    (["perimeter", "--set", "(0,1)", "--s-grid", "1e-12:1e-11:1e-12"], "s", 10),
    (["sweep", "--s", "0.5", "--r-grid", "5e15:5e15:1"], "r", 1),
    (["sweep", "--s", "0.5", "--r-grid", "1e20:1e20:1"], "r", 1),
])
def test_a_grid_reaches_its_end_once_whatever_its_step_and_magnitude(capsys, argv, column,
                                                                     points):
    # an end tolerance of 1e-12 max(1, |b|) repeated the end of the first two grids
    # and built 5001 copies of the third; the fourth it refused as too long
    assert main(argv) == 0
    grid = [float(row[column]) for row in csv.DictReader(capsys.readouterr().out.splitlines()[1:])]
    a, b, _ = map(float, argv[-1].split(":"))
    assert len(grid) == points and grid == sorted(set(grid)) and (grid[0], grid[-1]) == (a, b)


# verify's default suite, "all", runs the main suite with --K among the others
_HUGE_K = [["perimeter", "--set", "(0,1)"], ["deficit", "--set", "(0,1)"],
           ["verify", "--n", "1"], ["verify", "--suite", "main", "--n", "1"]]


@pytest.mark.parametrize("argv", _HUGE_K)
def test_huge_K_is_refused_before_any_table_is_built(argv):
    # a 2e9-long table does not fit in the child's 1 GB of address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = run_cli(argv + ["--K", "2000000000"], timeout=20, preexec_fn=limit_memory,
                     env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 2 and result.stdout == ""
    assert "--K" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", _HUGE_K)
def test_K_cap_is_ten_million(capsys, argv):
    assert main(argv + ["--K", "10000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--K must be at most 10000000" in captured.err


@pytest.mark.parametrize("spec", ["0:nan:0.1", "nan:1:0.1", "0:inf:0.5"])
@pytest.mark.parametrize("command, flag", [("asymptotic", "--s-grid"), ("sweep", "--r-grid")])
def test_non_finite_grids_are_usage_errors(capsys, command, flag, spec):
    assert main([command, f"{flag}={spec}"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["asymptotic", "--r", "nan"], ["asymptotic", "--r=-inf"],
                                  ["sweep", "--r-grid", "nan"], ["sweep", "--r-grid", "inf"]])
def test_non_finite_halfline_thresholds_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["38.5", "-38.5", "40", "-40", "1e6"])
def test_asymptotic_limit_underflow_is_a_usage_error(capsys, r):
    # past |r| of about 37.567 the limit e^{-r^2/2} sqrt(2/pi)/(4 pi) is
    # subnormal, where a ratio to it means nothing, and past 38.5 it is 0.0
    assert main(["asymptotic", f"--r={r}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the asymptotic limit underflows at r={float(r)}\n"


def test_asymptotic_limit_at_the_normal_range_edge_is_printed(capsys):
    assert main(["asymptotic", "--r=37.5"]) == 0
    ratios = [float(line.split(",")[-2]) for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(ratios) == 3 and ratios == sorted(ratios) and 0.5 < ratios[0] < ratios[-1] < 1.0


def test_extension_eval(capsys):
    xs = [0.5, 3.0, -1.25, 0.0, 0.999]
    code = main(["extension-eval", "--set", "(0,1)", "--s", "0.5",
                 "--x", ",".join(map(str, xs)), "--z", "0.2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [next(csv.reader([line])) for line in out.strip().splitlines()[2:]]
    v_in = float(rows[0][-1])
    v_out = float(rows[1][-1])
    assert v_in > v_out
    # all points go through one call; each row is the scalar value, bit for bit
    F = extension_field(parse_set("(0,1)"), 0.5)
    assert [float(row[-1]).hex() for row in rows] == \
        [evaluate_extension(F, x, 0.2).hex() for x in xs]
    # far from the set at a small height U is small and in [0, 1]
    assert main(["extension-eval", "--set", "(0,1)", "--x", "6,8,12", "--z", "0.001"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "set,s,x,z,value"
    assert [round(float(line.split(",")[-1]), 4) for line in lines[2:]] == [0.0082, 0.0078, 0.0073]
    # at z = 0 it is chi_E, with 1/2 at an endpoint
    assert main(["extension-eval", "--set", "(0,1)", "--x", "0.5,0,3", "--z", "0"]) == 0
    assert [float(line.split(",")[-1]) for line in capsys.readouterr().out.splitlines()[2:]] == \
        [1.0, 0.5, 0.0]


@pytest.mark.parametrize("z", ["nan", "inf", "-1"])
def test_extension_eval_rejects_bad_height(capsys, z):
    code = main(["extension-eval", "--set", "(0,1)", "--x", "0.5", "--z", z])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "height z" in captured.err


@pytest.mark.parametrize("xs", ["nan,inf,0.5", "0.5,-inf", "nan"])
def test_extension_eval_rejects_non_finite_points(capsys, xs):
    code = main(["extension-eval", "--set", "(0,1)", "--x", xs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "points x must be finite" in captured.err


def test_extension_eval_far_out_point_is_the_library_value(capsys):
    # the v-rule of evaluate_extension converges this far out, at its 5th halving
    code = main(["extension-eval", "--set", "(0,1)", "--x", "1e28", "--z", "0.1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    value = float(captured.out.splitlines()[2].split(",")[-1])
    assert 0.0 < value < 1.0
    assert value.hex() == evaluate_extension(extension_field(parse_set("(0,1)"), 0.5), 1e28, 0.1).hex()


def test_verify_reports_each_failing_row():
    r = run_cli(["verify", "--suite", "main", "--n", "3", "--seed", "7", "--c", "1e-200"])
    assert r.returncode == 1
    assert r.stdout.splitlines()[1:] == ["suite,cases,failures,passed", "main,9,3,false"]
    lines = r.stderr.splitlines()
    assert len(lines) == 3 and all(line.startswith("FAIL {'suite': 'main', 'case': 0,")
                                   for line in lines)
    assert [line.split("'s': ")[1].split(",")[0] for line in lines] == ["0.25", "0.5", "0.75"]


@pytest.mark.parametrize("argv", [
    ["deficit", "--set", "(0,1)", "--c", "inf"],
    ["verify", "--suite", "main", "--n", "2", "--seed", "7", "--c", "inf"],
])
def test_an_infinite_constant_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "constant c must be positive and finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["deficit", "--set", "(0,0.01)|(0.5,0.51)", "--s", "0.001"],
    ["deficit", "--set", "(-0.1,0)|(0.1,0.2)|(1,1.01)", "--s", "0.001"],
    ["deficit", "--set", "(0,1)", "--c", "1.07e306"],
    ["deficit", "--set", "(0,1)", "--c", "1e308"],
    ["verify", "--suite", "main", "--n", "2", "--c", "1e308"],
])
def test_C_and_rhs_survive_a_factor_past_the_double_range(capsys, argv):
    # asym^{2/s} overflows at asym = 2, s = 0.001, and 169 c from c = 1.07e306,
    # while C and rhs themselves stay within range
    assert main(argv) == 0
    if argv[0] == "deficit":
        header, values = csv.reader(capsys.readouterr().out.splitlines()[1:3])
        row = dict(zip(header, values))
        assert row["satisfied"] == "true"
        if "--c" in argv:
            assert 0.0 < float(row["C"]) < sys.float_info.min
        else:
            assert row["asym"] == "2"


@pytest.mark.parametrize("argv, code", [
    (["perimeter", "--set", "(0,1)", "--s", "1e-310"], 0),
    (["sweep", "--r-grid", "0:0:1", "--s", "1e-320"], 0),
    (["deficit", "--set", "(0,1)", "--s", "1e-310"], 0),
    (["deficit", "--set", "(0,1)", "--s", "5e-324"], 2),
    (["deficit", "--set", "(0,1)", "--s", "1e-308"], 0),
])
def test_orders_near_zero_give_finite_values_or_one_error(capsys, argv, code):
    # K_s ~ s is finite down to the smallest double; at 5e-324 K_s P_s(H) underflows
    # to 0, which leaves the deficit row without a constant.  At 1e-308 the 1/s
    # terms of log C, summed one by one, would overflow to infinities of both signs
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "nan" not in out and err == ""
        if argv[0] == "deficit":
            header, values = csv.reader(out.splitlines()[1:3])
            assert dict(zip(header, values))["satisfied"] == "true"
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "s=5e-324" in err


def test_json_writes_a_non_finite_value_as_a_string(capsys):
    # c = 1e-320 puts C near 1.7e313, past the double range, and fails the row
    assert main(["deficit", "--set", "(0,1)", "--c", "1e-320", "--format", "json"]) == 1
    [row] = json.loads(capsys.readouterr().out)
    assert row["C"] == row["rhs"] == "inf"
    assert row["satisfied"] is False


def test_a_set_of_measure_below_2_to_the_minus_54_is_its_own_halfline(capsys):
    # 1 - m rounds to 1 at m = 5.2e-17
    assert main(["asymmetry", "--set", "(-inf,-8.3)"]) == 0
    header, values = csv.reader(capsys.readouterr().out.splitlines()[1:3])
    row = dict(zip(header, values))
    assert (row["asym"], row["orientation"]) == ("0", "left")
    assert main(["deficit", "--set", "(-inf,-8.3)"]) == 0
    header, values = csv.reader(capsys.readouterr().out.splitlines()[1:3])
    assert dict(zip(header, values))["asym"] == "0"


def test_verify_determinism_small():
    r1 = run_cli(["verify", "--suite", "transfer", "--n", "20", "--seed", "3"])
    r2 = run_cli(["verify", "--suite", "transfer", "--n", "20", "--seed", "3"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_verify_unknown_suite():
    r = run_cli(["verify", "--suite", "bogus"])
    assert r.returncode == 2


def test_cli_outputs_match_the_golden_file():
    # the golden file also pins a known defect (ROADMAP item 1; README, "Standing
    # failures"): the (0,1e-9) row is a false counterexample of the K = 1e4 series
    from cli_golden import GOLDEN, render

    assert render() == GOLDEN.read_text(encoding="utf-8")
