"""The CLI golden file: stdout and exit code of a fixed list of commands.

``tests/golden/cli_outputs.txt`` holds, for each command below, a ``$`` line
with its arguments, an ``exit`` line and its stdout, all run in-process
through ``cli.main``.  ``tests/test_cli.py`` compares the file byte for byte.
Regenerate it only for a change meant to alter CLI output, and say why in
that change:

    PYTHONPATH=src python tests/cli_golden.py
"""
import contextlib
import io
import shlex
from pathlib import Path

from fracgaussiso import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.txt"

COMMANDS = [
    ["deficit", "--set", "(0,1)|(1.5,inf)"],
    ["deficit", "--set", "(-1.2,-0.3)|(0.4,2)", "--s-grid", "0.25:0.75:0.25"],
    ["deficit", "--set", "(0,1e-9)"],
    ["perimeter", "--set", "(-1.2,-0.3)|(0.4,2)", "--s-grid", "0.25:0.75:0.25"],
    ["perimeter", "--set", "(-inf,-0.5)|(0.2,0.9)", "--convention", "remark"],
    ["perimeter", "--set", "(-inf,0.3)", "--K", "200000"],
    ["asymmetry", "--set", "(-inf,-0.5)|(0.2,0.9)"],
    ["extension-eval", "--set", "(0,1)|(1.5,inf)", "--x=-2,0.3,1.2,4", "--z", "0.05"],
    ["sweep"],
    ["asymptotic"],
    ["deficit", "--set", "(-inf,-1)|(0,0.5)", "--s", "0.75", "--format", "json"],
    ["verify", "--suite", "levelset", "--n", "2"],
    ["verify", "--suite", "bounds", "--n", "2"],
]


def render() -> str:
    """The golden text of COMMANDS as this checkout prints it."""
    chunks = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        chunks.append(f"$ frac-gauss-iso {shlex.join(argv)}\nexit {code}\n{out.getvalue()}")
    return "".join(chunks)


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
