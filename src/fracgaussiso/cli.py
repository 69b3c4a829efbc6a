"""Command-line front end: parsing, sweeps, suites, CSV/JSON emission.

Exit codes: 0 all checks within budget, 1 verification failure, 2 usage or
parse error.  Output is deterministic for a fixed configuration (including
the seed), so files produced here can be used as golden references.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

from .errors import DomainError, ResolutionError
from .gauss_core import check_positive
from .inequality import verify_orders
from .extension import evaluate_extension, extension_field
from .sets import GaussianSet, best_halfline, measure, parse_set
from .spectral import (CONVENTIONS, asymptotic_limit, asymptotic_series_value,
                       halfline_perimeter, perimeter_spectral)
from .suites import SUITES, row_failed

FORMAT_VERSION = "frac-gauss-iso v1"

# A --s-grid or --r-grid must have fewer points than this.
_MAX_GRID_POINTS = 10_000
# The largest --K: an 80 MB coefficient table, built in segments whose work
# arrays add about 2 MB to the peak.
_MAX_K = 10_000_000


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    text = str(v)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(v) -> str:
    """A JSON token; JSON has no inf or nan, so a non-finite float is written as a string."""
    numeric = isinstance(v, (bool, int)) or (isinstance(v, float) and math.isfinite(v))
    return _fmt(v) if numeric else json.dumps(str(v))


def emit(rows: list[dict], fmt: str, out, convention: str) -> None:
    """Write rows as CSV (with the versioned header) or JSON."""
    if fmt == "json":
        chunks = []
        for row in rows:
            body = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in row.items())
            chunks.append("{" + body + "}")
        out.write("[\n" + ",\n".join(chunks) + "\n]\n")
        return
    out.write(f"# {FORMAT_VERSION}, convention={convention}\n")
    if not rows:
        return
    cols = list(rows[0].keys())
    out.write(",".join(cols) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _parse_grid(spec: str) -> list[float]:
    """'a:b:step' inclusive grid of fewer than _MAX_GRID_POINTS finite values,
    checked before it is built; a bare number is a one-point grid.  The count
    floor((b - a)/step + 1e-9) + 1 forgives rounding relative to the step, so
    b is reached once however small the step or large |b|."""
    if ":" not in spec:
        return [float(spec)]
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be 'a:b:step', got {spec!r}")
    a, b, step = (float(p) for p in parts)
    if not (-math.inf < a <= b < math.inf and 0.0 < step < math.inf):
        raise DomainError(f"bad grid {spec!r}")
    span = (b - a) / step  # inf where b - a overflows, so it is refused before math.floor
    if span >= _MAX_GRID_POINTS or (n := math.floor(span + 1e-9) + 1) >= _MAX_GRID_POINTS:
        raise DomainError(f"grid {spec!r} has more than {_MAX_GRID_POINTS - 1} points")
    return [min(a + k * step, b) for k in range(n)]


def _s_list(o: dict) -> list[float]:
    """The orders to run: --s-grid, else --s, else 0.5; not both."""
    s, grid = o["s"], o["s_grid"]
    if s is not None and grid is not None:
        raise DomainError("give either --s or --s-grid, not both")
    if grid is not None:
        return _parse_grid(grid)
    return [0.5 if s is None else s]


def _require_set(o: dict) -> GaussianSet:
    if o["set"] is None:
        raise DomainError("--set is required for this command")
    return parse_set(o["set"])


def cmd_perimeter(o: dict) -> tuple[list[dict], int]:
    E = _require_set(o)
    K, conv = o["K"], o["convention"]
    rows = []
    for s in _s_list(o):
        pv = perimeter_spectral(E, s, K, conv)
        rows.append({"set": str(E), "s": s, "K": K, "convention": conv,
                     "value": pv.value, "tail_bound": pv.tail_bound})
    return rows, 0


def cmd_asymmetry(o: dict) -> tuple[list[dict], int]:
    E = _require_set(o)
    ratio, half = best_halfline(E)
    return [{"set": str(E), "m": measure(E), "asym": ratio,
             "orientation": half.orientation, "threshold": half.threshold}], 0


def cmd_deficit(o: dict) -> tuple[list[dict], int]:
    E = _require_set(o)
    K, conv = o["K"], o["convention"]
    rows = [{"set": str(E), "s": rep.s, "K": K, "convention": conv, **rep.columns()}
            for rep in verify_orders(E, _s_list(o), o["c"], K, conv)]
    return rows, sum(map(row_failed, rows))


def cmd_extension_eval(o: dict) -> tuple[list[dict], int]:
    E = _require_set(o)
    s, z = o["s"], o["z"]
    xs = [float(tok) for tok in o["x"].split(",")]
    values = evaluate_extension(extension_field(E, s), xs, z).tolist()
    return [{"set": str(E), "s": s, "x": x, "z": z, "value": v}
            for x, v in zip(xs, values)], 0


def cmd_verify(o: dict) -> tuple[list[dict], int]:
    if o["n"] < 1:
        raise DomainError(f"--n must be at least 1, got {o['n']}")
    names = list(SUITES) if o["suite"] == "all" else [o["suite"]]
    # K, c and convention are the main suite's alone; its defaults fill in the rest
    knobs = {key: o[key] for key in ("K", "c", "convention") if o[key] is not None}
    if knobs and "main" not in names:
        raise DomainError(f"verify --suite {o['suite']} reads no "
                          f"{', '.join('--' + key for key in knobs)}")
    if "c" in knobs:
        check_positive(knobs["c"], "constant c")  # a bad --c fails before any suite runs
    summary, total_failures = [], 0
    for name in names:
        rows, failures = SUITES[name](o["n"], o["seed"], **(knobs if name == "main" else {}))
        total_failures += failures
        summary.append({"suite": name, "cases": len(rows),
                        "failures": failures, "passed": failures == 0})
        for row in filter(row_failed, rows):
            print(f"FAIL {row}", file=sys.stderr)
    return summary, total_failures


def cmd_sweep(o: dict) -> tuple[list[dict], int]:
    conv, rs, orders = o["convention"], _parse_grid(o["r_grid"]), _s_list(o)
    # order by order, so that each order's Laguerre rules are read while cached;
    # the rows are r-major
    values = [[halfline_perimeter(r, s, conv) for r in rs] for s in orders]
    return [{"r": r, "s": s, "convention": conv, "value": pv.value, "tail_bound": pv.tail_bound}
            for r, column in zip(rs, zip(*values)) for s, pv in zip(orders, column)], 0


def cmd_asymptotic(o: dict) -> tuple[list[dict], int]:
    r, limit, rows = o["r"], asymptotic_limit(o["r"]), []
    if limit < sys.float_info.min:  # the ratio below divides by it
        raise DomainError(f"the asymptotic limit underflows at r={r}")
    for s in _parse_grid(o["s_grid"]):
        pv = asymptotic_series_value(r, s)
        scaled = (1.0 - s) * pv.value
        rows.append({"r": r, "s": s, "scaled_value": scaled,
                     "limit": limit, "ratio": scaled / limit,
                     "tail_bound": (1.0 - s) * pv.tail_bound})
    return rows, 0


# Every option a subcommand can read, with its argparse keywords.  The name
# is the config-file key; the flag is "--" + name with "_" written "-".
# The library spells conventions with "_"; the convention type writes a "-"
# of a flag, a config value or a string default as "_".
_OPTIONS = {
    "set": {},
    "s": {"type": float},
    "s_grid": {},
    "K": {"type": int},
    "convention": {"type": lambda v: v.replace("-", "_"), "choices": CONVENTIONS},
    "c": {"type": float},
    "suite": {"choices": (*SUITES, "all")},
    "n": {"type": int},
    "seed": {"type": int},
    "x": {"help": "comma-separated evaluation points"},
    "z": {"type": float},
    "r_grid": {},
    "r": {"type": float},
    "format": {"choices": ("csv", "json")},
    "out": {},
}


class _Command(NamedTuple):
    run: Callable[[dict], tuple[list[dict], int]]
    options: dict          # option name -> default, in help order
    header: str | None     # header convention when --convention is absent or not given


def _cmd(run, header=None, **options) -> _Command:
    return _Command(run, {**options, "format": "csv", "out": None}, header)


_COMMANDS = {
    "perimeter": _cmd(cmd_perimeter, set=None, s=None, s_grid=None, K=10_000,
                      convention="with-constant"),
    "asymmetry": _cmd(cmd_asymmetry, "with_constant", set=None),
    "deficit": _cmd(cmd_deficit, set=None, s=None, s_grid=None, K=10_000,
                    convention="with-constant", c=1.0),
    "extension-eval": _cmd(cmd_extension_eval, "with_constant", set=None,
                           s=0.5, x="0.0", z=0.1),
    # verify's header names the main suite's default when --convention is not given
    "verify": _cmd(cmd_verify, "with_constant", suite="all", n=12, seed=0, K=None,
                   c=None, convention=None),
    "sweep": _cmd(cmd_sweep, r_grid="-2:2:0.5", s=None, s_grid=None,
                  convention="with-constant"),
    # asymptotic rows are bare profile values, so its header names 'remark'
    "asymptotic": _cmd(cmd_asymptotic, "remark", r=0.0, s_grid="0.9:0.999:0.045"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in it."""
    ap = argparse.ArgumentParser(prog="frac-gauss-iso", allow_abbrev=False,
                                 description="Fractional Gaussian perimeters, "
                                             "asymmetries and deficit checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for key, default in cmd.options.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=default,
                           **_OPTIONS[key])
        p.add_argument("--config", help="JSON file of option values, read as their flags' text")
    return ap


def _config_flags(command: str, path: str) -> list[str]:
    """The JSON object in ``path`` as "--key=value" flags of ``command``, each
    value in its flag's text, so argparse checks it as it checks the flag."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    unread = sorted(set(cfg) - set(_COMMANDS[command].options))
    if unread:
        raise DomainError(f"{command} reads no config key {', '.join(map(repr, unread))}")
    return [f"--{key.replace('_', '-')}={v if isinstance(v, str) else json.dumps(v)}"
            for key, v in cfg.items()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    try:
        if args.config is not None:
            # after the command name, so that the command line's own flags win
            at = argv.index(args.command) + 1
            args = build_parser().parse_args(
                [*argv[:at], *_config_flags(args.command, args.config), *argv[at:]])
        o = vars(args)
        if (o.get("K") or 0) > _MAX_K:
            raise DomainError(f"--K must be at most {_MAX_K}, got {o['K']}")
        rows, failures = cmd.run(o)
        conv = o.get("convention") or cmd.header
        if o["out"] is None:
            emit(rows, o["format"], sys.stdout, conv)
        else:
            with open(o["out"], "w", encoding="utf-8") as out:
                emit(rows, o["format"], out, conv)
    except (ValueError, OSError, ResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
