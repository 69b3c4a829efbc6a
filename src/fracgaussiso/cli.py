"""Command-line front end: parsing, sweeps, suites, CSV/JSON emission.

Exit codes: 0 all checks within budget, 1 verification failure, 2 usage or
parse error.  Output is deterministic for a fixed configuration (including
the seed), so files produced here can be used as golden references.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import DomainError, SetParseError
from .inequality import ConstantParams, verify_main
from .extension import evaluate_extension, extension_field
from .sets import GaussianSet, best_halfline, measure
from .spectral import (asymptotic_limit, asymptotic_series_value,
                       halfspace_series, perimeter_spectral)
from .suites import SUITE_NAMES, run_suite

FORMAT_VERSION = "frac-gauss-iso v1"

_BOUND_RE = re.compile(r"[+-]?(?:inf|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)")


def parse_set(text: str) -> GaussianSet:
    """Parse 'set := interval ("|" interval)*' with byte-offset errors.

    interval := "(" bound "," bound ")"; bound := decimal | "-inf" | "inf";
    whitespace is ignored everywhere.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise SetParseError(f"expected {ch!r}", pos)
        pos += 1

    def bound() -> tuple[float, int]:
        nonlocal pos
        skip_ws()
        m = _BOUND_RE.match(text, pos)
        if m is None:
            raise SetParseError("expected a number, 'inf' or '-inf'", pos)
        start = pos
        pos = m.end()
        return float(m.group(0)), start

    pairs = []
    while True:
        expect("(")
        a, a_off = bound()
        expect(",")
        b, _ = bound()
        expect(")")
        if not a < b:
            raise SetParseError(f"inverted or empty interval ({a}, {b})", a_off)
        pairs.append((a, b))
        skip_ws()
        if pos >= len(text):
            break
        if text[pos] != "|":
            raise SetParseError("expected '|' between intervals", pos)
        pos += 1
    return GaussianSet.from_intervals(pairs)


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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, int):
        return str(v)
    return json.dumps(str(v))


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
    """'a:b:step' inclusive grid; a bare number is a one-point grid."""
    if ":" not in spec:
        return [float(spec)]
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be 'a:b:step', got {spec!r}")
    a, b, step = (float(p) for p in parts)
    if step <= 0.0 or b < a:
        raise DomainError(f"bad grid {spec!r}")
    vals, i = [], 0
    while True:
        v = a + i * step
        if v > b + 1e-12 * max(1.0, abs(b)):
            break
        vals.append(min(v, b))
        i += 1
    return vals


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    return cfg


def _pick(args_value, cfg: dict, key: str, default):
    """CLI flag wins over config file wins over default."""
    if args_value is not None:
        return args_value
    if key in cfg:
        return cfg[key]
    return default


def _s_list(args, cfg) -> list[float]:
    s = _pick(args.s, cfg, "s", None)
    grid = _pick(args.s_grid, cfg, "s_grid", None)
    if s is not None and grid is not None:
        raise DomainError("give either --s or --s-grid, not both")
    if grid is not None:
        return _parse_grid(grid)
    return [float(s) if s is not None else 0.5]


def _convention(args, cfg) -> str:
    # asymptotic rows are bare series values, so its header names 'remark'
    default = "remark" if args.command == "asymptotic" else "with-constant"
    c = _pick(args.convention, cfg, "convention", default)
    return c.replace("-", "_")


def _open_out(args, cfg):
    path = _pick(args.out, cfg, "out", None)
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _common_flags(p: argparse.ArgumentParser, with_set=True) -> None:
    if with_set:
        p.add_argument("--set", dest="set_text")
    p.add_argument("--s", type=float)
    p.add_argument("--s-grid", dest="s_grid")
    p.add_argument("--K", type=int)
    p.add_argument("--convention", choices=("with-constant", "remark"))
    p.add_argument("--c", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out")
    p.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frac-gauss-iso",
                                 description="Fractional Gaussian perimeters, "
                                             "asymmetries and deficit checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("perimeter", "asymmetry", "deficit"):
        p = sub.add_parser(name)
        _common_flags(p)

    p = sub.add_parser("extension-eval")
    _common_flags(p)
    p.add_argument("--x", default="0.0", help="comma-separated evaluation points")
    p.add_argument("--z", type=float, default=0.1)

    p = sub.add_parser("verify")
    _common_flags(p, with_set=False)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--n", type=int)

    p = sub.add_parser("sweep")
    _common_flags(p, with_set=False)
    p.add_argument("--r-grid", dest="r_grid", default="-2:2:0.5")

    p = sub.add_parser("asymptotic")
    _common_flags(p, with_set=False)
    p.add_argument("--r", type=float, default=0.0)
    return ap


def _require_set(args, cfg) -> GaussianSet:
    text = _pick(getattr(args, "set_text", None), cfg, "set", None)
    if text is None:
        raise DomainError("--set is required for this command")
    return parse_set(text)


def cmd_perimeter(args, cfg) -> tuple[list[dict], int]:
    E = _require_set(args, cfg)
    K = int(_pick(args.K, cfg, "K", 10_000))
    conv = _convention(args, cfg)
    rows = []
    for s in _s_list(args, cfg):
        pv = perimeter_spectral(E, s, K, conv)
        rows.append({"set": str(E), "s": s, "K": K, "convention": conv,
                     "value": pv.value, "tail_bound": pv.tail_bound})
    return rows, 0


def cmd_asymmetry(args, cfg) -> tuple[list[dict], int]:
    E = _require_set(args, cfg)
    ratio, half = best_halfline(E)
    return [{"set": str(E), "m": measure(E), "asym": ratio,
             "orientation": half.orientation, "threshold": half.threshold}], 0


def cmd_deficit(args, cfg) -> tuple[list[dict], int]:
    E = _require_set(args, cfg)
    K = int(_pick(args.K, cfg, "K", 10_000))
    conv = _convention(args, cfg)
    params = ConstantParams(float(_pick(args.c, cfg, "c", 1.0)))
    rows, failures = [], 0
    for s in _s_list(args, cfg):
        rep = verify_main(E, s, params, K, conv)
        if not rep.satisfied:
            failures += 1
        rows.append({"set": str(E), "s": s, "K": K, "convention": conv,
                     "m": rep.m, "P_E": rep.P_E.value, "P_H": rep.P_H.value,
                     "deficit": rep.deficit, "asym": rep.asym, "C": rep.C,
                     "rhs": rep.rhs, "branch": rep.branch, "c": rep.c,
                     "budget": rep.budget, "satisfied": rep.satisfied})
    return rows, failures


def cmd_extension_eval(args, cfg) -> tuple[list[dict], int]:
    E = _require_set(args, cfg)
    K = int(_pick(args.K, cfg, "K", 10_000))
    s = _s_list(args, cfg)[0]
    F = extension_field(E, s, K)
    rows = []
    for tok in str(args.x).split(","):
        x = float(tok)
        rows.append({"set": str(E), "s": s, "K": K, "x": x, "z": args.z,
                     "value": evaluate_extension(F, x, args.z)})
    return rows, 0


def cmd_verify(args, cfg) -> tuple[list[dict], int]:
    suite = _pick(args.suite, cfg, "suite", "all")
    n = int(_pick(args.n, cfg, "n", 12))
    seed = int(_pick(args.seed, cfg, "seed", 0))
    K = _pick(args.K, cfg, "K", None)
    c = float(_pick(args.c, cfg, "c", 1.0))
    conv = _convention(args, cfg)
    names = SUITE_NAMES if suite == "all" else (suite,)
    summary, total_failures = [], 0
    for name in names:
        rows, failures = run_suite(name, n, seed, K=K, c=c, convention=conv)
        total_failures += failures
        summary.append({"suite": name, "cases": len(rows),
                        "failures": failures, "passed": failures == 0})
        for row in rows:
            failed = row.get("outcome") == "fails" or row.get("ok") is False \
                or row.get("satisfied") is False or row.get("nonneg") is False
            if failed:
                print(f"FAIL {row}", file=sys.stderr)
    return summary, total_failures


def cmd_sweep(args, cfg) -> tuple[list[dict], int]:
    K = int(_pick(args.K, cfg, "K", 10_000))
    conv = _convention(args, cfg)
    rows = []
    for r in _parse_grid(args.r_grid):
        for s in _s_list(args, cfg):
            pv = halfspace_series(r, s, K, conv)
            rows.append({"r": r, "s": s, "K": K, "convention": conv,
                         "value": pv.value, "tail_bound": pv.tail_bound})
    return rows, 0


def cmd_asymptotic(args, cfg) -> tuple[list[dict], int]:
    K = int(_pick(args.K, cfg, "K", 100_000))
    grid = _pick(args.s_grid, cfg, "s_grid", "0.9:0.999:0.045")
    r = float(args.r)
    if _convention(args, cfg) != "remark":
        raise DomainError("asymptotic computes the remark convention only")
    limit = asymptotic_limit(r)
    rows = []
    for s in _parse_grid(grid):
        pv = asymptotic_series_value(r, s, K, "remark")
        scaled = (1.0 - s) * pv.value
        rows.append({"r": r, "s": s, "K": K, "scaled_value": scaled,
                     "limit": limit, "ratio": scaled / limit,
                     "tail_bound": (1.0 - s) * pv.tail_bound})
    return rows, 0


_COMMANDS = {
    "perimeter": cmd_perimeter,
    "asymmetry": cmd_asymmetry,
    "deficit": cmd_deficit,
    "extension-eval": cmd_extension_eval,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "asymptotic": cmd_asymptotic,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(getattr(args, "config", None))
        rows, failures = _COMMANDS[args.command](args, cfg)
        fmt = _pick(getattr(args, "format", None), cfg, "format", "csv")
        conv = _convention(args, cfg)
        out, close = _open_out(args, cfg)
        try:
            emit(rows, fmt, out, conv)
        finally:
            if close:
                out.close()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
