"""Command-line front end: psi, bound, dickman, omega, vw-verify, calpha,
rb, arctan, and the verify suite.

Output is JSON lines by default (CSV for per-n tables); every record embeds
the resolved run configuration and the library version, and floats are
serialized with 12 significant digits.  Exit codes: 0 success, 1 domain
error (or failed verify), 2 usage error.
"""

import argparse
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import asdict
from itertools import repeat
from math import inf

import numpy as np

from . import __version__
from .bounds import make_bound_report
from .dickman import U_MAX, martin_prediction, rho_grid
from .polyarith import build_factored, parse_poly, t0
from .primdiv import n_arctan, r_b
from .quadfield import c_alpha, make_context, verify_prop54, windowed_cassels
from .smoothsieve import eval_range, sieve_range, smooth_bound
from .vwmachinery import VWInstance, lemma31_check, vw_prop21, vw_prop32

__all__ = ["main"]

MAX_GRID_POINTS = 10**6  # bounds the rho grid dickman holds as two arrays
_BLOCK = 1 << 16  # rows of a multi-row output formatted at a time


def _fmt_float(v):
    if v != v:  # nan
        return "nan"
    if v == float("inf"):
        return "inf"
    if v == float("-inf"):
        return "-inf"
    return float(f"{v:.12g}")


def _clean(obj):
    """12-significant-digit floats and JSON-safe infinities."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


_JSON = json.JSONEncoder(sort_keys=True)


def _emit(records, fmt, out):
    """Write records that share no row template as JSON lines or CSV."""
    rows = [_clean(r) for r in records]
    if fmt == "json":
        lines = [_JSON.encode(r) for r in rows]
    else:
        keys = sorted({k for r in rows for k in r})
        lines = [",".join(keys)]
        for r in rows:
            lines.append(",".join(_csv_cell(r.get(k, "")) for k in keys))
    _write(out, "\n".join(lines) + "\n")


def _csv_cell(v):
    """One CSV cell: a dict or list as its JSON text, quoted (RFC 4180)
    where it holds a comma, a double quote or a newline."""
    s = _JSON.encode(v) if isinstance(v, (dict, list)) else str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _slot(i):
    """A per-row field of a record template: column i of the rows."""
    return f"\x00{i}"


# _slot(i) as JSON writes it (its quotes doubled inside a CSV cell) or as a
# bare CSV cell.  No command-line argument holds a NUL, so no other text
# of a record matches.
_SLOTS = re.compile(r'(?:"{1,2}\\u0000|\x00)(\d+)"{0,2}')


def _template(obj, fmt="json"):
    """The text _clean and _JSON make of `obj`, or for fmt "csv" the CSV
    row of its sorted fields, as a row template: its literal text with
    the column number i in place of each _slot(i)."""
    obj = _clean(obj)
    if fmt == "json":
        text = _JSON.encode(obj)
    else:
        text = ",".join(_csv_cell(obj[k]) for k in sorted(obj))
    parts = _SLOTS.split(text)
    parts[1::2] = map(int, parts[1::2])
    return parts


def _csv_row(n):
    """The row template of a CSV table of n columns."""
    return [x for i in range(n) for x in (",", i)][1:] + ["\n"]


def _write(out, head, rows=0, block=None, row=(), sep="", tail=""):
    """Write `head`, then `rows` rows a block at a time, then `tail`.
    block(i, j) gives rows i..j-1 as columns of str cells (a list, where
    the template uses the column twice), the row template `row` joins one
    row's literal text and cells, and `sep` goes between rows, so only
    one block's cells are held."""
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        fh.write(head)
        for i in range(0, rows, _BLOCK):
            if i:
                fh.write(sep)
            cells = block(i, min(i + _BLOCK, rows))
            parts = (cells[p] if isinstance(p, int) else repeat(p)
                     for p in row if p != "")
            fh.write(sep.join(map("".join, zip(*parts))))
        fh.write(tail)


def _emit_list(rec, key, item, rows, block, out):
    """Write `rec` as one JSON line whose field `key` is a list of `rows`
    items, each the template of `item` filled from the columns of
    block(i, j), a block at a time."""
    head, _, tail = _template({**rec, key: _slot(0)})
    _write(out, head + "[", rows, block, _template(item), ", ",
           "]" + tail + "\n")


def _str_cells(*columns):
    return [map(str, c.tolist()) for c in columns]


_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}

# repr(float(t)) writes the "{:.12g}" text t unchanged unless t is
# integral (no ".", "e" or "n"), has an exponent of e+12 to e+15, which
# repr writes positionally, or has one of e-308 to e-324, the subnormal
# range, where 12 digits can exceed a float's precision.  The text, not
# the value, decides: 999999999999.5 is written 1e+12.
_REPR_TAILS = frozenset([f"e+1{d}" for d in range(2, 6)]
                        + [f"-{e}" for e in range(308, 325)])


def _float_cells(values, fmt):
    """The text _clean makes of floats, as _JSON writes it or as a CSV
    cell: 12 significant digits, and nan and the infinities as strings,
    quoted in JSON."""
    cells = (repr(float(t)) if t[-4:] in _REPR_TAILS
             or not ("." in t or "e" in t or "n" in t) else t
             for t in map("{:.12g}".format, values.tolist()))
    if fmt == "json" and not np.isfinite(values).all():
        return [_QUOTED.get(c, c) for c in cells]
    return cells


def _poly_from_args(args):
    if getattr(args, "factors", None):
        data = json.loads(args.factors)
        if not isinstance(data, list):
            raise ValueError("--factors wants a JSON array of coefficient arrays")
        return build_factored(data)
    if getattr(args, "poly", None):
        return build_factored([parse_poly(args.poly)])
    raise ValueError("one of --poly / --factors is required")


def _config(args, **extra):
    """Fully resolved run configuration; embedded in every emitted record so
    outputs are self-describing."""
    opts = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "cmd", "format", "out")
    }
    opts.update(extra)
    return {"subcommand": args.cmd, "options": opts, "format": args.format,
            "out": args.out, "version": __version__}


_SCHEMAS = {
    "psi": {
        "psi": "exact count of n in [1, x] with f(n) y-smooth",
        "x": "range end",
        "y": "smoothness bound (resolved from --u when given)",
        "u": "log x / log y when supplied",
        "ratio": "psi / x",
        "martin": "product of rho(d_j u) over factor degrees (null if d_j*u > 20)",
        "thm11_main": "main-term coefficient gamma_f(u) g^[u]/(d(d-1)^([u]-1) u^[u]) "
                      "(d >= 2 only; null if u < 1, where gamma_f(u) is undefined)",
        "thm11_main_x": "main term times x (d >= 2 only; null if u < 1)",
        "thm11_u_in_range": "1 <= u <= sqrt(log x)/log log x (d >= 2 only; false if u < 1)",
        "t0": "monotonicity threshold T_0(f) used by downstream instances",
        "dump columns": "n, f(n), pplus, smooth (CSV with --dump)",
    },
    "bound": {
        "d": "total degree",
        "g": "number of irreducible factors",
        "u": "smoothness parameter",
        "m": "floor(u)",
        "gamma": "improvement factor gamma_f(u)",
        "thm11_main": "gamma * g^m / (d (d-1)^(m-1) u^m)",
        "timofeev_main": "(g+eps)^m / (d (d-1)^(m-1) u^m)",
        "timofeev_eps": "epsilon used in the comparator",
        "hmyrova_main": "exp(-u log(u/e)), c(f) normalized to 1",
        "hmyrova_applicable": "true iff g = 1 (irreducible f)",
        "cassels": "1 - gamma_f(d,1,1)/d when g = 1",
        "thm11_u_in_range": "1 <= u <= sqrt(log x)/log log x (when x given)",
    },
    "dickman": {"u": "argument", "rho": "Dickman rho(u)"},
    "omega": {"k": "modulus", "omega": "number of roots of f mod k"},
    "vw-verify": {
        "lhs": "exact smooth count on (z, x]",
        "V/W": "totals; v_plus/w_plus and v_minus/w_minus are the depth split",
        "verdict_2_1": "lhs < V + sqrt(lhs W) (vacuous pass when lhs = 0)",
        "verdict_2_2": "lhs < V + W/2 + sqrt(VW + W^2/4)",
        "monotone_v/monotone_w": "depth-m vs depth-(m+1) relations when computed",
        "t0": "threshold T_0(f) recorded per the open question",
    },
    "calpha": {
        "count": "number of n with a prime ideal unique to (n + sqrt m)",
        "witnesses": "(n, p, n mod p) per counted n",
        "include_zero": "whether the exclusion range starts at k = 0",
        "residual report": "c_alpha, x - psi, residual, r log x/x (via --prop54)",
    },
    "rb": {
        "count": "R_b(x): n <= x such that n^2 + b has a primitive divisor",
        "ratio": "count / x",
        "dump columns": "b, n, pplus, has_primitive, method, criterion_mismatch",
    },
    "arctan": {"count": "N(x): n <= x with arctan n irreducible (equals R_1(x))"},
    "verify": {
        "cid": "criterion number 1..10",
        "name": "criterion short name",
        "passed": "boolean",
        "seconds": "wall time",
        "details": "criterion-specific measurements",
    },
}


def _cmd_psi(args):
    if args.x < 1:
        raise ValueError("x must be >= 1")
    f = _poly_from_args(args)
    if args.u is not None:
        y = smooth_bound(args.x, args.u)
    elif args.y is not None:
        y = args.y
    else:
        raise ValueError("one of --y / --u is required")
    table = sieve_range(f, 1, args.x, y, need_pplus=args.dump)
    rec = {
        "psi": table.psi,
        "x": args.x,
        "y": float(y),
        "u": args.u,
        "ratio": table.psi / args.x,
        "t0": t0(f),
        "config": _config(args, resolved_y=float(y)),
    }
    if args.u is not None:
        if max(f.degrees) * args.u <= U_MAX:
            rec["martin"] = martin_prediction(f.degrees, args.u)
        else:
            rec["martin"] = None
        if f.d >= 2 and args.u >= 1:
            rep = make_bound_report(f.d, f.g, args.u, x=args.x)
            rec["thm11_main"] = rep.thm11_main
            rec["thm11_main_x"] = rep.thm11_main_x
            rec["thm11_u_in_range"] = rep.thm11_u_in_range
        elif f.d >= 2:  # gamma_f(u) is defined for u >= 1 only
            rec["thm11_main"] = rec["thm11_main_x"] = None
            rec["thm11_u_in_range"] = False
    if args.dump:
        def block(i, j):
            # P+(0), stored as 0, is written as the "inf" _clean writes
            return (map(str, range(i + 1, j + 1)),
                    *_str_cells(eval_range(f.product, i + 1, j - i)),
                    map(str, [p or inf for p in table.pplus[i:j].tolist()]),
                    *_str_cells(table.flags[i:j].astype(int)))
        _write(args.out, "n,f_n,pplus,smooth\n", args.x, block, _csv_row(4))
        return 0
    _emit([rec], args.format, args.out)
    return 0


def _parse_grid(text, conv):
    grid = [conv(tok) for tok in str(text).split(",") if tok != ""]
    if not grid:
        raise ValueError(f"empty grid {text!r}")
    return grid


def _cmd_bound(args):
    records = []
    for d in _parse_grid(args.d, int):
        for g in _parse_grid(args.g, int):
            for u in _parse_grid(args.u, float):
                rep = make_bound_report(d, g, u, eps=args.eps, x=args.x)
                records.append({**vars(rep),
                                "config": _config(args, d=d, g=g, u=u)})
    _emit(records, args.format, args.out)
    return 0


def _cmd_dickman(args):
    if not 0 < args.step < inf:
        raise ValueError("--step must be finite and > 0")
    if not 0 <= args.u_max <= U_MAX:
        raise ValueError(f"--u-max must lie in [0, {U_MAX}]")
    span = args.u_max / args.step
    if not span < MAX_GRID_POINTS - 0.5:  # round(span) + 1 points; inf too
        raise ValueError(f"--u-max {args.u_max} at --step {args.step} gives "
                         f"more than {MAX_GRID_POINTS} grid points")
    us = np.arange(round(span) + 1) * args.step
    rho = rho_grid(us)
    fmt = args.format

    def block(i, j):
        return _float_cells(us[i:j], fmt), _float_cells(rho[i:j], fmt)

    if fmt == "json":
        _emit_list({"config": _config(args)}, "grid",
                   {"u": _slot(0), "rho": _slot(1)}, us.size, block, args.out)
    else:
        _write(args.out, "u,rho\n", us.size, block, _csv_row(2))
    return 0


def _cmd_omega(args):
    from .modroots import omega_grid

    f = _poly_from_args(args)
    config = _config(args)
    config["options"]["k"] = _slot(0)
    ks = _parse_grid(args.k, int)
    cells = [list(map(str, ks)), list(map(str, omega_grid(f, ks)))]
    rec = {"k": _slot(0), "omega": _slot(1), "config": config}
    head = "" if args.format == "json" else ",".join(sorted(rec)) + "\n"
    _write(args.out, head, len(ks), lambda i, j: [c[i:j] for c in cells],
           _template(rec, args.format) + ["\n"])
    return 0


def _vw_one(spec):
    f = build_factored(spec["factors"])
    inst = VWInstance(f, spec["x"], spec["z"], spec["y"],
                      depth=spec.get("depth", 1))
    method = spec.get("method", "prop32" if "depth" in spec else "prop21")
    if method == "prop21":
        rep = vw_prop21(inst)
    elif method == "prop32":
        rep = vw_prop32(inst)
    else:
        raise ValueError(f"unknown vw method {method!r}")
    rec = asdict(rep)
    if spec.get("kappa") is not None:
        rec["lemma31"] = asdict(lemma31_check(inst, spec["kappa"]))
    rec["instance"] = {k: v for k, v in spec.items() if k != "factors"}
    rec["instance"]["poly"] = f.pretty()
    return rec


# the JSON types a vw config instance's numbers may take (build_factored
# checks its factors)
_VW_TYPES = {"x": (int, "an integer"), "z": (int, "an integer"),
             "y": ((int, float), "a number"), "depth": (int, "an integer"),
             "kappa": ((int, type(None)), "an integer or null")}


def _cmd_vw(args):
    specs = []
    if args.config:
        with open(args.config) as fh:
            specs = json.load(fh)
        if not isinstance(specs, list) or not all(
            isinstance(spec, dict) and {"factors", "x", "z", "y"} <= spec.keys()
            for spec in specs
        ):
            raise ValueError("vw config must be a JSON array of instances, "
                             "each with factors, x, z and y")
        for spec in specs:
            for key, (types, kind) in _VW_TYPES.items():
                if key in spec and (not isinstance(spec[key], types)
                                    or isinstance(spec[key], bool)):
                    raise ValueError(f"vw config: {key} = {spec[key]!r} is "
                                     f"not {kind}")
    else:
        if None in (args.x, args.z, args.y):
            raise ValueError("vw-verify needs --x, --z and --y, or --config")
        f = _poly_from_args(args)
        spec = {"factors": [list(p.coeffs) for p in f.factors],
                "x": args.x, "z": args.z, "y": args.y}
        if args.depth is not None:
            spec["depth"] = args.depth
        if args.kappa is not None:
            spec["kappa"] = args.kappa
        specs = [spec]
    records = []
    for spec in specs:
        rec = _vw_one(spec)
        rec["config"] = _config(args)
        records.append(rec)
    _emit(records, args.format, args.out)
    return 0


def _cmd_calpha(args):
    ctx = make_context(args.m)
    if args.prop54 and args.x is None:
        raise ValueError("--prop54 needs --x")
    if args.window:
        try:
            n_str, m_str = args.window.split(",")
            N, M = int(n_str), int(m_str)
        except ValueError:
            raise ValueError("--window wants N,M: two integers") from None
        res = windowed_cassels(ctx, N, M, include_zero=not args.exclude_zero)
    elif args.x is not None:
        res = c_alpha(ctx, args.x)
    else:
        raise ValueError("one of --x / --window is required")
    n, p = res.witnesses.T

    def block(i, j):
        return _str_cells(n[i:j], p[i:j], n[i:j] % p[i:j])

    if args.dump and args.format == "csv":
        _write(args.out, "n,p,cls\n", n.size, block, _csv_row(3))
        return 0
    rec = {k: v for k, v in vars(res).items() if k != "witnesses"}
    if args.prop54:
        rec["prop54"] = asdict(verify_prop54(ctx, args.x))
    rec["config"] = _config(args)
    if args.dump:
        _emit_list(rec, "witnesses", [_slot(0), _slot(1), _slot(2)], n.size,
                   block, args.out)
    else:
        _emit([rec], args.format, args.out)
    return 0


def _cmd_rb(args):
    res = r_b(args.b, args.x)
    if args.dump:
        names = res.dump_columns(0, 0)
        _write(args.out, ",".join(names) + "\n", args.x,
               lambda i, j: _str_cells(*res.dump_columns(i, j).values()),
               _csv_row(len(names)))
        return 0
    rec = {"b": args.b, "x": args.x, "count": res.count, "ratio": res.ratio,
           "config": _config(args)}
    _emit([rec], args.format, args.out)
    return 0


def _cmd_arctan(args):
    res = n_arctan(args.x)
    rec = {"x": args.x, "count": res.count,
           "n1_by_definition": res.n1_by_definition,
           "config": _config(args)}
    _emit([rec], args.format, args.out)
    return 0


def _cmd_verify(args):
    from .acceptance import run_all

    results = run_all(level=args.level)
    records = []
    all_pass = True
    for res in results:
        line = f"criterion {res.cid:>2}: {'PASS' if res.passed else 'FAIL'} - {res.name} ({res.seconds:.1f}s)"
        sys.stdout.write(line + "\n")
        all_pass &= res.passed
        rec = asdict(res)
        rec.pop("seconds")  # volatile; byte-identical output across runs
        rec["config"] = {"level": args.level, "version": __version__}
        records.append(rec)
    if args.out:
        _emit(records, "json", args.out)
    sys.stdout.write("verify: ALL PASS\n" if all_pass else "verify: FAILURES PRESENT\n")
    return 0 if all_pass else 1


class _SchemaAction(argparse.Action):
    """--schema prints the subcommand's column documentation and exits as
    soon as it is parsed, like --help, so required options may be absent."""

    def __init__(self, option_strings, dest, schema, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)
        self.schema = schema

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(json.dumps(self.schema, indent=2, sort_keys=True) + "\n")
        parser.exit()


def _add_common(sp, cmd, poly=False):
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--schema", action=_SchemaAction, schema=_SCHEMAS[cmd],
                    default=argparse.SUPPRESS,
                    help="print column documentation and exit")
    if poly:
        sp.add_argument("--poly", help="polynomial, symbolic or JSON coefficients")
        sp.add_argument("--factors",
                        help="JSON array of coefficient arrays (lowest degree first)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polysmooth",
        description="Smooth values of integer polynomials: exact sieves, "
                    "Dickman rho, bound coefficients, V/W machinery, and the "
                    "quadratic-field / primitive-divisor applications.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("psi", help="exact Psi_f(x, y)")
    _add_common(sp, "psi", poly=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=float)
    sp.add_argument("--u", type=float)
    sp.add_argument("--dump", action="store_true",
                    help="emit the per-n CSV table (n, f(n), pplus, smooth)")
    sp.set_defaults(func=_cmd_psi)

    sp = sub.add_parser("bound", help="closed-form bound coefficients")
    _add_common(sp, "bound")
    sp.add_argument("--d", required=True, help="total degree (comma grid ok)")
    sp.add_argument("--g", required=True, help="factor count (comma grid ok)")
    sp.add_argument("--u", required=True, help="parameter u (comma grid ok)")
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--x", type=float, default=None)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("dickman", help="(u, rho(u)) on a grid")
    _add_common(sp, "dickman")
    sp.add_argument("--u-max", type=float, default=10.0)
    sp.add_argument("--step", type=float, default=0.01)
    sp.set_defaults(func=_cmd_dickman)

    sp = sub.add_parser("omega", help="root counts omega_f(k)")
    _add_common(sp, "omega", poly=True)
    sp.add_argument("--k", required=True, help="modulus (comma grid ok)")
    sp.set_defaults(func=_cmd_omega)

    sp = sub.add_parser("vw-verify", help="V/W reports on instances")
    _add_common(sp, "vw-verify", poly=True)
    sp.add_argument("--config", help="JSON file with an instance array")
    sp.add_argument("--x", type=int)
    sp.add_argument("--z", type=int)
    sp.add_argument("--y", type=float)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--kappa", type=int, default=None,
                    help="also run the recursion-lemma check at this kappa")
    sp.set_defaults(func=_cmd_vw)

    sp = sub.add_parser("calpha", help="unique prime-ideal count in Q(sqrt m)")
    _add_common(sp, "calpha")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--x", type=int)
    sp.add_argument("--window", help="N,M for the windowed count on (N, N+M]")
    sp.add_argument("--exclude-zero", action="store_true",
                    help="start the exclusion range at k = 1 instead of 0 "
                         "(windowed mode only)")
    sp.add_argument("--prop54", action="store_true",
                    help="attach the residual report against x - Psi_f(x,x)")
    sp.add_argument("--dump", action="store_true", help="emit witnesses")
    sp.set_defaults(func=_cmd_calpha)

    sp = sub.add_parser("rb", help="primitive-divisor count R_b(x)")
    _add_common(sp, "rb")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--dump", action="store_true",
                    help="emit the per-n CSV table")
    sp.set_defaults(func=_cmd_rb)

    sp = sub.add_parser("arctan", help="arctangent irreducibility count N(x)")
    _add_common(sp, "arctan")
    sp.add_argument("--x", type=int, required=True)
    sp.set_defaults(func=_cmd_arctan)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(sp, "verify")
    sp.add_argument("--level", choices=["quick", "full"], default="full")
    sp.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
