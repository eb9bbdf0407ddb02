"""Command-line front end.

Usage:
    rahman check --p 1,2,3,6
    rahman eval 1 0 1 0 --p 1,2,3,5 --N 1
    rahman table --p 1,2,3,5 --N 2 --format csv
    rahman verify all --p 1,2,3,5 --N 3
    rahman export structure --p 1,2,3,5 --out dump.json

Exit codes: 0 success, 1 verification failure, 2 invalid parameters or
malformed input.  All output is exact rational strings; identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .form import BilinearForm, dual_basis, p_table
from .params import ParameterSet, ValidationError, derive, load_params_file, validate
from .polymodule import lattice
from .polynomials import eval_P
from .scalars import format_rational, parse_integer, parse_rational
from .sl3 import build
from .theorems import run_suites

DEFAULT_MAX_N = 12


def _max_n() -> int:
    raw = os.environ.get("RAHMAN_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return parse_integer(raw)
    except ValueError:
        raise click.UsageError(f"RAHMAN_MAX_N must be an integer, got {raw!r}")


class _Integer(click.ParamType):
    """An int as ``parse_integer`` reads it, so "1_0" and non-ASCII digits
    exit 2 as they do in ``--p``."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return value if type(value) is int else parse_integer(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


_INTEGER = _Integer()


def _resolve_params(p: str | None, params_file: str | None, n: int | None):
    """Combine --p / --params-file / --N into (ParameterSet, N or None)."""
    if p is not None and params_file is not None:
        raise click.UsageError("--p and --params-file are mutually exclusive")
    if params_file is not None:
        try:
            params, file_n = load_params_file(params_file)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"bad parameter file: {exc}")
        if n is None:
            n = file_n
    elif p is not None:
        try:
            values = [parse_rational(x) for x in p.split(",")]
        except ValueError as exc:
            raise click.UsageError(f"bad --p value: {exc}")
        if len(values) != 4:
            raise click.UsageError("--p needs exactly 4 comma-separated rationals")
        params = ParameterSet(*values)
    else:
        raise click.UsageError("provide parameters via --p or --params-file")
    return params, n


def _require_n(n: int | None) -> int:
    """The degree of a command that reads N, held to the ceiling."""
    if n is None:
        raise click.UsageError("this command requires --N")
    if n < 0:
        raise click.UsageError("N must be nonnegative")
    if n > _max_n():
        raise click.UsageError(
            f"N={n} exceeds the ceiling {_max_n()} (override with RAHMAN_MAX_N)"
        )
    return n


class _StdoutFailed(click.ClickException):
    """A write to stdout failed (a full disk, a closed pipe): exit 2 with one
    Error: line, never a traceback or the exit 1 of a failed verification."""

    exit_code = 2


def _drop_stdout() -> None:
    """Point the process's stdout at devnull after a failed write.

    A failed flush keeps its bytes in the stream's buffer, and the flush at
    interpreter exit would fail on them again: an "Exception ignored" report
    on stderr and exit 120.  Any other stream in ``sys.stdout`` is the
    caller's and is left alone."""
    if sys.stdout is not sys.__stdout__:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def _emit(text: str, out: str | None) -> None:
    # Not click.echo: it caches each stdout it sees, keyed by that stream
    # and holding it, so an in-process caller that swaps stdout per call
    # would keep every output alive.
    if out is None:
        try:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
        except OSError as exc:
            _drop_stdout()
            raise _StdoutFailed(f"cannot write to stdout: {exc}")
        return
    try:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write --out file: {exc}")


def _dump_json(data) -> str:
    """``json.dumps(data, indent=2)`` for nested dicts, lists, strs and ints,
    byte for byte.  With an indent ``json.dumps`` runs CPython's pure-Python
    encoder; this is one recursive pass with one ``join`` per container."""
    return _json_value(data, "\n")


_json_string = json.encoder.encode_basestring_ascii


def _json_value(value, newline: str) -> str:
    """``value`` as ``json.dumps`` writes it at the depth whose line break
    and indent are ``newline``."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    deeper = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_json_value(item, deeper) for item in value]
        return "[" + deeper + ("," + deeper).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [_json_string(key) + ": " + _json_value(item, deeper) for key, item in value.items()]
        return "{" + deeper + ("," + deeper).join(items) + newline + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_OPTIONS = {
    "p": click.option("--p", "p", default=None, help="four rationals: 1,2,3,5"),
    "params-file": click.option("--params-file", default=None, type=click.Path(),
                                help='JSON file: {"p": ["1","2","3","5"], "N": 4}'),
    "N": click.option("--N", "n", default=None, type=_INTEGER, help="total degree"),
    "format": click.option("--format", "fmt", default="json",
                           type=click.Choice(["json", "csv"])),
    "out": click.option("--out", default=None, type=click.Path(),
                        help="write output to a file instead of stdout"),
}


def _options(*names):
    """Declare the named ``_OPTIONS`` on a command, in the order given."""
    def declare(command):
        for name in reversed(names):
            command = _OPTIONS[name](command)
        return command
    return declare


@click.group()
def main():
    """Exact verification toolkit for the Rahman polynomial family."""


@main.command()
@_options("p", "params-file", "out")
def check(p, params_file, out):
    """Validate the parameter set against the forbidden combinations.

    The verdict is one line of text; check reads no degree.
    """
    params, _ = _resolve_params(p, params_file, None)
    try:
        validate(params)
    except ValidationError as exc:
        _emit(f"invalid: zero denominator {exc.expression}", out)
        sys.exit(2)
    _emit("ok", out)


@main.command("eval")
@click.argument("a", type=_INTEGER)
@click.argument("b", type=_INTEGER)
@click.argument("c", type=_INTEGER)
@click.argument("d", type=_INTEGER)
@_options("p", "params-file", "N", "out")
def eval_command(a, b, c, d, p, params_file, n, out):
    """Evaluate P(A, B, C, D) at integer arguments; prints one value."""
    params, n = _resolve_params(p, params_file, n)
    n = _require_n(n)
    try:
        value = eval_P(a, b, c, d, derive(params), n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(format_rational(value), out)


@main.command()
@_options("p", "params-file", "N", "format", "out")
def table(p, params_file, n, fmt, out):
    """Emit the full D x D matrix of P values over the index lattice."""
    params, n = _resolve_params(p, params_file, n)
    n = _require_n(n)
    try:
        f = BilinearForm(build(params), n)
    except ValidationError as exc:
        raise click.UsageError(str(exc))
    pairs = [(s, t) for (_, s, t) in lattice(n)]
    rows = [[format_rational(value) for value in row] for row in p_table(f)]
    if fmt == "json":
        _emit(_dump_json({"pairs": [list(x) for x in pairs], "values": rows}), out)
    else:
        header = "s,t," + ",".join(f"P(.|{s};{t})" for s, t in pairs)
        lines = [header]
        for (s, t), row in zip(pairs, rows):
            lines.append(f"{s},{t}," + ",".join(row))
        _emit("\n".join(lines), out)


@main.command()
@click.argument("suites", nargs=-1)
@_options("p", "params-file", "N", "out")
def verify(suites, p, params_file, n, out):
    """Run verification suites; exits 1 if any identity fails.

    SUITES may be "all" (default) or any of: structure, module, form,
    transitions, orthogonality, recurrence, operators.  The reports are
    JSON only.
    """
    params, n = _resolve_params(p, params_file, n)
    n = _require_n(n)
    try:
        reports = run_suites(params, n, list(suites) or ["all"])
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(_dump_json([r.to_json() for r in reports]), out)
    if any(not r.ok for r in reports):
        sys.exit(1)


EXPORT_KINDS = ["structure", "gram", "dual-bases", "lattice"]


@main.command()
@click.argument("what", type=click.Choice(EXPORT_KINDS))
@_options("p", "params-file", "N", "format", "out")
def export(what, p, params_file, n, fmt, out):
    """Export structural matrices, the Gram diagonal, or the dual bases.

    Only ``gram`` has a CSV form; the other kinds are JSON only.
    ``structure`` reads no degree.
    """
    if fmt == "csv" and what != "gram":
        raise click.UsageError(f"export {what} has no CSV form; only export gram does")
    if what == "structure" and n is not None:
        raise click.UsageError("export structure takes no --N; it reads only the parameters")
    params, n = _resolve_params(p, params_file, n)
    if what != "structure":
        n = _require_n(n)
    try:
        s = build(params)
    except ValidationError as exc:
        raise click.UsageError(str(exc))

    if what == "structure":
        data = {
            "U": s.U.to_json(),
            "W": s.W.to_json(),
            "W~": s.Wt.to_json(),
            "R": s.R.to_json(),
            "R^-1": s.Rinv.to_json(),
            "varphi~": s.varphi_t.to_json(),
            "phi~": s.phi_t.to_json(),
            "constants": {
                "t": format_rational(s.d.t),
                "u": format_rational(s.d.u),
                "v": format_rational(s.d.v),
                "w": format_rational(s.d.w),
                "nu": format_rational(s.d.nu),
                "theta": format_rational(s.d.theta),
                "theta~": format_rational(s.d.theta_t),
                "eta": [format_rational(x) for x in s.d.eta],
                "eta~": [format_rational(x) for x in s.d.eta_t],
                "k": [format_rational(x) for x in s.d.k],
                "k~": [format_rational(x) for x in s.d.k_t],
            },
        }
        _emit(_dump_json(data), out)
        return

    f = BilinearForm(s, n)
    if what == "gram":
        if fmt == "csv":
            lines = ["r,s,t,norm_squared"]
            for point, value in zip(lattice(n), f.gram_json()):
                lines.append(",".join(str(x) for x in point) + "," + value)
            _emit("\n".join(lines), out)
        else:
            _emit(_dump_json({"lattice": [list(x) for x in lattice(n)],
                              "gram": f.gram_json()}), out)
    elif what == "dual-bases":
        data = {
            kind: [vector.to_json() for vector in dual_basis(form)]
            for kind, form in (("plain", f), ("tilde", f.dual))
        }
        _emit(_dump_json(data), out)
    elif what == "lattice":
        _emit(_dump_json([list(x) for x in lattice(n)]), out)


if __name__ == "__main__":
    main()
