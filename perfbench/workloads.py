"""Seeded request batches for the three workloads.

A workload is one batch: a list of ``Request`` objects, each one ``rahman``
command line, which a run repeats in rounds (see run.py).  Everything is
drawn from ``random.Random(seed)``, so the same seed gives the same batch.
The composition of a batch (how many requests of each kind and degree) is
fixed; the seed chooses parameters, arguments and order.  That keeps the
work per batch comparable between seeds while the inputs differ.

Every request is short (at most about 0.6 s on a 2-core host), because a
run reports each request's fastest round, and only short requests ever
run wholly in a quiet moment of a shared host.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from rahman.params import ParameterSet, ValidationError, validate

# Parameters are p_i = +-a/b with 1 <= a <= 5 and 1 <= b <= 2, so negative
# and non-integer values both occur; draws that hit a forbidden
# combination are rejected by ``validate``.
MAX_NUMERATOR = 5
MAX_DENOMINATOR = 2

# verify: each suite of ``verify all`` as its own request, at N=2 on four
# parameter sets per batch: 28 requests of 0.01-0.15 s.  ``verify all`` at
# N=2 is one 0.6 s request; at N=3 it takes 3-4 s and at N=4 15-25 s, too
# long for the probes around a request to tell the host's speed during it.
VERIFY_DEGREE = 2
VERIFY_PARAMETER_SETS = 4
VERIFY_SUITES = ("structure", "module", "form", "transitions", "orthogonality",
                 "recurrence", "operators")

# table: four json and four csv tables at N=3 per batch, about 0.15 s each.
TABLE_DEGREE = 3
TABLE_FORMATS = ("json", "csv") * 4

# queries: 100 requests per batch, about 2-3 s.  The 14 evaluations at
# N >= 9 are the slowest 14 %, so the 90th percentile falls inside the
# eight at N=9; the exports, checks and small evaluations hold the median.
# One evaluation at the ceiling N=12 takes 0.2-0.3 s, so only one is in a
# batch: more would leave too few rounds in a run.
EVAL_DEGREES = [12] + [11] * 2 + [10] * 3 + [9] * 8 + list(range(1, 9)) * 3 + list(range(2, 9))
CHECKS_PER_BATCH = 10
EXPORTS_PER_BATCH = {"structure": 8, "gram": 9, "dual-bases": 9, "lattice": 9}
MAX_QUERY_N = 12
# Half of the requests take their parameters from a pool of four sets, so
# a (p, N) pair recurs; the other half draw fresh parameters.
POOL_SIZE = 4
POOL_SHARE = 0.5

# Malformed inputs; the contract answer to each is exit 2 without a
# traceback.  The defects listed under ROADMAP item 5 exit 0 or 1 at the
# commit that introduced this benchmark; their failures count in
# ``failed`` but leave ``correct`` true.  Any other failure makes it false.
KNOWN_DEFECT_KINDS = (
    "zero-denominator-param",
    "params-file-list",
    "params-file-scalar-p",
    "params-file-fractional-n",
    "out-missing-dir",
    "eval-off-lattice",
)
INVALID_KINDS = (
    "forbidden-params",
    "n-above-ceiling",
    "three-params",
    "unknown-suite",
    *KNOWN_DEFECT_KINDS,
)

WORKLOADS = ("verify", "table", "queries")


@dataclass(frozen=True)
class Request:
    """One command line, with what the checker needs to judge its output."""

    kind: str                  # verify | table | eval | check | export | invalid
    argv: tuple
    expect_exit: int = 0
    p: tuple | None = None     # the four parameters, as Fractions
    n: int | None = None
    detail: tuple = field(default=())  # suite, eval args, table format, export kind


def rational_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def p_option(p) -> str:
    return ",".join(rational_text(x) for x in p)


def draw_params(rng: random.Random) -> tuple:
    """Four rationals that pass ``validate``."""
    while True:
        p = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, MAX_NUMERATOR),
                     rng.randint(1, MAX_DENOMINATOR))
            for _ in range(4)
        )
        try:
            validate(ParameterSet(*p))
        except ValidationError:
            continue
        return p


def lattice_pairs(n: int) -> list:
    """(s, t) with s + t <= n, in the order ``rahman`` lists the lattice."""
    return [(s, n - r - s) for r in range(n, -1, -1) for s in range(n - r, -1, -1)]


def verify_batch(seed: int) -> list:
    rng = random.Random(seed)
    batch = []
    for _ in range(VERIFY_PARAMETER_SETS):
        p = draw_params(rng)
        for suite in VERIFY_SUITES:
            argv = ("verify", suite, "--p", p_option(p), "--N", str(VERIFY_DEGREE))
            batch.append(Request("verify", argv, p=p, n=VERIFY_DEGREE, detail=(suite,)))
    return batch


def table_batch(seed: int) -> list:
    rng = random.Random(seed)
    batch = []
    for fmt in TABLE_FORMATS:
        p = draw_params(rng)
        argv = ("table", "--p", p_option(p), "--N", str(TABLE_DEGREE), "--format", fmt)
        batch.append(Request("table", argv, p=p, n=TABLE_DEGREE, detail=(fmt,)))
    return batch


def query_batch(seed: int, workdir: str) -> list:
    """100 small requests; ``workdir`` holds parameter files."""
    rng = random.Random(seed)
    pool = [draw_params(rng) for _ in range(POOL_SIZE)]
    files = _write_param_files(workdir)

    def params():
        return rng.choice(pool) if rng.random() < POOL_SHARE else draw_params(rng)

    batch = []
    for n in EVAL_DEGREES:
        p = params()
        (a, b), (c, d) = rng.choice(lattice_pairs(n)), rng.choice(lattice_pairs(n))
        args = (a, b, c, d)
        batch.append(Request("eval", ("eval", *map(str, args), "--p", p_option(p), "--N", str(n)),
                             p=p, n=n, detail=args))
    for _ in range(CHECKS_PER_BATCH):
        p = params()
        batch.append(Request("check", ("check", "--p", p_option(p)), p=p))
    for what, count in EXPORTS_PER_BATCH.items():
        for _ in range(count):
            p = params()
            if what == "structure":
                batch.append(Request("export", ("export", what, "--p", p_option(p)),
                                     p=p, detail=(what,)))
                continue
            n = rng.randint(1, MAX_QUERY_N)
            fmt = rng.choice(("json", "csv")) if what == "gram" else "json"
            argv = ("export", what, "--p", p_option(p), "--N", str(n), "--format", fmt)
            batch.append(Request("export", argv, p=p, n=n, detail=(what, fmt)))
    for kind in INVALID_KINDS:
        batch.append(_invalid(kind, rng, files))
    rng.shuffle(batch)
    return batch


def _write_param_files(workdir: str) -> dict:
    contents = {
        "params-file-list": ["1", "2", "3", "5"],
        "params-file-scalar-p": {"p": 5, "N": 2},
        "params-file-fractional-n": {"p": ["1", "2", "3", "5"], "N": 2.7},
    }
    paths = {}
    for kind, data in contents.items():
        paths[kind] = os.path.join(workdir, kind + ".json")
        with open(paths[kind], "w") as handle:
            json.dump(data, handle)
    paths["out-missing-dir"] = os.path.join(workdir, "missing", "out.json")
    return paths


def _invalid(kind: str, rng: random.Random, files: dict) -> Request:
    p = draw_params(rng)
    text = p_option(p)
    if kind == "forbidden-params":
        argv = ("check", "--p", p_option((p[0], -p[0], p[2], p[3])))
    elif kind == "n-above-ceiling":
        argv = ("eval", "0", "0", "0", "0", "--p", text, "--N", str(MAX_QUERY_N + 1))
    elif kind == "three-params":
        argv = ("table", "--p", p_option(p[:3]), "--N", "2")
    elif kind == "unknown-suite":
        argv = ("verify", "everything", "--p", text, "--N", "1")
    elif kind == "zero-denominator-param":
        argv = ("check", "--p", "1/0," + p_option(p[1:]))
    elif kind.startswith("params-file"):
        command = ("table",) if kind == "params-file-fractional-n" else ("check",)
        argv = (*command, "--params-file", files[kind])
    elif kind == "out-missing-dir":
        argv = ("export", "lattice", "--p", text, "--N", "2", "--out", files[kind])
    elif kind == "eval-off-lattice":
        argv = ("eval", "5", "0", "0", "0", "--p", text, "--N", "2")
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return Request("invalid", argv, expect_exit=2, detail=(kind,))


def batch(workload: str, seed: int, workdir: str) -> list:
    if workload == "verify":
        return verify_batch(seed)
    if workload == "table":
        return table_batch(seed)
    if workload == "queries":
        return query_batch(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def known_defect(request) -> bool:
    """Whether ``request`` is malformed input of a known, unfixed defect."""
    return request.kind == "invalid" and request.detail[0] in KNOWN_DEFECT_KINDS


def pair_repeat_share(requests) -> float:
    """Share of requests with parameters whose (p, N) pair came earlier."""
    seen = set()
    repeats = total = 0
    for request in requests:
        if request.p is None:
            continue
        key = (request.p, request.n)
        total += 1
        repeats += key in seen
        seen.add(key)
    return repeats / total if total else 0.0
