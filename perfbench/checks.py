"""Output checks, run after each batch, outside the timed region.

``judge`` returns None when a request's outcome is right, else a one-line
reason.  Wrong exit codes, tracebacks and wrong outputs all count as
failures.  Values are compared with ``eval_P``, the defining sum, on a
seeded sample.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from rahman.params import ParameterSet, derive
from rahman.polynomials import eval_P

from workloads import lattice_pairs, rational_text

# Report names and ``checked`` counts of ``rahman verify all`` for N = 1..4,
# which depend only on N.  Recorded at the commit that introduced this
# benchmark; the workload uses N = 2, the tests N = 1.  A suite's reports
# are those whose names start with the suite's name.
_SUITE_COUNTS = {
    "structure.matrices": (5, 5, 5, 5),
    "structure.dagger": (113, 113, 113, 113),
    "structure.expansions": (4, 4, 4, 4),
    "structure.generation": (6, 6, 6, 6),
    "module.action_tables.N{n}": (48, 96, 160, 240),
    "module.representation.N{n}": (36, 36, 36, 36),
    "module.weights.N{n}": (4, 4, 4, 4),
    "module.block_structure.N{n}": (0, 48, 216, 600),
    "module.irreducibility.N{n}": (1, 1, 1, 1),
    "form.adjointness.N{n}": (72, 288, 800, 1800),
    "form.tilde_norms.N{n}": (6, 21, 55, 120),
    "form.dual_sums.N{n}": (20, 74, 202, 452),
    "transitions.trans1.N{n}": (9, 36, 100, 225),
    "transitions.trans2.N{n}": (9, 36, 100, 225),
    "transitions.pcosines.N{n}": (9, 36, 100, 225),
    "orthogonality.N{n}": (18, 72, 200, 450),
    "recurrences.N{n}": (180, 576, 1360, 2700),
    "operators.N{n}": (6, 12, 20, 30),
}
EXPECTED_REPORTS = {
    n: [(name.format(n=n), counts[n - 1]) for name, counts in _SUITE_COUNTS.items()]
    for n in (1, 2, 3, 4)
}

TABLE_SAMPLES = 6          # entries of each table compared with eval_P
EVAL_SAMPLE_SHARE = 1 / 8  # share of eval requests compared with eval_P

EXPORT_KEYS = {"U", "W", "W~", "R", "R^-1", "varphi~", "phi~", "constants"}


class Checker:
    """Judges outcomes; the seed picks the sampled entries and requests."""

    def __init__(self, seed: int):
        self.seed = seed
        self.derived: dict = {}

    def _rng(self, request) -> random.Random:
        return random.Random(f"{self.seed} {' '.join(request.argv)}")

    def value(self, p: tuple, a: int, b: int, c: int, d: int, n: int) -> Fraction:
        if p not in self.derived:
            self.derived[p] = derive(ParameterSet.of(*p))
        return eval_P(a, b, c, d, self.derived[p], n)

    def judge(self, request, outcome) -> str | None:
        code, out, traceback = outcome
        if traceback:
            return f"traceback: {traceback}"
        if code != request.expect_exit:
            return f"exit {code}, expected {request.expect_exit}"
        if request.kind == "invalid":
            return None
        try:
            return getattr(self, "_" + request.kind)(request, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output: {exc!r}"

    def _verify(self, request, out):
        reports = json.loads(out)
        got = [(r["name"], r["checked"]) for r in reports]
        suite = request.detail[0] if request.detail else "all"
        expected = [(name, count) for name, count in EXPECTED_REPORTS[request.n]
                    if suite == "all" or name.startswith(suite)]
        if got != expected:
            return f"reports {got} differ from {expected}"
        failed = [r["name"] for r in reports if r["status"] != "pass"]
        return f"failed reports {failed}" if failed else None

    def table_sample(self, request) -> list:
        """Row and column indices of the entries compared with ``eval_P``."""
        dim = (request.n + 1) * (request.n + 2) // 2
        rng = self._rng(request)
        return [(rng.randrange(dim), rng.randrange(dim)) for _ in range(TABLE_SAMPLES)]

    def _table(self, request, out):
        n = request.n
        pairs = lattice_pairs(n)
        if request.detail[0] == "json":
            data = json.loads(out)
            got_pairs = [tuple(x) for x in data["pairs"]]
            rows = data["values"]
        else:
            lines = list(csv.reader(io.StringIO(out)))
            got_pairs = [(int(line[0]), int(line[1])) for line in lines[1:]]
            rows = [line[2:] for line in lines[1:]]
        if got_pairs != pairs or [len(row) for row in rows] != [len(pairs)] * len(pairs):
            return f"table shape differs from the N={n} lattice"
        for i, j in self.table_sample(request):
            expected = rational_text(self.value(request.p, *pairs[i], *pairs[j], n))
            if rows[i][j] != expected:
                return f"entry {pairs[i]},{pairs[j]} is {rows[i][j]}, expected {expected}"
        return None

    def _eval(self, request, out):
        if self._rng(request).random() >= EVAL_SAMPLE_SHARE:
            return None
        expected = rational_text(self.value(request.p, *request.detail, request.n))
        got = out.strip()
        return None if got == expected else f"value {got}, expected {expected}"

    def _check(self, request, out):
        return None if out == "ok\n" else f"output {out!r}, expected 'ok'"

    def _export(self, request, out):
        what = request.detail[0]
        if what == "structure":
            keys = set(json.loads(out))
            return None if keys == EXPORT_KEYS else f"structure keys {sorted(keys)}"
        dim = (request.n + 1) * (request.n + 2) // 2
        if what == "gram":
            if request.detail[1] == "csv":
                length = len(out.strip().splitlines()) - 1
            else:
                data = json.loads(out)
                length = len(data["gram"]) if len(data["lattice"]) == dim else -1
        elif what == "dual-bases":
            data = json.loads(out)
            lengths = {len(data["plain"]), len(data["tilde"])}
            length = lengths.pop() if len(lengths) == 1 else -1
        else:
            points = json.loads(out)
            length = len(points) if all(sum(x) == request.n for x in points) else -1
        return None if length == dim else f"{what} has {length} entries, expected {dim}"
