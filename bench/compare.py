"""Compare two ``run.json`` files: ``python3 bench/compare.py A.json B.json``.

A is the base (the parent commit, or the first set of an A/A check), B
the candidate.  For every workload × end-to-end metric it prints both
medians, both quartile pairs, the ratio B/A with its base, and a
verdict against the bound in ``BENCHMARK.json``:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    it is worse by more than the bound.
``unresolved``
    a side's interquartile range, as a share of its median, is wider
    than the bound, so the medians cannot be told apart either way
    (unless every run of B reads better than every run of A, which is
    ``ok``): run again on a quieter machine.

``failed_share`` is absolute: B may not exceed A by more than 0.001.
Exit status is 1 on any ``regressed``, 2 when the two runs were not
made from the same workload (their fingerprints differ), else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fingerprint fields two runs must share to be comparable.
COMPARED = ("seed", "seconds", "scale", "clients", "workers", "nproc", "python", "sha256")
FAILED_SHARE_BOUND = 0.001


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fingerprint_mismatch(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return [
        field for field in COMPARED
        if a["fingerprint"].get(field) != b["fingerprint"].get(field)
    ]


def verdict(
    base: Sequence[float], cand: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, ratio cand/base)`` for one workload × metric."""
    base_q1, base_med, base_q3 = quartiles(base)
    cand_q1, cand_med, cand_q3 = quartiles(cand)
    ratio = cand_med / base_med
    spread = max((base_q3 - base_q1) / base_med, (cand_q3 - cand_q1) / cand_med)
    if spread > bound:
        if better == "lower":
            dominates = max(cand) < min(base)
        else:
            dominates = min(cand) > max(base)
        return ("ok" if dominates else "unresolved"), ratio
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ("regressed" if worse > bound else "ok"), ratio


def _values(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in document["workloads"][workload]["runs"]]


def compare(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            base = _values(a, workload, metric["name"])
            cand = _values(b, workload, metric["name"])
            outcome, ratio = verdict(base, cand, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                    "base": quartiles(base), "cand": quartiles(cand), "ratio": ratio,
                    "bound": metric["bound"], "verdict": outcome,
                }
            )
        base_failed = statistics.median(_values(a, workload, "failed_share"))
        cand_failed = statistics.median(_values(b, workload, "failed_share"))
        rows.append(
            {
                "workload": workload, "metric": "failed_share", "unit": "ratio",
                "base": (base_failed,) * 3, "cand": (cand_failed,) * 3, "ratio": None,
                "bound": FAILED_SHARE_BOUND,
                "verdict": "regressed"
                if cand_failed - base_failed > FAILED_SHARE_BOUND else "ok",
            }
        )
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        "%-14s %-15s %-5s %12s %25s %12s %25s %16s  %s"
        % ("workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3",
           "B/A (base A)", "verdict")
    ]
    for row in rows:
        a_q1, a_med, a_q3 = row["base"]
        b_q1, b_med, b_q3 = row["cand"]
        ratio = "-" if row["ratio"] is None else "%.3f of %.5g" % (row["ratio"], a_med)
        lines.append(
            "%-14s %-15s %-5s %12.5g %25s %12.5g %25s %16s  %s"
            % (row["workload"], row["metric"], row["unit"], a_med,
               "%.5g..%.5g" % (a_q1, a_q3), b_med, "%.5g..%.5g" % (b_q1, b_q3),
               ratio, row["verdict"])
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    mismatch = fingerprint_mismatch(a, b)
    if mismatch:
        print(
            "refusing to compare: the runs differ in %s, so they did not measure "
            "the same workload" % ", ".join(mismatch),
            file=sys.stderr,
        )
        return 2
    rows = compare(spec, a, b)
    print(render(rows))
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(
        "%d compared, %d regressed, %d unresolved"
        % (len(rows), len(regressed), len(unresolved))
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
