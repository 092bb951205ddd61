"""Compare two sets of saved results, per workload and metric.

    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

``RESULTS_A``/``RESULTS_B`` are directories of results saved by ``run.py``
(``--results DIR``), typically the parent commit and a change.  For every
workload and metric the table gives both medians, the delta of B against A,
the unit and the bound from ``BENCHMARK.json`` (``-`` for the ungated
metrics).  A delta no larger than the
run-to-run spread (the wider inter-quartile range of the two sets, as a
share of its median) is ``unresolved`` unless every run of one set beats
every run of the other; a worsening beyond the bound is a ``REGRESSION``.
A workload whose two sets ran with different ``--seconds`` is refused, since
the amount of work differs; results from different hosts are flagged, since
their numbers are not comparable.
"""

from __future__ import annotations

import json
from pathlib import Path

from meta import HOST_FIELDS, median, spread
from workloads import UNGATED


def load_results(path: Path) -> dict:
    """Correct, untraced results under ``path``, grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for file in sorted([path] if path.is_file() else path.rglob("*.json")):
        try:
            result = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(result, dict) and result.get("trace") == 0 and result.get("correct"):
            grouped.setdefault(result["workload"], []).append(result)
    return grouped


def _verdict(a: list, b: list, better: str, bound: "float | None") -> tuple[float, str]:
    ma, mb = median(a), median(b)
    delta = (mb - ma) / abs(ma) if ma else float("inf") if mb != ma else 0.0
    improved = delta < 0 if better == "lower" else delta > 0
    separated = max(b) < min(a) or min(b) > max(a)
    if abs(delta) <= max(spread(a), spread(b)) and not separated:
        return delta, "unresolved"
    if improved:
        return delta, "better"
    return delta, "REGRESSION" if bound is not None and abs(delta) > bound else "worse"


def _host_differences(a: dict, b: dict) -> list[str]:
    hosts = {
        label: {tuple((r["host"].get(f) for f in HOST_FIELDS)) for rs in group.values() for r in rs}
        for label, group in (("A", a), ("B", b))
    }
    if len(hosts["A"] | hosts["B"]) <= 1:
        return []
    return [f"{label}: {dict(zip(HOST_FIELDS, h))}" for label in "AB" for h in sorted(hosts[label], key=str)]


def compare(path_a: Path, path_b: Path, bench: dict) -> int:
    a, b = load_results(path_a), load_results(path_b)
    if not a or not b:
        print(f"error: no correct untraced results under {path_a if not a else path_b}")
        return 1
    differences = _host_differences(a, b)
    if differences:
        print("warning: the result sets come from different hosts; deltas are not comparable")
        for line in differences:
            print(f"  {line}")
    rows = [(m["name"], m["unit"], m["better"], m["bound"], "metrics") for m in bench["end_to_end"]]
    rows += [(name, unit, better, None, "ungated_metrics") for name, (unit, better) in UNGATED.items()]
    header = (
        f"{'workload':<16} {'metric':<20} {'unit':<6} {'median A':>12} {'median B':>12} "
        f"{'delta':>8} {'bound':>6}  verdict (runs A/B)"
    )
    print(header)
    print("-" * len(header))
    regressions = refused = 0
    for workload in sorted(set(a) & set(b)):
        lengths = sorted({r["seconds"] for r in a[workload] + b[workload]})
        if len(lengths) > 1:
            print(f"{workload:<16} refused: the sets ran with different --seconds {lengths}")
            refused += 1
            continue
        for name, unit, better, bound, key in rows:
            va = [r[key][name] for r in a[workload] if name in r.get(key, {})]
            vb = [r[key][name] for r in b[workload] if name in r.get(key, {})]
            if not va or not vb:
                continue
            delta, verdict = _verdict(va, vb, better, bound)
            regressions += verdict == "REGRESSION"
            shown = "-" if bound is None else f"{bound:.0%}"
            print(
                f"{workload:<16} {name:<20} {unit:<6} {median(va):>12.6g} "
                f"{median(vb):>12.6g} {delta:>+8.1%} {shown:>6}  "
                f"{verdict} ({len(va)}/{len(vb)})"
            )
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"workloads in only one set: {', '.join(only)}")
    print(f"{regressions} regression(s) beyond the bound")
    return 1 if refused else 0
