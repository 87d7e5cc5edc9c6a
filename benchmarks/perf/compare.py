"""``run.py --compare OLD NEW``: judge two suite outputs.

Per workload x end-to-end metric: both medians with quartiles, the
delta as a share of OLD's median, the bound from ``BENCHMARK.json`` and
a verdict —

- ``unresolved``  either side's inter-quartile spread exceeds the bound
  (the runs cannot tell a change of that size from noise);
- ``worse`` / ``better``  NEW's median moved past the bound;
- ``same``  otherwise.

Sim metrics and layer counts are exact for a seed, so when both sides
ran the same seeds they are also compared value by value and listed
when they differ.  Per-layer shares and isolated-call timings are
printed as informational deltas.  Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: Counts measured with a host clock: not exact, not compared exactly.
_HOST_COUNTS = ("storage.recover_s",)
_SAME_INPUTS = ("seed", "repeats", "run_seconds", "scale")


def verdict(
    old: dict[str, float], new: dict[str, float], better: str, bound: float
) -> tuple[str, float]:
    """(verdict, delta) for one metric; ``delta`` is (new - old) / old
    on the medians, positive when NEW is larger."""
    base = abs(old["median"])
    delta = (new["median"] - old["median"]) / base if base else 0.0
    for side in (old, new):
        median = abs(side["median"])
        if median and (side["q3"] - side["q1"]) / median > bound:
            return "unresolved", delta
    worse_by = delta if better == "lower" else -delta
    if worse_by > bound:
        return "worse", delta
    if worse_by < -bound:
        return "better", delta
    return "same", delta


def _load(directory: str, name: str) -> dict[str, Any] | None:
    path = Path(directory) / name
    return json.loads(path.read_text()) if path.exists() else None


def main(old_dir: str, new_dir: str, manifest: dict[str, Any]) -> int:
    old, new = _load(old_dir, "e2e.json"), _load(new_dir, "e2e.json")
    if old is None or new is None:
        raise SystemExit("--compare needs an e2e.json in both directories")
    declared = {m["name"]: m for m in manifest["end_to_end"]}
    same_inputs = all(
        old["meta"].get(key) == new["meta"].get(key) for key in _SAME_INPUTS
    )
    print(f"OLD {old_dir}  commit {old['meta']['commit']}")
    print(f"NEW {new_dir}  commit {new['meta']['commit']}")
    if not same_inputs:
        print("inputs differ (seed/repeats/run_seconds/scale): no exact comparison")
    worse = 0
    for name, new_w in new["workloads"].items():
        old_w = old["workloads"].get(name)
        if old_w is None:
            print(f"\n== {name}: not in OLD ==")
            continue
        print(f"\n== {name} ==")
        for metric, entry in declared.items():
            o, n = old_w["metrics"][metric], new_w["metrics"][metric]
            word, delta = verdict(o, n, entry["better"], entry["bound"])
            worse += word == "worse"
            print(
                f"  {metric:<16} {word:<10} "
                f"old {o['median']:.6g} [{o['q1']:.6g}, {o['q3']:.6g}]  "
                f"new {n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}]  "
                f"{delta:+.2%} of old {o['median']:.6g} {entry['unit']}  "
                f"bound {entry['bound']:.1%} ({entry['better']} is better)  "
                f"n={o['n']}/{n['n']}"
            )
        if same_inputs:
            moved = [
                f"{metric} {o_values} -> {n_values}"
                for metric, o_values, n_values in _exact_pairs(old_w, new_w)
                if o_values != n_values
            ]
            print(
                "  sim metrics and layer counts: "
                + ("identical" if not moved else "DIFFER")
            )
            for line in moved:
                print(f"    {line}")
    _layers(old_dir, new_dir)
    print(f"\n{worse} worse")
    return 1 if worse else 0


def _exact_pairs(old_w: dict, new_w: dict):
    for metric, entry in old_w["metrics"].items():
        if metric.startswith("sim_"):
            yield metric, entry["values"], new_w["metrics"][metric]["values"]
    for count, values in old_w["counts"].items():
        if count not in _HOST_COUNTS:
            yield count, values, new_w["counts"].get(count)


def _layers(old_dir: str, new_dir: str) -> None:
    old, new = _load(old_dir, "layers.json"), _load(new_dir, "layers.json")
    if old is None or new is None:
        return
    print("\nper-layer metrics from the traced runs (informational; single runs)")
    for name, new_w in new["workloads"].items():
        old_w = old["workloads"].get(name, {})
        print(f"== {name} ==")
        for metric, n in new_w.items():
            o = old_w.get(metric)
            if o is None or o == n:
                continue
            change = f"{(n - o) / abs(o):+.1%} of old" if o else "from 0"
            print(f"  {metric:<44} old {o:.6g}  new {n:.6g}  {change}")
