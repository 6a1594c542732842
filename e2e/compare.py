#!/usr/bin/env python3
"""Compare two result files written by e2e.exe (under .e2e/ by default).

    python3 e2e/compare.py .e2e/serve-hot-seed42.json new/serve-hot-seed42.json

For each metric it prints both values and the relative change.  An
end-to-end metric is flagged WORSE when it moved in its bad direction by
more than its bound in BENCHMARK.json; per-layer metrics have no bound.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    old, new = (json.load(open(p)) for p in sys.argv[1:])
    for name, m in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], m["value"]
        change = (b - a) / a if a else 0.0
        spec = declared.get(name, {})
        worse = change if spec.get("better") == "lower" else -change
        verdict = ""
        if "bound" in spec:
            verdict = "WORSE" if worse > spec["bound"] else "ok"
        print(f"{name:32s} {a:14.4f} {b:14.4f} {100 * change:+8.2f}% {verdict}")


if __name__ == "__main__":
    main()
