"""Regenerate expected.json: the hash of the normalized output of every
query any seed can produce, at both scales.  Run it on the commit whose
outputs are the reference, and only there:

    python3 bench/pin.py

Every output is checked against the library's oracles before it is pinned.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def main():
    expected = {}
    for scale in ("toy", "full"):
        for name in workloads.WORKLOADS:
            queries = workloads.all_variants(name, scale)
            res = run_pass({"src": str(BENCH.parent / "src"),
                            "queries": queries, "trace": False,
                            "oracle": True})
            for q, r in zip(queries, res["queries"]):
                if r["error"] or r.get("oracle"):
                    sys.exit(f"not pinned, {q['key']}: {r}")
                expected[q["key"]] = r["sha256"]
            print(f"{scale} {name}: {len(queries)} queries pinned "
                  f"in {res['wall_s']:.1f} s")
    (BENCH / "expected.json").write_text(
        json.dumps(expected, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
