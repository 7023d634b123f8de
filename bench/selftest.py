"""Self-test of the benchmark at toy scale (about a minute):

    python3 bench/selftest.py

It checks that
- every workload runs with error_rate 0 on the reference commit;
- the untraced result line names every end_to_end metric of BENCHMARK.json
  with its unit, and the traced one every per_layer metric;
- two traced runs give identical counts (calls, n sieved, output bytes);
- a corrupted expectation is counted as a failure, so the gate is not
  vacuous.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTS  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise SelfTestFailure(msg)


def command(trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "all",
            "--scale", "toy", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    expect(done.returncode == 0, f"exit {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def expect_metrics(result, spec):
    for m in spec:
        names = (["setup_s"] if m["name"] == "setup_s" else
                 [f"{w}.{m['name']}" for w in workloads.WORKLOADS])
        for name in names:
            expect(name in result["metrics"], f"{name} not printed")
            expect(result["metrics"][name]["unit"] == m["unit"],
                   f"{name}: unit {result['metrics'][name]['unit']}, "
                   f"want {m['unit']}")


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    plain = command(0)
    expect(plain["failed"] == 0 and plain["correct"],
           f"error_rate {plain['failed']}/{plain['attempted']} on toy scale")
    expect_metrics(plain, spec["end_to_end"])
    print(f"untraced: {plain['attempted']} queries, 0 failed, "
          f"{len(spec['end_to_end'])} end-to-end metrics printed")

    traced = [command(1), command(1)]
    for res in traced:
        expect(res["failed"] == 0, "traced run failed a query")
        expect_metrics(res, spec["per_layer"])
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if k.split(".", 1)[1] in COUNTS} for res in traced]
    expect(counts[0] == counts[1], f"counts differ: {counts}")
    print(f"traced: {len(spec['per_layer'])} per-layer metrics printed, "
          f"{len(counts[0])} counts identical across two runs")

    expected = run.load_expected()
    victim = workloads.queries("sieve-smooth", 0, "toy")[1]["key"]
    expected[victim] = "0" * 64
    res = run.run_workload("sieve-smooth", 0, 0, False, scale="toy",
                           expected=expected, log=io.StringIO())
    passes = len(res["walls"])
    expect(res["failed"] == passes,
           f"corrupted expectation: {res['failed']} failures in {passes} "
           f"passes")
    print(f"corrupted expectation counted as {res['failed']} failures "
          f"in {passes} passes")
    print("selftest: OK")


if __name__ == "__main__":
    try:
        main()
    except SelfTestFailure as e:
        sys.exit(f"selftest: FAILED: {e}")
