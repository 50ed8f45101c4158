"""The benchmark's own self-tests (run with: python3 perfbench/run.py --selftest).

1. Every name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and carries a unit
   and a direction.
2. The C++ self-tests: the streaming oracle equals ReferenceSlidingJoin on a
   small trace and changes when one output is dropped, duplicated or
   altered; the same seed gives a byte-identical trace and reference digest.
3. A seed not used while the benchmark was built runs clean on every
   workload, traced and untraced, and prints exactly the metrics
   BENCHMARK.json names, with their units.
"""
import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FRESH_SEED = 424242


def check(ok, what, failures):
    print(("selftest: ok  : " if ok else "selftest: FAIL: ") + what)
    if not ok:
        failures.append(what)


def main(binary):
    failures = []
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = []
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            names.append(m["name"])
            check(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"]))
                  and m["better"] in ("higher", "lower"),
                  "%s %s has a valid name, unit and direction" % (group, m["name"]),
                  failures)
    check(len(names) == len(set(names)), "metric names are unique", failures)
    for w in bench["workloads"]:
        check(bool(NAME.match(w["name"])), "workload %s has a valid name" % w["name"],
              failures)

    check(subprocess.run([binary, "--selftest"]).returncode == 0,
          "C++ self-tests", failures)

    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [binary, "--workload", w["name"], "--seed", str(FRESH_SEED),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(out.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0 and got == want,
                  "%s --trace %d with fresh seed %d runs clean and prints the "
                  "%s metrics" % (w["name"], trace, FRESH_SEED, group), failures)
            if out.returncode != 0 or result.get("failed") != 0:
                print(out.stdout[-2000:])
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0
