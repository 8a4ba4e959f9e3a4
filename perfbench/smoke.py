#!/usr/bin/env python3
"""The benchmark's own smoke test.

usage (from the repository root): python3 perfbench/smoke.py

Builds perfbench_e2e like run.py does, runs every workload at a tiny size in
both modes and checks that
  * every check passes (error_rate 0, correct true);
  * every metric BENCHMARK.json names for the mode is printed, with its unit;
  * the traced solve workloads account for their solve wall time within the
    benchmark's stated tolerance;
  * with a deliberately corrupted reference, the corrupted checks are
    reported as failures and none of their times is counted.
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["sw-dp", "sweep3d-tasks", "service-mix"]
SOLVE_WORKLOADS = ["sw-dp", "sweep3d-tasks"]


def invoke(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "5", "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny", *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (cmd, r.returncode, r.stderr))
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    binary = run.build()
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            meta, res = invoke(binary, w, trace)
            tag = "%s trace=%d" % (w, trace)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                   and meta["error_rate"] == 0, tag + ": error_rate 0")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == declared[trace],
                   tag + ": metrics and units match BENCHMARK.json")
            if trace == 1 and w in SOLVE_WORKLOADS:
                share = res["metrics"]["bench.unaccounted_share"]["value"]
                expect(0 <= share <= meta["accounting_tolerance"],
                       tag + ": spans account for the solve (%.4f)" % share)

        # Every second check compares against a corrupted reference.
        meta, res = invoke(binary, w, 0, "--corrupt-every", "2")
        passed = res["attempted"] - res["failed"]
        timed = meta["samples"]["setup_s"] + meta["samples"]["latency_s_p50"]
        expect(not res["correct"] and res["failed"] == res["attempted"] // 2,
               w + ": corrupted references are reported as failures")
        expect(timed == passed, w + ": only checked results are timed "
               "(%d timed, %d passed)" % (timed, passed))

    print("smoke: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
