#!/usr/bin/env python3
"""Tiny-scale smoke run of every perfbench workload, untraced and traced.

    smoke_test.py PERFBENCH_BINARY WORKDIR

Asserts that each run exits 0 with a correct result, that its last
line is the JSON result {correct, attempted, failed, metrics}, and that
every metric listed in BENCHMARK.json is printed, by name and with its
unit, both in that object and in the human-readable table.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def run(binary, workdir, workload, trace):
    wd = os.path.join(workdir, f"{workload}-{trace}")
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    spans = os.path.join(wd, "spans.json")
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.05",
           "--trace", str(trace), "--workdir", wd, "--smoke",
           "--spans-out", spans]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, \
        f"{cmd} exited {p.returncode}:\n{p.stdout}{p.stderr}"
    lines = p.stdout.strip().splitlines()
    return lines, spans


def main():
    binary, workdir = sys.argv[1], sys.argv[2]
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        for trace in (0, 1):
            lines, spans = run(binary, workdir, w["name"], trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = result["metrics"]
            want = expected[trace]
            assert list(got) == [m["name"] for m in want], (w["name"], trace)
            text = "\n".join(lines[:-1])
            for m in want:
                assert got[m["name"]]["unit"] == m["unit"], m
                assert isinstance(got[m["name"]]["value"], (int, float))
                row = re.compile(r"^%s\s+\S+\s+%s$" % (re.escape(m["name"]),
                                                         re.escape(m["unit"])),
                                 re.M)
                assert row.search(text), f"no table row for {m['name']}"
            assert re.search(r"^digest [0-9a-f]{16} ", text, re.M)
            assert re.search(r"^provenance \{", text, re.M)
            if trace:
                assert "per-layer self time" in text
                with open(spans) as f:
                    assert json.load(f)["traceEvents"]
            else:
                assert re.search(r"^failed_ratio 0 ", text, re.M)
            if w["name"] == "paper_mix":
                assert "SIMULATED time" in text
            print(f"ok {w['name']} trace={trace}")
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
