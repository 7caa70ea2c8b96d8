#!/usr/bin/env python3
"""Compare two result logs written by run.py (.bench_out/results.jsonl).

    python3 perfbench/compare.py BASELINE.jsonl CANDIDATE.jsonl

For each workload and untraced metric, prints both medians over the runs in
each log and the candidate's change as a share of the baseline. Result sets
measured on a host with another fingerprint, or with another run length,
are never compared: their workload is reported as "no baseline".
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            host = (rec.get("host") or {}).get("key", "unknown")
            key = (rec["workload"], host, rec["seconds"])
            runs.setdefault(key, []).append(rec["result"])
    return runs


def medians(results):
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return {n: (statistics.median(v), u) for n, (v, u) in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, cand = load(sys.argv[1]), load(sys.argv[2])
    for (workload, host, seconds), results in sorted(cand.items()):
        if (workload, host, seconds) not in base:
            print("%s: no baseline for host %s at %s s" % (workload, host, seconds))
            continue
        b, c = medians(base[(workload, host, seconds)]), medians(results)
        for name, (value, unit) in c.items():
            if name not in b:
                print("%s %s: no baseline" % (workload, name))
                continue
            ref = b[name][0]
            change = (value - ref) / ref if ref else float("nan")
            print("%-10s %-16s %12.6g -> %12.6g %-5s %+7.2f%%" % (
                workload, name, ref, value, unit, 100.0 * change))


if __name__ == "__main__":
    main()
