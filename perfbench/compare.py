#!/usr/bin/env python3
"""Collect, summarise and compare benchmark result sets.

A result set is a JSONL file; each line is one run:
    {"workload": W, "seed": N, "trace": 0|1, "result": {...driver JSON...}}

  collect OUT.jsonl[=CHECKOUT] [...] [--workloads W,...] [--seeds 1-10]
          [--trace 0|1]
      Runs the benchmark for every (workload, seed) in each checkout
      (default: the current directory) and appends the results. Every
      run lasts BENCHMARK.json's run_seconds. With two or more
      checkouts the runs alternate, and the order flips on every other
      seed, so neither side always runs first.

  spread SET.jsonl
      Per (workload, metric): median, quartiles and the quartile spread
      as a share of the median, against the metric's bound.

  compare PARENT.jsonl CHANGE.jsonl
      One row per (workload, metric): both medians and quartiles and a
      verdict. A gain ("improved") needs the change to win at least
      9/10 of the runs paired by seed and the medians to differ by more
      than the parent's quartile spread. Otherwise, when either side's
      quartile spread is wider than the bound, the verdict is
      "unresolved" unless every change run beats every parent run;
      "worse" means the change's median is worse than the parent's by
      more than the bound; everything else is "unchanged". Per-layer
      metrics have no bound and are never "worse".

      The model numbers and exact counts (DETERMINISTIC below) are not
      noisy: each seed gives one exact value. They are paired by seed
      instead, and read "identical" when every paired value is equal
      and "changed" when any differs. A host-only change must leave
      them identical.

      Exits 1 when any verdict is "worse" or "changed".

Bounds, directions and run length come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics that are exact for a given seed: the model clock's numbers
# and the counts that explain them.
DETERMINISTIC = {
    "model_s", "model_p50_ms", "model_tail_ms",
    "core.launches", "core.spmv_launches", "core.semiring_ops",
    "apps.iterations", "upmem.dpu_cycles", "upmem.issued_cycles",
    "upmem.max_cycles", "serve.batches", "serve.solo_ppr_batches",
    "serve.mean_batch_size", "serve.max_queue_depth",
    "serve.admission_rejects",
}


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args, spec):
    targets = []
    for item in args.sets:
        out, _, checkout = item.partition("=")
        targets.append((os.path.abspath(out), os.path.abspath(checkout or ".")))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = str(spec["run_seconds"])
    status = 0
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = targets if i % 2 == 0 else targets[::-1]
            for out, checkout in order:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", seconds, "--trace", args.trace]
                proc = subprocess.run(cmd, cwd=checkout,
                                      stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d in %s: exit %d" % (
                        workload, seed, checkout, proc.returncode),
                        file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                with open(out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "trace": int(args.trace),
                                        "result": result}) + "\n")
                print("%s seed %d -> %s" % (workload, seed, out),
                      file=sys.stderr)
    return status


def load_set(path):
    """{(workload, trace): {metric: {seed: value}}}"""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, {})[rec["seed"]] = \
                    m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def rel_spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound):
    """parent/change: {seed: value}; bound None for per-layer metrics."""
    sign = 1 if better == "higher" else -1
    p, c = list(parent.values()), list(change.values())
    pm, cm = statistics.median(p), statistics.median(c)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    q1, q3 = quartiles(p)
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - pm) > q3 - q1:
        return "improved"
    if bound is None:
        return "unchanged"
    all_better = all(sign * (x - y) > 0 for x in c for y in p)
    if not all_better and (rel_spread(p) > bound or rel_spread(c) > bound):
        return "unresolved"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    return "unchanged"


def model_verdict(parent, change):
    """Exact per-seed values: any difference on a common seed is a
    model change."""
    seeds = set(parent) & set(change)
    if not seeds:
        return "unresolved"
    if any(parent[s] != change[s] for s in seeds):
        return "changed"
    return "identical"


def spread(args, spec):
    runs = load_set(args.set)
    print("%-18s %-26s %5s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread",
        "bound"))
    worst = 0
    for (workload, trace), metrics in sorted(runs.items()):
        specs = metric_specs(spec, trace)
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            q1, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            rs = rel_spread(values)
            flag = ""
            if bound is not None and rs > bound / 3:
                flag = "  > bound/3"
                worst = 1
            print("%-18s %-26s %5d %14.6g %14.6g %14.6g %7.1f%% %6s%s" % (
                workload, name, len(values), statistics.median(values), q1,
                q3, 100 * rs, "" if bound is None else bound, flag))
    return worst


def compare(args, spec):
    parent, change = load_set(args.parent), load_set(args.change)
    print("%-18s %-26s %12s %12s %12s | %12s %12s %12s  %s" % (
        "workload", "metric", "parent.med", "q1", "q3", "change.med", "q1",
        "q3", "verdict"))
    failing = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        specs = metric_specs(spec, trace)
        for name in specs:
            if name not in parent[key] or name not in change[key]:
                continue
            p, c = parent[key][name], change[key][name]
            if name in DETERMINISTIC:
                v = model_verdict(p, c)
            else:
                v = verdict(p, c, specs[name]["better"],
                            specs[name].get("bound"))
            failing |= v in ("worse", "changed")
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print("%-18s %-26s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s"
                  % (workload, name, statistics.median(p.values()), pq[0],
                     pq[1], statistics.median(c.values()), cq[0], cq[1], v))
    return 1 if failing else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("sets", nargs="+", metavar="OUT.jsonl[=CHECKOUT]")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", choices=["0", "1"], default="0")
    s = sub.add_parser("spread")
    s.add_argument("set")
    m = sub.add_parser("compare")
    m.add_argument("parent")
    m.add_argument("change")
    args = ap.parse_args()
    spec = load_spec()
    return {"collect": collect, "spread": spread, "compare": compare}[
        args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
