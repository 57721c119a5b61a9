#!/usr/bin/env python3
"""Compare the benchmark of two trees: a base revision against a change.

  tools/perfbench_ab.py [--base REV] [--change REV] [--seeds N]
                        [--scratch DIR] [--claim WORKLOAD:METRIC]

Run from anywhere inside the repository. The base revision (default
HEAD) is exported with `git archive` into a scratch directory; the change
is the working tree (tracked and untracked files git does not ignore),
copied beside it, or another revision exported the same way with
--change (`--base HEAD --change HEAD` is an A/A run, which shows the
host's noise floor). Each copy builds its own .bench_build/.

The benchmark command and its run length come from BENCHMARK.json. For
every workload and seed 1..N the two copies run alternately, in ABBA
order (the first pair runs base then change, the next change then base,
and so on), after one discarded small warm-up run per copy that also
builds it.

For each workload and end-to-end metric the output gives both medians,
both spreads (interquartile range / median) and the change/base ratio of
the medians, and a verdict; under peak_rss_mb it also gives the medians
of the report facts that say which phase set the peak (PHASE_FACTS:
the peak after set-up and after the rounds; the end-of-run peak adds
the live phase), with no verdict:
  ok          the change's median is within the metric's bound;
  WORSE       it is worse than the base's by more than the bound;
  unresolved  a spread exceeds the bound, so the runs cannot tell, unless
              every run of the change is better than every base run.
Runs that exit non-zero, fail operations or carry invalid.* facts are
listed after the table, not dropped. Raw results go to
SCRATCH/results.json.

--claim WORKLOAD:METRIC checks a claimed gain on one end-to-end metric.
Each base run is paired with the change run of the same workload and
seed; the change wins a pair when it reads better (ties count for
neither side). The claim prints `gain` only when there are at least 10
pairs, the change wins at least nine tenths of them, and the change's
median is better than the base's by more than the base's interquartile
range; otherwise it prints `not met`. Runs with invalid.* facts stay in.

Exit codes: 0 every metric ok (and the claim, if any, met); 1 a metric
is WORSE or a run failed; 2 usage or setup error; 3 no metric worse,
but some unresolved; 4 no metric worse, but the claim is not met.
Stdlib only; no third-party imports.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


# Report facts (the reports' "fingerprint") printed under the metric they
# break down, so a memory claim can name the phase that moved.
PHASE_FACTS = {"peak_rss_mb": ["peak_rss_mb.after_setup",
                               "peak_rss_mb.after_rounds"]}


def log(msg):
    print("[perfbench_ab] " + msg, file=sys.stderr, flush=True)


def git(root, *args, binary=False):
    out = subprocess.run(["git", "-C", root] + list(args), check=True,
                         capture_output=True)
    return out.stdout if binary else out.stdout.decode()


def export_revision(root, rev, dest):
    """Extracts `git archive REV` into dest."""
    archive = git(root, "archive", "--format=tar", rev, binary=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def copy_working_tree(root, dest):
    """Copies every tracked or untracked, not ignored, file of the tree."""
    listing = git(root, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for rel in filter(None, listing.split("\0")):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):  # deleted but not yet staged
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_once(tree, command, workload, seed, seconds, extra=()):
    """One benchmark run in `tree`; returns a record of what it gave."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", repr(seconds)] + list(extra)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "exit": proc.returncode,
              "metrics": {}, "facts": {}, "attempted": 0, "failed": 0,
              "invalid": []}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        record["metrics"] = {name: entry["value"]
                             for name, entry in result["metrics"].items()}
        record["attempted"] = result.get("attempted", 0)
        record["failed"] = result.get("failed", 0)
    except (IndexError, ValueError, KeyError, TypeError):
        record["stderr_tail"] = proc.stderr[-2000:]
    report = os.path.join(tree, ".bench_build", "reports",
                          "%s-seed%d-trace0.json" % (workload, seed))
    try:
        with open(report) as f:
            facts = json.load(f).get("fingerprint", {})
        record["invalid"] = sorted(k for k in facts if k.startswith("invalid."))
        record["facts"] = {k: facts[k] for names in PHASE_FACTS.values()
                           for k in names
                           if isinstance(facts.get(k), (int, float))}
    except (OSError, ValueError):
        pass
    return record


def spread(values):
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else float("inf")


def verdict(metric, base, change):
    """ok / WORSE / unresolved for one metric's base and change runs."""
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    ratio = statistics.median(change) / statistics.median(base)
    worse = ratio < 1 - bound if higher else ratio > 1 + bound
    if max(spread(base), spread(change)) > bound:
        all_better = (min(change) > max(base) if higher
                      else max(change) < min(base))
        if not all_better:
            return ratio, "unresolved"
    return ratio, "WORSE" if worse else "ok"


def quartiles(values):
    """(q1, median, q3), inclusive method; a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def check_claim(metric, workload, records):
    """Prints the paired-run gain check of one metric; True when met."""
    name = metric["name"]
    higher = metric["better"] == "higher"
    by_seed = {r["seed"]: r["metrics"][name] for r in records["base"]
               if r["workload"] == workload and name in r["metrics"]}
    pairs = [(by_seed[r["seed"]], r["metrics"][name])
             for r in records["change"]
             if r["workload"] == workload and name in r["metrics"] and
             r["seed"] in by_seed]
    if not pairs:
        print("claim %s:%s: no paired runs, not met" % (workload, name))
        return False
    wins = sum(1 for base, change in pairs
               if (change > base if higher else change < base))
    base_q = quartiles([base for base, _ in pairs])
    change_q = quartiles([change for _, change in pairs])
    base_iqr = base_q[2] - base_q[0]
    gap = change_q[1] - base_q[1] if higher else base_q[1] - change_q[1]
    met = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > base_iqr
    print("claim %s:%s (%s is better): %d pairs, change wins %d" %
          (workload, name, metric["better"], len(pairs), wins))
    for side, (q1, median, q3) in (("base", base_q), ("change", change_q)):
        print("  %-6s median %.4g, quartiles %.4g .. %.4g" %
              (side, median, q1, q3))
    print("  change/base %.3f; medians differ by %.4g in the better "
          "direction, base IQR %.4g" %
          (change_q[1] / base_q[1] if base_q[1] else float("inf"), gap,
           base_iqr))
    print("  " + ("gain" if met else "not met"))
    return met


def print_fact(workload, metric, fact, records):
    """One report fact's medians per side, in a row under its metric."""
    label = "  " + fact[len(metric):]  # e.g. "  .after_setup"
    sides = [[r["facts"][fact] for r in records[side]
              if r["workload"] == workload and fact in r.get("facts", {})]
             for side in ("base", "change")]
    if not all(sides):
        print("%-10s %-18s  a side has no %s" % (workload, label, fact))
        return
    base, change = (statistics.median(values) for values in sides)
    print("%-10s %-18s %12.4g %12.4g %7.3f %7.3f %7.3f" %
          (workload, label, base, change, spread(sides[0]), spread(sides[1]),
           change / base if base else float("inf")))


def bad_runs(records):
    return [r for r in records
            if r["exit"] != 0 or r["failed"] or r["invalid"] or
            not r["metrics"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="base revision (default HEAD)")
    parser.add_argument("--change", default=None,
                        help="change revision (default: the working tree)")
    # Five is the fewest seeds whose quartiles leave out one outlier run
    # per side, such as a run the host stole CPU from.
    parser.add_argument("--seeds", type=int, default=5,
                        help="seeds per workload, run once per side "
                             "(default 5, at least 3)")
    parser.add_argument("--scratch", default=None,
                        help="directory for the two copies (default: a "
                             "new temporary directory)")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="check a claimed gain on one end-to-end "
                             "metric of one workload")
    args = parser.parse_args()
    if args.seeds < 3:
        parser.error("--seeds must be at least 3")

    try:
        root = git(os.getcwd(), "rev-parse", "--show-toplevel").strip()
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError, subprocess.CalledProcessError) as err:
        log("cannot read the repository or its BENCHMARK.json: %s" % err)
        return 2
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    claim = None
    if args.claim is not None:
        workload, _, name = args.claim.partition(":")
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        if workload not in workloads or name not in metrics:
            parser.error("--claim wants WORKLOAD:METRIC, one of %s and one "
                         "of the end-to-end metrics" % "/".join(workloads))
        claim = (metrics[name], workload)

    scratch = args.scratch or tempfile.mkdtemp(prefix="perfbench_ab.")
    trees = {"base": os.path.join(scratch, "base"),
             "change": os.path.join(scratch, "change")}
    try:
        for tree in trees.values():
            if os.path.exists(tree):
                log("%s exists; pass an empty --scratch" % tree)
                return 2
            os.makedirs(tree)
        export_revision(root, args.base, trees["base"])
        if args.change is None:
            copy_working_tree(root, trees["change"])
        else:
            export_revision(root, args.change, trees["change"])
    except (OSError, subprocess.CalledProcessError, tarfile.TarError) as err:
        log("cannot set up the two copies: %s" % err)
        return 2
    log("base %s and change %s in %s" %
        (args.base, args.change or "working tree", scratch))

    command = bench["command"]
    for side, tree in trees.items():
        # The benchmark's own small self-test scale: it builds the copy
        # before any timed run, and its result is discarded.
        log("build and warm-up of %s" % side)
        warm = run_once(tree, command, workloads[0], 0, 8, ["--scale", "tiny"])
        if warm["exit"] == 2:
            log("%s does not build: %s" % (side, warm.get("stderr_tail", "")))
            return 2

    records = {"base": [], "change": []}
    pair = 0
    for workload in workloads:
        for seed in range(1, args.seeds + 1):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            pair += 1
            for side in order:
                log("%s seed %d: %s" % (workload, seed, side))
                records[side].append(
                    run_once(trees[side], command, workload, seed, seconds))
            with open(os.path.join(scratch, "results.json"), "w") as f:
                json.dump(records, f, indent=1)

    worse = unresolved = False
    print("%-10s %-18s %12s %12s %7s %7s %7s %6s  %s" %
          ("workload", "metric", "base", "change", "sp.base", "sp.chg",
           "ratio", "bound", "verdict"))
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name] for r in records["base"]
                    if r["workload"] == workload and name in r["metrics"]]
            change = [r["metrics"][name] for r in records["change"]
                      if r["workload"] == workload and name in r["metrics"]]
            if not base or not change or statistics.median(base) == 0:
                print("%-10s %-18s  no usable runs" % (workload, name))
                worse = True
                continue
            ratio, result = verdict(metric, base, change)
            worse |= result == "WORSE"
            unresolved |= result == "unresolved"
            print("%-10s %-18s %12.4g %12.4g %7.3f %7.3f %7.3f %6.2f  %s" %
                  (workload, name, statistics.median(base),
                   statistics.median(change), spread(base), spread(change),
                   ratio, metric["bound"], result))
            for fact in PHASE_FACTS.get(name, []):
                print_fact(workload, name, fact, records)
    for side in ("base", "change"):
        runs = records[side]
        print("%s: %d runs, %d operations attempted, %d failed" %
              (side, len(runs), sum(r["attempted"] for r in runs),
               sum(r["failed"] for r in runs)))
        for r in bad_runs(runs):
            worse = True
            print("  %s seed %d: exit %d, %d failed, invalid %s%s" %
                  (r["workload"], r["seed"], r["exit"], r["failed"],
                   ",".join(r["invalid"]) or "-",
                   "" if r["metrics"] else ", no result line"))
    claim_met = claim is None or check_claim(claim[0], claim[1], records)
    print("raw results: " + os.path.join(scratch, "results.json"))
    if worse:
        return 1
    if not claim_met:
        return 4
    return 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
