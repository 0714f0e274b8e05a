#!/usr/bin/env python3
"""End-to-end benchmark of the EM2 simulator (see README.md).

One run of one workload (the form BENCHMARK.json's command takes):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark binary against the simulator sources of this checkout
(CMake; the build lives in $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench), runs the workload in a process of its own and
prints its metrics; the last line of standard output is the JSON result.

Other forms:

    run.py --workload all [--seed N --seconds S --trace 0|1]
        every workload, one process each, then a summary table
    run.py --selftest
        shows that every output check rejects a perturbed input
    run.py spread [--runs 10] [--workloads a,b] [--seconds S] [--out F]
        runs each workload on seeds 1..runs and prints each end-to-end
        metric's quartile spread against its bound
    run.py compare A.jsonl B.jsonl
        per workload and metric: median, quartiles, pairs won by each side,
        and whether B is within the bound of A

--results FILE (any run form) appends each run's result as one JSON line,
the input format of `compare`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["figure-replay", "contended-exec"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_threads():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("the simulator sources (CMakeLists.txt, src/) are "
                           "not in " + ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "-j", str(host_threads())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "e2ebench")
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    return binary, out_dir


def validate(result, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "units %s" % (missing, extra, units)
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def run_one(binary, out_dir, workload, seed, seconds, trace, echo=True):
    """Runs one workload in its own process; returns the parsed result."""
    env = dict(os.environ, EM2_THREAD_BUDGET=str(host_threads()))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out-dir=" + out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    problem = validate(result, load_spec(), trace)
    if problem:
        raise RuntimeError(workload + ": " + problem)
    return result


def append_result(path, workload, seed, trace, result):
    if path:
        with open(path, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed,
                                "trace": trace, "result": result}) + "\n")


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args):
    spec = load_spec()
    binary, out_dir = build()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    worst = 0.0
    for w in workloads:
        values = {}
        failed_share = set()
        for seed in range(1, args.runs + 1):
            r = run_one(binary, out_dir, w, seed, seconds, 0, echo=False)
            append_result(args.out, w, seed, 0, r)
            failed_share.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s  (%d runs, failed share %s)" %
              (w, args.runs, sorted(failed_share)))
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles(values[m["name"]])
            rel = (q3 - q1) / med if med else float("inf")
            ok = rel <= m["bound"] / 3 or m["name"] == "setup_s"
            if m["name"] != "setup_s":
                worst = max(worst, rel / m["bound"])
            print("  %-24s median %-14.6g IQR/median %7.4f  bound %.2f  %s"
                  % (m["name"], med, rel, m["bound"],
                     "ok" if ok else "ABOVE bound/3"))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


def cmd_compare(args):
    spec = load_spec()
    sides = []
    for path in (args.a, args.b):
        runs = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    if rec.get("trace", 0) == 0:
                        runs.setdefault(rec["workload"], []).append(rec)
        sides.append(runs)
    verdict = 0
    for w in sorted(set(sides[0]) & set(sides[1])):
        a_runs, b_runs = sides[0][w], sides[1][w]
        print("%s  (A: %d runs, B: %d runs)" % (w, len(a_runs), len(b_runs)))
        for side, runs in (("A", a_runs), ("B", b_runs)):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            print("  %s: %d of %d operations failed; correct on %d of %d "
                  "runs" % (side, fail, att,
                            sum(r["result"]["correct"] for r in runs),
                            len(runs)))
        # Pairs: same seed when both sides ran it, else run order.
        a_by_seed = {r["seed"]: r for r in a_runs}
        b_by_seed = {r["seed"]: r for r in b_runs}
        common = sorted(set(a_by_seed) & set(b_by_seed))
        pairs = ([(a_by_seed[s], b_by_seed[s]) for s in common] if common
                 else list(zip(a_runs, b_runs)))
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [r["result"]["metrics"][name]["value"] for r in a_runs]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            qa, qb = quartiles(a), quartiles(b)
            a_wins = b_wins = 0
            for ra, rb in pairs:
                va = ra["result"]["metrics"][name]["value"]
                vb = rb["result"]["metrics"][name]["value"]
                if va != vb:
                    if (vb < va) == lower:
                        b_wins += 1
                    else:
                        a_wins += 1
            worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if not lower:
                worse = -worse
            within = worse <= m["bound"]
            verdict |= 0 if within else 1
            print("  %-24s A %-12.6g [%.6g, %.6g]  B %-12.6g [%.6g, %.6g]  "
                  "wins A %d B %d  B worse by %+.2f%%  %s" %
                  (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], a_wins,
                   b_wins, 100 * worse,
                   "within bound %.0f%%" % (100 * m["bound"]) if within
                   else "OUTSIDE bound %.0f%%" % (100 * m["bound"])))
    return verdict


def cmd_run(args):
    binary, out_dir = build()
    if args.selftest:
        proc = subprocess.run([binary, "--selftest", "--out-dir=" + out_dir],
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode
    seconds = args.seconds if args.seconds else load_spec()["run_seconds"]
    if args.workload != "all":
        result = run_one(binary, out_dir, args.workload, args.seed, seconds,
                         args.trace)
        append_result(args.results, args.workload, args.seed, args.trace,
                      result)
        print(json.dumps(result))
        return 0
    rows = []
    for w in WORKLOADS:
        print("== " + w)
        r = run_one(binary, out_dir, w, args.seed, seconds, args.trace)
        append_result(args.results, w, args.seed, args.trace, r)
        rows.append((w, r))
    print("\n%-16s %-34s %18s  %s" % ("workload", "metric", "value", "unit"))
    for w, r in rows:
        for name, m in r["metrics"].items():
            print("%-16s %-34s %18.6g  %s" % (w, name, m["value"], m["unit"]))
        print("%-16s %-34s %18d\n%-16s %-34s %18d\n%-16s %-34s %18s" %
              (w, "attempted", r["attempted"], w, "failed", r["failed"], w,
               "correct", r["correct"]))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("spread", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "spread":
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--workloads", default="")
            p.add_argument("--seconds", type=float, default=0)
            p.add_argument("--out", default="")
            return cmd_spread(p.parse_args(sys.argv[2:]))
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--results", default="")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload or --selftest is required")
    return cmd_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        sys.exit(1)
