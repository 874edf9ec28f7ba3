#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload and prints one JSON result line last.  See README.md.

    python3 perfbench/run.py --workload report|build|serve --seed N \
        --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

Run it from the root of a checkout.  With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
VECMODEL_EXE = os.path.join("_build", "default", "bin", "vecmodel.exe")
WORK = ".perfbench-work"
SETUP_PROBES = 9
EXPERIMENTS = 25
REPORT_PASS_S = 10
# Every run ends within 180 s of the end of the build.
RUN_BUDGET_S = 170
deadline = None


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def child_env():
    """Fault injection, the sanitizer and any backend or worker-count
    override stay off; the worker count follows from the CPU pinning."""
    env = dict(os.environ)
    for k in ("VECMODEL_FAULTS", "VECMODEL_SANITIZE", "VECMODEL_BACKEND",
              "VECMODEL_JOBS"):
        env.pop(k, None)
    env["DUNE_CACHE"] = "disabled"
    return env


# The process under test runs on one CPU of its own, so the OCaml runtime
# sees one recommended domain and the pool runs every fan-out inline.  With
# two domains on a shared 2-core host, peak RSS moved by 30% between
# identical report passes with the domains' GC timing; with one it repeats
# to 0.1%.  The serve client and daemon share that CPU: a request then
# wakes the daemon without a cross-CPU interrupt, which on a shared virtual
# machine waits for the host to run the other virtual CPU.  Across CPUs,
# p50 at the nominal rate read 0.95-1.23 ms and capacity about 1000 req/s;
# on one CPU, interleaved with those runs, 0.77-0.92 ms and 2000-3100 req/s.
CPUS = sorted(os.sched_getaffinity(0))
MAIN_CPU = CPUS[-1]


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root: run from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    r = subprocess.run(
        [dune, "build", "--root", ".", "perfbench/bench.exe", "bin/vecmodel.exe"],
        cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    global deadline
    deadline = time.time() + RUN_BUDGET_S


def run_child(args):
    """Runs the harness pinned to MAIN_CPU; returns (wall seconds, last JSON
    line).  Its human-readable lines are passed through."""
    t0 = time.time()
    # A session of its own, so a timeout also stops the daemon it started.
    p = subprocess.Popen([BENCH_EXE] + args, cwd=ROOT, env=child_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {MAIN_CPU}))
    try:
        out, err = p.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("harness timed out: " + " ".join(args))
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(out + err)
        fail("harness failed: " + " ".join(args))
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        if l.startswith("#"):
            log(l)
    return wall, json.loads(lines[-1])


def setup_probe():
    """Median wall time of fresh processes that only set up (module
    initialisation builds the kernel registries) and exit."""
    return statistics.median(run_child(["setup"])[0] for _ in range(SETUP_PROBES))


# --- workloads ----------------------------------------------------------------
# Each returns (attempted, failed, end_to_end, per_layer, fingerprint).

def report(seed, seconds, trace):
    ref = ["--reference", "perfbench/reference.txt"]
    if trace:
        _, plain = run_child(["report", "--seed", str(seed)] + ref)
        _, traced = run_child(["report", "--seed", str(seed), "--trace-out",
                               trace_path("report", seed)] + ref)
        layers = dict(traced["layers"])
        # The traced pass also runs A6's interpreter passes bare, to split
        # them out of the trace loop; that is measurement work, not span
        # cost, so it is taken out before comparing with the plain pass.
        layers["trace.overhead_ratio"] = (
            (traced["report_s"] - layers["vinterp.trace_run_s"]) / plain["report_s"] - 1)
        runs = [plain, traced]
        return (sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
                {}, layers, traced["fingerprint"])
    setup_s = setup_probe()
    runs = []
    # Each pass is a fresh process, so every pass starts with cold caches.
    # A pass takes 7-14 s on one CPU, with the host's load; the count is
    # fixed by --seconds, not by how fast the host happens to be.
    for _ in range(max(2, round(seconds / REPORT_PASS_S))):
        _, r = run_child(["report", "--seed", str(seed)] + ref)
        if r["mismatched"]:
            log("# report output differs from the reference: "
                + " ".join(r["mismatched"]))
        runs.append(r)
    times = [r["report_s"] for r in runs]
    log("# report passes: " + " ".join("%.3f" % t for t in times) + " s")
    e2e = {
        "p50_ms": statistics.median(times) * 1000,
        "rate_per_s": EXPERIMENTS / statistics.median(times),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "setup_s": setup_s,
    }
    return (sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
            e2e, {}, runs[-1]["fingerprint"])


def build_workload(seed, seconds, trace):
    args = ["build", "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        _, r = run_child(["build", "--seed", str(seed), "--seconds", "1",
                          "--trace-out", trace_path("build", seed)])
        return r["attempted"], r["failed"], {}, r["layers"], r["fingerprint"]
    setup_s = setup_probe()
    _, r = run_child(args)
    e2e = {
        "p50_ms": r["sample_p50_ms"],
        "rate_per_s": r["samples_per_s"],
        "peak_rss_mb": r["rss_mb"],
        "setup_s": setup_s,
    }
    return r["attempted"], r["failed"], e2e, {}, r["fingerprint"]


def serve(seed, seconds, trace):
    args = ["serve", "--seed", str(seed), "--vecmodel", VECMODEL_EXE]
    if trace:
        args += ["--seconds", "8", "--trace-out", trace_path("serve", seed)]
    else:
        args += ["--seconds", str(seconds)]
    _, r = run_child(args)
    if trace:
        return r["attempted"], r["failed"], {}, r["layers"], r["fingerprint"]
    e2e = {
        "p50_ms": r["p50_ms"],
        "p99_ms": r["p99_ms"],
        "rate_per_s": r["max_rps"],
        "peak_rss_mb": r["rss_mb"],
        "setup_s": r["setup_s"],
    }
    return r["attempted"], r["failed"], e2e, {}, r["fingerprint"]


WORKLOADS = {"report": report, "build": build_workload, "serve": serve}


# --- traces -------------------------------------------------------------------

def trace_path(workload, seed):
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    return os.path.join(WORK, "trace-%s-%d.json" % (workload, seed))


def self_times(path):
    """Per span name: count, total and self time.  Self time is a span's
    duration minus the part of its interval its children cover (children
    on pool workers can overlap, so the union is taken)."""
    with open(os.path.join(ROOT, path)) as f:
        events = json.load(f)["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    table = {}
    for e in events:
        t0, t1 = e["ts"], e["ts"] + e["dur"]
        covered, end = 0.0, t0
        for c in sorted(children.get(e["args"]["id"], []), key=lambda c: c["ts"]):
            a, b = max(c["ts"], end), min(c["ts"] + c["dur"], t1)
            if b > a:
                covered += b - a
                end = b
        row = table.setdefault(e["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e["dur"] / 1e6
        row[2] += (e["dur"] - covered) / 1e6
    return table


def print_self_times(path):
    table = self_times(path)
    grand = sum(r[2] for r in table.values()) or 1.0
    log("# trace %s (Chrome trace events; open in Perfetto)" % path)
    log("# %-32s %8s %11s %11s %7s" % ("span", "count", "total s", "self s", "self%"))
    for name, (n, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        log("# %-32s %8d %11.4f %11.4f %6.1f%%" % (name, n, total, own, 100 * own / grand))


# --- one run ------------------------------------------------------------------

def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_workload(spec, name, seed, seconds, trace):
    """Returns the result line, the fingerprint and every end-to-end figure
    the workload measured (a few beyond BENCHMARK.json's list)."""
    attempted, failed, e2e, layers, fp = WORKLOADS[name](seed, seconds, trace)
    fp = dict(fp)
    fp.update({"nproc": len(CPUS), "cpu": MAIN_CPU, "workload": name,
               "seed": seed, "seconds": seconds, "trace": int(trace)})
    log("# fingerprint " + json.dumps(fp, sort_keys=True))
    if trace:
        print_self_times(trace_path(name, seed))
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {}
    for m in wanted:
        # A layer this workload does not exercise did no work: 0.
        v = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
    result = {"correct": failed == 0 and attempted > 0, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    return result, fp, e2e


def run_all(spec, seed, seconds):
    """All three workloads, printed under the end-to-end names the
    workloads stand for."""
    out, extra = {}, {}
    for name in ("report", "build", "serve"):
        result, _, e2e = run_workload(spec, name, seed, seconds, False)
        out[name] = result
        extra[name] = e2e
    m = {k: r["metrics"] for k, r in out.items()}
    rows = [
        ("report_s", m["report"]["p50_ms"]["value"] / 1000, "s", "report"),
        ("samples_per_s", m["build"]["rate_per_s"]["value"], "samples/s", "build"),
        ("serve_p50_ms", m["serve"]["p50_ms"]["value"], "ms", "serve"),
        ("serve_p99_ms", extra["serve"]["p99_ms"], "ms", "serve"),
        ("serve_max_rps", m["serve"]["rate_per_s"]["value"], "req/s", "serve"),
    ]
    for name in ("report", "build", "serve"):
        rows.append(("fail_frac", out[name]["failed"] / max(1, out[name]["attempted"]),
                     "ratio", name))
        rows.append(("peak_rss_mb", m[name]["peak_rss_mb"]["value"], "MB", name))
        rows.append(("setup_s", m[name]["setup_s"]["value"], "s", name))
    for metric, value, unit, wl in rows:
        log("%-14s %-7s %14.4f %s" % (metric, wl, value, unit))
    attempted = sum(r["attempted"] for r in out.values())
    failed = sum(r["failed"] for r in out.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"%s.%s" % (wl, metric): {"value": value, "unit": unit}
                        for metric, value, unit, wl in rows}}


# --- compare ------------------------------------------------------------------

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(spec, base_path, new_path):
    """Medians and quartiles of two sets of recorded runs, per workload and
    end-to-end metric, and whether the new median stays within the bound
    of the base median.  Exit 1 when any pairing is out of bound."""
    def load(path):
        groups = {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec["fingerprint"].get("trace"):
                    continue
                for name, m in rec["result"]["metrics"].items():
                    groups.setdefault((rec["workload"], name), []).append(m["value"])
        return groups

    base, new = load(base_path), load(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst_ok = True
    log("%-8s %-12s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s %s" % (
        "workload", "metric", "base q1", "base med", "base q3", "spread",
        "new q1", "new med", "new q3", "spread", "change", "bound", "verdict"))
    for key in sorted(set(base) & set(new)):
        wl, name = key
        m = bounds.get(name)
        if m is None:
            continue
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        change = (nm - bm) / bm if bm else 0.0
        worse = change if m["better"] == "lower" else -change
        ok = worse <= m["bound"]
        worst_ok &= ok
        log("%-8s %-12s %12.4f %12.4f %12.4f %7.1f%% | %12.4f %12.4f %12.4f %7.1f%% | %+7.1f%% %5.0f%% %s" % (
            wl, name, b1, bm, b3, 100 * (b3 - b1) / bm if bm else 0.0,
            n1, nm, n3, 100 * (n3 - n1) / nm if nm else 0.0,
            100 * change, 100 * m["bound"], "ok" if ok else "WORSE"))
    return 0 if worst_ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE.jsonl NEW.jsonl")
        sys.exit(compare(load_spec(), sys.argv[2], sys.argv[3]))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run (result and fingerprint) "
                    "as one JSON line to this file, for compare")
    a = ap.parse_args()
    os.chdir(ROOT)
    spec = load_spec()
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    build()
    if a.workload == "all":
        result = run_all(spec, a.seed, seconds)
    else:
        result, fp, _ = run_workload(spec, a.workload, a.seed, seconds, bool(a.trace))
        if a.record:
            with open(a.record, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                    "fingerprint": fp, "result": result}) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
