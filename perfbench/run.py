#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py sweep --workload NAME[,NAME...] --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--label LABEL]
    python3 perfbench/run.py summary SWEEP_DIR
    python3 perfbench/run.py compare OLD_SWEEP_DIR NEW_SWEEP_DIR
    python3 perfbench/run.py ab --old CHECKOUT --new CHECKOUT \
        --workload NAME[,NAME...] --seeds 1-10 [--seconds S] [--label LABEL]

Run from the repository root.  A run builds the workload runner
(perfbench/bench.ml) and the daemon with dune, times the workload's
set-up several times (setup_s), runs the workload, and prints as its
last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric (0 where the
workload does not call that layer).  The line before it records the
environment (nproc, OCaml version, flambda, git rev or source digest,
/proc/loadavg at start and end).  The full result, with the
deterministic work counters and details, is saved under
perfbench/out/results/.

`sweep` runs the benchmark once per seed, keeps the results under
perfbench/out/sweeps/LABEL and prints (as `summary` does for a kept
sweep), per workload and end-to-end metric, the median, quartiles and
spread (IQR / median) against the metric's bound.  `compare` sets two
sweeps side by side (see README.md for the rules it applies).  `ab`
runs two checkouts (the parent and the change) seed by seed,
alternating which side runs first so that drift in machine speed
falls on both sides, and then compares them.
"""

import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("perfbench", "out")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
DAEMON_EXE = os.path.join("_build", "default", "bin", "batsched.exe")
SETUP_REPEATS = 5


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def parse_opts(argv, known):
    opts = {}
    i = 0
    while i < len(argv):
        k = argv[i]
        if not k.startswith("--") or k[2:] not in known or i + 1 >= len(argv):
            fail("bad argument %r (expected %s)" % (k, ", ".join("--" + x for x in known)))
        opts[k[2:]] = argv[i + 1]
        i += 2
    return opts


# ------------------------------------------------------------------ build


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the repository root: dune-project, lib/ and bin/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        dune_cmd() + ["build", "--root", ".", "./" + BENCH_EXE[len("_build/default/"):],
                      "./" + DAEMON_EXE[len("_build/default/"):]],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed", 1)


# ------------------------------------------------------------ environment


def capture(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            files += [os.path.join(root, n) for n in sorted(names)
                      if n.endswith((".ml", ".mli", ".py")) or n == "dune"]
    for p in files:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def environment():
    config = capture(["ocamlfind", "ocamlopt", "-config"]) or capture(["ocamlopt", "-config"])
    conf = dict(line.split(": ", 1) for line in config.splitlines() if ": " in line)
    rev = capture(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    return {
        "nproc": os.cpu_count(),
        "ocaml": conf.get("version", "unknown"),
        "flambda": conf.get("flambda", "unknown") == "true",
        "git_rev": rev or None,
        "source_digest": source_digest(),
        "loadavg_start": loadavg(),
    }


# -------------------------------------------------------------------- run


def bench_args(opts):
    return [BENCH_EXE, "--workload", opts["workload"], "--seed", opts["seed"],
            "--seconds", opts["seconds"], "--out", OUT, "--daemon", DAEMON_EXE]


def time_setup(opts):
    """Median wall time of SETUP_REPEATS cold set-ups: process start,
    input generation and, for serve-mixed, daemon spawn to first
    connect."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        r = subprocess.run(bench_args(opts) + ["--trace", "0", "--setup-only"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           timeout=120)
        walls.append(time.perf_counter() - t0)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            fail("set-up failed", 1)
    return statistics.median(walls), walls


def run_once(opts, spec):
    names = [w["name"] for w in spec["workloads"]]
    if opts["workload"] not in names:
        fail("unknown workload %r (one of %s)" % (opts["workload"], ", ".join(names)))
    if opts["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    try:
        int(opts["seed"])
        seconds = float(opts["seconds"])
    except ValueError:
        fail("--seed must be an integer and --seconds a number")
    build()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    env = environment()
    trace = opts["trace"] == "1"
    setup = None if trace else time_setup(opts)
    # its own process group, so a timeout also stops the daemons it spawned
    p = subprocess.Popen(bench_args(opts) + ["--trace", opts["trace"]],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=max(150.0, 4 * seconds + 60))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("workload timed out", 1)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if p.returncode != 0 or result is None:
        sys.stderr.write(err)
        fail("workload %s exited with %d" % (opts["workload"], p.returncode), 1)
    env["loadavg_end"] = loadavg()

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    if setup is not None:
        measured["setup_s"] = {"value": setup[0], "unit": "s"}
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail("workload %s did not report %s" % (opts["workload"], m["name"]), 1)
            got = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    if result["nondeterministic"]:
        print("NONDETERMINISM: work counters differ between passes of one run: "
              + ", ".join(result["nondeterministic"]))
    for f in result["failures"]:
        print("FAILED CHECK: " + f)
    saved = {
        "workload": opts["workload"], "seed": int(opts["seed"]), "seconds": seconds,
        "trace": trace, "env": env, "setup_walls_s": setup[1] if setup else None,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"], "metrics": metrics,
        "all_metrics": measured, "counters": result["counters"],
        "nondeterministic": result["nondeterministic"], "info": result["info"],
    }
    path = os.path.join(OUT, "results", "%s-seed%s-trace%s-%d.json" % (
        opts["workload"], opts["seed"], opts["trace"], time.time_ns()))
    with open(path, "w") as f:
        json.dump(saved, f, indent=1)
    info = {k: v for k, v in result["info"].items() if k != "layer_table"}
    print("counters: " + json.dumps(result["counters"]))
    print("details: " + json.dumps(info))
    print("env: " + json.dumps(env))
    print("saved: " + path)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


# ------------------------------------------------------------ sweep/compare


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_seeds(s):
    seeds = []
    for part in s.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds += list(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_into(checkout, out, w, seed, seconds, trace):
    """One benchmark run in `checkout`; its result file is copied to `out`."""
    os.makedirs(out, exist_ok=True)
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", w, "--seed", str(seed), "--seconds", seconds,
                        "--trace", trace], cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    saved = [l[len("saved: "):] for l in lines if l.startswith("saved: ")]
    if r.returncode != 0 or not saved:
        print("%s seed %d: run failed in %s (exit %d)" % (w, seed, checkout, r.returncode))
        return
    shutil.copy(os.path.join(checkout, saved[-1]), out)
    last = json.loads(lines[-1])
    print("%s seed %d: correct=%s %s" % (w, seed, last["correct"], " ".join(
        "%s=%.6g" % (k, v["value"]) for k, v in last["metrics"].items())), flush=True)


def sweep(argv, spec):
    opts = parse_opts(argv, ["workload", "seeds", "seconds", "trace", "label"])
    seconds = opts.get("seconds", str(spec["run_seconds"]))
    out = os.path.join(OUT, "sweeps", opts.get("label", "sweep-%d" % time.time()))
    for w in opts["workload"].split(","):
        for seed in parse_seeds(opts["seeds"]):
            run_into(".", out, w, seed, seconds, opts.get("trace", "0"))
    summarize(out, spec)


def ab(argv, spec):
    opts = parse_opts(argv, ["old", "new", "workload", "seeds", "seconds", "label"])
    seconds = opts.get("seconds", str(spec["run_seconds"]))
    base = os.path.join(OUT, "ab", opts.get("label", "ab-%d" % time.time()))
    sides = [(opts["old"], os.path.join(base, "old")), (opts["new"], os.path.join(base, "new"))]
    for w in opts["workload"].split(","):
        for k, seed in enumerate(parse_seeds(opts["seeds"])):
            for checkout, out in (sides if k % 2 == 0 else sides[::-1]):
                print("[%s] " % ("old" if out.endswith("old") else "new"), end="")
                run_into(checkout, out, w, seed, seconds, "0")
    compare([sides[0][1], sides[1][1]], spec)


def load_sweep(d):
    runs = {}
    for p in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(p) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], []).append(r)
    return runs


def summarize(d, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w, runs in sorted(load_sweep(d).items()):
        runs = [r for r in runs if not r["trace"]]
        if not runs:
            continue
        print("\n%s: %d runs, %d failed checks" % (w, len(runs), sum(r["failed"] for r in runs)))
        print("  %-14s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "" if name == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
            print("  %-14s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%%s" % (
                name, q1, med, q3, 100 * spread, 100 * m["bound"], mark))
        for name in nondeterministic_counters(runs):
            print("  NONDETERMINISM: counter %s differs between runs at one seed" % name)


def counters_by_seed(runs):
    by = {}
    for r in runs:
        by.setdefault(r["seed"], []).append(r["counters"])
    return by


def nondeterministic_counters(runs):
    bad = set()
    for cs in counters_by_seed(runs).values():
        for c in cs[1:]:
            bad |= {k for k in c if c.get(k) != cs[0].get(k)}
    for r in runs:
        bad |= set(r["nondeterministic"])
    return sorted(bad)


def compare(argv, spec):
    if len(argv) != 2:
        fail("usage: run.py compare OLD_SWEEP_DIR NEW_SWEEP_DIR")
    old, new = load_sweep(argv[0]), load_sweep(argv[1])
    flagged = 0
    for w in sorted(set(old) & set(new)):
        o_runs = [r for r in old[w] if not r["trace"]]
        n_runs = [r for r in new[w] if not r["trace"]]
        print("\n%s: %d old runs, %d new runs" % (w, len(o_runs), len(n_runs)))
        print("  %-14s %32s %32s %8s  %s" % ("metric", "old q1 / median / q3",
                                            "new q1 / median / q3", "change", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ov = {r["seed"]: r["metrics"][name]["value"] for r in o_runs}
            nv = {r["seed"]: r["metrics"][name]["value"] for r in n_runs}
            if not ov or not nv:
                continue
            oq1, omed, oq3 = quartiles(list(ov.values()))
            nq1, nmed, nq3 = quartiles(list(nv.values()))
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (nmed - omed) / omed
            pairs = [(ov[s], nv[s]) for s in ov if s in nv]
            wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
            losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
            clear = abs(nmed - omed) > (oq3 - oq1)
            if worse > bound:
                verdict = "REGRESSION (worse than the %.0f%% bound)" % (100 * bound)
            elif len(pairs) >= 10 and losses >= 0.9 * len(pairs) and clear:
                verdict = "SLOWER (%d/%d pairs, beyond the old IQR; within the bound)" % (
                    losses, len(pairs))
            elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and clear:
                verdict = "BETTER (%d/%d pairs, beyond the old IQR)" % (wins, len(pairs))
            elif (oq3 - oq1) / omed > bound:
                verdict = "unresolved (old spread wider than the bound)"
            else:
                verdict = "unchanged"
            if verdict.split()[0] in ("REGRESSION", "SLOWER", "BETTER"):
                flagged += 1
            print("  %-14s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%%  %s" % (
                name, oq1, omed, oq3, nq1, nmed, nq3, 100 * (nmed - omed) / omed, verdict))
        o_c, n_c = counters_by_seed(o_runs), counters_by_seed(n_runs)
        for s in sorted(set(o_c) & set(n_c)):
            a, b = o_c[s][0], n_c[s][0]
            for k in sorted(set(a) | set(b)):
                if a.get(k) != b.get(k):
                    flagged += 1
                    print("  COUNTER CHANGED seed %d: %s %s -> %s" % (s, k, a.get(k), b.get(k)))
        for side, runs in (("old", o_runs), ("new", n_runs)):
            for k in nondeterministic_counters(runs):
                flagged += 1
                print("  NONDETERMINISM (%s): counter %s differs between runs at one seed" % (side, k))
    print("\n%d flagged" % flagged)


def main():
    argv = sys.argv[1:]
    spec = load_spec()
    if argv and argv[0] == "sweep":
        sweep(argv[1:], spec)
    elif argv and argv[0] == "compare":
        compare(argv[1:], spec)
    elif argv and argv[0] == "ab":
        ab(argv[1:], spec)
    elif argv and argv[0] == "summary":
        summarize(argv[1], spec)
    else:
        opts = parse_opts(argv, ["workload", "seed", "seconds", "trace"])
        for k in ("workload", "seed", "seconds", "trace"):
            if k not in opts:
                fail("missing --" + k)
        run_once(opts, spec)


if __name__ == "__main__":
    main()
