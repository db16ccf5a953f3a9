"""The torsorlab benchmark: cold CLI runs timed end to end, or one traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seconds <s>

Run it from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics: set-up time of a fresh interpreter, then as many fresh
``torsorlab`` CLI processes as fit in ``--seconds`` (at least two), one at a
time, each timed, its peak memory read from ``os.wait4`` and its output
checked.  With ``--trace 1`` it runs ``tracer.py`` in a fresh process for the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with median, quartiles and sample count.  Each run also
appends its environment, samples and stdout digests to
``.perfbench/results.jsonl`` in the checkout.  ``--workload all`` runs every
workload untraced and prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import (HERE, ROOT, SRC, WORKLOADS, check_output, cli_env,
                       digest, load_expected, work_done)

RESULTS_DIR = ROOT / ".perfbench"
OUT_PATH = RESULTS_DIR / "cli-stdout"
SETUP_RUNS = 9
MIN_RUNS = 2
RUN_DEADLINE_S = 165
SETUP_CODE = "from torsorlab.cli import build_parser; build_parser()"
END_TO_END = ("setup_s", "run_s", "cases_per_s", "peak_rss_mb")


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def metric_units():
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def timed_process(argv, stdout, timeout):
    """Run argv to completion; returns (exit code, wall s, peak RSS in MB).

    The exit code is None when the process was killed after ``timeout``
    seconds.  Peak RSS comes from the rusage that ``os.wait4`` returns.
    """
    old = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL,
                            env=cli_env(), cwd=ROOT)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        _, status, usage = os.wait4(proc.pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
    except Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return code, elapsed, usage.ru_maxrss / 1024.0


def measure_setup(deadline):
    """Wall seconds of fresh interpreters that import the CLI, one per run."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_RUNS + 1):
        code, elapsed, _ = timed_process(argv, subprocess.DEVNULL,
                                         deadline - time.monotonic())
        if code != 0:
            raise RuntimeError("set-up run exited with %r" % code)
        if i:  # the first run writes bytecode caches; it is not timed
            times.append(elapsed)
    return times


def run_cli_loop(workload, seed, seconds, expected, deadline):
    """Fresh CLI processes for ``seconds`` seconds; one dict per process."""
    argv = [sys.executable, "-m", "torsorlab.cli"] + workload.argv(seed)
    samples = []
    begin = time.monotonic()
    while True:
        with open(OUT_PATH, "wb") as out:
            code, elapsed, rss = timed_process(argv, out,
                                               deadline - time.monotonic())
        data = OUT_PATH.read_bytes()
        if code is None:
            problem = "timed out"
        elif code != 0:
            problem = "exit code %d" % code
        else:
            problem = check_output(workload, seed, data, expected)
        sample = {"run_s": elapsed, "peak_rss_mb": rss,
                  "sha256": digest(data), "problem": problem}
        if problem is None:
            sample["cases"] = work_done(workload, data)
        samples.append(sample)
        if code is None:
            break
        spent = time.monotonic() - begin
        typical = statistics.median(s["run_s"] for s in samples)
        if len(samples) >= MIN_RUNS and spent + typical > seconds:
            break
        if time.monotonic() + typical > deadline:
            break
    return samples


def summary(values):
    """Median, first and third quartile and count of a list of numbers."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment(workload, seed):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "workload": workload.name,
        "seed": seed,
        "cli_args": workload.argv(seed),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(workload, seed, seconds, expected, deadline):
    setup = measure_setup(deadline)
    samples = run_cli_loop(workload, seed, seconds, expected, deadline)
    good = [s for s in samples if s["problem"] is None]
    stats = {
        "setup_s": summary(setup),
        "run_s": summary([s["run_s"] for s in samples]),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in samples]),
        "cases_per_s": summary([s["cases"] / s["run_s"] for s in good]
                               or [0.0]),
    }
    return stats, samples, len(samples) - len(good)


def traced(workload, seed, deadline):
    argv = [sys.executable, str(HERE / "tracer.py"),
            "--workload", workload.name, "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, env=cli_env(), cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise RuntimeError("tracer exited with %d" % proc.returncode)
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def _print_stats(stats, samples, failed, units):
    for name, st in stats.items():
        print("%-12s %12.6g %-6s q1=%.6g q3=%.6g n=%d"
              % (name, st["median"], units[name], st["q1"], st["q3"],
                 st["n"]))
    print("%-12s %12.6g %-6s (%d of %d runs failed)"
          % ("error_rate", failed / len(samples), "1", failed, len(samples)))
    for s in samples:
        if s["problem"]:
            print("# output check failed: %s" % s["problem"])


def _record(entry):
    with open(RESULTS_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def untraced_run(workload, seed, seconds, expected, deadline, units):
    """End-to-end metrics of one run, printed and recorded."""
    stats, samples, failed = end_to_end(workload, seed, seconds, expected,
                                        deadline)
    _print_stats(stats, samples, failed, units)
    _record({"env": environment(workload, seed), "trace": 0,
             "stats": stats, "samples": samples})
    return stats, samples, failed


def run_one(workload, seed, seconds, trace, expected, deadline):
    units = metric_units()
    env = environment(workload, seed)
    for key in ("python", "platform", "nproc", "cpu", "commit", "cli_args"):
        print("# %s: %s" % (key, env[key]))
    if trace:
        result = traced(workload, seed, deadline)
        metrics = result["metrics"]
        for name in sorted(metrics):
            print("%-36s %14.6g %s" % (name, metrics[name], units[name]))
        for problem in result["problems"]:
            print("# output check failed: %s" % problem)
        _record({"env": env, "trace": 1, "metrics": metrics,
                 "problems": result["problems"]})
        attempted, failed = result["passes"], len(result["problems"])
    else:
        stats, samples, failed = untraced_run(workload, seed, seconds,
                                              expected, deadline, units)
        metrics = {name: stats[name]["median"] for name in END_TO_END}
        attempted = len(samples)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(seconds, seed, expected):
    """Every workload untraced, one after another; 1 if any run failed."""
    units = metric_units()
    any_failed = False
    for workload in WORKLOADS.values():
        print("== %s" % workload.name)
        _, _, failed = untraced_run(workload, seed, seconds, expected,
                                    time.monotonic() + RUN_DEADLINE_S, units)
        any_failed = any_failed or failed > 0
    return 1 if any_failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "torsorlab" / "cli.py").is_file():
        print("run.py: no torsorlab sources under %s; run from a checkout"
              % SRC, file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    expected = load_expected()
    if args.workload == "all":
        return run_all(args.seconds, args.seed, expected)
    deadline = time.monotonic() + RUN_DEADLINE_S
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace, expected, deadline)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
