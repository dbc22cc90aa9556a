#!/usr/bin/env python3
"""Builds and runs the whole-system benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-references

Run from the root of a source tree. The library, the pmbe_serve daemon and
the benchmark driver are built in Release into $CARGO_TARGET_DIR (default
.bench_build) from this tree's sources. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics BENCHMARK.json
names (end_to_end with --trace 0, per_layer with --trace 1).
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense", "skew-durable", "serve-mix")
RUN_TIMEOUT_S = 170  # the driver allows 180 s per run after the first build


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(path)
    # Unix socket paths are short; keep the work dir relative when we can.
    rel = os.path.relpath(path)
    return rel if not rel.startswith("..") else path


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources next to {HERE}; run from a full source tree", 2)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4", "--target",
                      "perfbench", "perfbench_selftest", "pmbe_serve_bin"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (" + " ".join(step) + ")")


def run_child(argv, timeout):
    """Runs argv in its own process group; kills the group on timeout."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{os.path.basename(argv[0])} did not finish within {timeout} s")
    finally:
        # A daemon orphaned by a crashed driver must not outlive the run.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return child.returncode, out


def result_line(record, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            # A layer this workload never calls did no work.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.txt for the default seed")
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.record_references):
        parser.error("one of --workload, --selftest, --record-references")

    out = build_dir()
    build(out)
    binary = os.path.join(out, "perfbench")

    if args.selftest:
        code, text = run_child([os.path.join(out, "perfbench_selftest")],
                               RUN_TIMEOUT_S)
        sys.stdout.write(text)
        sys.exit(code)

    references = os.path.join(HERE, "references.txt")
    argv = [binary, f"--serve_bin={os.path.join(out, 'pmbe_serve')}",
            f"--work_root={out}", f"--references={references}"]
    if args.record_references:
        code, text = run_child(argv + ["--record_references"], RUN_TIMEOUT_S)
        if code:
            fail("recording references failed", code)
        table = [l for l in text.splitlines() if not l.startswith(("stamp:", "workload:"))]
        with open(references, "w") as f:
            f.write("# seed graph query count digest: the single-threaded "
                    "result stream of every\n# (graph, query) at the default "
                    "seed (python3 perfbench/run.py --record-references)\n")
            f.write("\n".join(table) + "\n")
        print(f"wrote {len(table)} references to {references}")
        return

    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    argv += [f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--trace_path={os.path.join(traces, args.workload + '.jsonl')}"]
    started = time.monotonic()
    code, text = run_child(argv, RUN_TIMEOUT_S)
    record = None
    for line in text.splitlines():
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
        else:
            print(line)
    if code or record is None:
        fail(f"benchmark run failed (exit {code})", code or 1)
    print(f"run took {time.monotonic() - started:.1f} s")
    print(result_line(record, args.trace))


if __name__ == "__main__":
    main()
