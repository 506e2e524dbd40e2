#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 benchmark/tests/selftest.py

Run from the root of a checkout; builds neutral_bench like benchmark/run.py.
Each test runs the benchmark briefly (about three minutes in all):

  * injection: a benchmark-side busy-wait of known size inside op1's timed
    region must move op1.events_per_s past its bound and leave every other
    end-to-end metric of the workload inside its own;
  * split: in the serving phase, submit + queue wait + job wall +
    net.result_ms must sum to the traced latency within 10%;
  * gate: a reference with one counter off by one must fail the
    correctness gate.

Timings on a shared host are noisy; the injection test compares two single
short runs, so a burst of contention during either can fail it.  Rerun
before concluding the benchmark is broken.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (benchmark/run.py: the shared build step)

SECONDS = 6
# The injection test compares every end-to-end metric, the serving ones
# too, so its runs are long enough for their tails to settle.
INJECTION_SECONDS = 20


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def bench(binary, workload, seed, trace=0, extra=(), reference=None,
          seconds=SECONDS):
    build_root = os.path.dirname(os.path.dirname(binary))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", reference or os.path.join(BENCH, "reference.txt"),
           "--golden-dir", os.path.join(ROOT, "tests", "golden"),
           "--out-dir", os.path.join(build_root, "out"), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT, timeout=170, check=True).stdout
    return json.loads(out.strip().split("\n")[-1])


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` for this metric."""
    if metric["better"] == "lower":
        return new / base - 1.0
    return base / new - 1.0


def test_injection(binary):
    spec = bounds()
    target = "op1.events_per_s"
    # Twice the bound: the metric must fall by 1 - 1/(1 + 2b), well past b.
    fraction = 2.0 * spec[target]["bound"]
    base = bench(binary, "csp", 7, seconds=INJECTION_SECONDS)
    hit = bench(binary, "csp", 7, seconds=INJECTION_SECONDS,
                extra=["--inject", "%s:%g" % (target, fraction)])
    ok = base["correct"] and hit["correct"]
    for name, m in base["metrics"].items():
        if name not in spec or name == "setup_s":
            continue
        worse = worse_by(spec[name], m["value"], hit["metrics"][name]["value"])
        moved = worse > spec[name]["bound"]
        expect = name == target
        print("  %-22s worse by %+.3f (bound %.2f)%s" % (
            name, worse, spec[name]["bound"], "  <- injected" if expect else ""))
        ok &= moved == expect
    return ok


def test_split(binary):
    r = bench(binary, "csp", 7, trace=1)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    parts = ["net.submit_ms", "queue.wait_ms", "engine.job_ms", "net.result_ms"]
    total = sum(m[p] for p in parts)
    for p in parts:
        print("  %-14s %8.3f ms (%4.1f%%)" % (p, m[p], 100 * m[p] / total))
    print("  sum %.3f ms vs net.latency_ms %.3f ms" % (total, m["net.latency_ms"]))
    return r["correct"] and abs(total / m["net.latency_ms"] - 1.0) <= 0.10


def test_gate(binary):
    perturbed = os.path.join(os.path.dirname(os.path.dirname(binary)),
                             "perturbed_reference.txt")
    with open(os.path.join(BENCH, "reference.txt")) as f:
        lines = f.read().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("csp.op.facets "):
            key, value = line.split()
            lines[i] = "%s %d" % (key, int(value) + 1)
    with open(perturbed, "w") as f:
        f.write("\n".join(lines))
    r = bench(binary, "csp", 7, reference=perturbed)
    print("  correct=%s failed=%d of %d" % (r["correct"], r["failed"], r["attempted"]))
    return not r["correct"] and r["failed"] > 0


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = run.build(os.path.abspath(build_root))
    failed = 0
    for test in (test_injection, test_split, test_gate):
        print(test.__name__)
        ok = test(binary)
        print("  ->", "PASS" if ok else "FAIL")
        failed += not ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
