#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
measuring process (perfbench/cpp, linked against the library compiled from
this checkout's src/) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed.

The measuring process prints its checks and, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. This wrapper
adds the golden-digest check for the default seed and enforces the
process deadline: a run still going after KILL_AFTER_S seconds is stopped
and its planned trials are reported as failed, never left to hang.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("thm2-worstcase-flat", "fused-static-n256", "sparse-static-1m")
GOLDEN = os.path.join(HERE, "golden.json")

# The measuring process issues no new batch after its own 110 s deadline and
# is killed at KILL_AFTER_S; both sit well inside the 180 s a run may take.
KILL_AFTER_S = 150


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the measuring process; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no library sources beside {HERE}: run from a full checkout")
        sys.exit(2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", bdir, "--target", "adba_perfbench", "-j", jobs]
    with open(os.path.join(os.path.dirname(bdir), "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        for attempt in range(2):
            ok = True
            if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
                ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
            if ok:
                ok = subprocess.run(compile_, stdout=sys.stderr).returncode == 0
            if ok:
                break
            if attempt == 0:
                log("build failed; reconfiguring from scratch")
                shutil.rmtree(bdir, ignore_errors=True)
                os.makedirs(bdir, exist_ok=True)
        else:
            log("build failed")
            sys.exit(2)
    return os.path.join(bdir, "adba_perfbench")


def golden_check(lines, workload, seed):
    """The committed digest for the default seed, if this run uses it."""
    with open(GOLDEN) as f:
        golden = json.load(f)
    if seed != golden["seed"] or workload not in golden["digests"]:
        return True
    want = golden["digests"][workload]
    got = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    ok = got == want
    print(f"check golden-digest {'ok' if ok else 'FAIL'} got={got} want={want}")
    return ok


def planned_trials(lines):
    for line in lines:
        words = line.split()
        if words[:1] == ["workload"] and "batch_trials" in words:
            return int(words[words.index("batch_trials") + 1])
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scenarios through every traced path")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        sys.exit(subprocess.run([binary, "--smoke"], cwd=ROOT).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=KILL_AFTER_S)
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        lines = out.splitlines()
        print("\n".join(lines))
        print(f"check deadline FAIL killed after {KILL_AFTER_S} s")
        n = planned_trials(lines)
        print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
        sys.exit(1)

    lines = out.splitlines()
    if code != 0 and not (lines and lines[-1].startswith("{")):
        print(out, end="")
        log(f"measuring process exited with {code}")
        sys.exit(code or 1)
    result = json.loads(lines[-1])
    body = lines[:-1]
    for line in body:
        print(line)
    if not golden_check(body, args.workload, args.seed):
        result["correct"] = False
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
