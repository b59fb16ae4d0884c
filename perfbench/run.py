"""Benchmark of the unilcalc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is run from ``src``;
there is nothing to build).  NAME is one of workloads.WORKLOADS, or ``all``
to run each in turn.  One client, closed loop: each pass runs the
workload's commands one child process at a time, ``python -m unilcalc ...``,
and the next command starts when the previous one has exited.  Passes
repeat until the next one would end more than half a pass after
``--seconds`` (with --trace 1, the traced pass that follows must fit too);
there is always at least one.  The
workloads, and why each was chosen, are in workloads.py.

Every command's stdout goes to a file in a scratch directory of the
checkout; once the command has exited, the file is hashed in chunks and
checked against expectations that do not come from the code under test
(workloads.py, expected.json).  An op fails on a wrong output, an unexpected exit status or
a timeout.  ``--negative-control`` makes one expectation wrong, so the run
must report a failure.

--trace 0 prints the end-to-end metrics:
  wall_s       wall seconds of one pass, the mean over the passes (the
               report lines give the median and tail percentile as well)
  cpu_s        user + system seconds of one pass's children (os.wait4),
               the mean over the passes
  peak_rss_mb  median over the passes of the largest child ru_maxrss
  setup_s      median wall time of ``unilcalc --version``, run once
               before each pass: interpreter start plus importing every
               layer
The three times are given at a reference machine speed.  Twice before each
pass and once after the last one, the run times calibrate.py, a fixed Python
workload that no change to unilcalc can touch; each time is divided by the
run's mean calibration time over CALIBRATION_REF_S.  The report lines give
the unscaled times.
--trace 1 runs the same untraced passes, then one pass with each command
run under tracer.py, and prints the per-layer metrics of that pass plus
trace.overhead_ratio (traced pass wall over the untraced mean).  The
traced stdout must be byte-identical to the untraced stdout.

The report lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

This process never imports unilcalc and reads child output in chunks
instead of holding it, because Linux floors a child's ru_maxrss at its
parent's peak RSS at spawn.  Its own peak, reported as ``harness_rss_mb``, is about
21.5 MB with CPython 3.11 on x86_64; the verify, witt and algebra children
peak only just above that (21.8-23 MB by VmHWM), so on those workloads a
drop in the program's memory below the harness's would not show.
UNILCALC_CACHE_DIR is removed from every child environment except the
cache ops'; UNILCALC_PURE is passed through and reported.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OP_TIMEOUT = 60.0  # seconds before a command is killed and counted as failed
SETUP_PER_PASS = 1  # setup_s samples taken before each pass
CALIBRATIONS_PER_PASS = 2  # calibrate.py runs before each pass
# Reference speed for the time metrics: the speed at which calibrate.py
# takes this many seconds (about its median on a shared 2-vCPU x86_64 VM
# with CPython 3.11).
CALIBRATION_REF_S = 0.45
CALIBRATION_CHECKSUM = "2365669156"
# a traced pass takes about this many untraced passes; a --trace 1 run keeps
# that much of its --seconds for it
TRACED_PASS_COST = 4
KEEP_BYTES = 1 << 16  # stdout kept for line checks; the rest is only hashed


@dataclass
class OpResult:
    wall: float
    cpu: float
    rss_kb: int
    status: int
    timed_out: bool
    sha256: str
    lines: int
    tagged: int
    head: str


def child_env(cache_dir=None):
    env = {k: v for k, v in os.environ.items() if k not in ("UNILCALC_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["UNILCALC_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(cmd, cwd, env, tag=None):
    """Run cmd to completion with its stdout in a file, then hash that file
    in chunks, counting its lines and the occurrences of tag.  This process
    sleeps while the child runs, so it takes no CPU from it."""
    out_path = cwd / "stdout"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(os.devnull, "wb") as devnull:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=devnull)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(OP_TIMEOUT, kill)
    timer.start()
    try:
        _, wstatus, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wstatus)

    h = hashlib.sha256()
    head = bytearray()
    lines = tagged = 0
    tag_b = tag.encode() if tag else b""
    tail = b""  # end of the output so far, shorter than the tag
    with open(out_path, "rb") as out:
        while chunk := out.read(1 << 16):
            h.update(chunk)
            lines += chunk.count(b"\n")
            if len(head) < KEEP_BYTES:
                head += chunk[: KEEP_BYTES - len(head)]
            if tag_b:
                window = tail + chunk
                tagged += window.count(tag_b)
                tail = window[-(len(tag_b) - 1):] if len(tag_b) > 1 else b""
    out_path.unlink()
    return OpResult(
        wall=wall,
        cpu=ru.ru_utime + ru.ru_stime,
        rss_kb=ru.ru_maxrss,
        status=proc.returncode,
        timed_out=killed.is_set(),
        sha256=h.hexdigest(),
        lines=lines,
        tagged=tagged,
        head=head.decode(errors="replace"),
    )


def check(expect, res, digests):
    """Messages for every expectation res misses; empty when it is correct."""
    bad = []
    if res.timed_out:
        return [f"timed out after {OP_TIMEOUT:.0f} s"]
    if res.status != expect.status:
        bad.append(f"exit status {res.status}, expected {expect.status}")
    if expect.text is not None and res.head != expect.text:
        bad.append(f"stdout differs from the expected text: {res.head[:200]!r}")
    if expect.lines:
        present = set(res.head.splitlines())
        bad += [f"missing line {line!r}" for line in expect.lines if line not in present]
    if expect.line_count is not None and res.lines != expect.line_count:
        bad.append(f"{res.lines} lines, expected {expect.line_count}")
    if expect.tagged is not None and res.tagged != expect.tagged[1]:
        bad.append(f"{expect.tagged[0]!r} occurs {res.tagged} times, expected {expect.tagged[1]}")
    if expect.digest is not None and digests.get(expect.digest) != res.sha256:
        bad.append(f"sha256 {res.sha256} differs from the recorded digest of {expect.digest!r}")
    return bad


class Runner:
    """Runs ops, counts attempts and failures, and keeps failure messages."""

    def __init__(self, workdir, digests):
        self.workdir = workdir
        self.digests = digests
        self.attempted = 0
        self.failures = []

    def run(self, op, cmd, cache_dir=None):
        res = run_child(cmd, self.workdir, child_env(cache_dir if op.cached else None),
                        op.expect.tagged[0] if op.expect.tagged else None)
        self.attempted += 1
        bad = check(op.expect, res, self.digests)
        if bad:
            self.failures.append(f"{op.label} {' '.join(op.argv)}: {'; '.join(bad)}")
        return res

    def run_pass(self, ops, n, traced=False):
        """One pass; returns the per-op results.  Cache ops share a fresh
        cache directory per pass."""
        cache_dir = self.workdir / f"cache-{n}"
        results = []
        for i, op in enumerate(ops):
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(self.workdir / f"trace-{i}.json"), "--",
                       *op.argv]
            else:
                cmd = [sys.executable, "-m", "unilcalc", *op.argv]
            results.append(self.run(op, cmd, cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return results


def pass_totals(results):
    return {
        "wall": sum(r.wall for r in results),
        "cpu": sum(r.cpu for r in results),
        "rss_mb": max(r.rss_kb for r in results) / 1024,
    }


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    return 100 * (n - 10) // n, s[n - 11]


def describe(samples):
    t = tail(samples)
    return (f"median {statistics.median(samples):.4f} s, "
            + (f"p{t[0]} {t[1]:.4f} s" if t else "no percentile has ten samples beyond it")
            + f" (n={len(samples)})")


def time_setup(runner, n):
    """Wall times of n trivial invocations."""
    op = workloads.Op("setup", ("--version",), workloads.Expect(line_count=1, tagged=("unilcalc ", 1)))
    cmd = [sys.executable, "-m", "unilcalc", "--version"]
    return [runner.run(op, cmd).wall for _ in range(n)]


def time_calibration(runner):
    """Wall time of one run of calibrate.py."""
    op = workloads.Op("calibrate", (), workloads.Expect(text=CALIBRATION_CHECKSUM + "\n"))
    return runner.run(op, [sys.executable, str(HERE / "calibrate.py")]).wall


def environment(seed, workload, inputs_sha):
    probe = subprocess.run(
        [sys.executable, "-c", "import unilcalc, unilcalc.kernels as k; print(k.BACKEND, unilcalc.__version__)"],
        env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT, cwd=ROOT,
    )
    backend, version = (probe.stdout.split() + ["unknown", "unknown"])[:2]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "unilcalc").glob("*.py*")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_sha,
        "backend": backend,
        "unilcalc": version,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "UNILCALC_PURE": os.environ.get("UNILCALC_PURE"),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def inputs_digest(plan):
    h = hashlib.sha256()
    for op in plan.ops:
        h.update(json.dumps(op.argv).encode() + b"\n")
    for name in sorted(plan.files):
        h.update(name.encode() + b"\0" + plan.files[name].encode())
    return h.hexdigest()


def layer_metrics(summaries, cached_ops):
    """Per-layer metrics of one traced pass from the tracer summaries."""
    fn = {}
    counters = {}
    for s in summaries:
        for name, v in s["functions"].items():
            acc = fn.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for k, v in s["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k.endswith("max_deg") else counters.get(k, 0) + v

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def secs(name):
        return fn.get(name, {}).get("s", 0.0)

    def layer(prefix, key):
        return sum(v[key] for name, v in fn.items() if name.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    hits = sum(1 for s in cached_ops if "classify.enumerate_J" not in s["functions"])
    m = {
        "kernels.calls": (layer("kernels", "calls"), "count"),
        "kernels.self_s": (layer("kernels", "self_s"), "s"),
        "kernels.operand_bits": (counters.get("kernels.operand_bits", 0), "bits"),
    }
    for k in ("gf2_mul", "gf2_divmod", "z4_mul", "z4_sq_lift", "z4_add"):
        m[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
    m.update({
        "linking.eval_bq.calls": (calls("linking.eval_bq"), "count"),
        "linking.eval_bq.q_zero_ratio": (
            ratio(counters.get("linking.eval_bq.q_zero", 0), counters.get("linking.eval_bq.q_tried", 0)), "ratio"),
        "linking.find_lagrangian.s": (secs("linking.find_lagrangian"), "s"),
        "linking.find_lagrangian.found_ratio": (
            ratio(counters.get("linking.find_lagrangian.found", 0), calls("linking.find_lagrangian")), "ratio"),
        "linking.sublagrangian_reduce.s": (secs("linking.sublagrangian_reduce"), "s"),
        "linking.arf_even.s": (secs("linking.arf_even"), "s"),
        "linking.LinkingForm.init.s": (secs("linking.LinkingForm.init"), "s"),
        "linking.self_s": (layer("linking", "self_s"), "s"),
        "funcfield.factor.calls": (calls("funcfield.factor"), "count"),
        "funcfield.factor.s": (secs("funcfield.factor"), "s"),
        "funcfield.factor.max_deg": (counters.get("funcfield.factor.max_deg", 0), "degree"),
        "funcfield.artin_schreier_reduce.calls": (calls("funcfield.artin_schreier_reduce"), "count"),
        "funcfield.self_s": (layer("funcfield", "self_s"), "s"),
        "f2linalg.det.calls": (calls("f2linalg.det"), "count"),
        "f2linalg.hnf.calls": (calls("f2linalg.hnf"), "count"),
        "f2linalg.smith.calls": (calls("f2linalg.smith"), "count"),
        "f2linalg.self_s": (layer("f2linalg", "self_s"), "s"),
        "polynomials.parse_poly.calls": (calls("polynomials.parse_poly"), "count"),
        "polynomials.parse_poly.s": (secs("polynomials.parse_poly"), "s"),
        "polynomials.Polynomial.add.calls": (calls("polynomials.Polynomial.add"), "count"),
        "polynomials.versch_reduce.calls": (calls("polynomials.versch_reduce"), "count"),
        "polynomials.self_s": (layer("polynomials", "self_s"), "s"),
        "forms.verify_chain.calls": (calls("forms.verify_chain"), "count"),
        "forms.parse_chain_script.s": (secs("forms.parse_chain_script"), "s"),
        "forms.base_change.calls": (calls("forms.base_change"), "count"),
        "forms.self_s": (layer("forms", "self_s"), "s"),
        "dihedral.mul.calls": (calls("dihedral.mul"), "count"),
        "dihedral.add.calls": (calls("dihedral.add"), "count"),
        "dihedral.self_s": (layer("dihedral", "self_s"), "s"),
        "unil.enumerate_truncated.s": (secs("unil.enumerate_truncated"), "s"),
        "unil.elements": (counters.get("unil.elements", 0), "count"),
        "unil.switch_unil3.calls": (calls("unil.switch_unil3"), "count"),
        "unil.self_s": (layer("unil", "self_s"), "s"),
        "classify.enumerate_J.s": (secs("classify.enumerate_J"), "s"),
        "classify.bar_J.s": (secs("classify.bar_J"), "s"),
        "classify.table_to_csv.s": (secs("classify.table_to_csv"), "s"),
        "classify.rows": (counters.get("classify.rows", 0), "count"),
        "classify.cache_hit_ratio": (ratio(hits, len(cached_ops)), "ratio"),
        "cli.self_s": (layer("cli", "self_s"), "s"),
    })
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description="unilcalc benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="make the first op's expectation wrong; the run must report a failure")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "unilcalc" / "__main__.py").is_file():
        print(f"error: no unilcalc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: the running child is killed and reaped, and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload != "all":
        execute(args, workloads.build(args.workload, args.seed))
        return 0
    # every workload in turn; the last line then sums them up
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        result = execute(one, workloads.build(name, args.seed))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def execute(args, plan):
    """Write the plan's inputs to a scratch directory in the checkout, run
    it, print the report and return the result."""
    digests = json.loads((HERE / "expected.json").read_text())["sha256"]
    if args.negative_control:
        plan.ops[0] = replace(plan.ops[0], expect=plan.ops[0].expect.corrupted())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, text in plan.files.items():
            (workdir / name).write_text(text)
        return measure(args, plan, Runner(workdir, digests))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def measure(args, plan, runner):
    env = environment(args.seed, args.workload, inputs_digest(plan))
    setup = []
    calibration = []
    passes = []
    by_label = {}
    time_setup(runner, 1)  # warm-up: bytecode compiled, files cached
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        calibration += [time_calibration(runner) for _ in range(CALIBRATIONS_PER_PASS)]
        if not args.trace:
            # spread over the run, like the passes, so that drift in machine
            # speed affects both alike
            setup += time_setup(runner, SETUP_PER_PASS)
        results = runner.run_pass(plan.ops, len(passes))
        passes.append(pass_totals(results))
        for op, r in zip(plan.ops, results):
            by_label.setdefault(op.label, []).append(r.wall)
        now = time.perf_counter()
        elapsed = now - start
        if elapsed + (now - step) * (0.5 + TRACED_PASS_COST * args.trace) > args.seconds:
            break
    calibration.append(time_calibration(runner))  # the last pass is bracketed too
    env["harness_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"record: {json.dumps(env, sort_keys=True)}")
    print(f"passes: {len(passes)} in {elapsed:.1f} s, {len(plan.ops)} ops each; one client, closed loop")
    for label, samples in by_label.items():
        print(f"  op {label}: {describe(samples)}")
    wall = [p["wall"] for p in passes]
    print(f"pass wall: {describe(wall)}: " + " ".join(f"{w:.4f}" for w in wall))
    # On a shared 2-vCPU x86_64 VM, the speed of the machine shifted by
    # 1.6-2x in spells of 20 s to minutes, slowing calibrate.py and the
    # program alike.  Passes and calibrations are averaged over the same
    # span of the run, and the time metrics are scaled by their ratio to the
    # reference speed.  Over the 30 s windows of 270-300 s runs on such a
    # VM, scaling by a calibration of this kind cut the quartile spread of
    # the pass time from 0.19 to 0.05 (witt) and from 0.11 to 0.04
    # (classify).
    mean = {key: statistics.fmean(p[key] for p in passes) for key in ("wall", "cpu")}
    slowdown = statistics.fmean(calibration) / CALIBRATION_REF_S
    print(f"calibration: {describe(calibration)}; slowdown {slowdown:.4f} against {CALIBRATION_REF_S} s: "
          + " ".join(f"{w:.4f}" for w in calibration))
    print(f"unscaled: wall {mean['wall']:.4f} s, cpu {mean['cpu']:.4f} s per pass (means)"
          + (f", setup {statistics.median(setup):.4f} s (median)" if setup else ""))

    if args.trace:
        metrics = traced_pass(plan, runner, results, mean["wall"])
    else:
        metrics = {
            "wall_s": (mean["wall"] / slowdown, "s"),
            "cpu_s": (mean["cpu"] / slowdown, "s"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
            "setup_s": (statistics.median(setup) / slowdown, "s"),
        }
    failed = len(runner.failures)
    if setup:
        print(f"setup_s samples: {describe(setup)}: " + " ".join(f"{w:.4f}" for w in setup))
    print(f"fail_ratio: {failed / runner.attempted:.4f} ratio ({failed} of {runner.attempted} ops)")
    for msg in runner.failures[:20]:
        print(f"FAIL {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def traced_pass(plan, runner, untraced, untraced_wall):
    """One pass under the tracer; its stdout must equal that of the last
    untraced pass, op by op."""
    results = runner.run_pass(plan.ops, "traced", traced=True)
    summaries = []
    cached = []
    for i, (op, a, b) in enumerate(zip(plan.ops, untraced, results)):
        if a.sha256 != b.sha256:
            runner.failures.append(f"{op.label}: traced stdout differs from the untraced stdout")
        path = runner.workdir / f"trace-{i}.json"
        if not path.exists():
            runner.failures.append(f"{op.label}: the tracer wrote no summary")
            continue
        s = json.loads(path.read_text())
        summaries.append(s)
        if op.cached:
            cached.append(s)
    metrics = layer_metrics(summaries, cached)
    metrics["trace.overhead_ratio"] = (pass_totals(results)["wall"] / untraced_wall, "ratio")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
