"""End-to-end and per-layer benchmark of the chessfock command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {table,lattice,walk} --seed N \
        --seconds S --trace {0,1}

Every invocation is a fresh ``python -m chessfock.cli`` child process, run
one after another by a single client (a closed loop), because a fresh
process is what a command-line user pays for: module caches such as
``polyrep._q_items`` are rebuilt on every run.  The program is imported
from ``src/`` of the checkout; nothing is installed.

With ``--trace 0`` the workload's invocations are run in passes for about
S seconds and the end-to-end metrics are printed:

    wall_s        sum over the invocations of the median wall time
    cpu_s         the same for the child's user + system time
    peak_rss_mib  largest peak resident set of any child
    setup_s       median time of a fresh interpreter that only imports
                  chessfock.cli and builds its parser; one is run before
                  every invocation
    pass_frac     invocations that passed their output check / attempted,
                  that is 1 - failed_frac (a metric that is never 0)

On a shared machine the speed of a core changes by tens of percent within
seconds, and user time changes with it.  So every child runs on the one
CPU this process is pinned to, and between children, and every SLICE_S
seconds while an untraced child is stopped (SIGSTOP), this process times
``probe()``, a fixed pure-Python workload that does not use chessfock.
Each child's times are scaled by PROBE_S over the mean probe time taken
before, during and after it: they are seconds on a machine that runs the
probe in PROBE_S.  Paused time is not counted.  The unscaled medians and
maxima are printed per invocation on the metadata line.

With ``--trace 1`` one pass runs under ``bench/tracer.py`` and gives the
per-layer metrics ``<module>.<function>.<stat>`` that BENCHMARK.json
lists, as sums over the pass's invocations; the remaining time runs
untraced passes, and ``trace.overhead_s`` is the traced pass minus the
untraced median (both scaled).  Traced children are not paused, and
their spans measure unscaled seconds.

Every invocation's output is checked: a deterministic one must exit with
the recorded code, write nothing to stderr, and print stdout whose sha256
equals the digest in ``bench/golden.json``, captured from the code before
any optimisation; the seeded ``properties`` suite must exit 0 and print
only PASS lines.  A failed check counts in ``failed`` and makes the run
incorrect.  Resource use is read per child from ``os.wait4``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's metadata.  Exits 2 without a result when the checkout has no
``src/chessfock``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

CLI = ("-m", "chessfock.cli")
SETUP = ("-c", "import chessfock.cli; chessfock.cli.build_parser()")
TRACER = str(BENCH / "tracer.py")

#: Invocations per workload; "{seed}" is replaced by --seed, which only
#: the properties suite takes.  On the seed code one pass takes about 3 s
#: (walk) to 9 s (lattice), so a 40 s run has 3 to 10 samples of each.
WORKLOADS = {
    # fock.apply_f on one large, growing vector, fock.inner and
    # trial-division factorize; e = 3 catches a change that helps only
    # e = 2.  No polyrep or delta code runs.
    "table": (
        "chess-table --n-max 40",
        "scan --n-max 40 --e 3 --p 3",
    ),
    # The polynomial model: f0/f1 applied to word images (generation) and
    # all four generators applied to basis monomials (stability).  No fock
    # code runs.
    "lattice": (
        "verify --suite generation --n-max 13",
        "verify --suite stability --degree 16",
    ),
    # The prefix-tree walks: thousands of apply_f calls on small vectors,
    # the O(W^2) Gram loop of the bound check, and both models' pairings
    # in the cross-model check; the seeded property suite uses both models.
    "walk": (
        "verify --suite bound --n-max 15",
        "verify --suite cross-model --n-max 10",
        "verify --suite properties --seed {seed}",
    ),
}

#: Modules whose traced functions must be called on a workload, and
#: modules that must not be called at all.
EXPECTED_LAYERS = {
    "table": ("cli", "experiments", "fock", "partitions", "arith"),
    "lattice": ("cli", "delta", "polyrep", "partitions", "arith"),
    "walk": ("cli", "experiments", "fock", "polyrep", "partitions", "arith"),
}
BYPASSED_LAYERS = {
    "table": ("polyrep", "delta"),
    "lattice": ("fock",),
    "walk": (),
}

#: Every child is killed at this many seconds after the start, so that a
#: hung program still ends the run within its time limit.
HARD_LIMIT_S = 170.0

#: The nominal time of probe(), which defines the speed that every
#: reported time is scaled to, and how often an untraced child is paused
#: to take a probe.
PROBE_S = 0.015
SLICE_S = 0.2


def probe() -> float:
    """Seconds a fixed pure-Python workload takes in this process right
    now.  It mixes what chessfock's kernels spend their time on: dicts
    keyed by small tuples, and Fraction sums and products."""
    gc.disable()
    start = time.perf_counter()
    sums = {}
    for i in range(1_500):
        key = tuple(sorted(((i * 7) % 11, (i * 5) % 13, i % 17), reverse=True))
        prev = sums.get(key, Fraction(0))
        sums[key] = prev + Fraction(i % 9 + 1, i % 4 + 1) * Fraction(3, i % 5 + 1)
    shapes = {}
    for i in range(8_000):
        lam = (i % 23, i % 19, i % 7, i)
        shapes[lam] = shapes.get(lam, 0) + i
    took = time.perf_counter() - start
    gc.enable()
    return took


@dataclass
class Child:
    """One finished child process and what it used.  ``wall_s`` leaves
    out the time the child was paused; ``scale`` turns its unscaled times
    into seconds at the probe's nominal speed."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    out: bytes
    err: bytes
    side: bytes
    timed_out: bool
    scale: float


def spawn(args, env, deadline, side_channel=False) -> Child:
    """Run ``python args...`` to completion, collecting stdout, stderr and,
    with side_channel, the bytes written to an extra pipe whose descriptor
    number is inserted after args[0].  Without side_channel the child is
    paused every SLICE_S seconds for a probe.  Resources come from this
    child's own rusage (os.wait4), not the cumulative RUSAGE_CHILDREN."""
    pass_fds = ()
    side_r = None
    if side_channel:
        side_r, side_w = os.pipe()
        pass_fds = (side_w,)
        args = (args[0], str(side_w), *args[1:])
    readings = [probe()]
    start = time.perf_counter()
    proc = subprocess.Popen((sys.executable, *args), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, pass_fds=pass_fds)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    readers = {out_fd: [], err_fd: []}
    if side_r is not None:
        os.close(side_w)
        readers[side_r] = []
    status = usage = end = None
    paused = 0.0
    next_pause = start + SLICE_S if not side_channel else float("inf")
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in readers:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                now = time.perf_counter()
                if now >= deadline:
                    timed_out = True
                    break
                if now >= next_pause:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, stopped, stopped_usage = os.wait4(proc.pid, os.WUNTRACED)
                    if os.WIFSTOPPED(stopped):
                        readings.append(probe())
                        os.kill(proc.pid, signal.SIGCONT)
                        paused += time.perf_counter() - now
                        next_pause = time.perf_counter() + SLICE_S
                    else:  # it had already exited, and is now reaped
                        status, usage, end = stopped, stopped_usage, time.perf_counter()
                        next_pause = float("inf")
                    continue
                for key, _ in sel.select(min(deadline, next_pause) - now):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        readers[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        if status is None:
            proc.kill()
        raise
    finally:
        if status is None:
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        if side_r is not None:
            os.close(side_r)
    readings.append(probe())
    return Child(
        wall_s=end - start - paused,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        code=proc.returncode,
        out=b"".join(readers[out_fd]),
        err=b"".join(readers[err_fd]),
        side=b"".join(readers[side_r]) if side_r is not None else b"",
        timed_out=timed_out,
        scale=PROBE_S / statistics.mean(readings),
    )


def check(command, child, golden):
    """None when the child's output is right, else the reason it is not.

    A command in ``golden`` must match its exit code and stdout digest;
    any other command is a seeded properties run and must print PASS
    lines only."""
    if child.timed_out:
        return "timed out"
    if child.err:
        return f"stderr: {child.err[:200]!r}"
    expected = golden.get(command)
    if expected is None:
        if "--suite properties" not in command:
            raise KeyError(f"no golden output recorded for {command!r}")
        lines = child.out.decode().splitlines()
        if child.code != 0 or not lines:
            return f"exit {child.code} with {len(lines)} lines"
        bad = [line for line in lines if not line.startswith("PASS ")]
        return f"not PASS: {bad[0]!r}" if bad else None
    if child.code != expected["exit"]:
        return f"exit {child.code}, expected {expected['exit']}"
    digest = hashlib.sha256(child.out).hexdigest()
    if digest != expected["sha256"]:
        return f"stdout sha256 {digest}, expected {expected['sha256']}"
    return None


def corrupted(golden):
    """The golden table with every digest altered in its first digit."""
    flip = {c: "0" for c in "123456789abcdef"} | {"0": "1"}
    return {command: dict(entry, sha256=flip[entry["sha256"][0]] + entry["sha256"][1:])
            for command, entry in golden.items()}


class Run:
    """The children of one benchmark run, and what went wrong."""

    def __init__(self, golden, env, deadline):
        self.golden = golden
        self.env = env
        self.deadline = deadline
        self.samples = []  # (kind, command, child), kind: setup, cli or traced
        self.attempted = 0
        self.failures = []
        self.problems = []

    def record(self, kind, command, child):
        """Keep a finished child and count it as attempted, and as failed
        when its output is wrong."""
        self.samples.append((kind, command, child))
        self.attempted += 1
        if kind == "setup":
            bad = child.code != 0 or child.out or child.err or child.timed_out
            reason = f"exit {child.code}, stderr {child.err[:200]!r}" if bad else None
        else:
            reason = check(command, child, self.golden)
        if reason is not None:
            self.failures.append(f"{kind} {command}: {reason}")

    def setup(self):
        self.record("setup", "", spawn(SETUP, self.env, self.deadline))

    def invoke(self, command, traced=False):
        if traced:
            child = spawn((TRACER, "--", *command.split()), self.env, self.deadline,
                          side_channel=True)
        else:
            child = spawn((*CLI, *command.split()), self.env, self.deadline)
        self.record("traced" if traced else "cli", command, child)

    def passes(self, commands, until):
        """Untraced passes over the commands, each invocation preceded by a
        setup run, until the next pass would end after ``until``; at least
        one pass."""
        while True:
            start = time.perf_counter()
            for command in commands:
                self.setup()
                self.invoke(command)
            took = time.perf_counter() - start
            if time.perf_counter() + took > min(until, self.deadline):
                return

    def of(self, kind):
        return [(command, child) for k, command, child in self.samples if k == kind]

    def median_sum(self, kind, field):
        """Sum over commands of the median scaled time of ``kind`` children."""
        by_command = {}
        for command, child in self.of(kind):
            by_command.setdefault(command, []).append(getattr(child, field) * child.scale)
        return sum(statistics.median(values) for values in by_command.values())

    def timing_report(self):
        """Per command: sample count, and median and maximum of the unscaled
        and scaled wall times.  With a handful of samples in a run, the
        maximum is the only percentile with samples beyond the median."""
        grouped = {}
        for kind, command, child in self.samples:
            grouped.setdefault(f"{kind} {command}".strip(), []).append(child)
        return {name: {"n": len(children),
                       "wall_raw_median_s": statistics.median(c.wall_s for c in children),
                       "wall_raw_max_s": max(c.wall_s for c in children),
                       "wall_median_s": statistics.median(c.wall_s * c.scale for c in children),
                       "wall_max_s": max(c.wall_s * c.scale for c in children),
                       "cpu_raw_median_s": statistics.median(c.cpu_s for c in children),
                       "scale_median": statistics.median(c.scale for c in children),
                       "rss_max_mib": max(c.rss_mib for c in children)}
                for name, children in grouped.items()}


def layer_calls(stats, module):
    return sum(s["calls"] for key, s in stats.items() if key.split(".")[0] == module)


def span_totals(run, workload):
    """Sum the traced children's span data, checking that the self times
    account for each child's time and that the right layers ran."""
    setup_raw = statistics.median(child.wall_s for _, child in run.of("setup"))
    totals = {}
    for command, child in run.of("traced"):
        try:
            side = json.loads(child.side)
        except ValueError:
            run.problems.append(f"traced {command}: no span data")
            continue
        stats = side["stats"]
        if side["missing"]:
            print(f"warning: not traced, not found: {side['missing']}", file=sys.stderr)
        self_sum = sum(s["self_s"] for s in stats.values())
        root = stats["cli.run"]["total_s"]
        if abs(self_sum - root) > 1e-3:
            run.problems.append(f"traced {command}: self times sum to "
                                f"{self_sum:.4f} s, root span {root:.4f} s")
        # Outside every span a child only starts the interpreter, imports,
        # parses its arguments and exits, which a setup run measures.
        gap = child.wall_s - self_sum
        if not 0 <= gap <= 2 * setup_raw + 0.25:
            run.problems.append(f"traced {command}: {gap:.3f} s outside the spans "
                                f"(setup {setup_raw:.3f} s)")
        for key, stat in stats.items():
            into = totals.setdefault(key, {})
            for name, value in stat.items():
                into[name] = into.get(name, 0) + value
    for module in EXPECTED_LAYERS[workload]:
        if layer_calls(totals, module) == 0:
            run.problems.append(f"layer {module} was not called")
    for module in BYPASSED_LAYERS[workload]:
        calls = layer_calls(totals, module)
        if calls:
            run.problems.append(f"layer {module} was called {calls} times")
    return totals


def metadata(args):
    files = sorted((SRC / "chessfock").glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(("git", "rev-parse", "HEAD"), cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "source_lines": sum(f.read_bytes().count(b"\n") for f in files),
        "probe_s": PROBE_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chessfock" / "cli.py").is_file():
        print(f"no chessfock sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    commands = [c.format(seed=args.seed) for c in WORKLOADS[args.workload]]
    # The children ignore the caller's PYTHON* settings: they import from
    # src/, keep bytecode caches as an installed package does, and iterate
    # their sets and dicts of strings in one fixed hash order.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # One CPU for this process and every child, so that the probes measure
    # the speed of the core the invocations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    start = time.perf_counter()
    run = Run(golden, env, deadline=start + HARD_LIMIT_S)
    # Untimed: compiles the bytecode caches and warms the file cache.
    spawn(SETUP, env, run.deadline)
    if args.trace:
        for command in commands:
            run.invoke(command, traced=True)
    run.passes(commands, until=start + args.seconds)

    # A wrong digest must be counted as a failure: replay a real output
    # against corrupted goldens.
    first = next(((c, child) for c, child in run.of("cli") if c in golden), None)
    if first is not None:
        canary = Run(corrupted(golden), env, run.deadline)
        canary.record("cli", *first)
        if len(canary.failures) != 1:
            run.problems.append("a corrupted golden digest was not counted as failed")

    failed = len(run.failures)
    if args.trace:
        totals = span_totals(run, args.workload)
        metrics = {}
        for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            if layer["name"] == "trace.overhead_s":
                value = run.median_sum("traced", "wall_s") - run.median_sum("cli", "wall_s")
            else:  # <module>.<function>.<stat>
                key, stat = layer["name"].rsplit(".", 1)
                value = totals.get(key, {}).get(stat, 0)
            metrics[layer["name"]] = {"value": value, "unit": layer["unit"]}
    else:
        metrics = {
            "wall_s": {"value": run.median_sum("cli", "wall_s"), "unit": "s"},
            "cpu_s": {"value": run.median_sum("cli", "cpu_s"), "unit": "s"},
            "peak_rss_mib": {"value": max(child.rss_mib for _, child in run.of("cli")),
                             "unit": "MiB"},
            "setup_s": {"value": run.median_sum("setup", "wall_s"), "unit": "s"},
            "pass_frac": {"value": (run.attempted - failed) / run.attempted,
                          "unit": "fraction"},
        }
    for reason in run.failures + run.problems:
        print(f"FAIL {reason}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"meta": metadata(args), "timing": run.timing_report(),
                      "failures": run.failures, "problems": run.problems}))
    print(json.dumps({"correct": not run.failures and not run.problems,
                      "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
