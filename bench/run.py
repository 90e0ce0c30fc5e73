#!/usr/bin/env python3
"""Benchmark of the circlink command line on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload grid_dense --seed 0 --seconds 25 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m circlink ...`` process, one at a time (a closed loop with a
single client), and whole passes of the command sequence repeat until
``--seconds`` are used. With ``--trace 1`` the same commands run in this
process instead, alternating an untraced pass with a traced pass whose
wrappers record per-layer spans and counters (see tracing.py).

Every command's exit code and the sha256 of its stdout and of every SVG it
writes are compared across passes and against bench/reference.json, and
facts about each workload are checked (workloads.py); each mismatch counts
as a failed command. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference CPU speed. The machines this runs on are
shared, and their speed drifts by tens of percent within a minute, so each
timed interval is multiplied by CAL_REF_S over the mean time of a fixed
calibration loop run just before and just after it (the loop after one
interval serves as the loop before the next). Raw seconds are printed in
the report above the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")
WORK = ".bench_work"

CAL_REF_S = 0.012        # calibration loop time that defines one reference second
CAL_REPS = 4
MIN_PASSES = 3
SETUP_SAMPLE_S = 0.2     # a set-up sample repeats set-up until it takes this long
HARD_LIMIT_S = 150.0     # start no pass after this, so a run ends within 180 s


def _calibration_work():
    # fixed pure-Python work with circlink's mix of Fraction arithmetic,
    # bignum products, dict updates and sorting
    acc = Fraction(0)
    table = {}
    x = 1
    for i in range(1, 2500):
        acc += Fraction(i, i + 7)
        x = (x * 6364136223846793005 + i) % (1 << 512)
        table[(i % 97, x & 1023)] = (x >> 100).bit_length()
    sorted(table.items())
    return acc


class Clock:
    """Scales measured intervals to the reference CPU speed."""

    def __init__(self):
        self.before = self._calibrate()
        self.samples = [self.before]

    @staticmethod
    def _calibrate() -> float:
        t0 = perf_counter()
        for _ in range(CAL_REPS):
            _calibration_work()
        return (perf_counter() - t0) / CAL_REPS

    def scaled(self, raw: float) -> float:
        """Call right after timing an interval of raw seconds."""
        after = self._calibrate()
        self.samples.append(after)
        factor = 2 * CAL_REF_S / (self.before + after)
        self.before = after
        return raw * factor


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# run context


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_context():
    return {
        "nproc": os.cpu_count(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload input and its commands


class Session:
    """The inputs, outputs and correctness bookkeeping of one run."""

    def __init__(self, w, size, seed, work, reference):
        self.w = w
        self.size = size
        self.seed = seed
        self.work = work                  # relative to ROOT, so stdout bytes are stable
        self.pair = os.path.join(work, "pair.json")
        self.map = os.path.join(work, "map.json")
        self.out = os.path.join(work, "out")
        self.err = os.path.join(work, "stderr.log")
        self.key = "%s size=%d seed=%d" % (w.name, size, seed)
        self.reference = reference.get(self.key)
        self.expected = None
        self.first = {}                   # command -> digests of its first run
        self.attempted = 0
        self.failures = []

    def args(self, command):
        if command == "quotient_check":
            return [self.pair]
        extra = {"render": ["--out", self.out], "equivariance": ["--map", self.map]}
        return [command, self.pair] + extra.get(command, [])

    def argv(self, command):
        if command == "quotient_check":
            return [sys.executable, os.path.join("bench", "qcheck.py")] + self.args(command)
        return [sys.executable, "-m", "circlink"] + self.args(command)

    def svg_paths(self):
        return {"input.svg": self.out + "-input.svg",
                "straightened.svg": self.out + "-straightened.svg"}

    def clear_outputs(self):
        for path in self.svg_paths().values():
            if os.path.exists(path):
                os.remove(path)

    def digests(self, command, code, stdout):
        files = {}
        if command == "render":
            for name, path in self.svg_paths().items():
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        files[name] = fh.read()
        record = {"exit": code, "stdout": _sha256(stdout),
                  "files": {name: _sha256(data) for name, data in sorted(files.items())}}
        return record, files

    def verify(self, command, code, stdout):
        """Check one command's output; returns its digests."""
        from workloads import check_output

        record, files = self.digests(command, code, stdout)
        problems = check_output(command, code, stdout, files, self.expected, self.out)
        first = self.first.setdefault(command, record)
        if record != first:
            problems.append("%s: output differs from the first pass" % command)
        if self.reference is not None and record != self.reference.get(command):
            problems.append("%s: output differs from the reference digests" % command)
        self.attempted += 1
        if problems:
            self.failures.append(problems)
        return record


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, err_path, timeout):
    """Run one command to completion: (raw seconds, exit code, stdout, peak RSS MiB)."""
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        status = usage = None
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        raw = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return raw, proc.returncode, out, usage.ru_maxrss / 1024.0


def cli_pass(s, clock, env, deadline):
    """One pass of the workload's commands, each as a fresh process."""
    cmds = {}
    for command in s.w.commands:
        s.clear_outputs()
        raw, code, out, rss = spawn(s.argv(command), env, s.err,
                                    max(1.0, deadline - perf_counter()))
        cmds[command] = {"s": clock.scaled(raw), "raw_s": raw, "rss_mib": rss}
        s.verify(command, code, out)
    return {
        "s": sum(c["s"] for c in cmds.values()),
        "raw_s": sum(c["raw_s"] for c in cmds.values()),
        "rss_mib": max(c["rss_mib"] for c in cmds.values()),
        "commands": cmds,
    }


def _run_inprocess(command, args):
    import qcheck
    from circlink import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qcheck.main(args) if command == "quotient_check" else cli.main(args)
    return code, buf.getvalue().encode("utf-8")


def inprocess_pass(s, clock, tracer=None):
    """One pass of the workload's commands in this process, traced or not."""
    from workloads import CLI_COMMANDS

    results = []
    s.clear_outputs()
    t0 = perf_counter()
    for command in s.w.commands:
        if tracer is None:
            code, out = _run_inprocess(command, s.args(command))
        else:
            code, out = tracer.call("command." + command, _run_inprocess,
                                    (command, s.args(command)), {}, True)
            if command in CLI_COMMANDS:
                tracer.counters["cli.stdout_bytes"] += len(out)
        results.append((command, code, out))
    raw = perf_counter() - t0
    scaled = clock.scaled(raw)
    for command, code, out in results:
        s.verify(command, code, out)
    return raw, scaled


# ---------------------------------------------------------------------------
# measurement


def prepare(s):
    """Write the inputs once, untimed; returns the set-up repetitions per sample."""
    from workloads import Expected, write_inputs

    os.makedirs(s.work, exist_ok=True)
    t0 = perf_counter()
    fp = write_inputs(s.w, s.size, s.seed, s.work)
    s.expected = Expected(s.w, s.size, fp)
    return max(1, math.ceil(SETUP_SAMPLE_S / (perf_counter() - t0)))


def setup_sample(s, clock, reps):
    """Generate and write the inputs reps times; returns scaled seconds per set-up."""
    from workloads import write_inputs

    t0 = perf_counter()
    for _ in range(reps):
        write_inputs(s.w, s.size, s.seed, s.work)
    return clock.scaled(perf_counter() - t0) / reps


def _enough(durations, started, seconds, minimum):
    elapsed = perf_counter() - started
    typical = statistics.median(durations)
    if elapsed + typical > HARD_LIMIT_S:
        return True
    return len(durations) >= minimum and elapsed + typical > seconds


def measure_cli(s, clock, seconds, started, reps):
    env = _env()
    # import circlink once untimed, so bytecode is compiled before timing
    spawn([sys.executable, "-m", "circlink", "gen", "--kind", "tripod"], env, s.err, 60)
    passes, setup = [], []
    t0 = perf_counter()
    while not passes or not _enough([p["raw_s"] for p in passes], t0, seconds, MIN_PASSES):
        # one set-up sample before each pass spreads them over the whole run,
        # so a slow second of the machine moves one sample, not the median
        setup.append(setup_sample(s, clock, reps))
        passes.append(cli_pass(s, clock, env, started + HARD_LIMIT_S + 20))
    metrics = {
        "wall_s": statistics.median([p["s"] for p in passes]),
        "peak_rss_mib": statistics.median([p["rss_mib"] for p in passes]),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "passes": len(passes),
        "setup": {"median_s": metrics["setup_s"], "n": len(setup), "reps_per_sample": reps},
        "wall_raw_s": statistics.median([p["raw_s"] for p in passes]),
        "commands": {
            c: {"median_s": statistics.median([p["commands"][c]["s"] for p in passes]),
                "raw_median_s": statistics.median([p["commands"][c]["raw_s"] for p in passes]),
                "peak_rss_mib": max(p["commands"][c]["rss_mib"] for p in passes),
                "n": len(passes)}
            for c in s.w.commands
        },
    }
    return metrics, detail


def measure_traced(s, clock, seconds):
    from tracing import Tracer, instrumented, layer_metrics

    untraced, traced, layers, pair_raw, self_share = [], [], [], [], []
    t0 = perf_counter()
    while not layers or not _enough(pair_raw, t0, seconds, 1):
        u_raw, u_scaled = inprocess_pass(s, clock)
        tracer = Tracer()
        with instrumented(tracer):
            t_raw, t_scaled = inprocess_pass(s, clock, tracer)
        m = layer_metrics(tracer, t_scaled / t_raw)
        if layers:
            # every traced pass after the first is one more checked operation:
            # its counts must repeat those of the first
            s.attempted += 1
            problems = ["per-layer count %s differs between traced passes" % k
                        for k, v in m.items() if not k.endswith("_s") and layers[0][k] != v]
            if problems:
                s.failures.append(problems)
        layer_s = sum(v for k, v in tracer.self_s.items() if not k.startswith("command."))
        untraced.append(u_scaled)
        traced.append(t_scaled)
        layers.append(m)
        pair_raw.append(u_raw + t_raw)
        # layer self times against the untraced pass: the excess is tracer
        # cost charged to the layers, the rest of the traced pass's excess
        # went to the command roots and to counting
        self_share.append(layer_s * (t_scaled / t_raw) / u_scaled)
    spans_path = os.path.join(s.work, "spans.json")
    origin = tracer.spans[0][1]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([{"name": n, "start_s": a - origin, "end_s": b - origin, "parent": p,
                    "self_s": own} for n, a, b, p, own in tracer.spans], fh, indent=0)
    metrics = {k: (statistics.median([m[k] for m in layers]) if k.endswith("_s") else v)
               for k, v in layers[0].items()}
    metrics["pass.traced_s"] = statistics.median(traced)
    metrics["pass.untraced_s"] = statistics.median(untraced)
    detail = {
        "spans": {"path": spans_path, "n": len(tracer.spans)},
        "traced_passes": len(traced),
        "trace_overhead": metrics["pass.traced_s"] / metrics["pass.untraced_s"] - 1.0,
        "layer_self_over_untraced": statistics.median(self_share),
    }
    return metrics, detail


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_reference(path):
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def benchmark(name, seed, seconds, trace, *, tiny=False, reference_path=REFERENCE, work=None):
    """Set up, measure and check one run; returns (result, detail)."""
    from workloads import WORKLOADS

    started = perf_counter()
    w = WORKLOADS[name]
    size = w.tiny_size if tiny else w.size
    s = Session(w, size, seed, work or os.path.join(WORK, name),
                load_reference(reference_path))
    load_before = os.getloadavg()
    clock = Clock()
    reps = prepare(s)
    if trace:
        metrics, detail = measure_traced(s, clock, seconds)
    else:
        metrics, detail = measure_cli(s, clock, seconds, started, reps)
    load_after = os.getloadavg()

    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(units) ^ set(metrics)))
    failed = len(s.failures)
    context = run_context()
    context.update({
        "load_before": list(load_before),
        "load_after": list(load_after),
        "load_exceeds_nproc": max(load_before[0], load_after[0]) > (os.cpu_count() or 1),
    })
    detail.update({
        "workload": name, "size": size, "seed": seed, "trace": trace,
        "reference": s.key if s.reference is not None else None,
        "context": context,
        "calibration": {"ref_s": CAL_REF_S, "median_raw_s": statistics.median(clock.samples),
                        "n": len(clock.samples)},
        "failed_frac": failed / s.attempted,
        "failures": s.failures[:20],
    })
    result = {
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    return result, detail


def record_reference(names, seeds, path=REFERENCE, *, tiny=False, work=None):
    """Run one checked pass per workload and seed and store its digests."""
    reference = load_reference(path)
    env = _env()
    with _at_root():
        from workloads import WORKLOADS

        for name in names:
            w = WORKLOADS[name]
            size = w.tiny_size if tiny else w.size
            for seed in seeds:
                s = Session(w, size, seed, work or os.path.join(WORK, name), {})
                prepare(s)
                cli_pass(s, Clock(), env, perf_counter() + HARD_LIMIT_S)
                if s.failures:
                    raise RuntimeError("%s: %s" % (s.key, s.failures))
                reference[s.key] = s.first
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(reference, sort_keys=True, indent=1) + "\n")


@contextlib.contextmanager
def _at_root():
    # relative paths keep the render output paths, and so stdout, the same
    # in every checkout
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    previous = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(previous)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, **options) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "circlink", "__init__.py")):
        print("run.py: no circlink sources under %s; run it from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    with _at_root():
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print("run.py: unknown workload %r; choose from %s"
                  % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
            return 2
        result, detail = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                   **options)
    print(json.dumps(detail, sort_keys=True, indent=1))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
