"""sectorpack benchmark: two workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout; the package is imported from its src/:

    python3 bench/run.py --workload search-fine --seed 1 --seconds 50 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the spans
are written to .bench_out/.  The line before it records the seed, the Python
and numpy versions, nproc and workers=1.

Workloads, each run in this one process with workers=1 and no process pool:

  search-fine   search_quadratic(Sector(1/3), bound=3, prefix=1000).  The
                full-region screen takes most of the time.
  families      verify_packing, rank, unrank, SectorArray and the in-process
                `sector-pack layout` command on eight families, one of each
                kind, beside a small sweep (Sector(1), bound=2) in which
                candidate generation and the 48-point screen take most of
                the time.

Every run reports every end-to-end metric, so every workload makes families
passes too.  Sweeps repeat until --seconds have passed and at least three have
run; between the chunks of each sweep the run takes the next step of an
endless series of families passes (a verify call, 1,000 ranks of one family,
...), so every step is repeated at times spread over the whole run.  Each
timed call is checked; a wrong answer or an exception counts as a failed
operation, never as a fast one.

Shared machines have slow spells.  On a shared 2-vCPU virtual machine
(Python 3.11, numpy 2.4) the same code ran 1.6 to 1.9 times slower, at the
same CPU time, in spells from one second to several minutes.  A figure pooled
over a whole run would move with the share of the run that fell into spells.
So the run repeats each block of work (a sweep chunk, a verify call, 1,000
ranks of one family, ...) at times spread over the run and keeps the block's
fastest repetition: a spell shows only if it covers that block every time.
Latency percentiles are taken over the kept samples, one full pass's worth;
rates and times sum the kept blocks.  Spells hit one vCPU at a time more
often than both, so the run also follows the quicker vCPU.  Spells longer
than a run still move its figures.

Set-up (import, inputs, one discarded warm-up) is timed in this process and
again in fresh child processes, run one after another; setup_s is the median.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

FAMILIES = ("cantor-f", "cantor-g", "steep-f:3", "steep-g:1",
            "div-f:2/5", "div-g:1/4", "quasi:3/2", "quasi:7/10")
CLI_FAMILY = "quasi:3/2"
BIG_LOW, BIG_HIGH = 10 ** 30, 11 * 10 ** 29  # huge ranks are drawn from [low, high)
BLOCKS = 5  # per family, the timed calls of one kind are split into this many blocks


@dataclass(frozen=True)
class Sizes:
    sweeps: dict  # workload -> (slope, coefficient bound) of its sweeps
    prefix: int  # search prefix
    points: int  # per family: verify prefix, ranks, unranks, filled cells; CLI --count
    big: int  # per family: seeded ranks in [BIG_LOW, BIG_HIGH)
    touches: int  # per family: seeded gets, then as many overwriting puts
    cli_runs: int  # CLI calls per families pass
    min_sweeps: int
    setup_runs: int  # set-up timings: this process plus setup_runs - 1 children


SIZES = {
    "full": Sizes({"search-fine": ("1/3", 3), "families": ("1", 2)},
                  1000, 5_000, 500, 1_250, 2, 3, 5),
    # for bench/smoke.py
    "tiny": Sizes({"search-fine": ("1/3", 2), "families": ("1", 1)},
                  100, 500, 50, 100, 1, 1, 2),
}

# (slope, bound, prefix) -> survivors of that sweep, as str(QuadPoly) gives them
EXPECTED = {
    ("1/3", 3, 1000): ["1/2*x^2 - 2*x*y + 2*y^2 + 1/2*x"],
    ("1", 2, 1000): ["1/2*x^2 + 1/2*x + y", "1/2*x^2 + 3/2*x - y"],
    ("1/3", 2, 100): ["1/2*x^2 - 2*x*y + 2*y^2 + 1/2*x"],
    ("1", 1, 100): ["1/2*x^2 + 1/2*x + y"],
}

E2E_UNITS = {
    "setup_s": "s",
    "search_s": "s",
    "peak_rss_mb": "MiB",
    "verify_pts_per_s": "points/s",
    "rank_p50_us": "us",
    "rank_p99_us": "us",
    "unrank_p50_us": "us",
    "unrank_p99_us": "us",
    "unrank_big_p50_us": "us",
    "unrank_big_p99_us": "us",
    "layout_fill_cells_per_s": "cells/s",
    "layout_iter_cells_per_s": "cells/s",
    "layout_put_p50_us": "us",
    "layout_get_p50_us": "us",
    "cli_layout_s": "s",
}


def load():
    """Import sectorpack from this checkout's src/, never from an installed copy."""
    if not (SRC / "sectorpack" / "__init__.py").is_file():
        sys.exit(f"bench: no sectorpack sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sectorpack
    import sectorpack.cli  # noqa: F401  (not imported by the package itself)
    if not Path(sectorpack.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported sectorpack from {sectorpack.__file__}, not {SRC}")
    return sectorpack


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops


class Fastest:
    """The fastest repetition of each block of work, keyed by (kind, ...).

    Only the fastest is kept, so memory does not grow with the repetitions.
    """

    def __init__(self):
        self._calls: dict = {}  # key -> (total ns, per-call ns samples)
        self._times: dict = {}  # key -> (ns, work done)

    def calls(self, key: tuple, samples: array) -> None:
        """Offer a block of timed calls; the block with the smallest total is kept."""
        total = sum(samples)
        kept = self._calls.get(key)
        if kept is None or total < kept[0]:
            self._calls[key] = (total, samples)

    def time(self, key: tuple, ns: int, work: int = 1) -> None:
        """Offer one timed call; the smallest time is kept."""
        kept = self._times.get(key)
        if kept is None or ns < kept[0]:
            self._times[key] = (ns, work)

    def pooled(self, kind: str) -> list:
        """Per-call samples of the kept block of every key of this kind."""
        return [ns for key, (_, samples) in self._calls.items() if key[0] == kind
                for ns in samples]

    def seconds(self, kind: str) -> float:
        return sum(ns for key, (ns, _) in self._times.items() if key[0] == kind) / 1e9

    def rate(self, kind: str) -> float:
        """Work per second over the kept calls of one kind."""
        work = sum(w for key, (_, w) in self._times.items() if key[0] == kind)
        seconds = self.seconds(kind)
        return work / seconds if seconds else 0.0


@dataclass
class Inputs:
    sector: object
    bound: int
    prefix: int
    expected: list
    # per family: (family, huge ranks, indices to get, indices to put)
    families: list


def build_inputs(sp, workload: str, sizes: Sizes, seed: int) -> Inputs:
    """Sweeps are fixed; the seed draws the huge ranks and the get and put points."""
    slope, bound = sizes.sweeps[workload]
    rng = random.Random(seed)
    families = []
    for name in FAMILIES:
        big = [rng.randrange(BIG_LOW, BIG_HIGH) for _ in range(sizes.big)]
        gets = [rng.randrange(sizes.points) for _ in range(sizes.touches)]
        puts = [rng.randrange(sizes.points) for _ in range(sizes.touches)]
        families.append((sp.packing.parse_family(name), big, gets, puts))
    return Inputs(sp.core.Sector.from_text(slope), bound, sizes.prefix,
                  EXPECTED[(slope, bound, sizes.prefix)], families)


def _same(p):
    return p


def warm_up(sp, inputs: Inputs) -> None:
    """Discarded: a bound-1 sweep on the same slope and a 1,000-cell fill per family."""
    sp.verify.search_quadratic(inputs.sector, 1, inputs.prefix, workers=1)
    for family, *_ in inputs.families:
        sp.layout.SectorArray(family).dense_prefix_fill(1000, _same)


def _blocks(seq):
    step = max(1, math.ceil(len(seq) / BLOCKS))
    return enumerate(seq[i:i + step] for i in range(0, len(seq), step))


# The timed calls below look functions up on sectorpack's modules and classes
# at call time, so that the traced run sees the wrappers installed there.

def sweep(sp, inputs: Inputs, tally: Tally, fastest: Fastest, between=None) -> None:
    """One sweep, timed per chunk through the progress callback.

    `between`, if given, runs after every chunk, outside the timed stretches.
    """
    pc = time.perf_counter_ns
    marks = [pc()]  # start and end of each stretch of sweep work

    def progress(done, total):
        marks.append(pc())
        if between is not None:
            between()
        marks.append(pc())

    report = sp.verify.search_quadratic(inputs.sector, inputs.bound, inputs.prefix, workers=1,
                                        progress=progress)
    marks.append(pc())
    for i in range(0, len(marks), 2):
        fastest.time(("sweep", i // 2), marks[i + 1] - marks[i])
    tally.check(report.exhausted and [str(f) for f in report.survivors] == inputs.expected)


def families_steps(sp, inputs: Inputs, sizes: Sizes, tally: Tally, fastest: Fastest):
    """One families pass, as a generator that pauses after each step of timed work."""
    pc = time.perf_counter_ns
    count = sizes.points
    cli_points = None
    for f, (family, big, gets, puts) in enumerate(inputs.families):
        t = pc()
        verdict = sp.verify.verify_packing(family.form, family.sector, count)
        fastest.time(("verify", f), pc() - t, verdict.points_examined)
        tally.check(verdict.ok)
        yield

        rank, unrank = family.rank, family.unrank
        points = []
        for b, block in _blocks(range(count)):
            unrank_ns, rank_ns = array("q"), array("q")
            for n in block:
                t0 = pc()
                p = unrank(n)
                t1 = pc()
                back = rank(p)
                t2 = pc()
                unrank_ns.append(t1 - t0)
                rank_ns.append(t2 - t1)
                points.append(p)
                tally.check(back == n, ops=2)
            fastest.calls(("unrank", f, b), unrank_ns)
            fastest.calls(("rank", f, b), rank_ns)
            yield
        for b, block in _blocks(big):
            ns = array("q")
            for n in block:
                t0 = pc()
                p = unrank(n)
                ns.append(pc() - t0)
                tally.check(rank(p) == n)
            fastest.calls(("unrank_big", f, b), ns)
            yield

        layout = sp.layout.SectorArray(family)
        t = pc()
        layout.dense_prefix_fill(count, _same)
        fastest.time(("fill", f), pc() - t, count)
        tally.check(layout.population == count)
        t = pc()
        cells = list(layout.iterate())
        fastest.time(("iterate", f), pc() - t, len(cells))
        tally.check(cells == [(p, p) for p in points] and layout.population == count)
        values = list(points)
        for b, block in _blocks(gets):
            ns = array("q")
            for i in block:
                t0 = pc()
                got = layout.get(points[i])
                ns.append(pc() - t0)
                tally.check(got == values[i])
            fastest.calls(("get", f, b), ns)
        for b, block in _blocks(puts):
            ns = array("q")
            for i in block:
                t0 = pc()
                old = layout.put(points[i], -i)
                ns.append(pc() - t0)
                tally.check(old == values[i])
                values[i] = -i
            fastest.calls(("put", f, b), ns)
        if family.name == CLI_FAMILY:
            cli_points = points
        yield

    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-layout-{os.getpid()}.csv"
    want = ["offset,x,y"] + [f"{n},{x},{y}" for n, (x, y) in enumerate(cli_points)]
    argv = ["layout", "--family", CLI_FAMILY, "--count", str(count), "--out", str(path)]
    try:
        for _ in range(sizes.cli_runs):
            t = pc()
            status = sp.cli.main(argv)
            fastest.time(("cli",), pc() - t)
            tally.check(status == 0 and path.read_text(encoding="utf-8").splitlines() == want)
            yield
    finally:
        path.unlink(missing_ok=True)


class Passes:
    """Families passes without end, advanced one step per call.

    An exception from the program ends the current pass and counts as one
    failed operation; the next call starts a new pass.
    """

    def __init__(self, new_pass, tally: Tally):
        self._new_pass = new_pass
        self._tally = tally
        self._steps = None
        self.done = 0  # completed passes

    def __call__(self) -> None:
        if self._steps is None:
            self._steps = self._new_pass()
        try:
            next(self._steps)
        except StopIteration:
            self._steps = None
            self.done += 1
        except Exception:  # the run goes on and reports correct: false
            traceback.print_exc()
            self._tally.check(False)
            self._steps = None

    def finish(self) -> None:
        """Run the current pass to its end, or a whole pass if none has completed."""
        while self._steps is not None or not self.done:
            self()


class FastestCpu:
    """Moves this process, now and then, to the CPU that runs a fixed probe fastest.

    Slow spells hit one vCPU at a time more often than both at once, so a
    single-threaded run that follows the quicker vCPU spends less of itself
    in spells.  The probe is plain Python and does not touch sectorpack.
    """

    PERIOD_NS = 250_000_000

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._next = 0

    @staticmethod
    def _probe_ns(cpu: int) -> int:
        os.sched_setaffinity(0, {cpu})
        best = None
        for _ in range(2):  # the first run pays for the move
            t = time.perf_counter_ns()
            x = 0
            for i in range(2000):
                x += i * i % 7
            ns = time.perf_counter_ns() - t
            best = ns if best is None else min(best, ns)
        return best

    def __call__(self) -> None:
        now = time.perf_counter_ns()
        if len(self.cpus) < 2 or now < self._next:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._probe_ns)})
        self._next = time.perf_counter_ns() + self.PERIOD_NS

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def guarded_sweep(sp, inputs: Inputs, tally: Tally, fastest: Fastest, between=None) -> None:
    try:
        sweep(sp, inputs, tally, fastest, between)
    except Exception:  # the run goes on and reports correct: false
        traceback.print_exc()
        tally.check(False)


def percentile_us(samples_ns: list, q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in microseconds."""
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] / 1000


def end_to_end(fastest: Fastest, setups: list) -> tuple[dict, dict]:
    """(metric name -> (value, unit), kept samples per latency kind)."""
    pooled = {kind: fastest.pooled(kind) for kind in ("rank", "unrank", "unrank_big", "get", "put")}
    values = {
        "setup_s": statistics.median(setups),
        "search_s": fastest.seconds("sweep"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verify_pts_per_s": fastest.rate("verify"),
        "rank_p50_us": percentile_us(pooled["rank"], 50),
        "rank_p99_us": percentile_us(pooled["rank"], 99),
        "unrank_p50_us": percentile_us(pooled["unrank"], 50),
        "unrank_p99_us": percentile_us(pooled["unrank"], 99),
        "unrank_big_p50_us": percentile_us(pooled["unrank_big"], 50),
        "unrank_big_p99_us": percentile_us(pooled["unrank_big"], 99),
        "layout_fill_cells_per_s": fastest.rate("fill"),
        "layout_iter_cells_per_s": fastest.rate("iterate"),
        "layout_put_p50_us": percentile_us(pooled["put"], 50),
        "layout_get_p50_us": percentile_us(pooled["get"], 50),
        "cli_layout_s": fastest.seconds("cli"),
    }
    counts = {kind: len(samples) for kind, samples in pooled.items()}
    return {name: (value, E2E_UNITS[name]) for name, value in values.items()}, counts


def child_setup_s(workload: str, seed: int, sizes_name: str) -> float:
    """Set-up time of a fresh process, as it measures it itself."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--sizes", sizes_name, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run(workload: str, seed: int, seconds: float, trace: bool, sizes_name: str = "full",
        setup_only: bool = False) -> tuple[dict, dict]:
    """(info, result) for one run; result is the contract's last-line object."""
    sizes = SIZES[sizes_name]
    sp = load()
    inputs = build_inputs(sp, workload, sizes, seed)
    warm_up(sp, inputs)
    setup_s = time.perf_counter() - T0
    if setup_only:
        return {}, {"setup_s": setup_s}

    import numpy
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "sizes": sizes_name, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)), "workers": 1}
    tally, fastest = Tally(), Fastest()
    if trace:
        from probes import install, per_layer
        from tracer import Tracer

        def one_round():  # one sweep, then one whole families pass
            guarded_sweep(sp, inputs, tally, fastest)
            Passes(lambda: families_steps(sp, inputs, sizes, tally, fastest), tally).finish()

        # The first round takes the page faults of the first large sweep; the
        # second is the untraced baseline for the tracing overhead.
        one_round()
        t = time.perf_counter()
        one_round()
        untraced = time.perf_counter() - t
        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
        install(tracer)
        try:
            t = time.perf_counter()
            one_round()
            traced = time.perf_counter() - t
        finally:
            tracer.restore()
        metrics, absent = per_layer(tracer, traced - untraced)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_file)
        info.update(absent=absent, trace_file=str(trace_file.relative_to(ROOT)),
                    untraced_s=untraced, traced_s=traced)
    else:
        # Families steps run between the sweep's chunks, so every block of
        # work is repeated at times spread over the whole run.  After
        # min_sweeps, a sweep starts only if it should end within --seconds.
        passes = Passes(lambda: families_steps(sp, inputs, sizes, tally, fastest), tally)
        follow = FastestCpu()

        def between():
            follow()
            passes()

        start = time.perf_counter()
        sweeps, sweep_s = 0, 0.0
        try:
            while sweeps < sizes.min_sweeps or time.perf_counter() - start + sweep_s <= seconds:
                t = time.perf_counter()
                follow()
                guarded_sweep(sp, inputs, tally, fastest, between=between)
                sweep_s = time.perf_counter() - t
                sweeps += 1
            passes.finish()
        finally:
            follow.release()
        setups = [setup_s] + [child_setup_s(workload, seed, sizes_name)
                              for _ in range(sizes.setup_runs - 1)]
        metrics, counts = end_to_end(fastest, setups)
        info.update(sweeps=sweeps, passes=passes.done, measured_s=time.perf_counter() - start,
                    setups_s=setups, kept_samples=counts)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"].sweeps))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.sizes, args.setup_only)
    if info:
        print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
