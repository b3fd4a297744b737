"""Run one ctxrep benchmark workload and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload collapse --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time of
a fresh interpreter, per-variant run latency and throughput at jobs=1, and the
throughput of the shipped CLI with ``--jobs 2``. ``--trace 1`` runs a fixed
seed block alternately untraced and traced and reports per-layer metrics.
Every time is scaled to a fixed reference speed (see ``ScaledTimer``). Every
run is range-checked, and the CLI's output for the seed block must equal the
benchmark's records bit for bit.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it, and a report under
``.bench_run/``, carry sample counts, percentiles, the environment record and
a digest of the outputs.
"""

from __future__ import annotations

import os

# One BLAS thread per process keeps the load within the CPUs: one benchmark
# process, plus two pool workers during the --jobs 2 phase.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"

# Workload seed n runs program seeds starting at n * SEED_STRIDE.
SEED_STRIDE = 1000
# Kept out of every run made while the benchmark was tuned, for later claims.
HELD_OUT_SEED = 4242
# Share of --seconds spent in the jobs=1 loop; the rest goes to --jobs 2.
JOBS1_SHARE = 0.4
SETUP_SAMPLES = 9
# Nominal duration of reference_work; see ScaledTimer.
REF_S = 0.002
# Seeds per CLI invocation in the --jobs 2 phase.
CLI_SEEDS = 5
MIN_JOBS2_CYCLES = 2
MIN_TRACE_PAIRS = 2


def _median(values) -> float:
    return float(statistics.median(values))


def _high_percentile(values) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    q = int(100 * (1 - 10 / len(values))) if values else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100)[q - 1]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "processes": "1 benchmark process; 2 pool workers during --jobs 2",
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def reference_work() -> float:
    """A fixed CPU load: small numpy updates inside interpreted Python loops,
    the same mix of work as a ctxrep run. Takes about 2 ms on an idle core."""
    a = np.arange(64, dtype=float).reshape(8, 8) / 64.0
    a = a + a.T
    acc = 0.0
    for k in range(400):
        p = k % 7
        column = a[:, p].copy()
        a[:, p] = 0.5 * column + 0.25 * a[:, p + 1]
        acc += float(np.sqrt(abs(a[p, p + 1]) + 1.0))
        acc += sum(i * 0.5 for i in range(20))
    return acc


class ScaledTimer:
    """Times calls and scales each to a fixed reference speed.

    The host's speed drifts by up to 2x from one minute to the next, per CPU,
    and process CPU time drifts with it. Each timed call is therefore
    bracketed by runs of ``reference_work`` on every CPU in ``cpus`` (the
    process hops between them), and its wall time is multiplied by the mean
    of REF_S / reference time: the time the call would take on CPUs where
    ``reference_work`` takes exactly REF_S. The call itself runs with its
    affinity set to ``cpus``, which child processes inherit.
    """

    def __init__(self, cpus):
        self.cpus = set(cpus)
        self.refs: list[float] = []
        self._last_speed = self._speed()

    def _speed(self) -> float:
        speeds = []
        for cpu in sorted(self.cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            reference_work()
            self.refs.append(time.perf_counter() - start)
            speeds.append(REF_S / self.refs[-1])
        os.sched_setaffinity(0, self.cpus)
        return statistics.fmean(speeds)

    def call(self, fn, *args):
        """Returns (result, wall seconds, scaled seconds)."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        speed = self._speed()
        scaled = wall * (self._last_speed + speed) / 2.0
        self._last_speed = speed
        return result, wall, scaled


def setup_run(cfg_path: Path) -> None:
    """A fresh interpreter imports ctxrep and loads the workload's config."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import ctxrep.cli; "
        f"ctxrep.config.load_config({str(cfg_path)!r})"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def passed(wl, cfg, records: dict) -> set:
    """Keys of the runs that returned and passed the range check."""
    return {key for key, rec in records.items()
            if rec is not None and wl.in_range(cfg, key[0], rec)}


def cli_mismatches(cli: dict, records: dict, expected: int) -> int:
    """Runs of the seed block that the CLI did not emit or emitted differently."""
    return expected - len(cli) + sum(records.get(key) != rec for key, rec in cli.items())


def digest(wl, records: dict, seed_start: int, seeds: int) -> dict:
    """Hash of the seed block's records; for collapse, per-method means too."""
    block = sorted((k, v) for k, v in records.items() if k[1] < seed_start + seeds)
    text = json.dumps([[variant, seed, rec] for (variant, seed), rec in block], sort_keys=True)
    out = {"seeds": f"{seed_start}..{seed_start + seeds - 1}",
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if wl.name == "collapse":
        for method in wl.variants:
            recs = [rec for (variant, _), rec in block if variant == method and rec]
            for field in ("vendi_rbf", "off_manifold_rate"):
                out[f"{method}.mean_{field}"] = statistics.fmean(r[field] for r in recs)
    return out


def write_config(path: Path, wl, seed_start: int, seeds: int) -> None:
    path.write_text(wl.cfg_text + f"seeds = {seeds}\nseed_start = {seed_start}\n")


def measure_end_to_end(wl, cfg, cfg_path: Path, seconds: float):
    """Untraced timings; returns (metrics, details, attempted, failed)."""
    from ctxrep.cli import run_command

    # one CPU for the single-process phases, so the reference load runs on
    # the CPU the measured work runs on; both for --jobs 2
    cpus = sorted(os.sched_getaffinity(0))
    timer = ScaledTimer(cpus[:1])
    setup_run(cfg_path)  # fills the bytecode cache
    setup = [timer.call(setup_run, cfg_path)[1:] for _ in range(SETUP_SAMPLES)]
    seed_start = cfg.seed_start

    # jobs=1: variants interleaved seed by seed, so drift hits each equally
    records, times, rounds = {}, {}, 0
    budget = JOBS1_SHARE * seconds
    begin = time.perf_counter()
    while rounds < cfg.seeds or time.perf_counter() - begin < budget:
        seed = seed_start + rounds
        for variant in wl.variants:
            records[(variant, seed)], *times[(variant, seed)] = timer.call(
                wl.run, cfg, variant, seed)
        rounds += 1
    ok = passed(wl, cfg, records)
    attempted, failed = len(records), len(records) - len(ok)

    # the shipped CLI with --jobs 2, pool start-up included, CLI_SEEDS seeds
    # per invocation so that each invocation is bracketed by reference loads
    blocks = []
    for j in range(cfg.seeds // CLI_SEEDS):
        path = cfg_path.with_name(f"{cfg_path.stem}-{j}.cfg")
        write_config(path, wl, seed_start + j * CLI_SEEDS, CLI_SEEDS)
        out = str(path.with_suffix(".out"))
        blocks.append((out, wl.cli_argvs(str(path), out, jobs=2)))
    per_argv = {tuple(argv): [] for _, argvs in blocks for argv in argvs}
    block_runs = len(wl.variants) * CLI_SEEDS
    timer2 = ScaledTimer(cpus[:2])
    cycles = 0
    begin = time.perf_counter()
    while cycles < MIN_JOBS2_CYCLES or time.perf_counter() - begin < seconds - budget:
        for out, argvs in blocks:
            for argv in argvs:
                code, *pair = timer2.call(run_command, argv)
                if code != 0:
                    raise RuntimeError(f"ctxrep {' '.join(argv)} exited with {code}")
                per_argv[tuple(argv)].append(pair)
            attempted += block_runs
            failed += cli_mismatches(wl.cli_records(out), records, block_runs)
            if cycles >= MIN_JOBS2_CYCLES and time.perf_counter() - begin >= seconds - budget:
                break
        cycles += 1

    # a failed run's time is not a run latency
    samples = {v: [t for key, t in times.items() if key[0] == v and key in ok]
               for v in wl.variants}
    samples["pooled"] = [t for key, t in times.items() if key in ok]
    runs = len(wl.variants) * cfg.seeds
    round_s = [sum(times[(v, seed)][1] for v in wl.variants)
               for seed in range(seed_start, seed_start + rounds)]

    def summary(pairs, scale=1.0) -> dict:
        return {"n": len(pairs), "wall_median": scale * _median(w for w, _ in pairs)}

    metrics = {
        "setup_s": _median(s for _, s in setup),
        "runs_per_s": len(wl.variants) / _median(round_s),
        # a cycle of invocations, each at its median time over the cycles
        "runs_per_s.jobs2": runs / sum(_median(s for _, s in ts) for ts in per_argv.values()),
    }
    details = {"setup_s": summary(setup), "runs_per_s": {"n": rounds},
               "runs_per_s.jobs2": {
                   "n": cycles, "invocations": len(per_argv),
                   "wall_median": runs / sum(_median(w for w, _ in ts) for ts in per_argv.values())}}
    for slot, variant in enumerate(wl.slots, start=1):
        name = f"run_ms_p50.v{slot}"
        scaled_ms = [1e3 * s for _, s in samples[variant]]
        metrics[name] = _median(scaled_ms)
        details[name] = {"variant": variant, **summary(samples[variant], 1e3)}
        high = _high_percentile(scaled_ms)
        if high:
            details[name][f"p{high[0]}"] = high[1]
    refs = timer.refs + timer2.refs
    details["reference_work_ms"] = {"n": len(refs), "median": 1e3 * _median(refs)}
    details["fail_rate"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    details["digest"] = digest(wl, records, seed_start, cfg.seeds)
    return metrics, details, attempted, failed


def measure_layers(wl, cfg_path: Path, seconds: float):
    """Untraced and traced passes over the seed block, alternately; per-layer metrics."""
    from ctxrep import config
    from ctxrep.cli import run_command

    import tracing

    def one_pass():
        cfg = config.load_config(str(cfg_path))
        return {(variant, seed): wl.run(cfg, variant, seed)
                for seed in range(cfg.seed_start, cfg.seed_start + cfg.seeds)
                for variant in wl.variants}

    baseline = one_pass()
    cfg = config.load_config(str(cfg_path))
    ok = passed(wl, cfg, baseline)
    attempted, failed = len(baseline), len(baseline) - len(ok)
    # the CLI at jobs=1 must emit the untraced records
    out_path = str(cfg_path.with_suffix(".out"))
    for argv in wl.cli_argvs(str(cfg_path), out_path, jobs=1):
        if run_command(argv) != 0:
            raise RuntimeError(f"ctxrep {' '.join(argv)} failed")
    attempted += len(baseline)
    failed += cli_mismatches(wl.cli_records(out_path), baseline, len(baseline))

    timer = ScaledTimer(sorted(os.sched_getaffinity(0))[:1])
    untraced, traced, per_pass = [], [], []
    first_tracer = None
    begin = time.perf_counter()
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - begin < seconds:
        # alternate which side of the pair runs first
        for side in ("untraced", "traced") if len(traced) % 2 else ("traced", "untraced"):
            if side == "traced":
                with tracing.Tracer() as tracer:
                    records, wall, scaled = timer.call(one_pass)
                traced.append(scaled)
                per_pass.append(tracing.layer_metrics(tracer.spans, scaled / wall))
                first_tracer = first_tracer or tracer
            else:
                records, _, scaled = timer.call(one_pass)
                untraced.append(scaled)
            attempted += len(records)
            failed += sum(records[key] != rec for key, rec in baseline.items())

    exact = all(p[name] == per_pass[0][name] for p in per_pass for name in tracing.EXACT)
    metrics = {name: per_pass[0][name] if name in tracing.EXACT
               else _median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = _median(untraced) / _median(traced)
    metrics["trace.runs_per_s.untraced"] = len(baseline) / _median(untraced)
    details = {"passes": len(traced), "runs_per_pass": len(baseline),
               "exact_counters_repeat": exact}
    return metrics, details, attempted, failed, exact, first_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ctxrep" / "__init__.py").is_file():
        print(f"error: no ctxrep sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import ctxrep
    if Path(ctxrep.__file__).resolve().parent != SRC / "ctxrep":
        print(f"error: imported ctxrep from {ctxrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from ctxrep import config

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)  # before the timers pin the process to one CPU
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    cfg_path = OUT / f"{tag}-{os.getpid()}.cfg"
    seed_start = args.seed * SEED_STRIDE
    write_config(cfg_path, wl, seed_start, wl.trace_seeds if args.trace else wl.block_seeds)
    try:
        if args.trace:
            metrics, details, attempted, failed, exact, tracer = measure_layers(
                wl, cfg_path, args.seconds)
            tracer.write(str(OUT / f"{tag}-spans.jsonl"))
            declared = spec["per_layer"]
        else:
            cfg = config.load_config(str(cfg_path))
            metrics, details, attempted, failed = measure_end_to_end(
                wl, cfg, cfg_path, args.seconds)
            exact = True
            declared = spec["end_to_end"]
    finally:
        for path in OUT.glob(f"{cfg_path.stem}*"):
            path.unlink()
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    details["environment"] = env
    (OUT / f"{tag}.json").write_text(json.dumps({"metrics": metrics, "details": details}, indent=1))
    for name, value in metrics.items():
        extra = details.get(name, {})
        alias = f" (run_ms_p50.{extra['variant']})" if "variant" in extra else ""
        print(f"{name}{alias} = {value:.6g} {units[name]} {json.dumps(extra) if extra else ''}".rstrip())
    for name in ("reference_work_ms", "fail_rate", "digest", "environment", "passes", "exact_counters_repeat"):
        if name in details:
            print(f"{name} = {json.dumps(details[name])}")
    result = {
        "correct": failed == 0 and exact,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
