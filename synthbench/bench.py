"""The repository's benchmark: synthesis and verification, end to end and per layer.

Run from the repository root::

    python3 synthbench/bench.py run [--workload W ...] [--seed N]
        [--repeats R | --seconds S] [--trace 0|1] [--json OUT]
        [--trace-dir DIR] [--smoke]
    python3 synthbench/bench.py compare --parent P1.json ... --change C1.json ...

``run`` is a closed loop driven from this one process: one synthesis or
verification is in flight at a time, and every repeat runs in a fresh
child interpreter (``child.py``), so import, codec compilation and slab
growth are paid the way a command-line user pays them.  Repeats are
interleaved round-robin across the chosen workloads, in an order shuffled
by ``--seed``, to spread machine drift over all of them.  With
``--trace 1`` one extra traced repeat per workload gives the per-layer
split (``layers.py``).  ``run`` prints every metric with its unit, median,
quartiles and sample count, checks every repeat's outputs, and prints as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end medians, or with ``--trace 1``
the per-layer values).  It exits 1 when a repeat failed.

``compare`` reads session files written by ``run --json`` and classifies
each (metric, workload) pair as improved, unchanged, worse or unresolved.
See ``README.md`` for the workloads, metrics, bounds and the procedure.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = (
    "synth-cold",
    "store-record",
    "store-replay",
    "synth-processes",
    "verify-zoo",
    "synth-fuzz",
)
#: a repeat that takes longer than this counts as failed
REPEAT_TIMEOUT_S = 120
#: with ``--seconds``, at least this many untraced repeats per workload
MIN_REPEATS = 2
#: set-up is sampled at least this often per workload (set-up-only
#: children top the full repeats up), and reported as the median
MIN_SETUP_SAMPLES = 5
#: generator seeds of the fuzz pool for seed ``s`` start at ``STRIDE*(s+1)``
FUZZ_SEED_STRIDE = 1_000_000
#: sequential evaluated counts, the base of ``dist.extra_evaluated_frac``
#: when the session did not run synth-cold itself
SEQUENTIAL_EVALUATED = {"msi-small": 4249, "msi-tiny": 25}
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def workload_inputs(workload: str, seed: int, smoke: bool) -> dict:
    """The generated inputs a workload's children receive."""
    skeleton = "msi-tiny" if smoke else "msi-small"
    if workload == "verify-zoo":
        return {"passes": 1 if smoke else 4}
    if workload == "synth-fuzz":
        return {"fuzz_seeds": fuzz_seeds(seed, 3 if smoke else 120)}
    return {"skeleton": skeleton}


def fuzz_seeds(seed: int, count: int) -> List[int]:
    """Generator seeds of the synth-fuzz pool for one benchmark seed.

    A spec's shape (process count, state graph, ack round, slot guard,
    server hole, codec, counters) fixes its state and candidate spaces,
    so the pool copies the shape mix of generator seeds ``0..count-1``
    and fills it with the first specs of each shape from a window that
    the benchmark seed selects.  Different seeds give different
    protocols at the same cost, so a held-out seed re-checks a claim
    without moving the medians.
    """
    from repro.fuzz import generate_spec

    def shape(spec):
        return (spec.n_procs, len(spec.active_states), len(spec.step_edges),
                spec.ack_round, spec.single_slot, spec.hole_server,
                spec.codec, spec.counters)

    wanted = collections.Counter(shape(generate_spec(i)) for i in range(count))
    chosen: List[int] = []
    candidate = FUZZ_SEED_STRIDE * (seed + 1)
    while len(chosen) < count:
        key = shape(generate_spec(candidate))
        if wanted[key]:
            wanted[key] -= 1
            chosen.append(candidate)
        candidate += 1
    return chosen


def run_child(workload: str, inputs: dict, hash_seed: int, *,
              store: Optional[str] = None, trace_dir: Optional[str] = None,
              setup_only: bool = False) -> dict:
    """Run one child to completion and return its measurements.

    CPU time is the driver's children-rusage delta, so it includes the
    worker processes the child reaped.  Raises ``RepeatFailed``.
    """
    command = [sys.executable, CHILD, "--workload", workload,
               "--inputs", json.dumps(inputs)]
    if store is not None:
        command += ["--store", store]
    if trace_dir is not None:
        command += ["--trace-dir", trace_dir]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC,
               PYTHONHASHSEED=str(hash_seed % 4_294_967_296))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepeatFailed(f"timed out after {REPEAT_TIMEOUT_S} s") from None
    finally:
        # Whatever the child left in its process group (a worker that
        # outlived its coordinator) goes with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if process.returncode != 0:
        lines = err.decode(errors="replace").strip().splitlines()
        raise RepeatFailed(
            f"exit code {process.returncode}: {lines[-1] if lines else ''}"
        )
    try:
        result = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        raise RepeatFailed("the child printed no result line") from None
    result["setup_s"] = result["ready"] - spawned
    result["cpu_s"] = (after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
    return result


class RepeatFailed(Exception):
    """A repeat raised, timed out, or produced wrong outputs."""


class WorkloadRun:
    """One workload's repeats within a session."""

    def __init__(self, name: str, inputs: dict, work: str) -> None:
        self.name = name
        self.inputs = inputs
        self.work = os.path.join(work, name)
        os.makedirs(self.work)
        self.samples: List[dict] = []
        self.setup_samples: List[float] = []
        self.spent = 0.0
        self.layers: Optional[Dict[str, float]] = None
        self.filled: Optional[str] = None

    def prepare(self, hash_seed: int) -> None:
        """Untimed set-up: store-replay's store is filled once per session."""
        if self.name != "store-replay":
            return
        self.filled = os.path.join(self.work, "filled")
        try:
            run_child("store-record", self.inputs, hash_seed, store=self.filled)
        except RepeatFailed as failure:
            self.samples.append({"kind": "prepare", "ok": False,
                                 "reason": f"store fill: {failure}"})

    @property
    def prepared(self) -> bool:
        return all(s["kind"] != "prepare" for s in self.samples)

    def _store(self, index: int) -> Optional[str]:
        if self.name == "store-record":
            return os.path.join(self.work, f"store-{index}")
        if self.name == "store-replay":
            path = os.path.join(self.work, f"store-{index}")
            shutil.copytree(self.filled, path)
            return path
        return None

    def repeat(self, kind: str, hash_seed: int,
               trace_dir: Optional[str] = None) -> Optional[dict]:
        """Run one repeat (``untraced``, ``traced`` or ``setup``)."""
        index = len(self.samples)
        sample = {"kind": kind, "hash_seed": hash_seed,
                  "loadavg": list(os.getloadavg())}
        begin = time.monotonic()
        store = self._store(index)
        try:
            result = run_child(self.name, self.inputs, hash_seed, store=store,
                               trace_dir=trace_dir,
                               setup_only=kind == "setup")
            if result.get("problems"):
                raise RepeatFailed("; ".join(result["problems"]))
        except RepeatFailed as failure:
            result = None
            sample.update(ok=False, reason=str(failure))
        finally:
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
        self.spent += time.monotonic() - begin
        self.samples.append(sample)
        if result is None:
            return None
        if kind != "traced":  # wrapper installation is not a user's set-up
            self.setup_samples.append(result["setup_s"])
        sample.update(ok=True, setup_s=result["setup_s"],
                      import_s=result["import_s"], build_s=result["build_s"])
        if kind != "setup":
            outcome = result["outcome"]
            sample.update(
                wall_s=result["wall_s"],
                throughput_per_s=outcome["work"] / result["wall_s"],
                cpu_s=result["cpu_s"],
                peak_rss_mb=result["maxrss_kb"] / 1024.0,
                outcome=outcome,
            )
        return result

    def measured(self, kind: str = "untraced") -> List[dict]:
        return [s for s in self.samples if s["kind"] == kind and s["ok"]]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s["ok"])

    def end_to_end(self, spec: dict) -> Dict[str, dict]:
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name == "setup_s":
                values = self.setup_samples
            else:
                values = [s[name] for s in self.measured()]
            if values:
                metrics[name] = dict(summarise(values), unit=entry["unit"],
                                     samples=values)
        return metrics


def summarise(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def host_metadata() -> dict:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def tracked_diff_digest() -> Optional[str]:
    """Digest of the working tree's changes to tracked files (None: no git)."""
    try:
        done = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT,
                              capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return hashlib.sha256(done.stdout).hexdigest()


def run_session(args) -> int:
    spec = load_spec()
    workloads = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    if args.smoke:
        args.repeats, args.seconds, trace = 1, None, True
    rng = random.Random(args.seed)
    host = host_metadata()
    diff_before = tracked_diff_digest() if args.smoke else None
    work = os.path.join(WORK, f"session-{os.getpid()}")
    hash_seeds = itertools.count(args.seed * 100_000)
    runs: Dict[str, WorkloadRun] = {}
    try:
        for name in workloads:
            run = runs[name] = WorkloadRun(
                name, workload_inputs(name, args.seed, args.smoke), work)
            run.prepare(next(hash_seeds))
        measure(runs, args, rng, hash_seeds)
        for run in runs.values():
            while (len(run.setup_samples) < MIN_SETUP_SAMPLES
                   and run.failed == 0):
                run.repeat("setup", next(hash_seeds))
        if trace:
            trace_layers(runs, args, hash_seeds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another session is still using it

    session = {
        "host": host,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "trace": trace,
        "smoke": args.smoke,
        "workloads": {},
    }
    for name, run in runs.items():
        session["workloads"][name] = {
            "inputs": run.inputs,
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
            "metrics": run.end_to_end(spec),
            "layers": run.layers,
            "samples": run.samples,
        }
    report(session, spec)
    problems = smoke_check(session, spec, diff_before) if args.smoke else []
    for problem in problems:
        print(f"smoke: {problem}")
    if args.smoke and not problems:
        print("smoke: ok")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(session, handle, indent=1, sort_keys=True)
            handle.write("\n")
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    metrics = final_metrics(session, spec, trace)
    correct = failed == 0 and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def measure(runs: Dict[str, WorkloadRun], args, rng: random.Random,
            hash_seeds) -> None:
    """Untraced repeats, round-robin over workloads in seeded orders."""

    def wants_more(run: WorkloadRun) -> bool:
        if not run.prepared:
            return False
        done = len([s for s in run.samples if s["kind"] == "untraced"])
        if args.seconds is None:
            return done < args.repeats
        return done < MIN_REPEATS or run.spent < args.seconds

    while True:
        active = [run for run in runs.values() if wants_more(run)]
        if not active:
            return
        rng.shuffle(active)
        for run in active:
            run.repeat("untraced", next(hash_seeds))


def trace_layers(runs: Dict[str, WorkloadRun], args, hash_seeds,
                 work: str) -> None:
    """One traced repeat per workload, turned into per-layer metrics."""
    cold = runs.get("synth-cold")
    for name, run in runs.items():
        if not run.prepared:
            continue
        base = args.trace_dir or work
        trace_dir = os.path.join(base, f"trace-{name}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        result = run.repeat("traced", next(hash_seeds), trace_dir=trace_dir)
        if result is None:
            continue
        walls = [s["wall_s"] for s in run.measured()]
        reference = SEQUENTIAL_EVALUATED[run.inputs.get("skeleton", "msi-small")]
        if cold is not None and cold.measured():
            reference = cold.measured()[0]["outcome"]["evaluated"]
        run.layers = layers.layer_metrics(
            layers.load_processes(trace_dir), result,
            statistics.median(walls) if walls else None, reference,
        )


def final_metrics(session: dict, spec: dict, trace: bool) -> Dict[str, dict]:
    """The result line's metrics: every end-to-end or per-layer metric."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    single = len(session["workloads"]) == 1
    metrics = {}
    for name, data in session["workloads"].items():
        for entry in entries:
            if trace:
                if data["layers"] is None:
                    continue
                value = data["layers"][entry["name"]]
            else:
                if entry["name"] not in data["metrics"]:
                    continue
                value = data["metrics"][entry["name"]]["median"]
            key = entry["name"] if single else f"{name}.{entry['name']}"
            metrics[key] = {"value": value, "unit": entry["unit"]}
    return metrics


def report(session: dict, spec: dict) -> None:
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    host = session["host"]
    print(f"host: {host['platform']}, python {host['python']}, "
          f"{host['cpu_count']} CPUs (affinity {host['affinity']}), "
          f"git {host['git_sha']}{' (dirty)' if host['git_dirty'] else ''}")
    print(f"seed {session['seed']}, repeats {session['repeats']}, "
          f"seconds {session['seconds']}")
    for name, data in session["workloads"].items():
        print(f"\n== {name}: {data['attempted']} attempted, "
              f"{data['failed']} failed (failed_frac {data['failed_frac']:.3f})")
        for sample in data["samples"]:
            if not sample["ok"]:
                print(f"  FAILED {sample['kind']}: {sample['reason']}")
        for metric, stats in data["metrics"].items():
            print(f"  {metric:<34} {stats['median']:>14.6g} {stats['unit']:<6}"
                  f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}")
        if data["layers"]:
            print("  per layer (traced repeat):")
            for metric, value in data["layers"].items():
                print(f"  {metric:<34} {value:>14.6g} {units.get(metric, '?')}")


def smoke_check(session: dict, spec: dict,
                diff_before: Optional[str]) -> List[str]:
    """The harness checks the smoke run makes of itself."""
    problems = []
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    per_layer = {e["name"]: e["unit"] for e in spec["per_layer"]}
    for name in list(workloads) + list(end_to_end) + list(per_layer):
        if not NAME_PATTERN.fullmatch(name):
            problems.append(f"name {name!r} is not [A-Za-z0-9_.-]+")
    if workloads != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(workloads)}")
    for layer, entry in layers.LAYER_MOVES.items():
        for metric, targets in entry["moves"]:
            if metric not in end_to_end:
                problems.append(f"{layer} moves undeclared metric {metric}")
            problems += [f"{layer} moves undeclared workload {w}"
                         for w in targets if w not in workloads]
        if entry["idle_metric"] and entry["idle_metric"] not in per_layer:
            problems.append(f"{layer} idle metric is undeclared")
    for name, data in session["workloads"].items():
        if data["failed"]:
            problems.append(f"{name}: {data['failed']} repeats failed")
            continue
        for metric, unit in end_to_end.items():
            if data["metrics"].get(metric, {}).get("unit") != unit:
                problems.append(f"{name}: {metric} not reported in {unit}")
        observed = data["layers"] or {}
        if set(observed) != set(per_layer):
            problems.append(f"{name}: per-layer metrics differ from "
                            f"BENCHMARK.json: {sorted(set(observed) ^ set(per_layer))}")
            continue
        if observed["trace.self_sum_error_frac"] > 0.02:
            problems.append(f"{name}: self times miss the root wall by "
                            f"{observed['trace.self_sum_error_frac']:.2%}")
        for layer, entry in layers.LAYER_MOVES.items():
            if name in entry["idle_on"] and observed[entry["idle_metric"]]:
                problems.append(f"{name}: {layer} did work on a workload "
                                f"that bypasses it")
    if diff_before != tracked_diff_digest():
        problems.append("the run changed tracked files")
    return problems


def compare(args) -> int:
    """Classify each (metric, workload) pair of two sets of sessions."""
    def load(path: str) -> dict:
        with open(path) as handle:
            return json.load(handle)

    spec = load_spec()
    parents = [load(path) for path in args.parent]
    changes = [load(path) for path in args.change]
    pairs = min(len(parents), len(changes))
    if pairs < 10:
        print(f"only {pairs} pairs: no gain can be claimed (needs >= 10)")
    worse = False
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>6}  verdict")
    for workload in WORKLOADS:
        if not all(workload in s["workloads"] for s in parents + changes):
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            try:
                p = [s["workloads"][workload]["metrics"][name]["median"]
                     for s in parents[:pairs]]
                c = [s["workloads"][workload]["metrics"][name]["median"]
                     for s in changes[:pairs]]
            except KeyError:
                continue
            verdict, wins = classify(p, c, entry["better"] == "lower",
                                     entry["bound"], pairs)
            worse |= verdict == "worse"
            ps, cs = summarise(p), summarise(c)
            print(f"{workload:<16} {name:<18} "
                  f"{ps['median']:>10.5g} [{ps['q1']:.5g}, {ps['q3']:.5g}]"
                  f"{'':<6}{cs['median']:>10.5g} [{cs['q1']:.5g}, "
                  f"{cs['q3']:.5g}]{'':<6}{wins:>3}/{pairs}  {verdict}")
        p_failed = sum(s["workloads"][workload]["failed"] for s in parents)
        p_tried = sum(s["workloads"][workload]["attempted"] for s in parents)
        c_failed = sum(s["workloads"][workload]["failed"] for s in changes)
        c_tried = sum(s["workloads"][workload]["attempted"] for s in changes)
        p_frac = p_failed / p_tried if p_tried else 0.0
        c_frac = c_failed / c_tried if c_tried else 0.0
        verdict = "worse" if c_frac > p_frac else "unchanged"
        worse |= verdict == "worse"
        print(f"{workload:<16} {'failed_frac':<18} {p_frac:>10.5g}"
              f"{'':<22}{c_frac:>10.5g}{'':<33}{verdict}")
    return 1 if worse else 0


def classify(parent: List[float], change: List[float], lower: bool,
             bound: float, pairs: int):
    """The choosing-metrics rule for one (metric, workload) pair.

    Worse: the change's median is worse than the parent's by more than
    the bound.  Improved: at least 10 pairs, the change wins at least
    nine tenths of them (ties count for neither), and the medians differ
    by more than the parent's interquartile range.  Unresolved: the
    parent's own spread is wider than the bound, unless every change run
    beats every parent run.  Otherwise unchanged.
    """
    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    ps, cs = summarise(parent), summarise(change)
    gap = cs["median"] - ps["median"]
    regression = gap if lower else -gap
    iqr = ps["q3"] - ps["q1"]
    if regression > bound * abs(ps["median"]):
        return "worse", wins
    if pairs >= 10 and wins >= 0.9 * pairs and abs(gap) > iqr and regression < 0:
        return "improved", wins
    if iqr > bound * abs(ps["median"]) and not all(
        better(c, p) for c in change for p in parent
    ):
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Synthesis benchmark: end-to-end and per-layer metrics.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeats", type=int, default=5,
                     help="untraced repeats per workload")
    run.add_argument("--seconds", type=float,
                     help="measure each workload for this long instead")
    run.add_argument("--trace", type=int, choices=(0, 1), default=1,
                     help="1: add a traced repeat and report per layer")
    run.add_argument("--json", help="write the whole session here")
    run.add_argument("--trace-dir", help="keep the traced spans here")
    run.add_argument("--smoke", action="store_true",
                     help="msi-tiny, 1 repeat, 3 fuzz specs, traced, "
                          "plus the harness's own checks")
    cmp = commands.add_parser("compare", help="compare two sets of sessions")
    cmp.add_argument("--parent", nargs="+", required=True)
    cmp.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_session(args)


if __name__ == "__main__":
    sys.exit(main())
