"""geomlife benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-aggregate --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up several times (reporting the median), then runs
operations back to back for ``--seconds`` and reports the end-to-end
metrics.  A sampler process times a fixed reference computation throughout
(see ``hostspeed.py``): on a shared host the speed can change by a third or
more within seconds, which moves wall times but cancels in the ratio to the
reference over the same window.  ``op_ref.p50`` is the median operation time
in reference units; ``setup_s`` is the median set-up time in reference units
times ``REFERENCE_NOMINAL_S``, that is, seconds on a host where the
reference takes that long.  The raw wall times (``op_s.p50``,
``setup_wall_s.p50``) are printed too.
``--trace 1`` sets up once, times the workload's operation in
this process with and without spans on the program's public functions
(``trace.overhead_ratio``), then runs every per-layer probe.  Every output
is checked; a failed check counts as a failed operation.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, the
environment and the full results go to ``.perfbench_work/results/``, the
spans of a traced run to ``.perfbench_work/spans/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: Set before numpy loads, here and in every child; GEOMLIFE_WORKERS is removed.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOAD_NAMES = ("cli-aggregate", "units-ingest", "mc-study")

#: CPU seconds of ``hostspeed.reference_s()`` on the host ``setup_s`` is stated
#: for; about what it takes on an idle x86-64 core of a 2-core cloud VM.
REFERENCE_NOMINAL_S = 0.020


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes; tests the harness, not the program")
    return p.parse_args(argv)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(sizes) -> dict:
    uname = platform.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.system} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "pinned_env": {**PINNED_ENV, "GEOMLIFE_WORKERS": None},
        "client": "one closed-loop client, serial",
        "sizes": sizes.__dict__,
    }


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(wl, bench, seconds: float) -> dict:
    from hostspeed import HostSpeed

    # The work, its children and the sampler share one CPU and take turns on
    # it, so the sampler times the CPU the work runs on.  On two CPUs it would
    # time its contention with the work, which depends on how the host places them.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup_windows, digests, checked, ops, op_windows = [], None, [], [], []
    with HostSpeed(bench.workdir, bench.env) as host:
        for _ in range(bench.sizes.setup_reps):
            start = time.perf_counter()
            got = wl.make_inputs()
            checked.append(wl.warmup())  # the warm-up is a checked operation too
            setup_windows.append((start, time.perf_counter()))
            if digests is not None and got != digests:
                raise RuntimeError(f"set-up is not deterministic: {digests} then {got}")
            digests = got

        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            start = time.perf_counter()
            ops.append(wl.op(len(ops)))
            op_windows.append((start, time.perf_counter()))
    checked += [o.problems for o in ops]

    setup_walls = [end - start for start, end in setup_windows]
    setup_refs = [host.mean(*window) for window in setup_windows]
    walls = [o.wall for o in ops]
    op_refs = [host.mean(*window) for window in op_windows]
    in_ref = [w / r for w, r in zip(walls, op_refs)]
    setup_in_ref = [w / r for w, r in zip(setup_walls, setup_refs)]
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    # The process doing the work: this one for the study, the CLI children otherwise.
    who = resource.RUSAGE_SELF if wl.name == "mc-study" else resource.RUSAGE_CHILDREN
    return {
        "metrics": {
            "setup_s": (REFERENCE_NOMINAL_S * statistics.median(setup_in_ref), "s"),
            "op_ref.p50": (statistics.median(in_ref), "ref"),
            "peak_rss_mb": (rss_mb(who), "MB"),
        },
        "extras": {
            "setup_wall_s.p50": (statistics.median(setup_walls), "s"),
            "op_s.p50": (statistics.median(walls), "s"),
            "op_s.p25": (quartiles[0], "s"),
            "op_s.p75": (quartiles[2], "s"),
            "op_samples": (len(ops), "count"),
            "reference_samples": (len(host.samples), "count"),
            "reference_ms.p50": (1e3 * statistics.median(op_refs), "ms"),
            **wl.extras(ops),
        },
        "inputs_sha256": digests,
        "pinned_cpu": cpu,
        "setup_walls_s": setup_walls,
        "setup_refs_s": setup_refs,
        "op_walls_s": walls,
        "op_refs_s": op_refs,
        "checked": checked,
    }


def run_traced(wl, bench, overhead_pairs: int) -> dict:
    from probes import Probes, metric_names
    from tracing import Tracer

    digests = wl.make_inputs()
    if "table1.csv" not in digests:
        digests.update(bench.write_tables())
    if "units.csv" not in digests:
        digests.update(bench.write_units())
    checked = [wl.warmup()]
    importlib.import_module("geomlife.cli")  # every module loaded before instrumenting

    tracer = Tracer()
    plain, traced = [], []
    for i in range(overhead_pairs):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.instrument("geomlife")
                try:
                    with tracer.span(f"perfbench.{wl.name}") as span:
                        checked.append(wl.inprocess_op())
                finally:
                    tracer.restore()
                traced.append(span.duration)
            else:
                start = time.perf_counter()
                checked.append(wl.inprocess_op())
                plain.append(time.perf_counter() - start)
    op_self = tracer.self_times()
    module_self: dict[str, float] = {}
    for name, row in op_self.items():
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + row["self_s"] / len(traced)

    probes = Probes(bench, tracer)
    probes.run()
    probes.values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {
        "metrics": {name: (probes.values[name], unit)
                    for name, unit in metric_names(bench.sizes.n_list) if name in probes.values},
        "extras": {},
        "absent": probes.absent,
        "op_self_times": op_self,
        "op_self_s_by_module": module_self,
        "inputs_sha256": digests,
        "checked": checked,
        "tracer": tracer,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "geomlife" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no geomlife sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("GEOMLIFE_WORKERS", None)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    machine = environment(sizes)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    workdir = WORK / f"run-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = workloads.Bench(ROOT, workdir, args.seed, sizes, dict(os.environ))
        wl = workloads.WORKLOADS[args.workload](bench)
        if args.trace:
            result = run_traced(wl, bench, 1 if args.smoke else wl.overhead_pairs)
        else:
            result = run_untraced(wl, bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = result.pop("checked")
    attempted, failed = len(checked), sum(1 for problems in checked if problems)
    failures = [p for problems in checked for p in problems]
    tracer = result.pop("tracer", None)
    if tracer is not None:
        spans_path = WORK / "spans" / f"{tag}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": machine, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": failures[:20], **result,
    }
    result_path = WORK / "results" / f"{tag}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  sizes {sizes}")
    for name, digest in sorted(result["inputs_sha256"].items()):
        print(f"input  {name:<32} sha256 {digest}")
    shown = {**result["metrics"], **result["extras"], "error_rate": (failed / attempted, "ratio")}
    for name, (value, unit) in shown.items():
        print(f"metric {name:<40} {value:>16.6g} {unit}")
    for module, seconds in sorted(result.get("op_self_s_by_module", {}).items(), key=lambda kv: -kv[1]):
        print(f"self   {module:<40} {seconds:>16.6g} s per traced operation")
    for name, why in result.get("absent", {}).items():
        print(f"absent {name:<40} {why}")
    for problem in failures[:5]:
        print(f"FAILED {problem}")
    print(f"results {result_path.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
