"""symdec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quad4 --seed 1 --seconds 15 --trace 0

Run from the root of a symdec checkout; symdec is imported from its
``src/`` directory.  The run sets up (imports numpy and symdec, builds
the seeded inputs), warms up, then repeats whole rounds of the
workload's operations until ``--seconds`` have passed, timing each
operation and checking each result.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See perfbench/README.md.
"""

import os

# One thread for every BLAS flavour, set before numpy is imported: the
# benchmark measures one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("dirac", "emeq", "transform", "decouple4", "jacobi", "optics",
          "matrixio", "cli")
SETUP_REPEATS = 8


def load_symdec() -> dict:
    """Import symdec afresh from the checkout's src/ and return its layers."""
    for name in [m for m in sys.modules if m == "symdec" or m.startswith("symdec.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {layer: importlib.import_module(f"symdec.{layer}") for layer in LAYERS}
    origin = Path(mods["dirac"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"symdec imported from {origin}, not from {ROOT / 'src'}")
    return mods


class Runner:
    """Times and checks operations, keeping the counts of a run."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}

    def _note(self, key: str) -> None:
        self.failures[key] = self.failures.get(key, 0) + 1

    def one(self, i: int, call):
        """Run item i through call(op, item); return (seconds, out) or None."""
        item = self.w.items[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(self.w.op, item)
        except Exception as exc:  # an operation that raises counts as failed
            self.raised += 1
            self._note(f"{type(exc).__name__}: {exc}"[:160])
            return None
        dt = time.perf_counter() - t0
        bad = self.w.check(i, out)
        if bad:
            self.wrong += 1
            for key in bad:
                self._note(f"check {key} (item {i})")
            return None
        return dt, out

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def call_plain(op, item):
    return op(item)


def warm_up(workload) -> None:
    count = workload.warmup_items or len(workload.items)
    for item in workload.items[:count]:
        try:
            workload.op(item)
        except Exception:  # failures are counted in the timed rounds
            pass


def measure(workload, seconds: float, tr=None, hooks=None):
    """Repeat whole rounds until `seconds` have passed.

    With a tracer, odd rounds run traced (at least one untraced and one
    traced round).  Returns the runner, the op times of the untraced and
    of the traced rounds (each a list per item) and the round count.
    """
    runner = Runner(workload)
    plain = [[] for _ in workload.items]
    traced = [[] for _ in workload.items]
    begin = time.perf_counter()
    rounds = 0
    while True:
        traced_round = tr is not None and rounds % 2 == 1
        if traced_round:
            tr.install(workload.modules, hooks)
        try:
            for i in range(len(workload.items)):
                got = runner.one(i, tr.run_op if traced_round else call_plain)
                if got is None:
                    continue
                if traced_round:
                    traced[i].append(got[0])
                    for key, value in workload.counters(got[1]).items():
                        tr.count(key, value)
                else:
                    plain[i].append(got[0])
        finally:
            if traced_round:
                tr.uninstall()
        rounds += 1
        if time.perf_counter() - begin >= seconds and (tr is None or rounds >= 2):
            break
    return runner, plain, traced, rounds


def item_times(times_by_item) -> list[float]:
    """Each item's upper-quartile time over its repeats in the run.

    On a shared virtual machine an item's time can be bimodal (on a
    2-vCPU KVM guest, two speeds about 1.9x apart, switching in bursts of
    seconds), and the share of fast time in a run then decides a plain
    median or mean.  The slow speed shows in nearly every run, and an
    item's upper quartile reads it unless the run is almost all fast
    (perfbench/README.md, Noise controls).
    """
    return [statistics.quantiles(ts, n=4, method="inclusive")[2] if len(ts) > 1
            else ts[0] for ts in times_by_item if ts]


def end_to_end_metrics(times_by_item, setup_s: float) -> dict:
    typical = item_times(times_by_item)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(typical, n=10, method="inclusive")[-1] * 1e3,
                      "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def count_step(t, args, kwargs, result):
    """Hook on decouple4's basic_transform: every logged 4x4 pipeline step."""
    skipped = kwargs.get("skipped", args[2] if len(args) > 2 else False)
    t.count("decouple4.logged_steps")
    if not skipped:
        t.count("decouple4.live_steps")


def count_jacobi(t, args, kwargs, result):
    """Hook on jacobi_decouple: pivots, the 5n(n-2)/2 reference, log length."""
    transform, sym, stats = result
    t.count("jacobi.pivots", stats.pivot_steps)
    t.count("jacobi.reference", 5.0 * sym.n * (sym.n - 2) / 2.0)
    t.count("jacobi.log_entries", len(transform.steps))


HOOKS = {("decouple4", "basic_transform"): count_step,
         **{(layer, "jacobi_decouple"): count_jacobi
            for layer in ("jacobi", "optics", "cli")}}


def layer_metrics(tr, ops: int) -> dict:
    """Per-operation layer metrics from the spans and counters of a run."""
    rows = tr.span_table()
    self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    solve = 0.0
    for name, layer, dur, self_t, parent in rows:
        self_s[layer] += self_t
        incl_s[name] = incl_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if layer == "decouple4" and parent >= 0 and rows[parent][1] == "jacobi":
            solve += dur
    search = incl_s.get("jacobi.off_block_norms", 0.0)
    jacobi_total = incl_s.get("jacobi.jacobi_decouple", 0.0)
    c = tr.counters
    per = 1.0 / max(ops, 1)

    def ms(seconds):
        return {"value": seconds * 1e3 * per, "unit": "ms"}

    def count(value):
        return {"value": value * per, "unit": "count"}

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    return {
        "dirac.rdm_coefficients.calls": count(calls.get("dirac.rdm_coefficients", 0)),
        "dirac.self_ms": ms(self_s["dirac"]),
        "emeq.emeq_from_symplex.calls": count(calls.get("emeq.emeq_from_symplex", 0)),
        "emeq.aux_vectors.calls": count(calls.get("emeq.aux_vectors", 0)),
        "emeq.self_ms": ms(self_s["emeq"]),
        "transform.apply_similarity.calls": count(calls.get("transform.apply_similarity", 0)),
        "transform.compose.calls": count(calls.get("transform.compose", 0)),
        "transform.self_ms": ms(self_s["transform"]),
        "transform.replay_ms": ms(incl_s.get("transform.replay", 0.0)),
        "transform.matrix_exponential_ms": ms(incl_s.get("transform.matrix_exponential", 0.0)),
        "decouple4.live_steps": count(c.get("decouple4.live_steps", 0.0)),
        "decouple4.live_share": ratio(c.get("decouple4.live_steps", 0.0),
                                      c.get("decouple4.logged_steps", 0.0)),
        "decouple4.self_ms": ms(self_s["decouple4"]),
        "jacobi.pivots": count(c.get("jacobi.pivots", 0.0)),
        "jacobi.pivots_per_reference": ratio(c.get("jacobi.pivots", 0.0),
                                             c.get("jacobi.reference", 0.0)),
        "jacobi.pivot_search_ms": ms(search),
        "jacobi.pivot_solve_ms": ms(solve),
        "jacobi.update_ms": ms(jacobi_total - search - solve),
        "jacobi.self_ms": ms(self_s["jacobi"]),
        "jacobi.log_entries": count(c.get("jacobi.log_entries", 0.0)),
        "optics.self_ms": ms(self_s["optics"]),
        "matrixio.load_ms": ms(incl_s.get("matrixio.load_matrix", 0.0)),
        "matrixio.self_ms": ms(self_s["matrixio"]),
        "cli.self_ms": ms(self_s["cli"]),
        "cli.report_kb": {"value": c.get("cli.report_kb", 0.0) * per, "unit": "kB"},
        "bench.self_ms": ms(self_s["bench"]),
        "trace.op_ms": ms(incl_s.get(tracer.ROOT, 0.0)),
    }


def set_up(name: str, seed: int, workdir: Path):
    """Import numpy and symdec and build the workload's inputs."""
    import workloads  # imports numpy
    return workloads.WORKLOADS[name](load_symdec(), seed, workdir)


def timed_set_up(args) -> float:
    """Seconds one set-up takes in a fresh interpreter, timed by itself."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the seconds it took and exit "
                        "(how a run times its set-ups in fresh processes)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "symdec" / "__init__.py").is_file():
        print(f"perfbench: no symdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            set_up(args.workload, args.seed, workdir)
            print(time.perf_counter() - t0)
            return 0
        import workloads
        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; choose from "
                  f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        # Set-up is timed in fresh processes: numpy's import is most of it,
        # and only the first import in a process pays for it.  Half the
        # set-ups run before measuring and half after, so that one burst of
        # the host's speed does not decide them all.
        setups = [] if args.trace else [timed_set_up(args) for _ in range(SETUP_REPEATS // 2)]
        workload = set_up(args.workload, args.seed, workdir)

        warm_up(workload)
        tr = tracer.Tracer() if args.trace else None
        runner, plain, traced, rounds = measure(workload, args.seconds, tr, HOOKS)
        if not args.trace:
            setups += [timed_set_up(args) for _ in range(SETUP_REPEATS - len(setups))]
        ntraced = sum(map(len, traced))
        if not any(plain) or (tr is not None and not ntraced):
            print("perfbench: no operation succeeded", file=sys.stderr)
            return 1
        if tr is None:
            metrics = end_to_end_metrics(plain, statistics.median(setups))
        else:
            metrics = layer_metrics(tr, ntraced)
            overhead = (statistics.median(item_times(traced))
                        - statistics.median(item_times(plain)))
            metrics["trace.overhead_ms"] = {"value": overhead * 1e3, "unit": "ms"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: {args.workload} seed={args.seed} rounds={rounds} "
          f"items/round={len(workload.items)} "
          f"setups_s={[round(s, 4) for s in setups]} "
          f"wall_s={time.perf_counter() - t_start:.2f}", file=sys.stderr)
    for key, n in sorted(runner.failures.items()):
        print(f"perfbench: failed {n}x {key}", file=sys.stderr)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
