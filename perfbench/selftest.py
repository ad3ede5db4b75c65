"""Self-test of the benchmark: workloads, checks, trace accounting.

    python3 perfbench/selftest.py

1. Every item of every workload (seed 0) runs once and passes its checks.
2. The checks catch corrupted results: a perturbed transform, a wrong
   frequency or tune, a broken matched beam, a failed or altered CLI
   report.
3. In a traced run the operations' root spans add up to their times taken
   from outside, each workload spends time in exactly the layers it is
   meant to use, and little time falls outside every symdec function.
4. Each workload runs briefly through run.py, untraced and traced; the
   result line carries exactly the metrics BENCHMARK.json names, with no
   failed operation.
5. Installing and removing the tracer leaves symdec's functions as they
   were.
6. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.

Takes about a minute, most of it in the jacobi runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def caught(w, i, out, what):
    bad = w.check(i, out)
    expect(bool(bad), f"{w.name}: {what} is caught ({', '.join(bad) or 'not caught'})")


def first(w, predicate):
    return next(i for i, item in enumerate(w.items) if predicate(item))


def corruptions(ws: dict) -> None:
    lib = ws["quad4"].lib
    Frequency = lib.emeq.Frequency

    w = ws["quad4"]
    i = first(w, lambda it: it[0] == "two_imaginary_pairs")
    res = w.op(w.items[i])
    bump = np.zeros((4, 4))
    bump[0, 2] = 1e-6
    caught(w, i, replace(res, transform=replace(res.transform, r=res.transform.r + bump)),
           "perturbed transform")
    w1, w2 = res.frequencies
    caught(w, i, replace(res, frequencies=(Frequency(w1.value * 1.0001, w1.nature), w2)),
           "wrong frequency")
    caught(w, i, replace(res, final=replace(res.final, matrix=res.final.matrix + bump)),
           "final matrix off pattern")
    j = first(w, lambda it: it[0] == "complex_quadruple")
    res = w.op(w.items[j])
    caught(w, j, replace(res, complex_radius=res.complex_radius * 1.0001),
           "wrong complex radius")

    w = ws["jacobi"]
    transform, sym, stats = w.op(w.items[0])
    dim = sym.matrix.shape[0]
    bump = np.zeros((dim, dim))
    bump[0, dim - 1] = 1e-6
    caught(w, 0, (replace(transform, r=transform.r + bump), sym, stats),
           "perturbed transform")
    caught(w, 0, (transform, replace(sym, matrix=sym.matrix + bump), stats),
           "off-block entry left in the result")

    w = ws["beamline"]
    report, sigma, eff = w.op(w.items[0])
    b0 = report.blocks[0]
    wrong = replace(report, blocks=(replace(b0, cosine=b0.cosine + 1e-6),)
                    + report.blocks[1:])
    caught(w, 0, (wrong, sigma, eff), "wrong tune")
    S = sigma.matrix.copy()
    S[0, 1] += 1e-6
    S[1, 0] += 1e-6
    caught(w, 0, (report, replace(sigma, matrix=S), eff), "unmatched sigma")
    caught(w, 0, (report, sigma, replace(eff, matrix=eff.matrix * 1.0001)),
           "wrong effective force")

    w = ws["cli"]
    for kind in ("check", "decouple", "tunes", "decouple_2n"):
        i = first(w, lambda it: it[0] == kind)
        code, text = w.op(w.items[i])
        doc = json.loads(text)
        caught(w, i, (3, text), f"{kind}: non-zero exit code")
        caught(w, i, (0, json.dumps(dict(doc, schema="symdec-report/0"))),
               f"{kind}: wrong schema")
        if kind == "check":
            doc["invariants"]["frequencies"][0]["value"] *= 1.0001
        elif kind == "tunes":
            doc["blocks"][0]["cosine"] += 1e-6
        else:
            doc["final_matrix"][0][1] *= 1.0001
        caught(w, i, (0, json.dumps(doc)), f"{kind}: altered number")


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def short_runs(spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, names in ((0, e2e), (1, layer)):
            proc = run_cli(name, trace)
            expect(proc.returncode == 0, f"{name} --trace {trace}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} --trace {trace}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} --trace {trace}: {res['attempted']} attempted, "
                   f"{res['failed']} failed")
            expect(set(res["metrics"]) == names,
                   f"{name} --trace {trace}: metrics match BENCHMARK.json")


# The layers each workload must spend time in; every other layer stays idle
# (the "predicted no change" column of the README's layer table).
BUSY_LAYERS = {
    "quad4": {"dirac", "emeq", "transform", "decouple4"},
    "jacobi": {"dirac", "emeq", "transform", "decouple4", "jacobi"},
    "beamline": {"dirac", "emeq", "transform", "decouple4", "jacobi", "optics"},
    "cli": {"dirac", "emeq", "transform", "decouple4", "jacobi", "optics",
            "matrixio", "cli"},
}


def trace_accounting(ws: dict) -> None:
    """The traced time matches the time taken from outside, layer by layer.

    The root spans must add up to the operation times the runner measures
    around the traced calls, so the tracer loses no time; each layer a
    workload uses must show self time and every other layer none; and
    under 5 % of the traced time may fall outside every symdec function.
    """
    for name, w in ws.items():
        tr = tracer.Tracer()
        runner, _plain, traced, _rounds = run.measure(w, 1.0, tr, run.HOOKS)
        times = [t for ts in traced for t in ts]
        m = {k: v["value"] for k, v in run.layer_metrics(tr, len(times)).items()}
        outside = sum(times) * 1e3 / len(times)
        expect(runner.failed == 0 and abs(m["trace.op_ms"] - outside) <= 0.01 * outside,
               f"{name}: traced op {m['trace.op_ms']:.4f} ms matches "
               f"{outside:.4f} ms timed from outside")
        busy = {layer for layer in run.LAYERS if m[f"{layer}.self_ms"] > 0.0}
        expect(busy == BUSY_LAYERS[name],
               f"{name}: self time in {sorted(busy)}")
        expect(m["bench.self_ms"] < 0.05 * m["trace.op_ms"],
               f"{name}: under 5% of traced time is outside symdec layers")


def tracer_restores(modules: dict) -> None:
    before = {(layer, k): v for layer, m in modules.items() for k, v in vars(m).items()}
    tr = tracer.Tracer()
    wrapped = tr.install(modules)
    tr.uninstall()
    after = {(layer, k): v for layer, m in modules.items() for k, v in vars(m).items()}
    expect(wrapped > 50 and all(after[k] is v for k, v in before.items()),
           f"tracer wraps {wrapped} names and restores them all")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".work-selftest-", dir=HERE) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", "results", "__pycache__"))
        proc = run_cli("quad4", 0, cwd=tmp)
        expect(proc.returncode != 0 and "metrics" not in proc.stdout,
               f"without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = run.load_symdec()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        print("every item passes its checks (seed 0)")
        ws = {}
        for name, cls in workloads.WORKLOADS.items():
            w = ws[name] = cls(modules, 0, Path(tmp) / name)
            bad = {i: w.check(i, w.op(item)) for i, item in enumerate(w.items)}
            bad = {i: b for i, b in bad.items() if b}
            expect(not bad, f"{name}: {len(w.items)} items, failing {bad}")
        print("checks catch corrupted results")
        corruptions(ws)
        print("trace accounting")
        trace_accounting(ws)
    print("tracer installation")
    tracer_restores(modules)
    print("short runs through run.py")
    short_runs(spec)
    print("bare directory")
    bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
