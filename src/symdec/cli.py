"""Command-line front-end.

Subcommands: ``check`` (validate a matrix file and print its invariant
summary), ``decouple`` (run the decoupling pipeline and emit a full
report), ``tunes`` (analyze a one-turn matrix, optionally with a matched
beam), and ``bench`` (iteration-count study on random symplices).

Exit codes: 0 success, 2 validation failure, 3 pipeline infeasibility,
4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .decouple4 import (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN,
                        FORM_NORMAL, Tolerances, decouple)
from .dirac import (rdm_coefficients, symplectic_unit, symplex_residual,
                    symplex_cosymplex_split)
from .emeq import emeq_from_symplex, lax_invariants, spectral_invariants
from .errors import (BoostDomain, BranchMismatch, ComplexEigenvalues,
                     DegenerateB, MaxStepsExceeded, NotASymplex,
                     NotSymplectic, PivotComplex, PrecisionLoss,
                     UnstableBlock, UnstableSystem)
from .jacobi import jacobi_decouple, random_test_symplex
from .matrixio import MatrixFileError, load_matrix
from .optics import analyze_one_turn, matched_sigma
from .transform import replay, symplectic_residual

SCHEMA = "symdec-report/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

_INFEASIBLE = (ComplexEigenvalues, DegenerateB, BoostDomain, BranchMismatch,
               UnstableBlock, PivotComplex, MaxStepsExceeded, UnstableSystem,
               PrecisionLoss)


class _Failure(Exception):
    """Command failure with a chosen exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# report rendering

def _matrix_doc(M: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(M)]


def _steps_doc(steps) -> list:
    return [{"generator": int(s.generator), "epsilon": float(s.epsilon),
             "block": None if s.block is None else [int(s.block[0]),
                                                    int(s.block[1])],
             "skipped": bool(s.skipped)} for s in steps]


def _render_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    return str(v)


def _render_text(doc, indent: int = 0, out=None) -> list:
    lines = out if out is not None else []
    pad = "  " * indent
    for key, val in doc.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            _render_text(val, indent + 1, lines)
        elif isinstance(val, list) and val and isinstance(val[0], list):
            lines.append(f"{pad}{key}:")
            for row in val:
                lines.append("  " * (indent + 1)
                             + "  ".join(_render_value(x) for x in row))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for i, entry in enumerate(val):
                body = "  ".join(f"{k}={_render_value(v)}"
                                 for k, v in entry.items())
                lines.append("  " * (indent + 1) + f"[{i}] {body}")
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: "
                         + "  ".join(_render_value(x) for x in val))
        else:
            lines.append(f"{pad}{key}: {_render_value(val)}")
    return lines


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=1))
    else:
        print("\n".join(_render_text(doc)))


def _input_doc(path: str, mf) -> dict:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"path": str(path), "sha256": digest, "dim": int(mf.dim),
            "n": int(mf.n), "kind": mf.kind, "tau": mf.tau,
            "label": mf.label}


def _frequencies_doc(freqs) -> list:
    return [None if w is None else {"value": float(w.value),
                                    "nature": w.nature} for w in freqs]


def _invariant_doc(M: np.ndarray) -> dict:
    doc = {}
    lax = lax_invariants(M)
    doc["lax"] = [float(v) for v in lax]
    if M.shape[0] == 4:
        try:
            inv = spectral_invariants(emeq_from_symplex(M, tol=1e-6))
        except NotASymplex:
            return doc
        doc.update({"k1": inv.k1, "k2": inv.k2, "det": inv.det,
                    "classification": inv.classification,
                    "stable": inv.stable, "degenerate": inv.degenerate})
        doc["frequencies"] = _frequencies_doc((inv.omega1, inv.omega2))
    return doc


def _load(path: str):
    try:
        return load_matrix(path)
    except MatrixFileError as exc:
        raise _Failure(str(exc), EXIT_IO) from exc


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    mf = _load(args.path)
    kind = mf.kind or args.kind
    M = mf.matrix
    scale = max(1.0, float(np.linalg.norm(M)))
    doc = {"schema": SCHEMA, "command": "check",
           "input": _input_doc(args.path, mf),
           "kind": kind, "tolerance": args.tol}
    if kind == "force":
        resid = symplex_residual(M)
        doc["symplex_residual"] = resid
        ok = resid <= args.tol * scale
        if M.shape[0] == 4:
            coeffs = rdm_coefficients(M)
            doc["coefficients"] = {
                "energy": float(coeffs[0]),
                "p": [float(v) for v in coeffs[1:4]],
                "e": [float(v) for v in coeffs[4:7]],
                "b": [float(v) for v in coeffs[7:10]],
            }
            worst_cos = float(np.max(np.abs(coeffs[10:])))
            doc["cosymplex_coefficient_max"] = worst_cos
            ok = ok and worst_cos <= args.tol * max(
                1.0, float(np.linalg.norm(coeffs)))
        doc["invariants"] = _invariant_doc(M)
    else:
        resid = symplectic_residual(M)
        doc["symplectic_residual"] = resid
        ok = resid <= args.tol * scale
        doc["invariants"] = _invariant_doc(symplex_cosymplex_split(M)[0]) \
            if ok else {}
    doc["valid"] = bool(ok)
    _emit(doc, args.json)
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# decouple

_FORMS = {"block": FORM_BLOCK_DIAGONAL, "hamiltonian": FORM_HAMILTONIAN,
          "normal": FORM_NORMAL}


def cmd_decouple(args) -> int:
    mf = _load(args.path)
    if mf.kind == "transfer":
        raise _Failure(
            f"{args.path}: decouple expects a force matrix, file says "
            "kind=transfer (use 'tunes' for transfer matrices)",
            EXIT_VALIDATION)
    M = mf.matrix
    resid = symplex_residual(M)
    scale = max(1.0, float(np.linalg.norm(M)))
    if resid > args.check_tol * scale:
        raise _Failure(
            f"{args.path}: not a symplex (residual {resid:.3e})",
            EXIT_VALIDATION)
    t0 = time.perf_counter()
    res = decouple(M, form=_FORMS[args.form],
                   tol=Tolerances(step=args.step_tol, post=args.tol),
                   jacobi_tol=args.jacobi_tol, max_steps=args.max_steps)
    elapsed = time.perf_counter() - t0

    final = res.final.matrix
    replayed = replay(res.transform.steps, dim=M.shape[0])
    replay_resid = float(np.max(np.abs(
        replayed.r @ M @ replayed.rinv - final)))
    doc = {"schema": SCHEMA, "command": "decouple",
           "input": _input_doc(args.path, mf),
           "settings": {"form": args.form, "step_tol": args.step_tol,
                        "post_tol": args.tol, "jacobi_tol": args.jacobi_tol},
           "invariants_before": _invariant_doc(M),
           "form_reached": res.form}
    if res.invariants is not None:
        doc["classification"] = res.invariants.classification
    doc["residual"] = float(res.residual)
    if res.stats is not None:
        doc["iteration_stats"] = {
            "pivot_steps": res.stats.pivot_steps,
            "hamiltonian_steps": res.stats.hamiltonian_steps,
            "total_steps": res.stats.total_steps,
            "residual_trend": [float(r) for r in res.stats.residuals],
        }
    doc["transform_log"] = _steps_doc(res.transform.steps)
    doc["transform_symplectic_residual"] = res.transform.residual()
    doc["final_matrix"] = _matrix_doc(final)
    if res.frequencies is not None:
        doc["frequencies"] = _frequencies_doc(res.frequencies)
    if res.complex_radius is not None:
        doc["complex_radius"] = float(res.complex_radius)
    doc["invariants_after"] = _invariant_doc(final)
    doc["replay_residual"] = replay_resid
    doc["timing"] = {"seconds": elapsed}
    _emit(doc, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tunes

def cmd_tunes(args) -> int:
    mf = _load(args.path)
    if mf.kind == "force":
        raise _Failure(
            f"{args.path}: tunes expects a transfer matrix, file says "
            "kind=force (use 'decouple' for force matrices)",
            EXIT_VALIDATION)
    tau = args.tau if args.tau is not None else (mf.tau or 1.0)
    t0 = time.perf_counter()
    try:
        report = analyze_one_turn(mf.matrix, tau=tau,
                                  symplectic_tol=args.symplectic_tol)
    except NotSymplectic as exc:
        raise _Failure(f"{args.path}: {exc}", EXIT_VALIDATION) from exc
    doc = {"schema": SCHEMA, "command": "tunes",
           "input": _input_doc(args.path, mf),
           "tau": float(tau),
           "stable": report.stable,
           "blocks": [{
               "tune": b.tune, "cosine": b.cosine, "sine": b.sine,
               "omega": b.omega, "nature": b.nature,
               "branch_ambiguous": b.branch_ambiguous,
               "negative_direction": b.negative_direction,
           } for b in report.blocks],
           "residuals": {
               "symplectic": report.symplectic_residual,
               "symplex_offblock": report.symplex_offblock_residual,
               "cosymplex_offblock": report.cosymplex_offblock_residual,
           },
           "transform_log": _steps_doc(report.transform.steps)}
    if args.emittances is not None:
        emit = [float(tok) for tok in args.emittances.split(",")]
        sigma = matched_sigma(mf.matrix, emit, tau=tau, report=report,
                              fixed_point_tol=args.fixed_point_tol)
        M, S = mf.matrix, sigma.matrix @ symplectic_unit(mf.n)
        doc["matched"] = {
            "emittances": emit,
            "sigma": _matrix_doc(sigma.matrix),
            "fixed_point_residual": float(np.max(np.abs(
                M @ sigma.matrix @ M.T - sigma.matrix))),
            "commutation_residual": float(np.max(np.abs(M @ S - S @ M))),
        }
    doc["timing"] = {"seconds": time.perf_counter() - t0}
    _emit(doc, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    if not 2 <= args.n_min <= args.n_max <= 16:
        raise _Failure("need 2 <= n-min <= n-max <= 16", EXIT_VALIDATION)
    rows = ["n,seeds,mean_steps,min,max,reference"]
    t0 = time.perf_counter()
    for n in range(args.n_min, args.n_max + 1):
        tn = time.perf_counter()
        counts = []
        for seed in range(args.seeds):
            _, _, stats = jacobi_decouple(random_test_symplex(n, seed),
                                          tol=args.jacobi_tol)
            counts.append(stats.pivot_steps)
        reference = 5.0 * n * (n - 2) / 2.0
        rows.append(f"{n},{args.seeds},{float(np.mean(counts))!r},"
                    f"{min(counts)},{max(counts)},{reference!r}")
        print(f"# n={n}: {time.perf_counter() - tn:.3f} s "
              f"({args.seeds} seeds)", file=sys.stderr)
    print(f"# total {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    csv = "\n".join(rows) + "\n"
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdec",
        description="Symplectic decoupling of Hamiltonian (force) matrices: "
                    "canonical forms, tunes and matched beam moments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a matrix file")
    p.add_argument("path")
    p.add_argument("--kind", choices=("force", "transfer"), default="force",
                   help="how to interpret files without metadata")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative residual tolerance")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decouple", help="decouple a force matrix")
    p.add_argument("path")
    p.add_argument("--form", choices=("block", "hamiltonian", "normal"),
                   default="block", help="target canonical form")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="postcondition tolerance")
    p.add_argument("--step-tol", type=float, default=1e-14,
                   help="angles below this are skipped")
    p.add_argument("--check-tol", type=float, default=1e-8,
                   help="input symplex validation tolerance")
    p.add_argument("--jacobi-tol", type=float, default=1e-12,
                   help="2n convergence threshold")
    p.add_argument("--max-steps", type=int, default=None,
                   help="pivot budget for the 2n iteration")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output")
    group.add_argument("--text", action="store_false", dest="json",
                       help="plain-text output (default)")
    p.set_defaults(func=cmd_decouple, json=False)

    p = sub.add_parser("tunes", help="analyze a one-turn transfer matrix")
    p.add_argument("path")
    p.add_argument("--tau", type=float, default=None,
                   help="period (overrides the file value)")
    p.add_argument("--emittances", default=None,
                   help="comma-separated emittances for the matched beam")
    p.add_argument("--symplectic-tol", type=float, default=1e-8)
    p.add_argument("--fixed-point-tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_tunes)

    p = sub.add_parser("bench", help="iteration-count study")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--jacobi-tol", type=float, default=1e-12)
    p.add_argument("--csv", default=None, help="write CSV here instead "
                   "of stdout")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        print(f"symdec: error: {exc}", file=sys.stderr)
        return exc.code
    except (NotASymplex, NotSymplectic) as exc:
        print(f"symdec: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _INFEASIBLE as exc:
        print(f"symdec: infeasible: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except MatrixFileError as exc:
        print(f"symdec: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
