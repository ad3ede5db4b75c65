"""The four benchmark workloads: inputs, the timed operation, checks.

Each workload builds its inputs from the run's seed alone, as one
*round*: a fixed list of items run in a fixed order.  A run repeats
whole rounds, so every run holds the same mix of operations whatever its
length.  ``op(item)`` is the timed operation; ``check(item, out)``
returns the names of the checks that ``out`` fails (an empty list means
the operation is correct).  Checks compare against numpy computations
made apart from symdec, or against properties the method must have; none
compares against stored output.

Inputs stay clear of the failure classes recorded in CHANGES.md (scale
below 1, coincident symplex-part frequencies, indefinite symplex parts),
so every operation is expected to succeed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import types
from pathlib import Path

import numpy as np

# relative tolerances of the checks; symdec's own postconditions use 1e-10
TOL_MATRIX = 1e-9
TOL_SPECTRUM = 1e-8


# ---------------------------------------------------------------------------
# reference computations (numpy only)

def unit(n: int) -> np.ndarray:
    """Block-diagonal symplectic unit for the (q1, p1, ..., qn, pn) order."""
    g0 = np.zeros((2 * n, 2 * n))
    for k in range(n):
        g0[2 * k, 2 * k + 1] = 1.0
        g0[2 * k + 1, 2 * k] = -1.0
    return g0


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def same_spectrum(a, b, tol: float) -> bool:
    """True iff the eigenvalue multisets a and b match within tol."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return False
    for x in a:
        k = int(np.argmin([abs(x - y) for y in b]))
        if abs(x - b[k]) > tol:
            return False
        b.pop(k)
    return True


def transform_failures(R, Rinv, F, final) -> list[str]:
    """Symplectic, inverse and similarity checks of a decoupling transform."""
    dim = R.shape[0]
    g0 = unit(dim // 2)
    out = []
    if _norm(R @ g0 @ R.T - g0) > TOL_MATRIX * max(1.0, _norm(R) ** 2):
        out.append("symplectic")
    if _norm(R @ Rinv - np.eye(dim)) > TOL_MATRIX * max(1.0, _norm(R) * _norm(Rinv)):
        out.append("inverse")
    scale = max(1.0, _norm(R) * _norm(F) * _norm(Rinv))
    if _norm(R @ F @ Rinv - final) > TOL_MATRIX * scale:
        out.append("similarity")
    return out


def block_eigenvalues(M) -> np.ndarray:
    """Union of the eigenvalues of the diagonal 2x2 blocks of M."""
    n = M.shape[0] // 2
    return np.concatenate([np.linalg.eigvals(M[2 * k:2 * k + 2, 2 * k:2 * k + 2])
                           for k in range(n)])


def off_block_residual(M) -> float:
    """Summed Frobenius norms of the off-diagonal 2x2 blocks over ||M||."""
    n = M.shape[0] // 2
    blocks = M.reshape(n, 2, n, 2)
    norms = np.sqrt(np.einsum("iajb,iajb->ij", blocks, blocks))
    np.fill_diagonal(norms, 0.0)
    return float(norms.sum()) / max(_norm(M), 1e-300)


def hamiltonian_pattern_residual(M) -> float:
    """Largest entry outside the antidiagonals of the diagonal 2x2 blocks."""
    mask = np.ones(M.shape, dtype=bool)
    for k in range(M.shape[0] // 2):
        mask[2 * k, 2 * k + 1] = mask[2 * k + 1, 2 * k] = False
    return float(np.max(np.abs(M[mask])))


def normal_pattern_residual(M) -> float:
    """Distance of M from antisymmetric 2x2 rotation blocks [[0, w], [-w, 0]]."""
    resid = hamiltonian_pattern_residual(M)
    for k in range(M.shape[0] // 2):
        resid = max(resid, abs(M[2 * k, 2 * k + 1] + M[2 * k + 1, 2 * k]))
    return resid


# The real canonical form of a complex quadruple keeps only the E_y, E_z
# and B_y Dirac coefficients: these are the three matrices they multiply.
_COMPLEX_PATTERN = np.array([
    [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
], dtype=float)


def complex_pattern_residual(M) -> float:
    """Distance of M from the span of the complex canonical pattern."""
    basis = _COMPLEX_PATTERN.reshape(3, 16).T
    coef, *_ = np.linalg.lstsq(basis, M.reshape(16), rcond=None)
    return float(np.max(np.abs(basis @ coef - M.reshape(16))))


def expm_by_eig(F, tau: float) -> np.ndarray:
    """exp(F tau) of a diagonalizable F through its eigendecomposition."""
    w, V = np.linalg.eig(F)
    return (V @ np.diag(np.exp(w * tau)) @ np.linalg.inv(V)).real


def random_symplectic(rng, n: int, coupling: float) -> np.ndarray:
    """Cayley transform (1 - H/2)^-1 (1 + H/2) of a random symplex H."""
    A = rng.uniform(-coupling, coupling, (2 * n, 2 * n))
    H = unit(n) @ ((A + A.T) / 2.0)
    eye = np.eye(2 * n)
    return np.linalg.solve(eye - H / 2.0, eye + H / 2.0)


def ring(rng, phases, tau: float, coupling: float):
    """A coupled stable ring with the given phase advances per turn.

    F = S Fn S^-1 with Fn the rotation generator of frequencies
    phase/tau and S a random symplectic matrix; the one-turn matrix is
    M = S exp(Fn tau) S^-1, built in closed form.
    """
    n = len(phases)
    S = random_symplectic(rng, n, coupling)
    Sinv = -unit(n) @ S.T @ unit(n)
    Fn = np.zeros((2 * n, 2 * n))
    Mn = np.zeros((2 * n, 2 * n))
    for k, phi in enumerate(phases):
        w = phi / tau
        Fn[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, w], [-w, 0.0]]
        c, s = math.cos(phi), math.sin(phi)
        Mn[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, s], [-s, c]]
    return S @ Fn @ Sinv, S @ Mn @ Sinv


def ring_phases(rng, n: int) -> list[float]:
    """Phase advances in (0.25, 2.9) whose sines differ by at least 0.08.

    Distinct positive sines keep the symplex part of the one-turn matrix
    definite with well-separated frequencies, away from the failure
    classes of analyze_one_turn recorded in CHANGES.md.
    """
    while True:
        phases = sorted(rng.uniform(0.25, 2.9, n))
        sines = sorted(math.sin(p) for p in phases)
        if min(b - a for a, b in zip(sines, sines[1:])) >= 0.08 and \
                min(b - a for a, b in zip(phases, phases[1:])) >= 0.15:
            return phases


def focusing(rng, n: int) -> np.ndarray:
    """F = g0 A with A symmetric positive definite (a stable coupled system)."""
    A = rng.uniform(-0.5, 0.5, (2 * n, 2 * n))
    A = (A + A.T) / 2.0
    A[np.diag_indices(2 * n)] = 2.0 + rng.uniform(0.0, 1.0, 2 * n)
    return unit(n) @ A


class Workload:
    """Base class: a round of items, the timed operation and its checks."""

    name = ""
    warmup_items = None      # items run untimed before measuring; None = all

    def __init__(self, modules: dict, seed: int, workdir: Path):
        self.modules = modules
        self.lib = types.SimpleNamespace(**modules)
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.workdir = workdir
        self.items = self.build()
        self._reference: dict[int, object] = {}

    def reference(self, i: int, fn):
        """Memoized reference computation for item i (done once per run)."""
        ref = self._reference.get(i)
        if ref is None:
            ref = self._reference[i] = fn(self.items[i])
        return ref

    def build(self) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def counters(self, out) -> dict[str, float]:
        """Workload-specific per-layer counts of one traced operation."""
        return {}


# ---------------------------------------------------------------------------
# quad4

QUAD4_CLASSES = ("two_imaginary_pairs", "mixed", "two_real_pairs",
                 "complex_quadruple", "focusing")


def _eigen_class(ev) -> str | None:
    """Eigenvalue class of a 4x4 symplex, or None near a class boundary.

    Kept: pair magnitudes at least a tenth of the spectral radius and a
    tenth apart (no zero or coincident frequencies, K2 away from 0), and
    complex quadruples at least a tenth of the radius off both axes.
    """
    r = float(np.max(np.abs(ev)))
    re, im = np.abs(ev.real), np.abs(ev.imag)
    if np.all(re >= 0.1 * r) and np.all(im >= 0.1 * r):
        return "complex_quadruple"
    if np.any(np.minimum(re, im) > 1e-9 * r):
        return None
    mags = np.sort(np.abs(ev))      # two +- pairs: [a, a, b, b]
    if mags[0] < 0.1 * r or mags[2] - mags[1] < 0.1 * r:
        return None
    nreal = int(np.sum(re > im))
    return {0: "two_imaginary_pairs", 2: "mixed", 4: "two_real_pairs"}.get(nreal)


class Quad4(Workload):
    """One decouple() of a 4x4 symplex to the deepest form its spectrum allows."""

    name = "quad4"
    per_class = 16

    def build(self):
        gamma = np.asarray(self.lib.dirac.GAMMA[:10])
        pools = {c: [] for c in QUAD4_CLASSES}
        while any(len(pools[c]) < self.per_class for c in QUAD4_CLASSES[:4]):
            coeffs = self.rng.uniform(-1.0, 1.0, (512, 10))
            mats = np.einsum("nk,kij->nij", coeffs, gamma)
            for F, ev in zip(mats, np.linalg.eigvals(mats)):
                c = _eigen_class(ev)
                if c is not None and len(pools[c]) < self.per_class:
                    pools[c].append(F)
        pools["focusing"] = [focusing(self.rng, 2) for _ in range(self.per_class)]
        # interleave the classes so any prefix of a round holds all of them
        return [(c, pools[c][k]) for k in range(self.per_class)
                for c in QUAD4_CLASSES]

    def op(self, item):
        cls, F = item
        form = "hamiltonian" if cls in ("mixed", "two_real_pairs") else "normal"
        return self.lib.decouple4.decouple(F, form=form)

    def check(self, i, res):
        cls, F = self.items[i]
        ev = self.reference(i, lambda it: np.linalg.eigvals(it[1]))
        R, Rinv = res.transform.r, res.transform.rinv
        final = res.final.matrix
        out = transform_failures(R, Rinv, F, final)
        scale = max(1.0, _norm(final))
        expected = {"mixed": "hamiltonian", "two_real_pairs": "hamiltonian",
                    "complex_quadruple": "complex_canonical"}.get(cls, "normal")
        if res.form != expected:
            out.append("form")
        pattern = {"normal": normal_pattern_residual,
                   "hamiltonian": hamiltonian_pattern_residual,
                   "complex_canonical": complex_pattern_residual}[expected]
        if pattern(final) > TOL_MATRIX * scale:
            out.append("pattern")
        rep = self.lib.transform.replay(res.transform.steps, dim=4)
        if _norm(rep.r - R) > TOL_MATRIX * max(1.0, _norm(R)):
            out.append("replay")
        radius = float(np.max(np.abs(ev)))
        tol = TOL_SPECTRUM * max(1.0, radius)
        if expected == "complex_canonical":
            if res.complex_radius is None or \
                    np.max(np.abs(np.abs(ev) - res.complex_radius)) > tol:
                out.append("spectrum")
        else:
            pairs = []
            for w in res.frequencies or ():
                z = abs(w.value) * (1j if w.nature == "imaginary" else 1.0)
                pairs += [z, -z]
            if not same_spectrum(pairs, ev, tol):
                out.append("spectrum")
        return out


# ---------------------------------------------------------------------------
# jacobi

class Jacobi(Workload):
    """One jacobi_decouple to Hamiltonian form of a 2n x 2n test symplex."""

    name = "jacobi"
    # Operations of at most about a second, so that a run repeats each
    # item often enough for its upper quartile to read the host's slow
    # speed; at n = 32 (2.6-3.5 s) a run held three to five repeats.
    sizes = (12, 16, 20)
    warmup_items = 1
    # Above the residual floor near 1e-12, where the default tolerance
    # stalls or ends above itself on some inputs (CHANGES.md, FOUND).
    tol = 1e-10

    def build(self):
        seeds = self.rng.integers(0, 2**63, len(self.sizes))
        return [(n, self.lib.jacobi.random_test_symplex(n, int(s)).matrix)
                for n, s in zip(self.sizes, seeds)]

    def op(self, item):
        return self.lib.jacobi.jacobi_decouple(item[1], tol=self.tol)

    def check(self, i, out):
        n, F = self.items[i]
        transform, sym, _stats = out
        M = sym.matrix
        fails = transform_failures(transform.r, transform.rinv, F, M)
        if off_block_residual(M) > self.tol:
            fails.append("off_block")
        if hamiltonian_pattern_residual(M) > TOL_MATRIX * max(1.0, _norm(M)):
            fails.append("pattern")
        ev = self.reference(i, lambda it: np.linalg.eigvals(it[1]))
        if not same_spectrum(block_eigenvalues(M), ev,
                             TOL_SPECTRUM * max(1.0, float(np.max(np.abs(ev))))):
            fails.append("spectrum")
        return fails


# ---------------------------------------------------------------------------
# beamline

class Beamline(Workload):
    """analyze_one_turn, matched_sigma and effective_force of a one-turn matrix."""

    name = "beamline"
    # two n = 2 rings per n = 3 ring: a run's median then falls among the
    # n = 2 operations, not in the gap between the two sizes' times
    sizes = (2, 2, 3) * 5
    emittances = (2.0, 0.5, 1.0)

    def build(self):
        items = []
        for n in self.sizes:
            tau = float(self.rng.uniform(0.7, 1.3))
            F, M = ring(self.rng, ring_phases(self.rng, n), tau, 0.3)
            items.append((n, tau, F, M, self.emittances[:n]))
        return items

    def op(self, item):
        _n, tau, _F, M, emit = item
        optics = self.lib.optics
        report = optics.analyze_one_turn(M, tau=tau)
        sigma = optics.matched_sigma(M, emit, tau=tau, report=report)
        eff = optics.effective_force(M, tau=tau, report=report)
        return report, sigma, eff

    def check(self, i, out):
        _n, tau, F, M, _emit = self.items[i]
        report, sigma, eff = out
        fails = []
        omegas = self.reference(
            i, lambda it: np.sort(np.abs(np.linalg.eigvals(it[2]).imag))[::2])
        cosines = np.sort(np.cos(omegas * tau))
        if not report.stable or np.max(np.abs(
                np.sort(report.tune_cosines) - cosines)) > TOL_SPECTRUM:
            fails.append("tunes")
        S = sigma.matrix
        if _norm(M @ S @ M.T - S) > TOL_MATRIX * max(1.0, _norm(M) ** 2 * _norm(S)):
            fails.append("matched")
        if _norm(S - S.T) > TOL_MATRIX * _norm(S) or np.min(np.linalg.eigvalsh(S)) <= 0.0:
            fails.append("sigma_definite")
        if _norm(expm_by_eig(eff.matrix, tau) - M) > TOL_SPECTRUM * max(1.0, _norm(M)):
            fails.append("effective_force")
        return fails


# ---------------------------------------------------------------------------
# cli

class Cli(Workload):
    """One in-process symdec command on a matrix file written at set-up."""

    name = "cli"
    # Two thirds of a round are 4x4 decouples, so a run's median falls
    # among them, not in the gap between the fast check and the rest.
    decouples = 12
    checks_and_tunes = 3
    large_n = 4
    emittances = "2.0,0.5"

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for k in range(self.decouples):
            F = focusing(self.rng, 2)
            fpath = self._write(f"force_{k}.json", F, "force")
            items.append(("decouple", ["decouple", fpath, "--form", "normal",
                                       "--json"], F))
            if k < self.checks_and_tunes:
                tau = float(self.rng.uniform(0.7, 1.3))
                _, M = ring(self.rng, ring_phases(self.rng, 2), tau, 0.3)
                tpath = self._write(f"transfer_{k}.json", M, "transfer", tau)
                items += [
                    ("check", ["check", fpath, "--json"], F),
                    ("tunes", ["tunes", tpath, "--emittances", self.emittances,
                               "--json"], M),
                ]
        large = focusing(self.rng, self.large_n)
        large_path = self._write("force_2n.json", large, "force")
        items.append(("decouple_2n", ["decouple", large_path, "--form",
                                      "normal", "--json"], large))
        return items

    def _write(self, name, matrix, kind, tau=None) -> str:
        doc = {"kind": kind, "n": matrix.shape[0] // 2,
               "matrix": matrix.tolist()}
        if tau is not None:
            doc["tau"] = tau
        path = self.workdir / name
        path.write_text(json.dumps(doc) + "\n")
        return str(path)

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(item[1])
        return code, buf.getvalue()

    def counters(self, out):
        return {"cli.report_kb": len(out[1]) / 1024.0}

    def check(self, i, out):
        kind, _argv, X = self.items[i]
        code, text = out
        if code != 0:
            return ["exit_code"]
        try:
            doc = json.loads(text)
        except ValueError:
            return ["json"]
        if doc.get("schema") != "symdec-report/1":
            return ["schema"]
        ev = self.reference(i, lambda it: np.linalg.eigvals(it[2]))
        tol = TOL_SPECTRUM * max(1.0, float(np.max(np.abs(ev))))
        freqs = np.sort(np.abs(ev.imag))[::2]
        fails = []
        if kind == "check":
            got = [w["value"] for w in doc["invariants"]["frequencies"]]
            if not doc["valid"] or np.max(np.abs(np.sort(got) - freqs)) > tol:
                fails.append("frequencies")
        elif kind in ("decouple", "decouple_2n"):
            final = np.array(doc["final_matrix"])
            scale = max(1.0, _norm(final))
            if normal_pattern_residual(final) > TOL_MATRIX * scale:
                fails.append("pattern")
            if not same_spectrum(block_eigenvalues(final), ev, tol):
                fails.append("spectrum")
            if doc["replay_residual"] > TOL_MATRIX * scale:
                fails.append("replay")
        else:
            cos = np.sort([b["cosine"] for b in doc["blocks"]])
            if not doc["stable"] or np.max(np.abs(cos - np.sort(ev.real)[::2])) > tol:
                fails.append("tunes")
            S = np.array(doc["matched"]["sigma"])
            M = X
            if _norm(M @ S @ M.T - S) > TOL_MATRIX * max(1.0, _norm(M) ** 2 * _norm(S)):
                fails.append("matched")
        return fails


WORKLOADS = {w.name: w for w in (Quad4, Jacobi, Beamline, Cli)}
