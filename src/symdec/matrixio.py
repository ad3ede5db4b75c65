"""Matrix file loading for the command-line tools.

Two formats are accepted:

* JSON: a self-describing object
  ``{"kind": "force"|"transfer", "n": 2, "tau": 1.0, "label": "...",
  "matrix": [[...], ...]}`` where only "matrix" is mandatory ("n" is the
  integer half-dimension, "tau" a finite positive number), and
* plain text: the dimension 2n on the first line followed by 2n
  whitespace-separated rows; blank lines and ``#`` comments are ignored.

Numbers are decimal doubles.  The text format carries no metadata; the
consuming command decides the kind.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = ["MatrixFile", "MatrixFileError", "load_matrix", "save_matrix_json"]

KINDS = ("force", "transfer")


class MatrixFileError(Exception):
    """Unreadable or malformed matrix file."""


@dataclass(frozen=True, eq=False)
class MatrixFile:
    """A parsed matrix with its metadata."""

    matrix: np.ndarray
    kind: str | None = None
    tau: float | None = None
    label: str | None = None
    sha256: str | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2


def _validate(matrix: np.ndarray, where: str) -> np.ndarray:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise MatrixFileError(f"{where}: matrix must be square, got "
                              f"shape {matrix.shape}")
    if matrix.shape[0] % 2 or matrix.shape[0] == 0:
        raise MatrixFileError(f"{where}: dimension must be even and "
                              f"positive, got {matrix.shape[0]}")
    if not np.all(np.isfinite(matrix)):
        raise MatrixFileError(f"{where}: non-finite entries")
    return matrix


def _load_json(text: str, where: str) -> MatrixFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if "matrix" not in doc:  # text opening with "{" parses to an object
        raise MatrixFileError(f"{where}: expected an object with a "
                              "'matrix' field")
    try:
        matrix = np.array(doc["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{where}: bad matrix entries: {exc}") from exc
    matrix = _validate(matrix, where)
    kind = doc.get("kind")
    if kind is not None and kind not in KINDS:
        raise MatrixFileError(f"{where}: kind must be one of {KINDS}, "
                              f"got {kind!r}")
    n = doc.get("n")
    if n is not None and (type(n) is not int or 2 * n != matrix.shape[0]):
        raise MatrixFileError(f"{where}: declared n={n!r} but matrix is "
                              f"{matrix.shape[0]}x{matrix.shape[0]}")
    tau = doc.get("tau")
    if tau is not None and (type(tau) not in (int, float)
                            or not 0.0 < tau < np.inf):
        raise MatrixFileError(f"{where}: tau must be a finite positive "
                              f"number, got {tau!r}")
    return MatrixFile(matrix=matrix, kind=kind,
                      tau=None if tau is None else float(tau),
                      label=doc.get("label"))


def _load_text(text: str, where: str) -> MatrixFile:
    rows = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            try:
                dim = int(line)
            except ValueError as exc:
                raise MatrixFileError(
                    f"{where}: line {lineno}: expected the dimension, "
                    f"got {line!r}") from exc
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise MatrixFileError(
                f"{where}: line {lineno}: {exc}") from exc
        if len(row) != dim:
            raise MatrixFileError(
                f"{where}: line {lineno}: expected {dim} entries, "
                f"got {len(row)}")
        rows.append(row)
    if dim is None:
        raise MatrixFileError(f"{where}: empty file")
    if len(rows) != dim:
        raise MatrixFileError(f"{where}: expected {dim} rows, got {len(rows)}")
    return MatrixFile(matrix=_validate(np.array(rows), where))


def load_matrix(path) -> MatrixFile:
    """Load a UTF-8 (as JSON, RFC 8259) matrix file, auto-detecting JSON
    versus plain text; its sha256 is the digest of the bytes parsed."""
    path = Path(path)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeError) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise MatrixFileError(f"{path}: {why}") from exc
    load = _load_json if text.lstrip().startswith("{") else _load_text
    return replace(load(text, str(path)),
                   sha256=hashlib.sha256(data).hexdigest())


def save_matrix_json(path, matrix: np.ndarray, kind: str | None = None,
                     tau: float | None = None,
                     label: str | None = None) -> None:
    """Write a matrix as a self-describing JSON document."""
    matrix = np.asarray(matrix, dtype=float)
    doc = {"matrix": matrix.tolist(), "n": matrix.shape[0] // 2}
    if kind is not None:
        doc["kind"] = kind
    if tau is not None:
        doc["tau"] = tau
    if label is not None:
        doc["label"] = label
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
