"""JSON wire formats and deterministic number formatting.

Matrix encoding: a complex number is a two-element array [re, im]; a matrix
is a row-major nested array of those.  Operation descriptors and protocol
traces follow the schemas documented in the README.  Trace numerics are
parsed into exact fractions so that rational rate identities survive the
round trip.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Any

import numpy as np

from .distillation import BranchOutcome, ProtocolTrace, TraceStep
from .linalg import BipartiteLabel
from .operations import QuantumOperation, SubOperation


class SchemaError(ValueError):
    """Malformed input document; the message names the offending field."""


def format_number(x: Any, precision: int = 12) -> str:
    """Shortest round-trip decimal of x at the given significant precision."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Rational):
        x = float(x)
    return repr(float(f"{float(x):.{precision}g}"))


def round_for_report(obj: Any, precision: int = 12) -> Any:
    """Recursively round floats (and exact fractions) for serialization."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (float, Rational)):
        return float(f"{float(obj):.{precision}g}")
    if isinstance(obj, dict):
        return {k: round_for_report(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_for_report(v, precision) for v in obj]
    return obj


def dump_report(obj: Any, precision: int = 12) -> str:
    """Deterministic JSON text: sorted keys, rounded numbers, trailing newline."""
    return json.dumps(round_for_report(obj, precision), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Matrices.
# ---------------------------------------------------------------------------


# Entry types that the fast path of decode_matrix converts as the walker does.
_PLAIN_NUMBERS = {int, float, Fraction}


def decode_matrix(data: Any, where: str = "matrix") -> np.ndarray:
    """Complex matrix from rows of [re, im] pairs; SchemaError names a bad entry.

    A regular list of lists of [re, im] lists of plain numbers converts in
    one numpy call; any other input goes through the entry-by-entry walker,
    which either decodes it the same way or raises.
    """
    if (
        type(data) is list
        and all(type(row) is list for row in data)
        and set(map(type, chain.from_iterable(data))) == {list}
        and set(map(type, chain.from_iterable(chain.from_iterable(data)))) <= _PLAIN_NUMBERS
    ):
        try:
            pairs = np.asarray(data, dtype=float)
        except (ValueError, OverflowError):  # ragged, or beyond the double range
            pass
        else:
            if pairs.ndim == 3 and pairs.shape[2] == 2 and np.isfinite(pairs).all():
                return pairs.view(complex)[..., 0]
    return _walk_matrix(data, where)


def _walk_matrix(data: Any, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}[{i}]: expected a non-empty row")
        if len(row) != len(data[0]):  # row 0 passed the check above
            raise SchemaError(f"{where}[{i}]: row length {len(row)} != {len(data[0])}")
        entries = []
        for j, z in enumerate(row):
            if (
                not isinstance(z, list)
                or len(z) != 2
                or not all(isinstance(c, (int, float, Fraction)) for c in z)
            ):
                raise SchemaError(f"{where}[{i}][{j}]: complex entries are [re, im] pairs")
            if any(isinstance(c, bool) for c in z):
                raise SchemaError(f"{where}[{i}][{j}]: entry is a boolean, not a number")
            try:
                entry = complex(float(z[0]), float(z[1]))
            except OverflowError:  # an int or Fraction beyond the double range
                entry = complex(math.inf)
            if not cmath.isfinite(entry):
                raise SchemaError(f"{where}[{i}][{j}]: entry is not a finite number")
            entries.append(entry)
        rows.append(entries)
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# Operation descriptors.
# ---------------------------------------------------------------------------


def _decode_label(data: Any, where: str) -> BipartiteLabel:
    if (
        not isinstance(data, list)
        or len(data) != 2
        or not all(isinstance(d, int) and d >= 1 for d in data)
    ):
        raise SchemaError(f"{where}: expected [dimA, dimB] with positive integers")
    return BipartiteLabel(data[0], data[1])


def decode_operation(doc: Any) -> tuple[QuantumOperation, list | None]:
    """Parse an operation descriptor; returns (operation, witness or None)."""
    if not isinstance(doc, dict):
        raise SchemaError("document: expected an object")
    in_label = _decode_label(doc.get("input"), "input")
    subs_doc = doc.get("subops")
    if not isinstance(subs_doc, list) or not subs_doc:
        raise SchemaError("subops: expected a non-empty list")
    subs = []
    for i, sd in enumerate(subs_doc):
        if not isinstance(sd, dict):
            raise SchemaError(f"subops[{i}]: expected an object")
        out_label = _decode_label(sd.get("output"), f"subops[{i}].output")
        kraus_doc = sd.get("kraus")
        if not isinstance(kraus_doc, list) or not kraus_doc:
            raise SchemaError(f"subops[{i}].kraus: expected a non-empty list of matrices")
        kraus = tuple(
            decode_matrix(kd, f"subops[{i}].kraus[{j}]") for j, kd in enumerate(kraus_doc)
        )
        try:
            subs.append(SubOperation(kraus, out_label))
        except ValueError as exc:
            raise SchemaError(f"subops[{i}]: {exc}") from exc
    try:
        op = QuantumOperation(tuple(subs), in_label)
    except ValueError as exc:
        raise SchemaError(f"operation: {exc}") from exc

    witness = None
    if "witness" in doc:
        wdoc = doc["witness"]
        if not isinstance(wdoc, list) or len(wdoc) != len(subs):
            raise SchemaError("witness: expected one entry per sub-operation")
        witness = []
        for i, pairs in enumerate(wdoc):
            if not isinstance(pairs, list) or not pairs:
                raise SchemaError(f"witness[{i}]: expected a non-empty list of [A, B] pairs")
            decoded = []
            for j, pair in enumerate(pairs):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SchemaError(f"witness[{i}][{j}]: expected an [A, B] pair")
                decoded.append(
                    (
                        decode_matrix(pair[0], f"witness[{i}][{j}][0]"),
                        decode_matrix(pair[1], f"witness[{i}][{j}][1]"),
                    )
                )
            witness.append(decoded)
    return op, witness


# ---------------------------------------------------------------------------
# Protocol traces.
# ---------------------------------------------------------------------------


def decode_trace(doc: Any) -> ProtocolTrace:
    if not isinstance(doc, dict):
        raise SchemaError("document: expected an object")
    steps_doc = doc.get("steps")
    if not isinstance(steps_doc, list) or not steps_doc:
        raise SchemaError("steps: expected a non-empty list")
    steps = []
    for i, sd in enumerate(steps_doc):
        if not isinstance(sd, dict):
            raise SchemaError(f"steps[{i}]: expected an object")
        n = sd.get("n")
        if not isinstance(n, int) or n < 1:
            raise SchemaError(f"steps[{i}].n: expected a positive integer")
        branches_doc = sd.get("branches")
        if not isinstance(branches_doc, list) or not branches_doc:
            raise SchemaError(f"steps[{i}].branches: expected a non-empty list")
        branches = []
        for j, bd in enumerate(branches_doc):
            if not isinstance(bd, dict):
                raise SchemaError(f"steps[{i}].branches[{j}]: expected an object")
            p, big_k, f = bd.get("p"), bd.get("K"), bd.get("F")
            if not isinstance(p, (int, float, Fraction)) or isinstance(p, bool):
                raise SchemaError(f"steps[{i}].branches[{j}].p: expected a number")
            if not isinstance(big_k, int) or big_k < 1:
                raise SchemaError(f"steps[{i}].branches[{j}].K: expected a positive integer")
            if not isinstance(f, (int, float, Fraction)) or isinstance(f, bool):
                raise SchemaError(f"steps[{i}].branches[{j}].F: expected a number")
            try:
                branches.append(BranchOutcome(Fraction(p), big_k, Fraction(f)))
            except ValueError as exc:
                raise SchemaError(f"steps[{i}].branches[{j}]: {exc}") from exc
        try:
            steps.append(TraceStep(n, tuple(branches)))
        except ValueError as exc:
            raise SchemaError(f"steps[{i}]: {exc}") from exc
    try:
        return ProtocolTrace(tuple(steps))
    except ValueError as exc:
        raise SchemaError(f"steps: {exc}") from exc


def encode_trace(trace: ProtocolTrace) -> dict:
    return {
        "steps": [
            {
                "n": s.n,
                "branches": [
                    {"p": float(b.p), "K": b.K, "F": float(b.F)} for b in s.branches
                ],
            }
            for s in trace.steps
        ]
    }


def load_json(path: str, exact: bool = True) -> Any:
    """Load a JSON document; decimal literals parse as exact fractions if exact, else floats."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=Fraction if exact else float)
