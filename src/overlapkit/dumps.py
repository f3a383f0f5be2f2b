"""Grid dumps as text: the 9 decimals of a whole array of unit values at once.

`overlapkit eval` without --at dumps a connective on its grid. Its numbers
are written by one array kernel, _decimals, instead of one float at a time:
n = rint(v * 1e9) spelled from tables of three-digit groups into byte rows.
_table renders text and CSV lines with it, _json_array JSON arrays, and
_json splices those into json.dumps of the rest of a payload. Every JSON
output of the CLI is _json's: the payload goes through numerics._plain,
the one serializer, which turns its reports into JSON data and rounds its
floats to 9 decimals in one walk. The output is byte-identical to
"%.9f" % v in text and CSV and to json.dumps of round(v, 9) in JSON; the
per-value formats are the tests' reference.

A dump is rendered and written a span at a time: at most _CHUNK values,
whole runs along the last axis (one x of a binary dump), so a dump of any
size never holds its whole text at once.

The kernel is a module of its own, not part of cli, so that the CLI module
compiles in less memory where Python writes no bytecode cache.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterable

import numpy as np

from .numerics import _plain

# A text of 9 decimals: its head "w.ddd" and two groups of three digits.
_NINE = np.dtype({"names": ["head", "mid", "low"], "formats": ["S5", "S3", "S3"], "offsets": [0, 5, 8]})

# Most values a grid dump renders at once: whole runs along its last axis,
# or part of a run when one run is longer.
_CHUNK = 4096


@lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The texts 000 to 999, and 0.000 to 1.000, each then again with its trailing zeros as 0 bytes.

    A head keeps its first decimal. Built at the first grid dump, so a
    process that writes none does not pay for them.
    """
    groups = np.char.zfill(np.arange(1000).astype("S3"), 3)
    heads = np.append(np.char.add(b"0.", groups), b"1.000")
    stripped = np.char.rstrip(heads, b"0")
    stripped = np.where(np.char.endswith(stripped, b"."), np.char.add(stripped, b"0"), stripped)
    groups = np.stack([groups, np.char.rstrip(groups, b"0")]).ravel()
    return groups, np.stack([heads, stripped]).astype("S5").ravel()


def _decimals(values: np.ndarray, texts: np.ndarray, strip: bool) -> np.ndarray:
    """Write "%.9f" % v for each v of a flat float64 array in [0, 1] into texts, an array of _NINE.

    n = rint(v * 1e9) is the integer nearest v * 10^9, which dtoa's digits
    spell, wherever |v * 1e9 - n| <= 0.5 - 1e-6: for v <= 1 the product's
    rounding error is at most 2^-24 < 6e-8. The mask returned marks every
    other value (a tie or near-tie, or -0.0, which reads 0.000000000),
    whose text the caller replaces. With strip, the trailing zeros after
    the first decimal are 0 bytes. texts may be a strided view into a
    buffer of lines.
    """
    scaled = values * 1e9
    nearest = np.rint(scaled)
    odd = (np.abs(scaled - nearest) > 0.5 - 1e-6) | np.signbit(values)
    # Floor division by a constant is much faster than divmod or %.
    n = nearest.astype(np.int32)
    thousands = n // 1000
    low = n - 1000 * thousands
    head = thousands // 1000
    mid = thousands - 1000 * head
    groups, heads = _digit_tables()
    lows = groups
    if strip:
        head = np.where(mid | low, head, head + 1001)
        mid = np.where(low, mid, mid + 1000)
        lows = groups[1000:]
    texts["head"] = heads.take(head)
    texts["mid"] = groups.take(mid)
    texts["low"] = lows.take(low)
    return odd


def _fixed9(values: np.ndarray, texts: np.ndarray) -> list:
    """Write "%.9f" % v for each v of values into texts, as _decimals; an odd value by Python.

    Returns (index, text) for each text that is not 11 bytes wide; its
    entry in texts reads 0.000000000.
    """
    odd = _decimals(values, texts, strip=False)
    wide = []
    for i in np.flatnonzero(odd).tolist():
        text = "%.9f" % values[i]
        if len(text) == 11:
            texts[i] = (text[:5], text[5:8], text[8:])
        else:
            wide.append((i, text))
    return wide


def _spans(values: np.ndarray) -> Iterable[tuple[int, int]]:
    """The (start, stop) flat index ranges a grid dump renders at once: whole runs, at most _CHUNK values."""
    run = values.shape[-1]
    step = _CHUNK // run * run or _CHUNK
    return ((start, min(start + step, values.size)) for start in range(0, values.size, step))


def _table_span(labels: np.ndarray, values: np.ndarray, start: int, stop: int, sep: str, end: str) -> str:
    """The lines "label sep ... value end" of values' flat indices start to stop, without the last end.

    The lines are one buffer of fixed-width rows, each cell 11 bytes: every
    label is, and a value that is not (-0.0) is put in after decoding.
    """
    row = np.frombuffer((b"\0" * 11 + sep.encode()) * values.ndim + b"\0" * 11 + end.encode(), np.uint8)
    lines = np.tile(row, stop - start)
    at = 12 * values.ndim
    wide = _fixed9(values.reshape(-1)[start:stop], np.ndarray(stop - start, _NINE, lines, at, (len(row),)))
    # The label cells, one row of them for each run in the span.
    run = values.shape[-1]
    first, offset = divmod(start, run)
    shape = (max((stop - start) // run, 1), min(stop - start, run), values.ndim)
    cells = np.ndarray(shape, "S11", lines, 0, (run * len(row), len(row), 12))
    cells[:, :, -1] = labels[offset:offset + shape[1]]
    if values.ndim == 2:
        cells[:, :, 0] = labels[first:first + shape[0], None]
    text = str(memoryview(lines)[:-len(end)], "ascii")
    pieces, done = [], 0
    for i, wide_text in wide:
        pieces += (text[done:i * len(row) + at], wide_text)
        done = i * len(row) + at + 11
    return "".join(pieces) + text[done:] if wide else text


def _table(axis: np.ndarray, values: np.ndarray, sep: str, end: str) -> Iterable[str]:
    """The lines of a grid dump of values (one or two axes) on axis, a span at a time, each without its last end.

    Every label is 11 bytes wide, because the axis lies in [0, 1] and starts
    at +0.0.
    """
    labels = np.empty(len(axis), _NINE)
    _fixed9(axis, labels)
    labels = labels.view("S11")
    for start, stop in _spans(values):
        yield _table_span(labels, values, start, stop, sep, end)


def _json_array(values: np.ndarray, indent: str) -> Iterable[str]:
    """values (one or two axes), rounded to 9 decimals, as json.dumps(..., indent=2) writes them at indent.

    round(v, 9) is the double nearest the 9 decimals of "%.9f" % v, and its
    repr is those decimals without their trailing zeros after the first,
    except below 1e-4, where repr takes an exponent. repr(round(v, 9))
    writes those values and _decimals' odd ones; every such text fits in 11
    bytes. A span's lines are one byte buffer of fixed-width rows "indent
    number,\\n" with 0 bytes where a number is shorter, which are removed
    once each run's last row is joined to what follows it: the run's
    closing and the next run's opening bracket, or nothing at the end.
    """
    run = values.shape[-1]
    inner = indent + "  "
    run_break = f"\n{inner}],\n{inner}[\n".encode()
    at = len(inner) + 2 * (values.ndim - 1)
    row = b" " * at + b"\0" * 11 + b",\n"
    yield "[\n" + f"{inner}[\n" * (values.ndim - 1)
    for start, stop in _spans(values):
        chunk = values.reshape(-1)[start:stop]
        lines = bytearray(row * (stop - start))
        texts = np.ndarray(stop - start, _NINE, lines, at, (len(row),))
        odd = _decimals(chunk, texts, strip=True)
        special = np.flatnonzero(odd | (chunk > 0.0) & (chunk < 1e-4))
        if special.size:
            texts.view("S11")[special] = [repr(round(v, 9)).encode() for v in chunk[special].tolist()]
        # A run's last number ends its list: the run break follows it, or nothing after the last number.
        pieces, done, view = [], 0, memoryview(lines)
        for last in range((run - 1 - start) % run, stop - start, run):
            pieces += (view[done:(last + 1) * len(row) - 2], run_break if start + last + 1 < values.size else b"")
            done = (last + 1) * len(row)
        pieces.append(view[done:])
        yield b"".join(pieces).translate(None, b"\0").decode("ascii")
    yield f"\n{inner}]" * (values.ndim - 1) + f"\n{indent}]"


# The string that holds an array's place in a payload until _json writes the array there
# (no command-line argument can hold its NUL), and its JSON text.
_ARRAY = "\0array"
_ARRAY_JSON = json.dumps(_ARRAY)


def _json(payload) -> Iterable[str]:
    """The text of json.dumps(numerics._plain(payload, 9), indent=2), and a line end.

    _plain turns the payload's reports into JSON data and rounds its floats
    to 9 decimals in one walk. json.dumps hands each array, which it cannot
    encode, to default, which puts _ARRAY in its place; _json_array renders
    it there at the indentation of the line json.dumps put _ARRAY on.
    """
    arrays = []
    text = json.dumps(_plain(payload, 9), indent=2, default=lambda array: arrays.append(array) or _ARRAY)
    *heads, last = text.split(_ARRAY_JSON)
    for head, values in zip(heads, arrays):
        yield head
        line = head[head.rfind("\n") + 1:]
        yield from _json_array(values, line[:len(line) - len(line.lstrip(" "))])
    yield last + "\n"
