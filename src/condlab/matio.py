"""Matrix file ingestion: plain CSV and MatrixMarket array format.

CSV files are bare numeric rows, comma-separated, equal length, no header.
MatrixMarket array files carry the ``%%MatrixMarket matrix array real
general`` banner, optional % comments, a dims line of two positive integers,
then one value per line in column-major order.  Writers emit shortest
round-trip float representations so a written file re-ingests
bit-identically.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

_MM_BANNER = "%%matrixmarket"


def read_matrix(path):
    """Load a matrix from CSV or MatrixMarket array format (sniffed).

    The file is parsed a line at a time: values stream into the result
    array, so no list of lines or of Python floats is ever built.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        for first in lines:
            if first[1].strip():
                break
        else:
            raise ValueError(f"{path}: empty matrix file")
        lines = chain([first], lines)
        if first[1].lstrip().lower().startswith(_MM_BANNER):
            return _parse_matrix_market(lines, path)
        return _parse_csv(lines, path)


def _parse_csv(lines, path):
    """Rows of comma-separated floats, one row held at a time."""
    rows, width = 0, None

    def values():
        nonlocal rows, width
        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}: ragged rows in CSV matrix")
            rows += 1
            yield from row

    data = np.fromiter(values(), dtype=np.float64)
    return data.reshape((rows, width))


def _parse_matrix_market(lines, path):
    """Banner (the first nonblank line), dims line, column-major values one
    to a line; blank lines and % comments may come anywhere after the banner."""
    banner = next(lines)[1].split()
    if [tok.lower() for tok in banner[:5]] != [
        "%%matrixmarket",
        "matrix",
        "array",
        "real",
        "general",
    ]:
        raise ValueError(f"{path}: unsupported MatrixMarket header {banner!r}")
    for _, line in lines:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        dims = line.split()
        break
    else:
        raise ValueError(f"{path}: missing dimensions line")
    if len(dims) != 2 or not all(tok.isdecimal() and int(tok) > 0 for tok in dims):
        raise ValueError(
            f"{path}: malformed dimensions line {dims!r}, expected two positive integers"
        )
    rows, cols = int(dims[0]), int(dims[1])

    def values():
        for lineno, line in lines:
            tokens = line.split()
            if not tokens or tokens[0].startswith("%"):
                continue
            if len(tokens) > 1:
                raise ValueError(
                    f"{path}:{lineno}: expected one value per line, found {len(tokens)}"
                )
            try:
                value = float(tokens[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield value

    # sized by what the file holds, never by what its header claims
    data = np.fromiter(values(), dtype=np.float64)
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {data.size}")
    return data.reshape((cols, rows)).T


def read_vector(path):
    """Load a vector: a one-row or one-column matrix file."""
    m = read_matrix(path)
    if 1 not in m.shape:
        raise ValueError(f"{path}: expected a vector (one row or one column), got {m.shape}")
    return m.reshape(-1)


def write_matrix_csv(path, a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def write_matrix_market(path, a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    rows, cols = a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            for i in range(rows):
                fh.write(repr(float(a[i, j])))
                fh.write("\n")
