"""The one CSV writer for artifacts: floats at 17 significant digits."""

from __future__ import annotations

import numpy as np

_ROWS_PER_WRITE = 4096


def write_csv(path, cols, rows, header_meta: str = ""):
    """Write rows under an optional '# header_meta' line and a line of column
    names.  rows is a 2D float array or a sequence of equal-length tuples;
    floats are written with '{:.17g}', anything else with str().  Rows are
    formatted and written in blocks, so the file is never held in memory.
    """
    if not isinstance(rows, np.ndarray):
        rows = np.array(rows, dtype=object)
    with open(path, "w") as fh:
        if header_meta:
            fh.write(f"# {header_meta}\n")
        fh.write(",".join(cols) + "\n")
        if len(rows) == 0:
            return
        line = ",".join("{:.17g}" if isinstance(v, float) else "{}"
                        for v in rows[0].tolist()) + "\n"
        for k in range(0, len(rows), _ROWS_PER_WRITE):
            block = rows[k:k + _ROWS_PER_WRITE]
            fh.write((line * len(block)).format(*block.ravel().tolist()))
