"""The transcript of a library run, as text and as whole-length columns.

A runner keeps no column: recorded to an open file, it hands each chunk's
columns to protocols._csv_rows and writes the rows as it goes. recorded()
runs it so, with a wrapper around _csv_rows that keeps a copy of what each
chunk hands the writer.
"""

import io

import numpy as np
import pytest

from lhvlab import protocols

# The columns of a row per trial, or one vector for all; every other column
# holds a value per trial, or one for all.
VECTORS = ("u", "v", "a_used", "b_used", "a_requested", "b_requested")


def recorded(run, *args, **kwargs):
    """(result, transcript CSV, columns) of run(*args, record=a StringIO,
    **kwargs). columns holds every column the run hands the CSV writer, in
    trial order, each at its full length (a column fixed for the run is
    repeated on every trial), with the partner spin v = -u where the run
    gives none."""
    chunks = {}
    write = protocols._csv_rows

    def csv_rows(model, start, cols):
        m = len(cols["u"])
        chunks[start] = {k: np.array(np.broadcast_to(x, (m, 3) if k in VECTORS else (m,)))
                         for k, x in cols.items()}
        return write(model, start, cols)

    fh = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "_csv_rows", csv_rows)
        res = run(*args, record=fh, **kwargs)
    parts = [chunks[start] for start in sorted(chunks)]
    columns = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
    columns.setdefault("v", -columns["u"])
    return res, fh.getvalue(), columns
