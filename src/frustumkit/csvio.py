"""The one CSV format: every table the tool writes goes through this module.

A record's header and its rows both come from its dataclass fields. Every
value follows one rule (:func:`csv_value`): a bool is ``1`` or ``0``, a string
is written as is, NaN is an empty field, and any other number is
``format(v, ".12g")``, which reads as ``str()`` for an int below 10**12.
One writer, :func:`write_csv`, joins and quotes every table by the csv
module's rule; its lines end in ``\\r\\n`` unless the caller names ``\\n``.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import Field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .outfile import open_output


@functools.cache
def _record_fields(record_type: type) -> tuple[Field, ...]:
    # a dataclass's fields, read once per class; manifest's JSON records use them too
    return fields(record_type)


def csv_header(record_type: type) -> str:
    """The comma-joined field names of a dataclass."""
    return ",".join(f.name for f in _record_fields(record_type))


def csv_value(v: object) -> str:
    # floats, Python or numpy, are most values, so they skip the other tests
    if not isinstance(v, float):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
    if v != v:  # NaN: evaluate's mean over a category with no matched pair
        return ""
    return format(v, ".12g")


def csv_values(record: object) -> list[str]:
    """A dataclass record's fields, in order, through :func:`csv_value`."""
    return [csv_value(getattr(record, f.name)) for f in _record_fields(type(record))]


def csv_line(record: object) -> str:
    return ",".join(csv_values(record))


def write_csv(path: str | Path, header: str, rows: Iterable[Iterable[object]], line_end: str = "\r\n") -> None:
    """A UTF-8 table in the csv module's default dialect, each line ending in ``line_end``; rows go as given."""
    with open_output(path, "w") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header.split(","))
        writer.writerows(rows)
