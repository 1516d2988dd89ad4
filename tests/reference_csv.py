"""The series CSV reader and writer as they stood before the vectorized
ones: the csv module and one ``int``/``float``/``format`` call per cell.
Tests run both readers on the same input and require the same series or the
same rejection, and both writers on the same series and require the same
bytes.  The reference reader also applies ``data.SPEED_CEILING_MPH``."""

import csv

import numpy as np

from mesocast.data import CSV_HEADER, NUM_SEGMENTS, SPEED_CEILING_MPH, Series


def read_csv_reference(source) -> Series:
    own = not hasattr(source, "read")
    stream = open(source, "r", encoding="utf-8", newline="") if own else source
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: missing header") from None
        if header != CSV_HEADER:
            raise ValueError(f"line 1: bad header {header[:3]}..., expected {CSV_HEADER[:3]}...")
        minutes, rows = [], []
        previous = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1 + NUM_SEGMENTS:
                raise ValueError(f"line {lineno}: expected {1 + NUM_SEGMENTS} columns, got {len(row)}")
            if any(cell.strip() == "" for cell in row):
                raise ValueError(f"line {lineno}: blank cell")
            try:
                minute = int(row[0])
                speeds = [float(cell) for cell in row[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable value") from None
            if previous is not None and minute <= previous:
                raise ValueError(f"line {lineno}: minute {minute} not increasing")
            previous = minute
            minutes.append(minute)
            rows.append(speeds)
    finally:
        if own:
            stream.close()
    speeds = np.array(rows, dtype=np.float64).reshape(len(rows), NUM_SEGMENTS)
    bad = ~np.isfinite(speeds) | (speeds < 0.0) | (speeds > SPEED_CEILING_MPH)
    if bad.any():
        row, seg = np.argwhere(bad)[0]
        raise ValueError(f"line {row + 2}: speed {float(speeds[row, seg])} at seg{seg:02d} "
                         f"is not a finite non-negative number up to {SPEED_CEILING_MPH:g} mph")
    return Series(minutes=np.array(minutes, dtype=np.int64), speeds=speeds)


def write_csv_reference(series: Series, destination) -> None:
    own = not hasattr(destination, "write")
    stream = open(destination, "w", encoding="utf-8", newline="") if own else destination
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for minute, row in zip(series.minutes, series.speeds):
            writer.writerow([int(minute)] + [format(v, ".12g") for v in row])
    finally:
        if own:
            stream.close()
