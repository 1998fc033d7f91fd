"""The yardstick E0 reads the machine's speed off, repetition by repetition.

The reference box is a shared host: for minutes at a time the same program
runs 1.5x slower there (README, *Repeatability*), and no statistic over one
invocation's repetitions can tell that from a slower program.  So every
repetition is preceded by one run of :func:`kernel` — a fixed piece of
work of the kind the requester programs do (building and indexing records,
JSON, hashing, sorting, an in-memory sqlite table), written against the
standard library only, so that nothing under ``src/`` can change it — and
the invocation's times are reported in *reference seconds*:

    reported = fastest measured x REFERENCE_S / fastest kernel run

A change to the program moves only the numerator; a slow spell of the
machine moves both.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sqlite3
from time import perf_counter

#: What :func:`kernel` takes on the quiet reference box.  Frozen: it only
#: fixes the unit, so that reference seconds read as that box's seconds.
REFERENCE_S = 0.095
RECORDS = 9000


def kernel() -> float:
    """Do the fixed work once; return the seconds it took.

    The collector is off meanwhile: its passes walk whatever the program
    under test left on the heap, which is not the machine's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _work()
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def _work() -> None:
    records = [
        {"key": f"k{i}", "object": {"url": f"http://images/{i}.jpg", "n": i, "tags": [i, i + 1, i + 2]}}
        for i in range(RECORDS)
    ]
    decoded = json.loads(json.dumps(records, sort_keys=True))
    digest = hashlib.sha256()
    index = {}
    for record in decoded:
        digest.update(record["key"].encode("utf-8"))
        index[record["key"]] = record
    order = sorted(index, key=lambda key: index[key]["object"]["n"] * 7919 % 6007)
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE records (key TEXT PRIMARY KEY, value TEXT)")
        connection.executemany(
            "INSERT INTO records VALUES (?, ?)", [(key, json.dumps(index[key])) for key in order]
        )
        stored = connection.execute("SELECT COUNT(*) FROM records").fetchone()[0]
    finally:
        connection.close()
    if stored != RECORDS or len(digest.hexdigest()) != 64:
        raise AssertionError("calibration kernel lost records")
