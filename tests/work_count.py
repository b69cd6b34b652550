"""Opcode counts of the package's step loops: a work ledger that a noisy
host cannot blur.

A count runs under ``sys.settrace`` with ``f_trace_opcodes`` on, and only
in frames whose code comes from a file whose name starts with the given
prefix: ``"<gridfreq rk4 "`` for the generated RK4 loops, or a module's
``__file__``. An opcode is not a unit of time: a C call such as
``array.append`` or ``%.6f`` formatting counts as one. Counts differ by
Python version, so a pinned table is keyed by ``sys.version_info[:2]``.
"""

import sys
import warnings
from functools import partial


def opcodes(run, prefix):
    """Opcodes that ``run()`` executes in frames from ``prefix`` files."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        n += 1

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(previous)
    return n


def step_work(run, n, prefix):
    """Opcodes of steps n + 1 to 2n, where ``run(k)`` runs k steps: a run
    of 2n steps counted less one of n. Also whether a second run of n
    steps counts the same as the first. One uncounted run of n steps goes
    first, because the first call in a process counts a few more."""
    run(n)
    short, long, again = (opcodes(partial(run, k), prefix)
                          for k in (n, 2 * n, n))
    return long - short, short == again


def pinned(table, tables):
    """This Python version's entry of ``tables``. A version without one
    gets ``table`` itself, after a warning that prints it, so that the
    entry can be added."""
    version = sys.version_info[:2]
    if version not in tables:
        warnings.warn(f"no opcode table for Python {version}: {table}")
    return tables.get(version, table)
