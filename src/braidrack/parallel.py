"""A degree's grade blocks reduced in forked processes.

``nichols.GradedEngine._run_blocks`` imports this module only for a degree
that forks.  The blocks are cut into contiguous runs balanced by candidate
count.  The parent reduces the first run itself, and one forked child
reduces each other run and sends its results back through a pipe, one
pickle per block.  The parent merges every block in discovery order with
the engine's own ``_merge_block``, the same merge as in-process, so the
degree does not depend on where a block ran.  A child inherits the engine
by fork, so only results are pickled; the engine forks only while the
process runs one thread.

A child's failure is a program fault, never a mathematical answer: the
parent raises :class:`BlockProcessError`, after killing any child that
still runs and reaping every child, so no child outlives the degree.
"""
from __future__ import annotations

import itertools
import os
import signal

# CPython's C pickler alone: pickle.py's Python classes would add about
# 136 KB to the parent's peak memory
import _pickle as pickle


class BlockProcessError(RuntimeError):
    """A forked grade-block process failed or died.  The message carries the
    child's traceback, or the exit status it died with."""


def run_blocks(engine, n, blocks, parts):
    """Reduce and merge degree n's blocks in ``parts`` processes; the extras,
    in discovery order."""
    cut = runs([len(keys) for _, keys in blocks], parts)
    children = []
    try:
        for run in cut[1:]:
            children.append(_Child(engine, n, blocks, run))
        extras = [engine._merge_block(n, blocks[k][0], engine._reduce_block(n, *blocks[k]))
                  for k in cut[0]]
        for child in children:
            extras += [engine._merge_block(n, blocks[k][0], child.receive()) for k in child.run]
    finally:
        for child in children:
            child.reap()
    return extras


def runs(sizes, parts):
    """range(len(sizes)) cut into ``parts`` contiguous nonempty runs of
    near-equal total size."""
    prefix = list(itertools.accumulate(sizes, initial=0))
    cuts = [0]
    for p in range(1, parts):
        low, high = cuts[-1] + 1, len(sizes) - parts + p
        cuts.append(min(range(low, high + 1), key=lambda i: abs(prefix[i] * parts - prefix[-1] * p)))
    cuts.append(len(sizes))
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


class _Child:
    """A forked process that reduces one run of a degree's grade blocks.

    It reduces its whole run first, so it never waits on the pipe while the
    parent is still busy, and then writes one pickle per block.  It catches
    everything: if anything raises, it writes the traceback in place of the
    rest.  It always leaves by ``os._exit``, so none of the parent's cleanup
    runs in it.
    """

    def __init__(self, engine, n, blocks, run):
        self.run = run
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(r)
                with open(w, "wb") as out:
                    try:
                        frames = [pickle.dumps((True, engine._reduce_block(n, *blocks[k])), -1)
                                  for k in run]
                    except BaseException:
                        import traceback

                        frames = [pickle.dumps((False, traceback.format_exc()))]
                    for frame in frames:
                        out.write(frame)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.reader = open(r, "rb")

    def receive(self):
        """The next block's result, or BlockProcessError if the child failed."""
        try:
            ok, payload = pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            # the child died before it wrote a whole pickle
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            how = "was killed by signal %d" % -status if status < 0 else "exited with code %d" % status
            raise BlockProcessError("a grade-block process %s before sending its blocks" % how) from None
        if not ok:
            raise BlockProcessError("a grade block raised in a forked process:\n" + payload)
        return payload

    def reap(self):
        """Close the pipe and wait for the child, killing it if it still runs."""
        self.reader.close()
        if self.pid is not None:
            if os.waitpid(self.pid, os.WNOHANG)[0] == 0:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None
