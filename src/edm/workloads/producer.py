"""Per-epoch traffic as an iterator, drawn inline or ahead by a forked producer.

:func:`traffic` yields each epoch's float64 ``(counts, writes)`` in epoch
order.  A trace's draws never read cluster state, so when the process can
spare a second CPU a forked producer runs the trace's one draw routine
(:meth:`~edm.workloads.base.SyntheticTrace.draw`) ahead of the engine into
an anonymous shared ``mmap`` ring, and the engine's wait for an epoch is
usually one pipe read.  After the fork the child owns the trace's
``Generator`` and the parent never draws from it again, so the same draws
come out in the same order and every metric is bit-identical to drawing
inline.

Flow control is two pipes.  ``full`` carries one byte per filled slot from
the producer, or ``!`` and an error message.  ``free`` carries credits back:
the producer starts owning every slot and reads credits in bulk, and the
parent returns freed slots in batches of half the ring, capped at the
credits the producer still needs.  The producer overwrites only slots the
parent has freed, and the parent holds back fewer freed slots than the ring
has, so neither side can wait on the other forever.  Closing the iterator
closes the parent's pipe ends; the producer then exits on EOF or EPIPE and
the parent reaps it.

The producer moves off the CPU the engine last ran on.  Left to the
scheduler on a 2-vCPU VM, the forked child shared its parent's CPU for
seconds at a time and composed ran no faster than drawing inline.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import threading
from typing import Iterator

import numpy as np

from edm.obs.log import get_logger
from edm.workloads.base import SyntheticTrace

log = get_logger("workloads")

#: Ring budget.  On degraded-ec (200 KiB slots) a 16-slot ring raised peak
#: RSS 5.7% over drawing inline (46.3 vs 43.8 MB).  Measurements here are
#: from a 2-vCPU VM.
RING_BYTES = 1 << 20
#: Slots per ring at most.  composed (20 KiB slots) ran the same at 4 and 16
#: slots (0.34 s median each), so more would only grow small runs' rings.
MAX_DEPTH = 16
#: Slots per ring at least, so slots of at most 128 KiB (8192 chunks).
#: Below 4 the parent returns credits one slot at a time and the producer
#: wakes every epoch: composed then ran 0.45 s median, against 0.34 s at 4
#: slots and 0.54 s drawing inline.  Epochs with bigger slots are mostly
#: draw: degraded-ec (12,800 chunks, 5 slots) spends 64% of an inline run
#: drawing, so with a producer the run went at the pace of the producer's
#: CPU, not the engine's.  On a shared host that pace moved with the other
#: tenants' load, and its rate spread 1.9 M req/ref-s between benchmark runs
#: (interquartile, 10 runs) against 0.3 M drawing inline.
MIN_DEPTH = 8
#: Least work worth a fork, in chunk-epochs.  A fork and reap cost about
#: 4 ms and a draw 0.14 us per chunk-epoch, so this much drawing (~150 ms)
#: repays the fork many times over.  Forking for every run took the test
#: suite from 41 s to 50 s.
MIN_CHUNK_EPOCHS = 1 << 20

# Parent ends of every live producer's pipes, process-wide like the fds
# themselves.  A producer forked while another is live (two runs stepped in
# one process) closes its inherited copies, so the earlier producer still
# sees EOF when its iterator is closed instead of waiting forever.
_PARENT_FDS: set[int] = set()


def slot_bytes(num_chunks: int) -> int:
    """Bytes of one ring slot: one epoch's float64 counts and writes."""
    return 2 * 8 * num_chunks


def ring_depth(num_chunks: int) -> int:
    """Slots in a producer's ring for ``num_chunks``-chunk epochs."""
    return min(MAX_DEPTH, RING_BYTES // slot_bytes(num_chunks))


def inline_reason(num_chunks: int, epochs: int) -> str | None:
    """Why this process should draw ``epochs`` epochs inline, or None to fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return "no os.fork or os.sched_getaffinity"
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return f"{cpus} CPU in the affinity mask"
    if multiprocessing.parent_process() is not None:
        return "a multiprocessing child, whose pool fills every CPU"
    if threading.active_count() != 1:
        return f"{threading.active_count()} threads alive, so forking is unsafe"
    depth = ring_depth(num_chunks)
    if depth < MIN_DEPTH:
        return f"{depth} ring slots of {slot_bytes(num_chunks)} bytes, under {MIN_DEPTH}"
    if epochs * num_chunks < MIN_CHUNK_EPOCHS:
        return f"{epochs * num_chunks} chunk-epochs, under {MIN_CHUNK_EPOCHS}"
    return None


def traffic(trace: SyntheticTrace, epochs: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Epochs ``0 .. epochs-1`` of ``trace`` as float64 ``(counts, writes)``.

    The arrays are reused: a consumer must finish with an epoch's arrays
    before it asks for the next.  Close the iterator when done with it (a
    producer is reaped then); after it, ``trace`` must not draw again.
    """
    n = trace.cfg.num_chunks
    why = inline_reason(n, epochs)
    if why is None:
        return _produced(trace, epochs, ring_depth(n))
    log.debug("traffic drawn inline: %s", why)
    return (trace.epoch_counts(epoch) for epoch in range(epochs))


def _produced(trace: SyntheticTrace, epochs: int, depth: int):
    n = trace.cfg.num_chunks
    ring = mmap.mmap(-1, depth * slot_bytes(n))  # shared with the child
    slots = np.frombuffer(ring, dtype=np.float64).reshape(depth, 2, n)
    fds = full_r, full_w, free_r, free_w = (*os.pipe(), *os.pipe())
    cpu = _current_cpu()
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        _producer(trace, epochs, slots, free_r, full_w, (full_r, free_w), cpu)
    os.close(full_w)
    os.close(free_r)
    _PARENT_FDS.update((full_r, free_w))
    log.debug("traffic producer pid %d, ring %d x %d bytes", pid, depth, slot_bytes(n))
    owed = max(0, epochs - depth)  # credits the producer still needs
    batch = depth // 2
    freed = ready = 0
    failure = None
    try:
        for epoch in range(epochs):
            if epoch and owed:
                freed += 1
                if freed >= min(batch, owed):
                    give = min(freed, owed)
                    try:
                        os.write(free_w, bytes(give))
                    except BrokenPipeError:
                        give = owed  # the producer is gone; the read below says why
                    owed -= give
                    freed -= give
            while not ready:
                if failure is not None:
                    raise RuntimeError(f"traffic producer failed at epoch {epoch}: {failure}")
                data = os.read(full_r, 4096)
                if not data:
                    raise RuntimeError(f"traffic producer exited before epoch {epoch}")
                done, bang, message = data.partition(b"!")
                ready += len(done)
                if bang:
                    while chunk := os.read(full_r, 4096):
                        message += chunk
                    failure = message.decode(errors="replace")
            ready -= 1
            slot = slots[epoch % depth]
            yield slot[0], slot[1]
    finally:
        _PARENT_FDS.difference_update((full_r, free_w))
        os.close(free_w)
        os.close(full_r)
        with contextlib.suppress(ChildProcessError):  # reaped already (SIGCHLD ignored)
            os.waitpid(pid, 0)


def _current_cpu() -> int | None:
    """The CPU this process last ran on, or None where ``/proc`` cannot tell."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _producer(trace, epochs, slots, free_r, full_w, parent_fds, parent_cpu) -> None:
    """The forked child: fill ring slots in epoch order, then ``os._exit``."""
    status = 0
    try:
        for fd in (*parent_fds, *_PARENT_FDS):
            os.close(fd)
        others = os.sched_getaffinity(0) - {parent_cpu}
        if others:
            os.sched_setaffinity(0, others)
        depth = len(slots)
        credits = depth
        for epoch in range(epochs):
            if not credits:
                credits = len(os.read(free_r, depth))
                if not credits:
                    break  # the parent closed the run early
            slot = slots[epoch % depth]
            trace.draw(epoch, slot[0], slot[1])
            os.write(full_w, b".")
            credits -= 1
    except BrokenPipeError:
        pass  # the parent closed the run early
    except BaseException as exc:  # never unwind into the parent's stack
        status = 1
        try:
            os.write(full_w, b"!" + f"{type(exc).__name__}: {exc}".encode()[:4000])
        except OSError:
            pass
    finally:
        os._exit(status)
