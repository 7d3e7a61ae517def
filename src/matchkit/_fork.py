"""Forked helper processes that run a share of a caller's jobs beside the
main process.

`helpers(work, jobs, caller)` forks `min(usable cores, jobs) - 1` helper
processes.  It forks none where the platform lacks `fork` or
`sched_getaffinity`, while another thread runs (fork copies only the calling
thread), or in a daemonic process such as a Pool worker.  Helpers inherit
`work` and everything it refers to, so a request sends a helper only the
arguments that change between requests and its share of the items.  The
items are dealt round-robin in the caller's order, the main process first.
The main process runs its own share, then gathers the results in item
order, so the result does not depend on the helper count as long as
`work(*args, share)` gives each item the result it gives that item in any
other share.  An item that fails is returned, not raised, and the earliest
item's error is raised, as a serial loop would raise it.  If a pipe or a
fork fails (say, out of descriptors or processes), no more helpers are
started and the caller goes on with those already running, or in-process
with none.  Every helper is joined when the `with` block ends, and killed
first if it raises.

Only the standard library is used, and `multiprocessing` is imported when
the first helper is forked: the import alone takes 3-5 ms.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading


def _helper_count(jobs: int) -> int:
    """Helper processes for `jobs` items: one per usable core past the
    first, and no more than items past the first.  None without `fork` or
    `sched_getaffinity`, or while another thread runs: fork copies only the
    calling thread, so a lock another thread holds would never be released
    in the helper."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 0
    return min(len(os.sched_getaffinity(0)), jobs) - 1


def _run_share(work, args, share) -> list:
    """`work(*args, share)`: each item's result or error, or the error
    `work` raised in every item's place."""
    try:
        return work(*args, share)
    except Exception as exc:  # the caller raises the earliest item's error
        return [exc] * len(share)


def _serve(conn, inherited, work) -> None:
    """A helper's loop: run the share each request names and send back the
    results, until the main process closes its end of the pipe."""
    import signal  # here, not at module level, like multiprocessing

    # The main process's ends of this and earlier pipes came along with the
    # fork; closing them lets a helper see EOF when the main process exits.
    for end in inherited:
        end.close()
    # Ctrl-C reaches the whole process group; the main process ends helpers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        while True:
            args, share = conn.recv()
            conn.send(_run_share(work, args, share))
    except (EOFError, ConnectionError):  # the main process has closed its end
        return


def _start_helpers(helpers: list, work, jobs: int) -> None:
    """Fork up to `_helper_count(jobs)` helpers, appending each (process, pipe end)."""
    count = _helper_count(jobs)
    if not count:
        return
    import multiprocessing  # here, not at module level: the import alone takes 3-5 ms

    if multiprocessing.current_process().daemon:  # e.g. a Pool worker: no children allowed
        return
    context = multiprocessing.get_context("fork")
    for _ in range(count):
        # Out of descriptors or processes: run with the helpers started so far.
        try:
            ours, theirs = context.Pipe()
        except OSError:
            return
        inherited = [conn for _, conn in helpers] + [ours]
        process = context.Process(target=_serve, args=(theirs, inherited, work))
        try:
            process.start()
        except OSError:
            ours.close()
            return
        finally:
            theirs.close()
        helpers.append((process, ours))


def _stop_helpers(helpers: list, finished: bool) -> None:
    """Join every helper.  A finished run's helpers are idle and exit when
    their pipe closes; otherwise a helper may still be computing or blocked
    sending, so it is killed first."""
    for process, conn in helpers:
        if not finished:
            process.terminate()
        conn.close()
        process.join()


def _run_batch(helpers, work, caller: str, args: tuple, items: list) -> list:
    """Every item's result, in item order, with the helpers running their
    shares beside the main process's; raises the error of the earliest item
    that failed."""
    workers = len(helpers) + 1
    shares = [items[w::workers] for w in range(workers)]
    try:
        for (_, conn), share in zip(helpers, shares[1:]):
            conn.send((args, share))
        results = [_run_share(work, args, shares[0])]
        results += [conn.recv() for _, conn in helpers]
    except (EOFError, ConnectionError):
        raise ChildProcessError(f"a {caller} helper process ended unexpectedly") from None
    ordered = [None] * len(items)
    for w, share_results in enumerate(results):
        ordered[w::workers] = share_results
    for result in ordered:
        if isinstance(result, Exception):
            raise result
    return ordered


@contextlib.contextmanager
def helpers(work, jobs: int, caller: str):
    """Fork helpers for `jobs` items per batch and yield `run(args, items)`,
    which gives `work(*args, share)`'s result for every item, in item order.

    `caller` names the helpers in the error raised when one ends
    unexpectedly, e.g. "meta-training".
    """
    started = []
    finished = False
    try:
        _start_helpers(started, work, jobs)
        yield functools.partial(_run_batch, started, work, caller)
        finished = True
    finally:
        _stop_helpers(started, finished)
