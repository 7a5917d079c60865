"""The thread pool that `agentsearch run` sends value calls and tasks to."""

import threading
from collections import deque
from contextlib import AbstractContextManager


class ThreadPool(AbstractContextManager):
    """Up to size threads, named prefix_0, prefix_1, ..., each started only when
    a call finds none idle. Closing drops the calls not yet started, lets the
    running ones end and joins the threads; a with block closes the pool."""

    def __init__(self, size: int, prefix: str):
        self.size, self.prefix, self._threads, self._queued = size, prefix, [], deque()
        self._idle, self._closed, lock = 0, False, threading.Lock()
        self._ready, self._ended = threading.Condition(lock), threading.Condition(lock)

    def __exit__(self, *exc_info):
        self.close()

    def map(self, fn, *iterables) -> list:
        """As list(map(fn, *iterables)), but on the pool: the earliest call's
        exception, if any raises, only once every call has ended."""
        calls = list(zip(*iterables))
        out = [None] * len(calls)
        with self._ready:
            if self._closed:
                raise RuntimeError("the pool is closed")
            self._queued.extend((fn, args, out, i) for i, args in enumerate(calls))
            more = min(len(calls), len(self._queued) - self._idle, self.size - len(self._threads))
            for _ in range(more):
                name = f"{self.prefix}_{len(self._threads)}"
                self._threads.append(threading.Thread(target=self._work, name=name, daemon=True))
                self._threads[-1].start()
            self._ready.notify(len(calls))
            self._ended.wait_for(lambda: None not in out)
        for error, _ in out:
            if error is not None:
                raise error
        return [value for _, value in out]

    def close(self) -> None:
        with self._ready:
            self._closed = True
            for _, _, out, i in self._queued:
                out[i] = RuntimeError("the pool closed before the call started"), None
            self._queued.clear()
            self._ready.notify_all()
            self._ended.notify_all()
        for thread in self._threads:
            thread.join()

    def _work(self) -> None:
        while True:
            with self._ready:
                self._idle += 1
                self._ready.wait_for(lambda: self._queued or self._closed)
                self._idle -= 1
                if not self._queued:
                    return
                fn, args, out, i = self._queued.popleft()
            try:
                out[i] = None, fn(*args)
            except BaseException as exc:
                out[i] = exc, None
            with self._ended:
                self._ended.notify_all()
