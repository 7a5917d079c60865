"""The thread pool behind `agentsearch run`'s value calls and --workers tasks."""

import threading
import time

import pytest

from agentsearch.pool import ThreadPool


def pool_threads(prefix) -> list:
    return sorted(t.name for t in threading.enumerate() if t.name.startswith(prefix + "_"))


class InFlight:
    """Counts the calls in flight and the most at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = self.peak = self.ended = 0

    def call(self, seconds, error=None):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        time.sleep(seconds)
        with self._lock:
            self.now -= 1
            self.ended += 1
        if error is not None:
            raise error
        return seconds


def test_pool_threads_start_on_demand_and_never_exceed_its_size():
    before = threading.active_count()
    calls = InFlight()
    with ThreadPool(4, "lazy") as pool:
        assert threading.active_count() == before and pool_threads("lazy") == []
        assert pool.map(sum, [[1, 2]]) == [3]
        assert pool.map(sum, [[3]]) == [3]  # the idle thread takes it
        assert pool_threads("lazy") == ["lazy_0"]
        other = threading.Thread(target=pool.map, args=(calls.call, [0.2, 0.2]))
        other.start()
        for _ in range(2000):
            if calls.now == 2:
                break
            time.sleep(0.001)
        assert pool.map(calls.call, [0.05, 0.05]) == [0.05, 0.05]  # two more threads
        other.join()
        assert calls.peak == 4
        assert pool.map(calls.call, [0.01] * 12) == [0.01] * 12
        assert calls.peak == 4
        assert pool_threads("lazy") == ["lazy_0", "lazy_1", "lazy_2", "lazy_3"]
    assert threading.active_count() == before


def test_pool_names_its_threads_and_gives_results_in_item_order():
    with ThreadPool(4, "named") as pool:
        names = pool.map(lambda seconds: time.sleep(seconds) or threading.current_thread().name,
                         [0.03, 0.02, 0.01, 0.0] * 3)
        assert pool.map(lambda i: time.sleep(0.01 * (5 - i)) or i, range(5)) == [0, 1, 2, 3, 4]
    assert len(names) == 12 and set(names) <= {"named_0", "named_1", "named_2", "named_3"}


def test_pool_map_raises_the_earliest_items_error_after_every_call_ended():
    calls = InFlight()
    items = [(0.03, None), (0.02, ValueError("item 1")), (0.05, None), (0.0, KeyError("item 3"))]
    with ThreadPool(4, "map") as pool, pytest.raises(ValueError, match="item 1"):
        try:
            pool.map(lambda item: calls.call(*item), items)
        finally:
            assert calls.now == 0 and calls.ended == 4


def test_pool_close_drops_queued_calls_and_joins_its_threads():
    """The first call runs until the pool is closed; the three queued behind
    it on the pool's one thread never start, and their map raises."""
    before = threading.active_count()
    pool = ThreadPool(1, "closing")
    ran, raised, running = [], [], threading.Event()

    def call(i):
        while i == 0:
            running.set()
            try:
                pool.map(str, [])  # raises once the pool is closed
            except RuntimeError:
                break
            time.sleep(0.001)
        ran.append(i)

    def mapper():
        try:
            pool.map(call, range(4))
        except RuntimeError as exc:
            raised.append(str(exc))

    caller = threading.Thread(target=mapper)
    caller.start()
    assert running.wait(5)
    pool.close()
    caller.join(5)
    assert ran == [0] and raised == ["the pool closed before the call started"]
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="closed"):
        pool.map(sum, [[1]])
    pool.close()
