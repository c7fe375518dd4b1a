"""An event loop whose clock jumps instead of waiting.

Whenever the loop would block until its next timer, the clock is moved
to that timer instead, so ``asyncio.sleep(5)``, a 10-second hold or a
partition timeout cost nothing and a run is a pure function of its
seed.  Only for code that does no real I/O and starts no thread (the
in-memory dispatcher over ``LoopbackTransport``): with nothing
scheduled and nothing readable the loop has deadlocked, and says so.
"""

import asyncio


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        super().__init__()
        self._virtual_now = 0.0
        real_select = self._selector.select

        def select(timeout=None):
            events = real_select(0)
            if events or timeout == 0:
                return events
            if timeout is None:
                raise RuntimeError("virtual time: nothing left to wait for")
            self._virtual_now += timeout
            return []

        self._selector.select = select

    def time(self):
        return self._virtual_now


def run_virtual(coro):
    """Run *coro* to completion on a fresh virtual-time loop."""
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()
