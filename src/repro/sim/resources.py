"""A shared counted resource for processes.

:class:`Resource` mirrors SimPy's counted semaphore: the MA/MC drive's
data channel, which only one head may drive at a time, is one.
"""

from __future__ import annotations

from typing import List

from repro.sim.engine import Environment, Event

__all__ = ["Release", "Request", "Resource"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager so that ``with resource.request() as req``
    releases the slot automatically.
    """

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Release(Event):
    """Immediate-succeed event returned by :meth:`Resource.release`."""

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.request = request
        if request in resource._users:
            resource._users.remove(request)
            resource._trigger()
        elif request in resource._queue:
            request.cancel()
        self.succeed()


class Resource:
    """A counted resource with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: List[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue(self) -> List[Request]:
        """Requests waiting for a slot (read-only view)."""
        return list(self._queue)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        return Release(self, request)

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.pop(0)
            self._users.append(req)
            req.succeed(req)
