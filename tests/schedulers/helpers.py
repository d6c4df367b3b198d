"""Shared helpers for scheduler unit tests."""

from __future__ import annotations

from repro.kvstore.items import OpKind, Operation, Request


def make_op(
    demand: float = 1.0,
    key: str = "k",
    server_id: int = 0,
    request_id: int = 0,
    arrival: float = 0.0,
    tag: dict | None = None,
) -> Operation:
    """A standalone operation with its own single-op request."""
    request = Request(request_id=request_id, client_id=0, arrival_time=arrival)
    op = Operation(
        request=request,
        key=key,
        kind=OpKind.GET,
        value_size=int(demand * 1e6),
        server_id=server_id,
        demand=demand,
    )
    request.operations.append(op)
    request.total_demand = demand
    request.total_bytes = op.value_size
    if tag:
        op.tag.update(tag)
    return op


def make_multiget(slices, request_id: int = 0, arrival: float = 0.0) -> Request:
    """A request with one op per (server_id, demand) slice."""
    request = Request(request_id=request_id, client_id=0, arrival_time=arrival)
    for i, (server_id, demand) in enumerate(slices):
        request.operations.append(
            Operation(
                request=request,
                key=f"r{request_id}-k{i}",
                kind=OpKind.GET,
                value_size=int(demand * 1e6),
                server_id=server_id,
                demand=demand,
                index=i,
            )
        )
        request.total_demand += demand
        request.total_bytes += int(demand * 1e6)
    return request


def drain(queue, now: float = 0.0) -> list:
    """Pop everything and return the operations in service order."""
    out = []
    while len(queue):
        out.append(queue.pop(now))
    return out
