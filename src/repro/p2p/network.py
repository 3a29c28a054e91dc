"""The simulated wide-area network between gateways and servers.

Hosts register by name; :meth:`WANetwork.send` delivers a payload to the
destination's handler after a sampled one-way latency.  The latency model
defaults to PlanetLab-like per-pair lognormal distributions — the
substrate standing in for the paper's 5-node PlanetLab deployment.

Every send returns a :class:`SendReceipt` naming the verdict: queued for
delivery, lost to the sampled loss process, refused for lack of a route,
or blocked by an injected fault.  Drops are never silent — each kind has
its own counter, and an optional interceptor (the chaos engine's hook)
can drop, delay, duplicate, or corrupt any message in flight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.p2p.message import Envelope
from repro.sim.core import Simulator
from repro.sim.latency import LatencyModel, LogNormalLatency

__all__ = ["WANetwork", "Host", "SendReceipt", "FaultDecision",
           "estimate_wire_size"]


@dataclass
class Host:
    """A network endpoint: a name plus a message handler."""

    name: str
    handler: Callable[[Envelope], None]


@dataclass(frozen=True)
class SendReceipt:
    """The delivery verdict for one :meth:`WANetwork.send` call.

    ``status`` is one of:

    * ``"queued"`` — scheduled for delivery after a sampled latency (the
      destination may still be down by the time it arrives);
    * ``"lost"`` — consumed by the baseline sampled-loss process;
    * ``"no_route"`` — the destination name was never registered;
    * ``"blocked"`` — dropped by an injected fault (chaos engine).
    """

    envelope: Envelope
    status: str
    reason: str = ""

    @property
    def queued(self) -> bool:
        return self.status == "queued"


@dataclass(frozen=True)
class FaultDecision:
    """What an interceptor wants done with one in-flight message.

    The zero value (``FaultDecision()``) means "deliver normally".
    ``drop`` wins over everything else; otherwise ``extra_delay`` seconds
    are added to the sampled latency, ``duplicates`` extra copies are
    scheduled (each with its own latency sample), and a non-``None``
    ``replace_payload`` substitutes the payload (modeling corruption the
    receiver cannot parse).
    """

    drop: bool = False
    reason: str = ""
    extra_delay: float = 0.0
    duplicates: int = 0
    replace_payload: Any = None


# Interceptors may return None as shorthand for "no fault".
Interceptor = Callable[[Envelope], Optional[FaultDecision]]


def estimate_wire_size(payload: Any) -> int:
    """Rough TCP payload size of one wire message, in bytes.

    Chain data is sized by its actual serialization; inventory messages
    by 32 bytes per hash; everything else (the delivery handshake, sync
    and light-client messages) by a recursive field walk — bytes/str at
    face value, scalars at 8 bytes, containers by their summed elements,
    nested messages (sync's transaction batches, compact blocks'
    prefilled lists) by recursion — plus a small framing overhead.
    Every field type is counted: an unrecognized value contributes its
    conservative 8-byte default rather than silently sizing to zero.
    Feeds ``WANetwork.bytes_modeled``, the WAN-load measure of the
    federation-scaling and light-client benchmarks.
    """
    block = getattr(payload, "block", None)
    if block is not None:
        return 16 + block.serialized_size()
    transaction = getattr(payload, "transaction", None)
    if transaction is not None:
        return 16 + len(transaction.serialize())
    hashes = getattr(payload, "hashes", None)
    if hashes is not None:
        return 16 + 32 * len(hashes)
    return 16 + _field_size(payload, depth=0)


def _field_size(value: Any, depth: int) -> int:
    """Wire bytes of one message field, recursively."""
    if value is None:
        return 0
    if isinstance(value, (bytes, str)):
        return len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if depth >= 6:
        return 8  # pathological nesting; stop walking
    if isinstance(value, (tuple, list)):
        return sum(_field_size(item, depth + 1) for item in value)
    serialize = getattr(value, "serialize", None)
    if callable(serialize):
        # A nested chain object (transaction, header, block) knows its
        # own exact wire form.
        return len(serialize())
    fields = getattr(value, "__dict__", None)
    if fields is not None:
        return sum(_field_size(item, depth + 1) for item in fields.values())
    return 8


class WANetwork:
    """Latency-modeled message passing between named hosts."""

    def __init__(self, sim: Simulator, rng: random.Random,
                 latency: Optional[LatencyModel] = None,
                 loss_rate: float = 0.0) -> None:
        if not 0 <= loss_rate < 1:
            raise ConfigurationError(f"loss rate out of range: {loss_rate}")
        self.sim = sim
        self.rng = rng
        self.latency = latency or LogNormalLatency()
        self.loss_rate = loss_rate
        self._hosts: dict[str, Host] = {}
        self._down: set[str] = set()
        # Chaos hook: consulted once per send, after the baseline loss
        # sample, so injected faults compose with (rather than replace)
        # the WAN's own loss process.
        self.interceptor: Optional[Interceptor] = None
        # Observability hook: a scenario that traces swaps in its Tracer;
        # the default NULL_TRACER makes every span call a no-op.
        self.tracer: Tracer = NULL_TRACER
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0
        self.messages_duplicated = 0
        self.messages_corrupted = 0
        # Breakdown of messages_lost by cause; the sum of these four
        # always equals messages_lost.
        self.drops_sampled_loss = 0
        self.drops_unknown_destination = 0
        self.drops_offline = 0
        self.drops_injected = 0
        self.bytes_modeled = 0
        # Byte-accounting breakdowns for the WAN-economy analyses: per
        # destination host (a light device's ingress budget) and per
        # payload type (block relay vs everything else).  Both sum to
        # bytes_modeled.
        self.bytes_to: dict[str, int] = {}
        self.bytes_by_type: dict[str, int] = {}
        # The last payload object sized and its size: a relay fan-out
        # sends one (immutable) message object to every peer in turn, so
        # it is sized once, not once per peer.
        self._sized_payload: Any = _NOTHING
        self._sized_bytes = 0

    def register(self, name: str, handler: Callable[[Envelope], None]) -> Host:
        if name in self._hosts:
            raise ConfigurationError(f"duplicate host name: {name}")
        host = Host(name=name, handler=handler)
        self._hosts[name] = host
        self._down.discard(name)
        return host

    def unregister(self, name: str) -> None:
        self._hosts.pop(name, None)
        self._down.discard(name)

    def hosts(self) -> list[str]:
        return list(self._hosts)

    def is_registered(self, name: str) -> bool:
        return name in self._hosts

    # -- host liveness (crash/restart lifecycle) -------------------------------

    def set_host_down(self, name: str) -> None:
        """Stop delivering to ``name`` (host crashed but keeps its slot)."""
        if name in self._hosts:
            self._down.add(name)

    def set_host_up(self, name: str) -> None:
        """Resume deliveries to a previously-downed host."""
        self._down.discard(name)

    def is_host_up(self, name: str) -> bool:
        return name in self._hosts and name not in self._down

    # -- sending ---------------------------------------------------------------

    def send(self, source: str, destination: str, payload: Any,
             parent: Any = None) -> SendReceipt:
        """Queue ``payload`` for delivery; returns the delivery verdict.

        Nothing is dropped invisibly: an unknown destination, a sampled
        loss, and an injected fault each return a distinct verdict and
        bump a dedicated counter.  ``queued`` only promises the message
        entered the WAN — the destination can still crash before the
        latency elapses (counted as ``drops_offline`` at delivery time).

        With tracing on, every send opens a ``wan.transit`` span (under
        ``parent`` when given) that ends ``ok`` at handler dispatch or
        ``lost`` on whichever drop consumed it — so chaos-injected drops
        and delays are visible inside the span tree.
        """
        span = self.tracer.span("wan.transit", parent=parent,
                                source=source, destination=destination,
                                payload=type(payload).__name__)
        envelope = Envelope(source=source, destination=destination,
                            payload=payload, sent_at=self.sim.now,
                            trace=span if span else None)
        self.messages_sent += 1
        if payload is not self._sized_payload:
            self._sized_payload = payload
            self._sized_bytes = estimate_wire_size(payload)
        size = self._sized_bytes
        self.bytes_modeled += size
        self.bytes_to[destination] = self.bytes_to.get(destination, 0) + size
        type_name = type(payload).__name__
        self.bytes_by_type[type_name] = (
            self.bytes_by_type.get(type_name, 0) + size)
        if destination not in self._hosts:
            self.messages_lost += 1
            self.drops_unknown_destination += 1
            span.end("lost", reason="no_route")
            return SendReceipt(envelope, "no_route",
                               reason=f"unknown destination: {destination}")
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self.messages_lost += 1
            self.drops_sampled_loss += 1
            span.end("lost", reason="sampled loss")
            return SendReceipt(envelope, "lost", reason="sampled loss")

        decision = None
        if self.interceptor is not None:
            decision = self.interceptor(envelope)
        if decision is None:
            decision = _NO_FAULT
        if decision.drop:
            self.messages_lost += 1
            self.drops_injected += 1
            span.end("lost", reason=decision.reason or "injected drop")
            return SendReceipt(envelope, "blocked",
                               reason=decision.reason or "injected drop")
        if decision.replace_payload is not None:
            envelope = replace(envelope, payload=decision.replace_payload)
            self.messages_corrupted += 1
            span.annotate(corrupted=True)
        if decision.extra_delay > 0.0:
            span.annotate(extra_delay=decision.extra_delay)

        copies = 1 + max(0, decision.duplicates)
        self.messages_duplicated += copies - 1
        for _ in range(copies):
            delay = (self.latency.sample(source, destination, self.rng)
                     + decision.extra_delay)
            self.sim.call_in(delay, lambda env=envelope: self._deliver(env))
        return SendReceipt(envelope, "queued", reason=decision.reason)

    def _deliver(self, envelope: Envelope) -> None:
        host = self._hosts.get(envelope.destination)
        if host is None:
            self.messages_lost += 1
            self.drops_unknown_destination += 1
            if envelope.trace is not None:
                envelope.trace.end("lost", reason="unregistered")
            return
        if envelope.destination in self._down:
            self.messages_lost += 1
            self.drops_offline += 1
            if envelope.trace is not None:
                envelope.trace.end("lost", reason="host offline")
            return
        self.messages_delivered += 1
        # Duplicated copies share one span; the first outcome wins
        # (Span.end is idempotent), matching the receiver's dedup view.
        if envelope.trace is not None:
            envelope.trace.end("ok")
        host.handler(envelope)

    def broadcast(self, source: str, payload: Any,
                  exclude: tuple[str, ...] = (),
                  parent: Any = None) -> int:
        """Send ``payload`` to every other host; returns the send count."""
        count = 0
        for name in self._hosts:
            if name == source or name in exclude:
                continue
            self.send(source, name, payload, parent=parent)
            count += 1
        return count


_NO_FAULT = FaultDecision()
_NOTHING = object()
