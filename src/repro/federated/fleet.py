"""The client fleet: O(cohort) materialization of clients.

A round only ever touches ``clients_per_round`` clients, so the server holds
no ``Dict[int, Client]`` of live objects.  A :class:`ClientFleet` is the one
view every federation — virtual or hand-built — is served through:

* **shards** come from the dataset's client mapping — a plain dict for a
  hand-built federation, or a :class:`~repro.data.dataset.LazyShardMap`
  whose builder is a pure function of ``(seed, client_id)`` for a virtual
  one;
* **device profiles** come from the device fleet, likewise a sampled
  :class:`~repro.systems.devices.DeviceFleet` or a
  :class:`~repro.systems.devices.VirtualDeviceFleet`;
* **per-client state** lives in a sparse :class:`FleetStateStore` that only
  holds entries for clients that have ever participated; strategies
  initialize a client's state through their ``init_client_state`` hook the
  first time the client is materialized (pure per client, so the order in
  which clients first appear cannot change a result).

``fleet[cid]`` (participant access) materializes a :class:`Client` facade
and persists its state; ``fleet.observer(cid)`` materializes a facade with
a *transient* initial state when the client has never participated, so
evaluation sweeps do not grow the store.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

import numpy as np

from ..data.dataset import FederatedDataset, mapping_client_ids
from ..util import BoundedLRU
from ..systems.devices import DeviceFleet
from .client import Client

#: per-client state initializer installed by ``Strategy.setup``
StateInitializer = Callable[[Client], None]

#: default facade-cache bound (matches ``FleetConfig.shard_cache``'s default)
DEFAULT_FACADE_CACHE = 256


class FleetStateStore:
    """Sparse per-client strategy state: entries only for participants.

    The store maps ``client_id -> state dict`` for every client that has
    ever been dispatched.  Because every strategy's per-client state
    initialization is a pure function of the client (seeded by its id), a
    freshly initialized state is indistinguishable from one initialized at
    setup time — which is what lets the fleet skip the O(num_clients)
    initialization sweep entirely.

    The store also keeps the **dirty set**: the ids whose state may have
    changed since the checkpoint layer last asked (:meth:`take_dirty`).
    Every way a participant's state can be written goes through
    :meth:`adopt` or :meth:`touch`; read-only access (:meth:`get`) does
    not, which is what keeps a round-boundary checkpoint O(cohort).

    The same write path guards the **evaluation memo**: the accuracy the
    server remembered for a client whose personalized model lives entirely
    in its state (:meth:`remember_accuracy`) is dropped by every write, so
    an evaluation sweep re-runs only the clients something has written to
    since.  The memo is never checkpointed: a resumed run starts without
    one and recomputes the same values.
    """

    def __init__(self) -> None:
        self._states: Dict[int, Dict[str, Any]] = {}
        self._initializer: Optional[StateInitializer] = None
        self._dirty: Set[int] = set()
        self._remembered: Dict[int, float] = {}

    def bind(self, initializer: Optional[StateInitializer]) -> None:
        """Install the initializer and reset to a fresh run's empty store."""
        self._initializer = initializer
        self._states = {}
        self._dirty = set()
        self._remembered = {}

    def initialize(self, client: Client) -> None:
        """Run the bound initializer on a freshly materialized facade."""
        if self._initializer is not None:
            self._initializer(client)

    def get(self, client_id: int) -> Optional[Dict[str, Any]]:
        """The stored state for *reading* (evaluation), or None."""
        return self._states.get(client_id)

    def touch(self, client_id: int) -> Optional[Dict[str, Any]]:
        """The stored state for *writing* (marks it dirty), or None."""
        state = self._states.get(client_id)
        if state is not None:
            self._dirty.add(client_id)
            self._remembered.pop(client_id, None)
        return state

    def adopt(self, client_id: int, state: Dict[str, Any]) -> None:
        """Persist a participating client's state dict (install or overwrite)."""
        self._states[client_id] = state
        self._dirty.add(client_id)
        self._remembered.pop(client_id, None)

    def remembered_accuracy(self, client_id: int) -> Optional[float]:
        """The accuracy remembered since the client's last write, or None."""
        return self._remembered.get(client_id)

    def remember_accuracy(self, client_id: int, accuracy: float) -> None:
        """Remember an evaluation result until the client's next write.

        One caller only — ``ServerCore.evaluate_personalized``, and only
        for a stored state its strategy's ``evaluates_from_state`` vouches
        for (the result is a function of that state and nothing else).
        """
        self._remembered[client_id] = accuracy

    def take_dirty(self) -> Set[int]:
        """The ids written since the last call; the set starts over.

        One consumer only — the checkpoint layer, once per round boundary
        (and once after a restore, to declare the store equal to the
        checkpoint it was loaded from).
        """
        dirty, self._dirty = self._dirty, set()
        return dirty

    @property
    def known_ids(self) -> List[int]:
        """Ids with a persisted state (i.e. clients that participated)."""
        return sorted(self._states)

    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """The ``{client_id: state}`` entries, id-sorted (checkpointing).

        The returned dict is a fresh container but shares the state dicts;
        the checkpoint layer pickles the dirty ones at the boundary, so the
        sparse O(participants) shape — never O(fleet) — is preserved on
        disk.
        """
        return {cid: self._states[cid] for cid in sorted(self._states)}

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._states


class ClientFleet(MappingABC):
    """Lazy ``Mapping[int, Client]`` over a dataset + device fleet.

    ``fleet[cid]`` is *participant* access: the facade's state is persisted
    in the sparse :class:`FleetStateStore` (initializing it first if the
    client was never seen).  ``observer(cid)`` is read-only access for
    evaluation: a never-participating client gets a transient initial state
    that is dropped afterwards, keeping the store O(participants).
    ``values()``/``items()`` iterate with observer semantics.
    """

    def __init__(self, dataset: FederatedDataset, devices: DeviceFleet, *,
                 cache_size: int = DEFAULT_FACADE_CACHE) -> None:
        if len(devices) != dataset.num_clients:
            raise ValueError(
                f"device fleet has {len(devices)} profiles but the dataset "
                f"has {dataset.num_clients} clients")
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.dataset = dataset
        self.devices = devices
        # each cached facade pins its materialized ClientData alongside
        # the dataset's own shard LRU, so both layers share one configured
        # bound (ServerCore resizes the shard map to match); worst-case
        # resident shards are 2x that bound, typically ~1x (shared ids).
        self.cache_size = cache_size
        self.state_store = FleetStateStore()
        self._facades = BoundedLRU(cache_size)
        self._ids: Optional[np.ndarray] = None
        self.facade_builds = 0

    # ----------------------------------------------------------- lifecycle
    def bind_state_initializer(self,
                               initializer: Optional[StateInitializer]) -> None:
        """Install a strategy's per-client state initializer (resets states).

        Called from ``Strategy.setup``; the initializer itself runs on a
        client's first materialization.
        """
        self.state_store.bind(initializer)
        # drop cached facades along with the store: a facade built for the
        # previous binding carries that run's state dict, and re-adopting
        # it would leak trained state into the fresh run
        self._facades.clear()

    # ------------------------------------------------------------- access
    def _build_facade(self, client_id: int,
                      state: Dict[str, Any]) -> Client:
        self.facade_builds += 1
        client_id = int(client_id)  # numpy ids from client_ids arrays
        return Client(client_id, self.dataset.client(client_id),
                      self.devices[client_id], state=state)

    def _facade(self, client_id: int, *, transient: bool = False) -> Client:
        """The cached facade, building (and state-initializing) on demand.

        ``transient=True`` (observer access to a never-participating
        client) returns an *uncached* facade: its freshly initialized state
        really is dropped afterwards, so an evaluation path that mutated
        state could never leak into a later participation through the
        facade cache.
        """
        facade = self._facades.get(client_id)
        if facade is not None:
            return facade
        stored = self.state_store.get(client_id)
        facade = self._build_facade(client_id,
                                    {} if stored is None else stored)
        if stored is None:
            self.state_store.initialize(facade)
            if transient:
                return facade
        self._facades.put(client_id, facade)
        return facade

    def client(self, client_id: int) -> Client:
        """Participant access: the facade's state joins the sparse store.

        The caller may train on the facade in place, so the id is marked
        dirty on every access, not only the first.
        """
        self._check_id(client_id)
        facade = self._facade(client_id)
        self.state_store.adopt(client_id, facade.state)
        return facade

    def observer(self, client_id: int) -> Client:
        """Evaluation access: never grows the state store.

        A participant's stored state is used as-is; an untouched client
        gets a transient, freshly initialized, never-cached state —
        identical in content to what participant access would persist
        (initialization is pure per client) and genuinely discarded after
        use.
        """
        self._check_id(client_id)
        return self._facade(client_id, transient=True)

    def peek_state(self, client_id: int) -> Optional[Dict[str, Any]]:
        """A participant's stored state, or None — never materializes.

        The broadcast evaluation path uses this instead of building
        facades: ``None`` tells the worker to run the (pure per client)
        state initializer on its own locally-built facade, so the server
        touches no shard at all for evaluation fan-out.
        """
        self._check_id(client_id)
        return self.state_store.get(client_id)

    def participant_state(self, client_id: int) -> Optional[Dict[str, Any]]:
        """A participant's stored state *for mutation*, or None.

        Like :meth:`peek_state` it never materializes a facade, but the id
        is marked dirty: ``post_round`` hooks write bandit feedback and
        pattern bookkeeping through the returned dict.
        """
        self._check_id(client_id)
        return self.state_store.touch(client_id)

    def update_state(self, client_id: int, state: Dict[str, Any]) -> None:
        """Install the state a worker shipped back for a participant."""
        self._check_id(client_id)
        facade = self._facades.get(client_id)
        if facade is not None:
            facade.state = state
        self.state_store.adopt(client_id, state)

    def _check_id(self, client_id: int) -> None:
        if client_id not in self.dataset.clients:
            raise KeyError(f"no client with id {client_id}")

    # ------------------------------------------------------------- mapping
    def __getitem__(self, client_id: int) -> Client:
        return self.client(client_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self.client_ids)

    def __len__(self) -> int:
        return self.dataset.num_clients

    def __contains__(self, client_id: object) -> bool:
        return client_id in self.dataset.clients

    def values(self):
        return _ObserverView(self, with_ids=False)

    def items(self):
        return _ObserverView(self, with_ids=True)

    @property
    def client_ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = mapping_client_ids(self.dataset.clients)
        return self._ids


class _ObserverView:
    """Re-iterable ``values()``/``items()`` view with observer semantics.

    Mapping views must survive repeated iteration (a one-shot generator
    silently yields nothing the second time); each pass lazily
    materializes facades via :meth:`ClientFleet.observer`, so iterating is
    an O(num_clients) sweep but holding the view costs nothing.
    """

    def __init__(self, fleet: "ClientFleet", *, with_ids: bool) -> None:
        self._fleet = fleet
        self._with_ids = with_ids

    def __iter__(self):
        for cid in self._fleet.client_ids:
            client = self._fleet.observer(cid)
            yield (cid, client) if self._with_ids else client

    def __len__(self) -> int:
        return len(self._fleet)


def bind_client_state_initializer(clients, initializer: StateInitializer
                                  ) -> None:
    """Route a strategy's per-client initializer to whatever holds clients.

    ``Strategy.setup`` calls this with ``context.clients``: a
    :class:`ClientFleet` binds it (per-client work is deferred to first
    materialization), while a plain ``{cid: Client}`` dict — the shape
    hand-rolled unit tests build — has every client initialized on the
    spot.
    """
    binder = getattr(clients, "bind_state_initializer", None)
    if binder is not None:
        binder(initializer)
        return
    for client in clients.values():
        initializer(client)
