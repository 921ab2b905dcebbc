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
  which clients first appear cannot change a result).  In a checkpointed
  run a clean entry keeps no state in memory after a committed save: it
  is read back from its checkpoint segment when next read
  (:meth:`FleetStateStore.spill`).

``fleet[cid]`` (participant access) builds a new :class:`Client` over the
stored state and persists it; ``fleet.observer(cid)`` builds one whose
freshly initialized state is dropped afterwards when the client has never
participated, so reading does not grow the store.  Nothing caches a
``Client``: every access builds one over the dataset's shard LRU (the one
cache, bounded by ``FleetConfig.shard_cache``) and the store's state dict,
so a rebuilt client carries the same state.  The server's fan-outs do not
come through here at all — they read ``peek_state`` and bind their
chunks' clients themselves (``repro.server.core._bind_clients``).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Set)

import numpy as np

from ..data.dataset import (FederatedDataset, LazyShardMap,
                            mapping_client_ids)
from ..systems.devices import DeviceFleet
from .client import Client

#: per-client state initializer installed by ``Strategy.setup``
StateInitializer = Callable[[Client], None]
#: reads a spilled client state back (installed by the checkpoint layer)
StateLoader = Callable[[int], Dict[str, Any]]

#: what a spilled entry holds in place of its state
_SPILLED = object()


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

    An entry need not be resident.  Once a checkpointed boundary is on
    disk, the checkpoint layer may **spill** every clean state outside the
    boundary's dirty set (:meth:`spill`), or adopt a resumed run's states
    unread (:meth:`adopt_spilled`): the entry then holds no state, and the
    next :meth:`get` / :meth:`touch` reads it back through the loader the
    checkpoint layer installed, into a fresh dict that stays resident
    until the next spill.  So the store holds a run's working set, not
    every state it ever touched, and imports nothing from the checkpoint
    layer.  The loader reads the run's checkpoint directory: once a later
    run there has pruned a segment, reading a state spilled into it raises
    the loader's error.

    The same write path guards the **evaluation memo**: the accuracy the
    server remembered for a client whose personalized model lives entirely
    in its state (:meth:`remember_accuracy`) is dropped by every write, so
    an evaluation sweep re-runs only the clients something has written to
    since.  The memo is never checkpointed: a resumed run starts without
    one and recomputes the same values.
    """

    def __init__(self) -> None:
        self.bind(None)

    def bind(self, initializer: Optional[StateInitializer]) -> None:
        """Install the initializer and reset to a fresh run's empty store."""
        self._initializer = initializer
        #: a state dict, or ``_SPILLED`` where the loader reads one back
        self._states: Dict[int, Any] = {}
        self._dirty: Set[int] = set()
        self._remembered: Dict[int, float] = {}
        self._loader: Optional[StateLoader] = None
        #: the ids made resident since the last spill: all a spill visits
        self._resident: Set[int] = set()
        #: the dirty set taken last, a boundary's working set
        self._working: Set[int] = set()

    def initialize(self, client: Client) -> None:
        """Run the bound initializer on a freshly built client."""
        if self._initializer is not None:
            self._initializer(client)

    def get(self, client_id: int) -> Optional[Dict[str, Any]]:
        """The stored state for *reading* (evaluation), or None."""
        state = self._states.get(client_id)
        if state is _SPILLED:
            state = self._states[client_id] = self._loader(client_id)
            self._resident.add(client_id)
        return state

    def touch(self, client_id: int) -> Optional[Dict[str, Any]]:
        """The stored state for *writing* (marks it dirty), or None."""
        state = self.get(client_id)
        if state is not None:
            self._dirty.add(client_id)
            self._remembered.pop(client_id, None)
        return state

    def adopt(self, client_id: int, state: Dict[str, Any]) -> None:
        """Persist a participating client's state dict (install or overwrite)."""
        self._states[client_id] = state
        self._resident.add(client_id)
        self._dirty.add(client_id)
        self._remembered.pop(client_id, None)

    def remembered_accuracy(self, client_id: int) -> Optional[float]:
        """The accuracy remembered since the client's last write, or None."""
        return self._remembered.get(client_id)

    def remember_accuracy(self, client_id: int, accuracy: float) -> None:
        """Remember an evaluation result until the client's next write.

        One caller only — ``ServerCore.evaluate_personalized``, and only
        for a stored state its strategy's ``evaluates_from_state`` vouches
        for (the result is a function of that state and nothing else),
        whether the sweep computed the accuracy or took it from the
        client's training chunk.
        """
        self._remembered[client_id] = accuracy

    def take_dirty(self) -> Set[int]:
        """The ids written since the last call; the set starts over.

        One consumer only — the checkpoint layer, once per round boundary
        (and once after a restore, to declare the store equal to the
        checkpoint it was loaded from).  The ids taken are the boundary's
        working set, which :meth:`spill` keeps resident.
        """
        self._working, self._dirty = self._dirty, set()
        return self._working

    # ------------------------------------------------------------- spilling
    def spill(self, loader: StateLoader) -> None:
        """Let go of the clean states; ``loader`` reads them back.

        Called by the checkpoint layer once a boundary is on disk, so every
        state outside that boundary's working set (the last
        :meth:`take_dirty`) has a blob ``loader`` can read.  Only the ids
        made resident since the previous spill are visited, never the whole
        store; the working set stays resident and is visited again next
        time.
        """
        self._loader = loader
        kept = self._resident & self._working
        for client_id in self._resident - kept:
            self._states[client_id] = _SPILLED
        self._resident = kept

    def adopt_spilled(self, client_ids: Iterable[int],
                      loader: StateLoader) -> None:
        """Install states unread: ``loader`` reads each back on first use.

        A resume's adoption, so nothing is marked dirty.
        """
        self._loader = loader
        for client_id in client_ids:
            self._states[client_id] = _SPILLED

    def unspill(self) -> None:
        """Read every spilled state back (before its loader goes away)."""
        for client_id in [client_id for client_id, state
                          in self._states.items() if state is _SPILLED]:
            self.get(client_id)

    def ids(self) -> List[int]:
        """Every stored id, sorted; reads nothing back."""
        return sorted(self._states)

    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """The ``{client_id: state}`` entries, id-sorted.

        The returned dict is a fresh container but shares the state dicts,
        spilled ones read back first.  The checkpoint layer does not use
        it: a boundary pickles only the dirty states (:meth:`ids`,
        :meth:`get`), so the sparse O(participants) shape — never
        O(fleet) — is preserved on disk and nothing spilled is read.
        """
        return {cid: self.get(cid) for cid in self.ids()}

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._states


class ClientFleet(MappingABC):
    """Lazy ``Mapping[int, Client]`` over a dataset + device fleet.

    ``fleet[cid]`` is *participant* access: the client's state is persisted
    in the sparse :class:`FleetStateStore` (initializing it first if the
    client was never seen).  ``observer(cid)`` is read-only access: a
    never-participating client gets a transient initial state that is
    dropped afterwards, keeping the store O(participants).
    ``values()``/``items()`` iterate with observer semantics.
    """

    def __init__(self, dataset: FederatedDataset, devices: DeviceFleet) -> None:
        if len(devices) != dataset.num_clients:
            raise ValueError(
                f"device fleet has {len(devices)} profiles but the dataset "
                f"has {dataset.num_clients} clients")
        self.dataset = dataset
        self.devices = devices
        self.state_store = FleetStateStore()
        self._ids: Optional[np.ndarray] = None

    # ----------------------------------------------------------- lifecycle
    def bind_state_initializer(self,
                               initializer: Optional[StateInitializer]) -> None:
        """Install a strategy's per-client state initializer (resets states).

        Called from ``Strategy.setup``; the initializer itself runs when
        this view builds a client that has no stored state (the server's
        fan-outs run ``init_client_state`` through their own binder).
        """
        self.state_store.bind(initializer)

    def drop_caches(self) -> None:
        """Forget the materialized shards (they rebuild on demand)."""
        if isinstance(self.dataset.clients, LazyShardMap):
            self.dataset.clients.clear()

    # ------------------------------------------------------------- access
    def client(self, client_id: int) -> Client:
        """Participant access: the client's state joins the sparse store.

        The caller may train on the client in place, so the id is marked
        dirty on every access, not only the first.
        """
        client = self.observer(client_id)
        self.state_store.adopt(client.client_id, client.state)
        return client

    def observer(self, client_id: int) -> Client:
        """Read-only access: a new client that never grows the store.

        A participant's stored state is used as-is; an untouched client
        gets a transient, freshly initialized state — identical in content
        to what participant access would persist (initialization is pure
        per client) and discarded after use.
        """
        self._check_id(client_id)
        client_id = int(client_id)  # numpy ids from client_ids arrays
        stored = self.state_store.get(client_id)
        client = Client(client_id, self.dataset.client(client_id),
                        self.devices[client_id],
                        state={} if stored is None else stored)
        if stored is None:
            self.state_store.initialize(client)
        return client

    def peek_state(self, client_id: int) -> Optional[Dict[str, Any]]:
        """A participant's stored state, or None — never materializes.

        The server's fan-outs ship this instead of building clients: a
        ``None`` state tells the binder to run the (pure per client) state
        initializer on the client it builds where the chunk runs, so on a
        broadcast backend the server touches no shard at all.
        """
        self._check_id(client_id)
        return self.state_store.get(client_id)

    def participant_state(self, client_id: int) -> Optional[Dict[str, Any]]:
        """A participant's stored state *for mutation*, or None.

        Like :meth:`peek_state` it never materializes a client, but the id
        is marked dirty: ``post_round`` hooks write bandit feedback and
        pattern bookkeeping through the returned dict.
        """
        self._check_id(client_id)
        return self.state_store.touch(client_id)

    def update_state(self, client_id: int, state: Dict[str, Any]) -> None:
        """Install the state a fan-out chunk handed back for a participant."""
        self._check_id(client_id)
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
    builds clients via :meth:`ClientFleet.observer`, so iterating is
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
