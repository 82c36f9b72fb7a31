"""Packed-state kernel support: fixed-layout codecs, slab interning, and
table-driven canonicalisation.

Every verdict this reproduction produces bottoms out in the same loop:
fire rules, canonicalise, deduplicate.  The object layer pays Python
overhead on each step — ``Record`` field walks, ``state_key`` recursive
serialisation, orbit search over full object graphs.  This module moves
the *hot* half of that loop onto small integer vectors while leaving the
object layer authoritative for rule-firing semantics, traces, and
counterexample replay:

* A :class:`StateCodec` encodes each state into a fixed-layout tuple of
  small ints ("codes"), one slot per state location.  Slots come from the
  schemas the DSL carries (:mod:`repro.dsl.fields` — ``IdField`` /
  ``IdSetField`` rename hooks say exactly which slots are replica-indexed)
  or, for hand-written protocols, from a discovery spec over their field
  tables (:func:`repro.protocols.dirfamily.packed_spec`).  A system with
  neither gets a derived :class:`WholeStateCodec`: whole states interned
  in one slot, canonicalised by the system's own ``canonicalize``.  Every
  exploration therefore runs on this module.
* A :class:`PackedRuntime` interns encodings in a slab (encoding → dense
  index) and memoises, per interned state: the canonical orbit member,
  the enabled-rule set, rule-firing successors (a per-rule resolution
  trie, so synthesis candidates share work), invariant verdicts, coverage
  and deadlock classification.
* Canonicalisation is table-driven: per permutation, a precomputed
  index/value remap over the packed layout; the orbit minimum is a min
  over remapped code vectors with **no** object reconstruction.  Where
  the layout leads with a rename-free replica block under the full
  symmetric group, only the permutations that sort that block are
  tried (any other image is larger at its first unsorted position), and
  candidates are compared with the best so far one position at a time,
  so later slots' rename tables are consulted only on ties.

Exactness contract (pinned by ``tests/mc/test_packed_codec.py``): for
every mapping ``m``, ``remap(encode(s), m) == encode(permute(s, m))``.
The remap-minimum is therefore a true orbit canonical form, and
``decode`` of any interned encoding is a real state object — which is how
traces and counterexample replay stay exact under packing.

Thread note: one runtime is shared by all kernels of a system, so runs
from several threads may use it at once.  Interning and trie insertion
take a lock on their miss paths; all other memo writes are idempotent
(deterministic recomputation) and rely on GIL-atomic dict/list ops.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ModelError, WildcardEncountered
from repro.mc.hashing import combine_fingerprints, fingerprint_state

#: slab capacity: a hard cap so a runaway system fails loudly instead of
#: swallowing memory; catalog workloads intern a few thousand states
MAX_SLAB_ENTRIES = 1 << 20


# -- slots --------------------------------------------------------------------
#
# A slot owns one position of the packed layout: it interns values to
# small int codes and (when the position is rename-sensitive) provides a
# per-permutation code remap table.  Tables are indexable by code —
# eagerly materialised lists for schema-declared finite domains, lazily
# filled dicts for open domains — so the canonicalisation loop is the
# same ``table[code]`` either way.


class _LazyTable(dict):
    """code -> renamed code, computed on first use.

    Misses intern through the owning slot, so the table stays total over
    whatever values the protocol actually reaches.  Racing fills compute
    the same deterministic value, so no lock is needed.
    """

    __slots__ = ("_slot", "_mapping")

    def __init__(self, slot: "AtomSlot", mapping: Tuple[int, ...]) -> None:
        super().__init__()
        self._slot = slot
        self._mapping = mapping

    def __missing__(self, code: int) -> int:
        slot = self._slot
        renamed = slot._rename(slot.decode(code), self._mapping)
        new_code = slot.encode(renamed)
        self[code] = new_code
        return new_code


class AtomSlot:
    """Interns arbitrary hashable values; optionally rename-sensitive.

    With ``rename(value, mapping)`` supplied, remap tables are lazy
    per-mapping dicts; without it the position is rename-invariant and
    the remap table is ``None`` (identity).
    """

    __slots__ = ("_codes", "_values", "_rename", "_tables", "_lock")

    def __init__(self, rename: Optional[Callable[[Any, Tuple[int, ...]], Any]] = None) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        self._rename = rename
        self._tables: Dict[Tuple[int, ...], _LazyTable] = {}
        self._lock = threading.Lock()

    def encode(self, value: Any) -> int:
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self._values)
                    self._values.append(value)
                    self._codes[value] = code
        return code

    def decode(self, code: int) -> Any:
        return self._values[code]

    def table_for(self, mapping: Tuple[int, ...]) -> Optional[dict]:
        """The code remap table for one permutation (None = identity)."""
        if self._rename is None:
            return None
        table = self._tables.get(mapping)
        if table is None:
            with self._lock:
                table = self._tables.get(mapping)
                if table is None:
                    table = _LazyTable(self, mapping)
                    self._tables[mapping] = table
        return table


class IdSlot:
    """A process-id location with a schema-declared finite domain.

    Codes: ``0`` for the absent sentinel, ``v + 1`` for id ``v``.  The
    per-permutation tables are eager lists — the fully table-driven case
    the DSL's ``IdField.rename`` hook makes possible.
    """

    __slots__ = ("n", "sentinel", "allow_none", "_tables")

    def __init__(self, n: int, sentinel: Any = None, allow_none: bool = True) -> None:
        self.n = n
        self.sentinel = sentinel
        self.allow_none = allow_none
        self._tables: Dict[Tuple[int, ...], List[int]] = {}

    def encode(self, value: Any) -> int:
        if value == self.sentinel and self.allow_none:
            return 0
        if isinstance(value, int) and 0 <= value < self.n:
            return value + 1
        raise ModelError(
            f"packed IdSlot: {value!r} outside [0, {self.n}) "
            f"(sentinel {self.sentinel!r}); the state leaves its schema's "
            f"declared id domain"
        )

    def decode(self, code: int) -> Any:
        return self.sentinel if code == 0 else code - 1

    def table_for(self, mapping: Tuple[int, ...]) -> List[int]:
        table = self._tables.get(mapping)
        if table is None:
            table = [0] + [mapping[v] + 1 for v in range(self.n)]
            self._tables[mapping] = table
        return table


class IdSetSlot:
    """A set-of-process-ids location (``IdSetField``): frozenset -> bitmask.

    Tables are eager lists over all ``2**n`` masks; replica counts in this
    repo are tiny (guarded anyway).
    """

    __slots__ = ("n", "_tables")

    def __init__(self, n: int) -> None:
        if n > 16:
            raise ModelError("packed IdSetSlot supports at most 16 replicas")
        self.n = n
        self._tables: Dict[Tuple[int, ...], List[int]] = {}

    def encode(self, value: Any) -> int:
        mask = 0
        for member in value:
            if not isinstance(member, int) or not 0 <= member < self.n:
                raise ModelError(
                    f"packed IdSetSlot: member {member!r} outside [0, {self.n}); "
                    f"the state leaves its schema's declared id domain"
                )
            mask |= 1 << member
        return mask

    def decode(self, code: int) -> frozenset:
        return frozenset(v for v in range(self.n) if (code >> v) & 1)

    def table_for(self, mapping: Tuple[int, ...]) -> List[int]:
        table = self._tables.get(mapping)
        if table is None:
            table = []
            for mask in range(1 << self.n):
                remapped = 0
                for v in range(self.n):
                    if (mask >> v) & 1:
                        remapped |= 1 << mapping[v]
                table.append(remapped)
            self._tables[mapping] = table
        return table


# -- layout -------------------------------------------------------------------


class Scalar:
    """One layout position served by one slot."""

    __slots__ = ("slot",)

    def __init__(self, slot: Any) -> None:
        self.slot = slot


class Block:
    """``n`` replica positions sharing one slot.

    Under a permutation the *positions* permute (``new[mapping[old]] =
    old[old]``, the :meth:`ProcessArray.renamed` / MSI ``caches``
    convention); per-value renames, if any, come from the shared slot.
    """

    __slots__ = ("slot", "n")

    def __init__(self, slot: Any, n: int) -> None:
        self.slot = slot
        self.n = n


#: a remap plan: one ``(src, table)`` pair per destination position
#: (table None = copy verbatim)
Plan = Tuple[Tuple[int, Optional[Any]], ...]


def _renames(slot: Any) -> bool:
    """Whether a slot's codes change under a permutation."""
    if isinstance(slot, (IdSlot, IdSetSlot)):
        return True
    return getattr(slot, "_rename", None) is not None


def _invert(mapping: Tuple[int, ...]) -> Tuple[int, ...]:
    inverse = [0] * len(mapping)
    for old, new in enumerate(mapping):
        inverse[new] = old
    return tuple(inverse)


class StateCodec:
    """Fixed-layout encoder/decoder with table-driven canonicalisation.

    Args:
        layout: sequence of :class:`Scalar` / :class:`Block` entries.
        extract: ``state -> flat value tuple`` aligned with the layout's
            positions (blocks contribute ``n`` consecutive values).
        build: ``flat value tuple -> state`` (the inverse of extract).
        mappings: the permutation group (identity first) over which
            :meth:`canonical_codes` minimises; ``[identity]`` for systems
            without symmetry.
    """

    __slots__ = ("layout", "_extract", "_build", "mappings", "_slots", "_plans",
                 "_by_inverse", "_identity", "_block", "_tie_ranks", "width",
                 "images")

    def __init__(
        self,
        layout: Sequence[Any],
        extract: Callable[[Any], Tuple[Any, ...]],
        build: Callable[[Tuple[Any, ...]], Any],
        mappings: Sequence[Tuple[int, ...]],
    ) -> None:
        self.layout = tuple(layout)
        self._extract = extract
        self._build = build
        self.mappings = [tuple(m) for m in mappings]
        slots: List[Any] = []
        for entry in self.layout:
            if isinstance(entry, Block):
                slots.extend([entry.slot] * entry.n)
            else:
                slots.append(entry.slot)
        self._slots = tuple(slots)
        self.width = len(slots)
        #: per mapping, in group order: its remap plan
        self._plans: List[Plan] = []
        #: inverse mapping -> its plan (the inverse says which source
        #: replica lands at each block position)
        self._by_inverse: Dict[Tuple[int, ...], Plan] = {}
        identity = tuple((pos, None) for pos in range(self.width))
        self._identity = identity
        for mapping in self.mappings:
            inverse = _invert(mapping)
            if mapping == tuple(range(len(mapping))):
                plan = identity
            else:
                plan = self._plan(mapping, inverse)
            self._plans.append(plan)
            self._by_inverse[inverse] = plan
        #: width of the leading rename-free replica block when the group is
        #: every permutation of it (0 = minimise over every plan)
        self._block = 0
        first = self.layout[0] if self.layout else None
        if (
            isinstance(first, Block)
            and not _renames(first.slot)
            and all(len(m) == first.n for m in self.mappings)
            and len(self._by_inverse) == math.factorial(first.n)
        ):
            self._block = first.n
        #: tie pattern of the sorted block (``ties[i]``: rank ``i + 1`` equals
        #: rank ``i``) -> every rearrangement of ``range(block)`` that only
        #: permutes tied ranks (filled on first use; racing fills agree)
        self._tie_ranks: Dict[Tuple[bool, ...], List[Tuple[int, ...]]] = {}
        #: candidate images compared by :meth:`canonical_codes`; reported
        #: as ``pack_canon_images`` by :meth:`PackedRuntime.counters`
        self.images = 0

    def _plan(self, mapping: Tuple[int, ...], inverse: Tuple[int, ...]) -> Plan:
        plan: List[Tuple[int, Optional[Any]]] = []
        base = 0
        for entry in self.layout:
            if isinstance(entry, Block):
                table = None
                if _renames(entry.slot):
                    table = entry.slot.table_for(mapping)
                for j in range(entry.n):
                    plan.append((base + inverse[j], table))
                base += entry.n
            else:
                plan.append((base, entry.slot.table_for(mapping)))
                base += 1
        return tuple(plan)

    def encode(self, state: Any) -> Tuple[int, ...]:
        values = self._extract(state)
        return tuple(
            slot.encode(value) for slot, value in zip(self._slots, values)
        )

    def decode(self, codes: Tuple[int, ...]) -> Any:
        return self._build(
            tuple(slot.decode(code) for slot, code in zip(self._slots, codes))
        )

    def _image(self, codes: Tuple[int, ...], plan: Plan) -> Tuple[int, ...]:
        if plan is self._identity:
            return codes
        return tuple(
            codes[src] if table is None else table[codes[src]]
            for src, table in plan
        )

    def _sorting_plans(self, codes: Tuple[int, ...]) -> List[Plan]:
        """The plans whose image has the leading block sorted.

        One per rearrangement of equal replica codes among themselves:
        a single plan when the block's codes are distinct.
        """
        n = self._block
        order = sorted(range(n), key=codes.__getitem__)
        ties = tuple(codes[order[i]] == codes[order[i - 1]] for i in range(1, n))
        ranks = self._tie_ranks.get(ties)
        if ranks is None:
            groups: List[List[int]] = [[0]]
            for rank, tied in enumerate(ties, 1):
                if tied:
                    groups[-1].append(rank)
                else:
                    groups.append([rank])
            ranks = [
                tuple(itertools.chain.from_iterable(choice))
                for choice in itertools.product(*map(itertools.permutations, groups))
            ]
            self._tie_ranks[ties] = ranks
        by_inverse = self._by_inverse
        return [by_inverse[tuple([order[r] for r in rank])] for rank in ranks]

    def canonical_codes(self, codes: Tuple[int, ...]) -> Tuple[int, ...]:
        """The lexicographic minimum of the orbit, via remap plans only.

        With a leading rename-free replica block and the full symmetric
        group, only the plans that sort the block are candidates: every
        image rearranges the same block codes, so an unsorted block is
        larger at its first unsorted position.  Candidates then share the
        block prefix and are compared past it one position at a time,
        building a full image only for a new best.
        """
        start = self._block
        candidates = self._sorting_plans(codes) if start else self._plans
        self.images += len(candidates)
        best = self._image(codes, candidates[0])
        positions = range(start, self.width)
        for plan in candidates[1:]:
            for pos in positions:
                src, table = plan[pos]
                code = codes[src] if table is None else table[codes[src]]
                held = best[pos]
                if code != held:
                    if code < held:
                        best = self._image(codes, plan)
                    break
        return best

    def remap(self, codes: Tuple[int, ...], mapping: Tuple[int, ...]) -> Tuple[int, ...]:
        """One permutation's image of a code vector (identity included)."""
        mapping = tuple(mapping)
        plan = None
        if sorted(mapping) == list(range(len(mapping))):
            plan = self._by_inverse.get(_invert(mapping))
        if plan is None:
            raise ValueError(f"{mapping!r} is not in the codec's group")
        return self._image(codes, plan)


def identity_mappings(n: int) -> List[Tuple[int, ...]]:
    """The one-element trivial permutation group."""
    return [tuple(range(n))]


def permutation_mappings(n: int) -> List[Tuple[int, ...]]:
    """All permutations of ``range(n)``, identity first (sorted order)."""
    return sorted(itertools.permutations(range(n)))


class PackedSpec:
    """A system's packed-state capability: a codec plus a shared runtime.

    Built once per :class:`~repro.mc.system.TransitionSystem` by the DSL
    builder or a protocol module, or derived by the system itself around
    a :class:`WholeStateCodec` when it has none, so one slab serves every
    run of the system.
    """

    __slots__ = ("codec_factory", "_codec", "_runtime", "_lock")

    def __init__(self, codec_factory: Callable[[], StateCodec]) -> None:
        self.codec_factory = codec_factory
        self._codec: Optional[StateCodec] = None
        self._runtime: Optional["PackedRuntime"] = None
        self._lock = threading.Lock()

    @property
    def codec(self) -> StateCodec:
        if self._codec is None:
            with self._lock:
                if self._codec is None:
                    self._codec = self.codec_factory()
        return self._codec

    def runtime(self, system: Any) -> "PackedRuntime":
        """The shared runtime (lazily built against ``system``'s rules)."""
        if self._runtime is None:
            codec = self.codec  # resolve outside the lock (it locks too)
            with self._lock:
                if self._runtime is None:
                    self._runtime = PackedRuntime(codec, system)
        return self._runtime


# -- firing-memo trie ---------------------------------------------------------


class _TrieNode:
    """An interior memo node: look up ``hole``'s digit, follow its edge.

    ``edges`` maps a digit (the resolver's memo edge key, normally an
    action index) to the next node.  ``space``/``position`` cache the
    hole's position in the last position space that walked the node; a
    walk under another space (a dist worker's registry numbers holes in
    its own discovery order) rebinds them.  A node whose digit is
    ``None`` under the walking resolver is a wildcard cut; a digit with
    no edge sends the caller to a real firing.
    """

    __slots__ = ("hole", "space", "position", "edges")

    def __init__(self, hole: Any, space: Any, position: int) -> None:
        self.hole = hole
        self.space = space
        self.position = position
        self.edges: Dict[Any, Any] = {}


class _TrieLeaf:
    """A terminal memo node: the firing's successor slab ids (with
    multiplicity, in generation order)."""

    __slots__ = ("ids",)

    def __init__(self, ids: Tuple[int, ...]) -> None:
        self.ids = ids


class PackedRuntime:
    """Slab interner plus per-state memos for one transition system.

    All memos are keyed by the *raw* interned id — never by the canonical
    one — because rule firing, traces, and replay must see the exact state
    the exploration reached, not an orbit-equivalent substitute.  The one
    exception is the fingerprint memo, which :meth:`fingerprint_set` fills
    for the canonical ids a visited set holds.
    """

    __slots__ = (
        "codec", "_rules", "_invariants", "_coverage", "_deadlock",
        "_canonicalize", "_index", "_codes", "_states", "_canon",
        "_enabled", "_inv", "_cov", "_dead", "_fp", "_fire", "_lock",
        "_stride",
        "states_interned", "canon_scans", "fire_memo_hits",
        "fire_memo_misses", "decode_calls",
    )

    def __init__(self, codec: StateCodec, system: Any) -> None:
        self.codec = codec
        self._rules = tuple(system.rules)
        self._invariants = tuple(system.invariants)
        self._coverage = tuple(system.coverage)
        self._deadlock = system.deadlock
        self._canonicalize = system.canonicalize
        self._stride = len(self._rules)
        self._index: Dict[Tuple[int, ...], int] = {}
        self._codes: List[Tuple[int, ...]] = []
        self._states: List[Any] = []
        self._canon: List[int] = []
        self._enabled: List[Optional[Tuple[int, ...]]] = []
        self._inv: List[Any] = []
        self._cov: List[Optional[frozenset]] = []
        self._dead: List[Optional[bool]] = []
        self._fp: List[Optional[int]] = []
        self._fire: Dict[int, Any] = {}
        self._lock = threading.Lock()
        self.states_interned = 0
        self.canon_scans = 0
        self.fire_memo_hits = 0
        self.fire_memo_misses = 0
        self.decode_calls = 0

    # -- interning ----------------------------------------------------------

    def _append(self, codes: Tuple[int, ...], state: Any) -> int:
        # caller holds the lock
        rid = len(self._codes)
        if rid >= MAX_SLAB_ENTRIES:
            raise ModelError(
                f"packed slab overflow: more than MAX_SLAB_ENTRIES="
                f"{MAX_SLAB_ENTRIES} distinct states interned; bound the "
                f"exploration with --max-states"
            )
        self._codes.append(codes)
        self._states.append(state)
        self._canon.append(-1)
        self._enabled.append(None)
        self._inv.append(None)
        self._cov.append(None)
        self._dead.append(None)
        self._fp.append(None)
        self._index[codes] = rid
        self.states_interned += 1
        return rid

    def intern(self, state: Any) -> int:
        """Encode and intern a state object; returns its slab id."""
        codes = self.codec.encode(state)
        rid = self._index.get(codes)
        if rid is None:
            with self._lock:
                rid = self._index.get(codes)
                if rid is None:
                    rid = self._append(codes, state)
        return rid

    def _intern_codes(self, codes: Tuple[int, ...]) -> int:
        rid = self._index.get(codes)
        if rid is None:
            with self._lock:
                rid = self._index.get(codes)
                if rid is None:
                    rid = self._append(codes, None)
        return rid

    def state_of(self, rid: int) -> Any:
        """The state object for a slab id (decoded lazily, then cached)."""
        state = self._states[rid]
        if state is None:
            state = self.codec.decode(self._codes[rid])
            self._states[rid] = state
            self.decode_calls += 1
        return state

    def codes_of(self, rid: int) -> Tuple[int, ...]:
        return self._codes[rid]

    def __len__(self) -> int:
        return len(self._codes)

    # -- memoised classification -------------------------------------------

    def canon_id(self, rid: int) -> int:
        """Slab id of the orbit representative (table-driven minimum)."""
        cid = self._canon[rid]
        if cid < 0:
            codes = self._codes[rid]
            canon_codes = self.codec.canonical_codes(codes)
            self.canon_scans += 1
            cid = rid if canon_codes == codes else self._intern_codes(canon_codes)
            self._canon[rid] = cid
        return cid

    def enabled_rules(self, rid: int) -> Tuple[int, ...]:
        """Indices of the rules enabled at a state, in ascending order."""
        indices = self._enabled[rid]
        if indices is None:
            state = self.state_of(rid)
            indices = tuple([
                index for index, rule in enumerate(self._rules)
                if rule.guard(state)
            ])
            self._enabled[rid] = indices
        return indices

    def invariant_violation(self, rid: int) -> Optional[str]:
        """Name of the first violated invariant, or None (memoised)."""
        verdict = self._inv[rid]
        if verdict is None:
            verdict = True
            state = self.state_of(rid)
            for invariant in self._invariants:
                if not invariant.holds(state):
                    verdict = invariant.name
                    break
            self._inv[rid] = verdict
        return None if verdict is True else verdict

    def coverage_names(self, rid: int) -> frozenset:
        """Names of every coverage property this state satisfies."""
        names = self._cov[rid]
        if names is None:
            state = self.state_of(rid)
            names = frozenset(
                prop.name for prop in self._coverage if prop.satisfied_by(state)
            )
            self._cov[rid] = names
        return names

    def is_deadlock(self, rid: int) -> bool:
        verdict = self._dead[rid]
        if verdict is None:
            verdict = self._deadlock.is_deadlock(self.state_of(rid))
            self._dead[rid] = verdict
        return verdict

    def fingerprint_set(self, cids: Iterable[int]) -> int:
        """Behaviour fingerprint of a visited set of canonical slab ids.

        A canonical id's representative is the packed-layout minimum, a
        different (orbit-equivalent) member than the object
        canonicaliser's, so each is decoded and re-canonicalised through
        the system's ``canonicalize`` — an orbit function — before
        hashing.  The per-id values are memoised and combined exactly as
        :func:`~repro.mc.hashing.fingerprint_state_set` combines them, so
        the result is bit-identical to fingerprinting the object
        representatives directly.
        """
        fps = self._fp
        values = []
        for cid in cids:
            value = fps[cid]
            if value is None:
                value = fingerprint_state(self._canonicalize(self.state_of(cid)))
                fps[cid] = value
            values.append(value)
        return combine_fingerprints(values)

    # -- firing memo --------------------------------------------------------

    def fire(self, rid: int, rule_index: int, ctx: Any) -> Optional[Tuple[int, ...]]:
        """Successor slab ids of firing one rule, or ``None`` for a wildcard cut.

        The memo is a per-``(state, rule)`` trie over hole resolutions.
        A hit walks it on positions: each interior node reads the
        resolver's digit at its hole's position and follows that edge,
        leaving the same side effects on ``ctx`` as a real firing (the
        firing's executed-position mask, the run mask, the wildcard
        flags), because handler resolution order is deterministic.
        Leaves hold successor ids.  A digit with no edge (an unseen
        branch, or an index the hole's domain does not have) falls
        through to a real ``rule.fire``, whose resolution path is recorded
        and inserted; a wildcard cut there is caught and returned as
        ``None`` too, so no cut leaves this method as an exception.
        """
        key = rid * self._stride + rule_index
        node = self._fire.get(key)
        if node is not None:
            resolver = ctx.resolver
            space = resolver.space
            digits = resolver.digits
            width = len(digits)
            mask = 0
            while node.__class__ is _TrieNode:
                if node.space is not space:
                    node.position = resolver.position_of(node.hole)
                    node.space = space
                    width = len(digits)
                position = node.position
                digit = digits[position] if position < width else resolver.beyond
                if digit is None:
                    self.fire_memo_hits += 1
                    ctx.firing_executed = mask
                    ctx.run_executed |= mask
                    ctx.firing_hit_wildcard = True
                    ctx.run_wildcard_encountered = True
                    return None
                node = node.edges.get(digit)
                if node is None:
                    break
                mask |= 1 << position
            else:
                self.fire_memo_hits += 1
                ctx.firing_executed = mask
                ctx.run_executed |= mask
                ctx.firing_hit_wildcard = False
                return node.ids
        self.fire_memo_misses += 1
        rule = self._rules[rule_index]
        state = self.state_of(rid)
        ctx.begin_firing()
        ctx.begin_recording()
        try:
            successors = rule.fire(state, ctx)
        except WildcardEncountered:
            self._insert(key, ctx.end_recording(), None, ctx.resolver.space)
            return None
        path = ctx.end_recording()
        ids = tuple(self.intern(successor) for successor in successors)
        self._insert(key, path, ids, ctx.resolver.space)
        return ids

    def _insert(self, key: int, path: List[Tuple[Any, int, Any]],
                ids: Optional[Tuple[int, ...]], space: Any) -> None:
        wildcard = bool(path) and path[-1][2] is None
        steps = path[:-1] if wildcard else path
        with self._lock:
            container: Any = self._fire
            edge: Any = key
            for hole, position, digit in steps:
                node = container.get(edge)
                if node is None:
                    node = _TrieNode(hole, space, position)
                    container[edge] = node
                elif node.__class__ is not _TrieNode or node.hole is not hole:
                    raise ModelError(
                        "packed firing memo: non-deterministic hole "
                        f"resolution at rule memo for hole {hole!r}"
                    )
                container, edge = node.edges, digit
            existing = container.get(edge)
            if wildcard:
                hole, position, _ = path[-1]
                if existing is None:
                    container[edge] = _TrieNode(hole, space, position)
                elif existing.__class__ is not _TrieNode or existing.hole is not hole:
                    raise ModelError(
                        "packed firing memo: non-deterministic wildcard "
                        f"position for hole {hole!r}"
                    )
            elif existing is None:
                container[edge] = _TrieLeaf(ids)
            elif existing.__class__ is not _TrieLeaf or existing.ids != ids:
                raise ModelError(
                    "packed firing memo: non-deterministic successors for "
                    "an identical (state, rule, resolution) path"
                )

    # -- diagnostics --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Current counter values (pack_* metric sources)."""
        return {
            "pack_states_interned": self.states_interned,
            "pack_canon_scans": self.canon_scans,
            "pack_canon_images": self.codec.images,
            "pack_fire_memo_hits": self.fire_memo_hits,
            "pack_fire_memo_misses": self.fire_memo_misses,
            "pack_decode_calls": self.decode_calls,
        }


# -- codec discovery helpers --------------------------------------------------


def codec_from_schema(
    schema: Any,
    n_procs: int,
    net_rename: Optional[Callable[[Any, Tuple[int, ...]], Any]] = None,
    symmetry: bool = True,
) -> StateCodec:
    """Compile a DSL global-state :class:`~repro.dsl.fields.Schema` into a
    codec for ``(ProcessArray, Record, UnorderedNetwork)`` states.

    ``IdField``/``IdSetField`` become eager-table slots (their ``rename``
    hooks are exactly the replica-indexed positions); every other field is
    a rename-invariant atom.  Locals are a position-permuted block; the
    network is an interned atom renamed via ``net_rename``.
    """
    from repro.dsl.fields import IdField, IdSetField
    from repro.dsl.process import ProcessArray
    from repro.mc.state import Record

    field_names = tuple(sorted(schema.fields))
    field_slots: List[Any] = []
    for name in field_names:
        field = schema.fields[name]
        if isinstance(field, IdField):
            field_slots.append(
                IdSlot(
                    field.n_procs,
                    sentinel=field.sentinel,
                    allow_none=field.allow_none,
                )
            )
        elif isinstance(field, IdSetField):
            field_slots.append(IdSetSlot(field.n_procs))
        else:
            field_slots.append(AtomSlot())
    if net_rename is None:
        net_rename = lambda net, mapping: net.renamed(mapping)

    layout = (
        [Block(AtomSlot(), n_procs)]
        + [Scalar(slot) for slot in field_slots]
        + [Scalar(AtomSlot(rename=net_rename))]
    )

    def extract(state: Any) -> Tuple[Any, ...]:
        procs, glob, net = state
        return tuple(procs) + tuple(
            getattr(glob, name) for name in field_names
        ) + (net,)

    def build(values: Tuple[Any, ...]) -> Any:
        procs = ProcessArray(values[:n_procs])
        glob = Record(**dict(zip(field_names, values[n_procs:n_procs + len(field_names)])))
        net = values[n_procs + len(field_names)]
        return (procs, glob, net)

    mappings = (
        permutation_mappings(n_procs)
        if symmetry and n_procs > 1
        else identity_mappings(n_procs)
    )
    return StateCodec(layout, extract, build, mappings)


def codec_for_opaque_global(
    n_procs: int,
    global_rename: Optional[Callable[[Any, Tuple[int, ...]], Any]],
    net_rename: Optional[Callable[[Any, Tuple[int, ...]], Any]] = None,
    symmetry: bool = True,
) -> StateCodec:
    """Codec for DSL states whose global component has no schema.

    The global value is one interned atom (lazily renamed per mapping);
    still exact, just without per-field tables.
    """
    from repro.dsl.process import ProcessArray

    if net_rename is None:
        net_rename = lambda net, mapping: net.renamed(mapping)
    glob_slot = AtomSlot(rename=global_rename) if global_rename else AtomSlot()
    layout = [Block(AtomSlot(), n_procs), Scalar(glob_slot),
              Scalar(AtomSlot(rename=net_rename))]

    def extract(state: Any) -> Tuple[Any, ...]:
        procs, glob, net = state
        return tuple(procs) + (glob, net)

    def build(values: Tuple[Any, ...]) -> Any:
        return (ProcessArray(values[:n_procs]), values[n_procs], values[n_procs + 1])

    mappings = (
        permutation_mappings(n_procs)
        if symmetry and n_procs > 1
        else identity_mappings(n_procs)
    )
    return StateCodec(layout, extract, build, mappings)


class WholeStateCodec(StateCodec):
    """The codec derived for a system built without a ``packed_spec``.

    One atom slot interns whole states and the group is the identity, so
    the canonical step cannot be a remap: it is the system's own
    ``canonicalize`` applied to the decoded state.  The runtime memoises
    it per slab id, so each distinct raw state is canonicalised once per
    system.  Exact by construction: the slab dedups exactly what
    ``canonicalize`` merges.
    """

    __slots__ = ("_canonicalize", "_slot")

    def __init__(self, canonicalize: Callable[[Any], Any]) -> None:
        slot = AtomSlot()
        super().__init__(
            [Scalar(slot)],
            lambda state: (state,),
            lambda values: values[0],
            identity_mappings(1),
        )
        self._canonicalize = canonicalize
        self._slot = slot

    def encode(self, state: Any) -> Tuple[int, ...]:
        return (self._slot.encode(state),)

    def canonical_codes(self, codes: Tuple[int, ...]) -> Tuple[int, ...]:
        self.images += 1
        slot = self._slot
        return (slot.encode(self._canonicalize(slot.decode(codes[0]))),)
