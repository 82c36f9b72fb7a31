"""Assembly of the MSI transition system for N caches.

Rules are generated from the controller tables: one rule per (cache index,
table entry) for the cache controller, one per (sender index, table entry)
for the directory.  Rule order is deterministic (it fixes hole discovery
order).  Symmetry reduction canonicalises over all cache-index permutations.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.mc.properties import DeadlockPolicy
from repro.mc.rule import Rule
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.system import TransitionSystem
from repro.protocols.msi import defs
from repro.protocols.msi.cache import (
    CACHE_TABLE_ORDER,
    EVICT,
    EVICTION_CACHE_COMPLETIONS,
    EVICTION_TABLE_ORDER,
    LOAD,
    REFERENCE_CACHE_COMPLETIONS,
    STORE,
    reference_cache_table,
)
from repro.protocols.msi.directory import (
    DIR_TABLE_ORDER,
    EVICTION_DIR_TABLE_ORDER,
    REFERENCE_DIR_COMPLETIONS,
    reference_dir_table,
)
from repro.protocols.msi.properties import msi_coverage, msi_invariants, msi_quiescent

Handler = Callable[[defs.View, int, object], None]
Table = Dict[Tuple[int, str], Handler]

_SPONTANEOUS = frozenset({LOAD, STORE, EVICT})


def _cache_rule(c: int, state_code: int, event: str, handler: Handler) -> Rule:
    state_name = defs.CACHE_STATE_NAMES[state_code]
    if event in _SPONTANEOUS:
        def guard(state, _c=c, _code=state_code):
            return state[0][_c] == _code
    else:
        def guard(state, _c=c, _code=state_code, _ev=event):
            return state[0][_c] == _code and (_ev, _c) in state[6]

    def apply(state, ctx, _c=c, _ev=event, _handler=handler):
        view = defs.View(state)
        if _ev not in _SPONTANEOUS:
            view.consume(_ev, _c)
        _handler(view, _c, ctx)
        return [view.freeze()]

    return Rule(f"cache{c}:{state_name}+{event}", guard, apply, params={"c": c})


def _dir_rule(c: int, state_code: int, event: str, handler: Handler) -> Rule:
    state_name = defs.DIR_STATE_NAMES[state_code]

    def guard(state, _c=c, _code=state_code, _ev=event):
        return state[1] == _code and (_ev, _c) in state[6]

    def apply(state, ctx, _c=c, _ev=event, _handler=handler):
        view = defs.View(state)
        view.consume(_ev, _c)
        _handler(view, _c, ctx)
        return [view.freeze()]

    return Rule(f"dir:{state_name}+{event}[c={c}]", guard, apply, params={"c": c})


def build_msi_system(
    n_caches: int = 2,
    cache_table: Optional[Table] = None,
    dir_table: Optional[Table] = None,
    name: str = "msi",
    symmetry: bool = True,
    coverage: bool = True,
    evictions: bool = False,
) -> TransitionSystem:
    """Build the MSI transition system.

    With the default (reference) tables the system is the complete protocol;
    skeletons pass tables in which chosen transient entries resolve holes.
    ``evictions=True`` enables the M-eviction/writeback extension (the
    paper's Figure 3 omits evictions; see docs/architecture.md,
    "Departures from the paper", item 5).
    """
    if n_caches < 1:
        raise ValueError("n_caches must be >= 1")
    if cache_table is None:
        cache_table = reference_cache_table(evictions)
    if dir_table is None:
        dir_table = reference_dir_table(evictions)

    cache_order = CACHE_TABLE_ORDER + (EVICTION_TABLE_ORDER if evictions else ())
    dir_order = DIR_TABLE_ORDER + (EVICTION_DIR_TABLE_ORDER if evictions else ())
    rules = []
    for c in range(n_caches):
        for key in cache_order:
            if key in cache_table:
                rules.append(_cache_rule(c, key[0], key[1], cache_table[key]))
    for key in dir_order:
        if key in dir_table:
            for c in range(n_caches):
                rules.append(_dir_rule(c, key[0], key[1], dir_table[key]))

    canonicalize = None
    if symmetry and n_caches > 1:
        permuter = Permuter.for_single(
            ScalarSet("cache", n_caches),
            defs.permute_state,
            replica_keys=defs.replica_keys,
        )
        canonicalize = permuter.canonicalize

    return TransitionSystem(
        name=f"{name}-{n_caches}c",
        initial_states=[defs.initial_state(n_caches)],
        rules=rules,
        invariants=msi_invariants(n_caches),
        coverage=msi_coverage(coverage),
        deadlock=DeadlockPolicy.fail(quiescent=msi_quiescent),
        canonicalize=canonicalize,
        packed_spec=defs.packed_spec(n_caches, symmetry=symmetry),
    )


def reference_solution_assignment() -> Dict[str, str]:
    """Hole name -> action name of the reference completion for every
    holeable rule (restricted to a skeleton's holes, this is the known-good
    solution the synthesiser must rediscover)."""
    assignment: Dict[str, str] = {}
    cache_completions = dict(REFERENCE_CACHE_COMPLETIONS)
    cache_completions.update(EVICTION_CACHE_COMPLETIONS)
    for (state_code, event), names in cache_completions.items():
        rule = f"{defs.CACHE_STATE_NAMES[state_code]}+{event}"
        assignment[f"cache.{rule}.response"] = names[0]
        assignment[f"cache.{rule}.next"] = names[1]
    for (state_code, event), names in REFERENCE_DIR_COMPLETIONS.items():
        rule = f"{defs.DIR_STATE_NAMES[state_code]}+{event}"
        assignment[f"dir.{rule}.response"] = names[0]
        assignment[f"dir.{rule}.next"] = names[1]
        assignment[f"dir.{rule}.track"] = names[2]
    return assignment
