"""The public surface of the directory-protocol family (MSI, MESI, MOESI).

Verdict stores key every candidate by ``system_signature`` and by hole
names and action digits; BFS traces and the pinned pattern lists follow
rule declaration order.  This file fixes all of them for the complete
protocols and for the catalog skeletons, so a change to how the family
compiles its tables into rules and holes cannot silently move a store
key, a trace or a pin:

* ``system_signature`` (rule, invariant and coverage names, canonicaliser
  and deadlock tags);
* the ordered rule names (count plus a digest of the name list);
* the ordered invariant and coverage names;
* for skeletons, the ordered ``(hole name, [action names])`` list, a
  digest that also covers each action's payload, and the reference
  assignment.
"""

import hashlib
import json

import pytest

from repro.protocols import mesi, moesi
from repro.protocols.catalog import build_skeleton_with_holes
from repro.protocols.mesi import build_mesi_skeleton, build_mesi_system
from repro.protocols.moesi import build_moesi_skeleton, build_moesi_system
from repro.protocols.msi import SkeletonSpec, msi_skeleton
from repro.protocols.msi.cache import (
    EVICTION_CACHE_COMPLETIONS,
    REFERENCE_CACHE_COMPLETIONS,
)
from repro.protocols.msi.directory import REFERENCE_DIR_COMPLETIONS
from repro.protocols.msi.system import build_msi_system
from repro.store.store import system_signature


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _surface(system):
    return (
        system_signature(system),
        len(system.rules),
        _digest([rule.name for rule in system.rules]),
    )


def _hole_list(holes):
    return [(hole.name, [action.name for action in hole.domain]) for hole in holes]


def _hole_digest(holes):
    return _digest(
        [
            (hole.name, [(action.name, repr(action.payload)) for action in hole.domain])
            for hole in holes
        ]
    )


MSI_INVARIANTS = [
    "swmr",
    "no-unexpected-message",
    "dir-bookkeeping",
    "no-orphaned-wait",
    "network-bounded",
]
MOESI_INVARIANTS = [
    "swmr",
    "no-unexpected-message",
    "dir-bookkeeping",
    "owner-holds-data",
    "no-orphaned-wait",
    "network-bounded",
]
MSI_COVERAGE = [
    "some-cache-reaches-S",
    "some-cache-reaches-M",
    "dir-reaches-S",
    "dir-reaches-M",
]
MESI_COVERAGE = [
    "some-cache-reaches-E",
    "some-cache-reaches-M",
    "dir-reaches-EM",
    "some-cache-reaches-S",
    "dir-reaches-S",
]
MOESI_COVERAGE = [
    "some-cache-reaches-E",
    "some-cache-reaches-M",
    "dir-reaches-EM",
    "some-cache-reaches-O",
    "some-cache-reaches-S",
    "dir-reaches-O",
    "dir-reaches-S",
]

#: rule-name surfaces shared by a protocol and its skeletons: replicas ->
#: (rule count, rule-name digest)
MSI_RULES = {2: (48, "8d9ebb8fc9559eb6"), 3: (72, "0ab3d6a8ba64f73d")}
MSI_EVICT_RULES = {2: (64, "5ea658152373af22"), 3: (96, "55558a43f8195a87")}
MESI_RULES = {2: (54, "fe0ae0ff12c7f795"), 3: (81, "4e62a5b4b7d6a65f")}
MOESI_RULES = {2: (78, "f0b42c8b512aae8e"), 3: (117, "80f3d29174dd8b93")}

#: (label, builder(replicas), signatures by replicas, rules, invariants,
#: coverage)
PROTOCOL_PINS = [
    (
        "msi",
        lambda n: build_msi_system(n),
        {
            2: "cd1c8895928496b3f83bea23d15d68b392feb56c39308b2ab5d410a678643133",
            3: "2f35b7b3babc9ba68bd8530ae4051f4533df18f5e4c46089b67aa4f9c768aa04",
        },
        MSI_RULES,
        MSI_INVARIANTS,
        MSI_COVERAGE,
    ),
    (
        "msi-evictions",
        lambda n: build_msi_system(n, evictions=True),
        {
            2: "6e0e67c2c966b76dc8901e7b50a08597ad2c3b3d1e4420b8d1b7f0edaf5cdff7",
            3: "7642aec2e8098b21ef76084bad6feddc6930fff757db1cfa2e72bc11fe3284fe",
        },
        MSI_EVICT_RULES,
        MSI_INVARIANTS,
        MSI_COVERAGE,
    ),
    (
        "mesi",
        lambda n: build_mesi_system(n),
        {
            2: "33c188fb514a3a7c64088fee6fee1d0cacc8ff9b86d1d857e0d8f601da16a772",
            3: "101dfad0be8c74e573a8938eecd77d41e0cfefdcd8853ebe3208750d98857aed",
        },
        MESI_RULES,
        MSI_INVARIANTS,
        MESI_COVERAGE,
    ),
    (
        "moesi",
        lambda n: build_moesi_system(n),
        {
            2: "0ab7b27621a237244ed13fea332dc7c867d06f14b04d12d09ef74796c564e2d9",
            3: "58526fdcd8825dbcc0695a6f0caf807d8689829136c2dc59432064c583ab5459",
        },
        MOESI_RULES,
        MOESI_INVARIANTS,
        MOESI_COVERAGE,
    ),
    (
        # The seeded bug changes one handler's body, not the surface.
        "moesi-no-owner-inv",
        lambda n: build_moesi_system(n, bug="no-owner-inv"),
        {
            2: "0ab7b27621a237244ed13fea332dc7c867d06f14b04d12d09ef74796c564e2d9",
            3: "58526fdcd8825dbcc0695a6f0caf807d8689829136c2dc59432064c583ab5459",
        },
        MOESI_RULES,
        MOESI_INVARIANTS,
        MOESI_COVERAGE,
    ),
]

MSI_CACHE_RESPONSE = ["none", "send_invack", "send_dataack"]
MSI_CACHE_NEXT = [
    "goto_I",
    "goto_S",
    "goto_M",
    "goto_IS_D",
    "goto_IM_D",
    "goto_SM_D",
    "goto_IS_D_I",
]
MSI_EVICT_RESPONSE = MSI_CACHE_RESPONSE + ["send_putm"]
MSI_EVICT_NEXT = MSI_CACHE_NEXT + ["goto_MI_A", "goto_II_A"]
MSI_DIR_RESPONSE = [
    "none",
    "send_data",
    "send_inv_sharers",
    "send_inv_owner",
    "send_data_sharers",
]
MSI_DIR_NEXT = [
    "goto_I",
    "goto_S",
    "goto_M",
    "goto_IM_A",
    "goto_SM_A",
    "goto_MS_A",
    "goto_MM_A",
]
MSI_DIR_TRACK = ["none", "owner_is_req", "add_req_sharer"]


def _msi_cache(rule, response=MSI_CACHE_RESPONSE, nxt=MSI_CACHE_NEXT):
    return [(f"cache.{rule}.response", response), (f"cache.{rule}.next", nxt)]


def _msi_dir(rule):
    return [
        (f"dir.{rule}.response", MSI_DIR_RESPONSE),
        (f"dir.{rule}.next", MSI_DIR_NEXT),
        (f"dir.{rule}.track", MSI_DIR_TRACK),
    ]


#: (catalog skeleton, signatures by replicas, rules, coverage, hole list,
#: hole digest including payloads)
SKELETON_PINS = [
    (
        "msi-tiny",
        {
            2: "3b812c4ea621eb9efae0ba8232c8eae70c9823b338fc07cd5c6cb3f29c27a9df",
            3: "3e4aeea460bef417ef652a2fae7207a5e098362731cffb2d744c0338e4546d4e",
        },
        MSI_RULES,
        MSI_COVERAGE,
        _msi_cache("IM_D+Data"),
        "a955f93af72099d7",
    ),
    (
        "msi-read-tiny",
        {
            2: "36543af8191654f10b698b13ca7c4e96bb4ece4e31817b76456cf61b871f74e0",
            3: "ce8edddded0677cfb1571e922a56c3a709a7b4817f1eba749a9093a4da274e7a",
        },
        MSI_RULES,
        MSI_COVERAGE,
        _msi_cache("IS_D+Data"),
        "51806a95918b66d7",
    ),
    (
        "msi-small",
        {
            2: "0fc461ebf78cfcb8b7bbdfe0389467c3b4069ba0bfff4524e7549e003d1cc580",
            3: "85f7dc6a62f7fbd6342bdec15dc5c64635aee30a7aa0961a19e80b42109d1040",
        },
        MSI_RULES,
        MSI_COVERAGE,
        _msi_cache("IM_D+Data") + _msi_dir("IM_A+DataAck") + _msi_dir("MM_A+InvAck"),
        "b9a76f8e8ca677b7",
    ),
    (
        "msi-large",
        {
            2: "a930efd38915c4b1038b657d2108a22c79ba0677208adc18eb2cd123579be78d",
            3: "b1a8bfc1aa4f054cde76206a9f454c8a314e00f69d1d9c27dfa4877083493a89",
        },
        MSI_RULES,
        MSI_COVERAGE,
        _msi_cache("IM_D+Data")
        + _msi_cache("SM_D+Data")
        + _msi_cache("SM_D+Inv")
        + _msi_dir("IM_A+DataAck")
        + _msi_dir("MM_A+InvAck"),
        "0f2909951b433730",
    ),
    (
        "msi-evict",
        {
            2: "7cf837410ec77a0a99fd0c41b5f88783d4394afc3fa0f7a9be5ad691456469d1",
            3: "bdbbdd22229b0cc21721761be15bde6e0803b97f9c7705f5df1bfafc56b80b18",
        },
        MSI_EVICT_RULES,
        MSI_COVERAGE,
        _msi_cache("MI_A+PutAck", MSI_EVICT_RESPONSE, MSI_EVICT_NEXT)
        + _msi_cache("MI_A+Inv", MSI_EVICT_RESPONSE, MSI_EVICT_NEXT)
        + _msi_cache("II_A+PutAck", MSI_EVICT_RESPONSE, MSI_EVICT_NEXT),
        "2ee202e6a50675ee",
    ),
    (
        "mesi",
        {
            2: "f4a04dc9a507eaee908974def2d6dc1b17b27419c8674ac896e17314765a8453",
            3: "f73a540c182dd791341e863c239db191b4c535499a3073bc8e4dd0bd6e7ef7f5",
        },
        MESI_RULES,
        MESI_COVERAGE,
        [
            ("mesi.cache.IS_D+DataE.response", MSI_CACHE_RESPONSE),
            (
                "mesi.cache.IS_D+DataE.next",
                [
                    "goto_I",
                    "goto_S",
                    "goto_E",
                    "goto_M",
                    "goto_IS_D",
                    "goto_IM_D",
                    "goto_SM_D",
                    "goto_IS_D_I",
                ],
            ),
        ],
        "3da71fa88da850a0",
    ),
    (
        "moesi-small",
        {
            2: "3a0be3137602a924837317e3d24dcdf7987457df24ea9b1b9c19d0560073f196",
            3: "b7c45980bfdea4bd7c36f79b23f702ba8b345de4c45fcedf2920dc2187389305",
        },
        MOESI_RULES,
        MOESI_COVERAGE,
        [
            (
                "moesi.cache.M+FwdGetS.response",
                MSI_CACHE_RESPONSE + ["fwd_data_keep", "fwd_data_release"],
            ),
            (
                "moesi.cache.M+FwdGetS.next",
                [
                    "goto_I",
                    "goto_S",
                    "goto_E",
                    "goto_O",
                    "goto_M",
                    "goto_IS_D",
                    "goto_IM_D",
                    "goto_SM_D",
                    "goto_OM_A",
                    "goto_IS_D_I",
                ],
            ),
        ],
        "6fa75b4a96f4edb4",
    ),
]


def _msi_every_hole(evictions):
    cache_rules = dict(REFERENCE_CACHE_COMPLETIONS)
    if evictions:
        cache_rules.update(EVICTION_CACHE_COMPLETIONS)
    skeleton = msi_skeleton(
        SkeletonSpec(
            name="msi-every-hole",
            cache_rules=tuple(cache_rules),
            dir_rules=tuple(REFERENCE_DIR_COMPLETIONS),
            evictions=evictions,
        )
    )
    return skeleton.system, skeleton.holes, skeleton.reference_assignment()


def _every_hole(module, build):
    system, holes = build(
        cache_rules=tuple(module.REFERENCE_CACHE_COMPLETIONS),
        dir_rules=tuple(module.REFERENCE_DIR_COMPLETIONS),
    )
    return system, holes, module.reference_assignment_for(holes)


#: skeletons that blank every holeable rule of a protocol: (label, builder,
#: signature, hole count, hole digest, reference-assignment digest)
EVERY_HOLE_PINS = [
    (
        "msi",
        lambda: _msi_every_hole(False),
        "a81a0a61e77722f669b288a6b6f53572e96f359d6835235b44a328759e573551",
        28,
        "260f90934d2f48d0",
        "f02d43c47bf80ba3",
    ),
    (
        "msi-evictions",
        lambda: _msi_every_hole(True),
        "b56878e75b087dd4b8b148e34bb714f3c0a26b0f737189499e8bc2e8a24b5e32",
        34,
        "8b81accd2efa59d1",
        "cacff2ba1bee4a9d",
    ),
    (
        "mesi",
        lambda: _every_hole(mesi, build_mesi_skeleton),
        "f4a04dc9a507eaee908974def2d6dc1b17b27419c8674ac896e17314765a8453",
        30,
        "3bcba42b44d8cdcc",
        "f44436aa79ca1ccd",
    ),
    (
        "moesi",
        lambda: _every_hole(moesi, build_moesi_skeleton),
        "3a0be3137602a924837317e3d24dcdf7987457df24ea9b1b9c19d0560073f196",
        48,
        "3ccb1d53df8ef3e3",
        "9cd40e4ba7977a79",
    ),
]


@pytest.mark.parametrize("replicas", [2, 3])
@pytest.mark.parametrize(
    "label,build,signatures,rules,invariants,coverage",
    PROTOCOL_PINS,
    ids=[pin[0] for pin in PROTOCOL_PINS],
)
def test_protocol_surface_is_pinned(
    label, build, signatures, rules, invariants, coverage, replicas
):
    system = build(replicas)
    assert _surface(system) == (signatures[replicas],) + rules[replicas]
    assert [invariant.name for invariant in system.invariants] == invariants
    assert [goal.name for goal in system.coverage] == coverage


@pytest.mark.parametrize("replicas", [2, 3])
@pytest.mark.parametrize(
    "name,signatures,rules,coverage,holes,hole_digest",
    SKELETON_PINS,
    ids=[pin[0] for pin in SKELETON_PINS],
)
def test_skeleton_surface_is_pinned(
    name, signatures, rules, coverage, holes, hole_digest, replicas
):
    system, built_holes = build_skeleton_with_holes(name, replicas)
    assert _surface(system) == (signatures[replicas],) + rules[replicas]
    assert [goal.name for goal in system.coverage] == coverage
    assert _hole_list(built_holes) == holes
    assert _hole_digest(built_holes) == hole_digest


@pytest.mark.parametrize(
    "label,build,signature,hole_count,hole_digest,assignment_digest",
    EVERY_HOLE_PINS,
    ids=[pin[0] for pin in EVERY_HOLE_PINS],
)
def test_every_holeable_rule_is_pinned(
    label, build, signature, hole_count, hole_digest, assignment_digest
):
    system, holes, assignment = build()
    assert system_signature(system) == signature
    assert len(holes) == hole_count
    assert _hole_digest(holes) == hole_digest
    assert _digest(sorted(assignment.items())) == assignment_digest
