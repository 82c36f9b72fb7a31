"""A small declarative layer for writing protocols (Murphi-flavoured).

The MSI case study is hand-tuned for speed; this layer trades a little
performance for brevity and is what a downstream user would typically start
with.  See :mod:`repro.protocols.vi` and :mod:`repro.protocols.mutex` for
protocols written against it.

* :mod:`repro.dsl.network` — typed messages and the unordered network.
* :mod:`repro.dsl.process` — replicated process arrays over a scalarset.
* :mod:`repro.dsl.builder` — declarative controller tables with optional
  holes, compiled to :class:`~repro.mc.rule.Rule` lists.
"""

from repro.dsl.builder import ControllerSpec, ProtocolBuilder, Transition
from repro.dsl.network import Message, UnorderedNetwork
from repro.dsl.process import ProcessArray

__all__ = [
    "ControllerSpec",
    "Message",
    "ProcessArray",
    "ProtocolBuilder",
    "Transition",
    "UnorderedNetwork",
]
