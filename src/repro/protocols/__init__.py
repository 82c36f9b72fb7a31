"""Case-study protocols.

* :mod:`repro.protocols.toy` — the worked example of the paper's Figure 2.
* :mod:`repro.protocols.dirfamily` — the directory-protocol family: the
  shared state layout, ``View``, symmetry helpers, generic invariants and
  the :class:`~repro.protocols.dirfamily.DirectoryProtocol` compiler that
  turns a protocol's tables into rules, holes and skeletons.  MSI, MESI and
  MOESI are tables over it.
* :mod:`repro.protocols.msi` — the directory-based MSI coherence protocol of
  the paper's evaluation (Figure 3 / Table I).
* :mod:`repro.protocols.mesi` — MESI (the silent E->M upgrade).
* :mod:`repro.protocols.moesi` — MOESI (dirty sharing via the Owned state).
* :mod:`repro.protocols.german` — the German directory protocol with
  explicit channels and data values (the classic Murphi benchmark).
* :mod:`repro.protocols.vi` — a minimal VI coherence protocol.
* :mod:`repro.protocols.mutex` — a token-passing mutual exclusion protocol.
* :mod:`repro.protocols.catalog` — the name -> entry registry (with hole
  counts and replica ranges) every consumer resolves these through.
"""
