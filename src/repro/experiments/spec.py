"""Declarative experiment-matrix specifications.

A :class:`MatrixSpec` describes a set of runs ("cells") over the protocol
catalog without writing a driver script:

* ``axes`` — field name -> list of values; the cartesian product of all
  axes (applied on top of ``defaults``) generates the regular part of the
  matrix, GitHub-Actions style;
* ``exclude`` — dicts of field values; any product cell matching *all*
  fields of an exclude entry is dropped;
* ``include`` — explicit extra cells (each a dict of field overrides on
  top of ``defaults``), for the irregular rows a product cannot express
  (the Table 1 preset is include-only).

:func:`expand_matrix` turns a spec into an ordered list of validated
:class:`CellSpec` values with stable, unique ids — the unit of journaling
and resumption in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Optional

from repro.api import BACKENDS
from repro.errors import ExperimentError
from repro.protocols.catalog import PROTOCOL_CATALOG, SKELETON_CATALOG

MODES = ("synth", "verify")


@dataclass(frozen=True)
class CellSpec:
    """One fully-specified run of the matrix.

    ``mode="synth"`` cells run hole synthesis on a catalog skeleton
    (``target`` is a :data:`~repro.protocols.catalog.SKELETON_CATALOG`
    name); ``mode="verify"`` cells model check a complete protocol
    (``target`` is a :data:`~repro.protocols.catalog.PROTOCOL_CATALOG`
    name).

    A cell with ``estimate_naive_from`` set does not run at all: it
    extrapolates the naive-baseline cost of the referenced (earlier,
    pruned) cell from a random sample of candidate checks — the paper's
    substitution for infeasible naive baselines.

    ``timeout_seconds`` runs the cell in a separate process and abandons
    it after the budget; without a timeout the cell runs in-process.
    """

    id: str
    target: str
    label: str = ""
    mode: str = "synth"
    replicas: int = 2
    backend: str = "sequential"
    workers: int = 1
    pruning: bool = True
    generalise: bool = True
    prefix_reuse: bool = True
    evictions: bool = False
    symmetry: bool = True
    solution_limit: Optional[int] = None
    max_evaluations: Optional[int] = None
    max_states: Optional[int] = None
    store: Optional[str] = None  #: verdict-store directory (synth cells)
    timeout_seconds: Optional[float] = None
    estimate_naive_from: Optional[str] = None
    estimate_samples: int = 25

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able field dict (used for process isolation and journals)."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @property
    def display_label(self) -> str:
        return self.label or self.id


_CELL_FIELDS = {f.name for f in dataclass_fields(CellSpec)}
_FLAG_TAGS = (
    ("pruning", False, "naive"),
    ("generalise", False, "nogen"),
    ("prefix_reuse", False, "noreuse"),
    ("evictions", True, "evict"),
    ("symmetry", False, "nosym"),
)


def derive_cell_id(values: Dict[str, Any]) -> str:
    """A stable, readable id from a cell's distinguishing fields."""
    parts = [
        values.get("mode", "synth"),
        str(values.get("target", "?")),
        f"r{values.get('replicas', 2)}",
        str(values.get("backend", "sequential")),
    ]
    if values.get("workers", 1) != 1:
        parts.append(f"w{values['workers']}")
    for name, tagged_value, tag in _FLAG_TAGS:
        if values.get(name, not tagged_value) == tagged_value:
            parts.append(tag)
    if values.get("estimate_naive_from"):
        parts.append("estimated")
    return ":".join(parts)


def _is_count(value: Any) -> bool:
    """An int >= 1; JSON ``true`` is an int to Python but not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def make_cell(values: Dict[str, Any]) -> CellSpec:
    """Validate one cell dict and freeze it into a :class:`CellSpec`."""
    unknown = set(values) - _CELL_FIELDS
    if unknown:
        raise ExperimentError(
            f"unknown cell field(s) {sorted(unknown)}; "
            f"valid fields: {sorted(_CELL_FIELDS)}"
        )
    values = dict(values)
    values.setdefault("id", derive_cell_id(values))
    try:
        cell = CellSpec(**values)
    except TypeError as exc:
        raise ExperimentError(f"invalid cell {values!r}: {exc}") from None

    if cell.mode not in MODES:
        raise ExperimentError(f"cell {cell.id!r}: unknown mode {cell.mode!r}")
    if cell.backend not in BACKENDS:
        raise ExperimentError(
            f"cell {cell.id!r}: unknown backend {cell.backend!r}; "
            f"known: {', '.join(BACKENDS)}"
        )
    if not _is_count(cell.replicas):
        raise ExperimentError(f"cell {cell.id!r}: replicas must be an int >= 1")
    if not _is_count(cell.workers):
        raise ExperimentError(f"cell {cell.id!r}: workers must be an int >= 1")
    if cell.mode == "verify":
        if cell.target not in PROTOCOL_CATALOG:
            raise ExperimentError(
                f"cell {cell.id!r}: unknown protocol {cell.target!r}; "
                f"available: {', '.join(sorted(PROTOCOL_CATALOG))}"
            )
        if cell.estimate_naive_from:
            raise ExperimentError(
                f"cell {cell.id!r}: estimate_naive_from requires mode='synth'"
            )
    else:
        if cell.target not in SKELETON_CATALOG:
            raise ExperimentError(
                f"cell {cell.id!r}: unknown skeleton {cell.target!r}; "
                f"available: {', '.join(sorted(SKELETON_CATALOG))}"
            )
    for flag in ("pruning", "generalise", "prefix_reuse", "evictions",
                 "symmetry"):
        if not isinstance(getattr(cell, flag), bool):
            raise ExperimentError(
                f"cell {cell.id!r}: {flag} must be a bool, "
                f"got {getattr(cell, flag)!r}"
            )
    if not _is_count(cell.estimate_samples):
        raise ExperimentError(
            f"cell {cell.id!r}: estimate_samples must be an int >= 1"
        )
    if cell.timeout_seconds is not None and (
        not isinstance(cell.timeout_seconds, (int, float))
        or cell.timeout_seconds <= 0
    ):
        raise ExperimentError(
            f"cell {cell.id!r}: timeout_seconds must be a positive number"
        )
    return cell


@dataclass
class MatrixSpec:
    """A named, declarative matrix of cells (see the module docstring)."""

    name: str
    defaults: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    include: List[Dict[str, Any]] = field(default_factory=list)
    exclude: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MatrixSpec":
        """Parse and shallowly validate a JSON-shaped spec dict."""
        if not isinstance(data, dict):
            raise ExperimentError("matrix spec must be a JSON object")
        unknown = set(data) - {"name", "defaults", "axes", "include", "exclude"}
        if unknown:
            raise ExperimentError(f"unknown matrix spec key(s) {sorted(unknown)}")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise ExperimentError("matrix spec needs a non-empty string 'name'")
        defaults = data.get("defaults", {})
        if not isinstance(defaults, dict):
            raise ExperimentError("'defaults' must be an object")
        axes = data.get("axes", {})
        if not isinstance(axes, dict):
            raise ExperimentError("'axes' must be an object of field -> list")
        for key in ("include", "exclude"):
            entries = data.get(key, [])
            if not isinstance(entries, list) or not all(
                isinstance(entry, dict) for entry in entries
            ):
                raise ExperimentError(f"'{key}' must be a list of objects")
        for axis, values in axes.items():
            if axis not in _CELL_FIELDS:
                raise ExperimentError(f"unknown axis {axis!r}")
            if not isinstance(values, list) or not values:
                raise ExperimentError(f"axis {axis!r} must be a non-empty list")
        for entry in data.get("exclude", []):
            unknown = set(entry) - _CELL_FIELDS
            if unknown:
                raise ExperimentError(
                    f"exclude entry references unknown field(s) {sorted(unknown)}"
                )
        return cls(
            name=name,
            defaults=dict(defaults),
            axes={axis: list(values) for axis, values in axes.items()},
            include=[dict(cell) for cell in data.get("include", [])],
            exclude=[dict(cell) for cell in data.get("exclude", [])],
        )

    @classmethod
    def from_json_file(cls, path) -> "MatrixSpec":
        """Load a spec from a JSON file (the CLI's ``--spec`` input)."""
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ExperimentError(f"cannot read spec {path}: {exc}") from None
        except ValueError as exc:
            raise ExperimentError(f"{path}: not valid JSON: {exc}") from None
        return cls.from_dict(data)


def _excluded(cell: CellSpec, exclude: List[Dict[str, Any]]) -> bool:
    # Match against the cell's *effective* field values, so an exclude may
    # reference a field the spec never set explicitly (e.g. the default
    # backend).
    effective = cell.to_dict()
    return any(
        all(effective.get(key) == wanted for key, wanted in entry.items())
        for entry in exclude
    )


def expand_matrix(spec: MatrixSpec) -> List[CellSpec]:
    """Expand a spec into its ordered, validated list of cells.

    Product cells come first (axes in declaration order, values in listed
    order); ``exclude`` filters the product (never the explicit
    ``include`` cells, GitHub-Actions style); ids must be unique across
    the whole expansion.
    """
    cells: List[CellSpec] = []
    if spec.axes:
        axis_names = list(spec.axes)
        for combo in itertools.product(*(spec.axes[axis] for axis in axis_names)):
            values = dict(spec.defaults)
            values.update(dict(zip(axis_names, combo)))
            cell = make_cell(values)
            if _excluded(cell, spec.exclude):
                continue
            cells.append(cell)
    for extra in spec.include:
        values = dict(spec.defaults)
        values.update(extra)
        cells.append(make_cell(values))
    if not cells:
        raise ExperimentError(f"matrix {spec.name!r} expands to zero cells")
    seen: Dict[str, int] = {}
    for index, cell in enumerate(cells):
        if cell.id in seen:
            raise ExperimentError(
                f"matrix {spec.name!r}: duplicate cell id {cell.id!r} "
                f"(cells {seen[cell.id]} and {index}); give one an explicit 'id'"
            )
        seen[cell.id] = index
    known = {cell.id for cell in cells}
    for cell in cells:
        if cell.estimate_naive_from and cell.estimate_naive_from not in known:
            raise ExperimentError(
                f"cell {cell.id!r}: estimate_naive_from references unknown "
                f"cell {cell.estimate_naive_from!r}"
            )
    return cells
