"""Molecular graph ingestion: dataset records, a SMILES subset, featurization.

The dataset format is one JSON object per line (UTF-8, ``#`` comment lines
ignored) with fields ``id``, ``atoms`` (array of ``{element, aromatic?,
implicit_h?}``), ``bonds`` (array of ``[i, j, order]`` with order 1, 2, 3 or
``"aromatic"``), ``targets`` (name -> number) and an optional ``fukui``
array of per-atom ``[f_minus, f_plus]`` pairs. Numbers follow the run configs'
rule (``finite_number``, ``check_integer``): never booleans or strings.

Hydrogens are implicit throughout: they appear as an atom feature, never as
graph nodes. Bond order is parsed and stored but the convolution aggregates
over topology only.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

__all__ = [
    "MoleculeError",
    "Atom",
    "MolecularGraph",
    "SUPPORTED_ELEMENTS",
    "STANDARD_VALENCE",
    "FEATURE_DIM",
    "parse_graph_file",
    "graph_to_record",
    "format_graph_file",
    "load_dataset",
    "write_dataset",
    "parse_smiles_subset",
    "featurize",
    "pack_graphs",
    "kfold_split",
]

SUPPORTED_ELEMENTS = ("H", "C", "N", "O", "F")
STANDARD_VALENCE = {"C": 4, "N": 3, "O": 2, "F": 1}
AROMATIC = "aromatic"
VALID_ORDERS = (1, 2, 3, AROMATIC)

# element one-hot (5) + heavy degree one-hot 0-4 (5) + aromatic flag (1)
# + implicit hydrogen count one-hot 0-4 (5)
FEATURE_DIM = 16
_ELEMENT_INDEX = {el: k for k, el in enumerate(SUPPORTED_ELEMENTS)}
_MAX_ONE_HOT = 4
_HYDROGEN_COLUMN = 11


class MoleculeError(ValueError):
    """Malformed molecule record, SMILES string, or graph invariant violation."""


@dataclass(frozen=True)
class Atom:
    element: str
    implicit_hydrogens: int = 0
    aromatic: bool = False


@dataclass
class MolecularGraph:
    """Undirected heavy-atom graph with per-molecule regression targets.

    The one check of molecule fields, for graphs read from files and built
    in code alike. Each atom has a supported ``element``, an integer
    ``implicit_hydrogens`` in 0-4 and a bool ``aromatic``. ``bonds`` holds
    ``(i, j, order)`` triples: distinct integer atom indices, each pair once,
    and an order of exactly 1, 2, 3 or ``"aromatic"``; no atom has more than
    four bonds. ``targets`` maps names to finite numbers, and ``fukui`` holds
    one ``(f_minus, f_plus)`` pair of finite numbers per atom; both are
    stored as floats. The atoms are checked first, then the bonds, the
    degrees, the targets and ``fukui``. A failure raises
    ``MoleculeError("molecule '<id>': ...")``. Degree and hydrogen count are
    one-hots over 0-4 in the atom features, so every built graph packs
    (:func:`pack_graphs`).

    After the checks the graph keeps two flat int64 arrays that
    :func:`pack_graphs` reads in place of the atoms and bonds: ``atom_codes``,
    per atom the element column, the hydrogen column
    ``11 + implicit_hydrogens`` and the aromatic flag, and ``bond_ends``, the
    ``i, j`` of each bond, ``i < j``. They are built once, so the atoms and
    bonds of a built graph are not to be changed in place.

    The same rule lets a graph keep its one-molecule pack. ``kept_pack`` is
    None until the first eval pass over this graph alone without an arena;
    that pass stores its :func:`pack_graphs` arrays there, read-only, and
    later such passes over the same object reuse them instead of packing.
    That branch of ``Model.forward_batch`` is the only code that reads or
    writes ``kept_pack``. It is not a field, so ``==``, ``repr``,
    ``dataclasses.asdict`` and ``dataclasses.replace`` ignore it, and a
    graph rebuilt with ``replace`` or parsed again packs afresh.
    """

    id: str
    atoms: list[Atom]
    bonds: list[tuple[int, int, object]] = field(default_factory=list)
    targets: dict[str, float] = field(default_factory=dict)
    fukui: list[tuple[float, float]] | None = None
    kept_pack = None  # not a field: no annotation

    def __post_init__(self):
        # Each check raises a bare ValueError; the handler below names the molecule once.
        try:
            if not self.atoms:
                raise ValueError("at least one atom required")
            n = len(self.atoms)
            codes = []
            for k, atom in enumerate(self.atoms):
                if atom.element not in SUPPORTED_ELEMENTS:
                    raise ValueError(f"unsupported element {brief_repr(atom.element)}")
                check_integer("implicit hydrogen count", atom.implicit_hydrogens)
                if atom.implicit_hydrogens < 0:
                    raise ValueError("negative implicit hydrogen count")
                if atom.implicit_hydrogens > _MAX_ONE_HOT:
                    raise ValueError(f"atom {k} implicit hydrogen count "
                                     f"{atom.implicit_hydrogens} > {_MAX_ONE_HOT}")
                if not isinstance(atom.aromatic, bool):
                    raise ValueError(
                        f"aromatic must be true or false, got {brief_repr(atom.aromatic)}")
                codes += (_ELEMENT_INDEX[atom.element],
                          _HYDROGEN_COLUMN + atom.implicit_hydrogens, atom.aromatic)
            if not isinstance(self.bonds, (list, tuple)):
                raise ValueError(f"bonds must be a list of triples, got {brief_repr(self.bonds)}")
            seen = set()
            normalized = []
            ends = []
            for bond in self.bonds:
                if not isinstance(bond, (list, tuple)) or len(bond) != 3:
                    raise ValueError(
                        f"bond must be an (i, j, order) triple, got {brief_repr(bond)}")
                i, j, order = bond
                check_integer("bond endpoint", i)
                check_integer("bond endpoint", j)
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"bond index out of range ({i}, {j})")
                if i == j:
                    raise ValueError("bond endpoints must be distinct")
                # true == 1.0 == 1, so the kind is checked as well as the value
                if order not in VALID_ORDERS or isinstance(order, (bool, float)):
                    raise ValueError(f"invalid bond order {brief_repr(order)}")
                key = (min(i, j), max(i, j))
                if key in seen:
                    raise ValueError(f"duplicate bond {key}")
                seen.add(key)
                normalized.append((key[0], key[1], order))
                ends += key
            self.bonds = normalized
            self.atom_codes = np.array(codes, dtype=np.int64)
            self.bond_ends = np.array(ends, dtype=np.int64)
            degrees = self.degrees()
            if degrees.max() > _MAX_ONE_HOT:
                k = int((degrees > _MAX_ONE_HOT).argmax())
                raise ValueError(f"atom {k} degree {degrees[k]} > {_MAX_ONE_HOT}")
            targets = self.targets
            if not isinstance(targets, dict) or not all(isinstance(k, str) for k in targets):
                raise ValueError(f"targets must map names to numbers, got {brief_repr(targets)}")
            self.targets = {k: finite_number(f"target {brief_repr(k)}", v)
                            for k, v in targets.items()}
            fukui = self.fukui
            if fukui is not None:
                if not isinstance(fukui, (list, tuple)) or len(fukui) != n or any(
                        not isinstance(p, (list, tuple)) or len(p) != 2 for p in fukui):
                    raise ValueError("fukui must hold one (f_minus, f_plus) pair per atom")
                self.fukui = [(finite_number("fukui value", fm), finite_number("fukui value", fp))
                              for fm, fp in fukui]
        except ValueError as e:
            raise MoleculeError(f"molecule {brief_repr(self.id)}: {e}") from None

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists (symmetric by construction)."""
        adj: list[list[int]] = [[] for _ in self.atoms]
        for i, j, _ in self.bonds:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self) -> np.ndarray:
        """Heavy-atom degree per atom, int64."""
        return np.bincount(self.bond_ends, minlength=len(self.atoms))


def brief_repr(value) -> str:
    """``repr(value)`` for an error message, cut after 60 characters and marked ``...``."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def finite_number(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {brief_repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {brief_repr(value)}")
    return number


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool."""
    # The exact-int test first: the ABC check costs far more on this common case.
    if not (type(value) is int
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {brief_repr(value)}")


def _graph_from_record(rec) -> MolecularGraph:
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    if not isinstance(rec.get("id"), str):
        raise ValueError("missing string 'id' field")
    atoms = rec.get("atoms")
    if not isinstance(atoms, list):
        raise ValueError("missing 'atoms' array")
    if not all(isinstance(a, dict) and "element" in a for a in atoms):
        raise ValueError("atom record must be an object with an 'element' field")
    atoms = [Atom(a["element"], a.get("implicit_h", 0), a.get("aromatic", False)) for a in atoms]
    return MolecularGraph(rec["id"], atoms, rec.get("bonds", []), rec.get("targets", {}),
                          rec.get("fukui"))


def parse_graph_file(text: str) -> list[MolecularGraph]:
    """Parse a line-delimited dataset document into validated graphs.

    Blank lines and lines starting with ``#`` are ignored; record order is
    preserved. Errors report the offending line number.
    """
    graphs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            graphs.append(_graph_from_record(json.loads(stripped)))
        except (json.JSONDecodeError, RecursionError) as e:  # malformed, or nested too deeply
            raise MoleculeError(f"line {lineno}: malformed record: {e}") from None
        except ValueError as e:
            raise MoleculeError(f"line {lineno}: {e}") from None
    return graphs


def graph_to_record(graph: MolecularGraph) -> dict:
    """The JSON-serializable record for one graph (stable field layout)."""
    rec = {
        "id": graph.id,
        "atoms": [
            {"element": a.element, "aromatic": a.aromatic, "implicit_h": a.implicit_hydrogens}
            for a in graph.atoms
        ],
        "bonds": [[i, j, order] for i, j, order in graph.bonds],
        "targets": {k: graph.targets[k] for k in sorted(graph.targets)},
    }
    if graph.fukui is not None:
        rec["fukui"] = [[fm, fp] for fm, fp in graph.fukui]
    return rec


def format_graph_file(graphs) -> str:
    """Serialize graphs to the line-delimited dataset format.

    ``parse_graph_file(format_graph_file(gs))`` reproduces the graphs exactly.
    """
    return "".join(json.dumps(graph_to_record(g)) + "\n" for g in graphs)


def load_dataset(path) -> list[MolecularGraph]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_file(fh.read())


def write_dataset(path, graphs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_file(graphs))


_BOND_CHARS = {"-": 1, "=": 2, "#": 3}
_ORDER_VALUE = {1: 1.0, 2: 2.0, 3: 3.0, AROMATIC: 1.5}


def parse_smiles_subset(smiles: str) -> MolecularGraph:
    """Parse a restricted SMILES string into a heavy-atom graph.

    Supported syntax: atoms C/N/O/F (aromatic c/n/o), bonds - = #, branches
    in parentheses, ring closures with digits 1-9 (each digit may be open
    once at a time). Implicit hydrogens follow standard valence (C:4, N:3,
    O:2, F:1) minus the explicit bond-order sum, aromatic bonds counting 1.5.
    """
    elements: list[str] = []
    aromatic_flags: list[bool] = []
    bonds: list[tuple[int, int, object]] = []
    bond_keys: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: object | None = None
    branch_stack: list[int] = []
    open_rings: dict[str, tuple[int, object | None]] = {}

    def add_bond(i: int, j: int, order, pos: int):
        if i == j:
            raise MoleculeError(f"position {pos}: ring closure bonds an atom to itself")
        key = (min(i, j), max(i, j))
        if key in bond_keys:
            raise MoleculeError(f"position {pos}: duplicate bond between atoms {i} and {j}")
        bond_keys.add(key)
        bonds.append((i, j, order))

    for pos, ch in enumerate(smiles):
        if ch in "CNOF" or ch in "cno":
            arom = ch.islower()
            elements.append(ch.upper())
            aromatic_flags.append(arom)
            idx = len(elements) - 1
            if prev is not None:
                order = pending
                if order is None:
                    order = AROMATIC if (arom and aromatic_flags[prev]) else 1
                add_bond(prev, idx, order, pos)
            elif pending is not None:
                raise MoleculeError(f"position {pos}: bond symbol before the first atom")
            pending = None
            prev = idx
        elif ch in _BOND_CHARS:
            if pending is not None:
                raise MoleculeError(f"position {pos}: consecutive bond symbols")
            pending = _BOND_CHARS[ch]
        elif ch == "(":
            if prev is None:
                raise MoleculeError(f"position {pos}: branch before any atom")
            if pending is not None:
                raise MoleculeError(f"position {pos}: bond symbol before branch open")
            branch_stack.append(prev)
        elif ch == ")":
            if not branch_stack:
                raise MoleculeError(f"position {pos}: unmatched ')'")
            if pending is not None:
                raise MoleculeError(f"position {pos}: dangling bond symbol before ')'")
            prev = branch_stack.pop()
        elif ch.isdigit():
            if ch == "0":
                raise MoleculeError(f"position {pos}: ring-closure digit 0 is not supported")
            if prev is None:
                raise MoleculeError(f"position {pos}: ring-closure digit before any atom")
            if ch in open_rings:
                other, open_order = open_rings.pop(ch)
                if pending is not None and open_order is not None and pending != open_order:
                    raise MoleculeError(f"position {pos}: conflicting bond orders for ring {ch}")
                order = pending if pending is not None else open_order
                if order is None:
                    order = AROMATIC if (aromatic_flags[prev] and aromatic_flags[other]) else 1
                add_bond(other, prev, order, pos)
                pending = None
            else:
                open_rings[ch] = (prev, pending)
                pending = None
        else:
            raise MoleculeError(f"position {pos}: unsupported character {ch!r}")

    if branch_stack:
        raise MoleculeError("unmatched '(' at end of string")
    if open_rings:
        digits = ", ".join(sorted(open_rings))
        raise MoleculeError(f"unclosed ring closure digit(s): {digits}")
    if pending is not None:
        raise MoleculeError("dangling bond symbol at end of string")
    if not elements:
        raise MoleculeError("empty SMILES string")

    order_sum = [0.0] * len(elements)
    for i, j, order in bonds:
        order_sum[i] += _ORDER_VALUE[order]
        order_sum[j] += _ORDER_VALUE[order]

    atoms = []
    for idx, (el, arom) in enumerate(zip(elements, aromatic_flags)):
        h = int(np.floor(STANDARD_VALENCE[el] - order_sum[idx] + 1e-9))
        if h < 0:
            raise MoleculeError(
                f"atom {idx} ({el}): bond order sum {order_sum[idx]} exceeds valence "
                f"{STANDARD_VALENCE[el]}"
            )
        atoms.append(Atom(element=el, implicit_hydrogens=h, aromatic=arom))
    return MolecularGraph(id=smiles, atoms=atoms, bonds=bonds)


def pack_graphs(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node features, neighbour table and atom table of one forward pass over ``graphs``.

    These are the arguments of ``Model.forward``, and this is the only code
    that builds them. ``x`` has the :func:`featurize` layout, one row per
    atom, the molecules stacked in order. Row v of ``neighbors`` lists atom v
    and its bonded neighbours, and row k of ``atoms`` lists molecule k's
    rows; both ascending, padded with the atom count and no wider than their
    widest row. The arrays come from each graph's ``atom_codes`` and
    ``bond_ends``, with no pass in Python over atoms or bonds. Every built
    graph packs: its degrees and hydrogen counts lie in 0-4
    (:class:`MolecularGraph`). An empty list raises ``ValueError``.
    """
    if not graphs:
        raise ValueError("empty batch")
    starts = np.array([0, *accumulate(len(g.atoms) for g in graphs)])
    n = int(starts[-1])
    codes = np.concatenate([g.atom_codes for g in graphs]).reshape(n, 3)
    ends = np.concatenate([g.bond_ends for g in graphs]).reshape(-1, 2)
    ends += np.repeat(starts[:-1], [len(g.bonds) for g in graphs])[:, None]
    # Key row * n + neighbour: each atom's self key and both directions of each bond.
    i, j = ends.T
    keys = np.concatenate((np.arange(0, n * (n + 1), n + 1), i * n + j, j * n + i))
    keys.sort()
    rows, nbrs = np.divmod(keys, n)
    widths = np.bincount(rows)  # degree + 1
    x = np.zeros((n, FEATURE_DIM))
    x[:, 10] = codes[:, 2]
    codes[:, 2] = widths + 4  # the degree column, 5 + degree
    x[np.arange(n)[:, None], codes] = 1.0
    neighbors = np.empty((n, widths.max()), dtype=np.intp)
    neighbors.fill(n)
    # Keys are sorted, so row r's keys run from rows.searchsorted(r), ascending.
    neighbors[rows, np.arange(len(keys)) - rows.searchsorted(rows)] = nbrs
    # Row k lists rows starts[k] .. starts[k + 1] - 1, then n.
    begins, sizes = starts[:-1], starts[1:] - starts[:-1]
    cols = np.arange(sizes.max())
    atoms = np.where(cols < sizes[:, None], begins[:, None] + cols, n)
    return x, neighbors, atoms


def featurize(graph: MolecularGraph) -> np.ndarray:
    """Deterministic 16-dim node features, one row per atom.

    Layout: element one-hot over (H, C, N, O, F), heavy-atom degree one-hot
    0-4, aromatic flag, implicit hydrogen count one-hot 0-4. The one-molecule
    case of :func:`pack_graphs`.
    """
    return pack_graphs([graph])[0]


def kfold_split(n: int, k: int, seed: int) -> list[list[int]]:
    """Deterministically partition {0..n-1} into k folds of near-equal size."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of items n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return [sorted(int(i) for i in part) for part in np.array_split(perm, k)]
