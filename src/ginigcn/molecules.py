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


class MoleculeError(ValueError):
    """Malformed molecule record, SMILES string, or graph invariant violation."""


@dataclass(frozen=True)
class Atom:
    element: str
    implicit_hydrogens: int = 0
    aromatic: bool = False


@dataclass
class MolecularGraph:
    """Undirected heavy-atom graph with per-molecule regression targets."""

    id: str
    atoms: list[Atom]
    bonds: list[tuple[int, int, object]] = field(default_factory=list)
    targets: dict[str, float] = field(default_factory=dict)
    fukui: list[tuple[float, float]] | None = None

    def __post_init__(self):
        if not self.atoms:
            raise MoleculeError(f"molecule {self.id!r}: at least one atom required")
        n = len(self.atoms)
        for atom in self.atoms:
            if atom.element not in SUPPORTED_ELEMENTS:
                raise MoleculeError(f"molecule {self.id!r}: unsupported element {atom.element!r}")
            h = atom.implicit_hydrogens
            if not _is_integer(h):
                raise MoleculeError(
                    f"molecule {self.id!r}: implicit hydrogen count must be an integer, got {h!r}")
            if h < 0:
                raise MoleculeError(f"molecule {self.id!r}: negative implicit hydrogen count")
            if not isinstance(atom.aromatic, bool):
                raise MoleculeError(
                    f"molecule {self.id!r}: aromatic must be true or false, got {atom.aromatic!r}")
        seen = set()
        normalized = []
        for i, j, order in self.bonds:
            for end in (i, j):
                if not _is_integer(end):
                    raise MoleculeError(
                        f"molecule {self.id!r}: bond endpoint must be an integer, got {end!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise MoleculeError(f"molecule {self.id!r}: bond index out of range ({i}, {j})")
            if i == j:
                raise MoleculeError(f"molecule {self.id!r}: bond endpoints must be distinct")
            if order not in VALID_ORDERS or isinstance(order, (bool, float)):  # true == 1.0 == 1
                raise MoleculeError(f"molecule {self.id!r}: invalid bond order {order!r}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise MoleculeError(f"molecule {self.id!r}: duplicate bond {key}")
            seen.add(key)
            normalized.append((key[0], key[1], order))
        self.bonds = normalized
        if self.fukui is not None:
            if len(self.fukui) != n:
                raise MoleculeError(f"molecule {self.id!r}: fukui length != atom count")
            self.fukui = [(float(a), float(b)) for a, b in self.fukui]

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

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.neighbors()]


def finite_number(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _is_integer(value) -> bool:
    # The exact-int test first: the ABC check costs far more on this common case.
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _atom_from_record(rec) -> Atom:
    if not isinstance(rec, dict) or "element" not in rec:
        raise ValueError("atom record must be an object with an 'element' field")
    h = rec.get("implicit_h", 0)
    check_integer("implicit_h", h)
    if h < 0:
        raise ValueError(f"implicit_h must be nonnegative, got {h}")
    aromatic = rec.get("aromatic", False)
    if not isinstance(aromatic, bool):
        raise ValueError(f"aromatic must be true or false, got {aromatic!r}")
    return Atom(element=rec["element"], implicit_hydrogens=h, aromatic=aromatic)


def _graph_from_record(rec) -> MolecularGraph:
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    if "id" not in rec or not isinstance(rec["id"], str):
        raise ValueError("missing string 'id' field")
    if "atoms" not in rec or not isinstance(rec["atoms"], list):
        raise ValueError("missing 'atoms' array")
    atoms = [_atom_from_record(a) for a in rec["atoms"]]
    bonds = rec.get("bonds", [])
    if not isinstance(bonds, list):
        raise ValueError("'bonds' must be an array")
    for b in bonds:
        if not isinstance(b, list) or len(b) != 3:
            raise ValueError("bond must be a [i, j, order] triple")
        check_integer("bond endpoint", b[0])
        check_integer("bond endpoint", b[1])
    targets = rec.get("targets", {})
    if not isinstance(targets, dict):
        raise ValueError("targets must be an object")
    targets = {k: finite_number(f"target {k!r}", v) for k, v in targets.items()}
    fukui = rec.get("fukui")
    if fukui is not None:
        if not isinstance(fukui, list) or any(not isinstance(p, list) or len(p) != 2 for p in fukui):
            raise ValueError("fukui must be an array of [f_minus, f_plus] pairs")
        fukui = [(finite_number("fukui value", fm), finite_number("fukui value", fp))
                 for fm, fp in fukui]
    return MolecularGraph(id=rec["id"], atoms=atoms, bonds=bonds, targets=targets, fukui=fukui)


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
        except json.JSONDecodeError as e:
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


_ELEMENT_INDEX = {el: k for k, el in enumerate(SUPPORTED_ELEMENTS)}
_MAX_ONE_HOT = 4


def pack_graphs(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node features, atom offsets and neighbour table of ``graphs``, stacked in order.

    ``x`` has the :func:`featurize` layout, one row per atom; molecule k owns
    rows ``offsets[k]:offsets[k + 1]``. Row v of ``neighbors`` lists atom v
    and its bonded neighbours, ascending, padded with the atom count. The
    first atom in list order whose degree or implicit hydrogen count exceeds
    4 raises MoleculeError, its degree checked first.
    """
    starts = [0, *accumulate(len(g.atoms) for g in graphs)]
    n = starts[-1]
    # Per atom: element column, hydrogen column, aromatic flag. A hydrogen
    # count past int64 makes this an object array, which the check below reads.
    codes = np.array([c for g in graphs for a in g.atoms
                      for c in (_ELEMENT_INDEX[a.element], 11 + a.implicit_hydrogens, a.aromatic)])
    codes = codes.reshape(n, 3)
    # Key row * n + neighbour: each atom's self key, then both directions of each bond.
    keys = [*range(0, n * (n + 1), n + 1)]
    keys += [k for g, base in zip(graphs, [s * (n + 1) for s in starts]) for i, j, _ in g.bonds
             for k in (base + i * n + j, base + j * n + i)]
    keys = np.array(keys)
    keys.sort()
    rows, nbrs = np.divmod(keys, n)
    widths = np.bincount(rows)  # degree + 1
    width = widths.max()
    # Element columns stop at 4 and the flag at 1, so only a hydrogen column passes 15.
    if width > _MAX_ONE_HOT + 1 or codes.max() > 11 + _MAX_ONE_HOT:
        degrees, hydrogens = widths - 1, codes[:, 1] - 11
        v = int(((degrees > _MAX_ONE_HOT) | (hydrogens > _MAX_ONE_HOT)).argmax())
        m = int(np.searchsorted(starts, v, side="right")) - 1
        where = f"molecule {graphs[m].id!r}: atom {v - starts[m]}"
        if degrees[v] > _MAX_ONE_HOT:
            raise MoleculeError(f"{where} degree {degrees[v]} > {_MAX_ONE_HOT}")
        raise MoleculeError(f"{where} implicit hydrogen count {hydrogens[v]} > {_MAX_ONE_HOT}")
    x = np.zeros((n, FEATURE_DIM))
    x[:, 10] = codes[:, 2]
    codes[:, 2] = widths + 4  # the degree column, 5 + degree
    x[np.arange(n)[:, None], codes] = 1.0
    neighbors = np.empty((n, width), dtype=np.intp)
    neighbors.fill(n)
    # Keys are sorted, so row r's keys run from rows.searchsorted(r), ascending.
    neighbors[rows, np.arange(len(keys)) - rows.searchsorted(rows)] = nbrs
    return x, np.array(starts), neighbors


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
