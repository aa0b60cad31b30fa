"""SMILES parsing, molecular graphs, and canonical serialization.

The grammar covers the subset found in therapeutics tables: organic-subset
and bracket atoms, charges, isotopes, atom maps, ring closures (including
%nn), branches, aromatic lowercase atoms, dot-separated components, and
tetrahedral / cis-trans stereo annotations. Aromaticity is taken as written;
no perception or kekulization is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "Atom",
    "Bond",
    "Molecule",
    "SmilesParseError",
    "parse_smiles",
    "strip_atom_maps",
    "write_canonical",
]

# Bond orders are stored as small ints; AROMATIC is categorical, not a valence.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4

_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}

# Bare (unbracketed) atoms allowed by the organic subset, and their aromatic forms.
_ORGANIC = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "*"}
_AROMATIC_ORGANIC = {"b", "c", "n", "o", "p", "s"}

# Default valences used to derive implicit hydrogen counts for bare atoms.
_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

_ELEMENTS = {
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg", "Al",
    "Si", "P", "S", "Cl", "Ar", "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn", "Fe",
    "Co", "Ni", "Cu", "Zn", "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr",
    "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd", "Pm", "Sm",
    "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb", "Lu", "Hf", "Ta", "W",
    "Re", "Os", "Ir", "Pt", "Au", "Hg", "Tl", "Pb", "Bi", "Po", "At", "Rn",
    "Fr", "Ra", "Ac", "Th", "Pa", "U", "Np", "Pu", "*",
}


class SmilesParseError(ValueError):
    """Parse failure with the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Atom:
    symbol: str
    aromatic: bool = False
    charge: int = 0
    isotope: int | None = None
    hcount: int = 0
    map_num: int | None = None
    chirality: str | None = None  # "@" or "@@" as written
    bracket: bool = False  # written in [] with an explicit H count


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: int = SINGLE
    direction: str | None = None  # "/" or "\\", oriented from a to b

    def other(self, idx: int) -> int:
        return self.b if idx == self.a else self.a


@dataclass(frozen=True)
class Molecule:
    """Attributed molecular graph. Immutable once constructed."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    # As-written neighbor lists (atom indices, with "H" marking a bracket
    # hydrogen slot); needed to interpret tetrahedral annotations.
    written_order: tuple[tuple, ...] = ()

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("molecule must contain at least one atom")
        seen = set()
        for bond in self.bonds:
            if bond.a == bond.b:
                raise ValueError("self-bond")
            if not (0 <= bond.a < len(self.atoms) and 0 <= bond.b < len(self.atoms)):
                raise ValueError("bond references missing atom")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise ValueError("duplicate bond")
            seen.add(key)
        if not self.written_order:
            object.__setattr__(
                self, "written_order", tuple(() for _ in self.atoms)
            )

    def neighbors(self) -> list[list[tuple[int, Bond]]]:
        adj: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append((bond.b, bond))
            adj[bond.b].append((bond.a, bond))
        return adj

    def components(self) -> list[list[int]]:
        adj = self.neighbors()
        seen = [False] * len(self.atoms)
        comps = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps


def implied_hydrogens(symbol: str, aromatic: bool, bond_orders) -> int:
    """Implicit H count for a bare organic-subset atom.

    Aromatic bonds contribute 1.5 to the valence sum. Aromatic heteroatoms
    written bare carry no implicit hydrogens (an aromatic N-H must be spelled
    [nH]); aromatic carbon fills up to valence 4.
    """
    if symbol not in _VALENCES:
        return 0
    total = 0.0
    for order in bond_orders:
        total += 1.5 if order == AROMATIC else order
    need = math.ceil(total)
    if aromatic:
        if symbol != "C":
            return 0
        return max(0, 4 - need)
    for valence in _VALENCES[symbol]:
        if valence >= need:
            return valence - need
    return 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[dict] = []
        self.bonds: list[dict] = []
        self.order: list[list] = []  # per-atom written neighbor order
        self.prev: int | None = None
        self.pending: tuple[int | None, str | None, int] | None = None
        self.branch_stack: list[int | None] = []
        # ring number -> (atom, pending bond, offset, slot marker)
        self.rings: dict[int, tuple[int, tuple | None, int, object]] = {}
        self.bond_keys: set[tuple[int, int]] = set()

    def error(self, message: str, offset: int | None = None):
        raise SmilesParseError(message, self.pos if offset is None else offset)

    def parse(self) -> Molecule:
        text = self.text
        n = len(text)
        while self.pos < n:
            ch = text[self.pos]
            if ch == "(":
                if self.prev is None:
                    self.error("branch before any atom")
                if self.pending is not None:
                    self.error("bond symbol before '('")
                self.branch_stack.append(self.prev)
                self.pos += 1
            elif ch == ")":
                if not self.branch_stack:
                    self.error("unmatched ')'")
                if self.pending is not None:
                    self.error("dangling bond symbol before ')'")
                self.prev = self.branch_stack.pop()
                self.pos += 1
            elif ch in "-=#:":
                self._set_pending(_BOND_CHARS[ch], None)
                self.pos += 1
            elif ch in "/\\":
                self._set_pending(SINGLE, ch)
                self.pos += 1
            elif ch == ".":
                if self.pending is not None:
                    self.error("bond symbol before '.'")
                if self.branch_stack:
                    self.error("'.' inside a branch")
                self.prev = None
                self.pos += 1
            elif ch.isdigit() or ch == "%":
                self._ring_closure()
            elif ch == "[":
                self._bracket_atom()
            else:
                self._bare_atom()
        if self.branch_stack:
            self.error("unclosed '('", len(text))
        if self.rings:
            nums = ", ".join(str(k) for k in sorted(self.rings))
            self.error(f"unmatched ring closure {nums}", len(text))
        if self.pending is not None:
            self.error("dangling bond symbol", len(text))
        if not self.atoms:
            self.error("no atoms", 0)
        return self._build()

    def _set_pending(self, order: int, direction: str | None):
        if self.prev is None:
            self.error("bond symbol before any atom")
        if self.pending is not None:
            self.error("two bond symbols in a row")
        self.pending = (order, direction, self.pos)

    def _take_pending(self) -> tuple[int | None, str | None]:
        if self.pending is None:
            return None, None
        order, direction, _ = self.pending
        self.pending = None
        return order, direction

    def _add_atom(self, atom: dict) -> int:
        idx = len(self.atoms)
        self.atoms.append(atom)
        self.order.append([])
        if self.prev is not None:
            order, direction = self._take_pending()
            self._add_bond(self.prev, idx, order, direction)
        else:
            self._take_pending()
        # A bracket hydrogen on a stereocenter occupies a neighbor slot right
        # after the preceding atom (or first, for an opening atom).
        if atom.get("hcount", 0) == 1 and atom.get("chirality") and atom.get("bracket"):
            self.order[idx].append("H")
        self.prev = idx
        return idx

    def _add_bond(self, a: int, b: int, order: int | None, direction: str | None):
        key = (min(a, b), max(a, b))
        if key in self.bond_keys:
            self.error(f"duplicate bond between atoms {a} and {b}")
        self.bond_keys.add(key)
        self.bonds.append({"a": a, "b": b, "order": order, "direction": direction})
        self.order[a].append(b)
        self.order[b].append(a)

    def _ring_closure(self):
        text = self.text
        start = self.pos
        if text[self.pos] == "%":
            if self.pos + 2 >= len(text) or not text[self.pos + 1 : self.pos + 3].isdigit():
                self.error("'%' needs two digits")
            num = int(text[self.pos + 1 : self.pos + 3])
            self.pos += 3
        else:
            num = int(text[self.pos])
            self.pos += 1
        if self.prev is None:
            self.error("ring closure before any atom", start)
        order, direction = self._take_pending()
        if num in self.rings:
            open_atom, open_bond, open_off, marker = self.rings.pop(num)
            if open_atom == self.prev:
                self.error(f"ring bond {num} to the same atom", start)
            open_order, open_dir = open_bond if open_bond else (None, None)
            if order is not None and open_order is not None and order != open_order:
                self.error(f"conflicting bond orders for ring {num}", start)
            final = order if order is not None else open_order
            # Direction chars orient from the atom they were written after.
            if open_dir is None and direction is not None:
                open_dir = "\\" if direction == "/" else "/"
            key = (min(open_atom, self.prev), max(open_atom, self.prev))
            if key in self.bond_keys:
                self.error(f"duplicate ring bond {num}", start)
            self.bond_keys.add(key)
            self.bonds.append(
                {"a": open_atom, "b": self.prev, "order": final, "direction": open_dir}
            )
            # Patch the opener's reserved stereo slot; append at the closer.
            slot = self.order[open_atom].index(marker)
            self.order[open_atom][slot] = self.prev
            self.order[self.prev].append(open_atom)
        else:
            marker = ("ring", num, start)
            self.rings[num] = (self.prev, (order, direction) if order is not None or direction else None, start, marker)
            self.order[self.prev].append(marker)

    def _bare_atom(self):
        text = self.text
        ch = text[self.pos]
        start = self.pos
        if ch.isupper() or ch == "*":
            symbol = ch
            if self.pos + 1 < len(text) and text[self.pos : self.pos + 2] in ("Cl", "Br"):
                symbol = text[self.pos : self.pos + 2]
                self.pos += 2
            else:
                self.pos += 1
            if symbol not in _ELEMENTS:
                self.error(f"unknown element {symbol!r}", start)
            if symbol not in _ORGANIC:
                self.error(f"atom '{symbol}' must be written in brackets", start)
            self._add_atom({"symbol": symbol, "aromatic": False, "bracket": False})
        elif ch in _AROMATIC_ORGANIC:
            self.pos += 1
            self._add_atom({"symbol": ch.upper(), "aromatic": True, "bracket": False})
        else:
            self.error(f"unexpected character {ch!r}", start)

    def _bracket_atom(self):
        text = self.text
        start = self.pos
        end = text.find("]", self.pos)
        if end == -1:
            self.error("unclosed '['", start)
        body = text[self.pos + 1 : end]
        pos = 0

        isotope = None
        while pos < len(body) and body[pos].isdigit():
            pos += 1
        if pos:
            isotope = int(body[:pos])

        aromatic = False
        symbol = None
        rest = body[pos:]
        for cand in ("se", "as", "te", "si"):
            if rest.startswith(cand):
                symbol, aromatic = cand.capitalize(), True
                pos += 2
                break
        if symbol is None and pos < len(body):
            ch = body[pos]
            if ch == "*":
                symbol = "*"
                pos += 1
            elif ch.islower():
                if ch not in _AROMATIC_ORGANIC:
                    self.error(f"unknown aromatic element {ch!r}", start + 1 + pos)
                symbol, aromatic = ch.upper(), True
                pos += 1
            elif ch.isupper():
                if pos + 1 < len(body) and body[pos + 1].islower() and body[pos : pos + 2] in _ELEMENTS:
                    symbol = body[pos : pos + 2]
                    pos += 2
                else:
                    symbol = ch
                    pos += 1
                if symbol not in _ELEMENTS:
                    self.error(f"unknown element {symbol!r}", start + 1 + pos)
        if symbol is None:
            self.error("bracket atom missing element", start)

        chirality = None
        if pos < len(body) and body[pos] == "@":
            chirality = "@"
            pos += 1
            if pos < len(body) and body[pos] == "@":
                chirality = "@@"
                pos += 1

        hcount = 0
        if pos < len(body) and body[pos] == "H":
            pos += 1
            digits = ""
            while pos < len(body) and body[pos].isdigit():
                digits += body[pos]
                pos += 1
            hcount = int(digits) if digits else 1

        charge = 0
        if pos < len(body) and body[pos] in "+-":
            sign = 1 if body[pos] == "+" else -1
            run = 0
            while pos < len(body) and body[pos] in "+-":
                if (body[pos] == "+") != (sign > 0):
                    self.error("mixed charge signs", start + 1 + pos)
                run += 1
                pos += 1
            digits = ""
            while pos < len(body) and body[pos].isdigit():
                digits += body[pos]
                pos += 1
            if digits:
                if run > 1:
                    self.error("malformed charge", start + 1 + pos)
                charge = sign * int(digits)
            else:
                charge = sign * run

        map_num = None
        if pos < len(body) and body[pos] == ":":
            pos += 1
            digits = ""
            while pos < len(body) and body[pos].isdigit():
                digits += body[pos]
                pos += 1
            if not digits:
                self.error("atom map ':' needs digits", start + 1 + pos)
            map_num = int(digits)

        if pos != len(body):
            self.error(f"malformed bracket atom {body!r}", start + 1 + pos)

        self.pos = end + 1
        self._add_atom(
            {
                "symbol": symbol,
                "aromatic": aromatic,
                "charge": charge,
                "isotope": isotope,
                "hcount": hcount,
                "map_num": map_num,
                "chirality": chirality,
                "bracket": True,
            }
        )

    def _build(self) -> Molecule:
        adj_orders: list[list[int]] = [[] for _ in self.atoms]
        final_bonds = []
        for spec in self.bonds:
            a, b = spec["a"], spec["b"]
            order = spec["order"]
            if order is None:
                both_aromatic = (
                    self.atoms[a].get("aromatic") and self.atoms[b].get("aromatic")
                )
                order = AROMATIC if both_aromatic else SINGLE
            final_bonds.append(
                Bond(a=a, b=b, order=order, direction=spec["direction"])
            )
            adj_orders[a].append(order)
            adj_orders[b].append(order)

        final_atoms = []
        for idx, spec in enumerate(self.atoms):
            hcount = spec.get("hcount", 0)
            if not spec.get("bracket"):
                hcount = implied_hydrogens(
                    spec["symbol"], spec.get("aromatic", False), adj_orders[idx]
                )
            final_atoms.append(
                Atom(
                    symbol=spec["symbol"],
                    aromatic=spec.get("aromatic", False),
                    charge=spec.get("charge", 0),
                    isotope=spec.get("isotope"),
                    hcount=hcount,
                    map_num=spec.get("map_num"),
                    chirality=spec.get("chirality"),
                    bracket=spec.get("bracket", False),
                )
            )
        return Molecule(
            atoms=tuple(final_atoms),
            bonds=tuple(final_bonds),
            written_order=tuple(tuple(o) for o in self.order),
        )


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a molecular graph.

    Dot-separated input yields a single disconnected graph; its
    ``components()`` are the atom indices of each connected part.
    """
    if not text:
        raise SmilesParseError("empty SMILES", 0)
    return _Parser(text).parse()


def strip_atom_maps(mol: Molecule) -> Molecule:
    """Return the same graph with every atom-map annotation cleared."""
    if all(a.map_num is None for a in mol.atoms):
        return mol
    return Molecule(
        atoms=tuple(replace(a, map_num=None) for a in mol.atoms),
        bonds=mol.bonds,
        written_order=mol.written_order,
    )


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _initial_invariant(atom: Atom, degree: int) -> tuple:
    # Chirality symbols are writing-order dependent and must not influence
    # ranks; they are re-derived at emission time.
    return (
        atom.symbol,
        atom.aromatic,
        atom.charge,
        atom.isotope or 0,
        atom.hcount,
        degree,
        atom.map_num or 0,
    )


def _refine(adj, ranks: dict[int, int]) -> dict[int, int]:
    atoms = list(ranks)
    while True:
        keys = {}
        for a in atoms:
            nbr = tuple(sorted((b.order, ranks[v]) for v, b in adj[a] if v in ranks))
            keys[a] = (ranks[a], nbr)
        ordered = sorted(set(keys.values()))
        index = {k: i for i, k in enumerate(ordered)}
        new_ranks = {a: index[keys[a]] for a in atoms}
        if len(ordered) == len(set(ranks.values())):
            return new_ranks
        ranks = new_ranks


def _rank_component(mol: Molecule, adj, comp: list[int]) -> dict[int, int]:
    degree = {a: len(adj[a]) for a in comp}
    inv = {a: _initial_invariant(mol.atoms[a], degree[a]) for a in comp}
    ordered = sorted(set(inv.values()))
    index = {k: i for i, k in enumerate(ordered)}
    return _refine(adj, {a: index[inv[a]] for a in comp})


def _canonical_component(mol: Molecule, adj, comp: list[int]) -> str:
    ranks = _rank_component(mol, adj, comp)
    return _canonical_search(mol, adj, comp, ranks, _direction_clusters(mol, comp))


def _direction_clusters(mol: Molecule, comp: list[int]) -> dict[tuple[int, int], int]:
    """Map each directional bond (a, b) to its cluster of bonds whose tokens
    may only flip together.

    Flipping every token in a cluster spells the same configuration, so the
    emitter may orient each cluster independently. Bonds belong to one
    cluster when they share an atom or flank the same double bond.
    """
    comp_set = set(comp)
    directional = [
        b for b in mol.bonds
        if b.direction and b.a in comp_set and b.b in comp_set
    ]
    parent = list(range(len(directional)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    touches: dict[int, list[int]] = {}
    for i, b in enumerate(directional):
        touches.setdefault(b.a, []).append(i)
        touches.setdefault(b.b, []).append(i)
    for members in touches.values():
        for other in members[1:]:
            union(members[0], other)
    for bond in mol.bonds:
        if bond.order == DOUBLE and bond.a in comp_set and bond.b in comp_set:
            ends = touches.get(bond.a, []) + touches.get(bond.b, [])
            for other in ends[1:]:
                union(ends[0], other)
    return {(b.a, b.b): find(i) for i, b in enumerate(directional)}


def _canonical_search(mol, adj, comp, ranks, clusters) -> str:
    by_rank: dict[int, list[int]] = {}
    for a in comp:
        by_rank.setdefault(ranks[a], []).append(a)
    tied = [r for r, members in by_rank.items() if len(members) > 1]
    if not tied:
        return _emit(mol, adj, comp, ranks, clusters)
    members = by_rank[min(tied)]
    best = None
    for chosen in members:
        promoted = {
            a: (r * 2 if a != chosen else r * 2 - 1) for a, r in ranks.items()
        }
        ordered = sorted(set(promoted.values()))
        index = {k: i for i, k in enumerate(ordered)}
        candidate = _canonical_search(
            mol, adj, comp, _refine(adj, {a: index[promoted[a]] for a in comp}), clusters
        )
        if best is None or candidate < best:
            best = candidate
    return best


def _perm_parity(src: list, dst: list) -> int:
    if sorted(map(str, src)) != sorted(map(str, dst)):
        return 0
    remaining = list(range(len(src)))
    perm = []
    used = [False] * len(src)
    for item in dst:
        for j in range(len(src)):
            if not used[j] and src[j] == item:
                used[j] = True
                perm.append(j)
                break
    swaps = 0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        swaps += length - 1
    return swaps % 2


def _bond_token(bond: Bond, from_atom: int, atoms, clusters, flips) -> str:
    if bond.order == DOUBLE:
        return "="
    if bond.order == TRIPLE:
        return "#"
    if bond.order == AROMATIC:
        if atoms[bond.a].aromatic and atoms[bond.b].aromatic:
            return ""
        return ":"
    if bond.direction:
        token = bond.direction
        if from_atom != bond.a:
            token = "\\" if token == "/" else "/"
        # The first token written of each cluster sets the cluster's
        # orientation so that this token is "/".
        if flips.setdefault(clusters[bond.a, bond.b], token == "\\"):
            token = "\\" if token == "/" else "/"
        return token
    if atoms[bond.a].aromatic and atoms[bond.b].aromatic:
        return "-"
    return ""


def _atom_token(atom: Atom, bond_orders, chirality: str | None) -> str:
    symbol = atom.symbol.lower() if atom.aromatic else atom.symbol
    bare_ok = (
        atom.symbol in _ORGANIC
        and (not atom.aromatic or atom.symbol.lower() in _AROMATIC_ORGANIC)
        and atom.charge == 0
        and atom.isotope is None
        and atom.map_num is None
        and chirality is None
        and atom.hcount
        == implied_hydrogens(atom.symbol, atom.aromatic, bond_orders)
    )
    if bare_ok:
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if chirality:
        parts.append(chirality)
    if atom.hcount == 1:
        parts.append("H")
    elif atom.hcount > 1:
        parts.append(f"H{atom.hcount}")
    if atom.charge:
        sign = "+" if atom.charge > 0 else "-"
        mag = abs(atom.charge)
        parts.append(sign if mag == 1 else f"{sign}{mag}")
    if atom.map_num is not None:
        parts.append(f":{atom.map_num}")
    parts.append("]")
    return "".join(parts)


def _emit(
    mol: Molecule,
    adj,
    comp: list[int],
    ranks: dict[int, int],
    clusters: dict[tuple[int, int], int],
) -> str:
    atoms = mol.atoms
    root = min(comp, key=lambda a: ranks[a])

    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {a: [] for a in comp}
    ring_digits: dict[int, list[tuple[int, Bond, int]]] = {a: [] for a in comp}
    visited = {root}
    next_digit = [1]
    order_visit = []

    def closure_digit() -> int:
        d = next_digit[0]
        next_digit[0] += 1
        return d

    stack = [root]
    closed: set[tuple[int, int]] = set()
    while stack:
        u = stack.pop()
        order_visit.append(u)
        for v, bond in sorted(adj[u], key=lambda nb: ranks[nb[0]]):
            if v == parent.get(u):
                continue
            key = (min(u, v), max(u, v))
            if v in visited:
                if key not in closed:
                    closed.add(key)
                    digit = closure_digit()
                    ring_digits[v].append((digit, bond, u))
                    ring_digits[u].append((digit, bond, v))
            else:
                visited.add(v)
                parent[v] = u
                children[u].append(v)
        # Depth-first in rank order: push children reversed.
        for v in reversed(children[u]):
            stack.append(v)

    bond_orders = {a: [b.order for _, b in adj[a]] for a in comp}

    out = []
    flips: dict[int, bool] = {}  # cluster -> tokens written flipped

    def emit_atom(u: int):
        atom = atoms[u]
        chirality = atom.chirality
        if chirality and atom.bracket:
            stored = list(mol.written_order[u])
            emitted: list = []
            if parent[u] is not None:
                emitted.append(parent[u])
            if atom.hcount == 1:
                emitted.append("H")
            emitted.extend(v for _, _, v in ring_digits[u])
            emitted.extend(children[u])
            if len(stored) == len(emitted) and len(stored) >= 3:
                if _perm_parity(stored, emitted):
                    chirality = "@@" if chirality == "@" else "@"
        out.append(_atom_token(atom, bond_orders[u], chirality))
        for digit, bond, _ in ring_digits[u]:
            # Emit any non-default bond symbol at the opening site only.
            if (min(bond.a, bond.b), max(bond.a, bond.b)) not in emitted_rings:
                emitted_rings.add((min(bond.a, bond.b), max(bond.a, bond.b)))
                out.append(_bond_token(bond, u, atoms, clusters, flips))
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        kids = children[u]
        for i, v in enumerate(kids):
            bond = next(b for w, b in adj[u] if w == v)
            token = _bond_token(bond, u, atoms, clusters, flips)
            if i < len(kids) - 1:
                out.append("(")
                out.append(token)
                emit_atom(v)
                out.append(")")
            else:
                out.append(token)
                emit_atom(v)

    emitted_rings: set[tuple[int, int]] = set()
    emit_atom(root)
    return "".join(out)


def write_canonical(mol: Molecule) -> str:
    """Deterministic canonical SMILES.

    Atom order is fixed by iterative neighborhood refinement; residual ties
    are resolved by trying each tied atom and keeping the lexicographically
    smallest serialization, so any input ordering of the same labeled graph
    produces the same string. Components are serialized independently,
    sorted, and joined with '.'.

    Cis/trans direction tokens are oriented per cluster (the bonds whose
    tokens may only flip together): each cluster's first written token is
    "/", and that fixes the cluster's other tokens. Flipping a cluster
    changes only its own tokens, so this is the smallest of all respellings,
    and equivalent direction spellings give one string for any number of
    stereo bonds.
    """
    adj = mol.neighbors()
    parts = [_canonical_component(mol, adj, comp) for comp in mol.components()]
    return ".".join(sorted(parts))
