"""SMILES parsing, molecular graphs, and canonical serialization.

The grammar covers the subset found in therapeutics tables: organic-subset
and bracket atoms, charges, isotopes, atom maps, ring closures (including
%nn), branches, aromatic lowercase atoms, dot-separated components, and
tetrahedral / cis-trans stereo annotations. Aromaticity is taken as written;
no perception or kekulization is attempted.
"""

from __future__ import annotations

import math

from ..value import Frozen, set_field, set_fields

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


class Atom(Frozen):
    # chirality: "@" or "@@" as written; bracket: written in [] with an
    # explicit H count.
    __slots__ = ("symbol", "aromatic", "charge", "isotope", "hcount", "map_num", "chirality", "bracket")

    def __init__(
        self, symbol: str, aromatic: bool = False, charge: int = 0, isotope: int | None = None,
        hcount: int = 0, map_num: int | None = None, chirality: str | None = None, bracket: bool = False,
    ):
        set_field(self, "symbol", symbol)
        set_field(self, "aromatic", aromatic)
        set_field(self, "charge", charge)
        set_field(self, "isotope", isotope)
        set_field(self, "hcount", hcount)
        set_field(self, "map_num", map_num)
        set_field(self, "chirality", chirality)
        set_field(self, "bracket", bracket)


class Bond(Frozen):
    __slots__ = ("a", "b", "order", "direction")  # direction: "/" or "\\", oriented from a to b

    def __init__(self, a: int, b: int, order: int = SINGLE, direction: str | None = None):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "order", order)
        set_field(self, "direction", direction)


class Molecule(Frozen):
    """Attributed molecular graph. Immutable once constructed: assigning or
    deleting a field raises AttributeError."""

    # written_order: as-written neighbor lists (atom indices, "H" marking a bracket hydrogen
    # slot), for tetrahedral annotations; by default one empty tuple per atom.
    __slots__ = ("atoms", "bonds", "written_order")

    def __init__(self, atoms: tuple[Atom, ...], bonds: tuple[Bond, ...], written_order: tuple[tuple, ...] = ()):
        if not atoms:
            raise ValueError("molecule must contain at least one atom")
        seen = set()
        for bond in bonds:
            if bond.a == bond.b:
                raise ValueError("self-bond")
            if not (0 <= bond.a < len(atoms) and 0 <= bond.b < len(atoms)):
                raise ValueError("bond references missing atom")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise ValueError("duplicate bond")
            seen.add(key)
        set_fields(self, (atoms, bonds, written_order or tuple(() for _ in atoms)))

    def neighbors(self) -> list[list[tuple[int, Bond]]]:
        adj: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append((bond.b, bond))
            adj[bond.b].append((bond.a, bond))
        return adj

    def components(self) -> list[list[int]]:
        return _components(self.neighbors())


def _components(adj) -> list[list[int]]:
    """The sorted atom indices of each connected part of the molecule whose
    neighbor lists are adj, in order of their lowest atom."""
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
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


def _refill_hydrogens(atoms, bonds) -> tuple[Atom, ...]:
    """``atoms`` with the H count of each bare atom implied from ``bonds``."""
    orders: list[list[int]] = [[] for _ in atoms]
    for bond in bonds:
        orders[bond.a].append(bond.order)
        orders[bond.b].append(bond.order)
    return tuple(
        atom if atom.bracket
        else Atom(atom.symbol, atom.aromatic, atom.charge, atom.isotope,
                  implied_hydrogens(atom.symbol, atom.aromatic, orders[i]),
                  atom.map_num, atom.chirality)
        for i, atom in enumerate(atoms)
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# The longest number a bracket atom may write: int() refuses strings past a
# few thousand digits, and no isotope, count, charge or map needs 19.
_MAX_DIGITS = 18


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[Atom] = []  # bare atoms get their H count in _build
        self.bonds: list[Bond] = []
        self.order: list[list] = []  # per-atom written neighbor order
        self.prev: int | None = None
        self.pending: tuple[int, str | None] | None = None
        self.branch_stack: list[int | None] = []
        # ring number -> (atom, bond order, direction, atom's reserved order slot)
        self.rings: dict[int, tuple[int, int | None, str | None, int]] = {}

    def error(self, message: str, offset: int | None = None):
        raise SmilesParseError(message, self.pos if offset is None else offset)

    def _digits(self, body: str, pos: int) -> tuple[int | None, int]:
        """The integer written at ``body[pos:]`` of the bracket atom being read
        (None without a digit) and the position after it.

        Only ASCII 0-9 are digits: str.isdigit also accepts "²", which int()
        rejects, and "٣", which SMILES does not spell. Either is an error at
        its offset, as it is outside brackets.
        """
        end = pos
        while end < len(body) and "0" <= body[end] <= "9":
            end += 1
        if body[end : end + 1].isdigit():
            self.error(f"unexpected character {body[end]!r}", self.pos + 1 + end)
        if end - pos > _MAX_DIGITS:
            self.error("number too long", self.pos + 1 + pos)
        return (int(body[pos:end]) if end > pos else None), end

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
            elif "0" <= ch <= "9" or ch == "%":
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
        self.pending = (order, direction)

    def _take_pending(self) -> tuple[int | None, str | None]:
        pending = self.pending or (None, None)
        self.pending = None
        return pending

    def _add_atom(self, atom: Atom):
        idx = len(self.atoms)
        self.atoms.append(atom)
        self.order.append([])
        order, direction = self._take_pending()
        if self.prev is not None:
            self._add_bond(self.prev, idx, order, direction)
            self.order[self.prev].append(idx)
            self.order[idx].append(self.prev)
        # A bracket hydrogen on a stereocenter occupies a neighbor slot right
        # after the preceding atom (or first, for an opening atom).
        if atom.hcount == 1 and atom.chirality and atom.bracket:
            self.order[idx].append("H")
        self.prev = idx

    def _add_bond(self, a: int, b: int, order: int | None, direction: str | None):
        """Add the bond a-b, written from a; ``order`` None takes the default."""
        if order is None:
            order = AROMATIC if self.atoms[a].aromatic and self.atoms[b].aromatic else SINGLE
        self.bonds.append(Bond(a, b, order, direction))

    def _ring_closure(self):
        text = self.text
        start = self.pos
        if text[start] == "%":
            pair = text[start + 1 : start + 3]
            if not (len(pair) == 2 and pair.isascii() and pair.isdigit()):
                self.error("'%' needs two digits")
            num = int(pair)
            self.pos += 3
        else:
            num = int(text[start])
            self.pos += 1
        if self.prev is None:
            self.error("ring closure before any atom", start)
        order, direction = self._take_pending()
        if num not in self.rings:
            # Reserve the opener's stereo slot; the closer fills it.
            self.rings[num] = (self.prev, order, direction, len(self.order[self.prev]))
            self.order[self.prev].append(None)
            return
        open_atom, open_order, open_dir, slot = self.rings.pop(num)
        if open_atom == self.prev:
            self.error(f"ring bond {num} to the same atom", start)
        if order is not None and open_order is not None and order != open_order:
            self.error(f"conflicting bond orders for ring {num}", start)
        # Direction chars orient from the atom they were written after.
        if open_dir is None and direction is not None:
            open_dir = "\\" if direction == "/" else "/"
        final = order if order is not None else open_order
        # Only a ring closure can repeat a bond: a chain bond goes to a new atom.
        if open_atom in self.order[self.prev]:
            self.error(f"duplicate ring bond {num}", start)
        self._add_bond(open_atom, self.prev, final, open_dir)
        self.order[open_atom][slot] = self.prev
        self.order[self.prev].append(open_atom)

    def _bare_atom(self):
        text = self.text
        start = self.pos
        ch = text[start]
        if ch.isupper() or ch == "*":
            symbol = text[start : start + 2] if text[start : start + 2] in ("Cl", "Br") else ch
            self.pos += len(symbol)
            if symbol not in _ELEMENTS:
                self.error(f"unknown element {symbol!r}", start)
            if symbol not in _ORGANIC:
                self.error(f"atom '{symbol}' must be written in brackets", start)
            self._add_atom(Atom(symbol))
        elif ch in _AROMATIC_ORGANIC:
            self.pos += 1
            self._add_atom(Atom(ch.upper(), aromatic=True))
        else:
            self.error(f"unexpected character {ch!r}", start)

    def _bracket_atom(self):
        text = self.text
        start = self.pos
        end = text.find("]", start)
        if end == -1:
            self.error("unclosed '['", start)
        body = text[start + 1 : end]
        isotope, pos = self._digits(body, 0)

        aromatic = False
        symbol = None
        if body[pos : pos + 2] in ("se", "as", "te", "si"):
            symbol, aromatic = body[pos : pos + 2].capitalize(), True
            pos += 2
        elif pos < len(body):
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
                else:
                    symbol = ch
                pos += len(symbol)
                if symbol not in _ELEMENTS:
                    self.error(f"unknown element {symbol!r}", start + 1 + pos)
        if symbol is None:
            self.error("bracket atom missing element", start)

        chirality = None
        if body.startswith("@", pos):
            chirality = "@@" if body.startswith("@@", pos) else "@"
            pos += len(chirality)

        hcount = 0
        if body.startswith("H", pos):
            count, pos = self._digits(body, pos + 1)
            hcount = 1 if count is None else count

        charge = 0
        if body[pos : pos + 1] in ("+", "-"):
            sign = body[pos]
            run_start = pos
            while body[pos : pos + 1] in ("+", "-"):
                if body[pos] != sign:
                    self.error("mixed charge signs", start + 1 + pos)
                pos += 1
            run = pos - run_start
            magnitude, pos = self._digits(body, pos)
            if magnitude is not None and run > 1:
                self.error("malformed charge", start + 1 + pos)
            charge = (1 if sign == "+" else -1) * (run if magnitude is None else magnitude)

        map_num = None
        if body.startswith(":", pos):
            map_num, pos = self._digits(body, pos + 1)
            if map_num is None:
                self.error("atom map ':' needs digits", start + 1 + pos)

        if pos != len(body):
            self.error(f"malformed bracket atom {body!r}", start + 1 + pos)

        self.pos = end + 1
        self._add_atom(Atom(symbol, aromatic, charge, isotope, hcount, map_num, chirality, bracket=True))

    def _build(self) -> Molecule:
        return Molecule(
            atoms=_refill_hydrogens(self.atoms, self.bonds),
            bonds=tuple(self.bonds),
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
        atoms=tuple(
            Atom(a.symbol, a.aromatic, a.charge, a.isotope, a.hcount, None, a.chirality, a.bracket)
            for a in mol.atoms
        ),
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


def _dense_ranks(keys: dict[int, object]) -> dict[int, int]:
    """Rank each atom by the position of its key among the sorted distinct keys."""
    index = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    return {a: index[k] for a, k in keys.items()}


def _refine(adj, ranks: dict[int, int]) -> dict[int, int]:
    """Refine dense ranks until no class splits, and return them dense.

    Each round splits every class at once by its atoms' sorted (bond order,
    neighbour rank) pairs, and orders the parts by those keys within the
    class's place. Ranks only need to keep their order for that, so an atom
    is labelled with the number of atoms ranked below its class: a part
    that starts where its class started keeps its label. After the first
    round, an atom whose neighbours kept their labels has the key its whole
    class shared a round ago, so a round re-keys only the neighbours of
    atoms relabelled in the one before, and one other atom per class.
    """
    label: dict[int, int] = {}
    starts: dict[int, int] = {}
    for i, a in enumerate(sorted(ranks, key=ranks.__getitem__)):
        label[a] = starts.setdefault(ranks[a], i)
    cells: dict[int, set[int]] = {}
    for a, start in label.items():
        cells.setdefault(start, set()).add(a)

    def key(a: int) -> tuple:
        return tuple(sorted((b.order, label[v]) for v, b in adj[a]))

    touched = set(ranks)
    while touched:
        by_cell: dict[int, list[int]] = {}
        for a in touched:
            by_cell.setdefault(label[a], []).append(a)
        # Every part is found before any label moves: a round keys on the
        # labels the round began with.
        splits = []
        for start, moved in by_cell.items():
            members = cells[start]
            if len(members) == 1:
                continue
            parts: dict[tuple, set[int]] = {}
            for a in moved:
                parts.setdefault(key(a), set()).add(a)
            rest = members.difference(moved)
            if rest:
                parts.setdefault(key(next(iter(rest))), set()).update(rest)
            if len(parts) > 1:
                splits.append((start, parts))
        relabelled: list[int] = []
        for start, parts in splits:
            at = start
            for k in sorted(parts):
                cell = cells[at] = parts[k]
                if at != start:
                    for a in cell:
                        label[a] = at
                    relabelled.extend(cell)
                at += len(cell)
        touched = {v for a in relabelled for v, _ in adj[a]}
    index = {start: i for i, start in enumerate(sorted(cells))}
    return {a: index[label[a]] for a in ranks}


def _rank_component(mol: Molecule, adj, comp: list[int]) -> dict[int, int]:
    return _refine(adj, _dense_ranks({a: _initial_invariant(mol.atoms[a], len(adj[a])) for a in comp}))


# Canonical strings of the components written so far in this process, keyed
# by _component_key. Emptied when full. Each read, write and clear is one
# dict operation, atomic under the GIL, so threads need no lock: two that
# miss at once both search and store the same string, and the memo may pass
# its cap by one entry per such thread until the next clear.
_COMPONENT_MEMO_SIZE = 4096
_component_memo: dict[tuple, str] = {}


def _component_key(mol: Molecule, comp: list[int]) -> tuple:
    """Every field the writer reads of a component, with atoms numbered by
    their position in ``comp``.

    A chiral atom adds its written neighbour order if it is a bracket atom,
    and None if not. ``bracket`` and ``written_order`` are read nowhere
    else, so a bare atom and a bracket atom that spell the same atom share
    a key."""
    local = {a: i for i, a in enumerate(comp)}
    atoms = []
    for a in comp:
        atom = mol.atoms[a]
        fields = (atom.symbol, atom.aromatic, atom.charge, atom.isotope, atom.hcount, atom.map_num, atom.chirality)
        if atom.chirality:
            # "H", like any entry outside the component, is wrapped so that it
            # cannot pass for a local position.
            order = tuple(local.get(v, (v,)) for v in mol.written_order[a]) if atom.bracket else None
            fields += (order,)
        atoms.append(fields)
    bonds = tuple((local[b.a], local[b.b], b.order, b.direction) for b in mol.bonds if b.a in local)
    return tuple(atoms), bonds


def _canonical_component(mol: Molecule, adj, comp: list[int]) -> str:
    key = _component_key(mol, comp)
    text = _component_memo.get(key)
    if text is None:
        ranks = _rank_component(mol, adj, comp)
        text = _canonical_search(mol, adj, comp, ranks, _direction_clusters(mol, comp))
        if len(_component_memo) >= _COMPONENT_MEMO_SIZE:
            _component_memo.clear()
        _component_memo[key] = text
    return text


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
    """The least string written at a leaf of the individualisation tree.

    A node whose ranks still tie splits its first tied class: each member
    in turn is promoted ahead of its class, and the ranks are refined again.
    Two leaves that write the same string give an automorphism, which maps
    the k-th atom written at one to the k-th atom written at the other. It
    keeps everything the string encodes, stereo included, so a subtree and
    its image write the same strings. A member is skipped when the
    automorphisms found so far that fix every atom promoted on the path to
    the node map an explored member onto it (nauty's orbit rule: McKay &
    Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014).
    """
    first_written: dict[str, list[int]] = {}  # string -> atom order at its first leaf
    automorphisms: list[dict[int, int]] = []  # each as its moved atoms

    def search(ranks: dict[int, int], path: tuple[int, ...]) -> str:
        by_rank: dict[int, list[int]] = {}
        for a in comp:
            by_rank.setdefault(ranks[a], []).append(a)
        tied = [r for r, members in by_rank.items() if len(members) > 1]
        if not tied:
            text, written = _emit(mol, adj, comp, ranks, clusters)
            first = first_written.setdefault(text, written)
            moved = {a: b for a, b in zip(first, written) if a != b}
            if moved:
                automorphisms.append(moved)
            return text
        orbit: dict[int, int] = {}  # union-find parent; a root is no key

        def find(a: int) -> int:
            while a in orbit:
                a = orbit[a]
            return a

        used = 0
        explored: list[int] = []
        best = None
        for chosen in by_rank[min(tied)]:
            for moved in automorphisms[used:]:
                if not any(v in moved for v in path):
                    for a, b in moved.items():
                        a, b = find(a), find(b)
                        if a != b:
                            orbit[a] = b
            used = len(automorphisms)
            if any(find(chosen) == find(e) for e in explored):
                continue
            explored.append(chosen)
            promoted = _dense_ranks({a: 2 * r - (a == chosen) for a, r in ranks.items()})
            candidate = search(_refine(adj, promoted), path + (chosen,))
            if best is None or candidate < best:
                best = candidate
        return best

    return search(ranks, ())


def _perm_parity(src, dst) -> int:
    """Parity of the permutation taking ``src`` to ``dst``, two orders of
    the same distinct items; 0 when the items differ."""
    if sorted(map(str, src)) != sorted(map(str, dst)):
        return 0
    where = {item: i for i, item in enumerate(src)}
    perm = [where[item] for item in dst]
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return inversions % 2


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
) -> tuple[str, list[int]]:
    """The string written from ``ranks``, a discrete ranking, and the atoms
    in the order it writes them."""
    atoms = mol.atoms
    root = min(comp, key=lambda a: ranks[a])

    # Depth-first in rank order. Popping order is the written order, so the
    # endpoint of a ring bond popped first opens it and writes its bond token.
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[tuple[int, Bond]]] = {a: [] for a in comp}
    # Each ring bond once per endpoint: (digit, bond, partner, opens here).
    rings: dict[int, list[tuple[int, Bond, int, bool]]] = {a: [] for a in comp}
    digits = 0
    popped = set()
    stack = [root]
    while stack:
        u = stack.pop()
        popped.add(u)
        for v, bond in sorted(adj[u], key=lambda nb: ranks[nb[0]]):
            if v in popped:  # u's parent, or a ring bond that v opened
                continue
            if v in parent:
                digits += 1
                rings[u].append((digits, bond, v, True))
                rings[v].append((digits, bond, u, False))
            else:
                parent[v] = u
                children[u].append((v, bond))
        stack.extend(v for v, _ in reversed(children[u]))

    out = []
    written: list[int] = []
    flips: dict[int, bool] = {}  # cluster -> tokens written flipped
    # Writing order, as a stack of literal tokens and of (atom, bond from its
    # parent). A bond's token is made when it is written, since the first
    # token written of each cluster orients the cluster.
    stack: list = [(root, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u, bond = item
        written.append(u)
        if bond is not None:
            out.append(_bond_token(bond, parent[u], atoms, clusters, flips))
        atom = atoms[u]
        chirality = atom.chirality
        if chirality and atom.bracket:
            stored = mol.written_order[u]
            emitted: list = [] if parent[u] is None else [parent[u]]
            if atom.hcount == 1:
                emitted.append("H")
            emitted.extend(v for _, _, v, _ in rings[u])
            emitted.extend(v for v, _ in children[u])
            if len(stored) == len(emitted) >= 3 and _perm_parity(stored, emitted):
                chirality = "@@" if chirality == "@" else "@"
        out.append(_atom_token(atom, [b.order for _, b in adj[u]], chirality))
        for digit, bond, _, opens in rings[u]:
            # Write any non-default bond symbol at the opening site only.
            if opens:
                out.append(_bond_token(bond, u, atoms, clusters, flips))
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        # Every child but the last is a parenthesised branch.
        branches = children[u]
        if branches:
            stack.append(branches[-1])
            for branch in reversed(branches[:-1]):
                stack += (")", branch, "(")
    return "".join(out), written


def write_canonical(mol: Molecule) -> str:
    """Deterministic canonical SMILES.

    Atom order is fixed by iterative neighborhood refinement; residual ties
    are resolved by trying each tied atom and keeping the lexicographically
    smallest serialization, so any input ordering of the same labeled graph
    produces the same string. A tied atom that a symmetry already found maps
    onto a tried one is skipped, since it writes the same strings, so a
    symmetric molecule costs a few tries rather than the product of its
    tie sizes. Components are serialized independently, sorted, and joined
    with '.'.

    Cis/trans direction tokens are oriented per cluster (the bonds whose
    tokens may only flip together): each cluster's first written token is
    "/", and that fixes the cluster's other tokens. Flipping a cluster
    changes only its own tokens, so this is the smallest of all respellings,
    and equivalent direction spellings give one string for any number of
    stereo bonds.

    Each component's string is kept in one bounded memo per process, keyed
    by the fields the writer reads, so a component is searched once however
    many molecules and spellings contain it. Spellings share an entry when
    they list the component's atoms in the same order: a bare atom and its
    bracket spelling do, as do an atom-mapped component after
    ``strip_atom_maps`` and its unmapped spelling. A component spelled in
    another atom order is searched again, to the same string.
    """
    adj = mol.neighbors()
    parts = [_canonical_component(mol, adj, comp) for comp in _components(adj)]
    return ".".join(sorted(parts))
