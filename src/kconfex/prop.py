"""Propositional formulas over named boolean variables.

Provides evaluation, equivalence checking by exhaustive enumeration,
Tseitin conversion to CNF, and the two textual outputs: DIMACS and the
one-constraint-per-line ``.model`` format.
"""

from __future__ import annotations

import functools
import gc
from itertools import chain
from operator import attrgetter
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import FormatError, MissingVariable, TooManyVariables

__all__ = [
    "PropFormula",
    "Var",
    "TRUE",
    "FALSE",
    "NotF",
    "AndF",
    "OrF",
    "Implies",
    "Iff",
    "var",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "formula_vars",
    "evaluate",
    "evaluate_mask",
    "equivalent",
    "formula_text",
    "Constraint",
    "ConstraintSet",
    "CnfFormula",
    "tseitin_cnf",
    "write_dimacs",
    "parse_dimacs",
]


def _gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused.

    The extract path's builders (``parse_model``, ``translate``,
    ``ConstraintSet.model_text``, ``tseitin_cnf``) allocate many container
    objects and keep most of them, so each young collection promotes them
    and the older collections rescan every live node again.  Their
    structures are acyclic (``test_extract_path_leaves_no_reference_cycles``),
    so reference counting alone frees their garbage, and what they allocate
    costs one young collection after the collector resumes.

    The pause is process-wide: no thread's cyclic garbage is collected
    while it lasts.  No other thread of the package runs meanwhile:
    ``run_corpus``'s workers are processes, each with its own collector.
    If the collector is already disabled on entry (by the caller, or by an
    enclosing paused call), it is left alone; otherwise it is enabled again
    on return and on an exception.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


_set = object.__setattr__


class Record:
    """A record whose equality and ``repr`` come from its fields.

    ``_fields`` names the fields in the order of ``__init__``'s parameters,
    and ``_uncompared`` the ones that equality leaves out.  A record equals
    only a record of exactly its class whose compared fields are equal; its
    ``repr`` is ``Class(field=value, ...)`` over all fields.  A mutable
    record is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        compared = [name for name in cls._fields if name not in cls._uncompared]
        if compared:
            cls._key = attrgetter(*compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable record: hashable, and assigning or deleting an attribute
    raises :class:`AttributeError`.  ``__init__`` sets the fields with
    ``_set``; copies and unpickled instances are rebuilt through it."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


# The node classes below are final: none has a subclass
# (``test_node_classes_are_final``), so code that walks formulas dispatches
# on ``type(node) is Kind`` rather than on an ``isinstance`` chain.


class PropFormula(Value):
    __slots__ = ()


class Var(PropFormula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("variable names must be nonempty")
        _set(self, "name", name)


class _Const(PropFormula):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool) -> None:
        _set(self, "value", value)


TRUE = _Const(True)
FALSE = _Const(False)


class NotF(PropFormula):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: PropFormula) -> None:
        _set(self, "operand", operand)


class AndF(PropFormula):
    __slots__ = _fields = ("operands",)

    def __init__(self, operands: tuple[PropFormula, ...]) -> None:
        _set(self, "operands", operands)


class OrF(PropFormula):
    __slots__ = _fields = ("operands",)

    def __init__(self, operands: tuple[PropFormula, ...]) -> None:
        _set(self, "operands", operands)


class Implies(PropFormula):
    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: PropFormula, consequent: PropFormula) -> None:
        _set(self, "antecedent", antecedent)
        _set(self, "consequent", consequent)


class Iff(PropFormula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: PropFormula, right: PropFormula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


# --------------------------------------------------------------------------
# Folding constructors.  Constant subformulas never survive construction,
# which keeps emitted constraints small and makes CNF conversion simpler.


def var(name: str) -> PropFormula:
    return Var(name)


def not_(f: PropFormula) -> PropFormula:
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if type(f) is NotF:
        return f.operand
    return NotF(f)


def and_(*fs: PropFormula) -> PropFormula:
    flat: list[PropFormula] = []
    for f in fs:
        if f is FALSE:
            return FALSE
        if f is TRUE:
            continue
        if type(f) is AndF:
            flat.extend(f.operands)
        else:
            flat.append(f)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndF(tuple(flat))


def or_(*fs: PropFormula) -> PropFormula:
    flat: list[PropFormula] = []
    for f in fs:
        if f is TRUE:
            return TRUE
        if f is FALSE:
            continue
        if type(f) is OrF:
            flat.extend(f.operands)
        else:
            flat.append(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrF(tuple(flat))


def implies(a: PropFormula, b: PropFormula) -> PropFormula:
    if a is FALSE or b is TRUE:
        return TRUE
    if a is TRUE:
        return b
    if b is FALSE:
        return not_(a)
    return Implies(a, b)


def iff(a: PropFormula, b: PropFormula) -> PropFormula:
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return not_(b)
    if b is FALSE:
        return not_(a)
    if a == b:
        return TRUE
    return Iff(a, b)


# --------------------------------------------------------------------------
# Evaluation


def formula_vars(f: PropFormula) -> list[str]:
    """Variable names in first-occurrence order of a pre-order walk.

    A subtree object met a second time is skipped: every variable in it was
    already seen, so the order is that of the full tree walk, at a cost linear
    in the number of distinct node objects.
    """
    seen: dict[str, None] = {}
    _walk_vars(f, seen, set())
    return list(seen)


def _walk_vars(node: PropFormula, seen: dict[str, None], walked: set[int]) -> None:
    kind = type(node)
    if kind is Var:
        seen.setdefault(node.name)
        return
    key = id(node)
    if key in walked:
        return
    walked.add(key)
    if kind is NotF:
        _walk_vars(node.operand, seen, walked)
    elif kind is AndF or kind is OrF:
        for op in node.operands:
            _walk_vars(op, seen, walked)
    elif kind is Implies:
        _walk_vars(node.antecedent, seen, walked)
        _walk_vars(node.consequent, seen, walked)
    elif kind is Iff:
        _walk_vars(node.left, seen, walked)
        _walk_vars(node.right, seen, walked)


def evaluate(f: PropFormula, assignment: dict[str, bool]) -> bool:
    """Standard boolean semantics; the assignment must cover every variable."""
    kind = type(f)
    if kind is Var:
        try:
            return assignment[f.name]
        except KeyError:
            raise MissingVariable(f.name) from None
    if kind is _Const:
        return f.value
    if kind is NotF:
        return not evaluate(f.operand, assignment)
    if kind is AndF:
        return all(evaluate(op, assignment) for op in f.operands)
    if kind is OrF:
        return any(evaluate(op, assignment) for op in f.operands)
    if kind is Implies:
        return (not evaluate(f.antecedent, assignment)) or evaluate(f.consequent, assignment)
    if kind is Iff:
        return evaluate(f.left, assignment) == evaluate(f.right, assignment)
    raise TypeError(f"not a formula node: {f!r}")


def evaluate_mask(f: PropFormula, masks: dict[str, int], ones: int) -> int:
    """Evaluate over all assignments at once, one bit per assignment.

    ``masks`` maps each variable to its truth pattern (one missing raises
    :class:`MissingVariable`); ``ones`` is the all-assignments mask.  Bit k
    of the result is the verdict under assignment k.
    """
    try:
        return _mask(f, masks, ones)
    except KeyError as exc:
        raise MissingVariable(exc.args[0]) from None


def _mask(f: PropFormula, masks: dict[str, int], ones: int) -> int:
    # A variable operand is read inline, without a call per leaf.
    kind = type(f)
    if kind is NotF:
        op = f.operand
        return ones ^ (masks[op.name] if type(op) is Var else _mask(op, masks, ones))
    if kind is AndF:
        acc = ones
        for op in f.operands:
            acc &= masks[op.name] if type(op) is Var else _mask(op, masks, ones)
            if acc == 0:
                break
        return acc
    if kind is OrF:
        acc = 0
        for op in f.operands:
            acc |= masks[op.name] if type(op) is Var else _mask(op, masks, ones)
            if acc == ones:
                break
        return acc
    if kind is Var:
        return masks[f.name]
    if kind is Implies:
        a, c = f.antecedent, f.consequent
        held = masks[a.name] if type(a) is Var else _mask(a, masks, ones)
        return (ones ^ held) | (masks[c.name] if type(c) is Var else _mask(c, masks, ones))
    if kind is Iff:
        a, b = f.left, f.right
        held = masks[a.name] if type(a) is Var else _mask(a, masks, ones)
        return ones ^ held ^ (masks[b.name] if type(b) is Var else _mask(b, masks, ones))
    if kind is _Const:
        return ones if f.value else 0
    raise TypeError(f"not a formula node: {f!r}")


def assignment_masks(names: Iterable[str]) -> tuple[dict[str, int], int]:
    """Truth-pattern masks enumerating all assignments over ``names``.

    Bit k of the mask for the i-th variable is ``(k >> i) & 1``.
    """
    names = list(names)
    width = 1 << len(names)
    ones = (1 << width) - 1
    masks: dict[str, int] = {}
    for i, name in enumerate(names):
        period = 1 << (i + 1)
        pattern = ((1 << (1 << i)) - 1) << (1 << i)  # one period: zeros, then ones
        filled = period
        while filled < width:
            pattern |= pattern << filled
            filled <<= 1
        masks[name] = pattern & ones
    return masks, ones


EQUIV_VAR_BOUND = 24


def equivalent(f: PropFormula, g: PropFormula) -> bool:
    """True iff ``f`` and ``g`` agree on every total assignment over the
    union of their variables.  Raises :class:`TooManyVariables` past the
    enumeration bound of 24 variables."""
    names: dict[str, None] = {}
    for name in formula_vars(f):
        names.setdefault(name)
    for name in formula_vars(g):
        names.setdefault(name)
    if len(names) > EQUIV_VAR_BOUND:
        raise TooManyVariables(len(names), EQUIV_VAR_BOUND)
    masks, ones = assignment_masks(names)
    return evaluate_mask(f, masks, ones) == evaluate_mask(g, masks, ones)


# --------------------------------------------------------------------------
# Textual constraint format


def formula_text(f: PropFormula) -> str:
    """Render with operators ``!``, ``&``, ``|``, ``=>``, ``<=>`` and the
    constants ``1``/``0``; parenthesized by precedence."""
    return _Renderer().render(f, 0)


class _Renderer:
    """Formula text that renders each compound node object once.

    ``done`` maps ``id(node)`` to the node's text without outer parentheses
    and its precedence level (<=> 1, => 2, | 3, & 4, ! 5); the use site adds
    the parentheses its own level needs.  The caller keeps every rendered
    node alive while the renderer is in use, so no id is reused.
    """

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done: dict[int, tuple[str, int]] = {}

    def render(self, node: PropFormula, parent: int) -> str:
        kind = type(node)
        if kind is Var:
            return node.name
        if kind is _Const:
            return "1" if node.value else "0"
        key = id(node)
        entry = self.done.get(key)
        if entry is None:
            entry = self.done[key] = self._compound(node)
        text, level = entry
        return f"({text})" if parent > level else text

    def _compound(self, node: PropFormula) -> tuple[str, int]:
        render = self.render
        kind = type(node)
        # A variable operand is written in place rather than by a call.
        if kind is AndF:
            ops = [op.name if type(op) is Var else render(op, 4) for op in node.operands]
            return " & ".join(ops), 4
        if kind is OrF:
            ops = [op.name if type(op) is Var else render(op, 3) for op in node.operands]
            return " | ".join(ops), 3
        if kind is NotF:
            op = node.operand
            return "!" + (op.name if type(op) is Var else render(op, 5)), 5
        if kind is Implies:
            return f"{render(node.antecedent, 3)} => {render(node.consequent, 2)}", 2
        if kind is Iff:
            return f"{render(node.left, 2)} <=> {render(node.right, 2)}", 1
        raise TypeError(f"not a formula node: {node!r}")


class Constraint(NamedTuple):
    formula: PropFormula
    provenance: str  # "<item-or-choice>:<rule>"


class ConstraintSet(Record):
    """Ordered constraints whose semantics is their conjunction."""

    _fields = ("constraints", "variable_order")

    def __init__(
        self, constraints: list[Constraint] | None = None, variable_order: list[str] | None = None
    ) -> None:
        self.constraints = [] if constraints is None else constraints
        self.variable_order = [] if variable_order is None else variable_order

    def conjunction(self) -> PropFormula:
        return and_(*(c.formula for c in self.constraints))

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    @_gc_paused
    def model_text(self) -> str:
        """One ``formula  # provenance`` line per constraint.  Subformulas
        shared between constraints are rendered once, so the cost is linear
        in the distinct nodes and the length of the text."""
        render = _Renderer().render
        return "".join(
            [f"{render(c.formula, 0)}  # {c.provenance}\n" for c in self.constraints]
        )


# --------------------------------------------------------------------------
# CNF


class CnfFormula(Record):
    _fields = ("num_vars", "clauses", "var_map", "aux_definitions")

    def __init__(
        self,
        num_vars: int,
        clauses: list[tuple[int, ...]],
        var_map: dict[str, int],  # name -> positive index; original variables first
        aux_definitions: dict[int, PropFormula] | None = None,
    ) -> None:
        self.num_vars = num_vars
        self.clauses = clauses
        self.var_map = var_map
        self.aux_definitions = {} if aux_definitions is None else aux_definitions


@_gc_paused
def tseitin_cnf(f: PropFormula, var_order: Iterable[str]) -> CnfFormula:
    """Convert to CNF with one auxiliary variable per distinct gate: an And,
    Or, Implies or Iff node, told apart by its operator and its operand
    literals.  A negation reuses its operand's literal, negated, and gets
    none.  For formulas built by the folding constructors, which never nest
    a negation in a negation or put a constant under an operator, two nodes
    share a gate exactly when they are structurally equal.

    ``var_order`` numbers the original variables and must name every
    variable of ``f`` (one it leaves out raises :class:`MissingVariable`);
    ``formula_vars(f)`` numbers them in first-occurrence order.

    The conversion preserves per-assignment verdicts: extending any total
    assignment of the original variables by the (unique) induced auxiliary
    values satisfies the clauses iff the formula holds.  Auxiliary variables
    are named ``__aux<k>`` and listed after the originals in ``var_map``.
    Duplicate literals are dropped from a clause, first occurrence kept, and
    tautological clauses are left out.  The cost is linear in the number of
    distinct node objects and the total length of the clauses.
    """
    var_map: dict[str, int] = {}
    # The negation of every literal.  Each literal in the clauses is one of
    # these int objects, so clauses share them instead of holding a copy of
    # the same number each.
    neg: dict[int, int] = {}

    for name in var_order:
        if name not in var_map:
            idx = var_map[name] = len(var_map) + 1
            neg[idx] = -idx
            neg[neg[idx]] = idx
    originals = len(var_map)
    get = var_map.get

    clauses: list[tuple[int, ...]] = []
    aux_definitions: dict[int, PropFormula] = {}
    by_id: dict[int, int] = {}  # id of a compound node -> its literal
    # Per operator: operand literals -> auxiliary.  The keys hold only ints,
    # so they hash in C and the collector stops tracking them.
    gates: dict[type, dict[tuple[int, ...], int]] = {AndF: {}, OrF: {}, Implies: {}, Iff: {}}

    def add(clause: tuple[int, ...]) -> None:
        # Tautological clauses carry no information and would violate the
        # no-complementary-literals invariant.
        distinct = dict.fromkeys(clause)
        for lit in distinct:
            if neg[lit] in distinct:
                return
        clauses.append(clause if len(distinct) == len(clause) else tuple(distinct))

    def literal(node: PropFormula) -> int:
        # Returns a literal equisatisfiable with the node, defining auxiliary
        # variables (with both polarities) for compound nodes.  A variable
        # operand is looked up in place rather than by a call; a missing one
        # falls through to ``literal``, which raises.
        op = type(node)
        if op is Var:
            try:
                return var_map[node.name]
            except KeyError:
                raise MissingVariable(node.name) from None
        if op is NotF:
            o = node.operand
            return neg[(type(o) is Var and get(o.name)) or literal(o)]
        g = by_id.get(id(node))
        if g is not None:
            return g
        table = gates.get(op)
        if table is None:
            raise TypeError(f"not a formula node: {node!r}")
        if op is AndF or op is OrF:
            operands = node.operands
        elif op is Implies:
            operands = (node.antecedent, node.consequent)
        else:
            operands = (node.left, node.right)
        lits = tuple([(type(o) is Var and get(o.name)) or literal(o) for o in operands])
        g = table.get(lits)
        if g is None:
            g = table[lits] = originals + len(aux_definitions) + 1
            ng = neg[g] = -g
            neg[ng] = g
            aux_definitions[g] = node
            # A fresh ``g`` occurs in no operand literal, so a clause of ``g``
            # and one operand literal never holds a repeat or a complementary
            # pair.  A longer clause can only when two operand literals name
            # the same variable; only then does it go through ``add``.
            emit = clauses.append if len(set(map(abs, lits))) == len(lits) else add
            if op is AndF:
                clauses.extend([(ng, lit) for lit in lits])
                emit((g, *[neg[lit] for lit in lits]))
            elif op is OrF:
                clauses.extend([(neg[lit], g) for lit in lits])
                emit((ng, *lits))
            elif op is Implies:
                a, b = lits
                emit((ng, neg[a], b))
                clauses.append((g, a))
                clauses.append((g, neg[b]))
            else:
                a, b = lits
                emit((ng, neg[a], b))
                emit((ng, a, neg[b]))
                emit((g, a, b))
                emit((g, neg[a], neg[b]))
        by_id[id(node)] = g
        return g

    try:
        if f is FALSE:
            clauses.append(())
        elif f is not TRUE:
            clauses.append((literal(f),))
    finally:
        # ``literal`` refers to itself; breaking the cycle frees the node
        # tables now rather than at the next cyclic garbage collection.
        del literal

    for k, g in enumerate(aux_definitions):
        name = f"__aux{k}"
        if name in var_map:
            raise ValueError(f"variable {name!r} has the name of an auxiliary variable")
        var_map[name] = g
    return CnfFormula(
        num_vars=originals + len(aux_definitions),
        clauses=clauses,
        var_map=var_map,
        aux_definitions=aux_definitions,
    )


def write_dimacs(cnf: CnfFormula, sink: IO[bytes]) -> None:
    """Emit DIMACS: name comments, the ``p cnf`` header, one clause per line.

    Byte-deterministic; LF endings, single spaces.
    """
    clauses = cnf.clauses
    header = [f"c {idx} {name}\n" for name, idx in cnf.var_map.items()]
    header.append(f"p cnf {cnf.num_vars} {len(clauses)}\n")
    # One format operation for all clauses: a line template per clause,
    # filled from the concatenated literals.
    templates = {n: "%d " * n + "0\n" for n in set(map(len, clauses))}
    body = "".join(map(templates.__getitem__, map(len, clauses)))
    body %= tuple(chain.from_iterable(clauses))
    sink.write(("".join(header) + body).encode("utf-8"))


def parse_dimacs(source: IO[bytes]) -> CnfFormula:
    """Inverse of :func:`write_dimacs`; clauses come back as tuples, in order.

    A ``c <index> <name>`` line names a variable.  Raises
    :class:`FormatError` with the line number on a malformed or repeated
    header, a negative count, an index named twice or out of the declared
    range, a name given two indices, and a malformed clause.
    """
    var_map: dict[str, int] = {}
    name_lines: dict[int, int] = {}  # index -> line that named it
    clauses: list[tuple[int, ...]] = []
    num_vars: int | None = None
    declared_clauses = 0
    for lineno, raw in enumerate(source.read().decode("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split(maxsplit=2)
            if len(parts) == 3 and parts[1].isdecimal():
                idx, name = int(parts[1]), parts[2]
                if idx in name_lines:
                    raise FormatError(f"variable {idx} named twice", lineno)
                if name in var_map:
                    raise FormatError(f"name {name!r} given two indices", lineno)
                var_map[name] = idx
                name_lines[idx] = lineno
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise FormatError("malformed DIMACS header", lineno)
            if num_vars is not None:
                raise FormatError("second DIMACS header", lineno)
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise FormatError("malformed DIMACS header", lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise FormatError("negative count in DIMACS header", lineno)
            continue
        if num_vars is None:
            raise FormatError("clause before DIMACS header", lineno)
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError("malformed clause line", lineno) from None
        if not lits or lits[-1] != 0:
            raise FormatError("clause line does not end with 0", lineno)
        body = lits[:-1]
        if any(lit == 0 for lit in body):
            raise FormatError("literal 0 inside clause", lineno)
        if any(abs(lit) > num_vars for lit in body):
            raise FormatError("literal exceeds declared variable count", lineno)
        clauses.append(tuple(body))
    if num_vars is None:
        raise FormatError("missing DIMACS header", 1)
    for idx, lineno in name_lines.items():
        if not 1 <= idx <= num_vars:
            raise FormatError(f"named variable {idx} is outside 1..{num_vars}", lineno)
    if len(clauses) != declared_clauses:
        raise FormatError(
            f"declared {declared_clauses} clauses, found {len(clauses)}", 1
        )
    return CnfFormula(num_vars=num_vars, clauses=clauses, var_map=var_map)
