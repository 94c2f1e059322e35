"""Propositional formulas over named boolean variables.

Provides bit-parallel evaluation over many assignments, Tseitin conversion
to CNF, and the two textual outputs: DIMACS and the one-constraint-per-line
``.model`` format.
"""

from __future__ import annotations

import functools
import gc
from array import array
from itertools import islice
from operator import attrgetter
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import FormatError, MissingVariable, numbered_lines

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
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "evaluate_mask",
    "Constraint",
    "ConstraintSet",
    "CnfFormula",
    "tseitin_cnf",
    "write_dimacs",
    "parse_dimacs",
]


def _gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused, and move what it
    keeps straight to the oldest generation.

    The extract path's builders (``parse_model``, ``translate``,
    ``ConstraintSet.model_text``, ``tseitin_cnf``) allocate many container
    objects and keep most of them.  Left in the youngest generation, each
    survivor would be scanned by the next young collection and again by the
    next middle one.  Their structures are acyclic
    (``test_extract_path_leaves_no_reference_cycles``), so reference
    counting alone frees their garbage and those scans can find nothing.

    When the collector is enabled on entry and the application has frozen
    nothing (``gc.freeze``), the pause does two more things.  On entry,
    ``gc.collect(1)`` collects the two young generations, the caller's young
    cyclic garbage included, and promotes their survivors with the usual
    accounting; this is cheap because they stay small.  On a normal return,
    ``gc.freeze()`` then ``gc.unfreeze()`` splice every object allocated
    during the call, all of it in the youngest generation since no
    collection ran, into the oldest generation in O(1).  A full collection
    still scans them, but no young one does.  Otherwise nothing extra
    happens: on an exception, when the collector was already disabled (by
    the caller, or by an enclosing paused call), and when the application
    has frozen objects, whose freeze is thus never undone.  Telling whether
    it has walks the permanent generation, which is empty unless the
    application froze something.

    The pause and the promotion are process-wide: while a call lasts no
    thread's cyclic garbage is collected, and at its return another
    thread's young objects move to the oldest generation too.  No other
    thread of the package runs meanwhile: ``run_corpus``'s workers are
    processes, each with its own collector.  The collector is enabled again
    on return and on an exception unless it was disabled on entry.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        promote = gc.get_freeze_count() == 0
        if promote:
            gc.collect(1)
        gc.disable()
        try:
            result = fn(*args, **kwargs)
            if promote:
                gc.freeze()
                gc.unfreeze()
            return result
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


# --------------------------------------------------------------------------
# Textual constraint format


# The precedence level of each binary operator; ``!`` is 5, above them all,
# so a negation never needs parentheses.
_LEVELS = {Iff: 1, Implies: 2, OrF: 3, AndF: 4}


class _Renderer:
    """Formula text that renders each And, Or, Implies and Iff node object
    once.

    ``done`` maps ``id(node)`` to the node's text without outer parentheses;
    the use site adds the parentheses its own level needs, against the
    node's level in ``_LEVELS``.  A negation is not kept: its text is ``!``
    and its operand's text, built again at each use, which costs no more
    than its share of the output.  Nor is a root, a node rendered at parent
    level 0: its line already holds the text.  A root that recurs inside
    another formula is kept from its first inner use, so the cost stays
    linear.  The caller keeps every rendered node alive while the renderer
    is in use, so no id is reused.
    """

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done: dict[int, str] = {}

    def render(self, node: PropFormula, parent: int) -> str:
        kind = type(node)
        if kind is Var:
            return node.name
        if kind is NotF:
            op = node.operand
            return "!" + (op.name if type(op) is Var else self.render(op, 5))
        if kind is _Const:
            return "1" if node.value else "0"
        key = id(node)
        text = self.done.get(key)
        if text is None:
            text = self._compound(node)
            if parent:
                self.done[key] = text
        return f"({text})" if parent > _LEVELS[kind] else text

    def _compound(self, node: PropFormula) -> str:
        render = self.render
        kind = type(node)
        # A variable operand is written in place rather than by a call.
        if kind is AndF:
            return " & ".join([op.name if type(op) is Var else render(op, 4) for op in node.operands])
        if kind is OrF:
            return " | ".join([op.name if type(op) is Var else render(op, 3) for op in node.operands])
        if kind is Implies:
            return f"{render(node.antecedent, 3)} => {render(node.consequent, 2)}"
        if kind is Iff:
            return f"{render(node.left, 2)} <=> {render(node.right, 2)}"
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


class Clauses(Record):
    """The clauses of a :class:`CnfFormula`, stored flat as C ints:
    ``literals`` is an ``array("i")`` of every clause's literals one clause
    after another, ``sizes`` an ``array("i")`` of each clause's length, in
    order.  No object is kept per clause or per literal.  It reads as a
    sequence of clauses: ``len`` counts them and iteration yields each as a
    tuple of ints; it equals another :class:`Clauses` with the same clauses.
    """

    __slots__ = _fields = ("literals", "sizes")

    def __init__(self, literals: array, sizes: array) -> None:
        self.literals = literals
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        literals = self.literals
        start = 0
        for size in self.sizes:
            yield tuple(literals[start : start + size])
            start += size

    def __repr__(self) -> str:
        return repr(list(self))


def _auxiliary(name: str, count: int) -> int | None:
    """``k`` when ``name`` is ``__aux<k>``, the DIMACS name of auxiliary
    ``k`` of ``count``, else None."""
    digits = name[5:]
    # The length check keeps ``int`` off digit strings too long to convert.
    if name.startswith("__aux") and digits.isascii() and digits.isdigit() and len(digits) <= len(str(count)):
        k = int(digits)
        if k < count and digits == str(k):
            return k
    return None


class CnfFormula(Record):
    """A CNF over variables ``1..num_vars``; ``clauses`` is a
    :class:`Clauses`.  ``var_map`` is the dict from the names of the named
    variables to their indices.  ``aux_definitions`` holds the subformula
    that each auxiliary variable stands for, in auxiliary order: the
    auxiliaries are the last ``len(aux_definitions)`` variables, unnamed in
    ``var_map``, and DIMACS output names them ``__aux0``, ``__aux1``, ...."""

    __slots__ = _fields = ("num_vars", "clauses", "var_map", "aux_definitions")

    def __init__(
        self,
        num_vars: int,
        clauses: Clauses,
        var_map: dict[str, int],
        aux_definitions: tuple[PropFormula, ...] = (),
    ) -> None:
        self.num_vars = num_vars
        self.clauses = clauses
        self.var_map = var_map
        self.aux_definitions = aux_definitions


# Runs of clause sizes that ``tseitin_cnf`` appends whole: ``_TWO * n`` for
# a gate's n binary clauses, and those of an Implies and an Iff gate.
_TWO = array("i", [2])
_IMPLIES_SIZES = array("i", [3, 2, 2])
_IFF_SIZES = array("i", [3, 3, 3, 3])


@_gc_paused
def tseitin_cnf(f: PropFormula, var_order: Iterable[str]) -> CnfFormula:
    """Convert to CNF with one auxiliary variable per distinct gate: an And,
    Or, Implies or Iff node, told apart by its operator and its operand
    literals.  A negation reuses its operand's literal, negated, and gets
    none.  For formulas built by the folding constructors, which never nest
    a negation in a negation or put a constant under an operator, two nodes
    share a gate exactly when they are structurally equal.

    ``var_order`` numbers the original variables and must name every
    variable of ``f`` (one it leaves out raises :class:`MissingVariable`).

    The conversion preserves per-assignment verdicts: extending any total
    assignment of the original variables by the (unique) induced auxiliary
    values satisfies the clauses iff the formula holds.  The auxiliaries
    follow the originals, and ``var_map`` is the dict of the originals
    alone; only DIMACS output names the auxiliaries, ``__aux0`` first, and
    an original of such a name raises :class:`ValueError`.
    ``aux_definitions`` is a tuple in auxiliary order.  Duplicate literals
    are dropped from a clause, first occurrence kept, and tautological
    clauses are left out.  The clauses go straight into the two
    ``array("i")`` of a :class:`Clauses`, each gate's literals converted
    to C ints in one ``fromlist`` call, with no object per clause.  The
    cost is linear in the number of distinct node objects and the total
    length of the clauses.
    """
    names: dict[str, int] = {}
    # The int object of each variable (``positive``) and of its negation
    # (``negative``), by variable.  The gate keys below hold these rather
    # than a copy of the same number each time.
    positive: list[int] = [0]
    negative: list[int] = [0]

    for name in var_order:
        if name not in names:
            idx = names[name] = len(names) + 1
            positive.append(idx)
            negative.append(-idx)
    originals = len(names)
    get = names.get

    literals = array("i")
    sizes = array("i")
    fromlist = literals.fromlist
    extend_sizes = sizes.extend
    aux_definitions: list[PropFormula] = []
    by_id: dict[int, int] = {}  # id of a compound node -> its literal
    # Per operator: operand literals -> auxiliary.  The keys hold only ints,
    # so they hash in C and the collector stops tracking them.
    gates: dict[type, dict[tuple[int, ...], int]] = {AndF: {}, OrF: {}, Implies: {}, Iff: {}}

    def add(clause: list[int]) -> None:
        # Tautological clauses carry no information and would violate the
        # no-complementary-literals invariant.
        distinct = dict.fromkeys(clause)
        for lit in distinct:
            if -lit in distinct:
                return
        fromlist(list(distinct))
        sizes.append(len(distinct))

    def literal(node: PropFormula) -> int:
        # Returns a literal equisatisfiable with the node, defining auxiliary
        # variables (with both polarities) for compound nodes.  A variable
        # operand, or a negated one, is looked up in place rather than by a
        # call; a missing one falls through to ``literal``, which raises.
        op = type(node)
        if op is Var:
            try:
                return names[node.name]
            except KeyError:
                raise MissingVariable(node.name) from None
        if op is NotF:
            o = node.operand
            lit = (type(o) is Var and get(o.name)) or literal(o)
            return negative[lit] if lit > 0 else positive[-lit]
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
        lits = []
        for o in operands:
            kind = type(o)
            if kind is Var:
                lit = get(o.name)
            elif kind is NotF and type(o.operand) is Var:
                lit = get(o.operand.name)
                lit = lit and negative[lit]
            else:
                lit = None
            lits.append(lit or literal(o))
        lits = tuple(lits)
        g = table.get(lits)
        if g is None:
            g = table[lits] = originals + len(aux_definitions) + 1
            ng = -g
            positive.append(g)
            negative.append(ng)
            aux_definitions.append(node)
            negated = [negative[lit] if lit > 0 else positive[-lit] for lit in lits]
            # A fresh ``g`` occurs in no operand literal, so a clause of ``g``
            # and one operand literal never holds a repeat or a complementary
            # pair.  A longer clause can only when two operand literals name
            # the same variable; only then does it go through ``add``.
            n = len(lits)
            if n == 2:
                a, b = lits
                plain = a != b and a != -b
            else:
                plain = len(set(map(abs, lits))) == n
            if op is AndF or op is OrF:
                # One binary clause per operand, then the long clause.
                if op is AndF:
                    pairs = [ng] * (2 * n)
                    pairs[1::2] = lits
                    long = [g, *negated]
                else:
                    pairs = [g] * (2 * n)
                    pairs[::2] = negated
                    long = [ng, *lits]
                extend_sizes(_TWO * n)
                if plain:
                    pairs += long
                    fromlist(pairs)
                    sizes.append(n + 1)
                else:
                    fromlist(pairs)
                    add(long)
            elif op is Implies:
                a, b = lits
                na, nb = negated
                if plain:
                    fromlist([ng, na, b, g, a, g, nb])
                    extend_sizes(_IMPLIES_SIZES)
                else:
                    add([ng, na, b])
                    fromlist([g, a, g, nb])
                    extend_sizes(_TWO * 2)
            else:
                a, b = lits
                na, nb = negated
                if plain:
                    fromlist([ng, na, b, ng, a, nb, g, a, b, g, na, nb])
                    extend_sizes(_IFF_SIZES)
                else:
                    add([ng, na, b])
                    add([ng, a, nb])
                    add([g, a, b])
                    add([g, na, nb])
        by_id[id(node)] = g
        return g

    try:
        if f is FALSE:
            sizes.append(0)
        elif f is not TRUE:
            literals.append(literal(f))
            sizes.append(1)
    finally:
        # ``literal`` refers to itself; breaking the cycle frees the node
        # tables now rather than at the next cyclic garbage collection.
        del literal

    auxiliaries = len(aux_definitions)
    clashes = [k for name in names if name.startswith("__aux") and (k := _auxiliary(name, auxiliaries)) is not None]
    if clashes:
        raise ValueError(f"variable '__aux{min(clashes)}' has the name of an auxiliary variable")
    return CnfFormula(
        num_vars=originals + auxiliaries,
        clauses=Clauses(literals, sizes),
        var_map=names,
        aux_definitions=tuple(aux_definitions),
    )


# Lines per write in ``write_dimacs``.
_CHUNK_LINES = 4096

# The most variables a CNF can have: its literals are C ints.
_MAX_VARS = 2**31 - 1


def _name_lines(cnf: CnfFormula) -> Iterator[str]:
    """The ``c <index> <name>`` lines of ``cnf``, ``_CHUNK_LINES`` at a
    time, each chunk in one format operation: those of ``var_map``, then
    one per auxiliary, ``__aux<k>`` formatted from its number ``k``."""
    names = cnf.var_map
    keys, indices = iter(names), iter(names.values())
    while chunk := list(islice(keys, _CHUNK_LINES)):
        fields = [None] * (2 * len(chunk))
        fields[::2] = islice(indices, len(chunk))
        fields[1::2] = chunk
        yield "c %d %s\n" * len(chunk) % tuple(fields)
    auxiliaries = len(cnf.aux_definitions)
    first = cnf.num_vars - auxiliaries + 1
    for start in range(0, auxiliaries, _CHUNK_LINES):
        stop = min(start + _CHUNK_LINES, auxiliaries)
        fields = [0] * (2 * (stop - start))
        fields[::2] = range(first + start, first + stop)
        fields[1::2] = range(start, stop)
        yield "c %d __aux%d\n" * (stop - start) % tuple(fields)


def write_dimacs(cnf: CnfFormula, sink: IO[bytes]) -> None:
    """Emit DIMACS: name comments, the ``p cnf`` header, one clause per line.

    Byte-deterministic; LF endings, single spaces.  The name lines and then
    the clause lines go to ``sink`` ``_CHUNK_LINES`` at a time, each chunk
    formatted from slices of the clause arrays, so no copy of the whole
    output is held.
    """
    write = sink.write
    for text in _name_lines(cnf):
        write(text.encode("utf-8"))
    literals, sizes = cnf.clauses.literals, cnf.clauses.sizes
    write(f"p cnf {cnf.num_vars} {len(sizes)}\n".encode("utf-8"))
    # One format operation per chunk: a line template per clause, filled
    # from the chunk's stretch of the flat literal list.  A clause of n
    # literals has a template of 3n + 2 characters, so the chunk's literal
    # count comes from the template's length.
    template = {n: "%d " * n + "0\n" for n in set(sizes)}.__getitem__
    end = 0
    for start in range(0, len(sizes), _CHUNK_LINES):
        chunk = sizes[start : start + _CHUNK_LINES]
        form = "".join(map(template, chunk))
        begin, end = end, end + (len(form) - 2 * len(chunk)) // 3
        write((form % tuple(literals[begin:end])).encode("utf-8"))


def parse_dimacs(source: IO[bytes]) -> CnfFormula:
    """Inverse of :func:`write_dimacs`; clauses come back in file order.

    A ``c <index> <name>`` line names a variable.  The source is read line
    by line, and the clauses go into the ``array("i")`` of a
    :class:`Clauses`.  Raises :class:`FormatError` with the line number on a
    line that is not UTF-8, a malformed or repeated header, a negative
    count, a variable count above ``_MAX_VARS`` (a literal must fit a C
    int), an index named twice or out of the declared range, a name given
    two indices, and a malformed clause.
    """
    var_map: dict[str, int] = {}
    name_lines: dict[int, int] = {}  # index -> line that named it
    literals = array("i")
    sizes = array("i")
    num_vars: int | None = None
    declared_clauses = 0
    for lineno, raw in numbered_lines(source):
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
            if num_vars > _MAX_VARS:
                raise FormatError(f"variable count above {_MAX_VARS}", lineno)
            continue
        if num_vars is None:
            raise FormatError("clause before DIMACS header", lineno)
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError("malformed clause line", lineno) from None
        if not lits or lits.pop() != 0:
            raise FormatError("clause line does not end with 0", lineno)
        if any(lit == 0 for lit in lits):
            raise FormatError("literal 0 inside clause", lineno)
        if any(abs(lit) > num_vars for lit in lits):
            raise FormatError("literal exceeds declared variable count", lineno)
        literals.fromlist(lits)
        sizes.append(len(lits))
    if num_vars is None:
        raise FormatError("missing DIMACS header", 1)
    for idx, lineno in name_lines.items():
        if not 1 <= idx <= num_vars:
            raise FormatError(f"named variable {idx} is outside 1..{num_vars}", lineno)
    if len(sizes) != declared_clauses:
        raise FormatError(f"declared {declared_clauses} clauses, found {len(sizes)}", 1)
    return CnfFormula(num_vars=num_vars, clauses=Clauses(literals, sizes), var_map=var_map)
