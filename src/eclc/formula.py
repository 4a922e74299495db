"""Linear-logic formula trees, coherence classification, and cost models.

Formulas are immutable trees built from atoms and the connectives
tensor (*), lolli (-o), with (&), bang (!) and the budgeted diamond <r>.
They are hash-consed: each distinct tree is one live object.  Every
atom carries a coherence flag: coherent atoms stand for live quantum
resources, non-coherent ones for classical/decohered tokens.
"""

from __future__ import annotations

import math
import re
import weakref
from typing import NamedTuple, Union

# Atom names that always parse/serialize as non-coherent.
CLASSICAL_ATOMS = frozenset({"Classical", "Decohered"})

DECOHERED_PREFIX = "Decohered_"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_ident(text: str, what: str) -> None:
    if not isinstance(text, str) or not _IDENT.match(text):
        raise ValueError(f"{what} must be a nonempty identifier, got {text!r}")


def _check_count(value, minimum: int, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")


def _check_real(value: float, what: str) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")
    return value


# Most connectives one formula may nest: a node more than MAX_FORMULA_NODES + 1
# levels tall (an atom is one level) cannot be built.  The formula walkers recurse
# once per level, so the bound keeps every formula clear of the recursion limit.
MAX_FORMULA_NODES = 200

# Hash-consing table: one live node per distinct tree, keyed by
# (tag, fields...) with children compared by identity.  Entries go
# away with the last reference to their node.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _check_children(cls, **children) -> None:
    for name, child in children.items():
        if not isinstance(child, _Node):
            raise TypeError(f"{cls.__name__} {name} must be a formula, got {child!r}")


def _intern(cls, parts: tuple, below: int = 0):
    """The live ``cls`` node for ``parts`` = (tag, fields in slot order),
    built on first use; ``below`` is its tallest child's height (0 for none)."""
    node = _interned.get(parts)
    if node is None:
        if below > MAX_FORMULA_NODES:
            raise ValueError(f"formula would be more than {MAX_FORMULA_NODES + 1} levels tall")
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, parts[1:]):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_height", below + 1)
        # structural, from the children's hashes: a tree freed and built
        # again hashes as before
        object.__setattr__(node, "_hash", hash(parts))
        _interned[parts] = node
    return node


class _Node:
    """Immutable, hash-consed formula node: equal trees are one object,
    so ``==`` is identity."""

    # ``_buckets``, ``_withs`` and ``_signed`` stay unset at build; ``calculus`` fills each on first use
    __slots__ = ("_hash", "_height", "_buckets", "_withs", "_signed", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    """Atomic proposition; ``coherent`` marks a live quantum resource."""

    __slots__ = ("name", "args", "coherent")

    def __new__(cls, name: str, args: tuple[str, ...] = (), coherent: bool = True) -> Atom:
        _check_ident(name, "atom name")
        args = tuple(args)
        for arg in args:
            _check_ident(arg, "atom argument")
        return _intern(cls, (0, name, args, coherent))


class Tensor(_Node):
    """Multiplicative conjunction: both resources held at once."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Tensor:
        _check_children(cls, left=left, right=right)
        return _intern(cls, (1, left, right), max(left._height, right._height))


class Lolli(_Node):
    """Linear implication: consumes its antecedent exactly once."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Lolli:
        _check_children(cls, left=left, right=right)
        return _intern(cls, (2, left, right), max(left._height, right._height))


class With(_Node):
    """Additive conjunction: an external choice between alternatives."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> With:
        _check_children(cls, left=left, right=right)
        return _intern(cls, (3, left, right), max(left._height, right._height))


class Bang(_Node):
    """Exponential modality: permits controlled duplication/discarding."""

    __slots__ = ("inner",)

    def __new__(cls, inner: Formula) -> Bang:
        _check_children(cls, inner=inner)
        return _intern(cls, (4, inner), inner._height)


class Diamond(_Node):
    """Possibility bounded by a nonnegative transition budget."""

    __slots__ = ("budget", "inner")

    def __new__(cls, budget: float, inner: Formula) -> Diamond:
        value = _check_real(float(budget) + 0.0, "diamond budget")  # normalize -0.0
        _check_children(cls, inner=inner)
        return _intern(cls, (5, value, inner), inner._height)


Formula = Union[Atom, Tensor, Lolli, With, Bang, Diamond]


def coherence(phi: Formula) -> int:
    """Return 1 iff every atomic leaf of ``phi`` carries the coherent flag.

    Any classical/decohered leaf poisons the whole composite.
    """
    if isinstance(phi, Atom):
        return 1 if phi.coherent else 0
    if isinstance(phi, (Tensor, Lolli, With)):
        return coherence(phi.left) & coherence(phi.right)
    return coherence(phi.inner)


def decohere(phi: Formula) -> Formula:
    """Rewrite every coherent atomic leaf to its classical counterpart:
    name gains the Decohered_ prefix and the coherent flag is cleared."""
    if isinstance(phi, Atom):
        if not phi.coherent:
            return phi
        return Atom(DECOHERED_PREFIX + phi.name, phi.args, False)
    if isinstance(phi, (Tensor, Lolli, With)):
        return type(phi)(decohere(phi.left), decohere(phi.right))
    if isinstance(phi, Bang):
        return Bang(decohere(phi.inner))
    return Diamond(phi.budget, decohere(phi.inner))


class _Checked(tuple):
    """First base of each record that checks its fields in ``__new__``, so its ``_replace`` runs the checks."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))


class _CostModel(NamedTuple):
    atom_costs: dict[str, float]
    default_cost: float
    alpha: float


class CostModel(_Checked, _CostModel):
    """Per-atom base costs plus the curvature coupling constant alpha.

    Unknown atoms fall back to ``default_cost`` so scenario files need
    not enumerate every atom they mention.
    """

    __slots__ = ()

    def __new__(cls, atom_costs, default_cost: float = 1.0, alpha: float = 1.0) -> CostModel:
        costs = dict(atom_costs)
        for name, cost in costs.items():
            _check_ident(name, "cost atom name")
            _check_real(cost, f"cost for {name}")
        _check_real(default_cost, "default_cost")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
        return tuple.__new__(cls, (costs, default_cost, alpha))

    def atom_cost(self, name: str) -> float:
        return self.atom_costs.get(name, self.default_cost)


def base_cost(phi: Formula, model: CostModel) -> float:
    """Flat-space cost: atoms look up the model, tensor/lolli sum,
    with takes the worst branch, bang/diamond pass through."""
    if isinstance(phi, Atom):
        return model.atom_cost(phi.name)
    if isinstance(phi, (Tensor, Lolli)):
        return base_cost(phi.left, model) + base_cost(phi.right, model)
    if isinstance(phi, With):
        return max(base_cost(phi.left, model), base_cost(phi.right, model))
    return base_cost(phi.inner, model)


def curvature_cost(phi: Formula, model: CostModel, kappa: float) -> float:
    """Curvature-scaled cost: base cost inflated by (1 + alpha * kappa).
    A zero base cost stays 0.0 even where alpha * kappa overflows."""
    _check_real(kappa, "kappa")
    cost = base_cost(phi, model)
    return cost * (1.0 + model.alpha * kappa) if cost else 0.0


# The binary connectives' text, for this printer and the DSL parser: glyph,
# precedence level (higher binds tighter) and whether it associates right.
BINARY_SYNTAX = {Lolli: ("-o", 1, True), With: ("&", 2, False), Tensor: ("*", 3, False)}


def _level(phi: Formula) -> int:
    if isinstance(phi, (Bang, Diamond)):
        return 4
    return 5 if isinstance(phi, Atom) else BINARY_SYNTAX[type(phi)][1]


def format_real(x: float) -> str:
    """Shortest decimal representation that round-trips to the same float."""
    return repr(float(x) + 0.0)


def format_formula(phi: Formula) -> str:
    """Pretty-print ``phi`` with minimal parentheses.

    The output reparses to a structurally identical tree.  Coherent
    atoms whose name is in ``CLASSICAL_ATOMS`` have no textual form and
    raise ValueError.
    """

    def wrap(child: Formula, minimum: int) -> str:
        text = go(child)
        return f"({text})" if _level(child) < minimum else text

    def go(node: Formula) -> str:
        if isinstance(node, Atom):
            head = node.name
            if node.args:
                head += "(" + ",".join(node.args) + ")"
            if node.name in CLASSICAL_ATOMS:
                if node.coherent:
                    raise ValueError(
                        f"atom {node.name!r} is in the classical set but flagged coherent; "
                        "it has no serializable form"
                    )
                return head
            return head if node.coherent else "~" + head
        if isinstance(node, Bang):
            return "!" + wrap(node.inner, 4)
        if isinstance(node, Diamond):
            return f"<{format_real(node.budget)}>" + wrap(node.inner, 4)
        if type(node) not in BINARY_SYNTAX:
            raise TypeError(f"not a formula: {node!r}")
        glyph, level, right = BINARY_SYNTAX[type(node)]
        return f"{wrap(node.left, level + right)} {glyph} {wrap(node.right, level + (not right))}"

    return go(phi)
