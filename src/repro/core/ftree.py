"""Factorisation trees (f-trees): nesting structures of factorisations.

An f-tree over a schema is a rooted forest whose nodes are labelled by
non-empty sets of attributes partitioning the schema (Definition 2).
Nodes are either *atomic* — an equivalence class of attribute names made
equal by selections — or *aggregate* — a single
:class:`AggregateAttribute` produced by the γ operator of Section 3.

Dependencies are tracked with opaque *keys*: every input relation
contributes one key to the nodes holding its attributes, and projection,
aggregation or a selection over an expression of several nodes mint
fresh keys to record the new dependencies they introduce (Section 3,
"the aggregation operator introduces new dependencies").  Two nodes are
*dependent* iff their key sets intersect, and the **path constraint**
(Proposition 1) requires dependent nodes to lie along the same
root-to-leaf path.

Trees are immutable: every structural operator builds a new tree, which
keeps factorised views shareable across queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


class FTreeError(ValueError):
    """Raised for malformed f-trees or invalid node addressing."""


class PathConstraintError(FTreeError):
    """Raised when an operation would violate the path constraint."""


_agg_counter = itertools.count(1)


@dataclass(frozen=True)
class AggregateAttribute:
    """An attribute holding (partial) aggregate values (Section 3.1).

    ``functions`` lists the components stored in each singleton — pairs
    of (aggregation function, source attribute), e.g. ``(("sum",
    "price"), ("count", None))`` for an avg partial.  Singleton values of
    an aggregate node are tuples aligned with ``functions``.

    ``over`` records the original atomic attributes the aggregate was
    computed over, so that later operators interpret the singleton
    ⟨F(X): v⟩ as a relation over schema X (Example 6).
    """

    functions: tuple[tuple[str, str | None], ...]
    over: frozenset
    name: str

    def __post_init__(self) -> None:
        if not self.functions:
            raise FTreeError("aggregate attribute needs at least one function")

    def component(self, function: str, attribute: str | None = None) -> int | None:
        """Index of a stored component, or None if it is not stored."""
        for index, (fn, attr) in enumerate(self.functions):
            if fn == function and (attribute is None or attr == attribute):
                return index
        return None

    def sum_component(self, attribute: str) -> int | None:
        return self.component("sum", attribute)

    @property
    def count_component(self) -> int | None:
        return self.component("count")

    def covers(self, attribute: str) -> bool:
        """Whether ``attribute`` was aggregated into this attribute."""
        return attribute in self.over

    def __str__(self) -> str:
        parts = ", ".join(
            f"{fn}({attr})" if attr else fn for fn, attr in self.functions
        )
        return f"{parts}[{','.join(sorted(map(str, self.over)))}]"


def fresh_aggregate_name(prefix: str = "agg") -> str:
    """A unique default name for a new aggregate attribute."""
    return f"__{prefix}_{next(_agg_counter)}"


class FNode:
    """One f-tree node: an attribute class (or aggregate) plus children.

    ``keys`` is the dependency-key set described in the module docstring.
    Nodes are immutable; use :meth:`with_children` / :meth:`with_keys`
    to derive modified copies.
    """

    __slots__ = ("attributes", "aggregate", "children", "keys")

    def __init__(
        self,
        attributes: Sequence[str] | AggregateAttribute,
        children: Sequence["FNode"] = (),
        keys: Iterable[str] = (),
    ) -> None:
        if isinstance(attributes, AggregateAttribute):
            self.aggregate: AggregateAttribute | None = attributes
            self.attributes: tuple[str, ...] = ()
        else:
            attributes = tuple(attributes)
            if not attributes:
                raise FTreeError("atomic node needs at least one attribute")
            self.aggregate = None
            self.attributes = attributes
        self.children: tuple[FNode, ...] = tuple(children)
        self.keys: frozenset[str] = frozenset(keys)

    # ------------------------------------------------------------------
    # Identity and display
    # ------------------------------------------------------------------
    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None

    @property
    def name(self) -> str:
        """Canonical name used to address this node in operators."""
        if self.aggregate is not None:
            return self.aggregate.name
        return self.attributes[0]

    @property
    def all_names(self) -> tuple[str, ...]:
        """Every name under which this node can be addressed."""
        if self.aggregate is not None:
            return (self.aggregate.name,)
        return self.attributes

    def label(self) -> str:
        if self.aggregate is not None:
            return str(self.aggregate)
        return ",".join(self.attributes)

    def __repr__(self) -> str:
        return f"FNode({self.label()!r}, children={len(self.children)})"

    # ------------------------------------------------------------------
    # Derivation helpers (immutability)
    # ------------------------------------------------------------------
    def with_children(self, children: Sequence["FNode"]) -> "FNode":
        label = self.aggregate if self.aggregate is not None else self.attributes
        return FNode(label, children, self.keys)

    def with_keys(self, keys: Iterable[str]) -> "FNode":
        label = self.aggregate if self.aggregate is not None else self.attributes
        return FNode(label, self.children, keys)

    def with_attributes(self, attributes: Sequence[str]) -> "FNode":
        if self.aggregate is not None:
            raise FTreeError("cannot relabel an aggregate node with attributes")
        return FNode(tuple(attributes), self.children, self.keys)

    def depends_on(self, other: "FNode") -> bool:
        """Dependency test: two nodes are dependent iff keys intersect."""
        return bool(self.keys & other.keys)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["FNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def subtree_names(self) -> set[str]:
        """All addressable names in this subtree."""
        names: set[str] = set()
        for node in self.walk():
            names.update(node.all_names)
        return names

    def subtree_atomic_attributes(self) -> set[str]:
        """All atomic attribute names in this subtree."""
        attrs: set[str] = set()
        for node in self.walk():
            attrs.update(node.attributes)
        return attrs

    def subtree_keys(self) -> frozenset[str]:
        keys: set[str] = set()
        for node in self.walk():
            keys |= node.keys
        return frozenset(keys)


class FTree:
    """A rooted forest of :class:`FNode`, the schema of a factorisation."""

    __slots__ = ("roots", "_by_name", "_parents")

    def __init__(self, roots: Sequence[FNode]) -> None:
        self.roots: tuple[FNode, ...] = tuple(roots)
        self._by_name: dict[str, FNode] = {}
        self._parents: dict[int, FNode | None] = {}
        for root in self.roots:
            self._register(root, None)

    def _register(self, node: FNode, parent: FNode | None) -> None:
        for name in node.all_names:
            if name in self._by_name:
                raise FTreeError(f"duplicate attribute {name!r} in f-tree")
        for name in node.all_names:
            self._by_name[name] = node
        self._parents[id(node)] = parent
        for child in node.children:
            self._register(child, node)

    def __reduce__(self):
        # The lookup tables are keyed by object identity, which pickling
        # does not preserve: reconstruct through __init__ from the roots
        # (node sharing within one pickle is kept by the pickle memo).
        return (FTree, (self.roots,))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def node(self, name: str) -> FNode:
        """The node holding attribute (or aggregate name) ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise FTreeError(f"no node for attribute {name!r}") from None

    def parent(self, node: FNode) -> FNode | None:
        """The parent of ``node`` (None for roots)."""
        try:
            return self._parents[id(node)]
        except KeyError:
            raise FTreeError("node does not belong to this f-tree") from None

    def nodes(self) -> Iterator[FNode]:
        """Pre-order traversal of the whole forest."""
        for root in self.roots:
            yield from root.walk()

    def attribute_names(self) -> list[str]:
        """All addressable names, in pre-order."""
        names: list[str] = []
        for node in self.nodes():
            names.extend(node.all_names)
        return names

    def atomic_attributes(self) -> set[str]:
        attrs: set[str] = set()
        for node in self.nodes():
            attrs.update(node.attributes)
        return attrs

    def ancestors(self, node: FNode) -> list[FNode]:
        """Ancestors of ``node`` from its parent up to its root."""
        out = []
        current = self.parent(node)
        while current is not None:
            out.append(current)
            current = self.parent(current)
        return out

    def is_ancestor(self, ancestor: FNode, descendant: FNode) -> bool:
        return any(node is ancestor for node in self.ancestors(descendant))

    def depth(self, node: FNode) -> int:
        return len(self.ancestors(node))

    def path_to(self, name: str) -> tuple[int, tuple[int, ...]]:
        """Position of a node: (root index, child indices along the way)."""
        # Nodes compare by identity, so ``index`` finds the very node.
        node = self.node(name)
        steps = []
        parent = self._parents[id(node)]
        while parent is not None:
            steps.append(parent.children.index(node))
            node, parent = parent, self._parents[id(parent)]
        steps.reverse()
        return self.roots.index(node), tuple(steps)

    def on_same_path(self, first: FNode, second: FNode) -> bool:
        """Whether two nodes lie on one root-to-leaf path."""
        return (
            first is second
            or self.is_ancestor(first, second)
            or self.is_ancestor(second, first)
        )

    def on_one_path(self, names: Iterable[str]) -> bool:
        """Whether the nodes holding ``names`` lie on one root-to-leaf path."""
        nodes = [self.node(name) for name in names]
        return all(
            self.on_same_path(a, b) for a, b in itertools.combinations(nodes, 2)
        )

    # ------------------------------------------------------------------
    # Path constraint (Proposition 1)
    # ------------------------------------------------------------------
    def satisfies_path_constraint(self) -> bool:
        """Check that every pair of dependent nodes shares a path."""
        all_nodes = list(self.nodes())
        for i, first in enumerate(all_nodes):
            for second in all_nodes[i + 1 :]:
                if first.depends_on(second) and not self.on_same_path(
                    first, second
                ):
                    return False
        return True

    def check_path_constraint(self) -> None:
        if not self.satisfies_path_constraint():
            raise PathConstraintError(
                f"f-tree violates the path constraint: {self}"
            )

    # ------------------------------------------------------------------
    # Rebuilding (immutability helpers)
    # ------------------------------------------------------------------
    def replace_node(self, name: str, builder: Callable[[FNode], Sequence[FNode]]) -> "FTree":
        """New tree with the named node replaced by ``builder(node)``.

        ``builder`` returns the nodes standing in for the old one (an
        empty sequence removes it).  All ancestors are rebuilt; the rest
        of the forest is shared.
        """
        target = self.node(name)
        new_roots: list[FNode] = []
        for root in self.roots:
            new_roots.extend(_replaced(root, target, builder))
        return FTree(new_roots)

    def map_nodes(self, mapper: Callable[[FNode], FNode]) -> "FTree":
        """New tree with ``mapper`` applied to every node (bottom-up)."""
        return FTree([_mapped(root, mapper) for root in self.roots])

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def pretty(self) -> str:
        """Indented ASCII rendering of the forest."""
        lines: list[str] = []

        def render(node: FNode, indent: int) -> None:
            lines.append("  " * indent + node.label())
            for child in node.children:
                render(child, indent + 1)

        for root in self.roots:
            render(root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"FTree({self.pretty()!r})"

    def __str__(self) -> str:
        return self.pretty()


# Module functions, not closures: a self-calling closure is a reference
# cycle, left to the collector with every node it reached.
def _replaced(
    node: FNode, target: FNode, builder: Callable[[FNode], Sequence[FNode]]
) -> list[FNode]:
    if node is target:
        return list(builder(node))
    new_children: list[FNode] = []
    changed = False
    for child in node.children:
        replacement = _replaced(child, target, builder)
        if len(replacement) != 1 or replacement[0] is not child:
            changed = True
        new_children.extend(replacement)
    if not changed:
        return [node]
    return [node.with_children(new_children)]


def _mapped(node: FNode, mapper: Callable[[FNode], FNode]) -> FNode:
    children = [_mapped(child, mapper) for child in node.children]
    if any(new is not old for new, old in zip(children, node.children)):
        node = node.with_children(children)
    return mapper(node)


def path_ftree(
    attributes: Sequence[str], relation_key: str, order: Sequence[str] | None = None
) -> FTree:
    """The path f-tree of a single relation (all attributes dependent).

    The attributes of one relation are pairwise dependent, so any f-tree
    over them is a single root-to-leaf path (Section 2.1); ``order``
    selects which path (defaults to the given attribute order).
    """
    sequence = list(order) if order is not None else list(attributes)
    if set(sequence) != set(attributes):
        raise FTreeError(
            f"path order {sequence!r} does not cover attributes {attributes!r}"
        )
    node: FNode | None = None
    for attribute in reversed(sequence):
        node = FNode(
            (attribute,), (node,) if node is not None else (), {relation_key}
        )
    if node is None:
        raise FTreeError("cannot build a path f-tree over an empty schema")
    return FTree([node])


def build_ftree(spec, keys: dict[str, Iterable[str]] | None = None) -> FTree:
    """Build an f-tree from a nested-tuple spec (testing convenience).

    ``spec`` is a list of roots, each ``(label, [children...])`` where a
    label is an attribute name, a tuple of names (an equivalence class),
    or an :class:`AggregateAttribute`.  ``keys`` maps node names to
    dependency keys; by default every node gets a shared key ``"*"`` so
    the tree is a valid single-relation structure.
    """

    def make(entry) -> FNode:
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[1], list)
        ):
            label, children = entry
        else:
            label, children = entry, []
        if isinstance(label, str):
            label = (label,)
        node_keys: Iterable[str]
        if keys is None:
            node_keys = {"*"}
        else:
            name = label.name if isinstance(label, AggregateAttribute) else label[0]
            node_keys = keys.get(name, {"*"})
        return FNode(label, [make(child) for child in children], node_keys)

    return FTree([make(entry) for entry in spec])
