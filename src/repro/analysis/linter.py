"""Repo-specific concurrency and copy-on-write lints (stdlib ``ast``).

Generic linters cannot express the rules PR 6's MVCC core relies on,
so this module checks them structurally:

``lock-discipline``
    In a class whose ``__init__`` creates a ``threading.Lock``/
    ``RLock``/``Condition``, every mutation of a mutable container
    attribute also created in ``__init__`` (list/dict/set displays or
    constructor calls) must happen while holding one of the class's
    locks.  "Holding" is lexical — a ``with self._lock:`` block — or
    transitive: a private method whose every in-class call site holds
    the lock is itself considered guarded (the lock is held across the
    whole call), computed as a greatest fixpoint over the call graph.

``cow-mutation``
    Objects read out of the shared catalogue (``x = self.relations[n]``,
    ``x = db.flat(n)``, ``x = state.factorised[n]``) may be published
    to concurrent readers, so they must never be mutated in place —
    no ``x.rows.append(...)``, ``x.rows = ...``, ``x.extend(...)``;
    fresh copies go through ``Relation.adopt``.

``frozen-mutation``
    ``object.__setattr__`` on a ``@dataclass(frozen=True)`` class is
    only legitimate inside ``__init__``/``__post_init__``/``__new__``.

``published-mutation``
    A published ``_CatalogueState`` is immutable by contract: stores
    through ``._published``/``._state`` attribute chains (or variables
    bound to them) are forbidden — publication replaces the whole
    object.

``async-blocking``
    Inside ``async def``, blocking calls stall the event loop: flags
    ``time.sleep``/``open``/``input``/``subprocess`` calls and
    session/pool operations (``.acquire``/``.sql``/``.execute``/...)
    invoked directly on the loop instead of through the executor.

``kernel-scalar-loop``
    The columnar kernels in :mod:`repro.core.kernels` and
    :mod:`repro.core.aggregates` earn their speedup by moving data as
    whole arrays; a ``for`` statement binding union *values* one
    element at a time (``for v in union.values``,
    ``for i, v in enumerate(values)``) reintroduces the per-singleton
    interpreter overhead the layout exists to avoid.  Comprehensions
    and generator expressions are sanctioned (single-opcode loops over
    a column are the batch idiom), as are index loops like
    ``for i in range(len(values))`` that do per-*context* batch work.
    Loops that genuinely must visit entries one by one (regrouping
    pivots, early-exit scans) carry a
    ``# repro: allow[kernel-scalar-loop]`` justification.

``obs-allocation``
    Observability calls that allocate per call — ``.labels(...)``
    child resolution, ``metrics()``/``.counter(``/``.gauge(``/
    ``.histogram(`` family construction, ``span(...)`` span creation,
    ``get_logger(...)`` — must not run inside a lexical
    ``with self.<lock>:`` block.  The hot-path discipline (see
    :mod:`repro.obs.metrics`) is to pre-bind children at module import
    or ``__init__`` and call the allocation-free ``inc``/``set``/
    ``observe`` on them inside critical sections.

Findings are :class:`repro.analysis.findings.Finding` records;
``# repro: allow[rule]`` comments suppress them in place (see
:mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, is_suppressed, suppressed_rules

#: Method names that mutate the builtin containers in place.
MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "add", "discard", "update", "setdefault",
        "move_to_end", "sort", "reverse", "appendleft", "popleft",
    }
)

#: ``threading`` factories whose product counts as a lock.
LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Constructor calls in ``__init__`` that mark an attribute as a
#: mutable container worth guarding.
CONTAINER_FACTORIES = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque"}
)

#: Attributes whose in-place mutation breaks Relation copy-on-write.
COW_ATTRIBUTES = frozenset({"rows", "schema", "name", "_index"})

#: Direct method calls that mutate a Relation in place.
COW_MUTATORS = frozenset({"extend"})

#: Catalogue access points whose results may be published state.
COW_SOURCES = frozenset({"relations", "factorised"})
COW_SOURCE_CALLS = frozenset({"flat", "get_factorised"})

#: Attribute chains that reach published immutable state.
PUBLISHED_ATTRIBUTES = frozenset({"_published", "_state"})

#: Calls that block inside ``async def``.
ASYNC_BLOCKING_CALLS = frozenset({"sleep", "open", "input"})
ASYNC_BLOCKING_METHODS = frozenset(
    {
        "acquire", "release", "sql", "execute", "run", "prepare",
        "insert", "delete", "refresh", "close", "watch",
    }
)
ASYNC_SUBJECT_HINTS = ("session", "pool")

#: Modules under ``core/`` holding the hot batch kernels the
#: ``kernel-scalar-loop`` rule polices.
KERNEL_MODULES = frozenset({"kernels.py", "aggregates.py", "enumerate.py"})

#: Iterator wrappers whose arguments still bind elements one at a time.
ELEMENTWISE_WRAPPERS = frozenset({"enumerate", "zip", "reversed", "sorted"})

#: Observability calls that allocate on every invocation (child lookup,
#: family registration, span construction, logger resolution) and so
#: must stay out of lock-guarded critical sections.
OBS_ALLOCATING_CALLS = frozenset(
    {
        "labels", "counter", "gauge", "histogram",
        "metrics", "span", "get_logger",
    }
)


def _call_name(func: ast.AST) -> str | None:
    """The rightmost name of a call target (``a.b.c()`` → ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_self_attribute(node: ast.AST) -> str | None:
    """``self.X`` → ``X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_self_attribute(node: ast.AST) -> str | None:
    """The leading ``self.X`` of an access chain, however deep."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        name = _is_self_attribute(node)
        if name is not None:
            return name
        node = (
            node.func
            if isinstance(node, ast.Call)
            else node.value
        )
    return None


def _walk_shallow(function: ast.AST):
    """Walk a function body without descending into nested defs.

    Nested functions are linted on their own (the module walk reaches
    them), so descending here would double-report their findings.
    """
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _mentions(node: ast.AST, hints: tuple[str, ...]) -> bool:
    """Whether any name/attribute in ``node`` contains a hint word."""
    for inner in ast.walk(node):
        text = None
        if isinstance(inner, ast.Name):
            text = inner.id
        elif isinstance(inner, ast.Attribute):
            text = inner.attr
        if text is not None and any(h in text.lower() for h in hints):
            return True
    return False


# ---------------------------------------------------------------------------
# Per-class model for the lock-discipline rule
# ---------------------------------------------------------------------------
class _MethodFacts:
    """What one method does to the class's guarded state."""

    def __init__(self, name: str) -> None:
        self.name = name
        # (attribute, line, description) written outside a lock block
        self.unguarded_writes: list[tuple[str, int, str]] = []
        # (callee, lock_held) for every self._x(...) call
        self.calls: list[tuple[str, bool]] = []


class _LockVisitor(ast.NodeVisitor):
    """Walks one method body tracking the lexical lock-held state."""

    def __init__(
        self, facts: _MethodFacts, lock_attrs: set[str], guarded: set[str]
    ) -> None:
        self.facts = facts
        self.lock_attrs = lock_attrs
        self.guarded = guarded
        self.held = 0

    # -- lock acquisition ----------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquires = any(
            _is_self_attribute(item.context_expr) in self.lock_attrs
            for item in node.items
        )
        if acquires:
            self.held += 1
        for item in node.items:
            self.visit(item.context_expr)
        for statement in node.body:
            self.visit(statement)
        if acquires:
            self.held -= 1

    # Nested defs get fresh lexical state: a closure runs later, when
    # the lock is no longer (necessarily) held.
    def visit_FunctionDef(self, node) -> None:
        saved, self.held = self.held, 0
        self.generic_visit(node)
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- writes ---------------------------------------------------------
    def _record(self, attribute: str | None, node: ast.AST, what: str) -> None:
        if attribute in self.guarded and not self.held:
            self.facts.unguarded_writes.append(
                (attribute, node.lineno, what)
            )

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        direct = _is_self_attribute(target)
        if direct is not None:
            self._record(direct, target, f"assignment to self.{direct}")
            return
        base = _base_self_attribute(target)
        if base is not None:
            self._record(base, target, f"store into self.{base}[...]")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            base = _base_self_attribute(target)
            self._record(base, target, f"del on self.{base}")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            owner = _is_self_attribute(func.value)
            if owner is None and method in MUTATORS:
                # self.X.Y.append(...) — chain rooted at a guarded attr.
                owner = _base_self_attribute(func.value)
            if owner is not None and method in MUTATORS:
                self._record(
                    owner, node, f"self.{owner}.{method}(...)"
                )
            callee = _is_self_attribute(func)
            if callee is not None:
                self.facts.calls.append((callee, self.held > 0))
        self.generic_visit(node)


def _init_attributes(
    cls: ast.ClassDef,
) -> tuple[set[str], set[str]]:
    """(lock attributes, guarded container attributes) from __init__."""
    locks: set[str] = set()
    guarded: set[str] = set()
    for item in cls.body:
        if not (
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ):
            continue
        for node in ast.walk(item):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for target in targets:
                attribute = _is_self_attribute(target)
                if attribute is None:
                    continue
                value = node.value
                if isinstance(value, ast.Call):
                    name = _call_name(value.func)
                    if name in LOCK_FACTORIES:
                        locks.add(attribute)
                    elif name in CONTAINER_FACTORIES:
                        guarded.add(attribute)
                elif isinstance(
                    value,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp),
                ):
                    guarded.add(attribute)
    return locks, guarded


def _lock_discipline(cls: ast.ClassDef, filename: str) -> list[Finding]:
    locks, guarded = _init_attributes(cls)
    if not locks or not guarded:
        return []
    methods = [
        item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name not in ("__init__", "__post_init__", "__new__")
    ]
    facts: dict[str, _MethodFacts] = {}
    for method in methods:
        record = _MethodFacts(method.name)
        visitor = _LockVisitor(record, locks, guarded)
        for statement in method.body:
            visitor.visit(statement)
        facts[method.name] = record

    # Greatest fixpoint: a private method called only while the lock is
    # held (directly, or from another such method) inherits the guard —
    # `with lock: self._m()` holds the lock across _m's whole body.
    call_sites: dict[str, list[tuple[str, bool]]] = {}
    for caller, record in facts.items():
        for callee, held in record.calls:
            call_sites.setdefault(callee, []).append((caller, held))
    externally_guarded = {
        name
        for name in facts
        if name.startswith("_") and call_sites.get(name)
    }
    changed = True
    while changed:
        changed = False
        for name in list(externally_guarded):
            ok = all(
                held or caller in externally_guarded
                for caller, held in call_sites.get(name, [])
            )
            if not ok:
                externally_guarded.discard(name)
                changed = True

    lock_list = ", ".join(f"self.{name}" for name in sorted(locks))
    findings = []
    for name, record in facts.items():
        if name in externally_guarded:
            continue
        for attribute, line, what in record.unguarded_writes:
            findings.append(
                Finding(
                    "lock-discipline",
                    f"{cls.name}.{name}: {what} mutates shared state "
                    f"without holding {lock_list}",
                    file=filename,
                    line=line,
                    source="lint",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# obs-allocation: no per-call observability allocation under a lock
# ---------------------------------------------------------------------------
class _ObsAllocationVisitor(ast.NodeVisitor):
    """Flags allocating observability calls while a lock is lexically held."""

    def __init__(
        self,
        cls_name: str,
        method_name: str,
        lock_attrs: set[str],
        filename: str,
        findings: list[Finding],
    ) -> None:
        self.cls_name = cls_name
        self.method_name = method_name
        self.lock_attrs = lock_attrs
        self.filename = filename
        self.findings = findings
        self.held = 0

    def visit_With(self, node: ast.With) -> None:
        acquires = any(
            _is_self_attribute(item.context_expr) in self.lock_attrs
            for item in node.items
        )
        if acquires:
            self.held += 1
        for item in node.items:
            self.visit(item.context_expr)
        for statement in node.body:
            self.visit(statement)
        if acquires:
            self.held -= 1

    # A nested def's body runs later, outside the lexical lock region.
    def visit_FunctionDef(self, node) -> None:
        saved, self.held = self.held, 0
        self.generic_visit(node)
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if self.held and name in OBS_ALLOCATING_CALLS:
            shape = f"{name}(...)" if isinstance(node.func, ast.Name) else (
                f".{name}(...)"
            )
            self.findings.append(
                Finding(
                    "obs-allocation",
                    f"{self.cls_name}.{self.method_name}: {shape} "
                    "allocates inside a lock-guarded section; pre-bind "
                    "the instrument (module import or __init__) and call "
                    "inc/set/observe on the bound child instead",
                    file=self.filename,
                    line=node.lineno,
                    source="lint",
                )
            )
        self.generic_visit(node)


def _obs_allocation(cls: ast.ClassDef, filename: str) -> list[Finding]:
    locks, _ = _init_attributes(cls)
    if not locks:
        return []
    findings: list[Finding] = []
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        visitor = _ObsAllocationVisitor(
            cls.name, item.name, locks, filename, findings
        )
        for statement in item.body:
            visitor.visit(statement)
    return findings


# ---------------------------------------------------------------------------
# frozen-dataclass immutability
# ---------------------------------------------------------------------------
def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if _call_name(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _frozen_mutation(cls: ast.ClassDef, filename: str) -> list[Finding]:
    if not _is_frozen_dataclass(cls):
        return []
    findings = []
    allowed = ("__init__", "__post_init__", "__new__")
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in allowed:
            continue
        for node in ast.walk(item):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                findings.append(
                    Finding(
                        "frozen-mutation",
                        f"{cls.name}.{item.name}: object.__setattr__ "
                        "defeats frozen-dataclass immutability outside "
                        "__init__/__post_init__",
                        file=filename,
                        line=node.lineno,
                        source="lint",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Copy-on-write and published-state rules (per function, flow-insensitive)
# ---------------------------------------------------------------------------
def _is_cow_source(node: ast.AST) -> bool:
    """Does this expression read (potentially shared) catalogue state?"""
    if isinstance(node, ast.Subscript):
        value = node.value
        return (
            isinstance(value, ast.Attribute) and value.attr in COW_SOURCES
        )
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return (
            isinstance(node.func, ast.Attribute)
            and name in COW_SOURCE_CALLS
        )
    return False


def _reaches_published(node: ast.AST, tainted: set[str]) -> bool:
    """Does an access chain pass through published state?"""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in PUBLISHED_ATTRIBUTES
        ):
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in tainted


def _function_mutation_rules(
    function: ast.AST, filename: str
) -> list[Finding]:
    findings: list[Finding] = []
    cow_tainted: set[str] = set()
    published_tainted: set[str] = set()

    # Pass 1 (flow-insensitive): which local names alias shared state.
    for node in _walk_shallow(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_cow_source(node.value):
                cow_tainted.add(target.id)
            if _reaches_published(node.value, set()):
                published_tainted.add(target.id)

    def chain_base(node: ast.AST) -> ast.AST:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node

    def is_cow_object(node: ast.AST) -> bool:
        """A name or expression that may alias a published Relation."""
        if isinstance(node, ast.Name):
            return node.id in cow_tainted
        return _is_cow_source(node)

    def cow_finding(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                "cow-mutation",
                f"{what} mutates a relation that may be published to "
                "concurrent readers; build a fresh copy via "
                "Relation.adopt instead",
                file=filename,
                line=node.lineno,
                source="lint",
            )
        )

    def published_finding(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                "published-mutation",
                f"{what} mutates published catalogue state; published "
                "_CatalogueState objects are immutable — publish a "
                "replacement instead",
                file=filename,
                line=node.lineno,
                source="lint",
            )
        )

    # Pass 2: flag mutations through tainted bases.
    for node in _walk_shallow(function):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                owner = (
                    target.value
                    if isinstance(target, ast.Attribute)
                    else target.value
                )
                # x.rows = ... / x.rows[...] = ... with x catalogue-read
                attr_node = target
                while isinstance(attr_node, ast.Subscript):
                    attr_node = attr_node.value
                if (
                    isinstance(attr_node, ast.Attribute)
                    and attr_node.attr in COW_ATTRIBUTES
                    and is_cow_object(attr_node.value)
                ):
                    cow_finding(
                        target, f"assignment through .{attr_node.attr}"
                    )
                if _reaches_published(owner, published_tainted):
                    published_finding(target, "store")
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            method = node.func.attr
            owner = node.func.value
            if method in MUTATORS or method in COW_MUTATORS:
                # x.rows.append(...) — the chain below the method call
                base = owner
                cow_hit = False
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    if (
                        isinstance(base, ast.Attribute)
                        and base.attr in COW_ATTRIBUTES
                        and is_cow_object(base.value)
                    ):
                        cow_hit = True
                        break
                    base = base.value
                if cow_hit:
                    cow_finding(node, f".{method}(...) call")
                elif method in COW_MUTATORS and is_cow_object(owner):
                    cow_finding(node, f".{method}(...) call")
                if _reaches_published(owner, published_tainted):
                    published_finding(node, f".{method}(...) call")
    return findings


# ---------------------------------------------------------------------------
# async-blocking (server code)
# ---------------------------------------------------------------------------
def _async_blocking(
    function: ast.AsyncFunctionDef, filename: str
) -> list[Finding]:
    findings = []
    for node in _walk_shallow(function):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = _call_name(func)
        blocking = None
        if isinstance(func, ast.Name) and name in ("open", "input"):
            blocking = f"{name}(...)"
        elif (
            isinstance(func, ast.Attribute)
            and name in ASYNC_BLOCKING_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("time", "subprocess")
        ):
            blocking = f"{func.value.id}.{name}(...)"
        elif (
            isinstance(func, ast.Attribute)
            and name in ASYNC_BLOCKING_METHODS
            and _mentions(func.value, ASYNC_SUBJECT_HINTS)
        ):
            blocking = f".{name}(...) on a session/pool"
        if blocking is not None:
            findings.append(
                Finding(
                    "async-blocking",
                    f"{function.name}: blocking call {blocking} runs on "
                    "the event loop; route it through the thread "
                    "executor",
                    file=filename,
                    line=node.lineno,
                    source="lint",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# kernel-scalar-loop (columnar kernel modules)
# ---------------------------------------------------------------------------
def _is_kernel_module(filename: str) -> bool:
    path = Path(filename)
    return "core" in path.parts and path.name in KERNEL_MODULES


def _binds_union_values(iterable: ast.AST) -> bool:
    """Whether iterating ``iterable`` yields union values one at a time.

    Matches the ``.values`` data attribute of a union (never the
    ``dict.values()`` *call*), local columns named ``values`` /
    ``*_values``, and the same wrapped in ``enumerate``/``zip``/
    ``reversed``/``sorted``.  Index iterators such as
    ``range(len(values))`` deliberately do not match: walking contexts
    by position is how batch kernels are written.
    """
    if isinstance(iterable, ast.Attribute) and iterable.attr == "values":
        return True
    if isinstance(iterable, ast.Name) and (
        iterable.id == "values" or iterable.id.endswith("_values")
    ):
        return True
    if (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Name)
        and iterable.func.id in ELEMENTWISE_WRAPPERS
    ):
        return any(_binds_union_values(arg) for arg in iterable.args)
    return False


def _kernel_scalar_loops(
    function: ast.FunctionDef | ast.AsyncFunctionDef, filename: str
) -> list[Finding]:
    findings = []
    for node in _walk_shallow(function):
        if isinstance(node, ast.For) and _binds_union_values(node.iter):
            findings.append(
                Finding(
                    "kernel-scalar-loop",
                    f"{function.name}: for-statement binds union values "
                    "one element at a time; restructure as a batch "
                    "column operation (comprehensions over a column are "
                    "fine), or justify why the loop must stay scalar",
                    file=filename,
                    line=node.lineno,
                    source="lint",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def lint_source(source: str, filename: str) -> list[Finding]:
    """All lint findings for one module's source text."""
    try:
        tree = ast.parse(source, filename)
    except SyntaxError as error:
        return [
            Finding(
                "parse-error",
                f"could not parse: {error.msg}",
                file=filename,
                line=error.lineno or 1,
                source="lint",
            )
        ]
    findings: list[Finding] = []
    server_code = "server" in Path(filename).parts
    kernel_code = _is_kernel_module(filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(_lock_discipline(node, filename))
            findings.extend(_obs_allocation(node, filename))
            findings.extend(_frozen_mutation(node, filename))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_function_mutation_rules(node, filename))
            if isinstance(node, ast.AsyncFunctionDef) and server_code:
                findings.extend(_async_blocking(node, filename))
            if kernel_code:
                findings.extend(_kernel_scalar_loops(node, filename))
    suppressions = suppressed_rules(source)
    kept = [f for f in findings if not is_suppressed(f, suppressions)]
    kept.sort(key=lambda f: (f.line or 0, f.rule))
    return kept


def lint_file(path: str | Path) -> list[Finding]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for entry in paths:
        entry = Path(entry)
        files = (
            sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        )
        for file in files:
            findings.extend(lint_file(file))
    return findings
