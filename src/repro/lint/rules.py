"""The repo-specific rules REP001–REP006.

Per-file rules receive a :class:`FileContext` (path + parsed AST) and a
:class:`RuleConfig`; the project-level rule REP002 receives the whole
file set at once, because registry completeness is a cross-file
property.

Rule summary (full prose in ``docs/static_analysis.md``):

* **REP001** — no global-RNG usage.  All randomness must flow through
  an injected, seeded ``random.Random`` or ``numpy.random.Generator``;
  module-level ``random.<fn>()`` calls, ``from random import <fn>``,
  unseeded ``random.Random()`` / ``default_rng()``, ``SystemRandom``,
  and ``np.random.<fn>`` global-state access are all flagged.
* **REP002** — registry completeness, per concept.  Every concrete
  subclass of a concept's base classes under
  ``src/repro/{protocols,adversary,faultmodels,sim}/`` must be
  referenced by that concept's ``registry.py`` (adversaries of every
  engine by ``adversary/registry.py``), and every registry name must
  appear in ``docs/``.
* **REP003** — adversary-knowledge boundary.  Adversary modules may
  only touch the public view/API of ``sim.model``: accessing ``.rng``
  on anything but ``self`` (a process's *future* coins) or a
  ``_private`` attribute of a foreign object is forbidden.
* **REP004** — paper-reference hygiene.  A docstring citing
  ``Lemma X.Y`` / ``Theorem N`` must cite one that exists in
  ``PAPER.md``.
* **REP005** — no dead heavyweight imports.  Importing numpy / scipy /
  pandas / matplotlib and never using the binding is flagged: in
  engines and benchmarks a heavy import is a statement of intent
  ("this module is vectorized"), and a dead one misleads readers and
  slows every worker spawn.
* **REP006** — fail-stop-safe futures.  In modules using
  ``concurrent.futures``: collecting ``future.result()`` without
  exception handling is flagged (a single crashed worker then
  discards every completed chunk), as is submitting a lambda or
  nested function to a process pool (workers resolve callables by
  import, so only module-level functions survive pickling).

The interprocedural rules REP007 (determinism taint) and REP008 (spec
payload safety) live in :mod:`repro.lint.interproc`, on top of the
project model in :mod:`repro.lint.project`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding

__all__ = [
    "ALL_RULES",
    "FileContext",
    "RULE_SUMMARIES",
    "RuleConfig",
    "check_rep001",
    "check_rep002",
    "check_rep003",
    "check_rep004",
    "check_rep005",
    "check_rep006",
    "paper_references",
]

ALL_RULES = (
    "REP001",
    "REP002",
    "REP003",
    "REP004",
    "REP005",
    "REP006",
    "REP007",
    "REP008",
)

#: One-line summaries keyed by rule id — rendered into SARIF rule
#: metadata and the ``--help`` text; full prose in
#: ``docs/static_analysis.md``.
RULE_SUMMARIES = {
    "REP000": "file could not be read or parsed",
    "REP001": "no global-RNG usage: randomness must flow through an "
              "injected, seeded generator",
    "REP002": "registry completeness: every concrete protocol/adversary/"
              "fault model is registered and documented",
    "REP003": "adversary-knowledge boundary: no reading foreign '.rng' "
              "or private state, directly or through helpers",
    "REP004": "paper-reference hygiene: cited lemmas/theorems must "
              "exist in PAPER.md",
    "REP005": "no dead heavyweight imports (numpy/scipy/pandas/"
              "matplotlib bound but never used)",
    "REP006": "fail-stop-safe futures: guarded result collection, no "
              "unpicklable callables submitted to process pools",
    "REP007": "determinism taint: no nondeterministic value may reach "
              "seeds, stream keys, or cache keys (interprocedural)",
    "REP008": "spec payload safety: TrialSpec/ExecutionPlan-style "
              "dataclasses stay frozen, hashable, picklable",
}

#: Top-level packages REP005 treats as heavyweight: importing one of
#: these and never touching the binding costs worker-spawn time and
#: misstates the module's dependencies.
_HEAVY_MODULES = frozenset({"numpy", "scipy", "pandas", "matplotlib"})

#: numpy.random attributes that construct *seedable* generators and are
#: therefore fine to call (with a seed; ``default_rng``/``RandomState``
#: without arguments are still flagged as unseeded).
_NUMPY_SEEDABLE = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Packages REP002/REP003 apply to (matched against path segments).
_ADVERSARY_DIR = "adversary"
_PROTOCOL_DIR = "protocols"
_FAULTMODEL_DIR = "faultmodels"
#: Engine package whose adversary classes REP002 also covers (REP003's
#: adversary-module structural checks do not apply to engine code).
_SIM_DIR = "sim"

#: REP002's concepts: the package whose ``registry.py`` holds the one
#: name table, and the base classes whose concrete descendants (in any
#: covered package) it must reference.
_CONCEPTS = (
    (
        _ADVERSARY_DIR,
        frozenset({"Adversary", "BatchFastAdversary", "Batch2DAdversary"}),
    ),
    (_PROTOCOL_DIR, frozenset({"ConsensusProtocol", "Protocol"})),
    (_FAULTMODEL_DIR, frozenset({"FaultModel"})),
)

_CITE_RE = re.compile(
    r"\b(Lemma|Theorem|Thm|Corollary|Cor)s?\b\.?[\s\-–]+"
    r"(\d+(?:\.\d+)?)(?:\s*[–/-]\s*(\d+(?:\.\d+)?))?"
)

_KIND_ALIASES = {
    "lemma": "lemma",
    "theorem": "theorem",
    "thm": "theorem",
    "corollary": "corollary",
    "cor": "corollary",
}


@dataclass
class RuleConfig:
    """Knobs shared by all rules.

    Attributes:
        allow_global_random: Glob patterns (matched against the posix
            form of the file path) exempt from REP001.
        paper_refs: Set of ``(kind, number)`` citations that exist in
            PAPER.md, or ``None`` when no PAPER.md was found (REP004 is
            then skipped — there is nothing to check against).
        docs_dir: The repo's ``docs/`` directory, or ``None`` (the
            registry-name-in-docs half of REP002 is then skipped).
        select: Rules to run.
    """

    allow_global_random: Tuple[str, ...] = ()
    paper_refs: Optional[Set[Tuple[str, str]]] = None
    docs_dir: Optional[Path] = None
    select: Tuple[str, ...] = ALL_RULES


@dataclass
class FileContext:
    """One parsed source file, ready for the per-file rules."""

    path: Path
    display_path: str
    source: str
    tree: ast.AST

    _parts: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self._parts = tuple(self.path.parts)

    @property
    def in_adversary_package(self) -> bool:
        return _ADVERSARY_DIR in self._parts

    @property
    def in_registry_package(self) -> bool:
        return any(
            part in self._parts
            for part in (_ADVERSARY_DIR, _PROTOCOL_DIR, _FAULTMODEL_DIR)
        )


def parse_file(path: Path, display_path: str) -> Optional[FileContext]:
    """Parse ``path``; returns ``None`` for unreadable/unparsable files
    (the runner reports those separately as REP000 findings)."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    return FileContext(
        path=path, display_path=display_path, source=source, tree=tree
    )


# ----------------------------------------------------------------------
# REP001 — no global-RNG usage
# ----------------------------------------------------------------------


def check_rep001(ctx: FileContext, config: RuleConfig) -> List[Finding]:
    posix = ctx.path.as_posix()
    if any(fnmatch(posix, pattern) for pattern in config.allow_global_random):
        return []

    findings: List[Finding] = []
    # local name -> module it aliases ("random" / "numpy" / "numpy.random")
    aliases: Dict[str, str] = {}
    # local name -> fully qualified constructor it binds
    bound: Dict[str, str] = {}

    def emit(node: ast.AST, message: str, symbol: str) -> None:
        findings.append(
            Finding(
                rule="REP001",
                file=ctx.display_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                symbol=symbol,
            )
        )

    def dotted(expr: ast.expr) -> Optional[str]:
        parts: List[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        parts.append(expr.id)
        parts.reverse()
        head = parts[0]
        if head in aliases:
            return ".".join([aliases[head]] + parts[1:])
        if head in bound and len(parts) == 1:
            return bound[head]
        return None

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name == "random":
                    aliases[local] = "random"
                elif alias.name == "numpy":
                    aliases[local] = "numpy"
                elif alias.name == "numpy.random":
                    # ``import numpy.random`` binds ``numpy``;
                    # ``import numpy.random as nr`` binds ``nr``.
                    aliases[local] = (
                        "numpy.random" if alias.asname else "numpy"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "Random":
                        bound[local] = "random.Random"
                    elif alias.name == "SystemRandom":
                        bound[local] = "random.SystemRandom"
                    else:
                        emit(
                            node,
                            f"'from random import {alias.name}' binds the "
                            "process-global RNG; inject a seeded "
                            "random.Random instead",
                            f"random.{alias.name}",
                        )
            elif node.module == "numpy.random" and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name in _NUMPY_SEEDABLE:
                        bound[local] = f"numpy.random.{alias.name}"
                    else:
                        emit(
                            node,
                            f"'from numpy.random import {alias.name}' "
                            "uses numpy's global RNG state; inject a "
                            "numpy.random.Generator instead",
                            f"numpy.random.{alias.name}",
                        )
            elif node.module == "numpy" and node.level == 0:
                for alias in node.names:
                    if alias.name == "random":
                        aliases[alias.asname or "random"] = "numpy.random"

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        path = dotted(node.func)
        if path is None:
            continue
        unseeded = not node.args and not node.keywords
        if path == "random.Random":
            if unseeded:
                emit(
                    node,
                    "unseeded random.Random() cannot be replayed; "
                    "derive the seed from the experiment's master seed",
                    path,
                )
        elif path == "random.SystemRandom":
            emit(
                node,
                "random.SystemRandom draws OS entropy and can never be "
                "replayed; use an injected seeded random.Random",
                path,
            )
        elif path.startswith("random."):
            emit(
                node,
                f"{path}() draws from the process-global RNG; all "
                "randomness must come from an injected random.Random",
                path,
            )
        elif path == "numpy.random.default_rng":
            if unseeded:
                emit(
                    node,
                    "unseeded numpy.random.default_rng() cannot be "
                    "replayed; pass a seed derived from the master seed",
                    path,
                )
        elif path == "numpy.random.RandomState" and unseeded:
            emit(
                node,
                "unseeded numpy.random.RandomState() cannot be replayed; "
                "pass a seed (or use numpy.random.default_rng(seed))",
                path,
            )
        elif path.startswith("numpy.random.") and (
            path.rsplit(".", 1)[1] not in _NUMPY_SEEDABLE
        ):
            emit(
                node,
                f"{path}() touches numpy's global RNG state; use an "
                "injected numpy.random.Generator",
                path,
            )
    return findings


# ----------------------------------------------------------------------
# REP005 — no dead heavyweight imports
# ----------------------------------------------------------------------


def _type_checking_imports(tree: ast.AST) -> Set[ast.stmt]:
    """Import statements nested under ``if TYPE_CHECKING:`` blocks.

    Those imports never execute at runtime, so a "dead" heavyweight
    import there costs nothing — it exists purely for annotations and
    must not be flagged by REP005.
    """
    guarded: Set[ast.stmt] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id
            if isinstance(test, ast.Name)
            else test.attr
            if isinstance(test, ast.Attribute)
            else ""
        )
        if name != "TYPE_CHECKING":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                guarded.add(sub)
    return guarded


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _string_annotation_names(tree: ast.AST) -> Set[str]:
    """Identifiers referenced inside *string* annotations.

    Under ``from __future__ import annotations`` (or explicit forward
    references) an annotation like ``"np.ndarray"`` is a plain string
    constant; the names inside it are real uses of the imported
    bindings and must count for REP005's liveness check.
    """
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
    names: Set[str] = set()
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(_IDENTIFIER_RE.findall(sub.value))
    return names


def check_rep005(ctx: FileContext, config: RuleConfig) -> List[Finding]:
    """Flag numpy/scipy/pandas/matplotlib imports whose binding is
    never referenced anywhere else in the module.

    Type-only usage counts as use: imports guarded by
    ``if TYPE_CHECKING:`` are exempt entirely (they never execute),
    and names inside string annotations are collected as references.
    """
    type_only = _type_checking_imports(ctx.tree)
    # local binding name -> (import node, dotted origin for the message)
    heavy: Dict[str, Tuple[ast.stmt, str]] = {}
    for node in ast.walk(ctx.tree):
        if node in type_only:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in _HEAVY_MODULES:
                    continue
                # ``import numpy.random`` binds ``numpy``;
                # ``import numpy.random as nr`` binds ``nr``.
                local = alias.asname or top
                heavy.setdefault(local, (node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            if node.module.split(".")[0] not in _HEAVY_MODULES:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                heavy.setdefault(
                    local, (node, f"{node.module}.{alias.name}")
                )
    if not heavy:
        return []

    used = {
        node.id for node in ast.walk(ctx.tree) if isinstance(node, ast.Name)
    }
    used |= _string_annotation_names(ctx.tree)
    # A re-export counts as a use: ``__all__ = ["np"]`` intentionally
    # publishes the binding even if the module body never touches it.
    exported = {
        elt.value
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set))
        for elt in node.elts
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }

    findings: List[Finding] = []
    for local, (node, origin) in sorted(heavy.items()):
        if local in used or local in exported:
            continue
        findings.append(
            Finding(
                rule="REP005",
                file=ctx.display_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"heavyweight import '{origin}' is bound as "
                    f"{local!r} but never used; drop it (a dead "
                    "numpy/scipy import misstates the module's "
                    "dependencies and slows every worker spawn)"
                ),
                symbol=origin,
            )
        )
    return findings


# ----------------------------------------------------------------------
# REP006 — fail-stop-safe futures
# ----------------------------------------------------------------------


def _uses_concurrent_futures(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".")[0] == "concurrent"
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "concurrent":
                return True
    return False


def _pool_bindings(tree: ast.AST) -> Set[str]:
    """Names (variables or attributes) bound to a ProcessPoolExecutor."""

    def is_pool_ctor(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        return name == "ProcessPoolExecutor"

    def bind(target: ast.expr, names: Set[str]) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)

    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_pool_ctor(node.value):
            for target in node.targets:
                bind(target, names)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None and is_pool_ctor(node.value):
                bind(node.target, names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if is_pool_ctor(item.context_expr) and item.optional_vars:
                    bind(item.optional_vars, names)
    return names


def check_rep006(ctx: FileContext, config: RuleConfig) -> List[Finding]:
    """Flag fragile ``concurrent.futures`` usage.

    Two patterns, both ones a fail-stop worker crash turns into data
    loss: (a) ``future.result()`` outside any ``try`` with a handler —
    the first ``BrokenProcessPool`` then unwinds past every completed
    chunk; (b) a lambda or nested function submitted to a process
    pool — workers resolve callables by import, so anything that is
    not module-level dies in pickling.
    """
    if not _uses_concurrent_futures(ctx.tree):
        return []

    findings: List[Finding] = []
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(ctx.tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def guarded(node: ast.AST) -> bool:
        child: ast.AST = node
        parent = parents.get(child)
        while parent is not None:
            if (
                isinstance(parent, ast.Try)
                and parent.handlers
                and child in parent.body
            ):
                return True
            child, parent = parent, parents.get(parent)
        return False

    # Function defs that are *not* module-level (nested in another
    # function or a class) — submitting one to a process pool fails
    # pickling, or worse, resolves to a stale import-time namesake.
    nested_defs: Set[str] = set()
    module_defs: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(parents.get(node), ast.Module):
                module_defs.add(node.name)
            else:
                nested_defs.add(node.name)

    pools = _pool_bindings(ctx.tree)

    def emit(node: ast.AST, message: str, symbol: str) -> None:
        findings.append(
            Finding(
                rule="REP006",
                file=ctx.display_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                symbol=symbol,
            )
        )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "result" and not node.args and not node.keywords:
            if not guarded(node):
                emit(
                    node,
                    "future.result() without exception handling: one "
                    "crashed worker (BrokenProcessPool) discards every "
                    "completed chunk; wrap the collection in try/except "
                    "and retry or quarantine the failed chunk",
                    "result",
                )
        elif func.attr in ("submit", "map") and node.args:
            base = func.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else ""
            )
            if base_name not in pools:
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                emit(
                    target,
                    "lambda submitted to a process pool cannot be "
                    "pickled; use a module-level function",
                    "lambda",
                )
            elif (
                isinstance(target, ast.Name)
                and target.id in nested_defs
                and target.id not in module_defs
            ):
                emit(
                    target,
                    f"nested function {target.id!r} submitted to a "
                    "process pool cannot be pickled by import; move it "
                    "to module level",
                    target.id,
                )
    return findings


# ----------------------------------------------------------------------
# REP003 — adversary-knowledge boundary
# ----------------------------------------------------------------------


def check_rep003(ctx: FileContext, config: RuleConfig) -> List[Finding]:
    if not ctx.in_adversary_package:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        base_is_own = isinstance(base, ast.Name) and base.id in (
            "self",
            "cls",
        )
        if base_is_own:
            continue
        if node.attr == "rng":
            findings.append(
                Finding(
                    rule="REP003",
                    file=ctx.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "adversary reads '.rng' of a foreign object — a "
                        "process's PRNG encodes its *future* coins, which "
                        "the model's adversary must not see; use only the "
                        "public RoundView/state API"
                    ),
                    symbol="rng",
                )
            )
        elif node.attr.startswith("_") and not node.attr.startswith("__"):
            findings.append(
                Finding(
                    rule="REP003",
                    file=ctx.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"adversary touches private attribute "
                        f"'{node.attr}' of a foreign object; adversaries "
                        "may only use the public view/API of sim.model"
                    ),
                    symbol=node.attr,
                )
            )
    return findings


# ----------------------------------------------------------------------
# REP004 — paper-reference hygiene
# ----------------------------------------------------------------------


def _expand_citation(
    kind: str, first: str, second: Optional[str]
) -> List[Tuple[str, str]]:
    """Expand ``Lemmas 3.1-3.5`` / ``Theorem 2/3`` into members."""
    refs = [(kind, first)]
    if second is None:
        return refs
    refs.append((kind, second))
    try:
        if "." in first and "." in second:
            major_a, minor_a = first.split(".")
            major_b, minor_b = second.split(".")
            if major_a == major_b and int(minor_a) <= int(minor_b):
                refs = [
                    (kind, f"{major_a}.{m}")
                    for m in range(int(minor_a), int(minor_b) + 1)
                ]
        elif "." not in first and "." not in second:
            a, b = int(first), int(second)
            if a <= b:
                refs = [(kind, str(m)) for m in range(a, b + 1)]
    except ValueError:  # pragma: no cover - defensive
        pass
    return refs


def _citations(text: str) -> List[Tuple[str, str]]:
    refs: List[Tuple[str, str]] = []
    for match in _CITE_RE.finditer(text):
        kind = _KIND_ALIASES[match.group(1).lower()]
        refs.extend(_expand_citation(kind, match.group(2), match.group(3)))
    return refs


def paper_references(paper_text: str) -> Set[Tuple[str, str]]:
    """All ``(kind, number)`` citations PAPER.md makes available."""
    return set(_citations(paper_text))


def check_rep004(ctx: FileContext, config: RuleConfig) -> List[Finding]:
    refs = config.paper_refs
    if refs is None:
        return []
    findings: List[Finding] = []

    def check_doc(owner: str, doc: Optional[str], lineno: int) -> None:
        if not doc:
            return
        for kind, number in _citations(doc):
            if kind == "corollary":
                continue  # PAPER.md only inventories lemmas/theorems
            if (kind, number) not in refs:
                findings.append(
                    Finding(
                        rule="REP004",
                        file=ctx.display_path,
                        line=lineno,
                        col=0,
                        message=(
                            f"{owner} cites {kind.capitalize()} {number}, "
                            "which does not exist in PAPER.md; fix the "
                            "citation or update PAPER.md"
                        ),
                        symbol=f"{kind}-{number}",
                    )
                )

    if isinstance(ctx.tree, ast.Module):
        check_doc("module docstring", ast.get_docstring(ctx.tree), 1)
    for node in ast.walk(ctx.tree):
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and not node.name.startswith("_"):
            kind_name = (
                "class" if isinstance(node, ast.ClassDef) else "function"
            )
            check_doc(
                f"public {kind_name} {node.name!r}",
                ast.get_docstring(node),
                node.lineno,
            )
    return findings


# ----------------------------------------------------------------------
# REP002 — registry completeness (project-level)
# ----------------------------------------------------------------------


@dataclass
class _ClassInfo:
    name: str
    bases: Tuple[str, ...]
    abstract: bool
    ctx: FileContext
    lineno: int


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _is_abstract(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "ABC":
            return True
        if isinstance(base, ast.Attribute) and base.attr in ("ABC", "ABCMeta"):
            return True
    for kw in node.keywords:
        if kw.arg == "metaclass":
            return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                name = (
                    deco.attr
                    if isinstance(deco, ast.Attribute)
                    else deco.id
                    if isinstance(deco, ast.Name)
                    else ""
                )
                if name in ("abstractmethod", "abstractproperty"):
                    return True
    return False


def _registry_identifiers(ctx: FileContext) -> Set[str]:
    """Every bare/attribute identifier the registry module references."""
    names: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.name)
    return names


def _registry_keys(ctx: FileContext) -> List[Tuple[str, int]]:
    """String keys of ``*_FACTORIES``-style dicts plus first-argument
    string literals of ``register_*`` calls, with their line numbers."""
    keys: List[Tuple[str, int]] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.append((key.value, key.lineno))
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name.startswith("register") and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    keys.append((first.value, first.lineno))
    return keys


def check_rep002(
    contexts: Sequence[FileContext], config: RuleConfig
) -> List[Finding]:
    findings: List[Finding] = []
    # Covered files grouped by the root their packages share, so a
    # class in ``sim/`` is held to its sibling ``adversary/registry.py``.
    roots: Dict[Path, List[FileContext]] = {}
    for ctx in contexts:
        if ctx.path.parent.name in (
            _ADVERSARY_DIR, _PROTOCOL_DIR, _FAULTMODEL_DIR, _SIM_DIR
        ):
            roots.setdefault(ctx.path.parent.parent, []).append(ctx)

    docs_text = ""
    if config.docs_dir is not None and config.docs_dir.is_dir():
        docs_text = "\n".join(
            p.read_text(encoding="utf-8", errors="replace")
            for p in sorted(config.docs_dir.rglob("*.md"))
        )

    for _root, members in sorted(roots.items()):
        registries = {
            c.path.parent.name: c
            for c in members
            if c.path.name == "registry.py"
        }
        classes: Dict[str, _ClassInfo] = {}
        for ctx in members:
            if ctx.path.name in ("registry.py", "__init__.py"):
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = _ClassInfo(
                        name=node.name,
                        bases=_base_names(node),
                        abstract=_is_abstract(node),
                        ctx=ctx,
                        lineno=node.lineno,
                    )

        def reaches(name: str, bases: frozenset, seen: Set[str]) -> bool:
            if name in bases:
                return True
            info = classes.get(name)
            if info is None or name in seen:
                return False
            seen.add(name)
            return any(reaches(base, bases, seen) for base in info.bases)

        for concept, bases in _CONCEPTS:
            registry_ctx = registries.get(concept)
            registered: Set[str] = (
                _registry_identifiers(registry_ctx) if registry_ctx else set()
            )
            for info in classes.values():
                if info.abstract or info.name in registered:
                    continue
                if not any(reaches(b, bases, set()) for b in info.bases):
                    continue
                findings.append(
                    Finding(
                        rule="REP002",
                        file=info.ctx.display_path,
                        line=info.lineno,
                        col=0,
                        message=(
                            f"concrete class {info.name!r} is not "
                            f"referenced by {concept}/registry.py; "
                            "register it (or mark it abstract)"
                        ),
                        symbol=info.name,
                    )
                )

        if not docs_text:
            continue
        for registry_ctx in registries.values():
            for key, lineno in _registry_keys(registry_ctx):
                if key not in docs_text:
                    findings.append(
                        Finding(
                            rule="REP002",
                            file=registry_ctx.display_path,
                            line=lineno,
                            col=0,
                            message=(
                                f"registry name {key!r} appears nowhere "
                                "under docs/; document it (see "
                                "docs/registries.md)"
                            ),
                            symbol=key,
                        )
                    )
    return findings
