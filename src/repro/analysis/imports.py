"""Static import-graph analysis of the ``repro`` package.

The result cache (:mod:`repro.runner.cache`) keys every artifact by a
digest of the source code that could have influenced it.  Digesting the
whole tree is safe but maximally pessimistic: touching a docstring in
``obs/report.py`` would invalidate every cached simulation shard.  This
module computes, per module, the *import closure* — the set of package
modules reachable from it through ``import``/``from ... import``
statements anywhere in its AST — so a shard's cache key folds exactly the
code its worker can execute, and nothing else.

Resolution rules (deliberately static, mirroring what the interpreter
does for the import forms this codebase uses):

* ``import repro.x.y`` and ``from repro.x.y import name`` depend on
  ``repro.x.y``;
* ``from repro.x import y`` depends on the submodule ``repro.x.y`` when
  one exists, else on ``repro.x`` itself (a plain attribute import);
* relative imports (``from .base import ...``) resolve against the
  importing module's package;
* imports of anything outside the package (stdlib, numpy) are ignored.

Two rules the cache's correctness leans on.  A closure leaves out the
package initialisers Python runs on the way to a module (``from
repro.experiments import fig10`` records only ``fig10``); that is sound
because every initialiser a closure leaves out is re-export only, which
``tests/test_analysis_imports.py``
(``test_package_inits_outside_a_closure_are_reexport_only``) checks for
every shard root.  Dynamic imports
(``importlib.import_module``) are invisible — the one dynamic site that
matters, the shard-runner resolver in :mod:`repro.runner.pool`, is
handled by using the runner's own module as the closure root.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path
from typing import Iterable, Mapping, Optional

#: the package this analyser understands
DEFAULT_PACKAGE = "repro"

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent  # src/repro


def _module_name(root: Path, path: Path, package: str) -> str:
    """Dotted module name of ``path`` relative to the package ``root``."""
    rel = path.relative_to(root).with_suffix("")
    parts = [package, *rel.parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class ImportGraph:
    """Module -> imported-modules edges for one package tree.

    ``overlay`` maps dotted module names to replacement source bytes; it
    exists so tests can ask "what would the closure digests be if this
    file changed" without touching the real tree.
    """

    def __init__(
        self,
        package_root: "Path | None" = None,
        package: str = DEFAULT_PACKAGE,
        overlay: Optional[Mapping[str, bytes]] = None,
    ) -> None:
        self.root = Path(package_root) if package_root is not None else _PACKAGE_ROOT
        self.package = package
        self.overlay = dict(overlay or {})
        self.files: dict[str, Path] = {
            _module_name(self.root, path, package): path
            for path in sorted(self.root.rglob("*.py"))
        }
        self._sources: dict[str, bytes] = {}
        self._edges: dict[str, frozenset[str]] = {}
        self._closures: dict[str, frozenset[str]] = {}
        self._file_digests: dict[str, str] = {}

    # -- sources ---------------------------------------------------------------
    def source(self, module: str) -> bytes:
        """Raw bytes of a module (the overlay wins over the tree)."""
        if module in self.overlay:
            return self.overlay[module]
        if module not in self._sources:
            self._sources[module] = self.files[module].read_bytes()
        return self._sources[module]

    def __contains__(self, module: str) -> bool:
        return module in self.files

    # -- edges -----------------------------------------------------------------
    def imports_of(self, module: str) -> frozenset[str]:
        """Package modules imported by ``module`` (anywhere in its AST)."""
        if module not in self._edges:
            self._edges[module] = frozenset(self._resolve_imports(module))
        return self._edges[module]

    def _resolve_imports(self, module: str) -> Iterable[str]:
        try:
            tree = ast.parse(self.source(module))
        except SyntaxError:
            # An unparsable module has no resolvable edges; its own file
            # digest still changes with its bytes, so caching stays sound.
            return
        # the package a relative import resolves against
        is_pkg = self.files[module].name == "__init__.py"
        pkg_parts = module.split(".") if is_pkg else module.split(".")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._resolve_absolute(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative: from .x import y
                    base_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                    base = ".".join(base_parts + (node.module or "").split("."))
                    base = base.rstrip(".")
                else:
                    base = node.module or ""
                if not self._in_package(base):
                    continue
                for alias in node.names:
                    sub = f"{base}.{alias.name}"
                    if sub in self.files:
                        yield sub  # ``from repro.x import y`` -> submodule
                    elif base in self.files:
                        yield base  # plain attribute import

    def _in_package(self, name: str) -> bool:
        return name == self.package or name.startswith(self.package + ".")

    def _resolve_absolute(self, name: str) -> Iterable[str]:
        if not self._in_package(name):
            return
        if name in self.files:
            yield name

    # -- closures ---------------------------------------------------------------
    def closure(self, module: str) -> frozenset[str]:
        """Reflexive-transitive import closure of ``module`` (sorted set)."""
        if module in self._closures:
            return self._closures[module]
        seen: set[str] = set()
        stack = [module]
        while stack:
            current = stack.pop()
            if current in seen or current not in self.files:
                continue
            seen.add(current)
            stack.extend(self.imports_of(current))
        result = frozenset(seen)
        self._closures[module] = result
        return result

    # -- digests ---------------------------------------------------------------
    def file_digest(self, module: str) -> str:
        if module not in self._file_digests:
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(module.encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(self.source(module))
            self._file_digests[module] = hasher.hexdigest()
        return self._file_digests[module]


#: modules whose *file* digests salt every cache key: the cache/runner
#: machinery shapes the stored artifacts themselves, so changing it must
#: invalidate everything even though no experiment imports it.
ENGINE_MODULES = (
    "repro.experiments.base",
    "repro.experiments.registry",
    "repro.runner.cache",
    "repro.runner.pool",
)


class DependencyDigests:
    """Per-module closure digests over an :class:`ImportGraph`.

    ``closure_digest(module)`` folds the file digest of every module in
    the import closure plus the engine digest; it changes exactly when a
    file the module can reach (or the runner machinery) changes.  Unknown
    modules return ``None`` so callers can fall back to a whole-tree
    digest.
    """

    def __init__(
        self,
        package_root: "Path | None" = None,
        package: str = DEFAULT_PACKAGE,
        overlay: Optional[Mapping[str, bytes]] = None,
        engine_modules: tuple[str, ...] = ENGINE_MODULES,
    ) -> None:
        self.graph = ImportGraph(package_root, package=package, overlay=overlay)
        self.engine_modules = engine_modules
        self._engine: Optional[str] = None
        self._digests: dict[str, str] = {}

    def engine_digest(self) -> str:
        if self._engine is None:
            hasher = hashlib.blake2b(digest_size=16)
            for module in self.engine_modules:
                if module in self.graph:
                    hasher.update(self.graph.file_digest(module).encode("ascii"))
            self._engine = hasher.hexdigest()
        return self._engine

    def closure(self, module: str) -> tuple[str, ...]:
        return tuple(sorted(self.graph.closure(module)))

    def closure_digest(self, module: str) -> Optional[str]:
        if module not in self.graph:
            return None
        if module not in self._digests:
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(self.engine_digest().encode("ascii"))
            for name in self.closure(module):
                hasher.update(self.graph.file_digest(name).encode("ascii"))
                hasher.update(b"\0")
            self._digests[module] = hasher.hexdigest()
        return self._digests[module]
