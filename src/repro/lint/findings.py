"""Structured lint findings.

Every rule -- AST-based or runtime -- reports through :class:`Finding`
so that the text and JSON renderers, the CLI exit code, and the tier-1
clean-tree test all consume one shape.  Findings sort by (path, line,
column, rule) so reports are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``severity`` is one of ``high``/``medium``/``low`` (see
    :mod:`repro.lint.base`); ``fingerprint`` is a location-drift-stable
    id assigned by :mod:`repro.lint.fingerprint` when a report is
    assembled (empty for findings constructed in isolation, e.g. by
    :func:`repro.lint.runner.lint_source` unit tests).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "medium"
    fingerprint: str = ""

    def render(self) -> str:
        """``path:line:col: rule-id: message`` -- the text-format row."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
            "fingerprint": self.fingerprint,
        }


@dataclass
class RuleContext:
    """Per-file information the AST rules need beyond the tree itself.

    ``is_rng_module`` exempts :mod:`repro.sim.rng` from the
    global-random rule: that module is the one sanctioned home of the
    ``random`` module (it wraps it behind :class:`RngStreams`).
    """

    path: str
    source: str
    is_rng_module: bool = False
    #: The protocol registry module -- the one sanctioned construction
    #: site of ``*Protocol`` classes (direct-protocol-instantiation).
    is_protocol_registry: bool = False
    #: Test/benchmark modules may construct protocols directly.
    is_test_module: bool = False
    #: Names exported via ``__all__`` (count as uses for unused-import).
    exported_names: frozenset = field(default_factory=frozenset)
    #: Packages whose public API must carry docstrings
    #: (missing-public-docstring); opt-in per path, see lint.runner.
    requires_public_docstrings: bool = False
    #: Dotted module name when known ("repro.sim.engine"); program-pass
    #: rules use it to attribute findings across modules.
    module_name: "str | None" = None
