"""README's code names resolve: every backticked ``blendsp.X...`` name and
every name qualified by one of the package's modules (``inference.SoftMax``,
``learner._iterate(...)``) imports, so a renamed or deleted name cannot
stay in the documentation."""

import pkgutil
import re
from pathlib import Path

import blendsp

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(blendsp.__path__))


def readme_names() -> list[str]:
    """The dotted names at the start of README's backticked spans, call
    arguments dropped, that begin with ``blendsp`` or a module's name."""
    heads = "|".join(["blendsp", *MODULES])
    spans = re.findall(r"`([^`]*)`", README.read_text())
    pattern = re.compile(rf"(?:{heads})(?:\.\w+)+")
    return sorted({m.group(0) for span in spans if (m := pattern.match(span))})


def test_readme_names_resolve():
    names = readme_names()
    assert "inference.SoftMax" in names and "blendsp.objective.BatchObjective.report" in names
    missing = []
    for name in names:
        try:
            pkgutil.resolve_name(name if name.startswith("blendsp.") else f"blendsp.{name}")
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing, f"README names what the package does not have: {missing}"
