#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Walks the public API (everything re-exported through ``__all__``) and
emits a markdown reference: one section per module, one entry per
public class/function with its signature and first docstring paragraph.

Run from the repository root::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

MODULES = [
    "repro",
    "repro.automata",
    "repro.logic",
    "repro.rtsc",
    "repro.muml",
    "repro.legacy",
    "repro.testing",
    "repro.synthesis",
    "repro.baselines",
    "repro.railcab",
    "repro.automotive",
    "repro.workloads",
    "repro.persistence",
    "repro.obs",
    "repro.codegen",
    "repro.integration",
    "repro.errors",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].strip()
    return " ".join(paragraph.split())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"


def document_module(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_paragraph(module)
    if summary:
        lines += [summary, ""]
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    for symbol in exported:
        obj = getattr(module, symbol, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.append(f"### `{symbol}`")
            lines.append("")
            doc = first_paragraph(obj)
            if doc:
                lines += [doc, ""]
            methods = [
                (method_name, method)
                for method_name, method in inspect.getmembers(obj, inspect.isfunction)
                if not method_name.startswith("_") and method.__qualname__.startswith(obj.__name__)
            ]
            for method_name, method in sorted(methods):
                lines.append(f"- **`{method_name}{signature_of(method)}`** — {first_paragraph(method) or '…'}")
            if methods:
                lines.append("")
        elif callable(obj):
            lines.append(f"### `{symbol}{signature_of(obj)}`")
            lines.append("")
            doc = first_paragraph(obj)
            if doc:
                lines += [doc, ""]
        else:
            lines.append(f"### `{symbol}`")
            lines.append("")
            doc = f"Constant of type `{type(obj).__name__}`."
            lines += [doc, ""]
    return lines


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    out = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — regenerate after API changes.",
        "",
        "Performance characteristics of the synthesis loop — the incremental",
        "verification engine, its invalidation rule, and the loop benchmarks —",
        "are documented in [performance.md](performance.md); the span tracer,",
        "metrics registry, and trace exporters in",
        "[observability.md](observability.md).",
        "",
    ]
    for name in MODULES:
        out.extend(document_module(name))
    target = root / "docs" / "api.md"
    target.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {target} ({len(out)} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
