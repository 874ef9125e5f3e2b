"""DOT rendering of a mechanism's dependency graph.

Node classes: data columns (blue boxes), missingness indicators (red
diamonds), latent quantities (grey dashed: unobserved data columns and
block indicators), the subject effect (green circle). Edge style encodes
determinism: dashed for probabilistic influence, solid for deterministic.
"""

from __future__ import annotations

from .mechanisms import MechanismSpec, spec_dependencies

_NODE_ATTRS = {
    "data": 'shape=box, color=blue, class="data"',
    "latent": 'shape=box, color=gray, style=dashed, class="latent"',
    "indicator": 'shape=diamond, color=red, class="indicator"',
    "block": 'shape=ellipse, color=gray, style=dashed, class="latent"',
    "subject": 'shape=circle, color=green, class="subject-effect"',
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def export_dot(spec: MechanismSpec) -> str:
    """Render the spec's dependency graph as DOT text (deterministic)."""
    names = spec.names()
    edges = spec_dependencies(spec)

    lines = ["digraph mechanism {", "  rankdir=LR;"]
    for j, name in enumerate(names):
        cls = "latent" if j in spec.latent_columns else "data"
        lines.append(f"  {_quote(name)} [{_NODE_ATTRS[cls]}];")
    for j, name in enumerate(names):
        lines.append(f"  {_quote('M_' + name)} [{_NODE_ATTRS['indicator']}];")
    for b in range(len(spec.blocks)):
        lines.append(f"  {_quote(f'B{b + 1}')} [{_NODE_ATTRS['block']}];")
    if spec.subject_effect_var is not None:
        lines.append(f"  {_quote('S')} [{_NODE_ATTRS['subject']}];")

    seen: set[tuple[str, str, bool]] = set()
    for e in edges:
        kind, idx = e.source
        if kind == "data":
            src = names[idx]
        elif kind == "mask":
            src = "M_" + names[idx]
        elif kind == "block":
            src = f"B{idx + 1}"
        else:
            src = "S"
        dst = "M_" + names[e.target]
        key = (src, dst, e.deterministic)
        if key in seen:
            continue
        seen.add(key)
        style = "solid" if e.deterministic else "dashed"
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
