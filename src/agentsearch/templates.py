"""Prompt template files.

A template is plain text split into bracketed sections:

    [instruction]
    ...the standing instruction...
    [example]
    ...one few-shot exemplar...
    [example]
    ...another...
    [reflections_header]
    ...optional override...
    [cue]
    ...optional next-step cue; an empty section suppresses the cue...

Runtime slots (reflection texts, failed trajectories, the current state
context) are filled at assembly time in a fixed order, so template files
only carry the static text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .envs.base import TaskError
from .prompts import DEFAULT_REFLECTIONS_HEADER, PromptBundle

_SECTION_RE = re.compile(r"^\[(instruction|example|reflections_header|cue)\]\s*$")

ROLES = ("act", "value", "reflect")


def parse_template(text: str) -> PromptBundle:
    """A template's bundle. Text before the first section, a missing
    [instruction] and a repeat of any section but [example] are ValueErrors."""
    sections = {}  # section name -> its lines
    examples = []
    lines = None  # the lines of the section being read
    for line in text.splitlines():
        m = _SECTION_RE.match(line)
        name = m.group(1) if m else None
        if name is None:
            if lines is not None:
                lines.append(line)
            elif line.strip():
                raise ValueError(f"template text before the first section: {line!r}")
        elif name == "example":
            lines = []
            examples.append(lines)
        elif name in sections:
            raise ValueError(f"template repeats the [{name}] section")
        else:
            lines = sections[name] = []
    body = {key: "\n".join(part).strip() for key, part in sections.items()}
    if "instruction" not in body:
        raise ValueError("template is missing an [instruction] section")
    return PromptBundle(
        instruction=body["instruction"],
        few_shot=["\n".join(part).strip() for part in examples],
        reflections_header=body.get("reflections_header", DEFAULT_REFLECTIONS_HEADER),
        cue=body.get("cue"),  # "" suppresses the default cue
    )


@dataclass
class TemplateSet:
    act: PromptBundle
    value: PromptBundle
    reflect: PromptBundle


def load_template_set(kind: str, directory=None) -> TemplateSet:
    """Templates for one environment kind.

    With no directory given, the bundled defaults under data/templates/<kind>
    are used. The bundles hold static text only; the engine decides which
    of them show failed trajectories. A missing, unreadable or malformed
    template raises TaskError.
    """
    if directory is not None:
        base = Path(directory)
    else:
        # A Traversable, not a Path, as the package may be zipped; joined one
        # segment at a time, as Traversable.joinpath takes one on Python 3.10.
        base = resources.files("agentsearch") / "data" / "templates"
    bundles = {}
    for role in ROLES:
        try:
            text = (base / kind / f"{role}.txt").read_text(encoding="utf-8")
            bundles[role] = parse_template(text)
        except (OSError, ValueError) as exc:
            raise TaskError(f"{kind} {role} template: {exc}") from exc
    return TemplateSet(**bundles)
