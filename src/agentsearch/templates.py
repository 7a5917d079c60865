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
from typing import Optional

from .envs.base import TaskError
from .prompts import DEFAULT_REFLECTIONS_HEADER, PromptBundle

_SECTION_RE = re.compile(r"^\[(instruction|example|reflections_header|cue)\]\s*$")

ROLES = ("act", "value", "reflect")


def parse_template(text: str) -> PromptBundle:
    sections = []
    current_name = None
    current_lines = []
    for line in text.splitlines():
        m = _SECTION_RE.match(line)
        if m:
            if current_name is not None:
                sections.append((current_name, "\n".join(current_lines).strip()))
            current_name = m.group(1)
            current_lines = []
        elif current_name is not None:
            current_lines.append(line)
        elif line.strip():
            raise ValueError(f"template text before the first section: {line!r}")
    if current_name is not None:
        sections.append((current_name, "\n".join(current_lines).strip()))

    instruction = None
    examples = []
    header = DEFAULT_REFLECTIONS_HEADER
    cue: Optional[str] = None
    for name, body in sections:
        if name == "instruction":
            instruction = body
        elif name == "example":
            examples.append(body)
        elif name == "reflections_header":
            header = body
        elif name == "cue":
            cue = body  # may be "", which suppresses the default cue
    if instruction is None:
        raise ValueError("template is missing an [instruction] section")
    return PromptBundle(
        instruction=instruction,
        few_shot=examples,
        reflections_header=header,
        cue=cue,
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
