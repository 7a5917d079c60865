"""Template parsing and bundled template loading."""

import pytest

from agentsearch.prompts import DEFAULT_REFLECTIONS_HEADER
from agentsearch.templates import load_template_set, parse_template

SAMPLE = """\
[instruction]
Solve the puzzle step by step.

[example]
Question: demo one
Action 1: combine[2 * 3]

[example]
Question: demo two
Action 1: combine[4 + 4]

[reflections_header]
Earlier attempts failed; read these notes.

[cue]
Step {i}:
"""


def test_parse_template_sections():
    bundle = parse_template(SAMPLE)
    assert bundle.instruction == "Solve the puzzle step by step."
    assert len(bundle.few_shot) == 2
    assert bundle.few_shot[0].startswith("Question: demo one")
    assert bundle.reflections_header == "Earlier attempts failed; read these notes."
    assert bundle.cue == "Step {i}:"


def test_parse_template_defaults():
    bundle = parse_template("[instruction]\njust do it\n")
    assert bundle.instruction == "just do it"
    assert bundle.few_shot == []
    assert bundle.reflections_header == DEFAULT_REFLECTIONS_HEADER
    assert bundle.cue is None  # per-style default cue applies


def test_empty_cue_section_suppresses_cue():
    bundle = parse_template("[instruction]\ni\n[cue]\n")
    assert bundle.cue == ""


def test_parse_template_requires_instruction():
    with pytest.raises(ValueError, match="instruction"):
        parse_template("[example]\nno instruction here\n")


def test_text_before_first_section_rejected():
    with pytest.raises(ValueError, match="before the first section"):
        parse_template("stray preamble\n[instruction]\ni\n")


@pytest.mark.parametrize("kind", ["game24", "docqa", "shop", "solution"])
def test_bundled_template_sets_load(kind):
    templates = load_template_set(kind)
    # Static text only: the engine decides which prompts show failed trajectories.
    for bundle in (templates.act, templates.value, templates.reflect):
        assert bundle.instruction
        assert bundle.failed_trajectories == [] and bundle.reflections == []
    assert "correctness score is" in templates.value.instruction


def test_load_template_set_from_directory(tmp_path):
    base = tmp_path / "game24"
    base.mkdir()
    for role in ("act", "value", "reflect"):
        (base / f"{role}.txt").write_text(f"[instruction]\ncustom {role} instruction\n")
    templates = load_template_set("game24", directory=tmp_path)
    assert templates.act.instruction == "custom act instruction"
    assert templates.value.instruction == "custom value instruction"
    assert templates.reflect.instruction == "custom reflect instruction"
