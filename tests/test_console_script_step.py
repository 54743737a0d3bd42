"""One refusal check in the console-script CI step: the step defines
`refuses` once, and the one `status=$?` in it is that function's, so a new
CLI refusal can only be added as one `refuses` row."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEP = "Console script end to end"


def step_text(workflow: str, name: str) -> str:
    """The lines of the workflow step named ``name``, up to the next step."""
    lines = workflow.splitlines()
    start = lines.index(f"      - name: {name}")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("      - name: ")), len(lines))
    return "\n".join(lines[start:end])


def function_body(script: str, name: str) -> str:
    """The lines of shell function ``name``, from its ``name() {`` line to
    the first ``}`` line at the same indent."""
    lines = script.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"{name}() {{")
    indent = lines[start][: len(lines[start]) - len(lines[start].lstrip())]
    end = lines.index(f"{indent}}}", start)
    return "\n".join(lines[start : end + 1])


def test_scan_finds_a_step_and_a_function():
    workflow = (
        "    steps:\n      - name: a\n        run: |\n          f() {\n            x || status=$?\n"
        "          }\n          f 1\n      - name: b\n        run: status=$?\n"
    )
    step = step_text(workflow, "a")
    assert step.count("status=$?") == 1 and "name: b" not in step
    assert function_body(step, "f") == "          f() {\n            x || status=$?\n          }"


def test_each_refusal_is_one_refuses_row():
    step = step_text(WORKFLOW.read_text(encoding="utf-8"), STEP)
    assert sum(line.strip() == "refuses() {" for line in step.splitlines()) == 1
    assert step.count("status=$?") == 1
    assert function_body(step, "refuses").count("status=$?") == 1
