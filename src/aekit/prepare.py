"""Autonomous environment preparation.

A chat model drives a sandboxed shell through an explicit action
protocol: each assistant message must contain a line ``ACTION: RUN``
(followed by exactly one shell command, usually fenced), ``ACTION: DONE
<summary>``, or ``ACTION: FAIL <reason>``.  Command output is fed back
into the conversation so the model can diagnose failures and try
corrective commands, until it declares an outcome or the iteration
budget runs out.

Success is verified mechanically, never taken from the model: DONE only
counts if the last executed command exited 0, otherwise the outcome is
converted to a failure with a "premature DONE" diagnosis.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .gateway import ChatMessage, ChatProvider
from .jsonio import Artifact
from .sandbox import CommandStep, SandboxSpec, open_sandbox

ACTION_RUN = "RUN"
ACTION_DONE = "DONE"
ACTION_FAIL = "FAIL"

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_BUDGET_EXHAUSTED = "budget_exhausted"

MAX_PARSE_RETRIES = 3

# Interactive editors hang a non-interactive shell; the rest can damage
# the host or the sandbox irrecoverably.  Matched against the whole
# command; rejections are fed back to the model as output.
DEFAULT_COMMAND_DENYLIST = (
    r"(^|[;&|]\s*)(nano|vi|vim|emacs)\b",
    r"\b(shutdown|reboot|halt|poweroff)\b",
    r"\bdd\b[^|;&]*\bof=/dev/",
    r">\s*/dev/(sd|hd|nvme|vd)",
    r"\bmkfs(\.\w+)?\b",
)

_ACTION_RE = re.compile(r"^\s*ACTION:\s*(RUN|DONE|FAIL)\b(.*)$", re.MULTILINE)
_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)

SYSTEM_PROMPT = """\
You are an expert build engineer working inside a disposable sandbox.
Your job is to set up the environment for a research code artifact so
that it runs.

Respond with exactly one action per message:

ACTION: RUN
```
<one single shell command>
```

ACTION: DONE <short summary of the working setup>

ACTION: FAIL <short reason why no further corrective action is possible>

Rules: one command per RUN, non-interactive commands only (no editors),
wrap multi-step work as a single `bash -c '...'` command.  Declare DONE
only after a command that demonstrates the artifact runs has exited 0.
"""

FIRST_INSTRUCTION = (
    "Start by downloading any relevant code and datasets required to "
    "execute the artifact into the current directory, then set up the "
    "environment and run it."
)


class UnparseableAfterRetries(RuntimeError):
    pass


@dataclass(frozen=True)
class ArtifactBundle:
    paper_id: str
    paper_text: str
    source_ref: str
    readme_text: str | None = None

    def __post_init__(self) -> None:
        if not self.source_ref:
            raise ValueError("source_ref must be nonempty")
        if not self.paper_text:
            raise ValueError("paper_text must be nonempty")


@dataclass(frozen=True)
class AgentAction:
    kind: str
    payload: str

    def __post_init__(self) -> None:
        if self.kind not in (ACTION_RUN, ACTION_DONE, ACTION_FAIL):
            raise ValueError(f"unknown action kind: {self.kind!r}")
        if not self.payload:
            raise ValueError("action payload must be nonempty")


@dataclass(frozen=True)
class PrepareLimits:
    max_iterations: int = 40
    command_timeout: float = 600.0
    output_cap: int = 8192

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not 0 < self.command_timeout < math.inf:
            raise ValueError(f"command_timeout must be finite and positive, got {self.command_timeout}")
        if self.output_cap <= 0:
            raise ValueError("output_cap must be positive")


@dataclass(frozen=True)
class AgentTranscript(Artifact):
    KIND = "transcript"

    paper_id: str
    steps: tuple[CommandStep, ...]
    messages: tuple[ChatMessage, ...]
    outcome: str
    outcome_detail: str


@dataclass(frozen=True)
class ErrorReport(Artifact):
    failed_command: str
    exit_code: int
    diagnosis_text: str


@dataclass(frozen=True)
class PrepareOutcome(Artifact):
    KIND = "prepare outcome"

    status: str
    transcript: AgentTranscript
    snapshot_ref: str | None = None
    error_report: ErrorReport | None = None

    def __post_init__(self) -> None:
        if self.status not in (OUTCOME_SUCCESS, OUTCOME_FAILURE, OUTCOME_BUDGET_EXHAUSTED):
            raise ValueError(f"unknown outcome status: {self.status!r}")
        if self.status == OUTCOME_SUCCESS and not self.snapshot_ref:
            raise ValueError("a successful outcome must carry a snapshot ref")


def parse_action(message: ChatMessage) -> AgentAction | None:
    """Extract the action from an assistant message.

    Returns None when the message cannot be parsed (no ACTION line, empty
    payload, or a RUN payload spanning multiple lines), which signals the
    loop to re-prompt rather than fail.
    """
    if message.role != "assistant":
        raise ValueError("actions are parsed from assistant messages only")
    match = _ACTION_RE.search(message.content)
    if match is None:
        return None
    kind = match.group(1)
    remainder_of_line = match.group(2).strip()
    after = message.content[match.end():]

    if kind == ACTION_RUN:
        fenced = _FENCE_RE.search(after) or _FENCE_RE.search(message.content)
        payload = fenced.group(1).strip() if fenced else (remainder_of_line or after.strip())
        if not payload or "\n" in payload:
            return None
        return AgentAction(kind=kind, payload=payload)

    payload = " ".join(part for part in (remainder_of_line, after.strip()) if part)
    if not payload:
        return None
    return AgentAction(kind=kind, payload=payload)


def command_denied(command: str) -> str | None:
    """The matching denylist pattern, or None when the command is allowed."""
    for pattern in DEFAULT_COMMAND_DENYLIST:
        if re.search(pattern, command):
            return pattern
    return None


def _intro_message(bundle: ArtifactBundle) -> ChatMessage:
    parts = [
        FIRST_INSTRUCTION,
        f"Artifact source: {bundle.source_ref}",
        "--- Paper ---",
        bundle.paper_text,
    ]
    if bundle.readme_text:
        parts += ["--- Readme ---", bundle.readme_text]
    else:
        parts += ["--- Readme ---", "(no readme was provided)"]
    return ChatMessage("user", "\n".join(parts))


def _feedback(step: CommandStep) -> ChatMessage:
    status = "timed out" if step.timed_out else f"exited {step.exit_code}"
    body = (
        f"Command {status}.\n"
        f"--- stdout (tail{', truncated' if step.truncated else ''}) ---\n"
        f"{step.stdout_tail}\n"
        f"--- stderr (tail) ---\n"
        f"{step.stderr_tail}"
    )
    return ChatMessage("user", body)


def _next_action(
    chat: ChatProvider, messages: list[ChatMessage]
) -> AgentAction:
    """One chat turn, with up to MAX_PARSE_RETRIES corrective re-prompts."""
    for retry in range(MAX_PARSE_RETRIES + 1):
        if retry:
            messages.append(
                ChatMessage(
                    "user",
                    "Your last message had no parseable action. Reply with a single "
                    "'ACTION: RUN' (one fenced shell command), 'ACTION: DONE <summary>' "
                    "or 'ACTION: FAIL <reason>'.",
                )
            )
        reply = chat.next_message(messages)
        messages.append(reply)
        action = parse_action(reply)
        if action is not None:
            return action
    raise UnparseableAfterRetries(f"no parseable action after {MAX_PARSE_RETRIES} re-prompts")


def run_prepare_loop(
    bundle: ArtifactBundle,
    spec: SandboxSpec,
    chat: ChatProvider,
    limits: PrepareLimits = PrepareLimits(),
    snapshot_dir: str | Path | None = None,
) -> PrepareOutcome:
    """Drive the command/feedback loop until a verdict or budget end.

    Each loop iteration is one chat turn.  The sandbox is snapshotted on
    success and torn down in every case; sandbox and provider errors are
    converted into a failure outcome with a diagnosis rather than raised.
    """
    messages: list[ChatMessage] = [
        ChatMessage("system", SYSTEM_PROMPT),
        _intro_message(bundle),
    ]
    steps: list[CommandStep] = []

    def transcript(outcome: str, detail: str) -> AgentTranscript:
        return AgentTranscript(
            paper_id=bundle.paper_id,
            steps=tuple(steps),
            messages=tuple(messages),
            outcome=outcome,
            outcome_detail=detail,
        )

    def failure(detail: str, step: CommandStep | None = None, command: str = "") -> PrepareOutcome:
        """A failure whose evidence is ``step``, or ``command`` when no step ran."""
        return PrepareOutcome(
            status=OUTCOME_FAILURE,
            transcript=transcript(OUTCOME_FAILURE, detail),
            error_report=ErrorReport(
                failed_command=command if step is None else step.command,
                exit_code=0 if step is None else step.exit_code,
                diagnosis_text=detail,
            ),
        )

    try:
        sandbox = open_sandbox(spec)
    except Exception as exc:
        return failure(f"sandbox could not be opened: {exc}")

    last_step: CommandStep | None = None
    try:
        for _ in range(limits.max_iterations):
            try:
                action = _next_action(chat, messages)
            except UnparseableAfterRetries as exc:
                return failure(str(exc))
            except Exception as exc:
                return failure(f"chat provider error: {exc}")

            if action.kind == ACTION_RUN:
                denied_by = command_denied(action.payload)
                if denied_by is not None:
                    messages.append(
                        ChatMessage(
                            "user",
                            f"Command rejected by sandbox policy (matched {denied_by!r}); "
                            "it was not executed. Use a non-interactive alternative.",
                        )
                    )
                    continue
                try:
                    step = sandbox.run(
                        action.payload, limits.command_timeout, limits.output_cap
                    )
                except Exception as exc:
                    return failure(f"sandbox error: {exc}", command=action.payload)
                steps.append(step)
                last_step = step
                messages.append(_feedback(step))
                continue

            if action.kind == ACTION_DONE:
                if last_step is None or last_step.exit_code != 0:
                    detail = (
                        "premature DONE: no command was executed"
                        if last_step is None
                        else f"premature DONE: last command exited {last_step.exit_code}"
                    )
                    return failure(detail, last_step)
                try:
                    ref = sandbox.snapshot(bundle.paper_id, snapshot_dir)
                except Exception as exc:
                    return failure(f"snapshot failed: {exc}", last_step)
                return PrepareOutcome(
                    status=OUTCOME_SUCCESS,
                    transcript=transcript(OUTCOME_SUCCESS, action.payload),
                    snapshot_ref=ref,
                )

            # FAIL: the agent gave up; attach the last command's evidence.
            return failure(action.payload, last_step)

        detail = f"iteration budget of {limits.max_iterations} exhausted"
        return PrepareOutcome(
            status=OUTCOME_BUDGET_EXHAUSTED,
            transcript=transcript(OUTCOME_BUDGET_EXHAUSTED, detail),
        )
    finally:
        sandbox.close()

