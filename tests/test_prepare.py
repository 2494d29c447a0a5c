import pytest

from aekit.gateway import ChatMessage, ScriptedChatProvider
from aekit.prepare import (
    ACTION_DONE,
    ACTION_FAIL,
    ACTION_RUN,
    AgentAction,
    AgentTranscript,
    ArtifactBundle,
    OUTCOME_BUDGET_EXHAUSTED,
    OUTCOME_FAILURE,
    OUTCOME_SUCCESS,
    PrepareLimits,
    PrepareOutcome,
    command_denied,
    parse_action,
    run_prepare_loop,
)
from aekit.sandbox import BACKEND_LOCAL, SandboxSpec

from conftest import CountingChat, done_message, fail_message, run_message

BUNDLE = ArtifactBundle(
    paper_id="demo",
    paper_text="A short paper describing a tool.",
    source_ref="https://example.org/demo.git",
    readme_text="run ./demo.sh",
)

LIMITS = PrepareLimits(max_iterations=10, command_timeout=20, output_cap=4096)


def local_spec(tmp_path):
    return SandboxSpec(backend=BACKEND_LOCAL, workdir=str(tmp_path / "boxes"))


class TestParseAction:
    def test_run_with_fenced_command(self):
        msg = ChatMessage("assistant", "ACTION: RUN\n```\npip install -r requirements.txt\n```")
        action = parse_action(msg)
        assert action == AgentAction(ACTION_RUN, "pip install -r requirements.txt")

    def test_run_with_language_tag_fence(self):
        msg = ChatMessage("assistant", "ACTION: RUN\n```bash\nmake test\n```")
        assert parse_action(msg).payload == "make test"

    def test_run_with_inline_remainder(self):
        msg = ChatMessage("assistant", "ACTION: RUN echo hello")
        assert parse_action(msg) == AgentAction(ACTION_RUN, "echo hello")

    def test_done_with_summary(self):
        action = parse_action(ChatMessage("assistant", "ACTION: DONE build succeeded"))
        assert action == AgentAction(ACTION_DONE, "build succeeded")

    def test_fail_with_reason(self):
        action = parse_action(ChatMessage("assistant", "ACTION: FAIL missing dataset"))
        assert action == AgentAction(ACTION_FAIL, "missing dataset")

    def test_prose_without_action_line_is_reprompt_signal(self):
        assert parse_action(ChatMessage("assistant", "let me think about this")) is None

    def test_multiline_run_payload_is_reprompt_signal(self):
        msg = ChatMessage("assistant", "ACTION: RUN\n```\ncd repo\nmake\n```")
        assert parse_action(msg) is None

    def test_empty_done_payload_is_reprompt_signal(self):
        assert parse_action(ChatMessage("assistant", "ACTION: DONE")) is None

    def test_action_line_after_preamble(self):
        msg = ChatMessage("assistant", "I will install deps.\nACTION: RUN\n```\napt list\n```")
        assert parse_action(msg).payload == "apt list"

    def test_non_assistant_message_rejected(self):
        with pytest.raises(ValueError):
            parse_action(ChatMessage("user", "ACTION: DONE x"))


class TestDenylist:
    @pytest.mark.parametrize(
        "command",
        ["nano config.txt", "vi /etc/hosts", "shutdown -h now", "dd if=img of=/dev/sda", "mkfs.ext4 /dev/sdb1"],
    )
    def test_dangerous_commands_denied(self, command):
        assert command_denied(command) is not None

    @pytest.mark.parametrize(
        "command",
        ["pip install nanotime", "ls -la", "python run.py --viz", "git clone https://x.test/r.git"],
    )
    def test_ordinary_commands_allowed(self, command):
        assert command_denied(command) is None


class TestPrepareLoop:
    def test_hello_world_success(self, tmp_path):
        chat = ScriptedChatProvider([run_message("printf 'hello\\n'"), done_message("ran fine")])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS,
                                   snapshot_dir=tmp_path / "snaps")
        assert outcome.status == OUTCOME_SUCCESS
        assert outcome.snapshot_ref
        assert len(outcome.transcript.steps) == 1
        assert outcome.transcript.steps[0].exit_code == 0
        assert outcome.transcript.outcome_detail == "ran fine"

    def test_failing_fixture_reports_command_and_exit_code(self, tmp_path):
        chat = ScriptedChatProvider([run_message("false"), fail_message("dependency unavailable")])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        assert outcome.status == OUTCOME_FAILURE
        assert outcome.error_report.exit_code == 1
        assert outcome.error_report.failed_command == "false"
        assert outcome.error_report.diagnosis_text == "dependency unavailable"

    def test_premature_done_is_converted_to_failure(self, tmp_path):
        chat = ScriptedChatProvider([run_message("exit 3"), done_message("all good")])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        assert outcome.status == OUTCOME_FAILURE
        assert "premature DONE" in outcome.error_report.diagnosis_text
        assert outcome.error_report.exit_code == 3

    def test_done_without_any_run_is_premature(self, tmp_path):
        chat = ScriptedChatProvider([done_message("nothing to do")])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        assert outcome.status == OUTCOME_FAILURE
        assert "premature DONE" in outcome.error_report.diagnosis_text

    def test_zero_budget_exhausts_without_chat_calls(self, tmp_path):
        chat = CountingChat(ScriptedChatProvider([done_message()]))
        outcome = run_prepare_loop(
            BUNDLE, local_spec(tmp_path), chat, PrepareLimits(max_iterations=0)
        )
        assert outcome.status == OUTCOME_BUDGET_EXHAUSTED
        assert outcome.transcript.steps == ()
        assert chat.calls == 0

    def test_budget_exhaustion_mid_script(self, tmp_path):
        chat = ScriptedChatProvider([run_message("true")] * 5 + [done_message()])
        outcome = run_prepare_loop(
            BUNDLE, local_spec(tmp_path), chat, PrepareLimits(max_iterations=3, command_timeout=20, output_cap=1024)
        )
        assert outcome.status == OUTCOME_BUDGET_EXHAUSTED
        assert len(outcome.transcript.steps) == 3

    def test_recovery_after_failed_command(self, tmp_path):
        chat = ScriptedChatProvider(
            [run_message("false"), run_message("true"), done_message("recovered")]
        )
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS,
                                   snapshot_dir=tmp_path / "snaps")
        assert outcome.status == OUTCOME_SUCCESS
        assert [s.exit_code for s in outcome.transcript.steps] == [1, 0]

    def test_a_host_without_pidfd_open_fails_the_paper(self, tmp_path, monkeypatch):
        monkeypatch.delattr("os.pidfd_open")
        chat = ScriptedChatProvider([run_message("true"), done_message()])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        assert outcome.status == OUTCOME_FAILURE
        assert outcome.error_report.diagnosis_text == (
            "sandbox error: sandboxed processes need os.pidfd_open (Linux >= 5.3)")
        assert outcome.error_report.failed_command == "true"

    def test_unparseable_after_retries_becomes_failure(self, tmp_path):
        prose = ChatMessage("assistant", "thinking out loud, no action")
        chat = CountingChat(ScriptedChatProvider([prose, prose, prose, prose, done_message()]))
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        assert outcome.status == OUTCOME_FAILURE
        assert "no parseable action" in outcome.error_report.diagnosis_text
        assert chat.calls == 4  # initial + 3 re-prompts

    def test_denied_command_not_executed_and_fed_back(self, tmp_path):
        chat = ScriptedChatProvider(
            [run_message("nano setup.cfg"), run_message("true"), done_message()]
        )
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS,
                                   snapshot_dir=tmp_path / "snaps")
        assert outcome.status == OUTCOME_SUCCESS
        assert [s.command for s in outcome.transcript.steps] == ["true"]
        assert any(
            m.role == "user" and "rejected by sandbox policy" in m.content
            for m in outcome.transcript.messages
        )

    def test_history_contains_one_assistant_action_per_step(self, tmp_path):
        chat = ScriptedChatProvider(
            [run_message("echo a"), run_message("echo b"), done_message()]
        )
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS,
                                   snapshot_dir=tmp_path / "snaps")
        run_actions = [
            m for m in outcome.transcript.messages
            if m.role == "assistant" and "ACTION: RUN" in m.content
        ]
        assert len(run_actions) == len(outcome.transcript.steps) == 2
        assert [s.command for s in outcome.transcript.steps] == ["echo a", "echo b"]

    def test_first_message_instructs_downloading_code(self, tmp_path):
        chat = ScriptedChatProvider([fail_message("nothing works")])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        intro = outcome.transcript.messages[1]
        assert intro.role == "user"
        assert "download" in intro.content.lower()
        assert BUNDLE.source_ref in intro.content

    def test_command_output_fed_back_to_agent(self, tmp_path):
        chat = ScriptedChatProvider([run_message("echo marker-output"), done_message()])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS,
                                   snapshot_dir=tmp_path / "snaps")
        feedback = [m for m in outcome.transcript.messages if m.role == "user"]
        assert any("marker-output" in m.content for m in feedback)

    def test_sandbox_is_torn_down_after_the_loop(self, tmp_path):
        captured = {}
        original_close = None

        from aekit import sandbox as sandbox_module

        class SpyBox(sandbox_module.LocalProcessSandbox):
            def close(self):
                captured["closed"] = True
                super().close()

        spec = local_spec(tmp_path)
        import aekit.prepare as prepare_module

        original = prepare_module.open_sandbox
        prepare_module.open_sandbox = lambda s, **kw: SpyBox(s)
        try:
            chat = ScriptedChatProvider([run_message("true"), done_message()])
            run_prepare_loop(BUNDLE, spec, chat, LIMITS, snapshot_dir=tmp_path / "snaps")
        finally:
            prepare_module.open_sandbox = original
        assert captured.get("closed")

    def test_isolation_canary_directory_untouched(self, tmp_path):
        canary = tmp_path / "canary"
        canary.mkdir()
        (canary / "precious.txt").write_text("do not touch")
        before = {p.name: p.read_text() for p in canary.iterdir()}

        chat = ScriptedChatProvider(
            [run_message("touch created.txt"), run_message("echo data > generated.log"), done_message()]
        )
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS,
                                   snapshot_dir=tmp_path / "snaps")
        assert outcome.status == OUTCOME_SUCCESS
        after = {p.name: p.read_text() for p in canary.iterdir()}
        assert before == after

    def test_transcript_serialization_round_trip(self, tmp_path):
        chat = ScriptedChatProvider([run_message("echo x"), fail_message("why not")])
        outcome = run_prepare_loop(BUNDLE, local_spec(tmp_path), chat, LIMITS)
        text = outcome.transcript.to_json()
        assert AgentTranscript.from_json(text).to_json() == text

    def test_success_requires_snapshot_ref(self, tmp_path):
        transcript = AgentTranscript("x", (), (), OUTCOME_SUCCESS, "d")
        with pytest.raises(ValueError):
            PrepareOutcome(status=OUTCOME_SUCCESS, transcript=transcript, snapshot_ref=None)
