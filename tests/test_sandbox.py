import contextlib
import gc
import os
import signal
import subprocess
import sys
import tarfile
import time
import warnings
from pathlib import Path

import pytest

import aekit
from aekit.sandbox import (
    BACKEND_CONTAINER,
    BACKEND_LOCAL,
    BackendUnavailable,
    CommandStep,
    ContainerSandbox,
    SandboxClosed,
    SandboxSpec,
    SnapshotFailure,
    TIMEOUT_EXIT_CODE,
    _run_capped,
    open_sandbox,
)


@pytest.fixture
def sandbox(tmp_path):
    box = open_sandbox(SandboxSpec(backend=BACKEND_LOCAL, workdir=str(tmp_path)))
    yield box
    box.close()


class TestLocalSandbox:
    def test_fresh_empty_workdir(self, sandbox):
        assert sandbox.workdir.is_dir()
        assert list(sandbox.workdir.iterdir()) == []

    def test_two_sandboxes_have_disjoint_workdirs(self, tmp_path):
        spec = SandboxSpec(backend=BACKEND_LOCAL, workdir=str(tmp_path))
        a, b = open_sandbox(spec), open_sandbox(spec)
        try:
            assert a.workdir != b.workdir
            a.run("touch only-in-a", 10, 1024)
            assert not (b.workdir / "only-in-a").exists()
        finally:
            a.close()
            b.close()

    def test_true_exits_zero_with_empty_output(self, sandbox):
        step = sandbox.run("true", timeout=10, output_cap=1024)
        assert step.exit_code == 0
        assert step.stdout_tail == ""
        assert step.stderr_tail == ""
        assert not step.timed_out and not step.truncated

    def test_output_beyond_cap_is_tail_truncated(self, sandbox):
        cap = 512
        # 4096 'x' bytes then a known suffix; the tail must keep the suffix.
        step = sandbox.run(
            "printf 'x%.0s' $(seq 4096); printf 'THE-END'", timeout=10, output_cap=cap
        )
        assert step.truncated
        assert len(step.stdout_tail.encode()) == cap
        assert step.stdout_tail.endswith("THE-END")

    def test_timeout_kills_and_marks_sentinel(self, sandbox):
        start = time.monotonic()
        step = sandbox.run("sleep 10", timeout=1, output_cap=1024)
        wall = time.monotonic() - start
        assert step.timed_out
        assert step.exit_code == TIMEOUT_EXIT_CODE
        assert wall <= 1 + 5  # timeout plus grace

    def test_timeout_kills_the_whole_process_group(self, sandbox):
        # Both pipeline members hold the output pipes; killing only bash
        # would leave run() waiting for them to finish on their own.
        start = time.monotonic()
        step = sandbox.run("echo $$; sleep 10 | cat", timeout=1, output_cap=1024)
        wall = time.monotonic() - start
        assert step.timed_out
        assert wall < 2.5
        pgid = int(step.stdout_tail.split()[0])
        # The killed grandchildren are orphaned to init, which may reap them
        # a moment later; until then they linger as zombies in the group.
        # A grandchild that survived would keep the group alive for 10 s.
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the process group outlived the timeout"
            time.sleep(0.01)

    def test_background_children_are_not_waited_for(self, sandbox):
        step = None
        try:
            start = time.monotonic()
            step = sandbox.run("echo $$; sleep 20 & echo hi", timeout=30, output_cap=1024)
            assert time.monotonic() - start < 1.0
            assert step.exit_code == 0 and not step.timed_out
            assert "hi" in step.stdout_tail
        finally:
            if step is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(int(step.stdout_tail.split()[0]), signal.SIGKILL)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_output_pipes_are_closed_after_each_command(self, sandbox):
        before = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(20):
                sandbox.run("echo out; echo err >&2", 10, 1024)
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_commands_run_in_workdir(self, sandbox):
        step = sandbox.run("pwd", 10, 1024)
        assert step.stdout_tail.strip() == str(sandbox.workdir)

    def test_run_after_close_rejected(self, tmp_path):
        box = open_sandbox(SandboxSpec(backend=BACKEND_LOCAL, workdir=str(tmp_path)))
        box.close()
        with pytest.raises(SandboxClosed):
            box.run("true", 10, 1024)

    def test_empty_command_rejected(self, sandbox):
        with pytest.raises(ValueError):
            sandbox.run("", 10, 1024)

    def test_stderr_captured_separately(self, sandbox):
        step = sandbox.run("echo out; echo err >&2", 10, 1024)
        assert step.stdout_tail.strip() == "out"
        assert step.stderr_tail.strip() == "err"


class TestLocalSandboxEnvironment:
    def test_host_startup_files_are_not_sourced(self, sandbox, tmp_path, monkeypatch):
        # Two routes by which a host shell start-up could write into a
        # command's output: BASH_ENV (any non-interactive bash) and the
        # login profiles under HOME (bash -l).
        bash_env = tmp_path / "bash_env.sh"
        bash_env.write_text("echo from-bash-env >&2\n")
        home = tmp_path / "noisy-home"
        home.mkdir()
        for name in (".profile", ".bash_profile"):
            (home / name).write_text(f"echo from-{name} >&2\n")
        monkeypatch.setenv("BASH_ENV", str(bash_env))
        monkeypatch.setenv("HOME", str(home))

        step = sandbox.run("true", timeout=10, output_cap=1024)
        assert step.stderr_tail == ""
        assert step.exit_code == 0

    def test_host_variables_are_not_passed(self, sandbox, monkeypatch):
        sentinel = "aekit-token-sentinel-7f3c"
        monkeypatch.setenv("AEKIT_API_TOKEN", sentinel)

        step = sandbox.run("env", 10, 65536)
        assert step.exit_code == 0
        assert sentinel not in step.stdout_tail
        assert sentinel not in step.stderr_tail
        variables = dict(
            line.split("=", 1) for line in step.stdout_tail.splitlines() if "=" in line
        )
        assert variables["HOME"] == str(sandbox.workdir)
        assert variables["TMPDIR"] == str(sandbox.workdir)
        assert variables["LANG"] == "C.UTF-8"

        step = sandbox.run("python3 -c 'print(1)'", 10, 1024)
        assert step.exit_code == 0
        assert step.stdout_tail.strip() == "1"

    def test_home_and_tmpdir_leave_the_workdir_as_is(self, sandbox):
        for command in ("true", "env", "python3 -c 'print(1)'"):
            assert sandbox.run(command, 10, 65536).exit_code == 0
        assert list(sandbox.workdir.iterdir()) == []


class TestLocalSnapshot:
    def test_archive_contains_exactly_the_workdir_files(self, sandbox, tmp_path):
        sandbox.run("printf hello > artifact.txt", 10, 1024)
        ref = sandbox.snapshot("paperX", dest_dir=tmp_path / "snaps")
        with tarfile.open(ref) as tar:
            assert tar.getnames() == ["artifact.txt"]

    def test_each_path_is_archived_once_with_its_contents(self, sandbox, tmp_path):
        sandbox.run("mkdir -p a/b && printf deep > a/b/f && printf top > top", 10, 1024)
        ref = sandbox.snapshot("paperX", dest_dir=tmp_path / "snaps")
        with tarfile.open(ref) as tar:
            assert tar.getnames() == ["a", "a/b", "a/b/f", "top"]
            assert tar.extractfile("a/b/f").read() == b"deep"
            assert tar.extractfile("top").read() == b"top"

    def test_snapshot_of_closed_sandbox_fails(self, tmp_path):
        box = open_sandbox(SandboxSpec(backend=BACKEND_LOCAL, workdir=str(tmp_path)))
        box.close()
        with pytest.raises(SnapshotFailure):
            box.snapshot("paperX")

    def test_repeated_snapshots_have_distinct_refs(self, sandbox, tmp_path):
        refs = {sandbox.snapshot("paperX", tmp_path / "s") for _ in range(3)}
        assert len(refs) == 3

    def test_ref_embeds_paper_id(self, sandbox, tmp_path):
        ref = sandbox.snapshot("paper-42", tmp_path / "s")
        assert "paper-42" in ref


class FakeCli:
    """Records engine invocations and replays canned results."""

    def __init__(self, fail_on=None):
        self.calls = []
        self.fail_on = fail_on or set()

    def __call__(self, args, timeout, output_cap):
        self.calls.append(list(args))
        verb = args[1]
        if verb in self.fail_on:
            return _step(args, 1, stderr=f"{verb} failed")
        return _step(args, 0)


def _step(args, exit_code, stderr="", timed_out=False):
    return CommandStep(command=args[-1], exit_code=exit_code, stdout_tail="", stderr_tail=stderr,
                       duration=0.0, truncated=False, timed_out=timed_out)


class TestContainerSandbox:
    SPEC = SandboxSpec(backend=BACKEND_CONTAINER, base_image="img:tag", network="denied")

    def test_lifecycle_command_sequence(self):
        cli = FakeCli()
        box = ContainerSandbox(self.SPEC, engine="docker", runner=cli)
        box.run("make", timeout=5, output_cap=1024)
        ref = box.snapshot("p9")
        box.close()

        verbs = [c[1] for c in cli.calls]
        assert verbs[0] == "version"
        assert verbs[1] == "run"
        assert "exec" in verbs
        run_exec = [c for c in cli.calls if c[1] == "exec"][-1]
        assert run_exec[-3:] == ["bash", "-c", "make"]
        assert "commit" in verbs
        assert verbs[-1] == "rm"

        create = cli.calls[1]
        assert "--network" in create and "none" in create
        assert "img:tag" in create
        assert ref.startswith("prepare/p9:")

    def test_engine_unavailable(self):
        with pytest.raises(BackendUnavailable):
            ContainerSandbox(self.SPEC, runner=FakeCli(fail_on={"version"}))

    def test_create_failure_is_backend_unavailable(self):
        with pytest.raises(BackendUnavailable):
            ContainerSandbox(self.SPEC, runner=FakeCli(fail_on={"run"}))

    def test_exec_timeout_marks_step(self):
        class TimeoutCli(FakeCli):
            def __call__(self, args, timeout, output_cap):
                self.calls.append(list(args))
                if args[1] == "exec" and "bash" in args:
                    assert (timeout, output_cap) == (1, 128)
                    return _step(args, TIMEOUT_EXIT_CODE, timed_out=True)
                return _step(args, 0)

        box = ContainerSandbox(self.SPEC, runner=TimeoutCli())
        step = box.run("sleep 999", timeout=1, output_cap=128)
        assert step.timed_out
        assert step.exit_code == TIMEOUT_EXIT_CODE

    def test_snapshot_failure_surfaces(self):
        box = ContainerSandbox(self.SPEC, runner=FakeCli(fail_on={"commit"}))
        with pytest.raises(SnapshotFailure):
            box.snapshot("p1")

    def test_runner_replaces_bytes_that_are_not_utf8(self):
        step = _run_capped(["bash", "-c", r"printf 'ok\xff\xfe'; printf '\xff' >&2"], 10, 1024)
        assert (step.exit_code, step.stdout_tail, step.stderr_tail) == (0, "ok\ufffd\ufffd", "\ufffd")

    def test_gpu_flag_forwarded(self):
        cli = FakeCli()
        spec = SandboxSpec(backend=BACKEND_CONTAINER, gpu=True)
        ContainerSandbox(spec, runner=cli)
        create = cli.calls[1]
        assert "--gpus" in create


# A docker-compatible engine for tests: it logs its argv next to itself,
# runs an exec'd `bash -c` on the host, and exits 0 on every other verb.
FAKE_ENGINE = """#!/bin/bash
printf '%s\\n' "$*" >> "$0.log"
if [ "$1" = exec ] && [ "$3" = bash ]; then shift 2; exec "$@"; fi
exit 0
"""


def _fake_engine(tmp_path):
    engine = tmp_path / "engine"
    engine.write_text(FAKE_ENGINE)
    engine.chmod(0o755)
    return engine


def _running(pid):
    """Whether ``pid`` is a process that has not exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestContainerDefaultRunner:
    """The container backend's own runner, on a fake engine executable."""

    SPEC = SandboxSpec(backend=BACKEND_CONTAINER)

    @pytest.fixture
    def box(self, tmp_path):
        box = ContainerSandbox(self.SPEC, engine=str(_fake_engine(tmp_path)))
        yield box
        box.close()

    def test_engine_calls_go_through_the_runner(self, tmp_path, box):
        box.run("true", timeout=10, output_cap=1024)
        box.snapshot("p1")
        box.close()
        verbs = [line.split()[0] for line in (tmp_path / "engine.log").read_text().splitlines()]
        assert verbs == ["version", "run", "exec", "exec", "commit", "rm"]

    def test_output_is_capped_while_it_is_read(self, tmp_path):
        output_bytes, cap = 64 << 20, 8192
        script = f"""if True:
            import resource
            from aekit.sandbox import BACKEND_CONTAINER, ContainerSandbox, SandboxSpec
            box = ContainerSandbox(SandboxSpec(backend=BACKEND_CONTAINER),
                                   engine={str(_fake_engine(tmp_path))!r})
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            step = box.run("head -c {output_bytes} /dev/zero; printf THE-END", 60, {cap})
            rise_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            box.close()
            print(step.truncated, len(step.stdout_tail.encode()), step.stdout_tail[-7:], rise_kib)
        """
        src = str(Path(aekit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        truncated, tail_bytes, suffix, rise_kib = done.stdout.split()
        assert (truncated, int(tail_bytes), suffix) == ("True", cap, "THE-END")
        # ru_maxrss is in KiB on Linux.
        assert int(rise_kib) * 1024 < output_bytes / 4

    def test_background_children_are_not_waited_for(self, box):
        step = None
        try:
            start = time.monotonic()
            step = box.run("sleep 20 & echo $!; echo hi", timeout=5, output_cap=1024)
            assert time.monotonic() - start < 1.0
            assert step.exit_code == 0 and not step.timed_out
            assert step.stdout_tail.split()[1] == "hi"
        finally:
            if step is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(step.stdout_tail.split()[0]), signal.SIGKILL)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_timeout_kills_the_client_process_group(self, box):
        step = box.run("sleep 30 & echo $!; sleep 30", timeout=1, output_cap=1024)
        child = int(step.stdout_tail.split()[0])
        try:
            assert step.timed_out and step.exit_code == TIMEOUT_EXIT_CODE
            # The killed child is orphaned to init, which may reap it a
            # moment later; until then it lingers as a zombie.
            deadline = time.monotonic() + 5.0
            while _running(child):
                assert time.monotonic() < deadline, "a background child outlived the timeout"
                time.sleep(0.01)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)


class TestSandboxSpec:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SandboxSpec(backend="vm")

    def test_default_base_image_is_cuda_ubuntu(self):
        spec = SandboxSpec()
        assert "cuda" in spec.base_image and "ubuntu22.04" in spec.base_image
