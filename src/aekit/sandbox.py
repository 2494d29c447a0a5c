"""Isolated, disposable execution environments.

Two backends: a container backend driven through the engine CLI
(create, exec, commit, remove), and a test-only local-process backend
that runs commands in a throwaway temporary directory.  Both capture the
trailing bytes of each output stream, enforce per-command timeouts, and
can snapshot the prepared environment (image commit or tar archive).
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import subprocess
import tarfile
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .jsonio import Artifact

BACKEND_LOCAL = "local_process"
BACKEND_CONTAINER = "container"

DEFAULT_BASE_IMAGE = "nvidia/cuda:12.4.1-runtime-ubuntu22.04"
TIMEOUT_EXIT_CODE = -1

READ_BYTES = 65536
# How often a command's exit is checked while a background child keeps
# its output pipes open.
EXIT_POLL_S = 0.05
# What a pipe can hold unless the host raised fs.pipe-max-size.
PIPE_MAX_BYTES = 1 << 20


class SandboxClosed(RuntimeError):
    pass


class BackendUnavailable(RuntimeError):
    pass


class SnapshotFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class SandboxSpec:
    backend: str = BACKEND_LOCAL
    base_image: str = DEFAULT_BASE_IMAGE
    network: str = "allowed"
    workdir: str | None = None
    gpu: bool = False

    def __post_init__(self) -> None:
        # "local" is the short name that `aekit prepare --backend` and the
        # INI files accept.
        if self.backend == "local":
            object.__setattr__(self, "backend", BACKEND_LOCAL)
        if self.backend not in (BACKEND_LOCAL, BACKEND_CONTAINER):
            raise ValueError(f"unknown backend: {self.backend!r}")
        if self.network not in ("allowed", "denied"):
            raise ValueError(f"network must be allowed or denied, got {self.network!r}")


@dataclass(frozen=True)
class CommandStep(Artifact):
    command: str
    exit_code: int
    stdout_tail: str
    stderr_tail: str
    duration: float
    truncated: bool
    timed_out: bool


class _TailBuffer:
    """Keeps only the trailing cap bytes of a stream."""

    def __init__(self, cap: int):
        self.cap = cap
        self.total = 0
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> None:
        self.total += len(chunk)
        self._buf.extend(chunk)
        if len(self._buf) > self.cap:
            del self._buf[: len(self._buf) - self.cap]

    @property
    def truncated(self) -> bool:
        return self.total > self.cap

    def text(self) -> str:
        return bytes(self._buf).decode("utf-8", errors="replace")


def _read_until_exit(proc: subprocess.Popen, bufs: dict[int, _TailBuffer], deadline: float) -> bool:
    """Feed the output pipes into their buffers until the command exits.

    Returns True if the deadline passes first.  Reading stops when the
    shell exits even if a background child still holds a pipe open.
    """
    with selectors.DefaultSelector() as sel:
        for fd, buf in bufs.items():
            os.set_blocking(fd, False)
            sel.register(fd, selectors.EVENT_READ, buf)
        while sel.get_map() and proc.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return True
            for key, _ in sel.select(min(remaining, EXIT_POLL_S)):
                chunk = os.read(key.fd, READ_BYTES)
                if chunk:
                    key.data.feed(chunk)
                else:
                    sel.unregister(key.fd)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        return True
    return False


def _take_buffered(fd: int, buf: _TailBuffer) -> None:
    """Take what a non-blocking pipe holds now, without waiting for EOF."""
    taken = 0
    while taken < PIPE_MAX_BYTES:
        try:
            chunk = os.read(fd, READ_BYTES)
        except BlockingIOError:
            return
        if not chunk:
            return
        buf.feed(chunk)
        taken += len(chunk)


def _sandbox_env(workdir: Path) -> dict[str, str]:
    """The whole environment of a sandboxed command; nothing else is inherited."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "LANG": "C.UTF-8",
        "HOME": str(workdir),
        "TMPDIR": str(workdir),
    }


class LocalProcessSandbox:
    """Test-only backend: a fresh temporary workdir plus subprocess shells.

    Each command runs under a non-login, non-interactive `bash -c` whose
    environment holds only PATH (from the host), LANG=C.UTF-8, and HOME
    and TMPDIR pointing at the workdir.  No host profile or rc file is
    sourced and no other host variable (BASH_ENV, tokens) is passed, so a
    command's exit code and output tails are its own.  Each command
    leads a new session, and a timeout kills its whole process group, so
    a forking command returns at its timeout, not when its last
    grandchild exits.  A command returns once its shell exits, with what
    its pipes hold by then; background children it leaves running are
    not waited for.

    Network policy follows the host (cannot be constrained here), which
    is why this backend exists for fixtures and demos only.
    """

    def __init__(self, spec: SandboxSpec):
        parent = spec.workdir
        if parent is not None:
            Path(parent).mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self.workdir = Path(tempfile.mkdtemp(prefix="aekit-sandbox-", dir=parent))
        self._open = True
        self._snapshot_counter = 0

    def _require_open(self) -> None:
        if not self._open:
            raise SandboxClosed("sandbox has been torn down")

    def run(self, command: str, timeout: float, output_cap: int) -> CommandStep:
        """Run one shell command non-interactively, keeping output tails."""
        self._require_open()
        if not command:
            raise ValueError("command must be nonempty")
        start = time.monotonic()
        out_buf, err_buf = _TailBuffer(output_cap), _TailBuffer(output_cap)
        # Leaving the block closes both pipes.
        with subprocess.Popen(
            ["bash", "-c", command],
            cwd=self.workdir,
            env=_sandbox_env(self.workdir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        ) as proc:
            bufs = {proc.stdout.fileno(): out_buf, proc.stderr.fileno(): err_buf}
            try:
                timed_out = _read_until_exit(proc, bufs, start + timeout)
            finally:
                # The command leads its own process group, out of reach of
                # the terminal's signals.  On timeout or interrupt kill the
                # whole group, which also ends grandchildren holding the
                # pipes open.
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            for fd, buf in bufs.items():
                _take_buffered(fd, buf)
        duration = time.monotonic() - start
        return CommandStep(
            command=command,
            exit_code=TIMEOUT_EXIT_CODE if timed_out else proc.returncode,
            stdout_tail=out_buf.text(),
            stderr_tail=err_buf.text(),
            duration=duration,
            truncated=out_buf.truncated or err_buf.truncated,
            timed_out=timed_out,
        )

    def snapshot(self, paper_id: str, dest_dir: str | Path | None = None) -> str:
        """Tar the workdir; returns the archive path as the snapshot ref."""
        if not self._open:
            raise SnapshotFailure("cannot snapshot a closed sandbox")
        self._snapshot_counter += 1
        dest = Path(dest_dir) if dest_dir is not None else self.workdir.parent
        dest.mkdir(parents=True, exist_ok=True)
        name = f"prepare-{paper_id}-{time.time_ns()}-{self._snapshot_counter}.tar"
        ref = dest / name
        try:
            with tarfile.open(ref, "w") as tar:
                for item in sorted(self.workdir.rglob("*")):
                    tar.add(item, arcname=str(item.relative_to(self.workdir)))
        except OSError as exc:
            raise SnapshotFailure(f"archiving failed: {exc}") from exc
        return str(ref)

    def close(self) -> None:
        if self._open:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self._open = False


# runner(args, timeout) -> (exit_code, stdout, stderr); raises
# subprocess.TimeoutExpired on timeout.  Injectable for tests.
CliRunner = Callable[..., tuple[int, str, str]]


def _subprocess_runner(
    args: Sequence[str], timeout: float | None = None
) -> tuple[int, str, str]:
    proc = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


class ContainerSandbox:
    """Container backend driven through the engine CLI.

    Lifecycle: `run -d ... sleep infinity` to create, `exec ... bash -c`
    (non-login) per command, `commit` to snapshot, `rm -f` to tear down.
    The engine binary (docker-compatible) and the runner are injectable
    so the command sequences are testable without an engine on the host.
    """

    def __init__(
        self,
        spec: SandboxSpec,
        engine: str = "docker",
        runner: CliRunner | None = None,
    ):
        self.spec = spec
        self.engine = engine
        self._run_cli = runner or _subprocess_runner
        self._open = False

        code, _, err = self._run_cli([engine, "version"])
        if code != 0:
            raise BackendUnavailable(f"{engine} is not available: {err.strip()}")

        self.container_name = f"aekit-prepare-{os.getpid()}-{time.time_ns()}"
        self.workdir = "/work"
        args = [engine, "run", "-d", "--name", self.container_name, "-w", self.workdir]
        if spec.network == "denied":
            args += ["--network", "none"]
        if spec.gpu:
            args += ["--gpus", "all"]
        args += [spec.base_image, "sleep", "infinity"]
        code, _, err = self._run_cli(args)
        if code != 0:
            raise BackendUnavailable(f"container creation failed: {err.strip()}")
        self._run_cli([engine, "exec", self.container_name, "mkdir", "-p", self.workdir])
        self._open = True
        self._snapshot_counter = 0

    def _require_open(self) -> None:
        if not self._open:
            raise SandboxClosed("container has been removed")

    def run(self, command: str, timeout: float, output_cap: int) -> CommandStep:
        self._require_open()
        if not command:
            raise ValueError("command must be nonempty")
        args = [self.engine, "exec", self.container_name, "bash", "-c", command]
        start = time.monotonic()
        timed_out = False
        out = err = ""
        code = TIMEOUT_EXIT_CODE
        try:
            code, out, err = self._run_cli(args, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            # The exec client is killed; the in-container process may linger
            # until teardown, which removes the container entirely.
            timed_out = True
            out = (exc.stdout or b"").decode("utf-8", "replace") if isinstance(exc.stdout, bytes) else (exc.stdout or "")
            err = (exc.stderr or b"").decode("utf-8", "replace") if isinstance(exc.stderr, bytes) else (exc.stderr or "")
        duration = time.monotonic() - start
        out_buf, err_buf = _TailBuffer(output_cap), _TailBuffer(output_cap)
        out_buf.feed(out.encode("utf-8"))
        err_buf.feed(err.encode("utf-8"))
        return CommandStep(
            command=command,
            exit_code=code,
            stdout_tail=out_buf.text(),
            stderr_tail=err_buf.text(),
            duration=duration,
            truncated=out_buf.truncated or err_buf.truncated,
            timed_out=timed_out,
        )

    def snapshot(self, paper_id: str, dest_dir: str | Path | None = None) -> str:
        if not self._open:
            raise SnapshotFailure("cannot snapshot a removed container")
        self._snapshot_counter += 1
        tag = f"prepare/{paper_id}:{time.time_ns()}-{self._snapshot_counter}"
        code, _, err = self._run_cli(
            [self.engine, "commit", self.container_name, tag]
        )
        if code != 0:
            raise SnapshotFailure(f"commit failed: {err.strip()}")
        return tag

    def close(self) -> None:
        if self._open:
            self._run_cli([self.engine, "rm", "-f", self.container_name])
            self._open = False


def open_sandbox(spec: SandboxSpec):
    """Fresh isolated environment with an empty workdir."""
    if spec.backend == BACKEND_LOCAL:
        return LocalProcessSandbox(spec)
    return ContainerSandbox(spec)
