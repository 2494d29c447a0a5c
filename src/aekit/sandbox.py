"""Isolated, disposable execution environments.

Two backends: a container backend driven through the engine CLI
(create, exec, commit, remove), and a test-only local-process backend
that runs commands in a throwaway temporary directory.  Every process
either backend starts goes through one reader, :func:`_run_capped`,
which keeps only the trailing bytes of each output stream while reading,
returns at the exit event of the process's pidfd, and kills its process
group on timeout; the sandbox therefore needs Linux >= 5.3.  Both
backends can snapshot the prepared environment (image commit or tar
archive).
"""

from __future__ import annotations

import contextlib
import itertools
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
# What a pipe can hold unless the host raised fs.pipe-max-size.
PIPE_MAX_BYTES = 1 << 20
# The tail kept of an engine lifecycle call's streams, read for error messages.
ENGINE_OUTPUT_CAP = 8192


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
        if self.network == "denied" and self.backend == BACKEND_LOCAL:
            raise ValueError("network = denied needs backend = container")
        if self.workdir == "":
            raise ValueError("workdir must not be empty; leave it out for the system's temporary directory")


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


def _read_until_exit(proc: subprocess.Popen, bufs: dict[int, _TailBuffer],
                     deadline: float | None) -> bool:
    """Feed the output pipes into their buffers until the process exits.

    Returns True if the deadline passes first; a deadline of None means
    none.  The exit is the event of a pidfd watched beside the pipes, so
    reading stops when the process exits even if a background child
    still holds a pipe open.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(pidfd, selectors.EVENT_READ)
            for fd, buf in bufs.items():
                os.set_blocking(fd, False)
                sel.register(fd, selectors.EVENT_READ, buf)
            while True:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return True
                for key, _ in sel.select(remaining):
                    if key.fd == pidfd:
                        proc.wait()
                        return False
                    chunk = os.read(key.fd, READ_BYTES)
                    if chunk:
                        key.data.feed(chunk)
                    else:
                        sel.unregister(key.fd)
    finally:
        os.close(pidfd)


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


def _run_capped(argv: Sequence[str], timeout: float | None, output_cap: int,
                cwd: str | Path | None = None, env: dict[str, str] | None = None,
                groups: list[int] | None = None) -> CommandStep:
    """Run ``argv`` to its exit, keeping each stream's trailing ``output_cap`` bytes.

    The process leads a new session with stdin from /dev/null; its process
    group id is appended to ``groups`` when given.  It returns once the
    process exits, with what its pipes hold by then; background children
    it leaves running are not waited for.  A ``timeout`` of None means no
    deadline.  The step's command is argv's last word, the script of a
    ``bash -c``.  Needs Linux >= 5.3 for ``os.pidfd_open``.
    """
    if not hasattr(os, "pidfd_open"):
        raise BackendUnavailable("sandboxed processes need os.pidfd_open (Linux >= 5.3)")
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    out_buf, err_buf = _TailBuffer(output_cap), _TailBuffer(output_cap)
    # Leaving the block closes both pipes.
    with subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL, start_new_session=True,
    ) as proc:
        if groups is not None:
            groups.append(proc.pid)
        bufs = {proc.stdout.fileno(): out_buf, proc.stderr.fileno(): err_buf}
        try:
            timed_out = _read_until_exit(proc, bufs, deadline)
        finally:
            # The process leads its own process group, out of reach of the
            # terminal's signals.  On timeout or interrupt kill the whole
            # group, which also ends grandchildren holding the pipes open.
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        for fd, buf in bufs.items():
            _take_buffered(fd, buf)
    return CommandStep(
        command=argv[-1],
        exit_code=TIMEOUT_EXIT_CODE if timed_out else proc.returncode,
        stdout_tail=out_buf.text(),
        stderr_tail=err_buf.text(),
        duration=time.monotonic() - start,
        truncated=out_buf.truncated or err_buf.truncated,
        timed_out=timed_out,
    )


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
    command's exit code and output tails are its own.  The shell runs
    through :func:`_run_capped`, so a timeout kills its whole process
    group and its background children are not waited for.  Those children
    live until :meth:`close`, which kills every process group the
    sandbox started that still had a member when its command returned;
    a group left empty is forgotten then.

    Network policy follows the host (cannot be constrained here, so a
    spec with ``network = denied`` is refused), which is why this backend
    exists for fixtures and demos only.
    """

    def __init__(self, spec: SandboxSpec):
        parent = spec.workdir
        if parent is not None:
            Path(parent).mkdir(parents=True, exist_ok=True)
        self.spec = spec
        # Absolute, so HOME and TMPDIR still name it after a command's ``cd``.
        self.workdir = Path(tempfile.mkdtemp(prefix="aekit-sandbox-", dir=parent)).absolute()
        self._open = True
        self._groups: list[int] = []

    def _require_open(self) -> None:
        if not self._open:
            raise SandboxClosed("sandbox has been torn down")

    def run(self, command: str, timeout: float, output_cap: int) -> CommandStep:
        """Run one shell command non-interactively, keeping output tails."""
        self._require_open()
        if not command:
            raise ValueError("command must be nonempty")
        step = _run_capped(["bash", "-c", command], timeout, output_cap,
                           cwd=self.workdir, env=_sandbox_env(self.workdir), groups=self._groups)
        try:
            os.killpg(self._groups[-1], 0)
        except ProcessLookupError:  # no member left for close() to kill
            self._groups.pop()
        return step

    def snapshot(self, paper_id: str, dest_dir: str | Path | None = None) -> str:
        """Tar the workdir; returns the archive path as the snapshot ref.

        The archive is ``prepare-<paper_id>-<n>.tar`` for the smallest
        n >= 1 whose file does not exist yet; an existing file is never
        overwritten.  An archive that fails part-way is removed, so no tar
        holds a partial environment.
        """
        if not self._open:
            raise SnapshotFailure("cannot snapshot a closed sandbox")
        dest = Path(dest_dir) if dest_dir is not None else self.workdir.parent
        dest.mkdir(parents=True, exist_ok=True)
        out = None
        try:
            for n in itertools.count(1):
                ref = dest / f"prepare-{paper_id}-{n}.tar"
                with contextlib.suppress(FileExistsError):
                    out = open(ref, "xb")
                    break
            with out, tarfile.open(fileobj=out, mode="w") as tar:
                for item in sorted(self.workdir.rglob("*")):
                    tar.add(item, arcname=str(item.relative_to(self.workdir)), recursive=False)
        except OSError as exc:
            if out is not None:
                with contextlib.suppress(OSError):
                    ref.unlink()
            raise SnapshotFailure(f"archiving failed: {exc}") from exc
        return str(ref)

    def close(self) -> None:
        if self._open:
            for pgid in self._groups:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
            shutil.rmtree(self.workdir, ignore_errors=True)
            self._open = False


# runner(argv, timeout, output_cap) -> CommandStep, with the contract of
# _run_capped; a timeout of None means no deadline.  Injectable for tests.
CliRunner = Callable[[Sequence[str], float | None, int], CommandStep]


class ContainerSandbox:
    """Container backend driven through the engine CLI.

    Lifecycle: `run -d -w /work ... sleep infinity` to create (`-w`
    makes the missing workdir), `exec ... bash -c`
    (non-login) per command, `commit` to snapshot, `rm -f` to tear down.
    Every engine call goes through the runner, by default the reader the
    local backend uses: each output stream's tail is capped while it is
    read, a step ends when the engine client exits, and a timeout kills
    the client's process group.  The in-container process of a timed-out
    `exec` may linger until teardown, which removes the container.  The
    engine binary (docker-compatible) and the runner are injectable so
    the command sequences are testable without an engine on the host.
    """

    def __init__(
        self,
        spec: SandboxSpec,
        engine: str = "docker",
        runner: CliRunner = _run_capped,
    ):
        self.spec = spec
        self.engine = engine
        self._run_cli = runner
        self._open = False

        self.container_name = f"aekit-prepare-{os.getpid()}-{time.time_ns()}"
        self.workdir = "/work"
        args = ["run", "-d", "--name", self.container_name, "-w", self.workdir]
        if spec.network == "denied":
            args += ["--network", "none"]
        if spec.gpu:
            args += ["--gpus", "all"]
        step = self._engine(*args, spec.base_image, "sleep", "infinity")
        if step.exit_code != 0:
            raise BackendUnavailable(f"container creation failed: {step.stderr_tail.strip()}")
        self._open = True
        self._snapshot_counter = 0

    def _engine(self, *args: str) -> CommandStep:
        """One lifecycle call of the engine CLI, without a deadline."""
        return self._run_cli([self.engine, *args], None, ENGINE_OUTPUT_CAP)

    def _require_open(self) -> None:
        if not self._open:
            raise SandboxClosed("container has been removed")

    def run(self, command: str, timeout: float, output_cap: int) -> CommandStep:
        self._require_open()
        if not command:
            raise ValueError("command must be nonempty")
        return self._run_cli(
            [self.engine, "exec", self.container_name, "bash", "-c", command], timeout, output_cap)

    def snapshot(self, paper_id: str, dest_dir: str | Path | None = None) -> str:
        if not self._open:
            raise SnapshotFailure("cannot snapshot a removed container")
        self._snapshot_counter += 1
        tag = f"prepare/{paper_id}:{time.time_ns()}-{self._snapshot_counter}"
        step = self._engine("commit", self.container_name, tag)
        if step.exit_code != 0:
            raise SnapshotFailure(f"commit failed: {step.stderr_tail.strip()}")
        return tag

    def close(self) -> None:
        if self._open:
            self._engine("rm", "-f", self.container_name)
            self._open = False


def open_sandbox(spec: SandboxSpec):
    """Fresh isolated environment with an empty workdir."""
    if spec.backend == BACKEND_LOCAL:
        return LocalProcessSandbox(spec)
    return ContainerSandbox(spec)
