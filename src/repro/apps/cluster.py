"""Multi-process session runner: ``python -m repro.apps.cluster``.

Turns the library's in-process session into a real deployment shape:
one OS process per party (each running a
:class:`~repro.parties.runner.PartyRunner` over a
:class:`~repro.network.tcp.SocketTransport`), supervised by a parent
that launches them, watches for crashes, and restarts killed parties
from their checkpoints with a bumped incarnation so the surviving mesh
resets its era and the session completes bit-identically.

The supervisor starts one fresh interpreter per session, the launcher
(:func:`_launch`), which imports the party path once and forks each
party process from it, so a session pays one interpreter start and one
import rather than one per party.

Subcommands
-----------
``party``
    Per-process entrypoint (the launcher's forks run it; it also runs
    one endpoint stand-alone): runs one party against the shared
    session spec and writes its report.
``run``
    The supervisor: launches every party of a spec, restarts SIGKILLed
    ones from their checkpoints, and aggregates the per-party reports.
``demo``
    Writes a small 2-holder + third-party spec over unix-domain sockets
    into a work directory, runs it, and prints the published clusters --
    the quickstart's one-liner.

Spec files are produced by :func:`repro.parties.runner.encode_spec`
(deterministic length-prefixed codec, digest-pinned by the handshake).
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.config import SessionConfig
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.exceptions import ConfigurationError
from repro.network.serialization import deserialize, serialize
from repro.parties.runner import PartyRunner, decode_spec, encode_spec
from repro.types import AttributeType


def pick_tcp_addresses(parties: list[str], host: str = "127.0.0.1") -> dict[str, str]:
    """Assign each party a free TCP port on ``host``.

    The sockets are bound (port 0 = kernel-assigned) and closed again;
    the tiny reuse race is acceptable for tests and demos, which is all
    this helper is for.
    """
    addresses: dict[str, str] = {}
    for party in parties:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind((host, 0))
        port = probe.getsockname()[1]
        probe.close()
        addresses[party] = f"tcp:{host}:{port}"
    return addresses


def unix_addresses(parties: list[str], directory: str) -> dict[str, str]:
    """Assign each party a unix-domain socket path under ``directory``."""
    return {
        party: f"unix:{os.path.join(directory, party + '.sock')}"
        for party in parties
    }


#: The launcher's program (see :func:`_launch`).
_LAUNCHER = "from repro.apps.cluster import _launch; _launch()"


class ClusterSupervisor:
    """Launches, watches and restarts the party processes of one session.

    Parameters
    ----------
    spec_path:
        The shared session spec file every process is launched from.
    workdir:
        Directory for per-party checkpoints and report files.
    kill_after_step:
        Optional ``{party: step_name}`` crash injection: those parties
        are launched with ``--exit-after-step`` and SIGKILL themselves
        right after that construction step (stripped on restart).
    restart_killed:
        Whether a SIGKILLed party is relaunched from its checkpoint with
        a bumped incarnation (the crash-recovery path).  Parties that
        exit nonzero for any other reason always fail the run.
    tolerate_killed:
        Parties whose SIGKILL death is accepted as *permanent* -- no
        restart, no error; the rest of the session runs degraded (the
        spec's suite must set ``tolerate_faults``).  Their report slot
        is ``None``.
    max_restarts:
        Restart budget per party.
    timeout:
        Wall-clock budget for the whole session, in seconds.
    """

    def __init__(
        self,
        spec_path: str,
        workdir: str,
        *,
        kill_after_step: Mapping[str, str] | None = None,
        restart_killed: bool = True,
        tolerate_killed: Iterable[str] = (),
        max_restarts: int = 2,
        timeout: float = 180.0,
    ) -> None:
        self.spec_path = str(spec_path)
        self.workdir = str(workdir)
        spec = decode_spec(Path(spec_path).read_bytes())
        self.parties: list[str] = sorted(spec["partitions"]) + [spec["tp_name"]]
        self.kill_after_step = dict(kill_after_step or {})
        self.restart_killed = restart_killed
        self.tolerate_killed = set(tolerate_killed)
        self.max_restarts = max_restarts
        self.timeout = timeout
        self._incarnations: dict[str, int] = {p: 1 for p in self.parties}
        #: The supervisor's end of the launcher's command and event pipe.
        self._launcher: socket.socket | None = None

    def _paths(self, party: str) -> tuple[str, str]:
        return (
            os.path.join(self.workdir, f"{party}.ckpt"),
            os.path.join(self.workdir, f"{party}.report"),
        )

    def _spawn(self, party: str, *, restore: bool) -> None:
        """Ask the launcher to fork ``party``'s process."""
        ckpt, report = self._paths(party)
        argv = [
            "party",
            "--spec",
            self.spec_path,
            "--party",
            party,
            "--out",
            report,
            "--checkpoint",
            ckpt,
            "--incarnation",
            str(self._incarnations[party]),
        ]
        if restore:
            argv += ["--restore", ckpt]
        elif party in self.kill_after_step:
            argv += ["--exit-after-step", self.kill_after_step[party]]
        self._launcher.sendall(json.dumps([party, argv]).encode() + b"\n")

    def _start_launcher(self, stdin: socket.socket) -> subprocess.Popen:
        # The launcher must resolve ``repro`` the same way the supervisor
        # did, even when it was imported off sys.path (e.g. pytest's
        # pythonpath ini) rather than an installed distribution.  One
        # BLAS thread keeps it single-threaded when it forks; the party
        # path makes no BLAS call.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        package_root = str(Path(__file__).resolve().parents[2])
        paths = env.get("PYTHONPATH", "").split(os.pathsep)
        if package_root not in paths:
            env["PYTHONPATH"] = os.pathsep.join([package_root] + [p for p in paths if p])
        return subprocess.Popen([sys.executable, "-c", _LAUNCHER], stdin=stdin, env=env)

    def run(self) -> dict[str, dict[str, Any]]:
        """Run the session to completion; returns ``{party: report}``."""
        os.makedirs(self.workdir, exist_ok=True)
        restarts = {p: 0 for p in self.parties}
        deadline = time.monotonic() + self.timeout
        pending = set(self.parties)
        self._launcher, theirs = socket.socketpair()
        with self._launcher:
            with theirs:
                launcher = self._start_launcher(theirs)
            exits = b""
            try:
                for party in self.parties:
                    self._spawn(party, restore=False)
                while pending:
                    if b"\n" not in exits:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ConfigurationError(
                                f"session timed out with {sorted(pending)} unfinished"
                            )
                        if select.select([self._launcher], [], [], remaining)[0]:
                            chunk = self._launcher.recv(4096)
                            if not chunk:
                                raise ConfigurationError(
                                    f"the party launcher exited with {sorted(pending)} unfinished"
                                )
                            exits += chunk
                        continue
                    line, exits = exits.split(b"\n", 1)
                    party, code = json.loads(line)
                    if code == 0:
                        pending.discard(party)
                        continue
                    killed = code == -signal.SIGKILL
                    if killed and party in self.tolerate_killed:
                        pending.discard(party)
                        continue
                    ckpt, _ = self._paths(party)
                    if (
                        killed
                        and self.restart_killed
                        and restarts[party] < self.max_restarts
                        and os.path.exists(ckpt)
                    ):
                        restarts[party] += 1
                        self._incarnations[party] += 1
                        self._spawn(party, restore=True)
                        continue
                    raise ConfigurationError(
                        f"party {party!r} exited with code {code}"
                    )
            finally:
                # EOF on its pipe: the launcher SIGKILLs and reaps every
                # party still running, then exits.
                self._launcher.close()
                launcher.wait()
        reports: dict[str, dict[str, Any] | None] = {}
        for party in self.parties:
            _, report_path = self._paths(party)
            if os.path.exists(report_path):
                reports[party] = deserialize(Path(report_path).read_bytes())
            else:
                reports[party] = None
        return reports


def _launch() -> None:
    """The launcher (DESIGN.md, "The supervisor"); never returns.

    Forks a child running ``main(argv)`` for each line ``[party, argv]``
    read from fd 0, a socket to the supervisor, and writes ``[party,
    exit code]`` back once the child is reaped.  On EOF, a broken pipe
    or any error it SIGKILLs and reaps every child still running, then
    leaves by ``os._exit``: inherited exit handlers run in parties only.
    """
    children: dict[int, tuple[str, int]] = {}  # pidfd -> (party, pid)
    code = 0
    try:
        requests = b""
        while True:
            for fd in select.select([0, *children], [], [])[0]:
                if fd != 0:
                    party, pid = children.pop(fd)
                    os.close(fd)
                    exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    os.write(0, json.dumps([party, exit_code]).encode() + b"\n")
                    continue
                # The raw fd: a buffered reader could hold a request
                # back from ``select``.
                chunk = os.read(0, 65536)
                if not chunk:
                    return
                *lines, requests = (requests + chunk).split(b"\n")
                for line in lines:
                    party, argv = json.loads(line)
                    pid = os.fork()
                    if pid == 0:
                        _forked_party(argv, children)
                    children[os.pidfd_open(pid)] = (party, pid)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the supervisor is gone
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        for _, pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os._exit(code)


def _forked_party(argv: list[str], pidfds: Iterable[int]) -> None:
    """A forked party's body; ends as a fresh interpreter running
    ``main(argv)`` would: exit handlers, flushed stdio, exit code."""
    code = 1
    try:
        for fd in pidfds:
            os.close(fd)
        # Fd 0 is the launcher's end of its pipe; a party holding it
        # would hide the launcher's exit from the supervisor.
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            atexit._run_exitfuncs()
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


# -- CLI ---------------------------------------------------------------------


def _cmd_party(args: argparse.Namespace) -> int:
    spec_bytes = Path(args.spec).read_bytes()
    restore_blob = Path(args.restore).read_bytes() if args.restore else None
    runner = PartyRunner(
        spec_bytes,
        args.party,
        incarnation=args.incarnation,
        restore_blob=restore_blob,
        checkpoint_path=args.checkpoint,
        exit_after_step=args.exit_after_step,
    )
    try:
        report = runner.run()
    finally:
        runner.close()
    Path(args.out).write_bytes(serialize(report))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    supervisor = ClusterSupervisor(
        args.spec,
        args.workdir,
        restart_killed=not args.no_restart,
        timeout=args.timeout,
    )
    reports = supervisor.run()
    for party in sorted(reports):
        report = reports[party]
        status = "ok" if report["result"] is not None else "no result"
        print(
            f"{party}: era {report['era']}, {status}, "
            f"{len(report['transcript'])} frames sent"
        )
    return 0


_DEMO_ROWS = {
    "site_a": [
        [34, "engineer", "km 12.5"],
        [29, "teacher", "km 3.75"],
        [41, "engineer", "km 18.25"],
    ],
    "site_b": [
        [52, "doctor", "km 25.0"],
        [38, "teacher", "km 4.5"],
        [27, "doctor", "km 22.75"],
    ],
}


def demo_spec(workdir: str, master_seed: int = 2006) -> bytes:
    """A small 2-holder + TP session over unix sockets in ``workdir``."""
    schema = Schema(
        [
            AttributeSpec("age", AttributeType.NUMERIC),
            AttributeSpec("job", AttributeType.CATEGORICAL),
            AttributeSpec("commute", AttributeType.ALPHANUMERIC),
        ]
    )
    for rows in _DEMO_ROWS.values():
        DataMatrix(schema, [tuple(r) for r in rows])  # validates cells
    parties = sorted(_DEMO_ROWS) + ["TP"]
    return encode_spec(
        SessionConfig(num_clusters=2, master_seed=master_seed),
        schema,
        _DEMO_ROWS,
        unix_addresses(parties, workdir),
        tp_name="TP",
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    workdir = args.workdir
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "session.spec")
    Path(spec_path).write_bytes(demo_spec(workdir))
    supervisor = ClusterSupervisor(spec_path, workdir, timeout=args.timeout)
    reports = supervisor.run()
    tp_report = reports["TP"]
    result = tp_report["result"]
    print(f"session completed in era {tp_report['era']}")
    print(f"clusters: {result['clusters']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.cluster",
        description="multi-process privacy-preserving clustering sessions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    party = sub.add_parser("party", help="run one party process (internal)")
    party.add_argument("--spec", required=True)
    party.add_argument("--party", required=True)
    party.add_argument("--out", required=True)
    party.add_argument("--checkpoint", default=None)
    party.add_argument("--incarnation", type=int, default=1)
    party.add_argument("--restore", default=None)
    party.add_argument("--exit-after-step", default=None)
    party.set_defaults(func=_cmd_party)

    run = sub.add_parser("run", help="supervise a full session from a spec")
    run.add_argument("--spec", required=True)
    run.add_argument("--workdir", required=True)
    run.add_argument("--no-restart", action="store_true")
    run.add_argument("--timeout", type=float, default=180.0)
    run.set_defaults(func=_cmd_run)

    demo = sub.add_parser("demo", help="write and run a small demo session")
    demo.add_argument("--workdir", required=True)
    demo.add_argument("--timeout", type=float, default=180.0)
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
