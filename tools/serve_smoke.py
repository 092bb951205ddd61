"""Smoke-test supervised ``repro serve`` end to end from the real CLI.

Usage::

    python -m repro generate --scenario smoke --generate 8 --out REFERENCE
    python tools/serve_smoke.py REFERENCE LIBRARY

Starts ``python -m repro serve --supervised --port 0 --library LIBRARY``
twice, one server after the other.  Each time it reads the bound port from
the server's ``listening on`` line, fetches samples ``[0, 8)`` of the
``smoke`` scenario through :class:`~repro.serve.ServeClient` and checks
that the window is ok, that its patterns are byte-identical to
``PatternLibrary(REFERENCE).load_patterns()`` and that ``/healthz`` reports
no worker restart.  The second server must answer the whole window from
the library the first one wrote.  Each server is stopped with SIGTERM and
must exit 0.  The first failed check exits 1 with a message.
"""

from __future__ import annotations

import argparse
import asyncio
import re
import signal
import subprocess
import sys

from repro.library import PatternLibrary
from repro.serve import GenerateRequest, ServeClient

#: Samples requested from each server: ``[0, COUNT)``.
COUNT = 8
_LISTENING = re.compile(r"listening on http://\S+:(\d+)")


def same_bytes(ours, theirs) -> bool:
    """Two pattern lists agree array by array: dtype, shape and bytes."""
    return len(ours) == len(theirs) and all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        for a, b in zip(ours, theirs)
        for x, y in (
            (a.topology, b.topology),
            (a.delta_x, b.delta_x),
            (a.delta_y, b.delta_y),
        )
    )


async def fetch(port: int):
    """The served window plus the server's ``/healthz`` and ``/metrics``."""
    client = ServeClient(port=port)
    window = await client.generate(GenerateRequest(scenario="smoke", count=COUNT, start=0))
    return window, await client.healthz(), await client.metrics()


def serve_once(library: str):
    """Run one server over ``library``, fetch the window, stop it."""
    command = [sys.executable, "-m", "repro", "serve", "--supervised", "--port", "0",
               "--library", library]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as server:
        try:
            for line in server.stdout:
                match = _LISTENING.search(line)
                if match:
                    break
            else:
                raise SystemExit("serve smoke: the server exited before listening")
            window, health, metrics = asyncio.run(fetch(int(match.group(1))))
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                status = server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                raise SystemExit("serve smoke: the server ignored SIGTERM") from None
    return window, health, metrics, status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", help="library of `repro generate --generate 8`")
    parser.add_argument("library", help="library directory backing both servers")
    args = parser.parse_args(argv)
    reference = PatternLibrary(args.reference).load_patterns()
    for attempt in ("first", "second"):
        window, health, metrics, status = serve_once(args.library)
        checks = {
            "summary ok": window.ok,
            "patterns byte-identical to the one-shot library": same_bytes(
                window.patterns, reference
            ),
            "no worker restart": health["worker_restarts"] == 0,
            "server exited 0 on SIGTERM": status == 0,
        }
        if attempt == "second":
            checks["window served from the cache"] = window.summary.cached_samples == COUNT
            checks["window restored from the library"] = (
                metrics["library_restored_samples"] >= COUNT
            )
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            print(f"serve smoke, {attempt} server: FAILED {failed}", file=sys.stderr)
            return 1
        print(
            f"serve smoke, {attempt} server: ok ({len(window.patterns)} patterns, "
            f"{window.summary.cached_samples} cached samples, "
            f"{metrics['library_restored_samples']} restored)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
