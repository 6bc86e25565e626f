"""Start a ``repro`` server with the layer wrappers installed.

``python3 perfbench/launch.py SPANS.json <repro cli args...>`` installs
:func:`spans.install` with tracing *off*, arms ``SIGUSR1`` to switch it
on, runs ``repro.cli.main`` and, once the server has drained and
returned, writes the recorded spans to ``SPANS.json``.  Starting
untraced lets the process fork its workers and serve an untraced phase
first; forked workers inherit the wrappers switched off, so spans inside
them are not recorded.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Recorder, install  # noqa: E402


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    recorder = Recorder(enabled=False)
    install(recorder)
    signal.signal(signal.SIGUSR1, recorder.enable)

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(Path(out))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
