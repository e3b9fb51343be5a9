"""``repro.cli`` with the per-layer wrappers installed (traced run only).

Usage: ``python perfbench/traced_server.py serve ...`` with
``PERFBENCH_INTERVALS`` naming the file that receives the recorded call
intervals when the server shuts down (SIGINT).
"""

import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.layers import install  # noqa: E402


def main() -> int:
    recorder = install()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        recorder.dump(os.environ["PERFBENCH_INTERVALS"])


if __name__ == "__main__":
    sys.exit(main())
