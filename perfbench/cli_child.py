"""Child entry point for the CLI workloads: runs the `andmalkg` CLI on argv.

    python3 perfbench/cli_child.py [--spans FILE] [--op N] -- CLI-ARGS...
    python3 perfbench/cli_child.py --import-only

It calls `andmalkg.cli.run`, as the installed `andmalkg` script does, with
the source tree on sys.path.  With --spans it first wraps the public entry points (see
spans.py) and writes the spans to FILE when the CLI exits.  --import-only
imports andmalkg.cli and prints how long the import took, in ms.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> None:
    if argv == ["--import-only"]:
        start = time.perf_counter()
        import andmalkg.cli  # noqa: F401

        print(f"{(time.perf_counter() - start) * 1000.0!r}")
        return
    split = argv.index("--")
    opts = argv[:split]
    sys.argv = ["andmalkg"] + argv[split + 1:]
    import andmalkg.cli

    if "--spans" not in opts:
        andmalkg.cli.run()
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = int(opts[opts.index("--op") + 1]) if "--op" in opts else 0
    try:
        andmalkg.cli.run()
    finally:
        tracer.dump(Path(opts[opts.index("--spans") + 1]))


if __name__ == "__main__":
    main(sys.argv[1:])
