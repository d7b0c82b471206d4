"""Run one ``qop`` command under the span tracer.

Usage: python3 perfbench/launch.py --profile-out FILE -- <qop arguments>

Imports qop from the ``src`` directory next to this file's directory,
installs the tracer, calls ``qop.cli.main`` and exits with its code.  The
profile, the counters and the raw spans are written to FILE as JSON when
the command ends.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--profile-out" or sys.argv[3] != "--":
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    out_path, args = sys.argv[2], sys.argv[4:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    import qop.cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = qop.cli.main(args)
    finally:
        tracer.uninstall()
        spans = tracer.take()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"profile": tracing.profile(spans),
                       "counters": dict(tracer.counters), "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
