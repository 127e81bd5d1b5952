"""One pipeline repetition in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the checkout root, the four stage argument lists and
whether to trace. The process imports ctvm from the checkout's src,
loads the bundled stopword and region tables (the end of set-up), then
runs ingest, rerank, eval and report in order on this one thread by
calling ctvm.cli.main. It prints one JSON line: the monotonic time at
which set-up ended, each stage's exit code and wall time, and the
process's peak resident set.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import ctvm.cli
    from ctvm.geofilter import load_region_table
    from ctvm.textproc import load_stopwords

    load_stopwords()
    load_region_table()
    setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not Path(ctvm.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ctvm imported from {ctvm.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    stages = []
    for name, argv in job["stages"]:
        start = time.perf_counter()
        try:
            code = ctvm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed stage run
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
        stages.append({"stage": name, "exit": code, "seconds": elapsed})
        if code != 0:
            break

    import resource

    result = {
        "setup_done": setup_done,
        "stages": stages,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(job["spans"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
