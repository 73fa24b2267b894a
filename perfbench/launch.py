"""Run one renewalsim CLI invocation in a fresh interpreter and record it.

    python3 perfbench/launch.py STATS_JSON TRACE INVOCATION [CLI ARGS...]

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src``.
With no CLI arguments the process only imports the CLI: a set-up probe.
STATS_JSON receives the wall-clock time at which ``renewalsim.cli.main`` was
about to be called (the parent subtracts its own launch time to get the
set-up time), the seconds spent inside ``main``, its exit code, the peak RSS
of this process and of its reaped children (the pool workers) and, with
TRACE 1, the spans recorded by ``tracing``.
"""

import json
import resource
import sys
import time


def main() -> None:
    stats_path, trace, invocation, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    import renewalsim.cli

    recorder = None
    stats = {"module": renewalsim.cli.__file__}
    if trace:
        import tracing

        recorder = tracing.install(invocation)
    stats["call_epoch"] = time.time()
    if argv:
        start = time.perf_counter()
        stats["exit"] = renewalsim.cli.main(argv)
        stats["wall_s"] = time.perf_counter() - start
        peak_kib = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        stats["peak_rss_mib"] = peak_kib / 1024.0
        if recorder is not None:
            stats["spans"] = recorder.spans
            stats["counts"] = recorder.counts
    with open(stats_path, "w") as handle:
        json.dump(stats, handle)


if __name__ == "__main__":
    main()
