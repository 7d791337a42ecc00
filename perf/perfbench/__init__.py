"""The repo benchmark: six workloads, timed from outside the program.

Everything here calls only public functions of ``repro`` and reads its
public ``diagnostics()`` / ``stage_timings()``; see ``perf/README.md``.
"""
