"""Performance measurement and regression gating for kernels and joins."""

from .bench import (
    bench_joins,
    bench_kernels,
    bench_scaling,
    bench_scaling_report,
    bench_skew,
    bench_skew_report,
    bench_smoke,
    best_time,
    check_regressions,
    check_scaling,
    check_skew,
    lint_summary,
    peak_alloc,
    peak_rss_bytes,
    write_report,
)

__all__ = [
    "bench_joins",
    "bench_kernels",
    "bench_scaling",
    "bench_scaling_report",
    "bench_skew",
    "bench_skew_report",
    "bench_smoke",
    "best_time",
    "check_regressions",
    "check_scaling",
    "check_skew",
    "lint_summary",
    "peak_alloc",
    "peak_rss_bytes",
    "write_report",
]
