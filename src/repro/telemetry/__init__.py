"""``repro.telemetry``: the CLI entry point for CN telemetry captures.

A thin alias so users can run ``python -m repro.telemetry`` without
knowing the subsystem lives under :mod:`repro.cn.telemetry`, which is
where the library API is imported from.
"""
