"""Shared utilities: XML helpers and DAG ordering, each imported from
its module (``repro.util.xmlutil``, ``repro.util.dag``)."""
