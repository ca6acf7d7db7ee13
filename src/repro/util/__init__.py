"""Shared utilities: XML helpers, deterministic id generation and DAG
ordering, each imported from its module (``repro.util.xmlutil``,
``repro.util.idgen``, ``repro.util.dag``)."""
