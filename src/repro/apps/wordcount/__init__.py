"""Word count over tuple spaces (work-stealing workload)."""

from .driver import (
    build_wordcount_model,
    register_wordcount_tasks,
    run_parallel_wordcount,
    wordcount_registry,
)
from .tasks import count_words_serial

__all__ = [
    "count_words_serial",
    "build_wordcount_model",
    "register_wordcount_tasks",
    "wordcount_registry",
    "run_parallel_wordcount",
]
