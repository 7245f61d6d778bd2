"""Code generation: write-C and schedule-C analogues, mappings, LOC stats."""

from .loc import LocStats, count_loc
from .mapping import MappingError, TargetMapping
from .schedgen import compile_schedule, generate_schedule_code
from .vectorize import (
    CODEGEN_SCHEDULES,
    KernelSchedule,
    ScheduleLegalityError,
    generate_window_kernel,
    get_kernel_schedule,
    is_legal_schedule,
    loop_order,
)
from .writec import compile_write, generate_write_code

__all__ = [
    "LocStats",
    "count_loc",
    "MappingError",
    "TargetMapping",
    "compile_schedule",
    "generate_schedule_code",
    "compile_write",
    "generate_write_code",
    "CODEGEN_SCHEDULES",
    "KernelSchedule",
    "ScheduleLegalityError",
    "generate_window_kernel",
    "get_kernel_schedule",
    "is_legal_schedule",
    "loop_order",
]
