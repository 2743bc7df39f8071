"""Async launch scheduler: per-launch task DAGs with policy-driven issue.

Replaces the three sequential loops of the Figure 4 kernel-launch
replacement with an explicit dependency graph — one node per segment
transfer, kernel partition, and tracker update — issued under one of three
policies (``sequential`` | ``overlap`` | ``overlap+p2p``). See
``docs/scheduler.md`` for construction rules and the policy matrix.
"""

from repro.sched.executor import DataflowLog
from repro.sched.graph import (
    KernelTask,
    LaunchPlan,
    PlanSkeleton,
    ReadSync,
    TransferTask,
    WriteUpdate,
    build_launch_plan,
    build_plan_skeleton,
    instantiate_plan,
)
from repro.sched.policy import SCHEDULES, SchedulePolicy, select_policy

__all__ = [
    "DataflowLog",
    "KernelTask",
    "LaunchPlan",
    "PlanSkeleton",
    "ReadSync",
    "TransferTask",
    "WriteUpdate",
    "build_launch_plan",
    "build_plan_skeleton",
    "instantiate_plan",
    "SCHEDULES",
    "SchedulePolicy",
    "select_policy",
]
