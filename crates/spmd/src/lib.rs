//! # hpf-spmd
//!
//! Owner-computes SPMD lowering and execution:
//!
//! * [`guard`] — computation-partitioning guards;
//! * [`lower`](mod@lower) — program + mapping decisions → guards, placed
//!   communication operations, reduction combines;
//! * [`exec`] — the reference multi-memory executor (defines semantics;
//!   every configuration must match the sequential interpreter);
//! * [`runtime`] — a message-passing replay runtime over a pluggable
//!   [`hpf_net::Transport`] (one thread per virtual processor on the
//!   in-process channel backend; the socket backend runs the same
//!   per-rank engine in separate OS processes) that replays the compiled
//!   communication schedule and revalidates it;
//!
//! The executor and the runtime evaluate statements with the sequential
//! interpreter's evaluator ([`hpf_ir::interp::eval`] /
//! [`hpf_ir::interp::assign`]): the executor through an owner-resolving
//! operand source, the runtime on each rank's local memory.
//!
//! * [`costsim`] — the analytic SP2 performance model that regenerates
//!   the paper's tables;
//! * [`combine`] — global message combining across loop nests (the
//!   optimization the paper reports phpf lacked);
//! * [`metrics`] — wire-level communication observability (per-processor,
//!   per-pattern and per-operation message/byte counters), derived from
//!   the recorded event trace by one mapping, so the executor and the
//!   replay runtime count identically;
//! * [`crosscheck`] — validation that observed wire messages agree with
//!   the cost model's predictions.

pub mod combine;
pub mod costsim;
pub mod crosscheck;
pub mod exec;
pub mod guard;
pub mod lower;
pub mod metrics;
pub mod runtime;

pub use combine::{combine_messages, CombineStats};
pub use costsim::{estimate, CostReport};
pub use crosscheck::{cross_check, CrossCheck, OpCheck};
pub use exec::{validate_against_sequential, ExecStats, Recorded, SpmdExec};
pub use guard::Guard;
pub use exec::{Event, Slot, Tag, Trace};
pub use lower::{lower, CommData, CommOp, ReduceOp, Schedule, ScheduleOp, SpmdProgram};
pub use metrics::{CommMetrics, RecoveryCounters};
pub use runtime::{
    check_owner_slots, replay, replay_rank, replay_rank_segment, replay_rank_traced,
    replay_recorded, validate_replay, validate_replay_traced, Replayed,
    ReplayStats,
};
