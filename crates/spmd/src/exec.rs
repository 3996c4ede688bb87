//! The reference SPMD executor: P virtual processors with separate
//! memories, owner-computes guards, fetch-from-owner reads and reduction
//! combines.
//!
//! This executor defines the *semantics* of a lowered program — every
//! mapping configuration (including the deliberately bad ones used as
//! baselines) must produce results identical to the sequential
//! interpreter, whose evaluator it runs: each processor's statements go
//! through [`hpf_ir::interp::assign`] over an operand source that fetches
//! every non-local read from its owner. Performance is modelled separately
//! by [`crate::costsim`]. [`ExecStats`] still counts exact per-element
//! fetches (an upper bound, useful for invariants). Each wire message —
//! where the per-element fetches of a hoisted communication operation
//! coalesce into one vectorized [`Event::SendVec`]/[`Event::RecvVec`]
//! message — is recorded once, as its [`Event`]: the executor books the
//! event into [`CommMetrics`] when it is final (a `Send` when built, a
//! `SendVec` when its group closes), and [`Recorded::obs`] derives
//! the comm timelines from the recorded trace through [`comm_bodies`],
//! the mapping the replay records its timeline with. The counters are
//! directly comparable to the cost model's message predictions (checked
//! by [`crate::crosscheck`]).

use crate::guard::Guard;
use crate::lower::{CommData, ReduceOp, SpmdProgram};
use crate::metrics::CommMetrics;
use hpf_analysis::RedOp;
use hpf_dist::{dist_owner, GridCoord, GridDimRule, OwnerSet, ProcGrid};
use hpf_ir::interp::{self, eval_binop, eval_intrinsic, ArrayStore, InterpError, Memory, Operands};
use hpf_ir::{ArrayRef, BinOp, Expr, Intrinsic, Label, Program, Stmt, StmtId, Value, VarId};
use hpf_obs::{Body, BufTracer, CommKind};
use phpf_core::ScalarMapping;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A storage slot on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    Scalar(VarId),
    /// Array element by linear offset.
    Elem(VarId, usize),
}

impl Slot {
    /// Payload bytes of the slot's value on the wire.
    pub fn bytes(self, p: &Program) -> u64 {
        let (Slot::Scalar(v) | Slot::Elem(v, _)) = self;
        p.vars.info(v).ty.byte_size() as u64
    }
}

/// What one per-element message is booked under. The executor tags the
/// `Send`, `Recv` and `RecvPartial` events it records, and the counters
/// ([`CommMetrics::book`]) and timelines ([`comm_bodies`]) read the tag off
/// the event. Two words wide, so `Event` stays the size of its `SendVec`
/// variant: traces hold one event per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// A fetch served by placed communication operation `i` (an index into
    /// `SpmdProgram::comms`).
    Op(usize),
    /// Data read while evaluating an IF predicate or DO bounds globally, at
    /// loop depth `d`.
    Control(usize),
    /// A fetch no placed operation covers, at loop depth `d`.
    Untracked(usize),
    /// A reduction partial travelling member → leader after the loop at
    /// depth `d`.
    Reduce(usize),
    /// A folded reduction result travelling leader → member.
    Broadcast(usize),
}

impl Tag {
    /// The placed operation, if any.
    pub fn op(self) -> Option<usize> {
        match self {
            Tag::Op(i) => Some(i),
            _ => None,
        }
    }

    /// Timeline kinds of the send and the receive side.
    pub fn kinds(self) -> (CommKind, CommKind) {
        match self {
            Tag::Reduce(_) => (CommKind::Reduce, CommKind::Reduce),
            Tag::Broadcast(_) => (CommKind::Broadcast, CommKind::Broadcast),
            _ => (CommKind::Send, CommKind::Recv),
        }
    }

    /// The pattern key, the placement level and the reading statement's
    /// level.
    pub fn booking(self, sp: &SpmdProgram) -> (&'static str, usize, usize) {
        match self {
            Tag::Op(i) => {
                let c = &sp.comms[i];
                (c.pattern.name(), c.level, c.stmt_level)
            }
            Tag::Control(d) => (crate::metrics::CONTROL, d, d),
            Tag::Untracked(d) => (crate::metrics::UNTRACKED, d, d),
            Tag::Reduce(d) | Tag::Broadcast(d) => (crate::metrics::REDUCE, d, d),
        }
    }
}

/// Hand `push` the comm timeline entries that rank `pid`'s event `ev`
/// yields: one per wire message it sends or receives — none for compute
/// events, two for a `RecvPartial` that carries a location. A send carries
/// `seq`, its link's wire sequence number when known. The executor derives
/// its timelines through this and the replay records each event through
/// it, so both tell the same story.
pub(crate) fn comm_bodies(
    sp: &SpmdProgram,
    pid: usize,
    ev: &Event,
    seq: Option<u64>,
    mut push: impl FnMut(Body),
) {
    let (kind, (from, to), tag, elems, n) = match ev {
        Event::Send { to, tag, .. } => (tag.kinds().0, (pid, *to), *tag, 1, 1),
        Event::Recv { from, tag, .. } => (tag.kinds().1, (*from, pid), *tag, 1, 1),
        Event::SendVec { to, op, slots } => {
            (CommKind::SendVec, (pid, *to), Tag::Op(*op), slots.len(), 1)
        }
        Event::RecvVec { from, op, slots } => {
            (CommKind::RecvVec, (*from, pid), Tag::Op(*op), slots.len(), 1)
        }
        Event::RecvPartial { from, has_loc, tag } => {
            (tag.kinds().1, (*from, pid), *tag, 1, 1 + usize::from(*has_loc))
        }
        Event::Exec { .. } | Event::CondExec { .. } | Event::Combine { .. } => return,
    };
    let (pattern, level, stmt_level) = tag.booking(sp);
    for _ in 0..n {
        push(Body::Comm {
            kind,
            from,
            to,
            op: tag.op(),
            pattern: pattern.to_string(),
            level,
            stmt_level,
            place: hpf_comm::placement_tag(level, stmt_level),
            elems: elems as u64,
            seq: if from == pid { seq } else { None },
        });
    }
}

/// One event of a recorded execution trace (consumed by
/// [`crate::runtime`]'s threaded replay).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Send the local value of `slot` to processor `to`.
    Send { to: usize, slot: Slot, tag: Tag },
    /// Receive a value from processor `from` into `slot`.
    Recv { from: usize, slot: Slot, tag: Tag },
    /// Send the local values of `slots` to `to` as one coalesced message
    /// (the vectorized form of the hoisted communication operation `op`,
    /// an index into `SpmdProgram::comms`).
    SendVec {
        to: usize,
        op: usize,
        slots: Vec<Slot>,
    },
    /// Receive one coalesced message from `from`, storing its values into
    /// `slots` in order.
    RecvVec {
        from: usize,
        op: usize,
        slots: Vec<Slot>,
    },
    /// Execute an assignment locally (operands are all local by now).
    Exec { stmt: StmtId, env: LoopEnv },
    /// Evaluate a (maxloc) IF locally and run its body when true.
    CondExec { stmt: StmtId, env: LoopEnv },
    /// Receive a reduction partial (acc, then loc if present) onto the
    /// value stack.
    RecvPartial { from: usize, has_loc: bool, tag: Tag },
    /// Fold `count` stacked partials into the local accumulator.
    Combine {
        op: RedOp,
        acc: VarId,
        loc: Option<VarId>,
        count: usize,
    },
}

impl Event {
    /// The destination of a `Send`/`SendVec`.
    pub(crate) fn send_to(&self) -> Option<usize> {
        match self {
            Event::Send { to, .. } | Event::SendVec { to, .. } => Some(*to),
            _ => None,
        }
    }
}

/// Per-processor event lists.
pub type Trace = Vec<Vec<Event>>;

/// The loop-variable bindings (outermost first) an `Exec`/`CondExec`
/// event runs under. Every statement instance executed between two
/// changes of a loop variable shares one snapshot.
pub type LoopEnv = Arc<[(VarId, i64)]>;

/// Message statistics of an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Element fetches that crossed processors.
    pub messages: u64,
    /// Bytes moved by those fetches.
    pub bytes: u64,
    /// Reduction combine exchanges.
    pub combines: u64,
    /// Statement instances executed (summed over processors).
    pub stmt_execs: u64,
}

enum Flow {
    Normal,
    Goto(Label),
}

/// A coalesced message under assembly: further fetches of the same
/// (operation, src, dst) triple append to it instead of opening a new
/// message, until the placement loop advances and the group closes.
#[derive(Default)]
struct OpenGroup {
    /// Positions of the group's `SendVec` and `RecvVec` placeholders in the
    /// sender's and receiver's trace (present only when tracing), filled
    /// when the group closes. Stable because traces are append-only.
    at: Option<(usize, usize)>,
    /// Slots carried, in first-fetch order.
    slots: Vec<Slot>,
    /// The same slots as a set — repeat fetches of one element are free.
    seen: HashSet<Slot>,
}

/// The executor.
pub struct SpmdExec<'s> {
    sp: &'s SpmdProgram,
    grid: ProcGrid,
    pub mems: Vec<Memory>,
    pub stats: ExecStats,
    /// Wire-level communication accounting (coalesced messages count once).
    pub metrics: CommMetrics,
    steps: u64,
    pub step_limit: u64,
    /// When present, the execution is recorded for threaded replay.
    pub trace: Option<Trace>,
    /// Epoch boundaries of the recorded trace ([`Recorded::cuts`]).
    cuts: Vec<Vec<usize>>,
    /// Current loop-variable bindings (outermost first).
    loop_env: Vec<(VarId, i64)>,
    /// Shared snapshot of `loop_env` for the trace, taken on first use
    /// after each change of a loop variable.
    env_snap: Option<LoopEnv>,
    /// The executors of the current statement (see `guard_pids`), reused
    /// from statement to statement.
    executors: Vec<usize>,
    /// The current guard's owner set (see `guard_pids`), one entry per grid
    /// dimension, reused from statement to statement.
    guard_owner: OwnerSet,
    /// Coalesce hoisted fetches into vectorized messages (default on).
    vectorize: bool,
    /// Statement currently executing — attributes fetches to placed
    /// communication operations.
    cur_stmt: Option<StmtId>,
    /// Open coalescing groups keyed by (op index, src pid, dst pid).
    open: HashMap<(usize, usize, usize), OpenGroup>,
    /// Inside a global control evaluation (IF predicate, DO bounds):
    /// unattributed fetches are control traffic, not schedule misses.
    ctrl_eval: bool,
}

impl<'s> SpmdExec<'s> {
    /// Create an executor; `init` is applied to every processor's memory
    /// (initial data is globally known, as in the benchmark programs).
    pub fn new(sp: &'s SpmdProgram, init: impl Fn(&mut Memory)) -> Self {
        let grid = sp.maps.grid.clone();
        let mems = (0..grid.total())
            .map(|_| {
                let mut m = Memory::zeroed(&sp.program);
                init(&mut m);
                m
            })
            .collect();
        let metrics = CommMetrics::new(grid.total(), sp.comms.len());
        let executors = Vec::with_capacity(grid.total());
        let guard_owner = OwnerSet {
            per_dim: vec![GridCoord::Any; grid.rank()],
        };
        SpmdExec {
            sp,
            grid,
            mems,
            stats: ExecStats::default(),
            metrics,
            steps: 0,
            step_limit: 2_000_000_000,
            trace: None,
            cuts: Vec::new(),
            loop_env: Vec::new(),
            env_snap: None,
            executors,
            guard_owner,
            vectorize: true,
            cur_stmt: None,
            open: HashMap::new(),
            ctrl_eval: false,
        }
    }

    /// Enable trace recording (one event list per processor).
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(vec![Vec::new(); self.grid.total()]);
        self
    }

    /// Disable fetch coalescing: every cross-processor element moves as
    /// its own message (the baseline vectorization is compared against).
    pub fn without_vectorization(mut self) -> Self {
        self.vectorize = false;
        self
    }

    fn record(&mut self, pid: usize, ev: Event) {
        if let Some(t) = &mut self.trace {
            t[pid].push(ev);
        }
    }

    /// The current loop environment as a shared snapshot (taken once per
    /// change of a loop variable). Only needed when tracing.
    fn env_snapshot(&mut self) -> LoopEnv {
        let loop_env = &self.loop_env;
        self.env_snap
            .get_or_insert_with(|| loop_env.as_slice().into())
            .clone()
    }

    /// Snapshot an epoch boundary if it is safe: every rank's current
    /// trace position, provided no coalescing group is open (an open group
    /// still grows an already-recorded event in place, so cutting there
    /// would split a message).
    fn maybe_cut(&mut self) {
        let Some(t) = &self.trace else {
            return;
        };
        if !self.open.is_empty() {
            return;
        }
        let cut: Vec<usize> = t.iter().map(|e| e.len()).collect();
        if self.cuts.last() != Some(&cut) {
            self.cuts.push(cut);
        }
    }

    /// One cross-processor element fetch: always counted per-element in
    /// `stats`; on the wire a fetch belonging to a hoisted operation joins
    /// that operation's open coalesced message for this (src, dst) pair,
    /// which is booked once, when it closes.
    fn fetch(&mut self, op: Option<usize>, src: usize, dst: usize, slot: Slot, bytes: u64) {
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        let hoisted = op.map(|i| self.sp.comms[i].hoisted()).unwrap_or(false);
        if self.vectorize && hoisted {
            let i = op.unwrap();
            let key = (i, src, dst);
            if !self.open.contains_key(&key) {
                // Placeholders keep the message's place in both traces.
                let at = self.trace.as_mut().map(|t| {
                    t[src].push(Event::SendVec { to: dst, op: i, slots: Vec::new() });
                    t[dst].push(Event::RecvVec { from: src, op: i, slots: Vec::new() });
                    (t[src].len() - 1, t[dst].len() - 1)
                });
                self.open.insert(key, OpenGroup { at, ..OpenGroup::default() });
                self.metrics.saw_in_flight(self.open.len() as u64);
            }
            let g = self.open.get_mut(&key).unwrap();
            if g.seen.insert(slot) {
                g.slots.push(slot);
            }
        } else {
            let tag = match op {
                Some(i) => Tag::Op(i),
                None if self.ctrl_eval => Tag::Control(self.loop_env.len()),
                None => Tag::Untracked(self.loop_env.len()),
            };
            self.send_elem(tag, src, dst, slot);
            self.record(dst, Event::Recv { from: src, slot, tag });
        }
    }

    /// Build, book and record one per-element `Send`. The caller records
    /// the receive side.
    fn send_elem(&mut self, tag: Tag, src: usize, dst: usize, slot: Slot) {
        let ev = Event::Send { to: dst, slot, tag };
        self.metrics.book(self.sp, src, &ev);
        self.record(src, ev);
    }

    /// Close every coalescing group whose placement loop (at `depth` or
    /// deeper) advanced: the next fetch of its operation starts a new
    /// message. Each closed group is now final: its `SendVec` is booked
    /// and fills the trace placeholders.
    fn close_groups(&mut self, depth: usize) {
        if self.open.is_empty() {
            return;
        }
        let sp = self.sp;
        let mut closed = Vec::new();
        self.open.retain(|&key, g| {
            let keep = sp.comms[key.0].level < depth;
            if !keep {
                closed.push((key, std::mem::take(g)));
            }
            keep
        });
        for ((op, src, dst), g) in closed {
            let send = Event::SendVec { to: dst, op, slots: g.slots };
            self.metrics.book(sp, src, &send);
            if let (Some(t), Some((s, r))) = (&mut self.trace, g.at) {
                if let Event::SendVec { slots, .. } = &send {
                    t[dst][r] = Event::RecvVec { from: src, op, slots: slots.clone() };
                }
                t[src][s] = send;
            }
        }
    }

    /// Run to completion.
    pub fn run(&mut self) -> Result<ExecStats, InterpError> {
        let sp = self.sp;
        self.maybe_cut();
        let flow = self.exec_block(&sp.program.body)?;
        // Execution is over, so every still-open coalescing group is done
        // growing; close them all so the final cut (which must cover the
        // whole trace) is never vetoed.
        self.close_groups(0);
        self.maybe_cut();
        match flow {
            Flow::Normal => Ok(self.stats),
            Flow::Goto(l) => Err(InterpError::UnresolvedGoto(l.0)),
        }
    }

    fn p(&self) -> &'s hpf_ir::Program {
        &self.sp.program
    }

    /// Processor `q`'s operand source, reading the scalars in `locals`
    /// from q's own memory.
    fn on<'e>(&'e mut self, q: usize, locals: &'e [VarId]) -> OnProc<'e, 's> {
        OnProc { ex: self, q, locals }
    }

    /// Evaluate an expression for processor `q`.
    fn eval(&mut self, e: &Expr, q: usize) -> Result<Value, InterpError> {
        let p = self.p();
        interp::eval(p, e, &mut self.on(q, &[]))
    }

    fn exec_block(&mut self, block: &'s [StmtId]) -> Result<Flow, InterpError> {
        let mut idx = 0;
        while idx < block.len() {
            if self.loop_env.is_empty() {
                // Top-level statement boundary: an epoch cut candidate.
                self.maybe_cut();
            }
            match self.exec_stmt(block[idx])? {
                Flow::Normal => idx += 1,
                Flow::Goto(l) => {
                    match block
                        .iter()
                        .position(|&s| self.p().node(s).label == Some(l))
                    {
                        Some(pos) => idx = pos,
                        None => return Ok(Flow::Goto(l)),
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: StmtId) -> Result<Flow, InterpError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(InterpError::StepLimit);
        }
        self.cur_stmt = Some(s);
        let sp = self.sp;
        match sp.program.stmt(s) {
            Stmt::Assign { lhs, rhs } => {
                self.guard_pids(s)?;
                self.stats.stmt_execs += self.executors.len() as u64;
                for i in 0..self.executors.len() {
                    let q = self.executors[i];
                    interp::assign(&sp.program, lhs, rhs, &mut self.on(q, &[]))?;
                    if self.trace.is_some() {
                        let env = self.env_snapshot();
                        self.record(q, Event::Exec { stmt: s, env });
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                self.ctrl_eval = true;
                let bounds = (|| -> Result<(i64, i64, i64), InterpError> {
                    Ok((
                        self.eval(lo, 0)?.as_int()?,
                        self.eval(hi, 0)?.as_int()?,
                        self.eval(step, 0)?.as_int()?,
                    ))
                })();
                self.ctrl_eval = false;
                let (lo, hi, st) = bounds?;
                if st == 0 {
                    return Err(InterpError::DivisionByZero);
                }
                let var = *var;
                let mut i = lo;
                let mut out = Flow::Normal;
                self.loop_env.push((var, lo));
                self.env_snap = None;
                while (st > 0 && i <= hi) || (st < 0 && i >= hi) {
                    // A new iteration at this depth: coalesced messages of
                    // operations placed at this level or deeper are done.
                    self.close_groups(self.loop_env.len());
                    if self.loop_env.len() == 1 {
                        // Outermost-loop iteration start: an epoch cut
                        // candidate (taken only if no level-0 group
                        // straddles the boundary).
                        self.maybe_cut();
                    }
                    for m in &mut self.mems {
                        m.set_scalar(var, Value::Int(i));
                    }
                    self.loop_env.last_mut().unwrap().1 = i;
                    self.env_snap = None;
                    match self.exec_block(body)? {
                        Flow::Normal => {}
                        Flow::Goto(l) => {
                            out = Flow::Goto(l);
                            break;
                        }
                    }
                    i += st;
                }
                self.loop_env.pop();
                self.env_snap = None;
                for m in &mut self.mems {
                    m.set_scalar(var, Value::Int(i));
                }
                // Reduction combines attached to this loop.
                self.run_reduces(s)?;
                Ok(out)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // A maxloc reduction IF executes with per-processor partial
                // state (diverging branches); everything else is uniform.
                if let Some(locals) = sp.reduction_if_locals(s) {
                    return self.exec_reduction_if(s, cond, then_body, locals);
                }
                self.ctrl_eval = true;
                let c = self.eval(cond, 0);
                self.ctrl_eval = false;
                let c = c?.as_bool()?;
                self.exec_block(if c { then_body } else { else_body })
            }
            Stmt::Goto(l) => {
                // A jump may re-enter earlier code without a loop-iteration
                // boundary; conservatively close every coalescing group.
                self.close_groups(0);
                Ok(Flow::Goto(*l))
            }
            Stmt::Continue => Ok(Flow::Normal),
        }
    }

    /// Maxloc pattern: each partial owner tests and updates its own copy of
    /// `locals`, the accumulator and location variables
    /// ([`SpmdProgram::reduction_if_locals`]).
    fn exec_reduction_if(
        &mut self,
        s: StmtId,
        cond: &Expr,
        then_body: &[StmtId],
        locals: &[VarId],
    ) -> Result<Flow, InterpError> {
        let p = &self.sp.program;
        self.guard_pids(s)?;
        for i in 0..self.executors.len() {
            let q = self.executors[i];
            self.cur_stmt = Some(s);
            let c = interp::eval(p, cond, &mut self.on(q, locals))?.as_bool()?;
            if self.trace.is_some() {
                let env = self.env_snapshot();
                self.record(q, Event::CondExec { stmt: s, env });
            }
            if !c {
                continue;
            }
            self.stats.stmt_execs += 1;
            for &t in then_body {
                if let Stmt::Assign { lhs, rhs } = p.stmt(t) {
                    self.cur_stmt = Some(t);
                    interp::assign(p, lhs, rhs, &mut self.on(q, locals))?;
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn run_reduces(&mut self, l: StmtId) -> Result<(), InterpError> {
        let sp = self.sp;
        // An op without reduce dims has no groups: it is already complete
        // on the single owner.
        for op in sp.reduces.iter().filter(|r| r.loop_id == l) {
            for pids in &op.groups {
                self.combine_group(op, pids)?;
            }
        }
        Ok(())
    }

    /// One reduction combine over `pids`: the members stream their
    /// partials (acc, then loc) to the leader `pids[0]`, which folds them
    /// and broadcasts the result back.
    fn combine_group(&mut self, op: &ReduceOp, pids: &[usize]) -> Result<(), InterpError> {
        let (leader, members) = (pids[0], &pids[1..]);
        let depth = self.loop_env.len();
        let vars = || std::iter::once(op.acc).chain(op.loc);
        for &q in members {
            for v in vars() {
                self.send_elem(Tag::Reduce(depth), q, leader, Slot::Scalar(v));
            }
            let has_loc = op.loc.is_some();
            let tag = Tag::Reduce(depth);
            self.record(leader, Event::RecvPartial { from: q, has_loc, tag });
        }
        self.record(
            leader,
            Event::Combine {
                op: op.op,
                acc: op.acc,
                loc: op.loc,
                count: members.len(),
            },
        );
        for &q in members {
            for v in vars() {
                let (slot, tag) = (Slot::Scalar(v), Tag::Broadcast(depth));
                self.send_elem(tag, leader, q, slot);
                self.record(q, Event::Recv { from: leader, slot, tag });
            }
        }
        let partial = |m: &Memory| (m.scalar(op.acc), op.loc.map(|lv| m.scalar(lv)));
        let mut best = partial(&self.mems[leader]);
        for &q in members {
            fold_partial(op.op, &mut best, partial(&self.mems[q]))?;
        }
        for &q in pids {
            self.mems[q].set_scalar(op.acc, best.0);
            if let (Some(lv), Some(bl)) = (op.loc, best.1) {
                self.mems[q].set_scalar(lv, bl);
            }
            self.stats.combines += 1;
        }
        Ok(())
    }

    /// Fill `executors` with the pids executing statement `s` under its
    /// guard.
    fn guard_pids(&mut self, s: StmtId) -> Result<(), InterpError> {
        self.executors.clear();
        match self.sp.guard(s) {
            Guard::Everyone | Guard::Union => self.executors.extend(self.grid.pids()),
            Guard::OwnerOf { r, free_dims } => {
                let rules = &self.sp.maps.of(r.array).rules;
                for (g, rule) in rules.iter().enumerate() {
                    let c = self.owner_coord(r, g, rule, free_dims, 0)?;
                    self.guard_owner.per_dim[g] = c;
                }
                let (grid, own) = (&self.grid, &self.guard_owner);
                self.executors
                    .extend(grid.pids().filter(|&q| own.contains_pid(grid, q)));
            }
        }
        Ok(())
    }

    /// The owner coordinate of reference `r` along grid dimension `g`
    /// (whose rule is `rule`), evaluating the subscript it depends on for
    /// processor `reader`. Free, replicated and private dimensions are
    /// `Any`.
    fn owner_coord(
        &mut self,
        r: &ArrayRef,
        g: usize,
        rule: &GridDimRule,
        free_dims: &[usize],
        reader: usize,
    ) -> Result<GridCoord, InterpError> {
        if free_dims.contains(&g) {
            return Ok(GridCoord::Any);
        }
        Ok(match rule {
            GridDimRule::ByDim {
                array_dim,
                dist,
                stride,
                offset,
                t_lo,
                t_extent,
            } => {
                let sub = self.eval(&r.subs[*array_dim], reader)?.as_int()?;
                let pos0 = stride * sub + offset - t_lo;
                if pos0 < 0 || pos0 >= *t_extent {
                    return Err(InterpError::OutOfBounds {
                        array: self.p().vars.name(r.array).to_string(),
                        index: vec![sub],
                    });
                }
                GridCoord::At(dist_owner(*dist, pos0, *t_extent, self.grid.extent(g)))
            }
            GridDimRule::Fixed(c) => GridCoord::At(*c),
            GridDimRule::Replicated | GridDimRule::Private => GridCoord::Any,
        })
    }

    /// Processor `q`'s read of element `off` (subscripts `idx`) of
    /// `r.array`: fetched from its owner.
    fn read_element(
        &mut self,
        r: &ArrayRef,
        idx: &[i64],
        off: usize,
        q: usize,
    ) -> Result<Value, InterpError> {
        let sp = self.sp;
        let src = sp.maps.of(r.array).owner_pid(&self.grid, idx, q);
        if src != q {
            let bytes = sp.program.vars.info(r.array).ty.byte_size() as u64;
            let op = self.cur_stmt.and_then(|s| sp.array_comm_index(s, r));
            self.fetch(op, src, q, Slot::Elem(r.array, off), bytes);
        }
        Ok(self.mems[src].array(r.array).get(off))
    }

    /// Processor `q`'s read of scalar `v`: replicated and private scalars
    /// read q's copy; aligned and reduction-mapped ones are fetched from
    /// the owner of their target.
    fn read_scalar(&mut self, v: VarId, q: usize) -> Result<Value, InterpError> {
        let sp = self.sp;
        let (target, free_dims) = match sp.scalar_mapping(v) {
            ScalarMapping::Replicated | ScalarMapping::PrivateNoAlign => {
                return Ok(self.mems[q].scalar(v))
            }
            ScalarMapping::Aligned { target, .. } => (target, &[][..]),
            ScalarMapping::Reduction {
                target,
                reduce_dims,
                ..
            } => (target, &reduce_dims[..]),
        };
        // The owner's coordinates, with `Any` dimensions resolved to q's
        // own (replicated and privatized copies are read locally).
        let mut src = 0;
        for (g, rule) in sp.maps.of(target.array).rules.iter().enumerate() {
            let c = match self.owner_coord(target, g, rule, free_dims, q)? {
                GridCoord::At(c) => c,
                GridCoord::Any => self.grid.coord(q, g),
            };
            src = src * self.grid.extent(g) + c;
        }
        if src != q {
            let bytes = sp.program.vars.info(v).ty.byte_size() as u64;
            let op = self
                .cur_stmt
                .and_then(|s| sp.comm_index(s, &CommData::Scalar(v)));
            self.fetch(op, src, q, Slot::Scalar(v), bytes);
        }
        Ok(self.mems[src].scalar(v))
    }

    /// Gather the authoritative value of every element of an array
    /// (fetching each element from an owner).
    pub fn gather_array(&self, v: VarId) -> ArrayStore {
        let info = self.p().vars.info(v);
        let shape = info.shape().expect("array");
        let mut out = ArrayStore::zeroed(info.ty, shape.len() as usize);
        let mapping = self.sp.maps.of(v);
        for off in 0..shape.len() as usize {
            let idx = shape.delinearize(off);
            let src = mapping.owner_pid(&self.grid, &idx, 0);
            out.set(off, self.mems[src].array(v).get(off)).unwrap();
        }
        out
    }
}

/// Processor `q`'s operands for the shared evaluator: the scalars in
/// `locals` read q's own copy; every other read resolves through
/// [`SpmdExec::read_scalar`] / [`SpmdExec::read_element`], which fetch from
/// the owner. Stores go to q's memory.
struct OnProc<'e, 's> {
    ex: &'e mut SpmdExec<'s>,
    q: usize,
    locals: &'e [VarId],
}

impl Operands for OnProc<'_, '_> {
    fn scalar(&mut self, v: VarId) -> Result<Value, InterpError> {
        if self.locals.contains(&v) {
            return Ok(self.ex.mems[self.q].scalar(v));
        }
        self.ex.read_scalar(v, self.q)
    }

    fn element(&mut self, r: &ArrayRef, idx: &[i64], off: usize) -> Result<Value, InterpError> {
        self.ex.read_element(r, idx, off, self.q)
    }

    fn dest(&mut self) -> &mut Memory {
        &mut self.ex.mems[self.q]
    }
}

/// Fold one reduction partial `(acc, loc)` into the running `best`: the
/// combine rule of both the executor and the replay's `Combine` event.
/// MAXLOC keeps the first strict maximum, so partials are folded in
/// member order.
pub(crate) fn fold_partial(
    op: RedOp,
    best: &mut (Value, Option<Value>),
    (v, loc): (Value, Option<Value>),
) -> Result<(), InterpError> {
    best.0 = match op {
        RedOp::Sum => eval_binop(BinOp::Add, best.0, v)?,
        RedOp::Prod => eval_binop(BinOp::Mul, best.0, v)?,
        RedOp::Max => eval_intrinsic(Intrinsic::Max, &[best.0, v])?,
        RedOp::Min => eval_intrinsic(Intrinsic::Min, &[best.0, v])?,
        RedOp::MaxLoc => {
            if !eval_binop(BinOp::Gt, v, best.0)?.as_bool()? {
                return Ok(());
            }
            best.1 = loc;
            v
        }
    };
    Ok(())
}

/// The product of one traced reference-executor run: the schedule every
/// other component consumes. The verifier checks its trace and cuts, the
/// replays play its trace and compare against its memories, and the
/// cross-check reads its metrics, so one run serves them all.
#[derive(Debug)]
pub struct Recorded {
    /// Per-processor event lists.
    pub trace: Trace,
    /// Epoch boundaries: snapshots of every rank's trace length, taken at
    /// top-level statement boundaries and outermost loop iteration starts,
    /// but only while no coalescing group is open, so every event before
    /// a cut is final. The first cut is all zeros, the last covers the
    /// full trace, and consecutive duplicates are elided. Supervised
    /// replay restarts a failed rank from the last committed cut.
    pub cuts: Vec<Vec<usize>>,
    /// The final per-processor memories.
    pub mems: Vec<Memory>,
    pub stats: ExecStats,
    /// Wire-level accounting (coalesced messages count once).
    pub metrics: CommMetrics,
}

impl Recorded {
    /// Run `sp` once on the traced executor, every processor's memory set
    /// up by `init`; `vectorize = false` records per-element `Send`/`Recv`
    /// events only (the baseline for the coalesced schedule).
    pub fn run(
        sp: &SpmdProgram,
        init: impl Fn(&mut Memory),
        vectorize: bool,
    ) -> Result<Recorded, InterpError> {
        let mut exec = SpmdExec::new(sp, init).with_trace();
        exec.vectorize = vectorize;
        exec.run()?;
        let SpmdExec { trace, cuts, mems, stats, metrics, .. } = exec;
        let trace = trace.expect("with_trace records a trace");
        Ok(Recorded { trace, cuts, mems, stats, metrics })
    }

    /// The comm timelines of the trace as one merged observability trace
    /// (ranks in ascending order): each rank's events mapped through
    /// [`comm_bodies`], exactly as the replay records them. `sp` is the
    /// program that was run.
    pub fn obs(&self, sp: &SpmdProgram) -> hpf_obs::Trace {
        let ranks = self.trace.iter().enumerate().map(|(r, events)| {
            let mut t = BufTracer::for_rank(r);
            for ev in events {
                comm_bodies(sp, r, ev, None, |b| t.push(b));
            }
            (r, t.into_events())
        });
        hpf_obs::Trace::from_ranks(ranks.collect())
    }
}

/// Run a lowered program and check its results element-by-element against
/// the sequential interpreter. Arrays whose mapping contains privatized
/// dimensions are skipped (their post-loop contents are unspecified, per
/// HPF `NEW` semantics). Returns the executor stats on success.
pub fn validate_against_sequential(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory),
) -> Result<ExecStats, String> {
    // Sequential golden run.
    let (seq_mem, _) = hpf_ir::interp::run_program(&sp.program, |m| init(m))
        .map_err(|e| format!("sequential run failed: {}", e))?;
    // SPMD run.
    let mut exec = SpmdExec::new(sp, init);
    let stats = exec.run().map_err(|e| format!("spmd run failed: {}", e))?;
    // Compare arrays.
    for (v, info) in sp.program.vars.arrays() {
        let mapping = sp.maps.of(v);
        if !mapping.private_dims().is_empty() {
            continue;
        }
        let got = exec.gather_array(v);
        let want = seq_mem.array(v);
        if !stores_close(&got, want) {
            return Err(format!("array {} diverged from sequential", info.name));
        }
    }
    Ok(stats)
}

fn stores_close(a: &ArrayStore, b: &ArrayStore) -> bool {
    match (a, b) {
        (ArrayStore::Real(x), ArrayStore::Real(y)) => x
            .iter()
            .zip(y)
            .all(|(u, v)| (u - v).abs() <= 1e-9 * (1.0 + v.abs())),
        (ArrayStore::Int(x), ArrayStore::Int(y)) => x == y,
        (ArrayStore::Bool(x), ArrayStore::Bool(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_ir::parse_program;
    use phpf_core::CoreConfig;

    fn lowered(src: &str, cfg: CoreConfig, procs: Option<Vec<usize>>) -> SpmdProgram {
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let grid = procs.map(hpf_dist::ProcGrid::new);
        let maps = MappingTable::from_program(&p, grid).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, cfg);
        crate::lower::lower(&p, &a, &maps, d)
    }

    const FIG1: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20), C(20), D(20), E(20), F(20)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 19
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;

    fn fig1_init(p: &hpf_ir::Program) -> impl Fn(&mut Memory) + '_ {
        move |m: &mut Memory| {
            for name in ["a", "b", "c", "e", "f"] {
                let v = p.vars.lookup(name).unwrap();
                let n = p.vars.info(v).shape().unwrap().len() as usize;
                let data: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.25).collect();
                m.fill_real(v, &data);
            }
        }
    }

    #[test]
    fn figure1_semantics_preserved_selected() {
        let sp = lowered(FIG1, CoreConfig::full(), None);
        let stats = validate_against_sequential(&sp, fig1_init(&sp.program)).unwrap();
        // Parallel execution happened (not everything on one proc).
        assert!(stats.stmt_execs > 0);
    }

    #[test]
    fn figure1_semantics_preserved_replication() {
        let sp = lowered(FIG1, CoreConfig::naive(), None);
        validate_against_sequential(&sp, fig1_init(&sp.program)).unwrap();
    }

    #[test]
    fn figure1_semantics_preserved_producer() {
        let mut cfg = CoreConfig::full();
        cfg.scalar_policy = phpf_core::ScalarPolicy::ProducerAlign;
        let sp = lowered(FIG1, cfg, None);
        validate_against_sequential(&sp, fig1_init(&sp.program)).unwrap();
    }

    #[test]
    fn figure1_selected_fewer_messages_than_replication() {
        let sp_sel = lowered(FIG1, CoreConfig::full(), None);
        let sp_rep = lowered(FIG1, CoreConfig::naive(), None);
        let st_sel =
            validate_against_sequential(&sp_sel, fig1_init(&sp_sel.program)).unwrap();
        let st_rep =
            validate_against_sequential(&sp_rep, fig1_init(&sp_rep.program)).unwrap();
        assert!(
            st_sel.messages < st_rep.messages,
            "selected {} vs replication {}",
            st_sel.messages,
            st_rep.messages
        );
        // Replication also executes far more statement instances.
        assert!(st_sel.stmt_execs < st_rep.stmt_execs);
    }

    #[test]
    fn dgefa_maxloc_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, CYCLIC) :: A
REAL A(8,8)
INTEGER j, k, l
REAL tmax
DO k = 1, 7
  tmax = 0.0
  l = k
  DO j = k, 8
    IF (ABS(A(j,k)) > tmax) THEN
      tmax = ABS(A(j,k))
      l = j
    END IF
  END DO
  A(k,8) = A(l,k)
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let a = sp.program.vars.lookup("a").unwrap();
        validate_against_sequential(&sp, |m| {
            let data: Vec<f64> = (0..64)
                .map(|i| ((i * 37 + 11) % 23) as f64 - 11.0)
                .collect();
            m.fill_real(a, &data);
        })
        .unwrap();
    }

    /// Figure 5 reduction: partial sums per processor column combined at
    /// loop exit.
    #[test]
    fn figure5_reduction_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ ALIGN B(i) WITH A(i,1)
!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: A
REAL A(8,8), B(8)
INTEGER i, j
REAL s
DO i = 1, 8
  s = 0.0
  DO j = 1, 8
    s = s + A(i,j)
  END DO
  B(i) = s
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let a = sp.program.vars.lookup("a").unwrap();
        let stats = validate_against_sequential(&sp, |m| {
            let data: Vec<f64> = (0..64).map(|i| (i % 7) as f64 * 0.5).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        assert!(stats.combines > 0, "combines happened");
    }

    /// Figure 6 partial privatization preserves semantics of the consumer
    /// array (rsd) while keeping c partially privatized.
    #[test]
    fn figure6_partial_privatization_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, *, BLOCK, BLOCK) :: RSD
REAL RSD(5,8,8,8), C(8,8,5)
INTEGER i, j, k
!HPF$ INDEPENDENT, NEW(c)
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      C(i,j,1) = RSD(1,i,j,k) + 1.0
    END DO
  END DO
  DO j = 3, 7
    DO i = 2, 7
      RSD(1,i,j,k) = C(i,j-1,1) * 2.0
    END DO
  END DO
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let c = sp.program.vars.lookup("c").unwrap();
        assert!(!sp.maps.of(c).private_dims().is_empty(), "c partially privatized");
        let rsd = sp.program.vars.lookup("rsd").unwrap();
        validate_against_sequential(&sp, |m| {
            let n = sp.program.vars.info(rsd).shape().unwrap().len() as usize;
            let data: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.125 + 0.5).collect();
            m.fill_real(rsd, &data);
        })
        .unwrap();
    }

    /// Figure 7 control flow: privatized IFs with GOTO preserve semantics.
    #[test]
    fn figure7_control_flow_semantics() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16), C(16)
INTEGER i
DO i = 1, 16
  IF (B(i) /= 0.0) THEN
    A(i) = A(i) / B(i)
    IF (B(i) < 0.0) GOTO 100
  ELSE
    A(i) = C(i)
    C(i) = C(i) * C(i)
  END IF
100 CONTINUE
END DO
"#;
        let sp = lowered(src, CoreConfig::full(), None);
        let b = sp.program.vars.lookup("b").unwrap();
        let c = sp.program.vars.lookup("c").unwrap();
        let a = sp.program.vars.lookup("a").unwrap();
        validate_against_sequential(&sp, |m| {
            let bd: Vec<f64> = (0..16)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => 2.0,
                    2 => -1.5,
                    _ => 0.5,
                })
                .collect();
            m.fill_real(b, &bd);
            m.fill_real(c, &(0..16).map(|i| i as f64 + 1.0).collect::<Vec<_>>());
            m.fill_real(a, &(0..16).map(|i| (i as f64) * 0.5).collect::<Vec<_>>());
        })
        .unwrap();
    }
}
