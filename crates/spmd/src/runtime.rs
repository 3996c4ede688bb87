//! Message-passing replay runtime over a pluggable transport.
//!
//! One worker per virtual processor — an OS thread over the in-process
//! [`hpf_net::channel`] backend, or a whole OS process over the
//! [`hpf_net::socket`] backend — communicating only through a
//! [`Transport`]. The runtime *replays* the communication schedule
//! recorded by one reference-executor run ([`Recorded`]): each worker owns
//! a private [`Memory`], evaluates its assignments purely locally — with the
//! sequential interpreter's evaluator ([`hpf_ir::interp::assign`]) over
//! that memory — and obtains every remote operand through an actual
//! message. The replay keeps no traffic counters of its own: a rank that
//! completes has sent and received exactly its event list (any missing,
//! misshapen or short message fails it), so its [`CommMetrics`] are the
//! fold of those events ([`CommMetrics::of_events`]) plus the transport's
//! measured in-flight peak, and its comm timeline records each event
//! through the executor's own mapping ([`crate::exec::comm_bodies`]),
//! stamped with the link's wire sequence number on sends.
//!
//! The replay revalidates the schedule end-to-end — if the compiler had
//! failed to move a value that a processor needs, the worker would compute
//! with stale local data and the final cross-check against the reference
//! memories would fail. It also serves as the repo's demonstration that
//! the lowered programs are real SPMD programs, not a bookkeeping fiction:
//! no worker ever touches another worker's memory.
//!
//! The per-rank engine is [`replay_rank`], generic over the transport; the
//! multi-process driver in `hpf-compile::netrun` runs the same function in
//! separate OS processes over socket links.

use crate::exec::{comm_bodies, fold_partial, Event, Recorded, Slot, Trace};
use crate::lower::SpmdProgram;
use crate::metrics::CommMetrics;
use hpf_ir::interp::{self, InterpError, Memory};
use hpf_ir::{Program, Stmt, Value, VarId};
use hpf_net::{channel_group, Transport, WireMsg};
use hpf_obs::BufTracer;
use parking_lot::Mutex;
use std::sync::Arc;

/// Statistics from a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Wire messages sent (a coalesced `SendVec` counts once).
    pub messages_sent: u64,
    pub events: u64,
}

/// Everything a replay produces.
#[derive(Debug)]
pub struct Replayed {
    pub mems: Vec<Memory>,
    pub stats: ReplayStats,
    /// Wire-level accounting, merged over workers. `max_in_flight` is the
    /// transport's gauge peak: sent-but-not-yet-received messages for the
    /// channel backend, receive-queue depth for the socket backend.
    pub metrics: CommMetrics,
    /// Merged per-rank observability timelines, when the replay was traced.
    pub obs: Option<hpf_obs::Trace>,
    /// `true` when the socket driver exhausted its recovery budget and
    /// gracefully degraded to the in-process thread backend; the threaded
    /// runtime itself never sets this.
    pub degraded: bool,
}

/// Replay one rank's recorded event list over a transport, mutating the
/// rank's (already initialised) memory in place. Returns this rank's
/// stats and, once the replay succeeded, its unmerged metrics
/// contribution — the fold of its events, with the transport's in-flight
/// peak — and tears the transport down. This is the engine of the threaded
/// replay below; the socket backend's workers run it epoch by epoch
/// ([`replay_rank_segment`]).
pub fn replay_rank<T: Transport>(
    sp: &SpmdProgram,
    events: &[Event],
    mem: &mut Memory,
    transport: &mut T,
) -> Result<(ReplayStats, CommMetrics), String> {
    replay_rank_traced(sp, events, mem, transport, None)
}

/// [`replay_rank`] with an optional observability timeline: every wire
/// message this rank sends or receives is recorded as a comm event (sends
/// tagged with the link's wire sequence number when the transport frames
/// its links), and any fault events the transport accumulated are drained
/// into the timeline — on errors too, so a trace survives a dead peer and
/// ends with the link's last acknowledged sequence number.
pub fn replay_rank_traced<T: Transport>(
    sp: &SpmdProgram,
    events: &[Event],
    mem: &mut Memory,
    transport: &mut T,
    mut obs: Option<&mut BufTracer>,
) -> Result<(ReplayStats, CommMetrics), String> {
    let pid = transport.rank();
    let mut stats = ReplayStats::default();
    let mut err =
        replay_rank_segment(sp, events, mem, transport, &mut stats, obs.as_deref_mut(), |_| {})
            .err();
    if err.is_none() {
        if let Err(e) = transport.finish() {
            err = Some(format!("proc {}: teardown: {}", pid, e));
        }
    }
    if let Some(o) = obs {
        o.absorb(transport.take_fault_events());
    }
    if let Some(e) = err {
        return Err(e);
    }
    let mut metrics = CommMetrics::of_events(sp, transport.nproc(), pid, events);
    metrics.saw_in_flight(transport.peak_in_flight());
    Ok((stats, metrics))
}

/// Replay a *segment* of a rank's event list — the epoch-sized unit of
/// [`Recorded::cuts`] — accumulating stats across
/// calls. Unlike [`replay_rank_traced`] this neither tears the transport
/// down nor books any traffic, so a supervised worker can run epoch after
/// epoch over one mesh (checkpointing between them) and finish only once.
/// `tick` runs after every replayed event; the fault plan's kill trigger
/// hangs off it.
///
/// Segments must start at epoch cuts: the worker's reduction stack is
/// empty there (a `RecvPartial` batch and its `Combine` always share an
/// epoch), so a fresh internal worker per segment is sound.
pub fn replay_rank_segment<T: Transport>(
    sp: &SpmdProgram,
    events: &[Event],
    mem: &mut Memory,
    transport: &mut T,
    stats: &mut ReplayStats,
    mut obs: Option<&mut BufTracer>,
    mut tick: impl FnMut(u64),
) -> Result<(), String> {
    let pid = transport.rank();
    let mut worker = RankWorker {
        program: &sp.program,
        mem,
        transport,
        stack: Vec::new(),
        last_vec: None,
        stats,
    };
    let mut err = None;
    for (i, ev) in events.iter().enumerate() {
        if let Err(e) = worker.step(ev) {
            err = Some(format!("proc {}: {}", pid, e));
            break;
        }
        if let Some(o) = obs.as_deref_mut() {
            let seq = ev.send_to().and_then(|to| worker.transport.link_seq(to));
            comm_bodies(sp, pid, ev, seq, |b| o.push(b));
        }
        tick(i as u64);
    }
    if let Some(o) = obs {
        o.absorb(transport.take_fault_events());
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Run the threaded replay of a recorded trace; returns the per-processor
/// memories, aggregate stats and communication metrics, and with
/// `want_obs` a merged observability trace of every rank's wire traffic.
pub fn replay(
    sp: &SpmdProgram,
    trace: &Trace,
    init: impl Fn(&mut Memory) + Sync,
    want_obs: bool,
) -> Result<Replayed, String> {
    let nproc = trace.len();
    let transports = channel_group(nproc);
    let program = &sp.program;
    let total: Mutex<(ReplayStats, CommMetrics)> =
        Mutex::new((ReplayStats::default(), CommMetrics::new(nproc, sp.comms.len())));
    let timelines: Mutex<Vec<(usize, Vec<hpf_obs::TraceEvent>)>> = Mutex::new(Vec::new());
    let results: Vec<Result<Memory, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nproc);
        for (pid, mut transport) in transports.into_iter().enumerate() {
            let events = &trace[pid];
            let init = &init;
            let total = &total;
            let timelines = &timelines;
            handles.push(scope.spawn(move || {
                let mut mem = Memory::zeroed(program);
                init(&mut mem);
                let mut obs = want_obs.then(|| BufTracer::for_rank(pid));
                let res =
                    replay_rank_traced(sp, events, &mut mem, &mut transport, obs.as_mut());
                if let Some(o) = obs {
                    timelines.lock().push((pid, o.into_events()));
                }
                let (s, m) = res?;
                let mut t = total.lock();
                t.0.messages_sent += s.messages_sent;
                t.0.events += s.events;
                t.1.merge(&m);
                Ok(mem)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let obs = want_obs.then(|| hpf_obs::Trace::from_ranks(timelines.into_inner()));
    let mut mems = Vec::with_capacity(nproc);
    for r in results {
        mems.push(r?);
    }
    let (stats, metrics) = total.into_inner();
    Ok(Replayed {
        mems,
        stats,
        metrics,
        obs,
        degraded: false,
    })
}

/// Memoised `SendVec` payload: (comm op, section slots, shared buffer).
type VecMemo<'a> = (usize, &'a [Slot], Arc<Vec<Value>>);

struct RankWorker<'a, T: Transport> {
    program: &'a Program,
    mem: &'a mut Memory,
    transport: &'a mut T,
    /// Stack of received reduction partials `(acc, loc)`.
    stack: Vec<(Value, Option<Value>)>,
    /// Memo of the last materialised `SendVec` payload, so a broadcast
    /// fan-out (the same op and section sent to several destinations)
    /// shares one reference-counted buffer instead of re-cloning the
    /// values per destination. Invalidated by any event that mutates
    /// local memory.
    last_vec: Option<VecMemo<'a>>,
    /// The caller's running totals.
    stats: &'a mut ReplayStats,
}

impl<'a, T: Transport> RankWorker<'a, T> {
    /// Send one wire message.
    fn send_msg(&mut self, to: usize, msg: &WireMsg) -> Result<(), String> {
        self.transport.send(to, msg).map_err(|e| e.to_string())?;
        self.stats.messages_sent += 1;
        Ok(())
    }

    fn recv_msg(&mut self, from: usize) -> Result<WireMsg, String> {
        self.transport.recv(from).map_err(|e| e.to_string())
    }

    fn recv_one(&mut self, from: usize) -> Result<Value, String> {
        match self.recv_msg(from)? {
            WireMsg::One(v) => Ok(v),
            WireMsg::Many(_) => Err("expected a single-value message, got a section".into()),
        }
    }

    fn step(&mut self, ev: &'a Event) -> Result<(), String> {
        self.stats.events += 1;
        match ev {
            Event::Send { to, slot, .. } => {
                let v = self.load(*slot);
                self.send_msg(*to, &WireMsg::One(v))
                    .map_err(|e| format!("element send to {}: {}", to, e))?;
            }
            Event::Recv { from, slot, .. } => {
                let v = self
                    .recv_one(*from)
                    .map_err(|e| format!("element recv from {}: {}", from, e))?;
                self.last_vec = None;
                self.store_slot(*slot, v).map_err(|e| e.to_string())?;
            }
            Event::SendVec { to, op, slots } => {
                let vals = match &self.last_vec {
                    Some((mop, mslots, buf)) if *mop == *op && *mslots == &slots[..] => {
                        buf.clone()
                    }
                    _ => {
                        let buf: Arc<Vec<Value>> =
                            Arc::new(slots.iter().map(|&s| self.load(s)).collect());
                        self.last_vec = Some((*op, slots, buf.clone()));
                        buf
                    }
                };
                self.send_msg(*to, &WireMsg::Many(vals))
                    .map_err(|e| format!("section send (op {}) to {}: {}", op, to, e))?;
            }
            Event::RecvVec { from, op, slots } => {
                let vals = match self
                    .recv_msg(*from)
                    .map_err(|e| format!("section recv (op {}) from {}: {}", op, from, e))?
                {
                    WireMsg::Many(v) => v,
                    WireMsg::One(_) => {
                        return Err("expected a coalesced section, got a single value".into())
                    }
                };
                if vals.len() != slots.len() {
                    return Err(format!(
                        "section length mismatch: got {}, expected {}",
                        vals.len(),
                        slots.len()
                    ));
                }
                self.last_vec = None;
                for (&s, &v) in slots.iter().zip(vals.iter()) {
                    self.store_slot(s, v).map_err(|e| e.to_string())?;
                }
            }
            Event::Exec { stmt, env } => {
                self.last_vec = None;
                self.bind(env);
                let Stmt::Assign { lhs, rhs } = self.program.stmt(*stmt) else {
                    return Err("Exec event on non-assignment".into());
                };
                interp::assign(self.program, lhs, rhs, self.mem).map_err(|e| e.to_string())?;
            }
            Event::CondExec { stmt, env } => {
                self.last_vec = None;
                self.bind(env);
                let Stmt::If {
                    cond, then_body, ..
                } = self.program.stmt(*stmt)
                else {
                    return Err("CondExec event on non-IF".into());
                };
                let c = interp::eval(self.program, cond, self.mem)
                    .and_then(|v| v.as_bool())
                    .map_err(|e| e.to_string())?;
                if c {
                    for &t in then_body {
                        if let Stmt::Assign { lhs, rhs } = self.program.stmt(t) {
                            interp::assign(self.program, lhs, rhs, self.mem)
                                .map_err(|e| e.to_string())?;
                        }
                    }
                }
            }
            Event::RecvPartial { from, has_loc, .. } => {
                let acc = self
                    .recv_one(*from)
                    .map_err(|e| format!("reduction partial from {}: {}", from, e))?;
                let loc = if *has_loc {
                    let l = self.recv_one(*from);
                    Some(l.map_err(|e| format!("reduction location from {}: {}", from, e))?)
                } else {
                    None
                };
                self.stack.push((acc, loc));
            }
            Event::Combine {
                op,
                acc,
                loc,
                count,
            } => {
                self.last_vec = None;
                // The batch's partials, folded in the order they arrived
                // (member order, as the executor folds them).
                let at = self
                    .stack
                    .len()
                    .checked_sub(*count)
                    .ok_or_else(|| "combine stack underflow".to_string())?;
                let mut best = (self.mem.scalar(*acc), loc.map(|lv| self.mem.scalar(lv)));
                for part in self.stack.drain(at..) {
                    fold_partial(*op, &mut best, part).map_err(|e| e.to_string())?;
                }
                self.mem.set_scalar(*acc, best.0);
                if let (Some(lv), Some(bl)) = (loc, best.1) {
                    self.mem.set_scalar(*lv, bl);
                }
            }
        }
        Ok(())
    }

    fn bind(&mut self, env: &[(VarId, i64)]) {
        for &(v, x) in env {
            self.mem.set_scalar(v, Value::Int(x));
        }
    }

    fn load(&self, slot: Slot) -> Value {
        match slot {
            Slot::Scalar(v) => self.mem.scalar(v),
            Slot::Elem(v, off) => self.mem.array(v).get(off),
        }
    }

    fn store_slot(&mut self, slot: Slot, val: Value) -> Result<(), InterpError> {
        match slot {
            Slot::Scalar(v) => {
                let ty = self.program.vars.info(v).ty;
                self.mem.set_scalar(v, val.coerce(ty)?);
            }
            Slot::Elem(v, off) => {
                self.mem.array_mut(v).set(off, val)?;
            }
        }
        Ok(())
    }
}

/// Compare the *authoritative* slots of replayed memories against the
/// reference executor's: every array element on its owner processor(s).
/// (Non-owned local copies legitimately differ: the replay stages received
/// values into them, while the reference executor reads owner memory
/// directly.) Shared by the threaded validation below and the socket
/// backend's multi-process validation.
pub fn check_owner_slots(
    sp: &SpmdProgram,
    mems: &[Memory],
    reference: &[Memory],
) -> Result<(), String> {
    let grid = &sp.maps.grid;
    for (v, info) in sp.program.vars.arrays() {
        let shape = info.shape().unwrap();
        let mapping = sp.maps.of(v);
        for off in 0..shape.len() as usize {
            let idx = shape.delinearize(off);
            let own = mapping.owner_on(grid, &idx);
            for pid in own.pids(grid) {
                if mems[pid].array(v).get(off) != reference[pid].array(v).get(off) {
                    return Err(format!(
                        "proc {} array {} diverged from reference at {:?}",
                        pid, info.name, idx
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Record a trace with the reference executor, replay it on threads, and
/// check that every processor's memory matches the reference. Returns the
/// replay result (memories, stats, metrics).
pub fn validate_replay(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory) + Sync,
) -> Result<Replayed, String> {
    validate_replay_traced(sp, init, true, false)
}

/// [`validate_replay`] with explicit control over message vectorization in
/// the recording executor (see [`Recorded::run`]) and an optional merged
/// observability trace of the threaded replay (`want_obs = true` fills
/// [`Replayed::obs`]).
pub fn validate_replay_traced(
    sp: &SpmdProgram,
    init: impl Fn(&mut Memory) + Sync,
    vectorize: bool,
    want_obs: bool,
) -> Result<Replayed, String> {
    let rec = Recorded::run(sp, &init, vectorize)
        .map_err(|e| format!("reference run failed: {}", e))?;
    replay_recorded(sp, &rec, init, want_obs)
}

/// Replay a recorded run on threads, every rank starting from `init` (the
/// memory the record was made from), and check that every processor's
/// owner slots match the record's memories.
pub fn replay_recorded(
    sp: &SpmdProgram,
    rec: &Recorded,
    init: impl Fn(&mut Memory) + Sync,
    want_obs: bool,
) -> Result<Replayed, String> {
    let replayed = replay(sp, &rec.trace, init, want_obs)?;
    check_owner_slots(sp, &replayed.mems, &rec.mems)
        .map_err(|e| format!("threads vs reference: {}", e))?;
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_ir::parse_program;
    use phpf_core::CoreConfig;

    fn lowered(src: &str, cfg: CoreConfig) -> SpmdProgram {
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, cfg);
        crate::lower::lower(&p, &a, &maps, d)
    }

    #[test]
    fn threaded_replay_matches_reference_stencil() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(32), B(32)
INTEGER i, t
DO t = 1, 3
  DO i = 2, 31
    B(i) = (A(i-1) + A(i+1)) * 0.5
  END DO
  DO i = 2, 31
    A(i) = B(i)
  END DO
END DO
"#;
        let sp = lowered(src, CoreConfig::full());
        let a = sp.program.vars.lookup("a").unwrap();
        let r = validate_replay(&sp, move |m| {
            let data: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        // Boundary exchanges really happened over channels.
        assert!(r.stats.messages_sent > 0);
        assert!(r.stats.events > 0);
        assert_eq!(r.metrics.messages(), r.stats.messages_sent);
        assert!(r.metrics.max_in_flight >= 1);
    }

    #[test]
    fn threaded_replay_with_reduction() {
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
        let sp = lowered(src, CoreConfig::full());
        let a = sp.program.vars.lookup("a").unwrap();
        let r = validate_replay(&sp, move |m| {
            let data: Vec<f64> = (0..64).map(|i| (i % 9) as f64).collect();
            m.fill_real(a, &data);
        })
        .unwrap();
        assert!(r.stats.messages_sent > 0);
    }

    #[test]
    fn threaded_replay_figure1() {
        let src = r#"
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
        let sp = lowered(src, CoreConfig::full());
        let names: Vec<hpf_ir::VarId> = ["a", "b", "c", "e", "f"]
            .iter()
            .map(|n| sp.program.vars.lookup(n).unwrap())
            .collect();
        let r = validate_replay(&sp, move |m| {
            for &v in &names {
                let data: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 * 0.125).collect();
                m.fill_real(v, &data);
            }
        })
        .unwrap();
        assert!(r.stats.events > 0);
    }
}
