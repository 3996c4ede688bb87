//! Multi-process orchestration for the socket backend.
//!
//! `phpfc --backend socket` (and the differential tests) validate a
//! replay where every virtual processor is a real OS process exchanging
//! frames over [`hpf_net::socket`] links. There is one driver, a
//! supervised generation loop:
//!
//! * the *parent* ([`socket_validate_replay`]) compiles the program, runs
//!   the reference executor for the authoritative memories, then runs
//!   *generations*: it spawns one `networker` process per rank, plays
//!   rendezvous server (each worker registers `(rank, data address)` over
//!   a framed control connection and gets back the job spec plus the
//!   full address map), and steps the cohort through the executor's
//!   epochs in lock step. After every epoch each rank reports a status
//!   carrying its checkpoint — cumulative stats, traffic counters and
//!   memory — and waits for `Proceed`; once all ranks report, the parent
//!   commits that cut. A generation ends with one result per rank, or is
//!   torn down on the first failure and respawned from the last committed
//!   cut. When the respawn budget runs dry the run degrades to the
//!   in-process thread backend.
//! * each *worker* ([`worker_main`], the `networker` binary) heartbeats on
//!   its control link, recompiles the same source deterministically,
//!   records the same trace with the reference executor, meshes with its
//!   peers via [`SocketTransport::connect_mesh`], and replays its rank's
//!   events epoch by epoch with [`hpf_spmd::replay_rank_segment`] — the
//!   exact engine the threaded backend uses, just over sockets;
//! * the parent merges the per-rank [`CommMetrics`] and checks every
//!   owner slot bit-for-bit against the reference memories
//!   ([`hpf_spmd::check_owner_slots`]).
//!
//! Every blocking step carries a deadline (rendezvous accepts, job
//! dispatch, heartbeats, child reaping), so a worker that dies or wedges
//! is detected with its rank attached, never a hang.

use crate::{compile_source, Compiled, Options, Version};
use hpf_ir::interp::Memory;
use hpf_ir::{Program, ScalarTy};
use hpf_net::frame::{Dec, Enc, FrameKind, FrameReader, FrameWriter, ReadStep};
use hpf_net::socket::{
    connect_backoff, Addr, AddrKind, NetListener, NetStream, SocketConfig, SocketTransport,
};
use hpf_net::{FaultInjector, NetError, RetryPolicy, Transport};
use hpf_obs::{Body, BufTracer, CommKind, TraceEvent, Tracer};
use hpf_spmd::metrics::{self, CommMetrics, RecoveryCounters};
use hpf_spmd::{
    check_owner_slots, replay_rank_segment, validate_replay_traced, ReplayStats, Replayed, SpmdExec,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

pub use hpf_net::FaultPlan;

/// Environment variable naming the parent's rendezvous address for a
/// spawned worker.
pub const ENV_PARENT: &str = "PHPF_NETRUN_PARENT";
/// Environment variable carrying a worker's rank.
pub const ENV_RANK: &str = "PHPF_NETRUN_RANK";
/// Optional override for the worker binary path.
pub const ENV_WORKER_BIN: &str = "PHPF_NET_WORKER";

/// Everything a worker needs to reproduce the parent's compilation and
/// replay deterministically. Workers recompute the program, trace and
/// initial memories from this spec instead of shipping compiled state.
#[derive(Debug, Clone, PartialEq)]
pub struct NetJob {
    pub source: String,
    pub version: Version,
    pub grid: Option<Vec<usize>>,
    pub combine: bool,
    pub auto_priv: bool,
    /// Record a vectorized (coalesced) trace; `false` replays the
    /// per-element schedule.
    pub vectorize: bool,
    /// Record observability timelines: pipeline phase spans on the parent
    /// and per-rank comm/fault events on the workers, merged into
    /// [`Replayed::obs`].
    pub trace: bool,
    /// Initial contents of REAL arrays, by variable name.
    pub fills: Vec<(String, Vec<f64>)>,
}

impl NetJob {
    pub fn new(source: impl Into<String>) -> NetJob {
        NetJob {
            source: source.into(),
            version: Version::SelectedAlignment,
            grid: None,
            combine: false,
            auto_priv: false,
            vectorize: true,
            trace: false,
            fills: Vec::new(),
        }
    }

    pub fn options(&self) -> Options {
        let mut opts = Options::new(self.version);
        if let Some(g) = &self.grid {
            opts = opts.with_grid(g.clone());
        }
        if self.combine {
            opts = opts.with_message_combining();
        }
        if self.auto_priv {
            opts.core.auto_array_priv = true;
        }
        opts
    }

    pub fn compile(&self) -> Result<Compiled, String> {
        compile_source(&self.source, self.options())
    }

    /// Compile with pipeline phase spans recorded on `tracer`.
    pub fn compile_traced(&self, tracer: &mut dyn Tracer) -> Result<Compiled, String> {
        crate::compile_source_traced(&self.source, self.options(), tracer)
    }

    /// Fill every REAL array with the deterministic default pattern
    /// (`1.0 + k * 0.25`) used by `phpfc --observe`.
    pub fn with_default_fills(mut self) -> Result<NetJob, String> {
        let compiled = self.compile()?;
        self.fills = compiled
            .spmd
            .program
            .vars
            .arrays()
            .filter(|(_, info)| info.ty == ScalarTy::Real)
            .map(|(_, info)| {
                let n = info.shape().unwrap().len() as usize;
                (
                    info.name.clone(),
                    (0..n).map(|k| 1.0 + k as f64 * 0.25).collect(),
                )
            })
            .collect();
        Ok(self)
    }
}

/// Deadlines, address family and recovery knobs for a multi-process run.
#[derive(Debug, Clone)]
pub struct NetRunConfig {
    pub addr_kind: AddrKind,
    /// Per-link send/recv deadline inside the mesh.
    pub io_deadline: Duration,
    /// Mesh establishment and rendezvous deadline.
    pub connect_deadline: Duration,
    /// How long the parent waits for the workers of a finished generation
    /// to exit, and for a worker's registration frame.
    pub result_deadline: Duration,
    /// Link retransmission budget (NACK-driven resends per link). `0`
    /// derives a default: 3 when a fault plan is active, else off.
    pub retries: u32,
    /// Deterministic fault plan (corrupt/drop/kill actions) injected into
    /// the workers.
    pub fault_plan: Option<FaultPlan>,
    /// How many failed generations the supervisor may respawn before it
    /// degrades to the in-process thread backend. `None` derives the
    /// budget from the effective retry count.
    pub respawn_budget: Option<u32>,
}

impl Default for NetRunConfig {
    fn default() -> Self {
        NetRunConfig {
            addr_kind: AddrKind::default(),
            io_deadline: Duration::from_secs(5),
            connect_deadline: Duration::from_secs(10),
            result_deadline: Duration::from_secs(60),
            retries: 0,
            fault_plan: None,
            respawn_budget: None,
        }
    }
}

/// How often each worker's heartbeat thread beats on its control link.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);
/// Parent-side silence budget per worker before it is declared dead.
const HEARTBEAT_DEADLINE: Duration = Duration::from_secs(5);

impl NetRunConfig {
    fn plan(&self) -> FaultPlan {
        self.fault_plan.clone().unwrap_or_default()
    }

    /// Link retransmission budget actually shipped to the workers: an
    /// explicit `retries`, or 3 when a fault plan is active, else 0.
    pub fn effective_retries(&self) -> u32 {
        if self.retries > 0 {
            self.retries
        } else if !self.plan().is_empty() {
            3
        } else {
            0
        }
    }
}

const NO_RANK: u32 = u32::MAX;

/// The job blob for one rank. Besides the job and the mesh it carries the
/// (resolved, possibly respawn-pruned) fault plan and — for a respawned
/// generation — how many epochs are already committed plus this rank's
/// encoded checkpoint at that cut.
fn encode_job(
    job: &NetJob,
    cfg: &NetRunConfig,
    addrs: &[Addr],
    plan: &FaultPlan,
    resume: Option<(u32, &[u8])>,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&job.source);
    e.str(job.version.flag());
    match &job.grid {
        Some(g) => {
            e.u8(1);
            e.u32(g.len() as u32);
            for &d in g {
                e.u32(d as u32);
            }
        }
        None => e.u8(0),
    }
    e.boolean(job.combine);
    e.boolean(job.auto_priv);
    e.boolean(job.vectorize);
    e.boolean(job.trace);
    e.u32(job.fills.len() as u32);
    for (name, data) in &job.fills {
        e.str(name);
        e.u32(data.len() as u32);
        for &x in data {
            e.f64(x);
        }
    }
    e.u64(cfg.io_deadline.as_millis() as u64);
    e.u64(cfg.connect_deadline.as_millis() as u64);
    e.u32(addrs.len() as u32);
    for a in addrs {
        e.str(&a.to_string());
    }
    e.str(&plan.to_string());
    e.u32(cfg.effective_retries());
    match resume {
        Some((epochs, blob)) => {
            e.u8(1);
            e.u32(epochs);
            e.bytes(blob);
        }
        None => e.u8(0),
    }
    e.buf
}

struct WireJob {
    job: NetJob,
    io_deadline: Duration,
    connect_deadline: Duration,
    /// Every rank's mesh address, indexed by rank.
    addrs: Vec<Addr>,
    plan: FaultPlan,
    retries: u32,
    /// Respawn resume state: committed epoch count + this rank's
    /// encoded checkpoint.
    resume: Option<(u32, Vec<u8>)>,
}

fn decode_job(payload: &[u8]) -> Result<WireJob, String> {
    let mut d = Dec::new(payload);
    let source = d.str().map_err(|e| e.to_string())?;
    let flag = d.str().map_err(|e| e.to_string())?;
    let version =
        Version::from_flag(&flag).ok_or_else(|| format!("unknown version flag {:?}", flag))?;
    let grid = match d.u8().map_err(|e| e.to_string())? {
        0 => None,
        _ => {
            let n = d.u32().map_err(|e| e.to_string())? as usize;
            let mut g = Vec::with_capacity(n);
            for _ in 0..n {
                g.push(d.u32().map_err(|e| e.to_string())? as usize);
            }
            Some(g)
        }
    };
    let combine = d.boolean().map_err(|e| e.to_string())?;
    let auto_priv = d.boolean().map_err(|e| e.to_string())?;
    let vectorize = d.boolean().map_err(|e| e.to_string())?;
    let trace = d.boolean().map_err(|e| e.to_string())?;
    let nfills = d.u32().map_err(|e| e.to_string())? as usize;
    let mut fills = Vec::with_capacity(nfills);
    for _ in 0..nfills {
        let name = d.str().map_err(|e| e.to_string())?;
        let n = d.u32().map_err(|e| e.to_string())? as usize;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(d.f64().map_err(|e| e.to_string())?);
        }
        fills.push((name, data));
    }
    let io_deadline = Duration::from_millis(d.u64().map_err(|e| e.to_string())?);
    let connect_deadline = Duration::from_millis(d.u64().map_err(|e| e.to_string())?);
    let naddrs = d.u32().map_err(|e| e.to_string())? as usize;
    let mut addrs = Vec::with_capacity(naddrs);
    for _ in 0..naddrs {
        let s = d.str().map_err(|e| e.to_string())?;
        addrs.push(Addr::parse(&s).map_err(|e| e.to_string())?);
    }
    let plan = FaultPlan::parse(&d.str().map_err(|e| e.to_string())?)?;
    let retries = d.u32().map_err(|e| e.to_string())?;
    let resume = match d.u8().map_err(|e| e.to_string())? {
        0 => None,
        _ => {
            let epochs = d.u32().map_err(|e| e.to_string())?;
            let blob = d.bytes().map_err(|e| e.to_string())?;
            Some((epochs, blob))
        }
    };
    d.done().map_err(|e| e.to_string())?;
    Ok(WireJob {
        job: NetJob {
            source,
            version,
            grid,
            combine,
            auto_priv,
            vectorize,
            trace,
            fills,
        },
        io_deadline,
        connect_deadline,
        addrs,
        plan,
        retries,
        resume,
    })
}

/// The executor, the threaded runtime and the socket workers all key
/// pattern counters by `&'static str`; worker results arrive as owned
/// strings and must map back onto the same statics.
fn intern_pattern(name: &str) -> Option<&'static str> {
    [
        "local",
        "shift",
        "broadcast",
        "transpose",
        "point-to-point",
        metrics::REDUCE,
        metrics::UNTRACKED,
        metrics::ELEMENT,
        metrics::CONTROL,
    ]
    .into_iter()
    .find(|&k| k == name)
}

fn encode_metrics(e: &mut Enc, m: &CommMetrics) {
    e.u32(m.per_proc.len() as u32);
    for p in &m.per_proc {
        e.u64(p.sent_messages);
        e.u64(p.sent_bytes);
        e.u64(p.recv_messages);
        e.u64(p.recv_bytes);
    }
    e.u32(m.per_pattern.len() as u32);
    for (k, c) in &m.per_pattern {
        e.str(k);
        e.u64(c.messages);
        e.u64(c.bytes);
    }
    e.u32(m.per_op.len() as u32);
    for o in &m.per_op {
        e.u64(o.messages);
        e.u64(o.bytes);
        e.u64(o.elements);
    }
    e.u64(m.untracked_messages);
    e.u64(m.max_in_flight);
    e.u64(m.recovery.retransmits);
    e.u64(m.recovery.heartbeat_misses);
    e.u64(m.recovery.respawns);
    e.u64(m.recovery.fallbacks);
}

fn decode_metrics(d: &mut Dec) -> Result<CommMetrics, String> {
    let nproc = d.u32().map_err(|e| e.to_string())? as usize;
    let nops_placeholder = 0;
    let mut m = CommMetrics::new(nproc, nops_placeholder);
    for p in m.per_proc.iter_mut() {
        p.sent_messages = d.u64().map_err(|e| e.to_string())?;
        p.sent_bytes = d.u64().map_err(|e| e.to_string())?;
        p.recv_messages = d.u64().map_err(|e| e.to_string())?;
        p.recv_bytes = d.u64().map_err(|e| e.to_string())?;
    }
    let npat = d.u32().map_err(|e| e.to_string())? as usize;
    for _ in 0..npat {
        let name = d.str().map_err(|e| e.to_string())?;
        let key = intern_pattern(&name)
            .ok_or_else(|| format!("unknown communication pattern {:?} in result", name))?;
        let c = m.per_pattern.entry(key).or_default();
        c.messages = d.u64().map_err(|e| e.to_string())?;
        c.bytes = d.u64().map_err(|e| e.to_string())?;
    }
    let nops = d.u32().map_err(|e| e.to_string())? as usize;
    m.per_op = Vec::with_capacity(nops);
    for _ in 0..nops {
        m.per_op.push(metrics::OpMetrics {
            messages: d.u64().map_err(|e| e.to_string())?,
            bytes: d.u64().map_err(|e| e.to_string())?,
            elements: d.u64().map_err(|e| e.to_string())?,
        });
    }
    m.untracked_messages = d.u64().map_err(|e| e.to_string())?;
    m.max_in_flight = d.u64().map_err(|e| e.to_string())?;
    m.recovery.retransmits = d.u64().map_err(|e| e.to_string())?;
    m.recovery.heartbeat_misses = d.u64().map_err(|e| e.to_string())?;
    m.recovery.respawns = d.u64().map_err(|e| e.to_string())?;
    m.recovery.fallbacks = d.u64().map_err(|e| e.to_string())?;
    Ok(m)
}

fn comm_kind_code(k: CommKind) -> u8 {
    match k {
        CommKind::Send => 0,
        CommKind::Recv => 1,
        CommKind::SendVec => 2,
        CommKind::RecvVec => 3,
        CommKind::Reduce => 4,
        CommKind::Broadcast => 5,
    }
}

fn comm_kind_from(code: u8) -> Result<CommKind, String> {
    Ok(match code {
        0 => CommKind::Send,
        1 => CommKind::Recv,
        2 => CommKind::SendVec,
        3 => CommKind::RecvVec,
        4 => CommKind::Reduce,
        5 => CommKind::Broadcast,
        _ => return Err(format!("unknown comm kind code {}", code)),
    })
}

fn enc_opt_u64(e: &mut Enc, v: Option<u64>) {
    match v {
        Some(x) => {
            e.u8(1);
            e.u64(x);
        }
        None => e.u8(0),
    }
}

fn dec_opt_u64(d: &mut Dec) -> Result<Option<u64>, String> {
    match d.u8().map_err(|e| e.to_string())? {
        0 => Ok(None),
        _ => Ok(Some(d.u64().map_err(|e| e.to_string())?)),
    }
}

/// Serialise one rank's observability timeline for the result blob.
fn encode_obs_events(e: &mut Enc, events: &[TraceEvent]) {
    e.u32(events.len() as u32);
    for ev in events {
        e.u64(ev.t_us);
        e.u32(ev.rank.map(|r| r as u32).unwrap_or(NO_RANK));
        match &ev.body {
            Body::Begin { name } => {
                e.u8(0);
                e.str(name);
            }
            Body::End { name } => {
                e.u8(1);
                e.str(name);
            }
            Body::Comm {
                kind,
                from,
                to,
                op,
                pattern,
                level,
                stmt_level,
                place,
                elems,
                seq,
            } => {
                e.u8(2);
                e.u8(comm_kind_code(*kind));
                e.u32(*from as u32);
                e.u32(*to as u32);
                e.u32(op.map(|i| i as u32).unwrap_or(NO_RANK));
                e.str(pattern);
                e.u32(*level as u32);
                e.u32(*stmt_level as u32);
                e.str(place);
                e.u64(*elems);
                enc_opt_u64(e, *seq);
            }
            Body::Fault {
                name,
                detail,
                peer,
                last_seq,
            } => {
                e.u8(3);
                e.str(name);
                e.str(detail);
                e.u32(peer.map(|p| p as u32).unwrap_or(NO_RANK));
                enc_opt_u64(e, *last_seq);
            }
        }
    }
}

fn decode_obs_events(d: &mut Dec) -> Result<Vec<TraceEvent>, String> {
    let n = d.u32().map_err(|e| e.to_string())? as usize;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let t_us = d.u64().map_err(|e| e.to_string())?;
        let rank = match d.u32().map_err(|e| e.to_string())? {
            NO_RANK => None,
            r => Some(r as usize),
        };
        let body = match d.u8().map_err(|e| e.to_string())? {
            0 => Body::Begin {
                name: d.str().map_err(|e| e.to_string())?,
            },
            1 => Body::End {
                name: d.str().map_err(|e| e.to_string())?,
            },
            2 => Body::Comm {
                kind: comm_kind_from(d.u8().map_err(|e| e.to_string())?)?,
                from: d.u32().map_err(|e| e.to_string())? as usize,
                to: d.u32().map_err(|e| e.to_string())? as usize,
                op: match d.u32().map_err(|e| e.to_string())? {
                    NO_RANK => None,
                    i => Some(i as usize),
                },
                pattern: d.str().map_err(|e| e.to_string())?,
                level: d.u32().map_err(|e| e.to_string())? as usize,
                stmt_level: d.u32().map_err(|e| e.to_string())? as usize,
                place: d.str().map_err(|e| e.to_string())?,
                elems: d.u64().map_err(|e| e.to_string())?,
                seq: dec_opt_u64(d)?,
            },
            3 => Body::Fault {
                name: d.str().map_err(|e| e.to_string())?,
                detail: d.str().map_err(|e| e.to_string())?,
                peer: match d.u32().map_err(|e| e.to_string())? {
                    NO_RANK => None,
                    p => Some(p as usize),
                },
                last_seq: dec_opt_u64(d)?,
            },
            t => return Err(format!("unknown trace event tag {}", t)),
        };
        events.push(TraceEvent { t_us, rank, body });
    }
    Ok(events)
}

/// Serialise one rank's entire memory: variables in declaration order,
/// arrays as `len` tagged values, scalars tagged with a sentinel length.
fn encode_memory(e: &mut Enc, program: &Program, mem: &Memory) {
    const SCALAR: u32 = u32::MAX;
    e.u32(program.vars.len() as u32);
    for (v, info) in program.vars.iter() {
        match info.shape() {
            Some(sh) => {
                let n = sh.len() as usize;
                e.u32(n as u32);
                for off in 0..n {
                    e.value(mem.array(v).get(off));
                }
            }
            None => {
                e.u32(SCALAR);
                e.value(mem.scalar(v));
            }
        }
    }
}

fn decode_memory(d: &mut Dec, program: &Program) -> Result<Memory, String> {
    const SCALAR: u32 = u32::MAX;
    let mut mem = Memory::zeroed(program);
    let n = d.u32().map_err(|e| e.to_string())? as usize;
    if n != program.vars.len() {
        return Err(format!(
            "memory dump has {} variables, program has {}",
            n,
            program.vars.len()
        ));
    }
    for (v, info) in program.vars.iter() {
        let tag = d.u32().map_err(|e| e.to_string())?;
        match info.shape() {
            Some(sh) if tag != SCALAR => {
                let len = sh.len() as usize;
                if tag as usize != len {
                    return Err(format!(
                        "array {} dump has {} elements, shape says {}",
                        info.name, tag, len
                    ));
                }
                for off in 0..len {
                    let val = d.value().map_err(|e| e.to_string())?;
                    mem.array_mut(v)
                        .set(off, val)
                        .map_err(|e| format!("array {}: {:?}", info.name, e))?;
                }
            }
            None if tag == SCALAR => {
                mem.set_scalar(v, d.value().map_err(|e| e.to_string())?);
            }
            _ => {
                return Err(format!(
                    "variable {} kind mismatch in memory dump",
                    info.name
                ))
            }
        }
    }
    Ok(mem)
}

/// A rank's state at an epoch cut or at the end of its replay: cumulative
/// stats, traffic counters and memory. Epoch statuses, the respawn resume
/// blob and final results all carry one, so a respawned rank resumes its
/// traffic accounting together with its memory.
type Checkpoint = (ReplayStats, CommMetrics, Memory);
type RankResult = Result<Checkpoint, String>;

fn encode_checkpoint(
    e: &mut Enc,
    program: &Program,
    stats: &ReplayStats,
    m: &CommMetrics,
    mem: &Memory,
) {
    e.u64(stats.messages_sent);
    e.u64(stats.events);
    encode_metrics(e, m);
    encode_memory(e, program, mem);
}

fn decode_checkpoint(d: &mut Dec, program: &Program) -> Result<Checkpoint, String> {
    let stats = ReplayStats {
        messages_sent: d.u64().map_err(|e| e.to_string())?,
        events: d.u64().map_err(|e| e.to_string())?,
    };
    let m = decode_metrics(d)?;
    let mem = decode_memory(d, program)?;
    Ok((stats, m, mem))
}

/// A checkpoint behind a `1` tag, or a replay error behind a `0`.
fn encode_rank_result(
    e: &mut Enc,
    program: &Program,
    res: Result<(&ReplayStats, &CommMetrics, &Memory), &str>,
) {
    match res {
        Ok((stats, m, mem)) => {
            e.u8(1);
            encode_checkpoint(e, program, stats, m, mem);
        }
        Err(msg) => {
            e.u8(0);
            e.str(msg);
        }
    }
}

fn decode_rank_result(d: &mut Dec, program: &Program) -> Result<RankResult, String> {
    match d.u8().map_err(|e| e.to_string())? {
        0 => Ok(Err(d.str().map_err(|e| e.to_string())?)),
        _ => Ok(Ok(decode_checkpoint(d, program)?)),
    }
}

/// A worker's final report, behind its control tag: its result plus its
/// observability timeline. The timeline rides along on errors too: a
/// failed replay still ships its comm events and the transport's fault
/// events. The control reader strips the tag before [`decode_result`].
fn encode_result(res: &RankResult, obs: &[TraceEvent], program: &Program) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(TAG_RESULT);
    encode_rank_result(
        &mut e,
        program,
        res.as_ref().map(|(s, m, mem)| (s, m, mem)).map_err(String::as_str),
    );
    encode_obs_events(&mut e, obs);
    e.buf
}

fn decode_result(
    payload: &[u8],
    program: &Program,
) -> Result<(RankResult, Vec<TraceEvent>), String> {
    let mut d = Dec::new(payload);
    let res = decode_rank_result(&mut d, program)?;
    let obs = decode_obs_events(&mut d)?;
    d.done().map_err(|e| e.to_string())?;
    Ok((res, obs))
}

fn make_init<'a>(
    compiled: &Compiled,
    fills: &'a [(String, Vec<f64>)],
) -> Result<impl Fn(&mut Memory) + Sync + 'a, String> {
    let mut resolved = Vec::with_capacity(fills.len());
    for (name, data) in fills {
        let v = compiled
            .spmd
            .program
            .vars
            .lookup(name)
            .ok_or_else(|| format!("fill names unknown variable {:?}", name))?;
        resolved.push((v, data));
    }
    Ok(move |m: &mut Memory| {
        for &(v, data) in &resolved {
            m.fill_real(v, data);
        }
    })
}

/// Locate (building on demand) the `networker` binary. `cargo test` at
/// the workspace root compiles only library targets, so the worker may
/// not exist yet; in that case it is built with a nested cargo call.
pub fn worker_bin() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var(ENV_WORKER_BIN) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("{} points at missing {}", ENV_WORKER_BIN, p.display()));
    }
    let mut candidates = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join("networker"));
            if let Some(up) = dir.parent() {
                candidates.push(up.join("networker"));
            }
        }
    }
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    candidates.push(workspace.join("target").join(profile).join("networker"));
    for c in &candidates {
        if c.is_file() {
            return Ok(c.clone());
        }
    }
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "-p", "hpf-compile", "--bin", "networker"]);
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    cmd.current_dir(&workspace);
    let status = cmd
        .status()
        .map_err(|e| format!("building networker: {}", e))?;
    if !status.success() {
        return Err(format!("building networker failed: {}", status));
    }
    for c in &candidates {
        if c.is_file() {
            return Ok(c.clone());
        }
    }
    Err("networker binary not found after building it".into())
}

/// Wait for every child to exit, escalating to SIGKILL after a grace
/// period so a wedged worker cannot wedge the parent.
fn reap(children: &mut [(usize, Child)], grace: Duration) -> Vec<String> {
    let start = Instant::now();
    let mut errors = Vec::new();
    let mut pending: Vec<bool> = vec![true; children.len()];
    loop {
        let mut alive = 0;
        for (i, (rank, child)) in children.iter_mut().enumerate() {
            if !pending[i] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    pending[i] = false;
                    if !status.success() {
                        errors.push(format!("worker {} exited with {}", rank, status));
                    }
                }
                Ok(None) => alive += 1,
                Err(e) => {
                    pending[i] = false;
                    errors.push(format!("worker {}: wait failed: {}", rank, e));
                }
            }
        }
        if alive == 0 {
            return errors;
        }
        if start.elapsed() >= grace {
            for (i, (rank, child)) in children.iter_mut().enumerate() {
                if pending[i] {
                    let _ = child.kill();
                    let _ = child.wait();
                    errors.push(format!("worker {} killed after {:?} grace", rank, grace));
                }
            }
            return errors;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct Conn {
    reader: FrameReader<hpf_net::socket::NetStream>,
    writer: FrameWriter<hpf_net::socket::NetStream>,
}

fn read_blob(reader: &mut FrameReader<hpf_net::socket::NetStream>, what: &str) -> Result<Vec<u8>, String> {
    match reader.read_step() {
        Ok(ReadStep::Frame((FrameKind::Blob, payload))) => Ok(payload),
        Ok(ReadStep::Frame((kind, _))) => {
            Err(format!("{}: expected a Blob frame, got {:?}", what, kind))
        }
        Ok(ReadStep::Eof) => Err(format!("{}: connection closed", what)),
        Ok(ReadStep::Idle) => Err(format!("{}: no frame within the deadline", what)),
        Err(e) => Err(format!("{}: {}", what, e)),
    }
}

/// Spawn one `networker` child per rank, pointed at the parent's
/// rendezvous address.
fn spawn_workers(
    bin: &PathBuf,
    parent_addr: &Addr,
    nproc: usize,
) -> Result<Vec<(usize, Child)>, String> {
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(nproc);
    for rank in 0..nproc {
        let child = Command::new(bin)
            .env(ENV_PARENT, parent_addr.to_string())
            .env(ENV_RANK, rank.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning worker {}: {}", rank, e))?;
        children.push((rank, child));
    }
    Ok(children)
}

/// Run the job's replay with one OS process per virtual processor and
/// validate it exactly like the threaded `validate_replay`: owner slots
/// bit-for-bit against the reference executor, metrics merged over ranks.
///
/// The replay runs as a sequence of generations ([`run_generation`]):
/// injected link faults heal via retransmission, dead workers are
/// respawned from the last committed epoch checkpoint, and when the
/// respawn budget is exhausted the whole run degrades to the in-process
/// thread backend ([`Replayed::degraded`]).
pub fn socket_validate_replay(job: &NetJob, cfg: &NetRunConfig) -> Result<Replayed, String> {
    // Pipeline spans land on the parent's timeline; workers only
    // contribute per-rank comm/fault events.
    let trace = job.trace;
    let mut pipe = hpf_obs::BufTracer::pipeline();
    let compiled = if trace {
        job.compile_traced(&mut pipe)?
    } else {
        job.compile()?
    };
    let nproc = compiled.spmd.maps.grid.total();
    let init = make_init(&compiled, &job.fills)?;
    if trace {
        pipe.begin("reference-exec");
    }
    let mut exec = SpmdExec::new(&compiled.spmd, &init).with_trace();
    if !job.vectorize {
        exec = exec.without_vectorization();
    }
    exec.run()
        .map_err(|e| format!("reference run failed: {:?}", e))?;
    if trace {
        pipe.end("reference-exec");
        pipe.begin("replay");
    }

    let mut recovery = RecoveryCounters::default();
    let mut salvaged: Vec<Vec<TraceEvent>> = vec![Vec::new(); nproc];
    let listener = NetListener::bind(cfg.addr_kind, "netrun").map_err(|e| e.to_string())?;
    let mut plan = cfg.plan().resolve(nproc);
    let budget = cfg
        .respawn_budget
        .unwrap_or_else(|| cfg.effective_retries().max(1));
    let respawn_retry = RetryPolicy::default();
    let mut committed = Committed {
        epoch: 0,
        ranks: Vec::new(),
    };
    let mut attempts: u32 = 0;

    let results = loop {
        let outcome = run_generation(
            job,
            cfg,
            &compiled,
            nproc,
            &listener,
            &plan,
            &mut committed,
            &mut pipe,
            &mut recovery,
            &mut salvaged,
        )?;
        let dead = match outcome {
            GenOutcome::Finished(results) => break results,
            GenOutcome::Failed { dead } => dead,
        };
        attempts += 1;
        if attempts > budget {
            let who = dead
                .iter()
                .map(|(r, why)| match r {
                    Some(r) => format!("rank {}: {}", r, why),
                    None => why.clone(),
                })
                .collect::<Vec<_>>()
                .join("; ");
            let reason = format!(
                "respawn budget ({}) exhausted; last generation failed with: {}",
                budget, who
            );
            return degrade_to_threads(&reason, job, &compiled, &init, recovery, pipe);
        }
        recovery.respawns += dead.iter().filter(|(r, _)| r.is_some()).count().max(1) as u64;
        for (r, why) in &dead {
            let Some(r) = *r else { continue };
            // The respawned cohort must not re-suffer consumed faults:
            // this rank's kill fired, and link injections fire at most
            // once per run.
            plan = plan.for_respawn(r);
            if trace {
                pipe.push(Body::Fault {
                    name: "respawn".into(),
                    detail: format!(
                        "rank {} failed ({}); gang-restarting from checkpoint \
                         epoch {} (attempt {}/{})",
                        r, why, committed.epoch, attempts, budget
                    ),
                    peer: Some(r),
                    last_seq: None,
                });
            }
        }
        if trace && committed.epoch > 0 {
            pipe.push(Body::Fault {
                name: "checkpoint".into(),
                detail: format!(
                    "gang restart resumes from the checkpoint at epoch cut {} across {} ranks",
                    committed.epoch, nproc
                ),
                peer: None,
                last_seq: None,
            });
        }
        std::thread::sleep(respawn_retry.delay(attempts - 1));
    };

    let mut stats = ReplayStats::default();
    let mut metrics = CommMetrics::new(nproc, compiled.spmd.comms.len());
    let mut mems = Vec::with_capacity(nproc);
    let mut rank_obs: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    for (rank, ((s, m, mem), obs)) in results.into_iter().enumerate() {
        stats.messages_sent += s.messages_sent;
        stats.events += s.events;
        metrics.merge(&m);
        mems.push(mem);
        if trace {
            // Fault evidence salvaged from rolled-back generations
            // precedes the surviving generation's timeline.
            let mut events = std::mem::take(&mut salvaged[rank]);
            events.extend(obs);
            rank_obs.push((rank, events));
        }
    }
    check_owner_slots(&compiled.spmd, &mems, &exec.mems)
        .map_err(|e| format!("processes vs reference: {}", e))?;
    metrics.recovery.merge(&recovery);
    let obs = trace.then(|| {
        pipe.end("replay");
        hpf_obs::Trace::merge(pipe.into_events(), rank_obs)
    });
    Ok(Replayed {
        mems,
        stats,
        metrics,
        obs,
        degraded: false,
    })
}

/// The respawn budget is spent: re-run the program on the in-process
/// thread backend, validate as usual, and label the result degraded.
fn degrade_to_threads(
    reason: &str,
    job: &NetJob,
    compiled: &Compiled,
    init: &(impl Fn(&mut Memory) + Sync),
    mut recovery: RecoveryCounters,
    mut pipe: BufTracer,
) -> Result<Replayed, String> {
    let trace = job.trace;
    recovery.fallbacks += 1;
    eprintln!(
        "phpf netrun: {}; degrading to the in-process thread backend",
        reason
    );
    if trace {
        pipe.push(Body::Fault {
            name: "fallback".into(),
            detail: format!("{}; re-running on the thread backend", reason),
            peer: None,
            last_seq: None,
        });
    }
    let mut r = validate_replay_traced(&compiled.spmd, init, job.vectorize, trace)?;
    r.metrics.recovery.merge(&recovery);
    r.degraded = true;
    if trace {
        pipe.end("replay");
        match &mut r.obs {
            Some(t) => t.prepend_pipeline(pipe.into_events()),
            None => r.obs = Some(hpf_obs::Trace::from_pipeline(pipe.into_events())),
        }
    }
    Ok(r)
}

/// Rendezvous: accept one control connection per rank, each registering
/// `(rank, data address)`. Returns the per-rank connections and mesh
/// address map.
fn rendezvous(
    cfg: &NetRunConfig,
    nproc: usize,
    listener: &NetListener,
) -> Result<(Vec<Conn>, Vec<Addr>), String> {
    let mut conns: Vec<Option<Conn>> = (0..nproc).map(|_| None).collect();
    let mut addrs: Vec<Option<Addr>> = (0..nproc).map(|_| None).collect();
    for _ in 0..nproc {
        let stream = listener
            .accept_deadline(cfg.connect_deadline)
            .map_err(|e| format!("rendezvous: {}", e))?;
        stream
            .set_read_timeout(Some(cfg.result_deadline))
            .map_err(|e| format!("rendezvous: set timeout: {}", e))?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| format!("rendezvous: clone stream: {}", e))?;
        let mut reader = FrameReader::new(reader_stream);
        let writer = FrameWriter::new(stream);
        let payload = read_blob(&mut reader, "worker registration")?;
        let mut d = Dec::new(&payload);
        let rank = d.u32().map_err(|e| e.to_string())? as usize;
        let addr_s = d.str().map_err(|e| e.to_string())?;
        d.done().map_err(|e| e.to_string())?;
        if rank >= nproc {
            return Err(format!("worker registered bogus rank {}", rank));
        }
        if conns[rank].is_some() {
            return Err(format!("worker rank {} registered twice", rank));
        }
        addrs[rank] = Some(Addr::parse(&addr_s).map_err(|e| e.to_string())?);
        conns[rank] = Some(Conn { reader, writer });
    }
    Ok((
        conns.into_iter().map(|c| c.unwrap()).collect(),
        addrs.into_iter().map(|a| a.unwrap()).collect(),
    ))
}

// ---------------------------------------------------------------------------
// The generation protocol: lock-step epochs, heartbeats, checkpoints, gang
// respawn.
//
// The parent runs the replay as a sequence of *epochs* (the executor's
// loop-level barrier cuts, [`SpmdExec::epoch_cuts`]). After each epoch every
// worker ships a status — its checkpoint plus any fault events its transport
// healed — and waits for a `Proceed` directive. The parent commits the
// checkpoint once all ranks report, so there is always a globally consistent
// cut to restart from. When a worker dies (abrupt socket close, error
// status, or missed heartbeats) the whole generation is torn down and
// respawned from the last committed checkpoint: links are meshes of fresh
// processes, so a gang restart needs no live re-rendezvous, and the pruned
// fault plan ([`FaultPlan::for_respawn`]) guarantees the same fault never
// fires twice. When the respawn budget runs dry the caller degrades to the
// in-process thread backend.

/// Control-frame tags: the first byte of every worker → parent frame after
/// the untagged registration blob.
const TAG_STATUS: u8 = 0;
const TAG_HEARTBEAT: u8 = 1;
const TAG_RESULT: u8 = 2;
/// Parent → worker directive after a committed epoch.
const DIRECTIVE_PROCEED: u8 = 1;

/// Most epochs a worker replays in lock step. Every epoch end costs a
/// round trip through the parent and a memory image per rank, so a
/// program with more loop-level cuts than this stops only at every k-th
/// one; a respawn then re-runs at most k cuts' worth of work.
const MAX_EPOCHS: usize = 16;

/// The executor's epoch cuts ([`SpmdExec::epoch_cuts`]) thinned to at most
/// [`MAX_EPOCHS`] epochs, keeping the first and last boundary. Any subset
/// of the cuts is a set of consistent restart points, and every worker
/// derives the same subset from the same trace.
fn lockstep_cuts(cuts: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let last = cuts.len().saturating_sub(1);
    let stride = last.div_ceil(MAX_EPOCHS).max(1);
    cuts.iter()
        .enumerate()
        .filter(|&(i, _)| i % stride == 0 || i == last)
        .map(|(_, c)| c.clone())
        .collect()
}

/// One worker's end-of-epoch report. The layout is the epoch, the
/// retransmission count and the fault events, then a [`RankResult`] last,
/// so the parent can keep a checkpoint as opaque bytes: it only forwards
/// them to a respawned rank, which decodes them.
struct StatusMsg {
    epoch: u32,
    /// Cumulative link retransmissions this process performed so far.
    retransmits: u64,
    /// All fault events the worker accumulated so far (cumulative, so a
    /// generation that dies later still leaves its healing on record).
    faults: Vec<TraceEvent>,
    /// The rank's encoded checkpoint at the cut on success, replay error
    /// otherwise.
    body: Result<Vec<u8>, String>,
}

fn decode_status(payload: &[u8]) -> Result<StatusMsg, String> {
    let mut d = Dec::new(payload);
    let epoch = d.u32().map_err(|e| e.to_string())?;
    let retransmits = d.u64().map_err(|e| e.to_string())?;
    let faults = decode_obs_events(&mut d)?;
    let body = match d.u8().map_err(|e| e.to_string())? {
        0 => {
            let msg = d.str().map_err(|e| e.to_string())?;
            d.done().map_err(|e| e.to_string())?;
            Err(msg)
        }
        _ => Ok(d.rest().to_vec()),
    };
    Ok(StatusMsg {
        epoch,
        retransmits,
        faults,
        body,
    })
}

enum ParentMsg {
    Heartbeat { rank: usize },
    Status { rank: usize, payload: Vec<u8> },
    Result { rank: usize, payload: Vec<u8> },
    Gone { rank: usize, why: String },
}

/// Per-connection reader thread: turns control frames into [`ParentMsg`]s
/// until the worker delivers its result or the link dies.
fn control_reader(
    mut reader: FrameReader<NetStream>,
    rank: usize,
    tx: mpsc::Sender<ParentMsg>,
) {
    loop {
        let msg = match reader.read_step() {
            Ok(ReadStep::Frame((FrameKind::Blob, payload))) => match payload.split_first() {
                Some((&TAG_HEARTBEAT, _)) => ParentMsg::Heartbeat { rank },
                Some((&TAG_STATUS, rest)) => ParentMsg::Status {
                    rank,
                    payload: rest.to_vec(),
                },
                Some((&TAG_RESULT, rest)) => {
                    let _ = tx.send(ParentMsg::Result {
                        rank,
                        payload: rest.to_vec(),
                    });
                    return;
                }
                other => {
                    let _ = tx.send(ParentMsg::Gone {
                        rank,
                        why: format!("unknown control tag {:?}", other.map(|(t, _)| *t)),
                    });
                    return;
                }
            },
            Ok(ReadStep::Frame((kind, _))) => {
                let _ = tx.send(ParentMsg::Gone {
                    rank,
                    why: format!("unexpected {:?} control frame", kind),
                });
                return;
            }
            Ok(ReadStep::Idle) => continue,
            Ok(ReadStep::Eof) => {
                let _ = tx.send(ParentMsg::Gone {
                    rank,
                    why: "control connection closed (worker died?)".into(),
                });
                return;
            }
            Err(e) => {
                let _ = tx.send(ParentMsg::Gone {
                    rank,
                    why: e.to_string(),
                });
                return;
            }
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

fn kill_generation(children: &mut [(usize, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
    }
    for (_, child) in children.iter_mut() {
        let _ = child.wait();
    }
}

/// Globally consistent restart state: how many epochs every rank has
/// committed, and each rank's encoded checkpoint at that cut.
struct Committed {
    epoch: u32,
    ranks: Vec<Vec<u8>>,
}

enum GenOutcome {
    /// Every rank delivered a successful result.
    Finished(Vec<(Checkpoint, Vec<TraceEvent>)>),
    /// At least one rank died or failed; the generation was torn down.
    /// `None` ranks are setup failures not attributable to one worker.
    Failed { dead: Vec<(Option<usize>, String)> },
}

/// How long a failed generation waits for its survivors to report.
const DRAIN_GRACE: Duration = Duration::from_millis(1500);

/// A generation's failure bookkeeping. A rank is *accounted* once it
/// delivered a result or failed.
struct Ledger {
    accounted: Vec<bool>,
    failed: Vec<(Option<usize>, String)>,
    /// Set by the first failure. Until it passes, peers that error out on
    /// the dead rank's closed links still deliver their error statuses
    /// (with the fault events they healed this epoch) before the teardown.
    drain_deadline: Option<Instant>,
}

impl Ledger {
    /// Record `rank`'s first failure and start the drain.
    fn fail(&mut self, rank: usize, why: String) {
        if !self.accounted[rank] {
            self.accounted[rank] = true;
            self.failed.push((Some(rank), why));
        }
        self.drain_deadline
            .get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
    }
}

/// Run one generation: spawn all ranks, drive the lock-step epoch
/// protocol, and either collect every result or tear the cohort down on
/// the first failure. Salvages fault evidence (events and retransmission
/// counts reported in statuses) from failed generations.
#[allow(clippy::too_many_arguments)]
fn run_generation(
    job: &NetJob,
    cfg: &NetRunConfig,
    compiled: &Compiled,
    nproc: usize,
    listener: &NetListener,
    plan: &FaultPlan,
    committed: &mut Committed,
    pipe: &mut BufTracer,
    recovery: &mut RecoveryCounters,
    salvaged: &mut [Vec<TraceEvent>],
) -> Result<GenOutcome, String> {
    let trace = job.trace;
    let program = &compiled.spmd.program;
    let bin = worker_bin()?;
    let parent_addr = listener.addr().map_err(|e| e.to_string())?;
    let mut children = spawn_workers(&bin, &parent_addr, nproc)?;

    // Rendezvous + dispatch. Failures here doom the generation, not the
    // run: they are charged to the respawn budget like any worker death.
    let setup = rendezvous(cfg, nproc, listener).and_then(|(mut conns, addrs)| {
        for (rank, conn) in conns.iter_mut().enumerate() {
            let resume =
                (committed.epoch > 0).then(|| (committed.epoch, committed.ranks[rank].as_slice()));
            let blob = encode_job(job, cfg, &addrs, plan, resume);
            conn.writer
                .write(FrameKind::Blob, &blob)
                .map_err(|e| format!("dispatching job to worker {}: {}", rank, e))?;
        }
        Ok(conns)
    });
    let conns = match setup {
        Ok(c) => c,
        Err(e) => {
            kill_generation(&mut children);
            return Ok(GenOutcome::Failed {
                dead: vec![(None, e)],
            });
        }
    };

    let (tx, rx) = mpsc::channel::<ParentMsg>();
    let mut writers: Vec<FrameWriter<NetStream>> = Vec::with_capacity(nproc);
    for (rank, conn) in conns.into_iter().enumerate() {
        let Conn { reader, writer } = conn;
        writers.push(writer);
        let tx = tx.clone();
        std::thread::spawn(move || control_reader(reader, rank, tx));
    }
    drop(tx);

    let mut last_heard: Vec<Instant> = vec![Instant::now(); nproc];
    let mut statuses: Vec<Option<Vec<u8>>> = vec![None; nproc];
    let mut results: Vec<Option<(Checkpoint, Vec<TraceEvent>)>> =
        (0..nproc).map(|_| None).collect();
    let mut prov_faults: Vec<Vec<TraceEvent>> = vec![Vec::new(); nproc];
    let mut prov_retx: Vec<u64> = vec![0; nproc];
    let mut ledger = Ledger {
        accounted: vec![false; nproc],
        failed: Vec::new(),
        drain_deadline: None,
    };
    let mut expect_epoch = committed.epoch;

    let outcome = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(ParentMsg::Heartbeat { rank }) => last_heard[rank] = Instant::now(),
            Ok(ParentMsg::Status { rank, payload }) => {
                last_heard[rank] = Instant::now();
                match decode_status(&payload) {
                    Ok(st) => {
                        prov_retx[rank] = st.retransmits;
                        prov_faults[rank] = st.faults;
                        match st.body {
                            Ok(cp) if st.epoch == expect_epoch => statuses[rank] = Some(cp),
                            // A stale status only contributes its salvage
                            // payload.
                            Ok(_) => {}
                            Err(msg) => ledger.fail(rank, format!("epoch {}: {}", st.epoch, msg)),
                        }
                    }
                    Err(e) => ledger.fail(rank, format!("bad status: {}", e)),
                }
            }
            Ok(ParentMsg::Result { rank, payload }) => {
                last_heard[rank] = Instant::now();
                match decode_result(&payload, program) {
                    Ok((Ok(res), obs)) => {
                        ledger.accounted[rank] = true;
                        results[rank] = Some((res, obs));
                    }
                    Ok((Err(msg), _)) => ledger.fail(rank, msg),
                    Err(e) => ledger.fail(rank, format!("bad result: {}", e)),
                }
            }
            Ok(ParentMsg::Gone { rank, why }) => ledger.fail(rank, why),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // All reader threads exited; the state checks below decide.
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }

        // Deadline-based failure detection: a worker that stops
        // heartbeating is dead to the supervisor even if its socket is
        // still open (wedged process, livelocked replay).
        for (rank, heard) in last_heard.iter().enumerate() {
            if !ledger.accounted[rank] && heard.elapsed() > HEARTBEAT_DEADLINE {
                recovery.heartbeat_misses += 1;
                if trace {
                    pipe.push(Body::Fault {
                        name: "heartbeat-miss".into(),
                        detail: format!(
                            "rank {} silent for more than {:?}",
                            rank, HEARTBEAT_DEADLINE
                        ),
                        peer: Some(rank),
                        last_seq: None,
                    });
                }
                ledger.fail(
                    rank,
                    format!("no heartbeat within {:?}", HEARTBEAT_DEADLINE),
                );
            }
        }

        match ledger.drain_deadline {
            None => {
                if results.iter().all(|r| r.is_some()) {
                    let out = std::mem::take(&mut results);
                    break GenOutcome::Finished(
                        out.into_iter().map(|r| r.unwrap()).collect(),
                    );
                }
                if statuses.iter().all(|s| s.is_some()) {
                    // Commit the epoch: every rank checkpointed this cut,
                    // so it is a globally consistent restart point.
                    committed.epoch = expect_epoch + 1;
                    committed.ranks =
                        statuses.iter_mut().map(|s| s.take().unwrap()).collect();
                    expect_epoch += 1;
                    for (rank, w) in writers.iter_mut().enumerate() {
                        if let Err(e) = w.write(FrameKind::Blob, &[DIRECTIVE_PROCEED]) {
                            ledger.fail(rank, format!("sending proceed: {}", e));
                        }
                    }
                }
            }
            // The drain ends once every rank has failed, delivered its
            // result, or parked at the epoch barrier with its status in
            // hand; the grace only bounds a wedged rank.
            Some(dl) => {
                let settled = (0..nproc).all(|r| ledger.accounted[r] || statuses[r].is_some());
                if settled || Instant::now() >= dl {
                    break GenOutcome::Failed {
                        dead: std::mem::take(&mut ledger.failed),
                    };
                }
            }
        }
    };

    match outcome {
        GenOutcome::Finished(res) => {
            let reap_errors = reap(&mut children, cfg.result_deadline);
            if !reap_errors.is_empty() {
                return Err(reap_errors.join("; "));
            }
            Ok(GenOutcome::Finished(res))
        }
        GenOutcome::Failed { dead } => {
            // Salvage the failed generation's recovery evidence: its fault
            // events and retransmission counts would otherwise die with it.
            for rank in 0..nproc {
                salvaged[rank].append(&mut prov_faults[rank]);
                recovery.retransmits += prov_retx[rank];
            }
            kill_generation(&mut children);
            Ok(GenOutcome::Failed { dead })
        }
    }
}

/// Entry point of the `networker` binary: one spawned process per rank.
/// Reads its rank and the parent address from the environment, registers,
/// receives the job, meshes with its peers, replays its rank epoch by
/// epoch and reports back, heartbeating the whole time.
pub fn worker_main() -> Result<(), String> {
    let parent = std::env::var(ENV_PARENT)
        .map_err(|_| format!("{} not set (run via the socket backend driver)", ENV_PARENT))?;
    let rank: usize = std::env::var(ENV_RANK)
        .map_err(|_| format!("{} not set", ENV_RANK))?
        .parse()
        .map_err(|e| format!("bad {}: {}", ENV_RANK, e))?;
    let parent_addr = Addr::parse(&parent).map_err(|e| e.to_string())?;
    let kind = match parent_addr {
        Addr::Tcp(_) => AddrKind::Tcp,
        Addr::Unix(_) => AddrKind::Unix,
    };
    let listener =
        NetListener::bind(kind, &format!("rank{}", rank)).map_err(|e| e.to_string())?;
    let my_addr = listener.addr().map_err(|e| e.to_string())?;

    let stream = connect_backoff(&parent_addr, Duration::from_secs(10))
        .map_err(|e| format!("reaching parent: {}", e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {}", e))?;
    let reader_stream = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {}", e))?;
    let mut reader = FrameReader::new(reader_stream);
    let mut writer = FrameWriter::new(stream);

    let mut e = Enc::new();
    e.u32(rank as u32);
    e.str(&my_addr.to_string());
    writer
        .write(FrameKind::Blob, &e.buf)
        .map_err(|e| format!("registering with parent: {}", e))?;

    let payload = read_blob(&mut reader, "job from parent")?;
    let wire = decode_job(&payload)?;
    // Heartbeats start before the (potentially slow) recompile and mesh
    // so the parent's deadline detector never mistakes a busy worker for
    // a dead one.
    let control = Arc::new(Mutex::new(writer));
    let heartbeat = Heartbeat::start(Arc::clone(&control), HEARTBEAT_INTERVAL);
    let res = replay_epochs(&wire, rank, &listener, &mut reader, &control);
    heartbeat.stop();
    res
}

/// A worker's heartbeat thread: beats on the control link every interval
/// until [`Heartbeat::stop`], which wakes it at once instead of letting it
/// sleep out the interval.
struct Heartbeat {
    stop: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    fn start<W: Write + Send + 'static>(
        control: Arc<Mutex<FrameWriter<W>>>,
        interval: Duration,
    ) -> Heartbeat {
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::spawn(move || loop {
            if control
                .lock()
                .unwrap()
                .write(FrameKind::Blob, &[TAG_HEARTBEAT])
                .is_err()
            {
                return;
            }
            if stopped.recv_timeout(interval) != Err(mpsc::RecvTimeoutError::Timeout) {
                return;
            }
        });
        Heartbeat { stop, thread }
    }

    fn stop(self) {
        let _ = self.stop.send(());
        let _ = self.thread.join();
    }
}

/// The worker's replay: recompile, record the trace, resume from the
/// supervisor's checkpoint if there is one, then replay epoch by epoch —
/// a status after each, wait for `Proceed` — and send the tagged result.
fn replay_epochs(
    wire: &WireJob,
    rank: usize,
    listener: &NetListener,
    reader: &mut FrameReader<NetStream>,
    control: &Mutex<FrameWriter<NetStream>>,
) -> Result<(), String> {
    let compiled = wire.job.compile()?;
    let program = &compiled.spmd.program;
    let nproc = compiled.spmd.maps.grid.total();
    if nproc != wire.addrs.len() {
        return Err(format!(
            "compiled grid has {} processors, job says {}",
            nproc,
            wire.addrs.len()
        ));
    }
    let init = make_init(&compiled, &wire.job.fills)?;
    // Recompute the trace deterministically — same compiler, same source,
    // same fills as the parent and every sibling.
    let mut exec = SpmdExec::new(&compiled.spmd, &init).with_trace();
    if !wire.job.vectorize {
        exec = exec.without_vectorization();
    }
    exec.run()
        .map_err(|e| format!("reference run failed: {:?}", e))?;
    let cuts = lockstep_cuts(exec.epoch_cuts());
    let trace = exec.trace.take().expect("trace recorded");

    let start_epoch = wire.resume.as_ref().map_or(0, |(done, _)| *done as usize);
    let (mut stats, mut metrics, mut mem) = match &wire.resume {
        // Resume from the supervisor's committed checkpoint — memory and
        // traffic counters alike — instead of the initial fills.
        Some((_, blob)) => {
            let mut d = Dec::new(blob);
            let cp = decode_checkpoint(&mut d, program)?;
            d.done().map_err(|e| e.to_string())?;
            cp
        }
        None => {
            let mut mem = Memory::zeroed(program);
            init(&mut mem);
            (
                ReplayStats::default(),
                CommMetrics::new(nproc, compiled.spmd.comms.len()),
                mem,
            )
        }
    };

    let injector = (!wire.plan.is_empty()).then(|| FaultInjector::new(&wire.plan, rank));
    let mesh_cfg = SocketConfig {
        io_deadline: wire.io_deadline,
        connect_deadline: wire.connect_deadline,
        retry: RetryPolicy {
            max_attempts: wire.retries,
            // Decorrelate link backoff jitter across ranks.
            seed: rank as u64,
            ..RetryPolicy::default()
        },
    };
    let mut transport =
        SocketTransport::connect_mesh(rank, nproc, listener, &wire.addrs, mesh_cfg)
            .map_err(|e: NetError| format!("proc {}: mesh: {}", rank, e))?;
    if let Some(inj) = &injector {
        transport.set_fault_injector(inj.clone());
    }

    let mut obs = wire.job.trace.then(|| BufTracer::for_rank(rank));
    let mut fault_log: Vec<TraceEvent> = Vec::new();
    let events = &trace[rank];
    let nepochs = cuts.len().saturating_sub(1);
    for epoch in start_epoch..nepochs {
        let seg = &events[cuts[epoch][rank]..cuts[epoch + 1][rank]];
        let res = replay_rank_segment(
            &compiled.spmd,
            seg,
            &mut mem,
            &mut transport,
            &mut stats,
            &mut metrics,
            obs.as_mut(),
            |_| {
                if let Some(inj) = &injector {
                    if inj.note_event() {
                        // The fault plan's kill: die as abruptly as a real
                        // crash, mid-epoch, without a goodbye.
                        std::process::abort();
                    }
                }
            },
        );
        if obs.is_none() {
            fault_log.extend(transport.take_fault_events());
        }
        // Cumulative fault snapshot rides on every status so a later
        // death cannot erase this epoch's recovery evidence.
        let faults: Vec<TraceEvent> = match &obs {
            Some(o) => o
                .events()
                .iter()
                .filter(|ev| matches!(ev.body, Body::Fault { .. }))
                .cloned()
                .collect(),
            None => fault_log.clone(),
        };
        let mut enc = Enc::new();
        enc.u8(TAG_STATUS);
        enc.u32(epoch as u32);
        enc.u64(transport.retransmits());
        encode_obs_events(&mut enc, &faults);
        encode_rank_result(
            &mut enc,
            program,
            res.as_ref()
                .map(|()| (&stats, &metrics, &mem))
                .map_err(String::as_str),
        );
        let sent = control.lock().unwrap().write(FrameKind::Blob, &enc.buf);
        res?;
        sent.map_err(|e| format!("sending epoch {} status: {}", epoch, e))?;
        let payload = read_blob(reader, "directive from supervisor")?;
        if payload.first() != Some(&DIRECTIVE_PROCEED) {
            return Err(format!(
                "unexpected directive {:?} from supervisor",
                payload.first()
            ));
        }
    }

    let fin = transport.finish();
    if let Some(o) = obs.as_mut() {
        o.absorb(transport.take_fault_events());
    }
    metrics.saw_in_flight(transport.peak_in_flight());
    metrics.recovery.retransmits = transport.retransmits();
    let result: RankResult = match fin {
        Ok(()) => Ok((stats, metrics, mem)),
        Err(e) => Err(format!("proc {}: teardown: {}", rank, e)),
    };
    let obs_events = obs.map(|o| o.into_events()).unwrap_or_default();
    control
        .lock()
        .unwrap()
        .write(
            FrameKind::Blob,
            &encode_result(&result, &obs_events, program),
        )
        .map_err(|e| format!("sending result: {}", e))?;
    result.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_cuts_keep_both_ends_and_at_most_max_epochs() {
        let cuts = |n: usize| -> Vec<Vec<usize>> { (0..=n).map(|i| vec![i]).collect() };
        assert_eq!(
            lockstep_cuts(&cuts(11)),
            cuts(11),
            "short runs keep every cut"
        );
        for n in [MAX_EPOCHS + 1, 63, 100] {
            let thin = lockstep_cuts(&cuts(n));
            assert!(
                thin.len() - 1 <= MAX_EPOCHS,
                "{} cuts thinned to {}",
                n,
                thin.len()
            );
            assert_eq!(thin.first(), Some(&vec![0]));
            assert_eq!(thin.last(), Some(&vec![n]));
        }
        assert!(lockstep_cuts(&[]).is_empty());
    }

    #[test]
    fn heartbeat_stop_does_not_wait_out_the_interval() {
        let control = Arc::new(Mutex::new(FrameWriter::new(Vec::<u8>::new())));
        let heartbeat = Heartbeat::start(Arc::clone(&control), Duration::from_secs(10));
        // Let the first beat go out so the thread is parked in its wait.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        heartbeat.stop();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "stop took {:?}", took);
        assert_eq!(
            Arc::strong_count(&control),
            1,
            "the heartbeat thread must have exited"
        );
    }
}
