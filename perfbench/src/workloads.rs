//! The workloads. Each is a closed loop of one operation; the
//! operation reaches the program only through its crates' public
//! functions, and every result goes through the output gate.

use crate::gate::{self, Op, OpResult};
use crate::probes;
use crate::record::Recorder;
use hpf_compile::netrun::{self, FaultPlan, NetJob, NetRunConfig};
use hpf_compile::{compile_source, compile_source_traced, Compiled, Options, Version};
use hpf_ir::{Memory, Program};
use hpf_kernels::{dgefa, tomcatv};
use hpf_spmd::{Replayed, SpmdExec, SpmdProgram};

/// Ranks of every workload: the benchmark box has two cores, so no rank
/// ever waits for a core.
pub const P: usize = 2;

/// The workloads, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["tomcatv-thread", "dgefa-socket", "dgefa-socket-faults"];

pub trait Workload {
    /// SP2-model total of the program(s) the operation runs: a model
    /// output, not a measurement.
    fn model_s(&self) -> f64;

    /// One operation.
    fn run_op(&self) -> OpResult;

    /// The same operation with every layer call timed on `rec`. The part
    /// that corresponds to [`Workload::run_op`] is the span `op`.
    fn run_traced(&self, rec: &mut Recorder) -> OpResult;

    /// Traced-run measurements outside the operation.
    fn probe(&self, rec: &mut Recorder) -> Result<(), String>;
}

/// Generate the named workload's inputs from `seed`, look up what it needs
/// and warm it up with one compile of every program it runs.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tomcatv-thread" => Box::new(TomcatvThread::setup()?),
        "dgefa-socket" => Box::new(DgefaSocket::setup(seed, false)?),
        "dgefa-socket-faults" => Box::new(DgefaSocket::setup(seed, true)?),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}

/// Fills a rank's memory with the workload's initial arrays.
type Init<'a> = Box<dyn Fn(&mut Memory) + Sync + 'a>;

fn selected() -> Options {
    Options::new(Version::SelectedAlignment)
}

/// `hpf_compile::compile_source_traced` inside a `compile.compile` span,
/// its phase spans on `rec`, and the counts of the compiled program.
pub fn compile_layers(src: &str, options: Options, rec: &mut Recorder) -> Result<Compiled, String> {
    rec.begin("compile.compile");
    let c = compile_source_traced(src, options, rec.tracer())?;
    rec.end("compile.compile");
    let sp = &c.spmd;
    rec.add("ir.stmts", sp.program.num_stmts() as f64);
    let privatized = sp.decisions.scalars.values().filter(|m| m.is_privatized());
    rec.add("core.private_scalar_defs", privatized.count() as f64);
    rec.add("spmd.comm_ops", sp.comms.len() as f64);
    Ok(c)
}

/// `hpf_spmd::validate_replay` split into its layer calls: the recording
/// executor, the threaded replay through timed transports, and the owner
/// slot check against the executor.
fn exec_replay_layers(
    sp: &SpmdProgram,
    init: &(impl Fn(&mut Memory) + Sync),
    rec: &mut Recorder,
) -> Result<probes::TimedReplay, String> {
    rec.begin("spmd.exec");
    let mut exec = SpmdExec::new(sp, init).with_trace();
    exec.run()
        .map_err(|e| format!("reference run failed: {e}"))?;
    rec.end("spmd.exec");
    let trace = exec.trace.take().ok_or("executor recorded no trace")?;
    rec.add("spmd.exec_stmts", exec.stats.stmt_execs as f64);
    rec.add(
        "spmd.trace_events",
        trace.iter().map(Vec::len).sum::<usize>() as f64,
    );
    rec.add(
        "spmd.elems_per_message",
        exec.stats.messages as f64 / exec.metrics.messages().max(1) as f64,
    );
    let run = rec.time("spmd.replay", || probes::timed_replay(sp, &trace, init))?;
    let max = |f: fn(&probes::RankTimes) -> f64| run.ranks.iter().map(f).fold(0.0, f64::max);
    rec.add("spmd.rank_compute_s", max(probes::RankTimes::compute_s));
    rec.add("net.channel_send_s", max(|r| r.send_s));
    rec.add("net.channel_recv_wait_s", max(|r| r.recv_wait_s));
    rec.time("spmd.owner_check", || {
        hpf_spmd::check_owner_slots(sp, &run.mems, &exec.mems)
    })
    .map_err(|e| format!("threads vs reference: {e}"))?;
    Ok(run)
}

/// Probes shared by the workloads that execute a program: the sequential
/// interpreter and the native kernel as baselines, global message
/// combining on the same source, and the cost of the program's own
/// observability (`validate_replay_traced` with obs on vs off).
fn execution_probes<'a>(
    src: &str,
    init_for: &dyn Fn(&Program) -> Result<Init<'a>, String>,
    native: &dyn Fn(),
    rec: &mut Recorder,
) -> Result<(), String> {
    let p = hpf_ir::parse_program(src).map_err(|e| e.to_string())?;
    let init = init_for(&p)?;
    for _ in 0..3 {
        rec.next_op();
        let (_, stats) = rec
            .time("ir.interp", || hpf_ir::interp::run_program(&p, &init))
            .map_err(|e| format!("interpreter: {e}"))?;
        rec.add("ir.interp_steps", stats.steps as f64);
    }
    for _ in 0..5 {
        rec.next_op();
        rec.time("kernels.native", native);
    }

    // Only the combine span and the op count of a scratch compile are kept.
    let mut scratch = Recorder::default();
    let combined =
        compile_source_traced(src, selected().with_message_combining(), scratch.tracer())?;
    rec.next_op();
    rec.add("spmd.combine_s", scratch.medians()["spmd.combine_s"]);
    rec.add("spmd.comm_ops_combined", combined.spmd.comms.len() as f64);

    let c = compile_source(src, selected())?;
    let init = init_for(&c.spmd.program)?;
    // Pairs alternate which side runs first.
    for pair in 0..4 {
        rec.next_op();
        for obs in [pair % 2 == 0, pair % 2 == 1] {
            let name = if obs {
                "obs.replay_on"
            } else {
                "obs.replay_off"
            };
            let r = rec.time(name, || {
                hpf_spmd::validate_replay_traced(&c.spmd, &init, true, obs)
            })?;
            if let Some(t) = r.obs {
                rec.add("obs.events", t.len() as f64);
            }
        }
    }
    Ok(())
}

fn wire(metrics: &hpf_spmd::CommMetrics) -> Option<(u64, u64)> {
    Some((metrics.messages(), metrics.bytes()))
}

// ---------------------------------------------------------------------------
// tomcatv-thread

/// TOMCATV at ROADMAP's baseline size.
const TOMCATV_N: i64 = 129;
const TOMCATV_ITERS: i64 = 1;

/// `phpfc --verify --backend thread` on TOMCATV, without the printing.
struct TomcatvThread {
    src: String,
    x0: Vec<f64>,
    y0: Vec<f64>,
    xr: Vec<f64>,
    yr: Vec<f64>,
    model_s: f64,
}

impl TomcatvThread {
    fn setup() -> Result<TomcatvThread, String> {
        let src = tomcatv::source(TOMCATV_N, P, TOMCATV_ITERS);
        let (x0, y0) = tomcatv::init_mesh(TOMCATV_N);
        let (xr, yr) = tomcatv::reference(TOMCATV_N, TOMCATV_ITERS);
        let model_s = compile_source(&src, selected())?.estimate().total_s();
        Ok(TomcatvThread {
            src,
            x0,
            y0,
            xr,
            yr,
            model_s,
        })
    }

    fn init(&self, p: &Program) -> Result<Init<'_>, String> {
        let x = p.vars.lookup("x").ok_or("TOMCATV has no X")?;
        let y = p.vars.lookup("y").ok_or("TOMCATV has no Y")?;
        Ok(Box::new(move |m: &mut Memory| {
            m.fill_real(x, &self.x0);
            m.fill_real(y, &self.y0);
        }))
    }

    fn check(&self, sp: &SpmdProgram, mems: &[Memory]) -> Result<(), String> {
        gate::check_owner_slots(sp, mems, &[("x", &self.xr), ("y", &self.yr)])
    }
}

impl Workload for TomcatvThread {
    fn model_s(&self) -> f64 {
        self.model_s
    }

    fn run_op(&self) -> OpResult {
        let c = compile_source(&self.src, selected())?;
        let init = self.init(&c.spmd.program)?;
        let report = c.verify(&init);
        if !report.is_clean() {
            return Err(format!(
                "verifier reported {} error(s)",
                report.error_count()
            ));
        }
        let r = hpf_spmd::validate_replay(&c.spmd, &init)?;
        let cost = c.estimate();
        hpf_spmd::cross_check(&c.spmd, &cost, &r.metrics)?;
        self.check(&c.spmd, &r.mems)?;
        Ok(Op {
            degraded: false,
            wire: wire(&r.metrics),
        })
    }

    fn run_traced(&self, rec: &mut Recorder) -> OpResult {
        rec.begin("op");
        let c = compile_layers(&self.src, selected(), rec)?;
        let init = self.init(&c.spmd.program)?;
        let report = rec.time("verify.verify", || c.verify(&init));
        rec.add("verify.errors", report.error_count() as f64);
        if !report.is_clean() {
            return Err(format!(
                "verifier reported {} error(s)",
                report.error_count()
            ));
        }
        let run = exec_replay_layers(&c.spmd, &init, rec)?;
        let cost = rec.time("spmd.estimate", || c.estimate());
        rec.time("spmd.crosscheck", || {
            hpf_spmd::cross_check(&c.spmd, &cost, &run.metrics)
        })?;
        self.check(&c.spmd, &run.mems)?;
        rec.end("op");
        rec.add("net.peak_in_flight", run.metrics.max_in_flight as f64);
        Ok(Op {
            degraded: false,
            wire: wire(&run.metrics),
        })
    }

    fn probe(&self, rec: &mut Recorder) -> Result<(), String> {
        execution_probes(
            &self.src,
            &|p| self.init(p),
            &|| {
                std::hint::black_box(tomcatv::reference(
                    std::hint::black_box(TOMCATV_N),
                    TOMCATV_ITERS,
                ));
            },
            rec,
        )
    }
}

// ---------------------------------------------------------------------------
// dgefa-socket, dgefa-socket-faults

const DGEFA_N: i64 = 64;

/// The seeded fault plan of `dgefa-socket-faults`: one corrupted frame on
/// link 0>1 among the first few, and a kill of rank 1 in a narrow window of
/// its replay, so every seed heals through both retransmission and respawn
/// at about the same cost.
pub fn fault_plan(seed: u64) -> String {
    let h = hpf_net::retry::splitmix64(seed);
    let frame = 1 + h % 3;
    let kill = 19_000 + (h >> 8) % 2_001;
    format!("corrupt:0>1@{frame},kill:1@{kill}")
}

/// DGEFA over worker processes and real sockets
/// (`netrun::socket_validate_replay`), clean or with a fault plan.
struct DgefaSocket {
    src: String,
    ar: Vec<f64>,
    job: NetJob,
    cfg: NetRunConfig,
    /// The same configuration without the fault plan, for the faulted
    /// workload's clean comparison run.
    clean_cfg: Option<NetRunConfig>,
    /// The parent's compile of the job, for owner lookup in the gate.
    compiled: Compiled,
    model_s: f64,
}

impl DgefaSocket {
    fn setup(seed: u64, faults: bool) -> Result<DgefaSocket, String> {
        let src = dgefa::source(DGEFA_N, P);
        let a0 = dgefa::random_matrix(DGEFA_N, seed);
        let ar = dgefa::reference_on(a0.clone(), DGEFA_N);
        let mut job = NetJob::new(src.clone());
        job.fills = vec![("a".to_string(), a0)];
        netrun::worker_bin()?;
        let clean = NetRunConfig::default();
        let (cfg, clean_cfg) = if faults {
            let plan = FaultPlan::parse(&fault_plan(seed))?;
            (
                NetRunConfig {
                    fault_plan: Some(plan),
                    ..clean.clone()
                },
                Some(clean),
            )
        } else {
            (clean, None)
        };
        let compiled = job.compile()?;
        let model_s = compiled.estimate().total_s();
        Ok(DgefaSocket {
            src,
            ar,
            job,
            cfg,
            clean_cfg,
            compiled,
            model_s,
        })
    }

    fn init(&self, p: &Program) -> Result<Init<'_>, String> {
        let a = p.vars.lookup("a").ok_or("DGEFA has no A")?;
        let a0 = &self.job.fills[0].1;
        Ok(Box::new(move |m: &mut Memory| m.fill_real(a, a0)))
    }

    /// The gate of a socket result: owner slots against the native
    /// factorization, and under the fault plan the recovery it must have
    /// gone through. The faulted workload reports no wire counts: after a
    /// respawn netrun keeps only the surviving generation's metrics.
    fn check(&self, r: &Replayed, faulted: bool) -> OpResult {
        gate::check_owner_slots(&self.compiled.spmd, &r.mems, &[("a", &self.ar)])?;
        if faulted {
            gate::check_recovery(&r.metrics.recovery, r.degraded)?;
        }
        Ok(Op {
            degraded: r.degraded,
            wire: if faulted { None } else { wire(&r.metrics) },
        })
    }

    fn socket_op(&self, cfg: &NetRunConfig) -> Result<Replayed, String> {
        netrun::socket_validate_replay(&self.job, cfg)
    }
}

impl Workload for DgefaSocket {
    fn model_s(&self) -> f64 {
        self.model_s
    }

    fn run_op(&self) -> OpResult {
        self.check(&self.socket_op(&self.cfg)?, self.clean_cfg.is_some())
    }

    fn run_traced(&self, rec: &mut Recorder) -> OpResult {
        // The parent's share of the job, layer by layer.
        let c = compile_layers(&self.src, selected(), rec)?;
        let init = self.init(&c.spmd.program)?;
        let run = exec_replay_layers(&c.spmd, &init, rec)?;
        gate::check_owner_slots(&c.spmd, &run.mems, &[("a", &self.ar)])?;
        let cost = rec.time("spmd.estimate", || c.estimate());
        rec.time("spmd.crosscheck", || {
            hpf_spmd::cross_check(&c.spmd, &cost, &run.metrics)
        })?;

        rec.begin("op");
        rec.begin("netrun.run");
        let r = self.socket_op(&self.cfg)?;
        rec.end("netrun.run");
        let out = self.check(&r, self.clean_cfg.is_some())?;
        rec.end("op");
        let m = &r.metrics;
        rec.add("net.peak_in_flight", m.max_in_flight as f64);
        rec.add("net.retransmits", m.recovery.retransmits as f64);
        rec.add("netrun.respawns", m.recovery.respawns as f64);
        rec.add(
            "netrun.heartbeat_misses",
            m.recovery.heartbeat_misses as f64,
        );
        rec.add("netrun.fallbacks", m.recovery.fallbacks as f64);
        rec.add("netrun.wire_messages_reported", m.messages() as f64);
        let clean_messages = match &self.clean_cfg {
            Some(clean_cfg) => {
                let clean = rec.time("netrun.clean", || self.socket_op(clean_cfg))?;
                self.check(&clean, false)?;
                clean.metrics.messages()
            }
            None => m.messages(),
        };
        rec.add("netrun.wire_messages_clean", clean_messages as f64);
        Ok(out)
    }

    fn probe(&self, rec: &mut Recorder) -> Result<(), String> {
        let a0 = &self.job.fills[0].1;
        execution_probes(
            &self.src,
            &|p| self.init(p),
            &|| {
                std::hint::black_box(dgefa::reference_on(
                    std::hint::black_box(a0.clone()),
                    DGEFA_N,
                ));
            },
            rec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_seeded_and_parses() {
        assert_eq!(fault_plan(7), fault_plan(7));
        let plans: std::collections::BTreeSet<String> = (0..16).map(fault_plan).collect();
        assert!(plans.len() > 8);
        for seed in 0..16 {
            let plan = FaultPlan::parse(&fault_plan(seed)).unwrap();
            assert_eq!(plan.actions.len(), 2);
        }
    }
}
