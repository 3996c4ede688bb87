//! `perfbench` — the measured benchmark of phpf-rs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload as a closed loop (one caller, one process, each
//! operation starting when the previous one ends) for `--seconds`, checks
//! every operation's output against an independent reference, and prints
//! every metric by name and unit. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. A traced run also writes its spans as chrome://tracing
//! JSON under `.bench_out/`. See `perfbench/README.md`.
//!
//! The socket workloads spawn this same binary as their worker ranks: it
//! runs `netrun::worker_main` when started with the worker environment.

mod gate;
mod probes;
mod record;
mod workloads;

use gate::Tally;
use hpf_compile::netrun;
use record::{median, tail_percentile, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Where traced runs write their spans and the socket backend its socket
/// files, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Set-ups an untraced run makes after each operation, and the fewest it
/// makes in all; `setup_s` is their median.
const SETUPS_PER_OP: usize = 3;
const MIN_SETUPS: usize = 21;

/// End-to-end metrics, reported by untraced runs of every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_s", "model-s"),
];

/// Per-layer metrics, reported by traced runs of every workload; a metric
/// the workload's operation does not exercise reads 0 and is listed as
/// such in the text output.
const PER_LAYER: [(&str, &str); 50] = [
    ("ir.parse_s", "s"),
    ("ir.stmts", "count"),
    ("ir.interp_s", "s"),
    ("analysis.run_s", "s"),
    ("dist.mapping_s", "s"),
    ("core.map_program_s", "s"),
    ("core.private_scalar_defs", "count"),
    ("compile.compile_s", "s"),
    ("spmd.lower_s", "s"),
    ("spmd.comm_ops", "count"),
    ("spmd.combine_s", "s"),
    ("spmd.comm_ops_combined", "count"),
    ("spmd.estimate_s", "s"),
    ("spmd.exec_s", "s"),
    ("spmd.exec_stmts", "count"),
    ("spmd.exec_redundancy", "ratio"),
    ("spmd.trace_events", "count"),
    ("spmd.elems_per_message", "ratio"),
    ("spmd.replay_s", "s"),
    ("spmd.rank_compute_s", "s"),
    ("spmd.owner_check_s", "s"),
    ("spmd.crosscheck_s", "s"),
    ("spmd.execute_over_native", "ratio"),
    ("verify.verify_s", "s"),
    ("verify.errors", "count"),
    ("net.channel_send_s", "s"),
    ("net.channel_recv_wait_s", "s"),
    ("net.channel_alpha_s", "s"),
    ("net.channel_beta_s", "s/B"),
    ("net.socket_alpha_s", "s"),
    ("net.socket_beta_s", "s/B"),
    ("net.peak_in_flight", "count"),
    ("netrun.run_s", "s"),
    ("netrun.workers_s", "s"),
    ("netrun.recovery_s", "s"),
    ("net.retransmits", "count"),
    ("netrun.respawns", "count"),
    ("netrun.heartbeat_misses", "count"),
    ("netrun.fallbacks", "count"),
    ("net.useful_frac", "ratio"),
    ("netrun.wire_messages_reported", "count"),
    ("netrun.wire_messages_clean", "count"),
    ("obs.overhead_frac", "ratio"),
    ("obs.events", "count"),
    ("kernels.native_s", "s"),
    ("wire_messages", "count/op"),
    ("wire_bytes", "B/op"),
    ("degraded_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if std::env::var_os(netrun::ENV_PARENT).is_some() {
        return match netrun::worker_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if std::env::var_os(ENV_MEASURING).is_none() {
        return measure_in_child();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // No other thread runs yet, so the environment may change. The worker
    // ranks are this binary, and the Unix socket files of the socket
    // backend go under the output directory, by a relative path that keeps
    // them short and inside the checkout.
    match std::env::current_exe().and_then(|exe| std::fs::create_dir_all(OUT_DIR).map(|()| exe)) {
        Ok(exe) => {
            std::env::set_var(netrun::ENV_WORKER_BIN, exe);
            std::env::set_var("TMPDIR", OUT_DIR);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = run(&args);
    remove_socket_files();
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Marks the process that measures, a child of the one started by hand.
const ENV_MEASURING: &str = "PERFBENCH_MEASURING";

/// Re-run this binary with the same arguments in a fresh child process and
/// pass on its exit status. `cargo run` replaces itself with this binary, so
/// the first process's child-usage counters already hold the compiler
/// processes of the build; only a fresh child's peak-memory figure for its
/// workers is the workers' own.
fn measure_in_child() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(ENV_MEASURING, "1")
            .status()
    });
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| c.clamp(1, 255) as u8)),
        Err(e) => {
            eprintln!("perfbench: cannot start the measuring process: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Remove the socket files that workers killed by a fault plan leave in the
/// output directory.
fn remove_socket_files() {
    let Ok(dir) = std::fs::read_dir(OUT_DIR) else {
        return;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("phpf-net-") && name.ends_with(".sock") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Run the benchmark; returns everything to print, the JSON result last.
fn run(args: &Args) -> Result<String, String> {
    let t = Instant::now();
    let w = workloads::setup(&args.workload, args.seed)?;
    let first_setup_s = secs(t);
    let mut tally = Tally::default();
    let t = Instant::now();
    let r = w.run_op();
    tally.record(secs(t), &r, true);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench: workload {} seed {} seconds {} trace {} (P = {}, available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        workloads::P,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let metrics = if args.trace {
        traced(args, w.as_ref(), &mut tally, &mut out)?
    } else {
        untraced(args, w.as_ref(), &mut tally, first_setup_s, &mut out)?
    };
    if let Some(e) = &tally.first_error {
        let _ = writeln!(out, "FAILED operation: {e}");
    }
    // A run in which every operation failed or degraded measured nothing.
    if tally.run_s.is_empty() {
        let _ = writeln!(out, "FAILED run: no operation was timed");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && !tally.run_s.is_empty(),
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*value)
        );
    }
    json.push_str("}}");
    let _ = writeln!(out, "{json}");
    Ok(out)
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether another iteration that takes as long as the last (`last`
/// seconds) still ends within `seconds` of `start`, so a run measures for
/// about `seconds` and not up to one operation longer.
fn room_for(start: Instant, last: f64, seconds: f64) -> bool {
    secs(start) + last <= seconds
}

fn untraced(
    args: &Args,
    w: &dyn workloads::Workload,
    tally: &mut Tally,
    first_setup_s: f64,
    out: &mut String,
) -> Result<Metrics, String> {
    // The first set-up ran cold at start. The others run between the
    // operations, spread over the run like them: the host's speed changes
    // within a second, and a burst of set-ups would catch one moment of it.
    let mut setups = vec![first_setup_s];
    let set_up = |setups: &mut Vec<f64>| -> Result<(), String> {
        let t = Instant::now();
        workloads::setup(&args.workload, args.seed)?;
        setups.push(secs(t));
        Ok(())
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let r = w.run_op();
        let dt = secs(t);
        tally.record(dt, &r, false);
        for _ in 0..SETUPS_PER_OP {
            set_up(&mut setups)?;
        }
        if !room_for(start, dt, args.seconds) {
            break;
        }
    }
    let (self_mib, child_mib) = (rss::self_peak_mib(), rss::children_peak_mib());
    while setups.len() < MIN_SETUPS {
        set_up(&mut setups)?;
    }
    let n_setups = setups.len();
    let setup_s = median(&mut setups);
    let mut samples = tally.run_s.clone();
    let run_s = median(&mut samples);
    let values = [run_s, setup_s, self_mib.max(child_mib), w.model_s()];
    let tail = match tail_percentile(&mut samples) {
        Some((p, v)) => format!("; p{p:.0} {v:.6} s"),
        None => "; under 11 samples, no tail percentile".into(),
    };
    let spread = match samples.len() {
        0 => String::new(),
        n => format!(
            "; min {:.6} q1 {:.6} q3 {:.6} s",
            samples[0],
            samples[n / 4],
            samples[3 * n / 4]
        ),
    };
    let notes = [
        format!(
            "median of {} timed operations{tail}{spread}",
            tally.run_s.len()
        ),
        format!(
            "median of {n_setups} set-ups, the first before the loop, the rest between operations"
        ),
        format!(
            "benchmark process {self_mib:.1} MiB, largest worker {child_mib:.1} MiB \
             (a child's figure is at least its spawner's peak at spawn)"
        ),
        "SP2 cost-model output, not a measurement".into(),
    ];
    let mut metrics = Metrics::new();
    for (((name, unit), v), note) in END_TO_END.iter().zip(values).zip(notes) {
        let _ = writeln!(out, "{name:<14} {v:>14.6} {unit:<8} {note}");
        metrics.push((name, v, unit));
    }
    match tally.wire {
        Some((m, b)) => {
            let _ = writeln!(out, "{:<14} {:>14} count/op", "wire_messages", m);
            let _ = writeln!(out, "{:<14} {:>14} B/op", "wire_bytes", b);
        }
        None => {
            let _ = writeln!(
                out,
                "wire_messages, wire_bytes: not reported by this workload"
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<14} {:>14.6} ratio    {} of {} operations",
        "failed_frac",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    let _ = writeln!(
        out,
        "{:<14} {:>14.6} ratio    {} of {} operations",
        "degraded_frac",
        tally.degraded_frac(),
        tally.degraded,
        tally.attempted
    );
    Ok(metrics)
}

fn traced(
    args: &Args,
    w: &dyn workloads::Workload,
    tally: &mut Tally,
    out: &mut String,
) -> Result<Metrics, String> {
    let mut rec = Recorder::default();
    let mut untraced_s = Vec::new();
    let start = Instant::now();
    // Untraced and traced operations alternate, so drift hits both alike.
    loop {
        let t = Instant::now();
        let r = w.run_op();
        let dt = secs(t);
        if matches!(r, Ok(op) if !op.degraded) {
            untraced_s.push(dt);
        }
        tally.record(dt, &r, false);
        rec.next_op();
        let t2 = Instant::now();
        let r = w.run_traced(&mut rec);
        tally.record(secs(t2), &r, false);
        if !room_for(start, secs(t), args.seconds) {
            break;
        }
    }
    let r = w.probe(&mut rec).map(|()| gate::Op {
        degraded: false,
        wire: None,
    });
    tally.record(0.0, &r, true);
    rec.next_op();
    let ab = probes::channel_alpha_beta().and_then(|c| Ok((c, probes::socket_alpha_beta()?)));
    match &ab {
        Ok((c, s)) => {
            rec.add("net.channel_alpha_s", c.alpha_s);
            rec.add("net.channel_beta_s", c.beta_s);
            rec.add("net.socket_alpha_s", s.alpha_s);
            rec.add("net.socket_beta_s", s.beta_s);
        }
        Err(e) => {
            tally.record(0.0, &Err(format!("ping-pong probe: {e}")), true);
        }
    }

    let mut m: BTreeMap<String, f64> = rec.medians();
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied();
    let untraced_med = median(&mut untraced_s);
    if let Some(op) = get(&m, "op_s") {
        m.insert("bench.trace_overhead_frac".into(), op / untraced_med - 1.0);
    }
    if let (Some(stmts), Some(steps)) = (get(&m, "spmd.exec_stmts"), get(&m, "ir.interp_steps")) {
        m.insert("spmd.exec_redundancy".into(), stmts / steps);
    }
    if let (Some(e), Some(r), Some(n)) = (
        get(&m, "spmd.exec_s"),
        get(&m, "spmd.replay_s"),
        get(&m, "kernels.native_s"),
    ) {
        m.insert("spmd.execute_over_native".into(), (e + r) / n);
    }
    if let (Some(run), Some(c), Some(e)) = (
        get(&m, "netrun.run_s"),
        get(&m, "compile.compile_s"),
        get(&m, "spmd.exec_s"),
    ) {
        m.insert("netrun.workers_s".into(), run - c - e);
    }
    if let (Some(run), Some(clean)) = (get(&m, "netrun.run_s"), get(&m, "netrun.clean_s")) {
        m.insert("netrun.recovery_s".into(), run - clean);
    }
    if let (Some(clean), Some(re)) = (
        get(&m, "netrun.wire_messages_clean"),
        get(&m, "net.retransmits"),
    ) {
        m.insert("net.useful_frac".into(), clean / (clean + re));
    }
    if let (Some(on), Some(off)) = (get(&m, "obs.replay_on_s"), get(&m, "obs.replay_off_s")) {
        m.insert("obs.overhead_frac".into(), on / off - 1.0);
    }
    if let Some((msgs, bytes)) = tally.wire {
        m.insert("wire_messages".into(), msgs as f64);
        m.insert("wire_bytes".into(), bytes as f64);
    }
    m.insert("degraded_frac".into(), tally.degraded_frac());
    m.insert("failed_frac".into(), tally.failed_frac());

    let _ = writeln!(
        out,
        "traced run: {} traced operations, untraced median {untraced_med:.6} s",
        untraced_s.len()
    );
    let mut metrics = Metrics::new();
    let mut absent = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = match m.get(name) {
            Some(&v) => v,
            None => {
                absent.push(name);
                0.0
            }
        };
        let _ = writeln!(out, "{name:<30} {v:>16.9} {unit}");
        metrics.push((name, v, unit));
    }
    if !absent.is_empty() {
        let _ = writeln!(
            out,
            "not exercised by {} (reported as 0): {}",
            args.workload,
            absent.join(", ")
        );
    }
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, rec.to_chrome_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(out, "spans written to {}", path.display());
    Ok(metrics)
}

/// Peak resident memory.
mod rss {
    /// Peak resident set of this process (`VmHWM`), in MiB.
    pub fn self_peak_mib() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Peak resident set of the largest child process waited for so far
    /// (the socket workers), in MiB.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn children_peak_mib() -> f64 {
        /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
        /// the first of which is `ru_maxrss` in KiB.
        #[repr(C)]
        struct Rusage {
            times: [i64; 4],
            maxrss: i64,
            rest: [i64; 13],
        }
        const RUSAGE_CHILDREN: i32 = -1;
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        let mut u = Rusage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `u` is a writable, properly aligned `struct rusage` of the
        // platform's layout, and `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
        if rc == 0 {
            u.maxrss as f64 / 1024.0
        } else {
            0.0
        }
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn children_peak_mib() -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let squashed: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in workloads::NAMES {
            assert!(
                squashed.contains(&format!("{{\"name\":\"{name}\",\"why\"")),
                "{name}"
            );
        }
        let names = squashed.matches("\"name\":").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + workloads::NAMES.len()
        );
    }
}
