//! Backend differential suite: the threaded channel backend and the
//! multi-process socket backend must be *observationally identical* on
//! the paper's kernels — same owner memories, same per-pattern and
//! per-operation message/byte/element counts — in both replay modes
//! (vectorized and per-element). Only `max_in_flight` may differ: it is
//! a queue-depth gauge, not a traffic count, and depends on scheduling.

use phpf::compile::netrun::{self, NetJob, NetRunConfig};
use phpf::compile::Version;
use phpf::kernels::{appsp, dgefa, tomcatv};
use phpf::obs::Trace;
use phpf::spmd::{
    check_owner_slots, validate_replay_traced, CommMetrics, Recorded, Replayed,
};

/// Run one kernel on both backends with identical deterministic fills and
/// assert traffic + memory equivalence.
fn differential(name: &str, source: String, vectorize: bool) {
    let mut job = NetJob::new(source);
    job.vectorize = vectorize;
    job.version = Version::SelectedAlignment;
    let job = job.with_default_fills().expect("kernel compiles");
    let compiled = job.compile().unwrap();

    // Thread backend, same fills as the socket job spec.
    let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
        .fills
        .iter()
        .map(|(n, data)| {
            (
                compiled.spmd.program.vars.lookup(n).expect("fill var"),
                data.clone(),
            )
        })
        .collect();
    let threads: Replayed = validate_replay_traced(
        &compiled.spmd,
        move |m| {
            for (v, data) in &fills {
                m.fill_real(*v, data);
            }
        },
        vectorize,
        false,
    )
    .unwrap_or_else(|e| panic!("{name}: thread backend: {e}"));

    // Socket backend: one OS process per virtual processor.
    let sockets: Replayed = netrun::socket_validate_replay(&job, &NetRunConfig::default())
        .unwrap_or_else(|e| panic!("{name}: socket backend: {e}"));

    // Owner slots must agree between the two backends (each already
    // matched the reference executor; this closes the triangle).
    check_owner_slots(&compiled.spmd, &sockets.mems, &threads.mems)
        .unwrap_or_else(|e| panic!("{name}: socket vs thread memories: {e}"));

    assert_traffic_identical(name, vectorize, &threads.metrics, &sockets.metrics);
    assert_eq!(
        threads.stats.messages_sent, sockets.stats.messages_sent,
        "{name}: replay stats disagree on message count"
    );
}

/// Everything except the `max_in_flight` gauge must match exactly.
fn assert_traffic_identical(name: &str, vectorize: bool, t: &CommMetrics, s: &CommMetrics) {
    let mode = if vectorize { "vectorized" } else { "per-element" };
    assert_eq!(
        t.per_pattern, s.per_pattern,
        "{name} ({mode}): per-pattern counters diverge"
    );
    assert_eq!(
        t.per_op, s.per_op,
        "{name} ({mode}): per-operation counters diverge"
    );
    assert_eq!(
        t.per_proc, s.per_proc,
        "{name} ({mode}): per-processor counters diverge"
    );
    assert_eq!(
        t.untracked_messages, s.untracked_messages,
        "{name} ({mode}): untracked message counts diverge"
    );
    // Byte parity across the whole run: the Arc-shared payload refactor on
    // the threaded path must not change what the meters record.
    let bytes = |m: &CommMetrics| m.per_proc.iter().map(|p| p.sent_bytes).sum::<u64>();
    assert_eq!(bytes(t), bytes(s), "{name} ({mode}): total byte counts diverge");
}

#[test]
fn tomcatv_thread_vs_socket_vectorized() {
    differential("TOMCATV", tomcatv::source(12, 4, 2), true);
}

#[test]
fn tomcatv_thread_vs_socket_per_element() {
    differential("TOMCATV", tomcatv::source(12, 4, 2), false);
}

#[test]
fn dgefa_thread_vs_socket_vectorized() {
    differential("DGEFA", dgefa::source(12, 4), true);
}

#[test]
fn dgefa_thread_vs_socket_per_element() {
    differential("DGEFA", dgefa::source(12, 4), false);
}

#[test]
fn appsp_thread_vs_socket_vectorized() {
    differential("APPSP", appsp::source_1d(8, 4, 1), true);
}

#[test]
fn appsp_thread_vs_socket_per_element() {
    differential("APPSP", appsp::source_1d(8, 4, 1), false);
}

// ---------------------------------------------------------------------
// Golden traces: the observability layer must report the *same story*
// every run and on both backends. The trace signature strips timestamps
// and wire sequence numbers (the only legitimately nondeterministic
// fields); everything else — event kinds, endpoints, ops, patterns, loop
// levels, vectorization placements, element counts, per-stream order —
// is golden.
// ---------------------------------------------------------------------

/// Replay `source` on the threaded backend with tracing and return the
/// merged trace.
fn thread_trace(source: &str) -> Trace {
    let job = NetJob::new(source.to_string())
        .with_default_fills()
        .expect("kernel compiles");
    let compiled = job.compile().unwrap();
    let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
        .fills
        .iter()
        .map(|(n, d)| (compiled.spmd.program.vars.lookup(n).unwrap(), d.clone()))
        .collect();
    let r = validate_replay_traced(
        &compiled.spmd,
        move |m| {
            for (v, data) in &fills {
                m.fill_real(*v, data);
            }
        },
        true,
        true,
    )
    .expect("thread replay");
    r.obs.expect("trace requested")
}

/// Replay `source` on the socket backend with tracing and return the
/// merged trace (driver pipeline spans + per-rank timelines).
fn socket_trace(source: &str) -> Trace {
    let mut job = NetJob::new(source.to_string());
    job.trace = true;
    let job = job.with_default_fills().expect("kernel compiles");
    let r = netrun::socket_validate_replay(&job, &NetRunConfig::default())
        .expect("socket replay");
    r.obs.expect("trace requested")
}

/// One kernel's golden-trace contract: stable across runs, well nested,
/// and identical between backends rank by rank.
fn golden_trace(name: &str, source: &str) {
    // Run-to-run stability on each backend: the canonical merge order is
    // per-stream recording order, so the full signature is deterministic.
    let t1 = thread_trace(source);
    let t2 = thread_trace(source);
    assert_eq!(
        t1.signature(),
        t2.signature(),
        "{name}: thread trace differs between runs"
    );
    let s1 = socket_trace(source);
    let s2 = socket_trace(source);
    assert_eq!(
        s1.signature(),
        s2.signature(),
        "{name}: socket trace differs between runs"
    );

    // Spans strictly nest on every stream.
    t1.check_nesting().unwrap_or_else(|e| panic!("{name}: thread trace nesting: {e}"));
    s1.check_nesting().unwrap_or_else(|e| panic!("{name}: socket trace nesting: {e}"));

    // The socket driver records the full pipeline phase sequence plus the
    // reference execution and the replay window, in order.
    let names = s1.span_names();
    let expected = ["parse", "ssa", "mapping", "privatization", "lower", "reference-exec", "replay"];
    assert_eq!(names, expected, "{name}: socket pipeline span sequence");

    // Backend equivalence modulo rank interleaving: each rank tells an
    // identical comm story on threads and on sockets.
    assert_eq!(t1.nranks(), s1.nranks(), "{name}: rank counts diverge");
    for r in 0..t1.nranks() {
        assert_eq!(
            t1.comm_signature(r),
            s1.comm_signature(r),
            "{name}: rank {r} comm timeline diverges between backends"
        );
    }

    // No faults on a clean run, and some communication actually happened.
    assert!(t1.fault_names().is_empty(), "{name}: unexpected thread faults");
    assert!(s1.fault_names().is_empty(), "{name}: unexpected socket faults");
    assert!(t1.comm_counts().total_sends() > 0, "{name}: empty comm timeline");
}

#[test]
fn golden_trace_tomcatv_small() {
    golden_trace("TOMCATV", include_str!("../examples/hpf/tomcatv_small.hpf"));
}

#[test]
fn golden_trace_dgefa_small() {
    golden_trace("DGEFA", include_str!("../examples/hpf/dgefa_small.hpf"));
}

#[test]
fn golden_trace_appsp_small() {
    golden_trace("APPSP", include_str!("../examples/hpf/appsp_small.hpf"));
}

/// The threaded replay books exactly what the reference executor books —
/// per processor, per pattern and per operation, in both replay modes —
/// and the comm timeline the executor derives from its recorded trace is
/// the one the replay records, rank by rank. Per-element `Send`/`Recv`
/// events carry the executor's attribution, and sharing a vectorized
/// payload buffer between destinations is invisible to the meters.
#[test]
fn arc_payloads_leave_recorded_bytes_unchanged() {
    let kernels = [
        ("TOMCATV", tomcatv::source(12, 4, 2)),
        ("DGEFA", dgefa::source(12, 4)),
        ("APPSP", appsp::source_1d(8, 4, 1)),
    ];
    for (name, source) in kernels {
        for vectorize in [true, false] {
            let job = NetJob::new(source.clone()).with_default_fills().unwrap();
            let compiled = job.compile().unwrap();
            let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
                .fills
                .iter()
                .map(|(n, d)| (compiled.spmd.program.vars.lookup(n).unwrap(), d.clone()))
                .collect();
            let init = move |m: &mut phpf::ir::Memory| {
                for (v, data) in &fills {
                    m.fill_real(*v, data);
                }
            };
            let rec = Recorded::run(&compiled.spmd, &init, vectorize).unwrap();
            let replayed =
                validate_replay_traced(&compiled.spmd, &init, vectorize, true).unwrap();
            assert_traffic_identical(name, vectorize, &rec.metrics, &replayed.metrics);

            let mode = if vectorize { "vectorized" } else { "per-element" };
            let derived = rec.obs(&compiled.spmd);
            let recorded = replayed.obs.expect("trace requested");
            assert_eq!(derived.nranks(), recorded.nranks(), "{name} ({mode}): rank counts");
            for r in 0..derived.nranks() {
                assert_eq!(
                    derived.comm_signature(r),
                    recorded.comm_signature(r),
                    "{name} ({mode}): rank {r} executor timeline diverges from the replay's"
                );
            }
        }
    }
}
