//! Golden figures of the reference executor on the three paper kernels at
//! small size, in both vectorization modes: its statistics, the per-rank
//! length of its recorded trace, the number of epoch cuts and the wire
//! counters. They pin what the executor does, so a change to how it does
//! it (allocation, lookup tables, shared loop environments) must reproduce
//! them exactly. The untraced run must agree with the traced one, and the
//! static verifier must stay clean.

use phpf::compile::netrun::NetJob;
use phpf::ir::Memory;
use phpf::spmd::{ExecStats, SpmdExec};

/// What one kernel's run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats: ExecStats,
    events_per_rank: Vec<usize>,
    epoch_cuts: usize,
    /// FNV-1a digest of the trace's `Debug` text: the events themselves,
    /// loop environments included.
    trace_digest: u64,
    messages: u64,
    bytes: u64,
}

fn run(source: &str, vectorize: bool) -> Golden {
    let job = NetJob::new(source.to_string())
        .with_default_fills()
        .expect("kernel compiles");
    let compiled = job.compile().expect("kernel compiles");
    let fills: Vec<(phpf::ir::VarId, Vec<f64>)> = job
        .fills
        .iter()
        .map(|(n, d)| {
            (
                compiled.spmd.program.vars.lookup(n).expect("fill var"),
                d.clone(),
            )
        })
        .collect();
    let init = move |m: &mut Memory| {
        for (v, data) in &fills {
            m.fill_real(*v, data);
        }
    };
    let report = compiled.verify(&init);
    assert!(report.is_clean(), "verifier not clean: {:#?}", report);

    let executor = || {
        let exec = SpmdExec::new(&compiled.spmd, &init);
        if vectorize {
            exec
        } else {
            exec.without_vectorization()
        }
    };
    let mut traced = executor().with_trace();
    let stats = traced.run().expect("traced run");
    let mut plain = executor();
    assert_eq!(
        plain.run().expect("untraced run"),
        stats,
        "tracing changed the stats"
    );
    assert_eq!(
        plain.metrics, traced.metrics,
        "tracing changed the wire counters"
    );
    Golden {
        stats,
        events_per_rank: traced
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .map(Vec::len)
            .collect(),
        epoch_cuts: traced.epoch_cuts().len(),
        trace_digest: fnv1a(format!("{:?}", traced.trace.as_ref().unwrap()).as_bytes()),
        messages: traced.metrics.messages(),
        bytes: traced.metrics.bytes(),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check(source: &str, vectorize: bool, want: Golden) {
    assert_eq!(run(source, vectorize), want, "vectorize = {vectorize}");
}

const TOMCATV: &str = include_str!("../examples/hpf/tomcatv_small.hpf");
const DGEFA: &str = include_str!("../examples/hpf/dgefa_small.hpf");
const APPSP: &str = include_str!("../examples/hpf/appsp_small.hpf");

/// A row sum and a MAXLOC pivot search whose reduction dimension spans
/// processors, so the loop exits run reduction combines.
const REDUCTIONS: &str = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ ALIGN B(i) WITH A(i,1)
!HPF$ DISTRIBUTE (BLOCK, CYCLIC) :: A
REAL A(8,8), B(8)
INTEGER i, j, k, l
REAL s, tmax
DO i = 1, 8
  s = 0.0
  DO j = 1, 8
    s = s + A(i,j)
  END DO
  B(i) = s
END DO
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

#[test]
fn golden_exec_tomcatv() {
    check(
        TOMCATV,
        true,
        Golden {
            stats: ExecStats {
                messages: 960,
                bytes: 7680,
                combines: 0,
                stmt_execs: 3400,
            },
            events_per_rank: vec![712, 1084, 1084, 712],
            epoch_cuts: 3,
            trace_digest: 14235743506692662781,
            messages: 96,
            bytes: 7680,
        },
    );
    check(
        TOMCATV,
        false,
        Golden {
            stats: ExecStats {
                messages: 960,
                bytes: 7680,
                combines: 0,
                stmt_execs: 3400,
            },
            events_per_rank: vec![1000, 1660, 1660, 1000],
            epoch_cuts: 3,
            trace_digest: 6329363129739354017,
            messages: 960,
            bytes: 7680,
        },
    );
}

#[test]
fn golden_exec_dgefa() {
    check(
        DGEFA,
        true,
        Golden {
            stats: ExecStats {
                messages: 501,
                bytes: 3584,
                combines: 0,
                stmt_execs: 858,
            },
            events_per_rank: vec![246, 260, 263, 279],
            epoch_cuts: 12,
            trace_digest: 16639591487636436725,
            messages: 68,
            bytes: 1624,
        },
    );
    check(
        DGEFA,
        false,
        Golden {
            stats: ExecStats {
                messages: 501,
                bytes: 3584,
                combines: 0,
                stmt_execs: 858,
            },
            events_per_rank: vec![484, 486, 462, 482],
            epoch_cuts: 12,
            trace_digest: 8520207773573162989,
            messages: 501,
            bytes: 3584,
        },
    );
}

#[test]
fn golden_exec_appsp() {
    check(
        APPSP,
        true,
        Golden {
            stats: ExecStats {
                messages: 768,
                bytes: 6144,
                combines: 0,
                stmt_execs: 1816,
            },
            events_per_rank: vec![400, 532, 532, 400],
            epoch_cuts: 2,
            trace_digest: 3648466561244093211,
            messages: 24,
            bytes: 6144,
        },
    );
    check(
        APPSP,
        false,
        Golden {
            stats: ExecStats {
                messages: 768,
                bytes: 6144,
                combines: 0,
                stmt_execs: 1816,
            },
            events_per_rank: vec![772, 904, 904, 772],
            epoch_cuts: 2,
            trace_digest: 10324935529854897115,
            messages: 768,
            bytes: 6144,
        },
    );
}

#[test]
fn golden_exec_reductions() {
    check(
        REDUCTIONS,
        true,
        Golden {
            stats: ExecStats {
                messages: 10,
                bytes: 64,
                combines: 60,
                stmt_execs: 202,
            },
            events_per_rank: vec![102, 96, 114, 102],
            epoch_cuts: 16,
            trace_digest: 4947661964441349828,
            messages: 98,
            bytes: 656,
        },
    );
    check(
        REDUCTIONS,
        false,
        Golden {
            stats: ExecStats {
                messages: 10,
                bytes: 64,
                combines: 60,
                stmt_execs: 202,
            },
            events_per_rank: vec![102, 96, 114, 102],
            epoch_cuts: 16,
            trace_digest: 4947661964441349828,
            messages: 98,
            bytes: 656,
        },
    );
}
