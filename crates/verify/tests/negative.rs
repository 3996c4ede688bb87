//! The hand-corrupted corpus: every class of schedule / decision
//! corruption must trip its intended diagnostic, with the offending
//! statement or epoch named. These are the verifier's teeth — the
//! kernels prove no false positives, this file proves no false
//! negatives on the bug classes the ISSUE names.

use hpf_analysis::Analysis;
use hpf_dist::MappingTable;
use hpf_ir::{parse_program, LValue, Program, Stmt, StmtId};
use hpf_spmd::{Event, SpmdExec, SpmdProgram};
use hpf_verify::csp::simulate;
use phpf_core::{CoreConfig, Decisions, ScalarMapping};

fn analysis_pipeline(src: &str) -> (Program, MappingTable, Decisions) {
    let p = parse_program(src).expect("parses");
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).expect("maps");
    let d = phpf_core::map_program(&p, &a, &maps, CoreConfig::full());
    (p, maps, d)
}

fn lower_with(p: &Program, maps: &MappingTable, d: Decisions) -> SpmdProgram {
    let a = Analysis::run(p);
    hpf_spmd::lower(p, &a, maps, d)
}

/// Definition statement of scalar `name` inside a loop (first match).
fn scalar_def(p: &Program, name: &str, rhs_contains: Option<&str>) -> StmtId {
    let v = p.vars.lookup(name).expect("scalar exists");
    p.preorder()
        .into_iter()
        .find(|&s| {
            matches!(p.stmt(s), Stmt::Assign { lhs: LValue::Scalar(w), .. } if *w == v)
                && rhs_contains.is_none_or(|frag| {
                    hpf_verify::render::stmt_text(p, s).contains(frag)
                })
        })
        .expect("definition exists")
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

fn fig1_spmd() -> SpmdProgram {
    let (p, maps, d) = analysis_pipeline(FIG1);
    lower_with(&p, &maps, d)
}

fn fig1_trace_and_cuts(sp: &SpmdProgram) -> (hpf_spmd::Trace, Vec<Vec<usize>>) {
    let mut exec = SpmdExec::new(sp, |_| {}).with_trace();
    exec.run().expect("figure 1 executes");
    let cuts = exec.epoch_cuts().to_vec();
    (exec.trace.take().unwrap(), cuts)
}

// ---------------------------------------------------------------- schedule

/// Corruption 1: drop a receive. The link's per-epoch unit counts no
/// longer balance (S101).
#[test]
fn dropped_recv_trips_s101() {
    let sp = fig1_spmd();
    let (mut trace, cuts) = fig1_trace_and_cuts(&sp);
    let victim = trace
        .iter()
        .enumerate()
        .find_map(|(r, evs)| {
            evs.iter()
                .position(|e| matches!(e, Event::Recv { .. } | Event::RecvVec { .. }))
                .map(|i| (r, i))
        })
        .expect("figure 1 communicates");
    trace[victim.0].remove(victim.1);
    let report = hpf_verify::verify_schedule_trace(&sp, &trace, &cuts);
    assert!(report.has("S101"), "got: {:#?}", report.diags);
    let msg = &report
        .errors()
        .find(|d| d.code == "S101")
        .unwrap()
        .message;
    assert!(msg.contains("epoch"), "names the epoch: {}", msg);
}

/// Corruption 2: move an epoch cut between a matched send and its
/// receive — the message crosses the cut (S103), the restart bug class.
#[test]
fn reordered_epoch_cut_trips_s103() {
    let sp = fig1_spmd();
    let (trace, _) = fig1_trace_and_cuts(&sp);
    let sim = simulate(&trace);
    assert!(sim.deadlock.is_none());
    let pair = sim.pairs.first().expect("figure 1 matches pairs");
    // Cut everyone at end-of-trace, except the receiver: its cut lands
    // just before the receive, pushing the receive into the next epoch
    // while the send stays in epoch 0.
    let mut cut: Vec<usize> = trace.iter().map(|t| t.len()).collect();
    cut[pair.recv.0] = pair.recv.1;
    let zeros = vec![0; trace.len()];
    let lens: Vec<usize> = trace.iter().map(|t| t.len()).collect();
    let corrupted = vec![zeros, cut, lens];
    let report = hpf_verify::verify_schedule_trace(&sp, &trace, &corrupted);
    assert!(report.has("S103"), "got: {:#?}", report.diags);
    let msg = &report
        .errors()
        .find(|d| d.code == "S103")
        .unwrap()
        .message;
    assert!(msg.contains("epoch"), "names the epochs: {}", msg);
}

/// Corruption 2b: the same cut trick on a coalesced pair is exactly an
/// unclosed coalescing group at the cut; the diagnostic says so.
#[test]
fn unclosed_coalescing_group_trips_s103() {
    let sp = fig1_spmd();
    let (trace, _) = fig1_trace_and_cuts(&sp);
    let sim = simulate(&trace);
    let pair = sim
        .pairs
        .iter()
        .find(|pr| matches!(trace[pr.send.0][pr.send.1], Event::SendVec { .. }))
        .expect("figure 1 has vectorized transfers");
    let mut cut: Vec<usize> = trace.iter().map(|t| t.len()).collect();
    cut[pair.recv.0] = pair.recv.1;
    let zeros = vec![0; trace.len()];
    let lens: Vec<usize> = trace.iter().map(|t| t.len()).collect();
    let report =
        hpf_verify::verify_schedule_trace(&sp, &trace, &[zeros, cut, lens]);
    assert!(
        report
            .errors()
            .any(|d| d.code == "S103" && d.message.contains("coalescing group")),
        "got: {:#?}",
        report.diags
    );
}

/// Corruption 3: truncate a coalesced receive's slot vector — the pair
/// no longer agrees on the payload (S104).
#[test]
fn truncated_recvvec_slots_trip_s104() {
    // A shift wide enough that each link's coalesced transfer carries
    // several elements (FIG1's shifts cross one boundary element only).
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20)
INTEGER i
DO i = 1, 16
  B(i) = A(i+4)
END DO
"#;
    let (p, maps, d) = analysis_pipeline(src);
    let mut sp = lower_with(&p, &maps, d);
    let a = Analysis::run(&p);
    hpf_spmd::combine_messages(&mut sp, &a);
    let (mut trace, cuts) = fig1_trace_and_cuts(&sp);
    let victim = trace
        .iter()
        .enumerate()
        .find_map(|(r, evs)| {
            evs.iter()
                .position(
                    |e| matches!(e, Event::RecvVec { slots, .. } if slots.len() > 1),
                )
                .map(|i| (r, i))
        })
        .expect("figure 1 has coalesced receives");
    if let Event::RecvVec { slots, .. } = &mut trace[victim.0][victim.1] {
        slots.pop();
    }
    let report = hpf_verify::verify_schedule_trace(&sp, &trace, &cuts);
    assert!(report.has("S104"), "got: {:#?}", report.diags);
}

/// A circular wait deadlocks the CSP (S102), naming the blocked ranks.
#[test]
fn circular_wait_trips_s102() {
    let sp = fig1_spmd();
    let (trace, cuts) = fig1_trace_and_cuts(&sp);
    // Synthetic 2-rank circular wait grafted onto the program: both
    // ranks receive first, so neither send is ever reached.
    let x = sp.program.vars.lookup("x").expect("x exists");
    let slot = hpf_spmd::Slot::Scalar(x);
    let tag = hpf_spmd::Tag::Untracked(0);
    let mut corrupted: hpf_spmd::Trace = vec![Vec::new(); trace.len()];
    corrupted[0] = vec![
        Event::Recv { from: 1, slot, tag },
        Event::Send { to: 1, slot, tag },
    ];
    corrupted[1] = vec![
        Event::Recv { from: 0, slot, tag },
        Event::Send { to: 0, slot, tag },
    ];
    let report = hpf_verify::verify_schedule_trace(&sp, &corrupted, &cuts);
    assert!(report.has("S102"), "got: {:#?}", report.diags);
    let diag = report.errors().find(|d| d.code == "S102").unwrap();
    assert!(
        diag.notes.iter().any(|n| n.contains("rank 0")) &&
        diag.notes.iter().any(|n| n.contains("rank 1")),
        "names the blocked ranks: {:#?}",
        diag
    );
}

// ------------------------------------------------------------------ races

/// Two ranks writing the same owned element with no ordering edge is a
/// race (R201).
#[test]
fn unordered_concurrent_writes_trip_r201() {
    let src = r#"
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(4)
INTEGER i
DO i = 1, 4
  A(i) = 1.0
END DO
"#;
    let (p, maps, d) = analysis_pipeline(src);
    let sp = lower_with(&p, &maps, d);
    let i = p.vars.lookup("i").unwrap();
    let stmt = p
        .preorder()
        .into_iter()
        .find(|&s| matches!(p.stmt(s), Stmt::Assign { lhs: LValue::Array(_), .. }))
        .unwrap();
    // Both ranks claim the write of A(1); no message orders them.
    let corrupted: hpf_spmd::Trace = vec![
        vec![Event::Exec {
            stmt,
            env: [(i, 1)].into(),
        }],
        vec![Event::Exec {
            stmt,
            env: [(i, 1)].into(),
        }],
    ];
    let report = hpf_verify::verify_schedule_trace(&sp, &corrupted, &[]);
    assert!(report.has("R201"), "got: {:#?}", report.diags);
    let msg = &report
        .errors()
        .find(|d| d.code == "R201")
        .unwrap()
        .message;
    assert!(msg.contains("a(1)"), "names the element: {}", msg);
}

// ---------------------------------------------------- decision corruption

/// Corruption 4: privatize a definition whose value flows across
/// iterations (the use reads the previous iteration's def through the
/// loop back edge) — V001.
#[test]
fn cross_iteration_flow_trips_v001() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20)
INTEGER i
REAL x
x = 0.0
DO i = 2, 19
  A(i) = x + 1.0
  x = B(i)
END DO
"#;
    let (p, maps, mut d) = analysis_pipeline(src);
    let def = scalar_def(&p, "x", Some("b(i)"));
    assert!(
        !d.scalar(def).is_privatized(),
        "the mapper must refuse this privatization itself"
    );
    d.set_scalar(def, ScalarMapping::PrivateNoAlign);
    let sp = lower_with(&p, &maps, d);
    let report = hpf_verify::verify_static(&sp);
    assert!(report.has("V001"), "got: {:#?}", report.diags);
    let diag = report.errors().find(|d| d.code == "V001").unwrap();
    assert_eq!(diag.stmt, Some(def), "anchored to the corrupted def");
}

/// Privatizing one of two conditional defs that both reach the same use
/// violates the unique-reaching-def condition — V006, naming the
/// witnessing use.
#[test]
fn non_unique_def_trips_v006() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20), C(20)
INTEGER i
REAL x
DO i = 2, 19
  IF (B(i) .GT. 0.0) THEN
    x = B(i)
  ELSE
    x = C(i)
  END IF
  A(i) = x
END DO
"#;
    let (p, maps, mut d) = analysis_pipeline(src);
    let def = scalar_def(&p, "x", Some("b(i)"));
    d.set_scalar(def, ScalarMapping::PrivateNoAlign);
    let sp = lower_with(&p, &maps, d);
    let report = hpf_verify::verify_static(&sp);
    assert!(report.has("V006"), "got: {:#?}", report.diags);
    let diag = report.errors().find(|d| d.code == "V006").unwrap();
    assert_eq!(diag.stmt, Some(def));
    assert!(
        diag.notes.iter().any(|n| n.contains("witnessing use")),
        "carries the witnessing use: {:#?}",
        diag
    );
}

/// Aligning a definition to a target that varies deeper than the
/// privatization loop moves the home mid-iteration — V005.
#[test]
fn deep_alignment_target_trips_v005() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20)
INTEGER i, j
REAL x
DO j = 1, 3
  x = 1.5
  DO i = 2, 19
    A(i) = A(i) + x
  END DO
END DO
"#;
    let (p, maps, mut d) = analysis_pipeline(src);
    let def = scalar_def(&p, "x", None);
    let (target_stmt, target) = p
        .preorder()
        .into_iter()
        .find_map(|s| match p.stmt(s) {
            Stmt::Assign {
                lhs: LValue::Array(r),
                ..
            } => Some((s, r.clone())),
            _ => None,
        })
        .expect("inner array write exists");
    d.set_scalar(
        def,
        ScalarMapping::Aligned {
            target_stmt,
            target,
            from_consumer: true,
        },
    );
    let sp = lower_with(&p, &maps, d);
    let report = hpf_verify::verify_static(&sp);
    assert!(report.has("V005"), "got: {:#?}", report.diags);
}

/// Privatizing an array the analyses cannot prove loop-private — V007.
#[test]
fn illegal_array_privatization_trips_v007() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), W(20)
INTEGER i, j
DO j = 1, 3
  DO i = 2, 19
    W(i) = A(i) * 2.0
  END DO
  DO i = 2, 19
    A(i) = W(i-1)
  END DO
END DO
"#;
    let (p, maps, mut d) = analysis_pipeline(src);
    let w = p.vars.lookup("w").unwrap();
    let outer = p
        .preorder()
        .into_iter()
        .find(|&s| p.stmt(s).is_loop())
        .unwrap();
    // W is live across the two inner loops (read at i-1 after being
    // written at i): privatizing it w.r.t. the outer loop is illegal
    // only if reads are uncovered — here reads of W(1) at i=2 read the
    // previous outer iteration's value. Force the decision.
    d.arrays.insert(
        (outer, w),
        phpf_core::ArrayMappingDecision::FullPrivate { target: None },
    );
    let sp = lower_with(&p, &maps, d);
    let report = hpf_verify::verify_static(&sp);
    assert!(report.has("V007"), "got: {:#?}", report.diags);
}

fn first_error_code(report: &hpf_verify::VerifyReport) -> Option<&'static str> {
    report.errors().map(|d| d.code).next()
}

/// The clean baseline stays clean: the corruption harness itself does
/// not invent diagnostics.
#[test]
fn uncorrupted_baseline_is_clean() {
    let sp = fig1_spmd();
    let (trace, cuts) = fig1_trace_and_cuts(&sp);
    let report = hpf_verify::verify_schedule_trace(&sp, &trace, &cuts);
    assert!(
        report.is_clean(),
        "baseline raised {:?}: {:#?}",
        first_error_code(&report),
        report.diags
    );
}
