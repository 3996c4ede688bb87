//! Failure injection: the validators must *catch* broken compilations and
//! broken schedules, not just bless correct ones. Each test sabotages one
//! layer and asserts the corresponding checker fails loudly.

use phpf::analysis::Analysis;
use phpf::compile::{compile_source, Options, Version};
use phpf::core::{Decisions, ScalarMapping};
use phpf::dist::MappingTable;
use phpf::ir::interp::InterpError;
use phpf::ir::{parse_program, ArrayRef, Expr, Interp, Memory};
use phpf::spmd::exec::Event;
use phpf::spmd::{lower, validate_against_sequential, SpmdExec};

const STENCIL: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i
REAL t
DO i = 2, 15
  t = B(i-1) + B(i+1)
  A(i) = t * 0.5
END DO
"#;

/// Sabotage the mapping: align the (non-privatizable placement of) t with
/// a *wrong* reference so its value is read from the wrong owner. The
/// semantic validator must detect the divergence.
#[test]
fn wrong_alignment_is_caught() {
    let p = parse_program(STENCIL).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let mut d: Decisions = phpf::core::map_program(
        &p,
        &a,
        &maps,
        phpf::core::CoreConfig::full(),
    );
    // Find t's def and misalign it with A(i-5) — a different owner than
    // its consumer A(i), without any communication op to compensate.
    let t = p.vars.lookup("t").unwrap();
    let t_def = phpf::ir::visit::defs_of(&p, t)[0];
    let av = p.vars.lookup("a").unwrap();
    let i = p.vars.lookup("i").unwrap();
    d.set_scalar(
        t_def,
        ScalarMapping::Aligned {
            target_stmt: t_def,
            target: ArrayRef::new(av, vec![Expr::scalar(i).sub(Expr::int(5))]),
            from_consumer: true,
        },
    );
    // Drop the compensating communication ops so the sabotage is real.
    let mut sp = lower(&p, &a, &maps, d);
    sp.comms.clear();
    let b = p.vars.lookup("b").unwrap();
    let res = validate_against_sequential(&sp, move |m| {
        let data: Vec<f64> = (0..16).map(|k| (k * k) as f64).collect();
        m.fill_real(b, &data);
    });
    // Either the executor hits an out-of-bounds owner evaluation or the
    // results diverge — both are detection.
    assert!(res.is_err(), "sabotaged alignment must not validate");
}

/// Sabotage the recorded schedule: drop one Send event. The threaded
/// replay must fail (a Recv blocks forever is avoided because the channel
/// disconnects when the sender thread finishes → recv error).
#[test]
fn dropped_message_is_caught() {
    let c = compile_source(STENCIL, Options::new(Version::SelectedAlignment)).unwrap();
    let b = c.spmd.program.vars.lookup("b").unwrap();
    let init = move |m: &mut phpf::ir::Memory| {
        let data: Vec<f64> = (0..16).map(|k| 0.5 + k as f64).collect();
        m.fill_real(b, &data);
    };
    let mut exec = SpmdExec::new(&c.spmd, init).with_trace();
    exec.run().unwrap();
    let mut trace = exec.trace.take().unwrap();
    // Remove the first outgoing message anywhere (per-element or
    // vectorized).
    let mut removed = false;
    for evs in trace.iter_mut() {
        if let Some(pos) = evs
            .iter()
            .position(|e| matches!(e, Event::Send { .. } | Event::SendVec { .. }))
        {
            evs.remove(pos);
            removed = true;
            break;
        }
    }
    assert!(removed, "trace contained messages to sabotage");
    let res = phpf::spmd::runtime::replay(&c.spmd, &trace, init, false);
    assert!(res.is_err(), "replay of a sabotaged schedule must fail");
}

/// A corrupted value in flight must be caught by the cross-check: swap a
/// Recv's slot so the value lands in the wrong place.
#[test]
fn misrouted_message_is_caught() {
    let c = compile_source(STENCIL, Options::new(Version::SelectedAlignment)).unwrap();
    let b = c.spmd.program.vars.lookup("b").unwrap();
    let init = move |m: &mut phpf::ir::Memory| {
        let data: Vec<f64> = (0..16).map(|k| 1.0 + (k as f64) * 0.3).collect();
        m.fill_real(b, &data);
    };
    let mut exec = SpmdExec::new(&c.spmd, init).with_trace();
    exec.run().unwrap();
    let mut trace = exec.trace.take().unwrap();
    // Redirect the first received element into a different slot
    // (per-element Recv or a slot inside a coalesced RecvVec).
    let misroute = |slot: &mut phpf::spmd::exec::Slot| -> bool {
        if let phpf::spmd::exec::Slot::Elem(v, off) = slot {
            *slot = phpf::spmd::exec::Slot::Elem(
                *v,
                if *off == 0 { 1 } else { off.wrapping_sub(1) },
            );
            true
        } else {
            false
        }
    };
    let mut sabotaged = false;
    'outer: for evs in trace.iter_mut() {
        for e in evs.iter_mut() {
            let hit = match e {
                Event::Recv { slot, .. } => misroute(slot),
                Event::RecvVec { slots, .. } => slots.iter_mut().any(misroute),
                _ => false,
            };
            if hit {
                sabotaged = true;
                break 'outer;
            }
        }
    }
    assert!(sabotaged);
    let res = phpf::spmd::runtime::replay(&c.spmd, &trace, init, false);
    match res {
        Err(_) => {}
        Ok(replayed) => {
            // Replay ran; the memories must now differ from the reference.
            let mut exec2 = SpmdExec::new(&c.spmd, init);
            exec2.run().unwrap();
            let a_var = c.spmd.program.vars.lookup("a").unwrap();
            let differs = replayed
                .mems
                .iter()
                .zip(&exec2.mems)
                .any(|(got, want)| got.array(a_var) != want.array(a_var));
            assert!(differs, "misrouted value must corrupt some copy");
        }
    }
}

/// Runtime errors surface identically from the sequential interpreter and
/// the SPMD executor: the same `InterpError` variant naming the same array,
/// never a panic. The executor runs on its own here, so its error paths —
/// not the interpreter's, which fails first inside
/// `validate_against_sequential` — are the ones exercised.
#[test]
fn runtime_errors_agree_with_interp() {
    let cases = [
        ("out-of-bounds read", "B(i) = A(i+1)", Some("a")),
        ("out-of-bounds write", "A(i+1) = 1.0", Some("a")),
        ("integer division by zero", "K(i) = i / j", None),
        ("MOD by zero", "K(i) = MOD(i, j)", None),
    ];
    fn named(e: &InterpError) -> Option<&str> {
        match e {
            InterpError::OutOfBounds { array, .. } => Some(array),
            _ => None,
        }
    }
    for (case, stmt, array) in cases {
        let src = format!(
            r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B, K
REAL A(8), B(8)
INTEGER K(8)
INTEGER i, j
j = 0
DO i = 1, 8
  {stmt}
END DO
"#
        );
        let c = compile_source(&src, Options::new(Version::SelectedAlignment)).unwrap();
        let mut mem = Memory::zeroed(&c.spmd.program);
        let want = Interp::new(&c.spmd.program).run(&mut mem).unwrap_err();
        let got = SpmdExec::new(&c.spmd, |_| {}).run().unwrap_err();
        assert_eq!(
            std::mem::discriminant(&want),
            std::mem::discriminant(&got),
            "{case}: interpreter says {want:?}, executor says {got:?}"
        );
        assert_eq!(named(&want), named(&got), "{case}: {want:?} vs {got:?}");
        assert_eq!(named(&got), array, "{case}: {got:?}");
        if array.is_none() {
            assert_eq!(got, InterpError::DivisionByZero, "{case}");
        }
    }
}

/// Parser robustness: malformed inputs return errors (never panic).
#[test]
fn parser_rejects_garbage_gracefully() {
    let cases = [
        "DO i = 1",
        "REAL A(",
        "!HPF$ DISTRIBUTE (FOO) :: A\nREAL A(4)",
        "!HPF$ ALIGN B(i) WITH\nREAL B(4)",
        "INTEGER i\nDO i = 1, 4\nEND IF",
        "x = = 1",
        "REAL A(4)\nA(1,2) = 0.0",
        "IF (1 > ) THEN\nEND IF",
        "GOTO 7",
        "REAL x\nx = .BOGUS.",
    ];
    for c in cases {
        assert!(parse_program(c).is_err(), "must reject: {}", c);
    }
}

/// Step-limit guard: a GOTO cycle terminates with an error instead of
/// hanging the executor.
#[test]
fn goto_cycle_hits_step_limit() {
    let src = r#"
REAL x
10 x = x + 1.0
GOTO 10
"#;
    let p = parse_program(src).unwrap();
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).unwrap();
    let d = phpf::core::map_program(&p, &a, &maps, phpf::core::CoreConfig::full());
    let sp = lower(&p, &a, &maps, d);
    let mut exec = SpmdExec::new(&sp, |_| {});
    exec.step_limit = 10_000;
    let err = exec.run().unwrap_err();
    assert!(matches!(err, InterpError::StepLimit));
}
