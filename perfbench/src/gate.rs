//! The output gate: every operation's result is checked against an
//! independent reference, and the operation is counted as timed, failed or
//! degraded.

use hpf_ir::{Memory, Value};
use hpf_spmd::{RecoveryCounters, SpmdProgram};

/// What one successful operation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// The socket driver exhausted its recovery budget and the result came
    /// from the in-process thread fallback.
    pub degraded: bool,
    /// Wire messages and bytes (`CommMetrics::messages`/`bytes`), where
    /// the operation moves data over a transport.
    pub wire: Option<(u64, u64)>,
}

/// An operation either succeeds or fails with the reason.
pub type OpResult = Result<Op, String>;

/// Counts of a run's operations and the wall times of the timed ones.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub degraded: u64,
    /// Wall seconds of the operations that count toward `run_s`: neither
    /// failed, degraded nor warm-up.
    pub run_s: Vec<f64>,
    pub wire: Option<(u64, u64)>,
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one operation that took `secs`. A warm-up operation is checked
    /// and counted like any other but never timed.
    pub fn record(&mut self, secs: f64, r: &OpResult, warm_up: bool) {
        self.attempted += 1;
        match r {
            Err(e) => {
                self.failed += 1;
                if self.first_error.is_none() {
                    self.first_error = Some(e.clone());
                }
            }
            Ok(op) => {
                if op.wire.is_some() {
                    self.wire = op.wire;
                }
                if op.degraded {
                    self.degraded += 1;
                } else if !warm_up {
                    self.run_s.push(secs);
                }
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn degraded_frac(&self) -> f64 {
        self.degraded as f64 / self.attempted.max(1) as f64
    }
}

/// Relative tolerance of the comparison against the native kernels: the
/// interpreter and the hand-written Rust evaluate the same expressions, so
/// only rounding from a different association order is allowed.
const TOL: f64 = 1e-9;

/// Check every owner slot of the named REAL arrays in the per-rank
/// memories `mems` against the native kernel's result for that array.
pub fn check_owner_slots(
    sp: &SpmdProgram,
    mems: &[Memory],
    expect: &[(&str, &[f64])],
) -> Result<(), String> {
    let grid = &sp.maps.grid;
    if mems.len() != grid.total() {
        return Err(format!(
            "{} memories for {} ranks",
            mems.len(),
            grid.total()
        ));
    }
    for &(name, want) in expect {
        let v = sp
            .program
            .vars
            .lookup(name)
            .ok_or_else(|| format!("no array {name}"))?;
        let shape = sp
            .program
            .vars
            .info(v)
            .shape()
            .ok_or_else(|| format!("{name} is not an array"))?;
        if shape.len() as usize != want.len() {
            return Err(format!(
                "{name}: {} elements, reference has {}",
                shape.len(),
                want.len()
            ));
        }
        let mapping = sp.maps.of(v);
        for (off, &w) in want.iter().enumerate() {
            let idx = shape.delinearize(off);
            for pid in mapping.owner_on(grid, &idx).pids(grid) {
                let got = match mems[pid].array(v).get(off) {
                    Value::Real(x) => x,
                    other => {
                        return Err(format!(
                            "{name}{idx:?} on rank {pid}: {other:?} is not REAL"
                        ))
                    }
                };
                if (got - w).abs() > TOL * w.abs().max(1.0) {
                    return Err(format!(
                        "{name}{idx:?} on owner rank {pid}: {got} differs from the native kernel's {w}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The gate of a result run under a fault plan: it must have healed
/// through link-level retransmission and a respawn, or the plan never fired
/// and the operation timed a clean run. A degraded result is left to the
/// degraded count.
pub fn check_recovery(r: &RecoveryCounters, degraded: bool) -> Result<(), String> {
    if !degraded && (r.retransmits == 0 || r.respawns == 0) {
        return Err(format!(
            "the fault plan did not fire: {} retransmission(s), {} respawn(s)",
            r.retransmits, r.respawns
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compile::{compile_source, Options, Version};
    use hpf_kernels::tomcatv;

    /// One perturbed output element fails the gate and is counted in
    /// `failed_frac`, not in `run_s`.
    #[test]
    fn perturbed_element_counts_as_failed() {
        let (n, iters) = (12, 1);
        let c = compile_source(
            &tomcatv::source(n, 2, iters),
            Options::new(Version::SelectedAlignment),
        )
        .unwrap();
        let p = &c.spmd.program;
        let (x, y) = (p.vars.lookup("x").unwrap(), p.vars.lookup("y").unwrap());
        let (x0, y0) = tomcatv::init_mesh(n);
        let r = hpf_spmd::validate_replay(&c.spmd, |m| {
            m.fill_real(x, &x0);
            m.fill_real(y, &y0);
        })
        .unwrap();
        let (xr, yr) = tomcatv::reference(n, iters);
        let expect: [(&str, &[f64]); 2] = [("x", &xr), ("y", &yr)];
        let mut tally = Tally::default();
        let ok = check_owner_slots(&c.spmd, &r.mems, &expect).map(|()| Op {
            degraded: false,
            wire: None,
        });
        tally.record(0.5, &ok, false);
        assert_eq!((tally.failed, tally.run_s.len()), (0, 1));

        // Perturb one interior element on its owner rank.
        let off = (n as usize) * 5 + 5;
        let idx = p.vars.info(x).shape().unwrap().delinearize(off);
        let owner = c
            .spmd
            .maps
            .of(x)
            .owner_on(&c.spmd.maps.grid, &idx)
            .pids(&c.spmd.maps.grid)[0];
        let mut mems = r.mems;
        let old = mems[owner].array(x).get(off).as_real().unwrap();
        mems[owner]
            .array_mut(x)
            .set(off, Value::Real(old + 1e-6))
            .unwrap();
        let bad = check_owner_slots(&c.spmd, &mems, &expect).map(|()| Op {
            degraded: false,
            wire: None,
        });
        assert!(bad
            .as_ref()
            .unwrap_err()
            .contains("differs from the native kernel"));
        tally.record(0.5, &bad, false);
        assert_eq!(
            (tally.attempted, tally.failed, tally.run_s.len()),
            (2, 1, 1)
        );
        assert_eq!(tally.failed_frac(), 0.5);
    }

    /// A degraded socket result is counted in `degraded_frac` and never
    /// timed as a socket run.
    #[test]
    fn degraded_result_counts_as_degraded_not_timed() {
        let mut tally = Tally::default();
        let clean = Ok(Op {
            degraded: false,
            wire: Some((10, 80)),
        });
        let degraded = Ok(Op {
            degraded: true,
            wire: Some((10, 80)),
        });
        tally.record(0.4, &clean, false);
        tally.record(9.0, &degraded, false);
        assert_eq!(tally.run_s, vec![0.4]);
        assert_eq!((tally.attempted, tally.failed, tally.degraded), (2, 0, 1));
        assert_eq!(tally.degraded_frac(), 0.5);
    }

    #[test]
    fn warm_up_is_checked_but_not_timed() {
        let mut tally = Tally::default();
        tally.record(
            1.0,
            &Ok(Op {
                degraded: false,
                wire: None,
            }),
            true,
        );
        tally.record(1.0, &Err("boom".into()), true);
        assert_eq!(
            (tally.attempted, tally.failed, tally.run_s.len()),
            (2, 1, 0)
        );
    }

    /// A faulted result that did not go through both retransmission and
    /// respawn is counted as failed.
    #[test]
    fn unhealed_fault_run_counts_as_failed() {
        let healed = RecoveryCounters {
            retransmits: 1,
            respawns: 1,
            ..Default::default()
        };
        let gate = |r: &RecoveryCounters, degraded| {
            check_recovery(r, degraded).map(|()| Op {
                degraded,
                wire: None,
            })
        };
        let mut tally = Tally::default();
        tally.record(2.5, &gate(&healed, false), false);
        for unhealed in [
            RecoveryCounters {
                respawns: 0,
                ..healed
            },
            RecoveryCounters {
                retransmits: 0,
                ..healed
            },
            RecoveryCounters::default(),
        ] {
            tally.record(0.6, &gate(&unhealed, false), false);
        }
        // Degraded: counted as such, not failed and not timed.
        tally.record(9.0, &gate(&healed, true), false);
        assert_eq!((tally.attempted, tally.failed, tally.degraded), (5, 3, 1));
        assert_eq!(tally.run_s, vec![2.5]);
        assert!(tally.first_error.unwrap().contains("did not fire"));
    }
}
