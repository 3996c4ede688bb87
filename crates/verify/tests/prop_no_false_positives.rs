//! Property: every schedule the pipeline lowers for a well-formed
//! program verifies clean — the verifier raises no false positives on
//! anything `lower` actually produces. Programs are drawn from a family
//! that exercises the decision space: shifted reads in both directions,
//! scalar temporaries (privatized or aligned depending on config),
//! conditional defs, a reduction, loop nesting, BLOCK and CYCLIC
//! distributions, all compiler versions, with and without combining.

use hpf_analysis::Analysis;
use hpf_dist::MappingTable;
use hpf_ir::parse_program;
use hpf_spmd::SpmdProgram;
use phpf_core::{CoreConfig, ScalarPolicy};
use proptest::prelude::*;

/// One member of the random program family.
#[allow(clippy::too_many_arguments)]
fn synth(
    n: usize,
    nprocs: usize,
    cyclic: bool,
    d1: usize,
    d2: usize,
    with_if: bool,
    with_reduction: bool,
    two_level: bool,
) -> String {
    let dist = if cyclic { "CYCLIC" } else { "BLOCK" };
    let lo = 1 + d1;
    let hi = n - d2;
    let mut body = String::new();
    if two_level {
        body.push_str("DO j = 1, 2\n");
    }
    body.push_str(&format!("DO i = {}, {}\n", lo, hi));
    body.push_str(&format!("  x = B(i) + C(i-{})\n", d1));
    body.push_str("  y = A(i) + x\n");
    if with_if {
        body.push_str("  IF (B(i) .GT. 0.0) THEN\n    y = y + 1.0\n  END IF\n");
    }
    body.push_str(&format!("  A(i+{}) = y\n", d2));
    if with_reduction {
        body.push_str("  s = s + B(i)\n");
    }
    body.push_str("END DO\n");
    if two_level {
        body.push_str("END DO\n");
    }
    format!(
        "!HPF$ PROCESSORS P({nprocs})\n\
         !HPF$ ALIGN (i) WITH A(i) :: B, C\n\
         !HPF$ DISTRIBUTE ({dist}) :: A\n\
         REAL A({n}), B({n}), C({n})\n\
         INTEGER i, j\n\
         REAL x, y, s\n\
         s = 0.0\n\
         {body}"
    )
}

fn config(idx: usize) -> CoreConfig {
    match idx {
        0 => CoreConfig::full(),
        1 => CoreConfig::full_auto(),
        2 => CoreConfig::naive(),
        3 => {
            let mut c = CoreConfig::full();
            c.scalar_policy = ScalarPolicy::ProducerAlign;
            c
        }
        _ => {
            let mut c = CoreConfig::full();
            c.reduction_align = false;
            c
        }
    }
}

fn compile(src: &str, cfg: CoreConfig, combine: bool) -> SpmdProgram {
    let p = parse_program(src).expect("synthesized program parses");
    let a = Analysis::run(&p);
    let maps = MappingTable::from_program(&p, None).expect("synthesized program maps");
    let d = phpf_core::map_program(&p, &a, &maps, cfg);
    let mut sp = hpf_spmd::lower(&p, &a, &maps, d);
    if combine {
        hpf_spmd::combine_messages(&mut sp, &a);
    }
    sp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lowered_schedules_verify_clean(
        n in 10usize..=24,
        pidx in 0usize..3,
        cyclic in any::<bool>(),
        d1 in 0usize..=3,
        d2 in 0usize..=2,
        with_if in any::<bool>(),
        with_reduction in any::<bool>(),
        two_level in any::<bool>(),
        cfg_idx in 0usize..5,
        combine in any::<bool>(),
    ) {
        let nprocs = [1, 2, 4][pidx];
        let src = synth(n, nprocs, cyclic, d1, d2, with_if, with_reduction, two_level);
        let sp = compile(&src, config(cfg_idx), combine);
        let init = |m: &mut hpf_ir::Memory| {
            for name in ["a", "b", "c"] {
                if let Some(v) = sp.program.vars.lookup(name) {
                    let data: Vec<f64> =
                        (0..n).map(|k| 0.5 + (k as f64) * 0.25 - (n as f64) / 8.0).collect();
                    m.fill_real(v, &data);
                }
            }
        };
        let rec = hpf_spmd::Recorded::run(&sp, init, true);
        let report = hpf_verify::verify_execution(&sp, rec.as_ref());
        prop_assert!(
            report.is_clean(),
            "false positive on:\n{}\nconfig {} combine {}: {:#?}",
            src, cfg_idx, combine, report.diags
        );
    }
}
