//! Human-readable compilation reports: mapping decisions, guards and the
//! placed communication schedule — the `--explain` view of the compiler.

use crate::Compiled;
use hpf_analysis::Analysis;
use hpf_dist::{shrink_bounds, GridDimRule, IterSet};
use hpf_ir::Stmt;
use hpf_spmd::{CommData, Guard};
use std::fmt::Write;

/// Render the full report.
pub fn render(c: &Compiled) -> String {
    let p = &c.spmd.program;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== mapping decisions (grid {:?}, {} processors) ==",
        c.spmd.maps.grid.dims(),
        c.spmd.maps.grid.total()
    );
    out.push_str(&c.spmd.decisions.report(p));

    let _ = writeln!(out, "== guards ==");
    let mut ids = p.preorder();
    ids.sort();
    for s in ids {
        if !p.stmt(s).is_assign() {
            continue;
        }
        let g = c.spmd.guard(s);
        let desc = match g {
            Guard::Everyone => "everyone".to_string(),
            Guard::Union => "union of active processors".to_string(),
            Guard::OwnerOf { r, free_dims } => {
                if free_dims.is_empty() {
                    format!("owner of {}(..)", p.vars.name(r.array))
                } else {
                    format!(
                        "owner of {}(..) with free grid dims {:?}",
                        p.vars.name(r.array),
                        free_dims
                    )
                }
            }
        };
        let _ = writeln!(out, "s{:<4} {}", s.0, desc);
    }

    let _ = writeln!(out, "== communication schedule ==");
    if c.spmd.comms.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for op in &c.spmd.comms {
        let what = match &op.data {
            CommData::Array(r) => format!("{}(..)", p.vars.name(r.array)),
            CommData::Scalar(v) => p.vars.name(*v).to_string(),
        };
        let place = if op.level == 0 {
            "hoisted outside all loops".to_string()
        } else if op.level < op.stmt_level {
            format!("vectorized to loop level {}", op.level)
        } else {
            "inner loop (per iteration)".to_string()
        };
        let pairs = match op.pairs_per_exec {
            Some(n) => format!("  [{} wire pair(s)/exec]", n),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "s{:<4} {:<12} {:?}  {}{}",
            op.stmt.0, what, op.pattern, place, pairs
        );
    }

    // Shrunk loop bounds: the owner-computes iteration sets of partitioned
    // assignments, when the distribution admits closed-form shrinking
    // (BLOCK / CYCLIC with unit-stride subscripts).
    let _ = writeln!(out, "== local iteration sets (loop-bound shrinking) ==");
    let a = Analysis::run(p);
    let mut shown = 0;
    let mut ids = p.preorder();
    ids.sort();
    for s in ids {
        let Guard::OwnerOf { r, free_dims } = c.spmd.guard(s) else {
            continue;
        };
        if !p.stmt(s).is_assign() {
            continue;
        }
        let Some(&l) = p.enclosing_loops(s).last() else {
            continue;
        };
        let Stmt::Do { lo, hi, .. } = p.stmt(l) else { continue };
        let (Some(lo_v), Some(hi_v)) = (
            hpf_analysis::constprop::fold_expr(lo, &|w| a.constprop.const_at(&a.cfg, l, w))
                .and_then(|v| match v {
                    hpf_ir::Value::Int(x) => Some(x),
                    _ => None,
                }),
            hpf_analysis::constprop::fold_expr(hi, &|w| a.constprop.const_at(&a.cfg, l, w))
                .and_then(|v| match v {
                    hpf_ir::Value::Int(x) => Some(x),
                    _ => None,
                }),
        ) else {
            continue;
        };
        let lv = p.loop_var(l).unwrap();
        let mapping = c.spmd.maps.of(r.array);
        for (g, rule) in mapping.rules.iter().enumerate() {
            if free_dims.contains(&g) {
                continue;
            }
            let GridDimRule::ByDim {
                array_dim,
                dist,
                stride,
                offset,
                t_lo,
                t_extent,
            } = rule
            else {
                continue;
            };
            let Some(sub) = r.subs.get(*array_dim) else { continue };
            let Some(aff) = a.induction.affine_view(p, &a.cfg, &a.dom, s, sub) else {
                continue;
            };
            let coef = aff.coeff(lv);
            if coef == 0 {
                continue;
            }
            // Template position = stride*(coef*i + rest) + offset.
            let b = stride * (aff.c0) + offset; // only valid if aff has no other vars
            if aff.terms.len() != 1 {
                continue;
            }
            let mut line = format!(
                "s{:<4} DO {} = {}, {}: ",
                s.0,
                p.vars.name(lv),
                lo_v,
                hi_v
            );
            let mut any = false;
            for coord in 0..c.spmd.maps.grid.extent(g) {
                match shrink_bounds(
                    *dist,
                    c.spmd.maps.grid.extent(g),
                    *t_lo,
                    *t_extent,
                    coord,
                    stride * coef,
                    b,
                    lo_v,
                    hi_v,
                ) {
                    Some(IterSet::Range(a1, b1)) => {
                        let _ = write!(line, "[{}:{}..{}] ", coord, a1, b1);
                        any = true;
                    }
                    Some(IterSet::Strided { first, last, step }) => {
                        let _ = write!(line, "[{}:{}..{}:{}] ", coord, first, last, step);
                        any = true;
                    }
                    Some(IterSet::Empty) => {
                        let _ = write!(line, "[{}:-] ", coord);
                        any = true;
                    }
                    _ => {}
                }
            }
            if any {
                let _ = writeln!(out, "{}", line);
                shown += 1;
            }
            break;
        }
    }
    if shown == 0 {
        let _ = writeln!(out, "(runtime ownership guards)");
    }

    let _ = writeln!(out, "== reductions ==");
    for r in &c.spmd.reduces {
        let _ = writeln!(
            out,
            "loop s{} combine {} over grid dims {:?}",
            r.loop_id.0,
            p.vars.name(r.acc),
            r.reduce_dims
        );
    }
    out
}

/// Render a verifier report rustc-style: one `error[CODE]:` /
/// `warning[CODE]:` block per diagnostic, the offending statement as a
/// `-->` source line when the finding is anchored to one, witnesses as
/// `= note:` lines, and a final verdict summary.
pub fn render_diagnostics(p: &hpf_ir::Program, report: &hpf_verify::VerifyReport) -> String {
    use hpf_verify::Severity;
    let mut out = String::new();
    for d in &report.diags {
        let head = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let _ = writeln!(out, "{}[{}]: {}", head, d.code, d.message);
        if let Some(s) = d.stmt {
            let _ = writeln!(
                out,
                "  --> stmt {}: `{}`",
                s.0,
                hpf_verify::render::stmt_text(p, s)
            );
        }
        for n in &d.notes {
            let _ = writeln!(out, "   = note: {}", n);
        }
    }
    let v = report.verdict();
    let bit = |ok: bool| if ok { "ok" } else { "FAILED" };
    let warnings = report.diags.len() - report.error_count();
    let _ = writeln!(
        out,
        "verify: privatization {}, schedule {}, races {} ({} error(s), {} warning(s))",
        bit(v.privatization),
        bit(v.schedule),
        bit(v.races),
        report.error_count(),
        warnings
    );
    out
}

/// Render observed wire traffic from an execution next to the placed
/// communication schedule (the instrumented counterpart of [`render`]'s
/// schedule section).
pub fn render_observed(c: &Compiled, metrics: &hpf_spmd::CommMetrics) -> String {
    let p = &c.spmd.program;
    let mut out = String::new();
    let _ = writeln!(out, "== observed communication ==");
    for (i, op) in c.spmd.comms.iter().enumerate() {
        let what = match &op.data {
            CommData::Array(r) => format!("{}(..)", p.vars.name(r.array)),
            CommData::Scalar(v) => p.vars.name(*v).to_string(),
        };
        let m = metrics
            .per_op
            .get(i)
            .copied()
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "op{:<3} s{:<4} {:<12} {:<14} {:>8} msg {:>10} B {:>8} elem",
            i,
            op.stmt.0,
            what,
            op.pattern.name(),
            m.messages,
            m.bytes,
            m.elements
        );
    }
    let _ = writeln!(out, "-- per pattern --");
    for (name, ctr) in &metrics.per_pattern {
        let _ = writeln!(
            out,
            "{:<14} {:>8} msg {:>10} B",
            name, ctr.messages, ctr.bytes
        );
    }
    let _ = writeln!(
        out,
        "total: {} messages, {} bytes, {} untracked, max in flight {}",
        metrics.messages(),
        metrics.bytes(),
        metrics.untracked_messages,
        metrics.max_in_flight
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::{compile_source, Options};

    #[test]
    fn verify_clean_and_render() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B
REAL A(16), B(16)
INTEGER i
REAL x
DO i = 1, 16
  x = B(i) * 2.0
  A(i) = x
END DO
"#;
        let c = compile_source(src, Options::default()).unwrap();
        let report = c.verify(|_| {});
        assert!(report.is_clean(), "{:#?}", report.diags);
        let text = c.render_diagnostics(&report);
        assert!(
            text.contains("verify: privatization ok, schedule ok, races ok"),
            "{}",
            text
        );
    }

    #[test]
    fn report_mentions_schedule_sections() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16)
INTEGER i
DO i = 1, 16
  A(i) = B(i)
END DO
"#;
        let c = compile_source(src, Options::default()).unwrap();
        let r = c.report();
        assert!(r.contains("== guards =="));
        assert!(r.contains("== communication schedule =="));
        assert!(r.contains("owner of a"), "{}", r);
        // Shrunk bounds for the block-distributed write: 4 contiguous
        // chunks of 4 iterations.
        assert!(r.contains("== local iteration sets"), "{}", r);
        assert!(r.contains("[0:1..4]"), "{}", r);
        assert!(r.contains("[3:13..16]"), "{}", r);
    }
}
