//! Privatization-soundness checks: the paper's Fig. 3 side conditions,
//! re-proved on the *final* lowered program instead of trusted from the
//! mapping pass.
//!
//! `phpf-core`'s `ScalarMapper` establishes each condition on the fly
//! while it builds the decision table; nothing downstream re-checks
//! them, so a bug there (or a hand-edited decision table) silently
//! produces a wrong-answer schedule. This module re-derives every
//! condition from the analyses alone and compares against what the
//! decisions claim:
//!
//! * **V001** — a privatized (non-induction) scalar definition is not
//!   privatizable w.r.t. its innermost enclosing loop (`IsPrivatizable`
//!   of Fig. 3 fails: some use outside the loop, or a def reaching a use
//!   only along the back edge).
//! * **V002** — the alignment closure is inconsistent: a reaching def of
//!   a reached use carries a different mapping home than the def under
//!   test, so two processors can disagree about where the value lives.
//! * **V003** — a privatized-without-alignment definition reads an
//!   operand that is neither replicated, private, a loop index, nor
//!   delivered by a placed communication operation: the executing union
//!   evaluates the rhs with data it does not hold.
//! * **V004** — operand availability at the chosen home: a statement
//!   guarded onto an owner set reads distributed data that is neither
//!   provably local to that home nor delivered by a placed operation.
//! * **V005** — `SubscriptAlignLevel` validity: the alignment target's
//!   subscripts are not invariant inside the privatization loop
//!   (`AlignLevel(r) > l+1`), so the home moves mid-iteration.
//! * **V006** — a privatized-without-alignment definition is not the
//!   unique reaching def of all its reached uses (cross-iteration or
//!   cross-path flow through the privatized name).
//! * **V007** — an array privatization decision (`FullPrivate` /
//!   `PartialPrivate`) for an array the analyses cannot prove
//!   loop-private.

use hpf_analysis::Analysis;
use hpf_comm::{align_level, classify, symbolic_owner, CommPattern, DimPos, SymbolicOwner};
use hpf_ir::{ArrayRef, Expr, LValue, Program, Stmt, StmtId, VarId};
use hpf_spmd::{CommData, Guard, SpmdProgram};
use phpf_core::{ArrayMappingDecision, ScalarMapping};

use crate::diag::Diagnostic;
use crate::render::stmt_text;

/// Run every privatization-soundness check on a lowered program.
pub fn verify_privatization(sp: &SpmdProgram, a: &Analysis<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let p = &sp.program;

    let mut scalar_defs: Vec<(StmtId, &ScalarMapping)> =
        sp.decisions.scalars.iter().map(|(&s, m)| (s, m)).collect();
    scalar_defs.sort_by_key(|(s, _)| s.0);

    let mut pc = a.priv_check();
    for &(def, mapping) in &scalar_defs {
        match mapping {
            ScalarMapping::Replicated => {}
            // Reduction mappings deliberately carry cross-iteration flow
            // (the accumulator); their legality is the reduction pass's
            // recognition, checked by the differential tests.
            ScalarMapping::Reduction { .. } => {}
            ScalarMapping::PrivateNoAlign => {
                // Induction definitions are privatized unconditionally:
                // their closed forms stand in for the carried value.
                if a.induction.is_induction_def(def) {
                    continue;
                }
                check_privatizable(sp, a, &mut pc, def, &mut out);
                check_unique_def(sp, a, def, &mut out);
                check_union_operands(sp, a, def, &mut out);
            }
            ScalarMapping::Aligned {
                target_stmt,
                target,
                ..
            } => {
                check_privatizable(sp, a, &mut pc, def, &mut out);
                check_closure_consistency(sp, a, def, *target_stmt, target, &mut out);
                check_align_level(sp, a, def, *target_stmt, target, &mut out);
            }
        }
    }

    check_home_operands(sp, a, &mut out);

    let mut array_decs: Vec<((StmtId, VarId), &ArrayMappingDecision)> =
        sp.decisions.arrays.iter().map(|(&k, d)| (k, d)).collect();
    array_decs.sort_by_key(|((l, v), _)| (l.0, v.0));
    for ((l, v), dec) in array_decs {
        match dec {
            ArrayMappingDecision::Unchanged => {}
            ArrayMappingDecision::FullPrivate { .. }
            | ArrayMappingDecision::PartialPrivate { .. } => {
                let ok = pc.array_privatizable(&a.dom, &a.induction, l, v)
                    || hpf_analysis::autopriv::array_privatizable(
                        p,
                        &a.cfg,
                        &a.dom,
                        &a.induction,
                        l,
                        v,
                    );
                if !ok {
                    out.push(
                        Diagnostic::error(
                            "V007",
                            format!(
                                "array {} is privatized w.r.t. the loop at stmt {} but is \
                                 not loop-private there",
                                p.vars.name(v),
                                l.0
                            ),
                        )
                        .at(l)
                        .note(format!("loop: `{}`", stmt_text(p, l)))
                        .note(
                            "neither the NEW-directive check nor the subscript-coverage \
                             analysis proves every read covered by a same-iteration write",
                        ),
                    );
                }
            }
        }
    }

    out
}

/// V001: the def must be privatizable w.r.t. its innermost enclosing
/// loop. Every privatized mapping (aligned or not) asserts this.
fn check_privatizable(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    pc: &mut hpf_analysis::PrivCheck<'_>,
    def: StmtId,
    out: &mut Vec<Diagnostic>,
) {
    let p = &sp.program;
    // Alignment closures pull in reaching defs of reached uses wherever
    // they sit — including defs outside the privatization loop (a
    // pre-loop initial value aligned to the same home for consistency).
    // Privatizability w.r.t. "their" loop is not asserted for those;
    // only defs inside a loop claim it.
    let Some(&l) = p.enclosing_loops(def).last() else {
        return;
    };
    if !pc.scalar_privatizable(l, def).without_copy_out() {
        let witness = a
            .rd
            .reached_uses(p, &a.cfg, def)
            .into_iter()
            .find(|&u| !p.is_self_or_ancestor(l, u));
        let mut d = Diagnostic::error(
            "V001",
            format!(
                "privatized definition `{}` (stmt {}) is not privatizable w.r.t. its \
                 innermost enclosing loop (stmt {})",
                stmt_text(p, def),
                def.0,
                l.0
            ),
        )
        .at(def);
        if let Some(u) = witness {
            d = d.note(format!(
                "value escapes the loop: reached use `{}` at stmt {} is outside it",
                stmt_text(p, u),
                u.0
            ));
        } else {
            d = d.note(
                "a reaching def arrives only along the loop back edge: the iteration \
                 reads a value produced by a previous iteration",
            );
        }
        out.push(d);
    }
}

/// V006: privatization without alignment additionally needs the def to
/// be the *unique* reaching def over all its reached uses — otherwise a
/// use merges values from defs executed on different processor unions.
fn check_unique_def(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    def: StmtId,
    out: &mut Vec<Diagnostic>,
) {
    let p = &sp.program;
    if a.rd.is_unique_def(p, &a.cfg, def) {
        return;
    }
    let Some(var) = a.rd.def_var(def) else { return };
    let witness = a
        .rd
        .reached_uses(p, &a.cfg, def)
        .into_iter()
        .find(|&u| a.rd.reaching_defs(&a.cfg, u, var).len() > 1);
    let mut d = Diagnostic::error(
        "V006",
        format!(
            "`{}` (stmt {}) is privatized without alignment but is not the unique \
             reaching def of its uses",
            stmt_text(p, def),
            def.0
        ),
    )
    .at(def);
    if let Some(u) = witness {
        let others: Vec<String> = a
            .rd
            .reaching_defs(&a.cfg, u, var)
            .into_iter()
            .filter(|&o| o != def)
            .map(|o| format!("stmt {}", o.0))
            .collect();
        d = d.note(format!(
            "witnessing use `{}` at stmt {} also sees def(s) {}",
            stmt_text(p, u),
            u.0,
            others.join(", ")
        ));
    }
    out.push(d);
}

/// V002: every (non-loop, non-induction) reaching def of every reached
/// use of an aligned def must share its mapping home.
fn check_closure_consistency(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    def: StmtId,
    target_stmt: StmtId,
    target: &ArrayRef,
    out: &mut Vec<Diagnostic>,
) {
    let p = &sp.program;
    let Some(var) = a.rd.def_var(def) else { return };
    for u in a.rd.reached_uses(p, &a.cfg, def) {
        for rdef in a.rd.reaching_defs(&a.cfg, u, var) {
            if rdef == def || p.stmt(rdef).is_loop() || a.induction.is_induction_def(rdef) {
                continue;
            }
            let same = match sp.decisions.scalar(rdef) {
                ScalarMapping::Aligned {
                    target_stmt: ts,
                    target: tr,
                    ..
                }
                | ScalarMapping::Reduction {
                    target_stmt: ts,
                    target: tr,
                    ..
                } => *ts == target_stmt && tr == target,
                _ => false,
            };
            if !same {
                out.push(
                    Diagnostic::error(
                        "V002",
                        format!(
                            "inconsistent mapping homes for `{}`: def at stmt {} is \
                             aligned with {} at stmt {}, but def at stmt {} ({}) reaches \
                             the same use",
                            p.vars.name(var),
                            def.0,
                            ref_text(p, target),
                            target_stmt.0,
                            rdef.0,
                            sp.decisions.scalar(rdef)
                        ),
                    )
                    .at(def)
                    .note(format!(
                        "shared use `{}` at stmt {} cannot know which home holds the value",
                        stmt_text(p, u),
                        u.0
                    )),
                );
                return; // one witness per def
            }
        }
    }
}

/// V005: the alignment target must be invariant inside the privatization
/// loop — `AlignLevel(target) <= level(l) + 1` (Fig. 3).
fn check_align_level(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    def: StmtId,
    target_stmt: StmtId,
    target: &ArrayRef,
    out: &mut Vec<Diagnostic>,
) {
    let p = &sp.program;
    let Some(&l) = p.enclosing_loops(def).last() else {
        // Closure members outside any loop hold the home's value between
        // iterations; no level constraint applies to them.
        return;
    };
    let priv_level = p.nesting_level(l) + 1;
    let al = align_level(
        p,
        &a.cfg,
        &a.dom,
        &a.induction,
        sp.maps.of(target.array),
        target_stmt,
        target,
        None,
    );
    if al > priv_level {
        out.push(
            Diagnostic::error(
                "V005",
                format!(
                    "alignment target {} of `{}` (stmt {}) varies at loop level {} but \
                     the privatization loop (stmt {}) only pins level {}",
                    ref_text(p, target),
                    stmt_text(p, def),
                    def.0,
                    al,
                    l.0,
                    priv_level
                ),
            )
            .at(def)
            .note(format!(
                "the home processor changes inside one iteration of the privatization \
                 loop; SubscriptAlignLevel({}) = {} > {}",
                ref_text(p, target),
                al,
                priv_level
            )),
        );
    }
}

/// V003: operands of a privatized-without-alignment def must be
/// available on the executing union: replicated, private, loop indices,
/// or delivered by a placed communication operation.
fn check_union_operands(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    def: StmtId,
    out: &mut Vec<Diagnostic>,
) {
    let p = &sp.program;
    let Stmt::Assign { rhs, .. } = p.stmt(def) else {
        return;
    };
    let everyone = SymbolicOwner::replicated(sp.maps.grid.rank());
    for r in rhs.array_refs() {
        let m = sp.maps.of(r.array);
        if m.is_fully_replicated() {
            continue;
        }
        let local = symbolic_owner(p, &a.cfg, &a.dom, &a.induction, m, def, r)
            .map(|src| classify(&src, &everyone) == CommPattern::Local)
            .unwrap_or(false);
        if !local && sp.array_comm_index(def, r).is_none() {
            out.push(
                Diagnostic::error(
                    "V003",
                    format!(
                        "privatized definition `{}` (stmt {}) reads distributed {} with \
                         no placed communication delivering it",
                        stmt_text(p, def),
                        def.0,
                        ref_text(p, r)
                    ),
                )
                .at(def)
                .note(
                    "the executing union evaluates the rhs locally; a distributed \
                     operand must be replicated, provably local, or scheduled",
                ),
            );
        }
    }
    for w in rhs.scalar_reads() {
        if scalar_operand_home(sp, a, def, w).is_some()
            && sp.comm_index(def, &CommData::Scalar(w)).is_none()
        {
            out.push(
                Diagnostic::error(
                    "V003",
                    format!(
                        "privatized definition `{}` (stmt {}) reads scalar {} whose value \
                         lives on a partitioned home, with no placed communication",
                        stmt_text(p, def),
                        def.0,
                        p.vars.name(w)
                    ),
                )
                .at(def),
            );
        }
    }
}

/// The partitioned home a scalar operand `w` read at `at` is mapped to,
/// if any (mirror of the mapper's `scalar_operand_mapping`, evaluated
/// against the *final* decisions).
fn scalar_operand_home(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    at: StmtId,
    w: VarId,
) -> Option<(StmtId, ArrayRef)> {
    let p = &sp.program;
    if p.enclosing_loops(at)
        .iter()
        .any(|&l| p.loop_var(l) == Some(w))
    {
        return None;
    }
    for rdef in a.rd.reaching_defs(&a.cfg, at, w) {
        if p.stmt(rdef).is_loop() {
            continue;
        }
        match sp.decisions.scalar(rdef) {
            ScalarMapping::Replicated | ScalarMapping::PrivateNoAlign => {}
            ScalarMapping::Aligned {
                target, target_stmt, ..
            }
            | ScalarMapping::Reduction {
                target, target_stmt, ..
            } => return Some((*target_stmt, target.clone())),
        }
    }
    None
}

/// V004: re-derive, for every guarded statement, which operands need
/// communication to reach the executing home, and require a placed
/// operation for each — the availability half of Fig. 3, checked against
/// the schedule the lowering actually emitted.
fn check_home_operands(sp: &SpmdProgram, a: &Analysis<'_>, out: &mut Vec<Diagnostic>) {
    let p = &sp.program;
    for s in p.preorder() {
        match p.stmt(s) {
            Stmt::Assign { lhs, rhs } => {
                // Union statements are covered per-def by V003.
                let dst = match sp.guard(s) {
                    Guard::OwnerOf { r, free_dims } => {
                        match symbolic_owner(
                            p,
                            &a.cfg,
                            &a.dom,
                            &a.induction,
                            sp.maps.of(r.array),
                            s,
                            r,
                        ) {
                            Some(mut o) => {
                                for &g in free_dims {
                                    o.dims[g] = DimPos::Any;
                                }
                                o
                            }
                            None => SymbolicOwner::replicated(sp.maps.grid.rank()),
                        }
                    }
                    Guard::Everyone => SymbolicOwner::replicated(sp.maps.grid.rank()),
                    Guard::Union => continue,
                };
                require_operand_comms(sp, a, s, rhs, &dst, "home", out);
                // Subscripts of a distributed write are evaluated by
                // every processor deciding the guard.
                if let LValue::Array(lr) = lhs {
                    let every = SymbolicOwner::replicated(sp.maps.grid.rank());
                    for sub in &lr.subs {
                        require_operand_comms(sp, a, s, sub, &every, "guard evaluation", out);
                    }
                }
            }
            Stmt::If { cond, .. } => {
                let dst = match sp.decisions.control(s) {
                    Some(c) if c.privatized => match &c.exec_ref {
                        Some((es, er)) => symbolic_owner(
                            p,
                            &a.cfg,
                            &a.dom,
                            &a.induction,
                            sp.maps.of(er.array),
                            *es,
                            er,
                        ),
                        None => None,
                    },
                    _ => Some(SymbolicOwner::replicated(sp.maps.grid.rank())),
                };
                if let Some(dst) = dst {
                    require_operand_comms(sp, a, s, cond, &dst, "predicate", out);
                }
            }
            _ => {}
        }
    }
}

fn require_operand_comms(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    s: StmtId,
    e: &Expr,
    dst: &SymbolicOwner,
    what: &str,
    out: &mut Vec<Diagnostic>,
) {
    let p = &sp.program;
    for r in e.array_refs() {
        let m = sp.maps.of(r.array);
        if m.is_fully_replicated() {
            continue;
        }
        let local = symbolic_owner(p, &a.cfg, &a.dom, &a.induction, m, s, r)
            .map(|src| classify(&src, dst) == CommPattern::Local)
            .unwrap_or(false);
        if !local && sp.array_comm_index(s, r).is_none() {
            out.push(
                Diagnostic::error(
                    "V004",
                    format!(
                        "stmt {} `{}` reads distributed {} for its {}, but the schedule \
                         places no operation delivering it",
                        s.0,
                        stmt_text(p, s),
                        ref_text(p, r),
                        what
                    ),
                )
                .at(s),
            );
        }
    }
    for w in e.scalar_reads() {
        let Some((tstmt, target, free)) = aligned_var_home(sp, w) else {
            continue;
        };
        let src = symbolic_owner(
            p,
            &a.cfg,
            &a.dom,
            &a.induction,
            sp.maps.of(target.array),
            tstmt,
            &target,
        )
        .map(|mut so| {
            for &g in &free {
                so.dims[g] = DimPos::Any;
            }
            so
        });
        let local = matches!(src.as_ref().map(|so| classify(so, dst)), Some(CommPattern::Local));
        if !local && sp.comm_index(s, &CommData::Scalar(w)).is_none() {
            out.push(
                Diagnostic::error(
                    "V004",
                    format!(
                        "stmt {} `{}` reads scalar {} (home: {} at stmt {}) for its {}, \
                         but the schedule places no operation delivering it",
                        s.0,
                        stmt_text(p, s),
                        p.vars.name(w),
                        ref_text(p, &target),
                        tstmt.0,
                        what
                    ),
                )
                .at(s),
            );
        }
    }
}

/// The partitioned home of a scalar variable per the lowering's
/// per-variable mapping table (the one `collect_comms` consults), with
/// reduction free dims applied.
fn aligned_var_home(sp: &SpmdProgram, w: VarId) -> Option<(StmtId, ArrayRef, Vec<usize>)> {
    match sp.scalar_mapping(w) {
        ScalarMapping::Aligned {
            target, target_stmt, ..
        } => Some((*target_stmt, target.clone(), Vec::new())),
        ScalarMapping::Reduction {
            target,
            target_stmt,
            reduce_dims,
            ..
        } => Some((*target_stmt, target.clone(), reduce_dims.clone())),
        _ => None,
    }
}

fn ref_text(p: &Program, r: &ArrayRef) -> String {
    let subs: Vec<String> = r
        .subs
        .iter()
        .map(|e| hpf_ir::pretty::print_expr(p, e))
        .collect();
    format!("{}({})", p.vars.name(r.array), subs.join(","))
}
