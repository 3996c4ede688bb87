//! # hpf-ir
//!
//! Intermediate representation for Fortran-style loop nests annotated with
//! High Performance Fortran (HPF) data-mapping directives.
//!
//! This crate is the substrate for a reproduction of Gupta, *"On
//! Privatization of Variables for Data-Parallel Execution"* (IPPS 1997).
//! The paper's analyses consume exactly the program features modelled here:
//!
//! * structured `DO` loops with affine bounds and strides,
//! * assignments to scalars and to array elements with (mostly) affine
//!   subscripts,
//! * structured `IF`/`ELSE` plus Fortran-style `GOTO`/labelled `CONTINUE`
//!   (needed for the paper's Section 4 on control-flow privatization),
//! * HPF `PROCESSORS`, `ALIGN`, `DISTRIBUTE` directives and the
//!   `INDEPENDENT, NEW(...)` loop directive.
//!
//! The representation is an arena of statements ([`Program`]) so that every
//! analysis can key results by a stable [`StmtId`], plus an interned
//! variable table keyed by [`VarId`].
//!
//! Three front doors are provided:
//!
//! * [`build::ProgramBuilder`] — a programmatic builder used by the kernels,
//! * [`parse::parse_program`] — a small text-DSL parser for mini-HPF source,
//! * [`pretty`] — the inverse pretty-printer.
//!
//! [`interp`] contains a sequential interpreter which defines the *golden*
//! semantics of a program: every parallelization produced by the rest of the
//! workspace is validated against it.

pub mod affine;
pub mod build;
pub mod directives;
pub mod expr;
pub mod interp;
pub mod parse;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod types;
pub mod visit;

pub use affine::Affine;
pub use build::ProgramBuilder;
pub use directives::{AlignDim, AlignDirective, DistFormat, DistributeDirective, ProcGridDecl};
pub use expr::{ArrayRef, BinOp, Expr, Intrinsic, UnOp};
pub use interp::{Interp, Memory, Value};
pub use parse::parse_program;
pub use program::{Program, VarId, VarTable};
pub use stmt::{LValue, Label, Stmt, StmtId, StmtNode};
pub use types::{ArrayShape, ScalarTy, VarInfo, VarKind, MAX_RANK};
