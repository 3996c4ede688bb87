//! Heap-allocation budget of the reference executor's hot path, counted
//! by a global allocator on the executor's own thread.
//!
//! Untraced, a statement instance allocates nothing: going from one to two
//! outer TOMCATV iterations doubles the statement instances but adds only
//! allocations the added wire messages explain (a coalesced message grows
//! its slot list and its seen-set as elements join it). Traced, statement
//! instances that run under one loop environment share one snapshot of it,
//! so the environments cost at most one allocation per loop iteration.
//! `Event` stays small: the trace holds one per message and per statement
//! instance.
//!
//! Run it on the release build too (`cargo test --release --test
//! exec_alloc_budget`): that is the build the benchmark times.

use phpf::compile::{compile_source, Compiled, Options, Version};
use phpf::ir::Memory;
use phpf::kernels::tomcatv;
use phpf::spmd::{Event, ExecStats, SpmdExec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

/// Counts allocations (including reallocations) made by the current
/// thread, so tests running in parallel do not disturb each other.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell` that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// TOMCATV mesh size and processor count of the budget runs.
const N: i64 = 33;
const P: usize = 4;

/// Allocations per added coalesced wire message the budget allows: its
/// slot list and seen-set each grow by doubling, about log2(elements)
/// times (about 9 allocations for this mesh's 31-element halo columns).
const PER_COALESCED_MESSAGE: u64 = 16;

fn compiled(niter: i64) -> Compiled {
    compile_source(
        &tomcatv::source(N, P, niter),
        Options::new(Version::SelectedAlignment),
    )
    .expect("TOMCATV compiles")
}

fn init(c: &Compiled) -> impl Fn(&mut Memory) + '_ {
    let vars = &c.spmd.program.vars;
    let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());
    let (xd, yd) = tomcatv::init_mesh(N);
    move |m: &mut Memory| {
        m.fill_real(x, &xd);
        m.fill_real(y, &yd);
    }
}

/// One run's statistics, wire messages and allocations made by `run`.
fn measure(exec: &mut SpmdExec<'_>) -> (ExecStats, u64, u64) {
    let before = allocs();
    let stats = exec.run().expect("TOMCATV runs");
    let made = allocs() - before;
    (stats, exec.metrics.messages(), made)
}

#[test]
fn untraced_statement_instances_do_not_allocate() {
    for vectorize in [true, false] {
        let runs: Vec<_> = [1, 2]
            .into_iter()
            .map(|niter| {
                let c = compiled(niter);
                let mut exec = SpmdExec::new(&c.spmd, init(&c));
                if !vectorize {
                    exec = exec.without_vectorization();
                }
                measure(&mut exec)
            })
            .collect();
        let (one, two) = (&runs[0], &runs[1]);
        assert_eq!(two.0.stmt_execs, 2 * one.0.stmt_execs);
        let added_stmts = two.0.stmt_execs - one.0.stmt_execs;
        // Only a coalesced message allocates; a per-element one is booked
        // in place.
        let added_coalesced = if vectorize { two.1 - one.1 } else { 0 };
        let added_allocs = two.2.saturating_sub(one.2);
        let budget = PER_COALESCED_MESSAGE * added_coalesced;
        assert!(
            added_stmts > 10 * budget,
            "the budget must be far below one allocation per statement instance: \
             {added_stmts} instances added, budget {budget}"
        );
        assert!(
            added_allocs <= budget,
            "vectorize={vectorize}: the second iteration added {added_allocs} allocations \
             for {added_stmts} statement instances and {added_coalesced} coalesced wire \
             messages (budget {budget})"
        );
    }
}

#[test]
fn traced_loop_environments_cost_one_snapshot_per_loop_iteration() {
    let niter = 2;
    let c = compiled(niter);
    let mut exec = SpmdExec::new(&c.spmd, init(&c)).with_trace();
    exec.run().expect("TOMCATV runs");
    // DO it / two DO j nests / two DO i nests.
    let inner = N - 2;
    let iterations = (niter * (1 + 2 * inner + 2 * inner * inner)) as usize;
    let mut snapshots = HashSet::new();
    let mut instances = 0;
    for ev in exec.trace.as_ref().unwrap().iter().flatten() {
        if let Event::Exec { env, .. } | Event::CondExec { env, .. } = ev {
            snapshots.insert(std::sync::Arc::as_ptr(env) as *const u8 as usize);
            instances += 1;
        }
    }
    assert!(
        snapshots.len() <= iterations,
        "{} environment snapshots for {iterations} loop iterations",
        snapshots.len()
    );
    assert!(
        instances > 4 * snapshots.len(),
        "{instances} instances share the snapshots"
    );
}

#[test]
fn event_stays_small() {
    assert!(
        std::mem::size_of::<Event>() <= 48,
        "Event grew to {} bytes",
        std::mem::size_of::<Event>()
    );
}
