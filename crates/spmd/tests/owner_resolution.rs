//! The executor's allocation-free owner lookup agrees with the owner-set
//! path it replaced: for every element of a small 2-D array and every
//! reading processor, `ArrayMapping::owner_pid` picks the pid that
//! `resolve_owner_pid` picks from `owner_on`, and both pick the pid of
//! the owner's coordinate vector with the reader's own coordinates on
//! `Any` dimensions. The sweep covers BLOCK,
//! CYCLIC and CYCLIC(k) distributions, a strided and offset alignment, and
//! fixed, replicated and private grid dimensions, on 1-D and 2-D grids.

use hpf_dist::{ArrayMapping, GridCoord, GridDimRule, ProcGrid};
use hpf_ir::{DistFormat, VarId};
use hpf_spmd::guard::resolve_owner_pid;

/// Array extent along both dimensions (1-based bounds).
const N: i64 = 10;

/// Every rule one grid dimension of extent `procs` can carry.
fn rules(procs: usize) -> Vec<GridDimRule> {
    let by_dim = |array_dim, dist, stride, offset, t_extent| GridDimRule::ByDim {
        array_dim,
        dist,
        stride,
        offset,
        t_lo: 1,
        t_extent,
    };
    let mut out = Vec::new();
    for array_dim in 0..2 {
        for dist in [
            DistFormat::Block,
            DistFormat::Cyclic,
            DistFormat::BlockCyclic(2),
            DistFormat::BlockCyclic(3),
        ] {
            out.push(by_dim(array_dim, dist, 1, 0, N));
        }
        // ALIGN A(i) WITH T(2*i-1): template positions 1, 3, ..., 2N-1.
        out.push(by_dim(array_dim, DistFormat::Block, 2, -1, 2 * N));
        out.push(by_dim(array_dim, DistFormat::Cyclic, 2, -1, 2 * N));
    }
    out.extend((0..procs).map(GridDimRule::Fixed));
    out.push(GridDimRule::Replicated);
    out.push(GridDimRule::Private);
    out
}

/// All rule vectors for `grid`: the product of each dimension's rules.
fn mappings(grid: &ProcGrid) -> Vec<ArrayMapping> {
    let mut all: Vec<Vec<GridDimRule>> = vec![Vec::new()];
    for &procs in grid.dims() {
        all = all
            .into_iter()
            .flat_map(|prefix| {
                rules(procs).into_iter().map(move |r| {
                    let mut v = prefix.clone();
                    v.push(r);
                    v
                })
            })
            .collect();
    }
    all.into_iter()
        .map(|rules| ArrayMapping {
            array: VarId(0),
            rules,
        })
        .collect()
}

fn grids() -> Vec<ProcGrid> {
    [
        vec![1],
        vec![3],
        vec![4],
        vec![2, 2],
        vec![2, 3],
        vec![3, 2],
    ]
    .into_iter()
    .map(ProcGrid::new)
    .collect()
}

#[test]
fn grid_coord_matches_coords_of() {
    for grid in grids().into_iter().chain([ProcGrid::new(vec![2, 3, 4])]) {
        for pid in grid.pids() {
            let coords = grid.coords_of(pid);
            for (d, &c) in coords.iter().enumerate() {
                assert_eq!(
                    grid.coord(pid, d),
                    c,
                    "grid {:?} pid {pid} dim {d}",
                    grid.dims()
                );
            }
        }
    }
}

#[test]
fn owner_pid_matches_resolved_owner_set() {
    for grid in grids() {
        for m in mappings(&grid) {
            for i in 1..=N {
                for j in 1..=N {
                    let idx = [i, j];
                    let own = m.owner_on(&grid, &idx);
                    for reader in grid.pids() {
                        // The owner's coordinates, the reader's own on
                        // `Any` dimensions.
                        let rc = grid.coords_of(reader);
                        let coords: Vec<usize> = own
                            .per_dim
                            .iter()
                            .zip(&rc)
                            .map(|(g, &r)| match g {
                                GridCoord::At(x) => *x,
                                GridCoord::Any => r,
                            })
                            .collect();
                        let want = grid.pid_of(&coords);
                        assert_eq!(resolve_owner_pid(&grid, &own, reader), want);
                        let got = m.owner_pid(&grid, &idx, reader);
                        assert_eq!(
                            got,
                            want,
                            "grid {:?} rules {:?} idx {:?} reader {reader}",
                            grid.dims(),
                            m.rules,
                            idx
                        );
                        // The source is an owner, and a reader that owns
                        // the element reads its own copy.
                        assert!(own.contains_pid(&grid, got));
                        if own.contains(&grid.coords_of(reader)) {
                            assert_eq!(got, reader);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn owner_set_pid_queries_match_coordinate_queries() {
    for grid in grids() {
        for m in mappings(&grid) {
            let own = m.owner_on(&grid, &[N / 2, N]);
            let by_coords: Vec<usize> = grid
                .pids()
                .filter(|&p| own.contains(&grid.coords_of(p)))
                .collect();
            assert_eq!(own.pids(&grid), by_coords, "rules {:?}", m.rules);
            for p in grid.pids() {
                assert_eq!(own.contains_pid(&grid, p), by_coords.contains(&p));
            }
        }
    }
}
