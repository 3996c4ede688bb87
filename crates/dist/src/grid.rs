//! Multi-dimensional (virtual) processor grids.

use serde::{Deserialize, Serialize};

/// A processor grid: `dims[d]` processors along grid dimension `d`.
/// Processors are identified both by linear id (`0..total()`) and by
/// coordinate vector; the linearization is row-major on coordinates
/// (last dimension fastest), matching HPF `PROCESSORS P(d1,d2)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcGrid {
    dims: Vec<usize>,
}

impl ProcGrid {
    pub fn new(dims: Vec<usize>) -> ProcGrid {
        assert!(!dims.is_empty(), "grid must have at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        ProcGrid { dims }
    }

    /// One-dimensional grid of `p` processors.
    pub fn line(p: usize) -> ProcGrid {
        ProcGrid::new(vec![p])
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    pub fn extent(&self, d: usize) -> usize {
        self.dims[d]
    }

    pub fn total(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of a linear processor id.
    pub fn coords_of(&self, mut pid: usize) -> Vec<usize> {
        debug_assert!(pid < self.total());
        let mut c = vec![0; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            c[d] = pid % self.dims[d];
            pid /= self.dims[d];
        }
        c
    }

    /// Coordinate of linear processor id `pid` along grid dimension `d`:
    /// `coords_of(pid)[d]`, without building the vector.
    pub fn coord(&self, pid: usize, d: usize) -> usize {
        debug_assert!(pid < self.total());
        let inner: usize = self.dims[d + 1..].iter().product();
        pid / inner % self.dims[d]
    }

    /// Linear id of a coordinate vector.
    pub fn pid_of(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut pid = 0;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[d]);
            pid = pid * self.dims[d] + c;
        }
        pid
    }

    /// All processor ids.
    pub fn pids(&self) -> impl Iterator<Item = usize> {
        0..self.total()
    }

    /// All pids whose coordinate along `dim` equals `coord`.
    pub fn pids_with_coord(&self, dim: usize, coord: usize) -> Vec<usize> {
        self.pids()
            .filter(|&p| self.coord(p, dim) == coord)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_2d() {
        let g = ProcGrid::new(vec![4, 4]);
        assert_eq!(g.total(), 16);
        for p in g.pids() {
            assert_eq!(g.pid_of(&g.coords_of(p)), p);
        }
        assert_eq!(g.coords_of(0), vec![0, 0]);
        assert_eq!(g.coords_of(1), vec![0, 1]); // last dim fastest
        assert_eq!(g.coords_of(4), vec![1, 0]);
    }

    #[test]
    fn line_grid() {
        let g = ProcGrid::line(8);
        assert_eq!(g.rank(), 1);
        assert_eq!(g.total(), 8);
        assert_eq!(g.coords_of(5), vec![5]);
    }

    #[test]
    fn pids_with_coord_slices() {
        let g = ProcGrid::new(vec![2, 3]);
        assert_eq!(g.pids_with_coord(0, 1), vec![3, 4, 5]);
        assert_eq!(g.pids_with_coord(1, 0), vec![0, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        ProcGrid::new(vec![4, 0]);
    }
}
