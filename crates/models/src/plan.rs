//! Consolidation plans: the models' input.

use ewc_gpu::{Grid, GridSegment, KernelDesc};

/// One member kernel of a proposed consolidation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Cost descriptor.
    pub desc: KernelDesc,
    /// Number of thread blocks.
    pub blocks: u32,
}

impl KernelSpec {
    /// Create a spec.
    pub fn new(desc: KernelDesc, blocks: u32) -> Self {
        KernelSpec { desc, blocks }
    }
}

/// An ordered set of member kernels. The order is the template's block
/// order and therefore determines placement (Section V).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsolidationPlan {
    /// Member kernels in template order.
    pub members: Vec<KernelSpec>,
}

impl ConsolidationPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a member kernel.
    pub fn push(&mut self, spec: KernelSpec) {
        self.members.push(spec);
    }

    /// Builder-style add.
    pub fn with(mut self, spec: KernelSpec) -> Self {
        self.push(spec);
        self
    }

    /// `n` copies of the same kernel (homogeneous consolidation).
    pub fn homogeneous(desc: KernelDesc, blocks: u32, n: u32) -> Self {
        let mut p = Self::new();
        for _ in 0..n {
            p.push(KernelSpec::new(desc.clone(), blocks));
        }
        p
    }

    /// Derive a plan from a grid (e.g. to predict an already-built
    /// template).
    pub fn from_grid(grid: &Grid) -> Self {
        let mut p = Self::new();
        for seg in grid.segments() {
            p.push(KernelSpec::new(seg.desc.clone(), seg.blocks));
        }
        p
    }

    /// Evaluate `f` once per distinct member, alone in a one-member plan
    /// (the serial alternative's launches). Returns the results in
    /// first-appearance order and each member's index into them. Members
    /// are the same kernel when their specs compare equal; a NaN count
    /// never does, so such a member is evaluated on its own.
    pub(crate) fn map_distinct_alone<T>(
        &self,
        mut f: impl FnMut(&Self) -> T,
    ) -> (Vec<T>, Vec<usize>) {
        let mut results = Vec::new();
        let mut index: Vec<usize> = Vec::with_capacity(self.members.len());
        for (j, m) in self.members.iter().enumerate() {
            match self.members[..j].iter().position(|d| d == m) {
                Some(first) => index.push(index[first]),
                None => {
                    index.push(results.len());
                    results.push(f(&Self::new().with(m.clone())));
                }
            }
        }
        (results, index)
    }

    /// Total blocks across members.
    pub fn total_blocks(&self) -> u32 {
        self.members.iter().map(|m| m.blocks).sum()
    }

    /// Build a cost-only grid matching this plan (for engine
    /// cross-validation in tests and benches).
    pub fn to_grid(&self) -> Grid {
        let mut g = Grid::new();
        for m in &self.members {
            g.push(GridSegment::bare(m.desc.clone(), m.blocks));
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(name: &str) -> KernelDesc {
        KernelDesc::builder(name)
            .threads_per_block(64)
            .comp_insts(10.0)
            .build()
    }

    #[test]
    fn plan_round_trips_through_grid() {
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(desc("a"), 3))
            .with(KernelSpec::new(desc("b"), 7));
        assert_eq!(plan.total_blocks(), 10);
        let grid = plan.to_grid();
        assert_eq!(ConsolidationPlan::from_grid(&grid), plan);
    }

    #[test]
    fn distinct_members_are_mapped_once_in_first_appearance_order() {
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(desc("a"), 3))
            .with(KernelSpec::new(desc("b"), 3))
            .with(KernelSpec::new(desc("a"), 3))
            .with(KernelSpec::new(desc("a"), 4));
        let mut seen = Vec::new();
        let (out, index) = plan.map_distinct_alone(|p| {
            seen.push(p.clone());
            p.members[0].blocks
        });
        assert_eq!(out, [3, 3, 4]);
        assert_eq!(index, [0, 1, 0, 2]);
        assert!(seen.iter().all(|p| p.members.len() == 1));
        assert_eq!(&*seen[1].members[0].desc.name, "b");
        let nan = KernelDesc {
            comp_insts: f64::NAN,
            ..desc("n")
        };
        let nan = ConsolidationPlan::homogeneous(nan, 1, 2);
        assert_eq!(nan.map_distinct_alone(|_| ()).1, [0, 1]);
    }

    #[test]
    fn homogeneous_replicates() {
        let p = ConsolidationPlan::homogeneous(desc("enc"), 3, 9);
        assert_eq!(p.members.len(), 9);
        assert_eq!(p.total_blocks(), 27);
    }
}
