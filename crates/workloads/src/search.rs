//! Search workload (the paper's "Search" \[7\]).
//!
//! Substring counting over a document: each thread block scans a chunk of
//! the text (with pattern-length overlap at the seam) and writes its
//! match count. The cost descriptor is strongly *latency-bound* — lots of
//! uncoalesced, data-dependent reads with a small issue demand (~0.30) —
//! which is why, in the paper's scenario 2, BlackScholes warps can
//! interleave into search's stall cycles on the same SM almost for free.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::latency_bound;
use crate::registry::{ptr_arg, DeviceBuffers, Workload};

/// Count occurrences of `pattern` in `text`, overlapping matches
/// included.
pub fn count_matches(text: &[u8], pattern: &[u8]) -> u32 {
    if pattern.is_empty() || text.len() < pattern.len() {
        return 0;
    }
    let mut count = 0;
    for i in 0..=(text.len() - pattern.len()) {
        if &text[i..i + pattern.len()] == pattern {
            count += 1;
        }
    }
    count
}

/// Count matches whose *start* lies in `[lo, hi)`; reads may run past
/// `hi` into the overlap region.
pub fn count_matches_in_range(text: &[u8], pattern: &[u8], lo: usize, hi: usize) -> u32 {
    if pattern.is_empty() {
        return 0;
    }
    let mut count = 0;
    let last_start = text.len().saturating_sub(pattern.len());
    for i in lo..hi.min(last_start + 1) {
        if &text[i..i + pattern.len()] == pattern {
            count += 1;
        }
    }
    count
}

/// The default pattern; short and common enough to occur in random
/// lowercase text.
pub const DEFAULT_PATTERN: &[u8] = b"the";

/// A search instance.
#[derive(Debug, Clone)]
pub struct SearchWorkload {
    text_bytes: usize,
    pattern: Vec<u8>,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl SearchWorkload {
    /// Custom construction; prefer the presets.
    pub fn new(
        text_bytes: usize,
        pattern: Vec<u8>,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        assert!(!pattern.is_empty(), "pattern must be non-empty");
        SearchWorkload {
            text_bytes,
            pattern,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    fn base_desc(tpb: u32) -> KernelDesc {
        KernelDesc::builder("substring_search")
            .threads_per_block(tpb)
            .regs_per_thread(16)
            .shared_mem_per_block(1024)
            .build()
    }

    /// Table 1 / Tables 5–6 instance: 10 K input, 10 blocks of 256
    /// threads; GPU 35.2 s vs CPU 17 s (the 0.48 speedup row).
    pub fn tables56(cfg: &GpuConfig) -> Self {
        let desc = latency_bound(Self::base_desc(256), 35.2, 0.30, cfg);
        SearchWorkload::new(
            10 * 1024,
            DEFAULT_PATTERN.to_vec(),
            desc,
            10,
            34.0,
            2,
            4 << 20,
        )
    }

    /// Scenario 2 (Table 3) instance: 15 blocks, 6e6 iterations → 49.2 s
    /// on the GPU.
    pub fn scenario2(cfg: &GpuConfig) -> Self {
        let desc = latency_bound(Self::base_desc(256), 49.2, 0.30, cfg);
        SearchWorkload::new(
            10 * 1024,
            DEFAULT_PATTERN.to_vec(),
            desc,
            15,
            34.0,
            2,
            4 << 20,
        )
    }

    /// The pattern searched for.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }
}

impl Workload for SearchWorkload {
    fn name(&self) -> &'static str {
        "search"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "search",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        (self.text_bytes + self.pattern.len()) as u64
    }

    fn d2h_bytes(&self) -> u64 {
        u64::from(self.blocks) * 4
    }

    fn body(&self) -> BlockFn {
        let n = self.text_bytes;
        let pattern = self.pattern.clone();
        Arc::new(move |ctx, mem| {
            let input = ptr_arg(ctx, 0)?;
            let output = ptr_arg(ctx, 1)?;
            let nb = ctx.num_blocks as usize;
            let chunk = n.div_ceil(nb);
            let lo = ctx.block_idx as usize * chunk;
            let hi = (lo + chunk).min(n);
            let text = mem.read(input, 0, n as u64)?.to_vec();
            let count = if lo < hi {
                count_matches_in_range(&text, &pattern, lo, hi)
            } else {
                0
            };
            mem.write_u32s(output, ctx.block_idx as u64, &[count])
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let input = gpu.alloc_bytes(self.text_bytes as u64)?;
        let output = gpu.alloc_bytes(u64::from(self.blocks) * 4)?;
        let text = crate::data::text(seed, self.text_bytes);
        gpu.upload(input, 0, &text)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U32(self.text_bytes as u32),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: u64::from(self.blocks) * 4,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        let text = crate::data::text(seed, self.text_bytes);
        let chunk = self.text_bytes.div_ceil(self.blocks as usize);
        let mut out = Vec::with_capacity(self.blocks as usize * 4);
        for b in 0..self.blocks as usize {
            let lo = b * chunk;
            let hi = ((b + 1) * chunk).min(self.text_bytes);
            let c = if lo < hi {
                count_matches_in_range(&text, &self.pattern, lo, hi)
            } else {
                0
            };
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_standalone;
    use ewc_gpu::BlockCost;
    use ewc_gpu::GpuDevice;

    #[test]
    fn count_matches_basic() {
        assert_eq!(count_matches(b"the cat the dog", b"the"), 2);
        assert_eq!(
            count_matches(b"aaaa", b"aa"),
            3,
            "overlapping matches count"
        );
        assert_eq!(count_matches(b"abc", b"xyz"), 0);
        assert_eq!(count_matches(b"ab", b"abc"), 0, "pattern longer than text");
        assert_eq!(count_matches(b"abc", b""), 0);
    }

    #[test]
    fn range_counts_partition_the_total() {
        let text = crate::data::text(5, 20_000);
        let pat = b"ab"; // short enough to occur ~27 times in 20 K chars
        let total = count_matches(&text, pat);
        let sum: u32 = (0..4)
            .map(|b| count_matches_in_range(&text, pat, b * 5000, (b + 1) * 5000))
            .sum();
        assert_eq!(total, sum, "chunk counts must partition the total");
        assert!(
            total > 0,
            "two-letter pattern should occur in 20 K random chars"
        );
    }

    #[test]
    fn range_clamps_at_text_end() {
        assert_eq!(count_matches_in_range(b"ababab", b"ab", 4, 100), 1);
        assert_eq!(count_matches_in_range(b"ababab", b"ab", 5, 6), 0);
    }

    #[test]
    fn gpu_run_matches_host_reference() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let w = SearchWorkload::tables56(&cfg);
        let r = run_standalone(&w, &mut gpu, 21).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn scenario2_calibration() {
        let cfg = GpuConfig::tesla_c1060();
        let w = SearchWorkload::scenario2(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 49.2).abs() / 49.2 < 1e-3);
        assert!(c.issue_demand < 0.35, "must leave interleaving slack");
        assert!(!c.is_compute_bound());
        // A search block plus a BlackScholes block must co-reside.
        let bs = crate::blackscholes::BlackScholesWorkload::scenario2(&cfg);
        let mut sm = ewc_gpu::occupancy::SmResources::new(&cfg);
        assert!(sm.admit(&w.desc()));
        assert!(sm.admit(&bs.desc()));
    }

    #[test]
    fn tables56_cpu_profile() {
        let cfg = GpuConfig::tesla_c1060();
        let w = SearchWorkload::tables56(&cfg);
        assert!((w.cpu_task().solo_time_s(8) - 17.0).abs() < 1e-9);
    }
}
