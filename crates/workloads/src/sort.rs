//! Sorting workload (the paper's "Sorting" \[27\]).
//!
//! A bitonic sorting network — the classic GPU sorting algorithm of the
//! era — runs functionally inside the kernel: each thread block
//! bitonic-sorts its chunk, and the final block merges the sorted chunks
//! (standing in for the merge kernel a real multi-launch sort would
//! issue). The cost descriptor is latency-bound with a *small issue
//! demand* (~0.45): two sorting blocks co-resident on an SM interleave
//! their warps without slowing each other down, which is exactly why
//! Figure 8's manual-consolidation execution time stays flat as instances
//! are packed.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::latency_bound;
use crate::registry::{ptr_arg, DeviceBuffers, Workload};

/// Bitonic-sort a slice in ascending order. Non-power-of-two lengths are
/// padded with `u32::MAX` sentinels (exactly what the CUDA kernels of the
/// era did), run through the classic iterative network, and truncated.
pub fn bitonic_sort(data: &mut [u32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let padded_len = n.next_power_of_two();
    let mut buf = Vec::with_capacity(padded_len);
    buf.extend_from_slice(data);
    buf.resize(padded_len, u32::MAX);

    let mut k = 2;
    while k <= padded_len {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded_len {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    if (ascending && buf[i] > buf[l]) || (!ascending && buf[i] < buf[l]) {
                        buf.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    data.copy_from_slice(&buf[..n]);
}

/// Merge `chunks` (each individually sorted) into one sorted vector.
pub fn merge_sorted_chunks(data: &[u32], chunk: usize) -> Vec<u32> {
    let mut cursors: Vec<usize> = (0..data.len().div_ceil(chunk)).map(|c| c * chunk).collect();
    let mut out = Vec::with_capacity(data.len());
    while out.len() < data.len() {
        let mut best: Option<(usize, u32)> = None;
        for (ci, &pos) in cursors.iter().enumerate() {
            let end = ((ci + 1) * chunk).min(data.len());
            if pos < end {
                let v = data[pos];
                if best.map(|(_, bv)| v < bv).unwrap_or(true) {
                    best = Some((ci, v));
                }
            }
        }
        let (ci, v) = best.expect("cursors exhausted before output filled");
        out.push(v);
        cursors[ci] += 1;
    }
    out
}

/// A sorting instance.
#[derive(Debug, Clone)]
pub struct SortWorkload {
    elems: usize,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl SortWorkload {
    /// Custom construction; prefer the presets.
    pub fn new(
        elems: usize,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        SortWorkload {
            elems,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    /// Table 1 / Figure 8 instance: 6 K elements, 6 blocks of 256
    /// threads, GPU 2.0 s vs CPU 2.9 s (speedup 1.45). Issue demand 0.45
    /// so co-resident instances interleave for free.
    pub fn fig8(cfg: &GpuConfig) -> Self {
        let base = KernelDesc::builder("bitonic_sort")
            .threads_per_block(256)
            .regs_per_thread(14)
            .shared_mem_per_block(2048)
            .sync_insts(24.0)
            .build();
        let desc = latency_bound(base, 2.0, 0.45, cfg);
        SortWorkload::new(6 * 1024, desc, 6, 5.8, 2, 1 << 20)
    }

    /// Elements sorted per instance.
    pub fn elems(&self) -> usize {
        self.elems
    }
}

impl Workload for SortWorkload {
    fn name(&self) -> &'static str {
        "sorting"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "sorting",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        (self.elems * 4) as u64
    }

    fn d2h_bytes(&self) -> u64 {
        (self.elems * 4) as u64
    }

    fn body(&self) -> BlockFn {
        let n = self.elems;
        Arc::new(move |ctx, mem| {
            let input = ptr_arg(ctx, 0)?;
            let output = ptr_arg(ctx, 1)?;
            let nb = ctx.num_blocks as usize;
            let chunk = n.div_ceil(nb);
            let lo = ctx.block_idx as usize * chunk;
            let hi = (lo + chunk).min(n);
            if lo < hi {
                // Phase 1: sort this block's chunk in place (input buffer
                // doubles as scratch, as the real kernel's shared-memory
                // staging would).
                let mut vals = mem.read_u32s(input, lo as u64, hi - lo)?;
                bitonic_sort(&mut vals);
                mem.write_u32s(input, lo as u64, &vals)?;
            }
            // Phase 2 (merge kernel): the last block merges all chunks.
            // Our device executes bodies in block order, so every chunk
            // is sorted by the time this runs — standing in for the
            // separate merge launch of a real implementation.
            if ctx.block_idx as usize == nb - 1 {
                let all = mem.read_u32s(input, 0, n)?;
                let merged = merge_sorted_chunks(&all, chunk);
                mem.write_u32s(output, 0, &merged)?;
            }
            Ok(())
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let bytes = (self.elems * 4) as u64;
        let input = gpu.alloc_bytes(bytes)?;
        let output = gpu.alloc_bytes(bytes)?;
        let data = crate::data::u32s(seed, self.elems);
        let mut raw = Vec::with_capacity(self.elems * 4);
        for v in &data {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        gpu.upload(input, 0, &raw)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U32(self.elems as u32),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: bytes,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        let mut data = crate::data::u32s(seed, self.elems);
        data.sort_unstable();
        let mut out = Vec::with_capacity(data.len() * 4);
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
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
    fn bitonic_sorts_arbitrary_lengths() {
        for n in [0usize, 1, 2, 3, 7, 8, 100, 1000, 1023, 1024] {
            let mut v = crate::data::u32s(n as u64, n);
            let mut expect = v.clone();
            expect.sort_unstable();
            bitonic_sort(&mut v);
            assert_eq!(v, expect, "length {n}");
        }
    }

    #[test]
    fn bitonic_handles_duplicates_and_extremes() {
        let mut v = vec![5, 5, 0, u32::MAX, 5, 0, u32::MAX, 1];
        bitonic_sort(&mut v);
        assert_eq!(v, vec![0, 0, 1, 5, 5, 5, u32::MAX, u32::MAX]);
    }

    #[test]
    fn merge_combines_sorted_chunks() {
        let data = vec![1, 4, 9, 2, 3, 8, 0, 7, 7];
        let mut sorted = data.clone();
        for c in sorted.chunks_mut(3) {
            c.sort_unstable();
        }
        let merged = merge_sorted_chunks(&sorted, 3);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn merge_with_ragged_tail() {
        let mut data = crate::data::u32s(3, 10);
        for c in data.chunks_mut(4) {
            c.sort_unstable();
        }
        let merged = merge_sorted_chunks(&data, 4);
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn gpu_run_produces_sorted_output() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let w = SortWorkload::fig8(&cfg);
        let r = run_standalone(&w, &mut gpu, 11).unwrap();
        assert!(r.correct, "device sort must equal host sort");
    }

    #[test]
    fn fig8_calibration() {
        let cfg = GpuConfig::tesla_c1060();
        let w = SortWorkload::fig8(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 2.0).abs() / 2.0 < 1e-3, "time {}", c.t_solo_s);
        assert!(
            (c.issue_demand - 0.45).abs() < 0.03,
            "demand {}",
            c.issue_demand
        );
        // Two co-resident sort blocks must fit and not contend (Σd < 1).
        assert!(2.0 * c.issue_demand < 1.0);
        let occ = ewc_gpu::Occupancy::of(&w.desc(), &cfg).unwrap();
        assert!(occ.blocks_per_sm >= 2, "occupancy {occ:?}");
        // Table 1: GPU speedup over CPU ≈ 1.45.
        let speedup = w.cpu_task().solo_time_s(8) / c.t_solo_s;
        assert!((speedup - 1.45).abs() < 0.05, "speedup {speedup}");
    }
}
