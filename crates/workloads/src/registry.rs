//! The [`Workload`] trait and helpers shared by all workloads.
//!
//! A workload describes one *instance* — the unit a user process submits
//! to the framework. It knows its GPU cost descriptor, CPU profile,
//! transfer volumes, and how to build a functional [`GridSegment`]
//! operating on device memory.

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockCtx, BlockFn, KernelArg};
use ewc_gpu::{
    DeviceAlloc, DevicePtr, GpuDevice, GpuError, Grid, GridSegment, KernelDesc, LaunchConfig,
};

/// Device buffers backing one workload instance.
#[derive(Debug, Clone, Copy)]
pub struct DeviceBuffers {
    /// Input buffer (may be null for generated-on-device inputs).
    pub input: ewc_gpu::DevicePtr,
    /// Output buffer.
    pub output: ewc_gpu::DevicePtr,
    /// Output length in bytes.
    pub output_len: u64,
}

/// One of the paper's workloads, parameterised as a single instance.
pub trait Workload: Send + Sync {
    /// Workload family name (e.g. `"encryption"`).
    fn name(&self) -> &'static str;

    /// GPU cost descriptor of one kernel of this instance.
    fn desc(&self) -> KernelDesc;

    /// Thread blocks per instance.
    fn blocks(&self) -> u32;

    /// CPU-side profile of one instance (the paper assumes these are
    /// known to the framework).
    fn cpu_task(&self) -> CpuTask;

    /// Host→device bytes one instance must transfer.
    fn h2d_bytes(&self) -> u64;

    /// Device→host bytes one instance retrieves.
    fn d2h_bytes(&self) -> u64;

    /// The functional kernel body. Bodies interpret `ctx.args`
    /// positionally, exactly like a CUDA kernel reads its parameters;
    /// by convention `args[0]` is the input pointer and `args[1]` the
    /// output pointer. A missing argument or an access past a buffer is
    /// returned as an error, never a panic: bodies run inside the
    /// backend.
    fn body(&self) -> BlockFn;

    /// Allocate and initialise device buffers for a seeded instance,
    /// returning the launch arguments.
    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError>;

    /// Host-computed reference output for a seeded instance.
    fn expected_output(&self, seed: u64) -> Vec<u8>;

    /// Reusable constant data (key, bytes) this workload's kernels share
    /// — e.g. the AES T-tables — which the framework's constant-reuse
    /// optimisation uploads once per device lifetime. Default: none.
    fn constant_data(&self) -> Option<(&'static str, Vec<u8>)> {
        None
    }
}

/// Launch argument `i` of a block body as a device pointer. A missing or
/// non-pointer argument is a bad launch, reported like any other.
pub(crate) fn ptr_arg(ctx: &BlockCtx<'_>, i: usize) -> Result<DevicePtr, GpuError> {
    ctx.args
        .get(i)
        .and_then(KernelArg::as_ptr)
        .ok_or_else(|| GpuError::BadConfig(format!("kernel argument {i} is not a device pointer")))
}

/// Build the single-instance grid segment for a workload.
pub fn instance_segment(w: &dyn Workload, args: Vec<KernelArg>, tag: u64) -> GridSegment {
    GridSegment::bare(w.desc(), w.blocks())
        .with_args(args)
        .with_body(w.body())
        .with_tag(tag)
}

/// Build a single-instance grid.
pub fn instance_grid(w: &dyn Workload, args: Vec<KernelArg>) -> Grid {
    let mut g = Grid::new();
    g.push(instance_segment(w, args, 0));
    g
}

/// Outcome of a standalone single-instance run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Kernel execution time (launch report).
    pub kernel_s: f64,
    /// Transfer time (H2D + D2H).
    pub transfer_s: f64,
    /// The bytes read back from the output buffer.
    pub output: Vec<u8>,
    /// Whether the output matches the host reference.
    pub correct: bool,
}

/// Run one seeded instance end to end on a device: upload, launch,
/// download, verify against the host reference.
pub fn run_standalone(
    w: &dyn Workload,
    gpu: &mut GpuDevice,
    seed: u64,
) -> Result<RunResult, GpuError> {
    let t0 = gpu.now_s();
    let (args, bufs) = w.build_args(gpu, seed)?;
    let upload_end = gpu.now_s();
    let report = gpu.launch(&LaunchConfig::from_grid(instance_grid(w, args)))?;
    let (output, d2h_s) = gpu.memcpy_d2h(bufs.output, 0, bufs.output_len)?;
    let correct = output == w.expected_output(seed);
    Ok(RunResult {
        kernel_s: report.elapsed_s,
        transfer_s: (upload_end - t0) + d2h_s,
        output,
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_gpu::GpuConfig;
    use std::sync::Arc;

    /// A trivial workload: negate `n` u32 values.
    struct Negate {
        n: usize,
    }

    impl Workload for Negate {
        fn name(&self) -> &'static str {
            "negate"
        }
        fn desc(&self) -> KernelDesc {
            KernelDesc::builder("negate")
                .threads_per_block(64)
                .comp_insts(10.0)
                .coalesced_mem(2.0)
                .build()
        }
        fn blocks(&self) -> u32 {
            2
        }
        fn cpu_task(&self) -> CpuTask {
            CpuTask::new("negate", 0.1, 1, 0)
        }
        fn h2d_bytes(&self) -> u64 {
            (self.n * 4) as u64
        }
        fn d2h_bytes(&self) -> u64 {
            (self.n * 4) as u64
        }
        fn body(&self) -> BlockFn {
            let n = self.n;
            Arc::new(move |ctx, mem| {
                let input = ptr_arg(ctx, 0)?;
                let output = ptr_arg(ctx, 1)?;
                let per = n.div_ceil(ctx.num_blocks as usize);
                let lo = ctx.block_idx as usize * per;
                let hi = (lo + per).min(n);
                if lo >= hi {
                    return Ok(());
                }
                let vals = mem.read_u32s(input, lo as u64, hi - lo)?;
                let out: Vec<u32> = vals.iter().map(|v| !v).collect();
                mem.write_u32s(output, lo as u64, &out)
            })
        }
        fn build_args(
            &self,
            gpu: &mut dyn DeviceAlloc,
            seed: u64,
        ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
            let input = gpu.alloc_bytes(self.h2d_bytes())?;
            let output = gpu.alloc_bytes(self.d2h_bytes())?;
            let data = crate::data::u32s(seed, self.n);
            let mut bytes = Vec::new();
            for v in &data {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            gpu.upload(input, 0, &bytes)?;
            Ok((
                vec![KernelArg::Ptr(input), KernelArg::Ptr(output)],
                DeviceBuffers {
                    input,
                    output,
                    output_len: self.d2h_bytes(),
                },
            ))
        }
        fn expected_output(&self, seed: u64) -> Vec<u8> {
            let mut out = Vec::new();
            for v in crate::data::u32s(seed, self.n) {
                out.extend_from_slice(&(!v).to_le_bytes());
            }
            out
        }
    }

    #[test]
    fn standalone_run_is_correct_and_timed() {
        let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060());
        let w = Negate { n: 100 };
        let r = run_standalone(&w, &mut gpu, 42).unwrap();
        assert!(r.correct, "device output must match host reference");
        assert!(r.kernel_s > 0.0);
        assert!(r.transfer_s > 0.0);
        assert_eq!(r.output.len(), 400);
    }

    #[test]
    fn different_seeds_different_outputs() {
        let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060());
        let w = Negate { n: 10 };
        let a = run_standalone(&w, &mut gpu, 1).unwrap();
        let b = run_standalone(&w, &mut gpu, 2).unwrap();
        assert!(a.correct && b.correct);
        assert_ne!(a.output, b.output);
    }

    #[test]
    fn instance_segment_carries_tag_and_body() {
        let w = Negate { n: 4 };
        let seg = instance_segment(&w, Vec::new(), 99);
        assert_eq!(seg.tag, 99);
        assert_eq!(seg.blocks, 2);
        assert!(seg.body.is_some());
    }
}
