//! MonteCarlo workload (the paper's CUDA SDK sample \[28\]).
//!
//! European call pricing by Monte-Carlo simulation of geometric Brownian
//! motion: each thread block simulates a deterministic slice of paths
//! (LCG + Box–Muller normals seeded by path index, so results are
//! independent of scheduling) and writes its partial payoff sum; the last
//! block reduces partials into the price. Heavily compute-bound with a
//! large register footprint — on the C1060 only **one** MC block fits an
//! SM, the occupancy precondition behind the paper's scenario-1
//! critical-SM analysis.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::with_solo_time;
use crate::registry::{ptr_arg, DeviceBuffers, Workload};

/// Fixed market parameters of the SDK sample.
pub const SPOT: f64 = 25.0;
/// Strike price.
pub const STRIKE: f64 = 28.0;
/// Risk-free rate.
pub const RATE: f64 = 0.02;
/// Volatility.
pub const SIGMA: f64 = 0.30;
/// Time to maturity in years.
pub const MATURITY: f64 = 5.0;

/// Deterministic standard normal for a path index (SplitMix-style mix +
/// Box–Muller). Identical on host and device by construction.
pub fn path_normal(path: u64) -> f64 {
    let mut z = path.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let u1 = ((z >> 11) as f64 / (1u64 << 53) as f64).max(1e-16);
    let mut w = path.wrapping_mul(0xd6e8_feb8_6659_fd93).wrapping_add(1);
    w = (w ^ (w >> 29)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    w ^= w >> 32;
    let u2 = (w >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Discounted payoff of one simulated path.
pub fn path_payoff(path: u64) -> f64 {
    let z = path_normal(path);
    let st = SPOT * ((RATE - 0.5 * SIGMA * SIGMA) * MATURITY + SIGMA * MATURITY.sqrt() * z).exp();
    (st - STRIKE).max(0.0) * (-RATE * MATURITY).exp()
}

/// Sum of discounted payoffs over a path range (host reference for one
/// block's partial).
pub fn partial_sum(lo: u64, hi: u64) -> f64 {
    (lo..hi).map(path_payoff).sum()
}

/// The Monte-Carlo price over `paths` paths.
pub fn price(paths: u64) -> f64 {
    partial_sum(0, paths) / paths as f64
}

/// A MonteCarlo instance.
#[derive(Debug, Clone)]
pub struct MonteCarloWorkload {
    paths: u64,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl MonteCarloWorkload {
    /// Custom construction; prefer the presets.
    pub fn new(
        paths: u64,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        MonteCarloWorkload {
            paths,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    fn base_desc() -> KernelDesc {
        KernelDesc::builder("montecarlo")
            .threads_per_block(128)
            .regs_per_thread(68) // 8 704 regs/block → occupancy 1 on 16 K
            .coalesced_mem(50.0)
            .build()
    }

    /// Scenario 1 (Table 2) instance: 45 blocks, 50 iterations; one block
    /// runs solo in 31.2 s, a full instance in 62.4 s (two waves).
    pub fn scenario1(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(), 31.2, cfg);
        MonteCarloWorkload::new(65_536, desc, 45, 612.0, 1, 12 << 20)
    }

    /// Table 1 / Tables 7–8 instance: steps = 500 K in one block; GPU
    /// 43.2 s vs CPU 306 s (the 7× GPU-friendly row).
    pub fn tables78(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(), 43.2, cfg);
        MonteCarloWorkload::new(65_536, desc, 1, 306.0, 1, 12 << 20)
    }

    /// Paths simulated per instance (functional).
    pub fn paths(&self) -> u64 {
        self.paths
    }
}

impl Workload for MonteCarloWorkload {
    fn name(&self) -> &'static str {
        "montecarlo"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "montecarlo",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        64 // just the market parameters
    }

    fn d2h_bytes(&self) -> u64 {
        (u64::from(self.blocks) + 1) * 8
    }

    fn body(&self) -> BlockFn {
        let paths = self.paths;
        Arc::new(move |ctx, mem| {
            let output = ptr_arg(ctx, 1)?;
            let nb = u64::from(ctx.num_blocks);
            let per = paths.div_ceil(nb);
            let lo = u64::from(ctx.block_idx) * per;
            let hi = (lo + per).min(paths);
            let sum = if lo < hi { partial_sum(lo, hi) } else { 0.0 };
            let off = u64::from(ctx.block_idx) * 8;
            mem.write(output, off, &sum.to_le_bytes())?;
            // Final block reduces the partials into the price (the real
            // sample issues a second reduction kernel; our device runs
            // bodies in block order, so all partials are present).
            if u64::from(ctx.block_idx) == nb - 1 {
                let mut total = 0.0_f64;
                for b in 0..nb {
                    let mut raw = [0u8; 8];
                    raw.copy_from_slice(mem.read(output, b * 8, 8)?);
                    total += f64::from_le_bytes(raw);
                }
                let price = total / paths as f64;
                mem.write(output, nb * 8, &price.to_le_bytes())?;
            }
            Ok(())
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        _seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        // MC generates its paths on device; input is just parameters.
        let input = gpu.alloc_bytes(64)?;
        let params: Vec<u8> = [SPOT, STRIKE, RATE, SIGMA, MATURITY]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        gpu.upload(input, 0, &params)?;
        let out_len = (u64::from(self.blocks) + 1) * 8;
        let output = gpu.alloc_bytes(out_len)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U64(self.paths),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: out_len,
            },
        ))
    }

    fn expected_output(&self, _seed: u64) -> Vec<u8> {
        let nb = u64::from(self.blocks);
        let per = self.paths.div_ceil(nb);
        let mut out = Vec::with_capacity(((nb + 1) * 8) as usize);
        let mut partials = Vec::with_capacity(nb as usize);
        for b in 0..nb {
            let lo = b * per;
            let hi = (lo + per).min(self.paths);
            let sum = if lo < hi { partial_sum(lo, hi) } else { 0.0 };
            partials.push(sum);
            out.extend_from_slice(&sum.to_le_bytes());
        }
        // Reduce in the same order as the device kernel so the f64
        // rounding matches bit-for-bit.
        let total: f64 = partials.iter().sum();
        out.extend_from_slice(&(total / self.paths as f64).to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_standalone;
    use ewc_gpu::GpuDevice;
    use ewc_gpu::{BlockCost, Occupancy};

    #[test]
    fn normals_have_sane_moments() {
        let n = 100_000u64;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for i in 0..n {
            let z = path_normal(i);
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn mc_price_converges_to_black_scholes() {
        let mc = price(500_000);
        let (bs_call, _) = crate::blackscholes::black_scholes(SPOT, STRIKE, MATURITY);
        // The BS module uses the same rate/volatility constants only by
        // coincidence of defaults; recompute analytically here.
        let rel = (mc - bs_call).abs() / bs_call;
        assert!(
            rel < 0.05,
            "MC {mc} vs BS {bs_call} ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn partial_sums_partition_total() {
        let total = partial_sum(0, 10_000);
        let parts: f64 = (0..10).map(|b| partial_sum(b * 1000, (b + 1) * 1000)).sum();
        assert!((total - parts).abs() < 1e-6);
    }

    #[test]
    fn gpu_run_matches_host_reference() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let mut w = MonteCarloWorkload::scenario1(&cfg);
        w.paths = 9_000; // fast functional test; ragged split over 45 blocks
        let r = run_standalone(&w, &mut gpu, 0).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn occupancy_is_one_block_per_sm() {
        let cfg = GpuConfig::tesla_c1060();
        let w = MonteCarloWorkload::scenario1(&cfg);
        let occ = Occupancy::of(&w.desc(), &cfg).unwrap();
        assert_eq!(occ.blocks_per_sm, 1);
        // ... and an MC block cannot join a scenario-1 AES block either.
        let aes = crate::aes::AesWorkload::scenario1(&cfg);
        let mut sm = ewc_gpu::occupancy::SmResources::new(&cfg);
        assert!(sm.admit(&aes.desc()));
        assert!(!sm.fits(&w.desc()));
    }

    #[test]
    fn scenario1_single_instance_is_two_waves() {
        let cfg = GpuConfig::tesla_c1060();
        let w = MonteCarloWorkload::scenario1(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 31.2).abs() / 31.2 < 1e-6);
        let engine = ewc_gpu::ExecutionEngine::new(cfg);
        let out = engine
            .run(
                &ewc_gpu::Grid::single(w.desc(), w.blocks()),
                ewc_gpu::DispatchPolicy::default(),
            )
            .unwrap();
        assert!(
            (out.elapsed_s - 62.4).abs() / 62.4 < 0.02,
            "instance {}",
            out.elapsed_s
        );
    }

    #[test]
    fn tables78_cpu_profile() {
        let cfg = GpuConfig::tesla_c1060();
        let w = MonteCarloWorkload::tables78(&cfg);
        assert!((w.cpu_task().solo_time_s(8) - 306.0).abs() < 1e-9);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 43.2).abs() / 43.2 < 1e-6);
    }
}
