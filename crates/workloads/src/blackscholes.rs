//! BlackScholes workload (the paper's CUDA SDK sample \[28\]).
//!
//! Closed-form European option pricing: for each option `(S, K, T)` the
//! kernel computes call and put prices with the Black–Scholes formula.
//! Compute-bound (exp/log/CND chains) with streaming coalesced reads —
//! the profile of the SDK sample. Its full issue demand is what stretches
//! a co-resident search block in scenario 2, and its own blocks serialise
//! pairwise when two land on one SM.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::with_solo_time;
use crate::registry::{ptr_arg, DeviceBuffers, Workload};

/// Risk-free rate used by the SDK sample.
pub const RISK_FREE: f64 = 0.02;
/// Volatility used by the SDK sample.
pub const VOLATILITY: f64 = 0.30;

/// Cumulative normal distribution (Abramowitz–Stegun 26.2.17 polynomial,
/// the exact approximation the CUDA SDK sample uses).
pub fn cnd(d: f64) -> f64 {
    const A1: f64 = 0.319_381_530;
    const A2: f64 = -0.356_563_782;
    const A3: f64 = 1.781_477_937;
    const A4: f64 = -1.821_255_978;
    const A5: f64 = 1.330_274_429;
    const RSQRT2PI: f64 = 0.398_942_280_401_432_7;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = RSQRT2PI * (-0.5 * d * d).exp() * poly;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

/// Price one European option; returns `(call, put)`.
pub fn black_scholes(s: f64, k: f64, t: f64) -> (f64, f64) {
    let sqrt_t = t.sqrt();
    let d1 =
        ((s / k).ln() + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t) / (VOLATILITY * sqrt_t);
    let d2 = d1 - VOLATILITY * sqrt_t;
    let cnd_d1 = cnd(d1);
    let cnd_d2 = cnd(d2);
    let exp_rt = (-RISK_FREE * t).exp();
    let call = s * cnd_d1 - k * exp_rt * cnd_d2;
    let put = k * exp_rt * (1.0 - cnd_d2) - s * (1.0 - cnd_d1);
    (call, put)
}

/// Price a batch laid out as three parallel arrays; returns interleaved
/// `(call, put)` as `f32` pairs — the device output layout.
pub fn price_batch(spots: &[f32], strikes: &[f32], times: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(spots.len() * 2);
    for i in 0..spots.len() {
        let (c, p) = black_scholes(
            f64::from(spots[i]),
            f64::from(strikes[i]),
            f64::from(times[i]),
        );
        out.push(c as f32);
        out.push(p as f32);
    }
    out
}

/// A BlackScholes instance.
#[derive(Debug, Clone)]
pub struct BlackScholesWorkload {
    options: usize,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl BlackScholesWorkload {
    /// Custom construction; prefer the presets.
    pub fn new(
        options: usize,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        BlackScholesWorkload {
            options,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    fn base_desc(regs: u32) -> KernelDesc {
        KernelDesc::builder("blackscholes")
            .threads_per_block(256)
            .regs_per_thread(regs)
            .coalesced_mem(500.0)
            .build()
    }

    /// Table 1 / Tables 5–6 instance: 4096 K options in one block; GPU
    /// 34.2 s vs CPU 57.4 s (the workload that *likes* the GPU).
    /// Functional data is a 64 K-option slice of the batch so tests stay
    /// fast; the descriptor carries the full cost.
    pub fn tables56(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(20), 34.2, cfg);
        BlackScholesWorkload::new(65_536, desc, 1, 114.8, 2, 1 << 20)
    }

    /// Scenario 2 (Table 3) instance: 45 blocks, 1000 iterations; a
    /// single instance runs in 26.4 s (its second wave of 15 blocks
    /// doubles up on SMs 0–14). Registers sized (28/thread) so that two
    /// BS blocks or one search + one BS block share an SM, but never
    /// search + two BS.
    pub fn scenario2(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(28), 13.2, cfg);
        BlackScholesWorkload::new(65_536, desc, 45, 114.8, 2, 1 << 20)
    }

    /// Options priced per instance (functional).
    pub fn options(&self) -> usize {
        self.options
    }
}

impl Workload for BlackScholesWorkload {
    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "blackscholes",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        (self.options * 4 * 3) as u64
    }

    fn d2h_bytes(&self) -> u64 {
        (self.options * 4 * 2) as u64
    }

    fn body(&self) -> BlockFn {
        let n = self.options;
        Arc::new(move |ctx, mem| {
            let input = ptr_arg(ctx, 0)?;
            let output = ptr_arg(ctx, 1)?;
            let nb = ctx.num_blocks as usize;
            let chunk = n.div_ceil(nb);
            let lo = ctx.block_idx as usize * chunk;
            let hi = (lo + chunk).min(n);
            if lo >= hi {
                return Ok(());
            }
            // Input layout: spots[n] | strikes[n] | times[n].
            let spots = mem.read_f32s(input, lo as u64, hi - lo)?;
            let strikes = mem.read_f32s(input, (n + lo) as u64, hi - lo)?;
            let times = mem.read_f32s(input, (2 * n + lo) as u64, hi - lo)?;
            let prices = price_batch(&spots, &strikes, &times);
            mem.write_f32s(output, (lo * 2) as u64, &prices)
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let n = self.options;
        let input = gpu.alloc_bytes((n * 4 * 3) as u64)?;
        let output = gpu.alloc_bytes((n * 4 * 2) as u64)?;
        let spots = crate::data::f32s(seed, n, 5.0, 30.0);
        let strikes = crate::data::f32s(seed ^ 1, n, 1.0, 100.0);
        let times = crate::data::f32s(seed ^ 2, n, 0.25, 10.0);
        let mut raw = Vec::with_capacity(n * 4 * 3);
        for arr in [&spots, &strikes, &times] {
            for v in arr.iter() {
                raw.extend_from_slice(&v.to_le_bytes());
            }
        }
        gpu.upload(input, 0, &raw)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U32(n as u32),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: (n * 4 * 2) as u64,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        let n = self.options;
        let spots = crate::data::f32s(seed, n, 5.0, 30.0);
        let strikes = crate::data::f32s(seed ^ 1, n, 1.0, 100.0);
        let times = crate::data::f32s(seed ^ 2, n, 0.25, 10.0);
        let prices = price_batch(&spots, &strikes, &times);
        let mut out = Vec::with_capacity(prices.len() * 4);
        for p in prices {
            out.extend_from_slice(&p.to_le_bytes());
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
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-7);
        assert!(cnd(-8.0) < 1e-9);
        assert!((cnd(8.0) - 1.0).abs() < 1e-9);
        let mut last = 0.0;
        for i in -40..=40 {
            let v = cnd(f64::from(i) * 0.25);
            assert!(v >= last, "CDF must be monotone");
            last = v;
        }
    }

    #[test]
    fn put_call_parity_holds() {
        for (s, k, t) in [(20.0, 20.0, 1.0), (10.0, 35.0, 5.0), (30.0, 5.0, 0.25)] {
            let (c, p) = black_scholes(s, k, t);
            let parity = c - p - s + k * (-RISK_FREE * t).exp();
            assert!(parity.abs() < 1e-9, "parity violated: {parity}");
            assert!(c >= 0.0 && p >= 0.0);
        }
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let (c, _) = black_scholes(100.0, 1.0, 0.25);
        let intrinsic = 100.0 - 1.0 * (-RISK_FREE * 0.25_f64).exp();
        assert!((c - intrinsic).abs() < 1e-3);
    }

    #[test]
    fn gpu_run_matches_host_reference() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let mut w = BlackScholesWorkload::tables56(&cfg);
        w.options = 4096; // keep the functional batch small in tests
        let r = run_standalone(&w, &mut gpu, 17).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn scenario2_single_instance_timing() {
        // 45 blocks at 13.2 s solo, occupancy ≥ 2: the second wave
        // doubles up → instance time ≈ 26.4 s.
        let cfg = GpuConfig::tesla_c1060();
        let w = BlackScholesWorkload::scenario2(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 13.2).abs() / 13.2 < 1e-6);
        assert!(c.is_compute_bound());
        let engine = ewc_gpu::ExecutionEngine::new(cfg.clone());
        let out = engine
            .run(
                &ewc_gpu::Grid::single(w.desc(), w.blocks()),
                ewc_gpu::DispatchPolicy::default(),
            )
            .unwrap();
        assert!(
            (out.elapsed_s - 26.4).abs() / 26.4 < 0.05,
            "instance {}",
            out.elapsed_s
        );
    }

    #[test]
    fn tables56_calibration() {
        let cfg = GpuConfig::tesla_c1060();
        let w = BlackScholesWorkload::tables56(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 34.2).abs() / 34.2 < 1e-6);
        assert!((w.cpu_task().solo_time_s(8) - 57.4).abs() < 1e-9);
    }
}
