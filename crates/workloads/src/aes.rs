//! AES-128 encryption workload (the paper's "Encryption" \[26\]).
//!
//! A real FIPS-197 AES-128 ECB implementation runs inside the simulated
//! GPU kernel; the cost descriptor models the CUDA kernel of Kipper et
//! al.: table-lookup heavy, compute-bound, with large constant data (the
//! S-box / T-tables) that the backend's constant-reuse optimisation can
//! share across consolidated instances.
//!
//! Presets:
//! * [`AesWorkload::fig7`] — 12 KB input, 3 blocks/instance, the Figure
//!   1/7 configuration (GPU slightly *slower* than CPU for one instance);
//! * [`AesWorkload::table1_6k`] — 6 KB input, 3 blocks, 128 threads
//!   (Table 1's 0.15 speedup row);
//! * [`AesWorkload::scenario1`] — 15 blocks, 1e5 iterations, the Table 2
//!   instance (19.5 s on the GPU), register-heavy so it cannot co-reside
//!   with Monte-Carlo blocks;
//! * [`AesWorkload::tables78`] — the Section VIII heterogeneous-mix
//!   instance (45.7 s GPU, 7.2 s CPU).

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::with_solo_time;
use crate::registry::{ptr_arg, DeviceBuffers, Workload};

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Expanded AES-128 key schedule: 11 round keys of 16 bytes.
pub fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
    }
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ t[j];
        }
    }
    let mut rk = [[0u8; 16]; 11];
    for (r, chunk) in w.chunks_exact(4).enumerate() {
        for (c, word) in chunk.iter().enumerate() {
            rk[r][4 * c..4 * c + 4].copy_from_slice(word);
        }
    }
    rk
}

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// Encrypt one 16-byte block in place with an expanded key schedule.
pub fn encrypt_block(state: &mut [u8; 16], rk: &[[u8; 16]; 11]) {
    let add = |s: &mut [u8; 16], k: &[u8; 16]| {
        for i in 0..16 {
            s[i] ^= k[i];
        }
    };
    let sub = |s: &mut [u8; 16]| {
        for b in s.iter_mut() {
            *b = SBOX[*b as usize];
        }
    };
    // State is column-major: byte (row r, col c) lives at 4c + r.
    let shift = |s: &mut [u8; 16]| {
        let t = *s;
        for r in 1..4 {
            for c in 0..4 {
                s[4 * c + r] = t[4 * ((c + r) % 4) + r];
            }
        }
    };
    let mix = |s: &mut [u8; 16]| {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            let all = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                s[4 * c + r] = col[r] ^ all ^ xtime(col[r] ^ col[(r + 1) % 4]);
            }
        }
    };

    add(state, &rk[0]);
    for round_key in rk.iter().take(10).skip(1) {
        sub(state);
        shift(state);
        mix(state);
        add(state, round_key);
    }
    sub(state);
    shift(state);
    add(state, &rk[10]);
}

/// Encrypt a buffer (length must be a multiple of 16) in ECB mode.
pub fn encrypt_ecb(data: &[u8], key: &[u8; 16]) -> Vec<u8> {
    assert_eq!(
        data.len() % 16,
        0,
        "AES-ECB input must be a multiple of 16 bytes"
    );
    let rk = expand_key(key);
    let mut out = Vec::with_capacity(data.len());
    for chunk in data.chunks_exact(16) {
        let mut b = [0u8; 16];
        b.copy_from_slice(chunk);
        encrypt_block(&mut b, &rk);
        out.extend_from_slice(&b);
    }
    out
}

/// The fixed demo key used by all presets (inputs vary per seed).
pub const DEMO_KEY: [u8; 16] = *b"ewc-paper-aes-k!";

/// An AES encryption instance.
#[derive(Debug, Clone)]
pub struct AesWorkload {
    data_bytes: usize,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl AesWorkload {
    /// Fully custom construction; presets below are preferred.
    pub fn new(
        data_bytes: usize,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        assert_eq!(
            data_bytes % 16,
            0,
            "AES data must be a multiple of 16 bytes"
        );
        AesWorkload {
            data_bytes,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    fn base_desc(tpb: u32, regs: u32) -> KernelDesc {
        KernelDesc::builder("aes_encrypt")
            .threads_per_block(tpb)
            .regs_per_thread(regs)
            .shared_mem_per_block(4096) // T-tables staged in shared memory
            .coalesced_mem(200.0)
            .uncoalesced_mem(40.0)
            .sync_insts(2.0)
            .build()
    }

    /// Figure 1 / Figure 7 instance: 12 KB input, 3 blocks of 256
    /// threads. Solo GPU time ≈ 8.4 s (16% slower than the 7.2 s CPU
    /// run), calibrated to Table 1's 0.84 speedup.
    pub fn fig7(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(256, 20), 8.4, cfg);
        AesWorkload::new(12 * 1024, desc, 3, 14.4, 2, 8 << 20)
    }

    /// Table 1's 6 KB row: 128-thread blocks, dismal 0.15 GPU speedup
    /// (too little work to hide any latency).
    pub fn table1_6k(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(128, 20), 24.0, cfg);
        AesWorkload::new(6 * 1024, desc, 3, 7.2, 2, 6 << 20)
    }

    /// Table 2 (scenario 1) instance: 15 blocks, 1e5 iterations → 19.5 s
    /// on the GPU. Register-heavy (40/thread: 10 240/SM) so that a
    /// Monte-Carlo block cannot co-reside — the placement precondition of
    /// the paper's critical-SM analysis.
    pub fn scenario1(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(256, 40), 19.5, cfg);
        AesWorkload::new(12 * 1024, desc, 15, 39.0, 2, 8 << 20)
    }

    /// Tables 7/8 instance: 45.7 s GPU vs 7.2 s CPU (Section VIII).
    pub fn tables78(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(256, 20), 45.7, cfg);
        AesWorkload::new(12 * 1024, desc, 3, 14.4, 2, 8 << 20)
    }

    /// Input size in bytes.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }
}

impl Workload for AesWorkload {
    fn name(&self) -> &'static str {
        "encryption"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "encryption",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        self.data_bytes as u64
    }

    fn d2h_bytes(&self) -> u64 {
        self.data_bytes as u64
    }

    fn body(&self) -> BlockFn {
        let n = self.data_bytes;
        let rk = expand_key(&DEMO_KEY);
        Arc::new(move |ctx, mem| {
            let input = ptr_arg(ctx, 0)?;
            let output = ptr_arg(ctx, 1)?;
            let blocks16 = n / 16;
            let per = blocks16.div_ceil(ctx.num_blocks as usize);
            let lo = ctx.block_idx as usize * per;
            let hi = (lo + per).min(blocks16);
            if lo >= hi {
                return Ok(());
            }
            let raw = mem
                .read(input, (lo * 16) as u64, ((hi - lo) * 16) as u64)?
                .to_vec();
            let mut out = Vec::with_capacity(raw.len());
            for chunk in raw.chunks_exact(16) {
                let mut b = [0u8; 16];
                b.copy_from_slice(chunk);
                encrypt_block(&mut b, &rk);
                out.extend_from_slice(&b);
            }
            mem.write(output, (lo * 16) as u64, &out)
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let input = gpu.alloc_bytes(self.data_bytes as u64)?;
        let output = gpu.alloc_bytes(self.data_bytes as u64)?;
        let data = crate::data::bytes(seed, self.data_bytes);
        gpu.upload(input, 0, &data)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U32(self.data_bytes as u32),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: self.data_bytes as u64,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        encrypt_ecb(&crate::data::bytes(seed, self.data_bytes), &DEMO_KEY)
    }

    fn constant_data(&self) -> Option<(&'static str, Vec<u8>)> {
        // The four 256-entry 32-bit T-tables plus the S-box: 4 KiB + 256 B,
        // derived from the S-box so the content is the real lookup data.
        let mut tables = Vec::with_capacity(4 * 1024 + 256);
        for t in 0u32..4 {
            for (i, &s) in SBOX.iter().enumerate() {
                let v = u32::from(s).rotate_left(8 * t) ^ (i as u32);
                tables.extend_from_slice(&v.to_le_bytes());
            }
        }
        tables.extend_from_slice(&SBOX);
        Some(("aes_ttables", tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_standalone;
    use ewc_gpu::GpuDevice;
    use ewc_gpu::{BlockCost, GpuConfig};

    #[test]
    fn fips197_appendix_b_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let rk = expand_key(&key);
        let mut state = plain;
        encrypt_block(&mut state, &rk);
        assert_eq!(state, expect);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let mut state = plain;
        encrypt_block(&mut state, &expand_key(&key));
        assert_eq!(state, expect);
    }

    #[test]
    fn ecb_roundtrip_is_deterministic_and_blockwise() {
        let data = crate::data::bytes(1, 64);
        let a = encrypt_ecb(&data, &DEMO_KEY);
        let b = encrypt_ecb(&data, &DEMO_KEY);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        // ECB: identical plaintext blocks give identical ciphertext blocks.
        let twice = [&data[..16], &data[..16]].concat();
        let enc = encrypt_ecb(&twice, &DEMO_KEY);
        assert_eq!(&enc[..16], &enc[16..]);
    }

    #[test]
    fn gpu_run_matches_host_reference() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let w = AesWorkload::fig7(&cfg);
        let r = run_standalone(&w, &mut gpu, 7).unwrap();
        assert!(r.correct, "consolidatable AES kernel must match host AES");
    }

    #[test]
    fn fig7_calibration_matches_table1() {
        let cfg = GpuConfig::tesla_c1060();
        let w = AesWorkload::fig7(&cfg);
        let cost = BlockCost::derive(&w.desc(), &cfg);
        assert!((cost.t_solo_s - 8.4).abs() / 8.4 < 1e-6);
        assert!(cost.is_compute_bound());
        // CPU: 14.4 core-seconds at parallelism 2 → 7.2 s solo.
        assert!((w.cpu_task().solo_time_s(8) - 7.2).abs() < 1e-9);
        // Table 1 speedup ≈ 0.84.
        let speedup = w.cpu_task().solo_time_s(8) / cost.t_solo_s;
        assert!((speedup - 0.857).abs() < 0.03, "speedup {speedup}");
    }

    #[test]
    fn scenario1_blocks_cannot_share_an_sm_with_each_other() {
        // 40 regs × 256 threads = 10 240: two AES blocks (20 480) exceed
        // the 16 K register file → occupancy 1.
        let cfg = GpuConfig::tesla_c1060();
        let w = AesWorkload::scenario1(&cfg);
        let occ = ewc_gpu::Occupancy::of(&w.desc(), &cfg).unwrap();
        assert_eq!(occ.blocks_per_sm, 1);
    }

    #[test]
    fn partial_tail_block_handled() {
        // 12 KB = 768 AES blocks over 3 thread blocks = 256 each; also
        // check an instance whose AES-block count does not divide evenly.
        let cfg = GpuConfig::tesla_c1060();
        let desc = AesWorkload::base_desc(256, 20);
        let w = AesWorkload::new(5 * 16 * 10, with_solo_time(desc, 0.01, &cfg), 3, 1.0, 1, 0);
        let mut gpu = GpuDevice::new(cfg);
        let r = run_standalone(&w, &mut gpu, 3).unwrap();
        assert!(r.correct);
    }
}
