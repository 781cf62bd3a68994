//! Fault injection: the framework must surface device and protocol
//! errors to the offending frontend without corrupting other users or
//! wedging the daemon.

use std::sync::Arc;

use ewc_core::{CoreError, Priority, Runtime, RuntimeConfig, Template};
use ewc_exec::VirtualClock;
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{GpuConfig, GpuError, KernelDesc};
use ewc_telemetry::TelemetrySink;
use ewc_workloads::registry::DeviceBuffers;
use ewc_workloads::{AesWorkload, SortWorkload, Workload};

fn runtime() -> (Runtime, Arc<dyn Workload>) {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();
    (rt, aes)
}

#[test]
fn device_oom_is_reported_and_survivable() {
    let (rt, aes) = runtime();
    let fe = rt.connect();
    // 8 GiB on a 4 GiB card.
    let err = fe.malloc(8 << 30).unwrap_err();
    assert!(
        matches!(err, CoreError::Gpu(GpuError::OutOfMemory { .. })),
        "got {err:?}"
    );
    // The daemon is still healthy: a normal user proceeds end to end.
    let mut fe2 = rt.connect();
    let (args, bufs) = aes.build_args(&mut fe2, 1).unwrap();
    fe2.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    for a in &args {
        fe2.setup_argument(*a).unwrap();
    }
    fe2.launch("encryption").unwrap();
    fe2.sync().unwrap();
    let out = fe2.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(1));
}

#[test]
fn invalid_pointer_operations_are_rejected() {
    let (rt, aes) = runtime();
    let mut fe = rt.connect();
    let bogus = ewc_gpu::DevicePtr(0xdead_0000);
    assert!(matches!(
        fe.memcpy_h2d(bogus, 0, &[1, 2, 3]).unwrap_err(),
        CoreError::Gpu(GpuError::InvalidPointer(_))
    ));
    assert!(matches!(
        fe.memcpy_d2h(bogus, 0, 4).unwrap_err(),
        CoreError::Gpu(GpuError::InvalidPointer(_))
    ));
    assert!(matches!(
        fe.free(bogus).unwrap_err(),
        CoreError::Gpu(GpuError::InvalidPointer(_))
    ));

    // Another context's live buffer is no more valid than a made-up
    // address: not to read, write, free, or pass to a kernel.
    let owner = rt.connect();
    let theirs = owner.malloc(16).unwrap();
    owner.memcpy_h2d(theirs, 0, &[7u8; 16]).unwrap();
    let foreign = |e: CoreError| e == CoreError::Gpu(GpuError::InvalidPointer(theirs.0));
    assert!(foreign(fe.memcpy_d2h(theirs, 0, 16).unwrap_err()));
    assert!(foreign(fe.memcpy_h2d(theirs, 0, &[1u8; 16]).unwrap_err()));
    assert!(foreign(fe.free(theirs).unwrap_err()));
    let (mut args, _bufs) = aes.build_args(&mut fe, 1).unwrap();
    args[1] = KernelArg::Ptr(theirs);
    fe.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    assert!(foreign(
        fe.launch_with("encryption", args, Priority::Normal, 0)
            .unwrap_err()
    ));
    fe.sync().unwrap();

    // The owner's bytes are untouched and still its own.
    assert_eq!(owner.memcpy_d2h(theirs, 0, 16).unwrap(), vec![7u8; 16]);
    owner.free(theirs).unwrap();
    let report = rt.shutdown();
    assert!(
        report.stats.records.is_empty(),
        "the refused launch never ran"
    );
}

#[test]
fn bad_launch_arguments_fail_the_request_not_the_backend() {
    // Kernel bodies run inside the backend core, on either driver. A
    // body that cannot run fails its own request at the next `sync`;
    // the core keeps serving every other frontend.
    for virtual_clock in [false, true] {
        let sink = if virtual_clock {
            TelemetrySink::disabled_virtual(VirtualClock::new())
        } else {
            TelemetrySink::disabled()
        };
        let cfg = GpuConfig::tesla_c1060();
        let sort: Arc<dyn Workload> = Arc::new(SortWorkload::fig8(&cfg));
        let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
        let rt = Runtime::builder(RuntimeConfig {
            force_gpu: true,
            ..RuntimeConfig::default()
        })
        .telemetry(sink)
        .workload("sorting", Arc::clone(&sort))
        .workload("encryption", Arc::clone(&aes))
        .template(Template::homogeneous("sorting"))
        .template(Template::homogeneous("encryption"))
        .build();

        // Buffers far smaller than the sort reads and writes.
        let mut undersized = rt.connect();
        let tiny = vec![
            KernelArg::Ptr(undersized.malloc(16).unwrap()),
            KernelArg::Ptr(undersized.malloc(16).unwrap()),
        ];
        undersized
            .configure_call(sort.blocks(), sort.desc().threads_per_block)
            .unwrap();
        undersized
            .launch_with("sorting", tiny, Priority::Normal, 0)
            .unwrap();

        // No arguments at all, grouped with a well-formed peer.
        let mut bare = rt.connect();
        bare.configure_call(aes.blocks(), aes.desc().threads_per_block)
            .unwrap();
        bare.launch_with("encryption", Vec::new(), Priority::Normal, 0)
            .unwrap();
        let mut peer = rt.connect();
        let (args, bufs) = aes.build_args(&mut peer, 3).unwrap();
        peer.configure_call(aes.blocks(), aes.desc().threads_per_block)
            .unwrap();
        peer.launch_with("encryption", args, Priority::Normal, 0)
            .unwrap();

        peer.sync().unwrap();
        let out = peer.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
        assert_eq!(out, aes.expected_output(3), "virtual clock {virtual_clock}");
        for (who, fe) in [("undersized", &undersized), ("bare", &bare)] {
            let err = fe.sync().unwrap_err();
            assert!(
                matches!(err, CoreError::KernelFailed { .. }),
                "{who} (virtual clock {virtual_clock}): {err:?}"
            );
        }
        let report = rt.shutdown();
        assert_eq!(report.stats.failed_kernels, 2);
        assert_eq!(report.stats.kernel_outcomes.len(), 1, "only the peer ran");
    }
}

#[test]
fn out_of_bounds_copies_are_rejected() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    let p = fe.malloc(16).unwrap();
    assert!(matches!(
        fe.memcpy_h2d(p, 8, &[0u8; 16]).unwrap_err(),
        CoreError::Gpu(GpuError::OutOfBounds { .. })
    ));
    assert!(matches!(
        fe.memcpy_d2h(p, 0, 17).unwrap_err(),
        CoreError::Gpu(GpuError::OutOfBounds { .. })
    ));
    // In-bounds copies still work afterwards.
    fe.memcpy_h2d(p, 0, &[7u8; 16]).unwrap();
    assert_eq!(fe.memcpy_d2h(p, 0, 16).unwrap(), vec![7u8; 16]);
}

#[test]
fn double_free_is_an_error_not_a_crash() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    let p = fe.malloc(64).unwrap();
    fe.free(p).unwrap();
    assert!(fe.free(p).is_err());
}

#[test]
fn frontends_outliving_the_runtime_fail_gracefully_on_both_drivers() {
    // Every call a frontend can make answers `Disconnected` once the
    // runtime is gone: shut down or dropped, stepped in-process (a
    // virtual-clock sink) or served by the daemon thread.
    for virtual_clock in [false, true] {
        for shut_down in [false, true] {
            let sink = if virtual_clock {
                TelemetrySink::disabled_virtual(VirtualClock::new())
            } else {
                TelemetrySink::disabled()
            };
            // Batching off, so `setup_argument` reaches the backend.
            let rt = Runtime::builder(RuntimeConfig {
                argument_batching: false,
                ..RuntimeConfig::default()
            })
            .telemetry(sink)
            .build();
            let mut fe = rt.connect();
            let p = fe.malloc(16).unwrap();
            if shut_down {
                rt.shutdown();
            } else {
                drop(rt);
            }
            let answers = [
                ("malloc", fe.malloc(16).map(drop)),
                ("free", fe.free(p)),
                ("memcpy_h2d", fe.memcpy_h2d(p, 0, &[1])),
                ("memcpy_d2h", fe.memcpy_d2h(p, 0, 1).map(drop)),
                ("configure_call", fe.configure_call(1, 32)),
                ("setup_argument", fe.setup_argument(KernelArg::U32(1))),
                ("launch", fe.launch("encryption").map(drop)),
                (
                    "launch_with",
                    fe.launch_with("encryption", Vec::new(), Priority::Normal, 0)
                        .map(drop),
                ),
                (
                    "launch_with_retries",
                    fe.launch_with_retries("encryption").map(drop),
                ),
                (
                    "register_constant",
                    fe.register_constant("k", &[1]).map(drop),
                ),
                ("advance_clock", fe.advance_clock(1.0)),
                ("advance_clock_by", fe.advance_clock_by(1.0)),
                ("sync", fe.sync()),
            ];
            for (call, answer) in answers {
                assert_eq!(
                    answer,
                    Err(CoreError::Disconnected),
                    "{call} (virtual clock {virtual_clock}, shut down {shut_down})"
                );
            }
        }
    }
}

#[test]
fn frontends_outliving_the_runtime_fail_gracefully() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    drop(rt); // shuts the backend down
    assert!(matches!(
        fe.malloc(16).unwrap_err(),
        CoreError::Disconnected
    ));
    assert!(matches!(fe.sync().unwrap_err(), CoreError::Disconnected));
}

/// A kernel demanding more shared memory per block than any SM has:
/// schedulable nowhere, rejected at enqueue time.
struct SharedMemHog;

impl Workload for SharedMemHog {
    fn name(&self) -> &'static str {
        "hog"
    }
    fn desc(&self) -> KernelDesc {
        KernelDesc::builder("hog")
            .threads_per_block(64)
            .shared_mem_per_block(1 << 30)
            .comp_insts(10.0)
            .build()
    }
    fn blocks(&self) -> u32 {
        1
    }
    fn cpu_task(&self) -> ewc_cpu::CpuTask {
        ewc_cpu::CpuTask::new("hog", 0.1, 1, 0)
    }
    fn h2d_bytes(&self) -> u64 {
        0
    }
    fn d2h_bytes(&self) -> u64 {
        4
    }
    fn body(&self) -> ewc_gpu::kernel::BlockFn {
        Arc::new(|_, _| Ok(()))
    }
    fn build_args(
        &self,
        gpu: &mut dyn ewc_gpu::DeviceAlloc,
        _seed: u64,
    ) -> Result<(Vec<ewc_gpu::kernel::KernelArg>, DeviceBuffers), GpuError> {
        let out = gpu.alloc_bytes(4)?;
        Ok((
            vec![ewc_gpu::kernel::KernelArg::Ptr(out)],
            DeviceBuffers {
                input: out,
                output: out,
                output_len: 4,
            },
        ))
    }
    fn expected_output(&self, _seed: u64) -> Vec<u8> {
        vec![0; 4]
    }
}

#[test]
fn unschedulable_kernel_rejected_at_launch_others_complete() {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .workload("hog", Arc::new(SharedMemHog))
    .template(Template::homogeneous("encryption"))
    .build();

    let mut hog_fe = rt.connect();
    let hog = SharedMemHog;
    let (args, _bufs) = hog.build_args(&mut hog_fe, 0).unwrap();
    hog_fe
        .configure_call(hog.blocks(), hog.desc().threads_per_block)
        .unwrap();
    for a in &args {
        hog_fe.setup_argument(*a).unwrap();
    }
    let err = hog_fe.launch("hog").unwrap_err();
    assert!(
        matches!(err, CoreError::Gpu(GpuError::Unschedulable(_))),
        "got {err:?}"
    );

    // The rejection never reached the pending queue; another frontend's
    // work completes normally.
    let mut fe = rt.connect();
    let (args, bufs) = aes.build_args(&mut fe, 4).unwrap();
    fe.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    for a in &args {
        fe.setup_argument(*a).unwrap();
    }
    fe.launch("encryption").unwrap();
    fe.sync().unwrap();
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(4));
    let report = rt.shutdown();
    let total: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(total, 1, "only the schedulable launch executed");
}

#[test]
fn disconnected_frontend_pending_work_is_drained_not_wedged() {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .telemetry(ewc_telemetry::TelemetrySink::enabled())
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();

    // fe1 enqueues a launch, then its "process" dies before syncing.
    let mut fe1 = rt.connect();
    let (args, _bufs) = aes.build_args(&mut fe1, 1).unwrap();
    fe1.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    for a in &args {
        fe1.setup_argument(*a).unwrap();
    }
    fe1.launch("encryption").unwrap();
    drop(fe1);

    // fe2's work completes; fe1's orphaned launch must not wedge the
    // daemon or execute on its behalf.
    let mut fe2 = rt.connect();
    let (args, bufs) = aes.build_args(&mut fe2, 2).unwrap();
    fe2.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    for a in &args {
        fe2.setup_argument(*a).unwrap();
    }
    fe2.launch("encryption").unwrap();
    fe2.sync().unwrap();
    let out = fe2.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(2));

    let report = rt.shutdown();
    assert_eq!(report.stats.drained_requests, 1);
    assert_eq!(report.stats.reaped_frontends, 1);
    let executed: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(executed, 1, "the orphaned launch must not execute");
    let audit = report.telemetry.expect("sink attached").audit;
    assert!(
        audit
            .iter()
            .any(|r| r.verdict == ewc_telemetry::Verdict::Drained),
        "drain must be audited: {audit:?}"
    );
}

#[test]
fn failed_launch_does_not_leave_stale_pending_state() {
    let (rt, aes) = runtime();
    let mut fe = rt.connect();
    // Bad configuration → rejected launch.
    fe.configure_call(1, 1).unwrap();
    assert!(matches!(
        fe.launch("encryption").unwrap_err(),
        CoreError::BadConfiguration(_)
    ));
    // A correct launch from the same context then succeeds and the sync
    // completes without the rejected kernel haunting the queue.
    let (args, bufs) = aes.build_args(&mut fe, 9).unwrap();
    fe.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    for a in &args {
        fe.setup_argument(*a).unwrap();
    }
    fe.launch("encryption").unwrap();
    fe.sync().unwrap();
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(9));
    let report = rt.shutdown();
    let total: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(total, 1, "only the valid launch executed");
}
