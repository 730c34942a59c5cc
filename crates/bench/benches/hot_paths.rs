//! Micro-benchmarks of the simulator's hot paths.
//!
//! These measure the *implementation* (the reproduction binaries measure
//! the *system*): per-call cost of service-time estimation on both timing
//! paths, scheduler decisions at realistic queue depths, logical→physical
//! translation, and whole-engine request throughput.
//!
//! The harness is hand-rolled (the workspace builds offline with no
//! external dependencies): each benchmark is warmed up, then timed over
//! enough iterations to fill a sampling window, and the best-of-N rate is
//! reported. Run with `cargo bench -p mimd-bench`.
//!
//! Environment knobs:
//!
//! - `MIMD_BENCH_QUICK=1` — shrink windows for CI smoke runs (noisier).
//! - `MIMD_BENCH_JSON=<stem>` — also write `<stem>.json` under
//!   `MIMD_JSON_DIR` (default `target/experiments/`), one
//!   `{name, ns_per_iter}` record per benchmark, for the perf trajectory.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mimd_core::sched::{LookState, Policy, Schedulable};
use mimd_core::{ArraySim, DriveQueue, EngineConfig, Layout, Shape};
use mimd_disk::{
    DiskParams, Geometry, PositionKnowledge, SeekProfile, SimDisk, Target, TimingPath,
};
use mimd_harness::Json;
use mimd_sim::{SimDuration, SimRng, SimTime};
use mimd_workload::{IometerSpec, RequestSource, SyntheticSpec};

thread_local! {
    static RESULTS: RefCell<Vec<(String, f64)>> = const { RefCell::new(Vec::new()) };
}

/// A counting wrapper around the system allocator: lets steady-state
/// sections assert they allocate nothing at all.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `op` repeatedly and asserts the steady state allocates nothing:
/// one warmup call may allocate (scratch buffers growing to capacity);
/// the next `iters` calls must not touch the allocator at all.
fn assert_allocation_free<T>(name: &str, iters: u64, mut op: impl FnMut() -> T) {
    black_box(op()); // Warmup: scratch capacity is allowed to grow here.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..iters {
        black_box(op());
    }
    let grew = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(grew, 0, "{name}: {grew} allocations in steady state");
    println!("{name:<40} allocation-free over {iters} iters");
}

fn quick() -> bool {
    std::env::var("MIMD_BENCH_QUICK").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Times `op`, prints a `name: ns/iter` line, and records the result.
///
/// Runs a short calibration pass to size the measurement loop, then takes
/// the fastest of five windows, mirroring what Criterion's point estimate
/// converges to for cheap, steady-state operations.
fn bench<T>(name: &str, mut op: impl FnMut() -> T) {
    let (window, passes) = if quick() {
        (Duration::from_millis(2), 2)
    } else {
        (Duration::from_millis(10), 5)
    };
    // Calibrate: find an iteration count that fills a window.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        if start.elapsed() >= window || iters >= 1 << 30 {
            break;
        }
        iters *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
        if per_iter < best {
            best = per_iter;
        }
    }
    println!("{name:<40} {best:>12.1} ns/iter");
    RESULTS.with(|r| r.borrow_mut().push((name.to_string(), best)));
}

/// Writes recorded results as JSON when `MIMD_BENCH_JSON` names a file stem.
fn emit_json() {
    let Ok(stem) = std::env::var("MIMD_BENCH_JSON") else {
        return;
    };
    if stem.is_empty() {
        return;
    }
    let records: Vec<Json> = RESULTS.with(|r| {
        r.borrow()
            .iter()
            .map(|(name, ns)| {
                Json::object([
                    ("name", Json::from(name.as_str())),
                    ("ns_per_iter", Json::from(*ns)),
                ])
            })
            .collect()
    });
    let doc = Json::object([
        ("suite", Json::from("hot_paths")),
        ("quick", Json::from(quick())),
        ("benches", Json::Arr(records)),
    ]);
    match mimd_harness::write_json(&stem, &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write bench JSON: {e}"),
    }
}

#[derive(Clone)]
struct Entry {
    targets: Vec<Target>,
    at: SimTime,
}

impl Schedulable for Entry {
    fn candidates(&self) -> &[Target] {
        &self.targets
    }
    fn is_write(&self) -> bool {
        false
    }
    fn enqueued(&self) -> SimTime {
        self.at
    }
}

fn make_queue(n: usize, dr: u32, rng: &mut SimRng) -> Vec<Entry> {
    (0..n)
        .map(|i| Entry {
            targets: (0..dr)
                .map(|k| Target {
                    cylinder: rng.below(3_000) as u32,
                    surface: k,
                    angle: rng.unit(),
                    sectors: 8,
                })
                .collect(),
            at: SimTime::from_micros(i as u64),
        })
        .collect()
}

fn bench_disk_estimate() {
    for (name, path) in [
        ("detailed", TimingPath::Detailed),
        ("analytic", TimingPath::Analytic),
    ] {
        let disk = SimDisk::new(
            &DiskParams::st39133lwv(),
            path,
            PositionKnowledge::Perfect,
            1,
        )
        .expect("valid params");
        let t = Target {
            cylinder: 2_345,
            surface: 7,
            angle: 0.42,
            sectors: 8,
        };
        bench(&format!("disk_estimate/{name}"), || {
            disk.estimate(black_box(SimTime::from_micros(123)), black_box(&t), false)
        });
    }
}

fn bench_drive_queue_pick() {
    // One pick through the DriveQueue band / sweep indexes on a static
    // queue of random 3-replica entries.
    let disk = SimDisk::new(
        &DiskParams::st39133lwv(),
        TimingPath::Detailed,
        PositionKnowledge::Perfect,
        2,
    )
    .expect("valid params");
    let mut rng = SimRng::seed_from(3);
    for depth in [4usize, 16, 64, 256] {
        let entries = make_queue(depth, 3, &mut rng);
        for policy in [Policy::Satf, Policy::Rsatf, Policy::Rlook] {
            let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
            for e in &entries {
                dq.insert(&disk, e.clone());
            }
            let mut look = LookState::default();
            bench(&format!("drive_queue_pick/{policy}/{depth}"), || {
                dq.pick(
                    &disk,
                    black_box(SimTime::from_millis(5)),
                    &mut look,
                    SimDuration::ZERO,
                    usize::MAX,
                )
            });
        }
    }
}

fn bench_drive_queue_churn() {
    // One request's worth of DriveQueue work at steady depth: pick the
    // best entry, remove it, insert a fresh arrival. This is the
    // per-request queue cost the engine pays, index maintenance included.
    let disk = SimDisk::new(
        &DiskParams::st39133lwv(),
        TimingPath::Detailed,
        PositionKnowledge::Perfect,
        2,
    )
    .expect("valid params");
    for depth in [4usize, 16, 64, 256] {
        let mut rng = SimRng::seed_from(11);
        let mut dq: DriveQueue<Entry> = DriveQueue::new(Policy::Rsatf);
        for e in make_queue(depth, 3, &mut rng) {
            dq.insert(&disk, e);
        }
        let mut look = LookState::default();
        let mut now = SimTime::ZERO;
        bench(&format!("drive_queue_churn/RSATF/{depth}"), || {
            now += SimDuration::from_micros(200);
            let (id, _) = dq
                .pick(
                    &disk,
                    black_box(now),
                    &mut look,
                    SimDuration::ZERO,
                    usize::MAX,
                )
                .expect("non-empty");
            let mut e = dq.remove(id).expect("live");
            for t in &mut e.targets {
                t.cylinder = rng.below(3_000) as u32;
                t.angle = rng.unit();
            }
            e.at = now;
            dq.insert(&disk, e)
        });
    }
}

fn bench_layout_translation() {
    let g = Geometry::new(&DiskParams::st39133lwv());
    let layout = Layout::new(
        Shape::new(3, 2, 2).expect("valid"),
        &g,
        8_000_000,
        128,
        false,
    )
    .expect("fits");
    let mut rng = SimRng::seed_from(4);
    let lbns: Vec<u64> = (0..1024).map(|_| rng.below(7_900_000)).collect();
    let mut i = 0;
    bench("layout_read_candidates", || {
        i = (i + 1) % lbns.len();
        let frag = layout.fragments(lbns[i], 16);
        layout.read_candidates(black_box(frag[0]))
    });
}

fn bench_seek_fit() {
    let params = DiskParams::st39133lwv();
    bench("seek_profile_fit", || {
        SeekProfile::fit(black_box(&params)).expect("fits")
    });
}

fn bench_seek_estimation() {
    // The per-candidate seek-time kernel: a sweep of cylinder distances
    // with the stride pattern a scheduler scan produces.
    let params = DiskParams::st39133lwv();
    let profile = SeekProfile::fit(&params).expect("fits");
    let mut rng = SimRng::seed_from(5);
    let cyls = params.total_cylinders();
    let distances: Vec<u32> = (0..1024).map(|_| rng.below(cyls as u64) as u32).collect();
    let mut i = 0;
    bench("seek_estimation/read", || {
        i = (i + 1) % distances.len();
        profile.seek(black_box(distances[i]))
    });
    let mut j = 0;
    bench("seek_estimation/write", || {
        j = (j + 1) % distances.len();
        profile.seek_write(black_box(distances[j]))
    });
}

fn bench_engine_closed_loop() {
    let data = 16_000_000u64;
    let spec = IometerSpec::microbench(data, 1.0);
    bench("engine_1k_requests_2x3", || {
        let mut sim = ArraySim::new(
            EngineConfig::new(Shape::sr_array(2, 3).expect("valid")).with_perfect_knowledge(),
            data,
        )
        .expect("fits");
        sim.run_closed_loop(black_box(&spec), 16, 1_000).completed
    });
}

fn bench_engine_depth_sweep() {
    // Whole-engine cost as a function of per-array queue depth. A narrow
    // shape (1 logical disk, 3-way rotational replication) concentrates the
    // queue on few spindles, so deep-queue scheduling dominates the profile.
    let data = 16_000_000u64;
    let spec = IometerSpec::microbench(data, 1.0);
    for q in [4usize, 16, 64, 256] {
        bench(&format!("engine_depth/q{q}"), || {
            let mut sim = ArraySim::new(
                EngineConfig::new(Shape::sr_array(1, 3).expect("valid")).with_perfect_knowledge(),
                data,
            )
            .expect("fits");
            sim.run_closed_loop(black_box(&spec), q, 1_000).completed
        });
    }
}

fn assert_steady_state_alloc_free() {
    // A pick allocates nothing, whatever the policy, with the queue deeper
    // than the window (the seq mask runs) and with read-ahead on (the
    // arm's band is walked in full).
    let mut disk = SimDisk::new(
        &DiskParams::st39133lwv(),
        TimingPath::Detailed,
        PositionKnowledge::Perfect,
        2,
    )
    .expect("valid params");
    let mut rng = SimRng::seed_from(7);
    let queue = make_queue(256, 3, &mut rng);
    let policies = [
        Policy::Fcfs,
        Policy::Look,
        Policy::Satf,
        Policy::Rlook,
        Policy::Rsatf,
    ];
    let check = |disk: &SimDisk, policy: Policy, name: &str| {
        let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
        for e in &queue {
            dq.insert(disk, e.clone());
        }
        let mut look = LookState::default();
        assert_allocation_free(name, 100, || {
            dq.pick(
                disk,
                black_box(SimTime::from_millis(5)),
                &mut look,
                SimDuration::ZERO,
                128,
            )
        });
    };
    for policy in policies {
        check(&disk, policy, &format!("alloc_free/pick/{policy}/256"));
    }
    // Park on a queued read's track so the buffer holds a candidate.
    disk.set_read_ahead(true);
    let _ = disk.begin(SimTime::ZERO, &queue[0].targets[0], false);
    check(&disk, Policy::Rsatf, "alloc_free/pick/RSATF/256/read_ahead");
}

fn bench_trace_generation() {
    let spec = SyntheticSpec::cello_base();
    bench("generate_cello_1k", || {
        spec.generate(black_box(9), 1_000).len()
    });
}

fn bench_engine_replay() {
    // What the shared-workload arenas buy a grid: `legacy` pays the
    // generation cost per job (the pre-arena pattern — every cell built
    // its own trace), `arena` replays the process-shared struct-of-arrays
    // stream through `run_source`. Same simulated work, same output.
    let spec = SyntheticSpec::cello_base();
    let cfg = || EngineConfig::new(Shape::sr_array(2, 3).expect("valid")).with_perfect_knowledge();
    let arena = mimd_harness::shared_arena(&spec, 9, 1_000);
    bench("engine_replay/legacy_generate", || {
        let trace = spec.generate(black_box(9), 1_000);
        let mut sim = ArraySim::new(cfg(), trace.data_sectors).expect("fits");
        sim.run_trace(&trace).completed
    });
    bench("engine_replay/arena", || {
        let mut sim = ArraySim::new(cfg(), arena.data_sectors()).expect("fits");
        sim.run_source(black_box(arena.as_ref())).completed
    });
}

fn main() {
    if std::env::var("MIMD_ALLOC_PROFILE").is_ok() {
        let data = 16_000_000u64;
        let spec = IometerSpec::microbench(data, 1.0);
        for q in [4usize, 64] {
            let mut sim = ArraySim::new(
                EngineConfig::new(Shape::sr_array(1, 3).expect("valid")).with_perfect_knowledge(),
                data,
            )
            .expect("fits");
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            sim.run_closed_loop(&spec, q, 1_000);
            let grew = ALLOCATIONS.load(Ordering::Relaxed) - before;
            println!("engine_depth/q{q}: {grew} allocations / 1000 requests");
        }
        return;
    }
    bench_disk_estimate();
    bench_drive_queue_pick();
    bench_drive_queue_churn();
    bench_layout_translation();
    bench_seek_fit();
    bench_seek_estimation();
    bench_engine_closed_loop();
    bench_engine_depth_sweep();
    bench_trace_generation();
    bench_engine_replay();
    assert_steady_state_alloc_free();
    emit_json();
}
