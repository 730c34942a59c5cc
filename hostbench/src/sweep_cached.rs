//! `sweep_cached`: a paper-style grid through `GridSpec::run_cached` on a
//! private `RunCache` directory, run cold and then warm.
//!
//! The grid holds fig06-like 6-disk shapes × the Cello and TPC-C traces,
//! a shallow mixed read/write closed loop, and RAID-5 G=4 and RAID-10
//! cells that each lose a disk and rebuild onto a hot spare (parity RMW,
//! degraded reads and rebuild traffic ride the delayed queues). It stands
//! in for the cold wall time of the paper reproduction, and it is the
//! only workload where the cache codec, the fingerprints and the JSON
//! emission matter. The pool runs one cell at a time, so a cell is timed
//! from the grid's per-cell config hook to the next cell's hook (or the
//! grid's end).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mimd_core::{EngineConfig, FaultPlan, ParityConfig, Shape};
use mimd_harness::{code_fingerprint, GridSpec, RunCache, Workload};
use mimd_sim::{SimDuration, SimTime};
use mimd_workload::{IometerSpec, RequestSource, SyntheticSpec, WorkloadArena};

use crate::cell::{self, run_cell, CellSpec, Drive};
use crate::digest::cell_digest;
use crate::layers::{self, LayerInput};
use crate::spans::Tracer;
use crate::{derive_seed, out_dir, stats, Metric, Run, DEFAULT_SEED};

/// Requests per trace of the 6-disk grid.
const GRID_REQUESTS: usize = 100_000;
/// Requests of the small Cello trace the rebuild cells replay.
const RAID_REQUESTS: usize = 2_500;
/// Warm passes after each cold pass.
const WARM_PASSES: usize = 3;
/// Pool threads. With two, cells running side by side on a two-core host
/// slow each other unevenly and the median cell time wanders by a fifth
/// between runs; one thread keeps it within a tenth. Engine parallelism is
/// measured by `open_replay`. The cell timing in [`pass`] relies on cells
/// running one after another.
const POOL_THREADS: usize = 1;

/// What the grid's config hook adds to each cell.
#[derive(Clone, Copy)]
enum Faults {
    None,
    /// RAID 5, G = 4, one fail-stop with a hot spare and rebuild.
    Raid5Rebuild,
    /// One fail-stop with a hot spare and rebuild.
    Rebuild,
}

impl Faults {
    fn apply(self, cfg: EngineConfig) -> EngineConfig {
        let plan = || {
            FaultPlan::new()
                .fail_stop_with_spare(0, SimTime::from_secs(30))
                .rebuild(SimDuration::from_secs(1), 2048)
        };
        match self {
            Faults::None => cfg,
            Faults::Raid5Rebuild => cfg.with_parity(ParityConfig::raid5(4)).with_faults(plan()),
            Faults::Rebuild => cfg.with_faults(plan()),
        }
    }
}

struct Grid {
    spec: GridSpec,
    faults: Faults,
}

impl Grid {
    fn asked(&self, workload: usize) -> u64 {
        match &self.spec.workloads[workload].1 {
            Workload::Arena(a) => a.len() as u64,
            Workload::Trace(t) => t.len() as u64,
            Workload::Closed { completions, .. } => *completions,
        }
    }
}

struct Inputs {
    grids: Vec<Grid>,
}

fn arena(tr: &mut Tracer, spec: &SyntheticSpec, seed: u64, n: usize) -> Arc<WorkloadArena> {
    let span = tr.enter("workload.generate", 0);
    let trace = spec.generate(seed, n);
    tr.exit(span);
    let span = tr.enter("workload.arena", 0);
    let arena = Arc::new(WorkloadArena::from_trace(&trace));
    tr.exit(span);
    arena
}

/// The small, fast-arriving Cello set the rebuild cells replay, so the
/// throttled rebuild finishes inside the run.
fn small_cello() -> SyntheticSpec {
    let mut spec = SyntheticSpec::cello_base();
    spec.name = "Cello base (small)";
    spec.data_sectors = 400_000;
    spec.rate_per_sec = 20.0;
    spec
}

fn mixed_spec() -> IometerSpec {
    IometerSpec::microbench(SyntheticSpec::cello_base().data_sectors, 0.5)
}

fn synth(seed: u64) -> Vec<(SyntheticSpec, u64, usize)> {
    vec![
        (
            SyntheticSpec::cello_base(),
            derive_seed(seed, "cello"),
            GRID_REQUESTS,
        ),
        (
            SyntheticSpec::tpcc(),
            derive_seed(seed, "tpcc"),
            GRID_REQUESTS,
        ),
        (small_cello(), derive_seed(seed, "small"), RAID_REQUESTS),
    ]
}

fn build(tr: &mut Tracer, seed: u64) -> Inputs {
    let [cello, tpcc, small] = <[_; 3]>::try_from(synth(seed))
        .unwrap_or_else(|_| unreachable!("three traces"))
        .map(|(spec, s, n)| arena(tr, &spec, s, n));
    let span = tr.enter("cache.prep", 0);
    prepare_cache_dir();
    tr.exit(span);
    let sr = |ds, dr| Shape::sr_array(ds, dr).expect("valid SR shape");
    let raid10 = |d| Shape::raid10(d).expect("valid RAID-10 shape");
    let seeds = |name: &str, n: u64| {
        (0..n)
            .map(|i| derive_seed(seed, &format!("{name}{i}")))
            .collect()
    };
    let grid = |name: &str, shapes, workloads, seeds, faults| Grid {
        spec: GridSpec {
            name: name.into(),
            shapes,
            policies: vec![None],
            workloads,
            seeds,
        },
        faults,
    };
    let mixed = mixed_spec();
    let small = || {
        vec![(
            "cello-small".to_string(),
            Workload::Arena(Arc::clone(&small)),
        )]
    };
    Inputs {
        grids: vec![
            grid(
                "fig06",
                vec![Shape::striping(6), raid10(6), sr(2, 3), sr(3, 2)],
                vec![
                    ("cello".into(), Workload::Arena(cello)),
                    ("tpcc".into(), Workload::Arena(tpcc)),
                ],
                seeds("fig06-", 2),
                Faults::None,
            ),
            grid(
                "mixed",
                vec![sr(2, 3), raid10(6), Shape::striping(6)],
                vec![(
                    "mixed-q4".into(),
                    Workload::Closed {
                        spec: mixed,
                        data_sectors: mixed.data_sectors,
                        outstanding: 4,
                        completions: 10_000,
                    },
                )],
                seeds("mixed-", 1),
                Faults::None,
            ),
            grid(
                "raid5",
                vec![Shape::striping(8)],
                small(),
                seeds("raid5-", 2),
                Faults::Raid5Rebuild,
            ),
            grid(
                "raid10",
                vec![raid10(8)],
                small(),
                seeds("raid10-", 2),
                Faults::Rebuild,
            ),
        ],
    }
}

fn cache_dir() -> std::path::PathBuf {
    out_dir().join(format!("cache-{}", std::process::id()))
}

/// Empties the private cache directory.
fn prepare_cache_dir() {
    let dir = cache_dir();
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot clear {}: {e}", dir.display()),
    }
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
}

/// One pass over every grid.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    cell_ms: Vec<f64>,
    requests: u64,
    digests: Vec<(String, u64)>,
    json: String,
    hits: u64,
    lookups: u64,
}

fn pass(run: &mut Run, inputs: &Inputs, warm: bool) -> Pass {
    let cache = RunCache::at(cache_dir(), code_fingerprint());
    let mut out = Pass::default();
    let pass_span = run
        .tracer
        .enter(if warm { "sweep.warm" } else { "sweep.cold" }, 0);
    for grid in &inputs.grids {
        let marks: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            grid.spec.run_cached(POOL_THREADS, &cache, |cfg| {
                marks.lock().expect("mark lock").push(Instant::now());
                grid.faults.apply(cfg)
            })
        }));
        let end = Instant::now();
        out.wall_s += (end - start).as_secs_f64();
        let mut marks = marks.into_inner().expect("mark lock");
        marks.push(end);
        for w in marks.windows(2) {
            out.cell_ms.push((w[1] - w[0]).as_secs_f64() * 1e3);
        }
        let cells = grid.spec.cells().len() as u64;
        run.tally.attempted += cells;
        let Ok(mut result) = result else {
            // The panic loses every cell of the grid.
            run.tally.failed += cells - 1;
            run.tally.fail(format!("grid {} panicked", grid.spec.name));
            continue;
        };
        for c in &result.cells {
            let label = format!("sweep_cached/{}/{}", grid.spec.name, c.cell.index);
            match cell::check(&c.report, grid.asked(c.cell.workload)) {
                Ok(()) => out.requests += c.report.completed,
                Err(e) => run.tally.fail(format!("{label}: {e}")),
            }
            out.digests.push((label, cell_digest(&c.report)));
        }
        out.json.push_str(&result.to_json().to_json());
        out.json.push('\n');
    }
    run.tracer.exit(pass_span);
    out.hits = cache.hits();
    out.lookups = cache.hits() + cache.misses();
    out
}

/// One cold pass on an empty cache and its warm passes; the warm output
/// must match the cold output byte for byte.
fn round(run: &mut Run, inputs: &Inputs, warm_s: &mut Vec<f64>) -> (Pass, (u64, u64)) {
    let span = run.tracer.enter("cache.prep", 0);
    prepare_cache_dir();
    run.tracer.exit(span);
    let cold = pass(run, inputs, false);
    let mut lookups = (cold.hits, cold.lookups);
    for _ in 0..WARM_PASSES {
        let warm = pass(run, inputs, true);
        warm_s.push(warm.wall_s);
        lookups.0 += warm.hits;
        lookups.1 += warm.lookups;
        if warm.json != cold.json {
            run.tally
                .fail("warm sweep JSON differs from the cold JSON".into());
        }
        if warm.digests != cold.digests {
            run.tally
                .fail("warm sweep reports differ from the cold reports".into());
        }
        if warm.hits != warm.lookups {
            run.tally.fail(format!(
                "warm pass hit {} of {} lookups",
                warm.hits, warm.lookups
            ));
        }
    }
    (cold, lookups)
}

pub fn run(run: &mut Run) {
    run.threads = POOL_THREADS;
    let inputs = run.measure_setup(build);
    // Warm-up round at the pinned seed.
    let pinned = build(&mut Tracer::new(false), DEFAULT_SEED);
    let (cold, _) = round(run, &pinned, &mut Vec::new());
    for (label, digest) in &cold.digests {
        run.pin(label, *digest);
    }
    drop(pinned);

    let mut warm_s = Vec::new();
    let (mut hits, mut lookups) = (0, 0);
    let start = run.start_timing();
    let mut rounds = 0u64;
    while !run.stop(start, rounds, 1) {
        let spans_on = run.traced && rounds.is_multiple_of(2);
        rounds += 1;
        run.tracer.set_enabled(spans_on);
        let (cold, (h, l)) = round(run, &inputs, &mut warm_s);
        hits += h;
        lookups += l;
        run.tally.cell_ms.extend_from_slice(&cold.cell_ms);
        run.tally.work(cold.requests, cold.wall_s, spans_on);
    }
    run.tracer.set_enabled(run.traced);
    let passes = warm_s.len();
    let warm = stats::median(&mut warm_s).unwrap_or(f64::NAN);
    run.tally.extra.push(Metric::new("warm_s", warm, "s"));
    println!(
        "warm_s is the median of {passes} warm passes over {rounds} rounds; pool threads {POOL_THREADS}"
    );
    // The engine layer is seen through standalone runs of every grid
    // cell: the grid hides `last_run_events` and per-call times.
    if run.traced {
        let specs = probe_specs(&inputs);
        let mut probes = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            run.tally.attempted += 1;
            match run_cell(&mut run.tracer, i as u64, spec, 1) {
                Ok(c) => {
                    run.tally.engine_calls(&c);
                    probes.push(layers::ProbeCell {
                        cfg: spec.cfg.clone(),
                        drive: spec.drive,
                        report: c.report,
                        events: c.events,
                    });
                }
                Err(e) => run.tally.fail(e),
            }
        }
        let input = LayerInput {
            synth: synth(run.seed),
            iometer: mixed_spec(),
            cells: probes,
            cache_hits: hits,
            cache_lookups: lookups,
        };
        layers::measure(run, &input);
    }
    let _ = std::fs::remove_dir_all(cache_dir());
}

/// Every grid cell as a standalone engine run, configured exactly as the
/// grid configures it.
fn probe_specs(inputs: &Inputs) -> Vec<CellSpec<'_>> {
    let mut out = Vec::new();
    for grid in &inputs.grids {
        for c in grid.spec.cells() {
            let (name, workload) = &grid.spec.workloads[c.workload];
            let drive = match workload {
                Workload::Arena(a) => Drive::Replay(a),
                Workload::Closed {
                    spec,
                    outstanding,
                    completions,
                    ..
                } => Drive::Closed {
                    spec: *spec,
                    outstanding: *outstanding,
                    completions: *completions,
                },
                Workload::Trace(_) => unreachable!("the sweep replays arenas"),
            };
            out.push(CellSpec {
                label: format!("sweep_cached/{}/{}/{name}", grid.spec.name, c.index),
                cfg: grid
                    .faults
                    .apply(EngineConfig::new(c.shape).with_seed(c.seed)),
                drive,
            });
        }
    }
    out
}
