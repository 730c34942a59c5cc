//! Per-layer metrics for the traced run.
//!
//! Each layer is timed from the benchmark's side of its public API, on
//! inputs taken from the workload: the cells' configurations, requests
//! and reports. The layer → end-to-end map these numbers are read
//! against lives in `hostbench/LAYERS.md`.

use std::hint::black_box;
use std::time::Instant;

use mimd_core::sched::{LookState, Schedulable};
use mimd_core::{ArraySim, DriveQueue, EngineConfig, Layout, RunReport};
use mimd_disk::{DiskParams, SeekProfile, SimDisk, Target};
use mimd_harness::cache::{decode_entry, encode_entry};
use mimd_harness::fp::{self, Fp};
use mimd_harness::report_json;
use mimd_sim::{EventQueue, SimRng, SimTime};
use mimd_workload::{IometerSpec, RequestSource, SyntheticSpec, WorkloadArena};

use crate::cell::Drive;
use crate::digest::cell_digest;
use crate::spans::Tracer;
use crate::{stats, Metric, Run};

/// One configuration's first checked run, as the probes see it.
pub struct ProbeCell<'a> {
    pub cfg: EngineConfig,
    pub drive: Drive<'a>,
    pub report: RunReport,
    pub events: u64,
}

/// What a workload hands the probes.
pub struct LayerInput<'a> {
    /// Synthetic traces `(spec, seed, requests)` the workload generates.
    pub synth: Vec<(SyntheticSpec, u64, usize)>,
    /// The closed-loop generator the workload draws from (or a probe one).
    pub iometer: IometerSpec,
    pub cells: Vec<ProbeCell<'a>>,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

/// Requests per cell the routing, disk and queue probes replay at most.
const PROBE_REQUESTS: usize = 20_000;
/// Operations per queue probe and cell.
const QUEUE_OPS: usize = 20_000;
/// Closed-loop draws timed by the draw probe.
const DRAWS: u64 = 200_000;
/// The engine's per-decision scheduling window.
const WINDOW: usize = 128;
/// Most replica targets one queue entry carries.
const MAX_CANDIDATES: usize = 4;

/// Times `f` under a span.
fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let span = tr.enter(name, 0);
    let start = Instant::now();
    let r = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    tr.exit(span);
    (r, ns)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A logical request the probes replay: `(write, lbn, sectors)`.
type Req = (bool, u64, u32);

fn requests(drive: &Drive, seed: u64) -> Vec<Req> {
    match drive {
        Drive::Replay(a) => (0..a.len().min(PROBE_REQUESTS))
            .map(|i| {
                let r = a.get(i);
                (r.op.is_write(), r.lbn, r.sectors)
            })
            .collect(),
        Drive::Closed {
            spec, completions, ..
        } => {
            let mut rng = SimRng::named(seed, "hostbench-requests");
            (0..(*completions).min(PROBE_REQUESTS as u64))
                .map(|i| {
                    let (op, lbn, sectors) = spec.next_at(&mut rng, i);
                    (op.is_write(), lbn, sectors)
                })
                .collect()
        }
    }
}

/// The replica targets one disk queue would hold for each request's
/// first fragment: the first owner's rotational replicas.
fn queue_targets(layout: &Layout, reqs: &[Req]) -> Vec<(Vec<Target>, bool)> {
    let mut plan = Vec::new();
    let mut reps = Vec::new();
    let mut out = Vec::with_capacity(reqs.len());
    for &(write, lbn, sectors) in reqs {
        plan.clear();
        layout.plan_request(write, lbn, sectors, &mut plan);
        let Some(&(frag, _)) = plan.first() else {
            continue;
        };
        reps.clear();
        if write {
            layout.write_groups_into(frag, &mut reps);
        } else {
            reps.extend(layout.read_candidates(frag));
        }
        let Some(first) = reps.first().map(|r| r.disk) else {
            continue;
        };
        let targets: Vec<Target> = reps
            .iter()
            .filter(|r| r.disk == first)
            .take(MAX_CANDIDATES)
            .map(|r| r.target)
            .collect();
        out.push((targets, write));
    }
    out
}

#[derive(Clone, Copy)]
struct Entry {
    targets: [Target; MAX_CANDIDATES],
    n: u8,
    write: bool,
    at: SimTime,
}

impl Entry {
    fn new(targets: &[Target], write: bool, at: SimTime) -> Entry {
        let blank = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.0,
            sectors: 1,
        };
        let mut e = Entry {
            targets: [blank; MAX_CANDIDATES],
            n: targets.len() as u8,
            write,
            at,
        };
        e.targets[..targets.len()].copy_from_slice(targets);
        e
    }
}

impl Schedulable for Entry {
    fn candidates(&self) -> &[Target] {
        &self.targets[..self.n as usize]
    }
    fn is_write(&self) -> bool {
        self.write
    }
    fn enqueued(&self) -> SimTime {
        self.at
    }
}

/// Mean requests waiting per disk, by Little's law over the run's
/// queueing delays.
fn mean_depth(report: &RunReport, disks: usize) -> usize {
    let span_ms = report.sim_time.as_millis_f64();
    let waiting = ratio(report.queue_wait_ms.sum(), span_ms * disks as f64);
    (waiting.round() as usize).max(1)
}

/// `(insert, pick, churn)` ns per operation on a queue held at `depth`.
fn queue_probe(
    tr: &mut Tracer,
    cfg: &EngineConfig,
    pool: &[(Vec<Target>, bool)],
    depth: usize,
) -> (f64, f64, f64) {
    let disk = SimDisk::new(&cfg.disk_params, cfg.timing, cfg.knowledge, cfg.seed)
        .expect("drive parameters fit");
    let mut next = 0usize;
    let mut entry = |at: SimTime| {
        let (t, w) = &pool[next % pool.len()];
        next += 1;
        Entry::new(t, *w, at)
    };
    let mut q: DriveQueue<Entry> = DriveQueue::new(cfg.policy);
    let rounds = QUEUE_OPS.div_ceil(depth);
    let fresh: Vec<Entry> = (0..rounds * depth)
        .map(|i| entry(SimTime::from_micros(i as u64)))
        .collect();
    let (_, insert_ns) = timed(tr, "probe.dqueue.insert", || {
        for batch in fresh.chunks(depth) {
            q.clear();
            for e in batch {
                black_box(q.insert(&disk, *e));
            }
        }
    });
    let mut look = LookState::default();
    let mut now = SimTime::from_micros((rounds * depth) as u64);
    let step = |now: &mut SimTime| *now = SimTime::from_nanos(now.as_nanos() + 50_000);
    let (_, pick_ns) = timed(tr, "probe.dqueue.pick", || {
        for _ in 0..QUEUE_OPS {
            step(&mut now);
            black_box(q.pick(&disk, now, &mut look, cfg.slack, WINDOW));
        }
    });
    let arrivals: Vec<Entry> = (0..QUEUE_OPS).map(|_| entry(SimTime::ZERO)).collect();
    let (_, churn_ns) = timed(tr, "probe.dqueue.churn", || {
        for e in &arrivals {
            step(&mut now);
            if let Some((id, _)) = q.pick(&disk, now, &mut look, cfg.slack, WINDOW) {
                black_box(q.remove(id));
            }
            q.insert(&disk, Entry { at: now, ..*e });
        }
    });
    let per = |ns: u64, ops: usize| ns as f64 / ops as f64;
    (
        per(insert_ns, rounds * depth),
        per(pick_ns, QUEUE_OPS),
        per(churn_ns, QUEUE_OPS),
    )
}

/// Measures every layer and appends the figures to the run's tally.
/// A codec round trip that changes a report counts as a failed check.
pub fn measure(run: &mut Run, input: &LayerInput) {
    let tr = &mut run.tracer;
    let mut out: Vec<Metric> = Vec::with_capacity(26);
    let mut problems = Vec::new();

    // workload: generation, arena build, closed-loop draws.
    let (mut gen_ns, mut arena_ns, mut generated) = (0u64, 0u64, 0usize);
    for (spec, seed, n) in &input.synth {
        let (trace, ns) = timed(tr, "workload.generate", || spec.generate(*seed, *n));
        gen_ns += ns;
        let (arena, ns) = timed(tr, "workload.arena", || WorkloadArena::from_trace(&trace));
        black_box(arena);
        arena_ns += ns;
        generated += n;
    }
    let mut rng = SimRng::named(run.seed, "hostbench-draw");
    let (_, draw_ns) = timed(tr, "workload.draw", || {
        for i in 0..DRAWS {
            black_box(input.iometer.next_at(&mut rng, i));
        }
    });

    // Per-cell probes: routing, disk estimate, drive queue, event queue,
    // report finish, cache codec.
    let (mut plan_ns, mut planned, mut frags) = (0u64, 0usize, 0usize);
    let (mut est_ns, mut estimates) = (0u64, 0usize);
    let (mut q_insert, mut q_pick, mut q_churn, mut depths) = (0.0, 0.0, 0.0, 0.0);
    let (mut ev_ns, mut ev_ops) = (0u64, 0u64);
    let (mut pct_ns, mut json_ns) = (0u64, 0u64);
    let (mut fp_ns, mut enc_ns, mut dec_ns, mut bytes) = (0u64, 0u64, 0u64, 0usize);
    for cell in &input.cells {
        let cfg = &cell.cfg;
        let layout = ArraySim::new(cfg.clone(), cell.drive.data_sectors())
            .expect("probe cells ran before")
            .layout()
            .clone();
        let reqs = requests(&cell.drive, cfg.seed);

        let mut buf = Vec::new();
        let ((), ns) = timed(tr, "layout.plan", || {
            for &(write, lbn, sectors) in &reqs {
                buf.clear();
                layout.plan_request(write, lbn, sectors, &mut buf);
                for &(frag, _) in &buf {
                    black_box(layout.group_of(frag));
                }
                frags += buf.len();
            }
        });
        plan_ns += ns;
        planned += reqs.len();

        let pool = queue_targets(&layout, &reqs);
        let disk = SimDisk::new(&cfg.disk_params, cfg.timing, cfg.knowledge, cfg.seed)
            .expect("drive parameters fit");
        let ((), ns) = timed(tr, "disk.estimate", || {
            for (i, (targets, write)) in pool.iter().enumerate() {
                let at = SimTime::from_micros(37 * i as u64);
                for t in targets {
                    black_box(disk.estimate(at, t, *write));
                }
            }
        });
        est_ns += ns;
        estimates += pool.iter().map(|(t, _)| t.len()).sum::<usize>();

        let depth = mean_depth(&cell.report, layout.disks());
        let (i, p, c) = queue_probe(tr, cfg, &pool, depth);
        (q_insert, q_pick, q_churn, depths) =
            (q_insert + i, q_pick + p, q_churn + c, depths + depth as f64);

        let ops = cell.events.clamp(10_000, 200_000);
        let horizon = 4 * disk.rotation_ns();
        let mut rng = SimRng::named(cfg.seed, "hostbench-events");
        let delays: Vec<u64> = (0..ops).map(|_| rng.below(horizon + horizon / 2)).collect();
        let mut q: EventQueue<u32> = EventQueue::with_horizon_ns(horizon);
        for d in 0..layout.disks() {
            q.push(SimTime::from_nanos(delays[d % delays.len()]), d as u32);
        }
        let ((), ns) = timed(tr, "event.push_pop", || {
            for &d in &delays {
                if let Some((t, _, e)) = q.pop_entry() {
                    q.push(SimTime::from_nanos(t.as_nanos() + d), e);
                }
            }
        });
        ev_ns += ns;
        ev_ops += ops;

        let mut r = cell.report.clone();
        let (_, ns) = timed(tr, "report.percentile", || {
            [0.5, 0.95, 0.99].map(|p| black_box(r.response_percentile_ms(p)))
        });
        pct_ns += ns;
        let mut r = cell.report.clone();
        let (_, ns) = timed(tr, "report.json", || {
            black_box(report_json(&mut r).to_json().len())
        });
        json_ns += ns;

        let (job, ns) = timed(tr, "cache.fp", || {
            let mut f = Fp::new();
            fp::write_config(&mut f, cfg);
            match cell.drive {
                Drive::Replay(a) => fp::write_source(&mut f, a),
                Drive::Closed {
                    spec,
                    outstanding,
                    completions,
                } => fp::write_closed(&mut f, &spec, outstanding, completions),
            }
            f.finish()
        });
        fp_ns += ns;
        let (entry, ns) = timed(tr, "cache.encode", || encode_entry(job, &cell.report));
        enc_ns += ns;
        bytes += entry.len();
        let (decoded, ns) = timed(tr, "cache.decode", || decode_entry(&entry, job));
        dec_ns += ns;
        if decoded.map(|d| cell_digest(&d)) != Some(cell_digest(&cell.report)) {
            problems.push(format!(
                "cache codec round trip changed a report (seed {})",
                cfg.seed
            ));
        }
    }
    let params = DiskParams::st39133lwv();
    let mut fits: Vec<f64> = (0..5)
        .map(|_| {
            let (prof, ns) = timed(tr, "disk.seek_fit", || SeekProfile::fit_uncached(&params));
            black_box(prof.expect("drive parameters fit"));
            ns as f64 / 1e3
        })
        .collect();

    // engine: host time of the cells' engine calls, exact counts from
    // their reports.
    let (calls, new_ns) = run.tally.engine_new;
    let (run_reqs, run_ns) = run.tally.engine_run;
    let sum = |f: fn(&ProbeCell) -> u64| input.cells.iter().map(f).sum::<u64>() as f64;
    let completed = sum(|c| c.report.completed);
    let propagated = sum(|c| c.report.delayed_propagated);
    let coalesced = sum(|c| c.report.delayed_coalesced);
    let nvram = input.cells.iter().map(|c| c.report.nvram_peak).max();

    let cells = input.cells.len().max(1) as f64;
    let per_cell_us = |ns: u64| ns as f64 / cells / 1e3;
    let mut put = |name, value, unit| out.push(Metric::new(name, value, unit));
    put(
        "workload.generate_ns_per_req",
        ratio(gen_ns as f64, generated as f64),
        "ns",
    );
    put(
        "workload.arena_ns_per_req",
        ratio(arena_ns as f64, generated as f64),
        "ns",
    );
    put("workload.draw_ns", draw_ns as f64 / DRAWS as f64, "ns");
    put(
        "layout.plan_ns_per_req",
        ratio(plan_ns as f64, planned as f64),
        "ns",
    );
    put(
        "layout.frags_per_req",
        ratio(frags as f64, planned as f64),
        "count",
    );
    put(
        "engine.new_us",
        ratio(new_ns as f64, calls as f64) / 1e3,
        "us",
    );
    put(
        "engine.run_ns_per_req",
        ratio(run_ns as f64, run_reqs as f64),
        "ns",
    );
    put(
        "engine.events_per_req",
        ratio(sum(|c| c.events), completed),
        "count",
    );
    put(
        "engine.phys_per_req",
        ratio(sum(|c| c.report.phys_requests), completed),
        "count",
    );
    put(
        "engine.delayed_per_req",
        ratio(propagated, completed),
        "count",
    );
    put(
        "engine.coalesced_ratio",
        ratio(coalesced, propagated + coalesced),
        "ratio",
    );
    put("engine.nvram_peak", nvram.unwrap_or(0) as f64, "count");
    put("report.percentile_us", per_cell_us(pct_ns), "us");
    put("report.json_us", per_cell_us(json_ns), "us");
    put("dqueue.depth", depths / cells, "count");
    put("dqueue.insert_ns", q_insert / cells, "ns");
    put("dqueue.pick_ns", q_pick / cells, "ns");
    put("dqueue.churn_ns", q_churn / cells, "ns");
    put(
        "disk.estimate_ns",
        ratio(est_ns as f64, estimates as f64),
        "ns",
    );
    put(
        "disk.seek_fit_us",
        stats::median(&mut fits).unwrap_or(0.0),
        "us",
    );
    put(
        "event.push_pop_ns",
        ratio(ev_ns as f64, ev_ops as f64),
        "ns",
    );
    put("cache.fp_us", per_cell_us(fp_ns), "us");
    put("cache.encode_us", per_cell_us(enc_ns), "us");
    put("cache.decode_us", per_cell_us(dec_ns), "us");
    put("cache.entry_bytes", bytes as f64 / cells, "bytes");
    let hits = ratio(input.cache_hits as f64, input.cache_lookups as f64);
    put("cache.hit_ratio", hits, "ratio");

    run.tally.attempted += input.cells.len() as u64;
    for p in problems {
        run.tally.fail(p);
    }
    run.tally.layers.extend(out);
}
