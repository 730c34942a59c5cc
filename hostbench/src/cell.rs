//! One engine run — a *cell*: build the array, drive it, check the output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mimd_core::{ArraySim, EngineConfig, RunReport};
use mimd_workload::{IometerSpec, RequestSource, WorkloadArena};

use crate::digest::cell_digest;
use crate::spans::Tracer;

/// What a cell drives into the array.
#[derive(Clone, Copy)]
pub enum Drive<'a> {
    /// Iometer-style closed loop.
    Closed {
        spec: IometerSpec,
        outstanding: usize,
        completions: u64,
    },
    /// Open-loop replay of a generated trace.
    Replay(&'a WorkloadArena),
}

impl Drive<'_> {
    /// Logical requests the cell asks the engine to complete.
    pub fn asked(&self) -> u64 {
        match self {
            Drive::Closed { completions, .. } => *completions,
            Drive::Replay(a) => a.len() as u64,
        }
    }

    /// Logical data size the layout must hold.
    pub fn data_sectors(&self) -> u64 {
        match self {
            Drive::Closed { spec, .. } => spec.data_sectors,
            Drive::Replay(a) => a.data_sectors(),
        }
    }
}

/// A named engine configuration plus its drive.
#[derive(Clone)]
pub struct CellSpec<'a> {
    pub label: String,
    pub cfg: EngineConfig,
    pub drive: Drive<'a>,
}

/// A checked cell's output and host cost.
pub struct CellRun {
    pub report: RunReport,
    pub events: u64,
    pub digest: u64,
    /// Host ns in `ArraySim::new`.
    pub new_ns: u64,
    /// Host ns in the `run_*` call.
    pub run_ns: u64,
    /// Host seconds of the whole cell (build, run, drop).
    pub secs: f64,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The correctness rule every cell meets: it completes exactly what it
/// was asked to, loses no request, and leaves nothing unrecoverable.
pub fn check(report: &RunReport, asked: u64) -> Result<(), String> {
    if report.completed != asked {
        return Err(format!("completed {} of {asked}", report.completed));
    }
    if report.failed_requests != 0 {
        return Err(format!("{} failed requests", report.failed_requests));
    }
    if report.faults.unrecoverable != 0 {
        return Err(format!("{} unrecoverable", report.faults.unrecoverable));
    }
    Ok(())
}

/// Builds, drives and checks one cell at `workers` engine threads, with
/// spans around the engine calls. A panic or a failed check is an `Err`.
pub fn run_cell(
    tr: &mut Tracer,
    id: u64,
    spec: &CellSpec,
    workers: usize,
) -> Result<CellRun, String> {
    let cfg = spec.cfg.clone();
    let cell = tr.enter("cell", id);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let span = tr.enter("engine.new", id);
        let mut sim = ArraySim::new(cfg, spec.drive.data_sectors())
            .map_err(|e| format!("infeasible layout: {e:?}"))?;
        tr.exit(span);
        let new_ns = ns_since(t);
        sim.set_parallelism(workers);
        let t = Instant::now();
        let span = tr.enter("engine.run", id);
        let report = match spec.drive {
            Drive::Closed {
                spec,
                outstanding,
                completions,
            } => sim.run_closed_loop(&spec, outstanding, completions),
            Drive::Replay(arena) => sim.run_source(arena),
        };
        tr.exit(span);
        let run_ns = ns_since(t);
        Ok::<_, String>((report, sim.last_run_events(), new_ns, run_ns))
    }));
    let secs = start.elapsed().as_secs_f64();
    tr.exit(cell);
    let (report, events, new_ns, run_ns) = match outcome {
        Ok(r) => r?,
        Err(_) => return Err(format!("{}: panicked", spec.label)),
    };
    check(&report, spec.drive.asked()).map_err(|e| format!("{}: {e}", spec.label))?;
    Ok(CellRun {
        digest: cell_digest(&report),
        report,
        events,
        new_ns,
        run_ns,
        secs,
    })
}
