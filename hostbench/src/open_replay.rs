//! `open_replay`: structured open-loop replay of the synthetic Cello-base
//! and TPC-C traces on SR-Array 2×3, RAID-10 ×8 and 256-disk striping,
//! each cell run at 1 engine worker and again at 2 (clamped to `nproc`).
//!
//! Reads share the drive queues with synchronous and asynchronous writes,
//! whose delayed replica propagation runs through NVRAM. Per-disk queues
//! stay short, so prescan and routing, shard stepping with writes, note
//! merge and report finish dominate, and TPC-C generation dominates the
//! set-up. The six configurations cost from 0.5× to 1.6× the median cell,
//! so the rotation weights them to keep both order statistics inside one
//! configuration's cluster rather than on the edge between two: Cello on
//! RAID-10, a mid-cost one, takes four of ten slots (the median), and
//! TPC-C on SR 2×3, the costliest, two (the tail). So `cell_ms_p50`
//! tracks Cello on RAID-10 and `cell_ms_tail` TPC-C on SR 2×3; a slowdown
//! confined to another configuration shows only in `req_per_s`, diluted
//! by its share of the rotation.

use mimd_core::{EngineConfig, Shape};
use mimd_workload::{IometerSpec, SyntheticSpec, WorkloadArena};

use crate::cell::{CellSpec, Drive};
use crate::layers::{self, LayerInput};
use crate::spans::Tracer;
use crate::{derive_seed, Run, DEFAULT_SEED};

/// Requests per generated trace.
const REQUESTS: usize = 50_000;

struct Inputs {
    seed: u64,
    cello: WorkloadArena,
    tpcc: WorkloadArena,
}

fn traces() -> [(&'static str, SyntheticSpec); 2] {
    [
        ("cello", SyntheticSpec::cello_base()),
        ("tpcc", SyntheticSpec::tpcc()),
    ]
}

fn build(tr: &mut Tracer, seed: u64) -> Inputs {
    let [cello, tpcc] = traces().map(|(name, spec)| {
        let span = tr.enter("workload.generate", 0);
        let trace = spec.generate(derive_seed(seed, name), REQUESTS);
        tr.exit(span);
        let span = tr.enter("workload.arena", 0);
        let arena = WorkloadArena::from_trace(&trace);
        tr.exit(span);
        arena
    });
    Inputs { seed, cello, tpcc }
}

impl Inputs {
    fn slots(&self) -> Vec<CellSpec<'_>> {
        let shapes = [
            ("sr2x3", Shape::sr_array(2, 3).expect("valid SR shape")),
            ("raid10x8", Shape::raid10(8).expect("valid RAID-10 shape")),
            ("stripe256", Shape::striping(256)),
        ];
        let mut out = Vec::new();
        for (tname, arena) in [("cello", &self.cello), ("tpcc", &self.tpcc)] {
            for (sname, shape) in shapes {
                let label = format!("open_replay/{tname}/{sname}");
                out.push(CellSpec {
                    cfg: EngineConfig::new(shape).with_seed(derive_seed(self.seed, &label)),
                    label,
                    drive: Drive::Replay(arena),
                });
            }
        }
        let (mid, top) = (out[1].clone(), out[3].clone());
        out.extend([mid.clone(), mid.clone(), mid, top]);
        out
    }
}

pub fn run(run: &mut Run) {
    let inputs = run.measure_setup(build);
    let pinned = build(&mut Tracer::new(false), DEFAULT_SEED);
    run.pin_check(&pinned.slots());
    drop(pinned);
    let workers = run.nproc.min(2);
    run.threads = workers;
    let slots = inputs.slots();
    let probes = run.rotate(&slots, Some(workers));
    if run.traced {
        let input = LayerInput {
            synth: traces()
                .into_iter()
                .map(|(name, spec)| (spec, derive_seed(run.seed, name), REQUESTS))
                .collect(),
            iometer: IometerSpec::microbench(SyntheticSpec::tpcc().data_sectors, 1.0),
            cells: probes,
            cache_hits: 0,
            cache_lookups: 0,
        };
        layers::measure(run, &input);
    }
}
