//! `closed_deep`: Iometer closed loop on the interleaved engine — 4 KiB
//! random reads, RSATF with perfect head knowledge, 256 requests
//! outstanding, on SR-Array 2×3 and 1×3.
//!
//! The drive-queue pick, the service-time kernel and the per-request
//! replenish path do almost all the work; trace generation, routing of a
//! prescanned trace, note merge and the run cache do none. The rotation
//! runs 2×3 twice per 1×3 so the median cell sits inside one
//! configuration's cluster rather than on the boundary between two.

use mimd_core::{EngineConfig, Policy, Shape};
use mimd_workload::{IometerSpec, SyntheticSpec};

use crate::cell::{CellSpec, Drive};
use crate::layers::{self, LayerInput};
use crate::{derive_seed, Run, DEFAULT_SEED};

const OUTSTANDING: usize = 256;
const COMPLETIONS: u64 = 60_000;
const DATA_SECTORS: u64 = 16_000_000;
/// Trace generated only by the traced run's workload-layer probe: this
/// workload generates none.
const PROBE_TRACE: usize = 20_000;

fn slots(seed: u64) -> Vec<CellSpec<'static>> {
    let spec = IometerSpec::microbench(DATA_SECTORS, 1.0);
    let cell = |label: &str, ds: u32, dr: u32| CellSpec {
        label: format!("closed_deep/{label}"),
        cfg: EngineConfig::new(Shape::sr_array(ds, dr).expect("valid SR shape"))
            .with_policy(Policy::Rsatf)
            .with_perfect_knowledge()
            .with_seed(derive_seed(seed, label)),
        drive: Drive::Closed {
            spec,
            outstanding: OUTSTANDING,
            completions: COMPLETIONS,
        },
    };
    vec![
        cell("sr2x3", 2, 3),
        cell("sr1x3", 1, 3),
        cell("sr2x3", 2, 3),
    ]
}

pub fn run(run: &mut Run) {
    let slots = run.measure_setup(|_, seed| slots(seed));
    run.pin_check(&self::slots(DEFAULT_SEED));
    let probes = run.rotate(&slots, None);
    if run.traced {
        let input = LayerInput {
            synth: vec![(
                SyntheticSpec::tpcc(),
                derive_seed(run.seed, "probe-tpcc"),
                PROBE_TRACE,
            )],
            iometer: IometerSpec::microbench(DATA_SECTORS, 1.0),
            cells: probes,
            cache_hits: 0,
            cache_lookups: 0,
        };
        layers::measure(run, &input);
    }
}
