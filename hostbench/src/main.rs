//! Host-time benchmark of the MimdRAID simulator.
//!
//! ```text
//! hostbench --workload <closed_deep|open_replay|sweep_cached> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload against the public APIs of the
//! simulator crates for `--seconds` of measurement, checks every cell's
//! simulated output, prints each metric by name with its unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones (host time,
//! tracing off); with `--trace 1` they are the per-layer ones, measured
//! with spans around the calls into each layer and written to
//! `hostbench/out/` at exit. All inputs are generated from `--seed`.
//!
//! Before the timed cells, every cell configuration also runs once at
//! [`DEFAULT_SEED`] and its digest is compared with the value pinned in
//! `pins.rs`, so a change that moves any simulated statistic fails the
//! run whatever seed it measures. A mismatch prints the new pin line.

mod cell;
mod closed_deep;
mod digest;
mod layers;
mod open_replay;
mod pins;
mod procfs;
mod spans;
mod stats;
mod sweep_cached;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mimd_disk::{DiskParams, SeekProfile};
use mimd_harness::Json;

use cell::{run_cell, CellRun, CellSpec};
use layers::ProbeCell;
use spans::Tracer;

/// The seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 1;
/// Samples the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

const USAGE: &str = "usage: hostbench --workload <closed_deep|open_replay|sweep_cached> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One named figure.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything a workload accumulates while it runs.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Host wall ms of each timed cell.
    pub cell_ms: Vec<f64>,
    /// Simulated requests completed by the timed engine calls.
    pub requests: u64,
    /// Host seconds spent in the timed engine calls.
    pub engine_s: f64,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Workload-specific end-to-end figures.
    pub extra: Vec<Metric>,
    /// Per-layer figures (traced run).
    pub layers: Vec<Metric>,
    /// Traced run: `(requests, engine s)` of cells run with spans on.
    pub with_spans: (u64, f64),
    /// Traced run: `(requests, engine s)` of cells run with spans off.
    pub without_spans: (u64, f64),
    /// `(calls, ns)` in `ArraySim::new`, for `engine.new_us`.
    pub engine_new: (u64, u64),
    /// `(requests, ns)` in `run_*`, for `engine.run_ns_per_req`.
    pub engine_run: (u64, u64),
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("hostbench: FAILED {what}");
    }

    /// Records timed engine work: `requests` simulated in `engine_s` host
    /// seconds, with spans on or off.
    pub fn work(&mut self, requests: u64, engine_s: f64, spans_on: bool) {
        self.requests += requests;
        self.engine_s += engine_s;
        let side = if spans_on {
            &mut self.with_spans
        } else {
            &mut self.without_spans
        };
        side.0 += requests;
        side.1 += engine_s;
    }

    /// Adds one cell's engine calls to the engine-layer figures.
    pub fn engine_calls(&mut self, c: &CellRun) {
        self.engine_new.0 += 1;
        self.engine_new.1 += c.new_ns;
        self.engine_run.0 += c.report.completed;
        self.engine_run.1 += c.run_ns;
    }
}

/// The state of one benchmark process.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub traced: bool,
    pub nproc: usize,
    /// Worker threads the workload uses at most (engine or pool).
    pub threads: usize,
    pub tracer: Tracer,
    pub tally: Tally,
    /// Process start (entry to `main`).
    pub started: Instant,
}

impl Run {
    /// Whether to stop before round-robin step `step` of rounds of
    /// `round` steps: once the budget is spent, at the next step in an
    /// untraced run. The traced run turns spans on and off round by round
    /// and stops only after an even number of rounds, so both halves run
    /// every configuration equally often and their ratio is the tracing
    /// overhead.
    pub fn stop(&self, since: Instant, step: u64, round: u64) -> bool {
        since.elapsed() >= self.budget && (!self.traced || step.is_multiple_of(2 * round))
    }

    /// Starts the timed part of the run: prints how long after process
    /// start it begins (set-up, pin check and warm-up included) and
    /// returns the instant the budget counts from.
    pub fn start_timing(&self) -> Instant {
        let now = Instant::now();
        println!(
            "first timed engine call {:.3} s after process start",
            (now - self.started).as_secs_f64()
        );
        now
    }

    /// Runs the workload's set-up [`SETUP_REPS`] times, timing each, and
    /// returns the last build. Each set-up fits the seek profile in full
    /// (`fit_uncached`: the per-thread memo would make every fit after the
    /// first free), then builds the workload's inputs. The previous build
    /// is dropped before the next one is timed.
    pub fn measure_setup<T>(&mut self, build: impl Fn(&mut Tracer, u64) -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let start = Instant::now();
            let span = self.tracer.enter("setup", 0);
            let fit = self.tracer.enter("disk.seek_fit", 0);
            SeekProfile::fit_uncached(&DiskParams::st39133lwv()).expect("drive parameters fit");
            self.tracer.exit(fit);
            let value = build(&mut self.tracer, self.seed);
            self.tracer.exit(span);
            self.tally.setup_s.push(start.elapsed().as_secs_f64());
            last = Some(value);
        }
        last.expect("at least one set-up")
    }

    /// Runs each distinct cell of `slots` once, untimed, and compares its
    /// digest with the pinned value (`slots` must be built at
    /// [`DEFAULT_SEED`]). Doubles as the warm-up.
    pub fn pin_check(&mut self, slots: &[CellSpec]) {
        let mut seen = std::collections::BTreeSet::new();
        for spec in slots {
            if !seen.insert(spec.label.as_str()) {
                continue;
            }
            self.tally.attempted += 1;
            match run_cell(&mut self.tracer, 0, spec, 1) {
                Ok(c) => self.pin(&spec.label, c.digest),
                Err(e) => self.tally.fail(format!("pin cell {e}")),
            }
        }
    }

    /// Compares one default-seed digest with its pin. A failure prints
    /// the line `pins.rs` needs to accept the new digest.
    pub fn pin(&mut self, label: &str, digest: u64) {
        let line = format!("(\"{label}\", 0x{digest:016x}),");
        match pins::pinned(label) {
            Some(want) if want == digest => {}
            Some(want) => self.tally.fail(format!(
                "{label}: digest differs from pinned 0x{want:016x}; new pin: {line}"
            )),
            None => self
                .tally
                .fail(format!("{label}: no pinned digest; new pin: {line}")),
        }
    }

    /// Runs `slots` round-robin until the budget is spent, checking each
    /// cell against the first run of its configuration. With `twin`, each
    /// cell is followed by the same cell at that many engine workers,
    /// whose digest must equal the serial one. Returns the first run of
    /// each configuration for the layer probes.
    pub fn rotate<'a>(
        &mut self,
        slots: &[CellSpec<'a>],
        twin: Option<usize>,
    ) -> Vec<ProbeCell<'a>> {
        let mut first: BTreeMap<String, u64> = BTreeMap::new();
        let mut probes = Vec::new();
        let (mut twin_req, mut twin_s) = (0u64, 0f64);
        let start = self.start_timing();
        let round = slots.len() as u64;
        let mut id = 0u64;
        while !self.stop(start, id, round) {
            let spec = &slots[(id % round) as usize];
            let spans_on = self.traced && (id / round).is_multiple_of(2);
            id += 1;
            self.tracer.set_enabled(spans_on);
            self.tally.attempted += 1;
            let c = match run_cell(&mut self.tracer, id, spec, 1) {
                Ok(c) => c,
                Err(e) => {
                    self.tally.fail(e);
                    continue;
                }
            };
            match first.get(&spec.label) {
                Some(&d) if d != c.digest => self
                    .tally
                    .fail(format!("{}: digest differs from its first run", spec.label)),
                Some(_) => {}
                None => {
                    first.insert(spec.label.clone(), c.digest);
                    probes.push(ProbeCell {
                        cfg: spec.cfg.clone(),
                        drive: spec.drive,
                        report: c.report.clone(),
                        events: c.events,
                    });
                }
            }
            let engine_s = (c.new_ns + c.run_ns) as f64 / 1e9;
            self.tally.cell_ms.push(c.secs * 1e3);
            self.tally.work(c.report.completed, engine_s, spans_on);
            self.tally.engine_calls(&c);
            let Some(workers) = twin else { continue };
            self.tally.attempted += 1;
            match run_cell(&mut self.tracer, id, spec, workers) {
                Ok(t) if t.digest == c.digest => {
                    twin_req += t.report.completed;
                    twin_s += (t.new_ns + t.run_ns) as f64 / 1e9;
                }
                Ok(_) => self.tally.fail(format!(
                    "{}: {workers}-worker output differs from 1 worker",
                    spec.label
                )),
                Err(e) => self.tally.fail(e),
            }
        }
        self.tracer.set_enabled(self.traced);
        if let Some(workers) = twin {
            self.tally.extra.push(Metric::new(
                "req_per_s_2w",
                twin_req as f64 / twin_s.max(f64::MIN_POSITIVE),
                "1/s",
            ));
            println!(
                "req_per_s_2w: engine at {workers} workers (nproc {})",
                self.nproc
            );
        }
        probes
    }
}

/// Mixes a label into the run seed (SplitMix64 finaliser), so each input
/// stream gets its own seed derived only from `--seed`.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut z = seed
        ^ label.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's scratch directory (span files, private run cache).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["closed_deep", "open_replay", "sweep_cached"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = procfs::nproc();
    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.trace,
        nproc,
        threads: 1,
        tracer: Tracer::new(args.trace),
        tally: Tally::default(),
        started,
    };
    println!(
        "hostbench workload {} seed {} seconds {} trace {} nproc {nproc}",
        run.workload,
        run.seed,
        args.seconds,
        u8::from(run.traced)
    );
    match run.workload.as_str() {
        "closed_deep" => closed_deep::run(&mut run),
        "open_replay" => open_replay::run(&mut run),
        _ => sweep_cached::run(&mut run),
    }
    finish(&mut run)
}

/// Derives, prints and emits the metrics.
fn finish(run: &mut Run) -> ExitCode {
    let t = &mut run.tally;
    let mut end_to_end = vec![Metric::new(
        "req_per_s",
        t.requests as f64 / t.engine_s.max(f64::MIN_POSITIVE),
        "1/s",
    )];
    let cells = t.cell_ms.len();
    let p50 = stats::median(&mut t.cell_ms).unwrap_or(f64::NAN);
    end_to_end.push(Metric::new("cell_ms_p50", p50, "ms"));
    match stats::tail(&mut t.cell_ms, TAIL_BEYOND) {
        Some((v, rank)) => {
            end_to_end.push(Metric::new("cell_ms_tail", v, "ms"));
            println!(
                "cell_ms_tail is p{:.2} of {cells} cells ({} beyond)",
                rank.percentile, rank.beyond
            );
        }
        None => {
            end_to_end.push(Metric::new("cell_ms_tail", f64::NAN, "ms"));
            t.fail(format!("only {cells} timed cells: no tail percentile"));
        }
    }
    let reps = t.setup_s.len();
    let setup = stats::median(&mut t.setup_s).unwrap_or(f64::NAN);
    end_to_end.push(Metric::new("setup_s", setup, "s"));
    println!("setup_s is the median of {reps} set-ups");
    let rss = procfs::peak_rss_mb().unwrap_or(f64::NAN);
    end_to_end.push(Metric::new("peak_rss_mb", rss, "MB"));
    end_to_end.extend(t.extra.iter().copied());
    let fail_frac = t.failed as f64 / t.attempted.max(1) as f64;
    end_to_end.push(Metric::new("fail_frac", fail_frac, "ratio"));
    println!("threads {} nproc {}", run.threads, run.nproc);
    for m in &end_to_end {
        println!("{:<14} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if run.traced {
        let (rq, s) = t.with_spans;
        let (rq0, s0) = t.without_spans;
        let traced = rq as f64 / s.max(f64::MIN_POSITIVE);
        let plain = rq0 as f64 / s0.max(f64::MIN_POSITIVE);
        println!("req_per_s traced {traced:.1} untraced {plain:.1}");
        let mut layers = vec![
            Metric::new("run.nproc", run.nproc as f64, "count"),
            Metric::new("run.threads", run.threads as f64, "count"),
            Metric::new("trace.overhead_frac", plain / traced - 1.0, "ratio"),
        ];
        layers.extend(t.layers.iter().copied());
        for m in &layers {
            println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        print_self_times(run);
        write_spans(run);
        let line = select(&mut run.tally, &layers, &PER_LAYER);
        emit(&run.tally, &line);
    } else {
        let line = select(t, &end_to_end, &END_TO_END);
        emit(t, &line);
    }
    ExitCode::SUCCESS
}

/// The end-to-end metrics of the result line, with their units. Every
/// workload reports them; the workload-specific figures (`req_per_s_2w`,
/// `warm_s`) and `fail_frac` are printed above the line.
const END_TO_END: [(&str, &str); 5] = [
    ("req_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run's result line.
const PER_LAYER: [(&str, &str); 29] = [
    ("run.nproc", "count"),
    ("run.threads", "count"),
    ("trace.overhead_frac", "ratio"),
    ("workload.generate_ns_per_req", "ns"),
    ("workload.arena_ns_per_req", "ns"),
    ("workload.draw_ns", "ns"),
    ("layout.plan_ns_per_req", "ns"),
    ("layout.frags_per_req", "count"),
    ("engine.new_us", "us"),
    ("engine.run_ns_per_req", "ns"),
    ("engine.events_per_req", "count"),
    ("engine.phys_per_req", "count"),
    ("engine.delayed_per_req", "count"),
    ("engine.coalesced_ratio", "ratio"),
    ("engine.nvram_peak", "count"),
    ("report.percentile_us", "us"),
    ("report.json_us", "us"),
    ("dqueue.depth", "count"),
    ("dqueue.insert_ns", "ns"),
    ("dqueue.pick_ns", "ns"),
    ("dqueue.churn_ns", "ns"),
    ("disk.estimate_ns", "ns"),
    ("disk.seek_fit_us", "us"),
    ("event.push_pop_ns", "ns"),
    ("cache.fp_us", "us"),
    ("cache.encode_us", "us"),
    ("cache.decode_us", "us"),
    ("cache.entry_bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
];

/// The metrics named in `wanted`, in its order. A missing metric, a unit
/// that differs, or a value that is not finite fails the run.
fn select(t: &mut Tally, have: &[Metric], wanted: &[(&'static str, &'static str)]) -> Vec<Metric> {
    let mut out = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match have.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() => out.push(*m),
            Some(m) => t.fail(format!(
                "metric {name}: {} {} is not a finite {unit}",
                m.value, m.unit
            )),
            None => t.fail(format!("metric {name} was not measured")),
        }
    }
    out
}

fn print_self_times(run: &Run) {
    println!("self time by span (ms): name count total self");
    for (name, t) in spans::self_times(run.tracer.spans()) {
        println!(
            "  {name:<24} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn write_spans(run: &Run) {
    let dir = out_dir();
    let path = dir.join(format!("spans-{}-seed{}.json", run.workload, run.seed));
    let doc = spans::to_json(
        vec![
            ("workload", Json::from(run.workload.as_str())),
            ("seed", Json::from(run.seed)),
            ("nproc", Json::from(run.nproc)),
            ("threads", Json::from(run.threads)),
        ],
        run.tracer.spans(),
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_json()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("hostbench: could not write {}: {e}", path.display()),
    }
}

/// The result line: the last line of standard output.
fn emit(t: &Tally, metrics: &[Metric]) {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        })
        .collect();
    let line = Json::object([
        ("correct", Json::from(t.failed == 0)),
        ("attempted", Json::from(t.attempted)),
        ("failed", Json::from(t.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        let units = BENCHMARK_JSON.matches(r#""unit":"#).count();
        assert_eq!(units, END_TO_END.len() + PER_LAYER.len());
        let listed = BENCHMARK_JSON.matches(r#", "why":"#).count();
        let known = ["closed_deep", "open_replay", "sweep_cached"]
            .iter()
            .filter(|w| BENCHMARK_JSON.contains(&format!(r#""name": "{w}", "why""#)))
            .count();
        assert_eq!(
            listed, known,
            "every listed workload is one this program runs"
        );
    }

    #[test]
    fn derived_seeds_differ_by_label_and_seed() {
        assert_eq!(derive_seed(1, "cello"), derive_seed(1, "cello"));
        assert_ne!(derive_seed(1, "cello"), derive_seed(1, "tpcc"));
        assert_ne!(derive_seed(1, "cello"), derive_seed(2, "cello"));
    }

    #[test]
    fn select_fails_missing_mismatched_and_non_finite_metrics() {
        let mut t = Tally::default();
        let have = [
            Metric::new("req_per_s", 1.0, "1/s"),
            Metric::new("cell_ms_p50", 2.0, "s"),
            Metric::new("cell_ms_tail", f64::NAN, "ms"),
        ];
        let got = select(&mut t, &have, &END_TO_END);
        assert_eq!(got.len(), 1);
        assert_eq!(t.failed, 4, "wrong unit, NaN, and two missing");
    }
}
