//! Trace characterisation: everything the paper's Table 3 reports.
//!
//! The two derived quantities feed the configuration models directly:
//!
//! - *Seek locality* `L`: "the ratio between the average of random seek
//!   distances on that disk and the average seek distance observed in the
//!   trace" (Table 3 caption). Computed in logical-block space: a uniformly
//!   random pair over a data set of `N` blocks is `N/3` apart on average,
//!   so `L = (N/3) / mean(|lbn_i - lbn_{i-1}|)`.
//! - *Read-after-write*: the fraction of I/Os that read data written less
//!   than one hour earlier, which gauges how much a delayed-write scheme
//!   risks serving stale replicas and how effective caching will be.

use std::collections::HashMap;

use mimd_sim::SimDuration;

use crate::request::Op;
use crate::trace::Trace;

/// Granularity (in sectors) at which read-after-write tracking buckets
/// block addresses; 8 sectors = 4 KiB, a typical file-system block.
pub(crate) const RAW_BUCKET_SECTORS: u64 = 8;

/// Summary characteristics of a trace (the rows of Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Data set size in sectors.
    pub data_sectors: u64,
    /// Total request count.
    pub ios: usize,
    /// Trace wall-clock span.
    pub duration: SimDuration,
    /// Average request rate per second.
    pub avg_rate: f64,
    /// Fraction of requests that are reads.
    pub read_frac: f64,
    /// Fraction of requests that are asynchronous writes.
    pub async_write_frac: f64,
    /// Seek locality index `L` (1.0 = uniformly random).
    pub seek_locality: f64,
    /// Fraction of I/Os that are reads of data written within the last hour.
    pub read_after_write_1h: f64,
}

impl TraceStats {
    /// Computes the statistics of a trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use mimd_workload::{Op, Request, Trace, TraceStats};
    /// use mimd_sim::SimTime;
    ///
    /// let t = Trace::new(
    ///     "tiny",
    ///     1000,
    ///     vec![Request { id: 0, arrival: SimTime::ZERO, op: Op::Read, lbn: 0, sectors: 8 }],
    /// );
    /// let s = TraceStats::of(&t);
    /// assert_eq!(s.ios, 1);
    /// ```
    pub fn of(trace: &Trace) -> TraceStats {
        let reqs = trace.requests();
        let ios = reqs.len();

        // Mean successive logical seek distance.
        let mut dist_sum = 0.0f64;
        let mut dist_n = 0u64;
        for w in reqs.windows(2) {
            dist_sum += w[0].lbn.abs_diff(w[1].lbn) as f64;
            dist_n += 1;
        }
        let mean_dist = if dist_n == 0 {
            0.0
        } else {
            dist_sum / dist_n as f64
        };
        let random_mean = trace.data_sectors as f64 / 3.0;
        let seek_locality = if mean_dist <= 0.0 {
            1.0
        } else {
            (random_mean / mean_dist).max(1.0)
        };

        // Read-after-write within one hour, tracked at 4 KiB buckets.
        let hour = SimDuration::from_secs(3600);
        let mut last_write: HashMap<u64, mimd_sim::SimTime> = HashMap::new();
        let mut raw_hits = 0usize;
        for r in reqs {
            let first = r.lbn / RAW_BUCKET_SECTORS;
            let last = (r.end().saturating_sub(1)) / RAW_BUCKET_SECTORS;
            if r.op == Op::Read {
                let mut hit = false;
                for b in first..=last {
                    if let Some(&t) = last_write.get(&b) {
                        if r.arrival.saturating_since(t) <= hour {
                            hit = true;
                            break;
                        }
                    }
                }
                if hit {
                    raw_hits += 1;
                }
            } else {
                for b in first..=last {
                    last_write.insert(b, r.arrival);
                }
            }
        }

        TraceStats {
            data_sectors: trace.data_sectors,
            ios,
            duration: trace.duration(),
            avg_rate: trace.avg_rate(),
            read_frac: trace.fraction(Op::Read),
            async_write_frac: trace.fraction(Op::AsyncWrite),
            seek_locality,
            read_after_write_1h: if ios == 0 {
                0.0
            } else {
                raw_hits as f64 / ios as f64
            },
        }
    }

    /// The model ratio `p` (Equation 8) implied by these statistics,
    /// assuming asynchronous writes and masked replica propagation count as
    /// background (`X_r + X_wb`) and the given fraction of synchronous
    /// writes must propagate in the foreground.
    pub fn p_ratio(&self, foreground_frac_of_sync_writes: f64) -> f64 {
        let sync_writes = (1.0 - self.read_frac - self.async_write_frac).max(0.0);
        1.0 - sync_writes * foreground_frac_of_sync_writes.clamp(0.0, 1.0)
    }

    /// Formats one Table-3-style row.
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{label:<14} {:>7.1} GB {:>9} I/Os {:>8.0} s {:>7.2}/s {:>6.1}% reads {:>6.1}% async {:>6.2} L {:>5.1}% RAW",
            self.data_sectors as f64 * 512.0 / 1e9,
            self.ios,
            self.duration.as_secs_f64(),
            self.avg_rate,
            self.read_frac * 100.0,
            self.async_write_frac * 100.0,
            self.seek_locality,
            self.read_after_write_1h * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use mimd_sim::SimTime;

    fn req(at_s: u64, op: Op, lbn: u64) -> Request {
        Request {
            id: 0,
            arrival: SimTime::from_secs(at_s),
            op,
            lbn,
            sectors: 8,
        }
    }

    #[test]
    fn uniform_random_trace_has_locality_near_one() {
        use mimd_sim::SimRng;
        let mut rng = SimRng::seed_from(5);
        let n = 1_000_000u64;
        let reqs: Vec<Request> = (0..20_000)
            .map(|i| req(i, Op::Read, rng.below(n)))
            .collect();
        let t = Trace::new("uniform", n, reqs);
        let s = TraceStats::of(&t);
        assert!(
            (s.seek_locality - 1.0).abs() < 0.05,
            "locality {}",
            s.seek_locality
        );
    }

    #[test]
    fn clustered_trace_has_high_locality() {
        let n = 1_000_000u64;
        // All requests within a 1000-block neighbourhood.
        let reqs: Vec<Request> = (0..5_000)
            .map(|i| req(i, Op::Read, 500_000 + (i * 37) % 1_000))
            .collect();
        let t = Trace::new("local", n, reqs);
        let s = TraceStats::of(&t);
        assert!(s.seek_locality > 100.0, "locality {}", s.seek_locality);
    }

    #[test]
    fn read_after_write_counts_only_recent() {
        let reqs = vec![
            req(0, Op::SyncWrite, 100),
            req(10, Op::Read, 100),     // Within the hour: counts.
            req(10_000, Op::Read, 100), // Nearly 3 hours later: stale.
            req(20, Op::Read, 900),     // Never written: no.
        ];
        let t = Trace::new("raw", 10_000, reqs);
        let s = TraceStats::of(&t);
        assert!((s.read_after_write_1h - 0.25).abs() < 1e-12);
    }

    #[test]
    fn read_after_write_sees_partial_overlap() {
        let reqs = vec![
            Request {
                id: 0,
                arrival: SimTime::ZERO,
                op: Op::SyncWrite,
                lbn: 0,
                sectors: 16,
            },
            // Overlaps the written bucket range at its tail.
            Request {
                id: 0,
                arrival: SimTime::from_secs(5),
                op: Op::Read,
                lbn: 12,
                sectors: 8,
            },
        ];
        let t = Trace::new("raw2", 10_000, reqs);
        let s = TraceStats::of(&t);
        assert!((s.read_after_write_1h - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fractions_reported() {
        let reqs = vec![
            req(0, Op::Read, 0),
            req(1, Op::SyncWrite, 10),
            req(2, Op::AsyncWrite, 20),
            req(3, Op::Read, 30),
        ];
        let t = Trace::new("mix", 1_000, reqs);
        let s = TraceStats::of(&t);
        assert!((s.read_frac - 0.5).abs() < 1e-12);
        assert!((s.async_write_frac - 0.25).abs() < 1e-12);
        assert_eq!(s.ios, 4);
    }

    #[test]
    fn p_ratio_reflects_foreground_sync_writes() {
        let reqs = vec![
            req(0, Op::Read, 0),
            req(1, Op::SyncWrite, 10),
            req(2, Op::SyncWrite, 20),
            req(3, Op::Read, 30),
        ];
        let t = Trace::new("p", 1_000, reqs);
        let s = TraceStats::of(&t);
        // Half the requests are sync writes; all propagated in foreground.
        assert!((s.p_ratio(1.0) - 0.5).abs() < 1e-12);
        // All masked in background: p = 1.
        assert!((s.p_ratio(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_well_defined() {
        let t = Trace::new("empty", 1_000, vec![]);
        let s = TraceStats::of(&t);
        assert_eq!(s.ios, 0);
        assert_eq!(s.seek_locality, 1.0);
        assert_eq!(s.read_after_write_1h, 0.0);
    }

    #[test]
    fn table_row_formats() {
        let t = Trace::new("empty", 1_000, vec![req(0, Op::Read, 0)]);
        let row = TraceStats::of(&t).table_row("x");
        assert!(row.contains("I/Os"));
        assert!(row.contains("reads"));
    }
}
