//! Per-cell digests of simulated output.
//!
//! A speed-only change must leave every simulated statistic identical, so
//! each cell's report folds into one 64-bit FNV-1a digest: the engine's
//! determinism witness, the completion count, and the exact bits of every
//! response-time sample in recording order. The digest is the benchmark's
//! own definition (not the harness's fingerprint), so the pinned values
//! only move when simulated output moves.

use mimd_core::RunReport;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a fold over little-endian 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(OFFSET)
    }

    /// Folds one word, byte by byte.
    pub fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The digest of one cell's report. Call it before anything reorders the
/// response samples (percentile queries select in place).
pub fn cell_digest(report: &RunReport) -> u64 {
    let samples = report.response_samples_ms.values();
    let mut d = Digest::new();
    d.fold(report.witness);
    d.fold(report.completed);
    d.fold(samples.len() as u64);
    for &x in samples {
        d.fold(x.to_bits());
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_sim::SampleSet;

    #[test]
    fn fold_matches_reference_fnv1a() {
        // FNV-1a of the eight bytes 01 00 00 00 00 00 00 00.
        let mut reference = OFFSET;
        for b in [1u8, 0, 0, 0, 0, 0, 0, 0] {
            reference = (reference ^ u64::from(b)).wrapping_mul(PRIME);
        }
        let mut d = Digest::new();
        d.fold(1);
        assert_eq!(d.value(), reference);
        assert_eq!(Digest::new().value(), OFFSET);
    }

    #[test]
    fn fold_is_order_sensitive() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.fold(1);
        a.fold(2);
        b.fold(2);
        b.fold(1);
        assert_ne!(a, b);
    }

    #[test]
    fn cell_digest_sees_witness_count_and_sample_bits() {
        let base = RunReport {
            completed: 2,
            witness: 7,
            response_samples_ms: SampleSet::from_values(vec![1.0, 2.0]),
            ..Default::default()
        };
        let d = cell_digest(&base);
        assert_eq!(d, cell_digest(&base.clone()));
        let mut other = base.clone();
        other.witness = 8;
        assert_ne!(cell_digest(&other), d);
        let mut other = base.clone();
        other.completed = 3;
        assert_ne!(cell_digest(&other), d);
        let mut other = base.clone();
        other.response_samples_ms =
            SampleSet::from_values(vec![1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
        assert_ne!(
            cell_digest(&other),
            d,
            "one ulp in one sample moves the digest"
        );
        let mut other = base;
        other.response_samples_ms = SampleSet::from_values(vec![2.0, 1.0]);
        assert_ne!(cell_digest(&other), d, "sample order is part of the output");
    }
}
