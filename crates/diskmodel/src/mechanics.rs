//! Rotational mechanics helpers shared by the disk and calibration layers.

use mimd_sim::{SimDuration, SimTime};

/// `x.rem_euclid(1.0)`, bit for bit, without the libm `fmod` call.
///
/// `fmod(x, 1)` is exact, so `rem_euclid` rounds once, in its `r + 1`
/// for negative `x`. `x - floor(x)` is the same real number with the
/// same single rounding: exact for `x >= 0`, and
/// `(x - ceil(x)) + 1` for negative non-integers. The two forms part
/// only on the sign of a zero result: `rem_euclid` keeps the sign of `x`
/// (`-0.0` for `-0.0` and negative integers), and the subtraction gives
/// `+0.0`. NaN and ±inf give NaN either way.
#[inline]
pub fn frac1(x: f64) -> f64 {
    let r = x - x.floor();
    if r == 0.0 {
        0.0f64.copysign(x)
    } else {
        r
    }
}

/// Reduces an angle to the canonical `[0, 1)` revolution fraction:
/// [`frac1`], with the `1.0` a tiny negative rounds to folded to `0.0`.
#[inline]
pub fn mod1(x: f64) -> f64 {
    let r = frac1(x);
    if r >= 1.0 {
        0.0
    } else {
        r
    }
}

/// A constant-speed spindle: maps instants to platter phase.
///
/// Phase 0 is the spindle index mark at `t = 0`. Real spindles drift; the
/// calibration module models drift separately — the service-time path uses
/// this ideal clock, which is what the drive's own servo also presents to
/// the host at the timescale of a single request.
#[derive(Debug, Clone, Copy)]
pub struct Spindle {
    period: SimDuration,
    /// `u64::MAX / period_ns`: the Barrett reciprocal that lets
    /// [`Spindle::angle_at`] reduce `t % period` without a hardware divide.
    recip: u64,
}

impl Spindle {
    /// Creates a spindle with the given rotation period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(
            period > SimDuration::ZERO,
            "rotation period must be positive"
        );
        Spindle {
            period,
            recip: u64::MAX / period.as_nanos(),
        }
    }

    /// Full-rotation time.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Platter phase (fraction of a revolution) at instant `t`:
    /// `(t % p) as f64 / p as f64` for period `p` in nanoseconds, bit for
    /// bit.
    ///
    /// The remainder is a Barrett reduction: `recip = floor((2^64 - 1) / p)`
    /// makes the estimated quotient `(t * recip) >> 64` an underestimate of
    /// `t / p` by at most 2 for every `t < 2^64`, so the correction loop
    /// runs at most twice and the remainder is exact.
    #[inline]
    pub fn angle_at(&self, t: SimTime) -> f64 {
        let p = self.period.as_nanos();
        let t = t.as_nanos();
        let q = ((t as u128 * self.recip as u128) >> 64) as u64;
        let mut rem = t - q * p;
        while rem >= p {
            rem -= p;
        }
        rem as f64 / p as f64
    }

    /// Time to wait from instant `t` until the platter reaches `target`
    /// phase. Zero if the target is exactly under the head.
    #[inline]
    pub fn wait_until_angle(&self, t: SimTime, target: f64) -> SimDuration {
        let delta = mod1(target - self.angle_at(t));
        SimDuration::from_nanos((delta * self.period.as_nanos() as f64).round() as u64)
    }

    /// Duration of a rotational arc of `frac` revolutions (`frac >= 0`).
    #[inline]
    pub fn arc(&self, frac: f64) -> SimDuration {
        debug_assert!(frac >= 0.0);
        SimDuration::from_nanos((frac * self.period.as_nanos() as f64).round() as u64)
    }
}

/// Decomposition of one physical request's service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceBreakdown {
    /// Fixed command/controller overhead.
    pub overhead: SimDuration,
    /// Arm positioning time (including any write settle).
    pub seek: SimDuration,
    /// Rotational wait for the target to come under the head, including a
    /// full-rotation miss penalty when head tracking mispredicted.
    pub rotation: SimDuration,
    /// Media transfer time, including head switches mid-transfer.
    pub transfer: SimDuration,
    /// Whether a rotational-prediction miss added a full extra revolution.
    pub missed_rotation: bool,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.overhead + self.seek + self.rotation + self.transfer
    }

    /// Positioning time only (seek + rotation), the quantity SATF orders by.
    pub fn positioning(&self) -> SimDuration {
        self.seek + self.rotation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The edge values named in [`frac1`]'s contract plus a log-uniform
    /// random spread over `[1e-300, 1e15)` of both signs.
    fn probe_values() -> Vec<f64> {
        let two52 = (1u64 << 52) as f64;
        let mut v = vec![
            0.0,
            -0.0,
            -1.0,
            -2.0,
            -3.0,
            -1e15,
            -1e-20,
            -f64::MIN_POSITIVE,
            -f64::EPSILON,
            1.0,
            0.5,
            -0.5,
            1.0 - f64::EPSILON,
            two52,
            two52 - 0.5,
            two52 + 1.0,
            -two52,
            -(two52 - 0.5),
            -(two52 + 1.0),
            2.0 * two52,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = mimd_sim::SimRng::named(12, "frac1-probe");
        for _ in 0..4_000 {
            let mag = 10f64.powf(mimd_sim::check::f64_in(&mut rng, -300.0, 15.0));
            v.push(if rng.below(2) == 0 { mag } else { -mag });
        }
        v
    }

    /// Bits must match, except that any NaN matches any NaN.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn frac1_is_bit_identical_to_rem_euclid() {
        for x in probe_values() {
            let (got, want) = (frac1(x), x.rem_euclid(1.0));
            assert!(
                same(got, want),
                "frac1({x:e}) = {got:e}, rem_euclid = {want:e}"
            );
        }
    }

    #[test]
    fn mod1_matches_its_fast_path_form() {
        // The form `mod1` had while `rem_euclid` still cost an `fmod`:
        // two inline fast paths in front of the libm reduction.
        fn fast_path_mod1(x: f64) -> f64 {
            if (0.0..1.0).contains(&x) {
                return x;
            }
            if -1.0 < x && x < 0.0 {
                let r = x + 1.0;
                return if r >= 1.0 { 0.0 } else { r };
            }
            let r = x.rem_euclid(1.0);
            if r >= 1.0 {
                0.0
            } else {
                r
            }
        }
        for x in probe_values() {
            let (got, want) = (mod1(x), fast_path_mod1(x));
            assert!(
                same(got, want),
                "mod1({x:e}) = {got:e}, fast-path form = {want:e}"
            );
        }
        assert_eq!(mod1(-1e-20).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn mod1_wraps_both_directions() {
        assert_eq!(mod1(0.25), 0.25);
        assert_eq!(mod1(1.25), 0.25);
        assert_eq!(mod1(-0.25), 0.75);
        assert_eq!(mod1(0.0), 0.0);
        assert_eq!(mod1(3.0), 0.0);
    }

    #[test]
    fn spindle_angle_advances_linearly() {
        let s = Spindle::new(SimDuration::from_millis(6));
        assert_eq!(s.angle_at(SimTime::ZERO), 0.0);
        assert!((s.angle_at(SimTime::from_millis(3)) - 0.5).abs() < 1e-12);
        assert!((s.angle_at(SimTime::from_millis(9)) - 0.5).abs() < 1e-12);
        assert!((s.angle_at(SimTime::from_micros(1_500)) - 0.25).abs() < 1e-12);
    }

    /// The Barrett remainder in `angle_at` must reproduce the plain
    /// `(t % p) as f64 / p as f64` to the bit: random `t` over the whole
    /// `u64` range, exact multiples of `p` and their ±1 neighbours, and
    /// `u64::MAX`, for drive-like and edge-case periods.
    #[test]
    fn angle_at_is_bit_identical_to_the_plain_remainder() {
        let mut rng = mimd_sim::SimRng::named(13, "angle-at-probe");
        for p in [
            1u64,
            2,
            3,
            7,
            5_988_024,
            6_000_000,
            8_333_333,
            1 << 32,
            (1 << 63) + 1,
            u64::MAX,
        ] {
            let s = Spindle::new(SimDuration::from_nanos(p));
            let top = u64::MAX / p * p;
            let mut ts = vec![0, 1, top, top - 1, u64::MAX, u64::MAX - 1];
            for _ in 0..2_000 {
                ts.push(rng.below(u64::MAX));
                let kp = rng.below(u64::MAX / p) * p;
                ts.extend([kp, kp.saturating_sub(1), kp + 1]);
            }
            for t in ts {
                let want = (t % p) as f64 / p as f64;
                let got = s.angle_at(SimTime::from_nanos(t));
                assert_eq!(got.to_bits(), want.to_bits(), "p={p} t={t}");
            }
        }
    }

    #[test]
    fn wait_until_angle_is_forward_only() {
        let s = Spindle::new(SimDuration::from_millis(6));
        let t = SimTime::from_millis(3); // Phase 0.5.
        assert_eq!(s.wait_until_angle(t, 0.75), SimDuration::from_micros(1_500));
        // Going "backwards" costs most of a revolution.
        assert_eq!(s.wait_until_angle(t, 0.25), SimDuration::from_micros(4_500));
        assert_eq!(s.wait_until_angle(t, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn arc_scales_with_fraction() {
        let s = Spindle::new(SimDuration::from_millis(6));
        assert_eq!(s.arc(0.5), SimDuration::from_millis(3));
        assert_eq!(s.arc(2.0), SimDuration::from_millis(12));
        assert_eq!(s.arc(0.0), SimDuration::ZERO);
    }

    #[test]
    fn breakdown_totals() {
        let b = ServiceBreakdown {
            overhead: SimDuration::from_micros(500),
            seek: SimDuration::from_micros(2_000),
            rotation: SimDuration::from_micros(1_500),
            transfer: SimDuration::from_micros(250),
            missed_rotation: false,
        };
        assert_eq!(b.total(), SimDuration::from_micros(4_250));
        assert_eq!(b.positioning(), SimDuration::from_micros(3_500));
    }
}
