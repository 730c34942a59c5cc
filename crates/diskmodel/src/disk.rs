//! The simulated drive: head state, service-time computation, and the two
//! timing fidelities.
//!
//! The paper's architecture (§3.1, Figure 4) runs the same upper layers
//! against either real SCSI disks or an integrated simulator calibrated
//! from them; Figure 5 validates that the two agree within 3 %. We
//! reproduce that structure with two independently-coded timing paths:
//!
//! - [`TimingPath::Detailed`] — sector-accurate: target angles are
//!   quantised to real sector boundaries on the addressed track, transfer
//!   time uses that zone's sectors-per-track, and head switches during a
//!   transfer are counted exactly.
//! - [`TimingPath::Analytic`] — continuous: angles are taken as given and
//!   transfer time uses the drive-wide average track length.
//!
//! The array engine can run on either; the Figure-5 reproduction runs both
//! and reports the discrepancy.

use mimd_sim::{SimDuration, SimRng, SimTime};

use crate::geometry::Geometry;
use crate::mechanics::{mod1, ServiceBreakdown, Spindle};
use crate::params::DiskParams;
use crate::seek::SeekProfile;

/// Which service-time implementation a [`SimDisk`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingPath {
    /// Sector-accurate timing (the "prototype" role in Figure 5).
    Detailed,
    /// Continuous-angle timing (the "simulator" role in Figure 5).
    Analytic,
}

/// How the drive's rotational position is known to the scheduler.
///
/// `Perfect` corresponds to hardware-assisted position knowledge;
/// `Tracked` injects the residual error of the paper's software-only
/// head-tracking mechanism (§3.2): Gaussian prediction error, and a full
/// extra revolution whenever the error eats the entire rotational wait
/// (a *rotation miss*, Table 2's 0.22 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PositionKnowledge {
    /// Predictions are exact.
    Perfect,
    /// Predictions carry Gaussian error.
    Tracked {
        /// Mean prediction error in microseconds (Table 2: ~3 µs).
        mean_error_us: f64,
        /// Standard deviation of prediction error in µs (Table 2: ~31 µs).
        std_error_us: f64,
    },
}

/// A physical access target expressed in positioning terms.
///
/// The array layout computes these from the geometry: a rotational replica
/// "at angle θ on cylinder c" becomes a `Target`. The detailed timing path
/// re-quantises the angle to the owning track's sector grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Cylinder holding the data.
    pub cylinder: u32,
    /// Surface holding the data.
    pub surface: u32,
    /// Start angle of the transfer, in revolutions.
    pub angle: f64,
    /// Transfer length in sectors.
    pub sectors: u32,
}

/// A simulated disk drive.
///
/// Holds the arm position (`cylinder`) — the rotational position is a pure
/// function of time via the spindle — plus the busy horizon used by the
/// per-disk queues.
///
/// # Examples
///
/// ```
/// use mimd_disk::{DiskParams, PositionKnowledge, SimDisk, Target, TimingPath};
/// use mimd_sim::SimTime;
///
/// let mut d = SimDisk::new(
///     &DiskParams::st39133lwv(),
///     TimingPath::Detailed,
///     PositionKnowledge::Perfect,
///     7,
/// )
/// .unwrap();
/// let t = Target { cylinder: 1000, surface: 0, angle: 0.5, sectors: 16 };
/// let est = d.estimate(SimTime::ZERO, &t, false);
/// let got = d.begin(SimTime::ZERO, &t, false);
/// assert_eq!(est.total(), got.total());
/// assert_eq!(d.arm_cylinder(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct SimDisk {
    geometry: Geometry,
    seek: SeekProfile,
    spindle: Spindle,
    path: TimingPath,
    knowledge: PositionKnowledge,
    head_switch: SimDuration,
    overhead: SimDuration,
    rotation: SimDuration,
    /// `rotation` in nanoseconds, cached for the scheduler's integer cost
    /// comparisons.
    rotation_ns: u64,
    avg_spt: f64,
    arm_cylinder: u32,
    arm_surface: u32,
    /// When true, the drive buffers the track it last read; re-reads from
    /// that track are served at transfer speed with no positioning.
    read_ahead: bool,
    /// The `(cylinder, surface)` whose contents sit in the track buffer.
    buffered_track: Option<(u32, u32)>,
    /// Spindle phase offset in revolutions; non-zero models unsynchronised
    /// spindles across an array (§2.5).
    phase_offset: f64,
    /// Bumped on every [`SimDisk::set_phase_offset`]. External caches of
    /// phase-derived values (the drive queue's [`SimDisk::sched_phase`]
    /// memo) stamp this and treat a mismatch as a miss, so a stale phase
    /// can never survive a spindle-phase change.
    phase_epoch: u32,
    busy_until: SimTime,
    rng: SimRng,
    rotation_misses: u64,
    requests_served: u64,
    /// Fail-slow windows `(from, until, factor)`: operations *started*
    /// inside a window take `factor`× their healthy service time. Empty
    /// (the default) costs one branch per `begin`.
    fail_slow: Vec<(SimTime, SimTime, f64)>,
}

impl SimDisk {
    /// Builds a drive from parameters; fails if the parameters are invalid
    /// or the seek curve cannot be fitted.
    pub fn new(
        params: &DiskParams,
        path: TimingPath,
        knowledge: PositionKnowledge,
        seed: u64,
    ) -> Result<Self, String> {
        let seek = SeekProfile::fit(params)?;
        let geometry = Geometry::new(params);
        Ok(Self::with_parts(
            params, geometry, seek, path, knowledge, seed,
        ))
    }

    /// Builds a drive from a pre-fitted seek profile and geometry.
    ///
    /// An array builds these once and clones them per disk — the profile's
    /// lookup tables are `Arc`-shared, and the expensive numeric fit runs a
    /// single time instead of once per spindle. `geometry` and `seek` must
    /// have been derived from this same `params`.
    pub fn with_parts(
        params: &DiskParams,
        geometry: Geometry,
        seek: SeekProfile,
        path: TimingPath,
        knowledge: PositionKnowledge,
        seed: u64,
    ) -> Self {
        let rotation = params.rotation_time();
        SimDisk {
            avg_spt: geometry.avg_sectors_per_track(),
            geometry,
            seek,
            spindle: Spindle::new(rotation),
            path,
            knowledge,
            head_switch: params.head_switch,
            overhead: params.overhead,
            rotation,
            rotation_ns: rotation.as_nanos(),
            arm_cylinder: 0,
            arm_surface: 0,
            read_ahead: false,
            buffered_track: None,
            phase_offset: 0.0,
            phase_epoch: 0,
            busy_until: SimTime::ZERO,
            rng: SimRng::named(seed, "disk-head"),
            rotation_misses: 0,
            requests_served: 0,
            fail_slow: Vec::new(),
        }
    }

    /// Adds a fail-slow window: operations started in `[from, until)` take
    /// `factor`× their healthy time. Only the *realised* service stretches —
    /// [`SimDisk::estimate`] keeps reporting healthy timings, so schedulers
    /// retain their normal picture of the drive and steering work away from
    /// a sick disk stays an array-level decision. Windows with non-finite
    /// or non-positive factors are ignored.
    pub fn add_fail_slow(&mut self, from: SimTime, until: SimTime, factor: f64) {
        if factor.is_finite() && factor > 0.0 && until > from {
            self.fail_slow.push((from, until, factor));
        }
    }

    /// The drive's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The fitted seek profile.
    pub fn seek_profile(&self) -> &SeekProfile {
        &self.seek
    }

    /// Full rotation time.
    pub fn rotation_time(&self) -> SimDuration {
        self.rotation
    }

    /// Full rotation time in nanoseconds (cached; hot in the scheduler).
    #[inline]
    pub fn rotation_ns(&self) -> u64 {
        self.rotation_ns
    }

    /// A lower bound, in nanoseconds, on the positioning component
    /// ([`ServiceBreakdown::positioning`]) that [`SimDisk::estimate`] would
    /// report for `target`: the seek alone, before any rotational wait.
    ///
    /// Exactness matters — the SATF scan uses this to skip candidates whose
    /// bound already exceeds the incumbent, which only preserves the pick
    /// when the bound never overshoots. A track-buffer hit has zero
    /// positioning, so potential hits return 0; write settle only adds
    /// time, so the read seek bounds both directions.
    #[inline]
    pub fn positioning_lower_bound_ns(&self, target: &Target, write: bool) -> u64 {
        if !write
            && self.read_ahead
            && self.buffered_track == Some((target.cylinder, target.surface))
        {
            return 0;
        }
        self.seek_bound_ns(self.arm_cylinder.abs_diff(target.cylinder))
    }

    /// The seek-only lower bound for a cylinder `distance`, in nanoseconds:
    /// the by-distance form of [`SimDisk::positioning_lower_bound_ns`], for
    /// index structures that bound whole cylinder bands at once. Monotone in
    /// `distance` (the seek curve is), which is what lets a band index visit
    /// bands in ascending-bound order. Not valid for potential track-buffer
    /// hits (their positioning bound is 0 regardless of distance) — callers
    /// must check [`SimDisk::read_ahead_enabled`] first.
    #[inline]
    pub fn seek_bound_ns(&self, distance: u32) -> u64 {
        if distance == 0 {
            0
        } else {
            self.seek.seek_ns(distance)
        }
    }

    /// Whether the track read-ahead buffer is enabled.
    pub fn read_ahead_enabled(&self) -> bool {
        self.read_ahead
    }

    /// Current arm cylinder.
    pub fn arm_cylinder(&self) -> u32 {
        self.arm_cylinder
    }

    /// Current arm surface (the head last used).
    pub fn arm_surface(&self) -> u32 {
        self.arm_surface
    }

    /// Earliest instant at which the drive can start a new request.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Enables or disables the drive's track read-ahead buffer.
    ///
    /// Period drives buffered the remainder of the track they had just
    /// read; a subsequent read from the same track is then served from the
    /// buffer at transfer speed, with no seek or rotational wait. Off by
    /// default to keep the paper's mechanical-positioning experiments
    /// undiluted; the read-ahead ablation turns it on.
    pub fn set_read_ahead(&mut self, enabled: bool) {
        self.read_ahead = enabled;
        if !enabled {
            self.buffered_track = None;
        }
    }

    /// Sets this spindle's phase offset in revolutions.
    ///
    /// All [`SimDisk`]s share the simulation clock, which makes their
    /// spindles implicitly synchronised; give each a random offset to model
    /// the unsynchronised spindles of commodity arrays (§2.5).
    pub fn set_phase_offset(&mut self, offset: f64) {
        self.phase_offset = mod1(offset);
        self.phase_epoch = self.phase_epoch.wrapping_add(1);
    }

    /// Generation counter for phase-derived memos: changes whenever
    /// [`SimDisk::set_phase_offset`] does. Stamp it next to any cached
    /// [`SimDisk::sched_phase`] value and re-derive on mismatch.
    pub fn phase_epoch(&self) -> u32 {
        self.phase_epoch
    }

    /// Platter phase at instant `t` (including this disk's phase offset).
    pub fn angle_at(&self, t: SimTime) -> f64 {
        mod1(self.spindle.angle_at(t) + self.phase_offset)
    }

    /// Count of rotational-prediction misses so far.
    pub fn rotation_misses(&self) -> u64 {
        self.rotation_misses
    }

    /// Count of requests served (via [`SimDisk::begin`]).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Effective start angle and transfer time of a target, resolved
    /// together: on the detailed path one zone lookup and one sector
    /// quantisation serve both (they are the estimate's dominant cost).
    fn angle_and_transfer(&self, target: &Target) -> (f64, SimDuration) {
        if self.path == TimingPath::Detailed {
            if let Some((angle, sector, spt)) =
                self.geometry
                    .quantise_angle(target.cylinder, target.surface, target.angle)
            {
                let media = self.spindle.arc(target.sectors as f64 / spt as f64);
                let switches =
                    (sector as u64 + target.sectors.saturating_sub(1) as u64) / spt as u64;
                return (angle, media + self.head_switch * switches);
            }
        }
        // Analytic path, or a target outside the geometry (falls back to
        // the continuous angle and the generic transfer estimate).
        (mod1(target.angle), self.transfer_time(target))
    }

    /// Transfer time for `sectors` starting at the effective angle.
    fn transfer_time(&self, target: &Target) -> SimDuration {
        let spt = match self.path {
            TimingPath::Analytic => self.avg_spt,
            TimingPath::Detailed => self
                .geometry
                .sectors_per_track(target.cylinder)
                .unwrap_or(self.avg_spt as u32) as f64,
        };
        let media = self.spindle.arc(target.sectors as f64 / spt);
        let switches = match self.path {
            TimingPath::Analytic => ((target.sectors as f64 - 1.0) / spt).floor() as u64,
            TimingPath::Detailed => {
                let sector = self
                    .geometry
                    .sector_at_angle(target.cylinder, target.surface, target.angle)
                    .unwrap_or(0) as u64;
                (sector + target.sectors.saturating_sub(1) as u64) / spt as u64
            }
        };
        media + self.head_switch * switches
    }

    /// Mechanical repositioning time to reach a target track: a seek when
    /// the cylinder changes, a head switch when only the surface does, and
    /// the write settle whenever the heads reposition before a write.
    #[inline]
    fn positioning_time(&self, target: &Target, write: bool) -> SimDuration {
        let distance = self.arm_cylinder.abs_diff(target.cylinder);
        if distance > 0 {
            if write {
                self.seek.seek_write(distance)
            } else {
                self.seek.seek(distance)
            }
        } else if target.surface != self.arm_surface {
            let settle = if write {
                // The write-settle penalty, recovered from the profile.
                self.seek.seek_write(1).saturating_sub(self.seek.seek(1))
            } else {
                SimDuration::ZERO
            };
            self.head_switch + settle
        } else {
            SimDuration::ZERO
        }
    }

    fn estimate_inner(
        &self,
        start: SimTime,
        target: &Target,
        write: bool,
        overhead: SimDuration,
    ) -> ServiceBreakdown {
        if !write
            && self.read_ahead
            && self.buffered_track == Some((target.cylinder, target.surface))
        {
            // Track-buffer hit: data streams from the drive's cache.
            return ServiceBreakdown {
                overhead,
                seek: SimDuration::ZERO,
                rotation: SimDuration::ZERO,
                transfer: self.transfer_time(target),
                missed_rotation: false,
            };
        }
        let seek = self.positioning_time(target, write);
        let arrive = start + overhead + seek;
        let (angle, transfer) = self.angle_and_transfer(target);
        // `wait_until_angle` works in absolute spindle phase; fold the
        // per-disk phase offset into the target.
        let rotation = self
            .spindle
            .wait_until_angle(arrive, self.phase_of_angle(angle));
        ServiceBreakdown {
            overhead,
            seek,
            rotation,
            transfer,
            missed_rotation: false,
        }
    }

    /// Predicts the service breakdown for starting `target` at `start`,
    /// without changing drive state. Deterministic: this is what the
    /// schedulers (SATF/RSATF/RLOOK replica choice) rank candidates by.
    pub fn estimate(&self, start: SimTime, target: &Target, write: bool) -> ServiceBreakdown {
        self.estimate_inner(start, target, write, self.overhead)
    }

    /// The scheduler's view of [`SimDisk::estimate`]: `(positioning,
    /// rotation)` in nanoseconds, skipping the transfer-time computation
    /// that candidate ranking never reads. Agrees exactly with
    /// `estimate(start, target, write)`'s `positioning()` and `rotation`.
    #[inline]
    pub fn sched_cost_ns(&self, start: SimTime, target: &Target, write: bool) -> (u64, u64) {
        self.sched_cost_at_phase_ns(start, target, write, self.sched_phase(target))
    }

    /// The effective spindle phase at which `target`'s first sector passes
    /// under the head: the quantised track angle with this disk's phase
    /// offset folded in. Never depends on the clock or the arm, so index
    /// structures may compute it once per queued candidate and reuse it
    /// across picks — but it *does* fold in the mutable phase offset, so
    /// any such memo must stamp [`SimDisk::phase_epoch`] and re-derive
    /// when the epoch has moved.
    #[inline]
    pub fn sched_phase(&self, target: &Target) -> f64 {
        self.phase_of_angle(self.sched_base_angle(target))
    }

    /// The quantised, pre-offset track angle [`SimDisk::sched_phase`]
    /// starts from: a pure function of the target and the (immutable)
    /// geometry, so index structures may store it once per queued candidate
    /// and re-derive the effective phase after any spindle-phase change via
    /// [`SimDisk::phase_of_angle`] — no re-quantisation needed.
    /// `sched_phase(t) == phase_of_angle(sched_base_angle(t))`, bit for bit.
    #[inline]
    pub fn sched_base_angle(&self, target: &Target) -> f64 {
        if self.path == TimingPath::Detailed {
            match self
                .geometry
                .quantise_angle(target.cylinder, target.surface, target.angle)
            {
                Some((angle, _, _)) => angle,
                None => mod1(target.angle),
            }
        } else {
            mod1(target.angle)
        }
    }

    /// Folds the current spindle-phase offset into a pre-offset angle
    /// already reduced to `[0, 1)` (a quantised track angle, or a
    /// [`SimDisk::sched_base_angle`]): the effective spindle phase the
    /// target passes under the head at. Valid for the current
    /// [`SimDisk::phase_epoch`] only, so it is also the repair half of an
    /// epoch-stamped phase memo. The zero-offset fast path skips the
    /// reduction and is value-exact: `angle - 0.0 == angle` and `mod1` is
    /// the identity on `[0, 1)`.
    #[inline]
    pub fn phase_of_angle(&self, base_angle: f64) -> f64 {
        if self.phase_offset == 0.0 {
            base_angle
        } else {
            mod1(base_angle - self.phase_offset)
        }
    }

    /// [`SimDisk::sched_cost_ns`] with the effective phase supplied by the
    /// caller (from [`SimDisk::sched_phase`]), skipping the per-call angle
    /// quantisation. `sched_cost_ns(s, t, w)` is defined as
    /// `sched_cost_at_phase_ns(s, t, w, sched_phase(t))`.
    #[inline]
    pub fn sched_cost_at_phase_ns(
        &self,
        start: SimTime,
        target: &Target,
        write: bool,
        phase: f64,
    ) -> (u64, u64) {
        if !write
            && self.read_ahead
            && self.buffered_track == Some((target.cylinder, target.surface))
        {
            return (0, 0); // Track-buffer hit: no positioning at all.
        }
        let seek = self.positioning_time(target, write);
        let arrive = start + self.overhead + seek;
        let rotation = self.spindle.wait_until_angle(arrive, phase);
        ((seek + rotation).as_nanos(), rotation.as_nanos())
    }

    /// Like [`SimDisk::estimate`], but without the per-command overhead:
    /// used for the follow-on replica writes of a single multi-replica
    /// write command (§3.4's foreground propagation).
    pub fn estimate_chained(
        &self,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> ServiceBreakdown {
        self.estimate_inner(start, target, write, SimDuration::ZERO)
    }

    fn begin_inner(
        &mut self,
        start: SimTime,
        target: &Target,
        write: bool,
        overhead: SimDuration,
    ) -> ServiceBreakdown {
        let b = self.estimate_inner(start, target, write, overhead);
        self.commit(b, start, target, write)
    }

    /// The mutating half of [`SimDisk::begin_inner`]: takes the prediction
    /// for `(start, target, write)` and commits it — rolls the
    /// head-tracking error, applies fail-slow inflation, moves the arm,
    /// and advances the busy horizon.
    fn commit(
        &mut self,
        mut b: ServiceBreakdown,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> ServiceBreakdown {
        if let PositionKnowledge::Tracked {
            mean_error_us,
            std_error_us,
        } = self.knowledge
        {
            // The scheduler believed the rotational wait was b.rotation; the
            // true platter position differs by a Gaussian error. A positive
            // error means the platter is ahead of the prediction: the wait
            // shrinks, and if it shrinks through zero the sector has already
            // passed and a full extra revolution is paid (§3.2).
            let err =
                SimDuration::from_micros_f64(self.rng.normal(mean_error_us, std_error_us).abs());
            let ahead = self.rng.chance(0.5);
            if ahead {
                if err > b.rotation {
                    b.rotation = b.rotation + self.rotation - err;
                    b.missed_rotation = true;
                    self.rotation_misses += 1;
                } else {
                    b.rotation -= err;
                }
            } else {
                b.rotation += err;
            }
        }
        if !self.fail_slow.is_empty() {
            // Fail-slow: inflate every realised component by the product of
            // the open windows (overlaps compound). The busy horizon below
            // commits the stretched total, so queueing behind a sick disk
            // degrades exactly as the inflation says it should.
            let mut f = 1.0;
            for &(from, until, factor) in &self.fail_slow {
                if start >= from && start < until {
                    f *= factor;
                }
            }
            if f != 1.0 {
                b.overhead = b.overhead.mul_f64(f);
                b.seek = b.seek.mul_f64(f);
                b.rotation = b.rotation.mul_f64(f);
                b.transfer = b.transfer.mul_f64(f);
            }
        }
        self.arm_cylinder = target.cylinder;
        self.arm_surface = target.surface;
        self.busy_until = start + b.total();
        self.requests_served += 1;
        if self.read_ahead {
            // Reads fill the buffer with their track; writes invalidate it
            // (the buffered image may now be stale).
            self.buffered_track = if write {
                None
            } else {
                Some((target.cylinder, target.surface))
            };
        }
        b
    }

    /// Starts servicing `target` at `start`, committing arm movement and
    /// the busy horizon, and (under [`PositionKnowledge::Tracked`]) rolling
    /// the head-tracking prediction error.
    ///
    /// Returns the realised breakdown; the request completes at
    /// `start + breakdown.total()`.
    pub fn begin(&mut self, start: SimTime, target: &Target, write: bool) -> ServiceBreakdown {
        self.begin_inner(start, target, write, self.overhead)
    }

    /// [`SimDisk::estimate`] and [`SimDisk::begin`] fused into one call:
    /// returns `(predicted, realised)`, with `predicted` bit-identical to
    /// a separate `estimate(start, target, write)` and `realised`
    /// bit-identical to the `begin(start, target, write)` that would have
    /// followed it. The dispatch path needs both views of every command;
    /// fusing them runs the shared seek/quantise/rotation prediction once.
    pub fn begin_with_estimate(
        &mut self,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> (ServiceBreakdown, ServiceBreakdown) {
        let predicted = self.estimate_inner(start, target, write, self.overhead);
        (predicted, self.commit(predicted, start, target, write))
    }

    /// Like [`SimDisk::begin`], but without the per-command overhead (the
    /// follow-on writes of one multi-replica command).
    pub fn begin_chained(
        &mut self,
        start: SimTime,
        target: &Target,
        write: bool,
    ) -> ServiceBreakdown {
        self.begin_inner(start, target, write, SimDuration::ZERO)
    }

    /// Reports position knowledge mode (used by experiment printouts).
    pub fn knowledge(&self) -> PositionKnowledge {
        self.knowledge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(path: TimingPath) -> SimDisk {
        SimDisk::new(
            &DiskParams::st39133lwv(),
            path,
            PositionKnowledge::Perfect,
            42,
        )
        .unwrap()
    }

    #[test]
    fn estimate_matches_begin_under_perfect_knowledge() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 2_000,
            surface: 3,
            angle: 0.7,
            sectors: 8,
        };
        let est = d.estimate(SimTime::from_millis(1), &t, false);
        let got = d.begin(SimTime::from_millis(1), &t, false);
        assert_eq!(est, got);
        assert!(!got.missed_rotation);
        assert_eq!(d.rotation_misses(), 0);
        assert_eq!(d.requests_served(), 1);
    }

    #[test]
    fn sched_cost_matches_estimate_exactly() {
        for path in [TimingPath::Detailed, TimingPath::Analytic] {
            let mut d = disk(path);
            d.set_phase_offset(0.37);
            for i in 0..500u64 {
                let t = Target {
                    cylinder: ((i * 131) % 9_000) as u32,
                    surface: (i % 12) as u32,
                    angle: (i as f64 * 0.618).rem_euclid(1.0),
                    sectors: 1 + (i % 64) as u32,
                };
                let start = SimTime::from_micros(i * 977);
                for write in [false, true] {
                    let est = d.estimate(start, &t, write);
                    let (pos, rot) = d.sched_cost_ns(start, &t, write);
                    assert_eq!(pos, est.positioning().as_nanos(), "{path:?} i={i}");
                    assert_eq!(rot, est.rotation.as_nanos(), "{path:?} i={i}");
                }
            }
        }
    }

    #[test]
    fn sched_cost_matches_estimate_on_buffer_hits() {
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let now = d.busy_until();
        let est = d.estimate(now, &t, false);
        let (pos, rot) = d.sched_cost_ns(now, &t, false);
        assert_eq!(pos, est.positioning().as_nanos());
        assert_eq!(rot, est.rotation.as_nanos());
        assert_eq!(pos, 0);
    }

    #[test]
    fn service_time_components_are_sane() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 3_000,
            surface: 0,
            angle: 0.0,
            sectors: 16,
        };
        let b = d.begin(SimTime::ZERO, &t, false);
        assert!(b.seek >= SimDuration::from_micros(600));
        assert!(b.seek <= SimDuration::from_micros(10_600));
        assert!(b.rotation <= d.rotation_time());
        assert!(b.transfer > SimDuration::ZERO);
        assert_eq!(d.arm_cylinder(), 3_000);
        assert_eq!(d.busy_until(), SimTime::ZERO + b.total());
    }

    #[test]
    fn same_cylinder_access_has_no_seek() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.5,
            sectors: 1,
        };
        let b = d.begin(SimTime::ZERO, &t, false);
        assert_eq!(b.seek, SimDuration::ZERO);
    }

    #[test]
    fn writes_pay_settle() {
        let d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 500,
            surface: 0,
            angle: 0.0,
            sectors: 1,
        };
        let r = d.estimate(SimTime::ZERO, &t, false);
        let w = d.estimate(SimTime::ZERO, &t, true);
        assert!(w.seek > r.seek);
    }

    #[test]
    fn rotational_wait_depends_on_start_time() {
        let d = disk(TimingPath::Analytic);
        let t = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.5,
            sectors: 1,
        };
        let b1 = d.estimate(SimTime::ZERO, &t, false);
        let b2 = d.estimate(SimTime::from_micros(1_000), &t, false);
        assert_ne!(b1.rotation, b2.rotation);
        // One millisecond later the wait is one millisecond shorter (mod R).
        let diff = b1.rotation.as_micros_f64() - b2.rotation.as_micros_f64();
        assert!((diff - 1_000.0).abs() < 1.0, "diff {diff}");
    }

    #[test]
    fn detailed_and_analytic_agree_closely_on_singles() {
        let dd = disk(TimingPath::Detailed);
        let da = disk(TimingPath::Analytic);
        let t = Target {
            cylinder: 1_234,
            surface: 2,
            angle: 0.3,
            sectors: 1,
        };
        let bd = dd.estimate(SimTime::ZERO, &t, false);
        let ba = da.estimate(SimTime::ZERO, &t, false);
        assert_eq!(bd.seek, ba.seek);
        // Angles agree to within one sector of quantisation (~28 µs).
        let gap = (bd.rotation.as_micros_f64() - ba.rotation.as_micros_f64()).abs();
        assert!(gap < 6_000.0 / 170.0 + 1.0, "gap {gap}us");
    }

    #[test]
    fn long_transfers_cross_tracks_and_pay_switches() {
        let d = disk(TimingPath::Detailed);
        let spt = d.geometry().sectors_per_track(0).unwrap();
        let short = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.0,
            sectors: spt / 2,
        };
        let long = Target {
            cylinder: 0,
            surface: 0,
            angle: 0.0,
            sectors: spt * 2,
        };
        let bs = d.estimate(SimTime::ZERO, &short, false);
        let bl = d.estimate(SimTime::ZERO, &long, false);
        // The long transfer covers 4x the media plus at least one switch.
        assert!(bl.transfer > bs.transfer * 4);
    }

    #[test]
    fn read_ahead_serves_repeat_track_reads_from_buffer() {
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let first = d.begin(SimTime::ZERO, &t, false);
        assert!(first.positioning() > SimDuration::ZERO);
        // Second read of the same track: no positioning at all.
        let again = Target { angle: 0.8, ..t };
        let hit = d.begin(d.busy_until(), &again, false);
        assert_eq!(hit.seek, SimDuration::ZERO);
        assert_eq!(hit.rotation, SimDuration::ZERO);
        assert!(hit.transfer > SimDuration::ZERO);
        // A different track misses the buffer.
        let other = Target { surface: 3, ..t };
        let miss = d.begin(d.busy_until(), &other, false);
        assert!(miss.positioning() > SimDuration::ZERO);
    }

    #[test]
    fn writes_invalidate_the_track_buffer() {
        let mut d = disk(TimingPath::Detailed);
        d.set_read_ahead(true);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let _ = d.begin(d.busy_until(), &t, true); // Write to the track.
        let after = d.begin(d.busy_until(), &t, false);
        assert!(after.positioning() > SimDuration::ZERO, "stale buffer used");
    }

    #[test]
    fn read_ahead_disabled_never_hits() {
        let mut d = disk(TimingPath::Detailed);
        let t = Target {
            cylinder: 500,
            surface: 2,
            angle: 0.3,
            sectors: 16,
        };
        let _ = d.begin(SimTime::ZERO, &t, false);
        let b = d.begin(d.busy_until(), &t, false);
        // Re-reading the just-read sectors costs a near-full revolution.
        assert!(b.rotation > SimDuration::from_millis(4));
    }

    #[test]
    fn tracked_knowledge_produces_rare_misses() {
        let mut d = SimDisk::new(
            &DiskParams::st39133lwv(),
            TimingPath::Detailed,
            PositionKnowledge::Tracked {
                mean_error_us: 3.0,
                std_error_us: 31.0,
            },
            7,
        )
        .unwrap();
        let mut now = SimTime::ZERO;
        let n = 20_000;
        for i in 0..n {
            let t = Target {
                cylinder: (i * 37) % 6_000,
                surface: (i % 12),
                angle: (i as f64 * 0.618).rem_euclid(1.0),
                sectors: 8,
            };
            let b = d.begin(now, &t, false);
            now += b.total();
        }
        let miss_rate = d.rotation_misses() as f64 / n as f64;
        // Random rotational waits average R/2 = 3000us against ~31us errors:
        // misses happen but rarely (Table 2 reports 0.22% under RSATF, which
        // targets much tighter waits; random targets are rarer still).
        assert!(miss_rate < 0.02, "miss rate {miss_rate}");
    }

    #[test]
    fn begin_with_zero_wait_target_can_miss() {
        // A target placed exactly under the head with Tracked knowledge has
        // a ~50% miss chance (any positive "ahead" error overshoots).
        let mut d = SimDisk::new(
            &DiskParams::st39133lwv(),
            TimingPath::Analytic,
            PositionKnowledge::Tracked {
                mean_error_us: 3.0,
                std_error_us: 31.0,
            },
            11,
        )
        .unwrap();
        let mut misses = 0;
        for i in 0..200 {
            let start = SimTime::from_micros(i * 13);
            let angle = d.angle_at(
                start
                    + d.estimate(
                        start,
                        &Target {
                            cylinder: d.arm_cylinder(),
                            surface: 0,
                            angle: 0.0,
                            sectors: 1,
                        },
                        false,
                    )
                    .overhead,
            );
            let t = Target {
                cylinder: d.arm_cylinder(),
                surface: 0,
                angle,
                sectors: 1,
            };
            let b = d.begin(start, &t, false);
            if b.missed_rotation {
                misses += 1;
            }
        }
        assert!(misses > 20, "expected frequent misses, got {misses}");
    }
}
