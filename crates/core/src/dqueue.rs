//! An indexed drive queue: slab-allocated pending requests with incremental
//! per-policy indexes, so a scheduling pick costs time proportional to the
//! work it inspects rather than the queue depth.
//!
//! [`crate::sched::pick`] is a scan: every decision touches every queued
//! entry (bounding, heaping), even though arrivals and completions change
//! the queue by one entry at a time. [`DriveQueue`] moves that work to the
//! mutation sites:
//!
//! - Entries live in a **slab** with stable, generation-tagged
//!   [`TaskId`]s; queues and indexes store ids, never moved structs.
//! - **SATF/RSATF** maintain a *cylinder-band index*: every candidate
//!   (entry × replica) is a plain lane record — arrival seq, slot,
//!   cylinder, surface, replica index, write flag, memoised phase and
//!   offset-free base angle — in the vector of its band of `BAND_CYLS`
//!   cylinders, with an occupancy bitmap over the bands. A pick walks
//!   occupied bands outward from the arm, stops once the next band's seek
//!   lower bound exceeds the incumbent's cost, and costs every in-window
//!   lane of each band it visits with
//!   [`SimDisk::sched_cost_at_phase_ns`], folding it into a
//!   `(cost, seq, candidate)` argmin.
//! - **LOOK/RLOOK** maintain a sweep index (`BTreeMap` keyed by cylinder):
//!   the next in-direction cylinder is one ordered lookup.
//! - **FCFS** maintains an arrival-ordered set: the oldest entry is the
//!   first element.
//!
//! Each lane memoises [`SimDisk::sched_phase`] at insert time, so picks
//! never re-quantise an angle. The phase folds in the disk's *mutable*
//! spindle-phase offset, so each band carries an epoch stamp
//! ([`SimDisk::phase_epoch`]); a pick repairs a stale band in place from
//! the lanes' offset-free base angles before costing them — no interior
//! mutability.
//!
//! # Exactness
//!
//! Each indexed pick returns *exactly* the entry and replica that
//! [`crate::sched::pick`] would return on the queue's arrival-order
//! window prefix:
//!
//! - Arrival order is tracked explicitly (`order`, always sorted by a
//!   per-queue monotone sequence number), so the scan's positional
//!   tie-break `(cost, queue index, candidate)` is reproduced as
//!   `(cost, seq, candidate)`.
//! - The winner is the pure `(cost, seq, candidate)` argmin over every
//!   candidate costed, so the band visit order and the lane order within
//!   a band only decide how fast the incumbent tightens, never the
//!   result. Every lane in a band costs at least the band's seek lower
//!   bound, and the walk stops only when that bound *strictly* exceeds
//!   the incumbent's cost (which never rises) — bands are visited in
//!   ascending bound order, so every lane left unvisited would have lost
//!   outright, and equal-cost ties are always costed.
//! - Queues deeper than the scheduling window are masked, not rescanned:
//!   `order` is seq-sorted, so the scan's window prefix is exactly the
//!   lanes with seq below the first out-of-window entry's seq, and the
//!   walk skips the rest. Band bounds hold for every member, so the
//!   windowed argmin is exact too.
//!
//! One situation falls outside the band index's guarantees, and
//! [`DriveQueue::pick`] detects it and falls back to the windowed scan:
//! drives with track read-ahead enabled (a potential buffer hit has
//! positioning bound 0 regardless of seek distance, which breaks
//! band-bound monotonicity). LOOK and FCFS picks on queues deeper than
//! the window also fall back (their indexes span the whole queue).
//!
//! The equivalence tests at the bottom drive randomized queues through
//! both implementations and require identical picks — entry, replica, and
//! sweep-direction side effects — across every policy.

use std::collections::{BTreeMap, BTreeSet};

use mimd_disk::{SimDisk, Target};
use mimd_sim::{SimDuration, SimTime};

use crate::sched::{self, LookState, Policy, Schedulable};

/// Cylinders per band of the SATF band index. Wide bands keep the walk's
/// per-band fixed cost (cursor advance, seek bound, repair check) off the
/// critical path: at typical queue depths a band holds a run of lanes, and
/// the coarser distance prune costs at most one extra band visit per side.
const BAND_CYLS: u32 = 64;

/// A stable handle to a slab-resident task.
///
/// The generation tag makes stale handles harmless: removing a task and
/// reusing its slot bumps the generation, so an old id no longer matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaskId {
    slot: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot<S> {
    task: Option<S>,
    gen: u32,
    seq: u64,
}

/// One SATF/RSATF candidate (entry × replica) in the band index.
#[derive(Debug)]
struct Lane {
    /// Arrival sequence number (the scan's queue-position tie-break key).
    seq: u64,
    slot: u32,
    cylinder: u32,
    surface: u32,
    /// Replica index within the entry's candidates.
    cand: u32,
    write: bool,
    /// Memoised effective target phase ([`SimDisk::sched_phase`]), valid
    /// only while the band's `epoch` matches [`SimDisk::phase_epoch`].
    phase: f64,
    /// Offset-free quantised target angle ([`SimDisk::sched_base_angle`]).
    /// Geometry-pure and immutable, so a stale phase repairs from it
    /// without touching the slab.
    base_angle: f64,
}

/// One cylinder band of the SATF index.
#[derive(Debug, Default)]
struct Band {
    lanes: Vec<Lane>,
    /// [`SimDisk::phase_epoch`] when the band's phases were last known
    /// fresh. One stamp covers the whole band: re-folding a phase from its
    /// base angle is idempotent, so a stale stamp triggers one whole-band
    /// repair pass and a fresh one is a single compare. A lane pushed into
    /// a stale band is re-folded redundantly on the next repair, which
    /// reproduces the same value.
    epoch: u32,
}

/// A drive queue with incremental per-policy indexes. See the module docs.
#[derive(Debug)]
pub struct DriveQueue<S: Schedulable> {
    policy: Policy,
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    /// Live ids in arrival order (ascending `seq`).
    order: Vec<TaskId>,
    next_seq: u64,
    /// SATF/RSATF: per-band candidate lanes, grown on demand to cover the
    /// highest cylinder seen.
    bands: Vec<Band>,
    /// One bit per band: set iff the band's lanes are non-empty.
    band_bits: Vec<u64>,
    /// LOOK/RLOOK: cylinder → (enqueued ns, seq, slot) of primary targets.
    sweep: BTreeMap<u32, BTreeSet<(u64, u64, u32)>>,
    /// FCFS: (enqueued ns, seq, slot), oldest first.
    fcfs: BTreeSet<(u64, u64, u32)>,
}

impl<S: Schedulable> DriveQueue<S> {
    /// Creates an empty queue indexed for `policy`.
    pub fn new(policy: Policy) -> Self {
        DriveQueue {
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            next_seq: 0,
            bands: Vec::new(),
            band_bits: Vec::new(),
            sweep: BTreeMap::new(),
            fcfs: BTreeSet::new(),
        }
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The task behind `id`, if it is still queued.
    pub fn get(&self, id: TaskId) -> Option<&S> {
        let s = self.slots.get(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        s.task.as_ref()
    }

    /// Live ids in arrival order.
    pub fn ids(&self) -> &[TaskId] {
        &self.order
    }

    /// Drops every queued task, invalidating all outstanding ids while
    /// keeping the queue's allocations for reuse.
    pub fn clear(&mut self) {
        for id in self.order.drain(..) {
            let s = &mut self.slots[id.slot as usize];
            s.task = None;
            s.gen = s.gen.wrapping_add(1);
            self.free.push(id.slot);
        }
        for band in &mut self.bands {
            band.lanes.clear();
        }
        self.band_bits.fill(0);
        self.sweep.clear();
        self.fcfs.clear();
    }

    /// Inserts a task at the back of the arrival order.
    ///
    /// `disk` is the drive this queue schedules for: the SATF index
    /// memoises each candidate's effective target phase (and its
    /// offset-free base angle) at insert time, so picks never re-quantise.
    pub fn insert(&mut self, disk: &SimDisk, task: S) -> TaskId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    task: None,
                    gen: 0,
                    seq: 0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let sref = &mut self.slots[slot as usize];
        sref.task = Some(task);
        sref.seq = seq;
        let id = TaskId {
            slot,
            gen: sref.gen,
        };
        self.order.push(id);
        self.index_insert(disk, id, seq);
        id
    }

    /// Removes and returns the task behind `id`; `None` if the id is stale.
    pub fn remove(&mut self, id: TaskId) -> Option<S> {
        let s = self.slots.get(id.slot as usize)?;
        if s.gen != id.gen || s.task.is_none() {
            return None;
        }
        let seq = s.seq;
        mimd_sim::sim_invariant!(
            self.order.len() < 2
                || self.order.windows(2).all(
                    |w| self.slots[w[0].slot as usize].seq < self.slots[w[1].slot as usize].seq
                ),
            "drive-queue arrival order out of seq order"
        );
        // `order` is sorted by seq, so the position is a binary search.
        let pos = self
            .order
            .binary_search_by_key(&seq, |i| self.slots[i.slot as usize].seq)
            .ok()?;
        self.index_remove(id, seq);
        self.order.remove(pos);
        let sref = &mut self.slots[id.slot as usize];
        sref.gen = sref.gen.wrapping_add(1);
        self.free.push(id.slot);
        sref.task.take()
    }

    /// Mutates the task behind `id` in place, keeping its arrival position,
    /// and re-indexes it (targets and enqueued time may have changed).
    /// Returns whether the id was live.
    pub fn replace_with(&mut self, disk: &SimDisk, id: TaskId, f: impl FnOnce(&mut S)) -> bool {
        let Some(s) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if s.gen != id.gen || s.task.is_none() {
            return false;
        }
        let seq = s.seq;
        self.index_remove(id, seq);
        if let Some(task) = self.slots[id.slot as usize].task.as_mut() {
            f(task);
        }
        self.index_insert(disk, id, seq);
        true
    }

    /// Picks the next task for an idle disk exactly as
    /// [`crate::sched::pick`] would on the arrival-order prefix of at most
    /// `window` entries, returning the winning id and replica index.
    ///
    /// SATF/RSATF use the band index at any depth (entries past the
    /// window are masked out of the argmin by sequence number) unless the
    /// drive's read-ahead buffer is on, which breaks the index's bound
    /// monotonicity and falls back to the windowed scan. LOOK and FCFS use
    /// their indexes when the whole queue fits in the window and fall back
    /// otherwise.
    ///
    /// Takes `&mut self` only for phase-memo repair; the logical queue
    /// state is unchanged.
    pub fn pick(
        &mut self,
        disk: &SimDisk,
        now: SimTime,
        look: &mut LookState,
        slack: SimDuration,
        window: usize,
    ) -> Option<(TaskId, usize)> {
        if self.order.is_empty() {
            return None;
        }
        match self.policy {
            Policy::Satf | Policy::Rsatf => {
                if disk.read_ahead_enabled() {
                    self.pick_scan(disk, now, look, slack, window)
                } else {
                    self.pick_satf(disk, now, slack, window)
                }
            }
            _ if self.order.len() > window => self.pick_scan(disk, now, look, slack, window),
            Policy::Fcfs => self.pick_fcfs(disk, now, slack),
            Policy::Look | Policy::Rlook => self.pick_look(disk, now, look, slack),
        }
    }

    /// The fallback: materialise the window prefix and run the scan.
    fn pick_scan(
        &self,
        disk: &SimDisk,
        now: SimTime,
        look: &mut LookState,
        slack: SimDuration,
        window: usize,
    ) -> Option<(TaskId, usize)> {
        let window = window.min(self.order.len());
        let refs: Vec<&S> = self.order[..window]
            .iter()
            .map(|&id| {
                self.slots[id.slot as usize]
                    .task
                    .as_ref()
                    .expect("order holds live ids") // simlint: allow(panic) — queue invariant
            })
            .collect();
        let p = sched::pick(self.policy, disk, now, &refs, look, slack)?;
        Some((self.order[p.queue_index], p.candidate))
    }

    fn pick_fcfs(
        &self,
        disk: &SimDisk,
        now: SimTime,
        slack: SimDuration,
    ) -> Option<(TaskId, usize)> {
        let &(_, seq, slot) = self.fcfs.iter().next()?;
        let id = self.id_at(slot, seq)?;
        let task = self.get(id)?;
        Some((id, sched::best_candidate(disk, now, task, true, slack)))
    }

    fn pick_look(
        &self,
        disk: &SimDisk,
        now: SimTime,
        look: &mut LookState,
        slack: SimDuration,
    ) -> Option<(TaskId, usize)> {
        let head = disk.arm_cylinder();
        let aware = self.policy.replica_aware();
        // One flip allowed, exactly like the scan's end-of-stroke turn.
        for _ in 0..2 {
            let hit = if look.upward {
                self.sweep.range(head..).next()
            } else {
                self.sweep.range(..=head).next_back()
            };
            if let Some((_, set)) = hit {
                let &(_, seq, slot) = set.iter().next()?;
                let id = self.id_at(slot, seq)?;
                let task = self.get(id)?;
                return Some((id, sched::best_candidate(disk, now, task, aware, slack)));
            }
            look.upward = !look.upward;
        }
        None
    }

    fn pick_satf(
        &mut self,
        disk: &SimDisk,
        now: SimTime,
        slack: SimDuration,
        window: usize,
    ) -> Option<(TaskId, usize)> {
        // The scan only sees the arrival-order window prefix. `order` is
        // seq-sorted, so that prefix is exactly the lanes with seq below
        // the first out-of-window entry's seq; lanes at or past the cutoff
        // stay in the index but are skipped.
        let cutoff = if self.order.len() > window {
            self.slots[self.order[window].slot as usize].seq
        } else {
            u64::MAX
        };
        let arm = disk.arm_cylinder();
        let arm_band = (arm / BAND_CYLS) as usize;
        let slack_ns = slack.as_nanos();
        let epoch = disk.phase_epoch();
        // (cost, seq, cand, slot) of the incumbent.
        let mut best: Option<(u64, u64, u32, u32)> = None;
        // Walk outward, nearer cursor first; ties go upward, so the arm's
        // own band (distance 0) goes first.
        let mut up = self.next_band_at_or_above(arm_band);
        let mut down = arm_band
            .checked_sub(1)
            .and_then(|b| self.next_band_at_or_below(b));
        while up.is_some() || down.is_some() {
            let du = up.map_or(u32::MAX, |b| band_min_dist(b, arm));
            let dd = down.map_or(u32::MAX, |b| band_min_dist(b, arm));
            let is_up = du <= dd;
            let (band, dist) = if is_up {
                (up.unwrap_or_default(), du)
            } else {
                (down.unwrap_or_default(), dd)
            };
            if best.is_some_and(|(c, ..)| disk.seek_bound_ns(dist) > c) {
                // Every remaining band on this side is at least as far, and
                // the other cursor (if live) is farther still: done.
                break;
            }
            self.repair_band(disk, epoch, band);
            for l in &self.bands[band].lanes {
                if l.seq >= cutoff {
                    continue;
                }
                // Costing at a supplied phase reads only the track.
                let t = Target {
                    cylinder: l.cylinder,
                    surface: l.surface,
                    angle: l.base_angle,
                    sectors: 0,
                };
                let (pos, rot) = disk.sched_cost_at_phase_ns(now, &t, l.write, l.phase);
                let cost = pos + u64::from(rot < slack_ns) * disk.rotation_ns();
                if best.is_none_or(|b| (cost, l.seq, l.cand) < (b.0, b.1, b.2)) {
                    best = Some((cost, l.seq, l.cand, l.slot));
                }
            }
            if is_up {
                up = self.next_band_at_or_above(band + 1);
            } else {
                down = band
                    .checked_sub(1)
                    .and_then(|b| self.next_band_at_or_below(b));
            }
        }
        let (_, seq, cand, slot) = best?;
        let id = self.id_at(slot, seq)?;
        Some((id, cand as usize))
    }

    /// Repairs a band stamped under an older spindle-phase epoch: re-folds
    /// the current offset into every lane's immutable base angle. A no-op
    /// (one compare) unless `set_phase_offset` ran since the band's phases
    /// were last known fresh. Re-folding is idempotent, so repairing lanes
    /// that were already fresh reproduces their phases exactly.
    fn repair_band(&mut self, disk: &SimDisk, epoch: u32, band: usize) {
        let band = &mut self.bands[band];
        if band.epoch == epoch {
            return;
        }
        for l in &mut band.lanes {
            l.phase = disk.phase_of_angle(l.base_angle);
        }
        band.epoch = epoch;
    }

    fn next_band_at_or_above(&self, from: usize) -> Option<usize> {
        let nwords = self.band_bits.len();
        let (mut w, bit) = (from / 64, from % 64);
        if w >= nwords {
            return None;
        }
        let mut word = self.band_bits[w] & (!0u64 << bit);
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= nwords {
                return None;
            }
            word = self.band_bits[w];
        }
    }

    fn next_band_at_or_below(&self, from: usize) -> Option<usize> {
        let from = from.min((self.band_bits.len() * 64).checked_sub(1)?);
        let (mut w, bit) = (from / 64, from % 64);
        let mask = if bit == 63 {
            !0u64
        } else {
            (1u64 << (bit + 1)) - 1
        };
        let mut word = self.band_bits[w] & mask;
        loop {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            word = self.band_bits[w];
        }
    }

    fn id_at(&self, slot: u32, seq: u64) -> Option<TaskId> {
        let s = self.slots.get(slot as usize)?;
        if s.seq != seq || s.task.is_none() {
            return None;
        }
        Some(TaskId { slot, gen: s.gen })
    }

    fn index_insert(&mut self, disk: &SimDisk, id: TaskId, seq: u64) {
        // Move the task out of its slot for the duration: the index
        // structures and the slab are both `self`, and a by-value move is
        // free (no clone) while keeping borrows disjoint and the hot path
        // allocation-free.
        let Some(task) = self.slots[id.slot as usize].task.take() else {
            return;
        };
        match self.policy {
            Policy::Fcfs => {
                self.fcfs.insert((task.enqueued().as_nanos(), seq, id.slot));
            }
            Policy::Look | Policy::Rlook => {
                let cyl = task.candidates()[0].cylinder;
                let enq = task.enqueued().as_nanos();
                let slot = id.slot;
                self.sweep.entry(cyl).or_default().insert((enq, seq, slot));
            }
            Policy::Satf | Policy::Rsatf => {
                let write = task.is_write();
                let epoch = disk.phase_epoch();
                let limit = if self.policy.replica_aware() {
                    task.candidates().len()
                } else {
                    1
                };
                for (c, t) in task.candidates().iter().take(limit).enumerate() {
                    let band = (t.cylinder / BAND_CYLS) as usize;
                    if band >= self.bands.len() {
                        self.bands.resize_with(band + 1, Band::default);
                        self.band_bits.resize(self.bands.len().div_ceil(64), 0);
                    }
                    let base_angle = disk.sched_base_angle(t);
                    let b = &mut self.bands[band];
                    if b.lanes.is_empty() {
                        b.epoch = epoch;
                    }
                    b.lanes.push(Lane {
                        seq,
                        slot: id.slot,
                        cylinder: t.cylinder,
                        surface: t.surface,
                        cand: c as u32,
                        write,
                        phase: disk.phase_of_angle(base_angle),
                        base_angle,
                    });
                    self.band_bits[band / 64] |= 1 << (band % 64);
                }
            }
        }
        self.slots[id.slot as usize].task = Some(task);
    }

    fn index_remove(&mut self, id: TaskId, seq: u64) {
        let Some(task) = self.slots[id.slot as usize].task.take() else {
            return;
        };
        match self.policy {
            Policy::Fcfs => {
                self.fcfs
                    .remove(&(task.enqueued().as_nanos(), seq, id.slot));
            }
            Policy::Look | Policy::Rlook => {
                let cyl = task.candidates()[0].cylinder;
                let enq = task.enqueued().as_nanos();
                if let Some(set) = self.sweep.get_mut(&cyl) {
                    set.remove(&(enq, seq, id.slot));
                    if set.is_empty() {
                        self.sweep.remove(&cyl);
                    }
                }
            }
            Policy::Satf | Policy::Rsatf => {
                let limit = if self.policy.replica_aware() {
                    task.candidates().len()
                } else {
                    1
                };
                for t in task.candidates().iter().take(limit) {
                    let band = (t.cylinder / BAND_CYLS) as usize;
                    let lanes = &mut self.bands[band].lanes;
                    // `seq` alone identifies the entry; each loop pass
                    // removes one of its lanes in this band, so entries
                    // with several replicas in one band drain fully.
                    if let Some(at) = lanes.iter().position(|l| l.seq == seq) {
                        lanes.swap_remove(at);
                    }
                    if lanes.is_empty() {
                        self.band_bits[band / 64] &= !(1 << (band % 64));
                    }
                }
            }
        }
        self.slots[id.slot as usize].task = Some(task);
    }
}

/// Cylinder distance from `arm` to the nearest cylinder of `band`.
fn band_min_dist(band: usize, arm: u32) -> u32 {
    let lo = band as u32 * BAND_CYLS;
    let hi = lo + (BAND_CYLS - 1);
    if arm < lo {
        lo - arm
    } else {
        arm.saturating_sub(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_disk::{DiskParams, PositionKnowledge, Target, TimingPath};
    use mimd_sim::SimRng;

    #[derive(Debug, Clone)]
    struct Entry {
        candidates: Vec<Target>,
        write: bool,
        at: SimTime,
    }

    impl Schedulable for Entry {
        fn candidates(&self) -> &[Target] {
            &self.candidates
        }
        fn is_write(&self) -> bool {
            self.write
        }
        fn enqueued(&self) -> SimTime {
            self.at
        }
    }

    fn disk() -> SimDisk {
        disk_with(&DiskParams::st39133lwv())
    }

    fn disk_with(params: &DiskParams) -> SimDisk {
        SimDisk::new(params, TimingPath::Detailed, PositionKnowledge::Perfect, 7).unwrap()
    }

    /// A random entry of 1–4 candidates on `d`, surfaces drawn from the
    /// disk's full range. About one candidate in eight sits on the arm's
    /// cylinder on another surface, so the zero-distance head switch (and,
    /// for writes, its settle) is costed too.
    fn random_entry(rng: &mut SimRng, d: &SimDisk, max_at_us: u64) -> Entry {
        let cyls = u64::from(d.geometry().total_cylinders());
        let surfaces = d.geometry().surfaces();
        let dr = 1 + rng.below(4) as usize;
        Entry {
            candidates: (0..dr)
                .map(|_| {
                    let (cylinder, surface) = if rng.below(8) == 0 {
                        let hop = 1 + rng.below(u64::from(surfaces - 1)) as u32;
                        (d.arm_cylinder(), (d.arm_surface() + hop) % surfaces)
                    } else {
                        let s = rng.below(u64::from(surfaces)) as u32;
                        (rng.below(cyls) as u32, s)
                    };
                    Target {
                        cylinder,
                        surface,
                        angle: rng.unit(),
                        sectors: 8,
                    }
                })
                .collect(),
            write: rng.below(4) == 0,
            at: SimTime::from_micros(rng.below(max_at_us.max(1))),
        }
    }

    /// Every lane of the band index must mirror the queue contents, and
    /// every phase in a band stamped with the current epoch must equal the
    /// disk's own `sched_phase` of its target.
    fn check_index(dq: &DriveQueue<Entry>, d: &SimDisk, mirror: &[Entry], ids: &[TaskId]) {
        if !matches!(dq.policy, Policy::Satf | Policy::Rsatf) {
            return;
        }
        // (band, seq, slot, cand, cyl, surface, write, phase bits)
        type Row = (usize, u64, u32, u32, u32, u32, bool, u64);
        let mut want: Vec<Row> = Vec::new();
        for (i, e) in mirror.iter().enumerate() {
            let id = ids[i];
            let seq = dq.slots[id.slot as usize].seq;
            let limit = if dq.policy.replica_aware() {
                e.candidates.len()
            } else {
                1
            };
            for (c, t) in e.candidates.iter().take(limit).enumerate() {
                want.push((
                    (t.cylinder / BAND_CYLS) as usize,
                    seq,
                    id.slot,
                    c as u32,
                    t.cylinder,
                    t.surface,
                    e.write,
                    d.sched_phase(t).to_bits(),
                ));
            }
        }
        let mut got: Vec<Row> = Vec::new();
        let epoch = d.phase_epoch();
        for (b, band) in dq.bands.iter().enumerate() {
            let bit = dq.band_bits[b / 64] & (1 << (b % 64)) != 0;
            assert_eq!(bit, !band.lanes.is_empty(), "band bit desync at {b}");
            for l in &band.lanes {
                // A current-epoch band's phases must already be the
                // repaired values; a stale band repairs from base angles.
                let phase = if band.epoch == epoch {
                    l.phase
                } else {
                    d.phase_of_angle(l.base_angle)
                };
                got.push((
                    b,
                    l.seq,
                    l.slot,
                    l.cand,
                    l.cylinder,
                    l.surface,
                    l.write,
                    phase.to_bits(),
                ));
            }
        }
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "band index desynced");
    }

    /// The load-bearing equivalence property: on every randomized queue —
    /// built through interleaved inserts, removals, and in-place updates —
    /// the indexed pick must equal the windowed scan of `sched::pick`:
    /// same entry, same replica, same sweep-direction side effect. The
    /// spindle runs at a non-zero phase offset, and a second drive has 300
    /// surfaces, more than fit in a byte.
    #[test]
    fn indexed_pick_matches_scan_on_randomized_queues() {
        let many_heads = DiskParams {
            surfaces: 300,
            ..DiskParams::st39133lwv()
        };
        let policies = [
            Policy::Fcfs,
            Policy::Look,
            Policy::Satf,
            Policy::Rlook,
            Policy::Rsatf,
        ];
        mimd_sim::check::check_cases("indexed pick equals scan", 40, |case, rng| {
            let mut d = if case % 2 == 0 {
                disk()
            } else {
                disk_with(&many_heads)
            };
            d.set_phase_offset(0.05 + 0.9 * rng.unit());
            // Move the head somewhere interesting.
            let park = Target {
                cylinder: rng.below(u64::from(d.geometry().total_cylinders())) as u32,
                surface: rng.below(u64::from(d.geometry().surfaces())) as u32,
                angle: rng.unit(),
                sectors: 8,
            };
            let _ = d.begin(SimTime::ZERO, &park, false);
            let now = d.busy_until();
            let slack = if case % 3 == 0 {
                SimDuration::from_micros(rng.below(2_000))
            } else {
                SimDuration::ZERO
            };
            // A small window sometimes, to exercise the fallback boundary.
            let window = if case % 4 == 0 { 8 } else { 128 };
            for policy in policies {
                let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                let mut mirror: Vec<Entry> = Vec::new();
                let mut ids: Vec<TaskId> = Vec::new();
                let upward = rng.below(2) == 0;
                let mut look_dq = LookState::default();
                let mut look_scan = LookState::default();
                look_dq.upward = upward;
                look_scan.upward = upward;
                for step in 0..60 {
                    match rng.below(10) {
                        // Mostly inserts so queues get deep.
                        0..=5 => {
                            let e = random_entry(rng, &d, 1 + step * 10);
                            ids.push(dq.insert(&d, e.clone()));
                            mirror.push(e);
                            check_index(&dq, &d, &mirror, &ids);
                        }
                        6 => {
                            if !mirror.is_empty() {
                                let at = rng.below(mirror.len() as u64) as usize;
                                let got = dq.remove(ids.remove(at));
                                mirror.remove(at);
                                assert!(got.is_some(), "live id must remove");
                                check_index(&dq, &d, &mirror, &ids);
                            }
                        }
                        7 => {
                            // Coalesce-style in-place update: new targets and
                            // enqueued time, same arrival position.
                            if !mirror.is_empty() {
                                let at = rng.below(mirror.len() as u64) as usize;
                                let e = random_entry(rng, &d, 1 + step * 10);
                                let ok = dq.replace_with(&d, ids[at], |t| {
                                    t.candidates = e.candidates.clone();
                                    t.write = e.write;
                                    t.at = e.at;
                                });
                                assert!(ok);
                                mirror[at] = e;
                                check_index(&dq, &d, &mirror, &ids);
                            }
                        }
                        _ => {
                            let w = window.min(mirror.len());
                            let want =
                                sched::pick(policy, &d, now, &mirror[..w], &mut look_scan, slack)
                                    .map(|p| (ids[p.queue_index], p.candidate));
                            let got = dq.pick(&d, now, &mut look_dq, slack, window);
                            assert_eq!(
                                got,
                                want,
                                "policy {policy}, step {step}, depth {}",
                                mirror.len()
                            );
                            assert_eq!(look_dq.upward, look_scan.upward, "sweep diverged");
                        }
                    }
                }
                // Drain by repeated pick+remove: full agreement to empty.
                loop {
                    let w = window.min(mirror.len());
                    let want = sched::pick(policy, &d, now, &mirror[..w], &mut look_scan, slack)
                        .map(|p| (p.queue_index, p.candidate));
                    let got = dq.pick(&d, now, &mut look_dq, slack, window);
                    match (got, want) {
                        (None, None) => break,
                        (Some((id, c)), Some((qi, wc))) => {
                            assert_eq!((id, c), (ids[qi], wc), "drain diverged ({policy})");
                            assert!(dq.remove(id).is_some());
                            ids.remove(qi);
                            mirror.remove(qi);
                        }
                        (g, w) => panic!("presence diverged ({policy}): {g:?} vs {w:?}"),
                    }
                }
                assert!(dq.is_empty());
            }
        });
    }

    /// Read-ahead drives must take the fallback path (a potential buffer
    /// hit has bound 0 at any distance) and still agree with the scan.
    #[test]
    fn read_ahead_falls_back_and_matches() {
        let mut d = disk();
        d.set_read_ahead(true);
        let warm = Target {
            cylinder: 1_234,
            surface: 2,
            angle: 0.3,
            sectors: 8,
        };
        let _ = d.begin(SimTime::ZERO, &warm, false);
        let now = d.busy_until();
        let mut rng = SimRng::seed_from(0xAB5);
        for policy in [Policy::Satf, Policy::Rsatf] {
            let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
            let mut mirror = Vec::new();
            let mut ids = Vec::new();
            for _ in 0..24 {
                let mut e = random_entry(&mut rng, &d, 50);
                // Make some candidates buffered-track hits.
                if rng.below(3) == 0 {
                    e.candidates[0] = warm;
                    e.write = false;
                }
                ids.push(dq.insert(&d, e.clone()));
                mirror.push(e);
            }
            let mut look_a = LookState::default();
            let mut look_b = LookState::default();
            let want = sched::pick(policy, &d, now, &mirror, &mut look_b, SimDuration::ZERO)
                .map(|p| (ids[p.queue_index], p.candidate));
            let got = dq.pick(&d, now, &mut look_a, SimDuration::ZERO, 128);
            assert_eq!(got, want, "{policy}");
        }
    }

    /// A spindle-phase change must invalidate every memoised `sched_phase`:
    /// pick once (warming the per-candidate phase memos), shift the phase
    /// offset, then require the next indexed pick to agree with a fresh
    /// scan of the same queue. Without the epoch stamp the warm memos
    /// would survive `set_phase_offset` and the rotational prune (and the
    /// candidate costs themselves) would run on phases from the old
    /// spindle alignment.
    #[test]
    fn phase_memo_never_survives_spindle_phase_change() {
        let cyls = DiskParams::st39133lwv().total_cylinders();
        mimd_sim::check::check_cases("phase memo respects epoch", 24, |_case, rng| {
            for policy in [Policy::Satf, Policy::Rsatf] {
                let mut d = disk();
                let park = Target {
                    cylinder: rng.below(cyls as u64) as u32,
                    surface: 0,
                    angle: rng.unit(),
                    sectors: 8,
                };
                let _ = d.begin(SimTime::ZERO, &park, false);
                let now = d.busy_until();
                let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                let mut mirror = Vec::new();
                let mut ids = Vec::new();
                for _ in 0..32 {
                    let e = random_entry(rng, &d, 50);
                    ids.push(dq.insert(&d, e.clone()));
                    mirror.push(e);
                }
                let mut look_a = LookState::default();
                let mut look_b = LookState::default();
                // Warm the memos under the initial spindle alignment.
                let _ = dq.pick(&d, now, &mut look_a, SimDuration::ZERO, 128);
                // Re-align the spindle; every memoised phase is now wrong.
                d.set_phase_offset(0.125 + rng.unit() * 0.75);
                let want = sched::pick(policy, &d, now, &mirror, &mut look_b, SimDuration::ZERO)
                    .map(|p| (ids[p.queue_index], p.candidate));
                let got = dq.pick(&d, now, &mut look_a, SimDuration::ZERO, 128);
                assert_eq!(got, want, "{policy}: stale phase memo changed the pick");
            }
        });
    }

    /// `clear` must leave the index as if freshly built: no lanes and no
    /// band bits, so a shallow refill still picks like the scan.
    #[test]
    fn clear_then_refill_keeps_the_index_exact() {
        mimd_sim::check::check_cases("clear then refill", 8, |_case, rng| {
            for policy in [Policy::Satf, Policy::Rsatf] {
                let d = disk();
                let now = d.busy_until();
                let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                let deep: Vec<Entry> = (0..40).map(|_| random_entry(rng, &d, 50)).collect();
                let old: Vec<TaskId> = deep.iter().map(|e| dq.insert(&d, e.clone())).collect();
                check_index(&dq, &d, &deep, &old);
                dq.clear();
                assert!(dq.is_empty());
                assert!(old.iter().all(|&id| dq.get(id).is_none()));
                check_index(&dq, &d, &[], &[]);
                let mut mirror: Vec<Entry> = (0..4).map(|_| random_entry(rng, &d, 50)).collect();
                let mut ids: Vec<TaskId> =
                    mirror.iter().map(|e| dq.insert(&d, e.clone())).collect();
                check_index(&dq, &d, &mirror, &ids);
                while !mirror.is_empty() {
                    let mut look_a = LookState::default();
                    let mut look_b = LookState::default();
                    let want =
                        sched::pick(policy, &d, now, &mirror, &mut look_b, SimDuration::ZERO)
                            .map(|p| (ids[p.queue_index], p.candidate));
                    let got = dq.pick(&d, now, &mut look_a, SimDuration::ZERO, 128);
                    assert_eq!(got, want, "{policy}");
                    let (id, _) = got.expect("non-empty queue must pick");
                    let at = ids
                        .iter()
                        .position(|&x| x == id)
                        .expect("picked id is live");
                    assert!(dq.remove(id).is_some());
                    ids.remove(at);
                    mirror.remove(at);
                    check_index(&dq, &d, &mirror, &ids);
                }
            }
        });
    }

    #[test]
    fn stale_ids_are_inert() {
        let d = disk();
        let mut dq: DriveQueue<Entry> = DriveQueue::new(Policy::Rsatf);
        let e = Entry {
            candidates: vec![Target {
                cylinder: 5,
                surface: 0,
                angle: 0.5,
                sectors: 8,
            }],
            write: false,
            at: SimTime::ZERO,
        };
        let id = dq.insert(&d, e.clone());
        assert!(dq.remove(id).is_some());
        // Double-remove is a no-op, and a recycled slot gets a fresh gen.
        assert!(dq.remove(id).is_none());
        assert!(!dq.replace_with(&d, id, |_| {}));
        let id2 = dq.insert(&d, e);
        assert_eq!(id2.slot, id.slot, "slot is recycled");
        assert_ne!(id2.gen, id.gen, "generation advances");
        assert!(dq.get(id).is_none());
        assert!(dq.get(id2).is_some());
    }

    #[test]
    fn arrival_order_survives_middle_removals() {
        let d = disk();
        let mut dq: DriveQueue<Entry> = DriveQueue::new(Policy::Fcfs);
        let mk = |at: u64| Entry {
            candidates: vec![Target {
                cylinder: 1,
                surface: 0,
                angle: 0.1,
                sectors: 8,
            }],
            write: false,
            at: SimTime::from_micros(at),
        };
        let a = dq.insert(&d, mk(3));
        let b = dq.insert(&d, mk(1));
        let c = dq.insert(&d, mk(2));
        assert_eq!(dq.ids(), &[a, b, c]);
        assert!(dq.remove(b).is_some());
        assert_eq!(dq.ids(), &[a, c]);
        let d2 = dq.insert(&d, mk(0));
        assert_eq!(dq.ids(), &[a, c, d2]);
        assert_eq!(dq.len(), 3);
    }

    /// Exhaustive band-run equivalence at fixed depths, including depths
    /// beyond the 128-entry scheduling window: the banded SATF pick masks
    /// out-of-window lanes by sequence number instead of falling back to
    /// the scan, and must still agree with the windowed scan on every
    /// drain step down to empty.
    #[test]
    fn banded_pick_matches_windowed_scan_at_fixed_depths() {
        let cyls = DiskParams::st39133lwv().total_cylinders();
        const WINDOW: usize = 128;
        mimd_sim::check::check_cases("banded pick at fixed depths", 6, |case, rng| {
            for depth in [4usize, 16, 64, 256] {
                for policy in [Policy::Satf, Policy::Rsatf] {
                    let mut d = disk();
                    let park = Target {
                        cylinder: rng.below(cyls as u64) as u32,
                        surface: 0,
                        angle: rng.unit(),
                        sectors: 8,
                    };
                    let _ = d.begin(SimTime::ZERO, &park, false);
                    let now = d.busy_until();
                    let slack = if case % 2 == 0 {
                        SimDuration::from_micros(500)
                    } else {
                        SimDuration::ZERO
                    };
                    let mut dq: DriveQueue<Entry> = DriveQueue::new(policy);
                    let mut mirror: Vec<Entry> = Vec::new();
                    let mut ids: Vec<TaskId> = Vec::new();
                    for _ in 0..depth {
                        let e = random_entry(rng, &d, 50);
                        ids.push(dq.insert(&d, e.clone()));
                        mirror.push(e);
                    }
                    // Drain to empty: the queue crosses the window boundary
                    // mid-drain at depth 256, so both the masked and the
                    // unmasked argmin paths are exercised.
                    while !mirror.is_empty() {
                        let w = WINDOW.min(mirror.len());
                        let mut look_a = LookState::default();
                        let mut look_b = LookState::default();
                        let want = sched::pick(policy, &d, now, &mirror[..w], &mut look_b, slack)
                            .map(|p| (ids[p.queue_index], p.candidate));
                        let got = dq.pick(&d, now, &mut look_a, slack, WINDOW);
                        assert_eq!(got, want, "{policy} depth {depth}");
                        let (id, _) = got.expect("non-empty queue must pick");
                        let at = ids
                            .iter()
                            .position(|&x| x == id)
                            .expect("picked id is live");
                        assert!(dq.remove(id).is_some());
                        ids.remove(at);
                        mirror.remove(at);
                    }
                }
            }
        });
    }
}
