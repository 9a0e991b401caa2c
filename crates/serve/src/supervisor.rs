//! Graceful degradation for the worker pool (DESIGN.md §12): the
//! in-flight request registry and the supervisor loop that uses it.
//!
//! The registry is the exactly-once mechanism. When a worker takes a
//! batch it *registers* every member (id, response channel, deadline)
//! under its slot; from then on, **whoever removes an entry owns its
//! single answer**. The worker claims each entry as it answers; the
//! supervisor claims entries whose deadline expired (answering
//! `shed:deadline`) or whose worker died (answering
//! `shed:worker_lost`, then respawning the worker). Claims go through
//! one mutex, so a request can never be answered twice — and because a
//! worker registers *before* it can panic on the batch, a request can
//! only go unanswered if the process itself dies.
//!
//! The supervisor detects two failure shapes: **dead** workers (the
//! thread finished while the queue is still serving — only a panic
//! does that) and **wedged** workers (a batch in flight longer than
//! the wedge timeout — e.g. an injected stall; threads cannot be
//! killed, so the supervisor spawns a bounded number of supplemental
//! workers to keep the pool draining while the wedged batch ages out
//! via its deadlines).

use std::sync::mpsc::Sender;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pra_workloads::{Network, Representation};

use crate::protocol::Response;

/// Workload identity of a slot's batch — what [`InflightRegistry::claim_dead`] hands
/// back so the service can evict suspect pooled artifacts.
pub type WorkloadId = (Network, Representation, u64);

/// One registered request: the answer this slot still owes.
#[derive(Debug)]
struct InflightEntry {
    id: u64,
    tx: Sender<Response>,
    deadline: Option<Instant>,
    /// Whether this request negotiated protocol v2 — the only entries
    /// [`InflightRegistry::on_frame`] fans `layer_result` frames to.
    stream: bool,
}

/// One worker's current batch.
#[derive(Debug, Default)]
struct Slot {
    entries: Vec<InflightEntry>,
    workload: Option<WorkloadId>,
    registered: Option<Instant>,
    /// [`InflightRegistry::on_frame`] calls made for this slot, so
    /// tests can pin that v1-only batches make none.
    #[cfg(test)]
    frame_calls: usize,
}

/// The in-flight table: one slot per worker, each holding the requests
/// that worker's current batch still owes answers to.
#[derive(Debug)]
pub struct InflightRegistry {
    slots: Mutex<Vec<Slot>>,
}

/// An entry claimed out of the registry: the claimer now owes exactly
/// one response on `tx`.
#[derive(Debug)]
pub struct Claimed {
    /// The request id the response must echo.
    pub id: u64,
    /// Where the one answer goes.
    pub tx: Sender<Response>,
    /// Whether the request negotiated protocol v2: its terminal
    /// response must be wrapped in a `done` frame. Progress frames are
    /// *not* the claimer's business — they go through
    /// [`InflightRegistry::on_frame`] while the entry is still owed.
    pub stream: bool,
}

impl InflightRegistry {
    /// A registry with `slots` worker slots.
    pub fn new(slots: usize) -> InflightRegistry {
        InflightRegistry { slots: Mutex::new((0..slots).map(|_| Slot::default()).collect()) }
    }

    /// Locks the table, recovering from poisoning: slot contents are
    /// plain data (no invariant spans a critical section), and the
    /// whole point of this module is to keep answering after a panic.
    fn lock(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grows the table to at least `n` slots (supplemental workers).
    pub fn ensure_slots(&self, n: usize) {
        let mut slots = self.lock();
        while slots.len() < n {
            slots.push(Slot::default());
        }
    }

    /// Registers a batch under `slot`: every member the slot now owes
    /// an answer, plus the workload identity for pool eviction if the
    /// worker dies on it. Any leftover entries from a previous batch
    /// are returned for defensive answering (there should be none).
    pub fn begin_batch(
        &self,
        slot: usize,
        workload: WorkloadId,
        members: Vec<(u64, Sender<Response>, Option<Instant>, bool)>,
    ) -> Vec<Claimed> {
        let mut slots = self.lock();
        let Some(s) = slots.get_mut(slot) else { return Vec::new() };
        let stale = std::mem::take(&mut s.entries);
        s.entries = members
            .into_iter()
            .map(|(id, tx, deadline, stream)| InflightEntry { id, tx, deadline, stream })
            .collect();
        s.workload = Some(workload);
        s.registered = Some(Instant::now());
        stale.into_iter().map(|e| Claimed { id: e.id, tx: e.tx, stream: e.stream }).collect()
    }

    /// Claims the answer for `id` in `slot`. `None` means someone else
    /// (the deadline sweep, a reclaim) already answered it.
    pub fn claim(&self, slot: usize, id: u64) -> Option<Claimed> {
        let mut slots = self.lock();
        let s = slots.get_mut(slot)?;
        let at = s.entries.iter().position(|e| e.id == id)?;
        let e = s.entries.swap_remove(at);
        Some(Claimed { id: e.id, tx: e.tx, stream: e.stream })
    }

    /// A layer finished in `slot`'s batch: returns `(id, tx)` for
    /// every still-owed *streaming* entry (a clone of the channel —
    /// the entry stays registered; only the terminal answer claims
    /// it), and pushes every still-owed deadline in the slot out to
    /// `now + extend`. Per-frame deadline extension turns the
    /// per-request deadline into an *inactivity* deadline for v2
    /// batches: a stream that keeps producing frames is alive, however
    /// long the whole network takes, while a wedged one still expires
    /// one extension past its last frame. Entries already claimed (by
    /// the deadline sweep or a reclaim) get no frames — exactly-once
    /// stays with the claimer.
    pub fn on_frame(&self, slot: usize, extend: Option<Duration>) -> Vec<(u64, Sender<Response>)> {
        let mut slots = self.lock();
        let Some(s) = slots.get_mut(slot) else { return Vec::new() };
        #[cfg(test)]
        {
            s.frame_calls += 1;
        }
        if let Some(d) = extend {
            let pushed = Instant::now() + d;
            for e in s.entries.iter_mut() {
                if e.deadline.is_some() {
                    e.deadline = Some(pushed);
                }
            }
        }
        s.entries.iter().filter(|e| e.stream).map(|e| (e.id, e.tx.clone())).collect()
    }

    /// Marks `slot`'s batch finished, returning any entries nobody
    /// claimed so the caller can answer them (defense in depth — the
    /// fan-out claims every member).
    pub fn finish_batch(&self, slot: usize) -> Vec<Claimed> {
        let mut slots = self.lock();
        let Some(s) = slots.get_mut(slot) else { return Vec::new() };
        s.workload = None;
        s.registered = None;
        std::mem::take(&mut s.entries)
            .into_iter()
            .map(|e| Claimed { id: e.id, tx: e.tx, stream: e.stream })
            .collect()
    }

    /// Claims every entry whose deadline expired at `now`, across all
    /// slots — the supervisor answers each `shed:deadline`.
    pub fn claim_expired(&self, now: Instant) -> Vec<Claimed> {
        let mut out = Vec::new();
        let mut slots = self.lock();
        for s in slots.iter_mut() {
            let mut i = 0;
            while i < s.entries.len() {
                if s.entries.get(i).is_some_and(|e| e.deadline.is_some_and(|d| d <= now)) {
                    let e = s.entries.swap_remove(i);
                    out.push(Claimed { id: e.id, tx: e.tx, stream: e.stream });
                } else {
                    i += 1;
                }
            }
        }
        out
    }

    /// Reclaims a dead worker's slot: every still-owed answer plus the
    /// workload identity its batch was running (for pool eviction).
    pub fn claim_dead(&self, slot: usize) -> (Vec<Claimed>, Option<WorkloadId>) {
        let mut slots = self.lock();
        let Some(s) = slots.get_mut(slot) else { return (Vec::new(), None) };
        let workload = s.workload.take();
        s.registered = None;
        let owed = std::mem::take(&mut s.entries)
            .into_iter()
            .map(|e| Claimed { id: e.id, tx: e.tx, stream: e.stream })
            .collect();
        (owed, workload)
    }

    /// How long `slot`'s current batch has been in flight at `now`
    /// (`None` when idle) — the supervisor's wedge signal.
    pub fn in_flight_age(&self, slot: usize, now: Instant) -> Option<Duration> {
        let slots = self.lock();
        let s = slots.get(slot)?;
        if s.entries.is_empty() {
            return None;
        }
        s.registered.map(|r| now.saturating_duration_since(r))
    }

    /// How many times [`InflightRegistry::on_frame`] ran for `slot`.
    #[cfg(test)]
    pub(crate) fn frame_calls(&self, slot: usize) -> usize {
        self.lock().get(slot).map_or(0, |s| s.frame_calls)
    }

    /// Total still-owed answers across every slot.
    pub fn owed(&self) -> usize {
        self.lock().iter().map(|s| s.entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn member(
        id: u64,
        deadline: Option<Instant>,
    ) -> (u64, Sender<Response>, Option<Instant>, bool) {
        let (tx, rx) = channel();
        std::mem::forget(rx);
        (id, tx, deadline, false)
    }

    fn streamer(
        id: u64,
        deadline: Option<Instant>,
    ) -> (u64, Sender<Response>, Option<Instant>, bool) {
        let (tx, rx) = channel();
        std::mem::forget(rx);
        (id, tx, deadline, true)
    }

    const WL: WorkloadId = (Network::AlexNet, Representation::Fixed16, 7);

    #[test]
    fn each_entry_is_claimable_exactly_once() {
        let reg = InflightRegistry::new(2);
        assert!(reg.begin_batch(0, WL, vec![member(1, None), member(2, None)]).is_empty());
        assert_eq!(reg.owed(), 2);
        assert!(reg.claim(0, 1).is_some());
        assert!(reg.claim(0, 1).is_none(), "second claim must lose");
        assert!(reg.claim(1, 2).is_none(), "wrong slot never claims");
        assert!(reg.claim(0, 2).is_some());
        assert!(reg.finish_batch(0).is_empty(), "fan-out claimed everything");
        assert_eq!(reg.owed(), 0);
    }

    #[test]
    fn expiry_sweep_claims_only_expired_entries() {
        let reg = InflightRegistry::new(1);
        let now = Instant::now();
        let _ = reg.begin_batch(
            0,
            WL,
            vec![
                member(1, Some(now - Duration::from_millis(1))),
                member(2, Some(now + Duration::from_secs(60))),
                member(3, None),
            ],
        );
        let expired = reg.claim_expired(now);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 1);
        assert!(reg.claim(0, 1).is_none(), "the sweep owns id 1's answer now");
        assert!(reg.claim(0, 2).is_some());
        assert!(reg.claim(0, 3).is_some());
    }

    #[test]
    fn dead_slot_reclaim_returns_owed_answers_and_workload() {
        let reg = InflightRegistry::new(1);
        let _ = reg.begin_batch(0, WL, vec![member(1, None), member(2, None)]);
        assert!(reg.claim(0, 1).is_some(), "worker answered one before dying");
        let (owed, workload) = reg.claim_dead(0);
        assert_eq!(owed.len(), 1);
        assert_eq!(owed[0].id, 2);
        assert_eq!(workload, Some(WL));
        assert_eq!(reg.owed(), 0);
        assert!(reg.in_flight_age(0, Instant::now()).is_none());
    }

    #[test]
    fn in_flight_age_tracks_registration_and_growth_is_monotonic() {
        let reg = InflightRegistry::new(1);
        assert!(reg.in_flight_age(0, Instant::now()).is_none(), "idle slot has no age");
        let _ = reg.begin_batch(0, WL, vec![member(1, None)]);
        let age = reg.in_flight_age(0, Instant::now() + Duration::from_millis(50));
        assert!(age.is_some_and(|a| a >= Duration::from_millis(50)));
        reg.ensure_slots(4);
        reg.ensure_slots(2);
        assert!(reg.claim(3, 9).is_none(), "new slots start empty");
        let _ = reg.begin_batch(3, WL, vec![member(9, None)]);
        assert!(reg.claim(3, 9).is_some());
    }

    #[test]
    fn frames_fan_out_to_streaming_entries_only_and_extend_deadlines() {
        let reg = InflightRegistry::new(1);
        let _ = reg.begin_batch(0, WL, vec![member(1, None), streamer(2, None), streamer(3, None)]);
        let targets = reg.on_frame(0, None);
        let ids: Vec<u64> = targets.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 3], "v1 members never receive frames");
        assert_eq!(reg.owed(), 3, "frames claim nothing");
        // A claimed entry stops receiving frames: exactly-once stays
        // with whoever claimed the answer.
        let claimed = reg.claim(0, 2).expect("first claim wins");
        assert!(claimed.stream, "claim carries the negotiated version");
        assert!(!reg.claim(0, 1).expect("v1 claim").stream);
        assert_eq!(reg.on_frame(0, None).len(), 1, "only id 3 still streams");
        // Per-frame extension pushes every still-owed deadline out.
        let reg = InflightRegistry::new(1);
        let about_to_expire = Instant::now() + Duration::from_millis(1);
        let _ = reg.begin_batch(0, WL, vec![streamer(7, Some(about_to_expire)), member(8, None)]);
        let _ = reg.on_frame(0, Some(Duration::from_secs(60)));
        let late = Instant::now() + Duration::from_secs(30);
        assert!(reg.claim_expired(late).is_empty(), "frame activity defers the deadline");
        assert!(
            reg.in_flight_age(0, Instant::now()).is_some(),
            "extension leaves the wedge clock alone"
        );
        // Entries with no deadline stay deadline-free after extension.
        assert_eq!(reg.claim_expired(Instant::now() + Duration::from_secs(3600)).len(), 1);
        assert!(reg.claim(0, 8).is_some(), "deadline-free member untouched by the sweep");
    }

    #[test]
    fn stale_entries_surface_on_the_next_begin_batch() {
        let reg = InflightRegistry::new(1);
        let _ = reg.begin_batch(0, WL, vec![member(1, None)]);
        // A (hypothetical) fan-out bug left id 1 unclaimed; the next
        // batch surfaces it instead of leaking it.
        let stale = reg.begin_batch(0, WL, vec![member(2, None)]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].id, 1);
    }
}
