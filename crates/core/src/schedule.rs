//! Layer-scoped scheduling pipeline: encode once, schedule each brick
//! once.
//!
//! The naive simulator re-fetches and re-schedules the *same* input brick
//! once per overlapping convolution window — a K×K-fold duplication of the
//! most expensive inner loop (9× for 3×3 kernels, before counting the
//! window overlap along `x` inside a pallet). Two observations remove the
//! duplication entirely:
//!
//! 1. Trimming (§V-F) and term encoding (oneffset or CSD) are per-neuron
//!    and layer-uniform, so every neuron can be encoded **exactly once**
//!    into a flat mask buffer ([`EncodedLayer`]) instead of per fetch.
//! 2. A [`ColumnSchedule`] is a pure function of the brick's encoded
//!    masks and the [`SchedulerConfig`] — nothing else. Every window and
//!    pallet that touches an input brick therefore sees the *same*
//!    schedule, so one memo entry per brick ([`LayerScheduler`]) turns
//!    every repeat visit into an O(1) lookup.
//!
//! The memo is filled lazily with one atomic slot per brick: the packed
//! `(cycles, terms)` pair is deterministic, so racing writers under
//! pallet-level parallelism store identical values and the race is
//! benign — no locks anywhere on the hot path, and zero heap allocations
//! per brick step (both buffers are sized once per layer).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pra_fixed::csd;
use pra_tensor::brick::BrickRef;
use pra_tensor::{Dim3, Tensor3, BRICK};

use crate::column::{schedule_brick_with, ColumnSchedule, SchedulerConfig};
use crate::config::{Encoding, EncodingKey};

/// The per-layer flat mask buffer: every neuron trimmed and encoded
/// exactly once, stored brick-contiguously (ragged channel tails are
/// zero-padded to whole bricks) so a brick's 16 lane masks are one
/// contiguous slice.
#[derive(Debug)]
pub struct EncodedLayer {
    dim: Dim3,
    bricks_deep: usize,
    masks: Vec<u32>,
}

impl EncodedLayer {
    /// Trims and encodes every neuron of `neurons` once, per the
    /// [`EncodingKey`]'s software-trim and encoding settings — the masks
    /// depend on nothing else of a design point, which is what lets
    /// [`crate::SharedEncodedNetwork`] share one buffer across every
    /// configuration that agrees on the key.
    pub fn with_key(
        key: EncodingKey,
        window: pra_fixed::PrecisionWindow,
        neurons: &Tensor3<u16>,
    ) -> Self {
        let dim = neurons.dim();
        let bricks_deep = dim.i.div_ceil(BRICK);
        let mut masks = vec![0u32; dim.x * dim.y * bricks_deep * BRICK];
        let encode = |v: u16| -> u32 {
            let v = if key.software_trim { window.trim(v) } else { v };
            match key.encoding {
                Encoding::Oneffset => u32::from(v),
                Encoding::Csd => csd::mask(v),
            }
        };
        for y in 0..dim.y {
            for x in 0..dim.x {
                for ib in 0..bricks_deep {
                    let vals = neurons.brick_padded(x as isize, y as isize, ib * BRICK);
                    let base = brick_index(dim, bricks_deep, x, y, ib) * BRICK;
                    for (slot, &v) in masks[base..base + BRICK].iter_mut().zip(&vals) {
                        *slot = encode(v);
                    }
                }
            }
        }
        Self { dim, bricks_deep, masks }
    }

    /// Rebuilds an encoded layer from deserialized parts (the persisted
    /// encoded-artifact tier, `crate::artifact`). Returns `None` unless
    /// `masks` has exactly the length the geometry implies — a stale or
    /// foreign payload must fail closed, never index out of bounds.
    pub(crate) fn from_parts(dim: Dim3, masks: Vec<u32>) -> Option<Self> {
        let bricks_deep = dim.i.div_ceil(BRICK);
        (masks.len() == dim.x * dim.y * bricks_deep * BRICK).then_some(Self {
            dim,
            bricks_deep,
            masks,
        })
    }

    /// The layer geometry the masks were encoded over.
    pub(crate) fn dim(&self) -> Dim3 {
        self.dim
    }

    /// The full flat mask buffer, brick-contiguous (serialization).
    pub(crate) fn masks(&self) -> &[u32] {
        &self.masks
    }

    /// The encoded masks of the brick at `(x, y, i0)` (`i0` in neurons,
    /// a multiple of [`BRICK`]).
    pub fn brick_masks(&self, x: usize, y: usize, i0: usize) -> &[u32; BRICK] {
        let base = brick_index(self.dim, self.bricks_deep, x, y, i0 / BRICK) * BRICK;
        self.masks[base..base + BRICK].try_into().expect("brick slice is BRICK long")
    }

    /// Number of whole bricks along the channel dimension.
    pub fn bricks_deep(&self) -> usize {
        self.bricks_deep
    }
}

#[inline]
fn brick_index(dim: Dim3, bricks_deep: usize, x: usize, y: usize, ib: usize) -> usize {
    (y * bricks_deep + ib) * dim.x + x
}

/// Sentinel marking a memo slot that has not been computed yet (a real
/// entry packs two `u32`s, so the high word can never be all-ones: a
/// brick's cycle count is bounded by the representation width).
const UNSET: u64 = u64::MAX;

#[inline]
fn pack(s: ColumnSchedule) -> u64 {
    (u64::from(s.cycles) << 32) | u64::from(s.terms)
}

#[inline]
fn unpack(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

/// The layer-scoped brick-schedule memo: encode-once masks plus one
/// lazily-filled atomic `(cycles, terms)` slot per input brick.
///
/// A brick's schedule is a pure function of `(masks, SchedulerConfig)`,
/// so the scheduler — memo included — is shareable across design points
/// that agree on those two (they may differ in synchronization policy,
/// fidelity or chip structure); [`crate::SharedEncodedNetwork`] exploits
/// exactly this. The mask buffer is held behind an [`Arc`] so schedulers
/// with different `SchedulerConfig`s still share one encoding.
#[derive(Debug)]
pub struct LayerScheduler {
    encoded: Arc<EncodedLayer>,
    memo: Vec<AtomicU64>,
    scheduler: SchedulerConfig,
    per_cycle: u32,
}

impl LayerScheduler {
    /// Builds the memo over an already-encoded (possibly shared) mask
    /// buffer: the encoding was O(layer volume), every brick visit is
    /// O(1) afterwards.
    pub fn with_encoded(encoded: Arc<EncodedLayer>, scheduler: SchedulerConfig) -> Self {
        let bricks = encoded.dim.x * encoded.dim.y * encoded.bricks_deep;
        let memo = (0..bricks).map(|_| AtomicU64::new(UNSET)).collect();
        Self { encoded, memo, scheduler, per_cycle: u32::from(scheduler.per_cycle) }
    }

    /// [`LayerScheduler::with_encoded`] with a deserialized warm memo
    /// (the persisted encoded-artifact tier): slots holding [`UNSET`]
    /// stay lazy, everything else is an O(1) hit from the first visit.
    /// Returns `None` unless `memo` has exactly one slot per brick —
    /// a stale payload must fail closed. The memo's packed values are a
    /// pure function of `(masks, scheduler)`, so a warm memo can never
    /// change a result, only skip recomputing it.
    pub(crate) fn with_encoded_memo(
        encoded: Arc<EncodedLayer>,
        scheduler: SchedulerConfig,
        memo: Vec<u64>,
    ) -> Option<Self> {
        let bricks = encoded.dim.x * encoded.dim.y * encoded.bricks_deep;
        if memo.len() != bricks {
            return None;
        }
        let memo = memo.into_iter().map(AtomicU64::new).collect();
        Some(Self { encoded, memo, scheduler, per_cycle: u32::from(scheduler.per_cycle) })
    }

    /// A plain snapshot of the memo table for serialization (unvisited
    /// slots read as [`UNSET`] and deserialize back to lazy slots).
    pub(crate) fn memo_snapshot(&self) -> Vec<u64> {
        // relaxed-ok: each slot is a self-contained packed u64 filled
        // with a deterministic value; see `brick_cycles_terms`.
        self.memo.iter().map(|s| s.load(Ordering::Relaxed)).collect()
    }

    /// The shared handle to the encode-once mask buffer.
    pub fn encoded_arc(&self) -> &Arc<EncodedLayer> {
        &self.encoded
    }

    /// The `(cycles, terms)` of the column schedule for the brick at `b`.
    /// Padding bricks (out-of-bounds coordinates, spatial or depth) are
    /// all zeros and cost nothing, mirroring `Tensor3::brick_padded`.
    /// In-bounds bricks are scheduled on first visit and memoized; the
    /// schedule is a pure function of the brick's values and the
    /// scheduler configuration, so concurrent fills race benignly.
    #[inline]
    pub fn brick_cycles_terms(&self, b: BrickRef) -> (u32, u32) {
        let dim = self.encoded.dim;
        if b.x < 0 || b.y < 0 || b.x as usize >= dim.x || b.y as usize >= dim.y || b.i >= dim.i {
            return (0, 0);
        }
        let (x, y) = (b.x as usize, b.y as usize);
        let idx = brick_index(dim, self.encoded.bricks_deep, x, y, b.i / BRICK);
        // relaxed-ok: the memo slot is a self-contained packed u64;
        // racing writers all store the same deterministic value, so no
        // ordering edge to other memory is needed (benign race).
        let cached = self.memo[idx].load(Ordering::Relaxed);
        if cached != UNSET {
            return unpack(cached);
        }
        let sched = schedule_brick_with(self.encoded.brick_masks(x, y, b.i), self.scheduler);
        // relaxed-ok: see the load above — same benign-race argument.
        self.memo[idx].store(pack(sched), Ordering::Relaxed);
        (sched.cycles, sched.terms)
    }

    /// Reconstructs the full [`ColumnSchedule`] for the brick at `b`
    /// (`idle_lane_cycles` is derivable from cycles and terms).
    pub fn brick_schedule(&self, b: BrickRef) -> ColumnSchedule {
        let (cycles, terms) = self.brick_cycles_terms(b);
        ColumnSchedule { cycles, terms, idle_lane_cycles: cycles * 16 * self.per_cycle - terms }
    }

    /// The underlying encode-once mask buffer.
    pub fn encoded(&self) -> &EncodedLayer {
        &self.encoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::csd_mask;
    use crate::config::PraConfig;
    use pra_fixed::PrecisionWindow;
    use pra_workloads::Representation;

    fn neurons(dim: (usize, usize, usize)) -> Tensor3<u16> {
        Tensor3::from_fn(dim, |x, y, i| ((x * 31 + y * 17 + i * 13) % 1023) as u16)
    }

    #[test]
    fn encoded_masks_match_per_fetch_encoding() {
        let n = neurons((5, 4, 24)); // ragged depth: 24 = 1.5 bricks
        let window = PrecisionWindow::with_width(9, 2);
        for encoding in [Encoding::Oneffset, Encoding::Csd] {
            for trim in [true, false] {
                let cfg = PraConfig {
                    encoding,
                    ..PraConfig::two_stage(2, Representation::Fixed16).with_trim(trim)
                };
                let enc = EncodedLayer::with_key(cfg.encoding_key(), window, &n);
                for (x, y, i0) in [(0usize, 0usize, 0usize), (4, 3, 16), (2, 1, 0)] {
                    let got = enc.brick_masks(x, y, i0);
                    let vals = n.brick_padded(x as isize, y as isize, i0);
                    for (lane, (&m, &v)) in got.iter().zip(&vals).enumerate() {
                        let v = if trim { window.trim(v) } else { v };
                        let want = match encoding {
                            Encoding::Oneffset => u32::from(v),
                            Encoding::Csd => csd_mask(v),
                        };
                        assert_eq!(m, want, "lane {lane} at ({x},{y},{i0})");
                    }
                }
            }
        }
    }

    #[test]
    fn memo_matches_direct_schedule_and_padding_is_free() {
        let n = neurons((6, 3, 32));
        let cfg = PraConfig::two_stage(2, Representation::Fixed16);
        let window = PrecisionWindow::with_width(9, 2);
        let encoded = EncodedLayer::with_key(cfg.encoding_key(), window, &n);
        let sched = LayerScheduler::with_encoded(Arc::new(encoded), cfg.scheduler());
        for b in [
            BrickRef { x: 0, y: 0, i: 0 },
            BrickRef { x: 5, y: 2, i: 16 },
            BrickRef { x: 3, y: 1, i: 0 },
        ] {
            let direct = schedule_brick_with(
                sched.encoded().brick_masks(b.x as usize, b.y as usize, b.i),
                cfg.scheduler(),
            );
            // First visit computes, second hits the memo: identical.
            assert_eq!(sched.brick_schedule(b), direct);
            assert_eq!(sched.brick_schedule(b), direct);
        }
        assert_eq!(sched.brick_cycles_terms(BrickRef { x: -1, y: 0, i: 0 }), (0, 0));
        assert_eq!(sched.brick_cycles_terms(BrickRef { x: 0, y: 99, i: 0 }), (0, 0));
    }
}
