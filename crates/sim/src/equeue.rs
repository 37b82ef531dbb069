//! The engine's event queue and its RTO timer wheel, both dequeuing in
//! exact `(time, insertion seq)` order.
//!
//! Events are ordered by the total key `(t, seq)`, where `seq` is the
//! unique, monotonically increasing insertion sequence. Since the key is
//! total, the event order (and with it every simulation result) is fixed
//! by the workload and the seed alone.
//!
//! The queue is a binary heap of 24-byte `(t, seq, slot)` keys over a
//! payload slab whose freed slots are recycled, so a sift moves keys, not
//! payloads. A calendar queue and a sharded conservative-parallel engine
//! both measured slower than a binary heap (DESIGN.md §8a, §12).

use crate::types::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The event queue: a binary min-heap of `(t, seq, slot)` keys, `O(log n)`
/// per op, with each payload parked in `slab[slot]`.
///
/// `seq` is unique per queue, so `slot` never decides the order. A popped
/// key frees its slot and the next push reuses it, so the slab holds
/// exactly as many slots as were ever pending at once.
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<(Ns, u64, u32)>>,
    /// Payloads by slot; `None` for a free slot.
    slab: Vec<Option<E>>,
    /// Free slots, most recently freed last.
    free: Vec<u32>,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> HeapQueue<E> {
        HeapQueue { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new() }
    }

    /// Inserts an event. `seq` must be unique and increasing.
    pub fn push(&mut self, t: Ns, seq: u64, ev: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(Some(ev));
                slot
            }
        };
        self.heap.push(Reverse((t, seq, slot)));
    }

    /// Removes and returns the earliest event by `(t, seq)`.
    pub fn pop(&mut self) -> Option<(Ns, u64, E)> {
        let Reverse((t, seq, slot)) = self.heap.pop()?;
        let ev = self.slab[slot as usize].take().expect("queued key owns its slot");
        self.free.push(slot);
        Some((t, seq, ev))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events ever pending at once: the slab length, since a
    /// push only grows the slab when every slot is taken.
    pub fn peak_len(&self) -> usize {
        self.slab.len()
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// One pending timer in a [`TimerWheel`]: full `(t, seq)` ordering key,
/// the owner key (the engine uses the flow id) and an opaque generation
/// the owner uses to validate firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WheelEntry {
    t: Ns,
    seq: u64,
    key: u32,
    gen: u64,
}

/// Hierarchical timing wheel for coarse, cancellable timers — the fast
/// path for TCP RTOs, which are armed and cancelled once per ACK but fire
/// almost never.
///
/// Four levels of 64 buckets each, bucket widths `2^16` ns (≈ 65 µs) at
/// level 0 growing by `2^6` per level, so the wheel spans ≈ 18 minutes of
/// simulated time beyond the current anchor; rarer entries land in a
/// linear overflow bucket. An entry is filed in the lowest level whose
/// span contains it *relative to the anchor* (the last time bound the
/// caller established), and each key holds at most one live entry —
/// [`TimerWheel::cancel`] removes it eagerly via a per-key location map,
/// so buckets never accumulate stale entries.
///
/// The wheel orders by the same total `(t, seq)` key as the event queue:
/// [`TimerWheel::pop_before`] returns the earliest entry strictly below a
/// bound, which is how the engine merges wheel-resident timers with the
/// main event stream without perturbing the reference event order. The
/// common case — no timer due before the next wire event — is one
/// comparison against a cached lower bound of the wheel minimum;
/// occupancy bitmasks (one `u64` per level) make the exact-minimum scan
/// cheap when it is needed.
///
/// Two invariants make the circular bucket disambiguation sound: entries
/// are always inserted at `t >=` the current anchor (clamped defensively),
/// and an entry filed at level `l` satisfied `day(t) - day(anchor) < 64`
/// at insert time; since the anchor only advances, the difference only
/// shrinks, so at any instant every bucket holds entries of exactly one
/// day and the circularly-first occupied bucket of a level holds that
/// level's minimum.
#[derive(Debug, Clone)]
pub struct TimerWheel {
    /// `levels * 64` wheel buckets, then one overflow bucket.
    buckets: Vec<Vec<WheelEntry>>,
    /// Bucket-occupancy bitmask per level.
    occ: [u64; Self::LEVELS],
    /// Per-key location: `(slot, index into the slot's Vec)`;
    /// `slot == NO_SLOT` = no live entry.
    loc: Vec<(u16, u32)>,
    /// Monotonic time anchor: every live entry has `t >= anchor`.
    anchor: Ns,
    /// Lower bound on the minimum live `(t, seq)` key (exact after a
    /// scan; may be stale-low after a cancel, never stale-high).
    min_lb: (Ns, u64),
    /// Live entries.
    len: usize,
}

impl TimerWheel {
    const LEVELS: usize = 4;
    /// log2 bucket width at level 0; each level widens by `2^6`.
    const BASE_SHIFT: u32 = 16;
    const OVERFLOW_SLOT: usize = Self::LEVELS * 64;
    const NO_SLOT: u16 = u16::MAX;

    /// Creates an empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel {
            buckets: (0..=Self::OVERFLOW_SLOT).map(|_| Vec::new()).collect(),
            occ: [0; Self::LEVELS],
            loc: Vec::new(),
            anchor: 0,
            min_lb: (Ns::MAX, u64::MAX),
            len: 0,
        }
    }

    /// Live timer count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer for `key`, replacing the key's live entry if one
    /// exists (exactly as `cancel(key)` followed by a fresh insert — the
    /// wheel never holds two entries per key). `seq` must come from the
    /// caller's global insertion sequence (the total order shared with the
    /// event queue).
    pub fn insert(&mut self, t: Ns, seq: u64, key: u32, gen: u64) {
        if key as usize >= self.loc.len() {
            self.loc.resize(key as usize + 1, (Self::NO_SLOT, 0));
        } else {
            let (slot, idx) = self.loc[key as usize];
            if slot != Self::NO_SLOT {
                self.remove_at(slot as usize, idx as usize);
            }
        }
        let mut slot = Self::OVERFLOW_SLOT;
        for l in 0..Self::LEVELS {
            let shift = Self::BASE_SHIFT + 6 * l as u32;
            let a = self.anchor >> shift;
            let d = (t >> shift).max(a);
            if d - a < 64 {
                slot = l * 64 + (d & 63) as usize;
                self.occ[l] |= 1 << (d & 63);
                break;
            }
        }
        let b = &mut self.buckets[slot];
        self.loc[key as usize] = (slot as u16, b.len() as u32);
        b.push(WheelEntry { t, seq, key, gen });
        self.min_lb = if self.len == 0 { (t, seq) } else { self.min_lb.min((t, seq)) };
        self.len += 1;
    }

    /// Cancels `key`'s live timer, if any; returns whether one existed.
    pub fn cancel(&mut self, key: u32) -> bool {
        let Some(&(slot, idx)) = self.loc.get(key as usize) else { return false };
        if slot == Self::NO_SLOT {
            return false;
        }
        self.remove_at(slot as usize, idx as usize);
        true
    }

    /// Removes and returns the earliest timer whose `(t, seq)` key is
    /// strictly below `bound`, as `(t, seq, key, gen)`; `None` when no
    /// timer is due. Discrete-event contract: the caller processes the
    /// returned timer — or, on `None`, the queue event whose key is
    /// `bound` — next, so simulated time advances to that key and every
    /// later `insert` lands at or after it; that is what makes the
    /// anchor advance below sound.
    pub fn pop_before(&mut self, bound: (Ns, u64)) -> Option<(Ns, u64, u32, u64)> {
        if self.len == 0 || self.min_lb >= bound {
            return None;
        }
        // Exact-minimum scan: per level, the circularly-first occupied
        // bucket from the anchor position holds the level minimum; compare
        // across levels and the overflow bucket by full (t, seq) key.
        let mut best: Option<((Ns, u64), usize, usize)> = None;
        for l in 0..Self::LEVELS {
            let occ = self.occ[l];
            if occ == 0 {
                continue;
            }
            let shift = Self::BASE_SHIFT + 6 * l as u32;
            let start = ((self.anchor >> shift) & 63) as u32;
            let j = occ.rotate_right(start).trailing_zeros();
            let slot = l * 64 + ((start + j) & 63) as usize;
            for (i, e) in self.buckets[slot].iter().enumerate() {
                if best.is_none_or(|(k, _, _)| (e.t, e.seq) < k) {
                    best = Some(((e.t, e.seq), slot, i));
                }
            }
        }
        for (i, e) in self.buckets[Self::OVERFLOW_SLOT].iter().enumerate() {
            if best.is_none_or(|(k, _, _)| (e.t, e.seq) < k) {
                best = Some(((e.t, e.seq), Self::OVERFLOW_SLOT, i));
            }
        }
        let ((t, seq), slot, idx) = best.expect("len > 0");
        self.min_lb = (t, seq); // exact now
        if (t, seq) >= bound {
            // Nothing due; remember how far time has provably advanced.
            self.anchor = self.anchor.max(bound.0);
            return None;
        }
        self.anchor = self.anchor.max(t);
        let e = self.buckets[slot][idx];
        self.remove_at(slot, idx);
        Some((t, seq, e.key, e.gen))
    }

    /// Removes and returns the earliest timer unconditionally.
    pub fn pop_earliest(&mut self) -> Option<(Ns, u64, u32, u64)> {
        self.pop_before((Ns::MAX, u64::MAX))
    }

    /// Unlinks `buckets[slot][idx]`, patching the location map for the
    /// entry `swap_remove` moved and the occupancy mask for emptied
    /// buckets.
    fn remove_at(&mut self, slot: usize, idx: usize) {
        let b = &mut self.buckets[slot];
        let gone = b.swap_remove(idx);
        self.loc[gone.key as usize] = (Self::NO_SLOT, 0);
        if let Some(moved) = b.get(idx) {
            self.loc[moved.key as usize] = (slot as u16, idx as u32);
        }
        if b.is_empty() && slot < Self::OVERFLOW_SLOT {
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.len -= 1;
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    type E = u32;

    /// Pushes `batch` as `(t, seq)` keys in the given order, drains the
    /// heap and checks the result against the batch sorted by `(t, seq)`.
    fn drains_sorted(batch: &[(Ns, u64)]) {
        let mut q = HeapQueue::new();
        for &(t, seq) in batch {
            q.push(t, seq, seq as E);
        }
        assert_eq!(q.len(), batch.len());
        let mut expected = batch.to_vec();
        expected.sort_unstable();
        let out: Vec<(Ns, u64)> =
            std::iter::from_fn(|| q.pop()).map(|(t, s, _)| (t, s)).collect();
        assert_eq!(out, expected);
        assert!(q.is_empty());
    }

    /// Removes the `(t, seq)`-smallest entry of an unsorted pending list:
    /// the oracle for interleaved push/pop sequences.
    fn pop_min(pending: &mut Vec<(Ns, u64, E)>) -> Option<(Ns, u64, E)> {
        let i = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1))?;
        Some(pending.swap_remove(i))
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: HeapQueue<E> = HeapQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn single_event_roundtrip() {
        let mut q = HeapQueue::new();
        q.push(12_345, 1, 7u32);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((12_345, 1, 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_timestamp_ties_break_by_seq() {
        let batch: Vec<(Ns, u64)> = (0..32).map(|i| (1_000, i)).collect();
        drains_sorted(&batch);
        // The engine re-pushes its staged event with its original, smaller
        // seq after later events went in: seq, not push order, decides.
        let reversed: Vec<(Ns, u64)> = (0..32).rev().map(|i| (1_000, i)).collect();
        drains_sorted(&reversed);
    }

    #[test]
    fn random_batches_drain_sorted() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..8 {
            let batch: Vec<(Ns, u64)> = (0..500u64)
                .map(|i| {
                    let t = match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(0..16u64) * 1_000,
                        1 => 1_000_000 + rng.gen_range(0..5_000_000_000u64),
                        _ => rng.gen_range(0..10_000_000u64),
                    };
                    // Unique seqs, pushed out of order (7919 is prime).
                    (t, i * 7_919 % 500)
                })
                .collect();
            drains_sorted(&batch);
        }
    }

    #[test]
    fn extreme_times_near_ns_max_stay_sorted() {
        drains_sorted(&[
            (1_000, 0),
            (Ns::MAX - 5, 1),
            (Ns::MAX, 2),
            (Ns::MAX - 1, 3),
            (2_000, 4),
            (Ns::MAX, 5),
        ]);
        // Push-after-pop at the far edge.
        let mut q: HeapQueue<E> = HeapQueue::new();
        q.push(10, 1, 0);
        q.push(Ns::MAX - 2, 2, 1);
        assert_eq!(q.pop(), Some((10, 1, 0)));
        q.push(Ns::MAX - 2, 3, 2);
        q.push(Ns::MAX, 4, 3);
        assert_eq!(q.pop(), Some((Ns::MAX - 2, 2, 1)));
        assert_eq!(q.pop(), Some((Ns::MAX - 2, 3, 2)));
        assert_eq!(q.pop(), Some((Ns::MAX, 4, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_matches_oracle() {
        // The engine's pattern: pop one, push a few slightly in the
        // future (RTO-like far ones now and then, saturated reconverge
        // deadlines rarely), repeat.
        let mut q = HeapQueue::new();
        let mut oracle = Vec::new();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut seq = 0u64;
        for i in 0..64 {
            seq += 1;
            q.push(i * 13, seq, seq as E);
            oracle.push((i * 13, seq, seq as E));
        }
        let mut now = 0;
        for _ in 0..5_000 {
            let a = q.pop();
            assert_eq!(a, pop_min(&mut oracle));
            let Some((t, _, _)) = a else { break };
            assert!(t >= now);
            now = t;
            for _ in 0..rng.gen_range(0..3u32) {
                let dt: Ns = match rng.gen_range(0..100u32) {
                    0 => Ns::MAX,
                    1..=5 => 1_000_000 + rng.gen_range(0..5_000_000),
                    6..=20 => 0,
                    _ => rng.gen_range(0..6_000),
                };
                seq += 1;
                q.push(now.saturating_add(dt), seq, seq as E);
                oracle.push((now.saturating_add(dt), seq, seq as E));
            }
        }
        assert_eq!(q.len(), oracle.len());
    }

    #[test]
    fn freed_slots_are_reused() {
        // Bursts of pushes between runs of pops: the slab only grows when
        // every slot is taken, so it ends exactly at the peak pending count.
        let mut q = HeapQueue::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut seq, mut peak) = (0u64, 0usize);
        for round in 0..200u64 {
            for _ in 0..rng.gen_range(0..40u32) {
                seq += 1;
                q.push(round * 1_000 + rng.gen_range(0..5_000), seq, seq as E);
                peak = peak.max(q.len());
            }
            for _ in 0..rng.gen_range(0..40u32) {
                q.pop();
            }
            assert_eq!(q.peak_len(), peak, "round {round}");
        }
        assert!(peak < seq as usize, "the bursts must overlap freed slots");
    }

    #[test]
    fn push_at_current_time_is_returned_before_advancing() {
        let mut q = HeapQueue::new();
        q.push(100, 1, 1u32);
        q.push(5_000, 2, 2);
        assert_eq!(q.pop(), Some((100, 1, 1)));
        // An event at the already-reached time must still come out first.
        q.push(100, 3, 3);
        assert_eq!(q.pop(), Some((100, 3, 3)));
        assert_eq!(q.pop(), Some((5_000, 2, 2)));
    }

    // ---- timer wheel ----

    /// Reference model for the wheel: a sorted set of (t, seq, key, gen)
    /// plus the same one-live-entry-per-key rule.
    #[derive(Default)]
    struct WheelModel {
        set: std::collections::BTreeSet<(Ns, u64, u32, u64)>,
        by_key: std::collections::HashMap<u32, (Ns, u64, u32, u64)>,
    }

    impl WheelModel {
        fn insert(&mut self, t: Ns, seq: u64, key: u32, gen: u64) {
            assert!(!self.by_key.contains_key(&key));
            self.set.insert((t, seq, key, gen));
            self.by_key.insert(key, (t, seq, key, gen));
        }
        fn cancel(&mut self, key: u32) -> bool {
            match self.by_key.remove(&key) {
                Some(e) => {
                    self.set.remove(&e);
                    true
                }
                None => false,
            }
        }
        fn pop_before(&mut self, bound: (Ns, u64)) -> Option<(Ns, u64, u32, u64)> {
            let &e = self.set.first()?;
            if (e.0, e.1) >= bound {
                return None;
            }
            self.set.remove(&e);
            self.by_key.remove(&e.2);
            Some(e)
        }
    }

    #[test]
    fn wheel_single_timer_roundtrip() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.pop_earliest(), None);
        w.insert(1_000_000, 5, 3, 17);
        assert_eq!(w.len(), 1);
        // Not due before its own key.
        assert_eq!(w.pop_before((1_000_000, 5)), None);
        assert_eq!(w.pop_before((1_000_000, 6)), Some((1_000_000, 5, 3, 17)));
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_cancel_then_rearm() {
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 1, 0, 1);
        assert!(w.cancel(0));
        assert!(!w.cancel(0), "double cancel");
        assert!(!w.cancel(99), "unknown key");
        w.insert(2_000_000, 2, 0, 2);
        assert_eq!(w.pop_earliest(), Some((2_000_000, 2, 0, 2)));
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn wheel_rearm_without_cancel_replaces() {
        // Re-arming a live key must replace the old entry, not orphan it:
        // the old deadline never fires and the new one stays cancellable.
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 1, 0, 1);
        w.insert(2_000_000, 2, 0, 2); // same key, no cancel
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_earliest(), Some((2_000_000, 2, 0, 2)));
        assert_eq!(w.pop_earliest(), None);
        // Replacement across buckets (old in level 0, new in overflow).
        w.insert(3_000_000, 3, 7, 1);
        w.insert(9_000_000_000_000, 4, 7, 2);
        assert_eq!(w.len(), 1);
        assert!(w.cancel(7), "replacement entry must be cancellable");
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn wheel_spans_all_levels_and_overflow() {
        // One timer per level span plus one beyond the whole wheel
        // (> 2^40 ns): all must drain in (t, seq) order.
        let mut w = TimerWheel::new();
        let times = [
            40_000u64,            // level 0
            10_000_000,           // level 1 (10 ms)
            1_000_000_000,        // level 2 (1 s)
            60_000_000_000,       // level 3 (1 min)
            5_000_000_000_000,    // overflow (~83 min)
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(t, i as u64, i as u32, 0);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(w.pop_earliest(), Some((t, i as u64, i as u32, 0)));
        }
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn wheel_matches_model_under_rto_like_traffic() {
        // The engine's exact usage pattern: monotonic now, per-key
        // cancel + re-arm on most steps, occasional pops of due timers.
        let mut w = TimerWheel::new();
        let mut m = WheelModel::default();
        let mut rng = SmallRng::seed_from_u64(0xCAFE);
        let mut now = 0u64;
        let mut seq = 0u64;
        for step in 0..20_000u64 {
            now += rng.gen_range(0..80_000);
            // Everything due strictly before (now, step-scoped seq) fires,
            // in lockstep with the model.
            loop {
                let a = w.pop_before((now, 0));
                let b = m.pop_before((now, 0));
                assert_eq!(a, b, "step {step}");
                if a.is_none() {
                    break;
                }
            }
            let key = rng.gen_range(0..64u32);
            match rng.gen_range(0..10u32) {
                0..=6 => {
                    // Re-arm: cancel + insert, like an ACK re-arming an RTO.
                    let had_w = w.cancel(key);
                    let had_m = m.cancel(key);
                    assert_eq!(had_w, had_m);
                    seq += 1;
                    let dt = if rng.gen_bool(0.02) {
                        rng.gen_range(0..5_000_000_000_000u64) // deep future
                    } else {
                        1_000_000 + rng.gen_range(0..300_000_000) // RTO-ish
                    };
                    w.insert(now + dt, seq, key, seq);
                    m.insert(now + dt, seq, key, seq);
                }
                7..=8 => {
                    assert_eq!(w.cancel(key), m.cancel(key));
                }
                _ => {}
            }
            assert_eq!(w.len(), m.set.len());
        }
        // Drain what remains.
        loop {
            let a = w.pop_earliest();
            let b = m.pop_before((Ns::MAX, u64::MAX));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
