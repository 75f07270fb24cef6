//! The event queue: a time-ordered queue with deterministic FIFO
//! tie-breaking.
//!
//! Determinism matters here: the Meryn protocols are full of events
//! scheduled at the same instant (e.g. several Cluster Managers answering a
//! bid request "immediately"). A plain binary heap would pop equal-priority
//! items in an unspecified order; this queue tags every insertion with a
//! sequence number so replays are exact.
//!
//! # Structure
//!
//! Internally this is a two-level **calendar queue** (the standard
//! discrete-event answer to heap churn) instead of one big binary heap:
//!
//! * a **drain buffer** holding the events of the current time tick,
//!   sorted by `(due, seq)` — popping is a pointer bump, and the common
//!   same-instant cascade (pop at `now`, push at `now`) appends to its
//!   tail without any comparisons against unrelated future events;
//! * a ring of [`NUM_BUCKETS`] **buckets**, each covering one
//!   [`TICK_MS`]-wide tick of near-future time — pushing is an append,
//!   and each bucket is sorted once when the clock reaches it;
//! * a sorted **overflow** level (a binary min-heap) for events beyond
//!   the bucket horizon (~70 simulated minutes) — far-future events
//!   such as long job completions land here and migrate into buckets
//!   as the window slides, so they never tax the per-event hot path.
//!
//! Pop order is exactly nondecreasing `(due, seq)` — provably identical
//! to the previous `BinaryHeap<Scheduled>` implementation (the property
//! test in `tests/queue_props.rs` checks it against a sorted-`Vec`
//! reference model across random interleavings).

use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Width of one calendar tick in milliseconds (a power of two so the
/// tick of an instant is a shift).
const TICK_MS: u64 = 1 << TICK_SHIFT;
const TICK_SHIFT: u32 = 10; // ~1 simulated second
/// Buckets in the ring (a power of two so the slot of a tick is a
/// mask). The ring covers `NUM_BUCKETS × TICK_MS` ≈ 70 simulated
/// minutes of near future.
const NUM_BUCKETS: usize = 4096;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;

/// A pending event together with its due time and insertion tag.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn tick(&self) -> u64 {
        // TICK_MS is a power of two, so this is a shift.
        self.due.as_millis() / TICK_MS
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within an
        // instant, the first-inserted) event surfaces first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events are popped in nondecreasing time order; events scheduled for the
/// same instant are popped in the order they were pushed.
///
/// ```
/// use meryn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), "later");
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(5), "even later");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert_eq!(q.pop().unwrap().1, "even later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events with tick ≤ `cursor`, sorted by `(due, seq)`.
    drain: VecDeque<Scheduled<E>>,
    /// Pending events with tick in `(cursor, cursor + NUM_BUCKETS)`,
    /// unsorted within their tick's slot.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Total events across all `buckets`.
    in_buckets: usize,
    /// Pending events with tick beyond the bucket window, min-ordered.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Tick of the drain buffer; buckets cover the next ticks.
    cursor: u64,
    seq: u64,
    now: SimTime,
    len: usize,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            drain: VecDeque::new(),
            buckets: std::iter::repeat_with(Vec::new).take(NUM_BUCKETS).collect(),
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            seq: 0,
            now: SimTime::ZERO,
            len: 0,
            popped: 0,
        }
    }

    /// Creates an empty queue with room for `cap` pending events.
    ///
    /// The capacity pre-sizes the far-future level, where events pushed
    /// beyond the bucket horizon wait; near-future buckets grow on
    /// demand.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            overflow: BinaryHeap::with_capacity(cap),
            ..Self::new()
        }
    }

    /// The current simulation instant: the due time of the most recently
    /// popped event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far (a cheap progress/complexity
    /// metric for benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute instant `due`.
    ///
    /// Scheduling in the past is a logic error in a discrete-event
    /// simulation (it would make time run backwards), so this panics if
    /// `due` is earlier than the current instant. Scheduling *at* the
    /// current instant is fine and common (zero-latency hops).
    pub fn push(&mut self, due: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Scheduled { due, seq, event });
    }

    /// Places one tagged event into the right calendar level.
    fn insert(&mut self, sched: Scheduled<E>) {
        assert!(
            sched.due >= self.now,
            "cannot schedule event in the past: due={:?} now={:?}",
            sched.due,
            self.now
        );
        self.len += 1;
        let tick = sched.tick();
        if tick <= self.cursor {
            // Into the drain buffer, keeping `(due, seq)` order. The
            // `(due, seq)` upper bound is the exact sorted position for
            // any tag — and in the common same-instant cascade (a fresh
            // internal tag, the largest ever issued) it is the tail.
            let at = self
                .drain
                .partition_point(|s| (s.due, s.seq) <= (sched.due, sched.seq));
            self.drain.insert(at, sched);
        } else if tick - self.cursor < NUM_BUCKETS as u64 {
            // Strictly inside the window (cursor, cursor + NUM_BUCKETS):
            // those ticks all have distinct slots, none colliding with
            // the cursor's own slot.
            self.buckets[(tick & BUCKET_MASK) as usize].push(sched);
            self.in_buckets += 1;
        } else {
            self.overflow.push(sched);
        }
    }

    /// Schedules `event` after `delay` from the current instant.
    pub fn push_after(&mut self, delay: crate::time::SimDuration, event: E) {
        let due = self.now + delay;
        self.push(due, event);
    }

    /// Schedules `event` at `due` with an externally-assigned sequence
    /// tag.
    ///
    /// This is the entry point for a caller that hands out the tags
    /// itself — an engine whose one counter also tags events that are
    /// not queued yet, or several queues sharing one global ordering,
    /// merged by [`EventQueue::peek_key`] and [`earliest_key`]. Tags may
    /// arrive out of order — a workload's arrival stream reserves its
    /// tags up front and dispatches each arrival at its instant, after
    /// larger runtime tags already entered the queue — but each
    /// `(due, seq)` pair is globally unique and every level orders by
    /// the full pair, so placement stays exact. The only obligation on
    /// the caller is the same as [`EventQueue::push`]'s: never schedule
    /// below an already-popped `(due, seq)`.
    pub fn push_tagged(&mut self, due: SimTime, seq: u64, event: E) {
        self.seq = self.seq.max(seq + 1);
        self.insert(Scheduled { due, seq, event });
    }

    /// Advances `cursor` to the tick of the next pending event and fills
    /// the drain buffer with that tick's events, in `(due, seq)` order.
    /// No-op while the drain buffer still holds events.
    fn ensure_front(&mut self) {
        if !self.drain.is_empty() || self.len == 0 {
            return;
        }
        loop {
            if self.in_buckets == 0 {
                // Nothing in the window: jump the window to the earliest
                // far-future event and pull in everything it now covers.
                // The heap pops in (due, seq) order, so the drain buffer
                // comes out sorted.
                let top = self.overflow.peek().expect("len > 0 and all else empty");
                self.cursor = top.tick();
                let horizon = self.cursor.saturating_add(NUM_BUCKETS as u64);
                while let Some(top) = self.overflow.peek() {
                    let tick = top.tick();
                    if tick >= horizon {
                        break;
                    }
                    let sched = self.overflow.pop().expect("peeked");
                    if tick == self.cursor {
                        self.drain.push_back(sched);
                    } else {
                        self.buckets[(tick & BUCKET_MASK) as usize].push(sched);
                        self.in_buckets += 1;
                    }
                }
                debug_assert!(!self.drain.is_empty());
                return;
            }
            // Slide the window one tick; the tick entering it at the far
            // end may have events waiting in the overflow level.
            self.cursor += 1;
            let horizon = self.cursor.saturating_add(NUM_BUCKETS as u64);
            while let Some(top) = self.overflow.peek() {
                if top.tick() >= horizon {
                    break;
                }
                let sched = self.overflow.pop().expect("peeked");
                let slot = (sched.tick() & BUCKET_MASK) as usize;
                self.buckets[slot].push(sched);
                self.in_buckets += 1;
            }
            let slot = (self.cursor & BUCKET_MASK) as usize;
            if !self.buckets[slot].is_empty() {
                let mut batch = std::mem::take(&mut self.buckets[slot]);
                self.in_buckets -= batch.len();
                // Stable within equal keys is irrelevant: (due, seq) is
                // unique, so an unstable sort is exact.
                batch.sort_unstable_by(|a, b| a.due.cmp(&b.due).then_with(|| a.seq.cmp(&b.seq)));
                self.drain = batch.into();
                return;
            }
        }
    }

    /// Pops the next event, advancing the clock to its due time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(due, _, event)| (due, event))
    }

    /// Due time of the next pending event without popping it.
    ///
    /// Takes `&mut self` because it may rotate the calendar window
    /// forward to locate the next event (pop order is unaffected).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure_front();
        self.drain.front().map(|s| s.due)
    }

    /// `(due, seq)` of the next pending event without popping it — the
    /// merge key a multi-queue executor compares across queues.
    ///
    /// Takes `&mut self` for the same reason as
    /// [`EventQueue::peek_time`].
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.ensure_front();
        self.drain.front().map(|s| (s.due, s.seq))
    }

    /// Pops the next event together with its sequence tag, advancing
    /// the clock to its due time.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.ensure_front();
        let sched = self.drain.pop_front()?;
        Some(self.take_popped(sched))
    }

    /// Pops the next event with its sequence tag if it is due exactly
    /// at `t`, `None` otherwise — the drain of one same-instant run.
    ///
    /// Unlike [`EventQueue::pop_keyed`] this never rotates the window
    /// once `t`'s tick is open: every pending event of an open tick
    /// sits in the drain buffer, so an empty buffer already means
    /// nothing is left at `t`. Draining an instant this way leaves the
    /// next tick in its bucket, and events pushed at `t` while the run
    /// is processed append to a short buffer instead of being inserted
    /// in front of the next tick's whole batch.
    pub fn pop_at(&mut self, t: SimTime) -> Option<(u64, E)> {
        if t.as_millis() / TICK_MS > self.cursor {
            self.ensure_front();
        }
        if self.drain.front()?.due != t {
            return None;
        }
        let sched = self.drain.pop_front()?;
        let (_, seq, event) = self.take_popped(sched);
        Some((seq, event))
    }

    /// Books one event leaving the drain buffer: advances the clock to
    /// its due time and counts the pop.
    fn take_popped(&mut self, sched: Scheduled<E>) -> (SimTime, u64, E) {
        debug_assert!(sched.due >= self.now);
        self.now = sched.due;
        self.popped += 1;
        self.len -= 1;
        (sched.due, sched.seq, sched.event)
    }

    /// Drops every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.drain.clear();
        if self.in_buckets > 0 {
            for bucket in &mut self.buckets {
                bucket.clear();
            }
        }
        self.in_buckets = 0;
        self.overflow.clear();
        self.len = 0;
    }
}

/// A serializable snapshot of an [`EventQueue`]: the clock, the
/// counters and every pending event in `(due, seq)` order. Restoring
/// with [`EventQueue::from_snapshot`] yields a queue whose observable
/// behaviour — pop order, clock, tag watermark, processed count — is
/// identical to the snapshotted one (the calendar level an event sits
/// on is internal and may differ).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueSnapshot<E> {
    now: SimTime,
    seq: u64,
    popped: u64,
    /// Pending events, sorted by `(due, seq)`.
    entries: Vec<(SimTime, u64, E)>,
}

impl<E> QueueSnapshot<E> {
    /// Number of pending events captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events were pending at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<E: Clone> EventQueue<E> {
    /// Captures the queue's pending events and counters for
    /// checkpointing.
    pub fn snapshot(&self) -> QueueSnapshot<E> {
        let mut entries: Vec<(SimTime, u64, E)> = self
            .drain
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.overflow.iter())
            .map(|s| (s.due, s.seq, s.event.clone()))
            .collect();
        // (due, seq) is unique, so an unstable sort is exact.
        entries.sort_unstable_by_key(|&(due, seq, _)| (due, seq));
        QueueSnapshot {
            now: self.now,
            seq: self.seq,
            popped: self.popped,
            entries,
        }
    }

    /// Rebuilds a queue from a snapshot.
    ///
    /// Pending events are replayed in `(due, seq)` order: dues are
    /// nondecreasing and equal-due runs carry increasing seqs, so the
    /// drain buffer's sorted-insert position is exact for every entry —
    /// the same invariant live pushes rely on.
    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::with_capacity(snap.entries.len());
        q.now = snap.now;
        q.cursor = snap.now.as_millis() / TICK_MS;
        for (due, seq, event) in snap.entries {
            q.seq = seq;
            q.push(due, event);
        }
        q.seq = snap.seq;
        q.popped = snap.popped;
        q
    }
}

/// The merge point of several queues sharing one globally-tagged event
/// space: given the [`EventQueue::peek_key`] of every queue, returns the
/// index of the queue holding the globally next event and that event's
/// `(due, seq)` key.
///
/// Everything strictly before the returned key has already been
/// popped, so a batch of same-instant events drained up to the next
/// foreign key can be processed out of line without reordering the
/// global schedule. The engine keeps one queue instead, so nothing has
/// to be merged per instant; this is the reference the one-queue drain
/// is property-tested against.
pub fn earliest_key(
    keys: impl IntoIterator<Item = Option<(SimTime, u64)>>,
) -> Option<(usize, (SimTime, u64))> {
    keys.into_iter()
        .enumerate()
        .filter_map(|(i, k)| k.map(|k| (i, k)))
        .min_by_key(|&(_, k)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30), 3);
        q.push(SimTime::from_secs(10), 1);
        q.push(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn push_after_uses_current_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        q.pop();
        q.push_after(SimDuration::from_secs(5), "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(e, "b");
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(5), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        q.pop();
        q.push(SimTime::from_secs(10), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(10), 2));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn events_processed_counts() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.push(SimTime::from_secs(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
    }

    #[test]
    fn far_future_events_cross_the_overflow_level() {
        // A month-scale spread: far beyond the bucket window, so these
        // traverse overflow → bucket → drain.
        let mut q = EventQueue::new();
        let day = 86_400u64;
        for d in (0..30).rev() {
            q.push(SimTime::from_secs(d * day), d);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_burst_in_the_far_future_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(40 * 86_400);
        for i in 0..50 {
            q.push(t, i);
        }
        q.push(SimTime::from_secs(1), -1);
        assert_eq!(q.pop().unwrap().1, -1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pushes_into_the_open_tick_keep_order() {
        // Pop at t, then push events at t and slightly after t that land
        // in the already-open drain buffer.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5000), "a");
        q.push(SimTime::from_millis(5003), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_millis(5000), "b"); // same instant, later push
        q.push(SimTime::from_millis(5001), "b2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["b", "b2", "c"]);
    }

    #[test]
    fn interleaved_push_pop_across_the_window_boundary() {
        // Events exactly at multiples of the window width exercise the
        // jump + migration paths.
        let mut q = EventQueue::new();
        let window_secs = (NUM_BUCKETS as u64 * TICK_MS) / 1000;
        q.push(SimTime::from_secs(window_secs), 1);
        q.push(SimTime::from_secs(2 * window_secs), 2);
        q.push(SimTime::from_secs(3 * window_secs), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs(2 * window_secs), 22); // after 2, same instant
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 22);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn tagged_pushes_merge_across_queues_by_global_key() {
        // Two queues sharing one external counter: the merged pop order
        // must equal what a single queue would have produced.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let t = SimTime::from_secs(3);
        a.push_tagged(t, 0, "a0");
        b.push_tagged(t, 1, "b1");
        a.push_tagged(t, 2, "a2");
        b.push_tagged(SimTime::from_secs(1), 3, "b3");
        let mut order = Vec::new();
        while let Some((idx, _)) = earliest_key([a.peek_key(), b.peek_key()]) {
            let q = if idx == 0 { &mut a } else { &mut b };
            let (_, _, ev) = q.pop_keyed().unwrap();
            order.push(ev);
        }
        assert_eq!(order, vec!["b3", "a0", "b1", "a2"]);
    }

    #[test]
    fn peek_key_matches_pop_keyed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), "x");
        q.push(SimTime::from_secs(2), "y");
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(2), 0)));
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(2), 0, "x")));
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(2), 1)));
    }

    #[test]
    fn tagged_push_accepts_out_of_order_tags() {
        // A streamed-arrival block reserves its tags up front, so a
        // small tag can arrive after larger runtime tags entered the
        // queue; pops still come out in exact (due, seq) order.
        let mut q = EventQueue::new();
        q.push_tagged(SimTime::from_secs(1), 5, "runtime");
        q.push_tagged(SimTime::from_secs(1), 3, "pumped arrival");
        q.push_tagged(SimTime::from_secs(2), 4, "later");
        assert_eq!(
            q.pop_keyed(),
            Some((SimTime::from_secs(1), 3, "pumped arrival"))
        );
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(1), 5, "runtime")));
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(2), 4, "later")));
        // Internal tags resume above the largest external tag ever seen.
        q.push(SimTime::from_secs(3), "internal");
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(3), 6, "internal")));
    }

    #[test]
    fn tagged_push_lands_mid_drain_buffer() {
        // The drain buffer is already filled for the tick when a
        // pumped arrival with a mid-range tag lands at the same
        // instant: it must slot between the pending events, not at the
        // tail.
        let mut q = EventQueue::new();
        q.push_tagged(SimTime::from_secs(1), 10, "first");
        q.push_tagged(SimTime::from_secs(1), 20, "last");
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(1), 10)));
        q.push_tagged(SimTime::from_secs(1), 15, "mid");
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(1), 10, "first")));
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(1), 15, "mid")));
        assert_eq!(q.pop_keyed(), Some((SimTime::from_secs(1), 20, "last")));
    }

    #[test]
    fn earliest_key_skips_empty_queues() {
        assert_eq!(earliest_key([None::<(SimTime, u64)>, None]), None);
        let k = (SimTime::from_secs(9), 4);
        assert_eq!(earliest_key([None, Some(k)]), Some((1, k)));
    }

    #[test]
    fn snapshot_restore_is_behaviour_identical() {
        // Events on all three calendar levels: current tick, near
        // future (buckets), far future (overflow) — plus a same-instant
        // run so FIFO order must survive the round trip.
        let mut q = EventQueue::new();
        for i in 0..40u64 {
            q.push(SimTime::from_secs(i * 97 % 50), i);
        }
        q.push(SimTime::from_secs(3), 100);
        q.push(SimTime::from_secs(3), 101);
        q.push(SimTime::from_secs(40 * 86_400), 200);
        for _ in 0..7 {
            q.pop();
        }
        let snap = q.snapshot();
        assert_eq!(snap.len(), q.len());
        let mut r = EventQueue::from_snapshot(snap);
        assert_eq!(r.now(), q.now());
        assert_eq!(r.len(), q.len());
        assert_eq!(r.events_processed(), q.events_processed());
        assert_eq!(r.peek_key(), q.peek_key());
        // Both queues accept the same post-restore pushes and pop the
        // same (due, seq, event) sequence.
        q.push_after(SimDuration::from_secs(5), 300);
        r.push_after(SimDuration::from_secs(5), 300);
        loop {
            let (a, b) = (q.pop_keyed(), r.pop_keyed());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(r.events_processed(), q.events_processed());
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), 7u64);
        q.push(SimTime::from_secs(90 * 86_400), 9u64);
        let json = serde_json::to_string(&q.snapshot()).expect("snapshot serializes");
        let snap: QueueSnapshot<u64> = serde_json::from_str(&json).expect("snapshot parses");
        let mut r = EventQueue::from_snapshot(snap);
        assert_eq!(r.pop(), Some((SimTime::from_secs(2), 7)));
        assert_eq!(r.pop(), Some((SimTime::from_secs(90 * 86_400), 9)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn with_capacity_accepts_bulk_loads() {
        let mut q = EventQueue::with_capacity(1000);
        for i in 0..1000u64 {
            q.push(SimTime::from_secs(i * 3600), i);
        }
        assert_eq!(q.len(), 1000);
        let mut last = 0;
        while let Some((_, e)) = q.pop() {
            assert!(e >= last);
            last = e;
        }
    }
}
