//! The calendar queue against naive reference models.
//!
//! The first reference is the obvious correct implementation: an
//! unsorted `Vec` popped by minimum `(time, insertion-order)`. The
//! calendar queue must pop in **exactly** the same sequence across
//! random push/pop interleavings — including same-instant bursts,
//! `push_after` from a popped instant, and far-future events that
//! traverse the overflow level.
//!
//! The second is the multi-queue schedule an engine can keep instead
//! of one queue: one queue per owner, sharing one tag counter, merged
//! by [`earliest_key`] and drained owner by owner. One queue drained
//! instant by instant with [`EventQueue::pop_at`] must hand every owner
//! exactly the events, in exactly the order, that owner's own queue
//! would have.

use meryn_sim::{earliest_key, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// The sorted-`Vec` reference: push appends, pop removes the minimum
/// `(due, seq)` entry.
#[derive(Default)]
struct ReferenceQueue {
    pending: Vec<(u64, u64, u32)>, // (due_ms, seq, id)
    seq: u64,
    now: u64,
}

impl ReferenceQueue {
    fn push(&mut self, due_ms: u64, id: u32) {
        assert!(due_ms >= self.now, "reference model scheduling in the past");
        self.pending.push((due_ms, self.seq, id));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(due, seq, _))| (due, seq))?
            .0;
        let (due, _, id) = self.pending.remove(best);
        self.now = due;
        Some((due, id))
    }
}

/// One scripted operation, interpreted relative to the current clock.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `now + delta` ms. Small deltas exercise the drain buffer
    /// and same-instant FIFO; large ones cross the bucket window into
    /// the overflow level (the window is ~70 simulated minutes).
    Push(u64),
    /// Pop one event.
    Pop,
    /// `push_after` from the current (possibly just-popped) instant.
    PushAfter(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u64..400_000_000).prop_map(|(kind, raw)| match kind {
        0..=2 => Op::Push(raw % 4),      // same-instant bursts
        3 | 4 => Op::Push(raw % 20_000), // near future (in-window)
        5 => Op::Push(raw),              // far future (overflow, up to ~4.6 days)
        6 => Op::PushAfter(raw % 10_000),
        _ => Op::Pop,
    })
}

/// A queued event of the engine-shaped loop: `(id, owner)`.
type Ev = (u32, usize);

/// One instant's drain: the instant, then each owner's `(seq, event)`
/// slice in pop order.
type Run = (SimTime, Vec<Vec<(u64, Ev)>>);

/// Where the loop keeps its pending events.
enum Schedule {
    /// One queue per owner, merged by [`earliest_key`] — the reference.
    PerOwner(Vec<EventQueue<Ev>>),
    /// One queue for every owner.
    Single(EventQueue<Ev>),
}

impl Schedule {
    fn push(&mut self, due: SimTime, seq: u64, ev: Ev) {
        match self {
            Schedule::PerOwner(queues) => queues[ev.1].push_tagged(due, seq, ev),
            Schedule::Single(q) => q.push_tagged(due, seq, ev),
        }
    }

    /// The next instant with a queued event.
    fn peek(&mut self) -> Option<SimTime> {
        match self {
            Schedule::PerOwner(queues) => {
                earliest_key(queues.iter_mut().map(EventQueue::peek_key)).map(|(_, (due, _))| due)
            }
            Schedule::Single(q) => q.peek_key().map(|(due, _)| due),
        }
    }

    /// Pops every event due at `t`, grouped by owner.
    fn drain(&mut self, t: SimTime, owners: usize) -> Vec<Vec<(u64, Ev)>> {
        let mut slices = vec![Vec::new(); owners];
        match self {
            Schedule::PerOwner(queues) => {
                for (slice, q) in slices.iter_mut().zip(queues) {
                    while q.peek_key().is_some_and(|(due, _)| due == t) {
                        let (_, seq, ev) = q.pop_keyed().expect("peeked");
                        slice.push((seq, ev));
                    }
                }
            }
            Schedule::Single(q) => {
                while let Some((seq, ev)) = q.pop_at(t) {
                    slices[ev.1].push((seq, ev));
                }
            }
        }
        slices
    }

    /// Events popped so far.
    fn pops(&self) -> u64 {
        match self {
            Schedule::PerOwner(queues) => queues.iter().map(EventQueue::events_processed).sum(),
            Schedule::Single(q) => q.events_processed(),
        }
    }
}

/// A follow-up push's delay: same instant, within a few ticks, across
/// the bucket window, or beyond it into the overflow level.
fn delay_ms(kind: u8, raw: u64) -> u64 {
    match kind {
        0 | 1 => 0,
        2 => raw % 4 * 500,
        3 => raw % 200 * 500,
        _ => 4_300_000 + raw % 2_000 * 500,
    }
}

/// Runs an engine-shaped loop over `schedule` and records every drain.
///
/// The workload is an arrival stream: the block of tags `0..n` is
/// reserved up front and each arrival is pushed with its tag only when
/// the run reaches its instant — after larger runtime tags may already
/// wait there. Every popped event, in global seq order, takes the next
/// entry of `reactions` and pushes its follow-ups with fresh tags,
/// same-instant ones included, after the instant was drained.
fn drive(
    mut schedule: Schedule,
    owners: usize,
    arrivals: &[(u64, usize)],
    reactions: &[Vec<(u8, u64, usize)>],
) -> (Vec<Run>, u64) {
    let mut next_seq = arrivals.len() as u64;
    let mut next_id = arrivals.len() as u32;
    let mut pending = arrivals.iter().enumerate().peekable();
    let mut script = reactions.iter();
    let mut runs = Vec::new();
    loop {
        let t = loop {
            let queued = schedule.peek();
            let Some(&(_, &(at, _))) = pending.peek() else {
                break queued;
            };
            let at = SimTime::from_millis(at);
            if queued.is_some_and(|q| q < at) {
                break queued;
            }
            while let Some((i, &(_, owner))) = pending.next_if(|(_, a)| a.0 == at.as_millis()) {
                schedule.push(at, i as u64, (i as u32, owner % owners));
            }
        };
        let Some(t) = t else {
            break;
        };
        let slices = schedule.drain(t, owners);
        let mut run: Vec<u64> = slices.iter().flatten().map(|&(seq, _)| seq).collect();
        run.sort_unstable();
        for _ in run {
            for &(kind, raw, owner) in script.next().into_iter().flatten() {
                let due = t + SimDuration::from_millis(delay_ms(kind, raw));
                schedule.push(due, next_seq, (next_id, owner % owners));
                next_seq += 1;
                next_id += 1;
            }
        }
        runs.push((t, slices));
    }
    (runs, schedule.pops())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One queue drained instant by instant hands each owner the same
    /// events in the same order as per-owner queues merged by
    /// `earliest_key`: same instants, same slices, same pop count.
    #[test]
    fn one_queue_matches_per_owner_queues_merged_by_key(
        owners in 1usize..6,
        gaps in prop::collection::vec((0u64..4, 0usize..6), 0..60),
        reactions in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..1_000_000, 0usize..6), 0..3),
            0..250,
        )
    ) {
        // Arrival instants on a coarse 500 ms grid, nondecreasing, so
        // arrivals share instants with each other and with runtime
        // events.
        let mut at = 0;
        let arrivals: Vec<(u64, usize)> = gaps
            .iter()
            .map(|&(gap, owner)| {
                at += gap * 500;
                (at, owner)
            })
            .collect();
        let per_owner = Schedule::PerOwner((0..owners).map(|_| EventQueue::new()).collect());
        let (want, want_pops) = drive(per_owner, owners, &arrivals, &reactions);
        let (got, got_pops) = drive(Schedule::Single(EventQueue::new()), owners, &arrivals, &reactions);
        prop_assert_eq!(got, want, "drains diverged from the per-owner schedule");
        prop_assert_eq!(got_pops, want_pops);
    }

    /// The calendar queue pops the exact `(time, insertion-order)`
    /// sequence of the reference model across random interleavings.
    #[test]
    fn calendar_queue_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut next_id = 0u32;
        for op in ops {
            match op {
                Op::Push(delta) => {
                    let due = q.now() + SimDuration::from_millis(delta);
                    q.push(due, next_id);
                    reference.push(due.as_millis(), next_id);
                    next_id += 1;
                }
                Op::PushAfter(delta) => {
                    q.push_after(SimDuration::from_millis(delta), next_id);
                    reference.push(q.now().as_millis() + delta, next_id);
                    next_id += 1;
                }
                Op::Pop => {
                    let got = q.pop();
                    let want = reference.pop();
                    prop_assert_eq!(
                        got.map(|(t, id)| (t.as_millis(), id)),
                        want,
                        "pop order diverged from the reference model"
                    );
                }
            }
            prop_assert_eq!(q.len(), reference.pending.len());
        }
        // Drain both completely: every remaining event must match too.
        loop {
            let got = q.pop();
            let want = reference.pop();
            prop_assert_eq!(got.map(|(t, id)| (t.as_millis(), id)), want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Bulk loads (the enqueue-workload pattern): all pushes first, all
    /// pops after, across the full time range.
    #[test]
    fn bulk_enqueue_pops_sorted_and_fifo(
        deltas in prop::collection::vec(0u64..2_000_000_000, 1..300)
    ) {
        let mut q = EventQueue::with_capacity(deltas.len());
        for (i, &d) in deltas.iter().enumerate() {
            q.push(SimTime::from_millis(d), i);
        }
        let mut expected: Vec<(u64, usize)> = deltas.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(d, i)| (d, i));
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_millis(), i));
        }
        prop_assert_eq!(popped, expected);
    }
}
