//! The discrete-event queue.
//!
//! A monotone radix queue keyed by `(time, sequence)`. The sequence number
//! makes the ordering of same-timestamp events the order in which they
//! were scheduled, which is what makes whole simulations deterministic
//! and therefore comparable across configurations.
//!
//! The queue relies on one invariant: nothing is ever scheduled before
//! the clock (`schedule` and `schedule_reserved` assert `time >= now` in
//! release builds too). Keys therefore only move forward, and an event
//! can be filed by how far it lies from the clock instead of being
//! compared against its neighbours:
//!
//! * events at exactly `now` form the *current run*, kept in `seq`
//!   order — an append in the common case, a sorted insert when a
//!   reserved seq comes back behind queued ties at the same timestamp;
//! * every later event sits in one of 64 *buckets*, indexed by the
//!   highest set bit of `time ^ now`, with a `u64` mask of the non-empty
//!   ones.
//!
//! When the current run is empty, a pop scans the lowest non-empty bucket
//! for its minimum time `m`, moves the clock to `m` and refiles that
//! bucket: the events at `m` become the current run, the rest land in
//! strictly lower buckets. An event therefore moves at most 64 times over
//! its life, and with the narrow scheduling horizon of a packet network
//! (every delay below 2^12 ns on Theta) only a handful. Buckets are lists
//! of fixed 64-entry chunks from one shared free list, so the queue's
//! memory follows its peak population and no bucket keeps capacity of
//! its own.
//!
//! The price is the peek: [`EventQueue::peek_time`] scans one bucket.
//! Loops that run up to a time bound use [`EventQueue::pop_until`], which
//! folds the bound check into the pop.

use crate::time::Ns;
use std::collections::VecDeque;

/// An event drawn from the queue: the firing time plus the user payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// Simulated time at which the event fires.
    pub time: Ns,
    /// Scheduling sequence number (unique, monotone).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

/// Entries per chunk.
const CHUNK: usize = 64;
/// "No chunk": the end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// A fixed-capacity block of bucket entries, linked into one bucket's
/// list or into the free list. Its allocation lives as long as the
/// queue, so refiling a bucket allocates nothing.
struct Chunk<E> {
    entries: Vec<Entry<E>>,
    next: u32,
}

/// First and last chunk of one bucket (`NIL` when empty). Pushes append
/// to the last chunk; entries inside a bucket are in no particular order.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// Bucket of a key that differs from the clock (`diff = time ^ now != 0`).
#[inline]
fn bucket_of(diff: u64) -> usize {
    debug_assert_ne!(diff, 0);
    63 - diff.leading_zeros() as usize
}

/// A deterministic discrete-event queue.
///
/// ```
/// use dfly_engine::{EventQueue, Ns};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Ns(20), "second");
/// q.schedule(Ns(10), "first");
/// q.schedule(Ns(20), "third"); // same time: FIFO by schedule order
/// assert_eq!(q.pop().unwrap().event, "first");
/// assert!(q.pop_until(Ns(19)).is_none()); // the next event fires at 20
/// assert_eq!(q.pop_until(Ns(20)).unwrap().event, "second");
/// assert_eq!(q.pop().unwrap().event, "third");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Pending events at exactly `now`, in `seq` order: the next pops.
    current: VecDeque<Entry<E>>,
    /// Pending events after `now`, filed by the highest bit of `time ^ now`.
    buckets: [Bucket; 64],
    /// Bit `i` is set iff bucket `i` holds an event.
    occupied: u64,
    /// Chunk storage shared by all buckets.
    chunks: Vec<Chunk<E>>,
    /// First chunk of the list of unused chunks.
    free: u32,
    len: usize,
    next_seq: u64,
    now: Ns,
    scheduled_total: u64,
    high_water: usize,
    /// `(time, seq)` of the most recently popped event. Guards the
    /// reserved-sequence protocol: a reserved seq handed back *after* the
    /// clock passed its slot would fire behind later-seq events of the
    /// same timestamp, silently breaking total order.
    last_key: Option<(Ns, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue whose chunk table has room for about `cap` pending
    /// events; the chunks themselves are allocated as events arrive.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            current: VecDeque::new(),
            buckets: [EMPTY_BUCKET; 64],
            occupied: 0,
            chunks: Vec::with_capacity(cap.div_ceil(CHUNK)),
            free: NIL,
            len: 0,
            next_seq: 0,
            now: Ns::ZERO,
            scheduled_total: 0,
            high_water: 0,
            last_key: None,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    ///
    /// Panics if `time` is before the current simulation time: causality
    /// violations are always a modelling bug and would otherwise silently
    /// corrupt results (and break the queue's monotone filing).
    pub fn schedule(&mut self, time: Ns, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={time:?} < now={:?}",
            self.now
        );
        let seq = self.reserve_seq();
        self.insert(time, seq, event);
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Ns, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Reserve the next sequence number for an event the caller will keep
    /// outside the queue and hand back later via
    /// [`EventQueue::schedule_reserved`].
    ///
    /// The reservation counts as one scheduled event: the caller is
    /// promising that the event will eventually be processed in `(time,
    /// seq)` order, it just does not need a queue entry yet. This is what
    /// lets per-channel FIFOs hold their tail events out of the queue
    /// without perturbing the global deterministic order.
    pub fn reserve_seq(&mut self) -> u64 {
        assert!(self.next_seq != u64::MAX, "event sequence space exhausted");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        seq
    }

    /// Schedule `event` under a sequence number previously obtained from
    /// [`EventQueue::reserve_seq`].
    ///
    /// Unlike [`EventQueue::schedule`] this allocates no new sequence
    /// number and does not bump the scheduled-event total — the event was
    /// already accounted for when its number was reserved.
    pub fn schedule_reserved(&mut self, time: Ns, seq: u64, event: E) {
        assert!(
            time >= self.now,
            "reserved event scheduled in the past: t={time:?} < now={:?}",
            self.now
        );
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        // A reserved seq handed back after the clock already processed a
        // later key at the same timestamp would pop *behind* events it
        // should precede — the total (time, seq) order would silently
        // break even though `time >= now` holds.
        debug_assert!(
            self.last_key.is_none_or(|last| (time, seq) > last),
            "reserved event (t={time:?}, seq={seq}) scheduled behind the \
             already-processed key {:?} — equal-timestamp order violated",
            self.last_key
        );
        self.insert(time, seq, event);
    }

    /// File an event with `time >= now`.
    #[inline]
    fn insert(&mut self, time: Ns, seq: u64, event: E) {
        let entry = Entry {
            time: time.0,
            seq,
            event,
        };
        let diff = time.0 ^ self.now.0;
        if diff != 0 {
            self.push_bucket(bucket_of(diff), entry);
        } else if self.current.back().is_none_or(|last| last.seq < seq) {
            self.current.push_back(entry);
        } else {
            // A reserved seq coming back behind queued ties.
            let at = self.current.partition_point(|e| e.seq < seq);
            self.current.insert(at, entry);
        }
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    #[inline]
    fn push_bucket(&mut self, b: usize, entry: Entry<E>) {
        let tail = self.buckets[b].tail;
        if tail != NIL {
            let entries = &mut self.chunks[tail as usize].entries;
            if entries.len() < CHUNK {
                entries.push(entry);
                return;
            }
        }
        let c = self.alloc_chunk();
        self.chunks[c as usize].entries.push(entry);
        if tail == NIL {
            self.buckets[b].head = c;
            self.occupied |= 1 << b;
        } else {
            self.chunks[tail as usize].next = c;
        }
        self.buckets[b].tail = c;
    }

    fn alloc_chunk(&mut self) -> u32 {
        if self.free != NIL {
            let c = self.free;
            let chunk = &mut self.chunks[c as usize];
            self.free = chunk.next;
            chunk.next = NIL;
            return c;
        }
        let c = u32::try_from(self.chunks.len())
            .ok()
            .filter(|&c| c != NIL)
            .expect("event queue chunk space exhausted");
        self.chunks.push(Chunk {
            entries: Vec::with_capacity(CHUNK),
            next: NIL,
        });
        c
    }

    /// Earliest time held in bucket `b` (which must be non-empty).
    fn bucket_min(&self, b: usize) -> u64 {
        let mut min = u64::MAX;
        let mut c = self.buckets[b].head;
        while c != NIL {
            let chunk = &self.chunks[c as usize];
            for e in &chunk.entries {
                min = min.min(e.time);
            }
            c = chunk.next;
        }
        min
    }

    /// Advance the clock to `min`, the earliest time in bucket `b` (the
    /// lowest non-empty bucket, with the current run empty), and refile
    /// the bucket: its events at `min` become the current run, every
    /// other one lands in a lower bucket.
    fn refile(&mut self, b: usize, min: u64) {
        debug_assert!(self.current.is_empty());
        debug_assert_eq!(self.occupied.trailing_zeros() as usize, b);
        self.now = Ns(min);
        let mut c = self.buckets[b].head;
        self.buckets[b] = EMPTY_BUCKET;
        self.occupied &= !(1 << b);
        let mut in_order = true;
        while c != NIL {
            let mut entries = std::mem::take(&mut self.chunks[c as usize].entries);
            for e in entries.drain(..) {
                let diff = e.time ^ min;
                if diff != 0 {
                    self.push_bucket(bucket_of(diff), e);
                } else {
                    in_order &= self.current.back().is_none_or(|last| last.seq < e.seq);
                    self.current.push_back(e);
                }
            }
            let chunk = &mut self.chunks[c as usize];
            chunk.entries = entries;
            let next = chunk.next;
            chunk.next = self.free;
            self.free = c;
            c = next;
        }
        if !in_order {
            self.current
                .make_contiguous()
                .sort_unstable_by_key(|e| e.seq);
        }
    }

    /// Pop the earliest event and advance the clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(Ns::MAX)
    }

    /// Pop the earliest event if it fires no later than `limit`, advancing
    /// the clock to it; otherwise leave the queue and the clock as they
    /// are and return `None`.
    ///
    /// This is how a bounded loop should drain the queue: the bound check
    /// costs nothing extra, where a [`EventQueue::peek_time`] before every
    /// pop would scan a bucket each time.
    pub fn pop_until(&mut self, limit: Ns) -> Option<ScheduledEvent<E>> {
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let min = self.bucket_min(b);
            if min > limit.0 {
                return None;
            }
            self.refile(b, min);
        } else if self.now > limit {
            return None;
        }
        let e = self.current.pop_front()?;
        debug_assert_eq!(e.time, self.now.0);
        debug_assert!(
            self.last_key.is_none_or(|last| (self.now, e.seq) > last),
            "queue produced a key at or behind the last processed event"
        );
        self.len -= 1;
        self.last_key = Some((self.now, e.seq));
        Some(ScheduledEvent {
            time: self.now,
            seq: e.seq,
            event: e.event,
        })
    }

    /// The firing time of the earliest pending event. Scans one bucket
    /// when no event is pending at the current time.
    pub fn peek_time(&self) -> Option<Ns> {
        if !self.current.is_empty() {
            return Some(self.now);
        }
        (self.occupied != 0).then(|| Ns(self.bucket_min(self.occupied.trailing_zeros() as usize)))
    }

    /// Current simulation time (time of the most recently popped event).
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (a cheap progress metric).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Deepest the queue has ever been (pending events at any instant).
    ///
    /// A memory and churn diagnostic: a dragonfly run's event population
    /// tracks in-flight packets, so the high-water mark exposes injection
    /// bursts that `scheduled_total` averages away.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Ns(30), 3);
        q.schedule(Ns(10), 1);
        q.schedule(Ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_broken_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Ns(7), ());
        q.schedule(Ns(42), ());
        assert_eq!(q.now(), Ns::ZERO);
        q.pop();
        assert_eq!(q.now(), Ns(7));
        q.pop();
        assert_eq!(q.now(), Ns(42));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), "a");
        q.pop();
        q.schedule_after(Ns(5), "b");
        let e = q.pop().unwrap();
        assert_eq!(e.time, Ns(105));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), ());
        q.pop();
        q.schedule(Ns(5), ());
    }

    #[test]
    #[should_panic(expected = "reserved event scheduled in the past")]
    fn reserved_event_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), ());
        let held = q.reserve_seq();
        q.pop();
        q.schedule_reserved(Ns(5), held, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Ns(1), ());
        q.schedule(Ns(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(Ns(9), 1);
        q.schedule(Ns(4), 2);
        assert_eq!(q.peek_time(), Some(Ns(4)));
        let e = q.pop().unwrap();
        assert_eq!(e.time, Ns(4));
        assert_eq!(q.peek_time(), Some(Ns(9)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_until_stops_before_limit() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), "a");
        q.schedule(Ns(10), "b");
        q.schedule(Ns(25), "c");
        assert!(q.pop_until(Ns(9)).is_none());
        // A refused pop leaves the clock alone, so times between the
        // clock and the refused event stay schedulable.
        assert_eq!(q.now(), Ns::ZERO);
        q.schedule(Ns(5), "early");
        assert_eq!(q.pop_until(Ns(9)).unwrap().event, "early");
        assert_eq!(q.pop_until(Ns(10)).unwrap().event, "a");
        assert_eq!(q.pop_until(Ns(10)).unwrap().event, "b");
        assert!(q.pop_until(Ns(24)).is_none());
        assert_eq!(q.now(), Ns(10));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(Ns(25)).unwrap().event, "c");
        assert!(q.pop_until(Ns::MAX).is_none());
    }

    #[test]
    fn scheduled_total_counts_everything() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(Ns(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 10);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule(Ns(1), ());
        q.schedule(Ns(2), ());
        q.schedule(Ns(3), ());
        q.pop();
        q.pop();
        // Draining does not lower the mark...
        assert_eq!(q.high_water(), 3);
        q.schedule(Ns(4), ());
        assert_eq!(q.high_water(), 3);
        // ...and only a deeper peak raises it.
        q.schedule(Ns(5), ());
        q.schedule(Ns(6), ());
        assert_eq!(q.high_water(), 4);
    }

    #[test]
    fn reserved_events_keep_schedule_order() {
        // A reserved event interleaved with normal schedules must pop in
        // reservation order, not insertion order.
        let mut q = EventQueue::new();
        q.schedule(Ns(10), "a"); // seq 0
        let seq = q.reserve_seq(); // seq 1
        q.schedule(Ns(10), "c"); // seq 2
        q.schedule_reserved(Ns(10), seq, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);

        // Handed back once the clock already sits at its timestamp, with
        // ties pending there: it is inserted between them, not appended.
        q.schedule(Ns(20), "d"); // seq 3
        let seq = q.reserve_seq(); // seq 4
        q.schedule(Ns(20), "f"); // seq 5
        q.schedule(Ns(20), "g"); // seq 6
        assert_eq!(q.pop().unwrap().event, "d");
        q.schedule_reserved(Ns(20), seq, "e");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["e", "f", "g"]);
    }

    #[test]
    fn reservation_counts_once_toward_scheduled_total() {
        let mut q = EventQueue::new();
        q.schedule(Ns(1), ());
        let seq = q.reserve_seq();
        assert_eq!(q.scheduled_total(), 2);
        q.schedule_reserved(Ns(2), seq, ());
        assert_eq!(
            q.scheduled_total(),
            2,
            "late queue insertion double-counted"
        );
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert-only guard")]
    #[should_panic(expected = "equal-timestamp order violated")]
    fn stale_reserved_seq_behind_processed_tie_is_caught() {
        // seq 0 is reserved, then two direct events at the same timestamp
        // are scheduled *and processed*. Handing seq 0 back now would make
        // it pop after events it should precede — the exact interleaving
        // the (time, seq) total order exists to forbid.
        let mut q = EventQueue::new();
        let stale = q.reserve_seq(); // seq 0, held at Ns(10)
        q.schedule(Ns(10), "a"); // seq 1
        q.schedule(Ns(10), "b"); // seq 2
        q.pop();
        q.pop();
        q.schedule_reserved(Ns(10), stale, "late");
    }

    #[test]
    #[should_panic(expected = "sequence space exhausted")]
    fn seq_exhaustion_is_detected() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.next_seq = u64::MAX; // simulate 2^64 prior schedules
        q.reserve_seq();
    }

    #[test]
    fn chunks_are_reused_across_refills() {
        // A steady hold of 1,000 pending events over 100,000 pops recycles
        // chunks through the free list: the pool stays at what one
        // instant needs (full chunks plus one partial tail per bucket, and
        // the chunk being refiled) instead of growing with every refile.
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule(Ns(1 + i % 97), i);
        }
        let mut popped = 0u64;
        while let Some(e) = q.pop() {
            popped += 1;
            if popped < 100_000 {
                q.schedule_after(Ns(1 + (e.event * 7919) % 3_000), e.event);
            }
        }
        assert_eq!(popped, 100_000 + 999);
        let bound = 1_000 / CHUNK + 64 + 1;
        assert!(
            q.chunks.len() <= bound,
            "{} chunks > {bound}",
            q.chunks.len()
        );
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        // Simulates a cascading event pattern: popped events schedule
        // successors (bounded by a budget — an unbounded binary cascade
        // would be 2^50 events). Order must stay strictly causal.
        let mut q = EventQueue::new();
        q.schedule(Ns(0), 0u64);
        let mut last = Ns::ZERO;
        let mut count = 0u64;
        let mut budget = 2_000u64;
        while let Some(e) = q.pop() {
            assert!(e.time >= last);
            last = e.time;
            count += 1;
            if budget > 0 {
                budget -= 1;
                q.schedule_after(Ns(3), e.event + 1);
                q.schedule_after(Ns(1), e.event + 1);
            }
        }
        assert_eq!(count, 2 * 2_000 + 1);
    }
}
