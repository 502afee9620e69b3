//! The discrete-event queue.
//!
//! A timing wheel keyed by `(time, sequence)` (a hashed timing wheel in
//! the sense of Varghese & Lauck, SOSP 1987). The sequence number makes
//! the ordering of same-timestamp events the order in which they were
//! scheduled, which is what makes whole simulations deterministic and
//! therefore comparable across configurations.
//!
//! The queue relies on one invariant: nothing is ever scheduled before
//! the clock (`schedule` asserts `time >= now` in release builds too).
//! Keys therefore only move forward, and an event is filed by its
//! distance from the clock:
//!
//! * an event less than `SLOTS` (4,096) ns ahead goes to *slot*
//!   `time % SLOTS` of the wheel. The window `[now, now + SLOTS)` holds
//!   each slot index once, so a slot holds one timestamp at a time. Its
//!   events form an intrusive list through one slab of nodes with a free
//!   list, and every filing is an append: a new event takes the next
//!   `seq`, larger than any queued one, and far events migrate into
//!   empty slots in `(time, seq)` order. Two levels
//!   of `u64` bitmaps mark the non-empty slots, so the next one is a
//!   `trailing_zeros` away. The queue keeps the first two non-empty slots
//!   at hand (`ahead`): a pop reads its slot from there, and scans the
//!   bitmaps only when it empties a slot, to find the new second;
//! * a later event goes to a binary heap of *far* events keyed by
//!   `(time, seq)`. When a pop moves the clock, the far events that now
//!   fall inside the window move into their slots.
//!
//! A packet network schedules nearly everything within a few
//! microseconds (no Theta event lies 4,096 ns or more ahead of the clock),
//! so nearly every event is filed exactly once and popped from the head of
//! its slot. The slot arrays (32 KB) are allocated on the first schedule,
//! so a queue that never receives an event costs nothing, and the slab
//! follows the peak population of the wheel.
//!
//! [`EventQueue::peek_time`] and [`EventQueue::lookahead`] read the kept
//! slots and scan nothing. Loops that run up to a time bound use
//! [`EventQueue::pop_until`], which folds the bound check into the pop.

use crate::time::Ns;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Wheel width: events less than this many ns ahead of the clock are
/// filed in a slot, later ones in the far heap.
const SLOTS: usize = 4096;
const MASK: u64 = SLOTS as u64 - 1;
/// "No node": the end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;
/// "No slot" in `EventQueue::ahead`.
const NO_SLOT: usize = usize::MAX;

/// One pending event in a slot's list, or a free node (`event: None`).
/// Its time is the slot's.
struct Node<E> {
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// First and last node of one slot (`NIL` when empty).
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// An event at least `SLOTS` ns ahead of the clock, ordered so that the
/// max-heap pops the earliest `(time, seq)` first.
struct Far<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Far<E> {}

impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
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
    /// Slot `t % SLOTS` lists the pending events at time `t`, for every
    /// `t` in `[now, now + SLOTS)`. Empty until the first schedule.
    slots: Vec<Slot>,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is non-empty.
    words: [u64; SLOTS / 64],
    /// Bit `w` is set iff `words[w] != 0`.
    summary: u64,
    /// The earliest non-empty slot and the next non-empty one after it,
    /// in time order (`NO_SLOT` where the wheel holds fewer).
    ahead: [usize; 2],
    /// Node storage shared by all slot lists.
    nodes: Vec<Node<E>>,
    /// First node of the list of unused nodes.
    free: u32,
    /// Pending events at `now + SLOTS` or later.
    far: BinaryHeap<Far<E>>,
    /// Nodes to reserve with the slot arrays (see `with_capacity`).
    cap_hint: usize,
    len: usize,
    next_seq: u64,
    now: Ns,
    scheduled_total: u64,
    high_water: usize,
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

    /// An empty queue that will reserve room for about `cap` pending
    /// events. Like the slot arrays, the room is allocated on the first
    /// schedule.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::new(),
            words: [0; SLOTS / 64],
            summary: 0,
            ahead: [NO_SLOT; 2],
            nodes: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            cap_hint: cap,
            len: 0,
            next_seq: 0,
            now: Ns::ZERO,
            scheduled_total: 0,
            high_water: 0,
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
        assert!(self.next_seq != u64::MAX, "event sequence space exhausted");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.insert(time, seq, event);
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Ns, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// File an event with `time >= now`: in its slot when it lies inside
    /// the window, else in the far heap.
    #[inline]
    fn insert(&mut self, time: Ns, seq: u64, event: E) {
        if time.0 - self.now.0 < SLOTS as u64 {
            self.file(time.0, seq, event);
        } else {
            self.far.push(Far {
                time: time.0,
                seq,
                event,
            });
        }
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    #[cold]
    fn allocate_wheel(&mut self) {
        self.slots = vec![EMPTY_SLOT; SLOTS];
        self.nodes.reserve(self.cap_hint);
    }

    /// Append an event at `time` (inside the window) to its slot's list.
    /// Its `seq` is larger than any the slot holds (see the module docs),
    /// so the list stays in `seq` order.
    #[inline]
    fn file(&mut self, time: u64, seq: u64, event: E) {
        if self.slots.is_empty() {
            self.allocate_wheel();
        }
        let s = (time & MASK) as usize;
        let n = self.alloc_node(seq, event);
        let tail = self.slots[s].tail;
        if tail == NIL {
            self.slots[s] = Slot { head: n, tail: n };
            self.words[s / 64] |= 1 << (s % 64);
            self.summary |= 1 << (s / 64);
            self.keep_ahead(s);
        } else {
            debug_assert!(self.nodes[tail as usize].seq < seq, "an out-of-order filing");
            self.nodes[tail as usize].next = n;
            self.slots[s].tail = n;
        }
    }

    fn alloc_node(&mut self, seq: u64, event: E) -> u32 {
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            return n;
        }
        let n = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&n| n != NIL)
            .expect("event queue node space exhausted");
        self.nodes.push(node);
        n
    }

    /// Distance in ns from the clock to the time slot `s` holds.
    #[inline]
    fn dist(&self, s: usize) -> u64 {
        (s as u64).wrapping_sub(self.now.0) & MASK
    }

    /// Slot `s` just became non-empty: keep it if it is one of the first
    /// two.
    #[inline]
    fn keep_ahead(&mut self, s: usize) {
        let [first, second] = self.ahead;
        let d = self.dist(s);
        if first == NO_SLOT || d < self.dist(first) {
            self.ahead = [s, first];
        } else if second == NO_SLOT || d < self.dist(second) {
            self.ahead[1] = s;
        }
    }

    /// The first non-empty slot at or after slot `p` in cyclic order.
    /// The wheel must hold an event.
    #[inline]
    fn next_slot_from(&self, p: usize) -> usize {
        let w = p / 64;
        let bits = self.words[w] & (u64::MAX << (p % 64));
        if bits != 0 {
            return w * 64 + bits.trailing_zeros() as usize;
        }
        let later = self.summary & ((u64::MAX << w) << 1);
        let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        w * 64 + self.words[w].trailing_zeros() as usize
    }

    /// Time of the earliest pending event.
    #[inline]
    fn next_time(&self) -> Option<u64> {
        match self.ahead[0] {
            NO_SLOT => self.far.peek().map(|f| f.time),
            s => Some(self.now.0 + self.dist(s)),
        }
    }

    /// Move the clock forward to `time` and bring the far events that now
    /// fall inside the window into their slots. Their slots are empty:
    /// they alias the times between the old clock and `time`, which held
    /// no event.
    fn advance(&mut self, time: u64) {
        self.now = Ns(time);
        while self
            .far
            .peek()
            .is_some_and(|f| f.time - time < SLOTS as u64)
        {
            let f = self.far.pop().expect("peeked");
            self.file(f.time, f.seq, f.event);
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
    /// costs nothing extra.
    pub fn pop_until(&mut self, limit: Ns) -> Option<ScheduledEvent<E>> {
        let time = self.next_time()?;
        if time > limit.0 {
            return None;
        }
        if time != self.now.0 {
            self.advance(time);
        }
        let s = (time & MASK) as usize;
        debug_assert_eq!(s, self.ahead[0], "the kept first slot is stale");
        let n = self.slots[s].head;
        let node = &mut self.nodes[n as usize];
        let seq = node.seq;
        let event = node.event.take().expect("a listed node holds an event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = n;
        if next == NIL {
            self.slots[s] = EMPTY_SLOT;
            self.words[s / 64] &= !(1 << (s % 64));
            if self.words[s / 64] == 0 {
                self.summary &= !(1 << (s / 64));
            }
            // The second slot moves up; the scan for the slot after it,
            // which starts just past it in time order, is the only bitmap
            // scan a pop makes.
            let first = self.ahead[1];
            let second = match first {
                NO_SLOT => NO_SLOT,
                f => match self.next_slot_from((f + 1) & MASK as usize) {
                    wrapped if wrapped == f => NO_SLOT,
                    s => s,
                },
            };
            self.ahead = [first, second];
        } else {
            self.slots[s].head = next;
        }
        debug_assert!(
            self.far
                .peek()
                .is_none_or(|f| f.time - time >= SLOTS as u64),
            "a far event inside the window"
        );
        self.len -= 1;
        Some(ScheduledEvent {
            time: self.now,
            seq,
            event,
        })
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Ns> {
        self.next_time().map(Ns)
    }

    /// The events the next two pops would return if nothing were
    /// scheduled before them, without popping them or scanning.
    ///
    /// The first is `None` only on an empty queue. The second is `None`
    /// when the queue holds one event, and also when the wheel is empty
    /// (every pending event lies a whole window or more ahead of the
    /// clock), since the far heap shows only its earliest entry. A loop
    /// can use the answer as a hint (to warm what the coming events will
    /// touch): scheduling may put new events first, and reading ahead
    /// changes nothing.
    #[inline]
    pub fn lookahead(&self) -> [Option<&E>; 2] {
        let far = || self.far.peek().map(|f| &f.event);
        let [first, second] = self.ahead;
        if first == NO_SLOT {
            return [far(), None];
        }
        let head = &self.nodes[self.slots[first].head as usize];
        let next = if head.next != NIL {
            self.nodes[head.next as usize].event.as_ref()
        } else if second != NO_SLOT {
            self.nodes[self.slots[second].head as usize].event.as_ref()
        } else {
            far()
        };
        [head.event.as_ref(), next]
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
    #[should_panic(expected = "sequence space exhausted")]
    fn seq_exhaustion_is_detected() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.next_seq = u64::MAX; // simulate 2^64 prior schedules
        q.schedule(Ns(1), ());
    }

    #[test]
    fn slab_follows_peak_population_and_starts_unallocated() {
        // Nothing is allocated before the first schedule, even with a
        // capacity hint: an idle queue costs only its struct.
        let mut q = EventQueue::with_capacity(1_024);
        assert_eq!(q.slots.capacity(), 0);
        assert_eq!(q.nodes.capacity(), 0);
        assert_eq!(q.far.capacity(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.slots.capacity(), 0);
        // A steady hold of 1,000 pending events over 100,000 pops recycles
        // nodes through the free list: the slab never outgrows the peak
        // pending count.
        for i in 0..1_000u64 {
            q.schedule(Ns(1 + i % 97), i);
        }
        assert_eq!(q.slots.len(), SLOTS);
        let mut popped = 0u64;
        while let Some(e) = q.pop() {
            popped += 1;
            if popped < 100_000 {
                q.schedule_after(Ns(1 + (e.event * 7919) % 3_000), e.event);
            }
        }
        assert_eq!(popped, 100_000 + 999);
        assert_eq!(q.high_water(), 1_000);
        assert!(
            q.nodes.len() <= q.high_water(),
            "{} nodes > peak {}",
            q.nodes.len(),
            q.high_water()
        );
    }

    #[test]
    fn near_events_are_filed_once_and_far_ones_wait_in_the_heap() {
        let mut q = EventQueue::new();
        q.schedule(Ns(SLOTS as u64 - 1), "near");
        q.schedule(Ns(SLOTS as u64), "far");
        assert_eq!(q.far.len(), 1);
        assert_eq!(q.peek_time(), Some(Ns(SLOTS as u64 - 1)));
        assert_eq!(q.pop().unwrap().event, "near");
        // The clock moved to 4095: the far event is now inside the window.
        assert!(q.far.is_empty());
        assert_eq!(q.pop().unwrap().time, Ns(SLOTS as u64));
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

    /// Every slot list is in `seq` order with its tail at the end, and the
    /// bitmaps mark exactly the non-empty slots.
    fn check_slot_lists<E>(q: &EventQueue<E>) -> Result<(), String> {
        for (s, slot) in q.slots.iter().enumerate() {
            let marked = q.words[s / 64] & (1 << (s % 64)) != 0;
            if marked != (slot.head != NIL) {
                return Err(format!("slot {s}: bitmap {marked}, head {}", slot.head));
            }
            let (mut n, mut last) = (slot.head, NIL);
            while n != NIL {
                if last != NIL && q.nodes[last as usize].seq >= q.nodes[n as usize].seq {
                    return Err(format!("slot {s}: seq order broken at node {n}"));
                }
                (last, n) = (n, q.nodes[n as usize].next);
            }
            if last != slot.tail {
                return Err(format!("slot {s}: tail {} but the list ends at {last}", slot.tail));
            }
        }
        Ok(())
    }

    /// Slot lists stay append-only when far events migrate into the wheel
    /// as ties: far events bunched on a few timestamps, new events tied
    /// with pending keys (in the wheel or the heap) and pops that pull the
    /// far ones in. Every list keeps `seq` order after each operation, and
    /// pops come out in strictly increasing `(time, seq)`.
    #[test]
    fn slot_lists_stay_append_only_under_far_migration() {
        crate::proptest::check(
            "slot_lists_stay_append_only_under_far_migration",
            &crate::proptest::Config::with_cases(64),
            |rng| crate::proptest::gen::vec_u64(rng, 1, 500, 0, u64::MAX),
            |ops| {
                let mut q = EventQueue::new();
                let mut pending: Vec<Ns> = Vec::new();
                let mut last = None;
                let mut pop = |q: &mut EventQueue<()>, pending: &mut Vec<Ns>| {
                    let Some(e) = q.pop() else {
                        return Ok(());
                    };
                    let i = pending.iter().position(|&t| t == e.time).expect("popped a pending time");
                    pending.swap_remove(i);
                    if last.is_some_and(|l| (e.time, e.seq) <= l) {
                        return Err(format!("popped {:?} after {last:?}", (e.time, e.seq)));
                    }
                    last = Some((e.time, e.seq));
                    Ok(())
                };
                for &op in ops {
                    let arg = op >> 3;
                    let now = q.now();
                    let t = match op % 8 {
                        // Far events on a few timestamps.
                        0 | 1 => Some(now + Ns(SLOTS as u64 + arg % 4)),
                        // A tie with a pending key.
                        2 | 3 if !pending.is_empty() => Some(pending[arg as usize % pending.len()]),
                        4 => Some(now + Ns(arg % SLOTS as u64)),
                        _ => None,
                    };
                    match t {
                        Some(t) => {
                            q.schedule(t, ());
                            pending.push(t);
                        }
                        None => pop(&mut q, &mut pending)?,
                    }
                    check_slot_lists(&q)?;
                }
                while !q.is_empty() {
                    pop(&mut q, &mut pending)?;
                    check_slot_lists(&q)?;
                }
                Ok(())
            },
        );
    }
}
