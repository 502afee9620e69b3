//! Property tests for the engine: total ordering of the event queue and
//! statistical sanity of the RNG under arbitrary seeds. Runs on the
//! in-tree harness (`dfly_engine::proptest`) — no external crates.

use dfly_engine::proptest::{check, check_with_shrink, gen, shrink, Config};
use dfly_engine::{Bandwidth, EventQueue, Ns, Xoshiro256};

/// Popping returns events in (time, insertion) order for any schedule.
#[test]
fn queue_total_order() {
    check_with_shrink(
        "queue_total_order",
        &Config::with_cases(64),
        |rng| gen::vec_u64(rng, 1, 300, 0, 9_999),
        |times| shrink::vec(times, |&t| shrink::u64_toward(0, t)),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Ns(t), i);
            }
            let mut prev_time = Ns::ZERO;
            let mut seen_at_time: Vec<usize> = Vec::new();
            let mut last_time = None;
            while let Some(e) = q.pop() {
                if e.time < prev_time {
                    return Err(format!("time went backwards at {:?}", e.time));
                }
                if last_time == Some(e.time) {
                    // FIFO within a timestamp: insertion indices increase.
                    if *seen_at_time.last().unwrap() >= e.event {
                        return Err(format!("FIFO violated at {:?}", e.time));
                    }
                    seen_at_time.push(e.event);
                } else {
                    seen_at_time = vec![e.event];
                    last_time = Some(e.time);
                }
                prev_time = e.time;
            }
            Ok(())
        },
    );
}

/// Every scheduled event is popped exactly once.
#[test]
fn queue_conservation() {
    check_with_shrink(
        "queue_conservation",
        &Config::with_cases(64),
        |rng| gen::vec_u64(rng, 0, 200, 0, 999),
        |times| shrink::vec(times, |&t| shrink::u64_toward(0, t)),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Ns(t), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some(e) = q.pop() {
                if seen[e.event] {
                    return Err(format!("event {} popped twice", e.event));
                }
                seen[e.event] = true;
            }
            if seen.iter().all(|&s| s) {
                Ok(())
            } else {
                Err("some events never popped".into())
            }
        },
    );
}

/// Serialization time is monotone in bytes and antitone in bandwidth.
#[test]
fn serialization_monotonicity() {
    check(
        "serialization_monotonicity",
        &Config::with_cases(64),
        |rng| {
            (
                rng.range_inclusive(1, 999_999),
                rng.range_inclusive(0, 999_999),
                rng.range_inclusive(1, 9_999),
            )
        },
        |&(bytes_a, delta, bw_hundredths)| {
            let bw = Bandwidth::from_gib_per_sec_hundredths(bw_hundredths);
            let faster = Bandwidth::from_gib_per_sec_hundredths(bw_hundredths * 2);
            if bw.serialization_time(bytes_a + delta) < bw.serialization_time(bytes_a) {
                return Err("more bytes serialized faster".into());
            }
            if faster.serialization_time(bytes_a) > bw.serialization_time(bytes_a) {
                return Err("faster link serialized slower".into());
            }
            Ok(())
        },
    );
}

/// range_inclusive stays in range for arbitrary bounds and seeds.
#[test]
fn rng_range_inclusive_in_bounds() {
    check(
        "rng_range_inclusive_in_bounds",
        &Config::with_cases(64),
        |rng| {
            (
                rng.next_u64(),
                rng.range_inclusive(0, 999),
                rng.range_inclusive(0, 999),
            )
        },
        |&(seed, lo, span)| {
            let mut rng = Xoshiro256::seed_from(seed);
            let hi = lo + span;
            for _ in 0..50 {
                let v = rng.range_inclusive(lo, hi);
                if !(lo..=hi).contains(&v) {
                    return Err(format!("{v} outside [{lo}, {hi}]"));
                }
            }
            Ok(())
        },
    );
}

/// shuffle preserves multiset membership for arbitrary content.
#[test]
fn rng_shuffle_is_permutation() {
    check(
        "rng_shuffle_is_permutation",
        &Config::with_cases(64),
        |rng| {
            let seed = rng.next_u64();
            let v = gen::vec_u64(rng, 0, 100, 0, u64::MAX);
            (seed, v)
        },
        |(seed, v)| {
            let mut rng = Xoshiro256::seed_from(*seed);
            let mut shuffled = v.clone();
            rng.shuffle(&mut shuffled);
            let mut original = v.clone();
            original.sort_unstable();
            shuffled.sort_unstable();
            if original == shuffled {
                Ok(())
            } else {
                Err("shuffle changed the multiset".into())
            }
        },
    );
}

/// split() children with different tags produce different streams.
#[test]
fn rng_split_streams_differ() {
    check(
        "rng_split_streams_differ",
        &Config::with_cases(64),
        |rng| rng.next_u64(),
        |&seed| {
            let mut a = Xoshiro256::seed_from(seed).split(1);
            let mut b = Xoshiro256::seed_from(seed).split(2);
            let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
            if same < 4 {
                Ok(())
            } else {
                Err(format!("streams nearly identical ({same}/32 equal)"))
            }
        },
    );
}

/// Arrivals reserve their `(time, seq)` key the way the network's do: by
/// being scheduled at transmission start, with landing times monotone per
/// channel. Under arbitrary interleavings with direct schedules and pops
/// they keep the global (time, seq) total order, and each channel's
/// arrivals pop in the order they were scheduled.
#[test]
fn queue_reserved_interleaving_total_order() {
    #[derive(Debug)]
    enum Ev {
        Direct,
        /// The `n`-th arrival scheduled on channel `ch`.
        Arrive { ch: usize, n: u64 },
    }
    const CHANNELS: usize = 4;

    struct Run {
        q: EventQueue<Ev>,
        /// Per channel: arrivals scheduled, arrivals popped, last landing.
        scheduled: [u64; CHANNELS],
        popped: [u64; CHANNELS],
        last_at: [Ns; CHANNELS],
        processed: Vec<(Ns, u64)>,
    }

    impl Run {
        fn process_one(&mut self) -> Result<(), String> {
            let Some(e) = self.q.pop() else {
                return Ok(());
            };
            self.processed.push((e.time, e.seq));
            if let Ev::Arrive { ch, n } = e.event {
                if n != self.popped[ch] {
                    return Err(format!(
                        "channel {ch}: arrival {n} popped, expected {}",
                        self.popped[ch]
                    ));
                }
                self.popped[ch] += 1;
            }
            Ok(())
        }
    }

    check(
        "queue_reserved_interleaving_total_order",
        &Config::with_cases(64),
        |rng| gen::vec_u64(rng, 1, 400, 0, 999_999),
        |ops| {
            let mut r = Run {
                q: EventQueue::new(),
                scheduled: [0; CHANNELS],
                popped: [0; CHANNELS],
                last_at: [Ns::ZERO; CHANNELS],
                processed: Vec::new(),
            };
            for &op in ops {
                let delay = Ns((op / 4) % 64);
                match op % 4 {
                    0 => r.q.schedule(r.q.now() + delay, Ev::Direct),
                    1 => {
                        // Landing times are monotone per channel, as
                        // serialized transmissions make them.
                        let ch = (op / 256) as usize % CHANNELS;
                        let t = (r.q.now() + delay).max(r.last_at[ch]);
                        let n = r.scheduled[ch];
                        r.q.schedule(t, Ev::Arrive { ch, n });
                        r.scheduled[ch] += 1;
                        r.last_at[ch] = t;
                    }
                    _ => r.process_one()?,
                }
            }
            while !r.q.is_empty() {
                r.process_one()?;
            }
            if r.popped != r.scheduled {
                return Err(format!(
                    "arrivals popped {:?}, scheduled {:?}",
                    r.popped, r.scheduled
                ));
            }
            for w in r.processed.windows(2) {
                if w[1] <= w[0] {
                    return Err(format!("total order violated: {:?} then {:?}", w[0], w[1]));
                }
            }
            Ok(())
        },
    );
}

/// The timing-wheel queue against a `BTreeMap<(time, seq), payload>`
/// oracle: random interleavings of ties at `now`, delays from 0 to 2^40
/// ns, times near `u64::MAX`, `pop`, and `pop_until` with limits below,
/// at and above the next key. The wheel's edges get ops of their own:
/// delays of exactly 4095, 4096 and 4097 ns, slots whose index wraps
/// below the clock's, far events bunched onto a few timestamps (so they
/// migrate into the wheel as ties), new events tied with any pending
/// key, a clock brought to exactly one window short of a far key and a
/// tie scheduled there, and a window drained so that `pop_until` is refused and
/// `peek_time` answered with only far events pending. Every popped event,
/// `peek_time()`, `lookahead()`, `len()`, `high_water()` and
/// `scheduled_total()` must agree after each operation, and a refused pop
/// must leave the clock.
#[test]
fn queue_matches_btreemap_oracle() {
    use std::collections::BTreeMap;

    /// The wheel's width in ns: the queue's private `SLOTS`.
    const WHEEL: u64 = 4096;

    struct Model {
        q: EventQueue<u64>,
        oracle: BTreeMap<(Ns, u64), u64>,
        next_seq: u64,
        high_water: usize,
        next_payload: u64,
    }

    impl Model {
        fn now(&self) -> Ns {
            self.q.now()
        }

        fn payload(&mut self) -> u64 {
            self.next_payload += 1;
            self.next_payload
        }

        fn schedule(&mut self, t: Ns) {
            let p = self.payload();
            self.q.schedule(t, p);
            self.oracle.insert((t, self.next_seq), p);
            self.next_seq += 1;
            self.high_water = self.high_water.max(self.oracle.len());
        }

        fn pop_until(&mut self, limit: Ns) -> Result<(), String> {
            let want = match self.oracle.first_key_value() {
                Some((&(t, seq), &p)) if t <= limit => {
                    self.oracle.pop_first();
                    Some((t, seq, p))
                }
                _ => None,
            };
            let before = self.now();
            let got = self.q.pop_until(limit).map(|e| (e.time, e.seq, e.event));
            if got.is_none() && self.now() != before {
                return Err(format!(
                    "refused pop_until({limit:?}) moved the clock from {before:?} to {:?}",
                    self.now()
                ));
            }
            if got != want {
                return Err(format!(
                    "pop_until({limit:?}) at now={:?}: got {got:?}, want {want:?}",
                    self.now()
                ));
            }
            Ok(())
        }

        fn check_counters(&self) -> Result<(), String> {
            // The lookahead reads the oracle's first two keys: the second
            // may be missing only when every pending event is far.
            let [first, second] = self.q.lookahead().map(|e| e.copied());
            let mut keys = self.oracle.iter();
            let (want1, want2) = (keys.next(), keys.next());
            if first != want1.map(|(_, &p)| p) {
                return Err(format!(
                    "lookahead first {first:?} vs {want1:?} at now={:?}",
                    self.now()
                ));
            }
            let far_only = want1.is_some_and(|(&(t, _), _)| t.0 - self.now().0 >= WHEEL);
            match (second, want2) {
                (Some(p), Some((_, &w))) if p == w => {}
                (None, None) => {}
                (None, Some(_)) if far_only => {}
                _ => {
                    return Err(format!(
                        "lookahead second {second:?} vs {want2:?} at now={:?}",
                        self.now()
                    ))
                }
            }
            let next = self.oracle.first_key_value().map(|(&(t, _), _)| t);
            if self.q.peek_time() != next {
                return Err(format!(
                    "peek_time {:?} vs {next:?} at now={:?}",
                    self.q.peek_time(),
                    self.now()
                ));
            }
            if self.q.len() != self.oracle.len() {
                return Err(format!("len {} vs {}", self.q.len(), self.oracle.len()));
            }
            if self.q.high_water() != self.high_water {
                return Err(format!(
                    "high_water {} vs {}",
                    self.q.high_water(),
                    self.high_water
                ));
            }
            if self.q.scheduled_total() != self.next_seq {
                return Err(format!(
                    "scheduled_total {} vs {}",
                    self.q.scheduled_total(),
                    self.next_seq
                ));
            }
            Ok(())
        }
    }

    check_with_shrink(
        "queue_matches_btreemap_oracle",
        &Config::with_cases(64),
        |rng| gen::vec_u64(rng, 1, 600, 0, u64::MAX),
        |ops| shrink::vec(ops, |&op| shrink::u64_toward(0, op)),
        |ops| {
            let mut m = Model {
                q: EventQueue::new(),
                oracle: BTreeMap::new(),
                next_seq: 0,
                high_water: 0,
                next_payload: 0,
            };
            for &op in ops {
                let arg = op >> 4;
                let now = m.now();
                // Saturating: once the clock reaches the top bucket, every
                // later event lands at u64::MAX.
                let after = |d: u64| Ns(now.0.saturating_add(d));
                match op % 18 {
                    // Ties at the current time.
                    0 | 1 => m.schedule(now),
                    // Theta-like short delays.
                    2..=4 => m.schedule(after(arg % 4_096)),
                    // Log-uniform delays up to 2^40 ns.
                    5 => {
                        let width = arg % 41;
                        m.schedule(after((arg >> 6) & ((1 << width) - 1)))
                    }
                    // The top bucket.
                    6 => m.schedule(Ns(u64::MAX - arg % 1_024).max(now)),
                    7..=9 => m.pop_until(Ns::MAX)?,
                    // Exactly at the wheel's edge.
                    10 => m.schedule(after([WHEEL - 1, WHEEL, WHEEL + 1][arg as usize % 3])),
                    // A slot whose index wraps below the clock's.
                    11 => {
                        let wrap = WHEEL - now.0 % WHEEL;
                        m.schedule(after(wrap + arg % (WHEEL - wrap).max(1)))
                    }
                    // Far events on a few timestamps.
                    12 => m.schedule(after(WHEEL + arg % 8)),
                    // A tie with any pending key, in the wheel or the heap.
                    13 => {
                        if !m.oracle.is_empty() {
                            let i = arg as usize % m.oracle.len();
                            let &(t, _) = m.oracle.keys().nth(i).expect("i < len");
                            m.schedule(t);
                        }
                    }
                    // Drain the window, then pop short of the next key: it
                    // is refused, and only far events may be pending.
                    14 => {
                        loop {
                            let next = m.oracle.first_key_value().map(|(&(t, _), _)| t);
                            match next {
                                Some(t) if t.0 - now.0 < WHEEL => {
                                    m.pop_until(Ns(now.0.saturating_add(WHEEL - 1)))?
                                }
                                _ => break,
                            }
                        }
                        m.check_counters()?;
                        if let Some((&(t, _), _)) = m.oracle.first_key_value() {
                            let short = m.now().0 + arg % (t.0 - m.now().0).max(1);
                            m.pop_until(Ns(short.min(t.0 - 1)))?;
                        }
                    }
                    // Bring the clock to exactly one window short of a
                    // far key, the first instant it belongs in the wheel,
                    // and tie a new event with it there.
                    15 => {
                        let far: Vec<Ns> = m
                            .oracle
                            .keys()
                            .map(|&(t, _)| t)
                            .filter(|t| t.0 - now.0 >= WHEEL)
                            .collect();
                        if !far.is_empty() {
                            let t = far[arg as usize % far.len()];
                            let edge = Ns(t.0 - (WHEEL - 1));
                            m.schedule(edge);
                            while m.now() < edge {
                                m.pop_until(edge)?;
                            }
                            m.schedule(t);
                        }
                    }
                    _ => {
                        let next = m.oracle.first_key_value().map_or(now, |(&(t, _), _)| t);
                        let limit = match arg % 3 {
                            0 => Ns(next.0.saturating_sub(1 + (arg >> 2) % 8)),
                            1 => next,
                            _ => Ns(next.0.saturating_add((arg >> 2) % 5_000)),
                        };
                        m.pop_until(limit)?;
                    }
                }
                m.check_counters()?;
            }
            while !m.oracle.is_empty() {
                m.pop_until(Ns::MAX)?;
                m.check_counters()?;
            }
            if m.q.pop().is_some() {
                return Err("queue not empty after the oracle drained".into());
            }
            Ok(())
        },
    );
}

/// `lookahead` names the events of the next two pops when nothing is
/// scheduled between them, over random schedules of near events, far-heap
/// events and ties at the clock. Only when every pending event lies a whole window ahead may the
/// second be unknown. Looking ahead moves no counter and not the clock.
#[test]
fn queue_lookahead_predicts_the_next_two_pops() {
    /// The wheel's width in ns: the queue's private `SLOTS`.
    const WHEEL: u64 = 4096;

    check(
        "queue_lookahead_predicts_the_next_two_pops",
        &Config::with_cases(64),
        |rng| gen::vec_u64(rng, 1, 400, 0, u64::MAX),
        |ops| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let counters =
                |q: &EventQueue<u64>| (q.len(), q.now(), q.scheduled_total(), q.high_water());
            for (payload, &op) in ops.iter().enumerate() {
                let payload = payload as u64;
                let arg = op >> 3;
                let now = q.now();
                match op % 8 {
                    0..=2 => q.schedule(now + Ns(arg % WHEEL), payload),
                    3 => q.schedule(now + Ns(WHEEL + arg % (1 << 20)), payload),
                    // Ties at the clock, or just past it.
                    4 | 5 => q.schedule(now + Ns(arg % 3 * (arg % 64)), payload),
                    _ => {
                        // Read two ahead and pop twice.
                        let before = counters(&q);
                        let [first, second] = q.lookahead().map(|e| e.copied());
                        if counters(&q) != before {
                            return Err(format!(
                                "lookahead moved {before:?} to {:?}",
                                counters(&q)
                            ));
                        }
                        let pop1 = q.pop();
                        let far_only = pop1.as_ref().is_some_and(|e| e.time.0 - now.0 >= WHEEL);
                        let pop1 = pop1.map(|e| e.event);
                        let pop2 = q.pop().map(|e| e.event);
                        if first != pop1 {
                            return Err(format!("lookahead first {first:?}, popped {pop1:?}"));
                        }
                        if second != pop2 && !(second.is_none() && far_only) {
                            return Err(format!("lookahead second {second:?}, popped {pop2:?}"));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
