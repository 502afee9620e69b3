//! Engine micro-benchmarks: event queue and RNG throughput — the
//! simulator's innermost loops.

use dfly_bench::{criterion_group, criterion_main, BatchSize, Bencher, Criterion};
use dfly_engine::{EventQueue, Ns, Xoshiro256};
use std::hint::black_box;

/// A delay drawn log-uniformly from `[lo, lo * 2^octaves)` ns.
fn log_uniform(rng: &mut Xoshiro256, lo: f64, octaves: f64) -> u64 {
    (lo * 2f64.powf(octaves * rng.next_f64())) as u64
}

/// A hold of 10k pending events (Theta's mean queue depth), one pop and
/// one push per step, the push `delays` (cycled) after the popped event.
/// Pops must come in strictly increasing `(time, seq)` order. One
/// iteration = 1,000 steps.
fn hold(b: &mut Bencher, delays: Vec<u64>) {
    let mut next_delay = delays.iter().copied().cycle();
    let mut q = EventQueue::new();
    for i in 0..10_000u64 {
        q.schedule(Ns(next_delay.next().unwrap()), i);
    }
    let mut last: Option<(Ns, u64)> = None;
    b.iter(|| {
        for _ in 0..1_000 {
            let e = q.pop().expect("the hold never drains");
            let key = (e.time, e.seq);
            assert!(
                last.is_none_or(|prev| key > prev),
                "pop order broke: {key:?} after {last:?}"
            );
            last = Some(key);
            q.schedule(e.time + Ns(next_delay.next().unwrap()), e.event);
        }
        black_box(q.len())
    });
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..10_000u64 {
                    q.schedule(Ns((i * 7919) % 100_000), i);
                }
                let mut sum = 0u64;
                while let Some(e) = q.pop() {
                    sum = sum.wrapping_add(e.event);
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("cascading_events_10k", |b| {
        // The simulator's actual pattern: each popped event schedules a
        // couple of successors.
        b.iter(|| {
            let mut q = EventQueue::new();
            q.schedule(Ns(0), 0u32);
            let mut popped = 0u32;
            while let Some(e) = q.pop() {
                popped += 1;
                if popped >= 10_000 {
                    break;
                }
                if e.event < 5_000 {
                    q.schedule_after(Ns(3), e.event + 1);
                    q.schedule_after(Ns(11), e.event + 2);
                }
            }
            black_box(popped)
        });
    });
    g.bench_function("hold_10k", |b| {
        // The network's steady state: delays drawn log-uniformly from the
        // measured 64 ns – 4 µs mix, all inside the wheel.
        let mut rng = Xoshiro256::seed_from(4);
        let delays = (0..4_096)
            .map(|_| log_uniform(&mut rng, 64.0, 6.0))
            .collect();
        hold(b, delays);
    });
    g.bench_function("wide_horizon_10k", |b| {
        // hold_10k's mix with one delay in ten drawn log-uniformly from
        // 4 µs – 1 ms instead, beyond the wheel: those events wait in the
        // far heap and move into their slots as the clock reaches them.
        let mut rng = Xoshiro256::seed_from(5);
        let delays = (0..4_096)
            .map(|i| {
                if i % 10 == 9 {
                    log_uniform(&mut rng, 4_096.0, 8.0)
                } else {
                    log_uniform(&mut rng, 64.0, 6.0)
                }
            })
            .collect();
        hold(b, delays);
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("next_u64_x1k", |b| {
        let mut rng = Xoshiro256::seed_from(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
    g.bench_function("next_below_x1k", |b| {
        let mut rng = Xoshiro256::seed_from(2);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc += rng.next_below(863);
            }
            black_box(acc)
        });
    });
    g.bench_function("shuffle_3456", |b| {
        let mut rng = Xoshiro256::seed_from(3);
        let base: Vec<u32> = (0..3456).collect();
        b.iter_batched(
            || base.clone(),
            |mut v| {
                rng.shuffle(&mut v);
                black_box(v)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_rng);
criterion_main!(benches);
