//! Channel arbitration: round-robin virtual-channel selection and the
//! waiter/wakeup protocol for channels blocked on downstream credit.
//!
//! A channel transmits one packet at a time; when it goes idle it scans
//! its VCs round-robin (starting after the last VC served) for a head
//! packet whose next buffer can accept it. If every candidate is blocked,
//! the channel registers as a *waiter* on the first blocking channel and
//! is retried when that channel frees space at its `TxDone`. One
//! registration is enough: a woken channel rescans **all** of its VCs, and
//! every full channel fires `TxDone` eventually (the ascending-VC
//! discipline makes the buffer dependency graph acyclic), so progress is
//! never lost. Only the VCs with a queued packet are scanned: each channel
//! keeps a `queued_mask` bit per non-empty VC queue. The `in_waitlist` bit on
//! [`ChannelState`](crate::channel::ChannelState) makes the duplicate
//! check O(1) where the old `waiters.contains` scan was O(#waiters) — on
//! a hot channel under congestion, that list is long exactly when
//! `try_start` runs most often.

use crate::channel::ChannelStore;
use crate::packet::MAX_ROUTE_LEN;
use dfly_topology::ChannelId;

/// The VC scan order for one arbitration round: the VCs whose bit is
/// set in `queued` (the non-empty queues), in round-robin order starting
/// at `start` (the VC after the last one served). Skipping the empty
/// queues visits exactly the VCs a full scan of all `MAX_ROUTE_LEN`
/// levels would act on, in the same order.
#[inline]
pub(crate) fn rr_queued(queued: u16, start: u8) -> impl Iterator<Item = usize> {
    const N: u32 = MAX_ROUTE_LEN as u32;
    let start = start as u32;
    debug_assert!(start < N);
    let mask = queued as u32 & ((1 << N) - 1);
    // Rotate right by `start` within N bits: bit k is VC (start + k) % N.
    let mut rotated = ((mask >> start) | (mask << (N - start))) & ((1 << N) - 1);
    std::iter::from_fn(move || {
        if rotated == 0 {
            return None;
        }
        let k = rotated.trailing_zeros();
        rotated &= rotated - 1;
        Some(((start + k) % N) as usize)
    })
}

/// Register `waiter` on `blocked_on`'s wait list, unless `waiter` is
/// already parked somewhere. Returns true if it registered.
#[inline]
pub(crate) fn park_waiter(
    channels: &mut ChannelStore,
    blocked_on: ChannelId,
    waiter: ChannelId,
) -> bool {
    let w = channels.get_mut(waiter);
    if w.in_waitlist {
        return false;
    }
    w.in_waitlist = true;
    channels.get_mut(blocked_on).waiters.push(waiter);
    true
}

/// Move every channel parked on `ch` into `woken` (cleared first),
/// clearing their `in_waitlist` bits. The caller retries each woken
/// channel (`try_start`), in registration order — FIFO service keeps
/// wakeups deterministic. `ch`'s wait list keeps its capacity, so a hot
/// channel's next park does not allocate again.
pub(crate) fn take_waiters(channels: &mut ChannelStore, ch: ChannelId, woken: &mut Vec<ChannelId>) {
    woken.clear();
    woken.append(&mut channels.get_mut(ch).waiters);
    for &w in woken.iter() {
        channels.get_mut(w).in_waitlist = false;
    }
}

/// How many `waiters` lists each channel currently appears on. The audit
/// sweep checks this census against the `in_waitlist` bits: a channel is
/// parked on at most one blocker, exactly when its bit is set.
pub(crate) fn waitlist_census(channels: &ChannelStore) -> Vec<u32> {
    let mut counts = vec![0u32; channels.len()];
    for (_, ch) in channels.iter() {
        for w in &ch.waiters {
            counts[w.index()] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channels() -> ChannelStore {
        ChannelStore::new([8, 0, 0, 0, 0])
    }

    #[test]
    fn rr_queued_matches_a_full_scan_skipping_empty_queues() {
        // The full scan it replaces: every level from `start`, wrapping.
        let full_scan = |queued: u16, start: u8| -> Vec<usize> {
            (0..MAX_ROUTE_LEN)
                .map(|k| (start as usize + k) % MAX_ROUTE_LEN)
                .filter(|&v| queued & (1 << v) != 0)
                .collect()
        };
        for queued in 0..(1u16 << MAX_ROUTE_LEN) {
            for start in 0..MAX_ROUTE_LEN as u8 {
                let got: Vec<usize> = rr_queued(queued, start).collect();
                assert_eq!(
                    got,
                    full_scan(queued, start),
                    "mask {queued:#b} start {start}"
                );
            }
        }
    }

    #[test]
    fn park_is_idempotent_while_parked() {
        let mut chs = channels();
        assert!(park_waiter(&mut chs, ChannelId(0), ChannelId(2)));
        // Second attempt (even on a different blocker) is a no-op: one
        // wakeup rescans every VC.
        assert!(!park_waiter(&mut chs, ChannelId(1), ChannelId(2)));
        assert_eq!(chs.get(ChannelId(0)).unwrap().waiters, vec![ChannelId(2)]);
        assert!(chs.get(ChannelId(1)).unwrap().waiters.is_empty());
    }

    #[test]
    fn take_waiters_clears_bits_and_allows_reparking() {
        let mut chs = channels();
        let mut woken = Vec::new();
        park_waiter(&mut chs, ChannelId(0), ChannelId(2));
        park_waiter(&mut chs, ChannelId(0), ChannelId(3));
        take_waiters(&mut chs, ChannelId(0), &mut woken);
        assert_eq!(woken, vec![ChannelId(2), ChannelId(3)]);
        assert!(chs.get(ChannelId(0)).unwrap().waiters.is_empty());
        assert!(!chs.get(ChannelId(2)).unwrap().in_waitlist);
        assert!(!chs.get(ChannelId(3)).unwrap().in_waitlist);
        // A woken channel that is still blocked can park again.
        assert!(park_waiter(&mut chs, ChannelId(1), ChannelId(2)));
        assert_eq!(chs.get(ChannelId(1)).unwrap().waiters, vec![ChannelId(2)]);
    }

    #[test]
    fn wait_list_capacity_survives_a_wake_and_repark_cycle() {
        let mut chs = channels();
        let mut woken = Vec::new();
        for w in 2..6 {
            park_waiter(&mut chs, ChannelId(0), ChannelId(w));
        }
        let cap = chs.get(ChannelId(0)).unwrap().waiters.capacity();
        assert!(cap >= 4);
        take_waiters(&mut chs, ChannelId(0), &mut woken);
        assert_eq!(woken.len(), 4);
        let woken_cap = woken.capacity();
        assert_eq!(chs.get(ChannelId(0)).unwrap().waiters.capacity(), cap);
        for w in 2..6 {
            park_waiter(&mut chs, ChannelId(0), ChannelId(w));
        }
        assert_eq!(
            chs.get(ChannelId(0)).unwrap().waiters.capacity(),
            cap,
            "re-parking the same waiters must not reallocate"
        );
        take_waiters(&mut chs, ChannelId(0), &mut woken);
        assert_eq!(woken, (2..6).map(ChannelId).collect::<Vec<_>>());
        assert_eq!(woken.capacity(), woken_cap, "the scratch list is reused");
    }
}
