//! Host-speed probe: a fixed kernel timed next to every run.
//!
//! The benchmark's host is a shared machine whose speed for the same
//! binary moves by tens of percent, run to run and over minutes, as other
//! tenants load the shared cache and memory. The probe measures that
//! speed. It is the benchmark's own code, so a change to the simulator
//! never changes it, and it resembles the simulator's event loop: a
//! binary min-heap of event times (replace the earliest, sift down) whose
//! every step updates a word of an 8 MB state table at a pseudo-random
//! index, so it misses the private caches the way the simulator does.
//!
//! Its memory comes from `mmap` and goes back with `munmap`, so the probe
//! leaves the allocator of the process it runs in as it found it.

use std::os::raw::{c_int, c_long, c_void};
use std::time::Instant;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// Entries of the event heap (each `time << 16 | id`).
const HEAP: usize = 1 << 16;
/// Words of the state table (8 MB).
const TABLE: usize = 1 << 20;
/// Heap steps of one probe.
const STEPS: u64 = 2_000_000;
/// The probe's time on the reference host, in seconds. Scaled times are
/// host times multiplied by `REFERENCE_S` over the median probe time of
/// the runs: the time the runs would have taken had the host been as fast
/// as it usually is. The value is the median of 200 probes run back to
/// back (0.137 s; range 0.102 to 0.159 s) on a 2-vCPU KVM guest of an
/// Intel Xeon with a 300 MB shared L3.
pub const REFERENCE_S: f64 = 0.14;

/// One probe; returns its host time in ns.
pub fn run() -> u64 {
    let words = HEAP + TABLE;
    let len = words * std::mem::size_of::<u64>();
    // SAFETY: an anonymous private mapping with no address hint; the
    // result is checked against MAP_FAILED before use.
    let base = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    assert!(base != MAP_FAILED, "probe: mmap of {len} bytes failed");
    // SAFETY: the mapping is `len` bytes, readable, writable, zero-filled
    // and 8-byte aligned (page aligned), and nothing else refers to it
    // until the munmap below.
    let mem = unsafe { std::slice::from_raw_parts_mut(base as *mut u64, words) };
    let (heap, table) = mem.split_at_mut(HEAP);
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    for (id, slot) in heap.iter_mut().enumerate() {
        *slot = (next(&mut rng) % 1_000_000) << 16 | id as u64;
    }
    for i in (0..HEAP).rev() {
        sift_down(heap, i);
    }
    table.fill(0);

    let start = Instant::now();
    for _ in 0..STEPS {
        let top = heap[0];
        let (time, id) = (top >> 16, top & 0xFFFF);
        let r = next(&mut rng);
        let k = (r ^ id) as usize & (TABLE - 1);
        table[k] = table[k].wrapping_add(time);
        let later = time + 1 + (r >> 40) % 1000 + (table[k.wrapping_mul(7) & (TABLE - 1)] & 3);
        heap[0] = later << 16 | id;
        sift_down(heap, 0);
    }
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box((heap[0], table[0]));

    // SAFETY: `base`/`len` are exactly the mapping made above, and `mem`
    // is not used after this point.
    let rc = unsafe { munmap(base, len) };
    assert_eq!(rc, 0, "probe: munmap failed");
    ns
}

fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Restore the min-heap property below `i`.
fn sift_down(heap: &mut [u64], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let c = if l + 1 < heap.len() && heap[l + 1] < heap[l] {
            l + 1
        } else {
            l
        };
        if heap[i] <= heap[c] {
            return;
        }
        heap.swap(i, c);
        i = c;
    }
}
