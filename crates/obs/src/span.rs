//! Lightweight span tracing: RAII guards writing to lock-free per-thread
//! ring buffers.
//!
//! A span is entered with [`span!`](crate::span!) (`let _s =
//! obs::span!("train.dd");`) and recorded on drop. The record path is a
//! handful of relaxed atomic stores into the calling thread's own ring —
//! no locks, no allocation, no cross-thread contention. Rings hold the
//! last [`RING_CAPACITY`] spans per thread and overwrite the oldest;
//! tracing is always on because an unread span costs ~two `Instant`
//! reads and four stores.
//!
//! Readers ([`recent`]) walk every thread's ring through a seqlock: each
//! slot carries a sequence number that is odd while a write is in flight
//! and bumped when it lands, so a reader that races a wrapping writer
//! detects the torn slot and skips it instead of reporting a frankenspan.
//!
//! Span names are interned `&'static str`s; the [`span!`](crate::span!)
//! macro caches the interned id per call site, so steady-state entry does
//! not touch the intern table either.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Spans retained per thread before the ring wraps.
pub const RING_CAPACITY: usize = 4096;

struct Slot {
    /// Seqlock word: 0 = never written, odd = write in flight, even = valid.
    seq: AtomicU64,
    name: AtomicU32,
    start_us: AtomicU64,
    dur_ns: AtomicU64,
}

/// One thread's span ring. Only the owning thread writes; any thread may
/// read through `collect_into`.
pub struct SpanRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    thread: u64,
}

impl SpanRing {
    fn new(thread: u64) -> Self {
        let slots = (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                name: AtomicU32::new(0),
                start_us: AtomicU64::new(0),
                dur_ns: AtomicU64::new(0),
            })
            .collect();
        SpanRing {
            slots,
            head: AtomicU64::new(0),
            thread,
        }
    }

    /// Owner-thread-only append (seqlock write side).
    fn push(&self, name: u32, start_us: u64, dur_ns: u64) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n as usize) % self.slots.len()];
        slot.seq.store(2 * n + 1, Ordering::Release);
        slot.name.store(name, Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.seq.store(2 * n + 2, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }

    /// Copy every currently-valid slot into `out`, skipping slots a
    /// concurrent writer is overwriting (seqlock read side).
    fn collect_into(&self, out: &mut Vec<SpanRecord>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let name = slot.name.load(Ordering::Relaxed);
            let start_us = slot.start_us.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            out.push(SpanRecord {
                name: name_of(name),
                thread: self.thread,
                start_us,
                dur_ns,
            });
        }
    }
}

/// A completed span, resolved back to its interned name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Registration-order id of the recording thread (not the OS tid).
    pub thread: u64,
    /// Start offset from the process trace epoch, microseconds.
    pub start_us: u64,
    pub dur_ns: u64,
}

static RINGS: Mutex<Vec<Arc<SpanRing>>> = Mutex::new(Vec::new());
static NAMES: RwLock<Vec<&'static str>> = RwLock::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static RING: Arc<SpanRing> = {
        let ring = Arc::new(SpanRing::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
        RINGS.lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

/// Intern a span name, returning its stable id. Idempotent; the
/// [`span!`](crate::span!) macro caches the result per call site so this
/// runs once per site, not once per span.
pub fn intern(name: &'static str) -> u32 {
    {
        let names = NAMES.read().unwrap();
        if let Some(i) = names.iter().position(|&n| n == name) {
            return i as u32;
        }
    }
    let mut names = NAMES.write().unwrap();
    if let Some(i) = names.iter().position(|&n| n == name) {
        return i as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

fn name_of(id: u32) -> &'static str {
    NAMES
        .read()
        .unwrap()
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// RAII span: records `(name, start, duration)` into the thread's ring on
/// drop. Create via [`span!`](crate::span!) or [`enter`].
pub struct SpanGuard {
    name: u32,
    start: Instant,
    start_us: u64,
}

/// Enter a span by interned id (what the [`span!`](crate::span!) macro
/// expands to).
pub fn enter_id(name: u32) -> SpanGuard {
    let e = epoch();
    let start = Instant::now();
    SpanGuard {
        name,
        start,
        start_us: start.duration_since(e).as_micros() as u64,
    }
}

/// Enter a span by name, interning on every call. Fine for per-request
/// paths; inner loops should use [`span!`](crate::span!) instead.
pub fn enter(name: &'static str) -> SpanGuard {
    enter_id(intern(name))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        // try_with: a span dropped during thread teardown (after TLS
        // destruction) is silently lost rather than panicking.
        let _ = RING.try_with(|r| r.push(self.name, self.start_us, dur_ns));
    }
}

/// The most recent `limit` completed spans across all threads, oldest
/// first. Non-destructive; torn slots under concurrent writes are skipped.
pub fn recent(limit: usize) -> Vec<SpanRecord> {
    let rings: Vec<Arc<SpanRing>> = RINGS.lock().unwrap().clone();
    let mut out = Vec::new();
    for ring in &rings {
        ring.collect_into(&mut out);
    }
    out.sort_by_key(|r| (r.start_us, r.thread));
    if out.len() > limit {
        out.drain(..out.len() - limit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_name_and_duration() {
        {
            let _s = crate::span!("test.span_records");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = recent(usize::MAX);
        let mine: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "test.span_records")
            .collect();
        assert!(!mine.is_empty());
        assert!(mine.iter().all(|s| s.dur_ns >= 1_000_000), "{mine:?}");
    }

    #[test]
    fn intern_is_idempotent() {
        let a = intern("test.intern_idem");
        let b = intern("test.intern_idem");
        assert_eq!(a, b);
        assert_eq!(name_of(a), "test.intern_idem");
    }
}
