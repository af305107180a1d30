//! The live-session store: relevance-feedback state that survives
//! between requests.
//!
//! Each session owns a [`QuerySession`] over `Arc`-shared database and
//! config (the `milr-core` `Shared` handle), a policy label for concept
//! cache keys, and a last-touched timestamp. Sessions expire after the
//! configured TTL — swept on every store access and by the daemon's
//! background thread, so an idle daemon reclaims them too — and the
//! store is capacity-bounded: when full, creating a session
//! evicts the least-recently-used one rather than growing without bound.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use milr_core::QuerySession;

/// One live feedback session.
#[derive(Debug)]
pub struct FeedbackSession {
    /// The underlying query state (examples, concept, rounds).
    pub query: QuerySession<'static>,
    /// Label of the weight policy this session trains under (cache key
    /// component).
    pub policy_label: String,
    /// Snapshot generation the session was created against. The session
    /// pins its epoch's database via `Arc`, so a hot reload never swaps
    /// data underneath it — this field keys the concept cache to the
    /// same epoch.
    pub generation: u64,
    /// When the session was last touched (updated by the store on every
    /// successful lookup).
    pub last_used: Instant,
}

/// Handle to a stored session: the store lock is released before the
/// caller locks the session itself, so slow training in one session
/// never blocks lookups of others.
pub type SessionHandle = Arc<Mutex<FeedbackSession>>;

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, SessionHandle>,
    next_id: u64,
    created_total: u64,
    expired_total: u64,
    evicted_total: u64,
}

/// TTL- and capacity-bounded session store.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<Inner>,
    ttl: Duration,
    capacity: usize,
}

/// A point-in-time summary of the store for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently live.
    pub active: usize,
    /// Sessions ever created.
    pub created_total: u64,
    /// Sessions dropped because their TTL expired.
    pub expired_total: u64,
    /// Sessions dropped because the store was full.
    pub evicted_total: u64,
}

impl SessionStore {
    /// Creates a store with the given TTL and capacity (capacity 0 means
    /// sessions are disabled and every create fails).
    pub fn new(ttl: Duration, capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            ttl,
            capacity,
        }
    }

    /// Stores a new session, evicting expired entries first and the
    /// least-recently-used entry if still full. Returns the new id, or
    /// [`None`] when the store is disabled (capacity 0).
    ///
    /// Evicted and expired sessions are *removed* under the store lock
    /// but *dropped* after it is released — a `QuerySession` can hold
    /// megabytes of bags and a trained concept, and freeing it must not
    /// stall every other session lookup. (`dropped` is declared before
    /// the guard, so it destructs after the guard on every exit path.)
    pub fn create(
        &self,
        query: QuerySession<'static>,
        policy_label: String,
        generation: u64,
    ) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        let now = Instant::now();
        let mut dropped: Vec<SessionHandle> = Vec::new();
        let mut inner = self.inner.lock().expect("session store mutex");
        dropped.extend(Self::sweep_locked(&mut inner, self.ttl, now));
        if inner.map.len() >= self.capacity {
            if let Some(lru) = inner
                .map
                .iter()
                .filter_map(|(&id, handle)| {
                    // A session mid-training is busy, not stale; skip it.
                    handle.try_lock().ok().map(|s| (id, s.last_used))
                })
                .min_by_key(|&(_, used)| used)
                .map(|(id, _)| id)
            {
                dropped.extend(inner.map.remove(&lru));
                inner.evicted_total += 1;
            } else {
                return None; // every session is busy — refuse creation
            }
        }
        inner.next_id += 1;
        inner.created_total += 1;
        let id = inner.next_id;
        inner.map.insert(
            id,
            Arc::new(Mutex::new(FeedbackSession {
                query,
                policy_label,
                generation,
                last_used: now,
            })),
        );
        Some(id)
    }

    /// Looks up a live session, refreshing its TTL. Expired sessions are
    /// removed and reported as absent.
    pub fn get(&self, id: u64) -> Option<SessionHandle> {
        let now = Instant::now();
        let (expired, handle) = {
            let mut inner = self.inner.lock().expect("session store mutex");
            let expired = Self::sweep_locked(&mut inner, self.ttl, now);
            (expired, inner.map.get(&id).cloned())
        };
        drop(expired); // session teardown happens outside the store lock
        let handle = handle?;
        if let Ok(mut session) = handle.try_lock() {
            session.last_used = now;
        }
        // A busy (locked) session is clearly alive; its owner will
        // refresh the stamp when done.
        Some(handle)
    }

    /// Removes a session explicitly. Returns whether it existed.
    pub(crate) fn remove(&self, id: u64) -> bool {
        let handle = {
            let mut inner = self.inner.lock().expect("session store mutex");
            inner.map.remove(&id)
        };
        // The handle (and possibly the whole session) drops here, after
        // the store lock is released.
        handle.is_some()
    }

    /// Drops every expired session; returns how many were removed.
    pub fn sweep(&self) -> usize {
        let expired = {
            let mut inner = self.inner.lock().expect("session store mutex");
            Self::sweep_locked(&mut inner, self.ttl, Instant::now())
        };
        expired.len() // handles drop here, outside the store lock
    }

    /// Unlinks every expired entry and hands the removed handles back to
    /// the caller, who must drop them only after releasing the lock.
    fn sweep_locked(inner: &mut Inner, ttl: Duration, now: Instant) -> Vec<SessionHandle> {
        let stale: Vec<u64> = inner
            .map
            .iter()
            .filter_map(|(&id, handle)| match handle.try_lock() {
                Ok(session) if now.duration_since(session.last_used) > ttl => Some(id),
                _ => None, // busy sessions are alive by definition
            })
            .collect();
        let mut removed = Vec::with_capacity(stale.len());
        for id in stale {
            removed.extend(inner.map.remove(&id));
        }
        inner.expired_total += removed.len() as u64;
        removed
    }

    /// Current counters for `/metrics`.
    pub fn stats(&self) -> SessionStats {
        let inner = self.inner.lock().expect("session store mutex");
        SessionStats {
            active: inner.map.len(),
            created_total: inner.created_total,
            expired_total: inner.expired_total,
            evicted_total: inner.evicted_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_core::{RetrievalConfig, RetrievalDatabase};
    use milr_mil::Bag;

    fn db() -> Arc<RetrievalDatabase> {
        let bags = (0..4)
            .map(|i| Bag::new(vec![vec![i as f32, 1.0]]).unwrap())
            .collect();
        Arc::new(RetrievalDatabase::from_bags(bags, vec![0, 0, 1, 1]).unwrap())
    }

    fn session(db: &Arc<RetrievalDatabase>, cfg: &Arc<RetrievalConfig>) -> QuerySession<'static> {
        QuerySession::builder(Arc::clone(db))
            .config(Arc::clone(cfg))
            .positives(vec![0])
            .negatives(vec![2])
            .pool(vec![0, 1, 2, 3])
            .build()
            .unwrap()
    }

    #[test]
    fn create_get_remove_lifecycle() {
        let db = db();
        let cfg = Arc::new(RetrievalConfig::default());
        let store = SessionStore::new(Duration::from_secs(60), 8);
        let id = store.create(session(&db, &cfg), "p".into(), 0).unwrap();
        assert!(store.get(id).is_some());
        assert!(store.get(id + 1).is_none());
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert!(store.get(id).is_none());
        let stats = store.stats();
        assert_eq!(stats.created_total, 1);
        assert_eq!(stats.active, 0);
    }

    #[test]
    fn expired_sessions_vanish() {
        let db = db();
        let cfg = Arc::new(RetrievalConfig::default());
        let store = SessionStore::new(Duration::from_millis(30), 8);
        let id = store.create(session(&db, &cfg), "p".into(), 0).unwrap();
        assert!(store.get(id).is_some());
        std::thread::sleep(Duration::from_millis(60));
        assert!(store.get(id).is_none(), "session must expire after TTL");
        assert_eq!(store.stats().expired_total, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let db = db();
        let cfg = Arc::new(RetrievalConfig::default());
        let store = SessionStore::new(Duration::from_secs(60), 2);
        let a = store.create(session(&db, &cfg), "p".into(), 0).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let b = store.create(session(&db, &cfg), "p".into(), 0).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // Touch `a` so `b` becomes the LRU session.
        assert!(store.get(a).is_some());
        std::thread::sleep(Duration::from_millis(5));
        let c = store.create(session(&db, &cfg), "p".into(), 0).unwrap();
        assert!(store.get(a).is_some());
        assert!(store.get(b).is_none(), "LRU session evicted at capacity");
        assert!(store.get(c).is_some());
        assert_eq!(store.stats().evicted_total, 1);
    }

    #[test]
    fn concurrent_create_expire_stress() {
        // Regression for the eviction/expiry race: handles removed under
        // the store lock used to be *dropped* under it too. Hammer the
        // store from several threads with a tiny TTL and capacity so
        // creations, TTL expiries, LRU evictions, lookups, and explicit
        // removals all interleave; the store must stay consistent and
        // never deadlock or panic.
        let db = db();
        let cfg = Arc::new(RetrievalConfig::default());
        let store = Arc::new(SessionStore::new(Duration::from_millis(10), 4));
        const THREADS: usize = 4;
        const ITERS: usize = 50;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = Arc::clone(&store);
                let db = Arc::clone(&db);
                let cfg = Arc::clone(&cfg);
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let id = store
                            .create(session(&db, &cfg), format!("p{t}"), 0)
                            .expect("store enabled; every session is evictable");
                        // Lookups keep some sessions warm while others age
                        // out; a handle returned must stay usable even if
                        // the store expires the entry underneath us.
                        if let Some(handle) = store.get(id) {
                            let session = handle.lock().unwrap();
                            assert_eq!(session.policy_label, format!("p{t}"));
                        }
                        match i % 3 {
                            0 => {
                                store.remove(id);
                            }
                            1 => std::thread::sleep(Duration::from_millis(1)),
                            _ => {
                                store.sweep();
                            }
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("no stress thread may panic");
        }
        std::thread::sleep(Duration::from_millis(20));
        store.sweep();
        let stats = store.stats();
        assert_eq!(stats.created_total, (THREADS * ITERS) as u64);
        assert_eq!(stats.active, 0, "everything expired or was removed");
        // Every drop path is counted at most once per session.
        assert!(stats.expired_total + stats.evicted_total <= stats.created_total);
    }

    #[test]
    fn zero_capacity_disables_sessions() {
        let db = db();
        let cfg = Arc::new(RetrievalConfig::default());
        let store = SessionStore::new(Duration::from_secs(60), 0);
        assert!(store.create(session(&db, &cfg), "p".into(), 0).is_none());
    }
}
