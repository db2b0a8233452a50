//! The two-level schedule cache behind `POST /schedule`.
//!
//! **Exact level.** Keyed by the FNV-1a-64 hash of the *canonical*
//! problem text (`print_problem` of the parsed request), so
//! whitespace and comment differences still hit. A hit replays the
//! stored pipeline output byte-for-byte — the response body is
//! guaranteed identical to what the offline `impacct-cli` pipeline
//! produces for the same problem.
//!
//! **Region level** (the paper's §5.3 quasi-static runtime). Keyed by
//! the constraint-graph hash: the FNV-1a-64 of the canonical text
//! with the power envelope erased (`PowerConstraints::unconstrained`).
//! Requests that share a graph but vary `(P_max, P_min)` — a rover
//! renegotiating its power budget — reuse the session's
//! [`ScheduleRepertoire`]: any cached schedule whose
//! [`ValidityRegion`](pas_sched::ValidityRegion) admits the new
//! `P_max` is served without re-running the search, re-analyzed
//! against the new envelope via the region accessors (cheap — no
//! profile rebuild). Misses fall through to a fresh pipeline run
//! whose result is inserted at both levels.
//!
//! Both levels evict FIFO at a configurable cap; hits, misses, and
//! evictions feed the `/metrics` cache counters.

use std::collections::{HashMap, VecDeque};

use pas_sched::{ScheduleRepertoire, SessionContext};

/// FNV-1a 64-bit hash — the workspace's standing choice for
/// deterministic, dependency-free content keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.finish()
}

/// [`fnv1a64`] as a `fmt::Write` sink: text is hashed as it is
/// formatted, without building a `String`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hashes `bytes` after everything written so far.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Stored output of one fresh pipeline run, replayed on exact hits.
#[derive(Debug, Clone)]
pub struct ExactEntry {
    /// The rendered schedule, byte-identical to
    /// `impacct-cli schedule --quiet --emit-schedule`.
    pub pasdl: String,
    /// The response's analysis object (JSON, without the per-request
    /// `trace_id` / `served` / `stage_us` fields).
    pub result_json: String,
}

/// One long-lived scheduling session: every request that hashed to
/// the same constraint graph, with the repertoire of schedules
/// computed for it so far.
#[derive(Debug)]
pub struct Session {
    /// Model name from the first request that opened the session.
    pub model: String,
    /// Schedules computed for this graph, selectable by envelope.
    pub repertoire: ScheduleRepertoire,
    /// Requests served from this session's repertoire.
    pub hits: u64,
    /// The long-lived incremental engine for this graph. `None` while
    /// a worker has it checked out (`Option::take` under the cache
    /// lock): a concurrent repertoire miss for the same graph then
    /// falls back to a cold pipeline run rather than waiting.
    pub ctx: Option<SessionContext>,
}

/// Most schedules one session retains; later inserts are dropped
/// (the earliest schedules dominate selection anyway — they were
/// computed for the envelopes actually seen).
const REPERTOIRE_CAP: usize = 16;

/// Monotone counters for the cache metrics endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests answered byte-for-byte from the exact level.
    pub exact_hits: u64,
    /// Requests answered from a session repertoire (§5.3 reuse).
    pub region_hits: u64,
    /// Repertoire misses recomputed through the session's warm
    /// incremental engine instead of a cold pipeline run.
    pub incremental: u64,
    /// Requests that ran the full pipeline.
    pub misses: u64,
    /// Entries (either level) dropped by the FIFO cap.
    pub evictions: u64,
}

/// The shared cache: exact entries plus graph-keyed sessions.
#[derive(Debug)]
pub struct ResponseCache {
    exact: HashMap<u64, ExactEntry>,
    exact_order: VecDeque<u64>,
    sessions: HashMap<u64, Session>,
    session_order: VecDeque<u64>,
    session_cap: usize,
    counters: CacheCounters,
}

impl ResponseCache {
    /// Creates a cache retaining at most `session_cap` sessions and
    /// `4 * session_cap` exact entries.
    pub fn new(session_cap: usize) -> ResponseCache {
        ResponseCache {
            exact: HashMap::new(),
            exact_order: VecDeque::new(),
            sessions: HashMap::new(),
            session_order: VecDeque::new(),
            session_cap: session_cap.max(1),
            counters: CacheCounters::default(),
        }
    }

    /// Looks up an exact entry, counting the hit.
    pub fn exact_hit(&mut self, exact_key: u64) -> Option<ExactEntry> {
        let entry = self.exact.get(&exact_key).cloned();
        if entry.is_some() {
            self.counters.exact_hits += 1;
        }
        entry
    }

    /// The session for `graph_key`, if one is open.
    pub fn session_mut(&mut self, graph_key: u64) -> Option<&mut Session> {
        self.sessions.get_mut(&graph_key)
    }

    /// Counts a repertoire serve for `graph_key`.
    pub fn count_region_hit(&mut self, graph_key: u64) {
        self.counters.region_hits += 1;
        if let Some(session) = self.sessions.get_mut(&graph_key) {
            session.hits += 1;
        }
    }

    /// Counts a fall-through to the full pipeline.
    pub fn count_miss(&mut self) {
        self.counters.misses += 1;
    }

    /// Counts a repertoire miss served through the session's warm
    /// incremental engine (still a `miss` for cache accounting — the
    /// pipeline ran — but a cheaper one).
    pub fn count_incremental(&mut self) {
        self.counters.incremental += 1;
    }

    /// Checks the incremental engine out of `graph_key`'s session,
    /// leaving `None` so concurrent requests fall back to cold runs.
    pub fn take_session_ctx(&mut self, graph_key: u64) -> Option<SessionContext> {
        self.sessions.get_mut(&graph_key).and_then(|s| s.ctx.take())
    }

    /// Returns a checked-out engine. A session evicted in the interim
    /// drops the engine silently.
    pub fn put_session_ctx(&mut self, graph_key: u64, ctx: SessionContext) {
        if let Some(session) = self.sessions.get_mut(&graph_key) {
            session.ctx = Some(ctx);
        }
    }

    /// Inserts a fresh pipeline result at both levels, evicting FIFO
    /// past the caps.
    ///
    /// `insert_into_repertoire` is a callback because the repertoire
    /// insert needs the post-pipeline graph, which the cache does not
    /// hold.
    pub fn insert(
        &mut self,
        exact_key: u64,
        graph_key: u64,
        model: &str,
        entry: ExactEntry,
        insert_into_repertoire: impl FnOnce(&mut ScheduleRepertoire),
    ) {
        if self.exact.insert(exact_key, entry).is_none() {
            self.exact_order.push_back(exact_key);
        }
        while self.exact.len() > self.session_cap * 4 {
            let Some(oldest) = self.exact_order.pop_front() else {
                break;
            };
            if self.exact.remove(&oldest).is_some() {
                self.counters.evictions += 1;
            }
        }

        let session = self.sessions.entry(graph_key).or_insert_with(|| {
            self.session_order.push_back(graph_key);
            Session {
                model: model.to_string(),
                repertoire: ScheduleRepertoire::new(),
                hits: 0,
                ctx: Some(SessionContext::new()),
            }
        });
        if session.repertoire.len() < REPERTOIRE_CAP {
            insert_into_repertoire(&mut session.repertoire);
        }
        while self.sessions.len() > self.session_cap {
            let Some(oldest) = self.session_order.pop_front() else {
                break;
            };
            if self.sessions.remove(&oldest).is_some() {
                self.counters.evictions += 1;
            }
        }
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Open sessions (distinct constraint graphs seen).
    pub fn sessions_len(&self) -> usize {
        self.sessions.len()
    }

    /// Stored exact responses.
    pub fn exact_len(&self) -> usize {
        self.exact.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> ExactEntry {
        ExactEntry {
            pasdl: format!("schedule \"{tag}\" {{\n}}\n"),
            result_json: format!("\"tag\":\"{tag}\""),
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn exact_level_hits_and_evicts_fifo() {
        let mut cache = ResponseCache::new(1); // exact cap = 4
        for i in 0..5u64 {
            cache.insert(i, 99, "m", entry(&i.to_string()), |_| {});
        }
        assert_eq!(cache.exact_len(), 4);
        assert!(cache.exact_hit(0).is_none(), "oldest exact entry evicted");
        assert!(cache.exact_hit(4).is_some());
        let counters = cache.counters();
        assert_eq!(counters.exact_hits, 1);
        assert_eq!(counters.evictions, 1);
    }

    #[test]
    fn sessions_evict_fifo_at_the_cap() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, 10, "a", entry("a"), |_| {});
        cache.insert(2, 20, "b", entry("b"), |_| {});
        cache.insert(3, 30, "c", entry("c"), |_| {});
        assert_eq!(cache.sessions_len(), 2);
        assert!(cache.session_mut(10).is_none(), "oldest session evicted");
        assert!(cache.session_mut(30).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn session_ctx_checks_out_exclusively_and_returns() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, 7, "m", entry("a"), |_| {});
        let ctx = cache.take_session_ctx(7).expect("fresh session has a ctx");
        assert!(
            cache.take_session_ctx(7).is_none(),
            "checked-out ctx is exclusive"
        );
        cache.put_session_ctx(7, ctx);
        assert!(cache.take_session_ctx(7).is_some());
        cache.count_incremental();
        assert_eq!(cache.counters().incremental, 1);
    }

    #[test]
    fn repeat_insert_under_one_graph_reuses_the_session() {
        let mut cache = ResponseCache::new(4);
        cache.insert(1, 7, "m", entry("tight"), |_| {});
        cache.insert(2, 7, "m", entry("loose"), |_| {});
        assert_eq!(cache.sessions_len(), 1);
        cache.count_region_hit(7);
        assert_eq!(cache.session_mut(7).unwrap().hits, 1);
        assert_eq!(cache.counters().region_hits, 1);
    }
}
