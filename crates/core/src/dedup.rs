//! Cross-query β invocation dedup (multi-query common-subexpression
//! sharing for the service layer).
//!
//! The dominant pervasive-environment traffic shape is *many queries
//! watching the same sensors* (§5.1): at every instant, several registered
//! continuous queries issue the **same** `invoke_ψ(s, t)` call. Services
//! are deterministic at a given instant (§3.2, [`Service`] contract), and
//! the continuous executor invokes only for δ-batch tuples (§4.2's
//! delta-only discipline) — so two invocations with identical
//! `(prototype, service, input, instant)` are guaranteed to return the
//! same relation, and performing the upstream call once is semantically
//! invisible.
//!
//! [`DedupState`] exploits this. The β pipeline (`serena-services`)
//! claims each logical call here *before* its resilience stage, so retries
//! of a genuinely failing call still re-invoke, and keeps a per-instant
//! table keyed on `(prototype, service, input)`. The first caller of a key
//! performs the real call; concurrent callers of the same key block on an
//! in-flight latch and receive a clone of the result; later callers within
//! the same instant are served from the completed entry. Advancing to a
//! new instant clears the table — the memo never outlives the instant
//! whose determinism justifies it.
//!
//! Every coalesced call is counted per logical caller in
//! [`DedupState::hits`] (and, by the pipeline, in
//! `serena_beta_dedup_total{service=…}`); physical upstream calls remain
//! individually observed by the pipeline's attempt stage.
//!
//! [`Service`]: crate::service::Service

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

use crate::sync::Mutex;

use crate::error::EvalError;
use crate::prototype::Prototype;
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::ServiceRef;

/// The identity of one β invocation within an instant.
#[derive(Clone, PartialEq, Eq, Hash)]
struct DedupKey {
    prototype: String,
    service: ServiceRef,
    input: Tuple,
}

/// The outcome of one β invocation.
pub type CallResult = Result<Vec<Tuple>, EvalError>;

/// A latch one in-flight upstream call publishes its result through;
/// concurrent callers of the same key wait here instead of re-invoking.
struct Latch {
    slot: Mutex<Option<CallResult>>,
    ready: Condvar,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn publish(&self, result: CallResult) {
        *self.slot.lock() = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> CallResult {
        let mut guard = self.slot.lock();
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

enum Entry {
    /// The first caller is performing the upstream call; wait on the latch.
    InFlight(Arc<Latch>),
    /// The upstream call completed with this result.
    Done(CallResult),
}

struct Table {
    /// Instant the entries belong to; a call at any other instant clears
    /// the table first (per-instant scoping, no external hook needed).
    at: Option<Instant>,
    entries: HashMap<DedupKey, Entry>,
}

/// Shared dedup memo + counters, surviving across ticks (one per PEMS
/// runtime, like `ResilienceState`). Cheap to share: one mutex around
/// the per-instant table, atomics for the counters.
#[derive(Default)]
pub struct DedupState {
    table: Mutex<Option<Table>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DedupState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Coalesced calls served without an upstream invocation (cumulative).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Upstream calls actually performed by claim owners (cumulative).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// What [`DedupState::claim`] decided a logical caller gets.
pub enum Claim {
    /// Another caller's result for the same key at the same instant:
    /// served from the completed entry (`how` = `"hit"`) or awaited from
    /// the in-flight call (`how` = `"wait"`). Already counted as a hit.
    Shared {
        /// The shared result.
        result: CallResult,
        /// How the memo resolved the call: `"hit"` or `"wait"`.
        how: &'static str,
    },
    /// This caller owns the key: perform the upstream call and hand its
    /// result to [`DedupState::publish`].
    Owner(DedupTicket),
}

/// The obligation of the caller that owns a key: concurrent callers wait
/// until it is passed to [`DedupState::publish`].
pub struct DedupTicket {
    key: DedupKey,
    at: Instant,
    latch: Arc<Latch>,
}

impl DedupState {
    /// Claim the call `(prototype, service, input)` at instant `at`:
    /// either share an earlier caller's result (blocking while that call is
    /// in flight) or become the caller that performs it.
    pub fn claim(
        &self,
        prototype: &Prototype,
        service: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Claim {
        let key = DedupKey {
            prototype: prototype.name().to_string(),
            service: service.clone(),
            input: input.clone(),
        };
        let latch = {
            let mut guard = self.table.lock();
            let table = guard.get_or_insert_with(|| Table {
                at: None,
                entries: HashMap::new(),
            });
            if table.at != Some(at) {
                table.entries.clear();
                table.at = Some(at);
            }
            match table.entries.get(&key) {
                Some(Entry::Done(result)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Claim::Shared {
                        result: result.clone(),
                        how: "hit",
                    };
                }
                Some(Entry::InFlight(latch)) => Arc::clone(latch),
                None => {
                    let latch = Latch::new();
                    table
                        .entries
                        .insert(key.clone(), Entry::InFlight(Arc::clone(&latch)));
                    return Claim::Owner(DedupTicket { key, at, latch });
                }
            }
        };
        let result = latch.wait();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Claim::Shared {
            result,
            how: "wait",
        }
    }

    /// Publish the owner's result: memoize it for later callers within the
    /// same instant and wake every caller waiting on it.
    pub fn publish(&self, ticket: DedupTicket, result: &CallResult) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(table) = self.table.lock().as_mut() {
            // Only memoize if the table still belongs to this instant — a
            // concurrent call at a newer instant may have cleared it.
            if table.at == Some(ticket.at) {
                table
                    .entries
                    .insert(ticket.key, Entry::Done(result.clone()));
            }
        }
        ticket.latch.publish(result.clone());
    }
}
