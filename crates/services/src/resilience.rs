//! Resilience for β invocations: deadline, retry/backoff, circuit
//! breaking.
//!
//! The paper's services are "dynamic, volatile" (§2.1) and §5.2 calls for
//! robustness experiments — yet a raw [`Invoker`] surfaces every transient
//! fault straight into the query. The β pipeline
//! ([`BetaPipeline`](crate::pipeline::BetaPipeline)) runs three
//! independent, per-service mechanisms around every call, all configured
//! by a [`ResiliencePolicy`]:
//!
//! * **deadline** — attempts taking longer than
//!   [`ResiliencePolicy::deadline`] are converted into
//!   [`EvalError::DeadlineExceeded`] (a *soft* deadline: the call is not
//!   cancelled, its late result is discarded);
//! * **retry with backoff** — errors classified transient
//!   ([`EvalError::InvocationFailed`], [`EvalError::DeadlineExceeded`],
//!   [`EvalError::RemoteUnavailable`]) are retried up to
//!   [`ResiliencePolicy::max_retries`] times, sleeping an exponentially
//!   growing, deterministically jittered backoff between attempts;
//! * **circuit breaking** — after
//!   [`ResiliencePolicy::breaker_threshold`] consecutive failures (the
//!   larger of the breaker's own count and the
//!   [`HealthTracker`](crate::health::HealthTracker)'s view, when the
//!   pipeline has telemetry) the
//!   service's breaker opens: calls fail fast with
//!   [`EvalError::CircuitOpen`] without touching the service, until
//!   [`ResiliencePolicy::breaker_cooldown`] logical instants pass and the
//!   breaker half-opens to let probe calls through (closed → open →
//!   half-open).
//!
//! Breaker state and counters live in a shared [`ResilienceState`] so they
//! survive across ticks (the pipeline is assembled per tick in the PEMS
//! runtime). Graceful degradation of the β *output* — emitting partial
//! results instead of erroring — is the executor's side of the contract:
//! see [`DegradePolicy`](serena_core::ops::DegradePolicy).
//!
//! [`Invoker`]: serena_core::service::Invoker

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

#[cfg(doc)]
use serena_core::error::EvalError;
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::sync::Mutex;
use serena_core::time::Instant;
use serena_core::value::ServiceRef;

/// Everything the pipeline's resilience stage may do on behalf of one
/// invocation, per service. The default ([`ResiliencePolicy::disabled`]) is
/// fully transparent: no deadline, no retries, no breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retries after the first failed attempt (0 = no retries).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (0 = no sleeping).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Soft per-invocation deadline (None = unbounded).
    pub deadline: Option<Duration>,
    /// Consecutive failures that open a service's breaker (0 = breaker
    /// disabled).
    pub breaker_threshold: u32,
    /// Logical instants an open breaker waits before half-opening.
    pub breaker_cooldown: u64,
    /// Probe invocations admitted while half-open (clamped to ≥ 1).
    pub half_open_probes: u32,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::disabled()
    }
}

impl ResiliencePolicy {
    /// Fully transparent: no deadline, no retries, no breaker. The β
    /// pipeline makes exactly one attempt per call (and opens no
    /// `beta.call` span) under this policy.
    pub fn disabled() -> Self {
        ResiliencePolicy {
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            deadline: None,
            breaker_threshold: 0,
            breaker_cooldown: 0,
            half_open_probes: 1,
        }
    }

    /// A reasonable starting point: 2 retries with 1 ms → 20 ms backoff,
    /// breaker opening after 5 consecutive failures for 4 instants.
    pub fn standard() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            deadline: None,
            breaker_threshold: 5,
            breaker_cooldown: 4,
            half_open_probes: 1,
        }
    }

    /// Whether this policy does nothing at all (lets the pipeline skip the
    /// resilience stage).
    #[inline]
    pub fn is_disabled(&self) -> bool {
        self.max_retries == 0 && self.deadline.is_none() && self.breaker_threshold == 0
    }

    /// Replace the retry budget.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Replace the backoff schedule (`base` doubling per retry, capped).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Replace the soft per-invocation deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replace the breaker configuration (`threshold` consecutive failures
    /// → open for `cooldown` instants).
    pub fn with_breaker(mut self, threshold: u32, cooldown: u64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// The backoff delay before retry number `attempt` (1-based), before
    /// jitter: `base × 2^(attempt-1)`, capped.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let raw = match 1u32.checked_shl(attempt.saturating_sub(1)) {
            Some(factor) => self
                .backoff_base
                .checked_mul(factor)
                .unwrap_or(self.backoff_cap),
            None => self.backoff_cap, // 2^31+ × base saturates at the cap
        };
        raw.min(self.backoff_cap)
    }
}

/// Where one service's circuit breaker currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow through normally.
    Closed,
    /// Calls are rejected with [`EvalError::CircuitOpen`] until `until`.
    Open {
        /// First instant at which the breaker will half-open.
        until: Instant,
    },
    /// A limited number of probe calls are admitted; one success closes
    /// the breaker, one failure reopens it.
    HalfOpen {
        /// Probe admissions left at this state snapshot.
        probes_left: u32,
    },
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open { until } => write!(f, "open(until {until})"),
            BreakerState::HalfOpen { probes_left } => {
                write!(f, "half-open({probes_left} probes left)")
            }
        }
    }
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u64,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

/// Totals accumulated by a [`ResilienceState`] across all services.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Retry attempts performed (beyond each invocation's first attempt).
    pub retries: u64,
    /// Invocations converted to [`EvalError::DeadlineExceeded`].
    pub timeouts: u64,
    /// Breaker transitions into [`BreakerState::Open`].
    pub breaker_opened: u64,
    /// Calls rejected fast with [`EvalError::CircuitOpen`].
    pub rejected: u64,
}

/// Shared, tick-surviving state of the resilience stage: per-service
/// breakers plus global counters. One `ResilienceState` is created per
/// PEMS (or per test) and handed to every β pipeline built over it, so
/// breakers keep their memory even though the pipeline itself is
/// assembled per tick.
#[derive(Debug, Default)]
pub struct ResilienceState {
    breakers: Mutex<HashMap<ServiceRef, Breaker>>,
    /// Number of services currently holding a (non-default) breaker record.
    /// While zero — the steady state of a healthy environment — the breaker
    /// fast-paths skip the map lock entirely.
    engaged: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    breaker_opened: AtomicU64,
    rejected: AtomicU64,
}

impl ResilienceState {
    /// Fresh state: all breakers closed, all counters zero.
    pub fn new() -> Self {
        ResilienceState::default()
    }

    /// Snapshot the global counters.
    pub fn counters(&self) -> ResilienceCounters {
        ResilienceCounters {
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            breaker_opened: self.breaker_opened.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// The breaker state of one service ([`BreakerState::Closed`] if the
    /// service has never tripped anything).
    pub fn breaker_of(&self, service: &ServiceRef) -> BreakerState {
        self.breakers
            .lock()
            .get(service)
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Every service with a non-default breaker record, ordered by
    /// reference.
    pub fn breakers(&self) -> Vec<(ServiceRef, BreakerState)> {
        let mut v: Vec<(ServiceRef, BreakerState)> = self
            .breakers
            .lock()
            .iter()
            .map(|(s, b)| (s.clone(), b.state))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Serialize counters and per-service breakers into a checkpoint
    /// (breakers in sorted service order, so the encoding is
    /// deterministic).
    pub fn export_state(&self, w: &mut Writer) {
        let c = self.counters();
        w.u64(c.retries)
            .u64(c.timeouts)
            .u64(c.breaker_opened)
            .u64(c.rejected);
        let breakers = self.breakers.lock();
        let mut entries: Vec<(&ServiceRef, &Breaker)> = breakers.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (s, b) in entries {
            w.str(s.as_str()).u64(b.consecutive_failures);
            match b.state {
                BreakerState::Closed => {
                    w.u8(0);
                }
                BreakerState::Open { until } => {
                    w.u8(1).u64(until.ticks());
                }
                BreakerState::HalfOpen { probes_left } => {
                    w.u8(2).u32(probes_left);
                }
            }
        }
    }

    /// Restore state written by [`ResilienceState::export_state`],
    /// replacing counters and breakers wholesale.
    pub fn import_state(&self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let retries = r.u64()?;
        let timeouts = r.u64()?;
        let breaker_opened = r.u64()?;
        let rejected = r.u64()?;
        let n = r.usize()?;
        let mut map = HashMap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let sref = ServiceRef::new(r.str()?);
            let consecutive_failures = r.u64()?;
            let state = match r.u8()? {
                0 => BreakerState::Closed,
                1 => BreakerState::Open {
                    until: Instant(r.u64()?),
                },
                2 => BreakerState::HalfOpen {
                    probes_left: r.u32()?,
                },
                t => {
                    return Err(SnapshotError::Corrupt(format!("unknown breaker tag {t}")));
                }
            };
            map.insert(
                sref,
                Breaker {
                    state,
                    consecutive_failures,
                },
            );
        }
        self.retries.store(retries, Ordering::Relaxed);
        self.timeouts.store(timeouts, Ordering::Relaxed);
        self.breaker_opened.store(breaker_opened, Ordering::Relaxed);
        self.rejected.store(rejected, Ordering::Relaxed);
        let mut breakers = self.breakers.lock();
        self.engaged.store(map.len() as u64, Ordering::Relaxed);
        *breakers = map;
        Ok(())
    }
}

/// A breaker edge `(from, to)` over the labels `"closed"`, `"open"` and
/// `"half_open"` — what `serena_breaker_transitions_total{to}` and
/// `TraceEvent::BreakerTransition` publish.
pub(crate) type BreakerEdge = (&'static str, &'static str);

/// What [`ResilienceState::admit`] decided for one call.
pub(crate) enum Admission {
    /// Let the call through; `Some` when this admission half-opened the
    /// breaker.
    Admit(Option<BreakerEdge>),
    /// The breaker is open (or out of half-open probes): fail fast. Already
    /// counted in [`ResilienceCounters::rejected`].
    Reject,
}

/// The breaker state machine, driven by the β pipeline's resilience stage.
impl ResilienceState {
    /// Gate one invocation through `service`'s breaker. Transitions
    /// open → half-open when the cooldown has elapsed at `at`.
    ///
    /// Services without a breaker record are implicitly
    /// [`BreakerState::Closed`]; while no record exists anywhere (no
    /// failure observed yet) this is a single relaxed atomic load, inlined
    /// into the pipeline; the locked slow path stays out of line.
    #[inline]
    pub(crate) fn admit(
        &self,
        policy: &ResiliencePolicy,
        service: &ServiceRef,
        at: Instant,
    ) -> Admission {
        if policy.breaker_threshold == 0 || self.engaged.load(Ordering::Relaxed) == 0 {
            return Admission::Admit(None);
        }
        self.admit_engaged(policy, service, at)
    }

    fn admit_engaged(
        &self,
        policy: &ResiliencePolicy,
        service: &ServiceRef,
        at: Instant,
    ) -> Admission {
        let mut breakers = self.breakers.lock();
        let Some(b) = breakers.get_mut(service) else {
            return Admission::Admit(None);
        };
        match b.state {
            BreakerState::Closed => Admission::Admit(None),
            BreakerState::Open { until } if at >= until => {
                b.state = BreakerState::HalfOpen {
                    probes_left: policy.half_open_probes.max(1) - 1,
                };
                Admission::Admit(Some(("open", "half_open")))
            }
            BreakerState::HalfOpen { probes_left } if probes_left > 0 => {
                b.state = BreakerState::HalfOpen {
                    probes_left: probes_left - 1,
                };
                Admission::Admit(None)
            }
            _ => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Admission::Reject
            }
        }
    }

    /// One successful attempt: close the breaker, reset the failure
    /// streak. A reset breaker is back at the default, so its record is
    /// dropped (keeping the `engaged == 0` fast path reachable again).
    /// Returns the edge when a breaker that had left Closed closes now.
    /// Like [`Self::admit`], the lock-free fast check inlines.
    #[inline]
    pub(crate) fn on_success(
        &self,
        policy: &ResiliencePolicy,
        service: &ServiceRef,
    ) -> Option<BreakerEdge> {
        if policy.breaker_threshold == 0 || self.engaged.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.close(service)
    }

    fn close(&self, service: &ServiceRef) -> Option<BreakerEdge> {
        let removed = self.breakers.lock().remove(service)?;
        self.engaged.fetch_sub(1, Ordering::Relaxed);
        // dropping a record that merely tracked a failure streak is not a
        // state change
        match removed.state {
            BreakerState::Open { .. } => Some(("open", "closed")),
            BreakerState::HalfOpen { .. } => Some(("half_open", "closed")),
            BreakerState::Closed => None,
        }
    }

    /// One failed attempt: extend the failure streak (taking the larger of
    /// it and `health_streak`, the health tracker's consecutive-error
    /// count) and open the breaker when the threshold is reached —
    /// immediately when half-open. Returns the edge when it opened.
    pub(crate) fn on_failure(
        &self,
        policy: &ResiliencePolicy,
        service: &ServiceRef,
        at: Instant,
        health_streak: impl FnOnce() -> u64,
    ) -> Option<BreakerEdge> {
        if policy.breaker_threshold == 0 {
            return None;
        }
        let mut breakers = self.breakers.lock();
        let b = breakers.entry(service.clone()).or_insert_with(|| {
            self.engaged.fetch_add(1, Ordering::Relaxed);
            Breaker::default()
        });
        b.consecutive_failures += 1;
        let streak = b.consecutive_failures.max(health_streak());
        let half_open = matches!(b.state, BreakerState::HalfOpen { .. });
        if !half_open && streak < u64::from(policy.breaker_threshold) {
            return None;
        }
        b.state = BreakerState::Open {
            until: at + policy.breaker_cooldown,
        };
        b.consecutive_failures = 0;
        self.breaker_opened.fetch_add(1, Ordering::Relaxed);
        Some((if half_open { "half_open" } else { "closed" }, "open"))
    }

    /// Count one retry attempt.
    pub(crate) fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one deadline conversion.
    pub(crate) fn count_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = ResiliencePolicy::disabled()
            .with_backoff(Duration::from_millis(2), Duration::from_millis(5));
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(5)); // capped
        assert_eq!(p.backoff_for(60), Duration::from_millis(5)); // no overflow
        assert_eq!(ResiliencePolicy::disabled().backoff_for(3), Duration::ZERO);
    }
}
