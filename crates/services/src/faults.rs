//! Failure injection for robustness testing.
//!
//! §5.2 closes with "further experiments need to be conducted to assess the
//! scalability and the robustness of our proposal" — this module provides
//! the fault models those robustness tests need: services that fail
//! intermittently, fail during scripted outages, or answer slowly
//! (reporting a simulated latency without blocking the test clock).

use std::sync::Arc;
use std::time::Duration;

use serena_core::sync::Mutex;

use serena_core::error::EvalError;
use serena_core::prototype::Prototype;
use serena_core::service::{Invoker, Service};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::ServiceRef;

/// When a wrapped service misbehaves.
#[derive(Debug, Clone)]
pub enum FaultPolicy {
    /// Every `n`-th invocation fails (1-based; `n = 1` fails always).
    EveryNth(u64),
    /// Fails during the inclusive instant range.
    Outage {
        /// First failing instant.
        from: Instant,
        /// Last failing instant.
        to: Instant,
    },
    /// A repeating duty cycle: `fail` consecutive failing calls, then `ok`
    /// consecutive successful calls. Long-run failure rate is
    /// `fail / (fail + ok)` — the predictable signal health trackers are
    /// tested against.
    ///
    /// Zero-length phases degenerate cleanly: `fail = 0` never fails
    /// (whatever `ok` is, including 0), and `ok = 0` with `fail > 0` always
    /// fails.
    Intermittent {
        /// Failing calls at the start of each cycle.
        fail: u64,
        /// Successful calls completing each cycle.
        ok: u64,
    },
    /// Never fails (control case).
    None,
}

/// A decorator injecting faults into any [`Service`].
pub struct FaultyService {
    inner: Arc<dyn Service>,
    policy: FaultPolicy,
    calls: Mutex<u64>,
    error: String,
}

impl FaultyService {
    /// Wrap `inner` with `policy`.
    pub fn new(inner: Arc<dyn Service>, policy: FaultPolicy) -> Arc<Self> {
        Arc::new(FaultyService {
            inner,
            policy,
            calls: Mutex::new(0),
            error: "injected fault: device unreachable".to_string(),
        })
    }

    /// Wrap with a custom error message.
    pub fn with_error(
        inner: Arc<dyn Service>,
        policy: FaultPolicy,
        error: impl Into<String>,
    ) -> Arc<Self> {
        Arc::new(FaultyService {
            inner,
            policy,
            calls: Mutex::new(0),
            error: error.into(),
        })
    }

    /// Total invocation attempts observed (including failed ones).
    pub fn attempts(&self) -> u64 {
        *self.calls.lock()
    }

    /// Whether the call with 0-based index `call` at instant `at` fails.
    fn should_fail(&self, call: u64, at: Instant) -> bool {
        match &self.policy {
            FaultPolicy::EveryNth(n) => *n > 0 && call.is_multiple_of(*n),
            FaultPolicy::Outage { from, to } => *from <= at && at <= *to,
            FaultPolicy::Intermittent { fail, ok } => {
                // saturating: a cycle longer than u64::MAX never wraps back
                // into the failing phase within one counter lifetime.
                let period = fail.saturating_add(*ok);
                period > 0 && call % period < *fail
            }
            FaultPolicy::None => false,
        }
    }
}

impl Service for FaultyService {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.inner.prototypes()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        // Claim this call's index and bump the counter under one lock, so
        // concurrent invocations (parallel β) each see a distinct position
        // in the duty cycle.
        let call = {
            let mut calls = self.calls.lock();
            let i = *calls;
            *calls += 1;
            i
        };
        let fail = self.should_fail(call, at);
        if fail {
            return Err(self.error.clone());
        }
        self.inner.invoke(prototype, input, at)
    }
}

/// An [`Invoker`] decorator that sleeps a fixed wall-clock latency before
/// every invocation — the "slow device" model the parallel-β benchmarks are
/// built on. Because the sleep happens on the calling thread, N tuples
/// fanned across W workers take roughly `ceil(N / W) × latency` instead of
/// `N × latency`.
pub struct SlowInvoker<I> {
    inner: I,
    latency: Duration,
}

impl<I: Invoker> SlowInvoker<I> {
    /// Wrap `inner`, delaying every [`Invoker::invoke`] by `latency`.
    pub fn new(inner: I, latency: Duration) -> Self {
        SlowInvoker { inner, latency }
    }

    /// The simulated per-call latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// The wrapped invoker.
    pub fn inner(&self) -> &I {
        &self.inner
    }
}

impl<I: Invoker> Invoker for SlowInvoker<I> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        std::thread::sleep(self.latency);
        self.inner.invoke(prototype, service_ref, input, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.inner.providers_of(prototype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;
    use serena_core::service::fixtures;

    #[test]
    fn every_nth_fails_periodically() {
        // n=2 → calls 0, 2, 4… fail
        let svc = FaultyService::new(fixtures::temperature_sensor(1), FaultPolicy::EveryNth(2));
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(
                svc.invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
                    .is_ok(),
            );
        }
        assert_eq!(outcomes, vec![false, true, false, true, false, true]);
        assert_eq!(svc.attempts(), 6);
    }

    #[test]
    fn outage_window() {
        let svc = FaultyService::new(
            fixtures::temperature_sensor(1),
            FaultPolicy::Outage {
                from: Instant(5),
                to: Instant(7),
            },
        );
        assert!(svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(4))
            .is_ok());
        for t in 5..=7 {
            assert!(svc
                .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(t))
                .is_err());
        }
        assert!(svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(8))
            .is_ok());
    }

    #[test]
    fn intermittent_duty_cycle() {
        // 2 failures then 2 successes, repeating
        let svc = FaultyService::new(
            fixtures::temperature_sensor(1),
            FaultPolicy::Intermittent { fail: 2, ok: 2 },
        );
        let outcomes: Vec<bool> = (0..8)
            .map(|_| {
                svc.invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
                    .is_ok()
            })
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, true, false, false, true, true]
        );
        assert_eq!(svc.attempts(), 8);
    }

    fn outcomes_of(policy: FaultPolicy, calls: usize) -> Vec<bool> {
        let svc = FaultyService::new(fixtures::temperature_sensor(1), policy);
        (0..calls)
            .map(|_| {
                svc.invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
                    .is_ok()
            })
            .collect()
    }

    #[test]
    fn intermittent_zero_fail_phase_never_fails() {
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 0, ok: 3 }, 7);
        assert!(outcomes.iter().all(|ok| *ok));
    }

    #[test]
    fn intermittent_zero_ok_phase_always_fails() {
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 3, ok: 0 }, 7);
        assert!(outcomes.iter().all(|ok| !*ok));
    }

    #[test]
    fn intermittent_both_phases_zero_never_fails() {
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 0, ok: 0 }, 5);
        assert!(outcomes.iter().all(|ok| *ok));
    }

    #[test]
    fn intermittent_phase_boundaries_are_exact() {
        // fail=1, ok=2: exactly call 0 of every 3-call cycle fails.
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 1, ok: 2 }, 9);
        assert_eq!(
            outcomes,
            vec![false, true, true, false, true, true, false, true, true]
        );
        // fail=3, ok=1: only the last call of every 4-call cycle succeeds.
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 3, ok: 1 }, 8);
        assert_eq!(
            outcomes,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn intermittent_huge_phases_do_not_overflow() {
        // fail + ok would overflow u64; the first calls sit in the failing
        // phase and must not panic.
        let outcomes = outcomes_of(
            FaultPolicy::Intermittent {
                fail: u64::MAX,
                ok: 2,
            },
            3,
        );
        assert!(outcomes.iter().all(|ok| !*ok));
    }

    #[test]
    fn none_policy_is_transparent() {
        let svc = FaultyService::new(fixtures::temperature_sensor(1), FaultPolicy::None);
        for t in 0..5 {
            assert!(svc
                .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(t))
                .is_ok());
        }
        assert_eq!(svc.prototypes().len(), 1);
    }

    #[test]
    fn slow_invoker_delays_then_delegates() {
        let reg = fixtures::example_registry();
        let slow = SlowInvoker::new(reg, Duration::from_millis(5));
        assert_eq!(slow.latency(), Duration::from_millis(5));
        let sref = ServiceRef::new("sensor01");
        let started = std::time::Instant::now();
        let out = slow
            .invoke(
                &protos::get_temperature(),
                &sref,
                &Tuple::empty(),
                Instant(0),
            )
            .unwrap();
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(out.len(), 1);
        // provider listing is undelayed delegation
        assert!(!slow.providers_of("getTemperature").is_empty());
    }

    #[test]
    fn custom_error_propagates() {
        let svc = FaultyService::with_error(
            fixtures::temperature_sensor(1),
            FaultPolicy::EveryNth(1),
            "battery dead",
        );
        let err = svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
            .unwrap_err();
        assert_eq!(err, "battery dead");
    }
}
