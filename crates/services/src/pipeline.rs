//! The β pipeline: the one path from the β operator to a service.
//!
//! In the paper, β reaches a service only through `invoke_ψ`
//! (Definition 1). [`BetaPipeline`] is that path in the engine: an
//! [`Invoker`] over the service registry that runs the same fixed stages,
//! in the same order, for every logical call:
//!
//! 1. **dedup claim** (when a [`DedupState`] is attached): identical
//!    `(prototype, service, input)` calls within one instant share one
//!    upstream call — sound by §3.2's instant determinism, see
//!    [`serena_core::dedup`]. Only the caller owning a key goes on; it sits
//!    above the retries, so a retried call is still one logical call;
//! 2. **breaker admit** (under an active [`ResiliencePolicy`]): an open
//!    breaker fails the call fast with [`EvalError::CircuitOpen`];
//! 3. **attempt loop**: each attempt is one panic-contained call
//!    ([`invoke_contained`]) timed once; a success slower than the
//!    policy's deadline becomes [`EvalError::DeadlineExceeded`]; transient
//!    failures are retried after a jittered exponential backoff;
//! 4. **one outcome per attempt** feeds the per-service series, the
//!    [`HealthTracker`], the breaker, the trace sink and the spans — a
//!    panic is one [`EvalError::Panicked`] outcome, a deadline conversion
//!    one failed outcome;
//! 5. **dedup publish**: the owner's final result is memoized for the
//!    instant and handed to every caller waiting on it.
//!
//! Telemetry is one optional [`BetaTelemetry`] bundle. Without it the
//! pipeline records nothing and reads the clock only for a deadline — the
//! configuration the `resilience_overhead` bench measures. With it:
//!
//! * registry series `serena_service_latency_ns{service}` (histogram, with
//!   the attempt span as exemplar), `serena_service_calls_total{service}`
//!   and `serena_service_failures_total{service}` per attempt;
//!   `serena_beta_dedup_total{service}` per shared call;
//!   `serena_resilience_{retries,timeouts,breaker_opened,rejected}_total{service}`
//!   and `serena_breaker_transitions_total{service,to}`. Each service's
//!   handles resolve once, in one cache;
//! * spans: `beta` per logical call when dedup is on (`service`,
//!   `prototype`, `dedup` = `call`/`hit`/`wait`, `ok`) → `beta.call` per
//!   call under an active policy (`service`, `deadline_ms`, `attempts`,
//!   `retries`, `breaker`, `ok`) → `beta.attempt` per physical attempt
//!   (`service`, `prototype`, `ok`, `error`);
//! * trace events ([`TraceEvent::Invocation`], [`TraceEvent::Failure`],
//!   [`TraceEvent::BreakerTransition`]), built only when a trace sink is
//!   configured.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use serena_core::dedup::{CallResult, Claim, DedupState};
use serena_core::error::EvalError;
use serena_core::prototype::Prototype;
use serena_core::service::{invoke_contained, Invoker};
use serena_core::sync::RwLock;
use serena_core::telemetry::{
    span::EnterGuard, ActiveSpan, Counter, FlightRecorder, Histogram, MetricsRegistry, TraceEvent,
    TraceSink,
};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::ServiceRef;

use crate::health::HealthTracker;
use crate::resilience::{Admission, BreakerEdge, BreakerState, ResiliencePolicy, ResilienceState};

/// Everything a [`BetaPipeline`] reports to: the metric registry, the
/// health tracker, the span recorder and (optionally) a trace sink, plus
/// the per-service series cache. Built once per runtime and shared by
/// every pipeline assembled over it.
pub struct BetaTelemetry {
    registry: Arc<MetricsRegistry>,
    health: Arc<HealthTracker>,
    tracer: Arc<FlightRecorder>,
    trace: Option<Arc<dyn TraceSink>>,
    services: RwLock<HashMap<ServiceRef, Arc<ServiceSeries>>>,
}

impl BetaTelemetry {
    /// A bundle over these sinks. `trace` is `None` when no trace sink is
    /// configured; no [`TraceEvent`] is built then.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        health: Arc<HealthTracker>,
        tracer: Arc<FlightRecorder>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        BetaTelemetry {
            registry,
            health,
            tracer,
            trace,
            services: RwLock::new(HashMap::new()),
        }
    }

    fn series(&self, service: &ServiceRef) -> Arc<ServiceSeries> {
        if let Some(series) = self.services.read().get(service) {
            return Arc::clone(series);
        }
        Arc::clone(self.services.write().entry(service.clone()).or_default())
    }
}

/// One service's registry handles. Each group registers its series on
/// first use, so a service shows exactly the series its calls touched.
#[derive(Default)]
struct ServiceSeries {
    calls: OnceLock<CallSeries>,
    dedup: OnceLock<Arc<Counter>>,
    resilience: OnceLock<ResilienceSeries>,
}

struct CallSeries {
    latency: Arc<Histogram>,
    calls: Arc<Counter>,
    failures: Arc<Counter>,
}

struct ResilienceSeries {
    retries: Arc<Counter>,
    timeouts: Arc<Counter>,
    breaker_opened: Arc<Counter>,
    rejected: Arc<Counter>,
    /// `serena_breaker_transitions_total{service,to}` for
    /// `to ∈ {closed, open, half_open}`, in that order.
    transitions: [Arc<Counter>; 3],
}

/// Where one logical call reports: nowhere (`()`, the pipeline without
/// telemetry — monomorphized, its stages carry no telemetry branches) or
/// an [`Observer`].
trait Observe {
    /// The stage spans: [`ActiveSpan`], or uninhabited without telemetry.
    type Span: StageSpan;
    /// Whether attempts are timed for the latency series.
    const TIMED: bool;
    /// A span named `name` for the callee, when spans are recorded.
    fn span(&self, name: &'static str, at: Instant) -> Option<Self::Span>;
    /// One logical call served by another caller's result.
    fn dedup_hit(&self);
    /// Bump the resilience counter `pick` selects.
    fn count(&self, pick: fn(&ResilienceSeries) -> &Arc<Counter>);
    /// One breaker edge.
    fn transition(&self, at: Instant, edge: BreakerEdge);
    /// The health tracker's consecutive-error count for the callee.
    fn health_streak(&self) -> u64;
    /// One attempt's outcome.
    fn outcome(
        &self,
        prototype: &Prototype,
        at: Instant,
        latency: Duration,
        span_id: u64,
        result: &CallResult,
    );
}

/// What the stages do with a span (see [`ActiveSpan`]).
trait StageSpan {
    fn attr_u64(&mut self, key: &'static str, value: u64);
    fn attr_str(&mut self, key: &'static str, value: impl Into<String>);
    fn enter(&self) -> EnterGuard;
    fn id(&self) -> u64;
}

impl StageSpan for ActiveSpan<'_> {
    fn attr_u64(&mut self, key: &'static str, value: u64) {
        ActiveSpan::attr_u64(self, key, value)
    }
    fn attr_str(&mut self, key: &'static str, value: impl Into<String>) {
        ActiveSpan::attr_str(self, key, value)
    }
    fn enter(&self) -> EnterGuard {
        ActiveSpan::enter(self)
    }
    fn id(&self) -> u64 {
        ActiveSpan::id(self)
    }
}

/// No span is ever opened without telemetry.
impl StageSpan for Infallible {
    fn attr_u64(&mut self, _: &'static str, _: u64) {
        match *self {}
    }
    fn attr_str(&mut self, _: &'static str, _: impl Into<String>) {
        match *self {}
    }
    fn enter(&self) -> EnterGuard {
        match *self {}
    }
    fn id(&self) -> u64 {
        match *self {}
    }
}

impl Observe for () {
    type Span = Infallible;
    const TIMED: bool = false;
    #[inline]
    fn span(&self, _: &'static str, _: Instant) -> Option<Infallible> {
        None
    }
    #[inline]
    fn dedup_hit(&self) {}
    #[inline]
    fn count(&self, _: fn(&ResilienceSeries) -> &Arc<Counter>) {}
    #[inline]
    fn transition(&self, _: Instant, _: BreakerEdge) {}
    #[inline]
    fn health_streak(&self) -> u64 {
        0
    }
    #[inline]
    fn outcome(&self, _: &Prototype, _: Instant, _: Duration, _: u64, _: &CallResult) {}
}

/// The telemetry of one logical call: the bundle and the callee's series.
struct Observer<'t> {
    telemetry: &'t BetaTelemetry,
    service: &'t ServiceRef,
    series: Arc<ServiceSeries>,
}

impl Observer<'_> {
    fn counter(&self, name: &str) -> Arc<Counter> {
        self.telemetry
            .registry
            .counter(name, &[("service", self.service.as_str())])
    }

    fn resilience(&self) -> &ResilienceSeries {
        self.series.resilience.get_or_init(|| {
            let transition = |to: &str| {
                self.telemetry.registry.counter(
                    "serena_breaker_transitions_total",
                    &[("service", self.service.as_str()), ("to", to)],
                )
            };
            ResilienceSeries {
                retries: self.counter("serena_resilience_retries_total"),
                timeouts: self.counter("serena_resilience_timeouts_total"),
                breaker_opened: self.counter("serena_resilience_breaker_opened_total"),
                rejected: self.counter("serena_resilience_rejected_total"),
                transitions: [
                    transition("closed"),
                    transition("open"),
                    transition("half_open"),
                ],
            }
        })
    }
}

impl<'t> Observe for Observer<'t> {
    type Span = ActiveSpan<'t>;
    const TIMED: bool = true;
    fn span(&self, name: &'static str, at: Instant) -> Option<ActiveSpan<'t>> {
        let mut span = self.telemetry.tracer.start(name, at)?;
        span.attr_str("service", self.service.as_str());
        Some(span)
    }

    fn dedup_hit(&self) {
        self.series
            .dedup
            .get_or_init(|| self.counter("serena_beta_dedup_total"))
            .inc();
    }

    fn count(&self, pick: fn(&ResilienceSeries) -> &Arc<Counter>) {
        pick(self.resilience()).inc();
    }

    fn health_streak(&self) -> u64 {
        self.telemetry
            .health
            .health_of(self.service)
            .map_or(0, |h| h.consecutive_errors)
    }

    fn transition(&self, at: Instant, (from, to): BreakerEdge) {
        let index = match to {
            "closed" => 0,
            "open" => 1,
            _ => 2,
        };
        self.resilience().transitions[index].inc();
        if let Some(trace) = &self.telemetry.trace {
            trace.emit(&TraceEvent::BreakerTransition {
                service: self.service.to_string(),
                at,
                from: from.to_string(),
                to: to.to_string(),
            });
        }
    }

    fn outcome(
        &self,
        prototype: &Prototype,
        at: Instant,
        latency: Duration,
        span_id: u64,
        result: &CallResult,
    ) {
        let series = self.series.calls.get_or_init(|| {
            let labels = [("service", self.service.as_str())];
            let registry = &self.telemetry.registry;
            CallSeries {
                latency: registry.histogram("serena_service_latency_ns", &labels),
                calls: registry.counter("serena_service_calls_total", &labels),
                failures: registry.counter("serena_service_failures_total", &labels),
            }
        });
        let latency_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        series.latency.record_with_exemplar(latency_ns, span_id);
        series.calls.inc();
        let error = result.as_ref().err().map(ToString::to_string);
        if error.is_some() {
            series.failures.inc();
        }
        self.telemetry
            .health
            .record(self.service, at, error.as_deref());
        if let Some(trace) = &self.telemetry.trace {
            trace.emit(&TraceEvent::Invocation {
                service: self.service.to_string(),
                prototype: prototype.name().to_string(),
                at,
                latency_ns,
                ok: error.is_none(),
            });
            if let Some(message) = error {
                trace.emit(&TraceEvent::Failure {
                    scope: self.service.to_string(),
                    at,
                    message,
                });
            }
        }
    }
}

/// The β pipeline over the invoker `inner` (the service registry): dedup
/// claim → breaker admit → attempt loop → one outcome per attempt → dedup
/// publish. See the [module docs](self) for each stage and what it
/// reports.
///
/// Assembling one is cheap (it borrows its state), so the PEMS builds one
/// per tick — with dedup — and one per one-shot — without: one-shots run
/// between ticks and must see registry changes at once.
///
/// ```
/// use serena_core::prelude::*;
/// use serena_services::pipeline::BetaPipeline;
/// use serena_services::resilience::{ResiliencePolicy, ResilienceState};
///
/// let registry = serena_core::service::fixtures::example_registry();
/// let state = ResilienceState::new();
/// let beta = BetaPipeline::new(&registry, ResiliencePolicy::standard(), &state);
/// let rows = beta
///     .invoke(
///         &serena_core::prototype::examples::get_temperature(),
///         &ServiceRef::new("sensor01"),
///         &Tuple::empty(),
///         Instant(1),
///     )
///     .unwrap();
/// assert_eq!(rows.len(), 1);
/// ```
pub struct BetaPipeline<'a, I> {
    inner: I,
    policy: ResiliencePolicy,
    resilience: &'a ResilienceState,
    dedup: Option<&'a DedupState>,
    telemetry: Option<&'a BetaTelemetry>,
}

impl<'a, I: Invoker> BetaPipeline<'a, I> {
    /// A pipeline over `inner` applying `policy` with breakers and counters
    /// in `resilience`; no dedup, no telemetry.
    pub fn new(inner: I, policy: ResiliencePolicy, resilience: &'a ResilienceState) -> Self {
        BetaPipeline {
            inner,
            policy,
            resilience,
            dedup: None,
            telemetry: None,
        }
    }

    /// Coalesce identical calls within an instant through `dedup`.
    pub fn with_dedup(mut self, dedup: &'a DedupState) -> Self {
        self.dedup = Some(dedup);
        self
    }

    /// Report series, health, spans and trace events to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &'a BetaTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    // The hot stages are force-inlined and the rare paths (dedup, retry,
    // deadline miss) kept out of line, so that without telemetry the
    // pipeline compiles to a tight loop: the `resilience_overhead` bench
    // gates that configuration at < 5 % over the bare registry.

    /// Stage 1: dedup when a memo is attached.
    #[inline(always)]
    fn logical_call<O: Observe>(
        &self,
        prototype: &Prototype,
        service: &ServiceRef,
        input: &Tuple,
        at: Instant,
        obs: &O,
    ) -> CallResult {
        match self.dedup {
            None => self.resilient_call(prototype, service, input, at, obs),
            Some(dedup) => self.deduped_call(dedup, prototype, service, input, at, obs),
        }
    }

    /// The dedup stage: claim, then — for the caller owning the key — the
    /// resilient call, then publish.
    #[inline(never)]
    fn deduped_call<O: Observe>(
        &self,
        dedup: &DedupState,
        prototype: &Prototype,
        service: &ServiceRef,
        input: &Tuple,
        at: Instant,
        obs: &O,
    ) -> CallResult {
        let mut span = obs.span("beta", at);
        if let Some(s) = span.as_mut() {
            s.attr_str("prototype", prototype.name());
        }
        let (result, how) = match dedup.claim(prototype, service, input, at) {
            Claim::Shared { result, how } => {
                obs.dedup_hit();
                (result, how)
            }
            Claim::Owner(ticket) => {
                let result = {
                    let _in_span = span.as_ref().map(StageSpan::enter);
                    self.resilient_call(prototype, service, input, at, obs)
                };
                dedup.publish(ticket, &result);
                (result, "call")
            }
        };
        if let Some(s) = span.as_mut() {
            s.attr_str("dedup", how);
            s.attr_u64("ok", result.is_ok() as u64);
        }
        result
    }

    /// Breaker admit and the attempt loop, for the caller owning the call.
    #[inline(always)]
    fn resilient_call<O: Observe>(
        &self,
        prototype: &Prototype,
        service: &ServiceRef,
        input: &Tuple,
        at: Instant,
        obs: &O,
    ) -> CallResult {
        if self.policy.is_disabled() {
            return self.attempt(prototype, service, input, at, obs);
        }
        let mut span = obs.span("beta.call", at);
        if let (Some(s), Some(deadline)) = (span.as_mut(), self.policy.deadline) {
            s.attr_u64("deadline_ms", deadline.as_millis() as u64);
        }
        let _in_span = span.as_ref().map(StageSpan::enter);
        let edge = match self.resilience.admit(&self.policy, service, at) {
            Admission::Admit(edge) => edge,
            Admission::Reject => {
                obs.count(|s| &s.rejected);
                if let Some(s) = span.as_mut() {
                    s.attr_u64("attempts", 0);
                    s.attr_str("breaker", "rejected");
                    s.attr_u64("ok", 0);
                }
                return Err(EvalError::CircuitOpen {
                    service: service.to_string(),
                });
            }
        };
        if let Some(edge) = edge {
            obs.transition(at, edge);
        }
        let mut attempts: u32 = 0;
        let result = loop {
            attempts += 1;
            match self.attempt(prototype, service, input, at, obs) {
                Ok(rows) => {
                    if let Some(edge) = self.resilience.on_success(&self.policy, service) {
                        obs.transition(at, edge);
                    }
                    break Ok(rows);
                }
                Err(e) => {
                    if !self.retry_after(&e, service, at, attempts, obs) {
                        break Err(e);
                    }
                }
            }
        };
        if let Some(s) = span.as_mut() {
            s.attr_u64("attempts", u64::from(attempts));
            s.attr_u64("retries", u64::from(attempts - 1));
            s.attr_str("breaker", self.resilience.breaker_of(service).to_string());
            s.attr_u64("ok", result.is_ok() as u64);
        }
        result
    }

    /// Feed one failed attempt to the breaker and decide whether to retry
    /// it (after the backoff, slept here).
    #[cold]
    #[inline(never)]
    fn retry_after<O: Observe>(
        &self,
        e: &EvalError,
        service: &ServiceRef,
        at: Instant,
        attempts: u32,
        obs: &O,
    ) -> bool {
        let opened = self
            .resilience
            .on_failure(&self.policy, service, at, || obs.health_streak());
        if let Some(edge) = opened {
            obs.count(|s| &s.breaker_opened);
            obs.transition(at, edge);
        }
        // A breaker opened by this streak stops the retry loop: the service
        // is presumed gone, fail fast.
        if attempts > self.policy.max_retries
            || !is_transient(e)
            || matches!(
                self.resilience.breaker_of(service),
                BreakerState::Open { .. }
            )
        {
            return false;
        }
        self.resilience.count_retry();
        obs.count(|s| &s.retries);
        let delay = self.policy.backoff_for(attempts);
        if !delay.is_zero() {
            std::thread::sleep(delay.mul_f64(jitter(service, at, attempts)));
        }
        true
    }

    /// Soft deadline: the call completed but too late — its result is
    /// discarded, and the attempt is one failed outcome.
    #[cold]
    #[inline(never)]
    fn miss_deadline<O: Observe>(
        &self,
        result: &mut CallResult,
        prototype: &Prototype,
        service: &ServiceRef,
        obs: &O,
    ) {
        self.resilience.count_timeout();
        obs.count(|s| &s.timeouts);
        *result = Err(EvalError::DeadlineExceeded {
            service: service.to_string(),
            prototype: prototype.name().to_string(),
        });
    }

    /// One physical attempt: the panic-contained call, timed once, with
    /// deadline conversion, reported as one outcome.
    #[inline(always)]
    fn attempt<O: Observe>(
        &self,
        prototype: &Prototype,
        service: &ServiceRef,
        input: &Tuple,
        at: Instant,
        obs: &O,
    ) -> CallResult {
        let mut span = obs.span("beta.attempt", at);
        if let Some(s) = span.as_mut() {
            s.attr_str("prototype", prototype.name());
        }
        let started = (O::TIMED || self.policy.deadline.is_some()).then(std::time::Instant::now);
        let mut result = {
            let _in_span = span.as_ref().map(StageSpan::enter);
            invoke_contained(&self.inner, prototype, service, input, at)
        };
        let latency = started.map_or(Duration::ZERO, |t| t.elapsed());
        if matches!(self.policy.deadline, Some(deadline) if result.is_ok() && latency > deadline) {
            self.miss_deadline(&mut result, prototype, service, obs);
        }
        if let Some(s) = span.as_mut() {
            s.attr_u64("ok", result.is_ok() as u64);
            if let Err(e) = &result {
                s.attr_str("error", e.to_string());
            }
        }
        let span_id = span.as_ref().map_or(0, StageSpan::id);
        drop(span); // close before the latency sample so the exemplar resolves
        obs.outcome(prototype, at, latency, span_id, &result);
        result
    }
}

impl<I: Invoker> Invoker for BetaPipeline<'_, I> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> CallResult {
        match self.telemetry {
            None => self.logical_call(prototype, service_ref, input, at, &()),
            Some(telemetry) => {
                let obs = Observer {
                    telemetry,
                    service: service_ref,
                    series: telemetry.series(service_ref),
                };
                self.logical_call(prototype, service_ref, input, at, &obs)
            }
        }
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.inner.providers_of(prototype)
    }
}

/// An error worth retrying: the service exists and speaks the prototype,
/// it just failed (or timed out) this time.
fn is_transient(e: &EvalError) -> bool {
    matches!(
        e,
        EvalError::InvocationFailed { .. }
            | EvalError::DeadlineExceeded { .. }
            | EvalError::RemoteUnavailable { .. }
    )
}

/// Deterministic jitter factor in `[0.5, 1.0)` for one (service, instant,
/// attempt) triple — stable across runs, decorrelated across services and
/// attempts.
fn jitter(service: &ServiceRef, at: Instant, attempt: u32) -> f64 {
    let mut hasher = DefaultHasher::new();
    service.as_str().hash(&mut hasher);
    at.ticks().hash(&mut hasher);
    attempt.hash(&mut hasher);
    let unit = (hasher.finish() >> 11) as f64 / (1u64 << 53) as f64;
    0.5 + unit / 2.0
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::faults::{FaultPolicy, FaultyService, SlowInvoker};
    use crate::registry::DynamicRegistry;
    use serena_core::prototype::examples as protos;
    use serena_core::service::{fixtures, FnService, Service, StaticRegistry};
    use serena_core::snapshot::{Reader, Writer};
    use serena_core::telemetry::MemoryTrace;
    use serena_core::value::Value;

    /// Breakers and counters private to one test.
    fn fresh() -> &'static ResilienceState {
        Box::leak(Box::default())
    }

    /// A telemetry bundle over fresh sinks, emitting to `trace`.
    fn telemetry_with(trace: Option<Arc<dyn TraceSink>>) -> BetaTelemetry {
        BetaTelemetry::new(
            Arc::new(MetricsRegistry::new()),
            Arc::new(HealthTracker::default()),
            Arc::new(FlightRecorder::with_capacity(1024)),
            trace,
        )
    }

    fn temperature(invoker: &dyn Invoker, service: &str, at: Instant) -> CallResult {
        invoker.invoke(
            &protos::get_temperature(),
            &ServiceRef::new(service),
            &Tuple::empty(),
            at,
        )
    }

    /// A registry whose sensor counts every physical invocation.
    fn counting_registry() -> (StaticRegistry, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let reg = StaticRegistry::new();
        reg.register(
            "sensor01",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                move |_p, input, at| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    let salt = input.arity() as u64;
                    Ok(vec![Tuple::new(vec![Value::Real(
                        (at.ticks() + salt) as f64,
                    )])])
                },
            )),
        );
        (reg, calls)
    }

    /// The tick configuration's dedup stage alone: no resilience, no
    /// telemetry.
    fn deduped<'a>(reg: &'a StaticRegistry, state: &'a DedupState) -> impl Invoker + 'a {
        BetaPipeline::new(reg, ResiliencePolicy::disabled(), fresh()).with_dedup(state)
    }

    fn flaky(policy: FaultPolicy) -> (DynamicRegistry, Arc<FaultyService>) {
        let faulty = FaultyService::new(fixtures::temperature_sensor(1), policy);
        let reg = DynamicRegistry::new();
        reg.register("flaky", faulty.clone());
        (reg, faulty)
    }

    /// One row per stage-order contract: a service, a pipeline
    /// configuration, a number of logical callers within one instant, and
    /// what every stage must have recorded afterwards.
    struct StageCase {
        name: &'static str,
        body: Arc<dyn Service>,
        faults: FaultPolicy,
        latency: Duration,
        policy: ResiliencePolicy,
        dedup: bool,
        callers: usize,
        physical_attempts: u64,
        dedup_hits_misses: (u64, u64),
        health_attempts_failures: (u64, u64),
        breaker_open: bool,
        outcome: fn(&CallResult) -> bool,
    }

    #[test]
    fn stages_run_in_their_fixed_order() {
        let cases = [
            StageCase {
                // dedup sits above the retries: the second caller shares
                // the first caller's retried result
                name: "dedup above retries",
                body: fixtures::temperature_sensor(1),
                faults: FaultPolicy::Intermittent { fail: 1, ok: 100 },
                latency: Duration::ZERO,
                policy: ResiliencePolicy::disabled().with_retries(1),
                dedup: true,
                callers: 2,
                physical_attempts: 2,
                dedup_hits_misses: (1, 1),
                health_attempts_failures: (2, 1),
                breaker_open: false,
                outcome: |r| r.is_ok(),
            },
            StageCase {
                // the one-shot configuration never dedups
                name: "one-shot",
                body: fixtures::temperature_sensor(1),
                faults: FaultPolicy::None,
                latency: Duration::ZERO,
                policy: ResiliencePolicy::disabled(),
                dedup: false,
                callers: 2,
                physical_attempts: 2,
                dedup_hits_misses: (0, 0),
                health_attempts_failures: (2, 0),
                breaker_open: false,
                outcome: |r| r.is_ok(),
            },
            StageCase {
                // a panicking body is one contained outcome that counts
                // toward the breaker
                name: "panic",
                body: fixtures::panicking_sensor(),
                faults: FaultPolicy::None,
                latency: Duration::ZERO,
                policy: ResiliencePolicy::disabled().with_breaker(1, 4),
                dedup: false,
                callers: 1,
                physical_attempts: 1,
                dedup_hits_misses: (0, 0),
                health_attempts_failures: (1, 1),
                breaker_open: true,
                outcome: |r| matches!(r, Err(EvalError::Panicked { .. })),
            },
            StageCase {
                // a deadline conversion is one failed outcome
                name: "deadline",
                body: fixtures::temperature_sensor(1),
                faults: FaultPolicy::None,
                latency: Duration::from_millis(5),
                policy: ResiliencePolicy::disabled().with_deadline(Duration::from_millis(1)),
                dedup: false,
                callers: 1,
                physical_attempts: 1,
                dedup_hits_misses: (0, 0),
                health_attempts_failures: (1, 1),
                breaker_open: false,
                outcome: |r| matches!(r, Err(EvalError::DeadlineExceeded { .. })),
            },
        ];
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for case in cases {
            let faulty = FaultyService::new(case.body, case.faults);
            let reg = DynamicRegistry::new();
            reg.register("svc", faulty.clone());
            let slow = SlowInvoker::new(&reg, case.latency);
            let resilience = ResilienceState::new();
            let dedup = DedupState::new();
            let telemetry = telemetry_with(None);
            let mut beta =
                BetaPipeline::new(&slow, case.policy, &resilience).with_telemetry(&telemetry);
            if case.dedup {
                beta = beta.with_dedup(&dedup);
            }
            for _ in 0..case.callers {
                let result = temperature(&beta, "svc", Instant(3));
                assert!((case.outcome)(&result), "{}: {result:?}", case.name);
            }
            let svc = ServiceRef::new("svc");
            let health = telemetry.health.health_of(&svc).expect("observed");
            let s = [("service", "svc")];
            let registry = &telemetry.registry;
            assert_eq!(faulty.attempts(), case.physical_attempts, "{}", case.name);
            assert_eq!(
                (dedup.hits(), dedup.misses()),
                case.dedup_hits_misses,
                "{}",
                case.name
            );
            assert_eq!(
                (health.attempts, health.failures),
                case.health_attempts_failures,
                "{}",
                case.name
            );
            assert_eq!(
                (
                    registry.counter_value("serena_service_calls_total", &s),
                    registry.counter_value("serena_service_failures_total", &s)
                ),
                (
                    Some(case.health_attempts_failures.0),
                    Some(case.health_attempts_failures.1)
                ),
                "{}",
                case.name
            );
            assert_eq!(
                matches!(resilience.breaker_of(&svc), BreakerState::Open { .. }),
                case.breaker_open,
                "{}",
                case.name
            );
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn identical_calls_within_an_instant_coalesce() {
        let (reg, calls) = counting_registry();
        let state = DedupState::new();
        let inv = deduped(&reg, &state);
        let call = |at| temperature(&inv, "sensor01", at).unwrap();
        let a = call(Instant(3));
        let b = call(Instant(3));
        let c = call(Instant(3));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one upstream call");
        assert_eq!((state.hits(), state.misses()), (2, 1));
    }

    #[test]
    fn a_new_instant_clears_the_memo() {
        let (reg, calls) = counting_registry();
        let state = DedupState::new();
        let inv = deduped(&reg, &state);
        for at in [Instant(0), Instant(0), Instant(1), Instant(1)] {
            temperature(&inv, "sensor01", at).unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one call per instant");
        // regressing to an old instant is also a fresh table (defensive:
        // PEMS never does this, but the memo must not serve stale results)
        temperature(&inv, "sensor01", Instant(0)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn distinct_inputs_do_not_coalesce() {
        let (reg, calls) = counting_registry();
        let state = DedupState::new();
        let inv = deduped(&reg, &state);
        let proto = protos::get_temperature();
        let sref = ServiceRef::new("sensor01");
        let a = inv
            .invoke(&proto, &sref, &Tuple::new(vec![Value::Int(1)]), Instant(0))
            .unwrap();
        let b = inv
            .invoke(&proto, &sref, &Tuple::new(vec![Value::Int(2)]), Instant(0))
            .unwrap();
        // different inputs both reached the service (salt differs per arity
        // only, so equal outputs are fine — the call count is the contract)
        let _ = (a, b);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(state.hits(), 0);
    }

    #[test]
    fn errors_are_shared_like_results() {
        let reg = StaticRegistry::new();
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        reg.register(
            "flaky",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                move |_p, _in, _at| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Err("device unreachable".to_string())
                },
            )),
        );
        let state = DedupState::new();
        let inv = deduped(&reg, &state);
        let call = || temperature(&inv, "flaky", Instant(5)).unwrap_err();
        let a = call();
        let b = call();
        assert_eq!(a, b, "second caller sees the identical error");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_callers_share_one_inflight_call() {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let reg = StaticRegistry::new();
        reg.register(
            "slow",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                move |_p, _in, at| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(vec![Tuple::new(vec![Value::Real(at.ticks() as f64)])])
                },
            )),
        );
        let state = DedupState::new();
        let inv = deduped(&reg, &state);
        let results: Vec<Vec<Tuple>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let inv = &inv;
                    scope.spawn(move || temperature(inv, "slow", Instant(9)).unwrap())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "calls coalesced");
        assert_eq!(state.hits() + state.misses(), 8);
        assert_eq!(state.misses(), 1);
    }

    #[test]
    fn pipeline_without_dedup_never_coalesces() {
        let (reg, calls) = counting_registry();
        let state = DedupState::new();
        let inv = BetaPipeline::new(&reg, ResiliencePolicy::disabled(), fresh());
        for _ in 0..3 {
            temperature(&inv, "sensor01", Instant(1)).unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!((state.hits(), state.misses()), (0, 0));
    }

    #[test]
    fn dedup_counter_lands_in_the_registry() {
        let (reg, _calls) = counting_registry();
        let state = DedupState::new();
        let telemetry = telemetry_with(None);
        let inv = BetaPipeline::new(&reg, ResiliencePolicy::disabled(), fresh())
            .with_dedup(&state)
            .with_telemetry(&telemetry);
        for _ in 0..4 {
            temperature(&inv, "sensor01", Instant(2)).unwrap();
        }
        let metrics = &telemetry.registry;
        assert_eq!(
            metrics.counter_value("serena_beta_dedup_total", &[("service", "sensor01")]),
            Some(3)
        );
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE serena_beta_dedup_total counter"));
    }

    #[test]
    fn providers_pass_through() {
        let reg = fixtures::example_registry();
        let state = DedupState::new();
        let inv = BetaPipeline::new(&reg, ResiliencePolicy::standard(), fresh()).with_dedup(&state);
        assert_eq!(inv.providers_of("getTemperature").len(), 4);
    }

    #[test]
    fn records_latency_outcomes_and_traces() {
        let inner = fixtures::example_registry();
        let trace = Arc::new(MemoryTrace::new());
        let telemetry = telemetry_with(Some(trace.clone()));
        let invoker = BetaPipeline::new(&inner, ResiliencePolicy::disabled(), fresh())
            .with_telemetry(&telemetry);

        temperature(&invoker, "sensor01", Instant(1)).unwrap();
        temperature(&invoker, "sensor01", Instant(2)).unwrap();
        assert!(temperature(&invoker, "ghost", Instant(3)).is_err());

        let registry = &telemetry.registry;
        let s = [("service", "sensor01")];
        assert_eq!(
            registry.counter_value("serena_service_calls_total", &s),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("serena_service_failures_total", &s),
            Some(0)
        );
        assert_eq!(
            registry.counter_value("serena_service_failures_total", &[("service", "ghost")]),
            Some(1)
        );
        assert_eq!(
            registry.histogram("serena_service_latency_ns", &s).count(),
            2
        );

        let health = telemetry.health.report();
        assert_eq!(health.iter().map(|h| h.attempts).sum::<u64>(), 3);
        let sensor = telemetry.health.health_of(&ServiceRef::new("sensor01"));
        assert_eq!(sensor.map(|h| (h.attempts, h.failures)), Some((2, 0)));
        let ghost = telemetry.health.health_of(&ServiceRef::new("ghost"));
        assert_eq!(ghost.map(|h| (h.attempts, h.failures)), Some((1, 1)));

        // 3 invocation events + 1 failure event
        let events = trace.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(
            &events[3],
            TraceEvent::Failure { scope, .. } if scope == "ghost"
        ));
        // pass-through: discovery is undisturbed
        assert!(!invoker.providers_of("getTemperature").is_empty());
    }

    #[test]
    fn bare_pipeline_is_transparent() {
        let inner = fixtures::example_registry();
        let invoker = BetaPipeline::new(&inner, ResiliencePolicy::disabled(), fresh());
        let out = temperature(&invoker, "sensor01", Instant(0)).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn contains_service_panics() {
        let reg = StaticRegistry::new();
        reg.register("boom", fixtures::panicking_sensor());
        reg.register("sensor01", fixtures::temperature_sensor(1));
        let invoker = BetaPipeline::new(&reg, ResiliencePolicy::disabled(), fresh());

        // silence the default panic hook's stderr backtrace for this test
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = temperature(&invoker, "boom", Instant(1)).unwrap_err();
        std::panic::set_hook(prev);

        match err {
            EvalError::Panicked {
                service,
                prototype,
                reason,
            } => {
                assert_eq!(service, "boom");
                assert_eq!(prototype, "getTemperature");
                assert_eq!(reason, "sensor firmware bug");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // the pipeline is still usable after the contained panic
        let out = temperature(&invoker, "sensor01", Instant(1)).unwrap();
        assert_eq!(out.len(), 1);
        // discovery passes through
        assert_eq!(invoker.providers_of("getTemperature").len(), 2);
    }

    #[test]
    fn slow_invoker_composes_under_the_pipeline() {
        let reg = fixtures::example_registry();
        let slow = SlowInvoker::new(reg, Duration::from_millis(1));
        let invoker = BetaPipeline::new(slow, ResiliencePolicy::standard(), fresh());
        let out = temperature(&invoker, "sensor01", Instant(0)).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn disabled_policy_is_transparent() {
        let (reg, faulty) = flaky(FaultPolicy::EveryNth(2));
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, ResiliencePolicy::disabled(), &state);
        assert!(temperature(&invoker, "flaky", Instant(0)).is_err()); // call 0 fails
        assert!(temperature(&invoker, "flaky", Instant(0)).is_ok());
        assert_eq!(faulty.attempts(), 2); // no retries happened
        assert_eq!(
            state.counters(),
            crate::resilience::ResilienceCounters::default()
        );
    }

    #[test]
    fn retries_recover_transient_faults() {
        // every cycle: 1 failure then 3 successes; one retry suffices
        let (reg, faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 3 });
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, ResiliencePolicy::disabled().with_retries(2), &state);
        for t in 0..8u64 {
            assert!(temperature(&invoker, "flaky", Instant(t)).is_ok(), "t={t}");
        }
        let c = state.counters();
        assert_eq!(c.retries, 3); // faults at raw calls 0, 4 and 8
        assert_eq!(faulty.attempts(), 11); // 8 logical + 3 retries
    }

    #[test]
    fn retry_budget_exhausts_on_persistent_faults() {
        let (reg, faulty) = flaky(FaultPolicy::EveryNth(1)); // always fails
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, ResiliencePolicy::disabled().with_retries(3), &state);
        let err = temperature(&invoker, "flaky", Instant(0)).unwrap_err();
        assert!(matches!(err, EvalError::InvocationFailed { .. }));
        assert_eq!(faulty.attempts(), 4); // 1 + 3 retries
        assert_eq!(state.counters().retries, 3);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let reg = DynamicRegistry::new();
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, ResiliencePolicy::disabled().with_retries(5), &state);
        // unknown service → not transient
        let err = temperature(&invoker, "flaky", Instant(0)).unwrap_err();
        assert!(matches!(err, EvalError::UnknownService { .. }));
        assert_eq!(state.counters().retries, 0);
    }

    #[test]
    fn breaker_opens_then_half_opens_then_closes() {
        let (reg, faulty) = flaky(FaultPolicy::Intermittent { fail: 3, ok: 100 });
        let policy = ResiliencePolicy::disabled().with_breaker(3, 4);
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, policy, &state);
        let sref = ServiceRef::new("flaky");

        // three consecutive failures trip the breaker at τ=2
        for t in 0..3u64 {
            assert!(temperature(&invoker, "flaky", Instant(t)).is_err());
        }
        assert_eq!(
            state.breaker_of(&sref),
            BreakerState::Open { until: Instant(6) }
        );
        assert_eq!(state.counters().breaker_opened, 1);

        // during cooldown: rejected fast, the service is never touched
        let attempts_before = faulty.attempts();
        let err = temperature(&invoker, "flaky", Instant(4)).unwrap_err();
        assert!(matches!(err, EvalError::CircuitOpen { .. }));
        assert_eq!(faulty.attempts(), attempts_before);
        assert_eq!(state.counters().rejected, 1);

        // cooldown over: the probe goes through (fault cycle is in its ok
        // phase now) and the breaker closes
        assert!(temperature(&invoker, "flaky", Instant(6)).is_ok());
        assert_eq!(state.breaker_of(&sref), BreakerState::Closed);
    }

    #[test]
    fn breaker_edges_publish_transition_telemetry() {
        let (reg, _faulty) = flaky(FaultPolicy::Intermittent { fail: 3, ok: 100 });
        let policy = ResiliencePolicy::disabled().with_breaker(3, 4);
        let trace = Arc::new(MemoryTrace::new());
        let telemetry = telemetry_with(Some(trace.clone()));
        let invoker = BetaPipeline::new(&reg, policy, fresh()).with_telemetry(&telemetry);

        // closed → open at τ=2, open → half-open → closed at τ=6
        for t in 0..3u64 {
            assert!(temperature(&invoker, "flaky", Instant(t)).is_err());
        }
        assert!(temperature(&invoker, "flaky", Instant(6)).is_ok());

        let count = |to: &str| {
            telemetry
                .registry
                .counter(
                    "serena_breaker_transitions_total",
                    &[("service", "flaky"), ("to", to)],
                )
                .get()
        };
        assert_eq!(count("open"), 1);
        assert_eq!(count("half_open"), 1);
        assert_eq!(count("closed"), 1);

        let edges: Vec<(String, String, Instant)> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BreakerTransition { from, to, at, .. } => {
                    Some((from.clone(), to.clone(), *at))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            edges,
            vec![
                ("closed".into(), "open".into(), Instant(2)),
                ("open".into(), "half_open".into(), Instant(6)),
                ("half_open".into(), "closed".into(), Instant(6)),
            ]
        );
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let (reg, _faulty) = flaky(FaultPolicy::EveryNth(1)); // always fails
        let policy = ResiliencePolicy::disabled().with_breaker(2, 3);
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, policy, &state);
        let sref = ServiceRef::new("flaky");

        assert!(temperature(&invoker, "flaky", Instant(0)).is_err());
        assert!(temperature(&invoker, "flaky", Instant(1)).is_err());
        assert_eq!(
            state.breaker_of(&sref),
            BreakerState::Open { until: Instant(4) }
        );
        // probe at τ=4 fails → immediately reopen until τ=7
        assert!(temperature(&invoker, "flaky", Instant(4)).is_err());
        assert_eq!(
            state.breaker_of(&sref),
            BreakerState::Open { until: Instant(7) }
        );
        assert_eq!(state.counters().breaker_opened, 2);
    }

    #[test]
    fn deadline_converts_slow_success() {
        let reg = fixtures::example_registry();
        let slow = SlowInvoker::new(reg, Duration::from_millis(10));
        let policy = ResiliencePolicy::disabled().with_deadline(Duration::from_millis(1));
        let state = ResilienceState::new();
        let telemetry = telemetry_with(None);
        let invoker = BetaPipeline::new(slow, policy, &state).with_telemetry(&telemetry);
        let err = temperature(&invoker, "sensor01", Instant(0)).unwrap_err();
        assert!(matches!(err, EvalError::DeadlineExceeded { .. }));
        assert_eq!(state.counters().timeouts, 1);
        // the conversion is visible to health, as the attempt's one outcome
        let h = telemetry
            .health
            .health_of(&ServiceRef::new("sensor01"))
            .unwrap();
        assert_eq!(h.failures, 1);
        assert_eq!(h.attempts, 1);
    }

    #[test]
    fn registry_series_are_published() {
        let (reg, _faulty) = flaky(FaultPolicy::EveryNth(1));
        let telemetry = telemetry_with(None);
        let invoker =
            BetaPipeline::new(&reg, ResiliencePolicy::disabled().with_retries(1), fresh())
                .with_telemetry(&telemetry);
        let _ = temperature(&invoker, "flaky", Instant(0));
        assert_eq!(
            telemetry
                .registry
                .counter_value("serena_resilience_retries_total", &[("service", "flaky")]),
            Some(1)
        );
    }

    #[test]
    fn resilience_state_round_trips_through_snapshot() {
        let (reg, _faulty) = flaky(FaultPolicy::EveryNth(1));
        let policy = ResiliencePolicy::disabled().with_breaker(2, 3);
        let state = ResilienceState::new();
        let invoker = BetaPipeline::new(&reg, policy, &state);
        assert!(temperature(&invoker, "flaky", Instant(0)).is_err());
        assert!(temperature(&invoker, "flaky", Instant(1)).is_err()); // opens the breaker

        let mut w = Writer::new();
        state.export_state(&mut w);
        let bytes = w.into_bytes();

        let restored = ResilienceState::new();
        restored.import_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.counters(), state.counters());
        assert_eq!(restored.breakers(), state.breakers());
        // the restored breaker still rejects during cooldown, without any
        // warm-up calls — the engaged fast path was rebuilt too
        let invoker = BetaPipeline::new(&reg, policy, &restored);
        let err = temperature(&invoker, "flaky", Instant(2)).unwrap_err();
        assert!(matches!(err, EvalError::CircuitOpen { .. }));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let s = ServiceRef::new("svc");
        assert_eq!(jitter(&s, Instant(7), 2), jitter(&s, Instant(7), 2));
        for at in 0..50u64 {
            for attempt in 1..4u32 {
                let j = jitter(&s, Instant(at), attempt);
                assert!((0.5..1.0).contains(&j), "{j}");
            }
        }
    }
}
