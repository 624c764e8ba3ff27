//! Outside-in instruments for the traced run: a metrics sink folding every
//! operator observation by kind and by thread lane, and a service decorator
//! timing each device body. Both start disarmed; disarmed, each costs one
//! relaxed load per call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant as Clock};

use serena_core::metrics::{MetricsSink, OpKind, OpObservation};
use serena_core::prototype::Prototype;
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;

/// Totals of one operator kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub self_time: Duration,
    pub tuples_in: u64,
    pub tuples_out: u64,
    pub invocations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub failures: u64,
}

/// Everything the sink folded since it was last taken.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    pub kinds: [KindTotals; OpKind::COUNT],
    /// Operator self-time per thread: summing per lane keeps parallel work
    /// from counting twice against wall time.
    pub lanes: HashMap<ThreadId, Duration>,
}

impl Fold {
    pub fn kind(&self, op: OpKind) -> &KindTotals {
        &self.kinds[op.index()]
    }

    pub fn total_self(&self) -> Duration {
        self.kinds.iter().map(|k| k.self_time).sum()
    }
}

#[derive(Default)]
pub struct LayerSink {
    armed: AtomicBool,
    fold: Mutex<Fold>,
}

impl LayerSink {
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// The fold so far; the sink starts a fresh one.
    pub fn take(&self) -> Fold {
        std::mem::take(&mut *self.fold.lock().expect("layer sink lock poisoned"))
    }
}

impl MetricsSink for LayerSink {
    fn record(&self, obs: &OpObservation) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut fold = self.fold.lock().expect("layer sink lock poisoned");
        let k = &mut fold.kinds[obs.op.index()];
        k.self_time += obs.elapsed;
        k.tuples_in += obs.tuples_in;
        k.tuples_out += obs.tuples_out;
        k.invocations += obs.invocations;
        k.cache_hits += obs.cache_hits;
        k.cache_misses += obs.cache_misses;
        k.failures += obs.failures;
        *fold.lanes.entry(std::thread::current().id()).or_default() += obs.elapsed;
    }
}

/// Counters of every decorated service.
#[derive(Default)]
pub struct ServiceProbe {
    armed: AtomicBool,
    calls: AtomicU64,
    failures: AtomicU64,
    body_ns: AtomicU64,
}

/// `(calls, failures, body time)` since the probe was last taken.
pub type ServiceTotals = (u64, u64, Duration);

impl ServiceProbe {
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    pub fn take(&self) -> ServiceTotals {
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.failures.swap(0, Ordering::Relaxed),
            Duration::from_nanos(self.body_ns.swap(0, Ordering::Relaxed)),
        )
    }

    /// `inner` behind a decorator that times each invocation into `probe`.
    pub fn wrap(probe: &Arc<ServiceProbe>, inner: Arc<dyn Service>) -> Arc<dyn Service> {
        Arc::new(TimedService {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

struct TimedService {
    inner: Arc<dyn Service>,
    probe: Arc<ServiceProbe>,
}

impl Service for TimedService {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.inner.prototypes()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        if !self.probe.armed.load(Ordering::Relaxed) {
            return self.inner.invoke(prototype, input, at);
        }
        let started = Clock::now();
        let out = self.inner.invoke(prototype, input, at);
        let took = started.elapsed().as_nanos() as u64;
        self.probe.body_ns.fetch_add(took, Ordering::Relaxed);
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        if out.is_err() {
            self.probe.failures.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}
