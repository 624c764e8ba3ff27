//! Output check. Every instant, each query's report is folded into exact
//! counts and an order-independent digest, and compared with what the
//! generated inputs predict: the arrival trace fixes every stream source
//! and every windowed selection, and the seed's fault schedule plus the
//! churn schedule fix every βˢ batch and the sensor inventory.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use serena_core::metrics::OpKind;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::Value;
use serena_pems::envspec::{ArrivalTrace, EnvSpec};
use serena_pems::pems::ExecOutcome;
use serena_stream::exec::TickReport;
use serena_stream::multiset::Multiset;

use crate::stats::Json;
use crate::workload::{Expect, Workload, BOOTSTRAP};

/// Exact counts and digest of the instants folded so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    pub instants: u64,
    /// Stream tuples delivered to each subscribing query, plus tuples
    /// returned by βˢ.
    pub tuples_in: u64,
    /// Inserts, deletes and stream-batch tuples emitted.
    pub tuples_out: u64,
    /// Invocation failures survived (dropped tuples) plus reported errors.
    pub errors: u64,
    /// β requests issued by the continuous queries.
    pub beta_requests: u64,
    pub digest: u64,
}

/// What the single-worker replay must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefix {
    pub tally: Tally,
    pub per_query: Vec<(u64, u64)>,
}

/// Checks one deployment's reports, instant by instant.
pub struct Checker {
    trace: ArrivalTrace,
    areas: Vec<String>,
    /// Sensors absent from the `sensors` table, by the tick they are absent
    /// at; an instant without an entry has every sensor present.
    away: BTreeMap<u64, BTreeSet<usize>>,
    pub tally: Tally,
    /// Each query's own running `(rounded, exact)` digests, in workload
    /// order.
    per_query: Vec<(u64, u64)>,
    /// The tally and per-query digests after the first `prefix_len`
    /// instants.
    pub prefix: Option<Prefix>,
    prefix_len: u64,
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// `(rounded, exact)` hashes of a tuple. The rounded hash keeps 32 of each
/// REAL's 52 mantissa bits: γ's REAL sums follow hash-map iteration order,
/// so two correct runs may disagree in the last bits of an average.
fn tuple_hash(t: &Tuple) -> (u64, u64) {
    let mut h = DefaultHasher::new();
    for v in t.values() {
        match v {
            Value::Real(x) => {
                let bits = x.to_bits();
                ((bits + (1 << 19)) & !((1 << 20) - 1)).hash(&mut h);
            }
            other => other.hash(&mut h),
        }
    }
    (h.finish(), hash_of(t))
}

fn add((a, b): (u64, u64), (c, d): (u64, u64), n: u64) -> (u64, u64) {
    (
        a.wrapping_add(c.wrapping_mul(n)),
        b.wrapping_add(d.wrapping_mul(n)),
    )
}

fn multiset_hash(m: &Multiset) -> (u64, u64) {
    m.iter()
        .fold((0, 0), |acc, (t, n)| add(acc, tuple_hash(t), n as u64))
}

impl Checker {
    pub fn new(w: &Workload, prefix_len: u64) -> Checker {
        let spec = &w.spec;
        Checker {
            trace: *spec
                .arrival_trace()
                .expect("every workload is trace-driven"),
            areas: spec.area_names().to_vec(),
            away: BTreeMap::new(),
            tally: Tally::default(),
            per_query: vec![(0, 0); w.queries.len()],
            prefix: None,
            prefix_len,
        }
    }

    /// Record that `sensors` leave at churn instant `now` (the clock when
    /// the client issued the leave): the bus applies it one instant later,
    /// so they are absent from the table at tick `now + 1` only, rejoining
    /// at the tick after.
    pub fn sensors_leave(&mut self, now: Instant, sensors: &[usize]) {
        self.away
            .insert(now.ticks() + 1, sensors.iter().copied().collect());
    }

    /// Sensors in the `sensors` table at tick `at`.
    fn present(&self, w: &Workload, at: u64) -> usize {
        if at + 1 < BOOTSTRAP {
            return 0;
        }
        w.sensors - self.away.get(&at).map_or(0, BTreeSet::len)
    }

    /// `(β requests, expected failures)` of the console's reading of the
    /// office sensors at `now`: it reads the table the last tick refreshed
    /// and invokes each sensor at `now`.
    pub fn console_reading(&self, w: &Workload, now: Instant) -> (usize, usize) {
        let last = now.ticks().saturating_sub(1);
        let away = self.away.get(&last);
        let office = (0..w.sensors)
            .filter(|i| w.spec.area_of(*i) == "office" && !away.is_some_and(|a| a.contains(i)));
        office.fold((0, 0), |(n, f), i| {
            (n + 1, f + usize::from(w.sensor_fails(i, now)))
        })
    }

    fn arrivals_matching(&self, at: u64, keep: impl Fn(&str, f64) -> bool) -> usize {
        self.trace
            .events_at(Instant(at))
            .into_iter()
            .filter(|(idx, temp)| keep(&self.areas[idx % self.areas.len()], *temp))
            .count()
    }

    /// Expected `(inserts, deletes)` of a windowed selection at `at`.
    fn windowed(&self, at: u64, window: u64, keep: impl Fn(&str, f64) -> bool) -> (usize, usize) {
        let inserts = self.arrivals_matching(at, &keep);
        let deletes = if at >= window {
            self.arrivals_matching(at - window, &keep)
        } else {
            0
        };
        (inserts, deletes)
    }

    /// Fold one instant's reports. Returns a description of the first
    /// output that differs from the model.
    pub fn instant(
        &mut self,
        w: &Workload,
        at: Instant,
        reports: &[(String, TickReport)],
    ) -> Result<(), String> {
        let t = at.ticks();
        let by_name: BTreeMap<&str, &TickReport> =
            reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
        if by_name.len() != w.queries.len() {
            return Err(format!(
                "instant {t}: {} reports for {} queries",
                by_name.len(),
                w.queries.len()
            ));
        }
        let mut digest = self.tally.digest ^ hash_of(&t);
        let mut failing_sensors: Option<usize> = None;
        for (qi, query) in w.queries.iter().enumerate() {
            let r = by_name
                .get(query.name.as_str())
                .ok_or_else(|| format!("instant {t}: no report for `{}`", query.name))?;
            let mut source_in = 0u64;
            let mut sampled_out = 0u64;
            let mut failures = 0u64;
            for node in r.stats.nodes().values() {
                match node.op {
                    OpKind::Source => source_in += node.tuples_out,
                    OpKind::SampleInvoke => sampled_out += node.tuples_out,
                    _ => {}
                }
                if matches!(node.op, OpKind::Invoke | OpKind::SampleInvoke) {
                    self.tally.beta_requests += node.invocations;
                }
                failures += node.failures;
            }
            let (ins, del, batch) = (r.delta.inserts.len(), r.delta.deletes.len(), r.batch.len());
            self.tally.tuples_in += source_in + sampled_out;
            self.tally.tuples_out += (ins + del + batch) as u64;
            self.tally.errors += failures + r.errors.len() as u64;

            let mut errors: Vec<String> = r.errors.iter().map(|e| format!("{e:?}")).collect();
            errors.sort();
            let batch_hash = r
                .batch
                .iter()
                .fold((0, 0), |acc, tuple| add(acc, tuple_hash(tuple), 1));
            let (ins_hash, del_hash) = (
                multiset_hash(&r.delta.inserts),
                multiset_hash(&r.delta.deletes),
            );
            let rest = (query.name.as_str(), errors, failures);
            let rounded = hash_of(&(ins_hash.0, del_hash.0, batch_hash.0, &rest));
            let exact = hash_of(&(ins_hash.1, del_hash.1, batch_hash.1, &rest));
            digest = digest.rotate_left(5).wrapping_mul(0x100_0000_01b3) ^ rounded;
            let (r_acc, e_acc) = self.per_query[qi];
            self.per_query[qi] = (r_acc.rotate_left(5) ^ rounded, e_acc.rotate_left(5) ^ exact);

            let mismatch = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
                Err(format!(
                    "instant {t}: query `{}` {what} {got:?}, expected {want:?}",
                    query.name
                ))
            };
            let stream_in = self.trace.count_at(at) as u64;
            let want = match &query.expect {
                Expect::Hot { .. } | Expect::Area { .. } | Expect::Stream
                    if source_in != stream_in =>
                {
                    return mismatch("received", &source_in, &stream_in);
                }
                Expect::Hot { window, theta } => {
                    Some(self.windowed(t, *window, |_, temp| temp > *theta))
                }
                Expect::Area { window, area } => {
                    Some(self.windowed(t, *window, |loc, _| loc == area))
                }
                Expect::Stream => None,
                Expect::Inventory => Some(match t {
                    0 => (0, 0),
                    1 => (w.sensors, 0),
                    _ => (
                        self.away.get(&(t - 1)).map_or(0, BTreeSet::len),
                        self.away.get(&t).map_or(0, BTreeSet::len),
                    ),
                }),
                Expect::Cameras => Some(if t == 1 { (w.cameras, 0) } else { (0, 0) }),
                Expect::Sampled => {
                    let present = self.present(w, t);
                    let failing = *failing_sensors.get_or_insert_with(|| {
                        let away = self.away.get(&t);
                        (0..w.sensors)
                            .filter(|i| present > 0 && !away.is_some_and(|a| a.contains(i)))
                            .filter(|i| w.sensor_fails(*i, at))
                            .count()
                    });
                    if (batch, failures as usize) != (present - failing, failing) {
                        return mismatch(
                            "sampled/failed",
                            &(batch, failures),
                            &(present - failing, failing),
                        );
                    }
                    None
                }
            };
            if let Some(want) = want {
                if (ins, del) != want {
                    return mismatch("inserted/deleted", &(ins, del), &want);
                }
            }
        }
        self.away.retain(|k, _| *k >= t);
        self.tally.digest = digest;
        self.tally.instants += 1;
        if self.tally.instants == self.prefix_len {
            self.prefix = Some(Prefix {
                tally: self.tally,
                per_query: self.per_query.clone(),
            });
        }
        Ok(())
    }
}

/// Rows a one-shot `SELECT camera FROM cameras` returns at each of
/// `instants` instants after discovery has landed, on a small deployment
/// where no continuous query reads `cameras`, next to the number of cameras
/// deployed. Every instant should return them all.
///
/// It does not: a discovery table that no continuous query commits
/// alternates between full and empty, because `TableHandle::replace_with`
/// replaces the pending delta instead of accumulating it. The workloads
/// keep every table their console reads under a continuous query, so that
/// no measured operation fails; this probe keeps the defect in view on
/// every run (`known_defects` in the provenance header).
pub fn stale_table_probe(seed: u64, instants: usize) -> Json {
    const CAMERAS: usize = 4;
    let spec = EnvSpec::new(seed).sensors(8).cameras(CAMERAS);
    let (mut pems, _fleet) = spec.build().expect("probe deployment builds");
    for _ in 0..BOOTSTRAP {
        pems.tick();
    }
    let mut rows = Vec::new();
    for _ in 0..instants {
        rows.push(match pems.run_sql(None, "SELECT camera FROM cameras;") {
            Ok(ExecOutcome::OneShot(out)) => out.relation.len() as u64,
            _ => 0,
        });
        pems.tick();
    }
    let stale = rows.iter().any(|n| *n != CAMERAS as u64);
    if stale {
        eprintln!(
            "perfbench: known defect: one-shots over an uncommitted discovery table returned \
             {rows:?} rows on consecutive instants, expected {CAMERAS} each"
        );
    }
    Json::obj([(
        "stale_discovery_table",
        Json::obj([
            ("expected_rows", Json::Int(CAMERAS as u64)),
            ("rows", Json::Arr(rows.into_iter().map(Json::Int).collect())),
            ("stale", Json::Bool(stale)),
        ]),
    )])
}
