//! The four workloads: seeded inputs, set-up from ADL text or design view
//! to the first completed transaction, timed passes and output checks.
//!
//! Every call into the framework goes through the public API of its crate.
//! A pass records one latency sample per transaction (closed loops: the
//! interval between consecutive completions, one clock read each; open
//! loops: due time to completion) and counts every functional failure.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use rtsj::time::{AbsoluteTime, RelativeTime};
use soleil_core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};
use soleil_core::contract::TimingContract;
use soleil_core::Architecture;
use soleil_generator::compile;
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::FrameworkError;
use soleil_runtime::{ComponentRef, Deployment, Mode, ParallelSystem, ShardRun};

use crate::alloc::thread_allocs;
use crate::fixtures::*;
use crate::stats::{Rng, Samples, Summary};
use crate::trace::{Clock, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Soleil,
    Relay32Merge,
    Shard2Fanout,
    ReconfigChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Soleil,
        Workload::Relay32Merge,
        Workload::Shard2Fanout,
        Workload::ReconfigChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Soleil => "fig4-soleil",
            Workload::Relay32Merge => "relay32-merge",
            Workload::Shard2Fanout => "shard2-fanout",
            Workload::ReconfigChurn => "reconfig-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Relay depth of `relay32-merge`.
pub const RELAY_DEPTH: usize = 32;
/// Release period of `relay32-merge` (its latency limit): 50 000 releases
/// per second.
pub const RELAY_PERIOD_NS: u64 = 20_000;
/// Tick period of `shard2-fanout`: 5 000 ticks per second.
pub const FAN_PERIOD_NS: u64 = 200_000;
/// Transactions between two reconfiguration batches in `reconfig-churn`.
pub const CHURN_M: u64 = 64;
/// Every `CHURN_PROBE_EVERY`-th batch is a probe refused on purpose.
pub const CHURN_PROBE_EVERY: u64 = 8;
/// Length of the Fig. 4 anomaly pattern; one in ten positions is anomalous.
pub const ANOMALY_PERIOD: usize = 1000;
/// Seeded rebind targets generated per run (cycled).
const TARGETS: usize = 4096;

/// Everything the program receives, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Fig. 4: which measurement positions are anomalous.
    pub anomalies: Arc<[bool]>,
    /// Relay: the seed value the source mixes into every release.
    pub relay_seed: u64,
    /// Fan-out: the producer's starting sequence value.
    pub fan_start: u64,
    /// Churn: the rebind target (0 = svc-a, 1 = svc-b) of each batch.
    pub targets: Vec<usize>,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        // Exactly one position in ten, at seeded places (partial
        // Fisher-Yates over the positions).
        let mut positions: Vec<usize> = (0..ANOMALY_PERIOD).collect();
        for i in 0..ANOMALY_PERIOD / 10 {
            let j = i + rng.below((ANOMALY_PERIOD - i) as u64) as usize;
            positions.swap(i, j);
        }
        let mut anomalies = vec![false; ANOMALY_PERIOD];
        for &p in &positions[..ANOMALY_PERIOD / 10] {
            anomalies[p] = true;
        }
        let relay_seed = rng.next_u64();
        let fan_start = rng.below(1 << 32);
        let targets = (0..TARGETS).map(|_| rng.below(2) as usize).collect();
        Inputs {
            anomalies: anomalies.into(),
            relay_seed,
            fan_start,
            targets,
        }
    }

    /// Anomalous measurements among sequence numbers `1..=n`.
    pub fn anomalies_up_to(&self, n: u64) -> u64 {
        let len = self.anomalies.len() as u64;
        let per_cycle = self.anomalies.iter().filter(|&&a| a).count() as u64;
        let tail = (n / len * len + 1..=n)
            .filter(|s| self.anomalies[(s % len) as usize])
            .count() as u64;
        n / len * per_cycle + tail
    }
}

/// Functional failures: counted, with the first few described.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Cumulative work counters of a deployment, read from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub activations: u64,
    pub sync_calls: u64,
    pub async_msgs: u64,
    pub string_compares: u64,
    pub arc_clones: u64,
    pub substrate_allocs: u64,
    pub timer_fires: u64,
    pub deadline_misses: u64,
    pub ring_rejections: u64,
    pub quarantine_drops: u64,
    pub delivered: u64,
    pub scoped_calls: u64,
}

impl Work {
    fn of<P: Payload>(dep: &Deployment<P>) -> Work {
        let st = dep.stats();
        Work {
            activations: st.activations,
            sync_calls: st.sync_calls,
            async_msgs: st.async_messages,
            string_compares: dep.string_compares(),
            arc_clones: dep.arc_clones(),
            substrate_allocs: dep.memory().alloc_count(),
            timer_fires: st.timer_fires,
            deadline_misses: dep.deadline_misses(),
            ring_rejections: st.dropped_messages - st.quarantine_drops,
            quarantine_drops: st.quarantine_drops,
            delivered: st.delivered_messages,
            scoped_calls: 0,
        }
    }

    fn of_parallel<P: Payload>(sys: &ParallelSystem<P>) -> Work {
        let st = sys.stats();
        Work {
            activations: st.activations,
            sync_calls: st.sync_calls,
            async_msgs: st.async_messages,
            string_compares: sys.string_compares(),
            arc_clones: sys.arc_clones(),
            substrate_allocs: (0..sys.shard_count())
                .map(|s| sys.shard_system(s).memory().alloc_count())
                .sum(),
            timer_fires: st.timer_fires,
            deadline_misses: sys.deadline_misses(),
            ring_rejections: st.dropped_messages - st.quarantine_drops,
            quarantine_drops: st.quarantine_drops,
            delivered: st.delivered_messages,
            scoped_calls: 0,
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Work) -> Work {
        Work {
            activations: self.activations - before.activations,
            sync_calls: self.sync_calls - before.sync_calls,
            async_msgs: self.async_msgs - before.async_msgs,
            string_compares: self.string_compares - before.string_compares,
            arc_clones: self.arc_clones - before.arc_clones,
            substrate_allocs: self.substrate_allocs - before.substrate_allocs,
            timer_fires: self.timer_fires - before.timer_fires,
            deadline_misses: self.deadline_misses - before.deadline_misses,
            ring_rejections: self.ring_rejections - before.ring_rejections,
            quarantine_drops: self.quarantine_drops - before.quarantine_drops,
            delivered: self.delivered - before.delivered,
            scoped_calls: self.scoped_calls - before.scoped_calls,
        }
    }
}

/// Aggregated `ShardRun` figures of one pass over a sharded deployment.
#[derive(Debug, Clone, Default)]
pub struct ParallelAgg {
    pub calls: u64,
    pub ticks: u64,
    pub drain_passes: u64,
    pub drained: u64,
    pub max_drain_batch: u64,
    /// Per shard: summed `total_ns`.
    pub shard_ns: Vec<u64>,
    /// Summed wall time of the calls.
    pub wall_ns: u64,
}

impl ParallelAgg {
    pub fn add(&mut self, runs: &[ShardRun], wall_ns: u64, ticks: u64) {
        self.calls += 1;
        self.ticks += ticks;
        self.wall_ns += wall_ns;
        if self.shard_ns.len() < runs.len() {
            self.shard_ns.resize(runs.len(), 0);
        }
        for (i, r) in runs.iter().enumerate() {
            self.drain_passes += r.drain_passes;
            self.drained += r.drained_messages;
            self.max_drain_batch = self.max_drain_batch.max(r.max_drain_batch);
            self.shard_ns[i] += r.total_ns;
        }
    }

    pub fn merge(&mut self, other: &ParallelAgg) {
        self.calls += other.calls;
        self.ticks += other.ticks;
        self.wall_ns += other.wall_ns;
        self.drain_passes += other.drain_passes;
        self.drained += other.drained;
        self.max_drain_batch = self.max_drain_batch.max(other.max_drain_batch);
        if self.shard_ns.len() < other.shard_ns.len() {
            self.shard_ns.resize(other.shard_ns.len(), 0);
        }
        for (mine, theirs) in self.shard_ns.iter_mut().zip(&other.shard_ns) {
            *mine += theirs;
        }
    }

    /// The busiest shard's busy time as a share of call wall time.
    pub fn busiest_share(&self) -> f64 {
        let max = self.shard_ns.iter().copied().max().unwrap_or(0);
        max as f64 / self.wall_ns.max(1) as f64
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub txn: Option<Summary>,
    /// Transactions (ticks for the fan-out) completed.
    pub txns: u64,
    /// Operations attempted (transactions, ticks, reconfiguration batches).
    pub attempted: u64,
    /// Units of the throughput figure (transactions, or sink-delivered
    /// messages for the fan-out) and the wall time they took.
    pub delivered: u64,
    pub elapsed_ns: u64,
    pub lag: Option<Summary>,
    pub reconf: Option<Summary>,
    /// First transaction interval after each committed batch.
    pub first_after: Vec<u64>,
    pub fails: Failures,
    pub heap_allocs: u64,
    pub work: Work,
    pub parallel: Option<ParallelAgg>,
}

impl Pass {
    pub fn throughput_per_s(&self) -> f64 {
        self.delivered as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn heap_allocs_per_txn(&self) -> f64 {
        self.heap_allocs as f64 / self.txns.max(1) as f64
    }
}

/// Where a pass stops: at `end_ns` on the run clock, or when a traced
/// run's span buffer reaches `span_limit`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub end_ns: u64,
    pub span_limit: usize,
}

impl Budget {
    pub fn for_ns(clock: &Clock, ns: u64) -> Budget {
        Budget {
            end_ns: clock.now() + ns,
            span_limit: usize::MAX,
        }
    }

    #[inline]
    fn over(&self, now: u64, tr: &Tracer) -> bool {
        now >= self.end_ns || (tr.enabled() && tr.mark() >= self.span_limit)
    }
}

/// Samples one pass keeps per series (more are counted, not kept).
pub const PASS_CAP: usize = 1 << 20;

/// The sample buffers passes record into, allocated once per run.
#[derive(Debug)]
pub struct Bufs {
    pub txn: Samples,
    pub lag: Samples,
    pub reconf: Samples,
}

impl Bufs {
    pub fn new() -> Bufs {
        Bufs {
            txn: Samples::new(PASS_CAP),
            lag: Samples::new(PASS_CAP),
            reconf: Samples::new(PASS_CAP),
        }
    }
}

impl Default for Bufs {
    fn default() -> Self {
        Bufs::new()
    }
}

/// One deployed workload.
pub enum Fixture {
    Fig4(Fig4),
    Relay(Relay),
    Fanout(Fanout),
    Churn(Churn),
}

impl Fixture {
    /// Sets the workload up from its ADL text or design view to its first
    /// completed transaction, recording set-up spans on `tr`; returns the
    /// fixture and the set-up time in nanoseconds.
    pub fn setup(w: Workload, inputs: &Inputs, tr: &mut Tracer) -> Result<(Fixture, u64), String> {
        Ok(match w {
            Workload::Fig4Soleil => {
                let (f, s) = Fig4::setup(inputs, Mode::Soleil, tr)?;
                (Fixture::Fig4(f), s)
            }
            Workload::Relay32Merge => {
                let (f, s) = Relay::setup(inputs, RELAY_DEPTH, tr)?;
                (Fixture::Relay(f), s)
            }
            Workload::Shard2Fanout => {
                let (f, s) = Fanout::setup(inputs, tr)?;
                (Fixture::Fanout(f), s)
            }
            Workload::ReconfigChurn => {
                let (f, s) = Churn::setup(inputs, tr)?;
                (Fixture::Churn(f), s)
            }
        })
    }

    /// Runs the workload's own loop until `budget` is spent.
    pub fn pass(&mut self, budget: Budget, tr: &mut Tracer, bufs: &mut Bufs) -> Pass {
        match self {
            Fixture::Fig4(f) => f.closed_loop(budget, tr, bufs),
            Fixture::Relay(f) => f.open_loop(budget, tr, bufs),
            Fixture::Fanout(f) => f.open_loop(budget, tr, bufs),
            Fixture::Churn(f) => f.churn(budget, tr, bufs),
        }
    }

    /// Checks the workload's cumulative outputs; returns the mismatches.
    pub fn check(&self) -> Failures {
        match self {
            Fixture::Fig4(f) => f.check(),
            Fixture::Relay(f) => f.check(),
            Fixture::Fanout(f) => f.check(),
            Fixture::Churn(f) => f.check(),
        }
    }

    pub fn framework_bytes(&self) -> u64 {
        match self {
            Fixture::Fig4(f) => f.dep.footprint().framework_bytes as u64,
            Fixture::Relay(f) => f.dep.footprint().framework_bytes as u64,
            Fixture::Churn(f) => f.dep.footprint().framework_bytes as u64,
            Fixture::Fanout(f) => (0..f.sys.shard_count())
                .map(|s| f.sys.shard_system(s).footprint().framework_bytes as u64)
                .sum(),
        }
    }

    /// Timers armed in steady state (the depth of the engine's queue).
    pub fn armed_timers(&self) -> usize {
        match self {
            Fixture::Fig4(f) => f.dep.armed_timers(),
            Fixture::Relay(f) => f.dep.armed_timers(),
            Fixture::Churn(f) => f.dep.armed_timers(),
            Fixture::Fanout(f) => f.sys.armed_timers(),
        }
    }
}

/// Compiles and builds a serial deployment under the `generator.*` spans.
fn build_serial<P: Payload>(
    arch: &Architecture,
    mode: Mode,
    registry: &ContentRegistry<P>,
    tr: &mut Tracer,
) -> Result<Deployment<P>, String> {
    let sp = tr.open("core.validate");
    let validated = arch.clone().into_validated().map_err(err)?;
    tr.close(sp);
    let sp = tr.open("generator.compile");
    let spec = compile(&validated).map_err(err)?;
    tr.close(sp);
    let sp = tr.open("generator.deploy");
    let dep =
        Deployment::build(&spec, mode, registry, validated.architecture().clone()).map_err(err)?;
    tr.close(sp);
    Ok(dep)
}

/// Runs `design` under the `core.design` span (view building and merge).
fn design(
    tr: &mut Tracer,
    f: impl FnOnce() -> Result<Architecture, String>,
) -> Result<Architecture, String> {
    let sp = tr.open("core.design");
    let arch = f()?;
    tr.close(sp);
    Ok(arch)
}

/// One closed-loop transaction, timed by chaining completion timestamps:
/// returns the completion time. A traced run wraps it in a `txn` span.
#[inline]
fn timed_txn<P: Payload>(
    dep: &mut Deployment<P>,
    head: ComponentRef,
    tr: &mut Tracer,
    fails: &mut Failures,
) -> u64 {
    tr.begin_request();
    let sp = tr.open("txn");
    let r = dep.run_transaction(head);
    let t = tr.clock.now();
    tr.close_at(sp, t);
    if let Err(e) = r {
        fails.add(1, || format!("transaction failed: {e}"));
    }
    t
}

// ---------------------------------------------------------------------------
// fig4-soleil
// ---------------------------------------------------------------------------

pub struct Fig4 {
    pub dep: Deployment<Measurement>,
    pub head: ComponentRef,
    counters: Arc<Fig4Counters>,
    inputs: Inputs,
    /// Transactions completed without error (= measurements emitted).
    txns: u64,
}

/// The generous contract armed on the Fig. 4 head: no healthy transaction
/// can miss 500 ms, so a miss is an engine failure, not noise.
pub fn baseline_contract() -> TimingContract {
    TimingContract::new().with_deadline(RelativeTime::from_millis(500))
}

impl Fig4 {
    pub fn setup(inputs: &Inputs, mode: Mode, tr: &mut Tracer) -> Result<(Fig4, u64), String> {
        let counters = Arc::new(Fig4Counters::default());
        let registry = fig4_registry(&inputs.anomalies, &counters);
        tr.begin_request();
        let t0 = tr.clock.now();
        let root = tr.open_at("setup", t0);
        let sp = tr.open("core.parse");
        let arch = from_xml(MOTIVATION_EXAMPLE_XML).map_err(err)?;
        tr.close(sp);
        let mut dep = build_serial(&arch, mode, &registry, tr)?;
        let head = dep.resolve("ProductionLine").map_err(err)?;
        // Like the steady gate: a generous contract and a release that
        // never comes due keep the release engine live.
        dep.attach_contract(head, baseline_contract())
            .map_err(err)?;
        dep.schedule_release(head, AbsoluteTime::MAX).map_err(err)?;
        let sp = tr.open("generator.first_txn");
        dep.run_transaction(head).map_err(err)?;
        let t1 = tr.clock.now();
        tr.close_at(sp, t1);
        tr.close_at(root, t1);
        let f = Fig4 {
            dep,
            head,
            counters,
            inputs: inputs.clone(),
            txns: 1,
        };
        Ok((f, t1 - t0))
    }

    pub fn closed_loop(&mut self, budget: Budget, tr: &mut Tracer, bufs: &mut Bufs) -> Pass {
        let mut pass = Pass::default();
        let before = self.work();
        let clock = tr.clock;
        let allocs0 = thread_allocs();
        let start = clock.now();
        let mut t_prev = start;
        while !budget.over(t_prev, tr) {
            let t = timed_txn(&mut self.dep, self.head, tr, &mut pass.fails);
            pass.txns += 1;
            bufs.txn.push(t - t_prev);
            t_prev = t;
        }
        pass.heap_allocs = thread_allocs() - allocs0;
        pass.elapsed_ns = t_prev - start;
        pass.txn = bufs.txn.take_summary();
        self.finish(pass, before)
    }

    /// `n` back-to-back transactions, their intervals into `buf` (the
    /// ablation probes' unit of work).
    pub fn closed_chunk(
        &mut self,
        n: usize,
        buf: &mut Vec<u64>,
        fails: &mut Failures,
        clock: &Clock,
    ) {
        buf.clear();
        let mut t_prev = clock.now();
        for _ in 0..n {
            let r = self.dep.run_transaction(self.head);
            let t = clock.now();
            buf.push(t - t_prev);
            t_prev = t;
            match r {
                Ok(()) => self.txns += 1,
                Err(e) => fails.add(1, || format!("transaction failed: {e}")),
            }
        }
    }

    fn work(&self) -> Work {
        Work {
            scoped_calls: self.counters.console.load(Relaxed),
            ..Work::of(&self.dep)
        }
    }

    /// Closes a pass: work deltas, engine-level failures, counters.
    fn finish(&mut self, mut pass: Pass, before: Work) -> Pass {
        let work = self.work().since(&before);
        self.txns += pass.txns;
        pass.attempted = pass.txns;
        pass.delivered = pass.txns;
        engine_failures(&mut pass.fails, &work);
        pass.work = work;
        pass
    }

    pub fn check(&self) -> Failures {
        let mut f = Failures::default();
        let audited = self.counters.audited.load(Relaxed);
        f.add(audited.abs_diff(self.txns), || {
            format!(
                "AuditLog saw {audited} measurements, {} were emitted",
                self.txns
            )
        });
        let faults = self.counters.audit_faults.load(Relaxed);
        f.add(faults, || {
            format!("AuditLog saw {faults} out-of-order measurements")
        });
        let console = self.counters.console.load(Relaxed);
        let expected = self.inputs.anomalies_up_to(self.txns);
        f.add(console.abs_diff(expected), || {
            format!("Console called {console} times, {expected} anomalies were seeded")
        });
        f
    }
}

/// Failures the engine reports through its counters: dropped messages
/// (full buffers or quarantine) and deadline misses under the generous
/// contract.
fn engine_failures(fails: &mut Failures, work: &Work) {
    let drops = work.ring_rejections + work.quarantine_drops;
    fails.add(drops, || format!("{drops} messages dropped"));
    let misses = work.deadline_misses;
    fails.add(misses, || {
        format!("{misses} deadline misses under the 500 ms contract")
    });
}

// ---------------------------------------------------------------------------
// relay32-merge
// ---------------------------------------------------------------------------

pub struct Relay {
    pub dep: Deployment<u64>,
    pub head: ComponentRef,
    counters: Arc<RelayCounters>,
    seed: u64,
    depth: usize,
    /// Releases completed.
    fired: u64,
}

impl Relay {
    pub fn setup(inputs: &Inputs, depth: usize, tr: &mut Tracer) -> Result<(Relay, u64), String> {
        let counters = Arc::new(RelayCounters::default());
        let registry = relay_registry(inputs.relay_seed, &counters);
        tr.begin_request();
        let t0 = tr.clock.now();
        let root = tr.open_at("setup", t0);
        let arch = design(tr, || relay_design(depth))?;
        let mut dep = build_serial(&arch, Mode::MergeAll, &registry, tr)?;
        let head = dep.resolve("stage0").map_err(err)?;
        let sp = tr.open("generator.first_txn");
        let now = AbsoluteTime::from_nanos(tr.clock.now());
        dep.schedule_release(head, now).map_err(err)?;
        let fired = dep.fire_timers_until(now).map_err(err)?;
        let t1 = tr.clock.now();
        tr.close_at(sp, t1);
        tr.close_at(root, t1);
        let relay = Relay {
            dep,
            head,
            counters,
            seed: inputs.relay_seed,
            depth,
            fired,
        };
        Ok((relay, t1 - t0))
    }

    /// The sink's latest value against the reference for release `fired`.
    #[inline]
    fn check_last(&self, fails: &mut Failures) {
        let got = self.counters.last.load(Relaxed);
        let want = relay_reference(relay_value(self.seed, self.fired), self.depth);
        if got != want {
            fails.add(1, || {
                format!("relay sink got {got:#x}, reference {want:#x}")
            });
        }
    }

    /// Open loop: one release due every [`RELAY_PERIOD_NS`]; each is
    /// scheduled on the engine's timer queue and fired at the wall-clock
    /// time, and timed from its due time to completion.
    pub fn open_loop(&mut self, budget: Budget, tr: &mut Tracer, bufs: &mut Bufs) -> Pass {
        let mut pass = Pass::default();
        let before = Work::of(&self.dep);
        let clock = tr.clock;
        let allocs0 = thread_allocs();
        let start = clock.now();
        let mut due = start + RELAY_PERIOD_NS;
        let mut last = start;
        loop {
            let mut t = clock.now();
            if budget.over(due.max(t), tr) {
                break;
            }
            while t < due {
                std::hint::spin_loop();
                t = clock.now();
            }
            bufs.lag.push(t - due);
            tr.begin_request();
            let txn = tr.open_at("txn", t);
            let sp = tr.open("timer.schedule");
            let scheduled = self
                .dep
                .schedule_release(self.head, AbsoluteTime::from_nanos(due));
            tr.close(sp);
            let sp = tr.open("timer.fire");
            let fired = self.dep.fire_timers_until(AbsoluteTime::from_nanos(t));
            tr.close(sp);
            let done = clock.now();
            tr.close_at(txn, done);
            match (scheduled, fired) {
                (Ok(_), Ok(1)) => {
                    self.fired += 1;
                    self.check_last(&mut pass.fails);
                }
                (Err(e), _) | (_, Err(e)) => pass.fails.add(1, || format!("release failed: {e}")),
                (Ok(_), Ok(n)) => pass
                    .fails
                    .add(1, || format!("{n} releases fired, expected 1")),
            }
            pass.txns += 1;
            bufs.txn.push(done - due);
            due += RELAY_PERIOD_NS;
            last = done;
        }
        pass.heap_allocs = thread_allocs() - allocs0;
        pass.elapsed_ns = last - start;
        pass.txn = bufs.txn.take_summary();
        pass.lag = bufs.lag.take_summary();
        self.finish(pass, before)
    }

    /// Closed loop (the depth sweep): `n` back-to-back
    /// `run_transaction`s, their intervals into `buf`.
    pub fn closed_chunk(
        &mut self,
        n: usize,
        buf: &mut Vec<u64>,
        fails: &mut Failures,
        clock: &Clock,
    ) {
        buf.clear();
        let mut t_prev = clock.now();
        for _ in 0..n {
            let r = self.dep.run_transaction(self.head);
            let t = clock.now();
            buf.push(t - t_prev);
            t_prev = t;
            match r {
                Ok(()) => {
                    self.fired += 1;
                    self.check_last(fails);
                }
                Err(e) => fails.add(1, || format!("transaction failed: {e}")),
            }
        }
    }

    fn finish(&mut self, mut pass: Pass, before: Work) -> Pass {
        let work = Work::of(&self.dep).since(&before);
        pass.attempted = pass.txns;
        pass.delivered = pass.txns;
        engine_failures(&mut pass.fails, &work);
        pass.work = work;
        pass
    }

    pub fn check(&self) -> Failures {
        let mut f = Failures::default();
        let received = self.counters.received.load(Relaxed);
        f.add(received.abs_diff(self.fired), || {
            format!(
                "relay sink received {received} values, {} releases fired",
                self.fired
            )
        });
        f
    }
}

// ---------------------------------------------------------------------------
// shard2-fanout
// ---------------------------------------------------------------------------

pub struct Fanout {
    pub sys: ParallelSystem<u64>,
    counters: Arc<FanCounters>,
    /// Ring gaps (pushed minus delivered) already reported as failures.
    reported_gap: u64,
}

impl Fanout {
    pub fn setup(inputs: &Inputs, tr: &mut Tracer) -> Result<(Fanout, u64), String> {
        let counters = Arc::new(FanCounters::default());
        let registry = fanout_registry(inputs.fan_start, &counters);
        tr.begin_request();
        let t0 = tr.clock.now();
        let root = tr.open_at("setup", t0);
        let arch = design(tr, fanout_design)?;
        let sp = tr.open("core.validate");
        let validated = arch.into_validated().map_err(err)?;
        tr.close(sp);
        let sp = tr.open("generator.compile");
        let spec = compile(&validated).map_err(err)?;
        tr.close(sp);
        let sp = tr.open("generator.deploy");
        let mut sys = ParallelSystem::build_with_arch(
            &spec,
            Mode::MergeAll,
            &registry,
            validated.architecture().clone(),
        )
        .map_err(err)?;
        tr.close(sp);
        if sys.shard_count() != 2 {
            return Err(format!("expected 2 shards, got {}", sys.shard_count()));
        }
        let sp = tr.open("generator.first_txn");
        sys.run_ticks(1).map_err(err)?;
        let t1 = tr.clock.now();
        tr.close_at(sp, t1);
        tr.close_at(root, t1);
        let f = Fanout {
            sys,
            counters,
            reported_gap: 0,
        };
        Ok((f, t1 - t0))
    }

    /// One bounded `run_ticks` call of `n` ticks (at most one ring's
    /// capacity); returns the call's wall time.
    pub fn call(&mut self, n: u64, agg: &mut ParallelAgg, pass: &mut Pass, tr: &mut Tracer) -> u64 {
        debug_assert!(
            n as usize <= FAN_RING,
            "a call carries at most one ring's capacity"
        );
        let clock = tr.clock;
        let t = clock.now();
        let sp = tr.open_at("parallel.run_ticks", t);
        let r = self.sys.run_ticks_instrumented(0, n, &thread_allocs);
        let done = clock.now();
        tr.close_at(sp, done);
        match r {
            Ok(runs) => {
                agg.add(&runs, done - t, n);
                pass.heap_allocs += runs.iter().map(|r| r.probe_delta).sum::<u64>();
            }
            Err(e) => pass.fails.add(n, || format!("run_ticks failed: {e}")),
        }
        self.check_rings(&mut pass.fails);
        done - t
    }

    /// At quiescence every ring delivered what was pushed into it.
    fn check_rings(&mut self, fails: &mut Failures) {
        let gap: u64 = (0..FAN_K)
            .map(|k| {
                let pushed = self.counters.pushed[k].load(Relaxed);
                pushed.abs_diff(self.counters.delivered[k].load(Relaxed))
            })
            .sum();
        if gap > self.reported_gap {
            let new = gap - self.reported_gap;
            fails.add(new, || format!("{new} pushed messages never delivered"));
            self.reported_gap = gap;
        }
    }

    /// Open loop at [`FAN_PERIOD_NS`] per tick: each call carries the ticks
    /// due since the last one, at most one ring's capacity; a generator
    /// that falls behind splits the work and shows the delay as lag.
    pub fn open_loop(&mut self, budget: Budget, tr: &mut Tracer, bufs: &mut Bufs) -> Pass {
        let mut pass = Pass::default();
        let mut agg = ParallelAgg::default();
        let before = Work::of_parallel(&self.sys);
        let clock = tr.clock;
        let start = clock.now();
        let mut issued: u64 = 0;
        let mut last = start;
        loop {
            let t = clock.now();
            if budget.over(t, tr) {
                break;
            }
            let due_ticks = (t - start) / FAN_PERIOD_NS;
            if due_ticks == issued {
                std::hint::spin_loop();
                continue;
            }
            let n = (due_ticks - issued).min(FAN_RING as u64);
            let due = |j: u64| start + (issued + j + 1) * FAN_PERIOD_NS;
            for j in 0..n {
                bufs.lag.push(t - due(j));
            }
            tr.begin_request();
            self.call(n, &mut agg, &mut pass, tr);
            let done = clock.now();
            for j in 0..n {
                bufs.txn.push(done - due(j));
            }
            issued += n;
            pass.txns += n;
            last = done;
        }
        pass.elapsed_ns = last - start;
        pass.txn = bufs.txn.take_summary();
        pass.lag = bufs.lag.take_summary();
        let work = Work::of_parallel(&self.sys).since(&before);
        pass.attempted = pass.txns;
        pass.delivered = work.delivered;
        self.ledger(&mut pass.fails, &work);
        engine_failures(&mut pass.fails, &work);
        pass.work = work;
        pass.parallel = Some(agg);
        pass
    }

    /// The conservation ledger: every accepted async message was either
    /// delivered or counted as a quarantine drop.
    fn ledger(&self, fails: &mut Failures, work: &Work) {
        let accounted = work.delivered + work.quarantine_drops;
        fails.add(work.async_msgs.abs_diff(accounted), || {
            format!(
                "ledger: {} async messages, {} delivered + {} quarantine drops",
                work.async_msgs, work.delivered, work.quarantine_drops
            )
        });
    }

    pub fn check(&self) -> Failures {
        let mut f = Failures::default();
        let work = Work::of_parallel(&self.sys);
        self.ledger(&mut f, &work);
        let order = self.counters.order_faults.load(Relaxed);
        f.add(order, || format!("sinks saw {order} out-of-order messages"));
        f
    }
}

// ---------------------------------------------------------------------------
// reconfig-churn
// ---------------------------------------------------------------------------

pub struct Churn {
    pub dep: Deployment<u64>,
    caller: ComponentRef,
    services: [ComponentRef; 3],
    counters: Arc<ChurnCounters>,
    targets: Vec<usize>,
    /// The service the caller is bound to.
    current: usize,
    batches: u64,
    /// Transactions completed without error.
    txns: u64,
}

impl Churn {
    pub fn setup(inputs: &Inputs, tr: &mut Tracer) -> Result<(Churn, u64), String> {
        let counters = Arc::new(ChurnCounters::default());
        let registry = churn_registry(&counters);
        tr.begin_request();
        let t0 = tr.clock.now();
        let root = tr.open_at("setup", t0);
        let arch = design(tr, churn_design)?;
        let mut dep = build_serial(&arch, Mode::Soleil, &registry, tr)?;
        let caller = dep.resolve("caller").map_err(err)?;
        let mut services = [caller; 3];
        for (slot, name) in services.iter_mut().zip(CHURN_SERVICES) {
            *slot = dep.resolve(name).map_err(err)?;
        }
        let sp = tr.open("generator.first_txn");
        dep.run_transaction(caller).map_err(err)?;
        let t1 = tr.clock.now();
        tr.close_at(sp, t1);
        tr.close_at(root, t1);
        let f = Churn {
            dep,
            caller,
            services,
            counters,
            targets: inputs.targets.clone(),
            current: 0,
            batches: 0,
            txns: 1,
        };
        Ok((f, t1 - t0))
    }

    fn calls(&self) -> [u64; 3] {
        [0, 1, 2].map(|i| self.counters.calls[i].load(Relaxed))
    }

    /// One batch: stop → rebind → start. Every [`CHURN_PROBE_EVERY`]-th
    /// batch rebinds onto the heap service, which the commit-time
    /// validator must refuse and roll back. Returns the call time and
    /// whether the batch was a probe.
    fn batch(&mut self, tr: &mut Tracer, fails: &mut Failures) -> (u64, bool) {
        let b = self.batches;
        self.batches += 1;
        let probe = b % CHURN_PROBE_EVERY == CHURN_PROBE_EVERY - 1;
        let target = if probe {
            2
        } else {
            self.targets[(b % self.targets.len() as u64) as usize]
        };
        let digest = probe.then(|| self.dep.system().structural_digest());
        let (caller, server) = (self.caller, self.services[target]);
        let clock = tr.clock;
        tr.begin_request();
        let t0 = clock.now();
        let sp = tr.open_at(if probe { "reconf.probe" } else { "reconf" }, t0);
        let r = self.dep.reconfigure(|txn| {
            let stage = tr.open("reconf.stage");
            let r = txn
                .stop(caller)
                .and_then(|()| txn.rebind(caller, "svc", server))
                .and_then(|()| txn.start(caller));
            tr.close(stage);
            r
        });
        let t1 = clock.now();
        tr.close_at(sp, t1);
        match (probe, r) {
            (false, Ok(())) => self.current = target,
            (true, Err(FrameworkError::Rejected(_))) => {
                let after = self.dep.system().structural_digest();
                if Some(after) != digest {
                    fails.add(1, || "refused probe changed the structural digest".into());
                }
            }
            (false, Err(e)) => fails.add(1, || format!("reconfiguration refused: {e}")),
            (true, Ok(())) => fails.add(1, || "heap rebind probe was committed".into()),
            (true, Err(e)) => fails.add(1, || format!("probe failed with {e}, expected a refusal")),
        }
        (t1 - t0, probe)
    }

    /// Closed loop of transactions; every [`CHURN_M`] of them one
    /// reconfiguration batch. The chain restarts after each batch, so
    /// batches are timed on their own and the first transaction after a
    /// batch is checked to reach the bound service.
    pub fn churn(&mut self, budget: Budget, tr: &mut Tracer, bufs: &mut Bufs) -> Pass {
        let mut pass = Pass::default();
        let before = Work::of(&self.dep);
        let clock = tr.clock;
        let mut batch_allocs = 0;
        let allocs0 = thread_allocs();
        let start = clock.now();
        let mut t_prev = start;
        'run: loop {
            for _ in 0..CHURN_M {
                if budget.over(t_prev, tr) {
                    break 'run;
                }
                let t = timed_txn(&mut self.dep, self.caller, tr, &mut pass.fails);
                pass.txns += 1;
                bufs.txn.push(t - t_prev);
                t_prev = t;
            }
            let a0 = thread_allocs();
            let (ns, probe) = self.batch(tr, &mut pass.fails);
            bufs.reconf.push(ns);
            pass.attempted += 1;
            let calls = self.calls();
            batch_allocs += thread_allocs() - a0;
            // The first transaction after the batch must reach the bound
            // service and no other.
            let t0 = clock.now();
            let t = timed_txn(&mut self.dep, self.caller, tr, &mut pass.fails);
            pass.txns += 1;
            if !probe {
                // The list grows: its allocations are the harness's, not
                // the transaction's.
                let a1 = thread_allocs();
                pass.first_after.push(t - t0);
                batch_allocs += thread_allocs() - a1;
            }
            let now = self.calls();
            let moved = [0, 1, 2].map(|i| now[i] - calls[i]);
            let mut want = [0; 3];
            want[self.current] = 1;
            if moved != want {
                pass.fails.add(1, || {
                    format!("after batch, calls moved {moved:?}, expected {want:?}")
                });
            }
            bufs.txn.push(t - t0);
            t_prev = clock.now();
        }
        pass.heap_allocs = thread_allocs() - allocs0 - batch_allocs;
        pass.elapsed_ns = t_prev - start;
        pass.txn = bufs.txn.take_summary();
        pass.reconf = bufs.reconf.take_summary();
        let work = Work::of(&self.dep).since(&before);
        self.txns += pass.txns;
        pass.attempted += pass.txns;
        pass.delivered = pass.txns;
        engine_failures(&mut pass.fails, &work);
        pass.work = work;
        pass
    }

    pub fn check(&self) -> Failures {
        let mut f = Failures::default();
        let calls: u64 = self.calls().iter().sum();
        f.add(calls.abs_diff(self.txns), || {
            format!("services saw {calls} calls, {} transactions ran", self.txns)
        });
        let heap = self.calls()[2];
        f.add(heap, || format!("the heap service was called {heap} times"));
        f
    }
}
