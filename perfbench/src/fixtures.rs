//! The benchmark's own zero-work contents and the architectures of the four
//! workloads.
//!
//! Contents do no functional work: they stamp, forward and count, so a
//! timing measures the framework. They receive only inputs generated from
//! the seed (anomaly positions, the relay seed value, the fan-out start
//! value); the counters they share with the benchmark are the output
//! checks' evidence.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;
use soleil_core::views::{BusinessView, DesignFlow};
use soleil_core::Architecture;
use soleil_membrane::content::{Content, ContentRegistry, InternedPort, InvokeResult, Ports};

/// Renders any error as the benchmark's error string.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// fig4-soleil: the paper's Fig. 4 classes, with zero-work bodies
// ---------------------------------------------------------------------------

/// The Fig. 4 message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Measurement {
    pub seq: u64,
    pub anomalous: bool,
}

#[derive(Debug, Default)]
pub struct Fig4Counters {
    pub console: AtomicU64,
    pub audited: AtomicU64,
    /// Audit entries whose `seq` was not the next expected one.
    pub audit_faults: AtomicU64,
}

#[derive(Debug)]
struct ProductionLine {
    monitor: InternedPort,
    seq: u64,
    anomalies: Arc<[bool]>,
}

impl Content<Measurement> for ProductionLine {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        self.seq += 1;
        msg.seq = self.seq;
        msg.anomalous = self.anomalies[(self.seq % self.anomalies.len() as u64) as usize];
        self.monitor.send(out, *msg)
    }
}

#[derive(Debug)]
struct MonitoringSystem {
    console: InternedPort,
    audit: InternedPort,
}

impl Content<Measurement> for MonitoringSystem {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        if msg.anomalous {
            self.console.call(out, msg)?;
        }
        self.audit.send(out, *msg)
    }
}

#[derive(Debug)]
struct Console(Arc<Fig4Counters>);

impl Content<Measurement> for Console {
    fn on_invoke(
        &mut self,
        _port: &str,
        _msg: &mut Measurement,
        _out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        self.0.console.fetch_add(1, Relaxed);
        Ok(())
    }
}

#[derive(Debug)]
struct AuditLog {
    next: u64,
    counters: Arc<Fig4Counters>,
}

impl Content<Measurement> for AuditLog {
    fn on_invoke(
        &mut self,
        _port: &str,
        msg: &mut Measurement,
        _out: &mut dyn Ports<Measurement>,
    ) -> InvokeResult {
        if msg.seq != self.next {
            self.counters.audit_faults.fetch_add(1, Relaxed);
        }
        self.next = msg.seq + 1;
        self.counters.audited.fetch_add(1, Relaxed);
        Ok(())
    }
}

/// Registers the Fig. 4 classes under the names the ADL uses.
pub fn fig4_registry(
    anomalies: &Arc<[bool]>,
    counters: &Arc<Fig4Counters>,
) -> ContentRegistry<Measurement> {
    let mut r = ContentRegistry::new();
    let a = Arc::clone(anomalies);
    r.register("ProductionLineImpl", move || {
        Box::new(ProductionLine {
            monitor: InternedPort::new("iMonitor"),
            seq: 0,
            anomalies: Arc::clone(&a),
        })
    });
    r.register("MonitoringSystemImpl", || {
        Box::new(MonitoringSystem {
            console: InternedPort::new("iConsole"),
            audit: InternedPort::new("iAudit"),
        })
    });
    let c = Arc::clone(counters);
    r.register("ConsoleImpl", move || Box::new(Console(Arc::clone(&c))));
    let c = Arc::clone(counters);
    r.register("AuditLogImpl", move || {
        Box::new(AuditLog {
            next: 1,
            counters: Arc::clone(&c),
        })
    });
    r
}

// ---------------------------------------------------------------------------
// relay: a chain of async stages ending in a non-sending sink
// ---------------------------------------------------------------------------

/// The value the source emits on its `i`-th release.
pub fn relay_value(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// One stage's transformation.
#[inline]
pub fn relay_step(v: u64) -> u64 {
    v.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// The value a `depth`-hop relay delivers for source value `v`: every hop
/// after the source (the relays and the sink) applies one step.
pub fn relay_reference(v: u64, depth: usize) -> u64 {
    (0..depth).fold(v, |x, _| relay_step(x))
}

#[derive(Debug, Default)]
pub struct RelayCounters {
    pub received: AtomicU64,
    pub last: AtomicU64,
}

#[derive(Debug)]
struct RelaySource {
    out: InternedPort,
    seed: u64,
    i: u64,
}

impl Content<u64> for RelaySource {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        self.i += 1;
        *msg = relay_value(self.seed, self.i);
        self.out.send(out, *msg)
    }
}

#[derive(Debug)]
struct Relay {
    out: InternedPort,
}

impl Content<u64> for Relay {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        *msg = relay_step(*msg);
        self.out.send(out, *msg)
    }
}

#[derive(Debug)]
struct RelaySink(Arc<RelayCounters>);

impl Content<u64> for RelaySink {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        self.0.last.store(relay_step(*msg), Relaxed);
        self.0.received.fetch_add(1, Relaxed);
        Ok(())
    }
}

pub fn relay_registry(seed: u64, counters: &Arc<RelayCounters>) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("RelaySource", move || {
        Box::new(RelaySource {
            out: InternedPort::new("out"),
            seed,
            i: 0,
        })
    });
    r.register("Relay", || {
        Box::new(Relay {
            out: InternedPort::new("out"),
        })
    });
    let c = Arc::clone(counters);
    r.register("RelaySink", move || Box::new(RelaySink(Arc::clone(&c))));
    r
}

/// `depth` async hops: `stage0` (periodic source) → relays → `stage{depth}`
/// (the sink), all in one NHRT domain in one immortal area.
pub fn relay_design(depth: usize) -> Result<Architecture, String> {
    assert!(depth >= 1, "a relay has at least one hop");
    let names: Vec<String> = (0..=depth).map(|i| format!("stage{i}")).collect();
    let mut b = BusinessView::new(format!("relay-{depth}"));
    b.active_periodic(&names[0], "10ms").map_err(err)?;
    b.content(&names[0], "RelaySource").map_err(err)?;
    for (i, name) in names.iter().enumerate().skip(1) {
        b.active_sporadic(name).map_err(err)?;
        let class = if i == depth { "RelaySink" } else { "Relay" };
        b.content(name, class).map_err(err)?;
    }
    for pair in names.windows(2) {
        b.require(&pair[0], "out", "IRelay").map_err(err)?;
        b.provide(&pair[1], "in", "IRelay").map_err(err)?;
        b.bind_async(&pair[0], "out", &pair[1], "in", 4)
            .map_err(err)?;
    }
    let mut flow = DesignFlow::new(b);
    let members: Vec<&str> = names.iter().map(String::as_str).collect();
    flow.thread_domain("nhrt", ThreadKind::NoHeapRealtime, 30, &members)
        .map_err(err)?;
    flow.memory_area("imm", MemoryKind::Immortal, Some(1 << 20), &["nhrt"])
        .map_err(err)?;
    flow.merge().map_err(err)
}

// ---------------------------------------------------------------------------
// shard2-fanout: one producer domain, one sink domain, K SPSC rings
// ---------------------------------------------------------------------------

/// Rings (and sinks) in the fan-out.
pub const FAN_K: usize = 4;
/// Capacity of each fan-out ring: the most ticks one `run_ticks` call may
/// carry.
pub const FAN_RING: usize = 64;
const FAN_PORTS: [&str; FAN_K] = ["out0", "out1", "out2", "out3"];

#[derive(Debug, Default)]
pub struct FanCounters {
    pub pushed: [AtomicU64; FAN_K],
    pub delivered: [AtomicU64; FAN_K],
    /// Messages a sink saw out of order.
    pub order_faults: AtomicU64,
}

#[derive(Debug)]
struct Producer {
    outs: [InternedPort; FAN_K],
    seq: u64,
    counters: Arc<FanCounters>,
}

impl Content<u64> for Producer {
    fn on_invoke(&mut self, _p: &str, _msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        self.seq += 1;
        for (k, port) in self.outs.iter().enumerate() {
            self.counters.pushed[k].fetch_add(1, Relaxed);
            port.send(out, self.seq)?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Sink {
    k: usize,
    last: u64,
    counters: Arc<FanCounters>,
}

impl Content<u64> for Sink {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        if *msg != self.last + 1 {
            self.counters.order_faults.fetch_add(1, Relaxed);
        }
        self.last = *msg;
        self.counters.delivered[self.k].fetch_add(1, Relaxed);
        Ok(())
    }
}

pub fn fanout_registry(start: u64, counters: &Arc<FanCounters>) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    let c = Arc::clone(counters);
    r.register("Producer", move || {
        Box::new(Producer {
            outs: FAN_PORTS.map(InternedPort::new),
            seq: start,
            counters: Arc::clone(&c),
        })
    });
    for k in 0..FAN_K {
        let c = Arc::clone(counters);
        r.register(format!("Sink{k}"), move || {
            Box::new(Sink {
                k,
                last: start,
                counters: Arc::clone(&c),
            })
        });
    }
    r
}

/// A periodic producer in domain `A` fanning out over [`FAN_K`] rings to
/// sporadic sinks in domain `B`: two domains, so two shards.
pub fn fanout_design() -> Result<Architecture, String> {
    let mut b = BusinessView::new("shard2-fanout");
    b.active_periodic("prod", "1ms").map_err(err)?;
    b.content("prod", "Producer").map_err(err)?;
    let sinks: Vec<String> = (0..FAN_K).map(|k| format!("sink{k}")).collect();
    for (k, (sink, port)) in sinks.iter().zip(FAN_PORTS).enumerate() {
        b.active_sporadic(sink).map_err(err)?;
        b.content(sink, &format!("Sink{k}")).map_err(err)?;
        b.require("prod", port, "IFan").map_err(err)?;
        b.provide(sink, "in", "IFan").map_err(err)?;
        b.bind_async("prod", port, sink, "in", FAN_RING)
            .map_err(err)?;
    }
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["prod"])
        .map_err(err)?;
    let members: Vec<&str> = sinks.iter().map(String::as_str).collect();
    flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &members)
        .map_err(err)?;
    flow.memory_area("imm", MemoryKind::Immortal, Some(1 << 20), &["A", "B"])
        .map_err(err)?;
    flow.merge().map_err(err)
}

// ---------------------------------------------------------------------------
// reconfig-churn: a caller with two candidate services and a heap decoy
// ---------------------------------------------------------------------------

/// Calls per service: `[svc-a, svc-b, svc-heap]`.
#[derive(Debug, Default)]
pub struct ChurnCounters {
    pub calls: [AtomicU64; 3],
}

#[derive(Debug)]
struct Caller {
    svc: InternedPort,
}

impl Content<u64> for Caller {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        self.svc.call(out, msg)
    }
}

#[derive(Debug)]
struct Svc {
    ix: usize,
    counters: Arc<ChurnCounters>,
}

impl Content<u64> for Svc {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        *msg += 1;
        self.counters.calls[self.ix].fetch_add(1, Relaxed);
        Ok(())
    }
}

pub const CHURN_SERVICES: [&str; 3] = ["svc-a", "svc-b", "svc-heap"];

pub fn churn_registry(counters: &Arc<ChurnCounters>) -> ContentRegistry<u64> {
    let mut r = ContentRegistry::new();
    r.register("Caller", || {
        Box::new(Caller {
            svc: InternedPort::new("svc"),
        })
    });
    for (ix, class) in ["SvcA", "SvcB", "SvcHeap"].into_iter().enumerate() {
        let c = Arc::clone(counters);
        r.register(class, move || {
            Box::new(Svc {
                ix,
                counters: Arc::clone(&c),
            })
        });
    }
    r
}

/// An NHRT caller bound synchronously to `svc-a`; `svc-b` is the other
/// legal target, and `svc-heap` lives on the heap, so rebinding the
/// caller onto it is refused by the commit-time validator (SOL-006).
pub fn churn_design() -> Result<Architecture, String> {
    let mut b = BusinessView::new("reconfig-churn");
    b.active_periodic("caller", "5ms").map_err(err)?;
    b.content("caller", "Caller").map_err(err)?;
    b.require("caller", "svc", "ISvc").map_err(err)?;
    for (name, class) in CHURN_SERVICES.into_iter().zip(["SvcA", "SvcB", "SvcHeap"]) {
        b.passive(name).map_err(err)?;
        b.content(name, class).map_err(err)?;
        b.provide(name, "svc", "ISvc").map_err(err)?;
    }
    b.bind_sync("caller", "svc", "svc-a", "svc").map_err(err)?;
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::NoHeapRealtime, 30, &["caller"])
        .map_err(err)?;
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "svc-a", "svc-b"],
    )
    .map_err(err)?;
    flow.memory_area("heap", MemoryKind::Heap, None, &["svc-heap"])
        .map_err(err)?;
    flow.merge().map_err(err)
}
