//! Persistent shard workers: a parallel deployment leases one thread per
//! shard beyond the first (the caller drives shard 0) for its whole life,
//! and dropping it parks those threads for the next deployment instead of
//! leaking or respawning them.
//!
//! This file holds a single test on purpose: it runs in its own process,
//! so no concurrently running test can lease the idle threads it counts.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;
use rtsj::time::RelativeTime;
use soleil_membrane::content::{Content, ContentRegistry, InvokeResult, Ports};
use soleil_patterns::PatternKind;
use soleil_runtime::spec::{
    Activation, AreaSpec, BindingSpec, BufferPlacement, ComponentSpec, DomainSpec, ProtocolSpec,
    SystemSpec,
};
use soleil_runtime::{Mode, ParallelSystem, ShardRun};

#[derive(Debug)]
struct Producer;
impl Content<u64> for Producer {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        out.send("out", *msg)
    }
}

#[derive(Debug)]
struct Sink(Arc<AtomicU64>);
impl Content<u64> for Sink {
    fn on_invoke(&mut self, _p: &str, _msg: &mut u64, _out: &mut dyn Ports<u64>) -> InvokeResult {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A periodic producer in domain A feeding a sink in domain B over a
/// ring: two shards.
fn spec() -> SystemSpec {
    let domain = |name: &str, priority| DomainSpec {
        name: name.into(),
        kind: ThreadKind::NoHeapRealtime,
        priority,
    };
    SystemSpec {
        name: "lease".into(),
        areas: vec![AreaSpec {
            name: "Imm".into(),
            kind: MemoryKind::Immortal,
            size: Some(64 * 1024),
            parent: None,
        }],
        domains: vec![domain("A", 30), domain("B", 20)],
        components: vec![
            ComponentSpec {
                name: "producer".into(),
                content_class: "Producer".into(),
                activation: Activation::Periodic {
                    period: RelativeTime::from_millis(10),
                },
                domain: Some(0),
                area: 0,
                server_ports: vec![],
                ceiling: None,
            },
            ComponentSpec {
                name: "sink".into(),
                content_class: "Sink".into(),
                activation: Activation::Sporadic,
                domain: Some(1),
                area: 0,
                server_ports: vec!["in".into()],
                ceiling: None,
            },
        ],
        bindings: vec![BindingSpec {
            client: 0,
            client_port: "out".into(),
            server: 1,
            server_port: "in".into(),
            protocol: ProtocolSpec::Async {
                capacity: 16,
                placement: BufferPlacement::Immortal,
            },
            pattern: PatternKind::ImmortalExchange,
            enter_path: vec![],
        }],
    }
}

fn deploy(sunk: &Arc<AtomicU64>) -> ParallelSystem<u64> {
    let mut registry = ContentRegistry::new();
    registry.register("Producer", || Box::new(Producer));
    let s = Arc::clone(sunk);
    registry.register("Sink", move || Box::new(Sink(Arc::clone(&s))));
    let sys = ParallelSystem::build(&spec(), Mode::MergeAll, &registry).unwrap();
    assert_eq!(sys.shard_count(), 2);
    sys
}

fn threads_of(runs: &[ShardRun]) -> Vec<ThreadId> {
    runs.iter().map(|r| r.thread).collect()
}

/// The `Threads:` line of `/proc/self/status` (None off Linux).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn shard_workers_are_reused_across_runs_and_deployments_without_leaking() {
    let start = os_threads();
    let sunk = Arc::new(AtomicU64::new(0));

    // Consecutive runs of one deployment tick each shard on the same
    // thread: the caller drives shard 0, shard 1 runs on a leased worker.
    let mut first = deploy(&sunk);
    let leased = threads_of(&first.run_ticks(5).unwrap());
    let caller = std::thread::current().id();
    assert_eq!(leased[0], caller);
    assert!(leased[1..].iter().all(|&t| t != caller));
    assert_eq!(leased.iter().collect::<HashSet<_>>().len(), 2);
    for _ in 0..10 {
        assert_eq!(threads_of(&first.run_ticks(3).unwrap()), leased);
    }
    assert_eq!(sunk.load(Ordering::Relaxed), 35);

    // A deployment built after the first one dropped runs on its threads.
    drop(first);
    let mut second = deploy(&sunk);
    let reused: HashSet<_> = threads_of(&second.run_ticks(2).unwrap())
        .into_iter()
        .collect();
    assert_eq!(reused, leased.iter().copied().collect());
    drop(second);

    // Build → run → drop cycles leak no threads.
    for _ in 0..50 {
        let mut sys = deploy(&sunk);
        sys.run_ticks(1).unwrap();
    }
    assert_eq!(sunk.load(Ordering::Relaxed), 35 + 2 + 50);
    if let (Some(start), Some(now)) = (start, os_threads()) {
        assert!(
            now <= start + 1,
            "{now} OS threads after 50 deployments, {start} before"
        );
    }
}
