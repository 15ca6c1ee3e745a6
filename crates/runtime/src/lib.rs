//! # soleil-runtime — the execution engine behind generated infrastructures
//!
//! The generator (see `soleil-generator`) compiles a validated architecture
//! into a [`spec::SystemSpec`]; this crate turns that spec into a running
//! [`ParallelSystem`] (a [`Deployment`] is one on a one-shard plan) — the
//! one public way in — at one of the three optimization levels the paper
//! evaluates (each shard runs one [`System`], read-only from outside):
//!
//! * **SOLEIL** — membranes reified as objects: every invocation runs
//!   through lifecycle gates, a name-keyed binding controller and a dynamic
//!   interceptor chain; full membrane-level introspection/reconfiguration.
//! * **MERGE-ALL** — membrane logic merged into each component: compiled
//!   binding slots, inlined memory choreography; functional-level
//!   reconfiguration only.
//! * **ULTRA-MERGE** — the whole system fused into one flat dispatch table;
//!   purely static, no reconfiguration.
//!
//! All three execute the same RTSJ semantics against
//! [`rtsj::memory::MemoryManager`] (scope entry/exit, assignment checks,
//! buffer placement); what differs is the framework machinery around the
//! functional code — exactly the overhead Fig. 7 measures.
//!
//! For deployments whose thread domains are independent, [`parallel`]
//! shards the engine by domain — one [`System`] (and one slab-backed
//! memory manager) per shard, each ticking on its own OS thread (shard 0
//! on the caller's, the others on leased workers), with cross-shard
//! bindings on wait-free SPSC rings. Payloads and content are
//! `Send` to make that legal; the partition rules live in the module docs.
//!
//! The engine is also a **release engine**: [`timer`] provides a
//! preallocated binary-heap timer queue over [`rtsj::time::AbsoluteTime`]
//! (schedule/fire/cancel with generation-checked handles; earliest
//! deadline first, ties by priority then FIFO), driven by each engine's
//! tick — serially or per parallel shard — so components
//! can schedule releases at absolute times. Deployed components can carry
//! declarative timing contracts (`soleil_core::contract`): an
//! allocation-free latency/jitter histogram with deadline-miss detection
//! is compiled into each component's activation plan — a `u16` sentinel,
//! so unmonitored components pay a single integer compare — and verdicts
//! surface through the design-time `ValidationReport` machinery.
//!
//! Faults are first-class: every component carries a
//! [`FaultPolicy`] (escalate / isolate / supervised restart with
//! exponential backoff on the timer queue), panics are caught at the
//! activation boundary and converted into typed `Faulted` errors, and a
//! deterministic seeded fault injector can be compiled into any
//! component's plan. Quarantined components count-drop their messages
//! (never silently lost) and surface through `health_report()` as
//! SOL-020…022 findings. Components additionally form **supervision
//! trees** (`ParallelSystem::set_supervisor`): a fault escalating out of an
//! `Escalate` component walks up the tree, and the first supervisor with
//! a containing policy applies it to the failed *subtree* — isolating it
//! with counted drops or restarting it as a unit through the timer queue
//! — while sibling branches keep running; the walked path surfaces as a
//! SOL-023 verdict. Components opting into the warm-state **Checkpoint
//! capability** (`ParallelSystem::enable_checkpoint`) carry their counters
//! across supervised restarts through bounded, preallocated state images
//! charged to their allocation area.
//!
//! Supporting modules: [`instrument`] (steady-state latency measurement for
//! Fig. 7(a)/(b)), [`footprint`] (Fig. 7(c) accounting) and [`sim`]
//! (virtual-time deployment onto [`rtsj::sched::Simulator`] for the
//! determinism experiment, plus engine-backed virtual-time recovery
//! campaigns — [`sim::run_recovery_campaign`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
#[cfg(test)]
mod dispatch_parity;
pub mod footprint;
pub mod instrument;
mod lease;
pub mod parallel;
pub mod sim;
pub mod spec;
mod system;
pub mod timer;

pub use deploy::Deployment;
pub use footprint::FootprintReport;
pub use instrument::LatencySamples;
pub use parallel::{ComponentRef, ParallelSystem, PortRef, Reconfiguration, ShardRun};
pub use sim::{run_recovery_campaign, RecoveryEpisode, RecoveryMetrics};
pub use spec::{Mode, SystemSpec};
pub use system::{EngineStats, FaultPolicy, MembraneInfo, System, RELEASE_PORT};
pub use timer::{TimerHandle, TimerQueue};
