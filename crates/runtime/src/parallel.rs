//! Parallel domain sharding: one engine per thread-domain group, ticking
//! on real OS threads.
//!
//! The paper deploys one `RealtimeThread` per merged active composite —
//! thread domains are its natural units of parallelism. This module turns
//! that design-time structure into runtime parallelism:
//!
//! 1. **Planning.** [`ParallelSystem::build`] partitions a [`SystemSpec`]
//!    into *shards* with a union-find over components: components in the
//!    same domain stay together; synchronous bindings (nested
//!    run-to-completion calls cannot cross threads) and shared scoped
//!    memory areas (a scope is owned by exactly one engine — the slab
//!    substrate's per-area ownership is the sharding boundary) merge the
//!    groups they connect; domainless components attach to the shard of a
//!    binding peer. What remains independent runs independently.
//! 2. **Materialization.** Each shard gets its *own* [`System`] — its own
//!    slab-backed [`MemoryManager`](rtsj::memory::MemoryManager), its own
//!    pending-message heap, its own compiled binding tables. Heap and
//!    immortal areas are replicated per shard (each engine charges its own
//!    replica); scoped areas are materialized only in the shard that owns
//!    them. Bindings *between* shards are asynchronous by construction
//!    (anything synchronous was merged at planning time) and ride
//!    wait-free SPSC rings ([`soleil_patterns::spsc`]) instead of
//!    engine-local exchange buffers — the carrier is chosen here, at build
//!    time, exactly like RTSJ's `WaitFreeWriteQueue` sits between a
//!    no-heap producer and a heap consumer.
//! 3. **Execution.** The caller drives shard 0; every other shard ticks
//!    on its own persistent worker thread. On its first run the
//!    deployment leases one thread per shard beyond the first from a
//!    process-wide idle-thread cache (spawning only when the cache is
//!    empty) and keeps it for its whole life — a one-shard plan leases
//!    none. Each [`ParallelSystem::run_ticks`] call moves every other
//!    shard to its worker by ownership over a bounded channel, runs
//!    shard 0 inline through the same job body, then takes the others
//!    back the same way: one hand-off round trip per *other* shard, not a
//!    thread spawn and join, and no wake-up for the caller's own shard.
//!    Dropping the deployment closes the channels and parks its threads
//!    back in the cache before `drop` returns. Each shard's thread
//!    releases its periodic heads and drains its
//!    incoming rings (highest consumer priority first) in **batches**:
//!    each drain pass snapshots a ring's published head once and pops the
//!    whole visible run against the cached value, amortizing the
//!    `Acquire` load over the batch instead of paying it per message;
//!    every popped message injects as a run-to-completion activation. A
//!    tick round ends with a quiescence protocol: a shared in-flight
//!    counter is incremented *before* every cross push and decremented
//!    **batch-wise** after the batch's activations complete
//!    (later-than-necessary decrements are conservative), so `all ticks
//!    done ∧ in-flight == 0` still proves no message exists anywhere —
//!    only then do the workers hand their shards back. A panic on any
//!    shard's thread, the caller's included, is caught in the shard's
//!    job: the run fails with a typed error naming the shard, and the
//!    deployment is *poisoned* — later runs, reconfigurations and every
//!    mutating control call refuse, and so does a serial deployment's
//!    inline hot path.
//!    Steady-state ticks allocate nothing on any thread: rings, slabs and
//!    scope stacks are provisioned at build/warmup time.
//! 4. **The control plane.** [`ParallelSystem::resolve`] turns a
//!    component name into a [`ComponentRef`] once; the token carries the
//!    deployment's identity, the component's global index, its shard and
//!    its slot (placement never changes after build, so it cannot go
//!    stale). Every per-component control — timers, contracts, fault
//!    policies, quarantine and restart, injectors, supervisors,
//!    checkpoints, latency snapshots, membrane/ceiling/jitter
//!    introspection — exists once, here, and takes tokens: a token minted
//!    by another deployment is refused, and mutators check the poison
//!    flag. A serial [`crate::Deployment`] is this engine on a forced
//!    **one-shard plan** (every component on shard 0, no rings) and
//!    reaches the same control plane through `Deref`.
//! 5. **Reconfiguration.** [`ParallelSystem::reconfigure`] runs one
//!    journaled [`Reconfiguration`] transaction across the partition —
//!    the only transaction type, serial and sharded alike: one operation
//!    per kind, one journal of owned pre-images, one undo and one commit
//!    path. Each step records what it overwrote; undo moves it back
//!    through setters with no error path, for a failed operation (back to
//!    where it started) and a refused transaction (back to zero) alike, so
//!    a rollback cannot fail halfway or reorder the architecture. Commit
//!    compliance is decided by the design-time validator alone; the
//!    SOL-015 coupling advisory is computed only when a commit is
//!    refused, to explain the refusal.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use rtsj::thread::Priority;
use rtsj::time::AbsoluteTime;
use soleil_core::arch::ArchImage;
use soleil_core::contract::TimingContract;
use soleil_core::model::ComponentKind;
use soleil_core::validate::{parallel_coupling, validate};
use soleil_core::{Architecture, ValidationReport};
use soleil_membrane::content::{ContentRegistry, Payload};
use soleil_membrane::interceptors::FaultInjector;
use soleil_membrane::monitor::LatencySnapshot;
use soleil_membrane::FrameworkError;
use soleil_patterns::spsc::{spsc_ring, SpscConsumer};

use crate::lease::{self, Idle};
use crate::spec::{
    AreaSpec, BindingSpec, ComponentSpec, DomainSpec, Mode, ProtocolSpec, SystemSpec,
};
use crate::system::{
    panic_detail, CrossOutput, EngineImage, EngineStats, FaultPolicy, MembraneInfo, System,
};
use crate::timer::TimerHandle;

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

// Deterministic smaller-root-wins unions (shard order follows component
// declaration order); shared with the design-time SOL-015 advisory so the
// two partitions cannot drift.
use soleil_core::disjoint::UnionFind;

/// The scoped-area chain of a component (area indices, innermost last).
fn scoped_chain(spec: &SystemSpec, comp: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut cursor = Some(spec.components[comp].area);
    while let Some(ix) = cursor {
        if spec.areas[ix].kind == rtsj::memory::MemoryKind::Scoped {
            out.push(ix);
        }
        cursor = spec.areas[ix].parent;
    }
    out
}

/// Groups components into shards. Returns, per component, its shard index,
/// plus the number of shards. Pure function of the spec — the same
/// coupling rules the design-time advisory
/// (`soleil_core::validate::parallel_coupling`) reports on.
fn plan_shards(spec: &SystemSpec) -> (Vec<usize>, usize) {
    let n = spec.components.len();
    let mut uf = UnionFind::new(n);

    // Same thread domain → same shard.
    let mut first_in_domain: HashMap<usize, usize> = HashMap::new();
    for (i, c) in spec.components.iter().enumerate() {
        if let Some(d) = c.domain {
            match first_in_domain.get(&d) {
                Some(&j) => uf.union(i, j),
                None => {
                    first_in_domain.insert(d, i);
                }
            }
        }
    }

    // Synchronous bindings are nested run-to-completion calls: they cannot
    // cross threads, so they serialize their endpoints into one shard.
    for b in &spec.bindings {
        if matches!(b.protocol, ProtocolSpec::Sync) {
            uf.union(b.client, b.server);
        }
    }

    // A scoped area is owned by exactly one engine: components standing in
    // the same scope (anywhere on their chains) must share a shard.
    let mut first_with_area: HashMap<usize, usize> = HashMap::new();
    for i in 0..n {
        for a in scoped_chain(spec, i) {
            match first_with_area.get(&a) {
                Some(&j) => uf.union(i, j),
                None => {
                    first_with_area.insert(a, i);
                }
            }
        }
    }

    // Domainless groups (passives and undomained sporadics reachable only
    // through asynchronous bindings) attach to the shard of a binding
    // peer; iterate to a fixpoint so passive chains collapse.
    let group_has_domain = |uf: &mut UnionFind, spec: &SystemSpec, x: usize| {
        let root = uf.find(x);
        (0..n).any(|i| uf.find(i) == root && spec.components[i].domain.is_some())
    };
    loop {
        let mut changed = false;
        for bix in 0..spec.bindings.len() {
            let (c, s) = (spec.bindings[bix].client, spec.bindings[bix].server);
            if uf.find(c) != uf.find(s) {
                let cd = group_has_domain(&mut uf, spec, c);
                let sd = group_has_domain(&mut uf, spec, s);
                if cd != sd {
                    uf.union(c, s);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Anything still domainless and unconnected joins the first domained
    // group (or group 0): every component must be owned by some engine.
    let anchor = (0..n).find(|&i| spec.components[i].domain.is_some());
    if let Some(anchor) = anchor {
        for i in 0..n {
            if !group_has_domain(&mut uf, spec, i) {
                uf.union(i, anchor);
            }
        }
    }

    // Number shards in order of their smallest component index.
    let mut shard_of_root: HashMap<usize, usize> = HashMap::new();
    let mut shard_of_comp = vec![0usize; n];
    for (i, slot) in shard_of_comp.iter_mut().enumerate() {
        let root = uf.find(i);
        let next = shard_of_root.len();
        *slot = *shard_of_root.entry(root).or_insert(next);
    }
    let count = shard_of_root.len().max(1);
    (shard_of_comp, count)
}

// ---------------------------------------------------------------------------
// The sharded system
// ---------------------------------------------------------------------------

/// An incoming cross-domain ring: messages pop here and inject into the
/// consumer's server port as ordinary run-to-completion activations.
/// Build-time staging for a [`CrossIn`]: (consumer local slot, server
/// port name, consumer ring endpoint, ring tag), collected per shard
/// before port names are interned.
type PendingCrossIn<P> = (usize, String, SpscConsumer<P>, u64);

struct CrossIn<P> {
    rx: SpscConsumer<P>,
    slot: usize,
    port_ix: u16,
    /// Deployment-unique ring identity, minted at build or by a live
    /// rewiring transaction. `incoming` is kept priority-sorted, so the
    /// tag — not the position — is how reconfiguration retires a ring.
    tag: u64,
}

struct Shard<P: Payload> {
    label: String,
    system: System<P>,
    incoming: Vec<CrossIn<P>>,
}

/// A shard's label: its thread-domain names joined with `+`.
fn shard_label(domains: &[DomainSpec], shard: usize) -> String {
    if domains.is_empty() {
        return format!("shard{shard}");
    }
    let names: Vec<&str> = domains.iter().map(|d| d.name.as_str()).collect();
    names.join("+")
}

/// What a build materialized: the shards, each component's `(shard,
/// slot)`, each binding's carrier, and the next ring tag to mint.
type Materialized<P> = (Vec<Shard<P>>, Vec<(usize, usize)>, Vec<Carrier>, u64);

/// How one spec binding is carried at runtime — settled at build, and
/// rewritten by live rewiring transactions. Indexed by the *global* spec
/// binding position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carrier {
    /// Both endpoints on one shard: engine-local dispatch (sync call or
    /// `ExchangeBuffer`).
    Local { shard: usize },
    /// Cross-shard (or rewired) SPSC ring: the producer endpoint sits at
    /// `cross_ix` of `producer_shard`'s engine, the consumer endpoint is
    /// the `incoming` entry tagged `tag` on `consumer_shard`.
    Ring {
        producer_shard: usize,
        cross_ix: usize,
        consumer_shard: usize,
        tag: u64,
    },
}

/// Sorts a shard's incoming rings into drain order: highest consumer
/// priority first, mirroring the single-engine pending heap, and ring tag
/// (mint order) among equals. The order is a function of the rings and
/// their consumers' priorities alone, so build, every reconfiguration and
/// every rollback arrive at the same order for the same state.
fn resort_incoming<P: Payload>(shard: &mut Shard<P>) {
    let Shard {
        system, incoming, ..
    } = shard;
    incoming.sort_by_key(|c| (std::cmp::Reverse(system.node_priority(c.slot)), c.tag));
}

/// Per-shard report of one [`ParallelSystem::run_ticks_instrumented`] run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard label (its thread-domain names joined with `+`).
    pub label: String,
    /// The OS thread the shard ticked on: the caller's for shard 0, its
    /// leased worker for every other shard, the same one for every run of
    /// a deployment.
    pub thread: ThreadId,
    /// Measured ticks driven.
    pub ticks: u64,
    /// Median wall-clock nanoseconds per measured tick (tick + drain).
    pub median_tick_ns: u64,
    /// Total wall-clock nanoseconds across the measured ticks.
    pub total_ns: u64,
    /// Delta of the caller's probe across the measured phase (the
    /// zero-alloc gate passes a per-thread heap-allocation counter).
    pub probe_delta: u64,
    /// Substrate allocations performed during the measured phase (0 in
    /// steady state).
    pub substrate_allocs: u64,
    /// Drain passes executed over the shard's incoming rings across the
    /// whole run (each pass snapshots every ring's published head once).
    pub drain_passes: u64,
    /// Largest run of messages popped from one ring within a single drain
    /// pass — `> 1` proves the batched drain actually amortized an
    /// `Acquire` load over several messages.
    pub max_drain_batch: u64,
    /// Messages drained from incoming rings across the whole run.
    pub drained_messages: u64,
    /// Engine counters after the run (shard totals since build).
    pub stats: EngineStats,
}

/// Per-run drain accounting, threaded through every drain pass of one
/// shard worker (warmup, measured and quiescence phases alike).
#[derive(Debug, Clone, Copy, Default)]
struct DrainStats {
    passes: u64,
    max_batch: u64,
    messages: u64,
}

/// Mints a fresh deployment identity (token-scoping nonce).
static NEXT_DEPLOYMENT: AtomicU32 = AtomicU32::new(1);

/// A component resolved within one deployment: a copyable token that
/// addresses the component's shard and engine slot without any name
/// resolution, plus its global spec index (the address reconfiguration
/// journals against). Placement never changes after build, so a token
/// cannot go stale; it carries the identity of the deployment that minted
/// it, so another deployment refuses it instead of silently addressing the
/// wrong slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentRef {
    deployment: u32,
    g: u32,
    shard: u32,
    slot: u32,
}

/// A server port resolved within one deployment: shard, component slot
/// and port index, the complete address an injection needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    deployment: u32,
    shard: u32,
    slot: u32,
    port_ix: u16,
}

/// A deployment sharded by thread domain, ticking every shard on its own
/// OS thread. See the [module docs](self).
pub struct ParallelSystem<P: Payload> {
    /// Deployment identity: every token this deployment mints carries it.
    nonce: u32,
    name: String,
    mode: Mode,
    shards: Vec<Shard<P>>,
    /// The run control block shared with the workers, reset at the start
    /// of every run; it owns the in-flight quiescence counter.
    ctl: Arc<Ctl>,
    /// One leased worker per shard beyond the first: `workers[i]` serves
    /// shard `i + 1` (the caller drives shard 0). Empty until the first
    /// run, and always empty on a one-shard plan.
    workers: Vec<Worker<P>>,
    /// Shard 0's per-tick sample buffer, reused across runs on the
    /// caller's thread like each worker's own.
    nanos: Vec<u64>,
    /// Set when a shard worker panicked: the root cause every later run
    /// and reconfiguration refuses with.
    poisoned: Option<String>,
    /// The global spec, kept in lock-step with every committed
    /// reconfiguration (commit-time `check()` runs against it, and
    /// teardown-and-redeploy equivalence is defined by it).
    spec: SystemSpec,
    /// Global component index → (shard, shard-local engine slot).
    comp_slot: Vec<(usize, usize)>,
    /// Global spec-binding index → how that binding is carried.
    carriers: Vec<Carrier>,
    /// Next ring tag to mint (build consumed the ones below it).
    next_tag: u64,
    /// The architectural model [`ParallelSystem::build_with_arch`] was
    /// given (an empty placeholder after [`ParallelSystem::build`]).
    arch: Architecture,
    /// True when `arch` is a live mirror: reconfiguration transactions
    /// keep it in lock-step and re-validate it against the full rule set
    /// at commit. Without one they reconfigure the engines alone.
    mirrored: bool,
}

impl<P: Payload> std::fmt::Debug for ParallelSystem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSystem")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<P: Payload> ParallelSystem<P> {
    /// Plans the shard partition of `spec`, materializes one engine per
    /// shard and wires every cross-shard binding through a wait-free SPSC
    /// ring. See the [module docs](self) for the partition rules.
    ///
    /// # Errors
    ///
    /// Spec inconsistencies ([`FrameworkError::Content`]), unknown content
    /// classes, and substrate errors when a shard's areas cannot be
    /// created or its budgets overflow.
    pub fn build(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
    ) -> Result<ParallelSystem<P>, FrameworkError> {
        Self::build_inner(spec, mode, registry, None, false)
    }

    /// [`ParallelSystem::build`] with the architectural model retained as
    /// a live mirror: reconfiguration transactions then update it
    /// operation-by-operation and re-validate it against the full RTSJ
    /// rule set at commit, exactly like serial [`crate::Deployment`]s.
    /// The generator's `deploy_parallel` passes the validated architecture
    /// through here.
    ///
    /// # Errors
    ///
    /// Same as [`ParallelSystem::build`], plus
    /// [`FrameworkError::Content`] when `arch` does not describe every
    /// component of `spec`.
    pub fn build_with_arch(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        arch: Architecture,
    ) -> Result<ParallelSystem<P>, FrameworkError> {
        Self::build_inner(spec, mode, registry, Some(arch), false)
    }

    /// The planning entry behind every build. `one_shard` forces the plan
    /// a serial [`crate::Deployment`] runs on: every component on shard 0,
    /// no rings, and the shard engine built from the spec itself, so it
    /// keeps the spec's own name.
    ///
    /// # Errors
    ///
    /// Same as [`ParallelSystem::build_with_arch`].
    pub(crate) fn build_inner(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        arch: Option<Architecture>,
        one_shard: bool,
    ) -> Result<ParallelSystem<P>, FrameworkError> {
        let in_flight: Arc<AtomicU64> = Arc::default();
        let (shards, comp_slot, carriers, next_tag) = if one_shard {
            let system =
                System::build_with_cross(spec, mode, registry, Vec::new(), Arc::clone(&in_flight))?;
            let shard = Shard {
                label: shard_label(&spec.domains, 0),
                system,
                incoming: Vec::new(),
            };
            let comp_slot = (0..spec.components.len()).map(|slot| (0, slot)).collect();
            (
                vec![shard],
                comp_slot,
                vec![Carrier::Local { shard: 0 }; spec.bindings.len()],
                1,
            )
        } else {
            Self::materialize(spec, mode, registry, &in_flight)?
        };
        if let Some(arch) = &arch {
            if let Some(c) = spec
                .components
                .iter()
                .find(|c| arch.id_of(&c.name).is_err())
            {
                return Err(FrameworkError::Content(format!(
                    "architecture does not describe deployed component '{}'",
                    c.name
                )));
            }
        }
        Ok(ParallelSystem {
            nonce: NEXT_DEPLOYMENT.fetch_add(1, Ordering::Relaxed),
            name: spec.name.clone(),
            mode,
            ctl: Arc::new(Ctl::new(shards.len(), in_flight)),
            shards,
            workers: Vec::new(),
            nanos: Vec::new(),
            poisoned: None,
            spec: spec.clone(),
            comp_slot,
            carriers,
            next_tag,
            mirrored: arch.is_some(),
            arch: arch.unwrap_or_default(),
        })
    }

    /// Plans the shard partition of `spec` and materializes it: one engine
    /// per shard over its remapped sub-spec, and an SPSC ring per
    /// cross-shard binding.
    fn materialize(
        spec: &SystemSpec,
        mode: Mode,
        registry: &ContentRegistry<P>,
        in_flight: &Arc<AtomicU64>,
    ) -> Result<Materialized<P>, FrameworkError> {
        spec.check().map_err(FrameworkError::Content)?;
        let (shard_of_comp, shard_count) = plan_shards(spec);

        // --- Per-shard index remappings. -------------------------------
        // Areas: heap/immortal replicate everywhere; a scoped area lives
        // only in the shard owning it — via any resident component, or,
        // for a resident-free scope, its nearest scoped ancestor's owner
        // (its sub-spec must contain its parent chain; areas are ordered
        // parents-first, so the ancestor's owner is already settled).
        // Resident-free roots default to shard 0.
        let mut scoped_owner: Vec<usize> = vec![usize::MAX; spec.areas.len()];
        for (aix, a) in spec.areas.iter().enumerate() {
            if a.kind != rtsj::memory::MemoryKind::Scoped {
                continue; // replicated
            }
            scoped_owner[aix] = spec
                .components
                .iter()
                .enumerate()
                .find(|(cix, _)| scoped_chain(spec, *cix).contains(&aix))
                .map(|(cix, _)| shard_of_comp[cix])
                .or_else(|| {
                    let mut cursor = a.parent;
                    while let Some(p) = cursor {
                        if scoped_owner[p] != usize::MAX {
                            return Some(scoped_owner[p]);
                        }
                        cursor = spec.areas[p].parent;
                    }
                    None
                })
                .unwrap_or(0);
        }

        let mut area_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); shard_count];
        let mut shard_areas: Vec<Vec<AreaSpec>> = vec![Vec::new(); shard_count];
        for (aix, a) in spec.areas.iter().enumerate() {
            for shard in 0..shard_count {
                let replicated = scoped_owner[aix] == usize::MAX;
                if replicated || scoped_owner[aix] == shard {
                    let mut local = a.clone();
                    local.parent = a
                        .parent
                        .map(|p| {
                            area_map[shard].get(&p).copied().ok_or_else(|| {
                                FrameworkError::Content(format!(
                                    "memory area '{}' is declared before its parent",
                                    a.name
                                ))
                            })
                        })
                        .transpose()?;
                    area_map[shard].insert(aix, shard_areas[shard].len());
                    shard_areas[shard].push(local);
                }
            }
        }

        // Domains: those referenced by a shard's components (unused
        // domains default to shard 0 so every roster entry materializes).
        let mut domain_shard = vec![0usize; spec.domains.len()];
        for (cix, c) in spec.components.iter().enumerate() {
            if let Some(d) = c.domain {
                domain_shard[d] = shard_of_comp[cix];
            }
        }
        let mut domain_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); shard_count];
        let mut shard_domains: Vec<Vec<DomainSpec>> = vec![Vec::new(); shard_count];
        for (dix, d) in spec.domains.iter().enumerate() {
            let shard = domain_shard[dix];
            domain_map[shard].insert(dix, shard_domains[shard].len());
            shard_domains[shard].push(d.clone());
        }

        // Components.
        let mut comp_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); shard_count];
        let mut shard_comps: Vec<Vec<ComponentSpec>> = vec![Vec::new(); shard_count];
        for (cix, c) in spec.components.iter().enumerate() {
            let shard = shard_of_comp[cix];
            let mut local = c.clone();
            local.area = area_map[shard][&c.area];
            local.domain = c.domain.map(|d| domain_map[shard][&d]);
            comp_map[shard].insert(cix, shard_comps[shard].len());
            shard_comps[shard].push(local);
        }

        // Bindings: intra-shard remap in place; cross-shard must be
        // asynchronous (planning merged everything synchronous) and
        // becomes a ring.
        let mut shard_bindings: Vec<Vec<BindingSpec>> = vec![Vec::new(); shard_count];
        let mut cross_outputs: Vec<Vec<CrossOutput<P>>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        let mut cross_inputs: Vec<Vec<PendingCrossIn<P>>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        let mut carriers: Vec<Carrier> = Vec::with_capacity(spec.bindings.len());
        let mut next_tag: u64 = 1;
        for b in &spec.bindings {
            let (cs, ss) = (shard_of_comp[b.client], shard_of_comp[b.server]);
            if cs == ss {
                let mut local = b.clone();
                local.client = comp_map[cs][&b.client];
                local.server = comp_map[cs][&b.server];
                local.enter_path = b.enter_path.iter().map(|a| area_map[cs][a]).collect();
                shard_bindings[cs].push(local);
                carriers.push(Carrier::Local { shard: cs });
                continue;
            }
            let ProtocolSpec::Async { capacity, .. } = b.protocol else {
                return Err(FrameworkError::Content(format!(
                    "planner bug: synchronous binding {}→{} crosses shards",
                    spec.components[b.client].name, spec.components[b.server].name
                )));
            };
            let (tx, rx) = spsc_ring::<P>(capacity)?;
            let tag = next_tag;
            next_tag += 1;
            carriers.push(Carrier::Ring {
                producer_shard: cs,
                cross_ix: cross_outputs[cs].len(),
                consumer_shard: ss,
                tag,
            });
            // Charge what the ring physically holds: the power-of-two slot
            // array of locked Option<P> cells, not just the logical
            // payload bytes.
            let slot_bytes = std::mem::size_of::<std::sync::Mutex<Option<P>>>().max(1);
            cross_outputs[cs].push(CrossOutput {
                client: comp_map[cs][&b.client],
                client_port: b.client_port.clone(),
                tx,
                charge_bytes: capacity.next_power_of_two() * slot_bytes,
            });
            cross_inputs[ss].push((comp_map[ss][&b.server], b.server_port.clone(), rx, tag));
        }

        // --- Materialize each shard. -----------------------------------
        let mut shards: Vec<Shard<P>> = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let sub = SystemSpec {
                name: format!("{}/shard{}", spec.name, shard),
                areas: std::mem::take(&mut shard_areas[shard]),
                domains: shard_domains[shard].clone(),
                components: std::mem::take(&mut shard_comps[shard]),
                bindings: std::mem::take(&mut shard_bindings[shard]),
            };
            let system = System::build_with_cross(
                &sub,
                mode,
                registry,
                std::mem::take(&mut cross_outputs[shard]),
                Arc::clone(in_flight),
            )?;
            let mut incoming = Vec::with_capacity(cross_inputs[shard].len());
            for (slot, port, rx, tag) in std::mem::take(&mut cross_inputs[shard]) {
                let port_ix = system.port_ix_of(slot, &port)?;
                incoming.push(CrossIn {
                    rx,
                    slot,
                    port_ix,
                    tag,
                });
            }
            let mut built = Shard {
                label: shard_label(&sub.domains, shard),
                system,
                incoming,
            };
            resort_incoming(&mut built);
            shards.push(built);
        }

        let comp_slot: Vec<(usize, usize)> = (0..spec.components.len())
            .map(|cix| {
                let s = shard_of_comp[cix];
                (s, comp_map[s][&cix])
            })
            .collect();

        Ok((shards, comp_slot, carriers, next_tag))
    }

    /// The system name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generation mode every shard runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of shards (independent engines, each ticking on its own
    /// thread: shard 0 on the caller's, the others on leased workers).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard labels (thread-domain names joined with `+`), in shard order.
    pub fn shard_labels(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.label.as_str()).collect()
    }

    /// The shard a thread domain was planned into.
    pub fn shard_of_domain(&self, domain: &str) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.system.domain_ix_by_name(domain).is_some())
    }

    /// The shard a component was planned into; `None` for a token minted
    /// by another deployment.
    pub fn shard_of_component(&self, component: ComponentRef) -> Option<usize> {
        self.locate(component).ok().map(|(shard, _)| shard)
    }

    /// Engine counters of one shard; `None` for a shard index outside
    /// `0..shard_count()`.
    pub fn shard_stats(&self, shard: usize) -> Option<EngineStats> {
        self.shards.get(shard).map(|s| s.system.stats())
    }

    /// Engine counters summed across shards. Cross-ring traffic lands in
    /// the ledger split across engines: the producer shard counts the push
    /// (`async_messages`), the consumer shard counts the delivery or the
    /// quarantine drop — the sum is what conservation is asserted on.
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.shards {
            let st = s.system.stats();
            total.transactions += st.transactions;
            total.activations += st.activations;
            total.sync_calls += st.sync_calls;
            total.async_messages += st.async_messages;
            total.dropped_messages += st.dropped_messages;
            total.delivered_messages += st.delivered_messages;
            total.quarantine_drops += st.quarantine_drops;
            total.faults_contained += st.faults_contained;
            total.timer_fires += st.timer_fires;
        }
        total
    }

    /// Dispatch resolutions that fell back to a string scan, summed
    /// across shards; constant across steady-state interned dispatch.
    pub fn string_compares(&self) -> u64 {
        self.shards.iter().map(|s| s.system.string_compares()).sum()
    }

    /// `Arc` clones performed by port dispatch, summed across shards
    /// (always 0: a tripwire for the compiled dispatch plan).
    pub fn arc_clones(&self) -> u64 {
        self.shards.iter().map(|s| s.system.arc_clones()).sum()
    }

    /// Read-only access to one shard's engine (introspection, footprint).
    pub fn shard_system(&self, shard: usize) -> &System<P> {
        &self.shards[shard].system
    }

    /// Mutable access to one shard's engine for the inline hot path of a
    /// one-shard [`crate::Deployment`], which never leases a worker.
    /// Refuses once the deployment is poisoned.
    pub(crate) fn shard_system_mut(
        &mut self,
        shard: usize,
    ) -> Result<&mut System<P>, FrameworkError> {
        self.check_poisoned()?;
        Ok(&mut self.shards[shard].system)
    }

    /// The architecture this deployment currently implements — kept in
    /// lock-step by [`reconfigure`](Self::reconfigure), so it always
    /// describes the live bindings (empty when built without one).
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    // -----------------------------------------------------------------
    // Typed component addressing
    // -----------------------------------------------------------------

    /// Resolves a component name to its token — once, at the cold edge;
    /// hold the [`ComponentRef`] for the hot loop. This is the only
    /// component-addressed call that takes a name; the resolution counts
    /// against the owning engine's name-lookup counter
    /// ([`Deployment::name_lookups`](crate::Deployment::name_lookups)).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown names.
    pub fn resolve(&self, name: &str) -> Result<ComponentRef, FrameworkError> {
        let g = self
            .spec
            .component_index(name)
            .ok_or_else(|| FrameworkError::Content(format!("unknown component '{name}'")))?;
        let token = self.token(g);
        // Resolve through the owning engine too, so the lookup is counted
        // where `name_lookups` reads it.
        self.shards[token.shard as usize].system.slot_ix(name)?;
        Ok(token)
    }

    /// The token of global component `g`.
    pub(crate) fn token(&self, g: usize) -> ComponentRef {
        let (shard, slot) = self.comp_slot[g];
        ComponentRef {
            deployment: self.nonce,
            g: g as u32,
            shard: shard as u32,
            slot: slot as u32,
        }
    }

    /// The token of the component at `slot` of `shard`'s engine.
    fn token_at(&self, shard: usize, slot: usize) -> Option<ComponentRef> {
        let g = self.comp_slot.iter().position(|&at| at == (shard, slot))?;
        Some(self.token(g))
    }

    /// The global spec index a token addresses, once it is checked to
    /// come from this deployment.
    fn g_of(&self, component: ComponentRef) -> Result<usize, FrameworkError> {
        if component.deployment != self.nonce {
            return Err(FrameworkError::Content(
                "component ref was minted by a different deployment".into(),
            ));
        }
        Ok(component.g as usize)
    }

    /// The shard and shard-local slot a token addresses, once it is
    /// checked to come from this deployment.
    fn locate(&self, component: ComponentRef) -> Result<(usize, usize), FrameworkError> {
        self.g_of(component)?;
        Ok((component.shard as usize, component.slot as usize))
    }

    /// The engine owning `component`, and its slot there.
    fn engine(&self, component: ComponentRef) -> Result<(&System<P>, usize), FrameworkError> {
        let (shard, slot) = self.locate(component)?;
        Ok((&self.shards[shard].system, slot))
    }

    /// [`engine`](Self::engine) for a mutating call: also refuses once
    /// the deployment is poisoned.
    pub(crate) fn engine_mut(
        &mut self,
        component: ComponentRef,
    ) -> Result<(&mut System<P>, usize), FrameworkError> {
        let (shard, slot) = self.locate(component)?;
        self.check_poisoned()?;
        Ok((&mut self.shards[shard].system, slot))
    }

    /// Resolves a server port of a resolved component to its token.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unknown ports,
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn port(&self, component: ComponentRef, port: &str) -> Result<PortRef, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(PortRef {
            deployment: self.nonce,
            shard: component.shard,
            slot: component.slot,
            port_ix: system.port_ix_of(slot, port)?,
        })
    }

    /// The engine, slot and port index a port token addresses, for an
    /// injection: refuses foreign tokens and poisoned deployments.
    pub(crate) fn port_mut(
        &mut self,
        port: PortRef,
    ) -> Result<(&mut System<P>, usize, u16), FrameworkError> {
        if port.deployment != self.nonce {
            return Err(FrameworkError::Content(
                "port ref was minted by a different deployment".into(),
            ));
        }
        self.check_poisoned()?;
        let system = &mut self.shards[port.shard as usize].system;
        Ok((system, port.slot as usize, port.port_ix))
    }

    /// The name a token resolves back to (diagnostics).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn name_of(&self, component: ComponentRef) -> Result<&str, FrameworkError> {
        Ok(&self.spec.components[self.g_of(component)?].name)
    }

    // -----------------------------------------------------------------
    // The control plane. Every call takes typed tokens, refuses foreign
    // ones with `FrameworkError::Content`, and — for mutators — refuses a
    // poisoned deployment with `FrameworkError::RunToCompletion`.
    // -----------------------------------------------------------------

    /// Membrane-level introspection — SOLEIL mode only, per the paper.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn membrane_info(&self, component: ComponentRef) -> Result<MembraneInfo, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        system.membrane_info_at(slot)
    }

    /// The priority ceiling the validator assigned to a shared passive
    /// service, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn ceiling_of(&self, component: ComponentRef) -> Result<Option<Priority>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.ceiling_at(slot))
    }

    /// Inter-activation gaps recorded by a component's jitter monitor
    /// (installed with [`Reconfiguration::install_jitter_monitor`]), in
    /// nanoseconds, oldest first; empty when no monitor is installed. The
    /// monitor's preallocated ring keeps the latest `JitterMonitor::WINDOW`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes.
    pub fn jitter_observations(&self, component: ComponentRef) -> Result<Vec<u64>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        system.jitter_at(slot)
    }

    /// Schedules an extra release of the periodic component at absolute
    /// engine time `at`, on the timer queue of whichever shard it was
    /// planned into. A one-shard [`crate::Deployment`] fires it during the
    /// first `run_tick` whose clock reaches `at`, or an explicit
    /// `fire_timers_until`; a sharded run fires it inside the shard
    /// worker's tick loop. The handle cancels it.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Timer`] when the component is not periodic or
    /// the preallocated queue is full.
    pub fn schedule_release(
        &mut self,
        component: ComponentRef,
        at: AbsoluteTime,
    ) -> Result<TimerHandle, FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        system.schedule_release(slot, at)
    }

    /// Cancels a release scheduled on `component`; `false` when the
    /// handle is stale (already fired or cancelled) — generation-checked,
    /// always safe. The component names the shard: handles are only
    /// meaningful against the queue that issued them.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment.
    pub fn cancel_release(
        &mut self,
        component: ComponentRef,
        handle: TimerHandle,
    ) -> Result<bool, FrameworkError> {
        let (system, _) = self.engine_mut(component)?;
        Ok(system.cancel_release(handle))
    }

    /// Currently armed (scheduled, unfired, uncancelled) timers, summed
    /// across shards.
    pub fn armed_timers(&self) -> usize {
        self.shards.iter().map(|s| s.system.armed_timers()).sum()
    }

    /// Attaches a declarative timing contract to a component (any mode —
    /// engine-level observability, unlike the SOLEIL-only membrane
    /// interceptors), replacing any previous contract. From then on every
    /// activation of the component, on whichever shard's thread it runs,
    /// is stamped into an allocation-free latency histogram with online
    /// deadline/jitter checking; components without a contract keep
    /// paying a single integer compare.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment.
    pub fn attach_contract(
        &mut self,
        component: ComponentRef,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        system.attach_contract_at(slot, contract).map(drop)
    }

    /// Detaches a component's timing contract (discarding its recorded
    /// histogram); `true` when one was attached.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment.
    pub fn detach_contract(&mut self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        Ok(system.detach_contract_at(slot).is_some())
    }

    /// The timing contract attached to a component, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn contract_of(
        &self,
        component: ComponentRef,
    ) -> Result<Option<TimingContract>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.contract_at(slot).cloned())
    }

    /// A snapshot of a component's latency monitor (histogram quantiles,
    /// miss/violation counters); `None` when no contract is attached.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn latency_snapshot(
        &self,
        component: ComponentRef,
    ) -> Result<Option<LatencySnapshot>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.latency_snapshot_at(slot))
    }

    /// Deadline misses observed across every monitored component of every
    /// shard.
    pub fn deadline_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.system.deadline_misses()).sum()
    }

    /// Checks every attached contract on every shard and folds the
    /// verdicts into one report (SOL-016…SOL-019 violations; a compliant
    /// report means every contract holds).
    pub fn contract_report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for s in &self.shards {
            report.merge(s.system.contract_report());
        }
        report
    }

    /// Declares a component's [`FaultPolicy`], returning the previous one.
    /// Allowed in **every** mode, ULTRA-MERGE included — supervision is
    /// engine-level recovery machinery like timing contracts, not
    /// structural reconfiguration. Under `Isolate` or `Restart`, a fault
    /// in this component quarantines it on its own shard while every
    /// sibling shard keeps ticking.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment.
    pub fn set_fault_policy(
        &mut self,
        component: ComponentRef,
        policy: FaultPolicy,
    ) -> Result<FaultPolicy, FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        system.set_fault_policy_at(slot, policy)
    }

    /// The fault policy declared for a component
    /// ([`FaultPolicy::Escalate`] by default).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn fault_policy(&self, component: ComponentRef) -> Result<FaultPolicy, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.fault_policy_at(slot))
    }

    /// True while a component is quarantined by its fault policy.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn quarantined(&self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.quarantined_at(slot))
    }

    /// Restarts a quarantined component **now** with a fresh content
    /// instance, on its own shard (the supervised-restart path without
    /// waiting for a backoff timer). Idempotent on healthy components.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment; content `on_start` failures.
    pub fn restart_component(&mut self, component: ComponentRef) -> Result<(), FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        system.restart_slot(slot)
    }

    /// Installs an engine-level deterministic [`FaultInjector`] at a
    /// component's activation boundary (any mode; replaces any previous
    /// injector). With `rate == 0` the injector is idle and the boundary
    /// pays one integer compare — the shape the zero-alloc gate deploys.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment.
    pub fn install_fault_injector(
        &mut self,
        component: ComponentRef,
        injector: FaultInjector,
    ) -> Result<(), FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        system.install_fault_injector_at(slot, injector).map(drop)
    }

    /// Removes a component's engine-level fault injector; `true` when one
    /// was installed.
    ///
    /// # Errors
    ///
    /// Foreign refs; a poisoned deployment.
    pub fn remove_fault_injector(
        &mut self,
        component: ComponentRef,
    ) -> Result<bool, FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        Ok(system.remove_fault_injector_at(slot).is_some())
    }

    /// `(activations seen, faults injected)` of a component's engine-level
    /// injector; `None` when none is installed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn injector_counts(
        &self,
        component: ComponentRef,
    ) -> Result<Option<(u64, u64)>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.injector_counts_at(slot))
    }

    /// Supervision counters of a component:
    /// `(faults contained, supervised restarts, suppressed releases)`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn supervision_counts(
        &self,
        component: ComponentRef,
    ) -> Result<(u64, u64, u64), FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.supervision_counts_at(slot))
    }

    /// Shard, slot and supervisor slot of the supervision edge from global
    /// component `g` to `supervisor`. Supervision trees are shard-local —
    /// escalation must never block on another shard's thread — so an edge
    /// across shards is refused.
    fn supervision_edge(
        &self,
        g: usize,
        supervisor: Option<usize>,
    ) -> Result<(usize, usize, Option<usize>), FrameworkError> {
        let (shard, slot) = self.comp_slot[g];
        let Some(sup) = supervisor else {
            return Ok((shard, slot, None));
        };
        let (sup_shard, sup_slot) = self.comp_slot[sup];
        if sup_shard != shard {
            return Err(FrameworkError::Unsupported(format!(
                "supervisor edge '{}' -> '{}' crosses shards ({shard} -> {sup_shard}); \
                 supervision trees are shard-local — escalation must never block on \
                 another shard's thread",
                self.spec.components[g].name, self.spec.components[sup].name
            )));
        }
        Ok((shard, slot, Some(sup_slot)))
    }

    /// Declares (or clears, with `None`) a component's supervisor,
    /// returning the previous edge. Supervisors form a tree: when a fault
    /// escalates out of a component whose policy is
    /// [`FaultPolicy::Escalate`], the engine walks up this tree and the
    /// first supervisor with a containing policy applies it to the
    /// **failed subtree** — isolating it with counted drops or restarting
    /// it as a unit through the timer queue — while the supervisor itself
    /// and its other branches keep running. Cycle and validity checks run
    /// eagerly here and again at every transactional commit. Allowed in
    /// every mode, ULTRA-MERGE included.
    ///
    /// Supervision trees are **shard-local**: each shard's engine walks
    /// its own tree with no cross-thread coordination, so an edge between
    /// components planned onto different shards is refused — declare the
    /// tree so related components share a shard (synchronous
    /// neighbourhoods already do), or supervise shard-locally.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs, cycles, or
    /// self-supervision; [`FrameworkError::Unsupported`] for a cross-shard
    /// edge; a poisoned deployment.
    pub fn set_supervisor(
        &mut self,
        component: ComponentRef,
        supervisor: Option<ComponentRef>,
    ) -> Result<Option<ComponentRef>, FrameworkError> {
        let g = self.g_of(component)?;
        let sup = supervisor.map(|s| self.g_of(s)).transpose()?;
        self.check_poisoned()?;
        let (shard, slot, sup_slot) = self.supervision_edge(g, sup)?;
        let prev = self.shards[shard]
            .system
            .set_supervisor_at(slot, sup_slot)?;
        Ok(prev.and_then(|s| self.token_at(shard, s)))
    }

    /// A component's declared supervisor, if any.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn supervisor_of(
        &self,
        component: ComponentRef,
    ) -> Result<Option<ComponentRef>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        let shard = component.shard as usize;
        Ok(system
            .supervisor_of_at(slot)
            .and_then(|s| self.token_at(shard, s)))
    }

    /// The rendered escalation path (`origin -> … -> supervisor`) of the
    /// last fault this component contained as a supervisor; `None` until
    /// an escalation walked through it. The same path is published as a
    /// SOL-023 verdict in [`health_report`](Self::health_report).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn escalation_path(
        &self,
        component: ComponentRef,
    ) -> Result<Option<String>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.escalation_path_at(slot))
    }

    /// Opts a component into the warm-state **Checkpoint capability**: its
    /// content must implement
    /// [`Content::checkpoint`](soleil_membrane::content::Content::checkpoint),
    /// and the engine preallocates two bounded state images (healthy +
    /// boundary scratch) sized by the content's `state_bytes()` bound.
    /// Both images are charged against the component's allocation area
    /// **immediately** — monotonic substrate accounting, like build — and
    /// a refused charge tears the capability back out, leaving the
    /// deployment unchanged.
    ///
    /// After enabling, the engine captures the live state every `cadence`
    /// successful activations and at every supervised-restart boundary;
    /// the fresh instance installed by a supervised restart then restores
    /// the boundary image (or, after a poisoning panic, the last healthy
    /// cadence image) before its first release.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs, a zero cadence, or
    /// content without the capability; substrate budget exhaustion when
    /// the area cannot hold the images; a poisoned deployment.
    pub fn enable_checkpoint(
        &mut self,
        component: ComponentRef,
        cadence: u32,
    ) -> Result<(), FrameworkError> {
        let (system, slot) = self.engine_mut(component)?;
        let bytes = system.enable_checkpoint_at(slot, cadence)?;
        let area_ix = system.area_ix_at(slot);
        if let Err(e) = system.charge_area(area_ix, bytes) {
            system.disable_checkpoint_at(slot);
            return Err(e);
        }
        Ok(())
    }

    /// True when the Checkpoint capability is enabled for a component.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn checkpoint_enabled(&self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.checkpoint_enabled_at(slot))
    }

    /// `(captures, restores)` of a component's checkpoint storage; `None`
    /// when the capability is not enabled.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn checkpoint_counts(
        &self,
        component: ComponentRef,
    ) -> Result<Option<(u64, u64)>, FrameworkError> {
        let (system, slot) = self.engine(component)?;
        Ok(system.checkpoint_counts_at(slot))
    }

    /// The full runtime health report folded across every shard: contract
    /// verdicts (SOL-016…019) plus supervision findings — SOL-020 per
    /// quarantined component, SOL-021 per exhausted restart budget,
    /// SOL-022 when messages were counted-dropped at quarantine gates,
    /// SOL-023 naming the supervision path of each contained escalation.
    pub fn health_report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for s in &self.shards {
            report.merge(s.system.health_report());
        }
        report
    }

    /// Releases every periodic head of every shard `ticks` times — shard
    /// 0 on the calling thread, every other shard on its own leased worker
    /// thread — then runs cross-shard traffic to quiescence. Equivalent to
    /// [`run_ticks_instrumented`] with no warmup and a constant probe. A
    /// one-shard plan (a one-domain build, or the plan a
    /// [`crate::Deployment`] is built on) runs entirely inline and leases
    /// no thread.
    ///
    /// # Errors
    ///
    /// The first engine error from any shard aborts the run everywhere;
    /// see [`run_ticks_instrumented`] for panics and poisoning.
    ///
    /// [`run_ticks_instrumented`]: Self::run_ticks_instrumented
    pub fn run_ticks(&mut self, ticks: u64) -> Result<Vec<ShardRun>, FrameworkError> {
        self.run_ticks_instrumented(0, ticks, &|| 0)
    }

    /// The instrumented tick loop: `warmup` unmeasured ticks per shard
    /// (provisioning lazily-grown structures), a quiescence point, then
    /// `ticks` measured ticks with per-tick timing. `probe` is sampled on
    /// each shard's own thread around the measured phase (shard 0's is
    /// the caller's) — pass a per-thread allocation counter to gate the
    /// steady state at 0 allocations, as `soleil-bench` does. The probe is
    /// `'static` because the shards' worker threads outlive the call: a
    /// reference to a fn item or to a non-capturing closure qualifies.
    ///
    /// The caller drives shard 0 itself. The first run leases one
    /// persistent worker thread per other shard from a process-wide
    /// idle-thread cache; every later run reuses the same threads
    /// ([`ShardRun::thread`] stays put), and dropping the deployment parks
    /// them back in the cache for the next deployment.
    ///
    /// # Errors
    ///
    /// * The first engine error from any shard aborts the run everywhere
    ///   ([`FrameworkError::RunToCompletion`] naming that shard).
    /// * A panic on a shard's thread (in an engine or in `probe`) aborts
    ///   the run the same way — it never unwinds out of this call — and
    ///   poisons the deployment: this and every later run, and every
    ///   [`reconfigure`](Self::reconfigure), refuses with
    ///   [`FrameworkError::RunToCompletion`].
    /// * The OS refused to start a worker thread.
    pub fn run_ticks_instrumented<F>(
        &mut self,
        warmup: u64,
        ticks: u64,
        probe: &'static F,
    ) -> Result<Vec<ShardRun>, FrameworkError>
    where
        F: Fn() -> u64 + Sync + 'static,
    {
        self.dispatch(Order::Run {
            warmup,
            ticks,
            probe,
        })
    }

    /// Hands every shard but the first to its worker with `order`, drives
    /// shard 0 with the same order on the calling thread, then waits for
    /// the workers to hand their shards back; returns the runs in shard
    /// order (none for [`Order::Drain`]). The single execution path of
    /// [`run_ticks_instrumented`](Self::run_ticks_instrumented) and
    /// [`quiesce`](Self::quiesce).
    fn dispatch(&mut self, order: Order) -> Result<Vec<ShardRun>, FrameworkError> {
        self.check_poisoned()?;
        self.ctl.reset();
        if self.shards.is_empty() {
            return Ok(Vec::new());
        }
        while self.workers.len() + 1 < self.shards.len() {
            let worker = Worker::lease(self.workers.len() + 1, &self.ctl).map_err(|e| {
                FrameworkError::RunToCompletion(format!("cannot start a shard worker: {e}"))
            })?;
            self.workers.push(worker);
        }
        // Shards 1.. travel by ownership and come back, in order, into the
        // same Vec: no per-call allocation beyond the returned runs.
        let mut shards = std::mem::take(&mut self.shards);
        let mut stranded = Vec::new();
        let mut sent = 0;
        {
            let mut pending = shards.drain(1..);
            for (ix, worker) in (1..).zip(&self.workers) {
                let Some(shard) = pending.next() else { break };
                if let Err(SendError(job)) = worker.jobs.send(Job { shard, order }) {
                    let gone = FrameworkError::RunToCompletion("its worker thread is gone".into());
                    self.ctl.record_fault(ix, &job.shard.label, &gone);
                    stranded.push(job.shard);
                    stranded.extend(pending);
                    break;
                }
                sent += 1;
            }
        }
        // Every job is out before shard 0 starts, so a failed send has
        // already raised the abort flag: the caller never waits in a gate
        // for a shard that will not run.
        let first = run_job(0, &self.ctl, &mut shards[0], order, &mut self.nanos);
        let mut runs = Vec::with_capacity(match order {
            Order::Run { .. } => sent + 1,
            Order::Drain => 0,
        });
        let mut ok = stranded.is_empty();
        ok &= first.settle(0, &shards[0].label, &mut runs, &mut self.poisoned);
        for (ix, worker) in (1..).zip(&self.workers[..sent]) {
            let Ok(Done { shard, outcome }) = worker.done.recv() else {
                // Unreachable while jobs run under `catch_unwind`: only a
                // thread unwinding outside a job drops its reply sender.
                self.poisoned
                    .get_or_insert_with(|| format!("shard {ix}'s worker thread died"));
                ok = false;
                continue;
            };
            ok &= outcome.settle(ix, &shard.label, &mut runs, &mut self.poisoned);
            shards.push(shard);
        }
        shards.append(&mut stranded);
        self.shards = shards;
        // On abort every shard returns an error, but only one of them is
        // the root cause — surface that one (with its shard named), never
        // whichever sibling happened to come first in shard order.
        if !ok {
            return Err(self.ctl.aborted());
        }
        Ok(runs)
    }

    /// Refuses with the root cause once a shard worker has panicked (every
    /// run, reconfiguration and mutating control call checks this first).
    fn check_poisoned(&self) -> Result<(), FrameworkError> {
        match &self.poisoned {
            Some(cause) => Err(FrameworkError::RunToCompletion(format!(
                "deployment '{}' is poisoned: {cause}",
                self.name
            ))),
            None => Ok(()),
        }
    }

    /// Tears every shard down: stops every component and releases the
    /// wedge pins of scoped areas.
    ///
    /// # Errors
    ///
    /// Substrate errors releasing pins.
    pub fn shutdown(&mut self) -> Result<(), FrameworkError> {
        for s in &mut self.shards {
            s.system.shutdown()?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Transactional reconfiguration of the live partition
    // -----------------------------------------------------------------

    /// Per-shard structural digests (see [`System::structural_digest`]):
    /// the byte-identical-rollback witness for parallel transactions. A
    /// refused [`reconfigure`](Self::reconfigure) leaves every entry
    /// unchanged.
    pub fn structural_digests(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.system.structural_digest())
            .collect()
    }

    /// Drives every shard to a quiescence epoch: no message in flight, no
    /// message in any cross-domain ring. Between parallel runs the
    /// partition is normally already quiescent (run-to-completion drains
    /// before workers hand their shards back), so the fast path is two
    /// loads; otherwise the shards' own drain loops run — shard 0's on
    /// the caller, the others on their workers, on each shard's data,
    /// priority order preserved — until the in-flight counter proves
    /// global silence.
    fn quiesce(&mut self) -> Result<(), FrameworkError> {
        if self.ctl.in_flight.load(Ordering::SeqCst) == 0
            && self
                .shards
                .iter()
                .all(|s| s.incoming.iter().all(|c| c.rx.is_empty()))
        {
            return Ok(());
        }
        self.dispatch(Order::Drain).map(drop)
    }

    /// Runs a reconfiguration transaction against the live partition: the
    /// partition is first driven to a quiescence epoch (every ring
    /// drained, zero messages in flight — the parallel analogue of the
    /// run-to-completion guarantee single-engine reconfiguration gets for
    /// free), then the closure applies operations through the
    /// [`Reconfiguration`] handle, each step journaling what it
    /// overwrote. On `Ok`
    /// the resulting deployment is re-validated — partition invariants
    /// *and*, for architecture-carrying deployments (see
    /// [`ParallelSystem::build_with_arch`]), the full RTSJ rule set — and
    /// commits only if compliant; substrate charges for rings and
    /// re-homed state are deferred to this point so a refused transaction
    /// is charge-neutral. On a closure error or validator refusal the
    /// journal's pre-images are moved back, newest first — engines, rings,
    /// spec and architecture come back byte-identically (witnesses:
    /// [`structural_digests`](Self::structural_digests) and the
    /// architecture's `Debug` rendering), and the undo has no error path.
    /// An operation that fails midway undoes its own steps the same way
    /// and leaves the earlier ones standing.
    ///
    /// # Errors
    ///
    /// * [`FrameworkError::Unsupported`] under ULTRA-MERGE (purely
    ///   static).
    /// * [`FrameworkError::RunToCompletion`] once a shard worker panic
    ///   has poisoned the deployment.
    /// * The quiescence drain's error if a shard faults on a buffered
    ///   message.
    /// * The closure's error, after rollback.
    /// * [`FrameworkError::Rejected`] with the full validation report when
    ///   the resulting architecture violates RTSJ, after rollback.
    pub fn reconfigure<T>(
        &mut self,
        f: impl FnOnce(&mut Reconfiguration<'_, P>) -> Result<T, FrameworkError>,
    ) -> Result<T, FrameworkError> {
        let mut txn = Reconfiguration::begin(self)?;
        let outcome = f(&mut txn);
        txn.finish(outcome)
    }
}

/// A substrate charge deferred to commit time: refused transactions never
/// reach the allocator, so they are charge-neutral (the paper's memory
/// model makes immortal/scoped charges permanent — a speculative charge
/// could never be given back).
enum PendingCharge {
    /// State bytes of a re-homed component, charged to its new region.
    Area {
        shard: usize,
        area_ix: usize,
        bytes: usize,
    },
    /// The slot array of a freshly installed cross-domain ring, charged
    /// to immortal memory on the producer shard (build charges deploy-time
    /// rings the same way).
    Immortal { shard: usize, bytes: usize },
}

/// One journal entry: what one step of a reconfiguration operation
/// overwrote, owned — the only reconfiguration journal, shared by serial
/// and sharded deployments. [`Reconfiguration::rollback_to`] moves these
/// back newest first; no arm has an error path, so rollback cannot fail
/// halfway.
enum Undo<P> {
    /// A shard engine's overwritten state.
    Engine { shard: usize, image: EngineImage },
    /// The architectural model's overwritten binding row or containment
    /// lists, at their original positions.
    Arch(ArchImage),
    /// A spec binding's previous server.
    Server { gbix: usize, server: usize },
    /// A spec component's previous domain and allocation area.
    Seat {
        g: usize,
        domain: Option<usize>,
        area: usize,
    },
    /// A spec binding's previous carrier.
    Carrier { gbix: usize, carrier: Carrier },
    /// A ring consumer the transaction seated on `shard`.
    Seated { shard: usize, tag: u64 },
    /// A ring consumer the transaction retired from `shard`.
    Retired { shard: usize, ring: CrossIn<P> },
}

/// The in-flight transaction handle passed to
/// [`ParallelSystem::reconfigure`]'s closure — the one transaction type,
/// for serial and sharded deployments alike. Operations take
/// [`ComponentRef`]s (the partition owns placement — callers never see
/// shard indices) and refuse a token minted by another deployment with
/// [`FrameworkError::Content`]. They apply eagerly (later operations
/// observe earlier ones) and journal what each step overwrote. A failing
/// operation rolls its own steps back and leaves earlier ones standing;
/// a failing transaction rolls everything back, through the same undo.
pub struct Reconfiguration<'s, P: Payload> {
    sys: &'s mut ParallelSystem<P>,
    journal: Vec<Undo<P>>,
    pending_charges: Vec<PendingCharge>,
}

impl<'s, P: Payload> Reconfiguration<'s, P> {
    /// Opens a transaction: refuses static and poisoned deployments, then
    /// drives the partition to a quiescence epoch (on a one-shard plan,
    /// entirely on the caller's thread).
    fn begin(sys: &'s mut ParallelSystem<P>) -> Result<Self, FrameworkError> {
        if sys.mode == Mode::UltraMerge {
            return Err(FrameworkError::Unsupported(
                "ULTRA-MERGE systems are purely static".into(),
            ));
        }
        sys.check_poisoned()?;
        sys.quiesce()?;
        Ok(Reconfiguration {
            sys,
            journal: Vec::new(),
            pending_charges: Vec::new(),
        })
    }

    /// Closes the transaction on the closure's `outcome` — the one commit
    /// path. `Ok` commits if [`validate_commit`](Self::validate_commit)
    /// passes and every deferred substrate charge succeeds (charges
    /// already made stand: immortal/scoped accounting is monotonic,
    /// exactly like build). Any error rolls the whole journal back.
    fn finish<T>(mut self, outcome: Result<T, FrameworkError>) -> Result<T, FrameworkError> {
        let committed = outcome.and_then(|value| {
            self.validate_commit()?;
            for charge in std::mem::take(&mut self.pending_charges) {
                self.apply_charge(charge)?;
            }
            Ok(value)
        });
        if committed.is_err() {
            self.rollback_to(0);
        }
        committed
    }

    /// Runs one multi-step operation atomically: its steps journal as they
    /// succeed, and if a later step fails the journal and the deferred
    /// charges roll back to where the operation found them.
    fn atomically(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<(), FrameworkError>,
    ) -> Result<(), FrameworkError> {
        let (journal, charges) = (self.journal.len(), self.pending_charges.len());
        let outcome = op(self);
        if outcome.is_err() {
            self.rollback_to(journal);
            self.pending_charges.truncate(charges);
        }
        outcome
    }

    /// Journals what one engine step on `shard` overwrote.
    fn journal_engine(&mut self, shard: usize, image: EngineImage) {
        self.journal.push(Undo::Engine { shard, image });
    }

    /// Points spec binding `gbix` at global component `server`, journaled.
    fn set_server(&mut self, gbix: usize, server: usize) {
        let server = std::mem::replace(&mut self.sys.spec.bindings[gbix].server, server);
        self.journal.push(Undo::Server { gbix, server });
    }

    /// Mirrors a rebind into the architectural model (when the deployment
    /// carries one): the client port's binding row is pointed, in place,
    /// at the new server's same-named interface.
    fn arch_rebind(
        &mut self,
        client: usize,
        port: &str,
        new_server: usize,
    ) -> Result<(), FrameworkError> {
        let ParallelSystem {
            arch,
            mirrored,
            spec,
            ..
        } = &mut *self.sys;
        if !*mirrored {
            return Ok(());
        }
        let id = |g: usize| {
            arch.id_of(&spec.components[g].name)
                .map_err(|e| FrameworkError::Content(e.to_string()))
        };
        let (client_id, new_server_id) = (id(client)?, id(new_server)?);
        let image = arch
            .rebind(client_id, port, new_server_id)
            .map_err(|e| FrameworkError::Binding(e.to_string()))?;
        self.journal.push(Undo::Arch(image));
        Ok(())
    }

    /// Stops a component (no-op if already stopped), wherever it was
    /// sharded.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn stop(&mut self, component: ComponentRef) -> Result<(), FrameworkError> {
        self.set_started(component, false)
    }

    /// (Re)starts a component (no-op if already started).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn start(&mut self, component: ComponentRef) -> Result<(), FrameworkError> {
        self.set_started(component, true)
    }

    fn set_started(
        &mut self,
        component: ComponentRef,
        started: bool,
    ) -> Result<(), FrameworkError> {
        let (shard, slot) = self.sys.locate(component)?;
        let system = &mut self.sys.shards[shard].system;
        if system.node_started(slot) != started {
            if started {
                system.start_at(slot)?;
            } else {
                system.stop_at(slot)?;
            }
            let image = EngineImage::Lifecycle {
                slot,
                started: !started,
            };
            self.journal_engine(shard, image);
        }
        Ok(())
    }

    /// Rebinds `client`'s **synchronous** `port` to `new_server`, which
    /// must provide a server interface of the same name as the old target,
    /// on the same shard. The architectural model is updated in the same
    /// step, so commit-time validation sees the rebound topology (an NHRT
    /// client rebound onto heap-held state, for example, is refused by
    /// SOL-006 and rolled back). Synchronous invocations are nested calls
    /// on the caller's thread — they can never cross the domain
    /// partition, so a rebind whose new server lives on another shard is
    /// refused (use [`rebind_async`](Self::rebind_async) for buffered
    /// bindings, which ride cross-domain rings).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] for a cross-shard target,
    /// [`FrameworkError::Binding`] for unbound/asynchronous ports, missing
    /// interfaces or signature mismatches, [`FrameworkError::Content`] for
    /// foreign refs.
    pub fn rebind(
        &mut self,
        client: ComponentRef,
        port: &str,
        new_server: ComponentRef,
    ) -> Result<(), FrameworkError> {
        let client = self.sys.g_of(client)?;
        let new_server = self.sys.g_of(new_server)?;
        let (cs, client_slot) = self.sys.comp_slot[client];
        let (ss, server_slot) = self.sys.comp_slot[new_server];
        if cs != ss {
            return Err(FrameworkError::Unsupported(format!(
                "synchronous rebind cannot cross the domain partition: '{}' runs on \
                 shard {cs} ('{}') and '{}' on shard {ss} ('{}'); nested \
                 invocations stay on the caller's thread — use rebind_async for buffered \
                 bindings",
                self.sys.spec.components[client].name,
                self.sys.shards[cs].label,
                self.sys.spec.components[new_server].name,
                self.sys.shards[ss].label
            )));
        }
        let found = self
            .sys
            .spec
            .bindings
            .iter()
            .position(|b| b.client == client && b.client_port == port);
        let gbix = match found {
            Some(gbix) if matches!(self.sys.spec.bindings[gbix].protocol, ProtocolSpec::Sync) => {
                gbix
            }
            Some(_) => {
                return Err(FrameworkError::Binding(
                    "cannot rebind asynchronous bindings at runtime".into(),
                ))
            }
            None => {
                return Err(FrameworkError::Binding(format!(
                    "client port '{port}' is unbound"
                )))
            }
        };
        self.atomically(|txn| {
            // Architecture first: it runs the stricter checks.
            txn.arch_rebind(client, port, new_server)?;
            let image = txn.sys.shards[cs]
                .system
                .rebind_at(client_slot, port, server_slot)?;
            txn.journal_engine(cs, EngineImage::Binding(image));
            txn.set_server(gbix, new_server);
            Ok(())
        })
    }

    /// Rebinds `client`'s **asynchronous** `port` to `new_server`,
    /// anywhere in the partition — the cross-ring rewiring operation. The
    /// new server must provide a server interface of the same name as the
    /// old target. A fresh SPSC ring (the old binding's capacity) is
    /// installed: the client's compiled slot is repointed at its producer
    /// endpoint with `is_cross` set — exactly the shape deploy-time rings
    /// get — and the consumer endpoint is seated in the new server's
    /// shard drain set, priority-sorted. If the old carrier was itself a
    /// ring, its consumer endpoint is retired (the quiescence epoch
    /// guarantees it is empty). The ring's immortal charge is deferred to
    /// commit.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound or synchronous ports or a
    /// missing server interface, [`FrameworkError::Content`] for foreign
    /// refs.
    pub fn rebind_async(
        &mut self,
        client: ComponentRef,
        port: &str,
        new_server: ComponentRef,
    ) -> Result<(), FrameworkError> {
        let gclient = self.sys.g_of(client)?;
        let gserver = self.sys.g_of(new_server)?;
        let found = self
            .sys
            .spec
            .bindings
            .iter()
            .enumerate()
            .find_map(|(bix, b)| match b.protocol {
                ProtocolSpec::Async { capacity, .. }
                    if b.client == gclient && b.client_port == port =>
                {
                    Some((bix, capacity))
                }
                _ => None,
            });
        let Some((gbix, capacity)) = found else {
            return Err(FrameworkError::Binding(format!(
                "no asynchronous binding on client port '{port}' of '{}'",
                self.sys.spec.components[gclient].name
            )));
        };
        let (producer_shard, client_slot) = self.sys.comp_slot[gclient];
        let (consumer_shard, server_slot) = self.sys.comp_slot[gserver];

        // The new consumer must provide the same-named server port;
        // resolve it before touching anything.
        let server_port = &self.sys.spec.bindings[gbix].server_port;
        let port_ix = self.sys.shards[consumer_shard]
            .system
            .port_ix_of(server_slot, server_port)?;

        self.atomically(|txn| {
            // Architecture first (stricter checks), then the ring + engine.
            txn.arch_rebind(gclient, port, gserver)?;
            let (tx, rx) = spsc_ring::<P>(capacity)?;
            let image = txn.sys.shards[producer_shard]
                .system
                .repoint_async_to_cross(client_slot, port, tx)?;
            let cross_ix = image.cross_ix.unwrap_or(usize::MAX);
            txn.journal_engine(producer_shard, EngineImage::Binding(image));

            // Retire the old consumer endpoint if the old carrier was a
            // ring. Quiescence guarantees it is empty; the old producer
            // entry stays tombstoned in its shard's `cross_out` (nothing
            // routes to it), so LIFO truncation keeps ring indices valid.
            let old_carrier = txn.sys.carriers[gbix];
            if let Carrier::Ring {
                consumer_shard: old_cs,
                tag,
                ..
            } = old_carrier
            {
                let incoming = &mut txn.sys.shards[old_cs].incoming;
                let pos = incoming.iter().position(|c| c.tag == tag);
                let Some(pos) = pos.filter(|&pos| incoming[pos].rx.is_empty()) else {
                    return Err(FrameworkError::Content(format!(
                        "ring {tag} of client port '{port}' is not an empty consumer \
                         of shard {old_cs}; refusing to retire it"
                    )));
                };
                let ring = incoming.remove(pos);
                txn.journal.push(Undo::Retired {
                    shard: old_cs,
                    ring,
                });
            }

            // Seat the new consumer endpoint (self-rings — producer and
            // consumer on one shard — are allowed: the drain pass serves
            // them like any other ring).
            let tag = txn.sys.next_tag;
            txn.sys.next_tag += 1;
            let shard = &mut txn.sys.shards[consumer_shard];
            shard.incoming.push(CrossIn {
                rx,
                slot: server_slot,
                port_ix,
                tag,
            });
            resort_incoming(shard);
            txn.journal.push(Undo::Seated {
                shard: consumer_shard,
                tag,
            });

            let carrier = std::mem::replace(
                &mut txn.sys.carriers[gbix],
                Carrier::Ring {
                    producer_shard,
                    cross_ix,
                    consumer_shard,
                    tag,
                },
            );
            txn.journal.push(Undo::Carrier { gbix, carrier });
            txn.set_server(gbix, gserver);
            let slot_bytes = std::mem::size_of::<std::sync::Mutex<Option<P>>>().max(1);
            txn.pending_charges.push(PendingCharge::Immortal {
                shard: producer_shard,
                bytes: capacity.next_power_of_two() * slot_bytes,
            });
            Ok(())
        })
    }

    /// Re-homes a component onto another ThreadDomain **of its own
    /// shard** (the component must be a *direct* member of its current
    /// domain, if any). The engine adopts the new domain's context and
    /// priority; when the deployment carries an architecture and the
    /// domain edge moves the component under a different memory area, the
    /// allocation region migrates with it — a checkpoint/handoff
    /// re-homing: the slot's scope chain and every dispatch plan touching
    /// it are recompiled against the new region through the same
    /// constructors build uses, and the migrated state's charge is
    /// deferred to commit, so a refused transaction stays charge-neutral.
    /// Commit-time validation re-checks SOL-001/002/005/006 against the
    /// move.
    ///
    /// The domain partition itself is static: a reassignment onto a
    /// domain materialized on a *different* shard would migrate the
    /// component across OS threads and is refused, as is a re-homing onto
    /// a memory area not materialized on the component's shard.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for unknown domains or foreign refs,
    /// [`FrameworkError::Binding`] for indirect domain membership,
    /// [`FrameworkError::Unsupported`] for cross-shard moves or a move
    /// that would leave the component outside every memory area.
    pub fn reassign_domain(
        &mut self,
        component: ComponentRef,
        domain: &str,
    ) -> Result<(), FrameworkError> {
        let g = self.sys.g_of(component)?;
        let sys = &*self.sys;
        let (shard, slot) = sys.comp_slot[g];
        let g_domain = sys.spec.domains.iter().position(|d| d.name == domain);
        let local = sys.shards[shard].system.domain_ix_by_name(domain);
        let (Some(g_domain), Some(new_domain_ix)) = (g_domain, local) else {
            return Err(match sys.shard_of_domain(domain) {
                Some(owner) => FrameworkError::Unsupported(format!(
                    "domain '{domain}' is materialized on shard {owner} ('{}'); \
                     '{}' runs on shard {shard} ('{}') and components \
                     never migrate across the static domain partition",
                    sys.shards[owner].label, sys.spec.components[g].name, sys.shards[shard].label
                )),
                None => FrameworkError::Content(format!("unknown thread domain '{domain}'")),
            });
        };

        self.atomically(|txn| {
            let component = txn.sys.spec.components[g].name.clone();
            let seat = &txn.sys.spec.components[g];
            let (domain_was, area_was) = (seat.domain, seat.area);
            txn.journal.push(Undo::Seat {
                g,
                domain: domain_was,
                area: area_was,
            });
            // The architectural edge move (mirrored deployments only —
            // `build` without an architecture reconfigures the engine
            // alone) and the area it leaves the component in.
            if let Some(area_name) = txn.arch_move_to_domain(&component, domain)? {
                let sys = &mut *txn.sys;
                let system = &mut sys.shards[shard].system;
                let new_g = sys.spec.areas.iter().position(|a| a.name == area_name);
                let (Some(new_g), Some(new_ix)) = (new_g, system.area_ix_by_name(&area_name))
                else {
                    return Err(FrameworkError::Unsupported(format!(
                        "re-homing '{component}' onto memory area '{area_name}' is \
                         impossible: the area is not materialized on its shard ('{}')",
                        sys.shards[shard].label
                    )));
                };
                let image = system.rehome_area_at(slot, new_ix)?;
                let bytes = system.state_bytes_at(slot);
                sys.spec.components[g].area = new_g;
                txn.journal_engine(shard, EngineImage::Area(image));
                txn.pending_charges.push(PendingCharge::Area {
                    shard,
                    area_ix: new_ix,
                    bytes,
                });
            }

            let sys = &mut *txn.sys;
            let system = &mut sys.shards[shard].system;
            let domain_ix = system.node_domain_ix(slot);
            system.set_domain_at(slot, Some(new_domain_ix));
            sys.spec.components[g].domain = Some(g_domain);
            // The slot's priority changed with its domain: re-sort the
            // drain order its shard serves rings in.
            resort_incoming(&mut sys.shards[shard]);
            txn.journal_engine(shard, EngineImage::Domain { slot, domain_ix });
            Ok(())
        })
    }

    /// The architectural half of [`reassign_domain`](Self::reassign_domain)
    /// on a mirrored deployment: moves `component`'s direct containment
    /// edge onto `domain`, journaled. Returns the memory area's name when
    /// the move put the component under a different one.
    fn arch_move_to_domain(
        &mut self,
        component: &str,
        domain: &str,
    ) -> Result<Option<String>, FrameworkError> {
        if !self.sys.mirrored {
            return Ok(None);
        }
        let arch = &mut self.sys.arch;
        let content = |e: soleil_core::ModelError| FrameworkError::Content(e.to_string());
        let comp = arch.id_of(component).map_err(content)?;
        let new_domain = arch.id_of(domain).map_err(content)?;
        if !matches!(
            arch.component(new_domain).map(|c| &c.kind),
            Ok(ComponentKind::ThreadDomain(_))
        ) {
            return Err(FrameworkError::Content(format!(
                "'{domain}' is not a ThreadDomain"
            )));
        }
        let old_domain = arch.thread_domain_of(comp).map(|(id, _)| id);
        let old_area = arch.memory_area_of(comp).map(|(id, _)| id);
        let image = arch
            .move_child(comp, old_domain, new_domain)
            .map_err(|e| FrameworkError::Binding(e.to_string()))?;
        self.journal.push(Undo::Arch(image));
        let arch = &self.sys.arch;
        let new_area = arch.memory_area_of(comp).map(|(id, _)| id);
        if new_area == old_area {
            return Ok(None);
        }
        // The domain edge re-homed the allocation region: migrate it,
        // checkpoint/handoff style, instead of refusing.
        match new_area.and_then(|id| arch.component(id).ok()) {
            Some(area) => Ok(Some(area.name.clone())),
            None => Err(FrameworkError::Unsupported(format!(
                "reassigning '{component}' to domain '{domain}' would move it outside \
                 every memory area; components keep an allocation region"
            ))),
        }
    }

    /// Installs a
    /// [`JitterMonitor`](soleil_membrane::interceptors::JitterMonitor) in
    /// a live component's membrane (SOLEIL only), wherever it was
    /// sharded; journaled, so rollback removes it again. A no-op when one
    /// is already installed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes,
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn install_jitter_monitor(
        &mut self,
        component: ComponentRef,
    ) -> Result<(), FrameworkError> {
        let (shard, slot) = self.sys.locate(component)?;
        if let Some(index) = self.sys.shards[shard].system.enable_jitter_at(slot)? {
            let image = EngineImage::Step {
                slot,
                index,
                step: None,
            };
            self.journal_engine(shard, image);
        }
        Ok(())
    }

    /// Removes a jitter monitor from a live membrane (SOLEIL only); true
    /// when one was removed. Rollback splices the exact step — recorded
    /// observations included — back at its old chain position, so a
    /// refused transaction restores the compiled plan byte-identically.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Unsupported`] in the merged modes,
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn remove_jitter_monitor(
        &mut self,
        component: ComponentRef,
    ) -> Result<bool, FrameworkError> {
        let (shard, slot) = self.sys.locate(component)?;
        let Some((index, step)) = self.sys.shards[shard]
            .system
            .take_interceptor_at(slot, "jitter-monitor")?
        else {
            return Ok(false);
        };
        let step = Some(step);
        self.journal_engine(shard, EngineImage::Step { slot, index, step });
        Ok(true)
    }

    /// Attaches (or replaces) a declarative timing contract on a live
    /// component; rollback restores the previous monitor slot, recorded
    /// histogram included. Works in any reconfigurable mode, since
    /// contracts are engine-level observability rather than membrane
    /// machinery.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn attach_contract(
        &mut self,
        component: ComponentRef,
        contract: TimingContract,
    ) -> Result<(), FrameworkError> {
        let (shard, slot) = self.sys.locate(component)?;
        let previous = self.sys.shards[shard]
            .system
            .attach_contract_at(slot, contract)?;
        self.journal_engine(shard, EngineImage::Monitor { slot, previous });
        Ok(())
    }

    /// Detaches a component's timing contract; `true` when one was
    /// attached. Rollback restores the exact monitor slot, recorded
    /// histogram included.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn detach_contract(&mut self, component: ComponentRef) -> Result<bool, FrameworkError> {
        let (shard, slot) = self.sys.locate(component)?;
        let Some(previous) = self.sys.shards[shard].system.detach_contract_at(slot) else {
            return Ok(false);
        };
        let previous = Some(previous);
        self.journal_engine(shard, EngineImage::Monitor { slot, previous });
        Ok(true)
    }

    /// Declares (or changes) a component's [`FaultPolicy`]; rollback
    /// restores the pre-transaction policy (and cancels any restart timer
    /// the new policy armed). Like contracts, this works in any
    /// reconfigurable mode — the policy is engine-level supervision, not
    /// membrane structure.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs.
    pub fn set_fault_policy(
        &mut self,
        component: ComponentRef,
        policy: FaultPolicy,
    ) -> Result<(), FrameworkError> {
        let (shard, slot) = self.sys.locate(component)?;
        let previous = self.sys.shards[shard]
            .system
            .set_fault_policy_at(slot, policy)?;
        self.journal_engine(shard, EngineImage::Policy { slot, previous });
        Ok(())
    }

    /// Declares (or clears) a component's supervisor edge, journaled;
    /// rollback restores the pre-transaction edge. Cycle and validity
    /// checks run eagerly here, supervision trees are shard-local (see
    /// [`ParallelSystem::set_supervisor`]: a cross-shard edge is refused
    /// eagerly), and every shard's tree is re-validated at commit time, so
    /// a committed transaction never leaves a broken tree behind.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] for foreign refs, cycles, or
    /// self-supervision; [`FrameworkError::Unsupported`] for a cross-shard
    /// edge.
    pub fn set_supervisor(
        &mut self,
        component: ComponentRef,
        supervisor: Option<ComponentRef>,
    ) -> Result<(), FrameworkError> {
        let g = self.sys.g_of(component)?;
        let sup = supervisor.map(|s| self.sys.g_of(s)).transpose()?;
        let (shard, slot, sup_slot) = self.sys.supervision_edge(g, sup)?;
        let previous = self.sys.shards[shard]
            .system
            .set_supervisor_at(slot, sup_slot)?;
        self.journal_engine(shard, EngineImage::Supervisor { slot, previous });
        Ok(())
    }

    /// Commit-time validation: the plan's own invariants, the partition
    /// invariants (synchronous bindings co-sharded; every allocation
    /// region materialized on its component's shard), every shard's
    /// supervision tree, and — for mirrored deployments — the full RTSJ
    /// rule set. Compliance is decided by [`validate`] alone; the SOL-015
    /// coupling advisory is computed only on refusal, to explain it.
    fn validate_commit(&self) -> Result<(), FrameworkError> {
        let sys = &*self.sys;
        sys.spec.check().map_err(FrameworkError::Content)?;
        for (bix, b) in sys.spec.bindings.iter().enumerate() {
            if matches!(b.protocol, ProtocolSpec::Sync)
                && sys.comp_slot[b.client].0 != sys.comp_slot[b.server].0
            {
                return Err(FrameworkError::Content(format!(
                    "partition invariant broken: synchronous binding {bix} \
                     ({}→{}) crosses shards",
                    sys.spec.components[b.client].name, sys.spec.components[b.server].name
                )));
            }
        }
        for (g, c) in sys.spec.components.iter().enumerate() {
            let (shard, _) = sys.comp_slot[g];
            let area = &sys.spec.areas[c.area].name;
            if sys.shards[shard].system.area_ix_by_name(area).is_none() {
                return Err(FrameworkError::Content(format!(
                    "partition invariant broken: '{}' charges area '{area}' which is not \
                     materialized on its shard {shard}",
                    c.name
                )));
            }
        }
        // Every shard's supervision tree stays valid and acyclic. Eager
        // checks in `set_supervisor` make a failure here a framework bug,
        // but commits re-assert the invariant like the partition rules.
        for s in &sys.shards {
            s.system.check_supervision()?;
        }
        if sys.mirrored {
            let mut report = validate(&sys.arch);
            if !report.is_compliant() {
                report.merge(parallel_coupling(&sys.arch));
                return Err(FrameworkError::Rejected(report));
            }
        }
        Ok(())
    }

    /// Makes one deferred substrate charge (commit path only).
    fn apply_charge(&mut self, charge: PendingCharge) -> Result<(), FrameworkError> {
        match charge {
            PendingCharge::Area {
                shard,
                area_ix,
                bytes,
            } => self.sys.shards[shard].system.charge_area(area_ix, bytes),
            PendingCharge::Immortal { shard, bytes } => {
                self.sys.shards[shard].system.charge_immortal(bytes)
            }
        }
    }

    /// Rolls the journal back to `len` entries, newest first — the one
    /// undo, for a failed operation (back to where it started) and a
    /// refused transaction (back to zero). Every entry is a move or an
    /// infallible setter. Drain order is a function of ring tags and
    /// consumer priorities, so re-sorting the touched shards after their
    /// rings and priorities are back restores it exactly.
    fn rollback_to(&mut self, len: usize) {
        let sys = &mut *self.sys;
        let popped = self.journal.len() > len;
        while self.journal.len() > len {
            let Some(undo) = self.journal.pop() else {
                break;
            };
            match undo {
                Undo::Engine { shard, image } => sys.shards[shard].system.restore(image),
                Undo::Arch(image) => sys.arch.restore(image),
                Undo::Server { gbix, server } => sys.spec.bindings[gbix].server = server,
                Undo::Seat { g, domain, area } => {
                    let seat = &mut sys.spec.components[g];
                    (seat.domain, seat.area) = (domain, area);
                }
                Undo::Carrier { gbix, carrier } => sys.carriers[gbix] = carrier,
                Undo::Seated { shard, tag } => {
                    sys.shards[shard].incoming.retain(|c| c.tag != tag);
                }
                Undo::Retired { shard, ring } => sys.shards[shard].incoming.push(ring),
            }
        }
        if popped {
            sys.shards.iter_mut().for_each(resort_incoming);
        }
    }
}

// ---------------------------------------------------------------------------
// The per-shard worker
// ---------------------------------------------------------------------------

/// The run control block: one per deployment, shared with its workers and
/// reset by [`ParallelSystem::dispatch`] before every run (the previous
/// run's workers have all handed their shards back by then).
struct Ctl {
    n: usize,
    abort: AtomicBool,
    warmup_done: AtomicUsize,
    measure_gate: AtomicUsize,
    ticks_done: AtomicUsize,
    in_flight: Arc<AtomicU64>,
    /// First root-cause fault of the run: `(shard index, shard label,
    /// rendered engine error)`. Written once, by whichever worker faults
    /// first; every sibling's abort error — and the run's final error —
    /// names this instead of a generic "a sibling shard aborted".
    fault: Mutex<Option<(usize, String, String)>>,
}

impl Ctl {
    fn new(n: usize, in_flight: Arc<AtomicU64>) -> Ctl {
        Ctl {
            n,
            abort: AtomicBool::new(false),
            warmup_done: AtomicUsize::new(0),
            measure_gate: AtomicUsize::new(0),
            ticks_done: AtomicUsize::new(0),
            in_flight,
            fault: Mutex::new(None),
        }
    }

    /// Clears the previous run's rendezvous counters, abort flag and root
    /// cause (the in-flight counter is deployment-wide and stays).
    fn reset(&self) {
        self.abort.store(false, Ordering::SeqCst);
        self.warmup_done.store(0, Ordering::SeqCst);
        self.measure_gate.store(0, Ordering::SeqCst);
        self.ticks_done.store(0, Ordering::SeqCst);
        *self.fault.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Records the run's root cause (first writer wins) and raises the
    /// abort flag that stops every sibling at its next check.
    fn record_fault(&self, shard_ix: usize, label: &str, error: &FrameworkError) {
        let mut slot = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some((shard_ix, label.to_string(), error.to_string()));
        }
        drop(slot);
        self.abort.store(true, Ordering::SeqCst);
    }

    /// The abort error siblings observe: names the originating shard and
    /// its first root-cause error, not just "a sibling shard".
    fn aborted(&self) -> FrameworkError {
        let slot = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some((ix, label, cause)) => FrameworkError::RunToCompletion(format!(
                "parallel run aborted by shard {ix} ('{label}'): {cause}"
            )),
            None => {
                FrameworkError::RunToCompletion("parallel run aborted by a sibling shard".into())
            }
        }
    }
}

/// What a worker does with the shard it is handed.
#[derive(Clone, Copy)]
enum Order {
    /// [`shard_worker`]: warmup, measured ticks, quiescence.
    Run {
        warmup: u64,
        ticks: u64,
        probe: &'static (dyn Fn() -> u64 + Sync),
    },
    /// Drain the shard's rings until global quiescence.
    Drain,
}

struct Job<P: Payload> {
    shard: Shard<P>,
    order: Order,
}

/// One shard's outcome of one job: its run (none for [`Order::Drain`])
/// or error, plus the panic message if the job panicked.
struct Outcome {
    out: Result<Option<ShardRun>, FrameworkError>,
    panic: Option<String>,
}

impl Outcome {
    /// Folds shard `ix`'s outcome into the call's: its run into `runs`, a
    /// panic into `poisoned` (the first cause wins). Returns false when
    /// the shard failed.
    fn settle(
        self,
        ix: usize,
        label: &str,
        runs: &mut Vec<ShardRun>,
        poisoned: &mut Option<String>,
    ) -> bool {
        if let Some(detail) = self.panic {
            poisoned.get_or_insert_with(|| format!("shard {ix} ('{label}') panicked: {detail}"));
        }
        match self.out {
            Ok(Some(run)) => runs.push(run),
            Ok(None) => {}
            Err(_) => return false,
        }
        true
    }
}

/// A worker's reply: the shard, always handed back, and its outcome.
struct Done<P: Payload> {
    shard: Shard<P>,
    outcome: Outcome,
}

/// The deployment's end of one leased worker thread: a bounded channel
/// each way, one shard in flight at a time.
struct Worker<P: Payload> {
    jobs: SyncSender<Job<P>>,
    done: Receiver<Done<P>>,
}

impl<P: Payload> Worker<P> {
    /// Leases a thread to serve shard `ix` until the deployment drops.
    fn lease(ix: usize, ctl: &Arc<Ctl>) -> std::io::Result<Worker<P>> {
        let (jobs, job_rx) = sync_channel(1);
        let (done_tx, done) = sync_channel(1);
        let ctl = Arc::clone(ctl);
        lease::lease(Box::new(move |idle| serve(ix, &ctl, job_rx, done_tx, idle)))?;
        Ok(Worker { jobs, done })
    }
}

/// Runs one job on shard `ix` — on its worker, or on the caller's thread
/// for shard 0 — under `catch_unwind`, so a panic becomes the shard's
/// error and the shard always goes back to the caller; any error is
/// recorded as the run's fault. `nanos` is the running thread's sample
/// buffer, reused across runs.
fn run_job<P: Payload>(
    ix: usize,
    ctl: &Ctl,
    shard: &mut Shard<P>,
    order: Order,
    nanos: &mut Vec<u64>,
) -> Outcome {
    let caught = catch_unwind(AssertUnwindSafe(|| match order {
        Order::Run {
            warmup,
            ticks,
            probe,
        } => shard_worker(shard, ctl, warmup, ticks, probe, nanos).map(Some),
        Order::Drain => {
            ctl.warmup_done.fetch_add(1, Ordering::SeqCst);
            let mut ds = DrainStats::default();
            drain_until_quiescent(shard, ctl, &ctl.warmup_done, &mut ds).map(|()| None)
        }
    }));
    let (out, panic) = match caught {
        Ok(out) => (out, None),
        Err(payload) => {
            let detail = panic_detail(payload);
            let e = FrameworkError::RunToCompletion(format!("shard worker panicked: {detail}"));
            (Err(e), Some(detail))
        }
    };
    if let Err(e) = &out {
        ctl.record_fault(ix, &shard.label, e);
    }
    Outcome { out, panic }
}

/// A leased thread's loop: serve shard `ix`'s jobs until the deployment
/// drops.
fn serve<P: Payload>(
    ix: usize,
    ctl: &Ctl,
    jobs: Receiver<Job<P>>,
    done: SyncSender<Done<P>>,
    idle: Idle,
) {
    let mut nanos = Vec::new();
    while let Ok(Job { mut shard, order }) = jobs.recv() {
        let outcome = run_job(ix, ctl, &mut shard, order, &mut nanos);
        if done.send(Done { shard, outcome }).is_err() {
            break;
        }
    }
    // The deployment dropped: park the thread before closing the reply
    // channel, which the deployment's `drop` waits on.
    drop(idle);
    drop(done);
}

impl<P: Payload> Drop for ParallelSystem<P> {
    /// Closes every worker's job channel and waits until each has parked
    /// its thread back in the idle cache.
    fn drop(&mut self) {
        let (jobs, dones): (Vec<_>, Vec<_>) =
            self.workers.drain(..).map(|w| (w.jobs, w.done)).unzip();
        drop(jobs);
        for done in dones {
            // No reply is pending between runs: this returns (with an
            // error) once the worker has parked and dropped its sender.
            let _ = done.recv();
        }
    }
}

/// One pass over the shard's incoming rings (consumer priority order):
/// snapshots each ring's published head **once**, pops the visible run of
/// messages against the cached value (amortizing the `Acquire` load over
/// the whole batch) and runs every activation to completion. The in-flight
/// quiescence counter is decremented batch-wise, after the batch's
/// activations finish — never earlier than the per-message protocol, so it
/// still never under-reports. Returns true when at least one message was
/// processed.
fn drain_pass<P: Payload>(
    shard: &mut Shard<P>,
    ctl: &Ctl,
    ds: &mut DrainStats,
) -> Result<bool, FrameworkError> {
    let mut moved = false;
    ds.passes += 1;
    let Shard {
        system, incoming, ..
    } = shard;
    for cin in incoming.iter_mut() {
        let CrossIn {
            rx, slot, port_ix, ..
        } = cin;
        let mut popped: u64 = 0;
        let mut result = Ok(());
        for msg in rx.drain_batch() {
            popped += 1;
            if let Err(e) = system.inject_at(*slot, *port_ix, msg) {
                result = Err(e);
                break;
            }
        }
        if popped > 0 {
            // Every popped message's activation (and any cross pushes it
            // made) is complete — or the run is aborting on `result`:
            // only now stop counting the batch as in flight.
            ctl.in_flight.fetch_sub(popped, Ordering::SeqCst);
            moved = true;
            ds.messages += popped;
            ds.max_batch = ds.max_batch.max(popped);
        }
        result?;
    }
    Ok(moved)
}

/// Drains until global quiescence: every shard past `phase_done`, zero
/// messages in flight, own rings empty. The in-flight counter is
/// incremented before any push, so observing `done == n ∧ in_flight == 0`
/// proves no message exists or can be created.
fn drain_until_quiescent<P: Payload>(
    shard: &mut Shard<P>,
    ctl: &Ctl,
    phase_done: &AtomicUsize,
    ds: &mut DrainStats,
) -> Result<(), FrameworkError> {
    loop {
        if ctl.abort.load(Ordering::SeqCst) {
            return Err(ctl.aborted());
        }
        let moved = drain_pass(shard, ctl, ds)?;
        if !moved
            && phase_done.load(Ordering::SeqCst) == ctl.n
            && ctl.in_flight.load(Ordering::SeqCst) == 0
            && shard.incoming.iter().all(|c| c.rx.is_empty())
        {
            return Ok(());
        }
        if !moved {
            std::thread::yield_now();
        }
    }
}

/// An abort-aware rendezvous (all shards arrive before any proceeds).
fn gate(counter: &AtomicUsize, ctl: &Ctl) -> Result<(), FrameworkError> {
    counter.fetch_add(1, Ordering::SeqCst);
    while counter.load(Ordering::SeqCst) < ctl.n {
        if ctl.abort.load(Ordering::SeqCst) {
            return Err(ctl.aborted());
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// One shard's run on its thread (a worker's, or the caller's for shard
/// 0). `nanos` is that thread's sample buffer, reused across runs.
fn shard_worker<P: Payload>(
    shard: &mut Shard<P>,
    ctl: &Ctl,
    warmup: u64,
    ticks: u64,
    probe: &(dyn Fn() -> u64 + Sync),
    nanos: &mut Vec<u64>,
) -> Result<ShardRun, FrameworkError> {
    let thread = std::thread::current().id();
    let mut ds = DrainStats::default();

    // Phase 1: warmup (provision pending heaps, ring laps, scope stacks).
    for _ in 0..warmup {
        if ctl.abort.load(Ordering::SeqCst) {
            return Err(ctl.aborted());
        }
        shard.system.run_tick()?;
        drain_pass(shard, ctl, &mut ds)?;
    }
    ctl.warmup_done.fetch_add(1, Ordering::SeqCst);
    drain_until_quiescent(shard, ctl, &ctl.warmup_done, &mut ds)?;
    gate(&ctl.measure_gate, ctl)?;

    // Phase 2: measured ticks. The sample buffer exists before the probe
    // baseline is read, so the measured region itself allocates nothing.
    nanos.clear();
    nanos.reserve(ticks as usize);
    let substrate_before = shard.system.memory().alloc_count();
    let probe_before = probe();
    for _ in 0..ticks {
        if ctl.abort.load(Ordering::SeqCst) {
            return Err(ctl.aborted());
        }
        let t0 = Instant::now();
        shard.system.run_tick()?;
        drain_pass(shard, ctl, &mut ds)?;
        nanos.push(t0.elapsed().as_nanos() as u64);
    }
    ctl.ticks_done.fetch_add(1, Ordering::SeqCst);
    drain_until_quiescent(shard, ctl, &ctl.ticks_done, &mut ds)?;
    let probe_delta = probe() - probe_before;
    let substrate_allocs = shard.system.memory().alloc_count() - substrate_before;

    nanos.sort_unstable();
    let median_tick_ns = nanos.get(nanos.len() / 2).copied().unwrap_or(0);
    let total_ns = nanos.iter().sum();
    Ok(ShardRun {
        label: shard.label.clone(),
        thread,
        ticks,
        median_tick_ns,
        total_ns,
        probe_delta,
        substrate_allocs,
        drain_passes: ds.passes,
        max_drain_batch: ds.max_batch,
        drained_messages: ds.messages,
        stats: shard.system.stats(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::spec::{Activation, BufferPlacement};
    use rtsj::memory::MemoryKind;
    use rtsj::thread::ThreadKind;
    use rtsj::time::RelativeTime;
    use soleil_membrane::content::{Content, InvokeResult, Ports};
    use soleil_patterns::PatternKind;
    use std::sync::Mutex;

    /// Records, per consumer, how many messages arrived and on which OS
    /// thread they were processed.
    #[derive(Debug, Clone, Default)]
    struct ThreadProbe {
        seen: Arc<Mutex<HashMap<String, (u64, ThreadId)>>>,
    }

    impl ThreadProbe {
        fn count(&self, name: &str) -> u64 {
            self.seen
                .lock()
                .unwrap()
                .get(name)
                .map(|(n, _)| *n)
                .unwrap_or(0)
        }

        fn thread_of(&self, name: &str) -> Option<ThreadId> {
            self.seen.lock().unwrap().get(name).map(|(_, t)| *t)
        }
    }

    #[derive(Debug)]
    struct Fan {
        ports: Vec<&'static str>,
    }
    impl Content<u64> for Fan {
        fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            *msg += 1;
            for port in &self.ports {
                out.send(port, *msg)?;
            }
            Ok(())
        }
    }

    #[derive(Debug)]
    struct Recorder {
        name: String,
        probe: ThreadProbe,
    }
    impl Content<u64> for Recorder {
        fn on_invoke(
            &mut self,
            _p: &str,
            _msg: &mut u64,
            _out: &mut dyn Ports<u64>,
        ) -> InvokeResult {
            let mut seen = self.probe.seen.lock().unwrap();
            let entry = seen
                .entry(self.name.clone())
                .or_insert((0, std::thread::current().id()));
            entry.0 += 1;
            entry.1 = std::thread::current().id();
            Ok(())
        }
    }

    fn registry(probe: &ThreadProbe) -> ContentRegistry<u64> {
        let mut r = ContentRegistry::new();
        r.register("Fan2", || {
            Box::new(Fan {
                ports: vec!["out1", "out2"],
            })
        });
        let p = probe.clone();
        r.register("RecB", move || {
            Box::new(Recorder {
                name: "consumerB".into(),
                probe: p.clone(),
            })
        });
        let p = probe.clone();
        r.register("RecC", move || {
            Box::new(Recorder {
                name: "consumerC".into(),
                probe: p.clone(),
            })
        });
        r
    }

    /// Three domains: a periodic producer fanning out asynchronously to
    /// two sporadic consumers, each in its own domain — three shards.
    fn fan_spec() -> SystemSpec {
        SystemSpec {
            name: "fan".into(),
            areas: vec![AreaSpec {
                name: "Imm1".into(),
                kind: MemoryKind::Immortal,
                size: Some(256 * 1024),
                parent: None,
            }],
            domains: vec![
                DomainSpec {
                    name: "A".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 30,
                },
                DomainSpec {
                    name: "B".into(),
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 25,
                },
                DomainSpec {
                    name: "C".into(),
                    kind: ThreadKind::Realtime,
                    priority: 20,
                },
            ],
            components: vec![
                ComponentSpec {
                    name: "producer".into(),
                    content_class: "Fan2".into(),
                    activation: Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    domain: Some(0),
                    area: 0,
                    server_ports: vec![],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "consumerB".into(),
                    content_class: "RecB".into(),
                    activation: Activation::Sporadic,
                    domain: Some(1),
                    area: 0,
                    server_ports: vec!["in".into()],
                    ceiling: None,
                },
                ComponentSpec {
                    name: "consumerC".into(),
                    content_class: "RecC".into(),
                    activation: Activation::Sporadic,
                    domain: Some(2),
                    area: 0,
                    server_ports: vec!["in".into()],
                    ceiling: None,
                },
            ],
            bindings: vec![
                BindingSpec {
                    client: 0,
                    client_port: "out1".into(),
                    server: 1,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 64,
                        placement: BufferPlacement::Immortal,
                    },
                    pattern: PatternKind::ImmortalExchange,
                    enter_path: vec![],
                },
                BindingSpec {
                    client: 0,
                    client_port: "out2".into(),
                    server: 2,
                    server_port: "in".into(),
                    protocol: ProtocolSpec::Async {
                        capacity: 64,
                        placement: BufferPlacement::Immortal,
                    },
                    pattern: PatternKind::ImmortalExchange,
                    enter_path: vec![],
                },
            ],
        }
    }

    /// Tokens of `fan_spec`'s producer, consumerB and consumerC.
    fn refs(sys: &ParallelSystem<u64>) -> [ComponentRef; 3] {
        ["producer", "consumerB", "consumerC"].map(|n| sys.resolve(n).unwrap())
    }

    #[test]
    fn independent_domains_get_independent_shards() {
        let probe = ThreadProbe::default();
        let sys = ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let [producer, consumer_b, consumer_c] = refs(&sys);
        assert_eq!(sys.shard_count(), 3);
        let a = sys.shard_of_domain("A").unwrap();
        let b = sys.shard_of_domain("B").unwrap();
        let c = sys.shard_of_domain("C").unwrap();
        assert!(a != b && b != c && a != c);
        assert_eq!(sys.shard_of_component(producer), Some(a));
        assert_eq!(sys.shard_of_component(consumer_b), Some(b));
        assert_eq!(sys.shard_of_component(consumer_c), Some(c));
    }

    #[test]
    fn shards_tick_on_distinct_os_threads_in_every_mode() {
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let probe = ThreadProbe::default();
            let mut sys = ParallelSystem::build(&fan_spec(), mode, &registry(&probe)).unwrap();
            let runs = sys.run_ticks(25).unwrap();
            assert_eq!(runs.len(), 3, "{mode}");

            // The test thread drove shard 0; every other shard ran on its
            // own worker thread, and no two shards shared a thread.
            let main = std::thread::current().id();
            let mut threads: Vec<ThreadId> = runs.iter().map(|r| r.thread).collect();
            assert_eq!(threads[0], main, "{mode}: the caller drives shard 0");
            assert!(threads[1..].iter().all(|&t| t != main), "{mode}");
            threads.dedup();
            threads.sort_by_key(|t| format!("{t:?}"));
            threads.dedup();
            assert_eq!(threads.len(), 3, "{mode}: shards must not share threads");

            // Message conservation: each consumer saw all 25 fan-outs, on
            // the thread of its own shard.
            assert_eq!(probe.count("consumerB"), 25, "{mode}");
            assert_eq!(probe.count("consumerC"), 25, "{mode}");
            assert_ne!(
                probe.thread_of("consumerB").unwrap(),
                probe.thread_of("consumerC").unwrap(),
                "{mode}: consumers ran on different shards' threads"
            );
            assert_eq!(sys.stats().dropped_messages, 0, "{mode}");

            // The producer shard counted its cross sends; consumer shards
            // counted the injected activations as transactions.
            let a = sys.shard_of_domain("A").unwrap();
            assert_eq!(sys.shard_stats(a).unwrap().async_messages, 50, "{mode}");
            assert_eq!(sys.shard_stats(sys.shard_count()), None, "{mode}");
        }
    }

    #[test]
    fn sync_cross_domain_binding_merges_shards() {
        let mut spec = fan_spec();
        // Make producer→consumerB synchronous: B can no longer shard apart.
        spec.bindings[0].protocol = ProtocolSpec::Sync;
        spec.bindings[0].server_port = "in".into();
        let probe = ThreadProbe::default();
        let sys = ParallelSystem::build(&spec, Mode::MergeAll, &registry(&probe)).unwrap();
        assert_eq!(sys.shard_count(), 2);
        assert_eq!(
            sys.shard_of_domain("A"),
            sys.shard_of_domain("B"),
            "sync binding serializes A and B"
        );
        assert_ne!(sys.shard_of_domain("A"), sys.shard_of_domain("C"));
    }

    #[test]
    fn shared_scoped_area_merges_shards() {
        let mut spec = fan_spec();
        spec.areas.push(AreaSpec {
            name: "S1".into(),
            kind: MemoryKind::Scoped,
            size: Some(16 * 1024),
            parent: None,
        });
        // producer (A) and consumerC (C) live in the same scoped area:
        // one engine must own the scope, so A and C merge.
        spec.components[0].area = 1;
        spec.components[2].area = 1;
        let probe = ThreadProbe::default();
        let sys = ParallelSystem::build(&spec, Mode::MergeAll, &registry(&probe)).unwrap();
        assert_eq!(sys.shard_count(), 2);
        assert_eq!(sys.shard_of_domain("A"), sys.shard_of_domain("C"));
    }

    /// Regression: a scoped area with no resident components, nested in a
    /// scope owned by a non-zero shard, must materialize in that shard
    /// (not panic trying to remap a parent shard 0 never saw).
    #[test]
    fn resident_free_nested_scope_follows_its_parents_shard() {
        let mut spec = fan_spec();
        // S_owned hosts consumerC (domain C → a non-zero shard);
        // S_orphan nests inside it and hosts nobody.
        spec.areas.push(AreaSpec {
            name: "S_owned".into(),
            kind: MemoryKind::Scoped,
            size: Some(16 * 1024),
            parent: None,
        });
        spec.areas.push(AreaSpec {
            name: "S_orphan".into(),
            kind: MemoryKind::Scoped,
            size: Some(8 * 1024),
            parent: Some(1),
        });
        spec.components[2].area = 1; // consumerC into S_owned
        let probe = ThreadProbe::default();
        let mut sys = ParallelSystem::build(&spec, Mode::MergeAll, &registry(&probe)).unwrap();
        assert_eq!(sys.shard_count(), 3);
        let c = sys.shard_of_domain("C").unwrap();
        let owned = sys.shard_system(c).memory().area_by_name("S_owned");
        let orphan = sys.shard_system(c).memory().area_by_name("S_orphan");
        assert!(
            owned.is_some() && orphan.is_some(),
            "both scopes live in C's shard"
        );
        for other in (0..3).filter(|&s| s != c) {
            assert!(sys
                .shard_system(other)
                .memory()
                .area_by_name("S_orphan")
                .is_none());
        }
        sys.run_ticks(5).unwrap();
    }

    #[test]
    fn degenerate_single_shard_still_runs() {
        let mut spec = fan_spec();
        // Everything in one domain: one shard, no rings, same results.
        for c in &mut spec.components {
            c.domain = Some(0);
        }
        let probe = ThreadProbe::default();
        let mut sys = ParallelSystem::build(&spec, Mode::MergeAll, &registry(&probe)).unwrap();
        assert_eq!(sys.shard_count(), 1);
        let runs = sys.run_ticks(10).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(probe.count("consumerB"), 10);
        assert_eq!(probe.count("consumerC"), 10);
    }

    #[test]
    fn ring_backpressure_counts_drops() {
        let mut spec = fan_spec();
        // Tiny ring + a consumer that cannot drain mid-tick burst: drive
        // several sends per tick through a capacity-1 ring by fanning the
        // same port... simplest: capacity 1 with 25 ticks is fine (one
        // message per tick per ring drains); instead shrink to capacity 1
        // and send a burst by running many ticks while the consumer shard
        // is slow is nondeterministic — so just assert the accounting hook
        // exists via stats on a normal run.
        spec.bindings[0].protocol = ProtocolSpec::Async {
            capacity: 1,
            placement: BufferPlacement::Immortal,
        };
        let probe = ThreadProbe::default();
        let mut sys = ParallelSystem::build(&spec, Mode::MergeAll, &registry(&probe)).unwrap();
        sys.run_ticks(10).unwrap();
        let delivered = probe.count("consumerB");
        let dropped = sys.stats().dropped_messages;
        assert_eq!(delivered + dropped, 10, "conservation: delivered + dropped");
    }

    /// A consumer that fails every invocation with a recognizable error.
    #[derive(Debug)]
    struct Exploder;
    impl Content<u64> for Exploder {
        fn on_invoke(
            &mut self,
            _p: &str,
            _msg: &mut u64,
            _out: &mut dyn Ports<u64>,
        ) -> InvokeResult {
            Err(FrameworkError::Content("boom".into()))
        }
    }

    /// Satellite regression: an aborted parallel run must name the shard
    /// that faulted and its root-cause error — not a generic "aborted by a
    /// sibling shard" that loses the diagnosis.
    #[test]
    fn abort_reports_originating_shard_and_root_cause() {
        let probe = ThreadProbe::default();
        let mut reg = registry(&probe);
        reg.register("Boom", || Box::new(Exploder));
        let mut spec = fan_spec();
        spec.components[1].content_class = "Boom".into();
        let mut sys = ParallelSystem::build(&spec, Mode::MergeAll, &reg).unwrap();
        let [_, consumer_b, _] = refs(&sys);
        let b = sys.shard_of_component(consumer_b).unwrap();
        let err = sys.run_ticks(10).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "run-to-completion violated: parallel run aborted by shard {b} ('B'): \
                 content error: boom"
            )
        );
    }

    /// A panic on a shard's worker thread (here in the caller's probe)
    /// fails the run with a typed error naming a shard instead of
    /// panicking the caller, poisons the deployment, and still lets it
    /// drop without hanging.
    #[test]
    fn worker_panic_is_a_typed_error_and_poisons_the_deployment() {
        let probe = ThreadProbe::default();
        let mut sys =
            ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let [producer, consumer_b, _] = refs(&sys);
        sys.run_ticks(2).unwrap();
        let handle = sys.schedule_release(producer, AbsoluteTime::MAX).unwrap();
        let err = sys
            .run_ticks_instrumented(0, 3, &|| -> u64 { panic!("probe exploded") })
            .unwrap_err();
        let FrameworkError::RunToCompletion(msg) = &err else {
            panic!("expected a run-to-completion error, got {err:?}");
        };
        assert!(msg.contains("parallel run aborted by shard "), "{msg}");
        assert!(
            msg.contains("shard worker panicked: probe exploded"),
            "{msg}"
        );
        // Every shard came back to the deployment.
        assert_eq!(sys.shard_count(), 3);
        assert_eq!(sys.stats().dropped_messages, 0);

        for refused in [
            sys.run_ticks(1).unwrap_err(),
            sys.reconfigure(|_txn| Ok(())).unwrap_err(),
            sys.schedule_release(producer, AbsoluteTime::MAX)
                .unwrap_err(),
            sys.cancel_release(producer, handle).unwrap_err(),
            sys.attach_contract(consumer_b, TimingContract::new())
                .unwrap_err(),
            sys.set_fault_policy(consumer_b, FaultPolicy::Isolate)
                .unwrap_err(),
            sys.restart_component(consumer_b).unwrap_err(),
            sys.install_fault_injector(consumer_b, FaultInjector::new("consumerB", 7, 0))
                .unwrap_err(),
            sys.set_supervisor(consumer_b, None).unwrap_err(),
            sys.enable_checkpoint(consumer_b, 1).unwrap_err(),
            sys.detach_contract(consumer_b).unwrap_err(),
            sys.remove_fault_injector(consumer_b).unwrap_err(),
        ] {
            let FrameworkError::RunToCompletion(m) = &refused else {
                panic!("expected a run-to-completion refusal, got {refused:?}");
            };
            assert!(m.contains("deployment 'fan' is poisoned: shard "), "{m}");
            assert!(m.ends_with("panicked: probe exploded"), "{m}");
        }
        drop(sys);
    }

    /// Tentpole: a panic injected into one shard under `Isolate` leaves
    /// every sibling shard completing its ticks, the faulted component
    /// quarantined with its messages counted-dropped, and the health
    /// report naming it.
    #[test]
    fn isolate_contains_a_panic_to_its_own_shard() {
        let probe = ThreadProbe::default();
        let mut sys =
            ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let [_, consumer_b, consumer_c] = refs(&sys);
        sys.set_fault_policy(consumer_b, FaultPolicy::Isolate)
            .unwrap();
        sys.install_fault_injector(
            consumer_b,
            FaultInjector::new("consumerB", 7, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();

        let runs = sys.run_ticks(25).unwrap();
        assert_eq!(runs.len(), 3, "all shards completed despite the panic");
        assert!(sys.quarantined(consumer_b).unwrap());
        assert!(!sys.quarantined(consumer_c).unwrap());
        // The sibling consumer saw every message; B panicked on its first
        // activation (before dispatch reached the content) and the rest
        // were counted-dropped against the quarantine.
        assert_eq!(probe.count("consumerC"), 25);
        assert_eq!(probe.count("consumerB"), 0);
        let stats = sys.stats();
        assert_eq!(stats.async_messages, 50);
        assert_eq!(stats.faults_contained, 1);
        assert_eq!(stats.quarantine_drops, 24);
        assert_eq!(stats.delivered_messages + stats.dropped_messages, 50);
        let (faults, restarts, _) = sys.supervision_counts(consumer_b).unwrap();
        assert_eq!((faults, restarts), (1, 0));

        let report = sys.health_report();
        assert!(
            report.by_code("SOL-020").any(|d| d.subject == "consumerB"),
            "health report names the quarantined component: {report:?}"
        );
        assert!(report.by_code("SOL-022").next().is_some(), "drops surfaced");

        // Supervised recovery: an explicit restart clears the quarantine
        // and the component consumes again.
        sys.install_fault_injector(consumer_b, FaultInjector::new("consumerB", 7, 0))
            .unwrap();
        sys.restart_component(consumer_b).unwrap();
        assert!(!sys.quarantined(consumer_b).unwrap());
        sys.run_ticks(5).unwrap();
        assert_eq!(probe.count("consumerB"), 5);
        assert!(sys.health_report().by_code("SOL-020").next().is_none());
    }

    #[test]
    fn instrumented_run_reports_quiescent_counters() {
        let probe = ThreadProbe::default();
        let mut sys =
            ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let runs = sys.run_ticks_instrumented(20, 50, &|| 0).unwrap();
        for r in &runs {
            assert_eq!(r.ticks, 50);
            assert_eq!(r.probe_delta, 0);
            assert_eq!(
                r.substrate_allocs, 0,
                "{}: steady-state ticks must not allocate in the substrate",
                r.label
            );
        }
        // 20 warmup + 50 measured ticks delivered everywhere.
        assert_eq!(probe.count("consumerB"), 70);
        assert_eq!(probe.count("consumerC"), 70);
    }

    // -- Live reconfiguration of the partition --------------------------

    #[test]
    fn reconfigure_is_refused_under_ultra_merge() {
        let probe = ThreadProbe::default();
        let mut sys =
            ParallelSystem::build(&fan_spec(), Mode::UltraMerge, &registry(&probe)).unwrap();
        let err = sys.reconfigure(|_txn| Ok(())).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported in this mode: ULTRA-MERGE systems are purely static"
        );
    }

    #[test]
    fn rebind_async_rewires_the_ring_across_shards() {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let probe = ThreadProbe::default();
            let mut sys = ParallelSystem::build(&fan_spec(), mode, &registry(&probe)).unwrap();
            let [producer, _, consumer_c] = refs(&sys);
            sys.run_ticks(10).unwrap();
            assert_eq!(probe.count("consumerB"), 10, "{mode}");
            assert_eq!(probe.count("consumerC"), 10, "{mode}");

            // Retarget producer.out1 from consumerB (shard B) onto
            // consumerC (shard C): the A→B ring retires, a fresh A→C ring
            // seats, and the compiled client slot repoints — live.
            sys.reconfigure(|txn| txn.rebind_async(producer, "out1", consumer_c))
                .unwrap();

            sys.run_ticks(10).unwrap();
            assert_eq!(
                probe.count("consumerB"),
                10,
                "{mode}: the retired ring delivers nothing more"
            );
            assert_eq!(
                probe.count("consumerC"),
                30,
                "{mode}: both fan-out messages reach the new server"
            );
            let stats = sys.stats();
            assert_eq!(stats.dropped_messages, 0, "{mode}");
            // Exact conservation across the reconfiguration epoch: every
            // cross-shard send before and after the rewiring was delivered.
            assert_eq!(stats.async_messages, 40, "{mode}");
        }
    }

    #[test]
    fn refused_transaction_restores_the_partition_byte_identically() {
        let probe = ThreadProbe::default();
        let mut sys = ParallelSystem::build(&fan_spec(), Mode::Soleil, &registry(&probe)).unwrap();
        let [producer, consumer_b, consumer_c] = refs(&sys);
        sys.run_ticks(10).unwrap();
        let digests = sys.structural_digests();
        let policy = sys.fault_policy(consumer_c).unwrap();

        let err = sys
            .reconfigure(|txn| -> Result<(), FrameworkError> {
                txn.rebind_async(producer, "out1", consumer_c)?;
                txn.set_fault_policy(consumer_c, FaultPolicy::Isolate)?;
                txn.install_jitter_monitor(consumer_b)?;
                Err(FrameworkError::Content(
                    "operator changed their mind".into(),
                ))
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "content error: operator changed their mind"
        );

        assert_eq!(
            sys.structural_digests(),
            digests,
            "rollback restores every shard engine byte-identically"
        );
        assert_eq!(sys.fault_policy(consumer_c).unwrap(), policy);

        // The restored topology still routes out1 to consumerB.
        sys.run_ticks(10).unwrap();
        assert_eq!(probe.count("consumerB"), 20);
        assert_eq!(probe.count("consumerC"), 20);
        assert_eq!(sys.stats().dropped_messages, 0);
    }

    #[test]
    fn sync_rebind_across_the_partition_is_refused() {
        let mut spec = fan_spec();
        spec.bindings[0].protocol = ProtocolSpec::Sync;
        spec.bindings[0].server_port = "in".into();
        let probe = ThreadProbe::default();
        let mut sys = ParallelSystem::build(&spec, Mode::MergeAll, &registry(&probe)).unwrap();
        let [producer, _, consumer_c] = refs(&sys);
        let digests = sys.structural_digests();
        let err = sys
            .reconfigure(|txn| txn.rebind(producer, "out1", consumer_c))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("synchronous rebind cannot cross the domain partition"),
            "{err}"
        );
        assert!(err.to_string().contains("use rebind_async"), "{err}");
        assert_eq!(sys.structural_digests(), digests);
    }

    #[test]
    fn reassign_domain_across_the_partition_is_refused() {
        let probe = ThreadProbe::default();
        let mut sys =
            ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let [_, consumer_b, _] = refs(&sys);
        let err = sys
            .reconfigure(|txn| txn.reassign_domain(consumer_b, "C"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("components never migrate across the static domain partition"),
            "{err}"
        );
    }

    /// Satellite: exact SOL-016…SOL-022 verdicts on a sharded deployment
    /// whose contracts and supervision policies were swapped through a
    /// live parallel reconfiguration transaction.
    #[test]
    fn health_verdicts_are_exact_after_a_live_policy_swap() {
        let probe = ThreadProbe::default();
        let mut sys =
            ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let [producer, consumer_b, consumer_c] = refs(&sys);
        sys.run_ticks(5).unwrap();
        assert!(sys.health_report().is_compliant());

        // The live swap: an impossible deadline and an unreachable
        // throughput floor on the producer (next to generous jitter and
        // quantile bounds that stay satisfied), isolation for consumerB,
        // a zero-budget restart policy for consumerC.
        sys.reconfigure(|txn| {
            txn.attach_contract(
                producer,
                TimingContract::new()
                    .with_deadline(RelativeTime::from_nanos(0))
                    .with_min_throughput_hz(u32::MAX)
                    .with_max_jitter(RelativeTime::from_millis(500))
                    .with_quantile_bound(99, RelativeTime::from_millis(500)),
            )?;
            txn.set_fault_policy(consumer_b, FaultPolicy::Isolate)?;
            txn.set_fault_policy(
                consumer_c,
                FaultPolicy::Restart {
                    max_restarts: 0,
                    window: RelativeTime::from_millis(3_600_000),
                    backoff: RelativeTime::from_millis(50),
                },
            )
        })
        .unwrap();

        sys.install_fault_injector(
            consumer_b,
            FaultInjector::new("consumerB", 7, 1).with_menu(FaultInjector::MENU_PANIC),
        )
        .unwrap();
        let runs = sys.run_ticks(10).unwrap();
        assert_eq!(runs.len(), 3, "isolation keeps every shard ticking");

        // contract_report: exactly the two contracted bounds that cannot
        // hold, nothing else.
        let contracts = sys.contract_report();
        assert!(!contracts.is_compliant());
        assert_eq!(contracts.by_code("SOL-016").count(), 1, "{contracts}");
        assert!(contracts
            .by_code("SOL-016")
            .all(|d| d.subject == "producer"));
        assert_eq!(contracts.by_code("SOL-017").count(), 0, "{contracts}");
        assert_eq!(contracts.by_code("SOL-018").count(), 1, "{contracts}");
        assert!(contracts
            .by_code("SOL-018")
            .all(|d| d.subject == "producer"));
        assert_eq!(contracts.by_code("SOL-019").count(), 0, "{contracts}");

        // health_report: the contract verdicts plus the quarantine
        // findings — and no exhausted budget yet.
        let report = sys.health_report();
        assert_eq!(report.by_code("SOL-020").count(), 1, "{report}");
        assert!(report.by_code("SOL-020").all(|d| d.subject == "consumerB"));
        assert_eq!(report.by_code("SOL-021").count(), 0, "{report}");
        assert_eq!(report.by_code("SOL-022").count(), 1, "{report}");

        // Exhaust consumerC's zero-restart budget: the fault escalates
        // out of its shard and SOL-021 joins the report.
        sys.install_fault_injector(
            consumer_c,
            FaultInjector::new("consumerC", 11, 1).with_menu(FaultInjector::MENU_ERROR),
        )
        .unwrap();
        let err = sys.run_ticks(10).unwrap_err();
        assert!(err.to_string().contains("aborted by shard"), "{err}");
        let report = sys.health_report();
        assert_eq!(report.by_code("SOL-021").count(), 1, "{report}");
        assert!(report.by_code("SOL-021").all(|d| d.subject == "consumerC"));
        assert!(report.by_code("SOL-020").any(|d| d.subject == "consumerC"));
    }

    /// `fan_spec` with per-domain immortal areas and a (never exercised)
    /// synchronous binding consumerB.peer → consumerC.in, which couples
    /// domains B and C into one shard — the playground for same-shard
    /// domain re-assignment with region re-homing.
    fn coupled_spec() -> SystemSpec {
        let mut spec = fan_spec();
        spec.areas.push(AreaSpec {
            name: "ImmB".into(),
            kind: MemoryKind::Immortal,
            size: Some(256 * 1024),
            parent: None,
        });
        spec.areas.push(AreaSpec {
            name: "ImmC".into(),
            kind: MemoryKind::Immortal,
            size: Some(256 * 1024),
            parent: None,
        });
        spec.components[1].area = 1;
        spec.components[2].area = 2;
        spec.bindings.push(BindingSpec {
            client: 1,
            client_port: "peer".into(),
            server: 2,
            server_port: "in".into(),
            protocol: ProtocolSpec::Sync,
            pattern: PatternKind::Direct,
            enter_path: vec![],
        });
        spec
    }

    /// The architectural model matching [`coupled_spec`], name for name —
    /// each consumer's memory area contains its thread *domain*, so moving
    /// the domain edge re-homes the component's allocation region.
    fn coupled_arch() -> Architecture {
        let mut bv = soleil_core::views::BusinessView::new("fan");
        bv.active_periodic("producer", "10ms").unwrap();
        bv.active_sporadic("consumerB").unwrap();
        bv.active_sporadic("consumerC").unwrap();
        bv.content("producer", "Fan2").unwrap();
        bv.content("consumerB", "RecB").unwrap();
        bv.content("consumerC", "RecC").unwrap();
        bv.require("producer", "out1", "I").unwrap();
        bv.require("producer", "out2", "I").unwrap();
        bv.require("consumerB", "peer", "I").unwrap();
        bv.provide("consumerB", "in", "I").unwrap();
        bv.provide("consumerC", "in", "I").unwrap();
        bv.bind_async("producer", "out1", "consumerB", "in", 64)
            .unwrap();
        bv.bind_async("producer", "out2", "consumerC", "in", 64)
            .unwrap();
        bv.bind_sync("consumerB", "peer", "consumerC", "in")
            .unwrap();
        let mut flow = soleil_core::views::DesignFlow::new(bv);
        flow.thread_domain("A", ThreadKind::NoHeapRealtime, 30, &["producer"])
            .unwrap();
        flow.thread_domain("B", ThreadKind::NoHeapRealtime, 25, &["consumerB"])
            .unwrap();
        flow.thread_domain("C", ThreadKind::Realtime, 20, &["consumerC"])
            .unwrap();
        flow.memory_area("Imm1", MemoryKind::Immortal, Some(256 * 1024), &["A"])
            .unwrap();
        flow.memory_area("ImmB", MemoryKind::Immortal, Some(256 * 1024), &["B"])
            .unwrap();
        flow.memory_area("ImmC", MemoryKind::Immortal, Some(256 * 1024), &["C"])
            .unwrap();
        flow.merge()
            .unwrap()
            .into_validated()
            .unwrap()
            .architecture()
            .clone()
    }

    /// Acceptance: a live arch-carrying partition, under traffic, commits
    /// one transaction combining a cross-ring rebind, a domain
    /// re-assignment that re-homes the allocation region, a policy swap
    /// and (under SOLEIL) an interceptor installation — with exact message
    /// conservation through the quiescence epoch and allocation-free
    /// steady-state ticks afterwards.
    #[test]
    fn committed_transaction_combines_rewiring_rehoming_and_policy() {
        for mode in [Mode::Soleil, Mode::MergeAll] {
            let probe = ThreadProbe::default();
            let mut sys = ParallelSystem::build_with_arch(
                &coupled_spec(),
                mode,
                &registry(&probe),
                coupled_arch(),
            )
            .unwrap();
            let [producer, consumer_b, consumer_c] = refs(&sys);
            assert_eq!(
                sys.shard_count(),
                2,
                "{mode}: the sync peer couples B and C"
            );
            sys.run_ticks(10).unwrap();

            sys.reconfigure(|txn| {
                txn.rebind_async(producer, "out1", consumer_c)?;
                txn.reassign_domain(consumer_b, "C")?;
                txn.set_fault_policy(consumer_c, FaultPolicy::Isolate)?;
                if mode == Mode::Soleil {
                    txn.install_jitter_monitor(consumer_b)?;
                }
                Ok(())
            })
            .unwrap();

            sys.run_ticks(10).unwrap();
            assert_eq!(probe.count("consumerB"), 10, "{mode}");
            assert_eq!(probe.count("consumerC"), 30, "{mode}");
            assert_eq!(
                sys.fault_policy(consumer_c).unwrap(),
                FaultPolicy::Isolate,
                "{mode}"
            );
            let stats = sys.stats();
            assert_eq!(stats.dropped_messages, 0, "{mode}");
            assert_eq!(stats.async_messages, 40, "{mode}: exact conservation");

            // The committed partition still ticks allocation-free.
            let runs = sys.run_ticks_instrumented(5, 20, &|| 0).unwrap();
            for r in &runs {
                assert_eq!(
                    r.substrate_allocs, 0,
                    "{mode}/{}: reconfigured steady state must not allocate",
                    r.label
                );
            }
        }
    }

    /// The same combined transaction, refused at the last step: every
    /// shard — including the re-homed region and the rewired rings — is
    /// restored byte-identically, witnessed by the structural digests and
    /// by traffic flowing exactly as before.
    #[test]
    fn refused_combined_transaction_rolls_back_rehoming_and_rewiring() {
        let probe = ThreadProbe::default();
        let mut sys = ParallelSystem::build_with_arch(
            &coupled_spec(),
            Mode::MergeAll,
            &registry(&probe),
            coupled_arch(),
        )
        .unwrap();
        let [producer, consumer_b, consumer_c] = refs(&sys);
        sys.run_ticks(10).unwrap();
        let digests = sys.structural_digests();
        let arch = format!("{:?}", sys.architecture());

        let err = sys
            .reconfigure(|txn| -> Result<(), FrameworkError> {
                txn.rebind_async(producer, "out1", consumer_c)?;
                txn.reassign_domain(consumer_b, "C")?;
                txn.set_fault_policy(consumer_c, FaultPolicy::Isolate)?;
                Err(FrameworkError::Content(
                    "operator changed their mind".into(),
                ))
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "content error: operator changed their mind"
        );
        assert_eq!(
            sys.structural_digests(),
            digests,
            "rollback restores the re-homed region and the ring topology"
        );
        assert_eq!(
            format!("{:?}", sys.architecture()),
            arch,
            "rollback restores bindings and containment edges in place"
        );

        sys.run_ticks(10).unwrap();
        assert_eq!(probe.count("consumerB"), 20);
        assert_eq!(probe.count("consumerC"), 20);
        assert_eq!(sys.stats().dropped_messages, 0);
    }

    /// Refusals of a token minted by another deployment: one mutator, one
    /// getter and one transaction op — the op after a valid one, so the
    /// rollback has something to undo. The refused transaction leaves
    /// every shard byte-identical.
    fn refuse_foreign(sys: &mut ParallelSystem<u64>, foreign: ComponentRef) -> Vec<FrameworkError> {
        let producer = sys.resolve("producer").unwrap();
        let consumer_c = sys.resolve("consumerC").unwrap();
        let digests = sys.structural_digests();
        let refused = vec![
            sys.set_fault_policy(foreign, FaultPolicy::Isolate)
                .unwrap_err(),
            sys.fault_policy(foreign).unwrap_err(),
            sys.reconfigure(|txn| {
                txn.set_fault_policy(consumer_c, FaultPolicy::Isolate)?;
                txn.rebind_async(producer, "out1", foreign)
            })
            .unwrap_err(),
        ];
        assert_eq!(sys.structural_digests(), digests, "refusal rolled back");
        assert_eq!(sys.fault_policy(consumer_c).unwrap(), FaultPolicy::Escalate);
        refused
    }

    /// Tokens are deployment-scoped: a `ComponentRef` or `PortRef` minted
    /// by one deployment is refused by another — on the serial hot path,
    /// by a mutator, by a getter and inside a transaction, serial and
    /// sharded alike — instead of silently addressing the slot it names
    /// (both deployments below share one plan, so every foreign index is
    /// in range).
    #[test]
    fn foreign_tokens_are_refused_serial_and_sharded() {
        let probe = ThreadProbe::default();
        let serial = || {
            let arch = coupled_arch();
            crate::Deployment::build(&coupled_spec(), Mode::MergeAll, &registry(&probe), arch)
                .unwrap()
        };
        let sharded =
            || ParallelSystem::build(&fan_spec(), Mode::MergeAll, &registry(&probe)).unwrap();
        let (a, mut b) = (serial(), serial());
        let foreign = a.resolve("producer").unwrap();
        let foreign_port = a.port(a.resolve("consumerB").unwrap(), "in").unwrap();

        let mut refused = vec![
            b.run_transaction(foreign).unwrap_err(),
            b.inject(foreign_port, 1).unwrap_err(),
        ];
        refused.extend(refuse_foreign(&mut b, foreign));
        let (c, mut d) = (sharded(), sharded());
        assert_eq!(d.shard_count(), 3);
        refused.extend(refuse_foreign(&mut d, c.resolve("producer").unwrap()));
        refused.extend(refuse_foreign(&mut d, foreign));
        assert_eq!(refused.len(), 11);
        for e in &refused {
            let FrameworkError::Content(m) = e else {
                panic!("expected a foreign-token refusal, got {e:?}");
            };
            assert!(m.ends_with("minted by a different deployment"), "{m}");
        }

        // Each deployment's own tokens still work.
        let own = b.resolve("producer").unwrap();
        b.run_transaction(own).unwrap();
        d.run_ticks(1).unwrap();
        assert_eq!(probe.count("consumerC"), 2);
    }

    /// A serial `Deployment` reaches `run_ticks` through the shared engine
    /// API, so a panicking probe poisons it like any sharded deployment,
    /// and its inline hot path refuses from then on.
    #[test]
    fn a_poisoned_serial_deployment_refuses_its_hot_path() {
        let probe = ThreadProbe::default();
        let mut dep = crate::Deployment::build(
            &coupled_spec(),
            Mode::MergeAll,
            &registry(&probe),
            coupled_arch(),
        )
        .unwrap();
        let producer = dep.resolve("producer").unwrap();
        let port = dep.port(dep.resolve("consumerB").unwrap(), "in").unwrap();
        dep.run_transaction(producer).unwrap();
        let err = dep
            .run_ticks_instrumented(0, 1, &|| -> u64 { panic!("probe exploded") })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::RunToCompletion(_)), "{err:?}");

        for refused in [
            dep.run_transaction(producer).unwrap_err(),
            dep.run_tick().unwrap_err(),
            dep.inject(port, 1).unwrap_err(),
            dep.fire_timers_until(AbsoluteTime::MAX).unwrap_err(),
        ] {
            let FrameworkError::RunToCompletion(m) = &refused else {
                panic!("expected a run-to-completion refusal, got {refused:?}");
            };
            assert!(m.contains("deployment 'fan' is poisoned: shard 0"), "{m}");
            assert!(m.ends_with("panicked: probe exploded"), "{m}");
        }
    }

    /// A one-shard plan leases no thread: its runs — and a reconfiguration
    /// whose quiescence point has to drain a ring — run inline on the
    /// caller's thread, for a one-domain sharded build and a serial
    /// `Deployment` alike.
    #[test]
    fn a_one_shard_plan_runs_inline_and_leases_no_worker() {
        fn check(sys: &mut ParallelSystem<u64>, probe: &ThreadProbe) {
            let caller = std::thread::current().id();
            assert_eq!(sys.shard_count(), 1);
            for runs in [
                sys.run_ticks(5).unwrap(),
                sys.run_ticks_instrumented(0, 5, &|| 0).unwrap(),
            ] {
                assert_eq!(runs.len(), 1);
                assert_eq!(runs[0].thread, caller, "the caller drives the only shard");
                assert_eq!(runs[0].ticks, 5);
            }
            assert!(sys.workers.is_empty(), "no worker leased");
            assert_eq!(probe.count("consumerB"), 10);
            assert_eq!(probe.thread_of("consumerB"), Some(caller));

            // A message waiting on a ring takes `quiesce` off its fast path
            // and onto the `Order::Drain` job, which must stay inline too.
            let consumer_b = sys.resolve("consumerB").unwrap();
            let (shard, slot) = sys.comp_slot[consumer_b.g as usize];
            let (mut tx, rx) = spsc_ring::<u64>(4).unwrap();
            sys.ctl.in_flight.fetch_add(1, Ordering::SeqCst);
            assert!(matches!(tx.push(7), soleil_patterns::PushOutcome::Accepted));
            sys.shards[shard].incoming.push(CrossIn {
                rx,
                slot,
                port_ix: 0,
                tag: u64::MAX,
            });
            sys.reconfigure(|_txn| Ok(())).unwrap();
            assert_eq!(probe.count("consumerB"), 11, "the drain delivered it");
            assert_eq!(probe.thread_of("consumerB"), Some(caller));
            assert_eq!(sys.ctl.in_flight.load(Ordering::SeqCst), 0);
            assert!(sys.workers.is_empty(), "the drain leased no worker");
            sys.shards[shard].incoming.clear();
        }

        let mut one_domain = fan_spec();
        one_domain.domains.truncate(1);
        for c in &mut one_domain.components {
            c.domain = Some(0);
        }
        let probe = ThreadProbe::default();
        let mut sharded =
            ParallelSystem::build(&one_domain, Mode::MergeAll, &registry(&probe)).unwrap();
        check(&mut sharded, &probe);

        let probe = ThreadProbe::default();
        let mut serial = crate::Deployment::build(
            &coupled_spec(),
            Mode::MergeAll,
            &registry(&probe),
            coupled_arch(),
        )
        .unwrap();
        check(&mut serial, &probe);
    }

    /// Wraps a content and panics from its second checkpoint on (the first
    /// is `enable_checkpoint`'s capability probe). The engine catches
    /// panics at the activation boundary only, so a cadence capture's
    /// panic unwinds out of the shard's tick into its job.
    #[derive(Debug)]
    struct CheckpointBomb {
        inner: Box<dyn Content<u64>>,
        checkpoints: AtomicU64,
    }
    impl Content<u64> for CheckpointBomb {
        fn on_invoke(&mut self, p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
            self.inner.on_invoke(p, msg, out)
        }

        fn checkpoint(&self, _image: &mut soleil_membrane::content::StateImage) -> bool {
            if self.checkpoints.fetch_add(1, Ordering::Relaxed) > 0 {
                panic!("checkpoint exploded");
            }
            true
        }
    }

    /// The caller drives shard 0 and workers drive the others through one
    /// job body: a panic on either side fails the run with a typed error
    /// naming the right shard (`workers[i]` serves shard `i + 1`), never
    /// unwinds out of `run_ticks` or strands the caller in a gate, and
    /// poisons the deployment with every shard handed back.
    #[test]
    fn a_panic_on_the_inline_or_a_worker_shard_names_its_shard() {
        for (component, label) in [("producer", "A"), ("consumerC", "C")] {
            let probe = ThreadProbe::default();
            let spec = fan_spec();
            let mut reg = registry(&probe);
            let g = spec
                .components
                .iter()
                .position(|c| c.name == component)
                .unwrap();
            let class = spec.components[g].content_class.clone();
            let inner = reg.factory(&class).unwrap();
            reg.register(class, move || {
                Box::new(CheckpointBomb {
                    inner: inner(),
                    checkpoints: AtomicU64::new(0),
                })
            });
            let mut sys = ParallelSystem::build(&spec, Mode::MergeAll, &reg).unwrap();
            let target = sys.resolve(component).unwrap();
            let ix = sys.shard_of_component(target).unwrap();
            assert_eq!(ix, sys.shard_of_domain(label).unwrap());
            sys.enable_checkpoint(target, 1).unwrap();

            let err = sys.run_ticks(10).unwrap_err();
            let FrameworkError::RunToCompletion(msg) = &err else {
                panic!("expected a run-to-completion error, got {err:?}");
            };
            assert!(
                msg.starts_with(&format!("parallel run aborted by shard {ix} ('{label}'): ")),
                "{msg}"
            );
            assert!(msg.ends_with("panicked: checkpoint exploded"), "{msg}");
            assert_eq!(sys.shard_count(), 3, "every shard came back");
            assert_eq!(sys.structural_digests().len(), 3);
            assert_eq!(sys.workers.len(), 2);

            let refused = sys.run_ticks(1).unwrap_err();
            assert_eq!(
                refused.to_string(),
                format!(
                    "run-to-completion violated: deployment 'fan' is poisoned: \
                     shard {ix} ('{label}') panicked: checkpoint exploded"
                )
            );
        }
    }
}
