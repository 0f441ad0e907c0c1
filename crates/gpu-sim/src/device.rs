//! The simulated device: memory + counters + named kernel launch.
//!
//! Kernels are *warp-centric closures*: the executor hands each [`Warp`] a
//! context exposing warp intrinsics and memory operations, all of which
//! charge [`PerfCounters`]. Both a deterministic sequential executor and a
//! multi-threaded executor (std scoped threads) are provided; the paper's
//! operations are phase-concurrent, so either executor must produce the
//! same final data-structure state — property tests in the graph crates
//! assert exactly that.
//!
//! Every launch carries a [`KernelSpec`] naming the kernel, and every
//! charged event is tallied twice: into the device-wide counters and into
//! the named kernel's entry in the device's [`KernelRegistry`]. See
//! [`crate::trace`] for the attribution model and reporting.

use crate::cost::CostModel;
use crate::counters::{CounterSnapshot, Event, PerfCounters};
use crate::fault::{FaultInjector, FaultPlan, OomError};
use crate::lanes::{self, Lanes, FULL_MASK, WARP_SIZE};
use crate::memory::{Addr, DeviceArena, SLAB_WORDS};
use crate::profiler::{PhaseGuard, Profiler, ProfilerConfig, TraceCtx, TraceScope};
use crate::sanitizer::{AccessKind, Finding, Sanitizer, SanitizerConfig, WarpRace};
use crate::trace::{Charge, KernelRegistry, KernelSpec, LaunchShape, TraceSnapshot, HOST_KERNEL};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A device's modeled clock in seconds, shared with its open phase guards.
pub(crate) type Clock = Arc<parking_lot::Mutex<f64>>;

/// How kernels are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run warps one at a time in warp-id order. Deterministic; the default.
    Sequential,
    /// Run warps on `n` host threads, or one per warp if the launch has
    /// fewer; a one-warp launch runs on the calling thread.
    /// Non-deterministic interleaving; used to validate
    /// phase-concurrency.
    Threaded(usize),
}

/// Construction-time device parameters: committed memory, an optional
/// allocation budget, and the execution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Words of global memory to pre-commit.
    pub initial_words: usize,
    /// Total allocation budget in words; `None` means unbounded (the
    /// pre-existing behaviour). Models a card's fixed memory: allocations
    /// past the budget fail with [`OomError::Capacity`].
    pub capacity_words: Option<u64>,
    /// How launched kernels are executed.
    pub policy: ExecPolicy,
    /// Optional shadow-memory sanitizer (see [`crate::sanitizer`]).
    /// `None` (the default) costs one `Option` check per memory access
    /// and charges nothing either way. Building with the `sanitize`
    /// cargo feature flips the default to an escalating sanitizer, so an
    /// unmodified test suite runs fully sanitized.
    pub sanitize: Option<SanitizerConfig>,
    /// Optional timeline profiler + metrics registry (see
    /// [`crate::profiler`]). Same discipline as the sanitizer: `None`
    /// (the default) costs one `Option` check per hook, and counters are
    /// byte-identical whether it is attached or not. The default picks up
    /// the process-wide config, if any, installed via
    /// [`crate::profiler::set_default_profiler`].
    pub profile: Option<ProfilerConfig>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            initial_words: 1 << 20,
            capacity_words: None,
            policy: ExecPolicy::Sequential,
            sanitize: if cfg!(feature = "sanitize") {
                Some(SanitizerConfig::default().with_escalation(true))
            } else {
                None
            },
            profile: crate::profiler::default_profiler(),
        }
    }
}

impl DeviceConfig {
    /// Config with `initial_words` committed, unbounded, sequential.
    pub fn new(initial_words: usize) -> Self {
        DeviceConfig {
            initial_words,
            ..Default::default()
        }
    }

    /// Set the allocation budget in words.
    pub fn with_capacity_words(mut self, capacity_words: u64) -> Self {
        self.capacity_words = Some(capacity_words);
        self
    }

    /// Set the execution policy.
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a shadow-memory sanitizer with the given configuration.
    pub fn with_sanitizer(mut self, sanitize: SanitizerConfig) -> Self {
        self.sanitize = Some(sanitize);
        self
    }

    /// Attach a timeline profiler with the given configuration.
    pub fn with_profiler(mut self, profile: ProfilerConfig) -> Self {
        self.profile = Some(profile);
        self
    }
}

/// A simulated GPU: global-memory arena, performance counters (global and
/// per-kernel), and an execution policy for launched kernels.
///
/// The arena is private to this crate. Code outside it reaches device
/// memory only through the charged [`Warp`] accessors or the uncharged
/// host transfers ([`Self::upload`], [`Self::host_write`],
/// [`Self::host_read`]):
///
/// ```compile_fail
/// let dev = gpu_sim::Device::new(64);
/// let p = dev.alloc_words(1, 1);
/// dev.arena().store(p, 0);
/// ```
///
/// ```compile_fail
/// use gpu_sim::memory::DeviceArena;
/// ```
pub struct Device {
    arena: DeviceArena,
    counters: PerfCounters,
    policy: ExecPolicy,
    registry: KernelRegistry,
    /// Stack of active kernel/scope names. The *outermost* name owns all
    /// charges issued while the stack is non-empty, and only the outermost
    /// entry charges a launch: host-side helpers that are conceptually one
    /// fused kernel (e.g. a triangle-counting pass built from many small
    /// launches) wrap themselves in [`Device::fused_scope`]. Warp worker
    /// threads never mutate it, but launches are not serial: a live read
    /// may launch from a second host thread while a flush's launch holds
    /// the stack, and is then charged to the flush (ROADMAP item 5, one
    /// attribution stream per host thread).
    scope: parking_lot::Mutex<Vec<&'static str>>,
    /// Deterministic fault-injection state, consulted by fallible
    /// allocation paths via [`Device::fault_check`].
    faults: FaultInjector,
    /// Optional shadow-memory sanitizer (also attached to the arena for
    /// initialization tracking).
    san: Option<Arc<Sanitizer>>,
    /// Optional timeline profiler + metrics registry: records one span per
    /// advance of the modeled clock.
    prof: Option<Arc<Profiler>>,
    /// The modeled clock, in seconds since the device was created. Every
    /// *top-level* attribution unit (launch / fused scope / memset / manual
    /// charge) deltas the global counters around itself and advances the
    /// clock by the delta's modeled time; the scope stack guarantees units
    /// never overlap, so the clock is the run's modeled time. Shared with
    /// open [`PhaseGuard`]s, which read it on drop.
    clock: Clock,
    /// Global launch counter. Every launch fully joins its warps before
    /// returning, so each launch is a barrier and opens a new *era*: the
    /// sanitizer's racecheck only considers same-era accesses, and the
    /// slab allocator's quarantine holds freed slabs until the era
    /// advances.
    era: AtomicU64,
}

impl Device {
    /// Create a device with `initial_words` of committed global memory and
    /// the sequential execution policy.
    pub fn new(initial_words: usize) -> Self {
        Self::with_policy(initial_words, ExecPolicy::Sequential)
    }

    /// Create a device with an explicit execution policy.
    pub fn with_policy(initial_words: usize, policy: ExecPolicy) -> Self {
        Self::with_config(DeviceConfig::new(initial_words).with_exec_policy(policy))
    }

    /// Create a device from a full [`DeviceConfig`].
    pub fn with_config(config: DeviceConfig) -> Self {
        let san = config.sanitize.map(|cfg| Arc::new(Sanitizer::new(cfg)));
        let mut arena = DeviceArena::with_capacity(
            config.initial_words,
            config.capacity_words.unwrap_or(u64::MAX),
        );
        if let Some(s) = &san {
            arena.attach_sanitizer(s.clone());
        }
        Device {
            arena,
            counters: PerfCounters::default(),
            policy: config.policy,
            registry: KernelRegistry::new(),
            scope: parking_lot::Mutex::new(Vec::new()),
            faults: FaultInjector::default(),
            san,
            prof: config.profile.map(|cfg| Arc::new(Profiler::new(cfg))),
            clock: Arc::new(parking_lot::Mutex::new(0.0)),
            era: AtomicU64::new(0),
        }
    }

    /// The attached shadow-memory sanitizer, if this device was built
    /// with one.
    pub fn sanitizer(&self) -> Option<&Arc<Sanitizer>> {
        self.san.as_ref()
    }

    /// The attached timeline profiler, if this device was built with one.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.prof.as_ref()
    }

    /// The modeled clock: modeled GPU seconds since the device was
    /// created. Always running, profiler or not; see [`crate::profiler`]
    /// for how it advances.
    pub fn clock_s(&self) -> f64 {
        *self.clock.lock()
    }

    /// Charge `dur_s` seconds of pure waiting onto the modeled clock.
    /// Retry backoff uses this, so waiting on a flaky device costs makespan
    /// exactly like work does. A profiled device records the wait as a host
    /// span with zero counters.
    pub fn wait(&self, name: &'static str, dur_s: f64) {
        self.advance(true, name, dur_s, CounterSnapshot::default());
    }

    /// Record a point event at the current modeled time on a profiled
    /// device (a no-op without a profiler), stamped with the active trace
    /// context. Inside a launch the clock has not yet advanced, so the
    /// instant carries the enclosing span's start time.
    pub fn instant(&self, name: &'static str, detail: impl Into<String>) {
        if let Some(p) = &self.prof {
            p.instant(self.clock_s(), name, detail);
        }
    }

    /// Advance the modeled clock by `dur_s`; a profiled device records the
    /// interval as a kernel span, or as a host span when `host`.
    fn advance(&self, host: bool, name: &'static str, dur_s: f64, counters: CounterSnapshot) {
        let mut clock = self.clock.lock();
        if let Some(p) = &self.prof {
            p.record_span(host, name, *clock, dur_s, counters);
        }
        *clock += dur_s;
    }

    /// [`Self::advance`] by the modeled time of a counter delta.
    fn advance_by(&self, host: bool, name: &'static str, delta: CounterSnapshot) {
        self.advance(host, name, CostModel::titan_v().seconds(&delta), delta);
    }

    /// Advance the clock for a dropped top-level [`Charge`]'s tally. A
    /// tally carrying `n > 1` launches models `n` physical launches and
    /// advances in `n` near-equal steps (remainders fold into the earliest
    /// ones) so kernel spans stay 1:1 with launches; the split is exact
    /// event-wise, so total modeled time is preserved. A tally carrying
    /// *no* launch is host-side traffic and lands in the host-span ring.
    pub(crate) fn end_charge(&self, name: &'static str, tally: CounterSnapshot) {
        if tally.launches == 0 {
            self.advance_by(true, name, tally);
            return;
        }
        for part in tally.split(tally.launches) {
            self.advance_by(false, name, part);
        }
    }

    /// Open a named host-phase range on the modeled clock; the returned
    /// guard closes it on drop. Inert (one `Option` check) when no
    /// profiler is attached. Bind the guard — a discarded guard closes the
    /// phase immediately.
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        PhaseGuard {
            inner: self
                .prof
                .as_ref()
                .map(|p| (p.clone(), self.clock.clone(), name, self.clock_s())),
        }
    }

    /// Install a causal [`TraceCtx`] for the returned scope's lifetime:
    /// every span and instant the profiler records while it is live is
    /// stamped with the context, so coalesced dispatch work can be walked
    /// back to the client op that caused it. Inert (one `Option` check)
    /// when no profiler is attached. Bind the scope — a discarded scope
    /// uninstalls immediately.
    pub fn trace_scope(&self, ctx: TraceCtx) -> TraceScope {
        TraceScope::new(self.prof.clone(), ctx)
    }

    /// The sanitizer's findings (empty when no sanitizer is attached).
    pub fn sanitizer_findings(&self) -> Vec<Finding> {
        self.san.as_ref().map(|s| s.findings()).unwrap_or_default()
    }

    /// The global launch counter; each completed launch is a barrier.
    pub fn launch_era(&self) -> u64 {
        self.era.load(Ordering::Relaxed)
    }

    /// Explicitly advance the era without launching — the *release* edge
    /// of era publication. Batched mutation paths call this at batch
    /// boundaries so slabs freed during the batch become reclaimable as
    /// soon as every reader pinned before the bump drops its guard,
    /// without waiting for an unrelated launch to move the clock.
    /// Uncharged: era bookkeeping is not simulated device work.
    pub fn advance_era(&self) -> u64 {
        self.era.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Change the execution policy (between phases).
    pub fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// The device-wide performance counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Snapshot the global tally plus every kernel's tally. Delta two of
    /// these around a phase and feed the result to
    /// [`crate::trace::TraceReport`] for a per-kernel breakdown.
    pub fn trace(&self) -> TraceSnapshot {
        TraceSnapshot {
            global: self.counters.snapshot(),
            kernels: self.registry.snapshot(),
        }
    }

    /// Resolve the attribution target for a charge issued under `fallback`:
    /// the outermost active scope name if any, else `fallback`. The bool is
    /// `true` when no scope is active (i.e. this charge is top-level and
    /// launch-like events should be counted).
    fn resolve(&self, fallback: &'static str) -> (&'static str, bool) {
        match self.scope.lock().first() {
            Some(outer) => (outer, false),
            None => (fallback, true),
        }
    }

    /// A dual-charging handle for manual charge sites (baseline cost
    /// models, resize bookkeeping): every `add_*` call lands in both the
    /// global tally and the named kernel's tally. If a fused scope is
    /// active its name wins over `name`. A *top-level* handle additionally
    /// tallies its own charges and advances the modeled clock by them on
    /// drop (charges issued inside a scope are already covered by the
    /// enclosing unit).
    pub fn charge(&self, name: &'static str) -> Charge<'_> {
        let (name, top_level) = self.resolve(name);
        Charge {
            global: &self.counters,
            kernel: self.registry.counters(name),
            unit: top_level.then_some((self, name)),
            tally: std::cell::Cell::new(CounterSnapshot::default()),
        }
    }

    /// The one attribution unit: every launch, fused or unlaunched scope,
    /// and memset opens and closes here. The unit charges under the
    /// outermost active scope's name (`name` itself when top-level), and
    /// only a top-level unit charges its own launch (when `launches`).
    /// `body` runs with `name` pushed on the scope stack and receives the
    /// resolved attribution target. A top-level unit advances the modeled
    /// clock by its whole counter delta in one step, recorded on a
    /// profiled device as one span: a kernel span if it charges a launch,
    /// else a host span if the delta is non-zero.
    fn unit<R>(
        &self,
        name: &'static str,
        launches: bool,
        body: impl FnOnce(&'static str) -> R,
    ) -> R {
        let (target, top_level) = self.resolve(name);
        let before = top_level.then(|| self.counters.snapshot());
        if launches && top_level {
            self.counters.add_event(Event::Launches, 1);
            self.registry.counters(target).add_event(Event::Launches, 1);
        }
        self.scope.lock().push(name);
        let r = {
            let _scope = ScopeGuard { scope: &self.scope };
            body(target)
        };
        if let Some(before) = before {
            let delta = self.counters.snapshot().delta(&before);
            if launches || delta != CounterSnapshot::default() {
                self.advance_by(!launches, target, delta);
            }
        }
        r
    }

    /// Launch a named kernel.
    ///
    /// The closure runs once per warp; `warp.global_ids()` gives the 32
    /// task ids and `warp.active_mask()` has a bit per in-range task.
    /// Charges one launch (unless inside a [`Device::fused_scope`], whose
    /// name then also owns the charges) plus one warp per warp, and makes
    /// the kernel's name the attribution target for everything charged
    /// during the launch — including host-side `memset`/`alloc_words`
    /// issued from inside the kernel closure.
    pub fn launch<F>(&self, spec: KernelSpec, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        let (n_warps, n_tasks) = match spec.shape {
            LaunchShape::Tasks(n) => (n.div_ceil(WARP_SIZE), n as u64),
            LaunchShape::Warps(n) => (n, u64::MAX),
        };
        self.unit(spec.name, true, |target| {
            let kcounters = self.registry.counters(target);
            self.counters.add_event(Event::Warps, n_warps as u64);
            kcounters.add_event(Event::Warps, n_warps as u64);
            let era = self.era.fetch_add(1, Ordering::Relaxed) + 1;
            if n_warps == 0 {
                // Still one charged launch, so still one span.
                return;
            }
            let run_warp = |warp_id: usize| {
                let base = (warp_id * WARP_SIZE) as u64;
                let active_mask = if n_tasks == u64::MAX {
                    FULL_MASK
                } else {
                    let remaining = n_tasks.saturating_sub(base).min(WARP_SIZE as u64) as u32;
                    if remaining == 0 {
                        0
                    } else if remaining == 32 {
                        FULL_MASK
                    } else {
                        (1u32 << remaining) - 1
                    }
                };
                let mut warp = Warp {
                    device: self,
                    warp_id: warp_id as u32,
                    active_mask,
                    name: spec.name,
                    kernel: kcounters.clone(),
                    attempts: std::cell::RefCell::new(Vec::new()),
                    race: self
                        .san
                        .as_ref()
                        .map(|_| std::cell::RefCell::new(WarpRace::new(era, warp_id as u32))),
                };
                kernel(&mut warp);
            };
            // A threaded launch spawns one worker per warp at most; with
            // one worker it runs on the calling thread, as sequential.
            let workers = match self.policy {
                ExecPolicy::Sequential => 1,
                ExecPolicy::Threaded(threads) => threads.clamp(1, n_warps),
            };
            match workers {
                1 => {
                    for w in 0..n_warps {
                        run_warp(w);
                    }
                }
                _ => {
                    let next = std::sync::atomic::AtomicUsize::new(0);
                    std::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(|| loop {
                                let w = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if w >= n_warps {
                                    break;
                                }
                                run_warp(w);
                            });
                        }
                    });
                }
            }
            if let Some(s) = &self.san {
                s.escalate_after_launch();
            }
        });
    }

    /// Launch a named kernel with one *thread* (lane) per task, grouped
    /// into warps of 32 — the Warp Cooperative Work Sharing launch shape.
    pub fn launch_tasks<F>(&self, name: &'static str, n_tasks: usize, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        self.launch(KernelSpec::tasks(name, n_tasks), kernel);
    }

    /// Launch a named kernel with exactly `n_warps` warps, all 32 lanes
    /// active (warp-per-work-item kernels that pull work from a device
    /// queue, e.g. the paper's vertex-deletion Algorithm 2).
    pub fn launch_warps<F>(&self, name: &'static str, n_warps: usize, kernel: F)
    where
        F: Fn(&mut Warp) + Sync,
    {
        self.launch(KernelSpec::warps(name, n_warps), kernel);
    }

    /// Run `body` as a *fused section*: one logical kernel built from many
    /// helper launches. Charges a single launch under `name` (unless nested
    /// inside another scope, whose name then wins) and attributes every
    /// charge issued inside `body` — helper launches, memsets, allocations
    /// — to the outermost scope's name. Inner launches charge warps but no
    /// launches of their own.
    pub fn fused_scope<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        self.unit(name, true, |_| body())
    }

    /// Like [`Self::fused_scope`] but charges **no** launch of its own:
    /// for charged helper walks that are logically part of whatever kernel
    /// or measurement the caller is running. Attribution still goes to
    /// `name` (or the enclosing scope's name, if any). A *top-level*
    /// unlaunched scope advances the modeled clock by its counter delta,
    /// a host span on a profiled device (launch-free cost still takes
    /// time); nested scopes are covered by the enclosing unit.
    pub fn unlaunched_scope<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        self.unit(name, false, |_| body())
    }

    /// Device-side memset: fills `n` words with `v`, charged as a
    /// coalesced kernel (`⌈n/32⌉` transactions + 1 launch) under `name`
    /// (or the active scope/launch name, if any). Used to initialise slab
    /// regions to the EMPTY sentinel inside measured build phases.
    pub fn memset(&self, name: &'static str, base: Addr, n: usize, v: u32) {
        self.unit(name, true, |target| {
            let tx = (n as u64).div_ceil(SLAB_WORDS as u64);
            self.counters.add_event(Event::Transactions, tx);
            self.registry
                .counters(target)
                .add_event(Event::Transactions, tx);
            self.arena.fill(base, n, v);
        });
    }

    /// Allocate `n` words (aligned to `align`) from the arena, charging
    /// the allocation counter — to the active scope/launch if any, else to
    /// the reserved [`HOST_KERNEL`] bucket.
    ///
    /// Infallible: panics if the capacity budget or address space is
    /// exhausted. Host-side setup uses this; recoverable paths use
    /// [`Self::try_alloc_words`]. Never consults the fault plan.
    pub fn alloc_words(&self, n: usize, align: usize) -> Addr {
        self.try_alloc_words(n, align)
            .unwrap_or_else(|e| panic!("device allocation failed: {e}"))
    }

    /// Fallible arena allocation: returns a typed [`OomError`] when the
    /// capacity budget (or address space) is exhausted. Charges the
    /// allocation counter only on success; does *not* consult the fault
    /// plan (injection targets slab acquisition — see
    /// [`Self::fault_check`]).
    pub fn try_alloc_words(&self, n: usize, align: usize) -> Result<Addr, OomError> {
        let addr = match self.arena.try_alloc_words(n, align) {
            Ok(addr) => addr,
            Err(e) => {
                self.instant("oom", format!("arena alloc of {n} words failed: {e}"));
                return Err(e);
            }
        };
        let (name, _) = self.resolve(HOST_KERNEL);
        self.counters.add_event(Event::WordsAllocated, n as u64);
        self.registry
            .counters(name)
            .add_event(Event::WordsAllocated, n as u64);
        Ok(addr)
    }

    // ---- host transfers: uncharged, since the paper does not "include the
    // time required to transfer memory between CPU and GPU". Written words
    // are marked initialised; racecheck sees only `Warp` accessors. ----

    /// Stage `data` in a fresh slab-aligned buffer of `max(⌈len/32⌉·32, 32)`
    /// words (only the allocation is charged), padding the rest with `pad`
    /// so whole-slab kernel reads stay initialised. Panics on OOM.
    pub fn upload(&self, data: &[u32], pad: u32) -> Addr {
        self.try_upload(data, pad)
            .unwrap_or_else(|e| panic!("host upload failed: {e}"))
    }

    /// Fallible [`Self::upload`]: fails before writing anything.
    pub fn try_upload(&self, data: &[u32], pad: u32) -> Result<Addr, OomError> {
        let words = data.len().div_ceil(SLAB_WORDS).max(1) * SLAB_WORDS;
        let buf = self.try_alloc_words(words, SLAB_WORDS)?;
        self.host_write(buf, data);
        let tail = buf + data.len() as u32;
        self.arena.fill(tail, words - data.len(), pad);
        Ok(buf)
    }

    /// Copy `data` to device memory at `base`.
    pub fn host_write(&self, base: Addr, data: &[u32]) {
        for (i, &w) in data.iter().enumerate() {
            self.arena.store(base + i as u32, w);
        }
    }

    /// Copy `out.len()` words starting at `base` back to the host.
    pub fn host_read(&self, base: Addr, out: &mut [u32]) {
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.arena.load(base + i as u32);
        }
    }

    /// Atomic AND returning the previous word: for host bookkeeping that
    /// races with kernels on the same word (the slab allocator's drain).
    pub fn host_atomic_and(&self, addr: Addr, mask: u32) -> u32 {
        self.arena.fetch_and(addr, mask)
    }

    /// Words handed out by the allocator so far (the arena's bump cursor).
    pub fn allocated_words(&self) -> u64 {
        self.arena.allocated_words()
    }

    /// The allocation budget in words (`u64::MAX` when unbounded).
    pub fn capacity_words(&self) -> u64 {
        self.arena.capacity_words()
    }

    /// Change the allocation budget at runtime (e.g. to model growing the
    /// pool after a recoverable OOM).
    pub fn set_capacity_words(&self, capacity_words: u64) {
        self.arena.set_capacity_words(capacity_words);
    }

    /// Install a deterministic [`FaultPlan`]; resets the plan's allocation
    /// index so schedules are reproducible from this point.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Remove any installed fault plan.
    pub fn clear_fault_plan(&self) {
        self.faults.clear_plan();
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.plan()
    }

    /// Total allocation failures injected by fault plans on this device.
    pub fn injected_faults(&self) -> u64 {
        self.faults.injected()
    }

    /// Consult the installed fault plan at a fallible allocation site:
    /// consumes one allocation index and returns the injected failure if
    /// the plan schedules one. Uncharged (bookkeeping, not simulated
    /// work), so counter attribution is identical with and without a plan.
    pub fn fault_check(&self) -> Result<(), OomError> {
        if self.faults.plan().is_none() {
            return Ok(());
        }
        let kernel = self.scope.lock().first().copied();
        let r = self.faults.check(kernel);
        if let Err(e) = &r {
            self.instant("fault_injected", e.to_string());
        }
        r
    }

    /// Admit a batch of launches against the device-level fault plan.
    /// Dispatchers call this *before* touching the device; a lost device
    /// fails every admission until [`Self::reset`], a transient plan fails
    /// a bounded run of admissions and then heals. Uncharged, like
    /// [`Self::fault_check`] — admission is bookkeeping, not device work.
    pub fn launch_check(&self) -> Result<(), crate::fault::DeviceFault> {
        let r = self.faults.check_launch();
        if let Err(e) = &r {
            self.instant("device_fault", e.to_string());
        }
        r
    }

    /// Whether the device is currently lost (a terminal
    /// [`crate::fault::DeviceFault::Lost`] tripped and no reset has
    /// happened since).
    pub fn is_lost(&self) -> bool {
        self.faults.is_lost()
    }

    /// Total device faults surfaced at launch admission on this device.
    pub fn device_faults(&self) -> u64 {
        self.faults.device_faults()
    }

    /// Recover a lost device: wipe the arena back to an empty, zeroed
    /// state (freeing the whole capacity budget), reset the sanitizer's
    /// shadow state (accumulated findings survive — a reset must not erase
    /// evidence), and clear the lost latch plus any fault plans. Counters
    /// and the kernel registry are *cumulative* and keep their tallies, so
    /// rebuild work after a reset stays visible in traces. The caller is
    /// responsible for rebuilding whatever structures lived in the arena.
    pub fn reset(&self) {
        self.arena.reset();
        if let Some(s) = &self.san {
            s.reset_shadow();
        }
        self.faults.reset_device();
        self.instant("device_reset", String::new());
    }
}

/// Pops the scope stack on exit, including panic unwinds (kernels panic in
/// invariant-violation tests; the stack must stay balanced).
struct ScopeGuard<'a> {
    scope: &'a parking_lot::Mutex<Vec<&'static str>>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        self.scope.lock().pop();
    }
}

/// Per-warp execution context handed to kernels.
///
/// All memory operations and intrinsics on this type charge the device's
/// [`PerfCounters`] and the owning kernel's per-name counters; pure helpers
/// live in [`crate::lanes`].
pub struct Warp<'d> {
    device: &'d Device,
    warp_id: u32,
    active_mask: u32,
    /// The launched kernel's own name (innermost, not the fused-scope
    /// attribution target) — sanitizer findings carry it as provenance.
    name: &'static str,
    /// The counters of the kernel this warp belongs to (resolved at
    /// launch, so charging from worker threads never touches the registry).
    kernel: Arc<PerfCounters>,
    /// Stack of in-flight speculative attempts (see [`Self::begin_attempt`]).
    /// Charges land in the innermost open attempt instead of the counters;
    /// a `Warp` never crosses threads, so `RefCell` suffices.
    attempts: std::cell::RefCell<Vec<CounterSnapshot>>,
    /// Racecheck vector-clock state, present iff a sanitizer is attached.
    race: Option<std::cell::RefCell<WarpRace>>,
}

impl<'d> Warp<'d> {
    /// This warp's id within the launch.
    #[inline]
    pub fn warp_id(&self) -> u32 {
        self.warp_id
    }

    /// Bit *i* set iff lane *i* has an in-range task.
    #[inline]
    pub fn active_mask(&self) -> u32 {
        self.active_mask
    }

    /// Whether `lane` is active in this launch.
    #[inline]
    pub fn is_active(&self, lane: usize) -> bool {
        self.active_mask & (1 << lane) != 0
    }

    /// Global thread (task) ids for each lane.
    #[inline]
    pub fn global_ids(&self) -> Lanes<u32> {
        let base = self.warp_id * WARP_SIZE as u32;
        Lanes::from_fn(|i| base + i as u32)
    }

    /// The owning device (for nested structures needing raw access).
    #[inline]
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The name of the kernel this warp is executing (the launch's own
    /// name, even inside a fused scope).
    #[inline]
    pub fn kernel_name(&self) -> &'static str {
        self.name
    }

    /// Hand a contiguous access to the sanitizer, if one is attached.
    /// Never charges; a single `Option` check when sanitizing is off.
    #[inline]
    fn san_access(&self, base: Addr, len: u32, kind: AccessKind) {
        if let (Some(s), Some(r)) = (&self.device.san, &self.race) {
            s.on_warp_access(
                &mut r.borrow_mut(),
                self.warp_id,
                self.name,
                base,
                len,
                kind,
                self.device.arena.allocated_words(),
            );
        }
    }

    /// Sanitize a masked scattered access, word by word.
    fn san_lanes(&self, addrs: &Lanes<Addr>, mask: u32, kind: AccessKind) {
        if self.device.san.is_none() {
            return;
        }
        for i in 0..WARP_SIZE {
            if mask & (1 << i) != 0 {
                self.san_access(addrs.0[i], 1, kind);
            }
        }
    }

    /// Charge `n` of one event to the innermost open attempt, or else to
    /// the device and kernel counters.
    #[inline]
    fn charge_event(&self, event: Event, n: u64) {
        if let Some(t) = self.attempts.borrow_mut().last_mut() {
            t.add_event(event, n);
            return;
        }
        self.device.counters.add_event(event, n);
        self.kernel.add_event(event, n);
    }

    // ---- speculative attempt charging ----
    //
    // Lock-free retry loops (slab claims, link CAS races, descriptor
    // installs) re-execute reads/ballots when a CAS loses a race. How
    // often that happens depends on the executor's interleaving, so
    // charging per *physical* retry makes per-kernel profiles
    // executor-dependent. Retry sites instead wrap each attempt in
    // `begin_attempt`/`commit_attempt` and call `abort_attempt` on the
    // contention-induced path, charging per *logical* probe step: the
    // committed charges are exactly what a sequential executor — where
    // losers simply run after winners — would have charged.

    /// Open a speculative attempt: subsequent charges on this warp are
    /// buffered until [`Self::commit_attempt`] or [`Self::abort_attempt`].
    /// Attempts nest; charges commit into the enclosing attempt first.
    pub fn begin_attempt(&self) {
        self.attempts.borrow_mut().push(CounterSnapshot::default());
    }

    /// Commit the innermost attempt: merge its buffered charges into the
    /// enclosing attempt, or into the real counters if none is open.
    pub fn commit_attempt(&self) {
        let t = {
            let mut stack = self.attempts.borrow_mut();
            let t = stack.pop().expect("commit_attempt without begin_attempt");
            if let Some(parent) = stack.last_mut() {
                *parent += t;
                return;
            }
            t
        };
        self.device.counters.add_all(t);
        self.kernel.add_all(t);
    }

    /// Discard the innermost attempt's buffered charges (the attempt was
    /// voided by a lost race and will be re-executed).
    pub fn abort_attempt(&self) {
        self.attempts
            .borrow_mut()
            .pop()
            .expect("abort_attempt without begin_attempt");
    }

    /// Run `f` with all charges discarded — for cleanup work (e.g. freeing
    /// a speculatively allocated slab) that a sequential executor would
    /// never perform.
    pub fn uncharged<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        self.begin_attempt();
        let r = f(self);
        self.abort_attempt();
        r
    }

    // ---- warp intrinsics (charged) ----

    /// `__ballot_sync(FULL_MASK, …)`: all 32 lanes participate.
    ///
    /// Warp-cooperative data-structure code requires the *whole* warp to
    /// execute the ballot even when fewer than 32 tasks are in range (the
    /// paper's WCWS strategy: "it requires all threads within a warp to be
    /// active"). Task validity must therefore be folded into the predicate
    /// itself (e.g. via [`Self::is_active`]), not into the ballot mask.
    #[inline]
    pub fn ballot(&self, preds: &Lanes<bool>) -> u32 {
        self.charge_event(Event::Ballots, 1);
        lanes::ballot(FULL_MASK, preds)
    }

    /// `__shfl_sync` broadcast: every lane reads `src_lane`'s value.
    #[inline]
    pub fn shuffle<T: Copy>(&self, vals: &Lanes<T>, src_lane: u32) -> T {
        self.charge_event(Event::Shuffles, 1);
        lanes::shuffle(vals, src_lane)
    }

    /// `__shfl_sync` indexed form.
    #[inline]
    pub fn shuffle_idx<T: Copy>(&self, vals: &Lanes<T>, idx: &Lanes<u32>) -> Lanes<T> {
        self.charge_event(Event::Shuffles, 1);
        lanes::shuffle_idx(vals, idx)
    }

    // ---- memory operations (charged) ----

    /// Coalesced read of one 128 B slab: lane *i* receives word `base+i`.
    /// One transaction.
    #[inline]
    pub fn read_slab(&self, base: Addr) -> Lanes<u32> {
        self.charge_event(Event::Transactions, 1);
        self.san_access(base, SLAB_WORDS as u32, AccessKind::PlainRead);
        Lanes(self.device.arena.load_slab(base))
    }

    /// Coalesced write of one 128 B slab. One transaction.
    #[inline]
    pub fn write_slab(&self, base: Addr, words: &Lanes<u32>) {
        self.charge_event(Event::Transactions, 1);
        self.san_access(base, SLAB_WORDS as u32, AccessKind::PlainWrite);
        self.device.arena.store_slab(base, &words.0);
    }

    /// Scattered per-lane reads: lane *i* (if set in `mask`) loads
    /// `addrs[i]`. Charged one transaction per distinct 128 B segment
    /// touched, exactly like hardware coalescing.
    pub fn read_lanes(&self, addrs: &Lanes<Addr>, mask: u32) -> Lanes<u32> {
        self.charge_scattered(addrs, mask);
        self.san_lanes(addrs, mask, AccessKind::PlainRead);
        Lanes::from_fn(|i| {
            if mask & (1 << i) != 0 {
                self.device.arena.load(addrs.0[i])
            } else {
                0
            }
        })
    }

    /// Scattered per-lane writes with coalescing-aware charging.
    pub fn write_lanes(&self, addrs: &Lanes<Addr>, vals: &Lanes<u32>, mask: u32) {
        self.charge_scattered(addrs, mask);
        self.san_lanes(addrs, mask, AccessKind::PlainWrite);
        for i in 0..WARP_SIZE {
            if mask & (1 << i) != 0 {
                self.device.arena.store(addrs.0[i], vals.0[i]);
            }
        }
    }

    fn charge_scattered(&self, addrs: &Lanes<Addr>, mask: u32) {
        let mut segs: [u32; WARP_SIZE] = [u32::MAX; WARP_SIZE];
        let mut n = 0usize;
        for i in 0..WARP_SIZE {
            if mask & (1 << i) != 0 {
                let seg = addrs.0[i] / SLAB_WORDS as u32;
                if !segs[..n].contains(&seg) {
                    segs[n] = seg;
                    n += 1;
                }
            }
        }
        self.charge_event(Event::Transactions, n as u64);
    }

    /// Single-word read issued by one lane (uniform warp read). One
    /// transaction.
    #[inline]
    pub fn read_word(&self, addr: Addr) -> u32 {
        self.charge_event(Event::Transactions, 1);
        self.san_access(addr, 1, AccessKind::PlainRead);
        self.device.arena.load(addr)
    }

    /// Single-word write issued by one lane. One transaction.
    #[inline]
    pub fn write_word(&self, addr: Addr, v: u32) {
        self.charge_event(Event::Transactions, 1);
        self.san_access(addr, 1, AccessKind::PlainWrite);
        self.device.arena.store(addr, v);
    }

    /// `atomicCAS` issued by one lane.
    #[inline]
    pub fn atomic_cas(&self, addr: Addr, expected: u32, new: u32) -> Result<u32, u32> {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 1, AccessKind::Atomic);
        self.device.arena.cas(addr, expected, new)
    }

    /// 64-bit `atomicCAS` issued by one lane on the word pair at the even
    /// address `addr`: `expected` and `new` are ⟨word `addr`, word
    /// `addr + 1`⟩. One atomic, one 2-word atomic access to the sanitizer.
    #[inline]
    pub fn atomic_cas_pair(
        &self,
        addr: Addr,
        expected: [u32; 2],
        new: [u32; 2],
    ) -> Result<[u32; 2], [u32; 2]> {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 2, AccessKind::Atomic);
        self.device.arena.cas_pair(addr, expected, new)
    }

    /// `atomicExch` issued by one lane.
    #[inline]
    pub fn atomic_exchange(&self, addr: Addr, v: u32) -> u32 {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 1, AccessKind::Atomic);
        self.device.arena.exchange(addr, v)
    }

    /// `atomicAdd` issued by one lane.
    #[inline]
    pub fn atomic_add(&self, addr: Addr, v: u32) -> u32 {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 1, AccessKind::Atomic);
        self.device.arena.fetch_add(addr, v)
    }

    /// `atomicSub` issued by one lane.
    #[inline]
    pub fn atomic_sub(&self, addr: Addr, v: u32) -> u32 {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 1, AccessKind::Atomic);
        self.device.arena.fetch_sub(addr, v)
    }

    /// `atomicOr` issued by one lane.
    #[inline]
    pub fn atomic_or(&self, addr: Addr, v: u32) -> u32 {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 1, AccessKind::Atomic);
        self.device.arena.fetch_or(addr, v)
    }

    /// `atomicAnd` issued by one lane.
    #[inline]
    pub fn atomic_and(&self, addr: Addr, v: u32) -> u32 {
        self.charge_event(Event::Atomics, 1);
        self.san_access(addr, 1, AccessKind::Atomic);
        self.device.arena.fetch_and(addr, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(dev: &Device, addr: Addr) -> u32 {
        let mut w = [0];
        dev.host_read(addr, &mut w);
        w[0]
    }

    #[test]
    fn launch_tasks_covers_all_tasks_once() {
        let dev = Device::new(1024);
        let out = dev.alloc_words(100, 1);
        dev.host_write(out, &[0; 100]);
        dev.launch_tasks("count", 100, |warp| {
            let ids = warp.global_ids();
            for (lane, id) in ids.iter() {
                if warp.is_active(lane) {
                    warp.atomic_add(out + id, 1);
                }
            }
        });
        for i in 0..100 {
            assert_eq!(load(&dev, out + i), 1, "task {i}");
        }
    }

    #[test]
    fn one_warp_threaded_launch_runs_on_the_calling_thread() {
        let dev = Device::with_policy(1024, ExecPolicy::Threaded(4));
        let ran_on = parking_lot::Mutex::new(None);
        dev.launch_warps("threads", 1, |_| {
            *ran_on.lock() = Some(std::thread::current().id());
        });
        assert_eq!(
            ran_on.into_inner(),
            Some(std::thread::current().id()),
            "a one-warp launch spawns no thread"
        );
    }

    #[test]
    fn try_upload_pads_to_the_slab_boundary_and_charges_only_the_allocation() {
        let dev = Device::new(1024);
        let before = dev.counters().snapshot();
        let data: Vec<u32> = (1..=40).collect();
        let buf = dev.try_upload(&data, 7).unwrap();
        assert_eq!(buf as usize % SLAB_WORDS, 0);
        let mut words = [0; 2 * SLAB_WORDS];
        dev.host_read(buf, &mut words);
        assert_eq!(words[..40], data[..]);
        assert!(words[40..].iter().all(|&w| w == 7), "{words:?}");
        let d = dev.counters().snapshot().delta(&before);
        let expected = crate::counters::CounterSnapshot {
            words_allocated: 2 * SLAB_WORDS as u64,
            ..Default::default()
        };
        assert_eq!(d, expected);
    }

    #[test]
    fn empty_upload_allocates_one_padded_slab() {
        let dev = Device::new(1024);
        let buf = dev.try_upload(&[], 9).unwrap();
        let next = dev.alloc_words(1, 1);
        assert_eq!(next, buf + SLAB_WORDS as u32, "one whole slab allocated");
        let mut words = [0; SLAB_WORDS];
        dev.host_read(buf, &mut words);
        assert_eq!(words, [9; SLAB_WORDS]);
    }

    #[test]
    fn host_write_and_read_round_trip_uncharged() {
        let dev = Device::new(1024);
        let p = dev.alloc_words(50, 1);
        let before = dev.trace();
        let data: Vec<u32> = (0..50).map(|i| i * 3 + 1).collect();
        dev.host_write(p, &data);
        let mut back = vec![0; 50];
        dev.host_read(p, &mut back);
        assert_eq!(back, data);
        assert_eq!(dev.host_atomic_and(p, 0b10), 1);
        assert_eq!(load(&dev, p), 0);
        let d = dev.trace().delta(&before);
        assert_eq!(d.global, crate::counters::CounterSnapshot::default());
        assert!(d.kernels.is_empty(), "{:?}", d.kernels);
    }

    #[test]
    fn kernel_reading_upload_pad_words_is_initcheck_clean() {
        let dev =
            Device::with_config(DeviceConfig::new(1024).with_sanitizer(SanitizerConfig::default()));
        let buf = dev.upload(&[1, 2, 3], u32::MAX);
        dev.launch_warps("read_pad", 1, |warp| {
            let _ = warp.read_slab(buf);
        });
        assert!(dev.sanitizer_findings().is_empty());
        // The same read of a never-written slab is flagged, so the check
        // above is not vacuous.
        let raw = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        dev.launch_warps("read_raw", 1, |warp| {
            let _ = warp.read_slab(raw);
        });
        assert!(!dev.sanitizer_findings().is_empty());
    }

    #[test]
    fn partial_warp_active_mask() {
        let dev = Device::new(64);
        let seen = std::sync::Mutex::new(vec![]);
        dev.launch_tasks("masks", 40, |warp| {
            seen.lock()
                .unwrap()
                .push((warp.warp_id(), warp.active_mask()));
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, FULL_MASK));
        assert_eq!(seen[1], (1, (1 << 8) - 1));
    }

    #[test]
    fn zero_tasks_launches_zero_warps() {
        let dev = Device::new(64);
        let ran = std::sync::atomic::AtomicUsize::new(0);
        dev.launch_tasks("empty", 0, |_| {
            ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(dev.counters().snapshot().launches, 1);
    }

    #[test]
    fn slab_read_costs_one_transaction() {
        let dev = Device::new(1024);
        let slab = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        dev.host_write(slab, &[0; SLAB_WORDS]);
        let before = dev.counters().snapshot();
        dev.launch_tasks("slab_read", 32, |warp| {
            let _ = warp.read_slab(slab);
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.transactions, 1);
        assert_eq!(d.launches, 1);
        assert_eq!(d.warps, 1);
    }

    #[test]
    fn scattered_access_charges_by_segment() {
        let dev = Device::new(4096);
        let base = dev.alloc_words(32 * SLAB_WORDS, SLAB_WORDS);
        dev.host_write(base, &[0; 32 * SLAB_WORDS]);
        let before = dev.counters().snapshot();
        dev.launch_tasks("scatter", 32, |warp| {
            // All 32 lanes touch 32 different slabs: 32 transactions.
            let addrs = Lanes::from_fn(|i| base + (i * SLAB_WORDS) as u32);
            let _ = warp.read_lanes(&addrs, FULL_MASK);
            // All 32 lanes touch the same slab: 1 transaction.
            let same = Lanes::from_fn(|i| base + i as u32);
            let _ = warp.read_lanes(&same, FULL_MASK);
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.transactions, 33);
    }

    #[test]
    fn ballots_and_shuffles_are_charged() {
        let dev = Device::new(64);
        let before = dev.counters().snapshot();
        dev.launch_tasks("intrinsics", 32, |warp| {
            let preds = Lanes::splat(true);
            let b = warp.ballot(&preds);
            assert_eq!(b, FULL_MASK);
            let vals = Lanes::from_fn(|i| i as u32);
            let v = warp.shuffle(&vals, 3);
            assert_eq!(v, 3);
        });
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.ballots, 1);
        assert_eq!(d.shuffles, 1);
    }

    #[test]
    fn threaded_and_sequential_agree_on_commutative_kernel() {
        let run = |policy| {
            let dev = Device::with_policy(4096, policy);
            let out = dev.alloc_words(1, 1);
            dev.host_write(out, &[0]);
            dev.launch_tasks("sum", 10_000, |warp| {
                let mask = warp.active_mask();
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) != 0 {
                        warp.atomic_add(out, 1);
                    }
                }
            });
            load(&dev, out)
        };
        assert_eq!(run(ExecPolicy::Sequential), 10_000);
        assert_eq!(run(ExecPolicy::Threaded(4)), 10_000);
    }

    #[test]
    fn memset_charges_coalesced_transactions() {
        let dev = Device::new(4096);
        let p = dev.alloc_words(320, 32);
        let before = dev.counters().snapshot();
        dev.memset("fill", p, 320, u32::MAX);
        let d = dev.counters().snapshot().delta(&before);
        assert_eq!(d.transactions, 10);
        assert_eq!(load(&dev, p + 319), u32::MAX);
    }

    #[test]
    fn launch_warps_runs_exact_warp_count() {
        let dev = Device::new(64);
        let count = std::sync::atomic::AtomicUsize::new(0);
        dev.launch_warps("exact", 7, |warp| {
            assert_eq!(warp.active_mask(), FULL_MASK);
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 7);
    }

    // ---- attribution ----

    fn kernel_counters(dev: &Device, name: &str) -> crate::counters::CounterSnapshot {
        dev.trace()
            .kernels
            .into_iter()
            .find(|k| k.name == name)
            .map(|k| k.counters)
            .unwrap_or_default()
    }

    #[test]
    fn launches_attribute_to_their_kernel_name() {
        let dev = Device::new(1024);
        let out = dev.alloc_words(1, 1);
        dev.host_write(out, &[0]);
        dev.launch_tasks("alpha", 64, |warp| {
            warp.atomic_add(out, 1);
        });
        dev.launch_tasks("beta", 32, |warp| {
            let _ = warp.read_word(out);
        });
        let alpha = kernel_counters(&dev, "alpha");
        assert_eq!(alpha.launches, 1);
        assert_eq!(alpha.warps, 2);
        assert_eq!(alpha.atomics, 2);
        assert_eq!(alpha.transactions, 0);
        let beta = kernel_counters(&dev, "beta");
        assert_eq!(beta.launches, 1);
        assert_eq!(beta.warps, 1);
        assert_eq!(beta.transactions, 1);
        // Host-side alloc before any launch lands in the reserved bucket.
        assert_eq!(kernel_counters(&dev, HOST_KERNEL).words_allocated, 1);
    }

    #[test]
    fn per_kernel_counters_sum_to_global() {
        let dev = Device::new(4096);
        let p = dev.alloc_words(64, 32);
        dev.memset("init", p, 64, 0);
        dev.launch_tasks("work", 100, |warp| {
            let preds = Lanes::splat(true);
            let _ = warp.ballot(&preds);
            warp.atomic_add(p, 1);
        });
        dev.fused_scope("fused", || {
            dev.launch_warps("helper", 2, |warp| {
                let _ = warp.read_word(p);
            });
        });
        let trace = dev.trace();
        assert_eq!(trace.kernel_sum(), trace.global);
    }

    #[test]
    fn fused_scope_owns_inner_launches() {
        let dev = Device::new(1024);
        let p = dev.alloc_words(32, 32);
        dev.host_write(p, &[0; 32]);
        let before = dev.trace();
        dev.fused_scope("outer", || {
            dev.launch_warps("inner_a", 1, |warp| {
                let _ = warp.read_word(p);
            });
            dev.memset("inner_b", p, 32, 0);
        });
        let d = dev.trace().delta(&before);
        // One launch total, everything under the scope's name.
        assert_eq!(d.global.launches, 1);
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "outer");
        assert_eq!(d.kernels[0].counters.launches, 1);
        assert_eq!(d.kernels[0].counters.warps, 1);
        assert_eq!(d.kernels[0].counters.transactions, 2);
        assert_eq!(d.kernel_sum(), d.global);
    }

    #[test]
    fn memset_inside_kernel_attributes_to_launch() {
        let dev = Device::new(4096);
        let p = dev.alloc_words(64, 32);
        let before = dev.trace();
        dev.launch_warps("rehash_like", 1, |warp| {
            warp.device().memset("unused_name", p, 64, 0);
        });
        let d = dev.trace().delta(&before);
        assert_eq!(d.global.launches, 1, "inner memset is fused");
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "rehash_like");
        assert_eq!(d.kernels[0].counters.transactions, 2);
        assert_eq!(d.kernel_sum(), d.global);
    }

    #[test]
    fn sanitizer_detects_torn_counter_even_sequentially() {
        // Model-based racecheck: the sequential executor reports the same
        // logical race a threaded run could hit.
        let dev =
            Device::with_config(DeviceConfig::new(1024).with_sanitizer(SanitizerConfig::default()));
        let c = dev.alloc_words(1, 1);
        dev.host_write(c, &[0]);
        dev.launch_tasks("torn", 64, |warp| {
            let v = warp.read_word(c);
            warp.write_word(c, v + 1);
        });
        let f = dev.sanitizer_findings();
        assert!(!f.is_empty());
        assert!(f.iter().all(|x| x.kernel == "torn" && x.addr == c), "{f:?}");
    }

    #[test]
    fn sanitizer_charges_nothing() {
        let run = |sanitize: bool| {
            let mut cfg = DeviceConfig::new(4096);
            cfg.sanitize = sanitize.then(SanitizerConfig::default);
            let dev = Device::with_config(cfg);
            let p = dev.alloc_words(64, 32);
            dev.memset("init", p, 64, 0);
            dev.launch_tasks("work", 200, |warp| {
                let v = warp.read_word(p);
                warp.atomic_add(p + 1, v + 1);
                let _ = warp.read_slab(p + 32);
            });
            dev.trace()
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.global, off.global);
        assert_eq!(on.kernels.len(), off.kernels.len());
        for (a, b) in on.kernels.iter().zip(off.kernels.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.counters, b.counters);
        }
    }

    #[test]
    fn config_capacity_makes_device_alloc_fallible() {
        let dev = Device::with_config(DeviceConfig::new(64).with_capacity_words(100));
        assert_eq!(dev.capacity_words(), 100);
        assert!(dev.try_alloc_words(64, 1).is_ok());
        let before = dev.counters().snapshot().words_allocated;
        let err = dev.try_alloc_words(64, 1).unwrap_err();
        assert!(matches!(err, OomError::Capacity { .. }));
        // Failed allocations charge nothing.
        assert_eq!(dev.counters().snapshot().words_allocated, before);
        dev.set_capacity_words(u64::MAX);
        assert!(dev.try_alloc_words(64, 1).is_ok());
    }

    #[test]
    fn fault_check_reports_enclosing_kernel() {
        let dev = Device::new(64);
        dev.set_fault_plan(FaultPlan::fail_in_kernel("victim"));
        assert!(dev.fault_check().is_ok(), "outside any kernel");
        let seen = parking_lot::Mutex::new(None);
        dev.launch_warps("victim", 1, |_warp| {
            *seen.lock() = Some(dev.fault_check());
        });
        assert_eq!(
            seen.into_inner(),
            Some(Err(OomError::Injected {
                alloc_index: 2,
                kernel: Some("victim")
            }))
        );
        dev.launch_warps("bystander", 1, |_warp| {
            assert!(dev.fault_check().is_ok());
        });
        dev.clear_fault_plan();
        assert_eq!(dev.injected_faults(), 1);
        assert!(dev.fault_plan().is_none());
    }

    #[test]
    fn fault_plan_fails_nth_fallible_allocation() {
        let dev = Device::new(1024);
        dev.set_fault_plan(FaultPlan::fail_nth(2));
        assert!(dev.fault_check().is_ok());
        assert!(dev.fault_check().is_err());
        assert!(dev.fault_check().is_ok());
    }

    #[test]
    fn nested_attempts_fold_into_their_parent_and_only_the_outermost_commit_charges() {
        let dev = Device::new(1024);
        let p = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        dev.host_write(p, &[0; SLAB_WORDS]);
        let zero = crate::counters::CounterSnapshot::default();
        let committed = crate::counters::CounterSnapshot {
            transactions: 1,
            atomics: 1,
            ballots: 1,
            ..zero
        };
        let before = dev.trace();
        dev.launch_warps("speculate", 1, |warp| {
            let d = warp.device();
            let mid = d.trace();
            let charged_since_mid = || {
                let t = d.trace().delta(&mid);
                let kernel = t.kernels.first().map(|k| k.counters).unwrap_or_default();
                (t.global, kernel)
            };
            warp.begin_attempt();
            let _ = warp.read_slab(p);
            warp.begin_attempt();
            let _ = warp.ballot(&Lanes::splat(true));
            warp.atomic_add(p, 1);
            warp.commit_attempt();
            assert_eq!(
                charged_since_mid(),
                (zero, zero),
                "inner commit folds into the parent"
            );
            warp.begin_attempt();
            let _ = warp.shuffle(&Lanes::splat(1u32), 0);
            let _ = warp.read_word(p);
            warp.abort_attempt();
            warp.uncharged(|w| {
                w.atomic_add(p, 1);
                let _ = w.read_slab(p);
            });
            assert_eq!(charged_since_mid(), (zero, zero), "aborted and uncharged");
            warp.commit_attempt();
            assert_eq!(
                charged_since_mid(),
                (committed, committed),
                "outermost commit"
            );
        });
        let d = dev.trace().delta(&before);
        let expected = crate::counters::CounterSnapshot {
            launches: 1,
            warps: 1,
            ..committed
        };
        assert_eq!(d.global, expected);
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "speculate");
        assert_eq!(d.kernels[0].counters, expected);
    }

    #[test]
    fn each_unit_kind_records_its_span_rule() {
        use crate::counters::CounterSnapshot;
        let dev =
            Device::with_config(DeviceConfig::new(1024).with_profiler(ProfilerConfig::default()));
        let p = dev.alloc_words(64, 32);
        let prof = dev.profiler().unwrap().clone();
        let spans = || prof.timeline().spans;
        let host_spans = || prof.timeline().host_spans;
        // A launch-charging unit records one kernel span of its whole
        // delta, even when a nested charge adds launches of its own.
        dev.fused_scope("fused", || {
            dev.memset("inner", p, 64, 0);
            dev.charge("inner_charge").add_launches(2);
        });
        assert_eq!(spans().len(), 1);
        assert_eq!(spans()[0].name, "fused");
        assert_eq!(
            spans()[0].counters,
            CounterSnapshot {
                transactions: 2,
                launches: 3,
                ..Default::default()
            }
        );
        // A launch-free unit records a host span only for a non-zero delta.
        dev.unlaunched_scope("idle", || {});
        assert!(host_spans().is_empty());
        dev.unlaunched_scope("walk", || dev.charge("inner").add_transactions(5));
        assert_eq!(host_spans().len(), 1);
        assert_eq!(host_spans()[0].name, "walk");
        assert_eq!(host_spans()[0].counters.transactions, 5);
        // A top-level charge splits into one kernel span per launch.
        let c = dev.charge("manual");
        c.add_launches(3);
        c.add_transactions(7);
        drop(c);
        let manual: Vec<u64> = spans()[1..]
            .iter()
            .map(|s| s.counters.transactions)
            .collect();
        assert_eq!(manual, [3, 2, 2]);
        assert!(spans()[1..]
            .iter()
            .all(|s| s.name == "manual" && s.counters.launches == 1));
        // A plain launch and a top-level memset: one span each.
        dev.launch_warps("plain", 2, |_| {});
        dev.memset("fill", p, 64, 0);
        let tail: Vec<&str> = spans()[4..].iter().map(|s| s.name).collect();
        assert_eq!(tail, ["plain", "fill"]);
        assert_eq!(prof.timeline().stats.spans_recorded, 6);
    }

    #[test]
    fn clock_runs_without_a_profiler_and_the_spans_partition_it() {
        let run = |profile: bool| {
            let mut cfg = DeviceConfig::new(1024);
            if profile {
                cfg = cfg.with_profiler(ProfilerConfig::default());
            }
            let dev = Device::with_config(cfg);
            let p = dev.alloc_words(64, 32);
            {
                let _phase = dev.phase("work");
                dev.launch_warps("k", 2, |_| {});
                dev.memset("fill", p, 64, 0);
                let c = dev.charge("sort");
                c.add_launches(3);
                c.add_transactions(7);
            }
            dev.wait("backoff", 1e-4);
            dev
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.clock_s(), off.clock_s(), "a profiler never moves it");
        let modeled = CostModel::titan_v().seconds(&off.counters().snapshot());
        assert!((off.clock_s() - (modeled + 1e-4)).abs() < 1e-15);
        let t = on.profiler().unwrap().timeline();
        assert_eq!(t.spans.len(), 5, "one kernel span per launch");
        let span_total: f64 = t.spans.iter().chain(&t.host_spans).map(|s| s.dur_s).sum();
        assert!((span_total - on.clock_s()).abs() < 1e-15);
        let wait = t.host_spans.last().unwrap();
        assert_eq!((wait.name, wait.dur_s), ("backoff", 1e-4));
        assert_eq!(wait.counters, crate::counters::CounterSnapshot::default());
        assert_eq!(wait.start_s, on.clock_s() - 1e-4);
        // The phase spans the work, stamped from the same clock.
        assert_eq!(t.phases[0].start_s, 0.0);
        assert_eq!(t.phases[0].dur_s, wait.start_s);
    }

    #[test]
    fn instants_stamp_current_time() {
        let dev =
            Device::with_config(DeviceConfig::new(1024).with_profiler(ProfilerConfig::default()));
        dev.launch_warps("k", 1, |_| {});
        let after_k = dev.clock_s();
        assert!(after_k > 0.0);
        dev.instant("oom", "slab pool exhausted");
        // Inside a launch the clock has not advanced yet: the instant
        // carries the enclosing span's start time.
        dev.launch_warps("inner", 1, |w| w.device().instant("in_launch", "x"));
        dev.reset();
        let t = dev.profiler().unwrap().timeline();
        let stamps: Vec<(&str, f64, &str)> = t
            .instants
            .iter()
            .map(|i| (i.name, i.at_s, i.detail.as_str()))
            .collect();
        assert_eq!(
            stamps,
            [
                ("oom", after_k, "slab pool exhausted"),
                ("in_launch", after_k, "x"),
                ("device_reset", dev.clock_s(), ""),
            ]
        );
        assert!(dev.clock_s() > after_k);
        // Without a profiler an instant records nothing and costs nothing.
        let off = Device::new(64);
        off.instant("oom", "ignored");
        assert_eq!(off.clock_s(), 0.0);
    }

    #[test]
    fn charge_handle_dual_charges() {
        let dev = Device::new(64);
        let before = dev.trace();
        let c = dev.charge("manual");
        c.add_launches(1);
        c.add_transactions(5);
        c.add_atomics(2);
        drop(c);
        let d = dev.trace().delta(&before);
        assert_eq!(d.global.launches, 1);
        assert_eq!(d.global.transactions, 5);
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].name, "manual");
        assert_eq!(d.kernels[0].counters.atomics, 2);
        assert_eq!(d.kernel_sum(), d.global);
    }
}
