//! [`FairRankService`]: the async-first serving tier.
//!
//! The synchronous [`FairRanker`] API answers pre-assembled batches; a
//! production front door sees *individual* requests arriving
//! continuously and concurrently with item updates. The service bridges
//! the two shapes:
//!
//! ```text
//!  suggest / suggest_timeout ──┐  enqueue only
//!  submit / try_suggest ───────┤  enqueue + wake a pool worker
//!                              ▼
//!                 bounded FIFO submission queue
//!                              │  drained, up to max_batch, by whoever
//!                              │  claims one of `workers` batch slots
//!                ┌─────────────┴─────────────┐
//!                ▼                           ▼
//!     a blocked caller (wait)          a pool worker
//!                └─────────────┬─────────────┘
//!                              ▼
//!               serve_batch ─▶ respond_batch(micro-batch)
//!                              │
//!                              ▼
//!           one-shot per request ─▶ Suggestion to its caller
//! ```
//!
//! * **Caller-runs micro-batching.** Whoever serves drains what is
//!   queued, up to [`ServiceBuilder::max_batch`], and executes it through
//!   [`FairRanker::respond_batch`]; it never waits for a batch to fill. A
//!   thread about to block on its own answer
//!   ([`SuggestionFuture::wait`], [`suggest`](FairRankService::suggest),
//!   [`suggest_timeout`](FairRankService::suggest_timeout)) serves the
//!   head of the queue itself while a batch slot is free, so a request
//!   need not cross threads on its way to the ranker and back. Pool
//!   workers serve what no blocked caller picks up: futures that are
//!   `.await`ed, and requests queued while every slot was busy. Both
//!   executors run the same `serve_batch`, and at most
//!   [`ServiceBuilder::workers`] batches run at once, so capacity and
//!   [`ServiceError::Overloaded`] mean what they did with a pool alone.
//!   The ranking scratch a batch needs (about `24·n` bytes of score and
//!   key buffers, see [`RankScratch`]) belongs to its slot and is lent to
//!   the serving thread, so the service keeps `workers` such sets however
//!   many threads call it.
//! * **Backpressure.** The queue is bounded
//!   ([`ServiceBuilder::queue_capacity`]):
//!   [`try_suggest`](FairRankService::try_suggest) fails fast with
//!   [`ServiceError::Overloaded`], while
//!   [`submit`](FairRankService::submit) blocks until space frees.
//! * **Updates while serving.** [`update`](FairRankService::update) is a
//!   serialized writer path: it forks the ranker copy-on-write
//!   ([`FairRanker::snapshot`] + [`FairRanker::update`]) and swaps the
//!   serving slot, so in-flight micro-batches keep answering from the
//!   `Arc<Dataset>` snapshot they captured — readers are never blocked
//!   behind index maintenance.
//! * **Panics stay in their batch.** A panic while answering a batch (an
//!   oracle closure, say) fails only that batch's callers with
//!   [`ServiceError::Panicked`]; the slot is released and serving goes
//!   on, whichever executor ran the batch.
//! * **Graceful shutdown.** [`shutdown`](FairRankService::shutdown)
//!   (and `Drop`) closes the queue, drains every already-queued request
//!   to completion, and joins the workers.
//!
//! Answers are **bit-identical** to calling
//! [`FairRanker::respond_batch`] directly on the same dataset version —
//! gated by `tests/service_equivalence.rs`.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use fairrank::error::validate_weights;
use fairrank::{
    BackendStats, DatasetUpdate, FairRanker, SuggestRequest, Suggestion, UpdateOutcome,
};
use fairrank_datasets::kernels::RankScratch;
use fairrank_telemetry::{Counter, Gauge, Histogram, Registry, Stopwatch};

use crate::error::ServiceError;
use crate::runtime::{oneshot, Deadline};

/// Configures and launches a [`FairRankService`]. Created by
/// [`FairRankService::builder`].
#[must_use]
pub struct ServiceBuilder {
    ranker: FairRanker,
    workers: usize,
    max_batch: usize,
    queue_capacity: usize,
    telemetry_enabled: bool,
    registry: Option<Arc<Registry>>,
}

impl ServiceBuilder {
    /// At most this many batches run at once, on pool threads or on
    /// blocked callers; the pool has this many threads. `0` (the
    /// default) uses [`std::thread::available_parallelism`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Micro-batch size cap: whoever serves drains what is queued, up to
    /// this many requests (clamped to at least 1; default 16).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Bounded submission-queue capacity — the backpressure threshold
    /// (clamped to at least 1; default 1024).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Enable or disable *stage timing* at runtime (default enabled).
    /// Disabled, workers take no clock reads — the reference arm of the
    /// telemetry-overhead benchmark. Counters and gauges are unaffected:
    /// they define [`ServiceStats`] and always stay live. (Compile-time
    /// removal is the `fairrank-telemetry/telemetry-off` feature.)
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry_enabled = enabled;
        self
    }

    /// Record this service's metrics into an injected [`Registry`]
    /// instead of a fresh per-service one — for co-hosting several
    /// components under one scrape. Note that two services sharing a
    /// registry share the *same* metric cells per family.
    pub fn telemetry_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Launch the worker pool and start serving.
    pub fn build(self) -> FairRankService {
        let workers = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            w => w,
        };
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        // Stage timers exist only when the timing layer is compiled in
        // *and* runtime-enabled: `timers.is_none()` means workers take
        // no clock reads at all, and the stage families never appear in
        // the exposition.
        let timers = (self.telemetry_enabled && fairrank_telemetry::ENABLED)
            .then(|| StageTimers::register(&registry));
        let shared = Arc::new(Shared {
            dim: self.ranker.dataset().dim(),
            workers,
            max_batch: self.max_batch,
            capacity: self.queue_capacity,
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                busy: 0,
                scratch: Vec::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            slot: RwLock::new(self.ranker),
            writer: Mutex::new(()),
            metrics: Metrics::register(&registry),
            derived: DerivedGauges::register(&registry),
            timers,
            telemetry: registry,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fairrank-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serving worker")
            })
            .collect();
        FairRankService {
            shared,
            workers: handles,
        }
    }
}

/// How [`enqueue`](FairRankService::enqueue) reacts to a full queue.
enum Backpressure {
    /// Reject immediately ([`FairRankService::try_suggest`]).
    Fail,
    /// Wait indefinitely for space ([`FairRankService::submit`]).
    Block,
    /// Wait until the admission deadline, then reject
    /// ([`FairRankService::submit_timeout`]).
    Deadline(Deadline),
}

impl Backpressure {
    /// An admission deadline `timeout` from now; `Duration::ZERO` fails
    /// fast.
    fn within(timeout: Duration) -> Backpressure {
        if timeout.is_zero() {
            Backpressure::Fail
        } else {
            Backpressure::Deadline(Deadline::after(timeout))
        }
    }
}

/// One queued request: the submission, the one-shot completion, and the
/// queue-wait stopwatch (inert unless stage timing is on).
struct Pending {
    req: SuggestRequest,
    tx: oneshot::Sender<Result<Suggestion, ServiceError>>,
    queued_at: Stopwatch,
}

struct QueueState {
    pending: VecDeque<Pending>,
    /// Batches running right now, on pool threads or on blocked callers;
    /// never more than [`Shared::workers`]. Changed only under the queue
    /// lock, through [`Shared::take_batch`] and [`SlotGuard`].
    busy: usize,
    /// Ranking scratch of the free slots. A slot lends its scratch to the
    /// thread serving its batch, so at most `workers` sets exist however
    /// many caller threads serve.
    scratch: Vec<RankScratch>,
    closed: bool,
}

/// The service's primary counters, as registry handles: `ServiceStats`
/// and the Prometheus exposition read the *same cells*, so `/stats` and
/// `/metrics` can never drift. Always live — see
/// [`ServiceBuilder::telemetry`].
struct Metrics {
    submitted: Counter,
    completed: Counter,
    batches: Counter,
    rejected: Counter,
    /// Live gauge (not a terminal counter): requests drained from the
    /// queue (by a pool worker or a blocked caller) but not yet answered.
    /// `queued + in_flight` is the service's total outstanding depth —
    /// what a load shedder divides by its service rate to predict drain
    /// time.
    in_flight: Gauge,
}

impl Metrics {
    fn register(registry: &Registry) -> Metrics {
        Metrics {
            submitted: registry.counter(
                "fairrank_service_submitted_total",
                "Requests accepted into the submission queue since launch.",
                &[],
            ),
            completed: registry.counter(
                "fairrank_service_completed_total",
                "Requests answered (futures completed) since launch.",
                &[],
            ),
            batches: registry.counter(
                "fairrank_service_batches_total",
                "Micro-batches executed since launch.",
                &[],
            ),
            rejected: registry.counter(
                "fairrank_service_rejected_total",
                "Submissions rejected with Overloaded backpressure.",
                &[],
            ),
            in_flight: registry.gauge(
                "fairrank_service_in_flight",
                "Requests drained from the queue but not yet answered.",
                &[],
            ),
        }
    }
}

/// Gauges whose truth lives elsewhere (queue length under its mutex,
/// the dataset version behind the slot lock).
/// [`FairRankService::stats`] refreshes them, and the HTTP tier calls
/// `stats()` before rendering `/metrics`, so a scrape always sees values
/// from the same snapshot `/stats` reports.
struct DerivedGauges {
    queue_depth: Gauge,
    version: Gauge,
}

impl DerivedGauges {
    fn register(registry: &Registry) -> DerivedGauges {
        DerivedGauges {
            queue_depth: registry.gauge(
                "fairrank_service_queue_depth",
                "Requests currently waiting in the submission queue.",
                &[],
            ),
            version: registry.gauge(
                "fairrank_dataset_version",
                "Dataset epoch of the current serving generation.",
                &[],
            ),
        }
    }
}

/// Per-stage latency histograms over the serving pipeline, all series
/// of one `fairrank_stage_duration_us{stage=…}` family (the HTTP tier
/// adds `net_parse`/`net_write` series to the same family). `None` on
/// the service means stage timing is off and no clocks are read.
struct StageTimers {
    queue_wait: Histogram,
    coalesce: Histogram,
    oracle_pass: Histogram,
}

impl StageTimers {
    const HELP: &'static str =
        "Serving pipeline stage durations in microseconds, labeled by stage.";

    fn register(registry: &Registry) -> StageTimers {
        let stage = |name: &str| {
            registry.histogram("fairrank_stage_duration_us", Self::HELP, &[("stage", name)])
        };
        StageTimers {
            queue_wait: stage("queue_wait"),
            coalesce: stage("coalesce"),
            oracle_pass: stage("oracle_pass"),
        }
    }
}

struct Shared {
    dim: usize,
    /// The most batches that run at once ([`ServiceBuilder::workers`]).
    workers: usize,
    max_batch: usize,
    capacity: usize,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    /// The serving slot: the current ranker generation. Readers hold the
    /// read lock only long enough to clone the inner `Arc`
    /// ([`FairRanker::snapshot`]); the update path swaps a fully
    /// prepared fork in under a momentary write lock.
    slot: RwLock<FairRanker>,
    /// Serializes writers: updates fork-and-swap one at a time, outside
    /// the slot lock, so index maintenance never blocks readers.
    writer: Mutex<()>,
    metrics: Metrics,
    derived: DerivedGauges,
    /// Stage latency histograms; `None` when stage timing is disabled
    /// (runtime knob or the `telemetry-off` feature).
    timers: Option<StageTimers>,
    /// The metric registry every handle above lives in — what
    /// `GET /metrics` renders.
    telemetry: Arc<Registry>,
}

/// Operational counters for dashboards and load shedding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests currently waiting in the submission queue.
    pub queued: usize,
    /// Requests currently being served (by a pool worker or a blocked
    /// caller): drained from the queue but not yet answered. A live gauge — with `queued` it
    /// observes saturation directly instead of inferring it from
    /// [`ServiceError::Overloaded`] rejections.
    pub in_flight: u64,
    /// Requests accepted into the queue since launch.
    pub submitted: u64,
    /// Requests answered (futures completed) since launch.
    pub completed: u64,
    /// Micro-batches executed since launch.
    pub batches: u64,
    /// Submissions rejected with [`ServiceError::Overloaded`].
    pub rejected: u64,
    /// Worker threads in the pool, which is also the most batches that
    /// run at once.
    pub workers: usize,
}

/// An awaitable [`Suggestion`]: resolves when the request's batch is
/// served. Runtime-agnostic — `.await` it from any executor, drive it
/// with [`crate::runtime::block_on`], or block with
/// [`SuggestionFuture::wait`].
pub struct SuggestionFuture {
    rx: oneshot::Receiver<Result<Suggestion, ServiceError>>,
    shared: Arc<Shared>,
}

impl SuggestionFuture {
    /// Block the current thread until the answer arrives, lending the
    /// thread to the service meanwhile: while the answer is missing and
    /// fewer than [`ServiceBuilder::workers`] batches are running, it
    /// drains the head of the queue (FIFO, up to `max_batch`, whoever
    /// submitted it) and serves that batch itself. Once no slot is free,
    /// or nothing is queued, it sleeps until its answer arrives, as an
    /// `.await` does. Polling the future never runs a batch. A batch
    /// served here ranks in its slot's scratch buffers, so the thread
    /// keeps no ranking scratch of its own afterwards.
    ///
    /// # Errors
    /// [`ServiceError`] from the serving pipeline, or
    /// [`ServiceError::Closed`] if the request was dropped unanswered.
    pub fn wait(self) -> Result<Suggestion, ServiceError> {
        while !self.rx.is_ready() {
            let Ok((slot, batch)) = self.shared.take_batch(self.shared.lock_queue()) else {
                break;
            };
            slot.serve(batch);
        }
        self.rx.wait().unwrap_or(Err(ServiceError::Closed))
    }
}

impl std::future::Future for SuggestionFuture {
    type Output = Result<Suggestion, ServiceError>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        std::pin::Pin::new(&mut self.rx)
            .poll(cx)
            .map(|r| r.unwrap_or(Err(ServiceError::Closed)))
    }
}

/// The async-first serving front door: submit individual
/// [`SuggestRequest`]s, await [`Suggestion`]s; a worker pool coalesces
/// submissions into micro-batches over the synchronous
/// [`FairRanker`] machinery. See the crate docs for the pipeline shape
/// and guarantees.
pub struct FairRankService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl FairRankService {
    /// Start configuring a service over an already-built ranker.
    pub fn builder(ranker: FairRanker) -> ServiceBuilder {
        ServiceBuilder {
            ranker,
            workers: 0,
            max_batch: 16,
            queue_capacity: 1024,
            telemetry_enabled: true,
            registry: None,
        }
    }

    /// Submit without blocking: fails fast with
    /// [`ServiceError::Overloaded`] when the bounded queue is full — the
    /// caller's backpressure signal. Like every `submit*` entry point it
    /// wakes a pool worker, so the answer arrives even if the future is
    /// only ever polled.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] (queue full), [`ServiceError::Closed`]
    /// (after shutdown), [`ServiceError::Rank`] (malformed request —
    /// validated here, so queued batches never fail collectively).
    pub fn try_suggest(&self, req: SuggestRequest) -> Result<SuggestionFuture, ServiceError> {
        self.enqueue(req, Backpressure::Fail, true)
    }

    /// Submit with blocking backpressure: waits for queue space instead
    /// of failing. Prefer [`try_suggest`](FairRankService::try_suggest)
    /// on latency-sensitive paths.
    ///
    /// # Errors
    /// [`ServiceError::Closed`], [`ServiceError::Rank`].
    pub fn submit(&self, req: SuggestRequest) -> Result<SuggestionFuture, ServiceError> {
        self.enqueue(req, Backpressure::Block, true)
    }

    /// Submit with a per-request admission deadline: waits up to
    /// `timeout` for queue space, then fails with
    /// [`ServiceError::Overloaded`] exactly as
    /// [`try_suggest`](FairRankService::try_suggest) would — the shape a
    /// network front end wants, where a request is worth a bounded wait
    /// but not an unbounded one. `Duration::ZERO` is equivalent to
    /// `try_suggest`.
    ///
    /// The deadline governs *admission* only; once queued, the request
    /// is always answered (or failed) through its future.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] (deadline expired with the queue
    /// still full), [`ServiceError::Closed`], [`ServiceError::Rank`].
    pub fn submit_timeout(
        &self,
        req: SuggestRequest,
        timeout: Duration,
    ) -> Result<SuggestionFuture, ServiceError> {
        self.enqueue(req, Backpressure::within(timeout), true)
    }

    /// Submit and block until the answer arrives — the synchronous twin
    /// of [`submit`](FairRankService::submit). No pool worker is woken:
    /// the calling thread serves the queue itself through
    /// [`SuggestionFuture::wait`] while a batch slot is free.
    ///
    /// # Errors
    /// As [`FairRankService::submit`], plus any serving-side error.
    pub fn suggest(&self, req: SuggestRequest) -> Result<Suggestion, ServiceError> {
        self.enqueue(req, Backpressure::Block, false)?.wait()
    }

    /// Submit with an admission deadline and block until the answer
    /// arrives — the blocking twin of
    /// [`submit_timeout`](FairRankService::submit_timeout), and what an
    /// HTTP connection thread calls per request. As with
    /// [`suggest`](FairRankService::suggest), no pool worker is woken:
    /// the calling thread serves the queue while a slot is free. The
    /// deadline bounds only the wait for queue space.
    ///
    /// # Errors
    /// As [`FairRankService::submit_timeout`], plus any serving-side
    /// error.
    pub fn suggest_timeout(
        &self,
        req: SuggestRequest,
        timeout: Duration,
    ) -> Result<Suggestion, ServiceError> {
        self.enqueue(req, Backpressure::within(timeout), false)?
            .wait()
    }

    /// Queue `req` under `mode`'s backpressure. `wake_pool` is set by the
    /// entry points whose caller may never run a batch (`submit*`,
    /// `try_suggest`); the blocking `suggest*` entry points leave it
    /// unset, because their caller serves the queue next.
    fn enqueue(
        &self,
        req: SuggestRequest,
        mode: Backpressure,
        wake_pool: bool,
    ) -> Result<SuggestionFuture, ServiceError> {
        // Validate before queueing: a malformed request fails its caller
        // alone, never the micro-batch it would have joined.
        validate_weights(&req.query, self.shared.dim).map_err(ServiceError::Rank)?;
        let mut queue = self.shared.lock_queue();
        loop {
            if queue.closed {
                return Err(ServiceError::Closed);
            }
            if queue.pending.len() < self.shared.capacity {
                break;
            }
            match &mode {
                Backpressure::Fail => return Err(self.reject(queue.pending.len())),
                Backpressure::Block => {
                    queue = self
                        .shared
                        .not_full
                        .wait(queue)
                        .expect("queue lock poisoned");
                }
                Backpressure::Deadline(deadline) => {
                    let remaining = deadline.remaining();
                    if remaining.is_zero() {
                        return Err(self.reject(queue.pending.len()));
                    }
                    let (guard, _timeout) = self
                        .shared
                        .not_full
                        .wait_timeout(queue, remaining)
                        .expect("queue lock poisoned");
                    // No special-casing of `timed_out`: the loop re-checks
                    // capacity and the deadline, so a timeout that races a
                    // capacity release still admits the request.
                    queue = guard;
                }
            }
        }
        let (tx, rx) = oneshot::channel();
        queue.pending.push_back(Pending {
            req,
            tx,
            queued_at: Stopwatch::start_if(self.shared.timers.is_some()),
        });
        drop(queue);
        self.shared.metrics.submitted.inc();
        if wake_pool {
            self.shared.not_empty.notify_one();
        }
        Ok(SuggestionFuture {
            rx,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Record a rejection and build the structured [`ServiceError::Overloaded`]
    /// payload: depth is everything queued plus everything already being
    /// served, so front ends can derive an honest retry delay.
    fn reject(&self, queued: usize) -> ServiceError {
        self.shared.metrics.rejected.inc();
        let in_flight = self.shared.metrics.in_flight.get().max(0) as usize;
        ServiceError::Overloaded {
            capacity: self.shared.capacity,
            depth: queued + in_flight,
        }
    }

    /// Apply one live dataset update — the service's serialized writer
    /// path.
    ///
    /// The update runs on a copy-on-write fork *outside* the serving
    /// slot's lock (writers queue up on a dedicated mutex), then swaps
    /// the new generation in under a momentary write lock. In-flight
    /// micro-batches keep serving the snapshot they captured; requests
    /// picked up after the swap see the new version — every
    /// [`Suggestion`] carries the version it was answered from.
    ///
    /// # Errors
    /// [`ServiceError::Rank`] wrapping any
    /// [`FairRankError`](fairrank::FairRankError) the update raises;
    /// nothing is swapped on error.
    pub fn update(&self, update: DatasetUpdate) -> Result<UpdateOutcome, ServiceError> {
        let _writer = self.shared.writer.lock().expect("writer lock poisoned");
        let mut fork = self
            .shared
            .slot
            .read()
            .expect("slot lock poisoned")
            .snapshot();
        // The slot still holds the same generation, so `fork` is shared
        // and FairRanker::update takes its copy-on-write path: the old
        // index keeps serving until the swap below.
        let outcome = fork.update(update).map_err(ServiceError::Rank)?;
        *self.shared.slot.write().expect("slot lock poisoned") = fork;
        Ok(outcome)
    }

    /// Apply a sequence of updates through the serialized writer path —
    /// the service twin of [`FairRanker::update_batch`], and the apply
    /// half of replication: a replica tailing a writer's update log
    /// feeds each decoded batch straight through here.
    ///
    /// Each update swaps a generation individually (readers observe
    /// every intermediate version, same as calling
    /// [`update`](FairRankService::update) in a loop).
    ///
    /// # Errors
    /// As [`FairRankService::update`]; stops at the first failing update
    /// with everything before it already applied.
    pub fn update_batch(
        &self,
        updates: impl IntoIterator<Item = DatasetUpdate>,
    ) -> Result<Vec<UpdateOutcome>, ServiceError> {
        updates.into_iter().map(|u| self.update(u)).collect()
    }

    /// Replace the serving ranker wholesale with an independently built
    /// (or freshly bootstrapped) generation — the re-seed path a replica
    /// takes after a replication gap, where no incremental update
    /// sequence can reconcile the local index with the writer's state.
    ///
    /// Runs through the same serialized writer path as
    /// [`update`](FairRankService::update): the swap happens under a
    /// momentary write lock, so in-flight micro-batches finish on the
    /// snapshot they captured.
    ///
    /// # Errors
    /// [`ServiceError::Rank`] with a
    /// [`DimensionMismatch`](fairrank::FairRankError::DimensionMismatch)
    /// if the new ranker's dataset dimensionality differs from the one
    /// this service validates queries against; nothing is swapped.
    pub fn replace_ranker(&self, ranker: FairRanker) -> Result<(), ServiceError> {
        let _writer = self.shared.writer.lock().expect("writer lock poisoned");
        let found = ranker.dataset().dim();
        if found != self.shared.dim {
            return Err(ServiceError::Rank(
                fairrank::FairRankError::DimensionMismatch {
                    expected: self.shared.dim,
                    found,
                },
            ));
        }
        *self.shared.slot.write().expect("slot lock poisoned") = ranker;
        Ok(())
    }

    /// The current dataset epoch (see [`FairRanker::version`]).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.shared
            .slot
            .read()
            .expect("slot lock poisoned")
            .version()
    }

    /// A point-in-time [`FairRanker::snapshot`] of the serving state —
    /// what the next micro-batch would answer from. Useful for replica
    /// hand-off and for equivalence testing against the direct API.
    #[must_use]
    pub fn snapshot(&self) -> FairRanker {
        self.shared
            .slot
            .read()
            .expect("slot lock poisoned")
            .snapshot()
    }

    /// Backend statistics of the current generation; the update/rebuild
    /// counters aggregate across copy-on-write generations (see
    /// [`fairrank::SharedCounters`]).
    #[must_use]
    pub fn backend_stats(&self) -> BackendStats {
        self.shared
            .slot
            .read()
            .expect("slot lock poisoned")
            .backend_stats()
    }

    /// Operational counters. Also refreshes the derived registry gauges
    /// (queue depth, dataset version) so a `/metrics`
    /// scrape rendered right after reports the same snapshot — the
    /// counters themselves are shared cells and agree by construction.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let queued = self.shared.lock_queue().pending.len();
        self.shared.derived.queue_depth.set(queued as i64);
        self.shared.derived.version.set(self.version() as i64);
        ServiceStats {
            queued,
            in_flight: self.shared.metrics.in_flight.get().max(0) as u64,
            submitted: self.shared.metrics.submitted.get(),
            completed: self.shared.metrics.completed.get(),
            batches: self.shared.metrics.batches.get(),
            rejected: self.shared.metrics.rejected.get(),
            workers: self.shared.workers,
        }
    }

    /// The metric registry this service records into — render it with
    /// [`Registry::render`] for a Prometheus scrape, or register extra
    /// families (the HTTP tier adds its own) so one exposition covers
    /// the whole deployment. Call [`stats`](FairRankService::stats)
    /// first to refresh the derived gauges.
    #[must_use]
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Stop accepting new submissions without tearing the pool down:
    /// subsequent [`try_suggest`](FairRankService::try_suggest)/
    /// [`submit`](FairRankService::submit) calls (and submitters blocked
    /// on backpressure) observe [`ServiceError::Closed`], while workers
    /// keep draining — and answering — everything already queued.
    /// [`shutdown`](FairRankService::shutdown) closes and then joins.
    pub fn close(&self) {
        self.shared.lock_queue().closed = true;
        // Wake every waiter: idle workers exit once the queue drains,
        // blocked submitters observe `Closed`.
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Graceful shutdown: stop accepting submissions, drain and answer
    /// every request already queued, and join the worker pool. Dropping
    /// the service does the same. A panic while serving never reaches
    /// here: it fails its own batch's callers (see
    /// [`ServiceError::Panicked`]).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for FairRankService {
    fn drop(&mut self) {
        self.close();
        for handle in self.workers.drain(..) {
            // `serve_batch` catches every panic of the serving code, so a
            // worker thread only ends by returning.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for FairRankService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairRankService")
            .field("stats", &self.stats())
            .field("version", &self.version())
            .field("max_batch", &self.shared.max_batch)
            .field("queue_capacity", &self.shared.capacity)
            .finish()
    }
}

/// One of the [`ServiceBuilder::workers`] batch slots, claimed by
/// [`Shared::take_batch`], with the ranking scratch it lends to the
/// thread that serves it. Dropping it frees the slot and wakes pool
/// workers that may be sleeping on it:
///
/// * one, if requests are still queued: a caller that found every slot
///   taken sleeps on its answer, and this wake is what serves it;
/// * all, if the queue is closed and empty: a worker that went back to
///   sleep after `close` because every slot was taken must still see
///   the end and exit, or shutdown would wait on it forever.
struct SlotGuard<'a> {
    shared: &'a Shared,
    scratch: RankScratch,
}

impl SlotGuard<'_> {
    /// Serve `batch` on this thread with the slot's scratch, then free
    /// the slot. The thread's own scratch is put back untouched.
    fn serve(mut self, batch: Vec<Pending>) {
        self.scratch.swap_with_thread();
        serve_batch(self.shared, batch);
        self.scratch.swap_with_thread();
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let (more, done) = {
            // No panic in `Drop`: every update of the queue state is
            // complete under its lock, so a poisoned guard is still valid.
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.busy -= 1;
            queue.scratch.push(std::mem::take(&mut self.scratch));
            let more = !queue.pending.is_empty();
            (more, queue.closed && !more)
        };
        if more {
            self.shared.not_empty.notify_one();
        } else if done {
            self.shared.not_empty.notify_all();
        }
    }
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().expect("queue lock poisoned")
    }

    /// Claim a batch slot and drain the head of the queue, up to
    /// `max_batch` requests, releasing the queue lock. Hands the lock
    /// back when nothing is queued or all `workers` slots are taken.
    /// Work-conserving: nobody waits for a batch to fill.
    fn take_batch<'a>(
        &'a self,
        mut queue: MutexGuard<'a, QueueState>,
    ) -> Result<(SlotGuard<'a>, Vec<Pending>), MutexGuard<'a, QueueState>> {
        if queue.pending.is_empty() || queue.busy >= self.workers {
            return Err(queue);
        }
        // The coalesce stage: pickup → batch drained. Distinct from queue
        // wait (which is per-request and includes this).
        let coalesce = Stopwatch::start_if(self.timers.is_some());
        queue.busy += 1;
        let scratch = queue.scratch.pop().unwrap_or_default();
        let take = queue.pending.len().min(self.max_batch);
        let batch = queue.pending.drain(..take).collect();
        drop(queue);
        let slot = SlotGuard {
            shared: self,
            scratch,
        };
        // Capacity frees at *drain* time, not when the batch finishes
        // serving: release blocked submitters immediately.
        self.not_full.notify_all();
        if let Some(timers) = &self.timers {
            coalesce.record(&timers.coalesce);
        }
        Ok((slot, batch))
    }
}

/// One pool worker: take a batch whenever one is queued and a slot is
/// free, serve it, repeat until the queue is closed *and* drained.
fn worker_loop(shared: &Shared) {
    loop {
        let mut queue = shared.lock_queue();
        let (slot, batch) = loop {
            // A caller or another worker may have drained the request
            // that woke us, or hold the last slot: sleep again rather
            // than exceed `workers` or run a phantom batch.
            match shared.take_batch(queue) {
                Ok(claimed) => break claimed,
                Err(idle) if idle.closed && idle.pending.is_empty() => return,
                Err(idle) => queue = shared.not_empty.wait(idle).expect("queue lock poisoned"),
            }
        };
        slot.serve(batch);
    }
}

/// Serve one drained micro-batch and complete its one-shots: the single
/// serving path, run by pool workers and by blocked callers alike. A
/// panic while answering fails this batch's callers with
/// [`ServiceError::Panicked`] and leaves the service serving.
fn serve_batch(shared: &Shared, batch: Vec<Pending>) {
    let served = batch.len();
    // The gauge covers the whole span from drain to answer: capacity
    // freed at drain time reappears here as in-flight, so
    // `queued + in_flight` tracks total outstanding work without a gap a
    // stats reader could fall through.
    shared.metrics.in_flight.add(served as i64);
    let mut reqs = Vec::with_capacity(served);
    let mut txs = Vec::with_capacity(served);
    for pending in batch {
        if let Some(timers) = &shared.timers {
            // Queue wait spans submit → the batch being picked up
            // (coalescing included — it is time the caller spent waiting
            // either way).
            pending.queued_at.record(&timers.queue_wait);
        }
        reqs.push(pending.req);
        txs.push(pending.tx);
    }
    // The one-shots stay outside the unwind boundary, so a panic cannot
    // drop them unanswered.
    let answers = panic::catch_unwind(AssertUnwindSafe(|| answer_batch(shared, reqs)))
        .unwrap_or_else(|payload| {
            let e = ServiceError::Panicked(panic_message(payload.as_ref()));
            vec![Err(e); served]
        });
    shared.metrics.batches.inc();
    // Count before completing the one-shots: a caller must never observe
    // its answer while the counters miss it (or still hold it in flight)
    // — and only genuinely answered requests count.
    let completed = answers.iter().filter(|a| a.is_ok()).count() as u64;
    shared.metrics.completed.add(completed);
    shared.metrics.in_flight.add(-(served as i64));
    for (tx, answer) in txs.into_iter().zip(answers) {
        // A dropped receiver just means the caller stopped caring;
        // serving the rest of the batch is unaffected.
        let _ = tx.send(answer);
    }
}

/// The text of a panic payload (`panic!` with a literal or a format
/// string); other payloads get a fixed description.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Answer `reqs` in order on a point-in-time snapshot, through one
/// [`FairRanker::respond_batch`] timed as the `oracle_pass` stage.
fn answer_batch(
    shared: &Shared,
    reqs: Vec<SuggestRequest>,
) -> Vec<Result<Suggestion, ServiceError>> {
    // Serve outside every lock, on a snapshot pinned for exactly this
    // batch: a concurrent update advances the slot without touching the
    // generation we're answering from.
    let ranker = shared.slot.read().expect("slot lock poisoned").snapshot();
    let oracle_pass = Stopwatch::start_if(shared.timers.is_some());
    let answers = match ranker.respond_batch(&reqs) {
        Ok(answers) => answers.into_iter().map(Ok).collect(),
        // Unreachable for queue-validated requests; defensively fail the
        // batch's callers rather than the executor.
        Err(e) => vec![Err(ServiceError::Rank(e)); reqs.len()],
    };
    if let Some(timers) = &shared.timers {
        oracle_pass.record(&timers.oracle_pass);
    }
    answers
}
