//! # sordf — self-organizing structured RDF
//!
//! The facade crate of the workspace: a single [`Database`] type that walks
//! through the paper's whole lifecycle.
//!
//! ```
//! use sordf::{Database, ExecConfig, PlanScheme};
//!
//! let mut db = Database::in_temp_dir().unwrap();
//! db.load_ntriples(r#"
//!     <http://ex/book1> <http://ex/has_author> <http://ex/author1> .
//!     <http://ex/book1> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
//!     <http://ex/book1> <http://ex/isbn_no> "1-56619-909-3" .
//!     <http://ex/book2> <http://ex/has_author> <http://ex/author2> .
//!     <http://ex/book2> <http://ex/in_year> "1997"^^<http://www.w3.org/2001/XMLSchema#integer> .
//!     <http://ex/book2> <http://ex/isbn_no> "1-56619-909-4" .
//!     <http://ex/book3> <http://ex/has_author> <http://ex/author1> .
//!     <http://ex/book3> <http://ex/in_year> "1998"^^<http://www.w3.org/2001/XMLSchema#integer> .
//!     <http://ex/book3> <http://ex/isbn_no> "1-56619-909-5" .
//! "#).unwrap();
//!
//! // Self-organize: discover the emergent schema, cluster subjects,
//! // rebuild storage as CS segments.
//! db.self_organize().unwrap();
//! assert_eq!(db.schema().unwrap().classes.len(), 1);
//!
//! let rs = db.query("SELECT ?a ?n WHERE { ?b <http://ex/has_author> ?a . \
//!                     ?b <http://ex/isbn_no> ?n . }").unwrap();
//! assert_eq!(rs.len(), 3);
//! ```
//!
//! The database keeps up to three physical generations, matching the axes of
//! the paper's Table I:
//!
//! 1. a **baseline** exhaustive-index store over parse-order OIDs,
//! 2. optional **CS tables in parse order** ([`Database::build_cs_tables`]),
//! 3. the **clustered** generation after [`Database::self_organize`]
//!    (subject-clustered OIDs, sorted literals, dense segments).
//!
//! Queries run against the newest built generation by default; benchmarks
//! pin a generation + plan scheme with [`QueryRequest::generation`] and
//! [`QueryRequest::config`].
//!
//! The store stays organized **as data keeps arriving**: after
//! [`Database::self_organize`], [`Database::insert_ntriples`] and
//! [`Database::delete_matching`] write through an in-memory delta store
//! (sorted insert runs + tombstones, snapshot-sequenced — see
//! [`Database::snapshot`] / [`Database::query_snapshot`]) that every query
//! merges with the base generations, and
//! [`Database::maybe_reorganize`] re-runs discovery + clustering over the
//! merged data when a [`ReorgPolicy`] threshold fires — swapping a fresh
//! generation in behind the same query API.
//!
//! ## Background reorganization
//!
//! Reorganization happens **off the write path**: every query *pins* the
//! current [`StoreGeneration`] (an `Arc` of the dictionary + the built
//! stores, which are the only copy of the base triples) plus a delta view
//! at query start and never re-reads shared state.
//! [`Database::reorganize_async`] (and the policy-gated
//! [`Database::maybe_reorganize_async`], or a [`Database::start_auto_reorg`]
//! thread) builds the next generation on a worker thread against that
//! pinned snapshot while reads *and writes* continue, then swaps the handle
//! in atomically — folding every write that arrived during the rebuild into
//! the fresh generation's delta store (decoded under the old dictionary,
//! re-encoded under the renumbered one, replayed in sequence order so
//! snapshots taken at or after the rebuild pin survive the swap). Readers
//! never block on a rebuild; the bulk of that catch-up fold runs off the
//! state lock too, so writers stall only for the short swap (the writes
//! that landed during the off-lock fold, plus the durable commit), never
//! for the rebuild itself. Synchronous
//! [`Database::reorganize_now`] / [`Database::maybe_reorganize`] run the
//! same pin → build → swap protocol inline on the calling thread.
//!
//! ## Durability
//!
//! [`Database::create_durable`] / [`Database::open`] put the whole
//! lifecycle on disk: every acknowledged write batch is write-ahead
//! logged (and, under [`SyncPolicy::Always`], fsynced) *before* any
//! in-memory structure sees it; [`Database::checkpoint`] snapshots the
//! visible triples and rotates the log; the background swap rotates the
//! snapshot/WAL pair along with the generation; and [`Database::open`]
//! recovers the exact acknowledged prefix after a crash at any point —
//! snapshot load, torn-frame-truncating WAL replay, layouts rebuilt as a
//! derived cache. Recovery is *logical* (snapshot and log hold N-Triples
//! text): OIDs may renumber across a reopen exactly as they do across a
//! background swap, while decoded results are identical. The labeled
//! [`CRASH_POINTS`] and the `crash_points` cargo feature arm the
//! fault-injection harness behind `tests/recovery_differential.rs`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
// sordf-lint: allow(L4) — the auto-reorg stop handshake needs a Condvar,
// which the vendored shim does not provide; this std Mutex+Condvar pair
// guards only the stop flag and handles poisoning inline.
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sordf_columnar::crash_point;
pub use sordf_columnar::ColumnEncoding;
use sordf_columnar::{BufferPool, DiskManager, PoolStats};
use sordf_engine::agg::ResultSet;
use sordf_engine::context::StatsSnapshot;
pub use sordf_engine::planner::{PlanInfo, StepInfo};
pub use sordf_engine::{CancellationToken, ExecConfig, ParallelConfig, PlanScheme, StopReason};
use sordf_engine::{ExecContext, PhysicalPlan, StorageRef};
use sordf_model::{
    ntriples, Dictionary, FxHashMap, FxHashSet, ModelError, Oid, Term, TermTriple, Triple,
};
use sordf_schema::{ClassId, IncrementalAssigner};
pub use sordf_schema::{DriftStats, EmergentSchema, SchemaConfig};
use sordf_storage::{
    build_clustered_with, encode_triple_skolemized, reorganize, BaselineStore, ClusterSpec,
    ClusteredStore, DeltaStore, DeltaView, DeltaWrite, GenerationHandle, LayoutFlags, Manifest,
    ReorgReport, StoreSnapshot, TripleSet, WalRecord, WalWriter,
};
pub use sordf_storage::{DictPin, Snapshot, StoreGeneration, SyncPolicy, WalFormat};
use std::collections::HashMap;

/// Every labeled crash point in the durable write paths, in rough lifecycle
/// order. The fault-injection harness iterates this catalog, killing a
/// writer process at each point (`SORDF_CRASH_POINT=<label>`, requires the
/// `crash_points` cargo feature) and asserting recovery loses no
/// acknowledged write. See `sordf_columnar::crash_point`.
pub const CRASH_POINTS: &[&str] = &[
    "wal.pre_append",
    "wal.post_append",
    "wal.pre_sync",
    "wal.post_sync",
    "snap.pre_sync",
    "snap.post_sync",
    "manifest.pre_rename",
    "manifest.post_rename",
    "checkpoint.pre_manifest",
    "checkpoint.post_manifest",
    "swap.pre_manifest",
    "swap.post_manifest",
];

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum Error {
    Io(io::Error),
    Model(ModelError),
    Sparql(sordf_sparql::ParseError),
    Sql(String),
    State(String),
    /// The execution engine failed mid-query (e.g. a page read kept failing
    /// after retries). The query is lost; the database stays usable.
    Exec(String),
    /// The request's deadline passed mid-query ([`QueryRequest::timeout`] or
    /// a token deadline). The engine stopped within one page of work; the
    /// database stays usable.
    Timeout,
    /// The request's [`CancellationToken`] was cancelled (client disconnect,
    /// explicit revoke). The engine stopped within one page of work.
    Cancelled,
    /// Admission control rejected the request before execution: too many
    /// queries already in flight, or the server is draining for shutdown.
    /// Retry after backing off.
    Overloaded(String),
}

impl Error {
    /// A stable machine-readable code for this error, independent of the
    /// human-readable message. API front ends key on these: the HTTP server
    /// maps `parse_error`/`sql_error`/`invalid_state` to 400, `timeout` to
    /// 408, `cancelled` to 499, `overloaded` to 503 and the rest to 500.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Io(_) => "io_error",
            Error::Model(_) => "data_error",
            Error::Sparql(_) => "parse_error",
            Error::Sql(_) => "sql_error",
            Error::State(_) => "invalid_state",
            Error::Exec(_) => "exec_error",
            Error::Timeout => "timeout",
            Error::Cancelled => "cancelled",
            Error::Overloaded(_) => "overloaded",
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Model(e) => write!(f, "data error: {e}"),
            Error::Sparql(e) => write!(f, "{e}"),
            Error::Sql(e) => write!(f, "SQL error: {e}"),
            Error::State(e) => write!(f, "invalid state: {e}"),
            Error::Exec(e) => write!(f, "execution failed: {e}"),
            Error::Timeout => write!(f, "query timed out"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Overloaded(e) => write!(f, "server overloaded: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Io(e)
    }
}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Error {
        Error::Model(e)
    }
}

impl From<sordf_sparql::ParseError> for Error {
    fn from(e: sordf_sparql::ParseError) -> Error {
        Error::Sparql(e)
    }
}

/// Which storage generation a query should run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// Exhaustive permutation indexes, parse-order OIDs.
    Baseline,
    /// CS tables with parse-order OIDs (sparse segments).
    CsParseOrder,
    /// Fully self-organized: clustered OIDs, dense segments.
    Clustered,
}

/// The query language of a [`QueryRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLang {
    /// The supported SPARQL subset (see `sordf_sparql`).
    Sparql,
    /// The emergent-schema SQL view (requires [`Database::self_organize`]).
    Sql,
}

/// One fully-specified query, the single argument of [`Database::execute`].
///
/// A builder over everything the seven historical `query_*` variants spread
/// across their signatures: language, generation pin, engine configuration,
/// morsel parallelism, snapshot, trace, plus the request-lifecycle knobs the
/// old API had no room for — a deadline ([`timeout`](Self::timeout)) and a
/// [`CancellationToken`] ([`cancel`](Self::cancel)). Everything is optional
/// except the query text:
///
/// ```
/// use sordf::{Database, QueryRequest};
/// use std::time::Duration;
///
/// let mut db = Database::in_temp_dir().unwrap();
/// db.load_ntriples("<http://ex/s> <http://ex/p> <http://ex/o> .").unwrap();
/// db.self_organize().unwrap();
/// let resp = db
///     .execute(&QueryRequest::sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o . }")
///         .timeout(Duration::from_secs(5))
///         .traced(true))
///     .unwrap();
/// assert_eq!(resp.results.len(), 1);
/// assert!(resp.stats.unwrap().rows_scanned >= 1);
/// ```
///
/// When both a token and a timeout are given, the effective deadline is the
/// earlier of the two and cancelling the caller's token still stops the
/// query. A tripped token fails the request with [`Error::Cancelled`] /
/// [`Error::Timeout`] *before* execution starts, so queueing time counts
/// against the deadline.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    text: String,
    lang: QueryLang,
    generation: Option<Generation>,
    config: Option<ExecConfig>,
    parallel: Option<ParallelConfig>,
    snapshot: Option<Snapshot>,
    timeout: Option<Duration>,
    cancel: Option<CancellationToken>,
    trace: bool,
}

impl QueryRequest {
    fn new(text: impl Into<String>, lang: QueryLang) -> QueryRequest {
        QueryRequest {
            text: text.into(),
            lang,
            generation: None,
            config: None,
            parallel: None,
            snapshot: None,
            timeout: None,
            cancel: None,
            trace: false,
        }
    }

    /// A SPARQL request with every option defaulted: newest generation,
    /// database-default [`ExecConfig`], sequential, current data, no
    /// deadline, no trace.
    pub fn sparql(text: impl Into<String>) -> QueryRequest {
        QueryRequest::new(text, QueryLang::Sparql)
    }

    /// A SQL request against the emergent relational view (requires
    /// [`Database::self_organize`] first). Same defaults as
    /// [`sparql`](Self::sparql); [`generation`](Self::generation) is
    /// ignored — SQL always reads the clustered generation.
    pub fn sql(text: impl Into<String>) -> QueryRequest {
        QueryRequest::new(text, QueryLang::Sql)
    }

    /// Pin the storage generation (default: newest built).
    pub fn generation(mut self, generation: Generation) -> QueryRequest {
        self.generation = Some(generation);
        self
    }

    /// Override the database's default engine configuration.
    pub fn config(mut self, config: ExecConfig) -> QueryRequest {
        self.config = Some(config);
        self
    }

    /// Execute with morsel-parallel operators (see [`sordf_engine::parallel`]).
    /// Non-aggregate results are byte-identical to the sequential path;
    /// SUM/AVG aggregates may differ in the last ulp (canonical forms agree).
    pub fn parallel(mut self, parallel: ParallelConfig) -> QueryRequest {
        self.parallel = Some(parallel);
        self
    }

    /// Pin the visible data to a write [`Snapshot`] (see
    /// [`Database::snapshot`]); later writes are invisible.
    pub fn snapshot(mut self, snapshot: Snapshot) -> QueryRequest {
        self.snapshot = Some(snapshot);
        self
    }

    /// Fail with [`Error::Timeout`] once this much time has passed —
    /// measured from [`Database::execute`] entry, enforced cooperatively at
    /// page granularity inside the engine.
    pub fn timeout(mut self, timeout: Duration) -> QueryRequest {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a cancellation token; [`CancellationToken::cancel`] from any
    /// thread fails the query with [`Error::Cancelled`] within one page of
    /// work.
    pub fn cancel(mut self, cancel: CancellationToken) -> QueryRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Collect operator and buffer-pool statistics into
    /// [`QueryResponse::stats`] / [`QueryResponse::pool`].
    pub fn traced(mut self, trace: bool) -> QueryRequest {
        self.trace = trace;
        self
    }

    /// The query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The query language.
    pub fn lang(&self) -> QueryLang {
        self.lang
    }

    /// The token execution actually polls: the caller's token, the timeout,
    /// or their combination (earliest deadline wins, cancellation shared).
    fn effective_token(&self) -> Option<CancellationToken> {
        let deadline = self.timeout.and_then(|t| Instant::now().checked_add(t));
        match (&self.cancel, deadline) {
            (None, None) => None,
            (Some(t), None) => Some(t.clone()),
            (None, Some(d)) => Some(CancellationToken::with_deadline(Some(d))),
            (Some(t), Some(d)) => Some(t.with_deadline_floor(d)),
        }
    }
}

/// What [`Database::execute`] returns.
///
/// # Decoding results
///
/// `results` holds OIDs valid under the dictionary the query executed
/// against, and a concurrent reorganization installs a *renumbered*
/// dictionary — so results must be decoded through the [`DictPin`] carried
/// here (`resp.results.canonical(&resp.pin)`), never through a fresh
/// [`Database::dict`] taken after the query returns. The pin also keeps that
/// dictionary generation alive for as long as you hold the response.
#[derive(Debug)]
pub struct QueryResponse {
    pub results: ResultSet,
    /// Read pin on the dictionary the query executed under — the only
    /// correct way to decode `results` (see the type-level docs).
    pub pin: DictPin,
    /// Operator statistics, when the request was [`QueryRequest::traced`].
    pub stats: Option<StatsSnapshot>,
    /// Buffer-pool activity attributable to this query, when traced.
    pub pool: Option<PoolStats>,
}

/// Thresholds that drive adaptive reorganization ([`Database::maybe_reorganize`]).
/// The decision reads [`DriftStats`]: reorganize once enough writes have
/// accumulated **and** one of the drift ratios crossed its bound.
#[derive(Debug, Clone, Copy)]
pub struct ReorgPolicy {
    /// Minimum accumulated writes (inserts + tombstones) before a
    /// reorganization is even considered — reorganizing a near-empty delta
    /// is all cost, no locality.
    pub min_delta_triples: u64,
    /// Fire when (inserts + tombstones) / base exceeds this.
    pub max_delta_ratio: f64,
    /// Fire when the irregular-triple ratio (base irregular + unorganized
    /// delta, over all visible triples) exceeds this.
    pub max_irregular_ratio: f64,
    /// Fire when the fraction of delta subjects the incremental assigner
    /// could not route to any existing class exceeds this — the emergent
    /// schema itself has drifted and discovery must re-run.
    pub max_unmatched_ratio: f64,
}

impl Default for ReorgPolicy {
    fn default() -> ReorgPolicy {
        ReorgPolicy {
            min_delta_triples: 4096,
            max_delta_ratio: 0.10,
            max_irregular_ratio: 0.25,
            max_unmatched_ratio: 0.50,
        }
    }
}

impl ReorgPolicy {
    /// Fire on any pending write — tests and interactive use.
    pub fn eager() -> ReorgPolicy {
        ReorgPolicy {
            min_delta_triples: 1,
            max_delta_ratio: 0.0,
            max_irregular_ratio: 0.0,
            max_unmatched_ratio: 0.0,
        }
    }

    /// Why this policy fires on `drift`, or `None` to keep accumulating.
    pub fn trigger_reason(&self, drift: &DriftStats) -> Option<String> {
        let writes = drift.n_delta_inserts + drift.n_tombstones;
        if writes < self.min_delta_triples {
            return None;
        }
        if drift.delta_ratio() > self.max_delta_ratio {
            return Some(format!(
                "delta ratio {:.4} > {:.4}",
                drift.delta_ratio(),
                self.max_delta_ratio
            ));
        }
        if drift.irregular_ratio() > self.max_irregular_ratio {
            return Some(format!(
                "irregular ratio {:.4} > {:.4}",
                drift.irregular_ratio(),
                self.max_irregular_ratio
            ));
        }
        if drift.unmatched_subjects > 0 && drift.unmatched_ratio() > self.max_unmatched_ratio {
            return Some(format!(
                "unmatched subject ratio {:.4} > {:.4}",
                drift.unmatched_ratio(),
                self.max_unmatched_ratio
            ));
        }
        None
    }
}

/// What a reorganization ([`Database::maybe_reorganize`],
/// [`Database::reorganize_async`]) decided and did.
#[derive(Debug, Clone)]
pub struct ReorgOutcome {
    /// Did the policy fire (or was the reorganization unconditional)?
    pub fired: bool,
    /// Was a fresh generation actually swapped in? `false` when the rebuild
    /// was superseded by a concurrent bulk load / explicit build, which
    /// invalidated the snapshot it was built from.
    pub swapped: bool,
    /// The policy threshold that fired, if any.
    pub reason: Option<String>,
    /// Drift at decision time.
    pub drift_before: DriftStats,
    /// Irregular-triple ratio of the fresh clustered generation (only when
    /// swapped and the database is organized).
    pub irregular_ratio_after: Option<f64>,
    /// The clustering report of the fresh generation, if swapped.
    pub report: Option<ReorgReport>,
}

/// Write-path bookkeeping between reorganizations: the incremental CS
/// assigner plus the routing decisions it made for delta-new subjects.
struct WriteState {
    assigner: IncrementalAssigner,
    /// Delta-new subjects (not in the base assignment): the union of their
    /// inserted property sets, sorted + deduplicated.
    pending_props: FxHashMap<Oid, Vec<Oid>>,
    /// Subjects the assigner routed to an existing class.
    pending_class: FxHashMap<Oid, ClassId>,
    /// Pending delta triples per class (base-assigned or routed subjects).
    per_class_fill: Vec<u64>,
}

/// The durable side of a database opened with [`Database::open`] /
/// [`Database::create_durable`]: the live write-ahead log plus manifest
/// bookkeeping. Lives inside the state lock, so logging an applied write
/// and applying it are one atomic step with respect to other writers.
struct DurableState {
    /// The durable directory (MANIFEST, `snap.<N>`, `wal.<N>`, data.db).
    dir: PathBuf,
    /// The live log (`wal.<wal_file>`), positioned to append.
    wal: WalWriter,
    /// When appends are fsync'd (the acknowledgment barrier).
    policy: SyncPolicy,
    /// Number of the live snapshot file.
    snap_file: u64,
    /// Number of the live WAL file.
    wal_file: u64,
    /// Log sequence of the last appended record. Advances by exactly one
    /// per applied write batch, in lockstep with the delta sequence while
    /// the store is organized — the generation swap relies on that to
    /// rotate the WAL down to exactly the catch-up suffix.
    seq: u64,
}

/// The mutable core the state lock protects. Everything a query needs is
/// cloned *out* of here at query start (generation handle + delta view);
/// writers mutate under the lock; a generation swap replaces `gen` and
/// `delta` wholesale.
struct State {
    /// The current generation. Queries clone the handle; rebuilds pin it.
    gen: GenerationHandle,
    /// Pending writes since the last (re)build: insert runs + tombstones,
    /// snapshot-sequenced. Queries merge this with the base generations.
    delta: DeltaStore,
    /// Incremental CS routing state for the pending writes.
    write: Option<WriteState>,
    /// The schema configuration of the last discovery — reused for
    /// incremental routing admissibility and for re-discovery during
    /// reorganization, so a custom config survives the lifecycle.
    schema_cfg: SchemaConfig,
    /// Bumped whenever `gen` is replaced or its base content changes. A
    /// rebuild records the epoch it pinned; the swap refuses (is
    /// *superseded*) if the epoch moved, because its input snapshot no
    /// longer describes the base.
    epoch: u64,
    /// The epoch claimed by an in-flight rebuild (`None` when idle). At
    /// most one rebuild runs at a time.
    rebuild: Option<u64>,
    /// WAL + manifest when the database is durable; `None` for in-memory /
    /// cache-only databases (and during recovery replay, so replaying
    /// logged writes does not re-log them).
    durable: Option<DurableState>,
    /// Page-encoding scheme for the *next* build/reorganization (already
    /// built generations keep the scheme recorded on them).
    encoding: ColumnEncoding,
}

/// Shared interior of [`Database`]: everything queries, writers and the
/// background rebuild worker touch. `Database` itself adds only per-handle
/// defaults (exec config) and the auto-reorg thread handle.
struct DbInner {
    dm: Arc<DiskManager>,
    pool: BufferPool,
    state: Mutex<State>,
    /// Optimized physical plans keyed on query *shape* (normalized BGP +
    /// select/filter structure with constants abstracted + generation +
    /// scheme + zone maps). Epoch-stamped: a generation swap or base change
    /// bumps [`State::epoch`], and the first lookup under the new epoch
    /// clears the cache — cached plans reference OIDs of the pinned
    /// dictionary, which a swap renumbers. Pending delta writes do *not*
    /// bump the epoch: a cached plan stays correct under writes (the plan
    /// is executable against any snapshot), merely possibly stale-optimal
    /// until the next swap re-plans with drift-adjusted statistics.
    plans: Mutex<PlanCache>,
}

/// See [`DbInner::plans`].
#[derive(Default)]
struct PlanCache {
    /// The [`State::epoch`] the cached plans were optimized under.
    epoch: u64,
    map: HashMap<String, Arc<PhysicalPlan>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Plan-cache counters (see [`Database::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Cached plans currently held.
    pub entries: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the optimizer.
    pub misses: u64,
    /// Whole-cache invalidations (epoch bumps observed).
    pub invalidations: u64,
}

/// Per-component resident-byte accounting (see [`Database::memory_stats`]).
/// Approximate by design: page bytes and pool contents are exact, hash-index
/// and allocator overheads are estimated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Dictionary pools: IRIs, blank nodes and string literals, including
    /// their hash indexes and the front-coded frozen string run.
    pub dict_bytes: u64,
    /// The staged base triples. Non-zero only before the first build: the
    /// built layouts are the base from then on (counted in `column_bytes`).
    pub base_triples_bytes: u64,
    /// Encoded column/index pages across every built layout (baseline
    /// permutations, CS tables, clustered segments and their irregular
    /// remainders) — the bytes a full scan must touch.
    pub column_bytes: u64,
    /// What those same pages would occupy under plain (uncompressed)
    /// encoding; `column_plain_bytes / column_bytes` is the column-store
    /// compression ratio.
    pub column_plain_bytes: u64,
    /// Pending delta writes (insert runs + tombstones).
    pub delta_bytes: u64,
    /// Visible triples backing the `bytes_per_triple` ratio.
    pub n_triples: u64,
    /// Column bytes split by layout family (`column_bytes` is their sum):
    /// baseline permutations, CS-table segments, clustered segments, and
    /// the irregular remainders of both table stores.
    pub classes: [ClassBytes; 4],
    /// Resident bytes of the front-coded frozen string run — the
    /// dictionary-side analogue of `column_bytes` (0 before the first
    /// string sort).
    pub dict_string_bytes: u64,
    /// What that frozen run would occupy stored as plain `String`s.
    pub dict_string_plain_bytes: u64,
}

/// Encoded vs plain-counterfactual bytes of one column layout family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassBytes {
    /// Layout family: `baseline`, `cs_tables`, `clustered` or `irregular`.
    pub name: &'static str,
    /// Bytes the encoded pages occupy.
    pub encoded: u64,
    /// Bytes the same pages would occupy unencoded.
    pub plain: u64,
}

impl ClassBytes {
    /// Compression ratio (`plain / encoded`); 1.0 when the class is empty.
    pub fn ratio(&self) -> f64 {
        if self.encoded == 0 {
            1.0
        } else {
            self.plain as f64 / self.encoded as f64
        }
    }
}

impl MemoryStats {
    /// Everything accounted, summed.
    pub fn total_bytes(&self) -> u64 {
        self.dict_bytes + self.base_triples_bytes + self.column_bytes + self.delta_bytes
    }

    /// Resident bytes per visible triple (the paper's headline storage
    /// metric); 0.0 on an empty store.
    pub fn bytes_per_triple(&self) -> f64 {
        if self.n_triples == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.n_triples as f64
        }
    }

    /// Column-store compression ratio (`plain / encoded`); 1.0 when nothing
    /// is built.
    pub fn column_compression_ratio(&self) -> f64 {
        if self.column_bytes == 0 {
            1.0
        } else {
            self.column_plain_bytes as f64 / self.column_bytes as f64
        }
    }
}

/// What one query pins at query start: a generation handle, a pin on that
/// generation's dictionary and the delta view of its write snapshot.
/// Everything is owned/shared — a concurrent swap cannot invalidate it.
#[must_use = "bind the Pin for the query's lifetime; it keeps the pinned generation alive"]
struct Pin {
    gen: GenerationHandle,
    dict: DictPin,
    delta: Option<Arc<DeltaView>>,
    /// The [`State::epoch`] observed at pin time (plan-cache stamping).
    epoch: u64,
}

impl DbInner {
    /// Pin the current generation + delta view (or a historical view for a
    /// pinned snapshot). The state lock is held only long enough to clone
    /// two `Arc`s (plus O(delta) when materializing a historical view).
    // lock-order: acquires(db_state, dict)
    fn pin(&self, snap: Option<Snapshot>) -> Pin {
        let (gen, delta, epoch) = {
            let st = self.state.lock();
            (Arc::clone(&st.gen), view_at(&st, snap), st.epoch)
        };
        let dict = gen.pin_dict();
        Pin {
            gen,
            dict,
            delta,
            epoch,
        }
    }

    /// [`pin`](Self::pin), plus a clone of the incremental assigner's
    /// routing table (delta-new subject → class). The SQL compiler uses it
    /// to widen each table's segment restriction so pending inserts stay
    /// visible; both are captured under one state-lock acquisition so the
    /// routing is consistent with the pinned delta view.
    // lock-order: acquires(db_state, dict)
    fn pin_with_routing(&self, snap: Option<Snapshot>) -> (Pin, FxHashMap<Oid, ClassId>) {
        let (gen, delta, epoch, routed) = {
            let st = self.state.lock();
            let delta = view_at(&st, snap);
            let routed = st
                .write
                .as_ref()
                .map(|w| w.pending_class.clone())
                .unwrap_or_default();
            (Arc::clone(&st.gen), delta, st.epoch, routed)
        };
        let dict = gen.pin_dict();
        (
            Pin {
                gen,
                dict,
                delta,
                epoch,
            },
            routed,
        )
    }

    /// Fetch a cached plan for `key` (stamped `epoch`), or optimize via
    /// `make` and cache the result. An epoch change clears the whole cache
    /// first — every cached plan references the superseded dictionary.
    ///
    /// The `plans` mutex is unranked and leaf-only: held just for the map
    /// access, never across `pin()`/`state` acquisitions or the optimizer.
    fn cached_plan(
        &self,
        key: String,
        epoch: u64,
        make: impl FnOnce() -> PhysicalPlan,
    ) -> Arc<PhysicalPlan> {
        {
            let mut pc = self.plans.lock();
            if pc.epoch != epoch {
                pc.map.clear();
                pc.epoch = epoch;
                pc.invalidations += 1;
            }
            if let Some(pp) = pc.map.get(&key).map(Arc::clone) {
                pc.hits += 1;
                return pp;
            }
            pc.misses += 1;
        }
        // Optimize outside the lock — concurrent same-shape queries may
        // both optimize; last insert wins, both plans are valid.
        let pp = Arc::new(make());
        let mut pc = self.plans.lock();
        if pc.epoch == epoch {
            pc.map.insert(key, Arc::clone(&pp));
        }
        pp
    }

    // lock-order: acquires(db_state)
    fn drift_stats(&self) -> DriftStats {
        drift_stats_locked(&self.state.lock())
    }
}

/// The self-organizing RDF database.
///
/// Thread-safe with interior mutability: queries take `&self` and *pin*
/// the generation they run against; writes also take `&self` and serialize
/// on an internal state lock. `&mut self` remains only where a second
/// handle must not exist (starting/stopping the auto-reorg thread).
pub struct Database {
    inner: Arc<DbInner>,
    /// Default engine configuration used by [`Database::query`].
    config: ExecConfig,
    /// The auto-reorganization thread, if started.
    auto: Option<AutoReorg>,
}

impl Database {
    /// A database backed by a temp file (deleted on drop).
    pub fn in_temp_dir() -> Result<Database, Error> {
        Ok(Database::with_disk(Arc::new(DiskManager::temp()?)))
    }

    /// A database backed by the given file (truncated).
    pub fn create(path: &Path) -> Result<Database, Error> {
        Ok(Database::with_disk(Arc::new(DiskManager::create(path)?)))
    }

    fn with_disk(dm: Arc<DiskManager>) -> Database {
        let pool = BufferPool::new(Arc::clone(&dm), 4096); // 256 MiB cache
        Database {
            inner: Arc::new(DbInner {
                dm,
                pool,
                plans: Mutex::new(PlanCache::default()),
                state: Mutex::new(State {
                    gen: Arc::new(StoreGeneration::staging(
                        Arc::new(Dictionary::new()),
                        Vec::new(),
                        ColumnEncoding::default(),
                    )),
                    delta: DeltaStore::new(),
                    write: None,
                    schema_cfg: SchemaConfig::default(),
                    epoch: 0,
                    rebuild: None,
                    durable: None,
                    encoding: ColumnEncoding::default(),
                }),
            }),
            config: ExecConfig::default(),
            auto: None,
        }
    }

    // ---- durability --------------------------------------------------------

    /// Open (or create) a **durable** database in `dir` with the strictest
    /// policy, [`SyncPolicy::Always`]: every write batch is fsync'd to the
    /// write-ahead log before the call returns, so an acknowledged write
    /// survives any crash. An existing directory is recovered: the live
    /// checkpoint snapshot is reloaded, its layouts are rebuilt, and every
    /// intact WAL record after the checkpoint is replayed (the log is
    /// truncated at the first torn or corrupt frame).
    pub fn open(dir: &Path) -> Result<Database, Error> {
        Database::open_with_policy(dir, SyncPolicy::Always)
    }

    /// [`Database::open`] with an explicit durability policy.
    pub fn open_with_policy(dir: &Path, policy: SyncPolicy) -> Result<Database, Error> {
        fs::create_dir_all(dir)?;
        match Manifest::read(dir)? {
            None => Database::init_durable(dir, policy),
            Some(m) => Database::recover(dir, m, policy),
        }
    }

    /// Create a **fresh** durable database in `dir` (which must not already
    /// hold one). Use [`Database::open`] to recover an existing directory.
    pub fn create_durable(dir: &Path, policy: SyncPolicy) -> Result<Database, Error> {
        fs::create_dir_all(dir)?;
        if Manifest::path(dir).exists() {
            return Err(Error::State(format!(
                "{} already holds a durable database; use Database::open",
                dir.display()
            )));
        }
        Database::init_durable(dir, policy)
    }

    /// Commit the empty initial checkpoint (`snap.0` + `wal.0` + MANIFEST)
    /// so any later crash finds a committed state to recover to.
    // lock-order: acquires(db_state)
    fn init_durable(dir: &Path, policy: SyncPolicy) -> Result<Database, Error> {
        let db = Database::with_disk(Arc::new(DiskManager::create(&dir.join("data.db"))?));
        let snap = StoreSnapshot {
            base_seq: 0,
            flags: LayoutFlags::default(),
            schema_cfg: SchemaConfig::default(),
            triples: Vec::new(),
        };
        snap.write_to(&Manifest::snap_path(dir, 0))?;
        let wal = WalWriter::create(&Manifest::wal_path(dir, 0))?;
        let m = Manifest {
            snap_file: 0,
            wal_file: 0,
            base_seq: 0,
        };
        m.commit(dir)?;
        // A half-created directory may hold leftovers from a crash before
        // the first commit.
        m.remove_orphans(dir)?;
        db.inner.state.lock().durable = Some(DurableState {
            dir: dir.to_path_buf(),
            wal,
            policy,
            snap_file: 0,
            wal_file: 0,
            seq: 0,
        });
        Ok(db)
    }

    /// Recovery: reload the live checkpoint, rebuild its layouts in the
    /// deterministic order `self_organize` → `build_cs_tables` →
    /// `build_baseline`, then replay the WAL suffix through the public
    /// write paths. The durable handle is installed only *after* the
    /// replay, so replayed writes are not logged a second time.
    // lock-order: acquires(db_state)
    fn recover(dir: &Path, m: Manifest, policy: SyncPolicy) -> Result<Database, Error> {
        let snap = StoreSnapshot::read_from(&Manifest::snap_path(dir, m.snap_file))?;
        let (wal, records) = WalWriter::open_recover(&Manifest::wal_path(dir, m.wal_file))?;
        // The page file is a derived cache: recovery rebuilds every column
        // from the logical snapshot, so it starts from scratch.
        let db = Database::with_disk(Arc::new(DiskManager::create(&dir.join("data.db"))?));
        if !snap.triples.is_empty() {
            db.load_terms(&snap.triples)?;
        }
        {
            let mut st = db.inner.state.lock();
            st.schema_cfg = snap.schema_cfg.clone();
            // Restore the recorded scheme before any rebuild below.
            st.encoding = snap.flags.encoding();
        }
        if snap.flags.clustered {
            db.self_organize()?;
        }
        if snap.flags.cs_parse_order {
            db.build_cs_tables()?;
        }
        if snap.flags.baseline {
            db.build_baseline()?;
        }
        if snap.flags.schema && !snap.flags.clustered && !snap.flags.cs_parse_order {
            db.discover_schema(&snap.schema_cfg)?;
        }
        let mut last_seq = m.base_seq;
        for (_lsn, seq, record) in records {
            if seq <= m.base_seq {
                continue; // already folded into the snapshot
            }
            match &record {
                WalRecord::Insert(t) => {
                    db.insert_terms(t)?;
                }
                WalRecord::Delete(t) => {
                    db.delete_triples(t)?;
                }
                WalRecord::Load(t) => {
                    db.load_terms(t)?;
                }
            }
            last_seq = seq;
        }
        db.inner.state.lock().durable = Some(DurableState {
            dir: dir.to_path_buf(),
            wal,
            policy,
            snap_file: m.snap_file,
            wal_file: m.wal_file,
            seq: last_seq,
        });
        Ok(db)
    }

    /// Set the page-encoding scheme for **subsequently built** generations
    /// (compressed frame-of-reference pages by default). Already-built
    /// layouts keep their scheme until the next build or reorganization
    /// rebuilds them; call [`Database::reorganize_now`] to re-encode in
    /// place. The scheme is persisted in the manifest and restored by
    /// recovery.
    // lock-order: acquires(db_state)
    pub fn set_encoding(&self, encoding: ColumnEncoding) {
        self.inner.state.lock().encoding = encoding;
    }

    /// The page-encoding scheme of the current generation's layouts.
    // lock-order: acquires(db_state)
    pub fn encoding(&self) -> ColumnEncoding {
        self.inner.state.lock().gen.encoding
    }

    /// Set the WAL record encoding for subsequent write batches (N-Triples
    /// text by default). Takes effect immediately and survives WAL
    /// rotations (checkpoints, generation swaps); already-written records
    /// keep their encoding — recovery auto-detects per record, so a log may
    /// mix both. No-op on a non-durable database.
    // lock-order: acquires(db_state)
    pub fn set_wal_format(&self, format: WalFormat) {
        if let Some(d) = self.inner.state.lock().durable.as_mut() {
            d.wal.set_format(format);
        }
    }

    /// The WAL record encoding of subsequent appends; `None` when not
    /// durable.
    // lock-order: acquires(db_state)
    pub fn wal_format(&self) -> Option<WalFormat> {
        self.inner
            .state
            .lock()
            .durable
            .as_ref()
            .map(|d| d.wal.format())
    }

    /// Is this database durable (opened via [`Database::open`] /
    /// [`Database::create_durable`])?
    // lock-order: acquires(db_state)
    pub fn is_durable(&self) -> bool {
        self.inner.state.lock().durable.is_some()
    }

    /// Force any policy-deferred WAL tail to stable storage (a no-op under
    /// [`SyncPolicy::Always`], and on non-durable databases).
    // lock-order: acquires(db_state)
    pub fn flush_wal(&self) -> Result<(), Error> {
        if let Some(d) = self.inner.state.lock().durable.as_mut() {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Write a full checkpoint: snapshot the current visible triples (base
    /// merged with the delta), rotate to a fresh empty WAL and commit the
    /// manifest, bounding both recovery replay time and log size. The
    /// in-memory state is untouched — on recovery the checkpointed delta
    /// simply starts out folded into the base, which is logically
    /// equivalent. Errors on non-durable databases.
    // lock-order: acquires(db_state, dict)
    pub fn checkpoint(&self) -> Result<(), Error> {
        let mut st = self.inner.state.lock();
        if st.durable.is_none() {
            return Err(Error::State("not a durable database".into()));
        }
        checkpoint_locked(&mut st, &self.inner.pool)
    }

    /// Merge the delta store's insert runs into one, physically dropping
    /// run triples already killed by tombstones (which are kept — they
    /// still filter the base). Off the write path: run it from a
    /// maintenance thread when [`Database::delta_runs`] grows. Historical
    /// snapshots below the current sequence are clamped up to it afterwards
    /// (exactly like a reorganization folds history into the base).
    /// Returns `false` (without compacting) while a rebuild is in flight —
    /// the swap's catch-up fold needs the original per-batch runs.
    // lock-order: acquires(db_state)
    pub fn compact_delta(&self) -> Result<bool, Error> {
        let mut st = self.inner.state.lock();
        if st.rebuild.is_some() || st.delta.n_runs() <= 1 {
            return Ok(false);
        }
        st.delta.compact_runs();
        Ok(true)
    }

    /// Number of insert runs currently in the delta store.
    // lock-order: acquires(db_state)
    pub fn delta_runs(&self) -> usize {
        self.inner.state.lock().delta.n_runs()
    }

    // ---- loading -----------------------------------------------------------

    /// Bulk-load an N-Triples document into the staging set. Folds the
    /// built stores and any pending delta writes back into a staged base
    /// first, so the next build sees everything. Returns the number of
    /// triples added: the store is an RDF set, so triples already present
    /// are skipped. For incremental writes after a build, use
    /// [`Database::insert_ntriples`].
    pub fn load_ntriples(&self, text: &str) -> Result<usize, Error> {
        let parsed = ntriples::parse_document(text)?;
        self.load_terms(&parsed)
    }

    /// Bulk-load term triples from a generator. Same semantics as
    /// [`Database::load_ntriples`].
    // lock-order: acquires(db_state)
    pub fn load_terms(&self, triples: &[TermTriple]) -> Result<usize, Error> {
        let mut st = self.inner.state.lock();
        load_terms_locked(&mut st, &self.inner.pool, triples)
    }

    /// Number of visible triples: base triples minus tombstoned ones, plus
    /// visible delta inserts.
    // lock-order: acquires(db_state)
    pub fn n_triples(&self) -> usize {
        visible_count(&self.inner.state.lock(), &self.inner.pool)
    }

    /// Pin the current generation's dictionary. Holding a pin never blocks
    /// (or deadlocks) anything: the dictionary interns through `&self`
    /// (append-only pools, lock-free reads), so writers grow it in place
    /// while pins are open, and a generation swap installs a new dictionary
    /// outright. A pin observes terms interned into its generation after it
    /// was taken (the OIDs it already resolved never move); it stops
    /// following the live store only once a swap replaces the generation.
    // lock-order: acquires(db_state)
    pub fn dict(&self) -> DictPin {
        let gen = Arc::clone(&self.inner.state.lock().gen);
        gen.pin_dict()
    }

    // ---- writes (the delta path) -------------------------------------------

    /// Insert an N-Triples document. Before any generation is built this is
    /// plain staging ([`Database::load_ntriples`]); afterwards the triples
    /// land in the delta store — sorted in-memory runs the query engine
    /// merges with the base scans — and each inserted subject is routed
    /// against the discovered schema for drift tracking. No built column is
    /// touched; call [`Database::maybe_reorganize`] (or let a background
    /// reorganization run) to fold the delta into a fresh organized
    /// generation when drift warrants it. Returns the number of triples
    /// added: the store is an RDF set, so triples already visible (and
    /// repeats within the batch) are skipped before the batch is logged.
    pub fn insert_ntriples(&self, text: &str) -> Result<usize, Error> {
        let parsed = ntriples::parse_document(text)?;
        self.insert_terms(&parsed)
    }

    /// Insert term triples (the [`Database::insert_ntriples`] of generators).
    // lock-order: acquires(db_state)
    pub fn insert_terms(&self, triples: &[TermTriple]) -> Result<usize, Error> {
        if triples.is_empty() {
            return Ok(0);
        }
        let pool = &self.inner.pool;
        let mut st = self.inner.state.lock();
        if !st.gen.any_built() {
            return load_terms_locked(&mut st, pool, triples);
        }
        let st = &mut *st;
        let (encoded, strings_appended) = intern_batch(st, |dict| encode_terms(dict, triples))?;
        if strings_appended {
            st.delta.set_strings_appended();
        }
        // Set semantics: keep only the first occurrence of each triple that
        // is not already visible, so neither the log nor the delta ever
        // holds a second copy.
        let mut seen = FxHashSet::default();
        let fresh: Vec<usize> = (0..encoded.len())
            .filter(|&i| seen.insert(encoded[i]) && !is_visible(st, pool, encoded[i]))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        // Write-ahead: the batch reaches the log (and, under Always, the
        // disk) before any in-memory structure sees it.
        if st.durable.is_some() {
            let terms = fresh.iter().map(|&i| triples[i].clone()).collect();
            log_write(st, &WalRecord::Insert(terms))?;
        }
        let encoded: Vec<Triple> = fresh.iter().map(|&i| encoded[i]).collect();
        route_inserts(
            &mut st.write,
            st.gen.schema.as_deref(),
            &st.schema_cfg,
            &encoded,
        );
        let _ = st.delta.insert_run(encoded);
        Ok(fresh.len())
    }

    /// Delete exact triples (RDF set semantics: each visible triple is
    /// removed). Unknown terms match nothing. Deletes are tombstones — base
    /// columns are untouched; scans filter. Returns the number of distinct
    /// triples actually deleted.
    // lock-order: acquires(db_state, dict)
    pub fn delete_triples(&self, triples: &[TermTriple]) -> Result<usize, Error> {
        let mut st = self.inner.state.lock();
        let mut targets = Vec::with_capacity(triples.len());
        {
            let dict = st.gen.dict.as_ref();
            for t in triples {
                let (Some(s), Some(p), Some(o)) = (
                    term_oid_skolemized(dict, &t.s),
                    term_oid_skolemized(dict, &t.p),
                    term_oid_skolemized(dict, &t.o),
                ) else {
                    continue;
                };
                targets.push(Triple::new(s, p, o));
            }
        }
        targets.sort_unstable();
        targets.dedup();
        delete_encoded_locked(&mut st, &self.inner.pool, targets)
    }

    /// Delete every visible triple matching the pattern (`None` = wildcard).
    /// Returns the number of distinct triples deleted.
    // lock-order: acquires(db_state, dict)
    pub fn delete_matching(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Result<usize, Error> {
        let mut st = self.inner.state.lock();
        let (s, p, o) = {
            let dict = st.gen.dict.as_ref();
            let enc = |t: Option<&Term>| -> Result<Option<Oid>, ()> {
                match t {
                    None => Ok(None),
                    Some(term) => match term_oid_skolemized(dict, term) {
                        Some(oid) => Ok(Some(oid)),
                        None => Err(()), // unknown term: nothing can match
                    },
                }
            };
            match (enc(s), enc(p), enc(o)) {
                (Ok(s), Ok(p), Ok(o)) => (s, p, o),
                _ => return Ok(0),
            }
        };
        let matches = |t: &Triple| {
            s.map_or(true, |x| t.s == x)
                && p.map_or(true, |x| t.p == x)
                && o.map_or(true, |x| t.o == x)
        };
        let pool = &self.inner.pool;
        let mut targets = st.gen.visible_triples(pool, st.delta.current_view());
        targets.retain(matches);
        targets.sort_unstable();
        delete_encoded_locked(&mut st, pool, targets)
    }

    /// A snapshot of the current write sequence. Queries pinned to it via
    /// [`Database::query_snapshot`] see exactly the writes applied so far —
    /// later inserts and deletes are invisible to them (MVCC-lite: the delta
    /// store keeps every version until a reorganization folds it into the
    /// base; snapshots taken at or after a background rebuild's pin stay
    /// valid across the swap, older ones are clamped to the fold point).
    // lock-order: acquires(db_state)
    pub fn snapshot(&self) -> Snapshot {
        self.inner.state.lock().delta.snapshot()
    }

    /// Run a SPARQL query pinned to a [`Snapshot`] (newest generation,
    /// default configuration).
    pub fn query_snapshot(&self, sparql: &str, snap: Snapshot) -> Result<ResultSet, Error> {
        Ok(self
            .execute(&QueryRequest::sparql(sparql).snapshot(snap))?
            .results)
    }

    /// Incremental-routing drift statistics: how far the live data has
    /// diverged from the organized base generation.
    pub fn drift_stats(&self) -> DriftStats {
        self.inner.drift_stats()
    }

    /// Per-component resident-byte accounting of the current state: the
    /// dictionary, the staged base (before the first build), every built
    /// layout's encoded pages (with their plain-encoding counterfactual for
    /// the compression ratio) and the pending delta. See [`MemoryStats`].
    // lock-order: acquires(db_state)
    pub fn memory_stats(&self) -> MemoryStats {
        let st = self.inner.state.lock();
        let triple = std::mem::size_of::<Triple>() as u64;
        let class = |name, encoded: usize, plain: usize| ClassBytes {
            name,
            encoded: encoded as u64,
            plain: plain as u64,
        };
        let mut classes = [
            class("baseline", 0, 0),
            class("cs_tables", 0, 0),
            class("clustered", 0, 0),
            class("irregular", 0, 0),
        ];
        if let Some(b) = &st.gen.baseline {
            classes[0] = class("baseline", b.used_bytes(), b.plain_bytes());
        }
        let cs = st.gen.cs_parse_order.iter().map(|(s, _)| (1usize, s));
        let clustered = st.gen.clustered.iter().map(|s| (2usize, s));
        for (i, store) in cs.chain(clustered) {
            classes[i].encoded += store.segment_used_bytes() as u64;
            classes[i].plain += store.segment_plain_bytes() as u64;
            classes[3].encoded += store.irregular.used_bytes() as u64;
            classes[3].plain += store.irregular.plain_bytes() as u64;
        }
        let (dict_enc, dict_plain) = st.gen.dict.string_front_coding_bytes();
        MemoryStats {
            dict_bytes: st.gen.dict.approx_bytes().total(),
            base_triples_bytes: st.gen.staged.len() as u64 * triple,
            column_bytes: classes.iter().map(|c| c.encoded).sum(),
            column_plain_bytes: classes.iter().map(|c| c.plain).sum(),
            delta_bytes: st.delta.approx_bytes(),
            n_triples: visible_count(&st, &self.inner.pool) as u64,
            classes,
            dict_string_bytes: dict_enc,
            dict_string_plain_bytes: dict_plain,
        }
    }

    // ---- reorganization ----------------------------------------------------

    /// Adaptive reorganization: evaluate `policy` against the current
    /// [`DriftStats`] and, when a threshold fires, rebuild every live
    /// generation (schema re-discovery, subject re-clustering, fresh column
    /// segments) over the merged base + delta and swap it in behind the
    /// query API. Runs **synchronously** on the calling thread; concurrent
    /// queries keep executing against their pinned generation throughout,
    /// and writes that land mid-rebuild are folded into the fresh delta at
    /// the swap. For the non-blocking variant see
    /// [`Database::maybe_reorganize_async`].
    pub fn maybe_reorganize(&self, policy: &ReorgPolicy) -> Result<ReorgOutcome, Error> {
        let drift = self.inner.drift_stats();
        let Some(reason) = policy.trigger_reason(&drift) else {
            return Ok(ReorgOutcome {
                fired: false,
                swapped: false,
                reason: None,
                drift_before: drift,
                irregular_ratio_after: None,
                report: None,
            });
        };
        let pin = begin_rebuild(&self.inner)?;
        run_rebuild(&self.inner, pin, Some(reason), drift)
    }

    /// Unconditional synchronous reorganization: fold the pending delta into
    /// the base set and rebuild whatever generations were built (a clustered
    /// database re-runs discovery + clustering; a baseline/CS database
    /// rebuilds its indexes over the merged data).
    pub fn reorganize_now(&self) -> Result<(), Error> {
        let drift = self.inner.drift_stats();
        let pin = begin_rebuild(&self.inner)?;
        let outcome = run_rebuild(&self.inner, pin, None, drift)?;
        if outcome.swapped {
            Ok(())
        } else {
            Err(Error::State(
                "reorganization superseded by a concurrent bulk load".into(),
            ))
        }
    }

    /// Start an **asynchronous, unconditional** reorganization: pin the
    /// current generation + write snapshot, build the next generation on a
    /// worker thread, then swap it in (folding writes that arrived during
    /// the rebuild into the fresh delta). Queries and writes proceed
    /// throughout; the returned [`BackgroundReorg`] handle observes
    /// completion. The swap happens even if the handle is dropped.
    ///
    /// Errors if nothing is built yet or another rebuild is in flight.
    pub fn reorganize_async(&self) -> Result<BackgroundReorg, Error> {
        let drift = self.inner.drift_stats();
        let pin = begin_rebuild(&self.inner)?;
        Ok(spawn_rebuild(&self.inner, pin, None, drift))
    }

    /// The policy-gated variant of [`Database::reorganize_async`]: `None`
    /// when `policy` does not fire on the current drift.
    pub fn maybe_reorganize_async(
        &self,
        policy: &ReorgPolicy,
    ) -> Result<Option<BackgroundReorg>, Error> {
        let drift = self.inner.drift_stats();
        let Some(reason) = policy.trigger_reason(&drift) else {
            return Ok(None);
        };
        let pin = begin_rebuild(&self.inner)?;
        Ok(Some(spawn_rebuild(&self.inner, pin, Some(reason), drift)))
    }

    /// Is a (sync or async) rebuild currently in flight?
    // lock-order: acquires(db_state)
    pub fn reorg_in_flight(&self) -> bool {
        self.inner.state.lock().rebuild.is_some()
    }

    /// Start the auto-reorganization thread: every `interval` it evaluates
    /// `policy` against the current drift and, when a threshold fires, runs
    /// a full background rebuild + swap (the same protocol as
    /// [`Database::reorganize_async`]). Stop it deterministically with
    /// [`Database::stop_auto_reorg`]; dropping the database stops it too.
    // lock-order: acquires(db_state) — the spawned tick closure's compaction
    // branch takes the state lock.
    pub fn start_auto_reorg(
        &mut self,
        policy: ReorgPolicy,
        interval: Duration,
    ) -> Result<(), Error> {
        if self.auto.is_some() {
            return Err(Error::State("auto-reorg thread already running".into()));
        }
        let stop = Arc::new((StdMutex::new(false), Condvar::new()));
        let inner = Arc::clone(&self.inner);
        let stop2 = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("sordf-auto-reorg".into())
            .spawn(move || {
                let (lock, cv) = &*stop2;
                loop {
                    {
                        let stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                        let (stopped, _) = cv
                            .wait_timeout_while(stopped, interval, |s| !*s)
                            .unwrap_or_else(|e| e.into_inner());
                        if *stopped {
                            return;
                        }
                    }
                    let drift = inner.drift_stats();
                    if let Some(reason) = policy.trigger_reason(&drift) {
                        // Skip the tick when another rebuild is in flight;
                        // build errors surface on the next explicit reorg.
                        if let Ok(pin) = begin_rebuild(&inner) {
                            let _ = run_rebuild(&inner, pin, Some(reason), drift);
                        }
                    } else {
                        // Below the reorg thresholds: keep the delta lean by
                        // merging accumulated small insert runs off the
                        // write path (never mid-rebuild — the swap's
                        // catch-up fold needs the per-batch runs).
                        let mut st = inner.state.lock();
                        if st.rebuild.is_none() && st.delta.n_runs() >= COMPACT_RUNS_THRESHOLD {
                            st.delta.compact_runs();
                        }
                    }
                }
            })
            .map_err(Error::Io)?;
        self.auto = Some(AutoReorg { stop, thread });
        Ok(())
    }

    /// Stop the auto-reorganization thread and join it (any rebuild it is
    /// mid-way through completes first). No-op when not running.
    pub fn stop_auto_reorg(&mut self) {
        if let Some(auto) = self.auto.take() {
            *auto.stop.0.lock().unwrap_or_else(|e| e.into_inner()) = true;
            auto.stop.1.notify_all();
            let _ = auto.thread.join();
        }
    }

    /// Is the auto-reorganization thread running?
    pub fn auto_reorg_running(&self) -> bool {
        self.auto.is_some()
    }

    // ---- building generations ----------------------------------------------

    /// Build the exhaustive-index baseline (Table I's "ParseOrder" scheme).
    // lock-order: acquires(db_state)
    pub fn build_baseline(&self) -> Result<(), Error> {
        let mut st = self.inner.state.lock();
        if st.gen.baseline.is_some() {
            return Ok(());
        }
        ensure_no_pending_writes(&st, "build_baseline()")?;
        let base = st.gen.base_triples(&self.inner.pool);
        let store = BaselineStore::build_with(&self.inner.dm, &base, st.encoding);
        let encoding = st.encoding;
        let gen = Arc::make_mut(&mut st.gen);
        gen.staged = Vec::new();
        gen.baseline = Some(Arc::new(store));
        gen.encoding = encoding;
        st.epoch += 1;
        checkpoint_locked(&mut st, &self.inner.pool)?;
        Ok(())
    }

    /// Run schema discovery (idempotent). Returns coverage.
    // lock-order: acquires(db_state)
    pub fn discover_schema(&self, cfg: &SchemaConfig) -> Result<f64, Error> {
        let mut st = self.inner.state.lock();
        let epoch = st.epoch;
        let coverage = discover_schema_locked(&mut st, &self.inner.pool, cfg)?;
        if st.epoch != epoch {
            checkpoint_locked(&mut st, &self.inner.pool)?;
        }
        Ok(coverage)
    }

    /// Build CS tables *without* renumbering OIDs (sparse segments) — the
    /// "RDFscan on ParseOrder" configuration.
    // lock-order: acquires(db_state)
    pub fn build_cs_tables(&self) -> Result<(), Error> {
        let mut st = self.inner.state.lock();
        let epoch = st.epoch;
        build_cs_tables_locked(&mut st, &self.inner.dm, &self.inner.pool)?;
        if st.epoch != epoch {
            checkpoint_locked(&mut st, &self.inner.pool)?;
        }
        Ok(())
    }

    /// Self-organize: discover the schema (if not yet done), cluster subject
    /// OIDs, sort literal OIDs, and rebuild storage as dense CS segments.
    /// Uses [`ClusterSpec::auto`] unless a spec was set via
    /// [`Database::self_organize_with`].
    // lock-order: acquires(db_state)
    pub fn self_organize(&self) -> Result<Arc<EmergentSchema>, Error> {
        let mut st = self.inner.state.lock();
        let epoch = st.epoch;
        let schema = self_organize_locked(&mut st, &self.inner.dm, &self.inner.pool, None)?;
        if st.epoch != epoch {
            checkpoint_locked(&mut st, &self.inner.pool)?;
        }
        Ok(schema)
    }

    /// Self-organize with an explicit clustering spec.
    // lock-order: acquires(db_state)
    pub fn self_organize_with(&self, spec: ClusterSpec) -> Result<Arc<EmergentSchema>, Error> {
        let mut st = self.inner.state.lock();
        let epoch = st.epoch;
        let schema = self_organize_locked(&mut st, &self.inner.dm, &self.inner.pool, Some(spec))?;
        if st.epoch != epoch {
            checkpoint_locked(&mut st, &self.inner.pool)?;
        }
        Ok(schema)
    }

    /// The discovered schema, if any.
    // lock-order: acquires(db_state)
    pub fn schema(&self) -> Option<Arc<EmergentSchema>> {
        self.inner.state.lock().gen.schema.clone()
    }

    /// The clustering report, if self-organized.
    // lock-order: acquires(db_state)
    pub fn reorg_report(&self) -> Option<ReorgReport> {
        self.inner.state.lock().gen.reorg_report.clone()
    }

    /// The clustered store, if self-organized.
    // lock-order: acquires(db_state)
    pub fn clustered_store(&self) -> Option<Arc<ClusteredStore>> {
        self.inner.state.lock().gen.clustered.clone()
    }

    /// Render the SQL view of the emergent schema.
    pub fn ddl(&self) -> Result<String, Error> {
        let pin = self.inner.pin(None);
        let schema = pin
            .gen
            .schema
            .as_ref()
            .ok_or(Error::State("no schema discovered yet".into()))?;
        Ok(schema.render_ddl(&pin.dict))
    }

    // ---- querying ----------------------------------------------------------

    /// Default engine configuration used by [`Database::query`].
    pub fn set_config(&mut self, config: ExecConfig) {
        self.config = config;
    }

    /// Drop the page cache: the next query runs *cold*.
    pub fn drop_cache(&self) {
        self.inner.pool.clear();
    }

    /// Configure synthetic per-page-read latency (models disk I/O in the
    /// cold-run experiments).
    pub fn set_read_latency_ns(&self, ns: u64) {
        self.inner.pool.set_read_latency_ns(ns);
    }

    /// Buffer pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// Page-file occupancy as `(high-water page count, free-listed pages)`.
    /// The difference is the pages holding live column data — the number
    /// the generation GC keeps bounded across rebuild swaps (a swapped-out
    /// generation's extents return to the free list when its last pin
    /// drops, and new builds reuse them).
    pub fn disk_pages(&self) -> (u64, usize) {
        (self.inner.dm.n_pages(), self.inner.dm.n_free_pages())
    }

    /// The underlying buffer pool (advanced use: custom execution contexts,
    /// benchmark instrumentation).
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// Run every structural invariant checker over the live state: buffer
    /// pool accounting, generation/dictionary consistency and delta-store
    /// ordering. Panics on any violation. Debug builds run these
    /// automatically on the write path; stress tests call this explicitly
    /// so release-mode runs are covered too.
    // lock-order: acquires(db_state)
    pub fn validate_invariants(&self) {
        self.inner.pool.check_invariants();
        let st = self.inner.state.lock();
        st.gen.debug_validate();
        st.delta.debug_validate();
    }

    /// The newest generation that has been built.
    // lock-order: acquires(db_state)
    pub fn default_generation(&self) -> Result<Generation, Error> {
        newest_generation(&self.inner.state.lock().gen)
    }

    /// Run a SPARQL query against the newest generation with the default
    /// configuration. Shorthand for
    /// `execute(&QueryRequest::sparql(sparql))`.
    pub fn query(&self, sparql: &str) -> Result<ResultSet, Error> {
        Ok(self.execute(&QueryRequest::sparql(sparql))?.results)
    }

    /// Execute one [`QueryRequest`] — the single entry point every other
    /// query method (and the HTTP server) funnels through.
    ///
    /// Checks the request's token *before* touching any state (so time spent
    /// queueing counts against the deadline), pins the generation + delta
    /// snapshot, runs the engine with the token threaded into the execution
    /// context, and maps a mid-query interrupt to [`Error::Cancelled`] /
    /// [`Error::Timeout`] rather than a stringly [`Error::Exec`]. See
    /// [`QueryResponse`] for the result-decoding rule under concurrent
    /// reorganization.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse, Error> {
        let cancel = req.effective_token();
        if let Some(t) = &cancel {
            match t.stop_reason() {
                Some(StopReason::Cancelled) => return Err(Error::Cancelled),
                Some(StopReason::TimedOut) => return Err(Error::Timeout),
                None => {}
            }
        }
        let config = req.config.unwrap_or(self.config);
        match req.lang {
            QueryLang::Sparql => self.execute_sparql(req, config, cancel),
            QueryLang::Sql => self.execute_sql(req, config, cancel),
        }
    }

    /// The SPARQL half of [`Database::execute`]. No pinned generation =
    /// newest built in the pinned generation (evaluated against the *pin*,
    /// so a concurrent swap cannot split the choice from the data it runs
    /// on).
    fn execute_sparql(
        &self,
        req: &QueryRequest,
        config: ExecConfig,
        cancel: Option<CancellationToken>,
    ) -> Result<QueryResponse, Error> {
        let pin = self.inner.pin(req.snapshot);
        let generation = match req.generation {
            Some(g) => g,
            None => newest_generation(&pin.gen)?,
        };
        let query = sordf_sparql::parse_sparql(&req.text, &pin.dict)?;
        let storage = storage_for(&pin.gen, generation)?;
        let cx = ExecContext::new(&self.inner.pool, &pin.dict, storage, config)
            .with_delta(pin.delta.clone())
            .with_cancel(cancel);
        let pool_before = self.inner.pool.stats();
        let key = plan_cache_key(&query, generation, config, pin.gen.encoding);
        // Query-boundary fault isolation: an engine panic (e.g. a page read
        // that keeps failing after the pool's retries) fails this query, not
        // the process — the next query sees intact immutable storage. A
        // cancellation/deadline interrupt rides the same unwind and is
        // downcast back to its typed error here.
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (q, lp) = sordf_engine::prepare(&query);
            let pp = self
                .inner
                .cached_plan(key, pin.epoch, || sordf_engine::optimize(&cx, &lp));
            match &req.parallel {
                None => sordf_engine::execute_physical_seq(&cx, &q, &lp, &pp),
                Some(par) => sordf_engine::execute_physical_parallel(&cx, &q, &lp, &pp, par),
            }
        }))
        .map_err(interrupt_or_exec)?;
        let stats = cx.stats.snapshot();
        let pool = self.inner.pool.stats().since(&pool_before);
        drop(cx);
        Ok(QueryResponse {
            results,
            pin: pin.dict,
            stats: req.trace.then_some(stats),
            pool: req.trace.then_some(pool),
        })
    }

    /// Run a SPARQL query and return the results together with a read pin
    /// on the dictionary the query executed under. Under concurrent
    /// reorganization this is the only way to decode correctly: a swap
    /// installs a *renumbered* dictionary, so results must be rendered with
    /// the pinned one — `results.canonical(&pin)` — never with a fresh
    /// [`Database::dict`] taken after the query. ([`Database::execute`]
    /// returns the same pin on every [`QueryResponse`].)
    pub fn query_pinned(
        &self,
        sparql: &str,
        generation: Generation,
        config: ExecConfig,
        parallel: Option<&ParallelConfig>,
    ) -> Result<(ResultSet, DictPin), Error> {
        let mut req = QueryRequest::sparql(sparql)
            .generation(generation)
            .config(config);
        if let Some(par) = parallel {
            req = req.parallel(*par);
        }
        let resp = self.execute(&req)?;
        Ok((resp.results, resp.pin))
    }

    /// Explain the plan a SPARQL query would get: star order, the physical
    /// operator and join strategy per step, per-step cost and estimated
    /// cardinality. Always re-optimizes (never served from the plan cache),
    /// so it shows what the optimizer would pick *now*.
    pub fn explain(&self, sparql: &str) -> Result<PlanInfo, Error> {
        let pin = self.inner.pin(None);
        self.explain_pinned(&pin, sparql, newest_generation(&pin.gen)?, self.config)
    }

    /// [`Database::explain`] against an explicit generation and exec config
    /// (the EXPLAIN counterpart of a [`QueryRequest`] pinned with
    /// [`QueryRequest::generation`] and [`QueryRequest::config`]).
    pub fn explain_with(
        &self,
        sparql: &str,
        generation: Generation,
        config: ExecConfig,
    ) -> Result<PlanInfo, Error> {
        let pin = self.inner.pin(None);
        self.explain_pinned(&pin, sparql, generation, config)
    }

    fn explain_pinned(
        &self,
        pin: &Pin,
        sparql: &str,
        generation: Generation,
        config: ExecConfig,
    ) -> Result<PlanInfo, Error> {
        let query = sordf_sparql::parse_sparql(sparql, &pin.dict)?;
        let storage = storage_for(&pin.gen, generation)?;
        let cx = ExecContext::new(&self.inner.pool, &pin.dict, storage, config)
            .with_delta(pin.delta.clone());
        Ok(sordf_engine::explain(&cx, &query))
    }

    /// EXPLAIN ANALYZE: execute the query and report the plan with per-step
    /// *actual* bound-row counts alongside the optimizer's estimates.
    pub fn explain_analyze(&self, sparql: &str) -> Result<(PlanInfo, ResultSet), Error> {
        let pin = self.inner.pin(None);
        let query = sordf_sparql::parse_sparql(sparql, &pin.dict)?;
        let storage = storage_for(&pin.gen, newest_generation(&pin.gen)?)?;
        let cx = ExecContext::new(&self.inner.pool, &pin.dict, storage, self.config)
            .with_delta(pin.delta.clone());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sordf_engine::explain_analyze(&cx, &query)
        }))
        .map_err(|payload| Error::Exec(panic_message(payload)))
    }

    /// Cost every star-order permutation of a query: `(order, total cost)`,
    /// with the per-edge operator choices re-optimized inside each forced
    /// order. Diagnostics for the optimizer itself (is the chosen order
    /// near the best one?); factorial in the star count, so refused beyond
    /// 8 stars.
    pub fn explain_orders(&self, sparql: &str) -> Result<Vec<(Vec<usize>, f64)>, Error> {
        let pin = self.inner.pin(None);
        let query = sordf_sparql::parse_sparql(sparql, &pin.dict)?;
        let storage = storage_for(&pin.gen, newest_generation(&pin.gen)?)?;
        let cx = ExecContext::new(&self.inner.pool, &pin.dict, storage, self.config)
            .with_delta(pin.delta.clone());
        let (_q, lp) = sordf_engine::prepare(&query);
        let n = lp.stars.len();
        if n > 8 {
            return Err(Error::State(format!(
                "explain_orders is factorial; {n} stars exceeds the 8-star limit"
            )));
        }
        let mut out = Vec::new();
        let mut order: Vec<usize> = (0..n).collect();
        permutations(&mut order, 0, &mut |perm| {
            let pp = sordf_engine::optimize_with_order(&cx, &lp, perm);
            out.push((perm.to_vec(), pp.total_cost));
        });
        Ok(out)
    }

    /// Plan-cache counters: entries, hits, misses, and epoch invalidations.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let pc = self.inner.plans.lock();
        PlanCacheStats {
            entries: pc.map.len() as u64,
            hits: pc.hits,
            misses: pc.misses,
            invalidations: pc.invalidations,
        }
    }

    /// Run a SQL query against the emergent relational schema (requires
    /// [`Database::self_organize`] first). Shorthand for
    /// `execute(&QueryRequest::sql(sql))`.
    pub fn sql(&self, sql: &str) -> Result<ResultSet, Error> {
        Ok(self.execute(&QueryRequest::sql(sql))?.results)
    }

    /// The SQL half of [`Database::execute`]: compile against the emergent
    /// schema, run with the same fault-isolation + interrupt boundary as the
    /// SPARQL path.
    fn execute_sql(
        &self,
        req: &QueryRequest,
        config: ExecConfig,
        cancel: Option<CancellationToken>,
    ) -> Result<QueryResponse, Error> {
        let (pin, routed) = self.inner.pin_with_routing(req.snapshot);
        let (Some(store), Some(schema)) = (&pin.gen.clustered, &pin.gen.schema) else {
            return Err(Error::State(
                "SQL view requires self_organize() first".into(),
            ));
        };
        let query = sordf_sql::compile_sql(&req.text, schema, store, &pin.dict, &routed)
            .map_err(Error::Sql)?;
        let storage = StorageRef::Clustered { store, schema };
        // Deletes of base rows are respected through the delta view, and
        // rows inserted since the last reorganization are admitted through
        // the routing table captured with the pin: the compiler widens each
        // table's segment restriction to include its class's delta-routed
        // subjects, whose triples the delta merge already surfaces.
        // (At a historical snapshot, routed-but-later subjects contribute
        // nothing — their triples are absent from that delta view.)
        let cx = ExecContext::new(&self.inner.pool, &pin.dict, storage, config)
            .with_delta(pin.delta.clone())
            .with_cancel(cancel);
        let pool_before = self.inner.pool.stats();
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sordf_engine::execute(&cx, &query)
        }))
        .map_err(interrupt_or_exec)?;
        let stats = cx.stats.snapshot();
        let pool = self.inner.pool.stats().since(&pool_before);
        drop(cx);
        Ok(QueryResponse {
            results,
            pin: pin.dict,
            stats: req.trace.then_some(stats),
            pool: req.trace.then_some(pool),
        })
    }
}

/// Insert-run count at which the auto-reorg thread compacts the delta
/// between reorganizations (see [`Database::compact_delta`]).
const COMPACT_RUNS_THRESHOLD: usize = 32;

impl Drop for Database {
    // lock-order: acquires(db_state)
    fn drop(&mut self) {
        self.stop_auto_reorg();
        // A clean shutdown flushes any policy-deferred WAL tail; a failure
        // here only widens the loss window back to what the policy already
        // allowed, so it is not surfaced from Drop.
        if let Some(d) = self.inner.state.lock().durable.as_mut() {
            let _ = d.wal.sync();
        }
    }
}

// ---- state helpers (all run under the state lock) --------------------------

/// Visit every permutation of `items` (recursive Heap-style enumeration;
/// callers bound the length).
fn permutations(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permutations(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// The plan-cache key: generation + engine config + the structural shape of
/// the parsed query. Variables keep their ids (plan steps reference them,
/// and ids depend on the full parse order — so the *whole* query shape is
/// serialized, not just the BGP); predicates keep their OIDs (they decide
/// the plan); object and filter constants are abstracted to `C`/`N` so one
/// cached plan serves a query family differing only in literals.
fn plan_cache_key(
    query: &sordf_engine::Query,
    generation: Generation,
    config: ExecConfig,
    encoding: ColumnEncoding,
) -> String {
    use sordf_engine::{Expr, SelectItem, VarOrOid};
    use std::fmt::Write;
    fn expr(out: &mut String, e: &Expr) {
        match e {
            Expr::Var(v) => {
                let _ = write!(out, "?{}", v.0);
            }
            Expr::Const(_) => out.push('C'),
            Expr::Num(_) => out.push('N'),
            Expr::Cmp(a, op, b) => {
                let _ = write!(out, "({op:?} ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::Arith(a, op, b) => {
                let _ = write!(out, "({op:?} ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::And(a, b) => {
                out.push_str("(and ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::Or(a, b) => {
                out.push_str("(or ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::Not(a) => {
                out.push_str("(not ");
                expr(out, a);
                out.push(')');
            }
            Expr::InSet(a, set) => {
                // Content-hash the set: only the SQL path builds InSet and
                // SQL queries are not plan-cached today, but a stale hit
                // would be silently wrong if they ever were.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for o in set.iter() {
                    h = (h ^ o.raw()).wrapping_mul(0x0100_0000_01b3);
                }
                let _ = write!(out, "(in{}#{h:016x} ", set.len());
                expr(out, a);
                out.push(')');
            }
        }
    }
    let pos = |out: &mut String, v: VarOrOid| match v {
        VarOrOid::Var(v) => {
            let _ = write!(out, "?{}", v.0);
        }
        VarOrOid::Const(_) => out.push('C'),
    };
    let mut out = format!(
        "{generation:?}|{encoding:?}|{:?}|zm{}|v{}|",
        config.scheme,
        config.zonemaps,
        query.vars.len()
    );
    for p in &query.patterns {
        pos(&mut out, p.s);
        let _ = write!(out, " {} ", p.p.raw());
        pos(&mut out, p.o);
        out.push('.');
    }
    out.push('|');
    for f in &query.filters {
        expr(&mut out, f);
    }
    out.push('|');
    for item in &query.select {
        match item {
            SelectItem::Var(v) => {
                let _ = write!(out, "?{},", v.0);
            }
            SelectItem::Expr { expr: e, .. } => {
                out.push_str("e:");
                expr(&mut out, e);
                out.push(',');
            }
            SelectItem::Agg { func, expr: e, .. } => {
                let _ = write!(out, "a{func:?}:");
                expr(&mut out, e);
                out.push(',');
            }
        }
    }
    out.push('|');
    for g in &query.group_by {
        let _ = write!(out, "?{},", g.0);
    }
    let _ = write!(
        out,
        "|o{:?}|l{:?}|d{}",
        query
            .order_by
            .iter()
            .map(|k| (k.output, k.ascending))
            .collect::<Vec<_>>(),
        query.limit,
        query.distinct
    );
    out
}

/// The newest generation built in `gen`.
fn newest_generation(gen: &StoreGeneration) -> Result<Generation, Error> {
    if gen.clustered.is_some() {
        Ok(Generation::Clustered)
    } else if gen.cs_parse_order.is_some() {
        Ok(Generation::CsParseOrder)
    } else if gen.baseline.is_some() {
        Ok(Generation::Baseline)
    } else {
        Err(Error::State(
            "no storage built; load data and call self_organize()".into(),
        ))
    }
}

fn storage_for(gen: &StoreGeneration, generation: Generation) -> Result<StorageRef<'_>, Error> {
    match generation {
        Generation::Baseline => {
            gen.baseline
                .as_deref()
                .map(StorageRef::Baseline)
                .ok_or(Error::State(
                    "baseline not built; call build_baseline()".into(),
                ))
        }
        Generation::CsParseOrder => gen
            .cs_parse_order
            .as_ref()
            .map(|(store, schema)| StorageRef::Clustered { store, schema })
            .ok_or(Error::State(
                "CS tables not built; call build_cs_tables()".into(),
            )),
        Generation::Clustered => match (&gen.clustered, &gen.schema) {
            (Some(store), Some(schema)) => Ok(StorageRef::Clustered { store, schema }),
            _ => Err(Error::State(
                "not self-organized; call self_organize()".into(),
            )),
        },
    }
}

fn drift_stats_locked(st: &State) -> DriftStats {
    let n_base_irregular = match (&st.gen.clustered, &st.gen.cs_parse_order) {
        (Some(store), _) => store.irregular.len() as u64,
        (None, Some((store, _))) => store.irregular.len() as u64,
        _ => 0,
    };
    let view = st.delta.current_view();
    let (matched, pending, fill) = match &st.write {
        Some(w) => (
            w.pending_class.len() as u64,
            w.pending_props.len() as u64,
            w.per_class_fill.clone(),
        ),
        None => (0, 0, Vec::new()),
    };
    DriftStats {
        n_base_triples: st.gen.n_triples() as u64,
        n_base_irregular,
        n_delta_inserts: view.map_or(0, |v| v.n_inserts() as u64),
        n_tombstones: st.delta.n_tombstones() as u64,
        matched_subjects: matched,
        unmatched_subjects: pending.saturating_sub(matched),
        per_class_fill: fill,
    }
}

/// Decode encoded triples back to terms for WAL logging; `None` when the
/// database is not durable (skips the decode entirely).
fn decode_for_log(st: &State, triples: &[Triple]) -> Result<Option<Vec<TermTriple>>, Error> {
    match st.durable {
        None => Ok(None),
        Some(_) => decode_triples(&st.gen.dict, triples).map(Some),
    }
}

/// Append one write batch to the WAL *before* it is applied in-memory,
/// honoring the sync policy (under [`SyncPolicy::Always`] the return IS the
/// durability acknowledgment). No-op on non-durable databases. On failure
/// the write is rejected and durability is disabled for the rest of the
/// process: the record may or may not have reached the log, so continuing
/// to log around it could silently diverge the log from the applied state —
/// the caller sees the error, the in-memory store stays usable, and the
/// on-disk state remains a consistent (possibly stale) prefix.
fn log_write(st: &mut State, record: &WalRecord) -> Result<(), Error> {
    let Some(d) = st.durable.as_mut() else {
        return Ok(());
    };
    let seq = d.seq + 1;
    match d
        .wal
        .append(seq, record)
        .and_then(|_| d.wal.maybe_sync(d.policy))
    {
        Ok(()) => {
            d.seq = seq;
            Ok(())
        }
        Err(e) => {
            st.durable = None;
            Err(Error::Io(e))
        }
    }
}

/// Write a full checkpoint of the current state (see
/// [`Database::checkpoint`]): snapshot = the *visible* triples (base minus
/// tombstones plus delta inserts) decoded to terms, `base_seq` = the
/// current log sequence; then a fresh WAL and an atomic manifest commit.
/// A failure at any step leaves the previous snapshot + WAL pair live and
/// consistent — the error is returned, durability stays enabled.
fn checkpoint_locked(st: &mut State, pool: &BufferPool) -> Result<(), Error> {
    if st.durable.is_none() {
        return Ok(());
    }
    let visible = st.gen.visible_triples(pool, st.delta.current_view());
    let triples = decode_triples(&st.gen.dict, &visible)?;
    let flags = layout_flags(&st.gen);
    // sordf-lint: allow(L3) — the durable-handle check above returned early.
    let d = st.durable.as_mut().unwrap();
    let snap_n = d.snap_file + 1;
    let wal_n = d.wal_file + 1;
    let snap = StoreSnapshot {
        base_seq: d.seq,
        flags,
        schema_cfg: st.schema_cfg.clone(),
        triples,
    };
    snap.write_to(&Manifest::snap_path(&d.dir, snap_n))?;
    let wal = WalWriter::create_with(&Manifest::wal_path(&d.dir, wal_n), d.wal.format())?;
    crash_point!("checkpoint.pre_manifest");
    let m = Manifest {
        snap_file: snap_n,
        wal_file: wal_n,
        base_seq: d.seq,
    };
    m.commit(&d.dir)?;
    crash_point!("checkpoint.post_manifest");
    d.wal = wal;
    d.snap_file = snap_n;
    d.wal_file = wal_n;
    m.remove_orphans(&d.dir)?;
    Ok(())
}

/// The layouts a snapshot of `gen` records, for recovery to rebuild.
fn layout_flags(gen: &StoreGeneration) -> LayoutFlags {
    let mut flags = LayoutFlags {
        baseline: gen.baseline.is_some(),
        cs_parse_order: gen.cs_parse_order.is_some(),
        clustered: gen.clustered.is_some(),
        schema: gen.schema.is_some(),
        plain_encoding: false,
    };
    flags.record_encoding(gen.encoding);
    flags
}

/// Pending delta writes make a *partial* rebuild unsound (the new store
/// would disagree with the surviving ones about the visible data); the
/// rebuild entry points refuse instead.
fn ensure_no_pending_writes(st: &State, what: &str) -> Result<(), Error> {
    if st.delta.is_empty() {
        Ok(())
    } else {
        Err(Error::State(format!(
            "{what} with pending writes: call reorganize_now() (or maybe_reorganize) first"
        )))
    }
}

/// Fold the built stores and the pending delta back into a staging
/// generation over the visible triples (same dictionary, nothing built, no
/// schema) and reset the write state. No-op on a staging generation.
fn unbuild_locked(st: &mut State, pool: &BufferPool) {
    st.write = None;
    if !st.gen.any_built() {
        return;
    }
    let visible = st.gen.visible_triples(pool, st.delta.current_view());
    st.gen = Arc::new(StoreGeneration::staging(
        Arc::clone(&st.gen.dict),
        visible,
        st.gen.encoding,
    ));
    st.delta = DeltaStore::new();
    st.epoch += 1; // base changed: any pinned rebuild is stale
}

/// The delta view a query at `snap` reads: the cached current view, or a
/// historical one materialized on demand (`None` when empty).
fn view_at(st: &State, snap: Option<Snapshot>) -> Option<Arc<DeltaView>> {
    match snap {
        Some(s) if s.seq() != st.delta.seq() => {
            Some(Arc::new(st.delta.view_at(s))).filter(|v| !v.is_empty())
        }
        _ => st.delta.current_view_arc(),
    }
}

/// Is `t` visible: a base triple without a tombstone, or a visible delta
/// insert?
fn is_visible(st: &State, pool: &BufferPool, t: Triple) -> bool {
    match st.delta.current_view() {
        None => st.gen.contains(pool, &t),
        Some(d) => {
            d.insert_pairs_for(t.p, Some((t.s.raw(), t.s.raw())))
                .any(|(_, o)| o == t.o)
                || (!d.is_deleted(t) && st.gen.contains(pool, &t))
        }
    }
}

/// Number of visible triples: the base minus its tombstoned triples, plus
/// the visible delta inserts. One point probe per tombstone.
fn visible_count(st: &State, pool: &BufferPool) -> usize {
    let n = st.gen.n_triples();
    match st.delta.current_view() {
        None => n,
        Some(view) => {
            let deleted = view
                .tombstones()
                .iter()
                .filter(|t| st.gen.contains(pool, t))
                .count();
            n - deleted + view.n_inserts()
        }
    }
}

/// Intern a write batch into the current generation's dictionary. The
/// dictionary interns through `&self` (append-only pools behind short
/// internal writer locks, lock-free reads), so a pin held anywhere — even
/// on the writing thread itself — can never block or deadlock a writer:
/// the pools grow in place and pinned readers simply observe the appended
/// entries, while every OID they already resolved stays put. Returns the
/// closure's output plus whether string literals now extend past the
/// sorted prefix (the pushdown-disabling watermark check).
fn intern_batch<T>(
    st: &mut State,
    f: impl FnOnce(&Dictionary) -> Result<T, Error>,
) -> Result<(T, bool), Error> {
    let dict = st.gen.dict.as_ref();
    let out = f(dict)?;
    let sa = st.gen.clustered.is_some() && dict.n_strings() > st.gen.strings_sorted_len;
    Ok((out, sa))
}

/// Stage `triples` into the base set: fold built stores and pending writes
/// back into the staged base, then add the batch (the next build sees
/// everything). Returns the number of triples added.
fn load_terms_locked(
    st: &mut State,
    pool: &BufferPool,
    triples: &[TermTriple],
) -> Result<usize, Error> {
    let (encoded, _) = intern_batch(st, |dict| encode_terms(dict, triples))?;
    // Log after the encode proves the batch well-formed (so recovery can
    // never trip over a record the live path rejected) but before any
    // visible mutation. The unbuild below is logically invisible.
    if st.durable.is_some() {
        log_write(st, &WalRecord::Load(triples.to_vec()))?;
    }
    unbuild_locked(st, pool);
    let gen = Arc::make_mut(&mut st.gen);
    let before = gen.staged.len();
    gen.stage(encoded);
    let added = gen.staged.len() - before;
    gen.schema = None;
    st.epoch += 1;
    Ok(added)
}

/// Delete already-encoded triples (SPO-sorted, distinct) that are
/// currently visible: tombstones once a layout is built, removal from the
/// staged base before.
fn delete_encoded_locked(
    st: &mut State,
    pool: &BufferPool,
    mut targets: Vec<Triple>,
) -> Result<usize, Error> {
    targets.retain(|&t| is_visible(st, pool, t));
    if targets.is_empty() {
        return Ok(0);
    }
    // Log the *resolved* visible triples: replay from the same state
    // re-resolves to exactly this set, and zero-match deletes (skipped
    // above) never consume a log sequence — keeping the log and the delta
    // advancing in lockstep.
    if let Some(terms) = decode_for_log(st, &targets)? {
        log_write(st, &WalRecord::Delete(terms))?;
    }
    if st.gen.any_built() {
        let _ = st.delta.delete(&targets);
    } else {
        let gen = Arc::make_mut(&mut st.gen);
        gen.staged.retain(|t| targets.binary_search(t).is_err());
        st.epoch += 1;
    }
    Ok(targets.len())
}

/// Route one insert batch's subjects through the incremental assigner
/// (drift bookkeeping only — queries read delta triples through the merged
/// scans regardless of routing). Shared by the live write path and the
/// catch-up fold of a generation swap (which replays against the *new*
/// schema).
fn route_inserts(
    write: &mut Option<WriteState>,
    schema: Option<&EmergentSchema>,
    cfg: &SchemaConfig,
    encoded: &[Triple],
) {
    let Some(schema) = schema else { return };
    let w = write.get_or_insert_with(|| WriteState {
        assigner: IncrementalAssigner::new(schema),
        pending_props: FxHashMap::default(),
        pending_class: FxHashMap::default(),
        per_class_fill: vec![0; schema.classes.len()],
    });
    let mut by_subject: FxHashMap<Oid, (Vec<Oid>, u64)> = FxHashMap::default();
    for t in encoded {
        let e = by_subject.entry(t.s).or_default();
        e.0.push(t.p);
        e.1 += 1;
    }
    for (s, (mut props, n)) in by_subject {
        if let Some(cid) = schema.class_of(s) {
            // Known subject: its delta triples will cluster back into
            // its class at the next reorganization.
            w.per_class_fill[cid.0 as usize] += n;
            continue;
        }
        props.sort_unstable();
        props.dedup();
        let merged: Vec<Oid> = match w.pending_props.get_mut(&s) {
            Some(prev) => {
                prev.extend(props);
                prev.sort_unstable();
                prev.dedup();
                prev.clone()
            }
            None => {
                w.pending_props.insert(s, props.clone());
                props
            }
        };
        match w.assigner.route(&merged, cfg) {
            Some(cid) => {
                w.pending_class.insert(s, cid);
                w.per_class_fill[cid.0 as usize] += n;
            }
            None => {
                w.pending_class.remove(&s);
            }
        }
    }
}

fn discover_schema_locked(
    st: &mut State,
    pool: &BufferPool,
    cfg: &SchemaConfig,
) -> Result<f64, Error> {
    if st.gen.clustered.is_some() {
        return Err(Error::State(
            "schema already frozen by self_organize()".into(),
        ));
    }
    ensure_no_pending_writes(st, "discover_schema()")?;
    let mut spo = st.gen.base_triples(pool);
    spo.sort_unstable();
    let schema = sordf_schema::discover(&spo, &st.gen.dict, cfg);
    let coverage = schema.coverage;
    Arc::make_mut(&mut st.gen).schema = Some(Arc::new(schema));
    st.schema_cfg = cfg.clone();
    st.epoch += 1;
    Ok(coverage)
}

fn build_cs_tables_locked(
    st: &mut State,
    dm: &Arc<DiskManager>,
    pool: &BufferPool,
) -> Result<(), Error> {
    if st.gen.cs_parse_order.is_some() {
        return Ok(());
    }
    ensure_no_pending_writes(st, "build_cs_tables()")?;
    if st.gen.schema.is_none() {
        let cfg = st.schema_cfg.clone();
        discover_schema_locked(st, pool, &cfg)?;
    }
    // sordf-lint: allow(L3) — discover_schema_locked just populated the schema.
    let mut schema = st.gen.schema.as_deref().unwrap().clone();
    let mut spo = st.gen.base_triples(pool);
    spo.sort_unstable();
    let spec = ClusterSpec::auto(&schema);
    let store = build_clustered_with(dm, &spo, &mut schema, &spec, false, st.encoding);
    let gen = Arc::make_mut(&mut st.gen);
    gen.staged = Vec::new();
    gen.cs_parse_order = Some((Arc::new(store), Arc::new(schema)));
    gen.encoding = st.encoding;
    st.epoch += 1;
    Ok(())
}

fn self_organize_locked(
    st: &mut State,
    dm: &Arc<DiskManager>,
    pool: &BufferPool,
    spec: Option<ClusterSpec>,
) -> Result<Arc<EmergentSchema>, Error> {
    if st.gen.clustered.is_some() {
        // sordf-lint: allow(L3) — a clustered generation always carries the schema it was built from.
        return Ok(st.gen.schema.clone().unwrap());
    }
    if !st.delta.is_empty() {
        // Pending writes changed the dataset: the schema and layouts
        // built before them are stale.
        unbuild_locked(st, pool);
    }
    if st.gen.schema.is_none() {
        let cfg = st.schema_cfg.clone();
        discover_schema_locked(st, pool, &cfg)?;
    }
    // sordf-lint: allow(L3) — ensured Some by the discover_schema_locked call above.
    let spec = spec.unwrap_or_else(|| ClusterSpec::auto(st.gen.schema.as_deref().unwrap()));
    // Build a *fresh* generation: clone the dictionary + base, cluster the
    // clone, and install it. In-flight queries pinned to the old
    // generation keep a consistent (dict, store) pair — the old dictionary
    // is never renumbered in place.
    let mut ts = TripleSet {
        dict: st.gen.dict.as_ref().clone(),
        triples: st.gen.base_triples(pool),
    };
    // sordf-lint: allow(L3) — ensured Some by the discover_schema_locked call above.
    let mut schema = st.gen.schema.as_deref().unwrap().clone();
    let report = reorganize(&mut ts, &mut schema, &spec);
    let spo = ts.sorted_spo();
    let store = build_clustered_with(dm, &spo, &mut schema, &spec, true, st.encoding);
    // The string pool was just sorted: OID order equals value order for
    // everything interned so far.
    let strings_sorted_len = ts.dict.n_strings();
    let schema = Arc::new(schema);
    st.gen = Arc::new(StoreGeneration {
        dict: Arc::new(ts.dict),
        staged: Vec::new(),
        // Parse-order generations hold stale OIDs now.
        baseline: None,
        cs_parse_order: None,
        schema: Some(Arc::clone(&schema)),
        clustered: Some(Arc::new(store)),
        spec,
        reorg_report: Some(report),
        strings_sorted_len,
        encoding: st.encoding,
    });
    #[cfg(debug_assertions)]
    st.gen.debug_validate();
    st.epoch += 1;
    Ok(schema)
}

// ---- the background rebuild + swap protocol --------------------------------

/// Everything a rebuild works from, captured under one state lock: the
/// pinned generation, the delta view at the pin, and the epoch that must
/// still hold at swap time.
#[must_use = "a RebuildPin claims the single rebuild slot; dropping it without finish/release leaks the claim"]
struct RebuildPin {
    gen: GenerationHandle,
    view: Option<Arc<DeltaView>>,
    pin_seq: u64,
    epoch: u64,
    schema_cfg: SchemaConfig,
    /// Durable bookkeeping captured at the pin (`None` on non-durable
    /// databases): the directory and the log sequence the pinned fold
    /// covers. The rebuild serializes its output as a snapshot *off-lock*
    /// (to `snap.tmp` — the final numbered name is only known at swap
    /// time) so the swap itself stays O(catch-up).
    durable: Option<DurablePin>,
    /// The scheme the rebuild's layouts are encoded with ([`State::encoding`]
    /// at pin time — so a `set_encoding` + reorg re-encodes the store).
    encoding: ColumnEncoding,
}

/// See [`RebuildPin::durable`].
#[must_use]
struct DurablePin {
    dir: PathBuf,
    /// Log sequence at the pin: the pre-swap snapshot folds exactly the
    /// writes up to it, and the rotated WAL carries exactly the records
    /// after it.
    pin_log_seq: u64,
}

/// The staging name a rebuild's pre-swap snapshot is written under.
const SNAP_TMP: &str = "snap.tmp";

/// The output of a rebuild: the generation the swap publishes (the
/// catch-up fold interns into its dictionary through `&self`), plus the
/// folded triples it was built from, for the pre-swap snapshot.
struct BuiltGeneration {
    gen: StoreGeneration,
    triples: Vec<Triple>,
}

/// Claim the (single) rebuild slot and pin the rebuild's input.
// lock-order: acquires(db_state)
fn begin_rebuild(inner: &DbInner) -> Result<RebuildPin, Error> {
    let mut st = inner.state.lock();
    if !st.gen.any_built() {
        return Err(Error::State(
            "no storage built; load data and call self_organize()".into(),
        ));
    }
    if st.rebuild.is_some() {
        return Err(Error::State("a reorganization is already in flight".into()));
    }
    st.rebuild = Some(st.epoch);
    Ok(RebuildPin {
        gen: Arc::clone(&st.gen),
        view: st.delta.current_view_arc(),
        pin_seq: st.delta.seq(),
        epoch: st.epoch,
        schema_cfg: st.schema_cfg.clone(),
        durable: st.durable.as_ref().map(|d| DurablePin {
            dir: d.dir.clone(),
            pin_log_seq: d.seq,
        }),
        encoding: st.encoding,
    })
}

/// Release a rebuild claim without swapping (build error / panic path).
// lock-order: acquires(db_state)
fn release_rebuild_claim(inner: &DbInner, epoch: u64) {
    let mut st = inner.state.lock();
    if st.rebuild == Some(epoch) {
        st.rebuild = None;
    }
}

/// The heavy lifting, entirely off-lock: fold the pinned delta into an
/// owned triple set and rebuild every generation the pinned one had. This
/// is what runs for the full rebuild duration while readers and writers
/// proceed against the live store.
fn build_generation(inner: &DbInner, pin: &RebuildPin) -> BuiltGeneration {
    let dm = &inner.dm;
    let mut ts = TripleSet {
        dict: pin.gen.dict.as_ref().clone(),
        triples: pin.gen.visible_triples(&inner.pool, pin.view.as_deref()),
    };
    let mut out = StoreGeneration::staging(Arc::new(Dictionary::new()), Vec::new(), pin.encoding);
    out.strings_sorted_len = pin.gen.strings_sorted_len;
    let mut frozen: Option<Arc<EmergentSchema>> = None;
    // One SPO copy serves every builder; clustering renumbers the OIDs, so
    // it is the only step after which the copy must be re-derived.
    let mut spo = ts.sorted_spo();
    if pin.gen.clustered.is_some() {
        let mut schema = sordf_schema::discover(&spo, &ts.dict, &pin.schema_cfg);
        let spec = ClusterSpec::auto(&schema);
        let report = reorganize(&mut ts, &mut schema, &spec);
        spo = ts.sorted_spo();
        let store = build_clustered_with(dm, &spo, &mut schema, &spec, true, pin.encoding);
        out.strings_sorted_len = ts.dict.n_strings();
        out.clustered = Some(Arc::new(store));
        out.spec = spec;
        out.reorg_report = Some(report);
        frozen = Some(Arc::new(schema));
    }
    if pin.gen.cs_parse_order.is_some() {
        // Under a frozen (fresh) schema when clustered, else re-discovered
        // from the merged data — mirrors `build_cs_tables` after the
        // clustering collapse.
        let base = match &frozen {
            Some(s) => Arc::clone(s),
            None => Arc::new(sordf_schema::discover(&spo, &ts.dict, &pin.schema_cfg)),
        };
        let mut schema = (*base).clone();
        let spec = ClusterSpec::auto(&schema);
        let store = build_clustered_with(dm, &spo, &mut schema, &spec, false, pin.encoding);
        out.cs_parse_order = Some((Arc::new(store), Arc::new(schema)));
        frozen.get_or_insert(base);
    }
    if pin.gen.baseline.is_some() {
        out.baseline = Some(Arc::new(BaselineStore::build_with(dm, &spo, pin.encoding)));
    }
    out.schema = frozen;
    out.dict = Arc::new(ts.dict);
    BuiltGeneration {
        gen: out,
        triples: ts.triples,
    }
}

/// Decode `triples` under a dictionary into term triples.
fn decode_triples(dict: &Dictionary, triples: &[Triple]) -> Result<Vec<TermTriple>, Error> {
    let mut out = Vec::with_capacity(triples.len());
    for t in triples {
        out.push(TermTriple::new(
            dict.decode(t.s)?,
            dict.decode(t.p)?,
            dict.decode(t.o)?,
        ));
    }
    Ok(out)
}

/// Encode term triples under `dict`, interning terms it has not seen.
fn encode_terms(dict: &Dictionary, terms: &[TermTriple]) -> Result<Vec<Triple>, Error> {
    let mut out = Vec::with_capacity(terms.len());
    for t in terms {
        out.push(encode_triple_skolemized(dict, t)?);
    }
    Ok(out)
}

/// Serialize the built generation as the pre-swap checkpoint snapshot,
/// off-lock, under the staging name [`SNAP_TMP`] (the swap renames it to
/// its final number under the state lock, where the number is decided).
fn write_rebuild_snapshot(
    dp: &DurablePin,
    pin: &RebuildPin,
    built: &BuiltGeneration,
) -> Result<(), Error> {
    let triples = decode_triples(&built.gen.dict, &built.triples)?;
    let snap = StoreSnapshot {
        base_seq: dp.pin_log_seq,
        flags: layout_flags(&built.gen),
        schema_cfg: pin.schema_cfg.clone(),
        triples,
    };
    snap.write_to(&dp.dir.join(SNAP_TMP))?;
    Ok(())
}

/// The durable half of the swap, under the state lock: rename the
/// pre-written snapshot to its final number, rotate the WAL down to
/// exactly the catch-up records, and commit the manifest atomically. A
/// failure at any step leaves the previous snapshot + WAL pair live and
/// mutually consistent (the caller then abandons the swap).
fn commit_swap_durable(
    dp: &DurablePin,
    d: &mut DurableState,
    records: &[WalRecord],
) -> io::Result<()> {
    let snap_n = d.snap_file + 1;
    let wal_n = d.wal_file + 1;
    fs::rename(dp.dir.join(SNAP_TMP), Manifest::snap_path(&d.dir, snap_n))?;
    let mut wal = WalWriter::create_with(&Manifest::wal_path(&d.dir, wal_n), d.wal.format())?;
    let mut seq = dp.pin_log_seq;
    for rec in records {
        seq += 1;
        wal.append(seq, rec)?;
    }
    wal.sync()?;
    crash_point!("swap.pre_manifest");
    let m = Manifest {
        snap_file: snap_n,
        wal_file: wal_n,
        base_seq: dp.pin_log_seq,
    };
    m.commit(&d.dir)?;
    crash_point!("swap.post_manifest");
    debug_assert_eq!(
        d.seq, seq,
        "catch-up records must cover every logged write since the pin"
    );
    d.wal = wal;
    d.snap_file = snap_n;
    d.wal_file = wal_n;
    d.seq = seq;
    m.remove_orphans(&d.dir)?;
    Ok(())
}

/// The catch-up fold of a swap: the writes that landed after the rebuild's
/// pin, decoded under the live dictionary (the same append-only dictionary
/// the rebuild pinned, grown in place by concurrent interns) and replayed in
/// sequence order into the fresh delta under the rebuilt, renumbered one.
struct CatchUp {
    delta: DeltaStore,
    write: Option<WriteState>,
    /// The same writes at term level, for the rotated WAL of a durable
    /// database.
    records: Vec<WalRecord>,
}

impl CatchUp {
    fn fold(
        &mut self,
        writes: Vec<(u64, DeltaWrite)>,
        old_dict: &Dictionary,
        built: &BuiltGeneration,
        pin: &RebuildPin,
    ) -> Result<(), Error> {
        for (seq, w) in writes {
            let (insert, triples) = match w {
                DeltaWrite::Insert(t) => (true, t),
                DeltaWrite::Delete(t) => (false, t),
            };
            let terms = decode_triples(old_dict, &triples)?;
            let enc = encode_terms(&built.gen.dict, &terms)?;
            let applied = if insert {
                let schema = built.gen.schema.as_deref();
                route_inserts(&mut self.write, schema, &pin.schema_cfg, &enc);
                self.delta.insert_run(enc)
            } else {
                self.delta.delete(&enc)
            };
            debug_assert_eq!(
                applied.seq(),
                seq,
                "catch-up replay must preserve sequencing"
            );
            if pin.durable.is_some() {
                self.records.push(if insert {
                    WalRecord::Insert(terms)
                } else {
                    WalRecord::Delete(terms)
                });
            }
        }
        Ok(())
    }
}

/// The swap: install the built generation, folding every write that
/// arrived during the rebuild into the fresh delta store. The fold runs in
/// two rounds ([`catch_up_off_lock`], then [`swap_in`]) so writers and
/// pinning readers wait only for the writes that land during the first
/// round plus the durable commit — never for O(rebuild) work. Returns
/// `false` when the rebuild was superseded (a bulk load / explicit build
/// invalidated the pinned epoch).
fn finish_rebuild(inner: &DbInner, pin: RebuildPin, built: BuiltGeneration) -> Result<bool, Error> {
    let catch_up = catch_up_off_lock(inner, &pin, &built)?;
    swap_in(inner, pin, built, catch_up)
}

/// Round one of the catch-up fold: the writes that landed while the
/// generation was built, folded *off* the state lock. Folds nothing when
/// the rebuild is already superseded ([`swap_in`] then abandons it).
// lock-order: acquires(db_state, dict)
fn catch_up_off_lock(
    inner: &DbInner,
    pin: &RebuildPin,
    built: &BuiltGeneration,
) -> Result<CatchUp, Error> {
    let mut catch_up = CatchUp {
        delta: DeltaStore::with_base_seq(pin.pin_seq),
        write: None,
        records: Vec::new(),
    };
    let round_one = {
        let st = inner.state.lock();
        (st.epoch == pin.epoch)
            .then(|| (st.delta.writes_since(pin.pin_seq), Arc::clone(&st.gen.dict)))
    };
    if let Some((writes, old_dict)) = round_one {
        catch_up.fold(writes, &old_dict, built, pin)?;
    }
    Ok(catch_up)
}

/// Round two, under the state lock: fold the writes that landed during
/// round one, commit the durable pair and install the built generation.
// lock-order: acquires(db_state, dict)
fn swap_in(
    inner: &DbInner,
    pin: RebuildPin,
    built: BuiltGeneration,
    mut catch_up: CatchUp,
) -> Result<bool, Error> {
    let mut st = inner.state.lock();
    if st.rebuild == Some(pin.epoch) {
        st.rebuild = None;
    }
    if st.epoch != pin.epoch {
        if let Some(dp) = &pin.durable {
            // Best-effort: the orphaned staging snapshot is simply
            // overwritten by the next rebuild.
            let _ = fs::remove_file(dp.dir.join(SNAP_TMP));
        }
        return Ok(false);
    }
    let st = &mut *st;
    let writes = st.delta.writes_since(catch_up.delta.seq());
    catch_up.fold(writes, &st.gen.dict, &built, &pin)?;
    // The rotated WAL is skipped when durability lapsed mid-rebuild (a
    // failed log append disables it) — the disk then keeps its last
    // consistent state.
    let durable_live = pin.durable.is_some() && st.durable.is_some();
    let gen = built.gen;
    if gen.clustered.is_some() && gen.dict.n_strings() > gen.strings_sorted_len {
        // Catch-up inserts interned strings past the freshly sorted pool.
        catch_up.delta.set_strings_appended();
    }
    if durable_live {
        // Durable commit before the in-memory install: on failure the swap
        // is abandoned wholesale — old generation, old snapshot + WAL pair,
        // everything stays live and mutually consistent.
        // sordf-lint: allow(L3) — durable_live checked both sides above.
        let dp = pin.durable.as_ref().unwrap();
        // sordf-lint: allow(L3) — durable_live checked both sides above.
        let d = st.durable.as_mut().unwrap();
        commit_swap_durable(dp, d, &catch_up.records)?;
    }
    st.gen = Arc::new(gen);
    st.delta = catch_up.delta;
    st.write = catch_up.write;
    #[cfg(debug_assertions)]
    {
        st.gen.debug_validate();
        st.delta.debug_validate();
    }
    st.epoch += 1;
    Ok(true)
}

/// One full rebuild: build off-lock, then swap. Shared by the synchronous
/// entry points (which run it inline) and the background worker.
fn run_rebuild(
    inner: &DbInner,
    pin: RebuildPin,
    reason: Option<String>,
    drift_before: DriftStats,
) -> Result<ReorgOutcome, Error> {
    let built = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        build_generation(inner, &pin)
    })) {
        Ok(b) => b,
        Err(payload) => {
            release_rebuild_claim(inner, pin.epoch);
            return Err(Error::Exec(panic_message(payload)));
        }
    };
    // Serialize the pre-swap checkpoint while still off-lock, so the swap
    // itself stays O(catch-up) — never O(data).
    if let Some(dp) = &pin.durable {
        if let Err(e) = write_rebuild_snapshot(dp, &pin, &built) {
            release_rebuild_claim(inner, pin.epoch);
            return Err(e);
        }
    }
    let irregular_ratio_after = built
        .gen
        .clustered
        .as_ref()
        .map(|store| store.irregular.len() as f64 / store.n_triples().max(1) as f64);
    let report = built.gen.reorg_report.clone();
    let epoch = pin.epoch;
    match finish_rebuild(inner, pin, built) {
        Ok(true) => Ok(ReorgOutcome {
            fired: true,
            swapped: true,
            reason,
            drift_before,
            irregular_ratio_after,
            report,
        }),
        Ok(false) => Ok(ReorgOutcome {
            fired: true,
            swapped: false,
            reason,
            drift_before,
            irregular_ratio_after: None,
            report: None,
        }),
        Err(e) => {
            release_rebuild_claim(inner, epoch);
            Err(e)
        }
    }
}

/// Spawn `run_rebuild` on a worker thread.
fn spawn_rebuild(
    inner: &Arc<DbInner>,
    pin: RebuildPin,
    reason: Option<String>,
    drift_before: DriftStats,
) -> BackgroundReorg {
    let inner = Arc::clone(inner);
    let thread = thread::Builder::new()
        .name("sordf-reorg".into())
        .spawn(move || run_rebuild(&inner, pin, reason, drift_before))
        // sordf-lint: allow(L3) — thread spawn fails only on resource exhaustion; a reorg that cannot start is fatal by design.
        .expect("spawn reorg thread");
    BackgroundReorg { thread }
}

/// Handle on an in-flight background reorganization (see
/// [`Database::reorganize_async`]). The swap completes whether or not the
/// handle is waited on; the handle is how callers observe the outcome and
/// sequence tests deterministically.
#[must_use = "the swap completes regardless, but dropping the handle discards the outcome (including build errors)"]
pub struct BackgroundReorg {
    thread: thread::JoinHandle<Result<ReorgOutcome, Error>>,
}

impl BackgroundReorg {
    /// Has the rebuild (including its swap) finished?
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Block until the rebuild + swap complete and return the outcome.
    pub fn wait(self) -> Result<ReorgOutcome, Error> {
        match self.thread.join() {
            Ok(outcome) => outcome,
            Err(payload) => Err(Error::Exec(panic_message(payload))),
        }
    }
}

/// The auto-reorganization thread: a stop flag + condvar (so stops are
/// immediate, not sleep-bounded) and the join handle.
struct AutoReorg {
    stop: Arc<(StdMutex<bool>, Condvar)>,
    thread: thread::JoinHandle<()>,
}

/// Encode a term for lookup without interning, skolemizing blank nodes the
/// way `TripleSet::add` does (shared scheme: [`Term::skolem_blank_iri`]).
fn term_oid_skolemized(dict: &Dictionary, t: &Term) -> Option<Oid> {
    match t {
        Term::Blank(label) => dict.iri_oid(&Term::skolem_blank_iri(label)),
        other => dict.term_oid(other),
    }
}

/// Render a panic payload as a message (best effort).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// Classify a payload caught at the query boundary: a cancellation/deadline
/// interrupt (see [`sordf_engine::cancel`]) maps to its typed error; any
/// other panic is a genuine engine fault and stays a stringly `Exec`.
fn interrupt_or_exec(payload: Box<dyn std::any::Any + Send>) -> Error {
    match sordf_engine::cancel::interrupted(payload.as_ref()) {
        Some(StopReason::Cancelled) => Error::Cancelled,
        Some(StopReason::TimedOut) => Error::Timeout,
        None => Error::Exec(panic_message(payload)),
    }
}

/// Compile-time thread-safety audit: one `Database` serves concurrent
/// queries *and writes* from many threads (shared pool, per-query pins),
/// and the background-reorg machinery crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<StoreGeneration>();
    assert_send::<BackgroundReorg>();
    assert_send::<Error>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::Term;

    fn sample_triples() -> Vec<TermTriple> {
        let mut triples = Vec::new();
        for i in 0..50u64 {
            let s = format!("http://ex/item{i}");
            triples.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/qty"),
                Term::int((i % 10) as i64),
            ));
            triples.push(TermTriple::new(
                Term::iri(s),
                Term::iri("http://ex/sold"),
                Term::date(&format!("1996-01-{:02}", (i % 28) + 1)),
            ));
        }
        triples
    }

    fn sample_db() -> Database {
        let db = Database::in_temp_dir().unwrap();
        db.load_terms(&sample_triples()).unwrap();
        db
    }

    #[test]
    fn lifecycle_and_query() {
        let db = sample_db();
        db.build_baseline().unwrap();
        let rs = db
            .execute(
                &QueryRequest::sparql(
                    "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }",
                )
                .generation(Generation::Baseline)
                .config(ExecConfig {
                    scheme: PlanScheme::Default,
                    zonemaps: false,
                    ..Default::default()
                }),
            )
            .unwrap()
            .results;
        assert_eq!(rs.len(), 5);

        db.self_organize().unwrap();
        let rs2 = db
            .query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }")
            .unwrap();
        assert_eq!(rs2.len(), 5);
        assert!(db.schema().unwrap().coverage > 0.99);
        assert!(db.reorg_report().is_some());
    }

    #[test]
    fn cold_vs_hot_pool_stats() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s WHERE { ?s <http://ex/qty> ?q . FILTER(?q < 5) }";
        db.drop_cache();
        let req = QueryRequest::sparql(q)
            .generation(Generation::Clustered)
            .traced(true);
        let cold = db.execute(&req).unwrap();
        let hot = db.execute(&req).unwrap();
        assert!(cold.pool.unwrap().misses > 0, "cold run must read pages");
        assert_eq!(hot.pool.unwrap().misses, 0, "hot run must be fully cached");
        assert_eq!(cold.results.len(), hot.results.len());
    }

    #[test]
    fn execute_maps_tripped_tokens_to_typed_errors() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . }";
        // An already-expired deadline fails before any execution work.
        let err = db
            .execute(&QueryRequest::sparql(q).timeout(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, Error::Timeout), "{err}");
        assert_eq!(err.code(), "timeout");
        // Explicit cancellation wins, even with an expired deadline attached.
        let token = CancellationToken::new();
        token.cancel();
        let err = db
            .execute(
                &QueryRequest::sparql(q)
                    .cancel(token)
                    .timeout(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
        assert_eq!(err.code(), "cancelled");
        // An untripped token leaves the query unharmed, and tracing works
        // through the same entry point.
        let resp = db
            .execute(
                &QueryRequest::sparql(q)
                    .cancel(CancellationToken::new())
                    .timeout(Duration::from_secs(3600))
                    .traced(true),
            )
            .unwrap();
        assert_eq!(resp.results.len(), 50);
        assert!(resp.stats.unwrap().rows_scanned >= 50);
    }

    #[test]
    fn query_before_build_errors() {
        let db = Database::in_temp_dir().unwrap();
        assert!(matches!(
            db.query("SELECT ?s WHERE { ?s <http://x/p> ?o . }"),
            Err(Error::State(_))
        ));
    }

    #[test]
    fn ddl_rendering() {
        let db = sample_db();
        db.self_organize().unwrap();
        let ddl = db.ddl().unwrap();
        assert!(ddl.contains("CREATE TABLE"), "{ddl}");
        assert!(ddl.contains("qty"), "{ddl}");
    }

    #[test]
    fn plan_cache_hits_shapes_and_swap_invalidation() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let s0 = db.plan_cache_stats();
        db.query(q).unwrap();
        db.query(q).unwrap();
        let s1 = db.plan_cache_stats();
        assert_eq!(s1.misses - s0.misses, 1, "first run optimizes");
        assert!(s1.hits > s0.hits, "second run is a cache hit");
        assert!(s1.entries >= 1);

        // Same shape, different constant: constants are abstracted out of
        // the cache key, so this reuses the cached plan.
        db.query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 7) }")
            .unwrap();
        let s2 = db.plan_cache_stats();
        assert_eq!(s2.misses, s1.misses, "same shape never re-optimizes");
        assert!(s2.hits > s1.hits);

        // A delta write does NOT invalidate (cached plans stay correct,
        // possibly stale-optimal)...
        db.insert_ntriples(
            r#"<http://ex/itemX> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/itemX> <http://ex/sold> "1996-03-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        db.query(q).unwrap();
        let s3 = db.plan_cache_stats();
        assert_eq!(s3.invalidations, s2.invalidations);
        assert!(s3.hits > s2.hits);

        // ...but a background generation swap bumps the epoch and the next
        // lookup clears the cache and re-optimizes.
        let outcome = db.reorganize_async().unwrap().wait().unwrap();
        assert!(outcome.swapped, "nothing raced, the swap must land");
        db.query(q).unwrap();
        let s4 = db.plan_cache_stats();
        assert_eq!(
            s4.invalidations,
            s3.invalidations + 1,
            "swap invalidates the plan cache"
        );
        assert_eq!(s4.misses, s3.misses + 1, "post-swap run re-optimizes");
        assert_eq!(db.query(q).unwrap().len(), 6, "3 old + new itemX");
    }

    #[test]
    fn plan_cache_key_includes_encoding() {
        let db = sample_db();
        db.self_organize().unwrap();
        assert_eq!(
            db.encoding(),
            ColumnEncoding::Compressed,
            "compression is the default build scheme"
        );

        // The key itself must differ by scheme. A generation swap already
        // clears the cache through the epoch; keying on the encoding is the
        // belt-and-braces guarantee that a plan costed against one page
        // encoding is never served to a store built under another.
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q }";
        let dict = db.dict();
        let query = sordf_sparql::parse_sparql(q, &dict).unwrap();
        let compressed = plan_cache_key(
            &query,
            Generation::Clustered,
            ExecConfig::default(),
            ColumnEncoding::Compressed,
        );
        let plain = plan_cache_key(
            &query,
            Generation::Clustered,
            ExecConfig::default(),
            ColumnEncoding::Plain,
        );
        assert_ne!(compressed, plain, "encoding is part of the plan identity");
        drop(dict);

        // End to end: rebuilding under the plain scheme re-optimizes the
        // same query shape instead of reusing the compressed-era plan.
        db.query(q).unwrap();
        db.query(q).unwrap();
        let s1 = db.plan_cache_stats();
        db.set_encoding(ColumnEncoding::Plain);
        db.reorganize_now().unwrap();
        assert_eq!(
            db.encoding(),
            ColumnEncoding::Plain,
            "rebuild adopts the scheme"
        );
        let rows = db.query(q).unwrap().len();
        let s2 = db.plan_cache_stats();
        assert_eq!(s2.misses, s1.misses + 1, "plain rebuild re-optimizes");
        assert_eq!(db.query(q).unwrap().len(), rows, "cached plan agrees");
    }

    #[test]
    fn memory_stats_accounts_components() {
        let db = sample_db();
        // String literals so the front-coded dictionary run is non-trivial.
        let labels: Vec<TermTriple> = (0..50u64)
            .map(|i| {
                TermTriple::new(
                    Term::iri(format!("http://ex/item{i}")),
                    Term::iri("http://ex/label"),
                    Term::str(format!("common-prefix-label-{i:04}")),
                )
            })
            .collect();
        db.load_terms(&labels).unwrap();
        let staged = db.memory_stats();
        assert!(staged.dict_bytes > 0, "staged dictionary accounted");
        assert!(staged.base_triples_bytes > 0, "base triples accounted");
        assert_eq!(staged.column_bytes, 0, "nothing built yet");
        assert_eq!(staged.column_compression_ratio(), 1.0);

        db.self_organize().unwrap();
        let built = db.memory_stats();
        assert!(built.column_bytes > 0, "clustered segments accounted");
        assert!(
            built.column_plain_bytes >= built.column_bytes,
            "encoded pages never exceed their plain counterfactual"
        );
        assert_eq!(
            built.classes.iter().map(|c| c.encoded).sum::<u64>(),
            built.column_bytes,
            "classes partition the column bytes"
        );
        let clustered = built.classes[2];
        assert_eq!(clustered.name, "clustered");
        assert!(clustered.encoded > 0 && clustered.ratio() >= 1.0);
        assert_eq!(built.classes[0].encoded, 0, "no baseline built here");
        assert!(
            built.dict_string_bytes > 0 && built.dict_string_bytes < built.dict_string_plain_bytes,
            "front-coded strings accounted and smaller than plain"
        );
        assert_eq!(built.base_triples_bytes, 0, "the layouts are the only copy");
        assert_eq!(
            built.bytes_per_triple(),
            (built.dict_bytes + built.column_bytes + built.delta_bytes) as f64
                / built.n_triples as f64
        );
        assert_eq!(built.n_triples as usize, db.n_triples());
        assert_eq!(built.delta_bytes, 0, "no pending writes");

        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        let m = db.memory_stats();
        assert!(m.delta_bytes > 0, "pending writes accounted");
        assert_eq!(m.n_triples as usize, db.n_triples());
        assert_eq!(
            m.total_bytes(),
            m.dict_bytes + m.base_triples_bytes + m.column_bytes + m.delta_bytes
        );
    }

    /// RDF graphs are sets: duplicate loads, re-inserts of visible triples
    /// and repeats within a batch never add a second copy, on either side
    /// of a build.
    #[test]
    fn the_store_is_a_set() {
        let a = r#"<http://ex/s> <http://ex/p> "a" ."#;
        let q = "SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o . }";
        for generation in [Generation::Baseline, Generation::Clustered] {
            let db = Database::in_temp_dir().unwrap();
            let doc = format!(
                "{a}\n<http://ex/s> <http://ex/q> \"b\" .\n<http://ex/t> <http://ex/p> \"c\" ."
            );
            assert_eq!(db.load_ntriples(&doc).unwrap(), 3);
            assert_eq!(db.load_ntriples(a).unwrap(), 0, "already staged");
            assert_eq!(db.n_triples(), 3);
            match generation {
                Generation::Baseline => db.build_baseline().unwrap(),
                _ => drop(db.self_organize().unwrap()),
            }
            let rows = |db: &Database| {
                let exec = ExecConfig {
                    scheme: PlanScheme::Default,
                    ..Default::default()
                };
                let req = QueryRequest::sparql(q).generation(generation).config(exec);
                db.execute(&req).unwrap().results.len()
            };
            assert_eq!(rows(&db), 1, "{generation:?}");
            assert_eq!(db.n_triples(), 3);

            let twice = format!("{a}\n{a}");
            assert_eq!(db.insert_ntriples(&twice).unwrap(), 0, "already visible");
            assert_eq!((db.n_triples(), rows(&db)), (3, 1), "{generation:?}");
            assert!(
                db.drift_stats().n_delta_inserts == 0,
                "nothing reached the delta"
            );

            let term = ntriples::parse_document(a).unwrap();
            assert_eq!(db.delete_triples(&term).unwrap(), 1);
            assert_eq!((db.n_triples(), rows(&db)), (2, 0), "{generation:?}");
            assert_eq!(db.insert_ntriples(&twice).unwrap(), 1, "reinsert once");
            assert_eq!((db.n_triples(), rows(&db)), (3, 1), "{generation:?}");
            db.validate_invariants();
        }
    }

    #[test]
    fn insert_delete_after_organize() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        assert_eq!(db.query(q).unwrap().len(), 5);

        // Insert two more subjects with qty 3 (one schema-conforming with
        // both class properties, one qty-only).
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://ex/new2> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new2> <http://ex/color> <http://ex/red> .
<http://ex/new2> <http://ex/shape> <http://ex/round> .
<http://ex/new2> <http://ex/size> <http://ex/big> ."#,
        )
        .unwrap();
        assert_eq!(
            db.query(q).unwrap().len(),
            7,
            "inserts visible without rebuild"
        );

        // Delete one of the original qty=3 triples.
        let victim = TermTriple::new(
            Term::iri("http://ex/item3"),
            Term::iri("http://ex/qty"),
            Term::int(3),
        );
        assert_eq!(db.delete_triples(std::slice::from_ref(&victim)).unwrap(), 1);
        assert_eq!(
            db.query(q).unwrap().len(),
            6,
            "tombstone filters the base value"
        );
        // Deleting again is a no-op (already invisible).
        assert_eq!(db.delete_triples(std::slice::from_ref(&victim)).unwrap(), 0);

        // Parallel execution sees the identical merged store.
        let par = db
            .execute(&QueryRequest::sparql(q).parallel(ParallelConfig {
                workers: 2,
                min_morsel_pages: 1,
                min_morsel_rows: 1,
            }))
            .unwrap()
            .results;
        assert_eq!(
            par.canonical(&db.dict()),
            db.query(q).unwrap().canonical(&db.dict())
        );

        let drift = db.drift_stats();
        assert_eq!(drift.n_delta_inserts, 6);
        assert_eq!(drift.n_tombstones, 1);
        assert_eq!(
            drift.matched_subjects, 1,
            "new1 has the class's property set"
        );
        assert_eq!(
            drift.unmatched_subjects, 1,
            "new2's property set fits no class"
        );
    }

    #[test]
    fn snapshots_pin_write_history() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let snap0 = db.snapshot();
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        let snap1 = db.snapshot();
        db.delete_matching(None, Some(&Term::iri("http://ex/qty")), Some(&Term::int(3)))
            .unwrap();
        assert_eq!(db.query(q).unwrap().len(), 0, "all qty=3 deleted");
        assert_eq!(
            db.query_snapshot(q, snap1).unwrap().len(),
            6,
            "pre-delete snapshot"
        );
        assert_eq!(
            db.query_snapshot(q, snap0).unwrap().len(),
            5,
            "pre-insert snapshot"
        );
        // Current snapshot equals the live query.
        assert_eq!(db.query_snapshot(q, db.snapshot()).unwrap().len(), 0);
    }

    #[test]
    fn maybe_reorganize_collapses_delta() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        let before = db.query(q).unwrap().canonical(&db.dict());
        let n_before = db.n_triples();

        // A lenient policy does not fire on two writes.
        let calm = db.maybe_reorganize(&ReorgPolicy::default()).unwrap();
        assert!(!calm.fired);

        let outcome = db.maybe_reorganize(&ReorgPolicy::eager()).unwrap();
        assert!(outcome.fired, "eager policy fires on any pending write");
        assert!(
            outcome.swapped,
            "nothing raced: the fresh generation swapped in"
        );
        assert!(outcome.report.is_some());
        assert_eq!(
            outcome.irregular_ratio_after,
            Some(0.0),
            "delta fully clustered in"
        );
        assert_eq!(db.n_triples(), n_before, "logical content unchanged");
        assert_eq!(db.drift_stats().n_delta_inserts, 0, "delta collapsed");
        assert_eq!(
            db.query(q).unwrap().canonical(&db.dict()),
            before,
            "results preserved"
        );
        // The new subject now lives in a class segment.
        let s = db.dict().iri_oid("http://ex/new1").unwrap();
        assert!(db.schema().unwrap().class_of(s).is_some());
        // Nothing pending: eager policy has nothing to do.
        assert!(!db.maybe_reorganize(&ReorgPolicy::eager()).unwrap().fired);
    }

    #[test]
    fn string_inserts_disable_oid_order_pushdown() {
        let db = Database::in_temp_dir().unwrap();
        let mut triples = Vec::new();
        for (i, label) in ["apple", "banana", "cherry", "damson"].iter().enumerate() {
            let s = format!("http://ex/thing{i}");
            triples.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/label"),
                Term::str(*label),
            ));
            triples.push(TermTriple::new(
                Term::iri(s),
                Term::iri("http://ex/rank"),
                Term::int(i as i64),
            ));
        }
        db.load_terms(&triples).unwrap();
        db.self_organize().unwrap();
        let q = r#"SELECT ?s WHERE { ?s <http://ex/label> ?l . FILTER(?l < "banana") }"#;
        assert_eq!(db.query(q).unwrap().len(), 1, "only apple");
        // "azure" sorts between apple and banana but its OID is appended at
        // the end of the pool: an OID-range pushdown would miss it.
        db.insert_ntriples(
            r#"<http://ex/thing9> <http://ex/label> "azure" .
<http://ex/thing9> <http://ex/rank> "9"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert_eq!(db.query(q).unwrap().len(), 2, "apple and azure");
        // After reorganization the pool is re-sorted and pushdown is safe again.
        db.reorganize_now().unwrap();
        assert_eq!(db.query(q).unwrap().len(), 2);
    }

    #[test]
    fn rebuilds_with_pending_writes_are_refused() {
        let db = sample_db();
        db.build_baseline().unwrap();
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert!(matches!(
            db.discover_schema(&SchemaConfig::default()),
            Err(Error::State(_))
        ));
        assert!(matches!(db.build_cs_tables(), Err(Error::State(_))));
        // self_organize collapses the pending writes instead of refusing.
        db.self_organize().unwrap();
        let rs = db
            .query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }")
            .unwrap();
        assert_eq!(rs.len(), 6);
    }

    #[test]
    fn reorganize_rebuilds_every_live_generation() {
        let db = sample_db();
        db.self_organize().unwrap();
        db.build_cs_tables().unwrap();
        db.build_baseline().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        db.reorganize_now().unwrap();
        for generation in [
            Generation::Baseline,
            Generation::CsParseOrder,
            Generation::Clustered,
        ] {
            let rs = db
                .execute(&QueryRequest::sparql(q).generation(generation))
                .unwrap()
                .results;
            assert_eq!(rs.len(), 6, "{generation:?} must survive the reorg");
        }
    }

    #[test]
    fn baseline_generation_supports_writes() {
        let db = sample_db();
        db.build_baseline().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        assert_eq!(db.query(q).unwrap().len(), 5);
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        assert_eq!(db.query(q).unwrap().len(), 5, "one in, one out");
        db.reorganize_now().unwrap();
        assert_eq!(db.query(q).unwrap().len(), 5, "rebuilt baseline agrees");
        assert!(
            db.clustered_store().is_none(),
            "reorg does not force organization"
        );
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        // Mirror of the crate-level doc example.
        let db = Database::in_temp_dir().unwrap();
        db.load_ntriples(
            r#"<http://ex/book1> <http://ex/has_author> <http://ex/author1> .
<http://ex/book1> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book1> <http://ex/isbn_no> "1-56619-909-3" ."#,
        )
        .unwrap();
        db.self_organize().unwrap();
        let rs = db
            .query(
                "SELECT ?a ?n WHERE { ?b <http://ex/has_author> ?a . ?b <http://ex/isbn_no> ?n . }",
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
    }

    // ---- background reorganization -----------------------------------------

    #[test]
    fn async_reorg_swaps_and_preserves_answers() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        let before = db.query(q).unwrap().canonical(&db.dict());
        let handle = db.reorganize_async().unwrap();
        // Queries keep answering while the rebuild runs (pinned generation).
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), before);
        let outcome = handle.wait().unwrap();
        assert!(outcome.fired && outcome.swapped);
        assert_eq!(outcome.irregular_ratio_after, Some(0.0));
        assert_eq!(
            db.drift_stats().n_delta_inserts,
            0,
            "delta folded into the base"
        );
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), before);
        assert!(!db.reorg_in_flight());
        // Policy-gated async: nothing pending, nothing to do.
        assert!(db
            .maybe_reorganize_async(&ReorgPolicy::eager())
            .unwrap()
            .is_none());
    }

    /// The heart of the swap protocol, deterministically: pin + build, let
    /// writes land *mid-rebuild*, then swap — the catch-up writes must be
    /// folded into the fresh delta (re-encoded under the renumbered
    /// dictionary) and stay visible, snapshots taken mid-rebuild included.
    #[test]
    fn catch_up_writes_fold_across_swap() {
        let db = sample_db();
        // Add a second class with a sorted string column, so the swap's
        // string-pool handling is observable.
        let mut labelled = Vec::new();
        for (i, label) in ["apple", "banana", "cherry", "damson"].iter().enumerate() {
            let s = format!("http://ex/thing{i}");
            labelled.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/label"),
                Term::str(*label),
            ));
            labelled.push(TermTriple::new(
                Term::iri(s),
                Term::iri("http://ex/rank"),
                Term::int(i as i64),
            ));
        }
        db.load_terms(&labelled).unwrap();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let lq = r#"SELECT ?s WHERE { ?s <http://ex/label> ?l . FILTER(?l < "banana") }"#;
        assert_eq!(
            db.query(lq).unwrap().len(),
            1,
            "only apple before any write"
        );
        db.insert_ntriples(
            r#"<http://ex/pre1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/pre1> <http://ex/sold> "1996-02-02"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();

        // Pin and build — but do not swap yet.
        let pin = begin_rebuild(&db.inner).unwrap();
        let built = build_generation(&db.inner, &pin);

        // Writes that arrive *during* the rebuild — a conforming insert
        // before the off-lock catch-up round, then an insert with a fresh
        // string literal (interned only in the old dictionary) and a delete
        // of a base triple while that round runs.
        db.insert_ntriples(
            r#"<http://ex/mid1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/mid1> <http://ex/sold> "1996-02-03"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        let catch_up = catch_up_off_lock(&db.inner, &pin, &built).unwrap();
        db.insert_ntriples(
            r#"<http://ex/thing9> <http://ex/label> "azure" .
<http://ex/thing9> <http://ex/rank> "9"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        let mid_snap = db.snapshot();
        let want = db.query(q).unwrap().canonical(&db.dict());

        // Swap: both catch-up rounds must decode under the old dict,
        // re-encode under the new one and replay in order.
        assert!(swap_in(&db.inner, pin, built, catch_up).unwrap());

        assert_eq!(
            db.query(q).unwrap().canonical(&db.dict()),
            want,
            "post-swap sees catch-up"
        );
        let drift = db.drift_stats();
        assert_eq!(
            drift.n_delta_inserts, 4,
            "mid-rebuild inserts pending in the fresh delta"
        );
        assert_eq!(
            drift.n_tombstones, 2,
            "item3's two triples replayed as tombstones"
        );
        assert_eq!(
            drift.matched_subjects, 2,
            "mid1 + thing9 routed against the *new* schema"
        );
        // "azure" was interned during the rebuild: string order pushdown
        // must be disabled until the next reorg, so the filter still sees it.
        assert_eq!(db.query(lq).unwrap().len(), 2, "apple and azure");
        // The mid-rebuild snapshot survives the swap (sequence preserved).
        assert_eq!(
            db.query_snapshot(q, mid_snap)
                .unwrap()
                .canonical(&db.dict()),
            want
        );
        // The pre-swap generation's data fully folded: one more reorg
        // clusters the catch-up writes in and changes nothing.
        db.reorganize_now().unwrap();
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), want);
        assert_eq!(db.query(lq).unwrap().len(), 2);
        assert_eq!(db.drift_stats().n_delta_inserts, 0);
    }

    /// Regression: a class sub-ordered by a date column must not sort-key
    /// narrow (or zone-map prune) on that column's *base* values while the
    /// delta holds inserts for the predicate — a pending insert can fill a
    /// NULL (or out-of-range) base value, and narrowing would silently drop
    /// the row's exception bindings.
    #[test]
    fn delta_fill_survives_sort_key_narrowing() {
        let db = Database::in_temp_dir().unwrap();
        let mut triples = Vec::new();
        for i in 0..40u64 {
            let s = format!("http://ex/item{i}");
            triples.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/qty"),
                Term::int(i as i64),
            ));
            // item39 misses its date: a NULL in the (sorted) date column.
            if i < 39 {
                triples.push(TermTriple::new(
                    Term::iri(s),
                    Term::iri("http://ex/sold"),
                    Term::date(&format!("1996-01-{:02}", (i % 28) + 1)),
                ));
            }
        }
        db.load_terms(&triples).unwrap();
        db.self_organize().unwrap();
        // Fill the NULL through the delta with an in-range date.
        db.insert_ntriples(
            r#"<http://ex/item39> <http://ex/sold> "1996-01-05"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        let q = r#"SELECT ?s ?d WHERE { ?s <http://ex/qty> ?q . ?s <http://ex/sold> ?d .
            FILTER(?d <= "1996-01-10"^^<http://www.w3.org/2001/XMLSchema#date>) }"#;
        let reference = db
            .execute(
                &QueryRequest::sparql(q)
                    .generation(Generation::Clustered)
                    .config(ExecConfig {
                        scheme: PlanScheme::Default,
                        zonemaps: true,
                        ..Default::default()
                    }),
            )
            .unwrap()
            .results
            .canonical(&db.dict());
        for zonemaps in [true, false] {
            let exec = ExecConfig {
                scheme: PlanScheme::RdfScanJoin,
                zonemaps,
                ..Default::default()
            };
            let got = db
                .execute(
                    &QueryRequest::sparql(q)
                        .generation(Generation::Clustered)
                        .config(exec),
                )
                .unwrap()
                .results
                .canonical(&db.dict());
            assert_eq!(got, reference, "zonemaps={zonemaps}");
            assert!(
                got.iter().any(|row| row.contains("item39")),
                "delta-filled row must not be narrowed away (zonemaps={zonemaps})"
            );
        }
        // The morsel-parallel path shares the prepared scan.
        let par = db
            .execute(&QueryRequest::sparql(q).parallel(ParallelConfig {
                workers: 2,
                min_morsel_pages: 1,
                min_morsel_rows: 1,
            }))
            .unwrap()
            .results;
        assert_eq!(par.canonical(&db.dict()), reference);
    }

    #[test]
    fn superseded_rebuild_is_abandoned() {
        let db = sample_db();
        db.self_organize().unwrap();
        let pin = begin_rebuild(&db.inner).unwrap();
        let built = build_generation(&db.inner, &pin);
        // A bulk load invalidates the pinned epoch: the swap must refuse.
        db.load_ntriples(
            r#"<http://ex/late> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert!(
            !finish_rebuild(&db.inner, pin, built).unwrap(),
            "superseded"
        );
        assert!(!db.reorg_in_flight());
        db.self_organize().unwrap();
        let rs = db
            .query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }")
            .unwrap();
        assert_eq!(rs.len(), 6, "the load won; the stale rebuild left no trace");
    }

    /// Regression (review finding): holding a `DictPin` across a write on
    /// the *same thread* must not deadlock — the dictionary interns through
    /// `&self`, so the pools grow in place under an open pin. The pin
    /// observes the appended terms (its generation's dictionary is append-
    /// only), and a generation swap never waits on it.
    #[test]
    fn dict_pin_held_across_writes_does_not_deadlock() {
        let db = sample_db();
        db.self_organize().unwrap();
        let pin = db.dict();
        let n_before = pin.n_iris();
        let item3 = pin.iri_oid("http://ex/item3").unwrap();
        // sordf-lint: allow(L1) — this regression test deliberately holds the pin
        // across writes to assert the wait-free interning contract.
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        // sordf-lint: allow(L1) — deliberate: same wait-free-interning regression check.
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        // sordf-lint: allow(L1) — deliberate: same wait-free-interning regression check.
        db.load_ntriples(
            r#"<http://ex/new2> <http://ex/qty> "4"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        // The generation's dictionary grew in place: the open pin sees the
        // appended terms, and every OID it already resolved stayed put.
        assert_eq!(pin.n_iris(), n_before + 2);
        assert!(pin.iri_oid("http://ex/new1").is_some());
        assert_eq!(pin.iri_oid("http://ex/item3"), Some(item3));
        drop(pin);
        let fresh = db.dict();
        // sordf-lint: allow(L1) — deliberate: reorganizing while `fresh` is held
        // asserts the swap never waits on an existing pin.
        db.self_organize().unwrap();
        // The swap installed a renumbered dictionary; `fresh` kept its
        // pre-swap snapshot alive and consistent.
        assert!(fresh.iri_oid("http://ex/new2").is_some());
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        // 5 originals − item3 (deleted) + new1 (inserted) = 5.
        assert_eq!(db.query(q).unwrap().len(), 5, "writes all landed");
    }

    #[test]
    fn only_one_rebuild_at_a_time() {
        let db = sample_db();
        db.self_organize().unwrap();
        let pin = begin_rebuild(&db.inner).unwrap();
        assert!(db.reorg_in_flight());
        assert!(matches!(db.reorganize_async(), Err(Error::State(_))));
        assert!(matches!(db.reorganize_now(), Err(Error::State(_))));
        let built = build_generation(&db.inner, &pin);
        assert!(finish_rebuild(&db.inner, pin, built).unwrap());
        assert!(!db.reorg_in_flight());
        db.reorganize_now().unwrap();
    }

    #[test]
    fn auto_reorg_thread_starts_fires_and_stops() {
        let mut db = sample_db();
        db.self_organize().unwrap();
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-04"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let want = db.query(q).unwrap().canonical(&db.dict());
        db.start_auto_reorg(ReorgPolicy::eager(), Duration::from_millis(1))
            .unwrap();
        assert!(db.auto_reorg_running());
        assert!(matches!(
            db.start_auto_reorg(ReorgPolicy::eager(), Duration::from_millis(1)),
            Err(Error::State(_))
        ));
        // The eager policy must fire and fold the delta within the timeout.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while db.drift_stats().n_delta_inserts > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto reorg never fired"
            );
            thread::sleep(Duration::from_millis(2));
        }
        db.stop_auto_reorg();
        assert!(!db.auto_reorg_running());
        db.stop_auto_reorg(); // idempotent
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), want);
    }

    // ---- durability ---------------------------------------------------------

    fn durable_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — unique temp names only.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sordf-core-{tag}-{}-{n}", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            // sordf-lint: allow(L7) — best-effort temp cleanup in a test.
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const DQ: &str = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";

    #[test]
    fn durable_writes_survive_reopen() {
        let dir = durable_dir("reopen");
        let _c = Cleanup(dir.clone());
        let want = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            assert!(db.is_durable());
            db.load_terms(&sample_triples()).unwrap();
            db.self_organize().unwrap();
            db.insert_ntriples(
                r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
            )
            .unwrap();
            let victim = TermTriple::new(
                Term::iri("http://ex/item3"),
                Term::iri("http://ex/qty"),
                Term::int(3),
            );
            assert_eq!(db.delete_triples(std::slice::from_ref(&victim)).unwrap(), 1);
            db.query(DQ).unwrap().canonical(&db.dict())
        };
        // Re-open from disk: the checkpoint restores the organized base and
        // the WAL suffix replays the insert and the delete.
        let db = Database::open(&dir).unwrap();
        assert!(db.is_durable());
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), want);
        // The recovered database accepts (and logs) further writes.
        db.insert_ntriples(
            r#"<http://ex/new2> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert_eq!(db.query(DQ).unwrap().len(), want.len() + 1);
    }

    #[test]
    fn checkpoint_rotates_the_wal_and_bounds_replay() {
        let dir = durable_dir("checkpoint");
        let _c = Cleanup(dir.clone());
        let want = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            db.load_terms(&sample_triples()).unwrap();
            db.build_baseline().unwrap();
            // build_baseline checkpointed: the pair rotated past (0, 0).
            let m = Manifest::read(&dir).unwrap().unwrap();
            assert!(m.snap_file >= 1 && m.wal_file >= 1);
            db.insert_ntriples(
                r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
            )
            .unwrap();
            db.checkpoint().unwrap();
            let m2 = Manifest::read(&dir).unwrap().unwrap();
            assert_eq!(m2.snap_file, m.snap_file + 1);
            assert_eq!(m2.wal_file, m.wal_file + 1);
            // Post-checkpoint writes land in the fresh WAL.
            db.insert_ntriples(
                r#"<http://ex/new2> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
            )
            .unwrap();
            db.query(DQ).unwrap().canonical(&db.dict())
        };
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), want);
    }

    #[test]
    fn background_swap_rotates_the_durable_pair() {
        let dir = durable_dir("swap");
        let _c = Cleanup(dir.clone());
        let want = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            db.load_terms(&sample_triples()).unwrap();
            db.self_organize().unwrap();
            let m = Manifest::read(&dir).unwrap().unwrap();
            db.insert_ntriples(
                r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-02"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
            )
            .unwrap();
            db.reorganize_now().unwrap();
            // A second swap with writes in each catch-up round: the
            // rotated WAL must carry both rounds' records.
            let qty3 = |s: &str| {
                let t = TermTriple::new(Term::iri(s), Term::iri("http://ex/qty"), Term::int(3));
                assert_eq!(db.insert_terms(&[t]).unwrap(), 1);
            };
            let pin = begin_rebuild(&db.inner).unwrap();
            let built = build_generation(&db.inner, &pin);
            write_rebuild_snapshot(pin.durable.as_ref().unwrap(), &pin, &built).unwrap();
            qty3("http://ex/new2");
            let catch_up = catch_up_off_lock(&db.inner, &pin, &built).unwrap();
            qty3("http://ex/new3");
            assert!(swap_in(&db.inner, pin, built, catch_up).unwrap());
            // Each swap committed a fresh snapshot + WAL pair.
            let m2 = Manifest::read(&dir).unwrap().unwrap();
            assert_eq!(m2.snap_file, m.snap_file + 2);
            assert_eq!(m2.wal_file, m.wal_file + 2);
            assert!(!dir.join(SNAP_TMP).exists(), "staging file renamed away");
            let rows = db.query(DQ).unwrap().canonical(&db.dict());
            assert!(
                rows.iter().any(|r| r.contains("new2")) && rows.iter().any(|r| r.contains("new3"))
            );
            rows
        };
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), want);
        assert!(
            db.clustered_store().is_some(),
            "recovery rebuilt the organized layout"
        );
    }

    #[test]
    fn create_durable_refuses_an_existing_store() {
        let dir = durable_dir("refuse");
        let _c = Cleanup(dir.clone());
        drop(Database::create_durable(&dir, SyncPolicy::Always).unwrap());
        assert!(matches!(
            Database::create_durable(&dir, SyncPolicy::Always),
            Err(Error::State(_))
        ));
        // But open recovers it fine.
        Database::open(&dir).unwrap();
    }

    #[test]
    fn compact_delta_merges_runs_and_preserves_answers() {
        let db = sample_db();
        db.self_organize().unwrap();
        for i in 0..3 {
            db.insert_ntriples(&format!(
                r#"<http://ex/extra{i}> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#
            ))
            .unwrap();
        }
        db.delete_matching(Some(&Term::iri("http://ex/extra1")), None, None)
            .unwrap();
        assert_eq!(db.delta_runs(), 3);
        let before = db.query(DQ).unwrap().canonical(&db.dict());
        assert!(db.compact_delta().unwrap());
        assert_eq!(db.delta_runs(), 1, "runs merged");
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), before);
        // Idempotent: a single run with no pending work compacts to nothing.
        assert!(!db.compact_delta().unwrap());
    }
}
