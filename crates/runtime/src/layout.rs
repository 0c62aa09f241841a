//! Run configuration, rank topology, and the resolved data layout.
//!
//! [`Layout`] is built once at initialization: it resolves symbolic
//! constants, index ranges, segment sizes (the crucial tuning parameter the
//! paper keeps *out* of SIAL source), block shapes, and home placement. It is
//! shared read-only by the master, every worker, the dry run, and the trace
//! generator, so all of them agree on placement and sizes by construction.
//!
//! It also resolves the bytecode's static facts, once, into a table indexed
//! by pc ([`PcFacts`]): per block ref its array, kind, declared block,
//! sub-addressed dimensions and extents; per pardo its ranges, its
//! unconditional fetches and a dense slot; per contraction its plan. What
//! stays per access is reading the ref's index values.

use crate::error::RuntimeError;
use crate::msg::{BlockKey, MAX_RANK};
use sia_blocks::{ContractError, ContractionPlan, Shape, SliceSpec};
use sia_bytecode::{
    Arg, ArrayId, ArrayKind, BlockRef, ConstBindings, IndexId, IndexKind, Instruction as I,
    Program, PutMode,
};
use sia_fabric::{FaultPlan, Rank};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A deterministic, runtime-triggered worker crash — the one way a rank
/// dies: worker `worker` kills its endpoint after executing
/// `after_iterations` pardo iterations. Firing at an iteration boundary
/// (never mid-block-write) keeps the failure model clean: a crashed
/// worker's last epoch checkpoint is always consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Worker index (0-based) to crash.
    pub worker: usize,
    /// Pardo iterations the worker completes before dying.
    pub after_iterations: u64,
}

/// Fault-tolerance configuration: what the fabric does to the data plane
/// and which worker, if any, dies. Present in [`SipConfig::fault`] only when
/// the run should exercise recovery paths; `None` keeps every hot path
/// identical to the fault-free build. The retry clock is not configured:
/// its three values are constants in `ft.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seeded fabric fault plan (drop/duplicate/delay probabilities).
    pub plan: FaultPlan,
    /// Optional deterministic worker crash. Scheduling one is what turns on
    /// the put journal and the per-barrier epoch checkpoint.
    pub crash: Option<CrashSchedule>,
}

impl FaultConfig {
    /// A fault configuration around a seeded plan, with no crash scheduled.
    pub fn new(plan: FaultPlan) -> Self {
        FaultConfig { plan, crash: None }
    }
}

/// Segment sizes per index type. "The same segment size applies to all
/// indices of a given type and is constant for the duration of the
/// computation."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Segment size used when no per-type override applies.
    pub default: usize,
    /// Override for `aoindex`.
    pub ao: Option<usize>,
    /// Override for `moindex`.
    pub mo: Option<usize>,
    /// Override for `moaindex`.
    pub moa: Option<usize>,
    /// Override for `mobindex`.
    pub mob: Option<usize>,
    /// Override for `laindex`.
    pub la: Option<usize>,
    /// Subsegments per segment (for subindices); must divide every segment
    /// size it is used with.
    pub nsub: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            default: 8,
            ao: None,
            mo: None,
            moa: None,
            mob: None,
            la: None,
            nsub: 2,
        }
    }
}

impl SegmentConfig {
    /// The segment size for an index kind (subindices resolve through their
    /// parent elsewhere; passing one here returns the default).
    pub fn seg_for(&self, kind: IndexKind) -> usize {
        match kind {
            IndexKind::AoIndex => self.ao.unwrap_or(self.default),
            IndexKind::MoIndex => self.mo.unwrap_or(self.default),
            IndexKind::MoAIndex => self.moa.unwrap_or(self.default),
            IndexKind::MoBIndex => self.mob.unwrap_or(self.default),
            IndexKind::LaIndex => self.la.unwrap_or(self.default),
            IndexKind::Simple | IndexKind::Subindex { .. } => self.default,
        }
    }
}

/// SIP run configuration.
#[derive(Debug, Clone)]
pub struct SipConfig {
    /// Number of worker ranks.
    pub workers: usize,
    /// Number of I/O server ranks (0 disables served arrays).
    pub io_servers: usize,
    /// Segment sizes.
    pub segments: SegmentConfig,
    /// Block-cache capacity (blocks) per worker.
    pub cache_blocks: usize,
    /// How many upcoming iterations of an enclosing `do` loop a `get` in it
    /// requests ahead. `0` switches look-ahead off altogether: the `do`-loop
    /// one and the look-ahead across the granted pardo chunk, whose window
    /// is sized from the block cache, not from this.
    pub prefetch_depth: usize,
    /// Per-I/O-server in-memory cache capacity (blocks).
    pub server_cache_blocks: usize,
    /// Collect all distributed arrays to the master at the end of the run
    /// (for tests and small examples).
    pub collect_distributed: bool,
    /// Directory for served-array store files and checkpoints; a fresh
    /// temporary directory is created when `None`.
    pub run_dir: Option<PathBuf>,
    /// Override for the served-array store directory. `None` (the default)
    /// keeps served arrays under `run_dir/served`; the serving daemon
    /// points every job at one shared directory so jobs referencing the
    /// same served arrays read and write the same store files.
    pub served_dir: Option<PathBuf>,
    /// Per-worker memory budget in **bytes** that the dry run checks against
    /// (`None` skips the feasibility gate but the estimate is still produced)
    /// and the block manager enforces at runtime.
    pub memory_budget: Option<u64>,
    /// Fault injection and recovery; `None` (the default) runs on a perfect
    /// fabric with all recovery machinery disabled.
    pub fault: Option<FaultConfig>,
    /// Record per-rank trace events (instruction/wait/comm-flight spans,
    /// cache and recovery events) into preallocated ring buffers, merged
    /// into [`RunOutput::trace`](crate::RunOutput::trace) at shutdown.
    /// Off by default: a disabled sink costs one branch per record site
    /// and allocates nothing.
    pub trace: bool,
    /// Write the merged timeline as Chrome-trace/Perfetto JSON to this
    /// path at the end of the run. Setting a path implies `trace`.
    pub trace_path: Option<PathBuf>,
    /// Per-rank trace ring capacity in **events** (not bytes); when the
    /// ring fills, the oldest events are overwritten and counted as
    /// dropped. Default 65 536.
    pub trace_buffer_events: usize,
    /// Write the machine-readable profile (`sia.profile.v1` JSON) to this
    /// path at the end of the run.
    pub profile_json: Option<PathBuf>,
    /// Frobenius-norm screening threshold for `sparse` arrays: a `put`/
    /// `prepare` whose payload norm falls strictly under this bound drops
    /// the payload and records only the norm at the block's home. `0.0`
    /// (default) keeps every block — sparse arrays then differ from dense
    /// only in their typed-absence reads.
    pub sparsity_threshold: f64,
    /// Expected realized block fraction per sparse array (name → fraction
    /// in `0.0..=1.0`), used by the dry-run to estimate the *realized*
    /// footprint instead of the dense one. Arrays without a hint are
    /// estimated dense (conservative).
    pub sparsity_density: BTreeMap<String, f64>,
}

impl Default for SipConfig {
    fn default() -> Self {
        SipConfig {
            workers: 2,
            io_servers: 1,
            segments: SegmentConfig::default(),
            cache_blocks: 64,
            prefetch_depth: 2,
            server_cache_blocks: 64,
            collect_distributed: false,
            run_dir: None,
            served_dir: None,
            memory_budget: None,
            fault: None,
            trace: false,
            trace_path: None,
            trace_buffer_events: crate::events::DEFAULT_TRACE_EVENTS,
            profile_json: None,
            sparsity_threshold: 0.0,
            sparsity_density: BTreeMap::new(),
        }
    }
}

impl SipConfig {
    /// A validating builder — the preferred way to construct a config.
    ///
    /// ```
    /// use sia_runtime::SipConfig;
    /// let config = SipConfig::builder()
    ///     .workers(4)
    ///     .io_servers(1)
    ///     .segment_size(8)
    ///     .collect_distributed(true)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.workers, 4);
    /// ```
    pub fn builder() -> SipConfigBuilder {
        SipConfigBuilder {
            config: SipConfig::default(),
        }
    }

    /// True when trace events should be recorded (either the flag or an
    /// export path enables collection).
    pub fn tracing(&self) -> bool {
        self.trace || self.trace_path.is_some()
    }
}

/// Invalid [`SipConfig`] reported by [`SipConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SIP config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`SipConfig`]; every setter mirrors a config field, and
/// [`build`](Self::build) validates the combination.
#[derive(Debug, Clone)]
pub struct SipConfigBuilder {
    config: SipConfig,
}

impl SipConfigBuilder {
    /// Number of worker ranks (must be ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Number of I/O server ranks (0 disables served arrays).
    pub fn io_servers(mut self, n: usize) -> Self {
        self.config.io_servers = n;
        self
    }

    /// Full segment configuration.
    pub fn segments(mut self, s: SegmentConfig) -> Self {
        self.config.segments = s;
        self
    }

    /// Shorthand: the default segment size, keeping other segment fields.
    pub fn segment_size(mut self, n: usize) -> Self {
        self.config.segments.default = n;
        self
    }

    /// Block-cache capacity (blocks) per worker.
    pub fn cache_blocks(mut self, n: usize) -> Self {
        self.config.cache_blocks = n;
        self
    }

    /// `do`-loop look-ahead depth; `0` switches every look-ahead off.
    pub fn prefetch_depth(mut self, n: usize) -> Self {
        self.config.prefetch_depth = n;
        self
    }

    /// Per-I/O-server in-memory cache capacity (blocks).
    pub fn server_cache_blocks(mut self, n: usize) -> Self {
        self.config.server_cache_blocks = n;
        self
    }

    /// Collect all distributed arrays to the master at the end of the run.
    pub fn collect_distributed(mut self, yes: bool) -> Self {
        self.config.collect_distributed = yes;
        self
    }

    /// Directory for served-array block files and checkpoints.
    pub fn run_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.run_dir = Some(dir.into());
        self
    }

    /// Override for the served-array block-file directory (default:
    /// `run_dir/served`). Serving daemons share one directory across jobs.
    pub fn served_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.served_dir = Some(dir.into());
        self
    }

    /// Per-worker memory budget for the dry-run feasibility gate.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.config.memory_budget = Some(bytes);
        self
    }

    /// Fault injection and recovery configuration.
    pub fn fault(mut self, f: FaultConfig) -> Self {
        self.config.fault = Some(f);
        self
    }

    /// Record per-rank trace events (kept in memory, surfaced in
    /// `RunOutput::trace`).
    pub fn trace(mut self, yes: bool) -> Self {
        self.config.trace = yes;
        self
    }

    /// Write the merged Chrome-trace JSON here at the end of the run
    /// (implies trace collection).
    pub fn trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.trace_path = Some(path.into());
        self
    }

    /// Per-rank trace ring capacity in events (not bytes).
    pub fn trace_buffer_events(mut self, n: usize) -> Self {
        self.config.trace_buffer_events = n;
        self
    }

    /// Write the machine-readable profile JSON here at the end of the run.
    pub fn profile_json(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.profile_json = Some(path.into());
        self
    }

    /// Frobenius-norm screening threshold for sparse arrays (must be finite
    /// and ≥ 0; 0.0 disables dropping).
    pub fn sparsity_threshold(mut self, t: f64) -> Self {
        self.config.sparsity_threshold = t;
        self
    }

    /// Expected realized block fraction of a sparse array, used by the
    /// dry-run footprint estimate (must be in `0.0..=1.0`).
    pub fn sparsity_density(mut self, array: impl Into<String>, fraction: f64) -> Self {
        self.config.sparsity_density.insert(array.into(), fraction);
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<SipConfig, ConfigError> {
        let c = self.config;
        if c.workers < 1 {
            return Err(ConfigError("workers must be ≥ 1".into()));
        }
        if c.cache_blocks < 1 {
            return Err(ConfigError("cache_blocks must be ≥ 1".into()));
        }
        if c.segments.default < 1 {
            return Err(ConfigError("segment size must be ≥ 1".into()));
        }
        if c.segments.nsub < 1 {
            return Err(ConfigError("nsub must be ≥ 1".into()));
        }
        if c.prefetch_depth > c.cache_blocks {
            return Err(ConfigError(format!(
                "prefetch_depth {} exceeds cache_blocks {}; the prefetcher \
                 would evict its own in-flight blocks",
                c.prefetch_depth, c.cache_blocks
            )));
        }
        if c.tracing() && c.trace_buffer_events < 16 {
            return Err(ConfigError(
                "trace_buffer_events must be ≥ 16 when tracing".into(),
            ));
        }
        if !c.sparsity_threshold.is_finite() || c.sparsity_threshold < 0.0 {
            return Err(ConfigError(format!(
                "sparsity_threshold must be finite and ≥ 0, got {}",
                c.sparsity_threshold
            )));
        }
        for (name, d) in &c.sparsity_density {
            if !d.is_finite() || !(0.0..=1.0).contains(d) {
                return Err(ConfigError(format!(
                    "sparsity_density for `{name}` must be in 0.0..=1.0, got {d}"
                )));
            }
        }
        if let Some(f) = &c.fault {
            f.plan
                .validate()
                .map_err(|e| ConfigError(format!("fault plan: {e}")))?;
            if f.plan.seed == 0 && f.plan.is_active() {
                return Err(ConfigError(
                    "an active fault plan needs an explicit nonzero seed so \
                     failures reproduce"
                        .into(),
                ));
            }
            if let Some(crash) = &f.crash {
                if crash.worker >= c.workers {
                    return Err(ConfigError(format!(
                        "crash schedule targets worker {} of {}",
                        crash.worker, c.workers
                    )));
                }
                if c.workers < 2 {
                    return Err(ConfigError(
                        "crash recovery needs at least 2 workers".into(),
                    ));
                }
            }
        }
        Ok(c)
    }
}

/// What the blocks of one array share: the declared block and the grid of
/// segments they are cut from.
#[derive(Debug, Clone, Copy)]
struct Declared {
    /// The shape of one declared block, which every store, ack and absent
    /// read asks for, and its bytes.
    shape: Shape,
    bytes: u64,
    /// Per declared dimension: its first segment and how many it spans.
    /// Block ordinals are row-major positions in this grid.
    grid: [(i64, u64); MAX_RANK],
    /// Blocks in the grid.
    total: u64,
}

/// Rank topology: rank 0 is the master, then workers, then I/O servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Worker count.
    pub workers: usize,
    /// I/O server count.
    pub io_servers: usize,
}

impl Topology {
    /// A topology of `workers` workers and `io_servers` I/O servers.
    pub fn new(workers: usize, io_servers: usize) -> Self {
        Topology {
            workers,
            io_servers,
        }
    }

    /// Total rank count.
    pub fn world_size(&self) -> usize {
        1 + self.workers + self.io_servers
    }

    /// The master's rank.
    pub fn master(&self) -> Rank {
        Rank(0)
    }

    /// Rank of worker `i` (0-based).
    pub fn worker(&self, i: usize) -> Rank {
        debug_assert!(i < self.workers);
        Rank(1 + i)
    }

    /// Rank of I/O server `j` (0-based).
    pub fn io_server(&self, j: usize) -> Rank {
        debug_assert!(j < self.io_servers);
        Rank(1 + self.workers + j)
    }

    /// True if `r` is a worker rank.
    pub fn is_worker(&self, r: Rank) -> bool {
        r.0 >= 1 && r.0 <= self.workers
    }

    /// The worker index of a worker rank.
    pub fn worker_index(&self, r: Rank) -> usize {
        debug_assert!(self.is_worker(r));
        r.0 - 1
    }

    /// The dead-rank rehash chain from an already-resolved placement slot.
    ///
    /// `dead` is indexed by worker index. Keys whose slot is alive keep
    /// their home (surviving data never moves); keys homed at a dead worker
    /// walk a deterministic rehash chain until they land on a survivor, so
    /// every rank that agrees on the dead set agrees on the new home.
    pub(crate) fn rehash_from(&self, mut slot: usize, key: &BlockKey, dead: &[bool]) -> Rank {
        if !dead.iter().any(|&d| d) {
            return self.worker(slot);
        }
        debug_assert!(dead.len() == self.workers);
        debug_assert!(dead.iter().any(|&d| !d), "all workers dead");
        let mut h = key.placement_hash();
        while dead[slot] {
            // splitmix64-style remix for the next candidate.
            h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            slot = (z % self.workers as u64) as usize;
        }
        self.worker(slot)
    }

    /// Home I/O server of a served block.
    pub fn home_of_served(&self, key: &BlockKey) -> Rank {
        debug_assert!(self.io_servers > 0, "served arrays need I/O servers");
        self.io_server((key.placement_hash() % self.io_servers as u64) as usize)
    }
}

/// The fully resolved data layout for one run.
#[derive(Debug)]
pub struct Layout {
    /// The program.
    pub program: Arc<Program>,
    /// Resolved symbolic constants (indexed by `ConstId`).
    pub consts: Vec<i64>,
    /// Segment configuration.
    pub segments: SegmentConfig,
    /// Rank topology.
    pub topology: Topology,
    /// Per index: inclusive segment range (subindex ranges derived from the
    /// parent's range × nsub).
    index_ranges: Vec<(i64, i64)>,
    /// Per index: the block extent its segments denote (seg size; for a
    /// subindex, seg/nsub).
    index_extents: Vec<usize>,
    /// Per array: its declared block and segment grid.
    declared: Vec<Declared>,
    /// Per pc: the instruction's static facts.
    code: Vec<PcFacts>,
    /// How many `PardoStart`s the program has: the range of
    /// [`PardoFacts::slot`].
    pub(crate) pardos: usize,
}

impl Layout {
    /// Resolves the layout a run of `program` under `config` uses: its
    /// workers, I/O servers and segments.
    pub fn for_config(
        program: Arc<Program>,
        bindings: &ConstBindings,
        config: &SipConfig,
    ) -> Result<Self, RuntimeError> {
        let topology = Topology::new(config.workers, config.io_servers);
        Self::new(program, bindings, config.segments, topology)
    }

    /// Resolves a layout. Fails if constants are unbound, ranges invalid, or
    /// a segment size is not divisible by `nsub` where subindices need it.
    pub fn new(
        program: Arc<Program>,
        bindings: &ConstBindings,
        segments: SegmentConfig,
        topology: Topology,
    ) -> Result<Self, RuntimeError> {
        let consts = program.resolve_consts(bindings)?;
        let n = program.indices.len();
        let mut index_ranges = vec![(0i64, 0i64); n];
        let mut index_extents = vec![0usize; n];

        for (i, decl) in program.indices.iter().enumerate() {
            match decl.kind {
                IndexKind::Subindex { parent } => {
                    let pdecl = program.indices.get(parent.index()).ok_or_else(|| {
                        RuntimeError::Resolve(format!("subindex `{}` has no parent", decl.name))
                    })?;
                    let (plo, phi) = program.index_range(parent, &consts)?;
                    let pseg = segments.seg_for(pdecl.kind);
                    if segments.nsub == 0 || !pseg.is_multiple_of(segments.nsub) {
                        return Err(RuntimeError::Resolve(format!(
                            "segment size {pseg} of `{}` is not divisible by nsub {}",
                            pdecl.name, segments.nsub
                        )));
                    }
                    let nsub = segments.nsub as i64;
                    let (Some(below), Some(hi)) =
                        ((plo - 1).checked_mul(nsub), phi.checked_mul(nsub))
                    else {
                        let many = format!("subindex `{}` has too many segments", decl.name);
                        return Err(RuntimeError::Resolve(many));
                    };
                    index_ranges[i] = (below + 1, hi);
                    index_extents[i] = pseg / segments.nsub;
                }
                kind => {
                    index_ranges[i] = program.index_range(IndexId(i as u32), &consts)?;
                    index_extents[i] = segments.seg_for(kind);
                }
            }
        }
        let declared = program
            .arrays
            .iter()
            .map(|decl| {
                // An index the program does not declare has no extent: 0,
                // which no shape accepts.
                let dims: Vec<usize> = (decl.dims.iter())
                    .map(|d| index_extents.get(d.index()).copied().unwrap_or(0))
                    .collect();
                let shape = Shape::try_new(&dims).ok_or_else(|| {
                    RuntimeError::Resolve(format!(
                        "array `{}` has blocks of extents {dims:?}, which no block can hold",
                        decl.name
                    ))
                })?;
                let mut grid = [(0, 0); MAX_RANK];
                for (cell, d) in grid.iter_mut().zip(&decl.dims) {
                    let (lo, hi) = index_ranges[d.index()];
                    *cell = (lo, (hi - lo + 1).max(0) as u64);
                }
                let total = (grid[..dims.len()].iter())
                    .try_fold(1u64, |n, &(_, len)| n.checked_mul(len))
                    .ok_or_else(|| {
                        RuntimeError::Resolve(format!(
                            "array `{}` has more blocks than a 64-bit count holds",
                            decl.name
                        ))
                    })?;
                Ok(Declared {
                    shape,
                    bytes: shape.len() as u64 * 8,
                    grid,
                    total,
                })
            })
            .collect::<Result<_, RuntimeError>>()?;
        let mut layout = Layout {
            program,
            consts,
            segments,
            topology,
            index_ranges,
            index_extents,
            declared,
            code: Vec::new(),
            pardos: 0,
        };
        (layout.code, layout.pardos) = layout.resolve_code()?;
        Ok(layout)
    }

    /// Worker slot (0-based) of a distributed block — the placement every
    /// runtime caller resolves through (master and workers).
    ///
    /// The array's blocks are cut into `workers` slabs of consecutive
    /// [`block_ordinal`](Self::block_ordinal)s: the block lands in slab
    /// `⌊ordinal · workers / total⌋`. Slabs are balanced to within one
    /// block, and blocks of arrays over the same grid addressed by the same
    /// index tuple land on the same worker, which is what lets the master
    /// hand a pardo iteration to the worker owning the block it writes.
    /// Every access path refuses a key that is no block of its array as
    /// [`RuntimeError::BlockOutOfRange`] before it resolves a home; such a
    /// key reads as slot 0 here.
    pub fn slot_of_distributed(&self, key: &BlockKey) -> usize {
        let Some(ordinal) = self.block_ordinal(key) else {
            return 0;
        };
        slab_of(
            ordinal,
            self.topology.workers as u64,
            self.total_blocks(key.array),
        )
    }

    /// Home worker of a distributed block when some workers are dead: its
    /// placement slot, then the deterministic rehash chain past the dead.
    pub fn home_of_distributed_excluding(&self, key: &BlockKey, dead: &[bool]) -> Rank {
        self.topology
            .rehash_from(self.slot_of_distributed(key), key, dead)
    }

    /// Home I/O server of a served block.
    pub fn home_of_served(&self, key: &BlockKey) -> Rank {
        self.topology.home_of_served(key)
    }

    /// Home rank of a remote block by its array's kind: the I/O server of a
    /// served block, else the distributed home skipping `dead` workers.
    pub fn home_of(&self, key: &BlockKey, dead: &[bool]) -> Rank {
        if self.array_kind(key.array) == ArrayKind::Served {
            self.home_of_served(key)
        } else {
            self.home_of_distributed_excluding(key, dead)
        }
    }

    /// Inclusive segment range of an index.
    pub fn range(&self, idx: IndexId) -> (i64, i64) {
        self.index_ranges[idx.index()]
    }

    /// Number of segments an index ranges over.
    pub fn range_len(&self, idx: IndexId) -> u64 {
        let (lo, hi) = self.range(idx);
        (hi - lo + 1) as u64
    }

    /// The block extent (elements) one segment of this index denotes.
    pub fn extent(&self, idx: IndexId) -> usize {
        self.index_extents[idx.index()]
    }

    /// The subsegment range (inclusive) within parent segment `pval`.
    pub fn sub_range(&self, pval: i64) -> (i64, i64) {
        let n = self.segments.nsub as i64;
        ((pval - 1) * n + 1, pval * n)
    }

    /// Parent segment containing subsegment `sval`, plus the subsegment's
    /// 0-based offset within it.
    pub fn sub_parent_seg(&self, sval: i64) -> (i64, usize) {
        let n = self.segments.nsub as i64;
        let parent = (sval - 1) / n + 1;
        let off = ((sval - 1) % n) as usize;
        (parent, off)
    }

    /// Shape of a block of `array` as declared (all dims at declared extent).
    pub fn declared_block_shape(&self, array: ArrayId) -> Shape {
        self.declared[array.index()].shape
    }

    /// Total number of blocks of `array` over its declared index ranges.
    pub fn total_blocks(&self, array: ArrayId) -> u64 {
        self.declared[array.index()].total
    }

    /// Row-major position of a storage block among its array's
    /// [`total_blocks`](Self::total_blocks): the last declared dimension
    /// varies fastest. `None` when the key is no block of the array — wrong
    /// rank, or a segment outside its dimension's declared range.
    pub fn block_ordinal(&self, key: &BlockKey) -> Option<u64> {
        let declared = self.declared.get(key.array.index())?;
        let segs = key.segs();
        if segs.len() != declared.shape.rank() {
            return None;
        }
        // `total` fits a u64, so no partial ordinal overflows.
        segs.iter()
            .zip(&declared.grid)
            .try_fold(0u64, |ordinal, (&seg, &(lo, len))| {
                let offset = u64::try_from(i64::from(seg) - lo).ok()?;
                (offset < len).then(|| ordinal * len + offset)
            })
    }

    /// [`block_ordinal`](Self::block_ordinal), or the typed error of an
    /// access to a key that is no block of its array — what an unguarded
    /// `do L` running past the declared segments reaches.
    pub(crate) fn ordinal_of(&self, key: &BlockKey) -> Result<u64, RuntimeError> {
        self.block_ordinal(key)
            .ok_or_else(|| RuntimeError::BlockOutOfRange {
                key: *key,
                array: (self.program.arrays.get(key.array.index()))
                    .map_or_else(String::new, |a| a.name.clone()),
            })
    }

    /// The storage block of `array` at `ordinal`: the inverse of
    /// [`block_ordinal`](Self::block_ordinal) over
    /// `0..total_blocks(array)`.
    pub(crate) fn block_key(&self, array: ArrayId, mut ordinal: u64) -> BlockKey {
        let declared = &self.declared[array.index()];
        let mut segs = [0; MAX_RANK];
        let segs = &mut segs[..declared.shape.rank()];
        for (seg, &(lo, len)) in segs.iter_mut().zip(&declared.grid).rev() {
            *seg = lo + (ordinal % len) as i64;
            ordinal /= len;
        }
        BlockKey::new(array, segs)
    }

    /// Bytes of one declared block of `array`.
    pub fn block_bytes(&self, array: ArrayId) -> u64 {
        self.declared[array.index()].bytes
    }

    /// The key of the *storage* block a ref denotes when each of its
    /// indices `i` holds `value(i)`, plus the window within it when the ref
    /// is sub-addressed. `Err` names the first index still undefined (0).
    pub(crate) fn storage_target(
        &self,
        r: &RefFacts,
        value: impl Fn(IndexId) -> i64,
    ) -> Result<(BlockKey, Option<SliceSpec>), IndexId> {
        let rank = r.shape.rank();
        let (mut segs, mut offsets) = ([0; MAX_RANK], [0; MAX_RANK]);
        for d in 0..rank {
            let v = value(r.indices[d]);
            if v == 0 {
                return Err(r.indices[d]);
            }
            segs[d] = v;
            if r.sub[d] {
                let (parent, off) = self.sub_parent_seg(v);
                (segs[d], offsets[d]) = (parent, off * r.shape.dim(d));
            }
        }
        let window = (r.sub != [false; MAX_RANK])
            .then(|| SliceSpec::new(&offsets[..rank], &r.window[..rank]));
        Ok((BlockKey::new(r.array, &segs[..rank]), window))
    }

    /// Bytes of the largest declared block among remote (distributed or
    /// served) arrays — the unit the worker block cache is sized in, and the
    /// same quantity the dry run uses to convert `cache_blocks` to bytes.
    /// Zero when the program has no remote arrays.
    pub fn largest_remote_block_bytes(&self) -> u64 {
        (0..self.program.arrays.len())
            .map(|i| ArrayId(i as u32))
            .filter(|&id| {
                matches!(
                    self.array_kind(id),
                    ArrayKind::Distributed | ArrayKind::Served
                )
            })
            .map(|id| self.block_bytes(id))
            .max()
            .unwrap_or(0)
    }

    /// The array's declaration.
    pub fn array(&self, id: ArrayId) -> &sia_bytecode::ArrayDecl {
        &self.program.arrays[id.index()]
    }

    /// The array's kind.
    pub fn array_kind(&self, id: ArrayId) -> ArrayKind {
        self.program.arrays[id.index()].kind
    }

    /// Whether the array is block-sparse (typed absence + norm screening).
    pub fn array_sparse(&self, id: ArrayId) -> bool {
        self.program.arrays[id.index()].sparse
    }
}

/// The static facts of one block ref: everything an access to it needs
/// besides the current values of its indices.
#[derive(Debug, Clone)]
pub(crate) struct RefFacts {
    pub array: ArrayId,
    pub kind: ArrayKind,
    /// The array's declared block: the parent extents of a sub-addressed
    /// ref.
    declared: Declared,
    /// The ref's indices (its rank is `shape`'s).
    indices: [IndexId; MAX_RANK],
    /// The block the ref denotes: per dimension the extent of the ref's
    /// index, which is the sub extent where the ref is sub-addressed.
    pub shape: Shape,
    /// Per dimension: the ref's index is a subindex where the array
    /// declares a whole segment, so it addresses a window of the stored
    /// block. All false for a ref to whole blocks.
    sub: [bool; MAX_RANK],
    /// Per dimension: the window's extent in the stored block (the sub
    /// extent where `sub`, the declared extent elsewhere).
    window: [usize; MAX_RANK],
}

impl RefFacts {
    /// The ref's indices.
    pub fn indices(&self) -> &[IndexId] {
        &self.indices[..self.shape.rank()]
    }

    /// The shape of one stored block of the array.
    pub fn declared_shape(&self) -> Shape {
        self.declared.shape
    }
}

/// Which reference of a pardo anchors its owner-compute affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Anchor {
    /// The pardo's one fully pardo-bound Replace `put`.
    Put,
    /// The pardo puts no distributed array: its first `get` (in body
    /// order) whose indices are a full pardo-bound key.
    Get,
}

/// Owner-compute affinity for a pardo (DESIGN.md §17): the distributed
/// array whose anchoring reference is fully pardo-bound, and for each of
/// its dimensions the position of the addressing index inside the pardo
/// index list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OwnerCompute {
    /// The anchoring array: written by a put anchor, read by a get anchor.
    pub array: ArrayId,
    /// `dim_pos[d]` = position in the pardo index list of the index
    /// addressing dimension `d`.
    pub dim_pos: Vec<usize>,
    /// Which reference the anchor came from.
    pub anchor: Anchor,
}

impl OwnerCompute {
    /// The block key an iteration's anchor addresses, given the pardo index
    /// values in pardo order. Built on the stack: the master calls this once
    /// per iteration of every pardo encounter.
    pub fn key_of(&self, pardo_vals: &[i64]) -> BlockKey {
        let mut segs = [0; MAX_RANK];
        for (seg, &p) in segs.iter_mut().zip(&self.dim_pos) {
            *seg = pardo_vals[p];
        }
        BlockKey::new(self.array, &segs[..self.dim_pos.len()])
    }

    /// Whether a ref of `array` by `indices`, in the pardo over `pardo`,
    /// addresses the anchor's block in every iteration.
    pub fn is_read_by(&self, array: ArrayId, indices: &[IndexId], pardo: &[IndexId]) -> bool {
        array == self.array
            && indices.len() == self.dim_pos.len()
            && (indices.iter().zip(&self.dim_pos)).all(|(&i, &p)| pardo[p] == i)
    }
}

/// The static facts of a `PardoStart`.
#[derive(Debug)]
pub(crate) struct PardoFacts {
    /// Dense number of this pardo among the program's, in pc order.
    pub slot: usize,
    pub indices: Box<[IndexId]>,
    /// Inclusive segment range per index, which iteration ordinals decode
    /// against.
    pub ranges: Box<[(i64, i64)]>,
    /// The `get`/`request` refs every iteration issues whatever its data:
    /// those at the top level of the body — not inside a `do` (their keys
    /// depend on the loop index; the `do`-loop look-ahead covers them) and
    /// not behind an `if`. An anchor whose blocks are local is not looked
    /// ahead: resolving keys only to find them local costs an all-local
    /// run 8 %. So a distributed array in a world of one worker is left out
    /// here, and the chunk look-ahead skips the gets `reads_anchor` marks
    /// in an iteration from the worker's own bucket.
    pub gets: Box<[RefFacts]>,
    /// Per entry of `gets`: whether it reads the `owner` anchor's block,
    /// which an iteration from the worker's own bucket finds at home.
    pub reads_anchor: Box<[bool]>,
    /// Declared bytes `gets` pulls per iteration.
    pub get_bytes: u64,
    /// The anchor the master buckets the iterations by, if the body has
    /// one.
    pub owner: Option<OwnerCompute>,
}

/// What one instruction needs of the layout, resolved once when the layout
/// is built: over every instruction, whether it runs or not.
#[derive(Debug)]
pub(crate) struct PcFacts {
    /// The instruction's block refs in operand order: destination first,
    /// then sources; an `execute`'s block arguments in order.
    pub refs: Box<[RefFacts]>,
    /// Set on a `PardoStart`.
    pardo: Option<Box<PardoFacts>>,
    /// Set on a `BlockContract`: its plan, or why it has none — reported
    /// only when the contraction executes.
    plan: Option<Result<ContractionPlan, ContractError>>,
}

impl PcFacts {
    /// The plan of the `BlockContract` at this pc.
    pub fn plan(&self) -> Result<&ContractionPlan, RuntimeError> {
        let plan = self
            .plan
            .as_ref()
            .expect("a contraction's facts hold its plan");
        plan.as_ref()
            .map_err(|e| RuntimeError::BadProgram(format!("contraction: {e}")))
    }
}

/// The block refs of an instruction in the order [`PcFacts::refs`] holds
/// them.
fn block_refs(ins: &I) -> Vec<&BlockRef> {
    match ins {
        I::Get { block } | I::Request { block } => vec![block],
        I::BlockFill { dest, .. } | I::BlockScale { dest, .. } => vec![dest],
        I::ScalarFromBlock { src, .. } => vec![src],
        I::Put { dest, src, .. }
        | I::Prepare { dest, src, .. }
        | I::BlockCopy { dest, src }
        | I::BlockAccumulate { dest, src, .. } => vec![dest, src],
        I::BlockContract { dest, a, b, .. } => vec![dest, a, b],
        I::ExecuteSuper { args, .. } => (args.iter())
            .filter_map(|arg| match arg {
                Arg::Block(r) => Some(r),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl Layout {
    /// The instruction at `pc` and its static facts.
    pub(crate) fn instruction(&self, pc: u32) -> Result<(&I, &PcFacts), RuntimeError> {
        let at = pc as usize;
        (self.program.code.get(at).zip(self.code.get(at)))
            .ok_or_else(|| RuntimeError::BadProgram(format!("pc {pc} out of range")))
    }

    /// The facts of the `PardoStart` at `pc`, if that is one.
    pub(crate) fn pardo(&self, pc: u32) -> Option<&PardoFacts> {
        self.code.get(pc as usize)?.pardo.as_deref()
    }

    /// Resolves the static facts of every instruction, and counts the
    /// pardos. A ref naming an array or index the program does not
    /// declare, or one with more indices than a block has dimensions, is
    /// refused here as bad bytecode; a contraction whose plan cannot be
    /// inferred is refused only when it executes.
    fn resolve_code(&self) -> Result<(Vec<PcFacts>, usize), RuntimeError> {
        let labels = |r: &BlockRef| -> Vec<u32> { r.indices.iter().map(|i| i.0).collect() };
        let mut pardos = 0;
        let mut code = Vec::with_capacity(self.program.code.len());
        for (pc, ins) in self.program.code.iter().enumerate() {
            let refs = (block_refs(ins).into_iter()).map(|r| self.ref_facts(r));
            let mut facts = PcFacts {
                refs: refs.collect::<Result<_, _>>()?,
                pardo: None,
                plan: None,
            };
            if let I::PardoStart {
                indices, end_pc, ..
            } = ins
            {
                let pardo = self.pardo_facts(pc as u32, *end_pc, indices, pardos)?;
                (facts.pardo, pardos) = (Some(Box::new(pardo)), pardos + 1);
            } else if let I::BlockContract { dest, a, b, .. } = ins {
                let plan = ContractionPlan::infer(&labels(dest), &labels(a), &labels(b));
                facts.plan = Some(plan);
            }
            code.push(facts);
        }
        Ok((code, pardos))
    }

    fn ref_facts(&self, r: &BlockRef) -> Result<RefFacts, RuntimeError> {
        let bad = |what| RuntimeError::BadBytecode(format!("block ref {what}"));
        let at = r.array.index();
        let (Some(decl), Some(&declared)) = (self.program.arrays.get(at), self.declared.get(at))
        else {
            return Err(bad(format!("to undeclared array #{}", r.array.0)));
        };
        let extents: Option<Vec<usize>> = (r.indices.iter())
            .map(|i| self.index_extents.get(i.index()).copied())
            .collect();
        let shape = (extents.as_deref().and_then(Shape::try_new))
            .ok_or_else(|| bad(format!("`{}{:?}` addresses no block", decl.name, r.indices)))?;
        let rank = shape.rank();
        let (mut indices, mut sub, mut window) =
            ([IndexId(0); MAX_RANK], [false; MAX_RANK], [0; MAX_RANK]);
        indices[..rank].copy_from_slice(&r.indices);
        // Only a ref that agrees with its array's rank is sub-addressed; a
        // ref that does not is refused by key when it is accessed.
        let decls = &self.program.indices;
        let is_sub = |i: IndexId| matches!(decls[i.index()].kind, IndexKind::Subindex { .. });
        if rank == decl.dims.len() {
            for d in 0..rank {
                sub[d] = is_sub(indices[d]) && !is_sub(decl.dims[d]);
                window[d] = if sub[d] { shape } else { declared.shape }.dim(d);
            }
        }
        Ok(RefFacts {
            array: r.array,
            kind: decl.kind,
            declared,
            indices,
            shape,
            sub,
            window,
        })
    }

    /// The facts of the pardo over `indices` whose body is `pc + 1 ..
    /// end_pc`, the program's `slot`-th.
    fn pardo_facts(
        &self,
        pc: u32,
        end_pc: u32,
        indices: &[IndexId],
        slot: usize,
    ) -> Result<PardoFacts, RuntimeError> {
        let code = &self.program.code;
        let all_local = self.topology.workers == 1;
        let mut gets = Vec::new();
        // Everything before `guarded` sits behind a forward jump taken so far.
        let (mut at, mut guarded) = (pc + 1, 0);
        while at < end_pc {
            at = match code.get(at as usize) {
                None => break,
                Some(I::DoStart { end_pc, .. } | I::DoInStart { end_pc, .. }) if *end_pc >= at => {
                    *end_pc + 1
                }
                Some(I::JumpIfFalse { target, .. } | I::Jump { target }) => {
                    guarded = guarded.max(*target);
                    at + 1
                }
                Some(I::Get { block } | I::Request { block }) if at >= guarded => {
                    let facts = self.ref_facts(block)?;
                    if !(all_local && facts.kind == ArrayKind::Distributed) {
                        gets.push(facts);
                    }
                    at + 1
                }
                Some(_) => at + 1,
            };
        }
        let ranges = (indices.iter())
            .map(|&i| self.index_ranges.get(i.index()).copied())
            .collect::<Option<_>>()
            .ok_or_else(|| {
                RuntimeError::BadBytecode(format!("pardo at pc {pc} binds an undeclared index"))
            })?;
        let body = code
            .get(pc as usize + 1..end_pc as usize)
            .unwrap_or_default();
        let owner = self.owner_compute(indices, body);
        let reads_anchor = (gets.iter())
            .map(|g| (owner.as_ref()).is_some_and(|o| o.is_read_by(g.array, g.indices(), indices)))
            .collect();
        Ok(PardoFacts {
            slot,
            indices: indices.into(),
            ranges,
            get_bytes: gets.iter().map(|g| g.declared.bytes).sum(),
            gets: gets.into(),
            reads_anchor,
            owner,
        })
    }

    /// The owner-compute anchor of the pardo over `pardo` whose body is
    /// `body` (DESIGN.md §17). In a body that puts a distributed array it
    /// is that put, when every such put is one Replace of one fully
    /// pardo-bound key: only then does each iteration write one block of
    /// its own (an accumulate or a second key leaves no anchor). A body
    /// that puts no distributed array anchors on its first `get` whose
    /// indices are a full pardo-bound key, so a read-only sweep runs where
    /// its blocks live.
    fn owner_compute(&self, pardo: &[IndexId], body: &[I]) -> Option<OwnerCompute> {
        // An undeclared array is none; the ref is refused when its own
        // instruction resolves.
        let distributed = |r: &BlockRef| {
            (self.program.arrays.get(r.array.index())).filter(|d| d.kind == ArrayKind::Distributed)
        };
        // The anchor a distributed ref makes when its indices are a full
        // pardo-bound key of its array.
        let keyed = |r: &BlockRef, anchor| {
            let full = r.indices.len() == distributed(r)?.dims.len();
            let dim_pos = (r.indices.iter())
                .map(|i| pardo.iter().position(|p| p == i))
                .collect::<Option<_>>()
                .filter(|_| full)?;
            Some(OwnerCompute {
                array: r.array,
                dim_pos,
                anchor,
            })
        };
        let mut owner = None;
        for ins in body {
            let I::Put { dest, mode, .. } = ins else {
                continue;
            };
            if distributed(dest).is_none() {
                continue;
            }
            let candidate = keyed(dest, Anchor::Put).filter(|_| *mode == PutMode::Replace)?;
            match &owner {
                None => owner = Some(candidate),
                Some(o) if *o != candidate => return None,
                Some(_) => {}
            }
        }
        owner.or_else(|| {
            body.iter().find_map(|ins| match ins {
                I::Get { block } => keyed(block, Anchor::Get),
                _ => None,
            })
        })
    }
}

/// `⌊ordinal · workers / total⌋`, the slab of a block: in `u64` unless the
/// product overflows it.
fn slab_of(ordinal: u64, workers: u64, total: u64) -> usize {
    match ordinal.checked_mul(workers) {
        Some(p) => (p / total) as usize,
        None => (u128::from(ordinal) * u128::from(workers) / u128::from(total)) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use sia_bytecode::{ArrayDecl, IndexDecl, Value};

    /// The `u64` slab division is the `u128` formula, on both sides of the
    /// edge where `ordinal · workers` overflows a `u64`.
    #[test]
    fn slab_division_matches_the_wide_formula() {
        let wide =
            |o: u64, w: u64, t: u64| (u128::from(o) * u128::from(w) / u128::from(t)) as usize;
        for workers in [1u64, 2, 3, 7, 64, 1000, u64::from(u32::MAX)] {
            let edge = u64::MAX / workers;
            for total in [edge.saturating_add(2), u64::MAX / 2, u64::MAX] {
                let lo = edge.saturating_sub(3).min(total - 1);
                for ordinal in (lo..=edge.saturating_add(3).min(total - 1)).chain([0, 1, total - 1])
                {
                    assert_eq!(
                        slab_of(ordinal, workers, total),
                        wide(ordinal, workers, total),
                        "ordinal {ordinal}, workers {workers}, total {total}"
                    );
                }
            }
            for total in [1u64, 5, 17, 4096] {
                for ordinal in 0..total {
                    assert_eq!(
                        slab_of(ordinal, workers, total),
                        wide(ordinal, workers, total)
                    );
                }
            }
        }
    }

    fn layout_with(segments: SegmentConfig) -> Layout {
        layout_on(segments, Topology::new(3, 1))
    }

    fn layout_on(segments: SegmentConfig, topology: Topology) -> Layout {
        // Indices: i (ao, 1..4), j (mo, 1..2), ii (sub of i).
        let program = Program {
            name: "t".into(),
            indices: vec![
                IndexDecl {
                    name: "i".into(),
                    kind: IndexKind::AoIndex,
                    low: Value::Lit(1),
                    high: Value::Lit(4),
                },
                IndexDecl {
                    name: "j".into(),
                    kind: IndexKind::MoIndex,
                    low: Value::Lit(1),
                    high: Value::Lit(2),
                },
                IndexDecl {
                    name: "ii".into(),
                    kind: IndexKind::Subindex { parent: IndexId(0) },
                    low: Value::Lit(0),
                    high: Value::Lit(0),
                },
            ],
            arrays: vec![
                ArrayDecl {
                    name: "X".into(),
                    kind: ArrayKind::Distributed,
                    dims: vec![IndexId(0), IndexId(1)],
                    sparse: false,
                },
                ArrayDecl {
                    name: "Xii".into(),
                    kind: ArrayKind::Temp,
                    dims: vec![IndexId(2), IndexId(1)],
                    sparse: false,
                },
            ],
            ..Default::default()
        };
        Layout::new(Arc::new(program), &ConstBindings::new(), segments, topology).unwrap()
    }

    fn segs(ao: usize, mo: usize, nsub: usize) -> SegmentConfig {
        SegmentConfig {
            default: 4,
            ao: Some(ao),
            mo: Some(mo),
            nsub,
            ..SegmentConfig::default()
        }
    }

    #[test]
    fn ranges_and_extents() {
        let l = layout_with(segs(16, 8, 4));
        assert_eq!(l.range(IndexId(0)), (1, 4));
        assert_eq!(l.range(IndexId(1)), (1, 2));
        assert_eq!(l.extent(IndexId(0)), 16);
        assert_eq!(l.extent(IndexId(1)), 8);
        // Subindex: range expands by nsub, extent shrinks by nsub.
        assert_eq!(l.range(IndexId(2)), (1, 16));
        assert_eq!(l.extent(IndexId(2)), 4);
    }

    #[test]
    fn shapes() {
        let l = layout_with(segs(16, 8, 4));
        assert_eq!(l.declared_block_shape(ArrayId(0)).dims(), &[16, 8]);
        assert_eq!(l.declared_block_shape(ArrayId(1)).dims(), &[4, 8]);
        assert_eq!(l.total_blocks(ArrayId(0)), 8);
        assert_eq!(l.total_blocks(ArrayId(1)), 32);
        assert_eq!(l.block_bytes(ArrayId(0)), 16 * 8 * 8);
    }

    #[test]
    fn block_ordinal_is_a_row_major_bijection() {
        let l = layout_with(segs(16, 8, 4));
        for array in [ArrayId(0), ArrayId(1)] {
            let dims = &l.array(array).dims;
            let (rows, cols) = (l.range(dims[0]), l.range(dims[1]));
            let ordinals: Vec<u64> = (rows.0..=rows.1)
                .flat_map(|i| (cols.0..=cols.1).map(move |j| (i, j)))
                .map(|(i, j)| l.block_ordinal(&BlockKey::new(array, &[i, j])).unwrap())
                .collect();
            let want: Vec<u64> = (0..l.total_blocks(array)).collect();
            assert_eq!(ordinals, want, "last dimension fastest, no gaps");
            for ordinal in want {
                let key = l.block_key(array, ordinal);
                assert_eq!(l.block_ordinal(&key), Some(ordinal), "{key:?}");
            }
        }
        for outside in [
            BlockKey::new(ArrayId(0), &[0, 1]),
            BlockKey::new(ArrayId(0), &[5, 1]),
            BlockKey::new(ArrayId(0), &[1, 3]),
            BlockKey::new(ArrayId(0), &[1]),
            BlockKey::new(ArrayId(0), &[1, 1, 1]),
            BlockKey::new(ArrayId(7), &[1, 1]),
        ] {
            assert_eq!(l.block_ordinal(&outside), None, "{outside:?}");
        }
    }

    #[test]
    fn sub_parent_mapping() {
        let l = layout_with(segs(16, 8, 4));
        // Subsegments 1..=4 live in parent 1, 5..=8 in parent 2, ...
        assert_eq!(l.sub_parent_seg(1), (1, 0));
        assert_eq!(l.sub_parent_seg(4), (1, 3));
        assert_eq!(l.sub_parent_seg(5), (2, 0));
        assert_eq!(l.sub_range(2), (5, 8));
    }

    /// The facts of a ref `array(indices)`, as the table resolves them.
    fn ref_to(l: &Layout, array: u32, indices: &[u32]) -> RefFacts {
        let r = BlockRef {
            array: ArrayId(array),
            indices: indices.iter().map(|&i| IndexId(i)).collect(),
        };
        l.ref_facts(&r).unwrap()
    }

    #[test]
    fn storage_target_plain() {
        let l = layout_with(segs(16, 8, 4));
        let vals = [3, 2, 0];
        let r = ref_to(&l, 0, &[0, 1]);
        let (key, slice) = l.storage_target(&r, |i| vals[i.index()]).unwrap();
        assert_eq!(key, BlockKey::new(ArrayId(0), &[3, 2]));
        assert!(slice.is_none());
        assert_eq!(r.shape.dims(), &[16, 8]);
        // An undefined index is named, not read as segment 0.
        let r = ref_to(&l, 0, &[2, 1]);
        assert_eq!(l.storage_target(&r, |i| vals[i.index()]), Err(IndexId(2)));
    }

    #[test]
    fn storage_target_sub_addressed() {
        let l = layout_with(segs(16, 8, 4));
        // X(ii, j) with ii=6: parent seg 2, offset 1 within → elements 4..8.
        let vals = [0, 2, 6];
        let r = ref_to(&l, 0, &[2, 1]);
        let (key, slice) = l.storage_target(&r, |i| vals[i.index()]).unwrap();
        assert_eq!(key, BlockKey::new(ArrayId(0), &[2, 2]));
        let spec = slice.unwrap();
        assert_eq!(spec.offsets(), &[4, 0]);
        assert_eq!(spec.extents(), &[4, 8]);
        assert_eq!(r.shape.dims(), &[4, 8]);
        assert_eq!(r.declared_shape().dims(), &[16, 8]);
        // Xii is declared over ii: the same ref addresses its whole blocks.
        let r = ref_to(&l, 1, &[2, 1]);
        let (key, slice) = l.storage_target(&r, |i| vals[i.index()]).unwrap();
        assert_eq!(key, BlockKey::new(ArrayId(1), &[6, 2]));
        assert!(slice.is_none());
    }

    /// A ref the program cannot mean — to an undeclared array or index, or
    /// with more indices than a block has dimensions — fails the layout as
    /// bad bytecode instead of panicking where it executes.
    #[test]
    fn malformed_refs_are_bad_bytecode() {
        let l = layout_with(segs(16, 8, 4));
        for (array, indices) in [(7, vec![0, 1]), (0, vec![0, 9]), (0, vec![0; MAX_RANK + 1])] {
            let r = BlockRef {
                array: ArrayId(array),
                indices: indices.into_iter().map(IndexId).collect(),
            };
            let err = l.ref_facts(&r).unwrap_err();
            assert!(matches!(err, RuntimeError::BadBytecode(_)), "{err}");
        }
    }

    /// The chunk look-ahead asks only for what every iteration will ask
    /// for: a `get` behind an `if` or an `else`, or inside a `do`, is left
    /// to the instruction itself (and, in a loop, to the `do`-loop
    /// look-ahead). Pardos are numbered densely in pc order.
    #[test]
    fn pardo_gets_are_the_unconditional_top_level_refs() {
        const SRC: &str = "sial scan
aoindex i = 1, 4
aoindex j = 1, 4
distributed First(i,j)
distributed InIf(i,j)
distributed InElse(i,j)
distributed InDo(i,j)
distributed AfterIf(i,j)
served Last(i,j)
pardo i
  do j
    get InDo(i,j)
  enddo j
endpardo i
pardo i, j
  get First(i,j)
  if i < j
    get InIf(i,j)
  else
    get InElse(i,j)
  endif
  get AfterIf(j,i)
  request Last(i,j)
endpardo i, j
endsial
";
        let program = Arc::new(sial_frontend::compile(SRC).unwrap());
        let layout = Layout::new(
            Arc::clone(&program),
            &ConstBindings::new(),
            SegmentConfig::default(),
            Topology::new(2, 1),
        )
        .unwrap();
        let pardos: Vec<&PardoFacts> = (0..program.code.len() as u32)
            .filter_map(|pc| layout.pardo(pc))
            .collect();
        let found: Vec<Vec<&str>> = (pardos.iter())
            .map(|p| {
                p.gets
                    .iter()
                    .map(|g| layout.array(g.array).name.as_str())
                    .collect()
            })
            .collect();
        assert_eq!(
            found,
            [vec![], vec!["First", "AfterIf", "Last"]],
            "one list per pardo, in program order"
        );
        let slots: Vec<usize> = pardos.iter().map(|p| p.slot).collect();
        assert_eq!((slots, layout.pardos), (vec![0, 1], 2));
        assert_eq!(pardos[1].get_bytes, 3 * layout.block_bytes(ArrayId(0)));
        assert_eq!(&*pardos[1].ranges, &[(1, 4), (1, 4)]);
    }

    /// A contraction no plan fits is refused when it executes, not when
    /// the layout resolves: in code that never runs it fails nothing.
    #[test]
    fn a_bad_contraction_fails_where_it_executes() {
        const SRC: &str = "sial dead
aoindex i = 1, 2
aoindex j = 1, 2
aoindex k = 1, 2
temp a(i,k)
temp b(k,j)
temp c(i,j)
scalar s
pardo i, j
  if s > 1.0
    do k
      c(i,j) = a(i,k) * b(k,j)
    enddo k
  endif
endpardo i, j
endsial
";
        let mut program = sial_frontend::compile(SRC).unwrap();
        let pc = (program.code.iter())
            .position(|ins| matches!(ins, I::BlockContract { .. }))
            .unwrap();
        // Make the output name an index neither operand has: `c(i,i)`.
        if let I::BlockContract { dest, .. } = &mut program.code[pc] {
            dest.indices[1] = IndexId(0);
        }
        let layout = Layout::new(
            Arc::new(program.clone()),
            &ConstBindings::new(),
            SegmentConfig::default(),
            Topology::new(1, 0),
        )
        .unwrap();
        let err = layout.instruction(pc as u32).unwrap().1.plan().unwrap_err();
        assert!(
            matches!(&err, RuntimeError::BadProgram(m) if m.starts_with("contraction: ")),
            "{err}"
        );
        let config = SipConfig::builder()
            .workers(1)
            .io_servers(0)
            .build()
            .unwrap();
        crate::Sip::new(config)
            .run(program, &ConstBindings::new())
            .expect("the contraction never runs");
    }

    #[test]
    fn indivisible_nsub_rejected() {
        let program = Program {
            indices: vec![
                IndexDecl {
                    name: "i".into(),
                    kind: IndexKind::AoIndex,
                    low: Value::Lit(1),
                    high: Value::Lit(2),
                },
                IndexDecl {
                    name: "ii".into(),
                    kind: IndexKind::Subindex { parent: IndexId(0) },
                    low: Value::Lit(0),
                    high: Value::Lit(0),
                },
            ],
            ..Default::default()
        };
        let err = Layout::new(
            Arc::new(program),
            &ConstBindings::new(),
            SegmentConfig {
                default: 10,
                nsub: 3,
                ..SegmentConfig::default()
            },
            Topology::new(1, 0),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Resolve(_)));
    }

    /// Declarations `sial check` does not look at unless a ref uses them —
    /// a subindex of an undeclared parent, a subindex range past 64 bits,
    /// a range bound naming an undeclared constant — are resolve errors,
    /// not panics.
    #[test]
    fn unresolvable_index_declarations_are_resolve_errors() {
        let index = |kind, high| IndexDecl {
            name: "i".into(),
            kind,
            low: Value::Lit(1),
            high,
        };
        let sub = |parent| IndexKind::Subindex {
            parent: IndexId(parent),
        };
        for indices in [
            vec![
                index(IndexKind::AoIndex, Value::Lit(2)),
                index(sub(9), Value::Lit(0)),
            ],
            vec![
                index(IndexKind::AoIndex, Value::Lit(i64::MAX / 2 + 1)),
                index(sub(0), Value::Lit(0)),
            ],
            vec![index(
                IndexKind::AoIndex,
                Value::Sym(sia_bytecode::ConstId(3)),
            )],
        ] {
            let program = Program {
                indices,
                ..Default::default()
            };
            assert!(verify::check_program(&program).is_empty());
            let err = Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                SegmentConfig::default(),
                Topology::new(1, 0),
            )
            .unwrap_err();
            assert!(matches!(err, RuntimeError::Resolve(_)), "{err}");
        }
    }

    /// An array whose blocks no `Shape` can hold — more dimensions than
    /// `MAX_RANK`, or an index the program never declared — is refused when
    /// the layout resolves, as a typed error.
    #[test]
    fn unrepresentable_block_shapes_are_resolve_errors() {
        let index = IndexDecl {
            name: "i".into(),
            kind: IndexKind::AoIndex,
            low: Value::Lit(1),
            high: Value::Lit(2),
        };
        for dims in [vec![IndexId(0); MAX_RANK + 1], vec![IndexId(0), IndexId(7)]] {
            let program = Program {
                indices: vec![index.clone()],
                arrays: vec![ArrayDecl {
                    name: "X".into(),
                    kind: ArrayKind::Distributed,
                    dims,
                    sparse: false,
                }],
                ..Default::default()
            };
            let err = Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                SegmentConfig::default(),
                Topology::new(1, 0),
            )
            .unwrap_err();
            assert!(
                matches!(&err, RuntimeError::Resolve(m) if m.contains("`X`")),
                "{err}"
            );
        }
    }

    #[test]
    fn topology_ranks() {
        let t = Topology::new(3, 2);
        assert_eq!(t.world_size(), 6);
        assert_eq!(t.master(), Rank(0));
        assert_eq!(t.worker(0), Rank(1));
        assert_eq!(t.worker(2), Rank(3));
        assert_eq!(t.io_server(0), Rank(4));
        assert_eq!(t.io_server(1), Rank(5));
        assert!(t.is_worker(Rank(1)));
        assert!(!t.is_worker(Rank(0)));
        assert!(!t.is_worker(Rank(4)));
        assert_eq!(t.worker_index(Rank(3)), 2);
    }

    #[test]
    fn homes_are_stable_and_in_range() {
        let l = layout_on(segs(16, 8, 4), Topology::new(3, 2));
        let alive = [false; 3];
        // Keys inside X's 4×2 grid, outside it, and of the wrong rank.
        for i in 0..20 {
            for segs in [&[i, i + 1][..], &[i]] {
                let k = BlockKey::new(ArrayId(0), segs);
                let h = l.home_of_distributed_excluding(&k, &alive);
                assert!(l.topology.is_worker(h), "{k:?}");
                assert_eq!(h, l.home_of_distributed_excluding(&k, &alive));
                let s = l.home_of_served(&k);
                assert!(s.0 >= 4 && s.0 <= 5);
            }
        }
    }

    /// X's 8 blocks over 3 workers: slabs of consecutive ordinals, sized
    /// 3, 3 and 2.
    #[test]
    fn distributed_homes_are_balanced_slabs_of_ordinals() {
        let l = layout_on(segs(16, 8, 4), Topology::new(3, 2));
        let slots: Vec<usize> = (0..l.total_blocks(ArrayId(0)))
            .map(|o| l.slot_of_distributed(&l.block_key(ArrayId(0), o)))
            .collect();
        assert_eq!(slots, [0, 0, 0, 1, 1, 1, 2, 2]);
    }

    /// `src` compiled with `n` (and `nocc` = 2) bound, in segments of 4 on
    /// three workers.
    fn layout_of(src: &str, n: i64) -> Layout {
        let program = sial_frontend::compile(src).unwrap();
        let bindings = ConstBindings::from([("n".into(), n), ("nocc".into(), 2)]);
        let segments = SegmentConfig {
            default: 4,
            ..Default::default()
        };
        Layout::new(Arc::new(program), &bindings, segments, Topology::new(3, 1)).unwrap()
    }

    /// The owner-compute anchor of the program's first pardo.
    fn owner_of(layout: &Layout) -> Option<&OwnerCompute> {
        let pardo = (0..layout.program.code.len() as u32).find_map(|pc| layout.pardo(pc));
        pardo?.owner.as_ref()
    }

    #[test]
    fn owner_compute_detected_and_keys_map() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed F(M)\ndistributed R(M,N)\ntemp f(M)\ntemp q(M,N)\npardo M, N\nget F(M)\nf(M) = F(M)\nq(M,N) = 0.0\nput R(M,N) = q(M,N)\nendpardo\nendsial\n";
        let layout = layout_of(src, 4);
        let owner = owner_of(&layout).expect("owner-compute");
        // pardo M, N; put R(M,N): dim 0 ← pardo pos 0, dim 1 ← pos 1.
        assert_eq!(owner.dim_pos, vec![0, 1]);
        let key = owner.key_of(&[2, 3]);
        assert_eq!(&key.segs[..2], &[2, 3]);
    }

    /// A read-only region anchors on its aligned get, whose reads are then
    /// local: the program predicts the same fabric bytes as one that does
    /// not read `R` at all.
    #[test]
    fn read_only_region_anchors_on_its_aligned_get() {
        let predicted = |src: &str| {
            crate::trace::predicted_fabric_bytes(&layout_of(src, 6), &BTreeMap::new()).unwrap()
        };
        let reads = "sial t\naoindex M = 1, n\naoindex N = 1, n\naoindex L = 1, n\ndistributed R(M,N)\ndistributed X(M,L)\ntemp q(M,N)\ntemp x(M,L)\npardo M, N\nget R(M,N)\nq(M,N) = R(M,N)\ndo L\nget X(M,L)\nx(M,L) = X(M,L)\nenddo L\nendpardo\nendsial\n";
        let layout = layout_of(reads, 6);
        let owner = owner_of(&layout).expect("a get anchor");
        assert_eq!(
            (owner.anchor, &owner.dim_pos[..]),
            (Anchor::Get, &[0, 1][..])
        );
        let with = predicted(reads);
        assert!(with > 0, "the do-loop get still ships");
        let without = reads.replace("get R(M,N)\nq(M,N) = R(M,N)\n", "");
        assert_eq!(with, predicted(&without));
        // Alone, the aligned get predicts no traffic at all.
        let alone = reads.replace("get X(M,L)\nx(M,L) = X(M,L)\n", "");
        assert_eq!(predicted(&alone), 0);
    }

    #[test]
    fn transposed_get_anchor_permutes_dim_pos() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M,N)\ntemp q(N,M)\npardo M, N\nget R(N,M)\nq(N,M) = R(N,M)\nendpardo\nendsial\n";
        let layout = layout_of(src, 4);
        let owner = owner_of(&layout).expect("a get anchor");
        assert_eq!(
            (owner.anchor, &owner.dim_pos[..]),
            (Anchor::Get, &[1, 0][..])
        );
        assert_eq!(&owner.key_of(&[2, 3]).segs[..2], &[3, 2]);
    }

    /// A region that puts keeps its put anchor, whatever it reads first.
    #[test]
    fn put_region_keeps_its_put_anchor() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed A(M,N)\ndistributed R(M,N)\ntemp q(N,M)\npardo M, N\nget A(M,N)\nq(N,M) = A(M,N)\nput R(N,M) = q(N,M)\nendpardo\nendsial\n";
        let layout = layout_of(src, 4);
        let owner = owner_of(&layout).expect("a put anchor");
        let r = layout.program.array_by_name("R").unwrap();
        assert_eq!(
            (owner.array, owner.anchor, &owner.dim_pos[..]),
            (r, Anchor::Put, &[1, 0][..])
        );
        // An accumulating put still leaves the region without an owner,
        // even though it reads a full key.
        let acc = layout_of(&src.replace("put R(N,M) =", "put R(N,M) +="), 4);
        assert!(owner_of(&acc).is_none());
    }

    #[test]
    fn accumulate_put_disables_owner_compute() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M)\ntemp q(M)\npardo M, N\nq(M) = 1.0\nput R(M) += q(M)\nendpardo\nendsial\n";
        let layout = layout_of(src, 4);
        assert!(owner_of(&layout).is_none());
    }
}
