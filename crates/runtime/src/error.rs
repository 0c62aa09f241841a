//! Runtime errors raised by the SIP.

use crate::msg::BlockKey;
use sia_fabric::{Rank, SendError, SendErrorKind};
use std::fmt;

/// What kind of communication failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommKind {
    /// An operation exhausted its retry budget without an acknowledgement.
    Timeout,
    /// The peer was declared (or observed) dead.
    RankDead,
    /// The run was poisoned: another rank failed and raised shutdown, so
    /// this rank is aborting rather than wait on messages that will never
    /// arrive.
    Poisoned,
}

impl fmt::Display for CommKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommKind::Timeout => write!(f, "timeout"),
            CommKind::RankDead => write!(f, "rank dead"),
            CommKind::Poisoned => write!(f, "run poisoned"),
        }
    }
}

/// An error during SIP execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A symbolic constant had no binding or an index range was invalid.
    Resolve(String),
    /// A block of a distributed/served array was used without a prior
    /// `get`/`request` (and was not in the cache).
    BlockNotAvailable {
        /// The missing block.
        key: BlockKey,
        /// What the interpreter was doing.
        context: String,
    },
    /// A block access addressed a key outside its array's declared segment
    /// ranges (an unguarded loop running past them): no block of the array
    /// is there, and none is served or allocated.
    BlockOutOfRange {
        /// The key addressed.
        key: BlockKey,
        /// Array name.
        array: String,
    },
    /// A temp block was read before being written in this iteration.
    TempUndefined {
        /// Array name.
        array: String,
    },
    /// A worker block pool ran out of memory.
    PoolExhausted {
        /// Human-readable detail.
        detail: String,
    },
    /// The dry run predicted the computation does not fit.
    Infeasible {
        /// Bytes needed per worker.
        needed_per_worker: u64,
        /// The configured budget.
        budget: u64,
        /// Workers that would make it fit (the paper: "reported to the user
        /// along with the number of processors that would be sufficient").
        sufficient_workers: usize,
    },
    /// The enforced runtime memory budget was exceeded and eviction
    /// pressure could not bring resident bytes back under it (everything
    /// left is pinned or in use).
    OverBudget {
        /// Unevictable resident bytes at the point of failure.
        resident_bytes: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Malformed bytecode reached the interpreter (compiler bug or corrupted
    /// program file).
    BadProgram(String),
    /// Bytecode failed a structural invariant the static verifier also
    /// checks (e.g. a where clause referencing an index the pardo does not
    /// bind). Distinct from [`RuntimeError::BadProgram`] so callers can tell
    /// "run `sial check`" defects from interpreter-state corruption.
    BadBytecode(String),
    /// A super instruction name was not found in the registry.
    UnknownSuperInstruction(String),
    /// A super instruction failed.
    SuperInstruction {
        /// Instruction name.
        name: String,
        /// Failure detail.
        detail: String,
    },
    /// A communication failure: a timed-out operation, a dead peer, or a
    /// run poisoned by another rank's failure.
    Comm {
        /// What happened.
        kind: CommKind,
        /// The peer involved (the waiting rank itself for `Poisoned`).
        rank: Rank,
        /// The block being moved, when the failure is tied to one.
        key: Option<BlockKey>,
        /// What the rank was doing.
        context: String,
    },
    /// Checkpoint I/O failed.
    Checkpoint(String),
    /// Served-array disk I/O failed.
    ServedIo(String),
    /// Barrier misuse detected (conflicting accesses without separation).
    BarrierMisuse(String),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Resolve(m) => write!(f, "initialization error: {m}"),
            RuntimeError::BlockNotAvailable { key, context } => write!(
                f,
                "block {key:?} not available ({context}); missing get/request?"
            ),
            RuntimeError::BlockOutOfRange { key, array } => write!(
                f,
                "block {key:?} of `{array}` lies outside the array's declared segments"
            ),
            RuntimeError::TempUndefined { array } => {
                write!(f, "temp block of `{array}` read before being written")
            }
            RuntimeError::PoolExhausted { detail } => {
                write!(f, "worker memory exhausted: {detail}")
            }
            RuntimeError::Infeasible {
                needed_per_worker,
                budget,
                sufficient_workers,
            } => {
                write!(
                    f,
                    "dry run: computation needs {needed_per_worker} bytes/worker \
                     (budget {budget}); "
                )?;
                if *sufficient_workers == usize::MAX {
                    write!(
                        f,
                        "no worker count would suffice (replicated arrays and the \
                         cache alone exceed the budget)"
                    )
                } else {
                    write!(f, "{sufficient_workers} workers would suffice")
                }
            }
            RuntimeError::OverBudget {
                resident_bytes,
                budget,
            } => write!(
                f,
                "memory budget exceeded: {resident_bytes} resident bytes against a \
                 {budget}-byte budget after eviction pressure"
            ),
            RuntimeError::BadProgram(m) => write!(f, "bad program: {m}"),
            RuntimeError::BadBytecode(m) => {
                write!(f, "malformed bytecode (run `sial check`): {m}")
            }
            RuntimeError::UnknownSuperInstruction(n) => {
                write!(f, "unknown super instruction `{n}`")
            }
            RuntimeError::SuperInstruction { name, detail } => {
                write!(f, "super instruction `{name}` failed: {detail}")
            }
            RuntimeError::Comm {
                kind,
                rank,
                key,
                context,
            } => {
                write!(f, "comm failure ({kind}) with rank {rank}")?;
                if let Some(k) = key {
                    write!(f, " moving {k:?}")?;
                }
                write!(f, ": {context}")
            }
            RuntimeError::Checkpoint(m) => write!(f, "checkpoint failure: {m}"),
            RuntimeError::ServedIo(m) => write!(f, "served-array I/O failure: {m}"),
            RuntimeError::BarrierMisuse(m) => write!(f, "barrier misuse: {m}"),
            RuntimeError::Internal(m) => write!(f, "internal SIP error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<sia_bytecode::ResolveError> for RuntimeError {
    fn from(e: sia_bytecode::ResolveError) -> Self {
        RuntimeError::Resolve(e.to_string())
    }
}

impl From<sia_blocks::pool::PoolExhausted> for RuntimeError {
    fn from(e: sia_blocks::pool::PoolExhausted) -> Self {
        RuntimeError::PoolExhausted {
            detail: e.to_string(),
        }
    }
}

impl From<SendError> for RuntimeError {
    fn from(e: SendError) -> Self {
        RuntimeError::Comm {
            kind: match e.kind {
                SendErrorKind::PeerGone | SendErrorKind::Crashed => CommKind::RankDead,
                SendErrorKind::Shutdown => CommKind::Poisoned,
            },
            rank: e.to,
            key: None,
            context: e.to_string(),
        }
    }
}
