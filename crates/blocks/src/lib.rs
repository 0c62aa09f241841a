//! # sia-blocks — super numbers and block super instructions
//!
//! The Super Instruction Architecture (SIA) expresses tensor algebra in terms
//! of *blocks* (the paper calls them *super numbers*): dense tiles of a large
//! multidimensional array, produced by segmenting every dimension. This crate
//! is the data substrate of the SIA: it defines the block type and the
//! computational super instructions that operate on blocks — contraction,
//! permutation, slicing/insertion (for SIAL subindices), and elementwise
//! arithmetic — plus the size-classed block pool the SIP uses to manage
//! worker memory.
//!
//! Everything here is strictly *local* computation: per the paper, a super
//! instruction "takes one or two blocks as input and generates a new block as
//! output and does not involve communication". Communication lives in
//! `sia-fabric`; orchestration lives in `sia-runtime`.
//!
//! ```
//! use sia_blocks::{Block, Shape, contract, ContractionPlan};
//!
//! // C(m,i) = sum_l A(m,l) * B(l,i): a plain matrix product expressed as a
//! // tensor contraction between two rank-2 blocks.
//! let a = Block::filled(Shape::new(&[4, 3]), 1.0);
//! let b = Block::filled(Shape::new(&[3, 5]), 2.0);
//! let plan = ContractionPlan::infer(&[0, 2], &[0, 1], &[1, 2]).unwrap();
//! let c = contract(&plan, &a, &b);
//! assert_eq!(c.shape().dims(), &[4, 5]);
//! assert!((c.get(&[0, 0]) - 6.0).abs() < 1e-12);
//! ```

pub mod block;
pub mod contract;
pub mod gemm;
pub mod handle;
pub mod permute;
pub mod pool;
pub mod shape;
pub mod slice;
pub mod view;

pub use block::Block;
pub use contract::{
    contract, contract_into_ctx, naive_contract, ContractCtx, ContractError, ContractStats,
    ContractionPlan,
};
pub use gemm::{active_microkernel, dgemm, GemmLayout};
pub use handle::BlockHandle;
pub use permute::{
    apply_permutation, invert_permutation, is_identity_permutation, permute, permute_into,
};
pub use pool::{BlockPool, PoolConfig, PoolStats};
pub use shape::{Shape, MAX_RANK};
pub use slice::{extract_slice, insert_slice, SliceError, SliceSpec};
pub use view::{AxisCursor, AxisGroup, MatLayout, MatView};
