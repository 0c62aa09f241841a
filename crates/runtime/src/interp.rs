//! The bytecode interpreter: one worker executing SIA instructions.
//!
//! Every worker executes the *whole* program SPMD-style; the `pardo`
//! machinery is the only place iterations are divided (by the master's
//! guided scheduler). All potentially blocking points — block arrival, chunk
//! assignment, barriers, collectives — go through
//! `Worker::wait_until`, which keeps servicing incoming messages (so a
//! worker waiting on a barrier still serves its home blocks to others) and
//! accounts the time as *wait* for the profiler.

use crate::access::Fetch;
use crate::cache::BlockGet;
use crate::error::RuntimeError;
use crate::events::EventKind;
use crate::layout::{PcFacts, RefFacts};
use crate::metrics::WaitCause;
use crate::msg::{BarrierKind, BlockKey, Payload, SipMsg};
use crate::registry::{SuperArg, SuperEnv};
use crate::scheduler::{decode_ordinal, eval_bool, eval_scalar};
use crate::worker::{LoopFrame, PardoState, Worker};
use sia_blocks::{contract_into_ctx, permute_into, Block, BlockHandle, MAX_RANK};
use sia_bytecode::{Arg, ArrayKind, BoolExpr, IndexId, Instruction as I, ScalarExpr};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the intrinsic collective scalar sum (`execute sip_allreduce s`).
pub const SIP_ALLREDUCE: &str = "sip_allreduce";
/// Name of the intrinsic wall-clock super instruction (`execute sip_time s`).
pub const SIP_TIME: &str = "sip_time";
/// Name of the intrinsic restart-resume query (`execute sip_resume_epoch s`):
/// sets the scalar to the number of completed served-array epochs found in
/// the run directory's manifest, so restarted programs can skip them.
pub const SIP_RESUME_EPOCH: &str = "sip_resume_epoch";

impl Worker {
    /// Runs the program to `halt`. On success the worker still owes the
    /// master a `WorkerDone` (sent by the runtime harness, which also keeps
    /// the worker servicing peers until shutdown).
    pub fn execute_program(&mut self) -> Result<(), RuntimeError> {
        let layout = Arc::clone(&self.layout);
        let t0 = Instant::now();
        // One clock reading per instruction boundary: the reading that ends
        // an instruction starts the next one.
        let mut now = t0;
        let mut pc: u32 = 0;
        loop {
            if self.service_messages() {
                // Time spent serving peers is nobody's busy time.
                now = Instant::now();
            }
            self.pump_retries()?;
            self.mem.enforce_budget()?;
            let (ins, facts) = layout.instruction(pc)?;
            let t_ins = now;
            let mut wait = Duration::ZERO;
            let class = ins.class();
            let next = self.step(pc, ins, facts, &mut wait)?;
            now = Instant::now();
            let busy = (now - t_ins).saturating_sub(wait);
            self.profile.record(pc, busy, wait);
            self.trace
                .span_between(EventKind::Instruction { pc, class }, t_ins, now);
            match next {
                Some(n) => pc = n,
                None => break,
            }
        }
        self.profile.total_nanos = (now - t0).as_nanos() as u64;
        self.profile.metrics.cache = self.mem.cache_stats();
        self.profile.metrics.memory = self.mem.stats();
        self.profile
            .metrics
            .contraction
            .merge(&self.contract_ctx.take_stats());
        Ok(())
    }

    // ---- expression evaluation -----------------------------------------------

    pub(crate) fn eval_expr(&self, e: &ScalarExpr) -> f64 {
        let env = &self.env;
        let scalars = &self.scalars;
        let consts = &self.layout.consts;
        eval_scalar(
            e,
            &|id: IndexId| env[id.index()],
            &|i| scalars[i as usize],
            &|i| consts[i as usize],
        )
    }

    pub(crate) fn eval_cond(&self, c: &BoolExpr) -> bool {
        let env = &self.env;
        let scalars = &self.scalars;
        let consts = &self.layout.consts;
        eval_bool(
            c,
            &|id: IndexId| env[id.index()],
            &|i| scalars[i as usize],
            &|i| consts[i as usize],
        )
    }

    /// A block for an array of `kind`: pooled storage for a temp (it goes
    /// back to the pool when the iteration ends), fresh zeroed storage
    /// otherwise. Recycled storage is zeroed only if `zero`; a caller that
    /// writes every element before reading passes `false`.
    fn alloc_for(
        &mut self,
        kind: ArrayKind,
        shape: sia_blocks::Shape,
        zero: bool,
    ) -> Result<Block, RuntimeError> {
        match kind {
            ArrayKind::Temp if zero => Ok(self.pool.acquire_raw(shape)?),
            ArrayKind::Temp => Ok(self.pool.acquire_scratch(shape)?),
            _ => Ok(Block::zeros(shape)),
        }
    }

    /// Permutes `data` (laid out per `src` ref order) into `dest` ref order,
    /// in storage drawn for `dest`'s array. The identity permutation shares
    /// the handle — `T(i,j) = V(i,j)` moves no payload bytes.
    fn permute_to(
        &mut self,
        dest: &RefFacts,
        src: &RefFacts,
        data: &BlockHandle,
    ) -> Result<BlockHandle, RuntimeError> {
        let (to, from) = (dest.indices(), src.indices());
        if to == from {
            return Ok(data.clone());
        }
        let rank = to.len();
        if rank != from.len() || rank != data.shape().rank() {
            return Err(RuntimeError::BadProgram(
                "copy between blocks of different rank".into(),
            ));
        }
        // Output axis `d` reads source axis `perm[d]`; every source axis
        // once.
        let mut perm = [0usize; MAX_RANK];
        let mut seen = [false; MAX_RANK];
        for (p, d) in perm.iter_mut().zip(to) {
            match from.iter().position(|s| s == d) {
                Some(at) if !seen[at] => {
                    seen[at] = true;
                    *p = at;
                }
                _ => {
                    return Err(RuntimeError::BadProgram(
                        "copy with mismatched index sets".into(),
                    ));
                }
            }
        }
        let perm = &perm[..rank];
        let mut out = self.alloc_for(dest.kind, data.shape().permuted(perm), false)?;
        permute_into(data, perm, out.data_mut());
        Ok(out.into())
    }

    // ---- pardo machinery --------------------------------------------------------

    /// Binds the next assigned iteration or leaves the loop. Returns the next
    /// pc.
    fn pardo_advance(&mut self, wait: &mut Duration) -> Result<u32, RuntimeError> {
        // Request more work if the queue ran dry.
        let (start_pc, epoch, need_request) = {
            let p = self.pardo.as_ref().expect("pardo_advance outside pardo");
            (
                p.start_pc,
                p.epoch,
                p.queue.is_empty() && !p.exhausted && !p.requested,
            )
        };
        if need_request {
            let master = self.layout.topology.master();
            self.endpoint.send(
                master,
                SipMsg::ChunkRequest {
                    pardo_pc: start_pc,
                    epoch,
                },
            )?;
            if let Some(p) = &mut self.pardo {
                p.requested = true;
            }
        }
        *wait += self.wait_until(WaitCause::ChunkAssign, "pardo chunk", |w| {
            let p = w.pardo.as_ref().unwrap();
            !p.queue.is_empty() || p.exhausted
        })?;
        self.lookahead_chunk()?;
        let p = self.pardo.as_mut().unwrap();
        let facts = (self.layout.pardo(p.start_pc)).expect("a pardo runs from its PardoStart");
        match p.queue.pop_front() {
            Some(ordinal) => {
                p.ahead = p.ahead.saturating_sub(1);
                bind_iteration(&mut self.env, &facts.indices, &facts.ranges, ordinal);
                let body_pc = p.start_pc + 1;
                self.op_seq = 0;
                self.profile.iterations += 1;
                Ok(body_pc)
            }
            None => {
                debug_assert!(p.exhausted);
                for idx in facts.indices.iter() {
                    self.env[idx.index()] = 0;
                }
                let end_pc = p.end_pc;
                self.pardo = None;
                self.free_temps();
                Ok(end_pc + 1)
            }
        }
    }

    // ---- look-ahead ---------------------------------------------------------------

    /// The SIP "looks ahead and requests several blocks that it expects will
    /// be needed soon": when a `get`/`request` sits inside a sequential loop,
    /// also fetch the blocks the next iterations of the *innermost* loop will
    /// ask for.
    fn prefetch_ahead(&mut self, block: &RefFacts) -> Result<(), RuntimeError> {
        let Some(frame) = self.loop_stack.last() else {
            return Ok(());
        };
        if !block.indices().contains(&frame.index) {
            return Ok(());
        }
        let (index, current, high) = (frame.index, frame.current, frame.high);
        let mut wait = Duration::ZERO; // NoWait never blocks; discarded.
        for d in 1..=self.config.prefetch_depth as i64 {
            if current + d > high {
                break;
            }
            if let Some(key) = self.lookahead_key(block, &[index], &[current + d]) {
                self.access_key(key, Fetch::NoWait, &mut wait)?;
            }
        }
        Ok(())
    }

    /// The other look-ahead source: the iterations in the pardo's queue are
    /// granted and *will* run, so the blocks their unconditional `get`s and
    /// `request`s name can be asked for now — a window's worth at a time, so
    /// a window leaves as one envelope per home and comes back as one.
    /// Called with the next iteration still at the front of the queue; tops
    /// the window up once it has run half empty.
    fn lookahead_chunk(&mut self) -> Result<(), RuntimeError> {
        let Some(p) = self.pardo.as_mut() else {
            return Ok(());
        };
        let upto = p.window.min(p.queue.len());
        if p.ahead > p.window / 2 || p.ahead >= upto {
            return Ok(());
        }
        let from = std::mem::replace(&mut p.ahead, upto);
        let mut vals = std::mem::take(&mut p.vals);
        let mut keys = std::mem::take(&mut self.lookahead_keys);
        let p = self.pardo.as_ref().unwrap();
        let facts = (self.layout.pardo(p.start_pc)).expect("a pardo runs from its PardoStart");
        for &ordinal in p.queue.range(from..upto) {
            decode_ordinal(&facts.ranges, ordinal, |d, v| vals[d] = v);
            let key_of = |g| self.lookahead_key(g, &facts.indices, &vals);
            keys.extend(facts.gets.iter().filter_map(key_of));
        }
        if let Some(p) = self.pardo.as_mut() {
            p.vals = vals;
        }
        let mut wait = Duration::ZERO; // NoWait never blocks; discarded.
        let issued = (keys.drain(..))
            .try_for_each(|key| self.access_key(key, Fetch::NoWait, &mut wait).map(drop));
        self.lookahead_keys = keys;
        issued
    }

    /// The block `block` will denote once `indices` hold `vals` and every
    /// other index what it holds now — or `None` when that is no block to
    /// ask for: an index still undefined, or a key outside the array's
    /// declared segment ranges. The loop bound says nothing about the
    /// array: a guarded loop can range past the declared segments
    /// (`do L … if L <= n`), and asking for a block the array does not have
    /// is a `BlockOutOfRange` error — for a fetch nobody may ever use.
    fn lookahead_key(
        &self,
        block: &RefFacts,
        indices: &[IndexId],
        vals: &[i64],
    ) -> Option<BlockKey> {
        let value = |i: IndexId| match indices.iter().position(|&j| j == i) {
            Some(at) => vals[at],
            None => self.env[i.index()],
        };
        let (key, _) = self.layout.storage_target(block, value).ok()?;
        self.layout.block_ordinal(&key).map(|_| key)
    }

    // ---- instruction dispatch --------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    pub(crate) fn step(
        &mut self,
        pc: u32,
        ins: &I,
        facts: &PcFacts,
        wait: &mut Duration,
    ) -> Result<Option<u32>, RuntimeError> {
        let refs = &facts.refs;
        match ins {
            // ---- control ------------------------------------------------------
            I::PardoStart { end_pc, .. } => {
                if self.pardo.is_some() {
                    return Err(RuntimeError::BadProgram("nested pardo".into()));
                }
                let pardo = (self.layout.pardo(pc)).expect("the layout resolves every pardo");
                let epoch = &mut self.pardo_epochs[pardo.slot];
                *epoch += 1;
                let epoch = *epoch;
                // `prefetch_depth == 0` switches both look-aheads off.
                let window = match self.config.prefetch_depth {
                    0 => 0,
                    _ => self.window_bytes.checked_div(pardo.get_bytes).unwrap_or(0) as usize,
                };
                self.pardo = Some(PardoState {
                    start_pc: pc,
                    epoch,
                    end_pc: *end_pc,
                    vals: vec![0; pardo.indices.len()],
                    queue: Default::default(),
                    requested: false,
                    exhausted: false,
                    window,
                    ahead: 0,
                });
                Ok(Some(self.pardo_advance(wait)?))
            }
            I::PardoEnd { .. } => {
                self.free_temps();
                if let Some(p) = &self.pardo {
                    let (pardo_pc, epoch) = (p.start_pc, p.epoch);
                    self.note_pardo_iter_done(pardo_pc, epoch);
                }
                self.maybe_crash()?;
                Ok(Some(self.pardo_advance(wait)?))
            }
            I::DoStart { index, end_pc } => {
                let (lo, hi) = self.layout.range(*index);
                if lo > hi {
                    return Ok(Some(*end_pc + 1));
                }
                self.loop_stack.push(LoopFrame {
                    start_pc: pc,
                    index: *index,
                    current: lo,
                    high: hi,
                });
                self.env[index.index()] = lo;
                Ok(Some(pc + 1))
            }
            I::DoEnd { start_pc } => self.loop_end(*start_pc, pc),
            I::DoInStart {
                sub,
                parent,
                end_pc,
                ..
            } => {
                let pval = self.env[parent.index()];
                if pval == 0 {
                    return Err(RuntimeError::BadProgram(
                        "do-in with undefined parent index".into(),
                    ));
                }
                let (lo, hi) = self.layout.sub_range(pval);
                if lo > hi {
                    return Ok(Some(*end_pc + 1));
                }
                self.loop_stack.push(LoopFrame {
                    start_pc: pc,
                    index: *sub,
                    current: lo,
                    high: hi,
                });
                self.env[sub.index()] = lo;
                Ok(Some(pc + 1))
            }
            I::DoInEnd { start_pc } => self.loop_end(*start_pc, pc),
            I::ExitLoop {
                loop_start_pc,
                target,
            } => {
                // Pop loop frames down to and including the exited loop.
                loop {
                    let Some(frame) = self.loop_stack.pop() else {
                        return Err(RuntimeError::BadProgram(
                            "exit without a matching loop frame".into(),
                        ));
                    };
                    self.env[frame.index.index()] = 0;
                    if frame.start_pc == *loop_start_pc {
                        break;
                    }
                }
                Ok(Some(*target))
            }
            I::JumpIfFalse { cond, target } => {
                if self.eval_cond(cond) {
                    Ok(Some(pc + 1))
                } else {
                    Ok(Some(*target))
                }
            }
            I::Jump { target } => Ok(Some(*target)),
            I::Call { proc } => {
                let entry = self
                    .layout
                    .program
                    .procs
                    .get(proc.index())
                    .ok_or_else(|| RuntimeError::BadProgram("bad proc id".into()))?
                    .entry_pc;
                self.call_stack.push(pc + 1);
                Ok(Some(entry))
            }
            I::Return => match self.call_stack.pop() {
                Some(ret) => Ok(Some(ret)),
                None => Err(RuntimeError::BadProgram("return outside procedure".into())),
            },
            I::Halt => Ok(None),

            // ---- data management ------------------------------------------------
            I::Create { .. } => Ok(Some(pc + 1)), // allocation is lazy
            I::Delete { array } => {
                match self.layout.array_kind(*array) {
                    ArrayKind::Distributed => {
                        self.mem.home_remove_array(*array);
                        self.mem.cache_invalidate_array(*array);
                    }
                    ArrayKind::Served => {
                        self.mem.cache_invalidate_array(*array);
                        // One worker notifies the I/O servers; the op is
                        // idempotent but there is no need for W copies.
                        if self.worker_index() == 0 {
                            for j in 0..self.layout.topology.io_servers {
                                let io = self.layout.topology.io_server(j);
                                let _ = self
                                    .endpoint
                                    .send(io, SipMsg::DeleteArray { array: *array });
                            }
                        }
                    }
                    ArrayKind::Local | ArrayKind::Static => {
                        self.mem.local_remove_array(*array);
                    }
                    ArrayKind::Temp => {
                        if let Some((_, old)) = self.temps[array.index()].take() {
                            self.release_handle(old);
                        }
                    }
                }
                Ok(Some(pc + 1))
            }

            // ---- I/O -------------------------------------------------------------
            I::Get { .. } | I::Request { .. } => {
                let (key, _) = self.resolve(&refs[0])?;
                self.access_key(key, Fetch::NoWait, wait)?;
                self.prefetch_ahead(&refs[0])?;
                Ok(Some(pc + 1))
            }
            I::Put { mode, .. } | I::Prepare { mode, .. } => {
                let data = self.read_block(&refs[1], wait)?;
                let (key, window) = self.resolve(&refs[0])?;
                if window.is_some() {
                    return Err(RuntimeError::BadProgram(format!(
                        "sub-addressed {} destination is not supported",
                        ins.mnemonic()
                    )));
                }
                let op = self.derive_op(pc, &key);
                let home = self.home_of(&key)?;
                if home == self.endpoint.rank() {
                    let epoch = Some(self.dist_epoch);
                    self.apply_store_deduped(key, Payload::Data(data), *mode, op, epoch)?;
                } else {
                    self.send_store(home, key, data, *mode, op, wait)?;
                }
                Ok(Some(pc + 1))
            }
            I::BlocksToList { array, label } => {
                if self.layout.array_kind(*array) != ArrayKind::Distributed {
                    return Err(RuntimeError::Checkpoint(
                        "blocks_to_list supports distributed arrays".into(),
                    ));
                }
                let master = self.layout.topology.master();
                // Handles alias the home blocks: the checkpoint messages ride
                // on the authoritative allocations instead of deep copies.
                let mine = self.mem.home_shares(Some(*array));
                for (key, data) in mine {
                    self.endpoint.send(
                        master,
                        SipMsg::CkptBlock {
                            label: label.0,
                            key,
                            data,
                        },
                    )?;
                }
                self.endpoint.send(
                    master,
                    SipMsg::CkptDone {
                        label: label.0,
                        restore: false,
                    },
                )?;
                let lbl = label.0;
                self.trace.instant(EventKind::Checkpoint { restore: false });
                *wait += self.wait_until(WaitCause::Checkpoint, "checkpoint", |w| {
                    w.ckpt_released.contains(&lbl)
                })?;
                self.ckpt_released.remove(&lbl);
                Ok(Some(pc + 1))
            }
            I::ListToBlocks { array, label } => {
                if self.layout.array_kind(*array) != ArrayKind::Distributed {
                    return Err(RuntimeError::Checkpoint(
                        "list_to_blocks supports distributed arrays".into(),
                    ));
                }
                let master = self.layout.topology.master();
                self.endpoint.send(
                    master,
                    SipMsg::CkptDone {
                        label: label.0,
                        restore: true,
                    },
                )?;
                let lbl = label.0;
                self.trace.instant(EventKind::Checkpoint { restore: true });
                *wait += self.wait_until(WaitCause::Checkpoint, "checkpoint restore", |w| {
                    w.ckpt_released.contains(&lbl)
                })?;
                self.ckpt_released.remove(&lbl);
                self.mem.cache_invalidate_array(*array);
                Ok(Some(pc + 1))
            }

            // ---- computational super instructions ---------------------------------
            I::BlockFill { value, .. } => {
                let (v, dest) = (self.eval_expr(value), &refs[0]);
                let mut b = self.alloc_for(dest.kind, dest.shape, false)?;
                b.fill(v);
                self.write_block(dest, b)?;
                Ok(Some(pc + 1))
            }
            I::BlockCopy { .. } => {
                let (dest, src) = (&refs[0], &refs[1]);
                let data = self.read_block(src, wait)?;
                let permuted = self.permute_to(dest, src, &data)?;
                if BlockHandle::ptr_eq(&permuted, &data) {
                    self.mem.note_share(&permuted);
                }
                self.write_block(dest, permuted)?;
                Ok(Some(pc + 1))
            }
            I::BlockAccumulate { sign, .. } => {
                let (dest, src) = (&refs[0], &refs[1]);
                let data = self.read_block(src, wait)?;
                let permuted = self.permute_to(dest, src, &data)?;
                let sign = *sign;
                self.modify_block(dest, |b| b.axpy(sign, &permuted))?;
                // A permuted copy was drawn for a temp destination.
                if !BlockHandle::ptr_eq(&permuted, &data) {
                    self.release_handle(permuted);
                }
                Ok(Some(pc + 1))
            }
            I::BlockScale { factor, .. } => {
                let v = self.eval_expr(factor);
                self.modify_block(&refs[0], |b| b.scale(v))?;
                Ok(Some(pc + 1))
            }
            I::BlockContract { accumulate, .. } => {
                let plan = facts.plan()?;
                let (dest, a, b) = (&refs[0], &refs[1], &refs[2]);
                let aget = self.read_block_get(a, wait)?;
                let bget = self.read_block_get(b, wait)?;
                // Sparse screening: a typed-absent operand makes the product
                // exactly zero; two present operands whose norm product
                // (Cauchy–Schwarz bound on ‖A·B‖F) falls under the threshold
                // contribute negligibly. Either way the GEMM is skipped.
                let skip = match (&aget, &bget) {
                    (BlockGet::AbsentZero { .. }, _) | (_, BlockGet::AbsentZero { .. }) => true,
                    (BlockGet::Ready(ab), BlockGet::Ready(bb)) => {
                        (self.sparsity_active(a.array) || self.sparsity_active(b.array))
                            && ab.norm() * bb.norm() < self.config.sparsity_threshold
                    }
                    _ => {
                        return Err(RuntimeError::Internal(
                            "wait-mode access returned pending".into(),
                        ));
                    }
                };
                if skip {
                    self.profile.metrics.sparse.blocks_skipped += 1;
                    self.profile.metrics.sparse.flops_avoided += plan.flops(&a.shape, &b.shape);
                    let need_init =
                        *accumulate && dest.kind == ArrayKind::Temp && !self.temp_defined(dest)?;
                    if !*accumulate || need_init {
                        // The (bounded-)zero product still defines the dest
                        // block, exactly as the dense path would.
                        let out_shape = plan.output_shape(&a.shape, &b.shape);
                        let out = self.alloc_for(dest.kind, out_shape, true)?;
                        self.write_block(dest, out)?;
                    }
                    return Ok(Some(pc + 1));
                }
                let (BlockGet::Ready(ablk), BlockGet::Ready(bblk)) = (aget, bget) else {
                    unreachable!("non-ready operands handled above");
                };
                let out_shape = plan.output_shape(ablk.shape(), bblk.shape());
                // Contract through the worker's context (pooled pack panels,
                // contraction counters). The ctx is taken out of `self` for
                // the duration so the closures below can borrow it alongside
                // `self`'s block stores.
                let mut ctx = std::mem::take(&mut self.contract_ctx);
                let result = (|| -> Result<(), RuntimeError> {
                    if *accumulate {
                        // Accumulating into a not-yet-written temp starts
                        // from zero (the `R += a*b` idiom): contract straight
                        // into fresh pooled storage instead of round-tripping
                        // a zero-filled block through an accumulate.
                        let need_init = dest.kind == ArrayKind::Temp && !self.temp_defined(dest)?;
                        if need_init {
                            let mut out = self.alloc_for(dest.kind, out_shape, true)?;
                            contract_into_ctx(&mut ctx, plan, &ablk, &bblk, 0.0, &mut out);
                            self.write_block(dest, out)?;
                        } else {
                            self.modify_block(dest, |d| {
                                contract_into_ctx(&mut ctx, plan, &ablk, &bblk, 1.0, d);
                            })?;
                        }
                    } else {
                        let mut out = self.alloc_for(dest.kind, out_shape, true)?;
                        contract_into_ctx(&mut ctx, plan, &ablk, &bblk, 0.0, &mut out);
                        self.write_block(dest, out)?;
                    }
                    Ok(())
                })();
                self.contract_ctx = ctx;
                result?;
                Ok(Some(pc + 1))
            }
            I::ScalarAssign { dest, expr } => {
                self.scalars[dest.index()] = self.eval_expr(expr);
                Ok(Some(pc + 1))
            }
            I::ScalarFromBlock {
                dest, accumulate, ..
            } => {
                let b = self.read_block(&refs[0], wait)?;
                if b.len() != 1 {
                    return Err(RuntimeError::BadProgram(
                        "scalar fold of non-scalar block".into(),
                    ));
                }
                let v = b.data()[0];
                if *accumulate {
                    self.scalars[dest.index()] += v;
                } else {
                    self.scalars[dest.index()] = v;
                }
                Ok(Some(pc + 1))
            }
            I::ExecuteSuper { name, args } => {
                let name_str = self.layout.program.strings[name.index()].clone();
                self.execute_super(&name_str, args, refs, wait)?;
                Ok(Some(pc + 1))
            }
            I::Print { items } => {
                if self.worker_index() == 0 {
                    let mut line = String::new();
                    for item in items {
                        if !line.is_empty() {
                            line.push(' ');
                        }
                        match item {
                            sia_bytecode::ops::PrintItem::Str(id) => {
                                line.push_str(&self.layout.program.strings[id.index()]);
                            }
                            sia_bytecode::ops::PrintItem::Expr(e) => {
                                line.push_str(&format!("{}", self.eval_expr(e)));
                            }
                        }
                    }
                    println!("[sial] {line}");
                }
                Ok(Some(pc + 1))
            }

            // ---- synchronization ------------------------------------------------------
            I::SipBarrier => {
                *wait += self.barrier(BarrierKind::Sip)?;
                self.invalidate_cached_kind(ArrayKind::Distributed);
                self.dist_epoch += 1;
                self.on_sip_barrier_released();
                Ok(Some(pc + 1))
            }
            I::ServerBarrier => {
                *wait += self.barrier(BarrierKind::Server)?;
                self.invalidate_cached_kind(ArrayKind::Served);
                Ok(Some(pc + 1))
            }
        }
    }

    fn loop_end(&mut self, start_pc: u32, pc: u32) -> Result<Option<u32>, RuntimeError> {
        let frame = self
            .loop_stack
            .last_mut()
            .ok_or_else(|| RuntimeError::BadProgram("loop end without start".into()))?;
        if frame.start_pc != start_pc {
            return Err(RuntimeError::BadProgram("mismatched loop nesting".into()));
        }
        frame.current += 1;
        if frame.current <= frame.high {
            self.env[frame.index.index()] = frame.current;
            Ok(Some(start_pc + 1))
        } else {
            self.env[frame.index.index()] = 0;
            self.loop_stack.pop();
            Ok(Some(pc + 1))
        }
    }

    fn temp_defined(&self, r: &RefFacts) -> Result<bool, RuntimeError> {
        let (key, _) = self.resolve(r)?;
        Ok(matches!(&self.temps[r.array.index()], Some((k, _)) if *k == key))
    }

    pub(crate) fn barrier(&mut self, kind: BarrierKind) -> Result<Duration, RuntimeError> {
        let barrier_cause = match kind {
            BarrierKind::Sip => WaitCause::SipBarrier,
            BarrierKind::Server => WaitCause::ServerBarrier,
        };
        // Conflicting accesses must be complete before we report in: drain
        // outstanding acks first.
        let (acks, stored) = match kind {
            BarrierKind::Sip => ("put acks", ArrayKind::Distributed),
            BarrierKind::Server => ("prepare acks", ArrayKind::Served),
        };
        let mut total = self.wait_until(WaitCause::AckDrain, acks, |w| w.stores_drained(stored))?;
        let master = self.layout.topology.master();
        self.endpoint.send(master, SipMsg::BarrierEnter { kind })?;
        if self.ft.is_some() {
            // Under fault tolerance a parked worker may be handed re-queued
            // chunks of a dead rank (the master defers the release until
            // every re-queued chunk is acknowledged).
            loop {
                if let Some(chunk) = self.ft.as_mut().and_then(|ft| ft.takeovers.pop_front()) {
                    self.run_takeover_chunk(chunk)?;
                    continue;
                }
                if self.barrier_release == Some(kind) {
                    break;
                }
                total += self.wait_until(barrier_cause, "barrier release", |w| {
                    w.barrier_release == Some(kind)
                        || w.ft.as_ref().is_some_and(|ft| !ft.takeovers.is_empty())
                })?;
            }
        } else {
            total += self.wait_until(barrier_cause, "barrier release", |w| {
                w.barrier_release == Some(kind)
            })?;
        }
        self.barrier_release = None;
        Ok(total)
    }

    fn execute_super(
        &mut self,
        name: &str,
        args: &[Arg],
        blocks: &[RefFacts],
        wait: &mut Duration,
    ) -> Result<(), RuntimeError> {
        // Intrinsic collectives are handled by the runtime, not the registry.
        if name == SIP_ALLREDUCE {
            let [Arg::Scalar(id)] = args else {
                return Err(RuntimeError::BadProgram(
                    "sip_allreduce takes exactly one scalar argument".into(),
                ));
            };
            let master = self.layout.topology.master();
            self.endpoint.send(
                master,
                SipMsg::ReduceContrib {
                    value: self.scalars[id.index()],
                },
            )?;
            *wait += self.wait_until(WaitCause::Collective, "allreduce", |w| {
                w.reduce_result.is_some()
            })?;
            self.scalars[id.index()] = self.reduce_result.take().unwrap();
            return Ok(());
        }
        if name == SIP_TIME {
            let [Arg::Scalar(id)] = args else {
                return Err(RuntimeError::BadProgram(
                    "sip_time takes exactly one scalar argument".into(),
                ));
            };
            self.scalars[id.index()] = self.started.elapsed().as_secs_f64();
            return Ok(());
        }
        if name == SIP_RESUME_EPOCH {
            let [Arg::Scalar(id)] = args else {
                return Err(RuntimeError::BadProgram(
                    "sip_resume_epoch takes exactly one scalar argument".into(),
                ));
            };
            self.scalars[id.index()] = self.resumed_epochs as f64;
            return Ok(());
        }

        // Marshal arguments.
        let mut marshalled: Vec<SuperArg> = Vec::with_capacity(args.len());
        // (slot index in `marshalled`, origin) for write-back of blocks.
        enum Origin {
            Temp(usize, BlockKey),
            Local(BlockKey),
            Scalar(usize),
        }
        let mut origins: Vec<(usize, Origin)> = Vec::new();
        let mut blocks = blocks.iter();
        for arg in args {
            match arg {
                Arg::Block(_) => {
                    let r = blocks.next().expect("the table holds every block argument");
                    let (key, window) = self.resolve(r)?;
                    if window.is_some() {
                        return Err(RuntimeError::BadProgram(
                            "sub-addressed execute argument is not supported".into(),
                        ));
                    }
                    // Kernels take blocks by value: unwrap the handle, deep
                    // copying only if another holder still shares it.
                    let unwrap = |w: &mut Worker, h: BlockHandle| -> Block {
                        if h.is_shared() {
                            w.mem.note_deep_copy();
                        }
                        h.into_block()
                    };
                    let block = match r.kind {
                        ArrayKind::Temp => match self.temps[r.array.index()].take() {
                            Some((k, b)) if k == key => unwrap(self, b),
                            Some((_, old)) => {
                                // Stale temp from another iteration: recycle
                                // and hand the kernel a fresh zero block.
                                self.release_handle(old);
                                self.alloc_for(r.kind, r.shape, true)?
                            }
                            None => self.alloc_for(r.kind, r.shape, true)?,
                        },
                        ArrayKind::Local | ArrayKind::Static => match self.mem.local_take(&key)? {
                            Some(b) => unwrap(self, b),
                            None => Block::zeros(r.shape),
                        },
                        other => {
                            return Err(RuntimeError::BadProgram(format!(
                                "execute block arguments must be temp/local/static, got {other:?}"
                            )));
                        }
                    };
                    let origin = match r.kind {
                        ArrayKind::Temp => Origin::Temp(r.array.index(), key),
                        _ => Origin::Local(key),
                    };
                    origins.push((marshalled.len(), origin));
                    marshalled.push(SuperArg::Block {
                        segs: key.segs().iter().map(|&s| i64::from(s)).collect(),
                        block,
                    });
                }
                Arg::Scalar(id) => {
                    origins.push((marshalled.len(), Origin::Scalar(id.index())));
                    marshalled.push(SuperArg::Scalar(self.scalars[id.index()]));
                }
                Arg::Index(id) => {
                    marshalled.push(SuperArg::Index(self.env[id.index()]));
                }
            }
        }
        let env = SuperEnv {
            worker: self.worker_index(),
            workers: self.layout.topology.workers,
        };
        let registry = self.registry.clone();
        let result = registry.invoke(name, &mut marshalled, &env);
        // Write back regardless of success so state stays consistent.
        for (slot, origin) in origins.into_iter().rev() {
            match (origin, &mut marshalled[slot]) {
                (Origin::Temp(array, key), SuperArg::Block { block, .. }) => {
                    let b = std::mem::replace(block, Block::scalar(0.0));
                    if let Some((_, old)) = self.temps[array].replace((key, b.into())) {
                        self.release_handle(old);
                    }
                }
                (Origin::Local(key), SuperArg::Block { block, .. }) => {
                    let b = std::mem::replace(block, Block::scalar(0.0));
                    self.mem.local_insert(key, b.into())?;
                }
                (Origin::Scalar(i), SuperArg::Scalar(v)) => {
                    self.scalars[i] = *v;
                }
                _ => {
                    return Err(RuntimeError::Internal(
                        "argument marshalling mismatch".into(),
                    ));
                }
            }
        }
        result
    }
}

/// Binds the pardo `indices` to the values iteration `ordinal` of the cross
/// product of `ranges` denotes.
pub(crate) fn bind_iteration(
    env: &mut [i64],
    indices: &[IndexId],
    ranges: &[(i64, i64)],
    ordinal: u64,
) {
    decode_ordinal(ranges, ordinal, |d, v| env[indices[d].index()] = v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, SipConfig};
    use crate::registry::SuperRegistry;
    use sia_bytecode::ConstBindings;

    /// Runs `src` on a world of one worker, driven on this thread beside a
    /// master on its own, and hands back the worker once the run is over.
    fn run_alone(src: &str, bindings: &ConstBindings) -> Worker {
        use crate::layout::SegmentConfig;
        let config = SipConfig {
            workers: 1,
            io_servers: 0,
            segments: SegmentConfig {
                default: 4,
                ..SegmentConfig::default()
            },
            ..SipConfig::default()
        };
        let program = Arc::new(sial_frontend::compile(src).unwrap());
        let layout = Arc::new(Layout::for_config(program, bindings, &config).unwrap());
        let (mut eps, _) = sia_fabric::build::<SipMsg>(2);
        let worker_ep = eps.pop().unwrap();
        let master = crate::master::Master::new(
            Arc::clone(&layout),
            eps.pop().unwrap(),
            crate::scheduler::ChunkPolicy::default(),
            std::env::temp_dir(),
            None,
        );
        let mut w = Worker::new(layout, config, worker_ep, SuperRegistry::new());
        std::thread::scope(|s| {
            let master = s.spawn(|| master.run());
            crate::run_worker(&mut w, false);
            master.join().unwrap().unwrap();
        });
        w
    }

    /// A temp that a permuting copy fills dies with its iteration and goes
    /// back to the pool; what the pool parks stays what one repetition of
    /// the pardo needs, however many run.
    #[test]
    fn parked_pool_bytes_stay_flat_across_repetitions() {
        const SRC: &str = "sial transpose_sum
aoindex i = 1, n
aoindex j = 1, n
index r = 1, reps
distributed A(i,j)
temp t(i,j)
temp u(i,j)
scalar total
pardo i, j
  t(i,j) = i + 0.5 * j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
do r
  pardo i, j
    get A(j,i)
    u(i,j) = A(j,i)
    total += u(i,j) * u(i,j)
  endpardo i, j
enddo r
endsial
";
        let parked = |reps: i64| {
            let bindings: ConstBindings =
                [("n".to_string(), 96), ("reps".to_string(), reps)].into();
            run_alone(SRC, &bindings).pool.stats().free_bytes
        };
        let once = parked(1);
        assert!(once > 0, "the pool parks what an iteration frees");
        assert_eq!(parked(4), once, "parked bytes grew with the repetitions");
    }

    /// A temp that is put stays alive in the home after its iteration; the
    /// pool stops counting it then, so neither the bytes it counts as out
    /// nor its peak grow with the repetitions of a permute-and-put pardo.
    #[test]
    fn put_temps_leave_the_pool_count() {
        const SRC: &str = "sial transpose_put
aoindex i = 1, n
aoindex j = 1, n
index r = 1, reps
distributed A(i,j)
distributed B(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = i + 0.5 * j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
do r
  pardo i, j
    get A(j,i)
    u(i,j) = A(j,i)
    put B(i,j) = u(i,j)
  endpardo i, j
  sip_barrier
enddo r
endsial
";
        let stats = |reps: i64| {
            let bindings: ConstBindings =
                [("n".to_string(), 32), ("reps".to_string(), reps)].into();
            run_alone(SRC, &bindings).pool.stats()
        };
        let (once, many) = (stats(1), stats(16));
        assert_eq!(many.live_bytes, 0, "put temps still counted as out");
        assert_eq!(many.live_blocks, 0);
        assert_eq!(
            many.peak_bytes, once.peak_bytes,
            "peak grew with the repetitions"
        );
        assert_eq!(many.free_bytes, once.free_bytes, "parking cap grew");
    }
}
