//! Analytic strong-scaling model of pardo communication under the two
//! placement strategies, extrapolating a [`CommWorkload`] (the byte classes
//! the planner's `PlanSummary` aggregates) to rank counts no host can run
//! for real.
//!
//! The model deliberately stays closed-form — no event queue. Both
//! placements fetch every broadcast-shaped block point to point, once per
//! consuming rank, via a request/response pair, and the block's home
//! serializes those responses; the planned placement differs by turning
//! pardo-aligned puts into local stores. The separation is therefore the
//! aligned-put bytes and their messages. This is a claim about scale only:
//! the runtime has one placement (owner-compute slabs).

use crate::machine::MachineModel;

/// Placement-independent byte classes of one program, summed over every
/// pardo region. Mirrors `sia_runtime::PlanSummary` field-for-field but
/// takes plain integers so the simulator does not need a runtime `Layout`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommWorkload {
    /// Bytes of distributed puts whose block key is fully determined by the
    /// pardo indices — local under owner-compute affinity, remote with
    /// probability (P−1)/P under hash placement.
    pub aligned_put_bytes: u64,
    /// Distinct broadcast-shaped blocks × their byte size: the payload every
    /// consuming rank needs once, whatever the transport.
    pub broadcast_bytes: u64,
    /// Distinct broadcast-shaped blocks.
    pub broadcast_blocks: u64,
    /// Every remaining get/put/request/prepare byte, spread uniformly.
    pub other_bytes: u64,
}

/// Modeled fabric cost of one placement at one rank count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Total bytes crossing the fabric (all ranks summed).
    pub bytes: f64,
    /// Total fabric messages (requests and payloads both count).
    pub messages: f64,
    /// Modeled communication seconds on the critical rank: per-rank volume
    /// over contended bandwidth plus per-rank message latency.
    pub seconds: f64,
}

/// Average payload size used to turn byte classes into message counts when
/// the workload carries no broadcast blocks to calibrate from (64 KiB — a
/// typical 4-index segment block at seg 16).
const FALLBACK_MSG_BYTES: f64 = 64.0 * 1024.0;

fn avg_block_bytes(w: &CommWorkload) -> f64 {
    if w.broadcast_blocks > 0 {
        w.broadcast_bytes as f64 / w.broadcast_blocks as f64
    } else {
        FALLBACK_MSG_BYTES
    }
}

/// Per-core effective bandwidth under full load at `ranks` ranks.
fn effective_bw(m: &MachineModel, ranks: u64) -> f64 {
    m.link_bw_per_core * (ranks as f64).powf(m.net_scale_exp - 1.0)
}

fn cost(bytes: f64, messages: f64, m: &MachineModel, ranks: u64, bcast_path: f64) -> CommCost {
    let p = ranks as f64;
    let seconds = bytes / p / effective_bw(m, ranks) + messages / p * m.net_latency + bcast_path;
    CommCost {
        bytes,
        messages,
        seconds,
    }
}

/// Seconds to push one average-size block out one link.
fn per_send(w: &CommWorkload, m: &MachineModel, ranks: u64) -> f64 {
    m.net_latency + avg_block_bytes(w) / effective_bw(m, ranks)
}

/// Point-to-point transport: `spread` bytes are remote with probability
/// (P−1)/P, and each broadcast-shaped block is fetched by each of the P−1
/// non-home ranks via a Fetch/Block pair. The home rank's injection link
/// serializes those P−1 responses — the linear fan-out hotspot. With the
/// blocks spread over the ranks, the busiest home serves ⌈blocks/P⌉ of
/// them.
fn point_to_point(w: &CommWorkload, spread: u64, ranks: u64, m: &MachineModel) -> CommCost {
    let p = ranks as f64;
    let remote = (p - 1.0) / p;
    let point_bytes = spread as f64 * remote;
    let bcast_bytes = w.broadcast_bytes as f64 * (p - 1.0);
    let messages = point_bytes / avg_block_bytes(w) + 2.0 * w.broadcast_blocks as f64 * (p - 1.0);
    let per_home = w.broadcast_blocks.div_ceil(ranks.max(1)) as f64;
    let hotspot = per_home * (p - 1.0) * per_send(w, m, ranks);
    cost(point_bytes + bcast_bytes, messages, m, ranks, hotspot)
}

/// Hash placement: every byte class is remote with probability (P−1)/P,
/// aligned puts included.
pub fn hash_cost(w: &CommWorkload, ranks: u64, m: &MachineModel) -> CommCost {
    point_to_point(w, w.aligned_put_bytes + w.other_bytes, ranks, m)
}

/// Planned placement: aligned puts land on their owner (no fabric); the
/// broadcast blocks travel point to point as under hash placement.
pub fn planned_cost(w: &CommWorkload, ranks: u64, m: &MachineModel) -> CommCost {
    point_to_point(w, w.other_bytes, ranks, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine;

    const W: CommWorkload = CommWorkload {
        aligned_put_bytes: 8 << 20,
        broadcast_bytes: 4 << 20,
        broadcast_blocks: 64,
        other_bytes: 16 << 20,
    };

    #[test]
    fn planned_saves_exactly_the_aligned_puts() {
        let m = machine::CRAY_XT5;
        for ranks in [64u64, 1024, 16384] {
            let h = hash_cost(&W, ranks, &m);
            let pl = planned_cost(&W, ranks, &m);
            // Broadcast blocks travel point to point either way; planned
            // keeps the aligned puts local, and that is all it saves.
            let remote = (ranks - 1) as f64 / ranks as f64;
            let aligned = W.aligned_put_bytes as f64 * remote;
            let per_msg = W.broadcast_bytes as f64 / W.broadcast_blocks as f64;
            assert!(pl.bytes < h.bytes, "bytes at {ranks}");
            assert!(pl.messages < h.messages, "messages at {ranks}");
            assert!(
                (h.bytes - pl.bytes - aligned).abs() < 1e-6,
                "bytes at {ranks}"
            );
            assert!(
                (h.messages - pl.messages - aligned / per_msg).abs() < 1e-6,
                "messages at {ranks}"
            );
        }
    }

    #[test]
    fn planned_wins_time_at_scale() {
        let m = machine::CRAY_XT5;
        for ranks in [1024u64, 16384] {
            let h = hash_cost(&W, ranks, &m);
            let pl = planned_cost(&W, ranks, &m);
            assert!(
                pl.seconds < h.seconds,
                "planned {} s vs hash {} s at {ranks}",
                pl.seconds,
                h.seconds
            );
        }
    }

    #[test]
    fn no_broadcast_degenerates_gracefully() {
        let m = machine::CRAY_XT5;
        let w = CommWorkload {
            aligned_put_bytes: 0,
            broadcast_bytes: 0,
            broadcast_blocks: 0,
            other_bytes: 32 << 20,
        };
        let h = hash_cost(&w, 1024, &m);
        let pl = planned_cost(&w, 1024, &m);
        assert_eq!(h.bytes, pl.bytes);
        assert!(h.seconds.is_finite() && pl.seconds.is_finite());
    }
}
