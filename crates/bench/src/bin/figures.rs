//! Regenerates the paper's evaluation (§VI): the simulated figures of
//! [`sia_bench::FIGURES`], the cases a table row cannot hold (the Figure 6
//! inset, the Figure 7 GA columns), the in-text experiments E7 (the
//! BlueGene/P port) and E8 (the overlap claim), and the ablations of the
//! SIP's design choices.
//!
//! ```text
//! cargo run --release -p sia-bench --bin figures -- [--quick] [NAME…]
//! ```
//!
//! NAME is one of `fig2` … `fig7`, `e7`, `e8`, `ablations`; none runs them
//! all. Each table is printed and written as a TSV under `results/`;
//! `--quick` runs reduced processor sweeps and writes nothing.

use sia_bench::{e7a_configs, figure, fmt_pct, fmt_time, ga_baseline, FigTable, Figure, FIGURES};
use sia_chem::{contraction_demo, Molecule};
use sia_runtime::scheduler::ChunkPolicy;
use sia_runtime::trace::{IterProfile, Trace, TracePhase};
use sia_runtime::{RunOutput, SipConfig, SipConfigBuilder};
use sia_sim::machine::CRAY_XT5;
use sia_sim::{simulate, GaOutcome, SimConfig};

fn main() {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.extend(["e7", "e8", "ablations"]);
    let (quick, picked): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--quick");
    let quick = !quick.is_empty();
    if let Some(bad) = picked.iter().find(|a| !names.contains(&a.as_str())) {
        eprintln!("figures: unknown `{bad}`; names: {}", names.join(" "));
        std::process::exit(2);
    }
    // No NAME runs them all; in the order of `names` either way.
    let chosen = |n: &&str| picked.is_empty() || picked.iter().any(|p| p == n);
    for name in names.into_iter().filter(chosen) {
        match name {
            "fig6" => fig6(quick),
            "fig7" => fig7(quick),
            "e7" => e7(quick),
            "e8" => e8(quick),
            "ablations" => ablations(quick),
            row => emit(&figure(row).table(quick), row, quick),
        }
    }
}

/// Prints a table and, unless `quick`, writes it as `results/<name>.tsv`.
fn emit(table: &FigTable, name: &str, quick: bool) {
    print!("{}", table.render());
    if !quick {
        let path = table.write_tsv(name).expect("results/ is writable");
        println!("wrote {}", path.display());
    }
}

/// Figure 6, then its inset (full runs only): retuning the segment size at
/// 84,000 cores, past the knee of the default size.
fn fig6(quick: bool) {
    let fig = figure("fig6");
    emit(&fig.table(quick), fig.name, quick);
    if quick {
        return;
    }
    let mut tune = FigTable::new(
        "Figure 6 inset: segment-size tuning at 84,000 cores",
        &["segment size", "time (s)"],
    );
    for seg in [16, 24, 32, 48, 64] {
        let trace = Figure { seg, ..*fig }.trace(&fig.molecules[0]);
        let t = fig.series[0].simulate(&trace, 84_000).total_time;
        tune.row(vec![seg.to_string(), format!("{t:.1}")]);
    }
    emit(&tune, "fig6_tuning", quick);
}

/// Figure 7: the ACES III column of the table, then the GA baseline at 1, 2
/// and 4 GB per core beside it.
fn fig7(quick: bool) {
    let fig = figure("fig7");
    let trace = fig.trace(&fig.molecules[0]);
    let mut table = fig.table(quick);
    let ga_columns = ["GA (1GB)", "GA (2GB)", "GA (4GB)"];
    table.columns.extend(ga_columns.map(String::from));
    for (row, &p) in table.rows.iter_mut().zip(fig.series[0].procs(quick)) {
        for gb in [1, 2, 4] {
            row.push(match ga_baseline(&trace, p, gb) {
                GaOutcome::Completed(r) => fmt_time(r.total_time),
                GaOutcome::OutOfMemory { .. } => "did not run".into(),
            });
        }
    }
    emit(&table, fig.name, quick);
}

/// The paper's §IV-D contraction on a small synthetic molecule with `n_ao`
/// orbitals, run on `workers` workers of the real SIP (threads as ranks).
fn run_contraction(n_ao: u32, workers: usize, config: SipConfigBuilder) -> RunOutput {
    let m = Molecule {
        name: "synthetic",
        formula: "—",
        electrons: 16,
        n_occ: 8,
        n_ao,
        open_shell: false,
    };
    let config = config.workers(workers).build().expect("harness config");
    contraction_demo(&m, 8).run_real(config).expect("real run")
}

/// E7 (§VI-A), the BlueGene/P port: "A test case that ran in 1,500 seconds
/// on a Cray XT5 with 512 processors initially took more than 6 hours on …
/// a BlueGene/P. … It was necessary to modify the prefetching mechanism to
/// avoid blocks arriving too early, causing eviction and refetching of
/// blocks that would be reused. After tuning the SIP, the times are within
/// a factor of four commensurate with the ratio of the processor speeds."
///
/// Part A simulates the tuned end state. The untuned pathology is a
/// transient refetch storm, not a steady state the trace model can hold, so
/// part B shows its mechanism on the real SIP instead: a per-worker cache
/// smaller than the loop's working set makes early arrivals evict blocks
/// that will be reused, and giving the cache room is the "tuning". The
/// sweep starts at 8 blocks: the builder rejects a cache smaller than the
/// prefetch depth.
fn e7(quick: bool) {
    let fig3 = figure("fig3");
    let trace = fig3.trace(&fig3.molecules[0]);
    let mut table = FigTable::new(
        "E7a (§VI-A): (H2O)21H+ CCSD iteration, 512 processors (simulated)",
        &[
            "configuration",
            "cache blocks",
            "prefetch",
            "time",
            "vs XT5",
        ],
    );
    let mut xt5 = None;
    for (label, cfg) in e7a_configs() {
        let t = simulate(&trace, &cfg).total_time;
        let base = *xt5.get_or_insert(t);
        table.row(vec![
            label.into(),
            cfg.cache_blocks.to_string(),
            cfg.prefetch_depth.to_string(),
            fmt_time(t),
            format!("{:.1}×", t / base),
        ]);
    }
    emit(&table, "e7a_bgp_sim", quick);

    let mut table = FigTable::new(
        "E7b: cache pressure vs refetch storms on the real SIP (depth 8)",
        &["cache blocks", "refetches", "evictions", "wait fraction"],
    );
    for cache in [8, 16, 32, 64] {
        let config = SipConfig::builder().prefetch_depth(8).cache_blocks(cache);
        let out = run_contraction(48, 3, config);
        let stats = &out.profile.metrics.cache;
        table.row(vec![
            cache.to_string(),
            stats.refetches.to_string(),
            stats.evictions.to_string(),
            fmt_pct(out.profile.wait_fraction()),
        ]);
    }
    emit(&table, "e7b_bgp_real", quick);
    println!("once the cache covers the working set, refetches vanish and waiting falls");
}

/// E8 (§VI-B/C), the overlap claim: the built-in profile's wait fraction,
/// hidden share of flight time (`overlap`) and cache counters on the real
/// SIP, with the `do`-loop prefetch at three depths. Ranks are threads
/// sharing this host's CPUs, so the wait fraction is not the paper's
/// cluster figure (8–13%).
fn e8(quick: bool) {
    let mut table = FigTable::new(
        "E8: measured overlap on the real SIP (threads as ranks)",
        &[
            "prefetch depth",
            "wait fraction",
            "overlap",
            "cache hits",
            "in-flight hits",
            "refetches",
            "messages",
        ],
    );
    for depth in [0, 2, 4] {
        let config = SipConfig::builder().prefetch_depth(depth).cache_blocks(128);
        let out = run_contraction(40, 4, config);
        let cache = &out.profile.metrics.cache;
        table.row(vec![
            depth.to_string(),
            fmt_pct(out.profile.wait_fraction()),
            out.profile.overlap().map_or("-".into(), fmt_pct),
            cache.hits.to_string(),
            cache.in_flight_hits.to_string(),
            cache.refetches.to_string(),
            out.traffic.messages.to_string(),
        ]);
    }
    emit(&table, "e8_overlap", quick);
    println!("prefetch hides more flight time under compute; the wait fraction does not fall");
}

/// The ablations of the SIP's design choices (§V, §VII), each against the
/// alternative.
fn ablations(quick: bool) {
    scheduling_ablation(quick);
    overlap_ablation(quick);
}

/// Guided chunk scheduling (§V-B: "the chunk size decreases as the
/// computation proceeds") against fixed-size chunks, on Figure 4's RDX CCSD
/// at its largest core count: oversized chunks pay tail imbalance,
/// single-task chunks pay master round trips.
fn scheduling_ablation(quick: bool) {
    let fig4 = figure("fig4");
    let (trace, series) = (fig4.trace(&fig4.molecules[0]), &fig4.series[0]);
    let procs = *series.procs.last().expect("a processor sweep");
    let mut table = FigTable::new(
        "Ablation 2: chunk scheduling at 8000 simulated XT5 cores (RDX CCSD)",
        &["policy", "time (s)", "efficiency vs guided", "wait"],
    );
    let mut guided = None;
    for (name, chunk_policy) in [
        ("guided ÷2 (SIP)", ChunkPolicy::Guided { factor: 2 }),
        ("fixed 64-task chunks", ChunkPolicy::Fixed { size: 64 }),
        ("fixed 8-task chunks", ChunkPolicy::Fixed { size: 8 }),
        ("single-task chunks", ChunkPolicy::Fixed { size: 1 }),
    ] {
        let mut cfg = SimConfig::sip(series.machine, procs);
        cfg.chunk_policy = chunk_policy;
        let r = simulate(&trace, &cfg);
        let t_guided = *guided.get_or_insert(r.total_time);
        table.row(vec![
            name.into(),
            format!("{:.1}", r.total_time),
            fmt_pct(t_guided / r.total_time),
            fmt_pct(r.wait_fraction),
        ]);
    }
    emit(&table, "ablation_scheduling", quick);
    println!("guided matches the best fixed size without knowing it in advance");
}

/// Asynchronous overlap (§V, "maximize asynchrony"): the prefetch pipeline
/// on and off across communication:computation balances, on a synthetic
/// pardo at 512 simulated XT5 cores.
fn overlap_ablation(quick: bool) {
    let mut table = FigTable::new(
        "Ablation 3: prefetch overlap across comm/comp balances (sim, 512 cores)",
        &[
            "flops per fetched byte",
            "no overlap (s)",
            "overlap (s)",
            "speedup",
        ],
    );
    let bytes = 1_000_000;
    for flops_per_byte in [1, 8, 64, 512] {
        let per_iter = IterProfile {
            gets: 2,
            get_bytes: bytes,
            flops: flops_per_byte * bytes,
            ..Default::default()
        };
        let pardo = TracePhase::Pardo {
            pc: 0,
            iterations: 20_000,
            per_iter,
        };
        let trace = Trace {
            phases: vec![pardo],
        };
        let time = |prefetch_depth| {
            let mut cfg = SimConfig::sip(CRAY_XT5, 512);
            cfg.prefetch_depth = prefetch_depth;
            simulate(&trace, &cfg).total_time
        };
        let (off, on) = (time(0), time(2));
        table.row(vec![
            flops_per_byte.to_string(),
            format!("{off:.2}"),
            format!("{on:.2}"),
            format!("{:.2}×", off / on),
        ]);
    }
    emit(&table, "ablation_overlap", quick);
    println!("overlap buys the most where communication and computation are comparable");
}
