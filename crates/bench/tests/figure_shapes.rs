//! Shape-regression tests: the qualitative findings of every paper figure,
//! asserted on reduced sweeps so `cargo test` guards the reproduction. Each
//! figure's workload, segment size and machine come from the table the
//! `figures` binary runs (`sia_bench::FIGURES`).

use sia_bench::{e7a_configs, figure, ga_baseline, Figure};
use sia_sim::{simulate, GaOutcome};

/// The figure's trace on its first molecule.
fn trace_of(fig: &Figure) -> sia_runtime::trace::Trace {
    fig.trace(&fig.molecules[0])
}

#[test]
fn fig2_shape_luciferin_scales_with_moderate_wait() {
    let fig = figure("fig2");
    let (trace, series) = (trace_of(fig), &fig.series[0]);
    let r32 = series.simulate(&trace, 32);
    let r256 = series.simulate(&trace, 256);
    // Strong scaling holds with ≥ 70% efficiency at 256 (paper ~75–85%).
    let eff = r256.efficiency_vs(&r32, 32, 256);
    assert!(eff > 0.70 && eff <= 1.02, "efficiency {eff}");
    // Time per iteration lands within 3× of the paper's ~60 minutes at 32.
    assert!(
        (1200.0..10800.0).contains(&r32.total_time),
        "t(32) = {} s",
        r32.total_time
    );
    // Wait stays a minor fraction at the paper's scales.
    assert!(r256.wait_fraction < 0.35, "wait {}", r256.wait_fraction);
}

#[test]
fn fig3_shape_xt5_beats_xt4() {
    let fig = figure("fig3");
    let trace = trace_of(fig);
    let [xt4, xt5] = [&fig.series[0], &fig.series[1]];
    assert_eq!((xt4.label, xt5.label), ("XT4", "XT5"));
    let t4 = xt4.simulate(&trace, 512).total_time;
    let t5 = xt5.simulate(&trace, 512).total_time;
    assert!(t5 < t4 * 0.7, "XT5 {t5} vs XT4 {t4}");
    // Both machines keep scaling through the measured range.
    let t5_4096 = xt5.simulate(&trace, 4096).total_time;
    assert!(t5_4096 < t5 * 0.25, "XT5 must scale 512→4096");
}

#[test]
fn fig4_shape_hmx_scales_better_than_rdx() {
    let fig = figure("fig4");
    let series = &fig.series[0];
    let eff_at_8k = |m| {
        let trace = fig.trace(m);
        let r1k = series.simulate(&trace, 1000);
        let r8k = series.simulate(&trace, 8000);
        r8k.efficiency_vs(&r1k, 1000, 8000)
    };
    let [rdx, hmx] = [&fig.molecules[0], &fig.molecules[1]];
    assert_eq!((rdx.name, hmx.name), ("RDX", "HMX"));
    let (rdx, hmx) = (eff_at_8k(rdx), eff_at_8k(hmx));
    assert!(hmx > rdx, "HMX {hmx} must beat RDX {rdx} at 8000 procs");
}

#[test]
fn fig5_shape_triples_scale_to_30k_then_tail() {
    let fig = figure("fig5");
    let (trace, series) = (trace_of(fig), &fig.series[0]);
    let r10 = series.simulate(&trace, 10_000);
    let r30 = series.simulate(&trace, 30_000);
    let r80 = series.simulate(&trace, 80_000);
    let e30 = r30.efficiency_vs(&r10, 10_000, 30_000);
    let e80 = r80.efficiency_vs(&r10, 10_000, 80_000);
    assert!(e30 > 0.75, "good scaling to 30k: {e30}");
    assert!(e80 < e30, "efficiency must tail off beyond 30k");
    assert!(r80.total_time < r10.total_time, "time still drops to 80k");
}

#[test]
fn fig6_shape_knee_and_segment_retune() {
    let fig = figure("fig6");
    let series = &fig.series[0];
    let quick_procs = [24_000u64, 72_000, 108_000];
    let trace = trace_of(fig);
    let times: Vec<f64> = quick_procs
        .iter()
        .map(|&p| series.simulate(&trace, p).total_time)
        .collect();
    // Scaling from 24k to 72k, then no improvement (the paper's regression).
    assert!(
        times[1] < times[0] * 0.6,
        "24k→72k must speed up: {times:?}"
    );
    assert!(
        times[2] > times[1] * 0.98,
        "beyond the knee, more cores must not help: {times:?}"
    );
    // Retuning the segment size at 84k beats the default-seg 72k time.
    let retuned = trace_of(&Figure { seg: 64, ..*fig });
    let retuned_84k = series.simulate(&retuned, 84_000).total_time;
    assert!(
        retuned_84k < times[1],
        "retuned 84k ({retuned_84k}) must beat default 72k ({})",
        times[1]
    );
}

#[test]
fn fig7_shape_ga_memory_gate_and_offset() {
    let fig = figure("fig7");
    let (trace, aces) = (trace_of(fig), &fig.series[0]);
    assert_eq!(
        aces.machine.mem_per_core,
        1 << 30,
        "ACES III runs at 1 GB/core"
    );

    // SIA at 1 GB/core completes at every count (feasibility by design).
    for p in [16u64, 64, 256] {
        let r = aces.simulate(&trace, p);
        assert!(r.total_time.is_finite() && r.total_time > 0.0);
    }
    // GA at 1 GB/core never runs.
    for p in [16u64, 32, 64, 128, 256] {
        assert!(
            matches!(ga_baseline(&trace, p, 1), GaOutcome::OutOfMemory { .. }),
            "GA@1GB must fail at {p} procs"
        );
    }
    // GA at 2 GB/core fails at 16, runs at 32 (the paper's first point).
    assert!(matches!(
        ga_baseline(&trace, 16, 2),
        GaOutcome::OutOfMemory { .. }
    ));
    let g32 = ga_baseline(&trace, 32, 2);
    let Some(ga_report) = g32.report() else {
        panic!("GA@2GB must run at 32 procs");
    };
    // And where both run, SIA is faster (the constant offset).
    let sia = aces.simulate(&trace, 32);
    assert!(
        ga_report.total_time > 1.5 * sia.total_time,
        "GA {} vs SIA {}",
        ga_report.total_time,
        sia.total_time
    );
}

#[test]
fn e7a_shape_tuned_bgp_tracks_processor_ratio() {
    let trace = trace_of(figure("fig3"));
    let [(_, xt5), (_, bgp)] = e7a_configs();
    assert_eq!((xt5.workers, bgp.prefetch_depth), (512, 1));
    let ratio = simulate(&trace, &bgp).total_time / simulate(&trace, &xt5).total_time;
    let speed_ratio = xt5.machine.flops_per_core / bgp.machine.flops_per_core;
    assert!(
        (ratio / speed_ratio - 1.0).abs() < 0.5,
        "tuned BG/P ratio {ratio} should track processor ratio {speed_ratio}"
    );
}
