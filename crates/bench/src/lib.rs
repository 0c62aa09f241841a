//! The paper's evaluation (§VI) as data.
//!
//! Every simulated strong-scaling figure is one row of [`FIGURES`]: a
//! workload on one or more molecules, its segment size, the worker count its
//! dry-run trace is generated for, and the machine series it is swept over.
//! The `figures` binary prints each row's table and writes it as a TSV under
//! `results/`, beside the cases a row cannot hold (the Figure 6 inset, the
//! Figure 7 GA columns, E7, E8, the ablations); `tests/figure_shapes.rs`
//! asserts the paper's findings on the same rows, so the two cannot drift.

use sia_chem::{
    ccsd_iteration, ccsd_t_triples, fock_build, mp2_energy, Molecule, Workload, CYTOSINE_OH,
    DIAMOND_NC, HMX, LUCIFERIN, RDX, WATER_21,
};
use sia_runtime::trace::Trace;
use sia_sim::machine::{BLUEGENE_P, CRAY_XT4, CRAY_XT5, SGI_ALTIX, SUN_OPTERON_IB};
use sia_sim::{simulate, simulate_ga, GaConfig, GaOutcome, MachineModel, SimConfig, SimReport};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A printable/serializable result table for one figure.
pub struct FigTable {
    /// Table title (printed as a header).
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
}

impl FigTable {
    /// Creates a table with the given title and columns.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        FigTable {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// The header, then the rows.
    fn lines(&self) -> impl Iterator<Item = &Vec<String>> {
        std::iter::once(&self.columns).chain(&self.rows)
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| self.lines().map(|row| row[i].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for row in self.lines() {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                let _ = write!(line, "{:>w$}  ", c, w = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Writes a TSV file under `results/`.
    pub fn write_tsv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.tsv"));
        let body: String = self.lines().map(|row| row.join("\t") + "\n").collect();
        fs::write(&path, body)?;
        Ok(path)
    }
}

/// The repository `results/` directory.
pub fn results_dir() -> PathBuf {
    // crates/bench → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats seconds as `123.4 s` or `5.67 min` like the paper's axes.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 120.0 {
        format!("{:.1} min", seconds / 60.0)
    } else {
        format!("{seconds:.1} s")
    }
}

/// Formats an efficiency as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One curve of a figure: a machine and the processor counts it runs at.
pub struct Series {
    /// Row label (Figure 3's "machine" column).
    pub label: &'static str,
    /// The simulated machine.
    pub machine: MachineModel,
    /// The paper's processor counts.
    pub procs: &'static [u64],
    /// The reduced sweep `figures --quick` runs.
    pub quick: &'static [u64],
}

impl Series {
    /// The full or the quick processor sweep.
    pub fn procs(&self, quick: bool) -> &'static [u64] {
        if quick {
            self.quick
        } else {
            self.procs
        }
    }

    /// `trace` simulated on `procs` workers of this series' machine.
    pub fn simulate(&self, trace: &Trace, procs: u64) -> SimReport {
        simulate(trace, &SimConfig::sip(self.machine, procs))
    }
}

/// What one figure column shows of a simulated point.
#[derive(Debug, Clone, Copy)]
pub enum Col {
    /// The molecule's name.
    Molecule,
    /// The series label.
    Series,
    /// The processor count.
    Procs,
    /// Wall time, `61.0 min` or `39.3 s`.
    Time,
    /// Wall time in seconds, one decimal.
    Seconds,
    /// Efficiency relative to the first processor count of the series.
    Efficiency,
    /// Share of worker time spent waiting.
    Wait,
}

/// One simulated strong-scaling figure: rows are molecule × series ×
/// processor count.
#[derive(Clone, Copy)]
pub struct Figure {
    /// Command-line name, and the TSV's file name under `results/`.
    pub name: &'static str,
    /// Table title.
    pub title: &'static str,
    /// The workload, given a molecule and a segment size.
    pub workload: fn(&Molecule, usize) -> Workload,
    /// The molecules it runs on, one block of rows each.
    pub molecules: &'static [Molecule],
    /// Segment size.
    pub seg: usize,
    /// Worker count the dry-run trace is generated for.
    pub trace_ranks: usize,
    /// The machine curves.
    pub series: &'static [Series],
    /// Column headers and what each shows.
    pub columns: &'static [(&'static str, Col)],
}

impl Figure {
    /// The dry-run trace of the workload on `m` (one I/O server).
    pub fn trace(&self, m: &Molecule) -> Trace {
        (self.workload)(m, self.seg)
            .trace(self.trace_ranks, 1)
            .unwrap_or_else(|e| panic!("{} trace for {}: {e}", self.name, m.name))
    }

    /// The figure's table: the full or the quick processor sweeps.
    pub fn table(&self, quick: bool) -> FigTable {
        let headers: Vec<&str> = self.columns.iter().map(|&(h, _)| h).collect();
        let mut table = FigTable::new(self.title, &headers);
        for m in self.molecules {
            let trace = &self.trace(m);
            for series in self.series {
                let procs = series.procs(quick);
                let mut reference = None;
                for &p in procs {
                    let r = series.simulate(trace, p);
                    let reference = reference.get_or_insert_with(|| r.clone());
                    let cell = |col| match col {
                        Col::Molecule => m.name.to_string(),
                        Col::Series => series.label.to_string(),
                        Col::Procs => p.to_string(),
                        Col::Time => fmt_time(r.total_time),
                        Col::Seconds => format!("{:.1}", r.total_time),
                        Col::Efficiency => fmt_pct(r.efficiency_vs(reference, procs[0], p)),
                        Col::Wait => fmt_pct(r.wait_fraction),
                    };
                    table.row(self.columns.iter().map(|&(_, col)| cell(col)).collect());
                }
            }
        }
        table
    }
}

/// One CCSD iteration, the workload of Figures 2–4.
fn ccsd(m: &Molecule, seg: usize) -> Workload {
    ccsd_iteration(m, seg, 1)
}

/// The simulated figures of §VI, one row each.
#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "fig2", title: "Figure 2: Luciferin RHF CCSD, Sun Opteron + InfiniBand",
        workload: ccsd, molecules: &[LUCIFERIN], seg: 26, trace_ranks: 32,
        series: &[Series { label: "", machine: SUN_OPTERON_IB,
                           procs: &[32, 64, 128, 256], quick: &[32, 256] }],
        columns: &[("procs", Col::Procs), ("time/iter", Col::Time),
                   ("efficiency vs 32", Col::Efficiency), ("% wait", Col::Wait)],
    },
    Figure {
        name: "fig3", title: "Figure 3: (H2O)21H+ RHF CCSD, Cray XT4 vs Cray XT5",
        workload: ccsd, molecules: &[WATER_21], seg: 41, trace_ranks: 512,
        series: &[Series { label: "XT4", machine: CRAY_XT4,
                           procs: &[512, 1024, 2048], quick: &[512, 2048] },
                  Series { label: "XT5", machine: CRAY_XT5,
                           procs: &[512, 1024, 2048, 4096], quick: &[512, 4096] }],
        columns: &[("machine", Col::Series), ("procs", Col::Procs), ("time/iter", Col::Time)],
    },
    Figure {
        name: "fig4", title: "Figure 4: RDX and HMX RHF CCSD, Cray XT5 (jaguar)",
        workload: ccsd, molecules: &[RDX, HMX], seg: 15, trace_ranks: 1000,
        series: &[Series { label: "XT5", machine: CRAY_XT5,
                           procs: &[1000, 2000, 4000, 6000, 8000], quick: &[1000, 8000] }],
        columns: &[("molecule", Col::Molecule), ("procs", Col::Procs), ("time", Col::Time),
                   ("efficiency vs 1000", Col::Efficiency)],
    },
    Figure {
        // Fine segmentation: (T) runs on small blocks for task count.
        name: "fig5", title: "Figure 5: RDX RHF CCSD(T), Cray XT5 (jaguar)",
        workload: ccsd_t_triples, molecules: &[RDX], seg: 8, trace_ranks: 10_000,
        series: &[Series { label: "XT5", machine: CRAY_XT5,
                           procs: &[10_000, 20_000, 30_000, 40_000, 60_000, 80_000],
                           quick: &[10_000, 80_000] }],
        columns: &[("procs", Col::Procs), ("time", Col::Time),
                   ("efficiency vs 10000", Col::Efficiency), ("% wait", Col::Wait)],
    },
    Figure {
        name: "fig6", title: "Figure 6: diamond nanocrystal (2944 bf) Fock build, Cray XT5",
        workload: fock_build, molecules: &[DIAMOND_NC], seg: 32, trace_ranks: 1024,
        series: &[Series { label: "XT5", machine: CRAY_XT5,
                           procs: &[12_000, 24_000, 36_000, 48_000, 60_000, 72_000, 84_000,
                                    96_000, 108_000],
                           quick: &[12_000, 72_000, 108_000] }],
        columns: &[("cores", Col::Procs), ("time (s)", Col::Seconds),
                   ("efficiency vs 12000", Col::Efficiency)],
    },
    Figure {
        name: "fig7",
        title: "Figure 7: cytosine+OH UHF MP2, SGI Altix 4700 — ACES III vs GA baseline",
        workload: mp2_energy, molecules: &[CYTOSINE_OH], seg: 16, trace_ranks: 16,
        series: &[Series { label: "ACES III", machine: SGI_ALTIX.with_mem_per_core(1 << 30),
                           procs: &[16, 32, 64, 128, 256], quick: &[16, 256] }],
        columns: &[("procs", Col::Procs), ("ACES III (1GB)", Col::Time)],
    },
];

/// The figure named `name` (`fig2` … `fig7`).
pub fn figure(name: &str) -> &'static Figure {
    FIGURES.iter().find(|f| f.name == name).expect(name)
}

/// Figure 7's Global Arrays baseline: `trace` on `procs` cores of the
/// figure's machine with `gb` GB per core. GA's semidirect MP2 gradient
/// materializes a half-transformed o·n³ intermediate with a rigid layout —
/// the quantity that blows the 1 GB budget; the SIA run streams it instead.
pub fn ga_baseline(trace: &Trace, procs: u64, gb: u64) -> GaOutcome {
    let fig = figure("fig7");
    let m = &fig.molecules[0];
    let (o, n) = (m.n_occ as u64, m.n_ao as u64);
    let machine = fig.series[0].machine.with_mem_per_core(gb << 30);
    simulate_ga(trace, &GaConfig::new(machine, procs), o * n * n * n * 8)
}

/// E7a (§VI-A): Figure 3's CCSD iteration at its trace size on the XT5 with
/// deep prefetch, and on BlueGene/P with prefetch retuned to depth 1. Each
/// machine's block cache is a quarter of its memory per core: a block of T
/// at Figure 3's segment size is ≈ 22.6 MB, so BG/P's 512 MB holds a handful
/// and the XT5's 2 GB dozens.
pub fn e7a_configs() -> [(&'static str, SimConfig); 2] {
    let fig3 = figure("fig3");
    let block_bytes = (fig3.seg as u64).pow(4) * 8;
    let config = |machine: MachineModel, prefetch_depth| SimConfig {
        prefetch_depth,
        cache_blocks: (machine.mem_per_core / 4 / block_bytes).max(2),
        ..SimConfig::sip(machine, fig3.trace_ranks as u64)
    };
    [
        ("Cray XT5, tuned", config(fig3.series[1].machine, 8)),
        ("BlueGene/P, prefetch retuned", config(BLUEGENE_P, 1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = FigTable::new("demo", &["procs", "time"]);
        t.row(vec!["32".into(), "61.0 min".into()]);
        t.row(vec!["256".into(), "9.8 min".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("procs"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = FigTable::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(30.0), "30.0 s");
        assert_eq!(fmt_time(300.0), "5.0 min");
        assert_eq!(fmt_pct(0.875), "87.5%");
    }
}
