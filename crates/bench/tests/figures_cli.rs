//! The `figures` command line: `--quick` prints and writes nothing under
//! `results/`, and an unknown figure name fails with the valid ones.

use std::process::Command;

#[test]
fn quick_run_prints_tables_and_leaves_results_untouched() {
    let committed = |name: &str| {
        let path = sia_bench::results_dir().join(format!("{name}.tsv"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let before = [committed("fig2"), committed("fig7")];
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "fig2", "fig7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for title in [
        sia_bench::figure("fig2").title,
        sia_bench::figure("fig7").title,
    ] {
        assert!(stdout.contains(title), "missing `{title}` in:\n{stdout}");
    }
    assert!(!stdout.contains("wrote "), "{stdout}");
    assert_eq!([committed("fig2"), committed("fig7")], before);
}

#[test]
fn unknown_figure_fails_and_names_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("nosuch")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nosuch") && stderr.contains("fig2"),
        "{stderr}"
    );
}
