//! The repo benchmark: four long workloads, end-to-end metrics from
//! untraced repeats, per-layer metrics from outside the system.
//!
//! ```text
//! sia-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sia-benchmark --selfcheck [--runs <n>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! One invocation runs one workload in one process. With `--trace 0` it
//! sets the workload up [`SETUPS`] times (each ending in one untimed,
//! checked warm-up repeat), then times repeats for `--seconds` seconds (at
//! least [`MIN_REPEATS`]) and reports medians, each timed region as the
//! seconds it would have taken on a quiet host (`gauge.rs`). With
//! `--trace 1` it runs the
//! layer probes, alternates untraced and traced repeats, reads the layer
//! metrics from the last traced repeat and writes the harness spans to
//! `out/<workload>.trace.json`. The last line of standard output is the
//! result; the line before it describes the host and lists every raw
//! timing. See `README.md`.

mod batch;
mod gauge;
mod host;
mod json;
mod layers;
mod probes;
mod selfcheck;
mod serve;
mod spans;
mod stats;
mod workload;

use gauge::Gauge;
use json::Json;
use spans::Spans;
use stats::median;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Repeat, RunFacts, Workload};

/// Set-ups per untraced invocation; `setup_s` is their median, which drops
/// the first one's cold start.
const SETUPS: usize = 3;
/// Fewest timed repeats behind a median, however short `--seconds` is.
const MIN_REPEATS: usize = 5;
/// Fewest untraced/traced pairs in a traced invocation.
const MIN_TRACED_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Selfcheck(selfcheck::Options),
}

fn usage() -> String {
    format!(
        "usage: sia-benchmark --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n\
         \x20      sia-benchmark --selfcheck [--runs <n>] [--seed <u64>] [--seconds <s>]",
        workload::NAMES.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut selfcheck = false;
    let (mut workload, mut seed, mut seconds, mut trace, mut runs) =
        (None, 1u64, None, false, 1usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"expected a positive number"));
                }
                seconds = Some(s);
            }
            "--runs" => runs = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if selfcheck {
        return Ok(Mode::Selfcheck(selfcheck::Options {
            runs: runs.max(1),
            seed,
            seconds,
        }));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("no workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn make(name: &str, seed: u64, data: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve_mix" => Box::new(serve::ServeMix::new(seed, data)?),
        _ => Box::new(batch::Batch::new(name, seed, data)?),
    })
}

/// A timed region: the seconds it took and the host's mean slowdown while
/// it ran.
#[derive(Clone, Copy)]
struct Timed {
    raw_s: f64,
    slowdown: f64,
}

impl Timed {
    /// The seconds the region would have taken on a quiet host.
    fn quiet_s(self) -> f64 {
        gauge::quiet_seconds(self.raw_s, self.slowdown)
    }
}

fn raw_s(regions: &[Timed]) -> Vec<f64> {
    regions.iter().map(|t| t.raw_s).collect()
}

fn slowdowns(regions: &[Timed]) -> Vec<f64> {
    regions.iter().map(|t| t.slowdown).collect()
}

fn quiet_s(regions: &[Timed]) -> Vec<f64> {
    regions.iter().map(|t| t.quiet_s()).collect()
}

/// Everything the repeats of one invocation added up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    /// Every timed untraced repeat.
    walls: Vec<Timed>,
    /// Peak resident set during each timed untraced repeat.
    peak_rss_mb: Vec<f64>,
    /// Every traced repeat.
    traced_walls: Vec<Timed>,
    /// Kind of every job of the timed untraced repeats, and its seconds
    /// under its repeat's slowdown.
    jobs: Vec<(&'static str, Timed)>,
    /// The last traced repeat's runs.
    runs: Vec<RunFacts>,
}

impl Tally {
    /// `(kind, quiet seconds)` of every job.
    fn quiet_jobs(&self) -> Vec<(&'static str, f64)> {
        self.jobs.iter().map(|&(k, t)| (k, t.quiet_s())).collect()
    }

    /// Counts a repeat's operations; warm-ups count, their timings do not.
    fn count(&mut self, rep: &mut Repeat) {
        self.attempted += rep.attempted;
        for f in rep.failures.drain(..) {
            eprintln!("FAILED {f}");
            self.failures.push(f);
        }
    }
}

struct Outcome {
    tally: Tally,
    setups: Vec<Timed>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    missing_keys: Vec<String>,
}

fn run(
    args: &Args,
    data: &Path,
    spans: &Spans,
    gauge: &Gauge,
    process_start: Instant,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let timed = |from: Instant, raw_s: f64| Timed {
        raw_s,
        slowdown: gauge.slowdown(from, Instant::now()),
    };

    // ---- set-up: inputs → compile → verify → plan → start → warm-up -------
    let planned = if args.trace { 1 } else { SETUPS };
    let mut setups = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    for k in 0..planned {
        if k > 0 {
            // Dropping the previous set-up joins its threads before its
            // files go; neither is part of the next one's time.
            drop(current.take());
            let _ = std::fs::remove_dir_all(data.join(format!("setup-{}", k - 1)));
        }
        let start = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (made, _) = spans.time("setup", None, |setup| -> Result<_, String> {
            let mut w = make(&args.workload, args.seed, &data.join(format!("setup-{k}")))?;
            w.prepare(spans, setup)?;
            let (mut warm, _) = spans.time("warmup", setup, |r| w.repeat(false, spans, r));
            tally.count(&mut warm);
            Ok(w)
        });
        setups.push(timed(start, start.elapsed().as_secs_f64()));
        let mut w = made?;
        w.tidy();
        current = Some(w);
    }
    let mut w = current.ok_or("no set-up ran")?;

    // ---- layer probes (traced invocations only) ------------------------------
    let mut layer: layers::Values = Vec::new();
    if args.trace {
        let (probed, _) = spans.time("probes", None, |_| {
            probes::run(w.probe_input(), &data.join("probes"))
        });
        layer.extend(probed?);
    }

    // ---- the measured window -------------------------------------------------
    let window = Duration::from_secs_f64(args.seconds);
    let begin = Instant::now();
    let enough = |t: &Tally| {
        let floor = if args.trace {
            MIN_TRACED_PAIRS
        } else {
            MIN_REPEATS
        };
        t.walls.len() >= floor && begin.elapsed() >= window
    };
    while !enough(&tally) {
        host::reset_peak_rss()?;
        let from = Instant::now();
        let (mut rep, _) = spans.time("repeat", None, |r| w.repeat(false, spans, r));
        let wall = timed(from, rep.wall_s);
        tally.peak_rss_mb.push(host::peak_rss_mb()?);
        tally.count(&mut rep);
        tally.walls.push(wall);
        tally.jobs.extend(rep.jobs.drain(..).map(|(kind, raw_s)| {
            let job = Timed {
                raw_s,
                slowdown: wall.slowdown,
            };
            (kind, job)
        }));
        w.tidy();
        if args.trace {
            let from = Instant::now();
            let (mut rep, _) = spans.time("traced_repeat", None, |r| w.repeat(true, spans, r));
            tally.count(&mut rep);
            tally.traced_walls.push(timed(from, rep.wall_s));
            tally.runs = std::mem::take(&mut rep.runs);
            w.tidy();
        }
    }

    // ---- metrics ---------------------------------------------------------------
    let quiet_jobs = tally.quiet_jobs();
    let (values, missing_keys) = if args.trace {
        let flops_per_contraction = w.probe_input().contraction.flops()?;
        let (from_runs, missing) = layers::from_runs(&tally.runs, flops_per_contraction);
        layer.extend(from_runs);
        layer.extend(layers::from_jobs(&quiet_jobs));
        let overhead = median(&quiet_s(&tally.traced_walls)) / median(&quiet_s(&tally.walls)) - 1.0;
        layer.push(("events.trace_overhead_frac", overhead));
        (layer, missing)
    } else {
        let smallest_peak = tally
            .peak_rss_mb
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let jobs: Vec<f64> = quiet_jobs.iter().map(|&(_, s)| s).collect();
        let end_to_end = vec![
            ("wall_s", median(&quiet_s(&tally.walls))),
            ("setup_s", median(&quiet_s(&setups))),
            ("peak_rss_mb", smallest_peak),
            ("job_p50_s", median(&jobs)),
        ];
        (end_to_end, Vec::new())
    };
    let declared = if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    let metrics = declared
        .iter()
        .map(|&(name, unit, _)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            value
                .map(|v| (name, v, unit))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Outcome {
        tally,
        setups,
        metrics,
        missing_keys,
    })
}

/// The data directory of this invocation and every run in it: on tmpfs
/// (`/dev/shm`) when there is one, else under the harness's own `out/`.
///
/// On a disk the `served_sweep` files cost 13 times what they cost on tmpfs
/// (ext4 with `discard` on a virtio device), so the device and not the I/O
/// server would be the signal; the report records which one was used.
fn data_root() -> PathBuf {
    let name = format!("sia-benchmark-{}", std::process::id());
    let shm = Path::new("/dev/shm").join(&name);
    if std::fs::create_dir_all(&shm).is_ok() {
        shm
    } else {
        host::out_dir().join(name)
    }
}

/// What the report says about where the invocation ran.
struct Place {
    host_cpus: usize,
    cpus_used: Vec<usize>,
    data: PathBuf,
}

fn report(args: &Args, place: &Place, out: &Outcome) -> Json {
    let mut fields = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
    ];
    fields.extend(host::describe(
        place.host_cpus,
        &place.cpus_used,
        &place.data,
    ));
    let t = &out.tally;
    let job_s: Vec<f64> = t.jobs.iter().map(|(_, job)| job.raw_s).collect();
    fields.extend([
        ("setups".to_string(), Json::Num(out.setups.len() as f64)),
        ("timed_repeats".into(), Json::Num(t.walls.len() as f64)),
        (
            "traced_repeats".into(),
            Json::Num(t.traced_walls.len() as f64),
        ),
        ("timed_jobs".into(), Json::Num(job_s.len() as f64)),
        ("raw_setup_s".into(), Json::nums(&raw_s(&out.setups))),
        ("setup_slowdown".into(), Json::nums(&slowdowns(&out.setups))),
        ("raw_wall_s".into(), Json::nums(&raw_s(&t.walls))),
        ("wall_slowdown".into(), Json::nums(&slowdowns(&t.walls))),
        ("raw_peak_rss_mb".into(), Json::nums(&t.peak_rss_mb)),
        (
            "raw_traced_wall_s".into(),
            Json::nums(&raw_s(&t.traced_walls)),
        ),
        (
            "traced_wall_slowdown".into(),
            Json::nums(&slowdowns(&t.traced_walls)),
        ),
        // In repeat order, as many per repeat; a job's slowdown is its
        // repeat's.
        ("raw_job_s".into(), Json::nums(&job_s)),
        (
            "failures".into(),
            Json::Arr(t.failures.iter().take(10).map(Json::str).collect()),
        ),
        (
            "profile_keys_missing".into(),
            Json::Arr(out.missing_keys.iter().map(Json::str).collect()),
        ),
    ]);
    Json::obj([("report", Json::Obj(fields))])
}

fn result_line(out: &Outcome) -> Json {
    let metrics = out.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.tally.failures.is_empty())),
        ("attempted", Json::Num(out.tally.attempted as f64)),
        ("failed", Json::Num(out.tally.failures.len() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::Selfcheck(options)) => return selfcheck::run(&options),
        Err(e) => {
            eprintln!("sia-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The workload's threads, all started after this, run on the first one
    // or two CPUs this process may use, and the host gauge samples those.
    let wanted = if workload::ON_ONE_CPU.contains(&args.workload.as_str()) {
        1
    } else {
        2
    };
    let cpus = host::allowed_cpus().and_then(|allowed| {
        if allowed.len() < 2 {
            return Err(format!(
                "{} CPU; `ccsd_dense` computes on two and needs 2",
                allowed.len()
            ));
        }
        host::restrict_this_thread(&allowed[..wanted])?;
        Ok((allowed.len(), allowed[..wanted].to_vec()))
    });
    let (host_cpus, cpus_used) = match cpus {
        Ok(cpus) => cpus,
        Err(e) => {
            eprintln!("sia-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let gauge = Gauge::start(&cpus_used);
    let place = Place {
        host_cpus,
        cpus_used,
        data: data_root(),
    };
    let spans = Spans::new(args.trace);
    let outcome = std::fs::create_dir_all(&place.data)
        .map_err(|e| format!("create {}: {e}", place.data.display()))
        .and_then(|()| run(&args, &place.data, &spans, &gauge, process_start));
    drop(gauge);
    let _ = std::fs::remove_dir_all(&place.data);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sia-benchmark: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = host::out_dir().join(format!("{}.trace.json", args.workload));
        let doc = Json::obj([
            ("workload", Json::str(&args.workload)),
            ("spans", spans.to_json(&args.workload)),
        ]);
        let written = std::fs::create_dir_all(host::out_dir())
            .and_then(|()| std::fs::write(&path, format!("{doc}\n")));
        if let Err(e) = written {
            eprintln!("sia-benchmark: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report(&args, &place, &outcome));
    println!("{}", result_line(&outcome));
    if outcome.tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let Ok(Mode::Run(a)) = parse(&[
            "--workload",
            "putget_fine",
            "--seed",
            "9",
            "--seconds",
            "14",
            "--trace",
            "1",
        ]) else {
            panic!("expected a run");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("putget_fine", 9, 14.0, true)
        );
        assert!(
            matches!(parse(&["--selfcheck", "--runs", "10"]), Ok(Mode::Selfcheck(o)) if o.runs == 10)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(
            parse(&["--workload", "serve_mix"]).is_err(),
            "--seconds is required"
        );
        assert!(parse(&["--workload", "serve_mix", "--seconds", "5", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "serve_mix", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "serve_mix", "--seed"]).is_err());
        assert!(parse(&["--workload", "serve_mix", "--bogus", "1"]).is_err());
    }
}
