//! The one job grammar: the flags `sial run` reads from its command line
//! and `siald` reads from each `submit` line,
//!
//! ```text
//! --workers 4 --seg 8 --bind n=6 --fault-seed 7 --fault-plan drop=0.05 --chem
//! ```
//!
//! parsed into a validated [`SipConfig`], the constant bindings and the
//! super-instruction registry. A few flags belong to one reader only: the
//! daemon owns a job's run directory and exports (`--run-dir`, `--trace`,
//! `--profile-json`) and has no terminal (`-o`, `--profile`, `--check`,
//! `--json`, `--watch`, `--machine`), and only the daemon reads `--tenant`,
//! `--priority` and `--export`. Each reader refuses the other's flags by
//! name rather than dropping them.

use crate::{
    ConstBindings, CrashSchedule, FaultConfig, FaultPlan, MachineModel, Program, SegmentConfig,
    SipConfig, SuperRegistry,
};
use sia_sim::machine::{BLUEGENE_P, CRAY_XT4, CRAY_XT5, SGI_ALTIX, SUN_OPTERON_IB};

/// Who reads the flags: they are the same grammar, but each refuses the
/// flags only the other one reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// The `sial` command line.
    Cli,
    /// A `siald` `submit` request.
    Daemon,
}

/// A parsed job: what the SIP is started with, plus what the reader does
/// around the run.
pub struct JobOpts {
    /// The validated run configuration.
    pub config: SipConfig,
    /// `--bind` constants.
    pub bindings: ConstBindings,
    /// The super instructions the job may `execute` (the chemistry kernels
    /// under `--chem`).
    pub registry: SuperRegistry,
    /// `-o`: the output path of `sial compile`.
    pub output: Option<String>,
    /// `--profile`: print the per-instruction profile after a run.
    pub profile: bool,
    /// `--check`: verify the program before running it.
    pub check: bool,
    /// `--json`: `sial check` reports as `sia.diag.v1` JSON.
    pub json: bool,
    /// `--watch`: `sial check` re-checks on every file change.
    pub watch: bool,
    /// `--machine`: the machine `sial simulate` models.
    pub machine: MachineModel,
    /// `--tenant`: the daemon tenant the job runs for.
    pub tenant: String,
    /// `--priority`: the job's place in the daemon's run-slot queue.
    pub priority: u32,
    /// `--export 0|1`: write the job's per-tenant trace and profile.
    pub export: bool,
}

/// Parses job flags as `surface` reads them.
pub fn parse_opts(args: &[impl AsRef<str>], surface: Surface) -> Result<JobOpts, String> {
    let mut output = None;
    let mut bindings = ConstBindings::new();
    let mut chem = false;
    let mut profile = false;
    let mut check = false;
    let mut json = false;
    let mut watch = false;
    let mut seg = 8usize;
    let mut nsub = 2usize;
    let mut machine = CRAY_XT5;
    let mut tenant = "default".to_string();
    let mut priority = 1u32;
    let mut export = true;
    let mut fault_seed: Option<u64> = None;
    let mut fault_spec: Option<String> = None;
    let mut builder = SipConfig::builder();
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(a) = it.next() {
        let mut need = |name: &str| {
            it.next()
                .map(str::to_string)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a {
            "-o" | "--run-dir" | "--trace" | "--profile-json" | "--profile" | "--check"
            | "--json" | "--watch" | "--machine"
                if surface == Surface::Daemon =>
            {
                return Err(format!("`{a}` is not an option of a siald job"));
            }
            "--tenant" | "--priority" | "--export" if surface == Surface::Cli => {
                return Err(format!("`{a}` is an option of a siald job (sial submit)"));
            }
            "-o" => output = Some(need("-o")?),
            "--workers" => {
                builder = builder.workers(
                    need("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--io" => {
                builder =
                    builder.io_servers(need("--io")?.parse().map_err(|e| format!("--io: {e}"))?)
            }
            "--seg" => seg = need("--seg")?.parse().map_err(|e| format!("--seg: {e}"))?,
            "--nsub" => {
                nsub = need("--nsub")?
                    .parse()
                    .map_err(|e| format!("--nsub: {e}"))?
            }
            "--prefetch" => {
                builder = builder.prefetch_depth(
                    need("--prefetch")?
                        .parse()
                        .map_err(|e| format!("--prefetch: {e}"))?,
                )
            }
            "--cache" => {
                builder = builder.cache_blocks(
                    need("--cache")?
                        .parse()
                        .map_err(|e| format!("--cache: {e}"))?,
                )
            }
            "--memory-budget" | "--budget" => {
                builder = builder.memory_budget(need(a)?.parse().map_err(|e| format!("{a}: {e}"))?)
            }
            "--run-dir" => builder = builder.run_dir(need("--run-dir")?),
            "--trace" => builder = builder.trace_path(need("--trace")?),
            "--trace-buffer" => {
                builder = builder.trace_buffer_events(
                    need("--trace-buffer")?
                        .parse()
                        .map_err(|e| format!("--trace-buffer: {e}"))?,
                )
            }
            "--profile-json" => builder = builder.profile_json(need("--profile-json")?),
            "--bind" => {
                let kv = need("--bind")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--bind expects k=v, got `{kv}`"))?;
                let v: i64 = v.parse().map_err(|e| format!("--bind {k}: {e}"))?;
                bindings.insert(k.to_string(), v);
            }
            "--sparsity-threshold" => {
                builder = builder.sparsity_threshold(
                    need("--sparsity-threshold")?
                        .parse()
                        .map_err(|e| format!("--sparsity-threshold: {e}"))?,
                )
            }
            "--density" => {
                let kv = need("--density")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--density expects name=frac, got `{kv}`"))?;
                let v: f64 = v.parse().map_err(|e| format!("--density {k}: {e}"))?;
                builder = builder.sparsity_density(k, v);
            }
            "--fault-seed" => {
                fault_seed = Some(
                    need("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("--fault-seed: {e}"))?,
                )
            }
            "--fault-plan" => fault_spec = Some(need("--fault-plan")?),
            "--machine" => {
                let name = need("--machine")?;
                machine = match name.as_str() {
                    "sun" => SUN_OPTERON_IB,
                    "xt4" => CRAY_XT4,
                    "xt5" => CRAY_XT5,
                    "altix" => SGI_ALTIX,
                    "bgp" => BLUEGENE_P,
                    other => return Err(format!("unknown machine `{other}`")),
                };
            }
            "--tenant" => tenant = need("--tenant")?,
            "--priority" => {
                priority = need("--priority")?
                    .parse()
                    .map_err(|e| format!("--priority: {e}"))?
            }
            "--export" => {
                export = match need("--export")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--export expects 0 or 1, got `{other}`")),
                }
            }
            "--chem" => chem = true,
            "--profile" => profile = true,
            "--check" => check = true,
            "--json" => json = true,
            "--watch" => watch = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    builder = builder.segments(SegmentConfig {
        default: seg,
        nsub,
        ..Default::default()
    });
    if fault_spec.is_some() && fault_seed.is_none() {
        return Err("--fault-plan needs --fault-seed for a reproducible run".into());
    }
    if let Some(seed) = fault_seed {
        let spec = fault_spec.as_deref().unwrap_or("");
        builder = builder.fault(parse_fault_spec(spec, seed)?);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let mut registry = SuperRegistry::new();
    if chem {
        // The occupied count for denominators: `nocc` binding × segment
        // size when present.
        let n_occ = bindings
            .get("nocc")
            .map(|&o| o as usize * seg)
            .unwrap_or(seg);
        sia_chem::register_integrals(&mut registry, seg, n_occ);
    }
    Ok(JobOpts {
        config,
        bindings,
        registry,
        output,
        profile,
        check,
        json,
        watch,
        machine,
        tenant,
        priority,
        export,
    })
}

/// Parses a `--fault-plan` spec (`drop=0.05,dup=0.01,delay=0.02,crash=1@8`)
/// into a fabric plan plus an optional runtime crash schedule.
fn parse_fault_spec(spec: &str, seed: u64) -> Result<FaultConfig, String> {
    let mut plan = FaultPlan::seeded(seed);
    let mut crash = None;
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("--fault-plan expects k=v parts, got `{part}`"))?;
        match k {
            "drop" => plan.drop = v.parse().map_err(|e| format!("fault drop: {e}"))?,
            "dup" | "duplicate" => {
                plan.duplicate = v.parse().map_err(|e| format!("fault dup: {e}"))?
            }
            "delay" => plan.delay = v.parse().map_err(|e| format!("fault delay: {e}"))?,
            "crash" => {
                let (w, i) = v
                    .split_once('@')
                    .ok_or_else(|| format!("crash expects W@I, got `{v}`"))?;
                crash = Some(CrashSchedule {
                    worker: w.parse().map_err(|e| format!("crash worker: {e}"))?,
                    after_iterations: i.parse().map_err(|e| format!("crash iterations: {e}"))?,
                });
            }
            other => return Err(format!("unknown fault-plan key `{other}`")),
        }
    }
    let mut fault = FaultConfig::new(plan);
    fault.crash = crash;
    Ok(fault)
}

/// Loads a program file: SIA bytecode (`SIAB…`) is decoded, anything else
/// compiled as SIAL source, with diagnostics located in `path`.
pub fn load_program(path: &str) -> Result<Program, String> {
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if data.starts_with(b"SIAB") {
        sia_bytecode::decode_program(&data).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(data).map_err(|_| format!("{path}: not UTF-8"))?;
        sial_frontend::compile_file(path, &text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon's refusals are pinned by siald's request table; these are
    /// the command line's.
    #[test]
    fn the_command_line_refuses_the_daemon_flags_by_name() {
        for flag in ["--tenant", "--priority", "--export"] {
            let err = parse_opts(&[flag, "1"], Surface::Cli).err().unwrap();
            assert!(err.contains(&format!("`{flag}`")), "{err}");
        }
    }

    #[test]
    fn a_daemon_job_reads_the_run_flags_and_its_own() {
        let line = "--workers 3 --seg 4 --bind n=6 --fault-seed 7 --fault-plan \
                    drop=0.05,crash=1@2 --tenant alice --priority 2 --export 0 --chem";
        let args: Vec<&str> = line.split_whitespace().collect();
        let o = parse_opts(&args, Surface::Daemon).unwrap();
        assert_eq!(o.config.workers, 3);
        assert_eq!(o.config.segments.default, 4);
        assert_eq!(o.bindings["n"], 6);
        let fault = o.config.fault.as_ref().unwrap();
        assert_eq!((fault.plan.seed, fault.plan.drop), (7, 0.05));
        assert_eq!(fault.crash.as_ref().unwrap().after_iterations, 2);
        assert_eq!(
            (o.tenant.as_str(), o.priority, o.export),
            ("alice", 2, false)
        );
        assert!(o.registry.contains("compute_integrals"));
    }

    /// The options go through the validating builder: a prefetch depth the
    /// cache cannot hold is refused, not launched.
    #[test]
    fn an_invalid_combination_is_refused() {
        let err = parse_opts(&["--cache", "1"], Surface::Cli).err().unwrap();
        assert!(err.contains("prefetch_depth"), "{err}");
    }
}
