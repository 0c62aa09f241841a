//! # sia — the Super Instruction Architecture in one crate
//!
//! Compile SIAL, run it on the SIP, inspect profiles, or trace and simulate
//! it at supercomputer scale. A job is configured one way in code,
//! [`SipConfig::builder`], and one way on every command line and socket,
//! [`opts::parse_opts`] (the grammar of `sial run` and of a `siald`
//! `submit`). See the `README.md` for a tour and `DESIGN.md` for the system
//! inventory.
//!
//! ```
//! use sia::{ConstBindings, Sip, SipConfig};
//!
//! let src = r#"
//! sial hello_blocks
//! aoindex i = 1, n
//! distributed X(i)
//! temp t(i)
//! scalar total
//! pardo i
//!   t(i) = 1.5
//!   put X(i) = t(i)
//! endpardo i
//! sip_barrier
//! pardo i
//!   get X(i)
//!   total += X(i) * X(i)
//! endpardo i
//! sip_barrier
//! execute sip_allreduce total
//! endsial
//! "#;
//!
//! let config = SipConfig::builder()
//!     .workers(2)
//!     .segment_size(4)
//!     .build()
//!     .unwrap();
//! let mut bindings = ConstBindings::new();
//! bindings.insert("n".into(), 3);
//! let out = Sip::new(config)
//!     .run(sia::compile(src).unwrap(), &bindings)
//!     .unwrap();
//! assert!((out.scalars["total"] - 3.0 * 4.0 * 2.25).abs() < 1e-9);
//! ```

pub mod opts;

pub use sia_blocks as blocks;
pub use sia_bytecode as bytecode;
pub use sia_chem as chem;
pub use sia_fabric as fabric;
pub use sia_runtime as runtime;
pub use sia_sim as sim;
pub use sial_frontend as frontend;

pub use sia_bytecode::{disassemble, ConstBindings, Program};
pub use sia_fabric::{FaultPlan, FaultSnapshot};
pub use sia_runtime::{
    CommKind, CommPlan, ConfigError, CrashSchedule, FaultConfig, FaultStats, MemoryEstimate, Merge,
    Metrics, ProfileReport, RecoveryStats, RunOutput, RuntimeError, SegmentConfig, Sip, SipConfig,
    SipConfigBuilder, SuperArg, SuperEnv, SuperRegistry, TraceSink, TraceTimeline, WaitCause,
};
pub use sia_sim::{MachineModel, SimConfig, SimReport};
pub use sial_frontend::{compile, CompileErrors};

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
sial root_crate
aoindex i = 1, n
distributed X(i)
temp t(i)
scalar s
pardo i
  t(i) = 2.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  s += X(i) * X(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#;

    fn config(workers: usize) -> SipConfig {
        SipConfig::builder()
            .workers(workers)
            .segment_size(4)
            .build()
            .unwrap()
    }

    fn bind_n(n: i64) -> ConstBindings {
        [("n".to_string(), n)].into_iter().collect()
    }

    #[test]
    fn builder_run() {
        let out = Sip::new(config(2))
            .run(compile(SRC).unwrap(), &bind_n(4))
            .unwrap();
        assert!((out.scalars["s"] - 4.0 * 4.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn compile_error_surfaces() {
        let err = compile("sial broken\npardo\nendsial").unwrap_err();
        assert!(err.to_string().contains("error"), "{err}");
    }

    #[test]
    fn runtime_error_surfaces() {
        // `n` is never bound.
        let err = Sip::new(config(2))
            .run(compile(SRC).unwrap(), &ConstBindings::new())
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("symbolic constant `n` has no binding"),
            "{err}"
        );
    }

    #[test]
    fn dry_run_estimates() {
        let est = Sip::new(config(4))
            .dry_run(compile(SRC).unwrap(), &bind_n(8))
            .unwrap();
        assert!(est.per_worker_bytes > 0);
    }

    #[test]
    fn trace_from_builder() {
        use runtime::trace::{default_cost_model, generate};
        let layout =
            runtime::Layout::for_config(compile(SRC).unwrap().into(), &bind_n(8), &config(16))
                .unwrap();
        let t = generate(&layout, &default_cost_model()).unwrap();
        assert!(t.total_flops() > 0);
    }

    #[test]
    fn disassemble_roundtrip() {
        let listing = disassemble(&compile(SRC).unwrap());
        assert!(listing.contains("pardo i"));
        assert!(listing.contains("put X(i) = t(i)"));
    }

    #[test]
    fn custom_kernel_registration() {
        let src = r#"
sial kernel_test
aoindex i = 1, n
temp t(i)
scalar s
pardo i
  execute negate_fill t(i)
  s += t(i) * t(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#;
        let mut sip = Sip::new(config(2));
        sip.registry_mut().register("negate_fill", |args, _env| {
            args[0].block_mut()?.fill(-3.0);
            Ok(())
        });
        let out = sip.run(compile(src).unwrap(), &bind_n(2)).unwrap();
        assert!((out.scalars["s"] - 2.0 * 4.0 * 9.0).abs() < 1e-9);
    }
}
