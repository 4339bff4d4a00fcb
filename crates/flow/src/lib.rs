//! # fpga-flow
//!
//! The integrated design framework of the paper's §4: one typed pipeline
//! from VHDL (or BLIF) down to the configuration bitstream, mirroring the
//! six stages of the paper's GUI (Fig. 12):
//!
//! 1. **File Upload** — read the source design;
//! 2. **Synthesis** — VHDL Parser + DIVINER (+ SIS optimization);
//! 3. **Format Translation** — DRUID + E2FMT (+ FlowMap LUT mapping and
//!    T-VPack clustering, which the paper groups under translation);
//! 4. **Power Estimation** — PowerModel;
//! 5. **Placement and Routing** — VPR;
//! 6. **FPGA Program** — DAGGER bitstream generation (and, here, fabric
//!    emulation to *prove* the bitstream implements the design).
//!
//! Every stage can also be driven standalone through the per-tool
//! binaries (`vparse`, `diviner`, `druid`, `e2fmt`, `sis-map`, `tvpack`,
//! `dutys`, `vpr-pr`, `powermodel`, `dagger`), exactly as the paper's
//! modularity requirement states; `flowctl` is the CLI stand-in for the
//! web GUI.

pub mod artifact;
pub mod cache;
pub mod check;
pub mod cli;
pub mod equiv;
pub mod fault;
pub mod hash;
pub mod pipeline;
pub mod report;
pub mod stages;
pub mod store;
pub mod svg;
pub mod sync;
pub mod trace;

pub use artifact::Artifact;
pub use cache::{CacheOutcome, RemoteTier, StageCache, StageId, StageStats};
pub use check::{CheckKind, CheckReport};
pub use equiv::EquivGate;
pub use fault::{CancelReason, CancelToken, FaultAction, FaultPlan, FaultRule, Gate};
pub use fpga_lint::GateMode;
pub use pipeline::{
    compile, run_blif, run_blif_ctx, run_netlist, run_vhdl, run_vhdl_ctx, Compiled, FlowArtifacts,
    FlowCtx, FlowCtxBuilder, FlowOptions, FlowOptionsBuilder, Source,
};
pub use report::{FlowReport, StageReport};
pub use store::{DiskStore, LoadMiss, StoreCounters, StoreSnapshot};
pub use trace::{
    render_waterfall, spans_from_value, SpanId, SpanOutcome, TraceEvent, TraceLog, TraceSpan,
};

/// Single source of truth for the toolset's version, folded into every
/// stage-cache key (a flow upgrade invalidates all cached stages) and
/// reported by every tool binary's `--version`. The `+rN` suffix counts
/// the rolls that moved stage bytes under one package version:
/// `benchmark/flowbench/Cargo.lock` pins the path crates at that
/// version, so a roll does not bump it. `+r1`: the router routes
/// serially.
pub const FLOW_VERSION: &str = concat!("ifdf-", env!("CARGO_PKG_VERSION"), "+r1");

/// Errors from any stage, tagged with the stage name.
#[derive(Debug)]
pub struct FlowError {
    pub stage: &'static str,
    pub message: String,
    /// Every gate finding of the run, when a [`GateMode::Deny`] gate
    /// failed it; empty for any other failure.
    pub diagnostics: Vec<fpga_lint::Diagnostic>,
}

impl FlowError {
    /// A failure that carries no findings.
    pub fn new(stage: &'static str, message: impl Into<String>) -> Self {
        FlowError {
            stage,
            message: message.into(),
            diagnostics: Vec::new(),
        }
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.stage, self.message)
    }
}

impl std::error::Error for FlowError {}

pub type Result<T> = std::result::Result<T, FlowError>;

/// Tag an error with its stage.
pub fn stage_err<E: std::fmt::Display>(stage: &'static str) -> impl Fn(E) -> FlowError {
    move |e| FlowError::new(stage, e.to_string())
}
