//! # fpga-lint
//!
//! Design-rule static analysis for the flow: pure passes over every
//! staged IR, emitting structured [`Diagnostic`]s with stable rule codes.
//!
//! The framework's stages silently assume well-formed inputs at every
//! hand-off — exactly the gap real flows close with per-stage checkers.
//! Each pass here is a pure function from an IR (plus the
//! architecture/device where needed) to a list of findings; nothing in
//! this crate mutates a design or touches the pipeline. The `fpga-flow`
//! pipeline runs the passes at stage boundaries when
//! `FlowOptions.lint` is `warn` or `deny`, the flow server exposes them
//! through the `lint` protocol verb, and the standalone `fpga-lint`
//! binary (in `fpga-flow`, which owns the stage drivers) runs them
//! offline.
//!
//! Rule codes are append-only and never change meaning:
//!
//! | code  | stage     | finding |
//! |-------|-----------|---------|
//! | NL001 | netlist   | combinational loop |
//! | NL002 | netlist   | multiply-driven net |
//! | NL003 | netlist   | undriven / dangling net |
//! | PK001 | pack      | cluster exceeds N/K/I/clock limits |
//! | PL001 | place     | overlapping or out-of-bounds placement |
//! | RT001 | route     | routing-resource overuse (short) |
//! | RT002 | route     | disconnected routed net |
//! | BS001 | bitstream | bitstream inconsistent with routed design |
//! | EQ001 | verify    | stage artifact not equivalent to the netlist |
//! | EQ002 | verify    | bitstream-decoded fabric not equivalent to the netlist |
//! | EQ003 | verify    | unverifiable cone (equivalence unknown) |
//!
//! The EQ rules are emitted by the `fpga-verify` equivalence engine (the
//! checks live there, not in this crate) but share the catalogue, the
//! severity policy, and every reporting surface with the structural
//! rules. EQ001/EQ002 findings carry a replayable counterexample in
//! their note.

pub mod bitstream;
pub mod diag;
pub mod netlist;
pub mod pack;
pub mod place;
pub mod route;

pub use bitstream::lint_bitstream;
pub use diag::{
    catalogue_text, diagnostics_from_value, diagnostics_to_value, rule, summarize, worst,
    Diagnostic, GateMode, Rule, Severity, RULES,
};
pub use netlist::lint_netlist;
pub use pack::lint_clustering;
pub use place::lint_placement;
pub use route::{lint_routing, rr_name};
