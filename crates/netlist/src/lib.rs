//! # fpga-netlist
//!
//! Logic-netlist intermediate representation and interchange formats for
//! the application-mapping toolset of *"An Integrated FPGA Design
//! Framework"* (IPPS 2004).
//!
//! Every tool in the paper's Fig. 11 flow communicates through netlist
//! files: DIVINER emits EDIF, DRUID rewrites EDIF, E2FMT translates EDIF
//! to BLIF, SIS maps BLIF to LUTs and flip-flops, and T-VPack/VPR/DAGGER
//! consume the mapped netlist. This crate supplies:
//!
//! * [`ir`] — the in-memory netlist: cells, nets, primary IO, clocks;
//! * [`sop`] — sum-of-products covers (the payload of BLIF `.names`);
//! * [`blif`] — Berkeley Logic Interchange Format reader/writer;
//! * [`edif`] — an EDIF 2.0.0 s-expression subset reader/writer;
//! * [`sim`] — a two-valued cycle-accurate logic simulator (the reference
//!   model that synthesis, mapping, packing and bitstream generation are
//!   all checked against);
//! * [`tape`] — the netlist compiled once for evaluation on 64 lanes, the
//!   one evaluator under the simulator, the activity estimate, the
//!   equivalence checker, the LUT mapper's cut truth tables and the
//!   fabric emulator;
//! * [`mix`] — the xorshift step, `splitmix64` and FNV-1a that every
//!   crate's seeded streams and structural hashes are built from.

pub mod blif;
pub mod canonical;
pub mod codec;
pub mod edif;
pub mod ir;
pub mod mix;
pub mod sim;
pub mod sop;
pub mod tape;

pub use canonical::canonical_text;
pub use codec::{ByteReader, ByteWriter, CodecError, CodecResult};
pub use ir::{Cell, CellId, CellKind, Net, NetId, Netlist};
pub use sop::{Cube, SopCover};

/// Errors shared by the netlist readers/writers and IR validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    Parse { line: usize, msg: String },
    Validate(String),
    Unsupported(String),
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            NetlistError::Validate(msg) => write!(f, "invalid netlist: {msg}"),
            NetlistError::Unsupported(msg) => write!(f, "unsupported construct: {msg}"),
        }
    }
}

impl std::error::Error for NetlistError {}

pub type Result<T> = std::result::Result<T, NetlistError>;
