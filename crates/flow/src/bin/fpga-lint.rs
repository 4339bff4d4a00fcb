//! `fpga-lint` — offline design-rule checker.
//!
//! Runs the deep check ([`fpga_flow::check::deep`]) over a VHDL or BLIF
//! design without a daemon: netlist rules first, then — when the netlist
//! is clean — mapping, packing, placement, routing, and bitstream
//! generation, each checked by its stage's rules. `--verify` runs the
//! equivalence kind of the same check instead.
//!
//! Exit codes: 0 = no deny-severity findings, 1 = local/flow error,
//! 2 = usage error, 6 = deny findings (the same code `flowc lint` uses,
//! so CI scripts treat daemon and offline lint alike).

use fpga_flow::check::{self, CheckKind};
use fpga_flow::{cli, FlowCtx, FlowOptions, Source};

const EXIT_USAGE: i32 = 2;
/// Deny-severity findings present (matches `flowc`'s lint exit code).
const EXIT_DENIED: i32 = 6;

fn help() -> String {
    format!(
        "\
fpga-lint — offline design-rule checker

usage:
  fpga-lint <design.vhd|design.blif> [--blif] [--verify] [--json] [--quiet]
  fpga-lint --rules
  fpga-lint --help | --version

  --blif    treat the input as BLIF regardless of extension
  --verify  run the cross-stage equivalence check (the EQ rules: every
            stage artifact proved functionally equivalent to the
            synthesized netlist) instead of the design-rule lint
  --json    print findings as a JSON array (one object per finding)
  --quiet   print only the summary line
  --rules   print the rule catalogue and exit

{}
severities: deny fails the check (exit 6), warn and info report only.

exit codes:
  0  clean: no deny-severity findings
  1  local or flow error (unreadable input, synthesis failure, ...)
  2  usage error
  6  the design has deny-severity findings",
        fpga_lint::catalogue_text()
    )
}

fn main() {
    let args = cli::parse_args(&[]);
    cli::handle_version("fpga-lint", &args);
    if args.flags.iter().any(|f| f == "help") {
        println!("{}", help());
        return;
    }
    if args.flags.iter().any(|f| f == "rules") {
        print!("{}", fpga_lint::catalogue_text());
        return;
    }
    let Some(path) = args.positionals.first() else {
        eprintln!("usage: fpga-lint <design.vhd|design.blif> [--blif] [--json]");
        eprintln!("       (see fpga-lint --help for the rule catalogue)");
        std::process::exit(EXIT_USAGE);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => cli::die("fpga-lint", format!("cannot read '{path}': {e}")),
    };

    let kind = if args.flags.iter().any(|f| f == "verify") {
        CheckKind::Verify
    } else {
        CheckKind::Lint
    };
    let source = if args.flags.iter().any(|f| f == "blif") || path.ends_with(".blif") {
        Source::Blif(&source)
    } else {
        Source::Vhdl(&source)
    };
    let report = match check::deep(kind, source, &FlowOptions::default(), FlowCtx::default()) {
        Ok(r) => r,
        Err(e) => cli::die("fpga-lint", e),
    };
    let quiet = args.flags.iter().any(|f| f == "quiet");
    if args.flags.iter().any(|f| f == "json") {
        let body = fpga_lint::diagnostics_to_value(&report.diagnostics);
        match serde_json::to_string_pretty(&body) {
            Ok(text) => println!("{text}"),
            Err(e) => cli::die("fpga-lint", format!("cannot render findings: {e}")),
        }
    } else if !quiet {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }
    eprintln!(
        "{}: checked through '{}': {}",
        report.design,
        report.reached,
        fpga_lint::summarize(&report.diagnostics)
    );
    if !report.clean() {
        std::process::exit(EXIT_DENIED);
    }
}
