//! `vparse` — the paper's "VHDL Parser" tool: syntax + semantic check of a
//! VHDL source file against the supported VHDL-93 subset.

use fpga_flow::cli;

fn main() {
    let args = cli::parse_args("vparse <design.vhd>", &[], 1, "");
    let text = cli::input_or_usage(&args);
    match fpga_vhdl::parse(&text) {
        Err(e) => cli::die("vparse", format!("syntax error: {e}")),
        Ok(design) => match fpga_vhdl::check(&design) {
            Err(e) => cli::die("vparse", format!("semantic error: {e}")),
            Ok(()) => {
                let Some((entity, arch)) = design.top() else {
                    cli::die("vparse", "no top entity");
                };
                println!(
                    "OK: entity '{}' (architecture '{}'), {} ports, {} signals, {} statements",
                    entity.name,
                    arch.name,
                    entity.ports.len(),
                    arch.signals.len(),
                    arch.stmts.len()
                );
            }
        },
    }
}
