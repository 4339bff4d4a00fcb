//! `flowctl` — the integrated framework driver: the CLI stand-in for the
//! paper's web GUI (Fig. 12). Batch mode runs all six stages in order;
//! `--interactive` presents the same stage menu the GUI offers, driving
//! each tool on demand.

use fpga_flow::cli;
use fpga_flow::{run_blif, run_vhdl, FlowArtifacts, FlowOptions};

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("o", Some("FILE"), "write the bitstream here"),
    ("report", Some("FILE"), "write the stage report here as JSON"),
    ("seed", Some("N"), "placement seed (default: 1)"),
    ("w", Some("N"), "route at this channel width (default: search the minimum)"),
    ("svg", Some("FILE"), "draw the placed and routed layout here"),
    ("interactive", None, "the six-stage menu of the paper's GUI"),
];

const STAGES: &str = "stages: 1 file upload  2 synthesis  3 format translation
        4 power estimation  5 placement & routing  6 FPGA program";

fn main() {
    let usage = "flowctl <design.vhd|design.blif> [options]\n       flowctl --interactive [design]";
    let args = cli::parse_args(usage, OPTS, 1, STAGES);
    if args.flag("interactive") {
        interactive(args.positionals.first().cloned());
        return;
    }
    let text = cli::input_or_usage(&args);
    let path = &args.positionals[0];
    let mut opts = FlowOptions::default();
    if let Some(seed) = cli::opt_u64(&args, "seed") {
        opts.place_seed = seed;
    }
    if let Some(w) = cli::opt_u64(&args, "w") {
        opts.channel_width = Some(w as usize);
    }
    let result = if path.ends_with(".blif") {
        run_blif(&text, &opts)
    } else {
        run_vhdl(&text, &opts)
    };
    match result {
        Ok(art) => {
            print!("{}", art.report.summary());
            if let Some(rpath) = args.get("report") {
                std::fs::write(rpath, art.report.to_json())
                    .unwrap_or_else(|e| cli::die("flowctl", e));
                eprintln!("wrote {rpath}");
            }
            if let Some(svg_path) = args.get("svg") {
                std::fs::write(svg_path, fpga_flow::svg::render_layout(&art))
                    .unwrap_or_else(|e| cli::die("flowctl", e));
                eprintln!("wrote {svg_path}");
            }
            if args.get("o").is_some() {
                cli::write_binary_output(&args, &art.bitstream_bytes, "design.bit");
            }
        }
        Err(e) => cli::die("flowctl", e),
    }
}

/// The six-stage menu of the paper's GUI, as a terminal session.
fn interactive(initial: Option<String>) {
    use std::io::{BufRead, Write};
    let stdin = std::io::stdin();
    let mut source: Option<(String, String)> = None; // (path, text)
    let mut artifacts: Option<FlowArtifacts> = None;

    if let Some(path) = initial {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                println!("[1 File Upload] loaded '{path}' ({} bytes)", text.len());
                source = Some((path, text));
            }
            Err(e) => println!("cannot read '{path}': {e}"),
        }
    }

    println!("integrated FPGA design framework — interactive mode");
    loop {
        println!();
        println!("  1) File Upload          4) Power Estimation");
        println!("  2) Synthesis            5) Placement and Routing");
        println!("  3) Format Translation   6) FPGA Program (bitstream)");
        println!("  a) run all stages       q) quit");
        print!("stage> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let choice = line.trim();
        match choice {
            "q" | "quit" | "exit" => break,
            "1" => {
                print!("path to design (.vhd or .blif)> ");
                std::io::stdout().flush().ok();
                let mut p = String::new();
                if stdin.lock().read_line(&mut p).unwrap_or(0) == 0 {
                    break;
                }
                let p = p.trim().to_string();
                match std::fs::read_to_string(&p) {
                    Ok(text) => {
                        println!("loaded '{p}' ({} bytes)", text.len());
                        source = Some((p, text));
                        artifacts = None;
                    }
                    Err(e) => println!("cannot read '{p}': {e}"),
                }
            }
            "2" | "3" | "4" | "5" | "6" | "a" => {
                let Some((path, text)) = &source else {
                    println!("no design loaded — run stage 1 first");
                    continue;
                };
                if artifacts.is_none() {
                    let result = if path.ends_with(".blif") {
                        run_blif(text, &FlowOptions::default())
                    } else {
                        run_vhdl(text, &FlowOptions::default())
                    };
                    match result {
                        Ok(a) => artifacts = Some(a),
                        Err(e) => {
                            println!("flow failed: {e}");
                            continue;
                        }
                    }
                }
                let Some(art) = artifacts.as_ref() else {
                    continue; // flow failed above; message already printed
                };
                match choice {
                    "2" => {
                        for s in &art.report.stages {
                            if s.stage.contains("synthesis")
                                || s.stage.contains("upload")
                                || s.stage.contains("SIS")
                            {
                                println!("{:<28} {}", s.stage, s.metrics);
                            }
                        }
                    }
                    "3" => {
                        for s in &art.report.stages {
                            if s.stage.contains("T-VPack") || s.stage.contains("SIS") {
                                println!("{:<28} {}", s.stage, s.metrics);
                            }
                        }
                    }
                    "4" => {
                        println!("{}", art.power.table());
                    }
                    "5" => {
                        for s in &art.report.stages {
                            if s.stage.contains("VPR") {
                                println!("{:<28} {}", s.stage, s.metrics);
                            }
                        }
                    }
                    "6" => {
                        print!("output .bit path (empty = design.bit)> ");
                        std::io::stdout().flush().ok();
                        let mut p = String::new();
                        stdin.lock().read_line(&mut p).ok();
                        let p = if p.trim().is_empty() {
                            "design.bit"
                        } else {
                            p.trim()
                        };
                        match std::fs::write(p, &art.bitstream_bytes) {
                            Ok(()) => println!(
                                "programmed: wrote {p} ({} bytes, fabric-verified)",
                                art.bitstream_bytes.len()
                            ),
                            Err(e) => println!("cannot write '{p}': {e}"),
                        }
                    }
                    "a" => print!("{}", art.report.summary()),
                    _ => unreachable!(),
                }
            }
            "" => {}
            other => println!("unknown choice '{other}'"),
        }
    }
    println!("bye");
}
