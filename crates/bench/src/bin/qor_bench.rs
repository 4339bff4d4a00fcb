//! `qor_bench` — run the QoR + speed benchmark suite and emit a
//! schema-versioned `BENCH_*.json` report.
//!
//! ```text
//! qor_bench --tier smoke --out BENCH_ci.json        # in-process, seconds
//! qor_bench --tier full  --out BENCH_1.json         # scaled suite, minutes
//! qor_bench --via-daemon 127.0.0.1:7744 --tier smoke --out BENCH_wire.json
//! qor_bench --list                                  # registered designs
//! qor_bench --canon rent_1k                         # canonical netlist text
//! ```
//!
//! `--canon` exists for the determinism gate: two separate processes
//! printing the same suite design must emit byte-identical text, or the
//! stage-cache keys (and every warm-bench number) are meaningless.

use std::path::PathBuf;
use std::process::ExitCode;

use fpga_bench::qor::{self, BenchConfig};
use fpga_circuits::{qor_suite, suite_entry, SuiteTier};
use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("tier", Some("smoke|full"), "suite tier (default: smoke; full takes minutes)"),
    ("out", Some("FILE"), "write the BENCH_*.json report here (default: stdout)"),
    ("via-daemon", Some("ADDR"), "run through a live flowd at ADDR (TCP)"),
    ("seed", Some("N"), "placement seed (default: 1)"),
    ("effort", Some("X"), "annealing effort (default: 1.0, the bench standard)"),
    ("verify-cycles", Some("N"), "bitstream verification cycles (default: 0 = skip)"),
    ("verify", Some("MODE"), "cross-stage equivalence checking, off|warn|deny"),
    ("only", Some("NAME"), "run just this design (repeatable; not a baseline)"),
    ("list", None, "print the suite registry and exit"),
    ("canon", Some("NAME"), "print design NAME's canonical netlist text and exit"),
];

const FOOTER: &str = "\
--tier full adds the scaled Rent sweeps up to >=10k LUTs. Through a
daemon, rows carry its per-stage cache-tier attribution and the report
embeds its cache counters. --verify adds verify:* spans to each row's
stage list and the verify_ms column; QoR columns never depend on it.";

fn main() -> ExitCode {
    let usage = "qor_bench [options]\n       qor_bench --list | --canon NAME";
    match run(&cli::parse_args(usage, OPTS, 0, FOOTER)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qor_bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &cli::Args) -> Result<ExitCode, String> {
    if args.flag("list") {
        for e in qor_suite() {
            println!(
                "{:<16} tier={:<6} channel_width={}",
                e.name,
                if e.tier == SuiteTier::Smoke {
                    "smoke"
                } else {
                    "full"
                },
                e.channel_width
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "min-search".to_string()),
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(name) = args.get("canon") {
        let entry = suite_entry(name)
            .ok_or_else(|| format!("unknown suite design '{name}' (try --list)"))?;
        print!("{}", fpga_netlist::canonical_text(&(entry.build)()));
        return Ok(ExitCode::SUCCESS);
    }
    let default = BenchConfig::default();
    let verify = |raw| {
        fpga_flow::GateMode::parse(raw).unwrap_or_else(|| {
            args.refuse(format!("unknown --verify mode '{raw}' (off|warn|deny)"))
        })
    };
    let cfg = BenchConfig {
        tier: match args.get("tier") {
            None | Some("smoke") => SuiteTier::Smoke,
            Some("full") => SuiteTier::Full,
            Some(other) => args.refuse(format!("unknown tier '{other}' (smoke|full)")),
        },
        place_seed: cli::opt_u64(args, "seed").unwrap_or(default.place_seed),
        place_effort: cli::opt_f64(args, "effort").unwrap_or(default.place_effort),
        verify_cycles: cli::opt_u64(args, "verify-cycles")
            .map_or(default.verify_cycles, |n| n as usize),
        only: args.all("only").map(str::to_string).collect(),
        verify: args.get("verify").map_or(default.verify, verify),
    };

    let progress = |i: usize, n: usize, name: &str| {
        eprintln!("[{}/{n}] {name}", i + 1);
    };
    let report = match args.get("via-daemon") {
        Some(addr) => qor::run_suite_via_daemon(addr, &cfg, progress)?,
        None => qor::run_suite(&cfg, progress)?,
    };

    let verify_note = match report.aggregate.total_verify_ms {
        Some(ms) if ms > 0.0 => format!(
            ", verify ({}) {ms:.1} ms",
            report.verify.as_deref().unwrap_or("off")
        ),
        _ => String::new(),
    };
    eprintln!(
        "{} designs, {} LUTs total, geomean wall {:.1} ms, total {:.1} s{verify_note}",
        report.aggregate.designs,
        report.aggregate.total_luts,
        report.aggregate.geomean_wall_ms,
        report.aggregate.total_wall_ms / 1e3,
    );
    match args.get("out").map(PathBuf::from) {
        Some(path) => {
            report.save(&path)?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{}", report.to_json()),
    }
    Ok(ExitCode::SUCCESS)
}
