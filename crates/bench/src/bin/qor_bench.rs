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

const USAGE: &str = "qor_bench — QoR + speed benchmark suite runner

USAGE:
    qor_bench [--tier smoke|full] [--out FILE] [--via-daemon ADDR]
              [--seed N] [--effort X] [--verify-cycles N]
              [--verify off|warn|deny] [--only NAME]...
    qor_bench --list
    qor_bench --canon NAME

OPTIONS:
    --tier smoke|full    suite tier (default: smoke; full adds the scaled
                         Rent sweeps up to >=10k LUTs — minutes, not seconds)
    --out FILE           write the BENCH_*.json report here (default: stdout)
    --via-daemon ADDR    run through a live flowd at ADDR (TCP): rows carry
                         the daemon's per-stage cache-tier attribution and
                         the report embeds its typed-metrics cache counters
    --seed N             placement seed (default: 1)
    --effort X           annealing effort (default: 1.0, the bench standard)
    --verify-cycles N    bitstream verification cycles (default: 0 = skip)
    --verify MODE        cross-stage equivalence checking (off|warn|deny,
                         default: off). Adds verify:* spans to each row's
                         stage list and the verify_ms wall-clock column;
                         QoR columns never depend on it
    --only NAME          run just this design (repeatable; debugging aid —
                         subset reports are not baselines)
    --list               print the suite registry and exit
    --canon NAME         print design NAME's canonical netlist text and exit
    --version            print the toolset version
    -h, --help           this text
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qor_bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut cfg = BenchConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut daemon: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--tier" => {
                cfg.tier = match value("--tier")?.as_str() {
                    "smoke" => SuiteTier::Smoke,
                    "full" => SuiteTier::Full,
                    other => return Err(format!("unknown tier '{other}' (smoke|full)")),
                };
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--via-daemon" => daemon = Some(value("--via-daemon")?),
            "--seed" => {
                cfg.place_seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--effort" => {
                cfg.place_effort = value("--effort")?
                    .parse()
                    .map_err(|_| "--effort must be a number".to_string())?;
            }
            "--only" => cfg.only.push(value("--only")?),
            "--verify-cycles" => {
                cfg.verify_cycles = value("--verify-cycles")?
                    .parse()
                    .map_err(|_| "--verify-cycles must be an integer".to_string())?;
            }
            "--verify" => {
                let raw = value("--verify")?;
                cfg.verify = fpga_flow::GateMode::parse(&raw)
                    .ok_or_else(|| format!("unknown --verify mode '{raw}' (off|warn|deny)"))?;
            }
            "--list" => {
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
            "--canon" => {
                let name = value("--canon")?;
                let entry = suite_entry(&name)
                    .ok_or_else(|| format!("unknown suite design '{name}' (try --list)"))?;
                print!("{}", fpga_netlist::canonical_text(&(entry.build)()));
                return Ok(ExitCode::SUCCESS);
            }
            "--version" => {
                println!("qor_bench {}", fpga_flow::FLOW_VERSION);
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }

    let progress = |i: usize, n: usize, name: &str| {
        eprintln!("[{}/{n}] {name}", i + 1);
    };
    let report = match &daemon {
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
    match out {
        Some(path) => {
            report.save(&path)?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{}", report.to_json()),
    }
    Ok(ExitCode::SUCCESS)
}
