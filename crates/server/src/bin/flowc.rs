//! `flowc` — command-line client for `flowd`.
//!
//! ```text
//! flowc [--tcp HOST:PORT | --unix PATH] compile design.vhd [--blif]
//!       [--seed N] [--effort F] [--width W] [--cycles N]
//!       [--deadline DUR] [--retries N] [--trace]
//!       [-o design.bit] [--report report.json]
//! flowc [...] lint|verify design.vhd [--blif] [--json] [--quiet]
//! flowc [...] metrics [--text] | stats | ping | shutdown
//! ```
//!
//! When the daemon is saturated (queue full or connection cap hit) it
//! answers with a `retry_after_ms` hint; `flowc` retries on a fresh
//! connection with jittered exponential backoff, never sooner than the
//! hint (`--retries 1` disables this).
//!
//! `--trace` asks the daemon to record a per-stage span tree
//! ([`fpga_flow::TraceLog`]) for the job and renders it as a waterfall
//! on stderr, with cache hits attributed to their tier. `metrics`
//! fetches the daemon-wide registry — per-stage latency histograms and
//! cache memory/disk hit counters — as JSON, or as a Prometheus-style
//! text exposition with `--text`.
//!
//! Exit codes distinguish *where* a failure happened (see `--help`):
//! scripts branch on them — retry a deploy on 3, file a bug on 4, raise
//! the deadline on 5.

use std::io::{self, Write};

use fpga_flow::trace::spans_from_value;
use fpga_flow::{cli, CheckKind};
use fpga_server::{
    compile_with_retry, CompileError, CompileRequest, FlowClient, RetryPolicy, SourceFormat,
};
use serde_json::Value;

/// Exit codes, the contract scripts rely on.
const EXIT_USAGE: i32 = 2;
/// Could not reach or talk to the daemon (connect/read/protocol).
const EXIT_TRANSPORT: i32 = 3;
/// The daemon answered and reported the compile failed or was refused.
const EXIT_COMPILE: i32 = 4;
/// The job's deadline elapsed before the flow finished.
const EXIT_DEADLINE: i32 = 5;
/// Design-rule or equivalence findings at deny severity (same code
/// `fpga-lint` uses; the verify gate's EQ denials land here too).
const EXIT_LINT: i32 = 6;

fn help() -> String {
    format!(
        "\
flowc — command-line client for flowd

usage:
  flowc [--tcp HOST:PORT | --unix PATH] compile <design.vhd|design.blif>
        [--blif] [--seed N] [--effort F] [--width W] [--cycles N]
        [--lint off|warn|deny] [--verify off|warn|deny]
        [--deadline DUR] [--retries N] [--trace] [-o design.bit]
        [--report report.json]
  flowc [--tcp HOST:PORT | --unix PATH] lint <design.vhd|design.blif>
        [--blif] [--json] [--quiet] [--deadline DUR]
  flowc [--tcp HOST:PORT | --unix PATH] verify <design.vhd|design.blif>
        [--blif] [--json] [--quiet] [--deadline DUR]
  flowc [--tcp HOST:PORT | --unix PATH] metrics [--text]
  flowc [--tcp HOST:PORT | --unix PATH] status | stats | ping | shutdown
  flowc --help | --version

durations (DUR) take 250 / 250ms / 30s / 5m / 1h — the same spellings
flowd accepts for its --max-deadline / --idle-timeout / --retry-after.

  --trace   record a per-stage span tree for this job and print it as a
            waterfall (stderr), cache hits attributed to their tier
  --lint    design-rule gates during compile: warn reports findings,
            deny fails the job on deny-severity findings (default: off)
  lint      run the deep design-rule check on the daemon: every rule
            below, through as much of the flow as the design survives
  --verify  cross-stage equivalence gates during compile: every stage
            artifact (mapped netlist, packed, placed, routed, decoded
            bitstream) is checked functionally equivalent to the
            synthesized netlist; warn reports EQ findings, deny fails
            the job with a replayable counterexample (default: off)
  verify    run the deep equivalence check on the daemon: the EQ rules
            below at every flow point the design survives, without
            gating — findings ride back in the report
  metrics   fetch flowd's per-stage latency histograms, cache
            memory/disk hit counters, and per-rule lint counters as
            JSON (--text: Prometheus-style)
  status    fetch the server's health summary; against a flow-gateway
            this is the per-backend health/breaker/failover table and
            per-tenant admission counters
  --tenant  tag compile/lint jobs with a tenant id for the gateway's
            per-tenant fair-share quotas (proto v4; flowd ignores it)

{}
exit codes:
  0  success
  1  local error (unreadable input, unwritable output, ...)
  2  usage error
  3  transport failure: could not connect to flowd, or the connection
     broke mid-stream (retryable — the daemon may just be restarting)
  4  compile failed or was refused: the daemon answered and reported a
     stage error, panic, lost worker, or rejection
  5  deadline exceeded: the job's time budget elapsed mid-flow
  6  design-rule or equivalence check found deny-severity problems
     (lint/verify subcommands, or compile with --lint/--verify deny)",
        fpga_lint::catalogue_text()
    )
}

fn fail(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("flowc: {msg}");
    std::process::exit(code);
}

/// Pretty-print a wire value; a value that somehow refuses to pretty-print
/// (no such `serde_json::Value` exists today) falls back to its compact
/// form rather than aborting the client.
fn render_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).unwrap_or_else(|_| v.to_string())
}

fn try_connect(args: &cli::Args) -> io::Result<FlowClient> {
    if let Some(path) = args.options.get("unix") {
        return FlowClient::connect_unix(path);
    }
    let addr = args
        .options
        .get("tcp")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7171".to_string());
    FlowClient::connect_tcp(addr.as_str())
}

fn connect(args: &cli::Args) -> FlowClient {
    match try_connect(args) {
        Ok(c) => c,
        Err(e) => fail(EXIT_TRANSPORT, format!("cannot connect to flowd: {e}")),
    }
}

fn main() {
    let args = cli::parse_args(&[
        "tcp", "unix", "seed", "effort", "width", "cycles", "lint", "verify", "deadline",
        "retries", "o", "report", "tenant",
    ]);
    cli::handle_version("flowc", &args);
    if args.flags.iter().any(|f| f == "help") {
        println!("{}", help());
        return;
    }

    let Some(cmd) = args.positionals.first().map(String::as_str) else {
        eprintln!(
            "usage: flowc [--tcp HOST:PORT | --unix PATH] <compile|lint|verify|stats|ping|shutdown> ..."
        );
        eprintln!("       (see flowc --help for options, rule codes, and exit codes)");
        std::process::exit(EXIT_USAGE);
    };
    match cmd {
        "ping" => match connect(&args).ping() {
            Ok(v) => println!("{v}"),
            Err(e) => fail(EXIT_TRANSPORT, e),
        },
        "status" => match connect(&args).status() {
            Ok(v) => println!("{}", render_pretty(&v)),
            Err(e) => fail(EXIT_TRANSPORT, e),
        },
        "stats" => match connect(&args).stats() {
            Ok(v) => println!("{}", render_pretty(&v)),
            Err(e) => fail(EXIT_TRANSPORT, e),
        },
        "metrics" => {
            let text = args.flags.iter().any(|f| f == "text");
            match connect(&args).metrics(text) {
                // In text mode the exposition rides in a "text" field;
                // print it raw so the output pipes straight to a scraper.
                Ok(v) if text => match v.get("text").and_then(Value::as_str) {
                    Some(body) => print!("{body}"),
                    None => fail(EXIT_TRANSPORT, "metrics reply missing text body"),
                },
                Ok(v) => println!("{}", render_pretty(&v)),
                Err(e) => fail(EXIT_TRANSPORT, e),
            }
        }
        "shutdown" => match connect(&args).shutdown_server() {
            Ok(_) => println!("flowd acknowledged shutdown"),
            Err(e) => fail(EXIT_TRANSPORT, e),
        },
        "compile" => compile(&args),
        "lint" => check(CheckKind::Lint, &args),
        "verify" => check(CheckKind::Verify, &args),
        other => cli::die("flowc", format!("unknown command '{other}'")),
    }
}

/// Read the design a job verb names; `--blif` or a `.blif` extension
/// selects the format.
fn read_design(args: &cli::Args, path: &str) -> (SourceFormat, String) {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => cli::die("flowc", format!("cannot read '{path}': {e}")),
    };
    let format = if args.flags.iter().any(|f| f == "blif") || path.ends_with(".blif") {
        SourceFormat::Blif
    } else {
        SourceFormat::Vhdl
    };
    (format, source)
}

/// A newer daemon may stream event kinds this client does not know;
/// they are skipped, but say so (CI treats these warnings as failures).
fn warn_unknown_events(names: &[String], dropped: u64) {
    for name in names {
        eprintln!("flowc: warning: unknown event '{name}' (daemon newer than this client?)");
    }
    if dropped > 0 {
        eprintln!("flowc: warning: {dropped} more unknown event kinds not recorded");
    }
}

fn compile(args: &cli::Args) {
    let Some(path) = args.positionals.get(1) else {
        eprintln!("usage: flowc compile <design.vhd|design.blif> [--blif] [--seed N] ...");
        std::process::exit(EXIT_USAGE);
    };
    let (format, source) = read_design(args, path);

    let mut options = serde_json::Map::new();
    let mut numeric = |flag: &str, wire: &str| {
        if let Some(raw) = args.options.get(flag) {
            match raw.parse::<f64>() {
                Ok(n) if n.fract() == 0.0 && flag != "effort" => {
                    options.insert(wire.to_string(), serde_json::json!(n as u64));
                }
                Ok(n) => {
                    options.insert(wire.to_string(), serde_json::json!(n));
                }
                Err(_) => cli::die("flowc", format!("bad --{flag} '{raw}'")),
            }
        }
    };
    numeric("seed", "place_seed");
    numeric("effort", "place_effort");
    numeric("width", "channel_width");
    numeric("cycles", "verify_cycles");
    if let Some(mode) = args.options.get("lint") {
        options.insert("lint".to_string(), serde_json::json!(mode));
    }
    if let Some(mode) = args.options.get("verify") {
        options.insert("verify".to_string(), serde_json::json!(mode));
    }
    let options = if options.is_empty() {
        Value::Null
    } else {
        Value::Object(options)
    };

    let deadline_ms = cli::opt_duration_ms(args, "flowc", "deadline");
    let mut policy = RetryPolicy::default();
    if let Some(n) = cli::nonzero(cli::opt_u64, args, "flowc", "retries") {
        policy.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }

    let mut req = match CompileRequest::new(format, source).with_options(options) {
        Ok(r) => r,
        Err(e) => cli::die("flowc", e),
    };
    req.deadline_ms = deadline_ms;
    req.trace = args.flags.iter().any(|f| f == "trace");
    req.tenant = args.options.get("tenant").cloned();

    let outcome = match compile_with_retry(
        || try_connect(args),
        &req,
        &policy,
        |attempt, err, backoff_ms| {
            eprintln!("flowc: attempt {attempt} failed ({err}); retrying in {backoff_ms} ms");
        },
    ) {
        Ok(o) => o,
        // The typed error decides the exit code; the message is the same
        // either way.
        Err(e @ CompileError::Io(_)) => fail(EXIT_TRANSPORT, e),
        Err(e @ CompileError::TimedOut { .. }) => fail(EXIT_DEADLINE, e),
        Err(CompileError::Failed {
            stage,
            message,
            kind,
            diagnostics,
        }) => {
            // A design-rule denial prints its structured findings and
            // exits with the lint code so scripts can tell "your design
            // breaks the rules" from "the flow broke".
            for d in &diagnostics {
                eprintln!("{d}");
            }
            let code = if stage == "lint" || stage == "verify" {
                EXIT_LINT
            } else {
                EXIT_COMPILE
            };
            let _ = kind;
            fail(code, format!("[{stage}] {message}"))
        }
        Err(e @ CompileError::Rejected { .. }) => fail(EXIT_COMPILE, e),
    };
    warn_unknown_events(&outcome.unknown_events, outcome.unknown_events_dropped);
    // Warn/info findings from `--lint warn|deny` runs.
    for d in &outcome.lint {
        eprintln!("{d}");
    }
    for ev in &outcome.stage_events {
        let stage = ev.get("stage").and_then(Value::as_str).unwrap_or("?");
        let ms = ev.get("elapsed_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let cached = ev
            .get("metrics")
            .and_then(|m| m.get("cache"))
            .and_then(Value::as_str)
            .map(|c| format!(" [cache {c}]"))
            .unwrap_or_default();
        eprintln!("job {} | {stage:<28} {ms:>9.2} ms{cached}", outcome.job);
    }
    if req.trace {
        match outcome.trace.as_ref().map(spans_from_value) {
            Some(Ok(spans)) => eprint!(
                "{}",
                fpga_flow::render_waterfall(&format!("job {}", outcome.job), &spans)
            ),
            Some(Err(e)) => eprintln!("flowc: warning: unreadable trace in reply: {e}"),
            None => eprintln!("flowc: warning: daemon sent no trace (older flowd?)"),
        }
    }
    if let Some(report_path) = args.options.get("report") {
        let text = render_pretty(&outcome.report);
        if let Err(e) = std::fs::write(report_path, text) {
            cli::die("flowc", format!("cannot write '{report_path}': {e}"));
        }
        eprintln!("wrote {report_path}");
    }
    match args.options.get("o") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &outcome.bitstream) {
                cli::die("flowc", format!("cannot write '{out}': {e}"));
            }
            eprintln!("wrote {out} ({} bytes)", outcome.bitstream.len());
        }
        None => {
            // No output path: the bitstream goes to stdout (progress and
            // summaries all go to stderr, so redirection stays clean).
            let mut stdout = std::io::stdout();
            let _ = stdout.write_all(&outcome.bitstream);
            let _ = stdout.flush();
        }
    }
    eprintln!(
        "job {} done ({} bytes of bitstream)",
        outcome.job,
        outcome.bitstream.len()
    );
}

/// `flowc lint|verify <design>` — run one kind of deep check on the
/// daemon and print the findings. Deny-severity findings (a broken
/// design rule; for `verify`, a stage artifact that is provably NOT the
/// synthesized netlist, with a replayable counterexample in the notes)
/// exit with [`EXIT_LINT`]; flow errors (a design the checker cannot
/// even parse) exit like a failed compile.
fn check(kind: CheckKind, args: &cli::Args) {
    let verb = kind.verb();
    let (catalogue, summary_word) = match kind {
        CheckKind::Lint => ("rule catalogue", "checked"),
        CheckKind::Verify => ("EQ rule codes", "verified"),
    };
    let Some(path) = args.positionals.get(1) else {
        eprintln!("usage: flowc {verb} <design.vhd|design.blif> [--blif] [--json] [--quiet]");
        eprintln!("       (see flowc --help for the {catalogue})");
        std::process::exit(EXIT_USAGE);
    };
    let (format, source) = read_design(args, path);
    let mut req = CompileRequest::new(format, source);
    req.deadline_ms = cli::opt_duration_ms(args, "flowc", "deadline");
    req.tenant = args.options.get("tenant").cloned();

    let outcome = match connect(args).check_request(kind, &req) {
        Ok(o) => o,
        Err(e @ CompileError::Io(_)) => fail(EXIT_TRANSPORT, e),
        Err(e @ CompileError::TimedOut { .. }) => fail(EXIT_DEADLINE, e),
        Err(e @ (CompileError::Failed { .. } | CompileError::Rejected { .. })) => {
            fail(EXIT_COMPILE, e)
        }
    };
    warn_unknown_events(&outcome.unknown_events, outcome.unknown_events_dropped);
    let quiet = args.flags.iter().any(|f| f == "quiet");
    if args.flags.iter().any(|f| f == "json") {
        let body = fpga_lint::diagnostics_to_value(&outcome.diagnostics);
        println!("{}", render_pretty(&body));
    } else if !quiet {
        for d in &outcome.diagnostics {
            println!("{d}");
        }
    }
    eprintln!(
        "job {}: {}: {summary_word} through '{}': {}",
        outcome.job,
        outcome.design,
        outcome.reached,
        fpga_lint::summarize(&outcome.diagnostics)
    );
    if fpga_lint::worst(&outcome.diagnostics) == Some(fpga_lint::Severity::Deny) {
        std::process::exit(EXIT_LINT);
    }
}
