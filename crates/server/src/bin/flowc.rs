//! `flowc` — command-line client for `flowd`.
//!
//! `flowc --help` lists the verbs and options.
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

/// Exit codes, the contract scripts rely on (2 is a usage error).
/// Could not reach or talk to the daemon (connect/read/protocol).
const EXIT_TRANSPORT: i32 = 3;
/// The daemon answered and reported the compile failed or was refused.
const EXIT_COMPILE: i32 = 4;
/// The job's deadline elapsed before the flow finished.
const EXIT_DEADLINE: i32 = 5;
/// Design-rule or equivalence findings at deny severity (same code
/// `fpga-lint` uses; the verify gate's EQ denials land here too).
const EXIT_LINT: i32 = 6;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("tcp", Some("HOST:PORT"), "the daemon's address (default: 127.0.0.1:7171)"),
    ("unix", Some("PATH"), "the daemon's Unix socket, in place of --tcp"),
    ("blif", None, "treat the design as BLIF regardless of extension"),
    ("seed", Some("N"), "placement seed"),
    ("effort", Some("X"), "annealing effort"),
    ("width", Some("W"), "channel width (default: search the minimum)"),
    ("cycles", Some("N"), "bitstream verification cycles"),
    ("lint", Some("MODE"), "design-rule gates, off|warn|deny (default: off)"),
    ("verify", Some("MODE"), "equivalence gates, off|warn|deny (default: off)"),
    ("deadline", Some("DUR"), "the job's time budget"),
    ("retries", Some("N"), "attempts while the daemon is saturated"),
    ("trace", None, "print the job's span tree as a waterfall (stderr)"),
    ("o", Some("FILE"), "write the bitstream here (default: stdout)"),
    ("report", Some("FILE"), "write the flow report here"),
    ("tenant", Some("ID"), "tag the job for the gateway's per-tenant quotas"),
    ("json", None, "print findings as a JSON array"),
    ("quiet", None, "print only the summary line"),
    ("text", None, "Prometheus-style text instead of JSON"),
];

/// The options every verb reads: where the daemon is.
const DIAL: &[&str] = &["tcp", "unix"];

/// What `lint` and `verify` read beside [`DIAL`].
const CHECK: &[&str] = &["blif", "deadline", "tenant", "json", "quiet"];

/// Each verb: whether it takes a design, the options it reads beside
/// [`DIAL`], and what runs it. Anything else on its command line is
/// refused before the daemon is dialled.
type Verb = (&'static str, bool, &'static [&'static str], fn(&cli::Args));

#[rustfmt::skip]
const VERBS: &[Verb] = &[
    ("compile", true, &["blif", "seed", "effort", "width", "cycles", "lint", "verify", "deadline",
        "retries", "trace", "o", "report", "tenant"], compile),
    ("lint", true, CHECK, |args| check(CheckKind::Lint, args)),
    ("verify", true, CHECK, |args| check(CheckKind::Verify, args)),
    ("metrics", false, &["text"], metrics),
    ("status", false, &[], |args| reply(connect(args).status(), render_pretty)),
    ("ping", false, &[], |args| reply(connect(args).ping(), Value::to_string)),
    ("shutdown", false, &[], |args| {
        reply(connect(args).shutdown_server(), |_| "flowd acknowledged shutdown".to_string())
    }),
];

const USAGE: &str = "flowc [options] compile <design.vhd|design.blif>
       flowc [options] lint|verify <design.vhd|design.blif>
       flowc [options] metrics | status | ping | shutdown";

/// One `--help` line per verb: what it takes and reads, from [`VERBS`].
fn verb_rows() -> String {
    let mut out = String::from("verbs, and the options each reads beside --tcp/--unix:\n");
    for &(verb, design, reads, _) in VERBS {
        let operand = if design { " <design>" } else { "" };
        let mut line = format!("  {:<18}", format!("{verb}{operand}"));
        for flag in reads.iter().map(|&name| cli::flag_label(name)) {
            if line.len() + flag.len() > 72 {
                out += line.trim_end();
                line = format!("\n{:20}", "");
            }
            line += &format!("{flag} ");
        }
        out += line.trim_end();
        out.push('\n');
    }
    out
}

fn footer() -> String {
    format!(
        "\
{}
durations (DUR) take 250 / 250ms / 30s / 5m / 1h — the same spellings
flowd accepts for its --max-deadline / --idle-timeout / --retry-after.

  --trace   attributes cache hits to their tier
  --verify  checks every stage artifact (mapped netlist, packed, placed,
            routed, decoded bitstream) functionally equivalent to the
            synthesized netlist; deny fails the job with a replayable
            counterexample
  lint      run the deep design-rule check on the daemon: every rule
            below, through as much of the flow as the design survives
  verify    run the deep equivalence check on the daemon: the EQ rules
            below at every flow point the design survives, without
            gating — findings ride back in the report
  metrics   fetch flowd's job and connection counters, per-stage
            latency histograms, cache memory/disk hit counters, the
            durable store's ledger, and per-rule lint counters
  status    fetch the server's health summary: on flowd the queue,
            workers, connections and configured limits; against a
            flow-gateway the per-backend health/breaker/failover table
            and per-tenant admission counters

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
        verb_rows(),
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
    if let Some(path) = args.get("unix") {
        return FlowClient::connect_unix(path);
    }
    FlowClient::connect_tcp(args.get("tcp").unwrap_or("127.0.0.1:7171"))
}

fn connect(args: &cli::Args) -> FlowClient {
    match try_connect(args) {
        Ok(c) => c,
        Err(e) => fail(EXIT_TRANSPORT, format!("cannot connect to flowd: {e}")),
    }
}

fn main() {
    let args = cli::parse_args(USAGE, OPTS, 2, &footer());
    let Some(cmd) = args.positionals.first().map(String::as_str) else {
        args.refuse("no verb");
    };
    let Some(&(_, design, reads, run)) = VERBS.iter().find(|v| v.0 == cmd) else {
        args.refuse(format!("unknown verb '{cmd}'"));
    };
    if let Some(extra) = args.positionals.get(1).filter(|_| !design) {
        args.refuse(format!("{cmd} takes no operand, got '{extra}'"));
    }
    let unread = args
        .names()
        .find(|n| !DIAL.contains(n) && !reads.contains(n));
    if let Some(name) = unread {
        args.refuse(format!("{cmd} does not read {}", cli::flag_label(name)));
    }
    run(&args);
}

/// Print a one-line reply the way each verb shows it.
fn reply(got: io::Result<Value>, show: fn(&Value) -> String) {
    match got {
        Ok(v) => println!("{}", show(&v)),
        Err(e) => fail(EXIT_TRANSPORT, e),
    }
}

fn metrics(args: &cli::Args) {
    let text = args.flag("text");
    match connect(args).metrics(text) {
        // In text mode the exposition rides in a "text" field;
        // print it raw so the output pipes straight to a scraper.
        Ok(v) if text => match v.get("text").and_then(Value::as_str) {
            Some(body) => print!("{body}"),
            None => fail(EXIT_TRANSPORT, "metrics reply missing text body"),
        },
        got => reply(got, render_pretty),
    }
}

/// Read the design a job verb names; `--blif` or a `.blif` extension
/// selects the format.
fn read_design(args: &cli::Args, path: &str) -> (SourceFormat, String) {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => cli::die("flowc", format!("cannot read '{path}': {e}")),
    };
    let format = if args.flag("blif") || path.ends_with(".blif") {
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
        args.refuse("compile needs a design");
    };
    let (format, source) = read_design(args, path);

    let mut options = serde_json::Map::new();
    let mut put = |wire: &str, value: Option<Value>| {
        if let Some(value) = value {
            options.insert(wire.to_string(), value);
        }
    };
    let int = |flag| cli::opt_u64(args, flag).map(Value::from);
    let effort = cli::opt_f64(args, "effort").map(Value::from);
    put("place_seed", int("seed"));
    put("place_effort", effort);
    put("channel_width", int("width"));
    put("verify_cycles", int("cycles"));
    put("lint", args.get("lint").map(Value::from));
    put("verify", args.get("verify").map(Value::from));
    let options = if options.is_empty() {
        Value::Null
    } else {
        Value::Object(options)
    };

    let deadline_ms = cli::opt_duration_ms(args, "deadline");
    let mut policy = RetryPolicy::default();
    if let Some(n) = cli::nonzero(cli::opt_u64, args, "retries") {
        policy.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }

    let mut req = match CompileRequest::new(format, source).with_options(options) {
        Ok(r) => r,
        Err(e) => cli::die("flowc", e),
    };
    req.deadline_ms = deadline_ms;
    req.trace = args.flag("trace");
    req.tenant = args.get("tenant").map(str::to_string);

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
    if let Some(report_path) = args.get("report") {
        let text = render_pretty(&outcome.report);
        if let Err(e) = std::fs::write(report_path, text) {
            cli::die("flowc", format!("cannot write '{report_path}': {e}"));
        }
        eprintln!("wrote {report_path}");
    }
    match args.get("o") {
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
        args.refuse(format!(
            "{verb} needs a design (see --help for the {catalogue})"
        ));
    };
    let (format, source) = read_design(args, path);
    let mut req = CompileRequest::new(format, source);
    req.deadline_ms = cli::opt_duration_ms(args, "deadline");
    req.tenant = args.get("tenant").map(str::to_string);

    let outcome = match connect(args).check_request(kind, &req) {
        Ok(o) => o,
        Err(e @ CompileError::Io(_)) => fail(EXIT_TRANSPORT, e),
        Err(e @ CompileError::TimedOut { .. }) => fail(EXIT_DEADLINE, e),
        Err(e @ (CompileError::Failed { .. } | CompileError::Rejected { .. })) => {
            fail(EXIT_COMPILE, e)
        }
    };
    warn_unknown_events(&outcome.unknown_events, outcome.unknown_events_dropped);
    let quiet = args.flag("quiet");
    if args.flag("json") {
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
