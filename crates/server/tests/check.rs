//! Check-job acceptance tests: the `lint` and `verify` verbs end to end
//! — one table over both [`CheckKind`]s, against an in-process daemon
//! over real sockets and again through a gateway fronting it — plus the
//! `--lint deny` compile gate with structured diagnostics on the error
//! event, and the per-rule metrics counters.

use fpga_flow::CheckKind;
use fpga_server::client::CompileError;
use fpga_server::{
    CompileRequest, FlowClient, Gateway, GatewayConfig, Request, Server, ServerConfig, SourceFormat,
};
use serde_json::Value;

const KINDS: [CheckKind; 2] = [CheckKind::Lint, CheckKind::Verify];

/// A BLIF design with a combinational cycle (y depends on w, w on y)
/// that the parser accepts syntactically but the netlist rules must
/// reject with NL001.
const CYCLIC_BLIF: &str = "\
.model loopy
.inputs a
.outputs y
.names a w y
11 1
.names y w
1 1
.end
";

/// A BLIF design whose output has two drivers (NL002).
const DOUBLE_DRIVER_BLIF: &str = "\
.model twice
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end
";

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn client(server: &Server) -> FlowClient {
    FlowClient::connect_tcp(server.tcp_addr().expect("tcp enabled")).expect("connect")
}

/// Run `body` twice: with clients connected straight to a daemon, then
/// with clients connected to a gateway that forwards to it.
fn direct_and_through_a_gateway(body: impl Fn(&str, &dyn Fn() -> FlowClient)) {
    let server = start_server();
    let addr = server.tcp_addr().expect("tcp enabled");
    body("direct", &|| {
        FlowClient::connect_tcp(addr).expect("connect")
    });
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![addr.to_string()],
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let gateway_addr = gateway.tcp_addr();
    body("gateway", &|| {
        FlowClient::connect_tcp(gateway_addr).expect("connect")
    });
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn check_verbs_take_a_clean_design_through_the_whole_flow() {
    let src = fpga_circuits::vhdl_counter(3);
    direct_and_through_a_gateway(|via, connect| {
        for kind in KINDS {
            let req = CompileRequest::new(SourceFormat::Vhdl, src.as_str());
            let outcome = connect()
                .check_request(kind, &req)
                .unwrap_or_else(|e| panic!("{via} {kind:?}: {e}"));
            assert_eq!(outcome.reached, "bitstream", "{via} {kind:?}");
            assert!(
                !outcome
                    .diagnostics
                    .iter()
                    .any(|d| d.severity == fpga_lint::Severity::Deny),
                "{via} {kind:?}: counter has no deny findings: {:?}",
                outcome.diagnostics
            );
            assert!(outcome.unknown_events.is_empty(), "{via} {kind:?}");
        }
    });
}

#[test]
fn broken_blif_is_a_lint_finding_and_a_verify_upload_error() {
    direct_and_through_a_gateway(|via, connect| {
        for (blif, rule) in [(CYCLIC_BLIF, "NL001"), (DOUBLE_DRIVER_BLIF, "NL002")] {
            let req = CompileRequest::new(SourceFormat::Blif, blif);
            // Lint: the deny finding rides in the outcome, not an error.
            let outcome = connect()
                .check_request(CheckKind::Lint, &req)
                .unwrap_or_else(|e| panic!("{via} lint {rule}: {e}"));
            assert_eq!(outcome.reached, "netlist", "{via} {rule}");
            let finding = outcome
                .diagnostics
                .iter()
                .find(|d| d.code == rule)
                .unwrap_or_else(|| panic!("{via}: {rule} is reported"));
            assert_eq!(finding.severity, fpga_lint::Severity::Deny);
            // Verify: the upload stage rejects the netlist, exactly as
            // it does for a compile — the mapper never sees it.
            match connect().check_request(CheckKind::Verify, &req) {
                Err(CompileError::Failed { stage, message, .. }) => {
                    assert_eq!(stage, "blif", "{via} {rule}: {message}");
                    assert!(
                        message.contains("invalid netlist"),
                        "{via} {rule}: {message}"
                    );
                }
                other => panic!("{via} {rule}: expected an upload failure, got {other:?}"),
            }
        }
    });
}

#[test]
fn lint_findings_feed_the_rule_counters() {
    let server = start_server();
    let req = CompileRequest::new(SourceFormat::Blif, CYCLIC_BLIF);
    let outcome = client(&server)
        .check_request(CheckKind::Lint, &req)
        .expect("lint runs");
    let nl001 = outcome
        .diagnostics
        .iter()
        .find(|d| d.code == "NL001")
        .expect("combinational loop is reported");
    assert!(
        nl001.message.contains("loop") || nl001.message.contains("drives its own"),
        "message names the problem: {}",
        nl001.message
    );

    // The finding registered in the daemon-wide per-rule counters, in
    // both renderings of the metrics verb.
    let metrics = client(&server).metrics(false).expect("metrics");
    assert!(
        metrics["lint_rules"]["NL001"].as_u64().unwrap_or(0) >= 1,
        "JSON metrics count the rule hit: {metrics}"
    );
    let text_reply = client(&server).metrics(true).expect("metrics text");
    let text = text_reply["text"].as_str().expect("text body");
    assert!(text.contains("flowd_lint_rule_hits_total{rule=\"NL001\"}"));
    assert!(
        text.contains("flowd_unknown_stage_events_total 0"),
        "lint events must not register as unknown stages"
    );
    assert!(text.contains("flowd_unknown_lint_rules_total 0"));

    // The check verbs round-trip through the typed request layer too.
    for kind in KINDS {
        let v = Request::Check(kind, Box::new(req.clone())).to_value();
        assert_eq!(v["cmd"].as_str(), Some(kind.verb()));
    }
    server.shutdown();
}

#[test]
fn compile_gate_denies_with_diagnostics_and_off_stays_off() {
    let server = start_server();

    // lint=deny: the job fails at the lint stage and the error event
    // carries the structured findings.
    let deny_req = CompileRequest::new(SourceFormat::Blif, CYCLIC_BLIF)
        .with_options(serde_json::json!({"lint": "deny"}))
        .expect("valid options");
    match client(&server).compile_request(&deny_req) {
        Err(CompileError::Failed {
            stage,
            message,
            diagnostics,
            ..
        }) => {
            assert_eq!(stage, "lint");
            assert!(
                message.contains("NL001"),
                "message cites the rule: {message}"
            );
            assert!(
                diagnostics.iter().any(|d| d.code == "NL001"),
                "structured findings ride the error event: {diagnostics:?}"
            );
        }
        other => panic!("expected a lint denial, got {other:?}"),
    }

    // Default (lint off): the same design still fails — the netlist is
    // genuinely broken — but NOT at the lint stage, and with no
    // diagnostics attached: today's behavior, untouched.
    let off_req = CompileRequest::new(SourceFormat::Blif, CYCLIC_BLIF);
    match client(&server).compile_request(&off_req) {
        Err(CompileError::Failed {
            stage, diagnostics, ..
        }) => {
            assert_ne!(stage, "lint", "lint off means no lint gate ran");
            assert!(diagnostics.is_empty());
        }
        other => panic!("expected a flow failure, got {other:?}"),
    }

    // lint=warn on a clean design: compiles fine, findings (if any)
    // arrive on the done event instead of failing the job.
    let src = fpga_circuits::vhdl_counter(3);
    let warn_req = CompileRequest::new(SourceFormat::Vhdl, src.as_str())
        .with_options(serde_json::json!({"lint": "warn"}))
        .expect("valid options");
    let outcome = client(&server)
        .compile_request(&warn_req)
        .expect("warn mode never fails a compile");
    assert!(
        !outcome.bitstream.is_empty(),
        "warn mode still produces the bitstream"
    );
    assert!(
        outcome
            .lint
            .iter()
            .all(|d| d.severity != fpga_lint::Severity::Deny),
        "a clean design has no deny findings: {:?}",
        outcome.lint
    );
    server.shutdown();
}

#[test]
fn raw_check_requests_speak_version_1_json() {
    // A stringly-typed client (no typed layer) can use the verbs too:
    // plain JSON in, `lint_report` / `verify_report` event out.
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    let counter = fpga_circuits::vhdl_counter(3);
    let rows = [
        ("lint", "blif", CYCLIC_BLIF, "lint_report", "netlist"),
        (
            "verify",
            "vhdl",
            counter.as_str(),
            "verify_report",
            "bitstream",
        ),
    ];
    let server = start_server();
    for (cmd, format, source, terminal, reached) in rows {
        let stream = TcpStream::connect(server.tcp_addr().expect("tcp")).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);

        let mut req = serde_json::Map::new();
        req.insert("cmd".to_string(), serde_json::json!(cmd));
        req.insert("format".to_string(), serde_json::json!(format));
        req.insert("source".to_string(), serde_json::json!(source));
        writeln!(writer, "{}", Value::Object(req)).expect("send");
        writer.flush().expect("flush");

        let report = loop {
            let event = fpga_server::proto::read_line(&mut reader)
                .expect("read")
                .expect("open stream");
            match event["event"].as_str() {
                Some(name) if name == terminal => break event,
                Some("queued") | Some("stage") => continue,
                other => panic!("{cmd}: unexpected event {other:?}: {event}"),
            }
        };
        assert_eq!(report["reached"].as_str(), Some(reached), "{cmd}");
        let diags = report["diagnostics"].as_array().expect("diagnostics array");
        if cmd == "lint" {
            assert!(
                diags.iter().any(|d| d["code"].as_str() == Some("NL001")
                    && d["severity"].as_str() == Some("deny")),
                "wire-form diagnostics carry code and severity: {report}"
            );
        } else {
            assert!(diags.is_empty(), "a clean design verifies clean: {report}");
        }
    }
    server.shutdown();
}
