//! Property tests for the proto v4 wire contract: the optional `tenant`
//! field on `compile`/`lint` must round-trip exactly, and compatibility
//! with version-3 peers must hold in both directions — a v3 daemon sees
//! `tenant` as an unknown field it ignores, and a v4 client must itself
//! ignore fields (and whole events) minted by peers newer than it.

use fpga_server::proto::{
    parse_event, parse_request_value, CompileRequest, Event, EventParseError, Request, SourceFormat,
};
use proptest::prelude::*;
use serde_json::Value;

/// Build a compile/lint request from generated parts. `options` cycles
/// through valid shapes (the wire validates options eagerly, so only
/// real ones round-trip).
fn build_request(
    lint: bool,
    blif: bool,
    source: String,
    options_pick: u8,
    deadline: Option<u64>,
    trace: bool,
    tenant: Option<String>,
) -> Request {
    let format = if blif {
        SourceFormat::Blif
    } else {
        SourceFormat::Vhdl
    };
    let mut req = CompileRequest::new(format, source);
    req.options = match options_pick % 4 {
        0 => Value::Null,
        1 => serde_json::json!({"place_seed": 7u64}),
        2 => serde_json::json!({"place_seed": 3u64, "verify_cycles": 4u64}),
        _ => serde_json::json!({"lint": "warn"}),
    };
    req.deadline_ms = deadline;
    req.trace = trace;
    req.tenant = tenant;
    let req = Box::new(req);
    if lint {
        Request::Check(fpga_flow::CheckKind::Lint, req)
    } else {
        Request::Compile(req)
    }
}

fn insert(v: &Value, key: &str, val: Value) -> Value {
    let Value::Object(map) = v else {
        panic!("wire form is an object")
    };
    let mut map = map.clone();
    map.insert(key.to_string(), val);
    Value::Object(map)
}

fn remove(v: &Value, key: &str) -> Value {
    let Value::Object(map) = v else {
        panic!("wire form is an object")
    };
    // The vendored Map has no `remove`; rebuild without the key.
    let mut out = serde_json::Map::new();
    for (k, val) in map.iter().filter(|(k, _)| k.as_str() != key) {
        out.insert(k.clone(), val.clone());
    }
    Value::Object(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → parse → encode is the identity, with and without a
    /// tenant, for both job verbs.
    #[test]
    fn requests_round_trip_with_and_without_tenant(
        lint in 0u8..2,
        blif in 0u8..2,
        source in "[a-z0-9 ();.]{0,48}",
        options_pick in 0u8..4,
        deadline in 1u64..1_000_000,
        has_deadline in 0u8..2,
        trace in 0u8..2,
        tenant in "[a-z][a-z0-9-]{0,14}",
        has_tenant in 0u8..2,
    ) {
        let req = build_request(
            lint == 1,
            blif == 1,
            source,
            options_pick,
            (has_deadline == 1).then_some(deadline),
            trace == 1,
            (has_tenant == 1).then_some(tenant.clone()),
        );
        let wire = req.to_value();
        // The tenant rides the wire iff it was set, verbatim.
        prop_assert_eq!(
            wire.get("tenant").and_then(Value::as_str),
            (has_tenant == 1).then_some(tenant.as_str())
        );
        let reparsed = parse_request_value(&wire)
            .map_err(proptest::TestCaseError::fail)?;
        prop_assert_eq!(reparsed.to_value(), wire);
    }

    /// Forward compatibility: unknown top-level request fields (what a
    /// v5 client's additions will look like to us) are ignored, exactly
    /// as a v3 daemon today ignores `tenant`.
    #[test]
    fn unknown_request_fields_are_tolerated(
        lint in 0u8..2,
        source in "[a-z ]{0,32}",
        tenant in "[a-z]{1,10}",
        extra_key in "x_[a-z]{1,12}",
        extra_num in 0u64..1_000_000,
    ) {
        let req = build_request(
            lint == 1, false, source, 0, None, false, Some(tenant),
        );
        let wire = req.to_value();
        let with_extra = insert(
            &insert(&wire, &extra_key, extra_num.into()),
            "x_nested",
            serde_json::json!({"deep": true}),
        );
        let reparsed = parse_request_value(&with_extra)
            .map_err(proptest::TestCaseError::fail)?;
        // Unknown fields vanish; everything known survives untouched.
        prop_assert_eq!(reparsed.to_value(), wire);
    }

    /// Backward compatibility: a v3 peer (no tenant concept) sends the
    /// same line minus `tenant`; it must parse to the same request with
    /// `tenant: None`. A `null` tenant means the same thing.
    #[test]
    fn v3_lines_parse_with_tenant_none(
        lint in 0u8..2,
        source in "[a-z ]{0,32}",
        tenant in "[a-z]{1,10}",
        null_not_absent in 0u8..2,
    ) {
        let tagged = build_request(
            lint == 1, false, source.clone(), 1, Some(5_000), false, Some(tenant),
        );
        let v3_wire = if null_not_absent == 1 {
            insert(&tagged.to_value(), "tenant", Value::Null)
        } else {
            remove(&tagged.to_value(), "tenant")
        };
        let parsed = parse_request_value(&v3_wire)
            .map_err(proptest::TestCaseError::fail)?;
        let bare = build_request(lint == 1, false, source, 1, Some(5_000), false, None);
        prop_assert_eq!(parsed.to_value(), bare.to_value());
    }

    /// Events grown by a newer peer — extra fields on known events —
    /// still parse; whole unknown events are the typed
    /// [`EventParseError::Unknown`] escape hatch, never `Malformed`.
    #[test]
    fn events_tolerate_additions_from_newer_peers(
        job in 1u64..1_000,
        stage in "[a-z]{1,12}",
        extra_key in "y_[a-z]{1,10}",
        future_event in "z[a-z]{1,12}",
    ) {
        let events = [
            Event::Queued { job },
            Event::Stage {
                job,
                id: Some(stage.clone()),
                stage: stage.clone(),
                ok: true,
                elapsed_ms: 1.5,
                metrics: Value::Null,
            },
            Event::Rejected {
                job,
                reason: "full".to_string(),
                retry_after_ms: Some(250),
            },
            Event::Timeout {
                job,
                deadline_ms: Some(100),
                completed_stages: vec![stage.clone()],
                message: "late".to_string(),
            },
        ];
        for ev in &events {
            let grown = insert(&ev.to_value(), &extra_key, true.into());
            parse_event(&grown).map_err(|e| {
                proptest::TestCaseError::fail(format!("grown event rejected: {e}"))
            })?;
        }
        let alien = serde_json::json!({"event": serde_json::json!(future_event), "job": serde_json::json!(job)});
        match parse_event(&alien) {
            Err(EventParseError::Unknown(name)) => prop_assert_eq!(name, future_event),
            other => {
                return Err(proptest::TestCaseError::fail(format!(
                    "future event not classified Unknown: {other:?}"
                )))
            }
        }
    }
}
