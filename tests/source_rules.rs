//! The source rules, one row each in [`RULES`]: patterns, the files they
//! are searched in, and where they may occur. [`check`] runs a row over
//! `(path, text)` pairs. A row scans only a Rust file's non-test part,
//! every line above the first that contains `#[cfg(test)]`, unless it
//! says [`WHOLE`]. A pattern is a substring; `…` separates parts that
//! must occur in this order on one line.

use std::path::Path;

use Allowed::*;

const WHOLE: u8 = 1; // scan past `#[cfg(test)]`
const NO_COMMENTS: u8 = 2; // skip lines that start with `//`
const FOLD: u8 = 4; // lowercase the line and drop `_` before matching

/// Where a row's matches may occur.
enum Allowed {
    Nowhere,
    /// At the sites this allowlist names, one `<path>: <trimmed line>` a line.
    Listed(&'static str),
    /// Pattern `i` only in file `i`, and at least once there.
    Only(&'static [&'static str]),
    /// On exactly one line, in this file.
    Once(&'static str),
}

struct Rule {
    name: &'static str,
    /// Path globs: `*` stays within a path segment, `**` crosses them; `!` excludes.
    files: &'static [&'static str],
    scan: u8,
    patterns: &'static [&'static str],
    allowed: Allowed,
    hint: &'static str,
}

/// The CAD crates: every stage between the netlist and the bitstream.
#[rustfmt::skip]
const CAD: &[&str] = &["crates/synth/src/**.rs", "crates/pack/src/**.rs", "crates/place/src/**.rs",
    "crates/route/src/**.rs", "crates/bitstream/src/**.rs", "crates/verify/src/**.rs", "crates/lint/src/**.rs",
    "crates/power/src/**.rs"];

#[rustfmt::skip]
const RULES: &[Rule] = &[
    // A panic path in non-test flow or server code is a bug unless it is infallible and listed.
    Rule { name: "unwrap", scan: 0, allowed: Listed("scripts/lint-allowlist.txt"), patterns: &[".unwrap()", ".expect("],
        files: &["crates/flow/src/*.rs", "crates/flow/src/bin/*.rs", "crates/server/src/*.rs", "crates/server/src/bin/*.rs"],
        hint: "handle the error, or justify and add to scripts/lint-allowlist.txt" },
    // One hash-order traversal in a canonical encoder or the cache-key plumbing forks every cache key.
    Rule { name: "canon", scan: NO_COMMENTS, allowed: Listed("scripts/canon-allowlist.txt"), patterns: &["HashMap", "HashSet"],
        files: &["crates/netlist/src/codec.rs", "crates/netlist/src/canonical.rs", "crates/pack/src/codec.rs",
            "crates/place/src/codec.rs", "crates/route/src/codec.rs", "crates/flow/src/cache.rs", "crates/flow/src/hash.rs",
            "crates/flow/src/artifact.rs", "crates/flow/src/store.rs"],
        hint: "use a BTreeMap/sorted Vec, or justify and add to scripts/canon-allowlist.txt" },
    // Every CAD crate addresses nets, cells, BLEs, blocks, RR nodes and wire keys by index.
    Rule { name: "dense indices", scan: 0, allowed: Nowhere, patterns: &["HashMap", "HashSet"],
        files: CAD,
        hint: "hashed container in index-addressed code: use a Vec, a sorted Vec or a BTree" },
    // Clustering::producer scans every BLE; it stays a test oracle.
    Rule { name: "producer scan", scan: 0, allowed: Nowhere, patterns: &[".producer("], files: &["crates/*/src/**.rs"],
        hint: "read a net's producing cluster from a table built once" },
    // One transport: a guard or a socket option is decided in one place.
    Rule { name: "sockets", scan: NO_COMMENTS, allowed: Nowhere, files: &["crates/server/src/**.rs", "!crates/server/src/net.rs"],
        patterns: &["TcpStream::connect", "connect_timeout", "UnixStream::connect", "TcpListener::bind", "UnixListener::bind",
            ".accept()", ".incoming()", "set_read_timeout", "set_write_timeout", "set_nodelay"],
        hint: "use net::serve / net::exchange / net::dial" },
    // The equivalence boundary and every seeded stream are sound only while each primitive has one home.
    Rule { name: "primitives", scan: FOLD, files: &["crates/**.rs"],
        patterns: &["<< 13", "fn splitmix64", "2545f4914f6cdd1d", "100000001b3", "parent["],
        allowed: Only(&["crates/netlist/src/mix.rs", "crates/netlist/src/mix.rs", "crates/netlist/src/mix.rs",
            "crates/netlist/src/mix.rs", "crates/bitstream/src/fabric.rs"]),
        hint: "call fpga_netlist::mix; closed switches become nets only in fpga_bitstream::fabric::Decoded::new" },
    // What a configuration bit means is decoded once, by the fabric emulator's model.
    Rule { name: "one bitstream decode", scan: 0, allowed: Nowhere, files: &["crates/verify/src/**.rs"],
        patterns: &["sb_switches", "cb_inputs", "cb_outputs"],
        hint: "read a bitstream's connectivity through fpga_bitstream::fabric::Decoded" },
    // Deleted duplicates and uncalled items stay deleted, from the docs too.
    Rule { name: "deleted items", scan: WHOLE, allowed: Nowhere, files: &["crates/**", "README.md", "DESIGN.md"],
        patterns: &["fn prune_dead", "netlist::stats", "clb_delay", "compile_vhdl_ctx", "compile_blif_ctx",
            "compile_detailed", "tenant-weight", "FLOW_THREADS", "run_netlist_ctx", "NET_BATCH", "fn route_batch",
            "RemoteHit", "remote_hits", "FETCH_ATTEMPTS", "corrupt_artifacts", "handle_version", "stats_json",
            "Request::Stats", "Event::Stats", "flowc stats", "fetch_breaker", "flowd_verify_rule_hits_total",
            "unknown_verify_rules", "\"verify_rules\"", "RULE_FAMILIES", "family_lists", "eval_net", "fn levelize",
            "content_prefix"],
        hint: "a deleted duplicate or uncalled item is back (Netlist::sweep_dead is the sweep, fpga_flow::compile the entry; nets route one at a time; the farm replicates, never fetches; `metrics` and `status` serve what `stats` did; every finding counts once, under its code, in flowd_lint_rule_hits_total; cut truth tables and the fabric emulator run on fpga_netlist::tape::Tape; a stage key chains from its entry's key)" },
    // The canonical text drops storage order, which every stage after it breaks ties by: no stage key may read it.
    Rule { name: "one key chain", scan: NO_COMMENTS, allowed: Nowhere, files: &["crates/flow/src/**.rs"],
        patterns: &["netlist::…canonical_text", "canonical_text(&"],
        hint: "key a stage on its upstream entry's key, an adopted netlist on its codec bytes (Architecture::canonical_text is another item)" },
    // Every simulation runs on the compiled tape; one scalar cell evaluator stays as the reference it is tested against.
    Rule { name: "one evaluator", scan: NO_COMMENTS, allowed: Once("crates/netlist/src/sim.rs"), patterns: &["fn eval_cell"],
        files: &["crates/**.rs"],
        hint: "evaluate a netlist on fpga_netlist::tape::Tape; sim::eval_cell is the one scalar reference" },
    // Place and route run on one thread; a schedule decides the bytes, not a thread count.
    Rule { name: "one thread per compile", scan: NO_COMMENTS, allowed: Nowhere, patterns: &["thread::"],
        files: CAD,
        hint: "a CAD crate spawns no threads; a fan-out, if one returns, partitions nets by disjoint boxes (ROADMAP 17)" },
    // Only the protocol module reads the wire format; everything else matches typed events.
    Rule { name: "wire vocabulary", scan: 0, allowed: Nowhere, patterns: &["[\"event\"]"],
        files: &["crates/server/src/**.rs", "crates/bench/src/**.rs", "!crates/server/src/proto.rs"],
        hint: "parse the line with proto::parse_event and match the Event variant" },
    // A line is parsed once, straight to a `Value`: `from_str` copies the whole tree through serde's `Content` and back.
    Rule { name: "one parse per line", scan: 0, allowed: Nowhere, patterns: &["serde_json::from_str(", "serde_json::from_str::<"],
        files: &["crates/server/src/**.rs", "crates/flow/src/**.rs"],
        hint: "parse JSON text with serde_json::from_str_value" },
    // A poisoned mutex is recovered in one place, beside the comment saying why that is sound.
    Rule { name: "poison recovery", scan: 0, allowed: Only(&["crates/flow/src/sync.rs"]), patterns: &["unwrap_or_else(…into_inner"],
        files: &["crates/flow/src/*.rs", "crates/server/src/*.rs"], hint: "call fpga_flow::sync::{lock, wait, wait_timeout}" },
    // A positional binding exports the wrong value under the right name when two rows swap.
    Rule { name: "positional family", scan: WHOLE, allowed: Nowhere, files: &["crates/server/src/metrics.rs"],
        patterns: &["rest @ .."], hint: "a metric family is bound by position (use its const)" },
    // A panic anywhere in a job is that job's `panic` terminal, caught once around the whole job.
    Rule { name: "panic boundary", scan: NO_COMMENTS, allowed: Once("crates/server/src/service.rs"), patterns: &["catch_unwind"],
        files: &["crates/server/src/**.rs"],
        hint: "catch_unwind must occur exactly once in non-test server code, in crates/server/src/service.rs" },
    // The SHA-256 kernel's call, behind its CPU feature check, is the one place the compiler's guarantees are waived.
    Rule { name: "unsafe", scan: NO_COMMENTS, allowed: Once("crates/flow/src/hash.rs"), patterns: &["unsafe"],
        files: &["crates/*/src/**.rs"],
        hint: "the one unsafe is the SHA-extension kernel's call in crates/flow/src/hash.rs, behind is_x86_feature_detected!" },
    // One argv reader: a binary's command line is read against its flag table, so nothing passes unread.
    Rule { name: "one argv reader", scan: NO_COMMENTS, allowed: Only(&["crates/flow/src/cli.rs"]), patterns: &["env::args"],
        files: &["crates/*/src/**.rs"], hint: "declare the binary's flag table and call fpga_flow::cli::parse_args" },
    // What can still end a worker thread ends the process; nothing restarts it.
    Rule { name: "supervisor", scan: 0, allowed: Nowhere, files: &["crates/*/src/**.rs", "README.md", "DESIGN.md"],
        patterns: &["supervis", "KillWorker", "KILL_WORKER", "worker-lost", "respawn"],
        hint: "the worker supervisor and its respawn / dead-worker plumbing are gone" },
];

/// `path` matches `pattern`: `*` within one segment, `**` across them.
fn glob(pattern: &str, path: &str) -> bool {
    let Some((head, tail)) = pattern.split_once('*') else {
        return pattern == path;
    };
    let (deep, tail) = tail.strip_prefix('*').map_or((false, tail), |t| (true, t));
    path.strip_prefix(head).is_some_and(|rest| {
        let end = rest.find('/').filter(|_| !deep).unwrap_or(rest.len());
        (0..=end).any(|i| rest.is_char_boundary(i) && glob(tail, &rest[i..]))
    })
}

/// A site's key from its pattern, path and trimmed line.
type Key = fn(&str, &str, &str) -> String;

/// `globs` select `path`: one matches it, and no `!`-prefixed one does.
fn selects(globs: &[&str], path: &str) -> bool {
    let (not, yes): (Vec<&str>, Vec<&str>) = globs.iter().partition(|g| g.starts_with('!'));
    yes.iter().any(|g| glob(g, path)) && !not.iter().any(|g| glob(&g[1..], path))
}

/// Runs one row over `files`: one message per failure, then the hint;
/// nothing if the row holds.
fn check(rule: &Rule, files: &[(String, String)]) -> Vec<String> {
    // Each site has a key, and the row names the keys it expects: a site
    // whose key is not expected fails, and so does an expected key that no
    // site has (a stale allowlist entry, a home without its pattern).
    let (key, want): (Key, Vec<String>) = match rule.allowed {
        Nowhere => (|_, _, _| String::new(), Vec::new()),
        Listed(list) => {
            let text = files.iter().find(|f| f.0 == list).map_or("", |f| &f.1);
            let entry = |l: &&str| !l.starts_with('#') && !l.trim().is_empty();
            let entries = text.lines().filter(entry).map(String::from).collect();
            (|_, path, text| format!("{path}: {text}"), entries)
        }
        Only(homes) => {
            let want = rule.patterns.iter().zip(homes);
            let want = want.map(|(p, h)| format!("'{p}' in {h}")).collect();
            (|p, path, _| format!("'{p}' in {path}"), want)
        }
        Once(home) => (|_, path, _| path.to_string(), vec![home.to_string()]),
    };
    let mut sites = Vec::new(); // (key, message)
    for (path, text) in files.iter().filter(|(p, _)| selects(rule.files, p)) {
        let cut = rule.scan & WHOLE == 0 && path.ends_with(".rs");
        for (n, line) in text.lines().enumerate() {
            if cut && line.contains("#[cfg(test)]") {
                break;
            }
            if rule.scan & NO_COMMENTS != 0 && line.trim_start().starts_with("//") {
                continue;
            }
            let folded = (rule.scan & FOLD != 0).then(|| line.to_lowercase().replace('_', ""));
            let folded = folded.as_deref().unwrap_or(line);
            for pattern in rule.patterns.iter().filter(|p| hit(folded, p)) {
                let at = format!("{}: {path}:{}: {}", rule.name, n + 1, line.trim());
                sites.push((key(pattern, path, line.trim()), at));
            }
        }
    }
    let once = matches!(rule.allowed, Once(_)) && sites.len() > 1;
    let bad = sites.iter().filter(|(k, _)| once || !want.contains(k));
    let stale = want.iter().filter(|e| !sites.iter().any(|(k, _)| k == *e));
    let stale = stale.map(|e| format!("{}: no site for {e}", rule.name));
    let mut out: Vec<String> = bad.map(|(_, at)| at.clone()).chain(stale).collect();
    out.dedup(); // a line that matches two patterns is one site
    if !out.is_empty() {
        out.push(format!("{}: ({})", rule.name, rule.hint));
    }
    out
}

/// `pattern`'s `…`-separated parts occur in `line` in this order.
fn hit(line: &str, pattern: &str) -> bool {
    let mut rest = line;
    let mut find = |part: &str| rest.find(part).map(|i| rest = &rest[i + part.len()..]);
    pattern.split('…').all(|part| find(part).is_some())
}

/// Appends every file at or under `rel`, a path relative to `root`.
fn walk(root: &Path, rel: &str, out: &mut Vec<(String, String)>) {
    let path = root.join(rel);
    let Ok(dir) = std::fs::read_dir(&path) else {
        let bytes = std::fs::read(&path).expect("readable file");
        return out.push((rel.into(), String::from_utf8_lossy(&bytes).into()));
    };
    for entry in dir {
        let name = entry.expect("directory entry").file_name();
        walk(root, &format!("{rel}/{}", name.to_string_lossy()), out);
    }
}

#[test]
fn the_repository_keeps_every_source_rule() {
    let mut files = Vec::new();
    for top in ["crates", "scripts", "README.md", "DESIGN.md"] {
        walk(Path::new(env!("CARGO_MANIFEST_DIR")), top, &mut files);
    }
    files.sort();
    let report: Vec<String> = RULES.iter().flat_map(|rule| check(rule, &files)).collect();
    assert!(report.is_empty(), "{}", report.join("\n"));
}

/// The scanner on synthetic files: `clean` keeps every row, and each
/// case adds or replaces files and names the failures it wants, hints
/// left out.
#[test]
fn the_scanner_reads_each_definition_as_written() {
    let clean = [
        ("crates/bitstream/src/fabric.rs", "parent[x]"),
        ("crates/flow/src/a.rs", "    x.unwrap();"),
        (
            "crates/flow/src/cli.rs",
            "let mut argv = std::env::args().skip(1);",
        ),
        (
            "crates/flow/src/hash.rs",
            "return unsafe { kernel(state) };",
        ),
        (
            "crates/flow/src/sync.rs",
            "m.lock().unwrap_or_else(|e| e.into_inner())",
        ),
        (
            "crates/netlist/src/mix.rs",
            "x << 13\nfn splitmix64\n0x2545F4914F6CDD1D\n0x100000001b3",
        ),
        (
            "crates/netlist/src/sim.rs",
            "pub fn eval_cell(kind: &CellKind, bits: &[bool]) -> bool {",
        ),
        ("crates/server/src/service.rs", "catch_unwind(job)"),
        (
            "scripts/lint-allowlist.txt",
            "# header\n\ncrates/flow/src/a.rs: x.unwrap();",
        ),
    ];
    let files = |extra: &[(&str, &str)]| -> Vec<(String, String)> {
        let kept = clean
            .iter()
            .filter(|(p, _)| !extra.iter().any(|(q, _)| p == q));
        kept.chain(extra)
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    };
    let run = |extra: &[(&str, &str)]| {
        let files = files(extra);
        let strip_hint = |mut out: Vec<String>| {
            out.pop();
            out
        };
        RULES
            .iter()
            .flat_map(|rule| strip_hint(check(rule, &files)))
            .collect::<Vec<_>>()
    };
    let none = Vec::<String>::new();
    assert_eq!(run(&[]), none);
    // A failing row ends with its hint.
    let producer = RULES.iter().find(|r| r.name == "producer scan").unwrap();
    let out = check(
        producer,
        &files(&[("crates/route/src/r.rs", "c.producer(net)")]),
    );
    let hint = "producer scan: (read a net's producing cluster from a table built once)";
    assert_eq!(
        out,
        [
            "producer scan: crates/route/src/r.rs:1: c.producer(net)",
            hint
        ]
    );

    // Text below `#[cfg(test)]` is ignored, except by a `WHOLE` row.
    let below = "fn f() {}\n#[cfg(test)]\nuse std::collections::HashMap;";
    assert_eq!(run(&[("crates/pack/src/p.rs", below)]), none);
    let below = "#[cfg(test)]\nrest @ ..";
    let want = ["positional family: crates/server/src/metrics.rs:2: rest @ .."];
    assert_eq!(run(&[("crates/server/src/metrics.rs", below)]), want);

    // `//` lines are skipped only in rows that say so.
    let comment = "  // s.set_nodelay(true)";
    assert_eq!(run(&[("crates/server/src/gateway.rs", comment)]), none);
    let want = ["dense indices: crates/route/src/r.rs:1: // HashMap"];
    assert_eq!(run(&[("crates/route/src/r.rs", "  // HashMap")]), want);

    // Folding catches a re-grouped, upper-case literal.
    let line = "const M: u64 = 0x2545_F491_4F6C_DD1D;";
    let want = [format!("primitives: crates/place/src/m.rs:1: {line}")];
    assert_eq!(run(&[("crates/place/src/m.rs", line)]), want);

    // A second home fails, and so does a home without its pattern.
    let want = ["primitives: crates/synth/src/s.rs:1: fn splitmix64(x: u64) -> u64 {"];
    assert_eq!(
        run(&[("crates/synth/src/s.rs", "fn splitmix64(x: u64) -> u64 {")]),
        want
    );
    let want = ["primitives: no site for 'parent[' in crates/bitstream/src/fabric.rs"];
    assert_eq!(run(&[("crates/bitstream/src/fabric.rs", "")]), want);

    // A stale entry fails.
    let list = "crates/flow/src/a.rs: x.unwrap();\ncrates/flow/src/b.rs: y.unwrap();";
    let want = ["unwrap: no site for crates/flow/src/b.rs: y.unwrap();"];
    assert_eq!(run(&[("scripts/lint-allowlist.txt", list)]), want);

    // An entry one character away from a site does not match it, even
    // where the entry is a substring of the site.
    let want = [
        "unwrap: crates/flow/src/a.rs:1: x.unwrap();;",
        "unwrap: no site for crates/flow/src/a.rs: x.unwrap();",
    ];
    assert_eq!(run(&[("crates/flow/src/a.rs", "x.unwrap();;")]), want);

    // The panic boundary is one line: a second one fails both.
    let want = [
        "panic boundary: crates/server/src/service.rs:1: catch_unwind(a)",
        "panic boundary: crates/server/src/service.rs:2: catch_unwind(b)",
    ];
    let twice = "catch_unwind(a)\ncatch_unwind(b)";
    assert_eq!(run(&[("crates/server/src/service.rs", twice)]), want);

    // A second `unsafe`, in any crate, fails both; a comment naming it
    // is no site.
    let want = [
        "unsafe: crates/flow/src/hash.rs:1: return unsafe { kernel(state) };",
        "unsafe: crates/route/src/r.rs:2: unsafe { f() }",
    ];
    let code = "// unsafe is one line\nunsafe { f() }";
    assert_eq!(run(&[("crates/route/src/r.rs", code)]), want);

    // A CAD crate's non-test code names no thread; a comment or a test may.
    let want = ["one thread per compile: crates/place/src/sa.rs:2: std::thread::scope(|s| f(s));"];
    let code =
        "// thread::scope is gone\nstd::thread::scope(|s| f(s));\n#[cfg(test)]\nthread::spawn(f);";
    assert_eq!(run(&[("crates/place/src/sa.rs", code)]), want);

    // Only cli.rs reads argv; a comment naming it is no site.
    let want = ["one argv reader: crates/bench/src/bin/b.rs:2: let csv = std::env::args().any(|a| a == \"--csv\");"];
    let code =
        "// std::env::args is read in cli.rs\nlet csv = std::env::args().any(|a| a == \"--csv\");";
    assert_eq!(run(&[("crates/bench/src/bin/b.rs", code)]), want);

    // Flow and server code parse straight to a `Value`; `from_str_value` is no site, nor is a test.
    let want = [
        "one parse per line: crates/flow/src/cache.rs:2: let m = serde_json::from_str::<Value>(&text);",
        "one parse per line: crates/server/src/proto.rs:1: let v: Value = serde_json::from_str(line)?;",
    ];
    let cache =
        "let m = serde_json::from_str_value(&text);\nlet m = serde_json::from_str::<Value>(&text);";
    let proto =
        "let v: Value = serde_json::from_str(line)?;\n#[cfg(test)]\nserde_json::from_str(line)";
    assert_eq!(
        run(&[
            ("crates/flow/src/cache.rs", cache),
            ("crates/server/src/proto.rs", proto)
        ]),
        want
    );

    // The view reads no switch or connection box itself; its tests may.
    let want =
        ["one bitstream decode: crates/verify/src/view.rs:1: let pairs = bs.sb_switches.iter();"];
    let code = "let pairs = bs.sb_switches.iter();\n#[cfg(test)]\nbs.cb_outputs.insert(c);";
    assert_eq!(run(&[("crates/verify/src/view.rs", code)]), want);

    // A deleted item fails anywhere: in a doc, a comment or a test.
    let want = [
        "deleted items: crates/route/src/r.rs:2: fn route_batch() {}",
        "deleted items: DESIGN.md:1: batches of `NET_BATCH` nets",
    ];
    let code = "#[cfg(test)]\nfn route_batch() {}";
    let doc = "batches of `NET_BATCH` nets";
    assert_eq!(
        run(&[("crates/route/src/r.rs", code), ("DESIGN.md", doc)]),
        want
    );

    // So do the remote fetch's items, in a test file or README.
    let want = [
        "deleted items: crates/server/tests/t.rs:1: assert_eq!(c.remote_hits.get(), 1);",
        "deleted items: README.md:1: a `RemoteHit` after the disk",
    ];
    let test = "assert_eq!(c.remote_hits.get(), 1);";
    let doc = "a `RemoteHit` after the disk";
    assert_eq!(
        run(&[("crates/server/tests/t.rs", test), ("README.md", doc)]),
        want
    );

    // So do the `stats` verb's items; `StageCache::stats(stage)` is another item.
    let want = [
        "deleted items: crates/server/src/net.rs:2: Ok(Request::Stats) => Event::Stats(node.stats()),",
        "deleted items: README.md:1: then `flowc stats` shows the ledger",
    ];
    let code =
        "let s = cache.stats(StageId::Pack);\nOk(Request::Stats) => Event::Stats(node.stats()),";
    let doc = "then `flowc stats` shows the ledger";
    assert_eq!(
        run(&[("crates/server/src/net.rs", code), ("README.md", doc)]),
        want
    );

    // Flow code keys nothing on the netlist's canonical text, imported or
    // called; the architecture's method of that name and a test may.
    let want = [
        "one key chain: crates/flow/src/stages.rs:1: use fpga_netlist::{canonical_text, Netlist};",
        "one key chain: crates/flow/src/stages.rs:2: let key = stage_key(LutMap, &[&canonical_text(&rtl)]);",
    ];
    let code = "use fpga_netlist::{canonical_text, Netlist};\nlet key = stage_key(LutMap, &[&canonical_text(&rtl)]);\nlet key = stage_key(Pack, &[&arch.canonical_text()]);\n#[cfg(test)]\nlet t = fpga_netlist::canonical_text(&rtl);";
    assert_eq!(run(&[("crates/flow/src/stages.rs", code)]), want);
    // The kept key prefix is a deleted item, in a test or a doc.
    let want = [
        "deleted items: crates/flow/src/cache.rs:2: cache.content_prefix(&key, prefix)",
        "deleted items: DESIGN.md:1: kept in `ReadyEntry::content_prefix`",
    ];
    let code = "#[cfg(test)]\ncache.content_prefix(&key, prefix)";
    let doc = "kept in `ReadyEntry::content_prefix`";
    assert_eq!(
        run(&[("crates/flow/src/cache.rs", code), ("DESIGN.md", doc)]),
        want
    );

    // A second cell evaluator fails both, wherever it is; so do the
    // deleted cone and fabric evaluators, in a test or a doc.
    let want = [
        "one evaluator: crates/netlist/src/sim.rs:1: pub fn eval_cell(kind: &CellKind, bits: &[bool]) -> bool {",
        "one evaluator: crates/verify/src/view.rs:1: pub fn eval_cell64(kind: &CellKind) -> u64 {",
    ];
    let code = "pub fn eval_cell64(kind: &CellKind) -> u64 {";
    assert_eq!(run(&[("crates/verify/src/view.rs", code)]), want);
    let want = [
        "deleted items: crates/synth/src/flowmap.rs:2: let v = eval_net(nl, root)?;",
        "deleted items: DESIGN.md:1: the emulator's `fn levelize`",
    ];
    let code = "#[cfg(test)]\nlet v = eval_net(nl, root)?;";
    let doc = "the emulator's `fn levelize`";
    assert_eq!(
        run(&[("crates/synth/src/flowmap.rs", code), ("DESIGN.md", doc)]),
        want
    );

    // So do the split findings families; `"lint_rules"` is the one family's key.
    let want = [
        "deleted items: crates/server/src/metrics.rs:2: root.insert(\"verify_rules\".into(), rules);",
        "deleted items: README.md:1: | `flowd_verify_rule_hits_total` | counter | `rule` |",
    ];
    let code =
        "root.insert(\"lint_rules\".into(), rules);\nroot.insert(\"verify_rules\".into(), rules);";
    let doc = "| `flowd_verify_rule_hits_total` | counter | `rule` |";
    assert_eq!(
        run(&[("crates/server/src/metrics.rs", code), ("README.md", doc)]),
        want
    );
}
