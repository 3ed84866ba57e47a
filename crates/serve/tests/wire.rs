//! Wire-protocol integration tests: a real server on a real socket, a
//! real client, golden response fixtures, failure/disconnect semantics,
//! the cross-thread-count stream determinism guarantee, the served-load
//! gate, and proof that the stream oracle can fail.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cdb_datagen::paper_example_dataset;
use cdb_obsv::json::Json;
use cdb_runtime::{FaultPlan, RetryPolicy};
use cdb_sched::Envelope;
use cdb_serve::{
    verify_streams, Client, OracleCheck, ServeConfig, StreamEvent, Submit, SubmitOutcome,
};

/// The walkthrough crowd join over the example catalog.
const JOIN_SQL: &str = "SELECT * FROM Researcher, University \
     WHERE Researcher.affiliation CROWDJOIN University.name";

fn example_server(cfg: ServeConfig) -> cdb_serve::Server {
    let (db, truth) = paper_example_dataset();
    cdb_serve::start("127.0.0.1:0", db, truth, cfg).expect("bind")
}

fn submit(tenant: &str, budget: u64) -> Submit {
    Submit {
        tenant: tenant.into(),
        sql: JOIN_SQL.into(),
        budget_cents: budget,
        deadline_rounds: None,
    }
}

/// The value of one unlabelled `/metrics` series.
fn metric(client: &mut Client, name: &str) -> f64 {
    let prom = client.metrics().expect("metrics");
    cdb_obsv::validate_exposition(&prom).expect("exposition validates");
    prom.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} sample in:\n{prom}"))
        .parse()
        .expect("numeric sample")
}

const BUILDS: &str = "cdb_serve_predicate_index_builds_total";

/// Wait for a query to reach a terminal state (its stream being done).
fn wait_done(client: &mut Client, query: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.query_status(query).expect("status");
        if matches!(s.get("done"), Some(Json::Bool(true))) {
            return s;
        }
        assert!(Instant::now() < deadline, "query {query} never finished: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submit_stream_and_observe_end_to_end() {
    let server = example_server(ServeConfig::default());
    let mut client = Client::new(server.addr());

    // Catalog reflects the example schema.
    let catalog = client.catalog().expect("catalog");
    let tables = catalog.get("tables").and_then(Json::as_arr).expect("tables");
    assert!(tables.iter().any(|t| t.get("name").and_then(Json::as_str) == Some("Researcher")));

    let SubmitOutcome::Admitted { query } = client.submit(&submit("acme", 10_000)).expect("submit")
    else {
        panic!("expected admission");
    };
    let events = client.stream_events(query).expect("stream");
    let Some(StreamEvent::Done { cancelled: false, bindings, .. }) = events.last() else {
        panic!("stream must end in done: {events:?}");
    };
    assert!(*bindings > 0, "example join has answers");
    let streamed: usize = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Round { new, .. } => Some(new.len()),
            _ => None,
        })
        .sum();
    assert_eq!(streamed as u64, *bindings, "every binding streamed exactly once");

    // Status, tenant ledger, stats, metrics all answer.
    let status = wait_done(&mut client, query);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    let tenant = client.tenant_status("acme").expect("tenant").expect("known tenant");
    assert_eq!(tenant.get("completed").and_then(Json::as_num), Some(1.0));
    let spent = tenant.get("spent_cents").and_then(Json::as_num).unwrap();
    let refunded = tenant.get("refunded_cents").and_then(Json::as_num).unwrap();
    assert!(spent > 0.0);
    assert_eq!(spent + refunded, {
        let est = status.get("estimate").expect("estimate");
        est.get("cost_cents_upper").and_then(Json::as_num).unwrap()
    });
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("completed").and_then(Json::as_num), Some(1.0));
    let prom = client.metrics().expect("metrics");
    cdb_obsv::validate_exposition(&prom).expect("exposition validates");
    assert!(prom.contains("cdb_serve_queries_total{state=\"completed\"} 1"));
    assert!(prom.contains("cdb_tasks_dispatched_total"), "runtime families re-exposed");

    // Replays of a finished stream are byte-identical.
    let replay = client.stream(query, |_| true).expect("replay");
    let events2: Vec<StreamEvent> =
        replay.iter().map(|l| StreamEvent::decode(l).unwrap()).collect();
    assert_eq!(events, events2);
    server.shutdown();
}

#[test]
fn golden_admission_responses() {
    let mut cfg = ServeConfig::default();
    cfg.tenants
        .insert("broke".into(), Envelope { budget_cents: 1, max_active: 8, queue_capacity: 4 });
    cfg.tenants.insert(
        "narrow".into(),
        Envelope { budget_cents: 100_000, max_active: 1, queue_capacity: 1 },
    );
    cfg.round_delay_ms = 20;
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());

    // Budget-exceeded: the envelope can never cover the estimate.
    let resp = client
        .request("POST", "/queries", Some(&submit("broke", 10_000).encode()))
        .expect("request");
    assert_eq!(resp.status, 429);
    let estimate_cents = {
        // The estimate is deterministic; read it off a successful submit
        // on a healthy tenant rather than hard-coding dataset internals.
        let SubmitOutcome::Admitted { query } =
            client.submit(&submit("probe", 10_000)).expect("probe")
        else {
            panic!("probe admission");
        };
        let status = client.query_status(query).expect("status");
        status
            .get("estimate")
            .and_then(|e| e.get("cost_cents_upper"))
            .and_then(Json::as_num)
            .unwrap() as u64
    };
    assert_eq!(
        resp.body,
        format!(
            "{{\"decision\":\"rejected\",\"reason\":\"budget-exceeded\",\"needed_cents\":{estimate_cents},\"available_cents\":1}}"
        )
    );

    // Infeasible: the query's own budget cannot cover its envelope.
    let resp =
        client.request("POST", "/queries", Some(&submit("acme", 1).encode())).expect("request");
    assert_eq!(resp.status, 422);
    assert_eq!(resp.body, "{\"decision\":\"rejected\",\"reason\":\"infeasible\"}");

    // Queue-full: one active slot, one queue slot, third submission
    // bounces. The round delay keeps the first query running meanwhile.
    let first = client.submit(&submit("narrow", 10_000)).expect("s1");
    assert!(matches!(first, SubmitOutcome::Admitted { .. }));
    let second = client.submit(&submit("narrow", 10_000)).expect("s2");
    assert!(matches!(second, SubmitOutcome::Queued { position: 0, .. }), "{second:?}");
    let resp = client
        .request("POST", "/queries", Some(&submit("narrow", 10_000).encode()))
        .expect("request");
    assert_eq!(resp.status, 429);
    assert_eq!(resp.body, "{\"decision\":\"rejected\",\"reason\":\"queue-full\",\"capacity\":1}");

    // Malformed CQL is a 400 with a parse error, not a decision.
    let bad = Submit { sql: "SELEKT nonsense".into(), ..submit("acme", 10_000) };
    let resp = client.request("POST", "/queries", Some(&bad.encode())).expect("request");
    assert_eq!(resp.status, 400);
    assert!(resp.body.starts_with("{\"error\":"), "{}", resp.body);
    server.shutdown();
}

/// What the wire does not serve is refused before admission: a 400 naming
/// the reason, no query id, no mark on any ledger, and no join work.
#[test]
fn unserved_statements_are_refused_without_touching_a_ledger() {
    let server = example_server(ServeConfig::default());
    let mut client = Client::new(server.addr());
    let SubmitOutcome::Admitted { query } = client.submit(&submit("acme", 10_000)).expect("submit")
    else {
        panic!("expected admission");
    };
    wait_done(&mut client, query);
    let ledger = client.tenant_status("acme").expect("tenant").expect("known tenant");
    let stats = client.stats().expect("stats");
    assert_eq!(metric(&mut client, BUILDS), 1.0, "the admitted query's one join");

    // Both post-op statements join column pairs nothing has joined yet,
    // so planning either before refusing it would show as a build.
    for (sql, named) in [
        ("CREATE TABLE Extra (name varchar(64))", "SELECT"),
        ("FILL Researcher.affiliation", "SELECT"),
        (
            "SELECT * FROM Researcher, University WHERE University.name CROWDJOIN \
             Researcher.affiliation GROUP BY CROWD University.name",
            "GROUP BY",
        ),
        (
            "SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title \
             ORDER BY CROWD Citation.number",
            "ORDER BY",
        ),
    ] {
        for tenant in ["acme", "fresh"] {
            let refused = Submit { sql: sql.into(), ..submit(tenant, 10_000) };
            let resp =
                client.request("POST", "/queries", Some(&refused.encode())).expect("request");
            assert_eq!(resp.status, 400, "{sql}: {}", resp.body);
            let body = resp.json().expect("JSON body");
            assert_eq!(body.get("query"), None, "{sql}: {}", resp.body);
            let error = body.get("error").and_then(Json::as_str).expect("error message");
            assert!(error.contains(named), "{sql}: {error}");
        }
    }
    assert_eq!(client.tenant_status("acme").expect("tenant"), Some(ledger));
    assert_eq!(client.tenant_status("fresh").expect("tenant"), None, "no ledger opened");
    assert_eq!(client.stats().expect("stats"), stats);
    assert_eq!(metric(&mut client, BUILDS), 1.0, "refused statements join nothing");
    server.shutdown();
}

/// A server joins each CROWDJOIN key once: repeats of a statement, and
/// other statements sharing its keys, plan from the predicate index and
/// verify no pairs again — and still stream exactly the oracle's answers,
/// which plans without an index.
#[test]
fn a_repeated_submission_verifies_no_pairs_again() {
    const TWO_JOINS: &str = "SELECT * FROM Paper, Researcher, University \
         WHERE Paper.author CROWDJOIN Researcher.name AND \
         Researcher.affiliation CROWDJOIN University.name";
    let cfg = ServeConfig::default();
    let server = example_server(cfg.clone());
    let mut client = Client::new(server.addr());
    assert_eq!(metric(&mut client, BUILDS), 0.0, "the index fills lazily");

    let mut streams = BTreeMap::new();
    for _ in 0..4 {
        let repeat = Submit { sql: TWO_JOINS.into(), ..submit("acme", 10_000) };
        let SubmitOutcome::Admitted { query } = client.submit(&repeat).expect("submit") else {
            panic!("expected admission");
        };
        streams.insert(query, client.stream_events(query).expect("stream"));
        assert_eq!(metric(&mut client, BUILDS), 2.0, "one join per distinct key");
    }
    // JOIN_SQL's one key is TWO_JOINS' second.
    let SubmitOutcome::Admitted { query } = client.submit(&submit("acme", 10_000)).expect("submit")
    else {
        panic!("expected admission");
    };
    wait_done(&mut client, query);
    assert_eq!(metric(&mut client, BUILDS), 2.0, "a shared key is not joined again");
    assert_eq!(metric(&mut client, "cdb_serve_predicate_index_entries"), 2.0);
    assert!(metric(&mut client, "cdb_serve_predicate_index_pairs") > 0.0);

    let (db, truth) = paper_example_dataset();
    let check = verify_streams(&db, &truth, &cfg, TWO_JOINS, &streams);
    assert!(check.clean() && check.queries == 4 && check.bindings_total > 0, "{check:?}");
    server.shutdown();
}

#[test]
fn mid_stream_failure_refunds_the_whole_hold() {
    let mut cfg = ServeConfig::default();
    // Every assignment abandoned, no retries: the first dispatched task
    // fails its query after the stream has started.
    cfg.runtime.fault_plan = FaultPlan::none().with_abandon(1.0);
    cfg.runtime.retry = RetryPolicy { deadline_ms: 1_000, max_retries: 0 };
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());
    let SubmitOutcome::Admitted { query } = client.submit(&submit("acme", 10_000)).expect("submit")
    else {
        panic!("expected admission");
    };
    let events = client.stream_events(query).expect("stream");
    let Some(StreamEvent::Error { message }) = events.last() else {
        panic!("stream must end in error: {events:?}");
    };
    assert!(message.contains("retry budget"), "{message}");
    let status = wait_done(&mut client, query);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
    let tenant = client.tenant_status("acme").expect("tenant").expect("known");
    assert_eq!(tenant.get("spent_cents").and_then(Json::as_num), Some(0.0), "failures do not bill");
    assert_eq!(tenant.get("failed").and_then(Json::as_num), Some(1.0));
    let committed = tenant.get("committed_cents").and_then(Json::as_num).unwrap();
    assert_eq!(committed, 0.0, "hold fully released");
    server.shutdown();
}

/// A pool of 3 workers gives each task 3 answers, not the redundancy of 5:
/// the ledger bills the answers collected, never the ones the redundancy
/// asked for.
#[test]
fn a_pool_smaller_than_the_redundancy_bills_only_collected_answers() {
    let mut cfg = ServeConfig::default();
    cfg.runtime.worker_accuracies = vec![0.9; 3];
    cfg.runtime.retry = RetryPolicy { deadline_ms: 3_600_000, max_retries: 8 };
    let price = cfg.task_price_cents;
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());
    let (mut billed, mut held) = (0, 0);
    for _ in 0..3 {
        let SubmitOutcome::Admitted { query } =
            client.submit(&submit("acme", 10_000)).expect("submit")
        else {
            panic!("expected admission");
        };
        let events = client.stream_events(query).expect("stream");
        let Some(&StreamEvent::Done { tasks, assignments, cancelled: false, .. }) = events.last()
        else {
            panic!("stream must end in done: {events:?}");
        };
        assert_eq!(assignments, 3 * tasks, "each task is answered by the whole pool");
        billed += assignments * price;
        let status = wait_done(&mut client, query);
        let estimate = status.get("estimate").and_then(|e| e.get("cost_cents_upper"));
        held += estimate.and_then(Json::as_num).unwrap() as u64;
    }
    let tenant = client.tenant_status("acme").expect("tenant").expect("known");
    let num = |key: &str| tenant.get(key).and_then(Json::as_num).unwrap() as u64;
    assert_eq!(num("failed"), 0);
    assert_eq!(num("completed"), 3);
    assert_eq!(num("spent_cents"), billed);
    assert_eq!(num("spent_cents") + num("refunded_cents"), held);
    server.shutdown();
}

/// Perfect workers agree, so three votes of the five the redundancy asks
/// for decide every task and the other two are cancelled: a query
/// collects, and is billed, exactly the deciding votes.
#[test]
fn a_served_query_is_billed_only_the_votes_that_decided_it() {
    let mut cfg = ServeConfig::default();
    cfg.runtime.worker_accuracies = vec![1.0; 10];
    cfg.runtime.exec.redundancy = 5;
    cfg.runtime.retry = RetryPolicy { deadline_ms: 3_600_000, max_retries: 8 };
    let price = cfg.task_price_cents;
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());
    let mut billed = 0;
    for _ in 0..3 {
        let SubmitOutcome::Admitted { query } =
            client.submit(&submit("acme", 10_000)).expect("submit")
        else {
            panic!("expected admission");
        };
        let events = client.stream_events(query).expect("stream");
        let Some(&StreamEvent::Done { tasks, assignments, cancelled: false, .. }) = events.last()
        else {
            panic!("stream must end in done: {events:?}");
        };
        assert!(tasks > 0);
        assert_eq!(assignments, 3 * tasks, "three unanimous votes of five decide a task");
        billed += assignments * price;
        wait_done(&mut client, query);
    }
    let tenant = client.tenant_status("acme").expect("tenant").expect("known");
    let num = |key: &str| tenant.get(key).and_then(Json::as_num).unwrap() as u64;
    assert_eq!(num("completed"), 3);
    assert_eq!(num("spent_cents"), billed);
    server.shutdown();
}

/// A number the decoder would have to truncate is a 400 before admission:
/// no query id, no ledger opened, no query counted.
#[test]
fn a_negative_budget_is_a_400_and_creates_no_query() {
    let server = example_server(ServeConfig::default());
    let mut client = Client::new(server.addr());
    let stats = client.stats().expect("stats");
    let body = submit("fresh", 10_000).encode().replace("10000", "-5");
    let resp = client.request("POST", "/queries", Some(&body)).expect("request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let body = resp.json().expect("JSON body");
    assert_eq!(body.get("query"), None, "{body:?}");
    let error = body.get("error").and_then(Json::as_str).expect("error message");
    assert!(error.contains("budget_cents"), "{error}");
    assert_eq!(client.tenant_status("fresh").expect("tenant"), None, "no ledger opened");
    assert_eq!(client.stats().expect("stats"), stats);
    server.shutdown();
}

/// A normal submission still streams to `done`.
fn still_serves(client: &mut Client) {
    let SubmitOutcome::Admitted { query } =
        client.submit(&submit("after", 10_000)).expect("submit")
    else {
        panic!("expected admission");
    };
    let events = client.stream_events(query).expect("stream");
    assert!(
        matches!(events.last(), Some(StreamEvent::Done { cancelled: false, .. })),
        "{events:?}"
    );
}

/// Ten thousand nested brackets are a 400 from the JSON decoder, not a
/// stack overflow on the connection thread that takes the server down.
#[test]
fn a_deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    let server = example_server(ServeConfig::default());
    let mut client = Client::new(server.addr());
    let resp = client.request("POST", "/queries", Some(&"[".repeat(10_000))).expect("request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let error = resp.json().expect("JSON body");
    let error = error.get("error").and_then(Json::as_str).expect("error message");
    assert!(error.contains("nesting"), "{error}");
    still_serves(&mut client);
    server.shutdown();
}

/// A request head past the cap is refused and the connection closed
/// before the server buffers the rest of it.
#[test]
fn an_oversized_request_head_is_refused_and_the_server_keeps_serving() {
    use std::io::{Read, Write};
    let server = example_server(ServeConfig::default());
    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let head = format!("GET /{} HTTP/1.1\r\nConnection: close\r\n\r\n", "a".repeat(100 << 10));
    // The server may close (and reset) before taking every byte, so
    // neither the write nor the read is required to succeed in full.
    let _ = conn.write_all(head.as_bytes());
    let mut resp = Vec::new();
    let _ = conn.read_to_end(&mut resp);
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.is_empty() || resp.starts_with("HTTP/1.1 400 "), "{resp}");
    still_serves(&mut Client::new(server.addr()));
    server.shutdown();
}

#[test]
fn client_disconnect_mid_stream_cancels_and_refunds() {
    let mut cfg = ServeConfig::default();
    // Serial rounds + a real per-round delay: the query streams slowly
    // enough that the disconnect lands mid-run.
    cfg.runtime.exec.parallel_rounds = false;
    cfg.round_delay_ms = 30;
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());
    let SubmitOutcome::Admitted { query } = client.submit(&submit("acme", 10_000)).expect("submit")
    else {
        panic!("expected admission");
    };
    // Read until the first binding arrives, then hang up.
    let mut rounds_seen = 0;
    let lines = client
        .stream(query, |line| {
            if line.contains("\"event\":\"round\"") {
                rounds_seen += 1;
            }
            rounds_seen < 1
        })
        .expect("partial stream");
    assert!(rounds_seen >= 1, "saw a live round chunk: {lines:?}");

    let status = wait_done(&mut client, query);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("cancelled"));
    let tenant = client.tenant_status("acme").expect("tenant").expect("known");
    assert!(tenant.get("refunded_cents").and_then(Json::as_num).unwrap() > 0.0, "unspent refunded");
    assert_eq!(tenant.get("cancelled").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        tenant.get("committed_cents").and_then(Json::as_num).unwrap(),
        tenant.get("spent_cents").and_then(Json::as_num).unwrap(),
        "ledger settles to exactly the partial spend",
    );
    // The retained stream ends with a cancelled `done` carrying the
    // partial results.
    let events = client.stream_events(query).expect("replay");
    let Some(StreamEvent::Done { cancelled: true, .. }) = events.last() else {
        panic!("cancelled stream terminal: {events:?}");
    };
    server.shutdown();
}

#[test]
fn explicit_cancel_before_running_fully_refunds() {
    let mut cfg = ServeConfig::default();
    cfg.tenants.insert(
        "narrow".into(),
        Envelope { budget_cents: 100_000, max_active: 1, queue_capacity: 8 },
    );
    cfg.round_delay_ms = 25;
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());
    let SubmitOutcome::Admitted { query: running } =
        client.submit(&submit("narrow", 10_000)).expect("s1")
    else {
        panic!("first admitted");
    };
    let SubmitOutcome::Queued { query: waiting, .. } =
        client.submit(&submit("narrow", 10_000)).expect("s2")
    else {
        panic!("second queued");
    };
    assert!(client.cancel(waiting).expect("cancel"));
    let status = wait_done(&mut client, waiting);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("cancelled"));
    let events = client.stream_events(waiting).expect("stream");
    assert!(
        matches!(
            events.as_slice(),
            [StreamEvent::Done { cancelled: true, tasks: 0, refund_cents, .. }] if *refund_cents > 0
        ),
        "never-ran cancel is a single full-refund done chunk: {events:?}",
    );
    // The running query is unaffected and completes.
    let events = client.stream_events(running).expect("stream");
    assert!(matches!(events.last(), Some(StreamEvent::Done { cancelled: false, .. })));
    server.shutdown();
}

/// One set of books: `/stats`, the sum of the tenant ledgers and the
/// Prometheus family are the same numbers, whichever way a query ends.
#[test]
fn every_terminal_state_is_counted_once_in_every_view() {
    let mut cfg = ServeConfig::default();
    cfg.tenants.insert(
        "narrow".into(),
        Envelope { budget_cents: 100_000, max_active: 1, queue_capacity: 8 },
    );
    // One worker and a real per-round hold, so a second admitted query
    // waits in the run queue long enough to be cancelled there. A thin
    // dropout rate with no retries (and a deadline no honest answer
    // misses) fails some queries and not others — which ones is a pure
    // function of the seed and the query id.
    cfg.exec_threads = 1;
    cfg.round_delay_ms = 50;
    cfg.runtime.fault_plan = FaultPlan::none().with_dropout(0.01);
    cfg.runtime.retry = RetryPolicy { deadline_ms: 3_600_000, max_retries: 0 };
    let server = example_server(cfg);
    let mut client = Client::new(server.addr());

    // A server that has run nothing exposes an empty, valid histogram.
    let prom = client.metrics().expect("metrics");
    cdb_obsv::validate_exposition(&prom).expect("empty exposition validates");
    assert!(prom.contains("cdb_serve_first_binding_ms_bucket{le=\"+Inf\"} 0"));
    assert!(prom.contains("cdb_serve_first_binding_ms_count 0"));

    let mut ids = Vec::new();
    let mut admit = |client: &mut Client, tenant: &str| match client
        .submit(&submit(tenant, 10_000))
        .expect("submit")
    {
        SubmitOutcome::Admitted { query } | SubmitOutcome::Queued { query, .. } => {
            ids.push(query);
            query
        }
        r => panic!("unexpected rejection: {r:?}"),
    };
    // Occupies narrow's slot and the only worker.
    admit(&mut client, "narrow");
    // Cancelled while admission-queued behind it.
    let queued = admit(&mut client, "narrow");
    assert_eq!(
        client.query_status(queued).unwrap().get("state").and_then(Json::as_str),
        Some("queued")
    );
    assert!(client.cancel(queued).expect("cancel"));
    // Cancelled while admitted but still waiting for the worker.
    let admitted = admit(&mut client, "wide");
    assert_eq!(
        client.query_status(admitted).unwrap().get("state").and_then(Json::as_str),
        Some("admitted")
    );
    assert!(client.cancel(admitted).expect("cancel"));
    // Rejected: a query budget that cannot cover its own estimate.
    let rejected = client.submit(&submit("wide", 1)).expect("submit");
    assert!(matches!(rejected, SubmitOutcome::Rejected { .. }), "{rejected:?}");
    // The rest run to whatever end the fault plan gives them.
    for _ in 0..5 {
        admit(&mut client, "wide");
        admit(&mut client, "narrow");
    }

    let mut by_state: BTreeMap<String, u64> = BTreeMap::new();
    let mut streamed_a_binding = 0u64;
    for &id in &ids {
        let status = wait_done(&mut client, id);
        let state = status.get("state").and_then(Json::as_str).expect("state").to_string();
        *by_state.entry(state).or_default() += 1;
        let events = client.stream_events(id).expect("replay");
        streamed_a_binding +=
            u64::from(events.iter().any(|e| matches!(e, StreamEvent::Round { .. })));
    }
    let expected = [
        ("completed", by_state.get("done").copied().unwrap_or(0)),
        ("failed", by_state.get("failed").copied().unwrap_or(0)),
        ("cancelled", by_state.get("cancelled").copied().unwrap_or(0)),
        ("rejected", 1),
    ];
    assert!(expected[0].1 > 0 && expected[1].1 > 0, "want both outcomes: {by_state:?}");
    assert_eq!(expected[2].1, 2, "exactly the two explicit cancels: {by_state:?}");

    let stats = client.stats().expect("stats");
    let tenants: Vec<Json> = ["narrow", "wide"]
        .iter()
        .map(|t| client.tenant_status(t).expect("tenant").expect("known tenant"))
        .collect();
    let prom = client.metrics().expect("metrics");
    cdb_obsv::validate_exposition(&prom).expect("exposition validates");
    for (key, want) in expected {
        let num = |j: &Json| j.get(key).and_then(Json::as_num).expect(key) as u64;
        assert_eq!(num(&stats), want, "/stats {key}");
        assert_eq!(tenants.iter().map(num).sum::<u64>(), want, "tenant ledgers {key}");
        assert!(
            prom.contains(&format!("cdb_serve_queries_total{{state=\"{key}\"}} {want}\n")),
            "cdb_serve_queries_total {key} != {want}:\n{prom}"
        );
    }
    assert_eq!(stats.get("inflight").and_then(Json::as_num), Some(0.0));
    assert!(streamed_a_binding > 0);
    assert!(
        prom.contains(&format!("cdb_serve_first_binding_ms_count {streamed_a_binding}\n")),
        "one first-binding sample per query that streamed one ({streamed_a_binding}):\n{prom}"
    );
    server.shutdown();
}

/// The wire determinism guarantee: 1-, 4-, and 8-worker servers produce
/// byte-identical NDJSON streams for the same seed and submission order.
#[test]
fn streams_are_byte_identical_across_worker_pool_sizes() {
    let mut baseline: Option<BTreeMap<u64, String>> = None;
    for exec_threads in [1usize, 4, 8] {
        let cfg = ServeConfig { exec_threads, ..ServeConfig::default() };
        let server = example_server(cfg);
        let mut client = Client::new(server.addr());
        let mut streams = BTreeMap::new();
        let ids: Vec<u64> = (0..6)
            .map(|_| match client.submit(&submit("acme", 10_000)).expect("submit") {
                SubmitOutcome::Admitted { query } | SubmitOutcome::Queued { query, .. } => query,
                r => panic!("unexpected rejection: {r:?}"),
            })
            .collect();
        for id in ids {
            let lines = client.stream(id, |_| true).expect("stream");
            streams.insert(id, lines.concat());
        }
        match &baseline {
            None => baseline = Some(streams),
            Some(b) => assert_eq!(b, &streams, "streams diverged at {exec_threads} exec threads"),
        }
        server.shutdown();
    }
}

/// Submit `tenants × per_tenant` example joins round-robin over the
/// tenants, stream every id to its end, and return the server's `/stats`
/// plus the oracle's verdict on the streams.
fn load_phase(cfg: &ServeConfig, tenants: usize, per_tenant: usize) -> (Json, OracleCheck) {
    let server = example_server(cfg.clone());
    let mut client = Client::new(server.addr());
    let ids: Vec<u64> = (0..tenants * per_tenant)
        .map(|i| {
            match client.submit(&submit(&format!("t{:02}", i % tenants), 1_000)).expect("submit") {
                SubmitOutcome::Admitted { query } | SubmitOutcome::Queued { query, .. } => query,
                r => panic!("unexpected rejection: {r:?}"),
            }
        })
        .collect();
    let streams: BTreeMap<u64, Vec<StreamEvent>> =
        ids.iter().map(|&id| (id, client.stream_events(id).expect("stream"))).collect();
    let stats = client.stats().expect("stats");
    server.shutdown();
    let (db, truth) = paper_example_dataset();
    (stats, verify_streams(&db, &truth, cfg, JOIN_SQL, &streams))
}

/// The served-load gate: a throttled phase holds over a thousand queries
/// in flight and an unthrottled one runs flat out, and every stream of
/// both carries exactly the oracle's bindings. Query ids key all
/// randomness, so the binding totals are exact counts.
#[test]
fn a_thousand_in_flight_queries_stream_exactly_the_oracle() {
    let mut cfg = ServeConfig::default();
    cfg.runtime.seed = 42;
    // The default 2-minute virtual assignment deadline starves the long
    // tail of a 1.4k-query fleet even without faults.
    cfg.runtime.retry = RetryPolicy { deadline_ms: 300_000, max_retries: 8 };
    cfg.exec_threads = 8;
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_num).expect(key) as u64;

    // Concurrency: the 30 ms round hold stands in for a real crowd's long
    // rounds, and max_active 4 keeps most of each tenant's backlog queued,
    // so admission and promotion carry the load, not just the run queue.
    let conc = ServeConfig {
        round_delay_ms: 30,
        default_envelope: Envelope { budget_cents: 100_000, max_active: 4, queue_capacity: 128 },
        ..cfg.clone()
    };
    let (stats, check) = load_phase(&conc, 16, 88);
    assert!(num(&stats, "peak_inflight") >= 1_000, "{stats:?}");
    assert_eq!(num(&stats, "completed"), 1_408, "{stats:?}");
    for key in ["failed", "cancelled", "rejected"] {
        assert_eq!(num(&stats, key), 0, "{key}: {stats:?}");
    }
    assert!(check.clean(), "{check:?}");
    assert_eq!((check.queries, check.bindings_total), (1_408, 5_950), "{check:?}");

    // Throughput: unthrottled.
    let (stats, check) = load_phase(&cfg, 8, 40);
    assert_eq!(num(&stats, "completed"), 320, "{stats:?}");
    assert!(check.clean(), "{check:?}");
    assert_eq!((check.queries, check.bindings_total), (320, 1_339), "{check:?}");
}

/// The oracle can fail: doctored copies of real streams report exactly
/// the damage done to them.
#[test]
fn the_oracle_reports_every_doctored_stream() {
    let cfg = ServeConfig::default();
    let server = example_server(cfg.clone());
    let mut client = Client::new(server.addr());
    let streams: BTreeMap<u64, Vec<StreamEvent>> = (0..3)
        .map(|_| match client.submit(&submit("acme", 10_000)).expect("submit") {
            SubmitOutcome::Admitted { query } | SubmitOutcome::Queued { query, .. } => {
                (query, client.stream_events(query).expect("stream"))
            }
            r => panic!("unexpected rejection: {r:?}"),
        })
        .collect();
    server.shutdown();
    let (db, truth) = paper_example_dataset();
    let check = |streams: &BTreeMap<u64, Vec<StreamEvent>>| {
        verify_streams(&db, &truth, &cfg, JOIN_SQL, streams)
    };
    let untouched = check(&streams);
    assert!(untouched.clean() && untouched.retracted == 0, "{untouched:?}");
    assert_eq!(untouched.queries, 3);

    // One stream, doctored: `edit` gets a copy of its events and of the
    // first binding it streamed.
    fn first_round(events: &mut [StreamEvent]) -> &mut Vec<Vec<u64>> {
        events
            .iter_mut()
            .find_map(|e| match e {
                StreamEvent::Round { new, .. } if !new.is_empty() => Some(new),
                _ => None,
            })
            .expect("the example join streams a binding")
    }
    let (&id, events) = streams.iter().next().expect("a stream");
    let doctored = |edit: &dyn Fn(&mut Vec<StreamEvent>, Vec<u64>)| {
        let mut events = events.clone();
        let first = first_round(&mut events)[0].clone();
        edit(&mut events, first);
        check(&BTreeMap::from([(id, events)]))
    };

    let c = doctored(&|ev, _| {
        first_round(ev).remove(0);
    });
    assert_eq!((c.lost, c.duplicated, c.spurious), (1, 0, 0), "dropped: {c:?}");
    let c = doctored(&|ev, b| first_round(ev).push(b));
    assert_eq!((c.lost, c.duplicated, c.spurious), (0, 1, 0), "repeated: {c:?}");
    let c = doctored(&|ev, _| first_round(ev).push(vec![u64::MAX, u64::MAX]));
    assert_eq!((c.lost, c.duplicated, c.spurious), (0, 0, 1), "invented: {c:?}");
    let c = doctored(&|ev, b| ev.push(StreamEvent::Retract { bindings: vec![b] }));
    assert_eq!((c.lost, c.duplicated, c.spurious, c.retracted), (1, 0, 0, 1), "retracted: {c:?}");
    assert!(!c.clean());

    // SQL the server rejects has no answer: every streamed binding is
    // spurious.
    let c = verify_streams(&db, &truth, &cfg, "SELEKT nonsense", &streams);
    assert_eq!(
        (c.queries, c.bindings_total, c.spurious),
        (3, 0, untouched.bindings_total),
        "{c:?}"
    );
}
