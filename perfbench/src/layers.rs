//! The traced run: each end-to-end operation replayed in process, with a
//! span around every public call it makes into a layer.
//!
//! The replay follows the CLI's own sequence of calls, so the root span
//! of an operation (`op.detect`, `op.repair`, `op.discover`,
//! `op.append`) covers the same work as the command, minus process
//! start and exit. Phases a layer times itself (the repair and
//! discovery job profiles) become child spans of the layer's call.

use crate::client::{self, CLOSED, REPORT_EVERY, ROUND_ROWS};
use crate::trace::Tracer;
use crate::{median, quantile, Plan};
use revival_detect::DetectJob;
use revival_discovery::{discovery_by_name, DiscoverJob, DiscoverOptions};
use revival_relation::{csv, Table};
use revival_repair::{BatchRepair, CostModel};
use revival_stream::{DeltaSession, Request, ServeOptions, ShardedSession};
use semandaq::{Engine, Session};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the run's operations returned, for the caller's oracle checks.
#[derive(Default)]
struct Outcomes {
    detect: Vec<String>,
    repair: Vec<String>,
    discover: Vec<String>,
    serve: Vec<String>,
    rows_scanned: u64,
    cells_changed: u64,
    candidates_checked: u64,
    vetted_per_mined: f64,
}

fn die(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("perfbench trace: {what}: {e}");
    std::process::exit(1)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(path, e))
}

/// `semandaq::load_table`, with the layer call inside a span.
fn load(tr: &mut Tracer, table: &str, path: &str) -> Table {
    let loaded = if path.ends_with(".sdq") {
        tr.span("relation.snapshot_open", |_| Table::open_snapshot(Path::new(path)))
    } else {
        let text = read(path);
        tr.span("relation.csv_read", |_| csv::read_table_infer(table, &text))
    };
    loaded.unwrap_or_else(|e| die(path, e))
}

fn session(tr: &mut Tracer, plan: &Plan, path: &str) -> Session {
    let table = load(tr, &plan.table, path);
    Session::from_table(table, &plan.cfd_text).unwrap_or_else(|e| die("cfds", e))
}

fn per_cfd(report: &revival_detect::ViolationReport, cfds: usize) -> Vec<u64> {
    let mut counts = vec![0u64; cfds];
    for v in &report.violations {
        if let revival_detect::Violation::CfdConstant { cfd, .. }
        | revival_detect::Violation::CfdVariable { cfd, .. } = v
        {
            counts[*cfd] += 1;
        }
    }
    counts
}

/// `semandaq detect --data F --cfds C --table T`.
fn detect(tr: &mut Tracer, plan: &Plan, out: &mut Outcomes) {
    tr.span("op.detect", |tr| {
        let s = session(tr, plan, &plan.detect);
        let job = DetectJob::on_table(&s.table, &s.cfds);
        let report = tr.span("detect.engine", |_| Engine::Native.detector(1).run(&job));
        let report = report.unwrap_or_else(|e| die("detect", e));
        out.rows_scanned = job.rows_scanned_sum();
        std::hint::black_box(tr.span("detect.render", |_| s.describe(&report, 25)));
        let counts = per_cfd(&report, s.cfds.len());
        out.detect.push(format!("{{\"total\":{},\"per_cfd\":{counts:?}}}", report.len()));
    });
}

/// `semandaq repair --data F --cfds C --table T --out FILE`.
fn repair(tr: &mut Tracer, plan: &Plan, out: &mut Outcomes, dest: &Path) {
    tr.span("op.repair", |tr| {
        let s = session(tr, plan, &plan.repair);
        let before = tr.span("detect.engine", |_| {
            Engine::Native.detector(1).run(&DetectJob::on_table(&s.table, &s.cfds))
        });
        before.unwrap_or_else(|e| die("repair: detect", e));
        let (fixed, stats) = tr.span("repair.engine", |tr| {
            let repairer = BatchRepair::new(&s.cfds, CostModel::uniform(s.table.schema().arity()))
                .with_jobs(1);
            let (fixed, stats, profile) =
                repairer.repair_profiled(&s.table).unwrap_or_else(|e| die("repair", e));
            tr.phases(&phases(
                &profile,
                &[
                    ("detect", "repair.detect"),
                    ("resolve", "repair.resolve"),
                    ("force", "repair.force"),
                ],
            ));
            (fixed, stats)
        });
        tr.span("relation.csv_write", |_| {
            std::fs::write(dest, csv::write_table(&fixed)).unwrap_or_else(|e| die("write", e))
        });
        out.cells_changed = stats.cells_changed as u64;
        out.repair.push(format!(
            "{{\"cells_changed\":{},\"out\":\"{}\"}}",
            stats.cells_changed,
            dest.display()
        ));
    });
}

/// `semandaq discover --data F --table T --min-confidence 0.9 --emit FILE`.
fn discover(tr: &mut Tracer, plan: &Plan, out: &mut Outcomes, dest: &Path) {
    tr.span("op.discover", |tr| {
        let table = load(tr, &plan.table, &plan.discover);
        let schemas = vec![table.schema().clone()];
        let options = DiscoverOptions {
            min_support: 3,
            min_confidence: 0.9,
            max_lhs: 2,
            top_values: 8,
            vet_budget: 50_000,
            jobs: 0,
            ..DiscoverOptions::default()
        };
        let engine = discovery_by_name("sequential").unwrap_or_else(|e| die("discover", e));
        let job = DiscoverJob::on_table(&table, options);
        let d = tr.span("discovery.engine", |tr| {
            let (d, profile) = engine.run_profiled(&job).unwrap_or_else(|e| die("discover", e));
            tr.phases(&phases(
                &profile,
                &[
                    ("lattice", "discovery.lattice"),
                    ("constant_rules", "discovery.constant_rules"),
                    ("vetting", "discovery.vetting"),
                    ("cind_mining", "discovery.cind_mining"),
                ],
            ));
            d
        });
        tr.span("discovery.render", |_| {
            let shown = semandaq::describe_discovered(&d, &schemas, 40);
            std::hint::black_box(shown.unwrap_or_else(|e| die("discover: render", e)));
            let suite = semandaq::discovered_cfd_text(&d, &schemas)
                .unwrap_or_else(|e| die("discover: emit", e));
            std::fs::write(dest, suite).unwrap_or_else(|e| die("emit", e));
        });
        out.candidates_checked = d.stats.candidates_checked as u64;
        out.vetted_per_mined = d.vetted.len() as f64 / d.rules.len().max(1) as f64;
        out.discover.push(format!("{{\"out\":\"{}\"}}", dest.display()));
    });
}

/// A job profile's phases (µs) as named child-span durations.
fn phases(
    profile: &revival_obs::JobProfile,
    names: &[(&str, &'static str)],
) -> Vec<(&'static str, Duration)> {
    names
        .iter()
        .filter_map(|&(phase, span)| {
            let us = profile.phases.iter().find(|(p, _)| *p == phase)?.1;
            Some((span, Duration::from_micros(us)))
        })
        .collect()
}

/// The standalone relation-layer calls on the workload's main CSV.
fn relation_calls(tr: &mut Tracer, plan: &Plan, work: &Path) {
    let text = read(&plan.main_csv);
    let parsed = tr.span("relation.csv_parse", |_| csv::parse(&text));
    std::hint::black_box(parsed.unwrap_or_else(|e| die("csv parse", e)));
    let table = tr.span("relation.csv_read", |_| csv::read_table_infer(&plan.table, &text));
    let table = table.unwrap_or_else(|e| die("csv read", e));
    let sdq = work.join("main.sdq");
    let saved = tr.span("relation.snapshot_save", |_| table.save_snapshot(&sdq));
    saved.unwrap_or_else(|e| die("snapshot save", e));
    let opened = tr.span("relation.snapshot_open", |_| Table::open_snapshot(&sdq));
    std::hint::black_box(opened.unwrap_or_else(|e| die("snapshot open", e)));
}

/// The serve tier's layers in process: a fresh `ShardedSession` with the
/// server's options registers the base rows, then takes a round's
/// appends request by request (with the closed loop's reports); a
/// `DeltaSession` takes the same rows for the bare insert cost.
fn stream_calls(tr: &mut Tracer, plan: &Plan, rows: &[String], state: &Path) -> i64 {
    let _ = std::fs::remove_dir_all(state);
    let opts = ServeOptions { state: Some(state.to_path_buf()), ..ServeOptions::default() };
    let (tier, _) = ShardedSession::open(&opts).unwrap_or_else(|e| die("open session", e));
    let base = read(&plan.serve_base);
    let register = Request::Register {
        table: plan.table.clone(),
        csv: base.clone(),
        cfds: plan.cfd_text.clone(),
        merged: false,
    };
    let resp = tr.span("stream.register", |_| tier.handle(&register));
    if !resp.is_ok() {
        die("register", resp.str("error").unwrap_or("not ok"));
    }
    let report = Request::Report { max: 25, replica: false };
    for (i, row) in rows[..ROUND_ROWS].iter().enumerate() {
        let line = Request::Append { table: plan.table.clone(), row: row.clone() }.to_line();
        tr.span("op.append", |tr| {
            let req = tr.span("stream.protocol", |_| Request::parse(&line));
            let req = req.unwrap_or_else(|e| die("append: parse", e));
            let resp = tr.span("stream.handle_append", |_| tier.handle(&req));
            let encoded = tr.span("stream.protocol", |_| resp.to_line());
            if !resp.is_ok() {
                die("append", encoded);
            }
        });
        if i < CLOSED && (i + 1) % REPORT_EVERY == 0 {
            tr.span("stream.handle_report", |_| tier.handle(&report));
        }
    }
    let count = tier.handle(&Request::Count { replica: false }).int("violations").unwrap_or(-1);

    let table = csv::read_table_infer(&plan.table, &base).unwrap_or_else(|e| die("base", e));
    let cfds = revival_constraints::parser::parse_cfds(&plan.cfd_text, table.schema())
        .unwrap_or_else(|e| die("cfds", e));
    let schema = table.schema().clone();
    let mut session = DeltaSession::new(0);
    session.register(table, cfds).unwrap_or_else(|e| die("session register", e));
    for row in &rows[..ROUND_ROWS] {
        let values = csv::parse_line(&schema, row, 0).unwrap_or_else(|e| die("row", e));
        tr.span("stream.session_insert", |_| session.insert(&plan.table, values))
            .unwrap_or_else(|e| die("insert", e));
    }
    count
}

fn ms(d: &[Duration]) -> f64 {
    median(&d.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>())
}

/// Run rounds until `seconds` have passed; write the trace to
/// `trace_file` and return the run's summary as JSON.
pub fn run(plan: &Plan, seconds: f64, trace_file: &Path) -> String {
    let work = Path::new(&plan.out_dir);
    let rows: Vec<String> = read(&plan.serve_rows).lines().map(str::to_string).collect();
    if rows.len() < ROUND_ROWS {
        die(&plan.serve_rows, format!("{} row(s) for a round of {ROUND_ROWS}", rows.len()));
    }
    let mut tr = Tracer::new();
    let mut out = Outcomes::default();
    let mut client_rounds = Vec::new();
    let mut stale: Vec<u64> = Vec::new();
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..plan.detects {
            detect(&mut tr, plan, &mut out);
        }
        for k in 0..plan.repairs {
            let dest = work.join(format!("traced-fixed-{rounds}-{k}.csv"));
            repair(&mut tr, plan, &mut out, &dest);
        }
        for k in 0..plan.discovers {
            let dest = work.join(format!("traced-suite-{rounds}-{k}.txt"));
            discover(&mut tr, plan, &mut out, &dest);
        }
        relation_calls(&mut tr, plan, work);
        for _ in 0..plan.serve_rounds {
            let inproc = stream_calls(&mut tr, plan, &rows, &work.join("traced-state"));
            let r = client::round(&plan.addr, &plan.table, &rows, &stale)
                .unwrap_or_else(|e| die("serve round", e));
            out.serve.push(format!(
                "{{\"rows\":{ROUND_ROWS},\"inproc_count\":{inproc},\"client_count\":{},\
                 \"errors\":{:?}}}",
                r.final_count, r.errors
            ));
            stale = r.ids.clone();
            client_rounds.push(r);
        }
        rounds += 1;
    }
    std::fs::write(trace_file, tr.chrome_json()).unwrap_or_else(|e| die("trace file", e));

    let us = |d: &[Duration]| ms(d) * 1e3;
    let mut m: Vec<(&str, f64)> = vec![
        ("relation.csv_parse_ms", ms(&tr.durations("relation.csv_parse", None))),
        ("relation.csv_read_ms", ms(&tr.durations("relation.csv_read", None))),
        ("relation.snapshot_open_ms", ms(&tr.durations("relation.snapshot_open", None))),
        ("relation.snapshot_save_ms", ms(&tr.durations("relation.snapshot_save", None))),
        ("relation.csv_write_ms", ms(&tr.durations("relation.csv_write", Some("op.repair")))),
        ("detect.engine_ms", ms(&tr.durations("detect.engine", Some("op.detect")))),
        ("detect.rows_scanned", out.rows_scanned as f64),
        ("detect.render_ms", ms(&tr.durations("detect.render", Some("op.detect")))),
        ("repair.engine_s", ms(&tr.durations("repair.engine", Some("op.repair"))) / 1e3),
        ("repair.detect_ms", ms(&tr.durations("repair.detect", Some("op.repair")))),
        ("repair.resolve_s", ms(&tr.durations("repair.resolve", Some("op.repair"))) / 1e3),
        ("repair.force_ms", ms(&tr.durations("repair.force", Some("op.repair")))),
        ("repair.cells_changed", out.cells_changed as f64),
        ("discovery.engine_s", ms(&tr.durations("discovery.engine", Some("op.discover"))) / 1e3),
        ("discovery.lattice_ms", ms(&tr.durations("discovery.lattice", Some("op.discover")))),
        (
            "discovery.constant_rules_s",
            ms(&tr.durations("discovery.constant_rules", Some("op.discover"))) / 1e3,
        ),
        ("discovery.vetting_ms", ms(&tr.durations("discovery.vetting", Some("op.discover")))),
        ("discovery.render_ms", ms(&tr.durations("discovery.render", Some("op.discover")))),
        ("discovery.candidates_checked", out.candidates_checked as f64),
        ("discovery.vetted_per_mined", out.vetted_per_mined),
    ];

    // Per append: the two protocol spans (parse, encode) and the handle.
    let self_times = tr.self_times();
    let (mut protocol, mut handle, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_self: Vec<(&str, Vec<Duration>)> =
        vec![("op.detect", vec![]), ("op.repair", vec![]), ("op.discover", vec![])];
    for (i, s) in tr.spans.iter().enumerate() {
        if let Some((_, v)) = op_self.iter_mut().find(|(n, _)| *n == s.name) {
            v.push(self_times[i]);
        }
        if s.name != "op.append" {
            continue;
        }
        let kids = tr.spans.iter().filter(|c| c.parent == Some(i));
        let (mut p, mut h) = (Duration::ZERO, Duration::ZERO);
        for c in kids {
            match c.name {
                "stream.protocol" => p += c.dur(),
                _ => h += c.dur(),
            }
        }
        protocol.push(p);
        handle.push(h);
        unattributed.push(self_times[i]);
    }
    let all = |f: fn(&client::Round) -> &Vec<f64>| -> Vec<f64> {
        client_rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let append_us = median(&all(|r| &r.append_us));
    let handle_us = us(&handle);
    let protocol_us = us(&protocol);
    m.extend([
        ("stream.protocol_us", protocol_us),
        ("stream.session_insert_us", us(&tr.durations("stream.session_insert", None))),
        ("stream.handle_append_us", handle_us),
        ("stream.transport_us", append_us - handle_us),
        ("stream.pipeline_batch_ms", median(&all(|r| &r.batch_ms))),
        ("stream.handle_report_ms", ms(&tr.durations("stream.handle_report", None))),
        ("stream.register_ms", ms(&tr.durations("stream.register", None))),
        ("stream.append_us", append_us),
        ("stream.count_us", median(&all(|r| &r.count_us))),
        ("stream.append_p99_us", quantile(&all(|r| &r.append_us), 0.99)),
        ("stream.report_p99_ms", quantile(&all(|r| &r.report_ms), 0.99)),
        ("unattributed.detect_ms", ms(&op_self[0].1)),
        ("unattributed.repair_ms", ms(&op_self[1].1)),
        ("unattributed.discover_ms", ms(&op_self[2].1)),
        ("unattributed.append_us", append_us - protocol_us - handle_us),
    ]);

    // Human-readable: self time per layer, and per operation the layers
    // inside it against its remainder.
    eprintln!("traced run: {rounds} round(s), {} span(s)", tr.spans.len());
    for (layer, d) in tr.layer_self_times() {
        eprintln!("  self {layer:<12} {:>10.1} ms", d.as_secs_f64() * 1e3);
    }
    for (name, v) in &op_self {
        eprintln!("  {name:<12} median unattributed {:.3} ms over {} op(s)", ms(v), v.len());
    }
    eprintln!("  op.append     median unattributed {:.3} us (in process)", us(&unattributed));

    let mut json = format!("{{\"rounds\":{rounds},\"metrics\":{{");
    for (i, (k, v)) in m.iter().enumerate() {
        let _ = write!(json, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    let list = |v: &[String]| v.join(",");
    let _ = write!(
        json,
        "}},\"detect\":[{}],\"repair\":[{}],\"discover\":[{}],\"serve\":[{}]}}",
        list(&out.detect),
        list(&out.repair),
        list(&out.discover),
        list(&out.serve)
    );
    json
}
