//! `perfbench`: the in-process half of the repo benchmark.
//!
//! `perfbench/run.py` drives the benchmark; it calls this tool for the
//! three things a script cannot time well:
//!
//! * `perfbench spawn --stdout FILE -- PROGRAM ARGS...` — runs one
//!   command (see [`spawn`]) and prints its wall time and peak RSS as
//!   JSON;
//! * `perfbench round --addr HOST:PORT --table T --rows FILE [--stale
//!   FILE] --out FILE` — one serve round of the load generator (see
//!   [`client`]), its samples and the number of rows it appended as JSON;
//! * `perfbench trace --plan FILE --seconds S --out FILE --trace-file
//!   FILE` — the traced run (see [`layers`]): per-layer metrics as JSON
//!   plus a Chrome trace of every span.

mod client;
mod layers;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// The traced run's inputs, one `key=value` per line (written by
/// `run.py`).
pub struct Plan {
    pub table: String,
    pub cfd_text: String,
    pub detect: String,
    pub repair: String,
    pub discover: String,
    pub main_csv: String,
    pub serve_base: String,
    pub serve_rows: String,
    pub addr: String,
    pub out_dir: String,
    pub detects: usize,
    pub repairs: usize,
    pub discovers: usize,
    pub serve_rounds: usize,
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` by linear interpolation (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = q * (s.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    for pair in args.chunks(2) {
        let key =
            pair[0].strip_prefix("--").ok_or(format!("expected a flag, got `{}`", pair[0]))?;
        let value = pair.get(1).ok_or(format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(f: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    f.get(key).map(String::as_str).ok_or(format!("missing --{key}"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn list(v: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, x) in v.iter().enumerate() {
        let _ = write!(out, "{}{x:.3}", if i > 0 { "," } else { "" });
    }
    out + "]"
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Run `cmd` with its stdout in `stdout` and print
/// `{"wall_s":..,"maxrss_kb":..,"code":..}`. The peak RSS comes from
/// this small process's children: a child of `run.py` would report the
/// script's own resident size if that is the larger, since a process's
/// peak RSS counts the memory it had before `exec`.
fn spawn(args: &[String]) -> Result<(), String> {
    let [flag, path, dashes, program, rest @ ..] = args else {
        return Err("usage: perfbench spawn --stdout FILE -- PROGRAM ARGS...".into());
    };
    if flag != "--stdout" || dashes != "--" {
        return Err("usage: perfbench spawn --stdout FILE -- PROGRAM ARGS...".into());
    }
    let out = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let start = std::time::Instant::now();
    let status = std::process::Command::new(program)
        .args(rest)
        .stdout(out)
        .status()
        .map_err(|e| format!("{program}: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err("getrusage failed".into());
    }
    let code = status.code().unwrap_or(-1);
    println!("{{\"wall_s\":{wall},\"maxrss_kb\":{},\"code\":{code}}}", usage.maxrss_kb);
    Ok(())
}

fn round(f: &HashMap<String, String>) -> Result<(), String> {
    let rows: Vec<String> = read(get(f, "rows")?)?.lines().map(str::to_string).collect();
    let stale: Vec<u64> = match f.get("stale") {
        Some(path) => read(path)?.split_whitespace().filter_map(|t| t.parse().ok()).collect(),
        None => Vec::new(),
    };
    let r = client::round(get(f, "addr")?, get(f, "table")?, &rows, &stale)
        .map_err(|e| format!("round: {e}"))?;
    let json = format!(
        "{{\"rows\":{},\"append_us\":{},\"count_us\":{},\"report_ms\":{},\"batch_ms\":{},\
         \"pipelined_rows_per_s\":{},\"ids\":{:?},\"final_count\":{},\"errors\":{:?}}}\n",
        client::ROUND_ROWS,
        list(&r.append_us),
        list(&r.count_us),
        list(&r.report_ms),
        list(&r.batch_ms),
        r.pipelined_rows_per_s,
        r.ids,
        r.final_count,
        r.errors
    );
    std::fs::write(get(f, "out")?, json).map_err(|e| e.to_string())
}

fn traced(f: &HashMap<String, String>) -> Result<(), String> {
    let text = read(get(f, "plan")?)?;
    let kv: HashMap<&str, &str> = text.lines().filter_map(|l| l.split_once('=')).collect();
    let key = |k: &str| kv.get(k).map(|v| v.to_string()).ok_or(format!("plan lacks `{k}`"));
    let n = |k: &str| key(k)?.parse::<usize>().map_err(|_| format!("plan `{k}` is not a number"));
    let plan = Plan {
        table: key("table")?,
        cfd_text: read(&key("cfds")?)?,
        detect: key("detect")?,
        repair: key("repair")?,
        discover: key("discover")?,
        main_csv: key("main_csv")?,
        serve_base: key("serve_base")?,
        serve_rows: key("serve_rows")?,
        addr: key("addr")?,
        out_dir: key("out_dir")?,
        detects: n("detects")?,
        repairs: n("repairs")?,
        discovers: n("discovers")?,
        serve_rounds: n("serve_rounds")?,
    };
    let seconds: f64 = get(f, "seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    let json = layers::run(&plan, seconds, Path::new(get(f, "trace-file")?));
    std::fs::write(get(f, "out")?, json + "\n").map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spawn") => spawn(&args[1..]),
        Some("round") => flags(&args[1..]).and_then(|f| round(&f)),
        Some("trace") => flags(&args[1..]).and_then(|f| traced(&f)),
        _ => Err("usage: perfbench spawn|round|trace ... (see src/main.rs)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
