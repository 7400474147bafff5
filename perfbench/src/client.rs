//! The serve load generator: one process, one connection at a time.
//!
//! One *round* is a fixed schedule against a running `semandaq serve`:
//!
//! 1. delete the rows the previous round appended (untimed), so every
//!    round starts from the same live table;
//! 2. closed loop: append [`CLOSED`] rows one at a time, each sent only
//!    after the previous reply, with a `count` after every
//!    [`COUNT_EVERY`]th append and a `report` after every
//!    [`REPORT_EVERY`]th;
//! 3. pipelined: append [`PIPELINED`] further rows in batches of
//!    [`BATCH`] requests written at once, reading the batch's replies
//!    before the next batch goes out;
//! 4. a final `count`, which the caller checks against the oracle.
//!
//! A round appends the first [`ROUND_ROWS`] rows it is given.

use revival_stream::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Closed-loop appends per round.
pub const CLOSED: usize = 500;
/// Pipelined appends per round.
pub const PIPELINED: usize = 640;
/// Pipelined requests in flight.
pub const BATCH: usize = 64;
/// A `count` follows every this many closed-loop appends.
pub const COUNT_EVERY: usize = 10;
/// A `report` follows every this many closed-loop appends.
pub const REPORT_EVERY: usize = 500;
/// Rows one round appends.
pub const ROUND_ROWS: usize = CLOSED + PIPELINED;

// Every round has at least one count and one report sample.
const _: () = assert!(COUNT_EVERY <= CLOSED && REPORT_EVERY <= CLOSED);

/// What one round measured and saw.
#[derive(Default)]
pub struct Round {
    pub append_us: Vec<f64>,
    pub count_us: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub batch_ms: Vec<f64>,
    /// Rows appended by the pipelined phase, over its wall time.
    pub pipelined_rows_per_s: f64,
    /// Tuple ids of every row this round appended.
    pub ids: Vec<u64>,
    pub final_count: i64,
    /// Requests answered `ok: false` (or unparseable replies).
    pub errors: Vec<String>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<Response> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Response::parse(self.line.trim_end()).map_err(std::io::Error::other)
    }

    fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        self.send(&request.to_line())?;
        self.recv()
    }
}

fn check(resp: &Response, what: &str, errors: &mut Vec<String>) {
    if !resp.is_ok() {
        errors.push(format!("{what}: {}", resp.str("error").unwrap_or("not ok")));
    }
}

/// Run one round of appends of `rows[..ROUND_ROWS]` into `table`;
/// `stale` are the ids the previous round appended.
pub fn round(addr: &str, table: &str, rows: &[String], stale: &[u64]) -> std::io::Result<Round> {
    if rows.len() < ROUND_ROWS {
        return Err(std::io::Error::other(format!(
            "{} row(s) for a round of {ROUND_ROWS}",
            rows.len()
        )));
    }
    let mut conn = Conn::open(addr)?;
    let mut out = Round::default();
    let table = table.to_string();
    for &tuple in stale {
        let resp = conn.call(&Request::Delete { table: table.clone(), tuple })?;
        check(&resp, "delete", &mut out.errors);
    }
    let lines: Vec<String> = rows[..ROUND_ROWS]
        .iter()
        .map(|row| Request::Append { table: table.clone(), row: row.clone() }.to_line())
        .collect();
    let count_line = Request::Count { replica: false }.to_line();
    let report_line = Request::Report { max: 25, replica: false }.to_line();

    for (i, line) in lines[..CLOSED].iter().enumerate() {
        let t = Instant::now();
        conn.send(line)?;
        let resp = conn.recv()?;
        out.append_us.push(t.elapsed().as_secs_f64() * 1e6);
        check(&resp, "append", &mut out.errors);
        out.ids.push(resp.int("tuple").unwrap_or(-1) as u64);
        if (i + 1) % COUNT_EVERY == 0 {
            let t = Instant::now();
            conn.send(&count_line)?;
            let resp = conn.recv()?;
            out.count_us.push(t.elapsed().as_secs_f64() * 1e6);
            check(&resp, "count", &mut out.errors);
        }
        if (i + 1) % REPORT_EVERY == 0 {
            let t = Instant::now();
            conn.send(&report_line)?;
            let resp = conn.recv()?;
            out.report_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check(&resp, "report", &mut out.errors);
        }
    }

    let stream_start = Instant::now();
    for chunk in lines[CLOSED..].chunks(BATCH) {
        let t = Instant::now();
        conn.send(&chunk.concat())?;
        for _ in chunk {
            let resp = conn.recv()?;
            check(&resp, "pipelined append", &mut out.errors);
            out.ids.push(resp.int("tuple").unwrap_or(-1) as u64);
        }
        out.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.pipelined_rows_per_s = PIPELINED as f64 / stream_start.elapsed().as_secs_f64();

    let resp = conn.call(&Request::Count { replica: false })?;
    check(&resp, "final count", &mut out.errors);
    out.final_count = resp.int("violations").unwrap_or(-1);
    Ok(out)
}
