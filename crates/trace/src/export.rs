//! Export plane: plaintext metrics scrape, chrome://tracing JSON, and
//! a minimal HTTP/1.0 exporter thread serving both.

use crate::metrics::MetricsSnapshot;
use crate::ring::{drain, Event};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Renders events as a chrome://tracing-compatible JSON array (load it
/// at chrome://tracing or ui.perfetto.dev). Spans become complete
/// (`"X"`) events, instants become `"i"`; timestamps are microseconds
/// with nanosecond fractions, pid is the event's node-agnostic process,
/// tid the recording thread.
pub fn chrome_trace_json(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = e.ts_ns as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{ts_us:.3},",
            e.kind.name(),
            if e.dur_ns == 0 { "i" } else { "X" },
        );
        if e.dur_ns != 0 {
            let _ = write!(out, "\"dur\":{:.3},", e.dur_ns as f64 / 1000.0);
        } else {
            // Instant scope: process-wide.
            out.push_str("\"s\":\"p\",");
        }
        let _ = write!(
            out,
            "\"pid\":0,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
            e.tid, e.a, e.b,
        );
    }
    out.push(']');
    out
}

/// Starts the metrics exporter on `addr` (e.g. `127.0.0.1:0`) and
/// returns the bound address. A detached thread serves, per
/// connection, one HTTP/1.0 request:
///
/// * `GET /metrics` (or `/`) — plaintext scrape of what `snapshot`
///   returns (a daemon passes its node's counters and histograms)
/// * `GET /trace` — chrome://tracing JSON of all events drained so far
///   (draining is consuming: each event is exported once)
///
/// The thread runs for the life of the process; there is deliberately
/// no shutdown plumbing — the daemon exposes it until exit, exactly
/// like its listen socket.
pub fn serve(
    addr: &str,
    snapshot: impl Fn() -> MetricsSnapshot + Send + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("lwsnap-metrics".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let _ = handle(stream, &snapshot);
            }
        })?;
    Ok(local)
}

fn handle(mut stream: TcpStream, snapshot: &dyn Fn() -> MetricsSnapshot) -> std::io::Result<()> {
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/trace" => ("200 OK", "application/json", chrome_trace_json(&drain())),
        "/" | "/metrics" => ("200 OK", "text/plain; version=0.0.4", snapshot().render()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Client-side scrape helper: fetches `http://addr/{path}` and returns
/// the body. Used by the loadgen smoke test and handy for scripts;
/// plain std TCP, no HTTP library.
pub fn fetch(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    // One write_all: a fragmented request can race the server's
    // single read + close and die on EPIPE.
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: lwsnap\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_owned()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed http response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kind;

    #[test]
    fn chrome_json_shapes_spans_and_instants() {
        let events = [
            Event {
                ts_ns: 1500,
                dur_ns: 2500,
                kind: Kind::SolverRun,
                tid: 3,
                a: 7,
                b: 42,
            },
            Event {
                ts_ns: 4000,
                dur_ns: 0,
                kind: Kind::SnapHit,
                tid: 1,
                a: 9,
                b: 0,
            },
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(
            json,
            "[{\"name\":\"solver.run\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.500,\
             \"pid\":0,\"tid\":3,\"args\":{\"a\":7,\"b\":42}},\
             {\"name\":\"snap.hit\",\"ph\":\"i\",\"ts\":4.000,\"s\":\"p\",\
             \"pid\":0,\"tid\":1,\"args\":{\"a\":9,\"b\":0}}]"
        );
    }

    #[test]
    fn exporter_serves_scrape_and_404() {
        let _guard = crate::test_drain_lock();
        let addr = serve("127.0.0.1:0", || MetricsSnapshot {
            counters: crate::StatsSummary {
                queries: 7,
                ..Default::default()
            },
            ..crate::Registry::global().snapshot()
        })
        .expect("bind exporter");
        let body = fetch(addr, "/metrics").expect("scrape");
        assert!(
            body.contains("lwsnap_queries_total 7\n") && body.contains("lwsnap_request_ns_count"),
            "scrape body:\n{body}"
        );
        let trace = fetch(addr, "/trace").expect("trace");
        assert!(trace.starts_with('[') && trace.ends_with(']'));
        let missing = fetch(addr, "/nope").expect("404 body");
        assert_eq!(missing, "not found\n");
    }
}
