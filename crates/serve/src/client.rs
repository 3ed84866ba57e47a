//! A blocking HTTP client for the service — used by `cdb-cli`, the
//! benchmark, and the wire-protocol tests. One [`Client`] wraps one
//! keep-alive connection for unary calls; streams open their own
//! connection (the server closes chunked connections when the stream
//! ends).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use cdb_obsv::json::{parse, Json};

use crate::http::{self, header, Headers};
use crate::wire::{StreamEvent, Submit};

/// One unary response: status code and body text.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body, UTF-8 decoded.
    pub body: String,
}

impl HttpResponse {
    /// Parse the body as JSON (the whole protocol is JSON bodies).
    pub fn json(&self) -> Result<Json, String> {
        parse(&self.body)
    }
}

/// The decoded outcome of a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Running now.
    Admitted {
        /// Assigned query id.
        query: u64,
    },
    /// Waiting for a slot; will run without further client action.
    Queued {
        /// Assigned query id.
        query: u64,
        /// Queue position at decision time (0 = next).
        position: u64,
    },
    /// Turned away; no query id exists.
    Rejected {
        /// Typed reason label (`budget-exceeded`, `queue-full`,
        /// `infeasible`).
        reason: String,
        /// The full response body (reason-specific detail fields).
        detail: String,
    },
}

/// A keep-alive connection to the server for unary requests.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
}

impl Client {
    /// A client for the given server address (connects lazily).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn conn(&mut self) -> io::Result<&mut TcpStream> {
        if self.conn.is_none() {
            let conn = TcpStream::connect(self.addr)?;
            conn.set_nodelay(true)?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One unary request. Retries once on a fresh connection if the
    /// kept-alive one died (normal when the server idled us out).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        match self.request_once(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.conn = None;
                self.request_once(method, path, body)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let addr = self.addr;
        let conn = self.conn()?;
        let body = body.unwrap_or("");
        write!(
            conn,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )?;
        conn.flush()?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let (status, headers) = read_head(&mut reader)?;
        let resp = read_body(&mut reader, &headers)?;
        if header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.conn = None;
        }
        Ok(HttpResponse { status, body: resp })
    }

    /// Submit a query and decode the admission decision.
    pub fn submit(&mut self, submit: &Submit) -> io::Result<SubmitOutcome> {
        let resp = self.request("POST", "/queries", Some(&submit.encode()))?;
        let j = resp.json().map_err(invalid)?;
        let query = j.get("query").and_then(Json::as_num).map(|v| v as u64);
        match j.get("decision").and_then(Json::as_str) {
            Some("admitted") => Ok(SubmitOutcome::Admitted {
                query: query.ok_or_else(|| invalid("admitted without id".to_string()))?,
            }),
            Some("queued") => Ok(SubmitOutcome::Queued {
                query: query.ok_or_else(|| invalid("queued without id".to_string()))?,
                position: j.get("position").and_then(Json::as_num).unwrap_or_default() as u64,
            }),
            Some("rejected") => Ok(SubmitOutcome::Rejected {
                reason: j.get("reason").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                detail: resp.body.clone(),
            }),
            _ => Err(invalid(format!("bad submit response: {}", resp.body))),
        }
    }

    /// `GET /queries/{id}` as parsed JSON.
    pub fn query_status(&mut self, query: u64) -> io::Result<Json> {
        let resp = self.request("GET", &format!("/queries/{query}"), None)?;
        resp.json().map_err(invalid)
    }

    /// `POST /queries/{id}/cancel`; true when the server knew the query.
    pub fn cancel(&mut self, query: u64) -> io::Result<bool> {
        Ok(self.request("POST", &format!("/queries/{query}/cancel"), None)?.status == 200)
    }

    /// `GET /tenants/{name}` as parsed JSON (None when never seen).
    pub fn tenant_status(&mut self, tenant: &str) -> io::Result<Option<Json>> {
        let resp = self.request("GET", &format!("/tenants/{tenant}"), None)?;
        if resp.status != 200 {
            return Ok(None);
        }
        resp.json().map(Some).map_err(invalid)
    }

    /// `GET /stats` as parsed JSON.
    pub fn stats(&mut self) -> io::Result<Json> {
        let resp = self.request("GET", "/stats", None)?;
        resp.json().map_err(invalid)
    }

    /// `GET /metrics` Prometheus text.
    pub fn metrics(&mut self) -> io::Result<String> {
        Ok(self.request("GET", "/metrics", None)?.body)
    }

    /// `GET /catalog` as parsed JSON.
    pub fn catalog(&mut self) -> io::Result<Json> {
        let resp = self.request("GET", "/catalog", None)?;
        resp.json().map_err(invalid)
    }

    /// Open the query's NDJSON stream and hand each raw line (newline
    /// included) to `on_line` until the stream ends or the callback
    /// returns false — returning false drops the connection mid-stream,
    /// which the server treats as a client disconnect (cancelling the
    /// query if it is still running).
    ///
    /// Returns the raw lines delivered, in order.
    pub fn stream(
        &self,
        query: u64,
        mut on_line: impl FnMut(&str) -> bool,
    ) -> io::Result<Vec<String>> {
        let mut conn = TcpStream::connect(self.addr)?;
        conn.set_nodelay(true)?;
        write!(
            conn,
            "GET /queries/{query}/stream HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\n\r\n",
            self.addr,
        )?;
        conn.flush()?;
        let mut reader = BufReader::new(conn);
        let (status, headers) = read_head(&mut reader)?;
        if status != 200 {
            let body = read_body(&mut reader, &headers)?;
            return Err(invalid(format!("stream rejected ({status}): {body}")));
        }
        let mut lines = Vec::new();
        let mut partial = String::new();
        while let Some(chunk) = read_chunk(&mut reader)? {
            partial.push_str(&chunk);
            while let Some(pos) = partial.find('\n') {
                let line: String = partial.drain(..=pos).collect();
                let keep = on_line(&line);
                lines.push(line);
                if !keep {
                    return Ok(lines);
                }
            }
        }
        Ok(lines)
    }

    /// Stream a query to completion and decode every line.
    pub fn stream_events(&self, query: u64) -> io::Result<Vec<StreamEvent>> {
        let lines = self.stream(query, |_| true)?;
        lines.iter().map(|l| StreamEvent::decode(l).map_err(invalid)).collect()
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read a response's status line + headers.
fn read_head(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, Headers)> {
    let head = http::read_head(reader, |line| {
        line.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line: {line:?}")))
    })?;
    head.ok_or_else(|| invalid("connection closed before the status line".to_string()))
}

/// Read a fixed-length (or empty) response body.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    headers: &[(String, String)],
) -> io::Result<String> {
    let len = header(headers, "content-length").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| invalid(e.to_string()))
}

/// Decode one transfer-encoding chunk; `None` on the terminal chunk.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> io::Result<Option<String>> {
    let mut size_line = String::new();
    if reader.read_line(&mut size_line)? == 0 {
        // Stream truncated without a terminal chunk: a cancelled query's
        // stream ends this way.
        return Ok(None);
    }
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| invalid(format!("bad chunk size: {size_line:?}")))?;
    if size == 0 {
        let mut crlf = String::new();
        let _ = reader.read_line(&mut crlf);
        return Ok(None);
    }
    let mut buf = vec![0u8; size + 2];
    reader.read_exact(&mut buf)?;
    buf.truncate(size);
    String::from_utf8(buf).map(Some).map_err(|e| invalid(e.to_string()))
}
