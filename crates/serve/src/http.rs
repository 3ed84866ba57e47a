//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for
//! the CQL service: request parsing with `Content-Length` bodies,
//! keep-alive, fixed-length responses, and chunked transfer encoding for
//! the NDJSON binding streams.
//!
//! This is deliberately not a general web server. It parses exactly what
//! [`crate::client`] and `cdb-cli` emit, rejects everything else with a
//! `400`, and never buffers an unbounded message: heads are capped at
//! [`MAX_HEAD`] and bodies at [`MAX_BODY`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the server will buffer (1 MiB — CQL text and
/// small JSON envelopes only).
pub const MAX_BODY: usize = 1 << 20;

/// Largest message head — start line plus headers — the server or client
/// will buffer (64 KiB).
pub const MAX_HEAD: u64 = 64 << 10;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped (`/queries/7/stream`).
    pub path: String,
    /// Raw query string after `?`, if any (unparsed; the protocol does
    /// not use it, but a client sending one should not break routing).
    pub query: Option<String>,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// True when the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or an empty string if it is not valid UTF-8.
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Read one request off the connection. `Ok(None)` means the peer closed
/// cleanly between requests (normal keep-alive shutdown); malformed
/// framing is an `InvalidData` error the caller answers with a `400`.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let head = read_head(reader, |line| {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => {
                Ok((m.to_string(), t.to_string()))
            }
            _ => Err(bad(format!("malformed request line: {line:?}"))),
        }
    })?;
    let Some(((method, target), headers)) = head else { return Ok(None) };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    let content_length = match header(&headers, "content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| bad(format!("bad content-length: {v:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(bad(format!("body too large: {content_length}")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, headers, body }))
}

/// Header `(name, value)` pairs, names lowercased.
pub(crate) type Headers = Vec<(String, String)>;

/// Read a message head, request or response: the start line (handed to
/// `start`, which may refuse it before any header is read), then
/// `name: value` headers up to the blank line, names lowercased. `Ok(None)`
/// when the peer closed before a start line; a header line without a `:`
/// or a head longer than [`MAX_HEAD`] is an `InvalidData` error.
pub(crate) fn read_head<T>(
    reader: &mut impl BufRead,
    start: impl FnOnce(&str) -> io::Result<T>,
) -> io::Result<Option<(T, Headers)>> {
    let mut reader = reader.take(MAX_HEAD);
    let mut line = String::new();
    if read_head_line(&mut reader, &mut line)? == 0 {
        return Ok(None);
    }
    let start = start(line.trim_end())?;
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        if read_head_line(&mut reader, &mut h)? == 0 {
            return Err(bad("connection closed mid-headers".to_string()));
        }
        let h = h.trim_end();
        if h.is_empty() {
            return Ok(Some((start, headers)));
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(bad(format!("malformed header: {h:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// One line of a head, refused when it runs into the [`MAX_HEAD`] cap.
fn read_head_line(reader: &mut io::Take<impl BufRead>, line: &mut String) -> io::Result<usize> {
    let n = reader.read_line(line)?;
    if reader.limit() == 0 && !line.ends_with('\n') {
        return Err(bad(format!("message head longer than {MAX_HEAD} bytes")));
    }
    Ok(n)
}

/// First value of a header, by lowercase name.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reason phrase for the handful of status codes the protocol uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Write a fixed-length response.
pub fn respond(
    w: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        conn,
    )?;
    w.write_all(body)?;
    w.flush()
}

/// A chunked-transfer-encoding response in progress: one NDJSON line per
/// chunk, flushed immediately so the client sees bindings as rounds
/// resolve. Dropping without [`finish`](ChunkedWriter::finish) leaves the
/// stream truncated (how a cancelled query's stream ends).
pub struct ChunkedWriter<'a> {
    w: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head and return the chunk writer. Chunked
    /// streams always close the connection when done — the stream *is*
    /// the conversation.
    pub fn start(w: &'a mut TcpStream, content_type: &str) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Send one chunk (a complete NDJSON line, `\n` included) and flush.
    /// A write error here is how the server learns the client went away.
    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        write!(self.w, "{:x}\r\n{}\r\n", data.len(), data)?;
        self.w.flush()
    }

    /// Terminate the stream (zero-length chunk).
    pub fn finish(self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let c = TcpStream::connect(addr).unwrap();
        let (s, _) = l.accept().unwrap();
        (c, s)
    }

    #[test]
    fn parses_a_post_with_body() {
        let (mut c, s) = pair();
        c.write_all(b"POST /queries HTTP/1.1\r\nContent-Length: 4\r\nX-T: v\r\n\r\nbody").unwrap();
        let mut r = BufReader::new(s);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/queries");
        assert_eq!(req.body_str(), "body");
        assert_eq!(req.header("x-t"), Some("v"));
        assert!(req.keep_alive());
    }

    #[test]
    fn strips_query_string_and_reads_eof_as_none() {
        let (mut c, s) = pair();
        c.write_all(b"GET /healthz?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        drop(c);
        let mut r = BufReader::new(s);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert!(!req.keep_alive());
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn rejects_oversized_bodies() {
        let (mut c, s) = pair();
        let head = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        c.write_all(head.as_bytes()).unwrap();
        let mut r = BufReader::new(s);
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn rejects_a_bad_request_line_before_any_header_and_a_bad_header() {
        // The client stays connected and sends no blank line: the request
        // line alone must be refused, not wait for headers.
        let (mut c, s) = pair();
        c.write_all(b"GARBAGE\r\n").unwrap();
        assert!(read_request(&mut BufReader::new(s)).is_err());
        let (mut c2, s) = pair();
        c2.write_all(b"GET / HTTP/1.1\r\nno colon\r\n\r\n").unwrap();
        assert!(read_request(&mut BufReader::new(s)).is_err());
        drop((c, c2));
    }

    #[test]
    fn a_head_past_the_cap_is_refused_without_buffering_the_rest() {
        // A 100 KiB request line, well formed apart from its length.
        let (mut c, s) = pair();
        let line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100 << 10));
        c.write_all(line.as_bytes()).unwrap();
        drop(c);
        let mut r = BufReader::new(s);
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than 65536"), "{err}");
        // Reading stopped at the cap: the rest of the line is still unread.
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len() as u64, line.len() as u64 - MAX_HEAD);
    }

    #[test]
    fn chunked_stream_roundtrips() {
        let (c, mut s) = pair();
        let t = std::thread::spawn(move || {
            let mut w = ChunkedWriter::start(&mut s, "application/x-ndjson").unwrap();
            w.chunk("{\"a\":1}\n").unwrap();
            w.chunk("{\"b\":2}\n").unwrap();
            w.finish().unwrap();
        });
        let mut buf = String::new();
        let mut r = BufReader::new(c);
        r.read_to_string(&mut buf).unwrap();
        t.join().unwrap();
        assert!(buf.contains("Transfer-Encoding: chunked"));
        assert!(buf.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(buf.ends_with("0\r\n\r\n"));
    }
}
