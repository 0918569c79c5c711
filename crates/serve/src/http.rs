//! A hand-rolled HTTP/1.1 subset — the transport under `wcs-serve`.
//!
//! Same spirit as `wcs-telemetry`'s hand-rolled JSON: the repo is
//! dependency-free, and the daemon needs only the boring core of
//! HTTP/1.1 — one request per connection (`Connection: close`),
//! `Content-Length` bodies, a capped body size, and a raw-stream escape
//! hatch for the `text/event-stream` row feed. Anything outside that
//! subset is rejected up front rather than half-supported.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body. Spec files are a few hundred bytes;
/// one mebibyte is already three orders of magnitude of headroom.
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted header section (request line + all header lines).
pub const MAX_HEAD: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless a `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// What reading one request off a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A well-formed request.
    Request(Request),
    /// The peer closed without sending anything.
    Closed,
    /// The head exceeds [`MAX_HEAD`] or the declared body exceeds
    /// [`MAX_BODY`] (respond 413).
    TooLarge,
    /// Not parseable as HTTP/1.x (respond 400).
    Malformed,
}

/// Read and parse one request. I/O errors bubble; protocol problems are
/// data, not errors (see [`ReadOutcome`]). The head is read through one
/// [`MAX_HEAD`]-byte budget, so a line that never ends costs at most
/// that much memory, and the body is read only up to its declared
/// length: one request reads at most `MAX_HEAD + MAX_BODY` bytes.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<ReadOutcome> {
    let mut head = reader.by_ref().take(MAX_HEAD as u64);
    let request_line = match head_line(&mut head)? {
        Ok(line) => line,
        Err(outcome) => return Ok(outcome),
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Malformed);
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed);
    }
    let method = method.to_ascii_uppercase();

    let mut headers = Vec::new();
    loop {
        let line = match head_line(&mut head)? {
            Ok(line) => line,
            // The stream ended inside the header block.
            Err(ReadOutcome::Closed) => return Ok(ReadOutcome::Malformed),
            Err(outcome) => return Ok(outcome),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(ReadOutcome::Malformed);
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>());
    let body = match content_length {
        None => Vec::new(),
        Some(Err(_)) => return Ok(ReadOutcome::Malformed),
        Some(Ok(n)) if n > MAX_BODY => return Ok(ReadOutcome::TooLarge),
        Some(Ok(n)) => {
            let mut body = vec![0u8; n];
            match reader.read_exact(&mut body) {
                // The stream ended inside the declared body.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Ok(ReadOutcome::Malformed)
                }
                read => read?,
            }
            body
        }
    };

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw);
    let query = query_raw
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();

    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// The next line of a request head, read through `head` (the reader
/// capped at what is left of [`MAX_HEAD`]), without its line ending. A
/// line the cap cuts off is `TooLarge`; one the end of the stream cuts
/// off is `Closed` if it is empty and `Malformed` otherwise, as is a
/// line that is not UTF-8.
fn head_line<R: BufRead>(head: &mut io::Take<R>) -> io::Result<Result<String, ReadOutcome>> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') {
        return Ok(Err(if head.limit() == 0 {
            ReadOutcome::TooLarge
        } else if line.is_empty() {
            ReadOutcome::Closed
        } else {
            ReadOutcome::Malformed
        }));
    }
    while matches!(line.last(), Some(b'\r' | b'\n')) {
        line.pop();
    }
    Ok(String::from_utf8(line).map_err(|_| ReadOutcome::Malformed))
}

/// Decode `%XX` escapes and `+`-for-space. Invalid escapes pass through
/// verbatim — query values here are hex hashes and small integers, so
/// strictness buys nothing.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Write a complete response and flush. Every response closes the
/// connection (`Connection: close`) — one request per connection keeps
/// the server loop trivial and is plenty for a job-submission API.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// [`respond`] with `application/json`.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) -> io::Result<()> {
    respond(stream, status, reason, "application/json", body)
}

/// Write the response head of a `text/event-stream` body. The caller
/// streams events directly afterwards; end-of-stream is connection
/// close (no `Content-Length`).
pub fn sse_preamble(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_that_never_ends_is_too_large_after_the_head_budget() {
        let flood = vec![b'A'; 10 << 20];
        let mut unread = &flood[..];
        assert!(matches!(
            read_request(&mut unread).unwrap(),
            ReadOutcome::TooLarge
        ));
        let read = flood.len() - unread.len();
        assert!(read <= MAX_HEAD + 1, "read {read} bytes");
        // So is a header line that never ends, and a head of many short
        // header lines past the budget.
        let mut long_header = b"GET / HTTP/1.1\r\nX: ".to_vec();
        long_header.extend(&flood[..MAX_HEAD]);
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(MAX_HEAD / 4));
        for head in [&long_header[..], many.as_bytes()] {
            assert!(matches!(
                read_request(&mut &head[..]).unwrap(),
                ReadOutcome::TooLarge
            ));
        }
    }

    #[test]
    fn heads_read_as_requests_or_outcomes() {
        let read = |text: &str| read_request(&mut text.as_bytes()).unwrap();
        match read("POST /v1/jobs?x=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\nab") {
            ReadOutcome::Request(req) => {
                assert_eq!(
                    (req.method.as_str(), req.path.as_str()),
                    ("POST", "/v1/jobs")
                );
                assert_eq!(req.query_param("x"), Some("1"));
                assert_eq!(req.body, b"ab");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(read(""), ReadOutcome::Closed));
        for cut in [
            "GET / HTTP/1.1",
            "GET / HTTP/1.1\r\nHost: x\r\n",
            "GET / HTTP/1.1\r\nHost",
            "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab",
            "GET / FTP/1.0\r\n\r\n",
        ] {
            assert!(matches!(read(cut), ReadOutcome::Malformed), "{cut:?}");
        }
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(read(&big), ReadOutcome::TooLarge));
    }

    #[test]
    fn percent_decoding_is_permissive() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("plain"), "plain");
    }
}
