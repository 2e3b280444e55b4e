//! A hand-rolled HTTP/1.1 subset: exactly what the synthesis service needs,
//! on `std::net` alone (workspace no-dependency rule).
//!
//! Supported on the way in: `GET`/`POST` request lines with query strings,
//! percent-decoding, up to [`MAX_HEADERS`] headers, and a `Content-Length`
//! body (read and discarded — requests are fully expressed in the query
//! string; a body is tolerated so standard clients can POST). On the way
//! out: fixed-length responses for errors and small payloads, and chunked
//! transfer encoding for streamed record bodies.
//!
//! Connections are **persistent** (keep-alive) by default, per HTTP/1.1:
//! [`read_request`] reports each request's connection preference
//! (`Connection: close`, or HTTP/1.0 without an explicit keep-alive, asks
//! for a close), and the response writers take a [`ConnPolicy`] so the
//! server can honor it — or impose its own per-connection request budget.
//! A clean close between requests (EOF or idle timeout before the first
//! byte) is not an error; it is how keep-alive connections end.

use serd::api::ApiError;
use std::io::{BufRead, Write};

/// Upper bound on one header line (request line included).
pub const MAX_LINE: usize = 8 * 1024;
/// Upper bound on header count.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on an accepted (and discarded) request body.
pub const MAX_BODY: usize = 1 << 20;

/// Whether the connection stays open after a response. Written into every
/// response head so clients never have to guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPolicy {
    /// `Connection: keep-alive` — the server will read another request.
    KeepAlive,
    /// `Connection: close` — the server closes after this response.
    Close,
}

/// A parsed request: method, decoded path, decoded query pairs, and the
/// client's connection preference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` / `POST` / anything else (rejected by the router).
    pub method: String,
    /// The path component, percent-decoded (`/synthesize`).
    pub path: String,
    /// Query pairs in order of appearance, both sides percent-decoded.
    pub query: Vec<(String, String)>,
    /// True when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without opting into keep-alive).
    pub wants_close: bool,
}

impl Request {
    /// First value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError::BadRequest(msg.into())
}

/// True for the error kinds a blocking read raises when a socket read
/// timeout fires (platform-dependent: `WouldBlock` on Unix, `TimedOut` on
/// Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one line (CRLF or LF terminated) into `buf` with a length cap,
/// reusing `buf`'s allocation across calls. Returns `Ok(false)` on EOF
/// before any byte (clean close), `Ok(true)` otherwise.
fn read_line_into(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Result<bool, ApiError> {
    buf.clear();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(false);
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(bad(format!("header line exceeds {MAX_LINE} bytes")));
                }
            }
            Err(e) if is_timeout(&e) && buf.is_empty() => return Ok(false),
            Err(e) => return Err(ApiError::Io(format!("read request: {e}"))),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(true)
}

fn line_str(buf: &[u8]) -> Result<&str, ApiError> {
    std::str::from_utf8(buf).map_err(|_| bad("header line is not UTF-8"))
}

/// Percent-decodes a query component (`%XX` escapes, `+` as space). An
/// escape needs exactly two ASCII hex digits; any other `%` stays literal.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |k: usize| bytes.get(k).and_then(|&c| char::from(c).to_digit(16));
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match hex(i + 1).zip(hex(i + 2)) {
                Some((hi, lo)) => {
                    out.push((hi << 4 | lo) as u8);
                    i += 3;
                }
                None => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits and decodes `a=b&c=d` query text.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Reads one request off a persistent connection, reusing `scratch` as the
/// line buffer across calls. Returns `Ok(None)` when the peer closed (or
/// the idle read timeout fired) *between* requests — the clean end of a
/// keep-alive connection. EOF or timeout mid-request is still an error.
/// The body, if any, is read (up to [`MAX_BODY`]) and discarded.
pub fn read_request(
    reader: &mut impl BufRead,
    scratch: &mut Vec<u8>,
) -> Result<Option<Request>, ApiError> {
    if !read_line_into(reader, scratch)? {
        return Ok(None);
    }
    let request_line = line_str(scratch)?;
    if request_line.is_empty() {
        return Err(bad("empty request"));
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts
        .next()
        .ok_or_else(|| bad("missing request target"))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.0").to_string();
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol {version:?}")));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let path = percent_decode(raw_path);
    let query = parse_query(raw_query);

    // HTTP/1.1 defaults to keep-alive; 1.0 defaults to close.
    let mut wants_close = version == "HTTP/1.0";
    let mut content_length = 0usize;
    for n in 0.. {
        if n > MAX_HEADERS {
            return Err(bad(format!("more than {MAX_HEADERS} headers")));
        }
        if !read_line_into(reader, scratch)? {
            return Err(bad("connection closed mid-headers"));
        }
        let line = line_str(scratch)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad content-length {value:?}")))?;
            if content_length > MAX_BODY {
                return Err(bad(format!("body exceeds {MAX_BODY} bytes")));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                wants_close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                wants_close = false;
            }
        }
    }
    // Drain the body so the connection is in a clean state for the next
    // request.
    let mut remaining = content_length;
    let mut sink = [0u8; 4096];
    while remaining > 0 {
        let take = remaining.min(sink.len());
        match reader.read(&mut sink[..take]) {
            Ok(0) => break,
            Ok(n) => remaining -= n,
            Err(e) => return Err(ApiError::Io(format!("read body: {e}"))),
        }
    }

    Ok(Some(Request {
        method,
        path,
        query,
        wants_close,
    }))
}

/// One-shot parse (tests and single-request callers): like
/// [`read_request`] but treating immediate EOF as a bad request.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, ApiError> {
    let mut scratch = Vec::with_capacity(128);
    read_request(reader, &mut scratch)?.ok_or_else(|| bad("empty request"))
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_head(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    conn: ConnPolicy,
    extra: &[(String, String)],
) -> std::io::Result<()> {
    write!(w, "HTTP/1.1 {} {}\r\n", status, status_text(status))?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    match conn {
        ConnPolicy::KeepAlive => write!(w, "Connection: keep-alive\r\n")?,
        ConnPolicy::Close => write!(w, "Connection: close\r\n")?,
    }
    for (name, value) in extra {
        write!(w, "{name}: {value}\r\n")?;
    }
    Ok(())
}

/// Writes a fixed-length response.
pub fn write_simple(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    conn: ConnPolicy,
    extra: &[(String, String)],
    body: &str,
) -> std::io::Result<()> {
    write_head(w, status, content_type, conn, extra)?;
    write!(w, "Content-Length: {}\r\n\r\n", body.len())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Writes a chunked-transfer response, one chunk per item of `chunks`.
/// Empty items are skipped (an empty chunk would terminate the stream).
pub fn write_chunked<'a>(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    conn: ConnPolicy,
    extra: &[(String, String)],
    chunks: impl Iterator<Item = &'a str>,
) -> std::io::Result<()> {
    write_head(w, status, content_type, conn, extra)?;
    write!(w, "Transfer-Encoding: chunked\r\n\r\n")?;
    for chunk in chunks {
        if chunk.is_empty() {
            continue;
        }
        write!(w, "{:x}\r\n", chunk.len())?;
        w.write_all(chunk.as_bytes())?;
        write!(w, "\r\n")?;
    }
    write!(w, "0\r\n\r\n")?;
    w.flush()
}

/// Splits `body` into chunks of at least `target` bytes, cutting only at
/// line boundaries so a JSON-lines consumer can parse each chunk as it
/// arrives. The concatenation of the chunks is exactly `body`.
pub fn chunk_lines(body: &str, target: usize) -> Vec<&str> {
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut cursor = 0;
    for line_end in body
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .map(|(i, _)| i + 1)
    {
        cursor = line_end;
        if cursor - start >= target {
            chunks.push(&body[start..cursor]);
            start = cursor;
        }
    }
    if start < body.len() {
        chunks.push(&body[start..]);
    } else if cursor > start {
        chunks.push(&body[start..cursor]);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    fn parse(text: &str) -> Result<Request, ApiError> {
        parse_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_request_line_and_query() {
        let req = parse("GET /synthesize?model=restaurant&seed=11&format=csv HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/synthesize");
        assert_eq!(req.query_value("model"), Some("restaurant"));
        assert_eq!(req.query_value("seed"), Some("11"));
        assert_eq!(req.query_value("missing"), None);
        assert!(!req.wants_close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_preference_is_parsed() {
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(close.wants_close);
        let keep = parse("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(!keep.wants_close);
        // HTTP/1.0 defaults to close unless it opts in.
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(old.wants_close);
        let old_keep = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!old_keep.wants_close);
    }

    #[test]
    fn pipelined_requests_parse_off_one_reader() {
        let wire = "GET /healthz HTTP/1.1\r\n\r\nGET /models HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(wire.as_bytes());
        let mut scratch = Vec::new();
        let first = read_request(&mut reader, &mut scratch).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(!first.wants_close);
        let second = read_request(&mut reader, &mut scratch).unwrap().unwrap();
        assert_eq!(second.path, "/models");
        assert!(second.wants_close);
        // Clean close after the last request.
        assert!(read_request(&mut reader, &mut scratch).unwrap().is_none());
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        let mut reader = BufReader::new(&b""[..]);
        let mut scratch = Vec::new();
        assert!(read_request(&mut reader, &mut scratch).unwrap().is_none());
        // But EOF mid-headers is an error.
        let mut reader = BufReader::new(&b"GET / HTTP/1.1\r\nHost: x\r\n"[..]);
        assert!(read_request(&mut reader, &mut scratch).is_err());
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let req = parse("GET /a%20b%2b?name=x%2By&sign=%+A&plus=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/a b+");
        assert_eq!(req.query_value("name"), Some("x+y"));
        // A sign is not a hex digit: `%+A` is no escape (not `\n`), so the
        // `%` stays literal and the `+` is an ordinary space.
        assert_eq!(req.query_value("sign"), Some("% A"));
        assert_eq!(req.query_value("plus"), Some("a b"));
    }

    #[test]
    fn malformed_requests_are_bad_requests() {
        assert!(parse("").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nno-colon-header\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n").is_err());
    }

    #[test]
    fn body_is_drained() {
        let text = "POST /synthesize HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = BufReader::new(text.as_bytes());
        let req = parse_request(&mut reader).unwrap();
        assert_eq!(req.method, "POST");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "body not drained: {rest:?}");
    }

    #[test]
    fn chunk_lines_reassembles_exactly() {
        let body: String = (0..100).map(|i| format!("line {i}\n")).collect();
        for target in [1, 7, 64, 1024, 1 << 20] {
            let chunks = chunk_lines(&body, target);
            assert_eq!(chunks.concat(), body, "target {target}");
            for c in &chunks {
                assert!(c.ends_with('\n') || !body.ends_with('\n'));
            }
        }
        // No trailing newline: the tail is still emitted.
        let chunks = chunk_lines("a\nb", 1);
        assert_eq!(chunks.concat(), "a\nb");
        assert!(chunk_lines("", 16).is_empty());
    }

    #[test]
    fn simple_and_chunked_responses_roundtrip() {
        let mut out = Vec::new();
        write_simple(
            &mut out,
            404,
            "application/json",
            ConnPolicy::Close,
            &[],
            "{\"e\":1}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"e\":1}"));

        let mut out = Vec::new();
        let body = "abc\ndef\n";
        write_chunked(
            &mut out,
            200,
            "text/csv",
            ConnPolicy::KeepAlive,
            &[("X-Model-Etag".to_string(), "m-v1".to_string())],
            chunk_lines(body, 4).into_iter(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Model-Etag: m-v1\r\n"));
        assert!(text.contains("4\r\nabc\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn overload_status_has_a_reason_phrase() {
        assert_eq!(status_text(503), "Service Unavailable");
    }
}
