//! A deliberately small HTTP/1.1 reader and printer.
//!
//! The service speaks plain HTTP so any client (curl, a CI script, the
//! bundled load generator) can drive it, but this workspace builds offline —
//! no hyper, no httparse — so the subset is hand-rolled and *closed*: one
//! request line, headers bounded in count and size, a `Content-Length` body
//! (no chunked transfer), keep-alive by HTTP/1.1 default.  Everything
//! outside the subset is a [`HttpError::Malformed`] answered with a 400 and
//! a closed connection — never undefined behaviour, never an unbounded
//! read.  The reader trusts nothing: header bytes, body sizes and
//! connection lifetimes are all capped by the caller-supplied limits.

use std::io::{self, BufRead, Write};

/// Upper bound on the combined size of the request line and headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target path, query string included if one was sent.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the connection should serve another request after this one.
    pub keep_alive: bool,
}

/// Why reading a request failed, and what the connection loop should do.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests: not an
    /// error, just the end of the connection.
    Closed,
    /// A read or write ran past the connection's deadline; the connection is
    /// closed without a response (the peer is not listening usefully).
    Timeout,
    /// The bytes are not within the supported HTTP subset; answered with a
    /// 400, then the connection is closed (framing is unrecoverable).
    Malformed(String),
    /// The declared body exceeds the configured cap; answered with 413, then
    /// the connection is closed without reading the body.
    TooLarge(usize),
    /// Any other socket error; the connection is dropped.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(error: io::Error) -> HttpError {
        match error.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            io::ErrorKind::UnexpectedEof => HttpError::Malformed("unexpected end of input".into()),
            _ => HttpError::Io(error),
        }
    }
}

/// Reads one request from `reader`.  `max_body_bytes` caps the accepted
/// `Content-Length`; the head (request line + headers) is capped at
/// [`MAX_HEAD_BYTES`] / [`MAX_HEADERS`] unconditionally.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Request, HttpError> {
    // One buffer holds each line of the head in turn.
    let mut buffer = Vec::with_capacity(LINE_CAPACITY);
    // EOF before the first byte of a request: the peer hung up between
    // requests, which is how every keep-alive connection eventually ends.
    let Some(request_line) = read_line(reader, MAX_HEAD_BYTES, &mut buffer)? else {
        return Err(HttpError::Closed);
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() || parts.next().is_some() {
        return Err(HttpError::Malformed(format!("bad request line {request_line:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut content_length: usize = 0;
    // HTTP/1.1 defaults to keep-alive; 1.0 defaults to close.
    let mut keep_alive = version == "HTTP/1.1";
    let mut head_budget = MAX_HEAD_BYTES.saturating_sub(request_line.len());
    for _ in 0..=MAX_HEADERS {
        let line = match read_line(reader, head_budget, &mut buffer)? {
            Some("") => {
                let body = read_body(reader, content_length, max_body_bytes)?;
                return Ok(Request { method, path, body, keep_alive });
            }
            Some(line) => line,
            None => return Err(HttpError::Malformed("connection closed mid-headers".into())),
        };
        head_budget = head_budget.saturating_sub(line.len());
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("header without colon: {line:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked framing is outside the supported subset; refusing it
            // outright beats misparsing a body boundary.
            return Err(HttpError::Malformed("transfer-encoding is not supported".into()));
        }
    }
    Err(HttpError::Malformed(format!("more than {MAX_HEADERS} headers")))
}

/// Initial capacity of the buffer the head's lines are read into: room for
/// the request line and any header a client typically sends.
const LINE_CAPACITY: usize = 256;

/// Reads one CRLF- (or bare-LF-) terminated line into `line`, which it
/// clears first, and returns it without its terminator; `None` on
/// immediate EOF.  The line end is found by scanning the reader's buffer
/// ([`BufRead::fill_buf`]), so a line costs a copy out of that buffer, not
/// a call per byte.  `limit` caps the line length: a peer streaming an
/// endless header line is cut off as malformed rather than buffered without
/// bound.
fn read_line<'b>(
    reader: &mut impl BufRead,
    limit: usize,
    line: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, HttpError> {
    line.clear();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("connection closed mid-line".into()));
        }
        let end = available.iter().position(|&byte| byte == b'\n');
        let taken = end.unwrap_or(available.len());
        if line.len() + taken > limit {
            return Err(HttpError::Malformed(format!("line longer than {limit} bytes")));
        }
        line.extend_from_slice(&available[..taken]);
        reader.consume(taken + usize::from(end.is_some()));
        if end.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return std::str::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("non-UTF-8 request head".into()));
        }
    }
}

fn read_body(
    reader: &mut impl BufRead,
    content_length: usize,
    max_body_bytes: usize,
) -> Result<String, HttpError> {
    if content_length > max_body_bytes {
        return Err(HttpError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::from)?;
    String::from_utf8(body).map_err(|_| HttpError::Malformed("non-UTF-8 request body".into()))
}

/// One response, always `application/json`.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The JSON body.
    pub body: String,
    /// `Retry-After` advice in milliseconds (written as a whole-seconds
    /// header, rounded up), set on shed 503s.
    pub retry_after_ms: Option<u64>,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn new(status: u16, body: impl Into<String>) -> Response {
        Response { status, body: body.into(), retry_after_ms: None }
    }

    /// Attaches `Retry-After` advice (builder-style).
    pub fn with_retry_after_ms(mut self, ms: u64) -> Response {
        self.retry_after_ms = Some(ms);
        self
    }
}

/// The standard reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `response`, announcing whether the connection stays open.  The
/// whole head+body is written with one `write_all` so a response is never
/// dropped half-sent by an interleaved failure between syscalls.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(ms) = response.retry_after_ms {
        head.push_str(&format!("retry-after: {}\r\n", ms.div_ceil(1000)));
    }
    head.push_str("\r\n");
    head.push_str(&response.body);
    writer.write_all(head.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes.as_bytes()), 1024)
    }

    #[test]
    fn requests_parse_with_and_without_bodies() {
        let request = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("parses");
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert!(request.body.is_empty());
        assert!(request.keep_alive, "1.1 defaults to keep-alive");

        let request =
            parse("POST /check HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\n{\"a\"")
                .expect("parses");
        assert_eq!(request.body, "{\"a\"");
        assert!(!request.keep_alive);

        let request = parse("GET / HTTP/1.0\r\n\r\n").expect("parses");
        assert!(!request.keep_alive, "1.0 defaults to close");
    }

    #[test]
    fn hostile_heads_are_malformed_not_unbounded() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(parse("GARBAGE\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET / HTTP/2\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // An endless header line is cut at the head cap, not buffered forever.
        let endless = format!("GET / HTTP/1.1\r\nh: {}", "x".repeat(MAX_HEAD_BYTES * 2));
        assert!(matches!(parse(&endless), Err(HttpError::Malformed(_))));
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "a: b\r\n".repeat(MAX_HEADERS + 1));
        assert!(matches!(parse(&many), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn lines_read_alike_whatever_the_reads_deliver() {
        let bytes = "POST /check HTTP/1.1\r\nContent-Length: 2\nHost: x\r\n\r\n{}";
        // A 3-byte buffer splits every line across several fills.
        for capacity in [3, 1024] {
            let mut reader = BufReader::with_capacity(capacity, bytes.as_bytes());
            let request = read_request(&mut reader, 1024).expect("parses");
            assert_eq!((request.method.as_str(), request.path.as_str()), ("POST", "/check"));
            assert_eq!(request.body, "{}", "a bare LF ends a line too");
        }
        // The limit admits a line of exactly `limit` bytes, CR included.
        let mut line = Vec::new();
        let mut reader = BufReader::with_capacity(3, "abcd\r\nabcde\n".as_bytes());
        assert_eq!(read_line(&mut reader, 5, &mut line).unwrap(), Some("abcd"));
        assert!(matches!(read_line(&mut reader, 4, &mut line), Err(HttpError::Malformed(_))));
        // EOF: before a line is the end of the connection, inside one an
        // error, and a head cut short is malformed.
        let mut reader = BufReader::with_capacity(3, "ab".as_bytes());
        assert!(matches!(read_line(&mut reader, 8, &mut line), Err(HttpError::Malformed(_))));
        assert!(matches!(read_line(&mut reader, 8, &mut line), Ok(None)));
        assert!(matches!(parse("GET / HTTP/1.1\r\nHost: x\r\n"), Err(HttpError::Malformed(_))));
        let invalid = &b"GET / HTTP/1.1\r\n\xff: x\r\n\r\n"[..];
        let error = read_request(&mut BufReader::with_capacity(3, invalid), 1024);
        assert!(matches!(error, Err(HttpError::Malformed(m)) if m == "non-UTF-8 request head"));
    }

    #[test]
    fn oversized_bodies_answer_413_without_being_read() {
        let request = "POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        assert!(matches!(parse(request), Err(HttpError::TooLarge(4096))));
    }

    #[test]
    fn responses_print_with_framing_headers() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::new(200, "{}"), true).expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let shed = Response::new(503, "{}").with_retry_after_ms(1500);
        write_response(&mut out, &shed, false).expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.contains("retry-after: 2\r\n"), "1500ms rounds up to 2s: {text}");
        assert!(text.contains("connection: close\r\n"));
    }
}
