//! A minimal keep-alive HTTP/1.1 client for talking to the daemon.
//!
//! Deliberately tiny: just enough protocol for the load generator, the
//! end-to-end tests, and the `service_client` example to drive
//! `ilogic-server` without external crates.  It speaks keep-alive (one TCP
//! connection, many requests), parses `content-length` bodies, and surfaces
//! the `retry-after` header the shedding path emits.
//!
//! A request leaves in one `write_all`: the head and the body are framed
//! into one reused buffer first.  The socket runs with `TCP_NODELAY`, so
//! two writes would go out as two segments, and the server would wait for
//! the second before it could read the body — one more wake-up and
//! round of reads per request for nothing.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP exchange's outcome.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// The status code (`200`, `400`, `503`, ...).
    pub status: u16,
    /// The response body, assumed UTF-8 (the server only emits JSON).
    pub body: String,
    /// Seconds from a `retry-after` header, when the server sent one.
    pub retry_after: Option<u64>,
}

/// A persistent connection to the daemon.
#[derive(Debug)]
pub struct ClientConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
    /// The framed request, reused from one request to the next.
    out: String,
}

impl ClientConn {
    /// Connects to `addr` with `timeout` applied to connect, reads, and
    /// writes.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<ClientConn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ClientConn {
            reader: BufReader::new(stream),
            writer,
            host: addr.to_string(),
            out: String::new(),
        })
    }

    /// Sends one request, head and body in one write, and reads the full
    /// response.  `body` rides as `application/json` when non-empty.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.out.clear();
        let _ = write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {len}\r\n\
             content-type: application/json\r\n\r\n",
            host = self.host,
            len = body.len(),
        );
        self.out.push_str(body);
        self.writer.write_all(self.out.as_bytes())?;
        self.read_response()
    }

    /// `POST` helper (the common case).
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, body)
    }

    /// `GET` helper.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, "")
    }

    /// `DELETE` helper (job-set cancellation).
    pub fn delete(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, "")
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let mut parts = status_line.split_whitespace();
        let _version = parts.next();
        let status: u16 = parts
            .next()
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad_data(format!("bad status line {status_line:?}")))?;

        let mut content_length = 0usize;
        let mut retry_after = None;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value
                        .parse()
                        .map_err(|_| bad_data(format!("bad content-length {value:?}")))?;
                }
                "retry-after" => retry_after = value.parse().ok(),
                _ => {}
            }
        }

        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad_data("non-UTF-8 body".to_string()))?;
        Ok(ClientResponse { status, body, retry_after })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
