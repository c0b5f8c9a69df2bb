//! The HTTP side: an in-process `ilogic_server` daemon driven by
//! `ClientConn`s from the same process, in a closed loop.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ilogic_server::client::ClientConn;
use ilogic_server::config::ServerConfig;
use ilogic_server::server::{self, ServerHandle};

/// Client-side connect/read/write timeout: well past the request budget.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// HTTP status; `0` for a transport error.
    pub status: u16,
    /// The response body (empty on a transport error).
    pub body: String,
    /// Send to response fully read.
    pub latency: Duration,
}

/// The daemon configuration every workload uses: an ephemeral loopback
/// port and `threads` connection threads.
pub fn config(threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        connection_threads: threads,
        batch_workers: 1,
        ..ServerConfig::default()
    }
}

/// Starts a daemon and waits for its first `200` from `/healthz`.
pub fn start(threads: usize) -> io::Result<ServerHandle> {
    let handle = server::start(config(threads))?;
    let mut conn = ClientConn::connect(handle.addr(), CLIENT_TIMEOUT)?;
    loop {
        if conn.get("/healthz")?.status == 200 {
            return Ok(handle);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One timed set-up: [`start`] plus sending `prime` once, in order.  Returns
/// the daemon, the set-up time, and the priming answers.
pub fn setup(
    threads: usize,
    prime: &[String],
) -> io::Result<(ServerHandle, Duration, Vec<Exchange>)> {
    let started = Instant::now();
    let handle = start(threads)?;
    let answers = if prime.is_empty() { Vec::new() } else { drive(handle.addr(), prime, 1)?.0 };
    Ok((handle, started.elapsed(), answers))
}

/// Sends every body over `connections` keep-alive connections, each taking
/// the next unsent body when its previous request completes (a closed loop
/// over one shared sequence, so a slow request never leaves a connection's
/// share waiting behind it).  Returns the answers in body order and the
/// wall time from the first send to the last answer.
pub fn drive(
    addr: SocketAddr,
    bodies: &[String],
    connections: usize,
) -> io::Result<(Vec<Exchange>, Duration)> {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Exchange>>> = Mutex::new(vec![None; bodies.len()]);
    let mut clients = (0..connections)
        .map(|_| ClientConn::connect(addr, CLIENT_TIMEOUT))
        .collect::<io::Result<Vec<_>>>()?;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (next, answers) = (&next, &answers);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(index) else { return };
                let sent = Instant::now();
                let exchange = match client.post("/check", body) {
                    Ok(response) => Exchange {
                        status: response.status,
                        body: response.body,
                        latency: sent.elapsed(),
                    },
                    Err(_) => {
                        // A broken connection is a failed request; redial
                        // so the rest of the sequence still runs.
                        if let Ok(fresh) = ClientConn::connect(addr, CLIENT_TIMEOUT) {
                            *client = fresh;
                        }
                        Exchange { status: 0, body: String::new(), latency: sent.elapsed() }
                    }
                };
                answers.lock().expect("no poisoning")[index] = Some(exchange);
            });
        }
    });
    let wall = started.elapsed();
    let answers = answers
        .into_inner()
        .expect("no poisoning")
        .into_iter()
        .map(|answer| answer.expect("every body was sent"))
        .collect();
    Ok((answers, wall))
}
