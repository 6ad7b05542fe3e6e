//! A minimal std-only HTTP/1.1 stats responder.
//!
//! `cenn serve --stats-listen ADDR` wants a Prometheus scrape target
//! without pulling an HTTP stack into a crate whose whole transport is
//! otherwise length-prefixed frames. A scrape endpoint needs almost
//! nothing from HTTP: parse one request line, skip headers, answer with
//! `Connection: close`. So that is all this module implements — one
//! accept thread, one connection at a time (scrapes are rare and the
//! body is small), bounded header reads, and read timeouts so a stalled
//! client cannot wedge the responder.
//!
//! Routes:
//!
//! - `GET /metrics` (also `/`) — the live registry rendered by the
//!   caller-supplied closure, served as Prometheus text exposition
//!   format (`text/plain; version=0.0.4`).
//! - anything else — `404`; non-GET methods — `405`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request head (request line + headers) we will buffer before
/// giving up on a client. Scrapers send a few hundred bytes.
const MAX_HEAD: usize = 8 * 1024;

/// How long a single scrape connection may dawdle before we drop it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

type Render = Arc<dyn Fn() -> String + Send + Sync>;

/// A running stats endpoint: an accept thread serving the render
/// closure over bare HTTP/1.1 until [`StatsHttpServer::shutdown`].
pub struct StatsHttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatsHttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `render`'s output on `GET /metrics`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the listener cannot bind.
    pub fn start<F>(addr: &str, render: F) -> std::io::Result<Self>
    where
        F: Fn() -> String + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let render: Render = Arc::new(render);
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("cenn-stats-http".into())
            .spawn(move || accept_loop(&listener, &thread_stop, &render))
            .expect("spawn stats http thread");
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the real port when started on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Accept is blocking: dial ourselves so it wakes and sees the
        // stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatsHttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, render: &Render) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => serve_conn(stream, render),
            Err(_) => {
                // Transient accept errors (EMFILE, aborted handshakes):
                // keep the endpoint alive.
            }
        }
    }
}

/// Answers one request then closes — every response carries
/// `Connection: close`, so keep-alive never enters the picture.
fn serve_conn(mut stream: TcpStream, render: &Render) {
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    let head = match read_head(&mut stream) {
        Some(head) => head,
        None => return,
    };
    let (status, body): (&str, String) = match parse_request_line(&head) {
        Some(("GET", "/" | "/metrics")) => ("200 OK", render()),
        Some(("GET", _)) => ("404 Not Found", "not found\n".into()),
        Some(_) => ("405 Method Not Allowed", "method not allowed\n".into()),
        None => ("400 Bad Request", "bad request\n".into()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Reads until the blank line ending the request head, bounded by
/// [`MAX_HEAD`]. Returns `None` on timeout, overflow, or EOF mid-head.
fn read_head(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            return Some(head);
        }
        if head.len() > MAX_HEAD {
            return None;
        }
    }
}

/// Splits `METHOD PATH HTTP/x.y` out of the first line; query strings
/// are stripped so `GET /metrics?foo=1` still routes.
fn parse_request_line(head: &[u8]) -> Option<(&str, &str)> {
    let line_end = head.windows(2).position(|w| w == b"\r\n")?;
    let line = std::str::from_utf8(&head[..line_end]).ok()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let path = parts.next()?;
    let path = path.split('?').next().unwrap_or(path);
    parts.next()?; // the HTTP version token must exist
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_on_both_routes_and_rejects_others() {
        let srv = StatsHttpServer::start("127.0.0.1:0", || "cenn_up 1\n".to_string()).unwrap();
        let addr = srv.addr();
        for path in ["/metrics", "/", "/metrics?x=1"] {
            let got = scrape(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"));
            assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{path}: {got}");
            assert!(got.contains("text/plain; version=0.0.4"), "{path}");
            assert!(got.ends_with("cenn_up 1\n"), "{path}: {got}");
        }
        let got = scrape(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 404"), "{got}");
        let got = scrape(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 405"), "{got}");
        srv.shutdown();
    }

    #[test]
    fn garbage_request_line_gets_400() {
        let srv = StatsHttpServer::start("127.0.0.1:0", String::new).unwrap();
        let got = scrape(srv.addr(), "not-http\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 400"), "{got}");
        srv.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_through_drop() {
        let srv = StatsHttpServer::start("127.0.0.1:0", String::new).unwrap();
        // Drop must join the accept thread without hanging; a second
        // implicit stop inside Drop after an explicit one is a no-op.
        drop(srv);
    }
}
