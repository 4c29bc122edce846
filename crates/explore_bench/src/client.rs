//! A minimal HTTP/1.1 keep-alive client with a deadline on every
//! exchange. It speaks exactly what the benchmark needs from the
//! transport: JSON requests with `Content-Length` bodies, and responses
//! framed by `Content-Length` or chunked encoding, the latter read line
//! by line so every NDJSON line is timestamped when it arrives.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One open connection: a buffered reader and a writer on the same socket.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A keep-alive client. After any error the connection is dropped and the
/// next request dials a fresh one, so one failed exchange never poisons
/// the next.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Response body bytes received (all exchanges).
    pub bytes_in: u64,
}

/// A complete (non-streamed) reply.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            bytes_in: 0,
        }
    }

    /// Sends one request and reads the whole reply before `deadline`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Instant,
    ) -> Result<Reply, String> {
        let mut out = Vec::new();
        let status = self.exchange(method, path, body, deadline, &mut |line| {
            out.extend_from_slice(line);
            Ok(())
        })?;
        Ok(Reply { status, body: out })
    }

    /// Sends one request whose reply is a stream of lines; `on_line` sees
    /// each complete line (without its newline) as soon as it arrives.
    /// An error from `on_line` aborts the exchange.
    pub fn stream(
        &mut self,
        path: &str,
        body: &[u8],
        deadline: Instant,
        on_line: &mut dyn FnMut(&[u8]) -> Result<(), String>,
    ) -> Result<u16, String> {
        let mut pending = Vec::new();
        let status = self.exchange("POST", path, body, deadline, &mut |chunk| {
            pending.extend_from_slice(chunk);
            while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=pos).collect();
                on_line(&line[..line.len() - 1])?;
            }
            Ok(())
        })?;
        if !pending.is_empty() {
            on_line(&pending)?;
        }
        Ok(status)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Instant,
        on_data: &mut dyn FnMut(&[u8]) -> Result<(), String>,
    ) -> Result<u16, String> {
        let result = self.try_exchange(method, path, body, deadline, on_data);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Instant,
        on_data: &mut dyn FnMut(&[u8]) -> Result<(), String>,
    ) -> Result<u16, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, remaining(deadline)?)
                .map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let writer = stream.try_clone().map_err(|e| e.to_string())?;
            self.conn = Some(Conn {
                reader: BufReader::new(stream),
                writer,
            });
        }
        let conn = self.conn.as_mut().ok_or("no connection")?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        head.extend_from_slice(body);
        conn.writer
            .set_write_timeout(Some(remaining(deadline)?))
            .map_err(|e| e.to_string())?;
        conn.writer
            .write_all(&head)
            .map_err(|e| format!("write: {e}"))?;

        let status_line = read_line(conn, deadline)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut chunked = false;
        let mut close = false;
        loop {
            let line = read_line(conn, deadline)?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header {line:?}"));
            };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            match name.as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        if chunked {
            loop {
                let size_line = read_line(conn, deadline)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| format!("bad chunk size {size_line:?}"))?;
                if size == 0 {
                    read_line(conn, deadline)?;
                    break;
                }
                let data = read_exact(conn, size, deadline)?;
                self.bytes_in += size as u64;
                on_data(&data)?;
                read_exact(conn, 2, deadline)?;
            }
        } else {
            let size = length.ok_or("response without length")?;
            let data = read_exact(conn, size, deadline)?;
            self.bytes_in += size as u64;
            on_data(&data)?;
        }
        if close {
            self.conn = None;
        }
        Ok(status)
    }
}

/// Time left before `deadline`, or the deadline error.
fn remaining(deadline: Instant) -> Result<Duration, String> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        Err("deadline passed".to_owned())
    } else {
        Ok(left)
    }
}

fn arm(conn: &Conn, deadline: Instant) -> Result<(), String> {
    conn.reader
        .get_ref()
        .set_read_timeout(Some(remaining(deadline)?))
        .map_err(|e| e.to_string())
}

fn read_line(conn: &mut Conn, deadline: Instant) -> Result<String, String> {
    arm(conn, deadline)?;
    let mut line = String::new();
    match conn.reader.read_line(&mut line) {
        Ok(0) => Err("connection closed".to_owned()),
        Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_owned()),
        Err(e) => Err(timeout_or(e)),
    }
}

fn read_exact(conn: &mut Conn, size: usize, deadline: Instant) -> Result<Vec<u8>, String> {
    let mut data = vec![0u8; size];
    let mut filled = 0;
    while filled < size {
        arm(conn, deadline)?;
        match conn.reader.read(&mut data[filled..]) {
            Ok(0) => return Err("connection closed mid-body".to_owned()),
            Ok(n) => filled += n,
            Err(e) => return Err(timeout_or(e)),
        }
    }
    Ok(data)
}

fn timeout_or(e: std::io::Error) -> String {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            "deadline passed".to_owned()
        }
        _ => format!("read: {e}"),
    }
}
