//! A minimal keep-alive HTTP/1.1 client for driving `shapefrag serve`:
//! content-length bodies only, which is all the server sends.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, reader: None }
    }

    /// Sends one request. A kept-alive socket the server closed while
    /// idle answers with end-of-file before any response byte, so the
    /// request was never read: only then is it resent on a new socket.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let reused = self.reader.is_some();
        match self.try_request(method, path, body) {
            Err(e) if reused && e.kind() == std::io::ErrorKind::ConnectionAborted => {
                self.reader = None;
                self.try_request(method, path, body)
            }
            Err(e) => {
                self.reader = None;
                Err(e)
            }
            ok => ok,
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        if self.reader.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let closed = || {
            std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "connection closed before the response",
            )
        };
        let stream = reader.get_mut();
        let sent = stream
            .write_all(head.as_bytes())
            .and_then(|_| stream.write_all(body))
            .and_then(|_| stream.flush());
        if let Err(e) = sent {
            return Err(match e.kind() {
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => closed(),
                _ => e,
            });
        }

        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(closed()),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return Err(closed()),
            Err(e) => return Err(e),
            Ok(_) => {}
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut headers = Vec::new();
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((n, v)) = l.split_once(':') {
                let (n, v) = (n.trim().to_string(), v.trim().to_string());
                if n.eq_ignore_ascii_case("content-length") {
                    length = v.parse().map_err(|_| bad("bad content-length"))?;
                }
                if n.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                    close = true;
                }
                headers.push((n, v));
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        if close {
            self.reader = None;
        }
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}
