//! The load generator's side of the wire: a keep-alive HTTP/1.1 client with
//! read and write deadlines. It lives in the benchmark so that a change to
//! the program's own client cannot change what the benchmark measures.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request that has not completed after this long counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            out: Vec::with_capacity(4 * 1024),
        })
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        self.stream.write_all(&self.out)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(malformed("connection closed mid-response"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_len = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head =
            std::str::from_utf8(&self.buf[..head_len]).map_err(|_| malformed("non-utf8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let mut length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| malformed("bad content-length"))?;
                }
            }
        }
        while self.buf.len() < head_len + length {
            self.fill()?;
        }
        let body = self.buf[head_len..head_len + length].to_vec();
        self.buf.drain(..head_len + length);
        Ok(Response { status, body })
    }
}
