//! The benchmark's own minimal HTTP/1.1 client: one fresh connection per
//! request (`connection: close`), as the repository's clients do, with
//! the reply framed by its `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Cap on a reply head; the server's heads are a few hundred bytes.
const MAX_HEAD: usize = 16 * 1024;

/// A reply: status and body.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// `POST path` with `body` on a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &str, timeout: Duration) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_reply(&mut stream)
}

/// Reads one reply: the head up to the blank line, then exactly
/// `Content-Length` body bytes, however the reads split them.
pub fn read_reply(r: &mut impl Read) -> Result<Reply, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_HEAD {
            return Err("reply head too long".into());
        }
        match r.read(&mut chunk) {
            Ok(0) => return Err("connection closed inside the head".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    };
    let (status, length) = parse_head(&buf[..head_end])?;
    let mut body = buf.split_off(head_end);
    if body.len() > length {
        return Err(format!(
            "{} bytes beyond Content-Length {length}",
            body.len() - length
        ));
    }
    let have = body.len();
    body.resize(length, 0);
    r.read_exact(&mut body[have..])
        .map_err(|e| format!("body shorter than Content-Length {length}: {e}"))?;
    Ok(Reply { status, body })
}

/// Status code and `Content-Length` from a reply head.
fn parse_head(head: &[u8]) -> Result<(u16, usize), String> {
    let head = std::str::from_utf8(head).map_err(|_| "reply head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().unwrap_or_default().starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let n = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
                if length.replace(n).is_some_and(|m| m != n) {
                    return Err("conflicting Content-Length headers".into());
                }
            }
        }
    }
    Ok((status, length.ok_or("reply has no Content-Length")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes in fixed-size pieces.
    struct Pieces {
        data: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Pieces {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn read_in(bytes: &[u8], step: usize) -> Result<Reply, String> {
        read_reply(&mut Pieces { data: bytes.to_vec(), at: 0, step })
    }

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                        Content-Length: 11\r\nconnection: close\r\n\r\n{\"a\": true}";

    #[test]
    fn frames_the_body_by_content_length_across_any_split() {
        for step in [1, 2, 7, 64, 8192] {
            let reply = read_in(OK, step).unwrap();
            assert_eq!(reply.status, 200, "step {step}");
            assert_eq!(reply.body, b"{\"a\": true}", "step {step}");
        }
        let empty = read_in(b"HTTP/1.1 204 No Content\r\ncontent-length: 0\r\n\r\n", 3).unwrap();
        assert_eq!((empty.status, empty.body.len()), (204, 0));
    }

    #[test]
    fn rejects_short_long_and_unframed_replies() {
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 20\r\n\r\n{\"a\": true}";
        assert!(read_in(short, 5).unwrap_err().contains("shorter"));
        let long = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\n{\"a\": true}";
        assert!(read_in(long, 8192).unwrap_err().contains("beyond"));
        let unframed = b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nbody";
        assert!(read_in(unframed, 8192).unwrap_err().contains("no Content-Length"));
        let conflict = b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nab";
        assert!(read_in(conflict, 8192).unwrap_err().contains("conflicting"));
        assert!(read_in(b"HTTP/1.1 200 OK\r\ncontent-le", 4)
            .unwrap_err()
            .contains("head"));
        assert!(read_in(b"SMTP 220 hi\r\ncontent-length: 0\r\n\r\n", 64).is_err());
    }
}
