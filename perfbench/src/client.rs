//! The wire client side: [`NetClient`] for untraced runs, and a raw-frame
//! client for traced runs that times the decode of each answer apart
//! from the round trip and keeps the frame for an encode probe.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use zql::ExecReport;
use zv_server::proto::VizTable;
use zv_server::wire::{read_frame, write_frame};
use zv_server::{NetClient, Request, Response, SubmitOptions, PROTO_VERSION};
use zv_storage::{CancelReason, Json};

use crate::metrics::{Outcome, DEADLINE};

/// The codec split of one traced round trip.
#[derive(Clone, Copy, Debug)]
pub struct WireSplit {
    /// `from_utf8` + `Json::parse` + `Response::from_json` of the frame.
    pub decode_start: Instant,
    pub decode_end: Instant,
    /// `Response::to_json` + `to_string` of the same answer: what the
    /// server's responder spends building the frame. Timed after the
    /// interaction, outside every timed window; zero until then.
    pub encode: Duration,
    pub frame_bytes: usize,
}

/// One answered interaction.
pub struct Reply {
    pub outcome: Outcome,
    pub tables: Vec<VizTable>,
    pub report: Option<ExecReport>,
    pub wire: Option<WireSplit>,
    /// The frame body of a traced round trip, kept for the encode probe.
    pub frame: Vec<u8>,
}

/// Time `Response::to_json` + `to_string` of the answer a frame body
/// carries: an estimate of the server's encode of that frame. `None`
/// when the body is not a response.
pub fn time_encode(frame: &[u8]) -> Option<Duration> {
    let json = Json::parse(std::str::from_utf8(frame).ok()?).ok()?;
    let resp = Response::from_json(&json)?;
    let start = Instant::now();
    std::hint::black_box(resp.to_json().to_string());
    Some(start.elapsed())
}

fn classify(resp: Response) -> Reply {
    let (outcome, tables, report) = match resp {
        Response::Result { tables, report, .. } => (Outcome::Completed, tables, Some(report)),
        Response::Busy { .. } => (Outcome::Busy, Vec::new(), None),
        Response::Cancelled {
            reason: Some(CancelReason::Deadline),
            ..
        } => (Outcome::TimedOut, Vec::new(), None),
        Response::Cancelled { .. } => (Outcome::Cancelled, Vec::new(), None),
        Response::Error { .. } | Response::Welcome { .. } => (Outcome::Error, Vec::new(), None),
    };
    Reply {
        outcome,
        tables,
        report,
        wire: None,
        frame: Vec::new(),
    }
}

fn opts() -> SubmitOptions {
    SubmitOptions {
        deadline: Some(DEADLINE),
        ..SubmitOptions::default()
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One connection to the server, traced or not.
pub enum Conn {
    Plain(NetClient),
    Raw(RawConn),
}

impl Conn {
    pub fn connect(addr: SocketAddr, traced: bool) -> io::Result<Conn> {
        Ok(if traced {
            Conn::Raw(RawConn::connect(addr)?)
        } else {
            Conn::Plain(NetClient::connect(addr, "")?)
        })
    }

    pub fn query(&mut self, zql: &str) -> io::Result<Reply> {
        match self {
            Conn::Plain(c) => c.query(zql, opts()).map(classify),
            Conn::Raw(c) => c.query(zql),
        }
    }

    pub fn close(self) {
        match self {
            Conn::Plain(c) => {
                let _ = c.bye();
            }
            Conn::Raw(c) => c.close(),
        }
    }
}

/// A client speaking the documented framing directly, so the decode of
/// each answer can be timed apart from the socket read.
pub struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> io::Result<RawConn> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut reader = BufReader::new(writer.try_clone()?);
        let hello = Request::Hello {
            version: PROTO_VERSION,
            token: String::new(),
        };
        write_frame(&mut writer, &hello.to_json())?;
        match read_frame(&mut reader)?
            .as_ref()
            .and_then(Response::from_json)
        {
            Some(Response::Welcome { .. }) => Ok(RawConn {
                reader,
                writer,
                next_id: 1,
            }),
            _ => Err(invalid("handshake refused")),
        }
    }

    fn query(&mut self, zql: &str) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request::Query {
            id,
            zql: zql.to_string(),
            opts: opts(),
        };
        write_frame(&mut self.writer, &req.to_json())?;
        let mut line = Vec::new();
        self.reader.read_until(b'\n', &mut line)?;
        let len: usize = std::str::from_utf8(line.trim_ascii_end())
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n <= zv_server::wire::MAX_FRAME)
            .ok_or_else(|| invalid("bad frame length"))?;
        let mut body = vec![0u8; len + 1];
        self.reader.read_exact(&mut body)?;
        let decode_start = Instant::now();
        let text = std::str::from_utf8(&body[..len]).map_err(|_| invalid("frame not UTF-8"))?;
        let json = Json::parse(text).map_err(|_| invalid("frame not JSON"))?;
        let resp = Response::from_json(&json).ok_or_else(|| invalid("unknown frame"))?;
        let decode_end = Instant::now();
        let mut reply = classify(resp);
        reply.wire = Some(WireSplit {
            decode_start,
            decode_end,
            encode: Duration::ZERO,
            frame_bytes: len,
        });
        body.truncate(len);
        reply.frame = body;
        Ok(reply)
    }

    fn close(mut self) {
        let _ = write_frame(&mut self.writer, &Request::Bye.to_json());
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = self.reader.read_to_end(&mut sink);
    }
}
