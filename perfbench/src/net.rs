//! The loopback client: one thread driving pipelined memcached-text
//! connections against an in-process `nvm-server`, plus the reply parser
//! the session replay shares.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::{self, Kind, Model, Op};
use crate::phase::{Segment, Tally};
use crate::trace::{Span, Tracer, ROOT};

/// Requests each connection keeps in flight.
pub const DEPTH: usize = 16;

/// Verdict of matching one reply against the op it answers.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// Not enough bytes buffered yet.
    Incomplete,
    /// The reply consumed `usize` bytes and was the right answer.
    Ok(usize),
    /// The reply consumed `usize` bytes and was wrong or a refusal.
    Wrong(usize),
}

fn line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.windows(2).position(|w| w == b"\r\n")?;
    Some((&buf[..nl], nl + 2))
}

/// Checks the reply at the front of `buf` against `op`. `corrupt`
/// expects the wrong value version (the oracle's own self-test).
pub fn check_reply(buf: &[u8], op: &Op, corrupt: bool) -> Reply {
    let Some((first, used)) = line(buf) else {
        return Reply::Incomplete;
    };
    match op.kind {
        Kind::Set if first == b"STORED" => Reply::Ok(used),
        Kind::Delete if first == b"DELETED" => Reply::Ok(used),
        Kind::Set | Kind::Delete => Reply::Wrong(used),
        Kind::Get => {
            if !first.starts_with(b"VALUE ") {
                // `END` alone is a miss; anything else is an error line.
                return Reply::Wrong(used);
            }
            let Some(len) = std::str::from_utf8(first)
                .ok()
                .and_then(|s| s.rsplit(' ').next())
                .and_then(|n| n.parse::<usize>().ok())
            else {
                return Reply::Wrong(used);
            };
            let end = used + len + 2;
            if buf.len() < end {
                return Reply::Incomplete;
            }
            let Some((tail, tail_used)) = line(&buf[end..]) else {
                return Reply::Incomplete;
            };
            let total = end + tail_used;
            let ver = if corrupt { op.ver + 1 } else { op.ver };
            let want = gen::value(op.id, ver);
            let key_ok = first.get(6..6 + gen::KEY_LEN) == Some(&gen::key(op.id)[..]);
            if key_ok && &buf[used..used + len] == want.as_slice() && tail == b"END" {
                Reply::Ok(total)
            } else {
                Reply::Wrong(total)
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    model: Model,
    /// Ops generated for this segment, and the next one to send.
    ops: Vec<Op>,
    wire: Vec<u8>,
    ends: Vec<usize>,
    next: usize,
    sent_upto: usize,
    written: usize,
    inflight: VecDeque<(Op, Instant)>,
    inbuf: Vec<u8>,
    id: u64,
}

impl Conn {
    /// Queues at least `n` requests: the ones a previous segment left
    /// unsent (the model already counts them), then fresh ones.
    fn prepare(&mut self, n: usize) {
        let carry = self.ops.split_off(self.next);
        self.ops.clear();
        self.wire.clear();
        self.ends.clear();
        let fresh = n.saturating_sub(carry.len());
        let ops: Vec<Op> = carry
            .into_iter()
            .chain((0..fresh).map(|_| self.model.next_op()))
            .collect();
        for op in ops {
            gen::encode(&op, &mut self.wire);
            self.ops.push(op);
            self.ends.push(self.wire.len());
        }
        self.next = 0;
        self.sent_upto = 0;
        self.written = 0;
    }

    fn exhausted(&self) -> bool {
        self.next == self.ops.len()
    }

    /// Queues requests up to the pipeline depth and writes what the
    /// socket accepts.
    fn send(&mut self, allow_new: bool) -> io::Result<()> {
        if allow_new {
            while self.inflight.len() < DEPTH && self.next < self.ops.len() {
                self.inflight
                    .push_back((self.ops[self.next], Instant::now()));
                self.sent_upto = self.ends[self.next];
                self.next += 1;
            }
        }
        while self.written < self.sent_upto {
            match self.stream.write(&self.wire[self.written..self.sent_upto]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what has arrived and settles every complete reply.
    fn receive(
        &mut self,
        buf: &mut [u8],
        seg: &mut Segment,
        tally: &mut Tally,
        tracer: &mut Option<&mut Tracer>,
        corrupt: &mut bool,
    ) -> io::Result<bool> {
        let mut progressed = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !progressed {
            return Ok(false);
        }
        let now = Instant::now();
        let mut pos = 0;
        while let Some((op, sent)) = self.inflight.front().copied() {
            let wrong_expectation = *corrupt && op.kind == Kind::Get;
            let used = match check_reply(&self.inbuf[pos..], &op, wrong_expectation) {
                Reply::Incomplete => break,
                Reply::Ok(used) => {
                    tally.settle(&op, true);
                    used
                }
                Reply::Wrong(used) => {
                    tally.settle(&op, false);
                    used
                }
            };
            if wrong_expectation {
                *corrupt = false;
            }
            pos += used;
            self.inflight.pop_front();
            let ns = now.duration_since(sent).as_nanos() as u64;
            seg.record(op.kind, ns);
            if let Some(t) = tracer.as_deref_mut() {
                t.record_request(Span {
                    name: if op.kind == Kind::Get {
                        "client.get"
                    } else {
                        "client.set"
                    },
                    start: t.at(sent),
                    end: t.at(now),
                    parent: ROOT,
                    req: self.id << 48 | tally.attempted,
                    calls: 1,
                });
            }
        }
        self.inbuf.drain(..pos);
        Ok(true)
    }
}

/// The client side of one run: connections that persist across segments.
pub struct Client {
    conns: Vec<Conn>,
    buf: Vec<u8>,
    /// Ops generated per connection for the next segment.
    batch: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr, models: Vec<Model>) -> io::Result<Client> {
        let mut conns = Vec::new();
        for (i, model) in models.into_iter().enumerate() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                model,
                ops: Vec::new(),
                wire: Vec::new(),
                ends: Vec::new(),
                next: 0,
                sent_upto: 0,
                written: 0,
                inflight: VecDeque::new(),
                inbuf: Vec::new(),
                id: i as u64,
            });
        }
        Ok(Client {
            conns,
            buf: vec![0u8; 256 * 1024],
            batch: 20_000,
        })
    }

    /// Runs one closed-loop segment of about `len`: generates its
    /// requests, then keeps every connection `DEPTH` deep until time is up
    /// (or every connection runs out of requests), then drains. Returns
    /// the measured segment; generation time is not part of it.
    pub fn segment(
        &mut self,
        len: Duration,
        tally: &mut Tally,
        tracer: Option<&mut Tracer>,
        corrupt: &mut bool,
    ) -> io::Result<Segment> {
        let seg = self.run(self.batch, len, tally, tracer, corrupt)?;
        // Size the next segment's requests to outlast it with margin.
        let per_conn = seg.ops as f64 / self.conns.len() as f64;
        let wanted = per_conn * len.as_secs_f64() / seg.secs.max(1e-6) * 1.5;
        self.batch = (wanted as usize).max(1_000);
        Ok(seg)
    }

    /// Sends the requests earlier segments generated but did not reach,
    /// so the store catches up with the model before verification.
    pub fn finish(&mut self, tally: &mut Tally) -> io::Result<()> {
        let forever = Duration::from_secs(3600);
        self.run(0, forever, tally, None, &mut false).map(|_| ())
    }

    fn run(
        &mut self,
        n: usize,
        len: Duration,
        tally: &mut Tally,
        mut tracer: Option<&mut Tracer>,
        corrupt: &mut bool,
    ) -> io::Result<Segment> {
        for c in &mut self.conns {
            c.prepare(n);
        }
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut sending = true;
        loop {
            if sending && (start.elapsed() >= len || self.conns.iter().all(Conn::exhausted)) {
                sending = false;
            }
            let mut idle = true;
            for c in &mut self.conns {
                c.send(sending)?;
                idle &= !c.receive(&mut self.buf, &mut seg, tally, &mut tracer, corrupt)?;
            }
            if !sending && self.conns.iter().all(|c| c.inflight.is_empty()) {
                break;
            }
            if idle {
                // The client owns its CPU (see `affinity`), so it spins
                // rather than sleeping: its reaction time stays small and
                // the same from run to run.
                std::thread::yield_now();
            }
        }
        seg.secs = start.elapsed().as_secs_f64();
        Ok(seg)
    }

    pub fn into_models(self) -> Vec<Model> {
        self.conns.into_iter().map(|c| c.model).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(id: u64, ver: u32) -> Op {
        Op {
            kind: Kind::Get,
            id,
            ver,
            fresh: false,
        }
    }

    #[test]
    fn reply_checks() {
        let op = get(7, 3);
        let mut r = b"VALUE user000000000007 0 64\r\n".to_vec();
        r.extend_from_slice(&gen::value(7, 3));
        r.extend_from_slice(b"\r\nEND\r\n");
        assert_eq!(check_reply(&r, &op, false), Reply::Ok(r.len()));
        assert_eq!(check_reply(&r, &op, true), Reply::Wrong(r.len()));
        assert_eq!(check_reply(&r[..20], &op, false), Reply::Incomplete);
        assert_eq!(check_reply(b"END\r\n", &op, false), Reply::Wrong(5));
        let set = Op {
            kind: Kind::Set,
            ..op
        };
        assert_eq!(check_reply(b"STORED\r\n", &set, false), Reply::Ok(8));
        assert_eq!(
            check_reply(b"SERVER_ERROR out of memory\r\n", &set, false),
            Reply::Wrong(28)
        );
    }
}
