//! The open-loop load generator.
//!
//! One connection, two threads: a sender that sleeps until each
//! operation is due and writes it, and a receiver that blocks on the
//! socket and stamps each reply as its frame comes off it. Every latency
//! is taken from the operation's *due* time: a stall in the generator or
//! the server delays later operations, and that wait is counted, not
//! hidden.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use djinn::protocol::{encode_infer_framed_into, FrameReader, Request, Response, StreamMode};
use djinn::ServerTrace;
use tensor::Tensor;

use crate::gen::{one_shot_input, prompt, Op, OpKind};

/// How often an idle receiver re-checks whether the phase is over.
const RECV_POLL: Duration = Duration::from_millis(20);

/// One client connection: the read half for the receiver, a clone of
/// the same socket for the sender.
pub struct Conn {
    stream: TcpStream,
    writer: TcpStream,
    reader: FrameReader,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(RECV_POLL))
            .map_err(|e| format!("setting read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Conn {
            stream,
            writer,
            reader: FrameReader::new(),
        })
    }
}

/// One reply frame as it came off the socket.
pub struct Frame {
    pub at: Instant,
    pub tensor: Tensor,
    pub trace: ServerTrace,
}

/// Why an operation failed.
#[derive(Debug, Clone)]
pub enum Failure {
    /// Refused at admission (`Busy`).
    Shed,
    /// Any other error: server error frame, broken stream order,
    /// connection loss, or no reply before the drain limit.
    Error(String),
}

/// Everything observed about one operation.
pub struct Record {
    pub op: Op,
    pub id: u64,
    pub due_at: Instant,
    pub sent_at: Option<Instant>,
    /// The `Output` frame, or the stream's chunks in order.
    pub frames: Vec<Frame>,
    pub done: bool,
    pub failure: Option<Failure>,
    /// Digest of the input tensor, for the duplicate-share count.
    pub input_digest: u64,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.done && self.failure.is_none()
    }

    /// Due time to the first reply frame.
    pub fn first_ms(&self) -> Option<f64> {
        let f = self.frames.first()?;
        Some(ms(f.at.saturating_duration_since(self.due_at)))
    }

    /// Due time to the last reply frame.
    pub fn last_ms(&self) -> Option<f64> {
        let f = self.frames.last()?;
        Some(ms(f.at.saturating_duration_since(self.due_at)))
    }

    /// How late the generator sent it.
    pub fn lateness_ms(&self) -> Option<f64> {
        Some(ms(self.sent_at?.saturating_duration_since(self.due_at)))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Digest of a tensor's bytes (FNV-1a over the f32 bit patterns).
pub fn digest(t: &Tensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Phase-wide settings.
pub struct PhaseCtx {
    pub seed: u64,
    /// Request IDs are `first_id + op index`, unique across the run.
    pub first_id: u64,
    /// How long to wait for replies after the last send.
    pub drain_limit: Duration,
}

/// Sends `ops` on their schedule and returns one record per op, in op
/// order.
pub fn run_phase(conn: &mut Conn, ops: &[Op], ctx: &PhaseCtx) -> Vec<Record> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut recs: Vec<Record> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| Record {
            op: *op,
            id: ctx.first_id + i as u64,
            due_at: start + op.due,
            sent_at: None,
            frames: Vec::new(),
            done: false,
            failure: None,
            input_digest: 0,
        })
        .collect();
    let sent = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let send_error: Mutex<Option<String>> = Mutex::new(None);
    let plan: Vec<(Instant, Op, u64)> = recs.iter().map(|r| (r.due_at, r.op, r.id)).collect();
    let Conn {
        stream,
        writer,
        reader,
    } = conn;
    let (sends, broken) = std::thread::scope(|s| {
        let sender = s.spawn(|| send_all(writer, &plan, ctx, &sent, &finished, &send_error));
        let broken = receive_all(stream, reader, &mut recs, ctx, &sent, &finished);
        let sends = sender.join().expect("sender thread panicked");
        (sends, broken)
    });
    for (r, (sent_at, digest)) in recs.iter_mut().zip(sends) {
        r.sent_at = sent_at;
        r.input_digest = digest;
    }
    let reason = send_error.into_inner().expect("send error lock").or(broken);
    if let Some(reason) = reason {
        for r in recs.iter_mut().filter(|r| !r.done) {
            r.failure = Some(Failure::Error(reason.clone()));
            r.done = true;
        }
    }
    recs
}

fn encode(ctx: &PhaseCtx, op: &Op, id: u64, buf: &mut BytesMut) -> u64 {
    match op.kind {
        OpKind::Infer { model, key } => {
            let input = one_shot_input(ctx.seed, model, key);
            encode_infer_framed_into(buf, model.name(), &input, id)
                .expect("generated requests are encodable");
            digest(&input)
        }
        OpKind::Stream { token, tokens } => {
            let req = Request::StreamInfer {
                model: "textgen".into(),
                input: prompt(token),
                request_id: id,
                mode: StreamMode::Generative { max_tokens: tokens },
            };
            req.encode_framed_into(buf)
                .expect("generated requests are encodable");
            token as u64
        }
    }
}

/// The sender: encodes each frame ahead of its due time, sleeps until it
/// is due, stamps and writes it. Returns `(sent at, input digest)` per
/// op.
fn send_all(
    writer: &mut TcpStream,
    plan: &[(Instant, Op, u64)],
    ctx: &PhaseCtx,
    sent: &AtomicUsize,
    finished: &AtomicBool,
    error: &Mutex<Option<String>>,
) -> Vec<(Option<Instant>, u64)> {
    let mut buf = BytesMut::new();
    let mut out = Vec::with_capacity(plan.len());
    for (due_at, op, id) in plan {
        let digest = encode(ctx, op, *id, &mut buf);
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let at = Instant::now();
        if let Err(e) = writer.write_all(&buf) {
            *error.lock().expect("send error lock") = Some(format!("send failed: {e}"));
            // Wake the receiver: nothing more will be answered.
            let _ = writer.shutdown(Shutdown::Both);
            break;
        }
        out.push((Some(at), digest));
        sent.fetch_add(1, Ordering::SeqCst);
    }
    out.resize(plan.len(), (None, 0));
    finished.store(true, Ordering::SeqCst);
    out
}

/// The receiver: matches each reply frame to its op by request ID until
/// every sent op is answered, or the drain limit after the last send
/// passes. Returns why it stopped early, if it did.
fn receive_all(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    recs: &mut [Record],
    ctx: &PhaseCtx,
    sent: &AtomicUsize,
    finished: &AtomicBool,
) -> Option<String> {
    let by_id: HashMap<u64, usize> = recs.iter().enumerate().map(|(j, r)| (r.id, j)).collect();
    let mut done = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if finished.load(Ordering::SeqCst) {
            if done == sent.load(Ordering::SeqCst) {
                return None;
            }
            let deadline = *drain_deadline.get_or_insert(Instant::now() + ctx.drain_limit);
            if Instant::now() >= deadline {
                return Some(format!(
                    "no reply within {:?} of the last send",
                    ctx.drain_limit
                ));
            }
        }
        let payload = match reader.read_frame_ref(&mut *stream) {
            Ok(Some(p)) => p,
            Ok(None) => continue,
            Err(e) => return Some(format!("connection lost: {e}")),
        };
        let at = Instant::now();
        let rsp = match Response::decode(payload) {
            Ok(r) => r,
            Err(e) => return Some(format!("undecodable reply: {e}")),
        };
        let id = rsp.request_id();
        let Some(&j) = by_id.get(&id) else {
            return Some(format!("reply for unknown request id {id}"));
        };
        let r = &mut recs[j];
        if r.done {
            return Some(format!("reply after completion for request id {id}"));
        }
        match rsp {
            Response::Output { tensor, trace } => {
                r.frames.push(Frame { at, tensor, trace });
                r.done = true;
            }
            Response::Chunk {
                tensor,
                trace,
                seq,
                last,
            } => {
                if seq as usize != r.frames.len() {
                    r.failure = Some(Failure::Error(format!(
                        "chunk {seq} arrived after {} chunks",
                        r.frames.len()
                    )));
                }
                r.frames.push(Frame { at, tensor, trace });
                r.done = last;
            }
            Response::Busy { .. } => {
                r.failure = Some(Failure::Shed);
                r.done = true;
            }
            Response::Error { message, .. } => {
                r.failure = Some(Failure::Error(message));
                r.done = true;
            }
            other => {
                r.failure = Some(Failure::Error(format!("unexpected reply {other:?}")));
                r.done = true;
            }
        }
        if r.done {
            done += 1;
        }
    }
}
