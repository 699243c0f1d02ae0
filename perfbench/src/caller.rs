//! One wire caller: a connection plus what the benchmark keeps from its
//! answers (kept answers for the checks, trace records, and counts to
//! reconcile with the server's own ledger).

use std::net::SocketAddr;
use std::time::Instant;

use zv_server::proto::VizTable;
use zv_server::NetStatsSnapshot;

use crate::client::{time_encode, Conn, Reply};
use crate::layers::{CallRec, InteractionRec, Probe};
use crate::metrics::Outcome;
use crate::trace::{Span, Tracer};

pub struct Caller {
    conn: Conn,
    pub tally: Tally,
}

/// What callers keep, merged across callers once they close.
#[derive(Default)]
pub struct Tally {
    /// Queries written and results received.
    pub sent: u64,
    pub results: u64,
    /// `(query text, answer)` pairs kept for the reference check.
    pub kept: Vec<(String, Vec<VizTable>)>,
    pub recs: Vec<InteractionRec>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.results += other.results;
        self.kept.extend(other.kept);
        self.recs.extend(other.recs);
    }
}

impl Caller {
    pub fn connect(addr: SocketAddr, traced: bool) -> Result<Caller, String> {
        Ok(Caller {
            conn: Conn::connect(addr, traced).map_err(|e| format!("connect: {e}"))?,
            tally: Tally::default(),
        })
    }

    /// One round trip. With tracing on it records a `wire.query` span
    /// under interaction `request` (and a `wire.decode` span inside it)
    /// and returns the call's record, whose probes [`Caller::probe`]
    /// times later.
    pub fn call(&mut self, text: &str, tracer: &Tracer, request: u64) -> (Reply, Option<CallRec>) {
        let traced = tracer.enabled();
        let span = if traced {
            let span = tracer.next_id();
            tracer.enter(request, span);
            span
        } else {
            0
        };
        let start = Instant::now();
        self.tally.sent += 1;
        let mut reply = self.conn.query(text).unwrap_or(Reply {
            outcome: Outcome::Error,
            tables: Vec::new(),
            report: None,
            wire: None,
            frame: Vec::new(),
        });
        let end = Instant::now();
        if reply.outcome == Outcome::Completed {
            self.tally.results += 1;
        }
        if !traced {
            return (reply, None);
        }
        tracer.record(Span {
            id: span,
            parent: request,
            request,
            name: "wire.query",
            start,
            end,
        });
        if let Some(w) = reply.wire {
            tracer.record(Span {
                id: tracer.next_id(),
                parent: span,
                request,
                name: "wire.decode",
                start: w.decode_start,
                end: w.decode_end,
            });
        }
        let rec = CallRec {
            span,
            start,
            end,
            report: reply.report,
            wire: reply.wire,
            parse: None,
            task: None,
            probe: Some(Probe {
                text: text.to_string(),
                frame: std::mem::take(&mut reply.frame),
            }),
        };
        (reply, Some(rec))
    }

    /// Time the probes of the last traced interaction: `zql::parse_query`
    /// of each call's text and the encode of each call's answer. Runs
    /// after the interaction's clock stopped, so neither lands in a
    /// timed window.
    pub fn probe(&mut self) {
        let Some(rec) = self.tally.recs.last_mut() else {
            return;
        };
        for call in &mut rec.calls {
            let Some(probe) = call.probe.take() else {
                continue;
            };
            let start = Instant::now();
            if std::hint::black_box(zql::parse_query(&probe.text)).is_ok() {
                call.parse = Some(start.elapsed());
            }
            if let Some(wire) = &mut call.wire {
                wire.encode = time_encode(&probe.frame).unwrap_or_default();
            }
        }
    }

    /// One interaction that is a single query; keeps the answer when
    /// `keep` is set.
    pub fn interact(&mut self, text: &str, tracer: &Tracer, keep: bool) -> Outcome {
        let id = if tracer.enabled() {
            tracer.next_id()
        } else {
            0
        };
        let start = Instant::now();
        let (reply, rec) = self.call(text, tracer, id);
        let end = Instant::now();
        if let Some(rec) = rec {
            record_interaction(tracer, id, start, end);
            self.tally.recs.push(InteractionRec {
                start,
                end,
                calls: vec![rec],
                append: None,
            });
        }
        if keep && reply.outcome == Outcome::Completed {
            self.tally.kept.push((text.to_string(), reply.tables));
        }
        reply.outcome
    }

    pub fn close(self) -> Tally {
        self.conn.close();
        self.tally
    }
}

/// Record the root span of interaction `id`.
pub fn record_interaction(tracer: &Tracer, id: u64, start: Instant, end: Instant) {
    tracer.record(Span {
        id,
        parent: 0,
        request: id,
        name: "interaction",
        start,
        end,
    });
}

/// The server must have received every query the callers sent and sent
/// every result they received. Read after the callers closed, when the
/// server's responders have finished.
pub fn reconcile(
    before: &NetStatsSnapshot,
    after: &NetStatsSnapshot,
    tally: &Tally,
) -> Result<(), String> {
    let (sent, results) = (tally.sent, tally.results);
    let received = after.queries_received - before.queries_received;
    let answered = after.results_sent - before.results_sent;
    if received != sent || answered != results {
        return Err(format!(
            "server ledger disagrees: it received {received} queries and sent {answered} \
             results; the callers sent {sent} and received {results}"
        ));
    }
    Ok(())
}
