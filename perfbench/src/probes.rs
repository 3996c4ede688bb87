//! Transport-level measurement: a timing adaptor around any
//! [`Transport`], the threaded replay driven through it, and ping-pong
//! α/β probes over the channel and socket backends.

use hpf_ir::{Memory, Value};
use hpf_net::socket::{AddrKind, NetListener, SocketConfig, SocketTransport};
use hpf_net::{channel_group, Addr, NetError, Transport, WireMsg};
use hpf_spmd::{replay_rank, CommMetrics, SpmdProgram, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`Transport`] that times every `send` and `recv` of the one it wraps.
pub struct Timed<T> {
    inner: T,
    pub send_s: f64,
    pub recv_wait_s: f64,
}

impl<T> Timed<T> {
    pub fn new(inner: T) -> Timed<T> {
        Timed {
            inner,
            send_s: 0.0,
            recv_wait_s: 0.0,
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nproc(&self) -> usize {
        self.inner.nproc()
    }

    fn send(&mut self, to: usize, msg: &WireMsg) -> Result<(), NetError> {
        let t = Instant::now();
        let r = self.inner.send(to, msg);
        self.send_s += t.elapsed().as_secs_f64();
        r
    }

    fn recv(&mut self, from: usize) -> Result<WireMsg, NetError> {
        let t = Instant::now();
        let r = self.inner.recv(from);
        self.recv_wait_s += t.elapsed().as_secs_f64();
        r
    }

    fn peak_in_flight(&self) -> u64 {
        self.inner.peak_in_flight()
    }

    fn finish(&mut self) -> Result<(), NetError> {
        self.inner.finish()
    }

    fn link_seq(&self, peer: usize) -> Option<u64> {
        self.inner.link_seq(peer)
    }

    fn take_fault_events(&mut self) -> Vec<hpf_obs::TraceEvent> {
        self.inner.take_fault_events()
    }
}

/// Per-rank time split of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankTimes {
    pub wall_s: f64,
    pub send_s: f64,
    pub recv_wait_s: f64,
}

impl RankTimes {
    /// Time not spent inside the transport.
    pub fn compute_s(&self) -> f64 {
        self.wall_s - self.send_s - self.recv_wait_s
    }
}

/// Result of [`timed_replay`].
pub struct TimedReplay {
    pub mems: Vec<Memory>,
    pub metrics: CommMetrics,
    pub ranks: Vec<RankTimes>,
}

/// The threaded replay of `hpf_spmd::replay`, one thread per rank over
/// `channel_group`, with every rank's transport wrapped in [`Timed`].
pub fn timed_replay(
    sp: &SpmdProgram,
    trace: &Trace,
    init: &(impl Fn(&mut Memory) + Sync),
) -> Result<TimedReplay, String> {
    let nproc = trace.len();
    type RankOut = Result<(Memory, CommMetrics, RankTimes), String>;
    let results: Vec<RankOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = channel_group(nproc)
            .into_iter()
            .enumerate()
            .map(|(pid, transport)| {
                let events = &trace[pid];
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut mem = Memory::zeroed(&sp.program);
                    init(&mut mem);
                    let mut t = Timed::new(transport);
                    let (_, metrics) = replay_rank(sp, events, &mut mem, &mut t)?;
                    let times = RankTimes {
                        wall_s: start.elapsed().as_secs_f64(),
                        send_s: t.send_s,
                        recv_wait_s: t.recv_wait_s,
                    };
                    Ok((mem, metrics, times))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let mut out = TimedReplay {
        mems: Vec::with_capacity(nproc),
        metrics: CommMetrics::new(nproc, sp.comms.len()),
        ranks: Vec::with_capacity(nproc),
    };
    for r in results {
        let (mem, metrics, times) = r?;
        out.mems.push(mem);
        out.metrics.merge(&metrics);
        out.ranks.push(times);
    }
    Ok(out)
}

/// Payload sizes of the ping-pong probes, in values.
const SMALL: usize = 1;
const LARGE: usize = 4096;
/// Bytes of one REAL value on the wire, as `CommMetrics` counts them.
const VALUE_BYTES: f64 = 8.0;
/// Round trips per timed batch, per payload size.
const ROUNDS: [usize; 2] = [200, 40];
const BATCHES: usize = 7;

/// α (seconds per message) and β (seconds per payload byte) of one
/// transport, from one-way times at [`SMALL`] and [`LARGE`] values.
#[derive(Debug, Clone, Copy)]
pub struct AlphaBeta {
    pub alpha_s: f64,
    pub beta_s: f64,
}

fn payload(n: usize) -> WireMsg {
    WireMsg::Many(Arc::new(
        (0..n).map(|k| Value::Real(k as f64 * 0.5)).collect(),
    ))
}

/// Rank 0's side: per payload size, one untimed warm-up batch, then
/// [`BATCHES`] timed batches of round trips; returns the median one-way
/// time per size.
fn ping(t: &mut impl Transport) -> Result<[f64; 2], String> {
    let mut out = [0.0; 2];
    for (i, &n) in [SMALL, LARGE].iter().enumerate() {
        let msg = payload(n);
        let mut one_way = Vec::with_capacity(BATCHES);
        for batch in 0..=BATCHES {
            let start = Instant::now();
            for _ in 0..ROUNDS[i] {
                t.send(1, &msg).map_err(|e| e.to_string())?;
                let back = t.recv(1).map_err(|e| e.to_string())?;
                if back.len() != n {
                    return Err(format!(
                        "ping-pong echoed {} values, sent {}",
                        back.len(),
                        n
                    ));
                }
            }
            if batch > 0 {
                one_way.push(start.elapsed().as_secs_f64() / (2 * ROUNDS[i]) as f64);
            }
        }
        out[i] = crate::record::median(&mut one_way);
    }
    t.finish().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Rank 1's side: echo every message back.
fn pong(t: &mut impl Transport) -> Result<(), String> {
    let total: usize = ROUNDS.iter().map(|r| r * (BATCHES + 1)).sum();
    for _ in 0..total {
        let m = t.recv(0).map_err(|e| e.to_string())?;
        t.send(0, &m).map_err(|e| e.to_string())?;
    }
    t.finish().map_err(|e| e.to_string())
}

fn alpha_beta([small, large]: [f64; 2]) -> AlphaBeta {
    AlphaBeta {
        alpha_s: small,
        beta_s: (large - small) / ((LARGE - SMALL) as f64 * VALUE_BYTES),
    }
}

/// Ping-pong between two threads over `channel_group(2)`.
pub fn channel_alpha_beta() -> Result<AlphaBeta, String> {
    let mut group = channel_group(2).into_iter();
    let (mut a, mut b) = (group.next().expect("rank 0"), group.next().expect("rank 1"));
    let (ra, rb) = std::thread::scope(|s| {
        let hb = s.spawn(|| pong(&mut b));
        let ra = ping(&mut a);
        (
            ra,
            hb.join()
                .unwrap_or_else(|_| Err("pong thread panicked".into())),
        )
    });
    rb?;
    ra.map(alpha_beta)
}

/// Ping-pong between two `SocketTransport::connect_mesh` endpoints on
/// the default address family (Unix sockets), one thread each.
pub fn socket_alpha_beta() -> Result<AlphaBeta, String> {
    let listeners: Vec<NetListener> = (0..2)
        .map(|r| {
            NetListener::bind(AddrKind::default(), &format!("probe{r}")).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<Addr> = listeners
        .iter()
        .map(|l| l.addr().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let cfg = SocketConfig {
        io_deadline: Duration::from_secs(10),
        ..SocketConfig::default()
    };
    let (ra, rb) = std::thread::scope(|s| {
        let (l0, l1) = (&listeners[0], &listeners[1]);
        let addrs = &addrs;
        let hb = s.spawn(move || {
            let mut t =
                SocketTransport::connect_mesh(1, 2, l1, addrs, cfg).map_err(|e| e.to_string())?;
            pong(&mut t)
        });
        let ra = SocketTransport::connect_mesh(0, 2, l0, addrs, cfg)
            .map_err(|e| e.to_string())
            .and_then(|mut t| ping(&mut t));
        (
            ra,
            hb.join()
                .unwrap_or_else(|_| Err("pong thread panicked".into())),
        )
    });
    rb?;
    ra.map(alpha_beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_transport_counts_time_and_passes_messages() {
        let mut group = channel_group(2).into_iter();
        let (mut a, mut b) = (
            Timed::new(group.next().unwrap()),
            Timed::new(group.next().unwrap()),
        );
        a.send(1, &payload(3)).unwrap();
        assert_eq!(b.recv(0).unwrap().len(), 3);
        assert!(a.send_s > 0.0 && b.recv_wait_s > 0.0);
        assert_eq!((a.rank(), b.rank(), a.nproc()), (0, 1, 2));
    }

    #[test]
    fn probes_measure_positive_alpha() {
        assert!(channel_alpha_beta().unwrap().alpha_s > 0.0);
        assert!(socket_alpha_beta().unwrap().alpha_s > 0.0);
    }
}
