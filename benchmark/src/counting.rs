//! A counting, timing pass-through for the public transport traits.
//!
//! Wrapping the connection handed to `RemoteCloud::connect` measures the
//! transport layer from outside: how many send calls and payload bytes a
//! frame costs, and how long the receive pump sits blocked, without
//! touching `core::transport`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use smallbig::core::transport::{FrameRx, FrameTx, Transport};

use crate::spans::Tracer;

/// What crossed one wrapped connection (both halves share it).
// Relaxed everywhere: these are statistics read after the pumps joined;
// they publish no other data.
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Calls into `send` / `send_all` (a coalesced run is one call).
    pub send_calls: AtomicU64,
    /// Frames sent.
    pub tx_frames: AtomicU64,
    /// Payload bytes sent.
    pub tx_bytes: AtomicU64,
    /// Frames received.
    pub rx_frames: AtomicU64,
    /// Payload bytes received.
    pub rx_bytes: AtomicU64,
    /// Nanoseconds spent blocked in receive calls.
    pub recv_wait_ns: AtomicU64,
}

impl WireCounters {
    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] that forwards every frame untouched and counts it.
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    counters: Arc<WireCounters>,
    tracer: Tracer,
}

impl CountingTransport {
    /// Wraps `inner`; `tracer` additionally gets one `core.transport.send`
    /// / `core.transport.recv` span per call.
    pub fn wrap(
        inner: Box<dyn Transport>,
        counters: Arc<WireCounters>,
        tracer: Tracer,
    ) -> CountingTransport {
        CountingTransport {
            inner,
            counters,
            tracer,
        }
    }
}

impl Transport for CountingTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        let (tx, rx) = self.inner.split();
        (
            Box::new(CountingTx {
                inner: tx,
                counters: Arc::clone(&self.counters),
                tracer: self.tracer.clone(),
            }),
            Box::new(CountingRx {
                inner: rx,
                counters: self.counters,
                tracer: self.tracer,
            }),
        )
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

struct CountingTx {
    inner: Box<dyn FrameTx>,
    counters: Arc<WireCounters>,
    tracer: Tracer,
}

impl CountingTx {
    fn account(&self, frames: u64, bytes: usize) {
        let c = &self.counters;
        c.send_calls.fetch_add(1, Ordering::Relaxed);
        c.tx_frames.fetch_add(frames, Ordering::Relaxed);
        c.tx_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl FrameTx for CountingTx {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .span("core.transport.send", None, None, || inner.send(payload));
        self.account(1, payload.len());
        out
    }

    // Forwarded, not defaulted: the default would split a coalesced run
    // back into one inner send per frame and change what is measured.
    fn send_all(&mut self, payloads: &[&[u8]]) -> io::Result<()> {
        let inner = &mut self.inner;
        let out = self.tracer.span("core.transport.send", None, None, || {
            inner.send_all(payloads)
        });
        let bytes = payloads.iter().map(|p| p.len()).sum();
        self.account(payloads.len() as u64, bytes);
        out
    }
}

struct CountingRx {
    inner: Box<dyn FrameRx>,
    counters: Arc<WireCounters>,
    tracer: Tracer,
}

impl CountingRx {
    fn account(&self, got: &io::Result<Option<Bytes>>, took: Duration) {
        let c = &self.counters;
        c.recv_wait_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        if let Ok(Some(frame)) = got {
            c.rx_frames.fetch_add(1, Ordering::Relaxed);
            c.rx_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
    }
}

impl FrameRx for CountingRx {
    fn recv(&mut self) -> io::Result<Option<Bytes>> {
        let t0 = Instant::now();
        let inner = &mut self.inner;
        let got = self
            .tracer
            .span("core.transport.recv", None, None, || inner.recv());
        self.account(&got, t0.elapsed());
        got
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Bytes>> {
        let t0 = Instant::now();
        let inner = &mut self.inner;
        let got = self.tracer.span("core.transport.recv", None, None, || {
            inner.recv_timeout(timeout)
        });
        self.account(&got, t0.elapsed());
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallbig::core::transport::memory_pair;

    #[test]
    fn frames_pass_through_byte_for_byte_and_are_counted_exactly() {
        let (near, far) = memory_pair();
        let counters = Arc::new(WireCounters::default());
        let wrapped = CountingTransport::wrap(Box::new(near), Arc::clone(&counters), Tracer::on());
        assert_eq!(wrapped.peer(), "memory");
        let (mut tx, mut rx) = Box::new(wrapped).split();
        let (mut far_tx, mut far_rx) = Box::new(far).split();

        let a: Vec<u8> = (0..=255).collect();
        let b = b"second".to_vec();
        let c = Vec::new();
        tx.send(&a).unwrap();
        tx.send_all(&[&b, &c]).unwrap();
        for want in [&a, &b, &c] {
            assert_eq!(far_rx.recv().unwrap().unwrap().as_ref(), want.as_slice());
        }

        far_tx.send(b"answer").unwrap();
        assert_eq!(rx.recv().unwrap().unwrap().as_ref(), b"answer");
        let timed_out = rx.recv_timeout(Duration::from_millis(1)).unwrap_err();
        assert_eq!(timed_out.kind(), io::ErrorKind::TimedOut);
        drop(far_tx);
        assert_eq!(rx.recv().unwrap(), None);

        let get = WireCounters::get;
        assert_eq!(get(&counters.send_calls), 2);
        assert_eq!(get(&counters.tx_frames), 3);
        assert_eq!(get(&counters.tx_bytes), 256 + 6);
        assert_eq!(get(&counters.rx_frames), 1);
        assert_eq!(get(&counters.rx_bytes), 6);
        assert!(get(&counters.recv_wait_ns) >= 1_000_000);
    }
}
