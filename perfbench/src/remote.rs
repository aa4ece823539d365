//! The remote set-up shared by `mr_tcp` and `fault_remote`: a provider
//! served over TCP loopback through the connection-multiplexing server,
//! under admission control, reached by one client connection whose
//! session stamps one tenant.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_obs::Collector;
use vcad_rmi::{
    AdmissionControl, Frame, InProcTransport, MuxServer, MuxServerConfig, TcpTimeouts,
    TcpTransport, TenantQuota, Transport,
};

use crate::probe::{CallProbe, Exchange, TimedTransport};
use crate::trace::Tracer;

/// The one tenant the session stamps; its quota never sheds.
pub const TENANT: &str = "perfbench";

/// Mux worker pool size: the 2-core host the figures were taken on.
const MUX_WORKERS: usize = 2;

/// Socket budget: far above any loopback round trip.
const SOCKET_BUDGET: Duration = Duration::from_secs(30);

/// Codec replay passes stop once this much time is measured.
const CODEC_MIN: Duration = Duration::from_millis(50);

pub struct RemoteRig {
    // Declared client first: the connection closes before the server stops.
    pub session: ClientSession,
    pub transport: Arc<TimedTransport>,
    pub probe: Arc<CallProbe>,
    mux: MuxServer,
    pub server: ProviderServer,
    admission: Arc<AdmissionControl>,
    /// Server counters when tracing started.
    mark: [u64; 4],
}

impl RemoteRig {
    /// Starts the provider, binds the mux server and connects.
    pub fn start() -> RemoteRig {
        let admission = Arc::new(AdmissionControl::new());
        admission.set_quota(TENANT, TenantQuota::unlimited());
        let server = ProviderServer::with_admission(
            "provider.perfbench",
            Collector::disabled(),
            Arc::clone(&admission),
        );
        server.offer(ComponentOffering::fast_low_power_multiplier());
        let mux = server
            .serve_mux(
                "127.0.0.1:0",
                MuxServerConfig {
                    workers: MUX_WORKERS,
                    queue_capacity: 64,
                    max_connections: 8,
                },
            )
            .expect("bind the mux server on loopback");
        let tcp = TcpTransport::connect_with_timeouts(mux.addr(), TcpTimeouts::all(SOCKET_BUDGET))
            .expect("connect to the mux server");
        let probe = CallProbe::new();
        let transport = TimedTransport::new(Arc::new(tcp), Arc::clone(&probe));
        let session =
            ClientSession::connect(Arc::clone(&transport) as Arc<dyn Transport>, server.host())
                .with_tenant(TENANT);
        RemoteRig {
            session,
            transport,
            probe,
            mux,
            server,
            admission,
            mark: [0; 4],
        }
    }

    /// `[mux enqueued, mux queue sheds, admitted, admission sheds]`.
    fn counters(&self) -> [u64; 4] {
        let mux = self.mux.stats();
        let tenant = self.admission.tenant_stats(TENANT);
        [
            mux.enqueued,
            mux.queue_shed,
            tenant.admitted,
            tenant.shed_rate + tenant.shed_quota,
        ]
    }

    /// Calls attempted since set-up, and how many failed at the transport
    /// or were shed by the server.
    pub fn calls(&self) -> (u64, u64) {
        let [_, queue_shed, _, admission_shed] = self.counters();
        (
            self.probe.calls(),
            self.probe.errors() + queue_shed + admission_shed,
        )
    }

    /// Starts a traced phase: spans on, frames captured, counters marked.
    pub fn start_trace(&mut self, tracer: &Arc<Tracer>) {
        self.mark = self.counters();
        self.probe.set_tracer(Some(Arc::clone(tracer)));
        self.transport.start_capture();
    }

    /// Ends the traced phase's span recording and reads the server's own
    /// counters over it.
    pub fn stop_trace(&mut self) -> Vec<(&'static str, f64)> {
        self.probe.set_tracer(None);
        let now = self.counters();
        let delta = |i: usize| (now[i] - self.mark[i]) as f64;
        vec![
            ("rmi.mux_enqueued", delta(0)),
            ("rmi.mux_queue_shed", delta(1)),
            ("rmi.admission_admitted", delta(2)),
            ("rmi.admission_shed", delta(3)),
        ]
    }

    /// Replays `exchanges` (captured over TCP) twice: through
    /// `Frame::decode`/`encode`, and through `InProcTransport` into the same
    /// provider's dispatcher. Returns the per-layer metrics, the number of
    /// checks made and how many failed (a replayed response must equal the
    /// one that crossed the socket, and a decoded frame must re-encode to
    /// the same bytes).
    pub fn replay(
        &self,
        exchanges: &[Exchange],
        tracer: &Tracer,
    ) -> (Vec<(&'static str, f64)>, u64, u64) {
        let _replay = tracer.span("perfbench", "replay");
        let mut failures = 0;

        let bytes: usize = exchanges
            .iter()
            .map(|e| e.request.len() + e.response.len())
            .sum();
        let mut codec = Duration::ZERO;
        let mut passes = 0u32;
        while codec < CODEC_MIN || passes < 3 {
            let _span = tracer.span("rmi", "rmi.codec");
            let started = Instant::now();
            for e in exchanges {
                for frame in [&e.request, &e.response] {
                    let decoded = Frame::decode(black_box(frame));
                    black_box(decoded.map(|f| f.encode()).ok());
                }
            }
            codec += started.elapsed();
            passes += 1;
        }
        for e in exchanges {
            for frame in [&e.request, &e.response] {
                if Frame::decode(frame).map(|f| f.encode()).ok().as_ref() != Some(frame) {
                    failures += 1;
                }
            }
        }
        let codec_ns = codec.as_nanos() as f64 / f64::from(passes);

        let inproc = InProcTransport::new(self.server.dispatcher());
        let mut dispatch = Duration::ZERO;
        for e in exchanges {
            let span = tracer.span("ip", "ip.dispatch");
            let started = Instant::now();
            let response = inproc.call(&e.request);
            dispatch += started.elapsed();
            drop(span);
            if !matches!(&response, Ok(r) if *r == e.response) {
                failures += 1;
            }
        }
        let n = exchanges.len().max(1) as f64;
        let tcp: Duration = exchanges.iter().map(|e| e.latency).sum();
        let call_us = tcp.as_secs_f64() * 1e6 / n;
        let dispatch_us = dispatch.as_secs_f64() * 1e6 / n;
        let metrics = vec![
            ("rmi.call_us", call_us),
            ("ip.dispatch_us", dispatch_us),
            ("rmi.net_poll_us", call_us - dispatch_us),
            ("rmi.codec_ns_per_call", codec_ns / n),
            (
                "rmi.codec_ns_per_kb",
                codec_ns / (bytes.max(1) as f64 / 1024.0),
            ),
        ];
        (metrics, 3 * exchanges.len() as u64, failures)
    }
}
