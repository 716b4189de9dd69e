//! Fleet set-up shared by the threaded workloads: store servers on a
//! `ThreadedRuntime`, one replicated collection populated with stored
//! objects, and the telemetry plane (`rt_snapshot`'s hub, flight
//! recorder, watchdog and scrape endpoint).

use crate::trace::Span;
use crate::wrap::{Board, TimedService};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use weakset_obs::telemetry::{FlightRecorder, TelemetryHub, TelemetryServer, Watchdog};
use weakset_obs::{http_get, ObsSnapshot};
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId, ObjectRecord};
use weakset_store::prelude::{CollectionRef, StoreClient, StoreServer};

/// The collection every threaded workload reads and iterates.
pub const COLL: CollectionId = CollectionId(1);

/// Client rpc timeout: far above any healthy round trip, so a timeout
/// is a real failure rather than scheduling noise.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);

/// Node slots on a [`Board`]; every fleet here has far fewer nodes.
pub const BOARD_NODES: usize = 64;

/// Three store servers hosting one collection (home `s0`, replicas
/// `s1`, `s2`) on real threads.
pub struct StoreFleet {
    /// The fleet's driving view.
    pub rt: ThreadedRuntime<StoreMsg>,
    /// The store servers.
    pub servers: Vec<NodeId>,
    /// The replicated collection.
    pub cref: CollectionRef,
    /// Request-ownership slots shared with the handler wrappers.
    pub board: Arc<Board>,
    /// Handler spans are recorded while this holds.
    pub handler_tracing: Arc<AtomicBool>,
    wrapped: bool,
}

impl StoreFleet {
    /// Starts three servers and creates [`COLL`] on them. With `wrap`,
    /// each server's service sits inside a [`TimedService`].
    pub fn start(seed: u64, wrap: bool) -> Self {
        let mut rt = ThreadedRuntime::<StoreMsg>::new(seed);
        let board = Board::new(BOARD_NODES);
        let handler_tracing = Arc::new(AtomicBool::new(false));
        let servers: Vec<NodeId> = (0..3).map(|i| rt.add_node(format!("s{i}"))).collect();
        for &s in &servers {
            let svc: Box<dyn weakset_sim::world::Service<StoreMsg> + Send> = if wrap {
                Box::new(TimedService::new(
                    Box::new(StoreServer::new()),
                    Arc::clone(&board),
                    Arc::clone(&handler_tracing),
                ))
            } else {
                Box::new(StoreServer::new())
            };
            rt.install_service(s, svc);
        }
        let cref = CollectionRef {
            id: COLL,
            home: servers[0],
            replicas: servers[1..].to_vec(),
        };
        let mut fleet = StoreFleet {
            rt,
            servers,
            cref,
            board,
            handler_tracing,
            wrapped: wrap,
        };
        let setup = fleet.client("setup");
        setup
            .create_collection(&mut fleet.rt, &fleet.cref)
            .expect("create the collection on a healthy fleet");
        fleet
    }

    /// A client on a fresh node named `name`.
    pub fn client(&mut self, name: &str) -> StoreClient {
        StoreClient::new(self.rt.add_node(name), RPC_TIMEOUT)
    }

    /// Home server of element `id`: objects spread over all servers.
    pub fn home_of(&self, id: ObjectId) -> NodeId {
        self.servers[(id.0 % self.servers.len() as u64) as usize]
    }

    /// Stores an object for each id on its home server and adds it to
    /// the collection.
    pub fn populate(&mut self, client: &StoreClient, ids: &[ObjectId]) {
        for &id in ids {
            let home = self.home_of(id);
            client
                .put_object(&mut self.rt, home, object(id))
                .expect("store an object on a healthy fleet");
            client
                .add_member(&mut self.rt, &self.cref, MemberEntry { elem: id, home })
                .expect("add a member on a healthy fleet");
        }
    }

    /// Drains every server's recorded handler spans (empty unless the
    /// fleet was started wrapped).
    pub fn take_handler_spans(&mut self) -> Vec<Span> {
        let mut out = Vec::new();
        if self.wrapped {
            for &s in &self.servers {
                self.rt
                    .with_service_mut(s, |t: &mut TimedService| out.extend(t.take_spans()));
            }
        }
        out
    }

    /// Stops every node thread and waits for it.
    pub fn stop(mut self) {
        if let Err(hung) = self.rt.shutdown(Duration::from_secs(10)) {
            panic!("store nodes still running after shutdown: {hung:?}");
        }
    }
}

/// The stored object for element `id`.
pub fn object(id: ObjectId) -> ObjectRecord {
    ObjectRecord::new(id, format!("o{}", id.0), &b"payload"[..])
}

/// The telemetry plane as `rt_snapshot` attaches it: a hub the views
/// publish into every 25 ms, a flight recorder and slow-op watchdog
/// riding along, and an HTTP endpoint serving `/snapshot.json`.
pub struct Telemetry {
    server: TelemetryServer,
    watchdog: Watchdog,
}

impl Telemetry {
    /// Attaches the plane to `rt`; views cloned afterwards publish too.
    /// A watchdog trip dumps the flight ring into `out`.
    pub fn attach(rt: &mut ThreadedRuntime<StoreMsg>, seed: u64, out: &Path) -> Self {
        let hub = TelemetryHub::new();
        let flight = FlightRecorder::new(2048).with_dump_path(out.join("flight-read_mix.json"));
        let watchdog = Watchdog::spawn(
            Duration::from_secs(5),
            Duration::from_millis(250),
            hub.clone(),
            Some(flight.clone()),
        );
        let server = TelemetryServer::serve("127.0.0.1:0", hub.clone(), "perfbench", seed)
            .expect("bind the telemetry endpoint on localhost");
        rt.attach_telemetry(hub.clone(), Duration::from_millis(25));
        rt.attach_flight_recorder(flight);
        rt.attach_watchdog(watchdog.clone());
        Telemetry { server, watchdog }
    }

    /// One `GET /snapshot.json`: the parsed snapshot, the body size in
    /// bytes, and how long the request took.
    pub fn scrape(&self) -> (ObsSnapshot, usize, Duration) {
        let t0 = Instant::now();
        let (status, body) = http_get(self.server.addr(), "/snapshot.json", Duration::from_secs(5))
            .expect("scrape /snapshot.json");
        let took = t0.elapsed();
        assert_eq!(status, 200, "snapshot endpoint answered {status}");
        let snap = ObsSnapshot::from_json(&body).expect("snapshot endpoint serves canonical JSON");
        (snap, body.len(), took)
    }

    /// Stops the watchdog and the endpoint, waiting for their threads.
    pub fn stop(self) {
        self.watchdog.stop();
        self.server.stop();
    }
}
