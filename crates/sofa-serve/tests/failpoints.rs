//! Failpoint-driven containment tests.
//!
//! These live in their own integration-test binary (own process) on
//! purpose: the failpoint registry is process-global, so arming the
//! serve tick failpoint next to unrelated concurrently running serve
//! tests would let *their* ticks consume the injected panic. The three
//! scenarios also share one `#[test]` so they cannot race each other.

use sofa_exec::failpoint::{self, FailAction};
use sofa_index::{Neighbor, QueryKind};
use sofa_serve::{
    CancelToken, ResultSlot, ServeConfig, ServeError, Server, TickExec, TICK_FAILPOINT,
};
use std::time::Duration;

/// Echo executor: neighbor `rank` of a query is `row = q[0] + rank`.
struct EchoExec;

impl TickExec for EchoExec {
    fn series_len(&self) -> usize {
        2
    }

    fn run_tick(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        _cancels: &[CancelToken],
    ) {
        for (i, q) in queries.chunks(2).enumerate() {
            let k = match &kinds[i] {
                QueryKind::Knn { k } => *k,
                _ => 1,
            };
            let mut out = outs[i].lock();
            out.clear();
            for rank in 0..k {
                out.push(Neighbor { row: q[0] as u32 + rank as u32, dist_sq: rank as f32 });
            }
        }
    }
}

fn expected(q0: f32, k: usize) -> Vec<Neighbor> {
    (0..k).map(|r| Neighbor { row: q0 as u32 + r as u32, dist_sq: r as f32 }).collect()
}

#[test]
fn injected_tick_faults_are_contained() {
    // --- A forced panic aborts only its own tick; the one-shot budget
    // is then spent, so every later submission serves normally.
    let server = Server::new(EchoExec, ServeConfig::new());
    failpoint::arm(TICK_FAILPOINT, FailAction::Panic, Some(1));
    assert_eq!(server.query(&[5.0, 0.0], QueryKind::Knn { k: 1 }), Err(ServeError::Aborted));
    for i in 0..10 {
        let q0 = 10.0 + i as f32;
        assert_eq!(server.query(&[q0, 0.0], QueryKind::Knn { k: 2 }).unwrap(), expected(q0, 2));
    }
    let stats = server.stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.queries, 10);
    drop(server);

    // --- An injected error takes the same containment path as a panic.
    let server = Server::new(EchoExec, ServeConfig::new());
    failpoint::arm(TICK_FAILPOINT, FailAction::Error, Some(1));
    assert_eq!(server.query(&[1.0, 0.0], QueryKind::Knn { k: 1 }), Err(ServeError::Aborted));
    assert_eq!(server.query(&[2.0, 0.0], QueryKind::Knn { k: 1 }).unwrap(), expected(2.0, 1));
    drop(server);

    // --- An injected delay overshoots the tick's own 2ms deadline:
    // explicit error, no partial answer; the next tick serves fine.
    let server =
        Server::new(EchoExec, ServeConfig::new().fill_target(1).deadline(Duration::from_millis(2)));
    failpoint::arm(TICK_FAILPOINT, FailAction::Sleep(Duration::from_millis(8)), Some(1));
    assert_eq!(
        server.query(&[1.0, 0.0], QueryKind::Knn { k: 1 }),
        Err(ServeError::DeadlineExceeded)
    );
    assert_eq!(server.query(&[2.0, 0.0], QueryKind::Knn { k: 1 }).unwrap(), expected(2.0, 1));
    let stats = server.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.queries, 1);
    failpoint::clear_all();
}
