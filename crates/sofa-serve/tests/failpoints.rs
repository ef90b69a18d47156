//! Failpoint-driven containment tests.
//!
//! These live in their own integration-test binary (own process) on
//! purpose: the failpoint registry is process-global, so arming the
//! serve tick failpoint next to unrelated concurrently running serve
//! tests would let *their* ticks consume the injected panic. The four
//! scenarios also share one `#[test]` so they cannot race each other.

use sofa_exec::failpoint::{self, FailAction};
use sofa_index::{Index, IndexConfig, Neighbor, QueryKind};
use sofa_serve::{
    CancelToken, ResultSlot, ServeConfig, ServeError, Server, ShardedIndex, TickExec,
    TICK_FAILPOINT,
};
use sofa_summaries::{ISax, SaxConfig};
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

const LEN: usize = 16;

/// `rows` pseudo-random series of [`LEN`] values.
fn dataset(rows: usize) -> Vec<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..rows * LEN)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn build(data: &[f32]) -> Index<ISax> {
    let sax = ISax::new(LEN, &SaxConfig { word_len: 8, alphabet: 16 });
    Index::build(sax, data, IndexConfig::with_threads(1).leaf_capacity(16)).expect("build")
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
    drop(server);

    // --- A panic inside one shard's refine fails only its own tick:
    // every later query reaches every shard and answers exactly.
    let data = dataset(200);
    let whole = build(&data);
    let half = 100 * LEN;
    let sharded = ShardedIndex::new(vec![build(&data[..half]), build(&data[half..])]).unwrap();
    let server = Server::new(sharded, ServeConfig::new());
    failpoint::arm("sofa-index::refine_leaf", FailAction::Panic, Some(1));
    let q = &data[..LEN];
    assert_eq!(server.query(q, QueryKind::Knn { k: 3 }), Err(ServeError::Aborted));
    for q in data.chunks(LEN).step_by(17) {
        assert_eq!(server.query(q, QueryKind::Knn { k: 3 }).unwrap(), whole.knn(q, 3).unwrap());
    }
    assert_eq!(server.stats().aborted, 1);
    failpoint::clear_all();
}
