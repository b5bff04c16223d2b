//! The execution-layer determinism contract at the service boundary:
//! a serve response must be **byte-identical** for 1, 2 and 8 workers —
//! the worker count is a performance knob, never a semantic one.

use gtl_api::{FindRequest, PlaceRequest, Request, Session, SessionDispatcher};
use gtl_netlist::NetlistBuilder;
use gtl_tangled::FinderConfig;

/// Two planted cliques in a sparse ring — enough structure for the finder
/// to produce a non-trivial response.
fn session() -> Session {
    let mut b = NetlistBuilder::new();
    let n = 160;
    let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
    for (base, size) in [(0, 10), (80, 14)] {
        for i in 0..size {
            for j in (i + 1)..size {
                b.add_anonymous_net([cells[base + i], cells[base + j]]);
            }
        }
    }
    for i in 0..n {
        b.add_anonymous_net([cells[i], cells[(i + 1) % n]]);
    }
    Session::builder().netlist(b.finish()).build().unwrap()
}

#[test]
fn find_response_bytes_identical_for_1_2_8_workers() {
    let session = session();
    let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
    let mut lines = Vec::new();
    for threads in [1usize, 2, 8] {
        let request = Request::Find(FindRequest::new(FinderConfig {
            num_seeds: 24,
            min_size: 6,
            max_order_len: 48,
            rng_seed: 0xD0C,
            threads,
            ..FinderConfig::default()
        }));
        lines.push(dispatcher.handle_line(&serde::json::to_string(&request)));
    }
    assert!(lines[0].contains("\"gtls\":[{"), "finder found nothing: {}", lines[0]);
    assert_eq!(lines[0], lines[1], "2 workers changed the response bytes");
    assert_eq!(lines[0], lines[2], "8 workers changed the response bytes");
}

#[test]
fn place_response_bytes_identical_for_1_2_8_workers() {
    let session = session();
    let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
    let mut lines = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut request = PlaceRequest::new();
        request.placer.threads = threads;
        request.routing.threads = threads;
        lines.push(dispatcher.handle_line(&serde::json::to_string(&Request::Place(request))));
    }
    assert!(lines[0].contains("\"hpwl\":"), "{}", lines[0]);
    assert_eq!(lines[0], lines[1]);
    assert_eq!(lines[0], lines[2]);
}
