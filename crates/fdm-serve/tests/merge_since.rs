use fdm_core::point::Element;
use fdm_serve::protocol::{parse_line, Payload, Request as Cmd};
use fdm_serve::{Engine, ServeConfig};

#[test]
fn merge_since_answers_delta_after_matching_anchor() {
    let engine = Engine::new(ServeConfig::default()).unwrap();
    let (name, spec) = match parse_line("OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30")
        .unwrap()
        .unwrap()
    {
        Cmd::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    };
    engine.open(&name, &spec).unwrap();
    let arrivals: Vec<Element> = (0..30)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            Element::new(i, vec![x, y], i % 2)
        })
        .collect();
    engine.insert_batch(&name, &arrivals[..20]).unwrap();
    let (epoch, crc) = match engine.merge_since(&name, (0, 0)).unwrap() {
        Payload::MergeSince {
            delta, epoch, crc, ..
        } => {
            assert!(!delta, "first contact must be full");
            (epoch, crc)
        }
        other => panic!("{other:?}"),
    };
    engine.insert_batch(&name, &arrivals[20..]).unwrap();
    match engine.merge_since(&name, (epoch, crc)).unwrap() {
        Payload::MergeSince {
            delta, epoch: e2, ..
        } => {
            assert!(delta, "matching anchor after appends must ride a delta");
            assert_eq!(e2, epoch);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn coordinator_refresh_rides_deltas() {
    use fdm_serve::{serve_tcp, NetOptions};
    use std::net::TcpListener;
    use std::sync::Arc;
    let workers: Vec<String> = (0..2)
        .map(|_| {
            let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
            addr.to_string()
        })
        .collect();
    let engine = Engine::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let (name, spec) = match parse_line("OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30")
        .unwrap()
        .unwrap()
    {
        Cmd::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    };
    engine.open(&name, &spec).unwrap();
    let arrivals: Vec<Element> = (0..30)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            Element::new(i, vec![x, y], i % 2)
        })
        .collect();
    engine.insert_batch(&name, &arrivals[..20]).unwrap();
    engine.query(&name, None).unwrap();
    engine.insert_batch(&name, &arrivals[20..]).unwrap();
    engine.query(&name, None).unwrap();
    let metrics = engine.render_metrics();
    let delta_line = metrics
        .lines()
        .find(|l| l.starts_with("fdm_merge_bytes_total{kind=\"delta\"}"))
        .unwrap()
        .to_string();
    let value: f64 = delta_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(value > 0.0, "second QUERY must ride deltas: {metrics}");
}

/// A worker that answers `delta=1` to the coordinator's first, unanchored
/// `MERGE since=0:00000000` is violating the protocol. The coordinator must
/// turn that into a typed `ERR` naming the worker — not a panic, which the
/// session would contain as `ERR internal error`.
#[test]
fn unanchored_delta_reply_is_a_typed_error() {
    use fdm_serve::protocol::{ErrorReply, Response};
    use fdm_serve::Session;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::Arc;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        let mut merges = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            let request = line.trim_end().to_string();
            line.clear();
            let reply = if request.starts_with("OPEN ") {
                Response::Ok(Payload::Opened {
                    name: "jobs".to_string(),
                })
            } else if request.starts_with("MERGE") {
                merges.push(request);
                // An empty delta tail: the header alone is the violation.
                Response::Ok(Payload::MergeSince {
                    algorithm: "sfdm2".to_string(),
                    processed: 4,
                    delta: true,
                    epoch: 1,
                    crc: 0,
                    bytes: Vec::new(),
                })
            } else {
                Response::Err(ErrorReply::generic(format!("unexpected `{request}`")))
            };
            writeln!(writer, "{}", reply.render()).unwrap();
            writer.flush().unwrap();
        }
        merges
    });

    let engine = Arc::new(
        Engine::new(ServeConfig {
            workers: vec![addr.clone()],
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let mut out = Vec::new();
    Session::new(engine)
        .run(
            &b"OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30\nQUERY\n"[..],
            &mut out,
        )
        .unwrap();
    let out = String::from_utf8(out).unwrap();
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(replies.len(), 2, "{out}");
    assert_eq!(replies[0], "OK opened jobs");
    assert_eq!(
        replies[1],
        format!("ERR worker {addr} answered a delta frame to an unanchored MERGE"),
        "the bad reply must become a typed ERR naming the worker, not a panic"
    );
    // Dropping the engine closes the coordinator's worker connection,
    // which ends the fake worker's read loop.
    let merges = fake.join().unwrap();
    assert_eq!(merges, vec!["MERGE since=0:00000000".to_string()]);
}
