//! The protocol boundary of the one front door: a spec that names
//! something unknown, or carries a graph record that does not decode,
//! is refused before admission, and specs journaled by earlier daemons
//! still read back byte for byte, the retired hard deadline ignored.

use magis::obs::json::Json;
use magis::serve::{Client, JobSpec, ServeConfig, ServeError, Server};

/// One sample of the daemon's Prometheus scrape.
fn sample(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn a_spec_that_can_never_run_is_refused_at_once_and_never_admitted() {
    let state = std::env::temp_dir().join(format!("magis_front_door_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    let mut c = Client::connect(handle.addr()).expect("connect");

    let counters = ["magis_serve_jobs_accepted", "magis_serve_jobs_failed"];
    let before = c.metrics().expect("metrics");
    let ok = JobSpec { workload: Some("unet".into()), ..JobSpec::default() };
    for (bad, what) in [
        (JobSpec { mode: "vibes".into(), ..ok.clone() }, "unknown mode 'vibes'"),
        (JobSpec { workload: Some("hal9000".into()), ..ok.clone() }, "unknown workload"),
        (JobSpec { backend: Some("abacus".into()), ..ok.clone() }, "unknown backend"),
        (JobSpec { strategy: Some("quantum".into()), ..ok.clone() }, "unknown strategy"),
        (JobSpec { workload: None, graph: Some("garbage".into()), ..ok.clone() }, "parsing graph record"),
    ] {
        // A 400 is the boundary's answer; a job that was admitted and
        // then failed ends in a `done` event instead.
        match c.submit_and_wait(&bad) {
            Err(ServeError::Rejected { code: 400, error }) => {
                assert!(error.contains(what), "{error}")
            }
            other => panic!("{what}: expected a 400 refusal, got {other:?}"),
        }
    }
    let after = c.metrics().expect("metrics");
    for name in counters {
        assert_eq!(sample(&before, name), sample(&after, name), "{name} moved");
    }
    let journaled =
        std::fs::read_dir(magis::serve::journal::jobs_root(&state)).map_or(0, Iterator::count);
    assert_eq!(journaled, 0, "nothing was journaled");

    handle.shutdown();
    join.join().expect("server thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// The `spec.json` lines of two `magis submit` lines, one setting every
/// flag and one none, each with the `JobSpec::cache_key` earlier
/// daemons computed for it: a spec renders and keys as it always did.
const JOURNALED: [(&str, u64); 2] = [
    (
        concat!(
            r#"{"client":"fixture","workload":"unet","scale":0.1,"mode":"latency","limit":0.75,"#,
            r#""objective":"planned","backend":"a100","budget_ms":15000,"#,
            r#""max_candidates":30,"threads":1,"eval_cache":512,"checkpoint_every":16,"#,
            r#""strategy":"mcts"}"#,
            "\n"
        ),
        0xa570_34e9_b679_be75,
    ),
    (
        concat!(
            r#"{"client":"anon","workload":"bert","scale":0.1,"mode":"memory","#,
            r#""objective":"liveness","budget_ms":15000,"max_candidates":20,"threads":1,"#,
            r#""checkpoint_every":16}"#,
            "\n"
        ),
        0xa5f6_1a8c_c99f_121f,
    ),
];

#[test]
fn specs_journaled_by_the_parent_read_back_byte_for_byte_under_the_same_cache_key() {
    for (text, key) in JOURNALED {
        let spec = JobSpec::from_json(&Json::parse(text).expect("json")).expect("a valid spec");
        assert_eq!(spec.to_json().render() + "\n", text);
        assert_eq!(spec.cache_key(), key);
    }
}

#[test]
fn a_journaled_spec_with_the_retired_deadline_decodes_with_the_key_ignored() {
    // The every-flag line as daemons with a second, hard deadline
    // journaled it: `budget_ms` is now the one wall-clock limit.
    let (text, key) = JOURNALED[0];
    let retired = text.replacen(r#""max_candidates""#, r#""wall_limit_ms":60000,"max_candidates""#, 1);
    let spec = JobSpec::from_json(&Json::parse(&retired).expect("json")).expect("a valid spec");
    assert_eq!(spec.to_json().render() + "\n", text);
    assert_eq!(spec.cache_key(), key);
}
