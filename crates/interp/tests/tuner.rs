//! Tuned-policy persistence invariants, read from the session's own
//! tuner counters ([`Session::tuner_stats`]): the first tuned run of a
//! (program, input shape) searches the policy space, every later run
//! reapplies the persisted winner with **zero** re-search, and the
//! persisted policy is an ordinary cache citizen — charged to the session
//! byte bound on the next recharge and evicted together with its
//! artifacts.  Each test owns its sessions, so the tests run concurrently.

use ss_interp::{RunPolicy, RunRequest, Session, TunerConfig};

const SRC: &str = r#"
    for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
    for (miel = 0; miel < nelt; miel++) {
        iel = mt_to_id[miel];
        id_to_mt[iel] = miel;
    }
"#;

fn tuned_request(scale: i64) -> RunRequest {
    RunRequest::new("tuned", SRC)
        .scale(scale)
        .threads(2)
        .policy(RunPolicy::Tuned)
}

fn quick() -> TunerConfig {
    TunerConfig {
        budget_trials: Some(4),
        repeats: 1,
        ..TunerConfig::default()
    }
}

#[test]
fn second_tuned_run_applies_the_persisted_policy_with_zero_re_search() {
    let session = Session::new();
    let searches = || session.tuner_stats().searches;

    let first = session.run(&tuned_request(48)).unwrap();
    assert_eq!(first.policy, "tuned");
    assert_eq!(first.policy_provenance.as_deref(), Some("tuned-search"));
    assert_eq!(searches(), 1);

    let second = session.run(&tuned_request(48)).unwrap();
    assert_eq!(second.policy_provenance.as_deref(), Some("tuned-cache"));
    assert_eq!(second.heap, first.heap);
    assert_eq!(searches(), 1, "a persisted-policy hit must not re-search");

    // A different input shape is a different signature: re-search.
    let other = session.run(&tuned_request(64)).unwrap();
    assert_eq!(other.policy_provenance.as_deref(), Some("tuned-search"));
    assert_eq!(searches(), 2);
    assert_eq!(session.tuner_stats().hits, 1);
}

#[test]
fn trial_tables_are_deterministic_under_a_fixed_seed() {
    let labels = |session: &Session| -> Vec<String> {
        let outcome = session
            .tune(
                &RunRequest::new("det", SRC).scale(32).threads(2),
                &TunerConfig {
                    repeats: 1,
                    seed: 7,
                    ..TunerConfig::default()
                },
            )
            .unwrap();
        outcome
            .policy
            .trials
            .iter()
            .map(|t| t.point.label())
            .collect()
    };
    let a = labels(&Session::new());
    let b = labels(&Session::new());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must measure the same trials in order");
}

#[test]
fn tuned_policies_are_byte_charged_and_evicted_with_their_artifacts() {
    // Unbounded session: the persisted policy grows the entry's byte
    // charge once the cache recharges it on the next hit.
    let session = Session::new();
    session.artifacts("tuned", SRC).unwrap();
    let before_bytes = session.cache_stats().bytes;
    session.tune(&tuned_request(32), &quick()).unwrap();
    session.artifacts("tuned", SRC).unwrap();
    assert!(
        session.cache_stats().bytes > before_bytes,
        "the persisted policy must be charged to the byte accounting"
    );

    // Byte-bounded session: evicting the artifacts evicts the policy with
    // them, and the next tuned run has to search again.
    let bounded = Session::new().with_cache_capacity_bytes(1);
    let searches = || bounded.tuner_stats().searches;
    bounded.tune(&tuned_request(32), &quick()).unwrap();
    bounded.tune(&tuned_request(32), &quick()).unwrap();
    assert_eq!(
        searches(),
        1,
        "the MRU entry survives the byte bound, so the second tune hits"
    );
    bounded.artifacts("other", "x = 1;").unwrap();
    assert!(
        bounded.cache_stats().evictions >= 1,
        "the new entry must push the tuned one over the byte bound"
    );
    bounded.tune(&tuned_request(32), &quick()).unwrap();
    assert_eq!(
        searches(),
        2,
        "an evicted policy cannot be reapplied: the tuner searches afresh"
    );
    assert_eq!(bounded.tuner_stats().hits, 1);
}
