//! Public-API surface tests for the `muffin` crate: the types downstream
//! users hold must satisfy the usual Rust API guidelines (Send + Sync,
//! Debug, Clone where sensible) and the documented constructors must
//! exist. Compile-time guarantees, checked once here.

use muffin::{
    Candidate, ControllerConfig, ControllerState, DisagreementBreakdown, EpisodeRecord,
    EvalCacheFile, FusingStructure, FusionComposition, HeadSpec, HeadTrainConfig, MuffinError,
    PersistenceOptions, PrivilegeMap, ProxyDataset, RewardConfig, RewardKind, RnnController,
    SearchCheckpoint, SearchConfig, SearchFingerprint, SearchOutcome, SearchSpace, TextTable,
    CHECKPOINT_VERSION,
};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_debug<T: std::fmt::Debug>() {}
fn assert_clone<T: Clone>() {}

#[test]
fn public_types_are_send_sync() {
    assert_send_sync::<MuffinError>();
    assert_send_sync::<PrivilegeMap>();
    assert_send_sync::<ProxyDataset>();
    assert_send_sync::<FusingStructure>();
    assert_send_sync::<HeadSpec>();
    assert_send_sync::<HeadTrainConfig>();
    assert_send_sync::<RewardConfig>();
    assert_send_sync::<RewardKind>();
    assert_send_sync::<SearchSpace>();
    assert_send_sync::<Candidate>();
    assert_send_sync::<ControllerConfig>();
    assert_send_sync::<RnnController>();
    assert_send_sync::<SearchConfig>();
    assert_send_sync::<SearchOutcome>();
    assert_send_sync::<EpisodeRecord>();
    assert_send_sync::<DisagreementBreakdown>();
    assert_send_sync::<FusionComposition>();
    assert_send_sync::<ControllerState>();
    assert_send_sync::<SearchFingerprint>();
    assert_send_sync::<SearchCheckpoint>();
    assert_send_sync::<EvalCacheFile>();
    assert_send_sync::<PersistenceOptions>();
}

#[test]
fn public_types_are_debuggable_and_cloneable() {
    assert_debug::<MuffinError>();
    assert_debug::<SearchOutcome>();
    assert_debug::<FusingStructure>();
    assert_debug::<TextTable>();
    assert_clone::<PrivilegeMap>();
    assert_clone::<ProxyDataset>();
    assert_clone::<FusingStructure>();
    assert_clone::<SearchConfig>();
    assert_clone::<SearchOutcome>();
    assert_clone::<RnnController>();
    assert_debug::<SearchCheckpoint>();
    assert_debug::<PersistenceOptions>();
    assert_clone::<ControllerState>();
    assert_clone::<SearchFingerprint>();
    assert_clone::<SearchCheckpoint>();
    assert_clone::<EvalCacheFile>();
    assert_clone::<PersistenceOptions>();
}

#[test]
fn errors_format_and_compose_with_boxed_error() {
    // MuffinError must slot into `Box<dyn Error>` pipelines (C-GOOD-ERR).
    fn fails() -> Result<(), Box<dyn std::error::Error>> {
        Err(Box::new(MuffinError::EmptyPool))
    }
    let err = fails().unwrap_err();
    assert!(err.to_string().contains("pool"));
}

#[test]
fn default_configs_are_consistent() {
    let reward = RewardConfig::default();
    assert!(reward.epsilon > 0.0);
    let controller = ControllerConfig::default();
    assert!(controller.gamma > 0.0 && controller.gamma <= 1.0);
    assert!((0.0..1.0).contains(&controller.baseline_decay));
    let head = HeadTrainConfig::default();
    assert!(head.epochs > 0 && head.batch_size > 0);
    let paper = SearchConfig::paper(&["age"]);
    assert_eq!(paper.episodes, 500, "the paper's episode count");
    assert_eq!(paper.num_slots, 2, "the paper's paired-model count");
    let persistence = PersistenceOptions::default();
    assert!(persistence.checkpoint.is_none() && persistence.eval_cache.is_none());
    assert!(!persistence.resume);
    assert_eq!(CHECKPOINT_VERSION, 3, "bump only with a format change");
}
