//! The model registry's public contract: stable wire names that
//! round-trip through IDs, append-only deterministic iteration, and
//! duplicate rejection. That the paper models' reports stay byte-stable
//! is pinned by the golden fixtures (`tests/golden_reports.rs`).

use ncdrf::{ModelId, ModelRegistry, ModelSpec};
use proptest::prelude::*;

#[test]
fn every_registered_model_round_trips_name_to_id_to_name() {
    // Exhaustive over the live registry (tests in this binary may have
    // registered extra models; the invariant holds for those too).
    for id in ModelRegistry::ids() {
        let name = id.name();
        assert_eq!(
            ModelRegistry::resolve(&name),
            Some(id),
            "`{name}` must resolve back to its own id"
        );
        assert_eq!(id.to_string(), name, "Display is the wire name");
        assert_eq!(name.parse::<ModelId>(), Ok(id), "FromStr inverts Display");
    }
}

#[test]
fn registry_iteration_is_deterministic_and_append_only() {
    let first = ModelRegistry::ids();
    let second = ModelRegistry::ids();
    // Another test thread may register between the two snapshots, but
    // registration is append-only: the shorter snapshot is always a
    // prefix of the longer.
    let n = first.len().min(second.len());
    assert_eq!(first[..n], second[..n]);
    // The six built-ins are always the head, in registration order.
    assert_eq!(
        &first[..6],
        &[
            ModelId::IDEAL,
            ModelId::UNIFIED,
            ModelId::PARTITIONED,
            ModelId::SWAPPED,
            ModelId::PORT_LIMITED,
            ModelId::COMPRESSED,
        ]
    );
}

struct Duplicate;

impl ModelSpec for Duplicate {
    fn name(&self) -> &str {
        "unified"
    }
}

struct Fresh;

impl ModelSpec for Fresh {
    fn name(&self) -> &str {
        "registry-test-fresh"
    }
}

#[test]
fn duplicate_registration_is_rejected_without_corrupting_the_registry() {
    let before = ModelRegistry::ids().len();
    let err = ModelRegistry::register(Duplicate).unwrap_err();
    assert!(
        err.to_string().contains("unified"),
        "the rejection names the colliding wire name: {err}"
    );
    assert_eq!(ModelRegistry::resolve("unified"), Some(ModelId::UNIFIED));
    assert!(ModelRegistry::ids().len() >= before);

    // A fresh name registers exactly once; the second attempt collides.
    let id = ModelRegistry::register(Fresh).unwrap();
    assert_eq!(ModelRegistry::resolve("registry-test-fresh"), Some(id));
    assert!(ModelRegistry::register(Fresh).is_err());
}

/// Arbitrary lowercase-and-dash names, with genuine wire names mixed in
/// so both resolution branches are exercised.
fn arb_name() -> impl Strategy<Value = String> {
    (0usize..24, 0u64..u64::MAX, 0u32..4).prop_map(|(len, seed, pick)| {
        if pick == 0 {
            let ids = ModelRegistry::ids();
            return ids[(seed % ids.len() as u64) as usize].name();
        }
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz-";
        let mut s = String::new();
        let mut x = seed;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.push(ALPHABET[(x >> 33) as usize % ALPHABET.len()] as char);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any string resolves either to an id whose wire name is exactly
    // that string, or to nothing — resolution never aliases.
    #[test]
    fn resolution_never_aliases(name in arb_name()) {
        match ModelRegistry::resolve(&name) {
            Some(id) => prop_assert_eq!(id.name(), name),
            None => prop_assert!(ModelRegistry::ids().iter().all(|id| id.name() != name)),
        }
    }
}
