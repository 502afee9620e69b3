#!/usr/bin/env bash
# Hermetic verification gate: the workspace must build, test, and compile
# every bench target fully offline. If anyone reintroduces an external
# dependency, the --offline flags make this fail fast instead of silently
# fetching from a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo build --offline --workspace --examples
cargo test -q --offline --workspace
cargo bench --no-run --offline --workspace

# Property suites, named so a failure is unmistakably a property-level
# regression (both also run inside the workspace sweep above; this is
# the explicit gate for the StreamSummary/CoarseTimeline properties and
# the core invariants).
cargo test -q --offline -p dfly-stats --test streaming_props
cargo test -q --offline --test proptest_invariants
# Metric structures must stop growing at their caps on a long run.
cargo test -q --offline --test memory_bound

echo "verify.sh: offline build + examples + tests + property suites + bench compile all passed."
