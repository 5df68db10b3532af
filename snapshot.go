package repro

// Warm-cache snapshot/restore — the persistence layer under the
// distributed fabric's warm restarts. A snapshot serializes every
// completed entry of the engine's config-keyed suite cache through the
// internal/wire canonical encoding (versioned and fingerprint-keyed;
// format in docs/PERFORMANCE.md); restoring it into a fresh engine
// makes that engine's first request for any snapshotted configuration
// a cache hit, observable through Engine.CacheStats. cmd/sg2042d wires
// these to its -snapshot/-restore flags.

import "repro/internal/core"

// SnapshotCache serializes the engine's suite cache. The bytes are a
// pure function of cache content: entries are sorted by their
// canonical key, so two snapshots of the same state are byte-identical.
func (e *Engine) SnapshotCache() ([]byte, error) {
	return e.st.SnapshotCache()
}

// RestoreCache installs a snapshot into the engine's suite cache,
// returning how many entries were installed (already-cached keys are
// skipped, never overwritten). Restore is all-or-nothing: a corrupt,
// truncated or version-skewed snapshot errors cleanly and leaves the
// cache untouched.
func (e *Engine) RestoreCache(data []byte) (int, error) {
	return e.st.RestoreCache(data)
}

// SnapshotVersion is the current snapshot schema version.
const SnapshotVersion = core.SnapshotVersion
