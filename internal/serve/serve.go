// Package serve is the one request pipeline behind every front-end —
// flockd's /query, /prepare, /invoke and /partial, flockql's file mode and
// REPL — as four stages: compile, plan, execute,
// report (see Pipeline). It also holds the serving-layer cache subsystems
// that hang off that path: a count-bounded LRU plan cache keyed on
// canonical program text, a byte-bounded LRU memo of candidate-subquery
// results (the core.SubqueryMemo implementation), and the prepared-flock
// table behind Prepare.
//
// Correctness does not depend on invalidation: every plan-cache and memo
// key embeds the database's data-version counter
// (storage.Database.Version), so an entry can never answer a request
// against other data. Pipeline.Mutate publishes a bumped copy and then
// purges both caches of every entry computed against an older version
// (counted as evictions), so stale entries do not hold space.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
)

// Handle derives the stable prepared-flock handle for a canonical program
// text: a short content hash, so preparing the same (alpha-equivalent)
// program twice — even across server restarts — yields the same handle.
func Handle(canon string) string {
	sum := sha256.Sum256([]byte(canon))
	return "f" + hex.EncodeToString(sum[:6])
}
