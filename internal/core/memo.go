package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// This file implements cross-evaluation memoization of FILTER computations
// (§4.1) — the serving layer's third cache plane. Every FILTER computation,
// whether the whole flock (direct strategy) or one plan step (a §3.1 safe
// candidate subquery), factors into two memoizable pieces:
//
//   - the *extended answer*: the distinct (params..., head...) tuples of the
//     parametrized query, kept as dictionary-ID rows. It does not depend on
//     the filter at all, so a flock re-posted with a tightened support
//     threshold — the interactive mining session pattern — replays the
//     already-mined candidate tuples and pays only a re-grouping;
//   - the *survivor set*: the parameter tuples whose group passes the
//     filter. It is the step's full result, keyed on query and filter both.
//
// Keys are derived from the canonical (alpha-renamed) query text, so
// programs differing only in variable names share entries, and every key is
// scoped by a caller-provided salt binding the database version and view
// context (see MemoContext). Within a plan, the salt is additionally
// chained step by step: step queries reference earlier step relations *by
// name*, so a step's canonical text alone would alias across plans that
// bind the same name to different contents.

// SubqueryMemo is a cache of FILTER-computation results shared across
// evaluations. Implementations must be safe for concurrent use and must
// treat stored values as immutable (the engine hands the same value to
// every hit). internal/serve provides the byte-bounded LRU implementation
// flockd mounts.
type SubqueryMemo interface {
	// Extended returns the memoized extended answer for key, if present and
	// interned in dict: ID rows of another dictionary mean nothing here.
	Extended(key string, dict *storage.Dict) (*physical.IDRows, bool)
	// PutExtended stores an extended answer, as the distinct ID rows a
	// capturing group operator kept. Implementations may decline (e.g. an
	// entry larger than the cache); Put is advisory.
	PutExtended(key string, rows *physical.IDRows)
	// Survivors returns the memoized survivor set for key, if present.
	Survivors(key string) (*storage.Relation, bool)
	// PutSurvivors stores a survivor set.
	PutSurvivors(key string, rel *storage.Relation)
}

// MemoContext returns the base memo salt for evaluating f against db: the
// database's data-version counter plus the canonical text of the flock's
// views. Both scope every key derived under them — results computed
// against one data version (or one view context) can never answer for
// another; bumping the version on mutation is the invalidation mechanism.
func MemoContext(db *storage.Database, f *Flock) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", db.Version())
	for _, v := range f.Views {
		b.WriteByte('\n')
		b.WriteString(datalog.CanonicalRule(v))
	}
	return b.String()
}

// CanonicalString renders the filter positionally (the resolved
// head-argument index instead of the head-variable name), matching
// datalog.CanonicalFilter so the two layers derive identical cache keys.
func (f Filter) CanonicalString() string {
	target := "answer(*)"
	if f.headPos >= 0 {
		target = fmt.Sprintf("answer.#%d", f.headPos)
	}
	return fmt.Sprintf("%s(%s) %s %s", f.spec.Agg, target, f.spec.Op, f.spec.Threshold.Literal())
}

// memoKey hashes its length-prefixed parts into a fixed-size hex key.
func memoKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// extendedKey identifies one extended answer: salt + parameter layout
// (paramList; order fixes the column layout) + canonical query.
// Deliberately filter-free.
func extendedKey(salt string, params []datalog.Param, query datalog.Union) string {
	return memoKey("ext", salt, paramList(params), datalog.CanonicalUnion(query))
}

// survivorKey identifies one survivor set: the extended answer it groups
// plus the canonical filter.
func survivorKey(extKey string, filter Filter) string {
	return memoKey("surv", extKey, filter.CanonicalString())
}

// chainSalt extends a plan's memo salt past one executed step. Later
// steps reference this step's relation by name, so their keys must bind
// the name to this step's full derivation (query, parameter layout, and
// the filter it was grouped under).
func chainSalt(salt string, step FilterStep, filter Filter) string {
	return memoKey("step", salt, step.Name, paramList(step.Params),
		datalog.CanonicalUnion(step.Query), filter.CanonicalString())
}

// evalFilteredMemo is evalFiltered's streaming path with the memo planes
// consulted. A survivor hit skips the computation entirely. Otherwise the
// computation runs as one columnar plan — pipelines, union, group
// operator, sink — whose group input is the compiled rule pipelines on an
// extended-plane miss, and a replay of the memoized ID rows on a hit. A
// miss runs the group operator in capture mode and memoizes the distinct
// rows it deduplicated: the extended answer, whatever the filter. Either
// way the answer is the relation the memo-free plan would produce, in the
// same order — the memo only short-circuits work, never changes results.
func evalFilteredMemo(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, opts *EvalOptions, register func(*storage.Relation) error) (*storage.Relation, error) {

	memo := opts.Memo
	extKey := extendedKey(opts.MemoSalt, params, query)
	survKey := survivorKey(extKey, filter)

	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	if res, ok := memo.Survivors(survKey); ok {
		if res.Name() != name {
			res = res.Rename(name, nil)
		}
		if err := opts.gate().CheckOutput(res.Len()); err != nil {
			return nil, err
		}
		if opts.Trace != nil {
			opts.Trace.Collector().Record(obs.Event{
				Op:      obs.OpGroup,
				Desc:    fmt.Sprintf("%s [%s]", name, filter),
				RowsOut: res.Len(),
				Cached:  true,
				Wall:    time.Since(start),
			})
		}
		return publish(res, register)
	}

	dict, err := db.Dict()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ext, hit := memo.Extended(extKey, dict)
	var in physical.Node
	if hit {
		cols := make([]string, 0, len(ext.Cols))
		for _, t := range extendedOut(params, query[0]) {
			cols = append(cols, t.String())
		}
		in, err = physical.NewReplay(ext, cols)
	} else {
		in, err = compileExtended(db, params, query, 1)
	}
	if err != nil {
		return nil, err
	}
	group, err := physical.NewGroup(name, len(params), filter.Aggregate(), filter.String(), in)
	if err != nil {
		return nil, err
	}
	plan := physical.NewPlan(physical.NewMaterialize(name, group, register))
	var res *storage.Relation
	if hit {
		res, err = eval.RunPlan(db, plan, opts.evalOpts())
	} else {
		res, ext, err = eval.RunCapture(db, plan, opts.evalOpts())
	}
	if err != nil {
		return nil, err
	}
	// The last batch may have breached the tuple budget.
	if err := opts.gate().Check(); err != nil {
		return nil, err
	}
	if !hit {
		memo.PutExtended(extKey, ext)
	}
	memo.PutSurvivors(survKey, res)
	return res, nil
}
