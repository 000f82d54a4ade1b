package serve

import (
	"errors"
	"fmt"
	"net/http"

	"queryflocks/internal/analysis"
	"queryflocks/internal/cluster"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// ErrPanic marks an evaluation that died in an engine invariant panic.
var ErrPanic = errors.New("internal panic")

// Rejected is a program the compile stage refused: a parse failure or
// error-severity analyzer findings, with the structured diagnostics.
type Rejected struct {
	Msg         string
	Diagnostics []analysis.Diagnostic
}

func (e *Rejected) Error() string { return e.Msg }

// statusError pins a status on a pipeline error whose class the engine's
// typed errors do not already imply (unknown handle, oversized program,
// admission refusal, failed persistence).
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func statusErrorf(status int, format string, args ...any) *statusError {
	return &statusError{status: status, msg: fmt.Sprintf(format, args...)}
}

// Failure is the structured form of a pipeline error — the payload of
// every non-200 flockd outcome. Lint rejections carry the analyzer's
// diagnostics alongside the one-line error; shard failures name the dead
// shard; an unreadable column file names its relation.
type Failure struct {
	// Status is the HTTP status class; command-line front-ends exit 1 on
	// any Failure and print Error (after rendering Diagnostics).
	Status      int                   `json:"-"`
	Error       string                `json:"error"`
	Shard       string                `json:"shard,omitempty"`
	Relation    string                `json:"relation,omitempty"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
}

// Classify is the report stage: the one mapping from typed errors onto
// statuses. A rejected program is a bad request carrying diagnostics, a
// dead worker shard is a bad gateway, deadline and cancellation are the
// gateway-timeout family, an exceeded resource budget is the client's
// query being too expensive, an unreadable column file and panics are 500s,
// and anything untyped (unknown strategy, plan errors, schema mismatch)
// is a bad request.
func Classify(err error) Failure {
	f := Failure{Status: http.StatusBadRequest, Error: err.Error()}
	var (
		rej *Rejected
		ste *statusError
		she *cluster.ShardError
		sge *storage.SegmentError
	)
	switch {
	case errors.As(err, &rej):
		f.Diagnostics = rej.Diagnostics
	case errors.As(err, &ste):
		f.Status = ste.status
	case errors.As(err, &she):
		f.Status, f.Shard = http.StatusBadGateway, she.Shard
	case errors.As(err, &sge):
		f.Status, f.Relation = http.StatusInternalServerError, sge.Relation
	case errors.Is(err, eval.ErrCanceled):
		f.Status = http.StatusGatewayTimeout
	case errors.Is(err, eval.ErrBudgetExceeded):
		f.Status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrPanic):
		f.Status = http.StatusInternalServerError
	}
	return f
}
