package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"queryflocks/internal/analysis"
	"queryflocks/internal/core"
	"queryflocks/internal/serve"
	"queryflocks/internal/sqlgen"
)

// repl runs the interactive mode: flock definitions are accumulated until
// a blank line after the FILTER: section, then compiled — linted exactly
// as file mode lints, so error-severity diagnostics stop the flock — and
// evaluated with the session's strategy, workers, and timeout. A flock
// may begin with EXPLAIN (print subqueries, join order, and plan without
// executing) or EXPLAIN ANALYZE (execute and render the observed operator
// tree). Backslash commands control the session:
//
//	\rels              list loaded relations
//	\strategy NAME     switch evaluation strategy
//	\explain on|off    toggle plan/decision explanations
//	\sql               print the SQL translation of the last flock
//	\plan              print the chosen plan for the last flock
//	\lint              diagnostics for the last flock (schema-checked)
//	\help              this summary
//	\quit              exit
func (s *session) repl(in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, "queryflocks interactive shell — \\help for commands; finish a flock with a blank line")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	var lastFlock *core.Flock
	var lastSrc string
	var buf strings.Builder
	prompt := func() { fmt.Fprint(out, "flockql> ") }
	prompt()

	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "\\"):
			quit := false
			guard(out, func() error {
				quit = s.command(out, trimmed, lastFlock, lastSrc)
				return nil
			})
			if quit {
				return nil
			}
		case trimmed == "" && strings.Contains(buf.String(), "FILTER:"):
			lastSrc = buf.String() // \lint works even when the compile below fails
			buf.Reset()
			lastFlock = nil
			guard(out, func() error {
				prog, err := s.compile(out, lastSrc, "")
				var rej *serve.Rejected
				if errors.As(err, &rej) && rej.Diagnostics[0].Code == "QF001" {
					return fmt.Errorf("parse error: %w", err)
				}
				if err != nil {
					return err
				}
				lastFlock = prog.Flock
				return s.eval(out, out, prog)
			})
		case trimmed == "":
			// blank line with no complete flock: keep accumulating
		default:
			buf.WriteString(line)
			buf.WriteByte('\n')
			continue // no fresh prompt mid-statement
		}
		prompt()
	}
	fmt.Fprintln(out)
	return scanner.Err()
}

// guard runs one statement's work and keeps the session alive whatever
// happens: returned errors print as "error: ...", and engine invariant
// panics (storage arity checks, unknown aggregates) are recovered and
// printed instead of killing the interactive session.
func guard(out io.Writer, f func() error) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(out, "error: internal panic: %v\n", r)
		}
	}()
	if err := f(); err != nil {
		fmt.Fprintln(out, "error:", err)
	}
}

// command executes one backslash command; reports whether to quit.
func (s *session) command(out io.Writer, cmd string, last *core.Flock, lastSrc string) bool {
	db := s.pipe.Snapshot()
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q", "\\exit":
		fmt.Fprintln(out, "bye")
		return true
	case "\\help":
		fmt.Fprintln(out, `commands:
  \rels              list loaded relations
  \strategy NAME     `+strings.Join(serve.Strategies(), "|")+` (current: `+s.req.Strategy+`)
  \explain on|off    toggle explanations
  \sql               SQL translation of the last flock
  \plan              chosen static plan for the last flock
  \lint              diagnostics for the last flock, schema-checked against
                     the loaded relations (stable QFxxx codes)
  \quit              exit
end a flock definition (QUERY:/FILTER: sections) with a blank line to run it
prefix a flock with EXPLAIN to see its subqueries, join order, and plan
without running it, or EXPLAIN ANALYZE to run it and print the observed
operator tree (per-step cardinalities and wall time)`)
	case "\\rels":
		names := append([]string(nil), db.Names()...)
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "  %s\n", db.MustRelation(n))
		}
	case "\\strategy":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\strategy NAME")
			break
		}
		// Exactly the side-input-free strategies flockd accepts; cascade
		// and plan need -depth / -plan and are chosen by flag.
		for _, name := range serve.Strategies() {
			if name == fields[1] {
				s.req.Strategy = name
				fmt.Fprintln(out, "strategy:", name)
				return false
			}
		}
		fmt.Fprintln(out, "unknown strategy:", fields[1])
	case "\\explain":
		s.explain = len(fields) == 2 && fields[1] == "on"
		fmt.Fprintln(out, "explain:", s.explain)
	case "\\sql":
		if last == nil {
			fmt.Fprintln(out, "no flock yet")
			break
		}
		sql, err := sqlgen.FlockSQL(last)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, sql+";")
	case "\\plan":
		if last == nil {
			fmt.Fprintln(out, "no flock yet")
			break
		}
		plan, err := serve.Plan("static", last, db, serve.Side{})
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, plan)
	case "\\lint":
		if lastSrc == "" {
			fmt.Fprintln(out, "no flock yet")
			break
		}
		ds := analysis.AnalyzeSource(lastSrc, analysis.Options{DB: db})
		if len(ds) == 0 {
			fmt.Fprintln(out, "no diagnostics")
			break
		}
		fmt.Fprint(out, analysis.Render(ds))
	default:
		fmt.Fprintln(out, "unknown command:", fields[0], "(try \\help)")
	}
	return false
}
