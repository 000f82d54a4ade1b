package golint

import (
	"regexp"
	"strings"
)

// A suppression is one parsed "//lint:ignore DLxxx reason" comment. It
// silences findings of exactly one code on exactly one line: the line the
// comment ends on (end-of-line form) or the line directly below it
// (own-line form).
type suppression struct {
	file   string
	line   int
	code   string
	reason string
	used   bool
	// malformed flags a lint:ignore comment that did not parse (missing
	// code or reason); it suppresses nothing and is reported directly.
	malformed bool
}

var suppressRE = regexp.MustCompile(`^//\s*lint:ignore\s+(DL\d{3})\s+(\S.*)$`)

// collectSuppressions parses every lint:ignore comment in the package.
func collectSuppressions(p *Package) []*suppression {
	var sups []*suppression
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := p.Fset.Position(c.End())
				m := suppressRE.FindStringSubmatch(c.Text)
				if m == nil {
					sups = append(sups, &suppression{file: pos.Filename, line: pos.Line, malformed: true})
					continue
				}
				sups = append(sups, &suppression{
					file: pos.Filename, line: pos.Line,
					code: m[1], reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return sups
}

// applySuppressions filters findings through the package's suppressions
// and appends a DL000 warning for every suppression that is malformed or
// matched nothing. Each suppression covers its own line and the next, so
// the end-of-line and comment-above forms both work; a finding is dropped
// by the first matching suppression only.
func applySuppressions(p *Package, findings []Finding) []Finding {
	sups := collectSuppressions(p)
	if len(sups) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, s := range sups {
			if s.malformed || s.code != f.Code || s.file != f.File {
				continue
			}
			if s.line == f.Line || s.line+1 == f.Line {
				s.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, s := range sups {
		switch {
		case s.malformed:
			kept = append(kept, Finding{
				Code: "DL000", Severity: SevWarning, File: s.file, Line: s.line, Col: 1,
				Message: "malformed suppression: want //lint:ignore DLxxx reason",
			})
		case !s.used:
			kept = append(kept, Finding{
				Code: "DL000", Severity: SevWarning, File: s.file, Line: s.line, Col: 1,
				Message: "unused suppression for " + s.code + ": no such finding on this or the next line",
			})
		}
	}
	return kept
}
